"""Loop symmetric functions over colored variables, with exact arithmetic.

Polynomials live in variables ``x_i^{(r)}`` with ``i`` in ``1..m`` and the
color ``r`` in ``Z/nZ`` (stored 0-based).  Coefficients are arbitrary
precision integers.  A monomial is its packed exponent vector (Monagan and
Pearce, CASC 2007): one non-negative int whose ``FIELD_BITS``-bit field
number ``(i - 1) * n + r``, the order of ``TropicalGrid.flat()``, holds the
exponent of ``x_i^{(r)}``.  So a monomial product adds two ints, equality of
polynomials is plain equality of term maps, and ``trop_eval``'s exponent
matrix is the term keys' bytes.  No field carries: input exponents stay
below ``2**FIELD_BITS``, and a product whose operands' total-degree bounds
reach it raises ``OverflowError``.  ``mono_factors`` decodes a key into
its ``(i, r, exponent)`` factors; the constructor and the JSON take
exponent-vector tuples.

The generating families:

    loop_e(k, r):  sum over i1 < ... < ik of x_{i1}^(r) x_{i2}^(r+1) ...
    loop_h(k, r):  sum over i1 <= ... <= ik of x_{i1}^(r) x_{i2}^(r-1) ...
    tau(k, r):     like loop_h but no index may repeat more than n-1 times
    sigma(k, r):   sum_i (prefix of the first variable, colors r, r-1, ...)
                   times tau(k-i, r-i) of the remaining variables

One algebra type, ``Semiring`` (add, mul, zero, one, and div in a
semifield), carries every kernel of the package; exact ``RATIONAL`` and
``MIN_PLUS`` are defined here once, and ``MIN_PLUS_ARRAY``, min-plus over
int64 arrays that hold one instance per entry, whose ``verdict``s are
masks with one entry per instance.  A subtraction-free
kernel takes the type and the variables as a value table,
``values[i - 1][c]`` = x_i^(c), and runs unchanged over the polynomials
(``poly_ring``), at a point, and in min-plus, where it is its own
tropicalization.  ``laplace_dets`` subtracts, so it runs only in a ring,
by its operators, with zero and one from the type.  The polynomial ring
alone sets ``sum_products``, a fused ``start + sum a*b - sum c*d`` that
adds every term product into one accumulator; the kernels that sum many
products (``loop_schurs``, ``laplace_dets``) take it where it is set, and
their inline loops of add and mul elsewhere.

loop_e, loop_h and tau are one DP, ``loop_table``: one bottom-up table
over the indices of the sums over bounded multisets (multiplicity cap 1,
none and n-1; color step +1, -1 and -1), which holds every degree up to
its top at once, since the color of a factor depends only on its place.
``loop_family`` reads one degree from it (an e or tau past its top degree
is zero, with no table built), and its sigma sums prefixes
times tau, read from ``tau_tables``: one tau table per (suffix, color mod
n) at its top degree, which the sigmas of one evaluation share.  ``loop_e``,
``loop_h``, ``tau`` and ``sigma`` compute it over the polynomials;
``krenergy.birational`` computes it at exact rational points.

``tableau_monomials`` yields each semistandard tableau of a skew shape
with its color-shifted content monomial, the one statement of that rule
(``krenergy emit-formula`` prints its pairs), and ``loop_schur_tableaux``
sums the monomials; ``loop_schur_jt`` computes the same polynomial as a
determinant of loop elementary functions, and ``loop_schurs`` the loop
skew Schur functions of every nu / inner up to an outer shape at once, by
one dynamic program over horizontal strips, whose weights
(``strip_weights``) tables of one color can share; each entry runs a sweep
cached per shape and entry (``_strip_sweep``) that starts only from the
partitions the entries before it can reach.  ``laplace_dets`` takes the
determinants of many row selections from one pool by an expansion planned
once per zero pattern (``PolyMatrix.det`` is its one-selection call), and
``trop_eval`` is the (min, +) shadow of a subtraction-free polynomial.
The banded dilated-staircase matrices A and B of the closing identities
and their tau vector exist only as index functions: the ``*_indices``
functions give their entries as ``(degree, color)`` pairs, for the
polynomials here and for point evaluation alike.  ``sigma_product_indices``
gives the sigma factors of the energy's product, and ``sigma_product``,
the one statement of that product, multiplies them in any ``Semiring``.

``staircase_loop_schur`` builds the loop Schur polynomial of the energy's
staircase by one horizontal-strip DP over the exponent blocks of x_1, x_2,
..., with no tableau enumerated, after ``staircase_guard`` admits its size.
``staircase_form`` caches per (n, m) only its ``TropicalForm``, the float64
exponent matrix and its degree, not the polynomial; ``trop_eval`` of that
form is the package's one tropical staircase energy
(``crystal.energy_staircase``).  ``trop_evals`` is the one tropical
kernel: it multiplies the exponent matrix by a batch of stacked grids in
one float64 product, exact while max|v| * max(deg, 1) < 2^53, and in exact
Python ints for a grid over that bound; ``trop_eval`` is its batch of one.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import chain, product
from typing import Any, NamedTuple

import numpy as np

from ._strict import ints, json_decimal, json_int
from .tableaux import (
    GUARD_ENV_VAR,
    EnumerationGuardError,
    Shape,
    SkewShape,
    Ssyt,
    energy_staircase_count,
    energy_staircase_shape,
    enumerate_ssyt,
    partitions_between,
    resolve_guard,
    staircase,
)

Mono = int

# Each exponent takes one FIELD_BITS-bit field of a term's key; a numpy
# unsigned width, so that a key's bytes are the array of its exponents
FIELD_BITS = 32
_FIELD_LIMIT = 1 << FIELD_BITS
_FIELD_DTYPE = np.dtype(f"<u{FIELD_BITS // 8}")

# trop_evals multiplies a grid in float64 while max|v| * max(deg, 1) is below
# this bound, deg the largest total degree of a term: every product and
# partial sum is then an integer below 2^53, exact in any order of addition
_FLOAT_EXACT = 1 << 53

# trop_evals multiplies at most this many (term, grid) pairs at once, a
# 2 MiB float64 product, however many grids a batch holds
_BATCH_ENTRIES = 1 << 18


def _pack(exps: Sequence[int]) -> Mono:
    """The key of an exponent vector with entries below 2**FIELD_BITS."""
    return int.from_bytes(np.asarray(exps, dtype=_FIELD_DTYPE).tobytes(), "little")


def mono_factors(mono: Mono, n: int) -> list[tuple[int, int, int]]:
    """``(i, r, e)`` of each variable ``x_i^{(r)}`` with exponent e > 0 in
    the packed monomial ``mono``, in index order."""
    size = (mono.bit_length() // FIELD_BITS + 1) * _FIELD_DTYPE.itemsize
    fields = np.frombuffer(mono.to_bytes(size, "little"), dtype=_FIELD_DTYPE).tolist()
    return [(k // n + 1, k % n, e) for k, e in enumerate(fields) if e]


class ColoredPoly:
    """Sparse integer polynomial in the colored variables of an m x n array.

    ``terms`` maps each packed monomial (``x_i^{(r)}``'s exponent in the
    ``FIELD_BITS``-bit field ``(i - 1) * n + r``) to its coefficient; ``deg``
    bounds every term's total degree.  The constructor takes exponent-vector
    tuples, refusing an entry of ``2**FIELD_BITS`` or more before any is packed.
    """

    __slots__ = ("m", "n", "terms", "deg")

    def __init__(self, m: int, n: int, terms: dict[tuple[int, ...], int] | None = None):
        if m < 1 or n < 2:
            raise ValueError(f"ambient sizes must satisfy m >= 1, n >= 2, got ({m}, {n})")
        items = list((terms or {}).items())
        for mono, coef in items:
            ints((coef, *mono), "a term's coefficient and exponents")
            if len(mono) != m * n or not 0 <= min(mono) <= max(mono) < _FIELD_LIMIT:
                raise ValueError(
                    f"a monomial must be {m * n} exponents in 0..{_FIELD_LIMIT - 1} for ambient"
                    f" ({m}, {n}), got {mono!r}"
                )
        self.m = m
        self.n = n
        self.terms = {_pack(mono): coef for mono, coef in items if coef}
        self.deg = max((sum(mono) for mono, coef in items if coef), default=0)

    @classmethod
    def _raw(cls, m: int, n: int, terms: dict[Mono, int], deg: int) -> ColoredPoly:
        self = object.__new__(cls)
        self.m = m
        self.n = n
        self.terms = terms
        self.deg = deg
        return self

    @classmethod
    def zero(cls, m: int, n: int) -> ColoredPoly:
        return cls._raw(m, n, {}, 0)

    @classmethod
    def one(cls, m: int, n: int) -> ColoredPoly:
        return cls._raw(m, n, {0: 1}, 0)

    @classmethod
    def variable(cls, i: int, r: int, *, m: int, n: int) -> ColoredPoly:
        ints((i, r), "a variable's index and color")
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} out of range 1..{m}")
        return cls._raw(m, n, {1 << FIELD_BITS * ((i - 1) * n + r % n): 1}, 1)

    def _check_same(self, other: ColoredPoly) -> None:
        if self.m != other.m or self.n != other.n:
            raise ValueError(
                f"ambient mismatch: ({self.m}, {self.n}) vs ({other.m}, {other.n})"
            )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, k: int) -> bool:
        return all(sum(e for *_, e in mono_factors(mono, self.n)) == k for mono in self.terms)

    def sorted_terms(self) -> list[tuple[list[tuple[int, int, int]], int]]:
        """``(mono_factors(mono), coef)`` of each term, ordered by the factors."""
        return sorted((mono_factors(mono, self.n), coef) for mono, coef in self.terms.items())

    def _merge(self, other: ColoredPoly, sign: int) -> ColoredPoly:
        """``self + sign * other``, sign +1 or -1, in one copy of the terms."""
        if not isinstance(other, ColoredPoly):
            return NotImplemented
        self._check_same(other)
        if not (self.terms and other.terms):  # a zero operand: nothing to merge
            return self if self.terms else other if sign > 0 else other * -1
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            c = terms.get(mono, 0) + sign * coef
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return ColoredPoly._raw(self.m, self.n, terms, max(self.deg, other.deg))

    def __add__(self, other: ColoredPoly) -> ColoredPoly:
        return self._merge(other, 1)

    def __neg__(self) -> ColoredPoly:
        return self * -1

    def __sub__(self, other: ColoredPoly) -> ColoredPoly:
        return self._merge(other, -1)

    def __mul__(self, other: ColoredPoly | int) -> ColoredPoly:
        if type(other) is int:
            if other == 0:
                return ColoredPoly.zero(self.m, self.n)
            return ColoredPoly._raw(
                self.m, self.n, {mono: c * other for mono, c in self.terms.items()}, self.deg
            )
        if not isinstance(other, ColoredPoly):
            return NotImplemented
        self._check_same(other)
        if not (self.terms and other.terms):
            return other if self.terms else self
        if (deg := self.deg + other.deg) >= _FIELD_LIMIT:
            raise OverflowError(f"degree bound {deg} would carry out of a {FIELD_BITS}-bit field")
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        if len(small) == 1:
            # a monomial times a polynomial: distinct keys, no cancellation
            [(mono_a, ca)] = small.items()
            return ColoredPoly._raw(
                self.m, self.n, {mono_a + mono: ca * c for mono, c in large.items()}, deg
            )
        out: dict[Mono, int] = {}
        get = out.get
        for mono_a, ca in small.items():
            for mono_b, cb in large.items():
                mono = mono_a + mono_b
                out[mono] = get(mono, 0) + ca * cb
        if 0 in out.values():  # a coefficient cancelled
            out = {k: c for k, c in out.items() if c}
        return ColoredPoly._raw(self.m, self.n, out, deg)

    def sum_products(
        self,
        plus: Iterable[tuple[ColoredPoly, ColoredPoly]],
        minus: Iterable[tuple[ColoredPoly, ColoredPoly]] = (),
    ) -> ColoredPoly:
        """``self + sum(a * b for a, b in plus) - sum(c * d for c, d in
        minus)``, every term product added into one copy of ``self``'s
        terms, with the zero coefficients dropped once, at the end.  The
        degree bound is the largest of ``self``'s and the nonzero products';
        a product whose bounds reach ``2**FIELD_BITS`` raises
        ``OverflowError``, as ``*`` does."""
        m, n = self.m, self.n
        out = dict(self.terms)
        get, deg = out.get, self.deg
        for pairs, sign in ((plus, 1), (minus, -1)):
            for a, b in pairs:
                if a.m != m or a.n != n or b.m != m or b.n != n:
                    raise ValueError(
                        f"ambient mismatch: ({m}, {n}) vs ({a.m}, {a.n}) and ({b.m}, {b.n})"
                    )
                small, large = a.terms, b.terms
                if not (small and large):
                    continue
                if (bound := a.deg + b.deg) >= _FIELD_LIMIT:
                    raise OverflowError(
                        f"degree bound {bound} would carry out of a {FIELD_BITS}-bit field"
                    )
                deg = max(deg, bound)
                if len(small) > len(large):
                    small, large = large, small
                for mono_a, ca in small.items():
                    ca *= sign
                    for mono_b, cb in large.items():
                        mono = mono_a + mono_b
                        out[mono] = get(mono, 0) + ca * cb
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return ColoredPoly._raw(m, n, out, deg)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColoredPoly)
            and (self.m, self.n) == (other.m, other.n)
            and self.terms == other.terms
        )

    def eval_rational(self, value) -> Fraction:
        """Evaluate at a point; ``value(i, r)`` must return an exact number."""
        total = Fraction(0)
        for mono, coef in self.terms.items():
            prod = Fraction(coef)
            for i, r, e in mono_factors(mono, self.n):
                prod *= Fraction(value(i, r)) ** e
            total += prod
        return total

    def to_jsonable(self) -> dict:
        terms = []
        for factors, coef in self.sorted_terms():
            terms.append({"coef": str(coef), "exps": [list(f) for f in factors]})
        return {"m": self.m, "n": self.n, "terms": terms}

    @classmethod
    def from_jsonable(cls, data: dict) -> ColoredPoly:
        """Inverse of ``to_jsonable``; coefficients must be decimal strings, and
        each monomial lists distinct variables with exponents in 1..2**FIELD_BITS - 1.
        A document whose terms hold more than the guard's worth of exponent
        slots (``KR_ENERGY_GUARD``) raises ``ValueError`` before any is built."""
        m, n = json_int(data["m"], "m"), json_int(data["n"], "n")
        items = data["terms"]
        guard = resolve_guard()
        if len(items) * m * n > guard:
            raise ValueError(
                f"{len(items)} terms of {m} x {n} exponents exceed the guard {guard}"
                f" ({GUARD_ENV_VAR})"
            )
        terms: dict[tuple[int, ...], int] = {}
        for item in items:
            exps = [0] * (m * n)
            for i, r, e in item["exps"]:
                var = (json_int(i, "index"), json_int(r, "color"))
                if not (1 <= i <= m and 0 <= r < n):
                    raise ValueError(f"bad variable {var} for ambient ({m}, {n})")
                k = (i - 1) * n + r
                if exps[k]:
                    raise ValueError(f"variable {var} listed twice in one monomial")
                exps[k] = json_int(e, "exponent")
                if not 1 <= e < _FIELD_LIMIT:
                    raise ValueError(f"exponent of {var} must be in 1..{_FIELD_LIMIT - 1}, got {e}")
            mono = tuple(exps)
            terms[mono] = terms.get(mono, 0) + json_decimal(item["coef"], "coefficient")
        return cls(m, n, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for factors, coef in self.sorted_terms():
            body = "*".join(f"x{i}^({r})" + (f"^{e}" if e > 1 else "") for i, r, e in factors)
            parts.append(f"{coef}*{body}" if body else str(coef))
        return " + ".join(parts)


def _normalize_indices(indices: Sequence[int] | None, m: int) -> tuple[int, ...]:
    if indices is None:
        return tuple(range(1, m + 1))
    out = ints(indices, "indices")
    if any(not 1 <= i <= m for i in out):
        raise ValueError(f"indices {out} out of range 1..{m}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError(f"indices must be strictly increasing: {out}")
    return out


class Semiring(NamedTuple):
    """A commutative semiring: ``add`` and ``mul`` with their units
    ``zero`` and ``one``, and ``div`` where it is a semifield.

    ``sum_products(start, plus, minus=())``, where set, is ``start + sum(a
    * b for a, b in plus) - sum(c * d for c, d in minus)`` in one
    accumulator: ``poly_ring`` sets it to ``ColoredPoly.sum_products``, so
    that a kernel adding many products copies no intermediate sum, and a
    kernel over a semiring without it keeps its inline loop of ``add`` and
    ``mul``."""

    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    div: Callable[[Any, Any], Any] | None = None
    sum_products: Callable[..., Any] | None = None


# exact rationals, ints until a division makes an exact Fraction, and their
# tropicalization in plain ints, whose zero is the empty minimum (trop_eval of 0)
RATIONAL = Semiring(operator.add, operator.mul, 0, 1, Fraction)
MIN_PLUS = Semiring(min, operator.add, math.inf, 0, operator.sub)
# MIN_PLUS entry by entry on int64 arrays, one entry per instance, so one
# kernel call serves a batch; its one is an int64, so an empty product is
# too, but its zero is a float, so a result that the zero enters (a loop
# table, and so each sigma) is float64, exact while its values stay below 2^53
MIN_PLUS_ARRAY = Semiring(np.minimum, np.add, math.inf, np.int64(0), np.subtract)


def verdict(x, y):
    """``x == y`` for the values of one kernel, or lists of them, in any
    ``Semiring``: a bool for scalars, and over ``MIN_PLUS_ARRAY`` a mask
    with one entry per instance, the lists reduced with ``&`` (and false
    where their lengths differ)."""
    if isinstance(x, list):
        return reduce(operator.and_, map(verdict, x, y), len(x) == len(y))
    return x == y


@lru_cache(maxsize=None)
def poly_ring(m: int, n: int) -> tuple[Semiring, tuple[tuple[ColoredPoly, ...], ...]]:
    """The polynomials as a ``Semiring``, and the colored variables' value table."""
    zero, one = ColoredPoly.zero(m, n), ColoredPoly.one(m, n)
    xs = tuple(tuple(ColoredPoly.variable(i, c, m=m, n=n) for c in range(n))
               for i in range(1, m + 1))
    ring = Semiring(operator.add, operator.mul, zero, one, sum_products=ColoredPoly.sum_products)
    return ring, xs


def loop_table(family: str, k: int, r: int, indices: Sequence[int], sr: Semiring, values) -> list:
    """``[f_t^{(r)} for t in 0..k]`` for the loop family f = ``e``, ``h`` or
    ``tau`` on the variables ``indices`` (strictly increasing), computed
    in ``sr`` at ``values``; empty for k < 0.

    f_t sums ``prod_s x_{i_s}^{(r + step*(s-1))}`` over the weakly
    increasing ``i_1 <= ... <= i_t`` from ``indices`` that take no index
    more than ``cap`` times (cap 1, unbounded, n - 1; step +1, -1, -1).
    The color of factor s depends on s alone, so one bottom-up DP over the
    indices holds every degree: after each index, ``row[t]`` is the t-factor
    sum over the indices seen so far.  A cap of k or more cannot bind, so
    then (h, and tau up to degree n - 1) each index takes one ascending
    sweep instead of up to ``cap`` products per degree.
    """
    n, add, mul = len(values[0]), sr.add, sr.mul
    cap, step = {"e": (1, 1), "h": (k, -1), "tau": (n - 1, -1)}[family]
    if k < 0:
        return []
    colors = [(r + step * t) % n for t in range(k)]  # the color of factor t + 1
    row = [sr.one] + [sr.zero] * k
    for pos, i in enumerate(indices):
        xs = [values[i - 1][c] for c in colors]
        if cap >= k:  # h, or a cap that k factors cannot reach
            # ascending, so row[t - 1] already holds copies of i
            for t in range(1, k + 1):
                row[t] = add(row[t], mul(row[t - 1], xs[t - 1]))
            continue
        # descending over the degrees the indices so far can reach, adding
        # u <= cap copies of i as factors t-u+1..t
        for t in range(min(k, cap * (pos + 1)), 0, -1):
            total, prod = row[t], sr.one
            for u in range(1, min(cap, t) + 1):
                prod = mul(prod, xs[t - u])
                total = add(total, mul(row[t - u], prod))
            row[t] = total
    return row


def tau_tables(sr: Semiring, values) -> Callable[[tuple[int, ...], int], list]:
    """The tau tables that sigma reads, in ``sr`` at ``values``:
    ``taus(indices, c)``, c in 0..n-1, is the ``loop_table`` of tau of
    color c on ``indices`` at its top degree ``(n - 1) * len(indices)``,
    above which tau vanishes.  Each is built once, so that every sigma
    given the same ``taus`` shares it."""
    n = len(values[0])

    @cache
    def taus(indices: tuple[int, ...], c: int) -> list:
        return loop_table("tau", (n - 1) * len(indices), c, indices, sr, values)

    return taus


def loop_family(family: str, k: int, r: int, indices: Sequence[int], sr: Semiring, values,
                taus: Callable[[tuple[int, ...], int], list] | None = None):
    """Loop ``e``, ``h``, ``tau`` or ``sigma`` of degree k and color r on
    the variables ``indices`` (strictly increasing), computed in ``sr`` at
    ``values``.

    e, h and tau are entry k of ``loop_table``; an e of degree over
    ``len(indices)`` and a tau over ``(n - 1) * len(indices)`` vanish and
    build no table.  sigma sums the prefixes
    ``x_f^{(r)} x_f^{(r-1)} ... x_f^{(r-i+1)}`` of the first index f times
    ``tau_{k-i}^{(r-i)}`` of the remaining indices, read from ``taus``, a
    ``tau_tables`` at ``values`` that callers share, or a fresh one.
    """
    if family != "sigma":
        top = {"e": len(indices), "tau": (len(values[0]) - 1) * len(indices)}.get(family, k)
        return loop_table(family, k, r, indices, sr, values)[k] if 0 <= k <= top else sr.zero
    if not indices:
        raise ValueError("sigma needs a nonempty variable range")
    n, first, rest = len(values[0]), values[indices[0] - 1], tuple(indices[1:])
    taus = taus or tau_tables(sr, values)
    total, prefix = sr.zero, sr.one
    for i in range(k + 1):
        table = taus(rest, (r - i) % n)
        if k - i < len(table):  # tau of a higher degree is zero
            total = sr.add(total, sr.mul(prefix, table[k - i]))
        prefix = sr.mul(prefix, first[(r - i) % n])
    return total


def _poly_family(family: str, k: int, r: int, n: int, m: int, indices) -> ColoredPoly:
    """``loop_family`` over the polynomials, its arguments checked."""
    ints((k, r), "a loop family's degree and color")
    return loop_family(family, k, r, _normalize_indices(indices, m), *poly_ring(m, n))


def loop_e(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """Loop elementary symmetric function e_k^{(r)} on the given variables."""
    return _poly_family("e", k, r, n, m, indices)


def loop_h(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """Loop complete homogeneous symmetric function h_k^{(r)}."""
    return _poly_family("h", k, r, n, m, indices)


def tau(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """The tau family: loop_h restricted to multiplicities at most n - 1."""
    return _poly_family("tau", k, r, n, m, indices)


def sigma(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """sigma_k^{(r)}: prefix powers of the first variable times tau of the rest."""
    return _poly_family("sigma", k, r, n, m, indices)


def sigma_product_indices(m: int, *, n: int, r: int = 0) -> list[tuple[int, int, range]]:
    """``(degree, color, indices)`` of each sigma factor of the energy's
    product: ``sigma_{(n-1)(m-i)}^{(r+i-1)}`` on variables i..m, i < m."""
    return [((n - 1) * (m - i), r + i - 1, range(i, m + 1)) for i in range(1, m)]


def sigma_product(sr: Semiring, values, r: int = 0,
                  taus: Callable[[tuple[int, ...], int], list] | None = None):
    """The energy's sigma product, the product of the ``sigma_product_indices``
    factors at color r, computed in ``sr`` at ``values`` (m rows); ``taus``
    as for ``loop_family``.  For m = 1 it is the empty product, ``sr.one``."""
    taus = taus or tau_tables(sr, values)
    factors = (loop_family("sigma", k, c, idx, sr, values, taus)
               for k, c, idx in sigma_product_indices(len(values), n=len(values[0]), r=r))
    return reduce(sr.mul, factors, sr.one)


def tableau_monomials(
    shape: SkewShape | Shape | Iterable[int],
    r: int,
    max_entry: int,
    *,
    n: int,
) -> Iterator[tuple[Ssyt, Mono]]:
    """Each semistandard tableau T of ``shape`` with entries in 1..max_entry,
    in the order of ``enumerate_ssyt``, with its packed monomial: one factor
    ``x_{T(i,j)}^{(i - j + r)}`` per cell."""
    skew = SkewShape.of(shape)
    # row-major, the order of Ssyt.row_word
    colors = [(i - j + r) % n for (i, j) in skew.cells()]
    size = max_entry * n
    for t in enumerate_ssyt(skew, max_entry):
        exps = [0] * size
        for v, c in zip(t.row_word(), colors):
            exps[(v - 1) * n + c] += 1
        yield t, _pack(exps)


def loop_schur_tableaux(
    shape: SkewShape | Shape | Iterable[int],
    r: int,
    max_entry: int,
    *,
    n: int,
) -> ColoredPoly:
    """Loop (skew) Schur function as the sum of ``tableau_monomials``; the
    ambient variable count is ``max_entry``."""
    terms: dict[Mono, int] = {}
    for _, mono in tableau_monomials(shape, r, max_entry, n=n):
        terms[mono] = terms.get(mono, 0) + 1
    return ColoredPoly._raw(max_entry, n, terms, SkewShape.of(shape).size)


@lru_cache(maxsize=None)
def _strip_chains(
    outer: tuple[int, ...], inner: tuple[int, ...]
) -> tuple[tuple, tuple, tuple]:
    """The horizontal-strip steps of the skew shape ``outer / inner``.

    Returns the partitions nu with inner <= nu <= outer (``len(outer)``
    parts each) by size, so inner comes first and outer last; the distinct
    content tuples of the nonempty strips; and, per partition, its strip
    predecessors as ``(index of kappa, index of the contents of nu / kappa)``.
    Cached for ``loop_schurs`` and its ``_strip_sweep``, which reuse the
    chains of their small shapes.
    """
    parts = sorted(partitions_between(outer, inner), key=sum)
    inner = inner + (0,) * (len(outer) - len(inner))
    index = {nu: k for k, nu in enumerate(parts)}
    contents: dict[tuple[int, ...], int] = {}
    preds = []
    for nu in parts:
        below = nu[1:] + (0,)
        steps = []
        for kappa in product(*(range(max(lo, b), a + 1) for lo, a, b in zip(inner, nu, below))):
            if kappa == nu:
                continue
            cells = tuple(
                a - b
                for a, (start, end) in enumerate(zip(kappa, nu), start=1)
                for b in range(start + 1, end + 1)
            )
            steps.append((index[kappa], contents.setdefault(cells, len(contents))))
        preds.append(tuple(steps))
    return tuple(parts), tuple(contents), tuple(preds)


def strip_weights(r: int, sr: Semiring, values) -> Callable[[tuple[int, ...]], list]:
    """The strip weights of color r for ``loop_schurs``, in ``sr`` at
    ``values``: for the contents of a horizontal strip's cells, the list
    over the entries i = 1..m of ``prod_c x_i^{(c + r)}``, memoized per
    content tuple, so that the tables that share it compute each weight
    once."""
    n = len(values[0])

    @cache
    def weights(cells: tuple[int, ...]) -> list:
        return [reduce(sr.mul, (row[(c + r) % n] for c in cells), sr.one) for row in values]

    return weights


@lru_cache(maxsize=None)
def _strip_sweep(outer: tuple[int, ...], inner: tuple[int, ...], i: int) -> tuple:
    """One entry's sweep of ``loop_schurs`` after i entries, as ``(nu,
    steps)`` pairs by descending nu, each step a strip predecessor ``(kappa,
    contents)`` of ``_strip_chains(outer, inner)``.

    After i entries a partition kappa holds zero unless every column of
    kappa / inner has height at most i, that is kappa_{a+i} <= inner_a for
    every a.  So a step keeps only such a kappa, and a nu that none of its
    predecessors reaches is left out, its value unchanged.  From i =
    ``len(outer)`` on every partition is reachable and the sweep is full,
    so ``loop_schurs`` asks for at most ``len(outer) + 1`` sweeps.
    """
    parts, _, preds = _strip_chains(outer, inner)
    inner = inner + (0,) * (len(outer) - len(inner))
    reached = [all(k <= lo for k, lo in zip(kappa[i:], inner)) for kappa in parts]
    sweep = []
    for nu in range(len(parts) - 1, -1, -1):
        # the chains' own step tuples, shared by every sweep of the shape
        steps = tuple([step for step in preds[nu] if reached[step[0]]])
        if steps:
            sweep.append((nu, preds[nu] if len(steps) == len(preds[nu]) else steps))
    return tuple(sweep)


def loop_schurs(outer: tuple, inner: tuple, weights: Callable[[tuple], list], sr: Semiring) -> dict:
    """Loop skew Schur functions of every nu / inner with inner <= nu <=
    outer (partitions as tuples), computed in ``sr`` and keyed by nu with
    ``len(outer)`` parts; their color and values are those of ``weights``,
    a ``strip_weights`` in ``sr``.

    A semistandard tableau with entries 1..m is a chain of partitions from
    the inner to the outer shape in which entry i fills a horizontal strip;
    a cell (a, b) with entry i contributes ``x_i^{(a - b + r)}`` (the
    content convention of ``tableau_monomials``).  The DP adds the strips
    of one entry at a time to one value per partition nu, which ends as
    the function of nu / inner.  Entry i + 1 runs the cached sweep
    ``_strip_sweep(outer, inner, min(i, len(outer)))``, whose steps start
    only from the partitions that i entries can reach, so the early entries
    of a tall shape multiply by no value known to be zero.  A partition's
    strips are summed in one ``sr.sum_products`` where the ring has it.
    """
    parts, strips, _ = _strip_chains(outer, inner)
    add, mul, fused, height = sr.add, sr.mul, sr.sum_products, len(outer)
    f = [sr.one] + [sr.zero] * (len(parts) - 1)
    # the strip weights of each entry i in turn (none without a strip)
    for i, ws in enumerate(zip(*[weights(cells) for cells in strips])):
        # strips only grow partitions, so a descending sweep reads the
        # previous entry's values
        for nu, steps in _strip_sweep(outer, inner, min(i, height)):
            if fused:
                f[nu] = fused(f[nu], [(f[kappa], ws[w]) for kappa, w in steps])
                continue
            total = f[nu]
            for kappa, w in steps:
                total = add(total, mul(f[kappa], ws[w]))
            f[nu] = total
    return dict(zip(parts, f))


def _append_block(out: dict[Mono, int], terms: dict[Mono, int], block: Mono) -> None:
    """Add each term of ``terms``, its key plus the packed ``block``, into ``out``."""
    for prefix, c in terms.items():
        key = prefix + block
        out[key] = out.get(key, 0) + c


def _colors(kappa: tuple[int, ...], nu: tuple[int, ...], n: int) -> Mono:
    """The color counts mod n of the cells of nu / kappa, packed as the n
    exponent fields of x_1; cell (a, b) has color a - b (the content
    convention of ``tableau_monomials``)."""
    counts = [0] * n
    for a, (start, end) in enumerate(zip(kappa, nu), start=1):
        for b in range(start + 1, end + 1):
            counts[(a - b) % n] += 1
    return _pack(counts)


def staircase_guard(n: int, m: int) -> None:
    """Raise ``EnumerationGuardError`` when the staircase polynomial of the
    energy at (n, m) may hold more exponent slots, its tableaux times the
    m * n slots of each term (the measure of ``ColoredPoly.from_jsonable``),
    than the guard allows."""
    slots, guard = energy_staircase_count(n, m) * m * n, resolve_guard()
    if slots > guard:
        raise EnumerationGuardError(
            f"the energy staircase polynomial for n={n}, m={m} may hold {slots} exponent"
            f" slots, over the guard {guard}"
        )


def staircase_loop_schur(n: int, m: int) -> ColoredPoly:
    """Loop Schur polynomial of the energy's staircase at color 0 in m
    variable rows; its tropicalization at the count grid of a tensor is the
    energy.  Not cached: ``staircase_form`` keeps its exponent matrix
    alone.  ``staircase_guard`` refuses a size up front.

    The polynomial comes from one horizontal-strip DP, with no tableau
    enumerated; it equals ``loop_schur_tableaux`` of the staircase.  Entry
    i's strip fills only the n exponent slots of x_i, so the DP keeps, per
    partition kappa, a map from each prefix (the packed exponents of
    x_1..x_i) to its coefficient.  It walks forward from each kappa to the
    nu with nu / kappa a horizontal strip that the entries left can still
    complete to the staircase (nu_a >= outer_{a + left}: a column of the
    rest holds at most one cell per entry left), and adds to every prefix
    one block, the color counts of the strip's cells shifted to the fields
    of x_{i + 1}.  Entries m - 1 and m are taken together, entry m filling
    what is left of the staircase, so the maps of entry m - 1 are never
    held.
    """
    outer = energy_staircase_shape(n, m).parts
    staircase_guard(n, m)
    if m == 1:
        return ColoredPoly.one(1, n)

    def strips(kappa: tuple[int, ...], left: int) -> Iterator[tuple[int, ...]]:
        """Each nu inside the staircase with nu / kappa a horizontal strip
        that ``left`` more entries can complete."""
        floor = outer[left:] + (0,) * left
        return product(
            *(range(max(k, f), min(o, u) + 1)
              for k, f, o, u in zip(kappa, floor, outer, outer[:1] + kappa))
        )

    level = {(0,) * (m - 1): {0: 1}}  # the empty partition, before any entry
    for i in range(1, m - 1):
        after: dict[tuple[int, ...], dict[Mono, int]] = {}
        shift = FIELD_BITS * n * (i - 1)  # the first field of x_i
        for kappa, terms in level.items():
            for nu in strips(kappa, m - i):
                _append_block(after.setdefault(nu, {}), terms, _colors(kappa, nu, n) << shift)
        level = after
    out: dict[Mono, int] = {}
    shift = FIELD_BITS * n * (m - 2)
    for kappa, terms in level.items():
        rest = _colors(kappa, outer, n)
        for nu in strips(kappa, 1):
            block = _colors(kappa, nu, n)  # each field at most rest's: no borrow
            _append_block(out, terms, (block + ((rest - block) << FIELD_BITS * n)) << shift)
    return ColoredPoly._raw(m, n, out, sum(outer))


def jacobi_trudi_indices(
    shape: SkewShape | Shape | Iterable[int], r: int, size: int | None = None
) -> list[list[tuple[int, int]]]:
    """``(degree, color)`` of each loop e entry of the Jacobi-Trudi matrix.

    With ``lam``/``mu`` the conjugates of the outer/inner shape, the entry
    at (i, j) is ``e_{lam_i - mu_j - i + j}`` with color ``r - j + 1 + mu_j``;
    the top-left entries of the dilated staircase matrix below pin this
    convention.  ``size`` pads the matrix past ``len(lam)``.
    """
    skew = SkewShape.of(shape)
    size = max(skew.outer.parts, default=0) if size is None else size
    # conjugate part c + 1 of a partition counts its parts above c
    lam, mu = ([sum(p > c for p in s.parts) for c in range(size)] for s in (skew.outer, skew.inner))
    return [[(lam[i] - mu[j] - i + j, r - j + mu[j]) for j in range(size)] for i in range(size)]


def loop_schur_jt(
    shape: SkewShape | Shape | Iterable[int],
    r: int,
    *,
    n: int,
    m: int,
) -> ColoredPoly:
    """Loop Schur function of ``shape`` by the Jacobi-Trudi determinant."""
    rows = [[loop_e(k, c, n=n, m=m) for k, c in row] for row in jacobi_trudi_indices(shape, r)]
    return PolyMatrix(m, n, rows).det()


class PolyMatrix:
    """A rectangular matrix of colored polynomials over one ambient (m, n)."""

    __slots__ = ("m", "n", "entries")

    def __init__(self, m: int, n: int, entries: Sequence[Sequence[ColoredPoly]]):
        entries = [list(row) for row in entries]
        width = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for p in row:
                if (p.m, p.n) != (m, n):
                    raise ValueError("matrix entry with mismatched ambient")
        self.m = m
        self.n = n
        self.entries = entries

    def det(self) -> ColoredPoly:
        """Division-free determinant: ``laplace_dets`` of the one selection
        of every row, so a matrix that is not square raises ``ValueError``."""
        ring = poly_ring(self.m, self.n)[0]
        return laplace_dets(self.entries, [range(len(self.entries))], ring)[0]


# laplace_dets keeps at most this many plans: a randomized identity point
# at (4, 5) builds 21 (one per Jacobi-Trudi inner shape, which its colors
# share, one for det A and one for B's minors), the default ``krenergy
# verify`` 65; a second point at the same (n, m) builds none
LAPLACE_PLANS = 512


def laplace_dets(pool: Sequence[Sequence], selections: Iterable[Iterable[int]], sr: Semiring):
    """The determinant of each square matrix ``[pool[p] for p in selection]``,
    in the ring ``sr`` (its operators, zero and one), by one division-free
    Laplace expansion along columns.

    The expansion depends only on the width, the pool's zero pattern and
    the selections, so ``_laplace_plan`` lays it out once per such key (at
    most ``LAPLACE_PLANS`` kept) as a flat list of steps.  A call reads the
    zero pattern of its entries and runs the steps in order, each appending
    one minor to a list that starts with zero, one and the entries, in
    ``sr.sum_products`` where the ring has it.
    """
    width, zero = len(pool[0]) if pool else 0, sr.zero
    # A tuple of tuples, as a plan holds it, is the key as it is: CPython
    # 3.11 keeps a freed 20-tuple on its tuple free list for good, so a
    # fresh one per call would pile up.  Otherwise lists first: a tuple
    # built from a generator is resized, which bypasses the free lists on
    # the way in but not out.
    if type(selections) is not tuple or not all(type(rows) is tuple for rows in selections):
        selections = tuple([tuple(rows) for rows in selections])
    if any(len(row) != width for row in chain(pool, selections)):
        raise ValueError(f"need pool rows of one width, {width}, and selections of {width} rows")
    values = [zero, sr.one]
    for row in pool:
        values += row
    pattern = tuple([v != zero for v in values[2:]])
    steps, outputs = _laplace_plan(width, pattern, selections)
    append, fused = values.append, sr.sum_products
    for plus, minus in steps:
        if fused:
            if len(plus) == 1 and not minus:  # one term: just its product
                [(entry, sub)] = plus
                append(values[entry] * values[sub])
            else:
                append(fused(zero, [(values[e], values[s]) for e, s in plus],
                             [(values[e], values[s]) for e, s in minus]))
            continue
        acc = zero
        for entry, sub in plus:
            acc = acc + values[entry] * values[sub]
        for entry, sub in minus:
            acc = acc - values[entry] * values[sub]
        append(acc)
    return [values[k] for k in outputs]


@lru_cache(maxsize=LAPLACE_PLANS)
def _laplace_plan(width: int, pattern: tuple[bool, ...], selections: tuple[tuple[int, ...], ...]):
    """The steps and outputs of ``laplace_dets`` on a pool whose entry
    (p, c) is nonzero just when ``pattern[p * width + c]``.

    The values list holds zero, one, then entry (p, c) at ``2 + p * width
    + c``, then one minor per step.  The minor of some rows on the last as
    many columns expands along its first column into signed ``(entry,
    sub-minor)`` terms; a step is the position pairs of its terms of even
    row index, to add, then of odd row index, to subtract.  A zero entry or
    a zero sub-minor drops its term, and a minor with a row zero on every
    column left has none; a minor with no term is 0 and takes no step.
    Selections share the minors of equal row tuples: the up to 20
    selections of a 6-row Jacobi-Trudi pool share its 15 two-row minors.
    ``outputs`` holds each selection's position.
    """
    slots: dict[tuple[int, ...], int] = {}
    steps: list[tuple] = []
    outputs = tuple([_plan_minor(rows, width, pattern, slots, steps) if rows else 1
                     for rows in selections])
    return tuple(steps), outputs


def _plan_minor(rows: tuple[int, ...], width: int, pattern: tuple[bool, ...],
                slots: dict[tuple[int, ...], int], steps: list[tuple]) -> int:
    """The position of the minor of ``rows`` on the last ``len(rows)``
    columns in ``laplace_dets``' values (0 for a zero minor), planning its
    step and those of its sub-minors on first sight."""
    col = width - len(rows)
    if col == width - 1:
        return 2 + rows[0] * width + col if pattern[rows[0] * width + col] else 0
    slot = slots.get(rows)
    if slot is not None:
        return slot
    terms: tuple[list[tuple[int, int]], ...] = ([], [])
    if all(any(pattern[p * width + col : (p + 1) * width]) for p in rows):
        for idx, p in enumerate(rows):
            if not pattern[p * width + col]:
                continue
            sub = _plan_minor(rows[:idx] + rows[idx + 1 :], width, pattern, slots, steps)
            if sub:
                terms[idx % 2].append((2 + p * width + col, sub))
    slot = 0
    if terms[0] or terms[1]:
        steps.append((tuple(terms[0]), tuple(terms[1])))
        slot = 2 + len(pattern) + len(steps) - 1
    slots[rows] = slot
    return slot


def staircase_matrix_size(m: int, n: int) -> tuple[int, int]:
    """(a, n*a) with a = ceil((n-1)(m-1) / n), the padded Jacobi-Trudi size."""
    if m < 2:
        raise ValueError(f"the staircase matrices need m >= 2, got {m}")
    deg = (n - 1) * (m - 1)
    a = -(-deg // n)
    return a, n * a


def staircase_a_indices(m: int, *, n: int, r: int = 0) -> list[list[tuple[int, int]]]:
    """``(degree, color)`` entries of the na x na staircase matrix A: the
    Jacobi-Trudi matrix of the staircase ``(n-1) * delta_{m-1}``, padded.

    Row k, column j holds ``e_{lam_k - k + j}`` with color ``r - j + 1``,
    where lam is the conjugate of the staircase.
    """
    _, size = staircase_matrix_size(m, n)
    return jacobi_trudi_indices(staircase(m - 1, n - 1), r, size)


def staircase_b_indices(m: int, *, n: int, r: int = 0) -> list[list[tuple[int, int]]]:
    """``(degree, color)`` entries of the (n(a+1) - 1) x n(a+1) matrix B.

    B extends A by n extra columns, keeping the column-translation
    structure (each column repeats the one n to its left, shifted down by
    n - 1): row k, column j holds ``e_{lam_k - k + j - 1}`` with color
    ``r - j + 1``, where lam is the conjugate of ``(n-1) * delta_m``.
    """
    a, _ = staircase_matrix_size(m, n)
    lam = staircase(m, n - 1).conjugate()
    return [
        [(lam.part(k) - k + j - 1, r - j + 1) for j in range(1, n * (a + 1) + 1)]
        for k in range(1, n * (a + 1))
    ]


def tau_vector_indices(m: int, *, n: int, r: int = 0) -> list[tuple[int, int, int]]:
    """``(sign, degree, color)`` of each component of the tau vector.

    Component j (1-based) is ``(-1)^(j-1) tau_{(n-1)m - j + 1}`` with color
    ``r - j``; components with negative subscript vanish.
    """
    a, _ = staircase_matrix_size(m, n)
    return [(1 if j % 2 else -1, (n - 1) * m - j + 1, r - j) for j in range(1, n * (a + 1) + 1)]


class TropicalForm(NamedTuple):
    """A subtraction-free polynomial as ``trop_evals`` reads it: its terms'
    exponent vectors as the rows of a float64 matrix (exact, as each
    exponent is below 2^32), and ``deg``, the largest row sum."""

    m: int
    n: int
    matrix: np.ndarray
    deg: int


def tropical_form(p: ColoredPoly) -> TropicalForm:
    """The exponent matrix of ``p``, the term keys' bytes, checked for a
    negative coefficient as it is built."""
    if any(c < 0 for c in p.terms.values()):
        raise ValueError("tropical evaluation needs a subtraction-free polynomial")
    size = p.m * p.n * _FIELD_DTYPE.itemsize
    keys = b"".join(mono.to_bytes(size, "little") for mono in p.terms)
    exps = np.frombuffer(keys, dtype=_FIELD_DTYPE).reshape(len(p.terms), p.m * p.n)
    deg = int(exps.sum(axis=1, dtype=np.uint64).max(initial=0))
    return TropicalForm(p.m, p.n, exps.astype(np.float64), deg)


@lru_cache(maxsize=None)
def staircase_form(n: int, m: int) -> TropicalForm:
    """``tropical_form`` of ``staircase_loop_schur(n, m)``, cached per
    (n, m); the polynomial itself is not kept."""
    return tropical_form(staircase_loop_schur(n, m))


def trop_eval(p: ColoredPoly | TropicalForm, grid) -> int | float:
    """Tropical (min, +) evaluation of a subtraction-free polynomial, or of
    its ``TropicalForm``, at one grid: ``trop_evals`` of the batch of one.

    ``grid`` must expose ``m``, ``n`` and ``flat()`` like
    :class:`krenergy.crystal.TropicalGrid`.  Returns ``math.inf`` for the
    zero polynomial and rejects polynomials with a negative coefficient.
    """
    if (grid.m, grid.n) != (p.m, p.n):
        raise ValueError(f"grid ({grid.m}, {grid.n}) does not match poly ({p.m}, {p.n})")
    return trop_evals(p, [grid.flat()])[0]


def _trop_exact(form: TropicalForm, flat: Sequence[int]) -> int:
    """The least entry of the exponent matrix times ``flat`` in exact
    ints, for a grid over the float64 bound of ``trop_evals``."""
    # The columns under the bound give a float64 part that stays exact.
    # Terms with the same exponents on the other columns share their
    # Python-int part, so each group of them, adjacent once sorted, needs
    # only its least float64 part.
    mat, scale = form.matrix, max(form.deg, 1)
    small = [abs(v) * scale < _FLOAT_EXACT for v in flat]
    low = mat[:, small] @ np.asarray([v for v, s in zip(flat, small) if s], dtype=np.float64)
    exps = mat[:, np.logical_not(small)].astype(np.int64)
    order = np.lexsort(exps.T)
    exps = exps[order]
    starts = np.flatnonzero(np.r_[True, (exps[1:] != exps[:-1]).any(axis=1)])
    least = np.minimum.reduceat(low[order], starts).astype(np.int64)
    values = [v for v, s in zip(flat, small) if not s]
    return min(
        lo + sum(e * v for e, v in zip(row, values))
        for lo, row in zip(least.tolist(), exps[starts].tolist())
    )


def trop_evals(p: ColoredPoly | TropicalForm,
               flats: Sequence[Sequence[int]] | np.ndarray) -> list[int | float]:
    """Tropical (min, +) evaluation of a subtraction-free polynomial, or of
    its ``TropicalForm``, at a batch of grids, each given flat
    (``TropicalGrid.flat()``, m * n ints): the package's one tropical
    kernel, which ``trop_eval`` calls with a batch of one.  ``flats`` may
    also be an int64 array with one grid per row, whose values are then
    checked at once.  A grid value that is not an int, and an array whose
    dtype is not a (non-bool) integer type, raise ``TypeError``.

    Each value is the least entry of the exponent matrix times the grid, a
    Python int.  The grids with max|v| * max(deg, 1) below 2^53 are stacked
    and multiplied in float64, exact under that bound, one matrix product
    per ``_BATCH_ENTRIES`` (term, grid) pairs; any other grid takes the
    exact path of ``_trop_exact``.  The zero polynomial gives ``math.inf``
    at every grid.
    """
    form = p if isinstance(p, TropicalForm) else tropical_form(p)
    size, mat, scale = form.m * form.n, form.matrix, max(form.deg, 1)
    stacked = isinstance(flats, np.ndarray)
    if stacked:
        if flats.dtype.kind not in "iu":  # a bool array is kind "b"
            raise TypeError(f"stacked grids must have an integer dtype, got {flats.dtype}")
        ragged = flats.ndim != 2 or flats.shape[1] != size
    else:  # never a float or a bool truncated to an int
        ragged = any(len(ints(flat, "a grid's values")) != size for flat in flats)
    if ragged:
        raise ValueError(f"every grid must hold {size} values for poly ({form.m}, {form.n})")
    if not len(mat):
        return [math.inf] * len(flats)
    if stacked:  # Python ints, as |v| * deg may pass 2^63
        top = max(-int(flats.min(initial=0)), int(flats.max(initial=0)))
        if top * scale >= _FLOAT_EXACT:
            flats, stacked = flats.tolist(), False
    exact = {}
    if not stacked:  # each grid checked alone
        for g, flat in enumerate(flats):
            if max(map(abs, flat)) * scale >= _FLOAT_EXACT:
                exact[g] = _trop_exact(form, flat)
    fast = [flat for g, flat in enumerate(flats) if g not in exact] if exact else flats
    step = max(1, _BATCH_ENTRIES // len(mat))
    mins: list[int | float] = []
    for lo in range(0, len(fast), step):
        batch = np.asarray(fast[lo : lo + step], dtype=np.float64)
        mins += (batch @ mat.T).min(axis=1).astype(np.int64).tolist()
    for g in sorted(exact):  # each exact value back in its place
        mins.insert(g, exact[g])
    return mins
