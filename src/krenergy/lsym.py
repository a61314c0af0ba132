"""Loop symmetric functions over colored variables, with exact arithmetic.

Polynomials live in variables ``x_i^{(r)}`` with ``i`` in ``1..m`` and the
color ``r`` in ``Z/nZ`` (stored 0-based).  Coefficients are arbitrary
precision integers.  A monomial is a sorted tuple of ``((i, r), exponent)``
pairs with positive exponents, so equality of polynomials is plain equality
of term maps.

The generating families:

    loop_e(k, r):  sum over i1 < ... < ik of x_{i1}^(r) x_{i2}^(r+1) ...
    loop_h(k, r):  sum over i1 <= ... <= ik of x_{i1}^(r) x_{i2}^(r-1) ...
    tau(k, r):     like loop_h but no index may repeat more than n-1 times
    sigma(k, r):   sum_i (prefix of the first variable, colors r, r-1, ...)
                   times tau(k-i, r-i) of the remaining variables

All four are one function, ``loop_family``, over any commutative ``Ring``
(the value of each variable, zero and one): loop_e, loop_h and tau are one
memoized dynamic program over bounded multisets of indices (multiplicity
cap 1, k and n-1; color step +1, -1 and -1), and sigma sums prefixes times
tau.  ``loop_e``, ``loop_h``, ``tau`` and ``sigma`` compute it over the
polynomials (``poly_ring``); ``krenergy.birational`` computes it at exact
rational points.

``tableau_monomials`` yields each semistandard tableau of a skew shape
with its color-shifted content monomial, the one statement of that rule
(``krenergy emit-formula`` prints its pairs), and ``loop_schur_tableaux``
sums the monomials; ``loop_schur_jt`` computes the same
polynomial as a determinant of loop elementary functions.  ``build_A`` and
``build_B`` assemble the banded dilated-staircase matrices used by the
closing identities, and ``trop_eval`` is the (min, +) shadow of a
subtraction-free polynomial.  The ``*_indices`` functions give the entries
of those matrices and of the tau vector as ``(degree, color)`` pairs, and
``sigma_product_indices`` the sigma factors of the energy's product, for
the polynomials here and for point evaluation alike.

``staircase_loop_schur`` caches the loop Schur polynomial of the energy's
staircase per (n, m); ``trop_eval`` of it is the package's one tropical
staircase energy (``crystal.energy_staircase``).  ``trop_eval`` caches the
exponent matrix on each polynomial and multiplies it by the grid, in exact
Python ints when a grid value reaches 2^40.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from typing import Any, NamedTuple

import numpy as np

from ._strict import json_decimal, json_int
from .tableaux import (
    Shape,
    SkewShape,
    Ssyt,
    energy_staircase_shape,
    enumerate_ssyt,
    staircase,
)

Mono = tuple[tuple[tuple[int, int], int], ...]

# trop_eval multiplies in int64 while every grid value is below this bound,
# so no sum of a polynomial of degree below 2^23 can overflow
_NUMPY_VALUE_BOUND = 1 << 40


def _mono_from_dict(d: dict[tuple[int, int], int]) -> Mono:
    return tuple(sorted((k, e) for k, e in d.items() if e))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for k, e in b:
        d[k] = d.get(k, 0) + e
    return tuple(sorted(d.items()))


def _mono_degree(mono: Mono) -> int:
    return sum(e for _, e in mono)


class ColoredPoly:
    """Sparse integer polynomial in the colored variables of an m x n array."""

    __slots__ = ("m", "n", "terms", "_trop_matrix")

    def __init__(self, m: int, n: int, terms: dict[Mono, int] | None = None):
        if m < 1 or n < 2:
            raise ValueError(f"ambient sizes must satisfy m >= 1, n >= 2, got ({m}, {n})")
        clean: dict[Mono, int] = {}
        for mono, coef in (terms or {}).items():
            if not coef:
                continue
            for (i, r), e in mono:
                if not (1 <= i <= m and 0 <= r < n and e > 0):
                    raise ValueError(f"bad variable ({i}, {r})^{e} for ambient ({m}, {n})")
            clean[mono] = int(coef)
        self.m = m
        self.n = n
        self.terms = clean
        self._trop_matrix = None

    @classmethod
    def _raw(cls, m: int, n: int, terms: dict[Mono, int]) -> ColoredPoly:
        self = object.__new__(cls)
        self.m = m
        self.n = n
        self.terms = terms
        self._trop_matrix = None
        return self

    @classmethod
    def zero(cls, m: int, n: int) -> ColoredPoly:
        return cls._raw(m, n, {})

    @classmethod
    def one(cls, m: int, n: int) -> ColoredPoly:
        return cls._raw(m, n, {(): 1})

    @classmethod
    def const(cls, m: int, n: int, value: int) -> ColoredPoly:
        return cls._raw(m, n, {(): int(value)} if value else {})

    @classmethod
    def variable(cls, i: int, r: int, *, m: int, n: int) -> ColoredPoly:
        return cls(m, n, {(((i, r % n), 1),): 1})

    def _check_same(self, other: ColoredPoly) -> None:
        if self.m != other.m or self.n != other.n:
            raise ValueError(
                f"ambient mismatch: ({self.m}, {self.n}) vs ({other.m}, {other.n})"
            )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, k: int) -> bool:
        return all(_mono_degree(mono) == k for mono in self.terms)

    def sorted_terms(self) -> list[tuple[Mono, int]]:
        return sorted(self.terms.items())

    def __add__(self, other: ColoredPoly | int) -> ColoredPoly:
        if isinstance(other, int):
            other = ColoredPoly.const(self.m, self.n, other)
        self._check_same(other)
        terms = dict(self.terms)
        for mono, coef in other.terms.items():
            c = terms.get(mono, 0) + coef
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return ColoredPoly._raw(self.m, self.n, terms)

    __radd__ = __add__

    def __neg__(self) -> ColoredPoly:
        return ColoredPoly._raw(self.m, self.n, {mono: -c for mono, c in self.terms.items()})

    def __sub__(self, other: ColoredPoly | int) -> ColoredPoly:
        if isinstance(other, int):
            other = ColoredPoly.const(self.m, self.n, other)
        return self + (-other)

    def __mul__(self, other: ColoredPoly | int) -> ColoredPoly:
        if isinstance(other, int):
            if other == 0:
                return ColoredPoly.zero(self.m, self.n)
            return ColoredPoly._raw(
                self.m, self.n, {mono: c * other for mono, c in self.terms.items()}
            )
        self._check_same(other)
        if not self.terms or not other.terms:
            return ColoredPoly.zero(self.m, self.n)
        small, large = (self.terms, other.terms)
        if len(small) > len(large):
            small, large = large, small
        out: dict[Mono, int] = {}
        for mono_a, ca in small.items():
            for mono_b, cb in large.items():
                mono = _mono_mul(mono_a, mono_b)
                c = out.get(mono, 0) + ca * cb
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        return ColoredPoly._raw(self.m, self.n, out)

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
            for (i, r), e in mono:
                prod *= Fraction(value(i, r)) ** e
            total += prod
        return total

    def to_jsonable(self) -> dict:
        terms = []
        for mono, coef in self.sorted_terms():
            terms.append(
                {"coef": str(coef), "exps": [[i, r, e] for (i, r), e in mono]}
            )
        return {"m": self.m, "n": self.n, "terms": terms}

    @classmethod
    def from_jsonable(cls, data: dict) -> ColoredPoly:
        """Inverse of ``to_jsonable``; coefficients must be decimal strings,
        and each monomial lists distinct variables with positive exponents."""
        m, n = json_int(data["m"], "m"), json_int(data["n"], "n")
        terms: dict[Mono, int] = {}
        for item in data["terms"]:
            exps: dict[tuple[int, int], int] = {}
            for i, r, e in item["exps"]:
                var = (json_int(i, "index"), json_int(r, "color"))
                if var in exps:
                    raise ValueError(f"variable {var} listed twice in one monomial")
                exps[var] = json_int(e, "exponent")
                if exps[var] < 1:
                    raise ValueError(f"exponent of {var} must be positive, got {exps[var]}")
            mono = _mono_from_dict(exps)
            terms[mono] = terms.get(mono, 0) + json_decimal(item["coef"], "coefficient")
        return cls(m, n, terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in self.sorted_terms():
            factors = [f"x{i}^({r})" + (f"^{e}" if e > 1 else "") for (i, r), e in mono]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{coef}*{body}" if body != "1" else str(coef))
        return " + ".join(parts)


def _normalize_indices(indices: Sequence[int] | None, m: int) -> tuple[int, ...]:
    if indices is None:
        return tuple(range(1, m + 1))
    out = tuple(int(i) for i in indices)
    if any(not 1 <= i <= m for i in out):
        raise ValueError(f"indices {out} out of range 1..{m}")
    if any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError(f"indices must be strictly increasing: {out}")
    return out


class Ring(NamedTuple):
    """The m x n colored variables in a commutative ring: ``x(i, c)`` is
    the value of ``x_i^{(c)}`` for 1 <= i <= m and 0 <= c < n."""

    m: int
    n: int
    x: Callable[[int, int], Any]
    zero: Any
    one: Any


@lru_cache(maxsize=None)
def poly_ring(m: int, n: int) -> Ring:
    """The colored variables as polynomials."""

    def x(i: int, c: int) -> ColoredPoly:
        return ColoredPoly._raw(m, n, {(((i, c), 1),): 1})

    return Ring(m, n, x, ColoredPoly.zero(m, n), ColoredPoly.one(m, n))


def loop_family(family: str, k: int, r: int, indices: Sequence[int], ring: Ring):
    """Loop ``e``, ``h``, ``tau`` or ``sigma`` of degree k and color r on
    the variables ``indices`` (strictly increasing), computed in ``ring``.

    e, h and tau sum ``prod_t x_{i_t}^{(r + step*(t-1))}`` over the weakly
    increasing ``i_1 <= ... <= i_k`` from ``indices`` that take no index
    more than ``cap`` times (cap 1, k, n - 1; step +1, -1, -1).  sigma sums
    the prefixes ``x_f^{(r)} x_f^{(r-1)} ... x_f^{(r-i+1)}`` of the first
    index f times ``tau_{k-i}^{(r-i)}`` of the remaining indices.
    """
    if family == "sigma":
        if not indices:
            raise ValueError("sigma needs a nonempty variable range")
        total = ring.zero
        if k < 0:
            return total
        first, rest = indices[0], indices[1:]
        prefix = ring.one
        for i in range(k + 1):
            total = total + prefix * loop_family("tau", k - i, r - i, rest, ring)
            prefix = prefix * ring.x(first, (r - i) % ring.n)
        return total
    cap, step = {"e": (1, 1), "h": (max(k, 0), -1), "tau": (ring.n - 1, -1)}[family]
    if k < 0 or k > cap * len(indices):
        return ring.zero
    n, x, zero, one, end = ring.n, ring.x, ring.zero, ring.one, len(indices)
    limit = cap if cap < k else 0  # 0: the cap cannot bind, and ``used`` stays 0
    memo: dict[tuple[int, int, int], Any] = {}

    def rec(pos: int, need: int, color: int, used: int):
        # ``need`` factors left, the next one on indices[pos] or later, with
        # indices[pos] taken ``used`` times; the color is r + step*(k - need)
        if need == 0:
            return one
        if pos == end:
            return zero
        key = (pos, need, used)
        if key in memo:
            return memo[key]
        after = (color + step) % n
        if used + 1 == limit:
            rest = rec(pos + 1, need - 1, after, 0)
        else:
            rest = rec(pos, need - 1, after, used + 1 if limit else 0)
        memo[key] = rec(pos + 1, need, color, 0) + x(indices[pos], color) * rest
        return memo[key]

    try:
        return rec(0, k, r % n, 0)
    finally:
        del rec  # it refers to itself; breaking the cycle frees the memo now


def loop_e(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """Loop elementary symmetric function e_k^{(r)} on the given variables."""
    return loop_family("e", k, r, _normalize_indices(indices, m), poly_ring(m, n))


def loop_h(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """Loop complete homogeneous symmetric function h_k^{(r)}."""
    return loop_family("h", k, r, _normalize_indices(indices, m), poly_ring(m, n))


def tau(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """The tau family: loop_h restricted to multiplicities at most n - 1."""
    return loop_family("tau", k, r, _normalize_indices(indices, m), poly_ring(m, n))


def sigma(k: int, r: int, *, n: int, m: int, indices: Sequence[int] | None = None) -> ColoredPoly:
    """sigma_k^{(r)}: prefix powers of the first variable times tau of the rest."""
    return loop_family("sigma", k, r, _normalize_indices(indices, m), poly_ring(m, n))


def sigma_product_indices(m: int, *, n: int, r: int = 0) -> list[tuple[int, int, range]]:
    """``(degree, color, indices)`` of each sigma factor of the energy's
    product: ``sigma_{(n-1)(m-i)}^{(r+i-1)}`` on variables i..m, i < m."""
    return [((n - 1) * (m - i), r + i - 1, range(i, m + 1)) for i in range(1, m)]


def tableau_monomials(
    shape: SkewShape | Shape | Iterable[int],
    r: int,
    max_entry: int,
    *,
    n: int,
) -> Iterator[tuple[Ssyt, Mono]]:
    """Each semistandard tableau T of ``shape`` with entries in 1..max_entry,
    in the order of ``enumerate_ssyt``, with its monomial: one factor
    ``x_{T(i,j)}^{(i - j + r)}`` per cell."""
    skew = SkewShape.of(shape)
    # row-major, the order of Ssyt.row_word
    colors = [(i - j + r) % n for (i, j) in skew.cells()]
    # one shared tuple per ((i, r), e) factor keeps large term maps small
    factors: dict[tuple[tuple[int, int], int], tuple[tuple[int, int], int]] = {}
    for t in enumerate_ssyt(skew, max_entry):
        d: dict[tuple[int, int], int] = {}
        for key in zip(t.row_word(), colors):
            d[key] = d.get(key, 0) + 1
        yield t, tuple(sorted(factors.setdefault(item, item) for item in d.items()))


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
    return ColoredPoly._raw(max_entry, n, terms)


@lru_cache(maxsize=None)
def staircase_loop_schur(n: int, m: int) -> ColoredPoly:
    """Loop Schur polynomial of the energy's staircase at color 0 in m
    variable rows; its tropicalization at the count grid of a tensor is the
    energy.  Cached per (n, m); raises ``EnumerationGuardError`` up front
    when the staircase has more tableaux than the guard allows.
    """
    return loop_schur_tableaux(energy_staircase_shape(n, m), 0, m, n=n)


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
    lam = skew.outer.conjugate()
    mu = skew.inner.conjugate()
    size = len(lam) if size is None else size
    return [
        [(lam.part(i) - mu.part(j) - i + j, r - j + 1 + mu.part(j)) for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]


def _loop_e_matrix(indices: list[list[tuple[int, int]]], *, n: int, m: int) -> PolyMatrix:
    """The matrix of loop e functions at the given ``(degree, color)`` pairs."""
    return PolyMatrix(m, n, [[loop_e(k, c, n=n, m=m) for k, c in row] for row in indices])


def loop_schur_jt(
    shape: SkewShape | Shape | Iterable[int],
    r: int,
    *,
    n: int,
    m: int,
) -> ColoredPoly:
    """Loop Schur function of ``shape`` by the Jacobi-Trudi determinant."""
    return _loop_e_matrix(jacobi_trudi_indices(shape, r), n=n, m=m).det()


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

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def entry(self, k: int, j: int) -> ColoredPoly:
        """Entry at row k, column j (1-based)."""
        return self.entries[k - 1][j - 1]

    def det(self) -> ColoredPoly:
        """Division-free determinant by memoized Laplace expansion along rows.

        Blank-heavy banded matrices (the only large ones here) share minors
        aggressively; a column that no remaining row can reach prunes to 0.
        """
        size = self.nrows
        if size != self.ncols:
            raise ValueError(f"determinant of a {self.nrows} x {self.ncols} matrix")
        if size == 0:
            return ColoredPoly.one(self.m, self.n)
        rows = self.entries
        nonzero = [frozenset(j for j in range(size) if not rows[k][j].is_zero) for k in range(size)]
        reach = [size] * (size + 1)
        for k in range(size - 1, -1, -1):
            reach[k] = min(reach[k + 1], min(nonzero[k], default=size))
        zero = ColoredPoly.zero(self.m, self.n)
        one = ColoredPoly.one(self.m, self.n)
        memo: dict[tuple[int, tuple[int, ...]], ColoredPoly] = {}

        def minor(k: int, cols: tuple[int, ...]) -> ColoredPoly:
            if k == size:
                return one
            if cols[0] < reach[k]:
                return zero
            key = (k, cols)
            cached = memo.get(key)
            if cached is not None:
                return cached
            acc = zero
            for idx, j in enumerate(cols):
                if j not in nonzero[k]:
                    continue
                sub = minor(k + 1, cols[:idx] + cols[idx + 1 :])
                if sub.is_zero:
                    continue
                term = rows[k][j] * sub
                acc = acc + term if idx % 2 == 0 else acc - term
            memo[key] = acc
            return acc

        return minor(0, tuple(range(size)))


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


def build_A(m: int, *, n: int, r: int = 0) -> PolyMatrix:
    """The na x na Jacobi-Trudi matrix of the dilated staircase, zero-padded."""
    return _loop_e_matrix(staircase_a_indices(m, n=n, r=r), n=n, m=m)


def build_B(m: int, *, n: int, r: int = 0) -> PolyMatrix:
    """The extension of build_A by n extra columns, as in staircase_b_indices."""
    return _loop_e_matrix(staircase_b_indices(m, n=n, r=r), n=n, m=m)


def tau_vector(m: int, *, n: int, r: int = 0) -> list[ColoredPoly]:
    """The alternating tau column vector annihilated by build_B."""
    return [sign * tau(k, c, n=n, m=m) for sign, k, c in tau_vector_indices(m, n=n, r=r)]


def trop_eval(p: ColoredPoly, grid) -> int | float:
    """Tropical (min, +) evaluation of a subtraction-free polynomial.

    ``grid`` must expose ``m``, ``n`` and ``flat()`` like
    :class:`krenergy.crystal.TropicalGrid`.  Returns ``math.inf`` for the
    zero polynomial and rejects polynomials with a negative coefficient.
    The value is the least entry of the polynomial's exponent matrix times
    the grid; the matrix is checked and built once and cached on the
    polynomial.  The product runs in int64 while every grid value is below
    ``_NUMPY_VALUE_BOUND``, and in exact Python ints otherwise.
    """
    if (grid.m, grid.n) != (p.m, p.n):
        raise ValueError(f"grid ({grid.m}, {grid.n}) does not match poly ({p.m}, {p.n})")
    if not p.terms:
        return math.inf
    mat = p._trop_matrix
    if mat is None:
        if any(c < 0 for c in p.terms.values()):
            raise ValueError("tropical evaluation needs a subtraction-free polynomial")
        # an int64 sum stays exact while degree * value bound < 2^63
        wide = max(map(_mono_degree, p.terms)) * _NUMPY_VALUE_BOUND >= 1 << 63
        mat = np.zeros((len(p.terms), p.m * p.n), dtype=object if wide else np.int64)
        for t, mono in enumerate(p.terms):
            for (i, r), e in mono:
                mat[t, (i - 1) * p.n + r] = e
        p._trop_matrix = mat
    flat = grid.flat()
    exact = max(abs(v) for v in flat) >= _NUMPY_VALUE_BOUND
    return int((mat @ np.asarray(flat, dtype=object if exact else np.int64)).min())
