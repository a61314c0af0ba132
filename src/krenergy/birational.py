"""The rational (non-tropical) side: kappa, the birational R-action, and
the product formula for rational energy.

Points assign an exact positive rational to every variable ``x_i^{(r)}``;
positivity keeps all the denominators below nonzero, so the action

    s_j(x_j^{(r)})   = x_{j+1}^{(r+1)} kappa_{r+1} / kappa_r
    s_j(x_{j+1}^{(r)}) = x_j^{(r-1)}   kappa_{r-1} / kappa_r

is everywhere defined and lands on positive points again.  Composite
actions like ``s_i s_{i+1} ... s_{j-2}`` are applied to the point left to
right (s_i first), matching the combinatorial convention on tensors.

The rules are written once, as three column kernels over the one algebra
type, ``lsym.Semiring`` with its ``div``: ``kappas`` of two adjacent
columns, ``move`` (s_j on them) and ``energy_walk`` (the global energy
product).  ``kappa``, ``s_action`` and ``rational_energy_global`` run them
in ``RATIONAL`` on a point's values; ``krenergy.crystal`` runs them in
``MIN_PLUS`` on a tensor's count grid, where they are the combinatorial
R-matrix and intrinsic energy: the energy is the tropicalization of the
rational energy.  So the R-action's identities hold in both semifields,
and ``r_action_identities`` states them once, over the type.

``cleared_values`` is a point's values with their denominators cleared,
plain ints, and the one power of the common denominator that restores
each homogeneous value.  The evaluation helpers (eval_loop_e,
eval_loop_h, eval_tau, eval_sigma) run the polynomial families' code
(``krenergy.lsym``) on them in ``RATIONAL``, where they stay ints.  Tests
check them against the kernels in ``RATIONAL`` at the point's values,
enumerations and the tableau sum.  Every determinant of the package is
``lsym.laplace_dets``, in any ring, and ``fraction_det`` is its one
selection over ``Fraction``.  The identity suite evaluates its integral
points in ``cleared_values`` at scale 1, in plain ints.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import reduce
from typing import Any

from ._strict import ints, json_decimal, json_int
from .lsym import (
    RATIONAL,
    Semiring,
    laplace_dets,
    loop_family,
    sigma_product,
    tau_tables,
    verdict,
)


class RationalPoint:
    """Strictly positive rational values for the variables ``x_i^{(r)}``."""

    __slots__ = ("m", "n", "values")

    def __init__(self, m: int, n: int, values: Iterable[Iterable[Fraction | int]]):
        # tuples from lists: see lsym.laplace_dets on CPython's tuple free lists
        values = tuple([tuple(row) for row in values])
        if len(values) != m or any(len(row) != n for row in values):
            raise ValueError(f"expected a {m} x {n} array of values")
        for row in values:
            for v in row:
                if type(v) is not int and type(v) is not Fraction:
                    raise TypeError(f"point values must be ints or Fractions, got {v!r}")
                if v <= 0:
                    raise ValueError(f"point values must be strictly positive, got {v}")
        self.m = m
        self.n = n
        self.values = tuple([tuple([Fraction(v) for v in row]) for row in values])

    def value(self, i: int, r: int) -> Fraction:
        """Value of ``x_i^{(r)}``; the color is reduced mod n."""
        if not 1 <= i <= self.m:
            raise KeyError(f"variable row {i} out of range 1..{self.m}")
        return self.values[i - 1][r % self.n]

    @classmethod
    def all_ones(cls, m: int, n: int) -> RationalPoint:
        return cls(m, n, [[Fraction(1)] * n for _ in range(m)])

    def with_columns(self, replacements: dict[int, Sequence[Fraction]]) -> RationalPoint:
        rows = list(self.values)
        for i, row in replacements.items():
            rows[i - 1] = tuple(row)
        return RationalPoint(self.m, self.n, rows)

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "values": [
                [str(v.numerator), str(v.denominator)] for row in self.values for v in row
            ],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> RationalPoint:
        """Inverse of ``to_jsonable``; each value must be a JSON list of two
        decimal strings, the numerator and a nonzero denominator."""
        m, n = json_int(data["m"], "m"), json_int(data["n"], "n")
        flat = []
        for pair in data["values"]:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"a value must be a list [numerator, denominator], got {pair!r}")
            num, den = pair[0], json_decimal(pair[1], "denominator")
            if den == 0:
                raise ValueError("denominator must be nonzero")
            flat.append(Fraction(json_decimal(num, "numerator"), den))
        if len(flat) != m * n:
            raise ValueError(f"expected {m * n} values, got {len(flat)}")
        rows = [flat[i * n : (i + 1) * n] for i in range(m)]
        return cls(m, n, rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalPoint)
            and (self.m, self.n, self.values) == (other.m, other.n, other.values)
        )

    def __hash__(self) -> int:
        return hash(("RationalPoint", self.m, self.n, self.values))

    def __repr__(self) -> str:
        return f"RationalPoint(m={self.m}, n={self.n}, values={self.values!r})"


def random_point(m: int, n: int, rng: random.Random, bound: int = 1000) -> RationalPoint:
    """A random positive point with numerators and denominators in 1..bound."""
    return RationalPoint(
        m,
        n,
        [
            [Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(n)]
            for _ in range(m)
        ],
    )


def kappas(sr: Semiring, a: Sequence, b: Sequence) -> list:
    """kappa_r of the adjacent columns ``a = x_j``, ``b = x_{j+1}`` (values
    by color) for r = 0..n-1: the sum over s of the products of b^(r+t),
    t = 1..s, and a^(r+t), t = s+1..n-1.  Term s is term s - 1 times
    b^(r+s) / a^(r+s), so each color takes n steps."""
    n, add, mul = len(a), sr.add, sr.mul
    full = reduce(mul, a)
    ratios = list(map(sr.div, b, a)) * 2
    out = []
    for r in range(n):
        term = total = sr.div(full, a[r])
        for ratio in ratios[r + 1 : r + n]:
            term = mul(term, ratio)
            total = add(total, term)
        out.append(total)
    return out


def _moved(sr: Semiring, col: Sequence, ks: list, d: int) -> list:
    """``col^(r+d) kappa_{r+d} / kappa_r`` for each color r."""
    return list(map(sr.mul, col[d:] + col[:d], map(sr.div, ks[d:] + ks[:d], ks)))


def move(sr: Semiring, a: Sequence, b: Sequence) -> tuple[list, list]:
    """s_j on the adjacent columns ``(a, b) = (x_j, x_{j+1})``: the new
    columns ``x_{j+1}^(r+1) kappa_{r+1} / kappa_r`` and
    ``x_j^(r-1) kappa_{r-1} / kappa_r``."""
    ks = kappas(sr, a, b)
    return _moved(sr, b, ks, 1), _moved(sr, a, ks, -1)


def energy_walk(sr: Semiring, columns: Sequence[Sequence]) -> Any:
    """The product over pairs i < j of kappa_{j-1} on columns (j-1, j) of
    ``s_i ... s_{j-2}`` applied to ``columns`` (x_1, x_2, ...): column i
    moves right, taking kappa_{j-1} with each later column j before it
    moves past it.  The empty product is ``sr.one``."""
    total = sr.one
    for i, cur in enumerate(columns):
        for j in range(i + 1, len(columns)):
            ks = kappas(sr, cur, columns[j])
            total = sr.mul(total, ks[j % len(ks)])
            if j + 1 < len(columns):
                cur = _moved(sr, cur, ks, -1)
    return total


def _check_column(j: int, p: RationalPoint) -> None:
    if not 1 <= j <= p.m - 1:
        raise ValueError(f"column index {j} out of range 1..{p.m - 1}")


def kappa(r: int, j: int, p: RationalPoint) -> Fraction:
    """kappa_r on columns (j, j+1) of ``p``."""
    _check_column(j, p)
    return kappas(RATIONAL, p.values[j - 1], p.values[j])[r % p.n]


def s_action(j: int, p: RationalPoint) -> RationalPoint:
    """The birational R-matrix on columns (j, j+1); identity elsewhere."""
    _check_column(j, p)
    new_j, new_j1 = move(RATIONAL, p.values[j - 1], p.values[j])
    return p.with_columns({j: new_j, j + 1: new_j1})


def rational_energy_global(p: RationalPoint) -> Fraction:
    """Rational intrinsic energy as the product over pairs i < j of
    kappa_{j-1} on columns (j-1, j) of ``s_i ... s_{j-2}`` applied to the
    point: ``energy_walk`` of its columns.  The empty product gives 1 for
    m = 1."""
    return Fraction(energy_walk(RATIONAL, p.values))


def cleared_values(p: RationalPoint) -> tuple[list[list[int]], Callable[[int, int], Fraction]]:
    """The value table of the integers ``D * p_i^(c)``, with D the lcm of
    all the denominators of ``p``, and the map ``value(v, d)`` that takes a
    value v homogeneous of degree d computed on them in ``RATIONAL`` (D**d
    times its value at ``p``) to its value at ``p``."""
    scale = reduce(math.lcm, (v.denominator for row in p.values for v in row), 1)
    nums = [[v.numerator * (scale // v.denominator) for v in row] for row in p.values]
    return nums, lambda v, d: Fraction(v, scale**d) if v else Fraction(0)


def _eval_family(family: str, k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """``loop_family`` at ``p``, run in ``RATIONAL`` on ``cleared_values(p)``."""
    ints((k, r), "a loop family's degree and color")
    nums, value = cleared_values(p)
    return value(loop_family(family, k, r, tuple(indices), RATIONAL, nums), k)


def eval_loop_e(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """e_k^{(r)} on the given variable indices, evaluated at ``p``."""
    return _eval_family("e", k, r, indices, p)


def eval_loop_h(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """h_k^{(r)} on the given variable indices, evaluated at ``p``."""
    return _eval_family("h", k, r, indices, p)


def eval_tau(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """tau_k^{(r)} (multiplicities at most n - 1) evaluated at ``p``."""
    return _eval_family("tau", k, r, indices, p)


def eval_sigma(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """sigma_k^{(r)} evaluated at ``p``; the first index carries the prefix."""
    return _eval_family("sigma", k, r, indices, p)


def rational_energy_product(p: RationalPoint) -> Fraction:
    """Rational intrinsic energy by the sigma product formula: the product
    over i of sigma_{(n-1)(m-i)}^{(i-1)} on variables i..m, ``sigma_product``
    on ``cleared_values(p)``, homogeneous of degree (n-1) m (m-1) / 2."""
    nums, value = cleared_values(p)
    return value(sigma_product(RATIONAL, nums), (p.n - 1) * p.m * (p.m - 1) // 2)


def fraction_det(rows: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant of a square matrix of ints and Fractions: the one
    selection of ``laplace_dets``.  Any other entry, bools included,
    raises ``TypeError``."""
    if not all(type(v) is int or type(v) is Fraction for row in rows for v in row):
        raise TypeError(f"matrix entries must be ints or Fractions, got {rows!r}")
    return Fraction(laplace_dets(rows, [range(len(rows))], RATIONAL)[0])


def _chain(sr: Semiring, columns: list, js: Iterable[int]) -> list:
    """A copy of ``columns`` with ``move`` applied at each 0-based position
    j of ``js`` in order, to the columns j and j + 1."""
    cols = list(columns)
    for j in js:
        cols[j : j + 2] = move(sr, cols[j], cols[j + 1])
    return cols


def r_action_identities(sr: Semiring, columns: Sequence[Sequence]) -> Iterator[tuple]:
    """Yield ``(identity, params, passed)`` for the R-action identities on
    the columns x_1..x_m (values by color) in the semifield ``sr``:
    ``involution`` and ``energy-invariance`` (of ``energy_walk``) of each
    s_j, ``braid``, the ``energy-product`` of the sigma factors, and for
    each pair i < j and color r, with d = (n-1)(j-i), c = r-j+i and sigma
    on x_i..x_j: ``kappa-ratio``, kappa_r on columns (j-1, j) after
    s_i ... s_{j-2} is sigma_d^(c) / sigma_{d-n+1}^(c)(x_i..x_{j-1}); and
    ``chain-first-form`` and ``chain-second-form``, s_i ... s_{j-1} takes
    x_j^(r) to x_i^(c) sigma_d^(c-1) / sigma_d^(c) and to
    sigma_{d+1}^(c) / sigma_d^(c).  The pairs walk the chain as
    ``energy_walk`` does, one ``kappas`` call each, and the columns after
    each s_j are computed once, for the involution, energy invariance and
    braid identities that start with it.  Every identity is homogeneous,
    so on a point's cleared values the verdicts are those at the point.
    Each ``passed`` is an ``lsym.verdict``: a bool, or over
    ``MIN_PLUS_ARRAY`` one mask entry per instance."""
    cols = [list(col) for col in columns]
    m, n = len(cols), len(cols[0])
    energy = energy_walk(sr, cols)
    once = [None] + [_chain(sr, cols, (j - 1,)) for j in range(1, m)]  # s_j applied
    for j in range(1, m):
        yield "involution", {"j": j}, verdict(_chain(sr, once[j], (j - 1,)), cols)
        yield "energy-invariance", {"j": j}, verdict(energy_walk(sr, once[j]), energy)
    for j in range(1, m - 1):
        braid = verdict(_chain(sr, once[j], (j, j - 1)), _chain(sr, once[j + 1], (j - 1, j)))
        yield "braid", {"j": j}, braid
    # sigma_k^(c) on x_i..x_j, each once, at k = (n - 1)(j - i) and one more,
    # from one tau table per (suffix, color mod n)
    taus = tau_tables(sr, cols)
    sig = {
        (k, c, i, j): loop_family("sigma", k, c, range(i, j + 1), sr, cols, taus)
        for i in range(1, m) for j in range(i, m + 1) for c in range(n)
        for k in ((n - 1) * (j - i), (n - 1) * (j - i) + 1)
    }
    yield "energy-product", {}, verdict(sigma_product(sr, cols, taus=taus), energy)
    for i in range(1, m):
        cur = cols[i - 1]  # x_i, which the chain moves right
        for j in range(i + 1, m + 1):
            ks = kappas(sr, cur, cols[j - 1])
            cur = _moved(sr, cur, ks, -1)  # column j after s_i ... s_{j-1}
            d = (n - 1) * (j - i)
            for r in range(n):
                c, params = (r - j + i) % n, {"i": i, "j": j, "r": r}
                top = sig[d, c, i, j]
                ratio = sr.div(top, sig[d - n + 1, c, i, j - 1])
                yield "kappa-ratio", params, verdict(ks[r], ratio)
                first = sr.mul(cols[i - 1][c], sig[d, (c - 1) % n, i, j])
                yield "chain-first-form", params, verdict(cur[r], sr.div(first, top))
                second = sr.div(sig[d + 1, c, i, j], top)
                yield "chain-second-form", params, verdict(cur[r], second)
