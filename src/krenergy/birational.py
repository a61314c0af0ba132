"""The rational (non-tropical) side: kappa, the birational R-action, and
the product formula for rational energy.

Points assign an exact positive rational to every variable ``x_i^{(r)}``;
positivity keeps all the denominators below nonzero, so the action

    s_j(x_j^{(r)})   = x_{j+1}^{(r+1)} kappa_{r+1} / kappa_r
    s_j(x_{j+1}^{(r)}) = x_j^{(r-1)}   kappa_{r-1} / kappa_r

is everywhere defined and lands on positive points again.  Composite
actions like ``s_i s_{i+1} ... s_{j-2}`` are applied to the point left to
right (s_i first), matching the combinatorial convention on tensors.

Evaluation helpers (eval_loop_e, eval_loop_h, eval_tau, eval_sigma,
eval_loop_schur) compute the symmetric-function families directly at a
point: e, h, tau and sigma by ``krenergy.lsym.loop_family`` in the ring of
the point's values (``point_ring``), the same code that expands them as
polynomials, and the loop skew Schur function by a dynamic program over
horizontal strips whose steps are cached per shape.  The test suite checks
them against brute-force enumerations and the tableau sum.
``fraction_det`` is fraction-free Bareiss elimination over the integers.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from ._strict import json_decimal, json_int
from .lsym import Ring, loop_family, sigma_product_indices
from .tableaux import Shape, SkewShape, partitions_between


class RationalPoint:
    """Strictly positive rational values for the variables ``x_i^{(r)}``."""

    __slots__ = ("m", "n", "values")

    def __init__(self, m: int, n: int, values: Iterable[Iterable[Fraction]]):
        values = tuple(tuple(Fraction(v) for v in row) for row in values)
        if len(values) != m or any(len(row) != n for row in values):
            raise ValueError(f"expected a {m} x {n} array of values")
        for row in values:
            for v in row:
                if v <= 0:
                    raise ValueError(f"point values must be strictly positive, got {v}")
        self.m = m
        self.n = n
        self.values = values

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
        """Inverse of ``to_jsonable``; values must be decimal strings with a
        nonzero denominator."""
        m, n = json_int(data["m"], "m"), json_int(data["n"], "n")
        flat = []
        for num, den in data["values"]:
            den = json_decimal(den, "denominator")
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


def kappa(r: int, j: int, p: RationalPoint) -> Fraction:
    """kappa_r on columns (j, j+1): the n-term sum of mixed color products."""
    if not 1 <= j <= p.m - 1:
        raise ValueError(f"column index {j} out of range 1..{p.m - 1}")
    n = p.n
    total = Fraction(0)
    for s in range(n):
        term = Fraction(1)
        for t in range(1, s + 1):
            term *= p.value(j + 1, r + t)
        for t in range(s + 1, n):
            term *= p.value(j, r + t)
        total += term
    return total


def s_action(j: int, p: RationalPoint) -> RationalPoint:
    """The birational R-matrix on columns (j, j+1); identity elsewhere."""
    if not 1 <= j <= p.m - 1:
        raise ValueError(f"column index {j} out of range 1..{p.m - 1}")
    n = p.n
    ks = [kappa(r, j, p) for r in range(n)]
    new_j = [p.value(j + 1, r + 1) * ks[(r + 1) % n] / ks[r] for r in range(n)]
    new_j1 = [p.value(j, r - 1) * ks[(r - 1) % n] / ks[r] for r in range(n)]
    return p.with_columns({j: new_j, j + 1: new_j1})


def apply_chain(p: RationalPoint, js: Iterable[int]) -> RationalPoint:
    """Apply ``s_j`` for each j in order (leftmost first)."""
    for j in js:
        p = s_action(j, p)
    return p


def rational_energy_global(p: RationalPoint) -> Fraction:
    """Rational intrinsic energy as the product over pairs i < j of
    kappa_{j-1} on columns (j-1, j) of ``s_i ... s_{j-2}`` applied to the
    point.  The empty product gives 1 for m = 1."""
    m = p.m
    total = Fraction(1)
    for i in range(1, m):
        cur = p
        for j in range(i + 1, m + 1):
            total *= kappa(j - 1, j - 1, cur)
            if j < m:
                cur = s_action(j - 1, cur)
    return total


def point_ring(p: RationalPoint) -> Ring:
    """The colored variables as their exact values at ``p``."""
    return Ring(p.m, p.n, p.value, Fraction(0), Fraction(1))


def eval_loop_e(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """e_k^{(r)} on the given variable indices, evaluated at ``p``."""
    return loop_family("e", k, r, tuple(indices), point_ring(p))


def eval_loop_h(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """h_k^{(r)} on the given variable indices, evaluated at ``p``."""
    return loop_family("h", k, r, tuple(indices), point_ring(p))


def eval_tau(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """tau_k^{(r)} (multiplicities at most n - 1) evaluated at ``p``."""
    return loop_family("tau", k, r, tuple(indices), point_ring(p))


def eval_sigma(k: int, r: int, indices: Sequence[int], p: RationalPoint) -> Fraction:
    """sigma_k^{(r)} evaluated at ``p``; the first index carries the prefix."""
    return loop_family("sigma", k, r, tuple(indices), point_ring(p))


@lru_cache(maxsize=None)
def _strip_chains(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The horizontal-strip steps of the skew shape ``outer / inner``.

    The partitions nu with inner <= nu <= outer are listed by size, so
    inner comes first and outer last.  Returns the distinct content tuples
    of the nonempty strips and, per partition, its strip predecessors as
    ``(index of kappa, index of the contents of nu / kappa)``.
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
    return tuple(contents), tuple(preds)


def eval_loop_schur(shape: SkewShape | Shape | Iterable[int], r: int, p: RationalPoint) -> Fraction:
    """Loop skew Schur function of color ``r`` evaluated at ``p``.

    A semistandard tableau with entries 1..m is a chain of partitions from
    the inner to the outer shape in which entry i fills a horizontal strip;
    a cell (a, b) with entry i contributes ``x_i^{(a - b + r)}`` (the
    content convention of ``krenergy.tableaux``).  The DP keeps one exact
    value per intermediate partition and adds the strips of one entry at a
    time.  The values are integers over one common denominator: every
    chain spends the shape's N cells, so entry i's strip of s cells is
    weighted by its numerators times ``d_i^(N - s)``, where ``d_i`` clears
    the denominators of ``x_i``, and the sum is divided by the product of
    the ``d_i^N`` at the end.
    """
    skew = SkewShape.of(shape)
    strips, preds = _strip_chains(skew.outer.parts, skew.inner.parts)
    n, size = p.n, skew.size
    f = [1] + [0] * (len(preds) - 1)
    denominator = 1
    for row in p.values:
        d = math.lcm(*(v.denominator for v in row))
        nums = [v.numerator * (d // v.denominator) for v in row]
        powers = [d**k for k in range(size + 1)]
        denominator *= powers[size]
        weights = [
            math.prod(nums[(c + r) % n] for c in cells) * powers[size - len(cells)]
            for cells in strips
        ]
        # strips only grow partitions, so a descending sweep reads the
        # previous entry's values
        for nu in range(len(preds) - 1, -1, -1):
            total = f[nu] * powers[size]
            for kappa, w in preds[nu]:
                if f[kappa]:
                    total += f[kappa] * weights[w]
            f[nu] = total
    return Fraction(f[-1], denominator)


def rational_energy_product(p: RationalPoint) -> Fraction:
    """Rational intrinsic energy by the sigma product formula:
    the product over i of sigma_{(n-1)(m-i)}^{(i-1)} on variables i..m."""
    factors = sigma_product_indices(p.m, n=p.n)
    return math.prod((eval_sigma(k, c, idx, p) for k, c, idx in factors), start=Fraction(1))


def fraction_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination (1968).

    Each row is scaled to integers by the lcm of its denominators; the
    integer determinant, divided by the product of the row scales, is the
    answer.  A zero pivot is swapped with the first nonzero entry below it.
    """
    size = len(rows)
    fracs = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != size for row in fracs):
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    mat = []
    for row in fracs:
        lcm = math.lcm(*(v.denominator for v in row)) if row else 1
        scale *= lcm
        mat.append([v.numerator * (lcm // v.denominator) for v in row])
    sign, prev = 1, 1
    for c in range(size - 1):
        piv = next((k for k in range(c, size) if mat[k][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            sign = -sign
        pivot, top = mat[c][c], mat[c]
        for k in range(c + 1, size):
            row, lead = mat[k], mat[k][c]
            for col in range(c + 1, size):
                row[col] = (row[col] * pivot - lead * top[col]) // prev
        prev = pivot
    return Fraction(sign * mat[-1][-1] if size else 1, scale)


class TactCheck(NamedTuple):
    """Outcome of the three displayed identities relating kappa, the chain
    action, and sigma ratios for a pair 1 <= i < j <= m."""

    i: int
    j: int
    r: int
    kappa_ratio: bool
    chain_first_form: bool
    chain_second_form: bool

    @property
    def passed(self) -> bool:
        return self.kappa_ratio and self.chain_first_form and self.chain_second_form


def check_lem_tact(i: int, j: int, r: int, p: RationalPoint) -> TactCheck:
    """Exactly evaluate both sides of the three transported-kappa identities.

    (1) kappa_r on columns (j-1, j) after the chain s_i ... s_{j-2} equals
        sigma_{(n-1)(j-i)}^{(r-j+i)}(x_i..x_j) / sigma_{(n-1)(j-i-1)}^{(r-j+i)}(x_i..x_{j-1});
    (2) the chain s_i ... s_{j-1} applied to x_j^{(r)} equals
        x_i^{(r-j+i)} sigma^{(r-j+i-1)} / sigma^{(r-j+i)} of degree (n-1)(j-i);
    (3) the same value equals the degree-((n-1)(j-i)+1 over (n-1)(j-i))
        sigma ratio with color r-j+i.
    """
    if not 1 <= i < j <= p.m:
        raise ValueError(f"need 1 <= i < j <= m, got i={i}, j={j}, m={p.m}")
    n = p.n
    d = j - i
    span = tuple(range(i, j + 1))
    span_short = tuple(range(i, j))

    q = apply_chain(p, range(i, j - 1))
    lhs1 = kappa(r, j - 1, q)
    rhs1 = eval_sigma((n - 1) * d, r - j + i, span, p) / eval_sigma(
        (n - 1) * (d - 1), r - j + i, span_short, p
    )

    q2 = apply_chain(q, [j - 1])
    lhs2 = q2.value(j, r)
    denom = eval_sigma((n - 1) * d, r - j + i, span, p)
    rhs2 = p.value(i, r - j + i) * eval_sigma((n - 1) * d, r - j + i - 1, span, p) / denom
    rhs3 = eval_sigma((n - 1) * d + 1, r - j + i, span, p) / denom

    return TactCheck(i, j, r, lhs1 == rhs1, lhs2 == rhs2, lhs2 == rhs3)
