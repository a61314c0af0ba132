"""The loop-symmetric-function identity suite.

Every identity is stated once, in ``_instances``, over an evaluator of the
families (loop e, h, tau, sigma, the classical e of the full-color
products, determinants and the loop Schur functions).  The mode
picks the evaluator and little else:

* *symbolic* evaluates over exact polynomials (``krenergy.lsym``): both
  sides are expanded and compared term by term, every instance is
  recorded, and two polynomial-only families run as well
  (``staircase_jacobi_trudi`` and ``column_translation``);
* *randomized* evaluates at seeded points whose values are integers
  uniform in 1..2^30: both sides are polynomials, so by the
  Schwartz-Zippel lemma a nonzero difference of degree d vanishes at such
  a point with probability at most d / 2^30, and the arithmetic is exact,
  so a pass at many points is strong evidence while a fail is a
  counterexample.  Each failure is recorded with its witness point,
  then one passing summary per family that never failed.
  ``staircase_jacobi_trudi`` stays symbolic-only, which keeps the set of
  randomized families fixed.

One evaluator runs the kernels (``loop_table``, ``loop_family``,
``loop_schurs``, ``classical_e_of_products``, ``laplace_dets``), written
once over ``lsym.Semiring``, in its ring and value table: the polynomials,
or an integral point in ``RATIONAL``, so no ``Fraction`` arises.  Every
degree of a loop e, h or tau comes from one ``loop_table`` per ``(family,
r mod n)``, which the evaluator holds as a list, the tau tables of sigma
one per (suffix, r mod n) (``tau_tables``), and each classical e is
computed once per degree.

The determinant side is three identities: Jacobi-Trudi for loop Schur
functions (Lam and Pylyavskyy, arXiv:0812.0840), det A = the sigma
product, and the maximal minors of B = tau * det A.  Each is a
``laplace_dets`` call, in either mode: the Jacobi-Trudi table of an inner
shape and a color, det A, and all the maximal minors of B, as the row
selections of B's transpose.  The expansion of a call is planned once
per zero pattern and selections and then kept, so a point runs only its
flat arithmetic.  The loop Schur side of ``jacobi_trudi`` walks the inner
shapes of the 3 x 3 box and the colors, and reads every outer shape from
one horizontal-strip DP table (``schurs``), dropped before the next; the
tables of one color share their strip weights (``strip_weights``), and no
tableau is enumerated.  A table's matrices, padded to the box width, are
row selections from one pool of at most 6 rows of loop e values.  The
shapes, pools and selections of the walk are built once per n
(``_jacobi_trudi_plan``).

Families covered (names as reported):

    eh_alternating_sum       alternating e/h convolution vanishes
    tau_via_products         tau as an alternating h * classical-e sum over
                             the full-color products
    tau_recursion            alternating e * tau convolution vanishes when n
                             does not divide k; for n | k the sharp value is
                             the signed classical e_{k/n} of the products,
                             checked as tau_recursion_residual
    jacobi_trudi             determinant formula = loop Schur (box shapes)
    staircase_factorization  det A = sigma product
    staircase_jacobi_trudi   det A = staircase loop Schur (symbolic only)
    column_translation       columns of A and B repeat, shifted down
                             (symbolic only)
    tau_vector_annihilation  the banded B matrix kills the tau vector
    minor_tau_factorization  maximal minors of B = tau * det(A)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, lru_cache, reduce

from .birational import RationalPoint, cleared_values
from .lsym import (
    RATIONAL,
    Semiring,
    jacobi_trudi_indices,
    laplace_dets,
    loop_family,
    loop_schurs,
    loop_table,
    poly_ring,
    sigma_product_indices,
    staircase_a_indices,
    staircase_b_indices,
    strip_weights,
    tau_tables,
    tau_vector_indices,
)
from .tableaux import Shape, SkewShape, partitions_between, staircase

SYMBOLIC_N_MAX = 3
SYMBOLIC_M_MAX = 4
JT_BOX = (3, 3, 3)  # the outer shape bounding the skew shapes of jacobi_trudi
POINT_BOUND = 2**30  # randomized points take values in 1..POINT_BOUND


@dataclass
class IdentityCheck:
    identity: str
    params: dict
    passed: bool
    witness: dict | None = None

    def to_jsonable(self) -> dict:
        out = {"identity": self.identity, "params": self.params, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def box_skew_shapes(rows: int, cols: int) -> list[SkewShape]:
    """Every skew shape outer / inner with outer inside a rows x cols box:
    the empty shape once, then the nonempty ones."""
    box = [Shape(nu) for nu in partitions_between((cols,) * rows)]
    return [SkewShape(())] + [
        SkewShape(outer, inner)
        for outer in box
        for inner in box
        if inner != outer and outer.contains(inner)
    ]


def classical_e_of_products(i: int, sr: Semiring, values):
    """The ordinary elementary symmetric e_i in the m full-color products
    ``prod_r x_j^{(r)}``, computed in ``sr`` at ``values``."""
    m = len(values)
    es = [sr.one] + [sr.zero] * m
    for row in values:
        value = reduce(sr.mul, row, sr.one)
        for t in range(m, 0, -1):
            es[t] = sr.add(es[t], sr.mul(es[t - 1], value))
    return es[i] if 0 <= i <= m else sr.zero


class _Evaluator:
    """The families in one ring ``sr`` at one value table.  Loop e, h and
    tau are read from one ``loop_table`` per ``(family, r mod n)``, held in
    ``tables[family][r % n]``: every family is periodic in the color with
    period n, and the color of a factor does not depend on the degree.
    sigma reads the tau tables of its suffixes from one ``tau_tables``, so
    each is built once, at its top degree.  The classical e of the
    products is computed once per degree, and the loop Schur tables of a
    color share its ``strip_weights``.  Determinants and the maximal minors
    of B are ``laplace_dets`` calls.  The kernels are looked up as module
    globals at call time.
    """

    def __init__(self, sr: Semiring, values):
        self.sr, self.values, self.zero = sr, values, sr.zero
        m, n = len(values), len(values[0])
        self.n = n
        self.full = tuple(range(1, m + 1))
        # e and tau vanish above these degrees; h is read up to 2(n-1)m
        # (eh_alternating_sum) and (n-1)m + n (tau_via_products)
        top = (n - 1) * m
        self._tops = {"e": m, "tau": top, "h": top + max(top, n)}
        self.tables = {family: [None] * n for family in self._tops}
        self._taus = tau_tables(sr, values)
        self.classical_e = cache(lambda i: classical_e_of_products(i, sr, values))
        self._weights = [strip_weights(c, sr, values) for c in range(n)]

    def table(self, family: str, r: int, k: int = 0) -> list:
        """The table of ``family`` at color r mod n, built on first read and
        again for an h of degree k past its top."""
        tables, c = self.tables[family], r % self.n
        table = tables[c]
        if table is None or (family == "h" and k >= len(table)):
            top = max(k, self._tops[family])
            table = tables[c] = loop_table(family, top, c, self.full, self.sr, self.values)
        return table

    def _read(self, family: str, k: int, r: int):
        table = self.tables[family][r % self.n]
        if table is None or k >= len(table):
            table = self.table(family, r, k)
        return table[k] if 0 <= k < len(table) else self.zero

    def e(self, k: int, r: int):
        return self._read("e", k, r)

    def h(self, k: int, r: int):
        return self._read("h", k, r)

    def tau(self, k: int, r: int):
        return self._read("tau", k, r)

    def sigma(self, k: int, r: int, indices: range):
        return loop_family("sigma", k, r, indices, self.sr, self.values, self._taus)

    def schurs(self, outer: tuple, inner: tuple, r: int) -> dict:
        return loop_schurs(outer, inner, self._weights[r % self.n], self.sr)

    def det(self, rows: list[list]):
        return laplace_dets(rows, [range(len(rows))], self.sr)[0]

    def minors(self, rows: list[list]) -> list:
        """The maximal minors of an r x (r + 1) matrix, minor j the
        determinant of every column but column j, read as rows of the
        transpose: the selections of one ``laplace_dets`` call, so that
        they share one plan."""
        columns = list(zip(*rows, strict=True)) or [()]
        skips = [[c for c in range(len(columns)) if c != j] for j in range(len(columns))]
        return laplace_dets(columns, skips, self.sr)


def _poly_evaluator(n: int, m: int) -> _Evaluator:
    """The families as polynomials in the m x n colored variables."""
    return _Evaluator(*poly_ring(m, n))


def _point_evaluator(p: RationalPoint) -> _Evaluator:
    """The families evaluated exactly, in plain ints, at one positive
    integral point; a point with a non-integral value raises ``ValueError``."""
    if any(v.denominator != 1 for row in p.values for v in row):
        raise ValueError(f"the point evaluator needs an integral point, got {p!r}")
    return _Evaluator(RATIONAL, cleared_values(p)[0])  # at scale 1


def integer_point(m: int, n: int, rng: random.Random) -> RationalPoint:
    """A random point with values uniform in 1..POINT_BOUND."""
    return RationalPoint(m, n, [[rng.randint(1, POINT_BOUND) for _ in range(n)] for _ in range(m)])


@lru_cache(maxsize=16)
def _jacobi_trudi_plan(n: int) -> tuple:
    """The point-independent part of the jacobi_trudi instances at n, per
    inner shape of the box (the box itself excepted) and color r: the pool
    of ``(degree, color)`` rows, and each nu from inner to the box, in the
    order of ``loop_schurs`` (nu = inner skipped unless inner is empty),
    with its outer shape and its selection of pool rows.

    The selected rows are ``jacobi_trudi_indices(nu / inner, r)`` padded
    to the box width; the padding is unitriangular, so the determinant is
    unchanged.  Row i of every matrix of the table depends on nu only
    through ``nu'_i - i``, which takes the box's 6 values, so the table's
    up to 20 determinants are maximal minors of one pool of at most 6 rows.
    """
    plan = []
    for inner in (Shape(nu).parts for nu in partitions_between(JT_BOX) if nu != JT_BOX):
        nus = sorted(partitions_between(JT_BOX, inner), key=sum)
        skews = [(nu, SkewShape(nu, inner)) for nu in nus]
        skews = [(nu, skew) for nu, skew in skews if not inner or skew.size]
        for r in range(n):
            mats = [(nu, skew, jacobi_trudi_indices(skew, r, JT_BOX[0])) for nu, skew in skews]
            # rows by decreasing degree, so that every selection increases
            # and a set of rows is one memo entry of laplace_dets
            pool = sorted({tuple(row) for _, _, mat in mats for row in mat}, reverse=True)
            index = {row: p for p, row in enumerate(pool)}
            entries = tuple(
                (nu, skew.outer.parts, tuple(index[tuple(row)] for row in mat))
                for nu, skew, mat in mats
            )
            plan.append((inner, r, tuple(pool), entries))
    return tuple(plan)


def _instances(ev, n: int, m: int, symbolic: bool):
    """Yield ``(identity, params, passed)`` for every instance at (n, m).

    ``ev`` evaluates the families either as polynomials or at a point.
    ``symbolic`` adds the two polynomial-only families: column translation
    is a property of the matrix entries as polynomials, and
    ``staircase_jacobi_trudi`` is kept out of randomized mode so that its
    family set stays fixed.
    """

    def alternating(terms):
        acc = ev.zero
        for i, term in enumerate(terms):
            acc = acc + term if i % 2 == 0 else acc - term
        return acc

    e_tables = [ev.table("e", c) for c in range(n)]

    def loop_e_values(indices):
        # each value straight from its color's table; e vanishes past it
        return [[e_tables[c % n][k] if 0 <= k < len(e_tables[c % n]) else ev.zero
                 for k, c in row] for row in indices]

    for r in range(n):
        for k in range(1, 2 * (n - 1) * m + 1):
            acc = alternating(
                ev.e(i, r - i) * ev.h(k - i, r - i - 1) for i in range(min(m, k) + 1)
            )
            yield "eh_alternating_sum", {"n": n, "m": m, "r": r, "k": k}, acc == ev.zero

    for r in range(n):
        for k in range(0, (n - 1) * m + n + 1):
            rhs = alternating(
                ev.h(k - i * n, r) * ev.classical_e(i) for i in range(min(m, k // n) + 1)
            )
            yield "tau_via_products", {"n": n, "m": m, "r": r, "k": k}, ev.tau(k, r) == rhs

    # The alternating e * tau convolution vanishes for n not dividing k;
    # for n | k it telescopes (through the eh and tau-via-products sums
    # above) to the signed classical e_{k/n} of the full-color products.
    for r in range(n):
        for k in range(1, (n - 1) * m + n + 1):
            acc = alternating(
                ev.e(i, r - i) * ev.tau(k - i, r - i - 1) for i in range(min(m, k) + 1)
            )
            params = {"n": n, "m": m, "r": r, "k": k}
            if k % n:
                yield "tau_recursion", params, acc == ev.zero
            else:
                expected = (-1) ** (k // n) * ev.classical_e(k // n)
                yield "tau_recursion_residual", params, acc == expected

    # one loop Schur table per (inner shape, color) holds the tableau side
    # of every outer shape in the box, and one Laplace expansion of its pool
    # the determinant side; the box as the inner shape leaves only the
    # empty shape, which is checked once, at inner = ()
    for inner, r, pool, entries in _jacobi_trudi_plan(n):
        schurs = ev.schurs(JT_BOX, inner, r)
        dets = laplace_dets(loop_e_values(pool), [s for _, _, s in entries], ev.sr)
        for (nu, outer, _), det in zip(entries, dets, strict=True):
            params = {"n": n, "m": m, "r": r, "outer": list(outer), "inner": list(inner)}
            yield "jacobi_trudi", params, schurs[nu] == det

    if m < 2:
        return
    for r in range(n):
        params = {"n": n, "m": m, "r": r}
        mat_a = loop_e_values(staircase_a_indices(m, n=n, r=r))
        mat_b = loop_e_values(staircase_b_indices(m, n=n, r=r))
        det_a = ev.det(mat_a)
        factors = sigma_product_indices(m, n=n, r=r)
        product = math.prod(ev.sigma(k, c, idx) for k, c, idx in factors)
        yield "staircase_factorization", params, det_a == product
        if symbolic:
            stair = staircase(m - 1, n - 1).parts
            yield "staircase_jacobi_trudi", params, det_a == ev.schurs(stair, (), r)[stair]
            for mat, name in ((mat_a, "A"), (mat_b, "B")):
                passed = all(
                    mat[k][j] == (mat[k - (n - 1)][j - n] if k >= n - 1 else ev.zero)
                    for j in range(n, len(mat[0]))
                    for k in range(len(mat))
                )
                yield "column_translation", {**params, "matrix": name}, passed

        spec = tau_vector_indices(m, n=n, r=r)
        taus = [ev.tau(k, c) for _, k, c in spec]
        vec = [sign * t for (sign, _, _), t in zip(spec, taus)]
        products = [sum((b * t for b, t in zip(row, vec)), ev.zero) for row in mat_b]
        yield "tau_vector_annihilation", params, all(v == ev.zero for v in products)
        for i, (minor, t) in enumerate(zip(ev.minors(mat_b), taus, strict=True), start=1):
            yield "minor_tau_factorization", {**params, "i": i}, minor == t * det_a


def identity_suite(
    n: int,
    m: int,
    mode: str = "symbolic",
    seed: int = 0,
    trials: int = 50,
) -> list[IdentityCheck]:
    """Run every identity family at the given size.

    ``mode="symbolic"`` expands both sides exactly (bounded to n <= 3,
    m <= 4) and records every instance; ``mode="randomized"`` compares
    exact evaluations at ``trials`` seeded points with integer values in
    1..POINT_BOUND and records each failure with its point, then one
    passing summary per family that never failed.
    """
    for name, value in (("n", n), ("m", m), ("seed", seed), ("trials", trials)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if mode == "symbolic":
        if n > SYMBOLIC_N_MAX or m > SYMBOLIC_M_MAX:
            raise ValueError(
                f"symbolic mode is bounded to n <= {SYMBOLIC_N_MAX}, m <= {SYMBOLIC_M_MAX}"
            )
        return [
            IdentityCheck(name, params, bool(passed))
            for name, params, passed in _instances(_poly_evaluator(n, m), n, m, symbolic=True)
        ]
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    # each point is drawn just before it is checked, so memory stays flat in trials
    rng = random.Random(f"identities:{seed}:{n}:{m}")
    checks: list[IdentityCheck] = []
    families: dict[str, None] = {}
    for pt_index in range(trials):
        p = integer_point(m, n, rng)
        witness = {"point_index": pt_index, "point": p.to_jsonable()}
        for name, params, passed in _instances(_point_evaluator(p), n, m, symbolic=False):
            families[name] = None
            if not passed:
                checks.append(IdentityCheck(name, params, False, witness))
    failed = {c.identity for c in checks}
    for name in families:
        if name not in failed:
            checks.append(IdentityCheck(name, {"n": n, "m": m, "points": trials}, True))
    return checks
