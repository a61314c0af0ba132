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

One evaluator runs the kernels (``loop_table``, ``sigma_product``,
``loop_schurs``, ``classical_e_of_products``, ``laplace_dets``), written
once over ``lsym.Semiring``, in its ring and value table: the polynomials,
or an integral point in ``RATIONAL``, so no ``Fraction`` arises.  Every
degree of a loop e, h or tau comes from one ``loop_table`` per ``(family,
r mod n)``, which the evaluator holds as a list, the tau tables of the
sigmas one per (suffix, r mod n) (``tau_tables``), and every classical e
from one more loop e table, of the full-color products taken as one
color.

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

import random
from dataclasses import dataclass
from functools import lru_cache, reduce

from .birational import RationalPoint, cleared_values
from .lsym import (
    RATIONAL,
    Semiring,
    jacobi_trudi_indices,
    laplace_dets,
    loop_schurs,
    loop_table,
    poly_ring,
    sigma_product,
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


def classical_e_of_products(sr: Semiring, values) -> list:
    """``[e_0, ..., e_m]``, the ordinary elementary symmetric functions of
    the m full-color products ``prod_r x_j^{(r)}``, computed in ``sr`` at
    ``values``: the loop e table of the products taken as one color."""
    products = [[reduce(sr.mul, row, sr.one)] for row in values]
    return loop_table("e", len(values), 0, range(1, len(values) + 1), sr, products)


class _Evaluator:
    """The families in one ring ``sr`` at one value table.  Loop e, h and
    tau are read from one ``loop_table`` per ``(family, r mod n)``, held in
    ``tables[family][r % n]``: every family is periodic in the color with
    period n, and the color of a factor does not depend on the degree.
    The sigma product reads the tau tables of its suffixes from one
    ``tau_tables``, so each is built once, at its top degree.  The classical
    e of the products is one loop e table, and the loop Schur tables of a
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
        self._classical_e = classical_e_of_products(sr, values)
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

    def classical_e(self, i: int):
        """The classical e_i of the full-color products, zero past 0..m."""
        return self._classical_e[i] if 0 <= i < len(self._classical_e) else self.zero

    def sigma_product(self, r: int):
        return sigma_product(self.sr, self.values, r, self._taus)

    def schurs(self, outer: tuple, inner: tuple, r: int) -> dict:
        return loop_schurs(outer, inner, self._weights[r % self.n], self.sr)

    def det(self, rows: list[list]):
        # every row: the selection that skips the one past the last
        return laplace_dets(rows, _skip_one(len(rows) + 1)[-1:], self.sr)[0]

    def minors(self, rows: list[list]) -> list:
        """The maximal minors of an r x (r + 1) matrix, minor j the
        determinant of every column but column j, read as rows of the
        transpose: the selections of one ``laplace_dets`` call, so that
        they share one plan."""
        columns = list(zip(*rows, strict=True)) or [()]
        return laplace_dets(columns, _skip_one(len(columns)), self.sr)


@lru_cache(maxsize=64)
def _skip_one(width: int) -> tuple[tuple[int, ...], ...]:
    """Per j below ``width``, every index below it but j: the row
    selections of the maximal minors of a transposed matrix, built once
    per width and handed to ``laplace_dets`` as built."""
    return tuple(tuple(c for c in range(width) if c != j) for j in range(width))


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
    of ``(degree, color)`` rows; each nu from inner to the box, in the
    order of ``loop_schurs`` (nu = inner skipped unless inner is empty),
    with its outer shape; and their selections of pool rows, one tuple that
    ``laplace_dets`` takes as built.

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
            shapes = tuple((nu, skew.outer.parts) for nu, skew, _ in mats)
            selections = tuple(tuple(index[tuple(row)] for row in mat) for _, _, mat in mats)
            plan.append((inner, r, tuple(pool), shapes, selections))
    return tuple(plan)


@lru_cache(maxsize=16)
def _staircase_plan(n: int, m: int) -> tuple:
    """The point-independent part of the staircase instances at (n, m),
    m >= 2, per color r: the ``(degree, color)`` rows of A and of B
    (``staircase_a_indices``, ``staircase_b_indices``), the ``(degree,
    color)`` components of the tau vector and their signs
    (``tau_vector_indices``).  Colors are reduced mod n, and each distinct
    pair is one tuple that every entry holding it shares."""
    pairs: dict[tuple[int, int], tuple[int, int]] = {}

    def shared(row):
        return tuple([pairs.setdefault((k, c % n), (k, c % n)) for k, c in row])

    plan = []
    for r in range(n):
        taus = tau_vector_indices(m, n=n, r=r)
        plan.append((
            tuple(map(shared, staircase_a_indices(m, n=n, r=r))),
            tuple(map(shared, staircase_b_indices(m, n=n, r=r))),
            shared((k, c) for _, k, c in taus),
            tuple(sign for sign, _, _ in taus),
        ))
    return tuple(plan)


# The params of each family's instances after n and m, in report order.
# An instance carries their values as a tuple; ``_params`` makes the dict
# only for a check that is recorded.
PARAM_FIELDS = {
    "eh_alternating_sum": ("r", "k"),
    "tau_via_products": ("r", "k"),
    "tau_recursion": ("r", "k"),
    "tau_recursion_residual": ("r", "k"),
    "jacobi_trudi": ("r", "outer", "inner"),
    "staircase_factorization": ("r",),
    "staircase_jacobi_trudi": ("r",),
    "column_translation": ("r", "matrix"),
    "tau_vector_annihilation": ("r",),
    "minor_tau_factorization": ("r", "i"),
}


def _params(identity: str, n: int, m: int, values: tuple) -> dict:
    """The params of an instance of ``identity`` at (n, m) whose
    ``PARAM_FIELDS`` take ``values``, a shape tuple as a list."""
    params = {"n": n, "m": m}
    for name, value in zip(PARAM_FIELDS[identity], values, strict=True):
        params[name] = list(value) if type(value) is tuple else value
    return params


def _instances(ev, n: int, m: int, symbolic: bool):
    """Yield ``(identity, values, passed)`` for every instance at (n, m),
    with ``values`` the instance's ``PARAM_FIELDS`` as a tuple.

    ``ev`` evaluates the families either as polynomials or at a point.
    ``symbolic`` adds the two polynomial-only families: column translation
    is a property of the matrix entries as polynomials, and
    ``staircase_jacobi_trudi`` is kept out of randomized mode so that its
    family set stays fixed.  Over a ring with ``sum_products`` the
    convolutions and the products of B with the tau vector sum each entry
    in one accumulator.
    """

    zero, fused = ev.zero, ev.sr.sum_products
    e_by_color = [ev.table("e", c) for c in range(n)]
    tau_by_color = [ev.table("tau", c) for c in range(n)]

    def read(tables, pairs):
        # each value straight from its color's table; the family vanishes past it
        return [tables[c % n][k] if 0 <= k < len(tables[c % n]) else zero for k, c in pairs]

    def convolution(coefs, rows, size, step=1):
        # [sum_i coefs[i] * rows[i][k - step * i] for k < size], a row read
        # as zero past its end
        if fused:
            return [fused(zero, [(coef, row[k - step * i])
                                 for i, (coef, row) in enumerate(zip(coefs, rows))
                                 if 0 <= k - step * i < len(row)])
                    for k in range(size)]
        acc = [zero] * size
        for i, (coef, row) in enumerate(zip(coefs, rows)):
            for k, value in enumerate(row[: max(size - step * i, 0)], start=step * i):
                acc[k] = acc[k] + coef * value
        return acc

    # the alternating e * h and e * tau convolutions share their signed e
    signed_e = [[e_by_color[(r - i) % n][i] * (-1) ** i for i in range(m + 1)] for r in range(n)]
    for r in range(n):
        h_rows = [ev.table("h", r - i - 1) for i in range(m + 1)]
        sums = convolution(signed_e[r], h_rows, 2 * (n - 1) * m + 1)
        for k in range(1, 2 * (n - 1) * m + 1):
            yield "eh_alternating_sum", (r, k), sums[k] == zero

    top = (n - 1) * m + n  # the degrees of tau_via_products and tau_recursion
    signed_ce = [ev.classical_e(i) * (-1) ** i for i in range(m + 1)]
    for r in range(n):
        sums = convolution(signed_ce, [ev.table("h", r)] * (m + 1), top + 1, step=n)
        taus = read(tau_by_color, [(k, r) for k in range(top + 1)])
        for k in range(0, top + 1):
            yield "tau_via_products", (r, k), taus[k] == sums[k]

    # The alternating e * tau convolution vanishes for n not dividing k;
    # for n | k it telescopes (through the eh and tau-via-products sums
    # above) to the signed classical e_{k/n} of the full-color products.
    for r in range(n):
        tau_rows = [tau_by_color[(r - i - 1) % n] for i in range(m + 1)]
        sums = convolution(signed_e[r], tau_rows, top + 1)
        for k in range(1, top + 1):
            if k % n:
                yield "tau_recursion", (r, k), sums[k] == zero
            else:
                expected = (-1) ** (k // n) * ev.classical_e(k // n)
                yield "tau_recursion_residual", (r, k), sums[k] == expected

    # one loop Schur table per (inner shape, color) holds the tableau side
    # of every outer shape in the box, and one Laplace expansion of its pool
    # the determinant side; the box as the inner shape leaves only the
    # empty shape, which is checked once, at inner = ()
    for inner, r, pool, shapes, selections in _jacobi_trudi_plan(n):
        schurs = ev.schurs(JT_BOX, inner, r)
        dets = laplace_dets([read(e_by_color, row) for row in pool], selections, ev.sr)
        for (nu, outer), det in zip(shapes, dets, strict=True):
            yield "jacobi_trudi", (r, outer, inner), schurs[nu] == det

    if m < 2:
        return
    for r, (a_rows, b_rows, tau_pairs, signs) in enumerate(_staircase_plan(n, m)):
        mat_a = [read(e_by_color, row) for row in a_rows]
        mat_b = [read(e_by_color, row) for row in b_rows]
        det_a = ev.det(mat_a)
        yield "staircase_factorization", (r,), det_a == ev.sigma_product(r)
        if symbolic:
            stair = staircase(m - 1, n - 1).parts
            yield "staircase_jacobi_trudi", (r,), det_a == ev.schurs(stair, (), r)[stair]
            for mat, name in ((mat_a, "A"), (mat_b, "B")):
                passed = all(
                    mat[k][j] == (mat[k - (n - 1)][j - n] if k >= n - 1 else zero)
                    for j in range(n, len(mat[0]))
                    for k in range(len(mat))
                )
                yield "column_translation", (r, name), passed

        taus = read(tau_by_color, tau_pairs)
        vec = [sign * t for sign, t in zip(signs, taus)]
        if fused:
            products = [fused(zero, zip(row, vec)) for row in mat_b]
        else:
            products = [sum((b * t for b, t in zip(row, vec)), zero) for row in mat_b]
        yield "tau_vector_annihilation", (r,), all(v == zero for v in products)
        for i, (minor, t) in enumerate(zip(ev.minors(mat_b), taus, strict=True), start=1):
            yield "minor_tau_factorization", (r, i), minor == t * det_a


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
            IdentityCheck(name, _params(name, n, m, values), bool(passed))
            for name, values, passed in _instances(_poly_evaluator(n, m), n, m, symbolic=True)
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
        witness = None  # the point's, made at its first failure
        for name, values, passed in _instances(_point_evaluator(p), n, m, symbolic=False):
            families[name] = None
            if not passed:
                witness = witness or {"point_index": pt_index, "point": p.to_jsonable()}
                checks.append(IdentityCheck(name, _params(name, n, m, values), False, witness))
    failed = {c.identity for c in checks}
    for name in families:
        if name not in failed:
            checks.append(IdentityCheck(name, {"n": n, "m": m, "points": trials}, True))
    return checks
