"""The loop-symmetric-function identity suite.

Every identity is stated once, in ``_instances``, over an evaluator of the
families (loop e, h, tau, sigma, the classical e of the full-color
products, determinants and the tableau-sum loop Schur function).  The mode
picks the evaluator and little else:

* *symbolic* evaluates over exact polynomials (``krenergy.lsym``): both
  sides are expanded and compared term by term, every instance is
  recorded, and two polynomial-only families run as well
  (``staircase_jacobi_trudi`` and ``column_translation``);
* *randomized* evaluates at seeded strictly positive rational points
  (``krenergy.birational``): a nonzero polynomial vanishes at such a point
  with negligible probability and the arithmetic is exact, so a pass at
  many points is strong evidence while a fail is a counterexample.  Each
  failure is recorded with its witness point, then one passing summary per
  family that never failed.  The tableau-sum side of ``jacobi_trudi`` is
  evaluated by the horizontal-strip DP ``eval_loop_schur``, so no tableau
  is enumerated at a point.  ``staircase_jacobi_trudi`` stays
  symbolic-only, which keeps the set of randomized families fixed.

The evaluators differ only in the public functions they call for the
loop families (``krenergy.lsym`` or ``krenergy.birational``, which run the
same ring-generic kernel), in ``det`` and in ``schur``.  Both compute each
loop e, h and tau, and each classical e of the products (written once,
over any ring), once per ``(family, k, r mod n)``.

Families covered (names as reported):

    eh_alternating_sum       alternating e/h convolution vanishes
    tau_via_products         tau as an alternating h * classical-e sum over
                             the full-color products
    tau_recursion            alternating e * tau convolution vanishes when n
                             does not divide k; for n | k the sharp value is
                             the signed classical e_{k/n} of the products,
                             checked as tau_recursion_residual
    jacobi_trudi             determinant formula = tableau sum (box shapes)
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
from fractions import Fraction

from .birational import (
    RationalPoint,
    eval_loop_e,
    eval_loop_h,
    eval_loop_schur,
    eval_sigma,
    eval_tau,
    fraction_det,
    point_ring,
    random_point,
)
from .lsym import (
    ColoredPoly,
    PolyMatrix,
    Ring,
    jacobi_trudi_indices,
    loop_e,
    loop_h,
    loop_schur_tableaux,
    poly_ring,
    sigma,
    sigma_product_indices,
    staircase_a_indices,
    staircase_b_indices,
    tau,
    tau_vector_indices,
)
from .tableaux import Shape, SkewShape, partitions_between, staircase

SYMBOLIC_N_MAX = 3
SYMBOLIC_M_MAX = 4


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


def classical_e_of_products(i: int, ring: Ring):
    """The ordinary elementary symmetric e_i in the m full-color products
    ``prod_r x_j^{(r)}``, computed in ``ring``."""
    es = [ring.one] + [ring.zero] * ring.m
    for j in range(1, ring.m + 1):
        value = math.prod((ring.x(j, c) for c in range(ring.n)), start=ring.one)
        for t in range(ring.m, 0, -1):
            es[t] = es[t] + es[t - 1] * value
    return es[i] if 0 <= i <= ring.m else ring.zero


class _Evaluator:
    """The families in one ring.  Loop e, h, tau and the classical e of
    the products are computed once per ``(family, k, r mod n)``: every
    family is periodic in the color with period n, and the classical e has
    no color (it is cached under color 0).

    Subclasses give ``_family``, which calls the package's public function
    of a loop family in their ring (looked up at call time), and ``det``
    and ``schur``.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.n = ring.n
        self.zero = ring.zero
        self.full = tuple(range(1, ring.m + 1))
        self._memo: dict[tuple[str, int, int], object] = {}

    def _cached(self, family: str, k: int, r: int = 0):
        key = (family, k, r % self.n)
        if key not in self._memo:
            if family == "classical_e":
                self._memo[key] = classical_e_of_products(k, self.ring)
            else:
                self._memo[key] = self._family(family, k, key[2], self.full)
        return self._memo[key]

    def e(self, k: int, r: int):
        return self._cached("e", k, r)

    def h(self, k: int, r: int):
        return self._cached("h", k, r)

    def tau(self, k: int, r: int):
        return self._cached("tau", k, r)

    def classical_e(self, i: int):
        return self._cached("classical_e", i)

    def sigma(self, k: int, r: int, indices: range):
        return self._family("sigma", k, r, indices)


class _PolyEvaluator(_Evaluator):
    """The families as polynomials in the m x n colored variables."""

    def __init__(self, n: int, m: int):
        super().__init__(poly_ring(m, n))
        self.m = m

    def _family(self, family: str, k: int, r: int, indices) -> ColoredPoly:
        fn = {"e": loop_e, "h": loop_h, "tau": tau, "sigma": sigma}[family]
        return fn(k, r, n=self.n, m=self.m, indices=indices)

    def det(self, rows: list[list[ColoredPoly]]) -> ColoredPoly:
        return PolyMatrix(self.m, self.n, rows).det()

    def schur(self, shape: SkewShape | Shape, r: int) -> ColoredPoly:
        return loop_schur_tableaux(shape, r, self.m, n=self.n)


class _PointEvaluator(_Evaluator):
    """The families evaluated exactly at one positive rational point."""

    def __init__(self, p: RationalPoint):
        super().__init__(point_ring(p))
        self.p = p

    def _family(self, family: str, k: int, r: int, indices) -> Fraction:
        fn = {"e": eval_loop_e, "h": eval_loop_h, "tau": eval_tau, "sigma": eval_sigma}[family]
        return fn(k, r, indices, self.p)

    def det(self, rows: list[list[Fraction]]) -> Fraction:
        return fraction_det(rows)

    def schur(self, shape: SkewShape | Shape, r: int) -> Fraction:
        return eval_loop_schur(shape, r, self.p)


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

    def loop_e_values(indices):
        return [[ev.e(k, c) for k, c in row] for row in indices]

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

    for skew in box_skew_shapes(3, 3):
        for r in range(n):
            params = {
                "n": n,
                "m": m,
                "r": r,
                "outer": list(skew.outer.parts),
                "inner": list(skew.inner.parts),
            }
            jt = ev.det(loop_e_values(jacobi_trudi_indices(skew, r)))
            yield "jacobi_trudi", params, ev.schur(skew, r) == jt

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
            yield "staircase_jacobi_trudi", params, det_a == ev.schur(staircase(m - 1, n - 1), r)
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
        for i in range(1, len(spec) + 1):
            minor = ev.det([row[: i - 1] + row[i:] for row in mat_b])
            yield "minor_tau_factorization", {**params, "i": i}, minor == taus[i - 1] * det_a


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
    exact evaluations at ``trials`` seeded positive rational points and
    records each failure with its point, then one passing summary per
    family that never failed.
    """
    if n < 2 or m < 1:
        raise ValueError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if mode == "symbolic":
        if n > SYMBOLIC_N_MAX or m > SYMBOLIC_M_MAX:
            raise ValueError(
                f"symbolic mode is bounded to n <= {SYMBOLIC_N_MAX}, m <= {SYMBOLIC_M_MAX}"
            )
        return [
            IdentityCheck(name, params, bool(passed))
            for name, params, passed in _instances(_PolyEvaluator(n, m), n, m, symbolic=True)
        ]
    if mode != "randomized":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(f"identities:{seed}:{n}:{m}")
    points = [random_point(m, n, rng) for _ in range(trials)]
    checks: list[IdentityCheck] = []
    families: dict[str, None] = {}
    for pt_index, p in enumerate(points):
        witness = {"point_index": pt_index, "point": p.to_jsonable()}
        for name, params, passed in _instances(_PointEvaluator(p), n, m, symbolic=False):
            families[name] = None
            if not passed:
                checks.append(IdentityCheck(name, params, False, witness))
    failed = {c.identity for c in checks}
    for name in families:
        if name not in failed:
            checks.append(IdentityCheck(name, {"n": n, "m": m, "points": len(points)}, True))
    return checks
