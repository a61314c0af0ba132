"""The identity suite driver: clean passes, bounds, and sensitivity.

The mutation tests feed the randomized machinery a deliberately corrupted
identity or value and check it is rejected at every point: randomized
testing at positive points must not produce false passes.
"""

import hashlib
import itertools
import json
import operator
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from krenergy import identities, lsym, verify
from krenergy.birational import (
    RationalPoint,
    eval_loop_e,
    eval_loop_h,
    eval_tau,
    fraction_det,
    random_point,
)
from krenergy.identities import (
    POINT_BOUND,
    box_skew_shapes,
    classical_e_of_products,
    identity_suite,
    integer_point,
)
from krenergy.lsym import (
    RATIONAL,
    ColoredPoly,
    PolyMatrix,
    jacobi_trudi_indices,
    loop_family,
    loop_schurs,
    poly_ring,
    sigma,
    sigma_product_indices,
    staircase_a_indices,
    staircase_b_indices,
    strip_weights,
)
from krenergy.tableaux import Shape, SkewShape, partitions_between, staircase


def failures(checks):
    return [c for c in checks if not c.passed]


def read(ev, family, k, r):
    """``family_k^{(r)}`` from the evaluator's table, zero past its end."""
    table = ev.table(family, r, k)
    return table[k] if 0 <= k < len(table) else ev.zero


def test_symbolic_suite_small_sizes():
    for n, m in [(2, 1), (2, 2), (2, 3), (3, 2)]:
        assert not failures(identity_suite(n, m, mode="symbolic"))


def test_randomized_suite_small_sizes():
    for n, m in [(2, 2), (3, 3)]:
        assert not failures(identity_suite(n, m, mode="randomized", seed=4, trials=3))


RANDOMIZED_FAMILIES_M1 = {
    "eh_alternating_sum",
    "tau_via_products",
    "tau_recursion",
    "tau_recursion_residual",
    "jacobi_trudi",
}
RANDOMIZED_FAMILIES = RANDOMIZED_FAMILIES_M1 | {
    "staircase_factorization",
    "tau_vector_annihilation",
    "minor_tau_factorization",
}


def test_randomized_reports_family_summaries():
    # a clean randomized run reports exactly one passing summary per family
    for n, m, families in [(2, 2, RANDOMIZED_FAMILIES), (3, 1, RANDOMIZED_FAMILIES_M1)]:
        checks = identity_suite(n, m, mode="randomized", seed=0, trials=2)
        assert sorted(c.identity for c in checks) == sorted(families)
        assert all(c.passed and c.params == {"n": n, "m": m, "points": 2} for c in checks)


@pytest.mark.parametrize(
    "n, m, counts",
    [
        (2, 3, {"eh_alternating_sum": 12, "tau_via_products": 12, "tau_recursion": 6,
                "tau_recursion_residual": 4, "jacobi_trudi": 312, "staircase_factorization": 2,
                "staircase_jacobi_trudi": 2, "column_translation": 4,
                "tau_vector_annihilation": 2, "minor_tau_factorization": 8}),
        (3, 2, {"eh_alternating_sum": 24, "tau_via_products": 24, "tau_recursion": 15,
                "tau_recursion_residual": 6, "jacobi_trudi": 468, "staircase_factorization": 3,
                "staircase_jacobi_trudi": 3, "column_translation": 6,
                "tau_vector_annihilation": 3, "minor_tau_factorization": 18}),
    ],
)
def test_symbolic_check_counts_per_family(n, m, counts):
    assert Counter(c.identity for c in identity_suite(n, m, mode="symbolic")) == counts


def test_verify_runs_identity_suite_once_per_cell(monkeypatch):
    """Both identity suites come from one identity_suite run per cell, and
    each gets the same report entry as when it runs alone."""
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return identity_suite(*args, **kwargs)

    monkeypatch.setattr(verify, "identity_suite", counting)
    settings = dict(n_range=(2, 2), m_range=(1, 3), trials=2, mode="both")
    both = verify.run_verify(
        verify.VerifyConfig(suites=("lsym-identities", "section4"), **settings)
    ).to_jsonable()["suites"]
    assert len(calls) == 3 * 2  # m = 1..3, symbolic and randomized
    for name in ("lsym-identities", "section4"):
        alone = verify.run_verify(verify.VerifyConfig(suites=(name,), **settings))
        assert alone.to_jsonable()["suites"][name] == both[name]
        assert both[name]["checks"] > 0


def test_symbolic_bounds_enforced():
    with pytest.raises(ValueError):
        identity_suite(4, 2, mode="symbolic")
    with pytest.raises(ValueError):
        identity_suite(2, 5, mode="symbolic")


def test_mode_and_trials_validation():
    with pytest.raises(ValueError):
        identity_suite(2, 2, mode="exhaustive")
    with pytest.raises(ValueError):
        identity_suite(2, 2, mode="randomized", trials=0)
    with pytest.raises(ValueError):
        identity_suite(1, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 2.0, "m": 2},
        {"n": True, "m": 2},
        {"n": 2, "m": 2.0},
        {"n": 2, "m": "2"},
        {"n": 2, "m": 2, "mode": "randomized", "seed": "3"},
        {"n": 2, "m": 2, "mode": "randomized", "seed": 1.0},
        {"n": 2, "m": 2, "mode": "randomized", "trials": True},
        {"n": 2, "m": 2, "mode": "randomized", "trials": 2.5},
        {"n": 2, "m": 2, "mode": "symbolic", "trials": 2.5},
    ],
)
def test_identity_suite_takes_only_integers(kwargs):
    """A bool, float or string where an integer belongs is refused up
    front, in either mode (``seed="3"`` used to seed the same points as 3)."""
    with pytest.raises(ValueError, match="must be an integer"):
        identity_suite(**kwargs)


def test_staircase_factorization_base_case_polynomial():
    # for (n, m) = (2, 2) the staircase is a single cell: s_(1) = x1 + x2
    from krenergy.lsym import loop_schur_tableaux

    lhs = loop_schur_tableaux(Shape((1,)), 0, 2, n=2)
    rhs = sigma(1, 0, n=2, m=2)
    want = ColoredPoly.variable(1, 0, m=2, n=2) + ColoredPoly.variable(2, 0, m=2, n=2)
    assert lhs == rhs == want


def test_box_skew_shapes_contains_skews():
    shapes = box_skew_shapes(2, 2)
    outers = {(s.outer.parts, s.inner.parts) for s in shapes}
    assert ((2, 1), (1,)) in outers
    assert ((2, 2), (2, 1)) in outers


def test_classical_e_of_products_matches_combinations():
    """``[e_0, ..., e_m]`` of the full-color products, over polynomials and
    at a point, against the direct sum over index subsets."""
    rng = random.Random(1)
    for n, m in [(2, 1), (2, 3), (3, 2), (4, 4)]:
        p = random_point(m, n, rng, bound=10)
        polys = classical_e_of_products(*poly_ring(m, n))
        values = classical_e_of_products(RATIONAL, p.values)
        assert len(polys) == len(values) == m + 1
        for i in range(m + 1):
            want = ColoredPoly.zero(m, n)
            for combo in itertools.combinations(range(1, m + 1), i):
                mono = ColoredPoly.one(m, n)
                for j in combo:
                    for r in range(n):
                        mono = mono * ColoredPoly.variable(j, r, m=m, n=n)
                want = want + mono
            assert polys[i] == want, (n, m, i)
            assert values[i] == want.eval_rational(p.value)


def test_randomized_testing_has_no_false_passes():
    """A corrupted identity (eh_alternating_sum with a shifted color on h) must be
    rejected at every sampled positive point, rational or integral."""
    n, m = 3, 3
    rational, integral = random.Random(99), random.Random("integral")
    points = [random_point(m, n, rational) for _ in range(20)]
    for p in points + [integer_point(m, n, integral) for _ in range(20)]:
        idx = tuple(range(1, m + 1))
        for k in (1, 2, 3):
            wrong = Fraction(0)
            for i in range(0, min(m, k) + 1):
                term = eval_loop_e(i, -i, idx, p) * eval_loop_h(k - i, -i, idx, p)
                wrong += term if i % 2 == 0 else -term
            assert wrong != 0, (k, p)


def test_staircase_factorization_randomized_n3_m3_fifty_points():
    """Tableau-sum staircase Schur equals the sigma product at 50 points."""
    from krenergy.birational import eval_sigma
    from krenergy.lsym import loop_schur_tableaux
    from krenergy.tableaux import staircase

    n, m = 3, 3
    schur = loop_schur_tableaux(staircase(m - 1, n - 1), 0, m, n=n)
    rng = random.Random(15)
    for _ in range(50):
        p = random_point(m, n, rng)
        lhs = schur.eval_rational(p.value)
        rhs = Fraction(1)
        for i in range(1, m):
            rhs *= eval_sigma((n - 1) * (m - i), i - 1, range(i, m + 1), p)
        assert lhs == rhs


def test_symbolic_and_randomized_agree_where_both_run():
    # same sizes, both modes: identical verdicts (everything passes)
    for n, m in [(2, 2), (2, 3)]:
        sym = failures(identity_suite(n, m, mode="symbolic"))
        rand = failures(identity_suite(n, m, mode="randomized", seed=7, trials=3))
        assert sym == [] and rand == []


def corrupt_table(monkeypatch, family, degree, color):
    """Patch the evaluator's table kernel so that ``family_degree^{(color)}``
    on the full range reads one more than its value, the table padded
    with zeros up to that degree if it stops short of it; the classical e
    table of the products, a loop e table of one color, is left alone."""
    real = identities.loop_table

    def broken(fam, k, r, indices, sr, values):
        table = real(fam, k, r, indices, sr, values)
        if len(values[0]) >= 2 and (fam, r % len(values[0])) == (family, color):
            table += [sr.zero] * (degree + 1 - len(table))
            table[degree] += 1
        return table

    monkeypatch.setattr(identities, "loop_table", broken)


def test_memo_does_not_hide_a_failure(monkeypatch):
    """h off by one at a single (k, r mod n) is caught at every point: the
    table serves the wrong value wherever h_2^(1) is used, it never masks it."""
    corrupt_table(monkeypatch, "h", 2, 1)
    checks = identity_suite(3, 3, mode="randomized", seed=0, trials=2)
    bad = [c for c in checks if not c.passed and c.identity == "eh_alternating_sum"]
    assert bad
    assert {c.witness["point_index"] for c in bad} == {0, 1}
    assert all(c.witness["point"]["n"] == 3 for c in bad)


def test_verify_serializes_only_failing_identity_witnesses(monkeypatch):
    """``run_verify`` keeps no witness of a passing identity check, so it
    serializes none; a corrupted family still records its witnesses."""
    real = identities.IdentityCheck.to_jsonable

    def failing_only(self):
        if self.passed:
            raise AssertionError(f"serialized a passing {self.identity} check")
        return real(self)

    monkeypatch.setattr(identities.IdentityCheck, "to_jsonable", failing_only)
    settings = dict(suites=("lsym-identities", "section4"), n_range=(2, 3), m_range=(1, 3))
    report = verify.run_verify(verify.VerifyConfig(trials=2, mode="both", **settings))
    assert report.total_failures == 0 and report.total_checks > 0
    corrupt_table(monkeypatch, "h", 2, 1)
    report = verify.run_verify(verify.VerifyConfig(trials=2, mode="randomized", **settings))
    result = report.suites["lsym-identities"]
    assert result.failures > 0 and len(result.witnesses) == min(result.failures, 32)
    for witness in map(json.loads, result.witnesses):
        assert not witness["passed"]
        assert witness["witness"]["point"]["n"] == witness["params"]["n"]


def test_schur_table_does_not_hide_a_failure(monkeypatch):
    """One wrong entry of the per-point strip-DP table, s_{(3,2)/(1)} at
    color 1, fails exactly that jacobi_trudi instance at every point, with
    a witness, and nothing else."""
    real = identities._Evaluator.schurs

    def broken(self, outer, inner, r):
        table = real(self, outer, inner, r)
        if (inner, r % self.n) == ((1,), 1):
            table[(3, 2, 0)] += 1
        return table

    monkeypatch.setattr(identities._Evaluator, "schurs", broken)
    checks = identity_suite(3, 3, mode="randomized", seed=0, trials=3)
    bad = failures(checks)
    assert {c.identity for c in bad} == {"jacobi_trudi"}
    assert all((c.params["outer"], c.params["inner"], c.params["r"]) == ([3, 2], [1], 1) for c in bad)
    assert sorted(c.witness["point_index"] for c in bad) == [0, 1, 2]
    assert all(c.witness["point"]["n"] == 3 for c in bad)
    passed = {c.identity for c in checks if c.passed}
    assert passed == RANDOMIZED_FAMILIES - {"jacobi_trudi"}


def test_jacobi_trudi_pool_does_not_hide_a_failure(monkeypatch):
    """One wrong e value in the pool of the (inner (1), color 1) table, at
    the first column of its first row, fails exactly the jacobi_trudi
    instances whose selection reads that row, at every point, with a
    witness, and nothing else."""
    n, target = 3, ((1,), 1)
    plan, readers = [], []
    for inner, r, pool, shapes, selections in identities._jacobi_trudi_plan(n):
        if (inner, r) == target:
            (k, c), *rest = pool[0]
            pool = (((k + 1, c), *rest),) + pool[1:]
            readers = sorted(list(outer) for (_, outer), selection in zip(shapes, selections)
                             if 0 in selection)
            table_size = len(shapes)
        plan.append((inner, r, pool, shapes, selections))
    assert 1 < len(readers) < table_size
    monkeypatch.setattr(identities, "_jacobi_trudi_plan", lambda n: tuple(plan))
    checks = identity_suite(n, 3, mode="randomized", seed=0, trials=3)
    bad = failures(checks)
    assert {c.identity for c in bad} == {"jacobi_trudi"}
    assert all((c.params["inner"], c.params["r"]) == ([1], 1) for c in bad)
    for point_index in range(3):
        at_point = [c for c in bad if c.witness["point_index"] == point_index]
        assert sorted(c.params["outer"] for c in at_point) == readers
    assert all(c.witness["point"]["n"] == n for c in bad)
    passed = {c.identity for c in checks if c.passed}
    assert passed == RANDOMIZED_FAMILIES - {"jacobi_trudi"}


@pytest.mark.parametrize("symbolic", [True, False], ids=["symbolic", "point"])
def test_jacobi_trudi_walk_reads_one_table_per_inner_shape(monkeypatch, symbolic):
    """At (3, 3) the jacobi_trudi instances are exactly the box skew shapes
    times the colors, each once (the empty shape too), and the loop Schur
    table function runs once per (inner shape, color): for the box, and
    in symbolic mode once more per color for the staircase.  The tables
    of one color share one ``strip_weights``.  The determinants of a
    table come from one ``laplace_dets`` call, det A from one more per
    color, and the maximal minors of B from one more per color."""
    n, m = 3, 3
    calls, kernel_calls, weights, weight_calls = [], [], {}, []
    real = identities.loop_schurs
    real_kernel = identities.laplace_dets
    real_weights = identities.strip_weights

    def counting(outer, inner, strip_weights, sr):
        calls.append((outer, inner, weights[id(strip_weights)]))
        return real(outer, inner, strip_weights, sr)

    def counting_kernel(pool, selections, sr):
        kernel_calls.append(len(selections))
        return real_kernel(pool, selections, sr)

    def counting_weights(r, sr, values):
        made = real_weights(r, sr, values)
        weights[id(made)] = r
        weight_calls.append(r)
        return made

    monkeypatch.setattr(identities, "loop_schurs", counting)
    monkeypatch.setattr(identities, "laplace_dets", counting_kernel)
    monkeypatch.setattr(identities, "strip_weights", counting_weights)
    if symbolic:
        ev = identities._poly_evaluator(n, m)
    else:
        ev = identities._point_evaluator(integer_point(m, n, random.Random("walk")))
    results = list(identities._instances(ev, n, m, symbolic=symbolic))
    assert all(passed for _, _, passed in results)
    params = [identities._params(family, n, m, values)
              for family, values, _ in results if family == "jacobi_trudi"]
    seen = Counter((tuple(p["outer"]), tuple(p["inner"]), p["r"]) for p in params)
    shapes = box_skew_shapes(3, 3)
    assert seen == Counter(
        (s.outer.parts, s.inner.parts, r) for s in shapes for r in range(n)
    )
    inners = {s.inner.parts for s in shapes}
    want = Counter((identities.JT_BOX, inner, r) for inner in inners for r in range(n))
    if symbolic:
        want.update((staircase(m - 1, n - 1).parts, (), r) for r in range(n))
    assert Counter(calls) == want
    assert sorted(weight_calls) == list(range(n))
    want_kernel = [len(e) for *_, e in identities._jacobi_trudi_plan(n)] + [1] * n
    want_kernel += [len(staircase_b_indices(m, n=n)[0])] * n
    assert sorted(kernel_calls) == sorted(want_kernel)


def test_point_evaluator_computes_each_family_once(monkeypatch):
    """At one integral point every (family, r mod n) table of loop e, h
    and tau on the full range reaches the DP once, as does the one-color
    e table of the full-color products, and every value read later, at
    any degree and color, comes from those tables."""
    n, m = 3, 3
    p = integer_point(m, n, random.Random(5))
    full = tuple(range(1, m + 1))
    calls = Counter()
    real = identities.loop_table

    def counting(family, k, r, indices, sr, values):
        if tuple(indices) == full:
            calls[(family, r % n, len(values[0]))] += 1
        return real(family, k, r, indices, sr, values)

    monkeypatch.setattr(identities, "loop_table", counting)
    ev = identities._point_evaluator(p)
    results = list(identities._instances(ev, n, m, symbolic=False))
    assert results and all(passed for _, _, passed in results)
    want = Counter((family, r, n) for family in ("e", "h", "tau") for r in range(n))
    assert calls == want + Counter([("e", 0, 1)])
    pairs = [(k, r) for k in range(-1, 2 * m + 1) for r in range(-n, n)]
    shifted = [
        [read(ev, family, k, c) for family in ("e", "h", "tau") for c in (r, r + n)]
        for k, r in pairs
    ]
    assert max(calls.values()) == 1
    monkeypatch.undo()
    for (k, r), (e, e_shift, h, h_shift, t, t_shift) in zip(pairs, shifted):
        assert e == e_shift == eval_loop_e(k, r, full, p)
        assert h == h_shift == eval_loop_h(k, r, full, p)
        assert t == t_shift == eval_tau(k, r, full, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_point_evaluator_matches_the_fraction_ring(n):
    """Every value the point evaluator reads at an integral point is a
    plain ``int`` equal to the same kernel run over ``Fraction``
    (``RATIONAL`` at the point's values): loop e, h, tau and sigma on each
    suffix range (sigma from the evaluator's tau tables), the sigma product
    of each color, h past the degrees the identities read, the classical e
    of the products, and every entry of the loop Schur table of each inner
    shape of the box."""

    def same(got, want):
        return type(got) is int and got == want

    for m in range(1, 5):
        p = integer_point(m, n, random.Random(f"oracle:{n}:{m}"))
        ev, ring = identities._point_evaluator(p), (RATIONAL, p.values)
        full = tuple(range(1, m + 1))
        for r in range(n):
            for k in range(-1, (n - 1) * m + 2):
                assert same(read(ev, "e", k, r), loop_family("e", k, r, full, *ring)), (m, r, k)
                assert same(read(ev, "h", k, r), loop_family("h", k, r, full, *ring)), (m, r, k)
                assert same(read(ev, "tau", k, r), loop_family("tau", k, r, full, *ring)), (m, r, k)
                for i in range(1, m + 1):
                    idx = range(i, m + 1)
                    want = loop_family("sigma", k, r, idx, *ring)
                    got = loop_family("sigma", k, r, idx, ev.sr, ev.values, ev._taus)
                    assert same(got, want), (m, r, k, i)
            for nu in partitions_between(identities.JT_BOX):
                inner = Shape(nu).parts
                want = loop_schurs(identities.JT_BOX, inner, strip_weights(r, *ring), RATIONAL)
                got = ev.schurs(identities.JT_BOX, inner, r)
                assert got.keys() == want.keys(), (m, r, inner)
                assert all(same(got[nu], want[nu]) for nu in want), (m, r, inner)
            want = reduce(operator.mul, (loop_family("sigma", k, c, idx, *ring)
                                         for k, c, idx in sigma_product_indices(m, n=n, r=r)), 1)
            assert same(ev.sigma_product(r), want), (m, r)
        classical = classical_e_of_products(*ring)
        for i in range(-1, m + 2):
            assert same(ev.classical_e(i), classical[i] if 0 <= i <= m else 0), (m, i)
        # h past the top degree its table was built to, at every color
        for k in range(2 * (n - 1) * m + n - 1, 2 * (n - 1) * m + n + 3):
            for r in range(n):
                assert same(read(ev, "h", k, r), loop_family("h", k, r, full, *ring)), (m, r, k)


def test_point_minors_match_per_column_determinants():
    """One planned expansion gives the 16 maximal minors of the 15 x 16
    matrix B that 16 separate determinants give, for every color at three
    integral n=4, m=5 points."""
    n, m = 4, 5
    rng = random.Random("minors")
    for _ in range(3):
        ev = identities._point_evaluator(integer_point(m, n, rng))
        for r in range(n):
            mat_b = [[read(ev, "e", k, c) for k, c in row]
                     for row in staircase_b_indices(m, n=n, r=r)]
            per_column = [
                fraction_det([row[:j] + row[j + 1 :] for row in mat_b])
                for j in range(len(mat_b) + 1)
            ]
            assert ev.minors(mat_b) == per_column
            assert all(type(v) is int for v in ev.minors(mat_b))


@pytest.mark.parametrize("n", [2, 3])
def test_pooled_minors_match_per_column_polynomial_determinants(n):
    """Over the polynomials, the default ``minors`` (one ``laplace_dets``
    call) equals one ``PolyMatrix.det`` per deleted column of B, for every
    color at m = 2..4."""
    for m in range(2, 5):
        ev = identities._poly_evaluator(n, m)
        for r in range(n):
            mat_b = [[read(ev, "e", k, c) for k, c in row]
                     for row in staircase_b_indices(m, n=n, r=r)]
            per_column = [
                PolyMatrix(m, n, [row[:j] + row[j + 1 :] for row in mat_b]).det()
                for j in range(len(mat_b) + 1)
            ]
            assert ev.minors(mat_b) == per_column, (m, r)


@pytest.mark.parametrize("n, m", [(4, 5), (5, 5), (3, 8)])
def test_pooled_minors_match_sympy(n, m):
    """At an integral point the default ``minors`` (one planned
    ``laplace_dets`` call) equals sympy's integer determinant of B without
    each column, for every color of B."""
    ev = identities._point_evaluator(integer_point(m, n, random.Random(f"pooled-minors:{n}:{m}")))
    for r in range(n):
        mat_b = [[read(ev, "e", k, c) for k, c in row]
                 for row in staircase_b_indices(m, n=n, r=r)]
        size = len(mat_b)
        per_column = [
            int(DomainMatrix([[ZZ(v) for c, v in enumerate(row) if c != j] for row in mat_b],
                             (size, size), ZZ).det())
            for j in range(size + 1)
        ]
        assert ev.minors(mat_b) == per_column, r


@pytest.mark.parametrize("n, m", [(4, 5), (5, 5), (6, 6)])
def test_point_det_of_staircase_a_matches_sympy(n, m):
    """``det`` of the staircase matrix A at an integral point equals
    sympy's determinant, for every color; both are nonzero, the value of
    the sigma product at a positive point."""
    ev = identities._point_evaluator(integer_point(m, n, random.Random(f"det-a:{n}:{m}")))
    for r in range(n):
        mat_a = [[read(ev, "e", k, c) for k, c in row]
                 for row in staircase_a_indices(m, n=n, r=r)]
        got = ev.det(mat_a)
        assert type(got) is int
        assert got == sympy.Matrix(mat_a).det() != 0, r


def test_corrupted_b_entry_fails_at_every_point(monkeypatch):
    """e_16^(0) is zero and at n=4, m=5 only B uses it; set to 1, the B
    families fail at every point while the families without B pass."""
    corrupt_table(monkeypatch, "e", 16, 0)
    checks = identity_suite(4, 5, mode="randomized", seed=0, trials=3)
    b_families = {"minor_tau_factorization", "tau_vector_annihilation"}
    bad = [c for c in checks if not c.passed]
    assert {c.identity for c in bad} <= b_families
    assert {c.witness["point_index"] for c in bad} == {0, 1, 2}


def test_witness_points_are_integral_and_seeded(monkeypatch):
    """Each witness of a failing randomized run is an integral point with
    values in 1..POINT_BOUND, drawn from the seeded stream: the same seed
    gives the same witnesses."""
    corrupt_table(monkeypatch, "h", 2, 1)
    n, m, seed = 3, 2, 6
    runs = [[c.to_jsonable() for c in identity_suite(n, m, "randomized", seed, 3)]
            for _ in range(2)]
    assert runs[0] == runs[1]
    witnesses = {
        c["witness"]["point_index"]: c["witness"]["point"] for c in runs[0] if "witness" in c
    }
    assert sorted(witnesses) == [0, 1, 2]
    rng = random.Random(f"identities:{seed}:{n}:{m}")
    for index in range(3):
        point = RationalPoint.from_jsonable(witnesses[index])
        assert point == integer_point(m, n, rng)
        values = [v for row in point.values for v in row]
        assert all(v.denominator == 1 and 1 <= v <= POINT_BOUND for v in values)


def test_randomized_points_are_drawn_one_at_a_time(monkeypatch):
    """Each point is drawn just before it is checked, so memory does not
    grow with ``trials``: with 10^12 trials and an evaluator that fails at
    the second point, exactly two points are drawn."""
    drawn, evaluated = [], []
    real_point, real_evaluator = identities.integer_point, identities._point_evaluator

    def drawing(m, n, rng):
        drawn.append((m, n))
        if len(drawn) > 2:
            raise AssertionError("a point was drawn ahead of its check")
        return real_point(m, n, rng)

    def evaluator(p):
        evaluated.append(p)
        if len(evaluated) == 2:
            raise RuntimeError("the second point")
        return real_evaluator(p)

    monkeypatch.setattr(identities, "integer_point", drawing)
    monkeypatch.setattr(identities, "_point_evaluator", evaluator)
    with pytest.raises(RuntimeError, match="the second point"):
        identity_suite(2, 2, mode="randomized", seed=1, trials=10**12)
    assert len(drawn) == 2


def test_point_evaluator_refuses_a_rational_point():
    p = RationalPoint(2, 2, [[1, 2], [Fraction(3, 2), 5]])
    with pytest.raises(ValueError, match="integral point"):
        identities._point_evaluator(p)
    identities._point_evaluator(RationalPoint(2, 2, [[1, 2], [Fraction(6, 2), 5]]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jacobi_trudi_plan_holds_the_index_matrices(n):
    """Each selection of the plan at n picks pool rows whose top-left block
    is ``jacobi_trudi_indices`` of its skew shape, padded to the box width
    with the same determinant at a point, and the plan covers every box
    skew shape at every color once."""
    plan = identities._jacobi_trudi_plan(n)
    ev = identities._point_evaluator(integer_point(3, n, random.Random(n)))
    seen = Counter()
    for inner, r, pool, shapes, selections in plan:
        assert len(pool) <= 6 and len(set(pool)) == len(pool)
        values = {row: [read(ev, "e", k, c) for k, c in row] for row in pool}
        for (nu, outer), selection in zip(shapes, selections, strict=True):
            skew = SkewShape(nu, inner)
            assert outer == skew.outer.parts
            assert list(selection) == sorted(set(selection))
            rows = [pool[p] for p in selection]
            indices = jacobi_trudi_indices(skew, r)
            size = len(indices)
            assert [list(row[:size]) for row in rows[:size]] == indices, (nu, inner, r)
            assert list(map(list, rows)) == jacobi_trudi_indices(skew, r, 3)
            unpadded = [[read(ev, "e", k, c) for k, c in row] for row in indices]
            assert sympy.Matrix([values[row] for row in rows]).det() == sympy.Matrix(
                unpadded
            ).det()
            seen[(outer, inner, r)] += 1
    shapes = box_skew_shapes(3, 3)
    assert seen == Counter((s.outer.parts, s.inner.parts, r) for s in shapes for r in range(n))


def test_second_point_builds_no_jacobi_trudi_matrix(monkeypatch):
    """The first (4, 5) point builds the plans; a second point at the same
    (n, m) reads them and builds no index matrix or tau vector, no strip
    chain or sweep, no row selection and no Laplace expansion.  (The sigma
    factors' short index list is read per point, by ``lsym.sigma_product``.)"""
    identities._jacobi_trudi_plan.cache_clear()
    identities._staircase_plan.cache_clear()
    calls = []

    def counting(real):
        def count(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return count

    for name in ("jacobi_trudi_indices", "staircase_a_indices", "staircase_b_indices",
                 "tau_vector_indices"):
        monkeypatch.setattr(identities, name, counting(getattr(identities, name)))
    caches = [lsym._strip_chains, lsym._strip_sweep, lsym._laplace_plan, identities._skip_one,
              identities._jacobi_trudi_plan, identities._staircase_plan]
    assert not failures(identity_suite(4, 5, mode="randomized", seed=1, trials=1))
    assert calls
    calls.clear()
    built = [cache.cache_info().misses for cache in caches]
    assert not failures(identity_suite(4, 5, mode="randomized", seed=2, trials=1))
    assert calls == []
    assert [cache.cache_info().misses for cache in caches] == built
    assert identities._jacobi_trudi_plan.cache_info().currsize == 1
    assert identities._staircase_plan.cache_info().currsize == 1


def test_sweep_missing_a_reachable_predecessor_fails_jacobi_trudi(monkeypatch):
    """One strip predecessor dropped from the sweep after one entry of the
    (inner (1), 3 x 3 box) tables, a partition that one entry reaches,
    fails jacobi_trudi instances of that inner shape at every point and no
    other family."""
    real = lsym._strip_sweep
    dropped = []

    def broken(outer, inner, i):
        sweep = real(outer, inner, i)
        if (outer, inner, i) != (identities.JT_BOX, (1,), 1):
            return sweep
        k = next(k for k, (_, steps) in enumerate(sweep) if len(steps) > 1)
        nu, (step, *rest) = sweep[k]
        dropped.append(step)
        return sweep[:k] + ((nu, tuple(rest)),) + sweep[k + 1 :]

    monkeypatch.setattr(lsym, "_strip_sweep", broken)
    checks = identity_suite(3, 3, mode="randomized", seed=0, trials=3)
    assert dropped
    bad = failures(checks)
    assert {c.identity for c in bad} == {"jacobi_trudi"}
    assert all(c.params["inner"] == [1] for c in bad)
    assert sorted({c.witness["point_index"] for c in bad}) == [0, 1, 2]
    passed = {c.identity for c in checks if c.passed}
    assert passed == RANDOMIZED_FAMILIES - {"jacobi_trudi"}


# SHA-256 of the canonical JSON of identity_suite(4, 5, "randomized",
# seed=2024, trials=3) with one table entry one too large, taken before the
# convolution families read their tables directly: their verdicts, order,
# params and witnesses are unchanged
CORRUPTED_REPORT_DIGESTS = [
    ("h", 2, 1, "538cb7ed6382aa39ede53b7afc2964018e826e132772906e6442e6ff6d9bf406"),
    ("tau", 3, 1, "0bb333f4ccd74902597b834b74fa6b1375fad90bd1a36d475d9ad125939336ba"),
    ("e", 1, 0, "c3f5f81b9cd69f71717f8bbb6a978e29eee936182f76c185b107413f8328834b"),
]


@pytest.mark.parametrize("family, degree, color, digest", CORRUPTED_REPORT_DIGESTS)
def test_corrupted_report_is_pinned(monkeypatch, family, degree, color, digest):
    corrupt_table(monkeypatch, family, degree, color)
    checks = identity_suite(4, 5, mode="randomized", seed=2024, trials=3)
    assert failures(checks)
    report = json.dumps([c.to_jsonable() for c in checks], sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_point_evaluator_sigma_builds_each_tau_table_once(monkeypatch):
    """The sigma products of every colour at one (4, 5) point read one tau
    table per (suffix, colour mod n), built once at its top degree: the 4
    suffixes x_{i+1}..x_5 times 4 colours."""
    n, m = 4, 5
    ev = identities._point_evaluator(integer_point(m, n, random.Random(9)))
    calls = Counter()
    real = lsym.loop_table

    def counting(family, k, r, indices, sr, values):
        calls[family, tuple(indices), r % n] += 1
        return real(family, k, r, indices, sr, values)

    monkeypatch.setattr(lsym, "loop_table", counting)
    for r in range(n):
        ev.sigma_product(r)
    assert sum(calls.values()) == len(calls) == 16
    assert {(family, indices) for family, indices, _ in calls} == {
        ("tau", tuple(range(i + 1, m + 1))) for i in range(1, m)
    }


# SHA-256 of the canonical JSON of identity_suite(n, m, "symbolic"), taken
# when the polynomial kernels still added each product by ``+`` and ``*``:
# summing the products in one accumulator keeps every verdict, its order
# and its params
SYMBOLIC_REPORT_DIGESTS = [
    (2, 1, "dd251bfe11f307ccf4d904f411866ab1da9763b6aa2370deb70c5d7934bf3e6d"),
    (2, 2, "4c51f76d13e537b987607f65b660bf164a3a31c6d2f6373c107bef9fd16475b1"),
    (2, 3, "01cca1c43b91b78386d251ff9c4a3678b4c2bd8dc59f9939d5467befdb216a4b"),
    (2, 4, "fe0d5b8001736d096bafed41a2d0f74bf3f5e17c0f65cf2adfa618e888912650"),
    (3, 1, "736f72a2c22ee1773b1b0b069e6defecd3bc3f24f0e7a2ddf0b41f11bf42b9be"),
    (3, 2, "98fa22fb25c423ba82fc443ed171a2b3367a3804f984a1b68c20a9cd3a2993ac"),
    (3, 3, "34eb7f2f10779ea8d730f3ae78f9d41265e1d90794f5c57b01aa33d1df6b8225"),
    (3, 4, "2300ab3d71cc7c9eb908a5941df62d2d30ac6a0a0436b30de8362b7e387c96a0"),
]


@pytest.mark.parametrize("n, m, digest", SYMBOLIC_REPORT_DIGESTS)
def test_symbolic_report_is_pinned(n, m, digest):
    assert (n, m) <= (identities.SYMBOLIC_N_MAX, identities.SYMBOLIC_M_MAX)
    checks = identity_suite(n, m, "symbolic")
    assert not failures(checks)
    report = json.dumps([c.to_jsonable() for c in checks], sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_sum_products_without_its_minus_side_fails_the_symbolic_suite(monkeypatch):
    """A polynomial ring whose ``sum_products`` drops the products it should
    subtract breaks every determinant the suite expands, so the symbolic
    (3, 3) cell reports those families as failed and the rest as passed."""
    real = identities.poly_ring

    def dropping(start, plus, minus=()):
        return ColoredPoly.sum_products(start, plus)

    def ring(m, n):
        sr, xs = real(m, n)
        return sr._replace(sum_products=dropping), xs

    monkeypatch.setattr(identities, "poly_ring", ring)
    checks = identity_suite(3, 3, "symbolic")
    determinants = {"jacobi_trudi", "staircase_factorization", "staircase_jacobi_trudi",
                    "minor_tau_factorization"}
    assert {c.identity for c in failures(checks)} == determinants
    assert {c.identity for c in checks if c.passed} >= {"eh_alternating_sum", "tau_recursion"}
