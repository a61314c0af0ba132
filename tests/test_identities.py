"""The identity suite driver: clean passes, bounds, and sensitivity.

The last test feeds the randomized machinery a deliberately corrupted
identity and checks it is rejected at every point: randomized testing at
positive rational points must not produce false passes.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from krenergy import birational, identities, verify
from krenergy.birational import eval_loop_e, eval_loop_h, point_ring, random_point
from krenergy.identities import (
    box_skew_shapes,
    classical_e_of_products,
    identity_suite,
)
from krenergy.lsym import ColoredPoly, poly_ring, sigma
from krenergy.tableaux import Shape


def failures(checks):
    return [c for c in checks if not c.passed]


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
    """The classical e of the full-color products, over polynomials and at
    a point, against the direct sum over index subsets."""
    rng = random.Random(1)
    for n, m in [(2, 1), (2, 3), (3, 2), (4, 4)]:
        p = random_point(m, n, rng, bound=10)
        for i in range(-1, m + 2):
            want = ColoredPoly.zero(m, n)
            for combo in itertools.combinations(range(1, m + 1), i) if i >= 0 else ():
                mono = ColoredPoly.one(m, n)
                for j in combo:
                    for r in range(n):
                        mono = mono * ColoredPoly.variable(j, r, m=m, n=n)
                want = want + mono
            assert classical_e_of_products(i, poly_ring(m, n)) == want, (n, m, i)
            assert classical_e_of_products(i, point_ring(p)) == want.eval_rational(p.value)


def test_randomized_testing_has_no_false_passes():
    """A corrupted identity (eh_alternating_sum with a shifted color on h) must be
    rejected at every sampled positive rational point."""
    rng = random.Random(99)
    n, m = 3, 3
    for _ in range(20):
        p = random_point(m, n, rng)
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


def test_memo_does_not_hide_a_failure(monkeypatch):
    """h off by one at a single (k, r mod n) is caught at every point: the
    memo serves the wrong value wherever h_2^(1) is used, it never masks it."""

    def broken_h(k, r, indices, p):
        value = eval_loop_h(k, r, indices, p)
        return value + 1 if (k, r % p.n) == (2, 1) else value

    monkeypatch.setattr(identities, "eval_loop_h", broken_h)
    checks = identity_suite(3, 3, mode="randomized", seed=0, trials=2)
    bad = [c for c in checks if not c.passed and c.identity == "eh_alternating_sum"]
    assert bad
    assert {c.witness["point_index"] for c in bad} == {0, 1}
    assert all(c.witness["point"]["n"] == 3 for c in bad)


def test_point_evaluator_computes_each_family_once(monkeypatch):
    """At one point every (family, k, r mod n) reaches the DP at most once."""
    n, m = 3, 3
    p = random_point(m, n, random.Random(5))
    full = tuple(range(1, m + 1))
    calls = []
    real = birational.loop_family

    def counting(family, k, r, indices, ring):
        if family in ("e", "h", "tau") and tuple(indices) == full:
            calls.append((family, k, r))
        return real(family, k, r, indices, ring)

    monkeypatch.setattr(birational, "loop_family", counting)
    requested = set()

    class Recording(identities._PointEvaluator):
        def _cached(self, family, k, r=0):
            if family in ("e", "h", "tau"):
                requested.add((family, k, r % self.n))
            return super()._cached(family, k, r)

    ev = Recording(p)
    results = list(identities._instances(ev, n, m, symbolic=False))
    assert results and all(passed for _, _, passed in results)
    assert 0 < len(calls) <= len(requested)
    pairs = [(k, r) for k in range(0, 2 * m + 1) for r in range(-n, n)]
    shifted = [(ev.e(k, r), ev.e(k, r + n), ev.h(k, r), ev.h(k, r + n)) for k, r in pairs]
    assert len(calls) <= len(requested)
    monkeypatch.undo()
    for (k, r), (e, e_shift, h, h_shift) in zip(pairs, shifted):
        assert e == e_shift == eval_loop_e(k, r, full, p)
        assert h == h_shift == eval_loop_h(k, r, full, p)
