"""Acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality; symbolic polynomial
equality); there are no tolerances anywhere.  Each test prints a one-line
summary with its check count and wall time (visible under ``pytest -s``).
The time targets from the work plan are generous; typical wall times are
printed for reference, not asserted.
"""

import itertools
import random
import time
from functools import cache

from krenergy.birational import (
    RationalPoint,
    random_point,
    rational_energy_global,
    rational_energy_product,
    s_action,
)
from krenergy.crystal import (
    CrystalElement,
    TensorElement,
    apply_s,
    coenergy,
    coenergy_sliding_oracle,
    counts_to_grid,
    energy_staircase,
    intrinsic_energy,
    ok,
    r_matrix,
    r_matrix_oracle,
)
from krenergy.identities import identity_suite
from krenergy.lsym import (
    ColoredPoly,
    loop_e,
    mono_factors,
    sigma,
    sigma_product_indices,
    staircase_a_indices,
    staircase_b_indices,
    staircase_loop_schur,
    trop_eval,
)
from krenergy.tableaux import count_ssyt, staircase
from krenergy.verify import elements_up_to, iter_tensors, random_tensor

from test_lsym import GOLD_A4, GOLD_B4


def report(num, label, checks, t0):
    print(f"PASS criterion {num}: {label} ({checks} checks, {time.perf_counter() - t0:.1f}s)")


def test_criterion_1_worked_examples():
    t0 = time.perf_counter()
    checks = 0

    b1 = CrystalElement.from_row(4, "13")
    b2 = CrystalElement.from_row(4, "1224")
    assert ok(1, b1, b2) == 1
    assert ok(2, b1, b2) == 2
    assert r_matrix(b1, b2) == (
        CrystalElement.from_row(4, "1123"),
        CrystalElement.from_row(4, "24"),
    )
    assert coenergy(CrystalElement.from_row(4, "2234"), CrystalElement.from_row(4, "12334")) == 3
    assert intrinsic_energy(TensorElement.from_rows(4, ["13", "1224", "123"])) == 5
    checks += 5

    # the displayed A and B at (n, m) = (3, 4), entry by entry as loop e
    # polynomials of the index functions' (degree, color) pairs
    for gold, indices in ((GOLD_A4, staircase_a_indices(4, n=3)),
                          (GOLD_B4, staircase_b_indices(4, n=3))):
        assert (len(indices), len(indices[0])) == (len(gold), len(gold[0]))
        for row, gold_row in zip(indices, gold):
            for (k, c), cell in zip(row, gold_row):
                want = (
                    loop_e(cell[0], cell[1], n=3, m=4) if cell else ColoredPoly.zero(4, 3)
                )
                assert loop_e(k, c, n=3, m=4) == want, (k, c)
                checks += 1

    # the n=2, m=3 tropical objective: the eight displayed tableaux, two of
    # which give x1^(0) x2^(1) x3^(1)
    objective = staircase_loop_schur(2, 3)
    assert sum(objective.terms.values()) == 8
    sparse = {
        tuple(((i, r), e) for i, r, e in mono_factors(mono, 2)): c
        for mono, c in objective.terms.items()
    }
    assert sparse == {
        (((1, 0), 1), ((1, 1), 1), ((2, 1), 1)): 1,
        (((1, 0), 1), ((2, 1), 2)): 1,
        (((1, 0), 1), ((2, 1), 1), ((3, 1), 1)): 2,
        (((1, 0), 1), ((1, 1), 1), ((3, 1), 1)): 1,
        (((1, 0), 1), ((3, 1), 2)): 1,
        (((2, 0), 1), ((2, 1), 1), ((3, 1), 1)): 1,
        (((2, 0), 1), ((3, 1), 2)): 1,
    }
    checks += 1

    report(1, "worked-example regression", checks, t0)


def test_criterion_2_theorem1_equivalence():
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3):
        for m in (2, 3):
            for t in iter_tensors(n, m, 3):
                assert intrinsic_energy(t) == energy_staircase(t), t
                checks += 1
    rng = random.Random(20240810)
    for _ in range(500):
        t = random_tensor(4, 4, 5, rng)
        assert intrinsic_energy(t) == energy_staircase(t), t
        checks += 1
    report(2, "intrinsic == tropical staircase energy", checks, t0)


def test_criterion_3_formula_vs_oracles():
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3):
        elements = elements_up_to(n, 3)
        for b1, b2 in itertools.product(elements, repeat=2):
            assert r_matrix(b1, b2) == r_matrix_oracle(b1, b2), (b1, b2)
            assert coenergy(b1, b2) == coenergy_sliding_oracle(b1, b2), (b1, b2)
            checks += 2
    report(3, "R-matrix and coenergy match their tableau oracles", checks, t0)


def _birational_points(total=200):
    cells = [(n, m) for n in (2, 3, 4) for m in (2, 3, 4)]
    rng = random.Random("acceptance-birational")
    points = []
    for n, m in itertools.islice(itertools.cycle(cells), total):
        points.append(random_point(m, n, rng))
    return points


def test_criterion_4_symmetric_group_action():
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3):
        for m in (2, 3):
            for t in iter_tensors(n, m, 3):
                for j in range(1, m):
                    assert apply_s(apply_s(t, j), j) == t
                    checks += 1
                for j in range(1, m - 1):
                    lhs = apply_s(apply_s(apply_s(t, j), j + 1), j)
                    rhs = apply_s(apply_s(apply_s(t, j + 1), j), j + 1)
                    assert lhs == rhs
                    checks += 1
    for p in _birational_points(200):
        for j in range(1, p.m):
            assert s_action(j, s_action(j, p)) == p
            checks += 1
        for j in range(1, p.m - 1):
            lhs = s_action(j, s_action(j + 1, s_action(j, p)))
            rhs = s_action(j + 1, s_action(j, s_action(j + 1, p)))
            assert lhs == rhs
            checks += 1
    report(4, "involution and braid relations, combinatorial and birational", checks, t0)


def test_criterion_5_energy_r_invariance():
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3):
        for m in (2, 3):
            for t in iter_tensors(n, m, 3):
                d = intrinsic_energy(t)
                for j in range(1, m):
                    assert intrinsic_energy(apply_s(t, j)) == d
                    checks += 1
    for p in _birational_points(200):
        value = rational_energy_global(p)
        for j in range(1, p.m):
            assert rational_energy_global(s_action(j, p)) == value
            checks += 1
    report(5, "energy invariance under the R-action", checks, t0)


def test_criterion_6_identity_suite():
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3):
        for m in (1, 2, 3, 4):
            results = identity_suite(n, m, mode="symbolic")
            bad = [c for c in results if not c.passed]
            assert not bad, bad[:3]
            checks += len(results)
    results = identity_suite(4, 5, mode="randomized", seed=2024, trials=50)
    bad = [c for c in results if not c.passed]
    assert not bad, bad[:3]
    checks += len(results)
    report(6, "loop-symmetric identity suite, symbolic and randomized", checks, t0)


def test_criterion_7_energy_product_formula():
    t0 = time.perf_counter()
    checks = 0
    for n in (2, 3):
        for m in (2, 3, 4):
            rng = random.Random(f"acceptance-7:{n}:{m}")
            for _ in range(100):
                p = random_point(m, n, rng)
                assert rational_energy_product(p) == rational_energy_global(p)
                checks += 1
            ones = rational_energy_product(RationalPoint.all_ones(m, n))
            assert ones == count_ssyt(staircase(m - 1, n - 1), m)
            checks += 1
    assert rational_energy_product(RationalPoint.all_ones(3, 2)) == 8
    checks += 1
    report(7, "rational energy product == global; all-ones counts tableaux", checks, t0)


def test_criterion_8_tropical_bridge():
    t0 = time.perf_counter()
    checks = 0

    @cache
    def sigma_factors(n, m):
        return [sigma(k, c, n=n, m=m, indices=idx) for k, c, idx in sigma_product_indices(m, n=n)]

    stair = cache(staircase_loop_schur)

    def bridge(t):
        grid = counts_to_grid(t)
        d = intrinsic_energy(t)
        assert sum(trop_eval(q, grid) for q in sigma_factors(t.n, t.m)) == d, t
        assert trop_eval(stair(t.n, t.m), grid) == d, t

    for n in (2, 3):
        for m in (2, 3):
            for t in iter_tensors(n, m, 3):
                bridge(t)
                checks += 2
    rng = random.Random(20240810)
    for _ in range(500):
        bridge(random_tensor(4, 4, 5, rng))
        checks += 2
    report(8, "tropicalized sigma product and loop Schur equal the energy", checks, t0)
