"""Crystal elements, R-matrix, coenergy, and the two energy formulas.

Worked numbers come from the n = 4 running example: b1 = 13, b2 = 1224
gives ok_1 = 1, ok_2 = 2 and R(b1, b2) = (1123, 24); the pair (2234, 12334)
has coenergy 3; and the triple (13, 1224, 123) has intrinsic energy
1 + 2 + 2 = 5.
"""

import itertools
import json
import random
from functools import cache, reduce

import pytest

from krenergy import crystal, verify
from krenergy.crystal import (
    CrystalElement,
    TensorElement,
    TropicalGrid,
    apply_s,
    coenergy,
    coenergy_sliding_oracle,
    counts_to_grid,
    energy_staircase,
    grid_to_counts,
    intrinsic_energy,
    ok,
    r_matrix,
    r_matrix_oracle,
)
from krenergy.lsym import MIN_PLUS, loop_family, sigma_product_indices
from krenergy.tableaux import EnumerationGuardError, Shape, enumerate_ssyt, staircase
from krenergy.verify import VerifyConfig, elements_up_to, iter_tensors, random_tensor, run_verify


def row(n, word):
    return CrystalElement.from_row(n, word)


B1 = row(4, "13")
B2 = row(4, "1224")


# ---------------------------------------------------------------------------
# ok and the R-matrix


def test_ok_worked_values():
    assert ok(1, B1, B2) == 1
    assert ok(2, B1, B2) == 2


def test_ok_color_wraps():
    assert ok(5, B1, B2) == ok(1, B1, B2)
    assert ok(0, B1, B2) == ok(4, B1, B2)


def test_ok_empty_second_factor():
    empty = CrystalElement(4, (0, 0, 0, 0))
    # with y2 = 0 the candidates are the suffix sums of y1:
    # s=0: 0+1+0, s=1: 1+0, s=2: 0, s=3: 0  -> min 0
    assert ok(1, B1, empty) == 0


def test_ok_rejects_mismatched_alphabets():
    with pytest.raises(ValueError):
        ok(1, row(3, "12"), row(4, "12"))


def test_r_matrix_worked_example():
    c1, c2 = r_matrix(B1, B2)
    assert c1 == row(4, "1123")
    assert c2 == row(4, "24")


def test_r_matrix_capacity_swap_and_content():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        b1 = CrystalElement(n, [rng.randint(0, 4) for _ in range(n)])
        b2 = CrystalElement(n, [rng.randint(0, 4) for _ in range(n)])
        c1, c2 = r_matrix(b1, b2)
        assert c1.capacity == b2.capacity
        assert c2.capacity == b1.capacity
        for c in range(n):
            assert b1.counts[c] + b2.counts[c] == c1.counts[c] + c2.counts[c]


def test_elements_up_to_lists_each_element_once_by_capacity():
    """Capacity by capacity, each in lexicographic order of its counts:
    the order the exhaustive suites and their byte-identical reports use."""
    for n in (2, 3, 4):
        for cap in (0, 1, 3):
            want = sorted(
                (c for c in itertools.product(range(cap + 1), repeat=n) if sum(c) <= cap),
                key=lambda c: (sum(c), c),
            )
            assert [b.counts for b in elements_up_to(n, cap)] == want, (n, cap)


def test_r_matrix_identity_on_equal_factors():
    for n, cap in [(2, 3), (3, 2)]:
        for b in elements_up_to(n, cap):
            assert r_matrix(b, b) == (b, b)


def test_r_matrix_oracle_worked_example():
    assert r_matrix_oracle(B1, B2) == (row(4, "1123"), row(4, "24"))


def test_r_matrix_oracle_empty_factor():
    b = row(3, "112")
    empty = CrystalElement(3, (0, 0, 0))
    assert r_matrix_oracle(empty, b) == (b, empty)
    assert r_matrix_oracle(b, empty) == (empty, b)


def test_r_matrix_oracle_refuses_a_large_pair_before_any_rectification(monkeypatch):
    """(20,20,20) x (20,20,20) at n=3 has 1,261 candidates of 120 letters,
    work 1.8 * 10^7 over the guard; it took 10.7 s of rectifications and is
    now refused before the first.  A pair longer than the square root of
    the guard is refused before its candidates are counted."""

    def refuse(*args):
        raise AssertionError("a pair was rectified")

    monkeypatch.setattr(crystal, "rectified_pair", refuse)
    b = CrystalElement(3, (20, 20, 20))
    assert crystal._count_compositions([40, 40, 40], 60) == 1261
    with pytest.raises(EnumerationGuardError, match="guard of 10000000"):
        r_matrix_oracle(b, b)

    def uncountable(*args):
        raise AssertionError("the candidates were counted")

    monkeypatch.setattr(crystal, "_count_compositions", uncountable)
    with pytest.raises(EnumerationGuardError):
        r_matrix_oracle(CrystalElement(2, (10**12, 0)), CrystalElement(2, (0, 1)))


def test_r_matrix_oracle_guard_bounds_candidates_times_squared_letters(monkeypatch):
    """B1 x B2 has 8 candidates of 6 letters, work 288: run at a guard of
    288, refused at 287."""
    assert crystal._count_compositions([2, 2, 1, 1], 4) == 8
    monkeypatch.setattr(crystal, "ORACLE_GUARD", 8 * 6**2)
    assert r_matrix_oracle(B1, B2) == (row(4, "1123"), row(4, "24"))
    monkeypatch.setattr(crystal, "ORACLE_GUARD", 8 * 6**2 - 1)
    with pytest.raises(EnumerationGuardError):
        r_matrix_oracle(B1, B2)


def test_candidate_count_matches_the_listing():
    rng = random.Random("compositions")
    for _ in range(200):
        total = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
        size = rng.randint(0, sum(total) + 2)
        listed = sum(1 for _ in crystal._compositions(total, size))
        assert crystal._count_compositions(total, size) == listed, (total, size)


def test_r_matrix_matches_oracle_n3_example():
    b1 = row(3, "112")
    b2 = row(3, "23")
    assert r_matrix(b1, b2) == r_matrix_oracle(b1, b2)


def test_r_matrix_matches_oracle_exhaustive_n2():
    elements = elements_up_to(2, 3)
    for b1, b2 in itertools.product(elements, repeat=2):
        assert r_matrix(b1, b2) == r_matrix_oracle(b1, b2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_memoized_r_matrix_matches_the_unmemoized_and_the_oracle(n):
    """Every pair up to capacity 3, asked twice: the memo returns what the
    min-plus move and the jeu-de-taquin oracle give."""
    elements = elements_up_to(n, 3)
    for b1, b2 in itertools.product(elements, repeat=2):
        want = r_matrix.__wrapped__(b1, b2)
        assert r_matrix(b1, b2) == want == r_matrix(b1, b2) == r_matrix_oracle(b1, b2)


def test_r_matrix_memo_is_bounded_and_hit_by_braid_checks():
    info = r_matrix.cache_info()
    assert info.maxsize == crystal.R_MATRIX_MEMO  # bounded: an int, not None
    r_matrix.cache_clear()
    config = VerifyConfig(
        suites=("braid",), n_range=(2, 3), m_range=(2, 3), capacity_cap=1, mode="exhaustive"
    )
    assert run_verify(config).total_failures == 0
    info = r_matrix.cache_info()
    assert 0 < info.currsize <= info.maxsize
    assert info.hits > info.misses


def test_r_matrix_memo_keeps_no_failed_call(monkeypatch):
    """A pair whose move raises is not memoized: once the move is mended,
    the same pair gets its R-matrix image."""
    r_matrix.cache_clear()
    monkeypatch.setattr(crystal, "move", lambda sf, x0, x1: ((-1,) * len(x0), x1))
    with pytest.raises(RuntimeError, match="negative count"):
        r_matrix(B1, B2)
    assert r_matrix.cache_info().currsize == 0
    monkeypatch.undo()
    assert r_matrix(B1, B2) == (row(4, "1123"), row(4, "24"))
    assert r_matrix.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# apply_s


def test_apply_s_worked_tensor():
    t = TensorElement.from_rows(4, ["13", "1224", "123"])
    out = apply_s(t, 1)
    assert out == TensorElement.from_rows(4, ["1123", "24", "123"])


def test_apply_s_involution_exhaustive_small():
    for t in iter_tensors(2, 2, 2):
        assert apply_s(apply_s(t, 1), 1) == t


def test_apply_s_braid_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([2, 3, 4])
        t = random_tensor(n, 3, 4, rng)
        lhs = apply_s(apply_s(apply_s(t, 1), 2), 1)
        rhs = apply_s(apply_s(apply_s(t, 2), 1), 2)
        assert lhs == rhs


def test_apply_s_index_range():
    t = TensorElement.from_rows(2, ["1", "2"])
    with pytest.raises(ValueError):
        apply_s(t, 2)
    with pytest.raises(ValueError):
        apply_s(t, 0)


# ---------------------------------------------------------------------------
# coenergy


def test_coenergy_worked_values():
    assert coenergy(row(4, "2234"), row(4, "12334")) == 3
    assert coenergy(B1, B2) == 1


def test_coenergy_single_letters():
    assert coenergy(row(2, "1"), row(2, "1")) == 0


def test_sliding_oracle_worked_value():
    assert coenergy_sliding_oracle(row(4, "2234"), row(4, "12334")) == 3


def test_sliding_oracle_empty_top():
    empty = CrystalElement(3, (0, 0, 0))
    assert coenergy_sliding_oracle(row(3, "123"), empty) == 0


def test_coenergy_matches_slide_exhaustive_n3():
    elements = elements_up_to(3, 3)
    for b1, b2 in itertools.product(elements, repeat=2):
        assert coenergy(b1, b2) == coenergy_sliding_oracle(b1, b2)


def test_coenergy_invariant_under_r():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.choice([2, 3, 4])
        b1 = CrystalElement(n, [rng.randint(0, 4) for _ in range(n)])
        b2 = CrystalElement(n, [rng.randint(0, 4) for _ in range(n)])
        assert coenergy(*r_matrix(b1, b2)) == coenergy(b1, b2)


# ---------------------------------------------------------------------------
# intrinsic energy


def test_intrinsic_energy_worked_example():
    t = TensorElement.from_rows(4, ["13", "1224", "123"])
    assert intrinsic_energy(t) == 5


def test_intrinsic_energy_single_factor():
    assert intrinsic_energy(TensorElement.from_rows(4, ["1234"])) == 0


def test_intrinsic_energy_single_letter_triple():
    t = TensorElement.from_rows(2, ["1", "2", "1"])
    # H(1,2) = 0, s_1 fixes the pair, H(2,1) = 1 twice over
    assert intrinsic_energy(t) == 2
    assert energy_staircase(t) == 2


def test_intrinsic_energy_invariant_under_apply_s():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.choice([2, 3])
        m = rng.choice([2, 3, 4])
        t = random_tensor(n, m, 3, rng)
        d = intrinsic_energy(t)
        for j in range(1, m):
            assert intrinsic_energy(apply_s(t, j)) == d


# ---------------------------------------------------------------------------
# grids and the staircase energy


def test_counts_to_grid_first_factor_identity():
    t = TensorElement.from_rows(3, ["123"])
    g = counts_to_grid(t)
    # for i = 1 the shift is trivial: x_1^{(r)} counts the letters = r mod 3
    assert g.value(1, 1) == 1  # one letter 1
    assert g.value(1, 2) == 1
    assert g.value(1, 0) == 1  # letter 3 has color 0 mod 3


def test_counts_to_grid_shift_example():
    t = TensorElement.from_rows(2, ["1", "12"])
    g = counts_to_grid(t)
    assert g.value(2, 1) == 1  # count of 2s in factor 2
    assert g.value(2, 0) == 1  # count of 1s in factor 2


def test_grid_round_trip():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        m = rng.choice([1, 2, 3])
        t = random_tensor(n, m, 5, rng)
        assert grid_to_counts(counts_to_grid(t)) == t


def test_energy_staircase_zero_counts():
    t = TensorElement.from_counts(3, [[0, 0, 0]] * 3)
    assert energy_staircase(t) == 0


def test_energy_staircase_single_factor():
    assert energy_staircase(TensorElement.from_rows(3, ["112"])) == 0


def test_energy_staircase_worked_example():
    t = TensorElement.from_rows(4, ["13", "1224", "123"])
    assert energy_staircase(t) == 5


def _staircase_minimum_oracle(t):
    """The staircase energy as a plain minimum over enumerated tableaux."""
    n, m = t.n, t.m
    shape = Shape(()) if m == 1 else staircase(m - 1, n - 1)
    grid = counts_to_grid(t)
    return min(
        sum(grid.value(tab.entry(i, j), i - j) for (i, j) in tab.shape.cells())
        for tab in enumerate_ssyt(shape, m)
    )


def test_energy_staircase_matches_tableau_minimum_oracle():
    rng = random.Random(41)
    for n in (2, 3, 4):
        for m in (1, 2, 3, 4):
            for _ in range(3):
                t = random_tensor(n, m, 5, rng)
                assert energy_staircase(t) == _staircase_minimum_oracle(t), t


@pytest.mark.parametrize("n, m", [(4, 4), (3, 5)])
def test_energy_staircase_big_counts_take_exact_path(n, m):
    """A count above 2**40 leaves the int64 matmul for exact big-int sums."""
    rng = random.Random(n * 10 + m)
    for _ in range(3):
        t = random_tensor(n, m, 4, rng)
        counts = [list(b.counts) for b in t.factors]
        counts[rng.randrange(m)][rng.randrange(n)] = (1 << 40) + rng.randint(1, 1 << 20)
        t = TensorElement.from_counts(n, counts)
        assert energy_staircase(t) == intrinsic_energy(t)


def test_energy_equivalence_exhaustive_n2_m2():
    for t in iter_tensors(2, 2, 3):
        assert intrinsic_energy(t) == energy_staircase(t)


def min_plus_sigma_product(t, shift=0):
    """The sigma product of the rational energy, each factor
    ``loop_family("sigma", ...)`` run in ``MIN_PLUS`` on the count grid;
    ``shift`` moves every factor's color, a deliberate mutation."""
    values = counts_to_grid(t).values
    factors = sigma_product_indices(t.m, n=t.n)
    return reduce(
        MIN_PLUS.mul,
        (loop_family("sigma", k, c + shift, idx, MIN_PLUS, values) for k, c, idx in factors),
        MIN_PLUS.one,
    )


def test_min_plus_sigma_product_with_a_shifted_color_is_caught():
    """The min-plus sigma product with every color shifted by one is not
    the energy on seeded (3, 3) tensors, so the comparison of the unshifted
    product with ``intrinsic_energy`` in test_properties can fail."""
    rng = random.Random("sigma-shift")
    tensors = [random_tensor(3, 3, 5, rng) for _ in range(50)]
    assert all(min_plus_sigma_product(t) == intrinsic_energy(t) for t in tensors)
    caught = sum(min_plus_sigma_product(t, shift=1) != intrinsic_energy(t) for t in tensors)
    assert caught >= len(tensors) // 2, caught


# ---------------------------------------------------------------------------
# construction and serialization


def test_crystal_element_validation():
    with pytest.raises(ValueError):
        CrystalElement(1, (1,))
    with pytest.raises(ValueError):
        CrystalElement(3, (1, 2))
    with pytest.raises(ValueError):
        CrystalElement(3, (1, -1, 0))
    with pytest.raises(ValueError):
        CrystalElement.from_letters(3, [4])


STRICT_BAD = pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "string"])


@STRICT_BAD
def test_crystal_element_takes_only_ints(bad):
    """A count that is not an int is refused, not truncated or parsed."""
    with pytest.raises(TypeError):
        CrystalElement(3, (0, bad, 2))


@STRICT_BAD
def test_tropical_grid_takes_only_ints(bad):
    with pytest.raises(TypeError):
        TropicalGrid(1, 2, [[3, bad]])


def test_row_word_parse_requires_small_alphabet():
    with pytest.raises(ValueError):
        CrystalElement.from_row(10, "1")


def test_tensor_json_round_trip():
    t = TensorElement.from_rows(4, ["13", "1224", "123"])
    assert TensorElement.from_jsonable(t.to_jsonable()) == t
    again = TensorElement.from_jsonable({"n": 4, "rows": ["13", "1224", "123"]})
    assert again == t


def test_tensor_json_rejects_garbage():
    with pytest.raises(ValueError):
        TensorElement.from_jsonable({"n": 3})
    with pytest.raises(ValueError):
        TensorElement.from_jsonable([1, 2, 3])


def test_tropical_grid_validation():
    with pytest.raises(ValueError):
        TropicalGrid(2, 2, [[1, 2]])
    g = TropicalGrid(1, 2, [[3, 5]])
    assert g.value(1, -1) == g.value(1, 1) == 5


# ---------------------------------------------------------------------------
# the per-run memo of run_verify

MEMO_CONFIG = VerifyConfig(
    suites=("energy-equivalence", "braid"), n_range=(2, 3), m_range=(1, 4), capacity_cap=1,
    trials=4, mode="both",
)


def test_run_verify_computes_each_energy_once_per_run(monkeypatch):
    """In one run the energy kernel sees each distinct tensor once: the
    exhaustive cells, the randomized tensors of mode both, and the
    sampled (3, 4) cell, whose R-images lie outside its stream.  A second
    run keeps nothing of the first and makes as many calls."""
    monkeypatch.setattr(verify, "EXHAUSTIVE_CELL_LIMIT", 100)  # (3, 4) has 256
    seen = []
    monkeypatch.setattr(
        verify, "intrinsic_energy", lambda t: seen.append(t) or intrinsic_energy(t)
    )
    first = run_verify(MEMO_CONFIG)
    calls = len(seen)
    assert calls == len(set(seen)) > 0
    seen.clear()
    second = run_verify(MEMO_CONFIG)
    assert len(seen) == calls and second.to_json() == first.to_json()
    assert first.total_failures == 0


def test_braid_suite_catches_a_shifted_r_matrix_through_the_memo(monkeypatch):
    """An R-matrix whose images are shifted by one colour fails the braid
    suite: with the per-run memo, each tensor has the problems it has
    without it, and they name the involution, energy-invariance and braid
    checks."""
    real = crystal.r_matrix

    def shifted(b1, b2):
        c1, c2 = real(b1, b2)
        return (CrystalElement(b1.n, c1.counts[1:] + c1.counts[:1]),
                CrystalElement(b1.n, c2.counts[1:] + c2.counts[:1]))

    monkeypatch.setattr(crystal, "r_matrix", shifted)
    config = VerifyConfig(suites=("braid",), n_range=(3, 3), m_range=(3, 3), capacity_cap=2,
                          mode="exhaustive")
    result = run_verify(config).suites["braid"]
    tables = verify.RunTables(cache(intrinsic_energy), cache(apply_s))
    memoized = [verify.check_braid_tensor(t, *tables) for t in iter_tensors(3, 3, 2)]
    unmemoized = [verify.check_braid_tensor(t, intrinsic_energy, apply_s)
                  for t in iter_tensors(3, 3, 2)]
    assert memoized == unmemoized
    assert result.failures == sum(map(bool, unmemoized)) > 0
    kinds = {json.loads(w)["kind"] for problems in unmemoized for w in problems}
    assert kinds == {"involution", "energy-r-invariance", "braid"}, kinds
