"""Crystal elements, R-matrix, coenergy, and the two energy formulas.

Worked numbers come from the n = 4 running example: b1 = 13, b2 = 1224
gives ok_1 = 1, ok_2 = 2 and R(b1, b2) = (1123, 24); the pair (2234, 12334)
has coenergy 3; and the triple (13, 1224, 123) has intrinsic energy
1 + 2 + 2 = 5.
"""

import itertools
import random

import pytest

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
from krenergy.tableaux import Shape, enumerate_ssyt, staircase
from krenergy.verify import elements_up_to, iter_tensors, random_tensor


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


def test_r_matrix_matches_oracle_n3_example():
    b1 = row(3, "112")
    b2 = row(3, "23")
    assert r_matrix(b1, b2) == r_matrix_oracle(b1, b2)


def test_r_matrix_matches_oracle_exhaustive_n2():
    elements = elements_up_to(2, 3)
    for b1, b2 in itertools.product(elements, repeat=2):
        assert r_matrix(b1, b2) == r_matrix_oracle(b1, b2)


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
