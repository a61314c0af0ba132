"""Crystal elements, R-matrix, coenergy, and the two energy formulas.

Worked numbers come from the n = 4 running example: b1 = 13, b2 = 1224
gives ok_1 = 1, ok_2 = 2 and R(b1, b2) = (1123, 24); the pair (2234, 12334)
has coenergy 3; and the triple (13, 1224, 123) has intrinsic energy
1 + 2 + 2 = 5.
"""

import gc
import itertools
import json
import random
from functools import cache, reduce

import numpy as np
import pytest

from krenergy import birational, crystal, lsym, verify
from krenergy.birational import r_action_identities
from krenergy.crystal import (
    CrystalElement,
    TensorElement,
    TropicalGrid,
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
from krenergy.lsym import (
    MIN_PLUS,
    MIN_PLUS_ARRAY,
    ColoredPoly,
    loop_family,
    sigma,
    sigma_product_indices,
    staircase_form,
    trop_eval,
)
from krenergy.tableaux import EnumerationGuardError, Shape, enumerate_ssyt, staircase
from krenergy.verify import (
    CAPACITY_CAP_MAX,
    VerifyConfig,
    elements_up_to,
    iter_tensors,
    random_tensor,
    run_verify,
)

from test_birational import shift_sigma_colour


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
def test_r_matrix_matches_the_oracle_up_to_capacity_3(n):
    """Every pair up to capacity 3: the min-plus move gives what the
    jeu-de-taquin oracle gives, with and without one memo of
    ``rectified_pair`` shared by all the pairs, as the rmatrix suite runs
    it."""
    elements = elements_up_to(n, 3)
    rectified = cache(crystal.rectified_pair)
    for b1, b2 in itertools.product(elements, repeat=2):
        assert r_matrix(b1, b2) == r_matrix_oracle(b1, b2) == r_matrix_oracle(b1, b2, rectified)


def test_r_matrix_raises_on_a_negative_count(monkeypatch):
    """A move that gives a negative count is a bug: ``r_matrix`` raises, and
    so does the braid suite, whose chunks run the same move."""
    real = birational.move

    def negative(sr, a, b):
        x, y = real(sr, a, b)
        return [sr.mul(v, -1_000) for v in x], y

    monkeypatch.setattr(crystal, "move", negative)
    with pytest.raises(RuntimeError, match="negative count"):
        r_matrix(B1, B2)
    monkeypatch.setattr(birational, "move", negative)
    config = VerifyConfig(suites=("braid",), n_range=(2, 2), m_range=(2, 2), capacity_cap=1)
    with pytest.raises(RuntimeError, match="negative count at s_1 of TensorElement"):
        run_verify(config)
    monkeypatch.undo()
    assert r_matrix(B1, B2) == (row(4, "1123"), row(4, "24"))


def test_rmatrix_suite_rectifies_each_pair_once_per_run(monkeypatch):
    """One rmatrix run rectifies each pair at most once, where the oracle
    alone rectified 400 times for 136 distinct pairs; a second run keeps
    nothing of the first and rectifies the same pairs again."""
    seen = []
    real = crystal.rectified_pair
    monkeypatch.setattr(crystal, "rectified_pair", lambda *pair: seen.append(pair) or real(*pair))
    config = VerifyConfig(suites=("rmatrix",), n_range=(2, 3), m_range=(1, 3), capacity_cap=2,
                          mode="exhaustive")
    first = run_verify(config)
    calls = list(seen)
    assert len(calls) == len(set(calls)) == 136
    seen.clear()
    assert run_verify(config).to_json() == first.to_json() and seen == calls
    assert first.total_failures == 0


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
        # the inverse change of variables: factor i's count of letter c + 1
        # is x_i^(c + i)
        g = counts_to_grid(t)
        counts = [[g.value(i, c + i) for c in range(n)] for i in range(1, m + 1)]
        assert TensorElement.from_counts(n, counts) == t


def test_energy_staircase_zero_counts():
    t = TensorElement.from_counts(3, [[0, 0, 0]] * 3)
    assert energy_staircase(t) == 0


def test_energy_staircase_single_factor():
    assert energy_staircase(TensorElement.from_rows(3, ["112"])) == 0


def test_energy_staircase_worked_example():
    t = TensorElement.from_rows(4, ["13", "1224", "123"])
    assert energy_staircase(t) == 5


def test_energy_staircase_keeps_no_staircase_polynomial():
    """The energy caches the staircase's exponent matrix alone: after a
    (3, 5) energy no polynomial of the staircase's 12,666 terms is left."""
    t = TensorElement.from_counts(3, [[1, 0, 2], [0, 1, 1], [2, 2, 0], [1, 1, 1], [0, 0, 3]])
    assert energy_staircase(t) == intrinsic_energy(t)
    assert staircase_form(3, 5).matrix.shape == (12_666, 15)
    gc.collect()
    polys = [p for p in gc.get_objects() if isinstance(p, ColoredPoly)]
    assert not [p for p in polys if len(p.terms) == 12_666]


@pytest.mark.parametrize("c, want", [(1501199875790165, 9007199254740987),
                                     (1501199875790166, (1 << 53) + 1)])
def test_energy_staircase_at_the_float64_bound(c, want):
    """The (3, 3) staircase has degree 6, so a largest count of c keeps
    6 * c under 2^53 (the float64 product) or not (the exact path); on the
    second tensor float64 would give 2^53."""
    t = TensorElement.from_counts(3, [[c - 1, c, c], [c, c, c], [c - 1, c, 0]])
    assert energy_staircase(t) == intrinsic_energy(t) == want


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
# the chunked crystal suites of run_verify

CHUNK_CONFIG = VerifyConfig(
    suites=("energy-equivalence", "braid"), n_range=(2, 3), m_range=(1, 4), capacity_cap=1,
    trials=4, mode="both",
)


def _witness(kind, t, **data):
    return json.dumps({"kind": kind, "tensor": t.to_jsonable(), **data}, sort_keys=True,
                      separators=(",", ":"))


def braid_reference(t):
    """The braid suite's witness of one tensor: its first failing identity
    of ``r_action_identities`` in ``MIN_PLUS`` on its count grid alone, or
    None."""
    for identity, params, passed in r_action_identities(MIN_PLUS, counts_to_grid(t).values):
        if not passed:
            return _witness(identity, t, **params)
    return None


@cache
def sigma_factors(n, m):
    """The sigma factors of the energy product, expanded as polynomials."""
    return [sigma(k, c, n=n, m=m, indices=idx) for k, c, idx in sigma_product_indices(m, n=n)]


def energy_reference(t):
    """The energy-equivalence suite's witness of one tensor, its first
    failing check or None, from ``intrinsic_energy``, ``energy_staircase``
    and the sigma product's polynomials tropicalized one at a time."""
    d, stair = intrinsic_energy(t), energy_staircase(t)
    sigmas = sum(trop_eval(p, counts_to_grid(t)) for p in sigma_factors(t.n, t.m))
    if stair != d:
        return _witness("energy-equivalence", t, intrinsic=d, staircase=stair)
    if sigmas != d:
        return _witness("trop-sigma-product", t, got=sigmas, want=d)
    return None


def shift_move(monkeypatch):
    """Shift by one colour both columns that ``move`` gives, in every module
    that runs it: the R-matrix images then have their counts rotated."""
    real = birational.move

    def shifted(sr, a, b):
        x, y = real(sr, a, b)
        return x[1:] + x[:1], y[1:] + y[:1]

    monkeypatch.setattr(birational, "move", shifted)
    monkeypatch.setattr(crystal, "move", shifted)


def raise_energy(monkeypatch):
    """An ``energy_walk`` off by one, in every module that runs it."""
    real = birational.energy_walk

    def off_by_one(sr, columns):
        return sr.mul(real(sr, columns), 1)

    monkeypatch.setattr(crystal, "energy_walk", off_by_one)
    monkeypatch.setattr(verify, "energy_walk", off_by_one)


def oracle_chunks():
    """The exhaustive (3, 3) cell at capacity cap 2 and a sampled (3, 4)
    cell at cap 3, each as one chunk."""
    rng = random.Random("chunk-oracle")
    return [list(iter_tensors(3, 3, 2)), [random_tensor(3, 4, 3, rng) for _ in range(80)]]


MUTATIONS = pytest.mark.parametrize(
    "mutate", [None, shift_move, shift_sigma_colour], ids=["correct", "shifted-move", "shifted-sigma"]
)


@MUTATIONS
def test_batched_braid_problems_match_the_per_tensor_reference(mutate, monkeypatch):
    if mutate:
        mutate(monkeypatch)
    for tensors in oracle_chunks():
        want = [braid_reference(t) for t in tensors]
        assert verify.check_r_action_moves(tensors) == want
        assert any(want) == (mutate is not None)


@pytest.mark.parametrize("mutate", [None, raise_energy], ids=["correct", "energy-off-by-one"])
def test_batched_energy_problems_match_the_per_tensor_reference(mutate, monkeypatch):
    if mutate:
        mutate(monkeypatch)
    for tensors in oracle_chunks():
        want = [energy_reference(t) for t in tensors]
        assert verify.check_energy_chunk(tensors) == want
        assert all(want) == (mutate is not None) and any(want) == all(want)


@pytest.mark.parametrize("mutate", [None, shift_sigma_colour], ids=["correct", "shifted-sigma"])
def test_sampled_6x6_chunk_gives_each_tensors_verdicts_up_to_the_largest_cap(mutate, monkeypatch):
    """On a sampled (6, 6) chunk with capacities up to ``CAPACITY_CAP_MAX``,
    and a tensor of six factors of that capacity, the float64 sigmas of
    ``MIN_PLUS_ARRAY`` stay exact: every verdict of ``r_action_identities``
    on the chunk equals the tensor's own ``MIN_PLUS`` verdict, as written
    and with the sigma colour shifted."""
    rng = random.Random("6x6-chunk")
    tensors = [random_tensor(6, 6, CAPACITY_CAP_MAX, rng) for _ in range(11)]
    tensors.append(TensorElement.from_counts(
        6, [[CAPACITY_CAP_MAX * (c == i) for c in range(6)] for i in range(6)]))
    if mutate:
        mutate(monkeypatch)
    columns = verify._chunk_grids(tensors)[1]
    chunk = [np.broadcast_to(passed, len(tensors)).tolist()
             for *_, passed in r_action_identities(MIN_PLUS_ARRAY, columns)]
    alone = [[passed for *_, passed in r_action_identities(MIN_PLUS, counts_to_grid(t).values)]
             for t in tensors]
    assert [list(v) for v in zip(*chunk)] == alone
    assert [all(v) for v in alone] == [mutate is None] * len(tensors)


def test_energy_chunk_witnesses_carry_int_sigmas(monkeypatch):
    """The array sigmas are float64, but a failing energy check reports
    its sigma product as an int, the per-tensor ``MIN_PLUS`` product's."""
    real = lsym.sigma_product_indices
    monkeypatch.setattr(lsym, "sigma_product_indices",
                        lambda m, *, n, r=0: real(m, n=n, r=r + 1))
    tensors = oracle_chunks()[0]
    witnesses = [json.loads(w) for w in verify.check_energy_chunk(tensors) if w]
    assert len(witnesses) > len(tensors) // 2
    for w in witnesses:
        t = TensorElement.from_jsonable(w["tensor"])
        assert type(w["got"]) is int and w["got"] == min_plus_sigma_product(t, shift=1)


def test_braid_suite_catches_a_shifted_move(monkeypatch):
    """A move whose images are shifted by one colour fails the braid suite
    on the tensors where the per-tensor reference fails, each witnessed by
    its first failing identity."""
    shift_move(monkeypatch)
    config = VerifyConfig(suites=("braid",), n_range=(3, 3), m_range=(3, 3), capacity_cap=2,
                          mode="exhaustive")
    result = run_verify(config).suites["braid"]
    want = [braid_reference(t) for t in iter_tensors(3, 3, 2)]
    assert result.failures == sum(map(bool, want)) > 0
    assert result.witnesses == [w for w in want if w][:32]
    assert {json.loads(w)["kind"] for w in want if w} == {"involution"}


def test_braid_suite_catches_a_shifted_sigma_colour(monkeypatch):
    """The braid suite checks the energy product and the transported-kappa
    identities of every tensor: the exhaustive (3, 3) cell at cap 2 passes
    all 1,000, and most fail with the sigma colour shifted."""
    config = VerifyConfig(suites=("braid",), n_range=(3, 3), m_range=(3, 3), capacity_cap=2,
                          mode="exhaustive")
    result = run_verify(config).suites["braid"]
    assert (result.checks, result.failures) == (1000, 0)
    shift_sigma_colour(monkeypatch)
    result = run_verify(config).suites["braid"]
    assert result.checks == 1000 and result.failures >= 900, result.failures


def test_energy_suite_catches_an_energy_walk_off_by_one(monkeypatch):
    raise_energy(monkeypatch)
    config = VerifyConfig(suites=("energy-equivalence",), n_range=(2, 3), m_range=(1, 3),
                          capacity_cap=1, mode="exhaustive")
    result = run_verify(config).suites["energy-equivalence"]
    assert result.failures == result.checks > 0
    assert {json.loads(w)["kind"] for w in result.witnesses} == {"energy-equivalence"}


@MUTATIONS
def test_chunk_boundaries_leave_the_report_unchanged(mutate, monkeypatch):
    """Chunks of 7 tensors, which split every cell, the mixed streams of
    mode both and the sampled (3, 4) cell, give the report of the default
    chunks, failures and witnesses included."""
    if mutate:
        mutate(monkeypatch)
    monkeypatch.setattr(verify, "EXHAUSTIVE_CELL_LIMIT", 100)  # (3, 4) has 256
    default = run_verify(CHUNK_CONFIG)
    monkeypatch.setattr(verify, "CHUNK_TENSORS", 7)
    assert run_verify(CHUNK_CONFIG).to_json() == default.to_json()
    assert (default.total_failures > 0) == (mutate is not None)
