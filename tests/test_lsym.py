"""Colored polynomial algebra and the loop symmetric function families.

Independent oracles used here: a brute-force enumeration of the loop
families (bounded multisets of indices, each its own monomial) for the
ring-generic kernel in both of its rings, a brute-force classical e/h
enumerator for the color-collapse checks, a Leibniz-formula determinant
for PolyMatrix, and hand-expanded small cases frozen as literals.
"""

import gc
import itertools
import math
import random

import pytest

from krenergy.birational import eval_loop_e, eval_loop_h, eval_sigma, eval_tau, random_point
from krenergy.crystal import TropicalGrid
from krenergy.lsym import (
    ColoredPoly,
    PolyMatrix,
    _mono_from_dict,
    build_A,
    build_B,
    loop_e,
    loop_h,
    loop_schur_jt,
    loop_schur_tableaux,
    sigma,
    sigma_product_indices,
    staircase_matrix_size,
    tau,
    tau_vector,
    trop_eval,
)
from krenergy.tableaux import Shape, SkewShape, Ssyt, staircase


def var(i, r, m, n):
    return ColoredPoly.variable(i, r, m=m, n=n)


def ones(p):
    return p.eval_rational(lambda i, r: 1)


# ---------------------------------------------------------------------------
# polynomial ring basics


def test_poly_equality_and_zero_cleanup():
    m, n = 2, 2
    p = var(1, 0, m, n) + var(2, 1, m, n)
    q = var(2, 1, m, n) + var(1, 0, m, n)
    assert p == q
    assert (p - q).is_zero
    assert (p - p) == ColoredPoly.zero(m, n)


def test_poly_arithmetic_matches_direct_expansion():
    m, n = 3, 3
    rng = random.Random(2)

    def rand_poly():
        p = ColoredPoly.zero(m, n)
        for _ in range(rng.randint(1, 4)):
            mono = ColoredPoly.one(m, n)
            for _ in range(rng.randint(0, 3)):
                mono = mono * var(rng.randint(1, m), rng.randint(0, n - 1), m, n)
            p = p + rng.randint(-3, 3) * mono
        return p

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def test_poly_ambient_mismatch():
    with pytest.raises(ValueError):
        var(1, 0, 2, 2) + var(1, 0, 2, 3)


def test_poly_rejects_out_of_range_variables():
    with pytest.raises(ValueError):
        ColoredPoly(2, 2, {(((3, 0), 1),): 1})
    with pytest.raises(ValueError):
        ColoredPoly(2, 2, {(((1, 2), 1),): 1})


def test_poly_json_round_trip():
    m, n = 3, 2
    p = 5 * var(1, 0, m, n) * var(1, 0, m, n) - 2 * var(3, 1, m, n) + ColoredPoly.one(m, n)
    data = p.to_jsonable()
    assert ColoredPoly.from_jsonable(data) == p
    assert all(isinstance(t["coef"], str) for t in data["terms"])


# ---------------------------------------------------------------------------
# loop e / h


def test_loop_e_two_of_two():
    m, n = 2, 3
    assert loop_e(2, 0, n=n, m=m) == var(1, 0, m, n) * var(2, 1, m, n)


def test_loop_e_vanishes_past_range():
    assert loop_e(3, 0, n=2, m=2).is_zero
    assert loop_e(-1, 0, n=2, m=2).is_zero
    assert loop_e(0, 0, n=2, m=2) == ColoredPoly.one(2, 2)


def test_loop_e_linear():
    m, n = 3, 2
    want = var(1, 1, m, n) + var(2, 1, m, n) + var(3, 1, m, n)
    assert loop_e(1, 1, n=n, m=m) == want
    assert loop_h(1, 1, n=n, m=m) == want


def test_loop_h_single_variable():
    m, n = 1, 3
    assert loop_h(2, 0, n=n, m=m) == var(1, 0, m, n) * var(1, 2, m, n)


def brute_classical_e(k, m):
    out = {}
    for combo in itertools.combinations(range(1, m + 1), k):
        key = tuple(sorted(combo))
        out[key] = out.get(key, 0) + 1
    return out


def brute_classical_h(k, m):
    out = {}
    for combo in itertools.combinations_with_replacement(range(1, m + 1), k):
        key = tuple(sorted(combo))
        out[key] = out.get(key, 0) + 1
    return out


def collapse_colors(p):
    """Forget colors: map each monomial to the sorted tuple of its variable
    indices with multiplicity."""
    out = {}
    for mono, coef in p.terms.items():
        flat = []
        for (i, r), e in mono:
            flat.extend([i] * e)
        key = tuple(sorted(flat))
        out[key] = out.get(key, 0) + coef
    return {k: v for k, v in out.items() if v}


def test_loop_e_collapses_to_classical_e():
    for n in (2, 3):
        for m in (1, 2, 3):
            for k in range(0, m + 1):
                got = collapse_colors(loop_e(k, 1, n=n, m=m))
                assert got == brute_classical_e(k, m)


def test_loop_h_collapses_to_classical_h():
    for n in (2, 3):
        for m in (1, 2, 3):
            for k in range(0, 4):
                got = collapse_colors(loop_h(k, 1, n=n, m=m))
                assert got == brute_classical_h(k, m)


# ---------------------------------------------------------------------------
# tau and sigma


def test_tau_simple_case():
    m, n = 2, 2
    assert tau(2, 0, n=n, m=m) == var(1, 0, m, n) * var(2, 1, m, n)


def test_tau_vanishes_past_bound():
    assert tau(3, 0, n=2, m=2, indices=[1, 2]).is_zero
    assert tau(5, 0, n=3, m=2).is_zero


def test_tau_zero_and_negative_k():
    assert tau(0, 2, n=3, m=2) == ColoredPoly.one(2, 3)
    assert tau(-1, 0, n=3, m=2).is_zero


def test_tau_equals_h_minus_high_multiplicities():
    # for k < n, tau and loop_h agree (no multiplicity can reach n)
    for n in (2, 3):
        for k in range(0, n):
            assert tau(k, 1, n=n, m=3) == loop_h(k, 1, n=n, m=3)


def test_sigma_linear():
    m, n = 2, 2
    assert sigma(1, 0, n=n, m=m) == var(1, 0, m, n) + var(2, 0, m, n)


def test_sigma_zero_k():
    assert sigma(0, 1, n=2, m=3) == ColoredPoly.one(3, 2)


def test_sigma_all_ones_count():
    assert ones(sigma(2, 0, n=2, m=3)) == 4


def test_sigma_single_variable_is_prefix():
    m, n = 3, 3
    got = sigma(2, 0, n=n, m=m, indices=[2])
    assert got == var(2, 0, m, n) * var(2, 2, m, n)


def test_families_are_homogeneous():
    for n in (2, 3):
        for m in (2, 3):
            for k in range(0, 2 * n):
                for p in (
                    loop_e(k, 1, n=n, m=m),
                    loop_h(k, 1, n=n, m=m),
                    tau(k, 1, n=n, m=m),
                    sigma(k, 1, n=n, m=m),
                ):
                    assert p.is_homogeneous(k) or p.is_zero


# ---------------------------------------------------------------------------
# the ring-generic kernel against the enumeration oracle


def enumerated_family(k, r, cap, step, n, m, indices):
    """Sum over weakly increasing ``i_1 <= ... <= i_k`` from ``indices``, no
    index taken more than ``cap`` times, of ``prod_t x_{i_t}^{(r + step*(t-1))}``.

    Each such multiset of indices gives its own monomial, so every
    coefficient is 1.
    """
    terms = {}
    if k >= 0:
        for combo in itertools.combinations_with_replacement(indices, k):
            if all(combo.count(i) <= cap for i in combo):
                exps = {}
                for t, i in enumerate(combo):
                    key = (i, (r + step * t) % n)
                    exps[key] = exps.get(key, 0) + 1
                terms[_mono_from_dict(exps)] = 1
    return ColoredPoly(m, n, terms)


def enumerated_sigma(k, r, n, m, indices):
    """sum_i x_f^(r) x_f^(r-1) ... x_f^(r-i+1) * tau_{k-i}^{(r-i)}(rest)."""
    first, rest = indices[0], indices[1:]
    total = ColoredPoly.zero(m, n)
    for i in range(k + 1):
        prefix = ColoredPoly.one(m, n)
        for t in range(i):
            prefix = prefix * var(first, r - t, m, n)
        total = total + prefix * enumerated_family(k - i, r - i, n - 1, -1, n, m, rest)
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_families_match_enumeration_in_both_rings(n):
    """e, h, tau and sigma over polynomials and at a rational point against
    the enumeration: every m <= 4, every r mod n, degrees -1 up to one past
    the cap times the number of indices, on the full index range and on
    every range i..m that sigma and its tau use."""
    for m in range(1, 5):
        p = random_point(m, n, random.Random(f"oracle:{n}:{m}"), bound=30)
        for start in range(1, m + 2):
            idx = tuple(range(start, m + 1))
            top = (n - 1) * len(idx) + 1
            for r in range(n):
                for k in range(-1, top + 1):
                    cases = [(loop_e, eval_loop_e, 1, 1), (loop_h, eval_loop_h, max(k, 0), -1),
                             (tau, eval_tau, n - 1, -1)]
                    for poly_fn, point_fn, cap, step in cases:
                        if poly_fn is loop_e and k > len(idx) + 1:
                            continue
                        want = enumerated_family(k, r, cap, step, n, m, idx)
                        assert poly_fn(k, r, n=n, m=m, indices=idx) == want, (poly_fn, k, r, idx)
                        assert point_fn(k, r, idx, p) == want.eval_rational(p.value)
                    if idx and k >= 0:
                        want = enumerated_sigma(k, r, n, m, idx)
                        assert sigma(k, r, n=n, m=m, indices=idx) == want, (k, r, idx)
                        assert eval_sigma(k, r, idx, p) == want.eval_rational(p.value)
                    elif idx:
                        assert sigma(k, r, n=n, m=m, indices=idx).is_zero
                        assert eval_sigma(k, r, idx, p) == 0


def test_sigma_needs_indices_in_both_rings():
    p = random_point(2, 2, random.Random(0))
    with pytest.raises(ValueError):
        sigma(1, 0, n=2, m=2, indices=())
    with pytest.raises(ValueError):
        eval_sigma(1, 0, (), p)


def test_kernel_frees_its_memo_on_return():
    """The DP's table is freed when a call returns, not when the cyclic
    garbage collector next runs."""
    p = random_point(5, 4, random.Random(3))
    full = tuple(range(1, 6))
    loop_h(1, 0, n=4, m=5)  # builds the cached polynomial ring
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for k in range(60):
            eval_loop_h(k % 12, k, full, p)
            eval_tau(k % 16, k, full, p)
        for k in range(20):
            loop_h(k % 6, k, n=4, m=5)
            tau(k % 8, k, n=4, m=5)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown < 50, grown


def test_sigma_product_indices():
    assert sigma_product_indices(1, n=3) == []
    assert sigma_product_indices(3, n=3, r=1) == [(4, 1, range(1, 4)), (2, 2, range(2, 4))]


# ---------------------------------------------------------------------------
# loop Schur functions


def test_loop_schur_empty_shape():
    assert loop_schur_tableaux(Shape(()), 0, 3, n=2) == ColoredPoly.one(3, 2)


def test_loop_schur_zero_weight_of_displayed_tableau():
    """The displayed n=3 skew tableau has the stated 0-weight monomial."""
    t = Ssyt(SkewShape((6, 5, 3), (2,)), [(1, 1, 1, 3), (1, 2, 2, 3, 4), (3, 3, 4)], 4)
    exps = {}
    for (i, j) in t.shape.cells():
        key = (t.entry(i, j), (i - j) % 3)
        exps[key] = exps.get(key, 0) + 1
    # colors written 1, 2, 3 with 3 = 0 mod 3
    assert exps == {
        (1, 1): 2,
        (3, 1): 3,
        (1, 2): 1,
        (2, 2): 1,
        (3, 2): 1,
        (1, 0): 1,
        (2, 0): 1,
        (4, 0): 2,
    }
    schur = loop_schur_tableaux(t.shape, 0, 4, n=3)
    mono = tuple(sorted(exps.items()))
    assert schur.terms.get(mono, 0) >= 1


def test_loop_schur_staircase_all_ones_counts_tableaux():
    p = loop_schur_tableaux(staircase(2, 1), 0, 3, n=2)
    assert ones(p) == 8


def test_loop_schur_all_ones_matches_enumeration_count():
    from krenergy.tableaux import count_ssyt

    for n in (2, 3):
        for m in (2, 3):
            shape = staircase(m - 1, n - 1)
            p = loop_schur_tableaux(shape, 0, m, n=n)
            assert ones(p) == count_ssyt(shape, m)


def test_loop_schur_homogeneous_of_cell_count():
    for skew in (SkewShape((3, 2), (1,)), SkewShape((2, 2, 1))):
        p = loop_schur_tableaux(skew, 1, 3, n=3)
        assert p.is_homogeneous(skew.size)


def test_loop_schur_coefficients_positive_and_color_pattern():
    skew = SkewShape((3, 2), (1,))
    r = 1
    n = 3
    p = loop_schur_tableaux(skew, r, 3, n=n)
    want_colors = sorted((i - j + r) % n for (i, j) in skew.cells())
    for mono, coef in p.terms.items():
        assert coef > 0
        got = sorted(c for (_, c), e in mono for _ in range(e))
        assert got == want_colors


def test_jt_single_row_is_loop_h():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert loop_schur_jt(Shape((k,)), 0, n=n, m=3) == loop_h(k, 0, n=n, m=3)


def test_jt_single_column_is_loop_e():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert loop_schur_jt(Shape([1] * k), 0, n=n, m=3) == loop_e(k, 0, n=n, m=3)


def test_jt_matches_tableaux_on_box_shapes():
    from krenergy.identities import box_skew_shapes

    for n in (2, 3):
        for skew in box_skew_shapes(3, 3):
            got = loop_schur_jt(skew, 0, n=n, m=3)
            want = loop_schur_tableaux(skew, 0, 3, n=n)
            assert got == want, (n, skew)


# ---------------------------------------------------------------------------
# determinants and the staircase matrices


def perm_sign(perm):
    inv = sum(1 for a, b in itertools.combinations(range(len(perm)), 2) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def leibniz_det(entries, m, n):
    size = len(entries)
    total = ColoredPoly.zero(m, n)
    for perm in itertools.permutations(range(size)):
        prod = ColoredPoly.one(m, n)
        for i, j in enumerate(perm):
            prod = prod * entries[i][j]
        total = total + perm_sign(perm) * prod
    return total


def test_poly_det_matches_leibniz():
    m, n = 2, 2
    rng = random.Random(9)

    def rand_entry():
        p = ColoredPoly.zero(m, n)
        for _ in range(rng.randint(0, 2)):
            p = p + rng.randint(-2, 2) * var(rng.randint(1, m), rng.randint(0, n - 1), m, n)
        return p

    for size in (1, 2, 3):
        for _ in range(8):
            entries = [[rand_entry() for _ in range(size)] for _ in range(size)]
            mat = PolyMatrix(m, n, entries)
            assert mat.det() == leibniz_det(entries, m, n)


GOLD_A4 = [
    [(3, 0), (4, -1), None, None, None, None],
    [(2, 0), (3, -1), (4, -2), None, None, None],
    [(0, 0), (1, -1), (2, -2), (3, 0), (4, -1), None],
    [None, (0, -1), (1, -2), (2, 0), (3, -1), (4, -2)],
    [None, None, None, (0, 0), (1, -1), (2, -2)],
    [None, None, None, None, (0, -1), (1, -2)],
]

GOLD_B4 = [
    [(3, 0), (4, -1), None, None, None, None, None, None, None],
    [(2, 0), (3, -1), (4, -2), None, None, None, None, None, None],
    [(0, 0), (1, -1), (2, -2), (3, 0), (4, -1), None, None, None, None],
    [None, (0, -1), (1, -2), (2, 0), (3, -1), (4, -2), None, None, None],
    [None, None, None, (0, 0), (1, -1), (2, -2), (3, 0), (4, -1), None],
    [None, None, None, None, (0, -1), (1, -2), (2, 0), (3, -1), (4, -2)],
    [None, None, None, None, None, None, (0, 0), (1, -1), (2, -2)],
    [None, None, None, None, None, None, None, (0, -1), (1, -2)],
]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_build_a4_matches_display(r):
    mat = build_A(4, n=3, r=r)
    assert (mat.nrows, mat.ncols) == (6, 6)
    for k in range(1, 7):
        for j in range(1, 7):
            cell = GOLD_A4[k - 1][j - 1]
            want = (
                loop_e(cell[0], r + cell[1], n=3, m=4)
                if cell
                else ColoredPoly.zero(4, 3)
            )
            assert mat.entry(k, j) == want, (k, j)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_build_b4_matches_display(r):
    mat = build_B(4, n=3, r=r)
    assert (mat.nrows, mat.ncols) == (8, 9)
    for k in range(1, 9):
        for j in range(1, 10):
            cell = GOLD_B4[k - 1][j - 1]
            want = (
                loop_e(cell[0], r + cell[1], n=3, m=4)
                if cell
                else ColoredPoly.zero(4, 3)
            )
            assert mat.entry(k, j) == want, (k, j)


def test_matrix_sizes():
    assert staircase_matrix_size(4, 3) == (2, 6)
    assert staircase_matrix_size(2, 2) == (1, 2)
    a, size = staircase_matrix_size(5, 4)
    assert (a, size) == (3, 12)


def test_column_translation_property():
    for n, m in [(2, 3), (3, 2), (3, 4)]:
        for mat in (build_A(m, n=n, r=0), build_B(m, n=n, r=0)):
            for j in range(n + 1, mat.ncols + 1):
                for k in range(1, mat.nrows + 1):
                    shifted = (
                        mat.entry(k - (n - 1), j - n)
                        if k - (n - 1) >= 1
                        else ColoredPoly.zero(m, n)
                    )
                    assert mat.entry(k, j) == shifted


def test_tau_vector_shape_and_signs():
    n, m = 3, 4
    vec = tau_vector(m, n=n, r=0)
    a, _ = staircase_matrix_size(m, n)
    assert len(vec) == n * (a + 1)
    assert vec[0] == tau((n - 1) * m, -1, n=n, m=m)
    assert vec[1] == -tau((n - 1) * m - 1, -2, n=n, m=m)
    # here the subscripts run 8..0, so the last component is +tau_0 = 1
    assert vec[-1] == ColoredPoly.one(m, n)
    # for (n, m) = (3, 3) the vector overshoots into negative subscripts
    vec33 = tau_vector(3, n=3, r=0)
    assert len(vec33) == 9
    assert vec33[-1].is_zero and vec33[-2].is_zero
    assert not vec33[-3].is_zero


# ---------------------------------------------------------------------------
# tropical evaluation


def test_trop_eval_min_of_linear_terms():
    m, n = 2, 2
    p = var(1, 0, m, n) + var(2, 0, m, n)
    g = TropicalGrid(2, 2, [[3, 0], [5, 0]])
    assert trop_eval(p, g) == 3


def test_trop_eval_constant_is_zero():
    g = TropicalGrid(2, 2, [[7, 7], [7, 7]])
    assert trop_eval(ColoredPoly.one(2, 2), g) == 0


def test_trop_eval_zero_poly_is_infinite():
    g = TropicalGrid(1, 2, [[1, 1]])
    assert trop_eval(ColoredPoly.zero(1, 2), g) == math.inf


def test_trop_eval_rejects_negative_coefficients():
    m, n = 1, 2
    p = var(1, 0, m, n) - var(1, 1, m, n)
    with pytest.raises(ValueError):
        trop_eval(p, TropicalGrid(1, 2, [[1, 2]]))
    # a large polynomial is checked the same way, as its matrix is built
    big = loop_schur_tableaux(staircase(3, 2), 0, 4, n=3) - var(1, 1, 4, 3)
    with pytest.raises(ValueError):
        trop_eval(big, TropicalGrid(4, 3, [[1, 2, 3]] * 4))


def test_trop_eval_rejects_mismatched_grid():
    with pytest.raises(ValueError):
        trop_eval(ColoredPoly.one(2, 2), TropicalGrid(1, 2, [[1, 1]]))


def test_trop_eval_is_semiring_map():
    rng = random.Random(17)
    m, n = 2, 3

    def rand_positive_poly():
        p = ColoredPoly.zero(m, n)
        for _ in range(rng.randint(1, 5)):
            mono = ColoredPoly.one(m, n)
            for _ in range(rng.randint(0, 3)):
                mono = mono * var(rng.randint(1, m), rng.randint(0, n - 1), m, n)
            p = p + rng.randint(1, 4) * mono
        return p

    for _ in range(40):
        p, q = rand_positive_poly(), rand_positive_poly()
        g = TropicalGrid(m, n, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        assert trop_eval(p * q, g) == trop_eval(p, g) + trop_eval(q, g)
        assert trop_eval(p + q, g) == min(trop_eval(p, g), trop_eval(q, g))


def test_trop_eval_is_exact_past_int64():
    """A degree of 2^23 or more, or a grid value of 2^40 or more, is
    multiplied in Python ints; int64 would wrap around on either."""
    p = var(1, 1, 1, 2) + ColoredPoly(1, 2, {(((1, 0), 1 << 30),): 1})
    assert trop_eval(p, TropicalGrid(1, 2, [[-(1 << 39), 5]])) == -(1 << 69)
    q = var(1, 0, 1, 2) + 2 * var(1, 1, 1, 2)
    assert trop_eval(q, TropicalGrid(1, 2, [[1 << 62, 1 << 61]])) == 1 << 61
    assert trop_eval(q, TropicalGrid(1, 2, [[1 << 62, 3 << 61]])) == 1 << 62


def test_trop_eval_matrix_path_matches_scalar_path():
    # the cached matrix product against a direct pure-Python minimum over
    # the same terms
    n, m = 3, 4
    p = loop_schur_tableaux(staircase(3, 2), 0, 4, n=n)
    rng = random.Random(3)
    for _ in range(10):
        g = TropicalGrid(m, n, [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)])
        fast = trop_eval(p, g)
        slow = min(
            sum(e * g.value(i, r) for (i, r), e in mono) for mono in p.terms
        )
        assert fast == slow
