"""Colored polynomial algebra and the loop symmetric function families.

Independent oracles used here: a brute-force enumeration of the loop
families (bounded multisets of indices, each its own monomial) for the
ring-generic kernel in both of its rings and for every entry of its
degree table (``loop_table``), sigma's prefix definition with each tau
computed alone at its degree, a brute-force classical e/h
enumerator for the color-collapse checks, a Leibniz-formula determinant
for PolyMatrix, sympy's determinant for ``laplace_dets`` over the
integers, the tableau sum ``loop_schur_tableaux`` for the strip DPs
(``loop_schurs`` and the staircase's ``staircase_loop_schur``), exponent
vectors decoded by ``mono_factors`` for products at the packed field
limit, ``trop_eval`` of each kernel's polynomial for the same kernel run
in ``MIN_PLUS``, a pure-Python minimum over the terms for each grid of a
``trop_evals`` batch, and hand-expanded small cases frozen as literals.
"""

import gc
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
import sympy

from krenergy import lsym
from krenergy.birational import (
    eval_loop_e,
    eval_loop_h,
    eval_sigma,
    eval_tau,
    random_point,
)
from krenergy.crystal import TropicalGrid
from krenergy.lsym import (
    MIN_PLUS,
    RATIONAL,
    ColoredPoly,
    PolyMatrix,
    _strip_chains,
    _trop_ints,
    jacobi_trudi_indices,
    laplace_dets,
    loop_e,
    loop_family,
    loop_h,
    loop_schur_jt,
    loop_schur_tableaux,
    loop_schurs,
    loop_table,
    mono_factors,
    poly_ring,
    sigma,
    sigma_product_indices,
    staircase_a_indices,
    staircase_b_indices,
    staircase_form,
    staircase_loop_schur,
    staircase_matrix_size,
    strip_weights,
    tau,
    tau_vector_indices,
    trop_eval,
    trop_evals,
    tropical_form,
    verdict,
)
from krenergy.tableaux import (
    EnumerationGuardError,
    Shape,
    SkewShape,
    Ssyt,
    energy_staircase_count,
    energy_staircase_shape,
    partitions_between,
    staircase,
)


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
    """An exponent vector of the wrong length or with a negative entry
    raises, and so does a variable index or color out of range, in the
    constructor and in the JSON reader; a dense index never aliases."""
    with pytest.raises(ValueError):
        ColoredPoly(2, 2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        ColoredPoly(2, 2, {(1, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        ColoredPoly(2, 2, {(1, 0, -1, 0): 1})
    for i, r in ((3, 0), (1, 2), (0, 1)):
        with pytest.raises(ValueError):
            ColoredPoly.from_jsonable(
                {"m": 2, "n": 2, "terms": [{"coef": "1", "exps": [[i, r, 1]]}]}
            )
    with pytest.raises(ValueError):
        ColoredPoly.variable(0, 1, m=2, n=2)
    with pytest.raises(ValueError):
        ColoredPoly.variable(3, 0, m=2, n=2)


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 1.5},
        {(1, 0): True},
        {(1, 0): "1"},
        {(2.5, 0): 1},
        {(0, True): 1},
        {(1.0, 0): 1},
        {(1, False): 1},
    ],
    ids=["float-coef", "bool-coef", "str-coef", "float-exp", "bool-exp", "float-i", "bool-r"],
)
def test_poly_refuses_non_int_terms(terms):
    """A coefficient or an exponent that is not an int raises, a bool
    included: a coefficient 1.5 was kept as 1, an exponent 2.5 stored as
    given."""
    with pytest.raises(TypeError):
        ColoredPoly(1, 2, terms)


def test_verdict_is_a_bool_or_one_mask_entry_per_instance():
    """Scalars and lists of them compare as ``==``; arrays compare entry by
    entry, nested lists reduced with ``&``; lists of other lengths fail."""
    a, b = np.array([1, 2, 3]), np.array([1, 5, 3])
    assert verdict([[1, 2], [3]], [[1, 2], [3]]) is True
    assert verdict([[1, 2]], [[1, 3]]) is False and verdict([1, 2], [1]) is False
    assert verdict(2, 2) is True
    assert verdict([[a, b], [a]], [[a, a], [a]]).tolist() == [True, False, True]
    assert verdict([a, a], [a]).tolist() == [False] * 3


def test_poly_arithmetic_refuses_non_polys():
    """+ and - take only a ColoredPoly, and * a ColoredPoly or an int."""
    one = ColoredPoly.one(1, 2)
    p = var(1, 0, 1, 2)
    for bad in (lambda: one + True, lambda: one + 1, lambda: 1 + one, lambda: one - 1,
                lambda: p * True, lambda: p * 1.5, lambda: True * p):
        with pytest.raises(TypeError):
            bad()
    assert 3 * p == p * 3 == p + p + p


@pytest.mark.parametrize(
    "call",
    [
        lambda: loop_e(1, 0, n=2, m=2, indices=[1.9, 2]),
        lambda: loop_e(1, 0, n=2, m=2, indices=[True, 2]),
        lambda: loop_e(1, 0, n=2, m=2, indices=["1", 2]),
        lambda: loop_h(2, 0.5, n=2, m=2),
        lambda: loop_e(True, 0, n=2, m=2),
        lambda: tau(1, "0", n=2, m=2),
        lambda: sigma(1.0, 0, n=2, m=2),
        lambda: eval_loop_e(1, False, [1, 2], random_point(2, 2, random.Random(0))),
        lambda: eval_loop_h(1, 0.5, [1, 2], random_point(2, 2, random.Random(0))),
        lambda: eval_tau("1", 0, [1, 2], random_point(2, 2, random.Random(0))),
        lambda: eval_sigma(2.0, 0, [1, 2], random_point(2, 2, random.Random(0))),
    ],
    ids=["float", "bool", "str", "h-float-color", "e-bool-degree", "tau-str-color",
         "sigma-float-degree", "eval-e-bool-color", "eval-h-float-color",
         "eval-tau-str-degree", "eval-sigma-float-degree"],
)
def test_family_indices_must_be_ints(call):
    """Indices, degree and color of the loop families, as polynomials and
    at a point, must be ints: ``loop_h(2, 0.5, ...)`` once returned a
    polynomial with float colors."""
    with pytest.raises(TypeError):
        call()


def test_poly_json_round_trip():
    m, n = 3, 2
    p = 5 * var(1, 0, m, n) * var(1, 0, m, n) - 2 * var(3, 1, m, n) + ColoredPoly.one(m, n)
    data = p.to_jsonable()
    assert ColoredPoly.from_jsonable(data) == p
    assert all(isinstance(t["coef"], str) for t in data["terms"])
    assert data == {
        "m": 3,
        "n": 2,
        "terms": [
            {"coef": "1", "exps": []},
            {"coef": "5", "exps": [[1, 0, 2]]},
            {"coef": "-2", "exps": [[3, 1, 1]]},
        ],
    }
    assert repr(p) == "1 + 5*x1^(0)^2 + -2*x3^(1)"
    # terms sort by their (i, r, e) factor lists, a prefix first
    q = p + 7 * var(2, 1, m, n) * var(1, 1, m, n) * var(2, 0, m, n)
    q = q - var(1, 0, m, n) * var(2, 1, m, n)
    assert [t["exps"] for t in q.to_jsonable()["terms"]] == [
        [],
        [[1, 0, 1], [2, 1, 1]],
        [[1, 0, 2]],
        [[1, 1, 1], [2, 0, 1], [2, 1, 1]],
        [[3, 1, 1]],
    ]
    assert repr(q) == "1 + -1*x1^(0)*x2^(1) + 5*x1^(0)^2 + 7*x1^(1)*x2^(0)*x2^(1) + -2*x3^(1)"
    assert ColoredPoly.from_jsonable(q.to_jsonable()) == q


def test_poly_json_refused_over_the_guard_before_any_term(monkeypatch):
    """A document is refused when its terms would hold more exponent slots
    than the guard, before the first term's slots are allocated."""
    monkeypatch.setenv("KR_ENERGY_GUARD", "1000")
    huge = {"m": 10**6, "n": 2, "terms": [{"coef": "1", "exps": []}]}
    with pytest.raises(ValueError, match="KR_ENERGY_GUARD"):
        ColoredPoly.from_jsonable(huge)
    # 2 terms of 250 x 2 slots reach the guard exactly and parse
    terms = [{"coef": "1", "exps": []}, {"coef": "2", "exps": [[250, 1, 3]]}]
    at_guard = {"m": 250, "n": 2, "terms": terms}
    p = ColoredPoly.from_jsonable(at_guard)
    assert len(p.terms) == 2 and ColoredPoly.from_jsonable(p.to_jsonable()) == p
    terms.append({"coef": "3", "exps": [[1, 0, 1]]})
    with pytest.raises(ValueError, match="guard 1000"):
        ColoredPoly.from_jsonable(at_guard)


LIMIT = 1 << lsym.FIELD_BITS


def vectors(p):
    """``p``'s terms keyed by exponent-vector tuples, decoded by ``mono_factors``."""
    out = {}
    for mono, coef in p.terms.items():
        exps = [0] * (p.m * p.n)
        for i, r, e in mono_factors(mono, p.n):
            exps[(i - 1) * p.n + r] = e
        out[tuple(exps)] = coef
    return out


def test_poly_refuses_an_exponent_at_the_field_limit_before_any_term(monkeypatch):
    """An exponent of 2**FIELD_BITS would carry into the next field: the
    constructor and the JSON reader refuse it before packing any term, and
    take one below it."""
    calls, pack = [], lsym._pack
    monkeypatch.setattr(lsym, "_pack", lambda exps: calls.append(exps) or pack(exps))
    with pytest.raises(ValueError, match="exponents in 0..4294967295"):
        ColoredPoly(1, 2, {(1, 0): 1, (0, LIMIT): 1})
    terms = [{"coef": "1", "exps": [[1, 0, 1]]}, {"coef": "1", "exps": [[1, 1, LIMIT]]}]
    with pytest.raises(ValueError, match="must be in 1..4294967295"):
        ColoredPoly.from_jsonable({"m": 1, "n": 2, "terms": terms})
    assert calls == []
    terms[1]["exps"][0][2] = LIMIT - 1
    assert vectors(ColoredPoly.from_jsonable({"m": 1, "n": 2, "terms": terms})) == {
        (1, 0): 1,
        (0, LIMIT - 1): 1,
    }
    assert len(calls) == 2


def test_poly_product_raises_when_the_degree_bounds_reach_the_field_limit():
    """The guard is on the degree bounds, so it raises even where the
    actual fields would stay apart."""
    half = ColoredPoly(1, 2, {(LIMIT // 2, 0): 1})
    with pytest.raises(OverflowError, match="32-bit field"):
        half * half
    top = ColoredPoly(1, 2, {(LIMIT - 1, 0): 1})
    with pytest.raises(OverflowError):
        top * var(1, 1, 1, 2)
    degs = [top.deg, half.deg, (top * 2).deg, (half - top).deg]
    assert degs == [LIMIT - 1, LIMIT // 2, LIMIT - 1, LIMIT - 1]
    # a zero factor has no term to carry
    assert (top * ColoredPoly.zero(1, 2)).is_zero


def test_largest_allowed_product_is_exact():
    """Degree bounds summing to 2**FIELD_BITS - 1 are allowed: a field
    filled to its top carries nothing into its neighbour."""
    p = ColoredPoly(1, 2, {(LIMIT - 2, 0): 1, (0, 1): 3})
    q = var(1, 0, 1, 2) + var(1, 1, 1, 2)
    assert (p.deg, q.deg) == (LIMIT - 2, 1)
    prod = p * q
    assert prod.deg == LIMIT - 1
    assert vectors(prod) == {(LIMIT - 1, 0): 1, (LIMIT - 2, 1): 1, (1, 1): 3, (0, 2): 3}
    assert mono_factors(max(prod.terms), 2) == [(1, 1, 2)]


def random_poly(rng, m, n, zero_share=0.2):
    """A seeded polynomial of up to 4 terms with coefficients in -3..3 and
    exponents in 0..2, the zero polynomial at rate ``zero_share``."""
    if rng.random() < zero_share:
        return ColoredPoly.zero(m, n)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 2) for _ in range(m * n))
        terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
    return ColoredPoly(m, n, terms)


def fold(start, plus, minus=()):
    """``start + sum(a * b) - sum(c * d)`` by the binary operators."""
    for a, b in plus:
        start = start + a * b
    for c, d in minus:
        start = start - c * d
    return start


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (2, 3)])
def test_sum_products_equals_the_fold(m, n):
    """The fused sum equals the fold of ``+``, ``-`` and ``*`` on seeded
    random polynomials, zero operands among them; it stores no zero
    coefficient, leaves ``start`` as it was, and bounds every term's
    degree by ``deg``."""
    rng = random.Random(f"sum-products:{m}:{n}")
    fused = poly_ring(m, n)[0].sum_products
    for _ in range(200):
        start = random_poly(rng, m, n)
        plus = [(random_poly(rng, m, n), random_poly(rng, m, n)) for _ in range(rng.randint(0, 4))]
        minus = [(random_poly(rng, m, n), random_poly(rng, m, n)) for _ in range(rng.randint(0, 3))]
        before = dict(start.terms)
        got = fused(start, plus, minus)
        assert got == fold(start, plus, minus)
        assert 0 not in got.terms.values()
        assert start.terms == before
        assert all(sum(e for *_, e in mono_factors(k, n)) <= got.deg for k in got.terms)
        assert fused(start, iter(plus)) == fold(start, plus)


def test_sum_products_cancels_to_zero():
    """Products that cancel leave the zero polynomial, which stores no zero
    coefficient; so does a start that the products cancel."""
    m, n = 2, 2
    rng = random.Random("sum-products-cancel")
    zero = ColoredPoly.zero(m, n)
    for _ in range(50):
        a, b = random_poly(rng, m, n, 0), random_poly(rng, m, n, 0)
        for got in (
            ColoredPoly.sum_products(zero, [(a, b)], [(b, a)]),
            ColoredPoly.sum_products(a * b, [], [(a, b)]),
            ColoredPoly.sum_products(zero, [(a, b), (a, -1 * b)]),
        ):
            assert got == zero and got.terms == {} and got.is_zero


def test_sum_products_degree_bound_and_field_limit():
    """``deg`` is the largest of the start's and the nonzero products'
    bounds, a product whose bounds reach 2**FIELD_BITS raises
    ``OverflowError`` as ``*`` does, on either side, and a zero operand
    has no term to carry; an operand of another ambient is refused."""
    x, y = var(1, 0, 1, 2), var(1, 1, 1, 2)
    zero = ColoredPoly.zero(1, 2)
    cube = x * x * x
    assert ColoredPoly.sum_products(x, [(x, y)]).deg == 2
    assert ColoredPoly.sum_products(cube, [(x, y)], [(y, y)]).deg == 3
    assert ColoredPoly.sum_products(x, [(cube, zero)]).deg == 1
    half = ColoredPoly(1, 2, {(LIMIT // 2, 0): 1})
    for plus, minus in (([(half, half)], []), ([], [(half, half)]), ([(x, y), (half, half)], [])):
        with pytest.raises(OverflowError, match="32-bit field"):
            ColoredPoly.sum_products(zero, plus, minus)
    assert ColoredPoly.sum_products(x, [(half, zero)], [(zero, half)]) == x
    top = ColoredPoly(1, 2, {(LIMIT - 2, 0): 1})
    assert ColoredPoly.sum_products(zero, [(top, y)]) == top * y
    with pytest.raises(ValueError, match="ambient mismatch"):
        ColoredPoly.sum_products(zero, [(x, var(1, 0, 1, 3))])


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
        for i, r, e in mono_factors(mono, p.n):
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


def test_vanishing_families_build_no_table_at_a_huge_degree(monkeypatch):
    """e past the number of variables and tau past n - 1 times it are zero
    at once, over the polynomials and at a point: k = 10**12 builds no
    table of k + 1 entries (a table that long fails here, before it is
    allocated)."""
    real = lsym.loop_table

    def bounded(family, k, *args):
        assert k < 10**6, f"a table of {k} + 1 entries for {family}"
        return real(family, k, *args)

    monkeypatch.setattr(lsym, "loop_table", bounded)
    assert not loop_e(3, 0, n=2, m=3).is_zero and loop_e(4, 0, n=2, m=3).is_zero
    assert not tau(6, 0, n=3, m=3).is_zero and tau(7, 0, n=3, m=3).is_zero
    assert loop_e(10**12, 0, n=2, m=3) == ColoredPoly.zero(3, 2)
    assert tau(10**12, 1, n=2, m=3) == ColoredPoly.zero(3, 2)
    p = random_point(3, 2, random.Random(3))
    assert eval_tau(10**12, 0, (1, 2, 3), p) == eval_loop_e(10**12, 0, (1, 2, 3), p) == 0


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
                exps = [0] * (m * n)
                for t, i in enumerate(combo):
                    exps[(i - 1) * n + (r + step * t) % n] += 1
                terms[tuple(exps)] = 1
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_loop_table_entries_match_enumeration(n):
    """Every entry t of one e, h or tau table over the polynomials equals
    the sum over bounded multisets of t indices, for m <= 4, every r mod
    n, on the full range and on the suffix ranges that sigma's tau reads,
    up to one degree past the cap times the number of indices."""
    for m in range(1, 5):
        ring = poly_ring(m, n)
        for start in (1, 2):
            idx = tuple(range(start, m + 1))
            top = (n - 1) * len(idx) + 1
            for r in range(n):
                for family, cap, step in (("e", 1, 1), ("h", top, -1), ("tau", n - 1, -1)):
                    table = loop_table(family, top, r, idx, *ring)
                    assert len(table) == top + 1
                    for t, value in enumerate(table):
                        want = enumerated_family(t, r, cap, step, n, m, idx)
                        assert value == want, (family, m, r, idx, t)
    assert loop_table("e", -1, 0, (1, 2), *poly_ring(2, 2)) == []


@pytest.mark.parametrize("n", [2, 3, 5])
def test_tau_table_is_the_unbounded_table_below_the_cap(n):
    """A tau table of top degree k <= n - 1, where the cap cannot bind,
    equals the unbounded (h) table; one of top degree k >= n agrees with
    the h table below degree n, and every entry equals the bounded
    enumeration."""
    m = 3
    idx = (1, 2, 3)
    ring = poly_ring(m, n)
    for r in range(n):
        for k in range(n):
            assert loop_table("tau", k, r, idx, *ring) == loop_table("h", k, r, idx, *ring)
        for k in (n, n + 1, (n - 1) * m):
            table = loop_table("tau", k, r, idx, *ring)
            assert table[:n] == loop_table("h", k, r, idx, *ring)[:n]
            for t, value in enumerate(table):
                assert value == enumerated_family(t, r, n - 1, -1, n, m, idx), (r, k, t)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_matches_its_prefix_definition(n):
    """sigma, read from one tau table per color, equals the sum of its
    prefixes times tau_{k-i}^{(r-i)} of the rest, each tau computed alone
    at its own degree, over the polynomials and at an integral point."""
    for m in range(1, 5):
        point = [[random.Random(f"sigma:{n}:{m}:{i}:{c}").randint(1, 2**30) for c in range(n)]
                 for i in range(m)]
        rings = (poly_ring(m, n), (RATIONAL, point))
        for (sr, values), start, r in itertools.product(rings, range(1, m + 1), range(n)):
            first, rest = start, tuple(range(start + 1, m + 1))
            for k in range(-1, (n - 1) * m + 2):
                want, prefix = sr.zero, sr.one
                for i in range(k + 1):
                    want = want + prefix * loop_family("tau", k - i, r - i, rest, sr, values)
                    prefix = prefix * values[first - 1][(r - i) % n]
                got = loop_family("sigma", k, r, (first, *rest), sr, values)
                assert got == want, (m, start, r, k)


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
    coefs = [
        c
        for mono, c in schur.terms.items()
        if {(i, r): e for i, r, e in mono_factors(mono, 3)} == exps
    ]
    assert sum(coefs) >= 1


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
        got = sorted(c for _, c, e in mono_factors(mono, n) for _ in range(e))
        assert got == want_colors


def test_jt_single_row_is_loop_h():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert loop_schur_jt(Shape((k,)), 0, n=n, m=3) == loop_h(k, 0, n=n, m=3)


def test_jt_single_column_is_loop_e():
    for n in (2, 3):
        for k in (1, 2, 3):
            assert loop_schur_jt(Shape([1] * k), 0, n=n, m=3) == loop_e(k, 0, n=n, m=3)


def shape_jacobi_trudi_indices(shape, r, size=None):
    """The Jacobi-Trudi ``(degree, color)`` entries read off the conjugate
    ``Shape``s, 1-based as the formula is written: the reference for
    ``jacobi_trudi_indices``."""
    skew = SkewShape.of(shape)
    lam = skew.outer.conjugate()
    mu = skew.inner.conjugate()
    size = len(lam) if size is None else size
    return [
        [(lam.part(i) - mu.part(j) - i + j, r - j + 1 + mu.part(j)) for j in range(1, size + 1)]
        for i in range(1, size + 1)
    ]


def test_jacobi_trudi_indices_match_the_shape_reference():
    from krenergy.identities import box_skew_shapes

    shapes = box_skew_shapes(3, 3)
    for n in (2, 3, 4):
        for r in range(-n, 2 * n + 1):
            for skew in shapes:
                assert jacobi_trudi_indices(skew, r) == shape_jacobi_trudi_indices(skew, r)
            for m in range(2, 6):
                _, size = staircase_matrix_size(m, n)
                want = shape_jacobi_trudi_indices(staircase(m - 1, n - 1), r, size)
                assert staircase_a_indices(m, n=n, r=r) == want, (n, m, r)


@pytest.mark.parametrize("n", [2, 3])
def test_loop_schurs_match_tableaux_as_polynomials(n):
    """The ring-generic strip DP over polynomials against the tableau sum:
    every nu / inner in the 3 x 3 box, every color, m = 1..4, the tables
    of one color sharing one ``strip_weights``; and the energy's
    staircases up to (n, m) = (3, 4) at every color, with the same
    weights."""
    box = (3, 3, 3)
    for m in range(1, 5):
        sr, values = poly_ring(m, n)
        for r in range(n):
            weights = strip_weights(r, sr, values)
            for inner in partitions_between(box):
                inner = Shape(inner).parts
                table = loop_schurs(box, inner, weights, sr)
                assert sorted(table) == partitions_between(box, inner)
                for nu, value in table.items():
                    assert value == loop_schur_tableaux(SkewShape(nu, inner), r, m, n=n), (nu, inner)
            if m >= 2:
                stair = staircase(m - 1, n - 1).parts
                want = loop_schur_tableaux(stair, r, m, n=n)
                assert loop_schurs(stair, (), weights, sr)[stair] == want, (m, r)


@pytest.mark.parametrize("n", [2, 3])
def test_min_plus_kernels_are_the_tropicalization_of_their_polynomials(n):
    """Each kernel run in ``MIN_PLUS`` at a count grid equals ``trop_eval``
    of the same kernel's polynomial at that grid: every entry of the e, h
    and tau tables and sigma up to one degree past the cap on each suffix
    range, and the loop Schur table of each inner shape of the 2 x 2 and
    3 x 3 boxes, at every color, m = 1..3.  A nonempty family's value is a
    plain int, and an empty family's is the zero, ``math.inf``, the value
    of ``trop_eval`` on the zero polynomial."""
    rng = random.Random(f"min-plus:{n}")
    kinds = set()

    def same(got, poly):
        kinds.add(poly.is_zero)
        want = trop_eval(poly, grid)
        if poly.is_zero:
            return got == MIN_PLUS.zero == want == math.inf
        return type(got) is int and got == want

    for m in range(1, 4):
        sr, xs = poly_ring(m, n)
        values = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]
        grid = TropicalGrid(m, n, values)
        for start, r in itertools.product(range(1, m + 1), range(n)):
            idx = tuple(range(start, m + 1))
            top = (n - 1) * len(idx) + 1
            for family in ("e", "h", "tau"):
                tropical = loop_table(family, top, r, idx, MIN_PLUS, values)
                polys = loop_table(family, top, r, idx, sr, xs)
                assert all(map(same, tropical, polys)), (family, m, r, idx)
            for k in range(-1, top + 1):
                tropical = loop_family("sigma", k, r, idx, MIN_PLUS, values)
                assert same(tropical, loop_family("sigma", k, r, idx, sr, xs)), (m, r, idx, k)
        for box, r in itertools.product([(2, 2), (3, 3, 3)], range(n)):
            for inner in partitions_between(box):
                inner = Shape(inner).parts
                tropical = loop_schurs(box, inner, strip_weights(r, MIN_PLUS, values), MIN_PLUS)
                polys = loop_schurs(box, inner, strip_weights(r, sr, xs), sr)
                assert tropical.keys() == polys.keys()
                assert all(same(tropical[nu], polys[nu]) for nu in polys), (box, inner, m, r)
    assert kinds == {True, False}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_pruned_loop_schurs_match_tableaux_in_every_semiring(n, m):
    """Entry i + 1 of ``loop_schurs`` sweeps only from the partitions that
    i entries reach (``_strip_sweep``), so m = 1, 2 and 3 run pruned sweeps
    alone and m = 5 runs past the height of the staircase (4, 3, 2, 1) and
    of the 3 x 3 box onto full ones.  Every table of every inner shape of
    the box, and the staircase's, at every color, equals the tableau sum:
    over the polynomials, in ``RATIONAL`` at an integer point, and in
    ``MIN_PLUS`` at a count grid."""
    rng = random.Random(f"pruned:{n}:{m}")
    ring = poly_ring(m, n)
    point = [[rng.randint(1, 2**30) for _ in range(n)] for _ in range(m)]
    counts = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]
    flat = [v for row in counts for v in row]

    def at_point(p):
        return sum(coef * math.prod(point[i - 1][r] ** e for i, r, e in mono_factors(mono, n))
                   for mono, coef in p.terms.items())

    tables = [((3, 3, 3), Shape(inner).parts) for inner in partitions_between((3, 3, 3))]
    tables.append(((4, 3, 2, 1), ()))
    for (outer, inner), r in itertools.product(tables, range(n)):
        polys = loop_schurs(outer, inner, strip_weights(r, *ring), ring[0])
        values = loop_schurs(outer, inner, strip_weights(r, RATIONAL, point), RATIONAL)
        tropical = loop_schurs(outer, inner, strip_weights(r, MIN_PLUS, counts), MIN_PLUS)
        assert polys.keys() == values.keys() == tropical.keys() == set(
            partitions_between(outer, inner))
        for nu, poly in polys.items():
            want = loop_schur_tableaux(SkewShape(nu, inner), r, m, n=n)
            assert poly == want, (outer, inner, nu, r)
            assert values[nu] == at_point(want), (outer, inner, nu, r)
            assert tropical[nu] == term_minimum(want, flat), (outer, inner, nu, r)


def test_strip_weights_compute_each_content_once():
    """A ``strip_weights`` shared by the 19 inner shapes of the 3 x 3 box
    computes the weights of each distinct content tuple once: one variable
    read per (entry, cell) of the 25 distinct strips, not of the 213
    strips the tables hold between them."""
    m, n = 3, 3
    sr, base = poly_ring(m, n)
    reads = []

    class Row(tuple):
        """A row of the value table that records each read."""

        def __getitem__(self, c):
            reads.append(c)
            return super().__getitem__(c)

    weights = strip_weights(1, sr, [Row(row) for row in base])
    inners = [Shape(nu).parts for nu in partitions_between((3, 3, 3))]
    for inner in inners:
        loop_schurs((3, 3, 3), inner, weights, sr)
    contents = {cells for inner in inners for cells in _strip_chains((3, 3, 3), inner)[1]}
    assert len(contents) == 25
    assert sum(len(_strip_chains((3, 3, 3), inner)[1]) for inner in inners) == 213
    assert len(reads) == m * sum(len(cells) for cells in contents)


STAIRCASE_SIZES = [
    (n, m) for n in range(2, 6) for m in range(1, 6) if energy_staircase_count(n, m) <= 59_049
]


@pytest.mark.parametrize("n, m", STAIRCASE_SIZES)
def test_staircase_strip_dp_matches_tableau_sum(n, m):
    """The staircase's prefix DP against the sum over its tableaux, m = 1
    and m = 2 and the benchmark's (5, 3), (4, 4) and (3, 5) included."""
    want = loop_schur_tableaux(energy_staircase_shape(n, m), 0, m, n=n)
    assert staircase_loop_schur(n, m).terms == want.terms


def test_staircase_enumerates_no_tableau(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the staircase polynomial enumerated a tableau")

    for name, module in list(sys.modules.items()):
        if name.startswith("krenergy") and hasattr(module, "enumerate_ssyt"):
            monkeypatch.setattr(module, "enumerate_ssyt", refuse)
    p = staircase_loop_schur(3, 4)
    assert len(p.terms) == 368 and ones(p) == energy_staircase_count(3, 4)


def test_staircase_leaves_the_strip_chain_cache_alone():
    """The staircase DP builds no strip chains, so it leaves their cache,
    kept for ``loop_schurs``, alone."""
    before = _strip_chains.cache_info()
    staircase_loop_schur(3, 5)
    after = _strip_chains.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_staircase_wide_alphabet_is_small():
    """At m = 2 the DP walks the 150 strips of the one row, not every strip
    between two partitions of the staircase (about n^3 / 6 of them)."""
    tracemalloc.start()
    try:
        p = staircase_loop_schur(150, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert p == loop_schur_tableaux((149,), 0, 2, n=150)


def test_staircase_refused_over_the_guard(monkeypatch):
    monkeypatch.setenv("KR_ENERGY_GUARD", str(energy_staircase_count(3, 4) - 1))
    with pytest.raises(EnumerationGuardError, match="3\\^6 tableaux"):
        staircase_loop_schur(3, 4)


@pytest.mark.parametrize("n, m", [(200, 3), (100, 3)])
def test_staircase_refused_over_the_slot_guard(monkeypatch, n, m):
    """Under the default guard in tableaux, but not in tableaux times the
    m * n exponent slots of a term: refused before the DP takes a step."""
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)

    def refuse(*args):
        raise AssertionError("the staircase DP ran over the guard")

    monkeypatch.setattr("krenergy.lsym._colors", refuse)
    assert energy_staircase_count(n, m) <= 10**7 < energy_staircase_count(n, m) * m * n
    with pytest.raises(EnumerationGuardError, match="exponent slots"):
        staircase_loop_schur(n, m)


@pytest.mark.parametrize("n, m, slots", [(3, 5, 885_735), (4, 4, 65_536), (5, 3, 1_875),
                                         (400, 2, 320_000)])
def test_staircase_slot_guard_admits(monkeypatch, n, m, slots):
    monkeypatch.delenv("KR_ENERGY_GUARD", raising=False)
    assert energy_staircase_count(n, m) * m * n == slots
    assert staircase_loop_schur(n, m).m == m


def test_staircase_forms_keep_at_most_the_guards_slots(monkeypatch):
    """Each cached form holds a float64 matrix of its staircase's terms, so
    the forms kept hold at most the guard's worth of exponent slots: a
    miss drops the least recently used forms first, and keeps the newest
    alone when it needs the whole guard.  At m = 2 the staircase of n has
    n terms of 2n slots each."""
    monkeypatch.setenv("KR_ENERGY_GUARD", "1000")
    staircase_form.cache_clear()
    for n in (10, 12, 14, 10):  # 200, 288 and 392 slots; then 10 is the most recent
        staircase_form(n, 2)
    assert staircase_form.cache_info() == (1, 3, 3, 880)
    staircase_form(8, 2)  # 128 more slots: 12, the least recently used, goes
    assert staircase_form.cache_info() == (1, 4, 3, 720)
    for n in (10, 14, 8):
        staircase_form(n, 2)
    assert staircase_form.cache_info()[:2] == (4, 4)
    staircase_form(22, 2)  # 968 slots: every other form goes
    assert staircase_form.cache_info() == (4, 5, 1, 968)
    staircase_form(10, 2)
    assert staircase_form.cache_info() == (4, 6, 1, 200)


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


def random_selections(rng, rows, width, count):
    """``count`` selections of ``width`` pool rows, in any order, the first
    one repeated at the end."""
    sels = [rng.sample(range(rows), width) for _ in range(count)]
    return sels + sels[:1]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_laplace_dets_match_bareiss_on_int_pools(width):
    """One pooled expansion equals sympy's (Bareiss) determinant of every
    selected matrix, on sparse seeded int pools with zero rows and zero
    columns."""
    rng = random.Random(width)
    for trial in range(12):
        rows = width + rng.randint(0, 3)
        pool = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 7)) for _ in range(width)] for _ in range(rows)]
        blank = rng.randrange(rows if trial % 3 == 1 else width)
        if trial % 3 == 1:
            pool[blank] = [0] * width
        if trial % 3 == 2:
            for row in pool:
                row[blank] = 0
        sels = random_selections(rng, rows, width, 8)
        want = [int(sympy.Matrix([pool[p] for p in sel]).det()) for sel in sels]
        assert laplace_dets(pool, sels, RATIONAL) == want
        if trial % 3 == 1:  # a zero row
            assert all(v == 0 for v, sel in zip(want, sels) if blank in sel)
        if trial % 3 == 2:  # a zero column
            assert not any(want)


def test_laplace_dets_match_leibniz_on_poly_pools():
    """Over the polynomials, each pooled determinant equals the Leibniz sum
    of its own matrix."""
    m, n = 2, 2
    rng = random.Random(17)
    sr = poly_ring(m, n)[0]
    zero = sr.zero

    def rand_entry():
        p = zero
        for _ in range(rng.randint(0, 2)):
            p = p + rng.randint(-2, 2) * var(rng.randint(1, m), rng.randint(0, n - 1), m, n)
        return p

    for width in (1, 2, 3):
        for _ in range(4):
            rows = width + 2
            pool = [[rand_entry() for _ in range(width)] for _ in range(rows)]
            pool[0] = [zero] * width
            sels = random_selections(rng, rows, width, 6)
            want = [leibniz_det([pool[p] for p in sel], m, n) for sel in sels]
            assert laplace_dets(pool, sels, sr) == want


def test_laplace_dets_edge_cases():
    sr = poly_ring(2, 2)[0]
    zero, one = sr.zero, sr.one
    assert laplace_dets([], [()], sr) == [one]  # the 0 x 0 matrix
    assert laplace_dets([[], []], [(), ()], RATIONAL) == [1, 1]
    assert laplace_dets([[1, 2], [3, 4]], [], RATIONAL) == []
    assert laplace_dets([[1, 2], [3, 4]], [(0, 1), (1, 0), (0, 1)], RATIONAL) == [-2, 2, -2]
    assert laplace_dets([[1, 2], [0, 0]], [(0, 1)], RATIONAL) == [0]  # zero row
    assert laplace_dets([[0, 2], [0, 4]], [(0, 1)], RATIONAL) == [0]  # zero column
    assert PolyMatrix(2, 2, []).det() == one
    with pytest.raises(ValueError):
        PolyMatrix(2, 2, [[zero, one]]).det()
    with pytest.raises(ValueError):
        laplace_dets([[1, 2], [3]], [(0, 1)], RATIONAL)
    with pytest.raises(ValueError):
        laplace_dets([[1, 2], [3, 4]], [(0,)], RATIONAL)


def sympy_dets(pool, sels):
    return [int(sympy.Matrix([pool[p] for p in sel]).det()) for sel in sels]


def test_planned_laplace_dets_match_sympy():
    """The planned expansion equals sympy's determinant: on two pools of
    one shape called in turn, whose zero patterns differ, so that each
    runs its own plan; on selections out of order; and on selections that
    repeat a row."""
    rng = random.Random("planned")
    width, rows = 4, 7
    sels = [sorted(rng.sample(range(rows), width)) for _ in range(10)]
    dense = [[rng.randint(-9, 9) or 1 for _ in range(width)] for _ in range(rows)]
    banded = [[v if abs(p - 2 * j) <= 2 else 0 for j, v in enumerate(row)]
              for p, row in enumerate(dense)]
    for pool in (dense, banded, dense):
        assert laplace_dets(pool, sels, RATIONAL) == sympy_dets(pool, sels)
    shuffled = [rng.sample(sel, width) for sel in sels]
    for pool in (dense, banded):
        assert laplace_dets(pool, shuffled, RATIONAL) == sympy_dets(pool, shuffled)
    repeated = [sel[:1] + sel[:width - 1] for sel in sels] + [(3, 1, 3, 0)]
    for pool in (dense, banded):
        assert laplace_dets(pool, repeated, RATIONAL) == [0] * len(repeated)
        mixed = shuffled + repeated + sels
        assert laplace_dets(pool, mixed, RATIONAL) == sympy_dets(pool, mixed)


def test_laplace_dets_leaves_no_garbage():
    """A call, cold (its plan built) or warm, makes no reference cycle, in
    the integers and over the polynomials: run with the cyclic collector
    off, it leaves nothing for ``gc.collect()``."""
    rng = random.Random("garbage")
    x = var(1, 0, 2, 2)
    pools = [
        ([[rng.randint(-3, 3) for _ in range(5)] for _ in range(6)], RATIONAL),
        ([[x * rng.randint(-2, 2) for _ in range(3)] for _ in range(4)], poly_ring(2, 2)[0]),
    ]
    gc.collect()
    gc.disable()
    try:
        for pool, sr in pools:
            width = len(pool[0])
            sels = list(itertools.combinations(range(len(pool)), width))
            for _ in range(2):
                laplace_dets(pool, sels, sr)
                assert gc.collect() == 0
    finally:
        gc.enable()


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


def loop_e_matrix(indices, *, n, m):
    """The loop e polynomials at a matrix of ``(degree, color)`` entries."""
    return [[loop_e(k, c, n=n, m=m) for k, c in row] for row in indices]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_build_a4_matches_display(r):
    """The entries of A at (n, m) = (3, 4), ``staircase_a_indices``, are
    the loop e polynomials of the displayed matrix."""
    mat = loop_e_matrix(staircase_a_indices(4, n=3, r=r), n=3, m=4)
    assert (len(mat), len(mat[0])) == (6, 6)
    for k in range(1, 7):
        for j in range(1, 7):
            cell = GOLD_A4[k - 1][j - 1]
            want = (
                loop_e(cell[0], r + cell[1], n=3, m=4)
                if cell
                else ColoredPoly.zero(4, 3)
            )
            assert mat[k - 1][j - 1] == want, (k, j)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_build_b4_matches_display(r):
    """The entries of B at (n, m) = (3, 4), ``staircase_b_indices``, are
    the loop e polynomials of the displayed matrix."""
    mat = loop_e_matrix(staircase_b_indices(4, n=3, r=r), n=3, m=4)
    assert (len(mat), len(mat[0])) == (8, 9)
    for k in range(1, 9):
        for j in range(1, 10):
            cell = GOLD_B4[k - 1][j - 1]
            want = (
                loop_e(cell[0], r + cell[1], n=3, m=4)
                if cell
                else ColoredPoly.zero(4, 3)
            )
            assert mat[k - 1][j - 1] == want, (k, j)


def test_matrix_sizes():
    assert staircase_matrix_size(4, 3) == (2, 6)
    assert staircase_matrix_size(2, 2) == (1, 2)
    a, size = staircase_matrix_size(5, 4)
    assert (a, size) == (3, 12)


def test_column_translation_property():
    for n, m in [(2, 3), (3, 2), (3, 4)]:
        for indices in (staircase_a_indices(m, n=n), staircase_b_indices(m, n=n)):
            mat = loop_e_matrix(indices, n=n, m=m)
            for j in range(n, len(mat[0])):
                for k in range(len(mat)):
                    shifted = mat[k - (n - 1)][j - n] if k >= n - 1 else ColoredPoly.zero(m, n)
                    assert mat[k][j] == shifted


def test_tau_vector_shape_and_signs():
    def tau_vector(m, n):
        return [sign * tau(k, c, n=n, m=m) for sign, k, c in tau_vector_indices(m, n=n)]

    n, m = 3, 4
    vec = tau_vector(m, n)
    a, _ = staircase_matrix_size(m, n)
    assert len(vec) == n * (a + 1)
    assert vec[0] == tau((n - 1) * m, -1, n=n, m=m)
    assert vec[1] == -tau((n - 1) * m - 1, -2, n=n, m=m)
    # here the subscripts run 8..0, so the last component is +tau_0 = 1
    assert vec[-1] == ColoredPoly.one(m, n)
    # for (n, m) = (3, 3) the vector overshoots into negative subscripts
    vec33 = tau_vector(3, 3)
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
    """A grid value times the degree at 2^53 or more is multiplied in
    Python ints; float64 would round, and int64 would wrap around."""
    p = var(1, 1, 1, 2) + ColoredPoly(1, 2, {(1 << 30, 0): 1})
    assert trop_eval(p, TropicalGrid(1, 2, [[-(1 << 39), 5]])) == -(1 << 69)
    q = var(1, 0, 1, 2) + 2 * var(1, 1, 1, 2)
    assert trop_eval(q, TropicalGrid(1, 2, [[1 << 62, 1 << 61]])) == 1 << 61
    assert trop_eval(q, TropicalGrid(1, 2, [[1 << 62, 3 << 61]])) == 1 << 62


@pytest.mark.parametrize("big", [(5,), (0, 7), tuple(range(12))])
def test_trop_eval_big_columns_match_the_term_minimum(big):
    """Grid values of 2^62 and more on some columns, or on every column,
    against a pure-Python minimum over the terms."""
    n, m = 3, 4
    p = loop_schur_tableaux(staircase(3, 2), 0, 4, n=n)
    rng = random.Random(f"trop-big:{big}")
    for _ in range(5):
        flat = [
            rng.randint(1 << 62, 1 << 64) if c in big else rng.randint(0, 9)
            for c in range(m * n)
        ]
        g = TropicalGrid(m, n, [flat[i * n : (i + 1) * n] for i in range(m)])
        slow = min(
            sum(e * g.value(i, r) for i, r, e in mono_factors(mono, n)) for mono in p.terms
        )
        assert trop_eval(p, g) == slow


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
            sum(e * g.value(i, r) for i, r, e in mono_factors(mono, n)) for mono in p.terms
        )
        assert fast == slow


def term_minimum(p, flat):
    """The min-plus value of ``p`` at a flat grid, term by term in Python
    ints: the oracle of ``trop_evals``."""
    if not p.terms:
        return math.inf
    return min(sum(e * flat[(i - 1) * p.n + r] for i, r, e in mono_factors(mono, p.n))
               for mono in p.terms)


@pytest.mark.parametrize("n, m", [(3, 1), (2, 3), (3, 4)])
def test_trop_evals_batch_matches_each_grid(n, m, monkeypatch):
    """A batch of random grids, one with a value of 2^40 (on the float64
    path unless the degree is 2^13 or more) and one with a value above
    2^53 (on the exact path), gives what ``trop_eval`` gives grid by grid
    and what the term minimum gives, for the staircase polynomial, a sigma
    factor, the zero polynomial (``inf`` at every grid) and a polynomial of
    degree 2^23, in one product and in chunks of two grids; so does the
    batch stacked as one int64 array, whose values are checked at once,
    and the array of the grids under 2^53."""
    rng = random.Random(f"trop-batch:{n}:{m}")
    flats = [tuple(rng.randint(-9, 9) for _ in range(m * n)) for _ in range(10)]
    flats[4] = flats[4][:-1] + ((1 << 40) + rng.randint(0, 99),)
    flats[9] = flats[9][:-1] + ((1 << 53) + rng.randint(0, 99),)
    grids = [TropicalGrid(m, n, [flat[i * n : (i + 1) * n] for i in range(m)]) for flat in flats]
    # a degree of 2^23 puts the grid of 2^40 on the exact path too
    wide = ColoredPoly(m, n, {(1 << 23,) + (0,) * (m * n - 1): 1, (1,) * (m * n): 1})
    polys = [staircase_loop_schur(n, m), sigma((n - 1) * m, 0, n=n, m=m), ColoredPoly.zero(m, n),
             wide]
    whole, stacked = (np.array(batch, dtype=np.int64) for batch in (flats, flats[:9]))
    for p in polys:
        want = [term_minimum(p, flat) for flat in flats]
        assert [trop_eval(p, g) for g in grids] == want
        assert trop_evals(p, flats) == trop_evals(p, whole) == want
        assert trop_evals(p, stacked) == want[:9]
        assert trop_evals(p, []) == trop_evals(p, whole[:0]) == []
        with monkeypatch.context() as patch:
            patch.setattr(lsym, "_BATCH_ENTRIES", 2 * len(p.terms))
            assert trop_evals(p, flats) == trop_evals(p, whole) == want
            assert trop_evals(p, stacked) == want[:9]
    assert trop_evals(staircase_form(n, m), flats) == trop_evals(polys[0], flats)
    assert all(type(v) is int for v in trop_evals(polys[0], flats))
    assert all(type(v) is int for v in trop_evals(polys[0], whole))
    with pytest.raises(ValueError):
        trop_evals(polys[0], [flats[0][1:]])
    with pytest.raises(ValueError):
        trop_evals(polys[0], stacked[:, 1:])
    for value in (-(1 << 40), -(1 << 53), -(1 << 63)):
        low = np.array([flats[0][:-1] + (value,)])
        assert trop_evals(polys[0], low) == [term_minimum(polys[0], low[0].tolist())]


def test_trop_evals_float64_bound(monkeypatch):
    """Grids with max|v| * deg just under 2^53 take the float64 product,
    and those just over it the exact path, both at the term minimum and
    in Python ints, with positive and negative values alike."""
    p = staircase_loop_schur(3, 4)
    deg = tropical_form(p).deg
    assert deg == 12 == p.deg
    under = ((1 << 53) - 1) // deg
    assert under * deg < 1 << 53 <= (under + 1) * deg
    rng = random.Random("trop-bound")
    cases = []
    for value in (under, under + 1, -under, -under - 1):
        for _ in range(3):
            flat = [rng.randint(-9, 9) for _ in range(12)]
            flat[rng.randrange(12)] = value
            cases.append((abs(value) == under, flat))
    exact = []

    def counted(form, flat):
        exact.append(flat)
        return _trop_ints(form, flat)

    monkeypatch.setattr(lsym, "_trop_ints", counted)
    for fast, flat in cases:
        exact.clear()
        got = trop_evals(p, [flat]) + trop_evals(p, np.array([flat]))
        assert got == [term_minimum(p, flat)] * 2, flat
        assert all(type(v) is int for v in got)
        assert exact == ([] if fast else [flat, flat])


def test_trop_evals_rounding_past_2_53():
    """Two terms worth 2^53 + 1 and 2^53 + 2: float64 rounds the first to
    2^53, so only the exact path gives the least of them."""
    p = var(1, 0, 1, 2) + var(1, 1, 1, 2)
    flat = ((1 << 53) + 2, (1 << 53) + 1)
    assert trop_evals(p, [flat]) == trop_evals(p, np.array([flat])) == [(1 << 53) + 1]
    assert float((1 << 53) + 1) == 1 << 53


@pytest.mark.parametrize(
    "flats",
    [[[0.5, 0.7]], [[True, 3]], [(1, 2.0)], np.array([[0.5, 0.7]]), np.array([[True, False]]),
     np.array([[1, 2]], dtype=object)],
    ids=["floats", "bool", "float-tuple", "float64-array", "bool-array", "object-array"],
)
def test_trop_evals_refuses_a_non_integer_grid(flats):
    """A grid in a list must hold ints, and stacked grids need a non-bool
    integer dtype: a float or a bool is refused, never truncated (x^(0) +
    x^(1) at [[0.5, 0.7]] would read 0, and at [[True, 3]] 1)."""
    p = var(1, 0, 1, 2) + var(1, 1, 1, 2)
    for poly in (p, ColoredPoly.zero(1, 2)):
        with pytest.raises(TypeError):
            trop_evals(poly, flats)


def test_trop_evals_takes_any_integer_dtype():
    p = var(1, 0, 1, 2) + var(1, 1, 1, 2)
    for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64):
        assert trop_evals(p, np.array([[5, 3], [2, 9]], dtype=dtype)) == [3, 2], dtype


@pytest.mark.parametrize("value", [1 << 100, -(1 << 100), 1 << 53, -(1 << 53) + 1])
def test_trop_evals_degree_zero_and_negative_values(value):
    """A constant (degree 0, taken as 1 in the bound) at huge values, and
    a staircase at negative ones, give the term minimum."""
    one = ColoredPoly.one(2, 2) + ColoredPoly.one(2, 2)
    assert trop_evals(one, [(value, value, 1, value)]) == [0]
    p = staircase_loop_schur(2, 3)
    flat = (value, -3, -(1 << 60), 7, value, -1)
    got = trop_evals(p, [flat])
    assert got == [term_minimum(p, flat)] and type(got[0]) is int
