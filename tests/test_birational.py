"""Exact rational kappa, the birational R-action, and the energy product.

The point evaluators run the same ring-generic kernel as the polynomial
families; both rings are checked against a brute-force enumeration in
test_lsym.  The product formula for rational energy is checked against the
independent global formula, and the identity suite's point evaluator's
loop Schur tables against the tableau sum.  The R-action identities of
``r_action_identities`` hold in ``RATIONAL`` and ``MIN_PLUS``, give the
same verdicts on a point's cleared values as at the point, and catch a
shifted sigma colour in both semifields.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
import sympy

from krenergy import birational, lsym, verify
from krenergy.birational import (
    RationalPoint,
    cleared_values,
    eval_loop_e,
    eval_loop_h,
    eval_sigma,
    eval_tau,
    fraction_det,
    kappa,
    kappas,
    move,
    r_action_identities,
    random_point,
    rational_energy_global,
    rational_energy_product,
    s_action,
)
from krenergy.crystal import counts_to_grid, intrinsic_energy, ok
from krenergy.identities import _point_evaluator, identity_suite, integer_point
from krenergy.lsym import (
    MIN_PLUS,
    RATIONAL,
    loop_e,
    loop_family,
    loop_h,
    loop_schur_tableaux,
    sigma,
    tau,
)
from krenergy.tableaux import Shape, SkewShape, count_ssyt, partitions_between, staircase
from krenergy.verify import VerifyConfig, random_tensor, run_verify


def test_point_validation():
    with pytest.raises(ValueError):
        RationalPoint(1, 2, [[Fraction(1), Fraction(0)]])
    with pytest.raises(ValueError):
        RationalPoint(2, 2, [[Fraction(1), Fraction(1)]])


def test_point_values_may_be_ints_or_fractions():
    p = RationalPoint(1, 2, [[2, Fraction(1, 3)]])
    assert p.values == ((Fraction(2), Fraction(1, 3)),)


@pytest.mark.parametrize("bad", [0.5, True, "1/3"], ids=["float", "bool", "string"])
def test_point_takes_only_ints_and_fractions(bad):
    """A value that is not an int or a Fraction is refused, not converted."""
    with pytest.raises(TypeError):
        RationalPoint(1, 2, [[Fraction(1, 2), bad]])


def test_point_json_round_trip():
    rng = random.Random(0)
    p = random_point(3, 4, rng)
    assert RationalPoint.from_jsonable(p.to_jsonable()) == p


@pytest.mark.parametrize(
    "values",
    [["12", "34"], [{"1": "a", "2": "b"}, {"3": "c", "4": "d"}], [["1", "2", "3"], ["1", "1"]]],
    ids=["string", "object", "three-elements"],
)
def test_point_json_values_are_pairs(values):
    """Each value is a JSON list of exactly two decimal strings: a string
    of two digits or a two-key object, which unpacking would read as a
    numerator and a denominator, and a list of three raise ``ValueError``."""
    with pytest.raises(ValueError, match=r"\[numerator, denominator\]"):
        RationalPoint.from_jsonable({"m": 1, "n": 2, "values": values})


def test_kappa_two_colors_formula():
    # for n = 2: kappa_r = x_j^(r+1) + x_{j+1}^(r+1)
    rng = random.Random(1)
    for _ in range(20):
        p = random_point(3, 2, rng, bound=30)
        for j in (1, 2):
            for r in (0, 1):
                assert kappa(r, j, p) == p.value(j, r + 1) + p.value(j + 1, r + 1)


def test_kappa_all_ones_is_n():
    for n in (2, 3, 4):
        p = RationalPoint.all_ones(2, n)
        for r in range(n):
            assert kappa(r, 1, p) == n


def test_kappa_tropical_shadow_is_ok():
    """The min-plus shadow of kappa_r on columns (j, j+1) equals
    ok_{r-j+1} of the factor pair."""
    rng = random.Random(5)
    for n, m in [(2, 3), (3, 3), (4, 4)]:
        for _ in range(15):
            t = random_tensor(n, m, 4, rng)
            g = counts_to_grid(t)
            for j in range(1, m):
                for r in range(n):
                    shadow = min(
                        sum(g.value(j + 1, r + u) for u in range(1, s + 1))
                        + sum(g.value(j, r + u) for u in range(s + 1, n))
                        for s in range(n)
                    )
                    assert shadow == ok(r - j + 1, t.factors[j - 1], t.factors[j])


def test_s_action_involution():
    rng = random.Random(2)
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for _ in range(10):
                p = random_point(m, n, rng, bound=50)
                for j in range(1, m):
                    assert s_action(j, s_action(j, p)) == p


def test_s_action_all_ones_fixed_point():
    p = RationalPoint.all_ones(2, 2)
    assert s_action(1, p) == p


def test_s_action_braid():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(10):
            p = random_point(3, n, rng, bound=50)
            lhs = s_action(1, s_action(2, s_action(1, p)))
            assert lhs == s_action(2, s_action(1, s_action(2, p)))


def test_s_action_positivity_closure():
    rng = random.Random(4)
    for _ in range(20):
        p = random_point(3, 3, rng)
        q = s_action(rng.choice([1, 2]), p)
        assert all(v > 0 for row in q.values for v in row)


def test_s_action_index_range():
    p = RationalPoint.all_ones(2, 2)
    with pytest.raises(ValueError):
        s_action(2, p)


# ---------------------------------------------------------------------------
# evaluators vs symbolic expansions


def test_evaluators_match_symbolic():
    rng = random.Random(6)
    for n, m in [(2, 3), (3, 3), (3, 4)]:
        for _ in range(5):
            p = random_point(m, n, rng, bound=20)
            idx = tuple(range(1, m + 1))
            for k in range(0, (n - 1) * m + 2):
                for r in (0, 1):
                    assert eval_loop_e(k, r, idx, p) == loop_e(k, r, n=n, m=m).eval_rational(p.value)
                    assert eval_loop_h(k, r, idx, p) == loop_h(k, r, n=n, m=m).eval_rational(p.value)
                    assert eval_tau(k, r, idx, p) == tau(k, r, n=n, m=m).eval_rational(p.value)
                    assert eval_sigma(k, r, idx, p) == sigma(k, r, n=n, m=m).eval_rational(p.value)


def test_evaluators_on_subranges():
    rng = random.Random(7)
    p = random_point(4, 3, rng, bound=20)
    for k in range(0, 5):
        assert eval_sigma(k, 1, (2, 3, 4), p) == sigma(
            k, 1, n=3, m=4, indices=(2, 3, 4)
        ).eval_rational(p.value)
        assert eval_tau(k, 2, (3, 4), p) == tau(
            k, 2, n=3, m=4, indices=(3, 4)
        ).eval_rational(p.value)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 4), (4, 5)])
def test_integer_point_families_match_the_rational_ring(n, m):
    """The families computed in ints at the cleared-denominator point equal
    the kernel run in ``RATIONAL`` at the point's values, for every degree
    from -1 to one past the cap on every index range (a contiguous range
    and the odd indices)."""
    p = random_point(m, n, random.Random(f"int-point:{n}:{m}"))
    ranges = [tuple(range(i, j + 1)) for i in range(1, m + 1) for j in range(i, m + 1)]
    ranges.append(tuple(range(1, m + 1, 2)))
    evals = {"e": eval_loop_e, "h": eval_loop_h, "tau": eval_tau, "sigma": eval_sigma}
    for idx in ranges:
        for family, fn in evals.items():
            for k in range(-1, (n - 1) * len(idx) + 2):
                for r in (-1, 0, n):
                    want = loop_family(family, k, r, idx, RATIONAL, p.values)
                    assert fn(k, r, idx, p) == want, (family, k, r, idx)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eval_loop_schur_matches_tableau_sum(n):
    """The point evaluator's strip-DP table for each inner shape of the
    3 x 3 box, at an integral point, against the plain tableau sum on every nu between the inner
    shape and the box (nu = inner included), every color and m = 1..5."""
    box = (3, 3, 3)
    for m in range(1, 6):
        p = integer_point(m, n, random.Random(f"loop-schur:{n}:{m}"))
        ev = _point_evaluator(p)
        for inner in partitions_between(box):
            inner = Shape(inner).parts
            for r in range(n):
                table = ev.schurs(box, inner, r)
                assert sorted(table) == partitions_between(box, inner)
                assert table[inner + (0,) * (3 - len(inner))] == 1
                for nu, value in table.items():
                    shape = SkewShape(nu, inner)
                    expected = loop_schur_tableaux(shape, r, m, n=n).eval_rational(p.value)
                    assert value == expected, (shape, r, m)


def test_eval_loop_schur_edge_cases():
    """The outer entry of a table on its own: the one-shape evaluations."""
    p = integer_point(2, 3, random.Random(11))
    ev = _point_evaluator(p)
    assert ev.schurs((), (), 0) == {(): 1}
    assert ev.schurs((2, 1), (2, 1), 2)[(2, 1)] == 1
    # a column of three cells needs three distinct entries
    assert ev.schurs((1, 1, 1), (), 0)[(1, 1, 1)] == 0
    assert ev.schurs((2, 2, 2), (1,), 1)[(2, 2, 2)] == 0
    # the one cell (1, 1) has content 0, and color 4 is color 1 mod 3
    assert ev.schurs((1,), (), 4)[(1,)] == p.value(1, 1) + p.value(2, 1)
    # a skew shape whose table spans several sizes
    table = ev.schurs((2, 2), (1,), 1)
    for nu, value in table.items():
        want = loop_schur_tableaux(SkewShape(nu, (1,)), 1, 2, n=3).eval_rational(p.value)
        assert value == want, nu


def test_fraction_det_small_cases():
    assert fraction_det([[Fraction(2)]]) == 2
    assert fraction_det([[1, 2], [3, 4]]) == -2
    assert fraction_det([[1, 2], [2, 4]]) == 0
    assert fraction_det([[0, 1], [1, 0]]) == -1
    assert fraction_det([]) == 1
    with pytest.raises(ValueError):
        fraction_det([[1, 2]])
    with pytest.raises(ValueError):
        fraction_det([[1, 2], [3]])


# the maximal minors of an r x (r + 1) matrix, minor j deleting column j,
# as the identity suite takes them: one laplace_dets call in RATIONAL
maximal_minors = _point_evaluator(RationalPoint.all_ones(1, 2)).minors


def test_matrix_entries_may_mix_ints_and_fractions():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert fraction_det([[1, half], [Fraction(2, 3), 3]]) == Fraction(8, 3)
    minors = maximal_minors([[1, half, 0], [0, 2, third]])
    assert minors == [Fraction(1, 6), third, 2]


@pytest.mark.parametrize("bad", [0.5, "1/2", True], ids=["float", "string", "bool"])
def test_matrix_entries_must_be_ints_or_fractions(bad):
    """Raised before any expansion, though the matrix is singular in its
    first column."""
    with pytest.raises(TypeError):
        fraction_det([[0, 1], [0, bad]])


def test_maximal_minors_small_cases():
    # minor j deletes column j
    assert maximal_minors([[1, 2, 3], [4, 5, 6]]) == [-3, -6, -3]
    assert maximal_minors([[Fraction(1, 2), 0]]) == [0, Fraction(1, 2)]
    assert maximal_minors([[0, 0, 1], [0, 0, 2]]) == [0, 0, 0]
    assert maximal_minors([[0, 1, 0], [0, 0, 1]]) == [1, 0, 0]
    assert maximal_minors([[0, 1, 0], [1, 0, 0]]) == [0, 0, -1]  # rows out of order
    assert maximal_minors([]) == [1]
    with pytest.raises(ValueError):
        maximal_minors([[1, 2]] * 2)
    with pytest.raises(ValueError):
        maximal_minors([[1, 2, 3], [1, 2]])


def _sympy_det(rows):
    size = len(rows)
    mat = sympy.Matrix(size, size, [sympy.Rational(v.numerator, v.denominator)
                                    for row in rows for v in row])
    det = mat.det()
    return Fraction(int(det.p), int(det.q))


def test_fraction_det_matches_sympy():
    """``fraction_det`` (the Laplace expansion) against sympy on seeded
    random rational matrices of size 0..6, a third of them singular and a
    third with a zero first pivot, plus a matrix whose second pivot
    vanishes during elimination."""
    rng = random.Random("fraction-det")

    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    matrices = [[[Fraction(v) for v in row] for row in ((1, 2, 3), (2, 4, 5), (1, 1, 1))]]
    for size in range(7):
        for trial in range(12):
            rows = [[entry() for _ in range(size)] for _ in range(size)]
            if size >= 2 and trial % 3 == 1:
                # the last row a combination of the first two (of the first
                # alone when size = 2)
                s, t = entry(), entry()
                rows[-1] = [s * u + t * v for u, v in zip(rows[0], rows[min(1, size - 2)])]
                assert fraction_det(rows) == 0
            if size >= 1 and trial % 3 == 2:
                rows[0][0] = Fraction(0)
                if size >= 2:
                    rows[1][0] = Fraction(0)
            matrices.append(rows)
    for rows in matrices:
        assert fraction_det(rows) == _sympy_det(rows), rows
    assert fraction_det(matrices[0]) == -1


# ---------------------------------------------------------------------------
# energies


def test_energy_global_single_factor():
    p = random_point(1, 3, random.Random(8))
    assert rational_energy_global(p) == 1
    assert rational_energy_product(p) == 1


def test_energy_all_ones_values():
    assert rational_energy_global(RationalPoint.all_ones(2, 2)) == 2
    assert rational_energy_global(RationalPoint.all_ones(3, 2)) == 8
    assert rational_energy_product(RationalPoint.all_ones(3, 2)) == 8


def test_energy_product_equals_global():
    rng = random.Random(9)
    for n in (2, 3):
        for m in (2, 3, 4):
            for _ in range(10):
                p = random_point(m, n, rng, bound=100)
                assert rational_energy_product(p) == rational_energy_global(p)


def test_energy_global_invariant_under_s_action():
    rng = random.Random(10)
    for n, m in [(2, 3), (3, 3), (3, 4)]:
        for _ in range(5):
            p = random_point(m, n, rng, bound=50)
            value = rational_energy_global(p)
            for j in range(1, m):
                assert rational_energy_global(s_action(j, p)) == value


def test_energy_all_ones_counts_staircase_tableaux():
    for n in (2, 3):
        for m in (2, 3, 4):
            value = rational_energy_product(RationalPoint.all_ones(m, n))
            assert value == count_ssyt(staircase(m - 1, n - 1), m)


def test_energy_tropicalizes_to_intrinsic():
    """min-plus evaluation of the sigma product at the count grid equals
    the intrinsic energy (the tropical side of the product formula)."""
    from krenergy.lsym import sigma_product_indices, trop_eval

    rng = random.Random(11)
    for n, m in [(2, 3), (3, 3)]:
        factors = [sigma(k, c, n=n, m=m, indices=idx) for k, c, idx in sigma_product_indices(m, n=n)]
        for _ in range(20):
            t = random_tensor(n, m, 3, rng)
            g = counts_to_grid(t)
            assert sum(trop_eval(p, g) for p in factors) == intrinsic_energy(t)


# ---------------------------------------------------------------------------
# the R-action identities

TACT = ("kappa-ratio", "chain-first-form", "chain-second-form")


def tact_verdicts(p):
    """The verdict of the three transported-kappa identities at ``p`` for
    each (i, j, r), from ``r_action_identities`` run in ``RATIONAL`` on its
    cleared values."""
    verdicts = {}
    for identity, params, passed in r_action_identities(RATIONAL, cleared_values(p)[0]):
        if identity in TACT:
            verdicts.setdefault((params["i"], params["j"], params["r"]), []).append(passed)
    assert all(len(v) == len(TACT) for v in verdicts.values())
    return {key: all(v) for key, v in verdicts.items()}


def test_lem_tact_base_case():
    rng = random.Random(12)
    for n in (2, 3):
        p = random_point(2, n, rng, bound=30)
        verdicts = tact_verdicts(p)
        assert verdicts == {(1, 2, r): True for r in range(n)}


def test_lem_tact_spec_cases():
    rng = random.Random(13)
    p = random_point(3, 2, rng, bound=30)
    assert tact_verdicts(p)[(1, 3, 1)]
    q = random_point(4, 3, rng, bound=30)
    assert tact_verdicts(q)[(2, 4, 0)]


def test_lem_tact_sweep():
    rng = random.Random(14)
    for n, m in [(2, 4), (3, 4), (4, 3)]:
        p = random_point(m, n, rng, bound=30)
        verdicts = tact_verdicts(p)
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                for r in range(n):
                    assert verdicts.pop((i, j, r)), (n, m, i, j, r)
        assert not verdicts


def shift_sigma_colour(monkeypatch):
    """Make every sigma of ``r_action_identities`` read the colour one
    higher, the factors of its energy product included: a deliberate
    mutation."""
    real = birational.loop_family

    def shifted(family, k, r, *args):
        return real(family, k, r + (family == "sigma"), *args)

    monkeypatch.setattr(birational, "loop_family", shifted)
    shift_sigma_product(monkeypatch, colour=1)


def shift_sigma_product(monkeypatch, colour=0, degree=0):
    """Shift the colour or the degree of every factor that
    ``lsym.sigma_product`` multiplies, as it reads them from
    ``sigma_product_indices`` at each call: a deliberate mutation."""
    real = lsym.sigma_product_indices

    def shifted(m, *, n, r=0):
        return [(k + degree, c + colour, idx) for k, c, idx in real(m, n=n, r=r)]

    monkeypatch.setattr(lsym, "sigma_product_indices", shifted)


@pytest.mark.parametrize("shift", [{"colour": 1}, {"degree": -1}], ids=["colour", "degree"])
def test_a_shifted_sigma_product_fails_each_reader(monkeypatch, shift):
    """A factor shifted inside ``lsym.sigma_product`` fails each of its
    readers, and nothing else: the identity suite's
    staircase_factorization, the braid suite's energy-product,
    energy-equivalence's trop-sigma-product and the birational suite's
    all-ones count.  At the all-ones point every colour takes the value 1,
    so that count cannot see a colour shift; a degree one lower fails it."""
    shift_sigma_product(monkeypatch, **shift)
    checks = identity_suite(3, 3, mode="randomized", seed=0, trials=3)
    assert {c.identity for c in checks if not c.passed} == {"staircase_factorization"}
    cell = dict(n_range=(3, 3), m_range=(3, 3), capacity_cap=2, mode="exhaustive")
    for suite, kind in (("braid", "energy-product"), ("energy-equivalence", "trop-sigma-product")):
        result = run_verify(VerifyConfig(suites=(suite,), **cell)).suites[suite]
        assert result.failures > 0, suite
        assert {json.loads(w)["kind"] for w in result.witnesses} == {kind}
    counts = [verify.check_all_ones_count(n, m) for n in (2, 3) for m in (2, 3)]
    if "colour" in shift:
        assert counts == [None] * 4
    else:
        assert all(json.loads(w)["kind"] == "all-ones-count" for w in counts)


def failures(sr, columns):
    return [(identity, params) for identity, params, passed in r_action_identities(sr, columns)
            if not passed]


def test_r_action_identities_on_cleared_values_give_the_verdicts_at_the_point(monkeypatch):
    """Every identity is homogeneous, so the failures on a point's cleared
    values are those on its Fraction values: none as written, and the same
    set under a shifted sigma colour, which fails at most points."""
    rng = random.Random("cleared-verdicts")
    points = [random_point(m, n, rng) for n in (2, 3, 4) for m in (2, 3, 4) for _ in range(6)]
    for p in points:
        assert failures(RATIONAL, cleared_values(p)[0]) == failures(RATIONAL, p.values) == []
    shift_sigma_colour(monkeypatch)
    caught = 0
    for p in points:
        found = failures(RATIONAL, cleared_values(p)[0])
        assert found == failures(RATIONAL, p.values)
        caught += bool(found)
    assert caught >= len(points) * 3 // 4, caught


def test_r_action_identities_catch_a_shifted_sigma_colour_in_min_plus(monkeypatch):
    """On seeded tensors every identity holds in ``MIN_PLUS`` on the count
    grid; with the sigma colour shifted by one, most tensors fail."""
    rng = random.Random("min-plus-shift")
    grids = [counts_to_grid(random_tensor(n, m, 4, rng)).values
             for n in (2, 3, 4) for m in (2, 3, 4) for _ in range(20)]
    assert all(failures(MIN_PLUS, g) == [] for g in grids)
    shift_sigma_colour(monkeypatch)
    caught = sum(bool(failures(MIN_PLUS, g)) for g in grids)
    assert caught >= len(grids) * 3 // 4, caught


def test_r_action_identities_names_and_counts():
    """At (n, m) the generator yields m - 1 involution and invariance
    checks, m - 2 braids, one energy product, and three transported-kappa
    identities per pair i < j and colour r."""
    for n, m in [(2, 2), (3, 4), (4, 3)]:
        p = RationalPoint.all_ones(m, n)
        names = Counter(identity for identity, _, passed in
                        r_action_identities(RATIONAL, cleared_values(p)[0]) if passed)
        pairs = m * (m - 1) // 2 * n
        want = {"involution": m - 1, "energy-invariance": m - 1, "braid": m - 2,
                "energy-product": 1, **{name: pairs for name in TACT}}
        assert names == {name: count for name, count in want.items() if count}


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_r_action_identities_move_each_first_pair_once(monkeypatch, m):
    """The columns after each s_j are computed once and shared by its
    involution, energy invariance and braid checks, so the ``kappas``
    calls are: the energy walk's m(m-1)/2, one s_j per j, the second move
    of each involution, a walk per invariance check, two moves per side of
    each braid, and one per pair of the transported-kappa walk."""
    calls = []
    real = birational.kappas
    monkeypatch.setattr(birational, "kappas", lambda *args: calls.append(1) or real(*args))
    cols = [[(3 * i + c) % 7 + 1 for c in range(3)] for i in range(m)]
    assert failures(MIN_PLUS, cols) == []
    pairs = m * (m - 1) // 2
    assert len(calls) == pairs + 2 * (m - 1) + (m - 1) * pairs + 4 * (m - 2) + pairs


def test_rational_kernels_stay_exact_on_int_columns():
    """``kappas`` and ``move`` in ``RATIONAL`` on int columns give exact
    Fractions equal to their values on the same point as Fractions: a
    division of two ints is a Fraction, never a float."""
    rng = random.Random(15)
    for n in (2, 3, 4):
        p = integer_point(2, n, rng)
        cols = [[v.numerator for v in row] for row in p.values]
        assert all(type(v) is int for col in cols for v in col)
        for kernel in (kappas, move):
            got, want = kernel(RATIONAL, *cols), kernel(RATIONAL, *p.values)
            flat = list(chain.from_iterable(got)) if kernel is move else got
            assert all(type(v) is Fraction for v in flat) and got == want


def test_public_rational_functions_return_fractions():
    """The public rational functions return Fractions, the empty energy
    product at m = 1 included."""
    p, q = random_point(1, 3, random.Random(16)), RationalPoint.all_ones(2, 3)
    values = [
        rational_energy_global(p), rational_energy_product(p), rational_energy_global(q),
        kappa(0, 1, q), eval_sigma(0, 0, (1,), p), fraction_det([[1]]), fraction_det([]),
    ]
    assert all(type(v) is Fraction for v in values), values


def test_birational_suite_reports_a_mutated_identity_in_both_semifields(monkeypatch):
    """With the sigma colour shifted, the birational suite records failures
    at rational points and at tensors, each witness naming its identity."""
    shift_sigma_colour(monkeypatch)
    config = VerifyConfig(suites=("birational",), n_range=(3, 3), m_range=(3, 3), trials=4)
    result = run_verify(config).suites["birational"]
    witnesses = [json.loads(w) for w in result.witnesses]
    assert result.checks == 9 and result.failures == len(witnesses) > 0
    kinds = {"energy-product", "all-ones-count", *TACT}
    assert all(w["kind"] in kinds for w in witnesses), witnesses
    assert {"point", "tensor"} <= {key for w in witnesses for key in w}


def test_r_action_identities_build_each_tau_table_once(monkeypatch):
    """The sigmas of one ``r_action_identities`` call read one tau table per
    (suffix, colour mod n), built once at its top degree: 4 suffixes of
    x_1..x_3 (the empty one included) times 3 colours at (3, 3), and 7
    times 4 at (4, 4)."""
    calls = Counter()
    real = lsym.loop_table

    def counting(family, k, r, indices, sr, values):
        calls[family, tuple(indices), r % len(values[0])] += 1
        return real(family, k, r, indices, sr, values)

    monkeypatch.setattr(lsym, "loop_table", counting)
    for (n, m), distinct in {(3, 3): 12, (4, 4): 28}.items():
        calls.clear()
        p = random_point(m, n, random.Random(f"tau-tables:{n}:{m}"))
        assert failures(RATIONAL, cleared_values(p)[0]) == []
        assert sum(calls.values()) == len(calls) == distinct
        assert {family for family, *_ in calls} == {"tau"}


def test_birational_suite_records_a_non_positive_move(monkeypatch):
    """A move that negates its first column is a failed ``positivity`` check
    with its witness point, at every point, and not an exception out of
    ``run_verify``."""
    real = birational.move

    def negated(sr, a, b):
        first, second = real(sr, a, b)
        return [-v for v in first], second

    monkeypatch.setattr(birational, "move", negated)
    monkeypatch.setattr(verify, "move", negated)
    config = VerifyConfig(suites=("birational",), n_range=(2, 3), m_range=(2, 3), trials=3)
    result = run_verify(config).suites["birational"]
    witnesses = [json.loads(w) for w in result.witnesses]
    positivity = [w for w in witnesses if w["kind"] == "positivity"]
    assert result.failures == len(witnesses) > 0
    assert len(positivity) == 4 * 3 and all("point" in w for w in positivity)
