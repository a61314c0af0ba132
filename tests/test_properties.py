"""Property tests of the enumeration path over random small skew shapes,
of the one-elimination maximal minors, and of the polynomial JSON format.

hypothesis draws a skew shape inside a 4 x 4 box and a max entry.  The
oracles are the checking ``Ssyt`` constructor, ``count_ssyt``, the
coefficient sum of ``loop_schur_tableaux`` and, for ``partitions_between``,
a filter over every tuple in the box.  The maximal minors of a rational
r x (r + 1) matrix from one ``laplace_dets`` call, as the identity suite
takes them, are checked against sympy's determinant of each matrix
without one column.  Random term maps of
exponent vectors go through ``to_jsonable`` and back, and ``mono_factors``
is checked against the vector's nonzero entries.  The packed ``*``, ``+``,
``-`` and ``==`` are checked against a dict convolution and sum of
exponent-vector tuples, with exponents up to just under the field limit.  On random tensors of
single-row crystals (n <= 4, at most 3 letters of each color per factor)
the R-matrix is an involution, the actions ``s_1``, ``s_2`` satisfy the
braid relation on three factors, and a tensor survives its JSON round
trip.  The explicit formulas written out directly, the minimum over s of
``ok`` and the n-term product sum of ``kappa``, are the oracles of the
shared semifield kernels: ``ok`` and ``r_matrix`` on random pairs (n <= 6,
at most 6 letters a factor), and ``kappa``, ``s_action`` and
``rational_energy_global`` at random positive points.  A point, rational
or integral as the randomized identity suite draws them, survives its
JSON round trip.  At random integral points every entry of a loop e, h or
tau table equals the sum over bounded multisets of indices, and sigma
equals its prefixes times tau of the rest, each tau computed alone.  On
random tensors (n <= 4, m <= 5, at most 5 letters a factor) the sigma
product run in ``MIN_PLUS`` equals the intrinsic and the staircase
energy, and on random tensors (n, m in 2..4, at most 4 letters a factor)
every R-action identity holds in ``MIN_PLUS`` on the count grid.  On
random batches of value tables (values up to the capacity cap's maximum)
``energy_walk``, ``move`` and the verdicts of ``r_action_identities`` in
``MIN_PLUS_ARRAY`` equal, entry by entry, their ``MIN_PLUS`` values on
each table.  The runs are derandomized, so a failure reproduces, and keep
no example database.
"""

import itertools
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
import sympy

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from krenergy.birational import (  # noqa: E402
    RationalPoint,
    energy_walk,
    kappa,
    move,
    r_action_identities,
    rational_energy_global,
    s_action,
)
from krenergy.crystal import (  # noqa: E402
    CrystalElement,
    TensorElement,
    apply_s,
    counts_to_grid,
    energy_staircase,
    intrinsic_energy,
    ok,
    r_matrix,
)
from krenergy.identities import POINT_BOUND, _point_evaluator  # noqa: E402
from krenergy.lsym import (  # noqa: E402
    MIN_PLUS,
    MIN_PLUS_ARRAY,
    RATIONAL,
    ColoredPoly,
    loop_family,
    loop_schur_tableaux,
    loop_table,
    mono_factors,
)
from krenergy.tableaux import (  # noqa: E402
    SkewShape,
    Ssyt,
    count_ssyt,
    energy_staircase_count,
    enumerate_ssyt,
    partitions_between,
    resolve_guard,
)
from krenergy.verify import CAPACITY_CAP_MAX  # noqa: E402
from test_crystal import min_plus_sigma_product  # noqa: E402
from test_lsym import LIMIT, vectors  # noqa: E402

BOX = 4

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def nested_partitions(draw):
    """``(outer, inner)``: outer inside the box, inner inside outer."""
    outer = sorted(draw(st.lists(st.integers(0, BOX), max_size=BOX)), reverse=True)
    inner = []
    cap = BOX
    for part in outer:
        cap = draw(st.integers(0, min(part, cap)))
        inner.append(cap)
    return tuple(outer), tuple(inner)


@PROPERTY_SETTINGS
@given(nested_partitions(), st.integers(1, 4), st.integers(2, 4), st.integers(0, 3))
def test_enumeration_properties(shapes, max_entry, n, r):
    skew = SkewShape(*shapes)
    tableaux = list(enumerate_ssyt(skew, max_entry))
    words = [t.row_word() for t in tableaux]
    assert all(a < b for a, b in zip(words, words[1:]))
    for t in tableaux:
        assert Ssyt(t.shape, t.rows, t.max_entry) == t
    poly = loop_schur_tableaux(skew, r, max_entry, n=n)
    assert len(tableaux) == count_ssyt(skew, max_entry) == sum(poly.terms.values())


@PROPERTY_SETTINGS
@given(nested_partitions())
def test_partitions_between_matches_filter(shapes):
    outer, inner = shapes
    padded = inner + (0,) * (len(outer) - len(inner))
    want = [
        nu
        for nu in itertools.product(range(BOX + 1), repeat=len(outer))
        if all(a >= b for a, b in zip(nu, nu[1:]))
        and all(lo <= v <= hi for lo, v, hi in zip(padded, nu, outer))
    ]
    assert partitions_between(outer, inner) == want


@st.composite
def wide_matrices(draw):
    """An r x (r + 1) rational matrix, r <= 6, with no defect, a zero
    first pivot (a row swap), a zero column, a repeated row, or rank r - 1
    or r - 2 (the last one or two rows combinations of the others)."""
    r = draw(st.integers(0, 6))
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    rows = [[draw(entry) for _ in range(r + 1)] for _ in range(r)]
    defects = ["none", "zero pivot", "zero column", "repeated row", "rank-1", "rank-2"]
    defect = draw(st.sampled_from(defects))
    if defect == "zero pivot" and r:
        rows[0][0] = Fraction(0)
    elif defect == "zero column" and r:
        col = draw(st.integers(0, r))
        for row in rows:
            row[col] = Fraction(0)
    elif defect == "repeated row" and r >= 2:
        rows[-1] = list(rows[draw(st.integers(0, r - 2))])
    elif defect in ("rank-1", "rank-2"):
        drop = 1 if defect == "rank-1" else 2
        for t in range(max(r - drop, 0), r):
            coeffs = [draw(entry) for _ in range(r - drop)]
            rows[t] = [sum((c * rows[s][j] for s, c in enumerate(coeffs)), Fraction(0))
                       for j in range(r + 1)]
    return rows


@PROPERTY_SETTINGS
@given(wide_matrices())
def test_maximal_minors_match_per_column_determinants(rows):
    size = len(rows)
    per_column = []
    for j in range(size + 1):
        entries = [sympy.Rational(v.numerator, v.denominator)
                   for row in rows for c, v in enumerate(row) if c != j]
        det = sympy.Matrix(size, size, entries).det()
        per_column.append(Fraction(int(det.p), int(det.q)))
    minors = _point_evaluator(RationalPoint.all_ones(1, 2)).minors
    assert minors(rows) == per_column


@st.composite
def term_maps(draw):
    """``(m, n, terms)``: up to 8 exponent vectors of an m x n ambient,
    m <= 3 and n <= 4, with exponents up to 3 and nonzero coefficients."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, 3)] * (m * n))
    coef = st.integers(-(1 << 70), 1 << 70).filter(bool)
    return m, n, draw(st.dictionaries(mono, coef, max_size=8))


@PROPERTY_SETTINGS
@given(term_maps())
def test_poly_json_round_trip_and_factors(drawn):
    m, n, terms = drawn
    p = ColoredPoly(m, n, terms)
    data = p.to_jsonable()
    assert ColoredPoly.from_jsonable(data) == p
    exps = [t["exps"] for t in data["terms"]]
    assert exps == sorted(exps) and len(exps) == len(p.terms)
    for vector in terms:
        [mono] = ColoredPoly(m, n, {vector: 1}).terms
        assert mono in p.terms
        factors = mono_factors(mono, p.n)
        assert [((i - 1) * p.n + r, e) for i, r, e in factors] == [
            (k, e) for k, e in enumerate(vector) if e
        ]
        assert all(1 <= i <= p.m and 0 <= r < p.n for i, r, _ in factors)


def tuple_product(a: dict, b: dict) -> dict:
    """The product of two term maps keyed by exponent-vector tuples: a dict
    convolution, each monomial product a vector sum."""
    out: dict = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            mono = tuple(map(operator.add, mono_a, mono_b))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def tuple_sum(a: dict, b: dict, sign: int) -> dict:
    out = {mono: c for mono, c in a.items() if c}
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + sign * c
    return {mono: c for mono, c in out.items() if c}


def upto(top: int):
    """Ints anywhere in 0..top, and often at its top."""
    return st.one_of(st.integers(0, top), st.integers(max(top - 3, 0), top))


@st.composite
def packed_operands(draw):
    """``(m, n, a, b)``: two term maps of up to 6 exponent vectors each in
    an m x n ambient, m <= 3 and n <= 4.  Each vector has small entries
    plus one heavy entry; the total degrees of a and of b stay within
    budgets that sum to 2**FIELD_BITS - 1, or, unbounded, to twice that."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    size = m * n
    split = draw(st.one_of(upto(LIMIT - 1), st.integers(LIMIT // 2 - 3, LIMIT // 2 + 3)))
    budgets = (split, LIMIT - 1 - split) if draw(st.booleans()) else (LIMIT - 1, LIMIT - 1)
    coef = st.integers(-(1 << 70), 1 << 70)

    def terms(budget):
        light = st.tuples(*[st.integers(0, min(3, budget // size))] * size)
        heavy = st.tuples(st.integers(0, size - 1), upto(max(budget - 3 * size, 0)))
        mono = st.builds(
            lambda v, h: tuple(e + h[1] * (k == h[0]) for k, e in enumerate(v)), light, heavy
        )
        return draw(st.dictionaries(mono, coef, max_size=6))

    return m, n, terms(budgets[0]), terms(budgets[1])


@PROPERTY_SETTINGS
@given(packed_operands())
def test_packed_arithmetic_matches_the_tuple_key_oracle(operands):
    m, n, a, b = operands
    p, q = ColoredPoly(m, n, a), ColoredPoly(m, n, b)
    assert vectors(p) == tuple_sum(a, {}, 1) and vectors(q) == tuple_sum(b, {}, 1)
    assert vectors(p + q) == tuple_sum(a, b, 1)
    assert vectors(p - q) == tuple_sum(a, b, -1)
    assert p == ColoredPoly(m, n, dict(reversed(a.items())))
    assert (p == q) == (tuple_sum(a, {}, 1) == tuple_sum(b, {}, 1))
    assert (p - p).is_zero and p + q - q == p
    if p.terms and q.terms and p.deg + q.deg >= LIMIT:
        with pytest.raises(OverflowError):
            p * q
        return
    want = tuple_product(a, b)
    assert vectors(p * q) == vectors(q * p) == want
    assert p * q == ColoredPoly(m, n, want)
    assert all(sum(vector) <= (p * q).deg < LIMIT for vector in want)


@st.composite
def tensors(draw, factors):
    """A tensor of ``factors`` single-row elements over 1..n, n <= 4, each
    with at most 3 letters of each color."""
    n = draw(st.integers(2, 4))
    counts = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return TensorElement.from_counts(n, [draw(counts) for _ in range(factors)])


@PROPERTY_SETTINGS
@given(tensors(2))
def test_r_matrix_is_an_involution(t):
    b1, b2 = t.factors
    assert r_matrix(*r_matrix(b1, b2)) == (b1, b2)


@PROPERTY_SETTINGS
@given(tensors(3))
def test_r_matrix_braid_relation(t):
    assert apply_s(apply_s(apply_s(t, 1), 2), 1) == apply_s(apply_s(apply_s(t, 2), 1), 2)


@PROPERTY_SETTINGS
@given(st.integers(1, 4).flatmap(tensors))
def test_tensor_json_round_trip(t):
    assert TensorElement.from_jsonable(t.to_jsonable()) == t


@st.composite
def capped_tensors(draw):
    """A tensor of 1..5 single-row elements over 1..n, n <= 4, each of at
    most 5 letters."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    letters = st.lists(st.integers(0, n - 1), max_size=5)
    factors = [draw(letters) for _ in range(m)]
    return TensorElement.from_counts(n, [[f.count(c) for c in range(n)] for f in factors])


@PROPERTY_SETTINGS
@given(capped_tensors())
def test_min_plus_sigma_product_is_the_energy(t):
    """The sigma product run in ``MIN_PLUS`` on the count grid is a plain
    int equal to ``intrinsic_energy`` and, where the guard admits the
    staircase polynomial (all sizes but (4, 5)), to ``energy_staircase``."""
    got = min_plus_sigma_product(t)
    assert type(got) is int and got == intrinsic_energy(t)
    if energy_staircase_count(t.n, t.m) * t.m * t.n <= resolve_guard():
        assert got == energy_staircase(t)


@st.composite
def identity_tensors(draw):
    """A tensor of 2..4 single-row elements over 1..n, n <= 4, each of at
    most 4 letters."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    letters = st.lists(st.integers(0, n - 1), max_size=4)
    factors = [draw(letters) for _ in range(m)]
    return TensorElement.from_counts(n, [[f.count(c) for c in range(n)] for f in factors])


@PROPERTY_SETTINGS
@given(identity_tensors())
def test_r_action_identities_hold_in_min_plus(t):
    """Every R-action identity holds in ``MIN_PLUS`` on the count grid,
    the transported-kappa ones at every pair and colour included."""
    checks = list(r_action_identities(MIN_PLUS, counts_to_grid(t).values))
    assert len(checks) == 3 * (t.m - 1) + 3 * t.m * (t.m - 1) // 2 * t.n
    assert [c for c in checks if not c[2]] == []


@st.composite
def value_batches(draw):
    """1..6 value tables x_1..x_m (n in 2..5, m in 1..4) with every value
    in 0..CAPACITY_CAP_MAX, and the same batch as m lists of n int64
    arrays, one entry per table."""
    n, m, size = draw(st.integers(2, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    value = st.integers(0, CAPACITY_CAP_MAX)
    tables = [[[draw(value) for _ in range(n)] for _ in range(m)] for _ in range(size)]
    arrays = [[np.array([table[i][r] for table in tables], dtype=np.int64) for r in range(n)]
              for i in range(m)]
    return tables, arrays


@PROPERTY_SETTINGS
@given(value_batches())
def test_min_plus_array_kernels_match_min_plus_entry_by_entry(batch):
    """``energy_walk`` and ``move`` run in ``MIN_PLUS_ARRAY`` give, entry by
    entry, what they give in ``MIN_PLUS`` on each table, as int64: the
    empty energy of m = 1 too; and each verdict of ``r_action_identities``
    is, entry by entry, the table's own ``MIN_PLUS`` verdict."""
    tables, arrays = batch
    energy = energy_walk(MIN_PLUS_ARRAY, arrays)
    assert np.asarray(energy).dtype == np.int64
    want = [energy_walk(MIN_PLUS, table) for table in tables]
    assert np.broadcast_to(energy, len(tables)).tolist() == want
    for j in range(len(arrays) - 1):
        moved = move(MIN_PLUS_ARRAY, arrays[j], arrays[j + 1])
        assert all(v.dtype == np.int64 for col in moved for v in col)
        got = [[[int(v[k]) for v in col] for col in moved] for k in range(len(tables))]
        assert got == [list(map(list, move(MIN_PLUS, t[j], t[j + 1]))) for t in tables]
    verdicts = [np.broadcast_to(passed, len(tables)).tolist()
                for *_, passed in r_action_identities(MIN_PLUS_ARRAY, arrays)]
    alone = [[passed for *_, passed in r_action_identities(MIN_PLUS, t)] for t in tables]
    assert [list(v) for v in zip(*verdicts)] == alone


def ok_reference(r, b1, b2):
    """ok_r(b1, b2): the minimum over 0 <= s <= n-1 of
    sum_{t=1..s} y2^(r+t-1) + sum_{t=s+1..n-1} y1^(r+t), written out."""
    n = b1.n
    base = (r - 1) % n
    y1, y2 = b1.counts, b2.counts
    best = None
    for s in range(n):
        total = 0
        for t in range(s):
            total += y2[(base + t) % n]
        for t in range(s + 1, n):
            total += y1[(base + t) % n]
        if best is None or total < best:
            best = total
    return best


def r_matrix_reference(b1, b2):
    """The explicit R-matrix: each color c moves by ok_{c+2} - ok_{c+1}."""
    n = b1.n
    okv = [ok_reference(r, b1, b2) for r in range(1, n + 1)]
    delta = [okv[(c + 1) % n] - okv[c] for c in range(n)]
    c1 = tuple(y + d for y, d in zip(b2.counts, delta))
    c2 = tuple(y - d for y, d in zip(b1.counts, delta))
    return c1, c2


def kappa_reference(r, j, p):
    """kappa_r on columns (j, j+1): the n-term sum of mixed color products."""
    total = Fraction(0)
    for s in range(p.n):
        term = Fraction(1)
        for t in range(1, s + 1):
            term *= p.value(j + 1, r + t)
        for t in range(s + 1, p.n):
            term *= p.value(j, r + t)
        total += term
    return total


def s_action_reference(j, p):
    """s_j(x_j^(r)) = x_{j+1}^(r+1) kappa_{r+1} / kappa_r and
    s_j(x_{j+1}^(r)) = x_j^(r-1) kappa_{r-1} / kappa_r."""
    n = p.n
    ks = [kappa_reference(r, j, p) for r in range(n)]
    new_j = [p.value(j + 1, r + 1) * ks[(r + 1) % n] / ks[r] for r in range(n)]
    new_j1 = [p.value(j, r - 1) * ks[(r - 1) % n] / ks[r] for r in range(n)]
    return p.with_columns({j: new_j, j + 1: new_j1})


def rational_energy_reference(p):
    """The product over i < j of kappa_{j-1} on columns (j-1, j) of
    s_i ... s_{j-2} applied to the point, one point per step."""
    total = Fraction(1)
    for i in range(1, p.m):
        cur = p
        for j in range(i + 1, p.m + 1):
            total *= kappa_reference(j - 1, j - 1, cur)
            if j < p.m:
                cur = s_action_reference(j - 1, cur)
    return total


@st.composite
def crystal_pairs(draw):
    """Two single-row elements over 1..n, n in 2..6, of at most 6 letters."""
    n = draw(st.integers(2, 6))
    letters = st.lists(st.integers(1, n), max_size=6)
    return CrystalElement.from_letters(n, draw(letters)), CrystalElement.from_letters(n, draw(letters))


@PROPERTY_SETTINGS
@given(crystal_pairs(), st.integers(-6, 12))
def test_ok_and_r_matrix_match_the_explicit_minimum(pair, r):
    b1, b2 = pair
    assert ok(r, b1, b2) == ok_reference(r, b1, b2)
    c1, c2 = r_matrix(b1, b2)
    assert (c1.counts, c2.counts) == r_matrix_reference(b1, b2)


@st.composite
def rational_points(draw):
    """A point with m in 2..4, n in 2..5 and values p / q, p and q in 1..50."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    value = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))
    return RationalPoint(m, n, [[draw(value) for _ in range(n)] for _ in range(m)])


@PROPERTY_SETTINGS
@given(rational_points(), st.data())
def test_kappa_s_action_and_energy_match_the_product_sum(p, data):
    j = data.draw(st.integers(1, p.m - 1))
    r = data.draw(st.integers(-5, 10))
    assert kappa(r, j, p) == kappa_reference(r, j, p)
    assert s_action(j, p) == s_action_reference(j, p)
    assert rational_energy_global(p) == rational_energy_reference(p)


@st.composite
def witness_points(draw):
    """A point with m in 1..4 and n in 2..5, its values either all
    rationals p / q with p and q in 1..10^6 or all integers in
    1..POINT_BOUND (the randomized identity suite's points)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    rational = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
    value = draw(st.sampled_from([rational, st.integers(1, POINT_BOUND)]))
    return RationalPoint(m, n, [[draw(value) for _ in range(n)] for _ in range(m)])


@PROPERTY_SETTINGS
@given(witness_points())
def test_point_json_round_trip(p):
    data = json.loads(json.dumps(p.to_jsonable()))
    q = RationalPoint.from_jsonable(data)
    assert q == p and q.to_jsonable() == data
    integral = all(v.denominator == 1 for row in p.values for v in row)
    assert integral == all(den == "1" for _, den in data["values"])


@st.composite
def family_points(draw):
    """``(n, values)``: n in 2..4 and a point of 1..4 rows of n values in
    1..POINT_BOUND, as the randomized identity suite draws them."""
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(1, POINT_BOUND), min_size=n, max_size=n)
    return n, draw(st.lists(row, min_size=1, max_size=4))


@PROPERTY_SETTINGS
@given(family_points(), st.integers(-4, 8), st.integers(1, 4))
def test_loop_tables_and_sigma_match_their_definitions(point, r, start):
    n, values = point
    m = len(values)
    idx = tuple(range(min(start, m), m + 1))
    top = (n - 1) * len(idx) + 1
    for family, cap, step in (("e", 1, 1), ("h", top, -1), ("tau", n - 1, -1)):
        want = [0] * (top + 1)
        for t in range(top + 1):
            for combo in itertools.combinations_with_replacement(idx, t):
                if max(map(combo.count, combo), default=0) <= cap:
                    colors = ((r + step * s) % n for s in range(t))
                    want[t] += math.prod(values[i - 1][c] for i, c in zip(combo, colors))
        assert loop_table(family, top, r, idx, RATIONAL, values) == want, family
    row, rest = values[idx[0] - 1], idx[1:]
    for k in range(top + 1):
        prefixes = [math.prod(row[(r - s) % n] for s in range(i)) for i in range(k + 1)]
        taus = [loop_family("tau", k - i, r - i, rest, RATIONAL, values) for i in range(k + 1)]
        want = sum(map(operator.mul, prefixes, taus))
        assert loop_family("sigma", k, r, idx, RATIONAL, values) == want, k
