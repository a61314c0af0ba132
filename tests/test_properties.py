"""Property tests of the enumeration path over random small skew shapes,
of the one-elimination maximal minors, and of the polynomial JSON format.

hypothesis draws a skew shape inside a 4 x 4 box and a max entry.  The
oracles are the checking ``Ssyt`` constructor, ``count_ssyt``, the
coefficient sum of ``loop_schur_tableaux`` and, for ``partitions_between``,
a filter over every tuple in the box.  ``maximal_minors`` is checked
against one ``fraction_det`` per deleted column.  Random term maps of
exponent vectors go through ``to_jsonable`` and back, and ``mono_factors``
is checked against the vector's nonzero entries.  On random tensors of
single-row crystals (n <= 4, at most 3 letters of each color per factor)
the R-matrix is an involution, the actions ``s_1``, ``s_2`` satisfy the
braid relation on three factors, and a tensor survives its JSON round
trip.  The runs are derandomized, so a failure reproduces, and keep no
example database.
"""

import itertools
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from krenergy.birational import fraction_det, maximal_minors  # noqa: E402
from krenergy.crystal import TensorElement, apply_s, r_matrix  # noqa: E402
from krenergy.lsym import ColoredPoly, loop_schur_tableaux, mono_factors  # noqa: E402
from krenergy.tableaux import (  # noqa: E402
    SkewShape,
    Ssyt,
    count_ssyt,
    enumerate_ssyt,
    partitions_between,
)

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
    per_column = [
        fraction_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(len(rows) + 1)
    ]
    assert maximal_minors(rows) == per_column


@st.composite
def colored_polys(draw):
    """A polynomial in an m x n ambient, m <= 3 and n <= 4, of up to 8
    terms with exponents up to 3 and nonzero coefficients."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, 3)] * (m * n))
    coef = st.integers(-(1 << 70), 1 << 70).filter(bool)
    return ColoredPoly(m, n, draw(st.dictionaries(mono, coef, max_size=8)))


@PROPERTY_SETTINGS
@given(colored_polys())
def test_poly_json_round_trip_and_factors(p):
    data = p.to_jsonable()
    assert ColoredPoly.from_jsonable(data) == p
    exps = [t["exps"] for t in data["terms"]]
    assert exps == sorted(exps) and len(exps) == len(p.terms)
    for mono in p.terms:
        factors = mono_factors(mono, p.n)
        assert [((i - 1) * p.n + r, e) for i, r, e in factors] == [
            (k, e) for k, e in enumerate(mono) if e
        ]
        assert all(1 <= i <= p.m and 0 <= r < p.n for i, r, _ in factors)


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
