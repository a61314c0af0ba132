"""Property tests of the enumeration path over random small skew shapes.

hypothesis draws a skew shape inside a 4 x 4 box and a max entry.  The
oracles are the checking ``Ssyt`` constructor, ``count_ssyt``, the
coefficient sum of ``loop_schur_tableaux`` and, for ``partitions_between``,
a filter over every tuple in the box.  The runs are derandomized, so a
failure reproduces, and keep no example database.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from krenergy.lsym import loop_schur_tableaux  # noqa: E402
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
