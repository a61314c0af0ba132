"""Shapes, SSYT enumeration, and jeu de taquin.

The brute-force filling generator below is an independent oracle: it tries
every assignment of entries to cells and filters by the semistandard
conditions, with no shared code with the package's backtracking search.
The recursive walk below, one recursion per cell, is the oracle of the
package's iterative one, in order as well as content.
"""

import itertools
import random

import pytest

from krenergy.tableaux import (
    EnumerationGuardError,
    Shape,
    SkewShape,
    Ssyt,
    count_ssyt,
    energy_staircase_count,
    energy_staircase_shape,
    enumerate_ssyt,
    inner_corners,
    jdt_slide,
    partitions_between,
    rectify,
    staircase,
)


def brute_force_fillings(outer, inner, max_entry):
    """Every semistandard filling, by exhaustive search over all fillings."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(i, j) for i in range(len(outer)) for j in range(inner[i], outer[i])]
    results = []
    for values in itertools.product(range(1, max_entry + 1), repeat=len(cells)):
        grid = dict(zip(cells, values))
        good = True
        for (i, j), v in grid.items():
            if (i, j - 1) in grid and grid[(i, j - 1)] > v:
                good = False
                break
            if (i - 1, j) in grid and grid[(i - 1, j)] >= v:
                good = False
                break
        if good:
            results.append(
                tuple(
                    tuple(grid[(i, j)] for j in range(inner[i], outer[i]))
                    for i in range(len(outer))
                )
            )
    return results


# ---------------------------------------------------------------------------
# shapes


def test_staircase_basic_example():
    assert staircase(2, 1) == Shape((2, 1))


def test_staircase_smallest():
    assert staircase(1, 1) == Shape((1,))


def test_staircase_scaled():
    assert staircase(3, 2) == Shape((6, 4, 2))


def test_staircase_rejects_zero():
    with pytest.raises(ValueError):
        staircase(0, 1)
    with pytest.raises(ValueError):
        staircase(2, 0)


def test_shape_trailing_zeros_ignored():
    assert Shape((2, 1, 0, 0)) == Shape((2, 1))
    assert hash(Shape((2, 1, 0))) == hash(Shape((2, 1)))


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape((1, 2))
    with pytest.raises(ValueError):
        Shape((2, -1))


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_shape_and_ssyt_refuse_non_int_values(bad):
    """A part, an entry or a max entry that is not an int raises, never
    truncated or parsed: these were (2, 1) and ((1, 1),) once, a max entry
    2.5 was stored and a max entry True counted."""
    with pytest.raises(TypeError):
        Shape((2, bad))
    with pytest.raises(TypeError):
        Ssyt(Shape((2,)), [(1, bad)], 3)
    with pytest.raises(TypeError):
        Ssyt(Shape((1,)), [(1,)], bad)
    with pytest.raises(TypeError):
        count_ssyt(Shape((1,)), bad)
    with pytest.raises(TypeError):
        next(enumerate_ssyt(Shape((1,)), bad))


def test_shape_conjugate():
    assert Shape((6, 4, 2)).conjugate() == Shape((3, 3, 2, 2, 1, 1))
    assert Shape(()).conjugate() == Shape(())
    for parts in [(3, 1), (5, 5, 2), (1, 1, 1, 1), (4,)]:
        assert Shape(parts).conjugate().conjugate() == Shape(parts)


def test_skew_shape_validation():
    SkewShape((3, 2), (1,))
    with pytest.raises(ValueError):
        SkewShape((2, 1), (3,))
    with pytest.raises(ValueError):
        SkewShape((2, 2), (1, 1, 1))


def test_skew_cells_row_major():
    skew = SkewShape((3, 2), (1,))
    assert list(skew.cells()) == [(1, 2), (1, 3), (2, 1), (2, 2)]
    assert skew.size == 4


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_staircase_eight_tableaux():
    tabs = list(enumerate_ssyt(Shape((2, 1)), 3))
    assert len(tabs) == 8
    assert count_ssyt(Shape((2, 1)), 3) == 8


def test_enumerate_single_cell():
    tabs = list(enumerate_ssyt(Shape((1,)), 1))
    assert len(tabs) == 1
    assert tabs[0].rows == ((1,),)


def test_enumerate_two_by_two_single_filling():
    expected = brute_force_fillings((2, 2), (), 2)
    assert expected == [((1, 1), (2, 2))]
    tabs = list(enumerate_ssyt(Shape((2, 2)), 2))
    assert [t.rows for t in tabs] == expected


def test_enumerate_empty_shape_yields_one_empty_tableau():
    tabs = list(enumerate_ssyt(Shape(()), 3))
    assert len(tabs) == 1
    assert tabs[0].rows == ()


def test_enumerate_matches_brute_force():
    cases = [
        ((2, 1), (), 3),
        ((3, 2), (), 2),
        ((3, 2, 1), (), 3),
        ((3, 2), (1,), 3),
        ((3, 3), (2, 1), 3),
        ((4, 2), (2,), 2),
        ((2, 2, 1), (1,), 2),
    ]
    for outer, inner, max_entry in cases:
        want = sorted(brute_force_fillings(outer, inner, max_entry))
        got = [t.rows for t in enumerate_ssyt(SkewShape(outer, inner), max_entry)]
        assert sorted(got) == want, (outer, inner, max_entry)
        assert len(set(got)) == len(got)


def recursive_row_words(skew, max_entry):
    """The row words of the semistandard fillings of ``skew``, by a
    recursion over the cells in row-reading order: each cell takes, in
    increasing order, every value from the least its left and upper
    neighbours allow to ``max_entry`` less the cells below it."""
    cells = list(skew.cells())
    index = {cell: pos for pos, cell in enumerate(cells)}
    entries, words = [0] * len(cells), []

    def rec(pos):
        if pos == len(cells):
            words.append(tuple(entries))
            return
        i, j = cells[pos]
        lo = max(entries[index[(i, j - 1)]] if (i, j - 1) in index else 1,
                 entries[index[(i - 1, j)]] + 1 if (i - 1, j) in index else 1)
        below = sum(1 for k in range(i + 1, len(skew.outer) + 1) if (k, j) in index)
        for v in range(lo, max_entry - below + 1):
            entries[pos] = v
            rec(pos + 1)

    rec(0)
    return words


def test_enumerate_matches_the_recursive_walk_in_order(monkeypatch):
    """On 60 seeded skew shapes inside a 4 x 4 box with max entry <= 4,
    the iterative walk yields exactly the recursive walk's fillings, in
    its order, and a guard one below their count trips after that many."""
    rng = random.Random("recursive-walk")
    for _ in range(60):
        outer = sorted((rng.randint(0, 4) for _ in range(4)), reverse=True)
        inner = [rng.randint(0, part) for part in outer]
        inner = [min(inner[: i + 1]) for i in range(len(inner))]
        skew, max_entry = SkewShape(outer, inner), rng.randint(1, 4)
        want = recursive_row_words(skew, max_entry)
        assert [t.row_word() for t in enumerate_ssyt(skew, max_entry)] == want, (outer, inner)
        if len(want) > 1:
            monkeypatch.setenv("KR_ENERGY_GUARD", str(len(want) - 1))
            walk = enumerate_ssyt(skew, max_entry)
            assert [next(walk).row_word() for _ in want[:-1]] == want[:-1]
            with pytest.raises(EnumerationGuardError):
                next(walk)
            monkeypatch.delenv("KR_ENERGY_GUARD")


def test_enumerate_walks_a_thousand_cell_row_and_column():
    """A shape of 1,000 cells needs no recursion per cell: the one row
    with entries 1..2 has 1,001 fillings and the one column with entries
    1..1,000 has one."""
    assert count_ssyt(Shape((1000,)), 2) == 1001
    (column,) = enumerate_ssyt(Shape((1,) * 1000), 1000)
    assert column.row_word() == tuple(range(1, 1001))


def test_enumerate_lex_order_of_row_words():
    words = [t.row_word() for t in enumerate_ssyt(Shape((3, 2)), 3)]
    assert words == sorted(words)
    words = [t.row_word() for t in enumerate_ssyt(SkewShape((3, 2), (1,)), 3)]
    assert words == sorted(words)


def test_enumerate_yields_valid_tableaux():
    """enumerate_ssyt builds its tableaux without the checks of Ssyt; the
    checking constructor accepts every one of them and builds an equal
    tableau, on every skew shape in a 3 x 3 box with max entry <= 4 and
    on the energy staircases up to (n, m) = (3, 4)."""
    from krenergy.identities import box_skew_shapes

    cases = [(shape, k) for shape in box_skew_shapes(3, 3) for k in range(1, 5)]
    cases += [(energy_staircase_shape(n, m), m) for n in (2, 3) for m in (1, 2, 3, 4)]
    for shape, max_entry in cases:
        for t in enumerate_ssyt(shape, max_entry):
            assert Ssyt(t.shape, t.rows, t.max_entry) == t, (shape, max_entry)


def test_partitions_between_in_box():
    assert partitions_between((2, 2)) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert partitions_between(Shape((3, 2, 1)), (2, 2)) == [
        (2, 2, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1)
    ]
    # trailing zero rows of outer are kept as rows
    assert partitions_between((1, 0), (1,)) == [(1, 0)]
    assert partitions_between(()) == [()]
    with pytest.raises(ValueError):
        partitions_between((1,), (2,))


def test_guard_trips(monkeypatch):
    monkeypatch.setenv("KR_ENERGY_GUARD", "7")
    with pytest.raises(EnumerationGuardError):
        list(enumerate_ssyt(Shape((2, 1)), 3))
    monkeypatch.setenv("KR_ENERGY_GUARD", "8")
    assert count_ssyt(Shape((2, 1)), 3) == 8
    assert len(list(enumerate_ssyt(Shape((2, 1)), 3))) == 8


def test_count_ssyt_matches_enumeration():
    from krenergy.identities import box_skew_shapes

    for shape in box_skew_shapes(3, 3):
        for m in range(1, 5):
            assert count_ssyt(shape, m) == sum(1 for _ in enumerate_ssyt(shape, m)), (shape, m)


def test_count_ssyt_builds_no_tableaux(monkeypatch):
    from krenergy import tableaux

    def refuse(*args, **kwargs):
        raise AssertionError("count_ssyt built a tableau")

    expected = sum(1 for _ in enumerate_ssyt(Shape((3, 2)), 4))
    monkeypatch.setattr(tableaux.Ssyt, "__init__", refuse)
    assert count_ssyt(Shape((3, 2)), 4) == expected == 60


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("KR_ENERGY_GUARD", "3")
    with pytest.raises(EnumerationGuardError):
        list(enumerate_ssyt(Shape((2, 1)), 3))
    with pytest.raises(EnumerationGuardError):
        count_ssyt(Shape((2, 1)), 3)
    monkeypatch.setenv("KR_ENERGY_GUARD", "0")
    with pytest.raises(ValueError):
        count_ssyt(Shape((2, 1)), 3)


def test_energy_staircase_count_is_closed_form():
    for n in (2, 3, 4):
        for m in (1, 2, 3, 4):
            shape = energy_staircase_shape(n, m)
            assert shape == (Shape(()) if m == 1 else staircase(m - 1, n - 1))
            assert energy_staircase_count(n, m) == count_ssyt(shape, m), (n, m)


def test_energy_staircase_shape_refuses_over_guard(monkeypatch):
    # 2^3 = 8 tableaux at n=2, m=3: refused at guard 7, as enumerate_ssyt would be
    monkeypatch.setenv("KR_ENERGY_GUARD", "7")
    with pytest.raises(EnumerationGuardError):
        energy_staircase_shape(2, 3)
    monkeypatch.setenv("KR_ENERGY_GUARD", "8")
    assert energy_staircase_shape(2, 3) == Shape((2, 1))


# ---------------------------------------------------------------------------
# tableau validation


def test_ssyt_rejects_bad_rows():
    with pytest.raises(ValueError):
        Ssyt(Shape((2,)), [(2, 1)], 3)


def test_ssyt_rejects_bad_columns():
    with pytest.raises(ValueError):
        Ssyt(Shape((1, 1)), [(1,), (1,)], 3)


def test_ssyt_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        Ssyt(Shape((1,)), [(4,)], 3)
    with pytest.raises(ValueError):
        Ssyt(Shape((1,)), [(0,)], 3)


def test_ssyt_rejects_wrong_row_lengths():
    with pytest.raises(ValueError):
        Ssyt(Shape((2, 1)), [(1,), (2,)], 3)


def test_ssyt_json_rows():
    t = Ssyt(SkewShape((3, 1), (1,)), [(1, 2), (1,)], 3)
    assert t.to_jsonable() == [[None, 1, 2], [1]]


# ---------------------------------------------------------------------------
# jeu de taquin


def test_rectify_two_row_example():
    t = Ssyt(SkewShape((6, 2), (2,)), [(1, 2, 2, 4), (1, 3)], 4)
    out = rectify(t)
    assert out.shape == SkewShape((5, 1))
    assert out.rows == ((1, 1, 2, 2, 4), (3,))


def test_rectify_straight_is_identity():
    t = Ssyt(Shape((2, 1)), [(1, 2), (2,)], 3)
    assert rectify(t) == t


def test_rectify_single_slide():
    t = Ssyt(SkewShape((2, 1), (1,)), [(1,), (2,)], 2)
    out = rectify(t)
    assert out.shape == SkewShape((1, 1))
    assert out.rows == ((1,), (2,))


def test_jdt_slide_rejects_non_corner():
    t = Ssyt(SkewShape((2, 1), (1,)), [(1,), (2,)], 2)
    with pytest.raises(ValueError):
        jdt_slide(t, (2, 1))


def rectify_all_orders(t):
    if t.shape.is_straight:
        return {t}
    out = set()
    for corner in inner_corners(t.shape):
        out |= rectify_all_orders(jdt_slide(t, corner))
    return out


def test_rectify_order_independent_exhaustive():
    cases = [
        ((3, 2), (1,), 3),
        ((3, 3), (2, 1), 3),
        ((3, 2, 1), (2, 1), 3),
        ((4, 3), (2, 2), 3),
        ((2, 2, 2), (1, 1), 3),
    ]
    for outer, inner, max_entry in cases:
        for t in enumerate_ssyt(SkewShape(outer, inner), max_entry):
            results = rectify_all_orders(t)
            assert len(results) == 1, t
            assert rectify(t, "se") == rectify(t, "nw") == results.pop()


def test_rectify_two_orders_on_larger_instances():
    skew = SkewShape((5, 4, 2), (3, 1))
    for t in itertools.islice(enumerate_ssyt(skew, 4), 40):
        assert rectify(t, "se") == rectify(t, "nw")
