"""Partitions, skew shapes, and semistandard Young tableaux.

Everything is drawn in English notation: row 1 is the top row and column
indices grow to the right.  Cells are addressed ``(i, j)`` with both
coordinates 1-based.  A cell ``(i, j)`` has content ``i - j``, so contents
increase going *down* a column; this is the negative of the more common
convention and is the one used throughout this package.

The enumeration of semistandard fillings is a row-major backtracking search
that yields tableaux in lexicographic order of the row-reading word, which
keeps golden tests stable; it builds them without re-running the checks of
``Ssyt``, which every other tableau passes.  ``partitions_between`` lists
the partitions between two nested shapes.  ``jdt_slide`` performs a single
jeu-de-taquin slide and ``rectify`` iterates slides until the shape is
straight.
``energy_staircase_shape`` gives the staircase of the energy formula and
refuses it up front when its closed-form tableau count exceeds the guard.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from itertools import product

from ._strict import decimal, ints

DEFAULT_GUARD = 10_000_000
GUARD_ENV_VAR = "KR_ENERGY_GUARD"


class EnumerationGuardError(RuntimeError):
    """Raised when a tableau enumeration would exceed its guard."""


def resolve_guard() -> int:
    """``KR_ENERGY_GUARD`` when set, else the default 10**7; a value that
    is not a positive decimal integer raises ``ValueError``."""
    env = os.environ.get(GUARD_ENV_VAR) or str(DEFAULT_GUARD)
    guard = decimal(env, GUARD_ENV_VAR, signed=False)
    if guard < 1:
        raise ValueError(f"{GUARD_ENV_VAR} must be a positive integer, got {env!r}")
    return guard


class Shape:
    """An integer partition.

    Parts must be weakly decreasing and nonnegative; trailing zeros are
    accepted and dropped, so ``Shape((2, 1, 0)) == Shape((2, 1))``.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = ints(parts, "parts")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    @classmethod
    def of(cls, value: Shape | Iterable[int]) -> Shape:
        return value if isinstance(value, Shape) else cls(value)

    def part(self, i: int) -> int:
        """Length of row ``i`` (1-based); 0 past the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> Shape:
        if not self.parts:
            return Shape()
        width = self.parts[0]
        # parts from a list, here and in staircase: the identity suite builds
        # these shapes at every point (see lsym.laplace_dets on tuple free lists)
        return Shape([sum(1 for p in self.parts if p > c) for c in range(width)])

    def contains(self, other: Shape) -> bool:
        return all(other.part(i) <= self.part(i) for i in range(1, len(other.parts) + 1))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Shape) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Shape", self.parts))

    def __repr__(self) -> str:
        return f"Shape({self.parts!r})"


def staircase(t: int, scale: int = 1) -> Shape:
    """The dilated staircase ``(scale*t, scale*(t-1), ..., scale)``."""
    if t < 1:
        raise ValueError(f"staircase side length must be >= 1, got {t}")
    if scale < 1:
        raise ValueError(f"staircase scale must be >= 1, got {scale}")
    return Shape([scale * k for k in range(t, 0, -1)])


def energy_staircase_count(n: int, m: int) -> int:
    """Number of semistandard tableaux of :func:`energy_staircase_shape`
    with entries in 1..m: ``n^(m(m-1)/2)``."""
    return n ** (m * (m - 1) // 2)


def energy_staircase_shape(n: int, m: int) -> Shape:
    """The energy's staircase ``(n-1) * staircase(m-1)``, empty when m = 1.

    Raises :class:`EnumerationGuardError` up front, before any work, when
    its tableaux with entries in 1..m (see :func:`energy_staircase_count`)
    outnumber the resolved guard (``KR_ENERGY_GUARD``): a size refusal that
    bounds every staircase computation, whether it enumerates the tableaux
    or not.
    """
    count = energy_staircase_count(n, m)
    guard = resolve_guard()
    if count > guard:
        raise EnumerationGuardError(
            f"the energy staircase for n={n}, m={m} has {count} tableaux, over the guard {guard}"
        )
    return Shape(()) if m == 1 else staircase(m - 1, n - 1)


class SkewShape:
    """A pair of nested partitions ``outer / inner``."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Shape | Iterable[int], inner: Shape | Iterable[int] = ()):
        self.outer = Shape.of(outer)
        self.inner = Shape.of(inner)
        if not self.outer.contains(self.inner):
            raise ValueError(f"inner shape {self.inner} not contained in outer {self.outer}")

    @classmethod
    def of(cls, value: SkewShape | Shape | Iterable[int]) -> SkewShape:
        if isinstance(value, SkewShape):
            return value
        return cls(Shape.of(value))

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def is_straight(self) -> bool:
        return self.inner.size == 0

    def row_bounds(self, i: int) -> tuple[int, int]:
        """Columns of row ``i`` run over ``inner.part(i) < j <= outer.part(i)``."""
        return self.inner.part(i), self.outer.part(i)

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells ``(i, j)`` in row-major order, 1-based."""
        for i in range(1, len(self.outer) + 1):
            lo, hi = self.row_bounds(i)
            for j in range(lo + 1, hi + 1):
                yield (i, j)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self) -> int:
        return hash(("SkewShape", self.outer.parts, self.inner.parts))

    def __repr__(self) -> str:
        return f"SkewShape({self.outer.parts!r}, {self.inner.parts!r})"


class Ssyt:
    """A semistandard filling of a skew shape.

    ``rows[i-1]`` lists the entries of the present cells of row ``i``, left
    to right.  Rows must weakly increase, columns must strictly increase,
    and every entry must lie in ``1..max_entry``.
    """

    __slots__ = ("shape", "rows", "max_entry")

    def __init__(
        self,
        shape: SkewShape | Shape | Iterable[int],
        rows: Iterable[Iterable[int]],
        max_entry: int,
    ):
        shape = SkewShape.of(shape)
        rows = tuple(ints(row, "entries") for row in rows)
        ints((max_entry,), "max_entry")
        if max_entry < 1:
            raise ValueError(f"max_entry must be positive, got {max_entry}")
        if len(rows) != len(shape.outer):
            raise ValueError(
                f"expected {len(shape.outer)} rows for shape {shape}, got {len(rows)}"
            )
        for i, row in enumerate(rows, start=1):
            lo, hi = shape.row_bounds(i)
            if len(row) != hi - lo:
                raise ValueError(f"row {i} has {len(row)} entries, expected {hi - lo}")
            for v in row:
                if not 1 <= v <= max_entry:
                    raise ValueError(f"entry {v} out of range 1..{max_entry}")
            for a, b in zip(row, row[1:]):
                if a > b:
                    raise ValueError(f"row {i} not weakly increasing: {row}")
        self.shape = shape
        self.rows = rows
        self.max_entry = max_entry
        for i in range(2, len(rows) + 1):
            lo, hi = shape.row_bounds(i)
            up_lo, up_hi = shape.row_bounds(i - 1)
            for j in range(lo + 1, hi + 1):
                if up_lo < j <= up_hi and self.entry(i - 1, j) >= self.entry(i, j):
                    raise ValueError(
                        f"column {j} not strictly increasing between rows {i - 1} and {i}"
                    )

    @classmethod
    def _trusted(
        cls, shape: SkewShape, rows: tuple[tuple[int, ...], ...], max_entry: int
    ) -> Ssyt:
        """A tableau already known to be semistandard, built without the checks."""
        self = object.__new__(cls)
        self.shape = shape
        self.rows = rows
        self.max_entry = max_entry
        return self

    def entry(self, i: int, j: int) -> int:
        """Entry at cell ``(i, j)``, absolute 1-based coordinates."""
        lo, hi = self.shape.row_bounds(i)
        if not lo < j <= hi:
            raise KeyError(f"cell ({i}, {j}) not in shape")
        return self.rows[i - 1][j - lo - 1]

    def row_word(self) -> tuple[int, ...]:
        """Entries read row by row, top to bottom, left to right."""
        return tuple(v for row in self.rows for v in row)

    def to_jsonable(self) -> list[list[int | None]]:
        """Rows as arrays, with ``null`` padding for inner (absent) cells."""
        out: list[list[int | None]] = []
        for i, row in enumerate(self.rows, start=1):
            lo = self.shape.inner.part(i)
            out.append([None] * lo + list(row))
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ssyt)
            and self.shape == other.shape
            and self.rows == other.rows
            and self.max_entry == other.max_entry
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.rows, self.max_entry))

    def __repr__(self) -> str:
        lines = []
        for i, row in enumerate(self.rows, start=1):
            pad = ". " * self.shape.inner.part(i)
            lines.append(pad + " ".join(str(v) for v in row))
        return "Ssyt:\n" + "\n".join(lines)


def _fillings(skew: SkewShape, max_entry: int) -> Iterator[list[int]]:
    """Row-major backtracking over the semistandard fillings of ``skew``.

    Yields the one shared list of entries, in row-reading order and then
    one 0, once per filling, in lexicographic order of that word; raises
    :class:`EnumerationGuardError` at filling number ``guard + 1``.
    """
    ints((max_entry,), "max_entry")
    if max_entry < 1:
        raise ValueError(f"max_entry must be positive, got {max_entry}")
    guard = resolve_guard()
    cells = list(skew.cells())
    ncells = len(cells)
    row_start: dict[int, int] = {}
    for pos, (i, j) in enumerate(cells):
        if i not in row_start:
            row_start[i] = pos

    left = [-1] * ncells
    above = [-1] * ncells
    hi = [max_entry] * ncells
    bottom = {j: i for i, j in cells}  # the last row of each column
    for pos, (i, j) in enumerate(cells):
        if j > skew.inner.part(i) + 1:
            left[pos] = pos - 1
        if i >= 2 and skew.inner.part(i - 1) < j <= skew.outer.part(i - 1):
            above[pos] = row_start[i - 1] + (j - skew.inner.part(i - 1) - 1)
        # a column of a skew shape has no gap: rows i+1..bottom[j] lie below
        hi[pos] -= bottom[j] - i

    # one cursor, not one recursion per cell, so deep shapes fit: a cell
    # entered going forward takes its least value, one backtracked into its
    # next value, and the cursor backs up from a cell past its largest;
    # a missing neighbour reads the sentinel entries[ncells] = 0
    entries = [0] * (ncells + 1)
    produced, pos, forward = 0, 0, True
    while pos >= 0:
        if pos == ncells:
            produced += 1
            if produced > guard:
                raise EnumerationGuardError(
                    f"enumeration of {skew} with max entry {max_entry} exceeded guard {guard}"
                )
            yield entries
            pos, forward = pos - 1, False
            continue
        if forward:
            entries[pos] = max(entries[left[pos]], entries[above[pos]] + 1)
        else:
            entries[pos] += 1
        forward = entries[pos] <= hi[pos]
        pos += 1 if forward else -1


def enumerate_ssyt(shape: SkewShape | Shape | Iterable[int], max_entry: int) -> Iterator[Ssyt]:
    """Yield every semistandard filling of ``shape`` with entries in 1..max_entry.

    Tableaux come out in lexicographic order of the row-reading word.  The
    empty shape yields exactly one empty tableau.  Raises
    :class:`EnumerationGuardError` when more tableaux than the guard would
    be produced (default 10**7, overridable via the KR_ENERGY_GUARD env
    var).  The fillings are semistandard by construction, so the tableaux
    are built without re-running the checks of ``Ssyt``.
    """
    skew = SkewShape.of(shape)
    spans = []
    pos = 0
    for i in range(1, len(skew.outer) + 1):
        lo, hi = skew.row_bounds(i)
        spans.append((pos, pos + hi - lo))
        pos += hi - lo
    trusted = Ssyt._trusted
    for entries in _fillings(skew, max_entry):
        yield trusted(skew, tuple(tuple(entries[a:b]) for a, b in spans), max_entry)


def count_ssyt(shape: SkewShape | Shape | Iterable[int], max_entry: int) -> int:
    """Number of semistandard fillings, without building any tableau."""
    return sum(1 for _ in _fillings(SkewShape.of(shape), max_entry))


def partitions_between(
    outer: Shape | Iterable[int], inner: Shape | Iterable[int] = ()
) -> list[tuple[int, ...]]:
    """Every partition nu with inner <= nu <= outer, in lexicographic order,
    each as a tuple of ``len(outer)`` parts (trailing zeros included)."""
    outer = tuple(outer)
    skew = SkewShape(outer, inner)
    rows = (range(lo, hi + 1) for lo, hi in map(skew.row_bounds, range(1, len(outer) + 1)))
    return [nu for nu in product(*rows) if all(a >= b for a, b in zip(nu, nu[1:]))]


def inner_corners(shape: SkewShape) -> list[tuple[int, int]]:
    """Inner corners: cells of the inner shape with nothing right or below."""
    inner = shape.inner
    corners = []
    for i in range(1, len(inner) + 1):
        if inner.part(i) > inner.part(i + 1):
            corners.append((i, inner.part(i)))
    return corners


def jdt_slide(t: Ssyt, corner: tuple[int, int]) -> Ssyt:
    """Perform one full jeu-de-taquin slide into the given inner corner."""
    if corner not in inner_corners(t.shape):
        raise ValueError(f"{corner} is not an inner corner of {t.shape}")
    outer = list(t.shape.outer.parts)
    inner = list(t.shape.inner.parts)
    grid: dict[tuple[int, int], int] = {}
    for (i, j) in t.shape.cells():
        grid[(i, j)] = t.entry(i, j)

    def outer_part(i: int) -> int:
        return outer[i - 1] if i <= len(outer) else 0

    i, j = corner
    while True:
        right = grid.get((i, j + 1)) if j + 1 <= outer_part(i) else None
        below = grid.get((i + 1, j)) if j <= outer_part(i + 1) else None
        if right is None and below is None:
            break
        if below is not None and (right is None or below <= right):
            grid[(i, j)] = below
            del grid[(i + 1, j)]
            i += 1
        else:
            grid[(i, j)] = right
            del grid[(i, j + 1)]
            j += 1

    outer[i - 1] -= 1
    ci, cj = corner
    inner[ci - 1] -= 1
    new_shape = SkewShape(Shape(outer), Shape(inner))
    rows = []
    for i in range(1, len(new_shape.outer) + 1):
        lo, hi = new_shape.row_bounds(i)
        rows.append(tuple(grid[(i, j)] for j in range(lo + 1, hi + 1)))
    return Ssyt(new_shape, rows, t.max_entry)


def rectify(t: Ssyt, corner_order: str = "se") -> Ssyt:
    """Jeu-de-taquin rectification to a straight shape.

    ``corner_order`` picks which inner corner to slide first at each step:
    ``"se"`` takes the bottom-most corner, ``"nw"`` the top-most.  The result
    is independent of the choice; tests exercise both orders.
    """
    if corner_order not in ("se", "nw"):
        raise ValueError(f"unknown corner order {corner_order!r}")
    while not t.shape.is_straight:
        corners = inner_corners(t.shape)
        corner = corners[-1] if corner_order == "se" else corners[0]
        t = jdt_slide(t, corner)
    return t
