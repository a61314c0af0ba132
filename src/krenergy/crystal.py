"""Single-row crystals, the combinatorial R-matrix, and energy functions.

A single-row crystal element over the alphabet ``1..n`` is stored as its
letter counts: ``counts[c]`` is the number of letters ``c + 1``.  Color
arithmetic is cyclic; functions taking a color accept any integer and
reduce it mod ``n``, with the convention that the *letter* color ``r`` is
1-based (so color ``n`` and color ``0`` are the same letter).

The explicit R-matrix and the local coenergy both come from the piecewise
linear quantity ``ok``:

    ok_r(b1, b2) = min over 0 <= s <= n-1 of
        sum_{t=1..s} y2^(r+t-1)  +  sum_{t=s+1..n-1} y1^(r+t)

where ``y1, y2`` are the letter counts of ``b1, b2``.  This is the
tropicalization of the birational kappa, and the crystal states none of
these rules itself: on the grid columns of ``counts_to_grid``
(``x_i^(r) = counts[(r - i) mod n]``), ``ok``, ``r_matrix`` and
``intrinsic_energy`` are the kernels of ``krenergy.birational`` (kappa,
the move s_j and the energy walk) run in ``lsym.MIN_PLUS``, the one
algebra type's min-plus instance on plain ints; ``krenergy.verify`` runs
the same kernels in ``lsym.MIN_PLUS_ARRAY`` over many tensors at once.
The R-matrix and the coenergy also have slow tableau-based oracles (jeu
de taquin for the R-matrix, row sliding for the coenergy) used as
independent cross-checks.

``energy_staircase`` evaluates the tropical staircase formula: the minimum
over semistandard tableaux of the dilated staircase shape, with entries in
``1..m``, of the sum of grid values ``x_{T(i,j)}^{(i-j)}``.  The grid is the
change of variables ``x_i^{(r)} = z_i^{(r+1-i)}`` applied to letter counts.
That minimum is ``lsym.trop_eval`` of ``lsym.staircase_form``, the
exponent matrix of the staircase loop Schur polynomial, cached per (n, m)
without the polynomial, on the one tropical evaluation path; that
polynomial comes from a horizontal-strip DP, so no tableau is enumerated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate

from ._strict import decimal, json_int
from .birational import energy_walk, kappas, move
from .lsym import MIN_PLUS, staircase_form, trop_eval
from .tableaux import EnumerationGuardError, Shape, SkewShape, Ssyt, rectify


class CrystalElement:
    """A one-row tableau over ``1..n``, stored as letter counts."""

    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: Iterable[int]):
        if n < 2:
            raise ValueError(f"alphabet size must be at least 2, got {n}")
        counts = tuple(counts)
        if any(type(c) is not int for c in counts):
            raise TypeError(f"counts must be ints (not bools), got {counts!r}")
        if len(counts) != n:
            raise ValueError(f"expected {n} counts, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be nonnegative: {counts}")
        self.n = n
        self.counts = counts

    @classmethod
    def from_letters(cls, n: int, letters: Iterable[int]) -> CrystalElement:
        counts = [0] * n
        for v in letters:
            if not 1 <= v <= n:
                raise ValueError(f"letter {v} out of range 1..{n}")
            counts[v - 1] += 1
        return cls(n, counts)

    @classmethod
    def from_row(cls, n: int, word: str) -> CrystalElement:
        """Parse a row word like ``"1224"``; ASCII digits only, so requires
        n <= 9."""
        if n > 9:
            raise ValueError("row-word input only supported for n <= 9")
        return cls.from_letters(n, (decimal(ch, "a row letter", signed=False) for ch in word))

    def letters(self) -> tuple[int, ...]:
        """The weakly increasing row word."""
        out: list[int] = []
        for c, k in enumerate(self.counts):
            out.extend([c + 1] * k)
        return tuple(out)

    @property
    def capacity(self) -> int:
        return sum(self.counts)

    def count(self, r: int) -> int:
        """Number of letters of color ``r`` (any integer, mod n; 0 means n)."""
        return self.counts[(r - 1) % self.n]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CrystalElement)
            and self.n == other.n
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash(("CrystalElement", self.n, self.counts))

    def __repr__(self) -> str:
        word = "".join(str(v) for v in self.letters()) if self.n <= 9 else str(self.letters())
        return f"CrystalElement(n={self.n}, row={word!r})"


class TensorElement:
    """An ordered tensor product of single-row crystal elements."""

    __slots__ = ("n", "factors")

    def __init__(self, n: int, factors: Iterable[CrystalElement]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("tensor must have at least one factor")
        for b in factors:
            if b.n != n:
                raise ValueError(f"factor alphabet {b.n} does not match tensor alphabet {n}")
        self.n = n
        self.factors = factors

    @classmethod
    def from_counts(cls, n: int, counts: Iterable[Iterable[int]]) -> TensorElement:
        return cls(n, (CrystalElement(n, c) for c in counts))

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[str]) -> TensorElement:
        return cls(n, (CrystalElement.from_row(n, w) for w in rows))

    @property
    def m(self) -> int:
        return len(self.factors)

    def to_jsonable(self) -> dict:
        return {"n": self.n, "factors": [list(b.counts) for b in self.factors]}

    @classmethod
    def from_jsonable(cls, data: dict) -> TensorElement:
        """Parse ``{"n", "factors"}`` or ``{"n", "rows"}``; counts and n must be
        JSON integers, rows a list of strings."""
        if not isinstance(data, dict) or set(data) not in ({"n", "factors"}, {"n", "rows"}):
            raise ValueError(
                "tensor JSON must be an object with 'n' and one of 'factors' or 'rows'"
            )
        n = json_int(data["n"], "n")
        if "rows" in data:
            rows = data["rows"]
            if not isinstance(rows, list) or not all(isinstance(w, str) for w in rows):
                raise ValueError(f"rows must be a list of strings, got {rows!r}")
            return cls.from_rows(n, rows)
        return cls.from_counts(n, ([json_int(c, "count") for c in row] for row in data["factors"]))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.n == other.n
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash(("TensorElement", self.n, self.factors))

    def __repr__(self) -> str:
        return f"TensorElement(n={self.n}, factors={list(self.factors)!r})"


def _check_pair(b1: CrystalElement, b2: CrystalElement) -> int:
    if b1.n != b2.n:
        raise ValueError(f"mismatched alphabet sizes {b1.n} and {b2.n}")
    return b1.n


def _column(counts: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The letter counts of a factor as the grid column x_i of
    ``counts_to_grid``, ``x_i^(r) = counts[(r - i) mod n]``: the one
    statement of that change of variables."""
    k = -i % len(counts)
    return counts[k:] + counts[:k]


def _grid_columns(t: TensorElement) -> list[tuple[int, ...]]:
    """The factors as the grid columns x_1, ..., x_m."""
    return [_column(b.counts, i) for i, b in enumerate(t.factors, start=1)]


def _columns(b1: CrystalElement, b2: CrystalElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair as the grid columns x_0, x_1."""
    _check_pair(b1, b2)
    return _column(b1.counts, 0), _column(b2.counts, 1)


def ok(r: int, b1: CrystalElement, b2: CrystalElement) -> int:
    """The minimum defining the explicit R-matrix; ``r`` is a 1-based color.
    It is the min-plus kappa_{r-1} of the pair's grid columns."""
    return kappas(MIN_PLUS, *_columns(b1, b2))[(r - 1) % b1.n]


def r_matrix(b1: CrystalElement, b2: CrystalElement) -> tuple[CrystalElement, CrystalElement]:
    """The combinatorial R-matrix: the min-plus move s_j of the pair's grid
    columns, ``c1 = y2 + ok_{c+2} - ok_{c+1}`` and ``c2 = y1 - ok_{c+2} +
    ok_{c+1}`` on 0-based colors c.

    Returns ``(c1, c2)`` with ``|c1| = |b2|`` and ``|c2| = |b1|``; the total
    number of letters of each color is preserved.  Nothing is memoized:
    ``verify``'s braid suite runs the move over whole chunks of tensors,
    and every other caller meets a pair once or twice.  A negative count
    is a bug and raises ``RuntimeError``.
    """
    c1, x1 = move(MIN_PLUS, *_columns(b1, b2))  # c2 as the grid column x_1
    if min(c1 + x1) < 0:
        raise RuntimeError(
            f"R-matrix produced a negative count on {b1!r} x {b2!r}; this is a bug"
        )
    return CrystalElement(b1.n, c1), CrystalElement(b1.n, x1[1:] + x1[:1])


def two_row_tableau(bottom: CrystalElement, top: CrystalElement) -> Ssyt:
    """The skew tableau with ``bottom`` as row 2 and ``top`` as row 1,
    offset so the top row starts just past the bottom row."""
    n = _check_pair(bottom, top)
    lb, lt = bottom.capacity, top.capacity
    shape = SkewShape(Shape((lb + lt, lb)), Shape((lb,)))
    pieces = (top.letters(), bottom.letters())
    return Ssyt(shape, pieces[: len(shape.outer)], n)


def rectified_pair(b1: CrystalElement, b2: CrystalElement) -> Ssyt:
    """Rectification of the two-row tableau of a tensor pair ``b1 (x) b2``."""
    return rectify(two_row_tableau(b1, b2))


# the most work r_matrix_oracle takes on: its candidate pairs times the
# squared number of letters, about what one jeu-de-taquin rectification of
# a candidate costs (10**7 is up to about ten seconds)
ORACLE_GUARD = 10**7


def _compositions(total: list[int], size: int) -> Iterator[tuple[int, ...]]:
    """All count vectors c with 0 <= c <= total componentwise and sum(c) == size,
    in lexicographic order."""
    if not total:
        if size == 0:
            yield ()
        return
    rest = sum(total[1:])
    for v in range(max(0, size - rest), min(total[0], size) + 1):
        for tail in _compositions(total[1:], size - v):
            yield (v, *tail)


def _count_compositions(total: list[int], size: int) -> int:
    """How many vectors ``_compositions(total, size)`` yields, by a DP over
    the colors of the ways to reach each partial sum, without listing them."""
    ways = [1] + [0] * size
    for t in total:
        prefix = list(accumulate(ways, initial=0))
        ways = [prefix[s + 1] - prefix[max(0, s - t)] for s in range(size + 1)]
    return ways[size]


def r_matrix_oracle(
    b1: CrystalElement,
    b2: CrystalElement,
    rectified: Callable[[CrystalElement, CrystalElement], Ssyt] | None = None,
) -> tuple[CrystalElement, CrystalElement]:
    """The R-matrix by brute force over jeu-de-taquin rectifications.

    Searches every pair ``(c1, c2)`` with swapped capacities and the same
    total color content for the one whose two-row rectification matches that
    of ``(b1, b2)``.  Raises if the match is not unique (that would signal a
    bug, since the crystal isomorphism is unique), and raises
    :class:`EnumerationGuardError` before any rectification when the
    candidates times the squared number of letters exceed ``ORACLE_GUARD``.
    ``rectified`` stands for :func:`rectified_pair`: a caller that meets a
    pair again, as a target or a candidate, may pass a memo of it.
    """
    n = _check_pair(b1, b2)
    total = [b1.counts[c] + b2.counts[c] for c in range(n)]
    letters = b1.capacity + b2.capacity
    # b2's own counts are a candidate: a pair too long is refused uncounted
    too_long = letters**2 > ORACLE_GUARD
    if too_long or _count_compositions(total, b2.capacity) * letters**2 > ORACLE_GUARD:
        raise EnumerationGuardError(
            f"the R-matrix oracle would rectify a pair of {letters} letters once per "
            f"candidate, over its guard of {ORACLE_GUARD} (candidates x letters^2)"
        )
    rectified = rectified or rectified_pair
    target = rectified(b1, b2)
    matches: list[tuple[CrystalElement, CrystalElement]] = []
    for c1_counts in _compositions(total, b2.capacity):
        c1 = CrystalElement(n, c1_counts)
        c2 = CrystalElement(n, tuple(t - v for t, v in zip(total, c1_counts)))
        if rectified(c1, c2) == target:
            matches.append((c1, c2))
    if len(matches) != 1:
        raise RuntimeError(
            f"expected a unique rectification match for {b1!r} x {b2!r}, found {len(matches)}"
        )
    return matches[0]


def apply_s(t: TensorElement, j: int) -> TensorElement:
    """Apply the R-matrix to factors ``j`` and ``j+1`` (1-based)."""
    if not 1 <= j <= t.m - 1:
        raise ValueError(f"index {j} out of range 1..{t.m - 1}")
    c1, c2 = r_matrix(t.factors[j - 1], t.factors[j])
    factors = t.factors[: j - 1] + (c1, c2) + t.factors[j + 1 :]
    return TensorElement(t.n, factors)


def coenergy(b1: CrystalElement, b2: CrystalElement) -> int:
    """Local coenergy of the pair: ``ok_1(b1, b2)``."""
    return ok(1, b1, b2)


def coenergy_sliding_oracle(b1: CrystalElement, b2: CrystalElement) -> int:
    """Local coenergy as the maximal leftward slide of the top row.

    Place ``b2`` as the top row fully to the right of the bottom row ``b1``
    and return the largest shift that keeps every overlapped column strictly
    increasing downward.
    """
    _check_pair(b1, b2)
    bottom = b1.letters()
    top = b2.letters()
    lb, lt = len(bottom), len(top)
    for k in range(min(lb, lt), -1, -1):
        offset = lb - k
        if all(
            top[j - offset - 1] < bottom[j - 1]
            for j in range(offset + 1, min(lb, offset + lt) + 1)
        ):
            return k
    return 0


def intrinsic_energy(t: TensorElement) -> int:
    """Intrinsic energy: the sum over pairs i < j of the local coenergy of
    (factor j-1 of ``s_i s_{i+1} ... s_{j-2}`` applied to the tensor) with
    the original factor ``b_j``.  The transpositions are applied to the
    tensor left to right, ``s_i`` first.  Zero for a single factor.  It is
    the min-plus ``energy_walk`` of the tensor's grid columns.
    """
    return energy_walk(MIN_PLUS, _grid_columns(t))


class TropicalGrid:
    """Integer values for the variables ``x_i^{(r)}``, i in 1..m, r mod n."""

    __slots__ = ("m", "n", "values")

    def __init__(self, m: int, n: int, values: Iterable[Iterable[int]]):
        values = tuple(tuple(row) for row in values)
        if any(type(v) is not int for row in values for v in row):
            raise TypeError(f"grid values must be ints (not bools), got {values!r}")
        if len(values) != m or any(len(row) != n for row in values):
            raise ValueError(f"expected a {m} x {n} grid")
        self.m = m
        self.n = n
        self.values = values

    def value(self, i: int, r: int) -> int:
        """Value of ``x_i^{(r)}``; ``r`` is any integer, reduced mod n."""
        if not 1 <= i <= self.m:
            raise KeyError(f"variable row {i} out of range 1..{self.m}")
        return self.values[i - 1][r % self.n]

    def flat(self) -> tuple[int, ...]:
        """Row-major (i, r) flattening, matching monomial exponent order."""
        return tuple(v for row in self.values for v in row)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TropicalGrid)
            and (self.m, self.n, self.values) == (other.m, other.n, other.values)
        )

    def __hash__(self) -> int:
        return hash(("TropicalGrid", self.m, self.n, self.values))

    def __repr__(self) -> str:
        return f"TropicalGrid(m={self.m}, n={self.n}, values={self.values!r})"


def counts_to_grid(t: TensorElement) -> TropicalGrid:
    """The change of variables ``x_i^{(r)} = z_i^{(r+1-i)}`` on letter counts.

    ``z_i^{(c)}`` is the number of letters of color ``c`` in factor ``i``, so
    ``x_i^{(r)}`` counts the letters congruent to ``r - i + 1`` mod n.
    """
    return TropicalGrid(t.m, t.n, _grid_columns(t))


def energy_staircase(t: TensorElement) -> int:
    """Tropical staircase energy: the minimum over semistandard tableaux of
    shape ``(n-1) * staircase(m-1)`` with entries in 1..m of the sum of
    ``x_{T(i,j)}^{(i-j)}`` over cells, evaluated on :func:`counts_to_grid`.

    Returns 0 for a single factor (empty shape, empty sum).  Raises
    ``EnumerationGuardError`` before any work when the staircase has more
    tableaux than the guard allows.
    """
    return trop_eval(staircase_form(t.n, t.m), counts_to_grid(t))
