"""Crystal operations on binary matrices.

A move interchanges one vertically or horizontally adjacent pair of
distinct bits, subject to prefix/suffix sum conditions that make at most
one move per direction possible between any two adjacent rows or columns.

All moves between one pair of lines follow one bracket matching (the
signature rule): read the pair in reading order, a row pair left to right
and a column pair bottom to top, writing '(' where a raising move (up,
left) may move the bit and ')' where a lowering move (down, right) may.
Successive raising moves flip the unmatched '(' from the left, successive
lowering moves the unmatched ')' from the right, so `ladder` applies any
number of them after one scan.

There is one scan per sense, `_steps`: it reads the two lines directly (a
row pair as stored, a column pair as two lists) and visits only their
unequal bits, forward with a stack of '(' for raising moves and backward
with a stack of ')' for lowering moves; `move`, `ladder`, `ladder_runs`
and `potential` all go through it.  `paren_profile` keeps the reference
reading, the full bracket string of the pair and both stacks in one
forward pass, which the tests compare with the scan.  `interchangeable`
is the literal one-move definition, kept as an independent check.
"""

from itertools import compress, count
from operator import ne
from typing import NamedTuple, Optional

from .matrices import BinaryMatrix

UP = "up"
DOWN = "down"
LEFT = "left"
RIGHT = "right"
DIRECTIONS = (UP, DOWN, LEFT, RIGHT)

ROWS = "rows"
COLS = "cols"


class MoveRecord(NamedTuple):
    direction: str
    index: int
    position: tuple[int, int]  # location of the bit '1' before the move


OPPOSITE = {UP: DOWN, DOWN: UP, LEFT: RIGHT, RIGHT: LEFT}


def interchangeable(m: BinaryMatrix, k: int, l: int, orientation: str) -> bool:
    """Whether the pair at (k,l)-(k+1,l) (vertical) or (k,l)-(k,l+1)
    (horizontal) may be interchanged."""
    if orientation == "vertical":
        if m[k, l] == m[k + 1, l]:
            return False
        # prefix sums strictly left of l: row k dominates row k+1
        s = 0
        for j in range(l - 1, -1, -1):
            s += m[k, j] - m[k + 1, j]
            if s < 0:
                return False
        # suffix sums strictly right of l: row k+1 dominates row k
        s = 0
        for j in range(l + 1, m.width):
            s += m[k, j] - m[k + 1, j]
            if s > 0:
                return False
        return True
    if orientation == "horizontal":
        if m[k, l] == m[k, l + 1]:
            return False
        # above k: column l+1 dominates column l
        s = 0
        for i in range(k - 1, -1, -1):
            s += m[i, l] - m[i, l + 1]
            if s > 0:
                return False
        # below k: column l dominates column l+1
        s = 0
        for i in range(k + 1, m.height):
            s += m[i, l] - m[i, l + 1]
            if s < 0:
                return False
        return True
    raise ValueError(f"unknown orientation: {orientation}")


def _pairs(rows, orientation: str, index: int) -> list[tuple[int, int]]:
    """Bit pairs of rows index, index+1 (left to right) or of columns
    index, index+1 (bottom to top), zero beyond the stored rectangle: the
    reference reading of `paren_profile`."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    h = len(rows)
    w = len(rows[0]) if rows else 0
    if orientation == ROWS:
        zero = (0,) * w
        return list(zip(rows[index] if index < h else zero,
                        rows[index + 1] if index + 1 < h else zero))
    if orientation == COLS:
        j = index
        if j + 1 < w:
            return [(r[j], r[j + 1]) for r in reversed(rows)]
        return [(r[j] if j < w else 0, 0) for r in reversed(rows)]
    raise ValueError(f"unknown orientation: {orientation}")


def _match(pairs) -> tuple[list[int], list[int]]:
    """Reading positions of the unmatched '(' (0 over 1) and ')' (1 over 0),
    both from one forward pass over every pair."""
    opens, closes = [], []
    for p, (a, b) in enumerate(pairs):
        if a != b:
            if b:
                opens.append(p)
            elif opens:
                opens.pop()
            else:
                closes.append(p)
    return opens, closes


def _lines(rows, d: str, index: int):
    """The two lines of the pair at index in reading order, zero beyond
    the stored rectangle: rows index, index+1 as stored (up, down), or
    columns index, index+1 as lists read bottom to top (left, right)."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    h = len(rows)
    if d in (UP, DOWN):
        if index + 1 < h:
            return rows[index], rows[index + 1]
        zero = (0,) * (len(rows[0]) if rows else 0)
        return rows[index] if index < h else zero, zero
    j = index
    w = len(rows[0]) if rows else 0
    if j + 1 < w:
        return [r[j] for r in reversed(rows)], [r[j + 1] for r in reversed(rows)]
    return [r[j] for r in reversed(rows)] if j < w else (0,) * h, (0,) * h


def _steps(rows, d: str, index: int) -> list[int]:
    """Columns (row pairs) or rows (column pairs) of the bits a full
    d-ladder at index moves, in move order: one scan of the unequal bits,
    forward keeping the unmatched '(' for raising moves, backward keeping
    the unmatched ')' for lowering moves."""
    if d not in DIRECTIONS:
        raise ValueError(f"unknown direction: {d}")
    a, b = _lines(rows, d, index)
    steps = []
    if d in (UP, LEFT):
        for p in compress(count(), map(ne, a, b)):
            if b[p]:
                steps.append(p)
            elif steps:
                steps.pop()
    else:
        for p in compress(count(len(a) - 1, -1), map(ne, reversed(a), reversed(b))):
            if a[p]:
                steps.append(p)
            elif steps:
                steps.pop()
    if d in (LEFT, RIGHT):
        last = len(rows) - 1
        return [last - p for p in steps]
    return steps


def _take(runs: list, k: int) -> list:
    """The (at, n) runs of the first k units of a ladder."""
    total = sum(n for _, n in runs)
    if not 0 <= k <= total:
        raise ValueError(f"cannot apply {k} moves: the potential is {total}")
    out = []
    for at, n in runs:
        if k <= 0:
            break
        out.append((at, min(n, k)))
        k -= n
    return out


def _shift(rows: list, d: str, index: int, runs: list) -> None:
    """Move n units per (at, n) run (at: the column of a row pair, the row
    of a column pair) between lines index and index+1 in direction d, in
    place, zero-padding the rows to the cells filled."""
    if not runs:
        return
    if d in (UP, DOWN):
        if d == DOWN and len(rows) == index + 1:
            rows.append([0] * len(rows[0]))
        src, dst = (rows[index + 1], rows[index]) if d == UP else (rows[index], rows[index + 1])
        for at, n in runs:
            src[at] -= n
            dst[at] += n
        return
    if d == RIGHT:
        for r in rows:
            r.extend([0] * (index + 2 - len(r)))
    src, dst = (index + 1, index) if d == LEFT else (index, index + 1)
    for at, n in runs:
        r = rows[at]
        r[src] -= n
        r[dst] += n


def potential(m: BinaryMatrix, d: str, index: int) -> int:
    """Number of times the directional move can be applied successively:
    the unmatched brackets of the pair that its moves flip."""
    return len(_steps(m.rows, d, index))


def _runs(rows, d: str, index: int) -> list[tuple[int, int]]:
    """`_steps` as (at, 1) runs, the form `_shift` takes."""
    return [(at, 1) for at in _steps(rows, d, index)]


def _records(d: str, index: int, runs: list) -> list[MoveRecord]:
    """One record per move: the cell of the bit '1' before it."""
    if d == UP:
        return [MoveRecord(d, index, (index + 1, at)) for at, _ in runs]
    if d == DOWN:
        return [MoveRecord(d, index, (index, at)) for at, _ in runs]
    if d == LEFT:
        return [MoveRecord(d, index, (at, index + 1)) for at, _ in runs]
    return [MoveRecord(d, index, (at, index)) for at, _ in runs]


def ladder_runs(rows: list, d: str, index: int, k: Optional[int] = None) -> list[tuple[int, int]]:
    """`ladder` in place on a list of row lists; returns the (at, n) runs
    moved in move order, at the column (row pairs) or row (column pairs)."""
    runs = _runs(rows, d, index)
    if k is not None:
        runs = _take(runs, k)
    _shift(rows, d, index, runs)
    return runs


def ladder(
    m: BinaryMatrix, d: str, index: int, k: Optional[int] = None
) -> tuple[BinaryMatrix, tuple[MoveRecord, ...]]:
    """Apply the first k moves (None: the whole potential) in direction d
    between lines index and index+1, matching brackets once.

    Returns the matrix and one record per move, in move order; the stored
    rectangle grows only to the cells the moves fill.  `move` is
    ladder(m, d, index, k=1).  Raises ValueError when k exceeds the
    potential or index is negative.
    """
    rows = [list(r) for r in m.rows]
    runs = ladder_runs(rows, d, index, k)
    return BinaryMatrix._wrap(tuple([*map(tuple, rows)])), tuple(_records(d, index, runs))


def move(m: BinaryMatrix, d: str, index: int) -> Optional[tuple[BinaryMatrix, MoveRecord]]:
    """Apply one raising/lowering move; None when none is possible."""
    runs = _runs(m.rows, d, index)
    if not runs:
        return None
    runs = _take(runs, 1)
    rows = [list(r) for r in m.rows]
    _shift(rows, d, index, runs)
    return BinaryMatrix._wrap(tuple([*map(tuple, rows)])), _records(d, index, runs)[0]


def paren_profile(m: BinaryMatrix, orientation: str, index: int):
    """Bracket string for a row pair (or column pair, read bottom to top).

    '(' marks a pair movable by the raising move of the orientation, ')'
    by the lowering move, '-' anything else.  Returns (string, unmatched
    open positions, unmatched close positions).  This is the reference
    reading: it shares no code with `_steps`, the scan moves run on.
    """
    pairs = _pairs(m.rows, orientation, index)
    opens, closes = _match(pairs)
    text = "".join("(" if (a, b) == (0, 1) else ")" if (a, b) == (1, 0) else "-" for a, b in pairs)
    return text, tuple(opens), tuple(closes)
