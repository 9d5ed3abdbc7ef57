"""Crystal operations on binary matrices, and the ladder layer that both
crystals share.

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

The binary part is the scan, `_steps`: it reads the two lines directly
(a row pair as stored, a column pair as two lists) and visits only their
unequal bits, forward with a stack of '(' for raising moves and backward
with a stack of ')' for lowering moves.  With it stay `MoveRecord`,
`_records` and `interchangeable`, the literal one-move definition kept as
an independent check.

The ladder layer is written here once for both crystals: `_lines` reads
the two lines of a pair (a column pair bottom to top for binary, top to
bottom for integral), `_take` cuts a ladder to its first k units, `_shift`
moves its units in place, and `_kernel` builds `potential`,
`ladder_runs`, `ladder` and `move` of a mode module on the module's own
`_runs`, `_units` and `_records` (binary `_units` counts the steps of the
scan without building runs).  The reference reading, the full bracket string
of a pair, lives in the tests, which compare it with the scan.
"""

import sys
from itertools import compress, count
from operator import ne
from typing import NamedTuple, Optional

from .matrices import BinaryMatrix

UP = "up"
DOWN = "down"
LEFT = "left"
RIGHT = "right"
DIRECTIONS = (UP, DOWN, LEFT, RIGHT)

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


def _lines(rows, d: str, index: int, upward: bool):
    """The two lines of the pair at index in reading order, zero beyond
    the stored rectangle: rows index, index+1 as stored (up, down), or
    columns index, index+1 as lists (left, right), read bottom to top if
    upward, else top to bottom."""
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
    if upward:
        rows = rows[::-1]
    if j + 1 < w:
        return [r[j] for r in rows], [r[j + 1] for r in rows]
    return [r[j] for r in rows] if j < w else (0,) * h, (0,) * h


def _steps(rows, d: str, index: int) -> list[int]:
    """Columns (row pairs) or rows (column pairs) of the bits a full
    d-ladder at index moves, in move order: one scan of the unequal bits,
    forward keeping the unmatched '(' for raising moves, backward keeping
    the unmatched ')' for lowering moves."""
    if d not in DIRECTIONS:
        raise ValueError(f"unknown direction: {d}")
    a, b = _lines(rows, d, index, True)  # a column pair is read bottom to top
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


def _runs(rows, d: str, index: int) -> list[tuple[int, int]]:
    """`_steps` as (at, 1) runs, the form `_shift` takes."""
    return [(at, 1) for at in _steps(rows, d, index)]


def _units(rows, d: str, index: int) -> int:
    """The units a full d-ladder at index moves: one per step."""
    return len(_steps(rows, d, index))


def _records(d: str, index: int, runs: list) -> list[MoveRecord]:
    """One record per move: the cell of the bit '1' before it."""
    if d == UP:
        return [MoveRecord(d, index, (index + 1, at)) for at, _ in runs]
    if d == DOWN:
        return [MoveRecord(d, index, (index, at)) for at, _ in runs]
    if d == LEFT:
        return [MoveRecord(d, index, (at, index + 1)) for at, _ in runs]
    return [MoveRecord(d, index, (at, index)) for at, _ in runs]


def _kernel(mode, matrix_class):
    """`potential`, `ladder_runs`, `ladder` and `move` of a mode module:
    its `_runs` gives a full ladder's (at, n) runs in move order (at: the
    column of a row pair, the row of a column pair), its `_units` their
    total units from the same scan, its `_records` one record per unit.
    They, `_take` and `_shift` are read from the module at each call."""

    def potential(m, d: str, index: int) -> int:
        """Number of moves that can be applied successively in direction d
        between lines index and index+1: the unmatched brackets of the
        pair that its moves flip."""
        return mode._units(m.rows, d, index)

    def ladder_runs(rows: list, d: str, index: int, k: Optional[int] = None) -> list:
        """`ladder` in place on a list of row lists; returns the (at, n)
        runs moved in move order."""
        runs = mode._runs(rows, d, index)
        if k is not None:
            runs = mode._take(runs, k)
        mode._shift(rows, d, index, runs)
        return runs

    def ladder(m, d: str, index: int, k: Optional[int] = None) -> tuple:
        """Apply the first k moves (None: the whole potential) in direction
        d between lines index and index+1, matching brackets once.

        Returns the matrix and one record per move, in move order; the
        stored rectangle grows only to the cells the moves fill.  `move`
        is ladder(m, d, index, k=1).  Raises ValueError when k exceeds the
        potential or index is negative.
        """
        rows = [list(r) for r in m.rows]
        runs = ladder_runs(rows, d, index, k)
        return matrix_class._from_lists(rows), tuple(mode._records(d, index, runs))

    def move(m, d: str, index: int) -> Optional[tuple]:
        """Apply one move in direction d between lines index and index+1;
        None when none is possible."""
        runs = mode._runs(m.rows, d, index)
        if not runs:
            return None
        runs = mode._take(runs, 1)
        rows = [list(r) for r in m.rows]
        mode._shift(rows, d, index, runs)
        return matrix_class._from_lists(rows), mode._records(d, index, runs)[0]

    return potential, ladder_runs, ladder, move


potential, ladder_runs, ladder, move = _kernel(sys.modules[__name__], BinaryMatrix)
