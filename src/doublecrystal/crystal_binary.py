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

The binary part is `_climb`, one scan and move per line pair: it takes
the two lines as lists (a row pair as stored, a column pair read bottom to
top), visits only their unequal bits, forward with a stack of '(' for
raising moves and backward with a stack of ')' for lowering moves, and
flips the first k bits left on the stack.  With it stay `MoveRecord`,
`_records` and `interchangeable`, the literal one-move definition kept as
an independent check.

The ladder API is written here once for both crystals: `_kernel` builds
`potential`, `climb`, `ladder` and `move` of a mode module on the
module's own `_climb`, `_units` and `_records`.  Each climbs copies of
the pair's two lines once; `climb` writes back just the lines or rows
that changed and shares every other row tuple with its input (for a row
pair, every row outside it; for a column pair, every row whose two
entries at the pair the moves left alone), and `ladder` and `move` are
`climb` plus their checks and records.  `_climb_pair` climbs a pair of a
list of line lists, growing it by the line the moves fill; the exhaustion
sweep and `compose` call it directly on row lists.  The reference
reading, the full bracket string of a pair, lives in the tests, which
compare it with the scan.
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


def _climb(a: list, b: list, raising: bool, k: Optional[int] = None) -> list[int]:
    """Climb the ladder of lines a, b (index, index+1 of a pair, in reading
    order) in place: one scan of their unequal bits, forward keeping the
    unmatched '(' for raising moves, backward keeping the unmatched ')'
    for lowering moves, then the bits left on the stack, the first k of
    them (all when k is None or exceeds them), are flipped.  Returns the
    reading positions moved, in move order."""
    stack = []
    if raising:
        for p in compress(count(), map(ne, a, b)):
            if b[p]:
                stack.append(p)
            elif stack:
                stack.pop()
    else:
        for p in compress(count(len(a) - 1, -1), map(ne, reversed(a), reversed(b))):
            if a[p]:
                stack.append(p)
            elif stack:
                stack.pop()
    if k is not None:
        del stack[k:]
    for p in stack:
        a[p], b[p] = b[p], a[p]
    return stack


_units = len  # one unit per position moved


def _records(d: str, index: int, moved: list, h: int) -> list[MoveRecord]:
    """One record per move, in move order: the cell of the bit '1' before
    it.  A column pair is read bottom to top, so its reading position p is
    row h - 1 - p."""
    if d == UP:
        return [MoveRecord(d, index, (index + 1, p)) for p in moved]
    if d == DOWN:
        return [MoveRecord(d, index, (index, p)) for p in moved]
    j = index + 1 if d == LEFT else index
    return [MoveRecord(d, index, (h - 1 - p, j)) for p in moved]


def _climb_pair(climb, lines: list, index: int, raising: bool, k: Optional[int] = None) -> list:
    """`climb` the pair at index of a list of line lists in place, zero
    beyond the stored lines: a second line beyond them is appended only
    when the climb fills it.  Returns what `climb` moved."""
    if index + 1 < len(lines):
        return climb(lines[index], lines[index + 1], raising, k)
    if index + 1 > len(lines):
        return []
    b = [0] * len(lines[index])
    moved = climb(lines[index], b, raising, k)
    if moved:
        lines.append(b)
    return moved


def _kernel(mode, matrix_class):
    """`potential`, `climb`, `ladder` and `move` of a mode module, on its
    `_climb`, `_units` (the units of what `_climb` moved) and `_records`,
    read from the module at each call.  A binary column pair is read
    bottom to top, an integral one top to bottom."""
    upward = matrix_class.binary

    def lines(rows, d: str, index: int) -> tuple[list, list]:
        """Copies of the two lines of the pair at index in reading order,
        zero beyond the stored rectangle."""
        if d not in DIRECTIONS:
            raise ValueError(f"unknown direction: {d}")
        if index < 0:
            raise ValueError(f"index must be nonnegative, got {index}")
        h = len(rows)
        w = len(rows[0]) if rows else 0
        if d in (UP, DOWN):
            zero = (0,) * w
            return list(rows[index] if index < h else zero), list(
                rows[index + 1] if index + 1 < h else zero)
        if upward:
            rows = rows[::-1]
        return ([r[index] for r in rows] if index < w else [0] * h,
                [r[index + 1] for r in rows] if index + 1 < w else [0] * h)

    def potential(m, d: str, index: int) -> int:
        """Number of moves that can be applied successively in direction d
        between lines index and index+1: the unmatched brackets of the
        pair that its moves flip."""
        return mode._units(mode._climb(*lines(m.rows, d, index), d in (UP, LEFT)))

    def climb(m, d: str, index: int, k: Optional[int] = None) -> tuple:
        """Climb the first k units (all when k is None or exceeds them) of
        the d-ladder at index on copies of the pair's two lines.  Returns
        the matrix with those two lines replaced, sharing every row tuple
        the moves leave unchanged (m itself when nothing moved; the stored
        rectangle grows only by a line the moves fill), and what `_climb`
        moved, positions in the pair's reading order.  Raises ValueError
        when k is negative."""
        if k is not None and k < 0:
            raise ValueError(f"cannot apply {k} moves: the potential is {potential(m, d, index)}")
        a, b = lines(m.rows, d, index)
        moved = mode._climb(a, b, d in (UP, LEFT), k)
        if not moved:
            return m, moved
        if d in (UP, DOWN):
            return matrix_class._wrap(
                m.rows[:index] + (tuple(a), tuple(b)) + m.rows[index + 2:]), moved
        rows = m.rows
        if index + 2 > len(rows[0]):
            # the pair's second column lies beyond the stored width
            rows = [r + (0,) for r in rows]
        if upward:
            a.reverse()
            b.reverse()
        # a move keeps the sum of its two entries, so a row whose first
        # entry is unchanged keeps its tuple
        return matrix_class._wrap(tuple([
            r if r[index] == x else r[:index] + (x, y) + r[index + 2:]
            for r, x, y in zip(rows, a, b)])), moved

    def ladder(m, d: str, index: int, k: Optional[int] = None) -> tuple:
        """Apply the first k moves (None: the whole potential) in direction
        d between lines index and index+1, matching brackets once.

        Returns the matrix and one record per move, in move order; the
        stored rectangle grows only to the cells the moves fill.  `move`
        is ladder(m, d, index, k=1).  Raises ValueError when k is negative
        or exceeds the potential, or index is negative.
        """
        out, moved = climb(m, d, index, k)
        if k is not None and mode._units(moved) < k:
            raise ValueError(f"cannot apply {k} moves: the potential is {mode._units(moved)}")
        return out, tuple(mode._records(d, index, moved, m.height))

    def move(m, d: str, index: int) -> Optional[tuple]:
        """Apply one move in direction d between lines index and index+1;
        None when none is possible."""
        out, moved = climb(m, d, index, 1)
        if not moved:
            return None
        return out, mode._records(d, index, moved, m.height)[0]

    return potential, climb, ladder, move


potential, climb, ladder, move = _kernel(sys.modules[__name__], BinaryMatrix)
