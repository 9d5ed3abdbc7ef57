"""Crystal operations on integral matrices.

The basic operation transfers units between adjacent entries; legality
compares staggered partial sums (row i against row i+1 shifted one column,
and transposed for column moves).  Unit transfers in a fixed direction
between a fixed pair of rows or columns happen at a unique position,
given by the bracket matching of `paren_profile`: raising transfers (up,
left) flip the unmatched ')' from the right, lowering transfers the
unmatched '(' from the left, so `ladder` applies any number of them after
one scan.

There is one scan per sense, `_runs`: it reads the two lines directly (a
row pair as stored, a column pair as two lists) and keeps one counter of
unmatched brackets, forward for raising transfers and backward for
lowering ones; `move`, `ladder`, `ladder_runs` and `potential` all go
through it.  `paren_profile` keeps the reference reading, the bracket
string of the pair and both counter scans over its (')', '(') counts,
which the tests compare with the scan.  `transfer_legal` is the literal
definition, kept as an independent check.
"""

from itertools import count
from typing import NamedTuple, Optional

from .crystal_binary import DIRECTIONS, DOWN, LEFT, RIGHT, UP, _shift, _take
from .matrices import IntegralMatrix

ROWS = "rows"
COLS = "cols"


class TransferRecord(NamedTuple):
    direction: str
    index: int
    at: int  # column (row moves) or row (column moves) of the transfer
    amount: int = 1


def transfer_legal(m: IntegralMatrix, axis: str, pair: int, at: int, amount: int) -> bool:
    """Literal legality test for transferring `amount` units (sign = sense).

    axis=rows: between rows pair,pair+1 in column `at`; positive amounts
    move up.  axis=cols: between columns pair,pair+1 in row `at`; positive
    amounts move left.
    """
    if amount == 0:
        raise ValueError("amount must be nonzero")
    if axis == COLS:
        return transfer_legal(m.transpose(), ROWS, pair, at, amount)
    if axis != ROWS:
        raise ValueError(f"unknown axis: {axis}")
    k, l, a = pair, at, amount
    w = m.width
    if l == 0:
        if m[k + 1, 0] < a:
            return False
    else:
        s = 0
        for j in range(l - 1, -1, -1):
            s += m[k + 1, j + 1] - m[k, j]
            if s < max(a, 0):
                return False
    s = 0
    for lp in range(l + 1, max(w, l + 1) + 2):
        s += m[k, lp - 1] - m[k + 1, lp]
        if s < max(-a, 0):
            return False
    return True


def _units(rows, axis: str, index: int) -> list[tuple[int, int]]:
    """Per reading step of the pair, the counts of ')' then '(': for rows
    index, index+1 column by column (m[i+1,j], m[i,j]); for columns
    index, index+1 row by row (m[i,j+1], m[i,j]).  Zero beyond the stored
    rectangle.  The reference reading of `paren_profile`."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    h = len(rows)
    w = len(rows[0]) if rows else 0
    if axis == ROWS:
        zero = (0,) * w
        return list(zip(rows[index + 1] if index + 1 < h else zero,
                        rows[index] if index < h else zero))
    if axis == COLS:
        j = index
        if j + 1 < w:
            return [(r[j + 1], r[j]) for r in rows]
        # a matrix without columns has no column pair to read
        return [(0, r[j] if j < w else 0) for r in rows] if w else []
    raise ValueError(f"unknown axis: {axis}")


def _closes(units) -> list[tuple[int, int]]:
    """(step, count) of the unmatched ')', left to right: each ')' matches
    the nearest unmatched '(' before it, so only their number matters."""
    depth, closes = 0, []
    for step, (c, o) in enumerate(units):
        if c > depth:
            closes.append((step, c - depth))
            depth = o
        else:
            depth += o - c
    return closes


def _opens(units) -> list[tuple[int, int]]:
    """(step, count) of the unmatched '(', left to right: the scan of
    `_closes` read backwards."""
    depth, opens = 0, []
    for step in range(len(units) - 1, -1, -1):
        c, o = units[step]
        if o > depth:
            opens.append((step, o - depth))
            depth = c
        else:
            depth += c - o
    opens.reverse()
    return opens


def _lines(rows, d: str, index: int):
    """The two lines of the pair at index in reading order, zero beyond
    the stored rectangle: rows index, index+1 as stored (up, down), or
    columns index, index+1 as lists read top to bottom (left, right)."""
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
        return [r[j] for r in rows], [r[j + 1] for r in rows]
    return [r[j] for r in rows] if j < w else (0,) * h, (0,) * h


def _runs(rows, d: str, index: int) -> list:
    """(column or row, units) of the transfers a full d-ladder at index
    makes, in move order, from one counter scan of the pair (line index
    holds each step's '(' count, line index+1 its ')' count): raising
    moves take the unmatched ')' from the right, found forward, lowering
    moves the unmatched '(' from the left, found backward.  A ')' matches
    any unmatched '(' before it, so the scan keeps only their number, the
    depth."""
    if d not in DIRECTIONS:
        raise ValueError(f"unknown direction: {d}")
    a, b = _lines(rows, d, index)
    runs, depth = [], 0
    if d in (UP, LEFT):
        for at, o, c in zip(count(), a, b):
            if c > depth:
                runs.append((at, c - depth))
                depth = o
            else:
                depth += o - c
    else:
        for at, o, c in zip(count(len(a) - 1, -1), reversed(a), reversed(b)):
            if o > depth:
                runs.append((at, o - depth))
                depth = c
            else:
                depth += c - o
    runs.reverse()
    return runs


def potential(m: IntegralMatrix, d: str, index: int) -> int:
    """Number of successive unit transfers possible in the direction: the
    unmatched brackets of the pair that its transfers flip."""
    return sum(n for _, n in _runs(m.rows, d, index))


def _records(d: str, index: int, runs: list) -> list[TransferRecord]:
    """One record per unit transferred."""
    return [TransferRecord(d, index, at) for at, n in runs for _ in range(n)]


def ladder_runs(rows: list, d: str, index: int, k: Optional[int] = None) -> list[tuple[int, int]]:
    """`ladder` in place on a list of row lists; returns the (at, units)
    runs transferred in move order, at the column (row pairs) or row
    (column pairs)."""
    runs = _runs(rows, d, index)
    if k is not None:
        runs = _take(runs, k)
    _shift(rows, d, index, runs)
    return runs


def ladder(
    m: IntegralMatrix, d: str, index: int, k: Optional[int] = None
) -> tuple[IntegralMatrix, tuple[TransferRecord, ...]]:
    """Apply the first k unit transfers (None: the whole potential) in
    direction d between lines index and index+1, matching brackets once.

    Returns the matrix and one record per unit, in move order; the stored
    rectangle grows only to the cells the transfers fill.  `move` is
    ladder(m, d, index, k=1).  Raises ValueError when k exceeds the
    potential or index is negative.
    """
    rows = [list(r) for r in m.rows]
    runs = ladder_runs(rows, d, index, k)
    return IntegralMatrix._wrap(tuple([*map(tuple, rows)])), tuple(_records(d, index, runs))


def move(m: IntegralMatrix, d: str, index: int) -> Optional[tuple[IntegralMatrix, TransferRecord]]:
    """Apply one unit transfer in the direction; None when none is legal."""
    runs = _runs(m.rows, d, index)
    if not runs:
        return None
    runs = _take(runs, 1)
    rows = [list(r) for r in m.rows]
    _shift(rows, d, index, runs)
    return IntegralMatrix._wrap(tuple([*map(tuple, rows)])), _records(d, index, runs)[0]


def paren_profile(m: IntegralMatrix, axis: str, index: int):
    """Bracket string for a pair of rows (or of columns, read top to bottom).

    Per column j, emit m[i+1,j] symbols ')' then m[i,j] symbols '(' so
    that '(' units of row i may match ')' units of row i+1 one column to
    the right.  Unmatched ')' count the up potential, unmatched '(' the
    down potential.  Returns (string, column separator positions,
    unmatched '(' positions, unmatched ')' positions).  This is the
    reference reading: it shares no code with `_runs`, the scan transfers
    run on.
    """
    units = _units(m.rows, axis, index)
    opens, closes = _opens(units), _closes(units)
    sym, seps, starts = [], [], []
    for c, o in units:
        starts.append(len(sym) + c)  # position of the step's first '('
        sym.extend(")" * c + "(" * o)
        seps.append(len(sym))
    # a step's unmatched '(' are its first ones, its unmatched ')' its last
    open_un = tuple(starts[step] + u for step, n in opens for u in range(n))
    close_un = tuple(starts[step] - n + u for step, n in closes for u in range(n))
    return "".join(sym), tuple(seps[:-1]), open_un, close_un
