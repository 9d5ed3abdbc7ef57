"""Crystal operations on integral matrices.

The basic operation transfers units between adjacent entries; legality
compares staggered partial sums (row i against row i+1 shifted one column,
and transposed for column moves).  Unit transfers in a fixed direction
between a fixed pair of rows or columns happen at a unique position,
given by the bracket matching of `paren_profile`: raising transfers (up,
left) flip the unmatched ')' from the right, lowering transfers the
unmatched '(' from the left, so `ladder` applies any number of them after
one scan.  `transfer_legal` is the literal definition, kept as an
independent check.
"""

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
    rectangle."""
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


def _match(units) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Unmatched brackets, each ')' matching the nearest unmatched '('
    before it: [step, count] of the '(' and (step, count) of the ')'."""
    opens, closes = [], []
    for step, (c, o) in enumerate(units):
        while c and opens:
            top = opens[-1]
            if top[1] > c:
                top[1] -= c
                c = 0
            else:
                c -= top[1]
                opens.pop()
        if c:
            closes.append((step, c))
        if o:
            opens.append([step, o])
    return opens, closes


def _runs(rows, d: str, index: int) -> list:
    """(column or row, units) of the transfers a full d-ladder at index
    makes, in move order: raising moves take the unmatched ')' from the
    right, lowering moves the unmatched '(' from the left."""
    if d not in DIRECTIONS:
        raise ValueError(f"unknown direction: {d}")
    opens, closes = _match(_units(rows, ROWS if d in (UP, DOWN) else COLS, index))
    return closes[::-1] if d in (UP, LEFT) else opens


def potential(m: IntegralMatrix, d: str, index: int) -> int:
    """Number of successive unit transfers possible in the direction: the
    unmatched brackets of the pair that its transfers flip."""
    return sum(n for _, n in _runs(m.rows, d, index))


def ladder_rows(rows: list, d: str, index: int, k: Optional[int] = None) -> list[TransferRecord]:
    """`ladder` in place on a list of row lists; returns the records."""
    steps = _take([at for at, n in _runs(rows, d, index) for _ in range(n)], k)
    _shift(rows, d, index, steps)
    return [TransferRecord(d, index, at) for at in steps]


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
    records = tuple(ladder_rows(rows, d, index, k))
    return IntegralMatrix._wrap(tuple(map(tuple, rows))), records


def move(m: IntegralMatrix, d: str, index: int) -> Optional[tuple[IntegralMatrix, TransferRecord]]:
    """Apply one unit transfer in the direction; None when none is legal."""
    if not potential(m, d, index):
        return None
    out, (rec,) = ladder(m, d, index, 1)
    return out, rec


def paren_profile(m: IntegralMatrix, axis: str, index: int):
    """Bracket string for a pair of rows (or of columns, read top to bottom).

    Per column j, emit m[i+1,j] symbols ')' then m[i,j] symbols '(' so
    that '(' units of row i may match ')' units of row i+1 one column to
    the right.  Unmatched ')' count the up potential, unmatched '(' the
    down potential.  Returns (string, column separator positions,
    unmatched '(' positions, unmatched ')' positions).
    """
    units = _units(m.rows, axis, index)
    opens, closes = _match(units)
    sym, seps, starts = [], [], []
    for c, o in units:
        starts.append(len(sym) + c)  # position of the step's first '('
        sym.extend(")" * c + "(" * o)
        seps.append(len(sym))
    # a step's unmatched '(' are its first ones, its unmatched ')' its last
    open_un = tuple(starts[step] + u for step, n in opens for u in range(n))
    close_un = tuple(starts[step] - n + u for step, n in closes for u in range(n))
    return "".join(sym), tuple(seps[:-1]), open_un, close_un
