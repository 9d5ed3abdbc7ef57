"""Crystal operations on integral matrices.

The basic operation transfers units between adjacent entries; legality
compares staggered partial sums (row i against row i+1 shifted one column,
and transposed for column moves).  Unit transfers in a fixed direction
between a fixed pair of rows or columns happen at a unique position,
given by a bracket matching: per column of a row pair (row of a column
pair, read top to bottom), line index+1 gives that many ')' and then line
index that many '('.  Raising transfers (up, left) flip the unmatched ')'
from the right, lowering transfers the unmatched '(' from the left, so
`ladder` applies any number of them after one scan.

The integral part is the scan, `_runs`: it reads the two lines directly
(a row pair as stored, a column pair as two lists) and keeps one counter
of unmatched brackets, forward for raising transfers and backward for
lowering ones.  With it stay `TransferRecord`, `_records` and
`transfer_legal`, the literal definition kept as an independent check.
`potential`, `ladder_runs`, `ladder` and `move` are the ladder layer of
`crystal_binary`, built on this module's `_runs`, `_units` and
`_records`.  The reference reading, the full bracket string of a pair,
lives in the tests, which compare it with the scan.
"""

import sys
from itertools import count
from operator import itemgetter
from typing import NamedTuple

# the ladder layer reads _take and _shift from this module at each call
from .crystal_binary import DIRECTIONS, LEFT, UP, _kernel, _lines, _shift, _take
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
    a, b = _lines(rows, d, index, False)  # a column pair is read top to bottom
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


def _units(rows, d: str, index: int) -> int:
    """The units a full d-ladder at index transfers: the sum of its runs."""
    return sum(map(itemgetter(1), _runs(rows, d, index)))


def _records(d: str, index: int, runs: list) -> list[TransferRecord]:
    """One record per unit transferred."""
    return [TransferRecord(d, index, at) for at, n in runs for _ in range(n)]


potential, ladder_runs, ladder, move = _kernel(sys.modules[__name__], IntegralMatrix)
