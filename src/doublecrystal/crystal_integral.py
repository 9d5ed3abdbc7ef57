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

The integral part is `_climb`, one scan and move per line pair: it takes
the two lines as lists (a row pair as stored, a column pair read top to
bottom), reads them by index, keeps one counter of unmatched brackets,
forward for raising transfers and backward for lowering ones, and moves
each run as the scan finds it, or, to move the first k units, moves whole
runs after the scan and cuts the last one to the units left.  With it stay
`TransferRecord`, `_records` and `transfer_legal`, the literal definition
kept as an independent check.  `potential`, `climb`, `ladder` and `move`
are the ladder API of `crystal_binary`, built on this module's `_climb`,
`_units` and `_records`.  The reference reading, the full bracket string
of a pair, lives in the tests, which compare it with the scan.
"""

import sys
from operator import itemgetter
from typing import NamedTuple, Optional

from .crystal_binary import _kernel
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


def _climb(a: list, b: list, raising: bool, k: Optional[int] = None) -> list:
    """Climb the ladder of lines a, b (index, index+1 of a pair, in reading
    order) in place, from one counter scan by index (line a holds each
    step's '(' count, line b its ')' count): raising moves take the
    unmatched ')' from the right, found forward, lowering moves the
    unmatched '(' from the left, found backward.  A ')' matches any
    unmatched '(' before it, so the scan keeps only their number, the
    depth.  When k is None each run moves as the scan finds it; else,
    after the scan, the first runs move whole and the last one, cut to
    the k units left, ends the climb (all runs move when k exceeds their
    units).  Returns the (at, n) runs moved, in move order."""
    runs, depth, now = [], 0, k is None
    if raising:
        for at in range(len(a)):
            c = b[at]
            if c > depth:
                runs.append((at, c - depth))
                o = a[at]
                if now:
                    a[at] = o + c - depth
                    b[at] = depth
                depth = o
            else:
                depth += a[at] - c
        src, dst = b, a
    else:
        for at in range(len(a) - 1, -1, -1):
            o = a[at]
            if o > depth:
                runs.append((at, o - depth))
                c = b[at]
                if now:
                    a[at] = depth
                    b[at] = c + o - depth
                depth = c
            else:
                depth += b[at] - o
        src, dst = a, b
    if not runs:
        return runs
    runs.reverse()
    if now:
        return runs
    for i, (at, n) in enumerate(runs):
        if n >= k:
            # the last run: cut to the k units left
            if k > 0:
                src[at] -= k
                dst[at] += k
                runs[i] = (at, k)
                i += 1
            del runs[i:]
            return runs
        src[at] -= n
        dst[at] += n
        k -= n
    return runs


def _units(runs: list) -> int:
    """The units of (at, n) runs."""
    return sum(map(itemgetter(1), runs))


def _records(d: str, index: int, runs: list, h: int) -> list[TransferRecord]:
    """One record per unit transferred (h, the height, plays no role)."""
    return [TransferRecord(d, index, at) for at, n in runs for _ in range(n)]


potential, climb, ladder, move = _kernel(sys.modules[__name__], IntegralMatrix)
