"""Schutzenberger duals of straight tableaux via opposite-direction
exhaustion, and rotation-complements inside a rectangle.

A straight tableau's encoding has all raising moves of one kind exhausted;
exhausting the opposite (lowering) kind instead, bounded by the encoding's
extent, yields the matrix encoding the dual tableau, whose chain is read
from reverted partial margins.
"""

from itertools import accumulate

from .crystal_binary import DOWN, UP
from .decomposition import _sweep
from .matrices import BinaryMatrix, IntegralMatrix
from .shapes import (
    REVERSE,
    REVERSE_TRANSPOSE,
    SST,
    TRANSPOSE,
    Tableau,
    part,
    revert,
    sub,
    trim,
)

DUAL_FLAVOR = {
    SST: REVERSE,
    REVERSE: SST,
    TRANSPOSE: REVERSE_TRANSPOSE,
    REVERSE_TRANSPOSE: TRANSPOSE,
}


def _column_diffs(chain, rows: int):
    """Matrix whose column j is chain[j] - chain[j+1] (decreasing chains)
    or chain[j+1] - chain[j]."""
    cols = []
    for a, b in zip(chain, chain[1:]):
        big, small = (a, b) if sum(a) >= sum(b) else (b, a)
        d = sub(big, small)
        cols.append(tuple(part(d, i) for i in range(rows)))
    return tuple(zip(*cols)) if cols else ()


def _partial_row_sums(m, k: int, n: int, suffix: bool):
    """Per j in 0..n, the trimmed row sums of m padded to k x n over the
    columns from j on (suffix) or before j, by one running sum per row."""
    sums = []
    for r in m.pad_to(k, n).rows:
        if suffix:
            s = list(accumulate(reversed(r), initial=0))
            s.reverse()
        else:
            s = list(accumulate(r, initial=0))
        sums.append(s)
    return [trim(s[j] for s in sums) for j in range(n + 1)]


def dual(t: Tableau) -> Tableau:
    """The Schutzenberger dual: same weight, opposite (reverse) flavor.

    A forward flavor encodes to a raising-exhausted matrix, whose column j
    is chain[j+1] - chain[j] (SST, integral) or chain[j] - chain[j+1]
    (REVERSE_TRANSPOSE, binary), which is then exhausted downward within
    its k stored rows; the dual chain is read as reverted partial row sums.
    A reverse flavor runs the inverse route: it encodes its reverted chain,
    exhausts upward and reads the partial row sums as they are.
    """
    if not t.is_straight():
        raise ValueError("the dual is defined for straight tableaux")
    k = len(t.outer)
    n = len(t.chain) - 1
    forward = t.flavor in (SST, REVERSE_TRANSPOSE)
    matrix_type = IntegralMatrix if t.flavor in (SST, REVERSE) else BinaryMatrix
    chain = t.chain if forward else [revert(c, k) for c in t.chain]
    p, _ = _sweep(matrix_type(_column_diffs(chain, k)), (DOWN,) if forward else (UP,))
    chain = _partial_row_sums(p, k, n, suffix=t.flavor in (SST, TRANSPOSE))
    if forward:
        chain = [revert(c, k) for c in chain]
    return Tableau(DUAL_FLAVOR[t.flavor], tuple(chain))


def rotate_complement(t: Tableau, rect: tuple[int, int]) -> Tableau:
    """Half-turn of the display inside the k x l rectangle: each chain
    member pi becomes rect - revert(pi, k).  Swaps forward and reverse."""
    k, l = rect
    chain = []
    for pi in t.chain:
        if len(pi) > k or part(pi, 0) > l:
            raise ValueError(f"shape {pi} does not fit in the {k} x {l} rectangle")
        rev = [part(pi, k - 1 - i) for i in range(k)]
        chain.append(trim(l - x for x in rev))
    flavor = DUAL_FLAVOR[t.flavor]
    return Tableau(flavor, tuple(chain))
