"""Schutzenberger duals of straight tableaux via opposite-direction
exhaustion, and rotation-complements inside a rectangle.

A straight tableau's encoding has all raising moves of one kind exhausted;
exhausting the opposite (lowering) kind instead, bounded by the encoding's
extent, yields the matrix encoding the dual tableau, whose chain is read
from reverted partial margins.

`dual` pays for little beyond the `decomposition` sweep: it pads each
chain member once to the number of rows k (reversing the padded members
on the inverse route), takes each column as the difference of two
neighbouring padded members, and reads the dual chain off the swept
matrix as running sums of its columns.  The swept chain is valid, so the
result is built by `Tableau._wrap`, which skips the checks that
`Tableau(...)` makes on a caller's chain; `verify.check_dual` runs them
on the result.
"""

from operator import add, sub

from .crystal_binary import DOWN, UP
from .decomposition import _sweep
from .matrices import BinaryMatrix, IntegralMatrix
from .shapes import REVERSE, REVERSE_TRANSPOSE, SST, TRANSPOSE, Tableau, part, trim

DUAL_FLAVOR = {
    SST: REVERSE,
    REVERSE: SST,
    TRANSPOSE: REVERSE_TRANSPOSE,
    REVERSE_TRANSPOSE: TRANSPOSE,
}


def dual(t: Tableau) -> Tableau:
    """The Schutzenberger dual: same weight, opposite (reverse) flavor.

    A forward flavor encodes to a raising-exhausted matrix, whose column j
    is chain[j+1] - chain[j] (SST, integral) or chain[j] - chain[j+1]
    (REVERSE_TRANSPOSE, binary), which is then exhausted downward within
    its k stored rows; the dual chain is read as reverted partial row sums.
    A reverse flavor runs the inverse route: it encodes its reverted chain,
    exhausts upward and reads the partial row sums as they are.

    The chain is padded once to k = len(t.outer) parts (and reversed, which
    is `revert` for members of at most k parts, on the inverse route), and
    the partial row sums are running sums of the swept matrix's columns,
    from the right for SST and TRANSPOSE.
    """
    if not t.is_straight():
        raise ValueError("the dual is defined for straight tableaux")
    k = len(t.outer)
    forward = t.flavor in (SST, REVERSE_TRANSPOSE)
    matrix_type = IntegralMatrix if t.flavor in (SST, REVERSE) else BinaryMatrix
    chain = [c + (0,) * (k - len(c)) for c in t.chain]
    if not forward:
        chain = [c[::-1] for c in chain]
    # a valid chain grows (SST, TRANSPOSE) or shrinks (the reverse flavors)
    small, big = (chain[1:], chain) if t.reverse else (chain, chain[1:])
    cols = [[*map(sub, b, a)] for a, b in zip(small, big)]
    # differences of nested partitions (0/1 across vertical strips): the
    # entries of a canonical k x n matrix of the flavor's mode
    p, _ = _sweep(matrix_type._wrap(tuple([*zip(*cols)])), (DOWN,) if forward else (UP,))
    cols = [*zip(*p.rows)]
    suffix = t.flavor in (SST, TRANSPOSE)
    if suffix:
        cols.reverse()
    s = (0,) * k
    sums = [s]
    for c in cols:
        s = tuple([*map(add, s, c)])
        sums.append(s)
    if suffix:
        sums.reverse()
    # each sum is a partition padded to k parts (reversed on the forward
    # route), so once in order its zeros are its last parts
    chain = [(s[::-1] if forward else s)[:k - s.count(0)] for s in sums]
    return Tableau._wrap(DUAL_FLAVOR[t.flavor], chain)


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
