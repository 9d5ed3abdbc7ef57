"""Normal forms, exhaustion of crystal operations, and the decomposition
of a matrix into its pair (P, Q) of one-sided exhausted matrices.

Exhausting upward or leftward moves always terminates and the result is
independent of the order; downward/rightward exhaustion needs an index
bound k (moves dnm_i / rtm_j are attempted for i, j in [0, k-1) only).

One loop, `_sweep`, exhausts: it climbs each ladder at most once along a
fixed reduced word of the longest permutation, and by string
parametrization (Littelmann 1998; Berenstein-Zelevinsky 2001) reaches
the highest-weight (raising) or lowest-weight (lowering) element.
`exhaust` adds one record per unit move; every other caller, the
Schutzenberger dual included, reads the sweep's ladders directly.

(P, Q) takes one sweep, by the pass-count lemma.  Let T be the tableau Q
encodes: row j of binary Q is 1 on the columns of T's entries j, and
integral Q[j][r] counts the entries j in row r of T (r < the width).  Up
moves commute with left moves and keep their potentials, so m's up sweep
climbs the ladders of Q's, unit for unit, and an up move at index i acts
on T as the raising operator e_i, an entry i + 1 turned into i (the
bracket rule, `verify.check_crystal_operators`).  Lemma: the ladder at
index i in pass j - 1 moves u(j-1, i) units, the entries j in rows <= i
of T.  Proof: after passes 0..j-2 each entry v < j sits in row v.  Within
pass j - 1 values only fall, one index at a time: the ladder at index i
turns the entries i + 1 of rows <= i, the entries j fallen so far, into
i, since nothing after them in the reading word (rows bottom to top)
holds an i to pair with.  A cell already at its row's value cannot fall:
an entry i + 1 of row i + 1 pairs with the entry i above it, read later.
The pass stops where no entry j is left to fall.  So u(j-1, i) is 0 below
that index and for a pass that moved nothing, saturates at row sum j from
index j on (and, integral, at the width), and Q's row j is its sequence
of differences: `decompose` reads Q off P's own sweep, and `compose`
reads Q's ladders off its rows.  These amounts are the string parameters
of m along the word; for it the string cone is the Gelfand-Tsetlin cone
(Berenstein-Zelevinsky 2001).

Only what a caller supplies is checked (directions, bounds, a valid pair
for `compose`); the theorems on valid input are `verify.check_*`.
"""

from itertools import compress, count
from typing import Optional

from . import crystal_binary as cb
from . import crystal_integral as ci
from .crystal_binary import DIRECTIONS, DOWN, LEFT, RIGHT, UP, _climb_pair
from .matrices import Matrix, diagon, diagram
from .shapes import Partition, conjugate, is_partition, trim


class UsageError(ValueError):
    pass


class ComposeError(ValueError):
    pass


def _ops(m: Matrix):
    return cb if m.binary else ci


def apply_move(m: Matrix, d: str, index: int):
    """Dispatch a single move to the binary or integral rules."""
    return _ops(m).move(m, d, index)


def potential(m: Matrix, d: str, index: int) -> int:
    return _ops(m).potential(m, d, index)


def _index_limit(m: Matrix, d: str, bound: Optional[int]) -> int:
    """Ladders at this index and beyond are never climbed: past the stored
    rectangle for raising moves, which exhaust globally, and at bound - 1
    for lowering moves (the extent when bound is None)."""
    extent = m.height if d in (UP, DOWN) else m.width
    if bound is None or d in (UP, LEFT):
        bound = extent
    return max(bound - 1, 0)


def _directions(directions, bound: Optional[int]) -> tuple[str, ...]:
    """The directions in (up, down, left, right) order, checked."""
    given = list(directions)
    for d in given:
        if d not in DIRECTIONS:
            raise UsageError(f"unknown direction {d!r}")
    directions = tuple(d for d in DIRECTIONS if d in given)
    if not directions:
        raise UsageError("at least one direction is required")
    if {UP, DOWN} <= set(directions) or {LEFT, RIGHT} <= set(directions):
        raise UsageError("opposite directions undo each other; exhaust them separately")
    if bound is not None and bound < 1:
        raise UsageError(f"bound must be at least 1, got {bound}")
    return directions


def exhaust(m: Matrix, directions, bound: Optional[int] = None):
    """Apply moves from the given directions until none is possible.

    Canonical order, `_sweep`'s: directions in (up, down, left, right)
    order; per direction, passes top = 0, 1, ... climb the ladders at
    top, top-1, ... down to the first that does not move.  A pass ends
    with every ladder up to top exhausted, so each climb is at the lowest
    index admitting a move.  Moves of one axis leave the other axis's
    potentials unchanged; opposite directions undo each other and are
    rejected.  Returns (matrix, tuple of move records), one per unit move.
    """
    ops = _ops(m)
    out, ladders = _sweep(m, directions, bound)
    records = []
    for d, index, moved in ladders:
        # left and right moves do not change the height, so out.height is
        # the height at which the sweep read the column pairs
        records += ops._records(d, index, moved, out.height)
    return out, tuple(records)


def _sweep(m: Matrix, directions, bound: Optional[int] = None):
    """`exhaust`'s matrix, and its ladders instead of records.

    Climbs each ladder at most once along the reduced word of the longest
    permutation (0)(1 0)(2 1 0)...: for top in 0..`_index_limit`-1,
    indices top down to 0.  The maximal raising (lowering) power along any
    reduced word of the longest element reaches the highest (lowest)
    weight element (string parametrization: Littelmann, "Cones, crystals,
    and patterns", 1998; Berenstein-Zelevinsky 2001).  Each pass for top
    starts with indices 0..top-1 exhausted; once the ladder at index i
    does not move, lines 0..i are as the pass found them, so indices below
    i cannot move and the pass stops: at most (ladders climbed + limit)
    scans.  Returns (matrix, [(direction, index, moved), ...]) per ladder
    that moved, in climb order, moved as the mode's `_climb` returns it.

    Every ladder is one `_climb` of two row lists: of the matrix for up
    and down ladders, of a transposed copy for left and right ones (a
    column pair read from row lists costs two index lookups per row, a row
    pair none).  The copy's lines are the columns in reading order, bottom
    to top for binary (so binary position p is row h - 1 - p, h the height
    when the copy is made: a bounded down sweep before it may have added
    rows), top to bottom for integral.  A matrix without columns has no
    column pair that can move.
    """
    directions = _directions(directions, bound)
    climb = _ops(m)._climb
    rows = [list(r) for r in m.rows]
    ladders = []
    for d in directions:
        across = d in (LEFT, RIGHT)
        if across and not (rows and rows[0]):
            continue
        lines = [list(c) for c in zip(*(reversed(rows) if m.binary else rows))] if across else rows
        raising = d in (UP, LEFT)
        for top in range(_index_limit(m, d, bound)):
            for index in range(top, -1, -1):
                moved = _climb_pair(climb, lines, index, raising)
                if not moved:
                    break
                ladders.append((d, index, moved))
        if across:
            rows = [list(r) for r in zip(*lines)]
            if m.binary:
                rows.reverse()
    return type(m)._from_lists(rows), ladders


def is_normal(m: Matrix) -> Optional[Partition]:
    """The partition parametrising m when m = diagram(lam) or diagon(lam)."""
    lam = m.row_sums()
    if not is_partition(lam):
        return None
    target = diagram(lam) if m.binary else diagon(lam)
    return trim(lam) if m == target else None


def normal_form(m: Matrix) -> Partition:
    """The partition parametrising the up/left-exhausted form of m: the row
    sums of the up-exhausted matrix, since left moves keep row sums."""
    p, _ = _sweep(m, (UP,))
    return trim(p.row_sums())


def decompose(m: Matrix) -> tuple[Matrix, Matrix]:
    """The pair (P, Q): P exhausts upward moves, Q leftward moves.

    One sweep: P is `_sweep(m, (UP,))`, and Q, of m's stored h x w, is
    read off that sweep's ladders and m's row sums by the pass-count
    lemma (module docstring): the strip of entries j puts
    n_r = u(j-1, r) - u(j-1, r-1) cells in row r < j of the running shape
    and the rest of row sum j in row j.  Integral Q[j][r] is n_r; binary
    Q's row j is 1 on the columns [g_r, g_r + n_r) of each row r, g_r the
    length of row r before the strip.
    """
    p, ladders = _sweep(m, (UP,))
    units = _ops(m)._units
    # lifts[j]: u(j-1, i) for i = j - 1, j - 2, ... while pass j - 1 moved; a
    # pass starts at its top index, above the index the last one stopped at
    lifts = [[] for _ in m.rows]
    prev = -1
    for _, i, moved in ladders:
        if i > prev:
            top = i
        lifts[top + 1].append(units(moved))
        prev = i
    rows = [[0] * m.width for _ in m.rows]
    shape = [0] * m.height
    for j, s in enumerate(m.row_sums()):
        below = 0  # u(j-1, r-1)
        for r, u in enumerate([*reversed(lifts[j]), s], j - len(lifts[j])):
            n, below = u - below, u
            if not n:
                continue
            if m.binary:
                rows[j][shape[r]:shape[r] + n] = [1] * n
                shape[r] += n
            else:
                rows[j][r] = n
    return p, type(m)._from_lists(rows)


def _lifts(q: Matrix) -> list[tuple[int, int]]:
    """The (index, units) of `_sweep(q, (UP,))`'s ladders, in climb order,
    read forward from Q's rows by the pass-count lemma: pass j - 1 climbs
    index i = j - 1, j - 2, ... while u(j-1, i), the entries j in tableau
    rows <= i, is positive.  Integral: the prefix sums of row j.  Binary:
    row j's cells grouped by the column heights of rows < j."""
    ladders = []
    heights = [0] * q.width
    for j, row in enumerate(q.rows):
        if q.binary:
            n = [0] * (j + 1)  # n[r]: the entries j in tableau row r
            for c in compress(count(), row):
                n[heights[c]] += 1
                heights[c] += 1
        else:
            n = row
        u = sum(row)
        for i in range(j - 1, -1, -1):
            if i + 1 < len(n):
                u -= n[i + 1]
            if not u:
                break
            ladders.append((i, u))
    return ladders


def compose(p: Matrix, q: Matrix) -> Matrix:
    """Inverse of decompose: the unique m with exhaust-up = P, exhaust-left = Q.

    m's up sweep climbs the ladders of Q's (left moves commute with up
    moves and keep their potentials), and those are read off Q's rows by
    the pass-count lemma (`_lifts`); the inverse lowering ladders are
    applied to P in reverse order.
    """
    if type(p) is not type(q):
        raise ComposeError("P and Q must have the same mode")
    ops = _ops(p)
    for i in range(p.height):
        if ops.potential(p, UP, i) != 0:
            raise ComposeError(f"P admits an upward move at index {i}")
    # Q's left potentials are the up potentials of its transposed copy (rows
    # reversed first for binary); a climb that moves nothing leaves it as is
    lines = [list(c) for c in zip(*(reversed(q.rows) if q.binary else q.rows))]
    for j in range(len(lines) - 1):
        if ops._climb(lines[j], lines[j + 1], True):
            raise ComposeError(f"Q admits a leftward move at index {j}")
    rp = p.row_sums()
    cq = q.col_sums()
    if p.binary:
        if not is_partition(cq) or rp != conjugate(cq):
            raise ComposeError("need rsum(P) = conjugate(csum(Q))")
    elif rp != cq:
        raise ComposeError("need rsum(P) = csum(Q)")
    rows = [list(r) for r in p.rows]
    for index, n in reversed(_lifts(q)):
        _climb_pair(ops._climb, rows, index, False, n)
    return type(p)._from_lists(rows)


def crystal_class_potentials(m: Matrix, axis: str) -> tuple[int, ...]:
    """Lowering potentials at the highest-weight vertex of m's crystal.

    vertical: ndm_i at the up-exhausted matrix P; horizontal: nrm_j at the
    left-exhausted matrix, decompose's Q; i and j up to the last nonzero
    margin.  Both admit no raising move, so by the margin identities
    (`verify.check_margin_identities`) each potential is the difference
    of two adjacent margins: of P's row sums, lam = `normal_form(m)`, or
    of Q's column sums, lam (integral) or conjugate(lam) (binary).
    """
    if axis not in ("vertical", "horizontal"):
        raise ValueError(f"unknown axis: {axis}")
    lam = normal_form(m)
    if axis == "horizontal" and m.binary:
        lam = conjugate(lam)
    return tuple(a - b for a, b in zip(lam, (*lam[1:], 0)))
