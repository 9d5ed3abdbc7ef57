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

Only what a caller supplies is checked (directions, bounds, a valid pair
for `compose`); the theorems on valid input are `verify.check_*`.
"""

from typing import Optional

from . import crystal_binary as cb
from . import crystal_integral as ci
from .crystal_binary import DOWN, LEFT, RIGHT, UP, _climb_pair
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
    directions = tuple(d for d in (UP, DOWN, LEFT, RIGHT) if d in set(directions))
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
    """The pair (P, Q): P exhausts upward moves, Q leftward moves."""
    p, _ = _sweep(m, (UP,))
    q, _ = _sweep(m, (LEFT,))
    return p, q


def compose(p: Matrix, q: Matrix) -> Matrix:
    """Inverse of decompose: the unique m with exhaust-up = P, exhaust-left = Q.

    Sweeps upward moves on Q, then applies the inverse lowering ladders to
    P in reverse order.
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
    _, ladders = _sweep(q, (UP,))
    rows = [list(r) for r in p.rows]
    for _, index, moved in reversed(ladders):
        _climb_pair(ops._climb, rows, index, False, ops._units(moved))
    return type(p)._from_lists(rows)


def crystal_class_potentials(m: Matrix, axis: str) -> tuple[int, ...]:
    """Lowering potentials at the highest-weight vertex of m's crystal.

    vertical: ndm_i at the up-exhausted matrix (differences of the parts
    of the implicit shape); horizontal: nrm_j at the left-exhausted matrix.
    """
    ops = _ops(m)
    if axis == "vertical":
        p, _ = _sweep(m, (UP,))
        lam = p.row_sums()
        n = len(lam)
        out = tuple(ops.potential(p, DOWN, i) for i in range(n))
    elif axis == "horizontal":
        q, _ = _sweep(m, (LEFT,))
        mu = q.col_sums()
        n = len(mu)
        out = tuple(ops.potential(q, RIGHT, j) for j in range(n))
    else:
        raise ValueError(f"unknown axis: {axis}")
    return out
