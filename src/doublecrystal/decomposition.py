"""Normal forms, exhaustion of crystal operations, and the decomposition
of a matrix into its pair (P, Q) of one-sided exhausted matrices.

Exhausting upward or leftward moves always terminates and the result is
independent of the order; downward/rightward exhaustion needs an index
bound k (moves dnm_i / rtm_j are attempted for i, j in [0, k-1) only).
"""

from itertools import groupby
from operator import attrgetter
from typing import Optional

from . import crystal_binary as cb
from . import crystal_integral as ci
from .crystal_binary import DOWN, LEFT, RIGHT, UP
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
    if d in (UP, DOWN):
        extent = m.height
    else:
        extent = m.width
    if d in (DOWN, RIGHT):
        if bound is None:
            bound = extent
        return max(bound - 1, 0)
    return extent  # raising moves exhaust globally; indices beyond are dead

def exhaust(m: Matrix, directions, bound: Optional[int] = None):
    """Apply moves from the given directions until none is possible.

    Canonical order: scan directions in (up, down, left, right) order, take
    the lowest index admitting a move and climb that ladder completely,
    then scan again.  A ladder at index i changes only the potentials at
    i-1, i and i+1, so each scan resumes at index i-1 (not 0) of the same
    direction; moves of one axis leave the other axis's potentials
    unchanged, so the directions are exhausted one after the other.
    Opposite directions undo each other and are rejected.  Returns
    (matrix, tuple of move records).
    """
    directions = tuple(d for d in (UP, DOWN, LEFT, RIGHT) if d in set(directions))
    if not directions:
        raise UsageError("at least one direction is required")
    if {UP, DOWN} <= set(directions) or {LEFT, RIGHT} <= set(directions):
        raise UsageError("opposite directions undo each other; exhaust them separately")
    if bound is not None and bound < 1:
        raise UsageError(f"bound must be at least 1, got {bound}")
    ops = _ops(m)
    rows = [list(r) for r in m.rows]
    records = []
    for d in directions:
        limit = _index_limit(m, d, bound)
        index = 0
        while index < limit:
            climbed = ops.ladder_rows(rows, d, index)
            records += climbed
            index = max(index - 1, 0) if climbed else index + 1
    return type(m)._wrap(tuple(map(tuple, rows))), tuple(records)


def is_normal(m: Matrix) -> Optional[Partition]:
    """The partition parametrising m when m = diagram(lam) or diagon(lam)."""
    lam = m.row_sums()
    if not is_partition(lam):
        return None
    target = diagram(lam) if m.binary else diagon(lam)
    return trim(lam) if m == target else None


def normal_form(m: Matrix) -> Partition:
    """The partition parametrising the up/left-exhausted form of m."""
    n, _ = exhaust(m, (UP, LEFT))
    lam = is_normal(n)
    if lam is None:
        raise AssertionError(f"exhausted matrix is not a normal form: {n!r}")
    return lam


def decompose(m: Matrix) -> tuple[Matrix, Matrix]:
    """The pair (P, Q): P exhausts upward moves, Q leftward moves."""
    p, _ = exhaust(m, (UP,))
    q, _ = exhaust(m, (LEFT,))
    return p, q


def compose(p: Matrix, q: Matrix) -> Matrix:
    """Inverse of decompose: the unique m with exhaust-up = P, exhaust-left = Q.

    Records the raising sequence that exhausts upward moves on Q, then
    applies the inverse lowering sequence to P, one ladder per run of
    records at one index.
    """
    if type(p) is not type(q):
        raise ComposeError("P and Q must have the same mode")
    ops = _ops(p)
    for i in range(p.height):
        if ops.potential(p, UP, i) != 0:
            raise ComposeError(f"P admits an upward move at index {i}")
    for j in range(q.width):
        if ops.potential(q, LEFT, j) != 0:
            raise ComposeError(f"Q admits a leftward move at index {j}")
    rp = p.row_sums()
    cq = q.col_sums()
    if p.binary:
        if not is_partition(cq) or rp != conjugate(cq):
            raise ComposeError("need rsum(P) = conjugate(csum(Q))")
    elif rp != cq:
        raise ComposeError("need rsum(P) = csum(Q)")
    _, up_seq = exhaust(q, (UP,))
    rows = [list(r) for r in p.rows]
    for index, run in groupby(reversed(up_seq), key=attrgetter("index")):
        ops.ladder_rows(rows, DOWN, index, len(list(run)))
    m = type(p)._wrap(tuple(map(tuple, rows)))
    check_p, check_q = decompose(m)
    if check_p != p or check_q != q:
        raise AssertionError("compose result fails to re-decompose; move rules broken")
    return m


def crystal_class_potentials(m: Matrix, axis: str) -> tuple[int, ...]:
    """Lowering potentials at the highest-weight vertex of m's crystal.

    vertical: ndm_i at the up-exhausted matrix (differences of the parts
    of the implicit shape); horizontal: nrm_j at the left-exhausted matrix.
    """
    ops = _ops(m)
    if axis == "vertical":
        p, _ = exhaust(m, (UP,))
        lam = p.row_sums()
        n = len(lam)
        out = tuple(ops.potential(p, DOWN, i) for i in range(n))
    elif axis == "horizontal":
        q, _ = exhaust(m, (LEFT,))
        mu = q.col_sums()
        n = len(mu)
        out = tuple(ops.potential(q, RIGHT, j) for j in range(n))
    else:
        raise ValueError(f"unknown axis: {axis}")
    return out
