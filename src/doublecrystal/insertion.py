"""Classical insertion and jeu de taquin oracles.

Independent implementations of column/row insertion, the Burge and (dual)
RSK correspondences, and rectification by jeu de taquin.  Used to
cross-validate the crystal constructions; deliberately written on tableau
displays, with no reference to crystal operations.
"""

import random

from .matrices import BinaryMatrix, IntegralMatrix
from .shapes import (
    REVERSE_TRANSPOSE,
    SST,
    TRANSPOSE,
    Tableau,
    conjugate,
    part,
    trim,
)


def _grid_to_chain(rows, inner=()):
    """Chain of shapes from a display grid (row lists of entries)."""
    if not rows:
        return ((),)
    top = max((max(r) for r in rows if r), default=-1)
    chain = []
    for e in range(top + 2):
        shape = [part(inner, i) + sum(1 for x in r if x < e) for i, r in enumerate(rows)]
        chain.append(trim(shape))
    return tuple(chain)


def _column_insert_one(cols, x, ge=True):
    """Column-insert x into a straight tableau stored as column lists.

    Bumps the topmost entry >= x (strict > when ge is False) of each column
    in turn; a letter with no bump target lands at the bottom of the column.
    """
    j = 0
    while True:
        if j == len(cols):
            cols.append([x])
            return
        col = cols[j]
        for i, y in enumerate(col):
            if (y >= x) if ge else (y > x):
                col[i], x = x, y
                break
        else:
            col.append(x)
            return
        j += 1


def _cols_to_rows(cols):
    h = max((len(c) for c in cols), default=0)
    return [[c[i] for c in cols if len(c) > i] for i in range(h)]


def column_insert(t: Tableau, letter: int, flavor: str = SST) -> Tableau:
    """Schensted column insertion of one letter into a straight tableau.

    For semistandard tableaux the bump target is the topmost entry >= x;
    for transpose semistandard ones (strictly increasing rows) it is the
    topmost entry > x.
    """
    if not t.is_straight():
        raise ValueError("column insertion needs a straight tableau")
    if flavor not in (SST, TRANSPOSE):
        raise ValueError(f"unsupported flavor: {flavor}")
    rows = t.entry_rows()
    cols = _cols_to_rows(rows)  # transpose of the display
    _column_insert_one(cols, letter, ge=(flavor == SST))
    out = _cols_to_rows(cols)
    return Tableau(flavor, _chain_of_display(out, flavor))


def _chain_of_display(rows, flavor):
    if flavor == SST:
        return _grid_to_chain(rows)
    # transpose flavor: conjugate display is semistandard
    return tuple(conjugate(c) for c in _grid_to_chain(_cols_to_rows(rows)))


def _require_mode(m, binary: bool, name: str):
    """Raise ValueError unless m is binary (binary=True) or integral."""
    if m.binary != binary:
        want, got = ("binary", "integral") if binary else ("integral", "binary")
        raise ValueError(f"{name} takes {want} matrices, not {got} ones")


def burge(m: IntegralMatrix) -> tuple[Tableau, Tableau]:
    """Burge correspondence by column insertion in Semitic reading order.

    Traverses rows top to bottom, each row right to left, column-inserting
    m[i,j] copies of j.  The recording chain lists the shape before each
    row's traversal.
    """
    _require_mode(m, False, "burge")
    cols = []
    chain = [()]
    for i in range(m.height):
        for j in range(m.width - 1, -1, -1):
            for _ in range(m[i, j]):
                _column_insert_one(cols, j)
        chain.append(trim(len(c) for c in _cols_to_rows(cols)))
    p = Tableau(SST, _grid_to_chain(_cols_to_rows(cols)))
    q = Tableau(SST, tuple(chain))
    return p, q


def dual_rsk_col(m: BinaryMatrix) -> tuple[Tableau, Tableau]:
    """Column-insertion dual RSK in Kanji reading order.

    Traverses columns right to left, each column downward, column-inserting
    i for each bit m[i,j] = 1.  The recording chain lists the shape after
    each column's traversal (a reverse transpose semistandard tableau).
    """
    _require_mode(m, True, "dual_rsk_col")
    cols = []
    chain = []
    for j in range(m.width - 1, -1, -1):
        for i in range(m.height):
            if m[i, j]:
                _column_insert_one(cols, i)
        chain.append(trim(len(c) for c in _cols_to_rows(cols)))
    chain.reverse()
    chain.append(())
    s = Tableau(SST, _grid_to_chain(_cols_to_rows(cols)))
    r = Tableau(REVERSE_TRANSPOSE, tuple(chain))
    return s, r


def _row_insert_one(rows, x, gt=True):
    """Row-insert x, bumping the leftmost entry > x (>= when gt is False)."""
    i = 0
    while True:
        if i == len(rows):
            rows.append([x])
            return
        row = rows[i]
        for j, y in enumerate(row):
            if (y > x) if gt else (y >= x):
                row[j], x = x, y
                break
        else:
            row.append(x)
            return
        i += 1


def rsk_row(m: IntegralMatrix) -> tuple[Tableau, Tableau]:
    """Classical row-insertion RSK: p inserts column indices in row-major
    order, q records the shape before each row's insertions."""
    _require_mode(m, False, "rsk_row")
    rows = []
    chain = [()]
    for i in range(m.height):
        for j in range(m.width):
            for _ in range(m[i, j]):
                _row_insert_one(rows, j)
        chain.append(trim(len(r) for r in rows))
    p = Tableau(SST, _grid_to_chain(rows))
    q = Tableau(SST, tuple(chain))
    return p, q


def dual_rsk_row(m: BinaryMatrix) -> tuple[Tableau, Tableau]:
    """Dual RSK in the row-insertion form: the insertion tableau is
    transpose semistandard (rows strictly increasing, bump the leftmost
    entry >= x), the recording tableau semistandard."""
    _require_mode(m, True, "dual_rsk_row")
    rows = []
    chain = [()]
    for i in range(m.height):
        for j in range(m.width):
            if m[i, j]:
                _row_insert_one(rows, j, gt=False)
        chain.append(trim(len(r) for r in rows))
    r_star = Tableau(TRANSPOSE, _chain_of_display(rows, TRANSPOSE))
    s = Tableau(SST, tuple(chain))
    return r_star, s


def _display_grid(t: Tableau):
    """Skew display as a dict (i, j) -> entry."""
    grid = {}
    inner = t.inner
    for e, (a, b) in enumerate(zip(t.chain, t.chain[1:])):
        lo, hi = (b, a) if t.reverse else (a, b)
        for i in range(len(hi)):
            for j in range(part(lo, i), part(hi, i)):
                grid[(i, j)] = e
    return grid


def _inner_corners(inner):
    """Cells of the inner diagram that are removable corners of it."""
    return [
        (i, p - 1)
        for i, p in enumerate(inner)
        if p > 0 and part(inner, i + 1) < p
    ]


def _jdt_slide(grid, outer, inner, corner, transpose=False):
    """One inward jeu de taquin slide starting at the given inner corner."""
    i, j = corner
    inner = list(inner)
    outer = list(outer)
    while True:
        below = grid.get((i + 1, j)) if (i + 1 < len(outer) and j < outer[i + 1]) else None
        right = grid.get((i, j + 1)) if j + 1 < outer[i] else None
        if below is None and right is None:
            break
        if below is None:
            pick = "right"
        elif right is None:
            pick = "below"
        else:
            # semistandard: ties slide the entry from below; transpose: from the right
            if transpose:
                pick = "below" if below < right else "right"
            else:
                pick = "below" if below <= right else "right"
        if pick == "below":
            grid[(i, j)] = grid.pop((i + 1, j))
            i += 1
        else:
            grid[(i, j)] = grid.pop((i, j + 1))
            j += 1
    # the hole ends at (i, j): remove that cell from the outer shape
    outer[i] -= 1
    inner[corner[0]] -= 1
    return trim(outer), trim(inner)


def rectify(t: Tableau, rng: random.Random | None = None) -> Tableau:
    """Rectification by inward jeu de taquin slides.

    Semistandard and transpose semistandard flavors are supported; reverse
    flavors are rejected.  Slides are taken at the lexicographically
    largest inner corner, or uniformly at random when rng is given (the
    result is slide-order independent).
    """
    if t.flavor not in (SST, TRANSPOSE):
        raise ValueError("rectify needs a forward-flavor tableau")
    transpose = t.flavor == TRANSPOSE
    grid = _display_grid(t)
    outer, inner = t.outer, t.inner
    while inner:
        corners = _inner_corners(inner)
        corner = rng.choice(corners) if rng is not None else max(corners)
        outer, inner = _jdt_slide(grid, outer, inner, corner, transpose)
    h = len(outer)
    rows = [[grid[(i, j)] for j in range(outer[i])] for i in range(h)]
    return Tableau(t.flavor, _chain_of_display(rows, t.flavor))
