"""Implicit shapes, shape-datum local rules, growth diagrams in four
orientations, and the French / sliced normal forms.

A growth diagram assigns to each grid point the implicit shape of a corner
submatrix of its source matrix; the grids here are computed purely by
local rules from empty borders, with optional per-cell verification
against direct normalization.

Each forward rule has one implementation (_burge, _rsk, _dual) on trimmed
int tuples: it pads each of them inline with zeros to one length, one
longer than the longest, and makes one pass over the rows, checking both
strip relations row by row and building kappa as a list, whose trailing
zeros it pops before the one tuple() it returns; _dual spots and matches
the optional squares in the same pass (a row with nu_i < mu_i holds
neither).  The strip relations, a nonnegative entry and a bit of 0 or 1
are the only ShapeDatumError checks: past them every optional square
finds its match and kappa is a partition.  The public rules trim their
inputs and call it; growth_diagram calls it on its stored shapes, which
are already trimmed rule outputs.

Each backward rule (burge_backward, rsk_backward, dual_backward) trims
its inputs and pads them inline as the forward rules do, checks the strip
relations of mu and nu below kappa with the tests behind
`shapes.strip_le`, its only input check, and then makes one pass,
popping the trailing zeros off lam: those relations already make mu, nu
and kappa partitions and the result the forward rule's preimage, so
nothing is re-checked and the forward rule is not re-run.
dual_backward meets and matches the optional squares in its pass as _dual
does.
"""

import json
from itertools import count
from math import inf
from operator import add, sub

from .decomposition import normal_form
from .matrices import NE, NW, ORIENTATIONS, SE, SW, BinaryMatrix, IntegralMatrix, Matrix
from .shapes import (
    Frozen, Partition, _h_le, _v_le, part, revert, trim,
)

ROW_INSERTION = "row_insertion"
COL_INSERTION = "col_insertion"


class ShapeDatumError(ValueError):
    """Shape-datum inputs violate the required strip relations."""


def implicit_shape(m: Matrix) -> Partition:
    """The partition parametrising the normal form of m."""
    return normal_form(m)


def _burge(lam, mu, nu, m: int, trace=None) -> Partition:
    """burge_forward on trimmed int tuples; appends its steps to trace."""
    if m < 0:
        raise ShapeDatumError("entry must be nonnegative")
    n = max(len(lam), len(mu), len(nu)) + 1
    lp = lam + (0,) * (n - len(lam))
    mp, np_ = mu + (0,) * (n - len(mu)), nu + (0,) * (n - len(nu))
    # i runs down to 1 with l = lam_i and above = lam_{i-1}; row i checks
    # lam_i <= mu_i, nu_i <= lam_{i-1}, row 0 the rest of both strips
    c, l, kappa = m, 0, [0] * n
    for i in range(n - 1, 0, -1):
        above, p, q = lp[i - 1], mp[i], np_[i]
        if not (l <= p <= above and l <= q <= above):
            raise ShapeDatumError(f"need lam <=h mu and lam <=h nu: {lam}, {mu}, {nu}")
        d = p + q - l + c
        k = kappa[i] = d if d < above else above
        c = d - k
        if trace is not None and (trace or k != 0 or d != c):
            trace.append((d, k, c))
        l = above
    p, q = mp[0], np_[0]
    if not (l <= p and l <= q):
        raise ShapeDatumError(f"need lam <=h mu and lam <=h nu: {lam}, {mu}, {nu}")
    kappa[0] = p + q - l + c
    while kappa and not kappa[-1]:
        kappa.pop()
    return tuple(kappa)


def burge_forward(lam, mu, nu, m: int, with_trace: bool = False):
    """Shape datum of the Burge correspondence: kappa from (lam, mu, nu, m).

    Iterates i downward maintaining a carry c, with
    d = mu_i + nu_i - lam_i + c, kappa_i = min(d, lam_{i-1}), c = d - kappa_i,
    and finally kappa_0 = mu_0 - lam_0 + c + nu_0.
    """
    trace = [] if with_trace else None
    result = _burge(trim(lam), trim(mu), trim(nu), m, trace)
    return (result, tuple(trace)) if with_trace else result


def burge_backward(mu, nu, kappa) -> tuple[Partition, int]:
    """Inverse Burge shape datum: (lam, m) from (mu, nu, kappa).

    Iterates i upward with d = mu_i + nu_i - kappa_i - c,
    lam_i = max(d, kappa_{i+1}), c = lam_i - d; the final carry is m.
    """
    mu, nu, kappa = trim(mu), trim(nu), trim(kappa)
    n = max(len(mu), len(nu), len(kappa)) + 1
    mp, np_ = mu + (0,) * (n - len(mu)), nu + (0,) * (n - len(nu))
    kp = kappa + (0,) * (n - len(kappa))
    if not (_h_le(mp, kp) and _h_le(np_, kp)):
        raise ShapeDatumError(f"need mu <=h kappa and nu <=h kappa: {mu}, {nu}, {kappa}")
    c = 0
    lam = []
    # at i = n - 1 all parts are zero and the step keeps c
    for a, b, k, k_next in zip(mp, np_, kp, kp[1:]):
        d = a + b - k - c
        lam.append(max(d, k_next))
        c = lam[-1] - d
    while lam and not lam[-1]:
        lam.pop()
    return tuple(lam), c


def _rsk(lam, mu, nu, m: int) -> Partition:
    """rsk_forward on trimmed int tuples."""
    if m < 0:
        raise ShapeDatumError("entry must be nonnegative")
    n = max(len(lam), len(mu), len(nu)) + 1
    # kappa_i = x_i + max(mu_i, nu_i), where x_0 = m and
    # x_{i+1} = min(mu_i, nu_i) - lam_i; row i checks
    # lam_i <= mu_i, nu_i <= lam_{i-1}
    x, above, kappa = m, inf, []
    for l, p, q in zip(lam + (0,) * (n - len(lam)), mu + (0,) * (n - len(mu)),
                       nu + (0,) * (n - len(nu))):
        if not (l <= p <= above and l <= q <= above):
            raise ShapeDatumError(f"need lam <=h mu and lam <=h nu: {lam}, {mu}, {nu}")
        if p < q:
            kappa.append(x + q)
            x = p - l
        else:
            kappa.append(x + p)
            x = q - l
        above = l
    while kappa and not kappa[-1]:
        kappa.pop()
    return tuple(kappa)


def rsk_forward(lam, mu, nu, m: int) -> Partition:
    """Shape datum of the RSK correspondence (closed formula)."""
    return _rsk(trim(lam), trim(mu), trim(nu), m)


def rsk_backward(mu, nu, kappa) -> tuple[Partition, int]:
    """Inverse of the RSK shape datum."""
    mu, nu, kappa = trim(mu), trim(nu), trim(kappa)
    n = max(len(mu), len(nu), len(kappa)) + 1
    mp, np_ = mu + (0,) * (n - len(mu)), nu + (0,) * (n - len(nu))
    kp = kappa + (0,) * (n - len(kappa))
    if not (_h_le(mp, kp) and _h_le(np_, kp)):
        raise ShapeDatumError(f"need mu <=h kappa and nu <=h kappa: {mu}, {nu}, {kappa}")
    # lam_i = min(mu_i, nu_i) + max(mu_{i+1}, nu_{i+1}) - kappa_{i+1}
    lam = [*map(sub, map(add, map(min, mp, np_), map(max, mp[1:], np_[1:])), kp[1:])]
    while lam and not lam[-1]:
        lam.pop()
    return tuple(lam), kp[0] - max(mp[0], np_[0])


def _dual(lam, mu, nu, bit: int, flavor: str) -> Partition:
    """dual_forward on trimmed int tuples, in one pass over the padded rows.

    Row i checks both strip relations against row i - 1, then meets the
    optional square T = (i, nu_i) of kappa, if any, before S = (i, mu_i - 1)
    of lam.  Row insertion matches first in, first out: a T takes the
    oldest S still waiting, which lies in a row above it.  Column insertion
    matches last in, first out: a T waits on a stack and an S takes the
    newest.  Row i of kappa is the larger of mu_i, nu_i, plus one if its T
    is matched to an obligatory S (one in a row j with lam_j < mu_j) or is
    the unmatched T and the bit is 1.
    """
    if bit not in (0, 1):
        raise ShapeDatumError("bit must be 0 or 1")
    n = max(len(lam), len(mu), len(nu)) + 1
    np_ = nu + (0,) * (n - len(nu))
    fifo = flavor == ROW_INSERTION  # an unknown flavor is matched as columns
    kappa = []
    s_rows = []  # row insertion: whether each S is obligatory, waiting from s_rows[head] on
    t_rows = []  # the unmatched T rows; column insertion: the stack
    head = 0
    pl = above = inf  # lam_{i-1}, mu_{i-1}
    for l, m, a, b in zip(lam + (0,) * (n - len(lam)), mu + (0,) * (n - len(mu)),
                          np_, np_[1:] + (0,)):
        # lam <=h nu, which makes lam weakly decreasing, and lam <=v mu
        if not (l <= a <= pl and l <= m <= l + 1 and m <= above):
            raise ShapeDatumError(f"need lam <=v mu and lam <=h nu: {lam}, {mu}, {nu}")
        if a < m:  # no T and no S: kappa_i = mu_i
            kappa.append(m)
        else:  # kappa_i = nu_i, plus one for a T matched to an obligatory S
            k = a
            if a < above:  # T = (i, a)
                if fifo and head < len(s_rows):
                    k += s_rows[head]
                    head += 1
                else:
                    t_rows.append(len(kappa))  # row i
            kappa.append(k)
            if m > b:  # S = (i, m - 1)
                if fifo:
                    s_rows.append(l < m)
                else:
                    # the stack holds rows up to i only: T is weakly above S
                    kappa[t_rows.pop()] += l < m
        pl, above = l, m
    # past the strip relations every S finds its T, exactly one T is left
    # unmatched and kappa is a partition; only an unknown flavor fails
    if not fifo and flavor != COL_INSERTION:
        raise ValueError(f"unknown flavor: {flavor}")
    if bit:
        kappa[t_rows[0]] += 1
    while kappa and not kappa[-1]:
        kappa.pop()
    return tuple(kappa)


def dual_forward(lam, mu, nu, bit: int, flavor: str) -> Partition:
    """Binary shape datum, forward direction: kappa from (lam, mu, nu, bit).

    Every optional square of lam absent from lam turns the matched optional
    square of kappa present, and vice versa; the unmatched square follows
    the bit.
    """
    return _dual(trim(lam), trim(mu), trim(nu), bit, flavor)


def dual_backward(mu, nu, kappa, flavor: str) -> tuple[Partition, int]:
    """Binary shape datum, backward direction: (lam, bit) from (mu, nu, kappa).

    One pass over the padded rows meets T = (i, nu_i) and S = (i, mu_i - 1)
    as _dual does and matches them the same way: first in, first out for
    row insertion, last in, first out for column insertion.  lam starts as
    the meet of mu and nu; a matched S leaves lam when its T is a cell of
    kappa (kappa_t > nu_t), and the bit says whether the unmatched T is.
    """
    mu, nu, kappa = trim(mu), trim(nu), trim(kappa)
    n = max(len(mu), len(nu), len(kappa)) + 1
    mp, np_ = mu + (0,) * (n - len(mu)), nu + (0,) * (n - len(nu))
    kp = kappa + (0,) * (n - len(kappa))
    if not (_h_le(mp, kp) and _v_le(np_, kp)):
        raise ShapeDatumError(f"need mu <=h kappa and nu <=v kappa: {mu}, {nu}, {kappa}")
    if flavor not in (ROW_INSERTION, COL_INSERTION):
        raise ValueError(f"unknown flavor: {flavor}")
    # past the strip relations mu, nu and kappa are partitions: every
    # S finds its T and exactly one T is left unmatched
    fifo = flavor == ROW_INSERTION
    lam = list(map(min, mp, np_))
    waiting = []  # row insertion: the S rows, from waiting[head] on; else the T stack
    head = 0
    above = inf  # mu_{i-1}
    for i, m, a, b, k in zip(count(), mp, np_, np_[1:] + (0,), kp):
        if m <= a < above:  # T = (i, a), a cell of kappa iff k > a
            if not fifo:
                waiting.append(i)
            elif head < len(waiting):
                lam[waiting[head]] -= k > a
                head += 1
            else:
                t0 = i
        if a >= m > b:  # S = (i, m - 1)
            if fifo:
                waiting.append(i)
            else:
                t = waiting.pop()
                lam[i] -= kp[t] > np_[t]
        above = m
    if not fifo:
        t0 = waiting[0]
    while lam and not lam[-1]:
        lam.pop()
    return tuple(lam), int(kp[t0] > np_[t0])


class GrowthDiagram(Frozen):
    _fields = ("orientation", "grid", "source")

    def __init__(self, orientation: str, grid: tuple[tuple[Partition, ...], ...],
                 source: Matrix):
        vars(self).update(orientation=orientation, grid=grid, source=source)

    @property
    def height(self) -> int:
        return len(self.grid)

    @property
    def width(self) -> int:
        return len(self.grid[0])

    def to_text(self) -> str:
        return render_growth_diagram(self)

    def to_json(self) -> str:
        return json.dumps({"orientation": self.orientation,
                           "grid": [[list(s) for s in row] for row in self.grid]})


def _corner_submatrix(m: Matrix, orientation: str, i: int, j: int) -> Matrix:
    if orientation == NW:
        return m.restrict((0, i), (0, j))
    if orientation == NE:
        return m.restrict((0, i), (j, None))
    if orientation == SW:
        return m.restrict((i, None), (0, j))
    if orientation == SE:
        return m.restrict((i, None), (j, None))
    raise ValueError(f"unknown orientation: {orientation}")


def growth_diagram(m: Matrix, orientation: str = NW, verify: bool = False) -> GrowthDiagram:
    """Implicit shapes of all corner submatrices, computed by local rules.

    The grid has (height+1) x (width+1) points; point (i, j) carries the
    implicit shape of the orientation's corner submatrix cut at (i, j).
    With verify=True every cell is checked against direct normalization.
    """
    if orientation not in ORIENTATIONS:
        raise ValueError(f"unknown orientation: {orientation}")
    mt = m.trimmed()
    h, w, rows = mt.height, mt.width, mt.rows
    # the stored shapes are trimmed rule outputs: call the rules unwrapped
    if not mt.binary:
        rule, extra = (_burge if orientation in (NW, SE) else _rsk), ()
    else:
        rule, extra = _dual, (ROW_INSERTION if orientation in (NW, SE) else COL_INSERTION,)
    grid = [[() for _ in range(w + 1)] for _ in range(h + 1)]
    # square (k, l) carries lam at its corner nearest the orientation's
    # corner and kappa at the opposite one; mu shares lam's row, nu its column
    north, west = orientation in (NW, NE), orientation in (NW, SW)
    for k in range(h) if north else range(h - 1, -1, -1):
        lam_row, kappa_row, row = grid[k + 1 - north], grid[k + north], rows[k]
        for l in range(w) if west else range(w - 1, -1, -1):
            c, d = l + 1 - west, l + west
            kappa_row[d] = rule(lam_row[c], lam_row[d], kappa_row[c], row[l], *extra)
    # at its exact size: a generator-built tuple is resized, and the resized
    # tuples fill CPython's tuple free lists when freed
    gd = GrowthDiagram(orientation, tuple([*map(tuple, grid)]), mt)
    if verify:
        for i in range(h + 1):
            for j in range(w + 1):
                direct = implicit_shape(_corner_submatrix(mt, orientation, i, j))
                if direct != gd.grid[i][j]:
                    raise AssertionError(
                        f"cell ({i},{j}) local rule {gd.grid[i][j]} != normalization {direct}"
                    )
    return gd


def render_growth_diagram(gd: GrowthDiagram) -> str:
    """Text rendering: the cell at grid point (i, j) shows the matrix entry
    of the square to its upper left followed by the shape at the point."""
    m = gd.source
    cells = []
    for i in range(gd.height):
        row = []
        for j in range(gd.width):
            shape = " ".join(str(p) for p in gd.grid[i][j]) if gd.grid[i][j] else "."
            if i > 0 and j > 0:
                row.append(f"{m[i - 1, j - 1]} {shape}")
            else:
                row.append(shape)
        cells.append(row)
    widths = [max(len(cells[i][j]) for i in range(gd.height)) for j in range(gd.width)]
    lines = []
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def french_form(lam, k: int) -> BinaryMatrix:
    """Bottom-justified binary normal form: bit at (i, j) iff
    (k-1-i, j) lies in the diagram of lam.  Needs lam[k] = 0."""
    lam = trim(lam)
    if part(lam, k) != 0 or len(lam) > k:
        raise ValueError(f"french_form needs lam[{k}] = 0, got {lam}")
    w = part(lam, 0)
    return BinaryMatrix(
        tuple(
            tuple(1 if j < part(lam, k - 1 - i) else 0 for j in range(w))
            for i in range(k)
        )
    )


def recognize_french(m: BinaryMatrix, k: int):
    """The partition lam with m = french_form(lam, k), or None."""
    lam = trim(revert(trim(sum(r) for r in m.pad_to(k, 0).rows[:k]), k))
    if m.height > k and any(any(r) for r in m.rows[k:]):
        return None
    try:
        target = french_form(lam, k)
    except ValueError:
        return None
    return lam if m == target else None


def sliced_form(lam, k: int, l: int) -> IntegralMatrix:
    """Diagonal-constant integral form supported in rows >= k, cols < l."""
    lam = trim(lam)
    if part(lam, l) != 0 or len(lam) > l:
        raise ValueError(f"sliced_form needs lam[{l}] = 0, got {lam}")
    h = k + l
    rows = []
    for i in range(h):
        row = []
        for j in range(l):
            if i >= k:
                d = i - k - j + l
                row.append(part(lam, d - 1) - part(lam, d) if d >= 1 else 0)
            else:
                row.append(0)
        rows.append(tuple(row))
    return IntegralMatrix(rows)


def recognize_sliced(m: IntegralMatrix, k: int, l: int):
    """The partition lam with m = sliced_form(lam, k, l), or None."""
    if m != m.restrict((k, None), (0, l)):
        return None
    lam = trim(sum(m[k + i, j] for j in range(l)) for i in range(m.height))
    try:
        target = sliced_form(lam, k, l)
    except ValueError:
        return None
    return lam if m == target else None
