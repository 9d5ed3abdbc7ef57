"""Named property suites behind `doublecrystal verify`, and the checks
they share with the test suite.

Each `check_*` asserts one property of the double crystal on one case and
raises AssertionError naming the check and its case when the property, or
the code under it, fails.  A suite draws random or small cases from the
generator the CLI seeds from DC_SEED and runs its checks on each; the
tests run the same checks on their own, larger case sets.
"""

import functools
import sys

from .cancellation import (
    STAGES,
    NotCancellable,
    alternating_sum,
    edge_symbol,
    involution,
    lr_count,
    lr_witness,
    tableau_side,
)
from . import crystal_binary as cb
from . import crystal_integral as ci
from .crystal_binary import DIRECTIONS, DOWN, LEFT, OPPOSITE, RIGHT, UP, MoveRecord
from .crystal_integral import TransferRecord
from .decomposition import (
    UsageError,
    apply_move,
    compose,
    decompose,
    exhaust,
    is_normal,
    normal_form,
    potential,
)
from .growth import COL_INSERTION, burge_backward, dual_backward, growth_diagram
from .insertion import burge, dual_rsk_col, rectify
from .matrices import (
    BINARY,
    INTEGRAL,
    LR,
    NE,
    NW,
    ORIENTATIONS,
    TABLEAU,
    BinaryMatrix,
    IntegralMatrix,
    condition,
    encode,
    mode_of,
)
from .pictures import BIN, INT, enumerate_pictures, lift, project, validate
from .schutzenberger import dual, rotate_complement
from .shapes import (
    REVERSE,
    SST,
    SkewShape,
    Tableau,
    add,
    conjugate,
    part,
    partitions_up_to,
    subpartitions,
    trim,
)


def random_matrix(rng, binary, h, w, top=3):
    """An h x w matrix of uniform entries, row by row: bits, or 0..top."""
    cls = BinaryMatrix if binary else IntegralMatrix
    return cls([[rng.randint(0, 1 if binary else top) for _ in range(w)] for _ in range(h)])


def _small_matrix(rng, binary, max_h=4, max_w=4, top=3):
    """A random_matrix of random height 1..max_h and width 1..max_w."""
    return random_matrix(rng, binary, rng.randint(1, max_h), rng.randint(1, max_w), top)


def random_sst(rng, inner=(), max_strips=5, step=3):
    """A semistandard tableau on 1..max_strips horizontal strips above
    inner; each part grows by at most step per strip."""
    chain = [inner]
    for _ in range(rng.randint(1, max_strips)):
        cur = chain[-1]
        nxt = []
        for i in range(len(cur) + 1):
            lo = cur[i] if i < len(cur) else 0
            hi = min(nxt[i - 1] if i else lo + step, lo + step,
                     cur[i - 1] if i else lo + step)
            nxt.append(rng.randint(lo, max(lo, hi)))
        chain.append(trim(nxt))
    return Tableau(SST, tuple(chain))


def skew_shapes(max_size):
    """Every skew shape whose outer partition has at most max_size cells."""
    return [SkewShape(o, i) for o in partitions_up_to(max_size) for i in subpartitions(o)]


def oracle_move(m, d, index):
    """One move found by the literal legality predicate, `interchangeable`
    (binary) or `transfer_legal` (integral), independent of the bracket
    scan behind `move` and `potential`; None when no position is legal."""
    vertical = d in (UP, DOWN)
    raising = d in (UP, LEFT)
    if m.binary:
        want = (0, 1) if raising else (1, 0)
        if vertical:
            def legal(at):
                return ((m[index, at], m[index + 1, at]) == want
                        and cb.interchangeable(m, index, at, "vertical"))
        else:
            def legal(at):
                return ((m[at, index], m[at, index + 1]) == want
                        and cb.interchangeable(m, at, index, "horizontal"))
    else:
        def legal(at):
            return ci.transfer_legal(m, "rows" if vertical else "cols", index, at,
                                     1 if raising else -1)
    ats = [at for at in range(m.width if vertical else m.height) if legal(at)]
    if len(ats) > 1:
        raise ValueError(f"several legal positions {ats} for {d} {index} in {m.rows}")
    if not ats:
        return None
    at = ats[0]
    first, second = ((index, at), (index + 1, at)) if vertical else ((at, index), (at, index + 1))
    src, dst = (second, first) if raising else (first, second)
    out = m.with_entry(*src, m[src] - 1).with_entry(*dst, m[dst] + 1)
    rec = MoveRecord(d, index, src) if m.binary else TransferRecord(d, index, at)
    return out, rec


def oracle_exhaust(m, directions, bound=None):
    """Per-move exhaustion with `oracle_move`: the lowest index of the
    first direction that admits a move is climbed completely, then the
    scan restarts at 0.  Returns (matrix, tuple of move records)."""
    limits = {}
    for d in directions:
        extent = m.height if d in (UP, DOWN) else m.width
        limits[d] = extent if d in (UP, LEFT) else max((extent if bound is None else bound) - 1, 0)
    records = []
    while True:
        found = next(((d, i) for d in DIRECTIONS if d in directions
                      for i in range(limits[d]) if oracle_move(m, d, i)), None)
        if found is None:
            return m, tuple(records)
        step = oracle_move(m, *found)
        while step is not None:
            m, rec = step
            records.append(rec)
            step = oracle_move(m, *found)


def _require(ok, what):
    if not ok:
        raise AssertionError(what)


def _names_case(check):
    """Re-raise any failure of check as an AssertionError that names the
    check and its case."""
    @functools.wraps(check)
    def named(*case):
        try:
            check(*case)
        except Exception as exc:
            args = ", ".join(map(repr, case))
            raise AssertionError(
                f"{check.__name__}({args}): {type(exc).__name__}: {exc}") from exc
    return named


@_names_case
def check_move_iff_potential(m, d, index):
    """A move exists iff the potential is positive."""
    _require((apply_move(m, d, index) is not None) == (potential(m, d, index) > 0),
             "a move exists iff the potential is positive")


@_names_case
def check_opposite_inverts(m, d, index):
    """The opposite move undoes a move."""
    res = apply_move(m, d, index)
    if res is not None:
        back = apply_move(res[0], OPPOSITE[d], index)
        _require(back is not None and back[0] == m, "the opposite move undoes the move")


@_names_case
def check_potential_counts_moves(m, d, index):
    """The potential counts the successive moves of `oracle_move`, which
    raises when more than one position is legal."""
    n, x = 0, m
    while (step := oracle_move(x, d, index)) is not None:
        x = step[0]
        n += 1
    _require(n == potential(m, d, index), "the potential counts the oracle moves")


@_names_case
def check_margin_identities(m, index):
    """Lowering minus raising potential is the margin difference at index,
    for row pairs and column pairs."""
    rs, cs = m.row_sums(), m.col_sums()
    _require(potential(m, DOWN, index) - potential(m, UP, index)
             == part(rs, index) - part(rs, index + 1), "down - up = row sum difference")
    _require(potential(m, RIGHT, index) - potential(m, LEFT, index)
             == part(cs, index) - part(cs, index + 1), "right - left = column sum difference")


@_names_case
def check_commute(m, dv, i, dh, j):
    """A vertical move at i and a horizontal move at j, both defined,
    commute."""
    a = apply_move(m, dv, i)
    b = apply_move(m, dh, j)
    if a is None or b is None:
        return
    ab = apply_move(a[0], dh, j)
    ba = apply_move(b[0], dv, i)
    _require(ab is not None and ba is not None and ab[0] == ba[0], "the moves commute")


@_names_case
def check_perpendicular_potentials(m, d, i, j):
    """A move in direction d at i leaves the potentials of the
    perpendicular directions at j unchanged."""
    res = apply_move(m, d, i)
    if res is not None:
        across = (LEFT, RIGHT) if d in (UP, DOWN) else (UP, DOWN)
        _require(all(potential(res[0], e, j) == potential(m, e, j) for e in across),
                 "perpendicular potentials are fixed")


@_names_case
def check_roundtrip(m):
    """Exhausting m up then left, or left then up, reaches the normal form
    diagram(lam) or diagon(lam) of lam = normal_form(m), decompose's Q,
    read off the up sweep, is m's left sweep as stored, and
    compose(decompose(m)) = m."""
    p, q = decompose(m)
    lam = normal_form(m)
    _require(q.rows == exhaust(m, (LEFT,))[0].rows, "Q is m exhausted left")
    _require(is_normal(exhaust(p, (LEFT,))[0]) == lam, "P exhausted left is the normal form")
    _require(is_normal(exhaust(q, (UP,))[0]) == lam, "Q exhausted up is the normal form")
    _require(compose(p, q) == m, "compose inverts decompose")


@_names_case
def check_compose_inverts(p, q):
    """decompose(compose(p, q)) = (p, q) for a valid pair: P up-exhausted,
    Q left-exhausted, of one implicit shape."""
    _require(decompose(compose(p, q)) == (p, q), "decompose inverts compose")


@_names_case
def check_exhaust(m, directions, bound=None):
    """`exhaust`, the reduced-word sweep, gives the matrix and records of
    literal per-move exhaustion."""
    out, records = exhaust(m, directions, bound)
    want, want_records = oracle_exhaust(m, directions, bound)
    _require(out.rows == want.rows, "exhaust reaches the oracle's matrix")
    _require(records == want_records, "exhaust makes the oracle's moves")


def _suffix_sums(p, n):
    """Column j < n of P gives the trimmed suffix sums (sum(row[j:]) for row in P)."""
    return tuple(trim(sum(row[j:]) for row in p.rows) for j in range(n))


@_names_case
def check_insertion_encodings(m):
    """P and Q are the encodings of the Burge tableaux (integral), or Q
    encodes the insertion tableau of column dual RSK and the column
    suffix sums of P its recording chain (binary)."""
    p, q = decompose(m)
    if not m.binary:
        s, lbar = burge(m)
        _require(encode(s, INTEGRAL) == p, "P encodes the Burge insertion tableau")
        _require(encode(lbar, INTEGRAL).transpose() == q, "Q encodes the Burge recording tableau")
        return
    s, r = dual_rsk_col(m)
    _require(encode(s, BINARY) == q, "Q encodes the dual RSK insertion tableau")
    n = max(p.width, len(r.chain) - 1) + 1
    _require(_suffix_sums(p, n) == r.padded_chain(n),
             "column suffix sums of P give the recording chain")


@_names_case
def check_rectify(t):
    """Exhausting up (integral) or left (binary) moves on the encoding of t
    gives the encoding of its rectification."""
    s = rectify(t)
    _require(encode(s, INTEGRAL) == exhaust(encode(t, INTEGRAL), (UP,))[0],
             "up-exhaustion rectifies the integral encoding")
    _require(encode(s, BINARY) == exhaust(encode(t, BINARY), (LEFT,))[0],
             "left-exhaustion rectifies the binary encoding")


@_names_case
def check_crystal_operators(t):
    """The parallel moves at index i of t's encodings, up and down
    (binary) or left and right (integral), are the tableau crystal
    operators e_i and f_i, read off t's reading word by the bracket rule
    (Bump-Schilling, Crystal Bases, 2017, chs. 2-3) at every index up to
    one past t's last letter.

    The reading word takes t's rows bottom to top, each left to right.
    Each i + 1 pairs with the nearest later unpaired i; e_i turns the
    leftmost unpaired i + 1 into i, f_i the rightmost unpaired i into
    i + 1, and their counts are the raising and lowering potentials.  A
    row's i precede its i + 1, so its unpaired i + 1 are its leftmost
    i + 1 and its unpaired i its rightmost i: either operator moves the
    border chain[i + 1] of one row by one cell."""
    n = len(t.chain) - 1
    chain = t.padded_chain(n + 3)
    encodings = [(encode(t, BINARY), UP, DOWN), (encode(t, INTEGRAL), LEFT, RIGHT)]
    for i in range(n + 1):
        lo, mid, hi = chain[i:i + 3]
        opened, closed = [], []  # rows of the unpaired i + 1 and i, in word order
        for r in range(len(hi) - 1, -1, -1):
            for _ in range(part(mid, r) - part(lo, r)):
                if opened:
                    opened.pop()
                else:
                    closed.append(r)
            opened += [r] * (part(hi, r) - part(mid, r))
        for rows, sign in ((opened, 1), (closed, -1)):
            want = None
            if rows:
                r = rows[0] if sign > 0 else rows[-1]
                c = part(mid, r) - (sign < 0)  # the column of the letter changed
                border = [part(mid, j) + sign * (j == r) for j in range(max(len(mid), r + 1))]
                want = Tableau(SST, chain[:i + 1] + (trim(border),) + chain[i + 2:])
            for m, raise_dir, lower_dir in encodings:
                d = raise_dir if sign > 0 else lower_dir
                _require(potential(m, d, i) == len(rows),
                         f"the {d} potential at {i} counts the unpaired letters")
                res = apply_move(m, d, i)
                if want is None:
                    _require(res is None, f"no {d} move at {i} without an unpaired letter")
                    continue
                _require(res is not None and res[0] == encode(want, mode_of(m)),
                         f"the {d} move at {i} encodes the crystal operator")
                rec = res[1]
                # a binary record holds the bit '1' before the move, in row
                # i + 1 of column c for e_i and row i for f_i
                _require(rec.position == (i + (sign > 0), c) if m.binary else rec.at == r,
                         f"the {d} move at {i} moves the letter the bracket rule picks")


@_names_case
def check_growth(m):
    """In all four orientations the local rules give the implicit shape of
    every corner submatrix (`growth_diagram` with verify=True)."""
    for o in ORIENTATIONS:
        growth_diagram(m, o, verify=True)


@_names_case
def check_growth_decomposition(m):
    """The borders of a growth diagram read (P, Q) = decompose(m), and the
    backward local rules fill the diagram back to m from them.

    Integral, NW diagram: the bottom row encodes P and the right column
    the transpose of Q; the fill runs burge_backward.  Binary, NE diagram:
    the left column encodes Q and the bottom row holds the column suffix
    sums of P; the fill runs dual_backward with column insertion, on the
    diagram mirrored left to right, whose squares read as NW ones.  The
    fill starts at the bottom-right corner, each square taking (lam,
    entry) from its other three corners, and ends on empty borders.  The
    kernel's route back, compose(P, Q), must give m too: decompose climbs
    whole ladders, compose also cut ones.
    """
    p, q = decompose(m)
    if m.binary:
        grid = growth_diagram(m, NE).grid
        bottom, side = grid[-1], tuple(row[0] for row in grid)
        _require(encode(Tableau(SST, side), BINARY) == q, "the left border encodes Q")
        _require(bottom == _suffix_sums(p, len(bottom)),
                 "the bottom border holds the column suffix sums of P")
        bottom = bottom[::-1]
        rule = functools.partial(dual_backward, flavor=COL_INSERTION)
    else:
        grid = growth_diagram(m, NW).grid
        bottom, side = grid[-1], tuple(row[-1] for row in grid)
        _require(encode(Tableau(SST, bottom), INTEGRAL) == p, "the bottom border encodes P")
        _require(encode(Tableau(SST, side), INTEGRAL).transpose() == q,
                 "the right border encodes Q")
        rule = burge_backward
    h, w = len(side) - 1, len(bottom) - 1
    fill = [[()] * w + [side[k]] for k in range(h)] + [list(bottom)]
    rows = [[0] * w for _ in range(h)]
    for k in range(h - 1, -1, -1):
        below, here = fill[k + 1], fill[k]
        for l in range(w - 1, -1, -1):
            here[l], rows[k][l] = rule(here[l + 1], below[l], below[l + 1])
    if m.binary:
        rows = [row[::-1] for row in rows]
    _require(type(m)(rows) == m, "the backward fill rebuilds m")
    _require(not any(fill[0]) and not any(row[0] for row in fill),
             "the backward fill ends on empty borders")
    _require(compose(p, q) == m, "compose rebuilds m as the backward fill does")


@_names_case
def check_stage_agreement(s1, s2, box):
    """The LR count and the four stages of both modes agree."""
    values = {lr_count(s1, s2, BINARY)}
    for mode in (BINARY, INTEGRAL):
        for stage in STAGES:
            values.add(alternating_sum(s1, s2, stage, mode, box))
    _require(len(values) == 1, f"LR counts and stage values agree, got {sorted(values)}")


def _edge_sign(m, shape, which):
    """The edge symbol of the margin that the failing condition reads,
    shifted by shape.inner, against shape.outer: the row sums (binary) or
    column sums (integral) for LR; for tableau, the other margin, against
    the conjugate shape for binary, whose tableau chain starts at
    conjugate(inner)."""
    if which == LR:
        margin = m.row_sums() if m.binary else m.col_sums()
    else:
        margin = m.col_sums() if m.binary else m.row_sums()
        if m.binary:
            shape = SkewShape(conjugate(shape.outer), conjugate(shape.inner))
    return edge_symbol(add(shape.inner, margin), shape.outer)


@_names_case
def check_involution_pairing(m, partner, shape, which, other):
    """partner = involution(m, shape, which) reverses the edge sign, and
    differs from m where that sign is nonzero; it pairs back to m, keeps
    the LR witness, and meets the perpendicular condition for other as m
    does."""
    sign = _edge_sign(m, shape, which)
    _require(sign + _edge_sign(partner, shape, which) == 0, "the involution reverses the edge sign")
    _require(sign == 0 or partner != m, "a matrix of nonzero sign is not fixed")
    _require(involution(partner, shape, which) == m, "the involution pairs back")
    if which == LR:
        _require(lr_witness(partner, shape) == lr_witness(m, shape), "the witness is kept")
    perp = TABLEAU if which == LR else LR
    mode = mode_of(m)
    _require(condition(m, other, perp, mode) == condition(partner, other, perp, mode),
             "the perpendicular condition is kept")


@_names_case
def check_dual(t):
    """The Schutzenberger dual of a straight tableau t is a reverse
    tableau of t's weight whose dual is t, and rectifying its rotated
    complement gives t back.  `dual` builds its result without the
    checks of `Tableau(...)`; its chain passes them here."""
    d = dual(t)
    _require(Tableau(d.flavor, d.chain) == d, "the dual's chain is a valid chain of its flavor")
    _require(d.flavor == REVERSE, "the dual is a reverse tableau")
    _require(dual(d) == t, "dual is an involution")
    _require(trim(d.weight()) == trim(t.weight()), "dual keeps the weight")
    k = max(len(t.outer), 1)
    l = max((t.outer[0] if t.outer else 0), 1)
    _require(rectify(rotate_complement(d, (k, l))) == t, "the rectification route gives t")


@_names_case
def check_pictures(s1, s2):
    """The pictures from s1 to s2 are pairwise distinct pictures, as many
    as the tableau-side matrices that meet the LR condition for s2 (a
    route through the chain walk, not the LR filling search), and each is
    the lift of its Int and its Bin projection."""
    pics = enumerate_pictures(s1, s2)
    want = sum(condition(m, s2, LR, INTEGRAL) for m in tableau_side(s1, s2, INTEGRAL))
    _require(len(pics) == want, "picture count = LR members of the tableau side")
    _require(len(set(pics)) == len(pics), "the pictures are pairwise distinct")
    for p in pics:
        _require(validate(p.mapping, s1, s2), "each picture is order-compatible")
        _require(lift(project(p, INT), s1, s2, INT) == p, "Int projection lifts back")
        _require(lift(project(p, BIN), s1, s2, BIN) == p, "Bin projection lifts back")


def suite_moves(rng):
    """move defined iff potential > 0; opposite moves invert; the parallel
    moves of tableau encodings, straight and skew, are the tableau crystal
    operators."""
    for _ in range(150):
        m = _small_matrix(rng, rng.random() < 0.5)
        for d in DIRECTIONS:
            for idx in range(3):
                check_move_iff_potential(m, d, idx)
                check_opposite_inverts(m, d, idx)
    for n in range(30):
        check_crystal_operators(random_sst(rng, ((), (2, 1), (3, 1, 1))[n % 3]))


def suite_potentials(rng):
    """potential equals the count of successive oracle moves; margin
    identities."""
    for _ in range(100):
        m = _small_matrix(rng, rng.random() < 0.5)
        for idx in range(3):
            for d in DIRECTIONS:
                check_potential_counts_moves(m, d, idx)
            check_margin_identities(m, idx)


def suite_commutation(rng):
    """Perpendicular moves commute and leave perpendicular potentials fixed."""
    for _ in range(150):
        m = _small_matrix(rng, rng.random() < 0.5)
        for i in range(2):
            for j in range(2):
                for dv, dh in ((UP, LEFT), (UP, RIGHT), (DOWN, LEFT), (DOWN, RIGHT)):
                    check_commute(m, dv, i, dh, j)
                check_perpendicular_potentials(m, UP, i, j)


def suite_roundtrip(rng):
    """decompose / compose are mutually inverse; exhaust matches literal
    per-move exhaustion."""
    for _ in range(60):
        m = _small_matrix(rng, rng.random() < 0.5)
        check_roundtrip(m)
        check_exhaust(m, (UP, LEFT))


def suite_oracles(rng):
    """Insertion oracles agree with the crystal decomposition."""
    for _ in range(40):
        check_insertion_encodings(_small_matrix(rng, False, 3, 3, 2))
    for _ in range(40):
        check_insertion_encodings(_small_matrix(rng, True, 3, 4))
    for _ in range(20):
        check_rectify(random_sst(rng, (), 5, 4))


def suite_growth(rng):
    """Local rules match direct normalization in all four orientations; the
    borders read (P, Q) and the backward rules fill them back to m."""
    for _ in range(12):
        m = _small_matrix(rng, rng.random() < 0.5)
        check_growth(m)
        check_growth_decomposition(m)


def suite_sums(rng):
    """Stage agreement with lr_count on random small shape pairs."""
    shapes = skew_shapes(4)
    for _ in range(15):
        check_stage_agreement(rng.choice(shapes), rng.choice(shapes), (5, 5))


def suite_involution(rng):
    """Cancellation pairing properties on random failing matrices, and on
    the failing matrices an alternating sum cancels (`tableau_side`),
    whose edge sign is nonzero."""
    shapes = skew_shapes(4)
    checked = 0
    while checked < 60:
        m = _small_matrix(rng, rng.random() < 0.5, 3, 3, 2)
        sh = rng.choice(shapes)
        for which in (LR, TABLEAU):
            try:
                partner = involution(m, sh, which)
            except NotCancellable:
                continue
            check_involution_pairing(m, partner, sh, which, rng.choice(shapes))
            checked += 1
    # pairs of weight 0 or 1 seldom have a failing matrix
    heavy = [s for s in shapes if s.weight >= 2]
    signed = 0
    while signed < 10:
        s1 = rng.choice(heavy)
        s2 = rng.choice([s for s in heavy if s.weight == s1.weight])
        mode = rng.choice((BINARY, INTEGRAL))
        failing = [m for m in tableau_side(s1, s2, mode) if not condition(m, s2, LR, mode)]
        if failing:
            m = rng.choice(failing)
            check_involution_pairing(m, involution(m, s2, LR), s2, LR, rng.choice(shapes))
            signed += 1


def suite_schutzenberger(rng):
    """dual is a weight-preserving involution; rectification route agrees."""
    for _ in range(40):
        check_dual(random_sst(rng, (), 5, 4))


def suite_pictures(rng):
    """Picture counts match the LR members of the tableau side; pictures
    are distinct and valid; project/lift round-trip."""
    shapes = skew_shapes(3)
    for _ in range(15):
        check_pictures(rng.choice(shapes), rng.choice(shapes))


SUITES = {
    "moves": suite_moves,
    "potentials": suite_potentials,
    "commutation": suite_commutation,
    "roundtrip": suite_roundtrip,
    "oracles": suite_oracles,
    "growth": suite_growth,
    "sums": suite_sums,
    "involution": suite_involution,
    "schutzenberger": suite_schutzenberger,
    "pictures": suite_pictures,
}


def run_suites(names, rng, verbose=False) -> bool:
    """Run the named suites ("all" for every one); an unknown name is a
    UsageError, raised before any suite runs.  A suite fails on the first
    error it raises; verbose prints one PASS or FAIL line per suite, and
    the error of a failing one, naming its case, to stderr."""
    for name in names:
        if name != "all" and name not in SUITES:
            raise UsageError(f"unknown suite {name!r}")
    if "all" in names:
        names = list(SUITES)
    ok = True
    for name in names:
        try:
            SUITES[name](rng)
            passed = True
        except Exception as exc:
            passed = False
            if verbose:
                print(f"{name}: {exc}", file=sys.stderr)
        ok = ok and passed
        if verbose:
            print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return ok
