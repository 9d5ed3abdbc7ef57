"""Named property suites behind `doublecrystal verify`.

Each suite runs a randomized or small-exhaustive version of a library
invariant and returns True on success.  The random generator is seeded
from DC_SEED by the CLI for reproducibility.
"""

from .cancellation import (
    STAGES,
    NotCancellable,
    alternating_sum,
    involution,
    lr_count,
    lr_witness,
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
    normal_form,
    potential,
)
from .growth import ORIENTATIONS, growth_diagram
from .insertion import burge, dual_rsk_col, rectify
from .matrices import (
    BINARY,
    INTEGRAL,
    LR,
    TABLEAU,
    BinaryMatrix,
    IntegralMatrix,
    condition,
    encode,
)
from .pictures import BIN, INT, enumerate_pictures, lift, project
from .schutzenberger import dual, rotate_complement
from .shapes import (
    SST,
    SkewShape,
    Tableau,
    part,
    partitions_up_to,
    subpartitions,
    trim,
)


def _random_matrix(rng, binary, max_h=4, max_w=4, max_e=3):
    h = rng.randint(1, max_h)
    w = rng.randint(1, max_w)
    cap = 1 if binary else max_e
    cls = BinaryMatrix if binary else IntegralMatrix
    return cls([[rng.randint(0, cap) for _ in range(w)] for _ in range(h)])


def _random_sst(rng, max_strips=5, max_row=4):
    chain = [()]
    for _ in range(rng.randint(1, max_strips)):
        cur = chain[-1]
        nxt = []
        for i in range(len(cur) + 1):
            lo = cur[i] if i < len(cur) else 0
            hi = min(nxt[i - 1] if i else lo + max_row, lo + max_row,
                     cur[i - 1] if i else lo + max_row)
            nxt.append(rng.randint(lo, max(lo, hi)))
        chain.append(trim(nxt))
    return Tableau(SST, tuple(chain))


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


def suite_moves(rng):
    """move defined iff potential > 0; opposite moves invert.

    Both read the kernel's one bracket scan, so a second legal position is
    not looked for here: suite_potentials counts moves with oracle_move,
    which raises when more than one position is legal."""
    for _ in range(150):
        m = _random_matrix(rng, rng.random() < 0.5)
        for d in DIRECTIONS:
            for idx in range(3):
                pot = potential(m, d, idx)
                res = apply_move(m, d, idx)
                if (res is not None) != (pot > 0):
                    return False
                if res is not None:
                    back = apply_move(res[0], OPPOSITE[d], idx)
                    if back is None or back[0] != m:
                        return False
    return True


def suite_potentials(rng):
    """potential equals the count of successive oracle moves; margin
    identities."""
    for _ in range(100):
        m = _random_matrix(rng, rng.random() < 0.5)
        rs, cs = m.row_sums(), m.col_sums()
        for idx in range(3):
            for d in DIRECTIONS:
                n = 0
                x = m
                while (step := oracle_move(x, d, idx)) is not None:
                    x = step[0]
                    n += 1
                if n != potential(m, d, idx):
                    return False
            if potential(m, DOWN, idx) - potential(m, UP, idx) != part(rs, idx) - part(rs, idx + 1):
                return False
            if potential(m, RIGHT, idx) - potential(m, LEFT, idx) != part(cs, idx) - part(cs, idx + 1):
                return False
    return True


def suite_commutation(rng):
    """Perpendicular moves commute and leave perpendicular potentials fixed."""
    for _ in range(150):
        m = _random_matrix(rng, rng.random() < 0.5)
        for i in range(2):
            for j in range(2):
                for dv, dh in ((UP, LEFT), (UP, RIGHT), (DOWN, LEFT), (DOWN, RIGHT)):
                    a = apply_move(m, dv, i)
                    b = apply_move(m, dh, j)
                    if a is None or b is None:
                        continue
                    ab = apply_move(a[0], dh, j)
                    ba = apply_move(b[0], dv, i)
                    if ab is None or ba is None or ab[0] != ba[0]:
                        return False
                if apply_move(m, UP, i) is not None:
                    mu = apply_move(m, UP, i)[0]
                    if any(potential(mu, d, j) != potential(m, d, j) for d in (LEFT, RIGHT)):
                        return False
    return True


def suite_roundtrip(rng):
    """decompose / compose are mutually inverse; exhaust, the reduced-word
    sweep behind decompose and normal_form, gives the matrix and records
    of literal per-move exhaustion."""
    for _ in range(60):
        m = _random_matrix(rng, rng.random() < 0.5)
        p, q = decompose(m)
        if compose(p, q) != m:
            return False
        out, records = exhaust(m, (UP, LEFT))
        want, want_records = oracle_exhaust(m, (UP, LEFT))
        if out.rows != want.rows or records != want_records:
            return False
        if normal_form(p) != normal_form(m):
            return False
    return True


def suite_oracles(rng):
    """Insertion oracles agree with the crystal decomposition."""
    for _ in range(40):
        m = _random_matrix(rng, False, 3, 3, 2)
        p, q = decompose(m)
        s, lbar = burge(m)
        if encode(s, INTEGRAL) != p or encode(lbar, INTEGRAL).transpose() != q:
            return False
    for _ in range(40):
        m = _random_matrix(rng, True, 3, 4)
        p, q = decompose(m)
        s, r = dual_rsk_col(m)
        if encode(s, BINARY) != q:
            return False
        # column suffix sums of P reproduce the recording chain
        n = max(p.width, len(r.chain) - 1)
        pp = p.pad_to(1, n)
        chain = tuple(trim(sum(row[j:]) for row in pp.rows) for j in range(n + 1))
        if chain != r.padded_chain(n + 1):
            return False
    for _ in range(20):
        t = _random_sst(rng)
        m = encode(t, INTEGRAL)
        pe, _ = exhaust(m, (UP,))
        if encode(rectify(t), INTEGRAL) != pe:
            return False
    return True


def suite_growth(rng):
    """Local rules match direct normalization in all four orientations."""
    for _ in range(12):
        m = _random_matrix(rng, rng.random() < 0.5, 4, 4, 3)
        for o in ORIENTATIONS:
            growth_diagram(m, o, verify=True)
    return True


def suite_sums(rng):
    """Stage agreement with lr_count on random small shape pairs."""
    shapes = [SkewShape(o, i) for o in partitions_up_to(4) for i in subpartitions(o)]
    for _ in range(15):
        s1 = rng.choice(shapes)
        s2 = rng.choice(shapes)
        counts = {lr_count(s1, s2, BINARY), lr_count(s1, s2, INTEGRAL)}
        for mode in (BINARY, INTEGRAL):
            for stage in STAGES:
                counts.add(alternating_sum(s1, s2, stage, mode, (5, 5)))
        if len(counts) != 1:
            return False
    return True


def suite_involution(rng):
    """Cancellation pairing properties on random failing matrices."""
    shapes = [SkewShape(o, i) for o in partitions_up_to(4) for i in subpartitions(o)]
    checked = 0
    while checked < 60:
        binary = rng.random() < 0.5
        m = _random_matrix(rng, binary, 3, 3, 2)
        sh = rng.choice(shapes)
        mode = BINARY if binary else INTEGRAL
        for which in (LR, TABLEAU):
            try:
                mp = involution(m, sh, which)
            except NotCancellable:
                continue
            if involution(mp, sh, which) != m:
                return False
            if which == LR and lr_witness(mp, sh) != lr_witness(m, sh):
                return False
            sh2 = rng.choice(shapes)
            perp = TABLEAU if which == LR else LR
            if condition(m, sh2, perp, mode) != condition(mp, sh2, perp, mode):
                return False
            checked += 1
    return True


def suite_schutzenberger(rng):
    """dual is a weight-preserving involution; rectification route agrees."""
    for _ in range(40):
        t = _random_sst(rng)
        d = dual(t)
        if dual(d) != t:
            return False
        if trim(d.weight()) != trim(t.weight()):
            return False
        k = max(len(t.outer), 1)
        l = max((t.outer[0] if t.outer else 0), 1)
        if rectify(rotate_complement(d, (k, l))) != t:
            return False
    return True


def suite_pictures(rng):
    """Picture counts match LR counts; project/lift round-trip."""
    shapes = [SkewShape(o, i) for o in partitions_up_to(3) for i in subpartitions(o)]
    for _ in range(15):
        s1, s2 = rng.choice(shapes), rng.choice(shapes)
        pics = enumerate_pictures(s1, s2)
        if len(pics) != lr_count(s1, s2, INTEGRAL):
            return False
        for p in pics:
            if lift(project(p, INT), s1, s2, INT) != p:
                return False
            if lift(project(p, BIN), s1, s2, BIN) != p:
                return False
    return True


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
    UsageError, raised before any suite runs."""
    for name in names:
        if name != "all" and name not in SUITES:
            raise UsageError(f"unknown suite {name!r}")
    if "all" in names:
        names = list(SUITES)
    ok = True
    for name in names:
        passed = SUITES[name](rng)
        ok = ok and passed
        if verbose:
            print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return ok
