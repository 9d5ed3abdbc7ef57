import itertools
import random

import pytest
from hypothesis import given, settings

from doublecrystal.decomposition import exhaust
from doublecrystal.crystal_binary import DOWN, LEFT, RIGHT, UP
from doublecrystal.growth import (
    COL_INSERTION,
    NE,
    NW,
    ORIENTATIONS,
    ROW_INSERTION,
    SE,
    SW,
    ShapeDatumError,
    _h_le,
    burge_backward,
    burge_forward,
    dual_backward,
    dual_forward,
    french_form,
    growth_diagram,
    implicit_shape,
    recognize_french,
    recognize_sliced,
    render_growth_diagram,
    rsk_backward,
    rsk_forward,
    sliced_form,
)
from doublecrystal.insertion import burge, dual_rsk_col
from doublecrystal.matrices import BinaryMatrix, IntegralMatrix
from doublecrystal.shapes import (
    HORIZONTAL,
    VERTICAL,
    conjugate,
    contains,
    is_partition,
    padded,
    part,
    partitions_up_to,
    revert,
    size,
    strip_le,
    trim,
)
from doublecrystal.verify import check_growth, check_growth_decomposition, random_matrix

from conftest import M_BIN, M_INT, climb, matrices, outcome


def test_implicit_shape_examples():
    assert implicit_shape(M_INT.restrict((0, 4), (0, 7))) == (8, 8, 4, 2)
    assert implicit_shape(M_BIN.restrict((0, 6), (0, 4))) == (4, 4, 2, 1)
    assert implicit_shape(IntegralMatrix()) == ()


def test_burge_forward_golden():
    kappa, trace = burge_forward((8, 4, 2), (8, 7, 2), (8, 5, 3, 1), 2, with_trace=True)
    assert kappa == (8, 8, 4, 2)
    assert trace == ((3, 2, 1), (4, 4, 0), (8, 8, 0))
    assert burge_forward((), (), (), 0) == ()
    # the carry propagates to kappa_0 rather than extending the first row
    assert burge_forward((2, 1), (2, 1), (2, 1), 5) == (5, 2, 1)
    with pytest.raises(ShapeDatumError):
        burge_forward((2,), (1,), (2,), 0)


def test_burge_backward_golden():
    assert burge_backward((11, 9, 8), (10, 9, 8, 2), (13, 9, 9, 5)) == ((9, 9, 6), 3)
    assert burge_backward((), (), ()) == ((), 0)


def test_rsk_golden():
    assert rsk_forward((5, 5, 2, 1), (8, 5, 5, 2), (8, 5, 3, 1, 1), 0) == (8, 8, 5, 3, 1)
    assert rsk_forward((), (), (), 0) == ()
    assert rsk_forward((1,), (1,), (1,), 0) == (1,)
    assert rsk_backward((8, 5, 5, 2), (8, 5, 3, 1, 1), (8, 8, 5, 3, 1)) == ((5, 5, 2, 1), 0)
    assert rsk_backward((), (), ()) == ((), 0)


def test_dual_datum_golden():
    assert dual_forward((5, 3, 2), (6, 3, 3, 1, 1), (6, 3, 2, 2), 1, ROW_INSERTION) == (7, 4, 3, 2, 1, 1)
    assert dual_forward((3, 2, 1), (4, 2, 2, 1), (5, 2, 2), 0, COL_INSERTION) == (6, 3, 2, 1)
    assert dual_forward((), (), (), 0, ROW_INSERTION) == ()
    assert dual_backward((6, 3, 3, 1, 1), (6, 3, 2, 2), (7, 4, 3, 2, 1, 1), ROW_INSERTION) == ((5, 3, 2), 1)
    assert dual_backward((4, 2, 2, 1), (5, 2, 2), (6, 3, 2, 1), COL_INSERTION) == ((3, 2, 1), 0)


def _integral_inputs(max_size):
    for lam in partitions_up_to(max_size):
        for mu in partitions_up_to(max_size):
            if not strip_le(lam, mu, HORIZONTAL):
                continue
            for nu in partitions_up_to(max_size):
                if strip_le(lam, nu, HORIZONTAL):
                    yield lam, mu, nu


def test_integral_data_roundtrip_exhaustive():
    # forward/backward inverse for all strip-compatible inputs with |kappa| <= 6
    seen = 0
    for lam, mu, nu in _integral_inputs(6):
        for m in range(7):
            if size(mu) + size(nu) - size(lam) + m > 6:
                continue
            for fwd, bwd in ((burge_forward, burge_backward), (rsk_forward, rsk_backward)):
                kappa = fwd(lam, mu, nu, m)
                assert size(kappa) == size(mu) + size(nu) - size(lam) + m
                assert strip_le(mu, kappa, HORIZONTAL) and strip_le(nu, kappa, HORIZONTAL)
                assert bwd(mu, nu, kappa) == (lam, m)
                seen += 1
    assert seen == 1614


# The integral rules before their one-pass form, kept as oracles: both
# strip relations checked on the padded tuples before anything else, then
# Burge's carry loop over a gain tuple and RSK's closed formula over the
# row minima and maxima of mu and nu.


def oracle_burge_forward(lam, mu, nu, m, with_trace=False):
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    if m < 0:
        raise ShapeDatumError("entry must be nonnegative")
    n = max(len(lam), len(mu), len(nu)) + 1
    lp, mp, np_ = padded(lam, n), padded(mu, n), padded(nu, n)
    if not (_h_le(lp, mp) and _h_le(lp, np_)):
        raise ShapeDatumError(f"need lam <=h mu and lam <=h nu: {lam}, {mu}, {nu}")
    gain = tuple(p + q - l for l, p, q in zip(lp, mp, np_))
    c = m
    kappa = [0] * n
    trace = []
    for i in range(n - 1, 0, -1):
        d = gain[i] + c
        k = kappa[i] = min(d, lp[i - 1])
        c = d - k
        if trace or k != 0 or d != c:
            trace.append((d, k, c))
    kappa[0] = gain[0] + c
    return (trim(kappa), tuple(trace)) if with_trace else trim(kappa)


def oracle_rsk_forward(lam, mu, nu, m):
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    if m < 0:
        raise ShapeDatumError("entry must be nonnegative")
    n = max(len(lam), len(mu), len(nu)) + 1
    lp, mp, np_ = padded(lam, n), padded(mu, n), padded(nu, n)
    if not (_h_le(lp, mp) and _h_le(lp, np_)):
        raise ShapeDatumError(f"need lam <=h mu and lam <=h nu: {lam}, {mu}, {nu}")
    lows = [min(a, b) for a, b in zip(mp, np_)]
    tops = [max(a, b) for a, b in zip(mp, np_)]
    # kappa_{i+1} = min(mu_i, nu_i) - lam_i + max(mu_{i+1}, nu_{i+1})
    return trim((m + tops[0], *(lo - l + t for lo, l, t in zip(lows, lp, tops[1:]))))


# The integral backward rules before their one-pass form, kept as oracles:
# after the strip relations they check that lam is a partition (RSK also
# that m >= 0 and lam <=h mu, nu) and re-run the forward rule.


def oracle_burge_backward(mu, nu, kappa):
    mu, nu, kappa = trim(mu), trim(nu), trim(kappa)
    n = max(len(mu), len(nu), len(kappa)) + 1
    mp, np_, kp = padded(mu, n), padded(nu, n), padded(kappa, n)
    if not (_h_le(mp, kp) and _h_le(np_, kp)):
        raise ShapeDatumError(f"need mu <=h kappa and nu <=h kappa: {mu}, {nu}, {kappa}")
    c = 0
    lam = []
    for a, b, k, k_next in zip(mp, np_, kp, kp[1:]):
        d = a + b - k - c
        lam.append(max(d, k_next))
        c = lam[-1] - d
    lam = trim(lam)
    if not is_partition(lam):
        raise ShapeDatumError(f"backward datum produced a non-partition: {lam}")
    if oracle_burge_forward(lam, mu, nu, c) != kappa:
        raise ShapeDatumError("backward datum does not invert the forward datum")
    return lam, c


def oracle_rsk_backward(mu, nu, kappa):
    mu, nu, kappa = trim(mu), trim(nu), trim(kappa)
    n = max(len(mu), len(nu), len(kappa)) + 1
    mp, np_, kp = padded(mu, n), padded(nu, n), padded(kappa, n)
    if not (_h_le(mp, kp) and _h_le(np_, kp)):
        raise ShapeDatumError(f"need mu <=h kappa and nu <=h kappa: {mu}, {nu}, {kappa}")
    m = kp[0] - max(mp[0], np_[0])
    lam = trim(min(a, b) + max(a1, b1) - k1
               for a, b, a1, b1, k1 in zip(mp, np_, mp[1:], np_[1:], kp[1:]))
    if m < 0 or not is_partition(lam):
        raise ShapeDatumError(f"backward datum produced invalid (lam, m) = ({lam}, {m})")
    lp = padded(lam, n)
    if not (_h_le(lp, mp) and _h_le(lp, np_)):
        raise ShapeDatumError(f"backward lam is not <=h mu, nu: {lam}")
    if oracle_rsk_forward(lam, mu, nu, m) != kappa:
        raise ShapeDatumError("backward datum does not invert the forward datum")
    return lam, m


def test_integral_data_match_oracle():
    # every triple of partitions up to size 5 and entry -1..2, with the
    # message of each rejection and Burge's trace
    for triple in itertools.product(partitions_up_to(5), repeat=3):
        for m in range(-1, 3):
            for with_trace in (False, True):
                assert outcome(burge_forward, *triple, m, with_trace) == outcome(
                    oracle_burge_forward, *triple, m, with_trace)
            assert outcome(rsk_forward, *triple, m) == outcome(oracle_rsk_forward, *triple, m)


def test_burge_forward_keeps_lam_strip():
    for lam, mu, nu in _integral_inputs(4):
        for m in range(3):
            kappa = burge_forward(lam, mu, nu, m)
            assert strip_le(lam, kappa, HORIZONTAL)


def test_dual_data_roundtrip_exhaustive():
    seen = 0
    for lam in partitions_up_to(5):
        for mu in partitions_up_to(6):
            if not strip_le(lam, mu, VERTICAL):
                continue
            for nu in partitions_up_to(6):
                if not strip_le(lam, nu, HORIZONTAL):
                    continue
                for bit in (0, 1):
                    for flavor in (ROW_INSERTION, COL_INSERTION):
                        kappa = dual_forward(lam, mu, nu, bit, flavor)
                        if size(kappa) > 6:
                            continue
                        assert size(kappa) == size(mu) + size(nu) - size(lam) + bit
                        assert strip_le(mu, kappa, HORIZONTAL)
                        assert strip_le(nu, kappa, VERTICAL)
                        assert dual_backward(mu, nu, kappa, flavor) == (lam, bit)
                        seen += 1
    assert seen > 1000


def test_growth_diagram_goldens():
    gd = growth_diagram(M_INT, NW)
    assert gd.grid[2][6] == (7, 2)
    assert gd.grid[4][7] == (8, 8, 4, 2)
    assert gd.grid[5][7] == (8, 8, 5, 3, 1)
    gd = growth_diagram(IntegralMatrix([[0, 0], [0, 0]]), NW)
    assert all(s == () for row in gd.grid for s in row)


def test_growth_matches_normalization_random():
    rng = random.Random(2)
    for _ in range(25):
        binary = rng.random() < 0.5
        check_growth(random_matrix(rng, binary, rng.randint(1, 4), rng.randint(1, 4)))


def test_growth_decomposition_small_and_at_side_64():
    # the growth diagram's borders read decompose's (P, Q) and the backward
    # rules fill them back to the matrix, kernel-free: small random
    # matrices, empty ones included, then side 64 in both modes
    rng = random.Random(10)
    for t in range(40):
        h, w = rng.randint(0, 6), rng.randint(0, 6)
        check_growth_decomposition(random_matrix(rng, t % 2 == 0, h, w))
    for seed in (64, 65):
        for binary in (False, True):
            check_growth_decomposition(random_matrix(random.Random(seed), binary, 64, 64))


def test_growth_decomposition_binary_96x128():
    # a tall binary case: 97 x 129 grid points, the column-insertion fill
    check_growth_decomposition(random_matrix(random.Random(96), True, 96, 128))


def test_growth_border_readouts():
    # NW integral: bottom border = chain of S (encoded by P), right = Lbar
    gd = growth_diagram(M_INT, NW)
    from conftest import LBAR_CHAIN, S_CHAIN

    assert gd.grid[-1] == S_CHAIN
    assert tuple(row[-1] for row in gd.grid) == LBAR_CHAIN
    # NE binary: bottom = R, left = S
    gd = growth_diagram(M_BIN, NE)
    from conftest import R_CHAIN, RSTAR_CHAIN

    assert gd.grid[-1] == R_CHAIN
    assert tuple(row[0] for row in gd.grid)[1:] == S_CHAIN[1:]
    # NW binary: bottom = R*, right = S
    gd = growth_diagram(M_BIN, NW)
    assert gd.grid[-1] == RSTAR_CHAIN
    assert tuple(row[-1] for row in gd.grid)[1:] == S_CHAIN[1:]
    # SW integral: top = S, right = Lbar*
    gd = growth_diagram(M_INT, SW)
    from conftest import LBARSTAR_CHAIN

    assert gd.grid[0] == S_CHAIN
    assert tuple(row[-1] for row in gd.grid) == LBARSTAR_CHAIN


def test_render_growth_diagram():
    text = render_growth_diagram(growth_diagram(M_INT, NW))
    lines = text.splitlines()
    assert len(lines) == 6
    assert lines[-1].endswith("2 8 8 5 3 1")


def test_french_form():
    f = french_form((4, 4, 2, 1), 6)
    assert f.col_sums() == conjugate((4, 4, 2, 1))
    assert f.row_sums() == revert((4, 4, 2, 1), 6)
    assert recognize_french(f, 6) == (4, 4, 2, 1)
    assert recognize_french(f, 5) is None
    assert french_form((), 4) == BinaryMatrix()
    with pytest.raises(ValueError):
        french_form((3, 2, 1), 2)
    # reachable by exhausting down (bound k) and left on any [k] x N matrix
    rng = random.Random(3)
    for _ in range(25):
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, True, h, w)
        k = h
        out, _ = exhaust(m, (DOWN, LEFT), bound=k)
        lam = implicit_shape(m)
        assert recognize_french(out, k) == lam
        assert out == french_form(lam, k).pad_to(0, 0) or out == french_form(lam, k)


def test_sliced_form():
    s = sliced_form((5, 5, 2, 1), 1, 6)
    assert recognize_sliced(s, 1, 6) == (5, 5, 2, 1)
    assert sliced_form((), 2, 3) == IntegralMatrix()
    with pytest.raises(ValueError):
        sliced_form((1, 1), 0, 1)
    # row sums of the supported block are the partition itself
    assert tuple(sum(r) for r in s.rows[1:5]) == (5, 5, 2, 1)
    # the slicetransform example: exhaust up indices >= 1 and right in [0,5)
    from doublecrystal import crystal_integral as ci

    m = M_INT
    progress = True
    while progress:
        progress = False
        for d, indices in ((UP, range(1, 5)), (RIGHT, range(5))):
            for i in indices:
                m, moved = climb(ci, m, d, i)
                progress = progress or bool(moved)
    block = m.restrict((1, None), (0, 6))
    assert recognize_sliced(block, 1, 6) == (5, 5, 2, 1)
    assert implicit_shape(M_INT.restrict((1, None), (0, 6))) == (5, 5, 2, 1)


def test_weight_law():
    rng = random.Random(4)
    for _ in range(200):
        lam = rng.choice(list(partitions_up_to(4)))
        mus = [p for p in partitions_up_to(5) if strip_le(lam, p, HORIZONTAL)]
        if not mus:
            continue
        mu, nu = rng.choice(mus), rng.choice(mus)
        m = rng.randint(0, 3)
        for fwd in (burge_forward, rsk_forward):
            kappa = fwd(lam, mu, nu, m)
            assert size(kappa) == size(mu) + size(nu) - size(lam) + m


# The literal binary shape datum, kept as an oracle: optional squares read
# off the conjugates, a scan of T per square of S, the obligatory squares
# looked up cell by cell and the new cells added one at a time.


def add_cells(base, cells):
    rows = list(base) + [0] * 4
    for i, j in cells:
        while len(rows) <= i:
            rows.append(0)
        if rows[i] != j:
            raise ShapeDatumError(f"cell {(i, j)} does not extend {trim(base)}")
        rows[i] += 1
    out = trim(rows)
    if not is_partition(out):
        raise ShapeDatumError(f"adding cells broke the partition: {out}")
    return out


def oracle_optional_squares(mu, nu):
    mu, nu = trim(mu), trim(nu)
    mu_t, nu_t = conjugate(mu), conjugate(nu)
    s_set = []
    for i in range(len(mu)):
        j = mu[i] - 1
        if part(nu_t, j) - 1 == i:
            s_set.append((i, j))
    t_set = []
    for i in range(max(len(nu), len(mu)) + 1):
        j = part(nu, i)
        if part(mu_t, j) == i:
            t_set.append((i, j))
    if len(t_set) != len(s_set) + 1:
        raise ShapeDatumError(
            f"optional square sets of sizes {len(s_set)}, {len(t_set)} for {mu}, {nu}"
        )
    return s_set, t_set


def oracle_match_optional(s_set, t_set, flavor):
    pairs = {}
    used = set()
    if flavor == ROW_INSERTION:
        for s in s_set:
            cands = [t for t in t_set if t[0] > s[0] and t not in used]
            if not cands:
                raise ShapeDatumError(f"no match below optional square {s}")
            t = min(cands, key=lambda t: t[0])
            if t[1] > s[1]:
                raise ShapeDatumError(f"matched square {t} not weakly left of {s}")
            pairs[s] = t
            used.add(t)
    elif flavor == COL_INSERTION:
        for s in s_set:
            cands = [t for t in t_set if t[1] > s[1] and t not in used]
            if not cands:
                raise ShapeDatumError(f"no match right of optional square {s}")
            t = min(cands, key=lambda t: t[1])
            if t[0] > s[0]:
                raise ShapeDatumError(f"matched square {t} not weakly above {s}")
            pairs[s] = t
            used.add(t)
    else:
        raise ValueError(f"unknown flavor: {flavor}")
    rest = [t for t in t_set if t not in used]
    if len(rest) != 1:
        raise ShapeDatumError(f"matching left {len(rest)} unmatched squares")
    return pairs, rest[0]


def oracle_dual_forward(lam, mu, nu, bit, flavor):
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    if bit not in (0, 1):
        raise ShapeDatumError("bit must be 0 or 1")
    if not (strip_le(lam, mu, VERTICAL) and strip_le(lam, nu, HORIZONTAL)):
        raise ShapeDatumError(f"need lam <=v mu and lam <=h nu: {lam}, {mu}, {nu}")
    s_set, t_set = oracle_optional_squares(mu, nu)
    meet = tuple(min(part(mu, i), part(nu, i)) for i in range(max(len(mu), len(nu))))
    for i, j in s_set:
        if not j < part(meet, i):
            raise ShapeDatumError(f"optional square {(i, j)} outside mu meet nu")
    obligatory = [(i, j) for i, j in s_set if not j < part(lam, i)]
    if not contains(lam, meet):
        raise ShapeDatumError(f"lam = {lam} not contained in mu meet nu")
    for i in range(len(meet)):
        for j in range(part(lam, i), part(meet, i)):
            if (i, j) not in s_set:
                raise ShapeDatumError(f"obligatory square {(i, j)} missing from lam")
    pairs, t0 = oracle_match_optional(s_set, t_set, flavor)
    join = tuple(max(part(mu, i), part(nu, i)) for i in range(max(len(mu), len(nu))))
    new_cells = [pairs[s] for s in obligatory]
    if bit:
        new_cells.append(t0)
    new_cells.sort(key=lambda t: t[1])
    return add_cells(join, new_cells)


def oracle_dual_backward(mu, nu, kappa, flavor):
    mu, nu, kappa = trim(mu), trim(nu), trim(kappa)
    if not (strip_le(mu, kappa, HORIZONTAL) and strip_le(nu, kappa, VERTICAL)):
        raise ShapeDatumError(f"need mu <=h kappa and nu <=v kappa: {mu}, {nu}, {kappa}")
    s_set, t_set = oracle_optional_squares(mu, nu)
    pairs, t0 = oracle_match_optional(s_set, t_set, flavor)
    join = tuple(max(part(mu, i), part(nu, i)) for i in range(max(len(mu), len(nu))))
    if not contains(join, kappa):
        raise ShapeDatumError(f"kappa = {kappa} missing obligatory squares")
    extra = [(i, j) for i in range(len(kappa)) for j in range(part(join, i), part(kappa, i))]
    for cell in extra:
        if cell != t0 and cell not in pairs.values():
            raise ShapeDatumError(f"kappa has non-optional extra square {cell}")
    bit = 1 if t0 in extra else 0
    meet = tuple(min(part(mu, i), part(nu, i)) for i in range(max(len(mu), len(nu))))
    removed = [s for s, t in pairs.items() if t in extra]
    lam_rows = list(meet)
    for i, j in sorted(removed, reverse=True):
        if lam_rows[i] != j + 1:
            raise ShapeDatumError(f"cannot remove optional square {(i, j)}")
        lam_rows[i] = j
    lam = trim(lam_rows)
    if not is_partition(lam):
        raise ShapeDatumError(f"backward datum produced a non-partition: {lam}")
    if oracle_dual_forward(lam, mu, nu, bit, flavor) != kappa:
        raise ShapeDatumError("backward datum does not invert the forward datum")
    return lam, bit


FLAVORS = (ROW_INSERTION, COL_INSERTION)


def test_dual_data_match_oracle():
    # every valid input up to size 6, then every triple up to size 4 with
    # the message of each rejection
    parts = list(partitions_up_to(6))
    valid = [(lam, mu, nu) for lam, mu, nu in itertools.product(parts, repeat=3)
             if strip_le(lam, mu, VERTICAL) and strip_le(lam, nu, HORIZONTAL)]
    small = list(itertools.product(partitions_up_to(4), repeat=3))
    for triple in valid + small:
        for bit, flavor in itertools.product((0, 1, 2), FLAVORS + ("diagonal",)):
            assert outcome(dual_forward, *triple, bit, flavor) == outcome(
                oracle_dual_forward, *triple, bit, flavor
            )
    images = [(mu, nu, kappa) for mu, nu, kappa in itertools.product(parts, repeat=3)
              if strip_le(mu, kappa, HORIZONTAL) and strip_le(nu, kappa, VERTICAL)]
    for triple in images + small:
        for flavor in FLAVORS + ("diagonal",):
            assert outcome(dual_backward, *triple, flavor) == outcome(
                oracle_dual_backward, *triple, flavor
            )


def test_backward_rules_match_oracle():
    # every triple of partitions up to size 5, then every triple of
    # compositions with parts -1..2 and length <= 2, with the message of
    # each rejection
    comps = [c for k in range(3) for c in itertools.product(range(-1, 3), repeat=k)]
    triples = itertools.chain(itertools.product(partitions_up_to(5), repeat=3),
                              itertools.product(comps, repeat=3))
    for triple in triples:
        assert outcome(burge_backward, *triple) == outcome(oracle_burge_backward, *triple)
        assert outcome(rsk_backward, *triple) == outcome(oracle_rsk_backward, *triple)
        for flavor in FLAVORS + ("diagonal",):
            assert outcome(dual_backward, *triple, flavor) == outcome(
                oracle_dual_backward, *triple, flavor
            )


GROWTH_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@GROWTH_SETTINGS
@given(matrices(8))
def test_growth_matches_normalization_property(m):
    check_growth(m)


@GROWTH_SETTINGS
@given(matrices(24))
def test_growth_corner_matches_insertion_property(m):
    mt = m.trimmed()
    shape = (dual_rsk_col(mt) if mt.binary else burge(mt))[0].outer
    h, w = mt.height, mt.width
    corners = {NW: (h, w), NE: (h, 0), SW: (0, w), SE: (0, 0)}
    for o, (i, j) in corners.items():
        assert growth_diagram(mt, o).grid[i][j] == shape


def test_dual_forward_checks_after_the_strip_relations_never_fire():
    # lam <=v mu and lam <=h nu already imply that the optional squares lie
    # in mu meet nu, that lam does, and that lam holds every obligatory
    # square: the oracle keeps those checks and rejects no strip-valid
    # triple; dual_forward drops them and is compared with the oracle above
    parts = list(partitions_up_to(8))
    seen = 0
    for lam in parts:
        mus = [mu for mu in parts if strip_le(lam, mu, VERTICAL)]
        nus = [nu for nu in parts if strip_le(lam, nu, HORIZONTAL)]
        for mu, nu, bit, flavor in itertools.product(mus, nus, (0, 1), FLAVORS):
            kappa = oracle_dual_forward(lam, mu, nu, bit, flavor)
            assert size(kappa) == size(mu) + size(nu) - size(lam) + bit
            seen += 1
    assert seen == 19092


def test_backward_checks_after_the_strip_relations_never_fire():
    # mu <=h kappa with nu <=h kappa, or nu <=v kappa, already make the
    # three shapes partitions with a lam the forward rule maps back to
    # kappa: the oracles keep every later check and the forward re-run and
    # reject no strip-valid triple; the rules drop them and are compared
    # with the oracles above
    parts = list(partitions_up_to(7))
    integral = binary = 0
    for kappa in parts:
        below = [mu for mu in parts if strip_le(mu, kappa, HORIZONTAL)]
        vbelow = [nu for nu in parts if strip_le(nu, kappa, VERTICAL)]
        for mu, nu in itertools.product(below, below):
            for rule in (oracle_burge_backward, oracle_rsk_backward):
                lam, m = rule(mu, nu, kappa)
                assert size(kappa) == size(mu) + size(nu) - size(lam) + m
            integral += 1
        for mu, nu in itertools.product(below, vbelow):
            for flavor in FLAVORS:
                lam, bit = oracle_dual_backward(mu, nu, kappa, flavor)
                assert size(kappa) == size(mu) + size(nu) - size(lam) + bit
            binary += 1
    assert (integral, binary) == (1755, 1398)


def _reference_grid(m, orientation, burge=burge_forward, rsk=rsk_forward, dual=dual_forward):
    """The grid of growth_diagram point by point, each through the given
    rule (by default the public one) on its three neighbours towards the
    orientation's corner, with trailing zeros appended to every shape fed
    in."""
    mt = m.trimmed()
    h, w = mt.height, mt.width
    di = -1 if orientation in (NW, NE) else 1
    dj = -1 if orientation in (NW, SW) else 1
    if mt.binary:
        flavor = ROW_INSERTION if orientation in (NW, SE) else COL_INSERTION

        def rule(lam, mu, nu, e):
            return dual(lam, mu, nu, e, flavor)
    else:
        rule = burge if orientation in (NW, SE) else rsk
    shapes = {}

    def shape(i, j):
        if (i, j) not in shapes:
            if not (0 <= i + di <= h and 0 <= j + dj <= w):
                shapes[i, j] = ()
            else:
                lam, mu, nu = shape(i + di, j + dj), shape(i + di, j), shape(i, j + dj)
                e = mt[min(i, i + di), min(j, j + dj)]
                shapes[i, j] = rule(lam + (0,) * (i % 3 + 1), mu + (0, 0), nu + (0,) * (j % 2 + 1), e)
        return shapes[i, j]

    return tuple(tuple(shape(i, j) for j in range(w + 1)) for i in range(h + 1))


def test_growth_diagram_matches_public_rules_on_untrimmed_shapes():
    rng = random.Random(11)
    for t in range(40):
        binary = t % 2 == 0
        h, w = rng.randint(0, 16), rng.randint(0, 16)
        density = rng.random()
        top = 1 if binary else rng.randint(1, 3)
        cls = BinaryMatrix if binary else IntegralMatrix
        m = cls([[rng.randint(1, top) if rng.random() < density else 0 for _ in range(w)]
                 for _ in range(h)])
        for o in ORIENTATIONS:
            grid = growth_diagram(m, o).grid
            assert grid == _reference_grid(m, o)
            assert all(not s or s[-1] for row in grid for s in row)


def test_growth_diagram_matches_oracle_rules_at_side_24():
    # one seeded random matrix per mode at the benchmark's smallest side,
    # every point of all four orientations against the oracle rules
    for seed, binary in ((24, False), (25, True)):
        m = random_matrix(random.Random(seed), binary, 24, 24)
        for o in ORIENTATIONS:
            grid = growth_diagram(m, o).grid
            ref = _reference_grid(m, o, oracle_burge_forward, oracle_rsk_forward,
                                  oracle_dual_forward)
            assert len(grid) == len(ref) == m.trimmed().height + 1
            for i, (row, ref_row) in enumerate(zip(grid, ref)):
                assert len(row) == len(ref_row)
                for j, (shape, ref_shape) in enumerate(zip(row, ref_row)):
                    assert shape == ref_shape, (binary, o, i, j)


def test_shape_datum_error_messages():
    # untrimmed, bool and float parts are trimmed to ints before any check,
    # and the entry and bit are checked before the strip relations
    strip = "need lam <=h mu and lam <=h nu: "
    vstrip = "need lam <=v mu and lam <=h nu: "
    back = "need mu <=h kappa and nu <=h kappa: "
    vback = "need mu <=h kappa and nu <=v kappa: "
    R, C = ROW_INSERTION, COL_INSERTION
    cases = [
        (dual_forward, ((1,), (1,), (1,), 2, R), "bit must be 0 or 1"),
        (dual_forward, ((3,), (1,), (), -1, C), "bit must be 0 or 1"),
        (dual_forward, ((1, 2), (2, 2), (2, 2, 0), 0, R), vstrip + "(1, 2), (2, 2), (2, 2)"),
        (dual_forward, ((True,), (3.0,), (1, 0), 1, C), vstrip + "(1,), (3,), (1,)"),
        (dual_forward, ((2, 1), (2, 1), (1, 1), 0, R), vstrip + "(2, 1), (2, 1), (1, 1)"),
        (dual_forward, ((1, -1), (1,), (1,), 0, R), vstrip + "(1, -1), (1,), (1,)"),
        (burge_backward, ((2,), (1,), (1, 1, 0)), back + "(2,), (1,), (1, 1)"),
        (burge_backward, ((False, 0), (), (True, 1)), back + "(), (), (1, 1)"),
        (rsk_backward, ((2,), (1,), (1, 1, 0)), back + "(2,), (1,), (1, 1)"),
        (rsk_backward, ((False, 0), (), (True, 1)), back + "(), (), (1, 1)"),
        (dual_backward, ((1,), (1,), (3,), R), vback + "(1,), (1,), (3,)"),
        (dual_backward, ((2, 0), (1,), (1, 1), C), vback + "(2,), (1,), (1, 1)"),
        (dual_backward, ((1, 0), (True, True, True), (2, 1, 1, 1), R),
         vback + "(1,), (1, 1, 1), (2, 1, 1, 1)"),
    ]
    for rule in (burge_forward, rsk_forward):
        cases += [
            (rule, ((1,), (1,), (1,), -1), "entry must be nonnegative"),
            (rule, ((3,), (1,), (2,), -1), "entry must be nonnegative"),
            (rule, ((2, 0), (1, 0, 0), (True, True), 0), strip + "(2,), (1,), (1, 1)"),
            (rule, ((-1,), (), (), 0), strip + "(-1,), (), ()"),
        ]
    for rule, args, message in cases:
        assert outcome(rule, *args) == (ShapeDatumError, message), (rule.__name__, args)
    assert outcome(dual_forward, (), (), (0, 0), 0, "diagonal") == (
        ValueError, "unknown flavor: diagonal")
