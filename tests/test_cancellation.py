import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.cancellation import (
    BRUTE,
    FULLY_REDUCED,
    LR_FIRST,
    STAGES,
    TAB_FIRST,
    BoxTooSmall,
    NotCancellable,
    _chains,
    _kostka,
    _least_box,
    _lr_search,
    _margin_count,
    _margin_fill,
    _stage_value,
    _symbol_support,
    alternating_sum,
    edge_symbol,
    involution,
    lr_count,
    lr_witness,
    tableau_side,
)
from doublecrystal.crystal_binary import DOWN, LEFT, RIGHT, UP
from doublecrystal.decomposition import UsageError
from doublecrystal.matrices import (
    BINARY,
    INTEGRAL,
    LR,
    TABLEAU,
    BinaryMatrix,
    IntegralMatrix,
    chain_walk,
    condition,
    diagram,
    mode_of,
)
from doublecrystal.shapes import (
    SkewShape,
    add,
    conjugate,
    part,
    partitions_up_to,
    subpartitions,
    trim,
)
from doublecrystal.verify import (
    check_involution_pairing,
    check_stage_agreement,
    random_matrix,
    skew_shapes,
)

from conftest import LR_PAIRS_10_TO_15, all_binary, all_integral, outcome


class TestEdgeSymbol:
    def test_partition_case(self):
        for lam in partitions_up_to(6):
            for alpha in partitions_up_to(6):
                assert edge_symbol(alpha, lam) == (1 if alpha == lam else 0)

    def test_examples(self):
        assert edge_symbol((0, 2), (1, 1)) == -1
        for lam in partitions_up_to(4):
            assert edge_symbol((0, 1), lam) == 0

    @settings(max_examples=500)
    @given(st.data())
    def test_exchange_antisymmetry(self, data):
        k = data.draw(st.integers(min_value=2, max_value=6))
        alpha = tuple(data.draw(st.integers(min_value=0, max_value=8)) for _ in range(k))
        i = data.draw(st.integers(min_value=0, max_value=k - 2))
        if alpha[i + 1] == 0:
            return
        ap = list(alpha)
        ap[i], ap[i + 1] = alpha[i + 1] - 1, alpha[i] + 1
        lam = data.draw(st.sampled_from(list(partitions_up_to(8))))
        assert edge_symbol(alpha, lam) + edge_symbol(tuple(ap), lam) == 0


def naive_stage(shape1, shape2, stage, mode, box):
    """Literal sum over explicitly enumerated matrices in the box."""
    h, w = box
    lam, kap = shape1.outer, shape1.inner
    nu, mu = shape2.outer, shape2.inner
    cls = BinaryMatrix if mode == BINARY else IntegralMatrix
    cells = [(i, j) for i in range(h) for j in range(w)]
    total = 0
    for n in sorted({shape1.weight, shape2.weight}):
        if n < 0:
            continue
        gen = itertools.combinations if mode == BINARY else itertools.combinations_with_replacement
        for combo in gen(range(len(cells)), n):
            rows = [[0] * w for _ in range(h)]
            for c in combo:
                i, j = cells[c]
                rows[i][j] += 1
            m = cls(rows)
            rs, cs = m.row_sums(), m.col_sums()
            if mode == BINARY:
                f = edge_symbol(add(conjugate(kap), cs), conjugate(lam))
                g = edge_symbol(add(mu, rs), nu)
            else:
                f = edge_symbol(add(kap, rs), lam)
                g = edge_symbol(add(mu, cs), nu)
            tab = condition(m, shape1, TABLEAU, mode)
            lr = condition(m, shape2, LR, mode)
            if stage == BRUTE:
                total += f * g
            elif stage == TAB_FIRST:
                total += g if tab else 0
            elif stage == LR_FIRST:
                total += f if lr else 0
            else:
                total += 1 if (tab and lr) else 0
    return total


def test_stages_match_naive_enumeration():
    pairs = [
        (SkewShape((2, 1)), SkewShape((2, 1))),
        (SkewShape((3,)), SkewShape((2, 1))),
        (SkewShape((2, 2), (1,)), SkewShape((3,))),
        (SkewShape((3, 1), (1,)), SkewShape((2, 1))),
        (SkewShape((2,)), SkewShape((1, 1))),
        (SkewShape((2, 1), (1,)), SkewShape((3, 1), (2,))),
        (SkewShape((2,)), SkewShape((3,), (1,))),
        (SkewShape((1,)), SkewShape((2,))),  # mismatched weights sum to zero
    ]
    # the stages read no box: one value must match the literal sum both at
    # the pair's least covering box and at (4, 4)
    for s1, s2 in pairs:
        for mode in (BINARY, INTEGRAL):
            least = tuple(max(side, 1) for side in _least_box(s1, s2, mode))
            for stage in STAGES:
                for box in (least, (4, 4)):
                    assert _stage_value(s1, s2, stage, mode) == naive_stage(
                        s1, s2, stage, mode, box
                    ), (str(s1), str(s2), mode, stage, box)


def oracle_compositions(n, k):
    """Compositions of n into k parts, the first part largest first."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n, -1, -1):
        for rest in oracle_compositions(n - first, k - 1):
            yield (first,) + rest


def oracle_symbol_support(base, target, n, slots):
    """_symbol_support by its definition: the edge symbol of base + alpha
    for every composition alpha of n into `slots` parts, nonzero ones kept."""
    out = []
    for alpha in oracle_compositions(n, slots):
        s = edge_symbol(add(base, alpha), target)
        if s:
            out.append((trim(alpha), s))
    return tuple(out)


def test_symbol_support_matches_the_composition_scan():
    # slots below l(target) and below l(base) included; a total one above
    # the weight has no arrangement
    seen = 0
    for target in partitions_up_to(6):
        for base in subpartitions(target):
            n = sum(target) - sum(base)
            for slots in range(1, 8):
                for total in (n, n + 1):
                    want = oracle_symbol_support(base, target, total, slots)
                    assert _symbol_support(base, target, total, slots) == want, (
                        base, target, total, slots)
                    seen += bool(want)
    assert seen > 1000


def test_kostka_is_the_chain_count_in_any_order():
    # the cache key sorts the strip sizes and drops zeros; the chain list
    # takes them in the order given
    for shape in skew_shapes(6):
        n = shape.weight
        for k in range(1, 5):
            for w in oracle_compositions(n, k):
                assert _kostka(shape.inner, shape.outer, w) == len(
                    _chains(shape.inner, shape.outer, w)), (str(shape), w)


def naive_margin_counts(mode, h, w, n):
    """(row sums, column sums) -> number of matrices in the h x w box with
    total n, by listing every multiset (integral) or set (binary) of cells."""
    cells = [(i, j) for i in range(h) for j in range(w)]
    gen = itertools.combinations if mode == BINARY else itertools.combinations_with_replacement
    counts = {}
    for combo in gen(range(len(cells)), n):
        rs, cs = [0] * h, [0] * w
        for c in combo:
            i, j = cells[c]
            rs[i] += 1
            cs[j] += 1
        key = (tuple(rs), tuple(cs))
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_margin_count_matches_enumeration():
    # every margin pair of totals up to 5 in every box up to 4 x 4, so zero
    # counts and mismatched totals are covered too
    top = 5
    for mode in (BINARY, INTEGRAL):
        for h in range(1, 5):
            for w in range(1, 5):
                counts = {}
                for n in range(top + 1):
                    counts.update(naive_margin_counts(mode, h, w, n))
                row_sums = [r for r in itertools.product(range(top + 1), repeat=h) if sum(r) <= top]
                col_sums = [c for c in itertools.product(range(top + 1), repeat=w) if sum(c) <= top]
                for rs in row_sums:
                    for cs in col_sums:
                        assert _margin_count(mode, rs, cs) == counts.get((rs, cs), 0), (
                            mode, rs, cs)


def random_composition(rng, total):
    """A composition of total into 1 to 8 parts, zero parts allowed."""
    cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 7)))
    return tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def test_margin_count_of_the_transpose():
    # transposing swaps the margins and keeps the count in both modes, so
    # the second order of a pair reads the entry the first one filled
    rng = random.Random(5)
    for mode in (BINARY, INTEGRAL):
        for _ in range(60):
            total = rng.randint(0, 21)
            rs, cs = random_composition(rng, total), random_composition(rng, total)
            _margin_count.cache_clear()
            _margin_fill.cache_clear()
            want = _margin_count(mode, rs, cs)
            misses = _margin_fill.cache_info().misses
            assert _margin_count(mode, cs, rs) == want, (mode, rs, cs)
            assert _margin_fill.cache_info().misses == misses, (mode, rs, cs)


def test_stage_agreement_and_lr_count():
    rng = random.Random(0)
    shapes = skew_shapes(4)
    for _ in range(30):
        check_stage_agreement(rng.choice(shapes), rng.choice(shapes), (5, 5))


def test_lr_count_examples():
    for lam in [(2, 1), (3, 2), (2, 2, 1)]:
        sh = SkewShape(lam)
        assert lr_count(sh, sh, BINARY) == 1
        assert lr_count(sh, sh, INTEGRAL) == 1
    # the running shapes admit the running matrix as a member
    sh1 = SkewShape((9, 8, 5, 5, 3), (4, 1))
    w = (2, 3, 3, 2, 4, 4, 7)
    nu = tuple(sum(w[i:]) for i in range(len(w)))
    mu = tuple(sum(w[i + 1:]) for i in range(len(w) - 1))
    from conftest import M_BIN, M_INT

    assert condition(M_BIN, SkewShape(nu, mu), LR, BINARY)
    assert condition(M_INT, SkewShape(nu, mu), LR, INTEGRAL)
    assert lr_count(SkewShape((1,)), SkewShape((1,)), BINARY) == 1


def oracle_lr_count(shape1, shape2, mode):
    """The count by its definition: the tableau-side encodings of shape1,
    in the mode's own encoding, that satisfy the LR condition for shape2."""
    count = 0
    for m in tableau_side(shape1, shape2, mode):
        if condition(m, shape2, LR, mode):
            count += 1
    return count


def equal_weight_pairs(max_size):
    shapes = skew_shapes(max_size)
    return [(s1, s2) for s1 in shapes for s2 in shapes if s1.weight == s2.weight]


def test_lr_count_matches_the_tableau_oracle():
    pairs = equal_weight_pairs(6)
    assert len(pairs) == 8844
    for s1, s2 in pairs:
        for mode in (BINARY, INTEGRAL):
            assert lr_count(s1, s2, mode) == oracle_lr_count(s1, s2, mode), (
                str(s1), str(s2), mode)


@pytest.mark.parametrize("s1,s2,want", LR_PAIRS_10_TO_15)
def test_lr_count_matches_the_kostka_stages_at_weights_10_to_15(s1, s2, want):
    # tab_first and lr_first are sums of Kostka numbers and brute a sum of
    # margin counts, each independent of the LR filling search; every stage
    # runs at the mode's least box
    s1, s2 = SkewShape.parse(s1), SkewShape.parse(s2)
    for mode in (BINARY, INTEGRAL):
        assert lr_count(s1, s2, mode) == want
        for stage in STAGES:
            assert alternating_sum(s1, s2, stage, mode, _least_box(s1, s2, mode)) == want, (
                mode, stage)


def test_stages_agree_at_weight_20():
    # the brute stage's margin counts at weight 20, at the least box of
    # each mode: binary (4, 8), integral (4, 4)
    s = SkewShape.parse("8,7,6,5/3,2,1")
    assert lr_count(s, s, BINARY) == 72
    for mode in (BINARY, INTEGRAL):
        box = _least_box(s, s, mode)
        assert box == ((4, 8) if mode == BINARY else (4, 4))
        for stage in STAGES:
            assert alternating_sum(s, s, stage, mode, box) == 72, (mode, stage)


@pytest.mark.parametrize("s1,s2", [("2,1", "3"), ("2,1", "2,1"), ("1", "2,1")])
def test_lr_count_rejects_an_unknown_mode(s1, s2):
    # also for a pair with no tableau, or of different weights
    with pytest.raises(UsageError, match="unknown mode: 'foo'"):
        lr_count(SkewShape.parse(s1), SkewShape.parse(s2), "foo")


def test_lr_count_and_fully_reduced_share_one_search():
    # the count reads neither the mode nor the box: both modes of lr_count
    # and of the fully_reduced stage cost one search of a fresh pair
    s1, s2 = SkewShape.parse("4,3,1/2"), SkewShape.parse("4,2,1/1")
    _lr_search.cache_clear()
    want = lr_count(s1, s2, BINARY)
    assert want == 3
    assert lr_count(s1, s2, INTEGRAL) == want
    for mode in (BINARY, INTEGRAL):
        assert alternating_sum(s1, s2, FULLY_REDUCED, mode, _least_box(s1, s2, mode)) == want
    assert _lr_search.cache_info().misses == 1
    # the mode is still checked once the pair is cached
    with pytest.raises(UsageError, match="unknown mode: 'foo'"):
        lr_count(s1, s2, "foo")


def test_stage_agreement_on_every_pair_up_to_six_cells():
    for s1, s2 in equal_weight_pairs(6):
        check_stage_agreement(s1, s2, (6, 6))


def test_alternating_sum_trivial():
    one = SkewShape((1,))
    for mode in (BINARY, INTEGRAL):
        assert alternating_sum(one, one, FULLY_REDUCED, mode) == 1
        assert alternating_sum(SkewShape((2, 1)), SkewShape((2, 1)), BRUTE, mode) == 1


def oracle_lr_witness(m, shape):
    """`lr_witness` with the witness index read inline."""
    chain, k = chain_walk(m, shape.inner, LR)
    if k is None:
        return None
    prev, nxt = chain[-2], chain[-1]
    if m.binary:
        for i in range(len(nxt)):
            if part(nxt, i + 1) == part(nxt, i) + 1:
                return m.width - 1 - k, i
        raise AssertionError("failure without a unit step")
    return k, max(j for j in range(len(nxt)) if part(prev, j) < part(nxt, j + 1))


def oracle_involution(m, shape, which, mode=None):
    """The involution by way of the LR condition alone: the tableau
    condition of m is the LR condition of m turned a quarter clockwise
    (binary, for the conjugate shape) or transposed (integral), so its
    partner is the LR partner of the turned matrix, turned back."""
    if mode is not None and mode_of(m) != mode:
        raise ValueError("matrix type does not match mode")
    if which == TABLEAU:
        if m.binary:
            rot = m.rotate_cw()
            out = oracle_involution(rot, SkewShape(conjugate(shape.outer), conjugate(shape.inner)), LR)
            return out.rotate_ccw()
        return oracle_involution(m.transpose(), shape, LR).transpose()
    if which != LR:
        raise ValueError(f"unknown condition kind: {which}")
    witness = oracle_lr_witness(m, shape)
    if witness is None:
        if m.binary:
            raise NotCancellable("all suffix-column compositions are partitions")
        raise NotCancellable("the cumulative-row chain is all horizontal strips")
    _, i = witness
    alpha = add(shape.inner, m.row_sums() if m.binary else m.col_sums())
    d = part(alpha, i + 1) - part(alpha, i) - 1
    kernel, up, down = (cb, UP, DOWN) if m.binary else (ci, LEFT, RIGHT)
    return kernel.climb(m, up if d > 0 else down, i, abs(d))[0]


def _rows(fn):
    """fn with its matrix result read as the stored rows."""
    return lambda *args: fn(*args).rows


def test_involution_matches_the_quarter_turn_oracle():
    """One route for all four conditions gives the stored rows, or the error
    type and text, of the route through the LR condition, on every binary
    matrix up to 3x3 and integral one up to 2x3 with entries 0..2 (empty
    ones included) against seeded shapes, and on random ones up to 8x8,
    with the mode given, omitted or wrong."""
    rng = random.Random(5)
    shapes = skew_shapes(4)
    boxes = [all_binary(h, w) for h in range(4) for w in range(4)]
    boxes += [all_integral(h, w, 2) for h in range(3) for w in range(4)]
    small = [(m, None) for m in itertools.chain.from_iterable(boxes)]
    large = []
    for _ in range(200):
        binary = rng.random() < 0.5
        m = random_matrix(rng, binary, rng.randint(0, 8), rng.randint(0, 8), rng.choice((1, 2, 4)))
        large.append((m, rng.choice((None, BINARY, INTEGRAL))))
    seen = set()
    for m, mode in small + large:
        for sh in rng.sample(shapes, 6):
            for which in (LR, TABLEAU):
                want = outcome(_rows(oracle_involution), m, sh, which, mode)
                assert outcome(_rows(involution), m, sh, which, mode) == want, (m, str(sh), which)
                seen.add(want[0] if isinstance(want[0], type) else which)
            assert lr_witness(m, sh) == oracle_lr_witness(m, sh), (m, str(sh))
    assert seen == {LR, TABLEAU, NotCancellable, ValueError}


class TestInvolution:
    def test_not_cancellable(self):
        sh = SkewShape((2, 1))
        with pytest.raises(NotCancellable):
            involution(diagram((2, 1)), sh, LR)

    def test_binary_lr_exhaustive(self):
        rng = random.Random(1)
        shapes = skew_shapes(4)
        mu = (1,)
        sh = SkewShape((4, 1), mu)
        failing = 0
        for m in all_binary(3, 3):
            try:
                mp = involution(m, sh, LR)
            except NotCancellable:
                continue
            failing += 1
            a, ap = add(mu, m.row_sums()), add(mu, mp.row_sums())
            for nu in partitions_up_to(5):
                assert edge_symbol(a, nu) + edge_symbol(ap, nu) == 0
            if m == mp:
                # fixed points carry zero sign for every nu
                for nu in partitions_up_to(5):
                    assert edge_symbol(a, nu) == 0
            for _ in range(3):
                check_involution_pairing(m, mp, sh, LR, rng.choice(shapes))
        assert failing > 100

    def test_integral_maximal_witness(self):
        # columns 0 and 1 both witness the failure of () <=h (0,1,1); the
        # maximal one must be chosen and stay stable under the involution
        m = IntegralMatrix([[0, 1, 1]])
        sh = SkewShape((2,), ())
        w = lr_witness(m, sh)
        assert w == (0, 1)
        mp = involution(m, sh, LR)
        assert mp != m
        assert lr_witness(mp, sh) == w
        assert involution(mp, sh, LR) == m

    def test_integral_lr_exhaustive(self):
        rng = random.Random(2)
        shapes = skew_shapes(4)
        for mu in [(), (1,)]:
            outer = tuple((mu[i] if i < len(mu) else 0) + 2 for i in range(len(mu) + 1))
            sh = SkewShape(outer, mu)
            for m in all_integral(2, 2, 2):
                try:
                    mp = involution(m, sh, LR)
                except NotCancellable:
                    continue
                for _ in range(2):
                    check_involution_pairing(m, mp, sh, LR, rng.choice(shapes))

    def test_tableau_side(self):
        rng = random.Random(3)
        shapes = skew_shapes(4)
        sh = SkewShape((3, 1), (1,))
        cnt = 0
        for m in all_binary(3, 3):
            try:
                mp = involution(m, sh, TABLEAU)
            except NotCancellable:
                continue
            cnt += 1
            a = add(conjugate(sh.inner), m.col_sums())
            ap = add(conjugate(sh.inner), mp.col_sums())
            for lam in partitions_up_to(5):
                assert edge_symbol(a, lam) + edge_symbol(ap, lam) == 0
            for _ in range(2):
                check_involution_pairing(m, mp, sh, TABLEAU, rng.choice(shapes))
        assert cnt > 50

    def test_integral_tableau_side(self):
        rng = random.Random(4)
        shapes = skew_shapes(4)
        sh = SkewShape((3, 1), (1,))
        cnt = 0
        for m in all_integral(2, 3, 2):
            try:
                mp = involution(m, sh, TABLEAU)
            except NotCancellable:
                continue
            cnt += 1
            a, ap = add(sh.inner, m.row_sums()), add(sh.inner, mp.row_sums())
            for lam in partitions_up_to(5):
                assert edge_symbol(a, lam) + edge_symbol(ap, lam) == 0
            for _ in range(2):
                check_involution_pairing(m, mp, sh, TABLEAU, rng.choice(shapes))
        assert cnt > 50


def test_box_too_small():
    # a binary box narrower than the outer shape cannot hold any encoding
    s1 = SkewShape((3,))
    s2 = SkewShape((3,))
    with pytest.raises(BoxTooSmall):
        alternating_sum(s1, s2, TAB_FIRST, BINARY, (2, 2))
    assert alternating_sum(s1, s2, TAB_FIRST, BINARY, (3, 3)) == 1


@pytest.mark.parametrize("s1,s2,mode,small,covering", [
    # each small box misses a row or column of a target, so it is rejected
    # whatever a sum over it would give; the covering box gives the value 1
    ("1,1,1/0", "1,1,1/0", BINARY, (1, 1), (3, 1)),
    ("0/0", "1,1,1/1,1,1", BINARY, (1, 1), (3, 1)),
    ("0/0", "1,1,1/1,1,1", INTEGRAL, (1, 1), (1, 3)),
    ("1/0", "1,1,1/1,1", INTEGRAL, (1, 1), (1, 3)),
])
def test_box_must_cover_both_targets(s1, s2, mode, small, covering):
    s1, s2 = SkewShape.parse(s1), SkewShape.parse(s2)
    for stage in STAGES:
        with pytest.raises(BoxTooSmall, match="does not cover"):
            alternating_sum(s1, s2, stage, mode, small)
        assert alternating_sum(s1, s2, stage, mode, covering) == 1


def test_covering_box_gives_lr_count():
    shapes = skew_shapes(5)
    for s1 in shapes:
        for s2 in shapes:
            if s1.weight != s2.weight:
                continue
            for mode in (BINARY, INTEGRAL):
                h, w = (max(side, 1) for side in _least_box(s1, s2, mode))
                want = lr_count(s1, s2, mode)
                for stage in STAGES:
                    for box in ((h, w), (h + 1, w + 1)):
                        assert alternating_sum(s1, s2, stage, mode, box) == want, (
                            str(s1), str(s2), mode, stage, box)


@pytest.mark.parametrize("box", [(0, 0), (-1, 3), (3, 0), (3,), (1, 2, 3), (2.0, 2), ("2", 2), 6])
def test_malformed_box_is_a_usage_error(box):
    with pytest.raises(UsageError, match="box must be two integers of at least 1"):
        alternating_sum(SkewShape((2, 1)), SkewShape((2, 1)), BRUTE, BINARY, box)


@pytest.mark.parametrize("stage,mode,message", [
    (BRUTE, "banana", "unknown mode: 'banana'"),
    ("banana", BINARY, "unknown stage: 'banana'"),
])
def test_unknown_stage_or_mode_is_a_usage_error(stage, mode, message):
    # a box of 0 would be rejected too: the stage and mode are checked first
    with pytest.raises(UsageError, match=message):
        alternating_sum(SkewShape((2, 1)), SkewShape((2, 1)), stage, mode, (0, 0))


def test_edge_symbol_random_pairs():
    rng = random.Random(31)
    lams = list(partitions_up_to(8))
    for _ in range(10000):
        k = rng.randint(1, 6)
        alpha = tuple(rng.randint(0, 8) for _ in range(k))
        lam = rng.choice(lams)
        s = edge_symbol(alpha, lam)
        assert s in (-1, 0, 1)
        if trim(alpha) == lam:
            assert s == 1
        i = rng.randint(0, k - 1)
        ap = list(alpha) + [0]
        ap[i], ap[i + 1] = (alpha + (0,))[i + 1] - 1, alpha[i] + 1
        if ap[i] >= 0:
            assert s + edge_symbol(tuple(ap), lam) == 0
