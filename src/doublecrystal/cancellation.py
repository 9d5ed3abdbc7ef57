"""The edge symbol, alternating-sum expressions for the skew Schur scalar
product, Littlewood-Richardson counts, and the crystal-ladder cancellation
involutions.

The four summation stages per mode (brute, tab_first, lr_first,
fully_reduced) all evaluate the same scalar product; sums are taken over
matrices supported in a finite box.  The box contract is the cover check
alone: for shapes of equal weight the box must cover both targets (binary:
lam_1 columns and l(nu) rows; integral: l(lam) rows and l(nu) columns), or
BoxTooSmall is raised.  A covering box holds every term, so the stages
never read it: if alpha >= 0 and base <= target give a nonzero edge
symbol, alpha has no part at or past l(target).  Proof: let p >= l(target)
be the position of its last nonzero part; beta_i = base_i + alpha_i - i
>= -i, and the positions past p hold their -i, so the value -p must be
taken at position p, which forces alpha_p = 0.

The brute stage sums f * g over every matrix in the box, grouped by margin
pair: for each pair of compositions with nonzero edge symbols it multiplies
the symbols by the number of matrices with those row and column sums.  The
nonzero symbols are listed directly (`_symbol_support`): a search
arranges the staircase-shifted target values over the positions, one
position at a time with no recursion, and scans no compositions of n.

A margin count does not change when rows or columns are permuted, and a
skew Kostka number does not change when the content is permuted; zero
parts carry nothing either.  So the stages sum the symbols of the compositions
sharing their sorted nonzero parts before they count (`_content_support`),
and `_kostka` and `_margin_count` fill one cache entry per such key.
A matrix and its transpose are counted alike in both modes, so a margin
pair and its transpose share one count, filled with the longer key as the
rows.  A margin fill takes the first row a block of equal column sums at a
time, once per multiset of the block's entries, weighted by the number of
ways to place it (`_margin_fill`).  tab_first and lr_first weight the
symbols by Kostka numbers instead of margin counts.  The binary stages
read conjugate shapes, each conjugated once per partition (`_conjugate`).

`lr_count`, which is also the fully_reduced stage, counts the fillings of
the pruned Littlewood-Richardson filling search, `pictures._lr_fillings`,
which also yields the pictures: it builds no matrix.  The count depends on
the two skew shapes alone, so it is memoised on their four partitions
(`_lr_search`), one search per shape pair that both modes, every box and
the fully_reduced stage share.
`tableau_side` encodes every tableau of shape1 with the content of shape2;
`scalar --trace` and the tests walk it.

The involution of either condition climbs one ladder of the matrix itself,
at the first failing step of the chain `chain_walk` reads for it.
"""

from functools import lru_cache
from itertools import groupby
from math import comb

from . import crystal_binary as cb
from . import crystal_integral as ci
from .crystal_binary import DOWN, LEFT, RIGHT, UP
from .decomposition import UsageError
from .matrices import (
    BINARY,
    BRUTE,
    FULLY_REDUCED,
    INTEGRAL,
    LR,
    LR_FIRST,
    STAGES,
    TAB_FIRST,
    Matrix,
    chain_walk,
    encode,
    mode_of,
)
from .pictures import _lr_fillings
from .shapes import (
    SST,
    SkewShape,
    Tableau,
    add,
    conjugate,
    is_partition,
    part,
    trim,
)


class BoxTooSmall(ValueError):
    """The enumeration box does not cover both targets."""


class NotCancellable(ValueError):
    """The matrix satisfies the condition, so no cancellation applies."""


def edge_symbol(alpha, lam) -> int:
    """Straightening sign of the composition alpha relative to lam.

    Shift by the staircase (beta_i = alpha_i - i); a repeated value gives 0,
    otherwise the sign of the sorting permutation times the indicator that
    the sorted value is the staircase-shifted lam.
    """
    alpha, lam = trim(alpha), trim(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    n = max(len(alpha), len(lam))
    beta = [part(alpha, i) - i for i in range(n)]
    if len(set(beta)) < n:
        return 0
    if sorted(beta, reverse=True) != [part(lam, i) - i for i in range(n)]:
        return 0
    inv = sum(
        1 for i in range(n) for j in range(i + 1, n) if beta[i] < beta[j]
    )
    return -1 if inv % 2 else 1


def _hstrips_above(p, t, cap):
    """Partitions q with p <=h q, q contained in cap, |q| = |p| + t, built
    part by part with no recursion: q_i runs from its largest allowed value
    (at most cap_i, q_(i-1), p_(i-1) and p_i plus the budget left) down to
    p_i, and each part extends every prefix of the last."""
    layer = [((), t)] if t >= 0 else []
    for i, c in enumerate(trim(cap)):
        lo, top = part(p, i), min(c, part(p, i - 1)) if i else c
        layer = [(q + (v,), b - v + lo) for q, b in layer
                 for v in range(min(top, q[-1] if q else c, lo + b), lo - 1, -1)]
    return [trim(q) for q, b in layer if b == 0]


def _chains(inner, outer, weights) -> tuple:
    """All chains inner <=h ... <=h outer with the given strip sizes."""
    layer = [(inner, (inner,))]
    for t in weights:
        nxt = []
        for p, chain in layer:
            for q in _hstrips_above(p, t, outer):
                nxt.append((q, chain + (q,)))
        layer = nxt
    return tuple(chain for p, chain in layer if p == outer)


@lru_cache(maxsize=None)
def _conjugate(lam) -> tuple:
    """`conjugate` of a trimmed partition, computed once per partition:
    the binary stages read the conjugates of the same few shapes over and
    over."""
    return conjugate(lam)


def _sorted_parts(parts) -> tuple:
    """The nonzero parts, largest first: the cache key of a count that
    neither the order of the parts nor a zero part changes."""
    return tuple(sorted(filter(None, parts), reverse=True))


@lru_cache(maxsize=None)
def _kostka(inner, outer, weights) -> int:
    """Number of chains inner <=h ... <=h outer with the given strip sizes.

    Skew Kostka numbers are symmetric in the content and a zero strip is an
    identity step, so the sizes may come in any order; the stages pass the
    sorted nonzero keys of `_content_support`, so that one cache entry
    serves every composition with those parts.
    """
    layer = {inner: 1}
    for t in weights:
        nxt = {}
        for p, cnt in layer.items():
            for q in _hstrips_above(p, t, outer):
                nxt[q] = nxt.get(q, 0) + cnt
        layer = nxt
    return layer.get(outer, 0)


def _symbol_support(base, target, n, slots):
    """[(composition alpha of n in `slots` slots, edge_symbol(base+alpha, target))]
    keeping only nonzero symbols, alpha in decreasing lexicographic order.

    The symbol is nonzero exactly when beta_i = base_i + alpha_i - i, over
    the positions i < max(slots, l(base), l(target)), is an arrangement of
    the shifted target values target_j - j; its sign is the parity of the
    arrangement's inversions.  The arrangements are built position by
    position with no recursion, each extending every arrangement of the
    positions before it by an unused value with 0 <= alpha_i <= the budget
    left (alpha_i = 0 past the slots), largest alpha_i first.
    """
    target = trim(target)
    if not is_partition(target):
        raise ValueError(f"not a partition: {target}")
    size = max(slots, len(base), len(target))
    values = [part(target, j) - j for j in range(size)]  # strictly decreasing
    # (alpha so far, the values used as bits, budget left, inversions)
    layer = [((), 0, n, 0)]
    for i in range(size):
        lo = part(base, i) - i  # beta_i at alpha_i = 0
        nxt = []
        for alpha, used, budget, inv in layer:
            hi = lo + budget if i < slots else lo
            for j, v in enumerate(values):
                if v < lo:
                    break
                if v <= hi and not used >> j & 1:
                    # the used values right of j: the inversions taking j adds
                    nxt.append((alpha + (v - lo,) if i < slots else alpha, used | 1 << j,
                                budget - v + lo, inv + (used >> j).bit_count()))
        layer = nxt
    return tuple((trim(alpha), -1 if inv % 2 else 1)
                 for alpha, used, budget, inv in layer if budget == 0)


@lru_cache(maxsize=None)
def _content_support(base, target, n):
    """_symbol_support in l(target) slots, which hold every nonzero symbol,
    with the symbols of the compositions that share their sorted nonzero
    parts summed: ((parts, summed symbol), ...) in first appearance, zero
    sums dropped.  The Kostka numbers and margin counts the stages weight
    by the symbols depend only on those parts."""
    sums = {}
    for alpha, s in _symbol_support(base, target, n, len(target)):
        key = _sorted_parts(alpha)
        sums[key] = sums.get(key, 0) + s
    return tuple((key, s) for key, s in sums.items() if s)


@lru_cache(maxsize=None)
def _margin_count(mode, rs, cs):
    """Number of matrices with row sums rs and column sums cs: 0/1 entries
    for binary (the Gale-Ryser setting), any nonnegative entries for
    integral (contingency tables).

    Permuting rows or columns keeps the count, and a zero line holds no
    entry, so the matrices are counted once per key of the nonzero row sums
    and the nonzero column sums, each sorted largest first (`_margin_fill`,
    whose recursion keys the rows left and the column sums left the same
    way).  Transposing swaps the row and column sums and keeps the count
    in both modes (Stanley, EC2, Props. 7.4.1 and 7.5.1), so the key that
    is larger in (length, parts) order is taken as the rows, and (rs, cs)
    and (cs, rs) fill one entry.  The longer key as the rows leaves fewer
    column sums to fill each row over: on the brute sums at weights 20 and
    21 it made up to two thirds fewer calls than the shorter key as the
    rows.  The cache on the arguments as given makes a repeated call
    one lookup.
    """
    if sum(rs) != sum(cs):
        return 0
    rs, cs = _sorted_parts(rs), _sorted_parts(cs)
    if (len(rs), rs) < (len(cs), cs):
        rs, cs = cs, rs
    return _margin_fill(mode, rs, cs)


@lru_cache(maxsize=None)
def _margin_fill(mode, rs, cs):
    """_margin_count of sorted nonzero sums of equal totals: the fillings
    of the first row, each followed by the count of the rest.

    The column sums come sorted, so equal sums sit in blocks.  Filling a
    block of t columns of sum c with n_x entries of each value x can be
    done in t!/prod(n_x!) ways, all leaving the same column sums, so the
    fill recurses once per multiset of entries in each block, not once per
    filling: `take` chooses how many of the block's columns hold the
    largest entry still allowed, C(t, k) ways, then goes one value lower.
    """
    if not rs:
        return 1
    cap = 1 if mode == BINARY else rs[0]
    blocks = [(c, len(list(g))) for c, g in groupby(cs)]
    rest = rs[1:]
    left = []  # the column sums after the entries chosen so far

    def fill(b, budget):
        # the row's remaining `budget` over the blocks from b on
        if b == len(blocks):
            return _margin_fill(mode, rest, _sorted_parts(left)) if budget == 0 else 0
        c, t = blocks[b]
        return take(b, c, t, min(c, cap, budget), budget)

    def take(b, c, t, x, budget):
        # t columns of block b left to fill, with entries of at most x
        if x == 0 or t == 0:
            left.extend([c] * t)
            total = fill(b + 1, budget)
            del left[len(left) - t:]
            return total
        total = 0
        for k in range(min(t, budget // x) + 1):
            left.extend([c - x] * k)
            total += comb(t, k) * take(b, c, t - k, x - 1, budget - k * x)
            del left[len(left) - k:]
        return total

    return fill(0, rs[0])


def tableau_side(shape1: SkewShape, shape2: SkewShape, mode: str):
    """The matrices that satisfy the tableau condition for shape1 and have
    the line sums the LR condition for shape2 asks for: the encodings of
    the semistandard tableaux of shape1 whose strips are the rows of
    shape2; none for shapes of different weights."""
    nu, mu = shape2.outer, shape2.inner
    weights = tuple(part(nu, i) - part(mu, i) for i in range(len(nu)))
    if shape1.weight != shape2.weight or any(x < 0 for x in weights):
        return
    for chain in _chains(shape1.inner, shape1.outer, weights):
        yield encode(Tableau(SST, chain), mode)


def lr_count(shape1: SkewShape, shape2: SkewShape, mode: str) -> int:
    """Number of matrices satisfying both the tableau condition for shape1
    and the LR condition for shape2: the LR tableaux of shape1 with content
    shape2.outer - shape2.inner, in either mode (raises UsageError for an
    unknown one).

    The count reads neither the mode nor a box, so after the checks it is
    one memoised search per shape pair (`_lr_search`), which both modes and
    the fully_reduced stage at every box share.
    """
    if mode not in (BINARY, INTEGRAL):
        raise UsageError(f"unknown mode: {mode!r}")
    if shape1.weight != shape2.weight:
        return 0
    return _lr_search(shape1.outer, shape1.inner, shape2.outer, shape2.inner)


@lru_cache(maxsize=None)
def _lr_search(lam, kap, nu, mu) -> int:
    """The number of LR tableaux of lam/kap with content nu - mu, for
    partitions of equal skew weights: the fillings `_lr_fillings` lists."""
    return sum(1 for _ in _lr_fillings(lam, kap, nu, mu))


def _stage_value(shape1, shape2, stage, mode):
    """One stage's alternating sum at any box covering both targets (see _least_box)."""
    lam, kap = shape1.outer, shape1.inner
    nu, mu = shape2.outer, shape2.inner
    n = shape1.weight
    if n != shape2.weight:
        return 0
    if stage == BRUTE:
        if mode == BINARY:
            f_sup = _content_support(_conjugate(kap), _conjugate(lam), n)  # on column sums
            g_sup = _content_support(mu, nu, n)  # on row sums
        else:
            f_sup = _content_support(kap, lam, n)  # on row sums
            g_sup = _content_support(mu, nu, n)  # on column sums
        total = 0
        for a1, s1 in f_sup:
            for a2, s2 in g_sup:
                rs, cs = (a2, a1) if mode == BINARY else (a1, a2)
                total += s1 * s2 * _margin_count(mode, rs, cs)
        return total
    if stage == TAB_FIRST:
        # sum of the LR-side symbol over tableau-condition matrices
        sup = _content_support(mu, nu, n)
        return sum(s * _kostka(kap, lam, alpha) for alpha, s in sup)
    if stage == LR_FIRST:
        # sum of the tableau-side symbol over LR-condition matrices
        if mode == BINARY:
            # BL members rotate to encodings of tableaux of the conjugate shape,
            # with the column sums reversed (Kostka numbers ignore the order)
            sup = _content_support(_conjugate(kap), _conjugate(lam), n)
            inner, outer = _conjugate(mu), _conjugate(nu)
            return sum(s * _kostka(inner, outer, alpha) for alpha, s in sup)
        sup = _content_support(kap, lam, n)
        return sum(s * _kostka(mu, nu, alpha) for alpha, s in sup)
    if stage == FULLY_REDUCED:
        return _lr_search(lam, kap, nu, mu)
    raise ValueError(f"unknown stage: {stage}")


def _least_box(shape1: SkewShape, shape2: SkewShape, mode: str) -> tuple[int, int]:
    """The smallest (rows, cols) box that holds both targets: binary needs
    lam_1 columns and l(nu) rows, integral l(lam) rows and l(nu) columns."""
    lam, nu = shape1.outer, shape2.outer
    if mode == BINARY:
        return len(nu), part(lam, 0)
    return len(lam), len(nu)


def alternating_sum(shape1: SkewShape, shape2: SkewShape, stage: str, mode: str,
                    box: tuple[int, int] = (6, 6)) -> int:
    """Evaluate one of the alternating-sum expressions over all matrices of
    the mode supported in the box.

    Raises UsageError for an unknown stage or mode, and unless box is two
    integers of at least 1.  Shapes of different weights sum to 0.  For
    shapes of equal weight, raises BoxTooSmall unless the box covers both
    targets (see _least_box); the value is then the same at every such box.
    """
    if stage not in STAGES:
        raise UsageError(f"unknown stage: {stage!r}")
    if mode not in (BINARY, INTEGRAL):
        raise UsageError(f"unknown mode: {mode!r}")
    if (not isinstance(box, (tuple, list)) or len(box) != 2
            or any(type(x) is not int or x < 1 for x in box)):
        raise UsageError(f"box must be two integers of at least 1, got {box!r}")
    if shape1.weight != shape2.weight:
        return 0
    need = _least_box(shape1, shape2, mode)
    if box[0] < need[0] or box[1] < need[1]:
        raise BoxTooSmall(
            f"box {box} does not cover the targets of {shape1} and {shape2}; "
            f"{mode} needs at least {need}"
        )
    return _stage_value(shape1, shape2, stage, mode)


def _ladder_apply(m, d, raise_dir, lower_dir, index):
    """e^d(m) along the ladder at index: d raising moves, or -d lowering."""
    return (cb if m.binary else ci).climb(m, raise_dir if d > 0 else lower_dir, index, abs(d))[0]


def involution(m: Matrix, shape: SkewShape, which: str, mode: str | None = None) -> Matrix:
    """Cancellation partner of m for the failing condition `which` (margins
    play no role): e^d(m) along the ladder at the witness index i of the
    first failing step of its chain, d = alpha_{i+1} - alpha_i - 1, with
    alpha the chain's start plus the sums of the lines its parts index:

        binary tableau, integral LR:  column sums, left / right ladders
        binary LR, integral tableau:  row sums, up / down ladders

    Raises NotCancellable when the condition's chain test holds.
    """
    if mode is not None and mode_of(m) != mode:
        raise ValueError("matrix type does not match mode")
    chain, k = chain_walk(m, shape.inner, which)
    if k is None:
        if m.binary:
            raise NotCancellable("all suffix-column compositions are partitions")
        raise NotCancellable("the cumulative-row chain is all horizontal strips")
    i = _witness_index(m, chain)
    if m.binary == (which == LR):
        sums, raise_dir, lower_dir = m.row_sums(), UP, DOWN
    else:
        sums, raise_dir, lower_dir = m.col_sums(), LEFT, RIGHT
    alpha = add(chain[0], sums)
    return _ladder_apply(m, part(alpha, i + 1) - part(alpha, i) - 1, raise_dir, lower_dir, i)


def _witness_index(m: Matrix, chain) -> int:
    """The witness index of a chain whose last step fails: the minimal i
    with next_{i+1} = next_i + 1 (binary), or the maximal j with
    prev_j < next_{j+1} (integral)."""
    prev, nxt = chain[-2], chain[-1]
    if m.binary:
        for i in range(len(nxt)):
            if part(nxt, i + 1) == part(nxt, i) + 1:
                return i
        raise AssertionError("failure without a unit step")
    return max(j for j in range(len(nxt)) if part(prev, j) < part(nxt, j + 1))


def lr_witness(m: Matrix, shape: SkewShape):
    """The cancellation witness at the first line that breaks the LR chain
    of m from shape.inner (margins play no role), or None.

    Binary: (l, i) with l the column whose suffix-column composition is the
    first that fails to be a partition, and the minimal i with
    beta_{i+1} = beta_i + 1 there.  Integral: (k, j) with k the first row
    breaking the horizontal-strip chain, and the maximal j with
    prev_j < next_{j+1} there.
    """
    chain, k = chain_walk(m, shape.inner, LR)
    if k is None:
        return None
    return (m.width - 1 - k if m.binary else k), _witness_index(m, chain)
