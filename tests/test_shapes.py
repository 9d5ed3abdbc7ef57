import itertools

import pytest
from hypothesis import given, strategies as st

from doublecrystal.shapes import (
    HORIZONTAL,
    REVERSE,
    REVERSE_TRANSPOSE,
    SST,
    TRANSPOSE,
    VERTICAL,
    SkewShape,
    Tableau,
    conjugate,
    format_partition,
    is_partition,
    parse_partition,
    part,
    partitions_of,
    partitions_up_to,
    revert,
    strip_le,
    subpartitions,
    tableau_weight,
    trim,
)

from conftest import T_CHAIN, outcome


@st.composite
def partitions(draw, max_size=8):
    n = draw(st.integers(min_value=0, max_value=max_size))
    opts = list(partitions_of(n))
    return draw(st.sampled_from(opts))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((1,)) == (1,)
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_involution_exhaustive():
    for lam in partitions_up_to(12):
        assert conjugate(conjugate(lam)) == lam


def test_strip_le_examples():
    assert strip_le((2, 1), (3, 2), HORIZONTAL)
    # three-way inequality holds here: 1 <= 1 <= 3 and 0 <= 1 <= 1
    assert strip_le((1, 1), (3, 1), HORIZONTAL)
    # (3,2)-(2,2) = (1,0) is a 0/1 composition with containment
    assert strip_le((2, 2), (3, 2), VERTICAL)
    assert not strip_le((1,), (3,), VERTICAL)
    assert not strip_le((2, 2), (3, 3), HORIZONTAL)


def test_strip_conjugate_duality_exhaustive():
    for beta in partitions_up_to(8):
        for alpha in subpartitions(beta):
            assert strip_le(alpha, beta, VERTICAL) == strip_le(
                conjugate(alpha), conjugate(beta), HORIZONTAL
            )


def test_revert():
    assert revert((4, 4, 2, 1), 6) == (0, 0, 1, 2, 4, 4)
    assert revert((), 3) == ()
    assert revert((2,), 1) == (2,)
    with pytest.raises(ValueError):
        revert((2, 1), 1)


def test_tableau_weight(running_tableau):
    assert tableau_weight(running_tableau) == (2, 3, 3, 2, 4, 4, 7)
    assert tableau_weight(Tableau(SST, ((2, 1), (2, 1)))) == ()
    assert tableau_weight(Tableau(SST, ((), (2,), (2,)))) == (2,)


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau(SST, ((2,), (1,)))
    with pytest.raises(ValueError):
        Tableau(SST, ((), (1, 1)))  # not a horizontal strip
    Tableau(TRANSPOSE, ((), (1, 1)))
    Tableau(REVERSE, ((2, 1), (1,)))
    Tableau(REVERSE_TRANSPOSE, ((1, 1), ()))
    with pytest.raises(ValueError):
        Tableau("weird", ((),))


def test_tableau_flavor_conjugation():
    t = Tableau(SST, T_CHAIN)
    tt = t.conjugate()
    assert tt.flavor == TRANSPOSE
    assert tt.conjugate() == t
    assert tableau_weight(tt) == tableau_weight(t)


@given(partitions())
def test_conjugate_transpose_chain_validity(lam):
    # a chain is a valid SST iff the conjugated chain is a valid transpose SST
    chain = ((), lam)
    try:
        Tableau(SST, chain)
        ok = True
    except ValueError:
        ok = False
    try:
        Tableau(TRANSPOSE, ((), conjugate(lam)))
        ok2 = True
    except ValueError:
        ok2 = False
    assert ok == ok2


def test_parse_format_partition():
    assert parse_partition("8,8,5,3,1") == (8, 8, 5, 3, 1)
    assert parse_partition("0") == ()
    assert format_partition(()) == "0"
    assert format_partition((2, 1)) == "2,1"
    with pytest.raises(ValueError):
        parse_partition("1,2")


def test_skew_shape():
    sh = SkewShape.parse("9,8,5,5,3/4,1")
    assert sh.outer == (9, 8, 5, 5, 3) and sh.inner == (4, 1)
    assert sh.weight == 25
    assert str(sh) == "9,8,5,5,3/4,1"
    assert SkewShape.parse("2,1").inner == ()
    with pytest.raises(ValueError):
        SkewShape((1,), (2,))
    assert list(SkewShape((2, 1), (1,)).cells()) == [(0, 1), (1, 0)]


def test_cached_weight_keeps_skew_shapes_frozen():
    # the weight is summed on first read and kept in the instance; the
    # shape still refuses to have it assigned or deleted, before that read
    # and after, and repr, == and hash do not see it
    for outer in partitions_up_to(6):
        for inner in subpartitions(outer):
            sh, twin = SkewShape(outer, inner), SkewShape(outer, inner)
            text, key = repr(sh), hash(sh)
            with pytest.raises(AttributeError):
                sh.weight = 0
            assert sh.weight == sum(outer) - sum(inner)
            with pytest.raises(AttributeError):
                sh.weight = 0
            with pytest.raises(AttributeError):
                del sh.weight
            assert sh.weight == sum(outer) - sum(inner)
            assert repr(sh) == text == repr(twin)
            assert sh == twin and hash(sh) == key == hash(twin)


def test_trim_and_equality():
    assert trim((2, 1, 0, 0)) == (2, 1)
    assert Tableau(SST, ((0,), (2, 0))) == Tableau(SST, ((), (2,)))


# The literal definitions, kept as oracles for the linear-time primitives.


def oracle_is_partition(alpha):
    alpha = trim(alpha)
    return all(isinstance(x, int) and x >= 0 for x in alpha) and all(
        alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)
    )


def oracle_conjugate(lam):
    lam = trim(lam)
    if not oracle_is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def oracle_strip_le(alpha, beta, kind):
    if kind == HORIZONTAL:
        n = max(len(alpha), len(beta)) + 1
        return all(part(beta, i + 1) <= part(alpha, i) <= part(beta, i) for i in range(n))
    if kind == VERTICAL:
        if not (oracle_is_partition(alpha) and oracle_is_partition(beta)):
            return False
        return all(
            0 <= part(beta, i) - part(alpha, i) <= 1 for i in range(max(len(alpha), len(beta)))
        )
    raise ValueError(f"unknown strip kind: {kind}")


def test_primitives_match_oracles_on_partition_pairs():
    lams = list(partitions_up_to(8))
    for lam in lams:
        assert conjugate(lam) == oracle_conjugate(lam)
        assert is_partition(lam) and oracle_is_partition(lam)
    for alpha, beta in itertools.product(lams, repeat=2):
        for kind in (HORIZONTAL, VERTICAL):
            assert strip_le(alpha, beta, kind) == oracle_strip_le(alpha, beta, kind)


def test_primitives_match_oracles_on_compositions():
    # untrimmed, unsorted and negative entries, as tuples and as lists
    comps = [c for n in range(4) for c in itertools.product(range(-1, 4), repeat=n)]
    comps += [list(c) for c in comps]
    for alpha in comps:
        assert outcome(conjugate, alpha) == outcome(oracle_conjugate, alpha)
        assert is_partition(alpha) == oracle_is_partition(alpha)
    for alpha, beta in itertools.product(comps[: len(comps) // 2], repeat=2):
        for kind in (HORIZONTAL, VERTICAL, "diagonal"):
            assert outcome(strip_le, alpha, beta, kind) == outcome(
                oracle_strip_le, alpha, beta, kind
            )
