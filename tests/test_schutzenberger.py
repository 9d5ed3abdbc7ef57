import random

import pytest

from doublecrystal.insertion import burge, dual_rsk_col, rectify
from doublecrystal.matrices import BinaryMatrix, IntegralMatrix
from doublecrystal.schutzenberger import dual, rotate_complement
from doublecrystal.shapes import (
    REVERSE,
    REVERSE_TRANSPOSE,
    SST,
    TRANSPOSE,
    SkewShape,
    Tableau,
)
from doublecrystal.verify import check_dual, random_sst

from conftest import LBAR_CHAIN, LBARSTAR_CHAIN, R_CHAIN, RSTAR_CHAIN, S_CHAIN


def test_dual_goldens():
    r = Tableau(REVERSE_TRANSPOSE, R_CHAIN)
    rstar = Tableau(TRANSPOSE, RSTAR_CHAIN)
    assert dual(r) == rstar
    assert dual(rstar) == r
    lbar = Tableau(SST, LBAR_CHAIN)
    lbarstar = Tableau(REVERSE, LBARSTAR_CHAIN)
    assert dual(lbar) == lbarstar
    assert dual(lbarstar) == lbar


def test_dual_trivial():
    one = Tableau(SST, ((), (1,)))
    assert dual(one).chain == ((1,), ())
    assert dual(dual(one)) == one
    empty = Tableau(SST, ((),))
    assert dual(empty).chain == ((),)
    for flavor, opposite in ((SST, REVERSE), (REVERSE, SST),
                             (TRANSPOSE, REVERSE_TRANSPOSE), (REVERSE_TRANSPOSE, TRANSPOSE)):
        for chain in (((),), ((), (), ())):
            empty = Tableau(flavor, chain)
            assert dual(empty) == Tableau(opposite, ((),))
            assert dual(dual(empty)) == empty
    with pytest.raises(ValueError):
        dual(Tableau(SST, ((1,), (2, 1))))


def test_dual_involution_and_weight():
    rng = random.Random(13)
    done = 0
    while done < 100:
        t = random_sst(rng)
        if not 0 < sum(t.outer) <= 10:
            continue
        check_dual(t)
        done += 1


def test_rectification_route():
    s = Tableau(SST, S_CHAIN)
    sstar = dual(s)
    sd = rotate_complement(sstar, (5, 8))
    assert sd.shape == SkewShape((8, 8, 8, 8, 8), (7, 5, 3))
    assert rectify(sd) == s
    rng = random.Random(14)
    done = 0
    while done < 100:
        t = random_sst(rng)
        if not 0 < sum(t.outer) <= 10:
            continue
        check_dual(t)
        done += 1


def test_rotate_complement():
    t = Tableau(SST, ((), (2,), (2, 1)))
    rc = rotate_complement(t, (2, 3))
    assert rc.flavor == REVERSE
    assert rc.chain == ((3, 3), (3, 1), (2, 1))
    assert rotate_complement(rc, (2, 3)) == t
    with pytest.raises(ValueError):
        rotate_complement(t, (1, 3))
    empty = Tableau(SST, ((),))
    assert rotate_complement(empty, (2, 2)).chain == ((2, 2),)


def test_dual_transpose_flavors_agree():
    # duals computed through the binary route agree with conjugating the
    # integral route, pinning the two flavor cases the text leaves open
    rng = random.Random(15)
    for _ in range(40):
        t = random_sst(rng)
        assert dual(t.conjugate()) == dual(t).conjugate()


@pytest.mark.parametrize("side", [8, 16, 24])
def test_dual_of_insertion_tableaux(side):
    # weights far past the random SSTs above: the insertion tableaux of
    # seeded side x side matrices, three per mode (weight about side^2 / 2
    # binary, side^2 integral)
    rng = random.Random(side)
    for binary in (True, False) * 3:
        rows = [[rng.randint(0, 1 if binary else 2) for _ in range(side)] for _ in range(side)]
        t, _ = dual_rsk_col(BinaryMatrix(rows)) if binary else burge(IntegralMatrix(rows))
        check_dual(t)
        assert dual(t.conjugate()) == dual(t).conjugate()
