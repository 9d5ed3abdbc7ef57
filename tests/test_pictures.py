import itertools
import random

import pytest

from doublecrystal.cancellation import BRUTE, _least_box, alternating_sum, lr_count
from doublecrystal.matrices import (
    BINARY,
    INTEGRAL,
    LR,
    TABLEAU,
    BinaryMatrix,
    IntegralMatrix,
    condition,
    diagon,
    diagram,
)
from doublecrystal.pictures import (
    BIN,
    INT,
    LiftError,
    Picture,
    SizeError,
    _le_ne,
    _le_nw,
    _lr_fillings,
    enumerate_pictures,
    lift,
    project,
    validate,
)
from doublecrystal.shapes import SkewShape
from doublecrystal.verify import check_pictures, skew_shapes

from conftest import LR_PAIRS_10_TO_15, M_BIN, M_INT, outcome


def oracle_enumerate_pictures(dom, cod):
    """All pictures dom -> cod by backtracking over images."""
    if dom.weight != cod.weight:
        return []
    dom_cells = list(dom.cells())
    cod_cells = list(cod.cells())
    out = []
    assigned = {}
    used = set()

    def ok(s, t):
        for s2, t2 in assigned.items():
            if _le_nw(s, s2) and not _le_ne(t, t2):
                return False
            if _le_nw(s2, s) and not _le_ne(t2, t):
                return False
            if _le_nw(t, t2) and not _le_ne(s, s2):
                return False
            if _le_nw(t2, t) and not _le_ne(s2, s):
                return False
        return True

    def rec(idx):
        if idx == len(dom_cells):
            out.append(Picture(dom, cod, tuple(assigned.items())))
            return
        s = dom_cells[idx]
        for t in cod_cells:
            if t in used or not ok(s, t):
                continue
            assigned[s] = t
            used.add(t)
            rec(idx + 1)
            del assigned[s]
            used.discard(t)

    rec(0)
    return out


def test_single_square():
    one = SkewShape((1,))
    pics = enumerate_pictures(one, one)
    assert len(pics) == 1
    p = pics[0]
    assert validate(p.mapping, one, one)
    assert project(p, INT) == IntegralMatrix([[1]])
    assert project(p, BIN) == BinaryMatrix([[1]])
    assert lift(IntegralMatrix([[1]]), one, one, INT) == p


def test_inverse_is_picture():
    for p in enumerate_pictures(SkewShape((2, 1)), SkewShape((2, 1))):
        inv = p.inverse()
        assert validate(inv.mapping, inv.domain, inv.codomain)
        assert project(inv, INT) == project(p, INT).transpose()


def test_dominoes():
    # no order-preserving bijection exists between the two domino
    # orientations (the count is the LR count, zero); equal dominoes admit
    # exactly one of the two candidate bijections
    h, v = SkewShape((2,)), SkewShape((1, 1))

    def count(dom, cod):
        cells_d, cells_c = list(dom.cells()), list(cod.cells())
        return sum(
            validate(tuple(zip(cells_d, perm)), dom, cod)
            for perm in itertools.permutations(cells_c)
        )

    assert count(h, v) == 0 == lr_count(h, v, INTEGRAL)
    assert count(v, h) == 0
    assert count(h, h) == 1
    assert count(v, v) == 1


def test_normal_form_lifts():
    for lam in [(2, 1), (3,), (2, 2)]:
        sh = SkewShape(lam)
        p = lift(diagon(lam), sh, sh, INT)
        assert project(p, INT) == diagon(lam)
        pb = lift(diagram(lam), sh, sh, BIN)
        assert project(pb, BIN) == diagram(lam)
        assert len(enumerate_pictures(sh, sh)) == 1


def test_running_example_lift():
    dom = SkewShape((9, 8, 5, 5, 3), (4, 1))
    w = (2, 3, 3, 2, 4, 4, 7)
    nu = tuple(sum(w[i:]) for i in range(len(w)))
    mu = tuple(sum(w[i + 1:]) for i in range(len(w) - 1))
    cod = SkewShape(nu, mu)
    p = lift(M_INT, dom, cod, INT)
    assert project(p, INT) == M_INT
    pb = lift(M_BIN, dom, cod, BIN)
    assert project(pb, BIN) == M_BIN
    # horizontal-strip codomain: Int(f)/Bin(f) are the encodings of T
    assert p.inverse().mapping == tuple(sorted((t, s) for s, t in p.mapping))


def test_lift_past_the_matrix_rows():
    # dom has two complete rows below the matrix's single row
    dom = SkewShape((2, 1, 1), (1, 1, 1))
    p = lift(IntegralMatrix([[1]]), dom, SkewShape((1,)), INT)
    assert p.mapping == (((0, 1), (0, 0)),)


def test_lift_errors():
    one = SkewShape((1,))
    with pytest.raises(LiftError):
        lift(IntegralMatrix([[1]]), SkewShape((2,)), one, INT)
    with pytest.raises(LiftError):
        lift(BinaryMatrix([[1]]), one, one, INT)
    with pytest.raises(SizeError):
        enumerate_pictures(SkewShape((9,)), SkewShape((9,)))


@pytest.mark.parametrize("m", [IntegralMatrix([[1]]), BinaryMatrix([[1]])],
                         ids=["integral", "binary"])
def test_lift_rejects_an_unknown_mode_first(m):
    # the matrix fails the tableau condition for dom too; the mode is checked first
    one = SkewShape((1,))
    assert outcome(lift, m, SkewShape((2,)), one, "banana") == (
        ValueError, "unknown projection mode: banana")


def test_counts_match_lr_count_and_roundtrip():
    shapes = skew_shapes(4)
    rng = random.Random(21)
    pairs = [(a, b) for a in shapes for b in shapes if a.weight == b.weight and a.weight <= 4]
    rng.shuffle(pairs)
    for s1, s2 in pairs[:80]:
        check_pictures(s1, s2)
        for mode in (BINARY, INTEGRAL):
            box = tuple(max(side, 1) for side in _least_box(s1, s2, mode))
            assert lr_count(s1, s2, mode) == alternating_sum(s1, s2, BRUTE, mode, box), (
                str(s1), str(s2), mode)
        for p in enumerate_pictures(s1, s2):
            mi, mb = project(p, INT), project(p, BIN)
            assert condition(mi, s1, TABLEAU, INTEGRAL) and condition(mi, s2, LR, INTEGRAL)
            assert condition(mb, s1, TABLEAU, BINARY) and condition(mb, s2, LR, BINARY)
            assert validate(p.inverse().mapping, s2, s1)
            assert project(p.inverse(), INT) == mi.transpose()


def test_two_horizontal_strips_give_all_matrices():
    a, b = (2, 1), (1, 2)
    s1 = SkewShape(tuple(sum(a[i:]) for i in range(2)), (sum(a[1:]),))
    s2 = SkewShape(tuple(sum(b[i:]) for i in range(2)), (sum(b[1:]),))
    pics = enumerate_pictures(s1, s2)
    count = sum(
        1
        for rows in itertools.product(range(4), repeat=4)
        if IntegralMatrix([rows[:2], rows[2:]]).row_sums() == (2, 1)
        and IntegralMatrix([rows[:2], rows[2:]]).col_sums() == (1, 2)
    )
    assert len(pics) == count == 2


def test_picture_text():
    one = SkewShape((1,))
    p = enumerate_pictures(one, one)[0]
    assert p.to_text() == "0,0 -> 0,0"


def test_enumerate_pictures_matches_the_backtracking_oracle():
    # every pair of skew shapes with outer partitions of at most 5 cells,
    # order included: the lifted LR fillings sorted by mapping come out in
    # the order the backtracker assigns images
    shapes = skew_shapes(5)
    found = 0
    for s1 in shapes:
        for s2 in shapes:
            pics = enumerate_pictures(s1, s2)
            assert pics == oracle_enumerate_pictures(s1, s2), (s1, s2)
            found += len(pics)
    assert found == 1953


@pytest.mark.parametrize("s1,s2,want", LR_PAIRS_10_TO_15)
def test_lr_fillings_give_the_pictures_at_weights_10_to_15(s1, s2, want):
    # past the enumeration cap: the fillings give as many distinct pictures
    # as the Kostka stages count, each order-compatible and the lift of its
    # Int and its Bin projection
    s1, s2 = SkewShape.parse(s1), SkewShape.parse(s2)
    pics = {Picture(s1, s2, mapping)
            for mapping in _lr_fillings(s1.outer, s1.inner, s2.outer, s2.inner)}
    assert len(pics) == want
    for p in pics:
        assert validate(p.mapping, s1, s2)
        assert lift(project(p, INT), s1, s2, INT) == p
        assert lift(project(p, BIN), s1, s2, BIN) == p
