"""Acceptance criteria: exact golden values plus exhaustive property
suites, one test (and one printed pass line) per criterion."""

import random
import time

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.cancellation import involution, tableau_side
from doublecrystal.crystal_binary import DIRECTIONS, DOWN, LEFT, RIGHT, UP
from doublecrystal.decomposition import decompose, exhaust, normal_form
from doublecrystal.growth import (
    COL_INSERTION,
    NE,
    NW,
    ROW_INSERTION,
    SW,
    burge_backward,
    burge_forward,
    dual_forward,
    growth_diagram,
    rsk_forward,
)
from doublecrystal.insertion import dual_rsk_col, dual_rsk_row
from doublecrystal.matrices import BINARY, INTEGRAL, LR, condition, diagon, diagram
from doublecrystal.schutzenberger import dual
from doublecrystal.shapes import REVERSE_TRANSPOSE, SST, Tableau, part
from doublecrystal.verify import (
    check_dual,
    check_insertion_encodings,
    check_involution_pairing,
    check_pictures,
    check_roundtrip,
    check_stage_agreement,
    random_matrix,
    random_sst,
    skew_shapes,
)

from conftest import (
    LAMBDA,
    LBAR_CHAIN,
    LBARSTAR_CHAIN,
    M_BIN,
    M_INT,
    P_BIN,
    P_INT,
    Q_BIN,
    Q_INT,
    R_CHAIN,
    RSTAR_CHAIN,
    S_CHAIN,
    all_binary,
    all_integral,
)


def _report(num, detail):
    print(f"criterion {num:2d}: PASS - {detail}")


def test_c01_golden_binary_decomposition():
    t0 = time.monotonic()
    p, q = decompose(M_BIN)
    assert p == P_BIN and q == Q_BIN
    n, _ = exhaust(M_BIN, (UP, LEFT))
    assert n == diagram(LAMBDA)
    assert normal_form(M_BIN) == LAMBDA
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"binary P, Q, N bit-exact, lambda = {LAMBDA}, {elapsed:.3f}s")


def test_c02_golden_integral_decomposition():
    t0 = time.monotonic()
    p, q = decompose(M_INT)
    assert p == P_INT and q == Q_INT
    n, _ = exhaust(M_INT, (UP, LEFT))
    assert n == diagon(LAMBDA)
    assert normal_form(M_INT) == LAMBDA
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"integral P, Q, N exact, lambda = {LAMBDA}, {elapsed:.3f}s")


def test_c03_burge_shape_datum():
    kappa, trace = burge_forward((8, 4, 2), (8, 7, 2), (8, 5, 3, 1), 2, with_trace=True)
    assert kappa == (8, 8, 4, 2)
    assert trace == ((3, 2, 1), (4, 4, 0), (8, 8, 0))
    assert burge_backward((11, 9, 8), (10, 9, 8, 2), (13, 9, 9, 5)) == ((9, 9, 6), 3)
    _report(3, "Burge forward trace and backward inversion exact")


def test_c04_binary_shape_data():
    assert dual_forward((5, 3, 2), (6, 3, 3, 1, 1), (6, 3, 2, 2), 1, ROW_INSERTION) == (7, 4, 3, 2, 1, 1)
    assert dual_forward((3, 2, 1), (4, 2, 2, 1), (5, 2, 2), 0, COL_INSERTION) == (6, 3, 2, 1)
    _report(4, "row and column insertion data exact")


def test_c05_rsk_formula():
    assert rsk_forward((5, 5, 2, 1), (8, 5, 5, 2), (8, 5, 3, 1, 1), 0) == (8, 8, 5, 3, 1)
    _report(5, "RSK closed formula exact")


DIAGRAM_1 = (
    ((), (), (), (), (), (), (), ()),
    ((), (1,), (1,), (2,), (2,), (3,), (5,), (5,)),
    ((), (2,), (2, 1), (3, 1), (3, 2), (5, 2), (7, 2), (7, 5)),
    ((), (2,), (3, 2), (4, 2, 1), (4, 3, 1), (6, 3, 2), (8, 4, 2), (8, 7, 2)),
    ((), (2,), (3, 2), (4, 2, 2), (4, 3, 2, 1), (6, 4, 3, 1), (8, 5, 3, 1), (8, 8, 4, 2)),
    ((), (2,), (3, 2), (4, 2, 2), (4, 3, 2, 1), (6, 4, 3, 1), (8, 5, 3, 1, 1), (8, 8, 5, 3, 1)),
)

DIAGRAM_2 = (
    ((), (), (), (), (), (), (), (), (), ()),
    ((), (), (1,), (1,), (1,), (2,), (2,), (2,), (2,), (2,)),
    ((), (1,), (2, 1), (3, 1), (3, 1), (3, 2), (3, 2), (3, 2), (3, 2), (3, 2)),
    ((), (1, 1), (2, 1, 1), (3, 2, 1), (3, 2, 1), (3, 2, 2), (4, 2, 2), (4, 2, 2), (4, 2, 2), (4, 2, 2)),
    ((), (1, 1), (2, 2, 1), (3, 2, 2), (4, 2, 2), (4, 2, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1), (4, 3, 2, 1)),
    ((), (1, 1), (2, 2, 1), (3, 3, 2), (4, 4, 2), (5, 4, 2, 1), (5, 4, 3, 1), (6, 4, 3, 1), (6, 4, 3, 1), (6, 4, 3, 1)),
    ((), (1, 1, 1), (2, 2, 1, 1), (3, 3, 2, 1), (4, 4, 2, 1), (5, 5, 2, 1, 1), (5, 5, 3, 1, 1), (6, 5, 3, 1, 1), (7, 5, 3, 1, 1), (8, 5, 3, 1, 1)),
    ((), (1, 1, 1), (2, 2, 2, 1), (3, 3, 3, 2), (4, 4, 4, 2), (5, 5, 5, 2, 1), (6, 5, 5, 3, 1), (7, 6, 5, 3, 1), (8, 7, 5, 3, 1), (8, 8, 5, 3, 1)),
)

DIAGRAM_3 = (
    ((), (), (), (), (), (), (), (), (), ()),
    ((2,), (2,), (1,), (1,), (1,), (), (), (), (), ()),
    ((3, 2), (2, 2), (1, 1), (1,), (1,), (), (), (), (), ()),
    ((4, 2, 2), (3, 2, 1), (2, 1, 1), (2,), (2,), (1,), (), (), (), ()),
    ((4, 3, 2, 1), (3, 3, 1, 1), (2, 2, 1), (2, 1), (2,), (1,), (), (), (), ()),
    ((6, 4, 3, 1), (5, 3, 3, 1), (4, 2, 2, 1), (3, 2, 1), (3, 1), (2,), (1,), (), (), ()),
    ((8, 5, 3, 1, 1), (7, 4, 3, 1), (6, 3, 2, 1), (5, 2, 2), (5, 1, 1), (4,), (3,), (2,), (1,), ()),
    ((8, 8, 5, 3, 1), (7, 7, 4, 3, 1), (6, 6, 3, 2, 1), (5, 5, 2, 2), (5, 4, 1, 1), (4, 3), (3, 2), (2, 1), (1,), ()),
)

DIAGRAM_4 = (
    ((), (2,), (3, 2), (4, 2, 2), (4, 3, 2, 1), (6, 4, 3, 1), (8, 5, 3, 1, 1), (8, 8, 5, 3, 1)),
    ((), (1,), (3, 1), (3, 2, 1), (4, 2, 2), (5, 4, 2), (5, 5, 2, 1), (8, 5, 5, 2)),
    ((), (), (2,), (3, 1), (3, 2), (4, 3), (5, 3, 1), (5, 5, 3)),
    ((), (), (), (1,), (2,), (3,), (3, 1), (5, 3)),
    ((), (), (), (), (), (), (1,), (3,)),
    ((), (), (), (), (), (), (), ()),
)


def test_c06_growth_diagrams():
    t0 = time.monotonic()
    assert growth_diagram(M_INT, NW, verify=True).grid == DIAGRAM_1
    assert growth_diagram(M_BIN, NW, verify=True).grid == DIAGRAM_2
    assert growth_diagram(M_BIN, NE, verify=True).grid == DIAGRAM_3
    assert growth_diagram(M_INT, SW, verify=True).grid == DIAGRAM_4
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(6, f"Diagrams 1-4 cell-exact with normalization cross-check, {elapsed:.2f}s")


def test_c07_commutation_exhaustive():
    t0 = time.monotonic()
    variants = ((UP, LEFT), (UP, RIGHT), (DOWN, LEFT), (DOWN, RIGHT))
    checked = 0
    for mod, matrices, imax, jmax in (
        (cb, all_binary(3, 4), 3, 4),
        (ci, all_integral(3, 3, 2), 3, 3),
    ):
        for m in matrices:
            for i in range(imax):
                for dv, dh in variants:
                    a = mod.move(m, dv, i)
                    if a is None:
                        continue
                    for j in range(jmax):
                        b = mod.move(m, dh, j)
                        if b is None:
                            continue
                        ab = mod.move(a[0], dh, j)
                        ba = mod.move(b[0], dv, i)
                        assert ab is not None and ba is not None
                        assert ab[0] == ba[0], (m.rows, dv, i, dh, j)
                        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(7, f"{checked} commuting squares, zero failures, {elapsed:.1f}s")


def test_c08_potentials_equal_move_counts():
    t0 = time.monotonic()
    checked = 0
    for mod, matrices, imax, jmax in (
        (cb, all_binary(3, 4), 4, 5),
        (ci, all_integral(3, 3, 2), 4, 4),
    ):
        for m in matrices:
            rs, cs = m.row_sums(), m.col_sums()
            for d in DIRECTIONS:
                rng = range(imax if d in (UP, DOWN) else jmax)
                for idx in rng:
                    # one move past the potential is enough to see a miscount
                    pot = mod.potential(m, d, idx)
                    count = 0
                    x = m
                    while count <= pot:
                        res = mod.move(x, d, idx)
                        if res is None:
                            break
                        x = res[0]
                        count += 1
                    assert count == pot, (m.rows, d, idx)
                    checked += 1
            for i in range(imax):
                assert mod.potential(m, DOWN, i) - mod.potential(m, UP, i) == part(rs, i) - part(rs, i + 1)
            for j in range(jmax):
                assert mod.potential(m, RIGHT, j) - mod.potential(m, LEFT, j) == part(cs, j) - part(cs, j + 1)
    elapsed = time.monotonic() - t0
    _report(8, f"{checked} potential/move-count identities, zero failures, {elapsed:.1f}s")


def test_c09_decompose_compose_roundtrip():
    t0 = time.monotonic()
    checked = 0
    for matrices in (all_binary(3, 4), all_integral(3, 3, 2)):
        for m in matrices:
            check_roundtrip(m)
            checked += 1
    elapsed = time.monotonic() - t0
    _report(9, f"round trip on {checked} matrices, zero failures, {elapsed:.1f}s")


def test_c10_oracle_equivalence():
    t0 = time.monotonic()
    for m in all_integral(3, 3, 2):
        check_insertion_encodings(m)
    for m in all_binary(3, 4):
        check_insertion_encodings(m)
    # dual RSK row form: insertion tableau = Schutzenberger dual of R
    r_star, s = dual_rsk_row(M_BIN)
    assert r_star.chain == RSTAR_CHAIN and s.chain == S_CHAIN
    _, r = dual_rsk_col(M_BIN)
    assert dual(r) == r_star
    rng = random.Random(17)
    for _ in range(50):
        m = random_matrix(rng, True, rng.randint(1, 4), rng.randint(1, 5))
        s_col, r = dual_rsk_col(m)
        r_star, s_row = dual_rsk_row(m)
        assert s_row == s_col
        assert dual(r) == r_star, m.rows
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(10, f"Burge and dual RSK match the decomposition exhaustively, {elapsed:.1f}s")


def test_c11_alternating_sums():
    t0 = time.monotonic()
    shapes = skew_shapes(5)
    pairs = 0
    for s1 in shapes:
        for s2 in shapes:
            check_stage_agreement(s1, s2, (6, 6))
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(11, f"all stages and both LR counts agree on {pairs} shape pairs, {elapsed:.1f}s")


def test_c12_involution_suite():
    t0 = time.monotonic()
    rng = random.Random(23)
    shapes = skew_shapes(5)
    failing_total = 0
    for s1 in shapes:
        for s2 in shapes:
            if s1.weight != s2.weight or s1.weight == 0:
                continue
            for mode in (BINARY, INTEGRAL):
                for m in tableau_side(s1, s2, mode):
                    if condition(m, s2, LR, mode):
                        continue
                    mp = involution(m, s2, LR)
                    assert not condition(mp, s2, LR, mode)
                    for _ in range(3):
                        check_involution_pairing(m, mp, s2, LR, rng.choice(shapes))
                    failing_total += 1
    elapsed = time.monotonic() - t0
    _report(12, f"involution checked on {failing_total} failing matrices, {elapsed:.1f}s")


def test_c13_schutzenberger():
    t0 = time.monotonic()
    r = Tableau(REVERSE_TRANSPOSE, R_CHAIN)
    assert dual(r).chain == RSTAR_CHAIN
    lbar = Tableau(SST, LBAR_CHAIN)
    assert dual(lbar).chain == LBARSTAR_CHAIN
    rng = random.Random(29)
    done = 0
    while done < 100:
        t = random_sst(rng)
        if not 0 < sum(t.outer) <= 10:
            continue
        check_dual(t)
        done += 1
    elapsed = time.monotonic() - t0
    _report(13, f"duals exact; involution and rectification route on {done} tableaux, {elapsed:.1f}s")


def test_c14_pictures():
    t0 = time.monotonic()
    shapes = skew_shapes(5)
    pairs = 0
    for s1 in shapes:
        for s2 in shapes:
            if s1.weight != s2.weight:
                continue
            check_pictures(s1, s2)
            pairs += 1
    elapsed = time.monotonic() - t0
    _report(14, f"picture counts equal LR counts on {pairs} shape pairs, {elapsed:.1f}s")
