import random
from bisect import bisect_right

import pytest

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.crystal_binary import DIRECTIONS, DOWN, LEFT, RIGHT, UP
from doublecrystal.matrices import BinaryMatrix, IntegralMatrix
from doublecrystal.verify import (
    check_commute,
    check_move_iff_potential,
    check_opposite_inverts,
    check_perpendicular_potentials,
    random_matrix,
)

from conftest import M2X9, M3X13, all_binary, all_integral, climb


# The reference readings: the full bracket string of a pair and its unmatched
# brackets, sharing no code with the scans that moves run on.

ROWS = "rows"
COLS = "cols"


def _pairs(rows, orientation: str, index: int) -> list[tuple[int, int]]:
    """Bit pairs of rows index, index+1 (left to right) or of columns
    index, index+1 (bottom to top), zero beyond the stored rectangle: the
    reference reading of `binary_paren_profile`."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    h = len(rows)
    w = len(rows[0]) if rows else 0
    if orientation == ROWS:
        zero = (0,) * w
        return list(zip(rows[index] if index < h else zero,
                        rows[index + 1] if index + 1 < h else zero))
    if orientation == COLS:
        j = index
        if j + 1 < w:
            return [(r[j], r[j + 1]) for r in reversed(rows)]
        return [(r[j] if j < w else 0, 0) for r in reversed(rows)]
    raise ValueError(f"unknown orientation: {orientation}")


def _match(pairs) -> tuple[list[int], list[int]]:
    """Reading positions of the unmatched '(' (0 over 1) and ')' (1 over 0),
    both from one forward pass over every pair."""
    opens, closes = [], []
    for p, (a, b) in enumerate(pairs):
        if a != b:
            if b:
                opens.append(p)
            elif opens:
                opens.pop()
            else:
                closes.append(p)
    return opens, closes


def binary_paren_profile(m: BinaryMatrix, orientation: str, index: int):
    """Bracket string for a row pair (or column pair, read bottom to top).

    '(' marks a pair movable by the raising move of the orientation, ')'
    by the lowering move, '-' anything else.  Returns (string, unmatched
    open positions, unmatched close positions).  This is the reference
    reading: it shares no code with `_climb`, the scan moves run on.
    """
    pairs = _pairs(m.rows, orientation, index)
    opens, closes = _match(pairs)
    text = "".join("(" if (a, b) == (0, 1) else ")" if (a, b) == (1, 0) else "-" for a, b in pairs)
    return text, tuple(opens), tuple(closes)


def _units(rows, axis: str, index: int) -> list[tuple[int, int]]:
    """Per reading step of the pair, the counts of ')' then '(': for rows
    index, index+1 column by column (m[i+1,j], m[i,j]); for columns
    index, index+1 row by row (m[i,j+1], m[i,j]).  Zero beyond the stored
    rectangle.  The reference reading of `integral_paren_profile`."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    h = len(rows)
    w = len(rows[0]) if rows else 0
    if axis == ROWS:
        zero = (0,) * w
        return list(zip(rows[index + 1] if index + 1 < h else zero,
                        rows[index] if index < h else zero))
    if axis == COLS:
        j = index
        if j + 1 < w:
            return [(r[j + 1], r[j]) for r in rows]
        # a matrix without columns has no column pair to read
        return [(0, r[j] if j < w else 0) for r in rows] if w else []
    raise ValueError(f"unknown axis: {axis}")


def _closes(units) -> list[tuple[int, int]]:
    """(step, count) of the unmatched ')', left to right: each ')' matches
    the nearest unmatched '(' before it, so only their number matters."""
    depth, closes = 0, []
    for step, (c, o) in enumerate(units):
        if c > depth:
            closes.append((step, c - depth))
            depth = o
        else:
            depth += o - c
    return closes


def _opens(units) -> list[tuple[int, int]]:
    """(step, count) of the unmatched '(', left to right: the scan of
    `_closes` read backwards."""
    depth, opens = 0, []
    for step in range(len(units) - 1, -1, -1):
        c, o = units[step]
        if o > depth:
            opens.append((step, o - depth))
            depth = c
        else:
            depth += c - o
    opens.reverse()
    return opens


def integral_paren_profile(m: IntegralMatrix, axis: str, index: int):
    """Bracket string for a pair of rows (or of columns, read top to bottom).

    Per column j, emit m[i+1,j] symbols ')' then m[i,j] symbols '(' so
    that '(' units of row i may match ')' units of row i+1 one column to
    the right.  Unmatched ')' count the up potential, unmatched '(' the
    down potential.  Returns (string, column separator positions,
    unmatched '(' positions, unmatched ')' positions).  This is the
    reference reading: it shares no code with `_climb`, the scan transfers
    run on.
    """
    units = _units(m.rows, axis, index)
    opens, closes = _opens(units), _closes(units)
    sym, seps, starts = [], [], []
    for c, o in units:
        starts.append(len(sym) + c)  # position of the step's first '('
        sym.extend(")" * c + "(" * o)
        seps.append(len(sym))
    # a step's unmatched '(' are its first ones, its unmatched ')' its last
    open_un = tuple(starts[step] + u for step, n in opens for u in range(n))
    close_un = tuple(starts[step] - n + u for step, n in closes for u in range(n))
    return "".join(sym), tuple(seps[:-1]), open_un, close_un


class TestBinary:
    def test_interchangeable_examples(self):
        assert cb.interchangeable(M3X13, 0, 0, "vertical")
        assert cb.interchangeable(M3X13, 0, 1, "vertical")
        assert not cb.interchangeable(M3X13, 0, 2, "vertical")
        assert not cb.interchangeable(M3X13, 0, 7, "vertical")
        assert cb.interchangeable(M3X13, 1, 4, "vertical")
        assert not cb.interchangeable(M3X13, 1, 5, "vertical")
        assert not cb.interchangeable(M3X13, 1, 12, "vertical")

    def test_never_interchangeable_in_forbidden_patterns(self):
        m1 = BinaryMatrix([[1, 0], [0, 1]])
        assert not cb.interchangeable(m1, 0, 0, "horizontal")
        assert not cb.interchangeable(m1, 1, 0, "horizontal")
        assert cb.interchangeable(m1, 0, 0, "vertical")
        assert cb.interchangeable(m1, 0, 1, "vertical")
        m2 = BinaryMatrix([[0, 1], [1, 0]])
        assert not cb.interchangeable(m2, 0, 0, "vertical")
        assert not cb.interchangeable(m2, 0, 1, "vertical")
        assert cb.interchangeable(m2, 0, 0, "horizontal")
        assert cb.interchangeable(m2, 1, 0, "horizontal")

    def test_no_interchange_inside_forbidden_submatrices(self):
        # embedded forbidden 2x2 patterns stay blocked in larger matrices
        rng = random.Random(5)
        for _ in range(200):
            m = random_matrix(rng, True, 4, 4)
            for i in range(3):
                for j in range(3):
                    sub = (m[i, j], m[i, j + 1], m[i + 1, j], m[i + 1, j + 1])
                    if sub == (1, 0, 0, 1):
                        assert not cb.interchangeable(m, i, j, "horizontal")
                        assert not cb.interchangeable(m, i + 1, j, "horizontal")
                    if sub == (0, 1, 1, 0):
                        assert not cb.interchangeable(m, i, j, "vertical")
                        assert not cb.interchangeable(m, i, j + 1, "vertical")

    def test_move_sequences(self):
        _, cols = climb(cb, M3X13, UP, 0)
        assert [c for _, c in cols] == [1, 7, 8, 10, 11]
        _, cols = climb(cb, M3X13, DOWN, 1)
        assert [c for _, c in cols] == [4, 2]
        assert cb.move(BinaryMatrix([[1, 1, 1], [1, 1, 0]]), UP, 0) is None
        from doublecrystal.matrices import diagram

        # normal forms admit no raising moves; lowering potentials are the
        # part differences (down from (3,2) is possible, ndm_0 = 1)
        for d in (UP, LEFT):
            for idx in range(3):
                assert cb.move(diagram((3, 2)), d, idx) is None
        assert cb.potential(diagram((3, 2)), DOWN, 0) == 1

    def test_potential_examples(self):
        assert cb.potential(M3X13, UP, 0) == 5
        assert cb.potential(M3X13, DOWN, 0) == 1
        assert cb.potential(M3X13, DOWN, 1) == 2
        assert cb.potential(BinaryMatrix(), UP, 0) == 0
        rs = M3X13.row_sums()
        assert cb.potential(M3X13, DOWN, 0) - cb.potential(M3X13, UP, 0) == rs[0] - rs[1]

    def test_paren_profile(self):
        s, op, cl = binary_paren_profile(M3X13, "rows", 0)
        assert s == ")((-())((-((-"
        assert len(op) == cb.potential(M3X13, UP, 0)
        assert len(cl) == cb.potential(M3X13, DOWN, 0)
        s, _, _ = binary_paren_profile(M3X13, "rows", 1)
        assert s == "--)-)-(----)-"
        s, op, cl = binary_paren_profile(BinaryMatrix([[0, 0], [0, 0]]), "rows", 0)
        assert s == "--" and not op and not cl

    def test_paren_profile_columns_match_potentials(self):
        rng = random.Random(1)
        for _ in range(100):
            m = random_matrix(rng, True, 4, 4)
            for j in range(3):
                _, op, cl = binary_paren_profile(m, "cols", j)
                assert len(op) == cb.potential(m, LEFT, j)
                assert len(cl) == cb.potential(m, RIGHT, j)

    def test_exhaustive_move_iff_potential(self):
        for m in all_binary(3, 3):
            for d in DIRECTIONS:
                for idx in range(3):
                    check_move_iff_potential(m, d, idx)

    def test_down_left_of_up(self):
        # when both vertical moves exist, the downward one is strictly left
        for m in all_binary(2, 4):
            up = cb.move(m, UP, 0)
            down = cb.move(m, DOWN, 0)
            if up and down:
                assert down[1].position[1] < up[1].position[1]


class TestIntegral:
    def test_transfer_legal_examples(self):
        assert ci.transfer_legal(M2X9, "rows", 0, 3, 2)
        assert not ci.transfer_legal(M2X9, "rows", 0, 3, 3)
        assert ci.transfer_legal(M2X9, "rows", 0, 7, -4)
        assert not ci.transfer_legal(M2X9, "rows", 0, 7, -5)
        for c in (0, 1, 2):
            for a in (1, 2, 3):
                assert not ci.transfer_legal(M2X9, "rows", 0, c, a)
        with pytest.raises(ValueError):
            ci.transfer_legal(M2X9, "rows", 0, 0, 0)

    def test_multi_unit_iff_repeated_units(self):
        rng = random.Random(2)
        for _ in range(150):
            m = random_matrix(rng, False, 3, 3)
            for pair in range(2):
                for at in range(3):
                    for a in (2, 3, -2, -3):
                        d = UP if a > 0 else DOWN
                        x, ok = m, True
                        for _ in range(abs(a)):
                            res = ci.move(x, d, pair)
                            if res is None or res[1].at != at:
                                ok = False
                                break
                            x = res[0]
                        assert ci.transfer_legal(m, "rows", pair, at, a) == ok, (m.rows, pair, at, a)

    def test_move_sequences(self):
        _, ats = climb(ci, M2X9, UP, 0)
        assert ats == [3, 3, 0, 0]
        m, ats = climb(ci, M2X9, DOWN, 0)
        assert ats == [7, 7, 7, 7]
        assert m[0, 7] == 0 and m[1, 7] == 6
        from doublecrystal.matrices import diagon

        for d in (UP, LEFT):
            assert ci.move(diagon((3, 1)), d, 0) is None

    def test_after_two_ups(self):
        m = M2X9
        for _ in range(2):
            m, _ = ci.move(m, UP, 0)
        assert m == IntegralMatrix([[1, 2, 1, 5, 3, 1, 2, 4, 0],
                                    [2, 1, 1, 2, 2, 0, 5, 2, 0]])
        assert ci.move(m, UP, 0)[1].at == 0

    def test_potential_examples(self):
        assert ci.potential(M2X9, UP, 0) == 4
        assert ci.potential(M2X9, DOWN, 0) == 4
        assert ci.potential(IntegralMatrix(), UP, 0) == 0

    def test_paren_profile(self):
        s, seps, op, cl = integral_paren_profile(M2X9, "rows", 0)
        assert len(op) == 4 and len(cl) == 4
        assert s.count("(") == 17 and s.count(")") == 17
        from doublecrystal.matrices import diagon

        s, _, op, cl = integral_paren_profile(diagon((2, 1)), "rows", 0)
        assert s == "(()" and len(op) == 1 and len(cl) == 0
        s, _, op, cl = integral_paren_profile(IntegralMatrix([[0]]), "rows", 0)
        assert s == ""

    def test_min_invariant(self):
        # min(M[i,j], M[i+1,j+1]) unchanged by transfers between rows i,i+1
        rng = random.Random(3)
        for _ in range(200):
            m = random_matrix(rng, False, 2, 3)
            for d in (UP, DOWN):
                res = ci.move(m, d, 0)
                if res is None:
                    continue
                mp = res[0]
                for j in range(2):
                    assert min(m[0, j], m[1, j + 1]) == min(mp[0, j], mp[1, j + 1])

    def test_monotone_columns(self):
        # successive ups move weakly left; downs weakly right
        rng = random.Random(4)
        for _ in range(100):
            m = random_matrix(rng, False, 2, 4, 4)
            _, ups = climb(ci, m, UP, 0)
            assert all(a >= b for a, b in zip(ups, ups[1:]))
            _, downs = climb(ci, m, DOWN, 0)
            assert all(a <= b for a, b in zip(downs, downs[1:]))


def test_inverse_moves():
    rng = random.Random(6)
    for _ in range(200):
        binary = rng.random() < 0.5
        m = random_matrix(rng, binary, 3, 4 if binary else 3)
        for d in DIRECTIONS:
            for idx in range(3):
                check_opposite_inverts(m, d, idx)


def test_perpendicular_invariance():
    for m in all_binary(3, 3):
        for j in range(3):
            check_perpendicular_potentials(m, UP, 0, j)
    for m in all_integral(2, 2, 2):
        for i in range(2):
            check_perpendicular_potentials(m, RIGHT, 0, i)


def test_power_commutation():
    # (left^m)(up^n) = (up^n)(left^m) whenever both powers are defined
    rng = random.Random(7)
    for _ in range(100):
        m = random_matrix(rng, False, 4, 4, 4)
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        nmax = ci.potential(m, UP, i)
        mmax = ci.potential(m, LEFT, j)
        if not nmax or not mmax:
            continue
        n = rng.randint(1, nmax)
        mm = rng.randint(1, mmax)
        a = m
        for _ in range(n):
            a = ci.move(a, UP, i)[0]
        for _ in range(mm):
            a = ci.move(a, LEFT, j)[0]
        b = m
        for _ in range(mm):
            b = ci.move(b, LEFT, j)[0]
        for _ in range(n):
            b = ci.move(b, UP, i)[0]
        assert a == b


def test_move_iff_potential_4x4_exhaustive_and_random_6x6():
    for m in all_binary(4, 4):
        for d in DIRECTIONS:
            for idx in range(4):
                check_move_iff_potential(m, d, idx)
    rng = random.Random(8)
    for _ in range(200):
        m = random_matrix(rng, True, 6, 6)
        for d in DIRECTIONS:
            for idx in range(6):
                check_move_iff_potential(m, d, idx)


def test_integral_commutation_random_4x4():
    rng = random.Random(9)
    for _ in range(400):
        m = random_matrix(rng, False, 4, 4, 4)
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        for dv in (UP, DOWN):
            for dh in (LEFT, RIGHT):
                check_commute(m, dv, i, dh, j)


def test_at_most_one_move_per_direction():
    # between any fixed pair of rows, at most one upward and one downward
    # interchange is authorised at a time (and similarly for columns)
    for m in all_binary(2, 4):
        ups = [l for l in range(4)
               if (m[0, l], m[1, l]) == (0, 1) and cb.interchangeable(m, 0, l, "vertical")]
        downs = [l for l in range(4)
                 if (m[0, l], m[1, l]) == (1, 0) and cb.interchangeable(m, 0, l, "vertical")]
        assert len(ups) <= 1 and len(downs) <= 1, m.rows
        res = cb.move(m, UP, 0)
        assert ups == ([res[1].position[1]] if res else [])
    rng = random.Random(11)
    for _ in range(300):
        m = random_matrix(rng, False, 2, 4)
        for sense, d in ((1, UP), (-1, DOWN)):
            legal = [l for l in range(4) if ci.transfer_legal(m, "rows", 0, l, sense)]
            assert len(legal) <= 1, (m.rows, sense)
            res = ci.move(m, d, 0)
            assert legal == ([res[1].at] if res else [])


def _reference_moves(m, d, index):
    """Where the unmatched brackets of the paren profiles, the reference
    readings, put the d-ladder at index, in move order, one entry per unit:
    the column of a row pair, the row of a column pair."""
    orientation = "rows" if d in (UP, DOWN) else "cols"
    raising = d in (UP, LEFT)
    if m.binary:
        _, opens, closes = binary_paren_profile(m, orientation, index)
        at = list(opens) if raising else list(reversed(closes))
        # a column pair is read bottom to top
        return at if orientation == "rows" else [m.height - 1 - p for p in at]
    _, seps, opens, closes = integral_paren_profile(m, orientation, index)
    at = list(reversed(closes)) if raising else list(opens)
    return [bisect_right(seps, p) for p in at]


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "integral"])
def test_scan_moves_the_unmatched_brackets_of_the_reference_reading(binary):
    """The one scan behind `ladder` and `potential` moves exactly the
    unmatched brackets of the reference reading, in move order, at every index
    up to one past the stored rectangle."""
    ops = cb if binary else ci
    rng = random.Random(12)
    for _ in range(300):
        m = random_matrix(rng, binary, rng.randint(0, 24), rng.randint(0, 24), rng.randint(1, 3))
        for d in DIRECTIONS:
            vertical = d in (UP, DOWN)
            for index in range((m.height if vertical else m.width) + 1):
                want = _reference_moves(m, d, index)
                _, records = ops.ladder(m, d, index)
                if binary:
                    got = [r.position[1] if vertical else r.position[0] for r in records]
                else:
                    got = [r.at for r in records]
                assert got == want, (m, d, index)
                assert ops.potential(m, d, index) == len(want), (m, d, index)
