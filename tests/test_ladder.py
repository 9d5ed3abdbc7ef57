"""The bracket-matching ladder kernel against the literal one-move
definitions: `interchangeable` (binary) and `transfer_legal` (integral)
pick the unique legal move, and per-move exhaustion follows the canonical
order documented in `exhaust`, rescanning from index 0 after every ladder.
A single ladder replaces only the two lines of its pair."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.crystal_binary import DIRECTIONS, DOWN, LEFT, RIGHT, UP
from doublecrystal.decomposition import UsageError, exhaust
from doublecrystal.matrices import BinaryMatrix, IntegralMatrix
from doublecrystal.verify import check_exhaust, oracle_move

from conftest import matrices

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


@SETTINGS
@given(matrices(), st.sampled_from(DIRECTIONS), st.integers(0, 9))
def test_ladder_is_k_oracle_moves(m, d, index):
    ops = cb if m.binary else ci
    pot = ops.potential(m, d, index)
    x, want = m, []
    for k in range(pot + 1):
        out, records = ops.ladder(m, d, index, k)
        assert out.rows == x.rows and records == tuple(want), (m, d, index, k)
        step = oracle_move(x, d, index)
        if k < pot:
            x, rec = step
            want.append(rec)
    assert step is None
    assert ops.ladder(m, d, index) == ops.ladder(m, d, index, pot)
    first = ops.move(m, d, index)
    assert (first is None) == (pot == 0)
    if first:
        assert first[0].rows == ops.ladder(m, d, index, 1)[0].rows and first[1] == want[0]
    with pytest.raises(ValueError):
        ops.ladder(m, d, index, pot + 1)


@SETTINGS
@given(matrices(), st.sampled_from(DIRECTIONS), st.integers(0, 9),
       st.one_of(st.none(), st.integers(0, 3)))
# a row pair between two rows it leaves alone, and a column pair
@example(BinaryMatrix([[1, 1], [1, 0], [0, 1], [0, 0]]), DOWN, 1, None)
@example(IntegralMatrix([[1, 0, 2], [0, 1, 0], [2, 2, 1]]), RIGHT, 0, None)
def test_climb_replaces_only_its_pair(m, d, index, k):
    """`climb`, `ladder` and `move` keep by identity every row tuple they
    leave unchanged (for a row pair, every row outside it), and a climb
    that moves nothing returns m itself."""
    ops = cb if m.binary else ci
    out, moved = ops.climb(m, d, index, k)
    assert (out is m) == (not moved), (m, d, index, k)
    assert ops.ladder(m, d, index, 0)[0] is m
    step = ops.move(m, d, index)
    for x in [out, ops.ladder(m, d, index)[0]] + ([step[0]] if step else []):
        assert all(y is r for y, r in zip(x.rows, m.rows) if y == r), (m, d, index, k)
        if d in (UP, DOWN):
            assert all(x.rows[i] == r for i, r in enumerate(m.rows) if i not in (index, index + 1))


DIRECTION_SETS = [(UP,), (DOWN,), (LEFT,), (RIGHT,), (UP, LEFT), (UP, RIGHT),
                  (DOWN, LEFT), (DOWN, RIGHT)]


@SETTINGS
@given(matrices(), st.sampled_from(DIRECTION_SETS), st.one_of(st.none(), st.integers(1, 10)))
# the bounded down sweep adds rows before the left sweep transposes the matrix
@example(BinaryMatrix([[0, 1, 0, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 0, 1, 0, 0, 0],
                       [0, 1, 1, 1, 1, 1, 1, 1, 0]]), (DOWN, LEFT), 5)
# the down sweep adds rows and the right sweep columns
@example(IntegralMatrix([[1, 0, 2], [2, 1, 0]]), (DOWN, RIGHT), 4)
# rows without columns: no transposed copy
@example(BinaryMatrix([[], [], []]), (LEFT,), None)
def test_exhaust_matches_per_move_exhaustion(m, directions, bound):
    check_exhaust(m, directions, bound)


@pytest.mark.parametrize("mod,m", [(cb, BinaryMatrix([[0, 1], [1, 0]])),
                                   (ci, IntegralMatrix([[1, 2], [3, 4]]))])
def test_negative_index_is_rejected(mod, m):
    for d in DIRECTIONS:
        for call in (mod.potential, mod.move, mod.ladder):
            with pytest.raises(ValueError, match="nonnegative"):
                call(m, d, -1)


@pytest.mark.parametrize("directions,bound", [
    ((UP, DOWN), None), ((LEFT, RIGHT), None), ((UP, DOWN, LEFT), 2),
    ((DOWN,), 0), ((RIGHT,), -3), ((UP,), 0),
])
def test_exhaust_rejects_opposite_directions_and_bounds_below_one(directions, bound):
    for m in (BinaryMatrix([[0, 1], [1, 0]]), IntegralMatrix([[1, 2], [3, 4]])):
        with pytest.raises(UsageError):
            exhaust(m, directions, bound)
