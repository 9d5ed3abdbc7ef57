"""The reduced-word sweep behind exhaust, decompose, compose and
normal_form against the literal one-move oracle, its scan count, the
pass-count reading of Q and its ladders against the sweeps, and decompose
against the insertion encodings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.crystal_binary import DIRECTIONS, DOWN, LEFT, RIGHT, UP
from doublecrystal.decomposition import (
    _index_limit,
    _lifts,
    _sweep,
    compose,
    decompose,
    exhaust,
)
from doublecrystal.matrices import BinaryMatrix, IntegralMatrix
from doublecrystal.verify import (
    check_exhaust,
    check_insertion_encodings,
    check_roundtrip,
    oracle_move,
    random_matrix,
)

from conftest import all_binary, all_integral, matrices

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


@SETTINGS
@given(matrices(), st.sampled_from([UP, LEFT]))
def test_sweep_ladders_replay_as_full_oracle_ladders(m, d):
    out, ladders = _sweep(m, (d,))
    x = m
    for _, index, moved in ladders:
        k = (cb if m.binary else ci)._units(moved)
        assert k > 0
        for _ in range(k):
            step = oracle_move(x, d, index)
            assert step is not None, (m, d, index)
            x = step[0]
        # each ladder is climbed to its top
        assert oracle_move(x, d, index) is None, (m, d, index)
    assert x == out


def test_exhaust_scans_each_pass_to_its_first_idle_ladder(monkeypatch):
    """Each pass of the sweep stops at the first ladder that does not move,
    so exhaust scans at most (ladders climbed + index limit) ladders."""
    scans = {"all": 0, "moved": 0}

    def counting(climb):
        def scan(*args):
            moved = climb(*args)
            scans["all"] += 1
            scans["moved"] += bool(moved)
            return moved
        return scan

    for ops in (cb, ci):
        monkeypatch.setattr(ops, "_climb", counting(ops._climb))
    rng = random.Random(9)
    for t in range(400):
        h, w = rng.randint(0, 9), rng.randint(0, 9)
        m = random_matrix(rng, t % 2 == 1, h, w)
        for d in DIRECTIONS:
            for bound in (None, rng.randint(1, 11)):
                scans.update(all=0, moved=0)
                exhaust(m, (d,), bound)
                assert scans["all"] <= scans["moved"] + _index_limit(m, d, bound), (m, d, bound)


def _check_one_sweep(m):
    """decompose's stored rows are the up and left sweeps', and the ladders
    compose reads off Q, stored or trimmed, are those of Q's up sweep."""
    p, q = decompose(m)
    assert (p.rows, q.rows) == (_sweep(m, (UP,))[0].rows, _sweep(m, (LEFT,))[0].rows), m
    units = (cb if m.binary else ci)._units
    for x in (q, q.trimmed()):
        assert _lifts(x) == [(i, units(moved)) for _, i, moved in _sweep(x, (UP,))[1]], (m, x)


@pytest.mark.parametrize("box", [lambda: all_binary(3, 4), lambda: all_integral(3, 3, 2)],
                         ids=["binary-3x4", "integral-3x3"])
def test_q_read_off_the_up_sweep_exhaustive(box):
    for m in box():
        _check_one_sweep(m)


def test_q_read_off_the_up_sweep_random():
    """Seeded random matrices up to 24x24, tall, wide and empty ones
    included, among them ones whose up sweep has a pass that moves nothing
    below one that moves."""
    rng = random.Random(29)
    sides = [(0, 0), (0, 5), (5, 0), (24, 24), (24, 2), (2, 24), (30, 1), (1, 30)]
    sides += [(rng.randint(0, 24), rng.randint(0, 24)) for _ in range(300)]
    idle = 0
    for t, (h, w) in enumerate(sides):
        m = random_matrix(rng, t % 2 == 0, h, w, rng.randint(1, 4))
        _check_one_sweep(m)
        # a pass starts at its top index, above where the last one stopped
        tops, prev = [], -1
        for _, i, _ in _sweep(m, (UP,))[1]:
            if i > prev:
                tops.append(i)
            prev = i
        idle += tops != list(range(len(tops)))
    assert idle > 20


def test_decompose_and_compose_climb_only_the_up_sweep(monkeypatch):
    """decompose makes exactly the `_climb` calls of m's up sweep; compose
    makes h potential climbs of P, w - 1 left climbs of Q and one climb per
    replayed ladder, and sweeps nothing."""
    calls = []

    def counting(climb):
        def scan(*args):
            calls.append(args[2])
            return climb(*args)
        return scan

    rng = random.Random(17)
    cases = [random_matrix(rng, t % 2 == 0, rng.randint(0, 12), rng.randint(0, 12)) for t in range(80)]
    for ops in (cb, ci):
        monkeypatch.setattr(ops, "_climb", counting(ops._climb))
    for m in cases:
        calls.clear()
        ladders = _sweep(m, (UP,))[1]
        sweep = list(calls)
        calls.clear()
        p, q = decompose(m)
        assert calls == sweep, m
        calls.clear()
        assert compose(p, q) == m
        assert calls == [True] * (p.height + max(q.width - 1, 0)) + [False] * len(ladders), m


EDGE_CASES = [
    # a bounded down sweep appends rows, then binary left or right ladders
    # read the columns of the taller matrix bottom to top
    (BinaryMatrix([[0, 1, 1, 0]]), (DOWN, LEFT), 3),
    (BinaryMatrix([[1, 1], [0, 0], [1, 1]]), (DOWN, RIGHT), 5),
    # a bound beyond the stored height
    (IntegralMatrix([[2, 0, 1]]), (DOWN,), 6),
    (BinaryMatrix([[1, 1]]), (DOWN,), 9),
    # rows without columns, and the empty matrix
    (BinaryMatrix([[], [], []]), (DOWN, RIGHT), 5),
    (IntegralMatrix([[], []]), (UP, LEFT), None),
    (BinaryMatrix([]), (DOWN, LEFT), 3),
    (IntegralMatrix([]), (DOWN, RIGHT), 3),
]


@pytest.mark.parametrize("m,directions,bound", EDGE_CASES)
def test_sweep_edge_cases_match_per_move_exhaustion(m, directions, bound):
    check_exhaust(m, directions, bound)
    out, ladders = _sweep(m, directions, bound)
    # the cases are live: each bounded one with columns appends rows and
    # moves in its last direction
    if bound is not None and m.width:
        assert out.height > m.height and ladders[-1][0] == directions[-1]
    assert compose(*(_sweep(m, (d,))[0] for d in (UP, LEFT))) == m


@SETTINGS
@given(matrices(), st.integers(0, 9), st.integers(0, 12))
def test_truncated_lowering_is_k_oracle_moves(m, index, k):
    """compose's replay: the first k units of a down ladder on row lists,
    all of them when k exceeds the potential, appending a row the moves
    fill."""
    ops = cb if m.binary else ci
    rows = [list(r) for r in m.rows]
    moved = cb._climb_pair(ops._climb, rows, index, False, k)
    x = m
    for _ in range(k):
        step = oracle_move(x, DOWN, index)
        if step is None:
            break
        x = step[0]
    assert type(m)._from_lists(rows).rows == x.rows, (m, index, k)
    assert ops._units(moved) == min(k, ops.potential(m, DOWN, index))


@SETTINGS
@given(matrices())
def test_compose_takes_trimmed_factors(m):
    """P and Q stored in their smallest rectangles compose to m: the
    replay then reaches past P's stored rows and appends each row its
    moves fill."""
    p, q = decompose(m)
    for a, b in ((p.trimmed(), q), (p, q.trimmed()), (p.trimmed(), q.trimmed())):
        assert compose(a, b) == m, (m, a, b)


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@PROPERTY_SETTINGS
@given(matrices(12))
def test_decompose_matches_insertion_encodings(m):
    """The relations the `oracles` verify suite checks, at up to 12x12."""
    check_insertion_encodings(m)


@PROPERTY_SETTINGS
@given(matrices(12))
def test_compose_inverts_decompose(m):
    check_roundtrip(m)
