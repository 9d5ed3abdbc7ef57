"""The reduced-word sweep behind exhaust, decompose, compose and
normal_form against the literal one-move oracle, its scan count, and
decompose against the insertion encodings."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.crystal_binary import DIRECTIONS, LEFT, UP
from doublecrystal.decomposition import _index_limit, _sweep, exhaust
from doublecrystal.verify import (
    check_insertion_encodings,
    check_roundtrip,
    oracle_move,
    random_matrix,
)

from conftest import matrices

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


@SETTINGS
@given(matrices(), st.sampled_from([UP, LEFT]))
def test_sweep_ladders_replay_as_full_oracle_ladders(m, d):
    out, ladders = _sweep(m, (d,))
    x = m
    for _, index, runs in ladders:
        k = sum(n for _, n in runs)
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

    def counting(ladder_runs):
        def scan(*args):
            runs = ladder_runs(*args)
            scans["all"] += 1
            scans["moved"] += bool(runs)
            return runs
        return scan

    for ops in (cb, ci):
        monkeypatch.setattr(ops, "ladder_runs", counting(ops.ladder_runs))
    rng = random.Random(9)
    for t in range(400):
        h, w = rng.randint(0, 9), rng.randint(0, 9)
        m = random_matrix(rng, t % 2 == 1, h, w)
        for d in DIRECTIONS:
            for bound in (None, rng.randint(1, 11)):
                scans.update(all=0, moved=0)
                exhaust(m, (d,), bound)
                assert scans["all"] <= scans["moved"] + _index_limit(m, d, bound), (m, d, bound)


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
