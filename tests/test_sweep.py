"""The record-free reduced-word sweep behind decompose, compose and
normal_form against the canonical adaptive `exhaust` and the literal
one-move oracle, and decompose against the insertion encodings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from doublecrystal.crystal_binary import LEFT, UP
from doublecrystal.decomposition import _sweep, compose, decompose, exhaust
from doublecrystal.insertion import burge, dual_rsk_col
from doublecrystal.matrices import BINARY, INTEGRAL, encode
from doublecrystal.shapes import trim
from doublecrystal.verify import oracle_move

from conftest import matrices

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)


@SETTINGS
@given(matrices(), st.sampled_from([(UP,), (LEFT,), (UP, LEFT)]))
def test_sweep_reaches_the_raising_exhaustion(m, directions):
    assert _sweep(m, directions)[0].rows == exhaust(m, directions)[0].rows


@SETTINGS
@given(matrices(), st.sampled_from([UP, LEFT]))
def test_sweep_ladders_replay_as_full_oracle_ladders(m, d):
    out, ladders = _sweep(m, (d,))
    x = m
    for index, k in ladders:
        assert k > 0
        for _ in range(k):
            step = oracle_move(x, d, index)
            assert step is not None, (m, d, index)
            x = step[0]
        # each ladder is climbed to its top
        assert oracle_move(x, d, index) is None, (m, d, index)
    assert x == out


PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)


@PROPERTY_SETTINGS
@given(matrices(12))
def test_decompose_matches_insertion_encodings(m):
    """The relations the `oracles` verify suite checks, at up to 12x12."""
    p, q = decompose(m)
    if not m.binary:
        s, lbar = burge(m)
        assert encode(s, INTEGRAL) == p and encode(lbar, INTEGRAL).transpose() == q
        return
    s, r = dual_rsk_col(m)
    assert encode(s, BINARY) == q
    # column suffix sums of P reproduce the recording chain
    n = max(p.width, len(r.chain) - 1)
    pp = p.pad_to(1, n)
    chain = tuple(trim(sum(row[j:]) for row in pp.rows) for j in range(n + 1))
    assert chain == r.padded_chain(n + 1)


@PROPERTY_SETTINGS
@given(matrices(12))
def test_compose_inverts_decompose(m):
    assert compose(*decompose(m)) == m
