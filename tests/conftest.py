"""Shared golden data: the running tableau, its encodings, and the
matrices of the worked decomposition examples; `until_none` and `climb`,
move loops capped so that a move that changes nothing fails them;
`outcome`, which the oracle comparisons use; `LR_PAIRS_10_TO_15`, skew
shape pairs with their LR counts; `matrices`, the hypothesis strategy of
small binary and integral matrices; `all_binary` and `all_integral`, every
matrix of a box."""

import itertools

import pytest
from hypothesis import strategies as st

from doublecrystal import BinaryMatrix, IntegralMatrix, SST, Tableau

# semistandard tableau of shape (9,8,5,5,3)/(4,1) and weight (2,3,3,2,4,4,7)
T_CHAIN = (
    (4, 1),
    (5, 2),
    (5, 3, 2),
    (6, 3, 3, 1),
    (6, 4, 3, 2),
    (7, 5, 4, 3),
    (9, 5, 5, 3, 1),
    (9, 8, 5, 5, 3),
)

M_BIN = BinaryMatrix([
    [0, 1, 0, 0, 1, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 0, 1, 0, 0],
    [1, 0, 0, 0, 1, 0, 0, 1, 1],
    [0, 1, 1, 1, 1, 1, 1, 1, 0],
])

M_INT = IntegralMatrix([
    [1, 0, 1, 0, 1, 2, 0],
    [1, 1, 0, 1, 1, 0, 3],
    [0, 2, 1, 0, 1, 1, 0],
    [0, 0, 1, 1, 1, 0, 2],
    [0, 0, 0, 0, 0, 1, 2],
])

P_BIN = BinaryMatrix([
    [1, 1, 1, 0, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 1, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
])

Q_BIN = BinaryMatrix([
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 0, 0, 0, 0, 0],
    [1, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 1, 1, 1, 0, 0, 0],
    [1, 0, 0, 0, 1, 0, 1, 1, 0],
    [0, 1, 1, 1, 1, 1, 1, 1, 0],
])

P_INT = IntegralMatrix([
    [2, 1, 1, 0, 2, 2, 0],
    [0, 2, 0, 1, 1, 1, 3],
    [0, 0, 2, 0, 1, 0, 2],
    [0, 0, 0, 1, 0, 0, 2],
    [0, 0, 0, 0, 0, 1, 0],
])

Q_INT = IntegralMatrix([
    [5, 0, 0, 0, 0, 0, 0],
    [2, 5, 0, 0, 0, 0, 0],
    [1, 2, 2, 0, 0, 0, 0],
    [0, 1, 2, 2, 0, 0, 0],
    [0, 0, 1, 1, 1, 0, 0],
])

LAMBDA = (8, 8, 5, 3, 1)

# S of the running example: the rectification of T
S_CHAIN = ((), (2,), (3, 2), (4, 2, 2), (4, 3, 2, 1), (6, 4, 3, 1),
           (8, 5, 3, 1, 1), (8, 8, 5, 3, 1))

# Lbar: the Burge recording tableau
LBAR_CHAIN = ((), (5,), (7, 5), (8, 7, 2), (8, 8, 4, 2), (8, 8, 5, 3, 1))

# R: the reverse transpose recording tableau of the column-insertion dual RSK
R_CHAIN = ((8, 8, 5, 3, 1), (7, 7, 4, 3, 1), (6, 6, 3, 2, 1), (5, 5, 2, 2),
           (5, 4, 1, 1), (4, 3), (3, 2), (2, 1), (1,), ())

# R*: the Schutzenberger dual of R
RSTAR_CHAIN = ((), (1, 1, 1), (2, 2, 2, 1), (3, 3, 3, 2), (4, 4, 4, 2),
               (5, 5, 5, 2, 1), (6, 5, 5, 3, 1), (7, 6, 5, 3, 1),
               (8, 7, 5, 3, 1), (8, 8, 5, 3, 1))

# Lbar*: the Schutzenberger dual of Lbar
LBARSTAR_CHAIN = ((8, 8, 5, 3, 1), (8, 5, 5, 2), (5, 5, 3), (5, 3), (3,), ())

PTILDE_BIN = BinaryMatrix([
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 1, 0, 0, 0],
    [1, 1, 1, 1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 0, 1, 1, 1],
    [1, 1, 1, 1, 1, 1, 1, 1, 0],
])

# the 3 x 13 matrix of the binary crystal move examples
M3X13 = BinaryMatrix([
    [1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1],
    [0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1],
    [0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1],
])

# the 2 x 9 matrix of the integral transfer examples
M2X9 = IntegralMatrix([
    [1, 2, 1, 3, 3, 1, 2, 4, 0],
    [2, 1, 1, 4, 2, 0, 5, 2, 0],
])

# skew shape pairs of weights 10 to 15 with their LR counts, which the
# Kostka and brute stages give independently of the LR filling search
LR_PAIRS_10_TO_15 = [
    ("7,4,2,1/4", "5,4,3,1/3", 6),
    ("7,4,2,2/4", "6,4,2,2/2,1", 8),
    ("5,4,4,2,1/3,1", "6,4,3,2/3", 11),
    ("6,4,4,1,1/2,1", "6,6,3,1,1/3,1", 9),
    ("6,6,3,2/2,1", "7,4,4,2/2,1", 4),
    ("5,4,4,3,3/2,1,1", "6,4,4,3,2/2,2", 9),
    ("6,5,4,3,2,1/3,2,1", "6,5,4,3,2,1/3,2,1", 1112),
    # narrow least binary boxes: (9, 2) and (3, 9)
    ("2,2,2,2,2,2,1,1/1,1", "3,2,2,2,2,1,1,1,1/2,1", 3),
    ("9,4,1,1/3,1", "8,4,3/3,1", 9),
]


def all_binary(h, w):
    """Every h x w binary matrix."""
    for bits in itertools.product((0, 1), repeat=h * w):
        yield BinaryMatrix([bits[i * w:(i + 1) * w] for i in range(h)])


def all_integral(h, w, cap):
    """Every h x w integral matrix with entries 0..cap."""
    for vals in itertools.product(range(cap + 1), repeat=h * w):
        yield IntegralMatrix([vals[i * w:(i + 1) * w] for i in range(h)])


@pytest.fixture
def running_tableau():
    return Tableau(SST, T_CHAIN)


def until_none(step, m, cap):
    """Apply step, which returns (matrix, record) or None, until it returns
    None: (matrix, records).  More than cap steps fail, so a step that
    changes nothing fails instead of looping."""
    records = []
    for _ in range(cap + 1):
        res = step(m)
        if res is None:
            return m, records
        m, rec = res
        records.append(rec)
    raise AssertionError((m.rows, f"more than {cap} moves"))


def climb(mod, m, d, index):
    """Apply moves until exhausted, returning (matrix, positions).  Each
    move carries one unit of the matrix, so more moves than its entry sum
    fail instead of looping."""
    m, records = until_none(lambda x: mod.move(x, d, index), m, sum(map(sum, m.rows)))
    return m, [rec.position if hasattr(rec, "position") else rec.at for rec in records]


def outcome(fn, *args):
    """The return value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as e:  # the comparison is the point
        return type(e), str(e)


@st.composite
def matrices(draw, side=8):
    binary = draw(st.booleans())
    h = draw(st.integers(0, side))
    w = draw(st.integers(0, side))
    entry = st.integers(0, 1 if binary else 3)
    rows = draw(st.lists(st.lists(entry, min_size=w, max_size=w), min_size=h, max_size=h))
    return (BinaryMatrix if binary else IntegralMatrix)(rows)
