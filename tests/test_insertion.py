import random

import pytest

from doublecrystal.insertion import (
    burge,
    column_insert,
    dual_rsk_col,
    dual_rsk_row,
    rectify,
    rsk_row,
)
from doublecrystal.matrices import BINARY, INTEGRAL, BinaryMatrix, IntegralMatrix, diagon, encode
from doublecrystal.shapes import REVERSE_TRANSPOSE, SST, TRANSPOSE, Tableau, trim
from doublecrystal.verify import check_rectify, random_sst

from conftest import (
    LBAR_CHAIN,
    M_BIN,
    M_INT,
    P_INT,
    Q_BIN,
    Q_INT,
    R_CHAIN,
    RSTAR_CHAIN,
    S_CHAIN,
    T_CHAIN,
)

S = Tableau(SST, S_CHAIN)


def test_column_insert_word():
    t = Tableau(SST, ((),))
    for x in (5, 5, 4, 2, 0):
        t = column_insert(t, x)
    assert t.chain[-1] == (5,)
    assert t.entry_rows() == [[0, 2, 4, 5, 5]]
    t1 = column_insert(Tableau(SST, ((),)), 0)
    assert t1.chain == ((), (1,))


def test_column_insert_full_semitic_reading():
    # inserting the full Semitic reading of T gives its rectification S
    t = Tableau(SST, ((),))
    rows = Tableau(SST, T_CHAIN).entry_rows()
    for row in rows:
        for x in reversed(row):
            t = column_insert(t, x)
    assert t == S


def test_burge_golden():
    p, q = burge(M_INT)
    assert p == S
    assert q.chain == LBAR_CHAIN
    assert encode(p, INTEGRAL) == P_INT
    assert encode(q, INTEGRAL).transpose() == Q_INT


def test_burge_trivial():
    p, q = burge(IntegralMatrix())
    assert p.chain == ((),) and q.chain == ((),)
    p, q = burge(diagon((3, 2, 2)))
    assert p == q
    assert p.outer == (3, 2, 2)
    # superstandard: row i filled with i
    assert p.entry_rows() == [[0, 0, 0], [1, 1], [2, 2]]


def test_dual_rsk_col_golden():
    s, r = dual_rsk_col(M_BIN)
    assert s == S
    assert r.flavor == REVERSE_TRANSPOSE
    assert r.chain == R_CHAIN
    assert encode(s, BINARY) == Q_BIN


def test_dual_rsk_col_trivial():
    s, r = dual_rsk_col(BinaryMatrix())
    assert s.chain == ((),) and r.chain == ((),)
    m = BinaryMatrix([[0] * 3] * 5).with_entry(4, 2, 1)
    s, r = dual_rsk_col(m)
    assert s.chain == ((), (), (), (), (), (1,)) and s.entry_rows() == [[4]]
    assert r.chain == ((1,), (1,), (1,), ())


def test_rsk_row_compare():
    row_rev = IntegralMatrix(tuple(reversed(M_INT.rows)))
    p, _ = rsk_row(row_rev)
    assert p == S
    col_rev = IntegralMatrix(tuple(tuple(reversed(r)) for r in M_INT.rows))
    _, q = rsk_row(col_rev)
    assert encode(q, INTEGRAL).transpose() == Q_INT
    p, _ = rsk_row(IntegralMatrix(tuple(reversed(diagon((3, 2)).rows))))
    assert p.outer == (3, 2)


def test_dual_rsk_row_golden():
    r_star, s = dual_rsk_row(M_BIN)
    assert r_star.flavor == TRANSPOSE
    assert r_star.chain == RSTAR_CHAIN
    assert s == S
    r_star, s = dual_rsk_row(BinaryMatrix([[1]]))
    assert r_star.chain == ((), (1,)) and s.chain == ((), (1,))


@pytest.mark.parametrize("fn,m,message", [
    (burge, M_BIN, "burge takes integral matrices, not binary ones"),
    (rsk_row, BinaryMatrix([[1]]), "rsk_row takes integral matrices, not binary ones"),
    (dual_rsk_col, IntegralMatrix([[2, 1], [0, 3]]),
     "dual_rsk_col takes binary matrices, not integral ones"),
    # an integral matrix of bits is still refused: the type says the mode
    (dual_rsk_row, IntegralMatrix([[1]]), "dual_rsk_row takes binary matrices, not integral ones"),
], ids=lambda x: getattr(x, "__name__", ""))
def test_insertion_rejects_the_other_mode(fn, m, message):
    with pytest.raises(ValueError) as exc:
        fn(m)
    assert str(exc.value) == message


def test_rectify_golden(running_tableau):
    assert rectify(running_tableau) == S
    assert rectify(S) == S
    with pytest.raises(ValueError):
        rectify(Tableau(REVERSE_TRANSPOSE, R_CHAIN))


def test_rectify_order_independent(running_tableau):
    rng = random.Random(9)
    for _ in range(8):
        assert rectify(running_tableau, rng) == S


def test_rectify_matches_crystal_exhaustion():
    rng = random.Random(10)
    for _ in range(40):
        inner = trim(sorted((rng.randint(0, 3) for _ in range(3)), reverse=True))
        check_rectify(random_sst(rng, inner, 4, 3))
