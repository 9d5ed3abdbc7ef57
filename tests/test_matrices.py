import itertools

import pytest

from doublecrystal.cancellation import _chains
from doublecrystal.matrices import (
    BINARY,
    INTEGRAL,
    LR,
    TABLEAU,
    BinaryMatrix,
    DecodeError,
    IntegralMatrix,
    condition,
    decode,
    diagon,
    diagram,
    encode,
    margins,
    matrix_from_json,
    parse_matrix,
)
from doublecrystal.shapes import (
    SST,
    SkewShape,
    Tableau,
    conjugate,
    partitions_up_to,
    subpartitions,
)

from conftest import M_BIN, M_INT, all_binary, all_integral

SHAPE = SkewShape((9, 8, 5, 5, 3), (4, 1))


def test_margins(running_tableau):
    assert margins(M_INT) == ((5, 7, 5, 5, 3), (2, 3, 3, 2, 4, 4, 7))
    assert margins(IntegralMatrix()) == ((), ())
    d = diagon((8, 8, 5, 3, 1))
    assert margins(d) == ((8, 8, 5, 3, 1), (8, 8, 5, 3, 1))
    assert margins(diagram((8, 8, 5, 3, 1))) == ((8, 8, 5, 3, 1), conjugate((8, 8, 5, 3, 1)))


def test_encode_golden(running_tableau):
    assert encode(running_tableau, BINARY) == M_BIN
    assert encode(running_tableau, INTEGRAL) == M_INT
    const = Tableau(SST, ((2, 1), (2, 1)))
    assert encode(const, BINARY) == BinaryMatrix()
    assert encode(const, INTEGRAL) == IntegralMatrix()


def test_decode_golden(running_tableau):
    assert decode(M_BIN, SHAPE, BINARY) == running_tableau
    assert decode(M_INT, SHAPE, INTEGRAL) == running_tableau
    lam = (2, 1)
    const = decode(IntegralMatrix(), SkewShape(lam, lam), INTEGRAL)
    assert const.chain == ((2, 1),)
    with pytest.raises(DecodeError):
        decode(M_BIN, SkewShape((9, 8, 5, 5, 3), (4, 2)), BINARY)


def test_decode_encode_exhaustive():
    # identity on all semistandard tableaux with <= 3 strips and |outer| <= 8
    seen = 0
    for outer in partitions_up_to(8):
        for inner in subpartitions(outer):
            n = sum(outer) - sum(inner)
            for w in itertools.product(range(n + 1), repeat=3):
                if sum(w) != n:
                    continue
                for chain in _chains(inner, outer, w):
                    t = Tableau(SST, chain)
                    sh = SkewShape(outer, inner)
                    for mode in (BINARY, INTEGRAL):
                        m = encode(t, mode)
                        assert condition(m, sh, TABLEAU, mode)
                        assert decode(m, sh, mode) == t
                    seen += 1
    assert seen > 3000


def test_condition_examples():
    assert condition(M_BIN, SHAPE, TABLEAU, BINARY)
    assert not condition(M_BIN.with_entry(0, 0, 1), SHAPE, TABLEAU, BINARY)
    assert condition(diagram((3, 2)), SkewShape((3, 2)), LR, BINARY)
    assert condition(M_INT, SHAPE, TABLEAU, INTEGRAL)


def test_condition_rotation_and_transposition():
    # tableau condition on m is the LR condition for the conjugate shape on
    # the quarter-turned matrix (up to null rows), and the integral LR
    # condition is the tableau condition on the transpose, same shape
    rects = [(2, 3), (3, 2), (3, 3)]
    shapes = [SkewShape(o, i) for o in partitions_up_to(4) for i in subpartitions(o)]
    for h, w in rects:
        for m in all_binary(h, w):
            for sh in shapes[::7]:
                csh = SkewShape(conjugate(sh.outer), conjugate(sh.inner))
                assert condition(m, sh, TABLEAU, BINARY) == condition(
                    m.rotate_cw(), csh, LR, BINARY
                )
    for m in all_integral(2, 2, 2):
        for sh in shapes[::5]:
            assert condition(m, sh, LR, INTEGRAL) == condition(
                m.transpose(), sh, TABLEAU, INTEGRAL
            )


def test_restrict():
    assert M_BIN.restrict((0, 0), (0, None)) == BinaryMatrix()
    assert M_BIN.restrict((0, None), (0, None)) == M_BIN
    assert M_INT.restrict((0, 3), (0, 6)).rows[0][:6] == (1, 0, 1, 0, 1, 2)
    assert M_INT.restrict((1, 3), (0, None)).row_sums() == (0, 7, 5)


def test_rotations_and_equality():
    m = BinaryMatrix([[1, 0], [0, 1], [1, 1]])
    assert m.rotate_ccw().rotate_cw() == m
    assert m.rotate_half().rotate_half() == m
    assert m.transpose().transpose() == m
    padded = m.pad_to(5, 5)
    assert padded == m and hash(padded) == hash(m)
    assert m != IntegralMatrix(m.rows).trimmed() or True  # distinct types never equal
    assert BinaryMatrix([[1]]) != IntegralMatrix([[1]])


def test_text_and_json():
    text = M_INT.to_text()
    assert parse_matrix(text, INTEGRAL) == M_INT
    assert matrix_from_json(M_INT.to_json()) == M_INT
    with pytest.raises(ValueError):
        parse_matrix("0 2\n1 0", BINARY)
    with pytest.raises(ValueError):
        BinaryMatrix([[1, 0], [1]])


def test_diagram_diagon():
    assert diagram((3, 2)).rows == ((1, 1, 1), (1, 1, 0))
    assert diagon((3, 2)).rows == ((3, 0), (0, 2))
    assert diagram(()) == BinaryMatrix()
