import random

import pytest

from doublecrystal import crystal_binary as cb
from doublecrystal import crystal_integral as ci
from doublecrystal.crystal_binary import DOWN, LEFT, UP
from doublecrystal.decomposition import (
    ComposeError,
    UsageError,
    apply_move,
    compose,
    crystal_class_potentials,
    decompose,
    exhaust,
    is_normal,
    normal_form,
    potential,
)
from doublecrystal.matrices import BinaryMatrix, IntegralMatrix, diagon, diagram
from doublecrystal.verify import check_compose_inverts, random_matrix

from conftest import (
    LAMBDA,
    M_BIN,
    M_INT,
    P_BIN,
    P_INT,
    PTILDE_BIN,
    Q_BIN,
    Q_INT,
    all_binary,
    all_integral,
    climb,
    until_none,
)


def test_golden_binary():
    p, q = decompose(M_BIN)
    assert p == P_BIN and q == Q_BIN
    assert normal_form(M_BIN) == LAMBDA
    assert compose(P_BIN, Q_BIN) == M_BIN


def test_golden_integral():
    p, q = decompose(M_INT)
    assert p == P_INT and q == Q_INT
    assert normal_form(M_INT) == LAMBDA
    assert compose(P_INT, Q_INT) == M_INT


def test_exhaust_examples():
    assert exhaust(M_BIN, (UP,))[0] == P_BIN
    assert exhaust(M_BIN, (LEFT,))[0] == Q_BIN
    assert exhaust(M_INT, (UP,))[0] == P_INT
    assert exhaust(M_INT, (LEFT,))[0] == Q_INT
    # downward exhaustion within the stored 7 rows gives the P~ matrix
    assert exhaust(M_BIN, (DOWN,))[0] == PTILDE_BIN
    assert exhaust(M_BIN, (DOWN,), bound=7)[0] == PTILDE_BIN
    with pytest.raises(UsageError):
        exhaust(M_BIN, ())


def test_exhaust_records_replay():
    out, records = exhaust(M_INT, (UP, LEFT))
    m = M_INT
    for rec in records:
        m = apply_move(m, rec.direction, rec.index)[0]
    assert m == out == diagon(LAMBDA)


def test_is_normal():
    assert is_normal(diagram(LAMBDA)) == LAMBDA
    assert is_normal(diagon(LAMBDA)) == LAMBDA
    assert is_normal(M_BIN) is None
    assert is_normal(BinaryMatrix()) == ()
    assert is_normal(IntegralMatrix([[0, 1]])) is None
    # padded normal forms still recognized
    assert is_normal(diagram((2, 1)).pad_to(5, 5)) == (2, 1)


def test_normal_form_trivial():
    assert normal_form(BinaryMatrix()) == ()
    assert normal_form(IntegralMatrix([[0]])) == ()
    assert decompose(diagram((3, 2))) == (diagram((3, 2)), diagram((3, 2)))
    assert compose(diagram((3, 2)), diagram((3, 2))) == diagram((3, 2))


def test_order_independence():
    rng = random.Random(0)
    for _ in range(200):
        binary = rng.random() < 0.5
        n = 4 if binary else 3
        m = random_matrix(rng, binary, n, n)
        mod = cb if binary else ci
        canonical, _ = exhaust(m, (UP, LEFT))

        def step(x):
            choices = [(d, i) for d in (UP, LEFT) for i in range(4) if mod.potential(x, d, i) > 0]
            return mod.move(x, *rng.choice(choices)) if choices else None

        # an up move lowers the sum of i times row sum i by one and keeps
        # the column sums; a left move does the same with rows and columns
        # swapped, so this caps the moves of any order
        cap = (sum(i * s for i, s in enumerate(m.row_sums()))
               + sum(j * s for j, s in enumerate(m.col_sums())))
        for _ in range(5):
            assert until_none(step, m, cap)[0] == canonical


def test_submatrix_normalization():
    # exhausting up indices < k-1 and left indices < l-1 normalizes the
    # [k] x [l] block in place
    rng = random.Random(1)
    for trial in range(60):
        m = random_matrix(rng, False, 4, 4)
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        x = m
        progress = True
        while progress:
            progress = False
            for d, n in ((UP, k - 1), (LEFT, l - 1)):
                for i in range(n):
                    x, moved = climb(ci, x, d, i)
                    progress = progress or bool(moved)
        block = x.restrict((0, k), (0, l))
        sub = m.restrict((0, k), (0, l))
        assert block == exhaust(sub, (UP, LEFT))[0]
        assert is_normal(block) == normal_form(sub)


def test_compose_errors():
    with pytest.raises(ComposeError):
        compose(M_BIN, Q_BIN)  # P admits an upward move
    with pytest.raises(ComposeError):
        compose(P_BIN, M_BIN)  # Q admits a leftward move
    with pytest.raises(ComposeError):
        compose(P_BIN, Q_INT)  # mode mismatch
    bad_q = diagram((8, 8, 5, 3))  # margin incompatibility
    with pytest.raises(ComposeError):
        compose(P_BIN, bad_q)


@pytest.mark.parametrize("binary, h, w, top, pairs", [
    (True, 3, 4, 1, 4096),
    (False, 3, 3, 1, 2005),
    (False, 2, 3, 2, 1669),
])
def test_compose_inverts_on_mixed_pairs(binary, h, w, top, pairs):
    """decompose(compose(p, q)) = (p, q) for every P and Q of one implicit
    shape drawn from two matrices of a box, so most pairs come from no
    matrix of the box."""
    ps, qs = {}, {}
    for m in all_binary(h, w) if binary else all_integral(h, w, top):
        p, q = decompose(m)
        lam = normal_form(m)
        ps.setdefault(lam, set()).add(p)
        qs.setdefault(lam, set()).add(q)
    checked = 0
    for lam in ps:
        for p in ps[lam]:
            for q in qs[lam]:
                check_compose_inverts(p, q)
                checked += 1
    assert checked == pairs


def test_crystal_class_potentials():
    assert crystal_class_potentials(diagon(LAMBDA), "vertical") == (0, 3, 2, 2, 1)
    assert crystal_class_potentials(diagram((2, 1)), "vertical") == (1, 1)
    assert crystal_class_potentials(IntegralMatrix([[0]]), "vertical") == ()
    # differences reconstruct the implicit shape
    for m in (M_BIN, M_INT):
        lam = normal_form(m)
        dv = crystal_class_potentials(m, "vertical")
        assert tuple(sum(dv[i:]) for i in range(len(dv))) == lam
        dh = crystal_class_potentials(m, "horizontal")
        target = lam if not m.binary else tuple(
            sum(1 for p in lam if p > j) for j in range(lam[0])
        )
        assert tuple(sum(dh[j:]) for j in range(len(dh))) == target


def test_potential_dispatch():
    assert potential(M_BIN, UP, 0) == cb.potential(M_BIN, UP, 0)
    assert potential(M_INT, UP, 0) == ci.potential(M_INT, UP, 0)


def test_submatrix_normalization_paper_instance():
    # exhausting up indices < 2 and left indices < 5 on the running integral
    # matrix reduces its [3] x [6] block to the diagonal form of (8,4,2)
    m = M_INT
    progress = True
    while progress:
        progress = False
        for d, n in ((UP, 2), (LEFT, 5)):
            for i in range(n):
                m, moved = climb(ci, m, d, i)
                progress = progress or bool(moved)
    assert m.restrict((0, 3), (0, 6)) == diagon((8, 4, 2))
    assert m == IntegralMatrix([
        [8, 0, 0, 0, 0, 0, 0],
        [0, 4, 0, 0, 0, 0, 3],
        [0, 0, 2, 0, 0, 0, 0],
        [0, 1, 1, 1, 0, 0, 2],
        [0, 0, 0, 0, 1, 0, 2],
    ])
