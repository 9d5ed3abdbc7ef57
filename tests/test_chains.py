"""The one chain walk behind `condition`, `decode`, `lr_witness` and `lift`,
against literal copies of the separate loops it replaced.

Outcomes (the value, or the exception type and message) must agree on
every binary matrix up to 3x3 and 2x4 and every integral matrix up to 2x3
with entries 0..2, against every skew shape with |outer| <= 5, of equal
and unequal weight; `lift` is compared wherever both conditions hold.
"""

from itertools import product

import pytest

from doublecrystal.cancellation import lr_witness
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
    mode_of,
    sub_or_none,
)
from doublecrystal.pictures import (
    BIN,
    INT,
    LiftError,
    Picture,
    lift,
    project,
    validate,
)
from doublecrystal.shapes import (
    HORIZONTAL,
    SST,
    SkewShape,
    Tableau,
    add,
    conjugate,
    is_partition,
    part,
    partitions_up_to,
    strip_le,
    subpartitions,
    trim,
)

from conftest import outcome


# --- oracles: the loops the walk replaced, copied as they were ---

def oracle_condition(m, shape, which, mode):
    """The four membership predicates BE/IE (tableau) and BL/IL (LR)."""
    if mode_of(m) != mode:
        raise ValueError("matrix type does not match mode")
    outer, inner = shape.outer, shape.inner
    if which == TABLEAU:
        if mode == BINARY:
            if m.col_sums() != sub_or_none(conjugate(outer), conjugate(inner)):
                return False
            acc = list(conjugate(inner))
            for r in m.rows:
                for j, x in enumerate(r):
                    if x:
                        while len(acc) <= j:
                            acc.append(0)
                        acc[j] += x
                if not is_partition(acc):
                    return False
            return True
        if m.row_sums() != sub_or_none(outer, inner):
            return False
        acc = inner
        for l in range(m.width):
            nxt = add(acc, m.col(l))
            if not strip_le(acc, nxt, HORIZONTAL):
                return False
            acc = nxt
        return True
    if which == LR:
        if mode == BINARY:
            if m.row_sums() != sub_or_none(outer, inner):
                return False
            acc = list(inner)
            for l in range(m.width - 1, -1, -1):
                for i in range(m.height):
                    if m.rows[i][l]:
                        while len(acc) <= i:
                            acc.append(0)
                        acc[i] += m.rows[i][l]
                if not is_partition(acc):
                    return False
            return True
        if m.col_sums() != sub_or_none(outer, inner):
            return False
        acc = inner
        for k in range(m.height):
            nxt = add(acc, m.row(k))
            if not strip_le(acc, nxt, HORIZONTAL):
                return False
            acc = nxt
        return True
    raise ValueError(f"unknown condition kind: {which}")


def _binary_chain(m, inner):
    """Conjugated cumulative-row chain; raises DecodeError at first bad step."""
    acc = list(conjugate(inner))
    chain = [trim(acc)]
    for k in range(m.height):
        for j, x in enumerate(m.rows[k]):
            if x:
                while len(acc) <= j:
                    acc.append(0)
                acc[j] += 1
        if not is_partition(acc):
            raise DecodeError(f"cumulative conjugate shape not a partition at row {k + 1}")
        chain.append(trim(acc))
    return [conjugate(c) for c in chain]


def _integral_chain(m, inner):
    """Cumulative-column chain; raises DecodeError at first bad step."""
    acc = trim(inner)
    chain = [acc]
    for l in range(m.width):
        nxt = add(acc, m.col(l))
        if not strip_le(acc, nxt, HORIZONTAL):
            raise DecodeError(f"chain step at column {l + 1} is not a horizontal strip")
        chain.append(nxt)
        acc = nxt
    return chain


def oracle_decode(m, shape, mode):
    """Reconstruct the semistandard tableau of the given shape encoded by m."""
    if mode_of(m) != mode:
        raise ValueError("matrix type does not match mode")
    if mode == BINARY:
        if m.col_sums() != sub_or_none(conjugate(shape.outer), conjugate(shape.inner)):
            raise DecodeError("column sums do not match the conjugate shape difference")
        chain = _binary_chain(m, shape.inner)
    else:
        if m.row_sums() != sub_or_none(shape.outer, shape.inner):
            raise DecodeError("row sums do not match the shape difference")
        chain = _integral_chain(m, shape.inner)
    if chain[-1] != shape.outer:
        raise DecodeError("chain does not end at the outer shape")
    return Tableau(SST, tuple(chain))


def _lr_witness_binary(m, mu):
    """(l, i): maximal l whose suffix-column composition fails to be a
    partition, and the minimal i with beta_{i+1} = beta_i + 1 there."""
    acc = list(mu)
    for l in range(m.width - 1, -1, -1):
        for i in range(m.height):
            if m.rows[i][l]:
                while len(acc) <= i:
                    acc.append(0)
                acc[i] += m.rows[i][l]
        if not is_partition(acc):
            for i in range(len(acc) + 1):
                if part(acc, i + 1) == part(acc, i) + 1:
                    return l, i
            raise AssertionError("failure without a unit step")
    return None


def _lr_witness_integral(m, mu):
    """(k, j): first row k breaking the horizontal-strip chain, and the
    maximal witness column j there."""
    prev = trim(mu)
    for k in range(m.height):
        nxt = add(prev, m.row(k))
        bad = [
            j
            for j in range(max(len(prev), len(nxt)) + 1)
            if part(prev, j) < part(nxt, j + 1)
        ]
        if bad:
            return k, max(bad)
        prev = nxt
    return None


def oracle_lr_witness(m, shape):
    if m.binary:
        return _lr_witness_binary(m, shape.inner)
    return _lr_witness_integral(m, shape.inner)


def _int_chains(m, dom, cod):
    dom_chain = [dom.inner]
    for c in range(m.width):
        dom_chain.append(add(dom_chain[-1], m.col(c)))
    cod_chain = [cod.inner]
    for r in range(m.height):
        cod_chain.append(add(cod_chain[-1], m.row(r)))
    return dom_chain, cod_chain


def oracle_lift(m, dom, cod, mode):
    """The unique picture with the given projection."""
    mmode = INTEGRAL if mode == INT else BINARY
    if mode_of(m) != mmode:
        raise LiftError("matrix type does not match the projection mode")
    if not oracle_condition(m, dom, TABLEAU, mmode):
        raise LiftError(f"matrix is not a tableau encoding of shape {dom}")
    if not oracle_condition(m, cod, LR, mmode):
        raise LiftError(f"matrix fails the LR condition for {cod}")
    mapping = []
    if mode == INT:
        dom_chain, cod_chain = _int_chains(m, dom, cod)
        for i in range(len(dom.outer)):
            for c in range(m.width):
                lo, hi = part(dom_chain[c], i), part(dom_chain[c + 1], i)
                base = part(cod_chain[i], c)
                for offset in range(hi - lo):
                    mapping.append(((i, hi - 1 - offset), (c, base + offset)))
    else:
        dom_conj = [conjugate(dom.inner)]
        for r in range(m.height):
            dom_conj.append(add(dom_conj[-1], m.row(r)))
        cod_suffix = [cod.inner]
        for j in range(m.width - 1, -1, -1):
            cod_suffix.append(add(cod_suffix[-1], m.col(j)))
        cod_suffix.reverse()
        for c in range(m.height):
            for j in range(m.width):
                if m[c, j]:
                    i = part(dom_conj[c], j)
                    mapping.append(((i, j), (c, part(cod_suffix[j + 1], c))))
    pic = Picture(dom, cod, tuple(mapping))
    if not validate(pic.mapping, dom, cod):
        raise AssertionError("greedy lift produced an invalid picture")
    if project(pic, mode) != m:
        raise AssertionError("lift does not project back to the matrix")
    return pic


# --- the cases ---

SHAPES = [SkewShape(outer, inner)
          for outer in partitions_up_to(5) for inner in subpartitions(outer)]

# (matrix type, (rows, cols) sizes, largest entry)
KINDS = {
    BINARY: (BinaryMatrix, [(h, w) for h in range(4) for w in range(4)] + [(1, 4), (2, 4)], 1),
    INTEGRAL: (IntegralMatrix, [(h, w) for h in range(3) for w in range(4)], 2),
}

NOT_AT_OUTER = (DecodeError, "chain does not end at the outer shape")


def _matrices(mode):
    cls, sizes, top = KINDS[mode]
    for h, w in sizes:
        for entries in product(range(top + 1), repeat=h * w):
            yield cls([entries[i * w:(i + 1) * w] for i in range(h)])


@pytest.mark.parametrize("mode", [BINARY, INTEGRAL])
def test_condition_decode_and_witness_match_the_separate_loops(mode):
    seen = set()  # distinct outcomes, to show every branch was reached
    for m in _matrices(mode):
        for sh in SHAPES:
            for which in (TABLEAU, LR):
                want = outcome(oracle_condition, m, sh, which, mode)
                assert outcome(condition, m, sh, which, mode) == want, (m, sh, which)
                seen.add((which, want))
            want = outcome(oracle_decode, m, sh, mode)
            assert outcome(decode, m, sh, mode) == want, (m, sh)
            seen.add(want if isinstance(want, tuple) else Tableau)
            want = outcome(oracle_lr_witness, m, sh)
            assert outcome(lr_witness, m, sh) == want, (m, sh)
            seen.add("witness" if want else want)
    # once the margins match, the chain is forced to end at outer
    assert NOT_AT_OUTER not in seen
    margin = ("column sums do not match the conjugate shape difference" if mode == BINARY
              else "row sums do not match the shape difference")
    step = ("cumulative conjugate shape not a partition at row"
            if mode == BINARY else "is not a horizontal strip")
    assert {(TABLEAU, True), (TABLEAU, False), (LR, True), (LR, False),
            (DecodeError, margin), Tableau, "witness", None} <= seen
    assert any(o[0] is DecodeError and step in o[1] for o in seen if isinstance(o, tuple))


@pytest.mark.parametrize("mode", [INT, BIN])
def test_lift_matches_the_separate_loops(mode):
    mmode = INTEGRAL if mode == INT else BINARY
    lifted = 0
    for m in _matrices(mmode):
        doms = [sh for sh in SHAPES if oracle_condition(m, sh, TABLEAU, mmode)]
        cods = [sh for sh in SHAPES if oracle_condition(m, sh, LR, mmode)]
        for dom in doms:
            for cod in cods:
                want = outcome(oracle_lift, m, dom, cod, mode)
                got = outcome(lift, m, dom, cod, mode)
                if isinstance(want, tuple) and want[0] is IndexError:
                    # the oracle keeps the old loop over every row of dom,
                    # which read past the codomain chain, so lift's picture
                    # is checked directly
                    assert isinstance(got, Picture), (m, dom, cod)
                    assert validate(got.mapping, dom, cod), (m, dom, cod)
                    assert project(got, mode) == m, (m, dom, cod)
                else:
                    assert got == want, (m, dom, cod)
                lifted += isinstance(want, Picture)
    assert lifted
