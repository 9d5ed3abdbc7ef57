"""Pictures: order-compatible bijections between skew diagrams, their
Int/Bin matrix projections, and lifting matrices back to pictures.

A picture f satisfies s <=NW t  =>  f(s) <=NE f(t) and
f(s) <=NW f(t)  =>  s <=NE t, where (i,j) <=NW (k,l) means i<=k, j<=l and
(i,j) <=NE (k,l) means i<=k, j>=l.

`lift` reads the matrix's tableau chain for the domain and its LR chain
for the codomain; the `matrices` module docstring states both.  It checks
the matrix it is given, not the picture it builds (`verify.check_pictures`).

Pictures dom -> cod are in bijection with the LR tableaux of dom with
content cod (Zelevinsky 1981).  `_lr_fillings` is the one search for those
fillings: it yields each one as its picture, and `cancellation` counts
them for `lr_count`.  `enumerate_pictures` lists the pictures sorted by
mapping up to MAX_SQUARES squares.
"""

from operator import attrgetter

from .matrices import (
    LR,
    TABLEAU,
    BinaryMatrix,
    IntegralMatrix,
    Matrix,
    member_chain,
)
from .shapes import Frozen, SkewShape, part

INT = "Int"
BIN = "Bin"

MAX_SQUARES = 8  # the largest weight enumerate_pictures lists


class LiftError(ValueError):
    """The matrix fails the conditions needed to lift it to a picture."""


class SizeError(ValueError):
    """Enumeration requested beyond the supported size cap."""


class Picture(Frozen):
    _fields = ("domain", "codomain", "mapping")

    def __init__(self, domain: SkewShape, codomain: SkewShape,
                 mapping: tuple[tuple[tuple[int, int], tuple[int, int]], ...]):
        vars(self).update(domain=domain, codomain=codomain, mapping=tuple(sorted(mapping)))

    def inverse(self) -> "Picture":
        return Picture(
            self.codomain, self.domain, tuple((t, s) for s, t in self.mapping)
        )

    def to_text(self) -> str:
        return "\n".join(f"{s[0]},{s[1]} -> {t[0]},{t[1]}" for s, t in self.mapping)


def _le_nw(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def _le_ne(a, b):
    return a[0] <= b[0] and a[1] >= b[1]


def validate(mapping, dom: SkewShape, cod: SkewShape) -> bool:
    """Bijectivity plus the two order implications, over all square pairs."""
    mapping = dict(mapping)
    dom_cells = list(dom.cells())
    cod_cells = set(cod.cells())
    if sorted(mapping) != sorted(dom_cells):
        return False
    if sorted(mapping.values()) != sorted(cod_cells):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for s in dom_cells:
        for t in dom_cells:
            if _le_nw(s, t) and not _le_ne(mapping[s], mapping[t]):
                return False
            if _le_nw(mapping[s], mapping[t]) and not _le_ne(s, t):
                return False
    return True


def project(f: Picture, mode: str) -> Matrix:
    """Int counts squares of domain row i mapped to codomain row k;
    Bin marks columns j of the domain sending a square to codomain row k."""
    if mode == INT:
        h = len(f.domain.outer)
        w = len(f.codomain.outer)
        rows = [[0] * w for _ in range(max(h, 1))]
        for (i, _), (k, _) in f.mapping:
            rows[i][k] += 1
        return IntegralMatrix(rows if f.mapping else ())
    if mode == BIN:
        h = len(f.codomain.outer)
        w = part(f.domain.outer, 0)
        rows = [[0] * w for _ in range(max(h, 1))]
        for (_, j), (k, _) in f.mapping:
            rows[k][j] += 1
        return BinaryMatrix(rows if f.mapping else ())
    raise ValueError(f"unknown projection mode: {mode}")


def lift(m: Matrix, dom: SkewShape, cod: SkewShape, mode: str) -> Picture:
    """The unique picture with the given projection.

    Needs m in the tableau set of dom and the LR set of cod; the images are
    assigned greedily in Semitic (Int) or Kanji (Bin) reading order, each
    square having a single viable target.
    """
    if mode not in (INT, BIN):
        raise ValueError(f"unknown projection mode: {mode}")
    if m.binary != (mode == BIN):
        raise LiftError("matrix type does not match the projection mode")
    dom_chain = member_chain(m, dom, TABLEAU)
    if dom_chain is None:
        raise LiftError(f"matrix is not a tableau encoding of shape {dom}")
    cod_chain = member_chain(m, cod, LR)
    if cod_chain is None:
        raise LiftError(f"matrix fails the LR condition for {cod}")
    mapping = []
    if mode == INT:
        # rows of dom below the matrix's last row hold no squares of it
        for i in range(m.height):
            for c in range(m.width):
                lo, hi = part(dom_chain[c], i), part(dom_chain[c + 1], i)
                # domain squares of row i with entry c, right to left, map to
                # codomain row c squares with entry i, left to right
                base = part(cod_chain[i], c)
                for offset in range(hi - lo):
                    mapping.append(((i, hi - 1 - offset), (c, base + offset)))
    else:
        # dom_chain is conjugated; cod_suffix[j] = cod.inner + columns >= j
        cod_suffix = cod_chain[::-1]
        for c in range(m.height):
            for j in range(m.width):
                if m[c, j]:
                    # the square of domain column j with entry c sits at row
                    # (height of column j among entries < c)
                    i = part(dom_chain[c], j)
                    mapping.append(((i, j), (c, part(cod_suffix[j + 1], c))))
    return Picture(dom, cod, tuple(mapping))


def _lr_fillings(lam, kap, nu, mu):
    """The LR tableaux of lam/kap with content nu - mu, for partitions of
    equal skew weights, as pictures: each filling is yielded as its
    mapping, the ((cell of lam/kap, image in nu/mu), ...) pairs.

    A depth-first search fills the cells of lam/kap row by row from the
    top, each row right to left (the reverse reading order).  Entry v lies
    between the entry above plus one and the entry to its right, v is used
    at most nu_v - mu_v times, and mu + (content so far) stays a partition:
    the LR condition, checked on every prefix, so a dead branch is cut
    where it starts.  This is the order `lift` assigns images in, so the
    cell that takes v maps to the next square (v, level[v]) of row v of
    nu/mu, read before level[v] goes up.
    """
    top = len(nu) - 1
    room = [part(nu, v) - part(mu, v) for v in range(len(nu))]  # uses of v left
    level = [part(mu, v) for v in range(len(nu))]  # mu + content so far
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r] - 1, part(kap, r) - 1, -1)]
    at = {cell: i for i, cell in enumerate(cells)}
    above = [at.get((r - 1, c), -1) for r, c in cells]
    right = [at.get((r, c + 1), -1) for r, c in cells]
    n = len(cells)
    if n == 0:
        yield ()
        return
    vals = [0] * n
    image = [None] * n
    i, v = 0, 0
    while True:
        hi = top if right[i] < 0 else vals[right[i]]
        while v <= hi and not (room[v] and (v == 0 or level[v] < level[v - 1])):
            v += 1
        if v > hi:
            # no entry fits cell i: take back the entry of the cell before
            i -= 1
            if i < 0:
                return
            v = vals[i]
            room[v] += 1
            level[v] -= 1
            v += 1
        elif i + 1 == n:
            # the last cell takes v: one more filling
            image[i] = (v, level[v])
            yield tuple(zip(cells, image))
            v += 1
        else:
            # place v and go on to the next cell
            vals[i] = v
            image[i] = (v, level[v])
            room[v] -= 1
            level[v] += 1
            i += 1
            v = 0 if above[i] < 0 else vals[above[i]] + 1


def enumerate_pictures(dom: SkewShape, cod: SkewShape):
    """All pictures dom -> cod, one per LR filling (`_lr_fillings`), in
    increasing order of their mappings; none for unequal weights.

    Raises SizeError above MAX_SQUARES squares: the output alone can be
    w! pictures at weight w (w disconnected squares on both sides).
    """
    if dom.weight != cod.weight:
        return []
    if dom.weight > MAX_SQUARES:
        raise SizeError(f"picture enumeration capped at {MAX_SQUARES} squares")
    fillings = _lr_fillings(dom.outer, dom.inner, cod.outer, cod.inner)
    return sorted((Picture(dom, cod, mapping) for mapping in fillings),
                  key=attrgetter("mapping"))
