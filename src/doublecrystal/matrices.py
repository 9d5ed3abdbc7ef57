"""Binary and integral matrices, margins, tableau encodings, and the
tableau / Littlewood-Richardson membership predicates.

Matrices are finitely supported maps N x N -> N stored densely as a
rectangle of rows; reads outside the stored rectangle give 0, and equality
ignores zero padding.  Binary and integral matrices are separate types and
are never converted implicitly.

The tableau sets BE/IE and the Littlewood-Richardson sets BL/IL for a skew
shape outer/inner read the matrix as a chain of shapes: from a start
partition, add the matrix's lines one at a time; every running sum must be
a strip of the step relation over the one before.  `chain_walk` is the one
walk of these chains; `condition`, `decode`, the cancellation witness and
`pictures.lift` all read them through it.

    mode      condition  lines added             start             step relation
    binary    tableau    rows, top to bottom     conjugate(inner)  vertical strip
    binary    LR         columns, right to left  inner             vertical strip
    integral  tableau    columns, left to right  inner             horizontal strip
    integral  LR         rows, top to bottom     inner             horizontal strip

A 0/1 line added to a partition makes a vertical strip exactly when the
sum is a partition.  Membership also needs the margins to match the shape:
the complete chain must end at outer (at conjugate(outer) for the binary
tableau chain).
"""

import json

from .shapes import (
    HORIZONTAL,
    Composition,
    Partition,
    SkewShape,
    Tableau,
    SST,
    add,
    conjugate,
    is_partition,
    part,
    strip_le,
    sub,
    trim,
)

TABLEAU = "tableau"
LR = "lr"

BINARY = "binary"
INTEGRAL = "integral"

# Growth-diagram orientations and alternating-sum stages, defined here so
# that the command-line parser can offer them without importing `growth`
# or `cancellation`, which re-export them.
NW = "NW"
NE = "NE"
SW = "SW"
SE = "SE"
ORIENTATIONS = (NW, NE, SW, SE)

BRUTE = "brute"
TAB_FIRST = "tab_first"
LR_FIRST = "lr_first"
FULLY_REDUCED = "fully_reduced"
STAGES = (BRUTE, TAB_FIRST, LR_FIRST, FULLY_REDUCED)


class DecodeError(ValueError):
    """A matrix fails the tableau condition needed to decode it."""


class InputError(ValueError):
    """Malformed input text: a JSON key missing or of the wrong type, or a
    line that does not follow its format."""


class Matrix:
    """Shared implementation; use BinaryMatrix or IntegralMatrix."""

    __slots__ = ("rows",)
    binary = False

    def __init__(self, rows=()):
        # at exact sizes, as `_from_lists` builds them
        rows = tuple([tuple([*map(int, r)]) for r in rows])
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        for r in rows:
            for x in r:
                if x < 0 or (self.binary and x > 1):
                    raise ValueError(f"bad entry {x} for {type(self).__name__}")
        self.rows = rows

    @classmethod
    def _wrap(cls, rows):
        """Internal constructor for a row tuple already known to be
        canonical; `_from_lists` builds one from row lists."""
        m = cls.__new__(cls)
        m.rows = rows
        return m

    @classmethod
    def _from_lists(cls, rows):
        """`_wrap` of canonical row lists, as the exhaustion sweep and
        `compose` edit them.

        Builds the row tuple at its exact size: tuple() over a map guesses
        10 slots and resizes, and the resized tuples, once freed, fill
        CPython's tuple free lists, which only a full collection empties."""
        return cls._wrap(tuple([*map(tuple, rows)]))

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, idx) -> int:
        i, j = idx
        if 0 <= i < self.height and 0 <= j < self.width:
            return self.rows[i][j]
        return 0

    def row(self, i: int) -> Composition:
        return trim(self.rows[i]) if 0 <= i < self.height else ()

    def col(self, j: int) -> Composition:
        if 0 <= j < self.width:
            return trim(r[j] for r in self.rows)
        return ()

    def row_sums(self) -> Composition:
        return trim(sum(r) for r in self.rows)

    def col_sums(self) -> Composition:
        return trim(sum(r[j] for r in self.rows) for j in range(self.width))

    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def trimmed(self):
        """Smallest rectangle containing the support."""
        rows = self.rows
        h = len(rows)
        while h > 0 and not any(rows[h - 1]):
            h -= 1
        w = 0
        for r in rows[:h]:
            for j in range(len(r) - 1, w - 1, -1):
                if r[j]:
                    w = j + 1
                    break
        return type(self)._wrap(tuple([r[:w] for r in rows[:h]]))

    def pad_to(self, h: int, w: int):
        h = max(h, self.height)
        w = max(w, self.width)
        if (h, w) == (self.height, self.width):
            return self
        return type(self)._wrap(
            tuple(self.rows[i] + (0,) * (w - self.width) for i in range(self.height))
            + ((0,) * w,) * (h - self.height)
        )

    def with_entry(self, i: int, j: int, v: int):
        m = self.pad_to(i + 1, j + 1)
        rows = [list(r) for r in m.rows]
        rows[i][j] = v
        return type(self)(rows)

    def transpose(self):
        return type(self)._wrap(tuple(zip(*self.rows)) if self.rows else ())

    def rotate_ccw(self):
        """Quarter turn counterclockwise of the stored rectangle."""
        if not self.rows:
            return type(self)()
        w = self.width
        return type(self)(
            tuple(tuple(r[w - 1 - i] for r in self.rows) for i in range(w))
        )

    def rotate_cw(self):
        if not self.rows:
            return type(self)()
        h = self.height
        return type(self)(
            tuple(tuple(self.rows[h - 1 - j][i] for j in range(h)) for i in range(self.width))
        )

    def rotate_half(self):
        return type(self)(tuple(tuple(reversed(r)) for r in reversed(self.rows)))

    def restrict(self, rows=(0, None), cols=(0, None)):
        """Zero all entries outside rows x cols; intervals are (lo, hi) with
        hi=None meaning unbounded.  Keeps the stored rectangle."""
        rlo, rhi = rows
        clo, chi = cols
        rhi = self.height if rhi is None else rhi
        chi = self.width if chi is None else chi
        return type(self)._wrap(
            tuple(
                tuple(
                    x if rlo <= i < rhi and clo <= j < chi else 0
                    for j, x in enumerate(r)
                )
                for i, r in enumerate(self.rows)
            )
        )

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return self.trimmed().rows == other.trimmed().rows

    def __hash__(self):
        return hash((type(self).__name__, self.trimmed().rows))

    def __repr__(self):
        return f"{type(self).__name__}({list(map(list, self.rows))})"

    def to_text(self) -> str:
        if not self.rows:
            return ""
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows)

    def to_json(self) -> str:
        mode = BINARY if self.binary else INTEGRAL
        return json.dumps({"mode": mode, "rows": [list(r) for r in self.rows]})


class BinaryMatrix(Matrix):
    __slots__ = ()
    binary = True


class IntegralMatrix(Matrix):
    __slots__ = ()
    binary = False


def matrix_type(mode: str):
    if mode == BINARY:
        return BinaryMatrix
    if mode == INTEGRAL:
        return IntegralMatrix
    raise ValueError(f"unknown mode: {mode}")


def mode_of(m: Matrix) -> str:
    return BINARY if m.binary else INTEGRAL


def parse_matrix(text: str, mode: str) -> Matrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([int(tok) for tok in line.split()])
    return matrix_type(mode)(rows)


def is_int_lists(value) -> bool:
    """Whether a parsed JSON value is a list of lists of integers."""
    return isinstance(value, list) and all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in value
    )


def read_json_object(text: str, fields: dict) -> dict:
    """Parse a JSON object holding each key of fields, where fields maps a
    key to (test, wanted); raises InputError naming the first key that is
    missing or whose value fails its test."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise InputError("JSON input is nested too deeply") from None
    if not isinstance(data, dict):
        raise InputError(f"expected a JSON object, got {type(data).__name__}")
    for key, (test, wanted) in fields.items():
        if key not in data:
            raise InputError(f"JSON input lacks key {key!r}")
        if not test(data[key]):
            raise InputError(f"JSON key {key!r} must be {wanted}, got {data[key]!r:.80}")
    return data


def matrix_from_json(text: str) -> Matrix:
    data = read_json_object(text, {
        "mode": (lambda v: v in (BINARY, INTEGRAL), f"{BINARY!r} or {INTEGRAL!r}"),
        "rows": (is_int_lists, "a list of lists of integers"),
    })
    return matrix_type(data["mode"])(data["rows"])


def margins(m: Matrix) -> tuple[Composition, Composition]:
    """(row sums, column sums) of the matrix."""
    return m.row_sums(), m.col_sums()


def diagram(lam) -> BinaryMatrix:
    """Binary matrix whose bits '1' fill the Young diagram of lam."""
    lam = trim(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    w = lam[0] if lam else 0
    return BinaryMatrix(tuple(tuple(1 if j < p else 0 for j in range(w)) for p in lam))


def diagon(lam) -> IntegralMatrix:
    """Diagonal integral matrix with the parts of lam as entries."""
    lam = trim(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    n = len(lam)
    return IntegralMatrix(
        tuple(tuple(lam[i] if i == j else 0 for j in range(n)) for i in range(n))
    )


def encode(t: Tableau, mode: str) -> Matrix:
    """Binary or integral encoding of a semistandard tableau.

    Binary: row i is conjugate(chain[i+1]) - conjugate(chain[i]).
    Integral: column j is chain[j+1] - chain[j].
    """
    if t.flavor != SST:
        raise ValueError("encode is defined for semistandard tableaux")
    chain = t.chain
    n = len(chain) - 1
    if mode == BINARY:
        conj = [conjugate(c) for c in chain]
        w = len(conj[-1])
        rows = []
        for i in range(n):
            d = sub(conj[i + 1], conj[i])
            rows.append(tuple(part(d, j) for j in range(w)))
        return BinaryMatrix(rows)
    if mode == INTEGRAL:
        h = len(chain[-1])
        cols = []
        for j in range(n):
            d = sub(chain[j + 1], chain[j])
            cols.append(tuple(part(d, i) for i in range(h)))
        return IntegralMatrix(tuple(zip(*cols)) if cols and h else ())
    raise ValueError(f"unknown mode: {mode}")


def decode(m: Matrix, shape: SkewShape, mode: str) -> Tableau:
    """Reconstruct the semistandard tableau of the given shape encoded by m."""
    if mode_of(m) != mode:
        raise ValueError("matrix type does not match mode")
    if mode == BINARY:
        if m.col_sums() != sub_or_none(conjugate(shape.outer), conjugate(shape.inner)):
            raise DecodeError("column sums do not match the conjugate shape difference")
    elif m.row_sums() != sub_or_none(shape.outer, shape.inner):
        raise DecodeError("row sums do not match the shape difference")
    chain, k = chain_walk(m, shape.inner, TABLEAU)
    if k is not None:
        if mode == BINARY:
            raise DecodeError(f"cumulative conjugate shape not a partition at row {k + 1}")
        raise DecodeError(f"chain step at column {k + 1} is not a horizontal strip")
    if mode == BINARY:
        chain = [conjugate(c) for c in chain]
    return Tableau(SST, tuple(chain))


def sub_or_none(alpha, beta):
    try:
        return sub(alpha, beta)
    except ValueError:
        return None


def chain_walk(m: Matrix, inner: Partition, which: str) -> tuple[list[Partition], int | None]:
    """Walk the chain that condition `which` reads from m, from inner (see
    the module docstring for its start, lines and step relation).

    Returns (chain, k): k is the index of the first line whose sum breaks
    the step relation, and chain runs from the start to that sum; or k is
    None and chain ends at the start plus every line.
    """
    if which == TABLEAU:
        start, lines = (conjugate(inner), m.rows) if m.binary else (inner, zip(*m.rows))
    elif which == LR:
        start, lines = (inner, list(zip(*m.rows))[::-1]) if m.binary else (inner, m.rows)
    else:
        raise ValueError(f"unknown condition kind: {which}")
    chain = [trim(start)]
    for k, line in enumerate(lines):
        chain.append(add(chain[-1], line))
        if not (is_partition(chain[-1]) if m.binary
                else strip_le(chain[-2], chain[-1], HORIZONTAL)):
            return chain, k
    return chain, None


def member_chain(m: Matrix, shape: SkewShape, which: str) -> list[Partition] | None:
    """The chain of `which` read from m when m is in the set of that
    condition for shape, else None.  Beyond every step holding, the margins
    must match, which is the chain ending at outer (conjugated for the
    binary tableau condition)."""
    chain, k = chain_walk(m, shape.inner, which)
    end = conjugate(shape.outer) if m.binary and which == TABLEAU else shape.outer
    return chain if k is None and chain[-1] == end else None


def condition(m: Matrix, shape: SkewShape, which: str, mode: str) -> bool:
    """The four membership predicates BE/IE (tableau) and BL/IL (LR)."""
    if mode_of(m) != mode:
        raise ValueError("matrix type does not match mode")
    return member_chain(m, shape, which) is not None
