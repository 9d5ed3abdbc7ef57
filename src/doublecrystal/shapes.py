"""Partitions, compositions, skew shapes, strip relations, and tableaux.

Compositions and partitions are plain tuples of nonnegative ints, indexed
from 0 and implicitly extended by zeros.  All functions return trimmed
tuples (no trailing zeros), and accept untrimmed input.
"""

from functools import cached_property
from itertools import starmap, zip_longest
import json
import operator

Composition = tuple[int, ...]
Partition = tuple[int, ...]

SST = "sst"
TRANSPOSE = "transpose"
REVERSE = "reverse"
REVERSE_TRANSPOSE = "reverse_transpose"
FLAVORS = (SST, TRANSPOSE, REVERSE, REVERSE_TRANSPOSE)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def trim(parts) -> Composition:
    """Canonical form: drop trailing zeros."""
    # at its exact size: tuple(map(...)) guesses 10 slots and resizes, and
    # the resized tuples fill CPython's tuple free lists when freed
    parts = tuple([*map(int, parts)])
    n = len(parts)
    while n > 0 and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def part(alpha, i: int) -> int:
    """Component i of a composition, with implicit zero extension."""
    return alpha[i] if 0 <= i < len(alpha) else 0


def padded(alpha, n: int) -> Composition:
    """(part(alpha, 0), ..., part(alpha, n - 1)) as a tuple."""
    return tuple(alpha[:n]) + (0,) * (n - len(alpha))


def _is_trimmed_partition(alpha) -> bool:
    # a weakly decreasing tuple is nonnegative iff its last part is
    return all(map(operator.ge, alpha, alpha[1:])) and (not alpha or alpha[-1] >= 0)


def is_partition(alpha) -> bool:
    return _is_trimmed_partition(trim(alpha))


def size(alpha) -> int:
    return sum(alpha)


def add(alpha, beta) -> Composition:
    return trim(a + b for a, b in zip_longest(alpha, beta, fillvalue=0))


def sub(alpha, beta) -> Composition:
    """Componentwise difference; raises if any component would be negative."""
    out = []
    for a, b in zip_longest(alpha, beta, fillvalue=0):
        if a < b:
            raise ValueError(f"negative component in {tuple(alpha)} - {tuple(beta)}")
        out.append(a - b)
    return trim(out)


def contains(inner, outer) -> bool:
    """Diagram containment: inner[i] <= outer[i] for all i."""
    return all(starmap(operator.le, zip_longest(inner, outer, fillvalue=0)))


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram: result[j] = #{i : lam[i] > j}."""
    lam = trim(lam)
    if not _is_trimmed_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    out = []
    i = len(lam)
    for j in range(lam[0] if lam else 0):
        # i falls from l(lam) to 1: the number of rows longer than j
        while lam[i - 1] <= j:
            i -= 1
        out.append(i)
    return tuple(out)


def _h_le(a, b) -> bool:
    """a <=h b for compositions zero-padded to one length, longer than either."""
    return all(map(operator.le, a, b)) and all(map(operator.le, b[1:], a))


def _v_le(a, b) -> bool:
    """a <=v b for compositions zero-padded to one length, longer than either."""
    if not (all(map(operator.ge, a, a[1:])) and all(map(operator.ge, b, b[1:]))):
        return False
    d = tuple(map(operator.sub, b, a))
    return 0 <= min(d) and max(d) <= 1


def strip_le(alpha, beta, kind: str) -> bool:
    """Horizontal (<=h) or vertical (<=v) strip relation between compositions.

    alpha <=h beta holds when beta[i+1] <= alpha[i] <= beta[i] for all i;
    the vertical version is the same test on conjugates, equivalently
    beta - alpha is a 0/1 composition with containment.
    """
    if kind not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown strip kind: {kind}")
    n = max(len(alpha), len(beta)) + 1
    return (_h_le if kind == HORIZONTAL else _v_le)(padded(alpha, n), padded(beta, n))


def revert(lam, k: int) -> Composition:
    """Reverse the k initial parts: (lam[k-1], ..., lam[0]).  Needs lam[k] = 0."""
    lam = trim(lam)
    if part(lam, k) != 0 or len(lam) > k:
        raise ValueError(f"revert needs lam[{k}] = 0, got {lam}")
    return trim(part(lam, k - 1 - i) for i in range(k))


def partitions_of(n: int):
    """All partitions of n, largest part first."""
    if n == 0:
        yield ()
        return
    for head in range(n, 0, -1):
        for tail in partitions_of(n - head):
            if not tail or head >= tail[0]:
                yield (head,) + tail


def partitions_up_to(n: int):
    """All partitions of size 0..n."""
    for m in range(n + 1):
        yield from partitions_of(m)


def subpartitions(lam):
    """All partitions contained in the diagram of lam."""
    lam = trim(lam)
    if not lam:
        yield ()
        return

    def rec(i, cap):
        if i == len(lam):
            yield ()
            return
        for first in range(min(lam[i], cap), -1, -1):
            if first == 0:
                yield ()
                continue
            for rest in rec(i + 1, first):
                yield (first,) + rest

    yield from rec(0, lam[0])


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated text form; "0" is the empty partition."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    parts = tuple(int(tok) for tok in text.split(","))
    if not is_partition(parts):
        raise ValueError(f"not a partition: {text!r}")
    return trim(parts)


def format_partition(lam) -> str:
    lam = trim(lam)
    return ",".join(str(p) for p in lam) if lam else "0"


class Frozen:
    """Base of value classes whose fields are set once, in `__init__`.

    Subclasses name their fields in `_fields`; `repr`, `==` and `hash` read
    them in that order.  Instances of different classes never compare equal
    (`__eq__` returns NotImplemented).
    """

    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SkewShape(Frozen):
    """A pair of partitions outer/inner with inner contained in outer."""

    _fields = ("outer", "inner")

    def __init__(self, outer: Partition, inner: Partition = ()):
        outer, inner = trim(outer), trim(inner)
        if not (is_partition(outer) and is_partition(inner)):
            raise ValueError(f"not partitions: {outer}/{inner}")
        if not contains(inner, outer):
            raise ValueError(f"inner not contained in outer: {outer}/{inner}")
        vars(self).update(outer=outer, inner=inner)

    def __str__(self):
        return f"{format_partition(self.outer)}/{format_partition(self.inner)}"

    @classmethod
    def parse(cls, text: str) -> "SkewShape":
        outer, _, inner = text.partition("/")
        return cls(parse_partition(outer), parse_partition(inner) if inner else ())

    @cached_property
    def weight(self) -> int:
        """The number of cells, summed on first read and kept in the
        instance dict; assigning or deleting it still raises."""
        return size(self.outer) - size(self.inner)

    def cells(self):
        """Squares of the skew diagram in row-major order."""
        for i, o in enumerate(self.outer):
            for j in range(part(self.inner, i), o):
                yield (i, j)

    def conjugate(self) -> "SkewShape":
        return SkewShape(conjugate(self.outer), conjugate(self.inner))


def _step_ok(flavor: str, a, b) -> bool:
    if flavor == SST:
        return strip_le(a, b, HORIZONTAL)
    if flavor == TRANSPOSE:
        return strip_le(a, b, VERTICAL)
    if flavor == REVERSE:
        return strip_le(b, a, HORIZONTAL)
    if flavor == REVERSE_TRANSPOSE:
        return strip_le(b, a, VERTICAL)
    raise ValueError(f"unknown flavor: {flavor}")


def _stable(chain: list) -> tuple:
    """The chain without its stable tail: repeats of its last member."""
    while len(chain) >= 2 and chain[-1] == chain[-2]:
        chain.pop()
    return tuple(chain)


class Tableau(Frozen):
    """A tableau as a stabilized chain of partitions with one of four flavors.

    chain[i] is the shape occupied by entries < i (forward flavors) or
    >= i (reverse flavors); the last member is the stable value.
    """

    _fields = ("flavor", "chain")

    def __init__(self, flavor: str, chain: tuple[Partition, ...]):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor: {flavor}")
        chain = _stable([trim(c) for c in chain] or [()])
        for c in chain:
            if not is_partition(c):
                raise ValueError(f"chain member not a partition: {c}")
        for a, b in zip(chain, chain[1:]):
            if not _step_ok(flavor, a, b):
                raise ValueError(
                    f"chain step {a} -> {b} violates {flavor} strip relation"
                )
        vars(self).update(flavor=flavor, chain=chain)

    @classmethod
    def _wrap(cls, flavor: str, chain: list):
        """Internal constructor for a nonempty list of trimmed partitions
        already known to form a chain of the flavor, as `Matrix._wrap` is
        for rows; it only drops the stable tail.  Callers' chains go
        through `Tableau(...)`, which checks every step."""
        t = cls.__new__(cls)
        vars(t).update(flavor=flavor, chain=_stable(chain))
        return t

    @property
    def reverse(self) -> bool:
        return self.flavor in (REVERSE, REVERSE_TRANSPOSE)

    @property
    def outer(self) -> Partition:
        return self.chain[0] if self.reverse else self.chain[-1]

    @property
    def inner(self) -> Partition:
        return self.chain[-1] if self.reverse else self.chain[0]

    @property
    def shape(self) -> SkewShape:
        return SkewShape(self.outer, self.inner)

    def is_straight(self) -> bool:
        return self.inner == ()

    def weight(self) -> Composition:
        if self.reverse:
            diffs = [size(a) - size(b) for a, b in zip(self.chain, self.chain[1:])]
        else:
            diffs = [size(b) - size(a) for a, b in zip(self.chain, self.chain[1:])]
        return tuple(diffs)

    def padded_chain(self, length: int) -> tuple[Partition, ...]:
        """The chain extended with its stable value up to the given length."""
        if length < len(self.chain):
            raise ValueError("cannot shorten a chain")
        return self.chain + (self.chain[-1],) * (length - len(self.chain))

    def entry_rows(self):
        """Row fillings of the display: list of rows, each a list of entries.

        Forward flavors only (entries increase along the chain); used for
        rendering and by the insertion code.
        """
        if self.reverse:
            raise ValueError("display rows are defined for forward flavors")
        rows = [[] for _ in range(len(self.outer))]
        for e, (a, b) in enumerate(zip(self.chain, self.chain[1:])):
            for i in range(len(self.outer)):
                rows[i].extend([e] * (part(b, i) - part(a, i)))
        return rows

    def to_text(self) -> str:
        """The flavor line, then one partition per line."""
        return "\n".join([f"# flavor: {self.flavor}", *map(format_partition, self.chain)])

    def to_json(self) -> str:
        return json.dumps({"flavor": self.flavor, "chain": [list(c) for c in self.chain]})

    def conjugate(self) -> "Tableau":
        flavor = {
            SST: TRANSPOSE,
            TRANSPOSE: SST,
            REVERSE: REVERSE_TRANSPOSE,
            REVERSE_TRANSPOSE: REVERSE,
        }[self.flavor]
        return Tableau(flavor, tuple(conjugate(c) for c in self.chain))


def tableau_weight(t: Tableau) -> Composition:
    return t.weight()
