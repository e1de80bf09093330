"""Finite binary relations as packed bit rows.

Objects are finite index sets given by their size n and read as
{0, 1, ..., n-1}.  A relation r from A to B stores one Python int per
domain element; bit b of row a is set exactly when a relates to b.  With
this layout composition is a cascade of bitwise ORs, which is where the
exhaustive searches in this package spend nearly all of their time.

Product sets are flattened to a single index set via (x, y) -> x*|Y| + y,
so the tensor is associative on the nose and relations between products
are plain relations.  The unit object is the one-element set; subsets of
a carrier travel as relations from it.
"""

from __future__ import annotations

from itertools import repeat
from operator import lshift, or_
from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Rel:
    """A binary relation between {0..dom-1} and {0..cod-1}."""

    __slots__ = ("dom", "cod", "rows")

    def __init__(self, dom: int, cod: int, rows: Iterable[int]):
        rows = tuple(rows)
        if dom < 0 or cod < 0:
            raise ValueError(f"negative carrier size: dom={dom}, cod={cod}")
        if len(rows) != dom:
            raise ValueError(f"expected {dom} rows, got {len(rows)}")
        full = (1 << cod) - 1
        for a, row in enumerate(rows):
            if row < 0 or row & ~full:
                raise ValueError(f"row {a} has bits outside 0..{cod - 1}")
        self.dom = dom
        self.cod = cod
        self.rows = rows

    @classmethod
    def _unchecked(cls, dom: int, cod: int, rows: tuple[int, ...]) -> "Rel":
        """Wrap rows already known to fit dom x cod; for this module's operations."""
        r = object.__new__(cls)
        r.dom, r.cod, r.rows = dom, cod, rows
        return r

    @classmethod
    def from_pairs(cls, dom: int, cod: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        rows = [0] * dom
        for a, b in pairs:
            if not (0 <= a < dom and 0 <= b < cod):
                raise ValueError(f"pair ({a}, {b}) outside {dom} x {cod}")
            rows[a] |= 1 << b
        return cls(dom, cod, rows)

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, row in enumerate(self.rows) for b in bits(row))

    def row(self, a: int) -> int:
        return self.rows[a]

    def then(self, other: "Rel") -> "Rel":
        """Relational composition, self first: a (self;other) c."""
        if self.cod != other.dom:
            raise ValueError(
                f"composition mismatch: {self.dom}x{self.cod} then {other.dom}x{other.cod}")
        orows = other.rows
        out = []
        for row in self.rows:
            acc = 0
            for b in bits(row):
                acc |= orows[b]
            out.append(acc)
        return Rel._unchecked(self.dom, other.cod, tuple(out))

    __rshift__ = then

    def converse(self) -> "Rel":
        out = [0] * self.cod
        for a, row in enumerate(self.rows):
            bit = 1 << a
            for b in bits(row):
                out[b] |= bit
        return Rel._unchecked(self.cod, self.dom, tuple(out))

    def tensor(self, other: "Rel") -> "Rel":
        """Parallel pairing on flattened products: (self ⊗ id) >> (id ⊗ other)."""
        return self.whisker_right(other.dom, other, self.cod)

    def whisker_right(self, k: int, s: "Rel", m: int = 1) -> "Rel":
        """(self ⊗ id_k) >> (id_m ⊗ s), for self from A to m*B and s from B*k
        to C, with neither tensor built; ``whisker_right_rows`` is lazy."""
        return Rel._unchecked(self.dom * k, m * s.cod, tuple(self.whisker_right_rows(k, s, m)))

    def whisker_left(self, k: int, s: "Rel", m: int = 1) -> "Rel":
        """(id_k ⊗ self) >> (s ⊗ id_m), for self from A to B*m and s from k*B
        to C, with neither tensor built; ``whisker_left_rows`` is lazy."""
        return Rel._unchecked(k * self.dom, s.cod * m, tuple(self.whisker_left_rows(k, s, m)))

    def whisker_right_rows(self, k: int, s: "Rel", m: int = 1) -> Iterator[int]:
        # row (a, j) joins s's row (b, j), moved to block x, over the bits (x, b) of row a
        return _right_rows(*self._whisker_shape(k, s, m), k, s.rows, s.cod)

    def whisker_left_rows(self, k: int, s: "Rel", m: int = 1) -> Iterator[int]:
        # row (i, a) joins s's row (i, b), value z moved to z*m + y, over bits (b, y) of row a
        return _left_rows(*self._whisker_shape(k, s, m), k, s.rows, m)

    def _whisker_shape(self, k: int, s: "Rel", m: int) -> tuple[tuple[int, ...], int]:
        """The rows to read (none when k = 0) and B in the shapes above."""
        if k < 0 or m < 0 or self.cod * k != m * s.dom or (m and self.cod % m):
            raise ValueError(f"whisker mismatch: {self.dom}x{self.cod} with k={k}, m={m} "
                             f"then {s.dom}x{s.cod}")
        return (self.rows if k else ()), (self.cod // m if m else 0)

    def is_mono(self) -> bool:
        """Whether the direct-image map on subsets is injective.

        It is exactly when every row has a private bit, one that no other
        row has: then the image of a subset names it, and a row without one
        is covered by the others, so dropping it leaves the image unchanged.
        """
        seen = shared = 0  # shared: the bits of two or more rows
        for row in self.rows:
            shared |= seen & row
            seen |= row
        return all(row & ~shared for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rel):
            return NotImplemented
        return (self.dom, self.cod, self.rows) == (other.dom, other.cod, other.rows)

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.rows))

    def __repr__(self) -> str:
        return f"Rel({self.dom}, {self.cod}, {sorted(self.pairs())})"


def _right_rows(rows, width: int, k: int, srows, cod: int) -> Iterator[int]:
    for row in rows:
        block = None
        for p in bits(row):
            x, b = divmod(p, width)
            part = srows[b * k:(b + 1) * k]
            part = map(lshift, part, repeat(x * cod)) if x else part
            block = list(part) if block is None else list(map(or_, block, part))
        yield from repeat(0, k) if block is None else block


def _left_rows(rows, width: int, k: int, srows, m: int) -> Iterator[int]:
    if m > 1:
        srows = [sum(1 << (z * m) for z in bits(row)) for row in srows]
    # Layer t lists the t-th bit (b, y) of every row; a row with fewer bits
    # points at the zero appended after each block of s's rows.
    parts = [[divmod(p, m) for p in bits(row)] for row in rows]
    layers = [tuple(zip(*(pa[t] if t < len(pa) else (width, 0) for pa in parts)))
              for t in range(max(map(len, parts), default=0))]
    for i in range(k):
        block = [*srows[i * width:(i + 1) * width], 0]
        acc = None
        for bs, ys in layers:
            vals = map(block.__getitem__, bs)
            vals = map(lshift, vals, ys) if m > 1 else vals
            acc = list(vals) if acc is None else list(map(or_, acc, vals))
        yield from repeat(0, len(rows)) if acc is None else acc


def identity(n: int) -> Rel:
    return Rel(n, n, (1 << a for a in range(n)))


def vector(n: int, elems: Iterable[int]) -> Rel:
    """A subset of {0..n-1} as a relation from the one-element set."""
    mask = 0
    for e in elems:
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside 0..{n - 1}")
        mask |= 1 << e
    return Rel(1, n, (mask,))
