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

The right whisker (r ⊗ id) >> (id ⊗ s) is the one ⊗ kernel; a composite
with r on the right of the ⊗ is read off it by a converse or a swap.  It
yields blocks of rows, the k rows that one row of r produces, joined from
s's rows at the bit positions of r's rows, which ``Rel.positions`` decodes
once per relation, on first use.  ``Rel.whisker_right`` chains the blocks.
A relation's converse is likewise computed once and kept; the builder
``Rel._with_converse`` sets the converse's bits in the loop that sets the
relation's.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter, lshift, or_
from typing import Callable, Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Decoded(dict):
    """Row -> its set bit positions, each distinct row decoded once."""

    def __missing__(self, row: int) -> tuple[int, ...]:
        self[row] = ps = tuple(bits(row))
        return ps


class Rel:
    """A binary relation between {0..dom-1} and {0..cod-1}."""

    __slots__ = ("dom", "cod", "rows", "_positions", "_converse")

    def __init__(self, dom: int, cod: int, rows: Iterable[int]):
        rows = tuple(rows)
        if dom < 0 or cod < 0:
            raise ValueError(f"negative carrier size: dom={dom}, cod={cod}")
        if len(rows) != dom:
            raise ValueError(f"expected {dom} rows, got {len(rows)}")
        if rows and (min(rows) < 0 or max(rows) >> cod):
            a = next(a for a, row in enumerate(rows) if row < 0 or row >> cod)
            raise ValueError(f"row {a} has bits outside 0..{cod - 1}")
        self.dom, self.cod, self.rows, self._positions, self._converse = dom, cod, rows, None, None

    @classmethod
    def _unchecked(cls, dom: int, cod: int, rows: tuple[int, ...]) -> "Rel":
        """Wrap rows already known to fit dom x cod, for the package's builders."""
        r = object.__new__(cls)
        r.dom, r.cod, r.rows, r._positions, r._converse = dom, cod, rows, None, None
        return r

    @classmethod
    def _with_converse(cls, dom: int, cod: int, sources: Iterable[int],
                       targets: Iterable[int]) -> "Rel":
        """The pairs (sources[k], targets[k]), already known to fit dom x cod:
        one loop sets the bits of the rows and of the converse's rows, and
        the converse is kept for ``converse``."""
        rows, cols = [0] * dom, [0] * cod
        for a, b in zip(sources, targets):
            rows[a] |= 1 << b
            cols[b] |= 1 << a
        r = cls._unchecked(dom, cod, tuple(rows))
        r._converse = cls._unchecked(cod, dom, tuple(cols))
        return r

    @classmethod
    def from_pairs(cls, dom: int, cod: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        if dom < 0 or cod < 0:
            raise ValueError(f"negative carrier size: dom={dom}, cod={cod}")
        sources, targets = [*zip(*pairs)] or ((), ())
        if sources and (min(sources) < 0 or max(sources) >= dom
                        or min(targets) < 0 or max(targets) >= cod):
            a, b = next((a, b) for a, b in zip(sources, targets)
                        if not (0 <= a < dom and 0 <= b < cod))
            raise ValueError(f"pair ({a}, {b}) outside {dom} x {cod}")
        return cls._with_converse(dom, cod, sources, targets)

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, row in enumerate(self.rows) for b in bits(row))

    @property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """The set bit positions of every row, lowest first: decoded on first
        use, then kept, so each relation's rows are decoded once."""
        if self._positions is None:
            self._positions = tuple(map(_Decoded().__getitem__, self.rows))
        return self._positions

    def then(self, other: "Rel") -> "Rel":
        """Relational composition, self first: a (self;other) c."""
        if self.cod != other.dom:
            raise ValueError(
                f"composition mismatch: {self.dom}x{self.cod} then {other.dom}x{other.cod}")
        orows = other.rows
        out = []
        for ps in self.positions:
            acc = 0
            for b in ps:
                acc |= orows[b]
            out.append(acc)
        return Rel._unchecked(self.dom, other.cod, tuple(out))

    __rshift__ = then

    def converse(self) -> "Rel":
        """Computed on first use, then kept, unless the builder kept it."""
        if self._converse is None:
            out = [0] * self.cod
            for a, ps in enumerate(self.positions):
                bit = 1 << a
                for b in ps:
                    out[b] |= bit
            self._converse = Rel._unchecked(self.cod, self.dom, tuple(out))
        return self._converse

    def tensor(self, other: "Rel") -> "Rel":
        """Parallel pairing on flattened products: (self ⊗ id) >> (id ⊗ other)."""
        return self.whisker_right(other.dom, other, self.cod)

    def whisker_right(self, k: int, s: "Rel", m: int = 1) -> "Rel":
        """(self ⊗ id_k) >> (id_m ⊗ s), for self from A to m*B and s from B*k
        to C, with neither tensor built; ``whisker_right_blocks`` is lazy."""
        rows = chain.from_iterable(self.whisker_right_blocks(k, s, m))
        return Rel._unchecked(self.dom * k, m * s.cod, tuple(rows))

    def whisker_right_blocks(self, k: int, s: "Rel", m: int = 1) -> Iterator[tuple[int, ...]]:
        """The rows of ``whisker_right`` as one block per row a of self:
        the k rows (a, 0) .. (a, k-1)."""
        if k < 0 or m < 0 or self.cod * k != m * s.dom or (m and self.cod % m):
            raise ValueError(f"whisker mismatch: {self.dom}x{self.cod} with k={k}, m={m} "
                             f"then {s.dom}x{s.cod}")
        if not k:
            return iter(())  # no rows to read
        # row (a, j) joins s's row (b, j), moved to block x, over the bits (x, b)
        # of row a, where B = cod / m
        width, srows, cod, zero = m and self.cod // m, s.rows, s.cod, (0,) * k

        def join(ps: tuple[int, ...]) -> tuple[int, ...]:
            block = zero
            for p in ps:
                x, b = divmod(p, width)
                part = srows[b * k:(b + 1) * k]
                part = map(lshift, part, repeat(x * cod)) if x else part
                block = tuple(part) if block is zero else tuple(map(or_, block, part))
            return block
        return map(join, self.positions)

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


def _getter(indices: tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """seq -> the tuple of seq's items at indices, in one call."""
    if len(indices) == 1:
        i, = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices) if indices else lambda seq: ()


def identity(n: int) -> Rel:
    if n < 0:
        raise ValueError(f"negative carrier size: dom={n}, cod={n}")
    return Rel._unchecked(n, n, tuple(map((1).__lshift__, range(n))))


def vector(n: int, elems: Iterable[int]) -> Rel:
    """A subset of {0..n-1} as a relation from the one-element set."""
    mask = 0
    for e in elems:
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside 0..{n - 1}")
        mask |= 1 << e
    if n < 0:
        raise ValueError(f"negative carrier size: dom=1, cod={n}")
    return Rel._unchecked(1, n, (mask,))
