"""Finite groups as Cayley tables and the structures they induce.

Abelian groups travel as invariant-factor chains d1 | d2 | ... | dk with
every factor at least 2 (the empty chain is the one-element group).  They
are normalized, listed and read off tables on the chain itself, with gcd
and lcm; nothing is factored into primes.
Arbitrary groups travel as explicit, validated Cayley tables; a small
built-in library covers the non-abelian groups of order at most 8.

A ``StructureSpec`` is a multiset of group blocks.  ``build_biproduct``
lays the blocks side by side on one carrier, multiplies within blocks,
leaves cross-block products undefined, and takes the block units as the
unit subset.  The result always satisfies every axiom except possibly
commutativity, which holds exactly when every block is abelian.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from math import gcd, isqrt, lcm, prod
from operator import attrgetter

from .frobenius import CARRIER_LIMIT, FrobeniusCandidate, quoted
from .rel import Rel


@dataclass(frozen=True)
class AbelianGroupSpec:
    """A finite abelian group, by its invariant factors.

    >>> AbelianGroupSpec((2, 4)).order
    8
    >>> AbelianGroupSpec(()).label
    'Z1'
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        object.__setattr__(self, "_key", (prod(fs), 0, fs))  # see _block_key
        for d in fs:
            if d < 2:
                raise ValueError(f"invariant factor {d} is below 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must divide in turn: {a} | {b} fails")

    @property
    def order(self) -> int:
        return self._key[0]

    @property
    def label(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)

    def table(self) -> tuple[tuple[int, ...], ...]:
        return abelian_table(self.invariant_factors)


def abelian_table(factors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cayley table of a direct product of cyclic groups, unit at index 0:
    element i has the mixed-radix digits of i, the last factor's lowest."""
    table = [(0,)]
    for d in factors:  # (i*d + s)·(j*d + t) = (i·j)*d + (s + t) mod d
        cyclic = [[(s + t) % d for t in range(d)] for s in range(d)]
        table = [tuple(z * d + w for z in row for w in line)
                 for row in table for line in cyclic]
    return tuple(table)


def _find_unit(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise ValueError("table has no unit element")


def _is_commutative(table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n))


@dataclass(frozen=True)
class GroupSpec:
    """A finite group given by an explicit Cayley table.

    Validation names the first violated group axiom.  ``name`` is cosmetic
    and only set for the built-in tables.

    Associativity is checked by Light's test: (x*a)*y = x*(a*y) for every
    x and y, but only for the a of a generating set, picked greedily as
    each element outside the closure under products of the unit and those
    picked so far.  The a that pass are closed under products: if a and b
    pass, then (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y))
    = x*((a*b)*y), each step one of the two passing.  The unit passes by
    the unit law, so every element passes and the table is associative.
    On a failure the full scan names the first (a, b, c) in order.
    """

    table: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_key", (len(table), 1, self.name or "", table))  # see _block_key
        n = len(table)
        for x, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"row {x} has length {len(row)}, expected {n}")
            for y, z in enumerate(row):
                if not 0 <= z < n:
                    raise ValueError(f"entry ({x}, {y}) = {z} is not an element")
        unit = _find_unit(table)
        for x in range(n):
            if not any(table[x][y] == unit and table[y][x] == unit for y in range(n)):
                raise ValueError(f"element {x} has no inverse")
        closure, generators = {unit}, []
        for g in range(n):
            if g not in closure:
                generators.append(g)
                closure.add(g)
                fresh = [g]
                while fresh:
                    u = fresh.pop()
                    for v in list(closure):
                        for w in (table[u][v], table[v][u]):
                            if w not in closure:
                                closure.add(w)
                                fresh.append(w)
        if all(table[row[a]] == tuple(map(row.__getitem__, table[a]))
               for a in generators for row in table):
            return
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise ValueError(f"not associative at ({a}, {b}, {c})")

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return f"unidentified group of order {self.order}"


def _s3_table() -> tuple[tuple[int, ...], ...]:
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms)
                 for p in perms)


def _d4_table() -> tuple[tuple[int, ...], ...]:
    # element f*4 + r is the rotation r followed by f reflections
    def mul(a, b):
        r1, f1 = a % 4, a // 4
        r2, f2 = b % 4, b // 4
        r = (r1 + (4 - r2 if f1 else r2)) % 4
        return (f1 ^ f2) * 4 + r
    return tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))


def _q8_table() -> tuple[tuple[int, ...], ...]:
    # element b*2 + s is the unit quaternion [1, i, j, k][b] with sign (-1)^s
    base = {(0, x): (x, 0) for x in range(4)}
    base.update({(x, 0): (x, 0) for x in range(4)})
    base.update({(1, 1): (0, 1), (2, 2): (0, 1), (3, 3): (0, 1),
                 (1, 2): (3, 0), (2, 3): (1, 0), (3, 1): (2, 0),
                 (2, 1): (3, 1), (3, 2): (1, 1), (1, 3): (2, 1)})

    def mul(a, b):
        b1, s1 = a // 2, a % 2
        b2, s2 = b // 2, b % 2
        b3, s3 = base[(b1, b2)]
        return b3 * 2 + (s1 ^ s2 ^ s3)
    return tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))


BUILTIN_NONABELIAN: dict[str, GroupSpec] = {
    "S3": GroupSpec(_s3_table(), "S3"),
    "D4": GroupSpec(_d4_table(), "D4"),
    "Q8": GroupSpec(_q8_table(), "Q8"),
}


def nonabelian_groups_of_order(m: int) -> list[GroupSpec]:
    return [g for g in BUILTIN_NONABELIAN.values() if g.order == m]


def element_orders(table) -> list[int]:
    """Order of each element, indexed by element.

    In a group no order exceeds the table size, so an element whose first
    n powers miss the unit raises ValueError instead of looping.
    """
    n = len(table)
    unit = _find_unit(table)
    out = []
    for x in range(n):
        p, k = x, 1
        while p != unit:
            if k == n:
                raise ValueError(f"powers of element {x} never reach the unit")
            p = table[p][x]
            k += 1
        out.append(k)
    return out


def normalize_invariant_factors(cyclic_orders) -> AbelianGroupSpec:
    """Invariant factors of a direct product of cyclic groups.

    Each order c is folded into the chain so far, largest factor first,
    by replacing (d, c) with (lcm, gcd), and what is left of c, unless 1,
    becomes the last factor: Z_d x Z_c is isomorphic to Z_lcm x Z_gcd, and
    each lcm still divides the one before.

    >>> normalize_invariant_factors([4, 6]).invariant_factors
    (2, 12)
    >>> normalize_invariant_factors([2, 3]).invariant_factors
    (6,)
    """
    chain: list[int] = []  # largest factor first
    for c in cyclic_orders:
        if c < 1:
            raise ValueError(f"cyclic order {c} is below 1")
        for i, d in enumerate(chain):
            chain[i], c = lcm(d, c), gcd(d, c)
        if c > 1:
            chain.append(c)
    return AbelianGroupSpec(tuple(reversed(chain)))


def _chains(m: int, base: int):
    # divisor chains of multiples of base with product m, in order; () for m = 1
    for d in range(max(base, 2), isqrt(m) + 1, base):
        if m % (d * d) == 0:
            yield from ((d,) + rest for rest in _chains(m // d, d))
    yield (m,) if m > 1 else ()


def enumerate_abelian_groups(m: int) -> list[AbelianGroupSpec]:
    """All abelian groups of order m, one spec per isomorphism class.

    A chain d1 | d2 | ... with product m starts with some d whose square
    divides m, followed by a chain of multiples of d with product m/d; the
    single chain (m,) comes last, so the specs come sorted by their factors.

    >>> [g.invariant_factors for g in enumerate_abelian_groups(8)]
    [(2, 2, 2), (2, 4), (8,)]
    """
    if m < 1:
        raise ValueError(f"group order {m} is below 1")
    return [AbelianGroupSpec(chain) for chain in _chains(m, 1)]


def _invariant_factors(table) -> tuple[int, ...]:
    """Invariant factors of an abelian Cayley table, from its element orders.

    With factors d_i, N(d) = prod gcd(d, d_i) elements have order dividing
    d.  Once factors f are peeled, leaving order r, the next is the least
    divisor d of r with N(d) = r * prod gcd(d, f), which holds just when
    every factor left divides d; the first is the least d that every
    element order divides.  No such d means the table is no abelian group.
    """
    orders = element_orders(table)
    factors: list[int] = []  # largest first
    rest = len(table)
    while rest > 1:
        for d in range(2, rest + 1):
            if rest % d == 0 and sum(d % o == 0 for o in orders) == rest * prod(
                    gcd(d, f) for f in factors):
                break
        else:
            raise ValueError(f"table of order {len(table)} is not an abelian group")
        factors.append(d)
        rest //= d
    return tuple(reversed(factors))


def identify_group(table) -> GroupSpec:
    """Name a Cayley table when it matches the built-in library.

    Order and element orders decide it: S3, D4 and Q8 are every non-abelian
    group of order at most 8, and no two groups of order 6 or 8 share their
    multiset of element orders.
    """
    spec = GroupSpec(tuple(tuple(row) for row in table))
    orders = sorted(element_orders(spec.table))
    for g in nonabelian_groups_of_order(spec.order):
        if sorted(element_orders(g.table)) == orders:
            return g
    return spec


# a block's place in a spec: by order, abelian before not, then by factors
# or by name and table; each block computes it once, when it is built
_block_key = attrgetter("_key")


@dataclass(frozen=True)
class StructureSpec:
    """A multiset of group blocks, held in canonical order."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=_block_key)))

    @property
    def n(self) -> int:
        return sum(b.order for b in self.blocks)

    @property
    def label(self) -> str:
        if not self.blocks:
            return "(empty)"
        return " + ".join(b.label for b in self.blocks)

    def sort_key(self) -> tuple:
        return (self.n, len(self.blocks), tuple(map(_block_key, self.blocks)))


_NAME_TOKEN = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


def parse_structure_spec(text: str) -> StructureSpec:
    """Parse the block grammar: ';' between blocks, ',' between cyclic orders.

    "4;2,2" is a Z4 block next to a Z2xZ2 block; a block may also name a
    built-in non-abelian table, as in "S3;2".  The total order may not
    exceed CARRIER_LIMIT; that is checked before any block is normalized.
    Each order and the running total are capped at CARRIER_LIMIT + 1, and
    a block is kept only while the total is within it.
    """
    cap = CARRIER_LIMIT + 1
    total = 0
    blocks: list = []  # GroupSpec or a list of cyclic orders, normalized below
    for raw in text.split(";"):
        token = raw.strip()
        if not token:
            raise ValueError(f"empty block in group spec {quoted(text)}")
        if _NAME_TOKEN.match(token):
            key = token.upper()
            if key not in BUILTIN_NONABELIAN:
                raise ValueError(
                    f"unknown group name {quoted(token)}; known: {sorted(BUILTIN_NONABELIAN)}")
            block = BUILTIN_NONABELIAN[key]
            order = block.order
        else:
            try:
                block = [int(part.strip()) for part in token.split(",")]
            except ValueError:
                raise ValueError(f"bad block token {quoted(token)} in group spec "
                                 f"{quoted(text)}") from None
            if any(m < 1 for m in block):
                raise ValueError(f"cyclic orders must be at least 1 in block {quoted(token)}")
            order = 1
            for m in block:
                order = min(order * m, cap)
        total = min(total + order, cap)
        if total < cap:
            blocks.append(block)
    if total == cap:
        raise ValueError(f"group spec {quoted(text)} has order above {CARRIER_LIMIT}")
    return StructureSpec(tuple(normalize_invariant_factors(b) if isinstance(b, list) else b
                               for b in blocks))


def build_biproduct(spec: StructureSpec) -> FrobeniusCandidate:
    """Disjoint union of the blocks on one carrier {0..n-1}.

    Blocks occupy consecutive index ranges in canonical order; products
    across blocks are undefined; the unit subset collects each block's unit.
    """
    n = spec.n
    sources, targets, bot = [], [], []  # cells x*n + y, their products, the units
    offset = 0
    for b in spec.blocks:
        table = b.table() if isinstance(b, AbelianGroupSpec) else b.table
        m = len(table)
        for x, row in enumerate(table):
            cell = (offset + x) * n + offset
            sources += range(cell, cell + m)
            targets += [offset + z for z in row]
        bot.append(offset + _find_unit(table))
        offset += m
    # in range: the tables' entries are elements, by construction or validation
    return FrobeniusCandidate(n, Rel._with_converse(n * n, n, sources, targets), bot)
