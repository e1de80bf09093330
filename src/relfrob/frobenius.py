"""Axiom checks for candidate multiplication structures over finite relations.

A candidate is a relational multiplication nabla: X*X -> X together with a
unit subset bot of X.  The copying side is fixed by taking converses:
delta = nabla converse, top = bot converse.  ``verify_structure`` evaluates
the monoid laws, commutativity, the normalization law (copy-then-multiply
is the identity) and the interchange law relating multiplication to
copying, and returns witnessed verdicts for each.

The interchange law is checked twice, by independent routes: once by
composing the relation diagrams and comparing them row by row, and once
pointwise from the partial-operation reading of the multiplication.  The
two verdicts must be structurally identical; a discrepancy indicates a bug
in one of the routes.  The composite route computes the fiber and one split
only: the other split is its converse, because delta is nabla's converse,
and on failure it is read off the rows where the first split differs.

Every composite is a lazy stream of bit rows.  No tensor is built: the
whiskers ``Rel.whisker_right`` and ``Rel.whisker_left`` read each row of
(r ⊗ id) >> s and (id ⊗ r) >> s straight off the rows of s.  They are the
package's one ⊗ kernel (``Rel.tensor`` is a whisker too).
``verify_structure`` drains the streams into a report cached on the
candidate; ``satisfies_axioms`` stops at the first violating row and never
runs the pointwise route.  The pointwise route works from dicts of products
indexed by value and shares no code with the bit rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress, count, tee
from operator import ne, or_
from typing import Iterable, Iterator

from .rel import Rel, bits, identity, vector


# Largest carrier accepted from structure files and group specs.  Verifying
# the cyclic group at this size takes a few seconds (README, "Bounds").
CARRIER_LIMIT = 128


class FrobeniusCandidate:
    """A multiplication relation and unit subset over carrier {0..n-1}."""

    __slots__ = ("n", "nabla", "bot", "delta", "top", "bot_vec", "_report")

    def __init__(self, n: int, nabla: Rel, bot: Iterable[int]):
        if nabla.dom != n * n or nabla.cod != n:
            raise ValueError(
                f"multiplication must be {n * n}x{n}, got {nabla.dom}x{nabla.cod}")
        self.n = n
        self.nabla = nabla
        self.bot = frozenset(bot)
        self.bot_vec = vector(n, self.bot)
        self.delta = nabla.converse()
        self.top = self.bot_vec.converse()
        self._report: AxiomReport | None = None  # filled by verify_structure

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]],
                     bot: Iterable[int]) -> "FrobeniusCandidate":
        """Build from triples (x, y, z) meaning z is a value of x*y."""
        nabla = Rel.from_pairs(n * n, n, ((x * n + y, z) for x, y, z in triples))
        return cls(n, nabla, bot)

    def triples(self) -> tuple[tuple[int, int, int], ...]:
        n = self.n
        return tuple(sorted((p // n, p % n, z) for p, z in self.nabla.pairs()))

    def product(self, x: int, y: int) -> frozenset[int]:
        """All values of x*y (empty when undefined)."""
        return frozenset(bits(self.nabla.row(x * self.n + y)))

    def is_single_valued(self) -> bool:
        return all(row & (row - 1) == 0 for row in self.nabla.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrobeniusCandidate):
            return NotImplemented
        return (self.n, self.nabla, self.bot) == (other.n, other.nabla, other.bot)

    def __hash__(self) -> int:
        return hash((self.n, self.nabla, self.bot))

    def __repr__(self) -> str:
        return (f"FrobeniusCandidate(n={self.n}, triples={list(self.triples())}, "
                f"bot={sorted(self.bot)})")


@dataclass(frozen=True)
class Verdict:
    """Outcome of one axiom check.

    ``witness`` is None on a pass; on failure it holds the first violation
    in scan order.  Checks that enumerate every violating input also fill
    ``violations`` with the offending indices, in ascending order.
    """

    ok: bool
    witness: object = None
    violations: tuple = ()


@dataclass(frozen=True)
class FroWitness:
    """The three interchange-law sets at one input pair (i, j).

    fiber        pairs whose product agrees with i*j
    split_left   pairs (x, y'*j) over splittings x*y' of i
    split_right  pairs (i*x', y) over splittings x'*y of j

    (x, y) is in split_right at (i, j) exactly when (i, j) is in split_left
    at (x, y), so the composite route derives split_right, never composes it.
    """

    i: int
    j: int
    fiber: frozenset
    split_left: frozenset
    split_right: frozenset


@dataclass(frozen=True)
class AxiomReport:
    """Witnessed verdicts for one candidate.

    ``frobenius_pointwise`` is None when the multiplication is not
    single-valued, since the pointwise reading of the interchange law is
    only defined for partial operations.
    """

    n: int
    associativity: Verdict
    left_unit: Verdict
    right_unit: Verdict
    commutativity: Verdict
    special: Verdict
    frobenius: Verdict
    frobenius_pointwise: Verdict | None
    empty_carrier: bool

    @property
    def is_classical(self) -> bool:
        return self.is_special_frobenius and self.commutativity.ok

    @property
    def is_special_frobenius(self) -> bool:
        return (self.associativity.ok and self.left_unit.ok and self.right_unit.ok
                and self.special.ok and self.frobenius.ok)

    def axioms(self) -> Iterator[tuple[str, Verdict | None]]:
        yield "associativity", self.associativity
        yield "left-unit", self.left_unit
        yield "right-unit", self.right_unit
        yield "commutativity", self.commutativity
        yield "special", self.special
        yield "frobenius", self.frobenius
        yield "frobenius-pointwise", self.frobenius_pointwise


def _mismatches(got: Iterable[int], want: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(index, got row, wanted row) wherever two row streams differ, lazily."""
    (got, got2), (want, want2) = tee(got), tee(want)
    return compress(zip(count(), got, want), map(ne, got2, want2))


# Each axiom below is a generator of its composite route's violations in
# row order; witness shapes are those documented on verify_structure.

def _associativity(c: FrobeniusCandidate) -> Iterator[tuple]:
    n, nab = c.n, c.nabla
    lhs = nab.whisker_right_rows(n, nab)  # (nabla ⊗ id) >> nabla
    rhs = nab.whisker_left_rows(n, nab)   # (id ⊗ nabla) >> nabla
    for p, left, right in _mismatches(lhs, rhs):
        a, bc = divmod(p, n * n)
        yield (a, *divmod(bc, n), frozenset(bits(left)), frozenset(bits(right)))


def _identity_violations(rows: Iterable[int], n: int) -> Iterator[tuple]:
    for x, got, _ in _mismatches(rows, identity(n).rows):
        yield x, frozenset(bits(got))


def _left_unit(c: FrobeniusCandidate) -> Iterator[tuple]:  # (bot ⊗ id) >> nabla
    return _identity_violations(c.bot_vec.whisker_right_rows(c.n, c.nabla), c.n)


def _right_unit(c: FrobeniusCandidate) -> Iterator[tuple]:  # (id ⊗ bot) >> nabla
    return _identity_violations(c.bot_vec.whisker_left_rows(c.n, c.nabla), c.n)


def _special(c: FrobeniusCandidate) -> Iterator[tuple]:  # delta >> nabla
    return _identity_violations((c.delta >> c.nabla).rows, c.n)


def _commutativity(c: FrobeniusCandidate) -> Iterator[tuple]:
    n, rows = c.n, c.nabla.rows
    swapped = (rows[j * n + i] for i in range(n) for j in range(n))  # swap >> nabla
    for p, got, want in _mismatches(swapped, rows):
        yield (*divmod(p, n), frozenset(bits(got)), frozenset(bits(want)))


def _interchange(c: FrobeniusCandidate) -> Iterator[tuple]:
    """(index, fiber row, split-left row) wherever the two differ.

    Split-right, (id ⊗ delta) >> (nabla ⊗ id), is the converse of split-left,
    (delta ⊗ id) >> (id ⊗ nabla), because delta is nabla's converse; and the
    fiber nabla >> delta is its own converse.  So once split-left equals the
    fiber row by row, split-right does too, and it is never computed.
    """
    n, nab, delta = c.n, c.nabla, c.delta
    return _mismatches((nab >> delta).rows, delta.whisker_right_rows(n, nab, n))


def _first(violations: Iterator[tuple]) -> Verdict:
    witness = next(violations, None)
    return Verdict(True) if witness is None else Verdict(False, witness)


def _interchange_verdict(c: FrobeniusCandidate) -> Verdict:
    diff = {p: rf ^ rl for p, rf, rl in _interchange(c)}  # D = split-left xor fiber
    if not diff:
        return Verdict(True)
    # split-right = fiber xor D's converse, so its row p leaves the fiber
    # exactly where some row of D has bit p
    bad = sorted(diff.keys() | set(bits(reduce(or_, diff.values()))))
    n, p = c.n, bad[0]
    fiber = reduce(or_, map(c.delta.rows.__getitem__, bits(c.nabla.rows[p])), 0)
    right = sum(1 << q for q, d in diff.items() if d >> p & 1)
    rows = fiber, fiber ^ diff.get(p, 0), fiber ^ right
    sets = (frozenset(divmod(b, n) for b in bits(row)) for row in rows)
    return Verdict(False, FroWitness(*divmod(p, n), *sets),
                   tuple(divmod(q, n) for q in bad))


def verify_structure(c: FrobeniusCandidate) -> AxiomReport:
    """Check every axiom, each with a witness on failure.

    Witness shapes: associativity (a, b, c, lhs, rhs); unit laws
    (x, got-set); commutativity (i, j, swapped, straight); special
    (x, got-set); frobenius a FroWitness plus the full tuple of violating
    (i, j) pairs.  The report is computed once per candidate and cached
    on it.
    """
    if c._report is None:
        c._report = AxiomReport(
            n=c.n,
            associativity=_first(_associativity(c)),
            left_unit=_first(_left_unit(c)),
            right_unit=_first(_right_unit(c)),
            commutativity=_first(_commutativity(c)),
            special=_first(_special(c)),
            frobenius=_interchange_verdict(c),
            frobenius_pointwise=check_fro_pointwise(c) if c.is_single_valued() else None,
            empty_carrier=(c.n == 0),
        )
    return c._report


def satisfies_axioms(c: FrobeniusCandidate, commutative: bool = True) -> bool:
    """The report's ``is_classical`` (``is_special_frobenius`` when not
    commutative), from the composite routes alone: cheapest axiom first, up
    to the first violating row, with no report built unless one is cached.
    """
    if c._report is not None:
        return c._report.is_classical if commutative else c._report.is_special_frobenius
    routes = [_special, _left_unit, _right_unit, _interchange, _associativity]
    if commutative:
        routes.insert(3, _commutativity)
    return all(next(route(c), None) is None for route in routes)


def _pointwise_index(c: FrobeniusCandidate) -> tuple[list, list, dict]:
    """The partial operation as dicts: rows[x][y] and cols[y][x] hold x*y,
    and fibers[z] is the set of pairs multiplying to z."""
    n = c.n
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    fibers: dict[int, set[tuple[int, int]]] = {}
    for p, row in enumerate(c.nabla.rows):
        if row == 0:
            continue
        x, y = divmod(p, n)
        if row & (row - 1):
            raise ValueError(
                f"multiplication is not single-valued at ({x}, {y}): "
                f"values {sorted(bits(row))}")
        rows[x][y] = cols[y][x] = z = row.bit_length() - 1
        fibers.setdefault(z, set()).add((x, y))
    return rows, cols, {z: frozenset(pairs) for z, pairs in fibers.items()}


def _sets_at(index: tuple[list, list, dict], i: int, j: int) -> tuple[frozenset, set, set]:
    # each set costs the size of one fiber, not a scan of the table
    rows, cols, fibers = index
    fiber = fibers[rows[i][j]] if j in rows[i] else frozenset()
    split_left = {(x, cols[j][yp]) for x, yp in fibers.get(i, ()) if yp in cols[j]}
    split_right = {(rows[i][xp], y) for xp, y in fibers.get(j, ()) if xp in rows[i]}
    return fiber, split_left, split_right


def frobenius_sets_at(c: FrobeniusCandidate, i: int, j: int) -> FroWitness:
    """Evaluate the three pointwise interchange sets at one input pair.

    Requires a single-valued multiplication.  Entries with undefined
    products are dropped, mirroring what the relational composites do.
    """
    return FroWitness(i, j, *map(frozenset, _sets_at(_pointwise_index(c), i, j)))


def check_fro_pointwise(c: FrobeniusCandidate) -> Verdict:
    """Interchange law evaluated pointwise on the partial operation.

    Raises ValueError when the multiplication is not single-valued, naming
    the offending input pair.  The verdict mirrors the composite check
    exactly: same witness, same violation tuple.
    """
    index = _pointwise_index(c)  # raises, naming the pair, when multi-valued
    n = c.n
    violations = []
    for i in range(n):
        for j in range(n):
            fiber, split_left, split_right = _sets_at(index, i, j)
            if not fiber == split_left == split_right:
                violations.append((i, j))
    if not violations:
        return Verdict(True)
    i, j = violations[0]
    return Verdict(False, FroWitness(i, j, *map(frozenset, _sets_at(index, i, j))),
                   tuple(violations))
