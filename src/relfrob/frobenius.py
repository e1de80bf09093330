"""Axiom checks for candidate multiplication structures over finite relations.

A candidate is a relational multiplication nabla: X*X -> X together with a
unit subset bot of X.  The copying side is fixed by taking converses:
delta = nabla converse, top = bot converse.  ``verify_structure`` evaluates
the monoid laws, commutativity, the normalization law (copy-then-multiply
is the identity) and the interchange law relating multiplication to
copying, and returns witnessed verdicts for each.

The interchange law is checked twice, by independent routes: once by
composing the relation diagrams and comparing them block by block, and
once pointwise from the partial-operation reading of the multiplication.
The two verdicts must be structurally identical; a discrepancy indicates a
bug in one of the routes.  The composite route computes the fiber and one
split only: the other split is its converse, because delta is nabla's
converse, and on failure it is read off the rows where the first split
differs.  It first compares the two on n-bit slices of delta's rows
(``_slice_blocks``): a reading of those rows as small ints, not a second ⊗
kernel.  The whisker builds only the blocks the slices show differing, so
a passing check on a group or groupoid composes neither split.

Each composite is a stream of blocks of bit rows.  No tensor is built: the
right whisker ``Rel.whisker_right_blocks`` builds (r ⊗ id) >> s straight
off the rows of s, from the bit positions of r's rows, which each relation
decodes once.  It is the package's one ⊗ kernel (``Rel.tensor`` is a
whisker too).  A composite with r on the right of the ⊗ is read off it:
the right unit whiskers swap >> nabla, and associativity whiskers only
its cells of two or more values.  Each axiom compares its two sides block
against block with ``==``; only a block that differs is searched for its
differing rows, which give the witness.
``verify_structure`` builds the report from those rows and caches it on
the candidate; ``satisfies_axioms`` stops at the first block that differs
and never runs the pointwise route.  That route shares no code with the
bit rows or the slices: where no row or column repeats a defined value, a
sweep of gathered rows of the product table may accept the table; every
table it does not accept is decided by one exact loop over the same rows
and the pairs listed by value, each pair (x, y) coded as x·n + y.  Its
witness decodes the three code sets of the first violating pair, in code
order.

Classical structures in Rel are direct sums of groups, so the routes that
would read n³ entries skip what a lemma, proved where used, shows empty.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from operator import and_, eq, itemgetter, mul, ne, not_, or_
from typing import Callable, Iterable, Iterator, Sequence

from .rel import Rel, _getter, bits, identity, vector


# Largest carrier of structure files and group specs; Z128 verifies in about 0.2 s.
CARRIER_LIMIT = 128


def quoted(text: str) -> str:
    """text's repr in an error message: its first 40 characters, if longer its length."""
    return repr(text[:40]) + (f"... ({len(text)} characters)" if len(text) > 40 else "")


class FrobeniusCandidate:
    """A multiplication relation and unit subset over carrier {0..n-1}."""

    __slots__ = ("n", "nabla", "bot", "delta", "swapped", "row_values", "bot_vec", "_report",
                 "_single_valued")

    def __init__(self, n: int, nabla: Rel, bot: Iterable[int]):
        if nabla.dom != n * n or nabla.cod != n:
            raise ValueError(
                f"multiplication must be {n * n}x{n}, got {nabla.dom}x{nabla.cod}")
        self.n = n
        self.nabla = nabla
        self.bot = frozenset(bot)
        self.bot_vec = vector(n, self.bot)
        self.delta = nabla.converse()  # the one its builder kept, if it kept one
        # swap >> nabla, and the values of each row x as bits, for the axioms
        lines = [*zip(*[iter(nabla.rows)] * n)]
        self.swapped = Rel._unchecked(n * n, n, tuple(chain.from_iterable(zip(*lines))))
        self.row_values = [*map(reduce, repeat(or_), lines)]
        self._report: AxiomReport | None = None  # filled by verify_structure
        self._single_valued = max(map(int.bit_count, nabla.rows), default=0) <= 1

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[tuple[int, int, int]],
                     bot: Iterable[int]) -> "FrobeniusCandidate":
        """Build from triples (x, y, z) meaning z is a value of x*y."""
        nabla = Rel.from_pairs(n * n, n, ((x * n + y, z) for x, y, z in triples))
        return cls(n, nabla, bot)

    def triples(self) -> tuple[tuple[int, int, int], ...]:
        n = self.n
        return tuple((*divmod(p, n), z) for p, zs in enumerate(self.nabla.positions) for z in zs)

    def is_single_valued(self) -> bool:
        return self._single_valued

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


# Each axiom below is a lazy stream of its composite route's differing
# blocks: (index of the block's first row, got block, wanted block), in row
# order.  Witness shapes are those documented on verify_structure.

def _differing_blocks(got: Iterable[tuple[int, ...]],
                      want: Iterable[tuple[int, ...]]) -> Iterator[tuple[int, tuple, tuple]]:
    start = 0
    for g, w in zip(got, want):
        if g != w:
            yield start, g, w
        start += len(g)


def _differing_rows(got: tuple[int, ...], want: tuple[int, ...]) -> Iterator[int]:
    """The indices at which two equally long blocks differ."""
    return compress(count(), map(ne, got, want))


def _associativity(c: FrobeniusCandidate) -> Iterator[tuple]:
    """Block (a, b), rows (a, b, c), is (a*b)*c on the left, a*(b*c) on the
    right.  A cell's index in basis is z for the value z, n where undefined,
    n + 1 + k for the k-th cell of several values, the one kind whiskered.
    Lemma: where a*b is undefined and no value of row b is a defined right
    factor of a, block (a, b) is empty on both sides: the left is a union
    over a*b, and each a*z on the right, z in b*c a value of row b, is
    undefined.  Where one mask test shows that of every such b, row a
    gathers only the blocks with a*b defined; else it gathers all."""
    n, rows = c.n, c.nabla.rows
    basis = [*map((1).__lshift__, range(n)), 0]
    many = (*{*rows}.difference(basis),)
    basis += many
    cells = tuple(map(dict(zip(basis, count())).__getitem__, rows))
    pick, cut = _getter(cells), Rel._unchecked(len(many), n, many)
    canon = pick(basis)  # one object per distinct cell: equal rows compare by identity
    lhs = pick((*zip(*[iter(canon)] * n), (0,) * n, *cut.whisker_right_blocks(n, c.nabla)))
    full, seen, lines = (1 << n) - 1, {}, [*zip(*[iter(cells)] * n)]
    defined = reduce(or_, c.delta.rows, 0)  # bit a*n + b where a*b is defined
    rights = zip(*[iter(canon)] * n, repeat(0, n), *cut.whisker_right_blocks(n, c.swapped))
    for a, left, right in zip(range(n), zip(*[iter(lhs)] * n), rights):
        d = defined >> a * n & full  # the b with a*b defined: the key of row a's gathers
        if d not in seen:
            keep = range(n) if reduce(or_, compress(c.row_values, map(not_, right)), 0) & d else (
                tuple(compress(range(n), right)))  # the mask test
            seen[d] = keep, _getter(tuple(chain.from_iterable(map(lines.__getitem__, keep))))
        keep, gather = seen[d]
        got, want = tuple(chain.from_iterable(map(left.__getitem__, keep))), gather(right)
        if got != want:
            yield from (((a * n + b) * n, got[k:k + n], want[k:k + n])
                        for b, k in zip(keep, count(0, n)) if got[k:k + n] != want[k:k + n])


def _left_unit(c: FrobeniusCandidate) -> Iterator[tuple]:  # (bot ⊗ id) >> nabla
    return _differing_blocks(c.bot_vec.whisker_right_blocks(c.n, c.nabla), (identity(c.n).rows,))


def _right_unit(c: FrobeniusCandidate) -> Iterator[tuple]:
    # (id ⊗ bot) >> nabla is (bot ⊗ id) >> (swap >> nabla)
    return _differing_blocks(c.bot_vec.whisker_right_blocks(c.n, c.swapped),
                             (identity(c.n).rows,))


def _special(c: FrobeniusCandidate) -> Iterator[tuple]:  # delta >> nabla
    return _differing_blocks(((c.delta >> c.nabla).rows,), (identity(c.n).rows,))


def _commutativity(c: FrobeniusCandidate) -> Iterator[tuple]:  # swap >> nabla
    return _differing_blocks(zip(*[iter(c.swapped.rows)] * c.n), zip(*[iter(c.nabla.rows)] * c.n))


def _slice_blocks(c: FrobeniusCandidate) -> Sequence[int]:
    """The blocks a where a single-valued nabla's fiber and split-left may
    differ: all, unless every slice D_z[x] has at most one bit; then those
    where slice x, over j, differs: D_{a*j}[x] in the fiber, y'*j in
    split-left where D_a[x] = {y'}, or empty where D_a[x] is empty.
    Lemma: slice x of block a is empty on both sides unless row x's values
    meet a (else D_a[x] is empty) or row a's (else each D_{a*j}[x] is), so
    each block is read only at those x.  A table with a two-bit slice, such
    as a sparse partial one, falls back to every block: falling back per
    block instead measured slower on a 2-vCPU VM (partial n = 36
    interchange 1.26 → 1.85 ms; the verify streams' parse + verify 3–4 %)."""
    n, delta = c.n, c.delta
    # slices[x][z + 1] = D_z[x] = {y} as y + 1, 0 when empty: a bit length,
    # like the products', so an undefined product gathers slices[x][0]
    slices = [[0] * (n + 1) for _ in range(n)]
    for z, ps in enumerate(delta.positions, 1):
        for x, y in map(divmod, ps, repeat(n)):
            if slices[x][z]:  # a second y' with x*y' = z
                return range(n)
            slices[x][z] = y + 1
    table = [(0,) * n, *zip(*[iter(map(int.bit_length, c.nabla.rows))] * n)]  # [y' + 1]: row y'
    meets = [*map(or_, map((1).__lshift__, range(n)), c.row_values)]  # a and row a's values
    near = {m: [*map(and_, c.row_values, repeat(m))] for m in {*meets}}
    return [a for a, row, col, at in zip(range(n), table[1:], islice(zip(*slices), 1, None),
                                          map(near.__getitem__, meets))
            if tuple(map(_getter(row), compress(slices, at))) != tuple(
                map(table.__getitem__, compress(col, at)))]


def _interchange(c: FrobeniusCandidate) -> Iterator[tuple]:
    """Blocks of the fiber and the split-left wherever the two differ.

    Split-right, (id ⊗ delta) >> (nabla ⊗ id), is the converse of split-left,
    (delta ⊗ id) >> (id ⊗ nabla), because delta is nabla's converse; and the
    fiber nabla >> delta is its own converse.  So once split-left equals the
    fiber, split-right does too, and it is never computed.
    """
    n, nab, delta = c.n, c.nabla, c.delta
    blocks = _slice_blocks(c) if c.is_single_valued() else range(n)
    if not blocks:
        return iter(())
    fiber = (nab >> delta).rows
    lefts = delta if len(blocks) == n else Rel._unchecked(
        len(blocks), n * n, tuple(map(delta.rows.__getitem__, blocks)))
    return ((a * n, fiber[a * n:(a + 1) * n], left)
            for a, left in zip(blocks, lefts.whisker_right_blocks(n, nab, n))
            if fiber[a * n:(a + 1) * n] != left)


def _first(blocks: Iterator[tuple], witness: Callable[..., tuple]) -> Verdict:
    """A route's verdict: the witness is built from the first differing row's
    index, got set and wanted set."""
    for start, got, want in blocks:
        q = next(_differing_rows(got, want))
        return Verdict(False, witness(start + q, frozenset(bits(got[q])),
                                      frozenset(bits(want[q]))))
    return Verdict(True)


def _interchange_verdict(c: FrobeniusCandidate) -> Verdict:
    # D = split-left xor fiber, on the rows where the two differ
    diff = {start + q: fiber[q] ^ left[q] for start, fiber, left in _interchange(c)
            for q in _differing_rows(fiber, left)}
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
        n = c.n

        def point(x, got, _):
            return x, got
        c._report = AxiomReport(
            n=n,
            associativity=_first(_associativity(c),
                                 lambda p, lhs, rhs: (*divmod(p // n, n), p % n, lhs, rhs)),
            left_unit=_first(_left_unit(c), point),
            right_unit=_first(_right_unit(c), point),
            commutativity=_first(_commutativity(c), lambda p, *sets: (*divmod(p, n), *sets)),
            special=_first(_special(c), point),
            frobenius=_interchange_verdict(c),
            frobenius_pointwise=check_fro_pointwise(c) if c.is_single_valued() else None,
            empty_carrier=(c.n == 0),
        )
    return c._report


def satisfies_axioms(c: FrobeniusCandidate, commutative: bool = True) -> bool:
    """The report's ``is_classical`` (``is_special_frobenius`` when not
    commutative), from the composite routes alone: cheapest axiom first, up
    to the first block that differs, with no report built unless one is
    cached.
    """
    if c._report is not None:
        return c._report.is_classical if commutative else c._report.is_special_frobenius
    routes = [_special, _left_unit, _right_unit, _interchange, _associativity]
    if commutative:
        routes.insert(3, _commutativity)
    return all(next(route(c), None) is None for route in routes)


def _sets_at(index: tuple, i: int, j: int) -> tuple[frozenset, set, set]:
    # each set costs the size of one fiber, not a scan of the table
    lines, fibers, pairs = index
    n, li = len(pairs) - 1, lines[i]
    split_left = {x * n + z for x, yp in pairs[i] if (z := lines[yp][j]) < n}  # (x, yp*j)
    split_right = {z * n + y for xp, y in pairs[j] if (z := li[xp]) < n}      # (i*xp, y)
    return fibers[li[j]], split_left, split_right


def check_fro_pointwise(c: FrobeniusCandidate) -> Verdict:
    """Interchange law evaluated pointwise on the partial operation.

    Raises ValueError when the multiplication is not single-valued, naming
    the first offending input pair.  The verdict mirrors the composite
    check exactly: same witness, same violation tuple.

    nabla is decoded once, into the product table: x*y, or n where
    undefined.  A sweep of gathers of its rows and three sums accepts a
    passing table on which no row or column repeats a defined value, as
    every group and groupoid; every other table goes through one exact
    loop, which reads the same rows and lists the pairs of each value.
    Lemma for the accept: at (i, j) let d count the x*y' = i with y'*j
    defined, h those with x*(y'*j) = i*j defined, f = |F(i*j)|.  Row x
    fixes y', so split-left holds d distinct pairs (x, y'*j), h in the
    fiber: h <= d, h <= f, both equal exactly when split-left is the
    fiber; so too for their sums over all pairs.  Row x padded with n,
    gathered at row y', is x*(y'*j) for all j.  Where it is row x*y' at
    each defined x*y' (none is read elsewhere), the sums are those of
    |F(z)|·|row z|, |row y|·|column y|, |F(z)|²: split-left is the fiber,
    so is split-right, its converse.  The sweep serves the groups at the
    carrier cap: deciding them by per-pair counts measured 5× slower on a
    2-vCPU VM (Z128 39 → 205 ms, Z32 1.0 → 3.9 ms).

    The exact loop builds the sets at defined pairs only.  Lemma: an
    undefined (i, j) violates the law exactly when j is in row i's mask:
    the OR of the defined columns of the right factors y' of i and of the
    values of the x' with i*x' defined.  There the fiber is empty;
    split-left, the (x, y'*j) over x*y' = i, is not empty exactly when
    some y'*j is defined, and split-right, the (i*x', y) over x'*y = j,
    exactly when some x' with i*x' defined has j among its values.
    """
    n, rows = c.n, c.nabla.rows
    if not c.is_single_valued():
        p = next(p for p, row in enumerate(rows) if row & (row - 1))
        raise ValueError(f"multiplication is not single-valued at {divmod(p, n)}: "
                         f"values {[*bits(rows[p])]}")
    table = tuple(map([n, *range(n)].__getitem__, map(int.bit_length, rows)))  # x*y, or n
    lines = [(*table[x * n:(x + 1) * n], n) for x in range(n)]  # the rows padded with n
    rowdef = [*map(int.bit_count, c.row_values)]  # values per row, then per column
    if sum(rowdef) == n * n - rows.count(0) == sum(coldef := [  # no line repeats a value
            *map(int.bit_count, map(reduce, repeat(or_), zip(*[iter(c.swapped.rows)] * n)))]):
        cols = [*islice(zip(*lines), n)]
        sizes = [*map(Counter(table).get, range(n), repeat(0))]
        if sum(map(mul, sizes, rowdef)) == sum(map(mul, rowdef, coldef)) == sum(
                map(mul, sizes, sizes)) and all(map(
                    eq, chain.from_iterable(  # column y: row x at row y, where x*y is defined
                        map(itemgetter(*r), compress(lines, map(n.__ne__, col)))
                        for r, col in zip(lines, cols)),
                    map(lines.__getitem__, filter(n.__ne__, chain.from_iterable(cols))))):
            return Verdict(True)  # no sets built
    # pairs[z]: the (x, y) with x*y = z in code order, and ys[x]: row x's defined columns
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    ys: list[list[int]] = [[] for _ in range(n)]
    for p, z in zip(compress(count(), rows), compress(table, rows)):
        x, y = xy = divmod(p, n)
        pairs[z].append(xy)
        ys[x].append(y)
    index = lines, [frozenset(x * n + y for x, y in ps) for ps in pairs], pairs
    defined = [sum(map((1).__lshift__, yi)) for yi in ys]
    violations = []
    for i, yi in enumerate(ys):
        mask = reduce(or_, map(defined.__getitem__, map(itemgetter(1), pairs[i])), 0)
        mask |= reduce(or_, map(c.row_values.__getitem__, yi), 0)
        bad = [*bits(mask & ~defined[i])]
        for j in yi:
            fiber, split_left, split_right = _sets_at(index, i, j)
            if not fiber == split_left == split_right:
                bad.append(j)
        violations += zip(repeat(i), sorted(bad))
    if not violations:
        return Verdict(True)
    i, j = violations[0]
    sets = (frozenset(divmod(p, n) for p in sorted(codes)) for codes in _sets_at(index, i, j))
    return Verdict(False, FroWitness(i, j, *sets), tuple(violations))
