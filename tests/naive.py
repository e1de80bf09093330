"""Reference implementations used only by the tests.

Relations here are frozensets of (source, target) pairs with the carrier
sizes passed explicitly.  Everything is written for obviousness rather
than speed, so it can act as an independent check on the bitset code.
``search`` is a cell-by-cell table search, a different algorithm from the
skeleton-first search and the reference for its results.
``labeled_search`` fills every labeled skeleton that ``labeled_skeletons``
walks, with the fill of the class route, and lists the tables it yields
skeleton by skeleton: the labeled reference that the class route's
classes, and the orbits ``brute_force_search`` lists, are checked against.
``quotient`` keys every table by all n! relabelings (``least_key``), the
reference for the classes of ``quotient_by_iso`` and for its branch and
bound representatives.  ``skeleton_type`` canonicalizes a labeled
skeleton by every permutation of its units, the reference for the types
that ``search_classes`` generates.  ``parse_structure`` checks and converts
a structure text line by line, triple by triple and unit by unit, the
reference for the parser, which checks all the triples at once.
``classical_masks`` copy-tests all 2^n subsets, the reference for the scan
over the subsets of the points one unit fixes.  ``structures`` takes the
group choices per part of every integer partition and sorts the specs, the
reference for the enumeration's walk, which emits them in order.
"""

from __future__ import annotations

from collections import Counter
from itertools import (chain, combinations, combinations_with_replacement, permutations,
                       product)

from relfrob import (BudgetExceededError, FrobeniusCandidate, Rel, StructureParseError,
                     StructureSpec, satisfies_axioms)
from relfrob.classify import _fill
from relfrob.frobenius import CARRIER_LIMIT, quoted


def compose(r: frozenset, s: frozenset) -> frozenset:
    by_source: dict[int, set[int]] = {}
    for b, c in s:
        by_source.setdefault(b, set()).add(c)
    return frozenset((a, c) for a, b in r for c in by_source.get(b, ()))


def converse(r: frozenset) -> frozenset:
    return frozenset((b, a) for a, b in r)


def tensor(r: frozenset, rdims: tuple[int, int],
           s: frozenset, sdims: tuple[int, int]) -> frozenset:
    (_, _), (sdom, scod) = rdims, sdims
    return frozenset((a * sdom + c, b * scod + d) for a, b in r for c, d in s)


def identity_pairs(n: int) -> frozenset:
    return frozenset((i, i) for i in range(n))


def swap(m: int, n: int) -> frozenset:
    """The symmetry m*n -> n*m sending (a, b) to (b, a)."""
    return frozenset((a * n + b, b * m + a) for a in range(m) for b in range(n))


def products_of(triples) -> dict[tuple[int, int], set[int]]:
    prod: dict[tuple[int, int], set[int]] = {}
    for x, y, z in triples:
        prod.setdefault((x, y), set()).add(z)
    return prod


def axioms(n: int, triples, bot) -> dict[str, bool]:
    """Check every structure axiom directly from the definitions."""
    prod = products_of(triples)
    bot = set(bot)

    def get(x, y):
        return prod.get((x, y), set())

    rng = range(n)
    assoc = all(
        {w for m in get(a, b) for w in get(m, c)}
        == {w for m in get(b, c) for w in get(a, m)}
        for a in rng for b in rng for c in rng)
    left_unit = all({z for e in bot for z in get(e, x)} == {x} for x in rng)
    right_unit = all({z for e in bot for z in get(x, e)} == {x} for x in rng)
    comm = all(get(x, y) == get(y, x) for x in rng for y in rng)
    special = all(
        {w for zs in prod.values() if x in zs for w in zs} == {x} for x in rng)

    fiber, left, right = frobenius_routes(n, triples)
    return {
        "associativity": assoc,
        "left_unit": left_unit,
        "right_unit": right_unit,
        "commutativity": comm,
        "special": special,
        "frobenius": fiber == left == right,
    }


def frobenius_routes(n: int, triples):
    """The three interchange composites as pair sets on the square carrier."""
    nab = frozenset((x * n + y, z) for x, y, z in triples)
    delta = converse(nab)
    idn = identity_pairs(n)
    sq = n * n
    fiber = compose(nab, delta)
    left = compose(tensor(delta, (n, sq), idn, (n, n)),
                   tensor(idn, (n, n), nab, (sq, n)))
    right = compose(tensor(idn, (n, n), delta, (n, sq)),
                    tensor(nab, (sq, n), idn, (n, n)))
    return fiber, left, right


def frobenius_sets_at(n: int, triples, i: int, j: int) -> tuple:
    """The fiber, split-left and split-right at the input pair (i, j), each
    as a set of pairs (x, y)."""
    p = i * n + j
    return tuple(frozenset(divmod(t, n) for s, t in route if s == p)
                 for route in frobenius_routes(n, triples))


def search(n: int, commutative: bool = True, budget: int | None = None):
    """A cell-by-cell table search, with every prune rule recomputed by rescanning.

    Unlike the skeleton-first search, it fixes no units in advance: each cell
    takes every value and "undefined" in turn, and the unit set of a leaf
    is the set of its two-sided partial identities.  It prunes by four
    rules, each rescanned at every node: cancellation (no row and no
    column holds one defined value twice), associativity over the decided
    cells, unit coverage (every x keeps a possible unit on each side) and
    inverses (every x keeps an a with x*a and a*x possible units).
    Cancellation and inverses rest on the lemmas proved for
    ``search_classes``.  A cell never changes below the node that
    decides it, so a unit ruled out at a node stays ruled out below it,
    and a rule that fails at a node fails at every leaf below it.
    Returns the found candidates, sorted as the search sorts them, and the
    nodes explored; raises ``BudgetExceededError`` on an exhausted budget.
    """
    unassigned, undef = -2, -1
    if commutative:
        cells = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        cells = [(i, j) for i in range(n) for j in range(n)]
    table = [[unassigned] * n for _ in range(n)]
    found = []
    explored = 0

    def triple_ok(a, b, c):
        ab, bc = table[a][b], table[b][c]
        left = ab if ab < 0 else table[ab][c]
        right = bc if bc < 0 else table[a][bc]
        return left == unassigned or right == unassigned or left == right

    def affected_ok(p, q):
        return (all(triple_ok(p, q, c) for c in range(n))
                and all(triple_ok(a, p, q) for a in range(n))
                and all(triple_ok(a, b, q) for a in range(n) for b in range(n)
                        if table[a][b] == p)
                and all(triple_ok(p, b, c) for b in range(n) for c in range(n)
                        if table[b][c] == q))

    def cancels():
        for line in table + list(zip(*table)):
            defined = [v for v in line if v >= 0]
            if len(set(defined)) < len(defined):
                return False
        return True

    def disqualified(e):
        return any(0 <= table[e][y] != y or 0 <= table[y][e] != y for y in range(n))

    def units_feasible():
        live = [e for e in range(n) if not disqualified(e)]
        open_unit = {unassigned, *live}
        return all(
            any(table[e][x] in (x, unassigned) for e in live)
            and any(table[x][e] in (x, unassigned) for e in live)
            and any(table[x][a] in open_unit and table[a][x] in open_unit for a in range(n))
            for x in range(n))

    def descend(k):
        nonlocal explored
        if k == len(cells):
            bot = [e for e in range(n) if not disqualified(e)]
            triples = [(i, j, table[i][j]) for i in range(n) for j in range(n)
                       if table[i][j] >= 0]
            cand = FrobeniusCandidate.from_triples(n, triples, bot)
            if satisfies_axioms(cand, commutative):
                found.append(cand)
            return
        i, j = cells[k]
        for v in list(range(n)) + [undef]:
            explored += 1
            if budget is not None and explored > budget:
                raise BudgetExceededError(explored, found)
            table[i][j] = v
            if commutative:
                table[j][i] = v
            if cancels() and affected_ok(i, j) and units_feasible():
                descend(k + 1)
            table[i][j] = unassigned
            if commutative:
                table[j][i] = unassigned

    descend(0)
    found.sort(key=lambda c: (c.triples(), tuple(sorted(c.bot))))
    return found, explored


def labeled_skeletons(n: int, commutative: bool):
    """Every labeled skeleton (bot, l, r, 1), fewest units first, in which
    each non-empty H(e, e') has a non-empty H(e', e), as the hom-set lemma
    of ``search_classes`` requires of a skeleton that carries a table; the
    count 1 stands for the skeleton alone, as ``_fill`` reads it."""
    for size in range(n + 1):
        for bot in combinations(range(n), size):
            rest = [x for x in range(n) if x not in bot]
            for lefts in product(bot, repeat=len(rest)):
                for rights in [lefts] if commutative else product(bot, repeat=len(rest)):
                    l, r = list(range(n)), list(range(n))
                    for x, e, e2 in zip(rest, lefts, rights):
                        l[x], r[x] = e, e2
                    hom = set(zip(l, r))
                    if all((e2, e) in hom for e, e2 in hom):
                        yield bot, l, r, 1


def labeled_search(cfg) -> list[FrobeniusCandidate]:
    """Every table on the labeled carrier that passes the axiom checker,
    sorted by (triples, sorted bot): each labeled skeleton filled as the
    class route fills its one skeleton per type, and the tables that
    ``_fill`` yields per skeleton flattened into one list.  ``cfg.budget``
    counts one node per labeled skeleton and one per cell value tried."""
    return sorted((c for _, tables in _fill(cfg, labeled_skeletons) for c in tables),
                  key=lambda c: (c.triples(), tuple(sorted(c.bot))))


def least_key(n: int, triples, bot) -> tuple:
    """The least (sorted triples, sorted bot) over all n! relabelings: the
    representative of the table's class, by sweeping every relabeling."""
    return min((tuple(sorted((s[x], s[y], s[z]) for x, y, z in triples)),
                tuple(sorted(s[e] for e in bot)))
               for s in permutations(range(n)))


def quotient(cands) -> list:
    """The relabeling classes as ((triples, sorted bot), size), sorted.

    Each table's key is its ``least_key``, so the key is the class
    representative ``quotient_by_iso`` returns.
    """
    classes: dict[tuple, int] = {}
    for cand in cands:
        key = least_key(cand.n, cand.triples(), cand.bot)
        classes[key] = classes.get(key, 0) + 1
    return sorted(classes.items())


def skeleton_type(hom: dict) -> tuple:
    """The type of a labeled skeleton given by its hom-sets H(e, e'): the
    matrix of |H(e, e')|, least over every simultaneous permutation of the
    units, each unit in its own H(e, e)."""
    return min(tuple(len(hom.get((e, e2), ())) for e in p for e2 in p)
               for p in permutations(sorted({e for e, _ in hom})))


def partitions(n: int) -> list[tuple[int, ...]]:
    """Integer partitions of n, parts non-increasing, reverse-lexicographic.

    partitions(0) is [()]: the empty carrier has the empty partition.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    out: list[tuple[int, ...]] = []

    def rec(left: int, cap: int, prefix: tuple[int, ...]):
        if left == 0:
            out.append(prefix)
            return
        for k in range(min(left, cap), 0, -1):
            rec(left - k, k, prefix + (k,))

    rec(n, n, ())
    return out


def structures(n: int, choices_per_order) -> list[StructureSpec]:
    """The specs of n points in ``sort_key`` order: for each partition of n,
    every multiset of choices_per_order(m) for the parts of size m."""
    specs = []
    choices = {m: choices_per_order(m) for m in range(1, n + 1)}
    for part in partitions(n):
        per_size = [combinations_with_replacement(choices[m], count)
                    for m, count in sorted(Counter(part).items())]
        for combo in product(*per_size):
            specs.append(StructureSpec(tuple(chain.from_iterable(combo))))
    return sorted(specs, key=StructureSpec.sort_key)


def parse_structure(text: str) -> FrobeniusCandidate:
    n: int | None = None
    triples: list[tuple[int, int, int, int]] = []  # (line, x, y, z)
    units: list[tuple[int, list[int]]] = []  # (line, values of one bot line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        field, *rest = line.split()
        try:
            values = [int(tok) for tok in rest]
        except ValueError:
            raise StructureParseError(lineno, f"non-integer token in {quoted(field)} line")
        if field == "n":
            if n is not None:
                raise StructureParseError(lineno, "repeated n line")
            if len(values) != 1 or values[0] < 0:
                raise StructureParseError(lineno, "n takes one non-negative integer")
            if values[0] > CARRIER_LIMIT:
                raise StructureParseError(
                    lineno, f"carrier size {values[0]} exceeds the limit {CARRIER_LIMIT}")
            n = values[0]
        elif field == "nabla":
            if len(values) != 3:
                raise StructureParseError(lineno, "nabla takes three integers x y z")
            if len(triples) == CARRIER_LIMIT ** 2:
                raise StructureParseError(
                    lineno, f"more than {CARRIER_LIMIT ** 2} nabla lines")
            triples.append((lineno, *values))
        elif field == "bot":
            units.append((lineno, values))
        else:
            raise StructureParseError(lineno, f"unknown field {quoted(field)}")

    if n is None:
        raise StructureParseError(0, "missing n line")
    rows = [0] * (n * n)
    for lineno, x, y, z in triples:
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise StructureParseError(lineno, f"triple ({x}, {y}, {z}) outside carrier 0..{n - 1}")
        if rows[x * n + y] >> z & 1:
            raise StructureParseError(lineno, f"duplicate triple ({x}, {y}, {z})")
        rows[x * n + y] |= 1 << z
    bot: set[int] = set()
    for lineno, values in units:
        for e in values:
            if not 0 <= e < n:
                raise StructureParseError(lineno, f"unit element {e} outside carrier 0..{n - 1}")
            if e in bot:
                raise StructureParseError(lineno, f"duplicate unit element {e}")
            bot.add(e)
    return FrobeniusCandidate(n, Rel(n * n, n, rows), bot)


def classical_masks(c: FrobeniusCandidate) -> list[int]:
    """Bit masks of the copyable subsets that meet the unit subset."""
    n = c.n
    # fiber[z]: the pairs multiplying to z, as one n*n-bit mask
    fibers = c.delta.rows
    bot_mask = c.bot_vec.rows[0]
    out = []
    for phi in range(1, 1 << n):
        copied = 0
        square = 0
        rest = phi
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            rest ^= low
            copied |= fibers[a]
            square |= phi << (a * n)
        if copied == square and phi & bot_mask:
            out.append(phi)
    return out
