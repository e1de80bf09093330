"""Enumeration and exhaustive search for structures on small carriers.

Two independent routes to the same inventory: ``enumerate_classical_structures``
lists the multisets of abelian groups of total order n in canonical order, while
the search picks the units and each element's left and right unit, fills in the
composable cells of the multiplication table, and keeps whatever passes the
axiom checker.
``search_classes`` fills one skeleton per relabeling type, the one search walk,
and quotients each type's tables as they are filled;
``brute_force_search`` lists the orbits of its representatives, ``relfrob
brute-force`` prints its classes, and ``cross_validate`` compares them with the
enumeration: the computational content of the classification, every
commutative structure is a disjoint union of abelian groups.
The search and the relabeling quotient share one cap, ``SEARCH_CARRIER_LIMIT``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from math import factorial

from .frobenius import FrobeniusCandidate, satisfies_axioms
from .groups import (StructureSpec, _block_key, enumerate_abelian_groups,
                     nonabelian_groups_of_order)
from .rel import Rel

SEARCH_CARRIER_LIMIT = 6
SPECIAL_ENUM_LIMIT = 8
ENUM_CARRIER_LIMIT = 32

_EMPTY = -1  # a cell with no product: undefined, or not decided yet


def _structures_from_choices(n: int, choices_per_order) -> list[StructureSpec]:
    # a spec is a non-decreasing tuple of indices into the blocks sorted by
    # _block_key, and sort_key orders one n's specs as (length, tuple): walk
    # each length's tuples lexicographically, entering a branch only if its
    # slots can still sum to the rest (each order up to n has a cyclic block)
    blocks = sorted((b for m in range(1, n + 1) for b in choices_per_order(m)),
                    key=_block_key)
    orders = [b.order for b in blocks]
    specs = [] if n else [StructureSpec(())]

    def walk(rest: int, slots: int, first: int, prefix: tuple):
        if slots == 1:
            for i in range(bisect_left(orders, rest, first), bisect_right(orders, rest)):
                specs.append(StructureSpec(prefix + (blocks[i],)))
            return
        for i in range(first, len(blocks)):
            if orders[i] * slots > rest:
                break
            walk(rest - orders[i], slots - 1, i, prefix + (blocks[i],))

    for slots in range(1, n + 1):
        walk(n, slots, 0, ())
    return specs


def enumerate_classical_structures(n: int) -> list[StructureSpec]:
    """All commutative structures on n points up to relabeling.

    One spec per multiset of abelian groups with total order n, in
    ``sort_key`` order.  Their number grows fast (27 021 at n = 32), so n
    is capped at ``ENUM_CARRIER_LIMIT``, checked before any spec is built.
    """
    if n < 0:
        raise ValueError(f"carrier size {n} is negative")
    if n > ENUM_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the enumeration bound {ENUM_CARRIER_LIMIT}")
    return _structures_from_choices(n, enumerate_abelian_groups)


def enumerate_special_frobenius(n: int) -> list[StructureSpec]:
    """Like the classical enumeration but non-abelian blocks are allowed.

    Bounded by the built-in table library, which covers orders up to 8.
    """
    if n < 0:
        raise ValueError(f"carrier size {n} is negative")
    if n > SPECIAL_ENUM_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the built-in group table bound {SPECIAL_ENUM_LIMIT}")

    def choices(m: int):
        return enumerate_abelian_groups(m) + nonabelian_groups_of_order(m)

    return _structures_from_choices(n, choices)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exhaustive table search."""

    n: int
    require_commutative: bool = True
    budget: int | None = None


class BudgetExceededError(RuntimeError):
    """Search ran out of node budget; ``found`` holds the tables accepted
    so far on the skeletons placed, one per type, not their orbits."""

    def __init__(self, explored: int, found: list):
        super().__init__(f"search budget exhausted after {explored} nodes")
        self.explored = explored
        self.found = found


def brute_force_search(cfg: SearchConfig) -> list[FrobeniusCandidate]:
    """Every structure on the labeled carrier passing the axiom checker.

    The union of the orbits of ``search_classes``' representatives under
    all n! relabelings, sorted by (triples, sorted ``bot``).  Each orbit
    must have as many tables as its class size, which the route counts by
    closed forms; by orbit-stabilizer it has n!/|Aut| of them, so a
    mismatch raises ``RuntimeError``.  ``budget`` counts the class route's
    nodes.
    """
    n, keys = cfg.n, set()
    for (triples, bot), size in _class_keys(cfg):
        orbit = {_canonical_key(triples, bot, sigma) for sigma in permutations(range(n))}
        if len(orbit) != size:
            raise RuntimeError(f"a class of {size} tables has an orbit of {len(orbit)}")
        keys |= orbit
    return [FrobeniusCandidate.from_triples(n, triples, bot) for triples, bot in sorted(keys)]


def _fill(cfg: SearchConfig, skeletons):
    # fills each skeleton (bot, l, r, count) that skeletons(n, commutative)
    # yields, and yields count and the tables on the skeleton that pass; one
    # node per skeleton and one per cell value tried
    n, budget, commutative = cfg.n, cfg.budget, cfg.require_commutative
    if n < 0:
        raise ValueError(f"carrier size {n} is negative")
    if n > SEARCH_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the exhaustive search bound {SEARCH_CARRIER_LIMIT}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} is negative")

    table: list[list[int]] = []
    found: list[FrobeniusCandidate] = []  # every table accepted so far
    explored = 0

    def tried():
        nonlocal explored
        explored += 1
        if budget is not None and explored > budget:
            raise BudgetExceededError(explored, found)

    def associative(p: int, q: int) -> bool:
        # (a*b)*c against a*(b*c) on the triples (p, q, c) and (a, p, q),
        # which read the cell p*q as an inner product.  Once a*b and b*c are
        # defined both sides are, by composability, so an empty cell on
        # either side is one not decided yet.  The triples that read p*q as
        # an outer product are left to the leaf check: scanning for them
        # costs more than it prunes.
        row_p, row_q, z = table[p], table[q], table[p][q]
        pairs = [(table[z][c], row_p[qc]) for c, qc in enumerate(row_q) if qc >= 0]
        pairs += [(table[row_a[p]][q], row_a[z]) for row_a in table if row_a[p] >= 0]
        return all(u == v or u < 0 or v < 0 for u, v in pairs)

    def fill(cells: list, k: int, bot: tuple[int, ...]):
        if k == len(cells):
            rows = [1 << z if z >= 0 else 0 for row in table for z in row]
            cand = FrobeniusCandidate(n, Rel(n * n, n, rows), bot)
            if satisfies_axioms(cand, commutative):
                found.append(cand)
            return
        p, q, hom = cells[k]
        for z in hom:
            tried()
            # cancellation; a commutative table is symmetric, so there row p
            # and column q also stand for column p and row q
            if z in table[p] or any(row[q] == z for row in table):
                continue
            table[p][q] = z
            if commutative:
                table[q][p] = z
            # a commutative table stays symmetric: a triple (c, b, a) that
            # reads q*p mirrors a triple (a, b, c) that reads p*q, and the
            # two checks agree
            if associative(p, q):
                fill(cells, k + 1, bot)
            table[p][q] = _EMPTY
            if commutative:
                table[q][p] = _EMPTY

    for bot, l, r, count in skeletons(n, commutative):
        tried()
        hom: dict[tuple[int, int], list[int]] = {}
        for x in range(n):
            hom.setdefault((l[x], r[x]), []).append(x)
        # l(y)*y = y and x*r(x) = x; every other cell starts empty
        table[:] = [[y if x == l[y] else x if y == r[x] else _EMPTY
                     for y in range(n)] for x in range(n)]
        # from n = 7 on H(l(x), r(y)) can be empty: such a cell takes no value
        rest = [x for x in range(n) if x not in bot]
        cells = [(x, y, hom.get((l[x], r[y]), ())) for x in rest for y in rest
                 if r[x] == l[y] and (x <= y or not commutative)]
        start = len(found)
        fill(cells, 0, bot)
        yield count, found[start:]


def _canonical_key(triples, bot, sigma) -> tuple:
    return (tuple(sorted((sigma[x], sigma[y], sigma[z]) for x, y, z in triples)),
            tuple(sorted(sigma[e] for e in bot)))


def _refine(triples, colour: list[int], ids: dict) -> list[int]:
    # colour refinement: a point's next colour is the id of its colour and
    # the multiset of (role, colours of the other two points) over the
    # triples it occurs in, until the number of colours stops growing; ids
    # is shared, so equal signatures get equal ids
    n, count = len(colour), len(set(colour))
    while count < n:
        seen: list[list[tuple]] = [[] for _ in range(n)]
        for x, y, z in triples:
            cx, cy, cz = colour[x], colour[y], colour[z]
            seen[x].append((0, cy, cz))
            seen[y].append((1, cx, cz))
            seen[z].append((2, cx, cy))
        for signature in seen:
            signature.sort()
        refined = [ids.setdefault((c, *signature), len(ids)) for c, signature in zip(colour, seen)]
        if len(set(refined)) == count:
            return refined
        colour, count = refined, len(set(refined))
    return colour


def _swap_test(n: int, triples, bot):
    # whether swapping x and y maps the table and bot onto themselves
    held = set(triples)
    known: dict[tuple[int, int], bool] = {}

    def fixes(x: int, y: int) -> bool:
        if (x, y) not in known:
            swap = list(range(n))
            swap[x], swap[y] = y, x
            known[x, y] = known[y, x] = ((x in bot) == (y in bot)
                                         and all((swap[u], swap[v], swap[w]) in held
                                                 for u, v, w in held))
        return known[x, y]

    return fixes


def _leaf_keys(n: int, triples, bot, ids: dict):
    # the key of each leaf of the individualization-refinement tree, twins
    # pruned, depth first; twins are found only once a second child is due
    root = _refine(triples, [ids.setdefault(x in bot, len(ids)) for x in range(n)], ids)
    twins: list = []  # the swap test, made once a second child is due

    def visit(colour: list[int]):
        ranked = sorted(set(colour))
        if len(ranked) == n:
            rank = {c: k for k, c in enumerate(ranked)}
            yield _canonical_key(triples, bot, [rank[c] for c in colour])
            return
        target = next(c for c in ranked if colour.count(c) > 1)
        done: list[int] = []
        for x in range(n):
            if colour[x] != target:
                continue
            if done:
                twins[:] = twins or [_swap_test(n, triples, bot)]
                if any(twins[0](x, y) for y in done):
                    continue
            done.append(x)
            child = colour[:]
            child[x] = ids.setdefault(("individualized", target), len(ids))
            yield from visit(_refine(triples, child, ids))

    return visit(root)


def _least_key(n: int, triples, bot) -> tuple:
    # the least key over all n! relabelings, by branch and bound: labels
    # 0, 1, ... are given in turn, and a partial labeling is dropped once
    # every completion's triples sort after the least key found
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, y, z in triples:
        rows[x].append((y, z))
    twins: list = []  # the swap test, made once a second child is due
    lab = [-1] * n
    order: list[int] = []
    best = None

    def bound(j: int) -> list[tuple]:
        # with labels 0..j-1 given: the sorted triples every completion
        # shares, then a lower bound on the next one, if any; at j = n the
        # relabeled triples in order
        out: list[tuple] = []
        for a, p in enumerate(order):
            known, open_b, tail, tail_c, diagonal = [], n, 0, j, True
            for y, z in rows[p]:
                b, c = lab[y], lab[z]
                if b < 0:
                    tail += 1
                    if y != z:
                        diagonal = False
                    if 0 <= c < tail_c:
                        tail_c = c
                elif c < 0:
                    if b < open_b:
                        open_b = b
                else:
                    known.append((a, b, c))
            known.sort()
            if open_b < n:
                return out + [t for t in known if t[1] <= open_b] + [(a, open_b, j)]
            out += known
            if tail and not (diagonal and tail == n - j):
                return out + [(a, j, tail_c)]
            if tail:
                out += [(a, b, b) for b in range(j, n)]
        return out + [(j, 0, 0)] if len(out) < len(triples) else out

    def worse(lower: list[tuple]) -> bool:
        for t, u in zip(lower, best[0]):
            if t != u:
                return t > u
        return False

    def visit(j: int):
        nonlocal best
        rest = [x for x in range(n) if lab[x] < 0]
        if len(rest) <= 2:
            # each completion is a leaf
            for ending in {tuple(rest), tuple(reversed(rest))}:
                for k, x in enumerate(ending):
                    lab[x] = j + k
                order.extend(ending)
                key = (tuple(bound(n)), tuple(sorted(lab[e] for e in bot)))
                if best is None or key < best:
                    best = key
                for x in ending:
                    lab[x] = -1
                    order.pop()
            return
        children = []
        for x in rest:
            lab[x] = j
            order.append(x)
            children.append((bound(j + 1), x))
            lab[x] = -1
            order.pop()
        done: list[int] = []
        for lower, x in sorted(children):
            if best is not None and worse(lower):
                continue
            if done:
                twins[:] = twins or [_swap_test(n, triples, bot)]
                if any(twins[0](x, y) for y in done):
                    continue
            done.append(x)
            lab[x] = j
            order.append(x)
            visit(j + 1)
            lab[x] = -1
            order.pop()

    visit(0)
    return best


def quotient_by_iso(cands: list[FrobeniusCandidate]) -> list[tuple[FrobeniusCandidate, int]]:
    """Group candidates by carrier relabeling; return (representative, size).

    The representative is the relabeling with the least (triples, bot) key,
    so it is a fixed point of canonicalization.  Classes are sorted by it.

    Tables are sorted into classes by individualization-refinement (McKay
    and Piperno, *Practical graph isomorphism II*, 2014).  Each point starts
    coloured by membership of ``bot`` and is recoloured by the multiset of
    (role, colours of the other two points) over the triples it occurs in,
    until the number of colours stops growing.  While a colour is held by
    two or more points, each point of the colour with the least id is in
    turn given a colour of its own, and the colouring is refined again.  A
    colour is an id drawn from one signature table shared by every table in
    the call, so it depends only on the signature.  At a leaf every point
    has its own colour, and listing the points by colour gives a relabeling
    and its key.  A relabeling sigma moves the whole tree with the table:
    sigma(x) in the relabeled table has the colour x has here, at the root
    and after each individualization, so isomorphic tables have the same
    leaf keys.  Equal keys are one relabeled table, so tables that are not
    isomorphic share no leaf key.  A table therefore joins the class whose
    recorded leaf keys hold its first leaf key, or else starts a class and
    records all of its leaf keys.  Twins are pruned: if swapping x and y
    maps the table and ``bot`` onto themselves, the swap maps the subtree
    that individualizes x onto the one that individualizes y, with the same
    keys, so only one of them is walked.  A single table needs no tree.

    The representative is computed once per class, by branch and bound
    over partial relabelings that give the labels 0, 1, ... in turn.  The
    sorted relabeled triples fall into one block per first label a, in
    order, and the block of a given label has a fixed length.  In it, the
    triples (a, b, c) with b and c labeled come first, by b, except that a
    triple (a, b, z) with z unlabeled follows those (a, b, c) with c
    labeled; triples with an unlabeled second point come last.  A block is
    known whole when it has no triple (a, b, z) with z unlabeled, and its
    triples with an unlabeled second point are (a, y, y) for every
    unlabeled y, as in a unit's row: those become (a, b, b) for every label
    b not yet given.  So every completion shares the blocks up to the first
    one not known whole and that block's leading labeled triples, and its
    next triple is no less than the same with each unlabeled point given
    the next label.  A partial labeling whose shared triples, or that
    bound, sort after the least key found has no completion that improves
    on it; every other branch is walked down to its leaves.  Twins are
    pruned as in the class keys: a completion that gives the next label to
    y is, composed with the swap, one that gives it to x, with the same
    key.  So the result is the least key over all n! relabelings.

    n is capped at ``SEARCH_CARRIER_LIMIT``, the search's cap.
    """
    return [(FrobeniusCandidate.from_triples(cands[0].n, triples, bot), size)
            for (triples, bot), size in _classes(cands)]


def _classes(cands: list[FrobeniusCandidate]) -> list[tuple[tuple, int]]:
    # quotient_by_iso with each representative as its key, in order
    if not cands:
        return []
    n = cands[0].n
    if any(c.n != n for c in cands):
        raise ValueError("candidates must share one carrier size")
    if n > SEARCH_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the relabeling bound {SEARCH_CARRIER_LIMIT}")
    classes = [[1, cands[0].triples(), cands[0].bot]]  # [size, triples, bot] of a member
    if len(cands) > 1:
        ids: dict = {}
        owner: dict[tuple, int] = {}  # leaf key: its class
        classes.clear()
        for cand in cands:
            triples = cand.triples()
            leaves = _leaf_keys(n, triples, cand.bot, ids)
            k = owner.setdefault(next(leaves), len(classes))
            if k == len(classes):
                classes.append([0, triples, cand.bot])
                owner.update(dict.fromkeys(leaves, k))
            classes[k][0] += 1
    return sorted((_least_key(n, triples, bot), size) for size, triples, bot in classes)


def _skeletons(n: int, commutative: bool):
    # per type, fewest units first: one labeled skeleton (bot, l, r) of it
    # and how many labeled skeletons the type has.  A type is a multiset of
    # connected shapes (k, m) with sum k*k*m = n; a shape has k units and
    # k*k hom-sets of m points each, and is placed with its units first,
    # then its hom-sets row by row
    kinds = [(k, m) for k in range(1, 2 if commutative else n + 1)
             for m in range(n, 0, -1) if k * k * m <= n]

    def multisets(rest: int, first: int):
        if rest == 0:
            yield ()
        for i in range(first, len(kinds)):
            k, m = kinds[i]
            if k * k * m <= rest:
                for tail in multisets(rest - k * k * m, i):
                    yield ((k, m),) + tail

    for shapes in sorted(multisets(n, 0), key=lambda t: sum(k for k, _ in t)):
        bot: list[int] = []
        l: list[int] = []
        r: list[int] = []
        for k, m in shapes:
            units = range(len(l), len(l) + k)
            bot += units
            l += units
            r += units
            for e in units:
                for e2 in units:
                    l += [e] * (m - (e == e2))
                    r += [e2] * (m - (e == e2))
        fixing = 1
        for (k, m), c in Counter(shapes).items():
            fixing *= (factorial(k) ** c * factorial(c) * factorial(m) ** (k * (k - 1) * c)
                       * factorial(m - 1) ** (k * c))
        yield tuple(bot), l, r, factorial(n) // fixing


def search_classes(cfg: SearchConfig) -> list[tuple[FrobeniusCandidate, int]]:
    """The relabeling classes of the tables that pass the axiom checker,
    as (representative, size), by filling one skeleton per type.

    A skeleton is the unit set ``bot`` and maps l, r from the carrier to
    ``bot`` with l(e) = r(e) = e on ``bot``, and l = r when commutative;
    H(e, e') = {x : l(x) = e, r(x) = e'}.  It forces every cell but the
    composable cells between non-units: x*y is undefined unless
    r(x) = l(y), and l(x)*x = x*r(x) = x.  Each remaining cell x*y takes a
    z in H(l(x), r(y)) that repeats no value of its row or its column and
    keeps associative every decided triple that reads it as an inner
    product, (x, y, c) or (a, x, y).  Every leaf still runs the full
    ``satisfies_axioms``.  A skeleton's type is its matrix M of |H(e, e')|
    up to a simultaneous permutation of the units.  Only the types that
    can carry a table are generated, and one labeled skeleton of each is
    filled.  A class found there has (skeletons of the type) times (its
    tables there) members; its representative is the least key, as in
    ``quotient_by_iso``.  n is capped at ``SEARCH_CARRIER_LIMIT``, checked
    before any type is generated, and the quotient shares that cap;
    ``budget`` bounds the nodes: one per generated skeleton and one per
    cell value tried, the types with fewest units first.

    The lemmas below hold in every single-valued table that passes the
    axioms with unit set ``bot``.

    Inverses: the unit laws give e', e in bot with e'*x = x and x*e = x,
    so the fiber at (x, e) contains (e', x).  Interchange makes that fiber
    equal split-right(x, e) = {(x*a, b) : a*b = e}, so some a has
    x*a = e' and a*x = e, both in bot.

    Cancellation: let x*b = x*c = z be defined, and e in bot with x*e = x.
    An inverse a has a*x = e.  Associativity in Rel equates definedness as
    well as values, so x*b = (x*e)*b defined makes e*b defined, and the
    left unit law gives e*b = b.  Then a*z = a*(x*b) = (a*x)*b = e*b = b,
    and likewise a*z = c, so b = c.  Columns follow by the mirror argument.

    Units: each x has exactly one e in bot with e*x = x, named l(x), and
    exactly one with x*e = x, named r(x).  The unit laws give at least one
    of each, and e*x = e'*x = x makes e = e' by cancellation.  For e in
    bot, the right unit law at e puts l(e)*e = e in {l(e)}, so l(e) = e,
    and likewise r(e) = e.  When commutative, l(x)*x = x*l(x) makes
    l(x) = r(x).

    Composability: x*y is defined iff r(x) = l(y).  If x*y is defined, so
    is x*(l(y)*y) = (x*l(y))*y, so x*l(y) is defined.  The right unit law
    puts it in {x}, so l(y) = r(x).  Conversely, if r(x) = l(y), then
    split-left(x, y) = {(u, t*y) : u*t = x} contains (x, r(x)*y) = (x, y).
    Interchange makes it the fiber at (x, y), which is then not empty, so
    x*y is defined.

    Hom-sets: if x*y = z, then l(z) = l(x) and r(z) = r(y), because
    l(x)*z = (l(x)*x)*y = z and z*r(y) = x*(y*r(y)) = z.  An inverse of x
    lies in H(r(x), l(x)), so a non-empty H(e, e') makes H(e', e)
    non-empty.

    Every table has exactly one skeleton, by the unit lemmas.  A
    relabeling tau carries l, r and ``bot``, so it maps the tables on
    skeleton k bijectively onto those on tau k, class by class, and
    H(e, e') onto H(tau e, tau e'), keeping the type.  Two skeletons of one
    type are related by a relabeling: match their matrices by a unit
    permutation, then each H(e, e') with its image by a bijection that
    sends the unit to the unit.  So a class lies on the skeletons of one
    type, equally many of its tables on each.

    Which types carry a table, by the same lemmas, in any table with
    skeleton l, r:

    Equal sizes: if H(e, e') holds some x, then g -> g*x maps H(e, e) into
    H(e, e'), since l(g*x) = l(g) = e and r(g*x) = r(x) = e', and g*x is
    defined because r(g) = e = l(x).  It is injective by cancellation.  An
    inverse a of x lies in H(e', e), and h -> h*a maps H(e, e') back into
    H(e, e) injectively, so |H(e, e')| = |H(e, e)|, and likewise
    |H(e, e')| = |H(e', e')|.

    Transitivity: x in H(e, e') and y in H(e', e'') compose, since
    r(x) = e' = l(y), and x*y lies in H(e, e''), which is then not empty.

    So the units split into classes of k units, each two joined by a
    non-empty hom-set, every hom-set within a class of one size m and
    every hom-set between classes empty: a connected shape of k*k*m points.
    A type is a multiset of shapes whose points sum to n, and a
    commutative one has k = 1, since there l = r: a partition of n.

    The labeled skeletons of type M number
    n! / (|Aut M| * prod_{e != e'} M[e][e']! * prod_e (M[e][e] - 1)!),
    Aut M being the unit permutations that fix M, by orbit-stabilizer: a
    relabeling that fixes a skeleton permutes the units by some pi in
    Aut M, maps each H(e, e') onto H(pi e, pi e'), and each unit to a
    unit, and each such choice is one relabeling.  For a multiset of shapes
    with shape (k, m) taken c times, |Aut M| = prod k!^c * c!.
    """
    return [(FrobeniusCandidate.from_triples(cfg.n, triples, bot), size)
            for (triples, bot), size in _class_keys(cfg)]


def _class_keys(cfg: SearchConfig) -> list[tuple[tuple, int]]:
    # search_classes with each representative as its key, in order
    return sorted((key, count * size) for count, tables in _fill(cfg, _skeletons)
                  for key, size in _classes(tables))


@dataclass(frozen=True)
class CrossValidation:
    """Outcome of checking the search against the enumeration."""

    n: int
    ok: bool
    matches: tuple  # (StructureSpec, representative, class size) per class
    enumerated: tuple
    message: str


def cross_validate(n: int, budget: int | None = None) -> CrossValidation:
    """Search classes, decompose, and compare against the enumeration.

    A mismatch means one of the two routes is buggy; the verdict carries
    both sides.  n is capped at ``SEARCH_CARRIER_LIMIT``; ``budget`` counts
    one node per generated skeleton and one per cell value tried in it:
    17 nodes at n = 3 and 103 at n = 4.
    """
    from .analysis import decompose

    classes = search_classes(SearchConfig(n, require_commutative=True, budget=budget))
    enumerated = enumerate_classical_structures(n)

    matches = sorted(((decompose(rep).spec, rep, size) for rep, size in classes),
                     key=lambda t: t[0].sort_key())
    found_specs = [spec for spec, _, _ in matches]
    ok = found_specs == list(enumerated)
    message = (f"{len(classes)} classes match {len(enumerated)} enumerated structures" if ok
               else f"mismatch: search found {[s.label for s in found_specs]}, "
               f"enumeration lists {[s.label for s in enumerated]}")
    return CrossValidation(n=n, ok=ok, matches=tuple(matches),
                           enumerated=tuple(enumerated), message=message)
