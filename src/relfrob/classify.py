"""Enumeration and exhaustive search for structures on small carriers.

Two independent routes to the same inventory: ``enumerate_classical_structures``
walks integer partitions and abelian-group choices per part, while the search
picks the units and each element's left and right unit, fills in the composable
cells of the multiplication table, and keeps whatever passes the axiom checker.
``search_classes`` fills one skeleton per relabeling type; ``relfrob
brute-force`` prints its classes, and ``cross_validate`` compares them with the
enumeration: the computational content of the classification, every
commutative structure is a disjoint union of abelian groups.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import (chain, combinations, combinations_with_replacement, permutations,
                       product)

from .frobenius import FrobeniusCandidate, satisfies_axioms
from .groups import (AbelianGroupSpec, StructureSpec, enumerate_abelian_groups,
                     nonabelian_groups_of_order, partitions)
from .rel import Rel

SEARCH_CARRIER_LIMIT = 6
QUOTIENT_CARRIER_LIMIT = 6
SPECIAL_ENUM_LIMIT = 8
ENUM_CARRIER_LIMIT = 32

_EMPTY = -1  # a cell with no product: undefined, or not decided yet


def _structures_from_choices(n: int, choices_per_order) -> list[StructureSpec]:
    specs = []
    choices = {m: choices_per_order(m) for m in range(1, n + 1)}
    for part in partitions(n):
        per_size = [combinations_with_replacement(choices[m], count)
                    for m, count in sorted(Counter(part).items())]
        for combo in product(*per_size):
            specs.append(StructureSpec(tuple(chain.from_iterable(combo))))
    return sorted(specs, key=StructureSpec.sort_key)


def enumerate_classical_structures(n: int) -> list[StructureSpec]:
    """All commutative structures on n points up to relabeling.

    One spec per multiset of abelian groups with total order n.  The number
    of partitions of n grows fast, so n is capped at ``ENUM_CARRIER_LIMIT``.
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
        return list(enumerate_abelian_groups(m)) + nonabelian_groups_of_order(m)

    return _structures_from_choices(n, choices)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exhaustive table search."""

    n: int
    require_commutative: bool = True
    budget: int | None = None


class BudgetExceededError(RuntimeError):
    """Search ran out of node budget; carries what was found so far."""

    def __init__(self, explored: int, found: list):
        super().__init__(f"search budget exhausted after {explored} nodes")
        self.explored = explored
        self.found = found


def brute_force_search(cfg: SearchConfig) -> list[FrobeniusCandidate]:
    """Every structure on the labeled carrier passing the axiom checker.

    The labeled reference for ``search_classes``, read by the tests, the CI
    check at n = 6, and the benchmark's classify workload and tracer.

    The search first fixes a skeleton: the unit set ``bot`` and maps l, r
    from the carrier to ``bot`` with l(e) = r(e) = e on ``bot``, and
    l = r when commutative.  It keeps only skeletons in which a non-empty
    hom-set H(e, e') = {x : l(x) = e, r(x) = e'} has a non-empty H(e', e).
    The skeleton forces every cell but the composable cells between
    non-units: x*y is undefined unless r(x) = l(y), and l(x)*x = x*r(x) =
    x.  Each remaining cell x*y takes a z in H(l(x), r(y)) that repeats no
    value of its row or its column and keeps associative every decided
    triple that reads it as an inner product, (x, y, c) or (a, x, y).
    Every leaf still runs the full ``satisfies_axioms``.
    n is capped at ``SEARCH_CARRIER_LIMIT``; ``budget``, when given,
    bounds the nodes explored: one per skeleton and one per cell value
    tried.

    The lemmas below hold in every single-valued table that passes the
    axioms with unit set ``bot``.  So each such table defines a skeleton
    the search keeps, and filling that skeleton reaches the table.

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
    """
    return sorted(_walk(cfg, [], lambda hom: True),
                  key=lambda c: (c.triples(), tuple(sorted(c.bot))))


def _walk(cfg: SearchConfig, found: list, wanted) -> list[FrobeniusCandidate]:
    # the walk of brute_force_search; it fills a kept skeleton into found if wanted(hom)
    n, budget, commutative = cfg.n, cfg.budget, cfg.require_commutative
    if n < 0:
        raise ValueError(f"carrier size {n} is negative")
    if n > SEARCH_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the exhaustive search bound {SEARCH_CARRIER_LIMIT}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} is negative")

    table: list[list[int]] = []
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

    for size in range(n + 1):
        for bot in combinations(range(n), size):
            rest = [x for x in range(n) if x not in bot]
            for lefts in product(bot, repeat=len(rest)):
                for rights in [lefts] if commutative else product(bot, repeat=len(rest)):
                    tried()
                    l, r = list(range(n)), list(range(n))
                    for x, e, e2 in zip(rest, lefts, rights):
                        l[x], r[x] = e, e2
                    hom: dict[tuple[int, int], list[int]] = {}
                    for x in range(n):
                        hom.setdefault((l[x], r[x]), []).append(x)
                    if any((e2, e) not in hom for e, e2 in hom) or not wanted(hom):
                        continue
                    # l(y)*y = y and x*r(x) = x; every other cell starts empty
                    table[:] = [[y if x == l[y] else x if y == r[x] else _EMPTY
                                 for y in range(n)] for x in range(n)]
                    # from n = 7 on H(l(x), r(y)) can be empty: such a cell takes no value
                    cells = [(x, y, hom.get((l[x], r[y]), ())) for x in rest for y in rest
                             if r[x] == l[y] and (x <= y or not commutative)]
                    fill(cells, 0, bot)
    return found


def _canonical_key(triples, bot, sigma) -> tuple:
    return (tuple(sorted((sigma[x], sigma[y], sigma[z]) for x, y, z in triples)),
            tuple(sorted(sigma[e] for e in bot)))


def _colours(n: int, triples, bot, ids: dict) -> list[int]:
    # colour refinement: a point's next colour is the id of its colour and
    # the multiset of (role, colours of the other two points) over the
    # triples it occurs in; ids is shared, so equal signatures get equal ids
    colour = [ids.setdefault(x in bot, len(ids)) for x in range(n)]
    while True:
        seen: list[list] = [[] for _ in range(n)]
        for x, y, z in triples:
            seen[x].append((0, colour[y], colour[z]))
            seen[y].append((1, colour[x], colour[z]))
            seen[z].append((2, colour[x], colour[y]))
        refined = [ids.setdefault((colour[x], tuple(sorted(seen[x]))), len(ids))
                   for x in range(n)]
        if len(set(refined)) == len(set(colour)):
            return refined
        colour = refined


def _colour_key(n: int, triples, bot, ids: dict) -> tuple:
    # the least key over the relabelings that list the points colour by
    # colour, least id first
    colour = _colours(n, triples, bot, ids)
    cells = [[x for x, c in enumerate(colour) if c == k] for k in sorted(set(colour))]
    return min(_canonical_key(triples, bot, dict(zip(chain.from_iterable(listing), range(n))))
               for listing in product(*map(permutations, cells)))


def quotient_by_iso(cands: list[FrobeniusCandidate]) -> list[tuple[FrobeniusCandidate, int]]:
    """Group candidates by carrier relabeling; return (representative, size).

    The representative is the relabeling with the least (triples, bot) key,
    so it is a fixed point of canonicalization.  Classes are sorted by it.

    Tables are sorted into classes by a cheaper canonical key: the least
    key over the relabelings that list the points colour by colour.  Each
    point starts coloured by membership of ``bot`` and is recoloured by
    the multiset of (role, colours of the other two points) over the
    triples it occurs in, until the number of colours stops growing.  A
    colour is an id drawn from one signature table shared by every table
    in the call, so it depends only on the signature.  A relabeling sigma
    therefore moves the colours with it: sigma(x) in the relabeled table
    has the colour x has here, and the colour-ordered relabelings of the
    one table are those of the other composed with sigma.  Both tables
    then have the same least key, and equal keys are one relabeled table,
    so the keys sort tables into classes exactly, multi-valued ones too.
    Only the representative is the least key over all n! relabelings,
    computed once per class from one member.
    """
    if not cands:
        return []
    n = cands[0].n
    if any(c.n != n for c in cands):
        raise ValueError("candidates must share one carrier size")
    if n > QUOTIENT_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the relabeling bound {QUOTIENT_CARRIER_LIMIT}")
    ids: dict = {}
    classes: dict[tuple, int] = {}
    for cand in cands:
        key = _colour_key(n, cand.triples(), cand.bot, ids)
        classes[key] = classes.get(key, 0) + 1
    reps = sorted((min(_canonical_key(triples, bot, sigma) for sigma in permutations(range(n))),
                   size) for (triples, bot), size in classes.items())
    return [(FrobeniusCandidate.from_triples(n, triples, bot), size)
            for (triples, bot), size in reps]


def _skeleton_type(hom: dict) -> tuple:
    # |H(e, e')| up to a simultaneous permutation of the units e, each in H(e, e)
    return min(tuple(len(hom.get((e, e2), ())) for e in p for e2 in p)
               for p in permutations(sorted({e for e, _ in hom})))


def search_classes(cfg: SearchConfig) -> list[tuple[FrobeniusCandidate, int]]:
    """``quotient_by_iso(brute_force_search(cfg))``, filling one skeleton per type.

    A skeleton's type is its matrix of |H(e, e')| up to a simultaneous
    permutation of the units.  The walk is the search's, node count
    included, but it fills only the first skeleton of each type; a class
    found there has (skeletons of the type) times (its tables there) members.

    Every table has exactly one skeleton, by the unit lemmas of
    ``brute_force_search``.  A relabeling tau carries l, r and ``bot``, so
    it maps the tables on skeleton k bijectively onto those on tau k,
    class by class, and H(e, e') onto H(tau e, tau e'), keeping the type.
    Two skeletons of one type are related by a relabeling: match their
    matrices by a unit permutation, then each H(e, e') with its image by a
    bijection that sends the unit to the unit.  So a class lies on the
    skeletons of one type, equally many of its tables on each.
    """
    found: list[FrobeniusCandidate] = []
    types: dict[tuple, list[int]] = {}  # type: [its skeletons, index of its first table]

    def first_of_type(hom: dict) -> bool:
        seen = types.setdefault(_skeleton_type(hom), [0, len(found)])
        seen[0] += 1
        return seen[0] == 1

    _walk(cfg, found, first_of_type)
    ends = [start for _, start in types.values()][1:] + [len(found)]
    classes = [(rep, count * size) for (count, start), end in zip(types.values(), ends)
               for rep, size in quotient_by_iso(found[start:end])]
    return sorted(classes, key=lambda c: (c[0].triples(), sorted(c[0].bot)))


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
    every labeled skeleton plus the cell values tried in those filled.
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
