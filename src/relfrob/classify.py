"""Enumeration and exhaustive search for structures on small carriers.

Two independent routes to the same inventory: ``enumerate_classical_structures``
walks integer partitions and abelian-group choices per part, while
``brute_force_search`` fills in partial multiplication tables cell by cell
and keeps whatever passes the axiom checker.  ``cross_validate`` runs both
and insists they agree up to relabeling, which is the computational content
of the classification: every commutative structure is a disjoint union of
abelian groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product

from .frobenius import FrobeniusCandidate, satisfies_axioms
from .groups import (AbelianGroupSpec, StructureSpec, enumerate_abelian_groups,
                     nonabelian_groups_of_order, partitions)

SEARCH_CARRIER_LIMIT = 5
QUOTIENT_CARRIER_LIMIT = 6
SPECIAL_ENUM_LIMIT = 8
ENUM_CARRIER_LIMIT = 32

_UNASSIGNED = -2
_UNDEF = -1


def _structures_from_choices(n: int, choices_per_order) -> list[StructureSpec]:
    specs = set()
    for part in partitions(n):
        sizes: dict[int, int] = {}
        for m in part:
            sizes[m] = sizes.get(m, 0) + 1
        per_size = []
        for m, count in sorted(sizes.items()):
            per_size.append(list(combinations_with_replacement(choices_per_order(m), count)))
        for combo in product(*per_size):
            blocks = tuple(b for group in combo for b in group)
            specs.add(StructureSpec(blocks))
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

    Fills cells of a partial single-valued table depth first, pruning by
    four rules:

    - cancellation: no row and no column holds one defined value twice;
    - associativity over the decided prefix;
    - unit coverage: every x keeps a possible unit on each side;
    - inverses: every x needs an a with x*a and a*x units.

    ``units_feasible`` proves cancellation and inverses from the axioms.
    The rules cut only subtrees without an accepted leaf, and every leaf
    still runs the full ``satisfies_axioms``.  The unit subset is never
    guessed: for each complete table it is forced to be the set of all
    two-sided partial identities, which is the only subset that can
    satisfy the unit laws.  n is capped at ``SEARCH_CARRIER_LIMIT``;
    ``budget``, when given, bounds the nodes explored.

    Each node updates the search state as it sets and clears its cells:
    ``bad[e]`` counts the decided cells that rule e out as a unit,
    ``pre[v]`` lists the decided cells with product v, and ``rows[x]`` and
    ``cols[y]`` are bitmasks of the defined values decided in row x and
    column y.  All are read off the decided cells, so every rule sees the
    facts a rescan would.
    """
    n, budget = cfg.n, cfg.budget
    if n < 0:
        raise ValueError(f"carrier size {n} is negative")
    if n > SEARCH_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the exhaustive search bound {SEARCH_CARRIER_LIMIT}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} is negative")

    if cfg.require_commutative:
        cells = [(i, j, sorted({(i, j), (j, i)})) for i in range(n) for j in range(i, n)]
    else:
        cells = [(i, j, [(i, j)]) for i in range(n) for j in range(n)]

    # an undefined or unassigned product propagates as itself: row and
    # column -2 hold _UNASSIGNED, and row and column -1 hold _UNDEF
    table = [[_UNASSIGNED] * n + [_UNASSIGNED, _UNDEF] for _ in range(n)]
    table += [[_UNASSIGNED] * (n + 2), [_UNDEF] * (n + 2)]
    bad = [0] * n
    rows, cols = [0] * n, [0] * n
    pre: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]  # pre[-1]: undefined, unread
    found: list[FrobeniusCandidate] = []
    explored = 0
    values = [(v, 1 << v) for v in range(n)] + [(_UNDEF, 0)]

    def affected_ok(p: int, q: int) -> bool:
        # (a*b)*c against a*(b*c) on every triple that reads the cell p*q
        row_p, row_q = table[p], table[q]
        pq = row_p[q]
        for c in range(n):
            left, right = table[pq][c], row_p[row_q[c]]
            if left != right and left != _UNASSIGNED and right != _UNASSIGNED:
                return False
        for a in range(n):
            left, right = table[table[a][p]][q], table[a][pq]
            if left != right and left != _UNASSIGNED and right != _UNASSIGNED:
                return False
        for a, b in pre[p]:
            left, right = pq, table[a][table[b][q]]
            if left != right and left != _UNASSIGNED and right != _UNASSIGNED:
                return False
        for b, c in pre[q]:
            left, right = table[row_p[b]][c], pq
            if left != right and left != _UNASSIGNED and right != _UNASSIGNED:
                return False
        return True

    def units_feasible(live: list[int], xs) -> bool:
        """Can a completion still have a unit on each side of every x, and an inverse?

        Inverses: at an accepted leaf the unit laws give e', e in bot with
        e'*x = x and x*e = x, so the fiber at (x, e) contains (e', x).
        Interchange makes that fiber equal split-right(x, e) =
        {(x*a, b) : a*b = e}, so some a has x*a = e' and a*x = e, both in
        bot.  Disqualification only grows as cells are decided and an
        undefined cell stays undefined, so bot at any leaf below lies inside
        ``live`` here.  A node where some x has no a with x*a and a*x each
        unassigned or live therefore has no accepted leaf below it.

        Cancellation: let x*b = x*c = z be defined at an accepted leaf, and
        e in bot with x*e = x.  An inverse a has a*x = e.  Associativity in
        Rel equates definedness as well as values, so x*b = (x*e)*b defined
        makes e*b defined, and the left unit law gives e*b = b.  Then
        a*z = a*(x*b) = (a*x)*b = e*b = b, and likewise a*z = c, so b = c.
        Columns follow by the mirror argument.  Decided cells keep their
        values at every leaf below, so a node with a repeated defined value
        in a row or a column has no accepted leaf below it.

        Only the x in ``xs`` are checked.  The verdict for x reads row x,
        column x and ``live``, and ``live`` only shrinks going down the tree.
        When it is as large as at the parent, the node's cells lie in rows
        and columns i and j only, so only x in {i, j} can lose the verdict
        they passed with at the parent; otherwise every x is checked.
        """
        open_unit = {_UNASSIGNED, *live}
        for x in xs:
            row_x, fits = table[x], (x, _UNASSIGNED)
            for e in live:
                if table[e][x] in fits:
                    break
            else:
                return False
            for e in live:
                if row_x[e] in fits:
                    break
            else:
                return False
            for a in range(n):
                if row_x[a] in open_unit and table[a][x] in open_unit:
                    break
            else:
                return False
        return True

    def descend(k: int, parent_live: list[int]):
        nonlocal explored
        if k == len(cells):
            # bot is the live units: units_feasible made them cover every x
            triples = [(a, b, v) for v in range(n) for a, b in pre[v]]
            cand = FrobeniusCandidate.from_triples(n, triples, parent_live)
            if satisfies_axioms(cand, cfg.require_commutative):
                found.append(cand)
            return
        i, j, placed = cells[k]
        for v, bit in values:
            explored += 1
            if budget is not None and explored > budget:
                raise BudgetExceededError(explored, found)
            # cancellation; a commutative table is symmetric, so there row j
            # holds column j's values and column i holds row i's
            if rows[i] & bit or cols[j] & bit:
                continue
            for x, y in placed:  # x*y = v rules out unit x unless v = y, y unless v = x
                table[x][y] = v
                rows[x] |= bit
                cols[y] |= bit
                bad[x] += v >= 0 and v != y
                bad[y] += v >= 0 and v != x
                pre[v].append((x, y))
            # a commutative table stays symmetric, so affected_ok(j, i) checks
            # the mirror images (c, b, a) of the triples checked here
            if affected_ok(i, j):
                live = [e for e in range(n) if not bad[e]]
                if units_feasible(live, (i, j) if len(live) == len(parent_live) else range(n)):
                    descend(k + 1, live)
            for x, y in placed:
                table[x][y] = _UNASSIGNED
                rows[x] ^= bit
                cols[y] ^= bit
                bad[x] -= v >= 0 and v != y
                bad[y] -= v >= 0 and v != x
                pre[v].pop()

    descend(0, list(range(n)))
    found.sort(key=lambda c: (c.triples(), tuple(sorted(c.bot))))
    return found


def _canonical_key(triples, bot, sigma) -> tuple:
    return (tuple(sorted((sigma[x], sigma[y], sigma[z]) for x, y, z in triples)),
            tuple(sorted(sigma[e] for e in bot)))


def quotient_by_iso(cands: list[FrobeniusCandidate]) -> list[tuple[FrobeniusCandidate, int]]:
    """Group candidates by carrier relabeling; return (representative, size).

    The representative is the relabeling with the least (triples, bot) key,
    so it is a fixed point of canonicalization.
    """
    if not cands:
        return []
    n = cands[0].n
    if any(c.n != n for c in cands):
        raise ValueError("candidates must share one carrier size")
    if n > QUOTIENT_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the relabeling bound {QUOTIENT_CARRIER_LIMIT}")
    classes: dict[tuple, int] = {}
    for cand in cands:
        triples = cand.triples()
        key = min(_canonical_key(triples, cand.bot, sigma) for sigma in permutations(range(n)))
        classes[key] = classes.get(key, 0) + 1
    out = []
    for (triples, bot), size in sorted(classes.items()):
        out.append((FrobeniusCandidate.from_triples(n, triples, bot), size))
    return out


@dataclass(frozen=True)
class CrossValidation:
    """Outcome of checking the search against the enumeration."""

    n: int
    ok: bool
    matches: tuple  # (StructureSpec, representative, class size) per class
    enumerated: tuple
    message: str

    @property
    def class_count(self) -> int:
        return len(self.matches)


def cross_validate(n: int, budget: int | None = None) -> CrossValidation:
    """Search, quotient, decompose, and compare against the enumeration.

    A mismatch means one of the two routes is buggy; the verdict carries
    both sides.  The search bounds n (ValueError above
    ``SEARCH_CARRIER_LIMIT``); ``budget`` is passed to it unchanged.
    """
    from .analysis import decompose

    cands = brute_force_search(SearchConfig(n, require_commutative=True, budget=budget))
    classes = quotient_by_iso(cands)
    enumerated = enumerate_classical_structures(n)

    matches = []
    for rep, size in classes:
        matches.append((decompose(rep).spec, rep, size))
    matches.sort(key=lambda t: t[0].sort_key())

    found_specs = [spec for spec, _, _ in matches]
    ok = found_specs == list(enumerated)
    if ok:
        message = f"{len(classes)} classes match {len(enumerated)} enumerated structures"
    else:
        message = (f"mismatch: search found {[s.label for s in found_specs]}, "
                   f"enumeration lists {[s.label for s in enumerated]}")
    return CrossValidation(n=n, ok=ok, matches=tuple(matches),
                           enumerated=tuple(enumerated), message=message)
