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

SEARCH_CARRIER_LIMIT = 4
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

    Fills cells of a partial single-valued table depth first, pruning on
    associativity over the decided prefix, on unit coverage, and on
    inverses: every x needs an a with x*a and a*x units (proof in
    ``units_feasible``).  The rules cut only subtrees without an accepted
    leaf, and every leaf still runs the full ``satisfies_axioms``.  The unit
    subset is never guessed: for each complete table it is forced to be the
    set of all two-sided partial identities, which is the only subset that
    can satisfy the unit laws.  n is capped at ``SEARCH_CARRIER_LIMIT``;
    ``budget``, when given, bounds the nodes explored.
    """
    n = cfg.n
    if n < 0:
        raise ValueError(f"carrier size {n} is negative")
    if n > SEARCH_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the exhaustive search bound {SEARCH_CARRIER_LIMIT}")

    if cfg.require_commutative:
        cells = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        cells = [(i, j) for i in range(n) for j in range(n)]

    table = [[_UNASSIGNED] * n for _ in range(n)]
    found: list[FrobeniusCandidate] = []
    explored = 0

    def triple_ok(a: int, b: int, c: int) -> bool:
        # compare (a*b)*c with a*(b*c) as far as the prefix decides them
        # an undefined or unassigned product propagates as itself
        ab, bc = table[a][b], table[b][c]
        left = ab if ab < 0 else table[ab][c]
        right = bc if bc < 0 else table[a][bc]
        return left == _UNASSIGNED or right == _UNASSIGNED or left == right

    def affected_ok(p: int, q: int) -> bool:
        for c in range(n):
            if not triple_ok(p, q, c):
                return False
        for a in range(n):
            if not triple_ok(a, p, q):
                return False
        for a in range(n):
            for b in range(n):
                if table[a][b] == p and not triple_ok(a, b, q):
                    return False
        for b in range(n):
            for c in range(n):
                if table[b][c] == q and not triple_ok(p, b, c):
                    return False
        return True

    def disqualified(e: int) -> bool:
        for y in range(n):
            if table[e][y] >= 0 and table[e][y] != y:
                return True
            if table[y][e] >= 0 and table[y][e] != y:
                return True
        return False

    def units_feasible() -> bool:
        """Can a completion still have a unit on each side of every x, and an inverse?

        Inverses: at an accepted leaf the unit laws give e', e in bot with
        e'*x = x and x*e = x, so the fiber at (x, e) contains (e', x).
        Interchange makes that fiber equal split-right(x, e) =
        {(x*a, b) : a*b = e}, so some a has x*a = e' and a*x = e, both in
        bot.  Disqualification only grows as cells are decided and an
        undefined cell stays undefined, so bot at any leaf below lies inside
        ``live`` here.  A node where some x has no a with x*a and a*x each
        unassigned or live therefore has no accepted leaf below it.
        """
        live = [e for e in range(n) if not disqualified(e)]
        open_unit = {_UNASSIGNED, *live}
        for x in range(n):
            if not any(table[e][x] == x or table[e][x] == _UNASSIGNED for e in live):
                return False
            if not any(table[x][e] == x or table[x][e] == _UNASSIGNED for e in live):
                return False
            if not any(table[x][a] in open_unit and table[a][x] in open_unit
                       for a in range(n)):
                return False
        return True

    def finalize():
        # units_feasible at the last cell already made bot cover every x
        bot = [e for e in range(n) if not disqualified(e)]
        triples = [(i, j, table[i][j]) for i in range(n) for j in range(n)
                   if table[i][j] >= 0]
        cand = FrobeniusCandidate.from_triples(n, triples, bot)
        if satisfies_axioms(cand, cfg.require_commutative):
            found.append(cand)

    def descend(k: int):
        nonlocal explored
        if k == len(cells):
            finalize()
            return
        i, j = cells[k]
        for v in list(range(n)) + [_UNDEF]:
            explored += 1
            if cfg.budget is not None and explored > cfg.budget:
                raise BudgetExceededError(explored, found)
            table[i][j] = v
            if cfg.require_commutative:
                table[j][i] = v
            # a commutative table stays symmetric, so affected_ok(j, i) checks
            # the mirror images (c, b, a) of the triples checked here
            if affected_ok(i, j) and units_feasible():
                descend(k + 1)
            table[i][j] = _UNASSIGNED
            if cfg.require_commutative:
                table[j][i] = _UNASSIGNED

    descend(0)
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
