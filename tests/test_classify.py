"""Enumeration, brute-force search, and the isomorphism quotient."""

from __future__ import annotations

import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import naive
from conftest import candidate, product_of
import relfrob.classify
from relfrob import (AbelianGroupSpec, BudgetExceededError, SearchConfig,
                     brute_force_search, build_biproduct, cross_validate, decompose,
                     enumerate_classical_structures, enumerate_special_frobenius,
                     enumerate_abelian_groups, quotient_by_iso, verify_structure)
from relfrob.classify import ENUM_CARRIER_LIMIT, SPECIAL_ENUM_LIMIT, search_classes
from test_groups import abelian_group_count


def reference_partitions(n: int, most: int | None = None):
    if most is None:
        most = n
    if n == 0:
        yield ()
    for m in range(min(n, most), 0, -1):
        for rest in reference_partitions(n - m, m):
            yield (m,) + rest


def multiset_coefficient(a: int, k: int) -> int:
    num, den = 1, 1
    for i in range(k):
        num *= a + i
        den *= i + 1
    return num // den


def reference_classical_count(n: int) -> int:
    total = 0
    for lam in reference_partitions(n):
        prod = 1
        for m in set(lam):
            prod *= multiset_coefficient(abelian_group_count(m), lam.count(m))
        total += prod
    return total


def test_partitions_pinned_lists():
    # the partitions under the enumeration reference in naive.py
    assert naive.partitions(0) == [()]
    assert naive.partitions(1) == [(1,)]
    assert naive.partitions(2) == [(2,), (1, 1)]
    assert naive.partitions(3) == [(3,), (2, 1), (1, 1, 1)]
    assert naive.partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        naive.partitions(-1)


@pytest.mark.parametrize("n", range(9))
def test_partitions_match_reference(n):
    assert naive.partitions(n) == list(reference_partitions(n))


def test_enumeration_equals_the_partition_reference():
    # the walk in canonical order against partitions x choices, then a sort
    for n in range(25):
        assert enumerate_classical_structures(n) == naive.structures(
            n, enumerate_abelian_groups), n
    for n in range(SPECIAL_ENUM_LIMIT + 1):
        assert enumerate_special_frobenius(n) == naive.structures(
            n, lambda m: enumerate_abelian_groups(m)
            + relfrob.groups.nonabelian_groups_of_order(m)), n


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 3), (4, 6),
                                     (5, 8), (6, 13), (7, 18), (8, 30)])
def test_classical_counts_frozen(n, count):
    assert len(enumerate_classical_structures(n)) == count


@pytest.mark.parametrize("n", range(11))
def test_classical_counts_match_formula(n):
    assert len(enumerate_classical_structures(n)) == reference_classical_count(n)


def euler_transform(a, n_max: int) -> list[int]:
    """The coefficients of prod_m (1 - x^m)^(-a(m)) up to x^n_max: the
    number of multisets of weighted objects, a(m) of them of weight m."""
    c = [sum(d * a(d) for d in range(1, k + 1) if k % d == 0) for k in range(n_max + 1)]
    b = [1]
    for n in range(1, n_max + 1):
        total = sum(c[k] * b[n - k] for k in range(1, n + 1))
        assert total % n == 0
        b.append(total // n)
    return b


def test_classical_counts_are_the_euler_transform_of_abelian_group_counts():
    # a classical structure is a multiset of abelian groups, so the classes
    # on n points are counted by the Euler transform of the number of
    # abelian groups of each order, itself from partitions of prime exponents
    counts = euler_transform(abelian_group_count, ENUM_CARRIER_LIMIT)
    assert counts[:13] == [1, 1, 2, 3, 6, 8, 13, 18, 30, 41, 60, 82, 121]
    assert [len(enumerate_classical_structures(n))
            for n in range(ENUM_CARRIER_LIMIT + 1)] == counts


def test_classical_enumeration_is_sorted_and_duplicate_free():
    cases = ([(enumerate_classical_structures, n) for n in range(ENUM_CARRIER_LIMIT + 1)]
             + [(enumerate_special_frobenius, n) for n in range(SPECIAL_ENUM_LIMIT + 1)])
    for enumerate_specs, n in cases:
        specs = enumerate_specs(n)
        keys = [s.sort_key() for s in specs]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, and no spec twice
        assert all(key[0] == n for key in keys)  # a key starts with the spec's n
        if enumerate_specs is enumerate_classical_structures:
            assert all(isinstance(b, AbelianGroupSpec) for s in specs for b in s.blocks)


@pytest.mark.parametrize("n,count", [(5, 8), (6, 14), (7, 19), (8, 34)])
def test_special_counts_frozen(n, count):
    assert len(enumerate_special_frobenius(n)) == count


def test_special_extends_classical_by_nonabelian_blocks():
    for n in range(6):
        assert enumerate_special_frobenius(n) == enumerate_classical_structures(n)
    classical = {s.label for s in enumerate_classical_structures(8)}
    special = {s.label for s in enumerate_special_frobenius(8)}
    assert special - classical == {"D4", "Q8", "Z2 + S3", "Z1 + Z1 + S3"}
    with pytest.raises(ValueError):
        enumerate_special_frobenius(9)


# positions of the independent cells of a table on 2: three when commutative
_CELLS2 = ((0, 0), (0, 1), (1, 1))
_ALL_CELLS2 = ((0, 0), (0, 1), (1, 0), (1, 1))


def reference_search_2(commutative: bool = True) -> set:
    """Filter every partial table on two elements directly, with no pruning.

    27 symmetric tables when commutative, otherwise all 81 tables with
    commutativity ignored; each is tried with all 4 unit subsets.
    """
    cells = _CELLS2 if commutative else _ALL_CELLS2
    found = set()
    for values in itertools.product((-1, 0, 1), repeat=len(cells)):
        triples = set()
        for (x, y), z in zip(cells, values):
            if z >= 0:
                triples.add((x, y, z))
                if commutative:
                    triples.add((y, x, z))
        for bot_bits in range(4):
            bot = frozenset(e for e in range(2) if bot_bits >> e & 1)
            checks = naive.axioms(2, sorted(triples), bot)
            if not commutative:
                del checks["commutativity"]
            if all(checks.values()):
                found.add((tuple(sorted(triples)), bot))
    return found


def test_search_matches_unpruned_filter_n2():
    cands = brute_force_search(SearchConfig(2))
    got = {(c.triples(), c.bot) for c in cands}
    assert got == reference_search_2()


def test_noncommutative_search_matches_unpruned_filter_n2():
    cands = brute_force_search(SearchConfig(2, require_commutative=False))
    got = {(c.triples(), c.bot) for c in cands}
    assert got == reference_search_2(commutative=False)


def _lands_in_bot(c, x: int, y: int) -> bool:
    values = product_of(c, x, y)
    return len(values) == 1 and values <= c.bot


def has_inverses(c) -> bool:
    """Every x has an a with x*a and a*x both in bot."""
    return all(any(_lands_in_bot(c, x, a) and _lands_in_bot(c, a, x) for a in range(c.n))
               for x in range(c.n))


def cancels(c) -> bool:
    """No row and no column holds one defined product twice."""
    for x in range(c.n):
        for line in ([product_of(c, x, y) for y in range(c.n)],
                     [product_of(c, y, x) for y in range(c.n)]):
            defined = [z for z in line if z]
            if len(set(defined)) < len(defined):
                return False
    return True


def pair_groupoid():
    arrows = [(2 * i + j, 2 * j + k, 2 * i + k)
              for i in range(2) for j in range(2) for k in range(2)]
    return candidate(4, arrows, [0, 3])


@pytest.fixture(scope="module")
def special_frobenius_structures() -> list:
    """Biproducts of every special spec on n <= 8, the pair groupoid, and
    the search results for n <= 5 in both modes, each verified."""
    structures = [build_biproduct(spec)
                  for n in range(9) for spec in enumerate_special_frobenius(n)]
    structures.append(pair_groupoid())
    for n in range(6):
        structures += brute_force_search(SearchConfig(n))
        structures += brute_force_search(SearchConfig(n, require_commutative=False))
    for c in structures:
        assert verify_structure(c).is_special_frobenius
    return structures


def test_inverse_lemma_holds_in_special_frobenius_structures(special_frobenius_structures):
    # the search's hom-set rule rests on this: unit laws plus interchange
    # force an inverse for every element, commutative or not
    for c in special_frobenius_structures:
        assert has_inverses(c), c


def test_cancellation_lemma_holds_in_special_frobenius_structures(special_frobenius_structures):
    # the search's cancellation rule rests on this: with inverses and
    # associativity, x*b = x*c and b*x = c*x each force b = c
    for c in special_frobenius_structures:
        assert cancels(c), c


def test_cancellation_lemma_needs_interchange(max_monoid):
    # the two-point semilattice passes every axiom except interchange, and
    # its row 1 holds 1*0 = 1*1 = 1
    assert failed_axioms(max_monoid) == ["frobenius", "frobenius-pointwise"]
    assert product_of(max_monoid, 1, 0) == product_of(max_monoid, 1, 1) == {1}
    assert not cancels(max_monoid)


def test_inverse_lemma_needs_interchange(max_monoid):
    # the two-point semilattice (0 the unit, 1*1 = 1) passes every axiom
    # except interchange, and 1 has no inverse
    assert failed_axioms(max_monoid) == ["frobenius", "frobenius-pointwise"]
    assert not any(_lands_in_bot(max_monoid, 1, a) for a in range(2))
    assert not has_inverses(max_monoid)


def failed_axioms(c) -> list:
    report = verify_structure(c)
    return [name for name, verdict in report.axioms() if verdict is not None and not verdict.ok]


def unit_candidates(c) -> tuple[list, list]:
    """For each x, the e in bot with e*x = x, and the e in bot with x*e = x."""
    left = [[e for e in sorted(c.bot) if product_of(c, e, x) == {x}] for x in range(c.n)]
    right = [[e for e in sorted(c.bot) if product_of(c, x, e) == {x}] for x in range(c.n)]
    return left, right


def unit_maps(c) -> tuple[list, list]:
    """l and r, read off the table; each x must have exactly one of each."""
    left, right = unit_candidates(c)
    return [e for [e] in left], [e for [e] in right]


def test_unit_lemma_holds_in_special_frobenius_structures(special_frobenius_structures):
    # the search's skeleton rests on this: every x has exactly one left
    # unit and one right unit, units are their own, and l = r when commutative
    for c in special_frobenius_structures:
        left, right = unit_candidates(c)
        assert all(len(es) == 1 for es in left + right), c
        l, r = unit_maps(c)
        assert all(l[e] == r[e] == e for e in c.bot), c
        if verify_structure(c).is_classical:
            assert l == r, c


def test_composability_lemma_holds_in_special_frobenius_structures(special_frobenius_structures):
    # the search forces x*y undefined exactly when r(x) != l(y)
    for c in special_frobenius_structures:
        l, r = unit_maps(c)
        for x in range(c.n):
            for y in range(c.n):
                assert bool(product_of(c, x, y)) == (r[x] == l[y]), (c, x, y)


def test_hom_set_lemma_holds_in_special_frobenius_structures(special_frobenius_structures):
    # the search takes x*y from H(l(x), r(y))
    for c in special_frobenius_structures:
        l, r = unit_maps(c)
        for x, y, z in c.triples():
            assert (l[z], r[z]) == (l[x], r[y]), (c, x, y, z)


def test_composability_lemma_needs_interchange():
    # 0 the unit, 1*1 undefined: every axiom but interchange holds, and
    # r(1) = l(1) = 0 while 1*1 is undefined
    c = candidate(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1)], [0])
    assert failed_axioms(c) == ["frobenius", "frobenius-pointwise"]
    assert unit_maps(c) == ([0, 0], [0, 0])
    assert product_of(c, 1, 1) == frozenset()


def _search_and_leaves(monkeypatch, n: int, commutative: bool):
    """The labeled reference search's results and the leaves it ran
    ``satisfies_axioms`` on."""
    verified = []
    check = relfrob.classify.satisfies_axioms

    def spy(cand, commutative):
        verified.append(cand)
        return check(cand, commutative)

    monkeypatch.setattr(relfrob.classify, "satisfies_axioms", spy)
    return naive.labeled_search(SearchConfig(n, require_commutative=commutative)), verified


@pytest.mark.parametrize("commutative,accepted", [(True, 53), (False, 65)])
def test_search_verifies_only_leaves_it_accepts_n4(monkeypatch, commutative, accepted):
    # the pruning rules leave no leaf the full axiom check would reject
    cands, verified = _search_and_leaves(monkeypatch, 4, commutative)
    assert len(cands) == len(verified) == accepted


@pytest.mark.parametrize("commutative,accepted", [(True, 281), (False, 341)])
def test_search_verifies_only_leaves_it_accepts_n5(monkeypatch, commutative, accepted):
    cands, verified = _search_and_leaves(monkeypatch, 5, commutative)
    assert len(cands) == len(verified) == accepted


def test_noncommutative_search_at_the_search_bound():
    cands = brute_force_search(SearchConfig(5, require_commutative=False))
    assert len(cands) == 341
    classes = quotient_by_iso(cands)
    assert len(classes) == 9 and sum(size for _, size in classes) == 341


# nodes the class route explores: one per generated skeleton and one per
# cell value tried in it
CLASS_NODES = {(0, True): 1, (0, False): 1, (1, True): 1, (1, False): 1,
               (2, True): 4, (2, False): 4, (3, True): 17, (3, False): 20,
               (4, True): 103, (4, False): 153, (5, True): 559, (5, False): 892}


def _keys(cands) -> list:
    return [(c.triples(), c.bot) for c in cands]


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_search_matches_reference_search(n, commutative):
    # the skeleton search must find what the cell-by-cell reference search
    # finds; at every budget it stops after budget + 1 nodes of the class
    # route with a subset of the full result, where search_classes stops
    # with the same tables found, and the node total is the least budget
    # that completes
    want, _ = naive.search(n, commutative)
    full = _keys(brute_force_search(SearchConfig(n, commutative)))
    assert full == _keys(want)
    total = CLASS_NODES[n, commutative]
    if n <= 4:
        budgets = range(total)
    else:
        budgets = sorted({0, 1, total - 1} | {total * k // 17 for k in range(1, 17)})
    for budget in budgets:
        with pytest.raises(BudgetExceededError) as info:
            brute_force_search(SearchConfig(n, commutative, budget))
        with pytest.raises(BudgetExceededError) as classes:
            search_classes(SearchConfig(n, commutative, budget))
        assert info.value.explored == classes.value.explored == budget + 1
        assert _keys(info.value.found) == _keys(classes.value.found), budget
        assert set(_keys(info.value.found)) <= set(full)
    assert _keys(brute_force_search(SearchConfig(n, commutative, total))) == full


@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 10)])
def test_search_raw_counts_frozen(n, count):
    cands = brute_force_search(SearchConfig(n))
    assert len(cands) == count
    for c in cands:
        assert verify_structure(c).is_classical


def test_search_output_is_sorted_and_duplicate_free():
    cands = brute_force_search(SearchConfig(3))
    keys = [(c.triples(), tuple(sorted(c.bot))) for c in cands]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_search_without_commutativity_requirement():
    # the commutative search fixes l = r and fills each cell pair once, as
    # a mirrored pair; it must keep exactly the commutative results of the
    # unrestricted search
    for n in (2, 3, 4):
        sym = brute_force_search(SearchConfig(n))
        free = brute_force_search(SearchConfig(n, require_commutative=False))
        for c in free:
            assert verify_structure(c).is_special_frobenius
        assert [c for c in free if verify_structure(c).is_classical] == sym
    assert (len(sym), len(free)) == (53, 65)  # n = 4


def test_search_carrier_cap():
    with pytest.raises(ValueError, match="exceeds the exhaustive search bound 6"):
        brute_force_search(SearchConfig(7))


def test_negative_carriers_are_rejected():
    for call in (enumerate_classical_structures, enumerate_special_frobenius,
                 lambda n: brute_force_search(SearchConfig(n))):
        with pytest.raises(ValueError, match="carrier size -1 is negative"):
            call(-1)


def test_search_budget():
    with pytest.raises(BudgetExceededError) as info:
        brute_force_search(SearchConfig(3, budget=5))
    assert info.value.explored > 5
    assert isinstance(info.value.found, list)
    # a generous budget does not fire
    assert len(brute_force_search(SearchConfig(2, budget=10 ** 6))) == 3


@pytest.mark.parametrize("n,sizes", [(0, [1]), (1, [1]), (2, [1, 2]), (3, [1, 3, 6])])
def test_quotient_class_sizes_frozen(n, sizes):
    cands = brute_force_search(SearchConfig(n))
    classes = quotient_by_iso(cands)
    assert sorted(size for _, size in classes) == sorted(sizes)
    assert sum(size for _, size in classes) == len(cands)


def test_quotient_representative_is_canonical_fixed_point():
    cands = brute_force_search(SearchConfig(3))
    for rep, _ in quotient_by_iso(cands):
        again = quotient_by_iso([rep])
        assert len(again) == 1
        fixed, size = again[0]
        assert size == 1
        assert fixed.triples() == rep.triples() and fixed.bot == rep.bot


def test_quotient_rejects_mixed_carriers_and_large_n():
    a = candidate(1, [(0, 0, 0)], [0])
    b = candidate(2, [(0, 0, 0), (1, 1, 1)], [0, 1])
    with pytest.raises(ValueError):
        quotient_by_iso([a, b])
    big = candidate(7, [(x, x, x) for x in range(7)], range(7))
    with pytest.raises(ValueError):
        quotient_by_iso([big])
    assert quotient_by_iso([]) == []


def test_quotient_merges_relabelings():
    z2 = candidate(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], [0])
    z2_flipped = candidate(2, [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)], [1])
    classes = quotient_by_iso([z2, z2_flipped])
    assert len(classes) == 1 and classes[0][1] == 2


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_quotient_matches_reference_quotient(n, commutative):
    # the colour-refined classes against the least key over all n!
    # relabelings of every table: same representatives, sizes and order
    cands = brute_force_search(SearchConfig(n, commutative))
    assert quotient_keys(cands) == naive.quotient(cands)


def class_keys(classes) -> list:
    return [((rep.triples(), tuple(sorted(rep.bot))), size) for rep, size in classes]


def quotient_keys(cands) -> list:
    return class_keys(quotient_by_iso(cands))


def relabeled(rng, c):
    # a seeded random relabeling sigma of c, and sigma itself
    sigma = list(range(c.n))
    rng.shuffle(sigma)
    moved = candidate(c.n, [(sigma[x], sigma[y], sigma[z]) for x, y, z in c.triples()],
                      [sigma[e] for e in c.bot])
    return moved, sigma


def multi_valued_tables(rng, n: int, count: int) -> list:
    # seeded random relations with random unit sets, no axiom required,
    # and the table with x*y = every z outside {x, y}, all one colour
    tables = [candidate(n, [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
                            if z not in (x, y)], [])]
    for _ in range(count):
        triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
                   if rng.random() < 0.3]
        tables.append(candidate(n, triples, [e for e in range(n) if rng.random() < 0.4]))
    return tables


def test_colours_and_keys_move_with_relabeling(special_frobenius_structures):
    # with one signature table, sigma(x) in the relabeled table has the
    # colour x has, so both refinement trees have the same leaf keys, the
    # first leaf of either lies among the other's, and both tables have
    # the same least key
    rng = random.Random(12)
    tables = [c for c in special_frobenius_structures if c.n <= 6]
    tables += [t for n in range(1, 6) for t in multi_valued_tables(rng, n, 6)]
    for c in tables:
        for _ in range(3):
            moved, sigma = relabeled(rng, c)
            ids: dict = {}
            colour, moved_colour = (  # the root colouring of _leaf_keys
                relfrob.classify._refine(t.triples(), [ids.setdefault(x in t.bot, len(ids))
                                                       for x in range(t.n)], ids)
                for t in (c, moved))
            assert [moved_colour[sigma[x]] for x in range(c.n)] == colour, c
            leaves = set(relfrob.classify._leaf_keys(c.n, c.triples(), c.bot, ids))
            moved_leaves = relfrob.classify._leaf_keys(c.n, moved.triples(), moved.bot, ids)
            assert next(moved_leaves) in leaves, c
            assert {next(moved_leaves, None)} | set(moved_leaves) <= leaves | {None}, c
            assert (relfrob.classify._least_key(c.n, c.triples(), c.bot)
                    == relfrob.classify._least_key(c.n, moved.triples(), moved.bot)), c


def single_valued_tables(rng, n: int, count: int) -> list:
    # seeded random partial tables, one value or none per cell, random unit
    # sets, no axiom required
    return [candidate(n, [(x, y, rng.randrange(n)) for x in range(n) for y in range(n)
                          if rng.random() < 0.7], [e for e in range(n) if rng.random() < 0.4])
            for _ in range(count)]


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_least_key_is_the_least_over_every_relabeling_of_each_class(n, commutative):
    # branch and bound against the sweep of all n! relabelings, on every
    # class representative and two seeded relabelings of it
    rng = random.Random(10 * n + commutative)
    for rep, _ in search_classes(SearchConfig(n, commutative)):
        for c in (rep, relabeled(rng, rep)[0], relabeled(rng, rep)[0]):
            assert (relfrob.classify._least_key(n, c.triples(), c.bot)
                    == naive.least_key(n, c.triples(), c.bot)), c


@pytest.mark.parametrize("n", range(1, 7))
def test_least_key_is_the_least_over_every_relabeling_of_random_tables(n):
    # seeded single- and multi-valued tables with random unit sets, the
    # all-units table, where every relabeling ties, and tables whose swaps
    # fix the triples but not every unit set
    rng = random.Random(100 + n)
    tables = single_valued_tables(rng, n, 3) + multi_valued_tables(rng, n, 2)
    tables += [candidate(n, [(x, x, x) for x in range(n)], bot)
               for bot in (range(n), [n - 1])]
    tables += [candidate(n, [], bot) for bot in ([], [n - 1])]
    for c in tables:
        assert (relfrob.classify._least_key(n, c.triples(), c.bot)
                == naive.least_key(n, c.triples(), c.bot)), c


@pytest.mark.parametrize("n", range(1, 5))
def test_quotient_matches_reference_on_multi_valued_tables(n):
    rng = random.Random(n)
    tables = multi_valued_tables(rng, n, 8)
    tables += [relabeled(rng, c)[0] for c in tables for _ in range(3)]
    rng.shuffle(tables)
    assert quotient_keys(tables) == naive.quotient(tables)


@pytest.mark.parametrize("n", range(6))
def test_cross_validate_small_carriers(n):
    result = cross_validate(n)
    assert result.ok
    assert len(result.matches) == len(enumerate_classical_structures(n))
    assert "match" in result.message
    labels = [spec.label for spec, _, _ in result.matches]
    assert labels == [s.label for s in result.enumerated]


def test_cross_validate_at_the_search_bound_needs_no_budget():
    result = cross_validate(6)
    assert result.ok and len(result.matches) == 13
    assert sum(size for _, _, size in result.matches) == 2101


def test_cross_validate_above_the_search_bound_raises():
    with pytest.raises(ValueError, match="exceeds the exhaustive search bound 6"):
        cross_validate(7)
    with pytest.raises(ValueError, match="exceeds the exhaustive search bound 6"):
        cross_validate(7, budget=10)


def test_cross_validate_checks_its_arguments_in_the_search_order():
    # the carrier sign, then the carrier cap, then the budget sign; a zero
    # budget stops at the first skeleton with nothing found
    with pytest.raises(ValueError, match="carrier size -1 is negative"):
        cross_validate(-1, budget=-1)
    with pytest.raises(ValueError, match="exceeds the exhaustive search bound 6"):
        cross_validate(7, budget=-1)
    with pytest.raises(ValueError, match="budget -5 is negative"):
        cross_validate(3, budget=-5)
    with pytest.raises(BudgetExceededError) as info:
        cross_validate(3, budget=0)
    assert (info.value.explored, info.value.found) == (1, [])


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_search_classes_match_the_labeled_quotient(n, commutative):
    # one skeleton filled per type, the rest counted: the same
    # representatives, sizes and order as quotienting every labeled table
    cfg = SearchConfig(n, commutative)
    assert class_keys(search_classes(cfg)) == quotient_keys(naive.labeled_search(cfg))


@pytest.mark.parametrize("commutative,counts", [(True, [1, 1, 3, 10, 53, 281]),
                                                (False, [1, 1, 3, 10, 65, 341])])
def test_search_class_sizes_sum_to_the_labeled_counts(commutative, counts):
    assert [sum(size for _, size in search_classes(SearchConfig(n, commutative)))
            for n in range(6)] == counts


@pytest.mark.parametrize("n,commutative", [key for key in sorted(CLASS_NODES) if key[0] >= 3])
def test_search_classes_node_count(n, commutative):
    # the least budget that completes is the number of nodes explored, and
    # what an exhausted budget found is a subset of the labeled tables
    total = CLASS_NODES[n, commutative]
    search_classes(SearchConfig(n, commutative, total))
    with pytest.raises(BudgetExceededError) as info:
        search_classes(SearchConfig(n, commutative, total - 1))
    assert info.value.explored == total
    labeled = set(_keys(naive.labeled_search(SearchConfig(n, commutative))))
    assert set(_keys(info.value.found)) <= labeled


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_brute_force_search_equals_the_labeled_reference(n, commutative):
    # the orbits of the class representatives against every labeled
    # skeleton filled, list for list
    cfg = SearchConfig(n, commutative)
    assert brute_force_search(cfg) == naive.labeled_search(cfg)


@pytest.mark.parametrize("commutative", [True, False])
def test_brute_force_search_checks_each_orbit_against_its_class_size(monkeypatch, commutative):
    # a class size that disagrees with orbit-stabilizer is an error, not a
    # silently shorter or longer list; the first type at n = 3 is the
    # one-unit shape, Z3 on 3 labeled skeletons
    classes = relfrob.classify._classes

    def doubled(cands):
        (key, size), *rest = classes(cands)
        return [(key, 2 * size), *rest]

    monkeypatch.setattr(relfrob.classify, "_classes", doubled)
    with pytest.raises(RuntimeError, match="a class of 6 tables has an orbit of 3"):
        brute_force_search(SearchConfig(3, commutative))


def hom_sets(l, r) -> dict:
    """H(e, e') = {x : l(x) = e, r(x) = e'} of a skeleton."""
    hom: dict = {}
    for x, (e, e2) in enumerate(zip(l, r)):
        hom.setdefault((e, e2), []).append(x)
    return hom


def skeletons(n: int, commutative: bool) -> list[dict]:
    """The hom-sets of every labeled skeleton the labeled search keeps."""
    return [hom_sets(l, r) for _, l, r in naive.labeled_skeletons(n, commutative)]


def relabel_skeleton(hom: dict, tau) -> dict:
    """The hom-sets of the skeleton tau moves hom's to: tau(x) has left
    and right units tau(l(x)) and tau(r(x))."""
    moved: dict = {}
    for (e, e2), xs in hom.items():
        for x in xs:
            moved.setdefault((tau[e], tau[e2]), []).append(tau[x])
    return {key: sorted(xs) for key, xs in moved.items()}


def frozen(hom: dict) -> frozenset:
    return frozenset((key, tuple(xs)) for key, xs in hom.items())


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(7))
def test_skeleton_type_is_unchanged_under_relabelings(n, commutative):
    # a relabeled kept skeleton is kept too, and has the same type
    rng = random.Random(100 * n + commutative)
    homs = skeletons(n, commutative)
    kept = {frozen(hom) for hom in homs}
    for hom in homs:
        tau = list(range(n))
        rng.shuffle(tau)
        moved = relabel_skeleton(hom, tau)
        assert frozen(moved) in kept, (hom, tau)
        assert naive.skeleton_type(moved) == naive.skeleton_type(hom)


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(5))
def test_skeletons_of_one_type_are_related_by_a_relabeling(n, commutative):
    # exhaustively: two kept skeletons have one type exactly when some
    # relabeling maps one onto the other
    homs = skeletons(n, commutative)
    orbit_of = {frozen(hom): frozenset(frozen(relabel_skeleton(hom, tau))
                                       for tau in itertools.permutations(range(n)))
                for hom in homs}
    type_of = {frozen(hom): naive.skeleton_type(hom) for hom in homs}
    for a in orbit_of:
        for b in orbit_of:
            assert (b in orbit_of[a]) == (type_of[a] == type_of[b]), (a, b)


def holds_the_type_lemmas(matrix: tuple) -> bool:
    """Equal sizes and transitivity on a flattened |H(e, e')| matrix."""
    k = math.isqrt(len(matrix))
    size = [matrix[e * k:(e + 1) * k] for e in range(k)]
    joined = [(e, e2) for e in range(k) for e2 in range(k) if size[e][e2]]
    return (all(size[e][e2] == size[e][e] == size[e2][e2] for e, e2 in joined)
            and all(size[e][e3] for e, e2 in joined for e3 in range(k) if size[e2][e3]))


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(7))
def test_generated_types_and_counts_match_the_labeled_skeletons(n, commutative):
    # the kept labeled skeletons grouped by the reference type: each
    # generated type is among them, as often as its closed form says, and
    # every other type fails the equal-sizes or the transitivity lemma
    walked = collections.Counter(naive.skeleton_type(hom) for hom in skeletons(n, commutative))
    generated: dict = {}
    for shapes in relfrob.classify._skeleton_types(n, commutative):
        bot, l, r, count = relfrob.classify._place(n, shapes)
        hom = hom_sets(l, r)
        assert sorted(bot) == sorted({e for e, _ in hom}) and all(l[e] == r[e] == e for e in bot)
        generated[naive.skeleton_type(hom)] = count
    assert len(generated) == len(relfrob.classify._skeleton_types(n, commutative))
    assert {t: walked[t] for t in generated} == generated
    assert all(holds_the_type_lemmas(t) for t in generated)
    assert not any(holds_the_type_lemmas(t) for t in walked.keys() - generated.keys())


@pytest.mark.parametrize("commutative", [True, False])
@pytest.mark.parametrize("n", range(6))
def test_every_labeled_table_has_a_generated_type(n, commutative):
    # the skeleton each labeled table defines, by the unit lemmas, has a
    # type the class route generates
    generated = set()
    for shapes in relfrob.classify._skeleton_types(n, commutative):
        _, l, r, _ = relfrob.classify._place(n, shapes)
        generated.add(naive.skeleton_type(hom_sets(l, r)))
    for c in naive.labeled_search(SearchConfig(n, commutative)):
        l = {x: e for e, x, z in c.triples() if e in c.bot and z == x}
        r = {x: e for x, e, z in c.triples() if e in c.bot and z == x}
        hom = hom_sets([l[x] for x in range(n)], [r[x] for x in range(n)])
        assert naive.skeleton_type(hom) in generated, c


def euler_phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def automorphism_count(spec) -> int:
    """|Aut| of a direct sum of abelian groups, by closed forms: Z_m has
    phi(m), Z2 x Z2 has 6, and m equal blocks B have |Aut B|^m * m!."""
    total = 1
    for block, m in collections.Counter(spec.blocks).items():
        factors = block.invariant_factors
        # the closed forms cover the cyclic groups and Z2 x Z2 only
        aut = euler_phi(block.order) if len(factors) <= 1 else {(2, 2): 6}[factors]
        total *= aut ** m * math.factorial(m)
    return total


@pytest.mark.parametrize("n", range(7))
def test_class_sizes_are_n_factorial_over_the_automorphism_count(n):
    # each class of labeled tables is an orbit of n! relabelings, each
    # table fixed by |Aut| of them
    for spec, _, size in cross_validate(n).matches:
        assert size * automorphism_count(spec) == math.factorial(n), spec


def prime_exponents(factors) -> dict[int, list[int]]:
    """The exponents of Z_{p^e} in the p-primary split of a product of
    cyclic groups of these orders, ascending per prime p."""
    exponents: dict[int, list[int]] = collections.defaultdict(list)
    for d in factors:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exponents[p].append(e)
            p += 1
    return {p: sorted(es) for p, es in exponents.items()}


@functools.cache
def hillar_rhea_automorphisms(group) -> int:
    """|Aut| of a finite abelian group from its p-primary invariants.

    Aut G is the product of Aut G_p over the primes, and for
    G_p = Z_{p^e_1} x ... x Z_{p^e_k} with e_1 <= ... <= e_k Hillar and
    Rhea (Amer. Math. Monthly 2007, Theorem 4.1) count
    prod_i (p^d_i - p^(i-1)) * prod_j p^(e_j (k - d_j)) * prod_i p^((e_i - 1)(k - c_i + 1)),
    with d_i the last and c_i the first position j where e_j = e_i.
    """
    total = 1
    for p, es in prime_exponents(group.invariant_factors).items():
        k = len(es)
        for i, e in enumerate(es, 1):
            d, c = k - es[::-1].index(e), es.index(e) + 1
            total *= (p ** d - p ** (i - 1)) * p ** (e * (k - d)) * p ** ((e - 1) * (k - c + 1))
    return total


def spec_automorphisms(spec) -> int:
    """|Aut| of a direct sum: prod over the distinct blocks G, k times
    each, of |Aut G|^k * k!, since an automorphism may also swap equal
    blocks."""
    total = 1
    for block, k in collections.Counter(spec.blocks).items():
        total *= hillar_rhea_automorphisms(block) ** k * math.factorial(k)
    return total


def table_automorphisms(table) -> int:
    # the bijections that fix the unit 0 and preserve the table
    m = len(table)
    count = 0
    for images in itertools.permutations(range(1, m)):
        f = (0,) + images
        count += all(f[table[x][y]] == table[f[x]][f[y]] for x in range(m) for y in range(m))
    return count


@pytest.mark.parametrize("m", range(1, 9))
def test_hillar_rhea_counts_the_automorphisms_of_small_abelian_groups(m):
    for group in relfrob.groups.enumerate_abelian_groups(m):
        assert hillar_rhea_automorphisms(group) == table_automorphisms(group.table()), group


@pytest.mark.parametrize("n", range(7))
def test_search_class_sizes_are_n_factorial_over_hillar_rhea(n):
    # every class the class route finds is one orbit of n! relabelings
    for rep, size in search_classes(SearchConfig(n)):
        spec = decompose(rep).spec
        assert size * spec_automorphisms(spec) == math.factorial(n), spec.label


def labeled_counts(n_max: int) -> list[Fraction]:
    """n! [x^n] exp(B(x)), B(x) = sum over abelian groups G of x^|G| / |Aut G|:
    the labeled classical structures on n points, by the exponential
    formula, with exp by the recurrence n a_n = sum_k k b_k a_(n-k), in
    exact fractions, so no rounding can hide a wrong |Aut|."""
    b = [Fraction(0)] + [sum(Fraction(1, hillar_rhea_automorphisms(g))
                             for g in relfrob.groups.enumerate_abelian_groups(m))
                         for m in range(1, n_max + 1)]
    a = [Fraction(1)]
    for n in range(1, n_max + 1):
        a.append(sum(k * b[k] * a[n - k] for k in range(1, n + 1)) / n)
    return [a_n * math.factorial(n) for n, a_n in enumerate(a)]


def test_labeled_counts_are_the_exponential_formula_over_the_enumeration():
    counts = labeled_counts(ENUM_CARRIER_LIMIT)
    for n, count in enumerate(counts):
        assert count == sum(Fraction(math.factorial(n), spec_automorphisms(spec))
                            for spec in enumerate_classical_structures(n)), n


def test_exponential_formula_gives_the_searched_labeled_counts():
    assert labeled_counts(6) == [1, 1, 3, 10, 53, 281, 2101]


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 3))
def test_search_finds_exactly_the_enumerated_classes(n):
    # the searched quotient and the enumerated spec list agree in size
    classes = quotient_by_iso(brute_force_search(SearchConfig(n)))
    assert len(classes) == len(enumerate_classical_structures(n))
