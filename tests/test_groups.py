"""Group specs, tables, classification, and the block grammar."""

from __future__ import annotations

import doctest
import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

import relfrob.groups
from conftest import product_of
from relfrob import (AbelianGroupSpec, BUILTIN_NONABELIAN, GroupSpec,
                     StructureSpec, abelian_table, build_biproduct,
                     element_orders, enumerate_abelian_groups, identify_group,
                     normalize_invariant_factors, parse_structure_spec,
                     verify_structure)
from relfrob.frobenius import CARRIER_LIMIT
from relfrob.groups import _invariant_factors, _is_commutative


def invariant_factors_of_table(table) -> tuple[int, ...]:
    """The package's invariant factors of an abelian table; ValueError when
    the table is not abelian, where they are undefined."""
    if not _is_commutative(table):
        raise ValueError("table is not abelian")
    return _invariant_factors(table)


def count_partitions(m: int) -> int:
    # independent of the package's partition generator
    table = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            table[total] += table[total - part]
    return table[m]


def abelian_group_count(m: int) -> int:
    # multiplicative over prime powers: one abelian group per partition
    # of each prime exponent
    count = 1
    rest = m
    for p in range(2, m + 1):
        if p * p > rest:
            break
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        count *= count_partitions(e)
    if rest > 1:
        count *= count_partitions(1)
    return count


def test_module_doctests():
    result = doctest.testmod(relfrob.groups)
    assert result.failed == 0
    assert result.attempted > 0


def test_abelian_spec_validation():
    with pytest.raises(ValueError):
        AbelianGroupSpec((1,))
    with pytest.raises(ValueError):
        AbelianGroupSpec((3, 4))
    assert AbelianGroupSpec(()).order == 1
    assert AbelianGroupSpec(()).label == "Z1"
    assert AbelianGroupSpec((2, 4)).label == "Z2xZ4"
    assert AbelianGroupSpec((2, 4)).order == 8


def test_abelian_table_is_componentwise_sum():
    t = abelian_table((2, 3))
    # element a*3+b acts like (a mod 2, b mod 3)
    for a, b, c, d in itertools.product(range(2), range(3), range(2), range(3)):
        assert t[a * 3 + b][c * 3 + d] == ((a + c) % 2) * 3 + (b + d) % 3


def test_group_spec_validates_table():
    with pytest.raises(ValueError, match="unit"):
        GroupSpec(((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="inverse"):
        GroupSpec(((0, 1), (1, 1)))
    with pytest.raises(ValueError, match="associative"):
        # unit and inverses fine, but (2*2)*1 != 2*(2*1)
        GroupSpec(((0, 1, 2), (1, 0, 2), (2, 2, 0)))
    with pytest.raises(ValueError, match="length"):
        GroupSpec(((0,), (1, 0)))


def first_non_associative_triple(table):
    n = len(table)
    return next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                 if table[table[a][b]][c] != table[a][table[b][c]]), None)


def test_group_spec_names_the_first_failing_triple_of_the_full_scan():
    # Light's test checks only the generators; a failure still names the
    # first (a, b, c) of the scan over all triples
    with pytest.raises(ValueError, match=r"^not associative at \(1, 2, 2\)$"):
        GroupSpec(((0, 1, 2), (1, 0, 2), (2, 2, 0)))
    rng = random.Random(7)
    failures = 0
    for n in range(3, 9):
        for _ in range(20):
            # unit 0 and x*x = 0, so every element is its own inverse
            table = [[0] * n for _ in range(n)]
            for x in range(n):
                table[0][x] = table[x][0] = x
            for x in range(1, n):
                for y in range(1, n):
                    table[x][y] = 0 if x == y else rng.randrange(n)
            triple = first_non_associative_triple(table)
            if triple is None:
                GroupSpec(table)
                continue
            failures += 1
            with pytest.raises(ValueError, match=rf"^not associative at \({triple[0]}, "
                               rf"{triple[1]}, {triple[2]}\)$"):
                GroupSpec(table)
    assert failures > 100


def test_group_spec_accepts_groups_generated_in_any_order():
    # every abelian group of order <= 32 and the dihedral groups, relabeled
    # by seeded permutations, so the greedy generators vary
    rng = random.Random(8)
    tables = [g.table() for m in range(1, 33) for g in enumerate_abelian_groups(m)]
    tables += [dihedral_table(k) for k in range(3, 17)]
    for table in tables:
        n = len(table)
        sigma = list(range(n))
        rng.shuffle(sigma)
        moved = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                moved[sigma[x]][sigma[y]] = sigma[table[x][y]]
        GroupSpec(moved)


def test_group_spec_rejects_an_entry_outside_its_table():
    with pytest.raises(ValueError, match=r"entry \(1, 1\) = 2 is not an element"):
        GroupSpec(((0, 1), (1, 2)))


def test_builtin_tables_are_nonabelian_groups():
    assert set(BUILTIN_NONABELIAN) == {"S3", "D4", "Q8"}
    for name, g in BUILTIN_NONABELIAN.items():
        assert g.name == name and g.label == name
        assert not _is_commutative(g.table)
        assert g.order == (6 if name == "S3" else 8)


def test_builtin_element_orders():
    assert sorted(element_orders(BUILTIN_NONABELIAN["S3"].table)) == [1, 2, 2, 2, 3, 3]
    assert sorted(element_orders(BUILTIN_NONABELIAN["D4"].table)) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert sorted(element_orders(BUILTIN_NONABELIAN["Q8"].table)) == [1, 2, 4, 4, 4, 4, 4, 4]


def test_nonabelian_structures_fail_only_commutativity():
    for g in BUILTIN_NONABELIAN.values():
        rep = verify_structure(build_biproduct(StructureSpec((g,))))
        assert rep.is_special_frobenius
        assert not rep.commutativity.ok
        assert not rep.is_classical


@given(st.lists(st.sampled_from([2, 2, 2, 3, 4, 5, 6]), max_size=3).filter(
    lambda fs: math.prod(fs) <= 12))
def test_abelian_structures_are_classical(factors):
    spec = normalize_invariant_factors(factors)
    rep = verify_structure(build_biproduct(StructureSpec((spec,))))
    assert rep.is_classical


def test_enumerate_abelian_groups_known_orders():
    assert [g.invariant_factors for g in enumerate_abelian_groups(1)] == [()]
    assert [g.invariant_factors for g in enumerate_abelian_groups(8)] == [
        (2, 2, 2), (2, 4), (8,)]
    assert [g.invariant_factors for g in enumerate_abelian_groups(12)] == [
        (2, 6), (12,)]
    assert len(enumerate_abelian_groups(16)) == 5
    with pytest.raises(ValueError):
        enumerate_abelian_groups(0)


@pytest.mark.parametrize("m", range(1, CARRIER_LIMIT + 1))
def test_enumerate_abelian_groups_count_formula(m):
    assert len(enumerate_abelian_groups(m)) == abelian_group_count(m)


@pytest.mark.parametrize("m", range(1, 65))
def test_enumerated_groups_pairwise_distinct(m):
    # element-order multisets separate abelian groups of equal order, and
    # each group's factors read back from its own table
    seen = set()
    for g in enumerate_abelian_groups(m):
        table = g.table()
        orders = tuple(sorted(element_orders(table)))
        assert orders not in seen
        seen.add(orders)
        assert invariant_factors_of_table(table) == g.invariant_factors


def test_normalize_invariant_factors():
    assert normalize_invariant_factors([4, 6]).invariant_factors == (2, 12)
    assert normalize_invariant_factors([2, 3]).invariant_factors == (6,)
    assert normalize_invariant_factors([1, 1, 5]).invariant_factors == (5,)
    assert normalize_invariant_factors([]).invariant_factors == ()
    with pytest.raises(ValueError):
        normalize_invariant_factors([0])


def test_nothing_is_factored_into_primes():
    # factoring the Mersenne prime 2^61 - 1 by trial division would run to
    # about 1.5e9; the chain walk for 2^31 - 1 tries the 46 339 d up to its
    # square root as d * d | m, and takes one chain
    big = 2 ** 61 - 1
    start = time.perf_counter()
    assert normalize_invariant_factors([big, big]).invariant_factors == (big, big)
    assert [g.invariant_factors for g in enumerate_abelian_groups(2 ** 31 - 1)] == [
        (2 ** 31 - 1,)]
    assert time.perf_counter() - start < 0.5


def test_normalization_preserves_isomorphism_type():
    spec = normalize_invariant_factors([4, 6])
    assert invariant_factors_of_table(abelian_table((4, 6))) == spec.invariant_factors
    assert invariant_factors_of_table(abelian_table((24,))) != spec.invariant_factors


def relabel(table, perm):
    inv = [perm.index(i) for i in range(len(perm))]
    return tuple(tuple(perm[table[inv[a]][inv[b]]] for b in range(len(perm)))
                 for a in range(len(perm)))


def cyclic_order_lists(most: int):
    """Every list of cyclic orders from 2 up with product at most `most`."""
    yield []
    for c in range(2, most + 1):
        for rest in cyclic_order_lists(most // c):
            yield [c] + rest


def test_invariant_factors_of_table_inverts_construction():
    # gcd/lcm folding against peeling by element orders, two routes
    rng = random.Random(0)
    for orders in cyclic_order_lists(32):
        spec = normalize_invariant_factors(orders + [1])  # a 1 folds to nothing
        assert invariant_factors_of_table(spec.table()) == spec.invariant_factors
        # also from the unnormalized direct-product table
        table = abelian_table(tuple(orders))
        assert invariant_factors_of_table(table) == spec.invariant_factors
        # and relabeled, so the unit may sit anywhere
        perm = list(range(len(table)))
        rng.shuffle(perm)
        assert invariant_factors_of_table(relabel(table, perm)) == spec.invariant_factors


def test_invariant_factors_rejects_nonabelian():
    with pytest.raises(ValueError, match="abelian"):
        invariant_factors_of_table(BUILTIN_NONABELIAN["S3"].table)
    # commutative with a unit, and the powers of 1 and 2 reach it, but
    # (1*1)*2 = 2 while 1*(1*2) = 1; its element orders 1, 2, 2 give
    # N(3) = 1, where a group of order 3 would give 3
    with pytest.raises(ValueError, match="not an abelian group"):
        _invariant_factors(((0, 1, 2), (1, 0, 0), (2, 0, 0)))


@pytest.mark.parametrize("table", [((0, 1), (1, 1)),
                                   ((0, 1, 2), (1, 2, 2), (2, 2, 2))])
def test_element_orders_stop_on_a_monoid(table):
    # commutative monoids with a unit, where the powers of 1 stick at an
    # idempotent other than the unit
    with pytest.raises(ValueError, match="element 1 never reach the unit"):
        element_orders(table)
    with pytest.raises(ValueError, match="element 1 never reach the unit"):
        invariant_factors_of_table(table)


def test_are_isomorphic_under_relabeling():
    # a relabeled table is the same group: same invariants, same name
    t = abelian_table((2, 2))
    relabeled = relabel(t, (2, 0, 3, 1))
    assert relabeled != t
    assert invariant_factors_of_table(relabeled) == invariant_factors_of_table(t) == (2, 2)
    assert sorted(element_orders(relabeled)) == sorted(element_orders(t))
    for name, g in BUILTIN_NONABELIAN.items():
        perm = list(range(g.order))[::-1]
        assert identify_group(relabel(g.table, perm)).name == name


def test_are_isomorphic_negative_cases():
    assert (invariant_factors_of_table(abelian_table((4,)))
            != invariant_factors_of_table(abelian_table((2, 2))))
    s3, d4, q8 = (BUILTIN_NONABELIAN[k].table for k in ("S3", "D4", "Q8"))
    assert identify_group(s3).name != identify_group(abelian_table((6,))).name
    assert identify_group(d4).name != identify_group(q8).name
    assert identify_group(d4).name != identify_group(abelian_table((2, 4))).name


def test_element_orders_separate_groups_of_order_6_and_8():
    # identify_group names a table by its order and element orders; that is
    # exact because these are all 2 groups of order 6 and all 5 of order 8
    for m, count in ((6, 2), (8, 5)):
        abelian = [g.table() for g in enumerate_abelian_groups(m)]
        builtin = [g.table for g in BUILTIN_NONABELIAN.values() if g.order == m]
        tables = abelian + builtin
        assert len(tables) == count
        assert len({tuple(sorted(element_orders(t))) for t in tables}) == count
        for t in abelian:
            assert identify_group(t).name is None
            assert identify_group(relabel(t, list(range(m))[::-1])).name is None


def dihedral_table(k: int):
    # element f*k + r: rotation r with optional flip f
    n = 2 * k
    table = [[0] * n for _ in range(n)]
    for f1, r1, f2, r2 in itertools.product(range(2), range(k), range(2), range(k)):
        r = (r2 + (r1 if f2 == 0 else -r1)) % k
        table[f1 * k + r1][f2 * k + r2] = ((f1 ^ f2) * k + r)
    return tuple(tuple(row) for row in table)


def test_identify_group_builtin_and_fallback():
    shuffled = relabel(BUILTIN_NONABELIAN["S3"].table, (3, 4, 5, 0, 1, 2))
    assert identify_group(shuffled).name == "S3"
    d5 = identify_group(dihedral_table(5))
    assert d5.name is None
    assert d5.label == "unidentified group of order 10"


def test_dihedral_table_matches_builtin_d4():
    assert identify_group(dihedral_table(4)).name == "D4"


def test_structure_spec_canonical_order_and_label():
    s = parse_structure_spec("3;2;S3;1")
    assert s.label == "Z1 + Z2 + Z3 + S3"
    assert s.n == 12
    assert not all(isinstance(b, AbelianGroupSpec) for b in s.blocks)
    assert parse_structure_spec("2;3").label == "Z2 + Z3"
    assert parse_structure_spec("2,2").label == "Z2xZ2"
    assert parse_structure_spec("4,6").label == "Z2xZ12"
    assert parse_structure_spec("s3").label == "S3"
    assert all(isinstance(b, AbelianGroupSpec) for b in parse_structure_spec("1").blocks)


def test_structure_spec_equality_ignores_block_order():
    assert parse_structure_spec("2;3") == parse_structure_spec("3;2")
    assert StructureSpec((AbelianGroupSpec((2,)), AbelianGroupSpec((3,)))) == \
        parse_structure_spec("3;2")


def test_parse_structure_spec_errors():
    with pytest.raises(ValueError, match="'frobnitz'"):
        parse_structure_spec("frobnitz")
    with pytest.raises(ValueError, match="empty block"):
        parse_structure_spec("2;;3")
    with pytest.raises(ValueError, match="at least 1"):
        parse_structure_spec("0")
    with pytest.raises(ValueError, match="'2x3'"):
        parse_structure_spec("2x3")


def test_a_long_spec_fails_in_linear_time():
    # 80 000 cyclic orders, 400 KB: the order is capped as it is multiplied
    text = ",".join(["1000"] * 80_000)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"order above {CARRIER_LIMIT}"):
        parse_structure_spec(text)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("token,sep,label", [("1", ";", None), ("S3", ";", None),
                                             ("1000", ",", None), ("1", ",", "Z1")])
def test_a_long_spec_parses_in_memory_proportional_to_it(token, sep, label):
    # 100 KB of blocks or of one block's cyclic orders; only a product of
    # ones stays within the carrier cap
    text = sep.join([token] * (100_000 // (len(token) + 1)))
    tracemalloc.start()
    try:
        try:
            got = parse_structure_spec(text).label
        except ValueError as exc:
            got = None
            assert f"order above {CARRIER_LIMIT}" in str(exc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == label
    assert peak <= 25 * len(text) + 2 ** 20, f"peak {peak} B for a {len(text)} B spec"


def test_build_group_structure_lookup():
    z6 = build_biproduct(StructureSpec((AbelianGroupSpec((6,)),)))
    assert z6.n == 6 and z6.bot == frozenset({0})
    assert product_of(z6, 4, 5) == frozenset({3})


def test_build_biproduct_layout():
    c = build_biproduct(parse_structure_spec("2;3"))
    assert c.n == 5
    assert c.bot == frozenset({0, 2})
    # blocks are contiguous: {0,1} then {2,3,4}
    assert product_of(c, 1, 1) == frozenset({0})
    assert product_of(c, 3, 4) == frozenset({2})
    assert product_of(c, 1, 3) == frozenset()


def test_build_biproduct_empty_spec():
    c = build_biproduct(StructureSpec(()))
    assert c.n == 0 and verify_structure(c).is_classical
