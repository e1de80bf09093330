"""Classical elements, pairings, representation, decomposition, subobjects."""

from __future__ import annotations

import itertools
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

import naive
import relfrob.analysis
from conftest import candidate, product_of
from relfrob import (AbelianGroupSpec, BUILTIN_NONABELIAN, DecompositionError,
                     FrobeniusCandidate, PreconditionError, QuantumStructure,
                     Rel, SearchConfig, StructureSpec, brute_force_search,
                     build_biproduct, check_duality,
                     classical_elements, comonoid_subobjects, decompose,
                     enumerate_classical_structures, enumerate_special_frobenius,
                     identity, is_partial_bijection,
                     parse_structure_spec, quantum_structure, represent, star,
                     vector, verify_structure)
from relfrob.analysis import ELEMENTS_CARRIER_LIMIT
from test_classify import relabeled


def built(text: str):
    return build_biproduct(parse_structure_spec(text))


def all_structures_up_to(n_max: int):
    for n in range(n_max + 1):
        for spec in enumerate_special_frobenius(n):
            yield spec, build_biproduct(spec)


def subsets(n: int):
    return (frozenset(e for e in range(n) if mask >> e & 1)
            for mask in range(1 << n))


def reference_classical_elements(c) -> list[frozenset[int]]:
    """The defining conditions spelled out with relation arithmetic."""
    out = []
    for phi in subsets(c.n):
        vec = vector(c.n, phi)
        copyable = (vec >> c.delta) == vec.tensor(vec)
        deletable = (vec >> c.bot_vec.converse()) == identity(1)
        if copyable and deletable:
            out.append(phi)
    return sorted(out, key=sorted)


def reference_comonoid_subobjects(c, m: int) -> list[Rel]:
    """Every relation from m to the carrier against both comonoid laws and mono."""
    n = c.n
    delta_m = Rel.from_pairs(m, m * m, ((i, i * m + i) for i in range(m)))
    top_m = Rel.from_pairs(m, 1, ((i, 0) for i in range(m)))
    out = []
    for mask in range(1 << (m * n)):
        r = Rel(m, n, [(mask >> (i * n)) & ((1 << n) - 1) for i in range(m)])
        if (r.is_mono() and r >> c.delta == delta_m >> r.tensor(r)
                and r >> c.bot_vec.converse() == top_m):
            out.append(r)
    return sorted(out, key=lambda r: sorted(r.pairs()))


def test_classical_elements_of_group_sum(z3):
    c = built("2;3")
    assert classical_elements(c) == [frozenset({0, 1}), frozenset({2, 3, 4})]
    assert classical_elements(z3) == [frozenset({0, 1, 2})]


def test_classical_elements_of_standard_structure():
    c = built("1;1;1")
    assert classical_elements(c) == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_classical_elements_match_reference_formula():
    for _, c in all_structures_up_to(5):
        rep = verify_structure(c)
        if not rep.is_classical:
            continue
        assert classical_elements(c) == reference_classical_elements(c)
    for c in brute_force_search(SearchConfig(3)):
        assert classical_elements(c) == reference_classical_elements(c)


@pytest.fixture(scope="module")
def classical_structures() -> list:
    """Every classical structure with n <= 12, as built and under one seeded
    relabeling, and every commutative search result with n <= 5."""
    rng = random.Random(24)
    structures = []
    for n in range(13):
        for spec in enumerate_classical_structures(n):
            c = build_biproduct(spec)
            structures += [c, relabeled(rng, c)[0]]
    return structures + [c for n in range(6) for c in brute_force_search(SearchConfig(n))]


def test_classical_masks_match_the_all_subsets_scan(classical_structures):
    # the scan over the subsets of the points one unit fixes against the
    # scan of all 2^n
    for c in classical_structures:
        if c.n <= 10:
            assert verify_structure(c).is_classical
            assert relfrob.analysis._classical_masks(c) == naive.classical_masks(c), c


def test_distinct_units_never_compose(classical_structures):
    # the lemma that keeps the subset scan free of repeats: e*e' lies
    # within {e'} by the left unit law and within {e} by the right one, so
    # no unit fixes another
    special = [build_biproduct(spec) for n in range(9) for spec in enumerate_special_frobenius(n)]
    for c in classical_structures + special:
        assert verify_structure(c).is_special_frobenius
        for e, f in itertools.permutations(c.bot, 2):
            assert not product_of(c, e, f), (c, e, f)


def test_classical_elements_are_the_points_each_unit_fixes(classical_structures):
    # the units lemma: in a classical structure, {x : e*x = x} is copyable
    # for each unit e, and these are all the classical elements
    for c in classical_structures:
        fixed = [frozenset(x for x in range(c.n) if product_of(c, e, x) == {x})
                 for e in c.bot]
        for phi in fixed:
            vec = vector(c.n, phi)
            assert vec >> c.delta == vec.tensor(vec), (c, phi)
        assert classical_elements(c) == sorted(fixed, key=sorted), c


def test_classical_elements_preconditions(max_monoid):
    with pytest.raises(PreconditionError, match="frobenius"):
        classical_elements(max_monoid)
    big = built("21")
    with pytest.raises(ValueError, match="21"):
        classical_elements(big)


def test_quantum_structure_pinned_pairings(standard2, z3):
    assert quantum_structure(standard2).eta_pairs() == ((0, 0), (1, 1))
    assert quantum_structure(z3).eta_pairs() == ((0, 0), (1, 2), (2, 1))
    assert quantum_structure(built("2;3")).eta_pairs() == (
        (0, 0), (1, 1), (2, 2), (3, 4), (4, 3))


def test_self_inverse_group_pairs_like_standard_structure():
    klein = quantum_structure(built("2,2"))
    standard4 = quantum_structure(built("1;1;1;1"))
    z4 = quantum_structure(built("4"))
    assert klein.eta == standard4.eta
    assert z4.eta_pairs() == ((0, 0), (1, 3), (2, 2), (3, 1))
    assert z4.eta != klein.eta


def test_quantum_structure_requires_classical(max_monoid):
    s3 = build_biproduct(StructureSpec((BUILTIN_NONABELIAN["S3"],)))
    with pytest.raises(PreconditionError, match="commutativity"):
        quantum_structure(s3)
    with pytest.raises(PreconditionError):
        quantum_structure(max_monoid)


def test_epsilon_is_converse_of_eta(z3):
    # epsilon, eta's converse, is nabla >> top, with top = bot's converse
    q = quantum_structure(z3)
    assert q.eta.converse() == z3.nabla >> z3.bot_vec.converse()


def test_duality_holds_for_built_structures():
    for _, c in all_structures_up_to(6):
        if not verify_structure(c).is_classical:
            continue
        verdict = check_duality(quantum_structure(c))
        assert verdict.ok, verdict.witness


def test_duality_fails_for_incomplete_pairing():
    # element 1 has no partner, so one triangle loses it
    q = QuantumStructure(2, Rel.from_pairs(1, 4, [(0, 0)]))
    verdict = check_duality(q)
    assert not verdict.ok
    side, x, got = verdict.witness
    assert side in ("left", "right") and x == 1
    assert got == frozenset()


@pytest.mark.parametrize("dom,cod", [(1, 3), (1, 8), (2, 4)])
def test_check_duality_rejects_a_malformed_pairing(dom, cod):
    # at n = 2 the pairing must be 1 x 4
    q = QuantumStructure(2, Rel(dom, cod, [0] * dom))
    with pytest.raises(ValueError, match=f"pairing must be 1x4, got {dom}x{cod}"):
        check_duality(q)


def test_antidiagonal_is_a_valid_duality():
    # the flip pairing satisfies both triangles even off any structure
    q = QuantumStructure(2, Rel.from_pairs(1, 4, [(0, 1), (0, 2)]))
    assert check_duality(q).ok


def test_represent_singleton_is_group_translation(z3):
    r = represent(z3, {1})
    assert r.pairs() == frozenset({(0, 1), (1, 2), (2, 0)})
    assert represent(z3, {0}) == identity(3)


def test_represent_acts_blockwise():
    c = built("2;3")
    r = represent(c, {1})
    # {1} lives in the first block, so the second block is unreached
    assert r.pairs() == frozenset({(0, 1), (1, 0)})


def test_represent_of_union_is_union(z3):
    assert represent(z3, {0, 1}).pairs() == (
        represent(z3, {0}).pairs() | represent(z3, {1}).pairs())


def test_is_partial_bijection_cases():
    assert is_partial_bijection(Rel(2, 2, [0, 0]))
    assert is_partial_bijection(identity(3))
    assert not is_partial_bijection(Rel.from_pairs(2, 2, [(0, 0), (0, 1)]))
    assert not is_partial_bijection(Rel.from_pairs(2, 2, [(0, 0), (1, 0)]))


def test_singleton_representations_are_partial_bijections():
    for _, c in all_structures_up_to(6):
        for x in range(c.n):
            assert is_partial_bijection(represent(c, {x}))


def test_star_is_elementwise_inverse(z3):
    assert star(z3, {1}) == frozenset({2})
    assert star(z3, {0}) == frozenset({0})
    assert star(z3, {1, 2}) == frozenset({1, 2})
    s3 = build_biproduct(StructureSpec((BUILTIN_NONABELIAN["S3"],)))
    table = BUILTIN_NONABELIAN["S3"].table
    for g in range(6):
        inverse = next(h for h in range(6) if table[g][h] == 0)
        assert star(s3, {g}) == frozenset({inverse})


def test_star_involution_and_dagger_exchange():
    for _, c in all_structures_up_to(6):
        for phi in subsets(c.n):
            starred = star(c, phi)
            assert star(c, starred) == phi
            assert represent(c, starred) == represent(c, phi).converse()


def test_decompose_round_trips_every_spec():
    for spec, c in all_structures_up_to(8):
        result = decompose(c)
        assert result.spec == spec
        covered = sorted(x for members, _ in result.blocks for x in members)
        assert covered == list(range(c.n))


def test_decompose_raises_on_the_pair_groupoid():
    # passes every axiom but commutativity, yet is a groupoid, not a union of groups
    arrows = [(2 * i + j, 2 * j + k, 2 * i + k)
              for i in range(2) for j in range(2) for k in range(2)]
    groupoid = FrobeniusCandidate.from_triples(4, arrows, [0, 3])
    assert verify_structure(groupoid).is_special_frobenius
    with pytest.raises(DecompositionError, match="not single-valued in block"):
        decompose(groupoid)


# one fault per table, each reaching one DecompositionError check: (n,
# triples, units, message)
_DECOMPOSE_FAULTS = [
    (1, [], [0], "unit 0 spans no block"),
    (2, [(0, 1, 1)], [0], "unit 0 outside its own block"),
    (2, [(0, 0, 0), (1, 0, 0), (1, 1, 1)], [0, 1], "block of unit 1 overlaps an earlier block"),
    (2, [(0, 0, 0)], [0], "blocks do not cover the carrier"),
    (2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)], [0],
     "product 1*1 not single-valued in block"),
    (3, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 2), (2, 2, 2)], [0, 2],
     "product 1*1 leaves its block"),
    (2, [(0, 0, 0), (0, 1, 0), (1, 1, 1)], [0, 1], "cross-block product 0*1 defined"),
    (2, [(0, 0, 0), (1, 0, 1), (1, 1, 1)], [0, 1], "cross-block product 1*0 defined"),
]


@pytest.mark.parametrize("n,triples,units,message", _DECOMPOSE_FAULTS)
def test_decompose_names_each_fault(monkeypatch, n, triples, units, message):
    # the tables fail the axioms, so the precondition is lifted to reach
    # decompose's own checks
    monkeypatch.setattr(relfrob.analysis, "_require", lambda *args, **kwargs: None)
    with pytest.raises(DecompositionError, match=f"^{re.escape(message)}$"):
        decompose(FrobeniusCandidate.from_triples(n, triples, units))


def test_decompose_block_layout():
    result = decompose(built("2;3"))
    assert [(sorted(members), g.label) for members, g in result.blocks] == [
        ([0, 1], "Z2"), ([2, 3, 4], "Z3")]
    assert result.spec.label == "Z2 + Z3"


def test_decompose_identifies_nonabelian_blocks():
    for name in ("S3", "D4", "Q8"):
        c = build_biproduct(StructureSpec((BUILTIN_NONABELIAN[name],)))
        assert decompose(c).spec.label == name


def test_decompose_handles_relabeled_input():
    # send block elements to interleaved positions via a permutation
    base = built("2;3")
    perm = (3, 0, 4, 1, 2)
    triples = [(perm[x], perm[y], perm[z]) for x, y, z in base.triples()]
    bot = [perm[e] for e in base.bot]
    shuffled = candidate(5, triples, bot)
    result = decompose(shuffled)
    assert result.spec.label == "Z2 + Z3"
    assert sorted(sorted(m) for m, _ in result.blocks) == [[0, 3], [1, 2, 4]]


def test_decompose_rejects_non_frobenius(max_monoid):
    with pytest.raises(PreconditionError, match="frobenius"):
        decompose(max_monoid)


def test_decompose_accepts_noncommutative():
    c = build_biproduct(StructureSpec((BUILTIN_NONABELIAN["Q8"],)))
    assert decompose(c).spec.label == "Q8"


def test_decompose_unidentified_block():
    # dihedral group of order 10 is outside the built-in table library
    from test_groups import dihedral_table
    from relfrob import GroupSpec
    c = build_biproduct(StructureSpec((GroupSpec(dihedral_table(5)),)))
    assert decompose(c).spec.label == "unidentified group of order 10"


def test_comonoid_subobjects_simple_structures():
    for order in (2, 3, 4):
        c = built(str(order))
        empty = comonoid_subobjects(c, 0)
        assert empty == [Rel(0, order, [])]
        chaotic = comonoid_subobjects(c, 1)
        assert chaotic == [Rel(1, order, [(1 << order) - 1])]
        assert comonoid_subobjects(c, 2) == []


def test_comonoid_subobjects_count_block_injections():
    c = built("2;3")
    assert len(comonoid_subobjects(c, 1)) == 2
    assert len(comonoid_subobjects(c, 2)) == 2
    rows = {tuple(sorted(r.pairs())) for r in comonoid_subobjects(c, 2)}
    assert rows == {
        tuple(sorted({(0, 0), (0, 1), (1, 2), (1, 3), (1, 4)})),
        tuple(sorted({(0, 2), (0, 3), (0, 4), (1, 0), (1, 1)})),
    }


def test_comonoid_subobjects_bounds(z3):
    with pytest.raises(ValueError, match="exceeds"):
        comonoid_subobjects(z3, 9)
    with pytest.raises(ValueError, match="negative"):
        comonoid_subobjects(z3, -1)


def test_comonoid_subobjects_match_reference_scan():
    structures = [c for _, c in all_structures_up_to(5) if verify_structure(c).is_classical]
    structures += brute_force_search(SearchConfig(3))
    for c in structures:
        for m in range(11):
            if m * c.n <= 10:
                assert comonoid_subobjects(c, m) == reference_comonoid_subobjects(c, m)


def test_comonoid_subobjects_into_the_empty_carrier():
    empty = FrobeniusCandidate.from_triples(0, [], [])
    assert comonoid_subobjects(empty, 0) == [Rel(0, 0, [])]
    # no relation from a non-empty set into the empty set is mono, however large m
    for m in (1, 20, 21, 1000):
        assert comonoid_subobjects(empty, m) == []


def test_comonoid_subobjects_above_twenty_source_points():
    one = built("1")
    assert comonoid_subobjects(one, 1) == [Rel(1, 1, [1])]
    # m >= 2 points cannot map monically into one point
    for m in range(21, 25):
        assert comonoid_subobjects(one, m) == []


def test_subobject_scan_has_the_element_scan_bound(monkeypatch):
    n = ELEMENTS_CARRIER_LIMIT + 1
    assert comonoid_subobjects(built(str(n)), 0) == [Rel(0, n, [])]

    def refuse(*args):
        raise AssertionError("carrier over the subset scan bound was scanned")
    monkeypatch.setattr(relfrob.analysis, "_classical_masks", refuse)
    monkeypatch.setattr(relfrob.analysis, "_require", refuse)
    with pytest.raises(ValueError, match=f"carrier size {n} exceeds the subset search limit"):
        comonoid_subobjects(built(str(n)), 1)
    monkeypatch.undo()
    monkeypatch.setattr(relfrob.analysis, "_classical_masks", lambda c: [])
    assert comonoid_subobjects(built(str(n - 1)), 1) == []


def test_decomposition_blocks_equal_classical_elements():
    for _, c in all_structures_up_to(6):
        if not verify_structure(c).is_classical:
            continue
        blocks = {frozenset(members) for members, _ in decompose(c).blocks}
        assert blocks == set(classical_elements(c))


def reference_eta(c):
    # the pairing is a vector on the square carrier: 1 -> n*n
    pairs = set()
    for a, b in itertools.product(range(c.n), repeat=2):
        if product_of(c, a, b) & c.bot:
            pairs.add((0, a * c.n + b))
    return Rel.from_pairs(1, c.n * c.n, pairs)


def test_eta_matches_reference_formula():
    for _, c in all_structures_up_to(6):
        if not verify_structure(c).is_classical:
            continue
        assert quantum_structure(c).eta == reference_eta(c)


# The composites below are whiskers of the bit rows, and Rel.tensor is one
# too, so they are checked against the pair-set reference instead.

def naive_rows(r: frozenset, dom: int) -> list[frozenset]:
    return [frozenset(b for a, b in r if a == x) for x in range(dom)]


def naive_duality(n: int, eta: frozenset) -> tuple:
    idn, eps = naive.identity_pairs(n), naive.converse(eta)
    left = naive.compose(naive.tensor(idn, (n, n), eta, (1, n * n)),
                         naive.tensor(eps, (n * n, 1), idn, (n, n)))
    right = naive.compose(naive.tensor(eta, (1, n * n), idn, (n, n)),
                          naive.tensor(idn, (n, n), eps, (n * n, 1)))
    for side, composite in (("left", left), ("right", right)):
        for x, got in enumerate(naive_rows(composite, n)):
            if got != {x}:
                return False, (side, x, got)
    return True, None


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.frozensets(st.integers(0, max(n * n - 1, 0)), max_size=n * n))))
def test_check_duality_matches_naive_composites(case):
    n, pairs = case
    eta = frozenset((0, p) for p in pairs if p < n * n)
    verdict = check_duality(QuantumStructure(n, Rel.from_pairs(1, n * n, eta)))
    assert (verdict.ok, verdict.witness) == naive_duality(n, eta)


def test_check_duality_matches_naive_on_built_pairings():
    for _, c in all_structures_up_to(5):
        q = quantum_structure(c)
        verdict = check_duality(q)
        assert verdict.ok and (verdict.ok, verdict.witness) == naive_duality(c.n, q.eta.pairs())


def naive_star(c, phi) -> set[int]:
    """eta >> (phi converse ⊗ id), with eta = bot >> delta."""
    n, idn = c.n, naive.identity_pairs(c.n)
    eta = naive.compose(c.bot_vec.pairs(), naive.converse(c.nabla.pairs()))
    vec = frozenset((0, e) for e in phi)
    dual = naive.compose(eta, naive.tensor(naive.converse(vec), (n, 1), idn, (n, n)))
    return {b for _, b in dual}


def test_represent_and_star_match_naive_composites():
    for _, c in all_structures_up_to(5):
        n = c.n
        idn = naive.identity_pairs(n)
        for phi in subsets(n):
            vec = frozenset((0, e) for e in phi)
            acted = naive.compose(naive.tensor(vec, (1, n), idn, (n, n)), c.nabla.pairs())
            assert represent(c, phi).pairs() == acted
            assert star(c, phi) == naive_star(c, phi)


def test_star_matches_naive_composite_on_random_tables():
    # seeded multi-valued tables and unit subsets, no axiom assumed
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 5)
        triples = [(x, y, z) for x, y, z in itertools.product(range(n), repeat=3)
                   if rng.random() < 0.2]
        c = candidate(n, triples, [e for e in range(n) if rng.random() < 0.4])
        phi = frozenset(e for e in range(n) if rng.random() < 0.5)
        assert star(c, phi) == naive_star(c, phi)
