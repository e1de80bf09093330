"""Axiom checker behaviour, pinned against hand-derived cases and the
pair-set reference implementation."""

from __future__ import annotations

import random
from itertools import product
from operator import ne

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import naive
import relfrob.frobenius
from conftest import candidate, product_of, relational_tables, single_valued_tables
from relfrob import (FroWitness, FrobeniusCandidate, Verdict, build_biproduct,
                     check_fro_pointwise, classical_elements, decompose,
                     enumerate_special_frobenius, identity, parse_structure_spec,
                     quantum_structure, satisfies_axioms, verify_structure)

AXIOM_NAMES = ("associativity", "left-unit", "right-unit", "commutativity",
               "special", "frobenius", "frobenius-pointwise")


def test_candidate_validation():
    with pytest.raises(ValueError):
        FrobeniusCandidate.from_triples(2, [(0, 0, 2)], [0])
    with pytest.raises(ValueError):
        FrobeniusCandidate.from_triples(2, [(0, 0, 0)], [2])
    with pytest.raises(ValueError):
        FrobeniusCandidate.from_triples(-1, [], [])


def test_candidate_rejects_a_multiplication_of_the_wrong_shape():
    with pytest.raises(ValueError, match="multiplication must be 4x2, got 3x2"):
        FrobeniusCandidate(2, relfrob.Rel(3, 2, [0, 0, 0]), [])
    with pytest.raises(ValueError, match="multiplication must be 4x2, got 4x3"):
        FrobeniusCandidate(2, relfrob.Rel(4, 3, [0] * 4), [])


def test_comultiplication_is_converse_by_construction(z3):
    assert z3.delta == z3.nabla.converse()


def test_triples_round_trip(z3):
    again = FrobeniusCandidate.from_triples(z3.n, z3.triples(), z3.bot)
    assert again.nabla == z3.nabla and again.bot == z3.bot


def test_product_lookup(z2, standard2):
    assert product_of(z2, 1, 1) == frozenset({0})
    assert product_of(standard2, 0, 1) == frozenset()
    assert z2.is_single_valued() and standard2.is_single_valued()


def test_known_structures_are_classical(z2, standard2, z3):
    for c in (z2, standard2, z3):
        rep = verify_structure(c)
        assert rep.is_classical and rep.is_special_frobenius
        assert all(v is None or v.ok for _, v in rep.axioms())


def test_axiom_name_order(z2):
    assert tuple(name for name, _ in verify_structure(z2).axioms()) == AXIOM_NAMES


def test_empty_carrier_is_classical():
    rep = verify_structure(FrobeniusCandidate.from_triples(0, [], []))
    assert rep.empty_carrier and rep.is_classical


def test_max_monoid_verdicts(max_monoid):
    rep = verify_structure(max_monoid)
    assert rep.associativity.ok and rep.left_unit.ok and rep.right_unit.ok
    assert rep.commutativity.ok and rep.special.ok
    assert not rep.frobenius.ok
    assert rep.frobenius.violations == ((0, 1), (1, 0), (1, 1))
    # the witness is the first violating pair in lexicographic order
    w = rep.frobenius.witness
    assert isinstance(w, FroWitness) and (w.i, w.j) == (0, 1)
    assert not rep.is_classical and not rep.is_special_frobenius


def test_max_monoid_routes_agree_exactly(max_monoid):
    rep = verify_structure(max_monoid)
    assert rep.frobenius_pointwise is not None
    assert rep.frobenius == rep.frobenius_pointwise


def test_max_monoid_sets_at_one_one(max_monoid):
    fiber, split_left, split_right = naive.frobenius_sets_at(2, max_monoid.triples(), 1, 1)
    assert fiber == frozenset({(0, 1), (1, 0), (1, 1)})
    assert split_left == frozenset({(0, 1), (1, 1)})
    assert split_right == frozenset({(1, 0), (1, 1)})


def test_unit_failure_witness():
    # 0 is not a left unit for 1: bot*1 yields nothing
    c = candidate(2, [(0, 0, 0), (1, 1, 1)], [0])
    rep = verify_structure(c)
    assert not rep.left_unit.ok
    x, got = rep.left_unit.witness
    assert x == 1 and got == frozenset()


def test_special_failure_witness():
    # not surjective: nothing multiplies to 1
    c = candidate(2, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)], [0])
    rep = verify_structure(c)
    assert not rep.special.ok
    assert rep.special.witness[0] == 1


def test_multi_valued_skips_pointwise_route():
    c = candidate(2, [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)], [0])
    rep = verify_structure(c)
    assert rep.frobenius_pointwise is None
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        check_fro_pointwise(c)


@given(relational_tables())
def test_verdicts_match_reference(table):
    n, triples, bot = table
    rep = verify_structure(candidate(n, triples, bot))
    want = naive.axioms(n, triples, bot)
    assert rep.associativity.ok == want["associativity"]
    assert rep.left_unit.ok == want["left_unit"]
    assert rep.right_unit.ok == want["right_unit"]
    assert rep.commutativity.ok == want["commutativity"]
    assert rep.special.ok == want["special"]
    assert rep.frobenius.ok == want["frobenius"]


@given(relational_tables())
def test_special_iff_single_valued_and_surjective(table):
    n, triples, bot = table
    c = candidate(n, triples, bot)
    surjective = {z for _, _, z in triples} == set(range(n))
    assert verify_structure(c).special.ok == (c.is_single_valued() and surjective)


@given(single_valued_tables())
def test_pointwise_route_always_agrees(table):
    n, triples, bot = table
    rep = verify_structure(candidate(n, triples, bot))
    assert rep.frobenius_pointwise is not None
    assert rep.frobenius == rep.frobenius_pointwise


@st.composite
def multi_valued_tables(draw, max_n: int = 5):
    """A possibly multi-valued operation with no symmetry imposed, plus a unit subset."""
    n = draw(st.integers(0, max_n))
    if n == 0:
        return 0, (), frozenset()
    cell = st.frozensets(st.integers(0, n - 1), max_size=3)
    triples = tuple((x, y, z) for x in range(n) for y in range(n) for z in draw(cell))
    return n, triples, draw(st.frozensets(st.integers(0, n - 1)))


@given(multi_valued_tables())
def test_split_right_is_split_left_converse_and_fiber_self_converse(table):
    # the lemma the checker rests on: delta = nabla converse, so the two
    # splits are each other's converse, and the fiber is its own
    c = candidate(*table)
    n, nab, delta = c.n, c.nabla, c.delta
    split_right = identity(n).tensor(delta) >> nab.tensor(identity(n))
    assert split_right == delta.whisker_right(n, nab, n).converse()
    assert (nab >> delta) == (nab >> delta).converse()


def _reference_interchange(n, triples) -> tuple:
    """The interchange verdict rebuilt from the three naive composites."""
    routes = naive.frobenius_routes(n, triples)

    def sets_at(p):
        return tuple(frozenset(divmod(t, n) for s, t in route if s == p) for route in routes)
    bad = [p for p in range(n * n) if len(set(sets_at(p))) > 1]
    if not bad:
        return True, None, ()
    return (False, FroWitness(*divmod(bad[0], n), *sets_at(bad[0])),
            tuple(divmod(p, n) for p in bad))


@given(multi_valued_tables())
def test_multi_valued_interchange_verdict_matches_naive_routes(table):
    # the pointwise route cannot cross-check these tables
    n, triples, _ = table
    v = verify_structure(candidate(*table)).frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)


def test_pair_violating_only_through_split_right():
    # at (0, 0) split-left equals the fiber; only split-right, the converse
    # side, leaves it
    triples = ((0, 0, 0), (0, 0, 1), (0, 1, 0))
    v = verify_structure(candidate(2, triples, [0])).frobenius
    assert v.witness == FroWitness(0, 0, frozenset({(0, 0), (0, 1)}),
                                   frozenset({(0, 0), (0, 1)}),
                                   frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    assert (v.ok, v.witness, v.violations) == _reference_interchange(2, triples)


def test_passing_checks_never_compute_split_right(monkeypatch):
    # split-left, (delta ⊗ id) >> (id ⊗ nabla), is the one whisker with an
    # outer identity (m > 1) a check may build, and split-right is its
    # converse; on a group the slices show every block equal, so a passing
    # check composes neither split
    whisker_right_blocks = relfrob.Rel.whisker_right_blocks
    outer = []

    def spy(self, k, s, m=1):
        outer.append(m > 1)
        return whisker_right_blocks(self, k, s, m)
    monkeypatch.setattr(relfrob.Rel, "whisker_right_blocks", spy)
    checks = [lambda c: verify_structure(c).is_classical, satisfies_axioms,
              lambda c: satisfies_axioms(c, commutative=False)]
    for check in checks:
        c = build_biproduct(parse_structure_spec("2;3"))
        outer.clear()
        assert check(c)
        # the spy sits on the code that runs: the unit laws and
        # associativity are whiskers with m = 1
        assert outer.count(True) == 0 and outer.count(False) >= 4
    # a block that differs is built by the split-left whisker
    c = build_biproduct(parse_structure_spec("2;3"))
    outer.clear()
    assert not verify_structure(candidate(5, c.triples()[1:], c.bot)).frobenius.ok
    assert outer.count(True) == 1


def _cells_perturbed(spec: str, seed: int) -> tuple:
    """spec's structure with one to three cells changed: each deleted, given
    another value, or given a second value."""
    c = build_biproduct(parse_structure_spec(spec))
    rng = random.Random(f"{spec}/cells/{seed}")
    cells = {(x, y): {z} for x, y, z in c.triples()}
    for _ in range(rng.randint(1, 3)):
        x, y, z = (rng.randrange(c.n) for _ in range(3))
        kind = rng.randrange(3)
        if kind == 0:
            cells.pop((x, y), None)
        elif kind == 1:
            cells[x, y] = {z}
        else:
            cells.setdefault((x, y), set()).add(z)
    return c.n, tuple(sorted((x, y, z) for (x, y), zs in cells.items() for z in zs)), c.bot


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("spec", ["6", "2,2", "3;4", "2;2;2", "S3;2", "8", "1;1"])
def test_slice_route_matches_reference_on_perturbed_groups(spec, seed):
    n, triples, bot = _cells_perturbed(spec, seed)
    v = verify_structure(candidate(n, triples, bot)).frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)


# non-cancellative tables: x*y = max(x, y), x*y = x and x*y = 0 have
# slices D_z[x] = {y' : x*y' = z} of two or more bits
WIDE_SLICES = [(n, tuple((x, y, op(x, y)) for x in range(n) for y in range(n)))
               for n in (2, 3, 5) for op in (max, lambda x, y: x, lambda x, y: 0)]


@pytest.mark.parametrize("n, triples", WIDE_SLICES)
def test_slices_of_two_or_more_bits_match_reference(n, triples):
    c = candidate(n, triples, [0])
    assert c.is_single_valued() and relfrob.frobenius._slice_blocks(c) == range(n)
    v = verify_structure(c).frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)
    assert verify_structure(c).frobenius_pointwise == v


Z2_CUBE = build_biproduct(parse_structure_spec("2;2;2")).triples()


@pytest.mark.parametrize("n, triples, blocks", [
    (6, Z2_CUBE, []),
    # without 5*5 the third Z2 block, elements 4 and 5, fails
    (6, tuple(t for t in Z2_CUBE if t[:2] != (5, 5)), [4, 5]),
    # the fiber at (0, 1) holds (2, 3), though D_0 is empty: no slice of
    # split-left's block 0 reaches it; block 2 has (2, 3*1) in split-left
    (5, ((0, 1, 4), (2, 3, 4)), [0, 2]),
    # one non-cancellative row, D_1[1] = {0, 1}: every block is composed,
    # though only block 1 differs
    (2, ((1, 0, 1), (1, 1, 1)), [0, 1]),
])
def test_slices_decide_which_blocks_are_composed(n, triples, blocks):
    c = candidate(n, triples, [0])
    assert list(relfrob.frobenius._slice_blocks(c)) == blocks
    differing = [a for a in range(n) if any(
        ne(*naive.frobenius_sets_at(n, triples, a, j)[:2]) for j in range(n))]
    assert set(differing) <= set(blocks) and (differing == blocks or n == 2)
    v = verify_structure(c).frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)
    assert v.ok == (not blocks)


@pytest.mark.parametrize("triples, pair, sets", [
    # Z2 without 1*0: at (1, 0) only split-right holds a pair, (1*1, 1)
    (((0, 0, 0), (0, 1, 1), (1, 1, 0)), (1, 0), (frozenset(), frozenset(), frozenset({(0, 1)}))),
    # Z2 without 0*1: at (0, 1) only split-left holds a pair, (1, 1*1)
    (((0, 0, 0), (1, 0, 1), (1, 1, 0)), (0, 1), (frozenset(), frozenset({(1, 0)}), frozenset())),
])
def test_undefined_product_violating_through_one_split(triples, pair, sets):
    # where i*j is undefined the fiber is empty, so a route that tests only
    # one split there misses one of these violations
    assert naive.frobenius_sets_at(2, triples, *pair) == sets
    rep = verify_structure(candidate(2, triples, [0]))
    v = rep.frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(2, triples)
    assert pair in v.violations and rep.frobenius_pointwise == v


def _pair_groupoid(k: int) -> tuple:
    """The pair groupoid on k objects: (a, b)*(b, c) = (a, c), coded a*k + b."""
    return k * k, tuple((a * k + b, b * k + c, a * k + c)
                        for a in range(k) for b in range(k) for c in range(k))


CANCELLATIVE_BASES = [(c.n, c.triples()) for c in map(build_biproduct, map(parse_structure_spec, (
    "1", "2", "3", "2,2", "5", "6", "S3", "7", "2;3", "2;2;2", "S3;1", "1;1;1")))]
# the pair groupoid on two objects, alone and beside Z3 on points 4..6
CANCELLATIVE_BASES += [_pair_groupoid(2), (7, _pair_groupoid(2)[1] + tuple(
    (x + 4, y + 4, (x + y) % 3 + 4) for x in range(3) for y in range(3)))]


@st.composite
def cancellative_tables(draw, max_n: int = 7):
    """A partial operation no row or column of which repeats a defined value:
    a partial Latin rectangle, or a group, union of groups or pair groupoid
    with up to three cells deleted, plus a unit subset."""
    if draw(st.booleans()):
        n, triples = draw(st.sampled_from(CANCELLATIVE_BASES))
        triples = list(triples)
        for _ in range(draw(st.integers(0, 3))):
            if triples:
                del triples[draw(st.integers(0, len(triples) - 1))]
    else:
        n, triples = draw(st.integers(0, max_n)), []
        rows, cols = [set() for _ in range(n)], [set() for _ in range(n)]
        for x, y in product(range(n), repeat=2):
            z = draw(st.sampled_from([-1, *(v for v in range(n) if v not in rows[x] | cols[y])]))
            if z >= 0:
                rows[x].add(z)
                cols[y].add(z)
                triples.append((x, y, z))
    return n, tuple(triples), draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()


@given(cancellative_tables())
def test_cancellative_tables_match_the_naive_sets(table):
    # the counting route against tests/naive.py's fiber and splits, read at
    # every pair, and against the composite route
    n, triples, bot = table
    v = check_fro_pointwise(candidate(n, triples, bot))
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)
    assert verify_structure(candidate(n, triples, bot)).frobenius == v


@pytest.mark.parametrize("n, triples", [
    (0, ()), (1, ()), (1, ((0, 0, 0),)),
    # associative, and the sums of h and f agree, but not of d: 2*0 = 2 and
    # 0*1 = 1 while 2*1 is undefined, so split-left at (2, 1) is {(2, 1)}
    (3, ((0, 0, 0), (0, 1, 1), (2, 0, 2))),
])
def test_pointwise_on_small_cancellative_tables(n, triples):
    for bot in ([], [0])[:n + 1]:
        v = check_fro_pointwise(candidate(n, triples, bot))
        assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)


class _CountedRows:
    """A relation's stand-in that counts the reads of its rows."""

    def __init__(self, rel):
        self.rel, self.reads = rel, 0

    @property
    def rows(self):
        self.reads += 1
        return self.rel.rows


def _sets_built(monkeypatch, c):
    """check_fro_pointwise(c), the pairs (i, j) at which it built the three
    sets, in call order, and how often it read nabla's rows."""
    built, sets_at = [], relfrob.frobenius._sets_at
    monkeypatch.setattr(relfrob.frobenius, "_sets_at",
                        lambda index, i, j: built.append((i, j)) or sets_at(index, i, j))
    c.nabla = nabla = _CountedRows(c.nabla)
    return check_fro_pointwise(c), built, nabla.reads


@pytest.mark.parametrize("n, triples", WIDE_SLICES)
def test_non_cancellative_tables_take_the_exact_loop(monkeypatch, n, triples):
    # max, left-zero and constant tables repeat a value in a row: the
    # counting sweep does not hold for them, so the exact loop builds the
    # sets at every defined pair, in code order, and once more at the
    # witness, passing or failing; nabla's rows are read and decoded once
    v, built, reads = _sets_built(monkeypatch, candidate(n, triples, [0]))
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)
    witness = [] if v.ok else [(v.witness.i, v.witness.j)]
    assert built == [(x, y) for x, y, _ in triples] + witness
    assert reads == 1


def test_multi_valued_error_names_the_pair():
    # Z4 with a second value at 2*1: the message names that cell, not (0, 0)
    c = build_biproduct(parse_structure_spec("4"))
    with pytest.raises(ValueError, match=r"at \(2, 1\): values \[0, 3\]"):
        check_fro_pointwise(candidate(4, c.triples() + ((2, 1, 0),), c.bot))


def test_cancellative_tables_build_sets_only_at_the_witness(monkeypatch):
    # a passing group or union of groups is decided by one sweep of gathers
    # and three sums, with no sets built; a failing one goes through the
    # exact loop, which builds sets at its defined pairs only, then at the
    # witness; either way nabla's rows are read and decoded once
    for spec in ("6", "S3;2", "2;2;2"):
        rep = verify_structure(build_biproduct(parse_structure_spec(spec)))
        assert rep.is_special_frobenius and rep.frobenius_pointwise == Verdict(True)
        v, built, reads = _sets_built(monkeypatch, build_biproduct(parse_structure_spec(spec)))
        assert (v, built, reads) == (Verdict(True), [], 1)
    triples = build_biproduct(parse_structure_spec("6")).triples()[1:]  # 0*0 undefined
    v, built, reads = _sets_built(monkeypatch, candidate(6, triples, [0]))
    assert not v.ok and reads == 1
    assert built == [(x, y) for x, y, _ in triples] + [(v.witness.i, v.witness.j)]


# direct-sum summands: groups, and the pair groupoid on two objects, each as
# (size, triples, units)
SUMMANDS = [(c.n, c.triples(), sorted(c.bot)) for c in map(build_biproduct, map(
    parse_structure_spec, ("1", "2", "3", "2,2", "4", "S3")))] + [
    (*_pair_groupoid(2), [0, 3])]


@st.composite
def sparse_tables(draw, max_n: int = 24):
    """A direct sum of 2 to 8 summands on at most max_n points, with up to
    three cells changed, deleted or given a second value, in any block or
    across blocks, plus its units."""
    n, cells, bot = 0, {}, set()
    for size, triples, units in draw(st.lists(st.sampled_from(SUMMANDS), min_size=2, max_size=8)):
        if n + size > max_n:
            break
        cells.update(((x + n, y + n), {z + n}) for x, y, z in triples)
        bot.update(e + n for e in units)
        n += size
    for _ in range(draw(st.integers(0, 3))):
        x, y, z = (draw(st.integers(0, n - 1)) for _ in range(3))
        kind = draw(st.sampled_from(("changed", "deleted", "added")))
        if kind == "changed":
            cells[x, y] = {z}
        elif kind == "deleted":
            cells.pop((x, y), None)
        else:
            cells.setdefault((x, y), set()).add(z)
    return n, tuple(sorted((x, y, z) for (x, y), zs in cells.items() for z in zs)), frozenset(bot)


@settings(deadline=None)
@given(sparse_tables())
def test_sparse_tables_match_the_references(table):
    # the skips of associativity, the slices and the pointwise sweep leave
    # every verdict, witness and violation tuple as the definitions give them
    n, triples, bot = table
    rep = verify_structure(candidate(n, triples, bot))
    want = naive.axioms(n, triples, bot)
    assert {name: getattr(rep, name).ok for name in want} == want
    for name, verdict in _reference_verdicts(n, triples, bot).items():
        assert getattr(rep, name) == verdict, name
    v = rep.frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)
    if rep.frobenius_pointwise is not None:
        assert rep.frobenius_pointwise == v


def _gathered(monkeypatch, run, c) -> list[int]:
    """The length of every gather run(c) makes through the module's
    _getter and itemgetter, in call order."""
    sizes = []

    def counting(make):
        def build(*indices):
            get = make(*indices)
            return lambda seq: sizes.append(len(out := get(seq))) or out
        return build
    for name in ("_getter", "itemgetter"):
        monkeypatch.setattr(relfrob.frobenius, name,
                            counting(getattr(relfrob.frobenius, name)))
    run(c)
    monkeypatch.undo()
    return sizes


@pytest.mark.parametrize("spec, n", [(None, 40), ("2;2;2;2;2;2;2;2", 16)])
def test_sparse_tables_gather_only_what_their_lemmas_leave_open(monkeypatch, spec, n):
    # on the empty 40-point table nothing is defined; on eight Z2 blocks each
    # row and column meets its own block only.  Associativity gathers, per
    # row a, the blocks (a, b) with a*b defined, n rows each (its first two
    # gathers index the cells, n*n each); the slices gather, per block a,
    # the slices x in a's block; the pointwise sweep gathers, per column y,
    # the rows x with x*y defined, n + 1 entries each
    c = (FrobeniusCandidate.from_triples(n, [], []) if spec is None
         else build_biproduct(parse_structure_spec(spec)))
    block = 0 if spec is None else 2
    assoc = _gathered(monkeypatch, lambda c: next(relfrob.frobenius._associativity(c), None), c)
    assert assoc[:2] == [n * n] * 2 and max(assoc[2:], default=0) == block * n
    slices = _gathered(monkeypatch, relfrob.frobenius._slice_blocks, c)
    assert slices == [n] * (block * n)
    sweep = _gathered(monkeypatch, check_fro_pointwise, c)
    assert sweep == [n + 1] * (block * n)


def test_comonoid_laws_hold_for_verified_structures(z2, standard2, z3):
    # coassociativity and counit laws follow by taking converses
    from relfrob import identity
    for c in (z2, standard2, z3):
        n, idn = c.n, identity(c.n)
        lhs = c.delta >> c.delta.tensor(idn)
        rhs = c.delta >> idn.tensor(c.delta)
        assert lhs == rhs
        assert c.delta >> c.bot_vec.converse().tensor(idn) == idn
        assert c.delta >> idn.tensor(c.bot_vec.converse()) == idn


SMALL_SPECS = [spec for n in range(7) for spec in enumerate_special_frobenius(n)]


@st.composite
def operation_tables(draw, max_n: int = 6):
    """A partial operation with no symmetry imposed, plus a unit subset."""
    n = draw(st.integers(0, max_n))
    cells = [(x, y, draw(st.integers(-1, n - 1))) for x in range(n) for y in range(n)]
    bot = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    return n, tuple(t for t in cells if t[2] >= 0), bot


@st.composite
def perturbed_group_tables(draw):
    """A union of groups on at most 6 points, maybe with one cell or unit changed."""
    c = build_biproduct(draw(st.sampled_from(SMALL_SPECS)))
    triples, bot = list(c.triples()), set(c.bot)
    if c.n and draw(st.booleans()):
        k = draw(st.integers(0, len(triples) - 1))
        x, y, _ = triples[k]
        z = draw(st.integers(-1, c.n - 1))
        if z < 0:
            del triples[k]
        else:
            triples[k] = (x, y, z)
    if c.n and draw(st.booleans()):
        bot ^= {draw(st.integers(0, c.n - 1))}
    return c.n, tuple(triples), frozenset(bot)


# tables failing one axiom only: interchange (the max monoid), commutativity
# (the pair groupoid on two objects)
NEAR_MISSES = [
    (2, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)), frozenset({0})),
    (4, tuple((2 * i + j, 2 * j + k, 2 * i + k)
              for i in range(2) for j in range(2) for k in range(2)), frozenset({0, 3})),
]


@given(st.one_of(single_valued_tables(6), relational_tables(6), operation_tables(),
                 perturbed_group_tables(), st.sampled_from(NEAR_MISSES)))
def test_predicate_matches_report(table):
    n, triples, bot = table
    report = verify_structure(candidate(n, triples, bot))
    # fresh candidates, so the predicate cannot read the cached report
    assert satisfies_axioms(candidate(n, triples, bot)) == report.is_classical
    assert (satisfies_axioms(candidate(n, triples, bot), commutative=False)
            == report.is_special_frobenius)


def test_predicate_accepts_groups_without_the_pointwise_route(monkeypatch):
    def refuse(c):
        raise AssertionError("pointwise route run")
    monkeypatch.setattr(relfrob.frobenius, "check_fro_pointwise", refuse)
    assert satisfies_axioms(build_biproduct(parse_structure_spec("2;3")))
    s3 = build_biproduct(parse_structure_spec("S3"))
    assert not satisfies_axioms(s3) and satisfies_axioms(s3, commutative=False)


ROUTE_NAMES = ("_associativity", "_left_unit", "_right_unit", "_commutativity",
               "_special", "_interchange", "check_fro_pointwise")


def _refuse(*args, **kwargs):
    raise AssertionError("axioms checked again")


def test_second_verify_and_require_reuse_the_cached_report(monkeypatch):
    c = build_biproduct(parse_structure_spec("2;3"))
    first = verify_structure(c)
    for name in ROUTE_NAMES:
        monkeypatch.setattr(relfrob.frobenius, name, _refuse)
    assert verify_structure(c) is first
    assert satisfies_axioms(c)
    # every analysis entry point goes through _require
    assert decompose(c).spec.label == "Z2 + Z3"
    assert len(classical_elements(c)) == 2
    assert quantum_structure(c).n == 5


@pytest.mark.parametrize("name", ROUTE_NAMES)
def test_each_refused_route_runs_on_a_fresh_candidate(monkeypatch, name):
    # the cache test above refuses these names; each must be one that a
    # fresh verify_structure calls, or refusing it would prove nothing
    monkeypatch.setattr(relfrob.frobenius, name, _refuse)
    with pytest.raises(AssertionError, match="checked again"):
        verify_structure(build_biproduct(parse_structure_spec("2;3")))


def test_equal_candidates_do_not_share_a_report():
    a = build_biproduct(parse_structure_spec("3"))
    b = build_biproduct(parse_structure_spec("3"))
    assert a == b and verify_structure(a) == verify_structure(b)
    assert verify_structure(a) is not verify_structure(b)


def test_empty_table_on_120_points_verifies():
    rep = verify_structure(FrobeniusCandidate.from_triples(120, [], []))
    assert rep.associativity.ok and rep.commutativity.ok and rep.frobenius.ok
    assert rep.left_unit.witness == rep.right_unit.witness == (0, frozenset())
    assert rep.special.witness == (0, frozenset())
    assert rep.frobenius_pointwise == rep.frobenius
    assert not rep.is_special_frobenius


def _reference_verdicts(n, triples, bot) -> dict:
    """The verdicts other than interchange, read off the definitions: each
    law's witness is its first violating row in row order."""
    prod = naive.products_of(triples)

    def get(x, y):
        return frozenset(prod.get((x, y), ()))

    def first(rows):  # rows: (witness, got, want) in row order
        return next((Verdict(False, w) for w, got, want in rows if got != want), Verdict(True))

    def assoc_rows():
        for a, b, c in product(range(n), repeat=3):
            lhs = frozenset(w for m in get(a, b) for w in get(m, c))
            rhs = frozenset(w for m in get(b, c) for w in get(a, m))
            yield (a, b, c, lhs, rhs), lhs, rhs

    def point_rows(got_at):
        for x in range(n):
            got = got_at(x)
            yield (x, got), got, {x}

    return {
        "associativity": first(assoc_rows()),
        "left_unit": first(point_rows(lambda x: frozenset(z for e in bot for z in get(e, x)))),
        "right_unit": first(point_rows(lambda x: frozenset(z for e in bot for z in get(x, e)))),
        "commutativity": first(((i, j, get(j, i), get(i, j)), get(j, i), get(i, j))
                               for i in range(n) for j in range(n)),
        "special": first(point_rows(lambda x: frozenset(
            w for zs in prod.values() if x in zs for w in zs))),
    }


@given(multi_valued_tables())
def test_multi_valued_verdicts_match_reference(table):
    # every composite verdict but interchange, witness included
    rep = verify_structure(candidate(*table))
    for name, verdict in _reference_verdicts(*table).items():
        assert getattr(rep, name) == verdict, name


def _one_cell_perturbation(spec: str, kind: str, seed: int) -> tuple:
    c = build_biproduct(parse_structure_spec(spec))
    rng = random.Random(f"{spec}/{kind}/{seed}")
    triples, bot = list(c.triples()), set(c.bot)
    if kind == "unit removed":
        bot.remove(rng.choice(sorted(bot)))
    else:
        k = rng.randrange(len(triples))
        x, y, z = triples[k]
        if kind == "cell deleted":
            del triples[k]
        else:
            triples[k] = (x, y, rng.choice([v for v in range(c.n) if v != z]))
    return c.n, tuple(triples), frozenset(bot)


# Z16, Z2^4 and Z3 + Z4 + Z8, each with one cell or one unit changed; Z16
# and Z2^4 have one unit, so one seed covers its removal
PERTURBATIONS = [(spec, kind, seed) for spec in ("16", "2,2,2,2", "3;4;8")
                 for kind, seeds in (("value changed", 2), ("cell deleted", 2), ("unit removed", 1))
                 for seed in range(seeds)]


@pytest.mark.parametrize("spec, kind, seed", PERTURBATIONS)
def test_witnesses_match_reference_above_six_points(spec, kind, seed):
    n, triples, bot = _one_cell_perturbation(spec, kind, seed)
    rep = verify_structure(candidate(n, triples, bot))
    want = _reference_verdicts(n, triples, bot)
    for name, verdict in want.items():
        assert getattr(rep, name) == verdict, name
    v = rep.frobenius
    assert (v.ok, v.witness, v.violations) == _reference_interchange(n, triples)
    assert rep.frobenius_pointwise == rep.frobenius

