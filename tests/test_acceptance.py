"""Acceptance gate: ten end-to-end criteria, one test and one printed
pass/fail line per criterion.  Run with -v (or -s) to see the lines."""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

import naive
from relfrob import (BUILTIN_NONABELIAN, Rel, SearchConfig, brute_force_search,
                     build_biproduct, check_duality,
                     classical_elements, comonoid_subobjects, decompose,
                     enumerate_classical_structures, enumerate_special_frobenius,
                     identity, is_partial_bijection, parse_structure_spec,
                     quantum_structure, quotient_by_iso, represent, star,
                     verify_structure)
from conftest import candidate
from test_classify import reference_classical_count


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({name}): FAIL")
        raise
    print(f"criterion {number:02d} ({name}): PASS")


def built(text: str):
    return build_biproduct(parse_structure_spec(text))


def abelian_structures_up_to(n_max: int):
    for n in range(n_max + 1):
        for spec in enumerate_classical_structures(n):
            yield spec, build_biproduct(spec)


def special_structures_up_to(n_max: int):
    for n in range(n_max + 1):
        for spec in enumerate_special_frobenius(n):
            yield spec, build_biproduct(spec)


def test_criterion_01_structure_counts_small_carriers():
    with criterion(1, "structure counts on 2..5 points"):
        start = time.perf_counter()
        counts = [len(enumerate_classical_structures(n)) for n in (2, 3, 4, 5)]
        elapsed = time.perf_counter() - start
        assert counts == [2, 3, 6, 8]
        assert elapsed < 1.0


def test_criterion_02_derived_counts_on_six_points():
    with criterion(2, "derived counts on 6 points"):
        assert len(enumerate_classical_structures(6)) == 13
        assert len(enumerate_special_frobenius(6)) == 14
        # the commutative count must agree with the independent
        # partition-times-group-count formula
        for n in range(7):
            assert len(enumerate_classical_structures(n)) == \
                reference_classical_count(n)


def test_criterion_03_search_classes_match_enumeration():
    with criterion(3, "exhaustive search matches enumeration"):
        start = time.perf_counter()
        for n, expected in ((1, 1), (2, 2), (3, 3)):
            classes = quotient_by_iso(brute_force_search(SearchConfig(n)))
            assert len(classes) == expected
            found = [decompose(rep).spec for rep, _ in classes]
            enumerated = enumerate_classical_structures(n)
            assert sorted(found, key=lambda s: s.sort_key()) == enumerated
            assert len(set(found)) == len(found)
        assert time.perf_counter() - start < 60.0


def test_criterion_04_built_structures_pass_all_axioms():
    with criterion(4, "every built abelian structure verifies"):
        specs = list(abelian_structures_up_to(12))
        assert len(specs) >= 100
        for spec, c in specs:
            report = verify_structure(c)
            assert report.is_classical, (spec.label, report)


def test_criterion_05_quantum_structures():
    with criterion(5, "pairings and dualities"):
        assert quantum_structure(built("1;1")).eta_pairs() == ((0, 0), (1, 1))
        assert quantum_structure(built("3")).eta_pairs() == (
            (0, 0), (1, 2), (2, 1))
        assert quantum_structure(built("2;3")).eta_pairs() == (
            (0, 0), (1, 1), (2, 2), (3, 4), (4, 3))
        for spec, c in abelian_structures_up_to(12):
            verdict = check_duality(quantum_structure(c))
            assert verdict.ok, (spec.label, verdict.witness)


def test_criterion_06_representation_properties():
    with criterion(6, "singleton representations"):
        for spec, c in special_structures_up_to(8):
            for x in range(c.n):
                phi = frozenset({x})
                action = represent(c, phi)
                assert is_partial_bijection(action), (spec.label, x)
                assert represent(c, star(c, phi)) == action.converse(), \
                    (spec.label, x)


def test_criterion_07_classical_elements_are_blocks():
    with criterion(7, "classical elements equal decomposition blocks"):
        for spec, c in abelian_structures_up_to(12):
            blocks = {frozenset(members) for members, _ in decompose(c).blocks}
            assert set(classical_elements(c)) == blocks, spec.label


def test_criterion_08_subobject_triviality():
    with criterion(8, "comonoid subobjects of simple structures"):
        start = time.perf_counter()
        for order in (2, 3, 4):
            c = built(str(order))
            assert comonoid_subobjects(c, 0) == [Rel(0, order, [])]
            assert comonoid_subobjects(c, 1) == [
                Rel(1, order, [(1 << order) - 1])]
            assert comonoid_subobjects(c, 2) == []
        assert time.perf_counter() - start < 10.0


def _comonoid_completions(c) -> list[tuple[Rel, frozenset[int]]]:
    """Every (comultiplication, counit subset) making c special Frobenius.

    Candidate rows range over subsets of the matching product fiber.  That
    loses nothing: the specialness equation forces any defined pair in a
    row onto that fiber, and a cross-block pair (undefined product) dies
    against the unit evaluation of the interchange law, because the block
    unit cannot reach an element outside its block.
    """
    n = c.n
    idn = identity(n)
    fibers = [c.delta.rows[x] for x in range(n)]
    solutions = []
    row_choices = []
    for x in range(n):
        fiber_bits = [b for b in range(n * n) if fibers[x] >> b & 1]
        row_choices.append([
            sum(1 << b for b in combo)
            for k in range(len(fiber_bits) + 1)
            for combo in itertools.combinations(fiber_bits, k)])
    for rows in itertools.product(*row_choices):
        delta = Rel(n, n * n, rows)
        if not (delta >> c.nabla) == idn:
            continue
        if not (delta >> delta.tensor(idn)) == (delta >> idn.tensor(delta)):
            continue
        fiber_route = c.nabla >> delta
        if fiber_route != delta.tensor(idn) >> idn.tensor(c.nabla):
            continue
        if fiber_route != idn.tensor(delta) >> c.nabla.tensor(idn):
            continue
        for top_bits in range(1 << n):
            top = Rel(n, 1, [(top_bits >> x) & 1 for x in range(n)])
            if delta >> top.tensor(idn) == idn and \
                    delta >> idn.tensor(top) == idn:
                solutions.append((delta, frozenset(
                    x for x in range(n) if top_bits >> x & 1)))
    return solutions


def test_criterion_09_comonoid_uniqueness():
    with criterion(9, "the completing comonoid is unique"):
        for n in range(4):
            for c in brute_force_search(SearchConfig(n)):
                solutions = _comonoid_completions(c)
                assert len(solutions) == 1, (n, c.triples())
                delta, top = solutions[0]
                assert delta == c.nabla.converse()
                assert top == c.bot


def test_criterion_10_negative_control_max_monoid():
    with criterion(10, "max-monoid fails only the interchange law"):
        c = candidate(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)], [0])
        report = verify_structure(c)
        assert report.associativity.ok and report.left_unit.ok \
            and report.right_unit.ok
        assert report.commutativity.ok and report.special.ok
        assert not report.frobenius.ok
        assert report.frobenius_pointwise is not None
        # both routes produce the same verdict, witness included
        assert report.frobenius == report.frobenius_pointwise
        # (1,1) is a violating input, with the disagreeing sets below;
        # the recorded witness itself is the first violation, (0,1)
        assert (1, 1) in report.frobenius.violations
        assert (report.frobenius.witness.i, report.frobenius.witness.j) == (0, 1)
        fiber, split_left, _ = naive.frobenius_sets_at(2, c.triples(), 1, 1)
        assert fiber == frozenset({(0, 1), (1, 0), (1, 1)})
        assert split_left == frozenset({(0, 1), (1, 1)})
