"""Relation algebra laws, each checked against the pair-set reference."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

import naive
from conftest import MAX_DIM, composable_pairs, composable_triples, dims, rel_between, rels
from relfrob import Rel, identity, vector


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError):
        Rel(2, 2, [0])
    with pytest.raises(ValueError):
        Rel(1, 2, [1 << 2])
    with pytest.raises(ValueError):
        Rel(-1, 2, [])


def test_from_pairs_rejects_out_of_range():
    with pytest.raises(ValueError):
        Rel.from_pairs(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        Rel.from_pairs(2, 2, [(0, -1)])


@given(rels())
def test_pairs_round_trip(r):
    assert Rel.from_pairs(r.dom, r.cod, r.pairs()) == r


@given(rels())
def test_row_matches_pairs(r):
    for a in range(r.dom):
        assert {b for x, b in r.pairs() if x == a} == {
            b for b in range(r.cod) if r.rows[a] >> b & 1}


@given(composable_pairs())
def test_composition_matches_reference(pair):
    r, s = pair
    assert (r >> s).pairs() == naive.compose(r.pairs(), s.pairs())


def test_composition_dim_mismatch():
    with pytest.raises(ValueError):
        identity(2) >> identity(3)


@given(composable_triples())
def test_composition_associative(triple):
    r, s, t = triple
    assert (r >> s) >> t == r >> (s >> t)


@given(rels())
def test_identity_neutral(r):
    assert identity(r.dom) >> r == r
    assert r >> identity(r.cod) == r


@given(rels())
def test_converse_matches_reference(r):
    assert r.converse().pairs() == naive.converse(r.pairs())


@given(rels())
def test_converse_involutive(r):
    assert r.converse().converse() == r


@given(composable_pairs())
def test_converse_antihomomorphism(pair):
    r, s = pair
    assert (r >> s).converse() == s.converse() >> r.converse()


@given(rels(), rels())
def test_tensor_matches_reference(r, s):
    t = r.tensor(s)
    assert t.dom == r.dom * s.dom and t.cod == r.cod * s.cod
    assert t.pairs() == naive.tensor(r.pairs(), (r.dom, r.cod),
                                     s.pairs(), (s.dom, s.cod))


@given(rels(), rels(), rels())
def test_tensor_strictly_associative(r, s, t):
    assert r.tensor(s).tensor(t) == r.tensor(s.tensor(t))


@given(composable_pairs(), composable_pairs())
def test_tensor_interchange(p, q):
    r, s = p
    u, v = q
    assert r.tensor(u) >> s.tensor(v) == (r >> s).tensor(u >> v)


@given(dims, dims)
def test_tensor_of_identities(m, n):
    assert identity(m).tensor(identity(n)) == identity(m * n)


def swap(m: int, n: int) -> Rel:
    return Rel.from_pairs(m * n, n * m, naive.swap(m, n))


@given(dims, dims)
def test_swap_is_unitary(m, n):
    assert swap(m, n) >> swap(n, m) == identity(m * n)
    assert swap(m, n).converse() == swap(n, m)


@given(rels(), rels())
def test_swap_naturality(r, s):
    lhs = r.tensor(s) >> swap(r.cod, s.cod)
    rhs = swap(r.dom, s.dom) >> s.tensor(r)
    assert lhs == rhs


@given(dims, dims, dims, dims, st.data())
def test_whiskers_are_tensor_then_compose(a, b, c, k, data):
    # the plain form (r ⊗ id_k) >> s
    r = data.draw(rel_between(a, b))
    s = data.draw(rel_between(b * k, c))
    assert r.whisker_right(k, s) == r.tensor(identity(k)) >> s


def partial_function_between(dom: int, cod: int) -> st.SearchStrategy[Rel]:
    """Relations whose rows have at most one bit, the tables the checker
    reads most: each block of a whisker is one part of s, or zero."""
    value = st.integers(-1, cod - 1)  # -1: no bit
    return st.lists(value, min_size=dom, max_size=dom).map(
        lambda vs: Rel(dom, cod, [1 << v if v >= 0 else 0 for v in vs]))


def any_rel_between(dom: int, cod: int) -> st.SearchStrategy[Rel]:
    return st.one_of(rel_between(dom, cod), partial_function_between(dom, cod))


@given(dims, dims, dims, dims, dims, st.data())
def test_whiskers_with_outer_identity_match_reference(a, b, c, k, m, data):
    r = data.draw(any_rel_between(a, m * b))
    s = data.draw(any_rel_between(b * k, c))
    want = r.tensor(identity(k)) >> identity(m).tensor(s)
    assert r.whisker_right(k, s, m) == want
    # one block of k rows per row of r
    assert list(r.whisker_right_blocks(k, s, m)) == [
        want.rows[x * k:(x + 1) * k] for x in range(a if k else 0)]
    assert want.pairs() == naive.compose(
        naive.tensor(r.pairs(), (a, m * b), naive.identity_pairs(k), (k, k)),
        naive.tensor(naive.identity_pairs(m), (m, m), s.pairs(), (b * k, c)))


def test_whiskers_by_nothing_have_no_rows():
    # k = 0 and m = 0: r's codomain need not split into m blocks
    r, s = Rel(1, 3, [0b101]), Rel(0, 2, [])
    for m in (0, 1, 3):
        assert r.whisker_right(0, s, m) == r.tensor(identity(0)) >> identity(m).tensor(s)


def test_whisker_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="whisker mismatch"):
        identity(2).whisker_right(2, identity(3))
    with pytest.raises(ValueError, match="whisker mismatch"):
        identity(2).whisker_right(2, identity(4), m=3)
    with pytest.raises(ValueError, match="whisker mismatch"):
        identity(2).whisker_right(3, identity(2), m=3)  # 2 points are not 3 blocks
    with pytest.raises(ValueError, match="whisker mismatch"):
        identity(2).whisker_right(-1, identity(0))


def test_vector_pairs():
    v = vector(4, [1, 3])
    assert v.dom == 1 and v.cod == 4
    assert v.pairs() == frozenset({(0, 1), (0, 3)})
    with pytest.raises(ValueError):
        vector(2, [2])


def test_identity_and_vector_reject_a_negative_carrier():
    # both skip the constructor's row scan, so they check their sizes themselves
    for n in range(6):
        assert identity(n) == Rel(n, n, [1 << a for a in range(n)])
        assert vector(n, range(0, n, 2)) == Rel(1, n, [sum(1 << e for e in range(0, n, 2))])
    with pytest.raises(ValueError, match="negative carrier size"):
        identity(-1)
    with pytest.raises(ValueError, match="negative carrier size"):
        vector(-1, [])
    with pytest.raises(ValueError, match="element 0 outside"):
        vector(-1, [0])


def test_is_mono_examples():
    assert identity(3).is_mono()
    # two sources sharing the one target: {0} and {1} collide
    assert not Rel.from_pairs(2, 1, [(0, 0), (1, 0)]).is_mono()
    # {1} and {0,1} share the image {0,1}
    assert not Rel.from_pairs(2, 2, [(0, 0), (1, 0), (1, 1)]).is_mono()
    # empty domain: only the empty subset, trivially injective
    assert Rel(0, 3, []).is_mono()
    # an empty row collides with the empty subset
    assert not Rel(1, 3, [0]).is_mono()


def test_is_mono_answers_large_domains():
    assert identity(64).is_mono()
    assert not Rel(21, 1, [1] * 21).is_mono()
    # row 39 is the union of rows 0 and 1, so it has no private bit
    rows = [1 << a for a in range(39)] + [0b11]
    assert not Rel(40, 39, rows).is_mono()


@given(st.integers(0, 8).flatmap(
    lambda dom: st.integers(0, 6).flatmap(lambda cod: rel_between(dom, cod))))
def test_is_mono_matches_exhaustive_subset_check(r):
    images = set()
    expected = True
    for mask in range(1 << r.dom):
        img = frozenset(b for a in range(r.dom) if mask >> a & 1
                        for b in range(r.cod) if r.rows[a] >> b & 1)
        if img in images:
            expected = False
            break
        images.add(img)
    assert r.is_mono() == expected


def test_copy_map_is_mono():
    for n in range(1, MAX_DIM + 1):
        copy = Rel.from_pairs(n, n * n, [(i, i * n + i) for i in range(n)])
        assert copy.is_mono()


def test_repr_is_stable():
    r = Rel.from_pairs(2, 2, [(1, 0), (0, 1)])
    assert repr(r) == "Rel(2, 2, [(0, 1), (1, 0)])"


def test_rel_hashable_and_distinct():
    rs = {identity(2), Rel.from_pairs(2, 2, [(0, 1), (1, 0)]), Rel(2, 2, [0, 0])}
    assert len(rs) == 3
    assert swap(1, 2) == identity(2)  # unit-factor swap is trivial


@given(st.integers(0, 2 ** 12))
def test_bits_enumerates_set_positions(mask):
    from relfrob import bits
    assert list(bits(mask)) == [i for i in range(13) if mask >> i & 1]


def test_tensor_flattening_convention():
    # pair (x, y) lands at index x * cod + y on both sides
    r = Rel.from_pairs(2, 3, [(1, 2)])
    s = Rel.from_pairs(2, 2, [(0, 1)])
    t = r.tensor(s)
    assert t.pairs() == frozenset({(1 * 2 + 0, 2 * 2 + 1)})


def test_compose_via_matrix_reference():
    # spot check against hand-multiplied boolean matrices
    r = Rel.from_pairs(2, 2, [(0, 0), (0, 1), (1, 1)])
    s = Rel.from_pairs(2, 2, [(1, 0)])
    assert (r >> s).pairs() == frozenset({(0, 0), (1, 0)})
    for a, b in itertools.product(range(2), repeat=2):
        want = any(r.rows[a] >> m & 1 and s.rows[m] >> b & 1 for m in range(2))
        assert bool((r >> s).rows[a] >> b & 1) == want
