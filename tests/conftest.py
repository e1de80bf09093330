"""Shared strategies and fixtures."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest

from relfrob import FrobeniusCandidate, Rel, bits

MAX_DIM = 4


def rel_between(dom: int, cod: int) -> st.SearchStrategy[Rel]:
    if dom == 0 or cod == 0:
        return st.just(Rel(dom, cod, [0] * dom))
    pair = st.tuples(st.integers(0, dom - 1), st.integers(0, cod - 1))
    return st.frozensets(pair).map(lambda ps: Rel.from_pairs(dom, cod, ps))


dims = st.integers(min_value=0, max_value=MAX_DIM)


@st.composite
def rels(draw) -> Rel:
    return draw(rel_between(draw(dims), draw(dims)))


@st.composite
def composable_pairs(draw):
    a, b, c = draw(dims), draw(dims), draw(dims)
    return draw(rel_between(a, b)), draw(rel_between(b, c))


@st.composite
def composable_triples(draw):
    a, b, c, d = draw(dims), draw(dims), draw(dims), draw(dims)
    return (draw(rel_between(a, b)), draw(rel_between(b, c)),
            draw(rel_between(c, d)))


@st.composite
def single_valued_tables(draw, max_n: int = 3):
    """A commutative partial binary operation plus a unit subset.

    Returned as (n, triples, bot).  Not required to satisfy any axiom, so
    these exercise failure paths as much as success paths.
    """
    n = draw(st.integers(1, max_n))
    cell = st.integers(-1, n - 1)  # -1 encodes undefined
    triples = []
    for x in range(n):
        for y in range(x, n):
            z = draw(cell)
            if z >= 0:
                triples.append((x, y, z))
                if x != y:
                    triples.append((y, x, z))
    bot = draw(st.frozensets(st.integers(0, n - 1)))
    return n, tuple(triples), bot


@st.composite
def relational_tables(draw, max_n: int = 3):
    """A possibly multi-valued commutative operation plus a unit subset."""
    n = draw(st.integers(1, max_n))
    cell = st.frozensets(st.integers(0, n - 1))
    triples = []
    for x in range(n):
        for y in range(x, n):
            for z in draw(cell):
                triples.append((x, y, z))
                if x != y:
                    triples.append((y, x, z))
    bot = draw(st.frozensets(st.integers(0, n - 1)))
    return n, tuple(triples), bot


def candidate(n, triples, bot) -> FrobeniusCandidate:
    return FrobeniusCandidate.from_triples(n, triples, bot)


def product_of(c: FrobeniusCandidate, x: int, y: int) -> frozenset[int]:
    """All values of x*y (empty when undefined): nabla's row x*n + y."""
    return frozenset(bits(c.nabla.rows[x * c.n + y]))


@pytest.fixture(scope="session")
def z2() -> FrobeniusCandidate:
    return candidate(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)], [0])


@pytest.fixture(scope="session")
def standard2() -> FrobeniusCandidate:
    return candidate(2, [(0, 0, 0), (1, 1, 1)], [0, 1])


@pytest.fixture(scope="session")
def z3() -> FrobeniusCandidate:
    return candidate(3, [(x, y, (x + y) % 3) for x in range(3) for y in range(3)], [0])


@pytest.fixture(scope="session")
def max_monoid() -> FrobeniusCandidate:
    return candidate(2, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)], [0])
