"""Reference implementations used only by the tests.

Relations here are frozensets of (source, target) pairs with the carrier
sizes passed explicitly.  Everything is written for obviousness rather
than speed, so it can act as an independent check on the bitset code.
"""

from __future__ import annotations


def compose(r: frozenset, s: frozenset) -> frozenset:
    by_source: dict[int, set[int]] = {}
    for b, c in s:
        by_source.setdefault(b, set()).add(c)
    return frozenset((a, c) for a, b in r for c in by_source.get(b, ()))


def converse(r: frozenset) -> frozenset:
    return frozenset((b, a) for a, b in r)


def tensor(r: frozenset, rdims: tuple[int, int],
           s: frozenset, sdims: tuple[int, int]) -> frozenset:
    (_, _), (sdom, scod) = rdims, sdims
    return frozenset((a * sdom + c, b * scod + d) for a, b in r for c, d in s)


def identity_pairs(n: int) -> frozenset:
    return frozenset((i, i) for i in range(n))


def swap(m: int, n: int) -> frozenset:
    """The symmetry m*n -> n*m sending (a, b) to (b, a)."""
    return frozenset((a * n + b, b * m + a) for a in range(m) for b in range(n))


def products_of(triples) -> dict[tuple[int, int], set[int]]:
    prod: dict[tuple[int, int], set[int]] = {}
    for x, y, z in triples:
        prod.setdefault((x, y), set()).add(z)
    return prod


def axioms(n: int, triples, bot) -> dict[str, bool]:
    """Check every structure axiom directly from the definitions."""
    prod = products_of(triples)
    bot = set(bot)

    def get(x, y):
        return prod.get((x, y), set())

    rng = range(n)
    assoc = all(
        {w for m in get(a, b) for w in get(m, c)}
        == {w for m in get(b, c) for w in get(a, m)}
        for a in rng for b in rng for c in rng)
    left_unit = all({z for e in bot for z in get(e, x)} == {x} for x in rng)
    right_unit = all({z for e in bot for z in get(x, e)} == {x} for x in rng)
    comm = all(get(x, y) == get(y, x) for x in rng for y in rng)
    special = all(
        {w for zs in prod.values() if x in zs for w in zs} == {x} for x in rng)

    fiber, left, right = frobenius_routes(n, triples)
    return {
        "associativity": assoc,
        "left_unit": left_unit,
        "right_unit": right_unit,
        "commutativity": comm,
        "special": special,
        "frobenius": fiber == left == right,
    }


def frobenius_routes(n: int, triples):
    """The three interchange composites as pair sets on the square carrier."""
    nab = frozenset((x * n + y, z) for x, y, z in triples)
    delta = converse(nab)
    idn = identity_pairs(n)
    sq = n * n
    fiber = compose(nab, delta)
    left = compose(tensor(delta, (n, sq), idn, (n, n)),
                   tensor(idn, (n, n), nab, (sq, n)))
    right = compose(tensor(idn, (n, n), delta, (n, sq)),
                    tensor(nab, (sq, n), idn, (n, n)))
    return fiber, left, right
