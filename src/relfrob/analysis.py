"""Derived data of a verified structure: elements, self-duality, blocks.

The copyable subsets of a structure (its classical elements) are found by
brute force over the subsets of the points one unit fixes, which the unit
laws show are the only candidates; each still passes the definition's
copy test, so no classification result is trusted.
The comonoid subobjects are built from the same scan: a comonoid map splits
row by row into copyable rows meeting the unit subset, so they are the
monic m-tuples of classical elements.  ``decompose`` reads the block
partition and each block's table off nabla's rows, the block of a unit e
from its rows e*x, and checks that the blocks really are groups, raising
``DecompositionError`` when they are not.  Every candidate is run through
the axiom checker first (once: the report is cached on the candidate).
The representation is a right whisker (``Rel.whisker_right``), like every
tensor.  The duality cuts the pairing's one row into an n x n relation P:
the left triangle is P >> P and the right one its converse.  The dual
subset is read off nabla's rows and the unit mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .frobenius import FrobeniusCandidate, Verdict, verify_structure
from .groups import (AbelianGroupSpec, GroupSpec, StructureSpec, _invariant_factors,
                     _is_commutative, identify_group)
from .rel import Rel, bits, vector

ELEMENTS_CARRIER_LIMIT = 20
SUBOBJECT_BIT_LIMIT = 24


class PreconditionError(ValueError):
    """The input structure fails an axiom the operation relies on."""


class DecompositionError(RuntimeError):
    """A verified structure whose blocks are not groups (a groupoid, say)."""


@dataclass(frozen=True)
class QuantumStructure:
    """A self-duality pairing: eta relates the unit object to matched pairs."""

    n: int
    eta: Rel

    def eta_pairs(self) -> tuple[tuple[int, int], ...]:
        n = self.n
        return tuple(sorted(divmod(q, n) for _, q in self.eta.pairs()))


@dataclass(frozen=True)
class DecompositionResult:
    """Block partition of a structure, with one group per block."""

    blocks: tuple  # (frozenset of elements, AbelianGroupSpec | GroupSpec) pairs
    spec: StructureSpec


def _require(c: FrobeniusCandidate, commutative: bool, what: str):
    report = verify_structure(c)
    ok = report.is_classical if commutative else report.is_special_frobenius
    if not ok:
        failing = [name for name, v in report.axioms()
                   if v is not None and not v.ok
                   and (commutative or name != "commutativity")]
        raise PreconditionError(f"{what} needs a verified structure; failing: {failing}")


def classical_elements(c: FrobeniusCandidate) -> list[frozenset[int]]:
    """All copyable subsets, by brute force over the subsets of the points
    one unit fixes.

    A subset passes when copying it yields exactly its square and it meets
    the unit subset.  Only the subsets {e} + S, with e a unit and S among
    the other points x with e*x = {x}, can pass (see ``_classical_masks``),
    so 2^(|F_e|-1) of them are tested for each unit e.
    For a verified commutative structure the passing ones are exactly the
    carriers of the group blocks, but nothing here assumes so.
    """
    _check_scan_size(c.n)
    _require(c, commutative=True, what="classical_elements")
    return sorted((frozenset(bits(phi)) for phi in _classical_masks(c)), key=sorted)


def _check_scan_size(n: int) -> None:
    if n > ELEMENTS_CARRIER_LIMIT:
        raise ValueError(
            f"carrier size {n} exceeds the subset search limit {ELEMENTS_CARRIER_LIMIT}")


def _classical_masks(c: FrobeniusCandidate) -> list[int]:
    """Bit masks of the copyable subsets that meet the unit subset, sorted.

    Each such subset phi lies within the points one unit fixes, by the unit
    laws that ``_require`` has verified.  Copying phi yields phi x phi, so
    every two points of phi compose.  By the left unit law the products e*x
    over the units e join to {x}, so e*x lies within {x}.  phi meets the
    unit subset in some e, and each x in phi composes with e, so e*x = {x}:
    phi lies within F_e = {x : e*x = {x}}.  F_e holds e, as e*e = {e}, and
    no other unit e', as e*e' lies within {e'} by the left unit law and
    within {e} by the right one, hence is empty.  So only phi = {e} + S,
    with S a subset of F_e - {e}, are copy-tested, S walked by submask
    enumeration: the sum over the units of 2^(|F_e|-1) subsets.
    """
    n = c.n
    # fiber[z]: the pairs multiplying to z, as one n*n-bit mask
    fibers = c.delta.rows
    products = c.nabla.rows
    out = []
    for e in bits(c.bot_vec.rows[0]):
        # F_e - {e}: the x other than e with e*x exactly x
        others = sum(1 << x for x in range(n) if x != e and products[e * n + x] == 1 << x)
        s = others
        while True:
            phi = 1 << e | s
            copied = 0
            square = 0
            rest = phi
            while rest:
                low = rest & -rest
                a = low.bit_length() - 1
                rest ^= low
                copied |= fibers[a]
                square |= phi << (a * n)
            if copied == square:
                out.append(phi)
            if not s:
                break
            s = s - 1 & others
    return sorted(out)


def quantum_structure(c: FrobeniusCandidate) -> QuantumStructure:
    """The pairing obtained by copying the unit subset."""
    _require(c, commutative=True, what="quantum_structure")
    return QuantumStructure(c.n, c.bot_vec >> c.delta)


def check_duality(q: QuantumStructure) -> Verdict:
    """Both triangle identities for the pairing; witnessed on failure.

    eta's row, cut into n rows of n bits, is the relation P pairing a with
    b.  The left triangle is P >> P and the right one its converse, so the
    witness is ("left", x, got-set) for the first row of P >> P that is not
    x's own.  Raises ValueError unless eta is 1 x n*n.
    """
    n, eta = q.n, q.eta
    if (eta.dom, eta.cod) != (1, n * n):
        raise ValueError(f"pairing must be 1x{n * n}, got {eta.dom}x{eta.cod}")
    full = (1 << n) - 1
    pairing = Rel(n, n, (eta.rows[0] >> (a * n) & full for a in range(n)))
    for x, row in enumerate((pairing >> pairing).rows):
        if row != 1 << x:
            return Verdict(False, ("left", x, frozenset(bits(row))))
    return Verdict(True)


def represent(c: FrobeniusCandidate, phi: Iterable[int]) -> Rel:
    """The action of a subset: x relates to every value of a*x with a in phi."""
    return vector(c.n, phi).whisker_right(c.n, c.nabla)  # (phi ⊗ id) >> nabla


def is_partial_bijection(r: Rel) -> bool:
    """Single-valued with single-valued converse."""
    forward = all(row & (row - 1) == 0 for row in r.rows)
    return forward and all(row & (row - 1) == 0 for row in r.converse().rows)


def star(c: FrobeniusCandidate, phi: Iterable[int]) -> frozenset[int]:
    """The dual subset under the pairing: the x with a*x meeting bot for
    some a in phi, read off nabla's rows; inversion on group blocks.
    Like ``represent`` it assumes a verified commutative structure and
    checks no axiom of its own.
    """
    n, rows, bot = c.n, c.nabla.rows, c.bot_vec.rows[0]
    return frozenset(x for a in bits(vector(n, phi).rows[0])
                     for x in range(n) if rows[a * n + x] & bot)


def decompose(c: FrobeniusCandidate) -> DecompositionResult:
    """Split a verified structure into its group blocks.

    Accepts non-commutative structures; commutativity is the one axiom not
    required.  Each unit element spans the block on which it acts as
    identity; the blocks must partition the carrier and each restricted
    multiplication must be a total group operation, else DecompositionError.
    """
    _require(c, commutative=False, what="decompose")
    n, rows = c.n, c.nabla.rows
    block = [-1] * n  # block[x]: the position of x's block in ``blocks``
    blocks = []
    for e in sorted(c.bot):
        # e acts as identity on x when row e*x of nabla is exactly x
        members = [x for x in range(n) if rows[e * n + x] == 1 << x]
        _expect(members, f"unit {e} spans no block")
        _expect(e in members, f"unit {e} outside its own block")
        _expect(all(block[x] < 0 for x in members), f"block of unit {e} overlaps an earlier block")
        for x in members:
            block[x] = len(blocks)
        blocks.append(members)
    _expect(-1 not in block, "blocks do not cover the carrier")

    tables = []
    for members in blocks:
        index = {x: k for k, x in enumerate(members)}
        table = []
        for x in members:
            row = []
            for y in members:
                vals = rows[x * n + y]
                _expect(vals and not vals & (vals - 1),
                        f"product {x}*{y} not single-valued in block")
                z = vals.bit_length() - 1
                _expect(z in index, f"product {x}*{y} leaves its block")
                row.append(index[z])
            table.append(tuple(row))
        tables.append(tuple(table))
    for p in itertools.compress(itertools.count(), rows):  # the defined cells
        x, y = divmod(p, n)
        _expect(block[x] == block[y], f"cross-block product {x}*{y} defined")

    groups: list[AbelianGroupSpec | GroupSpec] = []
    for table in tables:
        if _is_commutative(table):
            groups.append(AbelianGroupSpec(_invariant_factors(table)))
        else:
            groups.append(identify_group(table))
    return DecompositionResult(tuple(zip(map(frozenset, blocks), groups)),
                               StructureSpec(tuple(groups)))


def _expect(ok: object, message: str) -> None:
    if not ok:
        raise DecompositionError(message)


def comonoid_subobjects(c: FrobeniusCandidate, m: int) -> list[Rel]:
    """All monic comonoid maps into the structure from a standard m-carrier.

    The source comonoid copies points diagonally and deletes everything,
    i.e. it is the standard structure on m points.  Both comonoid laws,
    r;delta = delta_m;(r x r) and r;top = top_m, hold row by row, so each
    row is a copyable subset meeting the unit subset: the search runs over
    m-tuples of classical elements and keeps the monic ones.  m*n is
    capped at 24 bits, and for m >= 1 the subset scan caps n as in
    ``classical_elements``.
    """
    n = c.n
    if m < 0:
        raise ValueError(f"source size {m} is negative")
    if m * n > SUBOBJECT_BIT_LIMIT:
        raise ValueError(
            f"search space {m}x{n} exceeds {SUBOBJECT_BIT_LIMIT} bits")
    if m:  # m = 0 leaves n uncapped, and its one subobject needs no scan
        _check_scan_size(n)
    _require(c, commutative=True, what="comonoid_subobjects")
    masks = _classical_masks(c) if m else []
    out = [r for r in (Rel(m, n, rows) for rows in itertools.product(masks, repeat=m))
           if r.is_mono()]
    return sorted(out, key=lambda r: sorted(r.pairs()))
