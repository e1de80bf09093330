"""A seeded corpus of tables, and the golden digest of their verify reports.

Each family below builds its tables from a named seed, so every run builds
the same tables.  The report of a table is the stdout of
``relfrob verify --format machine`` on its file, which the CLI keeps
byte-stable.  ``tests/data/verify_golden.json`` holds, per family, the
table count, one SHA-256 over the reports in table order, and a 32-bit tag
of each report, by which a changed family names its first changed table.

The small families are checked by ``tests/test_verify_golden.py``; the wide
ones, tables up to the carrier cap, by a CI step:

    PYTHONPATH=src python tests/corpus.py --check sparse_sums empty_partial dense_cap

To record again after an intended change of output, which names the first
table of each family whose report changed:

    PYTHONPATH=src python tests/corpus.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Iterator
from unittest import mock

import naive
from relfrob import (FrobeniusCandidate, GroupSpec, SearchConfig, build_biproduct,
                     enumerate_classical_structures, enumerate_special_frobenius,
                     parse_structure, parse_structure_spec)
from relfrob import classify, cli

GOLDEN = Path(__file__).parent / "data" / "verify_golden.json"

Table = tuple[str, int, list, list]  # label, n, triples (x, y, z), units


def _text(n: int, triples, bot) -> str:
    return "".join([f"n {n}\n", "bot", *(f" {e}" for e in sorted(bot)), "\n",
                    *(f"nabla {x} {y} {z}\n" for x, y, z in sorted(triples))])


def _flat(c: FrobeniusCandidate) -> tuple[int, list, list]:
    return c.n, list(c.triples()), sorted(c.bot)


def _structure(spec: str) -> tuple[int, list, list]:
    return _flat(build_biproduct(parse_structure_spec(spec)))


def _perturbed(rng: random.Random, n: int, triples, bot, edits: int) -> tuple[list, list]:
    """Up to ``edits`` cells anywhere changed, deleted or given a second
    value; a unit dropped one time in four."""
    cells: dict[tuple[int, int], set[int]] = {}
    for x, y, z in triples:
        cells.setdefault((x, y), set()).add(z)
    for _ in range(rng.randint(1, edits)):
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        kind = rng.choice(("changed", "deleted", "added"))
        if kind == "changed":
            cells[x, y] = {z}
        elif kind == "deleted":
            cells.pop((x, y), None)
        else:
            cells.setdefault((x, y), set()).add(z)
    bot = sorted(bot)
    if bot and rng.random() < 0.25:
        bot.remove(rng.choice(bot))
    return [(x, y, z) for (x, y), zs in sorted(cells.items()) for z in sorted(zs)], bot


def _units(rng: random.Random, n: int) -> list:
    return [e for e in range(n) if rng.random() < 0.3]


def _specs() -> list:
    """The classical structures up to 12 points, then the special ones up to
    8 with a non-abelian block."""
    classical = [s for n in range(13) for s in enumerate_classical_structures(n)]
    return classical + [s for n in range(9) for s in enumerate_special_frobenius(n)
                        if any(isinstance(b, GroupSpec) for b in s.blocks)]


def structures() -> Iterator[Table]:
    for spec in _specs():
        yield (f"structure[{spec.label}]", *_flat(build_biproduct(spec)))


def perturbed() -> Iterator[Table]:
    rng = random.Random("perturbed")
    for spec in _specs():
        n, triples, bot = _flat(build_biproduct(spec))
        for k in range(8 if n else 0):
            yield (f"perturbed[{spec.label}#{k}]", n, *_perturbed(rng, n, triples, bot, 3))


def random_partial() -> Iterator[Table]:
    rng = random.Random("random_partial")
    for k in range(6000):
        n, p = rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8, 1.0))
        triples = [(x, y, rng.randrange(n)) for x in range(n) for y in range(n)
                   if rng.random() < p]
        yield f"partial[n={n}#{k}]", n, triples, _units(rng, n)


def random_multi() -> Iterator[Table]:
    """About 1.5 values per cell."""
    rng = random.Random("random_multi")
    for k in range(3000):
        n = rng.randint(1, 6)
        triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
                   if rng.random() < 1.5 / n]
        yield f"multi[n={n}#{k}]", n, triples, _units(rng, n)


def latin() -> Iterator[Table]:
    """Partial Latin rectangles: no row or column repeats a value, so the
    pointwise route counts; one in five is symmetric."""
    rng = random.Random("latin")
    for k in range(3500):
        n, p = rng.randint(1, 7), rng.choice((0.3, 0.6, 0.9, 1.0))
        symmetric = rng.random() < 0.2
        cells: dict[tuple[int, int], int] = {}
        for x in range(n):
            for y in range(x if symmetric else 0, n):
                lines = ((x, y), (y, x)) if symmetric else ((x, y),)
                taken = {cells.get(c) for a, b in lines for v in range(n)
                         for c in ((a, v), (v, b))}
                free = [z for z in range(n) if z not in taken]
                if free and rng.random() < p:
                    cells[x, y] = z = rng.choice(free)
                    if symmetric:
                        cells[y, x] = z
        yield (f"latin[n={n}#{k}]", n, [(x, y, z) for (x, y), z in sorted(cells.items())],
               rng.sample(range(n), rng.randint(0, min(n, 2))))


def extremal() -> Iterator[Table]:
    """max, min, left-zero and constant tables, which repeat values."""
    kinds = {"max": max, "min": min, "left-zero": lambda x, y: x, "constant": lambda x, y: 0}
    for n in range(1, 13):
        for name, op in kinds.items():
            for bot in ([], [0], [n - 1], list(range(n))):
                yield (f"{name}[n={n} bot={bot}]", n,
                       [(x, y, op(x, y)) for x in range(n) for y in range(n)], bot)


def search_leaves() -> Iterator[Table]:
    """Every table the labeled reference search verifies up to 5 points, in
    both modes: the candidates passed to ``satisfies_axioms``, accepted or
    not."""
    seen: list[FrobeniusCandidate] = []
    check = classify.satisfies_axioms
    with mock.patch.object(classify, "satisfies_axioms",
                           lambda c, commutative=True: seen.append(c) or check(c, commutative)):
        for n in range(6):
            for commutative in (True, False):
                naive.labeled_search(SearchConfig(n, require_commutative=commutative))
    for k, c in enumerate(seen):
        yield f"leaf[n={c.n}#{k}]", c.n, list(c.triples()), sorted(c.bot)


def verify_streams() -> Iterator[Table]:
    """The tables of the verify benchmark workload at seeds 1-4: the
    structures up to 12 points, three random single-valued, multi-valued
    and one-cell-perturbed tables for each n in 2..12, and the wide texts.
    They are rebuilt here from the same seeded recipe, so that an edit of
    the benchmark does not move the golden."""
    corpus = [s for n in range(13) for s in enumerate_classical_structures(n)]
    for seed in range(1, 5):
        rng = random.Random(seed)
        tables = [(f"corpus[{s.label}]", *_flat(build_biproduct(s))) for s in corpus]
        for n in range(2, 13):
            same_n = [s for s in corpus if s.n == n]
            for k in range(3):
                tables.append((f"single[n={n}#{k}]", n,
                               [(x, y, rng.randrange(n)) for x in range(n) for y in range(n)
                                if rng.random() < 0.7],
                               [e for e in range(n) if rng.random() < 0.3]))
                x, y = rng.randrange(n), rng.randrange(n)
                forced = {(x, y, z) for z in rng.sample(range(n), 2)}
                tables.append((f"multi[n={n}#{k}]", n,
                               sorted(forced | {(x, y, z) for x in range(n) for y in range(n)
                                                for z in range(n) if rng.random() < 1.5 / n}),
                               [e for e in range(n) if rng.random() < 0.3]))
                c = build_biproduct(rng.choice(same_n))
                triples = list(c.triples())
                i = rng.randrange(len(triples))
                x, y, z = triples[i]
                new = rng.choice([v for v in range(-1, n) if v != z])
                if new < 0:
                    del triples[i]
                else:
                    triples[i] = (x, y, new)
                tables.append((f"perturbed[n={n}#{k}]", n, triples, sorted(c.bot)))
        tables.extend(_wide(seed))
        rng.shuffle(tables)
        yield from ((f"seed {seed}: {label}", *rest) for label, *rest in tables)


def _wide(seed: int) -> list[Table]:
    rng = random.Random(seed ^ 0x5EED)
    n = 36
    cells = rng.sample([(x, y) for x in range(n) for y in range(n)], 4 * n)
    partial = [(x, y, rng.randrange(n)) for x, y in cells]
    return [("cyclic[Z32]", *_structure("32")), ("empty[n=40]", 40, [], []),
            ("partial[n=36]", n, partial, rng.sample(range(n), 3))]


# direct sums up to the carrier cap, each perturbed 20 times across blocks
SPARSE_SUMS = (";".join(["1"] * 128), ";".join(["2"] * 64), ";".join(["12"] * 10),
               ";".join(["3;5;7"] * 8), ";".join(["S3"] * 5), ";".join(["2,2"] * 32),
               ";".join(["6"] * 21), "8;16;32;64", ";".join(["D4;Q8"] * 8),
               "1;2;3;4;5;6;7;8;9;10;11;12;13", "64;64", "2,2,2,2,2,2;64")


def sparse_sums() -> Iterator[Table]:
    rng = random.Random("sparse_sums")
    for spec in SPARSE_SUMS:
        n, triples, bot = _structure(spec)
        short = spec if len(spec) <= 24 else f"{spec[:20]}... (n={n})"
        yield f"sum[{short}]", n, triples, bot
        for k in range(20):
            yield (f"sum[{short}#{k}]", n, *_perturbed(rng, n, triples, bot, 3))


def empty_partial() -> Iterator[Table]:
    """Empty tables with and without units, and random partial tables with
    about 4n defined cells, up to 128 points."""
    rng = random.Random("empty_partial")
    for n in (1, 2, 7, 33, 64, 100, 127, 128):
        yield f"empty[n={n}]", n, [], []
        yield f"empty[n={n} bot=0]", n, [], [0]
        yield f"empty[n={n} bot=all]", n, [], list(range(n))
    for n in (8, 24, 36, 48, 64, 96, 128):
        for k in range(6):
            cells = rng.sample([(x, y) for x in range(n) for y in range(n)], 4 * n)
            yield (f"partial[n={n}#{k}]", n, [(x, y, rng.randrange(n)) for x, y in cells],
                   rng.sample(range(n), 3))


def dense_cap() -> Iterator[Table]:
    """The dense tables at the carrier cap: Z128, Z2^7, Z128 with 1*1 = 3
    and without 1*1, and the multi-valued tables where one cell, row 0,
    column 0 or the diagonal takes all 128 values."""
    n, z128, bot = _structure("128")
    yield "Z128", n, z128, bot
    yield ("Z2^7", *_structure("2,2,2,2,2,2,2"))
    yield "Z128 with 1*1 = 3", n, [(x, y, 3 if (x, y) == (1, 1) else z) for x, y, z in z128], bot
    yield "Z128 without 1*1", n, [t for t in z128 if t[:2] != (1, 1)], bot
    for name, xys in (("cell", [(0, 0)]), ("row", [(0, y) for y in range(n)]),
                      ("column", [(x, 0) for x in range(n)]),
                      ("diagonal", [(x, x) for x in range(n)])):
        yield f"dense {name}", n, [(x, y, z) for x, y in xys for z in range(n)], [0]


FAMILIES: dict[str, Callable[[], Iterator[Table]]] = {
    f.__name__: f for f in (structures, perturbed, random_partial, random_multi, latin,
                            extremal, search_leaves, verify_streams,
                            sparse_sums, empty_partial, dense_cap)}
WIDE = ("sparse_sums", "empty_partial", "dense_cap")
SMALL = tuple(name for name in FAMILIES if name not in WIDE)


def reports(family: str) -> Iterator[tuple[str, bytes]]:
    """(label, stdout of ``relfrob verify --format machine``) per table:
    ``cli.cmd_verify`` with the text in place of the file it would read,
    its payload printed as ``cli.main`` prints it."""
    with mock.patch.object(cli, "load_structure", parse_structure):
        for label, n, triples, bot in FAMILIES[family]():
            _, payload, _ = cli.cmd_verify(argparse.Namespace(file=_text(n, triples, bot)))
            yield label, (json.dumps(payload, sort_keys=True) + "\n").encode()


def digest(family: str) -> tuple[dict, list[str]]:
    """The golden entry of a family, and its table labels."""
    whole, tags, labels = hashlib.sha256(), [], []
    for label, report in reports(family):
        whole.update(report)
        tags.append(hashlib.sha256(report).hexdigest()[:8])
        labels.append(label)
    return {"count": len(labels), "sha256": whole.hexdigest(), "tags": "".join(tags)}, labels


def difference(family: str, got: dict, labels: list[str], want: dict | None) -> str | None:
    """None when the entries agree; else what changed, naming the first
    table whose tag differs."""
    if want is None:
        return f"{family}: not in the golden"
    if (got["count"], got["sha256"]) == (want["count"], want["sha256"]):
        return None
    old = [want["tags"][i:i + 8] for i in range(0, len(want["tags"]), 8)]
    new = [got["tags"][i:i + 8] for i in range(0, len(got["tags"]), 8)]
    first = next((k for k, (a, b) in enumerate(zip(new, old)) if a != b), min(len(new), len(old)))
    at = f"table {first}, {labels[first]}" if first < len(labels) else f"after table {first}"
    return (f"{family}: {got['count']} tables (golden {want['count']}); "
            f"first changed report at {at}")


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("families", nargs="*", metavar="family",
                        help=f"families to build (default all): {', '.join(FAMILIES)}")
    parser.add_argument("--check", action="store_true",
                        help="compare with the golden instead of recording it")
    args = parser.parse_args(argv)
    if unknown := set(args.families) - FAMILIES.keys():
        parser.error(f"unknown families: {', '.join(sorted(unknown))}")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    failed = False
    for family in args.families or FAMILIES:
        got, labels = digest(family)
        change = difference(family, got, labels, golden.get(family))
        print(change or f"{family}: {got['count']} tables, unchanged")
        failed |= change is not None
        golden[family] = got
    if args.check:
        return int(failed)
    GOLDEN.write_text(json.dumps({f: golden[f] for f in FAMILIES if f in golden},
                                 indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(run())
