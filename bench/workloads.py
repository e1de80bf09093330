"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload builds all of its inputs from the seed in its constructor
(the set-up), then ``run_pass`` issues one pass of operations through a
``Pass``, which times each operation and keeps its output.  ``run_passes``
repeats passes for a given time; after each pass the operation times are
scaled to the nominal machine speed (``speed.py``) and the outputs are
checked, outside the timed region.  An operation fails when it raises or when its
check rejects the output.

Package functions are always looked up through the ``relfrob`` module
objects at call time, never bound at import, so that a tracer can replace
them for a traced run.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import relfrob as rf
import relfrob.cli
from speed import Speed
from tracing import PASS_ROOT

ROOT = Path(__file__).resolve().parent.parent

# Pinned outputs at n = 0, 1, 2, ...
CLASSICAL_COUNTS = (1, 1, 2, 3, 6, 8, 13, 18, 30, 41, 60, 82, 121)
SPECIAL_COUNTS = (1, 1, 2, 3, 6, 8, 14, 19, 34)
COMMUTATIVE_LABELED = (1, 1, 3, 10, 53)
NONCOMMUTATIVE_LABELED = (1, 1, 3, 10, 65)
NONCOMMUTATIVE_CLASSES = (1, 1, 2, 3, 7)
SEARCH_BUDGET = 10 ** 9  # never reached: n = 4 explores far fewer nodes
PROBE_RUNS = 5

# Operations expected to fail at this revision.  They are still run, timed
# and counted as failed; listing them only keeps ``correct`` true.
KNOWN_DEFECTS = {
    # decompose asserts that every block is a group; the pair groupoid on two
    # objects passes every axiom but commutativity and is not a union of groups
    "decompose[n=4 pair groupoid]",
}


@dataclass
class Op:
    label: str
    start: float
    seconds: float
    error: str | None = None
    wrong_output: bool = False
    scaled: float = 0.0  # seconds at the nominal machine speed


class Pass:
    """Times the operations of one pass and checks their outputs afterwards."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.ops: list[Op] = []
        self.wall = 0.0
        self.stdout_bytes = 0
        self._checks: list[tuple[Op, object, object]] = []

    @property
    def scaled_wall(self) -> float:
        return sum(op.scaled for op in self.ops)

    def run(self, label: str, fn, *args, check=None):
        """Call fn(*args) as one timed operation; return its output.

        A raising operation is recorded as failed and returns the exception,
        which makes any operation that consumes it fail in turn.
        """
        self.speed.maybe_sample()
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # recorded as a failed operation
            self.ops.append(Op(label, t0, perf_counter() - t0,
                               f"{type(exc).__name__}: {exc}"))
            return exc
        op = Op(label, t0, perf_counter() - t0)
        self.ops.append(op)
        if check is not None:
            self._checks.append((op, check, out))
        return out

    def finish(self) -> None:
        """Scale the operation times, then check the outputs."""
        self.speed.sample()
        for op in self.ops:
            op.scaled = self.speed.scale(op.start, op.seconds)
        for op, check, out in self._checks:
            problem = check(out)
            if problem:
                op.error = f"wrong output: {problem}"
                op.wrong_output = True
        self._checks.clear()


def run_passes(workload, seconds: float, speed: Speed, tracer=None, probe=None) -> list:
    """Whole passes until ``seconds`` of pass and check time, at least one.

    ``probe`` runs PROBE_RUNS times, spread over the run: each time another
    share of the time has gone by, and the rest at the end.
    """
    passes = []
    busy = 0.0
    probes = 0
    while not passes or busy < seconds:
        gc.collect()
        p = Pass(speed)
        t0 = perf_counter()
        with tracer.span(PASS_ROOT) if tracer else contextlib.nullcontext():
            workload.run_pass(p)
        p.wall = perf_counter() - t0
        with tracer.pause() if tracer else contextlib.nullcontext():
            p.finish()
        busy += perf_counter() - t0
        passes.append(p)
        while probe and probes < PROBE_RUNS and busy >= (probes + 1) * seconds / PROBE_RUNS:
            probe()
            probes += 1
    while probe and probes < PROBE_RUNS:
        probe()
        probes += 1
    return passes


def summarize(passes) -> dict:
    """Pass times, and latency percentiles over the operations of a pass.

    The figures come twice: under ``scaled``, with every time scaled to the
    nominal machine speed (``speed.py``), and under ``raw``, as measured.
    Each operation's latency is its median over the passes, which repeat the
    same operations; p50 and p90 are taken over those medians.
    """
    ops = [op for p in passes for op in p.ops]
    out = {"ops": ops, "failed": [op for op in ops if op.error]}
    for kind, time_of in (("scaled", lambda op: op.scaled), ("raw", lambda op: op.seconds)):
        repeats: dict[tuple[str, int], list[float]] = {}
        for p in passes:
            seen: dict[str, int] = {}
            for op in p.ops:
                k = seen[op.label] = seen.get(op.label, -1) + 1
                repeats.setdefault((op.label, k), []).append(time_of(op) * 1e3)
        typical = sorted(statistics.median(v) for v in repeats.values())
        walls = [sum(time_of(op) for op in p.ops) for p in passes]
        out[kind] = {
            "wall_s": statistics.median(walls),
            "ops_per_s": len(ops) / sum(walls),
            "op_p50_ms": statistics.median(typical),
            "op_p90_ms": typical[math.ceil(0.9 * len(typical)) - 1],
        }
    out["distinct"] = len(typical)
    return out


class Probes:
    """Samples of ``cross_validate_n4_s`` and ``verify_wide_s``.

    Every workload reports both.  The workload whose passes contain the
    operations measures them there; elsewhere they are sampled between
    passes, PROBE_RUNS times over the run.
    """

    def __init__(self, workload: str, seed: int, speed: Speed):
        self.speed = speed
        self.cross_validate = workload != "classify"
        self.wide = wide_texts(seed) if workload != "verify" else None
        # (scaled, raw) seconds per probe run
        self.cv4: list[tuple[float, float]] = []
        self.wide_s: list[tuple[float, float]] = []
        self.problems: list[str] = []

    def _timed(self, fn, *args):
        self.speed.sample()
        t0 = perf_counter()
        out = fn(*args)
        seconds = perf_counter() - t0
        self.speed.sample()
        return out, self.speed.scale(t0, seconds), seconds

    def __call__(self) -> None:
        gc.collect()
        if self.cross_validate:
            result, scaled, raw = self._timed(rf.cross_validate, 4, SEARCH_BUDGET)
            self.cv4.append((scaled, raw))
            if not result.ok:
                self.problems.append(f"cross_validate(4): {result.message}")
        if self.wide:
            scaled_total = raw_total = 0.0
            for label, text in self.wide:
                report, scaled, raw = self._timed(parse_and_verify, text)
                scaled_total += scaled
                raw_total += raw
                if label.startswith("cyclic") and not report.is_classical:
                    self.problems.append(f"{label} is not classical")
            self.wide_s.append((scaled_total, raw_total))


def _spec_text(spec) -> str:
    """The group-spec string that parses back to ``spec`` (abelian blocks)."""
    return ";".join(",".join(map(str, b.invariant_factors)) or "1" for b in spec.blocks)


def _corpus(max_n: int) -> list:
    return [spec for n in range(max_n + 1) for spec in rf.enumerate_classical_structures(n)]


def _stratified(rng: random.Random, specs: list, k: int) -> list:
    """One spec from each of k strata ranked by the number of products.

    Verification cost follows the number of defined products, so sampling
    each stratum keeps the cost of a sample nearly the same for every seed.
    """
    ranked = sorted(specs, key=lambda s: (sum(b.order ** 2 for b in s.blocks), s.sort_key()))
    k = min(k, len(ranked))
    return [rng.choice(ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k])
            for i in range(k)]


def _block_sets(spec) -> list[frozenset]:
    """Carriers of the blocks as ``build_biproduct`` lays them out."""
    out, offset = [], 0
    for b in spec.blocks:
        out.append(frozenset(range(offset, offset + b.order)))
        offset += b.order
    return out


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


class Classify:
    """Both classification routes: table search, quotient, enumeration."""

    name = "classify"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.tasks = ([("cross_validate", n) for n in range(5)]
                      + [("search", n) for n in range(5)]
                      + [("enumerate", n) for n in range(13)]
                      + [("special", n) for n in range(9)])
        rng.shuffle(self.tasks)
        # the pair groupoid on objects {0, 1}: arrow (i, j) is 2*i + j
        groupoid = rf.FrobeniusCandidate.from_triples(
            4, [(2 * i + j, 2 * j + k, 2 * i + k)
                for i in range(2) for j in range(2) for k in range(2)], [0, 3])
        self.groupoid = rf.quotient_by_iso([groupoid])[0][0]
        self.info = [f"enumerate_special_frobenius(4) lists "
                     f"{len(rf.enumerate_special_frobenius(4))} structures; the "
                     f"non-commutative search at n = 4 is pinned to "
                     f"{NONCOMMUTATIVE_CLASSES[4]} classes"]

    def run_pass(self, p: Pass) -> None:
        for kind, n in self.tasks:
            if kind == "cross_validate":
                p.run(f"cross_validate({n})", rf.cross_validate, n, SEARCH_BUDGET,
                      check=lambda r, n=n: _expect(
                          r.ok and sum(size for _, _, size in r.matches)
                          == COMMUTATIVE_LABELED[n], f"{r.message}"))
            elif kind == "search":
                self._search_chain(p, n)
            elif kind == "enumerate":
                p.run(f"enumerate_classical({n})", rf.enumerate_classical_structures, n,
                      check=lambda r, n=n: _expect(len(r) == CLASSICAL_COUNTS[n],
                                                   f"{len(r)} structures"))
            else:
                p.run(f"enumerate_special({n})", rf.enumerate_special_frobenius, n,
                      check=lambda r, n=n: _expect(len(r) == SPECIAL_COUNTS[n],
                                                   f"{len(r)} structures"))

    def _search_chain(self, p: Pass, n: int) -> None:
        cfg = rf.SearchConfig(n, require_commutative=False)
        cands = p.run(f"search_noncommutative({n})", rf.brute_force_search, cfg,
                      check=lambda r: _expect(len(r) == NONCOMMUTATIVE_LABELED[n],
                                              f"{len(r)} labeled tables"))
        classes = p.run(f"quotient({n})", rf.quotient_by_iso, cands,
                        check=lambda r: _expect(
                            len(r) == NONCOMMUTATIVE_CLASSES[n]
                            and sum(size for _, size in r) == NONCOMMUTATIVE_LABELED[n],
                            f"{len(r)} classes of sizes {[s for _, s in r]}"))
        if isinstance(classes, Exception):
            return
        for k, (rep, _) in enumerate(classes):
            name = "pair groupoid" if rep == self.groupoid else f"class {k}"
            p.run(f"decompose[n={n} {name}]", rf.decompose, rep,
                  check=lambda r, rep=rep: _expect(
                      rf.quotient_by_iso([rf.build_biproduct(r.spec)])[0][0] == rep,
                      f"spec {r.spec.label} does not rebuild the class"))


class Verify:
    """Parse and verify a stream of structure texts, each a fresh candidate."""

    name = "verify"
    RANDOM_N = range(2, 13)
    RANDOM_PER_KIND = 3
    NAIVE_SAMPLE = 16
    NAIVE_MAX_N = 8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        corpus = _corpus(12)
        # (label, text, single-valued, must be classical)
        stream = []
        for spec in corpus:
            c = rf.build_biproduct(spec)
            stream.append((f"corpus[{spec.label}]", rf.render_structure(c), True, True))
        tables = []
        for n in self.RANDOM_N:
            same_n = [s for s in corpus if s.n == n]
            for k in range(self.RANDOM_PER_KIND):
                tables.append((f"single[n={n}#{k}]", n, _random_single(rng, n), True))
                tables.append((f"multi[n={n}#{k}]", n, _random_multi(rng, n), False))
                tables.append((f"perturbed[n={n}#{k}]", n,
                               _perturbed(rng, rf.build_biproduct(rng.choice(same_n))), True))
        for label, n, (triples, bot), single in tables:
            text = rf.render_structure(rf.FrobeniusCandidate.from_triples(n, triples, bot))
            stream.append((label, text, single, False))
        self.wide = wide_texts(seed)
        stream.extend((label, text, True, label.startswith("cyclic"))
                      for label, text in self.wide)
        rng.shuffle(stream)
        self.stream = stream
        small = [t for t in tables if t[1] <= self.NAIVE_MAX_N]
        self.naive_sample = {label: (n, triples, bot)
                             for label, n, (triples, bot), _ in
                             rng.sample(small, self.NAIVE_SAMPLE)}
        self.naive_verdicts: dict[str, dict] = {}
        self.first_reports: dict[str, object] = {}
        self.wide_ops = {f"verify[{label}]" for label, _ in self.wide}

    def run_pass(self, p: Pass) -> None:
        for label, text, single, classical in self.stream:
            p.run(f"verify[{label}]", parse_and_verify, text,
                  check=lambda r, label=label, single=single, classical=classical:
                  self._check(label, r, single, classical))

    def _check(self, label: str, report, single: bool, classical: bool) -> str | None:
        if classical and not report.is_classical:
            return "a classical structure fails the axioms"
        if single and report.frobenius != report.frobenius_pointwise:
            return "composite and pointwise interchange verdicts differ"
        if not single and report.frobenius_pointwise is not None:
            return "pointwise verdict on a multi-valued table"
        first = self.first_reports.setdefault(label, report)
        if first != report:
            return "report differs from the first pass"
        if label in self.naive_sample:
            want = self.naive_verdicts.get(label)
            if want is None:
                want = self.naive_verdicts[label] = _naive().axioms(*self.naive_sample[label])
            got = {"associativity": report.associativity.ok,
                   "left_unit": report.left_unit.ok, "right_unit": report.right_unit.ok,
                   "commutativity": report.commutativity.ok,
                   "special": report.special.ok, "frobenius": report.frobenius.ok}
            if got != want:
                return f"verdicts {got} differ from tests/naive.py {want}"
        return None


def parse_and_verify(text: str):
    return rf.verify_structure(rf.parse_structure(text))


def wide_texts(seed: int) -> list[tuple[str, str]]:
    """Wide carriers: few operations, most of the verify time.

    A cyclic group, an empty table and a seeded partial table; the sizes
    are fixed so the cost does not depend on the seed.
    """
    rng = random.Random(seed ^ 0x5EED)
    cyclic = rf.build_biproduct(rf.parse_structure_spec("32"))
    empty = rf.FrobeniusCandidate.from_triples(40, [], [])
    n = 36
    cells = rng.sample([(x, y) for x in range(n) for y in range(n)], 4 * n)
    partial = rf.FrobeniusCandidate.from_triples(
        n, [(x, y, rng.randrange(n)) for x, y in cells], rng.sample(range(n), 3))
    return [("cyclic[Z32]", rf.render_structure(cyclic)),
            ("empty[n=40]", rf.render_structure(empty)),
            ("partial[n=36]", rf.render_structure(partial))]


def _random_single(rng: random.Random, n: int):
    triples = [(x, y, rng.randrange(n)) for x in range(n) for y in range(n)
               if rng.random() < 0.7]
    return triples, [e for e in range(n) if rng.random() < 0.3]


def _random_multi(rng: random.Random, n: int):
    """About 1.5 values per cell, and at least one cell with two values."""
    x, y = rng.randrange(n), rng.randrange(n)
    forced = {(x, y, z) for z in rng.sample(range(n), 2)}
    triples = sorted(forced | {(x, y, z) for x in range(n) for y in range(n)
                               for z in range(n) if rng.random() < 1.5 / n})
    return triples, [e for e in range(n) if rng.random() < 0.3]


def _perturbed(rng: random.Random, c):
    """A group-built structure with one cell changed: a near miss."""
    n = c.n
    triples = list(c.triples())
    k = rng.randrange(len(triples))
    x, y, z = triples[k]
    new = rng.choice([v for v in range(-1, n) if v != z])
    if new < 0:
        del triples[k]
    else:
        triples[k] = (x, y, new)
    return triples, sorted(c.bot)


_NAIVE = None


def _naive():
    """The reference checker of the test suite, loaded from its file."""
    global _NAIVE
    if _NAIVE is None:
        spec = importlib.util.spec_from_file_location("naive", ROOT / "tests" / "naive.py")
        _NAIVE = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_NAIVE)
    return _NAIVE


class Analysis:
    """Every analysis call on a seeded sample of built structures."""

    name = "analysis"
    PER_N = 4
    # Scan-heavy inputs and the m for their subobject search.  Left out for
    # run length only: Z20 with m = 1 (12.8 s) and "2;3;5" with m = 2 (16 s).
    SCAN_HEAVY = (("16", 1), ("2,2,2,2", 1), ("2;2;2", 3))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        corpus = _corpus(12)
        chosen = []
        for n in range(1, 13):
            same_n = [s for s in corpus if s.n == n]
            chosen += [(_spec_text(s), 1) for s in _stratified(rng, same_n, self.PER_N)]
        chosen += self.SCAN_HEAVY
        rng.shuffle(chosen)
        self.items = []
        for text, m in chosen:
            spec = rf.parse_structure_spec(text)
            c = rf.build_biproduct(spec)
            self.items.append((text, spec, c, m, rng.randrange(c.n), _block_sets(spec)))

    def run_pass(self, p: Pass) -> None:
        for text, spec, c, m, a, blocks in self.items:
            p.run(f"classical_elements[{text}]", rf.classical_elements, c,
                  check=lambda r, blocks=blocks: _expect(
                      sorted(r, key=sorted) == sorted(blocks, key=sorted),
                      f"{len(r)} classical elements for {len(blocks)} blocks"))
            p.run(f"quantum_duality[{text}]", quantum_duality, c,
                  check=lambda r: _expect(r.ok, f"duality fails: {r.witness}"))
            p.run(f"star[{text}]", rf.star, c, {a},
                  check=lambda r, c=c, a=a: _expect(rf.star(c, r) == {a},
                                                    "star is not an involution"))
            p.run(f"represent[{text}]", rf.represent, c, {a},
                  check=lambda r: _expect(rf.is_partial_bijection(r),
                                          "translation is not a partial bijection"))
            p.run(f"decompose[{text}]", rf.decompose, c,
                  check=lambda r, spec=spec, c=c: _expect(
                      r.spec == spec and rf.build_biproduct(r.spec) == c,
                      f"decomposed as {r.spec.label}"))
            p.run(f"comonoid_subobjects[{text};m={m}]", rf.comonoid_subobjects, c, m,
                  check=lambda r, want=math.perm(len(blocks), m): _expect(
                      len(r) == want, f"{len(r)} subobjects, want {want}"))


def quantum_duality(c):
    """The pairing of a structure, checked by its triangle identities."""
    return rf.check_duality(rf.quantum_structure(c))


class Cli:
    """The README's command-line walkthrough, in process, through ``relfrob.cli.main``."""

    name = "cli"
    SPEC_SIZES = (8, 10, 12)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        corpus = _corpus(max(self.SPEC_SIZES))
        workdir = ROOT / ".bench_out" / "cli"
        workdir.mkdir(parents=True, exist_ok=True)
        # (label, argv, check of the parsed machine output or None)
        self.commands = []
        for k, n in enumerate(self.SPEC_SIZES):
            spec = _stratified(rng, [s for s in corpus if s.n == n], 3)[1]
            path = str(workdir / f"spec{k}.rel")
            blocks = len(spec.blocks)
            per_file = [
                (["build", "--groups", _spec_text(spec), "-o", path], None),
                (["verify", path], lambda d: d["classical"]),
                (["quantum", path], lambda d: d["duality_ok"]),
                (["decompose", path], lambda d, label=spec.label: d["spec"] == label),
                (["elements", path], lambda d, k=blocks: d["count"] == k),
                (["subobjects", path, "--m", "1"], lambda d, k=blocks: d["count"] == k),
            ]
            for fmt in ("human", "machine"):
                self.commands += [(f"{argv[0]}[{spec.label}] --format {fmt}",
                                   argv + ["--format", fmt], expect)
                                  for argv, expect in per_file]
        whole = [
            (["enumerate", "--n", "8", "--special"],
             lambda d: d["count"] == SPECIAL_COUNTS[8]),
            (["brute-force", "--n", "3"], lambda d: d["count"] == COMMUTATIVE_LABELED[3]),
            (["cross-validate", "--n", "3"], lambda d: d["ok"]),
        ]
        for fmt in ("human", "machine"):
            self.commands += [(" ".join(argv + ["--format", fmt]),
                               argv + ["--format", fmt], expect) for argv, expect in whole]
        self.first_output: dict[str, str] = {}

    def run_pass(self, p: Pass) -> None:
        for label, argv, expect in self.commands:
            out = p.run(label, run_cli, argv,
                        check=lambda r, label=label, expect=expect: self._check(
                            label, expect, r))
            if isinstance(out, tuple):
                p.stdout_bytes += len(out[1].encode("utf-8"))

    def _check(self, label: str, expect, result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if not label.endswith("machine"):
            return None
        if self.first_output.setdefault(label, out) != out:
            return "machine output differs from the first pass"
        if expect is not None and not expect(json.loads(out)):
            return f"unexpected machine output {out.strip()[:200]}"
        return None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One command through ``relfrob.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = relfrob.cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (Classify, Verify, Analysis, Cli)}
