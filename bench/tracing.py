"""Span tracing of relfrob's layers, installed from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper that records a span (name, parent, start, end) and, for some
functions, a work counter.  A function can be reachable under several
names: ``Rel.__rshift__`` is the same object as ``Rel.then``, and
``from .x import y`` copies functions into ``classify``, ``analysis``,
``cli`` and the package namespace.  Every binding that holds the original
object in a loaded ``relfrob`` module, or in the class that defines it, is
replaced, and ``uninstall`` puts each one back.

Spans are kept in flat arrays while the benchmark runs and written out at
the end.  The wrapper's own work (span bookkeeping and the work counters)
is kept out of the program's time.  Each span records the part of that work
it can time itself, and ``calibrate`` measures on a wrapped no-op the two
parts it cannot: the clock reads inside the span, and the call of the
wrapper outside it.  A wrapped span's self time is its duration minus those
clock reads, minus, for each direct child, the child's duration and the
child's wrapper work.  That work is reported as trace overhead, so the self
times and the overhead of all spans under a root sum exactly to the root's
duration.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from array import array
from collections import Counter, defaultdict
from math import factorial
from statistics import median
from time import perf_counter_ns

# (layer metric name, module, attribute path).  Names repeat where two
# functions make up one layer operation.
TARGETS = (
    ("rel.then", "relfrob.rel", "Rel.then"),
    ("rel.tensor", "relfrob.rel", "Rel.tensor"),
    ("rel.converse", "relfrob.rel", "Rel.converse"),
    ("rel.is_mono", "relfrob.rel", "Rel.is_mono"),
    ("rel.init", "relfrob.rel", "Rel.__init__"),
    ("frobenius.candidate", "relfrob.frobenius", "FrobeniusCandidate.__init__"),
    ("frobenius.verify", "relfrob.frobenius", "verify_structure"),
    ("frobenius.pointwise", "relfrob.frobenius", "check_fro_pointwise"),
    ("classify.search", "relfrob.classify", "brute_force_search"),
    ("classify.quotient", "relfrob.classify", "quotient_by_iso"),
    ("classify.cross_validate", "relfrob.classify", "cross_validate"),
    ("classify.enumerate", "relfrob.classify", "enumerate_classical_structures"),
    ("classify.enumerate", "relfrob.classify", "enumerate_special_frobenius"),
    ("analysis.classical_elements", "relfrob.analysis", "classical_elements"),
    ("analysis.quantum_structure", "relfrob.analysis", "quantum_structure"),
    ("analysis.check_duality", "relfrob.analysis", "check_duality"),
    ("analysis.decompose", "relfrob.analysis", "decompose"),
    ("analysis.comonoid_subobjects", "relfrob.analysis", "comonoid_subobjects"),
    ("analysis.star", "relfrob.analysis", "star"),
    ("analysis.represent", "relfrob.analysis", "represent"),
    ("groups.parse_spec", "relfrob.groups", "parse_structure_spec"),
    ("groups.build", "relfrob.groups", "build_biproduct"),
    ("groups.identify", "relfrob.groups", "identify_group"),
    ("files.parse", "relfrob.files", "parse_structure"),
    ("files.render", "relfrob.files", "render_structure"),
    ("files.load", "relfrob.files", "load_structure"),
    ("cli.main", "relfrob.cli", "main"),
)

_ANALYSIS = ("analysis.classical_elements", "analysis.quantum_structure",
             "analysis.check_duality", "analysis.decompose",
             "analysis.comonoid_subobjects", "analysis.star", "analysis.represent")
# Span names reported with a call count, and with a self time.
LAYER_CALLS = ("rel.then", "rel.tensor", "rel.converse", "rel.is_mono", "rel.init",
               "frobenius.verify", "frobenius.candidate", "classify.search",
               *_ANALYSIS, "files.parse", "files.render", "files.load", "cli.main")
LAYER_SELF = ("rel.then", "rel.tensor", "rel.converse", "rel.is_mono", "rel.init",
              "frobenius.candidate", "frobenius.verify", "frobenius.pointwise",
              "classify.search",
              "classify.quotient", "classify.cross_validate", "classify.enumerate",
              *_ANALYSIS, "groups.parse_spec", "groups.build", "groups.identify",
              "files.parse", "files.render", "files.load", "cli.main")
# Root spans the benchmark opens; their self time is the benchmark's own.
SETUP_ROOT = "bench.setup"
PASS_ROOT = "bench.pass"


# Counters computed from a call's arguments and result.  The byte counts are
# computed from popcounts and row widths, not measured.
def _count_then(counts, args, result):
    me, other = args
    ors = sum(row.bit_count() for row in me.rows)
    counts["rel.then.or_ops"] += ors
    counts["rel.then.bytes_computed"] += ors * ((other.cod + 7) // 8)


def _count_tensor(counts, args, result):
    me, other = args
    shifts = sum(row.bit_count() for row in me.rows) * other.dom
    counts["rel.tensor.bytes_computed"] += shifts * ((result.cod + 7) // 8)


def _count_verify(counts, args, result):
    counts["frobenius.verify.accepted"] += result.is_special_frobenius


def _count_search(counts, args, result):
    counts["classify.search.leaves_accepted"] += len(result)


def _count_quotient(counts, args, result):
    cands = args[0]
    if cands:
        counts["classify.quotient.relabelings"] += len(cands) * factorial(cands[0].n)


def _count_elements(counts, args, result):
    counts["analysis.elements.subsets_scanned"] += (1 << args[0].n) - 1


def _count_subobjects(counts, args, result):
    c, m = args
    counts["analysis.subobjects.relations_scanned"] += 1 << (m * c.n)
    counts["analysis.subobjects.accepted"] += len(result)


def _count_parse(counts, args, result):
    counts["files.parse.bytes"] += len(args[0].encode("utf-8"))


COUNTERS = {
    "rel.then": _count_then,
    "rel.tensor": _count_tensor,
    "frobenius.verify": _count_verify,
    "classify.search": _count_search,
    "classify.quotient": _count_quotient,
    "analysis.classical_elements": _count_elements,
    "analysis.comonoid_subobjects": _count_subobjects,
    "files.parse": _count_parse,
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, getattr(owner, attr)


class Tracer:
    """Records nested spans around relfrob's public functions."""

    CALIBRATION_CALLS = 20_000
    CALIBRATION_REPEATS = 7

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._bench_ids: set[int] = set()  # names of spans the benchmark opens
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # wrapper work outside [start, end] that the wrapper timed itself
        self.span_overhead = array("q")
        # from ``calibrate``: clock reads inside a wrapped span, and the
        # untimed wrapper call outside it, per span
        self.inner_ns = 0.0
        self.outer_ns = 0.0
        # counters per root span name id; analysed candidates per (root span,
        # object id), holding the object so that its id stays unique
        self.counts: defaultdict[int, Counter] = defaultdict(Counter)
        self.candidates: dict[tuple[int, int], object] = {}
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        """Append a span with the current parent and push it; times come later."""
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_overhead.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one pass."""
        name_id = self._name_id(name)
        self._bench_ids.add(name_id)
        idx = self._open(name_id)
        self.span_start[idx] = perf_counter_ns()
        try:
            yield
        finally:
            self.span_end[idx] = perf_counter_ns()
            self._stack.pop()

    @contextlib.contextmanager
    def pause(self):
        """Run package code without recording it, e.g. output checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count = COUNTERS.get(name)
        takes_candidate = name in _ANALYSIS and name != "analysis.check_duality"
        tracer = self
        stack = self._stack
        clock = perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            t0 = clock()
            idx = tracer._open(name_id)
            root = stack[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
                tracer.span_overhead[idx] = start - t0
            if takes_candidate:
                tracer.candidates.setdefault((root, id(args[0])), args[0])
            if count is not None:
                count(tracer.counts[tracer.span_name[root]], args, result)
            tracer.span_overhead[idx] += clock() - end
            return result

        return traced

    def calibrate(self) -> None:
        """Measure the wrapper cost that spans cannot time themselves.

        Loops of plain and of wrapped calls of a no-op are timed, and the
        medians over CALIBRATION_REPEATS give ``inner_ns``, the span
        duration beyond the no-op's own call, and ``outer_ns``, the wrapper
        time outside the span beyond what the span times.  The calibration
        spans are discarded.
        """
        def noop():
            pass

        wrapped = self._wrap("trace.calibration", noop)
        calls, clock = range(self.CALIBRATION_CALLS), perf_counter_ns
        inner, outer = [], []
        for _ in range(self.CALIBRATION_REPEATS):
            t0 = clock()
            for _ in calls:
                pass
            t1 = clock()
            for _ in calls:
                noop()
            t2 = clock()
            first = len(self.span_name)
            with self.span("trace.calibration.loop"):
                t3 = clock()
                for _ in calls:
                    wrapped()
                t4 = clock()
            durations = sum(e - s for s, e in zip(self.span_start[first + 1:],
                                                  self.span_end[first + 1:]))
            timed = sum(self.span_overhead[first + 1:])
            n = len(calls)
            inner.append((durations - (t2 - t1 - (t1 - t0))) / n)
            outer.append((t4 - t3 - (t1 - t0) - durations - timed) / n)
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end, self.span_overhead):
                del arr[first:]
        self.inner_ns, self.outer_ns = median(inner), median(outer)

    def install(self) -> None:
        """Wrap every binding of every target in the loaded relfrob modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "relfrob" or key.startswith("relfrob.")]
        for name, module, path in TARGETS:
            owner, original = _resolve(module, path)
            wrapper = self._wrap(name, original)
            holders = modules + ([owner] if isinstance(owner, type) else [])
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_and_overhead_ns(self) -> tuple[array, array]:
        """Per span: self time, and the wrapper's work charged as overhead.

        A wrapped span's wrapper work is its timed overhead plus the
        calibrated ``inner_ns`` and ``outer_ns``; its self time is its
        duration less ``inner_ns``, its children's durations and their
        wrapper work outside them.  Spans the benchmark opens carry none.
        """
        start, end, parent, timed = (self.span_start, self.span_end, self.span_parent,
                                     self.span_overhead)
        bench_ids, name_of = self._bench_ids, self.span_name
        own = array("d", (e - s for s, e in zip(start, end)))
        overhead = array("d", bytes(8 * len(own)))
        for idx, p in enumerate(parent):
            if name_of[idx] in bench_ids:
                outside = 0.0
            else:
                own[idx] -= self.inner_ns
                outside = timed[idx] + self.outer_ns
                overhead[idx] = self.inner_ns + outside
            if p >= 0:
                own[p] -= end[idx] - start[idx] + outside
        return own, overhead

    def root_wall_ns(self) -> int:
        return sum(e - s for s, e, p in zip(self.span_start, self.span_end,
                                            self.span_parent) if p < 0)

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures for one setup plus one average pass.

        Spans and counters under the setup root count once; those under the
        pass roots are summed and divided by ``passes``.
        """
        names, name_of, parent = self.names, self.span_name, self.span_parent
        kind_of_root = {SETUP_ROOT: 0, PASS_ROOT: 1}
        # per root kind (setup, pass): calls, self ns, child calls, counters
        calls = (Counter(), Counter())
        self_ns = (Counter(), Counter())
        child_calls = (Counter(), Counter())
        counters = (Counter(), Counter())
        kind = array("b")
        overhead_ns = [0.0, 0.0]
        for idx, (own, extra) in enumerate(zip(*self.self_and_overhead_ns())):
            nid, p = name_of[idx], parent[idx]
            k = kind_of_root[names[nid]] if p < 0 else kind[p]
            kind.append(k)
            calls[k][names[nid]] += 1
            self_ns[k][names[nid]] += own
            overhead_ns[k] += extra
            if p >= 0:
                child_calls[k][(names[name_of[p]], names[nid])] += 1
        for root_id, counter in self.counts.items():
            counters[kind_of_root[names[root_id]]].update(counter)
        analysed = [0, 0]
        for root, _ in self.candidates:
            analysed[kind[root]] += 1

        def combine(setup, looped) -> Counter:
            return Counter({key: setup[key] + looped[key] / passes
                            for key in setup.keys() | looped.keys()})

        calls, self_ns, child_calls, counts = (combine(*pair) for pair in
                                               (calls, self_ns, child_calls, counters))
        self_s = Counter({name: ns / 1e9 for name, ns in self_ns.items()})
        analysed = analysed[0] + analysed[1] / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_CALLS:
            out[f"{name}.calls"] = (calls[name], "count")
        for name in LAYER_SELF:
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["bench.self_s"] = (self_s[SETUP_ROOT] + self_s[PASS_ROOT], "s")
        out["trace.overhead_s"] = ((overhead_ns[0] + overhead_ns[1] / passes) / 1e9, "s")
        for key in ("rel.then.or_ops", "analysis.elements.subsets_scanned",
                    "analysis.subobjects.relations_scanned",
                    "classify.search.leaves_accepted", "classify.quotient.relabelings"):
            out[key] = (counts[key], "count")
        for key in ("rel.then.bytes_computed", "rel.tensor.bytes_computed",
                    "files.parse.bytes"):
            out[key] = (counts[key], "bytes")
        out["frobenius.verify.accept_ratio"] = (
            ratio(counts["frobenius.verify.accepted"], calls["frobenius.verify"]), "ratio")
        verified = child_calls[("classify.search", "frobenius.verify")]
        out["classify.search.leaves_verified"] = (verified, "count")
        out["classify.search.accept_ratio"] = (
            ratio(counts["classify.search.leaves_accepted"], verified), "ratio")
        reverify = sum(child_calls[(name, "frobenius.verify")] for name in _ANALYSIS)
        out["analysis.reverify.calls"] = (reverify, "count")
        out["analysis.reverify_per_candidate"] = (
            ratio(reverify, analysed), "ratio")
        out["analysis.subobjects.accept_ratio"] = (
            ratio(counts["analysis.subobjects.accepted"],
                  counts["analysis.subobjects.relations_scanned"]), "ratio")
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\twrapper_timed_ns\n")
            names = self.names
            for idx in range(len(self.span_name)):
                fh.write(f"{idx}\t{self.span_parent[idx]}\t{names[self.span_name[idx]]}"
                         f"\t{self.span_start[idx]}\t{self.span_end[idx]}"
                         f"\t{self.span_overhead[idx]}\n")
