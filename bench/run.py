"""Layered benchmark for relfrob, run from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded process drives the package in a closed loop: the next
operation starts when the previous one returns.  The workload's inputs are
built from the seed before anything is timed (``workloads.py``); then whole
passes over the workload's operations run until ``--seconds`` have passed,
and output checks run after each pass, outside the timed region.

Every time below is scaled to a nominal machine speed: a fixed reference
loop is timed between operations, and each operation's time is multiplied
by the loop's nominal time over its measured time nearby (``speed.py``).
The raw times are printed next to them, and as JSON on a ``raw:`` line
above the result line.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric:

    setup_s              median over fresh interpreters of importing relfrob
                         and building the workload's inputs
    wall_s               median time of one pass (sum of its operations)
    ops_per_s            operations per second of pass time
    op_p50_ms, op_p90_ms latency percentiles over the operations of a pass,
                         each operation taken at its median over the passes
    success_rate         share of operations that neither raised nor failed
                         their output check (1 - error rate; the error rate
                         itself is printed above the JSON line)
    peak_rss_mb          peak resident memory at the end of the timed phase
    cross_validate_n4_s  cross_validate(4): median over passes on classify,
                         elsewhere median of five runs between passes
    verify_wide_s        parse and verify of the wide carriers: median of the
                         per-pass sums on verify, elsewhere of five runs
                         between passes

With ``--trace 1`` the run calibrates the tracer's own cost, times one
untraced pass, then installs the span wrappers of ``tracing.py``, builds the
inputs again and runs one traced pass.  Per-layer metrics are for that
set-up plus that pass; the wrappers' own work is kept out of the self
times and reported as ``trace.overhead_s``.  Spans go to
``.bench_out/trace-<workload>.tsv.gz``.  Then more pairs of an untraced and
a traced pass run, and ``trace.overhead_ratio`` is the median over the
pairs of traced over untraced pass time.

The program must run without ``-O``: its internal checks are assertions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 5
# End-to-end metrics that are times; they are reported scaled, and printed
# raw on the ``raw:`` line.
TIMED_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
               "op_p90_ms": "ms", "cross_validate_n4_s": "s", "verify_wide_s": "s"}
# A traced run keeps the spans of one traced pass: a pass of the analysis
# workload alone records over a million spans, all held in memory.  It then
# times pairs of an untraced and a traced pass, at least OVERHEAD_PAIRS and
# for two thirds of --seconds.
OVERHEAD_PAIRS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: scaled, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], capture_output=True, text=True, timeout=120,
                              check=True)
        fields = done.stdout.split()
        scaled.append(float(fields[-2]))
        raw.append(float(fields[-1]))
    return statistics.median(scaled), statistics.median(raw)


def machine_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "relfrob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or revision
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_revision": revision, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def report_failures(failed, known) -> bool:
    """Print failed operations grouped by label; return whether all are known."""
    by_label: dict[str, list] = {}
    for op in failed:
        by_label.setdefault(op.label, []).append(op)
    for label, ops in sorted(by_label.items()):
        tag = "known defect" if label in known and not ops[0].wrong_output else "UNEXPECTED"
        print(f"  failed x{len(ops)}: {label}: {ops[0].error}  [{tag}]")
    return all(label in known and not ops[0].wrong_output for label, ops in by_label.items())


def run_untraced(args, workloads) -> dict:
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    speed = workloads.Speed()
    probes = workloads.Probes(args.workload, args.seed, speed)
    passes = workloads.run_passes(workload, args.seconds, speed, probe=probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    s = workloads.summarize(passes)
    if args.workload == "classify":
        probes.cv4 = [(op.scaled, op.seconds) for op in s["ops"]
                      if op.label == "cross_validate(4)"]
    if args.workload == "verify":
        probes.wide_s = [(sum(op.scaled for op in p.ops if op.label in workload.wide_ops),
                          sum(op.seconds for op in p.ops if op.label in workload.wide_ops))
                         for p in passes]
    problems = probes.problems

    ops, failed = s["ops"], s["failed"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {len(ops)} ({len(ops) // len(passes)} per pass, closed loop, one process)")
    for line in getattr(workload, "info", ()):
        print(f"  info: {line}")
    # the timed figures, scaled to the nominal machine speed and as measured
    timed = {kind: {"setup_s": setup, **s[kind],
                    "cross_validate_n4_s": statistics.median(v[i] for v in probes.cv4),
                    "verify_wide_s": statistics.median(v[i] for v in probes.wide_s)}
             for i, (kind, setup) in enumerate((("scaled", setup_s), ("raw", raw_setup_s)))}
    metrics = {name: (timed["scaled"][name], unit) for name, unit in TIMED_UNITS.items()}
    metrics["success_rate"] = (1 - len(failed) / len(ops), "ratio")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    notes = {"setup_s": f"median of {SETUP_RUNS} fresh interpreters",
             "wall_s": f"median of {len(passes)} passes",
             "op_p50_ms": f"over {s['distinct']} operations, each the median of its "
                          f"{len(passes)} runs ({len(ops)} samples)"}
    notes["op_p90_ms"] = notes["op_p50_ms"]
    for name, (value, unit) in metrics.items():
        raw = f"raw {timed['raw'][name]:<10.6g}" if name in TIMED_UNITS else " " * 14
        print(f"  {name:<22}{value:>14.6g} {unit:<6}{raw} {notes.get(name, '')}")
    print(f"  machine speed: {speed.describe()}")
    print(f"  {'error_rate':<22}{len(failed) / len(ops):>14.6g} ratio "
          f"{len(failed)} of {len(ops)} operations failed")
    all_known = report_failures(failed, workloads.KNOWN_DEFECTS)
    for problem in problems:
        print(f"  probe check failed: {problem}")
    print("raw: " + json.dumps({name: timed["raw"][name] for name in TIMED_UNITS}))
    return {"correct": all_known and not problems, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}


def run_traced(args, workloads, tracing) -> dict:
    speed = workloads.Speed()
    tracer = tracing.Tracer()
    tracer.calibrate()
    build = workloads.WORKLOADS[args.workload]
    (untraced,) = workloads.run_passes(build(args.seed), 0, speed)
    t0 = perf_counter()
    with tracer.installed():
        with tracer.span(tracing.SETUP_ROOT):
            workload = build(args.seed)
        (traced,) = workloads.run_passes(workload, 0, speed, tracer)
    traced_wall = perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}.tsv.gz")
    metrics = tracer.layer_metrics(passes=1)
    spans, calibration = len(tracer.span_name), (tracer.inner_ns, tracer.outer_ns)
    covered = tracer.root_wall_ns() / 1e9
    del tracer

    # traced over untraced pass time, over pairs of passes; further traced
    # passes record their spans in a fresh tracer each and drop them
    ratios = [traced.scaled_wall / untraced.scaled_wall]
    ops = untraced.ops + traced.ops
    start = perf_counter()
    while len(ratios) < OVERHEAD_PAIRS or perf_counter() - start < args.seconds * 2 / 3:
        (untraced,) = workloads.run_passes(workload, 0, speed)
        again = tracing.Tracer()
        with again.installed():
            (retraced,) = workloads.run_passes(workload, 0, speed, again)
        del again
        ratios.append(retraced.scaled_wall / untraced.scaled_wall)
        ops += untraced.ops + retraced.ops

    metrics["cli.stdout_bytes"] = (traced.stdout_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    print(f"workload {args.workload}  seed {args.seed}  spans {spans}  "
          f"traced wall {traced_wall:.3f} s (spans cover {covered:.3f} s)")
    print("  per-layer figures are for the traced set-up plus the first traced pass; "
          f"wrapper cost per span, calibrated: {calibration[0]:.0f} ns inside, "
          f"{calibration[1]:.0f} ns outside, plus what each span times itself")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40}{value:>16.6g} {unit}")
    print(f"  trace.overhead_ratio is the median over {len(ratios)} pairs of an untraced "
          f"and a traced pass, which range from {min(ratios):.3f} to {max(ratios):.3f}; "
          f"where that range holds 1, no overhead is resolved")
    failed = [op for op in ops if op.error]
    all_known = report_failures(failed, workloads.KNOWN_DEFECTS)
    return {"correct": all_known, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; relfrob's internal checks are assertions",
              file=sys.stderr)
        return 2
    if not (SRC / "relfrob" / "__init__.py").is_file():
        print(f"error: no relfrob sources under {SRC}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import relfrob

    if Path(relfrob.__file__).resolve().parent != SRC / "relfrob":
        print(f"error: imported relfrob from {relfrob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = run_traced(args, workloads, tracing)
    else:
        result = run_untraced(args, workloads)
    print("meta: " + json.dumps(machine_info(), sort_keys=True))
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
