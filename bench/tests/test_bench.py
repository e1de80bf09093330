"""Tests of the benchmark itself: tracing, failure accounting, output contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import relfrob as rf  # noqa: E402
import relfrob.analysis  # noqa: E402
import relfrob.cli  # noqa: E402
import relfrob.rel  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def bindings() -> dict:
    """Every module- and class-level binding the tracer could replace."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "relfrob" or key.startswith("relfrob."):
            out.update({(key, name): value for name, value in vars(module).items()})
    for cls in (rf.Rel, rf.FrobeniusCandidate):
        out.update({(cls.__name__, name): value for name, value in vars(cls).items()})
    return out


def test_wrappers_cover_aliases_and_are_removed():
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert rf.Rel.then is not before[("Rel", "then")]
        assert rf.Rel.__rshift__ is rf.Rel.then
        assert relfrob.cli.decompose is relfrob.analysis.decompose is rf.decompose
        assert relfrob.cli.main is not before[("relfrob.cli", "main")]
        with tracer.span(tracing.PASS_ROOT):
            rf.decompose(rf.build_biproduct(rf.parse_structure_spec("2;3")))
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    names = [tracer.names[i] for i in tracer.span_name]
    parent_names = {(tracer.names[tracer.span_name[p]], name)
                    for p, name in zip(tracer.span_parent, names) if p >= 0}
    # verify_structure reaches composition through the `>>` operator
    assert ("frobenius.verify", "rel.then") in parent_names
    assert ("analysis.decompose", "frobenius.verify") in parent_names
    assert ("groups.build", "frobenius.candidate") in parent_names


def test_self_times_and_overhead_sum_to_traced_wall(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ROOT", tmp_path)
    tracer = tracing.Tracer()
    tracer.calibrate()
    assert tracer.inner_ns > 0 and tracer.outer_ns > 0
    with tracer.installed():
        with tracer.span(tracing.SETUP_ROOT):
            workload = workloads.Cli(1)
        (one_pass,) = workloads.run_passes(workload, 0, workloads.Speed(), tracer)
    assert (tmp_path / ".bench_out" / "cli" / "spec0.rel").is_file()
    own, overhead = tracer.self_and_overhead_ns()
    assert abs(sum(own) + sum(overhead) - tracer.root_wall_ns()) < 1e-3 * len(own)
    pass_ns = [e - s for s, e, p, n in zip(tracer.span_start, tracer.span_end,
                                           tracer.span_parent, tracer.span_name)
               if p < 0 and tracer.names[n] == tracing.PASS_ROOT]
    assert len(pass_ns) == 1
    assert abs(pass_ns[0] / 1e9 - one_pass.wall) < 1e-3
    metrics = tracer.layer_metrics(passes=1)
    reported = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    reported += metrics["trace.overhead_s"][0]
    assert abs(reported - tracer.root_wall_ns() / 1e9) < 1e-6
    assert all(v >= 0 for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert metrics["cli.main.calls"][0] == len(one_pass.ops)


def test_wrapper_work_is_overhead_not_the_callers_time(monkeypatch):
    """A slow work counter lands in trace.overhead_s, not in its caller's self time."""
    delay_s, calls = 0.002, 20

    def slow_count(counts, args, result):
        time.sleep(delay_s)

    monkeypatch.setitem(tracing.COUNTERS, "rel.converse", slow_count)
    r = relfrob.rel.identity(3)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(tracing.PASS_ROOT):
            for _ in range(calls):
                r.converse()
    metrics = tracer.layer_metrics(passes=1)
    assert metrics["rel.converse.calls"][0] == calls
    assert metrics["trace.overhead_s"][0] >= calls * delay_s
    assert metrics["bench.self_s"][0] < calls * delay_s / 4


def test_groupoid_failure_is_counted_not_hidden():
    (one_pass,) = workloads.run_passes(workloads.Classify(1), 0, workloads.Speed())
    failed = [op for op in one_pass.ops if op.error]
    assert [op.label for op in failed] == ["decompose[n=4 pair groupoid]"]
    assert failed[0].error.startswith("AssertionError")
    assert not failed[0].wrong_output
    assert failed[0].label in workloads.KNOWN_DEFECTS
    assert workloads.summarize([one_pass])["failed"] == failed
    labels = [op.label for op in one_pass.ops]
    assert labels.count("decompose[n=4 pair groupoid]") == 1
    assert sum(label.startswith("decompose[n=4 ") for label in labels) == 7


def test_wrong_output_is_failed_and_unexpected():
    p = workloads.Pass(workloads.Speed())
    p.run("enumerate_classical(3)", rf.enumerate_classical_structures, 3,
          check=lambda r: workloads._expect(len(r) == 4, f"{len(r)} structures"))
    p.finish()
    (op,) = p.ops
    assert op.wrong_output and op.error == "wrong output: 3 structures"
    assert not run.report_failures(p.ops, workloads.KNOWN_DEFECTS | {op.label})


def test_times_scale_by_the_reference_loop_around_them():
    s = speed.Speed()
    s.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    s.loop_s = [speed.NOMINAL_S] * 2 + [2 * speed.NOMINAL_S] * 3
    assert s.scale(0.5, 1.0) == 1.0  # neighbours 0.0 and 1.0 ran at nominal speed
    assert s.scale(3.5, 1.0) == 0.5  # neighbours 2.0 to 4.0 ran the loop twice as slowly
    assert s.scale(1.5, 1.0) == 1.0 / 1.5  # median of one nominal and one slow sample pair


def last_json(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def test_run_prints_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "cli", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = last_json(done.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
