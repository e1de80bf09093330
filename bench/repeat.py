"""Run the benchmark over several seeds and report medians and spreads.

    python3 bench/repeat.py [--history bench/history/NAME.json]

Each workload of ``BENCHMARK.json`` runs once for each of the seeds 1 to
SEEDS, as a run of ``run.py`` with the ``run_seconds`` of ``BENCHMARK.json``.
For every end-to-end metric it prints the median, the quartiles and the
spread, the distance between the quartiles as a share of the median, next
to the metric's bound; the raw, unscaled times (``speed.py``) get the same
figures.  Runs are sequential, one process at a time.  With ``--history``
it also makes one traced run per workload and writes everything, with the
machine description, to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    """The result line of one run, its ``meta:`` line and its ``raw:`` line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    tagged = {tag: json.loads(line[len(tag) + 2:]) for line in lines
              for tag in ("meta", "raw") if line.startswith(tag + ": ")}
    return json.loads(lines[-1]), tagged["meta"], tagged.get("raw", {})


def summarize(values: list[float], bound: float) -> tuple[dict, str]:
    """Median, quartiles and spread of ``values``, and a flag against ``bound``."""
    med, q1, q3, rel = spread(values)
    flag = "ok" if rel < bound / 3 else ("WIDE" if rel <= bound else "OVER")
    line = (f"median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"spread {rel:8.4f}  bound {bound:<5} {flag}")
    return {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": values}, line


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--history", type=Path)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    history: dict = {"run_seconds": seconds, "workloads": {}}
    all_within = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, raws = [], []
        for seed in range(1, SEEDS + 1):
            result, meta, raw = run_once(workload, seed, seconds, 0)
            history["meta"] = meta
            runs.append(result)
            raws.append(raw)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            figures, line = summarize([r["metrics"][name]["value"] for r in runs], bound)
            if name != "setup_s" and figures["spread"] > bound / 3:
                all_within = False
            print(f"  {name:<22} {line}", flush=True)
            summary[name] = {"unit": metric["unit"], **figures}
        raw_summary = {}
        for name in raws[0]:
            figures, line = summarize([raw[name] for raw in raws], bounds[name])
            print(f"  raw {name:<18} {line}", flush=True)
            raw_summary[name] = figures
        entry = {"seeds": [1, SEEDS], "correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": summary,
                 "end_to_end_raw": raw_summary}
        if args.history:
            traced, _, _ = run_once(workload, 1, seconds, 1)
            entry["per_layer_seed"] = 1
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        history["workloads"][workload] = entry
    if args.history:
        args.history.parent.mkdir(parents=True, exist_ok=True)
        args.history.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")
    print("every spread below a third of its bound" if all_within
          else "some spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
