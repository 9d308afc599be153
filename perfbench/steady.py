"""Steadiness check: repeat the benchmark and report each metric's spread.

    python3 perfbench/steady.py

Run from the root of the checkout.  Each workload of BENCHMARK.json runs RUNS
times untraced, with seeds 1..RUNS, one run at a time.  For every end-to-end
metric it prints the median and the spread, (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4), next to the metric's bound
from BENCHMARK.json.  A spread above the bound fails; one above a third of it
is marked.  Then each workload runs TRACED times traced, and every per-layer
.calls and size metric must repeat exactly.  Results go to
perfbench/results/steadiness.json; the exit code is 1 if anything failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
TRACED = 2


def bench(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(argv)} failed its gate:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "runs": RUNS,
           "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    unsteady = []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0)
                for seed in range(1, RUNS + 1)]
        rows = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            rows[name] = {"median": statistics.median(values), "spread": spread(values),
                          "bound": bound, "values": values}
            mark = ""
            if rows[name]["spread"] > bound:
                mark = "  <-- above the bound"
                unsteady.append(f"{workload}.{name}")
            elif rows[name]["spread"] > bound / 3:
                mark = "  (above a third of the bound)"
            print(f"{workload:10s} {name:18s} median {rows[name]['median']:10.4f} "
                  f"spread {rows[name]['spread']:.4f} bound {bound}{mark}", flush=True)
        traced = [bench(workload, seed, spec["run_seconds"], 1)
                  for seed in range(1, TRACED + 1)]
        exact = [k for k in traced[0] if not k.endswith("_s")]
        moved = [k for k in exact if any(t[k] != traced[0][k] for t in traced)]
        print(f"{workload:10s} {len(exact)} per-layer counts and sizes, "
              f"{len(moved)} differ between {len(traced)} traced runs {moved}", flush=True)
        if moved:
            unsteady.append(f"{workload} counts {moved}")
        doc["workloads"][workload] = {
            "end_to_end": rows,
            "trace_overhead_s": [t["trace.overhead_s"] for t in traced],
            "counts": {k: traced[0][k] for k in exact},
            "counts_repeat_exactly": not moved}
    out = HERE / "results" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if unsteady:
        print("not steady: " + ", ".join(unsteady))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
