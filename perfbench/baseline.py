"""Measure every workload on the tuning seeds and write the baseline.

    python3 perfbench/baseline.py

It runs every workload on seeds 1-10 and rewrites ``perfbench/baseline.json``.
Each run is a separate ``perfbench/run.py`` process started from the
repository root.  For every end-to-end metric the output records the
median, the quartiles and the spread (interquartile range over median) of
the untraced runs, against the bound in ``BENCHMARK.json``.  Two traced runs
of the first seed give the per-layer metrics; the count metrics must repeat
exactly between them.  The tracing overhead is their mean ``jobs_per_s``
against the median of the untraced runs: the machine's speed drifts, so one
untraced run is too noisy a yardstick.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import PER_LAYER  # noqa: E402
from workloads import HELD_OUT_SEED, TUNING_SEEDS, WORKLOADS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "steady": spread <= bound / 3.0, "values": values,
    }


def measure(workload, seeds, seconds, bounds):
    runs = []
    for seed in seeds:
        result, detail = run_once(workload, seed, seconds, trace=False)
        runs.append((seed, result, detail))
        print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    end_to_end = {
        name: summarize([r["metrics"][name]["value"] for _, r, _ in runs], bound) for name, bound in bounds.items()
    }
    traced = [run_once(workload, seeds[0], seconds, trace=True) for _ in range(2)]
    layers = {name: traced[0][0]["metrics"][name]["value"] for name in PER_LAYER}
    counts_repeat = all(
        traced[0][0]["metrics"][name]["value"] == traced[1][0]["metrics"][name]["value"]
        for name, unit in PER_LAYER.items() if unit == "count"
    )
    untraced = end_to_end["jobs_per_s"]["median"]
    traced_rate = statistics.mean(t[0]["metrics"]["trace.jobs_per_s"]["value"] for t in traced)
    first = runs[0][2]
    return {
        "correct": all(r["correct"] for _, r, _ in runs) and all(t[0]["correct"] for t in traced),
        "failed_frac": [d["failed_frac"] for _, _, d in runs],
        "inexact_sup": layers["bias.inexact_sup"],
        "end_to_end": end_to_end,
        "per_layer": {"seed": seeds[0], "metrics": layers, "counts_repeat_exactly": counts_repeat},
        "tracing_overhead": {
            "untraced_jobs_per_s": untraced,
            "traced_jobs_per_s": traced_rate,
            "slowdown": 1.0 - traced_rate / untraced,
        },
        "inputs": first["inputs"],
        "jobs_per_run": [r["attempted"] for _, r, _ in runs],
        "cycles_per_run": [d["cycles"] for _, _, d in runs],
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(TUNING_SEEDS)
    started = time.time()
    report = {
        "regenerate": "python3 perfbench/baseline.py",
        "command": bench["command"],
        "run_seconds": seconds,
        "tuning_seeds": seeds,
        "held_out_seed": HELD_OUT_SEED,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {w: measure(w, seeds, seconds, bounds) for w in WORKLOADS},
    }
    report["elapsed_s"] = time.time() - started
    (HERE / "baseline.json").write_text(json.dumps(report, indent=2) + "\n")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for w, r in report["workloads"].items():
        for name, s in r["end_to_end"].items():
            flag = "ok" if s["steady"] else "WIDE"
            print(f"{w:10s} {name:14s} {s['median']:.5g} {units[name]:6s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}) {flag}")
        print(f"{w:10s} counts repeat exactly: {r['per_layer']['counts_repeat_exactly']}; "
              f"tracing slowdown {r['tracing_overhead']['slowdown']:.3f}")


if __name__ == "__main__":
    main()
