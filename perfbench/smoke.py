"""Smoke test of the benchmark itself (about a minute).

    python3 perfbench/smoke.py

Checks that a tiny run of every workload named in ``BENCHMARK.json`` prints
every end-to-end and per-layer metric it names, with all checks passing, and
that corrupting the program's outputs makes every job fail its check: ``failed`` rises to ``attempted``, ``ok_frac`` drops to 0
and ``correct`` turns false.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import run

SECONDS = 0.5


class SmokeFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SmokeFailure(message)


def corrupt_number(token: str) -> str:
    try:
        value = float(token)
    except ValueError:
        return token
    return repr(value * 1.5 + 0.1)


def corrupt_json(obj):
    if isinstance(obj, float):
        return obj * 1.5 + 0.1
    if isinstance(obj, dict):
        return {k: corrupt_json(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [corrupt_json(v) for v in obj]
    return obj


def corrupt_outputs(job, out: Path) -> None:
    """Shift every number in every result file the job wrote."""
    for path in out.iterdir():
        if path.suffix == ".csv":
            header, *rows = path.read_text().splitlines()
            rows = [",".join(corrupt_number(t) for t in row.split(",")) for row in rows]
            path.write_text("\n".join([header, *rows]) + "\n")
        elif path.suffix == ".json" and path.name != "run_manifest.json":
            path.write_text(json.dumps(corrupt_json(json.loads(path.read_text()))))


def check_run(workload, trace):
    result, detail = run.run(workload, seed=1, seconds=SECONDS, trace=trace)
    names = run.PER_LAYER if trace else run.END_TO_END
    expect(list(result["metrics"]) == list(names), f"{workload}: metric names {list(result['metrics'])}")
    for name, metric in result["metrics"].items():
        expect(math.isfinite(metric["value"]), f"{workload}: {name} is {metric['value']}")
        expect(metric["unit"] == names[name], f"{workload}: {name} has unit {metric['unit']}")
    expect(result["correct"] and result["failed"] == 0, f"{workload}: failures {detail['failures'][:2]}")
    expect(result["attempted"] >= 1, f"{workload}: no job ran")
    return result


def check_corruption(workload):
    result, _ = run.run(workload, seed=1, seconds=SECONDS, trace=False, tamper=corrupt_outputs)
    expect(not result["correct"], f"{workload}: corrupted outputs still read as correct")
    expect(result["failed"] == result["attempted"], f"{workload}: {result['failed']} of {result['attempted']} failed")
    expect(result["metrics"]["ok_frac"]["value"] == 0.0, f"{workload}: ok_frac stayed at {result['metrics']['ok_frac']}")


def main():
    for workload in (w["name"] for w in run.BENCHMARK["workloads"]):
        check_run(workload, trace=False)
        check_run(workload, trace=True)
        check_corruption(workload)
        print(f"{workload}: ok", flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    try:
        main()
    except SmokeFailure as exc:
        sys.exit(f"smoke test failed: {exc}")
