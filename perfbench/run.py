"""Run one workload of the relbelief benchmark and print its metrics.

    python3 perfbench/run.py --workload post_data --seed 1 --seconds 20 --trace 0

Run from a source checkout.  The program is driven through its public CLI,
``relbelief.cli.main``, inside one worker process, by one client in a closed
loop: the next job is sent only after the previous one returned and its
outputs were checked.  The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
``{"detail": ...}``, records the run's inputs and failures.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run of a fixed number of cycles.  See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 15  # spread over the job loop, so set-up is sampled under the same conditions
RUN_LIMIT_S = 170.0  # a run gives up, reporting failure, before this many seconds
FINISH_TIMEOUT_S = 30.0

# Job seconds one cycle takes at the commit that introduced the benchmark; a
# traced run does seconds / this many cycles, so its counts depend only on
# the seed and --seconds, never on how fast the program is.
NOMINAL_CYCLE_S = {"post_data": 0.45, "exact_bias": 2.2, "mc_bias": 0.95}

# Metric names and units, in the order a result lists them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class WorkerError(RuntimeError):
    """The worker died, hung past the run limit, or broke the protocol."""


class Worker:
    def __init__(self, *flags):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), *flags],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready_s = None

    def read(self, deadline):
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
            raise WorkerError("worker did not answer before the run limit")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def wait_ready(self, deadline):
        if not self.read(deadline).get("ready"):
            raise WorkerError("worker did not report ready")
        self.ready_s = time.perf_counter() - self.started

    def ask(self, request, deadline):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read(deadline)

    def close(self):
        """Stop the worker and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=FINISH_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def probe_setup(deadline):
    """Seconds from starting an interpreter until relbelief.cli is imported."""
    probe = Worker("--probe")
    try:
        probe.wait_ready(deadline)
    finally:
        probe.close()
    return probe.ready_s


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir()) if path.exists() else 0


class Run:
    """The closed loop over one workload, and what it observed."""

    def __init__(self, work: Path, tamper=None):
        self.work = work
        self.tamper = tamper  # lets the smoke test corrupt an output before it is checked
        self.sent = 0
        self.walls, self.cpus = [], []
        self.job_s = 0.0
        self.failures = []
        self.failed = 0
        self.inexact_sup = 0
        self.bytes_written = 0
        self.mix = Counter()
        self.walls_by_kind = defaultdict(list)
        self.n_sim = defaultdict(set)
        self.cells = []
        self.reused = 0
        self._seen = set()

    def job(self, worker, job, deadline):
        config = self.work / "config.json"
        out = self.work / "out"
        if job.config is not None:
            config.write_text(job.config_text(), encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        self.sent += 1
        reply = worker.ask({"argv": job.argv(config, out)}, deadline)
        self.walls.append(reply["wall_s"])
        self.job_s += reply["wall_s"]
        self.cpus.append(reply["cpu_s"])
        outcome = checks.Outcome()
        if reply["error"] is not None:
            outcome.fail(f"exception: {reply['error'].strip().splitlines()[-1]}")
        elif reply["code"] != 0:
            outcome.fail(f"exit code {reply['code']}")
        else:
            if self.tamper is not None:
                self.tamper(job, out)
            try:
                job.check(out, outcome)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                outcome.fail(f"unreadable output: {exc!r}")
        self.bytes_written += dir_bytes(out)
        self.inexact_sup += outcome.inexact_sup
        if outcome.problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"job": job.mix_key(), "config": job.config, "problems": outcome.problems[:3]})
        self.mix[job.mix_key()] += 1
        self.walls_by_kind[job.mix_key()].append(reply["wall_s"])
        if job.n_sim is not None:
            self.n_sim[job.mix_key()].add(job.n_sim)
        if job.cells is not None:
            self.cells.append(job.cells)
        self.reused += job.bundle_key in self._seen
        self._seen.add(job.bundle_key)

    def inputs(self):
        n = len(self.walls)
        return {
            "job_mix": dict(sorted(self.mix.items())),
            "n_sim": {k: sorted(v) for k, v in sorted(self.n_sim.items())},
            "profile_cells": {
                "jobs": len(self.cells),
                "distinct": sorted(set(self.cells)),
                "median": float(np.median(self.cells)) if self.cells else None,
            },
            "bundle_reuse_share": self.reused / n if n else 0.0,
        }

    def latency_by_kind(self):
        """Median job milliseconds of each job kind, slowest first."""
        medians = {k: 1e3 * float(np.median(v)) for k, v in self.walls_by_kind.items()}
        return dict(sorted(medians.items(), key=lambda kv: -kv[1]))


def run(workload_name, seed, seconds, trace, tamper=None):
    """Run one workload and return (result line, detail)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = Workload(workload_name, seed)
    loop = Run(work, tamper)
    worker = Worker(*(["--trace"] if trace else []))
    aborted = None
    final = {}
    cycle = 0
    setup_samples = []
    probes = 0 if trace else SETUP_PROBES

    def probe_due():
        return len(setup_samples) < probes and loop.job_s >= len(setup_samples) * seconds / probes

    try:
        worker.wait_ready(deadline)
        trace_cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload_name]))
        while (cycle < trace_cycles) if trace else (cycle == 0 or loop.job_s < seconds):
            for job in workload.cycle(cycle):
                if probe_due():
                    setup_samples.append(probe_setup(deadline))
                loop.job(worker, job, deadline)
            cycle += 1
        while len(setup_samples) < probes:
            setup_samples.append(probe_setup(deadline))
        spans = ROOT / ".perfbench_work" / f"spans-{workload_name}-seed{seed}.csv"
        final = worker.ask({"finish": str(spans)}, time.perf_counter() + FINISH_TIMEOUT_S)
    except WorkerError as exc:
        aborted = str(exc)
    finally:
        worker.close()
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(loop.sent, 1)
    failed = loop.failed + (attempted - len(loop.walls))  # a job cut off by an abort failed too
    walls = np.array(loop.walls or [float("nan")])
    if trace:
        metrics = dict(final.get("layers") or {})
        metrics["cli.bytes_written"] = loop.bytes_written
        metrics["bias.inexact_sup"] = loop.inexact_sup
        metrics["trace.jobs_per_s"] = len(loop.walls) / walls.sum()
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples) if setup_samples else float("nan"),
            "jobs_per_s": len(loop.walls) / walls.sum(),
            "job_p50_ms": 1e3 * float(np.percentile(walls, 50)),
            "job_p90_ms": 1e3 * float(np.percentile(walls, 90)),
            "cpu_s_per_job": sum(loop.cpus) / attempted,
            "peak_rss_mb": final.get("peak_rss_kb", float("nan")) / 1024.0,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    result = {
        "correct": aborted is None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")), "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cycles": cycle if aborted is None else None,
        "job_seconds": float(walls.sum()),
        "failed_frac": failed / attempted,
        "inexact_sup": loop.inexact_sup,
        "aborted": aborted,
        "setup_samples_s": setup_samples,
        "inputs": loop.inputs(),
        "job_ms_by_kind": loop.latency_by_kind(),
        "failures": loop.failures,
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relbelief" / "cli.py").is_file():
        sys.exit(f"no relbelief source tree under {ROOT}; run from a checkout of the repository")
    if not compileall.compile_dir(ROOT / "src", quiet=1):
        sys.exit("byte-compiling src/ failed")
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in detail["failures"][:5]:
        print(f"failed: {json.dumps(failure)[:2000]}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
