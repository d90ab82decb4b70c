"""The benchmark's counts, pinned.

Every count the benchmark's layer tracer reports (calls, draws, cells,
components, substitutions; every metric but the times), and the bytes, inexact
suprema and failed jobs its loop counts, depend only on the seed and the
program.  ``bench_counts.json``
pins them for cycle 0 of each workload at two seeds, so a change that makes
an ``exact`` request draw, or that solves a favor window once more per job,
fails tier-1 and not only a traced benchmark run read by hand.
Each job's output is checked by that job's own benchmark check, and the
test names every job that fails one before it compares a single count.

The counts come from one forked subprocess per seed: ``perfbench/tracer.py``
patches the package on install and has no undo.  The benchmark's modules
are imported read-only (no bytecode is written under ``perfbench/``).

The file holds the counts of the code before the moves in ``MOVED``: a count
that moves by design is listed there with its old value, its new value and
the reason, as the golden cases are.  The file is never
re-recorded wholesale.  ``python tests/test_bench_counts.py SEED`` prints
the counts of one seed as JSON.
"""

import collections
import json
import multiprocessing
import shutil
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
COUNTS = Path(__file__).with_name("bench_counts.json")
SEEDS = (1, 9001)
WORKLOADS = ("post_data", "exact_bias", "mc_bias")

_FIG3 = "reproduce fig3 takes its 201 values from one favor_sup array call, not 201 bias_in_favor_h calls"
_POINT = ("a location-normal point region probability reads its favor window directly, not through "
          "favor_prob_locnormal; only reproduce fig1 still calls it")
_CELL = ("a hypothesis pair on a grid cell builds its favor region once, and a location-normal cell window "
         "takes one interval probability for the ulps around its Newton solution (a few more where none of "
         "them is the crossing) instead of 64 halvings")
# "workload/seed" -> {metric: (old, new, reason)}, the same at both seeds unless
# a value names its seed
MOVED = {
    f"{workload}/{seed}": moves
    for seed in SEEDS
    for workload, moves in (
        ("exact_bias", {
            "bias.bias_in_favor_h.calls": (251, 50, _FIG3),
            "bias.components": (361, 160, _FIG3),
            "bias.exact_frac": (0.9944598337950139, 0.9875, _FIG3),
            "bias.favor_prob_locnormal.calls": (416, 1, _POINT),
            "models.interval_prob.calls": (1168, {1: 113, 9001: 114}[seed], _CELL),
        }),
        ("mc_bias", {"bias.favor_prob_locnormal.calls": (14, 0, _POINT)}),
    )
}


def _perfbench():
    """The benchmark's ``checks``, ``tracer`` and ``workloads`` modules,
    imported without writing bytecode under ``perfbench/``."""
    sys.path.append(str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import tracer
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return checks, tracer, workloads


def collect(seed: int) -> tuple:
    """({"workload/seed": {metric: count}}, [(mix key, problems)]) of cycle 0
    of every workload at ``seed``, run through ``cli.main`` with the layer
    tracer installed: only in a process of its own, as the tracer cannot be
    uninstalled.  The list names every job that exited nonzero or failed its
    own benchmark check."""
    checks, tracer_module, workloads = _perfbench()
    from relbelief import cli

    tracer = tracer_module.Tracer()
    tracer.install()  # replaces cli.main: read it from the module
    out, failures = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        config, result = Path(tmp) / "config.json", Path(tmp) / "out"
        for name in WORKLOADS:
            tracer.spans.clear()  # in place: the installed wrappers hold these two
            tracer.counts.clear()
            written = inexact = failed = 0
            for job in workloads.Workload(name, seed).cycle(0):
                if job.config is not None:
                    config.write_text(job.config_text(), encoding="utf-8")
                shutil.rmtree(result, ignore_errors=True)
                outcome = checks.Outcome()
                if cli.main(job.argv(config, result)) == 0:
                    job.check(result, outcome)
                else:
                    outcome.fail("nonzero exit")
                if outcome.problems:
                    failed += 1
                    failures.append((job.mix_key(), outcome.problems))
                written += sum(f.stat().st_size for f in result.iterdir()) if result.exists() else 0
                inexact += outcome.inexact_sup
            counts = {k: v for k, v in tracer_module.layer_metrics(tracer.spans, tracer.counts).items()
                      if not k.endswith("_s")}
            counts["cli.bytes_written"] = written
            counts["bias.inexact_sup"] = inexact
            counts["jobs.failed"] = failed  # exit code or output check, as the benchmark counts them
            for span, calls in collections.Counter(s[2] for s in tracer.spans).items():
                counts.setdefault(f"{span}.calls", calls)
            out[f"{name}/{seed}"] = dict(sorted(counts.items()))
    return out, failures


def test_the_benchmark_counts_are_pinned():
    """One forked process per seed, each with the modules this one has
    already imported, runs ``collect`` and is discarded with its tracer.
    Forking is safe only from a process that runs one thread; a fresh
    interpreter per seed would import scipy and the benchmark again."""
    assert threading.active_count() == 1
    _perfbench()
    with multiprocessing.get_context("fork").Pool(len(SEEDS), maxtasksperchild=1) as pool:
        parts = pool.map(collect, SEEDS)
    assert [failure for _, failures in parts for failure in failures] == []
    got = {key: counts for part, _ in parts for key, counts in part.items()}
    pinned = json.loads(COUNTS.read_text(encoding="utf-8"))
    assert sorted(got) == sorted(pinned)
    for key, counts in pinned.items():
        want = dict(counts)
        for metric, (old, new, _) in MOVED.get(key, {}).items():
            assert want[metric] == old, (key, metric)
            want[metric] = new
        assert got[key] == want, key


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    result = {}
    for arg in sys.argv[1:]:
        result.update(collect(int(arg))[0])
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
