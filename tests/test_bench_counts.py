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

``bench_outputs.json`` pins what every one of those jobs leaves behind: one
sha256 per job of its exit code and of its output files, names and bytes in
sorted order, ``run_manifest.json`` included.  It is keyed by workload, seed,
job index and mix key, so a refactor that moves an exact value in its last
digit, or a Monte Carlo estimate within its standard error, fails tier-1.  The
digests hold only under the numpy, scipy and orjson versions that CI pins
(the manifest records the first two, and the values depend on all three).  A
job whose output moves by design is listed in ``MOVED_OUTPUTS`` with its old
digest, its new digest and the reason; that file is never re-recorded
wholesale either.
"""

import collections
import hashlib
import json
import multiprocessing
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
COUNTS = Path(__file__).with_name("bench_counts.json")
OUTPUTS = Path(__file__).with_name("bench_outputs.json")
SEEDS = (1, 9001)
WORKLOADS = ("post_data", "exact_bias", "mc_bias")

_FIG3 = "reproduce fig3 takes its 201 values from one favor_sup array call, not 201 bias_in_favor_h calls"
_POINT = ("a location-normal point region probability reads its favor window directly, not through "
          "favor_prob_locnormal; only reproduce fig1 still calls it")
_CELL = ("a hypothesis pair on a grid cell builds its favor region once, and a location-normal cell window "
         "takes one interval probability for the ulps around its Newton solution (a few more where none of "
         "them is the crossing) instead of 64 halvings")
_PRIOR = ("a hypothesis pair on a grid cell takes its cell's prior content once, not in the interest() of "
          "both biases and again in its favor region: 113 -> 65 calls at seed 1 and 114 -> 66 at seed 9001")
_BB_EXACT = ("a beta-binomial estimation under exact has exact averages by breakpoint pieces, so it draws "
             "nothing, and its supremum is the largest limit at a piece end instead of a 201-point grid search "
             "refined by minimize_scalar, which evaluated the failure probability's count table at every point")
_BB_SUP = ("a beta-binomial estimation under mc takes its supremum at the piece ends, not from a 201-point grid "
           "search (its averages are drawn as before)")
# "workload/seed" -> {metric: (old, new, reason)}, the same at both seeds unless
# a value names its seed; a new value of None: the count is no longer reported
MOVED = {
    f"{workload}/{seed}": moves
    for seed in SEEDS
    for workload, moves in (
        ("exact_bias", {
            "bias.bias_in_favor_h.calls": (251, 50, _FIG3),
            "bias.components": (361, 160, _FIG3),
            "bias.exact_frac": (0.9944598337950139, 1.0, f"{_FIG3} (0.9875); then {_BB_EXACT}"),
            "bias.favor_prob_locnormal.calls": (416, 1, _POINT),
            "models.interval_prob.calls": (1168, {1: 65, 9001: 66}[seed], f"{_CELL}; then {_PRIOR}"),
            "bias.inexact_sup": (1, 0, _BB_EXACT),
            "bias.substituted": (2, 0, _BB_EXACT),
            "cli.bytes_written": ({1: 28819, 9001: 28812}[seed], {1: 28800, 9001: 28793}[seed],
                                  f"{_BB_EXACT}: each standard error in bias_estimation.csv is 0"),
            "models.draws": (30000, 0, _BB_EXACT),
            "models.log_sampling_pmf.calls": ({1: 50, 9001: 51}[seed], 32, _BB_EXACT),
            "models.sample.calls": (3, None, _BB_EXACT),
            "rng.substream.calls": (2, 0, _BB_EXACT),
        }),
        ("mc_bias", {
            "bias.favor_prob_locnormal.calls": (14, 0, _POINT),
            "bias.inexact_sup": (1, 0, _BB_SUP),
            "models.log_sampling_pmf.calls": (19, 1, _BB_SUP),
        }),
    )
}
# "workload/seed" -> {"job index mix key": (old digest, new digest, reason)}
MOVED_OUTPUTS = {
    "exact_bias/1": {"055 bias-estimation/beta_binomial/exact": (
        "7c66f4cbed518bef05d3e647d1a5a3b973b51527d7d3596049a30621a6740178",
        "783662b24a0db1182ae9a48f5e4bd6ce602f1008d1a40dfd9480cabb13035104", _BB_EXACT)},
    "exact_bias/9001": {"055 bias-estimation/beta_binomial/exact": (
        "c350cd3b5becc63b7d3244995ba6727a842de0c42f40de95427e2511eea057c5",
        "c51774be3b465ea7ce5895d299fca4dae4a191f1db909cabf3dec94980ec0224", _BB_EXACT)},
    "mc_bias/1": {"011 bias-estimation/beta_binomial/mc": (
        "c2c66ffe5d98087f663dd6ccd9738393f4854a79784f1069a6d7428f7fc9df2a",
        "1807fd8ab7a89680e102b4323fc2c0b4567b8e743aaec410d81eb66bc8a3b8cc", _BB_SUP)},
    "mc_bias/9001": {"011 bias-estimation/beta_binomial/mc": (
        "c764465b3de5307587b2a1e649784a154ebb237dc0196a7e7f2a1bda20b6d161",
        "f9c0c36dd505bc5656f77fb2db5498e53c68155d8fc8be42624256ede01c140b", _BB_SUP)},
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


def _digest(code: int, result: Path) -> str:
    """sha256 of an exit code and of the files in ``result``: each name,
    size and bytes, in sorted order."""
    digest = hashlib.sha256(b"exit %d\n" % code)
    for path in sorted(result.iterdir()) if result.exists() else ():
        data = path.read_bytes()
        digest.update(b"%s %d\n" % (path.name.encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def collect(seed: int) -> tuple:
    """({"workload/seed": {metric: count}}, [(mix key, problems)],
    {"workload/seed": {"job index mix key": digest}}) of cycle 0 of every
    workload at ``seed``, run through ``cli.main`` with the layer tracer
    installed: only in a process of its own, as the tracer cannot be
    uninstalled.  The list names every job that exited nonzero or failed its
    own benchmark check."""
    checks, tracer_module, workloads = _perfbench()
    from relbelief import cli

    tracer = tracer_module.Tracer()
    tracer.install()  # replaces cli.main: read it from the module
    out, failures, digests = {}, [], {}
    with tempfile.TemporaryDirectory() as tmp:
        config, result = Path(tmp) / "config.json", Path(tmp) / "out"
        for name in WORKLOADS:
            tracer.spans.clear()  # in place: the installed wrappers hold these two
            tracer.counts.clear()
            written = inexact = failed = 0
            jobs = digests[f"{name}/{seed}"] = {}
            for index, job in enumerate(workloads.Workload(name, seed).cycle(0)):
                if job.config is not None:
                    config.write_text(job.config_text(), encoding="utf-8")
                shutil.rmtree(result, ignore_errors=True)
                outcome = checks.Outcome()
                code = cli.main(job.argv(config, result))
                jobs[f"{index:03d} {job.mix_key()}"] = _digest(code, result)
                if code == 0:
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
    return out, failures, digests


@pytest.fixture(scope="module")
def collected() -> tuple:
    """``collect`` at every seed, merged.  One forked process per seed, each
    with the modules this one has already imported, runs it and is discarded
    with its tracer.  Forking is safe only from a process that runs one
    thread; a fresh interpreter per seed would import scipy and the
    benchmark again."""
    assert threading.active_count() == 1
    _perfbench()
    with multiprocessing.get_context("fork").Pool(len(SEEDS), maxtasksperchild=1) as pool:
        parts = pool.map(collect, SEEDS)
    counts, failures, digests = {}, [], {}
    for part_counts, part_failures, part_digests in parts:
        counts.update(part_counts)
        failures += part_failures
        digests.update(part_digests)
    return counts, failures, digests


def _pinned(path: Path, moved: dict) -> dict:
    """The pinned file at ``path``, with the moves in ``moved`` applied once
    each is checked to start from the pinned value (a new value of None
    removes the entry)."""
    pinned = json.loads(path.read_text(encoding="utf-8"))
    for key, moves in moved.items():
        for name, (old, new, _) in moves.items():
            assert pinned[key][name] == old, (key, name)
            pinned[key][name] = new
            if new is None:
                del pinned[key][name]
    return pinned


def test_the_benchmark_counts_are_pinned(collected):
    counts, failures, _ = collected
    assert failures == []
    pinned = _pinned(COUNTS, MOVED)
    assert sorted(counts) == sorted(pinned)
    for key, want in pinned.items():
        assert counts[key] == want, key


def test_every_benchmark_output_is_pinned(collected):
    _, _, digests = collected
    pinned = _pinned(OUTPUTS, MOVED_OUTPUTS)
    assert {key: sorted(jobs) for key, jobs in digests.items()} == {key: sorted(jobs) for key, jobs in pinned.items()}
    moved = [f"{key} {job}" for key, jobs in pinned.items() for job, want in jobs.items() if digests[key][job] != want]
    assert moved == []


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    result = {}
    for arg in sys.argv[1:]:
        result.update(collect(int(arg))[0])
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
