"""One cycle of every benchmark workload, run in this process through the
public CLI, with each job's output checked by that job's own benchmark
check: a program change that fails the benchmark's output checks fails here
first.  The benchmark's modules are imported from ``perfbench/`` without
writing anything there."""

import shutil
import sys
from pathlib import Path

import pytest

from relbelief.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.append(str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import checks
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return checks, workloads


@pytest.mark.parametrize("seed", [1, 9001])
@pytest.mark.parametrize("workload", ["post_data", "exact_bias", "mc_bias"])
def test_one_cycle_passes_the_benchmark_checks(tmp_path, perfbench, workload, seed):
    checks, workloads = perfbench
    config, out = tmp_path / "config.json", tmp_path / "out"
    for job in workloads.Workload(workload, seed).cycle(0):
        if job.config is not None:
            config.write_text(job.config_text(), encoding="utf-8")
        shutil.rmtree(out, ignore_errors=True)
        assert main(job.argv(config, out)) == 0, job.mix_key()
        outcome = checks.Outcome()
        job.check(out, outcome)
        assert not outcome.problems, (job.mix_key(), job.config, outcome.problems)
