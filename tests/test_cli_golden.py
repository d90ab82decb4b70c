"""Golden output files of the command line.

``golden_cli.json`` holds, for each config below, the exit code and the text
of every file the command writes, recorded before the command line was
reduced to one parse layer over the library.  Every bundle kind appears under
``analyze``, ``assess``, ``bias`` (both modes) and ``check``, with exact and
Monte Carlo methods, plus ``design`` with and without an admissible size.
The library versions in ``run_manifest.json`` depend on the installation and
are compared with the installed ones instead.

Record with ``python tests/test_cli_golden.py`` -- only from code whose
outputs are known to be right, never to make this test pass.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from relbelief import __version__
from relbelief.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
VERSIONS = {"relbelief": __version__, "numpy": np.__version__, "scipy": scipy.__version__}

LOCNORMAL = {"kind": "location_normal", "n": 10, "sigma0_sq": 1.0, "mu_star": 0.3, "tau_star_sq": 1.0}
BETABINOMIAL = {"kind": "beta_binomial", "n": 10, "alpha": 2.0, "beta": 3.0}
FINITE = {
    "kind": "finite",
    "theta_labels": ["t0", "t1", "t2", "t3"],
    "prior": [0.1, 0.3, 0.4, 0.2],
    "likelihood": [
        [0.5, 0.2, 0.1, 0.1, 0.1],
        [0.1, 0.4, 0.2, 0.2, 0.1],
        [0.2, 0.1, 0.1, 0.3, 0.3],
        [0.05, 0.05, 0.6, 0.1, 0.2],
    ],
    "x_labels": ["x0", "x1", "x2", "x3", "x4"],
    "psi_of_theta": ["a", "a", "b", "c"],
}
FAMILY = {"kind": "location_normal", "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0}
MC = {"n_sim": 2000, "seed": 20260418}

# name -> (command, config, extra arguments)
CASES = {
    "analyze/location_normal": (
        "analyze",
        {"bundle": LOCNORMAL, "data": {"xbar": 0.3}, "discretization": {"delta": 0.25, "anchor": 0.0}, "gamma": 0.5},
        (),
    ),
    "analyze/beta_binomial": (
        "analyze",
        {"bundle": BETABINOMIAL, "data": {"sample": [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]},
         "discretization": {"delta": 0.05, "range": [0.01, 0.99]}},
        (),
    ),
    "analyze/finite": ("analyze", {"bundle": FINITE, "data": {"outcome": "x2"}, "gamma": 0.3}, ()),
    "assess/location_normal": (
        "assess",
        {"bundle": LOCNORMAL, "data": {"sample": [0.1, -0.4, 0.8, 0.2, 0.0, 1.1, -0.3, 0.5, 0.6, 0.2]},
         "discretization": {"delta": 0.1}, "psi0": 0.0},
        (),
    ),
    "assess/beta_binomial": (
        "assess", {"bundle": BETABINOMIAL, "data": {"successes": 4}, "discretization": {"delta": 0.05}, "psi0": 0.5}, (),
    ),
    "assess/finite": ("assess", {"bundle": FINITE, "data": {"outcome": "x0"}, "psi0": "a"}, ()),
    "bias/hypothesis/location_normal/exact": (
        "bias", {"bundle": LOCNORMAL, "psi0": 0.0, "delta": 0.5, "method": "exact"}, (),
    ),
    "bias/hypothesis/beta_binomial/mc": (
        "bias",
        {"bundle": BETABINOMIAL, "psi0": 0.4, "delta": 0.15, "discretization": {"delta": 0.05}, "method": "mc",
         "mc": MC},
        (),
    ),
    "bias/hypothesis/finite/mc": (
        "bias", {"bundle": FINITE, "psi0": "a", "delta": 1.0, "method": "mc", "mc": MC}, ("--sims", "1500", "--seed", "11"),
    ),
    "bias/estimation/location_normal/auto": (
        "bias", {"bundle": LOCNORMAL, "delta": 0.5, "mode": "estimation", "mc": MC}, (),
    ),
    "bias/estimation/beta_binomial/exact": (
        "bias", {"bundle": BETABINOMIAL, "delta": 0.15, "mode": "estimation", "method": "exact", "mc": MC}, (),
    ),
    "bias/estimation/finite/mc": (
        "bias", {"bundle": FINITE, "delta": 1.0, "mode": "estimation", "method": "mc", "mc": MC}, (),
    ),
    "design/location_normal/mc": (
        "design",
        {"bundle": FAMILY, "psi0": 0.0, "delta": 0.5, "targets": {"max_bias_in_favor": 0.3},
         "n_grid": [5, 10, 20, 40], "method": "mc", "mc": MC},
        (),
    ),
    "design/beta_binomial/none_admissible": (
        "design",
        {"bundle": {"kind": "beta_binomial", "alpha": 2.0, "beta": 3.0}, "psi0": 0.4, "delta": 0.15,
         "targets": {"max_bias_against": 0.2, "max_bias_in_favor": 0.01}, "n_grid": [5, 10]},
        (),
    ),
    "check/location_normal/mc": (
        "check", {"bundle": LOCNORMAL, "data": {"xbar": 2.1}, "method": "mc", "mc": MC}, (),
    ),
    "check/beta_binomial/exact": (
        "check", {"bundle": BETABINOMIAL, "data": {"successes": 9}, "method": "exact", "threshold": 0.1}, (),
    ),
    "check/finite/auto": ("check", {"bundle": FINITE, "data": {"outcome": "x4"}}, ("--threshold", "0.2")),
}


def _run(name, root: Path):
    command, config, extra = CASES[name]
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    out = root / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name == "run_manifest.json":
            manifest = json.loads(text)
            assert manifest.pop("versions") == VERSIONS
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        files[path.name] = text
    return {"exit": code, "files": files}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(golden, name, tmp_path):
    assert _run(name, tmp_path) == golden[name]


if __name__ == "__main__":
    recorded = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = _run(name, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
