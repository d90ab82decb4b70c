"""Golden output files of the command line.

``golden_cli.json`` holds, for each config below, the exit code and the text
of every file the command writes, recorded before the command line was
reduced to one parse layer over the library.  Every bundle kind appears under
``analyze``, ``assess``, ``bias`` (both modes) and ``check``, with exact and
Monte Carlo methods, plus ``design`` with and without an admissible size.
The library versions in ``run_manifest.json`` depend on the installation and
are compared with the installed ones instead.

Four cases moved by design after they were recorded, each checked for
moving only as intended (``ROUNDED``, ``DRAWN``, ``EXACT``): beta interval
probabilities choose their survival branch by the CDF at the lower edge,
which moves a few JSON floats by rounding; under ``mc`` the finite average
bias in favor is drawn from the prior instead of summed exactly; and an
``exact`` beta-binomial estimation is exact by breakpoint pieces instead of
drawn, with its supremum at a piece end instead of on a grid, checked
against ``oracle.BetaBinomialOracle``.

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

from oracle import BetaBinomialOracle
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


# case -> (file, JSON floats that may move within 1e-12 relative)
ROUNDED = {
    "analyze/beta_binomial": ("estimate.json", {"pl_prior_content"}),
    "assess/beta_binomial": ("assess.json", {"rb0", "strength", "markov_lower", "markov_upper"}),
}
# case -> file whose average bias in favor is now drawn
DRAWN = {"bias/estimation/finite/mc": "bias_estimation.csv"}
# case -> (file, bundle, delta) of an estimation that is now exact
EXACT = {"bias/estimation/beta_binomial/exact": ("bias_estimation.csv", BETABINOMIAL, 0.15)}


def _pop(result, filename):
    """``result`` without ``filename``, and that file's text."""
    files = dict(result["files"])
    return {**result, "files": files}, files.pop(filename)


def _csv_row(text):
    header, row = text.splitlines()
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(golden, name, tmp_path):
    got, want = _run(name, tmp_path), golden[name]
    if name in ROUNDED:
        filename, floats = ROUNDED[name]
        (got, g), (want, w) = _pop(got, filename), _pop(want, filename)
        g, w = json.loads(g), json.loads(w)
        assert {k: v for k, v in g.items() if k not in floats} == {k: v for k, v in w.items() if k not in floats}
        for key in floats:
            assert g[key] == pytest.approx(w[key], rel=1e-12, abs=0.0)
    if name in DRAWN:
        (got, g), (want, w) = _pop(got, DRAWN[name]), _pop(want, DRAWN[name])
        g, w = _csv_row(g), _csv_row(w)
        drawn = ("avg_bias_in_favor", "se_avg_in_favor")
        assert {k: v for k, v in g.items() if k not in drawn} == {k: v for k, v in w.items() if k not in drawn}
        se = float(g["se_avg_in_favor"])
        assert float(w["se_avg_in_favor"]) == 0.0 and se > 0.0
        assert abs(float(g["avg_bias_in_favor"]) - float(w["avg_bias_in_favor"])) <= 3.0 * se
    if name in EXACT:
        filename, bundle, delta = EXACT[name]
        (got, g), (want, w) = _pop(got, filename), _pop(want, filename)
        g, w = _csv_row(g), _csv_row(w)
        oracle = BetaBinomialOracle(bundle["n"], bundle["alpha"], bundle["beta"])
        exact = {  # value column -> (its standard error's column, the oracle's value)
            "avg_bias_against": ("se_avg_against", oracle.avg_bias_against()),
            "sup_bias_against": ("se_sup_against", oracle.sup_bias_against()),
            "avg_bias_in_favor": ("se_avg_in_favor", oracle.avg_bias_in_favor(delta)),
        }
        assert (g["method"], w["method"], g["delta"]) == ("Exact", "MonteCarlo", w["delta"])
        for key, (se, value) in exact.items():  # written to 10 significant digits
            assert abs(float(g[key]) - value) <= 1e-9 and float(g[se]) == 0.0
        assert float(g["implied_coverage"]) == pytest.approx(1.0 - float(g["avg_bias_against"]), abs=1e-10)
        assert abs(float(g["avg_bias_against"]) - float(w["avg_bias_against"])) <= 3.0 * float(w["se_avg_against"])
    assert got == want


if __name__ == "__main__":
    recorded = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = _run(name, Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases to {GOLDEN}", file=sys.stderr)
