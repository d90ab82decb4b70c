"""Command line front end: configs, outputs, exit codes, determinism."""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import cli
from relbelief.bias import McConfig
from relbelief.cli import main


def run(tmp_path, config, command, extra=()):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


LOCNORMAL_20 = {
    "kind": "location_normal",
    "n": 20,
    "sigma0_sq": 1.0,
    "mu_star": 1.0,
    "tau_star_sq": 1.0,
}

PROSECUTOR = {
    "kind": "finite",
    "theta_labels": ["guilty", "not_guilty"],
    "prior": [0.001, 0.999],
    "likelihood": [[1.0, 0.0], [9 / 999, 990 / 999]],
    "x_labels": ["trait", "no_trait"],
}


def test_analyze_writes_profile_and_estimate(tmp_path):
    config = {
        "bundle": LOCNORMAL_20,
        "data": {"xbar": 0.3},
        "discretization": {"delta": 0.05, "anchor": 0.0},
        "gamma": 0.8,
    }
    code, out = run(tmp_path, config, "analyze")
    assert code == 0
    rows = read_csv(out / "profile.csv")
    assert set(rows[0]) == {"cell_lo", "cell_hi", "prior", "posterior", "rb"}
    report = json.loads((out / "estimate.json").read_text())
    assert report["plausible_values"]
    assert report["pl_posterior_content"] > 0.5
    assert report["credible"]["gamma"] == 0.8
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert "relbelief" in manifest["versions"]


def test_analyze_finite_prosecutor(tmp_path):
    config = {"bundle": PROSECUTOR, "data": {"outcome": "trait"}}
    code, out = run(tmp_path, config, "analyze")
    assert code == 0
    report = json.loads((out / "estimate.json").read_text())
    assert report["psi_hat"] == "guilty"
    assert report["pl_posterior_content"] == pytest.approx(0.1, abs=1e-12)
    rows = read_csv(out / "profile.csv")
    assert rows[0]["label"] == "guilty"
    assert float(rows[0]["rb"]) == pytest.approx(100.0, abs=1e-9)


def test_analyze_missing_delta_is_config_error(tmp_path):
    config = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}, "discretization": {}}
    code, _ = run(tmp_path, config, "analyze")
    assert code == 2


def test_analyze_unknown_key_is_config_error(tmp_path):
    config = {
        "bundle": LOCNORMAL_20,
        "data": {"xbar": 0.3},
        "discretization": {"delta": 0.1},
        "extra": 1,
    }
    code, _ = run(tmp_path, config, "analyze")
    assert code == 2


def test_analyze_excessive_gamma_is_domain_error(tmp_path):
    config = {
        "bundle": LOCNORMAL_20,
        "data": {"xbar": 0.3},
        "discretization": {"delta": 0.05},
        "gamma": 0.9999,
    }
    code, _ = run(tmp_path, config, "analyze")
    assert code == 3


def test_assess_surfaces_rb_and_strength_divergence(tmp_path):
    # diffuse prior: large ratio in favor alongside a small strength
    config = {
        "bundle": {
            "kind": "location_normal",
            "n": 100,
            "sigma0_sq": 1.0,
            "mu_star": 0.0,
            "tau_star_sq": 1e4,
        },
        "data": {"xbar": 0.25},
        "discretization": {"delta": 0.01},
        "psi0": 0.0,
    }
    code, out = run(tmp_path, config, "assess")
    assert code == 0
    report = json.loads((out / "assess.json").read_text())
    assert report["rb0"] > 1.0
    assert report["strength"] < 0.05
    assert report["verdict"] == "favor"


def test_assess_psi0_outside_grid_is_domain_error(tmp_path):
    config = {
        "bundle": LOCNORMAL_20,
        "data": {"xbar": 0.3},
        "discretization": {"delta": 0.05, "range": [-2.0, 2.0]},
        "psi0": 10.0,
    }
    code, _ = run(tmp_path, config, "assess")
    assert code == 3


@pytest.mark.parametrize(
    "sigma0_sq, tau_star_sq, code",
    [(1e300, 1e-300, 3), (1e-300, 1e300, 3), (1e77, 1e-77, 0)],
    ids=["ratio_underflows", "ratio_overflows", "just_inside"],
)
def test_bias_on_a_degenerate_precision_ratio_is_a_domain_error(tmp_path, capsys, sigma0_sq, tau_star_sq, code):
    bundle = {"kind": "location_normal", "n": 1, "sigma0_sq": sigma0_sq, "mu_star": 0.0, "tau_star_sq": tau_star_sq}
    assert run(tmp_path, {"bundle": bundle, "psi0": 0.0, "delta": 1e-38}, "bias")[0] == code
    if code:
        assert "domain error: the precision ratio" in capsys.readouterr().err


def test_assess_finite_matches_enumeration(tmp_path):
    config = {"bundle": PROSECUTOR, "data": {"outcome": "trait"}, "psi0": "guilty"}
    code, out = run(tmp_path, config, "assess")
    assert code == 0
    report = json.loads((out / "assess.json").read_text())
    assert report["rb0"] == pytest.approx(100.0, abs=1e-9)
    assert report["markov_lower"] == pytest.approx(0.1, abs=1e-12)


def test_bias_command_reproduces_reference_row(tmp_path):
    config = {
        "bundle": {
            "kind": "location_normal",
            "n": 5,
            "sigma0_sq": 1.0,
            "mu_star": 1.0,
            "tau_star_sq": 1.0,
        },
        "psi0": 0.0,
        "delta": 0.5,
    }
    code, out = run(tmp_path, config, "bias")
    assert code == 0
    row = read_csv(out / "bias.csv")[0]
    assert float(row["bias_against"]) == pytest.approx(0.095, abs=0.002)
    assert float(row["bias_in_favor"]) == pytest.approx(0.871, abs=0.002)
    assert row["method"] == "Exact"


def test_bias_estimation_mode(tmp_path):
    config = {
        "bundle": {
            "kind": "location_normal",
            "n": 20,
            "sigma0_sq": 1.0,
            "mu_star": 0.0,
            "tau_star_sq": 1.0,
        },
        "delta": 0.5,
        "mode": "estimation",
    }
    code, out = run(tmp_path, config, "bias")
    assert code == 0
    row = read_csv(out / "bias_estimation.csv")[0]
    assert float(row["avg_bias_against"]) == pytest.approx(0.051, abs=0.003)
    assert float(row["implied_coverage"]) == pytest.approx(0.949, abs=0.003)
    assert float(row["avg_bias_in_favor"]) == pytest.approx(0.486, abs=0.003)


def test_bias_on_a_location_normal_grid_is_exact_and_refuses_only_a_named_value(tmp_path, capsys):
    bundle = {"kind": "location_normal", "n": 20, "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0}
    grid = {"delta": 0.1}
    config = {"bundle": bundle, "delta": 0.5, "mode": "estimation", "discretization": grid}
    code, out = run(tmp_path, config, "bias")
    assert code == 0
    row = read_csv(out / "bias_estimation.csv")[0]
    assert row["method"] == "Exact"
    assert float(row["sup_bias_against"]) == pytest.approx(0.0671559, abs=1e-7)
    assert float(row["avg_bias_in_favor"]) == pytest.approx(0.5039308, abs=1e-7)
    # a hypothesized value 9 prior sds out: its cell holds about 2e-19
    for method in ("exact", "mc"):
        config = {"bundle": bundle, "psi0": 9.0, "delta": 0.5, "method": method, "discretization": grid}
        assert run(tmp_path, config, "bias")[0] == 3
    floor = "domain error: a cell anchored at the hypothesized value has prior content below 1e-12"
    assert capsys.readouterr().err.splitlines() == [floor] * 2


@pytest.mark.parametrize("value", ["false", 0, None])
def test_boundary_only_must_be_a_json_boolean(tmp_path, value):
    bias = {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5, "boundary_only": value}
    code, _ = run(tmp_path, bias, "bias")
    assert code == 2
    design = {
        "bundle": {"kind": "location_normal", "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0},
        "psi0": 0.0,
        "delta": 0.5,
        "targets": {"max_bias_in_favor": 0.07},
        "n_grid": [5, 50],
        "boundary_only": value,
    }
    code, _ = run(tmp_path, design, "design")
    assert code == 2
    for boolean in (True, False):
        code, _ = run(tmp_path, dict(bias, boundary_only=boolean), "bias")
        assert code == 0
        code, _ = run(tmp_path, dict(design, boundary_only=boolean), "design")
        assert code == 0


def test_design_command(tmp_path):
    config = {
        "bundle": {
            "kind": "location_normal",
            "sigma0_sq": 1.0,
            "mu_star": 0.0,
            "tau_star_sq": 1.0,
        },
        "psi0": 0.0,
        "delta": 0.5,
        "targets": {"max_bias_in_favor": 0.07},
        "n_grid": [5, 10, 20, 50, 100],
    }
    code, out = run(tmp_path, config, "design")
    assert code == 0
    chosen = json.loads((out / "design.json").read_text())
    assert chosen["n"] == 50
    rows = read_csv(out / "design.csv")
    assert [int(r["n"]) for r in rows] == [5, 10, 20, 50]
    assert [r["admissible"] for r in rows] == ["0", "0", "0", "1"]


def test_design_without_admissible_size_exits_3_with_table(tmp_path):
    config = {
        "bundle": {
            "kind": "location_normal",
            "sigma0_sq": 1.0,
            "mu_star": 0.0,
            "tau_star_sq": 1.0,
        },
        "psi0": 0.0,
        "delta": 0.5,
        "targets": {"max_bias_in_favor": 0.001},
        "n_grid": [5, 10],
    }
    code, out = run(tmp_path, config, "design")
    assert code == 3
    assert len(read_csv(out / "design.csv")) == 2


def test_check_command(tmp_path):
    config = {
        "bundle": {
            "kind": "location_normal",
            "n": 20,
            "sigma0_sq": 1.0,
            "mu_star": 0.0,
            "tau_star_sq": 1.0,
        },
        "data": {"xbar": 0.0},
    }
    code, out = run(tmp_path, config, "check")
    assert code == 0
    row = read_csv(out / "check.csv")[0]
    assert float(row["tail_prob"]) == 1.0
    assert row["verdict"] == "no_conflict"


def test_reproduce_all_targets(tmp_path):
    for target in ("table1", "table2", "table3", "table5", "fig1", "fig3"):
        out = tmp_path / target
        code = main(["reproduce", target, "--out", str(out)])
        assert code == 0
        rows = read_csv(out / f"{target}.csv")
        assert len(rows) == (201 if target.startswith("fig") else 5)


def test_reproduce_tables_match_reference_values(tmp_path):
    reference = {
        "table1": {
            "bias_against_prior_mu1_tausq1": [0.095, 0.065, 0.044, 0.026, 0.018],
            "bias_against_prior_mu0_tausq1": [0.143, 0.104, 0.074, 0.045, 0.031],
        },
        "table2": {
            "bias_in_favor_prior_mu1_tausq1": [0.871, 0.747, 0.519, 0.125, 0.006],
            "bias_in_favor_prior_mu0_tausq1": [0.631, 0.516, 0.327, 0.062, 0.002],
        },
        "table3": {
            "avg_bias_against_tausq1": [0.107, 0.075, 0.051, 0.031, 0.021],
            "avg_bias_against_tausq0_25": [0.193, 0.146, 0.107, 0.067, 0.046],
        },
        "table5": {
            "avg_bias_in_favor_delta1_0": [0.451, 0.185, 0.025, 0.000, 0.000],
            "avg_bias_in_favor_delta0_5": [0.798, 0.690, 0.486, 0.131, 0.009],
        },
    }
    for target, columns in reference.items():
        out = tmp_path / target
        assert main(["reproduce", target, "--out", str(out)]) == 0
        rows = read_csv(out / f"{target}.csv")
        assert [int(r["n"]) for r in rows] == [5, 10, 20, 50, 100]
        tol = 0.002 if target in ("table1", "table2") else 0.003
        for column, expected in columns.items():
            got = [float(r[column]) for r in rows]
            for g, e in zip(got, expected):
                assert abs(g - e) <= tol, (target, column, g, e)


@pytest.mark.parametrize("where", ["config", "flag"])
def test_one_replication_is_a_config_error(tmp_path, capsys, where):
    # one draw has no standard error (the sample variance would be NaN)
    config = {"bundle": PROSECUTOR, "delta": 1.0, "mode": "estimation", "method": "mc"}
    extra = ("--sims", "1")
    if where == "config":
        config["mc"], extra = {"n_sim": 1}, ()
    code, out = run(tmp_path, config, "bias", extra)
    assert code == 2
    assert "n_sim" in capsys.readouterr().err
    assert not (out / "bias_estimation.csv").exists()


def test_reproduce_fig1_peaks_near_the_hypothesis(tmp_path):
    out = tmp_path / "fig"
    assert main(["reproduce", "fig1", "--out", str(out)]) == 0
    rows = read_csv(out / "fig1.csv")
    assert len(rows) == 201
    mus = [float(r["mu"]) for r in rows]
    assert mus[0] == -3.0 and mus[-1] == 5.0
    probs = [float(r["prob_evidence_in_favor_of_0"]) for r in rows]
    peak_mu = mus[probs.index(max(probs))]
    assert abs(peak_mu) <= 0.1
    # unimodal shape: rises to the peak, falls after it
    k = probs.index(max(probs))
    assert all(b >= a for a, b in zip(probs[:k], probs[1 : k + 1]))
    assert all(b <= a for a, b in zip(probs[k:], probs[k + 1 :]))


def test_reproduce_unknown_target_is_config_error(tmp_path):
    assert main(["reproduce", "table9", "--out", str(tmp_path)]) == 2


def test_reproduce_is_byte_identical_across_thread_counts(tmp_path):
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    assert main(["reproduce", "table1", "--seed", "7", "--threads", "1", "--out", str(out1)]) == 0
    assert main(["reproduce", "table1", "--seed", "7", "--threads", "8", "--out", str(out8)]) == 0
    assert (out1 / "table1.csv").read_bytes() == (out8 / "table1.csv").read_bytes()
    assert (out1 / "run_manifest.json").read_bytes() == (out8 / "run_manifest.json").read_bytes()


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 2


def test_malformed_json_is_config_error(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_integer_beyond_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # json.loads raises ValueError, not JSONDecodeError, for a 5,001-digit n
    text = json.dumps({"bundle": dict(LOCNORMAL_20, n=0), "psi0": 0.0, "delta": 0.5})
    cfg = tmp_path / "config.json"
    cfg.write_text(text.replace('"n": 0', '"n": 1' + "0" * 5000))
    out = tmp_path / "out"
    assert main(["bias", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "bias.csv").exists() and not (out / "run_manifest.json").exists()


def test_wrong_value_types_are_config_errors(tmp_path):
    bad_bundle = dict(LOCNORMAL_20, n="twenty")
    config = {"bundle": bad_bundle, "data": {"xbar": 0.3}, "discretization": {"delta": 0.05}}
    code, _ = run(tmp_path, config, "analyze")
    assert code == 2

    config = {
        "bundle": LOCNORMAL_20,
        "data": {"xbar": 0.3},
        "discretization": {"delta": 0.05},
        "psi0": "zero",
    }
    code, _ = run(tmp_path, config, "assess")
    assert code == 2


_ANALYZE = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}, "discretization": {"delta": 0.05}}


@pytest.mark.parametrize(
    "command, config, named",
    [("analyze", {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}}, "'discretization' section is required"),
     ("bias", {"bundle": LOCNORMAL_20, "delta": 0.5}, "hypothesis bias requires 'psi0'"),
     ("analyze", [_ANALYZE], "config root must be a JSON object"),
     ("analyze", dict(_ANALYZE, data={"xbar": 0.3, "sample": [0.3]}), "'data' must carry exactly one entry"),
     ("analyze", dict(_ANALYZE, bundle=dict(LOCNORMAL_20, mu_star=10**400)),
      "bundle.mu_star must be a finite real number, got an integer of 1329 bits"),
     ("analyze", dict(_ANALYZE, discretization={"delta": -0.05}), "delta must lie in (0.0, inf), got -0.05")],
    ids=["no-discretization", "no-psi0", "array-root", "xbar-and-sample", "401-digit-mu_star", "negative-delta"],
)
def test_config_refusals_exit_2_and_name_their_cause(tmp_path, capsys, command, config, named):
    code, out = run(tmp_path, config, command)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


REPRODUCE_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "reproduce_digests.json").read_text()
)


@pytest.mark.parametrize("target", sorted(REPRODUCE_DIGESTS))
def test_reproduce_csv_matches_recorded_digest(tmp_path, target):
    assert main(["reproduce", target, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{target}.csv").read_bytes()).hexdigest()
    assert digest == REPRODUCE_DIGESTS[target]


@pytest.mark.parametrize(
    "extra, named",
    [(("--seed", "-5"), "seed"), (("--seed", str(2**64)), "seed"), (("--sims", "1"), "n_sim")],
    ids=["seed-5", "seed2**64", "sims1"],
)
def test_reproduce_checks_its_monte_carlo_flags(tmp_path, capsys, extra, named):
    # reproduce parses --seed and --sims as every other subcommand does
    assert main(["reproduce", "table1", "--out", str(tmp_path), *extra]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "table1.csv").exists()
    assert not (tmp_path / "run_manifest.json").exists()


def test_reproduce_manifest_records_the_monte_carlo_settings(tmp_path):
    for name, extra, recorded in [("flags", ("--seed", "7"), (7, McConfig.n_sim)),
                                  ("defaults", (), (McConfig.seed, McConfig.n_sim))]:
        out = tmp_path / name
        assert main(["reproduce", "table1", "--out", str(out), *extra]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "reproduce"
        assert manifest["config_digest"] == hashlib.sha256(b"table1").hexdigest()
        assert (manifest["seed"], manifest["n_sim"]) == recorded
        digest = hashlib.sha256((out / "table1.csv").read_bytes()).hexdigest()
        assert digest == REPRODUCE_DIGESTS["table1"]


POST_DATA = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}, "discretization": {"delta": 0.05}}
CHECK = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}}


@pytest.mark.parametrize(
    "command, config, extra, named",
    [("analyze", POST_DATA, ("--seed", "5"), "--seed"),
     ("analyze", POST_DATA, ("--sims", "50"), "--sims"),
     ("assess", dict(POST_DATA, psi0=0.0), ("--seed", "5", "--sims", "50"), "--seed and --sims"),
     ("check", CHECK, ("--seed", "5"), "--seed"),
     ("check", dict(CHECK, method="exact", mc={"n_sim": 5}), (), "'mc'"),
     ("check", dict(CHECK, method="auto"), ("--sims", "7"), "--sims")],
    ids=["analyze-seed", "analyze-sims", "assess-both", "check-default-seed", "check-exact-mc", "check-auto-sims"],
)
def test_monte_carlo_settings_are_refused_where_nothing_draws(tmp_path, capsys, command, config, extra, named):
    # they used to reach only run_manifest.json
    code, out = run(tmp_path, config, command, extra)
    assert code == 2
    err = capsys.readouterr().err
    assert named in err and "draws nothing" in err
    assert not any(out.iterdir())
    assert run(tmp_path, {k: v for k, v in config.items() if k != "mc"}, command)[0] == 0


def test_monte_carlo_settings_are_taken_where_a_run_can_draw(tmp_path):
    check = dict(CHECK, method="mc", mc={"n_sim": 200})
    code, out = run(tmp_path, check, "check", ("--seed", "5", "--sims", "300"))
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["seed"], manifest["n_sim"]) == (5, 300)
    bias = {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5, "mc": {"n_sim": 200}}
    assert run(tmp_path, bias, "bias", ("--seed", "5"))[0] == 0


# -- config fuzzing: every field of every command, each wrong JSON type --------

LOCNORMAL_4 = {"kind": "location_normal", "n": 4, "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0}
BETABINOMIAL_4 = {"kind": "beta_binomial", "n": 4, "alpha": 2.0, "beta": 3.0}
FINITE_2 = {
    "kind": "finite",
    "theta_labels": ["a", "b"],
    "prior": [0.5, 0.5],
    "likelihood": [[0.7, 0.3], [0.2, 0.8]],
    "x_labels": ["x0", "x1"],
    "psi_of_theta": ["a", "b"],
}
GRID = {"delta": 0.25, "range": [-3.0, 3.0], "anchor": 0.0}
MC_SMALL = {"n_sim": 200, "seed": 1}

# (command, valid config, fields as dotted paths by type); a field marked
# "?" may be null, which means absent
FUZZ = [
    ("analyze", {"bundle": LOCNORMAL_4, "data": {"xbar": 0.3}, "discretization": GRID, "gamma": 0.3},
     {"float": ["bundle.sigma0_sq", "bundle.mu_star", "bundle.tau_star_sq", "data.xbar", "discretization.delta",
                "discretization.range.0", "discretization.anchor?", "gamma?"],
      "int": ["bundle.n"],
      "other": ["bundle", "bundle.kind", "data", "discretization", "discretization.range"]}),
    ("analyze", {"bundle": LOCNORMAL_4, "data": {"sample": [0.1, 0.2, 0.3, 0.4]}, "discretization": {"delta": 0.25}},
     {"float": ["data.sample.1"], "other": ["data.sample"]}),
    ("analyze", {"bundle": BETABINOMIAL_4, "data": {"successes": 2}, "discretization": {"delta": 0.05}},
     {"float": ["bundle.alpha", "bundle.beta"], "int": ["bundle.n", "data.successes"]}),
    ("analyze", {"bundle": BETABINOMIAL_4, "data": {"sample": [0, 1, 1, 0]}, "discretization": {"delta": 0.05}},
     {"int": ["data.sample.2"], "other": ["data.sample"]}),
    ("analyze", {"bundle": FINITE_2, "data": {"outcome": "x0"}},
     {"float": ["bundle.prior.0", "bundle.likelihood.1.0"],
      "other": ["bundle.theta_labels", "bundle.theta_labels.0", "bundle.prior", "bundle.likelihood",
                "bundle.likelihood.0", "bundle.x_labels.1", "bundle.psi_of_theta", "bundle.psi_of_theta.0",
                "data.outcome"]}),
    ("assess", {"bundle": LOCNORMAL_4, "data": {"xbar": 0.3}, "discretization": {"delta": 0.25}, "psi0": 0.0},
     {"float": ["psi0"]}),
    ("assess", {"bundle": FINITE_2, "data": {"outcome": "x1"}, "psi0": "a"}, {"other": ["psi0"]}),
    ("bias", {"bundle": LOCNORMAL_4, "psi0": 0.0, "delta": 0.5, "mode": "hypothesis", "method": "exact",
              "boundary_only": True, "discretization": {"delta": 0.1}, "mc": MC_SMALL},
     {"float": ["psi0", "delta", "discretization.delta"], "int": ["mc.n_sim", "mc.seed"],
      "other": ["mode", "method", "boundary_only", "mc"]}),
    ("bias", {"bundle": FINITE_2, "delta": 1.0, "mode": "estimation"},
     {"float": ["delta"]}),
    ("design", {"bundle": {"kind": "location_normal", "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0},
                "psi0": 0.0, "delta": 0.5, "targets": {"max_bias_in_favor": 0.9}, "n_grid": [5, 10]},
     {"float": ["bundle.sigma0_sq", "psi0", "delta", "targets.max_bias_in_favor"], "int": ["n_grid.1"],
      "other": ["bundle", "bundle.kind", "targets", "n_grid"]}),
    ("check", {"bundle": BETABINOMIAL_4, "data": {"successes": 2}, "threshold": 0.1, "method": "mc", "mc": MC_SMALL},
     {"float": ["threshold", "bundle.alpha"], "int": ["data.successes", "mc.n_sim", "mc.seed"], "other": ["method"]}),
]
NOT_NUMBERS = ("0.5", "x", [1], {"a": 1}, True, None)


def _fuzz_cases():
    for i, (command, config, fields) in enumerate(FUZZ):
        for kind, paths in fields.items():
            for path in paths:
                yield pytest.param(command, config, kind, path, id=f"{i}-{command}-{path}")


def _replaced(config, path, value):
    config = json.loads(json.dumps(config))
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    return config


@pytest.mark.parametrize("command, config, kind, path", list(_fuzz_cases()))
def test_wrong_json_types_never_escape_main(tmp_path, command, config, kind, path):
    assert run(tmp_path, config, command)[0] == 0
    nullable = path.endswith("?")
    path = path.rstrip("?")
    if kind == "other":
        for value in ("x", 3, 2.5, [1], {"a": 1}, True, None):
            assert run(tmp_path, _replaced(config, path, value), command)[0] in (0, 2, 3)
        return
    wrong = NOT_NUMBERS + ((2.5,) if kind == "int" else ())
    for value in wrong:
        if value is None and nullable:
            continue
        code, _ = run(tmp_path, _replaced(config, path, value), command)
        assert code == 2, (path, value)


# (FUZZ index, path, the message when a bool stands at that path)
WRONG_VALUES = [
    (4, "bundle.likelihood.1.0", "bundle.likelihood[1][0] must be a finite real number, got True"),
    (4, "bundle.psi_of_theta.0", "'bundle.psi_of_theta[0]' must be a string or an integer, got True"),
    (3, "data.sample.2", "data.sample[2] must be a whole number, got True"),
    (4, "data.outcome", "'data.outcome' must be a string or an integer, got True"),
    (9, "n_grid.1", "n_grid[1] must be a whole number, got True"),
    (5, "psi0", "psi0 must be a finite real number, got True"),
    (6, "psi0", "'psi0' must be a string or an integer, got True"),
    (0, "discretization.delta", "discretization: delta must be a finite real number, got True"),
    (0, "discretization.range", "discretization: range must be a (lo, hi) pair"),
    (7, "mc.n_sim", "mc: n_sim must be a whole number, got True"),
]


@pytest.mark.parametrize("case, path, message", WRONG_VALUES, ids=[f"{case}-{path}" for case, path, _ in WRONG_VALUES])
def test_a_wrong_value_names_its_path(tmp_path, capsys, case, path, message):
    # a bool in place of the value at ``path`` in FUZZ[case]: a list entry is
    # named by its index, a discretization or mc value by its section
    command, config, _ = FUZZ[case]
    assert run(tmp_path, _replaced(config, path, True), command)[0] == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_wrong_value_is_shown_abridged(tmp_path, capsys):
    # a 20,000-entry object where a list or a label belongs was echoed whole
    # (269 KB of stderr)
    command, config, _ = FUZZ[4]
    big = {str(i): 0.5 for i in range(20_000)}
    for path in ("bundle.prior", "data.outcome"):
        assert run(tmp_path, _replaced(config, path, big), command)[0] == 2
        assert len(capsys.readouterr().err) < 200


@pytest.mark.parametrize(
    "grid",
    [{"delta": 0.1, "range": [-1e308, 1e308]}, {"delta": 0.1, "range": [-1e308, 1.0], "anchor": 0.0},
     {"delta": 1e-300, "range": [0.0, 1.0]}],
    ids=["overflow", "anchored-overflow", "too-many"],
)
def test_a_grid_whose_cell_count_overflows_exits_3(tmp_path, capsys, grid):
    # these raised OverflowError or numpy's ValueError, a traceback (exit 1)
    code, out = run(tmp_path, {"bundle": LOCNORMAL_4, "data": {"xbar": 0.3}, "discretization": grid}, "analyze")
    assert code == 3
    assert "cells" in capsys.readouterr().err
    assert not any(out.iterdir())


def _float_fields():
    for case in _fuzz_cases():
        command, config, kind, path = case.values
        if kind == "float":
            yield pytest.param(command, config, path.rstrip("?"), id=case.id)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, config, path", list(_float_fields()))
def test_non_finite_numbers_are_config_errors(tmp_path, command, config, path, value):
    # json.dumps writes these floats as the JSON extensions NaN, Infinity and
    # -Infinity, which json.loads reads back
    assert run(tmp_path, _replaced(config, path, float(value)), command)[0] == 2


def test_internal_error_is_not_reported_as_a_config_error(tmp_path, monkeypatch):
    import relbelief.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(cli, "hypothesis_bias", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run(tmp_path, {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5}, "bias")


# -- options that would do nothing are refused ---------------------------------

DESIGN_FAMILY = {
    "bundle": {"kind": "location_normal", "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0},
    "psi0": 0.0,
    "delta": 0.5,
    "targets": {"max_bias_in_favor": 0.9},
    "n_grid": [5, 10],
}


@pytest.mark.parametrize("command, config", [
    ("analyze", {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}, "discretization": {"delta": 0.05}}),
    ("assess", {"bundle": PROSECUTOR, "data": {"outcome": "trait"}, "psi0": "guilty"}),
    ("bias", {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5}),
    ("design", DESIGN_FAMILY),
])
def test_threshold_flag_belongs_to_check_only(tmp_path, command, config):
    assert run(tmp_path, config, command)[0] == 0
    assert run(tmp_path, config, command, ("--threshold", "0.1"))[0] == 2
    assert main(["reproduce", "table1", "--out", str(tmp_path), "--threshold", "0.1"]) == 2


@pytest.mark.parametrize("command, config", [
    ("analyze", {"bundle": PROSECUTOR, "data": {"outcome": "trait"}}),
    ("assess", {"bundle": PROSECUTOR, "data": {"outcome": "trait"}, "psi0": "guilty"}),
    ("bias", {"bundle": PROSECUTOR, "psi0": "guilty", "delta": 1.0}),
    ("bias", {"bundle": PROSECUTOR, "delta": 1.0, "mode": "estimation"}),
])
def test_finite_bundle_refuses_a_discretization(tmp_path, capsys, command, config):
    assert run(tmp_path, config, command)[0] == 0
    assert run(tmp_path, dict(config, discretization={"delta": 0.1}), command)[0] == 2
    assert "discretization" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "assess"])
def test_post_data_commands_refuse_an_mc_section(tmp_path, command):
    config = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}, "discretization": {"delta": 0.05}, "psi0": 0.0}
    if command == "analyze":
        del config["psi0"]
    assert run(tmp_path, config, command)[0] == 0
    assert run(tmp_path, dict(config, mc=MC_SMALL), command)[0] == 2


def test_estimation_bias_refuses_psi0(tmp_path):
    config = {"bundle": LOCNORMAL_20, "delta": 0.5, "mode": "estimation"}
    assert run(tmp_path, config, "bias")[0] == 0
    assert run(tmp_path, dict(config, psi0=0.0), "bias")[0] == 2


@pytest.mark.parametrize("key, value", [("range", [5.0, 9.0]), ("anchor", 0.037)])
@pytest.mark.parametrize("command, config", [
    ("bias", {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5}),
    ("design", DESIGN_FAMILY),
])
def test_bias_grid_is_one_anchored_cell(tmp_path, command, config, key, value):
    """The cell of a bias is always anchored at psi0, so a range or an anchor
    would change nothing."""
    config = dict(config, discretization={"delta": 0.1})
    assert run(tmp_path, config, command)[0] == 0
    config["discretization"][key] = value
    assert run(tmp_path, config, command)[0] == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_threshold_flag_is_checked_like_the_config_key(tmp_path, value):
    config = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}}
    assert run(tmp_path, config, "check", ("--threshold", "0.1"))[0] == 0
    assert run(tmp_path, config, "check", ("--threshold", value))[0] == 2


@pytest.mark.parametrize("kind, family", [
    ("location_normal", {"sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0}),
    ("beta_binomial", {"alpha": 2.0, "beta": 3.0}),
])
def test_design_bundle_must_omit_n(tmp_path, kind, family):
    config = dict(DESIGN_FAMILY, bundle={"kind": kind, **family}, psi0=0.4, delta=0.2)
    assert run(tmp_path, config, "design")[0] == 0
    config["bundle"]["n"] = 5
    assert run(tmp_path, config, "design")[0] == 2


# -- a finite psi0 is an interest label ------------------------------------------


def _finite_bias(labels, psi0):
    bundle = {"kind": "finite", "theta_labels": labels, "prior": [0.3, 0.7],
              "likelihood": [[0.9, 0.1], [0.2, 0.8]], "x_labels": ["x0", "x1"]}
    return {"bundle": bundle, "psi0": psi0, "delta": 1.0, "method": "exact"}


def test_finite_bias_psi0_that_is_no_label_is_refused_like_assess(tmp_path, capsys):
    code, _ = run(tmp_path, _finite_bias(["a", "b"], 0), "bias")
    assert code == 3
    assess = dict(_finite_bias(["a", "b"], 0), data={"outcome": "x0"})
    del assess["delta"], assess["method"]
    assert run(tmp_path, assess, "assess")[0] == 3
    errors = capsys.readouterr().err.splitlines()
    assert errors == ["domain error: unknown interest value 0"] * 2


def test_finite_bias_integer_psi0_is_a_label(tmp_path):
    code, out = run(tmp_path, _finite_bias([1, 0], 0), "bias")
    assert code == 0
    numbered = read_csv(out / "bias.csv")[0]
    code, out = run(tmp_path, _finite_bias(["one", "zero"], "zero"), "bias")
    assert code == 0
    named = read_csv(out / "bias.csv")[0]
    assert numbered.pop("psi0") == "0" and named.pop("psi0") == "zero"
    assert numbered == named


def test_finite_integer_outcome_is_a_label(tmp_path):
    def analyze(x_labels, outcome):
        bundle = dict(PROSECUTOR, x_labels=x_labels)
        code, out = run(tmp_path, {"bundle": bundle, "data": {"outcome": outcome}}, "analyze")
        assert code == 0
        report = json.loads((out / "estimate.json").read_text())
        return read_csv(out / "profile.csv"), report.pop("data_digest"), report

    profile, digest, report = analyze([1, 0], 0)
    assert digest == [1, 0]  # the outcome labelled 0, at index 1
    assert (profile, report) == analyze(["trait", "no_trait"], "no_trait")[::2]
    assert profile != analyze(["trait", "no_trait"], "trait")[0]


@pytest.mark.parametrize("where", ["config", "flag"])
@pytest.mark.parametrize("seed", [-5, 2**64])
def test_seed_outside_64_bits_is_a_config_error(tmp_path, capsys, where, seed):
    # -5 used to run the stream of seed 2**64 - 5, and 2**64 that of seed 0
    config = {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5, "method": "mc", "mc": {"n_sim": 50}}
    extra = ("--seed", str(seed))
    if where == "config":
        config["mc"]["seed"], extra = seed, ()
    code, out = run(tmp_path, config, "bias", extra)
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not (out / "bias.csv").exists()
    config["mc"]["seed"], extra = 2**64 - 1, ()
    assert run(tmp_path, config, "bias", extra)[0] == 0


@pytest.mark.parametrize("command", ["bias", "analyze"])
@pytest.mark.parametrize(
    "bundle, n, named",
    [(LOCNORMAL_20, 10**400, "sample size n"),
     (BETABINOMIAL_4, 2**60 - 1, "number of trials n"),
     (BETABINOMIAL_4, 2**61, "number of trials n"),
     (BETABINOMIAL_4, 2**62, "number of trials n"),
     (BETABINOMIAL_4, 2**63, "number of trials n"),
     (BETABINOMIAL_4, 10**400, "number of trials n")],
    ids=["location_normal-10**400", "beta_binomial-2**60-1", "beta_binomial-2**61", "beta_binomial-2**62",
         "beta_binomial-2**63", "beta_binomial-10**400"],
)
def test_sample_size_beyond_the_domain_is_a_domain_error(tmp_path, capsys, command, bundle, n, named):
    # these raised OverflowError, IndexError or ValueError ("array is too big"
    # from 2**60 trials: 8-byte count arrays of n + 1 entries), or at 2**63 trials
    # made analyze report that no cell attains a ratio of 1
    data = {"xbar": 0.3} if bundle["kind"] == "location_normal" else {"successes": 1}
    config = {"bundle": dict(bundle, n=n), "psi0": 0.5, "delta": 0.1}
    if command == "analyze":
        config = {"bundle": config["bundle"], "data": data, "discretization": {"delta": 0.05}}
    code, out = run(tmp_path, config, command)
    err = capsys.readouterr().err
    assert code == 3
    assert named in err and len(err) < 200
    assert not any(out.iterdir())


@pytest.mark.parametrize("threads, named", [("0", "must be an integer >= 1, got 0"),
                                             ("-1", "must be an integer >= 1, got -1"),
                                             ("abc", "invalid int value: 'abc'")], ids=["0", "-1", "abc"])
def test_threads_below_one_is_refused_when_parsed(tmp_path, capsys, threads, named):
    out = tmp_path / "out"
    assert main(["reproduce", "table1", "--out", str(out), "--threads", threads]) == 2
    assert f"argument --threads: {named}" in capsys.readouterr().err
    assert not out.exists()


# n * xbar / sigma0_sq + mu_star / tau_star_sq is inf - inf: the posterior mean is NaN
_NAN_POSTERIOR = {
    "bundle": {"kind": "location_normal", "n": 1, "sigma0_sq": 1e-300, "mu_star": -1e10, "tau_star_sq": 1e-300},
    "data": {"xbar": 1e10},
    "discretization": {"delta": 1e9, "range": [-2e10, 2e10]},
}
# a sample of finite numbers whose sum overflows: its mean is 0
_OVERFLOWING_SAMPLE = {
    "bundle": {"kind": "location_normal", "n": 400, "sigma0_sq": 1.0, "mu_star": 0.0, "tau_star_sq": 1.0},
    "data": {"sample": [1e308] * 200 + [-1e308] * 200},
    "discretization": {"delta": 0.1},
}
_NAN_CONTENTS = "cell contents are NaN or sum past 1: the posterior overflows"


@pytest.mark.parametrize(
    "command, config, named",
    [("analyze", _NAN_POSTERIOR, _NAN_CONTENTS),
     ("assess", dict(_NAN_POSTERIOR, psi0=-1e10), _NAN_CONTENTS),
     ("analyze", dict(_NAN_POSTERIOR, discretization={"delta": 1e-151}),
      "no grid cell carries usable prior content")],
    ids=["nan-posterior-analyze", "nan-posterior-assess", "empty-cell"],
)
def test_finite_configs_whose_arithmetic_overflows_are_domain_errors(tmp_path, capsys, command, config, named):
    # analyze exited 1 with an IndexError, and assess named a NaN ratio
    code, out = run(tmp_path, config, command)
    err = capsys.readouterr().err
    assert code == 3
    assert named in err and len(err) < 200
    assert not any(out.iterdir())


def test_a_sample_whose_sum_overflows_is_read_by_its_finite_mean(tmp_path):
    # every entry is finite, so the mean is: these runs were refused as a NaN
    # data mean
    code, out = run(tmp_path, _OVERFLOWING_SAMPLE, "analyze")
    assert code == 0
    assert json.loads((out / "estimate.json").read_text())["data_digest"] == [400, 0.0]
    assert run(tmp_path, dict(_OVERFLOWING_SAMPLE, psi0=0.0), "assess")[0] == 0
    code, out = run(tmp_path, {key: _OVERFLOWING_SAMPLE[key] for key in ("bundle", "data")}, "check")
    assert code == 0
    assert read_csv(out / "check.csv")[0]["t_obs"] == "0"


def test_repeated_calls_in_one_process_share_no_state(tmp_path):
    """``main`` reuses one parser; each call must still see only its own
    arguments: an override, an error or a flag does not carry over."""
    def call(config, command, *extra, name="out"):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / name
        code = main([command, "--config", str(cfg), "--out", str(out), *extra])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}

    cli._build_parser.cache_clear()
    check = {"bundle": LOCNORMAL_20, "data": {"xbar": 0.3}, "threshold": 0.1}
    bias = {"bundle": LOCNORMAL_20, "psi0": 0.0, "delta": 0.5, "method": "mc", "mc": {"n_sim": 200, "seed": 3}}
    code, lone = call(bias, "bias", name="lone")
    assert code == 0
    parser = cli._build_parser()

    assert call(check, "check", "--threshold", "0.2", name="flag")[0] == 0
    assert read_csv(tmp_path / "flag" / "check.csv")[0]["threshold"] == "0.2"
    assert call(check, "check", name="config")[0] == 0
    assert read_csv(tmp_path / "config" / "check.csv")[0]["threshold"] == "0.1"

    code, flagged = call(bias, "bias", "--seed", "5", "--sims", "50", name="flagged")
    assert code == 0 and flagged["bias.csv"] != lone["bias.csv"]
    assert call(bias, "bias", name="again") == (0, lone)

    assert call(bias, "bias", "--bogus", name="error") == (2, {})
    assert call(bias, "bias", "--threads", "0", name="error") == (2, {})
    assert call(bias, "bias", name="after") == (0, lone)
    assert cli._build_parser() is parser


# -- CSV rows: one format per row, labels quoted where they must be -------------


def _joined(header, rows):
    """The CSV bytes ``_write_csv`` writes for rows that need no quoting:
    floats to ten significant digits, anything else as ``str``."""
    fields = lambda row: (format(v, ".10g") if isinstance(v, float) else str(v) for v in row)
    return "\n".join([",".join(header), *(",".join(fields(row)) for row in rows)]) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan, 1.7e308, -1.7e308]
_PLAIN_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'))
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_EDGE_FLOATS),
    st.floats().map(np.float64),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    _PLAIN_TEXT,
)


_FLOAT64 = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_EDGE_FLOATS))


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 6), data=st.data())
def test_csv_rows_match_a_format_and_str_join(tmp_path_factory, width, data):
    """Each column may change type from row to row, and float64 arrays
    (formatted by their dtype) sit among them; the bytes are those of a
    plain join whatever the types."""
    rows = data.draw(st.lists(st.lists(_VALUES, min_size=width, max_size=width).map(tuple), max_size=8))
    columns = [[row[i] for row in rows] for i in range(width)]
    for _ in range(data.draw(st.integers(0, 3))):
        array = np.array(data.draw(st.lists(_FLOAT64, min_size=len(rows), max_size=len(rows))), dtype=np.float64)
        columns.insert(data.draw(st.integers(0, len(columns))), array)
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    cli._write_csv(path, header, columns)
    assert path.read_bytes() == _joined(header, list(zip(*columns))).encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    st.one_of(st.floats(), st.integers()),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
), min_size=1, max_size=6))
def test_csv_string_fields_read_back_as_one_field(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    cli._write_csv(path, ["a", "b", "c"], list(zip(*rows)))
    with open(path, newline="", encoding="utf-8") as fh:
        read = list(csv.reader(fh))
    want = [[s, format(v, ".10g") if isinstance(v, float) else str(v), t] for s, v, t in rows]
    assert read == [["a", "b", "c"], *want]


_AWKWARD = ["a,b", "c\nd", 'say "e"', "f\r"]


def test_awkward_finite_labels_are_one_csv_field_each(tmp_path):
    """A label holding a comma, a quote or a line break is quoted in
    profile.csv, check.csv and bias.csv, so a CSV reader sees one field."""
    bundle = {"kind": "finite", "theta_labels": _AWKWARD, "prior": [0.1, 0.2, 0.3, 0.4],
              "likelihood": [[0.9, 0.1], [0.6, 0.4], [0.3, 0.7], [0.2, 0.8]], "x_labels": ["x,0", 'x"1']}

    def rows(config, command, name):
        code, out = run(tmp_path, config, command)
        assert code == 0
        with open(out / name, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    profile = rows({"bundle": bundle, "data": {"outcome": "x,0"}}, "analyze", "profile.csv")
    assert [len(r) for r in profile] == [4] * 5
    assert [r[0] for r in profile] == ["label", *_AWKWARD]
    check = rows({"bundle": bundle, "data": {"outcome": 'x"1'}}, "check", "check.csv")
    assert [len(r) for r in check] == [4, 4] and check[1][check[0].index("t_obs")] == 'x"1'
    for psi0 in _AWKWARD:
        bias = rows({"bundle": bundle, "psi0": psi0, "delta": 1.0, "method": "exact"}, "bias", "bias.csv")
        assert [len(r) for r in bias] == [7, 7] and bias[1][bias[0].index("psi0")] == psi0


# -- the config reader ----------------------------------------------------------


def _same_json(a, b) -> bool:
    """Equal JSON values of the same types, float bits and key order."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, dict):
            if list(a) != list(b):
                return False
            pairs.extend((a[key], b[key]) for key in a)
        elif isinstance(a, list):
            if len(a) != len(b):
                return False
            pairs.extend(zip(a, b))
        elif a.hex() != b.hex() if isinstance(a, float) else a != b:
            return False
    return True


def _assert_read_as_json_reads(path, raw: bytes):
    """``_load_config`` gives json's value of ``raw``, or json's error: its
    message as a config error, or a ``RecursionError`` as it is."""
    path.write_bytes(raw)
    try:
        want = json.loads(raw)
    except ValueError as exc:
        with pytest.raises(cli.ConfigError) as err:
            cli._load_config(str(path))
        assert str(err.value) == f"config file {path} is not valid JSON: {exc}"
        return
    except RecursionError:
        with pytest.raises(RecursionError):
            cli._load_config(str(path))
        return
    if not isinstance(want, dict):
        with pytest.raises(cli.ConfigError, match="^config root must be a JSON object$"):
            cli._load_config(str(path))
        return
    config, digest = cli._load_config(str(path))
    assert _same_json(config, want)
    assert digest == hashlib.sha256(raw).hexdigest()


_INT64_EDGES = [-2**63 - 1, -2**63, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1, -10**25, 10**25]
_FLOAT_EDGES = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 9.223372036854775e18, 2.0**63, -2.0**63, 2.0**64,
                1e19, 1e300, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0]
# a float literal in each form that keeps its bits, some with long mantissas;
# "%.25g" of a float of 1e25 or more with no fraction writes an integer literal
_FLOAT_FORMS = (repr, "%.17e".__mod__, "%.25g".__mod__, "%.40e".__mod__, "%.60f".__mod__)
_KEY_TEXT = st.text(max_size=4).map(json.dumps)
_SCALAR_TEXT = st.one_of(
    st.sampled_from(["null", "true", "false"]),
    st.one_of(st.integers(-10**30, 10**30), st.sampled_from(_INT64_EDGES)).map(str),
    st.builds(lambda x, form: form(x), st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                                 st.sampled_from(_FLOAT_EDGES)), st.sampled_from(_FLOAT_FORMS)),
    st.builds(lambda s, ascii: json.dumps(s, ensure_ascii=ascii), st.text(max_size=6), st.booleans()),
)


def _object_text(members) -> str:
    return "{" + ", ".join(f"{key}: {value}" for key, value in members) + "}"


# keys may repeat, as a text may repeat them
_JSON_TEXT = st.recursive(_SCALAR_TEXT, lambda inner: st.one_of(
    st.lists(inner, max_size=6).map(lambda items: "[" + ", ".join(items) + "]"),
    st.lists(st.tuples(_KEY_TEXT, inner), max_size=4).map(_object_text),
), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.lists(st.tuples(_KEY_TEXT, _JSON_TEXT), max_size=4).map(_object_text), _JSON_TEXT))
def test_a_config_is_read_as_json_reads_it(tmp_path_factory, text):
    """orjson reads a config and json decides what orjson refuses or might
    read otherwise: every text gives json's value (its types, float bits
    and key order) or json's error message."""
    _assert_read_as_json_reads(tmp_path_factory.getbasetemp() / "read_as_json.json", text.encode("utf-8"))


def _nested(depth: int) -> bytes:
    return b'{"a": ' + b"[" * depth + b"]" * depth + b"}"


@pytest.mark.parametrize("raw", [
    b'{"a": NaN}', b'{"a": [1.5, -Infinity]}', b'{"a": Infinity}', b'{"a": 1e400}', b'{"a": -1e400}',
    b'{"n": 1' + b"0" * 4299 + b"}", b'{"n": 1' + b"0" * 4300 + b"}",
    b'\xef\xbb\xbf{"a": 1}', '{"a": [1.5, "é"]}'.encode("utf-16"), '{"a": 1}'.encode("utf-16-le"),
    b'{"a": "\\ud800"}', b'{"a": "\xed\xa0\x80"}', b'{"a": "\xff"}',
    b'{"a": 1, "b": 2, "a": 3}',
    b'{"a": [-9223372036854775809, -9223372036854775808, 9223372036854775807, 9223372036854775808]}',
    b'{"a": [18446744073709551615, 18446744073709551616, 18446744073709551617, 1e19, 9.2233720368547758e18]}',
    b'{"labels": ["a", 10000000000000000000000000]}', b'{"x": -10000000000000000000000000}',
    _nested(64), _nested(65), _nested(500), _nested(1000), _nested(1024), _nested(1100),
    b"[1, 2]", b'"config"', b"null", b"", b"{} x", b"{not json",
], ids=lambda raw: repr(raw[:24]))
def test_configs_that_orjson_refuses_or_reads_otherwise_are_read_as_json_reads_them(tmp_path, raw):
    """NaN and the infinities, 1e400, an integer of more than 4,300 digits,
    a byte order mark or UTF-16, a lone surrogate, repeated keys, integers
    beyond int64 and uint64, deep nesting and a root that is no object: each
    has json's value or json's error, whatever that is."""
    _assert_read_as_json_reads(tmp_path / "config.json", raw)


def test_a_label_beyond_64_bits_is_an_integer_label(tmp_path):
    """json reads an integer label of 10**25 as an int, which a label may
    be; orjson's float would be refused."""
    bundle = {"kind": "finite", "theta_labels": [10**25, "b"], "prior": [0.5, 0.5],
              "likelihood": [[0.9, 0.1], [0.2, 0.8]], "x_labels": ["x0", "x1"]}
    code, out = run(tmp_path, {"bundle": bundle, "data": {"outcome": "x0"}}, "analyze")
    assert code == 0
    assert read_csv(out / "profile.csv")[0]["label"] == str(10**25)


def test_a_trial_count_beyond_the_cap_exits_3_before_it_allocates(tmp_path):
    """A beta-binomial n above ``models._MAX_TRIALS`` is a domain error
    raised before any count table is built: in a child process whose address
    space is capped near 1 GiB, ``bias`` and ``analyze`` at 2**28 trials (a
    table of 2 GiB) and at 2**40 (8 TiB) exit 3, where they raised
    ``MemoryError`` (exit 1)."""
    import subprocess
    import sys

    script = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from relbelief.cli import main
codes = []
for n in (2**28, 2**40):
    for command, config in (
        ("bias", {{"psi0": 0.5, "delta": 0.1}}),
        ("analyze", {{"data": {{"successes": 1}}, "discretization": {{"delta": 0.05}}}}),
    ):
        path = {str(tmp_path)!r} + f"/{{command}}-{{n}}.json"
        with open(path, "w") as fh:
            json.dump({{"bundle": {{"kind": "beta_binomial", "n": n, "alpha": 1.0, "beta": 1.0}}, **config}}, fh)
        codes.append(main([command, "--config", path, "--out", path + ".out"]))
print(json.dumps(codes))
"""
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [3, 3, 3, 3]
    assert "number of trials n must be a whole number in [1, 1000001)" in done.stderr
