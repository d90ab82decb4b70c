"""Command line front end: configs, outputs, exit codes, determinism."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

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


def test_bias_estimation_fallback_exit_code(tmp_path, monkeypatch):
    # no library path sets ``fallback``; a fake with the real signature sets
    # it, to confirm the CLI surfaces it as exit 4
    import inspect

    import relbelief.bias as bias_mod
    from relbelief.bias import BiasComponent

    def fake_against(bundle, disc=None, mc=None, method="auto"):
        comp = BiasComponent(value=0.1, se=0.001, method="MonteCarlo", fallback=True)
        return comp, BiasComponent(value=0.2, se=0.0, method="Exact")

    def params(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    assert params(fake_against) == params(bias_mod.bias_against_e)
    monkeypatch.setattr(bias_mod, "bias_against_e", fake_against)
    config = {
        "bundle": {
            "kind": "location_normal",
            "n": 5,
            "sigma0_sq": 1.0,
            "mu_star": 0.0,
            "tau_star_sq": 1.0,
        },
        "delta": 0.5,
        "mode": "estimation",
    }
    code, out = run(tmp_path, config, "bias")
    assert code == 4
    assert (out / "bias_estimation.csv").exists()


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


REPRODUCE_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "reproduce_digests.json").read_text()
)


@pytest.mark.parametrize("target", sorted(REPRODUCE_DIGESTS))
def test_reproduce_csv_matches_recorded_digest(tmp_path, target):
    assert main(["reproduce", target, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / f"{target}.csv").read_bytes()).hexdigest()
    assert digest == REPRODUCE_DIGESTS[target]


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


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_refused_when_parsed(tmp_path, capsys, threads):
    out = tmp_path / "out"
    assert main(["reproduce", "table1", "--out", str(out), "--threads", threads]) == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_calls_in_one_process_share_no_state(tmp_path):
    """``main`` reuses one parser; each call must still see only its own
    arguments: an override, an error or a flag does not carry over."""
    from relbelief import cli

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
