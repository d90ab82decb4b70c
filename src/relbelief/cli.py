"""Config-driven command line front end.

Subcommands::

    relbelief analyze   --config cfg.json --out DIR    profile + estimate
    relbelief assess    --config cfg.json --out DIR    hypothesis assessment
    relbelief bias      --config cfg.json --out DIR    a priori bias report
    relbelief design    --config cfg.json --out DIR    sample-size search
    relbelief check     --config cfg.json --out DIR    prior-data conflict check
    relbelief reproduce TARGET --out DIR               built-in reference tables

Configs are JSON with a fixed schema (see README); unknown keys are errors,
not warnings, so a typo cannot silently change a study.  Exit codes: 0 on
success, 2 for config errors, 3 for domain errors, 4 when a numerical
fallback was engaged (outputs are still written).

Outputs are CSV files plus a ``run_manifest.json`` recording the config
digest, seed, and library versions.  Identical config and seed produce
byte-identical outputs regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bias import (
    McConfig,
    bias_against_e,
    bias_in_favor_e,
    bias_in_favor_h,
    design_sample_size,
    estimation_bias,
    favor_prob_locnormal,
    hypothesis_bias,
    meets_targets,
)
from .checking import conflict_check
from .errors import DesignSearchError, DomainError
from .evidence import assess, estimate, rb_profile
from .models import (
    Discretization,
    FiniteModelSpec,
    LocationNormalSpec,
    make_beta_binomial,
    make_finite,
    make_location_normal,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_FALLBACK = 4

REPRODUCE_TARGETS = ("table1", "table2", "table3", "table5", "fig1", "fig3")

# Fixed settings for the reference tables: hypothesis mean 0, unit data
# variance, sample sizes 5..100, and the priors named in the column headers.
_TABLE_NS = (5, 10, 20, 50, 100)
_TABLE12_PRIORS = ((1.0, 1.0), (0.0, 1.0))  # (prior mean, prior variance)
_TABLE3_TAU_SQS = (1.0, 0.25)
_TABLE5_DELTAS = (1.0, 0.5)
_FIG_POINTS = 201


class ConfigError(Exception):
    """The configuration file is malformed or incomplete."""


# ---------------------------------------------------------------------------
# config parsing


def _require_keys(section: dict, required: set, optional: set, where: str) -> None:
    keys = set(section)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _load_config(path: str) -> tuple[dict, str]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config, hashlib.sha256(raw).hexdigest()


def _build_bundle(section) -> object:
    if not isinstance(section, dict):
        raise ConfigError("'bundle' must be an object")
    kind = section.get("kind")
    if kind == "location_normal":
        _require_keys(section, {"kind", "n", "sigma0_sq", "mu_star", "tau_star_sq"}, set(), "bundle")
        return make_location_normal(
            LocationNormalSpec(
                n=int(section["n"]),
                sigma0_sq=float(section["sigma0_sq"]),
                mu_star=float(section["mu_star"]),
                tau_star_sq=float(section["tau_star_sq"]),
            )
        )
    if kind == "beta_binomial":
        _require_keys(section, {"kind", "n", "alpha", "beta"}, set(), "bundle")
        return make_beta_binomial(int(section["n"]), float(section["alpha"]), float(section["beta"]))
    if kind == "finite":
        _require_keys(
            section,
            {"kind", "theta_labels", "prior", "likelihood", "x_labels"},
            {"psi_of_theta"},
            "bundle",
        )
        return make_finite(
            FiniteModelSpec(
                theta_labels=section["theta_labels"],
                prior=section["prior"],
                likelihood=section["likelihood"],
                x_labels=section["x_labels"],
                psi_of_theta=section.get("psi_of_theta"),
            )
        )
    raise ConfigError(f"unknown bundle kind {kind!r}")


def _parse_data(section, bundle) -> object:
    if not isinstance(section, dict):
        raise ConfigError("'data' must be an object")
    kind = bundle.kind
    if kind == "location_normal":
        _require_keys(section, set(), {"xbar", "sample"}, "data")
        keys = set(section)
        if keys == {"xbar"}:
            return float(section["xbar"])
        if keys == {"sample"}:
            return [float(v) for v in section["sample"]]
    elif kind == "beta_binomial":
        _require_keys(section, set(), {"successes", "sample"}, "data")
        keys = set(section)
        if keys == {"successes"}:
            return int(section["successes"])
        if keys == {"sample"}:
            return [int(v) for v in section["sample"]]
    else:
        _require_keys(section, set(), {"outcome"}, "data")
        if set(section) == {"outcome"}:
            return section["outcome"]
    raise ConfigError(f"'data' must carry exactly one entry appropriate for a {kind} bundle")


def _parse_disc(section) -> Discretization:
    if not isinstance(section, dict):
        raise ConfigError("'discretization' must be an object")
    _require_keys(section, {"delta"}, {"range", "anchor"}, "discretization")
    rng = section.get("range")
    if rng is not None:
        if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
            raise ConfigError("'discretization.range' must be a [lo, hi] pair")
        rng = (float(rng[0]), float(rng[1]))
    try:
        return Discretization(
            delta=float(section["delta"]),
            range=rng,
            anchor=None if section.get("anchor") is None else float(section["anchor"]),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_mc(section, seed_override, sims_override) -> McConfig:
    section = dict(section or {})
    _require_keys(section, set(), {"n_sim", "seed"}, "mc")
    if sims_override is not None:
        section["n_sim"] = sims_override
    if seed_override is not None:
        section["seed"] = seed_override
    try:
        return McConfig(
            n_sim=int(section.get("n_sim", McConfig.n_sim)),
            seed=int(section.get("seed", McConfig.seed)),
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_boundary_only(config) -> bool:
    value = config.get("boundary_only", True)
    if not isinstance(value, bool):
        raise ConfigError(f"'boundary_only' must be true or false, got {value!r}")
    return value


def _parse_method(config) -> str:
    method = config.get("method", "auto")
    if method not in ("auto", "exact", "mc"):
        raise ConfigError(f"unknown method {method!r}; use 'auto', 'exact', or 'mc'")
    return method


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out: Path, command: str, digest: str, seed, n_sim) -> None:
    _write_json(
        out / "run_manifest.json",
        {
            "command": command,
            "config_digest": digest,
            "seed": seed,
            "n_sim": n_sim,
            "versions": {
                "relbelief": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        },
    )


def _profile_rows(profile):
    if profile.is_labeled:
        header = ["label", "prior", "posterior", "rb"]
        rows = [
            (profile.labels[i], profile.prior_content[i], profile.posterior_content[i],
             profile.rb[i] if profile.usable[i] else float("nan"))
            for i in range(profile.n_cells)
        ]
        return header, rows
    header = ["cell_lo", "cell_hi", "prior", "posterior", "rb"]
    rows = [
        (profile.edges[i], profile.edges[i + 1], profile.prior_content[i],
         profile.posterior_content[i], profile.rb[i] if profile.usable[i] else float("nan"))
        for i in range(profile.n_cells)
    ]
    return header, rows


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(config, args, out: Path) -> int:
    allowed = {"bundle", "data", "discretization", "gamma", "mc"}
    _require_keys(config, {"bundle", "data"}, allowed - {"bundle", "data"}, "config")
    bundle = _build_bundle(config["bundle"])
    data = _parse_data(config["data"], bundle)
    disc = None
    if bundle.kind != "finite":
        if "discretization" not in config:
            raise ConfigError(f"a 'discretization' section is required for {bundle.kind} bundles")
        disc = _parse_disc(config["discretization"])
    elif "discretization" in config:
        disc = _parse_disc(config["discretization"])  # validated, then unused

    profile = rb_profile(bundle, data, disc)
    report = estimate(profile, gamma=config.get("gamma"))

    header, rows = _profile_rows(profile)
    _write_csv(out / "profile.csv", header, rows)
    _write_json(
        out / "estimate.json",
        {
            "psi_hat": report.psi_hat,
            "tied": report.tied,
            "plausible_values": report.plausible_values,
            "pl_posterior_content": report.pl_posterior_content,
            "pl_prior_content": report.pl_prior_content,
            "credible": report.credible,
            "data_digest": profile.data_digest,
            "bundle_digest": profile.bundle_digest,
            "excluded_cells": profile.excluded_cells,
            "excluded_prior_mass": profile.excluded_prior_mass,
        },
    )
    return EXIT_OK


def cmd_assess(config, args, out: Path) -> int:
    allowed = {"bundle", "data", "discretization", "psi0", "mc"}
    _require_keys(config, {"bundle", "data", "psi0"}, allowed - {"bundle", "data", "psi0"}, "config")
    bundle = _build_bundle(config["bundle"])
    data = _parse_data(config["data"], bundle)
    psi0 = config["psi0"]
    disc = None
    if bundle.kind != "finite":
        if "discretization" not in config:
            raise ConfigError(f"a 'discretization' section is required for {bundle.kind} bundles")
        disc = _parse_disc(config["discretization"])
        if disc.anchor is None:
            disc = dataclasses.replace(disc, anchor=float(psi0))

    profile = rb_profile(bundle, data, disc)
    result = assess(profile, psi0 if bundle.kind == "finite" else float(psi0))
    _write_json(
        out / "assess.json",
        {
            "psi0": result.psi0,
            "rb0": result.rb0,
            "strength": result.strength,
            "verdict": result.verdict.kind,
            "markov_lower": result.markov_lower,
            "markov_upper": result.markov_upper,
            "data_digest": profile.data_digest,
            "bundle_digest": profile.bundle_digest,
        },
    )
    return EXIT_OK


def cmd_bias(config, args, out: Path) -> int:
    allowed = {"bundle", "psi0", "delta", "mode", "discretization", "mc", "method", "boundary_only"}
    _require_keys(config, {"bundle", "delta"}, allowed - {"bundle", "delta"}, "config")
    mode = config.get("mode", "hypothesis")
    if mode not in ("hypothesis", "estimation"):
        raise ConfigError(f"bias mode must be 'hypothesis' or 'estimation', got {mode!r}")
    bundle = _build_bundle(config["bundle"])
    delta = float(config["delta"])
    disc = _parse_disc(config["discretization"]) if "discretization" in config else None
    mc = _parse_mc(config.get("mc"), args.seed, args.sims)
    method = _parse_method(config)
    boundary_only = _parse_boundary_only(config)

    if mode == "hypothesis":
        if "psi0" not in config:
            raise ConfigError("hypothesis bias requires 'psi0'")
        psi0 = config["psi0"] if bundle.kind == "finite" else float(config["psi0"])
        report = hypothesis_bias(
            bundle, psi0, delta, disc=disc, mc=mc, method=method, boundary_only=boundary_only
        )
        _write_csv(
            out / "bias.csv",
            ["psi0", "delta", "bias_against", "se_against", "bias_in_favor", "se_in_favor", "method"],
            [
                (
                    report.psi0,
                    report.delta,
                    report.bias_against,
                    report.se_against,
                    report.bias_in_favor,
                    report.se_in_favor,
                    report.method,
                )
            ],
        )
        return EXIT_OK

    report = estimation_bias(bundle, delta, disc=disc, mc=mc, method=method, boundary_only=boundary_only)
    _write_csv(
        out / "bias_estimation.csv",
        [
            "delta",
            "avg_bias_against",
            "se_avg_against",
            "sup_bias_against",
            "se_sup_against",
            "avg_bias_in_favor",
            "se_avg_in_favor",
            "implied_coverage",
            "method",
        ],
        [
            (
                report.delta,
                report.avg_bias_against,
                report.se_avg_against,
                report.sup_bias_against,
                report.se_sup_against,
                report.avg_bias_in_favor,
                report.se_avg_in_favor,
                report.implied_coverage,
                report.method,
            )
        ],
    )
    return EXIT_FALLBACK if report.fallback else EXIT_OK


def cmd_design(config, args, out: Path) -> int:
    allowed = {"bundle", "psi0", "delta", "targets", "n_grid", "discretization", "mc", "method", "boundary_only"}
    _require_keys(
        config, {"bundle", "psi0", "delta", "targets", "n_grid"}, allowed - {"bundle", "psi0", "delta", "targets", "n_grid"}, "config"
    )
    section = config["bundle"]
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("'bundle' must be an object with a 'kind'")
    kind = section["kind"]
    if kind == "location_normal":
        _require_keys(section, {"kind", "sigma0_sq", "mu_star", "tau_star_sq"}, {"n"}, "bundle")
        family = lambda n: make_location_normal(
            LocationNormalSpec(
                n=n,
                sigma0_sq=float(section["sigma0_sq"]),
                mu_star=float(section["mu_star"]),
                tau_star_sq=float(section["tau_star_sq"]),
            )
        )
    elif kind == "beta_binomial":
        _require_keys(section, {"kind", "alpha", "beta"}, {"n"}, "bundle")
        family = lambda n: make_beta_binomial(n, float(section["alpha"]), float(section["beta"]))
    else:
        raise ConfigError("design requires a bundle family parameterized by sample size")

    targets = config["targets"]
    if not isinstance(targets, dict):
        raise ConfigError("'targets' must be an object")
    _require_keys(targets, set(), {"max_bias_against", "max_bias_in_favor"}, "targets")
    targets = {k: float(v) for k, v in targets.items()}
    mc = _parse_mc(config.get("mc"), args.seed, args.sims)
    method = _parse_method(config)
    boundary_only = _parse_boundary_only(config)
    disc = _parse_disc(config["discretization"]) if "discretization" in config else None

    header = ["n", "bias_against", "se_against", "bias_in_favor", "se_in_favor", "method", "admissible"]

    def rows_of(evaluated):
        return [
            (n, r.bias_against, r.se_against, r.bias_in_favor, r.se_in_favor, r.method,
             int(meets_targets(r, targets)))
            for n, r in evaluated
        ]

    try:
        result = design_sample_size(
            family,
            float(config["psi0"]),
            float(config["delta"]),
            targets,
            config["n_grid"],
            disc=disc,
            mc=mc,
            method=method,
            boundary_only=boundary_only,
        )
    except DesignSearchError as exc:
        _write_csv(out / "design.csv", header, rows_of(exc.reports))
        raise
    _write_csv(out / "design.csv", header, rows_of(result.evaluated))
    _write_json(out / "design.json", {"n": result.n, "report": result.report})
    return EXIT_OK


def cmd_check(config, args, out: Path) -> int:
    allowed = {"bundle", "data", "threshold", "mc", "method"}
    _require_keys(config, {"bundle", "data"}, allowed - {"bundle", "data"}, "config")
    bundle = _build_bundle(config["bundle"])
    data = _parse_data(config["data"], bundle)
    threshold = args.threshold if args.threshold is not None else float(config.get("threshold", 0.05))
    mc = _parse_mc(config.get("mc"), args.seed, args.sims)
    report = conflict_check(bundle, data, threshold=threshold, mc=mc, method=_parse_method(config))
    _write_csv(
        out / "check.csv",
        ["tail_prob", "t_obs", "threshold", "verdict"],
        [(report.tail_prob, report.t_obs, report.threshold, report.verdict.value)],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# reference tables


def _reproduce_rows(target: str):
    mu0 = 0.0
    if target == "table1":
        header = ["n", "bias_against_prior_mu1_tausq1", "bias_against_prior_mu0_tausq1"]
        rows = []
        for n in _TABLE_NS:
            vals = []
            for mu_star, tau_sq in _TABLE12_PRIORS:
                spec = LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=mu_star, tau_star_sq=tau_sq)
                vals.append(1.0 - favor_prob_locnormal(spec, mu0, mu0))
            rows.append((n, *vals))
        return header, rows
    if target == "table2":
        header = ["n", "bias_in_favor_prior_mu1_tausq1", "bias_in_favor_prior_mu0_tausq1"]
        rows = []
        for n in _TABLE_NS:
            vals = []
            for mu_star, tau_sq in _TABLE12_PRIORS:
                spec = LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=mu_star, tau_star_sq=tau_sq)
                bundle = make_location_normal(spec)
                vals.append(bias_in_favor_h(bundle, mu0, 0.5).value)
            rows.append((n, *vals))
        return header, rows
    if target == "table3":
        header = ["n", "avg_bias_against_tausq1", "avg_bias_against_tausq0_25"]
        rows = []
        for n in _TABLE_NS:
            vals = []
            for tau_sq in _TABLE3_TAU_SQS:
                bundle = make_location_normal(
                    LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=tau_sq)
                )
                avg, _ = bias_against_e(bundle)
                vals.append(avg.value)
            rows.append((n, *vals))
        return header, rows
    if target == "table5":
        header = ["n", "avg_bias_in_favor_delta1_0", "avg_bias_in_favor_delta0_5"]
        rows = []
        for n in _TABLE_NS:
            bundle = make_location_normal(
                LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
            )
            rows.append((n, *(bias_in_favor_e(bundle, d).value for d in _TABLE5_DELTAS)))
        return header, rows
    if target == "fig1":
        spec = LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=1.0, tau_star_sq=1.0)
        lo = spec.mu_star - 4.0
        hi = spec.mu_star + 4.0
        grid = np.linspace(lo, hi, _FIG_POINTS)
        probs = favor_prob_locnormal(spec, mu0, grid)
        return ["mu", "prob_evidence_in_favor_of_0"], list(zip(grid.tolist(), probs.tolist()))
    if target == "fig3":
        spec = LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
        bundle = make_location_normal(spec)
        grid = np.linspace(-4.0, 4.0, _FIG_POINTS)
        vals = [bias_in_favor_h(bundle, float(m), 0.5).value for m in grid]
        return ["mu", "bias_in_favor"], list(zip(grid.tolist(), vals))
    raise ConfigError(f"unknown reproduce target {target!r}; choose from {REPRODUCE_TARGETS}")


def cmd_reproduce(args, out: Path) -> int:
    header, rows = _reproduce_rows(args.target)
    _write_csv(out / f"{args.target}.csv", header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relbelief", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the Monte Carlo seed")
        p.add_argument("--sims", type=int, default=None, help="override the replication count")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (results are identical for any value)")
        p.add_argument("--threshold", type=float, default=None,
                       help="conflict threshold override (check only)")

    for name in ("analyze", "assess", "bias", "design", "check"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        add_common(p)
    p = sub.add_parser("reproduce")
    p.add_argument("target", help=f"one of {', '.join(REPRODUCE_TARGETS)}")
    add_common(p)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "reproduce":
            if args.target not in REPRODUCE_TARGETS:
                raise ConfigError(
                    f"unknown reproduce target {args.target!r}; choose from {REPRODUCE_TARGETS}"
                )
            code = cmd_reproduce(args, out)
            digest = hashlib.sha256(args.target.encode()).hexdigest()
            _write_manifest(out, "reproduce", digest, args.seed if args.seed is not None else 0,
                            args.sims if args.sims is not None else 0)
            return code

        config, digest = _load_config(args.config)
        handler = {
            "analyze": cmd_analyze,
            "assess": cmd_assess,
            "bias": cmd_bias,
            "design": cmd_design,
            "check": cmd_check,
        }[args.command]
        code = handler(config, args, out)
        mc = _parse_mc(config.get("mc"), args.seed, args.sims)
        _write_manifest(out, args.command, digest, mc.seed, mc.n_sim)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TypeError, ValueError) as exc:
        # wrong value types in the config surface here via the casts
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
