"""Config-driven command line front end.

Subcommands::

    relbelief analyze   --config cfg.json --out DIR    profile + estimate
    relbelief assess    --config cfg.json --out DIR    hypothesis assessment
    relbelief bias      --config cfg.json --out DIR    a priori bias report
    relbelief design    --config cfg.json --out DIR    sample-size search
    relbelief check     --config cfg.json --out DIR    prior-data conflict check
    relbelief reproduce TARGET --out DIR               built-in reference tables

Configs are JSON with a fixed schema (see README); unknown keys are errors,
not warnings, so a typo cannot silently change a study.  Every config value
is read once: a bundle's fields and a data entry by one typed reader over
the schema tables ``_BUNDLES`` and ``_DATA``, the ``discretization`` and
``mc`` sections by the library's ``Discretization`` and ``McConfig``.  Every
subcommand, ``reproduce`` included, takes one path: parse the config (none
for ``reproduce``) and the Monte Carlo settings, run the command, write the
manifest.  Exit codes: 0 on success, 2 for config errors, 3 for domain
errors; an internal error propagates with its traceback (exit 1).

Outputs are CSV files plus a ``run_manifest.json`` recording the config
digest, seed, and library versions.  Identical config and seed produce
byte-identical outputs regardless of ``--threads``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import hashlib
import json
import math
import reprlib
import sys
from pathlib import Path

import numpy as np
import orjson
import scipy

from . import __version__
from .bias import (
    METHODS,
    McConfig,
    bias_against_e,
    bias_against_h,
    bias_in_favor_e,
    bias_in_favor_h,
    design_sample_size,
    estimation_bias,
    favor_prob_locnormal,
    hypothesis_bias,
    meets_targets,
)
from .checking import DEFAULT_THRESHOLD, conflict_check
from .errors import DesignSearchError, DomainError, _real_arg, _whole_arg
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

# Fixed settings for the reference tables: hypothesis mean 0, unit data
# variance, sample sizes 5..100, and the priors named in the column headers.
_TABLE_NS = (5, 10, 20, 50, 100)
_FIG_POINTS = 201


def _locnormal(n, mu_star=0.0, tau_star_sq=1.0):
    return make_location_normal(LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=mu_star, tau_star_sq=tau_star_sq))


# target -> (header, one library call per column, each a function of n)
_TABLES = {
    "table1": (
        ["n", "bias_against_prior_mu1_tausq1", "bias_against_prior_mu0_tausq1"],
        (lambda n: bias_against_h(_locnormal(n, 1.0), 0.0).value,
         lambda n: bias_against_h(_locnormal(n), 0.0).value),
    ),
    "table2": (
        ["n", "bias_in_favor_prior_mu1_tausq1", "bias_in_favor_prior_mu0_tausq1"],
        (lambda n: bias_in_favor_h(_locnormal(n, 1.0), 0.0, 0.5).value,
         lambda n: bias_in_favor_h(_locnormal(n), 0.0, 0.5).value),
    ),
    "table3": (
        ["n", "avg_bias_against_tausq1", "avg_bias_against_tausq0_25"],
        (lambda n: bias_against_e(_locnormal(n))[0].value,
         lambda n: bias_against_e(_locnormal(n, 0.0, 0.25))[0].value),
    ),
    "table5": (
        ["n", "avg_bias_in_favor_delta1_0", "avg_bias_in_favor_delta0_5"],
        (lambda n: bias_in_favor_e(_locnormal(n), 1.0).value,
         lambda n: bias_in_favor_e(_locnormal(n), 0.5).value),
    ),
}
REPRODUCE_TARGETS = (*_TABLES, "fig1", "fig3")

# The columns of each one-row CSV, named as the fields of the report written.
_BIAS_H_COLUMNS = ("psi0", "delta", "bias_against", "se_against", "bias_in_favor", "se_in_favor", "method")
_BIAS_E_COLUMNS = (
    "delta", "avg_bias_against", "se_avg_against", "sup_bias_against", "se_sup_against",
    "avg_bias_in_favor", "se_avg_in_favor", "implied_coverage", "method",
)
_DESIGN_COLUMNS = ("bias_against", "se_against", "bias_in_favor", "se_in_favor", "method")
_CHECK_COLUMNS = ("tail_prob", "t_obs", "threshold", "verdict")


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


# orjson reads an integer literal outside [-2**63, 2**64) as a float where
# json keeps an int; a float of smaller magnitude is the same in both.
_ORJSON_INT_RANGE = 2.0**63
# json refuses nesting deeper than what is left of the recursion limit, where
# orjson reads any depth; no config nests past 4.
_ORJSON_DEPTH = 64


def _json_would_agree(value) -> bool:
    """Whether json reads the text orjson read as ``value`` the same way: no
    float of magnitude ``_ORJSON_INT_RANGE`` or more, and no nesting deeper
    than ``_ORJSON_DEPTH``.  A list of numbers takes one ``math.hypot`` pass,
    which is at least the magnitude of each entry."""
    level = [value]
    for _ in range(_ORJSON_DEPTH):
        inner = []
        for item in level:
            if isinstance(item, list):
                try:
                    if math.hypot(*item) < _ORJSON_INT_RANGE:
                        continue
                except TypeError:  # an entry that is no number
                    pass
                inner.extend(item)
            elif isinstance(item, dict):
                inner.extend(item.values())
            elif isinstance(item, float) and not abs(item) < _ORJSON_INT_RANGE:
                return False
        if not inner:
            return True
        level = inner
    return False


def _load_config(path: str) -> tuple[dict, str]:
    """The config object and the digest of its bytes.  orjson parses them;
    json decides every text orjson refuses or might read differently (see
    :func:`_json_would_agree`), so a config has json's value or json's
    error."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        config = orjson.loads(raw)
        decided = _json_would_agree(config)
    except orjson.JSONDecodeError:
        decided = False
    if not decided:
        try:
            config = json.loads(raw)
        except ValueError as exc:  # a JSONDecodeError, or an integer beyond the digit limit
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config, hashlib.sha256(raw).hexdigest()


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"'{where}' must be an object")
    return value


def _number(value, where: str, kind=float):
    """A JSON number as ``kind`` (float or int), read by the library's one
    rule (``_real_arg`` or ``_whole_arg``): a boolean, a string, the
    non-finite ``NaN``/``Infinity``/``-Infinity``, an int beyond the float
    range for a float and a fraction for an int are refused, not cast."""
    try:
        return _real_arg(value, where) if kind is float else _whole_arg(value, where, -math.inf)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


# The kind of a finite-model label or index: a string or an integer.  A kind
# that _read takes is float, int, _LABEL, or [kind] for a list of that kind.
_LABEL = (str, int)
# scalar kind -> the exact types of the values it takes unchanged
_EXACT = {float: {float}, int: {int}, _LABEL: set(_LABEL)}


def _read(value, where: str, kind):
    """``value`` read as ``kind``: a number by :func:`_number`, a label as
    itself (a bool is none), a list entry by entry.  Anything else is a
    config error naming ``where``, with the index of each entry.  A list
    already of a scalar kind passes with one type test per entry and, for
    floats, one C-level ``sum`` (NaN or an infinity anywhere makes it
    non-finite): finite tables run to tens of thousands of entries.  A value
    of the wrong type is shown abridged, as ``reprlib`` shows it."""
    if type(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"'{where}' must be a list, got {reprlib.repr(value)}")
        (entry,) = kind
        if type(entry) is not list and set(map(type, value)) <= _EXACT[entry]:
            if entry is not float or math.isfinite(sum(value)):
                return value
        return [_read(v, f"{where}[{i}]", entry) for i, v in enumerate(value)]
    if kind is not _LABEL:
        return _number(value, where, kind)
    if type(value) in _LABEL:
        return value
    raise ConfigError(f"'{where}' must be a string or an integer, got {reprlib.repr(value)}")


# bundle kind -> (builder, called with the fields as keywords; each field's
# kind; the fields that may be omitted or null).  A builder calls its make_*
# function by name, so the one bound in this module when it runs is used.
_BUNDLES = {
    "location_normal": (
        lambda **fields: make_location_normal(LocationNormalSpec(**fields)),
        {"n": int, "sigma0_sq": float, "mu_star": float, "tau_star_sq": float},
        set(),
    ),
    "beta_binomial": (
        lambda **fields: make_beta_binomial(**fields),
        {"n": int, "alpha": float, "beta": float},
        set(),
    ),
    "finite": (
        lambda **fields: make_finite(FiniteModelSpec(**fields)),
        {"theta_labels": [_LABEL], "prior": [float], "likelihood": [[float]], "x_labels": [_LABEL],
         "psi_of_theta": [_LABEL]},
        {"psi_of_theta"},
    ),
}
# the kinds a design searches over: those with a sample size
_SIZED_KINDS = tuple(kind for kind, (_, fields, _) in _BUNDLES.items() if "n" in fields)
# bundle kind -> the kind of each data key; a config's data carries one
_DATA = {
    "location_normal": {"xbar": float, "sample": [float]},
    "beta_binomial": {"successes": int, "sample": [int]},
    "finite": {"outcome": _LABEL},
}


def _build_bundle(section) -> object:
    section = _object(section, "bundle")
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _BUNDLES:
        raise ConfigError(f"unknown bundle kind {kind!r}")
    build, fields, optional = _BUNDLES[kind]
    _require_keys(section, {"kind", *fields} - optional, optional, "bundle")
    return build(**{key: _read(section[key], f"bundle.{key}", field) for key, field in fields.items()
                    if key not in optional or section.get(key) is not None})


def _parse_data(section, bundle) -> object:
    section = _object(section, "data")
    fields = _DATA[bundle.kind]
    _require_keys(section, set(), set(fields), "data")
    if len(section) != 1:
        raise ConfigError(f"'data' must carry exactly one entry appropriate for a {bundle.kind} bundle")
    ((key, value),) = section.items()
    return _read(value, f"data.{key}", fields[key])


def _parse_psi0(value, bundle):
    return _read(value, "psi0", _LABEL if bundle.kind == "finite" else float)


def _read_section(where: str, build, fields: dict):
    """``build(**fields)``, a library constructor that checks its own
    arguments; its domain error is a config error that names ``where``."""
    try:
        return build(**fields)
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_disc(config, kind: str, optional: frozenset = frozenset()):
    """The config's grid, or ``None`` without one.  Its ``delta`` is required
    and the keys in ``optional`` are allowed; :class:`Discretization` reads
    them.  A finite bundle refuses a grid: its interest labels have no
    cells."""
    if "discretization" not in config:
        return None
    if kind == "finite":
        raise ConfigError("a finite bundle takes no 'discretization': its interest labels have no cells")
    section = _object(config["discretization"], "discretization")
    _require_keys(section, {"delta"}, optional, "discretization")
    return _read_section("discretization", Discretization, section)


def _parse_mc(config, args) -> McConfig:
    """The ``mc`` section, with ``--sims`` and ``--seed`` over it, read by
    :class:`McConfig`."""
    section = {} if config.get("mc") is None else dict(_object(config["mc"], "mc"))
    _require_keys(section, set(), {"n_sim", "seed"}, "mc")
    if args.sims is not None:
        section["n_sim"] = args.sims
    if args.seed is not None:
        section["seed"] = args.seed
    return _read_section("mc", McConfig, section)


def _refuse_monte_carlo(config, args, why: str) -> None:
    """Refuse Monte Carlo settings on a run that draws nothing (``why`` says
    so): they would reach only the manifest."""
    given = [flag for flag, value in (("--seed", args.seed), ("--sims", args.sims)) if value is not None]
    if "mc" in config:
        given.append("an 'mc' section")
    if given:
        raise ConfigError(f"{' and '.join(given)} given, but {why}")


def _parse_boundary_only(config) -> bool:
    value = config.get("boundary_only", True)
    if not isinstance(value, bool):
        raise ConfigError(f"'boundary_only' must be true or false, got {value!r}")
    return value


def _parse_method(config) -> str:
    method = config.get("method", "auto")
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; use one of {METHODS}")
    return method


def _bias_options(config, kind: str, mc: McConfig) -> dict:
    """The options ``bias`` and ``design`` pass to every bias, as keywords.
    The grid is one cell of half-width ``delta`` anchored at the hypothesized
    value, so it takes no range or anchor."""
    return dict(
        disc=_parse_disc(config, kind),
        mc=mc,
        method=_parse_method(config),
        boundary_only=_parse_boundary_only(config),
    )


# ---------------------------------------------------------------------------
# output helpers


def _quoted(value):
    """A string holding a comma, a double quote or a line break, as one CSV
    field: in double quotes, its own doubled (RFC 4180).  Anything else
    passes unchanged."""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _column(values) -> tuple:
    """A CSV column as its ``%`` format and its values.  A float64 array is
    ``%.10g`` by its dtype; any other column is formatted value by value, a
    float to ten significant digits, a string quoted where it must be and
    anything else as ``str``."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return "%.10g", values.tolist()
    return "%s", [format(v, ".10g") if isinstance(v, float) else _quoted(v) for v in values]


def _write_csv(path: Path, header, columns) -> None:
    """Write ``columns`` (equal-length sequences, one per ``header`` name)
    as CSV rows, with one ``%`` format per table."""
    formats, values = zip(*map(_column, columns))
    fmt = ",".join(formats)
    lines = [",".join(header), *(fmt % row for row in zip(*values))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fields(report, names) -> list:
    """The named fields of ``report``, enums as their values."""
    values = [getattr(report, name) for name in names]
    return [v.value if isinstance(v, enum.Enum) else v for v in values]


def _write_report(path: Path, columns, report) -> None:
    _write_csv(path, columns, [[v] for v in _fields(report, columns)])


def _json_default(obj):
    """What ``json`` cannot write itself: an enum as its value, a dataclass
    as a dict of its fields, whose nested enums and dataclasses ``json``
    brings back here (``fields`` refuses anything else with a TypeError)."""
    if isinstance(obj, enum.Enum):
        return obj.value
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, default=_json_default, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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


def _profile_columns(profile):
    """The label or the two cell edges of each cell, then its contents and
    its ratio (NaN off the usable cells)."""
    if profile.is_labeled:
        header, cells = ["label"], [profile.labels]
    else:
        header, cells = ["cell_lo", "cell_hi"], [profile.edges[:-1], profile.edges[1:]]
    columns = [*cells, profile.prior_content, profile.posterior_content, profile.rb]
    return header + ["prior", "posterior", "rb"], columns


# ---------------------------------------------------------------------------
# commands


def _observed_profile(config, required: set, optional: set):
    """Check the keys of a post-data config and build the profile of its
    data; returns (profile, psi0 or None).  A grid is required for a
    continuous bundle and refused for a finite one; a hypothesis sits on a
    cell center unless the grid names another anchor."""
    _require_keys(config, {"bundle", "data"} | required, {"discretization"} | optional, "config")
    bundle = _build_bundle(config["bundle"])
    data = _parse_data(config["data"], bundle)
    psi0 = _parse_psi0(config["psi0"], bundle) if "psi0" in config else None
    disc = _parse_disc(config, bundle.kind, frozenset({"range", "anchor"}))
    if disc is None and bundle.kind != "finite":
        raise ConfigError(f"a 'discretization' section is required for {bundle.kind} bundles")
    if psi0 is not None and bundle.kind != "finite" and disc.anchor is None:
        disc = dataclasses.replace(disc, anchor=psi0)
    return rb_profile(bundle, data, disc), psi0


def cmd_analyze(config, mc: McConfig, args, out: Path) -> None:
    _refuse_monte_carlo(config, args, "analyze draws nothing")
    profile, _ = _observed_profile(config, set(), {"gamma"})
    gamma = config.get("gamma")
    report = estimate(profile, gamma=None if gamma is None else _number(gamma, "gamma"))
    header, columns = _profile_columns(profile)
    _write_csv(out / "profile.csv", header, columns)
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


def cmd_assess(config, mc: McConfig, args, out: Path) -> None:
    _refuse_monte_carlo(config, args, "assess draws nothing")
    profile, psi0 = _observed_profile(config, {"psi0"}, set())
    result = assess(profile, psi0)
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


def cmd_bias(config, mc: McConfig, args, out: Path) -> None:
    optional = {"psi0", "mode", "discretization", "mc", "method", "boundary_only"}
    _require_keys(config, {"bundle", "delta"}, optional, "config")
    mode = config.get("mode", "hypothesis")
    if mode not in ("hypothesis", "estimation"):
        raise ConfigError(f"bias mode must be 'hypothesis' or 'estimation', got {mode!r}")
    bundle = _build_bundle(config["bundle"])
    delta = _number(config["delta"], "delta")
    options = _bias_options(config, bundle.kind, mc)

    if mode == "hypothesis":
        if "psi0" not in config:
            raise ConfigError("hypothesis bias requires 'psi0'")
        report = hypothesis_bias(bundle, _parse_psi0(config["psi0"], bundle), delta, **options)
        _write_report(out / "bias.csv", _BIAS_H_COLUMNS, report)
    elif "psi0" in config:
        raise ConfigError("estimation bias takes no 'psi0': it averages over the prior")
    else:
        report = estimation_bias(bundle, delta, **options)
        _write_report(out / "bias_estimation.csv", _BIAS_E_COLUMNS, report)


def cmd_design(config, mc: McConfig, args, out: Path) -> None:
    required = {"bundle", "psi0", "delta", "targets", "n_grid"}
    _require_keys(config, required, {"discretization", "mc", "method", "boundary_only"}, "config")
    section = _object(config["bundle"], "bundle")
    if section.get("kind") not in _SIZED_KINDS:
        raise ConfigError("design requires a bundle family parameterized by sample size")
    if "n" in section:
        raise ConfigError("a design bundle omits 'n'; 'n_grid' supplies the sample sizes")
    targets = _object(config["targets"], "targets")
    _require_keys(targets, set(), {"max_bias_against", "max_bias_in_favor"}, "targets")
    targets = {k: _number(v, f"targets.{k}") for k, v in targets.items()}
    psi0, delta = _number(config["psi0"], "psi0"), _number(config["delta"], "delta")
    n_grid = _read(config["n_grid"], "n_grid", [int])
    options = _bias_options(config, section["kind"], mc)
    candidates = {n: _build_bundle({**section, "n": n}) for n in n_grid}
    header = ["n", *_DESIGN_COLUMNS, "admissible"]

    def columns_of(evaluated):
        return list(zip(*((n, *_fields(r, _DESIGN_COLUMNS), int(meets_targets(r, targets))) for n, r in evaluated)))

    try:
        result = design_sample_size(candidates.__getitem__, psi0, delta, targets, n_grid, **options)
    except DesignSearchError as exc:
        _write_csv(out / "design.csv", header, columns_of(exc.reports))
        raise
    _write_csv(out / "design.csv", header, columns_of(result.evaluated))
    _write_json(out / "design.json", {"n": result.n, "report": result.report})


def cmd_check(config, mc: McConfig, args, out: Path) -> None:
    _require_keys(config, {"bundle", "data"}, {"threshold", "mc", "method"}, "config")
    method = _parse_method(config)
    if method != "mc":
        _refuse_monte_carlo(config, args, f"a check under method {method!r} draws nothing: its tail is exact")
    bundle = _build_bundle(config["bundle"])
    data = _parse_data(config["data"], bundle)
    threshold = config.get("threshold", DEFAULT_THRESHOLD) if args.threshold is None else args.threshold
    report = conflict_check(bundle, data, threshold=_number(threshold, "threshold"), mc=mc, method=method)
    _write_report(out / "check.csv", _CHECK_COLUMNS, report)


# ---------------------------------------------------------------------------
# reference tables


def _reproduce_columns(target: str):
    if target in _TABLES:
        header, columns = _TABLES[target]
        return header, list(zip(*((n, *(column(n) for column in columns)) for n in _TABLE_NS)))
    if target == "fig1":
        spec = LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=1.0, tau_star_sq=1.0)
        grid = np.linspace(spec.mu_star - 4.0, spec.mu_star + 4.0, _FIG_POINTS)
        probs = favor_prob_locnormal(spec, 0.0, grid)
        return ["mu", "prob_evidence_in_favor_of_0"], [grid, probs]
    bundle = _locnormal(20)
    grid = np.linspace(-4.0, 4.0, _FIG_POINTS)
    # the worst case of bias_in_favor_h at every grid value, in one array call
    vals = np.minimum(bundle.favor_sup(0.5)(grid), 1.0)
    return ["mu", "bias_in_favor"], [grid, vals]


def cmd_reproduce(config, mc: McConfig, args, out: Path) -> None:
    header, columns = _reproduce_columns(args.target)
    _write_csv(out / f"{args.target}.csv", header, columns)


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "analyze": cmd_analyze,
    "assess": cmd_assess,
    "bias": cmd_bias,
    "design": cmd_design,
    "check": cmd_check,
    "reproduce": cmd_reproduce,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; each
    ``parse_args`` returns a fresh namespace, so calls share no state."""
    parser = argparse.ArgumentParser(prog="relbelief", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name == "reproduce":
            p.add_argument("target", choices=REPRODUCE_TARGETS)
        else:
            p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override the Monte Carlo seed")
        p.add_argument("--sims", type=int, default=None, help="override the replication count")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker threads (results are identical for any value)")
        if name == "check":
            p.add_argument("--threshold", type=float, default=None, help="conflict threshold override")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "reproduce":
            config, digest = {}, hashlib.sha256(args.target.encode()).hexdigest()
        else:
            config, digest = _load_config(args.config)
        mc = _parse_mc(config, args)
        _COMMANDS[args.command](config, mc, args, out)
        _write_manifest(out, args.command, digest, mc.seed, mc.n_sim)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
