"""Golden outputs of the four bias functionals.

``golden_bias.json`` holds every bias component for three bundles under each
method, with and without a discretization, and with both settings of
``boundary_only``, recorded at n_sim 3000 with a fixed seed before the bias
functions were rebuilt on the per-bundle primitive.  Monte Carlo values and
standard errors must match bit for bit and exact values within 1e-12.

The recorded outputs of ``CHANGED`` cases came from code that ignored an
option it was given; those cases are checked for honouring or refusing the
option instead.  The finite ones among them, a grid on labels that have no
cells, stay in the golden comparison and must be refused by an error that
names the discretization.

The ``MC_POLICY`` cases moved when the ``mc`` method came to mean "every
average drawn, every supremum exact"; they stay in the golden comparison and
are checked for moving as that policy says, and no further.

The ``CELL_EXACT`` cases moved when the location-normal cell ratio got an
exact region probability: a hypothesis bias on a cell is exact under
``auto``/``exact`` instead of drawn, and an estimation bias on a grid is
computed instead of refused.  They are checked for moving as that says.

The ``BB_EXACT`` cases moved when the beta-binomial model got exact rules by
breakpoint pieces: its averages under ``auto``/``exact`` are exact instead of
drawn, and its supremum is the largest limit at a piece end instead of a grid
search.  They are checked against ``oracle.BetaBinomialOracle``.  The
``BB_GRID_REFUSED`` cases, estimations on a grid under ``auto``/``exact``,
have no exact rule and are refused; ``mc`` takes them.

Record with ``python tests/test_golden_bias.py`` -- only from code whose
outputs are known to be right, never to make this test pass.
"""

import json
import sys
from pathlib import Path

import pytest

from oracle import BetaBinomialOracle
from relbelief import (
    Discretization,
    DomainError,
    FiniteModelSpec,
    LocationNormalSpec,
    McConfig,
    bias_against_e,
    bias_against_h,
    bias_in_favor_e,
    bias_in_favor_h,
    make_beta_binomial,
    make_finite,
    make_location_normal,
)

GOLDEN = Path(__file__).with_name("golden_bias.json")
MC = McConfig(n_sim=3000, seed=20260418)
METHODS = ("auto", "exact", "mc")

FINITE_SPEC = FiniteModelSpec(
    theta_labels=["t0", "t1", "t2", "t3"],
    prior=[0.1, 0.3, 0.4, 0.2],
    likelihood=[
        [0.5, 0.2, 0.1, 0.1, 0.1],
        [0.1, 0.4, 0.2, 0.2, 0.1],
        [0.2, 0.1, 0.1, 0.3, 0.3],
        [0.05, 0.05, 0.6, 0.1, 0.2],
    ],
    x_labels=["x0", "x1", "x2", "x3", "x4"],
    psi_of_theta=["a", "a", "b", "c"],
)

# bundle, hypothesized value, difference that matters, grid half-width
SETUPS = {
    "location_normal": (
        lambda: make_location_normal(LocationNormalSpec(n=10, sigma0_sq=1.0, mu_star=0.3, tau_star_sq=1.0)),
        0.2, 0.5, 0.1,
    ),
    "beta_binomial": (lambda: make_beta_binomial(15, 2.0, 3.0), 0.4, 0.15, 0.05),
    "finite": (lambda: make_finite(FINITE_SPEC), "a", 1.0, 0.1),
}


def _cases():
    for kind, (build, psi0, delta, cell) in SETUPS.items():
        for method in METHODS:
            for disc in (None, Discretization(delta=cell)):
                grid = "disc" if disc else "point"
                opts = dict(disc=disc, mc=MC, method=method)
                yield f"{kind}/against_h/{method}/{grid}", build, lambda b, o=opts, p=psi0: bias_against_h(b, p, **o)
                yield f"{kind}/against_e/{method}/{grid}", build, lambda b, o=opts: bias_against_e(b, **o)
                for bo in (True, False):
                    search = "boundary" if bo else "exterior"
                    yield (
                        f"{kind}/favor_h/{method}/{grid}/{search}", build,
                        lambda b, o=opts, p=psi0, d=delta, bo=bo: bias_in_favor_h(b, p, d, boundary_only=bo, **o),
                    )
                    yield (
                        f"{kind}/favor_e/{method}/{grid}/{search}", build,
                        lambda b, o=opts, d=delta, bo=bo: bias_in_favor_e(b, d, boundary_only=bo, **o),
                    )


def _run(build, call):
    try:
        result = call(build())
    except DomainError as exc:
        return {"error": str(exc)}
    comps = result if isinstance(result, tuple) else (result,)
    return [{"value": c.value, "se": c.se, "method": c.method, "fallback": c.fallback} for c in comps]


def _changed(key):
    """Cases whose recorded output ignored an option: a discretization on a
    finite bundle, whose labels have no cells; a discretization in an
    estimation bias on a continuous bundle (location-normal Monte Carlo bias
    against already honoured it; the location-normal ones are ``CELL_EXACT``
    cases, checked against the cell results they now give); and the exterior
    search of the beta-binomial average bias in favor."""
    kind, func, method, grid, *search = key.split("/")
    if kind == "finite":
        return grid == "disc"
    if func not in ("against_e", "favor_e"):
        return False
    if search == ["exterior"] and kind == "beta_binomial":
        return True
    return grid == "disc" and not (kind == "location_normal" and func == "against_e" and method == "mc")


CASES = {key: (build, call) for key, build, call in _cases()}
CHANGED = sorted(key for key in CASES if _changed(key))
FINITE_REFUSED = [key for key in CHANGED if key.startswith("finite/")]
MC_POLICY = [
    # the supremum is searched exactly
    "location_normal/against_e/mc/point",
    "location_normal/against_e/mc/disc",
    # the average bias in favor is drawn
    "finite/favor_e/mc/point/boundary",
    "finite/favor_e/mc/point/exterior",
]


CELL_EXACT = [
    # hypothesis biases on a cell: Monte Carlo -> exact
    *(f"location_normal/against_h/{m}/disc" for m in ("auto", "exact")),
    *(f"location_normal/favor_h/{m}/disc/{s}" for m in ("auto", "exact") for s in ("boundary", "exterior")),
    # estimation biases on a grid: refused -> computed.  The recorded outputs
    # ignored the grid, except the drawn average bias against under mc, which
    # is also an MC_POLICY case and is checked as one.
    *(f"location_normal/against_e/{m}/disc" for m in METHODS),
    *(f"location_normal/favor_e/{m}/disc/{s}" for m in METHODS for s in ("boundary", "exterior")),
]


BB_EXACT = [
    # the average bias against drawn -> exact (under mc still drawn), the supremum searched -> exact
    *(f"beta_binomial/against_e/{m}/point" for m in METHODS),
    # the average bias in favor drawn -> exact
    *(f"beta_binomial/favor_e/{m}/point/boundary" for m in ("auto", "exact")),
]
BB_GRID_REFUSED = [
    *(f"beta_binomial/against_e/{m}/disc" for m in ("auto", "exact")),
    *(f"beta_binomial/favor_e/{m}/disc/{s}" for m in ("auto", "exact") for s in ("boundary", "exterior")),
]


def _moved_to_bb_exact(key, want, got):
    """Each exact value within 1e-9 of the oracle, and each within 3 standard
    errors of its recorded draws; a drawn average holds bit for bit, and the
    exact supremum never falls below the recorded grid search."""
    _, func, method, *_ = key.split("/")
    build, _, delta, _ = SETUPS["beta_binomial"]
    bundle = build()
    oracle = BetaBinomialOracle(bundle.n, bundle.alpha, bundle.beta)
    if func == "favor_e":
        [g], [w] = got, want
        assert (g["method"], g["se"], w["method"]) == ("Exact", 0.0, "MonteCarlo")
        assert abs(g["value"] - oracle.avg_bias_in_favor(delta)) <= 1e-9
        assert abs(g["value"] - w["value"]) <= 3.0 * w["se"]
        return
    (g_avg, g_sup), (w_avg, w_sup) = got, want
    if method == "mc":
        assert g_avg == w_avg
    else:
        assert (g_avg["method"], g_avg["se"], w_avg["method"]) == ("Exact", 0.0, "MonteCarlo")
        assert abs(g_avg["value"] - oracle.avg_bias_against()) <= 1e-9
        assert abs(g_avg["value"] - w_avg["value"]) <= 3.0 * w_avg["se"]
    assert (g_sup["method"], g_sup["se"]) == ("Exact", 0.0)
    assert abs(g_sup["value"] - oracle.sup_bias_against()) <= 1e-9
    assert g_sup["value"] >= w_sup["value"]


def _moved_by_mc_policy(key, want, got):
    if key.startswith("finite/"):
        [g], [w] = got, want
        assert (g["method"], w["method"]) == ("MonteCarlo", "Exact") and g["se"] > 0.0
        assert abs(g["value"] - w["value"]) <= 3.0 * g["se"]
        return
    (g_avg, g_sup), (w_avg, w_sup) = got, want
    assert g_avg == w_avg  # the average is drawn as before, bit for bit
    assert (g_sup["method"], g_sup["se"], w_sup["method"]) == ("Exact", 0.0, "MonteCarlo")
    assert abs(g_sup["value"] - w_sup["value"]) <= 3.0 * w_sup["se"]


def _moved_to_exact_cells(key, want, got, golden):
    _, func, method, *_ = key.split("/")
    if func.endswith("_h"):
        # the recorded draws honoured the cell, so they bound the exact value
        [g], [w] = got, want
        assert (g["method"], g["se"], w["method"]) == ("Exact", 0.0, "MonteCarlo")
        assert abs(g["value"] - w["value"]) <= 3.0 * w["se"]
        return
    assert [g["value"] for g in got] != [w["value"] for w in want]  # the grid is no longer ignored
    if method == "mc":  # the average bias in favor, drawn over the prior
        assert [g["method"] for g in got] == ["MonteCarlo"]
        return
    assert all((g["method"], g["se"]) == ("Exact", 0.0) for g in got)
    # the exact average agrees with the one drawn over the same grid: the
    # recorded one for the bias against, a fresh one for the bias in favor
    mc_key = key.replace(f"/{method}/", "/mc/")
    drawn = golden[mc_key] if func == "against_e" else _run(*CASES[mc_key])
    assert abs(got[0]["value"] - drawn[0]["value"]) <= 3.0 * drawn[0]["se"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(set(CASES) - set(CHANGED) | set(FINITE_REFUSED)))
def test_bias_matches_golden(golden, key):
    want, got = golden[key], _run(*CASES[key])
    if key in FINITE_REFUSED:
        assert isinstance(got, dict) and "discretization" in got["error"]
        return
    if key in MC_POLICY:
        _moved_by_mc_policy(key, want, got)
        return
    if key in CELL_EXACT:
        _moved_to_exact_cells(key, want, got, golden)
        return
    if key in BB_EXACT:
        _moved_to_bb_exact(key, want, got)
        return
    if "error" in want:
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["method"], g["fallback"]) == (w["method"], w["fallback"])
        if w["method"] == "MonteCarlo":
            assert (g["value"], g["se"]) == (w["value"], w["se"])
        else:
            assert g["se"] == 0.0
            assert abs(g["value"] - w["value"]) <= 1e-12


@pytest.mark.parametrize("key", sorted(set(CHANGED) - set(FINITE_REFUSED)))
def test_estimation_bias_no_longer_ignores_an_option(golden, key):
    """The option the recorded output ignored now changes the answer (the
    finite refusals are checked with the golden cases)."""
    got = _run(*CASES[key])
    if key in CELL_EXACT:
        _moved_to_exact_cells(key, golden[key], got, golden)
        return
    if key in BB_GRID_REFUSED:
        assert "discretization" in got["error"] and "'mc'" in got["error"]
        return
    assert "error" not in got, got
    assert [g["value"] for g in got] != [w["value"] for w in golden[key]]


if __name__ == "__main__":
    out = {key: _run(build, call) for key, (build, call) in CASES.items()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} cases to {GOLDEN}", file=sys.stderr)
