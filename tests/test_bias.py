"""Bias functionals: exact values, Monte Carlo agreement, design search."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from relbelief import (
    BiasComponent,
    BiasEReport,
    BiasHReport,
    ConflictReport,
    ConflictVerdict,
    DesignSearchError,
    DomainError,
    EvidenceVerdict,
    FiniteModelSpec,
    HypothesisAssessment,
    LocationNormalSpec,
    McConfig,
    Verdict,
    bias_against_e,
    bias_against_h,
    bias_in_favor_e,
    bias_in_favor_h,
    design_sample_size,
    estimation_bias,
    favor_prob_locnormal,
    hypothesis_bias,
    make_beta_binomial,
    make_finite,
    make_location_normal,
)

from oracle import FiniteOracle, random_finite_spec


def locnormal(n, mu_star, tau_sq, sigma0_sq=1.0):
    return make_location_normal(
        LocationNormalSpec(n=n, sigma0_sq=sigma0_sq, mu_star=mu_star, tau_star_sq=tau_sq)
    )


# -- favor probability ---------------------------------------------------------


def test_favor_prob_at_truth_complements_bias_against():
    spec = LocationNormalSpec(n=5, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
    assert favor_prob_locnormal(spec, 0.0, 0.0) == pytest.approx(1.0 - 0.143, abs=0.002)


def test_favor_prob_vanishes_far_away():
    spec = LocationNormalSpec(n=5, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
    assert favor_prob_locnormal(spec, 0.0, 50.0) < 1e-12


def _reference():
    """``perfbench/reference.py``, imported without writing bytecode there."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.append(perfbench)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(perfbench)
    return reference


def test_favor_window_stays_finite_far_from_the_prior_mean():
    """At a = 1e154 the window's (1 + a) c^2 used to overflow: the bias in
    favor read 1.0 where the reference reads 0.0, and the estimation bias
    warned of an overflow (an error under this suite's filters)."""
    spec = dict(n=1, sigma0_sq=1e-77, mu_star=0.0, tau_star_sq=1e77)
    bundle, ref = make_location_normal(LocationNormalSpec(**spec)), _reference().LocNormal(spec)
    tau = math.sqrt(spec["tau_star_sq"])
    for k in (1.4, 2.0, 5.0, 31.0):
        want = float(ref.bias_in_favor_h(k * tau, tau / 2))
        assert bias_in_favor_h(bundle, k * tau, tau / 2).value == pytest.approx(want, abs=1e-12), k
    assert 0.0 <= estimation_bias(bundle, 3.16e38).avg_bias_in_favor <= 1.0


def test_favor_prob_curve_is_unimodal_with_peak_at_zero():
    # coarse sweep of the probability of favoring 0 as the true mean moves
    spec = LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=1.0, tau_star_sq=1.0)
    grid = np.arange(-3.0, 3.0 + 1e-9, 0.5)
    curve = favor_prob_locnormal(spec, 0.0, grid)
    peak = int(np.argmax(curve))
    assert grid[peak] == 0.0
    # non-strict in the tails, where the window probability underflows to 0
    assert np.all(np.diff(curve[: peak + 1]) >= 0)
    assert np.all(np.diff(curve[peak:]) <= 0)
    assert np.all(np.diff(curve[2 : peak + 1]) > 0)
    assert np.all(np.diff(curve[peak:-2]) < 0)


# -- hypothesis bias, exact path -------------------------------------------------


TABLE1 = {
    (1.0, 1.0): [0.095, 0.065, 0.044, 0.026, 0.018],
    (0.0, 1.0): [0.143, 0.104, 0.074, 0.045, 0.031],
}
TABLE2 = {
    (1.0, 1.0): [0.871, 0.747, 0.519, 0.125, 0.006],
    (0.0, 1.0): [0.631, 0.516, 0.327, 0.062, 0.002],
}
NS = [5, 10, 20, 50, 100]


@pytest.mark.parametrize("prior", list(TABLE1))
def test_bias_against_reference_values(prior):
    for n, expected in zip(NS, TABLE1[prior]):
        comp = bias_against_h(locnormal(n, *prior), 0.0)
        assert comp.method == "Exact" and comp.se == 0.0
        assert comp.value == pytest.approx(expected, abs=0.002)


@pytest.mark.parametrize("prior", list(TABLE2))
def test_bias_in_favor_reference_values(prior):
    for n, expected in zip(NS, TABLE2[prior]):
        comp = bias_in_favor_h(locnormal(n, *prior), 0.0, 0.5)
        assert comp.value == pytest.approx(expected, abs=0.002)


def test_both_biases_decrease_with_sample_size():
    for prior in ((1.0, 1.0), (0.0, 1.0)):
        against = [bias_against_h(locnormal(n, *prior), 0.0).value for n in NS]
        favor = [bias_in_favor_h(locnormal(n, *prior), 0.0, 0.5).value for n in NS]
        assert all(b > a for a, b in zip(against[1:], against))
        assert all(b > a for a, b in zip(favor[1:], favor))


def test_diffuse_prior_kills_bias_against_and_maxes_bias_in_favor():
    bundle = locnormal(5, 0.0, 1e6)
    assert bias_against_h(bundle, 0.0).value < 0.01
    assert bias_in_favor_h(bundle, 0.0, 0.5).value > 0.95


def test_bias_in_favor_requires_delta():
    with pytest.raises(DomainError, match="^delta must be a finite real number, got None$"):
        bias_in_favor_h(locnormal(5, 0.0, 1.0), 0.0, None)
    with pytest.raises(DomainError, match=re.escape("delta must lie in (0.0, inf), got -0.5")):
        bias_in_favor_h(locnormal(5, 0.0, 1.0), 0.0, -0.5)


def test_full_exterior_search_matches_boundary_when_monotone():
    bundle = locnormal(20, 1.0, 1.0)
    b1 = bias_in_favor_h(bundle, 0.0, 0.5, boundary_only=True).value
    b2 = bias_in_favor_h(bundle, 0.0, 0.5, boundary_only=False).value
    assert b2 >= b1 - 1e-15
    assert b2 == pytest.approx(b1, abs=1e-9)


def _no_family(n):
    raise AssertionError("a design built a bundle before reading boundary_only")


# each entry that takes boundary_only, with other arguments that fail the
# moment the entry reads or uses them
_BOUNDARY_ONLY_ENTRIES = {
    "bias_in_favor_h": lambda flag: bias_in_favor_h(locnormal(5, 0.0, 1.0), math.nan, -0.5, boundary_only=flag),
    "bias_in_favor_e": lambda flag: bias_in_favor_e(locnormal(5, 0.0, 1.0), -0.5, boundary_only=flag),
    "hypothesis_bias": lambda flag: hypothesis_bias(locnormal(5, 0.0, 1.0), math.nan, -0.5, boundary_only=flag),
    "estimation_bias": lambda flag: estimation_bias(locnormal(5, 0.0, 1.0), 0.5, method="none", boundary_only=flag),
    "design_sample_size": lambda flag: design_sample_size(_no_family, 0.0, 0.5, {"max_bias_against": 0.5}, [5],
                                                          boundary_only=flag),
}


@pytest.mark.parametrize("value, shown", [("no", "'no'"), ("False", "'False'"), (0, "0"), (1, "1"), (0.0, "0.0"),
                                          (None, "None"), (np.int64(1), "1")])
@pytest.mark.parametrize("entry", sorted(_BOUNDARY_ONLY_ENTRIES))
def test_boundary_only_is_a_bool_read_before_any_work(entry, value, shown):
    # "no" ran as True, and 0 and None were taken by their truth value
    with pytest.raises(DomainError, match=f"^boundary_only must be a bool, got {shown}$"):
        _BOUNDARY_ONLY_ENTRIES[entry](value)


def test_a_numpy_bool_is_a_boundary_only():
    bundle = locnormal(20, 1.0, 1.0)
    for flag in (False, True):
        numpy_flag = np.bool_(flag)
        assert bias_in_favor_e(bundle, 0.5, boundary_only=numpy_flag) == bias_in_favor_e(bundle, 0.5, boundary_only=flag)
        assert bias_in_favor_h(bundle, 0.0, 0.5, boundary_only=numpy_flag) == bias_in_favor_h(bundle, 0.0, 0.5,
                                                                                                boundary_only=flag)


# -- estimation bias --------------------------------------------------------------


TABLE3 = {1.0: [0.107, 0.075, 0.051, 0.031, 0.021], 0.25: [0.193, 0.146, 0.107, 0.067, 0.046]}
TABLE5 = {1.0: [0.451, 0.185, 0.025, 0.000, 0.000], 0.5: [0.798, 0.690, 0.486, 0.131, 0.009]}


@pytest.mark.parametrize("tau_sq", list(TABLE3))
def test_average_bias_against_reference_values(tau_sq):
    for n, expected in zip(NS, TABLE3[tau_sq]):
        avg, _ = bias_against_e(locnormal(n, 0.0, tau_sq))
        assert avg.method == "Exact"
        assert avg.value == pytest.approx(expected, abs=0.003)


def test_implied_coverage_is_bayesian_confidence():
    report = estimation_bias(locnormal(20, 0.0, 1.0), delta=0.5)
    assert report.implied_coverage == 1.0 - report.avg_bias_against
    assert report.implied_coverage == pytest.approx(0.949, abs=0.003)


def test_sup_bias_against_sits_at_prior_mean():
    avg, sup = bias_against_e(locnormal(5, 0.0, 1.0))
    assert sup.value == pytest.approx(0.143, abs=0.002)
    assert avg.value == pytest.approx(0.107, abs=0.003)
    assert avg.value <= sup.value


@pytest.mark.parametrize("delta", list(TABLE5))
def test_average_bias_in_favor_reference_values(delta):
    for n, expected in zip(NS, TABLE5[delta]):
        comp = bias_in_favor_e(locnormal(n, 0.0, 1.0), delta)
        assert comp.method == "Exact"
        assert comp.value == pytest.approx(expected, abs=0.003)
    if delta == 1.0:
        assert bias_in_favor_e(locnormal(100, 0.0, 1.0), 1.0).value < 0.0005


# -- Monte Carlo cross-validation ---------------------------------------------------


def _within_3se(mc_value, se, exact_value):
    return abs(mc_value - exact_value) <= 3.0 * max(se, 1e-12)


def test_mc_agrees_with_exact_hypothesis_biases():
    mc = McConfig(n_sim=40_000, seed=20210111)
    for n in (5, 50):
        for prior in ((1.0, 1.0), (0.0, 1.0)):
            bundle = locnormal(n, *prior)
            exact = bias_against_h(bundle, 0.0).value
            est = bias_against_h(bundle, 0.0, mc=mc, method="mc")
            assert est.method == "MonteCarlo"
            assert _within_3se(est.value, est.se, exact)
            exact_f = bias_in_favor_h(bundle, 0.0, 0.5).value
            est_f = bias_in_favor_h(bundle, 0.0, 0.5, mc=mc, method="mc")
            assert _within_3se(est_f.value, est_f.se, exact_f)


def test_mc_agrees_with_exact_estimation_biases_on_every_cell():
    mc = McConfig(n_sim=40_000, seed=8)
    for tau_sq in (1.0, 0.25):
        for n in NS:
            bundle = locnormal(n, 0.0, tau_sq)
            exact_avg, _ = bias_against_e(bundle)
            est_avg, _ = bias_against_e(bundle, mc=mc, method="mc")
            assert _within_3se(est_avg.value, est_avg.se, exact_avg.value), (tau_sq, n)
    for delta in (1.0, 0.5):
        for n in NS:
            bundle = locnormal(n, 0.0, 1.0)
            exact = bias_in_favor_e(bundle, delta).value
            est = bias_in_favor_e(bundle, delta, mc=mc, method="mc")
            assert _within_3se(est.value, est.se, exact), (delta, n)


def test_mc_is_deterministic_and_seed_sensitive():
    bundle = locnormal(5, 0.0, 1.0)
    a = bias_against_h(bundle, 0.0, mc=McConfig(n_sim=5000, seed=1), method="mc")
    b = bias_against_h(bundle, 0.0, mc=McConfig(n_sim=5000, seed=1), method="mc")
    c = bias_against_h(bundle, 0.0, mc=McConfig(n_sim=5000, seed=2), method="mc")
    assert a.value == b.value
    assert a.value != c.value


def test_anchored_cell_mc_matches_point_form_for_small_delta():
    from relbelief import Discretization

    bundle = locnormal(10, 0.0, 1.0)
    mc = McConfig(n_sim=20_000, seed=5)
    point = bias_against_h(bundle, 0.0, mc=mc, method="mc")
    cell = bias_against_h(bundle, 0.0, disc=Discretization(delta=0.01, anchor=0.0), mc=mc, method="mc")
    assert cell.value == pytest.approx(point.value, abs=3 * (point.se + cell.se) + 0.002)


# -- finite and beta-binomial paths ---------------------------------------------------


def test_finite_bias_functionals_match_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        spec = random_finite_spec(rng)
        bundle = make_finite(FiniteModelSpec(**spec))
        oracle = FiniteOracle(spec)
        psi0 = bundle.psi_labels[0]
        assert bias_against_h(bundle, psi0).value == pytest.approx(
            oracle.bias_against_h(psi0), abs=1e-12
        )
        if len(bundle.psi_labels) > 1:
            assert bias_in_favor_h(bundle, psi0, 1.0).value == pytest.approx(
                oracle.bias_in_favor_h(psi0), abs=1e-12
            )
        avg, sup = bias_against_e(bundle)
        assert avg.value == pytest.approx(oracle.avg_bias_against(), abs=1e-12)
        assert sup.value == pytest.approx(oracle.sup_bias_against(), abs=1e-12)
        if len(bundle.psi_labels) > 1:
            assert bias_in_favor_e(bundle, 1.0).value == pytest.approx(
                oracle.avg_bias_in_favor(), abs=1e-12
            )


def test_finite_hypothesis_biases_refuse_a_label_below_the_floor_or_a_delta_above_one():
    """A label below the prior floor has no ratio to assess, and under the
    discrete metric no label lies further than 1 from another."""
    bundle = make_finite(FiniteModelSpec(
        theta_labels=["t0", "t1", "t2"], prior=[0.0, 0.5, 0.5],
        likelihood=[[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]], x_labels=["x0", "x1"],
    ))
    assert 0.0 <= bias_against_h(bundle, "t1").value <= 1.0
    with pytest.raises(DomainError, match="'t0' has prior content below"):
        bias_against_h(bundle, "t0")
    assert 0.0 <= bias_in_favor_h(bundle, "t1", 1.0).value <= 1.0
    with pytest.raises(DomainError, match="distance >= 1.5"):
        bias_in_favor_h(bundle, "t1", 1.5)


def test_finite_mc_agrees_with_enumeration():
    spec = random_finite_spec(np.random.default_rng(13))
    bundle = make_finite(FiniteModelSpec(**spec))
    psi0 = bundle.psi_labels[0]
    exact = bias_against_h(bundle, psi0).value
    est = bias_against_h(bundle, psi0, mc=McConfig(n_sim=30_000, seed=4), method="mc")
    assert _within_3se(est.value, est.se, exact)


def test_beta_binomial_exact_enumeration_and_mc_agree():
    bundle = make_beta_binomial(20, 2.0, 2.0)
    exact = bias_against_h(bundle, 0.4).value
    est = bias_against_h(bundle, 0.4, mc=McConfig(n_sim=30_000, seed=6), method="mc")
    assert _within_3se(est.value, est.se, exact)
    favor = bias_in_favor_h(bundle, 0.4, 0.2)
    assert 0.0 <= favor.value <= 1.0
    # candidates outside (0, 1) are dropped; none left means no meaningful alternative
    with pytest.raises(DomainError, match="differs"):
        bias_in_favor_h(make_beta_binomial(5, 1.0, 1.0), 0.5, 0.9)


def test_beta_binomial_exterior_worst_case_reaches_the_peak():
    """The favor probability of 0.5 peaks at a rate of about 0.5795, between
    two points of an 801-point grid, which read 0.9327180330."""
    bundle = make_beta_binomial(20, 3.0, 6.0)
    got = bias_in_favor_h(bundle, 0.5, 0.05, boundary_only=False)
    assert got.method == "Exact"
    assert got.value == pytest.approx(0.9327210907, abs=1e-10)


@pytest.mark.parametrize(
    "psi0, delta, cell",
    [(0.5, 0.05, None), (0.5, 0.05, 0.02), (0.3, 0.1, None), (0.15, 0.1, 0.05)],
    ids=["peak", "peak-cell", "boundary", "edge-cell"],
)
def test_beta_binomial_exterior_mc_agrees_with_exact(psi0, delta, cell):
    from relbelief import Discretization

    bundle = make_beta_binomial(20, 3.0, 6.0)
    disc = None if cell is None else Discretization(delta=cell)
    exact = bias_in_favor_h(bundle, psi0, delta, disc=disc, boundary_only=False).value
    est = bias_in_favor_h(bundle, psi0, delta, disc=disc, boundary_only=False,
                          mc=McConfig(n_sim=20_000, seed=8), method="mc")
    assert est.method == "MonteCarlo"
    assert _within_3se(est.value, est.se, exact)


def test_beta_binomial_exterior_average_favor_builds_one_region_per_block(monkeypatch):
    """The exterior average bias in favor reads the peak and the probability
    of every candidate off one log-ratio table per block of prior draws: the
    4,000 draws of 21 counts fit one block, so the table is built once."""
    from relbelief import Discretization
    from relbelief.models import BetaBinomialBundle

    tables = []
    log_rb = BetaBinomialBundle.log_rb

    def counted(self, psi0, t, disc=None):
        tables.append(np.shape(psi0))
        return log_rb(self, psi0, t, disc)

    monkeypatch.setattr(BetaBinomialBundle, "log_rb", counted)
    comp = bias_in_favor_e(make_beta_binomial(20, 3.0, 6.0), 0.05, disc=Discretization(0.02), method="mc",
                           mc=McConfig(4000, 1), boundary_only=False)
    assert comp.method == "MonteCarlo" and 0.0 < comp.value < 1.0
    assert tables == [(4000, 1)]


@pytest.mark.parametrize("kind", ["location_normal", "beta_binomial"])
def test_a_cell_hypothesis_builds_its_favor_region_once(monkeypatch, kind):
    """Bias against and in favor of a value on a grid cell are probabilities
    of one favor region, and an exterior bias in favor reads its peak and
    its probabilities off it too: each builds the region once (a
    location-normal cell, one window solve)."""
    from relbelief import Discretization
    from relbelief.models import BetaBinomialBundle, LocationNormalBundle

    cls = LocationNormalBundle if kind == "location_normal" else BetaBinomialBundle
    built, favor_region = [], cls._favor_region

    def counted(self, psi0, disc=None):
        built.append(psi0)
        return favor_region(self, psi0, disc)

    monkeypatch.setattr(cls, "_favor_region", counted)
    if kind == "location_normal":
        make, psi0, delta, disc = lambda: locnormal(10, 0.3, 1.5, sigma0_sq=2.0), 0.5, 0.5, Discretization(0.1)
    else:
        make, psi0, delta, disc = lambda: make_beta_binomial(20, 3.0, 6.0), 0.3, 0.1, Discretization(0.02)
    for boundary_only in (True, False):
        built.clear()
        assert hypothesis_bias(make(), psi0, delta, disc=disc, boundary_only=boundary_only).method == "Exact"
        assert built == [psi0]
    built.clear()
    assert bias_in_favor_h(make(), psi0, delta, disc=disc, boundary_only=False).method == "Exact"
    assert built == [psi0]


@pytest.mark.parametrize("kind, calls", [("location_normal", 4), ("beta_binomial", 2)])
def test_a_cell_hypothesis_takes_its_prior_content_once(monkeypatch, kind, calls):
    """One prior content of the cell serves the floor check of both biases
    and their favor region.  A location-normal pair takes 4 interval
    probabilities: that content, one for the window's last ulps and one
    region probability per bias.  A beta-binomial pair takes 2: that content
    and the posterior contents over the counts.  Its values are those of a
    fresh bundle per bias, bit for bit, and a cell below the floor is still
    refused before any draw."""
    from relbelief import Discretization, models

    name = "normal_interval_prob" if kind == "location_normal" else "beta_interval_prob"
    if kind == "location_normal":
        make, psi0, delta, disc = lambda: locnormal(10, 0.3, 1.5, sigma0_sq=2.0), 0.5, 0.5, Discretization(0.1)
        low, low_disc = 0.3 + 10.0 * math.sqrt(1.5), disc
    else:
        make, psi0, delta, disc = lambda: make_beta_binomial(20, 3.0, 6.0), 0.3, 0.1, Discretization(0.02)
        low, low_disc = 0.998, Discretization(0.001)
    want = (bias_against_h(make(), psi0, disc=disc).value, bias_in_favor_h(make(), psi0, delta, disc=disc).value)
    interval_prob, calls_made, draws = getattr(models, name), [], []

    def counted(*args):
        calls_made.append(args)
        return interval_prob(*args)

    monkeypatch.setattr(models, name, counted)
    report = hypothesis_bias(make(), psi0, delta, disc=disc)
    assert len(calls_made) == calls
    assert (report.bias_against, report.bias_in_favor) == want

    bundle = make()
    monkeypatch.setattr(bundle, "sample_stat", lambda *args, **kwargs: draws.append(args))
    for method in ("exact", "mc"):
        with pytest.raises(DomainError, match="a cell anchored at the hypothesized value has prior content below"):
            hypothesis_bias(bundle, low, delta, disc=low_disc, mc=McConfig(n_sim=100, seed=1), method=method)
    assert draws == []


@pytest.mark.parametrize(
    "psi0, delta, named",
    [("0.3", 0.1, "psi0"), (True, 0.1, "psi0"), (np.bool_(True), 0.1, "psi0"), (math.nan, 0.1, "psi0"),
     (math.inf, 0.1, "psi0"), (-math.inf, 0.1, "psi0"), (10**400, 0.1, "psi0"), (None, 0.1, "psi0"),
     (0.3, "0.1", "delta"), (0.3, True, "delta"), (0.3, math.nan, "delta"), (0.3, math.inf, "delta"),
     (0.3, 10**400, "delta"), (0.3, [0.1], "delta")],
    ids=lambda value: repr(value)[:12],
)
def test_a_hypothesized_value_and_delta_are_finite_real_numbers(psi0, delta, named):
    """A string, a bool, NaN, an infinity or an int beyond the float range,
    as ``psi0`` or ``delta``, is a domain error that names the argument,
    on either continuous bundle and under any method."""
    for bundle in (locnormal(10, 0.3, 1.5), make_beta_binomial(20, 3.0, 6.0)):
        for method in ("exact", "mc"):
            with pytest.raises(DomainError, match=f"^{named} must be a finite real number, got "):
                hypothesis_bias(bundle, psi0, delta, method=method, mc=McConfig(n_sim=100, seed=1))
    with pytest.raises(DomainError, match="^psi0 must be a finite real number"):
        bias_against_h(locnormal(10, 0.3, 1.5), "0.3")


def test_numpy_and_integer_hypothesized_values_keep_their_bits():
    """The gate reads a valid ``psi0`` as ``float`` did, so a Python or
    numpy int or float gives the biases of its float, bit for bit; a numpy
    ``delta`` is taken as given."""
    from relbelief import Discretization

    cases = [
        (locnormal(10, 0.3, 1.5), None, [0, np.int64(0), np.float32(0.0), np.float64(0.0)]),
        (locnormal(10, 0.3, 1.5), Discretization(0.1), [1, np.int64(1), np.float32(1.0)]),
        (make_beta_binomial(20, 3.0, 6.0), Discretization(0.02), [np.float64(0.3)]),
    ]
    for bundle, disc, values in cases:
        want = hypothesis_bias(bundle, float(values[0]), 0.25, disc=disc)
        for psi0, delta in [(value, 0.25) for value in values] + [(values[0], np.float64(0.25))]:
            got = hypothesis_bias(bundle, psi0, delta, disc=disc)
            assert (got.bias_against, got.bias_in_favor) == (want.bias_against, want.bias_in_favor)


@pytest.mark.parametrize("kind", ["location_normal", "beta_binomial"])
def test_the_kept_favor_region_is_that_of_the_value_and_grid_asked_for(kind):
    """A bundle keeps the favor region of the last float value it built one
    for; a call at another value or grid, or at an array, gets its own: one
    bundle asked in turn gives every value's own probabilities, bit for bit."""
    from relbelief import Discretization

    if kind == "location_normal":
        make, values, grids = lambda: locnormal(10, 0.3, 1.5, sigma0_sq=2.0), (0.5, -0.2), (0.1, 0.3)
    else:
        make, values, grids = lambda: make_beta_binomial(20, 3.0, 6.0), (0.3, 0.45), (0.02, 0.05)
    truths = np.array([values[0] - 0.1, values[0], values[1] + 0.1])
    shared = make()
    asks = [(values[0], grids[0]), (values[0], grids[0]), (values[0], grids[1]), (values[0], None),
            (values[1], grids[0]), (np.array(values), grids[0]), (values[0], grids[0])]
    for psi0, grid in asks:
        disc = None if grid is None else Discretization(grid)
        for against in (True, False):
            want = make().region_prob(psi0, truths if np.ndim(psi0) == 0 else truths[:2], disc, against)
            got = shared.region_prob(psi0, truths if np.ndim(psi0) == 0 else truths[:2], disc, against)
            np.testing.assert_array_equal(got, want, strict=True)


def test_threads_sharing_a_bundle_each_get_their_own_value_s_region():
    """Threads that share a bundle and ask at different values, with the
    interpreter switching threads every microsecond, each read a kept
    region whole: every probability is the one a fresh bundle gives."""
    import threading
    from relbelief import Discretization

    make = lambda: locnormal(10, 0.3, 1.5, sigma0_sq=2.0)
    disc, truths = Discretization(0.1), np.array([0.2, 0.5, 0.8])
    values = [0.5, -0.2, 1.1, 0.3, 0.9, -0.6]
    want = {v: make().region_prob(v, truths, disc, False) for v in values}
    shared, wrong = make(), []

    def ask(offset):
        for k in range(60):
            v = values[(k + offset) % len(values)]
            if not np.array_equal(shared.region_prob(v, truths, disc, False), want[v]):
                wrong.append(v)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_beta_binomial_exterior_refuses_a_favor_region_of_two_pieces(monkeypatch):
    """The peak is read off one interval of counts; a favor region of two
    pieces is refused, never searched some other way.  The two values at
    distance ``delta`` need no interval."""
    from relbelief.models import BetaBinomialBundle

    def two_pieces(self, psi0, t, disc=None):
        return np.where(np.isin(t, (2, 3, 7)), 1.0, -1.0) + 0.0 * np.asarray(psi0)

    bundle = make_beta_binomial(10, 2.0, 3.0)
    monkeypatch.setattr(BetaBinomialBundle, "log_rb", two_pieces)
    assert bias_in_favor_h(bundle, 0.4, 0.1).method == "Exact"
    with pytest.raises(DomainError, match="one interval"):
        bias_in_favor_h(bundle, 0.4, 0.1, boundary_only=False)


@pytest.mark.parametrize("method", ["auto", "exact", "mc"])
@pytest.mark.parametrize("cell", [None, 0.05], ids=["point", "cell"])
def test_beta_binomial_exterior_runs_in_estimation_and_design(method, cell):
    """The exterior is three candidates for an array of rates as for one, so
    the average bias in favor and every design candidate honour
    ``boundary_only=False``.  With the same draws the exterior, which holds
    the two values at distance ``delta``, never reads below them."""
    from relbelief import Discretization

    disc = None if cell is None else Discretization(delta=cell)
    opts = dict(disc=disc, mc=McConfig(n_sim=2000, seed=5), method=method)
    bundle = make_beta_binomial(15, 2.0, 3.0)
    if cell is not None and method != "mc":  # a grid estimation has no exact rule, and is refused
        with pytest.raises(DomainError, match="discretization"):
            estimation_bias(bundle, 0.15, boundary_only=False, **opts)
    else:
        boundary = estimation_bias(bundle, 0.15, **opts)
        exterior = estimation_bias(bundle, 0.15, boundary_only=False, **opts)
        assert exterior.avg_bias_in_favor > boundary.avg_bias_in_favor
        assert exterior.avg_bias_against == boundary.avg_bias_against

    def evaluated(**kw):
        family = lambda n: make_beta_binomial(n, 2.0, 3.0)
        with pytest.raises(DesignSearchError) as info:
            design_sample_size(family, 0.4, 0.15, {"max_bias_against": 1e-6}, [5, 20], **opts, **kw)
        return [report for _, report in info.value.reports]

    for b, e in zip(evaluated(), evaluated(boundary_only=False)):
        assert e.bias_in_favor >= b.bias_in_favor and e.bias_against == b.bias_against


def _finite_spec(prior, psi_of_theta, n_x, seed):
    rng = np.random.default_rng(seed)
    like = rng.uniform(0.05, 1.0, size=(len(prior), n_x))
    like /= like.sum(axis=1, keepdims=True)
    return {
        "theta_labels": [f"t{i}" for i in range(len(prior))],
        "prior": list(prior),
        "likelihood": like.tolist(),
        "x_labels": [f"x{j}" for j in range(n_x)],
        "psi_of_theta": list(psi_of_theta),
    }


FINITE_EDGE_SPECS = {
    # an interest label with zero prior mass among usable ones
    "zero_prior_label": _finite_spec([0.2, 0.3, 0.0, 0.1, 0.4], ["a", "b", "c", "d", "e"], 7, 1),
    # one usable label: no alternative exists, so the bias in favor is 0
    "single_usable": _finite_spec([0.4, 0.6, 0.0], ["a", "a", "b"], 5, 2),
    # several theta values per interest label
    "grouped": _finite_spec(
        [0.05, 0.15, 0.1, 0.2, 0.1, 0.05, 0.25, 0.1], ["a", "b", "a", "c", "b", "c", "a", "d"], 9, 3
    ),
}


@pytest.mark.parametrize("name", list(FINITE_EDGE_SPECS))
def test_finite_estimation_bias_matches_oracle_on_edge_specs(name):
    spec = FINITE_EDGE_SPECS[name]
    bundle = make_finite(FiniteModelSpec(**spec))
    oracle = FiniteOracle(spec)
    report = estimation_bias(bundle, delta=1.0)
    assert report.method == "Exact"
    assert report.avg_bias_against == pytest.approx(oracle.avg_bias_against(), abs=1e-12)
    assert report.sup_bias_against == pytest.approx(oracle.sup_bias_against(), abs=1e-12)
    assert report.avg_bias_in_favor == pytest.approx(oracle.avg_bias_in_favor(), abs=1e-12)
    usable = [p for p in oracle.psi_labels if oracle.usable(p)]
    for psi0 in usable:
        assert bias_against_h(bundle, psi0).value == pytest.approx(
            oracle.bias_against_h(psi0), abs=1e-12
        )
        if len(usable) > 1:
            assert bias_in_favor_h(bundle, psi0, 1.0).value == pytest.approx(
                oracle.bias_in_favor_h(psi0), abs=1e-12
            )
    if len(usable) == 1:
        assert report.avg_bias_in_favor == 0.0


def test_finite_exact_biases_use_the_cached_table(monkeypatch):
    from relbelief.models import FiniteBundle

    bundle = make_finite(FiniteModelSpec(**FINITE_EDGE_SPECS["grouped"]))

    def per_pair(self, psi_idx):
        raise AssertionError("exact bias rebuilt M(x | psi) for one interest value")

    monkeypatch.setattr(FiniteBundle, "predictive_given_psi", per_pair)
    estimation_bias(bundle, delta=1.0)
    for psi0 in bundle.psi_labels:
        hypothesis_bias(bundle, psi0, 1.0, method="exact")


def _betabinomial_favor_reference(bundle, delta, mc):
    """Average bias in favor, one prior draw at a time."""
    from relbelief.rng import substream

    draws = bundle.sample_prior(substream(mc.seed, "bias-favor-e"), mc.n_sim)
    counts = np.arange(bundle.n + 1)
    vals = np.empty(mc.n_sim)
    for i, p0 in enumerate(draws):
        cands = [m for m in (p0 - delta, p0 + delta) if 0.0 < m < 1.0]
        if not cands:
            vals[i] = 0.0
            continue
        table = bundle.log_rb_point(p0, counts) >= 0.0
        vals[i] = max(float(np.exp(bundle.log_sampling_pmf(m))[table].sum()) for m in cands)
    return draws, float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(mc.n_sim))


@pytest.mark.parametrize("n, alpha, beta, delta", [(20, 3.0, 6.0, 0.1), (12, 0.5, 0.5, 0.6)])
def test_beta_binomial_favor_e_matches_per_draw_reference(monkeypatch, n, alpha, beta, delta):
    import relbelief.models as models_module

    bundle = make_beta_binomial(n, alpha, beta)
    mc = McConfig(n_sim=1500, seed=31)
    draws, value, se = _betabinomial_favor_reference(bundle, delta, mc)
    if delta > 0.5:
        # draws near 0 or 1 lose one candidate, draws near 1/2 lose both
        assert np.any(draws < 1.0 - delta) and np.any(draws > delta)
        assert np.any((draws >= 1.0 - delta) & (draws <= delta))
    unblocked = bias_in_favor_e(bundle, delta, mc=mc, method="mc")
    monkeypatch.setattr(models_module, "_BLOCK_CELLS", 4 * (n + 1) + 3)  # 4 draws per block
    blocked = bias_in_favor_e(bundle, delta, mc=mc, method="mc")
    for comp in (unblocked, blocked):
        assert comp.method == "MonteCarlo"
        assert comp.value == pytest.approx(value, abs=1e-12)
        assert comp.se == pytest.approx(se, abs=1e-12)


def test_finite_favor_e_blocks_give_the_same_value(monkeypatch):
    import relbelief.models as models_module

    bundle = make_finite(FiniteModelSpec(**FINITE_EDGE_SPECS["zero_prior_label"]))
    whole = bias_in_favor_e(bundle, 1.0).value
    monkeypatch.setattr(models_module, "_BLOCK_CELLS", 1)  # one interest value per block
    assert bias_in_favor_e(bundle, 1.0).value == pytest.approx(whole, abs=1e-15)


def test_estimation_bias_forwards_boundary_only(monkeypatch):
    import relbelief.bias as bias_module

    seen = []
    real = bias_module.bias_in_favor_e

    def spy(*args, **kwargs):
        seen.append(kwargs.get("boundary_only"))
        return real(*args, **kwargs)

    monkeypatch.setattr(bias_module, "bias_in_favor_e", spy)
    bundle = locnormal(10, 0.0, 1.0)
    estimation_bias(bundle, delta=0.5, boundary_only=False)
    estimation_bias(bundle, delta=0.5)
    assert seen == [False, True]


OPTION_BUNDLES = {
    # weak data: the favor window's center lies in the exterior for most values
    "location_normal": (lambda: locnormal(4, 0.0, 1.0, sigma0_sq=4.0), 0.5),
    "beta_binomial": (lambda: make_beta_binomial(15, 2.0, 3.0), 0.15),
    "finite": (lambda: make_finite(FiniteModelSpec(**FINITE_EDGE_SPECS["grouped"])), 1.0),
}


# the (bundle, option, method) triples an estimation bias refuses by name: a
# finite model's labels have no cells, and a beta-binomial grid estimation has
# no exact rule
REFUSED_OPTIONS = {("finite", "discretization", m) for m in ("auto", "exact", "mc")} | {
    ("beta_binomial", "discretization", m) for m in ("auto", "exact")
}


@pytest.mark.parametrize("method", ["auto", "exact", "mc"])
@pytest.mark.parametrize("functional", ["against_e", "favor_e"])
@pytest.mark.parametrize("kind", list(OPTION_BUNDLES))
def test_estimation_options_are_honoured_or_refused(kind, functional, method):
    """A discretization or a full exterior search either changes an
    estimation bias or is refused by name.  A finite model refuses the
    discretization (its labels have no cells); its labels all sit at distance
    1 from each other, so the exterior search leaves it unaffected.  The
    exterior of both continuous bundles is three candidates per value, for an
    array of values as for one, so an average honours it.  A location-normal
    grid is honoured exactly wherever the point is: exact cells under
    ``auto``/``exact``, exact suprema under ``mc``.  A beta-binomial grid is
    honoured under ``mc`` and refused under ``auto``/``exact``, which have no
    exact rule for its cells."""
    from relbelief import Discretization

    build, delta = OPTION_BUNDLES[kind]
    bundle, mc = build(), McConfig(n_sim=2000, seed=3)

    def components(**opts):
        if functional == "against_e":
            return list(bias_against_e(bundle, mc=mc, method=method, **opts))
        return [bias_in_favor_e(bundle, delta, mc=mc, method=method, **opts)]

    base = components()
    options = {"discretization": {"disc": Discretization(delta=0.2)}}
    if functional == "favor_e":
        options["boundary_only"] = {"boundary_only": False}
    for name, opts in options.items():
        if (kind, name, method) in REFUSED_OPTIONS:
            with pytest.raises(DomainError, match=name):
                components(**opts)
            continue
        got = components(**opts)
        assert [g.method for g in got] == [b.method for b in base], name
        if kind == "finite":
            assert [g.value for g in got] == [b.value for b in base]
        else:
            assert all(g.value != b.value for g, b in zip(got, base)), (name, got, base)


class _Drew(Exception):
    """Raised by a sampler that must not run."""


def test_no_exact_request_draws(monkeypatch):
    """Under ``auto`` and ``exact`` every hypothesis bias, of a point or a
    cell, and every estimation bias is computed without one draw, or, for a
    beta-binomial estimation on a grid, refused before any."""
    from relbelief import Discretization
    from relbelief.models import BetaBinomialBundle, FiniteBundle, LocationNormalBundle

    def refuse(*args, **kwargs):
        raise _Drew

    for cls in (LocationNormalBundle, BetaBinomialBundle, FiniteBundle):
        for name in ("sample_stat", "sample_joint", "sample_prior"):
            monkeypatch.setattr(cls, name, refuse)
    setups = {
        "location_normal": (locnormal(10, 0.3, 1.0), 0.2, 0.5, Discretization(delta=0.1)),
        "beta_binomial": (make_beta_binomial(15, 2.0, 3.0), 0.4, 0.15, Discretization(delta=0.05)),
        "finite": (make_finite(FiniteModelSpec(**FINITE_EDGE_SPECS["grouped"])), "b", 1.0, None),
    }
    for method in ("auto", "exact"):
        for kind, (bundle, psi0, delta, cell) in setups.items():
            for disc in (None,) if cell is None else (None, cell):
                opts = dict(disc=disc, method=method)
                comps = [bias_against_h(bundle, psi0, **opts)]
                comps += [bias_in_favor_h(bundle, psi0, delta, boundary_only=bo, **opts) for bo in (True, False)]
                if kind == "beta_binomial" and disc is not None:
                    with pytest.raises(DomainError, match="discretization"):
                        bias_against_e(bundle, **opts)
                    with pytest.raises(DomainError, match="discretization"):
                        bias_in_favor_e(bundle, delta, **opts)
                else:
                    comps += bias_against_e(bundle, **opts)
                    comps += [bias_in_favor_e(bundle, delta, boundary_only=bo, **opts) for bo in (True, False)]
                assert all(c.method == "Exact" for c in comps), (kind, method, disc)


def test_location_normal_average_favor_reads_the_window_not_the_primitive(monkeypatch):
    """The exact location-normal average bias in favor evaluates each
    quadrature node's worst case in closed form off its favor window: it never
    lists the alternatives nor asks ``region_prob`` for them."""
    from relbelief import Discretization
    from relbelief.models import LocationNormalBundle

    def refuse(*args, **kwargs):
        raise AssertionError("the primitive was reached")

    bundle = locnormal(4, 0.0, 1.0, sigma0_sq=4.0)  # weak data: exterior window centers
    monkeypatch.setattr(LocationNormalBundle, "alternatives", refuse)
    monkeypatch.setattr(LocationNormalBundle, "region_prob", refuse)
    for disc, boundary_only in ((None, True), (None, False), (Discretization(delta=0.1), True)):
        comp = bias_in_favor_e(bundle, 0.5, disc=disc, boundary_only=boundary_only)
        assert comp.method == "Exact" and 0.0 < comp.value < 1.0


def test_prior_content_floor_refuses_only_a_named_value():
    """A hypothesized value whose anchored cell has prior content below the
    floor is refused, under ``exact`` and ``mc`` alike.  The same value as a
    Gauss-Hermite node of a prior average, beyond 9 prior sds, is evaluated:
    exactly, and by drawn cell ratios that agree with it."""
    from relbelief import Discretization
    from relbelief.models import PRIOR_CONTENT_FLOOR

    bundle, disc = locnormal(10, 0.0, 1.0), Discretization(delta=0.05)
    node = float(np.polynomial.hermite_e.hermegauss(64)[0].max())
    assert node > 9.0 and bundle.prior_interval((node - 0.05, node + 0.05)) < PRIOR_CONTENT_FLOOR
    mc = McConfig(n_sim=1000, seed=2)
    for method in ("exact", "mc"):
        with pytest.raises(DomainError, match="prior content below"):
            bias_against_h(bundle, node, disc=disc, mc=mc, method=method)
        with pytest.raises(DomainError, match="prior content below"):
            bias_in_favor_h(bundle, node, 0.5, disc=disc, mc=mc, method=method)
        avg, _ = bias_against_e(bundle, disc=disc, mc=mc, method=method)
        assert avg.method == ("Exact" if method == "exact" else "MonteCarlo")
    for truth in (node, node - 3.5, node + 6.5):  # the window is about (node - 3.5, node + 6.5)
        exact = float(bundle.region_prob(node, truth, disc, against=False))
        draws = bundle.sample_stat(np.random.default_rng(4), truth, size=20_000)
        log_rb = bundle.log_rb(node, draws, disc)
        assert np.all(np.isfinite(log_rb))
        assert abs(np.mean(log_rb >= 0.0) - exact) <= 3.0 * np.sqrt(exact * (1.0 - exact) / draws.size) + 1e-4


def test_beta_binomial_cells_below_the_floor_are_evaluated_and_empty_ones_refused():
    """The floor refuses no cell of a supremum search or a prior average; a
    cell whose prior content underflows to 0 has no computable ratio and is
    refused by name.  A beta-binomial grid estimation is Monte Carlo only."""
    from relbelief import Discretization

    disc, mc = Discretization(delta=0.05), McConfig(n_sim=2000, seed=1)
    bundle = make_beta_binomial(10, 2.0, 20.0)  # the grid's cells near 1 hold about 1e-26
    assert bundle.prior_interval((0.95, 1.0)) < 1e-20
    avg, sup = bias_against_e(bundle, disc=disc, mc=mc, method="mc")
    assert avg.value <= sup.value + 3.0 * avg.se
    with pytest.raises(DomainError, match="underflows to 0"):
        bias_against_e(make_beta_binomial(10, 500.0, 1.0), disc=disc, mc=mc, method="mc")


def test_design_forwards_boundary_only(monkeypatch):
    import relbelief.bias as bias_module

    seen = []
    real = bias_module.hypothesis_bias

    def spy(*args, **kwargs):
        seen.append(kwargs.get("boundary_only"))
        return real(*args, **kwargs)

    monkeypatch.setattr(bias_module, "hypothesis_bias", spy)
    family = lambda n: locnormal(n, 0.0, 1.0)
    design_sample_size(family, 0.0, 0.5, {"max_bias_in_favor": 0.07}, [5, 50], boundary_only=False)
    assert seen == [False, False]


def test_theorem_optimality_spot_checks_on_finite_models():
    # among all data-set rules no likelier than the evidence rule under the
    # truth, the evidence rule has the largest unconditional probability; the
    # same holds prior-averaged for region rules
    rng = np.random.default_rng(2024)
    for _ in range(12):
        spec = random_finite_spec(rng, max_theta=4, max_x=6)
        bundle = make_finite(FiniteModelSpec(**spec))
        oracle = FiniteOracle(spec)
        m_x = {x: oracle.predictive(x) for x in oracle.x_labels}
        chosen = {}
        for psi in oracle.psi_labels:
            r_set = [x for x in oracle.x_labels if oracle.rb(psi, x) <= 1.0]
            r_cond = sum(oracle.m_given_psi(x, psi) for x in r_set)
            r_marg = sum(m_x[x] for x in r_set)
            admissible = []
            n_x = len(oracle.x_labels)
            for mask in range(2 ** n_x):
                d_set = [oracle.x_labels[i] for i in range(n_x) if mask >> i & 1]
                if sum(oracle.m_given_psi(x, psi) for x in d_set) <= r_cond + 1e-12:
                    admissible.append(d_set)
            for d_set in [admissible[i] for i in rng.choice(len(admissible), size=5)]:
                assert sum(m_x[x] for x in d_set) <= r_marg + 1e-12
            chosen[psi] = admissible[int(rng.integers(len(admissible)))]
        alt = sum(
            oracle.prior_psi(psi) * sum(m_x[x] for x in chosen[psi])
            for psi in oracle.psi_labels
        )
        best = sum(
            oracle.prior_psi(psi)
            * sum(m_x[x] for x in oracle.x_labels if oracle.rb(psi, x) <= 1.0)
            for psi in oracle.psi_labels
        )
        assert alt <= best + 1e-12


# -- design -----------------------------------------------------------------------


def family(n):
    return locnormal(n, 0.0, 1.0)


def test_design_meets_favor_target_at_fifty():
    result = design_sample_size(
        family, 0.0, 0.5, {"max_bias_in_favor": 0.07}, [5, 10, 20, 50, 100]
    )
    assert result.n == 50
    assert result.report.bias_in_favor == pytest.approx(0.062, abs=0.002)
    assert len(result.evaluated) == 4  # stops at the first admissible size


def test_design_meets_against_target_at_fifty():
    result = design_sample_size(
        family, 0.0, 0.5, {"max_bias_against": 0.05}, [5, 10, 20, 50, 100]
    )
    assert result.n == 50


def test_design_rejects_impossible_targets():
    with pytest.raises(DomainError, match=re.escape("target max_bias_against must lie in (0.0, 1.0), got 0.0")):
        design_sample_size(family, 0.0, 0.5, {"max_bias_against": 0.0}, [5, 10])
    with pytest.raises(DomainError, match="at least one"):
        design_sample_size(family, 0.0, 0.5, {}, [5, 10])
    with pytest.raises(DomainError, match="unknown design targets"):
        design_sample_size(family, 0.0, 0.5, {"max_bias": 0.1}, [5, 10])
    with pytest.raises(DomainError, match="ascending"):
        design_sample_size(family, 0.0, 0.5, {"max_bias_against": 0.5}, [10, 5])


@pytest.mark.parametrize(
    "n_grid", [[5.7, 10.2, 20.9], [5, 10.5], [True, 5], [5, np.bool_(True)], [5, "10"], [5, float("nan")]]
)
def test_design_refuses_a_size_that_is_not_whole(n_grid):
    """A fractional size is refused, not truncated: [5.7, 10.2, 20.9] used to
    run [5, 10, 20] and name that grid in its message."""
    built = []
    with pytest.raises(DomainError, match="n_grid"):
        design_sample_size(lambda n: built.append(n) or family(n), 0.0, 0.5, {"max_bias_in_favor": 0.001}, n_grid)
    assert built == []


def test_design_takes_whole_sizes_of_any_number_type():
    grid = [5, np.int64(10), 20.0, np.float64(50.0)]
    result = design_sample_size(family, 0.0, 0.5, {"max_bias_in_favor": 0.07}, grid)
    assert result.n == 50 and type(result.n) is int
    assert [n for n, _ in result.evaluated] == [5, 10, 20, 50]


def test_design_failure_carries_the_table():
    with pytest.raises(DesignSearchError) as err:
        design_sample_size(family, 0.0, 0.5, {"max_bias_in_favor": 0.001}, [5, 10, 20])
    assert [n for n, _ in err.value.reports] == [5, 10, 20]


# -- report invariants ---------------------------------------------------------------


def test_hypothesis_report_composition():
    report = hypothesis_bias(locnormal(5, 0.0, 1.0), 0.0, 0.5)
    assert report.method == "Exact"
    assert report.se_against == 0.0 and report.se_in_favor == 0.0
    assert report.bias_against == pytest.approx(0.143, abs=0.002)
    assert report.bias_in_favor == pytest.approx(0.631, abs=0.002)


def test_estimation_report_invariants_hold_for_every_builtin():
    report = estimation_bias(locnormal(10, 0.0, 1.0), delta=0.5)
    assert report.avg_bias_against <= report.sup_bias_against + 1e-9
    bundle = make_finite(FiniteModelSpec(**random_finite_spec(np.random.default_rng(55))))
    report = estimation_bias(bundle, delta=1.0)
    assert report.avg_bias_against <= report.sup_bias_against + 1e-9


def test_weak_data_average_bias_against_converges_on_the_node_ladder():
    # 64 vs 128 nodes differ by 1.5e-5 relative; 128 vs 256 by 1e-7
    import warnings

    from scipy import integrate, stats

    spec = LocationNormalSpec(n=2, sigma0_sq=4.0, mu_star=0.0, tau_star_sq=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        avg, _ = bias_against_e(make_location_normal(spec), method="auto")
    assert (avg.method, avg.fallback, avg.se) == ("Exact", False, 0.0)

    def integrand(m):
        return (1.0 - favor_prob_locnormal(spec, m, m)) * stats.norm.pdf(m)

    left, _ = integrate.quad(integrand, -9.0, 0.0, limit=200)
    right, _ = integrate.quad(integrand, 0.0, 9.0, limit=200)
    assert avg.value == pytest.approx(left + right, rel=1e-6)


@pytest.mark.parametrize("sigma0_sq", [30.0, 100.0, 1000.0])
def test_weak_data_average_bias_against_is_exact_off_the_node_ladder(sigma0_sq):
    # the Gauss-Hermite ladder does not settle here; adaptive quadrature takes over
    import warnings

    spec = LocationNormalSpec(n=1, sigma0_sq=sigma0_sq, mu_star=0.0, tau_star_sq=1.0)
    bundle = make_location_normal(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        avg, _ = bias_against_e(bundle)
    assert (avg.method, avg.fallback, avg.se) == ("Exact", False, 0.0)
    m = np.linspace(-12.0, 12.0, 2_000_001)
    dense = np.trapezoid((1.0 - favor_prob_locnormal(spec, m, m)) * np.exp(-m * m / 2.0) / np.sqrt(2.0 * np.pi), m)
    assert avg.value == pytest.approx(dense, abs=1e-9)
    est, _ = bias_against_e(bundle, mc=McConfig(n_sim=20_000, seed=3), method="mc")
    assert _within_3se(est.value, est.se, avg.value)


@pytest.mark.parametrize("n_sim", [1, 0])
def test_mc_config_needs_two_replications_for_a_standard_error(n_sim):
    with pytest.raises(DomainError, match="n_sim"):
        McConfig(n_sim=n_sim)
    comp = bias_in_favor_e(locnormal(5, 0.0, 1.0), 0.5, mc=McConfig(n_sim=2, seed=1), method="mc")
    assert np.isfinite(comp.se)


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**64 + 5, 1.5, "5"])
def test_mc_config_refuses_a_seed_outside_64_bits(seed):
    # the stream key is 64 bits: -5 would run the stream of 2**64 - 5
    with pytest.raises(DomainError, match="seed"):
        McConfig(seed=seed)


def test_mc_config_accepts_every_64_bit_seed():
    bundle = locnormal(5, 0.0, 1.0)
    for seed in (0, 2**63, 2**64 - 1):
        comp = bias_against_h(bundle, 0.0, mc=McConfig(n_sim=100, seed=seed), method="mc")
        assert comp.method == "MonteCarlo"


# the six public bias functions and the design search: name -> (assesses
# psi0 = 0.2, call on a bundle and a grid)
_GRID_CALLS = {
    "bias_against_h": (True, lambda b, disc: bias_against_h(b, 0.2, disc=disc)),
    "bias_in_favor_h": (True, lambda b, disc: bias_in_favor_h(b, 0.2, 0.5, disc=disc)),
    "hypothesis_bias": (True, lambda b, disc: hypothesis_bias(b, 0.2, 0.5, disc=disc)),
    "design_sample_size": (True, lambda b, disc: design_sample_size(
        lambda n: b, 0.2, 0.5, {"max_bias_in_favor": 0.9}, [10], disc=disc)),
    "bias_against_e": (False, lambda b, disc: bias_against_e(b, disc=disc)),
    "bias_in_favor_e": (False, lambda b, disc: bias_in_favor_e(b, 0.5, disc=disc)),
    "estimation_bias": (False, lambda b, disc: estimation_bias(b, 0.5, disc=disc)),
}


@pytest.mark.parametrize("name", sorted(_GRID_CALLS))
def test_bias_functions_refuse_the_grid_keys_they_ignore(name):
    """A bias reads only the grid's ``delta``: its cell is anchored at the
    value assessed, so a ``range`` or another ``anchor`` is refused, not
    ignored (they used to leave every value unchanged)."""
    from relbelief import Discretization

    hypothesis, fn = _GRID_CALLS[name]
    call = lambda disc: fn(locnormal(10, 0.0, 1.0), disc)
    with pytest.raises(DomainError, match="range"):
        call(Discretization(delta=0.1, range=(3.0, 4.0)))
    with pytest.raises(DomainError, match="anchor"):
        call(Discretization(delta=0.1, anchor=3.5))
    with pytest.raises(DomainError, match="range"):
        call(Discretization(delta=0.1, range=(3.0, 4.0), anchor=0.2))
    plain = call(Discretization(delta=0.1))
    if hypothesis:
        # the hypothesized value is where the cell is anchored anyway
        assert call(Discretization(delta=0.1, anchor=0.2)) == plain
    else:
        with pytest.raises(DomainError, match="anchor"):
            call(Discretization(delta=0.1, anchor=0.0))


def test_bias_against_h_on_a_delta_only_grid_is_the_anchored_cell_value():
    from relbelief import Discretization

    comp = bias_against_h(locnormal(10, 0.0, 1.0), 0.2, disc=Discretization(delta=0.1))
    assert comp.value == pytest.approx(0.0983259, abs=1e-7)


@pytest.mark.parametrize("method", ["Exact", "MonteCarlo", "EXACT", None])
def test_only_the_documented_method_names_are_accepted(method):
    with pytest.raises(DomainError, match="unknown method"):
        bias_against_h(locnormal(5, 0.0, 1.0), 0.0, method=method)


# -- report invariants ---------------------------------------------------------------


_H_REPORT = dict(psi0=0.0, delta=0.5, bias_against=0.2, bias_in_favor=0.3, se_against=0.0, se_in_favor=0.0,
                 method="Exact")
_E_REPORT = dict(avg_bias_against=0.2, sup_bias_against=0.4, avg_bias_in_favor=0.3, implied_coverage=0.8,
                 delta=0.5, se_avg_against=0.0, se_sup_against=0.0, se_avg_in_favor=0.0, method="Exact")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BiasComponent(value=1.5, se=0.0, method="Exact"), "bias probability out of [0, 1]: 1.5"),
        (lambda: BiasComponent(value=0.5, se=0.01, method="Exact"), "exact components must carry zero standard error"),
        (lambda: BiasHReport(**dict(_H_REPORT, bias_in_favor=-0.5)), "bias probability out of [0, 1]: -0.5"),
        (lambda: BiasHReport(**dict(_H_REPORT, se_in_favor=0.01)), "exact reports must carry zero standard errors"),
        (lambda: BiasEReport(**dict(_E_REPORT, implied_coverage=0.7)),
         "implied coverage must equal 1 - average bias against"),
        (lambda: BiasEReport(**dict(_E_REPORT, sup_bias_against=0.1)),
         "average bias against (0.2) exceeds its upper bound (0.1)"),
        (lambda: ConflictReport(tail_prob=1.5, t_obs=0.0, threshold=0.05, verdict=ConflictVerdict.NO_CONFLICT),
         "tail probability out of [0, 1]: 1.5"),
        (lambda: EvidenceVerdict(kind=Verdict.AGAINST, rb=-1.0), "relative belief ratio must be nonnegative, got -1.0"),
        (lambda: HypothesisAssessment(psi0=0.0, rb0=0.5, strength=0.9, verdict=EvidenceVerdict.from_rb(0.5),
                                      markov_lower=0.95, markov_upper=0.5), "strength 0.9 violates its bounds"),
    ],
    ids=["component-value", "component-exact-se", "h-value", "h-exact-se", "e-coverage", "e-average-above-sup",
         "conflict-tail", "verdict-rb", "strength-bounds"],
)
def test_reports_refuse_impossible_values(make, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        make()
