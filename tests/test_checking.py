"""Prior-data conflict checks."""

import math

import numpy as np
import pytest
from scipy import stats

from relbelief import (
    ConflictVerdict,
    DomainError,
    FiniteModelSpec,
    LocationNormalSpec,
    McConfig,
    conflict_check,
    make_beta_binomial,
    make_finite,
    make_location_normal,
)
from relbelief.checking import locnormal_tail_prob
from relbelief.rng import substream

from oracle import FiniteOracle, random_finite_spec


def locnormal(n=5, mu_star=0.0, tau_sq=1.0, sigma0_sq=1.0):
    return make_location_normal(
        LocationNormalSpec(n=n, sigma0_sq=sigma0_sq, mu_star=mu_star, tau_star_sq=tau_sq)
    )


def test_data_at_prior_mean_shows_no_surprise():
    report = conflict_check(locnormal(), 0.0)
    assert report.tail_prob == 1.0
    assert report.verdict is ConflictVerdict.NO_CONFLICT


def test_three_sigma_tail_probability():
    bundle = locnormal(n=4, mu_star=0.0, tau_sq=1.0)
    sd = math.sqrt(1.0 + 1.0 / 4)
    report = conflict_check(bundle, 3.0 * sd)
    assert report.tail_prob == pytest.approx(2 * (1 - stats.norm.cdf(3.0)), rel=1e-9)
    assert report.verdict is ConflictVerdict.CONFLICT


def test_threshold_controls_verdict():
    bundle = locnormal()
    xbar = 2.0  # tail probability about 0.068
    assert conflict_check(bundle, xbar, threshold=0.05).verdict is ConflictVerdict.NO_CONFLICT
    assert conflict_check(bundle, xbar, threshold=0.10).verdict is ConflictVerdict.CONFLICT
    with pytest.raises(DomainError):
        conflict_check(bundle, xbar, threshold=1.5)


def test_finite_check_matches_bruteforce_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(10):
        spec = random_finite_spec(rng)
        bundle = make_finite(FiniteModelSpec(**spec))
        oracle = FiniteOracle(spec)
        for x in spec["x_labels"]:
            report = conflict_check(bundle, x)
            assert report.tail_prob == pytest.approx(oracle.conflict_tail(x), abs=1e-12)


def test_beta_binomial_check_enumerates_counts():
    bundle = make_beta_binomial(10, 5.0, 1.0)
    # all low counts are at most as likely as s=0 under this right-skewed prior
    report = conflict_check(bundle, 0)
    pred = np.exp(bundle.log_predictive())
    expected = pred[pred <= pred[0]].sum()
    assert report.tail_prob == pytest.approx(float(expected), rel=1e-12)


def test_mc_agrees_with_closed_form():
    bundle = locnormal(n=10, mu_star=1.0, tau_sq=2.0)
    xbar = 3.1
    exact = conflict_check(bundle, xbar).tail_prob
    mc = conflict_check(bundle, xbar, mc=McConfig(n_sim=50_000, seed=3), method="mc")
    se = math.sqrt(exact * (1 - exact) / 50_000)
    assert abs(mc.tail_prob - exact) <= 3 * se


def test_tail_probability_is_uniform_under_the_predictive():
    bundle = locnormal(n=5, mu_star=0.5, tau_sq=1.5)
    mean, var = bundle.prior_predictive_params()
    rng = substream(202306, "uniformity")
    draws = mean + math.sqrt(var) * rng.standard_normal(4000)
    tails = np.array([locnormal_tail_prob(bundle, t) for t in draws])
    dist = stats.kstest(tails, "uniform").statistic
    assert dist < 0.03


def test_check_converges_to_prior_surprise_with_data():
    # with the data mean pinned at the true mean, the check converges to the
    # tail probability of the true mean under the prior itself
    mu_true, mu_star, tau = 2.0, 0.0, 1.0
    limit = 2 * (1 - stats.norm.cdf(abs(mu_true - mu_star) / tau))
    for n in (100, 10_000, 1_000_000):
        bundle = locnormal(n=n, mu_star=mu_star, tau_sq=tau**2)
        report = conflict_check(bundle, mu_true)
        assert report.tail_prob == pytest.approx(limit, abs=0.01)


@pytest.mark.parametrize("method", ["Exact", "MonteCarlo"])
def test_conflict_check_shares_the_bias_method_names(method):
    with pytest.raises(DomainError, match="unknown method"):
        conflict_check(locnormal(), 0.3, method=method)


# data -> (exact tail, Monte Carlo tail at n_sim 4000, seed 11), recorded
# before the conflict check became one path over the bundles; the finite
# model has zero prior theta, zero likelihood entries and grouped labels
RECORDED_TAILS = {
    "location_normal": (
        lambda: locnormal(n=10, mu_star=1.0, tau_sq=2.0),
        {-2.5: (0.01572529975450543, 0.0155), 0.0: (0.490152960415825, 0.502), 1.0: (1.0, 1.0),
         3.1: (0.14729913862267607, 0.145), 4.2: (0.02722965227097962, 0.0255)},
    ),
    "beta_binomial": (
        lambda: make_beta_binomial(12, 2.0, 5.0),
        {0: (0.29713423831070856, 0.2955), 1: (0.6841736694677862, 0.68575), 3: (0.8382352941176461, 0.839),
         6: (0.19909502262443404, 0.19975), 9: (0.03167420814479636, 0.034),
         12: (0.0007002801120448187, 0.00125)},
    ),
    "finite": (
        lambda: make_finite(FiniteModelSpec(
            theta_labels=["t0", "t1", "t2", "t3"],
            prior=[0.4, 0.0, 0.35, 0.25],
            likelihood=[[0.5, 0.0, 0.3, 0.2, 0.0],
                        [0.2, 0.2, 0.2, 0.2, 0.2],
                        [0.0, 0.1, 0.1, 0.0, 0.8],
                        [0.25, 0.25, 0.0, 0.45, 0.05]],
            x_labels=["x0", "x1", "x2", "x3", "x4"],
            psi_of_theta=["a", "b", "a", "c"],
        )),
        {"x0": (0.7075, 0.716), "x1": (0.0975, 0.09475), "x2": (0.2525, 0.2595), "x3": (0.445, 0.45075),
         "x4": (1.0, 1.0)},
    ),
}


@pytest.mark.parametrize("kind", list(RECORDED_TAILS))
def test_mc_check_matches_recorded_values(kind):
    build, recorded = RECORDED_TAILS[kind]
    bundle = build()
    for x, (exact, tail) in recorded.items():
        report = conflict_check(bundle, x, mc=McConfig(n_sim=4000, seed=11), method="mc")
        assert (report.tail_prob, report.t_obs) == (tail, x)
        assert conflict_check(bundle, x).tail_prob == exact
        assert abs(tail - exact) <= 3 * math.sqrt(max(exact * (1 - exact), 1e-12) / 4000)
