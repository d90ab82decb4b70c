"""Bundle construction, validation, and sampler/density consistency."""

import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from relbelief import (
    Discretization,
    DomainError,
    FiniteModelSpec,
    LocationNormalSpec,
    McConfig,
    conflict_check,
    make_beta_binomial,
    make_finite,
    make_location_normal,
    rb_profile,
)
from relbelief import models
from relbelief.models import (
    _binomial, _cumulative_rows, _inverse_cdf, _inversion_thresholds, beta_interval_prob, build_cells,
    normal_interval_prob,
)
from relbelief.rng import substream

from oracle import random_finite_spec


# -- construction and validation ---------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0),
        dict(n=5, sigma0_sq=0.0, mu_star=0.0, tau_star_sq=1.0),
        dict(n=5, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=-1.0),
    ],
)
def test_location_normal_spec_validation(kwargs):
    with pytest.raises(DomainError):
        LocationNormalSpec(**kwargs)


# (sigma0_sq, tau_star_sq) at n=1: the precision ratio a = tau_star_sq / sigma0_sq
# underflows to 0 (the favor window divided by zero) or overflows to inf (its
# radius became NaN); its square just fits at 1e154 and at 1e-154.
DEGENERATE_PRECISION = [(1e300, 1e-300), (1e-300, 1e300)]
EXTREME_PRECISION = [(1e-77, 1e77), (1e77, 1e-77)]


@pytest.mark.parametrize("sigma0_sq, tau_star_sq", DEGENERATE_PRECISION)
def test_location_normal_spec_refuses_a_precision_ratio_without_a_finite_window(sigma0_sq, tau_star_sq):
    with pytest.raises(DomainError, match="precision ratio"):
        LocationNormalSpec(n=1, sigma0_sq=sigma0_sq, mu_star=0.0, tau_star_sq=tau_star_sq)


@pytest.mark.parametrize("sigma0_sq, tau_star_sq", EXTREME_PRECISION)
def test_location_normal_spec_just_inside_the_precision_rule_has_exact_biases(sigma0_sq, tau_star_sq):
    from relbelief import hypothesis_bias

    bundle = make_location_normal(LocationNormalSpec(n=1, sigma0_sq=sigma0_sq, mu_star=0.0, tau_star_sq=tau_star_sq))
    report = hypothesis_bias(bundle, 0.0, math.sqrt(tau_star_sq))
    assert report.method == "Exact"
    assert 0.0 <= report.bias_against <= 1.0 and 0.0 <= report.bias_in_favor <= 1.0


def test_beta_binomial_validation():
    with pytest.raises(DomainError):
        make_beta_binomial(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        make_beta_binomial(10, -1.0, 1.0)
    with pytest.raises(DomainError):
        make_beta_binomial(10, 1.0, 0.0)
    for rate in (0.0, 1.0):
        with pytest.raises(DomainError, match=r"success rate must lie strictly inside \(0, 1\)"):
            make_beta_binomial(10, 1.0, 1.0).log_rb_point(rate, 3)


@pytest.mark.parametrize("n", [2**1024, 10**400], ids=["2**1024", "10**400"])
def test_location_normal_sample_size_beyond_a_float_is_a_domain_error(n):
    with pytest.raises(DomainError, match="sample size n") as info:
        LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1e-300)
    assert len(str(info.value)) < 100  # names the size in bits, not all its digits
    # the largest sizes that still convert keep their precision ratio
    assert LocationNormalSpec(n=2**1023, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1e-300).n == 2**1023


@pytest.mark.parametrize(
    "n", [2**60 - 1, 2**61, 2**63 - 1, 2**63, 2**64, 10**400, np.uint64(2**64 - 1)],
    ids=["2**60-1", "2**61", "2**63-1", "2**63", "2**64", "10**400", "uint64-max"],
)
def test_beta_binomial_count_beyond_an_array_length_is_a_domain_error(n):
    # from 2**60 np.arange(n + 1) of 8-byte entries raised ValueError ("array is
    # too big"), at 2**63 it used to be empty
    with pytest.raises(DomainError, match="number of trials n") as info:
        make_beta_binomial(n, 1.0, 1.0)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("n, alpha, beta", [(1, 1.0, 1.0), (10, 2.5, 1.5), (200, 0.3, 7.0)])
def test_beta_binomial_log_pmfs_match_their_closed_forms_bit_for_bit(n, alpha, beta):
    from scipy import special

    bundle = make_beta_binomial(n, alpha, beta)
    s = np.arange(n + 1)
    logc = special.gammaln(n + 1) - special.gammaln(s + 1) - special.gammaln(n - s + 1)
    predictive = logc + special.betaln(alpha + s, beta + n - s) - special.betaln(alpha, beta)
    assert np.array_equal(bundle.log_predictive(), predictive)
    theta = np.array([0.0, 0.2, 0.5, 0.93, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        sampling = logc + s * np.log(theta)[:, None] + (n - s) * np.log1p(-theta)[:, None]
    assert np.array_equal(bundle.log_sampling_pmf(theta), sampling, equal_nan=True)


def test_finite_spec_rejects_non_stochastic_rows():
    with pytest.raises(DomainError, match="sum to 1"):
        FiniteModelSpec(
            theta_labels=["t0", "t1"],
            prior=[0.5, 0.5],
            likelihood=[[0.7, 0.7], [0.5, 0.5]],
            x_labels=["x0", "x1"],
        )
    with pytest.raises(DomainError, match="prior"):
        FiniteModelSpec(
            theta_labels=["t0", "t1"],
            prior=[0.5, 0.6],
            likelihood=[[0.5, 0.5], [0.5, 0.5]],
            x_labels=["x0", "x1"],
        )


def test_conjugate_posterior_parameters():
    bundle = make_location_normal(LocationNormalSpec(n=1, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0))
    mean, var = bundle.posterior_params(0.0)
    assert mean == pytest.approx(0.0)
    assert var == pytest.approx(0.5)

    bb = make_beta_binomial(1, 1.0, 1.0)
    assert bb.posterior_params(1) == (2.0, 1.0)
    bb = make_beta_binomial(10, 1.0, 1.0)
    a_post, b_post = bb.posterior_params(5)
    assert (a_post, b_post) == (6.0, 6.0)


# -- data reduction ------------------------------------------------------------


def test_reduce_data_accepts_statistic_and_sample():
    bundle = make_location_normal(LocationNormalSpec(n=4, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0))
    assert bundle.reduce_data(0.3) == 0.3
    assert bundle.reduce_data((4, 0.3)) == 0.3
    assert bundle.reduce_data([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)
    # check.csv writes t_obs from the statistic: a Python float, and a Python int below
    assert type(bundle.reduce_data([1.0, 2.0, 3.0, 4.0])) is float and type(bundle.reduce_data(2)) is float
    with pytest.raises(DomainError):
        bundle.reduce_data([1.0, 2.0])
    with pytest.raises(DomainError):
        bundle.reduce_data((5, 0.3))
    with pytest.raises(DomainError, match="n=4.7"):  # it passed as n=4
        bundle.reduce_data((4.7, 0.3))

    bb = make_beta_binomial(4, 1.0, 1.0)
    assert bb.reduce_data(3) == 3
    assert bb.reduce_data([1, 0, 1, 1]) == 3
    assert type(bb.reduce_data([1, 0, 1, 1])) is int and type(bb.reduce_data(np.float64(3.0))) is int
    with pytest.raises(DomainError):
        bb.reduce_data(7)
    with pytest.raises(DomainError):
        bb.reduce_data([1, 2, 0, 0])
    assert bb.reduce_data((4, 3)) == 3
    with pytest.raises(DomainError, match="n=5"):
        bb.reduce_data((5, 3))
    assert bb.reduce_data((4.0, 3.0)) == 3 and bb.reduce_data(np.float64(2.0)) == 2
    # fractional entries are refused, never truncated
    with pytest.raises(DomainError, match="success count must be a whole number, got 2.5"):
        bb.reduce_data((4, 2.5))  # it returned 2
    with pytest.raises(DomainError, match="n=4.9"):
        bb.reduce_data((4.9, 3))  # it passed as n=4
    with pytest.raises(DomainError, match="success count must be a whole number, got 2.5"):
        bb.reduce_data(2.5)  # it was named a raw sample


@pytest.mark.parametrize(
    "kind, data, message",
    [
        ("location_normal", [1e308] * 200 + [-1e308] * 200, "the data mean must be finite, got nan"),
        ("location_normal", [1e308] * 400, "the data mean must be finite, got inf"),
        ("location_normal", (400, math.nan), "the data mean must be finite, got nan"),
        ("location_normal", -math.inf, "the data mean must be finite, got -inf"),
        ("location_normal", [1.0, "x", 2.0, 3.0], "raw sample cannot be read as an array of floats"),
        ("beta_binomial", [1, 0, "x", 1], "raw sample cannot be read as an array of floats"),
        ("beta_binomial", [1, 0, math.nan, 1], "raw binomial sample entries must be 0 or 1"),
        ("beta_binomial", math.nan, "success count must be a whole number, got nan"),
        ("beta_binomial", 10**400, "success count must lie in [0, 4], got 1000"),
        ("location_normal", 10**400, "the data mean must be finite, got a number beyond the float range"),
        ("location_normal", ["1.0", "2.0", "3.0", "4.0"], "raw sample cannot be read as an array of floats"),
        ("beta_binomial", ["1", "0", "1", "1"], "raw sample cannot be read as an array of floats"),
        ("beta_binomial", [True, False, True, True], "raw sample cannot be read as an array of floats"),
    ],
    ids=["mean-overflows-to-nan", "mean-overflows-to-inf", "pair-nan", "minus-inf", "ln-not-a-number",
         "bb-not-a-number", "bb-nan-entry", "bb-nan", "bb-huge-int", "ln-huge-int", "ln-numeric-strings",
         "bb-numeric-strings", "bb-bools"],
)
def test_continuous_reduce_data_refuses_what_is_no_statistic(kind, data, message):
    # a sample mean that overflowed passed as NaN, and a non-numeric entry
    # raised ValueError
    bundle = (make_location_normal(LocationNormalSpec(n=400, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0))
              if kind == "location_normal" else make_beta_binomial(4, 1.0, 1.0))
    with np.errstate(all="raise"):  # the reducer itself leaves no floating-point warning
        with pytest.raises(DomainError, match=re.escape(message)):
            bundle.reduce_data(data)


def test_finite_bundle_refuses_a_discretization():
    bundle = make_finite(FiniteModelSpec(**random_finite_spec(np.random.default_rng(0))))
    disc = Discretization(delta=0.1)
    calls = (lambda: rb_profile(bundle, 0, disc), lambda: bundle.log_rb(0, 0, disc),
             lambda: bundle.region_prob(0, 0, disc))
    for call in calls:
        with pytest.raises(DomainError, match="discretization"):
            call()


def test_finite_reduce_data():
    spec = random_finite_spec(np.random.default_rng(0))
    bundle = make_finite(FiniteModelSpec(**spec))
    assert bundle.reduce_data("x0") == 0
    assert bundle.reduce_data(1) == 1
    with pytest.raises(DomainError):
        bundle.reduce_data("nope")
    with pytest.raises(DomainError, match="finite-model data must be a label or an index"):
        bundle.reduce_data(0.5)
    certain = make_finite(FiniteModelSpec(["t0", "t1"], [1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], ["x0", "x1"]))
    with pytest.raises(DomainError, match="observed outcome 'x1' has zero prior predictive probability"):
        certain.reduce_data("x1")


# -- sampler vs density consistency -------------------------------------------


def _prior_draws(bundle):
    return bundle.sample_prior(substream(11, "prior-consistency"), 100_000)


def test_prior_sampler_matches_prior_cdf_location_normal():
    spec = LocationNormalSpec(n=5, sigma0_sq=2.0, mu_star=1.5, tau_star_sq=0.7)
    prior = stats.norm(spec.mu_star, math.sqrt(spec.tau_star_sq))
    assert stats.kstest(_prior_draws(make_location_normal(spec)), prior.cdf).statistic < 0.01


def test_prior_sampler_matches_prior_cdf_beta():
    draws = _prior_draws(make_beta_binomial(10, 2.5, 1.5))
    assert stats.kstest(draws, stats.beta(2.5, 1.5).cdf).statistic < 0.01


def test_prior_predictive_of_mean_matches_quadrature():
    # the predictive density of the sample mean, computed by integrating the
    # sampling density against the prior, against the closed form
    spec = LocationNormalSpec(n=7, sigma0_sq=1.3, mu_star=0.4, tau_star_sq=2.1)
    bundle = make_location_normal(spec)
    mean, var = bundle.prior_predictive_params()
    assert mean == spec.mu_star
    assert var == pytest.approx(spec.tau_star_sq + spec.sigma0_sq / spec.n)

    stat_sd = math.sqrt(spec.sigma0_sq / spec.n)
    tau = math.sqrt(spec.tau_star_sq)
    for t in (-2.0, 0.0, 0.4, 1.7, 3.5):
        numeric, _ = integrate.quad(
            lambda mu: stats.norm.pdf(t, mu, stat_sd) * stats.norm.pdf(mu, spec.mu_star, tau),
            spec.mu_star - 12 * tau,
            spec.mu_star + 12 * tau,
            limit=300,
        )
        closed = stats.norm.pdf(t, mean, math.sqrt(var))
        assert numeric == pytest.approx(closed, abs=1e-10)


def test_finite_predictive_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        bundle = make_finite(FiniteModelSpec(**random_finite_spec(rng)))
        assert abs(bundle.predictive.sum() - 1.0) <= 1e-12


def test_finite_predictive_given_psi_is_a_row_of_the_cached_table():
    spec = random_finite_spec(np.random.default_rng(8))
    spec["prior"] = [0.0] + [p / sum(spec["prior"][1:]) for p in spec["prior"][1:]]
    spec["psi_of_theta"] = [f"q{i}" for i in range(len(spec["prior"]))]
    bundle = make_finite(FiniteModelSpec(**spec))
    for table in (bundle.predictive_psi, bundle.rb_psi_table()):
        assert not table.flags.writeable
    with pytest.raises(DomainError, match="zero prior probability"):
        bundle.predictive_given_psi(0)
    with pytest.raises(DomainError, match="interest value 'q0' has zero prior probability"):
        bundle.cond_prior_given_psi(0)
    assert np.all(np.isnan(bundle.rb_psi_table()[0]))
    for j in range(1, len(bundle.psi_labels)):
        direct = bundle.cond_prior_given_psi(j) @ bundle.like
        np.testing.assert_allclose(bundle.predictive_given_psi(j), direct, rtol=0, atol=1e-15)


# -- finite draws ------------------------------------------------------------


def _dense_draws(bundle, rng, size, cond_prior=None):
    """The outcome draw as a ``size x |X|`` comparison matrix: the x index is
    the count of cumulative row entries below ``u * row total``."""
    weights = bundle.prior if cond_prior is None else cond_prior
    cum_theta = np.cumsum(weights)
    u_theta = rng.random(size)
    theta_idx = np.searchsorted(cum_theta, u_theta * cum_theta[-1], side="right")
    theta_idx = np.clip(theta_idx, 0, len(weights) - 1)
    cum_rows = np.cumsum(bundle.like, axis=1)
    u_x = rng.random(size)
    row_cum = cum_rows[theta_idx]
    x_idx = (u_x[:, None] * row_cum[:, -1:] > row_cum).sum(axis=1)
    x_idx = np.clip(x_idx, 0, len(bundle.x_labels) - 1)
    return bundle.psi_index_of_theta[theta_idx], x_idx


# Theta counts and outcome widths on both sides of powers of two, where the
# padded search table of a draw changes its number of halvings.
DRAW_WIDTHS = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40)


@st.composite
def finite_tables(draw):
    """Tables of every width in ``DRAW_WIDTHS``, with zero-prior thetas
    (first and last among them), zero likelihood entries (trailing ones tie
    the end of a cumulative row), a single theta or outcome, and grouped
    interest labels.  The entries come from a drawn numpy seed."""
    k, m = draw(st.sampled_from(DRAW_WIDTHS)), draw(st.sampled_from(DRAW_WIDTHS))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))
    prior = gen.uniform(0.01, 1.0, k) * (gen.random(k) >= zeros)
    if draw(st.booleans()):
        prior[0] = 0.0
    if draw(st.booleans()):
        prior[-1] = 0.0
    if not prior.any():
        prior[k // 2] = 1.0
    rows = gen.uniform(0.01, 1.0, (k, m)) * (gen.random((k, m)) >= zeros)
    trailing = draw(st.integers(0, m - 1))
    rows[gen.random(k) < 0.5, m - trailing:] = 0.0
    rows[~rows.any(axis=1), 0] = 1.0
    groups = gen.integers(0, k, k)
    return {
        "theta_labels": [f"t{i}" for i in range(k)],
        "prior": (prior / prior.sum()).tolist(),
        "likelihood": (rows / rows.sum(axis=1, keepdims=True)).tolist(),
        "x_labels": [f"x{j}" for j in range(m)],
        "psi_of_theta": [f"p{g}" for g in groups],
    }


@settings(max_examples=300, deadline=None)
@given(table=finite_tables(), size=st.sampled_from([1, 2, 17, 600]), seed=st.integers(0, 2**32 - 1))
def test_finite_draws_equal_the_dense_inverse_cdf(table, size, seed):
    bundle = make_finite(FiniteModelSpec(**table))
    draws = bundle.sample_joint(np.random.default_rng(seed), size)
    for got, want in zip(draws, _dense_draws(bundle, np.random.default_rng(seed), size)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for j in np.flatnonzero(bundle.prior_psi > 0.0):
        cond = bundle.cond_prior_given_psi(j)
        got = bundle.sample_stat(np.random.default_rng(seed), j, size)
        np.testing.assert_array_equal(got, _dense_draws(bundle, np.random.default_rng(seed), size, cond)[1])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.sampled_from(DRAW_WIDTHS), strict=st.booleans())
def test_inverse_cdf_counts_as_searchsorted_with_the_last_index_capped(data, width, strict):
    """Rows with ties and zeros, and uniforms at 0 and at 1: a target equal
    to the row total counts every entry, which the cap takes back to the
    last index (only 1 reaches it; a drawn uniform stays below 1)."""
    weight = st.sampled_from([0.0, 0.25, 1.0, 3.0])
    weights = np.array(data.draw(st.lists(st.lists(weight, min_size=width, max_size=width), min_size=1, max_size=4)))
    u = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 1.0]) | st.floats(0.0, 1.0),
                                    min_size=1, max_size=20)))
    rows = np.arange(len(u)) % len(weights)
    cum = np.cumsum(weights, axis=1)
    side = "left" if strict else "right"
    want = [min(np.searchsorted(cum[r], v * cum[r, -1], side=side), width - 1) for r, v in zip(rows, u)]
    got = _inverse_cdf(_cumulative_rows(weights), width, u, rows=rows, strict=strict)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("shape", [(3, 2), (17, 9), (40, 33)])
def test_finite_mc_conflict_tail_is_the_share_of_dense_draws(shape, seed):
    """The Monte Carlo tail of a finite conflict check, bit for bit, from
    the dense inverse-CDF draws of its stream."""
    gen = np.random.default_rng(seed)
    k, m = shape
    rows = gen.uniform(size=(k, m))
    bundle = make_finite(FiniteModelSpec(
        [f"t{i}" for i in range(k)], gen.dirichlet(np.ones(k)).tolist(),
        (rows / rows.sum(axis=1, keepdims=True)).tolist(), [f"x{j}" for j in range(m)],
        [f"p{i % 4}" for i in range(k)],
    ))
    t = int(gen.integers(m))
    report = conflict_check(bundle, t, mc=McConfig(n_sim=20_000, seed=seed), method="mc")
    x = _dense_draws(bundle, substream(seed, "conflict-check"), 20_000)[1]
    assert report.tail_prob == min(float(np.mean(bundle.predictive[x] <= bundle.predictive[t])), 1.0)


def test_finite_joint_draw_allocates_no_size_by_outcomes_array():
    """Neither the joint draw nor the conditional one (``sample_stat``)."""
    rows = np.random.default_rng(1).uniform(size=(200, 400))
    rows /= rows.sum(axis=1, keepdims=True)
    bundle = make_finite(FiniteModelSpec(
        [f"t{i}" for i in range(200)], [1 / 200] * 200, rows.tolist(), [f"x{j}" for j in range(400)],
    ))
    size = 20_000
    for draw in (lambda rng: bundle.sample_joint(rng, size), lambda rng: bundle.sample_stat(rng, 3, size)):
        draw(np.random.default_rng(2))
        tracemalloc.start()
        try:
            draw(np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size * 400 * 8 / 10


def test_substream_path_parts_are_ints_or_strings():
    assert substream(1, "a", 2).random() == substream(1, "a", np.int64(2)).random()
    with pytest.raises(TypeError, match="substream path parts must be int or str"):
        substream(1, 0.5)


@pytest.mark.parametrize("n, theta", [(20, 0.2), (40, 0.5), (7, 0.93)])
def test_beta_binomial_scalar_draw_matches_an_array_of_rates(n, theta):
    bundle = make_beta_binomial(n, 2.0, 3.0)
    got = bundle.sample_stat(np.random.default_rng(5), theta, 5000)
    np.testing.assert_array_equal(got, np.random.default_rng(5).binomial(n, np.full(5000, theta)))


@st.composite
def fixed_rate_cases(draw):
    """(n, p, size) for one fixed-rate binomial draw: rates anywhere in
    [0, 1], rates where numpy switches from inversion to BTPE (n * min(p,
    1 - p) just below, at and above 30, on both sides of 1/2), and n near
    2^59 with rates so small that 1 - p rounds to 1."""
    kind = draw(st.sampled_from(["any", "switch", "huge"]))
    if kind == "huge":
        n, p = draw(st.integers(2**59 - 1024, 2**59 + 1024)), draw(st.floats(1e-19, 5e-17))
    elif kind == "switch":
        n = draw(st.integers(61, 400))
        p = draw(st.sampled_from([np.nextafter(30.0 / n, 0.0), 30.0 / n, np.nextafter(30.0 / n, 1.0)]))
        p = 1.0 - p if draw(st.booleans()) else p
    else:
        n = draw(st.integers(1, 400))
        p = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0) | st.floats(0.0, min(1.0, 30.0 / n)))
    return n, float(p), draw(st.integers(1, 5000))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=fixed_rate_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=(1, 0.5, 1), seed=0)
@example(case=(400, 0.07, 5000), seed=1)
@example(case=(400, 0.0, 10), seed=2)
@example(case=(400, 1.0, 10), seed=3)
@example(case=(60, 0.5, 100), seed=4)
@example(case=(2**59, 1e-17, 2000), seed=5)
def test_fixed_rate_binomial_is_numpys_draw_for_draw(case, seed):
    """The threshold-table sampler returns ``Generator.binomial``'s counts
    and dtype, and leaves the stream where numpy leaves it."""
    n, p, size = case
    got_rng, want_rng = substream(seed, "binomial"), substream(seed, "binomial")
    got, want = _binomial(got_rng, n, p, size), want_rng.binomial(n, p, size)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


def test_fixed_rate_binomial_without_a_bracketed_table_is_numpys(monkeypatch):
    monkeypatch.setattr(models, "_inversion_thresholds", lambda n, p: None)
    got_rng, want_rng = substream(1, "binomial"), substream(1, "binomial")
    np.testing.assert_array_equal(models._binomial(got_rng, 20, 0.3, 500), want_rng.binomial(20, 0.3, 500))
    np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.5])
def test_fixed_rate_binomial_keeps_numpys_error(p):
    with pytest.raises(ValueError) as want:
        substream(1, "binomial").binomial(20, p, 10)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        _binomial(substream(1, "binomial"), 20, p, 10)


# PCG64 steps its 128-bit state S to S * mult + inc and outputs
# rotr64(hi ^ lo, hi >> 58) of the new state; Generator.random takes the top
# 53 bits of that output.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_INC = 0xDA3E39CB94B95BDB  # any odd increment
_MASK64 = 2**64 - 1


def _first_uniform(u: float) -> np.random.Generator:
    """A generator whose first uniform is ``u``, a multiple of 2^-53 in
    [0, 1): set the new state's high word freely, its low word so that the
    output is ``u``'s bits, and step the state back once."""
    t = int(u * 2.0**53) << 11
    hi = 0x9E3779B97F4A7C15
    r = hi >> 58
    lo = (((t << r) | (t >> (64 - r))) & _MASK64) ^ hi  # rotl64(t, r), 0 < r < 64
    state = (((hi << 64) | lo) - _PCG_INC) * pow(_PCG_MULT, -1, 2**128) % 2**128
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": _PCG_INC}, "has_uint32": 0, "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


THRESHOLD_CASES = [
    (1, 0.5), (1, 1e-3), (7, 0.07), (20, 0.3), (40, 0.5), (60, 0.5), (86, 0.348), (400, 0.07), (1000, 0.03),
    (10**6, 3e-5), (2**59, 1e-17), (5, 1e-300),
] + [(int(n), float(u) * min(0.5, 30.0 / n)) for n, u in zip([3, 12, 25, 33, 48, 75, 150, 260, 333, 399],
                                                              np.random.default_rng(7).uniform(size=10))]


@pytest.mark.parametrize("n, p", THRESHOLD_CASES)
def test_inversion_thresholds_are_where_numpys_own_sampler_steps(n, p):
    """Fed a chosen first uniform, numpy's binomial draws at least j + 1 at
    the threshold T_j and at most j one lattice point below it, for every
    threshold below T_bound (a uniform there makes numpy restart)."""
    for u in (0.0, 0.5, 1.0 - 2.0**-53):
        assert _first_uniform(u).random() == u
    thresholds = _inversion_thresholds(n, p)
    assert thresholds is not None and np.all(thresholds[1:] >= thresholds[:-1])
    restart = thresholds[-1]
    for j, at in enumerate(thresholds[:-1]):
        if at < restart:
            assert _first_uniform(at).binomial(n, p) >= j + 1
            assert at == 0.0 or _first_uniform(at - 2.0**-53).binomial(n, p) <= j


def test_a_restarting_uniform_rewinds_to_numpys_sampler():
    """At n = 400, p = 0.07 numpy's loop gives up past count 80, and the 20
    largest uniforms make it draw again: a table draw that meets one returns
    numpy's draws and stream state.  One lattice point below, a table draw
    returns 79: T_79 = T_80, so no uniform draws 80 without a restart."""
    thresholds = _inversion_thresholds(400, 0.07)
    assert len(thresholds) == 81 and thresholds[-1] == 1.0 - 20 * 2.0**-53
    for u in (thresholds[-1] - 2.0**-53, thresholds[-1], 1.0 - 2.0**-53):
        got_rng, want_rng = _first_uniform(u), _first_uniform(u)
        got, want = _binomial(got_rng, 400, 0.07, 50), want_rng.binomial(400, 0.07, 50)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        if u < thresholds[-1]:
            assert got[0] == np.count_nonzero(thresholds <= u) == 79


def test_sample_stat_refuses_a_size_that_disagrees_with_an_array_of_truths():
    # the beta binomial dropped ``size`` and drew one count per rate, and the
    # location normal raised numpy's broadcasting ValueError
    rng = np.random.default_rng(1)
    spec = LocationNormalSpec(n=4, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
    for bundle in (make_beta_binomial(10, 2.0, 3.0), make_location_normal(spec)):
        with pytest.raises(DomainError, match="size 5"):
            bundle.sample_stat(rng, np.array([0.3, 0.4]), size=5)
        assert bundle.sample_stat(rng, np.array([0.3, 0.4]), size=2).shape == (2,)
        assert bundle.sample_stat(rng, np.array([0.3, 0.4])).shape == (2,)
        assert bundle.sample_stat(rng, 0.3, size=5).shape == (5,)


# -- non-finite numbers --------------------------------------------------------

NON_FINITE = (math.nan, math.inf, -math.inf)
LOCNORMAL_FIELDS = dict(n=5, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["sigma0_sq", "mu_star", "tau_star_sq"])
def test_location_normal_spec_refuses_non_finite_numbers(field, value):
    with pytest.raises(DomainError, match=field):
        LocationNormalSpec(**{**LOCNORMAL_FIELDS, field: value})


@pytest.mark.parametrize("value", NON_FINITE)
def test_beta_binomial_refuses_non_finite_shapes(value):
    for shapes in ((value, 2.0), (2.0, value)):
        with pytest.raises(DomainError, match="shapes"):
            make_beta_binomial(10, *shapes)


@pytest.mark.parametrize("value", NON_FINITE)
def test_finite_spec_refuses_non_finite_entries(value):
    def spec(prior=(0.5, 0.5), row=(0.2, 0.8)):
        return FiniteModelSpec(["t0", "t1"], prior, [[0.7, 0.3], row], ["x0", "x1"])

    spec()
    with pytest.raises(DomainError, match="prior"):
        spec(prior=(0.5, value))
    for row in ((value, 0.8), (0.2, value)):
        with pytest.raises(DomainError, match="'t1'"):
            spec(row=row)


def test_finite_spec_refuses_weights_whose_sum_overflows():
    with pytest.raises(DomainError, match="prior"):
        FiniteModelSpec(["t0", "t1"], [1e308, 1e308], [[1.0], [1.0]], ["x0"])


def test_finite_spec_refuses_weights_whose_exact_sum_overflows():
    # the plain sum rounds to the largest float, the exact sum overflows
    # math.fsum, which used to escape as OverflowError
    half_ulp_below = 2.0**970 - 2.0**918
    with pytest.raises(DomainError, match="prior weights"):
        FiniteModelSpec(["t0", "t1", "t2"], [sys.float_info.max, half_ulp_below, half_ulp_below],
                        [[1.0], [1.0], [1.0]], ["x0"])


def test_finite_spec_tables_are_read_only_float64_arrays_the_bundle_shares():
    prior, likelihood = [1, 0], [[0.25, 0.75], [1, 0]]
    spec = FiniteModelSpec(["t0", "t1"], prior, likelihood, ["x0", "x1"])
    for table, values in ((spec.prior, prior), (spec.likelihood, likelihood)):
        assert isinstance(table, np.ndarray) and table.dtype == np.float64
        assert not table.flags.writeable
        np.testing.assert_array_equal(table, values)
    prior[0] = likelihood[0][0] = 0.5  # the spec holds a copy of the caller's lists
    assert spec.prior[0] == 1.0 and spec.likelihood[0, 0] == 0.25
    bundle = make_finite(spec)
    assert np.shares_memory(bundle.prior, spec.prior)
    assert np.shares_memory(bundle.like, spec.likelihood)
    assert spec != FiniteModelSpec(["t0", "t1"], [1, 0], [[0.25, 0.75], [1, 0]], ["x0", "x1"])


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(prior=[0.5, 0.25, 0.25]), "prior length must match theta labels"),
        (dict(prior=[[0.5, 0.5]]), "prior length must match theta labels"),
        (dict(psi_of_theta=["a"]), "psi_of_theta length must match theta labels"),
        (dict(prior=[-0.5, 1.5]), "prior weights must be nonnegative and sum to 1"),
        (dict(prior=[0.5, 0.5 + 2e-12]), "prior weights must be nonnegative and sum to 1"),
        (dict(likelihood=[[0.5, 0.5]]), "likelihood table must have one row per theta"),
        (dict(likelihood=[[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]]), "likelihood row for 't0' has wrong length"),
        (dict(likelihood=[0.5, 0.5]), "likelihood row for 't0' has wrong length"),
        (dict(likelihood=[[0.5, 0.5], [-0.1, 1.1]]), "likelihood row for 't1' must be nonnegative and sum to 1"),
        (dict(likelihood=[[0.5, 0.5], [0.5, 0.4]]), "likelihood row for 't1' must be nonnegative and sum to 1"),
        (dict(likelihood=[[0.5, 0.6], [0.5, 0.4]]), "likelihood row for 't0' must be nonnegative and sum to 1"),
        (dict(likelihood=[[0.5, 0.5], [math.inf, -math.inf]]), "likelihood row for 't1' must be nonnegative"),
        (dict(theta_labels=["t0", "t0"]), "theta labels must be unique"),
        (dict(x_labels=["x0", "x0"]), "data labels must be unique"),
    ],
    ids=["prior-long", "prior-2d", "psi-short", "prior-negative", "prior-sum", "rows-short", "rows-wide",
         "rows-1d", "row-negative", "row-sum-low", "first-row-sum-high", "row-infinite", "theta-duplicate",
         "x-duplicate"],
)
def test_finite_spec_refusal_names_the_table_and_row(change, message):
    fields = dict(theta_labels=["t0", "t1"], prior=[0.5, 0.5], likelihood=[[0.5, 0.5], [0.2, 0.8]],
                  x_labels=["x0", "x1"])
    with pytest.raises(DomainError, match=re.escape(message)):
        FiniteModelSpec(**{**fields, **change})


@pytest.mark.parametrize(
    "prior, likelihood, named",
    [
        ([0.5, 0.5], [[0.5, 0.5], [1.0]], "likelihood table"),
        ([0.5, 0.5], [[0.5, "half"], [0.5, 0.5]], "likelihood table"),
        ([0.5, 0.5], [[0.5, {}], [0.5, 0.5]], "likelihood table"),
        ([0.5, "half"], [[0.5, 0.5], [0.5, 0.5]], "prior weights"),
        ([10**400, 0], [[0.5, 0.5], [0.5, 0.5]], "prior weights"),
        (["0.5", "0.5"], [[1.0, 0.0], [0.0, 1.0]], "prior weights"),
        ([0.5, 0.5], [["1", "0"], ["0", "1"]], "likelihood table"),
        ([0.5, 0.5], [[True, False], [False, True]], "likelihood table"),
    ],
    ids=["ragged", "string", "object", "prior-string", "prior-huge-int", "prior-numeric-strings",
         "numeric-strings", "bools"],
)
def test_finite_spec_refuses_a_table_numpy_cannot_read(prior, likelihood, named):
    with pytest.raises(DomainError, match=f"{named} cannot be read as an array of floats"):
        FiniteModelSpec(["t0", "t1"], prior, likelihood, ["x0", "x1"])


def _row_rule_accepts(values):
    """The row rule finite specs have always applied, entry by entry in
    Python: nonnegative, a finite plain sum, and an exact sum within 1e-12
    of 1 (an exact sum that overflows counts as a refusal)."""
    if min(values, default=0.0) < 0.0 or not math.isfinite(sum(values)):
        return False
    try:
        return abs(math.fsum(values) - 1.0) <= 1e-12
    except OverflowError:
        return False


SPECIAL_WEIGHTS = (math.nan, math.inf, -math.inf, -0.0, -5e-324, -0.5, 2.0, 1e308, sys.float_info.max)


@st.composite
def weight_rows(draw, width):
    """A row that sums to 1 within a few 1e-12, one with a special value put
    in, or any floats at all."""
    kind = draw(st.sampled_from(["near_one", "special", "any"]))
    if kind == "any":
        return draw(st.lists(st.floats(), min_size=width, max_size=width))
    head = draw(st.lists(st.floats(0.0, 1.0), min_size=width - 1, max_size=width - 1))
    scale = 2.0 * (math.fsum(head) or 1.0)
    head = [v / scale for v in head]
    row = head + [1.0 - math.fsum(head) + draw(st.floats(-3e-12, 3e-12))]
    if kind == "special":
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(SPECIAL_WEIGHTS))
    return row


@st.composite
def long_rows(draw, width):
    """A row of ``width`` entries (from a drawn numpy seed) whose exact sum
    lies within a few 1e-12 of 1, mostly within 1e-13 of the edge 1 +- 1e-12,
    where the plain sum alone cannot decide; sometimes with a special value
    put in."""
    head = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=width - 1)
    head = (head / (2.0 * head.sum())).tolist()
    edge = st.builds(lambda sign, by: sign * (1e-12 + by), st.sampled_from([-1.0, 1.0]), st.floats(-1e-13, 1e-13))
    row = head + [1.0 - math.fsum(head) + draw(edge | edge | st.floats(-3e-12, 3e-12))]
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(SPECIAL_WEIGHTS))
    return row


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 3), m=st.integers(1, 4) | st.integers(150, 400))
def test_finite_spec_refuses_exactly_the_rows_the_row_rule_refuses(data, k, m):
    prior = data.draw(weight_rows(k))
    rows = [data.draw(weight_rows(m) if m <= 4 else long_rows(m)) for _ in range(k)]
    names = ["prior weights", *(f"likelihood row for 't{i}'" for i in range(k))]
    refused = [name for name, row in zip(names, [prior, *rows]) if not _row_rule_accepts(row)]
    labels = [f"t{i}" for i in range(k)]
    if not refused:
        FiniteModelSpec(labels, prior, rows, [f"x{j}" for j in range(m)])
        return
    with pytest.raises(DomainError, match=re.escape(refused[0] + " must")):
        FiniteModelSpec(labels, prior, rows, [f"x{j}" for j in range(m)])


@pytest.mark.parametrize("offset, refused", [(-1e-12 - 5e-15, True), (1e-12 - 5e-15, False)])
def test_finite_spec_decides_rows_whose_plain_sum_errs_by_many_ulps(offset, refused):
    """A Fortran-ordered table is summed one column at a time: 399 entries
    of 0.75 ulp each round its running sum up, so the plain sum lies 1.1e-14
    above the exact sum 1 + ``offset``, on the other side of 1 +- 1e-12."""
    tail = [0.75 * 2.0**-53] * 399
    row = [1.0 + offset - math.fsum(tail), *tail]
    likelihood = np.array([row, row[::-1]], order="F")
    assert abs(likelihood.sum(axis=1)[0] - 1.0 - offset) > 1e-14
    build = lambda: FiniteModelSpec(["t0", "t1"], [0.5, 0.5], likelihood, [f"x{j}" for j in range(400)])
    if not refused:
        build()
        return
    with pytest.raises(DomainError, match="likelihood row for 't0' must"):
        build()


@pytest.mark.parametrize("value", NON_FINITE)
def test_discretization_refuses_non_finite_numbers(value):
    for kwargs in (dict(delta=value), dict(delta=0.1, anchor=value), dict(delta=0.1, range=(value, 1.0)),
                   dict(delta=0.1, range=(0.0, value))):
        with pytest.raises(DomainError):
            Discretization(**kwargs)


# -- finite interest values ------------------------------------------------------


def _two_by_two(labels, x_labels=("x0", "x1")):
    return make_finite(FiniteModelSpec(labels, [0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], x_labels))


def test_finite_interest_value_is_a_label_never_an_index():
    named = _two_by_two(["a", "b"])
    assert named.psi_index("b") == 1
    for value in ("c", 1):
        with pytest.raises(DomainError, match=f"unknown interest value {value!r}"):
            named.psi_index(value)
    numbered = _two_by_two([1, 0])
    assert (numbered.psi_index(0), numbered.psi_index(1)) == (1, 0)
    with pytest.raises(DomainError, match="unknown interest value 2"):
        numbered.psi_index(2)


def test_finite_outcome_is_a_label_before_an_index():
    assert _two_by_two(["a", "b"]).reduce_data(1) == 1
    numbered = _two_by_two(["a", "b"], x_labels=[1, 0])
    assert (numbered.reduce_data(0), numbered.reduce_data(1)) == (1, 0)
    with pytest.raises(DomainError, match="out of range"):
        numbered.reduce_data(2)


# -- discretization -------------------------------------------------------------


def test_discretization_validation():
    with pytest.raises(DomainError):
        Discretization(delta=0.0)
    with pytest.raises(DomainError):
        Discretization(delta=0.1, range=(2.0, 1.0))


def test_build_cells_partitions_range():
    disc = Discretization(delta=0.25)
    edges, anchor = build_cells(disc, (0.0, 2.0))
    assert anchor is None
    assert edges[0] == 0.0 and edges[-1] == 2.0
    assert np.allclose(np.diff(edges), 0.5)

    # non-multiple range: last cell is shorter
    edges, _ = build_cells(Discretization(delta=0.3), (0.0, 2.0))
    widths = np.diff(edges)
    assert np.allclose(widths[:-1], 0.6)
    assert widths[-1] <= 0.6 + 1e-12
    assert edges[-1] == 2.0


def test_build_cells_anchor_is_a_center():
    disc = Discretization(delta=0.25, anchor=0.1)
    edges, idx = build_cells(disc, (-1.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert centers[idx] == pytest.approx(0.1, abs=1e-12)
    assert edges[0] <= -1.0 and edges[-1] >= 1.0
    assert np.allclose(np.diff(edges), 0.5)

    # anchor outside the requested range extends it
    edges, idx = build_cells(Discretization(delta=0.25, anchor=3.0), (-1.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert centers[idx] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("a, b", [(1.0, 200.0), (1.0, 3.0), (1.0, 0.5), (200.0, 1.0), (3.0, 1.0), (0.5, 1.0)])
def test_beta_interval_prob_tail_accuracy(a, b):
    # Beta(1, b) has CDF 1 - (1 - x)^b and Beta(a, 1) has CDF x^a; each
    # difference is written as a product so the reference does not cancel.
    # Beta(1, 200) on (0.30, 0.31) is 9.87e-32 and Beta(200, 1) on (0.60, 0.61)
    # is 1.12e-43; a difference of CDFs reads 0 for both.
    lo = np.arange(1, 98) / 100.0
    hi = lo + 0.01
    if a == 1.0:
        want = (1.0 - lo) ** b * -np.expm1(b * np.log((1.0 - hi) / (1.0 - lo)))
    else:
        want = hi ** a * -np.expm1(a * np.log(lo / hi))
    keep = want > 1e-300
    np.testing.assert_allclose(beta_interval_prob((lo, hi), a, b)[keep], want[keep], rtol=1e-12, atol=0.0)


def test_normal_interval_prob_tail_accuracy():
    # deep upper tail: the difference of CDFs would cancel catastrophically
    p = normal_interval_prob((8.0, 8.5), 0.0, 1.0)
    exact = stats.norm.sf(8.0) - stats.norm.sf(8.5)
    assert p == pytest.approx(exact, rel=1e-10)
    assert p > 0.0


# -- location-normal cell window -------------------------------------------------


def _cell_favor_by_brentq(spec, psi0, c, truths):
    """Probability that the ratio of [psi0 - c, psi0 + c] is >= 1 under each
    true mean: the window's two ends found by ``brentq`` in the posterior
    mean, one on each side of ``psi0``, then mapped to data means."""
    post_var = 1.0 / (spec.n / spec.sigma0_sq + 1.0 / spec.tau_star_sq)
    post_sd, tau = math.sqrt(post_var), math.sqrt(spec.tau_star_sq)

    def content(mean, sd):
        lo, hi = psi0 - c, psi0 + c
        if lo >= mean:
            return stats.norm.sf(lo, mean, sd) - stats.norm.sf(hi, mean, sd)
        return stats.norm.cdf(hi, mean, sd) - stats.norm.cdf(lo, mean, sd)

    target = content(spec.mu_star, tau)
    excess = lambda mp: content(mp, post_sd) - target
    reach = c + 40.0 * post_sd
    ends = [optimize.brentq(excess, a, b, xtol=1e-15, rtol=1e-15) for a, b in ((psi0 - reach, psi0), (psi0, psi0 + reach))]
    x_lo, x_hi = ((mp - post_var * spec.mu_star / spec.tau_star_sq) / (post_var * spec.n / spec.sigma0_sq) for mp in ends)
    sd = math.sqrt(spec.sigma0_sq / spec.n)
    return stats.norm.cdf(x_hi, truths, sd) - stats.norm.cdf(x_lo, truths, sd)


@st.composite
def cell_cases(draw):
    """A location-normal spec, a value across its prior and a cell half-width
    from 1e-3 to twice the prior sd."""
    spec = LocationNormalSpec(
        n=draw(st.integers(1, 200)),
        sigma0_sq=draw(st.floats(0.05, 20.0)),
        mu_star=draw(st.floats(-5.0, 5.0)),
        tau_star_sq=draw(st.floats(0.01, 20.0)),
    )
    tau = math.sqrt(spec.tau_star_sq)
    psi0 = spec.mu_star + tau * draw(st.floats(-5.0, 5.0))
    c = math.exp(draw(st.floats(math.log(1e-3), math.log(2.0 * tau))))
    return spec, psi0, c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=cell_cases(), offsets=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_cell_region_prob_matches_a_brentq_window(case, offsets):
    spec, psi0, c = case
    bundle, disc = make_location_normal(spec), Discretization(delta=c)
    truths = psi0 + math.sqrt(spec.tau_star_sq) * np.array([0.0, *offsets])
    want = _cell_favor_by_brentq(spec, psi0, c, truths)
    favor = bundle.region_prob(psi0, truths, disc, against=False)
    np.testing.assert_allclose(favor, want, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(bundle.region_prob(psi0, truths, disc), 1.0 - favor, rtol=0.0, atol=0.0)
    # one call over an array of values gives each value's own window
    np.testing.assert_allclose(bundle.region_prob(np.full(truths.size, psi0), truths, disc, False), favor, atol=1e-15)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=cell_cases(), offset=st.floats(-2.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_cell_region_prob_agrees_with_drawn_cell_ratios(case, offset, seed):
    spec, psi0, c = case
    bundle, disc, n_sim = make_location_normal(spec), Discretization(delta=c), 20_000
    truth = psi0 + offset * math.sqrt(spec.tau_star_sq)
    exact = float(bundle.region_prob(psi0, truth, disc, against=False))
    draws = bundle.sample_stat(np.random.default_rng(seed), truth, size=n_sim)
    drawn = float(np.mean(bundle.log_rb(psi0, draws, disc) >= 0.0))
    assert abs(drawn - exact) <= 3.0 * math.sqrt(exact * (1.0 - exact) / n_sim) + 1.0 / n_sim


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=cell_cases(), offset=st.floats(-3.0, 3.0))
def test_cell_favor_prob_approaches_the_point_as_the_cell_shrinks(case, offset):
    from relbelief import favor_prob_locnormal

    spec, psi0, _ = case
    bundle = make_location_normal(spec)
    truth = psi0 + offset * math.sqrt(spec.tau_star_sq)
    point = favor_prob_locnormal(spec, psi0, truth)
    post_sd = math.sqrt(bundle.posterior_params(0.0)[1])
    gaps = [abs(float(bundle.region_prob(psi0, truth, Discretization(delta=k * post_sd), False)) - point)
            for k in (1e-1, 1e-2, 1e-4)]
    assert gaps[-1] <= 1e-7
    assert gaps[-1] <= gaps[0] + 1e-12


def _brentq_cell_window(spec, psi0, c):
    """Data means (lo, hi) between which the ratio of [psi0 - c, psi0 + c] is
    >= 1: the offset of the posterior mean from ``psi0`` at which the
    posterior content falls to the prior content, by ``brentq``, mapped to
    data means."""
    post_var = 1.0 / (spec.n / spec.sigma0_sq + 1.0 / spec.tau_star_sq)
    post_sd = math.sqrt(post_var)

    def content(lo, hi, mean, sd):
        if lo >= mean:
            return special.ndtr((mean - lo) / sd) - special.ndtr((mean - hi) / sd)
        return special.ndtr((hi - mean) / sd) - special.ndtr((lo - mean) / sd)

    target = content(psi0 - c, psi0 + c, spec.mu_star, math.sqrt(spec.tau_star_sq))
    u = optimize.brentq(lambda u: content(-c, c, u, post_sd) - target, 0.0, c + 40.0 * post_sd, xtol=1e-15, rtol=1e-15)
    return tuple((mp - post_var * spec.mu_star / spec.tau_star_sq) / (post_var * spec.n / spec.sigma0_sq)
                 for mp in (psi0 - u, psi0 + u))


def test_cell_estimation_biases_match_a_brentq_window():
    """The exact estimation biases of a grid cell solve one window per
    quadrature node and supremum point; they equal the same ``prior_mean``
    and ``supremum`` over windows found by ``brentq`` within 1e-9."""
    from relbelief import bias_against_e, bias_in_favor_e

    spec = LocationNormalSpec(n=10, sigma0_sq=2.0, mu_star=0.3, tau_star_sq=1.5)
    bundle, c, delta = make_location_normal(spec), 0.1, 0.5
    sd = math.sqrt(spec.sigma0_sq / spec.n)

    def favor(psi0, truths):
        lo, hi = _brentq_cell_window(spec, psi0, c)
        return special.ndtr((hi - truths) / sd) - special.ndtr((lo - truths) / sd)

    def each(f):
        return lambda psi: np.array([f(p) for p in psi]) if np.ndim(psi) else f(float(psi))

    in_favor = each(lambda p: float(np.max(favor(p, np.array([p - delta, p + delta])))))
    against = each(lambda p: 1.0 - float(favor(p, p)))
    got_favor = bias_in_favor_e(bundle, delta, disc=Discretization(delta=c))
    got_avg, got_sup = bias_against_e(bundle, disc=Discretization(delta=c))
    assert got_favor.method == got_avg.method == got_sup.method == "Exact"
    assert got_favor.value == pytest.approx(bundle.prior_mean(in_favor, smooth=False), rel=0.0, abs=1e-9)
    assert got_avg.value == pytest.approx(bundle.prior_mean(against, smooth=True), rel=0.0, abs=1e-9)
    assert got_sup.value == pytest.approx(bundle.supremum(against), rel=0.0, abs=1e-9)


# -- location-normal cell window by Newton's method --------------------------------


def _reference():
    """The benchmark's ``reference`` module, imported without writing
    bytecode under ``perfbench/``."""
    from pathlib import Path

    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.append(perfbench)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(perfbench)
    return reference


def _bisection_offset(delta, sd, target):
    """The window offset as 64 halvings of [0, delta + 40 sds] found it
    before Newton's method: the last midpoint whose content reached
    ``target``."""
    lo, hi = np.zeros_like(target), np.full_like(target, delta + 40.0 * sd)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        inside = normal_interval_prob((-delta, delta), mid, sd) >= target
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return lo


def _crosses(delta, sd, target, u):
    """Whether the computed content of (-delta, delta] under N(u, sd^2) is
    >= ``target`` at u and below it at the next float up."""
    inside = lambda x: normal_interval_prob((-delta, delta), x, sd) >= target
    return inside(u) & ~inside(np.nextafter(u, np.inf))


def _rounding_band(delta, sd, psi0, u):
    """Offsets within which double rounding decides the side of a window's
    end at offset ``u``: 4 units of roundoff of each normal CDF term of the
    content, and of the standardized cell edges as taken from the posterior
    mean psi0 +- u (a reference that works in posterior means rounds those),
    over the content's slope."""
    b, a = (delta - u) / sd, (-delta - u) / sd
    pdf_b, pdf_a = stats.norm.pdf(b), stats.norm.pdf(a)
    error = 4.0 * 2.0**-52 * (special.ndtr(b) + special.ndtr(a) + (np.abs(psi0) + delta + u) / sd * pdf_b)
    with np.errstate(divide="ignore"):
        return error * sd / (pdf_b - pdf_a)


@st.composite
def window_cases(draw):
    """A location-normal spec (n from 1 to 10^4, sigma0^2 and tau*^2 from
    1e-3 to 1e3), one to four values out to 6 prior sds, and a cell
    half-width: from 1e-4 to 2 prior sds, from 2 to 12 (contents near 1), or
    one whose cell at the first value holds 1 to 100 times the
    prior-content floor.  The half-width is a power of two and the values
    are multiples of it, so the cell edges are exact and the program and the
    reference solve the same equation."""
    spec = LocationNormalSpec(
        n=round(10.0 ** draw(st.floats(0.0, 4.0))),
        sigma0_sq=10.0 ** draw(st.floats(-3.0, 3.0)),
        mu_star=draw(st.floats(-5.0, 5.0)),
        tau_star_sq=10.0 ** draw(st.floats(-3.0, 3.0)),
    )
    tau = math.sqrt(spec.tau_star_sq)
    ks = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=4))
    kind = draw(st.sampled_from(["cell", "wide", "floor"]))
    if kind == "cell":
        delta = tau * 10.0 ** draw(st.floats(-4.0, math.log10(2.0)))
    elif kind == "wide":
        delta = tau * 10.0 ** draw(st.floats(math.log10(2.0), math.log10(12.0)))
    else:  # a small cell holds about 2 delta pdf(k) / tau
        delta = models.PRIOR_CONTENT_FLOOR * 10.0 ** draw(st.floats(0.0, 2.0)) * tau / (2.0 * stats.norm.pdf(ks[0]))
    delta = 2.0 ** round(math.log2(delta))
    psi = np.round((spec.mu_star + tau * np.array(ks)) / delta) * delta
    return spec, psi, delta


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=window_cases())
def test_cell_window_by_newton_is_a_crossing_of_the_computed_content(case):
    """Each window offset is a crossing of the content as computed: at it the
    content reaches the prior content, and at the next float up it does not.
    Newton's method leaves every offset within rounding of that crossing,
    each in fewer than ``_WINDOW_NEWTON_CAP`` steps, and on its own: a float
    and an array, in any order, give the same bits.  The data means match
    the benchmark's ``brentq`` reference within 1e-12 of their terms, beyond
    the band where rounding decides the side."""
    spec, psi, delta = case
    bundle = make_location_normal(spec)
    sd, shrink = bundle._post_sd, bundle._shrink
    target = models._prior_cell_content(bundle, bundle._cell(psi, delta))
    solved, settle = [], models._last_inside
    counted = mock.Mock(wraps=special.log_ndtr)

    def last_inside(inside, u):
        solved.append(u.copy())
        return settle(inside, u)

    with mock.patch.object(models, "_last_inside", last_inside), mock.patch.object(models.special, "log_ndtr", counted):
        u = models._window_offset(delta, sd, target)
    assert counted.call_count // 2 < models._WINDOW_NEWTON_CAP  # two per step
    assert _crosses(delta, sd, target, u).all()
    band = _rounding_band(delta, sd, psi, u)
    assert (np.abs(solved[0] - u) <= band + 4.0 * np.spacing(u)).all()

    lo, hi = bundle._cell_window(psi, delta)
    np.testing.assert_array_equal(bundle._cell_window(psi[::-1], delta)[0], lo[::-1], strict=True)
    ref = _reference().LocNormal(dict(n=spec.n, sigma0_sq=spec.sigma0_sq, mu_star=spec.mu_star,
                                      tau_star_sq=spec.tau_star_sq))
    m = spec.mu_star
    for k, p0 in enumerate(psi.tolist()):
        assert bundle._cell_window(p0, delta) == (lo[k], hi[k])
        want = ref.cell_window(p0, delta)
        for got, end in zip((lo[k], hi[k]), want):
            scale = abs(m) + abs(end - m)
            assert abs(got - end) <= 1e-12 * scale + band[k] / shrink, (got, end)


@pytest.mark.parametrize("delta", [5.0, 8.0, 9.0, 10.0, 50.0, 1000.0])
def test_a_wide_cell_window_settles_on_its_first_probes(delta):
    """Where both contents are near 1 the computed content is a step
    function of the offset, constant over up to 10^13 ulps; Newton's method
    aims at the rounding edge where it reaches the prior content, so one
    interval probability over the ulps around it finds the crossing (two
    where the content steps within them)."""
    bundle = make_location_normal(LocationNormalSpec(n=10, sigma0_sq=2.0, mu_star=0.3, tau_star_sq=1.5))
    sd, psi = bundle._post_sd, np.array([0.3, 2.0])
    target = models._prior_cell_content(bundle, bundle._cell(psi, delta))
    counted = mock.Mock(wraps=models.normal_interval_prob)
    with mock.patch.object(models, "normal_interval_prob", counted):
        u = models._window_offset(delta, sd, target)
    assert counted.call_count <= 2
    assert _crosses(delta, sd, target, u).all()


def test_cell_windows_by_newton_keep_most_bisection_bits():
    """A window that differs from the 64-halving one is another crossing of
    the computed content within rounding of it (the content is not monotone
    at the scale of an ulp); most keep the bisection's bits."""
    rng = np.random.default_rng(23)
    same = total = 0
    for _ in range(60):
        spec = LocationNormalSpec(n=int(10.0 ** rng.uniform(0.0, 4.0)), sigma0_sq=10.0 ** rng.uniform(-3.0, 3.0),
                                  mu_star=rng.uniform(-5.0, 5.0), tau_star_sq=10.0 ** rng.uniform(-3.0, 3.0))
        bundle, tau = make_location_normal(spec), math.sqrt(spec.tau_star_sq)
        psi, delta = spec.mu_star + tau * rng.uniform(-6.0, 6.0, 8), tau * 10.0 ** rng.uniform(-4.0, 0.3)
        target = models._prior_cell_content(bundle, bundle._cell(psi, delta))
        old = _bisection_offset(delta, bundle._post_sd, target)
        new = models._window_offset(delta, bundle._post_sd, target)
        assert _crosses(delta, bundle._post_sd, target, old).all()
        assert (np.abs(new - old) <= _rounding_band(delta, bundle._post_sd, psi, new) + 4.0 * np.spacing(new)).all()
        same += int(np.count_nonzero(new == old))
        total += new.size
    assert same / total > 0.6, same / total


# -- one worst case in favor for both continuous bundles ---------------------------


def _favor_sup_by_alternatives(bundle, psi0, delta, disc, boundary_only):
    """The worst case composed from the primitive: every alternative of
    ``psi0`` through ``region_prob``, the largest kept (0 with none)."""
    truths = np.array([truth for _, truth in bundle.alternatives(psi0, delta, boundary_only, disc)])
    return np.fmax.reduce(bundle.region_prob(psi0, truths, disc, False), axis=0, initial=0.0)


@st.composite
def favor_cases(draw):
    """A location-normal spec (n of 1 or 2, where the data variance reaches
    1e4 and the favor window's center often lies in the exterior, as often as
    any other n), a difference that matters up to 5 prior sds, a point or a
    cell of half-width up to 2 prior sds, and either exterior rule."""
    spec = LocationNormalSpec(
        n=draw(st.one_of(st.integers(1, 2), st.integers(1, 200))),
        sigma0_sq=math.exp(draw(st.floats(math.log(0.01), math.log(1e4)))),
        mu_star=draw(st.floats(-5.0, 5.0)),
        tau_star_sq=math.exp(draw(st.floats(math.log(0.01), math.log(100.0)))),
    )
    tau = math.sqrt(spec.tau_star_sq)
    delta = tau * draw(st.floats(0.01, 5.0))
    disc = draw(st.none() | st.floats(1e-3, 2.0).map(lambda k: Discretization(delta=k * tau)))
    return spec, delta, disc, draw(st.booleans())


@st.composite
def favor_sup_cases(draw):
    """A continuous bundle with up to six values of its interest parameter, a
    difference that matters, a point or a cell and either exterior rule: a
    location-normal case of ``favor_cases`` with values within 8 prior sds,
    or a beta-binomial spec with rates across (0, 1), where the values at
    distance ``delta`` and the peak often fall outside the support."""
    if draw(st.booleans()):
        spec, delta, disc, boundary_only = draw(favor_cases())
        zs = draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=6))
        psi = spec.mu_star + math.sqrt(spec.tau_star_sq) * np.array(zs)
        return make_location_normal(spec), psi, delta, disc, boundary_only
    bundle = make_beta_binomial(draw(st.integers(1, 80)), draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0)))
    psi = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6)))
    delta = draw(st.floats(0.02, 0.45))
    disc = draw(st.none() | st.floats(0.005, 0.2).map(lambda c: Discretization(delta=c)))
    return bundle, psi, delta, disc, draw(st.booleans())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=favor_sup_cases())
def test_favor_sup_equals_the_alternatives_composition_to_the_bit(case):
    """Each bundle's one ``favor_sup`` builds the favor region once per value
    or block of values; it equals ``region_prob`` over ``alternatives`` to the
    bit, for floats and for arrays in one block or in blocks of two values."""
    bundle, psi, delta, disc, boundary_only = case
    g = bundle.favor_sup(delta, disc, boundary_only)

    def outcome(f, p0):
        """The value of ``f(p0)``, or the message of the error it raises: a
        beta-binomial ratio of exactly 1 can round below 1 at every count,
        and the exterior refuses the empty favor region that leaves."""
        try:
            return f(p0)
        except DomainError as exc:
            return str(exc)

    composed = lambda p0: _favor_sup_by_alternatives(bundle, p0, delta, disc, boundary_only)
    for p0 in psi.tolist():  # floats, as adaptive quadrature passes them
        assert outcome(g, p0) == outcome(composed, p0)
    want = outcome(composed, psi)
    for blocked in (False, True):  # one block, or blocks of two values
        cells = 2 * bundle._cells_per_value if blocked else models._BLOCK_CELLS
        with mock.patch.object(models, "_BLOCK_CELLS", cells):
            got = outcome(g, psi)
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want, strict=True)


# -- beta-binomial worst case in favor ---------------------------------------------


def _beta_binomial_exterior_by_search(bundle, psi0, delta, disc):
    """The worst case in favor of ``psi0`` over the exterior by search: the
    binomial probability of the counts with a ratio >= 1 on 4,001 points of
    each side of the exterior that is not empty (an edge of (0, 1) at its
    limit), then a bounded refinement between the best point's neighbours."""
    counts = np.arange(bundle.n + 1)
    favor = counts[bundle.log_rb(psi0, counts, disc) >= 0.0]
    prob = lambda theta: stats.binom.pmf(favor, bundle.n, np.asarray(theta)[..., None]).sum(axis=-1)
    sides = []  # a side of the exterior holds a rate where its value at distance delta is one
    if 0.0 < psi0 - delta < 1.0:
        sides.append((0.0, psi0 - delta))
    if 0.0 < psi0 + delta < 1.0:
        sides.append((psi0 + delta, 1.0))
    best = 0.0
    for lo, hi in sides:
        grid = np.linspace(lo, hi, 4001)
        vals = prob(grid)
        k = int(np.argmax(vals))
        res = optimize.minimize_scalar(lambda t: -float(prob(t)), bounds=(grid[max(k - 1, 0)], grid[min(k + 1, 4000)]),
                                       method="bounded", options={"xatol": 1e-13})
        best = max(best, float(vals[k]), -float(res.fun))
    return best


@st.composite
def beta_binomial_exterior_cases(draw):
    """A beta-binomial spec (n from 1), a hypothesized rate, a difference
    that matters from 0.02, and a point or a cell."""
    bundle = make_beta_binomial(draw(st.integers(1, 80)), draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0)))
    psi0, delta = draw(st.floats(0.02, 0.98)), draw(st.floats(0.02, 0.45))
    return bundle, psi0, delta, draw(st.none() | st.floats(0.005, 0.2).map(lambda c: Discretization(delta=c)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=beta_binomial_exterior_cases())
def test_beta_binomial_exterior_worst_case_matches_a_refined_search(case):
    from relbelief import bias_in_favor_h

    bundle, psi0, delta, disc = case
    got = bias_in_favor_h(bundle, psi0, delta, disc=disc, boundary_only=False)
    assert got.method == "Exact"
    assert abs(got.value - _beta_binomial_exterior_by_search(bundle, psi0, delta, disc)) <= 1e-9


# favor regions [0, k2] or [k1, n], whose probability peaks at an edge of (0, 1):
# (bundle, psi0, delta, disc, whether the exterior reaches that edge)
EDGE_EXTERIOR_CASES = {
    "k2=n": (make_beta_binomial(5, 1.0, 8.0), 0.3, 0.1, None, True),
    "k1=0-cell": (make_beta_binomial(5, 8.0, 1.0), 0.7, 0.1, Discretization(delta=0.05), True),
    "k1=0-n=1": (make_beta_binomial(1, 1.0, 1.0), 0.2, 0.1, None, True),
    "k2=n-cell-n=1": (make_beta_binomial(1, 1.0, 1.0), 0.8, 0.1, Discretization(delta=0.02), True),
    # psi0 - delta is 0: the exterior holds no rate below psi0
    "k1=0-unreached": (make_beta_binomial(10, 1.0, 1.0), 0.05, 0.05, None, False),
}


@pytest.mark.parametrize("name", sorted(EDGE_EXTERIOR_CASES))
def test_beta_binomial_exterior_worst_case_at_an_edge_is_the_limit(name):
    from relbelief import bias_in_favor_h

    bundle, psi0, delta, disc, reached = EDGE_EXTERIOR_CASES[name]
    favor = np.flatnonzero(bundle.log_rb(psi0, np.arange(bundle.n + 1), disc) >= 0.0)
    assert favor[0] == 0 or favor[-1] == bundle.n
    got = bias_in_favor_h(bundle, psi0, delta, disc=disc, boundary_only=False)
    assert got.value == pytest.approx(_beta_binomial_exterior_by_search(bundle, psi0, delta, disc), abs=1e-9)
    assert (got.value == 1.0) == reached


# -- one tail pass per cell edge ---------------------------------------------------


def _four_tail_normal(lo, hi, mean, sd):
    """The per-interval formula the edge pass replaced: four tails per cell."""
    zlo = (np.asarray(lo, dtype=float) - mean) / sd
    zhi = (np.asarray(hi, dtype=float) - mean) / sd
    upper = special.ndtr(-zlo) - special.ndtr(-zhi)
    lower = special.ndtr(zhi) - special.ndtr(zlo)
    return np.where(zlo >= 0.0, upper, lower)


def _four_tail_beta(lo, hi, a, b):
    lo = np.clip(np.asarray(lo, dtype=float), 0.0, 1.0)
    hi = np.clip(np.asarray(hi, dtype=float), 0.0, 1.0)
    cdf_lo = special.betainc(a, b, lo)
    direct = special.betainc(a, b, hi) - cdf_lo
    flipped = special.betainc(b, a, 1.0 - lo) - special.betainc(b, a, 1.0 - hi)
    return np.where(cdf_lo >= 0.5, flipped, direct)


_SD = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


@st.composite
def _grid(draw, center, scale):
    """Sorted cell edges around ``center`` on the scale ``scale``: a free
    list of points, or an anchored grid from ``build_cells``."""
    if draw(st.booleans()):
        offsets = draw(st.lists(st.floats(-8.0, 8.0), min_size=2, max_size=30))
        return np.sort(center + scale * np.array(offsets))
    delta = scale * draw(st.floats(0.01, 2.0))
    anchor = center + scale * draw(st.floats(-3.0, 3.0))
    default_range = (center - 4.0 * scale, center + 4.0 * scale)
    return build_cells(Discretization(delta=delta, anchor=anchor), default_range)[0]


@settings(max_examples=300, deadline=None)
@given(mean=st.floats(-1e3, 1e3), sd=_SD, data=st.data())
def test_normal_edge_pass_equals_four_tails_bitwise(mean, sd, data):
    """Cells straddle the side switch at the mean; standard deviations run
    from 1e-150 to 1e150.  Single cells given as a pair (lo, hi) and
    broadcast against several means (the bias callers' form) equal the
    formula too."""
    edges = data.draw(_grid(mean, sd))
    want = _four_tail_normal(edges[:-1], edges[1:], mean, sd)
    np.testing.assert_array_equal(normal_interval_prob(edges, mean, sd), want)
    means = mean + sd * np.array(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5)))
    cells = (edges[:-1, None], edges[1:, None])
    np.testing.assert_array_equal(normal_interval_prob(cells, means, sd), _four_tail_normal(*cells, means, sd))


class _Drawn:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` returns
    the next of the given values, whatever the strategy."""

    def __init__(self, *values):
        self._values = iter(values)

    def draw(self, strategy):
        return next(self._values)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-1.0, 2.5).map(lambda e: 10.0**e),
    b=st.floats(-1.0, 2.5).map(lambda e: 10.0**e),
    data=st.data(),
)
# An anchored grid cut to [0, 1] at both ends: the pass leaves edges past the
# median's guard band unevaluated, and no cell may read them.
@example(a=1.0, b=1.0, data=_Drawn(build_cells(Discretization(delta=0.25, anchor=0.5), (-1.5, 2.5))[0], False, 3))
# Edges 1e-14 apart at the median: no edge clears it by the margin, so the
# guard band widens to every edge.
@example(a=2.0, b=2.0, data=_Drawn(0.5 + 1e-14 * np.arange(-25, 25), False, 5))
def test_beta_edge_pass_equals_four_tails_bitwise(a, b, data):
    """Edges run below 0 and above 1, cells straddle the median (where the
    side switches) and may sit on it, and anchored grids are cut to [0, 1]."""
    median = float(special.betaincinv(a, b, 0.5))
    edges = data.draw(_grid(median, 0.5))
    if data.draw(st.booleans()):
        edges = np.sort(np.concatenate([edges, [median, np.nextafter(median, 0.0), np.nextafter(median, 1.0)]]))
    np.testing.assert_array_equal(beta_interval_prob(edges, a, b), _four_tail_beta(edges[:-1], edges[1:], a, b))
    counts = np.arange(data.draw(st.integers(1, 40)) + 1)
    cells = (edges[:-1, None], edges[1:, None])
    np.testing.assert_array_equal(
        beta_interval_prob(cells, a + counts, b + counts[::-1]), _four_tail_beta(*cells, a + counts, b + counts[::-1])
    )


def test_beta_profile_evaluates_one_incomplete_beta_tail_per_edge(monkeypatch):
    """An 8,000-cell beta-binomial profile evaluates, at each edge, the CDF
    or the survival function, not both: at most 2(m + 1) incomplete-beta
    values for its prior and posterior contents, plus the guard bands past
    the medians (4(m + 1) with both tails at every edge)."""
    bundle = make_beta_binomial(40, 2.5, 3.5)
    disc = Discretization(delta=1.0 / 16000, range=(0.0, 1.0))
    evaluated = []
    betainc = special.betainc

    def counted(a, b, x):
        evaluated.append(np.broadcast(a, b, x).size)
        return betainc(a, b, x)

    monkeypatch.setattr(special, "betainc", counted)
    m = rb_profile(bundle, 17, disc).n_cells
    assert m == 8000
    assert sum(evaluated) <= 2 * (m + 1) + 64
