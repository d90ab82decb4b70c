"""Bundle construction, validation, and sampler/density consistency."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from relbelief import (
    Discretization,
    DomainError,
    FiniteModelSpec,
    LocationNormalSpec,
    make_beta_binomial,
    make_finite,
    make_location_normal,
    rb_profile,
)
from relbelief.models import beta_interval_prob, build_cells, normal_interval_prob
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


def test_beta_binomial_validation():
    with pytest.raises(DomainError):
        make_beta_binomial(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        make_beta_binomial(10, -1.0, 1.0)
    with pytest.raises(DomainError):
        make_beta_binomial(10, 1.0, 0.0)


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
    with pytest.raises(DomainError):
        bundle.reduce_data([1.0, 2.0])
    with pytest.raises(DomainError):
        bundle.reduce_data((5, 0.3))

    bb = make_beta_binomial(4, 1.0, 1.0)
    assert bb.reduce_data(3) == 3
    assert bb.reduce_data([1, 0, 1, 1]) == 3
    with pytest.raises(DomainError):
        bb.reduce_data(7)
    with pytest.raises(DomainError):
        bb.reduce_data([1, 2, 0, 0])


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


@st.composite
def finite_tables(draw):
    """Small tables with zero-prior theta, zero likelihood entries, a single
    theta or outcome, and grouped interest labels."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    weights = st.lists(weight, min_size=m, max_size=m).filter(any)
    prior = draw(st.lists(weight, min_size=k, max_size=k).filter(any))
    rows = draw(st.lists(weights, min_size=k, max_size=k))
    groups = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    return {
        "theta_labels": [f"t{i}" for i in range(k)],
        "prior": [p / sum(prior) for p in prior],
        "likelihood": [[v / sum(row) for v in row] for row in rows],
        "x_labels": [f"x{j}" for j in range(m)],
        "psi_of_theta": [f"p{g}" for g in groups],
    }


@settings(max_examples=150, deadline=None)
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


def test_finite_joint_draw_allocates_no_size_by_outcomes_array():
    rows = np.random.default_rng(1).uniform(size=(200, 400))
    rows /= rows.sum(axis=1, keepdims=True)
    bundle = make_finite(FiniteModelSpec(
        [f"t{i}" for i in range(200)], [1 / 200] * 200, rows.tolist(), [f"x{j}" for j in range(400)],
    ))
    size = 20_000
    bundle.sample_joint(np.random.default_rng(2), size)
    tracemalloc.start()
    try:
        bundle.sample_joint(np.random.default_rng(2), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size * 400 * 8 / 10


@pytest.mark.parametrize("n, theta", [(20, 0.2), (40, 0.5), (7, 0.93)])
def test_beta_binomial_scalar_draw_matches_an_array_of_rates(n, theta):
    bundle = make_beta_binomial(n, 2.0, 3.0)
    got = bundle.sample_stat(np.random.default_rng(5), theta, 5000)
    np.testing.assert_array_equal(got, np.random.default_rng(5).binomial(n, np.full(5000, theta)))


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
    np.testing.assert_allclose(beta_interval_prob(lo, hi, a, b)[keep], want[keep], rtol=1e-12, atol=0.0)


def test_normal_interval_prob_tail_accuracy():
    # deep upper tail: the difference of CDFs would cancel catastrophically
    p = normal_interval_prob(8.0, 8.5, 0.0, 1.0)
    exact = stats.norm.sf(8.0) - stats.norm.sf(8.5)
    assert p == pytest.approx(exact, rel=1e-10)
    assert p > 0.0
