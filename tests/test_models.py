"""Bundle construction, validation, and sampler/density consistency."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from relbelief import (
    Discretization,
    DomainError,
    FiniteModelSpec,
    LocationNormalSpec,
    make_beta_binomial,
    make_finite,
    make_location_normal,
)
from relbelief.models import build_cells, normal_interval_prob

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


def test_finite_reduce_data():
    spec = random_finite_spec(np.random.default_rng(0))
    bundle = make_finite(FiniteModelSpec(**spec))
    assert bundle.reduce_data("x0") == 0
    assert bundle.reduce_data(1) == 1
    with pytest.raises(DomainError):
        bundle.reduce_data("nope")


# -- sampler vs density consistency -------------------------------------------


def test_prior_sampler_matches_prior_cdf_location_normal():
    bundle = make_location_normal(LocationNormalSpec(n=5, sigma0_sq=2.0, mu_star=1.5, tau_star_sq=0.7))
    assert bundle.consistency_check(seed=11, n_draws=100_000) < 0.01


def test_prior_sampler_matches_prior_cdf_beta():
    bundle = make_beta_binomial(10, 2.5, 1.5)
    assert bundle.consistency_check(seed=11, n_draws=100_000) < 0.01


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


def test_normal_interval_prob_tail_accuracy():
    # deep upper tail: the difference of CDFs would cancel catastrophically
    p = normal_interval_prob(8.0, 8.5, 0.0, 1.0)
    exact = stats.norm.sf(8.0) - stats.norm.sf(8.5)
    assert p == pytest.approx(exact, rel=1e-10)
    assert p > 0.0
