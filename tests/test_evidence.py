"""Profiles, estimation, strength, and the location-normal closed forms."""

import math

import numpy as np
import pytest

from relbelief import (
    Discretization,
    DomainError,
    FiniteModelSpec,
    LocationNormalSpec,
    Verdict,
    assess,
    estimate,
    make_beta_binomial,
    make_finite,
    make_location_normal,
    rb_locnormal_exact,
    rb_profile,
    reparam_profile,
    strength,
    tail_difference_locnormal,
)
from relbelief.models import locnormal_log_rb

from oracle import FiniteOracle, random_finite_spec


STD_SPEC = LocationNormalSpec(n=1, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)


def make_profile(spec, xbar, delta, anchor=None, rng_=None):
    return rb_profile(make_location_normal(spec), xbar, Discretization(delta=delta, anchor=anchor, range=rng_))


# -- profiles ---------------------------------------------------------------


def test_center_cell_rb_approaches_root_two():
    # all exponential terms vanish when the data mean, the hypothesis, and
    # the prior mean coincide, leaving sqrt(1 + n tau^2 / sigma0^2) = sqrt(2)
    profile = make_profile(STD_SPEC, xbar=0.0, delta=0.001, anchor=0.0)
    i0 = profile.anchor_index
    assert profile.rb[i0] == pytest.approx(math.sqrt(2.0), abs=1e-5)


def test_profile_requires_discretization_for_continuous():
    with pytest.raises(DomainError, match="Discretization"):
        rb_profile(make_location_normal(STD_SPEC), 0.0, None)


def test_identical_likelihood_rows_carry_no_evidence():
    # binary-exact weights so the posterior equals the prior bit for bit
    spec = FiniteModelSpec(
        theta_labels=["t0", "t1", "t2"],
        prior=[0.5, 0.25, 0.25],
        likelihood=[[0.5, 0.5]] * 3,
        x_labels=["x0", "x1"],
    )
    profile = rb_profile(make_finite(spec), "x0")
    assert np.all(profile.rb == 1.0)
    result = assess(profile, "t1")
    assert result.verdict.kind is Verdict.NEUTRAL


def test_profile_contents_are_radon_nikodym_consistent():
    profile = make_profile(
        LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=1.0, tau_star_sq=1.0), 0.3, 0.05
    )
    u = profile.usable
    lhs = float(np.sum(profile.rb[u] * profile.prior_content[u]))
    rhs = float(np.sum(profile.posterior_content[u]))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs <= 1.0 + 1e-12
    assert float(np.max(profile.rb[u])) >= 1.0 - 1e-9


def test_profile_excludes_empty_tail_cells():
    profile = make_profile(STD_SPEC, xbar=0.0, delta=0.05, rng_=(-9.0, 9.0))
    assert profile.excluded_cells > 0
    assert profile.excluded_prior_mass < 1e-10
    assert np.all(np.isnan(profile.rb[~profile.usable]))


def test_profile_rejects_grid_that_misses_the_posterior():
    # data far outside a clamped range: no cell reaches a ratio of 1
    spec = LocationNormalSpec(n=50, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
    with pytest.raises(DomainError, match="misses the"):
        make_profile(spec, xbar=50.0, delta=0.05, rng_=(-2.0, 2.0))


# -- estimation ----------------------------------------------------------------


def test_estimate_argmax_cell_contains_stationary_point():
    # the maximizer of the posterior-to-prior density ratio, computed from
    # the stationarity condition of the log ratio
    spec = LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=1.0, tau_star_sq=1.0)
    bundle = make_location_normal(spec)
    xbar = 0.37
    profile = rb_profile(bundle, xbar, Discretization(delta=0.01))
    report = estimate(profile)
    m_p, v_p = bundle.posterior_params(xbar)
    analytic = (m_p / v_p - spec.mu_star / spec.tau_star_sq) / (1.0 / v_p - 1.0 / spec.tau_star_sq)
    idx = profile.cell_index_of(analytic)
    assert report.psi_hat == pytest.approx(profile.centers[idx], abs=1e-12)
    assert report.psi_hat == pytest.approx(xbar, abs=0.011)


def test_estimate_plausible_region_matches_bruteforce():
    profile = make_profile(
        LocationNormalSpec(n=5, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0), 0.6, 0.05
    )
    report = estimate(profile)
    expected = np.flatnonzero(profile.usable & (profile.rb > 1.0))
    assert list(report.plausible_indices) == list(expected)
    assert report.pl_posterior_content == pytest.approx(
        float(profile.posterior_content[expected].sum())
    )
    if report.pl_posterior_content > 0:
        assert report.psi_hat in report.plausible_values


def test_credible_region_nesting_and_rb_at_least_one():
    profile = make_profile(
        LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0), 0.4, 0.02
    )
    pl_content = estimate(profile).pl_posterior_content
    gammas = [0.2, 0.5, 0.8 * pl_content, pl_content]
    previous = set()
    for gamma in sorted(gammas):
        region = estimate(profile, gamma=gamma).credible
        assert region.posterior_content >= gamma - 1e-12
        assert previous.issubset(set(region.indices))
        previous = set(region.indices)
        # the credible region is itself evidence in favor
        assert region.posterior_content / region.prior_content >= 1.0 - 1e-9


def test_credible_at_plausible_content_recovers_plausible_region():
    profile = make_profile(
        LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0), 0.4, 0.02
    )
    report = estimate(profile, gamma=estimate(profile).pl_posterior_content)
    assert set(report.credible.indices) == set(report.plausible_indices)


def test_gamma_above_plausible_content_is_rejected():
    profile = make_profile(STD_SPEC, 0.3, 0.05)
    limit = estimate(profile).pl_posterior_content
    with pytest.raises(DomainError, match="exceeds plausible-region posterior content"):
        estimate(profile, gamma=min(0.999, limit + 0.05))
    with pytest.raises(DomainError, match="credible level must lie in"):
        estimate(profile, gamma=1.5)


# -- strength and assessment -----------------------------------------------------


def test_strength_at_unique_argmax_is_total_content():
    spec = FiniteModelSpec(
        theta_labels=["t0", "t1", "t2"],
        prior=[0.2, 0.3, 0.5],
        likelihood=[[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]],
        x_labels=["x0", "x1"],
    )
    profile = rb_profile(make_finite(spec), "x0")
    top = estimate(profile).psi_hat
    assert strength(profile, top) == pytest.approx(1.0, abs=1e-12)


def test_strength_outside_grid_errors():
    profile = make_profile(STD_SPEC, 0.0, 0.05)
    with pytest.raises(DomainError, match="outside the grid"):
        strength(profile, 99.0)


def test_prosecutor_assessment():
    n_pop, m = 1000, 10
    spec = FiniteModelSpec(
        theta_labels=["guilty", "not_guilty"],
        prior=[1 / n_pop, (n_pop - 1) / n_pop],
        likelihood=[[1.0, 0.0], [(m - 1) / (n_pop - 1), (n_pop - m) / (n_pop - 1)]],
        x_labels=["trait", "no_trait"],
    )
    profile = rb_profile(make_finite(spec), "trait")
    result = assess(profile, "guilty")
    assert result.rb0 == pytest.approx(n_pop / m, abs=1e-12)
    assert result.verdict.kind is Verdict.FAVOR
    report = estimate(profile)
    assert report.psi_hat == "guilty"
    # evidence in favor, but weak: the region it supports holds little belief
    assert report.pl_posterior_content == pytest.approx(1 / m, abs=1e-12)
    assert result.markov_lower == pytest.approx(1 / m, abs=1e-12)
    assert result.strength == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError, match="profiles over labeled parameters have no continuous reparameterization"):
        reparam_profile(profile, lambda x: x)


def test_small_rb_bounds_strength():
    profile = make_profile(
        LocationNormalSpec(n=30, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0), 1.2, 0.02, anchor=0.0
    )
    result = assess(profile, 0.0)
    assert result.rb0 < 1.0
    assert result.strength <= result.rb0 + 1e-9
    assert result.strength >= result.markov_lower - 1e-15


def test_markov_sandwich_every_cell():
    bundles_and_profiles = []
    profile = make_profile(
        LocationNormalSpec(n=10, sigma0_sq=1.0, mu_star=0.5, tau_star_sq=2.0), 0.9, 0.1
    )
    bundles_and_profiles.append(profile)
    bb = make_beta_binomial(12, 2.0, 3.0)
    bundles_and_profiles.append(rb_profile(bb, 7, Discretization(delta=0.02)))
    bundles_and_profiles.append(
        rb_profile(make_finite(FiniteModelSpec(**random_finite_spec(np.random.default_rng(5)))), 0)
    )
    for profile in bundles_and_profiles:
        for i in np.flatnonzero(profile.usable):
            value = profile.labels[i] if profile.is_labeled else float(profile.centers[i])
            s = strength(profile, value)
            assert profile.posterior_content[i] <= s + 1e-9
            assert s <= min(1.0, profile.rb[i]) + 1e-9


# -- oracle agreement on finite models ----------------------------------------


def test_beta_binomial_profile_matches_quadrature():
    # cell contents recomputed by integrating the beta densities directly
    from scipy import integrate, stats as sps

    bundle = make_beta_binomial(12, 2.0, 3.0)
    s = 8
    profile = rb_profile(bundle, s, Discretization(delta=0.05, range=(0.1, 0.9)))
    a_post, b_post = bundle.posterior_params(s)
    for i in np.flatnonzero(profile.usable)[::3]:
        lo, hi = profile.edges[i], profile.edges[i + 1]
        prior_q, _ = integrate.quad(lambda t: sps.beta.pdf(t, 2.0, 3.0), lo, hi)
        post_q, _ = integrate.quad(lambda t: sps.beta.pdf(t, a_post, b_post), lo, hi)
        assert profile.prior_content[i] == pytest.approx(prior_q, rel=1e-8)
        assert profile.rb[i] == pytest.approx(post_q / prior_q, rel=1e-7)


def test_finite_profile_matches_oracle_enumeration():
    rng = np.random.default_rng(123)
    for _ in range(10):
        spec = random_finite_spec(rng)
        bundle = make_finite(FiniteModelSpec(**spec))
        oracle = FiniteOracle(spec)
        for x in spec["x_labels"]:
            profile = rb_profile(bundle, x)
            for i, psi in enumerate(bundle.psi_labels):
                assert profile.prior_content[i] == pytest.approx(oracle.prior_psi(psi), abs=1e-12)
                assert profile.posterior_content[i] == pytest.approx(
                    oracle.posterior_psi(psi, x), abs=1e-12
                )
                assert profile.rb[i] == pytest.approx(oracle.rb(psi, x), abs=1e-12)
                assert strength(profile, psi) == pytest.approx(oracle.strength(psi, x), abs=1e-12)


# -- closed forms ----------------------------------------------------------------


def test_rb_exact_when_everything_coincides():
    for n, tau_sq in [(1, 1.0), (5, 2.0), (50, 0.5)]:
        spec = LocationNormalSpec(n=n, sigma0_sq=1.0, mu_star=0.3, tau_star_sq=tau_sq)
        assert rb_locnormal_exact(spec, 0.3, 0.3) == pytest.approx(
            math.sqrt(1 + n * tau_sq), rel=1e-12
        )


def test_rb_exact_grows_without_bound_in_prior_variance():
    # fixed standardized distance of the data mean from the hypothesis
    values = []
    for tau_sq in (1.0, 1e2, 1e4, 1e6):
        spec = LocationNormalSpec(n=25, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=tau_sq)
        values.append(rb_locnormal_exact(spec, 0.5, 0.1))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 100.0


def test_grid_rb_converges_to_closed_form():
    spec = LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=1.0, tau_star_sq=1.0)
    exact = rb_locnormal_exact(spec, 0.3, 0.0)
    errors = []
    for delta in (0.1, 0.01, 0.001):
        profile = make_profile(spec, 0.3, delta, anchor=0.0)
        errors.append(abs(profile.rb[profile.anchor_index] - exact) / exact)
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-4


def test_rb_exact_matches_density_ratio():
    rng = np.random.default_rng(99)
    for _ in range(50):
        spec = LocationNormalSpec(
            n=int(rng.integers(1, 40)),
            sigma0_sq=float(rng.uniform(0.3, 3.0)),
            mu_star=float(rng.normal(0, 2)),
            tau_star_sq=float(rng.uniform(0.3, 4.0)),
        )
        xbar = float(rng.normal(0, 2))
        mu0 = float(rng.normal(0, 2))
        bundle = make_location_normal(spec)
        m_p, v_p = bundle.posterior_params(xbar)
        post = math.exp(-((mu0 - m_p) ** 2) / (2 * v_p)) / math.sqrt(2 * math.pi * v_p)
        prior = math.exp(-((mu0 - spec.mu_star) ** 2) / (2 * spec.tau_star_sq)) / math.sqrt(
            2 * math.pi * spec.tau_star_sq
        )
        assert rb_locnormal_exact(spec, xbar, mu0) == pytest.approx(post / prior, rel=1e-10)


# -- tail-difference measure -----------------------------------------------------


def test_tail_difference_positive_at_coincidence():
    assert tail_difference_locnormal(STD_SPEC, 0.0, 0.0) > 0.0


def test_tail_difference_approaches_p_value_for_diffuse_prior():
    z = 1.7
    spec = LocationNormalSpec(n=25, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1e8)
    xbar = z / 5.0
    p_value = 2 * (1 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
    assert tail_difference_locnormal(spec, xbar, 0.0) == pytest.approx(p_value, abs=1e-4)


def test_tail_difference_sign_agrees_with_rb_on_sweep():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        spec = LocationNormalSpec(
            n=int(rng.integers(1, 80)),
            sigma0_sq=float(rng.uniform(0.2, 5.0)),
            mu_star=float(rng.normal(0, 3)),
            tau_star_sq=float(rng.uniform(0.2, 6.0)),
        )
        xbar = float(rng.normal(0, 3))
        mu0 = float(rng.normal(0, 3))
        log_rb = float(locnormal_log_rb(spec, xbar, mu0))
        value = tail_difference_locnormal(spec, xbar, mu0)
        if abs(log_rb) > 1e-9:
            assert (value > 0) == (log_rb > 0)


# -- reparameterization -----------------------------------------------------------


def _profile_for_reparam():
    return make_profile(
        LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0), 0.4, 0.05
    )


def test_reparam_identity_preserves_everything():
    profile = _profile_for_reparam()
    mapped = reparam_profile(profile, lambda x: x)
    assert np.array_equal(mapped.rb, profile.rb, equal_nan=True)
    assert np.array_equal(mapped.edges, profile.edges)


def test_reparam_exp_maps_plausible_region_cellwise():
    profile = _profile_for_reparam()
    mapped = reparam_profile(profile, np.exp)
    base = estimate(profile)
    image = estimate(mapped)
    assert image.psi_hat == pytest.approx(math.exp(base.psi_hat), rel=1e-12)
    assert list(image.plausible_indices) == list(base.plausible_indices)
    for i in base.plausible_indices:
        assert mapped.edges[i] == pytest.approx(math.exp(profile.edges[i]), rel=1e-12)
    assert image.pl_posterior_content == pytest.approx(base.pl_posterior_content)


def test_reparam_affine_maps_estimate():
    profile = _profile_for_reparam()
    mapped = reparam_profile(profile, lambda x: 2.5 * x - 1.0)
    assert estimate(mapped).psi_hat == pytest.approx(2.5 * estimate(profile).psi_hat - 1.0)


def test_reparam_decreasing_map_reverses_grid():
    profile = _profile_for_reparam()
    mapped = reparam_profile(profile, lambda x: -x)
    assert np.all(np.diff(mapped.edges) > 0)
    assert estimate(mapped).psi_hat == pytest.approx(-estimate(profile).psi_hat)
    s0 = strength(profile, 0.4)
    assert strength(mapped, -0.4) == pytest.approx(s0, abs=1e-12)


def test_reparam_decreasing_map_moves_the_anchor_with_its_cell():
    profile = make_profile(LocationNormalSpec(n=20, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0), 0.4, 0.05,
                           anchor=0.1)
    mapped = reparam_profile(profile, lambda x: -x)
    i, j = profile.anchor_index, mapped.anchor_index
    assert j == profile.n_cells - 1 - i
    assert mapped.centers[j] == -profile.centers[i]
    for field in ("prior_content", "posterior_content", "rb"):
        assert getattr(mapped, field)[j] == getattr(profile, field)[i]


@pytest.mark.parametrize("lam", [np.exp, lambda x: -x], ids=["increasing", "decreasing"])
def test_profile_arrays_are_read_only_and_reparam_shares_them(lam):
    profile = _profile_for_reparam()
    mapped = reparam_profile(profile, lam)
    for field in ("prior_content", "posterior_content", "rb", "usable", "edges", "centers"):
        assert not getattr(profile, field).flags.writeable and not getattr(mapped, field).flags.writeable
    for field in ("prior_content", "posterior_content", "rb", "usable"):
        assert np.shares_memory(getattr(mapped, field), getattr(profile, field))
    assert (mapped.data_digest, mapped.excluded_cells) == (profile.data_digest, profile.excluded_cells)


def test_reparam_takes_a_map_of_scalars_only():
    profile = _profile_for_reparam()
    mapped, vectorized = reparam_profile(profile, math.exp), reparam_profile(profile, np.exp)
    assert mapped.edges == pytest.approx(vectorized.edges, rel=1e-15)
    assert mapped.centers == pytest.approx(vectorized.centers, rel=1e-15)
    assert np.array_equal(mapped.rb, vectorized.rb, equal_nan=True)


def test_reparam_rejects_non_monotone_maps():
    profile = _profile_for_reparam()
    with pytest.raises(DomainError, match="monotone"):
        reparam_profile(profile, lambda x: x * x)


def test_reparam_random_monotone_maps_preserve_verdicts():
    rng = np.random.default_rng(31)
    profile = _profile_for_reparam()
    base = estimate(profile)
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.0, 2.0))
        c = float(rng.normal(0, 1))
        sign = 1.0 if rng.random() < 0.5 else -1.0

        def lam(x, a=a, b=b, c=c, sign=sign):
            return sign * (a * x + b * np.arctan(x - c))

        mapped = reparam_profile(profile, lam)
        image = estimate(mapped)
        assert image.pl_posterior_content == pytest.approx(base.pl_posterior_content)
        assert image.psi_hat == pytest.approx(lam(base.psi_hat), rel=1e-9, abs=1e-9)
        assert np.nanmax(mapped.rb) == pytest.approx(np.nanmax(profile.rb))


def test_assess_refuses_a_cell_below_the_prior_floor_like_strength():
    spec = FiniteModelSpec(
        theta_labels=["t0", "t1", "t2"],
        prior=[0.0, 0.5, 0.5],
        likelihood=[[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]],
        x_labels=["x0", "x1"],
    )
    profile = rb_profile(make_finite(spec), "x0")
    with pytest.raises(DomainError) as from_strength:
        strength(profile, "t0")
    with pytest.raises(DomainError) as from_assess:
        assess(profile, "t0")
    assert str(from_assess.value) == str(from_strength.value)
    assert "cannot support a hypothesis assessment" in str(from_assess.value)
