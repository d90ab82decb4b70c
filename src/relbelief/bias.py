"""A priori bias measurement and sample-size design.

Before any data are collected, the model and prior already fix the
probability of obtaining misleading evidence.  Two families of functionals
quantify this:

* hypothesis bias -- the probability of failing to find evidence for a true
  value (bias against), and the worst-case probability of finding evidence
  for a value that is meaningfully false, i.e. at least ``delta`` away (bias
  in favor);
* estimation bias -- the same two quantities averaged over the prior, which
  also give the prior coverage probability of the plausible region.

The location-normal bundle has an exact normal-CDF path throughout: the
event "ratio at psi0 is at least 1" reduces to a window |z + d| <= r for the
standardized data mean z, so every probability is a difference of two CDF
values.  Finite bundles are handled by exact enumeration.  Every functional
also has a seeded Monte Carlo path used for cross-validation; replications
are laid out by index in a dedicated substream, so estimates do not depend
on evaluation order or thread count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize

from .errors import DesignSearchError, DomainError
from .models import (
    PRIOR_CONTENT_FLOOR,
    BetaBinomialBundle,
    Discretization,
    FiniteBundle,
    LocationNormalBundle,
    LocationNormalSpec,
    norm_cdf,
    normal_interval_prob,
)
from .rng import substream

__all__ = [
    "McConfig",
    "BiasComponent",
    "BiasHReport",
    "BiasEReport",
    "DesignResult",
    "favor_prob_locnormal",
    "bias_against_h",
    "bias_in_favor_h",
    "hypothesis_bias",
    "bias_against_e",
    "bias_in_favor_e",
    "estimation_bias",
    "design_sample_size",
]

EXACT = "Exact"
MONTE_CARLO = "MonteCarlo"

# Relative change allowed when doubling quadrature nodes before the
# computation is declared nonconvergent and falls back to Monte Carlo.
QUAD_DOUBLING_RTOL = 1e-6

# Cells per intermediate array in the blocked table computations, so memory
# stays bounded whatever n_sim or the number of interest values.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class McConfig:
    """Replication count and seed for Monte Carlo paths.

    Replication ``i`` of a task always reads position ``i`` of that task's
    counter-based Philox substream, so the seed alone fixes every estimate.
    """

    n_sim: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n_sim, (int, np.integer)) and self.n_sim >= 1):
            raise DomainError(f"n_sim must be an integer >= 1, got {self.n_sim!r}")


@dataclass(frozen=True)
class BiasComponent:
    """One estimated bias probability with its standard error."""

    value: float
    se: float
    method: str
    fallback: bool = False

    def __post_init__(self):
        if not (-1e-12 <= self.value <= 1.0 + 1e-12):
            raise DomainError(f"bias probability out of [0, 1]: {self.value}")
        if self.method == EXACT and self.se != 0.0:
            raise DomainError("exact components must carry zero standard error")


@dataclass(frozen=True)
class BiasHReport:
    """Bias against and in favor of one hypothesized value."""

    psi0: object
    delta: float
    bias_against: float
    bias_in_favor: float
    se_against: float
    se_in_favor: float
    method: str

    def __post_init__(self):
        for v in (self.bias_against, self.bias_in_favor):
            if not (-1e-12 <= v <= 1.0 + 1e-12):
                raise DomainError(f"bias probability out of [0, 1]: {v}")
        if self.method == EXACT and (self.se_against != 0.0 or self.se_in_favor != 0.0):
            raise DomainError("exact reports must carry zero standard errors")


@dataclass(frozen=True)
class BiasEReport:
    """Estimation biases: prior-averaged and worst-case coverage failures."""

    avg_bias_against: float
    sup_bias_against: float
    avg_bias_in_favor: float
    implied_coverage: float
    delta: float
    se_avg_against: float
    se_sup_against: float
    se_avg_in_favor: float
    method: str

    def __post_init__(self):
        if self.implied_coverage != 1.0 - self.avg_bias_against:
            raise DomainError("implied coverage must equal 1 - average bias against")
        slack = 1e-9 + 3.0 * (self.se_avg_against + self.se_sup_against)
        if self.avg_bias_against > self.sup_bias_against + slack:
            raise DomainError(
                f"average bias against ({self.avg_bias_against}) exceeds its upper "
                f"bound ({self.sup_bias_against})"
            )


# ---------------------------------------------------------------------------
# location-normal exact machinery


def _favor_window(spec: LocationNormalSpec, mu0):
    """Window (r, d) such that the ratio at mu0 is >= 1 iff |z + d| <= r,
    where z is the standardized distance of the data mean from mu0."""
    mu0 = np.asarray(mu0, dtype=float)
    a = spec.n * spec.tau_star_sq / spec.sigma0_sq
    c = math.sqrt(spec.n) * (mu0 - spec.mu_star) / math.sqrt(spec.sigma0_sq)
    d = -c / a
    r_sq = (1.0 + a) / a * math.log1p(a) + (1.0 + a) * c * c / (a * a)
    if not np.all(r_sq > 0.0):
        raise AssertionError("window radius lost positivity; this cannot happen for a > 0")
    return np.sqrt(r_sq), d


def favor_prob_locnormal(spec: LocationNormalSpec, mu0, mu_true):
    """Probability of obtaining evidence in favor of ``mu0`` when data are
    generated with true mean ``mu_true`` (exact; vectorized)."""
    mu0_arr = np.asarray(mu0, dtype=float)
    mu_true_arr = np.asarray(mu_true, dtype=float)
    r, d = _favor_window(spec, mu0_arr)
    shift = math.sqrt(spec.n) * (mu_true_arr - mu0_arr) / math.sqrt(spec.sigma0_sq)
    prob = norm_cdf(r - d - shift) - norm_cdf(-r - d - shift)
    if np.isscalar(mu0) and np.isscalar(mu_true):
        return float(prob)
    return prob


# ---------------------------------------------------------------------------
# per-bundle evaluators for the two hypothesis events


def _anchored_cell(bundle, psi0: float, disc: Discretization) -> Tuple[float, float]:
    lo = psi0 - disc.delta
    hi = psi0 + disc.delta
    if isinstance(bundle, BetaBinomialBundle):
        lo, hi = max(lo, 0.0), min(hi, 1.0)
    return lo, hi


def _locnormal_indicator_draws(bundle, psi0, mu_true, mc, role, disc):
    """Simulated log cell-ratio (or point log-ratio) at psi0, one per replication."""
    rng = substream(mc.seed, *role)
    xbars = bundle.sample_stat(rng, mu_true, size=mc.n_sim)
    if disc is None:
        return bundle.log_rb_point(psi0, xbars)
    lo, hi = _anchored_cell(bundle, psi0, disc)
    prior = float(bundle.prior_interval(lo, hi))
    if prior < PRIOR_CONTENT_FLOOR:
        raise DomainError(f"the cell anchored at {psi0} has prior content below {PRIOR_CONTENT_FLOOR}")
    mean, var = bundle.posterior_params(xbars)  # affine in the statistic, vectorizes
    post = normal_interval_prob(lo, hi, mean, math.sqrt(var))
    with np.errstate(divide="ignore"):
        return np.log(post) - math.log(prior)


def _betabinomial_log_rb_table(bundle, psi0, disc):
    """log cell-ratio at psi0 for every count s = 0..n."""
    s = np.arange(bundle.n + 1)
    if disc is None:
        return bundle.log_rb_point(psi0, s)
    lo, hi = _anchored_cell(bundle, psi0, disc)
    prior = float(bundle.prior_interval(lo, hi))
    if prior < PRIOR_CONTENT_FLOOR:
        raise DomainError(f"the cell anchored at {psi0} has prior content below {PRIOR_CONTENT_FLOOR}")
    post = np.array([float(bundle.posterior_interval(lo, hi, int(k))) for k in s])
    with np.errstate(divide="ignore"):
        return np.log(post) - math.log(prior)


def _mc_probability(indicator: np.ndarray) -> Tuple[float, float]:
    n = indicator.size
    count = int(np.count_nonzero(indicator))
    p = count / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _resolve_method(method: str) -> str:
    if method == "auto":
        return EXACT
    if method in ("exact", EXACT):
        return EXACT
    if method in ("mc", MONTE_CARLO):
        return MONTE_CARLO
    raise DomainError(f"unknown method {method!r}; use 'auto', 'exact', or 'mc'")


def bias_against_h(
    bundle,
    psi0,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
) -> BiasComponent:
    """Prior probability of failing to obtain evidence in favor of ``psi0``
    when it is true (ties at a ratio of exactly 1 count as failures)."""
    how = _resolve_method(method)

    if isinstance(bundle, LocationNormalBundle):
        psi0 = float(psi0)
        if how == EXACT and disc is None:
            value = 1.0 - favor_prob_locnormal(bundle.spec, psi0, psi0)
            return BiasComponent(value=value, se=0.0, method=EXACT)
        mc = mc or McConfig()
        log_rb = _locnormal_indicator_draws(bundle, psi0, psi0, mc, ("bias-against-h",), disc)
        p, se = _mc_probability(log_rb <= 0.0)
        return BiasComponent(value=p, se=se, method=MONTE_CARLO)

    if isinstance(bundle, BetaBinomialBundle):
        psi0 = float(psi0)
        log_rb = _betabinomial_log_rb_table(bundle, psi0, disc)
        if how == EXACT:
            pmf = np.exp(bundle.log_sampling_pmf(psi0))
            value = float(pmf[log_rb <= 0.0].sum())
            return BiasComponent(value=min(value, 1.0), se=0.0, method=EXACT)
        mc = mc or McConfig()
        rng = substream(mc.seed, "bias-against-h")
        s = bundle.sample_stat(rng, psi0, size=mc.n_sim)
        p, se = _mc_probability(log_rb[s] <= 0.0)
        return BiasComponent(value=p, se=se, method=MONTE_CARLO)

    if isinstance(bundle, FiniteBundle):
        pi = bundle.psi_index(psi0)
        if bundle.prior_psi[pi] < PRIOR_CONTENT_FLOOR:
            raise DomainError(f"interest value {psi0!r} has prior content below {PRIOR_CONTENT_FLOOR}")
        rb_row = bundle.rb_psi_table()[pi]
        if how == EXACT:
            value = float(bundle.predictive_psi[pi][rb_row <= 1.0].sum())
            return BiasComponent(value=min(value, 1.0), se=0.0, method=EXACT)
        mc = mc or McConfig()
        rng = substream(mc.seed, "bias-against-h")
        _, x_idx = bundle.sample_joint(rng, mc.n_sim, cond_prior=bundle.cond_prior_given_psi(pi))
        p, se = _mc_probability(rb_row[x_idx] <= 1.0)
        return BiasComponent(value=p, se=se, method=MONTE_CARLO)

    raise DomainError(f"unsupported bundle type {type(bundle)!r}")


def _locnormal_favor_candidates(bundle, psi0, delta, boundary_only):
    """Candidate true values for the in-favor supremum: the two boundary
    points, plus the interior optimum of the window when it lies in the
    excluded-ball exterior (only possible when the prior pull is large)."""
    spec = bundle.spec
    cands = [psi0 - delta, psi0 + delta]
    if not boundary_only:
        r, d = _favor_window(spec, psi0)
        mu_opt = psi0 - float(d) * math.sqrt(spec.sigma0_sq) / math.sqrt(spec.n)
        if abs(mu_opt - psi0) >= delta:
            cands.append(mu_opt)
    return cands


def bias_in_favor_h(
    bundle,
    psi0,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> BiasComponent:
    """Worst-case prior probability of obtaining evidence in favor of
    ``psi0`` when the true value differs from it by at least ``delta``.

    With ``boundary_only`` (the default) the supremum is taken over the two
    values at distance exactly ``delta``, which is where it sits when the
    favor probability decays with distance; pass ``boundary_only=False`` to
    search the whole exterior.
    """
    if delta is None or not (delta > 0.0):
        raise DomainError(f"a positive difference-that-matters is required, got {delta!r}")
    how = _resolve_method(method)

    if isinstance(bundle, LocationNormalBundle):
        psi0 = float(psi0)
        cands = _locnormal_favor_candidates(bundle, psi0, delta, boundary_only)
        if how == EXACT and disc is None:
            probs = [favor_prob_locnormal(bundle.spec, psi0, m) for m in cands]
            return BiasComponent(value=max(probs), se=0.0, method=EXACT)
        mc = mc or McConfig()
        best, best_se = -1.0, 0.0
        for j, mu in enumerate(cands):
            log_rb = _locnormal_indicator_draws(
                bundle, psi0, mu, mc, ("bias-favor-h", j), disc
            )
            p, se = _mc_probability(log_rb >= 0.0)
            if p > best:
                best, best_se = p, se
        return BiasComponent(value=best, se=best_se, method=MONTE_CARLO)

    if isinstance(bundle, BetaBinomialBundle):
        psi0 = float(psi0)
        cands = [m for m in (psi0 - delta, psi0 + delta) if 0.0 < m < 1.0]
        if not boundary_only:
            grid = np.linspace(1e-6, 1.0 - 1e-6, 801)
            cands.extend(grid[np.abs(grid - psi0) >= delta])
        if not cands:
            raise DomainError(
                f"no success rate differs from {psi0} by {delta} inside (0, 1)"
            )
        log_rb = _betabinomial_log_rb_table(bundle, psi0, disc)
        if how == EXACT:
            value = 0.0
            for m in cands:
                pmf = np.exp(bundle.log_sampling_pmf(m))
                value = max(value, float(pmf[log_rb >= 0.0].sum()))
            return BiasComponent(value=min(value, 1.0), se=0.0, method=EXACT)
        mc = mc or McConfig()
        best, best_se = -1.0, 0.0
        for j, m in enumerate(cands):
            rng = substream(mc.seed, "bias-favor-h", j)
            s = bundle.sample_stat(rng, m, size=mc.n_sim)
            p, se = _mc_probability(log_rb[s] >= 0.0)
            if p > best:
                best, best_se = p, se
        return BiasComponent(value=best, se=best_se, method=MONTE_CARLO)

    if isinstance(bundle, FiniteBundle):
        # Labels carry the discrete metric: every other value is at distance 1.
        if delta > 1.0:
            raise DomainError(
                f"no interest value lies at distance >= {delta} under the discrete metric"
            )
        pi = bundle.psi_index(psi0)
        if bundle.prior_psi[pi] < PRIOR_CONTENT_FLOOR:
            raise DomainError(f"interest value {psi0!r} has prior content below {PRIOR_CONTENT_FLOOR}")
        rb_row = bundle.rb_psi_table()[pi]
        others = np.flatnonzero(bundle.prior_psi >= PRIOR_CONTENT_FLOOR)
        others = others[others != pi]
        if not others.size:
            raise DomainError("no alternative interest value carries prior mass")
        if how == EXACT:
            value = float((bundle.predictive_psi[others] @ (rb_row >= 1.0)).max())
            return BiasComponent(value=min(value, 1.0), se=0.0, method=EXACT)
        mc = mc or McConfig()
        best, best_se = -1.0, 0.0
        for j in others.tolist():
            rng = substream(mc.seed, "bias-favor-h", j)
            _, x_idx = bundle.sample_joint(rng, mc.n_sim, cond_prior=bundle.cond_prior_given_psi(j))
            p, se = _mc_probability(rb_row[x_idx] >= 1.0)
            if p > best:
                best, best_se = p, se
        return BiasComponent(value=best, se=best_se, method=MONTE_CARLO)

    raise DomainError(f"unsupported bundle type {type(bundle)!r}")


def hypothesis_bias(
    bundle,
    psi0,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> BiasHReport:
    against = bias_against_h(bundle, psi0, disc=disc, mc=mc, method=method)
    in_favor = bias_in_favor_h(
        bundle, psi0, delta, disc=disc, mc=mc, method=method, boundary_only=boundary_only
    )
    overall = EXACT if against.method == EXACT and in_favor.method == EXACT else MONTE_CARLO
    return BiasHReport(
        psi0=psi0,
        delta=delta,
        bias_against=against.value,
        bias_in_favor=in_favor.value,
        se_against=against.se,
        se_in_favor=in_favor.se,
        method=overall,
    )


# ---------------------------------------------------------------------------
# estimation biases


def _gauss_hermite_mean(g: Callable[[np.ndarray], np.ndarray], mean: float, sd: float, nodes: int) -> float:
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    return float(np.dot(w, g(mean + sd * t)) / math.sqrt(2.0 * math.pi))


def _grid_supremum(g: Callable[[float], float], center: float, halfwidth: float, points: int = 121) -> Tuple[float, float]:
    """Maximize g over [center - halfwidth, center + halfwidth]: coarse grid
    warm-started at the center, then a bounded local refinement."""
    grid = np.linspace(center - halfwidth, center + halfwidth, points)
    vals = np.array([g(m) for m in grid])
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, points - 1)]
    res = optimize.minimize_scalar(lambda m: -g(m), bounds=(lo, hi), method="bounded")
    if -res.fun >= vals[k]:
        return float(res.x), float(-res.fun)
    return float(grid[k]), float(vals[k])


def bias_against_e(
    bundle,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    quad_nodes: int = 64,
) -> Tuple[BiasComponent, BiasComponent]:
    """Average and worst-case prior probability that the plausible region
    misses the true value.  Returns (average, supremum)."""
    how = _resolve_method(method)
    quad_nodes = max(64, int(quad_nodes))

    if isinstance(bundle, LocationNormalBundle):
        spec = bundle.spec
        tau = math.sqrt(spec.tau_star_sq)

        def inner(mu):
            return 1.0 - favor_prob_locnormal(spec, mu, mu)

        if how == EXACT:
            v1 = _gauss_hermite_mean(inner, spec.mu_star, tau, quad_nodes)
            v2 = _gauss_hermite_mean(inner, spec.mu_star, tau, 2 * quad_nodes)
            if abs(v2 - v1) > QUAD_DOUBLING_RTOL * max(abs(v2), 1e-12):
                warnings.warn(
                    "quadrature for the average bias against did not converge on node "
                    "doubling; falling back to Monte Carlo",
                    RuntimeWarning,
                )
                avg = _locnormal_avg_against_mc(bundle, mc or McConfig(), disc, fallback=True)
            else:
                avg = BiasComponent(value=v2, se=0.0, method=EXACT)
            _, sup_val = _grid_supremum(lambda m: float(inner(m)), spec.mu_star, 6.0 * tau)
            sup = BiasComponent(value=sup_val, se=0.0, method=EXACT)
            return avg, sup
        mc = mc or McConfig()
        avg = _locnormal_avg_against_mc(bundle, mc, disc)
        grid = spec.mu_star + tau * np.linspace(-4.0, 4.0, 17)
        best, best_se = -1.0, 0.0
        for j, mu in enumerate(grid):
            log_rb = _locnormal_indicator_draws(
                bundle, float(mu), float(mu), mc, ("bias-against-e-sup", j), disc
            )
            p, se = _mc_probability(log_rb <= 0.0)
            if p > best:
                best, best_se = p, se
        return avg, BiasComponent(value=best, se=best_se, method=MONTE_CARLO)

    if isinstance(bundle, BetaBinomialBundle):
        mc = mc or McConfig()
        rng = substream(mc.seed, "bias-against-e-avg")
        theta = bundle.sample_prior(rng, mc.n_sim)
        s = bundle.sample_stat(rng, theta)
        log_rb = bundle.log_rb_point(theta, s)
        p, se = _mc_probability(log_rb <= 0.0)
        avg = BiasComponent(value=p, se=se, method=MONTE_CARLO)

        def inner(thet):
            if not (0.0 < thet < 1.0):
                return 0.0
            pmf = np.exp(bundle.log_sampling_pmf(thet))
            table = bundle.log_rb_point(thet, np.arange(bundle.n + 1))
            return float(pmf[table <= 0.0].sum())

        _, sup_val = _grid_supremum(inner, 0.5, 0.5 - 1e-6, points=201)
        sup = BiasComponent(value=sup_val, se=0.0, method=EXACT)
        return avg, sup

    if isinstance(bundle, FiniteBundle):
        rb = bundle.rb_psi_table()
        usable = bundle.prior_psi >= PRIOR_CONTENT_FLOOR
        per_psi = np.zeros(len(bundle.psi_labels))
        against = rb[usable] <= 1.0
        per_psi[usable] = np.where(against, bundle.predictive_psi[usable], 0.0).sum(axis=1)
        if how == EXACT:
            avg_val = float(np.dot(bundle.prior_psi[usable], per_psi[usable]))
            sup_val = float(per_psi[usable].max())
            return (
                BiasComponent(value=avg_val, se=0.0, method=EXACT),
                BiasComponent(value=sup_val, se=0.0, method=EXACT),
            )
        mc = mc or McConfig()
        rng = substream(mc.seed, "bias-against-e-avg")
        theta_idx, x_idx = bundle.sample_joint(rng, mc.n_sim)
        psi_idx = bundle.psi_index_of_theta[theta_idx]
        p, se = _mc_probability(rb[psi_idx, x_idx] <= 1.0)
        avg = BiasComponent(value=p, se=se, method=MONTE_CARLO)
        sup = BiasComponent(value=float(per_psi[usable].max()), se=0.0, method=EXACT)
        return avg, sup

    raise DomainError(f"unsupported bundle type {type(bundle)!r}")


def _locnormal_avg_against_mc(bundle, mc, disc, fallback=False) -> BiasComponent:
    rng = substream(mc.seed, "bias-against-e-avg")
    mus = bundle.sample_prior(rng, mc.n_sim)
    xbars = bundle.sample_stat(rng, mus)
    if disc is None:
        log_rb = bundle.log_rb_point(mus, xbars)
    else:
        # anchored-cell ratio per replication, vectorized over both draws
        lo, hi = mus - disc.delta, mus + disc.delta
        prior = bundle.prior_interval(lo, hi)
        mean, var = bundle.posterior_params(xbars)
        post = normal_interval_prob(lo, hi, mean, math.sqrt(var))
        with np.errstate(divide="ignore"):
            log_rb = np.log(post) - np.log(prior)
    p, se = _mc_probability(log_rb <= 0.0)
    return BiasComponent(value=p, se=se, method=MONTE_CARLO, fallback=fallback)


def bias_in_favor_e(
    bundle,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> BiasComponent:
    """Prior-averaged worst-case probability of obtaining evidence in favor
    of a value that is meaningfully false (at least ``delta`` away)."""
    if delta is None or not (delta > 0.0):
        raise DomainError(f"a positive difference-that-matters is required, got {delta!r}")
    how = _resolve_method(method)

    if isinstance(bundle, LocationNormalBundle):
        spec = bundle.spec
        tau = math.sqrt(spec.tau_star_sq)

        def inner(p0):
            cands = _locnormal_favor_candidates(bundle, float(p0), delta, boundary_only)
            return max(favor_prob_locnormal(spec, float(p0), m) for m in cands)

        if how == EXACT:
            # The integrand has a kink where the two boundary sides swap, at
            # the prior mean; integrate the smooth halves adaptively.
            pdf = lambda m: math.exp(-((m - spec.mu_star) ** 2) / (2.0 * spec.tau_star_sq)) / (
                tau * math.sqrt(2.0 * math.pi)
            )
            span = 9.0 * tau
            left, _ = integrate.quad(
                lambda m: inner(m) * pdf(m), spec.mu_star - span, spec.mu_star, limit=200
            )
            right, _ = integrate.quad(
                lambda m: inner(m) * pdf(m), spec.mu_star, spec.mu_star + span, limit=200
            )
            return BiasComponent(value=min(left + right, 1.0), se=0.0, method=EXACT)
        mc = mc or McConfig()
        rng = substream(mc.seed, "bias-favor-e")
        draws = bundle.sample_prior(rng, mc.n_sim)
        lo_side = favor_prob_locnormal(spec, draws, draws - delta)
        hi_side = favor_prob_locnormal(spec, draws, draws + delta)
        vals = np.maximum(lo_side, hi_side)
        return BiasComponent(
            value=float(vals.mean()),
            se=float(vals.std(ddof=1) / math.sqrt(mc.n_sim)),
            method=MONTE_CARLO,
        )

    if isinstance(bundle, BetaBinomialBundle):
        mc = mc or McConfig()
        rng = substream(mc.seed, "bias-favor-e")
        draws = bundle.sample_prior(rng, mc.n_sim)
        vals = _betabinomial_favor_at_draws(bundle, draws, delta)
        return BiasComponent(
            value=float(vals.mean()),
            se=float(vals.std(ddof=1) / math.sqrt(mc.n_sim)),
            method=MONTE_CARLO,
        )

    if isinstance(bundle, FiniteBundle):
        if delta > 1.0:
            raise DomainError(
                f"no interest value lies at distance >= {delta} under the discrete metric"
            )
        usable = np.flatnonzero(bundle.prior_psi >= PRIOR_CONTENT_FLOOR)
        if usable.size < 2:
            return BiasComponent(value=0.0, se=0.0, method=EXACT)
        # favor[j, i]: probability under M(. | psi_j) of evidence in favor of psi_i
        pred = bundle.predictive_psi[usable]
        in_favor = bundle.rb_psi_table()[usable] >= 1.0
        worst = np.empty(usable.size)
        cols = max(1, _BLOCK_CELLS // max(usable.size, len(bundle.x_labels)))
        for start in range(0, usable.size, cols):
            favor = pred @ in_favor[start:start + cols].T
            block = np.arange(favor.shape[1])
            favor[start + block, block] = -np.inf  # the truth is not an alternative
            worst[start:start + cols] = favor.max(axis=0)
        total = float(np.dot(bundle.prior_psi[usable], worst))
        return BiasComponent(value=min(total, 1.0), se=0.0, method=EXACT)

    raise DomainError(f"unsupported bundle type {type(bundle)!r}")


def _betabinomial_favor_at_draws(bundle, draws: np.ndarray, delta: float) -> np.ndarray:
    """For each prior draw p0, the larger probability of evidence in favor of
    p0 when the truth is p0 - delta or p0 + delta; a candidate outside (0, 1)
    is dropped, and a draw with neither scores 0.  Draws are processed in
    blocks of at most ``_BLOCK_CELLS`` (draw, count) cells."""
    counts = np.arange(bundle.n + 1)
    vals = np.zeros(draws.size)
    rows = max(1, _BLOCK_CELLS // counts.size)
    for start in range(0, draws.size, rows):
        block = draws[start:start + rows]
        truths = (block - delta, block + delta)
        inside = [(t > 0.0) & (t < 1.0) for t in truths]
        live = np.flatnonzero(inside[0] | inside[1])
        in_favor = bundle.log_rb_point(block[live, None], counts) >= 0.0
        best = np.zeros(live.size)
        for truth, ok in zip(truths, inside):
            truth, ok = truth[live], ok[live]
            pmf = np.exp(bundle.log_sampling_pmf(np.where(ok, truth, 0.5)))
            prob = np.where(in_favor, pmf, 0.0).sum(axis=1)
            best = np.maximum(best, np.where(ok, prob, 0.0))
        vals[start + live] = best
    return vals


def estimation_bias(
    bundle,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    quad_nodes: int = 64,
    boundary_only: bool = True,
) -> BiasEReport:
    avg, sup = bias_against_e(bundle, disc=disc, mc=mc, method=method, quad_nodes=quad_nodes)
    favor = bias_in_favor_e(
        bundle, delta, disc=disc, mc=mc, method=method, boundary_only=boundary_only
    )
    methods = {avg.method, sup.method, favor.method}
    return BiasEReport(
        avg_bias_against=avg.value,
        sup_bias_against=sup.value,
        avg_bias_in_favor=favor.value,
        implied_coverage=1.0 - avg.value,
        delta=delta,
        se_avg_against=avg.se,
        se_sup_against=sup.se,
        se_avg_in_favor=favor.se,
        method=EXACT if methods == {EXACT} else MONTE_CARLO,
    )


# ---------------------------------------------------------------------------
# design


@dataclass(frozen=True)
class DesignResult:
    """Smallest admissible sample size with the reports for every candidate."""

    n: int
    report: BiasHReport
    evaluated: Tuple[Tuple[int, BiasHReport], ...]


def design_sample_size(
    bundle_family: Callable[[int], object],
    psi0,
    delta: float,
    targets: Dict[str, float],
    n_grid: Sequence[int],
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> DesignResult:
    """Walk ``n_grid`` in ascending order and return the first sample size
    whose hypothesis biases meet every target.

    ``targets`` may contain ``max_bias_against`` and/or ``max_bias_in_favor``,
    each strictly inside (0, 1).  ``boundary_only`` is passed on to every
    hypothesis bias.  Raises :class:`DesignSearchError` carrying the full
    table when no candidate qualifies.
    """
    known = {"max_bias_against", "max_bias_in_favor"}
    unknown = set(targets) - known
    if unknown:
        raise DomainError(f"unknown design targets: {sorted(unknown)}")
    if not targets:
        raise DomainError("at least one design target is required")
    for name, value in targets.items():
        if not (0.0 < value < 1.0):
            raise DomainError(f"target {name} must lie strictly inside (0, 1), got {value}")
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])) or n_grid[0] < 1:
        raise DomainError("n_grid must be a strictly ascending sequence of sizes >= 1")

    evaluated = []
    for n in n_grid:
        report = hypothesis_bias(
            bundle_family(n), psi0, delta, disc=disc, mc=mc, method=method,
            boundary_only=boundary_only,
        )
        evaluated.append((n, report))
        ok = True
        if "max_bias_against" in targets and report.bias_against > targets["max_bias_against"]:
            ok = False
        if "max_bias_in_favor" in targets and report.bias_in_favor > targets["max_bias_in_favor"]:
            ok = False
        if ok:
            return DesignResult(n=n, report=report, evaluated=tuple(evaluated))
    raise DesignSearchError(
        f"no sample size on the grid {n_grid} meets the targets {targets}",
        reports=tuple(evaluated),
    )
