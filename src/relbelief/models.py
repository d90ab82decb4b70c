"""Model, prior, and interest-parameter bundles.

Three builtin bundles cover the package's needs:

* :class:`LocationNormalBundle` -- i.i.d. normal data with known variance and
  a conjugate normal prior on the mean.  Everything downstream (profiles,
  biases, conflict checks) has an exact normal-CDF path.
* :class:`BetaBinomialBundle` -- binomial counts with a conjugate beta prior.
  The data space is finite, so biases and checks are exact by enumeration.
* :class:`FiniteBundle` -- a fully tabulated model (prior vector, likelihood
  table, interest map).  Every quantity is computable by exact enumeration,
  which makes it the reference oracle for the rest of the package.

A bundle is immutable after construction and safe to share across threads;
samplers take an explicit generator instead of hidden state.

Every bundle also offers the small primitive the bias engine is built on:
``interest`` (the internal coordinate of a hypothesized value, refused when
it or its anchored cell falls below the prior-content floor), ``log_rb``
(the log ratio of the point, or of the cell anchored at a value, for
statistic values), ``region_prob`` (the exact probability that this ratio is
at most or at least 1 under each true value, for a point and for a cell
alike), ``alternatives`` (the true values a bias in favor ranges over, with
their Monte Carlo stream keys), the samplers, and three estimation methods:
``supremum(g)``, ``prior_mean(g, smooth)`` (``None`` where the bundle has no
exact rule yet) and ``favor_sup(delta, disc, boundary_only)`` (the function
whose prior mean is the average bias in favor).  ``profile_cells`` gives a
profile its label or grid cells.  The conflict check needs three more:
``sample_predictive`` (statistic draws from the prior predictive),
``predictive_tail`` (the prior-predictive probability of a statistic no more
probable than the observed one, exact or from draws, each bundle comparing
statistics on its own ordering) and ``stat_label`` (the observed statistic
as reported).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy  # scipy.integrate and scipy.optimize load on first use, which post-data jobs never reach
from scipy import special

from .errors import DomainError

# Cells whose prior content falls below this are excluded from inference, and
# a hypothesized value whose cell (or label) falls below it is refused.  Prior
# averages and suprema evaluate every node and draw: their weight there is
# negligible, and the region probabilities stay accurate in both tails.
PRIOR_CONTENT_FLOOR = 1e-12
# Central prior probability covered by a default grid range.
DEFAULT_RANGE_MASS = 0.9999
# Relative change allowed when doubling Gauss-Hermite nodes; a ladder that
# never settles within it hands the prior mean to adaptive quadrature.
QUAD_DOUBLING_RTOL = 1e-6
# Gauss-Hermite node counts tried in turn: the first doubling within
# QUAD_DOUBLING_RTOL is accepted.  hermegauss(512) returns NaN weights.
_QUAD_NODES = (64, 128, 256)
# Halvings of the bracket [0, delta + 40 posterior sds] that locate the edge of
# a location-normal cell's favor window: the bracket shrinks to below one part
# in 1e19, past double precision.
_WINDOW_BISECTIONS = 64
# Cells per intermediate array in the blocked bias-in-favor tables, so memory
# stays bounded whatever n_sim or the number of interest values.
_BLOCK_CELLS = 1 << 18

__all__ = [
    "Discretization",
    "LocationNormalSpec",
    "FiniteModelSpec",
    "LocationNormalBundle",
    "BetaBinomialBundle",
    "FiniteBundle",
    "make_location_normal",
    "make_beta_binomial",
    "make_finite",
    "norm_cdf",
    "norm_quantile",
    "normal_interval_prob",
    "beta_interval_prob",
    "locnormal_log_rb",
    "favor_prob_locnormal",
    "build_cells",
]


# ---------------------------------------------------------------------------
# numerical helpers


def norm_cdf(z):
    """Standard normal CDF via the error function (absolute error < 1e-13)."""
    return special.ndtr(z)


def norm_quantile(p):
    return special.ndtri(p)


def normal_interval_prob(lo, hi, mean, sd):
    """P(lo < X <= hi) for X ~ N(mean, sd^2), accurate in both tails."""
    zlo = (np.asarray(lo, dtype=float) - mean) / sd
    zhi = (np.asarray(hi, dtype=float) - mean) / sd
    # In the upper tail the CDF saturates at 1; use survival values there.
    upper = special.ndtr(-zlo) - special.ndtr(-zhi)
    lower = special.ndtr(zhi) - special.ndtr(zlo)
    return np.where(zlo >= 0.0, upper, lower)


def beta_interval_prob(lo, hi, a, b):
    """P(lo < X <= hi) for X ~ Beta(a, b), accurate in both tails."""
    lo = np.clip(np.asarray(lo, dtype=float), 0.0, 1.0)
    hi = np.clip(np.asarray(hi, dtype=float), 0.0, 1.0)
    cdf_lo = special.betainc(a, b, lo)
    direct = special.betainc(a, b, hi) - cdf_lo
    # Past the median the CDF saturates at 1; use survival values there.
    flipped = special.betainc(b, a, 1.0 - lo) - special.betainc(b, a, 1.0 - hi)
    return np.where(cdf_lo >= 0.5, flipped, direct)


# ---------------------------------------------------------------------------
# discretization


@dataclass(frozen=True)
class Discretization:
    """A grid over the interest parameter.

    ``delta`` is the half-width of a cell: values closer than ``delta`` are
    treated as practically indistinguishable.  It has no default because it
    is a property of the application, not of the model.  ``range`` defaults
    to the central prior interval carrying ``DEFAULT_RANGE_MASS``; it is
    extended automatically to cover ``anchor`` when one is given.  ``anchor``
    forces one cell to be centered at that value so a hypothesis sits exactly
    on a cell.
    """

    delta: float
    range: Optional[Tuple[float, float]] = None
    anchor: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.delta < math.inf):
            raise DomainError(f"delta must be positive and finite, got {self.delta}")
        if self.range is not None:
            lo, hi = self.range
            if not (-math.inf < lo < hi < math.inf):
                raise DomainError(f"range must satisfy lo < hi and be finite, got {self.range}")
        if self.anchor is not None and not math.isfinite(self.anchor):
            raise DomainError(f"anchor must be finite, got {self.anchor}")


def build_cells(disc: Discretization, default_range: Tuple[float, float]):
    """Return (edges, anchor_index) for the grid implied by ``disc``.

    Cells have width 2*delta.  Without an anchor the grid starts at the lower
    end of the range and the last cell is shortened to end exactly at the
    upper end.  With an anchor the grid is aligned so the anchor is a cell
    center, and the range is expanded outward to whole cells.
    """
    lo, hi = disc.range if disc.range is not None else default_range
    width = 2.0 * disc.delta
    if disc.anchor is not None:
        anchor = disc.anchor
        lo = min(lo, anchor - disc.delta)
        hi = max(hi, anchor + disc.delta)
        m_left = max(0, math.ceil((anchor - disc.delta - lo) / width - 1e-12))
        e0 = anchor - disc.delta - m_left * width
        m_cells = max(1, math.ceil((hi - e0) / width - 1e-12))
        edges = e0 + width * np.arange(m_cells + 1)
        return edges, m_left
    n_cells = max(1, math.ceil((hi - lo) / width - 1e-12))
    edges = lo + width * np.arange(n_cells + 1)
    if edges[-1] > hi:
        edges[-1] = hi
    return edges, None


def _prior_cell_content(bundle, lo, hi):
    """Prior content of the cells (lo, hi], refused where it underflows to 0:
    the cell ratio is then 0/0."""
    prior = bundle.prior_interval(lo, hi)
    if not np.all(prior > 0.0):
        raise DomainError("a cell's prior content underflows to 0, so its ratio cannot be computed")
    return prior


def _log_cell_rb(bundle, lo, hi, t):
    """log ratio of the cell (lo, hi] for statistic values ``t``."""
    prior = _prior_cell_content(bundle, lo, hi)
    with np.errstate(divide="ignore"):
        return np.log(bundle.posterior_interval(lo, hi, t)) - np.log(prior)


def refuse_grid(disc: Optional[Discretization]) -> None:
    """A finite model's interest values are labels, which have no cells:
    refuse a discretization rather than ignore it."""
    if disc is not None:
        raise DomainError("a finite bundle takes no discretization: its interest labels have no cells")


@functools.lru_cache(maxsize=len(_QUAD_NODES))
def _hermite_rule(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights for the weight exp(-t^2/2),
    built once per node count."""
    t, w = np.polynomial.hermite_e.hermegauss(nodes)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _inverse_cdf(weights, u) -> np.ndarray:
    """The index each uniform in ``u`` selects under ``weights``."""
    cum = np.cumsum(weights)
    return np.clip(np.searchsorted(cum, u * cum[-1], side="right"), 0, len(weights) - 1)


def _enumerated_tail(order, t, draws, pmf) -> float:
    """Probability of a statistic whose ``order`` value is at most that of
    ``t`` (ties included): summed over ``pmf``, or the share of ``draws``."""
    if draws is None:
        return float(pmf[order <= order[t]].sum())
    return float(np.mean(order[draws] <= order[t]))


def _numbered(truths):
    """Number candidate true values as (stream key, value) pairs.

    For one hypothesized value a NaN candidate is no alternative and is
    dropped before numbering; for an array of hypothesized values every
    candidate is an array, NaN where it is no alternative."""
    kept = [t if np.ndim(t) else float(t) for t in truths if np.ndim(t) or not np.isnan(t)]
    return list(enumerate(kept))


class _ContinuousBundle:
    """What the two bundles with a real interest parameter share.  A subclass
    sets ``_sup_grid``, the (center, half-width, points) of the grid its
    supremum search starts from, and may set ``_draw_cells``, the cells one
    value's region probability spans."""

    _draw_cells = 1

    def interest(self, psi0, disc: Optional[Discretization] = None) -> float:
        """The hypothesized value ``psi0``; with ``disc``, refused when its
        anchored cell has prior content below PRIOR_CONTENT_FLOOR."""
        psi0 = float(psi0)
        if disc is not None and self.prior_interval(*self._cell(psi0, disc.delta)) < PRIOR_CONTENT_FLOOR:
            raise DomainError(
                f"a cell anchored at the hypothesized value has prior content below {PRIOR_CONTENT_FLOOR}"
            )
        return psi0

    def _cell(self, psi0, delta: float):
        """The cell of half-width ``delta`` anchored at ``psi0`` (broadcast)."""
        return psi0 - delta, psi0 + delta

    def stat_label(self, t):
        return t

    def sample_joint(self, rng: np.random.Generator, size: int):
        """Draw (true value, statistic) pairs from the prior predictive."""
        psi = self.sample_prior(rng, size)
        return psi, self.sample_stat(rng, psi)

    def supremum(self, g) -> float:
        """Largest value of the vectorized ``g`` on the interest range: the
        best point of a grid, then a bounded refinement between its
        neighbours."""
        center, halfwidth, points = self._sup_grid
        grid = np.linspace(center - halfwidth, center + halfwidth, points)
        vals = g(grid)
        k = int(np.argmax(vals))
        res = scipy.optimize.minimize_scalar(
            lambda m: -float(g(m)), bounds=(grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]), method="bounded"
        )
        return max(float(-res.fun), float(vals[k]))

    def favor_sup(self, delta: float, disc: Optional[Discretization] = None, boundary_only: bool = True):
        """``g(psi0)``: the exact largest probability of evidence in favor of
        ``psi0`` (a value or an array) over its alternatives, 0 where there
        is none.  Arrays go in blocks of at most ``_BLOCK_CELLS`` cells."""

        def one(p0):
            truths = np.array([truth for _, truth in self.alternatives(p0, delta, boundary_only)])
            return np.fmax.reduce(self.region_prob(p0, truths, disc, False), axis=0, initial=0.0)

        def g(p0):
            if np.ndim(p0) == 0:
                return one(p0)
            rows = max(1, _BLOCK_CELLS // self._draw_cells)
            return np.concatenate([one(p0[start:start + rows]) for start in range(0, len(p0), rows)])

        return g

    def profile_cells(self, data, disc: Optional[Discretization]):
        """(prior contents, posterior contents, data digest, layout) of the
        profile over the grid cells of ``disc``, which is required."""
        if disc is None:
            raise DomainError("a Discretization is required for continuous interest parameters")
        t = self.reduce_data(data)
        edges, anchor_index = build_cells(disc, self.default_psi_range())
        prior = np.asarray(self.prior_interval(edges[:-1], edges[1:]), dtype=float)
        posterior = np.asarray(self.posterior_interval(edges[:-1], edges[1:], t), dtype=float)
        centers = 0.5 * (edges[:-1] + edges[1:])
        edges.setflags(write=False)
        centers.setflags(write=False)
        layout = dict(edges=edges, centers=centers, anchor_index=anchor_index, delta=disc.delta)
        return prior, posterior, (self.n, t), layout


# ---------------------------------------------------------------------------
# location normal


@dataclass(frozen=True)
class LocationNormalSpec:
    """Sampling and prior parameters for the known-variance normal model."""

    n: int
    sigma0_sq: float
    mu_star: float
    tau_star_sq: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise DomainError(f"sample size n must be an integer >= 1, got {self.n!r}")
        if not (0.0 < self.sigma0_sq < math.inf):
            raise DomainError(f"sigma0_sq must be positive and finite, got {self.sigma0_sq}")
        if not math.isfinite(self.mu_star):
            raise DomainError(f"mu_star must be finite, got {self.mu_star}")
        if not (0.0 < self.tau_star_sq < math.inf):
            raise DomainError(f"tau_star_sq must be positive and finite, got {self.tau_star_sq}")


def locnormal_log_rb(spec: LocationNormalSpec, xbar, mu0):
    """log of the relative belief ratio at mu0 given the mean of the data.

    This is the conjugate-model closed form: with a = n tau*^2 / sigma0^2,
    z the standardized distance of xbar from mu0, and d the prior pull term,

        log RB = log(1 + a)/2 - (1 + 1/a)^{-1} (z + d)^2 / 2
                 + (mu0 - mu*)^2 / (2 tau*^2)

    Vectorized over ``xbar`` and ``mu0``.
    """
    xbar = np.asarray(xbar, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    sigma0 = math.sqrt(spec.sigma0_sq)
    root_n = math.sqrt(spec.n)
    a = spec.n * spec.tau_star_sq / spec.sigma0_sq
    z = root_n * (xbar - mu0) / sigma0
    d = sigma0 * (spec.mu_star - mu0) / (root_n * spec.tau_star_sq)
    shrink = 1.0 / (1.0 + spec.sigma0_sq / (spec.n * spec.tau_star_sq))
    return (
        0.5 * math.log1p(a)
        - 0.5 * shrink * (z + d) ** 2
        + (mu0 - spec.mu_star) ** 2 / (2.0 * spec.tau_star_sq)
    )


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


class LocationNormalBundle(_ContinuousBundle):
    """Normal data with known variance, conjugate normal prior on the mean."""

    kind = "location_normal"

    def __init__(self, spec: LocationNormalSpec):
        self.spec = spec
        self.n = spec.n
        self._tau_star = math.sqrt(spec.tau_star_sq)
        self._stat_sd = math.sqrt(spec.sigma0_sq / spec.n)
        self._post_sd = math.sqrt(self.posterior_params(0.0)[1])
        self._shrink = spec.n * spec.tau_star_sq / (spec.n * spec.tau_star_sq + spec.sigma0_sq)
        self._sup_grid = (spec.mu_star, 6.0 * self._tau_star, 121)

    @property
    def digest(self) -> str:
        s = self.spec
        return f"location_normal(n={s.n},sigma0_sq={s.sigma0_sq!r},mu_star={s.mu_star!r},tau_star_sq={s.tau_star_sq!r})"

    def reduce_data(self, data) -> float:
        """Reduce data to the sufficient statistic, the sample mean.

        Accepts the mean itself, an ``(n, mean)`` pair, or a raw sample of
        length ``n``.
        """
        if isinstance(data, (int, float, np.floating, np.integer)):
            return float(data)
        if isinstance(data, tuple) and len(data) == 2:
            n, xbar = data
            if int(n) != self.spec.n:
                raise DomainError(f"statistic reports n={n}, bundle expects n={self.spec.n}")
            return float(xbar)
        sample = np.asarray(data, dtype=float)
        if sample.ndim != 1 or sample.size != self.spec.n:
            raise DomainError(
                f"raw sample must be one-dimensional with length n={self.spec.n}, got shape {sample.shape}"
            )
        return float(sample.mean())

    def posterior_params(self, t: float) -> Tuple[float, float]:
        s = self.spec
        post_var = 1.0 / (s.n / s.sigma0_sq + 1.0 / s.tau_star_sq)
        post_mean = post_var * (s.n * t / s.sigma0_sq + s.mu_star / s.tau_star_sq)
        return post_mean, post_var

    def default_psi_range(self) -> Tuple[float, float]:
        z = norm_quantile(0.5 + DEFAULT_RANGE_MASS / 2.0)
        s = self.spec
        return (s.mu_star - z * self._tau_star, s.mu_star + z * self._tau_star)

    def prior_interval(self, lo, hi):
        return normal_interval_prob(lo, hi, self.spec.mu_star, self._tau_star)

    def posterior_interval(self, lo, hi, t: float):
        mean, var = self.posterior_params(t)
        return normal_interval_prob(lo, hi, mean, math.sqrt(var))

    def log_rb_point(self, psi0, t):
        return locnormal_log_rb(self.spec, t, psi0)

    def log_rb(self, psi0, t, disc: Optional[Discretization] = None):
        """log ratio at ``psi0`` for data means ``t``: of the point, or of the
        cell of half-width ``disc.delta`` anchored there (broadcast)."""
        if disc is None:
            return self.log_rb_point(psi0, t)
        return _log_cell_rb(self, *self._cell(psi0, disc.delta), t)

    def _cell_window(self, psi0, delta: float):
        """Data means (lo, hi) between which the ratio of the cell of
        half-width ``delta`` anchored at ``psi0`` is >= 1 (vectorized).

        The posterior content of the cell is symmetric in the offset u of the
        posterior mean from ``psi0`` and falls strictly in |u|; at u = 0 it
        exceeds the prior content, the posterior being narrower.  So the
        posterior means with a ratio >= 1 are [psi0 - u*, psi0 + u*], where u*
        solves "posterior content = prior content"; it is found by a fixed
        count of halvings of [0, delta + 40 posterior sds] for every ``psi0``
        at once, and mapped back to data means."""
        psi0 = np.asarray(psi0, dtype=float)
        target = _prior_cell_content(self, *self._cell(psi0, delta))
        lo = np.zeros_like(target)
        hi = np.full_like(target, delta + 40.0 * self._post_sd)
        for _ in range(_WINDOW_BISECTIONS):
            mid = 0.5 * (lo + hi)
            inside = normal_interval_prob(-delta, delta, mid, self._post_sd) >= target
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        # the posterior mean moves by ``_shrink`` per unit of data mean
        m = self.spec.mu_star
        return m + (psi0 - lo - m) / self._shrink, m + (psi0 + lo - m) / self._shrink

    def region_prob(self, psi0, truths, disc: Optional[Discretization] = None, against: bool = True):
        """Exact probability that the ratio at ``psi0`` (of the point, or of
        the cell anchored there) is <= 1 (``against``) or >= 1 when the data
        mean comes from each true value (broadcast)."""
        if disc is None:
            favor = favor_prob_locnormal(self.spec, psi0, truths)
        else:
            favor = normal_interval_prob(*self._cell_window(psi0, disc.delta), truths, self._stat_sd)
        return 1.0 - favor if against else favor

    def alternatives(self, psi0, delta: float, boundary_only: bool = True):
        """(stream key, true mean) pairs for the bias in favor of ``psi0``:
        the two values at distance ``delta`` and, unless ``boundary_only``,
        the center of the favor window when the prior pull puts it in the
        exterior (the favor probability peaks there)."""
        truths = [psi0 - delta, psi0 + delta]
        if not boundary_only:
            _, d = _favor_window(self.spec, psi0)
            center = psi0 - d * math.sqrt(self.spec.sigma0_sq) / math.sqrt(self.spec.n)
            truths.append(np.where(np.abs(center - psi0) >= delta, center, np.nan))
        return _numbered(truths)

    def prior_mean(self, g, smooth: bool) -> float:
        """Prior expectation of ``g``.  A smooth ``g`` goes up the
        Gauss-Hermite ladder until one doubling moves it by at most
        QUAD_DOUBLING_RTOL relative; any other ``g``, or one the ladder does
        not settle, goes to adaptive quadrature split at the prior mean, where
        the bias in favor has a kink (its two boundary sides swap there)."""
        mean, sd = self.spec.mu_star, self._tau_star
        if smooth:
            prev = None
            for nodes in _QUAD_NODES:
                t, w = _hermite_rule(nodes)
                value = float(np.dot(w, g(mean + sd * t)) / math.sqrt(2.0 * math.pi))
                if prev is not None and abs(value - prev) <= QUAD_DOUBLING_RTOL * max(abs(value), 1e-12):
                    return value
                prev = value
        pdf = lambda m: math.exp(-((m - mean) ** 2) / (2.0 * self.spec.tau_star_sq)) / (sd * math.sqrt(2.0 * math.pi))
        integrand = lambda m: float(g(m)) * pdf(m)
        span = 9.0 * sd
        left, _ = scipy.integrate.quad(integrand, mean - span, mean, limit=200)
        right, _ = scipy.integrate.quad(integrand, mean, mean + span, limit=200)
        return left + right

    def prior_predictive_params(self) -> Tuple[float, float]:
        """Mean and variance of the sample mean under the prior predictive."""
        s = self.spec
        return s.mu_star, s.tau_star_sq + s.sigma0_sq / s.n

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.spec.mu_star + self._tau_star * rng.standard_normal(size)

    def sample_stat(self, rng: np.random.Generator, mu, size: Optional[int] = None) -> np.ndarray:
        """Draw sample means given the true mean(s) ``mu``."""
        mu = np.asarray(mu, dtype=float)
        shape = mu.shape if size is None else (size,)
        return mu + self._stat_sd * rng.standard_normal(shape)

    def sample_predictive(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw data means directly from their normal prior predictive."""
        mean, var = self.prior_predictive_params()
        return mean + math.sqrt(var) * rng.standard_normal(size)

    def predictive_tail(self, t: float, draws: Optional[np.ndarray] = None) -> float:
        """Prior-predictive probability of a data mean at least as far from
        the predictive mean as ``t`` (the predictive density orders data
        means by this distance): the two-sided normal tail in closed form,
        or the share of ``draws``."""
        mean, var = self.prior_predictive_params()
        if draws is None:
            return 2.0 * (1.0 - float(norm_cdf(abs(t - mean) / math.sqrt(var))))
        return float(np.mean(np.abs(draws - mean) >= abs(t - mean)))


# The closed-form conflict tail of a data mean, kept under its own name.
locnormal_tail_prob = LocationNormalBundle.predictive_tail


def make_location_normal(spec: LocationNormalSpec) -> LocationNormalBundle:
    return LocationNormalBundle(spec)


# ---------------------------------------------------------------------------
# beta binomial


class BetaBinomialBundle(_ContinuousBundle):
    """Binomial counts with a conjugate beta prior on the success rate."""

    kind = "beta_binomial"
    _sup_grid = (0.5, 0.5 - 1e-6, 201)

    def __init__(self, n: int, alpha: float, beta: float):
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise DomainError(f"number of trials must be an integer >= 1, got {n!r}")
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise DomainError(f"beta prior shapes must be positive and finite, got ({alpha}, {beta})")
        self.n = int(n)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._counts = np.arange(self.n + 1)
        self._draw_cells = self.n + 1
        # the count-only term of the point ratio, so no draw evaluates it
        self._log_beta_post = special.betaln(self.alpha + self._counts, self.beta + self.n - self._counts)

    @property
    def digest(self) -> str:
        return f"beta_binomial(n={self.n},alpha={self.alpha!r},beta={self.beta!r})"

    def reduce_data(self, data) -> int:
        """Reduce data to the success count; accepts the count, an
        ``(n, count)`` pair, or a 0/1 sample of length ``n``."""
        if isinstance(data, (int, np.integer)) or (
            isinstance(data, float) and float(data).is_integer()
        ):
            s = int(data)
        elif isinstance(data, tuple) and len(data) == 2:
            n, s = data
            if int(n) != self.n:
                raise DomainError(f"statistic reports n={n}, bundle expects n={self.n}")
            s = int(s)
        else:
            sample = np.asarray(data)
            if sample.ndim != 1 or sample.size != self.n:
                raise DomainError(
                    f"raw sample must be one-dimensional with length n={self.n}, got shape {sample.shape}"
                )
            if not np.isin(sample, (0, 1)).all():
                raise DomainError("raw binomial sample entries must be 0 or 1")
            s = int(sample.sum())
        if not (0 <= s <= self.n):
            raise DomainError(f"success count must lie in [0, {self.n}], got {s}")
        return s

    def posterior_params(self, s: int) -> Tuple[float, float]:
        return self.alpha + s, self.beta + self.n - s

    def default_psi_range(self) -> Tuple[float, float]:
        eps = (1.0 - DEFAULT_RANGE_MASS) / 2.0
        lo = float(special.betaincinv(self.alpha, self.beta, eps))
        hi = float(special.betaincinv(self.alpha, self.beta, 1.0 - eps))
        return lo, hi

    def prior_interval(self, lo, hi):
        return beta_interval_prob(lo, hi, self.alpha, self.beta)

    def posterior_interval(self, lo, hi, s: int):
        a_post, b_post = self.posterior_params(s)
        return beta_interval_prob(lo, hi, a_post, b_post)

    def _cell(self, psi0, delta: float):
        """The cell of half-width ``delta`` anchored at ``psi0``, cut to [0, 1]."""
        return np.maximum(psi0 - delta, 0.0), np.minimum(psi0 + delta, 1.0)

    def log_rb_point(self, psi0, s):
        """log posterior-to-prior density ratio at psi0 given the count."""
        psi0 = np.asarray(psi0, dtype=float)
        if np.any((psi0 <= 0.0) | (psi0 >= 1.0)):
            raise DomainError("success rate must lie strictly inside (0, 1)")
        s = np.asarray(s)
        return (
            s * np.log(psi0)
            + (self.n - s) * np.log1p(-psi0)
            + special.betaln(self.alpha, self.beta)
            - self._log_beta_post[s]
        )

    def log_rb(self, psi0, t, disc: Optional[Discretization] = None):
        """log ratio at ``psi0`` for counts ``t``: of the point, or of the
        cell of half-width ``disc.delta`` anchored there and cut to [0, 1].
        One ``psi0`` is tabulated over the counts 0..n and the counts are
        looked up; an array ``psi0`` broadcasts against ``t``."""
        one = np.ndim(psi0) == 0
        s = self._counts if one else t
        if disc is None:
            out = self.log_rb_point(psi0, s)
        else:
            out = _log_cell_rb(self, *self._cell(np.asarray(psi0, dtype=float), disc.delta), s)
        return out[t] if one else out

    def region_prob(self, psi0, truths, disc: Optional[Discretization] = None, against: bool = True):
        """Exact probability that the ratio at ``psi0`` is <= 1 (``against``)
        or >= 1 when counts come from each true rate (broadcast; NaN for a
        NaN rate)."""
        log_rb = self.log_rb(np.asarray(psi0, dtype=float)[..., None], self._counts, disc)
        region = log_rb <= 0.0 if against else log_rb >= 0.0
        pmf = np.exp(self.log_sampling_pmf(truths))
        return np.where(region, pmf, 0.0).sum(axis=-1)

    def alternatives(self, psi0, delta: float, boundary_only: bool = True):
        """(stream key, true rate) pairs for the bias in favor of ``psi0``:
        the two rates at distance ``delta`` and, unless ``boundary_only``,
        every point of an 801-point grid at least ``delta`` away; only rates
        inside (0, 1) count.  The grid is searched for one ``psi0`` only."""
        truths = [psi0 - delta, psi0 + delta]
        if not boundary_only:
            if np.ndim(psi0):
                raise DomainError(
                    "the exterior grid search runs for one hypothesized rate; "
                    "an average over the prior needs boundary_only=True"
                )
            grid = np.linspace(1e-6, 1.0 - 1e-6, 801)
            truths.extend(grid[np.abs(grid - psi0) >= delta])
        return _numbered([np.where((t > 0.0) & (t < 1.0), t, np.nan) for t in truths])

    def prior_mean(self, g, smooth: bool) -> None:
        """No exact prior rule yet: averages over the beta prior are drawn."""
        return None

    def log_predictive(self) -> np.ndarray:
        """log prior predictive pmf of the success count, s = 0..n."""
        s = self._counts
        return (
            special.gammaln(self.n + 1)
            - special.gammaln(s + 1)
            - special.gammaln(self.n - s + 1)
            + special.betaln(self.alpha + s, self.beta + self.n - s)
            - special.betaln(self.alpha, self.beta)
        )

    def log_sampling_pmf(self, theta) -> np.ndarray:
        """log Binomial(n, theta) pmf over s = 0..n (vectorized in theta)."""
        theta = np.asarray(theta, dtype=float)
        s = self._counts
        logc = (
            special.gammaln(self.n + 1)
            - special.gammaln(s + 1)
            - special.gammaln(self.n - s + 1)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            out = logc + s * np.log(theta)[..., None] + (self.n - s) * np.log1p(-theta)[..., None]
        return out

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.alpha, self.beta, size)

    def sample_stat(self, rng: np.random.Generator, theta, size: Optional[int] = None) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if size is not None and theta.ndim == 0:
            return rng.binomial(self.n, float(theta), size)
        return rng.binomial(self.n, theta)

    def sample_predictive(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sample_joint(rng, size)[1]

    def predictive_tail(self, t: int, draws: Optional[np.ndarray] = None) -> float:
        """Prior-predictive probability of a count no more probable than
        ``t``, ordered by the log predictive pmf."""
        log_pred = self.log_predictive()
        return _enumerated_tail(log_pred, t, draws, np.exp(log_pred))


def make_beta_binomial(n: int, alpha: float, beta: float) -> BetaBinomialBundle:
    return BetaBinomialBundle(n, alpha, beta)


# ---------------------------------------------------------------------------
# finite model


def _check_weights(values, what: str) -> None:
    """Refuse weights that are negative, not finite, or do not sum to 1
    within 1e-12.  ``min`` and ``sum`` run in C: a NaN anywhere makes the
    plain sum NaN, so no per-entry Python pass is needed."""
    if min(values, default=0.0) < 0.0:
        raise DomainError(f"{what} must be nonnegative")
    if not math.isfinite(sum(values)):
        raise DomainError(f"{what} must be finite and sum to 1 within 1e-12")
    if abs(math.fsum(values) - 1.0) > 1e-12:
        raise DomainError(f"{what} must sum to 1 within 1e-12")


@dataclass(frozen=True)
class FiniteModelSpec:
    """A fully tabulated model: prior over theta labels, row-stochastic
    likelihood table over data labels, and a map from theta to interest
    labels."""

    theta_labels: Tuple[str, ...]
    prior: Tuple[float, ...]
    likelihood: Tuple[Tuple[float, ...], ...]  # rows indexed by theta, columns by x
    x_labels: Tuple[str, ...]
    psi_of_theta: Tuple[str, ...]

    def __init__(self, theta_labels, prior, likelihood, x_labels, psi_of_theta=None):
        theta_labels = tuple(theta_labels)
        prior = tuple(map(float, prior))
        likelihood = tuple(tuple(map(float, row)) for row in likelihood)
        x_labels = tuple(x_labels)
        if psi_of_theta is None:
            psi_of_theta = theta_labels  # interest parameter is theta itself
        psi_of_theta = tuple(psi_of_theta)

        if len(set(theta_labels)) != len(theta_labels):
            raise DomainError("theta labels must be unique")
        if len(set(x_labels)) != len(x_labels):
            raise DomainError("data labels must be unique")
        if len(prior) != len(theta_labels):
            raise DomainError("prior length must match theta labels")
        if len(psi_of_theta) != len(theta_labels):
            raise DomainError("psi_of_theta length must match theta labels")
        _check_weights(prior, "prior weights")
        if len(likelihood) != len(theta_labels):
            raise DomainError("likelihood table must have one row per theta")
        for label, row in zip(theta_labels, likelihood):
            if len(row) != len(x_labels):
                raise DomainError(f"likelihood row for {label!r} has wrong length")
            _check_weights(row, f"likelihood row for {label!r}")

        object.__setattr__(self, "theta_labels", theta_labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "likelihood", likelihood)
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "psi_of_theta", psi_of_theta)


class FiniteBundle:
    """Fully enumerable model; every inference below is an exact finite sum."""

    kind = "finite"

    def __init__(self, spec: FiniteModelSpec):
        self.spec = spec
        self.theta_labels = spec.theta_labels
        self.x_labels = spec.x_labels
        self.prior = np.array(spec.prior, dtype=float)
        self.like = np.array(spec.likelihood, dtype=float)

        # interest labels keep first-appearance order
        seen = {}
        for lab in spec.psi_of_theta:
            if lab not in seen:
                seen[lab] = len(seen)
        self.psi_labels: Tuple[str, ...] = tuple(seen)
        self.psi_index_of_theta = np.array([seen[lab] for lab in spec.psi_of_theta])
        self._group = np.zeros((len(self.psi_labels), len(self.theta_labels)))
        self._group[self.psi_index_of_theta, np.arange(len(self.theta_labels))] = 1.0

        self.joint = self.prior[:, None] * self.like  # (theta, x)
        self.predictive = self.joint.sum(axis=0)
        self.prior_psi = self._group @ self.prior
        joint_psi = self._group @ self.joint  # (psi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            # predictive_psi[psi, x] = M(x | psi); NaN rows for zero prior mass
            self.predictive_psi = np.where(
                self.prior_psi[:, None] > 0.0, joint_psi / self.prior_psi[:, None], np.nan
            )
            self._rb_psi = np.where(
                self.prior_psi[:, None] >= PRIOR_CONTENT_FLOOR,
                joint_psi / self.predictive[None, :] / self.prior_psi[:, None],
                np.nan,
            )
        self._x_index = {lab: i for i, lab in enumerate(self.x_labels)}
        self._cum_like = np.cumsum(self.like, axis=1)  # inverse-CDF rows of the outcome draw
        self._usable = np.flatnonzero(self.prior_psi >= PRIOR_CONTENT_FLOOR)
        for arr in (self.prior, self.like, self.joint, self.predictive, self.prior_psi,
                    self.predictive_psi, self._rb_psi, self.psi_index_of_theta, self._group,
                    self._cum_like, self._usable):
            arr.setflags(write=False)

    @property
    def digest(self) -> str:
        return (
            f"finite(theta={len(self.theta_labels)},x={len(self.x_labels)},"
            f"psi={len(self.psi_labels)})"
        )

    def reduce_data(self, data) -> int:
        """Index of the observed outcome ``data``: a label, else an integer
        index.  A label always wins, so with integer labels ``[1, 0]`` the
        outcome 0 is the label 0 (index 1)."""
        idx = self._x_index.get(data) if isinstance(data, (str, int, np.integer)) else None
        if idx is None:
            if isinstance(data, str):
                raise DomainError(f"unknown data label {data!r}")
            if not isinstance(data, (int, np.integer)):
                raise DomainError("finite-model data must be a label or an index")
            idx = int(data)
            if not (0 <= idx < len(self.x_labels)):
                raise DomainError(f"data index {idx} out of range")
        if self.predictive[idx] <= 0.0:
            raise DomainError(
                f"observed outcome {self.x_labels[idx]!r} has zero prior predictive probability"
            )
        return idx

    def psi_index(self, psi) -> int:
        """Index of the interest label ``psi`` (a label, never an index)."""
        try:
            return self.psi_labels.index(psi)
        except ValueError:
            raise DomainError(f"unknown interest value {psi!r}") from None

    def interest(self, psi0, disc: Optional[Discretization] = None) -> int:
        """Index of the interest value ``psi0``, which must clear the prior
        floor; labels have no cells, so ``disc`` is refused."""
        refuse_grid(disc)
        idx = self.psi_index(psi0)
        if self.prior_psi[idx] < PRIOR_CONTENT_FLOOR:
            raise DomainError(f"interest value {psi0!r} has prior content below {PRIOR_CONTENT_FLOOR}")
        return idx

    def log_rb(self, psi0, t, disc: Optional[Discretization] = None):
        """log ratio at interest index ``psi0`` for outcome indices ``t``
        (broadcast).  Labels have no cells, so ``disc`` is refused."""
        refuse_grid(disc)
        with np.errstate(divide="ignore"):
            return np.log(self._rb_psi[psi0, t])

    def region_prob(self, psi0, truths, disc: Optional[Discretization] = None, against: bool = True):
        """Exact probability that the ratio at ``psi0`` is <= 1 (``against``)
        or >= 1 under M(x | psi) for each true index (broadcast)."""
        refuse_grid(disc)
        rb = self._rb_psi[psi0]
        region = rb <= 1.0 if against else rb >= 1.0
        return np.where(region, self.predictive_psi[truths], 0.0).sum(axis=-1)

    def alternatives(self, psi0, delta: float, boundary_only: bool = True):
        """(stream key, true index) pairs for the bias in favor of ``psi0``:
        every other interest value above the prior floor.  Labels carry the
        discrete metric, so each lies at distance 1 and ``boundary_only``
        changes nothing."""
        if delta > 1.0:
            raise DomainError(f"no interest value lies at distance >= {delta} under the discrete metric")
        return [(int(j), int(j)) for j in self._usable if j != psi0]

    def supremum(self, g) -> float:
        """Largest value of ``g`` over the usable interest labels."""
        return float(g(self._usable).max())

    def prior_mean(self, g, smooth: bool) -> float:
        """Prior-weighted sum of ``g`` over the usable interest labels."""
        return float(np.dot(self.prior_psi[self._usable], g(self._usable)))

    def favor_sup(self, delta: float, disc: Optional[Discretization] = None, boundary_only: bool = True):
        """``g(psi)``: for interest indices ``psi``, the largest probability
        under M(. | psi_j) of evidence in favor of psi over the other usable
        labels psi_j (0 with none).  Tabulated once, in column blocks of at
        most ``_BLOCK_CELLS`` cells; ``boundary_only`` changes nothing, as
        every other label lies at distance 1."""
        refuse_grid(disc)
        usable = self._usable
        worst = np.zeros(len(self.psi_labels))
        if self.alternatives(usable[0], delta):  # refuses delta > 1
            # favor[j, i]: probability under M(. | psi_j) of evidence in favor of psi_i
            pred = self.predictive_psi[usable]
            in_favor = self.rb_psi_table()[usable] >= 1.0
            cols = max(1, _BLOCK_CELLS // max(usable.size, len(self.x_labels)))
            for start in range(0, usable.size, cols):
                favor = pred @ in_favor[start:start + cols].T
                block = np.arange(favor.shape[1])
                favor[start + block, block] = -np.inf  # the truth is not an alternative
                worst[usable[start:start + cols]] = favor.max(axis=0)
        return lambda psi: worst[psi]

    def profile_cells(self, data, disc: Optional[Discretization]):
        """(prior contents, posterior contents, data digest, layout) of the
        profile with one cell per interest label; ``disc`` is refused."""
        refuse_grid(disc)
        x_idx = self.reduce_data(data)
        layout = dict(labels=self.psi_labels)
        return self.prior_psi.copy(), self.posterior_psi(x_idx), (1, self.x_labels[x_idx]), layout

    def posterior_theta(self, x_idx: int) -> np.ndarray:
        return self.joint[:, x_idx] / self.predictive[x_idx]

    def posterior_psi(self, x_idx: int) -> np.ndarray:
        return self._group @ self.posterior_theta(x_idx)

    def rb_psi_table(self) -> np.ndarray:
        """rb[psi, x] for every interest value and observable outcome
        (read-only; NaN rows for interest values below the prior floor)."""
        return self._rb_psi

    def cond_prior_given_psi(self, psi_idx: int) -> np.ndarray:
        mask = self.psi_index_of_theta == psi_idx
        mass = self.prior[mask].sum()
        if mass <= 0.0:
            raise DomainError(
                f"interest value {self.psi_labels[psi_idx]!r} has zero prior probability"
            )
        out = np.zeros_like(self.prior)
        out[mask] = self.prior[mask] / mass
        return out

    def predictive_given_psi(self, psi_idx: int) -> np.ndarray:
        """M(x | psi): data distribution under the conditional prior
        (a read-only row of ``predictive_psi``)."""
        if not (self.prior_psi[psi_idx] > 0.0):
            raise DomainError(
                f"interest value {self.psi_labels[psi_idx]!r} has zero prior probability"
            )
        return self.predictive_psi[psi_idx]

    def sample_stat(self, rng: np.random.Generator, psi_idx: int, size: int) -> np.ndarray:
        """Draw outcome indices under M(x | psi): the outcome row of
        :meth:`sample_joint` under the conditional prior."""
        return self.sample_joint(rng, size, cond_prior=self.cond_prior_given_psi(psi_idx))[1]

    def sample_joint(self, rng: np.random.Generator, size: int, cond_prior=None):
        """Draw (interest index, x index) pairs; inverse-CDF on two uniform
        blocks so the layout is replication-indexed and schedule independent.

        The outcome of a draw from row theta is the number of cumulative
        likelihood entries of that row below ``u * row total``: one left
        ``searchsorted`` per drawn row, with no ``size x |X|`` array."""
        weights = self.prior if cond_prior is None else cond_prior
        theta_idx = _inverse_cdf(weights, rng.random(size))
        u_x = rng.random(size)
        x_idx = np.empty(size, dtype=np.intp)
        order = np.argsort(theta_idx, kind="stable")
        counts = np.bincount(theta_idx, minlength=len(weights))
        starts = np.cumsum(counts) - counts
        for theta in np.flatnonzero(counts):
            draws = order[starts[theta]:starts[theta] + counts[theta]]
            row = self._cum_like[theta]
            x_idx[draws] = np.searchsorted(row, u_x[draws] * row[-1], side="left")
        return self.psi_index_of_theta[theta_idx], x_idx

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw interest indices from the prior, by inverse CDF."""
        return _inverse_cdf(self.prior_psi, rng.random(size))

    def sample_predictive(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sample_joint(rng, size)[1]

    def predictive_tail(self, t: int, draws: Optional[np.ndarray] = None) -> float:
        """Prior-predictive probability of an outcome no more probable than
        outcome ``t``, ordered by the predictive pmf itself (a log could
        merge values one ulp apart)."""
        return _enumerated_tail(self.predictive, t, draws, self.predictive)

    def stat_label(self, t: int):
        return self.x_labels[t]


def make_finite(spec: FiniteModelSpec) -> FiniteBundle:
    return FiniteBundle(spec)
