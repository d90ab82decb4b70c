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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np
from scipy import special

from .errors import DomainError
from .rng import substream

# Cells whose prior content falls below this are excluded from inference.
PRIOR_CONTENT_FLOOR = 1e-12
# Central prior probability covered by a default grid range.
DEFAULT_RANGE_MASS = 0.9999

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
    direct = special.betainc(a, b, hi) - special.betainc(a, b, lo)
    flipped = special.betainc(b, a, 1.0 - lo) - special.betainc(b, a, 1.0 - hi)
    return np.where(lo >= 0.5, flipped, direct)


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
    dist: str = "euclidean"

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.range is not None:
            lo, hi = self.range
            if not (lo < hi):
                raise DomainError(f"range must satisfy lo < hi, got {self.range}")
        if self.dist != "euclidean":
            raise DomainError(f"unsupported distance descriptor {self.dist!r}")


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
        if not (self.sigma0_sq > 0.0):
            raise DomainError(f"sigma0_sq must be positive, got {self.sigma0_sq}")
        if not (self.tau_star_sq > 0.0):
            raise DomainError(f"tau_star_sq must be positive, got {self.tau_star_sq}")


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


class LocationNormalBundle:
    """Normal data with known variance, conjugate normal prior on the mean."""

    kind = "location_normal"

    def __init__(self, spec: LocationNormalSpec):
        self.spec = spec
        self._tau_star = math.sqrt(spec.tau_star_sq)
        self._stat_sd = math.sqrt(spec.sigma0_sq / spec.n)

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

    def prior_cdf(self, x):
        return norm_cdf((np.asarray(x, dtype=float) - self.spec.mu_star) / self._tau_star)

    def consistency_check(self, seed: int = 0, n_draws: int = 100_000) -> float:
        """Kolmogorov-Smirnov distance between prior draws and the prior CDF."""
        draws = np.sort(self.sample_prior(substream(seed, "prior-consistency"), n_draws))
        return _ks_distance(self.prior_cdf(draws))


def make_location_normal(spec: LocationNormalSpec) -> LocationNormalBundle:
    return LocationNormalBundle(spec)


# ---------------------------------------------------------------------------
# beta binomial


class BetaBinomialBundle:
    """Binomial counts with a conjugate beta prior on the success rate."""

    kind = "beta_binomial"

    def __init__(self, n: int, alpha: float, beta: float):
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise DomainError(f"number of trials must be an integer >= 1, got {n!r}")
        if not (alpha > 0.0 and beta > 0.0):
            raise DomainError(f"beta prior shapes must be positive, got ({alpha}, {beta})")
        self.n = int(n)
        self.alpha = float(alpha)
        self.beta = float(beta)

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

    def log_rb_point(self, psi0, s):
        """log posterior-to-prior density ratio at psi0 given the count."""
        psi0 = np.asarray(psi0, dtype=float)
        if np.any((psi0 <= 0.0) | (psi0 >= 1.0)):
            raise DomainError("success rate must lie strictly inside (0, 1)")
        s = np.asarray(s)
        a0, b0 = self.alpha, self.beta
        return (
            s * np.log(psi0)
            + (self.n - s) * np.log1p(-psi0)
            + special.betaln(a0, b0)
            - special.betaln(a0 + s, b0 + self.n - s)
        )

    def log_predictive(self) -> np.ndarray:
        """log prior predictive pmf of the success count, s = 0..n."""
        s = np.arange(self.n + 1)
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
        s = np.arange(self.n + 1)
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
            theta = np.full(size, float(theta))
        return rng.binomial(self.n, theta)

    def prior_cdf(self, x):
        return special.betainc(self.alpha, self.beta, np.clip(np.asarray(x, dtype=float), 0.0, 1.0))

    def consistency_check(self, seed: int = 0, n_draws: int = 100_000) -> float:
        draws = np.sort(self.sample_prior(substream(seed, "prior-consistency"), n_draws))
        return _ks_distance(self.prior_cdf(draws))


def make_beta_binomial(n: int, alpha: float, beta: float) -> BetaBinomialBundle:
    return BetaBinomialBundle(n, alpha, beta)


# ---------------------------------------------------------------------------
# finite model


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
        prior = tuple(float(p) for p in prior)
        likelihood = tuple(tuple(float(v) for v in row) for row in likelihood)
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
        if any(p < 0.0 for p in prior):
            raise DomainError("prior weights must be nonnegative")
        if abs(math.fsum(prior) - 1.0) > 1e-12:
            raise DomainError("prior weights must sum to 1 within 1e-12")
        if len(likelihood) != len(theta_labels):
            raise DomainError("likelihood table must have one row per theta")
        for label, row in zip(theta_labels, likelihood):
            if len(row) != len(x_labels):
                raise DomainError(f"likelihood row for {label!r} has wrong length")
            if any(v < 0.0 for v in row):
                raise DomainError(f"likelihood row for {label!r} has negative entries")
            if abs(math.fsum(row) - 1.0) > 1e-12:
                raise DomainError(f"likelihood row for {label!r} must sum to 1 within 1e-12")

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
        for arr in (self.prior, self.like, self.joint, self.predictive, self.prior_psi,
                    self.predictive_psi, self._rb_psi, self.psi_index_of_theta, self._group):
            arr.setflags(write=False)

    @property
    def digest(self) -> str:
        return (
            f"finite(theta={len(self.theta_labels)},x={len(self.x_labels)},"
            f"psi={len(self.psi_labels)})"
        )

    def reduce_data(self, data) -> int:
        if isinstance(data, (int, np.integer)):
            idx = int(data)
            if not (0 <= idx < len(self.x_labels)):
                raise DomainError(f"data index {idx} out of range")
        elif isinstance(data, str):
            if data not in self._x_index:
                raise DomainError(f"unknown data label {data!r}")
            idx = self._x_index[data]
        else:
            raise DomainError("finite-model data must be a label or an index")
        if self.predictive[idx] <= 0.0:
            raise DomainError(
                f"observed outcome {self.x_labels[idx]!r} has zero prior predictive probability"
            )
        return idx

    def psi_index(self, psi) -> int:
        if isinstance(psi, (int, np.integer)):
            idx = int(psi)
            if not (0 <= idx < len(self.psi_labels)):
                raise DomainError(f"interest index {idx} out of range")
            return idx
        try:
            return self.psi_labels.index(psi)
        except ValueError:
            raise DomainError(f"unknown interest value {psi!r}") from None

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

    def sample_joint(self, rng: np.random.Generator, size: int, cond_prior=None):
        """Draw (theta index, x index) pairs; inverse-CDF on two uniform blocks
        so the layout is replication-indexed and schedule independent."""
        weights = self.prior if cond_prior is None else cond_prior
        cum_theta = np.cumsum(weights)
        u_theta = rng.random(size)
        theta_idx = np.searchsorted(cum_theta, u_theta * cum_theta[-1], side="right")
        theta_idx = np.clip(theta_idx, 0, len(weights) - 1)
        cum_rows = np.cumsum(self.like, axis=1)
        u_x = rng.random(size)
        row_cum = cum_rows[theta_idx]
        x_idx = (u_x[:, None] * row_cum[:, -1:] > row_cum).sum(axis=1)
        x_idx = np.clip(x_idx, 0, len(self.x_labels) - 1)
        return theta_idx, x_idx


def make_finite(spec: FiniteModelSpec) -> FiniteBundle:
    return FiniteBundle(spec)


Bundle = Union[LocationNormalBundle, BetaBinomialBundle, FiniteBundle]


def _ks_distance(cdf_at_sorted_draws: np.ndarray) -> float:
    n = cdf_at_sorted_draws.size
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    return float(
        max(
            np.max(grid_hi - cdf_at_sorted_draws),
            np.max(cdf_at_sorted_draws - grid_lo),
        )
    )
