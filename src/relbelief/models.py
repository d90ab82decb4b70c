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

A bundle is immutable after construction, but for a one-entry memo of the
last favor region it built, and safe to share across threads; samplers take
an explicit generator instead of hidden state.

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
whose prior mean is the average bias in favor).  The two continuous bundles
share one ``region_prob``, ``alternatives`` and ``favor_sup``, built in
:class:`_ContinuousBundle` over a private primitive of each: the favor region
of a hypothesized value, {statistic : ratio >= 1}, and its probability.
``profile_cells`` gives a profile its label or grid cells.  The conflict
check needs three more: ``sample_predictive`` (statistic draws from the prior
predictive), ``predictive_tail`` (the prior-predictive probability of a
statistic no more probable than the observed one, exact or from draws, each
bundle comparing statistics on its own ordering) and ``stat_label`` (the
observed statistic as reported).
"""

from __future__ import annotations

import functools
import itertools
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
# Newton steps allowed to the offset of a location-normal cell's favor window;
# from its start each offset takes a few, and halves its distance to a root
# near 0 at worst, so no offset reaches this.
_WINDOW_NEWTON_CAP = 100
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# A Newton step below this share of the offset ends its steps: the error left
# is about its square.
_NEWTON_RTOL = 2.0**-26
# The bit pattern of +inf, above that of every finite nonnegative float.
_INF_BITS = np.float64(np.inf).view(np.int64)
# Cells per intermediate array in the blocked bias-in-favor tables, so memory
# stays bounded whatever n_sim or the number of interest values.
_BLOCK_CELLS = 1 << 18
# numpy's binomial sampler inverts one uniform per draw while n * min(p, 1 - p)
# is at most this (Kachitvichyanukul & Schmeiser's BINV), and runs BTPE above.
_INVERSION_MAX_MEAN = 30.0
# Buckets of the guide table that starts each lookup of a uniform among the
# inversion thresholds (Devroye, Non-Uniform Random Variate Generation, 1986).
_GUIDE_BUCKETS = 4096

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


def normal_interval_prob(edges, mean, sd):
    """P(lo < X <= hi) for X ~ N(mean, sd^2), accurate in both tails, for
    each cell of ``edges``: a pair ``(lo, hi)`` of single cells (arrays,
    broadcast with ``mean`` and ``sd``), or a 1-D array of a profile's cell
    edges (with scalar ``mean`` and ``sd``), where each edge's tail is
    evaluated once and shared by the cells on either side.  Single cells keep
    one evaluation per end: stacked into edge pairs, large arrays of them run
    slower."""
    if isinstance(edges, tuple):
        lo, hi = edges
        zlo = (np.asarray(lo, dtype=float) - mean) / sd
        zhi = (np.asarray(hi, dtype=float) - mean) / sd
        # In the upper tail the CDF saturates at 1; use survival values there.
        return _one_side(zlo >= 0.0, lambda: special.ndtr(-zlo) - special.ndtr(-zhi),
                         lambda: special.ndtr(zhi) - special.ndtr(zlo))
    z = (np.asarray(edges, dtype=float) - mean) / sd
    upper = z[:-1] >= 0.0
    stop, start = _tail_spans(upper)
    cdf = _on_edges(special.ndtr, z, slice(stop))
    return _edge_cells(upper, cdf, _on_edges(lambda v: special.ndtr(-v), z, slice(start, None)))


# The computed regularized incomplete beta function is within far less than
# this of the exact, increasing CDF: past a sorted edge whose computed CDF is
# at least 1/2 plus this, every computed CDF is at least 1/2.
_MEDIAN_MARGIN = 1e-9


def beta_interval_prob(edges, a, b):
    """P(lo < X <= hi) for X ~ Beta(a, b), accurate in both tails, for each
    cell of ``edges``, given as to :func:`normal_interval_prob`.

    A cell takes survival values wherever the CDF at its lower edge is at
    least 1/2.  On sorted edges the CDF is evaluated only below the median
    and on a guard band past it, doubled until the CDF at its last edge
    clears 1/2 by ``_MEDIAN_MARGIN``; every edge past the band would read at
    least 1/2 too, so each cell keeps its side.  Unsorted or NaN edges take
    the CDF at every edge."""
    if isinstance(edges, tuple):
        lo, hi = edges
        lo = np.clip(np.asarray(lo, dtype=float), 0.0, 1.0)
        hi = np.clip(np.asarray(hi, dtype=float), 0.0, 1.0)
        cdf_lo = special.betainc(a, b, lo)
        # Past the median the CDF saturates at 1; use survival values there.
        return _one_side(cdf_lo >= 0.5, lambda: special.betainc(b, a, 1.0 - lo) - special.betainc(b, a, 1.0 - hi),
                         lambda: special.betainc(a, b, hi) - cdf_lo)
    x = np.clip(np.asarray(edges, dtype=float), 0.0, 1.0)
    n = x.size
    if np.all(x[1:] >= x[:-1]):
        n = int(np.searchsorted(x, special.betaincinv(a, b, 0.5)))
    cdf = _on_edges(lambda v: special.betainc(a, b, v), x, slice(n))
    band = 1
    while n < x.size and (n == 0 or cdf[n - 1] < 0.5 + _MEDIAN_MARGIN):
        stop = min(n + band, x.size)
        cdf[n:stop] = special.betainc(a, b, x[n:stop])
        n, band = stop, 2 * band
    upper = cdf[:-1] >= 0.5
    upper[n:] = True
    start = _tail_spans(upper)[1]
    return _edge_cells(upper, cdf, _on_edges(lambda v: special.betainc(b, a, 1.0 - v), x, slice(start, None)))


def _one_side(upper, survival, cdf):
    """Single-cell contents: the difference ``survival()`` where ``upper``,
    else ``cdf()``.  A side no cell takes is not evaluated."""
    if not upper.any():
        return np.asarray(cdf())
    if upper.all():
        return np.asarray(survival())
    return np.where(upper, survival(), cdf())


def _tail_spans(upper):
    """(stop, start) for the cells of an edge pass, ``upper`` where a cell
    takes survival values: the CDF is needed on the edges ``[:stop]``,
    through the last cell not on the upper side, and the survival function
    on ``[start:]``, from the first cell on it.  On sorted edges the two
    spans share one edge."""
    m = upper.size
    start = int(upper.argmax()) if upper.any() else m + 1
    stop = 0 if upper.all() else m + 1 - int(upper[::-1].argmin())
    return stop, start


def _on_edges(tail, x, span):
    """``tail`` evaluated on the edges ``x[span]``, 0 on the others (which
    no cell reads)."""
    out = np.zeros(x.shape)
    out[span] = tail(x[span])
    return out


def _edge_cells(upper, cdf, sf):
    """Cell contents from edge values, differenced between neighbours: of
    the survival values ``sf`` where ``upper``, else of the CDF values."""
    return np.where(upper, sf[:-1] - sf[1:], cdf[1:] - cdf[:-1])


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


def _prior_cell_content(bundle, cell):
    """Prior content of the cells ``cell`` = (lo, hi], refused where it
    underflows to 0: the cell ratio is then 0/0."""
    prior = bundle.prior_interval(cell)
    if not np.all(prior > 0.0):
        raise DomainError("a cell's prior content underflows to 0, so its ratio cannot be computed")
    return prior


def _log_cell_rb(bundle, cell, t):
    """log ratio of the cells ``cell`` = (lo, hi] for statistic values ``t``."""
    prior = _prior_cell_content(bundle, cell)
    with np.errstate(divide="ignore"):
        return np.log(bundle.posterior_interval(cell, t)) - np.log(prior)


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


def _cumulative_rows(weights) -> np.ndarray:
    """The running sums of ``weights`` along its last axis, as the rows of a
    2-D table padded with +inf to a power-of-two width for
    :func:`_inverse_cdf`."""
    weights = np.atleast_2d(weights)
    width = weights.shape[1]
    table = np.full((weights.shape[0], 1 << (width - 1).bit_length()), np.inf)
    np.cumsum(weights, axis=1, out=table[:, :width])
    return table


def _inverse_cdf(table, width: int, u, rows=None, strict: bool = False) -> np.ndarray:
    """The index each uniform in ``u`` selects from its row of ``table``
    (from :func:`_cumulative_rows`, with ``width`` real columns; row 0, or
    one row per uniform in ``rows``): the number of entries at most ``u``
    times the row total (below it if ``strict``), capped at ``width - 1``.

    One branch-free binary search over every uniform at once: each halving
    of the padded width is one gather, compare and add, and the +inf padding
    fails every comparison, so no probe needs a bounds check."""
    padded = table.shape[1]
    flat = table.ravel()
    start = np.zeros(len(u), dtype=np.intp) if rows is None else rows * padded
    target = u * flat[start + (width - 1)]
    passes = np.less if strict else np.less_equal
    last = start - 1  # the last entry known to pass: none yet
    step = padded >> 1
    while step:
        last += step * passes(flat[last + step], target)
        step >>= 1
    count = last - start + 1
    return np.minimum(count, width - 1, out=count)


def _enumerated_tail(order, t, draws, pmf) -> float:
    """Probability of a statistic whose ``order`` value is at most that of
    ``t`` (ties included): summed over ``pmf``, or the share of ``draws``."""
    if draws is None:
        return float(pmf[order <= order[t]].sum())
    return float(np.mean(order[draws] <= order[t]))


class _ContinuousBundle:
    """What the two bundles with a real interest parameter share.  A subclass
    sets ``_sup_grid``, the (center, half-width, points) of the grid its
    supremum search starts from, ``_support``, its open interval, and
    ``_cells_per_value``, the statistic cells one value's favor region spans.
    It defines the favor region of a value, {statistic : ratio >= 1}:
    ``_favor_region(psi0, disc)`` builds it, ``_region_mass(region, psi0,
    truths, against)`` is the probability of it (or of its complement with
    ties, ratio <= 1) under each true value, and ``_peak(psi0, region)`` the
    true value where that probability peaks.  Its data reduce by two rules:
    ``_sample_statistic(sample)``, the statistic of a raw sample, and
    ``_statistic(t)``, the statistic checked and returned as a Python
    number."""

    # ((psi0, disc), region): the favor region of the last float value asked
    # for, so a hypothesis bias against and in favor, and its alternatives,
    # build one region.  One tuple, replaced whole: a thread sharing the
    # bundle reads a key and its own region.
    _last_region = ((None, None), None)

    def _region(self, psi0, disc: Optional[Discretization]):
        """``_favor_region(psi0, disc)``; a float's is kept until the next
        float's is built (an array's never is)."""
        if not isinstance(psi0, float):
            return self._favor_region(psi0, disc)
        key, region = self._last_region
        if key != (psi0, disc):
            region = self._favor_region(psi0, disc)
            self._last_region = ((psi0, disc), region)
        return region

    def interest(self, psi0, disc: Optional[Discretization] = None) -> float:
        """The hypothesized value ``psi0``; with ``disc``, refused when its
        anchored cell has prior content below PRIOR_CONTENT_FLOOR."""
        psi0 = float(psi0)
        if disc is not None and self.prior_interval(self._cell(psi0, disc.delta)) < PRIOR_CONTENT_FLOOR:
            raise DomainError(
                f"a cell anchored at the hypothesized value has prior content below {PRIOR_CONTENT_FLOOR}"
            )
        return psi0

    def _cell(self, psi0, delta: float):
        """The cell of half-width ``delta`` anchored at ``psi0`` (broadcast)."""
        return psi0 - delta, psi0 + delta

    def stat_label(self, t):
        return t

    @staticmethod
    def _truths(truths, size) -> np.ndarray:
        """The true values of a ``sample_stat`` as floats; an array of them
        draws one statistic each, so a ``size`` that disagrees is refused."""
        truths = np.asarray(truths, dtype=float)
        if truths.ndim and size is not None and truths.shape != tuple(np.atleast_1d(size)):
            raise DomainError(f"size {size} disagrees with the shape {truths.shape} of the true values")
        return truths

    def sample_joint(self, rng: np.random.Generator, size: int):
        """Draw (true value, statistic) pairs from the prior predictive."""
        psi = self.sample_prior(rng, size)
        return psi, self.sample_stat(rng, psi)

    def region_prob(self, psi0, truths, disc: Optional[Discretization] = None, against: bool = True):
        """Exact probability that the ratio at ``psi0`` (of the point, or of
        the cell anchored there) is <= 1 (``against``) or >= 1 when the
        statistic comes from each true value (broadcast)."""
        return self._region_mass(self._region(psi0, disc), psi0, truths, against)

    def _candidates(self, psi0, delta: float, region=None) -> list:
        """The true values a bias in favor of ``psi0`` ranges over: the values
        at distance ``delta`` and, given the favor ``region`` of ``psi0``, its
        ``_peak`` if that is at least ``delta`` away.  Only values inside the
        support count, and a peak at its edge (the limit there) where the
        value at distance ``delta`` on that side does: for a float ``psi0``
        the others are dropped, for an array they are NaN."""
        lo, hi = self._support
        below, above = psi0 - delta, psi0 + delta
        if isinstance(psi0, float):
            truths = [truth for truth in (below, above) if lo < truth < hi]
            if region is not None:
                peak = float(self._peak(psi0, region))
                side = below if peak <= lo else above if peak >= hi else peak
                if abs(peak - psi0) >= delta and lo < side < hi:
                    truths.append(peak)
            return truths
        truths = [np.where((lo < at) & (at < hi), at, np.nan) for at in (below, above)]
        if region is not None:
            peak = self._peak(psi0, region)
            side = np.where(peak <= lo, below, np.where(peak >= hi, above, peak))
            truths.append(np.where((np.abs(peak - psi0) >= delta) & (lo < side) & (side < hi), peak, np.nan))
        return truths

    def alternatives(self, psi0, delta: float, boundary_only: bool = True, disc: Optional[Discretization] = None):
        """(stream key, true value) pairs for the bias in favor of ``psi0``:
        its ``_candidates``, numbered after any are dropped."""
        if np.ndim(psi0) == 0:
            psi0 = float(psi0)
        region = None if boundary_only else self._region(psi0, disc)
        return list(enumerate(self._candidates(psi0, delta, region)))

    def favor_sup(self, delta: float, disc: Optional[Discretization] = None, boundary_only: bool = True):
        """``g(psi0)``: the exact largest probability of evidence in favor of
        ``psi0`` (a value or an array) over its ``_candidates``, 0 where there
        is none; the values of ``region_prob`` over ``alternatives`` to the
        bit.  The favor region is built once per value, or once per block of
        an array: a block spans at most ``_BLOCK_CELLS`` statistic cells.  A
        float takes no array of its own."""

        def worst(p0):
            region = self._region(p0, disc)
            truths = self._candidates(p0, delta, None if boundary_only else region)
            if isinstance(p0, float):  # as fmax from 0 would, a NaN never wins
                return max([0.0, *(self._region_mass(region, p0, truth, False) for truth in truths)])
            return np.fmax.reduce(self._region_mass(region, p0, np.array(truths), False), axis=0, initial=0.0)

        def g(psi0):
            if isinstance(psi0, float) or np.ndim(psi0) == 0:
                return worst(float(psi0))
            rows = max(1, _BLOCK_CELLS // self._cells_per_value)
            return np.concatenate([worst(psi0[start:start + rows]) for start in range(0, len(psi0), rows)])

        return g

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

    def reduce_data(self, data):
        """Reduce data to the minimal sufficient statistic: the statistic
        itself, an ``(n, statistic)`` pair, or a raw sample of length ``n``,
        read as floats (an entry that is not a number is refused)."""
        if isinstance(data, tuple) and len(data) == 2:
            n, data = data
            if n != self.n:  # a fractional n is refused, not truncated
                raise DomainError(f"statistic reports n={n}, bundle expects n={self.n}")
        if not isinstance(data, (int, float, np.integer, np.floating)):
            sample = _float_array(data, "raw sample")
            if sample.ndim != 1 or sample.size != self.n:
                raise DomainError(
                    f"raw sample must be one-dimensional with length n={self.n}, got shape {sample.shape}"
                )
            data = self._sample_statistic(sample)
        return self._statistic(data)

    def profile_cells(self, data, disc: Optional[Discretization]):
        """(prior contents, posterior contents, data digest, layout) of the
        profile over the grid cells of ``disc``, which is required."""
        if disc is None:
            raise DomainError("a Discretization is required for continuous interest parameters")
        t = self.reduce_data(data)
        edges, anchor_index = build_cells(disc, self.default_psi_range())
        prior = self.prior_interval(edges)
        posterior = self.posterior_interval(edges, t)
        centers = 0.5 * (edges[:-1] + edges[1:])
        layout = dict(edges=edges, centers=centers, anchor_index=anchor_index)
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
        # the favor window divides by the precision ratio a, so outside this
        # range it is not finite (the bound on a^2 is stricter than it needs)
        try:
            a = self.n * self.tau_star_sq / self.sigma0_sq
        except OverflowError:
            raise DomainError(
                f"sample size n is too large for a float: got an integer of {int(self.n).bit_length()} bits"
            ) from None
        if not (0.0 < a < math.inf and 0.0 < 1.0 / a < math.inf and 0.0 < a * a < math.inf):
            raise DomainError(
                f"the precision ratio n * tau_star_sq / sigma0_sq = {a!r} is out of range: "
                "it, its reciprocal and its square must be positive and finite"
            )


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
    where z is the standardized distance of the data mean from mu0.  ``mu0``
    is a float or an array; the spec's precision rule keeps r finite and
    positive."""
    a = spec.n * spec.tau_star_sq / spec.sigma0_sq
    c = math.sqrt(spec.n) * (mu0 - spec.mu_star) / math.sqrt(spec.sigma0_sq)
    d = -c / a
    # (1 + a)/a * (log(1 + a) + c^2/a): no a^2 and no (1 + a) c^2, either of
    # which can overflow where the window itself is finite
    r_sq = (1.0 + a) / a * (math.log1p(a) + c * c / a)
    return np.sqrt(r_sq), d


def _window_prob(spec: LocationNormalSpec, window, mu0, mu_true):
    """Probability that the data mean from true mean ``mu_true`` falls in the
    favor ``window`` (r, d) of ``mu0`` (floats or arrays, broadcast)."""
    r, d = window
    shift = math.sqrt(spec.n) * (mu_true - mu0) / math.sqrt(spec.sigma0_sq)
    return norm_cdf(r - d - shift) - norm_cdf(-r - d - shift)


def _window_offset(delta: float, sd: float, target):
    """The offset u* > 0 of a normal mean, sd ``sd``, at which the content
    P(u) of the cell (-delta, delta] falls to ``target`` (an array, each
    entry positive and below P(0)): a float at the root at which the content
    as ``normal_interval_prob`` computes it is >= ``target`` while at the
    next float up it is not.

    f(u) = log P(u) - log target is concave and decreasing for u >= 0, the
    normal being log-concave.  Newton's method, in posterior sds, starts at
    u0 = delta - sd * ndtri(target (1 - 2^-40)), where P(u0) <= ndtr((delta
    - u0) / sd), just below the target (the margin covers the rounding of
    ndtri, and keeps u0 finite for a target that rounds to 1), so u0 is
    right of the root, and falls from there monotonically to it.  Each
    entry stops on its own once a step is below ``_NEWTON_RTOL`` of it (the
    next would be below an ulp), so no offset depends on the others it is
    solved with; :func:`_last_inside` then settles the last ulps on the
    computed content itself."""
    target = np.asarray(target, dtype=float)
    flat = target.reshape(-1)
    # Newton solves for half an ulp below ``target``: the computed content
    # rounds up to it from there, and near 1, where it is a coarse step
    # function of u, that rounding edge is the crossing
    log_target = np.log(flat) + np.log1p(-0.5 * (flat - np.nextafter(flat, 0.0)) / flat)
    h = delta / sd
    w = np.maximum(h - special.ndtri(flat * (1.0 - 2.0**-40)), 0.0)
    todo = np.arange(w.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_WINDOW_NEWTON_CAP):
            if not todo.size:
                break
            v = w[todo]
            b = h - v
            log_b = special.log_ndtr(b)
            log_p = log_b + np.log1p(-np.exp(special.log_ndtr(-h - v) - log_b))
            # f'(w) = -(pdf(b) - pdf(a)) / P, and pdf(a) / pdf(b) = exp(-2 h w)
            slope = np.exp(-0.5 * b * b - log_p) * np.expm1(-2.0 * h * v)
            nxt = np.maximum(v - (log_p - log_target[todo]) * _SQRT_2PI / slope, 0.0)
            w[todo] = np.fmin(nxt, v)  # no step up, and none to NaN
            todo = todo[v - nxt > _NEWTON_RTOL * v]
    inside = lambda x, at: normal_interval_prob((-delta, delta), x, sd) >= flat[at]
    return _last_inside(inside, w * sd).reshape(target.shape)


def _last_inside(inside, u) -> np.ndarray:
    """For each float u >= 0 of a 1-D array, a float lo near it at which
    ``inside(x, at)`` (for the values ``x`` of the entries ``at``) holds and
    at the next float up does not; 0 where even 0 is not inside.  Ulps are
    taken on the bit patterns, which order nonnegative floats.  One call
    probes the ulps from u - 2 to u + 2, and the highest crossing among them
    is taken: a Newton solution lies that close wherever the computed
    content decides its side ulp by ulp.  Elsewhere a search doubles its
    step away from them until the side changes, then halves the bracket to
    one ulp."""
    rows = np.arange(u.size)
    ladder = np.maximum(u.view(np.int64)[:, None] + np.arange(-2, 3), 0)
    ins = inside(ladder.view(float), rows[:, None])
    cross = ins[:, :-1] & ~ins[:, 1:]
    found, top = cross.any(axis=1), ins[:, -1]
    # lo: the last ulp known inside (-1: none yet); hi: the first known
    # outside above it (_INF_BITS: none yet)
    lo = np.where(found, ladder[rows, 3 - cross[:, ::-1].argmax(axis=1)], np.where(top, ladder[:, -1], -1))
    hi = np.where(found, lo + 1, np.where(top, _INF_BITS, ladder[:, 0]))
    span = 1
    todo = rows[(hi - lo != 1) & (hi != 0)]
    while todo.size:
        low, high = lo[todo], hi[todo]
        at = np.where(high == _INF_BITS, low + np.minimum(span, _INF_BITS - 1 - low),
                      np.where(low < 0, np.maximum(high - span, 0), low + (high - low) // 2))
        ins = inside(at.view(float), todo)
        lo[todo] = low = np.where(ins, at, low)
        hi[todo] = high = np.where(ins, high, at)
        span = min(2 * span, 1 << 62)
        todo = todo[(high - low != 1) & (high != 0)]
    return np.maximum(lo, 0).view(float)


def _real(x):
    """A float as it is (float arithmetic rounds as float64 does); anything
    else as a float array."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


def favor_prob_locnormal(spec: LocationNormalSpec, mu0, mu_true):
    """Probability of obtaining evidence in favor of ``mu0`` when data are
    generated with true mean ``mu_true`` (exact; vectorized)."""
    mu0_real = _real(mu0)
    prob = _window_prob(spec, _favor_window(spec, mu0_real), mu0_real, _real(mu_true))
    if np.isscalar(mu0) and np.isscalar(mu_true):
        return float(prob)
    return prob


class LocationNormalBundle(_ContinuousBundle):
    """Normal data with known variance, conjugate normal prior on the mean."""

    kind = "location_normal"
    _support = (-math.inf, math.inf)
    _cells_per_value = 1  # a favor window is two numbers

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

    def _sample_statistic(self, sample):
        """The sample mean; a sum that overflows leaves an infinite or NaN
        mean for ``_statistic`` to refuse."""
        with np.errstate(over="ignore", invalid="ignore"):
            return sample.mean()

    def _statistic(self, xbar) -> float:
        """The data mean as a finite float."""
        try:
            xbar = float(xbar)
        except OverflowError:
            raise DomainError("the data mean must be finite, got a number beyond the float range") from None
        if not math.isfinite(xbar):
            raise DomainError(f"the data mean must be finite, got {xbar}")
        return xbar

    def posterior_params(self, t: float) -> Tuple[float, float]:
        s = self.spec
        post_var = 1.0 / (s.n / s.sigma0_sq + 1.0 / s.tau_star_sq)
        post_mean = post_var * (s.n * t / s.sigma0_sq + s.mu_star / s.tau_star_sq)
        return post_mean, post_var

    def default_psi_range(self) -> Tuple[float, float]:
        z = norm_quantile(0.5 + DEFAULT_RANGE_MASS / 2.0)
        s = self.spec
        return (s.mu_star - z * self._tau_star, s.mu_star + z * self._tau_star)

    def prior_interval(self, edges):
        return normal_interval_prob(edges, self.spec.mu_star, self._tau_star)

    def posterior_interval(self, edges, t: float):
        mean, var = self.posterior_params(t)
        return normal_interval_prob(edges, mean, math.sqrt(var))

    def log_rb_point(self, psi0, t):
        return locnormal_log_rb(self.spec, t, psi0)

    def log_rb(self, psi0, t, disc: Optional[Discretization] = None):
        """log ratio at ``psi0`` for data means ``t``: of the point, or of the
        cell of half-width ``disc.delta`` anchored there (broadcast)."""
        if disc is None:
            return self.log_rb_point(psi0, t)
        return _log_cell_rb(self, self._cell(psi0, disc.delta), t)

    def _cell_window(self, psi0, delta: float):
        """Data means (lo, hi) between which the ratio of the cell of
        half-width ``delta`` anchored at ``psi0`` is >= 1 (vectorized).

        The posterior content of the cell is symmetric in the offset u of the
        posterior mean from ``psi0`` and falls strictly in |u|; at u = 0 it
        exceeds the prior content, the posterior being narrower.  So the
        posterior means with a ratio >= 1 are [psi0 - u*, psi0 + u*], where u*
        solves "posterior content = prior content"; :func:`_window_offset`
        finds it for every ``psi0`` at once, and it is mapped back to data
        means."""
        psi0 = np.asarray(psi0, dtype=float)
        target = _prior_cell_content(self, self._cell(psi0, delta))
        u = _window_offset(delta, self._post_sd, target)
        # the posterior mean moves by ``_shrink`` per unit of data mean
        m = self.spec.mu_star
        return m + (psi0 - u - m) / self._shrink, m + (psi0 + u - m) / self._shrink

    def _favor_region(self, psi0, disc: Optional[Discretization] = None):
        """The favor region of ``psi0`` as (window, cell): for the point the
        window (r, d) of :func:`_favor_window` on the standardized data mean
        and cell None, for the cell of half-width ``disc.delta`` window None
        and the data means (lo, hi) of ``_cell_window``."""
        if disc is None:
            return _favor_window(self.spec, _real(psi0)), None
        return None, self._cell_window(psi0, disc.delta)

    def _region_mass(self, region, psi0, truths, against: bool):
        """Probability of the favor ``region`` of ``psi0``, or of its
        complement when ``against``, under each true mean.  The point keeps
        the difference of two normal CDFs, which the reproduce digests pin."""
        window, cell = region
        if cell is None:
            favor = _window_prob(self.spec, window, _real(psi0), _real(truths))
        else:
            favor = normal_interval_prob(cell, truths, self._stat_sd)
        return 1.0 - favor if against else favor

    def _peak(self, psi0, region):
        """The true mean at the center of the favor window of ``psi0``, where
        the favor probability peaks; a cell's window has the same center, so
        ``region`` is not read."""
        _, d = _favor_window(self.spec, psi0)
        return psi0 - d * math.sqrt(self.spec.sigma0_sq) / math.sqrt(self.spec.n)

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
        """Draw sample means: ``size`` at one true mean ``mu``, or one per
        mean of an array."""
        mu = self._truths(mu, size)
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


def _inversion_thresholds(n: int, p: float) -> Optional[np.ndarray]:
    """The uniforms at which numpy's binomial inversion loop at ``n`` trials
    and rate ``p`` <= 1/2 steps from count j to j + 1, for j = 0..bound: the
    smallest double on the 2^-53 lattice of ``Generator.random`` whose chain
    passes steps 0..j, inf where none does.  None if a search window fails to
    bracket its threshold.

    The loop (numpy's ``random_binomial_inversion``) starts at X = 0 and
    px = (1 - p)^n; while U > px it sets X += 1, restarts with a new uniform
    once X exceeds bound, and otherwise sets U -= px and steps px to the next
    pmf term.  Each rounded subtraction is monotone in U, so the count never
    falls as U grows: a uniform draws the number of thresholds at or below
    it, and bound + 1 means a restart.  Each subtraction errs by at most
    2^-54, so threshold j lies within bound + 4 lattice points of the float
    cumulative sum of px; the chain runs, with the loop's own arithmetic, on
    that window for every j at once."""
    q = 1.0 - p
    px = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1.0)))
    steps = np.empty(bound + 1)
    steps[0] = px
    for x in range(1, bound + 1):
        px = ((n - x + 1) * p * px) / (x * q)
        steps[x] = px
    top = (1 << 53) - 1
    width = bound + 4
    centers = np.rint(np.minimum(np.cumsum(steps), 1.0) * 2.0**53).astype(np.int64)
    lattice = np.clip(centers[:, None] + np.arange(-width, width + 1), 0, top)
    u = lattice * 2.0**-53
    passed = np.ones(u.shape, dtype=bool)
    for x, px in enumerate(steps):  # row j takes steps 0..j
        passed[x:] &= u[x:] > px
        u[x:] -= px
    if not ((~passed[:, 0] | (lattice[:, 0] == 0)).all() and (passed[:, -1] | (lattice[:, -1] == top)).all()):
        return None
    rows = np.arange(bound + 1)
    first = passed.argmax(axis=1)
    return np.where(passed[rows, first], lattice[rows, first] * 2.0**-53, np.inf)


def _binomial(rng: np.random.Generator, n: int, p: float, size) -> np.ndarray:
    """``rng.binomial(n, p, size)``: the same counts and the same stream state
    after them.  Where numpy inverts (n * min(p, 1 - p) <= 30, p > 0), each
    draw reads its one uniform from ``rng.random`` and looks it up among the
    :func:`_inversion_thresholds`, from a guide table of the count at each
    bucket start; a rate above 1/2 draws n minus a count at 1 - p, as numpy
    does.  A uniform that would make numpy's loop restart rewinds the stream
    to numpy's own sampler, as do BTPE's rates, p = 0 (no uniform is read),
    a rate outside [0, 1] (numpy's error) and a window that fails."""
    if not (0.0 < p <= 1.0) or min(p, 1.0 - p) * n > _INVERSION_MAX_MEAN:
        return rng.binomial(n, p, size)
    flip = p > 0.5
    thresholds = _inversion_thresholds(n, 1.0 - p if flip else p)
    if thresholds is None:
        return rng.binomial(n, p, size)
    saved = rng.bit_generator.state
    u = rng.random(size)
    if u.size and u.max() >= thresholds[-1]:
        rng.bit_generator.state = saved
        return rng.binomial(n, p, size)
    guide = np.searchsorted(thresholds, np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS, side="right").astype(np.int64)
    counts = guide[(u * _GUIDE_BUCKETS).astype(np.intp)]
    thresholds = np.append(thresholds, np.inf)
    # a threshold inside a uniform's bucket and below it is rare: the first
    # step takes every draw, the later ones only those that moved
    flat, u = counts.reshape(-1), u.reshape(-1)
    up = thresholds[flat] <= u
    flat += up
    todo = np.flatnonzero(up)
    while todo.size:
        at = flat[todo]
        up = thresholds[at] <= u[todo]
        flat[todo] = at + up
        todo = todo[up]
    return np.subtract(n, counts, out=counts) if flip else counts


class BetaBinomialBundle(_ContinuousBundle):
    """Binomial counts with a conjugate beta prior on the success rate."""

    kind = "beta_binomial"
    _sup_grid = (0.5, 0.5 - 1e-6, 201)
    _support = (0.0, 1.0)

    def __init__(self, n: int, alpha: float, beta: float):
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise DomainError(f"number of trials must be an integer >= 1, got {n!r}")
        limit = np.iinfo(np.intp).max // 8  # the n + 1 counts 0..n must fit an array of 8-byte entries
        if n >= limit:
            raise DomainError(f"number of trials n must be below {limit}, got an integer of {int(n).bit_length()} bits")
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
            raise DomainError(f"beta prior shapes must be positive and finite, got ({alpha}, {beta})")
        self.n = int(n)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._counts = np.arange(self.n + 1)
        self._cells_per_value = self.n + 1  # a favor region is a log ratio per count
        # the count-only terms of the pmfs and the point ratio, so no call
        # or draw evaluates them again
        self._log_binom = (
            special.gammaln(self.n + 1)
            - special.gammaln(self._counts + 1)
            - special.gammaln(self.n - self._counts + 1)
        )
        self._log_beta_post = special.betaln(self.alpha + self._counts, self.beta + self.n - self._counts)

    @property
    def digest(self) -> str:
        return f"beta_binomial(n={self.n},alpha={self.alpha!r},beta={self.beta!r})"

    def _sample_statistic(self, sample):
        """The success count of a 0/1 sample."""
        if not np.isin(sample, (0, 1)).all():
            raise DomainError("raw binomial sample entries must be 0 or 1")
        return sample.sum()

    def _statistic(self, s) -> int:
        """The success count as a whole int in [0, n]; fractions are refused."""
        if not (isinstance(s, (int, np.integer)) or float(s).is_integer()):
            raise DomainError(f"success count must be a whole number, got {s!r}")
        s = int(s)
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

    def prior_interval(self, edges):
        return beta_interval_prob(edges, self.alpha, self.beta)

    def posterior_interval(self, edges, s: int):
        a_post, b_post = self.posterior_params(s)
        return beta_interval_prob(edges, a_post, b_post)

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
            out = _log_cell_rb(self, self._cell(np.asarray(psi0, dtype=float), disc.delta), s)
        return out[t] if one else out

    def _favor_region(self, psi0, disc: Optional[Discretization] = None):
        """The log ratio at ``psi0`` (of the point, or of the cell) over the
        counts 0..n, one row per value of an array ``psi0``: the counts in
        favor are where it is >= 0, those against where it is <= 0, so a tie
        at a ratio of exactly 1 counts in both."""
        return self.log_rb(np.asarray(psi0, dtype=float)[..., None], self._counts, disc)

    def _region_mass(self, region, psi0, truths, against: bool):
        """Binomial probability of the counts in favor of ``psi0`` (against
        it when ``against``) under each true rate (broadcast; NaN for a NaN
        rate; at a rate of 0 or 1, the limit)."""
        counted = region <= 0.0 if against else region >= 0.0
        pmf = np.exp(self.log_sampling_pmf(truths))
        pmf[..., 0][truths == 0.0] = 1.0  # all mass on 0 or n successes, not 0 * log(0)
        pmf[..., -1][truths == 1.0] = 1.0
        return np.where(counted, pmf, 0.0).sum(axis=-1)

    def _peak(self, psi0, region):
        """The rate where the favor probability of ``psi0`` (point or cell)
        peaks, read off its favor ``region``.

        Its counts in favor are one interval [k1, k2].  For the point, the log
        ratio is concave in the count.  For the cell [a, b], the posterior
        content is, as a function of the count s, the integral of K(s, t)
        1[a, b](t) dt, where K is the Beta(alpha + s, beta + n - s) density.
        K is exp(s logit t) times positive factors of s alone and of t alone,
        so it is strictly totally positive of every order.  With c the prior
        content, 1[a, b](t) - c changes sign twice, in the order -, +, -.  By
        the variation-diminishing property (Karlin, Total Positivity, 1968),
        the posterior content minus c then changes sign at most twice, zeros
        counted either way, in that order: the counts where it is >= 0 are
        one interval.  Rounding at a near-tie could still split it, so any
        other region is refused.

        P(k1 <= S <= k2) is unimodal in the rate, with its mode where
        (rate / (1 - rate))^(k2 - k1 + 1) = C(n-1, k1-1) / C(n-1, k2), 0 or 1
        at k1 = 0 or k2 = n."""
        favor = region >= 0.0
        k1 = np.argmax(favor, axis=-1)
        k2 = self.n - np.argmax(favor[..., ::-1], axis=-1)
        if np.any(np.count_nonzero(favor, axis=-1) != k2 - k1 + 1):
            raise DomainError("the counts in favor of a hypothesized rate are not one interval")
        # C(n-1, k1-1) / C(n-1, k2) = k1 C(n, k1) / ((n - k2) C(n, k2))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_odds = np.log(k1) + self._log_binom[k1] - np.log(self.n - k2) - self._log_binom[k2]
        return np.where(k1 == 0, 0.0, special.expit(log_odds / (k2 - k1 + 1)))

    def prior_mean(self, g, smooth: bool) -> None:
        """No exact prior rule yet: averages over the beta prior are drawn."""
        return None

    def log_predictive(self) -> np.ndarray:
        """log prior predictive pmf of the success count, s = 0..n."""
        return self._log_binom + self._log_beta_post - special.betaln(self.alpha, self.beta)

    def log_sampling_pmf(self, theta) -> np.ndarray:
        """log Binomial(n, theta) pmf over s = 0..n (vectorized in theta)."""
        theta = np.asarray(theta, dtype=float)
        s = self._counts
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._log_binom + s * np.log(theta)[..., None] + (self.n - s) * np.log1p(-theta)[..., None]
        return out

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.alpha, self.beta, size)

    def sample_stat(self, rng: np.random.Generator, theta, size: Optional[int] = None) -> np.ndarray:
        """Draw success counts: ``size`` at one true rate ``theta`` (by
        :func:`_binomial`), or one per rate of an array."""
        theta = self._truths(theta, size)
        if size is not None and theta.ndim == 0:
            return _binomial(rng, self.n, float(theta), size)
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


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a new read-only float64 array; a table numpy cannot
    read as an array of numbers (ragged rows; a string, bool or other
    non-numeric entry) is a domain error."""
    try:
        array = np.array(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} cannot be read as an array of floats: {exc}") from None
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{what} cannot be read as an array of floats: entries of type {array.dtype}")
    array = array.astype(float, copy=False)
    array.setflags(write=False)
    return array


def _check_rows(rows: np.ndarray, names) -> None:
    """Refuse the first row (``names`` names them in order) with a negative
    entry or an exact sum farther than 1e-12 from 1.  A plain sum above 2,
    or NaN, refuses a row outright, where ``math.fsum`` could overflow.

    The plain sum of m nonnegative entries lies within (m - 1) units of
    roundoff (2^-53 each) of the exact sum, whatever order numpy adds them
    in.  ``slack`` doubles that and adds 4 ulps of 1 for the rounding of
    ``fsum`` itself, so only a row whose plain sum lies within ``slack`` of
    1 +- 1e-12 needs ``fsum`` to decide as it always has."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = rows.sum(axis=1)
        off = np.abs(sums - 1.0)
        slack = rows.shape[1] * 2.0**-52 * sums + 2.0**-50
        unfit = (rows < 0.0).any(axis=1) | ~(sums <= 2.0) | (off - slack > 1e-12)
        unsure = ~unfit & (off + slack >= 1e-12)
    for i in np.flatnonzero(unsure):
        unfit[i] = abs(math.fsum(rows[i].tolist()) - 1.0) > 1e-12
    if unfit.any():
        name = next(itertools.islice(names, int(unfit.argmax()), None))
        raise DomainError(f"{name} must be nonnegative and sum to 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class FiniteModelSpec:
    """A fully tabulated model: prior over theta labels, row-stochastic
    likelihood table over data labels, and a map from theta to interest
    labels.  ``prior`` and ``likelihood`` are read-only float64 arrays, so
    specs compare by identity."""

    theta_labels: Tuple[str, ...]
    prior: np.ndarray
    likelihood: np.ndarray  # rows indexed by theta, columns by x
    x_labels: Tuple[str, ...]
    psi_of_theta: Tuple[str, ...]

    def __init__(self, theta_labels, prior, likelihood, x_labels, psi_of_theta=None):
        theta_labels = tuple(theta_labels)
        prior = _float_array(prior, "prior weights")
        likelihood = _float_array(likelihood, "likelihood table")
        x_labels = tuple(x_labels)
        psi_of_theta = theta_labels if psi_of_theta is None else tuple(psi_of_theta)  # default: theta itself

        if len(set(theta_labels)) != len(theta_labels):
            raise DomainError("theta labels must be unique")
        if len(set(x_labels)) != len(x_labels):
            raise DomainError("data labels must be unique")
        if prior.shape != (len(theta_labels),):
            raise DomainError("prior length must match theta labels")
        if len(psi_of_theta) != len(theta_labels):
            raise DomainError("psi_of_theta length must match theta labels")
        _check_rows(prior[None, :], ["prior weights"])
        if likelihood.shape[:1] != prior.shape:
            raise DomainError("likelihood table must have one row per theta")
        if likelihood.shape[1:] != (len(x_labels),):  # every row has the width of the first
            raise DomainError(f"likelihood row for {theta_labels[0]!r} has wrong length")
        _check_rows(likelihood, (f"likelihood row for {label!r}" for label in theta_labels))

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
        self.prior = spec.prior
        self.like = spec.likelihood

        self.psi_labels: Tuple[str, ...] = tuple(dict.fromkeys(spec.psi_of_theta))  # first-appearance order
        index = {lab: i for i, lab in enumerate(self.psi_labels)}
        self.psi_index_of_theta = np.array([index[lab] for lab in spec.psi_of_theta])
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
        self._usable = np.flatnonzero(self.prior_psi >= PRIOR_CONTENT_FLOOR)
        for arr in (self.joint, self.predictive, self.prior_psi, self.predictive_psi, self._rb_psi,
                    self.psi_index_of_theta, self._group, self._usable):
            arr.setflags(write=False)

    @functools.cached_property
    def _cum_like(self) -> np.ndarray:
        """The likelihood rows' running sums, the search table of the outcome
        draw; built on the first draw, so a bundle that never draws skips it."""
        table = _cumulative_rows(self.like)
        table.setflags(write=False)
        return table

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

    def alternatives(self, psi0, delta: float, boundary_only: bool = True, disc: Optional[Discretization] = None):
        """(stream key, true index) pairs for the bias in favor of ``psi0``:
        every other interest value above the prior floor.  Labels carry the
        discrete metric, so each lies at distance 1 and ``boundary_only``
        changes nothing; they have no cells, so ``disc`` is refused."""
        refuse_grid(disc)
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
        return self.prior_psi, self.posterior_psi(x_idx), (1, self.x_labels[x_idx]), layout

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
        likelihood entries of that row below ``u * row total``, found by one
        search over all draws, with no ``size x |X|`` array."""
        weights = self.prior if cond_prior is None else cond_prior
        theta_idx = _inverse_cdf(_cumulative_rows(weights), len(weights), rng.random(size))
        x_idx = _inverse_cdf(self._cum_like, len(self.x_labels), rng.random(size), rows=theta_idx, strict=True)
        return self.psi_index_of_theta[theta_idx], x_idx

    def sample_prior(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw interest indices from the prior, by inverse CDF."""
        return _inverse_cdf(_cumulative_rows(self.prior_psi), len(self.psi_labels), rng.random(size))

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
