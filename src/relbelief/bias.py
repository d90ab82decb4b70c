"""A priori bias measurement and sample-size design.

Before any data are collected, the model and prior already fix the
probability of obtaining misleading evidence.  Every bias is the probability
of one event under the prior predictive: that the relative belief ratio at a
value is at most 1 when that value is true (bias against), or at least 1
when the truth lies at least ``delta`` away (bias in favor).

* hypothesis bias -- bias against one value, and the worst case of bias in
  favor of it over the values that are meaningfully different;
* estimation bias -- the same two quantities averaged over the prior (bias
  against also maximized), which also give the prior coverage probability of
  the plausible region.

One engine computes them all over the per-bundle primitive of
:mod:`relbelief.models`.  Under ``auto`` and ``exact`` a hypothesis bias is
the bundle's exact region probability, of a point or of a cell (normal-CDF
windows in the location-normal model, enumeration over counts and finite
tables); under ``mc`` it is seeded Monte Carlo.  An estimation bias is one
path over four bundle methods: ``failure`` and ``favor_sup`` for the
functions the biases against and in favor take, ``supremum`` for the worst
case and ``prior_mean`` for the averages.  Under ``auto`` and ``exact`` every
average is the bundle's exact prior rule, and nothing is drawn (a
beta-binomial estimation on a grid has no exact rule and is refused); under
``mc`` every average is drawn from the prior predictive and every supremum is
still computed.
Replications are laid out by index in a dedicated substream, so estimates do
not depend on evaluation order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DesignSearchError, DomainError, _bool_arg, _real_arg, _whole_arg
from .models import Discretization, favor_prob_locnormal
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
    "meets_targets",
]

EXACT = "Exact"
MONTE_CARLO = "MonteCarlo"

# The values of every ``method`` argument.
METHODS = ("auto", "exact", "mc")


@dataclass(frozen=True)
class McConfig:
    """Replication count and seed for Monte Carlo paths.

    Replication ``i`` of a task always reads position ``i`` of that task's
    counter-based Philox substream, so the seed alone fixes every estimate.
    """

    n_sim: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # a standard error needs two draws; the stream key is 64 bits
        object.__setattr__(self, "n_sim", _whole_arg(self.n_sim, "n_sim", 2))
        object.__setattr__(self, "seed", _whole_arg(self.seed, "seed", 0, 2**64))


@dataclass(frozen=True)
class BiasComponent:
    """One estimated bias probability with its standard error, and the
    ``method`` that computed it."""

    value: float
    se: float
    method: str
    fallback: ClassVar[bool] = False  # read-only: no path hands a component to another method

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
# the engine


def _mc_probability(indicator: np.ndarray) -> Tuple[float, float]:
    n = indicator.size
    count = int(np.count_nonzero(indicator))
    p = count / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _resolve_method(method: str) -> str:
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}; use one of {METHODS}")
    return MONTE_CARLO if method == "mc" else EXACT


def _check_grid(disc: Optional[Discretization], psi0=None) -> None:
    """A bias reads only the ``delta`` of a discretization: its one cell is
    anchored at the hypothesized value ``psi0``, or in estimation (``psi0``
    None) at each value the prior weighs.  Refuse a ``range``, and an
    ``anchor`` anywhere else, rather than ignore them."""
    if disc is None:
        return
    if disc.range is not None:
        raise DomainError(f"a bias takes no discretization range (its cell is anchored at the value assessed), "
                          f"got range {disc.range}")
    if disc.anchor is not None and (psi0 is None or disc.anchor != psi0):
        at = "each prior value" if psi0 is None else f"psi0 = {psi0!r}"
        raise DomainError(f"a bias anchors its discretization cell at {at}, got anchor {disc.anchor}")


def _worst_case(bundle, psi0, cases, disc, mc, how, against: bool) -> BiasComponent:
    """Largest probability of the ratio event at ``psi0`` -- ratio <= 1 when
    ``against``, else >= 1 -- over ``cases``, (stream key, true value)
    pairs.  Exact unless Monte Carlo was asked for; then the largest
    per-case Monte Carlo estimate."""
    if how == EXACT:
        probs = bundle.region_prob(psi0, np.array([truth for _, truth in cases]), disc, against)
        return BiasComponent(value=min(float(np.max(probs)), 1.0), se=0.0, method=EXACT)
    mc = mc or McConfig()
    best, best_se = -1.0, 0.0
    for key, truth in cases:
        stat = bundle.sample_stat(substream(mc.seed, *key), truth, size=mc.n_sim)
        log_rb = bundle.log_rb(psi0, stat, disc)
        p, se = _mc_probability(log_rb <= 0.0 if against else log_rb >= 0.0)
        if p > best:
            best, best_se = p, se
    return BiasComponent(value=best, se=best_se, method=MONTE_CARLO)


def _average(bundle, g, how: str, drawn: Callable[[], Tuple[float, float]], smooth: bool) -> BiasComponent:
    """The exact prior mean of ``g``, or, when ``mc`` was asked for, the
    (estimate, standard error) of ``drawn()``."""
    if how == MONTE_CARLO:
        return BiasComponent(*drawn(), method=MONTE_CARLO)
    return BiasComponent(value=min(bundle.prior_mean(g, smooth), 1.0), se=0.0, method=EXACT)


# ---------------------------------------------------------------------------
# hypothesis biases


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
    _check_grid(disc, psi0)
    psi0 = bundle.interest(psi0, disc)
    return _worst_case(bundle, psi0, [(("bias-against-h",), psi0)], disc, mc, how, against=True)


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
    boundary_only = _bool_arg(boundary_only, "boundary_only")
    delta = _real_arg(delta, "delta", 0.0)
    how = _resolve_method(method)
    _check_grid(disc, psi0)
    coord = bundle.interest(psi0, disc)
    cases = [(("bias-favor-h", j), truth) for j, truth in bundle.alternatives(coord, delta, boundary_only, disc)]
    if not cases:
        raise DomainError(f"no value with prior mass differs from {psi0!r} by at least {delta}")
    return _worst_case(bundle, coord, cases, disc, mc, how, against=False)


def hypothesis_bias(
    bundle,
    psi0,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> BiasHReport:
    boundary_only = _bool_arg(boundary_only, "boundary_only")
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


def bias_against_e(
    bundle,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
) -> Tuple[BiasComponent, BiasComponent]:
    """Average and worst-case prior probability that the plausible region
    misses the true value.  Returns (average, supremum).

    The supremum is computed under every method, of the point or of the
    anchored cell; a finite model refuses a discretization, as its labels
    have no cells.  The average is exact under ``auto``/``exact``; under
    ``mc`` it is the share of (true value, statistic) pairs drawn from the
    prior predictive whose ratio at the true value is at most 1.
    """
    how = _resolve_method(method)
    _check_grid(disc)
    mc = mc or McConfig()

    g = bundle.failure(disc)

    def drawn():
        psi, t = bundle.sample_joint(substream(mc.seed, "bias-against-e-avg"), mc.n_sim)
        return _mc_probability(bundle.log_rb(psi, t, disc) <= 0.0)

    avg = _average(bundle, g, how, drawn, smooth=True)  # first: a refused average skips the supremum
    return avg, BiasComponent(value=bundle.supremum(g), se=0.0, method=EXACT)


def bias_in_favor_e(
    bundle,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> BiasComponent:
    """Prior-averaged worst-case probability of obtaining evidence in favor
    of a value that is meaningfully false (at least ``delta`` away).

    The worst case at each value is exact, of the point or of the anchored
    cell; its prior average is exact under ``auto``/``exact``, and the mean
    over seeded prior draws under ``mc``.  A finite model refuses a
    discretization, as its labels have no cells.
    """
    boundary_only = _bool_arg(boundary_only, "boundary_only")
    delta = _real_arg(delta, "delta", 0.0)
    how = _resolve_method(method)
    _check_grid(disc)
    mc = mc or McConfig()
    g = bundle.favor_sup(delta, disc, boundary_only)

    def drawn():
        vals = g(bundle.sample_prior(substream(mc.seed, "bias-favor-e"), mc.n_sim))
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(mc.n_sim))

    return _average(bundle, g, how, drawn, smooth=False)


def estimation_bias(
    bundle,
    delta: float,
    disc: Optional[Discretization] = None,
    mc: Optional[McConfig] = None,
    method: str = "auto",
    boundary_only: bool = True,
) -> BiasEReport:
    boundary_only = _bool_arg(boundary_only, "boundary_only")
    avg, sup = bias_against_e(bundle, disc=disc, mc=mc, method=method)
    favor = bias_in_favor_e(
        bundle, delta, disc=disc, mc=mc, method=method, boundary_only=boundary_only
    )
    components = (avg, sup, favor)
    return BiasEReport(
        avg_bias_against=avg.value,
        sup_bias_against=sup.value,
        avg_bias_in_favor=favor.value,
        implied_coverage=1.0 - avg.value,
        delta=delta,
        se_avg_against=avg.se,
        se_sup_against=sup.se,
        se_avg_in_favor=favor.se,
        method=EXACT if all(c.method == EXACT for c in components) else MONTE_CARLO,
    )


# ---------------------------------------------------------------------------
# design


@dataclass(frozen=True)
class DesignResult:
    """Smallest admissible sample size with the reports for every candidate."""

    n: int
    report: BiasHReport
    evaluated: Tuple[Tuple[int, BiasHReport], ...]


def meets_targets(report: BiasHReport, targets: Dict[str, float]) -> bool:
    """Whether ``report`` meets every target: ``max_bias_against`` and
    ``max_bias_in_favor`` bound the field of the same name without ``max_``."""
    return all(getattr(report, name.removeprefix("max_")) <= bound for name, bound in targets.items())


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
    boundary_only = _bool_arg(boundary_only, "boundary_only")
    known = {"max_bias_against", "max_bias_in_favor"}
    unknown = set(targets) - known
    if unknown:
        raise DomainError(f"unknown design targets: {sorted(unknown)}")
    if not targets:
        raise DomainError("at least one design target is required")
    targets = {name: _real_arg(value, f"target {name}", 0.0, 1.0) for name, value in targets.items()}
    n_grid = [_whole_arg(n, "n_grid entry", 1) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be a strictly ascending sequence of sizes >= 1")

    evaluated = []
    for n in n_grid:
        report = hypothesis_bias(
            bundle_family(n), psi0, delta, disc=disc, mc=mc, method=method,
            boundary_only=boundary_only,
        )
        evaluated.append((n, report))
        if meets_targets(report, targets):
            return DesignResult(n=n, report=report, evaluated=tuple(evaluated))
    raise DesignSearchError(
        f"no sample size on the grid {n_grid} meets the targets {targets}",
        reports=tuple(evaluated),
    )
