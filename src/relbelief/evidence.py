"""Post-data inference: relative belief profiles over a discretized interest
parameter, estimates with plausible and credible regions, and hypothesis
assessment with strength calibration.

A profile stores, for every grid cell, the prior content, the posterior
content, and their ratio.  The ratio of cell contents is used directly; no
densities are ever estimated.  Cells whose prior content falls below
``PRIOR_CONTENT_FLOOR`` are excluded from inference and reported in the
profile diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .events import EvidenceVerdict
from .models import (
    PRIOR_CONTENT_FLOOR,
    Discretization,
    LocationNormalSpec,
    locnormal_log_rb,
    norm_cdf,
)

__all__ = [
    "EvidenceProfile",
    "EstimateReport",
    "CredibleRegion",
    "HypothesisAssessment",
    "rb_profile",
    "estimate",
    "strength",
    "assess",
    "rb_locnormal_exact",
    "tail_difference_locnormal",
    "reparam_profile",
]


@dataclass(frozen=True)
class EvidenceProfile:
    """Per-cell prior content, posterior content, and relative belief ratio.

    Interval profiles carry ``edges`` and ``centers``; profiles over a finite
    labeled parameter carry ``labels`` instead.  ``usable`` marks cells with
    enough prior content to support a ratio; everything downstream ignores
    the rest.
    """

    prior_content: np.ndarray
    posterior_content: np.ndarray
    rb: np.ndarray
    usable: np.ndarray
    data_digest: tuple
    bundle_digest: str
    edges: Optional[np.ndarray] = None
    centers: Optional[np.ndarray] = None
    labels: Optional[Tuple[str, ...]] = None
    anchor_index: Optional[int] = None
    excluded_cells: int = 0
    excluded_prior_mass: float = 0.0

    def __post_init__(self):
        """Every array field is made read-only, so a profile built from
        another one (see ``reparam_profile``) can share them as views."""
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    @property
    def n_cells(self) -> int:
        return len(self.prior_content)

    def values_of(self, indices) -> tuple:
        """The representative interest values (centers or labels) of the
        cells at the integer array ``indices``."""
        if self.is_labeled:
            return tuple(map(self.labels.__getitem__, indices.tolist()))
        return tuple(self.centers[indices].tolist())

    def cell_index_of(self, psi) -> int:
        """Locate the cell containing ``psi`` (a value, or a label)."""
        if self.is_labeled:
            try:
                return self.labels.index(psi)
            except ValueError:
                raise DomainError(f"unknown interest value {psi!r}") from None
        psi = float(psi)
        if psi < self.edges[0] or psi > self.edges[-1]:
            raise DomainError(
                f"interest value {psi} lies outside the grid range "
                f"[{self.edges[0]}, {self.edges[-1]}]"
            )
        idx = int(np.searchsorted(self.edges, psi, side="right") - 1)
        return min(max(idx, 0), self.n_cells - 1)


def rb_profile(bundle, data, disc: Optional[Discretization] = None) -> EvidenceProfile:
    """Build the evidence profile for the observed data.

    Conjugate bundles compute each cell content as a difference of two CDF
    evaluations; finite bundles enumerate exactly.  ``disc`` is required for
    bundles with a continuous interest parameter and refused for finite ones,
    whose interest labels have no cells.
    """
    prior, posterior, data_digest, layout = bundle.profile_cells(data, disc)
    prior = np.asarray(prior, dtype=float)
    posterior = np.asarray(posterior, dtype=float)
    usable = prior >= PRIOR_CONTENT_FLOOR
    rb = np.full(prior.shape, np.nan)
    rb[usable] = posterior[usable] / prior[usable]
    # each refusal is written so that a NaN fails it
    if not usable.any():
        raise DomainError("no grid cell carries usable prior content; widen delta or the range")
    if not (prior.sum() <= 1.0 + 1e-9 and posterior.sum() <= 1.0 + 1e-9):
        raise DomainError("cell contents are NaN or sum past 1: the posterior overflows, or the grid is broken")
    if not (float(np.max(rb[usable])) >= 1.0 - 1e-9):
        raise DomainError(
            "no cell attains a relative belief ratio of 1; the grid range misses the "
            "posterior mass (check for prior-data conflict or widen the range)"
        )
    return EvidenceProfile(
        prior_content=prior,
        posterior_content=posterior,
        rb=rb,
        usable=usable,
        data_digest=data_digest,
        bundle_digest=bundle.digest,
        excluded_cells=int((~usable).sum()),
        excluded_prior_mass=float(prior[~usable].sum()),
        **layout,
    )


@dataclass(frozen=True)
class CredibleRegion:
    gamma: float
    cutoff: float
    indices: Tuple[int, ...]
    posterior_content: float
    prior_content: float


@dataclass(frozen=True)
class EstimateReport:
    """The relative belief estimate and its accuracy summary.

    ``psi_hat`` is the center (or label) of the cell maximizing the ratio,
    with ties broken toward the smallest value and all ties surfaced.  The
    plausible region collects the cells with a ratio strictly above 1; its
    prior content is the "size" of the region and its posterior content
    measures how much belief the region captures.
    """

    psi_hat: object
    tied: tuple
    plausible_indices: Tuple[int, ...]
    plausible_values: tuple
    pl_posterior_content: float
    pl_prior_content: float
    credible: Optional[CredibleRegion] = None


def estimate(profile: EvidenceProfile, gamma: Optional[float] = None) -> EstimateReport:
    """Point estimate, plausible region, and optional credible region."""
    rb = profile.rb
    usable = profile.usable
    idx = np.flatnonzero(usable)
    max_rb = float(np.max(rb[idx]))
    tied = profile.values_of(idx[rb[idx] == max_rb])

    pl_idx = np.flatnonzero(usable & (rb > 1.0))
    pl_post = float(profile.posterior_content[pl_idx].sum())
    pl_prior = float(profile.prior_content[pl_idx].sum())

    credible = None
    if gamma is not None:
        if not (0.0 < gamma < 1.0):
            raise DomainError(f"credible level must lie in (0, 1), got {gamma}")
        if gamma > pl_post + 1e-12:
            raise DomainError(
                f"credible level exceeds plausible-region posterior content "
                f"({gamma} > {pl_post:.6g}); a larger region would include values "
                f"with evidence against"
            )
        order = np.argsort(-rb[idx], kind="stable")
        sorted_rb = rb[idx][order]
        cum_post = np.cumsum(profile.posterior_content[idx][order])
        # 1e-12 slack absorbs summation-order noise so that gamma equal to the
        # plausible-region content cannot drag in a cell with a ratio below 1
        k = int(np.searchsorted(cum_post, gamma - 1e-12, side="left"))
        k = min(k, len(sorted_rb) - 1)
        cutoff = float(sorted_rb[k])
        region = idx[rb[idx] >= cutoff]
        credible = CredibleRegion(
            gamma=gamma,
            cutoff=cutoff,
            indices=tuple(region.tolist()),
            posterior_content=float(profile.posterior_content[region].sum()),
            prior_content=float(profile.prior_content[region].sum()),
        )

    return EstimateReport(
        psi_hat=tied[0],
        tied=tied,
        plausible_indices=tuple(pl_idx.tolist()),
        plausible_values=profile.values_of(pl_idx),
        pl_posterior_content=pl_post,
        pl_prior_content=pl_prior,
        credible=credible,
    )


def strength(profile: EvidenceProfile, psi0) -> float:
    """Posterior probability that the interest value has a relative belief
    ratio no larger than the hypothesized value's (the hypothesized cell
    included)."""
    i0 = profile.cell_index_of(psi0)
    if not profile.usable[i0]:
        raise DomainError(
            f"the cell containing {psi0!r} has prior content below "
            f"{PRIOR_CONTENT_FLOOR}; it cannot support a hypothesis assessment"
        )
    rb0 = profile.rb[i0]
    sel = profile.usable & (profile.rb <= rb0)
    return float(profile.posterior_content[sel].sum())


@dataclass(frozen=True)
class HypothesisAssessment:
    """Evidence about one hypothesized interest value.

    ``rb0`` carries the direction (above 1 in favor, below 1 against) and
    ``strength`` calibrates it.  The two bounds come from the posterior
    content of the hypothesized cell (below) and the ratio itself (above).
    """

    psi0: object
    rb0: float
    strength: float
    verdict: EvidenceVerdict
    markov_lower: float
    markov_upper: float

    def __post_init__(self):
        if not (
            self.markov_lower <= self.strength + 1e-9
            and self.strength <= min(1.0, self.markov_upper) + 1e-9
        ):
            raise DomainError(
                f"strength {self.strength} violates its bounds "
                f"[{self.markov_lower}, min(1, {self.markov_upper})]"
            )


def assess(profile: EvidenceProfile, psi0) -> HypothesisAssessment:
    """Assess a hypothesized value: ratio, verdict, strength, and bounds."""
    calibrated = strength(profile, psi0)  # refuses a cell below the prior floor
    i0 = profile.cell_index_of(psi0)
    rb0 = float(profile.rb[i0])
    return HypothesisAssessment(
        psi0=psi0,
        rb0=rb0,
        strength=calibrated,
        verdict=EvidenceVerdict.from_rb(rb0),
        markov_lower=float(profile.posterior_content[i0]),
        markov_upper=rb0,
    )


def rb_locnormal_exact(spec: LocationNormalSpec, xbar: float, mu0: float) -> float:
    """Exact relative belief ratio at ``mu0`` for the location-normal model
    (the zero-width-cell limit of the grid profile)."""
    return float(np.exp(locnormal_log_rb(spec, xbar, mu0)))


def tail_difference_locnormal(spec: LocationNormalSpec, xbar: float, mu0: float) -> float:
    """Difference of two tail probabilities; positive exactly when the data
    are evidence in favor of ``mu0``, negative when against (cutoff 0).

    The first term is the classical two-sided tail probability of the
    standardized data mean.  The second standardizes the distance of the data
    mean from the prior mean by the sampling standard deviation of the mean
    (sigma0/sqrt(n)), which makes the sign agree exactly with the relative
    belief ratio's position relative to 1.
    """
    a = spec.n * spec.tau_star_sq / spec.sigma0_sq
    z = math.sqrt(spec.n) * abs(xbar - mu0) / math.sqrt(spec.sigma0_sq)
    u_sq = spec.n * (xbar - spec.mu_star) ** 2 / spec.sigma0_sq
    w = math.sqrt(math.log1p(a) + u_sq / (1.0 + a))
    return 2.0 * (1.0 - float(norm_cdf(z))) - 2.0 * (1.0 - float(norm_cdf(w)))


def _image(lam: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """``lam`` applied to an array at once, or value by value where it does
    not map an array to an array of the same shape."""
    try:
        out = np.asarray(lam(values), dtype=float)
        if out.shape == values.shape:
            return out
    except Exception:
        pass
    return np.array([float(lam(v)) for v in values])


def reparam_profile(profile: EvidenceProfile, lam: Callable[[float], float]) -> EvidenceProfile:
    """Push an interval profile through a strictly monotone map.

    Cell contents and ratios are untouched; only the coordinates move, so the
    estimate and the plausible region map elementwise.  Centers are images of
    the old centers, not midpoints of the new cells.  The contents, ratios
    and usable mask are read-only views of the profile's own, reversed for a
    decreasing map.
    """
    if profile.is_labeled:
        raise DomainError("profiles over labeled parameters have no continuous reparameterization")
    edges = _image(lam, profile.edges)
    diffs = np.diff(edges)
    if np.all(diffs > 0.0):
        step = 1
    elif np.all(diffs < 0.0):
        step = -1
    else:
        raise DomainError("the map is not strictly monotone on the grid")
    anchor = profile.anchor_index
    if anchor is not None and step < 0:
        anchor = profile.n_cells - 1 - anchor
    return replace(
        profile,
        prior_content=profile.prior_content[::step],
        posterior_content=profile.posterior_content[::step],
        rb=profile.rb[::step],
        usable=profile.usable[::step],
        bundle_digest=profile.bundle_digest + "|reparameterized",
        edges=edges[::step],
        centers=_image(lam, profile.centers)[::step],
        anchor_index=anchor,
    )
