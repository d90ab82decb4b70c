"""Prior-data conflict checking.

A prior fails when the true parameter sits in its tails.  The check computes
the probability, under the prior predictive of the minimal sufficient
statistic, of a statistic at least as surprising as the observed one:

    tail_prob = M_T( m_T(t) <= m_T(T(x)) )

Small values flag conflict.  Ties count in the tail.  When the statistic is
generated from the prior predictive itself the tail probability is uniform
on (0, 1), which is what calibrates the default 0.05 threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bias import MONTE_CARLO, McConfig, _resolve_method
from .errors import DomainError
from .models import (
    BetaBinomialBundle,
    FiniteBundle,
    LocationNormalBundle,
    norm_cdf,
)
from .rng import substream

__all__ = ["ConflictVerdict", "ConflictReport", "conflict_check", "locnormal_tail_prob"]

DEFAULT_THRESHOLD = 0.05


class ConflictVerdict(enum.Enum):
    NO_CONFLICT = "no_conflict"
    CONFLICT = "conflict"


@dataclass(frozen=True)
class ConflictReport:
    tail_prob: float
    t_obs: object
    threshold: float
    verdict: ConflictVerdict

    def __post_init__(self):
        if not (0.0 <= self.tail_prob <= 1.0):
            raise DomainError(f"tail probability out of [0, 1]: {self.tail_prob}")


def locnormal_tail_prob(bundle: LocationNormalBundle, xbar: float) -> float:
    """Closed form: the predictive of the mean is normal, so the tail set is
    symmetric around the prior mean."""
    mean, var = bundle.prior_predictive_params()
    z = abs(xbar - mean) / math.sqrt(var)
    return 2.0 * (1.0 - float(norm_cdf(z)))


def conflict_check(
    bundle,
    data,
    threshold: float = DEFAULT_THRESHOLD,
    mc: Optional[McConfig] = None,
    method: str = "auto",
) -> ConflictReport:
    """Check the prior against the observed data.

    Exact for all builtin bundles (closed form for the location-normal,
    enumeration over the finite data spaces); ``method='mc'`` estimates the
    same probability from prior-predictive draws.
    """
    if not (0.0 < threshold < 1.0):
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    sampled = _resolve_method(method) == MONTE_CARLO

    if isinstance(bundle, LocationNormalBundle):
        t_obs = bundle.reduce_data(data)
        if sampled:
            mc = mc or McConfig()
            rng = substream(mc.seed, "conflict-check")
            mean, var = bundle.prior_predictive_params()
            draws = mean + math.sqrt(var) * rng.standard_normal(mc.n_sim)
            # density ordering reduces to distance from the predictive mean
            tail = float(np.mean(np.abs(draws - mean) >= abs(t_obs - mean)))
        else:
            tail = locnormal_tail_prob(bundle, t_obs)
        return _finish(tail, t_obs, threshold)

    if isinstance(bundle, BetaBinomialBundle):
        t_obs = bundle.reduce_data(data)
        log_pred = bundle.log_predictive()
        if sampled:
            mc = mc or McConfig()
            rng = substream(mc.seed, "conflict-check")
            theta = bundle.sample_prior(rng, mc.n_sim)
            draws = bundle.sample_stat(rng, theta)
            tail = float(np.mean(log_pred[draws] <= log_pred[t_obs]))
        else:
            pred = np.exp(log_pred)
            tail = float(pred[log_pred <= log_pred[t_obs]].sum())
        return _finish(min(tail, 1.0), t_obs, threshold)

    if isinstance(bundle, FiniteBundle):
        x_idx = bundle.reduce_data(data)
        pred = bundle.predictive
        if sampled:
            mc = mc or McConfig()
            rng = substream(mc.seed, "conflict-check")
            _, draws = bundle.sample_joint(rng, mc.n_sim)
            tail = float(np.mean(pred[draws] <= pred[x_idx]))
        else:
            tail = float(pred[pred <= pred[x_idx]].sum())
        return _finish(min(tail, 1.0), bundle.x_labels[x_idx], threshold)

    raise DomainError(
        f"bundle type {type(bundle)!r} does not declare a sufficient statistic; "
        "encode the model as a finite table to check it"
    )


def _finish(tail: float, t_obs, threshold: float) -> ConflictReport:
    verdict = ConflictVerdict.CONFLICT if tail < threshold else ConflictVerdict.NO_CONFLICT
    return ConflictReport(tail_prob=tail, t_obs=t_obs, threshold=threshold, verdict=verdict)
