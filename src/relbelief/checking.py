"""Prior-data conflict checking.

A prior fails when the true parameter sits in its tails.  The check computes
the probability, under the prior predictive of the minimal sufficient
statistic, of a statistic at least as surprising as the observed one:

    tail_prob = M_T( m_T(t) <= m_T(T(x)) )

Small values flag conflict.  Ties count in the tail.  When the statistic is
generated from the prior predictive itself the tail probability is uniform
on (0, 1), which is what calibrates the default 0.05 threshold.

Each bundle draws its statistic from the prior predictive and computes the
tail on its own ordering of m_T, so one path serves every model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .bias import MONTE_CARLO, McConfig, _resolve_method
from .errors import DomainError
from .models import locnormal_tail_prob
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
    same probability from prior-predictive draws of the statistic.
    """
    if not (0.0 < threshold < 1.0):
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    sampled = _resolve_method(method) == MONTE_CARLO
    t = bundle.reduce_data(data)
    draws = None
    if sampled:
        mc = mc or McConfig()
        draws = bundle.sample_predictive(substream(mc.seed, "conflict-check"), mc.n_sim)
    tail = min(bundle.predictive_tail(t, draws), 1.0)
    verdict = ConflictVerdict.CONFLICT if tail < threshold else ConflictVerdict.NO_CONFLICT
    return ConflictReport(tail_prob=tail, t_obs=bundle.stat_label(t), threshold=threshold, verdict=verdict)
