"""Exact evidence calculus on finite probability spaces.

A :class:`FiniteProbSpace` holds labeled atoms with their probabilities.
Observing an event changes the probability of every other event, and the
direction and size of that change is what these functions quantify: the
relative belief ratio of ``a`` given ``c`` is ``P(a|c)/P(a)``, with values
above 1 meaning the observation is evidence in favor of ``a`` and values
below 1 evidence against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, _real_arg

WEIGHT_TOL = 1e-12


class Verdict(enum.Enum):
    FAVOR = "favor"
    AGAINST = "against"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class EvidenceVerdict:
    """Direction of the evidence together with the ratio that produced it."""

    kind: Verdict
    rb: float

    def __post_init__(self):
        if not (self.rb >= 0.0):
            raise DomainError(f"relative belief ratio must be nonnegative, got {self.rb}")

    @classmethod
    def from_rb(cls, rb: float) -> "EvidenceVerdict":
        # The trichotomy is strict: a ratio of exactly 1.0 is neutral.
        if rb > 1.0:
            kind = Verdict.FAVOR
        elif rb < 1.0:
            kind = Verdict.AGAINST
        else:
            kind = Verdict.NEUTRAL
        return cls(kind=kind, rb=rb)


@dataclass(frozen=True)
class Event:
    """A subset of a space's outcome labels."""

    members: frozenset

    def __init__(self, members: Iterable[str]):
        object.__setattr__(self, "members", frozenset(members))

    def __len__(self):
        return len(self.members)


class FiniteProbSpace:
    """Labeled atoms with probability weights summing to one.

    Weights are plain doubles; the sum is validated to within ``WEIGHT_TOL``
    and probabilities of events are sums of atom weights, never renormalized.
    """

    def __init__(self, outcomes: Iterable[str], weights: Iterable[float]):
        outcomes = tuple(outcomes)
        weights = tuple(_real_arg(w, "atom weight") for w in weights)
        if len(outcomes) != len(weights):
            raise DomainError("outcomes and weights must have equal length")
        if len(set(outcomes)) != len(outcomes):
            raise DomainError("outcome labels must be unique")
        if not all(0.0 <= w <= 1.0 for w in weights):
            raise DomainError("atom weights must lie in [0, 1]")
        total = math.fsum(weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise DomainError(f"atom weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
        self.outcomes = outcomes
        self.weights = weights
        self._weight_of = dict(zip(outcomes, weights))

    def event(self, members: Iterable[str]) -> Event:
        ev = Event(members)
        self._check_members(ev)
        return ev

    def _check_members(self, event: Event) -> None:
        unknown = event.members - set(self.outcomes)
        if unknown:
            raise DomainError(f"event references unknown outcomes: {sorted(unknown)}")

    def prob(self, event: Event) -> float:
        self._check_members(event)
        return math.fsum(self._weight_of[o] for o in self.outcomes if o in event.members)

    def complement(self, event: Event) -> Event:
        self._check_members(event)
        return Event(set(self.outcomes) - event.members)

    def intersect(self, a: Event, b: Event) -> Event:
        return Event(a.members & b.members)

    def union(self, a: Event, b: Event) -> Event:
        return Event(a.members | b.members)


def _require_positive(space: FiniteProbSpace, event: Event, name: str) -> float:
    p = space.prob(event)
    if p <= 0.0:
        raise DomainError(f"event {name!r} has zero probability")
    return p


def rb_event(space: FiniteProbSpace, a: Event, c: Event) -> float:
    """Relative belief ratio of ``a`` after observing ``c``: P(a|c)/P(a).

    Computed as the single ratio P(a and c) / (P(a) P(c)), which makes the
    symmetry rb(a|c) == rb(c|a) hold exactly.
    """
    pa = _require_positive(space, a, "a")
    pc = _require_positive(space, c, "c")
    return space.prob(space.intersect(a, c)) / (pa * pc)


def verdict(space: FiniteProbSpace, a: Event, c: Event) -> EvidenceVerdict:
    return EvidenceVerdict.from_rb(rb_event(space, a, c))


def bayes_factor_event(space: FiniteProbSpace, a: Event, c: Event) -> float:
    """Bayes factor of ``a`` given ``c``: rb(a|c) / rb(not-a|c).

    Requires 0 < P(a) < 1 so the complement is nondegenerate.  Returns
    ``inf`` when c rules the complement out entirely.
    """
    pa = _require_positive(space, a, "a")
    if pa >= 1.0:
        raise DomainError("event 'a' has probability 1; its complement is degenerate")
    _require_positive(space, c, "c")
    rb_a = rb_event(space, a, c)
    rb_comp = rb_event(space, space.complement(a), c)
    if rb_comp == 0.0:
        return math.inf
    return rb_a / rb_comp


@dataclass(frozen=True)
class UnionDecomposition:
    """How evidence for a disjoint union splits across its parts.

    ``rb_union`` is the directly computed ratio for ``a | b``;
    ``threshold`` is the largest conditional share P(a | a or b) at which
    evidence in favor of ``a`` can coexist with evidence against the union
    (undefined, NaN, when rb_a == rb_b).  ``decomposition_holds`` says
    whether ``rb_union`` is the share-weighted average of ``rb_a`` and
    ``rb_b`` to within ``WEIGHT_TOL``, relative.
    """

    rb_union: float
    rb_a: float
    rb_b: float
    threshold: float
    decomposition_holds: bool


def union_incoherence(space: FiniteProbSpace, a: Event, b: Event, c: Event) -> UnionDecomposition:
    """Decompose rb(a|b|c) over the disjoint parts and report the
    share threshold below which the union can show evidence against even
    though ``a`` shows evidence in favor."""
    if a.members & b.members:
        raise DomainError("events 'a' and 'b' must be disjoint")
    pa = _require_positive(space, a, "a")
    pb = _require_positive(space, b, "b")
    _require_positive(space, c, "c")

    union = space.union(a, b)
    rb_union = rb_event(space, union, c)
    rb_a = rb_event(space, a, c)
    rb_b = rb_event(space, b, c)

    p_a_given_union = pa / (pa + pb)
    p_b_given_union = pb / (pa + pb)
    averaged = rb_a * p_a_given_union + rb_b * p_b_given_union
    holds = abs(rb_union - averaged) <= WEIGHT_TOL * max(1.0, abs(rb_union))

    if rb_a != rb_b:
        threshold = (1.0 - rb_b) / (rb_a - rb_b)
    else:
        threshold = math.nan

    return UnionDecomposition(
        rb_union=rb_union,
        rb_a=rb_a,
        rb_b=rb_b,
        threshold=threshold,
        decomposition_holds=holds,
    )
