"""Event-level evidence calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    DomainError,
    Event,
    FiniteProbSpace,
    Verdict,
    bayes_factor_event,
    rb_event,
    union_incoherence,
    verdict,
)


def prosecutor_space(n=1000, m=10):
    """Uniform population; atoms 0..m-1 carry the trait, atom 0 is guilty."""
    labels = [f"person{i}" for i in range(n)]
    space = FiniteProbSpace(labels, [1.0 / n] * n)
    guilty = space.event(["person0"])
    trait = space.event(labels[:m])
    return space, guilty, trait


def test_prosecutor_rb_is_population_over_carriers():
    space, guilty, trait = prosecutor_space()
    assert rb_event(space, guilty, trait) == pytest.approx(100.0, abs=1e-12)
    assert verdict(space, guilty, trait).kind is Verdict.FAVOR


def test_prosecutor_not_guilty_shows_evidence_against():
    # computed from first principles: ((m-1)/m) / ((N-1)/N)
    space, guilty, trait = prosecutor_space()
    not_guilty = space.complement(guilty)
    rb = rb_event(space, not_guilty, trait)
    assert rb == pytest.approx((9 / 10) / (999 / 1000), abs=1e-12)
    assert rb < 1.0


def test_prosecutor_bayes_factor():
    space, guilty, trait = prosecutor_space()
    bf = bayes_factor_event(space, guilty, trait)
    assert bf == pytest.approx(111.0, abs=1e-9)


def test_rb_of_event_given_itself_is_inverse_probability():
    space = FiniteProbSpace(["a", "b", "c", "d"], [0.25, 0.25, 0.25, 0.25])
    ev = space.event(["a", "b"])
    assert rb_event(space, ev, ev) == pytest.approx(1 / 0.5, abs=1e-15)


def test_independent_events_are_neutral():
    # binary-exact weights so the ratio is exactly 1.0
    labels = [f"{i}{j}" for i in "01" for j in "01"]
    space = FiniteProbSpace(labels, [0.25] * 4)
    a = space.event(["00", "01"])
    c = space.event(["00", "10"])
    assert rb_event(space, a, c) == 1.0
    assert verdict(space, a, c).kind is Verdict.NEUTRAL
    assert bayes_factor_event(space, a, c) == 1.0


def test_bayes_factor_agrees_with_rb_on_direction():
    rng = np.random.default_rng(11)
    for _ in range(200):
        space, random_event = _random_space_and_events(rng)
        a, c = random_event(), random_event()
        if space.prob(a) >= 1.0:
            continue
        rb = rb_event(space, a, c)
        bf = bayes_factor_event(space, a, c)
        if rb > 1.0:
            assert bf > 1.0
        elif rb < 1.0:
            assert bf < 1.0
        else:
            assert bf == 1.0


def test_zero_probability_events_are_rejected():
    space = FiniteProbSpace(["a", "b", "c"], [0.5, 0.5, 0.0])
    with pytest.raises(DomainError, match="'c'"):
        rb_event(space, space.event(["a"]), space.event(["c"]))
    with pytest.raises(DomainError, match="'a'"):
        rb_event(space, space.event(["c"]), space.event(["a"]))
    with pytest.raises(DomainError, match="degenerate"):
        bayes_factor_event(space, space.event(["a", "b", "c"]), space.event(["a"]))


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
def test_space_refuses_non_finite_weights(weight):
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        FiniteProbSpace(["a", "b", "c"], [weight, 0.5, 0.5])


def test_space_validation():
    with pytest.raises(DomainError, match="sum to 1"):
        FiniteProbSpace(["a", "b"], [0.6, 0.6])
    with pytest.raises(DomainError, match="unique"):
        FiniteProbSpace(["a", "a"], [0.5, 0.5])
    with pytest.raises(DomainError, match="outcomes and weights must have equal length"):
        FiniteProbSpace(["a", "b"], [1.0])
    assert len(FiniteProbSpace(["a", "b"], [0.5, 0.5]).event(["a", "b", "a"])) == 2  # a set of labels
    with pytest.raises(DomainError, match="unknown outcomes"):
        space = FiniteProbSpace(["a", "b"], [0.5, 0.5])
        space.prob(Event(["zzz"]))


def _random_space_and_events(rng, n_atoms=8):
    weights = rng.uniform(0.05, 1.0, size=n_atoms)
    weights = weights / weights.sum()
    labels = [f"w{i}" for i in range(n_atoms)]
    space = FiniteProbSpace(labels, weights)

    def random_event():
        size = int(rng.integers(1, n_atoms))
        members = rng.choice(n_atoms, size=size, replace=False)
        return space.event([labels[i] for i in members])

    return space, random_event


def test_symmetry_and_complement_flip_on_randomized_triples():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        space, random_event = _random_space_and_events(rng)
        a, c = random_event(), random_event()
        rb_ac = rb_event(space, a, c)
        rb_ca = rb_event(space, c, a)
        assert abs(rb_ac - rb_ca) <= 1e-12 * max(1.0, rb_ac)
        comp = space.complement(a)
        if space.prob(comp) > 0.0:
            rb_comp = rb_event(space, comp, c)
            if rb_ac > 1.0:
                assert rb_comp < 1.0
            elif rb_ac < 1.0:
                assert rb_comp > 1.0
            else:
                assert rb_comp == 1.0


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=1, max_value=50), min_size=4, max_size=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_averaging_identity_over_partitions(weights, seed):
    # rb of an event is the conditional-prior-weighted average of the rb of
    # the cells of any partition of it
    total = sum(weights)
    labels = [f"u{i}" for i in range(len(weights))]
    space = FiniteProbSpace(labels, [w / total for w in weights])
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, len(weights) + 1))
    members = [labels[i] for i in rng.choice(len(weights), size=size, replace=False)]
    a = space.event(members)
    c = space.event([labels[i] for i in rng.choice(len(weights), size=2, replace=False)])
    if space.prob(space.intersect(a, c)) == 0.0 and space.prob(c) == 0.0:
        return
    rb_whole = rb_event(space, a, c)
    pa = space.prob(a)
    acc = 0.0
    for lab in members:
        atom = space.event([lab])
        acc += rb_event(space, atom, c) * space.prob(atom) / pa
    assert acc == pytest.approx(rb_whole, abs=1e-12, rel=1e-12)


def test_union_trait_construction():
    # trait exists in the union only inside a: rb_union = P(a|a|b)/P(c)
    labels = ["a1", "a2", "b1", "b2", "b3", "rest"]
    space = FiniteProbSpace(labels, [0.05, 0.05, 0.1, 0.2, 0.3, 0.3])
    a = space.event(["a1", "a2"])
    b = space.event(["b1", "b2", "b3"])
    c = space.event(["a1", "a2", "rest"])  # the trait: hits a and the outside, never b
    out = union_incoherence(space, a, b, c)
    pa = space.prob(a)
    pb = space.prob(b)
    pc = space.prob(c)
    assert out.rb_b == 0.0
    assert out.rb_union == pytest.approx((pa / (pa + pb)) / pc, rel=1e-12)
    assert out.decomposition_holds
    # evidence against the union exactly when the within-union trait rate
    # is below the population trait rate
    assert (out.rb_union < 1.0) == (pa / (pa + pb) < pc)


def test_union_conditioning_on_a_itself():
    labels = ["a1", "b1", "b2", "rest"]
    space = FiniteProbSpace(labels, [0.2, 0.3, 0.1, 0.4])
    a = space.event(["a1"])
    b = space.event(["b1", "b2"])
    out = union_incoherence(space, a, b, a)
    assert out.rb_b == 0.0
    pa = space.prob(a)
    pab = pa + space.prob(b)
    assert out.rb_union == pytest.approx((pa / pab) / pa, rel=1e-12)
    assert out.decomposition_holds


def test_union_requires_disjoint_parts():
    space = FiniteProbSpace(["a", "b", "c"], [0.3, 0.3, 0.4])
    with pytest.raises(DomainError, match="disjoint"):
        union_incoherence(space, space.event(["a", "b"]), space.event(["b"]), space.event(["c"]))


def test_incoherence_gate_on_randomized_spaces():
    # with rb_a > 1: the union shows evidence against exactly when rb_b < 1
    # and the share of a in the union is below the threshold
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(500):
        weights = rng.uniform(0.02, 1.0, size=6)
        weights = weights / weights.sum()
        labels = [f"z{i}" for i in range(6)]
        space = FiniteProbSpace(labels, weights)
        idx = rng.permutation(6)
        a = space.event([labels[i] for i in idx[:2]])
        b = space.event([labels[i] for i in idx[2:4]])
        c_size = int(rng.integers(1, 6))
        c = space.event([labels[i] for i in rng.choice(6, size=c_size, replace=False)])
        out = union_incoherence(space, a, b, c)
        if out.rb_a <= 1.0:
            continue
        checked += 1
        p_share = space.prob(a) / (space.prob(a) + space.prob(b))
        expected = out.rb_b < 1.0 and p_share < out.threshold
        assert (out.rb_union < 1.0) == expected
        assert out.decomposition_holds
    assert checked > 50
