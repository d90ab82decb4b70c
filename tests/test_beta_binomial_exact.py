"""The exact beta-binomial estimation biases, checked two ways.

``BetaBinomialBundle`` takes its averages and its supremum from the rates
where a count's point ratio crosses 1 (its breakpoints).  Each functional is
checked against an independent value: the scalar ``oracle.BetaBinomialOracle``
(``brentq`` roots, ``quad`` per piece) within 1e-9 over the model's domain,
and ``perfbench/reference.BetaBinomial`` within 1e-6 on the benchmark's domain
(imported read-only, as ``tests/test_bench_counts.py`` does).  Each average is
also checked against the bundle's own draws at n_sim 20k within 3 standard
errors.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import BetaBinomialOracle
from relbelief import DomainError, McConfig, estimation_bias, make_beta_binomial

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reference():
    """``perfbench/reference.py``, imported without writing bytecode there."""
    sys.path.append(str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import reference
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return reference


def _exact(n, alpha, beta, delta, boundary_only):
    report = estimation_bias(make_beta_binomial(n, alpha, beta), delta, method="exact", boundary_only=boundary_only)
    assert report.method == "Exact"
    return report


@st.composite
def specs(draw):
    return (draw(st.integers(1, 60)), draw(st.floats(0.2, 100.0)), draw(st.floats(0.2, 100.0)),
            draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)), draw(st.booleans()))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spec=specs())
def test_the_exact_rule_matches_a_scalar_oracle(spec):
    n, alpha, beta, delta, boundary_only = spec
    report = _exact(*spec)
    oracle = BetaBinomialOracle(n, alpha, beta)
    assert report.avg_bias_against == pytest.approx(oracle.avg_bias_against(), rel=0.0, abs=1e-9)
    assert report.sup_bias_against == pytest.approx(oracle.sup_bias_against(), rel=0.0, abs=1e-9)
    assert report.avg_bias_in_favor == pytest.approx(oracle.avg_bias_in_favor(delta, boundary_only), rel=0.0, abs=1e-9)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.sampled_from([20, 30, 40]), alpha=st.floats(3.0, 6.0), beta=st.floats(3.0, 6.0),
       delta=st.floats(0.1, 0.15))
def test_the_exact_rule_matches_the_benchmark_reference(n, alpha, beta, delta):
    report = _exact(n, alpha, beta, delta, True)
    ref = _reference().BetaBinomial({"n": n, "alpha": alpha, "beta": beta})
    assert report.avg_bias_against == pytest.approx(ref.avg_bias_against(), rel=0.0, abs=1e-6)
    assert report.sup_bias_against == pytest.approx(ref.sup_bias_against(), rel=0.0, abs=1e-6)
    assert report.avg_bias_in_favor == pytest.approx(ref.avg_bias_in_favor(delta), rel=0.0, abs=1e-6)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_the_exact_averages_agree_with_draws(spec, seed):
    """Within 3 standard errors of the share of 20k prior-predictive draws
    whose ratio at the true rate is at most 1, and of the mean of the largest
    favor probability over 20k prior draws of the rate."""
    n, alpha, beta, delta, boundary_only = spec
    bundle = make_beta_binomial(n, alpha, beta)
    report = _exact(*spec)
    n_sim, rng = 20_000, np.random.default_rng(seed)
    # a beta draw can round to 0 or 1, where no ratio is defined: the limit
    # there is read one float inside (CHANGES.md, FOUND)
    theta = np.clip(rng.beta(alpha, beta, n_sim), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    fails = bundle.log_rb(theta, rng.binomial(n, theta)) <= 0.0
    se = max(math.sqrt(report.avg_bias_against * (1.0 - report.avg_bias_against) / n_sim), 1.0 / n_sim)
    assert abs(fails.mean() - report.avg_bias_against) <= 3.0 * se
    favor = bundle.favor_sup(delta, None, boundary_only)(theta)
    assert abs(favor.mean() - report.avg_bias_in_favor) <= 3.0 * max(favor.std(ddof=1) / math.sqrt(n_sim), 1.0 / n_sim)


def test_every_count_has_one_favor_interval_and_the_ends_rise():
    """Every count is in favor on one interval of rates, and both ends rise
    with the count, so the counts in favor between breakpoints are read off
    two sorted arrays; each end is a root of its count's log ratio."""
    from scipy import special

    n, alpha, beta = 30, 0.7, 12.0
    lo, hi, tail = make_beta_binomial(n, alpha, beta)._breakpoints
    assert lo[0] == 0.0 and hi[-1] == 1.0 and np.all(lo < hi)
    assert np.all(np.diff(lo) > 0.0) and np.all(np.diff(hi) > 0.0)
    assert np.allclose(1.0 - hi, tail, rtol=0.0, atol=1e-15)
    s = np.arange(n + 1)
    c = special.betaln(alpha, beta) - special.betaln(alpha + s, beta + n - s)
    # each right end in 1 - rate, where it keeps its digits near 1
    assert np.all(np.abs(s[1:] * np.log(lo[1:]) + (n - s[1:]) * np.log1p(-lo[1:]) + c[1:]) < 1e-12)
    assert np.all(np.abs(s[:-1] * np.log1p(-tail[:-1]) + (n - s[:-1]) * np.log(tail[:-1]) + c[:-1]) < 1e-12)


def test_a_grid_estimation_is_refused_under_exact_and_drawn_under_mc():
    from relbelief import Discretization

    bundle, disc = make_beta_binomial(12, 2.0, 3.0), Discretization(delta=0.05)
    for method in ("auto", "exact"):
        with pytest.raises(DomainError, match="discretization.*'mc'"):
            estimation_bias(bundle, 0.15, disc=disc, method=method)
    report = estimation_bias(bundle, 0.15, disc=disc, mc=McConfig(n_sim=2000, seed=2), method="mc")
    assert report.method == "MonteCarlo" and report.se_avg_against > 0.0
