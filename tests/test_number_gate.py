"""One rule for every numeric argument: a real number is a Python or numpy
int or float, never a bool or a string, finite and inside its bounds; a
whole number is also an int or a float with no fraction.  Anything else is
a ``DomainError`` naming the argument, from the library and the CLI alike."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relbelief import (
    Discretization,
    DomainError,
    FiniteModelSpec,
    FiniteProbSpace,
    LocationNormalSpec,
    McConfig,
    assess,
    bias_against_e,
    bias_against_h,
    bias_in_favor_e,
    bias_in_favor_h,
    conflict_check,
    design_sample_size,
    estimate,
    hypothesis_bias,
    make_beta_binomial,
    make_finite,
    make_location_normal,
    rb_locnormal_exact,
    rb_profile,
    tail_difference_locnormal,
)
from relbelief.errors import _real_arg, _whole_arg

SPEC = dict(n=4, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)
LOCNORMAL = make_location_normal(LocationNormalSpec(**SPEC))
BETABINOMIAL = make_beta_binomial(4, 1.0, 1.0)
# integer labels, each of which a bool compares equal to
FINITE = make_finite(FiniteModelSpec([0, 1], [0.5, 0.5], [[0.8, 0.2], [0.3, 0.7]], [0, 1]))
PROFILE = rb_profile(LOCNORMAL, 0.3, Discretization(delta=0.1))
FINITE_PROFILE = rb_profile(FINITE, 0)
MC = McConfig(n_sim=50, seed=1)


def family(n):
    return make_location_normal(LocationNormalSpec(**dict(SPEC, n=n)))


# Every public entry that takes a number, with one numeric slot filled by
# the value under test and every other argument valid.
ENTRIES = {
    "Discretization.delta": lambda v: Discretization(delta=v),
    "Discretization.range lo": lambda v: Discretization(delta=0.1, range=(v, 1.0)),
    "Discretization.range hi": lambda v: Discretization(delta=0.1, range=(-1.0, v)),
    "Discretization.anchor": lambda v: Discretization(delta=0.1, anchor=v),
    "LocationNormalSpec.n": lambda v: LocationNormalSpec(**dict(SPEC, n=v)),
    "LocationNormalSpec.sigma0_sq": lambda v: LocationNormalSpec(**dict(SPEC, sigma0_sq=v)),
    "LocationNormalSpec.mu_star": lambda v: LocationNormalSpec(**dict(SPEC, mu_star=v)),
    "LocationNormalSpec.tau_star_sq": lambda v: LocationNormalSpec(**dict(SPEC, tau_star_sq=v)),
    "make_beta_binomial.n": lambda v: make_beta_binomial(v, 1.0, 1.0),
    "make_beta_binomial.alpha": lambda v: make_beta_binomial(3, v, 1.0),
    "make_beta_binomial.beta": lambda v: make_beta_binomial(3, 1.0, v),
    "McConfig.n_sim": lambda v: McConfig(n_sim=v),
    "McConfig.seed": lambda v: McConfig(seed=v),
    "location_normal.reduce_data": LOCNORMAL.reduce_data,
    "location_normal.reduce_data n": lambda v: LOCNORMAL.reduce_data((v, 0.3)),
    "location_normal.reduce_data mean": lambda v: LOCNORMAL.reduce_data((4, v)),
    "beta_binomial.reduce_data": BETABINOMIAL.reduce_data,
    "beta_binomial.reduce_data count": lambda v: BETABINOMIAL.reduce_data((4, v)),
    "finite.reduce_data": FINITE.reduce_data,
    "bias_against_h location_normal": lambda v: bias_against_h(LOCNORMAL, v),
    "bias_against_h beta_binomial": lambda v: bias_against_h(BETABINOMIAL, v),
    "bias_against_h finite": lambda v: bias_against_h(FINITE, v),
    "bias_in_favor_h delta": lambda v: bias_in_favor_h(LOCNORMAL, 0.3, v),
    "hypothesis_bias mc": lambda v: hypothesis_bias(BETABINOMIAL, v, 0.2, mc=MC, method="mc"),
    "bias_in_favor_e delta": lambda v: bias_in_favor_e(BETABINOMIAL, v, mc=MC),
    "bias_in_favor_e location_normal delta": lambda v: bias_in_favor_e(LOCNORMAL, v),
    "design_sample_size target": lambda v: design_sample_size(family, 0.0, 0.5, {"max_bias_against": v}, [5]),
    "design_sample_size n_grid": lambda v: design_sample_size(family, 0.0, 0.5, {"max_bias_against": 0.9}, [v]),
    "conflict_check data": lambda v: conflict_check(LOCNORMAL, v),
    "conflict_check threshold": lambda v: conflict_check(LOCNORMAL, 0.3, threshold=v),
    "estimate gamma": lambda v: estimate(PROFILE, gamma=v),
    "assess": lambda v: assess(PROFILE, v),
    "assess finite": lambda v: assess(FINITE_PROFILE, v),
    "FiniteProbSpace weight": lambda v: FiniteProbSpace(["a", "b"], [v, 0.5]),
    "rb_locnormal_exact": lambda v: rb_locnormal_exact(LOCNORMAL.spec, v, 0.0),
    "tail_difference_locnormal": lambda v: tail_difference_locnormal(LOCNORMAL.spec, 0.3, v),
}

# Values a caller may pass as a number: numeric strings, bools, NaN, the
# infinities, ints beyond the float range, numpy scalars and subnormals,
# among ordinary ints and floats.  Ordinary values stay within 1e6: a
# beta-binomial model allocates arrays of n + 1 counts, and the biases near
# the float limit are pinned below.
ODD = [
    "0.3", "1", "nan", "", True, False, np.bool_(True), np.bool_(False), None, [0.3],
    math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**64, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.float64(math.nan), np.float64(math.inf), np.float64(0.3), np.float32(0.5), np.float32(math.nan),
    np.int64(3), np.uint64(2**64 - 1), np.int8(-1), np.longdouble(0.25),
    0, 1, 2, 3, 4, 0.0, -0.0, 0.3, 2.0, 0.5, 1.0, -1.0,
]
NUMBERS = st.one_of(
    st.sampled_from(ODD),
    st.floats(-1e6, 1e6),
    st.integers(-(10**6), 10**6),
    st.floats(-1e6, 1e6, width=32).map(np.float32),
    st.integers(-(10**6), 10**6).map(np.int64),
)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(entry=st.sampled_from(sorted(ENTRIES)), value=NUMBERS)
def test_every_numeric_argument_returns_or_is_a_domain_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ENTRIES[entry](value)
        except DomainError:
            pass


@pytest.mark.parametrize("value", ["0.3", True, np.bool_(True), None, math.nan, math.inf, [0.3], 2.5])
def test_the_gate_refuses_what_is_no_number_and_names_the_argument(value):
    if value != 2.5:
        with pytest.raises(DomainError, match="^psi0 must be a finite real number, got "):
            _real_arg(value, "psi0")
    with pytest.raises(DomainError, match="^n must be a whole number, got "):
        _whole_arg(value, "n", 0)


def test_the_gate_casts_what_it_takes_and_checks_its_bounds():
    for value in (3, np.int64(3), 3.0, np.float32(3.0)):
        assert type(_real_arg(value, "x")) is float and _real_arg(value, "x") == 3.0
        assert type(_whole_arg(value, "x", 0)) is int and _whole_arg(value, "x", 0) == 3
    assert _real_arg(5e-324, "x", 0.0) == 5e-324
    with pytest.raises(DomainError, match=r"^x must lie in \(0\.0, 1\.0\), got 1\.0$"):
        _real_arg(1.0, "x", 0.0, 1.0)
    with pytest.raises(DomainError, match=r"^x must be a whole number, got 2\.5$"):
        _whole_arg(2.5, "x", 0)
    with pytest.raises(DomainError, match=r"^x must be a whole number >= 2, got 1$"):
        _whole_arg(1, "x", 2)
    with pytest.raises(DomainError, match=r"^x must be a whole number in \[0, 4\), got 4$"):
        _whole_arg(4, "x", 0, 4)
    with pytest.raises(DomainError, match="^x must be a finite real number, got an integer of 1329 bits$"):
        _real_arg(10**400, "x")


# -- each of these was taken, or raised another error, before the one gate ----


@pytest.mark.parametrize(
    "call",
    [
        lambda: McConfig(seed=True),  # ran seed 1
        lambda: LocationNormalSpec(**dict(SPEC, n=True)),
        lambda: make_beta_binomial(True, 1.0, 1.0),
        lambda: LocationNormalSpec(**dict(SPEC, mu_star=True)),
        lambda: make_beta_binomial(3, True, 1.0),
        lambda: Discretization(delta=True),
        lambda: LOCNORMAL.reduce_data(True),
        lambda: BETABINOMIAL.reduce_data(True),
        lambda: FINITE.reduce_data(True),  # the outcome labelled 1
        lambda: assess(PROFILE, True),  # assessed 1.0
        lambda: bias_against_h(FINITE, True),  # assessed the label 1
        lambda: assess(FINITE_PROFILE, True),
    ],
    ids=["seed", "locnormal-n", "betabinomial-n", "mu_star", "alpha", "delta", "locnormal-data",
         "betabinomial-data", "finite-data", "assess", "finite-bias", "finite-assess"],
)
def test_a_bool_is_no_number(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: assess(PROFILE, "0.3"), "interest value"),  # returned a strength
        (lambda: FiniteProbSpace(["a", "b"], ["0.5", "0.5"]), "atom weight"),  # built
        # these raised TypeError
        (lambda: LocationNormalSpec(**dict(SPEC, sigma0_sq="1")), "sigma0_sq"),
        (lambda: make_beta_binomial(3, "1", 1), "alpha"),
        (lambda: Discretization(delta="0.1"), "delta"),
        (lambda: conflict_check(LOCNORMAL, 0.3, threshold="0.1"), "threshold"),
        (lambda: estimate(PROFILE, gamma="0.5"), "credible level"),
        (lambda: design_sample_size(family, 0.0, 0.5, {"max_bias_against": "0.5"}, [5]), "target max_bias_against"),
    ],
    ids=["assess", "weights", "sigma0_sq", "alpha", "delta", "threshold", "gamma", "target"],
)
def test_a_numeric_string_is_a_domain_error_naming_the_argument(call, named):
    with pytest.raises(DomainError, match=f"^{named} must be a finite real number, got '"):
        call()


def test_nan_is_no_hypothesized_value():
    # assess(profile, nan) returned a strength of 1.6e-11
    with pytest.raises(DomainError, match="^interest value must be a finite real number, got nan$"):
        assess(PROFILE, math.nan)


def test_an_int_beyond_the_float_range_is_a_domain_error():
    # this raised OverflowError
    with pytest.raises(DomainError, match="^mu_star must be a finite real number, got an integer of 1329 bits$"):
        LocationNormalSpec(**dict(SPEC, mu_star=10**400))


def test_a_whole_number_is_one_rule_everywhere():
    # n_sim = 2.0 was refused where a size, a count and every CLI integer
    # field took an integral float
    mc = McConfig(n_sim=2.0, seed=np.uint64(7))
    assert (mc.n_sim, mc.seed) == (2, 7) and type(mc.n_sim) is int and type(mc.seed) is int
    assert design_sample_size(family, 0.0, 0.5, {"max_bias_against": 0.9}, [20.0]).n == 20
    assert BETABINOMIAL.reduce_data(2.0) == 2
    assert LocationNormalSpec(**dict(SPEC, n=4.0)).n == 4
    assert make_beta_binomial(np.int64(4), 1, 2).n == 4


def test_stored_numbers_are_the_cast_values():
    disc = Discretization(delta=np.float64(0.1), range=[np.int64(-1), 2], anchor=0)
    assert (disc.delta, disc.range, disc.anchor) == (0.1, (-1.0, 2.0), 0.0)
    assert all(type(x) is float for x in (disc.delta, *disc.range, disc.anchor))
    spec = LocationNormalSpec(n=np.int64(4), sigma0_sq=1, mu_star=np.float32(0.5), tau_star_sq=2)
    assert [type(getattr(spec, k)) for k in ("n", "sigma0_sq", "mu_star", "tau_star_sq")] == [int, float, float, float]
    assert make_location_normal(spec).digest == "location_normal(n=4,sigma0_sq=1.0,mu_star=0.5,tau_star_sq=2.0)"


def test_a_rate_outside_the_beta_support_is_a_domain_error():
    # under method mc this raised numpy's ValueError from the binomial draws
    for psi0 in (1.05, -0.05, 2):
        for disc in (None, Discretization(delta=0.1)):
            with pytest.raises(DomainError, match=r"^psi0 must lie in \[0\.0, 1\.0\]"):
                hypothesis_bias(BETABINOMIAL, psi0, 0.2, disc=disc, mc=MC, method="mc")
    # the edges of the support keep their cells
    assert hypothesis_bias(BETABINOMIAL, 1.0, 0.2, disc=Discretization(delta=0.1)).bias_in_favor > 0.0


def test_a_numeric_string_is_no_data_mean_or_hypothesis_of_the_closed_forms():
    # both read "0.3" as 0.3, or raised TypeError
    with pytest.raises(DomainError, match="^xbar must be a finite real number"):
        rb_locnormal_exact(LOCNORMAL.spec, "0.3", 0.0)
    with pytest.raises(DomainError, match="^mu0 must be a finite real number"):
        tail_difference_locnormal(LOCNORMAL.spec, 0.3, "0")


# -- numerics the gate lets through but the biases do not yet handle ----------


@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason="overflow near the float limit (CHANGES.md, FOUND)")
@pytest.mark.parametrize(
    "call",
    [
        lambda: bias_against_h(LOCNORMAL, 1e308),
        lambda: bias_in_favor_h(LOCNORMAL, 0.3, 1e308),
        lambda: hypothesis_bias(LOCNORMAL, 0.3, 0.5, disc=Discretization(delta=1e308)),
        lambda: bias_against_e(LOCNORMAL, disc=Discretization(delta=1e308)),
    ],
    ids=["point-at-1e308", "delta-1e308", "cell-1e308", "estimation-cell-1e308"],
)
def test_a_location_normal_bias_near_the_float_limit_warns_nothing(call):
    try:
        call()
    except DomainError:
        pass


@pytest.mark.xfail(strict=True, reason="unconverged quadrature on tiny cells (CHANGES.md, FOUND)")
def test_an_estimation_bias_on_a_tiny_cell_converges():
    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        bias_against_e(LOCNORMAL, disc=Discretization(delta=5e-12))
