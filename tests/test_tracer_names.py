"""Every library name the benchmark's layer tracer wraps still exists, and
every bias component it counts carries the attributes it reads.

``perfbench/tracer.py`` patches functions and bundle methods by name from
outside the package, so renaming or inlining one of them breaks the traced
benchmark; it reads ``.method`` and ``.fallback`` of every component that
the functions in its ``BIAS_COMPONENT_FUNCTIONS`` return.  The tables are
read from that file's source, so the tracer is neither imported nor
installed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import relbelief.bias
import relbelief.models
from relbelief.bias import BiasComponent, McConfig, design_sample_size, hypothesis_bias
from relbelief.checking import conflict_check
from relbelief.models import (
    BetaBinomialBundle, FiniteBundle, FiniteModelSpec, LocationNormalSpec, make_beta_binomial, make_finite,
    make_location_normal,
)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tables():
    tables = {}
    names = ("FUNCTIONS", "METHODS", "BIAS_COMPONENT_FUNCTIONS")
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in names:
                tables[node.targets[0].id] = ast.literal_eval(node.value)
    return tuple(tables[name] for name in names)


FUNCTIONS, METHODS, BIAS_COMPONENT_FUNCTIONS = _tables()


@pytest.mark.parametrize("module, attr, span", FUNCTIONS)
def test_traced_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"relbelief.{module}"), attr))


@pytest.mark.parametrize("cls, attr, span", METHODS)
def test_traced_method_is_defined_on_its_class(cls, attr, span):
    assert callable(vars(getattr(relbelief.models, cls))[attr])


# kind -> (bundle, psi0, delta)
BUNDLES = {
    "location_normal": (
        make_location_normal(LocationNormalSpec(n=10, sigma0_sq=1.0, mu_star=0.0, tau_star_sq=1.0)), 0.0, 0.5,
    ),
    "beta_binomial": (make_beta_binomial(10, 2.0, 3.0), 0.4, 0.1),
    "finite": (
        make_finite(FiniteModelSpec(
            theta_labels=["a", "b", "c"],
            prior=[0.3, 0.3, 0.4],
            likelihood=[[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]],
            x_labels=["x", "y"],
        )),
        "b",
        1.0,
    ),
}

# the positional arguments after the bundle, from its (psi0, delta)
ARGUMENTS = {
    "bias_against_h": lambda psi0, delta: (psi0,),
    "bias_in_favor_h": lambda psi0, delta: (psi0, delta),
    "bias_against_e": lambda psi0, delta: (),
    "bias_in_favor_e": lambda psi0, delta: (delta,),
}


@pytest.mark.parametrize("method", ["auto", "mc"])
@pytest.mark.parametrize("kind", sorted(BUNDLES))
@pytest.mark.parametrize("attr", BIAS_COMPONENT_FUNCTIONS)
def test_traced_bias_components_carry_method_and_fallback(attr, kind, method):
    bundle, psi0, delta = BUNDLES[kind]
    result = getattr(relbelief.bias, attr)(
        bundle, *ARGUMENTS[attr](psi0, delta), mc=McConfig(n_sim=200, seed=1), method=method
    )
    for component in result if isinstance(result, tuple) else (result,):
        assert component.method in ("Exact", "MonteCarlo")
        assert component.fallback is False


def test_fallback_is_no_constructor_argument():
    assert BiasComponent(value=0.1, se=0.0, method="Exact").fallback is False
    with pytest.raises(TypeError):
        BiasComponent(value=0.1, se=0.001, method="MonteCarlo", fallback=True)


@pytest.mark.parametrize("run, calls", [
    (lambda bundle, mc: relbelief.bias.bias_in_favor_h(bundle, "b", 1.0, mc=mc, method="mc"), 2),
    (lambda bundle, mc: conflict_check(bundle, "x", mc=mc, method="mc"), 1),
], ids=["bias_in_favor_h", "conflict_check"])
def test_finite_draws_pass_through_the_traced_sample_joint(monkeypatch, run, calls):
    """The tracer counts ``models.sample_joint`` and ``models.draws`` on the
    class attribute, so every finite draw must go through ``self.sample_joint``:
    one call per alternative of a bias in favor (``a`` and ``c``), one for a
    conflict check."""
    seen = []
    sample_joint = FiniteBundle.sample_joint

    def counted(self, *args, **kwargs):
        result = sample_joint(self, *args, **kwargs)
        seen.append(np.size(result[1]))
        return result

    monkeypatch.setattr(FiniteBundle, "sample_joint", counted)
    run(BUNDLES["finite"][0], McConfig(n_sim=300, seed=1))
    assert seen == [300] * calls


def _hypothesis_bias(bundle, mc):
    """One hypothesis bias, so one evaluated."""
    hypothesis_bias(bundle, 0.4, 0.1, mc=mc, method="mc")
    return 1


def _design_search(bundle, mc):
    """A beta-binomial design search that meets its target at the third
    sample size; the number of hypothesis biases it evaluated."""
    result = design_sample_size(
        lambda n: make_beta_binomial(n, bundle.alpha, bundle.beta), 0.4, 0.1, {"max_bias_in_favor": 0.72},
        [5, 10, 20, 40], mc=mc, method="mc",
    )
    return len(result.evaluated)


@pytest.mark.parametrize("run", [_hypothesis_bias, _design_search], ids=["hypothesis_bias", "design_sample_size"])
def test_beta_binomial_draws_pass_through_the_traced_sample_stat(monkeypatch, run):
    """The tracer counts ``models.sample`` and ``models.draws`` on
    ``BetaBinomialBundle.sample_stat``, so every fixed-rate draw must go
    through it: three calls of n_sim per hypothesis bias (against, and in
    favor at either side), so three per sample size a design search
    evaluates."""
    seen = []
    sample_stat = BetaBinomialBundle.sample_stat

    def counted(self, *args, **kwargs):
        result = sample_stat(self, *args, **kwargs)
        seen.append(np.size(result))
        return result

    monkeypatch.setattr(BetaBinomialBundle, "sample_stat", counted)
    evaluated = run(BUNDLES["beta_binomial"][0], McConfig(n_sim=300, seed=1))
    assert seen == [300] * 3 * evaluated
