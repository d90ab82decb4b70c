"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions and bundle methods of each
relbelief module.  A module function is replaced wherever the same object is
bound, so ``from .bias import hypothesis_bias`` in ``relbelief.cli`` is
traced as well as ``relbelief.bias.hypothesis_bias``; methods are replaced
on their class.  Every call records a span (id, parent id, name, job, start,
end) in memory; ``finish`` writes the spans out and reduces them to the
per-layer metrics.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

import numpy as np

# (module, attribute, span name) for module-level functions.  hypothesis_bias
# and estimation_bias get no metric of their own; their spans keep their own
# time in bias.self_s instead of in the caller's self time.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("evidence", "rb_profile", "evidence.rb_profile"),
    ("evidence", "estimate", "evidence.estimate"),
    ("evidence", "assess", "evidence.assess"),
    ("checking", "conflict_check", "checking.conflict_check"),
    ("models", "make_location_normal", "models.build"),
    ("models", "make_beta_binomial", "models.build"),
    ("models", "make_finite", "models.build"),
    ("models", "normal_interval_prob", "models.interval_prob"),
    ("models", "beta_interval_prob", "models.interval_prob"),
    ("rng", "substream", "rng.substream"),
    ("bias", "favor_prob_locnormal", "bias.favor_prob_locnormal"),
    ("bias", "bias_against_h", "bias.bias_against_h"),
    ("bias", "bias_in_favor_h", "bias.bias_in_favor_h"),
    ("bias", "hypothesis_bias", "bias.hypothesis_bias"),
    ("bias", "bias_against_e", "bias.bias_against_e"),
    ("bias", "bias_in_favor_e", "bias.bias_in_favor_e"),
    ("bias", "estimation_bias", "bias.estimation_bias"),
    ("bias", "design_sample_size", "bias.design_sample_size"),
)

# (class, method, span name)
METHODS = (
    ("FiniteModelSpec", "__init__", "models.build"),
    ("FiniteBundle", "rb_psi_table", "models.rb_psi_table"),
    ("FiniteBundle", "predictive_given_psi", "models.predictive_given_psi"),
    ("FiniteBundle", "sample_joint", "models.sample_joint"),
    ("BetaBinomialBundle", "log_sampling_pmf", "models.log_sampling_pmf"),
    ("BetaBinomialBundle", "sample_prior", "models.sample"),
    ("BetaBinomialBundle", "sample_stat", "models.sample"),
    ("LocationNormalBundle", "sample_prior", "models.sample"),
    ("LocationNormalBundle", "sample_stat", "models.sample"),
)

BIAS_COMPONENT_FUNCTIONS = ("bias_against_h", "bias_in_favor_h", "bias_against_e", "bias_in_favor_e")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, name, job, start, end, outermost of its name]
        self.counts = collections.Counter()
        self.job = -1
        self._stack = []
        self._depth = collections.Counter()

    def wrap(self, name, fn, after=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, self.job, time.perf_counter(), 0.0, depth[name] == 0]
            spans.append(rec)
            stack.append(rec[0])
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                depth[name] -= 1
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def install(self):
        import relbelief.cli  # noqa: F401  (imports every traced module)

        pkg = sys.modules["relbelief"]
        modules = [m for n, m in sys.modules.items() if n == "relbelief" or n.startswith("relbelief.")]
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(getattr(pkg, mod_name), attr)
            traced = self.wrap(name, orig, self._after(attr, orig))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        models = pkg.models
        for cls_name, attr, name in METHODS:
            cls = getattr(models, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, orig, self._after(attr, orig)))

    def _after(self, attr, orig):
        counts = self.counts
        if attr == "rb_profile":
            return lambda result, args, kwargs: counts.update({"evidence.rb_profile.cells": result.n_cells})
        if attr in ("sample_prior", "sample_stat"):
            return lambda result, args, kwargs: counts.update({"models.draws": int(np.size(result))})
        if attr == "sample_joint":
            return lambda result, args, kwargs: counts.update({"models.draws": int(np.size(result[1]))})
        if attr in BIAS_COMPONENT_FUNCTIONS:
            signature = inspect.signature(orig)

            def components(result, args, kwargs):
                asked = signature.bind(*args, **kwargs).arguments.get("method", "auto")
                for c in result if isinstance(result, tuple) else (result,):
                    counts["bias.components"] += 1
                    counts["bias.exact"] += c.method == "Exact"
                    counts["bias.substituted"] += c.method == "MonteCarlo" and asked in ("auto", "exact")
                    counts["bias.fallbacks"] += bool(c.fallback)

            return components
        return None

    def finish(self, path):
        """Write the spans to ``path`` and return the per-layer metrics."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# id,parent,name,job,start_ns,end_ns; names: " + " ".join(names) + "\n")
            for sid, parent, name, job, start, end, _ in self.spans:
                fh.write(f"{sid},{parent},{index[name]},{job},{int(start * 1e9)},{int(end * 1e9)}\n")
        return layer_metrics(self.spans, self.counts)


def layer_metrics(spans, counts):
    calls = collections.Counter()
    busy = collections.Counter()
    child = [0.0] * len(spans)
    for sid, parent, name, job, start, end, outer in spans:
        calls[name] += 1
        if outer:
            busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s = collections.Counter()
    for sid, parent, name, job, start, end, outer in spans:
        self_s[name.split(".")[0]] += end - start - child[sid]
    components = counts["bias.components"]
    out = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": self_s["cli"],
        "evidence.rb_profile.busy_s": busy["evidence.rb_profile"],
        "evidence.rb_profile.cells": counts["evidence.rb_profile.cells"],
        "evidence.estimate.busy_s": busy["evidence.estimate"],
        "evidence.assess.busy_s": busy["evidence.assess"],
        "checking.conflict_check.calls": calls["checking.conflict_check"],
        "checking.conflict_check.busy_s": busy["checking.conflict_check"],
        "models.build.busy_s": busy["models.build"],
        "models.draws": counts["models.draws"],
        "bias.self_s": self_s["bias"],
        "bias.components": components,
        "bias.exact_frac": counts["bias.exact"] / components if components else 0.0,
        "bias.substituted": counts["bias.substituted"],
        "bias.fallbacks": counts["bias.fallbacks"],
    }
    for name in (
        "models.interval_prob", "models.rb_psi_table", "models.predictive_given_psi",
        "models.log_sampling_pmf", "rng.substream", "bias.favor_prob_locnormal",
    ):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
    for name in (
        "models.sample", "models.sample_joint", "bias.bias_against_h", "bias.bias_in_favor_h",
        "bias.bias_against_e", "bias.bias_in_favor_e", "bias.design_sample_size",
    ):
        out[f"{name}.busy_s"] = busy[name]
    return out
