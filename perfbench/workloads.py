"""Seeded job generators for the benchmark's three workloads.

A workload is an endless sequence of cycles.  Every cycle holds the same job
kinds in the same proportions, with sizes on fixed ladders (grid cells,
table shapes, n_sim), while everything else -- model parameters, data,
hypotheses, Monte Carlo seeds -- is drawn from the workload seed and the
cycle index.  So two seeds give different inputs of the same cost, and the
run's rates do not depend on where a run happens to stop.

The program only ever sees the generated configs; each job carries its own
output check, built from ``reference`` when the job is generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import special, stats

import checks
import reference as ref

WORKLOADS = ("post_data", "exact_bias", "mc_bias")
TUNING_SEEDS = tuple(range(1, 11))  # the seeds the benchmark was tuned on
HELD_OUT_SEED = 9001  # confirm a claimed gain on this seed; never tune on it

GRID_CELLS = (80, 250, 800, 2500, 8000)  # post_data grid ladder
BB_TRIALS = (20, 30, 40)  # beta-binomial trial counts; cost grows with n
RANGE_MASS = 0.9999  # central prior mass covered by a grid (the CLI default)
REPRODUCE_TARGETS = ("table1", "table2", "table3", "table5", "fig1", "fig3")
DESIGN_GRID = (5, 10, 20, 40, 80)

# sha256 of each `relbelief reproduce TARGET` CSV, recorded at the commit
# that introduced this benchmark.
REPRODUCE_DIGESTS = json.loads((Path(__file__).parent / "reproduce_digests.json").read_text())


@dataclass
class Bundle:
    kind: str
    spec: dict
    key: str

    def __post_init__(self):
        self.json = json.dumps({"kind": self.kind, **self.spec})
        self.model = {"location_normal": ref.LocNormal, "beta_binomial": ref.BetaBinomial, "finite": ref.Finite}[
            self.kind
        ](self.spec)
        self.memo = {}  # reference values shared by the jobs that reuse this bundle


@dataclass
class Job:
    command: str
    bundle: str  # bundle kind, or "-" for reproduce
    method: str  # method the config asks for, or "-"
    bundle_key: str  # which bundle spec the job uses, for the reuse share
    check: Callable[[Path, checks.Outcome], None]
    config: Optional[dict] = None  # every key but the bundle
    bundle_json: Optional[str] = None
    target: Optional[str] = None  # reproduce target
    n_sim: Optional[int] = None
    cells: Optional[int] = None  # grid cells or interest labels of a profile
    mode: str = ""  # bias mode, with "-grid" when the hypothesis sits on a cell

    def argv(self, config_path: Path, out: Path) -> list:
        if self.command == "reproduce":
            return ["reproduce", self.target, "--out", str(out)]
        return [self.command, "--config", str(config_path), "--out", str(out)]

    def config_text(self) -> str:
        return '{"bundle": ' + self.bundle_json + ", " + json.dumps(self.config)[1:]

    def mix_key(self) -> str:
        command = f"{self.command}-{self.mode}" if self.mode else self.command
        return f"{command}/{self.bundle}/{self.method}"


# ---------------------------------------------------------------------------
# random model specs


def _r(x, digits=6):
    return float(round(float(x), digits))


def locnormal_spec(rng, with_n=True, n=None, a=None):
    """Random location-normal parameters.  With ``a``, the data variance is
    set so that n tau*^2 / sigma0^2 = a, which fixes the posterior width
    relative to the prior and with it how many grid cells carry mass."""
    tau_sq = _r(rng.uniform(0.5, 2.0))
    n = int(rng.integers(10, 61)) if n is None else n
    spec = {
        "sigma0_sq": _r(n * tau_sq / a) if a else _r(rng.uniform(0.5, 2.0)),
        "mu_star": _r(rng.normal(0.0, 1.0)),
        "tau_star_sq": tau_sq,
    }
    return {"n": n, **spec} if with_n else spec


def betabinomial_spec(rng, n=None, shape=(1.5, 5.0)):
    """Beta prior shapes from ``shape``; ``n`` trials, or none for a design family."""
    spec = {"alpha": _r(rng.uniform(*shape)), "beta": _r(rng.uniform(*shape))}
    return spec if n is None else {"n": n, **spec}


def finite_spec(rng, n_theta, n_x, n_psi=None):
    """A random table; redrawn until no ratio sits within 1e-9 of 1."""
    while True:
        prior = rng.dirichlet(np.ones(n_theta))
        like = rng.dirichlet(np.ones(n_x), size=n_theta)
        spec = {
            "theta_labels": [f"t{i}" for i in range(n_theta)],
            "prior": (prior / prior.sum()).tolist(),
            "likelihood": (like / like.sum(axis=1, keepdims=True)).tolist(),
            "x_labels": [f"x{i}" for i in range(n_x)],
        }
        if n_psi:
            spec["psi_of_theta"] = [f"g{i % n_psi}" for i in range(n_theta)]
        if not ref.Finite(spec).near_tie():
            return spec


def central_range(bundle):
    tail = (1.0 - RANGE_MASS) / 2.0
    if bundle.kind == "location_normal":
        m = bundle.model
        z = special.ndtri(1.0 - tail)
        return m.m - z * m.tau, m.m + z * m.tau
    m = bundle.model
    return float(stats.beta.ppf(tail, m.a, m.b)), float(stats.beta.isf(tail, m.a, m.b))


def prior_draw(rng, bundle, lo_q=0.01, hi_q=0.99):
    """A parameter value from the central part of the prior."""
    u = rng.uniform(lo_q, hi_q)
    m = bundle.model
    if bundle.kind == "location_normal":
        return _r(m.m + m.tau * special.ndtri(u))
    return _r(stats.beta.ppf(u, m.a, m.b))


def predictive_draw(rng, bundle):
    """Observed data drawn from the prior predictive, as a config 'data' entry."""
    m = bundle.model
    if bundle.kind == "location_normal":
        return {"xbar": _r(rng.normal(m.m, np.sqrt(m.t2 + m.s2 / m.n)))}
    if bundle.kind == "beta_binomial":
        return {"successes": int(rng.binomial(m.n, rng.beta(m.a, m.b)))}
    return {"outcome": m.x_labels[int(rng.choice(m.pred.size, p=m.pred / m.pred.sum()))]}


def _data_value(data):
    return next(iter(data.values()))


def grid_edges(lo, hi, delta, anchor=None):
    """Cell edges of the documented grid rule: cells of width 2*delta from
    lo, the last one cut at hi; with an anchor, aligned so the anchor is a
    cell center and widened outward to whole cells."""
    width = 2.0 * delta
    if anchor is None:
        n = max(1, int(np.ceil((hi - lo) / width - 1e-12)))
        edges = lo + width * np.arange(n + 1)
        edges[-1] = min(edges[-1], hi)
        return edges
    lo, hi = min(lo, anchor - delta), max(hi, anchor + delta)
    left = max(0, int(np.ceil((anchor - delta - lo) / width - 1e-12)))
    e0 = anchor - delta - left * width
    n = max(1, int(np.ceil((hi - e0) / width - 1e-12)))
    return e0 + width * np.arange(n + 1)


def _mc(rng, n_sim):
    return {"n_sim": n_sim, "seed": int(rng.integers(0, 2**31))}


# ---------------------------------------------------------------------------
# post_data: profiles, estimates, assessments and exact conflict checks


def analyze_job(rng, bundle, cells=None):
    if bundle.kind == "finite":
        disc, edges = None, None
    else:
        lo, hi = central_range(bundle)
        delta = (hi - lo) / (2.0 * cells)
        disc = {"delta": delta, "range": [lo, hi]}
        edges = grid_edges(lo, hi, delta)
    while True:
        data = predictive_draw(rng, bundle)
        pr = _profile_ref(bundle, edges, _data_value(data))
        if pr.ambiguous():
            continue
        pl_post = float(pr.post[pr.usable & (pr.rb > 1.0)].sum())
        pr.gamma = float(np.floor(0.8 * pl_post * 1e4) / 1e4) if pl_post > 0.1 else None
        break
    config = {"data": data}
    if disc is not None:
        config["discretization"] = disc
    if pr.gamma is not None:
        config["gamma"] = pr.gamma
    return Job(
        "analyze", bundle.kind, "-", bundle.key, lambda out, o: checks.analyze(out, o, pr),
        config=config, bundle_json=bundle.json, cells=pr.prior.size,
    )


def _profile_ref(bundle, edges, data_value):
    m = bundle.model
    if bundle.kind == "finite":
        x = m.x_labels.index(data_value)
        return checks.ProfileRef(m.prior_psi, m.post_psi[:, x], labels=m.psi_labels)
    prior, post = m.profile(edges, data_value)
    return checks.ProfileRef(prior, post, edges=edges)


def assess_job(rng, bundle, cells=None):
    m = bundle.model
    while True:
        data = predictive_draw(rng, bundle)
        if bundle.kind == "finite":
            psi0 = m.psi_labels[int(rng.choice(np.flatnonzero(m.usable)))]
            config = {"data": data, "psi0": psi0}
            pr = _profile_ref(bundle, None, _data_value(data))
        else:
            lo, hi = central_range(bundle)
            delta = (hi - lo) / (2.0 * cells)
            psi0 = prior_draw(rng, bundle)
            config = {"data": data, "discretization": {"delta": delta, "range": [lo, hi]}, "psi0": psi0}
            pr = _profile_ref(bundle, grid_edges(lo, hi, delta, anchor=psi0), _data_value(data))
        i0 = pr.index_of(psi0)
        if pr.ambiguous() or i0 is None or not pr.usable[i0]:
            continue
        others = np.delete(pr.rb, i0)[np.delete(pr.usable, i0)]
        if np.any(np.abs(others - pr.rb[i0]) <= 1e-9 * pr.rb[i0]):
            continue  # a near tie with the hypothesized cell makes strength ambiguous
        break
    return Job(
        "assess", bundle.kind, "-", bundle.key, lambda out, o: checks.assess(out, o, pr, psi0),
        config=config, bundle_json=bundle.json, cells=pr.prior.size,
    )


def _conflict_ref(bundle, data):
    """Exact tail probability, or None when a near tie makes it ambiguous."""
    m = bundle.model
    value = _data_value(data)
    if bundle.kind == "location_normal":
        return m.conflict_tail(value)
    pred = m.predictive() if bundle.kind == "beta_binomial" else m.pred
    obs = pred[value if bundle.kind == "beta_binomial" else m.x_labels.index(value)]
    if np.any((np.abs(pred - obs) <= 1e-9 * obs) & (pred != obs)) or np.count_nonzero(pred == obs) > 1:
        return None
    return m.conflict_tail(value)


def check_job(rng, bundle, method, n_sim=None):
    while True:
        data = predictive_draw(rng, bundle)
        tail = _conflict_ref(bundle, data)
        if tail is not None and abs(tail - 0.05) > 1e-6:
            break
    config = {"data": data, "method": method}
    if n_sim is not None:
        config["mc"] = _mc(rng, n_sim)
    exact_n = None if method != "mc" else n_sim
    return Job(
        "check", bundle.kind, method, bundle.key, lambda out, o: checks.conflict(out, o, tail, 0.05, exact_n),
        config=config, bundle_json=bundle.json, n_sim=n_sim,
    )


# ---------------------------------------------------------------------------
# bias jobs


def reproduce_job(target):
    digest = REPRODUCE_DIGESTS[target]
    return Job("reproduce", "-", "-", f"reproduce:{target}", lambda out, o: checks.reproduce(out, o, target, digest), target=target)


def bias_h_job(rng, bundle, method, n_sim, cell=None):
    """Hypothesis bias at a value from the prior, optionally on a grid cell."""
    m = bundle.model
    while True:
        if bundle.kind == "finite":
            psi0, delta = m.psi_labels[int(rng.choice(np.flatnonzero(m.usable)))], 1.0
            against, favor = m.bias_against_h(psi0), m.bias_in_favor_h(psi0)
            break
        if bundle.kind == "location_normal":
            psi0, delta = prior_draw(rng, bundle), _r(rng.uniform(0.2, 1.0))
        else:
            psi0, delta = _r(rng.uniform(0.25, 0.75)), _r(rng.uniform(0.1, 0.2))
            if np.any(np.abs(m.log_rb(psi0, cell)) < 1e-9):
                continue  # a count with a ratio of 1 would make the masks ambiguous
        against, favor = float(m.bias_against_h(psi0, cell)), float(m.bias_in_favor_h(psi0, delta, cell))
        break
    config = {"psi0": psi0, "delta": delta, "mode": "hypothesis", "method": method, "mc": _mc(rng, n_sim)}
    if cell is not None:
        config["discretization"] = {"delta": cell}
    return Job(
        "bias", bundle.kind, method, bundle.key, lambda out, o: checks.bias_h(out, o, against, favor, n_sim),
        config=config, bundle_json=bundle.json, n_sim=n_sim, mode="hypothesis" if cell is None else "hypothesis-grid",
    )


def bias_e_job(rng, bundle, delta, method, n_sim):
    """Estimation bias; reference values are memoized on the bundle."""
    m = bundle.model
    key = ("estimation", delta)
    if key not in bundle.memo:
        favor = m.avg_bias_in_favor() if bundle.kind == "finite" else m.avg_bias_in_favor(delta)
        floor = m.grid_sup_floor() if bundle.kind == "beta_binomial" else None
        bundle.memo[key] = (m.avg_bias_against(), m.sup_bias_against(), favor, floor)
    avg, sup, favor, floor = bundle.memo[key]
    finite = bundle.kind == "finite"
    config = {"delta": delta, "mode": "estimation", "method": method, "mc": _mc(rng, n_sim)}
    return Job(
        "bias", bundle.kind, method, bundle.key,
        lambda out, o: checks.bias_e(out, o, avg, sup, favor, n_sim, sup_floor=floor, exact_sup=finite),
        config=config, bundle_json=bundle.json, n_sim=n_sim, mode="estimation",
    )


def design_job(rng, kind, key, n_sim):
    """Sample-size search whose target sits halfway between the exact biases
    in favor at the second and third grid sizes, at least six standard
    errors from each, so the search stops at the third size on any seed."""
    se = 0.5 / np.sqrt(n_sim)
    while True:
        if kind == "location_normal":
            family = locnormal_spec(rng, with_n=False)
            psi0, delta = _r(rng.normal(family["mu_star"], 0.5)), _r(rng.uniform(0.3, 1.0))
            models = {n: ref.LocNormal({"n": n, **family}) for n in DESIGN_GRID}
        else:
            family = betabinomial_spec(rng, shape=(2.0, 6.0))
            psi0, delta = _r(rng.uniform(0.3, 0.7)), _r(rng.uniform(0.1, 0.2))
            models = {n: ref.BetaBinomial({"n": n, **family}) for n in DESIGN_GRID}
            if any(np.any(np.abs(md.log_rb(psi0)) < 1e-9) for md in models.values()):
                continue
        refs = {n: (float(md.bias_against_h(psi0)), float(md.bias_in_favor_h(psi0, delta))) for n, md in models.items()}
        f = [refs[n][1] for n in DESIGN_GRID]
        target = _r(0.5 * (f[1] + f[2]))
        if f[0] > target + 6 * se and f[1] > target + 6 * se and f[2] < target - 6 * se and 0.0 < target < 1.0:
            break
    config = {
        "psi0": psi0, "delta": delta, "targets": {"max_bias_in_favor": target},
        "n_grid": list(DESIGN_GRID), "method": "mc", "mc": _mc(rng, n_sim),
    }
    bundle_json = json.dumps({"kind": kind, **family})
    return Job(
        "design", kind, "mc", key, lambda out, o: checks.design(out, o, refs, target, n_sim),
        config=config, bundle_json=bundle_json, n_sim=n_sim,
    )


# ---------------------------------------------------------------------------
# workloads


class Rotation:
    """Hands out pool entries in turn, starting at a per-cycle offset, so each
    entry serves the same share of jobs whatever the seed."""

    def __init__(self, items, start):
        self.items = items
        self.next = start

    def __call__(self):
        item = self.items[self.next % len(self.items)]
        self.next += 1
        return item


class Workload:
    """Generates the jobs of one workload for one seed, a cycle at a time."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self._id = WORKLOADS.index(name)
        self.pool = getattr(self, f"_pool_{name}")(self._rng(-1))

    def _rng(self, cycle: int):
        return np.random.default_rng([self.seed, self._id, cycle + 1])

    def cycle(self, index: int) -> list:
        return getattr(self, f"_cycle_{self.name}")(self._rng(index), index)

    # post_data: a pool of bundles reused across jobs, fresh data each job.
    # Writing a profile costs more for cells with posterior mass than for
    # empty ones, so the location-normal pool fixes the posterior-to-prior
    # width on a ladder.  p90 falls among the mid-size grid jobs, whose
    # latencies overlap, rather than on the step up to the 8000-cell ones.
    def _pool_post_data(self, rng):
        return {
            "location_normal": [
                Bundle("location_normal", locnormal_spec(rng, n=n, a=a), f"ln{i}")
                for i, (n, a) in enumerate(((12, 6.0), (25, 25.0), (50, 100.0)))
            ],
            "beta_binomial": [
                Bundle("beta_binomial", betabinomial_spec(rng, n), f"bb{i}") for i, n in enumerate(BB_TRIALS)
            ],
            "finite": [Bundle("finite", finite_spec(rng, 60, 150, 20), f"fin{i}") for i in range(2)],
        }

    def _cycle_post_data(self, rng, index):
        pick = {kind: Rotation(bundles, index) for kind, bundles in self.pool.items()}
        jobs = []
        for kind in ("location_normal", "beta_binomial"):
            jobs += [analyze_job(rng, pick[kind](), cells) for cells in GRID_CELLS]
            jobs += [assess_job(rng, pick[kind](), cells) for cells in GRID_CELLS]
        jobs += [analyze_job(rng, pick["finite"]()) for _ in range(2)]
        jobs += [assess_job(rng, pick["finite"]()) for _ in range(2)]
        for kind in ("location_normal", "beta_binomial", "finite"):
            jobs += [check_job(rng, pick[kind](), method) for method in ("auto", "exact")]
        return jobs

    # exact_bias: exact-path bias jobs on a reused pool, plus the reference
    # tables and the two configs that run Monte Carlo although they ask for
    # an exact answer: beta-binomial estimation with method "exact", and
    # location-normal hypotheses on a grid under "auto".  The latter run at
    # n_sim 50k, which puts them just below the four slowest jobs of a cycle,
    # so p90 falls inside that group of equal-cost jobs.
    def _pool_exact_bias(self, rng):
        ln_est = [Bundle("location_normal", locnormal_spec(rng), f"lne{i}") for i in range(2)]
        return {
            "location_normal": [Bundle("location_normal", locnormal_spec(rng), f"ln{i}") for i in range(3)],
            "beta_binomial": [
                Bundle("beta_binomial", betabinomial_spec(rng, n), f"bb{i}") for i, n in enumerate(BB_TRIALS)
            ],
            "bb_estimation": [
                (Bundle("beta_binomial", betabinomial_spec(rng, 20, shape=(3.0, 6.0)), f"bbe{i}"),
                 _r(rng.uniform(0.1, 0.15)))
                for i in range(2)
            ],
            "ln_estimation": [(b, d) for b in ln_est for d in (0.25, 0.5)],
            "finite": [Bundle("finite", finite_spec(rng, 200, 400), f"fin{i}") for i in range(2)],
        }

    def _cycle_exact_bias(self, rng, index):
        pick = {name: Rotation(entries, index) for name, entries in self.pool.items()}
        methods = ("auto", "exact")
        jobs = [reproduce_job(t) for t in REPRODUCE_TARGETS]
        jobs += [bias_h_job(rng, pick["location_normal"](), methods[i % 2], 20_000) for i in range(16)]
        jobs += [
            bias_h_job(rng, pick["beta_binomial"](), methods[i % 2], 20_000, cell=_r(rng.uniform(0.005, 0.05)))
            for i in range(16)
        ]
        for i in range(8):
            bundle, delta = pick["ln_estimation"]()
            jobs.append(bias_e_job(rng, bundle, delta, methods[i % 2], 20_000))
        jobs += [
            bias_h_job(rng, pick["location_normal"](), "auto", 50_000, cell=_r(rng.uniform(0.02, 0.2)))
            for _ in range(8)
        ]
        jobs.append(bias_e_job(rng, pick["finite"](), 1.0, methods[index % 2], 20_000))
        bundle, delta = pick["bb_estimation"]()
        jobs.append(bias_e_job(rng, bundle, delta, "exact", 10_000))
        return jobs

    # mc_bias: Monte Carlo jobs, every one on a freshly generated spec.
    def _pool_mc_bias(self, rng):
        return {}

    def _cycle_mc_bias(self, rng, index):
        counter = iter(range(10**6))
        trials = Rotation(BB_TRIALS, index)

        def fresh(kind):
            key = f"{kind}:{index}:{next(counter)}"
            if kind == "location_normal":
                return Bundle(kind, locnormal_spec(rng), key)
            if kind == "beta_binomial":
                return Bundle(kind, betabinomial_spec(rng, trials(), shape=(2.0, 6.0)), key)
            return Bundle(kind, finite_spec(rng, 120, 300, 12), key)

        jobs = []
        jobs += [bias_h_job(rng, fresh("location_normal"), "mc", 50_000) for _ in range(4)]
        jobs += [bias_h_job(rng, fresh("beta_binomial"), "mc", 50_000) for _ in range(4)]
        jobs.append(bias_h_job(rng, fresh("finite"), "mc", 20_000))
        jobs += [bias_e_job(rng, fresh("location_normal"), _r(rng.uniform(0.3, 1.0)), "mc", 20_000) for _ in range(2)]
        bb_est = Bundle("beta_binomial", betabinomial_spec(rng, 20, shape=(3.0, 6.0)), f"bbe:{index}")
        jobs.append(bias_e_job(rng, bb_est, _r(rng.uniform(0.1, 0.15)), "mc", 4_000))
        jobs += [bias_e_job(rng, fresh("finite"), 1.0, "mc", 20_000) for _ in range(2)]
        jobs += [design_job(rng, "location_normal", f"design:{index}:{i}", 20_000) for i in range(2)]
        jobs += [design_job(rng, "beta_binomial", f"design:{index}:{i + 2}", 20_000) for i in range(2)]
        jobs += [check_job(rng, fresh("location_normal"), "mc", 50_000) for _ in range(2)]
        jobs += [check_job(rng, fresh("beta_binomial"), "mc", 50_000) for _ in range(2)]
        jobs += [check_job(rng, fresh("finite"), "mc", 20_000) for _ in range(2)]
        return jobs
