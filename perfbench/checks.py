"""Checks of what one CLI job wrote against the benchmark's reference values.

Tolerance rules, applied to every probability a job writes:

* a job that reports method ``Exact`` (or a check asked for ``auto`` or
  ``exact``, which is exact for every bundle) must match the reference to
  ``EXACT_TOL`` and report a standard error of 0;
* a job that reports ``MonteCarlo`` must lie within ``MC_SE_MULT`` standard
  errors of the exact reference ``p``, plus ``MC_SE_MULT`` draws' worth
  (``MC_SE_MULT / n_sim``) so that rare events, where the count is nearly
  Poisson, are judged fairly.  The standard error is ``sqrt(p (1 - p) /
  n_sim)``, computed here, not the one the job reports.  The reported one
  must not exceed three times the larger of that and ``sqrt(q (1 - q) /
  n_sim)`` at the job's own estimate ``q``: the variance of a mean of draws
  in [0, 1] with mean ``q`` is at most ``q (1 - q)``, and for a rare event a
  correct estimate of a few hits can sit many times above ``p``.  Five, not
  three, standard errors: with thousands of generated checks per run, a
  correct program must not read as failing;
* the beta-binomial supremum of the bias against is found by the program
  with a 201-point grid search and a local refinement, which can miss the
  jumps of the failure probability, so it can fall below the true supremum.
  It must never exceed the reference, nor fall more than ``EXACT_TOL`` below
  the largest value on that grid (``BetaBinomial.grid_sup_floor``).  A
  shortfall within those bounds but beyond ``EXACT_TOL`` of the supremum is
  counted in ``Outcome.inexact_sup`` instead of failing the job, which keeps
  the defect visible and lets its fix read as that count dropping to zero;
* a finite bundle's supremum is exact under every method; when it is reported
  with a standard error of 0 it must match the reference to ``EXACT_TOL``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from reference import FLOOR, se_bernoulli

EXACT_TOL = 1e-6
MC_SE_MULT = 5.0
REL_TOL = 1e-6  # ratios and cell contents, relative, beyond a content error of FLOOR


class Outcome:
    """What the check of one job found."""

    def __init__(self):
        self.problems: list[str] = []
        self.inexact_sup = 0

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def close(self, what, got, want, tol) -> None:
        if not (abs(got - want) <= tol):
            self.fail(f"{what}: got {got!r}, reference {want!r}, tolerance {tol:.3g}")

    def prob(self, what, got, se, want, method, n_sim) -> None:
        """One probability under the tolerance rules in the module docstring."""
        if method == "Exact":
            self.close(what, got, want, EXACT_TOL)
            if se != 0.0:
                self.fail(f"{what}: exact value reported with standard error {se!r}")
            return
        se_ref = se_bernoulli(want, n_sim)
        self.close(what, got, want, MC_SE_MULT * (se_ref + 1.0 / n_sim) + EXACT_TOL)
        se_max = 3.0 * max(se_ref, se_bernoulli(got, n_sim)) + EXACT_TOL
        if se > se_max:
            self.fail(f"{what}: standard error {se!r} above {se_max!r}, the most a mean near {got!r} "
                      f"or {want!r} can have at n_sim={n_sim}")


def read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_row(path: Path) -> dict:
    header, rows = read_csv(path)
    if len(rows) != 1:
        raise ValueError(f"{path.name} should hold one row, found {len(rows)}")
    return dict(zip(header, rows[0]))


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# per-command checks; each takes the job's output directory and an Outcome


def reproduce(out: Path, o: Outcome, target: str, digest: str) -> None:
    got = hashlib.sha256((out / f"{target}.csv").read_bytes()).hexdigest()
    if got != digest:
        o.fail(f"{target}.csv digest {got} differs from the recorded {digest}")


def bias_h(out: Path, o: Outcome, against: float, favor: float, n_sim: int) -> None:
    row = read_row(out / "bias.csv")
    method = row["method"]
    o.prob("bias_against", float(row["bias_against"]), float(row["se_against"]), against, method, n_sim)
    o.prob("bias_in_favor", float(row["bias_in_favor"]), float(row["se_in_favor"]), favor, method, n_sim)


def bias_e(out: Path, o: Outcome, avg: float, sup: float, favor: float, n_sim: int,
           sup_floor=None, exact_sup=False) -> None:
    """``sup_floor`` is set for a searched supremum, ``exact_sup`` for a
    finite bundle; see the module docstring."""
    row = read_row(out / "bias_estimation.csv")
    method = row["method"]
    got_avg = float(row["avg_bias_against"])
    o.prob("avg_bias_against", got_avg, float(row["se_avg_against"]), avg, method, n_sim)
    o.prob("avg_bias_in_favor", float(row["avg_bias_in_favor"]), float(row["se_avg_in_favor"]), favor, method, n_sim)
    o.close("implied_coverage", float(row["implied_coverage"]), 1.0 - got_avg, 1e-9)
    got_sup, se_sup = float(row["sup_bias_against"]), float(row["se_sup_against"])
    if sup_floor is not None:
        if got_sup > sup + EXACT_TOL:
            o.fail(f"sup_bias_against {got_sup!r} exceeds the supremum {sup!r}")
        elif got_sup < sup_floor - EXACT_TOL:
            o.fail(f"sup_bias_against {got_sup!r} is below the largest value {sup_floor!r} on the search grid")
        elif got_sup < sup - EXACT_TOL:
            o.inexact_sup += 1
    else:
        sup_method = "Exact" if exact_sup and se_sup == 0.0 else method
        o.prob("sup_bias_against", got_sup, se_sup, sup, sup_method, n_sim)


def design(out: Path, o: Outcome, refs: dict, target: float, n_sim: int) -> None:
    """``refs`` maps each grid size to its exact (against, in favor) pair."""
    _, rows = read_csv(out / "design.csv")
    first_ok = None
    for n, against, se_a, favor, se_f, method, admissible in rows:
        n = int(n)
        ref_a, ref_f = refs[n]
        o.prob(f"n={n} bias_against", float(against), float(se_a), ref_a, method, n_sim)
        o.prob(f"n={n} bias_in_favor", float(favor), float(se_f), ref_f, method, n_sim)
        if int(admissible) != int(float(favor) <= target):
            o.fail(f"n={n}: admissible={admissible} contradicts bias_in_favor {favor} vs target {target}")
        if int(admissible) and first_ok is None:
            first_ok = n
    chosen = read_json(out / "design.json")["n"]
    if first_ok is None or chosen != first_ok or int(rows[-1][0]) != chosen:
        o.fail(f"design chose n={chosen}; the first admissible row is n={first_ok}")


def conflict(out: Path, o: Outcome, tail: float, threshold: float, n_sim) -> None:
    """``n_sim`` is None when the job asked for the exact path."""
    row = read_row(out / "check.csv")
    got = float(row["tail_prob"])
    o.prob("tail_prob", got, 0.0, tail, "Exact" if n_sim is None else "MonteCarlo", n_sim)
    want = "conflict" if got < threshold else "no_conflict"
    if row["verdict"] != want:
        o.fail(f"verdict {row['verdict']} for tail {got} and threshold {threshold}")


def _profile_arrays(out: Path, labeled: bool):
    _, rows = read_csv(out / "profile.csv")
    if labeled:
        return [r[0] for r in rows], np.array([r[1:] for r in rows], dtype=float)
    return None, np.array(rows, dtype=float)


def _close_ratio(o: Outcome, what, got, want, prior) -> None:
    """Ratios to ``REL_TOL``, allowing the content error ``FLOOR`` that the
    prior content floor already treats as negligible."""
    bad = np.abs(got - want) > REL_TOL * np.abs(want) + FLOOR / prior
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        o.fail(f"{what}[{i}]: got {got[i]!r}, reference {want[i]!r} ({int(bad.sum())} cells differ)")


def _close_content(o: Outcome, what, got, want) -> None:
    bad = np.abs(got - want) > REL_TOL * np.abs(want) + FLOOR
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        o.fail(f"{what}[{i}]: got {got[i]!r}, reference {want[i]!r} ({int(bad.sum())} cells differ)")


def analyze(out: Path, o: Outcome, ref) -> None:
    """``ref`` is a ``ProfileRef`` built for the job's grid and data."""
    labels, arr = _profile_arrays(out, ref.labels is not None)
    if labels is not None:
        if labels != list(ref.labels):
            o.fail("profile labels differ from the interest labels")
            return
        prior, post, rb = arr.T
    else:
        if arr.shape[0] != ref.prior.size:
            o.fail(f"profile has {arr.shape[0]} cells, expected {ref.prior.size}")
            return
        lo, hi, prior, post, rb = arr.T
        o.close("first edge", lo[0], ref.edges[0], 1e-9)
        o.close("last edge", hi[-1], ref.edges[-1], 1e-9)
        worst = float(np.max(np.abs(lo - ref.edges[:-1])))
        if worst > 1e-9:
            o.fail(f"cell edges differ from the grid by up to {worst}")
    _close_content(o, "prior", prior, ref.prior)
    _close_content(o, "posterior", post, ref.post)
    if not np.array_equal(np.isnan(rb), ~ref.usable):
        o.fail("cells marked unusable differ from those with prior content below the floor")
    _close_ratio(o, "rb", rb[ref.usable], ref.rb[ref.usable], ref.prior[ref.usable])

    est = read_json(out / "estimate.json")
    best = ref.index_of(est["psi_hat"])
    if best is None or ref.rb[best] < ref.rb[ref.usable].max() * (1.0 - 1e-9):
        o.fail(f"psi_hat {est['psi_hat']!r} does not maximize the ratio")
    plausible = [ref.index_of(v) for v in est["plausible_values"]]
    if sorted(i for i in plausible if i is not None) != list(np.flatnonzero(ref.usable & (ref.rb > 1.0))):
        o.fail("plausible region differs from the cells with a ratio above 1")
    pl = ref.usable & (ref.rb > 1.0)
    o.close("pl_posterior_content", est["pl_posterior_content"], float(ref.post[pl].sum()), 1e-9)
    o.close("pl_prior_content", est["pl_prior_content"], float(ref.prior[pl].sum()), 1e-9)
    o.close("excluded_prior_mass", est["excluded_prior_mass"], float(ref.prior[~ref.usable].sum()), 1e-12)
    cred = est["credible"]
    if ref.gamma is None:
        if cred is not None:
            o.fail("credible region written although no level was requested")
        return
    order = np.argsort(-np.where(ref.usable, ref.rb, -np.inf), kind="stable")[: int(ref.usable.sum())]
    cum = np.cumsum(ref.post[order])
    k = min(int(np.searchsorted(cum, ref.gamma - 1e-12, side="left")), order.size - 1)
    cutoff = ref.rb[order[k]]
    o.close("credible cutoff", cred["cutoff"], cutoff, REL_TOL * cutoff)
    region = ref.usable & (ref.rb >= cutoff * (1.0 - 1e-12))
    o.close("credible posterior content", cred["posterior_content"], float(ref.post[region].sum()), 1e-9)
    if cred["posterior_content"] < ref.gamma - 1e-9:
        o.fail(f"credible region content {cred['posterior_content']} below the level {ref.gamma}")


def assess(out: Path, o: Outcome, ref, psi0) -> None:
    got = read_json(out / "assess.json")
    i0 = ref.index_of(psi0)
    rb0 = ref.rb[i0]
    tol = REL_TOL * rb0 + FLOOR / ref.prior[i0]  # as in _close_ratio
    o.close("rb0", got["rb0"], rb0, tol)
    o.close("markov_upper", got["markov_upper"], rb0, tol)
    o.close("markov_lower", got["markov_lower"], float(ref.post[i0]), 1e-9)
    strength = float(ref.post[ref.usable & (ref.rb <= rb0)].sum())
    o.close("strength", got["strength"], strength, EXACT_TOL)
    want = "favor" if rb0 > 1.0 else "against" if rb0 < 1.0 else "neutral"
    if got["verdict"] != want:
        o.fail(f"verdict {got['verdict']} for a ratio of {rb0}")


class ProfileRef:
    """Reference profile of one analyze or assess job."""

    def __init__(self, prior, post, edges=None, labels=None, gamma=None):
        self.prior = np.asarray(prior, dtype=float)
        self.post = np.asarray(post, dtype=float)
        self.usable = self.prior >= FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            self.rb = np.where(self.usable, self.post / self.prior, np.nan)
        self.edges = edges
        self.labels = labels
        self.gamma = gamma
        if edges is not None:
            self.centers = 0.5 * (edges[:-1] + edges[1:])

    def index_of(self, value):
        if self.labels is not None:
            return self.labels.index(value) if value in self.labels else None
        value = float(value)
        i = int(np.argmin(np.abs(self.centers - value)))
        return i if abs(self.centers[i] - value) <= 1e-9 * max(1.0, abs(value)) else None

    def ambiguous(self) -> bool:
        """True when two correct evaluation orders could disagree: a ratio
        within 1e-9 of 1, or a near tie for the largest ratio."""
        rb = self.rb[self.usable]
        if not rb.size or rb.max() < 1.0 + 1e-6:
            return True
        top = np.sort(rb)[-2:]
        return bool(np.any(np.abs(rb - 1.0) < 1e-9)) or (top.size == 2 and top[1] - top[0] <= 1e-9 * top[1])
