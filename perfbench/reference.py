"""Reference values the benchmark checks program outputs against.

Everything here is derived from the model definitions with scipy, and
imports nothing from relbelief, so a defect in the program cannot also hide
in its own reference:

* location normal: the favor set of a point or cell ratio is one interval of
  the data mean (the posterior density, or cell content, is log-concave in
  the posterior mean), so every hypothesis probability is a difference of
  two normal CDF values; prior averages are Gauss-Legendre sums on the two
  smooth halves either side of the prior mean;
* beta binomial: enumeration over counts; prior averages and the supremum
  are taken piece by piece over the beta prior, split at every success rate
  where the count mask changes, so each piece is smooth;
* finite tables: enumeration.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import optimize, special, stats

FLOOR = 1e-12  # prior content below which a cell or label is unusable
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def interval_prob(cdf, sf, lo, hi):
    """P(lo < X <= hi) from a CDF and survival function, using survival
    values where the CDF saturates so upper-tail cells keep their digits."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.where(cdf(lo) >= 0.5, sf(lo) - sf(hi), cdf(hi) - cdf(lo))


def cell_probs(cdf, sf, edges):
    """Probabilities of the cells between consecutive ``edges``, as in
    ``interval_prob`` but evaluating each edge once."""
    c, s = cdf(edges), sf(edges)
    return np.where(c[:-1] >= 0.5, s[:-1] - s[1:], c[1:] - c[:-1])


def normal_interval(lo, hi, mean, sd):
    return interval_prob(
        lambda x: special.ndtr((x - mean) / sd), lambda x: special.ndtr((mean - x) / sd), lo, hi
    )


def beta_cdf_sf(a, b):
    """Beta CDF and survival function (the survival function as the CDF of
    the mirrored beta, which scipy evaluates much faster than betaincc)."""
    return (lambda x: special.betainc(a, b, x)), (lambda x: special.betainc(b, a, 1.0 - np.asarray(x)))


def beta_interval(lo, hi, a, b):
    return interval_prob(*beta_cdf_sf(a, b), lo, hi)


def gauss_legendre(g, lo, hi):
    """Integral of a vectorized smooth ``g`` over [lo, hi]."""
    half = 0.5 * (hi - lo)
    return float(half * np.dot(_GL_WEIGHTS, g(lo + half * (_GL_NODES + 1.0))))


def se_bernoulli(p, n_sim):
    p = min(max(p, 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n_sim)


# ---------------------------------------------------------------------------
# location normal: spec = dict(n, sigma0_sq, mu_star, tau_star_sq)


class LocNormal:
    def __init__(self, spec):
        self.n = int(spec["n"])
        self.s2 = float(spec["sigma0_sq"])
        self.m = float(spec["mu_star"])
        self.t2 = float(spec["tau_star_sq"])
        self.tau = math.sqrt(self.t2)
        self.vp = 1.0 / (self.n / self.s2 + 1.0 / self.t2)  # posterior variance
        self.sp = math.sqrt(self.vp)
        self.se = math.sqrt(self.s2 / self.n)  # sd of the data mean
        self.k = self.vp * self.n / self.s2  # d(posterior mean) / d(xbar)

    def post_mean(self, xbar):
        return self.vp * (self.n * np.asarray(xbar, dtype=float) / self.s2 + self.m / self.t2)

    def xbar_of_mean(self, mp):
        return (mp - self.vp * self.m / self.t2) / self.k

    def point_window(self, mu0):
        """Data means giving a point ratio >= 1 at mu0 (vectorized): the
        posterior density at mu0 must reach the prior density there."""
        mu0 = np.asarray(mu0, dtype=float)
        r = np.sqrt(self.vp * (math.log(self.t2 / self.vp) + (mu0 - self.m) ** 2 / self.t2))
        return self.xbar_of_mean(mu0 - r), self.xbar_of_mean(mu0 + r)

    def cell_window(self, mu0, cell):
        """Data means giving a cell ratio >= 1 for [mu0 - cell, mu0 + cell];
        None when no data mean does."""
        lo, hi = mu0 - cell, mu0 + cell
        target = float(normal_interval(lo, hi, self.m, self.tau))

        def excess(mp):
            return float(normal_interval(lo, hi, mp, self.sp)) - target

        if excess(mu0) < 0.0:
            return None
        reach = cell + 40.0 * self.sp
        a = optimize.brentq(excess, mu0 - reach, mu0, xtol=1e-15, rtol=1e-15)
        b = optimize.brentq(excess, mu0, mu0 + reach, xtol=1e-15, rtol=1e-15)
        return self.xbar_of_mean(a), self.xbar_of_mean(b)

    def favor_prob(self, mu0, mu_true, cell=None):
        win = self.point_window(mu0) if cell is None else self.cell_window(mu0, cell)
        if win is None:
            return 0.0
        return normal_interval(win[0], win[1], mu_true, self.se)

    def bias_against_h(self, psi0, cell=None):
        return 1.0 - self.favor_prob(psi0, psi0, cell)

    def bias_in_favor_h(self, psi0, delta, cell=None):
        return np.maximum(self.favor_prob(psi0, psi0 - delta, cell), self.favor_prob(psi0, psi0 + delta, cell))

    def _prior_mean_of(self, g):
        """E g(mu) under the prior; g is smooth on either side of the prior
        mean, so each half is integrated on its own."""
        def weighted(mu):
            return g(mu) * np.exp(-((mu - self.m) ** 2) / (2.0 * self.t2)) / (self.tau * math.sqrt(2.0 * math.pi))

        edges = self.m + self.tau * np.array([-12.0, -6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0, 12.0])
        return sum(gauss_legendre(weighted, a, b) for a, b in zip(edges, edges[1:]))

    def avg_bias_against(self):
        return self._prior_mean_of(self.bias_against_h)

    def sup_bias_against(self):
        grid = self.m + self.tau * np.linspace(-6.0, 6.0, 2401)
        vals = self.bias_against_h(grid)
        k = int(np.argmax(vals))
        res = optimize.minimize_scalar(
            lambda mu: -float(self.bias_against_h(mu)),
            bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
            method="bounded",
            options={"xatol": 1e-12},
        )
        return max(float(vals[k]), -float(res.fun))

    def avg_bias_in_favor(self, delta):
        return self._prior_mean_of(lambda mu: self.bias_in_favor_h(mu, delta))

    def conflict_tail(self, xbar):
        sd = math.sqrt(self.t2 + self.s2 / self.n)
        return float(2.0 * special.ndtr(-abs(xbar - self.m) / sd))

    def profile(self, edges, xbar):
        def cells(mean, sd):
            return cell_probs(lambda x: special.ndtr((x - mean) / sd), lambda x: special.ndtr((mean - x) / sd), edges)

        return cells(self.m, self.tau), cells(float(self.post_mean(xbar)), self.sp)


# ---------------------------------------------------------------------------
# beta binomial: spec = dict(n, alpha, beta)


class BetaBinomial:
    def __init__(self, spec):
        self.n = int(spec["n"])
        self.a = float(spec["alpha"])
        self.b = float(spec["beta"])
        self.s = np.arange(self.n + 1)
        self.log_comb = special.gammaln(self.n + 1) - special.gammaln(self.s + 1) - special.gammaln(self.n - self.s + 1)

    def log_rb_point(self, theta, s=None):
        """log of the Beta(a + s, b + n - s) posterior density over the
        Beta(a, b) prior density at theta; theta broadcasts against s."""
        s = self.s if s is None else s
        return (
            special.xlogy(s, theta) + special.xlog1py(self.n - s, -theta)
            - special.betaln(self.a + s, self.b + self.n - s) + special.betaln(self.a, self.b)
        )

    def log_rb_cell(self, psi0, cell):
        lo, hi = max(psi0 - cell, 0.0), min(psi0 + cell, 1.0)
        prior = float(beta_interval(lo, hi, self.a, self.b))
        post = beta_interval(lo, hi, self.a + self.s, self.b + self.n - self.s)
        with np.errstate(divide="ignore"):
            return np.log(post) - math.log(prior)

    def log_rb(self, psi0, cell=None):
        return self.log_rb_point(psi0) if cell is None else self.log_rb_cell(psi0, cell)

    def pmf(self, theta):
        """Binomial pmf over counts; rows follow the entries of ``theta``."""
        t = np.asarray(theta, dtype=float)[..., None]
        return np.exp(self.log_comb + special.xlogy(self.s, t) + special.xlog1py(self.n - self.s, -t))

    def bias_against_h(self, psi0, cell=None):
        return float(self.pmf(psi0)[self.log_rb(psi0, cell) <= 0.0].sum())

    def bias_in_favor_h(self, psi0, delta, cell=None):
        mask = self.log_rb(psi0, cell) >= 0.0
        cands = [m for m in (psi0 - delta, psi0 + delta) if 0.0 < m < 1.0]
        return max(float(self.pmf(m)[mask].sum()) for m in cands)

    @functools.cached_property
    def breakpoints(self):
        """Success rates where some count's point ratio crosses 1.

        For a fixed count the log ratio is concave in theta, so it is >= 0 on
        one interval whose ends are bracketed from the maximizer.
        """
        pts = []
        eps = 1e-13
        for k in self.s:
            peak = min(max(k / self.n, eps), 1.0 - eps)

            def f(t, k=k):
                return float(self.log_rb_point(t, k))

            if f(peak) <= 0.0:
                continue
            if f(eps) < 0.0:
                pts.append(optimize.brentq(f, eps, peak, xtol=1e-15, rtol=1e-15))
            if f(1.0 - eps) < 0.0:
                pts.append(optimize.brentq(f, peak, 1.0 - eps, xtol=1e-15, rtol=1e-15))
        return pts

    def pieces(self, lo, hi, extra=()):
        cuts = sorted({lo, hi, *(p for p in (*self.breakpoints, *extra) if lo < p < hi)})
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                yield a, b

    def _mask_at(self, theta, le):
        r = self.log_rb_point(theta)
        return r <= 0.0 if le else r >= 0.0

    def _favor_parts(self, mask, delta):
        """Smooth favor probabilities of a fixed count mask at theta -/+ delta."""
        def side(theta, sign):
            m = theta + sign * delta
            ok = (m > 0.0) & (m < 1.0)
            return np.where(ok, (self.pmf(np.clip(m, 1e-300, 1.0 - 1e-16)) * mask).sum(axis=-1), 0.0)

        return lambda t: side(t, -1.0), lambda t: side(t, 1.0)

    def avg_bias_against(self):
        dens = stats.beta(self.a, self.b).pdf
        total = 0.0
        for a, b in self.pieces(0.0, 1.0):
            mask = self._mask_at(0.5 * (a + b), le=True)
            total += gauss_legendre(lambda t: (self.pmf(t) * mask).sum(axis=-1) * dens(t), a, b)
        return total

    def avg_bias_in_favor(self, delta):
        dens = stats.beta(self.a, self.b).pdf
        total = 0.0
        for a, b in self.pieces(0.0, 1.0, extra=(delta, 1.0 - delta)):
            mask = self._mask_at(0.5 * (a + b), le=False)
            lo_side, hi_side = self._favor_parts(mask, delta)
            # the max of the two sides has a kink where they cross
            grid = np.linspace(a, b, 65)
            diff = lo_side(grid) - hi_side(grid)
            cuts = [a]
            for i in np.flatnonzero(np.sign(diff[:-1]) * np.sign(diff[1:]) < 0):
                cuts.append(optimize.brentq(lambda t: float(lo_side(t) - hi_side(t)), grid[i], grid[i + 1], xtol=1e-15))
            cuts.append(b)
            for c, d in zip(cuts, cuts[1:]):
                total += gauss_legendre(lambda t: np.maximum(lo_side(t), hi_side(t)) * dens(t), c, d)
        return total

    def sup_bias_against(self, lo=1e-6, hi=1.0 - 1e-6):
        """Supremum of the probability of failing to support the truth.

        On each piece the count mask is fixed and the probability is smooth,
        so the piece is maximized over its closure: at a breakpoint a ratio of
        exactly 1 counts as a failure, so the larger one-sided limit is
        attained there.
        """
        best = 0.0
        for a, b in self.pieces(lo, hi):
            mask = self._mask_at(0.5 * (a + b), le=True)

            def f(t, mask=mask):
                return (self.pmf(t) * mask).sum(axis=-1)

            grid = np.linspace(a, b, 65)
            vals = f(grid)
            k = int(np.argmax(vals))
            res = optimize.minimize_scalar(
                lambda t: -float(f(t)),
                bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
                method="bounded",
                options={"xatol": 1e-13},
            )
            best = max(best, float(vals.max()), -float(res.fun))
        return best

    def grid_sup_floor(self, points=201, margin=1e-9):
        """Largest failure probability on the grid the program searches for
        the supremum, ``points`` values evenly spaced over [1e-6, 1 - 1e-6].

        Only counts whose log ratio is below ``-margin`` count as failures, so
        a ratio that rounds differently cannot raise the value.  A grid
        search with any refinement returns at least this much.
        """
        grid = np.linspace(0.5 - (0.5 - 1e-6), 0.5 + (0.5 - 1e-6), points)
        fails = self.log_rb_point(grid[:, None]) <= -margin
        return float((self.pmf(grid) * fails).sum(axis=-1).max())

    def predictive(self):
        return stats.betabinom.pmf(self.s, self.n, self.a, self.b)

    def conflict_tail(self, s_obs):
        pred = self.predictive()
        return float(pred[pred <= pred[s_obs]].sum())

    def profile(self, edges, s_obs):
        edges = np.clip(edges, 0.0, 1.0)  # a grid widened to whole cells may reach past (0, 1)

        def cells(a, b):
            return cell_probs(*beta_cdf_sf(a, b), edges)

        return cells(self.a, self.b), cells(self.a + s_obs, self.b + self.n - s_obs)


# ---------------------------------------------------------------------------
# finite tables: spec = dict(theta_labels, prior, likelihood, x_labels, psi_of_theta?)


class Finite:
    def __init__(self, spec):
        self.prior = np.array(spec["prior"], dtype=float)
        self.like = np.array(spec["likelihood"], dtype=float)
        self.x_labels = list(spec["x_labels"])
        psi_of = spec.get("psi_of_theta") or spec["theta_labels"]
        self.psi_labels = list(dict.fromkeys(psi_of))
        where = {p: i for i, p in enumerate(self.psi_labels)}
        group = np.zeros((len(self.psi_labels), self.prior.size))
        group[[where[p] for p in psi_of], np.arange(self.prior.size)] = 1.0
        joint = self.prior[:, None] * self.like
        self.pred = joint.sum(axis=0)
        self.prior_psi = group @ self.prior
        self.usable = self.prior_psi >= FLOOR
        self.post_psi = (group @ joint) / self.pred  # [psi, x]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.rb = self.post_psi / self.prior_psi[:, None]
        self.pred_given = (group * self.prior) @ self.like / self.prior_psi[:, None]  # M(x | psi)

    def index(self, psi):
        return self.psi_labels.index(psi)

    def favor_matrix(self):
        """F[j, i] = probability under psi_j of a ratio >= 1 at psi_i."""
        return self.pred_given @ (self.rb >= 1.0).T.astype(float)

    def against(self):
        return ((self.rb <= 1.0) * self.pred_given).sum(axis=1)

    def bias_against_h(self, psi):
        return float(self.against()[self.index(psi)])

    def bias_in_favor_h(self, psi):
        i = self.index(psi)
        others = [j for j in np.flatnonzero(self.usable) if j != i]
        return float(self.favor_matrix()[others, i].max())

    def avg_bias_against(self):
        return float(self.prior_psi[self.usable] @ self.against()[self.usable])

    def sup_bias_against(self):
        return float(self.against()[self.usable].max())

    def avg_bias_in_favor(self):
        f = self.favor_matrix()
        use = np.flatnonzero(self.usable)
        total = 0.0
        for i in use:
            others = use[use != i]
            if others.size:
                total += self.prior_psi[i] * f[others, i].max()
        return float(total)

    def conflict_tail(self, x_label):
        p = self.pred[self.x_labels.index(x_label)]
        return float(self.pred[self.pred <= p].sum())

    def near_tie(self, tol=1e-9):
        """True when some ratio sits within ``tol`` of 1, where two correct
        evaluation orders could classify an outcome differently."""
        return bool(np.any(np.abs(self.rb[self.usable] - 1.0) < tol))
