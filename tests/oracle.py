"""Brute-force enumeration oracle for finite models, and a scalar oracle for
the beta-binomial estimation biases.

Everything here is written with plain Python dicts and loops, or scalar
scipy root finding and quadrature, independently of the library's vectorized
code paths, so agreement between the two is a meaningful check rather than a
tautology.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

PRIOR_FLOOR = 1e-12


def random_finite_spec(rng: np.random.Generator, max_theta: int = 6, max_x: int = 8):
    """A random fully tabulated model as plain lists, with an interest map
    that sometimes groups several theta values onto one label."""
    k = int(rng.integers(2, max_theta + 1))
    m = int(rng.integers(2, max_x + 1))
    prior = rng.uniform(0.1, 1.0, size=k)
    prior = (prior / prior.sum()).tolist()
    likelihood = []
    for _ in range(k):
        row = rng.uniform(0.05, 1.0, size=m)
        likelihood.append((row / row.sum()).tolist())
    theta_labels = [f"t{i}" for i in range(k)]
    x_labels = [f"x{j}" for j in range(m)]
    if rng.random() < 0.5 and k >= 3:
        n_groups = int(rng.integers(2, k))
        assignment = [int(g) for g in rng.integers(0, n_groups, size=k)]
        # make sure every group label is used by at least one theta
        for g in range(n_groups):
            if g not in assignment:
                assignment[int(rng.integers(0, k))] = g
        psi_of_theta = [f"p{g}" for g in assignment]
    else:
        psi_of_theta = list(theta_labels)
    return {
        "theta_labels": theta_labels,
        "prior": prior,
        "likelihood": likelihood,
        "x_labels": x_labels,
        "psi_of_theta": psi_of_theta,
    }


class FiniteOracle:
    """Exhaustive enumeration over a tabulated model, one value at a time."""

    def __init__(self, spec: dict):
        self.theta_labels = list(spec["theta_labels"])
        self.x_labels = list(spec["x_labels"])
        self.prior = {t: p for t, p in zip(self.theta_labels, spec["prior"])}
        self.like = {
            t: {x: v for x, v in zip(self.x_labels, row)}
            for t, row in zip(self.theta_labels, spec["likelihood"])
        }
        self.psi_of = {t: p for t, p in zip(self.theta_labels, spec["psi_of_theta"])}
        self.psi_labels = []
        for t in self.theta_labels:
            if self.psi_of[t] not in self.psi_labels:
                self.psi_labels.append(self.psi_of[t])

    # -- basic quantities ---------------------------------------------------

    def joint(self, t, x):
        return self.prior[t] * self.like[t][x]

    def predictive(self, x):
        return sum(self.joint(t, x) for t in self.theta_labels)

    def prior_psi(self, psi):
        return sum(self.prior[t] for t in self.theta_labels if self.psi_of[t] == psi)

    def posterior_psi(self, psi, x):
        num = sum(self.joint(t, x) for t in self.theta_labels if self.psi_of[t] == psi)
        return num / self.predictive(x)

    def rb(self, psi, x):
        return self.posterior_psi(psi, x) / self.prior_psi(psi)

    def usable(self, psi):
        return self.prior_psi(psi) >= PRIOR_FLOOR

    # -- inference ----------------------------------------------------------

    def plausible(self, x):
        return [p for p in self.psi_labels if self.usable(p) and self.rb(p, x) > 1.0]

    def strength(self, psi0, x):
        rb0 = self.rb(psi0, x)
        return sum(
            self.posterior_psi(p, x)
            for p in self.psi_labels
            if self.usable(p) and self.rb(p, x) <= rb0
        )

    def credible(self, gamma, x):
        """(cutoff, region) for the smallest cutoff whose strictly-above set
        has posterior content below gamma."""
        values = sorted({self.rb(p, x) for p in self.psi_labels if self.usable(p)})
        cutoff = None
        for v in values:
            above = sum(
                self.posterior_psi(p, x)
                for p in self.psi_labels
                if self.usable(p) and self.rb(p, x) > v
            )
            if above < gamma:
                cutoff = v
                break
        region = [p for p in self.psi_labels if self.usable(p) and self.rb(p, x) >= cutoff]
        return cutoff, region

    # -- prior predictive conditioned on the interest value ------------------

    def m_given_psi(self, x, psi):
        mass = self.prior_psi(psi)
        return (
            sum(self.joint(t, x) for t in self.theta_labels if self.psi_of[t] == psi) / mass
        )

    # -- bias functionals -----------------------------------------------------

    def bias_against_h(self, psi0):
        return sum(
            self.m_given_psi(x, psi0)
            for x in self.x_labels
            if self.rb(psi0, x) <= 1.0
        )

    def bias_in_favor_h(self, psi0):
        best = 0.0
        for psi in self.psi_labels:
            if psi == psi0 or not self.usable(psi):
                continue
            prob = sum(
                self.m_given_psi(x, psi)
                for x in self.x_labels
                if self.rb(psi0, x) >= 1.0
            )
            best = max(best, prob)
        return best

    def avg_bias_against(self):
        return sum(
            self.prior_psi(p) * self.bias_against_h(p)
            for p in self.psi_labels
            if self.usable(p)
        )

    def sup_bias_against(self):
        return max(self.bias_against_h(p) for p in self.psi_labels if self.usable(p))

    def avg_bias_in_favor(self):
        return sum(
            self.prior_psi(p) * self.bias_in_favor_h(p)
            for p in self.psi_labels
            if self.usable(p)
        )

    # -- conflict -------------------------------------------------------------

    def conflict_tail(self, x_obs):
        m_obs = self.predictive(x_obs)
        return sum(
            self.predictive(x) for x in self.x_labels if self.predictive(x) <= m_obs
        )


class BetaBinomialOracle:
    """The three estimation biases of the point ratio of a beta-binomial
    model, one rate at a time.  Each count's ratio crosses 1 at the roots
    ``brentq`` finds on either side of its maximum; between consecutive roots
    the counts in favor are read off the log ratios at the midpoint.  The
    averages are ``quad`` integrals, piece by piece, split at every kink of
    the integrand (the pieces' ends, delta, 1 - delta, the peak -+ delta and
    the rates where the two sides at distance delta cross, found by a sign
    scan), with the density's power of the rate (``weight="alg"``) on the two
    end pieces.  The supremum is the largest failure probability over each
    piece's closure, at its two ends and on a grid inside it."""

    def __init__(self, n, alpha, beta):
        self.n, self.alpha, self.beta = n, alpha, beta
        self.s = np.arange(n + 1)
        self.c = special.betaln(alpha, beta) - special.betaln(alpha + self.s, beta + n - self.s)
        self.log_comb = special.gammaln(n + 1) - special.gammaln(self.s + 1) - special.gammaln(n - self.s + 1)
        self.log_b = special.betaln(alpha, beta)
        cuts = sorted({0.0, 1.0, *self._roots()})
        self.pieces = [(a, b, self.log_rb(0.5 * (a + b)) >= 0.0) for a, b in zip(cuts, cuts[1:]) if b > a]

    def log_rb(self, theta):
        return special.xlogy(self.s, theta) + special.xlog1py(self.n - self.s, -theta) + self.c

    def prob(self, theta, counted):
        """P(S in ``counted``) at the rate ``theta`` in [0, 1]."""
        pmf = np.exp(self.log_comb + special.xlogy(self.s, theta) + special.xlog1py(self.n - self.s, -theta))
        return float(pmf[counted].sum())

    def _roots(self):
        n, roots = self.n, []
        for k in range(n + 1):
            mode = k / n
            if special.xlogy(k, mode) + special.xlog1py(n - k, -mode) + self.c[k] <= 0.0:
                continue
            # in u = log(rate) for the left root, log(1 - rate) for the right:
            # j u + (n - j) log1p(-e^u) + c <= j u + c, negative at the bracket's start
            for j, to_rate in ((k, math.exp), (n - k, lambda v: -math.expm1(v))):
                if j == 0:
                    continue
                f = lambda u, j=j, k=k: j * u + special.xlog1py(n - j, -math.exp(u)) + self.c[k]
                top = math.log(j / n)
                roots.append(to_rate(optimize.brentq(f, -(self.c[k] + 1.0) / j, top, xtol=1e-15, rtol=1e-15)))
        return roots

    def _integral(self, g, a, b, kinks):
        """The prior integral of ``g`` over [a, b], split at ``kinks`` and at
        1/2.  A sub-piece at 0 or 1 weighs the density's power there
        (``weight="alg"``); any other one is integrated in log(rate) below
        1/2 and in log(1 - rate) above, where the density's powers are
        smooth however near 0 or 1 it starts."""
        edges = sorted({a, b, *(x for x in (*kinks, 0.5) if a < x < b)})
        total, log_b, opts = 0.0, self.log_b, dict(epsabs=1e-14, epsrel=1e-13, limit=200)
        for lo, hi in zip(edges, edges[1:]):
            if 0.0 < lo and hi < 1.0 and special.betainc(self.alpha, self.beta, [lo, hi]) @ [-1.0, 1.0] < 1e-15:
                continue  # at most 1e-15, where quad reads only roundoff
            # an end's value does not count: quadrature that reads it gets the limit
            inside = (math.nextafter(lo, hi), math.nextafter(hi, lo))
            at = lambda t, inside=inside: g(min(max(t, inside[0]), inside[1]))
            if lo == 0.0:
                h = lambda t: at(t) * math.exp((self.beta - 1.0) * math.log1p(-t) - log_b)
                total += integrate.quad(h, lo, hi, weight="alg", wvar=(self.alpha - 1.0, 0.0), **opts)[0]
            elif hi == 1.0:
                h = lambda t: at(t) * math.exp((self.alpha - 1.0) * math.log(t) - log_b)
                total += integrate.quad(h, lo, hi, weight="alg", wvar=(0.0, self.beta - 1.0), **opts)[0]
            elif hi <= 0.5:  # rate = e^u
                h = lambda u: at(math.exp(u)) * math.exp(self.alpha * u + (self.beta - 1.0) * math.log1p(-math.exp(u))
                                                         - log_b)
                total += integrate.quad(h, math.log(lo), math.log(hi), **opts)[0]
            else:  # 1 - rate = e^v
                h = lambda v: at(-math.expm1(v)) * math.exp(self.beta * v + (self.alpha - 1.0)
                                                            * math.log1p(-math.exp(v)) - log_b)
                total += integrate.quad(h, math.log1p(-hi), math.log1p(-lo), **opts)[0]
        return total

    def avg_bias_against(self):
        return sum(self._integral(lambda t, m=favor: self.prob(t, ~m), a, b, ()) for a, b, favor in self.pieces)

    def sup_bias_against(self):
        """Over each piece's closure with its counts in favor, and at each
        breakpoint, where a count whose ratio ties with 1 (within 1e-9 in
        log) fails too."""
        inside = max(self.prob(t, ~favor) for a, b, favor in self.pieces for t in np.linspace(a, b, 9))
        return max(inside, *(self.prob(b, self.log_rb(b) <= 1e-9) for _, b, _ in self.pieces[:-1]))

    def avg_bias_in_favor(self, delta, boundary_only=True):
        total = 0.0
        for a, b, favor in self.pieces:
            p = lambda x, m=favor: self.prob(x, m)
            if favor[0] or favor[-1]:  # P(S <= k2) falls in the rate, P(S >= k1) rises
                mode = 0.0 if favor[0] else 1.0
            else:
                mode = optimize.minimize_scalar(lambda x: -p(x), bounds=(0.0, 1.0), method="bounded",
                                                options={"xatol": 1e-13}).x

            def g(t, p=p, mode=mode):
                vals = [p(x) for x in (t - delta, t + delta) if 0.0 < x < 1.0]
                side = t - delta if mode <= 0.0 else t + delta if mode >= 1.0 else mode
                if not boundary_only and abs(mode - t) >= delta and 0.0 < side < 1.0:
                    vals.append(p(mode))
                return max(vals, default=0.0)

            kinks = [delta, 1.0 - delta] + ([] if boundary_only else [mode - delta, mode + delta])
            lo, hi = max(a, delta), min(b, 1.0 - delta)
            if lo < hi:  # where the two sides cross
                d = lambda t: p(t - delta) - p(t + delta)
                grid = np.linspace(lo, hi, 33)
                signs = np.sign([d(t) for t in grid])
                kinks += [optimize.brentq(d, grid[i], grid[i + 1], xtol=1e-15)
                          for i in np.flatnonzero(signs[:-1] * signs[1:] < 0)]
            total += self._integral(g, a, b, kinks)
        return total
