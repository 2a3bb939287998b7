"""Temperature estimators, root finding, and the uniformity test.

One entry point fits theta: :func:`multi_estimate` solves the estimating
equation of a method (PL, LD or ML) summed over i.i.d. samples, for the
linear family and for Kendall's tau alike; a single sample is a pooled
fit with m = 1.  :func:`multi_sample_scores` evaluates the same equation.

All estimating equations here are strictly monotone in theta, so roots
are located by geometric bracket expansion from [-1, 1] (capped at
[-64, 64]) followed by Brent's method on the sign-change bracket; the
true root lies within ``root_tol`` of the returned theta.  A score with
constant sign over the capped bracket has no root; that is a legitimate
outcome for extremal permutations and raises :class:`NoRootError` rather
than failing silently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit

from .grids import ScoreFunction
from .ipfp import w_k_prime
from .models import (
    BRUTE_FORCE_LIMIT,
    enumerate_statistics,
    kendall_limit_C_prime,
    kendall_logZ_prime,
)
from .perm import Permutation, inversions, linear_statistic

__all__ = [
    "EstimateResult",
    "NoRootError",
    "AllPairsDegenerateError",
    "UniformityTest",
    "find_monotone_root",
    "pairwise_swap_scores",
    "pl_score_derivative",
    "uniformity_test",
    "threshold_test",
    "multi_sample_scores",
    "multi_estimate",
]

BRACKET_CAP = 64.0


class NoRootError(RuntimeError):
    """The monotone score keeps one sign over the whole capped bracket."""

    def __init__(self, sign: str, bracket: tuple[float, float], evaluations: int):
        self.sign = sign
        self.bracket = bracket
        self.evaluations = evaluations
        super().__init__(
            f"score is {sign} everywhere on [{bracket[0]:g}, {bracket[1]:g}]; no root"
        )


class AllPairsDegenerateError(ValueError):
    """Every pairwise swap score is zero; theta is unidentifiable."""


@dataclass(frozen=True)
class EstimateResult:
    """A fitted temperature with its root-finding diagnostics."""

    theta_hat: float
    method: str
    bracket: tuple[float, float]
    evaluations: int
    score_at_root: float
    k: int | None = None

    def to_json_dict(self) -> dict:
        out = {
            "theta_hat": self.theta_hat,
            "method": self.method,
            "bracket_lo": self.bracket[0],
            "bracket_hi": self.bracket[1],
            "evaluations": self.evaluations,
            "score_at_root": self.score_at_root,
        }
        if self.k is not None:
            out["k"] = self.k
        return out


def _memo_score(t: float, score: Callable[[float], float],
                seen: dict[float, float]) -> float:
    if t not in seen:
        seen[t] = score(t)
    return seen[t]


def find_monotone_root(score: Callable[[float], float],
                       root_tol: float = 1e-8) -> tuple[float, tuple, int, float]:
    """Root of a strictly decreasing score by bracket expansion + Brent's method.

    The bracket starts at [-1, 1] and each end doubles outward until the
    score changes sign, up to ``BRACKET_CAP``.  The true root lies within
    ``root_tol`` (plus brentq's relative tolerance, 4 eps |root|) of the
    returned value.  Returns (root, sign-change bracket, evaluations,
    score at root), where evaluations counts distinct calls of ``score``.
    Raises NoRootError when no sign change exists within
    [-BRACKET_CAP, BRACKET_CAP], and ValueError when Brent's method does
    not reach ``root_tol`` within its iteration cap.
    """
    if not root_tol > 0:
        raise ValueError("root_tol must be positive")
    lo, hi = -1.0, 1.0
    seen: dict[float, float] = {}
    s_lo = _memo_score(lo, score, seen)
    while s_lo < 0 and lo > -BRACKET_CAP:
        lo = max(-BRACKET_CAP, 2.0 * lo)
        s_lo = _memo_score(lo, score, seen)
    if s_lo < 0:
        raise NoRootError("negative", (lo, hi), len(seen))
    if s_lo == 0:
        return lo, (lo, lo), len(seen), 0.0

    s_hi = _memo_score(hi, score, seen)
    while s_hi > 0 and hi < BRACKET_CAP:
        hi = min(BRACKET_CAP, 2.0 * hi)
        s_hi = _memo_score(hi, score, seen)
    if s_hi > 0:
        raise NoRootError("positive", (lo, hi), len(seen))
    if s_hi == 0:
        return hi, (hi, hi), len(seen), 0.0

    # score rides in args: brentq's function wrapper is a reference cycle,
    # so a closure over score would keep its arrays alive until the next gc.
    # brentq returns a point it evaluated, so seen[root] exists.
    root, info = brentq(_memo_score, lo, hi, args=(score, seen), xtol=root_tol,
                        full_output=True, disp=False)
    if not info.converged:
        raise ValueError(f"root finder did not converge to root_tol={root_tol:g} "
                         f"in {info.iterations} iterations")
    return root, (lo, hi), len(seen), seen[root]


def pairwise_swap_scores(pi: Permutation, f: ScoreFunction) -> np.ndarray:
    """All C(n,2) pairwise scores y(i,j) = f(i,pi(i)) + f(j,pi(j)) - f(i,pi(j)) - f(j,pi(i)).

    Arguments are scaled to the unit square.  y is unchanged by adding
    any phi(x) + psi(y) to f, which makes everything downstream
    invariant under that reparameterization.
    """
    n = pi.n
    x = np.arange(1, n + 1) / n
    u = pi.values / n
    g = np.asarray(f(x[:, None], u[None, :]), dtype=np.float64)
    d = np.diag(g)
    y = d[:, None] + d[None, :] - g - g.T
    iu = np.triu_indices(n, 1)
    return y[iu]


def pl_score_derivative(pi: Permutation, f: ScoreFunction, theta: float) -> float:
    """d/dtheta of the single-sample PL score: -sum y^2 sigma(theta y) sigma(-theta y) < 0."""
    y = pairwise_swap_scores(pi, f)
    return float(-np.sum(y * y * expit(theta * y) * expit(-theta * y)))


def _check_same_n(perms: Sequence[Permutation]) -> int:
    if not perms:
        raise ValueError("need at least one permutation")
    n = perms[0].n
    if any(p.n != n for p in perms):
        raise ValueError("size mismatch across samples")
    return n


def _pooled_score(perms: Sequence[Permutation], f: ScoreFunction | None, method: str,
                  k: int | None = None, **ipfp_kw) -> Callable[[float], float]:
    """The estimating equation of ``method`` summed over i.i.d. samples.

    ``f`` is the linear model's score, or None for the Kendall family.
    The per-sample work (pair scores, statistics, the S_n enumeration)
    is done once here; the returned closure maps theta to the summed
    equation.  With one sample it is the single-sample equation exactly.
    """
    if method not in ("pl", "ld", "ml"):
        raise ValueError(f"unknown method {method!r}")
    n = _check_same_n(perms)
    m = len(perms)
    if f is None:
        given = [name for name, value in {"k": k, **ipfp_kw}.items() if value is not None]
        if given:
            raise ValueError(f"the Kendall model takes no {', '.join(given)}")
        if method == "pl":
            raise ValueError("pseudo-likelihood applies to the linear model only")
        rate_sum = sum(inversions(p) / (n * n) for p in perms)
        if method == "ld":
            return lambda theta: rate_sum - m * kendall_limit_C_prime(theta)
        return lambda theta: rate_sum - m * kendall_logZ_prime(n, theta)
    if method == "pl":
        ys = np.concatenate([pairwise_swap_scores(p, f) for p in perms])
        if not np.any(ys):
            raise AllPairsDegenerateError("all pairwise scores vanish")
        buf = np.empty_like(ys)

        def score(theta):
            np.multiply(ys, -theta, out=buf)
            expit(buf, out=buf)
            return float(ys @ buf)
        return score
    if method == "ld":
        if k is None:
            raise ValueError("method 'ld' needs a grid order k")
        stat_sum = sum(linear_statistic(p, f) / n for p in perms)
        return lambda theta: stat_sum - m * w_k_prime(f, theta, k, **ipfp_kw)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"exact ML for linear models needs n <= {BRUTE_FORCE_LIMIT}")
    _, stats = enumerate_statistics(f, n)
    s_sum = sum(linear_statistic(p, f) for p in perms)

    def score(theta):
        w = theta * stats
        w -= w.max()
        e = np.exp(w)
        return (s_sum - m * float(np.sum(stats * e) / np.sum(e))) / n
    return score


@dataclass(frozen=True)
class UniformityTest:
    """Moment test of uniformity based on the normalized statistic.

    ``statistic`` is n^-3 sum i * tau(i); under a uniform tau its mean
    is (1/4)(1 + 1/n)^2 and its variance (1/(144 n))(1 - 1/n)(1 + 1/n)^2.
    """

    statistic: float
    mean: float
    variance: float
    z: float
    p_normal: float
    chebyshev_bound: float

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "mean": self.mean,
            "variance": self.variance,
            "z": self.z,
            "p_normal": self.p_normal,
            "chebyshev_bound": self.chebyshev_bound,
        }


def uniformity_test(tau: Permutation) -> UniformityTest:
    """Test tau for uniformity via the normalized linear statistic."""
    n = tau.n
    stat = float(np.dot(np.arange(1, n + 1, dtype=np.float64), tau.values)) / n ** 3
    mean = 0.25 * (1.0 + 1.0 / n) ** 2
    variance = (1.0 - 1.0 / n) * (1.0 + 1.0 / n) ** 2 / (144.0 * n)
    dev = stat - mean
    z = dev / math.sqrt(variance)
    p_normal = 0.5 * math.erfc(z / math.sqrt(2.0))
    chebyshev = 1.0 if dev == 0.0 else variance / dev ** 2
    return UniformityTest(stat, mean, variance, z, p_normal, chebyshev)


def threshold_test(theta_hat: float, theta0: float, theta1: float) -> bool:
    """Reject theta0 in favor of theta1 iff theta_hat exceeds the midpoint."""
    if not theta0 < theta1:
        raise ValueError("need theta0 < theta1")
    return theta_hat > 0.5 * (theta0 + theta1)


def multi_sample_scores(perms: Sequence[Permutation], f: ScoreFunction | None,
                        theta: float, method: str, k: int | None = None,
                        **ipfp_kw) -> float:
    """Summed estimating equation over i.i.d. samples; see :func:`multi_estimate`.

    With one sample and method ``"pl"`` this is the pseudo-likelihood
    score, the sum over pairs of y / (1 + e^{theta y}).
    """
    return float(_pooled_score(perms, f, method, k, **ipfp_kw)(theta))


def multi_estimate(perms: Sequence[Permutation], f: ScoreFunction | None, method: str,
                   root_tol: float = 1e-8, k: int | None = None,
                   **ipfp_kw) -> EstimateResult:
    """Estimate theta from i.i.d. samples; m = 1 is the single-sample fit.

    ``f`` is the score of a linear model, or None for the Kendall family.
    Each method solves one monotone equation, summed over the samples:

    * ``"pl"`` (linear only): the pseudo-likelihood score over all
      pairwise swaps; raises AllPairsDegenerateError when every pair
      score vanishes.
    * ``"ld"``: the mean statistic matched to the limiting derivative of
      the log normalizer.  Linear models need a grid order ``k`` and pass
      ``ipfp_kw`` (``tol``, ``max_iter``) to :func:`w_k_prime`.  For the
      Kendall family the statistic is Inv/n^2 and the derivative
      :func:`kendall_limit_C_prime`, whose range is (0, 1/2), so the
      identity and the reverse permutation have no root.
    * ``"ml"``: exact maximum likelihood.  Linear models enumerate S_n,
      which needs n <= 9; the Kendall family uses the closed-form
      q-factorial derivative and works at any n.

    ``k``, ``tol`` and ``max_iter`` apply to the linear model only.  No
    model temperature enters any equation.  The result is labelled PL,
    LD, ML, Kendall-LD or Kendall-ML; only linear LD reports ``k``.
    """
    score = _pooled_score(perms, f, method, k, **ipfp_kw)
    root, bracket, evals, resid = find_monotone_root(score, root_tol=root_tol)
    if f is None:
        return EstimateResult(root, f"Kendall-{method.upper()}", bracket, evals, resid)
    return EstimateResult(root, method.upper(), bracket, evals, resid,
                          k=k if method == "ld" else None)
