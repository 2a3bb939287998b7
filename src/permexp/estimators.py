"""Temperature estimators, root finding, and the uniformity test.

One entry point fits theta: :func:`multi_estimate` solves the estimating
equation of a method (PL, LD or ML) summed over i.i.d. samples, for the
linear family and for Kendall's tau alike; a single sample is a pooled
fit with m = 1.  :func:`multi_sample_scores` evaluates the same equation.

A fit builds everything that does not depend on theta once and then
evaluates only what does, about ten times per root: the PL pair scores
are stored (built in fixed-size row blocks, with no n x n array) and
each evaluation is one in-place exp pass over them; the LD score grid
f(r/k, s/k) is built once, and each evaluation is one IPFP run on
theta times it.

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

from .grids import ScoreFunction, grid_points
from .ipfp import _exp_limit
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


# Rows of pair scores built per block: the block's temporaries hold
# PAIR_BLOCK * n floats each, so the build adds little to its C(n,2) output.
PAIR_BLOCK = 128


def pairwise_swap_scores(pi: Permutation, f: ScoreFunction) -> np.ndarray:
    """All C(n,2) pairwise scores y(i,j) = f(i,pi(i)) + f(j,pi(j)) - f(i,pi(j)) - f(j,pi(i)).

    Arguments are scaled to the unit square.  y is unchanged by adding
    any phi(x) + psi(y) to f, which makes everything downstream
    invariant under that reparameterization.  The pairs come in i < j
    row-major order, written ``PAIR_BLOCK`` rows at a time, so no n x n
    array is ever built.
    """
    n = pi.n
    x = np.arange(1, n + 1) / n
    u = pi.values / n
    d = np.asarray(f(x, u), dtype=np.float64)
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for a in range(0, n - 1, PAIR_BLOCK):
        # the block's rows i against columns j > a; each row keeps its j > i
        i = np.arange(a, min(a + PAIR_BLOCK, n - 1))[:, None]
        j = np.arange(a + 1, n)[None, :]
        y = d[i] + d[j]
        y -= f(x[i], u[j])
        y -= f(x[j], u[i])
        part = y[j > i]
        out[start:start + part.size] = part
        start += part.size
    return out


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


def _reject_given(owner: str, settings: dict) -> None:
    """Raise ValueError naming every setting in ``settings`` that is not None."""
    given = [name for name, value in settings.items() if value is not None]
    if given:
        raise ValueError(f"{owner} takes no {', '.join(given)}")


def _pooled_score(perms: Sequence[Permutation], f: ScoreFunction | None, method: str,
                  k: int | None = None, tol: float | None = None,
                  max_iter: int | None = None) -> Callable[[float], float]:
    """The estimating equation of ``method`` summed over i.i.d. samples.

    ``f`` is the linear model's score, or None for the Kendall family.
    Everything that does not depend on theta (pair scores, statistics,
    the S_n enumeration, the LD score grid) is built once here; the
    returned closure maps theta to the summed equation.  With one sample
    it is the single-sample equation exactly.
    """
    if method not in ("pl", "ld", "ml"):
        raise ValueError(f"unknown method {method!r}")
    n = _check_same_n(perms)
    m = len(perms)
    ld_settings = {"k": k, "tol": tol, "max_iter": max_iter}
    if f is None:
        _reject_given("the Kendall model", ld_settings)
        if method == "pl":
            raise ValueError("pseudo-likelihood applies to the linear model only")
        rate_sum = sum(inversions(p) / (n * n) for p in perms)
        if method == "ld":
            return lambda theta: rate_sum - m * kendall_limit_C_prime(theta)
        return lambda theta: rate_sum - m * kendall_logZ_prime(n, theta)
    if method != "ld":
        _reject_given(f"method {method!r}", ld_settings)
    if method == "pl":
        ys = np.concatenate([pairwise_swap_scores(p, f) for p in perms])
        if not np.any(ys):
            raise AllPairsDegenerateError("all pairwise scores vanish")
        buf = np.empty_like(ys)

        def score(theta):
            # sum y / (1 + e^{theta y}); an overflowed e^{theta y} gives the
            # term its limit, +-0
            np.multiply(ys, theta, out=buf)
            with np.errstate(over="ignore"):
                np.exp(buf, out=buf)
            np.add(buf, 1.0, out=buf)
            np.divide(ys, buf, out=buf)
            return float(buf.sum())
        return score
    if method == "ld":
        if k is None:
            raise ValueError("method 'ld' needs a grid order k")
        tol = 1e-12 if tol is None else tol
        stat_sum = sum(linear_statistic(p, f) / n for p in perms)
        grid = np.asarray(f(*grid_points(k)), dtype=np.float64)

        def score(theta):
            # stat_sum - m * w_k_prime(f, theta, k, tol, max_iter), bit for bit
            if not math.isfinite(theta):
                raise ValueError("theta must be finite")
            limit = _exp_limit(theta * grid, theta, tol, max_iter).grid.w
            return stat_sum - m * float(np.sum(grid * limit))
        return score
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
                        tol: float | None = None, max_iter: int | None = None) -> float:
    """Summed estimating equation over i.i.d. samples; see :func:`multi_estimate`.

    With one sample and method ``"pl"`` this is the pseudo-likelihood
    score, the sum over pairs of y / (1 + e^{theta y}).
    """
    return float(_pooled_score(perms, f, method, k, tol, max_iter)(theta))


def multi_estimate(perms: Sequence[Permutation], f: ScoreFunction | None, method: str,
                   root_tol: float = 1e-8, k: int | None = None,
                   tol: float | None = None, max_iter: int | None = None) -> EstimateResult:
    """Estimate theta from i.i.d. samples; m = 1 is the single-sample fit.

    ``f`` is the score of a linear model, or None for the Kendall family.
    Each method solves one monotone equation, summed over the samples:

    * ``"pl"`` (linear only): the pseudo-likelihood score over all
      pairwise swaps; raises AllPairsDegenerateError when every pair
      score vanishes.
    * ``"ld"``: the mean statistic matched to the limiting derivative of
      the log normalizer.  Linear models need a grid order ``k``; ``tol``
      (default 1e-12) and ``max_iter`` go to the IPFP as in
      :func:`w_k_prime`, whose value the equation reproduces bit for
      bit.  For the Kendall family the statistic is Inv/n^2 and the derivative
      :func:`kendall_limit_C_prime`, whose range is (0, 1/2), so the
      identity and the reverse permutation have no root.
    * ``"ml"``: exact maximum likelihood.  Linear models enumerate S_n,
      which needs n <= 9; the Kendall family uses the closed-form
      q-factorial derivative and works at any n.

    ``k``, ``tol`` and ``max_iter`` apply to linear LD only; any other
    fit given one raises ValueError.  No model temperature enters any
    equation.  The result is labelled PL, LD, ML, Kendall-LD or
    Kendall-ML; only linear LD reports ``k``.

    The work splits into a per-fit part and a per-theta part.  Once per
    fit: the pair scores (PL), the statistics, the S_n enumeration (ML)
    and the LD score grid f(r/k, s/k).  Once per theta, for each of the
    root finder's evaluations: one pass over the stored pair scores
    (PL), one IPFP run on theta times the stored grid (LD), or one sum
    over the enumeration (ML).
    """
    score = _pooled_score(perms, f, method, k, tol, max_iter)
    root, bracket, evals, resid = find_monotone_root(score, root_tol=root_tol)
    if f is None:
        return EstimateResult(root, f"Kendall-{method.upper()}", bracket, evals, resid)
    return EstimateResult(root, method.upper(), bracket, evals, resid,
                          k=k if method == "ld" else None)
