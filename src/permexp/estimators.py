"""Temperature estimators, root finding, and the uniformity test.

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
    KendallModel,
    Model,
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
    "pl_score",
    "pl_score_derivative",
    "pl_estimate",
    "ld_score",
    "ld_estimate",
    "ld_root_for_statistic",
    "ml_exact",
    "kendall_ld_estimate",
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


def find_monotone_root(score: Callable[[float], float], root_tol: float = 1e-8,
                       lo: float = -1.0, hi: float = 1.0,
                       cap: float = BRACKET_CAP) -> tuple[float, tuple, int, float]:
    """Root of a strictly decreasing score by bracket expansion + Brent's method.

    The true root lies within ``root_tol`` (plus brentq's relative
    tolerance, 4 eps |root|) of the returned value.  Returns
    (root, sign-change bracket, evaluations, score at root), where
    evaluations counts distinct calls of ``score``.  Raises NoRootError
    when no sign change exists within [-cap, cap], and ValueError when
    Brent's method does not reach ``root_tol`` within its iteration cap.
    """
    if not root_tol > 0:
        raise ValueError("root_tol must be positive")
    seen: dict[float, float] = {}
    s_lo = _memo_score(lo, score, seen)
    while s_lo < 0 and lo > -cap:
        lo = max(-cap, 2.0 * lo)
        s_lo = _memo_score(lo, score, seen)
    if s_lo < 0:
        raise NoRootError("negative", (lo, hi), len(seen))
    if s_lo == 0:
        return lo, (lo, lo), len(seen), 0.0

    s_hi = _memo_score(hi, score, seen)
    while s_hi > 0 and hi < cap:
        hi = min(cap, 2.0 * hi)
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


def _pl_equation(ys: np.ndarray) -> Callable[[float], float]:
    buf = np.empty_like(ys)

    def score(theta):
        np.multiply(ys, -theta, out=buf)
        expit(buf, out=buf)
        return float(ys @ buf)
    return score


def pl_score(pi: Permutation, f: ScoreFunction, theta: float) -> float:
    """Pseudo-likelihood score: sum over pairs of y / (1 + e^{theta y})."""
    return _pl_equation(pairwise_swap_scores(pi, f))(theta)


def pl_score_derivative(pi: Permutation, f: ScoreFunction, theta: float) -> float:
    """d/dtheta of pl_score: -sum y^2 sigma(theta y) sigma(-theta y) < 0."""
    y = pairwise_swap_scores(pi, f)
    return float(-np.sum(y * y * expit(theta * y) * expit(-theta * y)))


def _check_same_n(perms: Sequence[Permutation]) -> int:
    if not perms:
        raise ValueError("need at least one permutation")
    n = perms[0].n
    if any(p.n != n for p in perms):
        raise ValueError("size mismatch across samples")
    return n


def _ld_equation(stat_sum: float, m: int, f: ScoreFunction, k: int,
                 **ipfp_kw) -> Callable[[float], float]:
    return lambda theta: stat_sum - m * w_k_prime(f, theta, k, **ipfp_kw)


def _pooled_score(perms: Sequence[Permutation], f: ScoreFunction, method: str,
                  k: int | None = None, **ipfp_kw) -> Callable[[float], float]:
    """The estimating equation of ``method`` summed over i.i.d. samples.

    The per-sample work (pair scores, statistics, the S_n enumeration)
    is done once here; the returned closure maps theta to the summed
    equation.  With one sample it is the single-sample equation exactly.
    """
    n = _check_same_n(perms)
    m = len(perms)
    if method == "pl":
        ys = np.concatenate([pairwise_swap_scores(p, f) for p in perms])
        if not np.any(ys):
            raise AllPairsDegenerateError("all pairwise scores vanish")
        return _pl_equation(ys)
    if method == "ld":
        if k is None:
            raise ValueError("method 'ld' needs a grid order k")
        return _ld_equation(sum(linear_statistic(p, f) / n for p in perms), m, f, k,
                            **ipfp_kw)
    if method == "ml":
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
    raise ValueError(f"unknown method {method!r}")


def _solve(score: Callable[[float], float], label: str, root_tol: float,
           k: int | None = None) -> EstimateResult:
    root, bracket, evals, resid = find_monotone_root(score, root_tol=root_tol)
    return EstimateResult(root, label, bracket, evals, resid, k=k)


def pl_estimate(pi: Permutation, f: ScoreFunction, root_tol: float = 1e-8) -> EstimateResult:
    """Pseudo-likelihood estimate of theta from a single permutation."""
    return _solve(_pooled_score([pi], f, "pl"), "PL", root_tol)


def ld_score(pi: Permutation, f: ScoreFunction, theta: float, k: int,
             tol: float = 1e-12, max_iter: int | None = None) -> float:
    """Limiting-normalizer estimating equation at grid order k.

    Mean statistic of pi minus the grid approximation of the limiting
    derivative of the log normalizer.
    """
    return _pooled_score([pi], f, "ld", k, tol=tol, max_iter=max_iter)(theta)


def ld_root_for_statistic(stat: float, f: ScoreFunction, k: int,
                          root_tol: float = 1e-8, tol: float = 1e-12,
                          max_iter: int | None = None) -> tuple[float, tuple, int, float]:
    """Solve stat = w_k'(theta) for theta (the LD inverse problem)."""
    return find_monotone_root(_ld_equation(stat, 1, f, k, tol=tol, max_iter=max_iter),
                              root_tol=root_tol)


def ld_estimate(pi: Permutation, f: ScoreFunction, k: int, root_tol: float = 1e-8,
                tol: float = 1e-12, max_iter: int | None = None) -> EstimateResult:
    """Estimate theta by matching the statistic to the limiting derivative."""
    return _solve(_pooled_score([pi], f, "ld", k, tol=tol, max_iter=max_iter), "LD",
                  root_tol, k=k)


def ml_exact(pi: Permutation, model: Model, root_tol: float = 1e-8) -> EstimateResult:
    """Exact maximum-likelihood estimate.

    Linear models use full enumeration of S_n (n <= 9) for the
    normalizer derivative; the Kendall family uses the closed-form
    q-factorial derivative and works at any n.  The supplied model's
    theta is ignored; only its family matters.
    """
    if isinstance(model, KendallModel):
        n = pi.n
        rate = inversions(pi) / (n * n)
        return _solve(lambda theta: rate - kendall_logZ_prime(n, theta), "Kendall-ML",
                      root_tol)
    return _solve(_pooled_score([pi], model.f, "ml"), "ML", root_tol)


def kendall_ld_estimate(pi: Permutation, root_tol: float = 1e-8) -> EstimateResult:
    """Kendall-family estimate matching Inv/n^2 to the limiting derivative.

    The limiting derivative is strictly increasing with range (0, 1/2),
    so extremal inversion rates (identity or reverse) have no root.
    """
    n = pi.n
    rate = inversions(pi) / (n * n)
    return _solve(lambda theta: rate - kendall_limit_C_prime(theta), "Kendall-LD", root_tol)


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


def multi_sample_scores(perms: Sequence[Permutation], f: ScoreFunction,
                        theta: float, method: str, k: int | None = None,
                        **ipfp_kw) -> float:
    """Summed estimating equation over i.i.d. samples."""
    return float(_pooled_score(perms, f, method, k, **ipfp_kw)(theta))


def multi_estimate(perms: Sequence[Permutation], f: ScoreFunction, method: str,
                   root_tol: float = 1e-8, k: int | None = None,
                   **ipfp_kw) -> EstimateResult:
    """Pooled estimate from i.i.d. samples; m = 1 is the single-sample fit."""
    score = _pooled_score(perms, f, method, k, **ipfp_kw)
    return _solve(score, method.upper(), root_tol, k=k if method == "ld" else None)
