"""Temperature estimators, root finding, and the uniformity test.

One entry point fits theta: :func:`multi_estimate` solves the estimating
equation of a method (PL, LD or ML) summed over i.i.d. samples, for the
linear family and for Kendall's tau alike; a single sample is a pooled
fit with m = 1.  :func:`estimating_equation` returns the equation it
solves, a map from theta to the summed value.

A fit builds everything that does not depend on theta once and then
evaluates only what does, about eight times per root: the PL pair scores
of all samples are stored in one array (built in fixed-size row blocks,
with no n x n array), and each evaluation streams them through a scratch
buffer of ``SCORE_BLOCK`` values with in-place exp passes; the LD score
grid f(r/k, s/k) is built once, and each evaluation is one IPFP run on
theta times it, which returns the mean <F, A> without building the grid
A.  Which source the run takes its mat-vecs from, the dense kernel or a
convolution, is :mod:`permexp.ipfp`'s rule: for xy, centered and sq at
k >= 450 it is the convolution at either sign of theta, so no evaluation
of such a fit, the bracket's first probe at theta = -1 included, builds
a k x k kernel.

All estimating equations here are strictly monotone in theta, so roots
are located by a bracket search from -1 and 1 that probes outward past
the secant root of its last two probes, with steps that at least double
(capped at [-64, 64]), followed by Brent's method (Brent 1973, ch. 4)
on the last two probes, the tightest sign change found; the true root
lies within ``root_tol`` of the returned theta.  A score with constant
sign over the capped bracket raises :class:`NoRootError` rather than
failing silently.  That names no sign change within [-64, 64], not data
without a root: the Kendall-LD root of the reverse permutation at
n = 366 lies near 730, beyond the cap.
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import ScoreFunction, lattice, score_grid
from .ipfp import DEFAULT_TOL, limit_matrix
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
    "uniformity_test",
    "threshold_test",
    "estimating_equation",
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
    """The data carry no information about theta.

    Raised for a one-element permutation, and for a PL fit whose pairwise
    swap scores are all zero.
    """


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
        value = score(t)
        if math.isnan(value):
            raise ValueError(f"score is NaN at theta={t!r}")
        seen[t] = value
    return seen[t]


# Brent's relative tolerance and iteration cap: the defaults of scipy's brentq
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAX_ITER = 100


def _brent(f: Callable[[float], float], xpre: float, xcur: float,
           fpre: float, fcur: float, xtol: float) -> float | None:
    """Root of f between xpre and xcur, whose values fpre and fcur differ in sign.

    Brent's method (Brent 1973, ch. 4) step for step as in scipy's
    ``brentq.c``, so it returns the same root bit for bit.  The root is
    a point where f was evaluated, within xtol + BRENT_RTOL |root| of a
    sign change; None when BRENT_MAX_ITER iterations do not reach that.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant through the two points
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic through the three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return None


def find_monotone_root(score: Callable[[float], float],
                       root_tol: float = 1e-8) -> tuple[float, tuple, int, float]:
    """Root of a strictly decreasing score by a secant-guided bracket + Brent's method.

    The search evaluates the score at -1 and 1.  While the last two
    probes agree in sign, it probes outward at b + 1.5 (r - b), r being
    the secant root through them and b the last probe, with a step of at
    least 1 the first time and at least twice the previous step after
    that, up to ``BRACKET_CAP``; the worst case thus probes 2, 4, ..., 64
    as a doubling search would.  Brent's method then runs on the last two
    probes, the tightest sign change found.  The true root lies within
    ``root_tol`` (plus Brent's relative tolerance, 4 eps |root|) of the
    returned value.  Returns (root, sign-change bracket, evaluations,
    score at root), where evaluations counts distinct calls of ``score``.
    Raises NoRootError when no sign change exists within
    [-BRACKET_CAP, BRACKET_CAP], naming the interval searched, and
    ValueError when ``root_tol`` is not positive and finite, the score is
    NaN, or Brent's method does not reach ``root_tol`` within
    BRENT_MAX_ITER iterations.
    """
    if not root_tol > 0:
        raise ValueError("root_tol must be positive")
    if not math.isfinite(root_tol):
        raise ValueError("root_tol must be finite")
    seen: dict[float, float] = {}
    prev, cur = -1.0, 1.0
    s_prev = _memo_score(prev, score, seen)
    if s_prev == 0:
        return prev, (prev, prev), 1, 0.0
    s_cur = _memo_score(cur, score, seen)
    if s_prev < 0 and s_cur < 0:
        # the root lies below -1: search downward from there
        prev, cur, s_prev, s_cur = cur, prev, s_cur, s_prev
    min_step = 1.0
    while s_cur != 0 and (s_cur < 0) == (s_prev < 0):
        if abs(cur) >= BRACKET_CAP:
            sign = "positive" if s_cur > 0 else "negative"
            raise NoRootError(sign, (min(seen), max(seen)), len(seen))
        # 1.5 times the step to the secant root; a flat or NaN secant, or a
        # step short of min_step, gives way to min_step
        outward = 1.0 if s_cur > 0 else -1.0
        drop = s_prev - s_cur
        step = 1.5 * s_cur * (cur - prev) / drop if drop else 0.0
        if not outward * step >= min_step:
            step = outward * min_step
        nxt = max(-BRACKET_CAP, min(BRACKET_CAP, cur + step))
        min_step = 2.0 * abs(nxt - cur)
        prev, s_prev, cur = cur, s_cur, nxt
        s_cur = _memo_score(cur, score, seen)
    if s_cur == 0:
        return cur, (cur, cur), len(seen), 0.0
    (lo, s_lo), (hi, s_hi) = sorted([(prev, s_prev), (cur, s_cur)])
    root = _brent(lambda t: _memo_score(t, score, seen), lo, hi, s_lo, s_hi, root_tol)
    if root is None:
        raise ValueError(f"root finder did not converge to root_tol={root_tol:g} "
                         f"in {BRENT_MAX_ITER} iterations")
    return root, (lo, hi), len(seen), seen[root]


# Rows of pair scores built per block: the block's temporaries hold
# PAIR_BLOCK * n floats each, so the build adds little to its C(n,2) output.
PAIR_BLOCK = 128

# Pair scores per slice of one PL evaluation.  Its scratch buffer holds
# SCORE_BLOCK floats (512 KB), so an evaluation adds no second C(n,2)
# array.  Measured at n = 2000 (2 cores, best of 30): 4.7-4.9 ms per
# evaluation in slices of 2^16 values, against 6.2-6.9 ms in one pass
# over all 2e6 and 6.8-8.7 ms in slices of 2^12.
SCORE_BLOCK = 1 << 16


def pairwise_swap_scores(pi: Permutation, f: ScoreFunction,
                         out: np.ndarray | None = None) -> np.ndarray:
    """All C(n,2) pairwise scores y(i,j) = f(i,pi(i)) + f(j,pi(j)) - f(i,pi(j)) - f(j,pi(i)).

    Arguments are scaled to the unit square.  y is unchanged by adding
    any phi(x) + psi(y) to f, which makes everything downstream
    invariant under that reparameterization.  The pairs come in i < j
    row-major order, written ``PAIR_BLOCK`` rows at a time, so no n x n
    array is ever built.  They are written into ``out`` (a float64
    array of C(n,2) values, returned) when it is given.
    """
    n = pi.n
    pairs = n * (n - 1) // 2
    if out is None:
        out = np.empty(pairs)
    elif out.shape != (pairs,):
        raise ValueError(f"out must hold {pairs} pair scores, not shape {out.shape}")
    x = lattice(n)
    u = x[pi.values - 1]
    d = np.asarray(f(x, u), dtype=np.float64)
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


def estimating_equation(perms: Sequence[Permutation], f: ScoreFunction | None,
                        method: str, k: int | None = None, tol: float | None = None,
                        max_iter: int | None = None) -> Callable[[float], float]:
    """The estimating equation of ``method`` summed over i.i.d. samples.

    ``f`` is the linear model's score, or None for the Kendall family;
    methods and settings are those of :func:`multi_estimate`, which
    solves this equation.  Everything that does not depend on theta
    (pair scores, statistics, the S_n enumeration, the LD score grid) is
    built, and checked, once here; the returned closure maps theta to the
    summed equation, with one sample the single-sample equation exactly
    (for ``"pl"``, the sum over pairs of y / (1 + e^{theta y})).
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
    elif method != "ld":
        _reject_given(f"method {method!r}", ld_settings)
    if n == 1:
        # S_1 has one permutation, so every equation is 0 at every theta
        raise AllPairsDegenerateError("one element carries no information about theta")
    if f is None:
        rate_sum = sum(inversions(p) / (n * n) for p in perms)
        if method == "ld":
            return lambda theta: rate_sum - m * kendall_limit_C_prime(theta)
        return lambda theta: rate_sum - m * kendall_logZ_prime(n, theta)
    if method == "pl":
        pairs = n * (n - 1) // 2
        ys = np.empty(m * pairs)
        for p, row in zip(perms, ys.reshape(m, pairs)):
            pairwise_swap_scores(p, f, out=row)
        if not np.any(ys):
            raise AllPairsDegenerateError("all pairwise scores vanish")
        buf = np.empty(min(ys.size, SCORE_BLOCK))

        def score(theta):
            # sum y / (1 + e^{theta y}), one SCORE_BLOCK slice at a time; an
            # overflowed e^{theta y} gives the term its limit, +-0
            sums = []
            with np.errstate(over="ignore"):
                for start in range(0, ys.size, SCORE_BLOCK):
                    y = ys[start:start + SCORE_BLOCK]
                    b = buf[:y.size]
                    np.multiply(y, theta, out=b)
                    np.exp(b, out=b)
                    np.add(b, 1.0, out=b)
                    np.divide(y, b, out=b)
                    sums.append(float(b.sum()))
            return math.fsum(sums)
        return score
    if method == "ld":
        if k is None:
            raise ValueError("method 'ld' needs a grid order k")
        tol = DEFAULT_TOL if tol is None else tol
        stat_sum = sum(linear_statistic(p, f) / n for p in perms)
        grid = score_grid(f, k)

        def score(theta):
            # stat_sum - m * w_k_prime(f, theta, k, tol, max_iter), bit for bit;
            # the run's stored mean <F, A> spares building its grid A
            limit = limit_matrix(f, theta, k, tol, max_iter, score_grid=grid)
            return stat_sum - m * limit.score_mean
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
        return asdict(self)


def uniformity_test(tau: Permutation) -> UniformityTest:
    """Test tau for uniformity via the normalized linear statistic; needs n >= 2."""
    n = tau.n
    if n < 2:
        raise ValueError("uniformity test needs n >= 2")
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
      (default ``DEFAULT_TOL``, 1e-12) and ``max_iter`` go to the IPFP as in
      :func:`w_k_prime`, whose value the equation reproduces bit for
      bit.  For the Kendall family the statistic is Inv/n^2 and the derivative
      :func:`kendall_limit_C_prime`, whose range is (0, 1/2).  The
      identity's rate 0 lies outside that range, so it has no root.  The
      reverse permutation's rate (n - 1)/(2n) lies inside it, and its
      root, about 2n - 1.7 (38.28 at n = 20), passes the bracket cap
      from n = 33 on: at n = 366 it is near 730 and the fit raises
      NoRootError.
    * ``"ml"``: exact maximum likelihood.  Linear models enumerate S_n,
      which needs n <= 9; the Kendall family uses the closed-form
      q-factorial derivative and works at any n.

    ``k``, ``tol`` and ``max_iter`` apply to linear LD only; any other
    fit given one raises ValueError.  Every method raises
    AllPairsDegenerateError at n = 1, where each equation is 0 at every
    theta.  No model temperature enters any equation.  The result is
    labelled PL, LD, ML, Kendall-LD or Kendall-ML; only linear LD reports
    ``k``.

    The work splits into a per-fit part and a per-theta part.  Once per
    fit: the pair scores (PL), the statistics, the S_n enumeration (ML)
    and the LD score grid f(r/k, s/k).  Once per theta, for each of the
    root finder's evaluations: one pass over the stored pair scores
    (PL), one IPFP run on theta times the stored grid (LD), or one sum
    over the enumeration (ML).
    """
    score = estimating_equation(perms, f, method, k, tol, max_iter)
    root, bracket, evals, resid = find_monotone_root(score, root_tol=root_tol)
    if f is None:
        return EstimateResult(root, f"Kendall-{method.upper()}", bracket, evals, resid)
    return EstimateResult(root, method.upper(), bracket, evals, resid,
                          k=k if method == "ld" else None)
