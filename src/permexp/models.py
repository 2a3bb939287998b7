"""Model definitions, the linear statistics of S_n, and Kendall closed forms.

Two one-parameter families on S_n are supported:

* ``LinearModel``: log-weight theta * sum_i f(i/n, pi(i)/n) for a score
  function f (f = xy gives the Spearman rank-correlation family).
* ``KendallModel``: the Mallows model with Kendall's tau in its
  temperature scaling, log-weight (theta/n) * Inv(pi), whose
  normalizing constant has a closed q-factorial form.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .grids import ScoreFunction, _is_builtin, _not_finite, lattice, score_grid

__all__ = [
    "LinearModel",
    "KendallModel",
    "Model",
    "BRUTE_FORCE_LIMIT",
    "enumerate_statistics",
    "kendall_logZ",
    "kendall_logZ_prime",
    "kendall_limit_C",
    "kendall_limit_C_prime",
    "kendall_limit_density",
    "grid_discordance",
]

# Enumeration guard for exact linear ML: 9! = 362880 permutations.
BRUTE_FORCE_LIMIT = 9

# Lattice cells per block of a custom score's finiteness check.
_CHECK_CELLS = 1 << 15


def _check_parameters(theta: float, n: int) -> None:
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


@dataclass(frozen=True)
class LinearModel:
    """pmf proportional to exp(theta * sum_i f(i/n, pi(i)/n))."""

    f: ScoreFunction
    theta: float
    n: int

    def __post_init__(self):
        _check_parameters(self.theta, self.n)
        # a swap chain reads f on the n x n lattice, never through score_grid;
        # the built-ins are finite on [0, 1]^2, so only a custom score is
        # checked, in row blocks that keep no n x n array
        if _is_builtin(self.f):
            return
        t = lattice(self.n)
        rows = max(1, _CHECK_CELLS // self.n)
        for lo in range(0, self.n, rows):
            block = np.asarray(self.f(t[lo:lo + rows, None], t[None, :]), dtype=np.float64)
            if not (np.isfinite(block.min()) and np.isfinite(block.max())):
                raise _not_finite(self.f, self.n)


@dataclass(frozen=True)
class KendallModel:
    """Mallows pmf proportional to exp((theta/n) * Inv(pi)).

    The weight factorises over the insertion code V_j = #{i < j : pi(i) >
    pi(j)}, whose coordinates are independent with P(V_j = v) proportional
    to e^{(theta/n) v} on {0..j-1}; ``mcmc.sample`` draws from it exactly.
    """

    theta: float
    n: int

    def __post_init__(self):
        _check_parameters(self.theta, self.n)


Model = Union[LinearModel, KendallModel]


@functools.lru_cache(maxsize=4)
def _all_permutations(n: int) -> np.ndarray:
    """(n!, n) array of all permutations of {1..n}; cached, read-only."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    perms.setflags(write=False)
    return perms


def enumerate_statistics(f: ScoreFunction, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of S_n with their linear statistics (n <= 9)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(n)
    return perms, score_grid(f, n)[np.arange(n), perms - 1].sum(axis=1)


def _log_expm1_ratio(x):
    """log((e^x - 1) / x), continuous through 0; vectorized and stable."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    big = x > 500.0
    rest = ~big & (x != 0)
    xb = x[big]
    out[big] = xb - np.log(xb) + np.log1p(-np.exp(-xb))
    xr = x[rest]
    out[rest] = np.log(np.expm1(xr) / xr)
    return out


def kendall_logZ(n: int, theta: float) -> float:
    """Exact log normalizer of the Kendall model: log sum_pi e^{(theta/n) Inv}.

    Uses the q-factorial product with q = e^{theta/n}; each factor is
    evaluated as log j + log((e^{xj}-1)/xj) - log((e^{x}-1)/x) with
    x = theta/n, which stays stable uniformly in theta, including the
    theta -> 0 limit log n!.
    """
    _check_parameters(theta, n)
    log_nfac = math.lgamma(n + 1)
    if theta == 0.0:
        return log_nfac
    j = np.arange(1, n + 1, dtype=np.float64)
    x = theta / n
    return float(log_nfac + _log_expm1_ratio(x * j).sum() - n * _log_expm1_ratio(x))


def _inv_expm1_ratio(x):
    """psi(x) = 1/(1 - e^{-x}) - 1/x, continuous with psi(0) = 1/2.

    Below |x| = 0.1 the two terms cancel, so psi comes from its Bernoulli
    series 1/2 + sum B_2m x^(2m-1) / (2m)!; the first omitted term is
    under 1e-20 relative there.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    small = np.abs(x) < 0.1
    xs = x[~small]
    with np.errstate(over="ignore"):
        out[~small] = 1.0 / (-np.expm1(-xs)) - 1.0 / xs
    xt = x[small]
    x2 = xt * xt
    out[small] = 0.5 + xt * (1.0 / 12.0 + x2 * (-1.0 / 720.0 + x2 * (
        1.0 / 30240.0 + x2 * (-1.0 / 1209600.0 + x2 / 47900160.0))))
    return out


def kendall_logZ_prime(n: int, theta: float) -> float:
    """Normalized derivative (1/n) d/dtheta of kendall_logZ.

    Equals E[Inv]/n^2 under the model; (n-1)/(4n) at theta = 0.
    """
    _check_parameters(theta, n)
    j = np.arange(1, n + 1, dtype=np.float64)
    x = theta / n
    terms = (j / n) * _inv_expm1_ratio(x * j) - (1.0 / n) * _inv_expm1_ratio(np.full_like(j, x))
    return float(terms.sum() / n)


def _composite_gauss_legendre(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of ``order``-point Gauss-Legendre on each piece between edges."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    half = (b - a) / 2
    return ((a + half) + half * nodes).ravel(), (half * weights).ravel()


# The rule for the Kendall limit integrals over [0, 1].  Their integrands,
# functions of theta x, are analytic but vary on the scale 1/|theta| next
# to x = 0 (poles at x = 2 pi i m / theta); pieces that shrink tenfold
# toward 0 keep every piece resolved.  Against mpmath the integrals come
# out within 2e-14 absolute (C') and 4e-16 relative (C) for |theta| from
# 1e-3 to 1e8; below that C' inherits psi's cancellation (3e-13 at 1e-4).
_LIMIT_NODES, _LIMIT_WEIGHTS = _composite_gauss_legendre(
    np.array([0.0] + [10.0 ** -j for j in range(7, -1, -1)]), 32)


def kendall_limit_C(theta: float) -> float:
    """Limit of (kendall_logZ(n, theta) - log n!)/n as n grows.

    The integral over [0,1] of log((e^{theta x}-1)/(theta x)), by a
    fixed composite Gauss-Legendre rule; satisfies C(0) = 0 and
    C(theta) = C(-theta) + theta/2.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta == 0.0:
        return 0.0
    return float(_LIMIT_WEIGHTS @ _log_expm1_ratio(theta * _LIMIT_NODES))


def kendall_limit_C_prime(theta: float) -> float:
    """Derivative of kendall_limit_C: the integral over [0,1] of x psi(theta x).

    Strictly increasing with range (0, 1/2); equals 1/4 at theta = 0.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta == 0.0:
        return 0.25
    return float(_LIMIT_WEIGHTS @ (_LIMIT_NODES * _inv_expm1_ratio(theta * _LIMIT_NODES)))


def grid_discordance(p: np.ndarray) -> float:
    """Discordance mass of an independent pair from cell probabilities p.

    Probability that two independent draws from the grid land in cells
    (r1,s1), (r2,s2) with (r1-r2)(s1-s2) < 0; O(k^2) using cumulative
    sums.
    """
    p = np.asarray(p, dtype=np.float64)
    below = np.zeros_like(p)
    below[:, 1:] = np.cumsum(p, axis=1)[:, :-1]       # strictly left in s
    rows_after = np.cumsum(below[::-1], axis=0)[::-1]
    strictly = np.zeros_like(p)
    strictly[:-1] = rows_after[1:]                    # strictly below in r
    return float(2.0 * np.sum(p * strictly))


def kendall_limit_density(theta: float, k: int) -> np.ndarray:
    """Limit density of the Kendall model sampled at grid midpoints.

    Returns the k x k density values (approaching the constant 1 as
    theta -> 0); divide by k^2 for cell probabilities.  For theta > 0,
    a = theta/2, s = |x+y-1|, d = |x-y|, it is a sinh(a) / (e^{-a/2} cosh(ad)
    - e^{a/2} cosh(as))^2 scaled so that nothing overflows: 2a (1 - e^{-2a})
    e^{-2as} / D^2 with D = 1 + e^{-2as} - e^{-a(1+s-d)} - e^{-a(1+s+d)},
    summed as expm1 terms.  Negative theta reflects x -> 1-x, swapping s, d.
    """
    if k < 2:
        raise ValueError("grid order must be >= 2")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(theta) < 1e-8:
        return np.ones((k, k))
    # four k x k arrays, each op in place: s, d, D and one term of D
    mid = (np.arange(k) + 0.5) / k
    s = mid[:, None] + mid
    s -= 1.0
    np.abs(s, out=s)
    d = mid[:, None] - mid
    np.abs(d, out=d)
    if theta < 0:
        s, d = d, s
    a = abs(theta) / 2.0
    den = s * (-2.0 * a)
    np.expm1(den, out=den)
    term = np.empty_like(s)
    for op in (np.subtract, np.add):  # the terms e^{-a(1 + s -/+ d)} - 1
        op(np.add(s, 1.0, out=term), d, out=term)
        term *= -a
        den -= np.expm1(term, out=term)
    # one exp of the numerator's log: no rounding through a subnormal
    s *= -2.0 * a
    s += math.log(2.0 * a * -math.expm1(-2.0 * a))
    np.exp(s, out=s)
    den *= den
    s /= den
    return s
