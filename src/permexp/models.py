"""Model definitions, exact small-n oracles, and Kendall closed forms.

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
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from .grids import ScoreFunction, grid_points
from .perm import Permutation, inversions, linear_statistic

__all__ = [
    "LinearModel",
    "KendallModel",
    "Model",
    "BRUTE_FORCE_LIMIT",
    "brute_logZ",
    "enumerate_pmf",
    "enumerate_statistics",
    "kendall_logZ",
    "kendall_logZ_prime",
    "kendall_limit_C",
    "kendall_limit_C_prime",
    "kendall_limit_density",
    "grid_discordance",
]

# Enumeration guard for the exact oracles: 9! = 362880 permutations.
BRUTE_FORCE_LIMIT = 9


# Largest n whose swap log-ratios read four cells of the n x n score table;
# above it each ratio calls f once on the four points as one array.  The
# table is n^2 floats, 8 MB at 1024; at n=2000 it would add 32 MB, about 28%
# of the sample benchmark's peak RSS.
SCORE_TABLE_MAX_N = 1024


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

    def __reduce__(self):
        # copies and pickles rebuild from the fields; the cached memoryview
        # of the score table cannot be pickled
        return (LinearModel, (self.f, self.theta, self.n))

    @functools.cached_property
    def score_table(self) -> np.ndarray:
        """Read-only n x n table of f(i/n, v/n), row i-1, column v-1."""
        table = np.asarray(self.f(*grid_points(self.n)), dtype=np.float64)
        table.setflags(write=False)
        return table

    def log_weight(self, pi: Permutation) -> float:
        return self.theta * linear_statistic(pi, self.f)

    @functools.cached_property
    def _score_cells(self) -> memoryview:
        """score_table as a memoryview: cells read as Python floats."""
        return memoryview(self.score_table)

    def swap_log_ratio(self, values: np.ndarray, i: int, j: int) -> float:
        """log weight change from swapping positions i, j (0-based)."""
        n = self.n
        vi = values.item(i)
        vj = values.item(j)
        if n <= SCORE_TABLE_MAX_N:
            s = self._score_cells
            vi -= 1
            vj -= 1
            y = s[i, vi] + s[j, vj] - s[i, vj] - s[j, vi]
        else:
            xi, xj = (i + 1) / n, (j + 1) / n
            ui, uj = vi / n, vj / n
            a, b, c, d = self.f(np.array((xi, xj, xi, xj)),
                                np.array((ui, uj, uj, ui))).tolist()
            y = a + b - c - d
        return -self.theta * y


@dataclass(frozen=True)
class KendallModel:
    """Mallows pmf proportional to exp((theta/n) * Inv(pi))."""

    theta: float
    n: int

    def __post_init__(self):
        _check_parameters(self.theta, self.n)

    def log_weight(self, pi: Permutation) -> float:
        return (self.theta / self.n) * inversions(pi)

    def swap_log_ratio(self, values: np.ndarray, i: int, j: int) -> float:
        """log weight change from swapping positions i, j (0-based)."""
        if i > j:
            i, j = j, i
        vi = values[i]
        vj = values[j]
        mid = values[i + 1:j]
        delta = 2 * (int(np.count_nonzero(mid < vj)) - int(np.count_nonzero(mid < vi)))
        delta += 1 if vj > vi else -1
        return (self.theta / self.n) * delta


Model = Union[LinearModel, KendallModel]


@functools.lru_cache(maxsize=4)
def _all_permutations(n: int) -> np.ndarray:
    """(n!, n) array of all permutations of {1..n}; cached, read-only."""
    perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    perms.setflags(write=False)
    return perms


def _log_weights(model: Model, perms: np.ndarray) -> np.ndarray:
    n = model.n
    if isinstance(model, LinearModel):
        stats = model.score_table[np.arange(n), perms - 1].sum(axis=1)
        return model.theta * stats
    inv = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(n - 1):
        for j in range(i + 1, n):
            inv += perms[:, i] > perms[:, j]
    return (model.theta / n) * inv


def brute_logZ(model: Model) -> float:
    """log sum of weights over all of S_n by enumeration (n <= 9)."""
    if model.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(model.n)
    return float(logsumexp(_log_weights(model, perms)))


def enumerate_pmf(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of S_n with their exact probabilities (n <= 9)."""
    if model.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(model.n)
    lw = _log_weights(model, perms)
    return perms, np.exp(lw - logsumexp(lw))


def enumerate_statistics(f: ScoreFunction, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of S_n with their linear statistics (n <= 9)."""
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(n)
    return perms, _log_weights(LinearModel(f, 1.0, n), perms)


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
    if n < 1:
        raise ValueError("n must be >= 1")
    log_nfac = float(gammaln(n + 1))
    if theta == 0.0:
        return log_nfac
    j = np.arange(1, n + 1, dtype=np.float64)
    x = theta / n
    return float(log_nfac + _log_expm1_ratio(x * j).sum() - n * _log_expm1_ratio(x))


def _inv_expm1_ratio(x):
    """psi(x) = 1/(1 - e^{-x}) - 1/x, continuous with psi(0) = 1/2."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full_like(x, 0.5)
    small = np.abs(x) < 1e-5
    xs = x[~small]
    with np.errstate(over="ignore"):
        out[~small] = 1.0 / (-np.expm1(-xs)) - 1.0 / xs
    xt = x[small]
    out[small] = 0.5 + xt / 12.0 - xt ** 3 / 720.0
    return out


def kendall_logZ_prime(n: int, theta: float) -> float:
    """Normalized derivative (1/n) d/dtheta of kendall_logZ.

    Equals E[Inv]/n^2 under the model; (n-1)/(4n) at theta = 0.
    """
    j = np.arange(1, n + 1, dtype=np.float64)
    x = theta / n
    terms = (j / n) * _inv_expm1_ratio(x * j) - (1.0 / n) * _inv_expm1_ratio(np.full_like(j, x))
    return float(terms.sum() / n)


def kendall_limit_C(theta: float) -> float:
    """Limit of (kendall_logZ(n, theta) - log n!)/n as n grows.

    Computed as the integral over [0,1] of log((e^{theta x}-1)/(theta x))
    by adaptive quadrature; satisfies C(0) = 0 and
    C(theta) = C(-theta) + theta/2.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta == 0.0:
        return 0.0
    val, _ = quad(lambda x: float(_log_expm1_ratio(theta * x)), 0.0, 1.0, limit=200)
    return float(val)


def kendall_limit_C_prime(theta: float) -> float:
    """Derivative of kendall_limit_C: the integral over [0,1] of x psi(theta x).

    Strictly increasing with range (0, 1/2); equals 1/4 at theta = 0.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta == 0.0:
        return 0.25
    val, _ = quad(lambda x: x * float(_inv_expm1_ratio(theta * x)), 0.0, 1.0, limit=200)
    return float(val)


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
    theta -> 0); divide by k^2 for cell probabilities.
    """
    if k < 2:
        raise ValueError("grid order must be >= 2")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if abs(theta) < 1e-8:
        return np.ones((k, k))
    mid = (np.arange(k) + 0.5) / k
    x, y = np.meshgrid(mid, mid, indexing="ij")
    num = (theta / 2.0) * np.sinh(theta / 2.0)
    den = (np.exp(-theta / 4.0) * np.cosh(theta * (x - y) / 2.0)
           - np.exp(theta / 4.0) * np.cosh(theta * (x + y - 1.0) / 2.0))
    return num / den ** 2
