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
from typing import Callable, Union

import numpy as np

from .grids import ScoreFunction, lattice, score_grid
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


# Largest n whose swap log-ratios read four cells of the n x n score table.
# Above it a chain keeps f(x_i, u_pi(i)) per position and evaluates the
# cross terms of a whole chunk of proposals with one call of f (see
# _chunk_ratios); a lone ratio calls f once on the four points.  The table
# is n^2 floats, 8 MB at 1024; at n=2000 it would add 32 MB, about 28% of
# the sample benchmark's peak RSS.
SCORE_TABLE_MAX_N = 1024

# Largest n whose Kendall chains read their log-ratios from an (n+1) x
# (n+1) int16 prefix-count table, 132 KB at 256.  Each accepted swap
# updates a slice of about (n/3)^2 cells, so the table's cost grows as n^2
# times the acceptance rate, which depends on theta and hardly on n: 50% at
# theta=0, 33% at |theta|=5, 12% at |theta|=20.  Measured per step against
# counting the entries between the pair (2 cores, numpy 2.4.6): at theta=0
# the table takes 0.80x the time at n=200, 0.87x at 300, 1.07x at 350,
# 1.46x at 500 and 2.8x at 1000; at |theta|=20 it takes 0.30x at n=200,
# 0.33-0.43x at 500-1000 and 0.55-0.7x at 2000-3000.  The cutoff keeps the
# table where it wins at every theta.  Building it takes 15 us at n=32,
# 190 us at 200 and 320 us at 256; a run repays that within 0.1-0.5 n
# steps (1.1 n at theta=0, n=256).  Only shorter runs, such as one-step
# gibbs_swap_step calls, would count faster.
INVERSION_TABLE_MAX_N = 256

# log_ratio(i, j) and swap(i, j) over one chain's state; see swap_evaluator.
SwapEvaluator = tuple[Callable[[int, int], float], Callable[[int, int], None]]
# ratios(pairs) and refresh(positions) of a wide linear chain; see _chunk_ratios.
ChunkRatios = tuple[Callable[[np.ndarray], np.ndarray], Callable[[list[int]], None]]


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

    @functools.cached_property
    def score_table(self) -> np.ndarray:
        """Read-only n x n table of f(i/n, v/n), row i-1, column v-1."""
        return score_grid(self.f, self.n)

    def log_weight(self, pi: Permutation) -> float:
        return self.theta * linear_statistic(pi, self.f)

    def swap_evaluator(self, values: np.ndarray) -> SwapEvaluator:
        """``(log_ratio, swap)`` for a chain on ``values``.

        ``log_ratio(i, j)`` is the log weight change from swapping
        positions i and j (0-based) of the 1-based image array ``values``;
        ``swap(i, j)`` swaps them.  Linear models keep no per-chain state.
        """
        n = self.n
        theta = self.theta
        cells = memoryview(values)
        if n <= SCORE_TABLE_MAX_N:
            s = memoryview(self.score_table)  # cells read as Python floats

            def log_ratio(i: int, j: int) -> float:
                vi = cells[i] - 1
                vj = cells[j] - 1
                return -theta * (s[i, vi] + s[j, vj] - s[i, vj] - s[j, vi])
        else:
            f = self.f
            t = memoryview(lattice(n))  # points read as Python floats

            def log_ratio(i: int, j: int) -> float:
                xi, xj = t[i], t[j]
                ui, uj = t[cells[i] - 1], t[cells[j] - 1]
                a, b, c, d = f(np.array((xi, xj, xi, xj)),
                               np.array((ui, uj, uj, ui))).tolist()
                return -theta * (a + b - c - d)

        return log_ratio, _cell_swapper(cells)


def _chunk_ratios(model: Model, values: np.ndarray) -> ChunkRatios | None:
    """Chunked swap log-ratios for a linear chain above SCORE_TABLE_MAX_N, else None.

    Returns ``(ratios, refresh)``.  ``ratios(pairs)`` takes a 2 x m array
    of position pairs, rows i and j, and returns, for each pair, the value
    that ``log_ratio`` of ``swap_evaluator`` gives on ``values`` as they
    are now, bit for bit: the same four values of f, combined in the same
    order.  It keeps f(x_i, u_pi(i)) for every position; the two cross
    terms of all m pairs come from one call of f.  After entries change,
    ``refresh(positions)`` must re-read the kept values at those
    positions before the next ``ratios`` call, and a pair whose entries
    change after a ``ratios`` call needs ``log_ratio`` itself.
    """
    n = model.n
    if not isinstance(model, LinearModel) or n <= SCORE_TABLE_MAX_N:
        return None
    f = model.f
    theta = model.theta
    t = lattice(n)

    def terms(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        # float64 as in log_ratio, which combines f's values as Python floats
        return np.asarray(f(x, u), dtype=np.float64)

    # a buffer of its own: refresh writes into it, and f may return a
    # read-only array or one it shares
    diag = np.array(f(t, t[values - 1]), dtype=np.float64)

    def refresh(positions: list[int]) -> None:
        rows = np.array(positions)
        diag[rows] = terms(t[rows], t[values[rows] - 1])

    def ratios(pairs: np.ndarray) -> np.ndarray:
        # rows f(x_i, u_pi(j)) and f(x_j, u_pi(i))
        cross = terms(t[pairs], t[values[pairs] - 1][::-1])
        own = diag[pairs]
        out = own[0] + own[1]
        out -= cross[0]
        out -= cross[1]
        out *= -theta
        return out

    return ratios, refresh


@dataclass(frozen=True)
class KendallModel:
    """Mallows pmf proportional to exp((theta/n) * Inv(pi))."""

    theta: float
    n: int

    def __post_init__(self):
        _check_parameters(self.theta, self.n)

    def log_weight(self, pi: Permutation) -> float:
        return (self.theta / self.n) * inversions(pi)

    def swap_evaluator(self, values: np.ndarray) -> SwapEvaluator:
        """``(log_ratio, swap)`` for a chain on ``values``.

        As for ``LinearModel.swap_evaluator``.  With n <=
        INVERSION_TABLE_MAX_N each ratio is read from a prefix-count table
        built for ``values``; larger n count the entries between the pair.
        """
        scale = self.theta / self.n
        if self.n <= INVERSION_TABLE_MAX_N:
            return _inversion_table_evaluator(values, scale)
        return _inversion_count_evaluator(values, scale)


def _cell_swapper(cells: memoryview) -> Callable[[int, int], None]:
    """The swap of a chain that keeps no cache beside its state."""

    def swap(i: int, j: int) -> None:
        cells[i], cells[j] = cells[j], cells[i]

    return swap


def _inversion_count_evaluator(values: np.ndarray, scale: float) -> SwapEvaluator:
    """Kendall ratios by counting the entries between the pair: O(n) each."""

    def log_ratio(i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        vi = values.item(i)
        vj = values.item(j)
        mid = values[i + 1:j]
        delta = 2 * (int(np.count_nonzero(mid < vj)) - int(np.count_nonzero(mid < vi)))
        delta += 1 if vj > vi else -1
        return scale * delta

    return log_ratio, _cell_swapper(memoryview(values))


def _inversion_table_evaluator(values: np.ndarray, scale: float) -> SwapEvaluator:
    """Kendall ratios read from a prefix-count table: O(1) each.

    ``table[p, v] = #{q < p : pi(q) < v}`` (0-based positions q), so the
    entries strictly between positions i < j that are below v number
    ``table[j, v] - table[i + 1, v]``.  An accepted swap moves value a at
    position i to b, which changes the count for rows i+1..j and the
    columns between a and b by one; it costs one slice update, O(n^2) at
    worst, which only accepted swaps pay.
    """
    n = values.size
    cells = memoryview(values)
    # counts stay <= n <= INVERSION_TABLE_MAX_N, well inside int16
    table = np.zeros((n + 1, n + 1), dtype=np.int16)
    np.cumsum(values[:, None] < np.arange(n + 1), axis=0, dtype=np.int16, out=table[1:])
    counts = memoryview(table)

    def log_ratio(i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        a = cells[i]
        b = cells[j]
        k = i + 1
        delta = 2 * ((counts[j, b] - counts[k, b]) - (counts[j, a] - counts[k, a]))
        delta += 1 if b > a else -1
        return scale * delta

    def swap(i: int, j: int) -> None:
        if i > j:
            i, j = j, i
        a = cells[i]
        b = cells[j]
        cells[i] = b
        cells[j] = a
        if a < b:
            table[i + 1:j + 1, a + 1:b + 1] -= 1
        else:
            table[i + 1:j + 1, b + 1:a + 1] += 1

    return log_ratio, swap


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


def _logsumexp(a: np.ndarray) -> float:
    """log sum e^a: the largest entry plus log1p of the rest's sum relative to it.

    Shifting by the largest entry keeps exp from overflowing; log1p keeps
    a rest far below it from vanishing in 1 + rest.
    """
    top = int(np.argmax(a))
    rest = np.exp(a - a[top])
    rest[top] = 0.0
    return float(a[top] + np.log1p(rest.sum()))


def brute_logZ(model: Model) -> float:
    """log sum of weights over all of S_n by enumeration (n <= 9)."""
    if model.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(model.n)
    return _logsumexp(_log_weights(model, perms))


def enumerate_pmf(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of S_n with their exact probabilities (n <= 9)."""
    if model.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(model.n)
    lw = _log_weights(model, perms)
    return perms, np.exp(lw - _logsumexp(lw))


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
    mid = (np.arange(k) + 0.5) / k
    x, y = np.meshgrid(mid, mid, indexing="ij")
    s, d = np.abs(x + y - 1.0), np.abs(x - y)
    if theta < 0:
        s, d = d, s
    a = abs(theta) / 2.0
    den = (np.expm1(-2.0 * a * s) - np.expm1(-a * (1.0 + s - d))
           - np.expm1(-a * (1.0 + s + d)))
    # one exp of the numerator's log: no rounding through a subnormal
    return np.exp(math.log(2.0 * a * -math.expm1(-2.0 * a)) - 2.0 * a * s) / den ** 2
