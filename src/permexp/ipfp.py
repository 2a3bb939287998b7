"""Sinkhorn/IPFP scaling of positive kernels to doubly stochastic grids.

``ipfp_scale`` alternates exact row and column renormalization of a
strictly positive matrix until every row and column sum equals 1/k to
within a tolerance.  The limit matrix maximizes
theta * <F, A> - D(A || uniform) over grids with 1/k margins, which
makes the scaled matrix a grid approximation of the optimal-copula
density and its variational value an approximation of the limiting
log-normalizing constant of the associated permutation model.

The accumulated log scale vectors are the discrete analogues of the
potentials a(.), b(.) in the factorized density
exp(theta f(x,y) + a(x) + b(y)); :func:`recover_potentials` converts
them to that normalization.

One kernel does all scaling: Sinkhorn's scaling vectors (Cuturi 2013),
two mat-vecs per sweep, stabilized by absorbing the scalings into the
log potentials when a marginal sum leaves float range (Schmitzer 2019).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import CopulaGrid, ScoreFunction, grid_mean, grid_points, kl_to_uniform

__all__ = [
    "IpfpResult",
    "PotentialGrid",
    "IpfpNonConvergence",
    "ipfp_scale",
    "limit_matrix",
    "variational_value",
    "w_k",
    "w_k_prime",
    "recover_potentials",
]


@dataclass(frozen=True, eq=False)
class IpfpResult:
    """Outcome of an IPFP run.

    The grid is computed as ``A = exp(log B0 + row_log_scales[r] +
    col_log_scales[s])``, so that identity holds up to rounding for every
    cell in float range; ``residual`` is the final max deviation of any
    row/column sum from 1/k.
    """

    grid: CopulaGrid
    iterations: int
    residual: float
    row_log_scales: np.ndarray
    col_log_scales: np.ndarray
    converged: bool


@dataclass(frozen=True, eq=False)
class PotentialGrid:
    """Grid samples of the factorization potentials.

    Gauge-fixed so that sum(a_hat) == sum(b_hat); with that split,
    -(mean a_hat + mean b_hat) equals the variational value of the run.
    """

    a_hat: np.ndarray
    b_hat: np.ndarray

    @property
    def k(self) -> int:
        return self.a_hat.size


class IpfpNonConvergence(RuntimeError):
    """Raised when the sweep budget is exhausted; carries the last state."""

    def __init__(self, result: IpfpResult, tol: float):
        self.result = result
        self.tol = tol
        super().__init__(
            f"IPFP stopped at residual {result.residual:.3e} > tol {tol:.3e} "
            f"after {result.iterations} sweeps"
        )


def ipfp_scale(b0: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000) -> IpfpResult:
    """Scale a strictly positive matrix to row and column sums 1/k.

    One iteration is a full sweep: exact row normalization followed by
    exact column normalization.  Stops once the residual (max absolute
    deviation of any row or column sum from 1/k) drops to ``tol``.

    Raises ValueError on nonpositive entries and IpfpNonConvergence
    (carrying the partial result) when ``max_iter`` sweeps are not
    enough.
    """
    b0 = np.asarray(b0, dtype=np.float64)
    if b0.ndim != 2 or b0.shape[0] != b0.shape[1]:
        raise ValueError("kernel must be a square matrix")
    if not np.all(np.isfinite(b0)) or np.any(b0 <= 0):
        raise ValueError("kernel entries must be strictly positive and finite")
    return _sinkhorn(np.log(b0), tol, max_iter)


# A half-sweep whose marginal sums leave [e^-200, e^200] (0 included)
# is redone in the log domain, so the scalings never overflow or underflow.
_SUM_LO, _SUM_HI = math.exp(-200.0), math.exp(200.0)


def _in_range(sums: np.ndarray) -> bool:
    return _SUM_LO <= sums.min() and sums.max() <= _SUM_HI


def _log_normalize(kern, log_b0, other, axis):
    """Give each line along ``axis`` of exp(log_b0 + other + new) mass 1/k.

    Writes that kernel into ``kern`` and returns the log potential ``new``.
    """
    np.add(log_b0, np.expand_dims(other, 1 - axis), out=kern)
    top = kern.max(axis=axis, keepdims=True)
    kern -= top
    np.exp(kern, out=kern)
    mass = kern.sum(axis=axis, keepdims=True) * kern.shape[0]
    kern /= mass
    return -(top + np.log(mass)).ravel()


def _sinkhorn(log_b0: np.ndarray, tol: float, max_iter: int) -> IpfpResult:
    """The scaling kernel on exp(log_b0); see the module docstring.

    The iterate is diag(u) K diag(v) with K = exp(log_b0 + alpha (+) beta);
    alpha = -rowmax(log_b0) leaves an entry of 1 in every row.  Row sums
    u * (K v) reuse the next sweep's K v, column sums are v * (K^T u).
    """
    k = log_b0.shape[0]
    if k < 1:
        raise ValueError("grid order must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    target = 1.0 / k
    alpha = -log_b0.max(axis=1)
    beta = np.zeros(k)
    kern = log_b0 + alpha[:, None]
    np.exp(kern, out=kern)
    u = v = np.ones(k)
    kv = kern @ v
    iterations = 0
    residual = math.inf
    while iterations < max_iter:
        if _in_range(kv):
            u = target / kv
        else:
            beta += np.log(v)
            alpha = _log_normalize(kern, log_b0, beta, axis=1)
            u = np.ones(k)
        ktu = u @ kern
        if _in_range(ktu):
            v = target / ktu
        else:
            alpha += np.log(u)
            beta = _log_normalize(kern, log_b0, alpha, axis=0)
            u = v = np.ones(k)
            ktu = kern.sum(axis=0)
        kv = kern @ v
        iterations += 1
        residual = max(float(np.abs(u * kv - target).max()),
                       float(np.abs(v * ktu - target).max()))
        if residual <= tol:
            break
    # exp of the final potentials keeps cells below K's float range exact
    alpha += np.log(u)
    beta += np.log(v)
    np.add(log_b0, alpha[:, None], out=kern)
    kern += beta
    np.exp(kern, out=kern)
    result = IpfpResult(CopulaGrid(kern), iterations, residual, alpha, beta,
                        residual <= tol)
    if not result.converged:
        raise IpfpNonConvergence(result, tol)
    return result


def default_max_iter(k: int, theta: float) -> int:
    """Heuristic sweep cap, generous enough for all tested regimes."""
    return int(math.ceil(10 * k * (1.0 + abs(theta))))


def limit_matrix(f: ScoreFunction, theta: float, k: int, tol: float = 1e-12,
                 max_iter: int | None = None) -> IpfpResult:
    """IPFP limit of the kernel exp(theta * f(r/k, s/k)).

    log A = theta*F + row_log_scales[r] + col_log_scales[s] holds for
    the returned result.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return _exp_limit(theta * np.asarray(f(*grid_points(k)), dtype=np.float64),
                      theta, tol, max_iter)


def _exp_limit(expo: np.ndarray, theta: float, tol: float,
               max_iter: int | None) -> IpfpResult:
    """IPFP limit of exp(expo), where expo = theta * F on a k x k score grid F.

    The entry :func:`limit_matrix` shares with the LD estimating equation,
    which builds F once per fit instead of once per theta.  ``theta`` must
    be finite; it only sizes the default sweep cap.
    """
    if max_iter is None:
        max_iter = default_max_iter(expo.shape[0], theta)
    return _sinkhorn(expo, tol, max_iter)


def variational_value(result: IpfpResult, f: ScoreFunction, theta: float) -> float:
    """theta * <F, A> - D(A || uniform) for the scaled grid A."""
    return theta * grid_mean(result.grid, f) - kl_to_uniform(result.grid)


def recover_potentials(result: IpfpResult) -> PotentialGrid:
    """Potentials of the factorized density from the log scale vectors.

    At convergence the grid satisfies A = exp(shifted kernel + alpha_r
    + beta_s) with margins 1/k; adding log k to each side and splitting
    the free constant symmetrically gives grid samples a_hat, b_hat
    with sum(a_hat) == sum(b_hat).
    """
    if not result.converged:
        raise ValueError("potentials require a converged IPFP result")
    alpha = result.row_log_scales
    beta = result.col_log_scales
    k = alpha.size
    logk = np.log(k)
    c = (beta.sum() - alpha.sum()) / (2.0 * k)
    return PotentialGrid(alpha + logk + c, beta + logk - c)


_W_IDENTITY_TOL = 1e-8


def w_k(f: ScoreFunction, theta: float, k: int, tol: float = 1e-12,
        max_iter: int | None = None) -> float:
    """Grid approximation of the limiting log-normalizing constant.

    Cross-checks the variational value against -(mean a_hat +
    mean b_hat) from the recovered potentials; the two agree up to the
    convergence residual (1e-8 at the default tolerance), so a larger
    gap indicates a broken invariant and raises.
    """
    result = limit_matrix(f, theta, k, tol=tol, max_iter=max_iter)
    value = variational_value(result, f, theta)
    pots = recover_potentials(result)
    check = -(pots.a_hat.mean() + pots.b_hat.mean())
    gap = abs(value - check)
    scale = max(1.0, float(np.abs(result.row_log_scales).max()),
                float(np.abs(result.col_log_scales).max()))
    slack = max(_W_IDENTITY_TOL, 10.0 * k * result.residual * scale)
    if gap > slack:
        raise RuntimeError(
            f"variational/potential identity violated by {gap:.3e}"
        )
    return value


def w_k_prime(f: ScoreFunction, theta: float, k: int, tol: float = 1e-12,
              max_iter: int | None = None) -> float:
    """Derivative of w_k in theta: the grid mean of f under the limit matrix."""
    result = limit_matrix(f, theta, k, tol=tol, max_iter=max_iter)
    return grid_mean(result.grid, f)
