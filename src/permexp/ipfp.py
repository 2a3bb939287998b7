"""Sinkhorn/IPFP scaling of the kernel exp(theta * F) to doubly stochastic grids.

:func:`limit_matrix` alternates exact row and column renormalization of
exp(theta * F), F the score grid, until every row and column sum equals
1/k to within a tolerance.  The limit matrix maximizes
theta * <F, A> - D(A || uniform) over grids with 1/k margins, which
makes the scaled matrix a grid approximation of the optimal-copula
density and its variational value an approximation of the limiting
log-normalizing constant of the associated permutation model.

The accumulated log scale vectors are the discrete analogues of the
potentials a(.), b(.) in the factorized density
exp(theta f(x,y) + a(x) + b(y)); :func:`variational_value`, the one path
to the variational value, checks it against them in closed form.

Every run starts from the diagonal gauge, the separable term
-(theta / 2) (F[r, r] + F[s, s]) added to the log kernel; the scalings
absorb it, so the limit is the same (Sinkhorn 1967), and for xy and
centered it makes the kernel the distance kernel exp(-theta (x - y)^2 / 2),
on which they take about 4x fewer sweeps.

One kernel does all scaling: Sinkhorn's scaling vectors (Cuturi 2013),
stabilized by absorbing the scalings into the log potentials when a
marginal sum leaves float range (Schmitzer 2019).  A sweep makes two
mat-vecs, two divisions and two products, and one min/max pair over its
stacked sums gives the residual and the range checks; an a-priori bound
on the next column sums spares their own check.  Every iterate, sweep
count, log-domain step and residual is bit for bit that of a kernel that
checks both sums of every sweep explicitly and takes max |sum - 1/k|
(the tests keep one as an oracle).
A run ends with the mean <F, A> of its score grid, taken from the final
scalings by one more mat-vec; the grid A itself is built on first read,
so a caller that needs only the mean (w_k_prime, the LD equation) never
builds it.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import grids
from .grids import CopulaGrid, ScoreFunction, kl_to_uniform

__all__ = [
    "DEFAULT_TOL",
    "IpfpResult",
    "IpfpNonConvergence",
    "limit_matrix",
    "variational_value",
    "w_k",
    "w_k_prime",
]

# The residual tolerance of every IPFP run that is not given one: the
# library's, the LD fit's and the CLI's.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IpfpResult:
    """Outcome of an IPFP run.

    ``theta`` is the run's temperature.  ``score_mean`` is <F, A>, the
    mean of the score grid F under the scaled grid A, which the run takes
    from its final scalings without building A.  ``grid`` is built on
    first read, in the run's working array, as ``A = exp(theta * F +
    row_log_scales[r] + col_log_scales[s])``, theta * F being the log
    kernel, so that identity holds up to rounding for every cell in float
    range; the result then drops F.  The cells are summed from the gauged
    log kernel and the potentials less the gauge, so that a gauge near
    float max does not round the scalings away.  ``residual`` is the final
    max deviation of any row/column sum from 1/k.
    """

    theta: float
    iterations: int
    residual: float
    row_log_scales: np.ndarray
    col_log_scales: np.ndarray
    converged: bool
    score_mean: float
    # (F, gauge, row and column potentials less the gauge, [working array])
    # until the grid is first read, then the grid
    _cells: (tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]
             | CopulaGrid) = field(repr=False)

    @property
    def grid(self) -> CopulaGrid:
        cells = self._cells
        if isinstance(cells, CopulaGrid):
            return cells
        score, gauge, alpha, beta, spare = cells
        # the first read takes the run's working array; a read at the same
        # time in another thread builds the same cells in an array of its own
        try:
            w = spare.pop()
        except IndexError:
            w = np.empty(score.shape)
        # exp of the final potentials keeps cells below K's float range exact
        _log_kernel(w, score, self.theta, gauge)
        w += alpha[:, None]
        w += beta
        np.exp(w, out=w)
        w.setflags(write=False)
        grid = CopulaGrid(w)
        object.__setattr__(self, "_cells", grid)
        return grid


class IpfpNonConvergence(RuntimeError):
    """Raised when the sweep budget is exhausted; carries the last state."""

    def __init__(self, result: IpfpResult, tol: float):
        self.result = result
        self.tol = tol
        super().__init__(
            f"IPFP stopped at residual {result.residual:.3e} > tol {tol:.3e} "
            f"after {result.iterations} sweeps"
        )


# A half-sweep whose marginal sums leave [e^-200, e^200] (0 included)
# is redone in the log domain, so the scalings never overflow or underflow.
_SUM_LO, _SUM_HI = math.exp(-200.0), math.exp(200.0)

_EPS = sys.float_info.epsilon


def _log_kernel(out, score, theta, gauge):
    """Write the gauged log kernel theta * score[r, s] + gauge[s] + gauge[r] into ``out``."""
    np.multiply(score, theta, out=out)
    out += gauge
    out += gauge[:, None]
    return out


def _log_normalize(kern, score, theta, gauge, other, axis):
    """Give each line along ``axis`` of exp(gauged log kernel + other + new) mass 1/k.

    Writes that kernel into ``kern`` and returns the log potential ``new``.
    """
    _log_kernel(kern, score, theta, gauge)
    kern += np.expand_dims(other, 1 - axis)
    top = kern.max(axis=axis, keepdims=True)
    kern -= top
    np.exp(kern, out=kern)
    mass = kern.sum(axis=axis, keepdims=True) * kern.shape[0]
    kern /= mass
    return -(top + np.log(mass)).ravel()


def _sinkhorn(score: np.ndarray, theta: float, tol: float, max_iter: int) -> IpfpResult:
    """The scaling kernel on exp(theta * score); see the module docstring.

    Every run starts from the diagonal gauge g = -(theta / 2) diag(score)
    on rows and columns.  The limit does not see a separable term, and for
    a symmetric score the gauged log kernel theta * score + g (+) g is
    -(theta / 2) times the squared distance of the lattice points, e.g.
    -theta (x - y)^2 / 2 for xy: the distance kernel, on which xy and
    centered take about 4x fewer sweeps than on exp(theta * score).  A
    zero diagonal (sq, footrule) has a zero gauge, and its runs are those
    of the ungauged kernel bit for bit.

    The iterate is diag(u) K diag(v) with K = exp(gauged log kernel +
    alpha (+) beta); alpha = -rowmax(gauged log kernel) leaves an entry of
    1 in every row.  alpha and beta are the potentials less the gauge, and
    the result's log scales add it back.  A sweep sets u = (1/k) / (K v),
    takes K^T u, sets v = (1/k) / (K^T u), then takes K v; its row sums are
    u * (K v) and its column sums v * (K^T u).  K v, the row sums, the column sums and K^T u
    are the four rows of one array, and one np.minimum/np.maximum reduce
    pair over it gives:

    - the residual, max(max x - 1/k, 1/k - min x) over both sums, which is
      max |x - 1/k| bit for bit because rounding is monotone;
    - the next sweep's check of K v;
    - a bound on the next K^T u.  After a plain row step,
      K^T u' = sum_i ((1/k) / rows_i) u_i K_i. lies within
      [min K^T u / max rows, max K^T u / min rows] / k; when that interval
      sits inside [2 e^-200, e^200 / 2], the factor 2 covering rounding,
      K^T u' cannot leave range and is not checked.  Otherwise, and after
      a log-domain row step, K^T u' is checked itself.

    A sum out of range is redone in the log domain (:func:`_log_normalize`).
    The gauged log kernel is written into the one k x k working array
    wherever it is read, and never stored apart.  The run ends by
    writing K o score over K for the mean <score, A>; the result builds the
    grid A over that array from score and the final potentials on first
    read.
    """
    k = score.shape[0]
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    target = 1.0 / k
    # 0.0 - x keeps the gauge of a zero diagonal (sq, footrule) at +0
    gauge = np.subtract(0.0, np.diagonal(score) * (0.5 * theta))
    kern = _log_kernel(np.empty(score.shape), score, theta, gauge)
    alpha = -kern.max(axis=1)
    beta = np.zeros(k)
    kern += alpha[:, None]
    np.exp(kern, out=kern)
    u, v = np.ones(k), np.ones(k)
    sums = np.empty((4, k))
    kv, rows, cols, ktu = sums
    np.matmul(kern, v, out=kv)
    row_ok = _SUM_LO <= kv.min() and kv.max() <= _SUM_HI
    col_ok = False
    iterations = 0
    residual = math.inf
    while iterations < max_iter:
        if row_ok:
            np.divide(target, kv, out=u)
        else:
            beta += np.log(v)
            alpha = _log_normalize(kern, score, theta, gauge, beta, axis=1)
            u.fill(1.0)
        np.matmul(u, kern, out=ktu)
        if not col_ok:
            col_ok = _SUM_LO <= ktu.min() and ktu.max() <= _SUM_HI
        if col_ok:
            np.divide(target, ktu, out=v)
        else:
            alpha += np.log(u)
            beta = _log_normalize(kern, score, theta, gauge, alpha, axis=0)
            u.fill(1.0)
            v.fill(1.0)
            np.sum(kern, axis=0, out=ktu)
        np.matmul(kern, v, out=kv)
        np.multiply(u, kv, out=rows)
        np.multiply(v, ktu, out=cols)
        lo = np.minimum.reduce(sums, axis=1).tolist()
        hi = np.maximum.reduce(sums, axis=1).tolist()
        iterations += 1
        residual = max(hi[1] - target, target - lo[1], hi[2] - target, target - lo[2])
        if residual <= tol:
            break
        row_ok = _SUM_LO <= lo[0] and hi[0] <= _SUM_HI
        # the bound on the next K^T u, multiplied out by the row sums
        col_ok = (row_ok and 2.0 * _SUM_LO * hi[1] <= target * lo[3]
                  and target * hi[3] <= 0.5 * _SUM_HI * lo[1])
    # <F, A> = u . ((K o F) v), with K o F written over K; A is built over
    # it from the final potentials only when the grid is first read
    np.multiply(kern, score, out=kern)
    score_mean = float(u @ (kern @ v))
    alpha += np.log(u)
    beta += np.log(v)
    result = IpfpResult(theta, iterations, residual, gauge + alpha, gauge + beta,
                        residual <= tol, score_mean, (score, gauge, alpha, beta, [kern]))
    if not result.converged:
        raise IpfpNonConvergence(result, tol)
    # the grid sums exp(log kernel + alpha (+) beta); rounding potentials of
    # size m moves its cells by up to about eps * m relative, and so a row or
    # column sum by eps * m / k, which must stay within tol
    size = max(float(np.abs(alpha).max()), float(np.abs(beta).max()))
    if _EPS * size > k * tol:
        raise ValueError(
            f"theta = {theta:g} needs potentials of size {size:.3g} at k = {k}, whose "
            f"rounding moves the grid's sums by more than tol {tol:.3e}")
    return result


def limit_matrix(f: ScoreFunction | None, theta: float, k: int, tol: float = DEFAULT_TOL,
                 max_iter: int | None = None,
                 score_grid: np.ndarray | None = None) -> IpfpResult:
    """IPFP limit of the kernel exp(theta * F) on the score grid F.

    The run is on exp(theta * ``score_grid``); ``f`` is read only to build
    that grid, F = grids.score_grid(f, k), when none is given.  A caller
    that also needs F, or solves several theta on one grid, builds it once
    and passes it; a grid that is not k x k raises ValueError.  log A =
    theta*F + row_log_scales[r] + col_log_scales[s] holds for the returned
    result.

    The default sweep cap is ceil(10 k (1 + |theta|)).  It stops short of
    the tolerance at small k and large |theta|.  Over k in {2, 3, 4, 5, 10,
    30} and |theta| in {100, 250, 500} it stops xy and centered at k = 3
    and 4 for theta <= -250 and at k = 5 for |theta| = 500; sq at k = 3
    to 5 for theta <= -250, at k = 3 for |theta| = 100 and at k = 5,
    theta = 250; and footrule at k = 10, theta = 100 and k = 30,
    theta = 250.  Those runs raise IpfpNonConvergence.  Where the cap
    overflows a float, ValueError asks for ``max_iter``.

    The grid's row and column sums are within tol of 1/k up to the
    rounding of its potentials (less the gauge), at most eps * max|potential|
    / k.  A converged run where that bound exceeds tol raises ValueError:
    for theta < 0 the potentials are of order |theta|, which at k = 2 and
    the default tol refuses xy and centered below theta = -7.2e4, sq below
    -3.6e4 and footrule below -1.8e4.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if k < 1:
        raise ValueError("grid order must be >= 1")
    if score_grid is None:
        score_grid = grids.score_grid(f, k)
    elif score_grid.shape != (k, k):
        raise ValueError(f"score_grid has shape {score_grid.shape}, not ({k}, {k})")
    if max_iter is None:
        cap = 10 * k * (1.0 + abs(theta))
        if not math.isfinite(cap):
            raise ValueError(f"the default sweep cap overflows at theta = {theta:g}; pass max_iter")
        max_iter = math.ceil(cap)
    return _sinkhorn(score_grid, theta, tol, max_iter)


_W_IDENTITY_TOL = 1e-8


def variational_value(result: IpfpResult) -> float:
    """theta * <F, A> - D(A || uniform) for the scaled grid A of a run on theta * F.

    theta is the run's own and <F, A> its ``score_mean``; only
    D(A || uniform) reads the grid.
    The value is checked against the potential identity w = -(sum alpha +
    sum beta) / k - 2 log k, that is -(mean a_hat + mean b_hat) of the
    potentials a_hat = alpha + log k + c, b_hat = beta + log k - c split to
    equal sums, to a slack that grows with the run's residual (sweep-capped
    runs included) and with eps * k times the largest potential, for the
    rounding of theta * <F, A> and of the potentials' sums; a larger gap,
    from a broken invariant, raises RuntimeError.
    """
    value = result.theta * result.score_mean - kl_to_uniform(result.grid.w)
    alpha, beta = result.row_log_scales, result.col_log_scales
    k = alpha.size
    check = -(alpha.sum() + beta.sum()) / k - 2.0 * math.log(k)
    gap = abs(value - check)
    scale = max(1.0, float(np.abs(alpha).max()), float(np.abs(beta).max()))
    # the residual's share, and rounding: of the sums of k potentials of size
    # scale, and of theta * <F, A>, where theta * F = log A - alpha (+) beta
    # is about 2 scale on every cell with mass
    slack = max(_W_IDENTITY_TOL, 10.0 * k * result.residual * scale + 4.0 * _EPS * k * scale)
    if gap > slack:
        raise RuntimeError(f"variational/potential identity violated by {gap:.3e}")
    return value


def w_k(f: ScoreFunction, theta: float, k: int, tol: float = DEFAULT_TOL,
        max_iter: int | None = None) -> float:
    """Grid approximation of the limiting log-normalizing constant.

    The checked :func:`variational_value` of the IPFP limit matrix.
    """
    return variational_value(limit_matrix(f, theta, k, tol=tol, max_iter=max_iter))


def w_k_prime(f: ScoreFunction, theta: float, k: int, tol: float = DEFAULT_TOL,
              max_iter: int | None = None) -> float:
    """Derivative of w_k in theta: the grid mean of f under the limit matrix.

    That is the run's ``score_mean``; no grid is built.
    """
    return limit_matrix(f, theta, k, tol=tol, max_iter=max_iter).score_mean
