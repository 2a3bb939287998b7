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

At k <= 100 a run that has not converged after 50 sweeps takes a Newton
step on the dual of the scaling (Sinkhorn-Newton: Brauer, Clason, Lorenz
and Wirth 2017), and then one after every sweep until a full step moves
no cell by more than 1e-8 in log.  That step settles the run: the cells
that no row or column sum can see are then right as well.  A run that has
taken a Newton step converges only once settled, and one whose Newton
steps stop lowering the deviation before that stops without converging.
``IpfpResult.newton_steps`` counts the steps; ``iterations`` still counts
sweeps.  Runs at k > 100, and runs that converge within 50 sweeps, are
those of the sweeps alone, bit for bit.
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
    max deviation of any row/column sum from 1/k.  ``iterations`` counts
    sweeps and ``newton_steps`` the Newton steps taken between them; a run
    with Newton steps has ``converged`` only once one of them settled it.
    """

    theta: float
    iterations: int
    newton_steps: int
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
    """Raised when the sweep budget is exhausted, or Newton steps cannot settle a run.

    Carries the last state.
    """

    def __init__(self, result: IpfpResult, tol: float):
        self.result = result
        self.tol = tol
        # a run that took Newton steps and did not converge was not settled
        newton = (f" and {result.newton_steps} Newton steps that did not settle it"
                  if result.newton_steps else "")
        above = ">" if result.residual > tol else "<="
        super().__init__(f"IPFP stopped at residual {result.residual:.3e} {above} tol {tol:.3e} "
                         f"after {result.iterations} sweeps{newton}")


class _PotentialsTooLarge(ValueError):
    """A converged run whose potentials are too large for float to carry its scalings."""


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


# A run at k <= _NEWTON_MAX_K that has not converged after _NEWTON_EVERY
# sweeps takes a Newton step (_newton_step), and then one after every sweep
# until a step settles it; a settled run that has not converged takes the
# next after the next multiple of _NEWTON_EVERY sweeps.  At k = 100 a step
# costs about as much as 20 sweeps.  The benchmark's two logz curves at
# k = 100 (xy at theta in {0, +-250, +-500}, footrule at {0, +-20, +-40,
# +-60}), ms, median of 7 (2 cores, numpy 2.4):
#
#   m          none   30     40     50     60     75     100
#   xy         10.67  9.31   8.66   9.27   8.75   9.11   10.28
#   footrule   14.65  6.15   6.52   6.64   7.11   7.95   7.45
#
# m = 50 rather than 40 leaves every LD run of a fit free of Newton steps
# with room to spare: xy at k = 100 takes at most 39 sweeps in the +-64
# bracket.  Sweeps alone against sweeps with Newton steps (sweeps / steps),
# ms, m = 50:
#
#   k     xy, theta = 500           footrule, theta = 60
#   30    234, 4.1  | 53/3, 1.9     980, 16.2 | 53/3, 1.7
#   64    225, 4.0  | 53/3, 2.2     763, 13.6 | 53/3, 2.2
#   100   219, 4.4  | 53/3, 3.3     716, 13.9 | 53/3, 3.2
#   128   216, 5.1  | 53/3, 62.0    698,  9.0 | 53/3, 3.0
#   200   210, 4.0  | 53/3, 7.0     672, 15.2 | 53/3, 7.5
#
# Up to k = 100 the k - 1 equations are solved on one OpenBLAS thread; at
# k = 128 the solve is threaded, and in a process that had run k = 100
# first a step took 20 to 110 ms.  At k = 200 a step no longer pays for xy.
_NEWTON_EVERY = 50
_NEWTON_MAX_K = 100
# a step halved this often without lowering the deviation is not taken
_NEWTON_HALVINGS = 30
# a full step that moves no cell by more than this, in log, settles the
# run.  Its cells are then right to about this, relative: at 1e-5, xy and
# centered at k = 3, theta = -1000 settled on steps of 3.6e-6 and 1.4e-6
# that were rounding noise, and left cells 9e-8 and 2e-7 off
_NEWTON_SETTLED = 1e-8


def _deviations(kern, target):
    """Each row's and each column's sum less ``target``; the top of each column and the rest.

    The largest cell of a line, less ``target``, is added to the sum of the
    others; near target that difference is exact (Sterbenz), so a cell far
    below ulp(1/k) still moves its line's deviation, where the plain sum
    rounds it away.  Returns the row and column deviations, and for each
    column the row of its largest cell and the sum of its other cells.
    """
    lines = np.arange(kern.shape[0])
    col_top = kern.argmax(axis=0)
    devs, rests = [], []
    for axis, cells in ((1, (lines, kern.argmax(axis=1))), (0, (col_top, lines))):
        top = kern[cells]
        kern[cells] = 0.0
        rests.append(kern.sum(axis=axis))
        kern[cells] = top
        devs.append((top - target) + rests[-1])
    return devs[0], devs[1], col_top, rests[1]


def _newton_step(kern, score, theta, gauge, alpha, beta):
    """One Newton step on the dual of the scaling (Sinkhorn-Newton).

    ``alpha`` and ``beta`` are the potentials less the gauge, with the
    scalings folded in.  A = exp(gauged log kernel + alpha (+) beta) has
    row sums R and column sums C, off 1/k by r and c.  The Newton system
    of the dual, with db eliminated, is S da = A (c / C) - r with S =
    diag(R) - A diag(1/C) A^T, and db = -(c + A^T da) / C.  S 1 = 0, so da
    is held at 0 on the last row and the other k - 1 equations are solved.
    r, c (:func:`_deviations`) and the diagonal of S, sum_j A_ij (C_j -
    A_ij) / C_j, are taken without subtracting sums near 1/k, so that the
    step still sees cells far below ulp(1/k).  The step is halved until the
    largest deviation falls; a full step that settles the run (moves no cell
    by more than _NEWTON_SETTLED in log) is taken as it is.

    Returns the new (alpha, beta) and whether the step settled the run, or
    None when no step lowers the deviation; either way ``kern`` is left
    holding A at the potentials kept.
    """
    k = kern.shape[0]
    target = 1.0 / k

    def build(a, b):
        """Write A at potentials (a, b) into ``kern``; its deviations."""
        _log_kernel(kern, score, theta, gauge)
        np.add(kern, a[:, None], out=kern)
        np.add(kern, b, out=kern)
        np.exp(kern, out=kern)
        return _deviations(kern, target)

    def largest(rows, cols, *_):
        # np.max keeps a nan, which no deviation is below
        return float(max(np.abs(rows).max(), np.abs(cols).max()))

    # a trial step can leave float range, and its deviation is then inf or nan;
    # so can a system whose column sums underflow, and its step is not taken
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r, c, top, rest = build(alpha, beta)
        deviation = largest(r, c)
        cols = target + c
        scaled = kern / cols
        # S is symmetric; its three blocks of at most 50 x 50, each a product
        # over k <= 100, and the k - 1 equations are sizes that OpenBLAS runs
        # on one thread (a threaded 100 x 100 product was seen to take 2 ms
        # in place of 0.05)
        h = (k + 1) // 2
        schur = np.empty((k, k))
        for lo, hi in ((0, 0), (0, h), (h, h)):
            np.matmul(scaled[lo:lo + h], kern[hi:hi + h].T, out=schur[lo:lo + h, hi:hi + h])
        schur[h:, :h] = schur[:h, h:].T
        np.negative(schur, out=schur)
        others = cols - kern
        others[top, np.arange(k)] = rest
        np.fill_diagonal(schur, np.einsum("ij,ij->i", scaled, others))
        da = np.zeros(k)
        try:
            da[:-1] = np.linalg.solve(schur[:-1, :-1], (scaled @ c - r)[:-1])
        except np.linalg.LinAlgError:
            da.fill(np.nan)
        db = -(c + da @ kern) / cols
        size = float(np.abs(da).max() + np.abs(db).max())
        if math.isfinite(size):
            settled = size <= _NEWTON_SETTLED
            step = 1.0
            for _ in range(_NEWTON_HALVINGS):
                a, b = alpha + step * da, beta + step * db
                if largest(*build(a, b)) < deviation or settled:
                    return a, b, settled
                step *= 0.5
        build(alpha, beta)
    return None


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
      a log-domain row step or a Newton step, K^T u' is checked itself.

    A Newton step (:func:`_newton_step`, on the schedule of the module
    docstring) folds u and v into the potentials and leaves K = A, u = v = 1.
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
    iterations = newton_steps = 0
    newton = k <= _NEWTON_MAX_K
    # a run that has taken a Newton step ends once one has settled it
    settled = True
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
        if residual <= tol and settled:
            break
        row_ok = _SUM_LO <= lo[0] and hi[0] <= _SUM_HI
        # the bound on the next K^T u, multiplied out by the row sums
        col_ok = (row_ok and 2.0 * _SUM_LO * hi[1] <= target * lo[3]
                  and target * hi[3] <= 0.5 * _SUM_HI * lo[1])
        if newton and (iterations % _NEWTON_EVERY == 0 or not settled) and iterations < max_iter:
            alpha += np.log(u)
            beta += np.log(v)
            step = _newton_step(kern, score, theta, gauge, alpha, beta)
            newton = step is not None
            if newton:
                alpha, beta, settled = step
                newton_steps += 1
            # K is A now, with u = v = 1; the bound on K^T u holds only after
            # a plain row step, so the next sweep checks K v and K^T u themselves
            u.fill(1.0)
            v.fill(1.0)
            if not (newton or settled):
                # no sweep settles what the Newton steps left
                break
            np.matmul(kern, v, out=kv)
            row_ok = _SUM_LO <= kv.min() and kv.max() <= _SUM_HI
            col_ok = False
    # <F, A> = u . ((K o F) v), with K o F written over K; A is built over
    # it from the final potentials only when the grid is first read
    np.multiply(kern, score, out=kern)
    score_mean = float(u @ (kern @ v))
    alpha += np.log(u)
    beta += np.log(v)
    result = IpfpResult(theta, iterations, newton_steps, residual, gauge + alpha, gauge + beta,
                        residual <= tol and settled, score_mean,
                        (score, gauge, alpha, beta, [kern]))
    if not result.converged:
        raise IpfpNonConvergence(result, tol)
    # the grid sums exp(log kernel + alpha (+) beta); rounding potentials of
    # size m moves its cells by up to about eps * m relative, and so a row or
    # column sum by eps * m / k, which must stay within tol
    size = max(float(np.abs(alpha).max()), float(np.abs(beta).max()))
    if _EPS * size > k * tol:
        raise _PotentialsTooLarge(
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

    At k <= 100 a run that has not converged after 50 sweeps takes Newton
    steps (see the module docstring; ``newton_steps`` counts them).  A run
    that stops short of the tolerance by the sweep cap, or whose Newton
    steps cannot settle it, raises IpfpNonConvergence.  The default sweep
    cap is ceil(10 k (1 + |theta|)).  Over the four built-in scores, k in
    {2, 3, 4, 5, 10, 30} and |theta| in {100, 250, 500}, 143 of the 144
    runs converge by it, in at most 80 sweeps and 30 Newton steps; sq at
    k = 3, theta = -500 stops unsettled after 80 sweeps (its four cells
    beside the centre, 2.5e-25, lie far below what a row sum can see).
    Where the cap overflows a float, ValueError asks for ``max_iter``.

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
