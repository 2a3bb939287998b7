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

The two mat-vecs of a sweep come from one of two sources, chosen once per
run by :func:`limit_matrix` from the grid it runs on: the dense k x k
kernel, or a convolution.  The gauged log kernel of a grid that
``grids.score_grid`` built for a built-in score depends on r - s alone,
theta * Phi(r - s), and at theta >= 0 it peaks on the diagonal, so K v is
a convolution with the symbol exp(theta * Phi), which an FFT applies in
O(k log k) time and O(k) memory (convolutional Sinkhorn: Solomon et al.
2015; Peyre and Cuturi 2019, ch. 4).  At theta < 0 it would peak in a
corner, where the FFT's rounding, which scales with the peak, loses the
small cells.  But where Phi is quadratic (xy, centered, sq) the grid
with its columns reversed, F J, is -Phi(r - s) plus a separable term, so
the limit at theta is J applied to the limit at |theta|: the run is that
on exp(|theta| * F), whose symbol exp(|theta| * Phi) peaks on the
diagonal, and its result is mapped back to F in O(k) (its columns
reversed, the separable term folded into the potentials, <F, A> from the
same spectra).  A run takes the convolution on a built-in score's grid
at k >= 450 and theta >= 0, or theta < 0 where Phi is quadratic; every
other run, footrule at theta < 0, any other grid or a smaller k, takes
the dense kernel, bit for bit as before.  The convolution has no log
domain: a sum that leaves float range on it raises ValueError, and the
run is not redone densely.  It keeps the sweep loop, its residual, its
range checks, its tolerance and cap and the check of the potentials'
size; its iterates differ from the dense ones by rounding alone (same
sweep counts, w' within 1e-13, cells within 1e-12 relative, 1e-11 for a
reversed run: the tests hold both to the dense oracle).

A run ends with the mean <F, A> of its score grid, taken from the final
scalings by one more mat-vec; the grid A itself is built on first read
from F and the final potentials, so a caller that needs only the mean
(w_k_prime, the LD equation) never builds it.
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
    first read, in a fresh k x k array, as ``A = exp(theta * F +
    row_log_scales[r] + col_log_scales[s])``, theta * F being the log
    kernel, so that identity holds up to rounding for every cell in float
    range; the result then drops F.  The cells are summed from the gauged
    log kernel and the potentials less the gauge (:func:`_exp_cells`), so
    that a gauge near float max does not round the scalings away.
    ``residual`` is the final max deviation of any row/column sum from
    1/k.  ``iterations`` counts sweeps and ``newton_steps`` the Newton
    steps taken between them; a run with Newton steps has ``converged``
    only once one of them settled it.
    """

    theta: float
    iterations: int
    newton_steps: int
    residual: float
    row_log_scales: np.ndarray
    col_log_scales: np.ndarray
    converged: bool
    score_mean: float
    # (F, gauge, row and column potentials less the gauge, whether the run
    # was reversed) until the grid is first read, then the grid
    _cells: tuple | CopulaGrid = field(repr=False)

    @property
    def grid(self) -> CopulaGrid:
        cells = self._cells
        if isinstance(cells, CopulaGrid):
            return cells
        score, gauge, alpha, beta, reverse = cells
        w = np.empty(score.shape)
        # a reversed run's cells are those of its run at |theta|, columns reversed
        _exp_cells(w[:, ::-1] if reverse else w, score, abs(self.theta) if reverse else self.theta,
                   gauge, alpha, beta)
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
        # a nan residual is not within tol
        above = "<=" if result.residual <= tol else ">"
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


def _exp_cells(out, score, theta, gauge, alpha, beta):
    """Write exp(gauged log kernel + alpha[r] + beta[s]) into ``out``.

    Taken from the potentials less the gauge, this keeps cells below K's
    float range exact.
    """
    _log_kernel(out, score, theta, gauge)
    out += alpha[:, None]
    out += beta
    return np.exp(out, out=out)


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
        return _deviations(_exp_cells(kern, score, theta, gauge, a, b), target)

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


# A run on a built-in score's grid at k >= _CONVOLUTION_MIN_K, at theta >= 0
# or reversed, takes its mat-vecs from _Convolution.  Its FFTs cost 25 us a
# mat-vec at k = 400 and 40 us at k = 1000, mostly fixed, so the dense
# product wins at small k on runs of many sweeps.
# Whole runs on a given F, dense | convolution, ms, median of 7 alternating
# (2 cores, numpy 2.4; the sweep counts are equal):
#
#   k     xy 3         xy 50        xy 500        sq 50        footrule 3   footrule 60
#   200   0.29 | 0.29  0.83 | 1.15   4.81 | 12.07  1.52 | 3.33  0.50 | 0.68  12.72 | 25.85
#   300   0.58 | 0.35  1.09 | 1.35   7.54 |  9.93  1.65 | 2.34  0.67 | 0.52  18.08 | 30.81
#   400   0.96 | 0.36  2.04 | 1.35  12.52 |  9.91  2.97 | 2.37  1.17 | 0.55  33.89 | 30.17
#   450   1.31 | 0.40  2.60 | 1.33  15.32 |  9.94  4.27 | 2.41  1.53 | 0.57  46.68 | 30.04
#   500   1.76 | 0.40  3.62 | 1.34  24.63 | 10.16  6.01 | 2.52  2.21 | 0.59  65.63 | 31.56
#   1000  6.89 | 0.65 14.62 | 2.16  82.02 | 15.44 23.62 | 3.89  8.80 | 0.98 238.37 | 55.25
#
# In two repeats of that table the convolution lost xy 500 at k = 400 once
# (13.36 | 16.89), and won every row from k = 450 up.  The cut lies above
# _NEWTON_MAX_K: no convolution run takes Newton steps, which need the
# k x k array.
_CONVOLUTION_MIN_K = 450


class _ConvolutionOutOfRange(ValueError):
    """A marginal sum left float range on the convolution path, which has no log domain."""

    def __init__(self, theta, k, line):
        super().__init__(f"a {line} sum left float range at theta = {theta:g}, k = {k} "
                         "on the convolution path")


def _phi(score):
    """Phi(d) = F[r, s] - (F[r, r] + F[s, s]) / 2 for d = r - s.

    Read off F's first column, d = 0 .. k-1, then its first row, d = 1-k .. -1.
    """
    diag = np.diagonal(score)
    col, row = score[:, 0], score[0, :0:-1]
    d0 = diag[0]
    return np.concatenate((col - 0.5 * (diag + d0), row - 0.5 * (d0 + diag[:0:-1])))


def _reverses(score) -> bool:
    """Whether a built-in score's grid F reverses into a distance kernel: Phi is quadratic.

    F[r, s] = Phi(r - s) + (F[r, r] + F[s, s]) / 2, and for such F the
    mixed second difference of F + F J, J reversing the columns, is
    Phi''(r + s - k + 1) - Phi''(r - s); F + F J is separable, P[r] + Q[s]
    (:func:`_separable`), exactly when Phi has a constant second difference.
    Then theta * F = |theta| * (F J - P (+) Q) at theta < 0, so the run on
    exp(theta * F) is that on exp(|theta| * F) with its columns reversed.
    xy, centered and sq pass (their second differences stay within
    2.5 eps * max |Phi| of constant up to k = 5000), and footrule, whose
    Phi = -|d| / k bends at d = 0 alone, does not.
    """
    k = score.shape[0]
    phi = _phi(score)
    second = np.diff(np.concatenate((phi[k:], phi[:k])), 2)
    # second[k - 2] is the one at d = 0
    return float(np.abs(second - second[k - 2]).max()) <= 64.0 * _EPS * float(np.abs(phi).max())


def _separable(score):
    """P and Q with F[r, s] + F[r, k-1-s] = P[r] + Q[s], on a grid that :func:`_reverses` passes.

    Read off F's first and last columns and its first row; exact up to
    rounding.  Q[s] = Q[k-1-s] and Q[0] = 0.
    """
    rows = score[:, 0] + score[:, -1]
    return rows, (score[0] + score[0, ::-1]) - rows[0]


class _Convolution:
    """K v and K^T u by FFT, for a gauged log kernel G[r, s] that depends on r - s alone.

    That holds on a built-in score's grid (``grids._BUILTIN_GRIDS``), where
    G = theta * Phi(r - s), and at theta >= 0, the only theta it is built
    for (a reversed run builds it at |theta|), its largest value is
    G[r, r] = 0.  The symbol t[d] = exp(G[r, s]) for d = r - s is read from
    F's first column (d >= 0) and first row (d < 0), each cell summed in
    the order of :func:`_log_kernel`, and stored circularly in n >= 2k - 1
    points, so that K v is the first k points of the circular convolution
    of t with v, and K^T u that of the reversed t, whose spectrum is the
    conjugate.  A third spectrum, of t o Phi, gives the mean <F, A> of
    diag(u) K diag(v) as u . ((K o Phi) v) + (rows . diag(F) + cols . diag(F)) / 2.
    Only arrays of n points are held.
    """

    def __init__(self, score, theta, gauge):
        k = score.shape[0]
        self.k, self.n = k, 1 << (2 * k - 2).bit_length()
        self.diag = np.diagonal(score)
        col, row = score[:, 0], score[0, :0:-1]  # d = 0 .. k-1, then d = 1-k .. -1
        log_t = np.concatenate(((theta * col + gauge[0]) + gauge,
                                (theta * row + gauge[:0:-1]) + gauge[0]))
        phi = _phi(score)
        # t and t o Phi, at circular points 0 .. k-1 and n+1-k .. n-1
        sym = np.stack((np.exp(log_t), phi))
        sym[1] *= sym[0]
        circ = np.zeros((2, self.n))
        circ[:, :k] = sym[:, :k]
        circ[:, self.n - k + 1:] = sym[:, k:]
        self.kernel, self.mean_kernel = np.fft.rfft(circ)
        self.transposed = self.kernel.conj()

    def _apply(self, spectrum, x, out):
        np.copyto(out, np.fft.irfft(spectrum * np.fft.rfft(x, self.n), self.n)[:self.k])
        return out

    def matvec(self, v, out):
        return self._apply(self.kernel, v, out)

    def rmatvec(self, u, out):
        return self._apply(self.transposed, u, out)

    def score_mean(self, u, v, rows, cols):
        """<F, A> for A = diag(u) K diag(v) with row sums ``rows`` and column sums ``cols``."""
        kphi_v = self._apply(self.mean_kernel, v, np.empty(self.k))
        return float(u @ kphi_v + 0.5 * (rows @ self.diag + cols @ self.diag))


def _sinkhorn(score: np.ndarray, theta: float, tol: float, max_iter: int,
              convolve: bool) -> IpfpResult:
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
    u * (K v) and its column sums v * (K^T u).  K v, the row sums, the
    column sums and K^T u are the four rows of one array, and one
    np.minimum/np.maximum reduce pair over it gives:

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
    writing K o score over K for the mean <score, A>.

    With ``convolve`` the two mat-vecs come from :class:`_Convolution`
    instead, and no k x k array is made: K has its largest entry, 1, on
    the diagonal, so alpha starts at 0; the run takes no Newton step (its
    k is above _NEWTON_MAX_K) and no log-domain step, for which a sum out of
    range raises _ConvolutionOutOfRange; the mean comes from the
    convolution.  At theta < 0 (on a grid that :func:`_reverses` passes)
    it is the run at |theta|, gauge and potentials included, to the last
    sweep; only the result is mapped back to F, in O(k), with the terms of
    :func:`_separable`.  The grid is then built from the run at |theta|
    with its columns reversed.
    """
    k = score.shape[0]
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    target = 1.0 / k
    # at theta < 0 the convolution runs on exp(|theta| * F) and reverses the
    # columns of its result
    reverse = convolve and theta < 0
    kernel_theta = -theta if reverse else theta
    # 0.0 - x keeps the gauge of a zero diagonal (sq, footrule) at +0
    gauge = np.subtract(0.0, np.diagonal(score) * (0.5 * kernel_theta))
    beta = np.zeros(k)
    if convolve:
        conv = _Convolution(score, kernel_theta, gauge)
        matvec, rmatvec = conv.matvec, conv.rmatvec
        # the symbol's largest value is exp(0), on the diagonal
        alpha = np.zeros(k)
    else:
        kern = _log_kernel(np.empty(score.shape), score, theta, gauge)
        alpha = -kern.max(axis=1)
        kern += alpha[:, None]
        np.exp(kern, out=kern)

        def matvec(x, out):
            return np.matmul(kern, x, out=out)

        def rmatvec(x, out):
            return np.matmul(x, kern, out=out)
    u, v = np.ones(k), np.ones(k)
    sums = np.empty((4, k))
    kv, rows, cols, ktu = sums
    matvec(v, kv)
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
        elif convolve:
            raise _ConvolutionOutOfRange(theta, k, "row")
        else:
            beta += np.log(v)
            alpha = _log_normalize(kern, score, theta, gauge, beta, axis=1)
            u.fill(1.0)
        rmatvec(u, ktu)
        if not col_ok:
            col_ok = _SUM_LO <= ktu.min() and ktu.max() <= _SUM_HI
        if col_ok:
            np.divide(target, ktu, out=v)
        elif convolve:
            raise _ConvolutionOutOfRange(theta, k, "column")
        else:
            alpha += np.log(u)
            beta = _log_normalize(kern, score, theta, gauge, alpha, axis=0)
            u.fill(1.0)
            v.fill(1.0)
            np.sum(kern, axis=0, out=ktu)
        matvec(v, kv)
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
            matvec(v, kv)
            row_ok = _SUM_LO <= kv.min() and kv.max() <= _SUM_HI
            col_ok = False
    if convolve:
        score_mean = conv.score_mean(u, v, rows, cols)
    else:
        # <F, A> = u . ((K o F) v), with K o F written over K
        np.multiply(kern, score, out=kern)
        score_mean = float(u @ (kern @ v))
    alpha += np.log(u)
    beta += np.log(v)
    row_scales, col_scales = gauge + alpha, gauge + beta
    if reverse:
        # A = A' J for the run's A' on exp(|theta| * F): with F + F J = P (+) Q,
        # log A = theta * F + (row scales + |theta| P) (+) (J col scales + |theta| Q),
        # and <F, A> = rows . P + cols . Q - <F, A'> (Q = J Q)
        sep_rows, sep_cols = _separable(score)
        score_mean = float(rows @ sep_rows + cols @ sep_cols) - score_mean
        row_scales += kernel_theta * sep_rows
        col_scales = col_scales[::-1] + kernel_theta * sep_cols
    result = IpfpResult(theta, iterations, newton_steps, residual, row_scales, col_scales,
                        residual <= tol and settled, score_mean,
                        (score, gauge, alpha, beta, reverse))
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
    and passes it.  A grid that score_grid built is run as it is; any
    other is first copied to a read-only float64 array, so that later
    writes to it do not reach the result.  A grid that is not k x k, or
    has a value that is not finite, raises ValueError.
    log A = theta*F + row_log_scales[r] + col_log_scales[s] holds for the
    returned result.

    A built-in score's grid runs on the convolution source at k >= 450,
    at theta >= 0 and, for xy, centered and sq, whose grids reverse into
    distance kernels, at theta < 0 as well (see the module docstring);
    every other run is on the dense kernel.  At k <= 100 a run that has
    not converged after 50 sweeps takes Newton steps (see the module
    docstring; ``newton_steps`` counts them).  A run that stops short of
    the tolerance by the sweep cap, or whose Newton steps cannot settle
    it, raises IpfpNonConvergence.  The default sweep cap is
    ceil(10 k (1 + |theta|)); where it overflows a float, ValueError asks
    for ``max_iter``.

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
    elif not grids._is_score_grid(score_grid):
        score_grid = np.array(score_grid, dtype=np.float64)
        if not grids._all_finite(score_grid):
            raise ValueError("score_grid has a value that is not finite")
        score_grid.setflags(write=False)
    if score_grid.shape != (k, k):
        raise ValueError(f"score_grid has shape {score_grid.shape}, not ({k}, {k})")
    if max_iter is None:
        cap = 10 * k * (1.0 + abs(theta))
        if not math.isfinite(cap):
            raise ValueError(f"the default sweep cap overflows at theta = {theta:g}; pass max_iter")
        max_iter = math.ceil(cap)
    convolve = (k >= _CONVOLUTION_MIN_K and grids._is_builtin_grid(score_grid)
                and (theta >= 0 or _reverses(score_grid)))
    return _sinkhorn(score_grid, theta, tol, max_iter, convolve)


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
    # + 0.0 turns the -0.0 of theta = 0 times a negative mean, less a KL of 0, to 0
    value = result.theta * result.score_mean - kl_to_uniform(result.grid.w) + 0.0
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
