"""The IPFP kernel and the score grid against their former versions, kept here verbatim.

``_oracle_sinkhorn`` is the scaling kernel as it was when it took the log
kernel log B0 as an array of its own, and ``_oracle_score_grid`` built F
by calling f on two k x k meshgrids.  The kernel now writes the gauged
log kernel into its working array wherever log B0 was read, and f gets read-only
broadcast views; grids, score means, residuals, sweep counts and both
log-scale vectors must come out bit for bit the same.  The oracle built
its grid at the end of the run; a result now builds it when it is first
read.  Both start from the diagonal gauge; the oracle's zero start, the
kernel's former one, shows that a score with a zero diagonal (sq,
footrule) runs bit for bit as it did from that start.  Both take their
Newton steps on the same schedule, through the kernel's own
``ipfp._newton_step``, so that what is pinned here is the sweep.  A run
on a grid that ``score_grid`` built for a built-in score, at
k >= ``ipfp._CONVOLUTION_MIN_K`` and theta >= 0, takes its mat-vecs from
an FFT convolution instead; those runs are held to the same oracle within
rounding, with equal sweep counts.  So are the runs there at theta < 0 on
xy, centered and sq, which take the convolution of the reversed problem
(F with its columns reversed, a distance kernel); the oracle runs that
problem densely on the double-centred reversed grid, and a tighter run
of the former kernel on F itself checks the mapping back.
"""
import math
from typing import NamedTuple

import numpy as np
import pytest

from permexp import ipfp
from permexp.grids import CopulaGrid, ScoreFunction, get_score, kl_to_uniform, lattice, score_grid
from permexp.ipfp import IpfpNonConvergence, IpfpResult, limit_matrix

from conftest import grid_mean, kernel_run

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


class _OracleRun(NamedTuple):
    """The fields an IPFP result had when the oracle built its grid eagerly."""

    grid: CopulaGrid
    iterations: int
    newton_steps: int
    residual: float
    row_log_scales: np.ndarray
    col_log_scales: np.ndarray
    converged: bool
    score_mean: float


def _oracle_sinkhorn(score: np.ndarray, theta: float, tol: float, max_iter: int,
                     gauge: bool = True, newton: bool = True) -> _OracleRun:
    """The scaling kernel on exp(log_b0), log_b0 = theta * score; see the module docstring.

    The iterate is diag(u) K diag(v) with K = exp(log_b0 + alpha (+) beta);
    log_b0 carries the diagonal gauge g = -(theta / 2) diag(score) on rows
    and columns (none when ``gauge`` is false), and the run returns g +
    alpha and g + beta.  alpha = -rowmax(log_b0) leaves an entry of 1 in
    every row.  Row sums u * (K v) reuse the next sweep's K v, column sums
    are v * (K^T u).  At k <= ipfp._NEWTON_MAX_K, after every
    ipfp._NEWTON_EVERY sweeps short of the tolerance and the cap, u and v
    are folded into the potentials and ipfp._newton_step sets K to the
    grid at the potentials it returns, with u = v = 1; until a step settles
    the run, one follows every sweep, and the run does not end at the
    tolerance.  A step it refuses ends the run's Newton steps, and the run
    itself if it is not settled.  With ``newton`` false the run takes
    none, as the kernel did before it took them.
    """
    log_b0 = theta * score
    g = np.subtract(0.0, np.diagonal(score) * (0.5 * theta))
    if gauge:
        log_b0 += g
        log_b0 += g[:, None]
    else:
        g.fill(0.0)
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
    iterations = newton_steps = 0
    newton = newton and k <= ipfp._NEWTON_MAX_K
    settled = True
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
        if residual <= tol and settled:
            break
        if (newton and (iterations % ipfp._NEWTON_EVERY == 0 or not settled)
                and iterations < max_iter):
            alpha += np.log(u)
            beta += np.log(v)
            step = ipfp._newton_step(kern, score, theta, g, alpha, beta)
            newton = step is not None
            if newton:
                alpha, beta, settled = step
                newton_steps += 1
            u = v = np.ones(k)
            if not (newton or settled):
                break
            kv = kern @ v
    score_mean = float(u @ ((kern * score) @ v))
    # exp of the final potentials keeps cells below K's float range exact
    alpha += np.log(u)
    beta += np.log(v)
    np.add(log_b0, alpha[:, None], out=kern)
    kern += beta
    np.exp(kern, out=kern)
    if gauge:
        alpha, beta = g + alpha, g + beta
    kern.setflags(write=False)
    result = _OracleRun(CopulaGrid(kern), iterations, newton_steps, residual, alpha, beta,
                        residual <= tol and settled, score_mean)
    if not result.converged:
        raise IpfpNonConvergence(result, tol)
    return result


def _oracle_score_grid(f, k: int) -> np.ndarray:
    """Read-only float64 F[r-1, s-1] = f(r/k, s/k); f is called on k x k meshgrids."""
    t = lattice(k)
    grid = np.asarray(f(*np.meshgrid(t, t, indexing="ij")), dtype=np.float64)
    grid.setflags(write=False)
    return grid


def _outcome(run):
    """The result of ``run()``, or the partial result it raised with."""
    try:
        return run()
    except IpfpNonConvergence as err:
        return err.result


def _assert_same_run(got: IpfpResult, want: _OracleRun) -> None:
    assert np.array_equal(got.grid.w, want.grid.w)
    assert got.residual == want.residual
    assert got.iterations == want.iterations
    assert got.newton_steps == want.newton_steps
    assert got.converged == want.converged
    assert np.array_equal(got.row_log_scales, want.row_log_scales)
    assert np.array_equal(got.col_log_scales, want.col_log_scales)
    assert got.score_mean == want.score_mean


@pytest.mark.parametrize("k", [1, 2, 100])
@pytest.mark.parametrize("theta", [-500.0, -3.0, 0.0, 3.0, 50.0, 500.0])
@pytest.mark.parametrize("name", ["xy", "footrule", "sq"])
def test_limit_matrix_matches_former_kernel(name, theta, k):
    f = get_score(name)
    # 2000 sweeps stop the runs that need more (footrule at 500, k = 100,
    # takes 79545) at a partial state, which must match as well
    for max_iter in (2, 2000):
        want = _outcome(lambda: _oracle_sinkhorn(_oracle_score_grid(f, k), theta, 1e-12,
                                                 max_iter))
        got = _outcome(lambda: limit_matrix(f, theta, k, max_iter=max_iter))
        _assert_same_run(got, want)


@pytest.mark.parametrize("k", [1, 2, 100])
@pytest.mark.parametrize("theta", [-500.0, -3.0, 0.0, 3.0, 50.0, 500.0])
@pytest.mark.parametrize("name", ["footrule", "sq"])
def test_zero_diagonal_runs_as_from_the_zero_gauge(name, theta, k):
    # the diagonal gauge of a zero diagonal is 0: every byte of the run, signed
    # zeros included, is that of the former zero start
    f = get_score(name)
    for max_iter in (2, 2000):
        want = _outcome(lambda: _oracle_sinkhorn(_oracle_score_grid(f, k), theta, 1e-12,
                                                 max_iter, gauge=False))
        got = _outcome(lambda: limit_matrix(f, theta, k, max_iter=max_iter))
        assert (got.iterations, got.residual, got.converged) == (
            want.iterations, want.residual, want.converged)
        assert np.float64(got.score_mean).tobytes() == np.float64(want.score_mean).tobytes()
        assert got.row_log_scales.tobytes() == want.row_log_scales.tobytes()
        assert got.col_log_scales.tobytes() == want.col_log_scales.tobytes()
        assert got.grid.w.tobytes() == want.grid.w.tobytes()


def _errors(run, ref) -> tuple:
    """w', w and the largest cell of ``run`` less those of ``ref``, in absolute value."""
    theta = ref.theta
    return (abs(run.score_mean - ref.score_mean),
            abs(theta * (run.score_mean - ref.score_mean)
                - kl_to_uniform(run.grid.w) + kl_to_uniform(ref.grid.w)),
            float(np.abs(run.grid.w - ref.grid.w).max()))


@pytest.mark.parametrize("theta, k", [
    (theta, k) for k in (10, 100) for theta in (-503.0, -50.0, 3.0, 20.0, 50.0, 503.0)
] + [(3.0, 1000), (20.0, 1000)])
def test_gauge_start_is_no_less_accurate(theta, k):
    # w', w and the largest cell error against a run to tol 1e-14, for the
    # run at the default tol from the diagonal gauge and for the former
    # kernel's run from the zero start, which took no Newton steps
    f = get_score("xy")
    ref = limit_matrix(f, theta, k, tol=1e-14)
    cap = int(math.ceil(10 * k * (1.0 + abs(theta))))
    gauged = _errors(limit_matrix(f, theta, k), ref)
    zero = _errors(_oracle_sinkhorn(_oracle_score_grid(f, k), theta, 1e-12, cap,
                                    gauge=False, newton=False), ref)
    assert all(g <= z for g, z in zip(gauged, zero)), (gauged, zero)


@pytest.mark.parametrize("name, theta, k", [
    ("xy", theta, k) for theta in (-503.0, 503.0) for k in (10, 100)
] + [
    ("footrule", theta, k) for theta, k in ((60.0, 10), (60.0, 30), (60.0, 100), (250.0, 100))
] + [("sq", theta, k) for k in (10, 30, 100) for theta in (-503.0, -250.0, -60.0, 60.0,
                                                             250.0, 503.0)])
def test_newton_steps_are_no_less_accurate(name, theta, k):
    # the same errors for a run that takes Newton steps and for the sweeps
    # alone, each at the default tol
    f = get_score(name)
    ref = limit_matrix(f, theta, k, tol=1e-14)
    run = limit_matrix(f, theta, k)
    assert run.newton_steps > 0
    newton = _errors(run, ref)
    sweeps = _errors(_oracle_sinkhorn(_oracle_score_grid(f, k), theta, 1e-12, 10**6,
                                      newton=False), ref)
    assert all(n <= w for n, w in zip(newton, sweeps)), (newton, sweeps)


# Runs through every branch of the sweep: column absorptions (xy at k = 10
# also after plain sweeps, when the a-priori bound on the column sums
# fails), a column then a row absorption (xy at k = 4), theta at the edge
# of float range, small sweep caps, and k = 1000; None is the default cap
_BRANCH_RUNS = (
    [(name, theta, k, 200) for name in ("xy", "sq", "centered")
     for theta in (-1e4, -2000.0, 2000.0, 1e4) for k in (2, 3, 10)]
    + [("footrule", -2000.0, k, 200) for k in (3, 10)]
    + [("xy", theta, 4, 200) for theta in (-1e5, -1e4, 1e4, 1e5)]
    + [(name, theta, 10, 50) for name in ("xy", "centered", "footrule", "sq")
       for theta in (-1e300, 1e300)]
    + [(name, 50.0, 100, cap) for name in ("xy", "footrule") for cap in (1, 2, 50)]
    + [("xy", theta, 1000, cap) for theta in (3.0, 20.0) for cap in (2, None)]
)


@pytest.mark.parametrize("name, theta, k, max_iter", _BRANCH_RUNS)
def test_limit_matrix_matches_former_kernel_on_every_branch(name, theta, k, max_iter):
    f = get_score(name)
    cap = max_iter or int(math.ceil(10 * k * (1.0 + abs(theta))))
    score = _oracle_score_grid(f, k)
    want = _outcome(lambda: _oracle_sinkhorn(score, theta, 1e-12, cap))
    # the oracle's grid, which score_grid did not build, keeps every run on
    # the dense kernel; xy's own grid at k = 1000 and theta >= 0 would take
    # the convolution, held to this oracle below
    got = _outcome(lambda: limit_matrix(None, theta, k, max_iter=max_iter, score_grid=score))
    _assert_same_run(got, want)


def _convolutions(monkeypatch) -> list:
    """The order k of each run that takes the convolution source from now on."""
    made = []

    class Counted(ipfp._Convolution):
        def __init__(self, score, theta, gauge):
            made.append(score.shape[0])
            super().__init__(score, theta, gauge)

    monkeypatch.setattr(ipfp, "_Convolution", Counted)
    return made


# Every built-in at k in {the cut, 1000} and theta >= 0; footrule, whose
# sweeps grow fastest in theta, up to 60 (431 sweeps at theta = 50, k = 1000)
_PARITY_RUNS = [
    (name, theta, k) for k in (ipfp._CONVOLUTION_MIN_K, 1000)
    for name in ("xy", "centered", "sq", "footrule")
    for theta in ((0.0, 0.5, 3.0, 20.0, 50.0, 60.0) if name == "footrule"
                  else (0.0, 0.5, 3.0, 20.0, 50.0, 500.0))
]


@pytest.mark.parametrize("name, theta, k", _PARITY_RUNS)
def test_convolution_matches_dense_oracle(monkeypatch, name, theta, k):
    # the convolution's iterates differ from the dense kernel's by rounding
    # alone: the same sweeps, and w', w and every cell to within 1e-13, 1e-12
    # and 1e-12 relative.  None of these runs raises _ConvolutionOutOfRange
    f = get_score(name)
    made = _convolutions(monkeypatch)
    got = limit_matrix(f, theta, k)
    want = _oracle_sinkhorn(_oracle_score_grid(f, k), theta, 1e-12,
                            int(math.ceil(10 * k * (1.0 + theta))))
    assert made == [k]
    assert got.converged and got.newton_steps == 0
    assert got.iterations == want.iterations
    assert abs(got.score_mean - want.score_mean) <= 1e-13
    w_got = ipfp.variational_value(got)
    w_want = theta * want.score_mean - kl_to_uniform(want.grid.w)
    assert abs(w_got - w_want) <= 1e-12
    assert np.all(np.abs(got.grid.w - want.grid.w) <= 1e-12 * want.grid.w)


@pytest.mark.parametrize("name, theta", [("footrule", -3.0), ("custom xy", 3.0),
                                         ("custom xy", -3.0)])
def test_dense_runs_at_large_k_stay_bit_for_bit(monkeypatch, name, theta):
    # footrule at theta < 0, whose reversed grid is no distance kernel, and a
    # score that computes xy but is not the built-in, stay on the dense
    # kernel at k = 1000, bit for bit the former kernel's
    f = get_score(name) if name == "footrule" else ScoreFunction(name, lambda x, y: x * y)
    made = _convolutions(monkeypatch)
    got = limit_matrix(f, theta, 1000)
    want = _oracle_sinkhorn(_oracle_score_grid(f, 1000), theta, 1e-12, 40_000)
    assert made == []
    _assert_same_run(got, want)


def test_convolution_starts_at_the_cut(monkeypatch):
    made = _convolutions(monkeypatch)
    cut = ipfp._CONVOLUTION_MIN_K
    assert cut > ipfp._NEWTON_MAX_K
    for name, theta in (("footrule", 3.0), ("xy", -3.0)):
        for k in (cut - 1, cut):
            limit_matrix(get_score(name), theta, k)
    limit_matrix(get_score("footrule"), -0.0, cut)
    assert made == [cut, cut, cut]


def _reversed_problem(score: np.ndarray) -> np.ndarray:
    """F with its columns reversed, less its row and column means plus its grand mean.

    For xy, centered and sq that is -Phi(r - s) plus a symmetric separable
    term, so its gauged log kernel at theta < 0 is |theta| Phi(r - s).
    """
    grid = np.array(score[:, ::-1])
    grid -= grid.mean(axis=1, keepdims=True)
    grid -= grid.mean(axis=0, keepdims=True)
    return grid


# xy, centered and sq, the built-ins whose grids reverse into distance kernels
_REVERSED_RUNS = [
    (name, theta, k) for k in (ipfp._CONVOLUTION_MIN_K, 1000)
    for name in ("xy", "centered", "sq")
    for theta in (-0.5, -1.0, -3.0, -20.0, -50.0, -500.0)
]


@pytest.mark.parametrize("name, theta, k", _REVERSED_RUNS)
def test_reversed_convolution_matches_dense_reversed_run(monkeypatch, name, theta, k):
    # the former kernel runs the reversed problem densely, and its grid's
    # columns reversed back are the grid at theta: the same sweeps, w', w and
    # every cell to within 1e-13, 1e-12 and 1e-11 relative (measured at most
    # 2.3e-16, 8.5e-14 and 2.9e-13)
    f = get_score(name)
    score = score_grid(f, k)
    made = _convolutions(monkeypatch)
    got = limit_matrix(f, theta, k, score_grid=score)
    want = _oracle_sinkhorn(_reversed_problem(score), theta, 1e-12,
                            int(math.ceil(10 * k * (1.0 - theta))))
    assert made == [k]
    assert got.converged and got.newton_steps == 0
    assert got.iterations == want.iterations
    cells = want.grid.w[:, ::-1]
    want_mean = float(np.sum(cells * score))
    assert abs(got.score_mean - want_mean) <= 1e-13
    # variational_value checks the potentials mapped back to F as well
    assert abs(ipfp.variational_value(got) - (theta * want_mean - kl_to_uniform(cells))) <= 1e-12
    assert np.all(np.abs(got.grid.w - cells) <= 1e-11 * cells)


@pytest.mark.parametrize("theta", [-1.0, -64.0, -500.0])
@pytest.mark.parametrize("name", ["xy", "centered", "sq"])
def test_reversed_convolution_matches_the_dense_run_on_f(name, theta):
    # both at tol 1e-14, the reversed run and the dense one on an unmarked
    # copy of F: w' within 1e-11 and every cell of mass within 1e-8 relative
    # (measured at most 8.9e-13 and 4.5e-10, sq at theta = -500)
    k = ipfp._CONVOLUTION_MIN_K
    score = score_grid(get_score(name), k)
    got = limit_matrix(None, theta, k, tol=1e-14, score_grid=score)
    want = limit_matrix(None, theta, k, tol=1e-14, score_grid=np.array(score))
    assert abs(got.score_mean - want.score_mean) <= 1e-11
    mass = want.grid.w > 1e-300
    assert np.all(np.abs(got.grid.w - want.grid.w)[mass] <= 1e-8 * want.grid.w[mass])
    # log A = theta F + alpha (+) beta, with the potentials mapped back to F
    log_cells = theta * score + got.row_log_scales[:, None] + got.col_log_scales
    assert np.abs(np.log(got.grid.w) - log_cells).max() <= 1e-11  # measured 2.7e-13


@pytest.mark.parametrize("max_iter", [2, None])
@pytest.mark.parametrize("name, theta", [("xy", 500.0), ("sq", 20.0)])
def test_a_run_at_negative_theta_is_the_run_at_abs_theta_reversed(name, theta, max_iter):
    # the same sweeps to the last bit, a stopped run's included: the result
    # differs only in what is mapped back to F
    f = get_score(name)
    k = ipfp._CONVOLUTION_MIN_K
    got = _outcome(lambda: limit_matrix(f, -theta, k, max_iter=max_iter))
    ahead = _outcome(lambda: limit_matrix(f, theta, k, max_iter=max_iter))
    assert got.theta == -theta
    assert (got.iterations, got.residual, got.converged) == (
        ahead.iterations, ahead.residual, ahead.converged)
    assert got.converged == (max_iter is None)
    assert np.array_equal(got.grid.w, ahead.grid.w[:, ::-1])


def test_sum_out_of_range_on_the_convolution_is_an_error(monkeypatch):
    # with the range's top at 1 the first K v (sums up to about k / 2) leaves
    # it: the dense kernel absorbs the scalings into its potentials, and the
    # convolution, which has no log domain, raises rather than run densely
    f = get_score("xy")
    score = score_grid(f, 1000)
    made = _convolutions(monkeypatch)
    monkeypatch.setattr(ipfp, "_SUM_HI", 1.0)
    dense = limit_matrix(None, 3.0, 1000, score_grid=np.array(score))
    assert dense.converged
    with pytest.raises(ipfp._ConvolutionOutOfRange, match="row sum left float range"):
        limit_matrix(f, 3.0, 1000, score_grid=score)
    assert made == [1000]


def test_the_grid_not_the_score_picks_the_source(monkeypatch):
    # xy's grid plus 0.3 sin(7r) cos(3s) is not a built-in's grid: with xy
    # as f the run is the dense one of f = None on it, bit for bit.  A
    # source chosen by the score would read xy's symbol off this grid, and
    # its grid would miss its margins by 1.6e-3
    k = 500
    r = np.arange(k)
    grid = score_grid(get_score("xy"), k) + 0.3 * np.sin(7 * r)[:, None] * np.cos(3 * r)
    made = _convolutions(monkeypatch)
    got = limit_matrix(get_score("xy"), 3.0, k, score_grid=grid)
    want = limit_matrix(None, 3.0, k, score_grid=grid)
    assert made == []
    _assert_same_run(got, want)
    assert np.abs(got.grid.w.sum(axis=1) - 1.0 / k).max() <= 1e-12


def test_a_built_in_grid_takes_the_convolution_without_its_score(monkeypatch):
    # the mark is on the grid that score_grid built: f = None runs on it as
    # f does, and a copy of it, which carries no mark, runs densely
    k = ipfp._CONVOLUTION_MIN_K
    f = get_score("footrule")
    grid = score_grid(f, k)
    made = _convolutions(monkeypatch)
    got = limit_matrix(None, 3.0, k, score_grid=grid)
    assert made == [k]
    _assert_same_run(got, limit_matrix(f, 3.0, k, score_grid=grid))
    assert made == [k, k]
    limit_matrix(None, 3.0, k, score_grid=grid.copy())
    assert made == [k, k]


# Score grids whose column sums leave [e^-200, e^200] only after plain
# sweeps, so that the bound on the next column sums decides whether a
# sweep checks them.  Each row is shifted to a 0 on the diagonal, so the
# diagonal gauge is 0 and the row maxima give the kernel K of the rows
# "tight" [0, -0.415.., -197.6], [0, -1, -700], [-1, 0, -700] and
# "shrinking" [0, 0, 0, -194.5], 3 x [0, -100, -100, -300].  "tight":
# column 3 takes its mass from row 1 alone, and row 1 carries the largest
# sum, so the bound is exact but for rounding; the third sweep's column
# sums fall below e^-200 by less than that rounding, and only the bound's
# factor-2 margin sends the sweep to its check and absorption.
# "shrinking": column 4 loses about a factor e a sweep and leaves at the
# fourth; a bound that ignored the row sums, or swapped their min and
# max, would skip that absorption.
_LATE_ABSORPTIONS = {
    "tight": [[0.0, -0.41522830640165775, -197.6],
              [1.0, 0.0, -699.0],
              [699.0, 700.0, 0.0]],
    "shrinking": [[0.0, 0.0, 0.0, -194.5],
                  [100.0, 0.0, 0.0, -200.0],
                  [100.0, 0.0, 0.0, -200.0],
                  [300.0, 200.0, 200.0, 0.0]],
}


@pytest.mark.parametrize("max_iter", [4, None])
@pytest.mark.parametrize("grid", sorted(_LATE_ABSORPTIONS))
def test_late_column_absorption_matches_former_kernel(grid, max_iter):
    score = np.array(_LATE_ABSORPTIONS[grid])
    k = score.shape[0]
    # theta = 1 runs on exp(score); neither grid converges in 4 sweeps, and by
    # the default cap only "shrinking" does, with Newton steps (the sweeps
    # alone took 152)
    cap = max_iter or int(math.ceil(10 * k * 2.0))
    want = _outcome(lambda: _oracle_sinkhorn(score, 1.0, 1e-12, cap))
    got = _outcome(lambda: limit_matrix(None, 1.0, k, max_iter=max_iter, score_grid=score))
    _assert_same_run(got, want)
    assert got.converged == (grid == "shrinking" and max_iter is None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shift", [-700.0, 700.0])
def test_sweep_after_a_newton_step_checks_both_sums(monkeypatch, shift):
    # the bound that spares a sweep its check of K^T u holds only after a
    # plain row step.  A first Newton step that moves column 0's potential
    # by +-700 (the kernel's own step, shifted) leaves that column's K^T u
    # out of float range at the next sweep, which must check it and take a
    # log-domain column step, as the oracle does
    newton_step = ipfp._newton_step

    def shift_first_step():
        first = [True]

        def shifted(kern, score, theta, gauge, alpha, beta):
            step = newton_step(kern, score, theta, gauge, alpha, beta)
            if step is None or not first[0]:
                return step
            first[0] = False
            a, b, _ = step
            b = b.copy()
            b[0] += shift
            log_a = ipfp._log_kernel(np.empty_like(kern), score, theta, gauge)
            kern[:, 0] = np.exp(log_a[:, 0] + a + b[0])
            return a, b, False

        monkeypatch.setattr(ipfp, "_newton_step", shifted)

    f = get_score("footrule")
    shift_first_step()
    got = _outcome(lambda: limit_matrix(f, 60.0, 100))
    shift_first_step()
    want = _outcome(lambda: _oracle_sinkhorn(_oracle_score_grid(f, 100), 60.0, 1e-12, 61_000))
    _assert_same_run(got, want)
    assert got.converged


@pytest.mark.parametrize("k", [1, 2, 100])
@pytest.mark.parametrize("theta", [-500.0, 3.0, 500.0])
@pytest.mark.parametrize("name", ["xy", "footrule", "sq"])
def test_stored_mean_matches_grid_mean(name, theta, k):
    # a run takes <F, A> from its final scalings, and builds A from its
    # final potentials; at the default sweep cap, as every caller runs it
    f = get_score(name)
    score = score_grid(f, k)
    res = _outcome(lambda: limit_matrix(f, theta, k, score_grid=score))
    mean = res.score_mean
    # the products summed exactly: an unordered sum of the k^2 products is
    # itself off by up to 4.5e-15 (sq, k = 100, theta = 500)
    want = math.fsum((res.grid.w * score).ravel())
    # the grid's mass is off 1 by the rounding of its potentials (4.9e-15
    # at footrule, k = 100, theta = -500), and its mean with it
    slack = 4e-15 + abs(math.fsum(res.grid.w.ravel()) - 1.0)
    assert abs(mean - want) <= slack * abs(want)
    # a grid read after the mean is the former kernel's, bit for bit
    # (2000 sweeps at most, as above)
    got = _outcome(lambda: limit_matrix(f, theta, k, max_iter=2000))
    assert math.isfinite(got.score_mean)
    _assert_same_run(got, _outcome(lambda: _oracle_sinkhorn(
        _oracle_score_grid(f, k), theta, 1e-12, 2000)))


@pytest.mark.parametrize("k", [1, 2, 100])
def test_stored_mean_of_custom_kernel(k):
    # an asymmetric kernel, whose row and column scalings differ
    b0 = np.random.default_rng(k).uniform(1e-3, 1e3, size=(k, k))
    res = kernel_run(b0)
    want = grid_mean(res.grid.w, np.log(b0))
    slack = 4e-15 + abs(math.fsum(res.grid.w.ravel()) - 1.0)
    assert abs(res.score_mean - want) <= slack * abs(want)


@pytest.mark.parametrize("k", [1, 2, 100])
def test_custom_kernel_matches_former_kernel(k):
    b0 = np.random.default_rng(k).uniform(1e-3, 1e3, size=(k, k))
    _assert_same_run(kernel_run(b0), _oracle_sinkhorn(np.log(b0), 1.0, 1e-12, 10_000))


@pytest.mark.parametrize("k", [1, 2, 100, 500])
@pytest.mark.parametrize("name", ["xy", "centered", "footrule", "sq"])
def test_score_grid_matches_meshgrid_build(name, k):
    f = get_score(name)
    got = score_grid(f, k)
    assert got.shape == (k, k) and not got.flags.writeable
    assert np.array_equal(got, _oracle_score_grid(f, k))


def test_score_function_gets_read_only_views():
    seen = []

    def f(x, y):
        seen.append((x.shape, y.shape, x.flags.writeable, y.flags.writeable))
        return x - 2.0 * y

    got = score_grid(f, 7)
    assert seen == [((7, 1), (1, 7), False, False)]
    assert np.array_equal(got, _oracle_score_grid(f, 7))
