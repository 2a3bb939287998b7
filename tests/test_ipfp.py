import dataclasses
import math
import pickle
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, logsumexp, xlogy

from permexp import ipfp
from permexp.grids import (
    SCORE_FUNCTIONS,
    ScoreFunction,
    get_score,
    kl_to_uniform,
    score_grid,
)
from permexp.ipfp import (
    IpfpNonConvergence,
    limit_matrix,
    variational_value,
    w_k,
    w_k_prime,
)

from conftest import kernel_run, recover_potentials


class TestIpfpScale:
    # runs on given kernels: theta = 0 for all ones, a built-in score where
    # one has the kernel, else log b0 as the score grid (conftest.kernel_run)
    def test_all_ones_one_sweep(self):
        res = limit_matrix(get_score("xy"), 0.0, 3)
        assert np.allclose(res.grid.w, 1 / 9)
        assert res.iterations == 1
        assert res.converged

    def test_separable_kernel_gives_uniform(self):
        rng = np.random.default_rng(0)
        g, h = rng.normal(size=5), rng.normal(size=5)
        res = kernel_run(np.exp(g[:, None] + h[None, :]))
        assert np.allclose(res.grid.w, 1 / 25, atol=1e-13)

    def test_rejects_bad_tol(self):
        for tol in (0.0, -1e-12, float("nan"), -float("inf")):
            with pytest.raises(ValueError, match="tol must be positive"):
                limit_matrix(get_score("xy"), 0.0, 2, tol=tol)

    def test_rejects_infinite_tol(self):
        # an infinite tolerance would stop every run after one sweep
        with pytest.raises(ValueError, match="tol must be finite"):
            limit_matrix(get_score("xy"), 0.0, 2, tol=float("inf"))
        with pytest.raises(ValueError, match="tol must be finite"):
            limit_matrix(get_score("xy"), 20.0, 4, tol=float("inf"))

    def test_nonconvergence_carries_state_and_retry_works(self):
        b0 = np.exp(8.0 * np.outer(np.arange(4), np.arange(4)) / 9)
        with pytest.raises(IpfpNonConvergence) as exc:
            kernel_run(b0, tol=1e-14, max_iter=2)
        partial = exc.value.result
        assert not partial.converged
        assert partial.iterations == 2
        assert partial.residual > 1e-14
        res = kernel_run(b0, tol=1e-14, max_iter=10_000)
        assert res.converged

    def test_2x2_matches_brute_force_kl_program(self):
        # the centered score's kernel at theta = 5 on the k=2 lattice is
        # [[1, 1], [1, e^(theta/4)]]
        theta = 5.0
        res = limit_matrix(get_score("centered"), theta, 2, tol=1e-15, max_iter=10_000)

        # grids with 1/2 margins are [[a, .5-a], [.5-a, a]]; scan a
        fgrid = np.array([[0.0, 0.0], [0.0, 0.25]])

        def objective(a):
            ent = 2.0 * (a * np.log(a) + (0.5 - a) * np.log(0.5 - a))
            return theta * 0.25 * a - 2.0 * math.log(2.0) - ent

        grid = np.linspace(1e-9, 0.5 - 1e-9, 200_001)
        a_star = float(grid[np.argmax(objective(grid))])
        local = np.linspace(a_star - 2e-6, a_star + 2e-6, 400_001)
        a_star = float(local[np.argmax(objective(local))])

        assert res.grid.w[0, 0] == pytest.approx(a_star, abs=1e-8)
        assert res.grid.w[1, 1] == pytest.approx(a_star, abs=1e-8)
        assert res.grid.w[0, 1] == pytest.approx(0.5 - a_star, abs=1e-8)
        want = float(objective(a_star))
        got = theta * np.sum(fgrid * res.grid.w) - kl_to_uniform(res.grid.w)
        assert got == pytest.approx(want, abs=1e-8)


def _plus_inf(x, y):
    return np.where(x > 0.5, np.inf, x * y)


def _nan(x, y):
    return np.where(y > 0.5, np.nan, x * y)


def _minus_inf(x, y):
    return np.where(x < y, -np.inf, x * y)


class TestNonFiniteScore:
    # unchecked, +inf or nan cells run the whole sweep cap to a nan residual
    # (51,000 sweeps, about 10 s, at k = 100, theta = 50) and -inf cells
    # give a nan w and w'; the grid build refuses them before any sweep
    @pytest.mark.parametrize("fn", [_plus_inf, _nan, _minus_inf],
                             ids=["plus-inf", "nan", "minus-inf"])
    def test_raises_at_once_naming_the_score(self, fn):
        f = ScoreFunction(fn.__name__, fn)
        calls = [lambda: score_grid(f, 100), lambda: limit_matrix(f, 50.0, 100),
                 lambda: w_k(f, 50.0, 100), lambda: w_k_prime(f, 50.0, 100)]
        start = time.perf_counter()
        for call in calls:
            with pytest.raises(ValueError, match=f"score '{fn.__name__}' is not finite"):
                call()
        assert time.perf_counter() - start < 1.0


class TestLimitMatrix:
    def test_theta_zero_uniform(self):
        for f in (get_score("xy"), get_score("footrule")):
            res = limit_matrix(f, 0.0, 6)
            assert np.allclose(res.grid.w, 1 / 36, atol=1e-14)

    def test_symmetric_score_symmetric_matrix(self):
        res = limit_matrix(get_score("xy"), 20.0, 60)
        assert np.abs(res.grid.w - res.grid.w.T).max() <= 1e-10

    def test_scaling_structure_invariant(self):
        f = get_score("centered")
        for theta in (-7.0, 3.0, 45.0):
            res = limit_matrix(f, theta, 40)
            logres = np.log(res.grid.w) - theta * score_grid(f, 40)
            logres -= res.row_log_scales[:, None]
            logres -= res.col_log_scales[None, :]
            assert np.abs(logres).max() <= 1e-8

    @pytest.mark.parametrize("shape", [(10, 10), (50, 10), (50,)], ids=["k10", "rows", "1-d"])
    def test_score_grid_must_be_k_by_k(self, shape):
        f = get_score("xy")
        with pytest.raises(ValueError, match="score_grid has shape"):
            limit_matrix(f, 3.0, 50, score_grid=np.zeros(shape))

    def test_log_domain_matches_plain(self):
        # oracle: textbook log-domain Sinkhorn from the same diagonal gauge,
        # run for the same sweeps
        f = get_score("xy")
        k, theta = 25, 8.0
        log_b0 = theta * score_grid(f, k)
        res = limit_matrix(f, theta, k, max_iter=10_000)
        gauge = -0.5 * np.diagonal(log_b0)
        log_a = log_b0 + gauge + gauge[:, None]
        for _ in range(res.iterations):
            log_a -= logsumexp(log_a, axis=1, keepdims=True) + np.log(k)
            log_a -= logsumexp(log_a, axis=0, keepdims=True) + np.log(k)
        assert np.abs(res.grid.w - np.exp(log_a)).max() <= 1e-12

    def test_large_theta_uses_log_domain_without_overflow(self):
        res = limit_matrix(get_score("xy"), 500.0, 30, tol=1e-10)
        assert res.converged
        assert np.all(np.isfinite(res.grid.w))

    @pytest.mark.parametrize("name, theta, k, sweeps", [
        ("xy", 500.0, 100, 53),
        ("footrule", 60.0, 100, 53),
        ("xy", 20.0, 1000, 11),
    ])
    def test_sweep_counts(self, name, theta, k, sweeps):
        # the sweeps alone took 219 and 716 at k = 100; there Newton steps
        # follow sweeps 50, 51 and 52, the last of which settles the run, and
        # k = 1000 takes none
        res = limit_matrix(get_score(name), theta, k)
        assert res.iterations == sweeps
        assert res.newton_steps == (3 if k <= 100 else 0)
        assert res.residual <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scalings_beyond_float_range_are_absorbed(self, monkeypatch):
        # gauged kernel entries reach e^-980 of their row maximum, below float
        # range, and the scalings leave it: the run takes a log-domain step
        f = get_score("xy")
        theta, k = -2000.0, 100
        steps = []
        log_normalize = ipfp._log_normalize

        def counted(*args, **kwargs):
            steps.append(kwargs["axis"])
            return log_normalize(*args, **kwargs)

        monkeypatch.setattr(ipfp, "_log_normalize", counted)
        res = limit_matrix(f, theta, k)
        # the sweeps alone took 1202
        assert res.converged and (res.iterations, res.newton_steps) == (62, 12)
        assert steps
        assert np.all(np.isfinite(res.grid.w))
        assert np.all(np.isfinite(res.row_log_scales))
        assert np.all(np.isfinite(res.col_log_scales))
        logres = (theta * score_grid(f, k) + res.row_log_scales[:, None]
                  + res.col_log_scales[None, :])
        normal = res.grid.w >= np.finfo(np.float64).tiny
        assert np.abs(np.log(res.grid.w[normal]) - logres[normal]).max() <= 1e-8

    @pytest.mark.parametrize("theta", [-1e12, -1e20, -1e300])
    @pytest.mark.parametrize("name", ["xy", "centered", "sq", "footrule"])
    def test_potentials_beyond_float_precision_are_refused(self, name, theta):
        # at k = 2 these runs meet tol in a sweep or two, but their potentials
        # are of order |theta| and rounding them swallows the scalings: the
        # grid would miss the 1/2 margins (xy at theta = -1e20: cells 0 and 4)
        with pytest.raises(ValueError, match="rounding moves the grid's sums by more than tol"):
            limit_matrix(get_score(name), theta, 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonconvergence_beyond_float_range_keeps_finite_state(self):
        # the sweeps alone stopped at the cap of 300 at residual 7.407e-4; the
        # Newton steps meet tol, but cannot settle the potentials, and stop
        with pytest.raises(IpfpNonConvergence, match="Newton steps that did not settle it") as exc:
            limit_matrix(get_score("xy"), -1e4, 3, max_iter=300)
        partial = exc.value.result
        assert not partial.converged
        assert (partial.iterations, partial.newton_steps) == (83, 33)
        assert partial.residual == pytest.approx(5.051514762e-15, rel=1e-9)
        assert np.all(np.isfinite(partial.grid.w))
        assert np.all(np.isfinite(partial.row_log_scales))
        assert np.all(np.isfinite(partial.col_log_scales))

    def test_peak_memory_in_place(self):
        k = 1000
        tracemalloc.start()
        try:
            limit_matrix(get_score("xy"), 3.0, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * k * k * 8

    def test_qualitative_density_shape(self):
        # positive temperature: symmetric about both diagonals, peaked on x=y
        res = limit_matrix(get_score("xy"), 20.0, 50)
        d = 50 * 50 * res.grid.w
        assert np.abs(d - d.T).max() <= 1e-8            # about x = y
        assert np.abs(d - d[::-1, ::-1].T).max() <= 1e-8  # about x + y = 1
        assert d.diagonal().min() >= d[0, -1]
        assert d.diagonal().max() == pytest.approx(d.max())


class TestDiagonalGauge:
    """Runs that the diagonal gauge brings to the tolerance by the default cap."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [-1e4, -500.0, -50.0, -3.0, 3.0, 50.0, 500.0, 1e4, 1e300])
    @pytest.mark.parametrize("name", ["xy", "centered"])
    def test_order_two_matches_the_closed_form(self, name, theta):
        # at k = 2 the limit is 1/2 [[s, 1 - s], [1 - s, s]], s = sigma(theta
        # Delta / 2), Delta = F11 + F22 - F12 - F21 = 1/4 for both scores
        res = limit_matrix(get_score(name), theta, 2)
        assert res.converged and res.iterations == 1
        s, t = expit(theta / 8.0), expit(-theta / 8.0)
        want = 0.5 * np.array([[s, t], [t, s]])
        assert np.all(np.abs(res.grid.w - want) <= 1e-12 * want)
        for axis in (0, 1):
            assert np.abs(res.grid.w.sum(axis=axis) - 0.5).max() <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [-500.0, -250.0, -100.0, 100.0, 250.0, 500.0])
    @pytest.mark.parametrize("name, delta", [("sq", 0.5), ("footrule", 1.0)])
    def test_order_two_of_a_zero_diagonal_matches_the_closed_form(self, name, delta, theta):
        # no gauge; Delta = -F12 - F21 is 1/2 for sq and 1 for footrule, and
        # the off-diagonal or diagonal cells reach e^-250 / 2
        res = limit_matrix(get_score(name), theta, 2)
        assert res.converged
        s, t = expit(theta * delta / 2.0), expit(-theta * delta / 2.0)
        want = 0.5 * np.array([[s, t], [t, s]])
        assert np.all(np.abs(res.grid.w - want) <= 1e-12 * want)
        for axis in (0, 1):
            assert np.abs(res.grid.w.sum(axis=axis) - 0.5).max() <= 1e-12

    @pytest.mark.parametrize("theta", [1e12, 1e16])
    @pytest.mark.parametrize("name", ["xy", "centered"])
    def test_order_two_value_matches_the_closed_form(self, name, theta):
        # w = theta <F, A> - D(A || uniform) on the closed-form grid; the
        # potential identity's slack has to cover the rounding of theta <F, A>
        f = get_score(name)
        s, t = expit(theta / 8.0), expit(-theta / 8.0)
        a = 0.5 * np.array([[s, t], [t, s]])
        want = theta * float((a * score_grid(f, 2)).sum()) - float(xlogy(a, 4.0 * a).sum())
        assert w_k(f, theta, 2) == pytest.approx(want, rel=1e-15)

    # the largest relative cell error, as measured against the 80-digit limit
    # below, of runs that stop at the default cap from the ungauged start; the
    # worst cells are off by less than tol / k, which no row or column sum sees
    _CONVERGED_FROM_THE_GAUGE = [
        (name, theta, k, bound) for name in ("xy", "centered")
        for theta, k, bound in ((250.0, 3, 5e-7), (500.0, 3, 1e-12), (250.0, 4, 1e-8),
                                (500.0, 4, 1e-7))
    ]
    # 22 of the 23 runs of the sweep-cap grid (the four scores, k in {2, 3, 4,
    # 5, 10, 30}, |theta| in {100, 250, 500}) that stop at the default cap
    # without Newton steps; with them each converges, every cell within 1e-8
    # (the largest error is 1e-13); the 23rd is test_unsettled_runs_stop
    _CONVERGED_BY_NEWTON = [
        (name, theta, k, 1e-8) for name, theta, k in (
            [(name, theta, k) for name in ("xy", "centered")
             for theta, k in ((-250.0, 3), (-500.0, 3), (-250.0, 4), (-500.0, 4),
                              (-500.0, 5), (500.0, 5))]
            + [("sq", -250.0, k) for k in (3, 4, 5)] + [("sq", -500.0, k) for k in (4, 5)]
            + [("sq", -100.0, 3), ("sq", 100.0, 3), ("sq", 250.0, 5)]
            + [("footrule", 100.0, 10), ("footrule", 250.0, 30)])
    ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, theta, k, bound",
                             _CONVERGED_FROM_THE_GAUGE + _CONVERGED_BY_NEWTON)
    def test_small_orders_match_an_80_digit_limit(self, name, theta, k, bound):
        res = limit_matrix(get_score(name), theta, k)
        assert res.converged
        want = _mp_limit(name, theta, k, res)
        assert np.all(np.abs(res.grid.w - want) <= bound * want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, theta", [("sq", -500.0), ("xy", -1e4)])
    def test_unsettled_runs_stop(self, name, theta):
        # at k = 3 the limit puts 1/3 on the anti-diagonal and 2.5e-25 (sq,
        # theta = -500) or less on the four cells beside the centre; a row sum
        # cannot see how a row and a column split that mass, the Newton steps
        # leave it orders of magnitude off, and the run stops without
        # converging, as the sweeps alone did
        with pytest.raises(IpfpNonConvergence, match="Newton steps that did not settle it") as exc:
            limit_matrix(get_score(name), theta, 3)
        assert exc.value.result.residual <= 1e-12 and not exc.value.result.converged


# 80 digits where the Newton system is small; footrule at k = 10 and 30 is
# refined to 40, which is still 25 orders below the 1e-8 bound
_MP_DIGITS = {10: 40, 30: 40}


def _mp_limit(name, theta, k, res):
    """The limit grid on the exact lattice score, to 80 digits (40 at k >= 10), as floats.

    Newton steps on the potentials, from the run's own, until every row and
    column sum is 1/k to 10 digits short of the working precision.
    """
    digits = _MP_DIGITS.get(k, 80)
    with mpmath.workdps(digits):
        t = [mpmath.mpf(r) / k for r in range(1, k + 1)]
        half = mpmath.mpf(1) / 2
        f = {"xy": lambda x, y: x * y, "centered": lambda x, y: (x - half) * (y - half),
             "sq": lambda x, y: -(x - y) ** 2, "footrule": lambda x, y: -abs(x - y)}[name]
        log_b0 = [[mpmath.mpf(theta) * f(x, y) for y in t] for x in t]
        a = [mpmath.mpf(float(x)) for x in res.row_log_scales]
        b = [mpmath.mpf(float(x)) for x in res.col_log_scales]
        # b[0] stays fixed: the potentials are unique up to a constant
        for _ in range(20):
            cells = [[mpmath.exp(log_b0[r][s] + a[r] + b[s]) for s in range(k)]
                     for r in range(k)]
            rows = [mpmath.fsum(row) for row in cells]
            cols = [mpmath.fsum(row[s] for row in cells) for s in range(k)]
            gap = [x - mpmath.mpf(1) / k for x in rows + cols[1:]]
            if max(abs(x) for x in gap) < mpmath.mpf(10) ** (10 - digits):
                return np.array([[float(c) for c in row] for row in cells])
            jac = mpmath.zeros(2 * k - 1)
            for r in range(k):
                jac[r, r] = rows[r]
                for s in range(1, k):
                    jac[r, k + s - 1] = jac[k + s - 1, r] = cells[r][s]
            for s in range(1, k):
                jac[k + s - 1, k + s - 1] = cols[s]
            step = mpmath.lu_solve(jac, mpmath.matrix(gap))
            a = [a[r] - step[r] for r in range(k)]
            b = [b[0]] + [b[s] - step[k + s - 1] for s in range(1, k)]
    raise AssertionError(f"Newton did not reach the {digits}-digit limit")


class TestPotentials:
    def test_theta_zero_zero_potentials(self):
        res = limit_matrix(get_score("xy"), 0.0, 12)
        a_hat, b_hat = recover_potentials(res)
        assert np.abs(a_hat).max() <= 1e-12
        assert np.abs(b_hat).max() <= 1e-12

    def test_symmetric_score_equal_potentials(self):
        res = limit_matrix(get_score("xy"), 20.0, 80)
        a_hat, b_hat = recover_potentials(res)
        assert np.abs(a_hat - b_hat).max() <= 1e-8

    def test_gauge_and_value_identity(self):
        f = get_score("footrule")
        theta, k = 6.0, 50
        res = limit_matrix(f, theta, k)
        a_hat, b_hat = recover_potentials(res)
        assert a_hat.sum() == pytest.approx(b_hat.sum(), abs=1e-9)
        value = variational_value(res)
        assert -(a_hat.mean() + b_hat.mean()) == pytest.approx(value, abs=1e-8)

    def test_marginal_condition(self):
        # exp(theta f + a_r + b_s) has unit row/column means at the grid level
        f = get_score("xy")
        theta, k = 5.0, 40
        res = limit_matrix(f, theta, k)
        a_hat, b_hat = recover_potentials(res)
        dens = np.exp(theta * score_grid(f, k)
                      + a_hat[:, None] + b_hat[None, :])
        assert np.abs(dens.mean(axis=1) - 1.0).max() <= 1e-9 * k
        assert np.abs(dens.mean(axis=0) - 1.0).max() <= 1e-9 * k

    def test_nonconverged_rejected(self):
        b0 = np.exp(8.0 * np.outer(np.arange(4), np.arange(4)) / 9)
        with pytest.raises(IpfpNonConvergence) as exc:
            kernel_run(b0, tol=1e-15, max_iter=1)
        with pytest.raises(ValueError):
            recover_potentials(exc.value.result)


class TestVariationalValue:
    @pytest.mark.parametrize("theta", [-25.0, 7.0])
    @pytest.mark.parametrize("name", sorted(SCORE_FUNCTIONS))
    def test_closed_form_check_is_the_potential_identity(self, name, theta):
        # the check -(sum alpha + sum beta) / k - 2 log k is, by algebra,
        # -(mean a_hat + mean b_hat) of the recovered potentials
        k = 40
        res = limit_matrix(get_score(name), theta, k)
        a_hat, b_hat = recover_potentials(res)
        check = -(res.row_log_scales.sum() + res.col_log_scales.sum()) / k - 2 * math.log(k)
        assert abs(check + (a_hat.mean() + b_hat.mean())) <= 1e-12
        assert abs(variational_value(res) - check) <= 1e-8

    def test_shifted_row_scales_raise(self):
        res = limit_matrix(get_score("xy"), 3.0, 50)
        cells = res.grid  # built from the run's own scales, and kept
        moved = dataclasses.replace(res, row_log_scales=res.row_log_scales + 1e-3)
        assert moved.grid is cells
        with pytest.raises(RuntimeError, match="identity violated"):
            variational_value(moved)

    @pytest.mark.parametrize("theta", [-12.0, 0.5, 30.0])
    def test_w_k_is_the_checked_value_of_the_limit(self, theta):
        f = get_score("footrule")
        assert w_k(f, theta, 30) == variational_value(limit_matrix(f, theta, 30))


class TestWk:
    def test_zero_at_zero(self):
        assert w_k(get_score("xy"), 0.0, 50) == pytest.approx(0.0, abs=1e-12)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(4)
        k, theta = 30, 3.0
        f = get_score("xy")
        phi = rng.normal(size=k)
        psi = rng.normal(size=k)

        def shifted(x, y):
            # piecewise-constant additive shift aligned with the lattice
            xi = np.clip((np.asarray(x) * k - 1e-9).astype(int), 0, k - 1)
            yi = np.clip((np.asarray(y) * k - 1e-9).astype(int), 0, k - 1)
            return f(x, y) + phi[xi] + psi[yi]

        g = ScoreFunction("shifted", shifted)
        base = limit_matrix(f, theta, k)
        moved = limit_matrix(g, theta, k)
        assert np.abs(base.grid.w - moved.grid.w).max() <= 1e-10
        shift = theta * (phi.mean() + psi.mean())
        assert w_k(g, theta, k) == pytest.approx(w_k(f, theta, k) + shift, abs=1e-8)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(5)
        f = get_score("xy")
        for _ in range(5):
            t1, t2 = sorted(rng.uniform(-8, 8, size=2))
            mid = 0.5 * (t1 + t2)
            vals = [w_k(f, t, 25) for t in (t1, mid, t2)]
            assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-10

    def test_discretization_stability(self):
        f = get_score("xy")
        for theta in (2.0, 20.0):
            for k in (50, 100):
                # |df/dx|, |df/dy| <= 1 for xy, so f moves by at most 2/k
                # (the L1 diameter) within a 1/k cell
                bound = abs(theta) * (2.0 / k + 2.0 / (2 * k))
                assert abs(w_k(f, theta, k) - w_k(f, theta, 2 * k)) <= bound

    def test_curve_shape_for_centered_score(self):
        # identifiable (centered) scores give a nonnegative U-shaped curve
        f = get_score("centered")
        thetas = (-30.0, -10.0, 0.0, 10.0, 30.0)
        vals = [w_k(f, t, 40) for t in thetas]
        assert vals[2] == pytest.approx(0.0, abs=1e-10)
        assert all(v >= -1e-12 for v in vals)
        assert vals[0] > vals[1] > vals[2] < vals[3] < vals[4]


class TestWkPrime:
    def test_centered_zero_at_zero(self):
        f = get_score("centered")
        # |df/dx|, |df/dy| <= 1/2 for centered: at most 2/k within a 1/k cell
        assert abs(w_k_prime(f, 0.0, 100)) <= 2.0 / 100

    def test_finite_difference(self):
        f = get_score("xy")
        h, theta, k = 1e-3, 2.0, 200
        fd = (w_k(f, theta + h, k) - w_k(f, theta - h, k)) / (2 * h)
        assert abs(fd - w_k_prime(f, theta, k)) <= 1e-4

    def test_strictly_increasing(self):
        f = get_score("xy")
        vals = [w_k_prime(f, t, 60) for t in (-5.0, -2.0, 0.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestKlOptimality:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_convex_program(self, k):
        # w_k is max theta<F, A> + sum entr(A) - 2 log k over A >= 0 with
        # 1/k margins.  Its smooth convex dual over the margin multipliers
        # (a, b) is min sum exp(theta F - a_r - b_s - 1) + (sum a + sum b)/k
        # - 2 log k, solved here independently of IPFP.
        f = get_score("xy")
        theta = 3.0
        tf = theta * score_grid(f, k) - 1.0

        def dual(z):
            a, b = z[:k], z[k:]
            e = np.exp(tf - a[:, None] - b[None, :])
            value = e.sum() + z.sum() / k - 2 * np.log(k)
            grad = np.concatenate([1.0 / k - e.sum(axis=1), 1.0 / k - e.sum(axis=0)])
            return value, grad

        res = minimize(dual, np.zeros(2 * k), jac=True, method="BFGS",
                       options={"gtol": 1e-12})
        assert w_k(f, theta, k) == pytest.approx(res.fun, abs=1e-6)


def _assert_probability_grid(res, k):
    w = res.grid.w
    assert res.grid.k == k and w.shape == (k, k)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert not w.flags.writeable


def test_results_hold_the_kernel_grid_read_only():
    # no constructor checks the kernel's output; this does, on every entry
    for name in ("xy", "footrule"):
        f = get_score(name)
        for k in (1, 10, 100):
            for theta in (-500.0, -3.0, 0.0, 2.96, 500.0):
                if (name, k, theta) == ("footrule", 100, 500.0):
                    continue  # about 80k sweeps
                _assert_probability_grid(limit_matrix(f, theta, k), k)
    rng = np.random.default_rng(5)
    _assert_probability_grid(kernel_run(rng.random((7, 7)) + 0.1), 7)
    with pytest.raises(IpfpNonConvergence) as exc:
        limit_matrix(get_score("xy"), 50.0, 20, max_iter=1)
    assert exc.value.result.iterations == 1
    _assert_probability_grid(exc.value.result, 20)


def test_grid_reads_agree_across_threads_and_pickling():
    # the first read builds the grid in the run's working array; reads in
    # several threads at once, and a pickled copy, give the same cells
    f = get_score("xy")
    want = limit_matrix(f, 2.96, 300).grid.w
    res = limit_matrix(f, 2.96, 300)
    twin = pickle.loads(pickle.dumps(res))
    barrier = threading.Barrier(4, timeout=30)
    grids = []

    def read():
        barrier.wait()
        grids.append(res.grid.w)

    threads = [threading.Thread(target=read) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(grids) == 4 and all(np.array_equal(g, want) for g in grids)
    assert res.grid is res.grid
    assert np.array_equal(twin.grid.w, want)
