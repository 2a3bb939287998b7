import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from permexp.grids import (
    CopulaGrid,
    ScoreFunction,
    get_score,
    grid_mean,
    grid_points,
    kl_to_uniform,
    uniform_grid,
)
from permexp.ipfp import (
    IpfpNonConvergence,
    ipfp_scale,
    limit_matrix,
    recover_potentials,
    variational_value,
    w_k,
    w_k_prime,
)


class TestIpfpScale:
    def test_all_ones_one_sweep(self):
        res = ipfp_scale(np.ones((3, 3)))
        assert np.allclose(res.grid.w, 1 / 9)
        assert res.iterations == 1
        assert res.converged

    def test_separable_kernel_gives_uniform(self):
        rng = np.random.default_rng(0)
        g, h = rng.normal(size=5), rng.normal(size=5)
        res = ipfp_scale(np.exp(g[:, None] + h[None, :]))
        assert np.allclose(res.grid.w, 1 / 25, atol=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ipfp_scale(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            ipfp_scale(np.array([[1.0, -2.0], [1.0, 1.0]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            ipfp_scale(np.ones((2, 2)), tol=0.0)

    def test_nonconvergence_carries_state_and_retry_works(self):
        b0 = np.exp(8.0 * np.outer(np.arange(4), np.arange(4)) / 9)
        with pytest.raises(IpfpNonConvergence) as exc:
            ipfp_scale(b0, tol=1e-14, max_iter=2)
        partial = exc.value.result
        assert not partial.converged
        assert partial.iterations == 2
        assert partial.residual > 1e-14
        res = ipfp_scale(b0, tol=1e-14, max_iter=10_000)
        assert res.converged

    def test_2x2_matches_brute_force_kl_program(self):
        # kernel for the centered score at theta = 5 on the k=2 lattice
        theta = 5.0
        b0 = np.array([[1.0, 1.0], [1.0, math.exp(theta / 4)]])
        res = ipfp_scale(b0, tol=1e-15)

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
        got = theta * np.sum(fgrid * res.grid.w) - kl_to_uniform(res.grid)
        assert got == pytest.approx(want, abs=1e-8)


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
            x, y = grid_points(40)
            logres = np.log(res.grid.w) - theta * np.asarray(f(x, y))
            logres -= res.row_log_scales[:, None]
            logres -= res.col_log_scales[None, :]
            assert np.abs(logres).max() <= 1e-8

    def test_log_domain_matches_plain(self):
        # oracle: textbook log-domain Sinkhorn, run for the same sweeps
        f = get_score("xy")
        k, theta = 25, 8.0
        x, y = grid_points(k)
        log_b0 = theta * np.asarray(f(x, y))
        res = ipfp_scale(np.exp(log_b0))
        log_a = log_b0.copy()
        for _ in range(res.iterations):
            log_a -= logsumexp(log_a, axis=1, keepdims=True) + np.log(k)
            log_a -= logsumexp(log_a, axis=0, keepdims=True) + np.log(k)
        assert np.abs(res.grid.w - np.exp(log_a)).max() <= 1e-12

    def test_large_theta_uses_log_domain_without_overflow(self):
        res = limit_matrix(get_score("xy"), 500.0, 30, tol=1e-10)
        assert res.converged
        assert np.all(np.isfinite(res.grid.w))

    @pytest.mark.parametrize("name, theta, k, sweeps", [
        ("xy", 500.0, 100, 1202),
        ("footrule", 60.0, 100, 716),
        ("xy", 20.0, 1000, 42),
    ])
    def test_sweep_counts(self, name, theta, k, sweeps):
        res = limit_matrix(get_score(name), theta, k)
        assert res.iterations == sweeps
        assert res.residual <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scalings_beyond_float_range_are_absorbed(self):
        # kernel entries reach e^-1980 of their row maximum, below float range
        f = get_score("xy")
        theta, k = 2000.0, 100
        res = limit_matrix(f, theta, k)
        assert res.converged and res.iterations == 4806
        assert np.all(np.isfinite(res.grid.w))
        assert np.all(np.isfinite(res.row_log_scales))
        assert np.all(np.isfinite(res.col_log_scales))
        x, y = grid_points(k)
        logres = (theta * np.asarray(f(x, y)) + res.row_log_scales[:, None]
                  + res.col_log_scales[None, :])
        normal = res.grid.w >= np.finfo(np.float64).tiny
        assert np.abs(np.log(res.grid.w[normal]) - logres[normal]).max() <= 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonconvergence_beyond_float_range_keeps_finite_state(self):
        with pytest.raises(IpfpNonConvergence) as exc:
            limit_matrix(get_score("xy"), 1e5, 50, max_iter=300)
        partial = exc.value.result
        assert not partial.converged and partial.iterations == 300
        assert partial.residual == pytest.approx(0.6399994682, rel=1e-9)
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
        d = res.grid.step_density()
        assert np.abs(d - d.T).max() <= 1e-8            # about x = y
        assert np.abs(d - d[::-1, ::-1].T).max() <= 1e-8  # about x + y = 1
        assert d.diagonal().min() >= d[0, -1]
        assert d.diagonal().max() == pytest.approx(d.max())


class TestPotentials:
    def test_theta_zero_zero_potentials(self):
        res = limit_matrix(get_score("xy"), 0.0, 12)
        pots = recover_potentials(res)
        assert np.abs(pots.a_hat).max() <= 1e-12
        assert np.abs(pots.b_hat).max() <= 1e-12

    def test_symmetric_score_equal_potentials(self):
        res = limit_matrix(get_score("xy"), 20.0, 80)
        pots = recover_potentials(res)
        assert np.abs(pots.a_hat - pots.b_hat).max() <= 1e-8

    def test_gauge_and_value_identity(self):
        f = get_score("footrule")
        theta, k = 6.0, 50
        res = limit_matrix(f, theta, k)
        pots = recover_potentials(res)
        assert pots.a_hat.sum() == pytest.approx(pots.b_hat.sum(), abs=1e-9)
        value = variational_value(res, f, theta)
        assert -(pots.a_hat.mean() + pots.b_hat.mean()) == pytest.approx(value, abs=1e-8)

    def test_marginal_condition(self):
        # exp(theta f + a_r + b_s) has unit row/column means at the grid level
        f = get_score("xy")
        theta, k = 5.0, 40
        res = limit_matrix(f, theta, k)
        pots = recover_potentials(res)
        x, y = grid_points(k)
        dens = np.exp(theta * np.asarray(f(x, y))
                      + pots.a_hat[:, None] + pots.b_hat[None, :])
        assert np.abs(dens.mean(axis=1) - 1.0).max() <= 1e-9 * k
        assert np.abs(dens.mean(axis=0) - 1.0).max() <= 1e-9 * k

    def test_nonconverged_rejected(self):
        b0 = np.exp(8.0 * np.outer(np.arange(4), np.arange(4)) / 9)
        with pytest.raises(IpfpNonConvergence) as exc:
            ipfp_scale(b0, tol=1e-15, max_iter=1)
        with pytest.raises(ValueError):
            recover_potentials(exc.value.result)


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
                bound = abs(theta) * (f.modulus(k) + f.modulus(2 * k))
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
        assert abs(w_k_prime(f, 0.0, 100)) <= f.modulus(100)

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
        cp = pytest.importorskip("cvxpy")
        f = get_score("xy")
        theta = 3.0
        x, y = grid_points(k)
        fgrid = np.asarray(f(x, y))
        a = cp.Variable((k, k), nonneg=True)
        objective = cp.Maximize(
            theta * cp.sum(cp.multiply(fgrid, a)) + cp.sum(cp.entr(a)) - 2 * np.log(k)
        )
        constraints = [cp.sum(a, axis=0) == 1.0 / k, cp.sum(a, axis=1) == 1.0 / k]
        problem = cp.Problem(objective, constraints)
        problem.solve()
        assert problem.status == "optimal"
        assert w_k(f, theta, k) == pytest.approx(problem.value, abs=1e-6)
