import copy
import math

import numpy as np
import pytest

from permexp.grids import ScoreFunction, get_score
from permexp.models import (
    KendallModel,
    LinearModel,
    brute_logZ,
    enumerate_pmf,
    enumerate_statistics,
    grid_discordance,
    kendall_limit_C,
    kendall_limit_C_prime,
    kendall_limit_density,
    kendall_logZ,
    kendall_logZ_prime,
)
from permexp.perm import Permutation, inversions, linear_statistic


class TestBruteLogZ:
    def test_theta_zero_is_log_factorial(self):
        f = get_score("xy")
        assert brute_logZ(LinearModel(f, 0.0, 4)) == pytest.approx(math.log(24))
        assert brute_logZ(KendallModel(0.0, 4)) == pytest.approx(math.log(24))

    def test_kendall_n3_hand_enumeration(self):
        # inversion counts over S_3 are {0,1,1,2,2,3}; q = e^{theta/3}
        q = math.exp(1.0)
        want = math.log(1 + 2 * q + 2 * q * q + q ** 3)
        assert brute_logZ(KendallModel(3.0, 3)) == pytest.approx(want, abs=1e-12)

    def test_linear_xy_n2(self):
        f = get_score("xy")
        for theta in (-2.0, 0.7, 3.0):
            want = math.log(math.exp(theta * 5 / 4) + math.exp(theta))
            assert brute_logZ(LinearModel(f, theta, 2)) == pytest.approx(want, abs=1e-12)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            brute_logZ(KendallModel(1.0, 10))

    def test_pmf_sums_to_one(self):
        perms, probs = enumerate_pmf(LinearModel(get_score("footrule"), 2.0, 5))
        assert perms.shape == (120, 5)
        assert probs.sum() == pytest.approx(1.0)

    def test_pmf_invariant_under_additive_shift(self):
        rng = np.random.default_rng(0)
        n = 5
        f = get_score("xy")
        phi = rng.normal(size=n)
        psi = rng.normal(size=n)

        def shifted(x, y):
            xi = np.clip((np.asarray(x) * n - 1e-9).astype(int), 0, n - 1)
            yi = np.clip((np.asarray(y) * n - 1e-9).astype(int), 0, n - 1)
            return f(x, y) + phi[xi] + psi[yi]

        g = ScoreFunction("shifted", shifted)
        theta = 1.8
        _, p0 = enumerate_pmf(LinearModel(f, theta, n))
        _, p1 = enumerate_pmf(LinearModel(g, theta, n))
        assert np.abs(p0 - p1).max() <= 1e-12
        # the normalizers differ by exactly theta * sum(phi + psi)
        shift = theta * float(phi.sum() + psi.sum())
        assert brute_logZ(LinearModel(g, theta, n)) == pytest.approx(
            brute_logZ(LinearModel(f, theta, n)) + shift, abs=1e-9
        )

    def test_enumerate_statistics_matches_direct(self):
        f = get_score("sq")
        perms, stats = enumerate_statistics(f, 4)
        for row, s in zip(perms[:20], stats[:20]):
            assert s == pytest.approx(linear_statistic(Permutation(row), f))


class TestKendallLogZ:
    def test_matches_brute(self):
        for n in range(2, 7):
            for theta in (-3.0, -1.0, 0.0, 1.0, 5.0):
                assert kendall_logZ(n, theta) == pytest.approx(
                    brute_logZ(KendallModel(theta, n)), abs=1e-9
                )

    def test_theta_zero(self):
        assert kendall_logZ(6, 0.0) == pytest.approx(math.log(720))

    def test_n1(self):
        assert kendall_logZ(1, 3.3) == 0.0

    def test_continuity_near_zero(self):
        assert kendall_logZ(50, 1e-12) == pytest.approx(kendall_logZ(50, 0.0), abs=1e-8)

    def test_prime_matches_finite_difference(self):
        n, h = 40, 1e-6
        for theta in (-2.0, 0.0, 3.0):
            fd = (kendall_logZ(n, theta + h) - kendall_logZ(n, theta - h)) / (2 * h * n)
            assert kendall_logZ_prime(n, theta) == pytest.approx(fd, abs=1e-7)

    def test_prime_at_zero(self):
        for n in (2, 8, 100):
            assert kendall_logZ_prime(n, 0.0) == pytest.approx((n - 1) / (4 * n))

    def test_normalized_logz_convex_in_theta(self):
        n = 30
        rng = np.random.default_rng(1)
        for _ in range(10):
            t1, t2 = sorted(rng.uniform(-6, 6, size=2))
            mid = 0.5 * (t1 + t2)
            c = lambda t: kendall_logZ(n, t) - math.log(math.factorial(n))
            assert c(mid) <= 0.5 * (c(t1) + c(t2)) + 1e-12


class TestKendallLimitC:
    def test_zero_at_zero(self):
        assert kendall_limit_C(0.0) == 0.0
        assert kendall_limit_C(1e-13) == pytest.approx(0.0, abs=1e-9)

    def test_finite_n_convergence(self):
        n = 4000
        log_nfac = kendall_logZ(n, 0.0)
        for theta in (-2.0, 1.0, 5.0):
            finite = (kendall_logZ(n, theta) - log_nfac) / n
            assert abs(finite - kendall_limit_C(theta)) <= 2e-3

    def test_reflection_identity(self):
        for theta in (0.3, 1.0, 2.0, 7.5):
            assert kendall_limit_C(theta) == pytest.approx(
                kendall_limit_C(-theta) + theta / 2, abs=1e-10
            )

    def test_prime_at_zero_and_range(self):
        assert kendall_limit_C_prime(0.0) == pytest.approx(0.25, abs=1e-6)
        assert 0.0 < kendall_limit_C_prime(-40.0) < 0.05
        assert 0.45 < kendall_limit_C_prime(40.0) < 0.5
        vals = [kendall_limit_C_prime(t) for t in (-5, -1, 0, 1, 5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [-40.0, -3.0, 1e-3, 0.5, 7.0, 150.0])
    def test_prime_matches_central_difference(self, theta):
        h = 1e-4 * max(1.0, abs(theta))
        fd = (kendall_limit_C(theta + h) - kendall_limit_C(theta - h)) / (2.0 * h)
        assert kendall_limit_C_prime(theta) == pytest.approx(fd, abs=1e-8)


class TestKendallLimitDensity:
    def test_theta_zero_is_flat(self):
        assert np.array_equal(kendall_limit_density(0.0, 8), np.ones((8, 8)))

    def test_small_theta_near_flat(self):
        rho = kendall_limit_density(0.01, 200)
        assert np.abs(rho - 1.0).max() < 0.01

    @pytest.mark.parametrize("theta", [-2.0, 1.0, 2.0, 5.0])
    def test_uniform_marginals(self, theta):
        rho = kendall_limit_density(theta, 400)
        assert np.abs(rho.mean(axis=0) - 1.0).max() <= 1e-4
        assert np.abs(rho.mean(axis=1) - 1.0).max() <= 1e-4

    def test_variational_value_matches_limit_constant(self):
        theta, k = 2.0, 400
        rho = kendall_limit_density(theta, k)
        p = rho / rho.sum()
        value = (theta / 2.0) * grid_discordance(p) - float(
            np.sum(p * np.log(p * k * k))
        )
        assert abs(value - kendall_limit_C(theta)) <= 1e-2

    def test_positive_theta_concentrates_on_antidiagonal(self):
        rho = kendall_limit_density(2.0, 100)
        assert rho[0, -1] > rho[0, 0]
        assert rho[-1, 0] > rho[-1, -1]

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            kendall_limit_density(1.0, 1)


class TestGridDiscordance:
    def test_diagonal_grid(self):
        assert grid_discordance(np.eye(2) / 2) == 0.0

    def test_antidiagonal_grid(self):
        assert grid_discordance(np.fliplr(np.eye(2)) / 2) == pytest.approx(0.5)

    def test_uniform_grid_quarter_ish(self):
        # two independent uniform cells disagree with prob ~1/2 minus ties
        k = 50
        p = np.full((k, k), 1.0 / (k * k))
        val = grid_discordance(p)
        assert val == pytest.approx(0.5 * (1 - 1 / k) ** 2, abs=1e-12)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        k = 6
        p = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        total = 0.0
        for r1 in range(k):
            for s1 in range(k):
                for r2 in range(k):
                    for s2 in range(k):
                        if (r1 - r2) * (s1 - s2) < 0:
                            total += p[r1, s1] * p[r2, s2]
        assert grid_discordance(p) == pytest.approx(total, abs=1e-14)


class TestSwapLogRatios:
    def test_kendall_delta_matches_recount(self):
        rng = np.random.default_rng(3)
        model = KendallModel(2.5, 12)
        for _ in range(100):
            vals = rng.permutation(12) + 1
            i, j = rng.choice(12, size=2, replace=False)
            before = inversions(Permutation(vals))
            swapped = vals.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            after = inversions(Permutation(swapped))
            want = (2.5 / 12) * (after - before)
            assert model.swap_log_ratio(vals, int(i), int(j)) == pytest.approx(want)

    def test_linear_ratio_matches_weight_difference(self):
        rng = np.random.default_rng(4)
        f = get_score("footrule")
        # n = 1100 is above SCORE_TABLE_MAX_N: the ratio evaluates f directly
        for n in (9, 1100):
            model = LinearModel(f, 1.7, n)
            for _ in range(50):
                vals = rng.permutation(n) + 1
                i, j = rng.choice(n, size=2, replace=False)
                swapped = vals.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                want = model.log_weight(Permutation(swapped)) - model.log_weight(
                    Permutation(vals)
                )
                assert model.swap_log_ratio(vals, int(i), int(j)) == pytest.approx(
                    want, abs=1e-10
                )

    @pytest.mark.parametrize("name", ["xy", "centered", "footrule", "sq"])
    def test_f_path_reads_as_score_table(self, name):
        # above SCORE_TABLE_MAX_N the ratio evaluates f on arrays, as the
        # table does, so both give the same floats
        rng = np.random.default_rng(5)
        n = 1100
        theta = -2.5
        model = LinearModel(get_score(name), theta, n)
        s = model.score_table
        vals = rng.permutation(n) + 1
        for _ in range(3000):
            i, j = rng.choice(n, size=2, replace=False).tolist()
            vi, vj = vals[i] - 1, vals[j] - 1
            want = -theta * (s[i, vi] + s[j, vj] - s[i, vj] - s[j, vi])
            assert model.swap_log_ratio(vals, i, j) == want

    def test_model_copies_after_a_ratio(self):
        model = LinearModel(get_score("xy"), 1.5, 6)
        vals = np.array([3, 1, 2, 6, 4, 5])
        ratio = model.swap_log_ratio(vals, 1, 4)
        twin = copy.deepcopy(model)
        assert twin == model
        assert twin.swap_log_ratio(vals, 1, 4) == ratio
