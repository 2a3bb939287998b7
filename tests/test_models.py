import copy
import itertools
import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import expit, logsumexp

from permexp.grids import ScoreFunction, get_score, score_grid
from permexp.mcmc import ChainState, _run_swap, sample
from permexp.models import (
    KendallModel,
    LinearModel,
    _inv_expm1_ratio,
    enumerate_statistics,
    grid_discordance,
    kendall_limit_C,
    kendall_limit_C_prime,
    kendall_limit_density,
    kendall_logZ,
    kendall_logZ_prime,
)
from permexp.perm import Permutation, linear_statistic

from conftest import (
    SwapDraws,
    brute_logZ,
    enumerate_pmf,
    log_weights,
    swap_bracket,
    swap_step,
)


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

    @pytest.mark.parametrize("theta", [-300.0, -2.5, 0.4, 7.0, 900.0])
    def test_matches_scipy_logsumexp(self, theta):
        f = get_score("footrule")
        for model in (LinearModel(f, theta, 6), KendallModel(theta, 6)):
            want = float(logsumexp(log_weights(model)[1]))
            assert brute_logZ(model) == pytest.approx(want, rel=1e-12, abs=0)

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

    @pytest.mark.parametrize("fn", [kendall_logZ, kendall_logZ_prime])
    @pytest.mark.parametrize("n, theta, match", [
        (5, math.inf, "theta must be finite"),
        (5, -math.inf, "theta must be finite"),
        (5, math.nan, "theta must be finite"),
        (0, 1.0, "n must be >= 1"),
        (-3, 0.0, "n must be >= 1"),
    ])
    def test_invalid_input_raises(self, fn, n, theta, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                fn(n, theta)

    def test_normalized_logz_convex_in_theta(self):
        n = 30
        rng = np.random.default_rng(1)
        for _ in range(10):
            t1, t2 = sorted(rng.uniform(-6, 6, size=2))
            mid = 0.5 * (t1 + t2)
            c = lambda t: kendall_logZ(n, t) - math.log(math.factorial(n))
            assert c(mid) <= 0.5 * (c(t1) + c(t2)) + 1e-12


class TestInvExpm1Ratio:
    def test_matches_mpmath(self):
        # psi(x) = 1/(1 - e^-x) - 1/x, whose two terms cancel as x -> 0
        x = np.logspace(-8, 0, 1601)
        x = np.concatenate([-x[::-1], x])
        with mpmath.workdps(40):
            want = np.array([float(1 / -mpmath.expm1(-mpmath.mpf(v)) - 1 / mpmath.mpf(v))
                             for v in x.tolist()])
        assert np.abs(_inv_expm1_ratio(x) / want - 1.0).max() <= 1e-14
        assert _inv_expm1_ratio(np.zeros(1))[0] == 0.5


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


def mpmath_limits(theta):
    """(C, C') at theta by mpmath quadrature of their defining integrals."""
    with mpmath.workdps(30):
        t = mpmath.mpf(theta)
        # split where |theta| x passes 0.1, 1, 10, ...: the integrands vary
        # on the scale 1/|theta|
        pts = [0] + [c / abs(t) for c in (0.1, 1, 10, 100, 1000) if c < abs(t)] + [1]
        c = mpmath.quad(lambda x: mpmath.log(mpmath.expm1(t * x) / (t * x)), pts)
        c_prime = mpmath.quad(lambda x: x / -mpmath.expm1(-t * x) - 1 / t, pts)
        return float(c), float(c_prime)


class TestKendallLimitOracle:
    @pytest.mark.parametrize("theta", [s * v for v in (1e-3, 0.05, 1.0, 3.0, 20.0, 64.0,
                                                       190.0, 1e3, 1e4) for s in (1, -1)])
    def test_matches_mpmath(self, theta):
        c, c_prime = mpmath_limits(theta)
        assert abs(kendall_limit_C_prime(theta) - c_prime) <= 1e-12
        assert abs(kendall_limit_C(theta) - c) <= 1e-12 * max(1.0, abs(c))


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

    @staticmethod
    def _former_density(theta, k):
        """The density as built from meshgrids before it worked in place."""
        mid = (np.arange(k) + 0.5) / k
        x, y = np.meshgrid(mid, mid, indexing="ij")
        s, d = np.abs(x + y - 1.0), np.abs(x - y)
        if theta < 0:
            s, d = d, s
        a = abs(theta) / 2.0
        den = (np.expm1(-2.0 * a * s) - np.expm1(-a * (1.0 + s - d))
               - np.expm1(-a * (1.0 + s + d)))
        return np.exp(math.log(2.0 * a * -math.expm1(-2.0 * a)) - 2.0 * a * s) / den ** 2

    @pytest.mark.parametrize("theta", [1e-3, 3.0, -7.5, 400.0, 5000.0, -5000.0])
    @pytest.mark.parametrize("k", [2, 7, 300])
    def test_matches_former_build(self, theta, k):
        assert np.array_equal(kendall_limit_density(theta, k), self._former_density(theta, k))

    @staticmethod
    def _mpmath_density(theta, k):
        """a sinh(a) / (e^{-a/2} cosh(a(x-y)) - e^{a/2} cosh(a(x+y-1)))^2,
        a = theta/2, at 60 digits on the double midpoints."""
        mid = (np.arange(k) + 0.5) / k
        out = np.empty((k, k))
        with mpmath.workdps(60):
            a = mpmath.mpf(theta) / 2
            num = a * mpmath.sinh(a)
            for r, c in itertools.product(range(k), repeat=2):
                x, y = mpmath.mpf(mid[r]), mpmath.mpf(mid[c])
                den = (mpmath.exp(-a / 2) * mpmath.cosh(a * (x - y))
                       - mpmath.exp(a / 2) * mpmath.cosh(a * (x + y - 1)))
                out[r, c] = float(num / den ** 2)
        return out

    @pytest.mark.parametrize("theta", [sign * mag for sign in (1.0, -1.0) for mag in
                                       (1e-6, 1e-3, 1e-2, 0.1, 1.0, 2.0, 10.0, 100.0,
                                        800.0, 1500.0, 5000.0, 1e4)])
    def test_matches_mpmath(self, theta):
        # every cell whose value is at or above the double range is within
        # 1e-12 relative of the 60-digit closed form; the rest underflow
        k = 12
        want = self._mpmath_density(theta, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kendall_limit_density(theta, k)
        tiny = np.finfo(np.float64).tiny
        normal = want >= tiny
        assert normal.any()
        rtol = 1e-9 if abs(theta) < 1e-3 else 1e-12
        assert np.max(np.abs(got[normal] - want[normal]) / want[normal]) <= rtol
        assert np.all(got[~normal] < 2 * tiny)


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
    """The swap chain's decisions, from chosen draws, against theta times the statistic and the score grid.

    A step heat-baths a pair (I, J) of a shuffled row; a step that accepts
    with probability sigma(Delta) swaps at U just below sigma(Delta) and
    keeps its state just above.
    """

    def test_linear_ratio_matches_weight_difference(self):
        # one step from each state, with Delta from theta * linear_statistic
        rng = np.random.default_rng(4)
        f = get_score("footrule")
        for n in (9, 1100):
            model = LinearModel(f, 1.7, n)
            for _ in range(50):
                vals = (rng.permutation(n) + 1).tolist()
                i, jp = int(rng.integers(n)), int(rng.integers(n - 1))
                j = jp + (jp >= i)
                swapped = list(vals)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                new, old = (model.theta * linear_statistic(Permutation(v), f)
                            for v in (swapped, vals))
                delta = new - old
                below, above = swap_bracket(float(expit(delta)))
                assert swap_step(model, vals, i, j, below) == tuple(swapped)
                if above is not None:
                    assert swap_step(model, vals, i, j, above) == tuple(vals)

    @pytest.mark.parametrize("name", ["xy", "centered", "footrule", "sq"])
    def test_f_path_reads_as_score_table(self, name):
        # one run of 2000 steps over shuffled rows, with Delta from the score
        # grid: the chain reads the grid's rows as Python floats (n = 9) or
        # calls f on arrays (n = 1100, one pair at a time, as every step is
        # recorded) and must decide as the grid's floats do, before and
        # after the swaps
        rng = np.random.default_rng(5)
        theta = -2.5
        steps = 2000
        for n in (9, 1100):
            h = n // 2
            model = LinearModel(get_score(name), theta, n)
            s = score_grid(model.f, n)
            start = rng.permutation(n) + 1
            vals = start.copy()
            rows = [rng.permutation(n) for _ in range(-(-steps // h))]
            uu = []
            want = np.empty((steps, n), dtype=np.int64)
            for step in range(steps):
                row = rows[step // h]
                i, j = int(row[2 * (step % h)]), int(row[2 * (step % h) + 1])
                vi, vj = vals[i] - 1, vals[j] - 1
                delta = -theta * (s[i, vi] + s[j, vj] - s[i, vj] - s[j, vi])
                below, above = swap_bracket(float(expit(delta)))
                if above is None or rng.random() < 0.5:
                    uu.append(below)
                    vals[i], vals[j] = vals[j], vals[i]
                else:
                    uu.append(above)
                want[step] = vals
            state = ChainState(start)
            draws = _run_swap(state, model, SwapDraws(n, rows, uu), steps, 0, 1)
            assert np.array_equal(draws, want)

    @pytest.mark.parametrize("name", ["xy", "centered", "footrule", "sq"])
    def test_model_pickles_after_a_chain(self, name):
        # a chain keeps its terms to itself: the model holds its fields only
        model = LinearModel(get_score(name), 1.5, 6)
        draws = sample(model, 3, burn=40, thin=7, seed=9).tolist()
        assert vars(model).keys() == {"f", "theta", "n"}
        for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert twin == model
            assert vars(twin).keys() == {"f", "theta", "n"}
            assert sample(twin, 3, burn=40, thin=7, seed=9).tolist() == draws
