import math

import numpy as np
import pytest
from scipy.special import xlogy

from permexp.grids import (
    CopulaGrid,
    from_permutation,
    get_score,
    grid_mean,
    kl_to_uniform,
    uniform_grid,
)
from permexp.perm import Permutation

from conftest import random_permutation


class TestUniformGrid:
    def test_k1(self):
        assert uniform_grid(1).w.tolist() == [[1.0]]

    def test_k2(self):
        assert np.allclose(uniform_grid(2).w, 0.25)

    def test_exactly_doubly_stochastic(self):
        for k in (1, 3, 7):
            assert uniform_grid(k).is_doubly_stochastic(tol=0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            uniform_grid(0)


class TestCopulaGrid:
    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            CopulaGrid(np.full((2, 2), 0.3))

    def test_negative_rejected(self):
        w = np.array([[0.6, -0.1], [0.25, 0.25]])
        with pytest.raises(ValueError):
            CopulaGrid(w)

    def test_step_density_scale(self):
        g = uniform_grid(5)
        assert np.allclose(g.step_density(), 1.0)


class TestKlToUniform:
    def test_zero_at_uniform(self):
        assert kl_to_uniform(uniform_grid(6)) == pytest.approx(0.0, abs=1e-14)

    def test_permutation_supported_grid(self):
        for k in (3, 8):
            g = from_permutation(Permutation.identity(k), k)
            assert kl_to_uniform(g) == pytest.approx(math.log(k))

    def test_nonnegative_and_zero_only_at_uniform(self):
        rng = np.random.default_rng(0)
        k = 6
        for _ in range(20):
            w = rng.dirichlet(np.ones(k * k)).reshape(k, k)
            assert kl_to_uniform(CopulaGrid(w)) >= 0
        # perturbing the uniform grid strictly increases the divergence
        w = np.full((k, k), 1.0 / 36)
        w[0, 0] += 1e-3
        w[0, 1] -= 1e-3
        assert kl_to_uniform(CopulaGrid(w)) > 0

    def test_matches_scipy_xlogy_with_zero_cells(self):
        rng = np.random.default_rng(4)
        k = 30
        w = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
        w[0] = 0.0
        w /= w.sum()
        want = float(np.sum(xlogy(w, w)) + 2.0 * math.log(k))
        assert kl_to_uniform(CopulaGrid(w)) == pytest.approx(want, rel=1e-12, abs=0)


class TestGridMean:
    def test_zero_function(self):
        assert grid_mean(uniform_grid(4), lambda x, y: np.zeros_like(x)) == 0.0

    def test_identity_grid_xy_closed_form(self):
        for k in (3, 10, 25):
            g = from_permutation(Permutation.identity(k), k)
            assert grid_mean(g, get_score("xy")) == pytest.approx(
                (k + 1) * (2 * k + 1) / (6 * k * k)
            )

    def test_centered_on_uniform_vanishes_with_k(self):
        f = get_score("centered")
        vals = [grid_mean(uniform_grid(k), f) for k in (10, 100, 1000)]
        for k, v in zip((10, 100, 1000), vals):
            assert v == pytest.approx(1.0 / (4 * k * k), rel=1e-9)
        assert abs(vals[-1]) < 1e-6

    def test_linear_in_grid_and_function(self):
        rng = np.random.default_rng(1)
        k = 5
        w1 = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        w2 = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        f = get_score("xy")
        g = get_score("footrule")
        lam = 0.3
        mix = CopulaGrid(lam * w1 + (1 - lam) * w2)
        lhs = grid_mean(mix, f)
        rhs = lam * grid_mean(CopulaGrid(w1), f) + (1 - lam) * grid_mean(CopulaGrid(w2), f)
        assert lhs == pytest.approx(rhs)
        both = lambda x, y: f(x, y) + 2.0 * g(x, y)
        assert grid_mean(CopulaGrid(w1), both) == pytest.approx(
            grid_mean(CopulaGrid(w1), f) + 2.0 * grid_mean(CopulaGrid(w1), g)
        )


class TestFromPermutation:
    def test_identity_diagonal(self):
        g = from_permutation(Permutation.identity(3), 3)
        assert np.allclose(g.w, np.eye(3) / 3)

    def test_reverse_antidiagonal(self):
        g = from_permutation(Permutation.reverse(3), 3)
        assert np.allclose(g.w, np.fliplr(np.eye(3)) / 3)

    def test_total_mass_exact(self):
        rng = np.random.default_rng(2)
        pi = random_permutation(rng, 123)
        g = from_permutation(pi, 7)
        assert g.w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_divisible_case_exactly_doubly_stochastic(self):
        rng = np.random.default_rng(3)
        pi = random_permutation(rng, 100)
        assert from_permutation(pi, 10).is_doubly_stochastic(tol=1e-15)

    def test_lottery_margins(self, lottery):
        g = from_permutation(lottery.tau(), 10)
        assert np.abs(g.row_sums() - 0.1).max() <= 2 / 366
        assert np.abs(g.col_sums() - 0.1).max() <= 2 / 366

    def test_k_larger_than_n(self):
        with pytest.raises(ValueError):
            from_permutation(Permutation.identity(3), 4)


class TestScoreFunction:
    def test_builtin_values(self):
        xy = get_score("xy")
        assert xy(0.5, 0.5) == 0.25
        cen = get_score("centered")
        assert cen(0.25, 0.75) == pytest.approx(-0.0625)
        assert get_score("footrule")(0.2, 0.7) == pytest.approx(-0.5)
        assert get_score("sq")(0.2, 0.7) == pytest.approx(-0.25)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_score("hamming")
