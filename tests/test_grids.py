import math

import numpy as np
import pytest
from scipy.special import xlogy

from permexp.grids import get_score, grid_mean, kl_to_uniform


class TestKlToUniform:
    def test_zero_at_uniform(self):
        assert kl_to_uniform(np.full((6, 6), 1 / 36)) == pytest.approx(0.0, abs=1e-14)

    def test_permutation_supported_grid(self):
        for k in (3, 8):
            assert kl_to_uniform(np.eye(k) / k) == pytest.approx(math.log(k))

    def test_nonnegative_and_zero_only_at_uniform(self):
        rng = np.random.default_rng(0)
        k = 6
        for _ in range(20):
            w = rng.dirichlet(np.ones(k * k)).reshape(k, k)
            assert kl_to_uniform(w) >= 0
        # perturbing the uniform grid strictly increases the divergence
        w = np.full((k, k), 1.0 / 36)
        w[0, 0] += 1e-3
        w[0, 1] -= 1e-3
        assert kl_to_uniform(w) > 0

    def test_matches_scipy_xlogy_with_zero_cells(self):
        rng = np.random.default_rng(4)
        k = 30
        w = rng.random((k, k)) * (rng.random((k, k)) < 0.6)
        w[0] = 0.0
        w /= w.sum()
        want = float(np.sum(xlogy(w, w)) + 2.0 * math.log(k))
        assert kl_to_uniform(w) == pytest.approx(want, rel=1e-12, abs=0)


class TestGridMean:
    def test_zero_function(self):
        assert grid_mean(np.full((4, 4), 1 / 16), lambda x, y: np.zeros_like(x)) == 0.0

    def test_identity_grid_xy_closed_form(self):
        for k in (3, 10, 25):
            assert grid_mean(np.eye(k) / k, get_score("xy")) == pytest.approx(
                (k + 1) * (2 * k + 1) / (6 * k * k)
            )

    def test_centered_on_uniform_vanishes_with_k(self):
        f = get_score("centered")
        vals = [grid_mean(np.full((k, k), 1 / k**2), f) for k in (10, 100, 1000)]
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
        lhs = grid_mean(lam * w1 + (1 - lam) * w2, f)
        rhs = lam * grid_mean(w1, f) + (1 - lam) * grid_mean(w2, f)
        assert lhs == pytest.approx(rhs)
        both = lambda x, y: f(x, y) + 2.0 * g(x, y)
        assert grid_mean(w1, both) == pytest.approx(
            grid_mean(w1, f) + 2.0 * grid_mean(w1, g)
        )


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
