import math

import numpy as np
import pytest
from scipy.special import xlogy

from permexp.estimators import multi_estimate, pairwise_swap_scores
from permexp.grids import (
    SCORE_FUNCTIONS,
    ScoreFunction,
    get_score,
    kl_to_uniform,
    lattice,
    score_grid,
)
from permexp.mcmc import sample
from permexp.models import LinearModel
from permexp.perm import Permutation, linear_statistic

from conftest import grid_mean


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
        assert grid_mean(np.full((4, 4), 1 / 16),
                         score_grid(lambda x, y: np.zeros_like(x), 4)) == 0.0

    def test_identity_grid_xy_closed_form(self):
        for k in (3, 10, 25):
            assert grid_mean(np.eye(k) / k, score_grid(get_score("xy"), k)) == pytest.approx(
                (k + 1) * (2 * k + 1) / (6 * k * k)
            )

    def test_centered_on_uniform_vanishes_with_k(self):
        f = get_score("centered")
        vals = [grid_mean(np.full((k, k), 1 / k**2), score_grid(f, k)) for k in (10, 100, 1000)]
        for k, v in zip((10, 100, 1000), vals):
            assert v == pytest.approx(1.0 / (4 * k * k), rel=1e-9)
        assert abs(vals[-1]) < 1e-6

    def test_linear_in_grid_and_function(self):
        rng = np.random.default_rng(1)
        k = 5
        w1 = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        w2 = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        f = score_grid(get_score("xy"), k)
        g = score_grid(get_score("footrule"), k)
        lam = 0.3
        lhs = grid_mean(lam * w1 + (1 - lam) * w2, f)
        rhs = lam * grid_mean(w1, f) + (1 - lam) * grid_mean(w2, f)
        assert lhs == pytest.approx(rhs)
        both = f + 2.0 * g
        assert grid_mean(w1, both) == pytest.approx(
            grid_mean(w1, f) + 2.0 * grid_mean(w1, g)
        )


    def test_within_rounding_of_an_exact_sum(self):
        rng = np.random.default_rng(2)
        k = 300
        w = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        f = score_grid(get_score("footrule"), k)
        exact = math.fsum((f * w).ravel())
        assert abs(grid_mean(w, f) - exact) <= 1e-14 * abs(exact)


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

    def test_fn_only_ever_gets_arrays(self):
        # the package calls a score on float arrays only: the model's check,
        # both swap executions (n = 5 and 40 loop, n = 1025 arrays), the PL,
        # LD and ML fits, the statistic and the pair scores
        def fn(x, y):
            assert type(x) is type(y) is np.ndarray, (type(x), type(y))
            return x * y - abs(x - y)

        f = ScoreFunction("arrays-only", fn)
        draws = {}
        for n, burn, thin in ((5, 300, 7), (40, 2_000, 100), (1025, 3_000, 1_000)):
            rows = sample(LinearModel(f, 2.0, n), 4, burn=burn, thin=thin, seed=n)
            draws[n] = [Permutation(d) for d in rows]
        for perms, method, k in ((draws[40], "pl", None), (draws[40], "ld", 20),
                                 (draws[5], "ml", None)):
            assert math.isfinite(multi_estimate(perms, f, method, k=k).theta_hat)
        pi = draws[1025][0]
        assert math.isfinite(linear_statistic(pi, f))
        assert np.all(np.isfinite(pairwise_swap_scores(pi, f)))


class TestOneLattice:
    """The score grid, the statistic and the pair scores read one lattice."""

    @pytest.mark.parametrize("k", [1, 7, 1100])
    def test_lattice_points(self, k):
        assert lattice(k).tolist() == [r / k for r in range(1, k + 1)]

    def test_score_grid_is_f_on_the_lattice_and_read_only(self):
        f = get_score("footrule")
        grid = score_grid(f, 9)
        t = lattice(9)
        assert grid.dtype == np.float64 and not grid.flags.writeable
        assert np.array_equal(grid, f(t[:, None], t[None, :]))

    @pytest.mark.parametrize("result", [
        lambda x, y: np.zeros_like(x),                             # k x 1
        lambda x, y: y * 2.0,                                      # 1 x k
        lambda x, y: np.float64(0.5),                              # 0-d
        lambda x, y: np.broadcast_to(0.5, np.broadcast(x, y).shape),  # read-only view
    ], ids=["column", "row", "scalar", "broadcast"])
    def test_score_grid_broadcasts_other_shapes(self, result):
        grid = score_grid(result, 6)
        t = lattice(6)
        want = np.broadcast_to(result(t[:, None], t[None, :]), (6, 6))
        assert grid.shape == (6, 6) and grid.dtype == np.float64
        assert not grid.flags.writeable
        assert np.array_equal(grid, want)

    @pytest.mark.parametrize("name", sorted(SCORE_FUNCTIONS))
    @pytest.mark.parametrize("n", [5, 257, 1100])
    def test_statistic_and_pair_scores_read_the_score_grid(self, n, name):
        # bit for bit, so that the points of a permutation cannot move
        # without the cells of the score grid
        f = get_score(name)
        pi = Permutation(np.random.default_rng(n).permutation(n) + 1)
        table = score_grid(f, n)
        cols = pi.values - 1
        assert linear_statistic(pi, f) == np.sum(table[np.arange(n), cols])
        i, j = np.triu_indices(n, 1)
        want = table[i, cols[i]] + table[j, cols[j]] - table[i, cols[j]] - table[j, cols[i]]
        assert np.array_equal(pairwise_swap_scores(pi, f), want)
