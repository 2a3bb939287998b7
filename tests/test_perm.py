import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammaln

from permexp.perm import (
    Permutation,
    band_counts,
    bin_counts,
    cdf_distance,
    fisher_yates_logpmf,
    inversions,
    linear_statistic,
    spearman_r,
)

from conftest import all_perms, inversions_quadratic, random_permutation


class TestPermutation:
    def test_bijectivity_enforced(self):
        for bad in ([1, 1, 3], [0, 1, 2], [2, 3, 4], []):
            with pytest.raises(ValueError):
                Permutation(bad)

    def test_values_are_readonly(self):
        pi = Permutation.identity(4)
        with pytest.raises(ValueError):
            pi.values[0] = 5


class TestInversions:
    def test_identity(self):
        assert inversions(Permutation.identity(5)) == 0

    def test_reverse(self):
        assert inversions(Permutation([4, 3, 2, 1])) == 6

    def test_single_swap(self):
        assert inversions(Permutation([1, 3, 2])) == 1

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            pi = random_permutation(rng, n)
            assert inversions(pi) == inversions_quadratic(pi)

    @pytest.mark.parametrize("n", sorted({1, 2, 3, 1000}
                                         | {2**j + d for j in range(2, 10) for d in (-1, 0, 1)}))
    def test_merge_levels_match_quadratic_oracle(self, n):
        rng = np.random.default_rng(n)
        for pi in (random_permutation(rng, n), random_permutation(rng, n),
                   Permutation.identity(n), Permutation(np.arange(n, 0, -1))):
            assert inversions(pi) == inversions_quadratic(pi)
        assert inversions(Permutation(np.arange(n, 0, -1))) == n * (n - 1) // 2

    @given(st.permutations(list(range(1, 9))))
    def test_matches_oracle_exhaustive_small(self, vals):
        pi = Permutation(vals)
        assert inversions(pi) == inversions_quadratic(pi)


class TestLinearStatistic:
    def test_xy_identity_n3(self):
        f = lambda x, y: x * y
        assert math.isclose(linear_statistic(Permutation.identity(3), f), 14 / 9)

    def test_zero_function(self):
        rng = np.random.default_rng(4)
        pi = random_permutation(rng, 25)
        assert linear_statistic(pi, lambda x, y: np.zeros_like(x)) == 0.0

    def test_lottery_statistic(self, lottery):
        tau = lottery.tau()
        stat = linear_statistic(tau, lambda x, y: x * y) / tau.n
        assert round(stat, 4) == 0.2702


class TestSpearman:
    def test_equal(self):
        pi = Permutation([2, 4, 1, 3])
        assert spearman_r(pi, pi) == 1.0

    def test_reverse_of_pi(self):
        rng = np.random.default_rng(5)
        pi = random_permutation(rng, 40)
        rev = Permutation(41 - pi.values)
        assert math.isclose(spearman_r(pi, rev), -1.0)

    def test_lottery_value(self, lottery):
        r = spearman_r(lottery.pi(), Permutation.identity(366))
        assert abs(r - (-0.226)) <= 0.001

    def test_symmetry_and_right_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = 20
            pi, sigma, tau = (random_permutation(rng, n) for _ in range(3))
            assert math.isclose(spearman_r(pi, sigma), spearman_r(sigma, pi))
            # right composition with tau: i -> pi(tau(i))
            assert math.isclose(
                spearman_r(pi, sigma),
                spearman_r(Permutation(pi.values[tau.values - 1]),
                           Permutation(sigma.values[tau.values - 1])),
            )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            spearman_r(Permutation.identity(3), Permutation.identity(4))


class TestBinCounts:
    def test_identity_n4_k2(self):
        assert bin_counts(Permutation.identity(4), 2).tolist() == [[2, 0], [0, 2]]

    def test_reverse_n4_k2(self):
        assert bin_counts(Permutation([4, 3, 2, 1]), 2).tolist() == [[0, 2], [2, 0]]

    def test_uniform_random_invariant(self):
        rng = np.random.default_rng(7)
        pi = random_permutation(rng, 1000)
        m = bin_counts(pi, 10)
        assert m.dtype == np.int64 and m.shape == (10, 10)
        assert m.max() <= 200 and m.min() >= 0
        assert np.all(m.sum(axis=1) == 100)
        assert np.all(m.sum(axis=0) == 100)

    def test_k_out_of_range(self):
        pi = Permutation.identity(4)
        for k in (0, 5):
            with pytest.raises(ValueError):
                bin_counts(pi, k)

    def test_row_col_sums_exhaustive(self):
        # every permutation of S_n for n <= 6, every grid order k <= n
        for n in range(1, 7):
            for k in range(1, n + 1):
                expected = band_counts(n, k)
                assert expected.sum() == n
                for pi in all_perms(n):
                    m = bin_counts(pi, k)
                    assert np.array_equal(m.sum(axis=1), expected)
                    assert np.array_equal(m.sum(axis=0), expected)

    def test_boundary_points_go_to_lower_cell(self):
        # i/n exactly on a grid line r/k belongs to cell r
        m = bin_counts(Permutation.identity(4), 4)
        assert np.array_equal(m, np.eye(4, dtype=int))


class TestFisherYates:
    def test_s2_diagonal(self):
        m = bin_counts(Permutation.identity(2), 2)
        assert math.isclose(fisher_yates_logpmf(m), math.log(0.5))

    @pytest.mark.parametrize("counts, message", [
        pytest.param(np.array([[1, 0, 1], [0, 1, 0]]), "square matrix", id="non-square"),
        pytest.param(np.array([1, 1]), "square matrix", id="one-dimensional"),
        pytest.param(np.zeros((0, 0), dtype=np.int64), "square matrix", id="empty"),
        pytest.param(np.array([[2, -1], [-1, 2]]), "negative cell", id="negative-cell"),
        # n = 2, k = 2: bands (1, 1), but the rows sum to (2, 0)
        pytest.param(np.array([[2, 0], [0, 0]]), "row sums", id="row-margins"),
        # rows (1, 1) as the bands ask, columns (2, 0)
        pytest.param(np.array([[1, 0], [1, 0]]), "column sums", id="column-margins"),
        # n = 5, k = 2: bands (2, 3), not (3, 2)
        pytest.param(np.array([[2, 1], [1, 1]]), "row sums", id="bands-swapped"),
    ])
    def test_invalid_matrix_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            fisher_yates_logpmf(counts)

    def test_sums_to_one_n4_k2(self):
        seen = {}
        for pi in all_perms(4):
            key = tuple(bin_counts(pi, 2).ravel())
            seen[key] = seen.get(key, 0) + 1
        total = 0.0
        for key, count in seen.items():
            m = np.array(key).reshape(2, 2)
            total += math.exp(fisher_yates_logpmf(m))
            # pmf equals the enumeration frequency exactly
            assert math.isclose(math.exp(fisher_yates_logpmf(m)), count / 24)
        assert math.isclose(total, 1.0)

    def test_matches_sampling_frequencies(self):
        # smoke version of the acceptance check: n=5, k=2, 2e5 samples
        rng = np.random.default_rng(8)
        n, k, draws = 5, 2, 200_000
        samples = rng.permuted(np.tile(np.arange(1, n + 1), (draws, 1)), axis=1)
        m11 = (samples[:, :2] <= 2).sum(axis=1)  # rows 1..2, values 1..2
        for a in (0, 1, 2):
            m = np.array([[a, 2 - a], [2 - a, 1 + a]])
            p = math.exp(fisher_yates_logpmf(m))
            freq = float(np.mean(m11 == a))
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 5 * se


    @pytest.mark.parametrize("n, k", [(7, 3), (366, 10), (1000, 7), (5000, 40)])
    def test_matches_scipy_gammaln(self, n, k):
        m = bin_counts(random_permutation(np.random.default_rng(n), n), k)
        bands = band_counts(n, k)
        want = float(2.0 * np.sum(gammaln(bands + 1.0)) - gammaln(n + 1.0)
                     - np.sum(gammaln(m + 1.0)))
        assert fisher_yates_logpmf(m) == pytest.approx(want, rel=1e-12, abs=0)


def _cdf_distance_oracle(pi):
    """The sup as the largest two-corner increment of the count CDF, by cumsum."""
    n = pi.n
    cum = np.zeros((n + 1, n + 1), dtype=np.int64)
    cum[np.arange(1, n + 1), pi.values] = 1
    np.cumsum(cum, axis=0, out=cum)
    np.cumsum(cum, axis=1, out=cum)
    return float((cum[1:, 1:] - cum[:-1, :-1]).max()) / n


class TestCdfDistance:
    def test_closed_form_matches_the_cumsum_oracle(self):
        for n in range(1, 8):
            for pi in all_perms(n):
                assert cdf_distance(pi) == _cdf_distance_oracle(pi)
        rng = np.random.default_rng(8)
        for n in (50, 500):
            for _ in range(5):
                pi = random_permutation(rng, n)
                assert cdf_distance(pi) == _cdf_distance_oracle(pi) == 2 / n

    def test_bound_holds_everywhere_small(self):
        for n in range(1, 6):
            for pi in all_perms(n):
                assert cdf_distance(pi) <= 2 / n + 1e-12

    def test_n1_vacuous(self):
        assert cdf_distance(Permutation.identity(1)) <= 2.0

    def test_random_n50(self):
        rng = np.random.default_rng(9)
        worst = max(cdf_distance(random_permutation(rng, 50)) for _ in range(500))
        assert worst <= 0.04 + 1e-12

    def test_identity_value(self):
        # diagonal increments are single points: distance exactly 1/n
        assert math.isclose(cdf_distance(Permutation.identity(10)), 0.1)
