import functools
import hashlib
import itertools

import numpy as np
import pytest
from scipy.special import expit

from permexp.grids import get_score
from permexp.mcmc import (
    ChainState,
    _run_swap,
    auxiliary_gibbs_sweep,
    gibbs_swap_step,
    make_rng,
    sample,
    supports_auxiliary,
)
from permexp.models import (
    KendallModel,
    LinearModel,
    _inversion_count_evaluator,
    enumerate_pmf,
    kendall_limit_C_prime,
)
from permexp.perm import Permutation, inversions

from conftest import empirical_law, tv_distance


def exact_swap_kernel(model, evaluator=None):
    """Transition matrix of the pair-swap Gibbs chain by enumeration.

    Acceptance comes from ``evaluator(values)``, by default the
    ``model.swap_evaluator`` that ``_run_swap`` uses, over the ordered
    pairs (i, j), i != j, that it draws uniformly.
    """
    evaluator = evaluator or model.swap_evaluator
    perms, probs = enumerate_pmf(model)
    states = [tuple(p) for p in perms]
    index = {s: i for i, s in enumerate(states)}
    n = model.n
    npairs = n * (n - 1)
    kmat = np.zeros((len(states), len(states)))
    for a, s in enumerate(states):
        log_ratio, _ = evaluator(np.array(s))
        for i, j in itertools.permutations(range(n), 2):
            acc = expit(log_ratio(i, j))
            t = list(s)
            t[i], t[j] = t[j], t[i]
            kmat[a, index[tuple(t)]] += acc / npairs
            kmat[a, a] += (1.0 - acc) / npairs
    return states, probs, kmat


class TestSwapKernel:
    def test_zero_temperature_swaps_half_the_time(self):
        model = LinearModel(get_score("xy"), 0.0, 10)
        rng = make_rng(12)
        state = ChainState.uniform_start(10, rng)
        assert _run_swap(state, model, rng, 0, 100_000, 1) == []
        assert state.steps == 100_000
        assert abs(state.swaps_accepted / state.steps - 0.5) <= 0.01

    def test_detailed_balance_s4(self):
        model = LinearModel(get_score("xy"), 3.0, 4)
        states, probs, kmat = exact_swap_kernel(model)
        flow = probs[:, None] * kmat
        assert np.abs(flow - flow.T).max() <= 1e-12
        assert np.abs(probs @ kmat - probs).max() <= 1e-12

    def test_detailed_balance_kendall(self):
        model = KendallModel(-1.5, 4)
        states, probs, kmat = exact_swap_kernel(model)
        flow = probs[:, None] * kmat
        assert np.abs(flow - flow.T).max() <= 1e-12

    @pytest.mark.parametrize("evaluator", [_inversion_count_evaluator, None],
                             ids=["count", "table"])
    def test_detailed_balance_kendall_s5(self, evaluator):
        # n = 5 chains read the table; the counting path runs above
        # INVERSION_TABLE_MAX_N, so it is gated here directly
        model = KendallModel(2.5, 5)
        if evaluator is not None:
            evaluator = functools.partial(evaluator, scale=model.theta / model.n)
        states, probs, kmat = exact_swap_kernel(model, evaluator)
        flow = probs[:, None] * kmat
        assert np.abs(flow - flow.T).max() <= 1e-12
        assert np.abs(probs @ kmat - probs).max() <= 1e-12

    def test_step_preserves_bijectivity_and_counts(self):
        model = KendallModel(2.0, 25)
        rng = make_rng(0)
        state = ChainState.uniform_start(25, rng)
        for _ in range(500):
            gibbs_swap_step(state, model, rng)
            assert sorted(state.values) == list(range(1, 26))
        assert state.steps == 500
        assert 0 < state.swaps_accepted <= 500

    @pytest.mark.parametrize("values", [[1, 1, 3], [0, 1, 2], [1, 2, 4], [[1, 2], [2, 1]], []],
                             ids=["repeat", "zero", "out-of-range", "2-d", "empty"])
    def test_state_rejects_a_non_bijection(self, values):
        with pytest.raises(ValueError):
            ChainState(np.array(values, dtype=np.int64))


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _step_snapshots(model, seed):
    """3000 gibbs_swap_step calls; the state after every 100th."""
    rng = make_rng(seed)
    state = ChainState.uniform_start(model.n, rng)
    snapshots = []
    for t in range(3000):
        gibbs_swap_step(state, model, rng)
        if t % 100 == 99:
            snapshots.append(state.values.copy())
    return state, snapshots


class TestGoldenChains:
    """Seeded chains reproduce recorded SHA-256 digests of their states.

    The digests pin the RNG stream and the acceptance rule: the linear
    and Kendall chains below and above their table cutoffs, single
    gibbs_swap_step calls and auxiliary sweeps all give the draws they
    gave when the digests were recorded.
    """

    @pytest.mark.parametrize("model, draws, burn, thin, seed, want", [
        (LinearModel(get_score("sq"), -6.0, 40), 4, 1000, 400, 31,
         "122114709d7d5c5e751ab63efbf379744651ddb31bef962bb896568796025f98"),
        (LinearModel(get_score("xy"), 20.0, 1100), 2, 3000, 2000, 32,
         "9e5b2362b17dc567f01aaf5241cff77c5ea5e059bb0fc0a9cc28ae69d313304b"),
        (KendallModel(2.0, 40), 4, 1000, 400, 33,
         "ccadd6ae1c3f3072fc356cd525cc483c00499fab492ca7e358063123752ff4f2"),
        (KendallModel(20.0, 1100), 2, 3000, 2000, 37,
         "7d56ed0c9a70139cb27c6d0f735ce83c315edf25290233988914e721d1f67865"),
    ], ids=["linear-table", "linear-above-table", "kendall", "kendall-above-table"])
    def test_sample(self, model, draws, burn, thin, seed, want):
        out = sample(model, draws, burn=burn, thin=thin, sampler="swap", seed=seed)
        assert _digest(d.values for d in out) == want

    def test_gibbs_swap_step(self):
        state, snapshots = _step_snapshots(LinearModel(get_score("footrule"), 3.0, 30), 34)
        assert state.swaps_accepted == 1082
        assert (_digest(snapshots)
                == "b3a5d195d74cadcd65dd98f4c89e3da218530bb3a34fcf8ec11d85ba56364b9a")

    def test_gibbs_swap_step_kendall(self):
        # each one-step run builds and reads a fresh table
        state, snapshots = _step_snapshots(KendallModel(-3.0, 30), 38)
        assert state.swaps_accepted == 1248
        assert (_digest(snapshots)
                == "2be7bb67a93a2abf47cb28530b006018913ceb5e1d83703a0d2d01fe695f6582")

    @pytest.mark.parametrize("n, draws, burn, thin, seed, want", [
        (500, 4, 5, 2, 35,
         "76da6aa27bb3b5f99fd576c991dbafea2089f039d0b95437e017d4663250090b"),
        (3000, 2, 2, 1, 36,
         "b6a5aa7cc7407d86c43e5c1840e2dd9e4cf212e5a8fde235c719a53f56868ad8"),
    ], ids=["n500", "n3000"])
    def test_auxiliary(self, n, draws, burn, thin, seed, want):
        model = LinearModel(get_score("xy"), 20.0, n)
        out = sample(model, draws, burn=burn, thin=thin, sampler="auxiliary", seed=seed)
        assert _digest(d.values for d in out) == want


class TestAuxiliarySweep:
    def test_requires_spearman_positive_theta(self):
        rng = make_rng(1)
        state = ChainState.uniform_start(6, rng)
        for model in (
            KendallModel(2.0, 6),
            LinearModel(get_score("footrule"), 2.0, 6),
            LinearModel(get_score("xy"), -1.0, 6),
            LinearModel(get_score("xy"), 0.0, 6),
        ):
            assert not supports_auxiliary(model)
            with pytest.raises(ValueError):
                auxiliary_gibbs_sweep(state, model, rng)

    def test_bijectivity_large_n(self):
        model = LinearModel(get_score("xy"), 20.0, 10_000)
        rng = make_rng(2)
        state = ChainState.uniform_start(10_000, rng)
        for _ in range(10):
            auxiliary_gibbs_sweep(state, model, rng)
        assert np.array_equal(np.sort(state.values), np.arange(1, 10_001))
        assert state.sweeps == 10

    def test_empty_pool_raises_and_keeps_the_state(self):
        # only a state that is no bijection can empty a pool: every floor
        # sits at n, so no position is feasible for target 1
        model = LinearModel(get_score("xy"), 1e6, 5)
        rng = make_rng(4)
        state = ChainState.uniform_start(5, rng)
        state.values[:] = 5
        with pytest.raises(RuntimeError, match="feasible pool emptied"):
            auxiliary_gibbs_sweep(state, model, rng)
        assert state.values.tolist() == [5] * 5
        assert state.sweeps == 0

    def test_tiny_theta_acts_like_reshuffle(self):
        # theta -> 0+: the feasibility floors collapse to 1, draws are uniform
        model = LinearModel(get_score("xy"), 1e-9, 6)
        rng = make_rng(3)
        state = ChainState.uniform_start(6, rng)
        counts = np.zeros(6)
        for _ in range(4000):
            auxiliary_gibbs_sweep(state, model, rng)
            counts[state.values[0] - 1] += 1
        freq = counts / counts.sum()
        assert np.abs(freq - 1 / 6).max() < 0.03


class TestSample:
    def test_draw_is_a_read_only_copy(self):
        model = KendallModel(0.0, 6)
        rng = make_rng(9)
        state = ChainState.uniform_start(6, rng)
        draw = state.permutation()
        recorded = draw.as_tuple()
        for _ in range(50):
            gibbs_swap_step(state, model, rng)
        assert tuple(state.values) != recorded
        assert draw.as_tuple() == recorded
        assert not draw.values.flags.writeable
        assert not np.shares_memory(draw.values, state.values)
        assert draw == Permutation(recorded)
        assert hash(draw) == hash(Permutation(recorded))

    def test_fixed_seed_reproducible(self):
        model = LinearModel(get_score("xy"), 1.0, 8)
        a = sample(model, 5, burn=200, thin=20, sampler="swap", seed=42)
        b = sample(model, 5, burn=200, thin=20, sampler="swap", seed=42)
        assert a == b
        c = sample(model, 5, burn=200, thin=20, sampler="swap", seed=43)
        assert a != c

    def test_sampler_model_mismatch(self):
        with pytest.raises(ValueError):
            sample(KendallModel(1.0, 5), 1, sampler="auxiliary")

    @pytest.mark.parametrize("sampler", ["swap", "auxiliary"])
    def test_negative_burn_rejected(self, sampler):
        model = LinearModel(get_score("xy"), 1.0, 5)
        with pytest.raises(ValueError, match="burn must be >= 0"):
            sample(model, 3, burn=-5, thin=1, sampler=sampler)

    @pytest.mark.parametrize("sampler", ["swap", "auxiliary"])
    @pytest.mark.parametrize("thin", [0, -3])
    def test_nonpositive_thin_rejected(self, sampler, thin):
        model = LinearModel(get_score("xy"), 1.0, 5)
        with pytest.raises(ValueError, match="thin must be >= 1"):
            sample(model, 3, burn=5, thin=thin, sampler=sampler)

    def test_uniform_inversion_mean(self):
        # theta = 0: E Inv = n(n-1)/4 = 95 at n = 20
        model = LinearModel(get_score("xy"), 0.0, 20)
        draws = sample(model, 10_000, burn=5_000, thin=50, sampler="swap", seed=7)
        mean_inv = np.mean([inversions(p) for p in draws])
        assert abs(mean_inv - 95.0) <= 3.0

    def test_kendall_chain_tracks_limit_derivative(self):
        n, theta = 300, 2.0
        model = KendallModel(theta, n)
        draws = sample(model, 80, burn=60_000, thin=3_000, sampler="swap", seed=11)
        rate = np.mean([inversions(p) for p in draws]) / (n * n)
        assert abs(rate - kendall_limit_C_prime(theta)) <= 0.01


class TestLongRunLaws:
    def test_swap_matches_exact_pmf_s4(self):
        model = LinearModel(get_score("xy"), 3.0, 4)
        perms, probs = enumerate_pmf(model)
        states = [tuple(p) for p in perms]
        draws = sample(model, 60_000, burn=2_000, thin=5, sampler="swap", seed=5)
        emp = empirical_law((d.as_tuple() for d in draws), states)
        assert tv_distance(emp, probs) < 0.05

    def test_samplers_agree_s4(self):
        model = LinearModel(get_score("xy"), 2.0, 4)
        a = sample(model, 60_000, burn=2_000, thin=5, sampler="swap", seed=6)
        b = sample(model, 60_000, burn=30, thin=1, sampler="auxiliary", seed=7)
        states = [tuple(p) for p in itertools.permutations(range(1, 5))]
        emp_a = empirical_law((d.as_tuple() for d in a), states)
        emp_b = empirical_law((d.as_tuple() for d in b), states)
        assert tv_distance(emp_a, emp_b) < 0.03


class TestDistributionalSymmetry:
    def test_exact_pmf_symmetries_s5(self):
        # under f = xy the laws of pi, pi^{-1}, and the anti-transpose
        # sigma(i) = n+1 - pi^{-1}(n+1-i) agree (all three share the statistic)
        model = LinearModel(get_score("xy"), 1.5, 5)
        perms, probs = enumerate_pmf(model)
        index = {tuple(p): i for i, p in enumerate(perms)}
        n = 5
        for p, pr in zip(perms, probs):
            pi = Permutation(p)
            inv = pi.inverse()
            assert probs[index[inv.as_tuple()]] == pytest.approx(pr, rel=1e-10)
            sigma = tuple(n + 1 - inv(n + 1 - i) for i in range(1, n + 1))
            assert probs[index[sigma]] == pytest.approx(pr, rel=1e-10)

    def test_sampled_law_matches_inverse_law(self):
        model = LinearModel(get_score("xy"), 1.5, 5)
        states = [tuple(p) for p in itertools.permutations(range(1, 6))]
        draws = sample(model, 100_000, burn=2_000, thin=5, sampler="swap", seed=8)
        emp = empirical_law((d.as_tuple() for d in draws), states)
        emp_inv = empirical_law((d.inverse().as_tuple() for d in draws), states)
        assert tv_distance(emp, emp_inv) < 0.05
