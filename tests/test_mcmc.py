import hashlib
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.special import expit

from permexp import mcmc
from permexp.grids import ScoreFunction, get_score
from permexp.mcmc import (
    ChainState,
    _kendall_draw,
    _run_swap,
    auxiliary_gibbs_sweep,
    make_rng,
    sample,
    supports_auxiliary,
)
from permexp.models import (
    KendallModel,
    LinearModel,
    kendall_limit_C_prime,
    kendall_logZ_prime,
)
from permexp.perm import Permutation, inversions

from conftest import (
    SwapDraws,
    empirical_law,
    enumerate_pmf,
    exact_swap_kernel,
    swap_bracket,
    tv_distance,
)


class TestSwapKernel:
    def test_zero_temperature_swaps_half_the_time(self):
        model = LinearModel(get_score("xy"), 0.0, 10)
        rng = make_rng(12)
        state = ChainState.uniform_start(10, rng)
        assert _run_swap(state, model, rng, 0, 100_000, 1).shape == (0, 10)
        assert state.steps == 100_000
        assert abs(state.swaps_accepted / state.steps - 0.5) <= 0.01

    @staticmethod
    def _assert_balanced(model):
        _, probs, kmat = exact_swap_kernel(model)
        assert np.abs(kmat.sum(axis=1) - 1.0).max() <= 1e-12
        flow = probs[:, None] * kmat
        assert np.abs(flow - flow.T).max() <= 1e-12
        assert np.abs(probs @ kmat - probs).max() <= 1e-12

    def test_detailed_balance_s4(self):
        for name in ("xy", "centered", "footrule", "sq"):
            for theta in (3.0, -2.5):
                self._assert_balanced(LinearModel(get_score(name), theta, 4))

    @pytest.mark.parametrize("name", ["xy", "centered", "footrule", "sq"])
    def test_detailed_balance_s5_linear(self, name):
        for theta in (3.0, -2.5):
            self._assert_balanced(LinearModel(get_score(name), theta, 5))

    @pytest.mark.parametrize("values", [[1, 1, 3], [0, 1, 2], [1, 2, 4], [[1, 2], [2, 1]], []],
                             ids=["repeat", "zero", "out-of-range", "2-d", "empty"])
    def test_state_rejects_a_non_bijection(self, values):
        with pytest.raises(ValueError):
            ChainState(np.array(values, dtype=np.int64))


MATCHING_ROWS = {n: list(itertools.permutations(range(n))) for n in (4, 5)}


def exact_matching_kernel(model):
    """Transition matrix of one whole matching, averaged over every shuffled row.

    The pairs (row[2k], row[2k + 1]) of a row are disjoint, so from a state
    s the matching swaps each pair on its own, with probability
    sigma(Delta), Delta = log p(s with the pair swapped) - log p(s) from
    ``enumerate_pmf``.  Returns the pmf, the matrix built from those
    probabilities, and the runs that check the chain against them.

    From each start state, a run heat-baths every row of 0..n-1 as one
    matching after another, twice over, and records the state after each.
    In the first pass the even pairs of each row swap (U just below
    sigma(Delta)) and the odd ones keep (U just above), in the second the
    reverse; a pair whose upper U is not below 1 swaps in both.  A run is
    (start, uniforms, records), and its records must be the states those
    decisions give.  As the start runs over S_n, so does the state that
    meets a given row in a given pass, so the runs from all starts check
    each pair of each row on both sides from every state.
    """
    perms, probs = enumerate_pmf(model)
    states = [tuple(p) for p in perms.tolist()]
    index = {s: a for a, s in enumerate(states)}
    n = model.n
    h = n // 2
    # flip[a, i, j]: the state a with positions i and j swapped; acc: the
    # probability that the heat-bath swaps them
    flip = np.zeros((len(states), n, n), dtype=np.int64)
    for a, s in enumerate(states):
        for i, j in itertools.permutations(range(n), 2):
            t = list(s)
            t[i], t[j] = t[j], t[i]
            flip[a, i, j] = index[tuple(t)]
    logp = np.log(probs)
    acc = expit(logp[flip] - logp[:, None, None])
    every = np.arange(len(states))
    kmat = np.zeros((len(states), len(states)))
    for row in MATCHING_ROWS[n]:
        pairs = [(row[2 * k], row[2 * k + 1]) for k in range(h)]
        for swaps in itertools.product((False, True), repeat=h):
            target = every
            weight = np.ones(len(states))
            for (i, j), swapped in zip(pairs, swaps):
                weight *= acc[:, i, j] if swapped else 1.0 - acc[:, i, j]
                if swapped:
                    target = flip[target, i, j]
            np.add.at(kmat, (every, target), weight / len(MATCHING_ROWS[n]))
    flip = flip.tolist()
    acc = acc.tolist()
    runs = []
    for start in range(len(states)):
        a = start
        uu = []
        records = []
        for parity in (0, 1):
            for row in MATCHING_ROWS[n]:
                b = a
                for k in range(h):
                    i, j = row[2 * k], row[2 * k + 1]
                    below, above = swap_bracket(acc[a][i][j])
                    if k % 2 == parity or above is None:
                        uu.append(below)
                        b = flip[b][i][j]
                    else:
                        uu.append(above)
                a = b
                records.append(states[a])
        runs.append((states[start], uu, np.array(records)))
    return probs, kmat, runs


class TestMatchingKernel:
    @pytest.mark.parametrize("theta", [3.0, -2.5])
    @pytest.mark.parametrize("name", ["xy", "centered", "footrule", "sq"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_detailed_balance(self, monkeypatch, n, name, theta):
        model = LinearModel(get_score(name), theta, n)
        probs, kmat, runs = exact_matching_kernel(model)
        assert np.abs(kmat.sum(axis=1) - 1.0).max() <= 1e-12
        flow = probs[:, None] * kmat
        assert np.abs(flow - flow.T).max() <= 1e-12
        assert np.abs(probs @ kmat - probs).max() <= 1e-12
        rows = 2 * MATCHING_ROWS[n]
        # every check at n = 4; at n = 5, where a run costs about 1 ms, the
        # per-pair loop over the score grid's rows runs those from every
        # other start and the array operations, at about 15 us a matching,
        # those from every tenth, so that each row meets 60 and 12 states
        # there on both sides
        for min_pairs, step in ((n, 1 if n == 4 else 2), (1, 1 if n == 4 else 10)):
            monkeypatch.setattr(mcmc, "_MATCHING_MIN_PAIRS", min_pairs)
            for start, uu, records in runs[::step]:
                state = ChainState(np.array(start, dtype=np.int64))
                draws = _run_swap(state, model, SwapDraws(n, rows, uu), len(rows), 0, n // 2)
                assert np.array_equal(draws, records)
                assert state.steps == len(rows) * (n // 2)


def _swap_run(model, seed, n_samples, burn, thin):
    rng = make_rng(seed)
    state = ChainState.uniform_start(model.n, rng)
    draws = _run_swap(state, model, rng, n_samples, burn, thin)
    return (draws.tolist(), state.values.tolist(), state.steps,
            state.swaps_accepted, rng.random())


class TestMatchingExecutions:
    """The per-pair loop and the array operations run the same chain.

    Blocks of randomness hold 60 steps here, so that runs cross many
    blocks, and a matching of h > 60 pairs makes a block of its own.
    """

    @pytest.mark.parametrize("n, burn, thin, draws", [
        (2, 50, 3, 5),
        (3, 51, 4, 5),
        (10, 333, 7, 6),
        (11, 301, 13, 4),            # the last position sits out
        (101, 2_000, 77, 5),         # blocks of one matching of 50 pairs
        (1025, 3_000, 1_001, 3),
    ])
    @pytest.mark.parametrize("name, theta", [("footrule", 3.0), ("sq", -20.0)])
    def test_same_chain(self, monkeypatch, name, theta, n, burn, thin, draws):
        model = LinearModel(get_score(name), theta, n)
        monkeypatch.setattr(mcmc, "_BLOCK", 60)
        runs = []
        for min_pairs in (1, n // 2 + 1):
            monkeypatch.setattr(mcmc, "_MATCHING_MIN_PAIRS", min_pairs)
            runs.append(_swap_run(model, n, draws, burn, thin))
        assert runs[0] == runs[1]
        assert runs[0][2] == burn + draws * thin


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _step_snapshots(model, seed):
    """3000 single-step runs of the swap chain; the state after every 100th."""
    rng = make_rng(seed)
    state = ChainState.uniform_start(model.n, rng)
    snapshots = []
    for t in range(3000):
        _run_swap(state, model, rng, 0, 1, 1)
        if t % 100 == 99:
            snapshots.append(state.values.copy())
    return state, snapshots


class TestGoldenChains:
    """Seeded runs reproduce recorded SHA-256 digests of their draws.

    The digests pin the RNG stream and the acceptance rule: linear chains
    at n = 40 and 1100 (the per-pair loop and the array operations over
    whole matchings), exact Kendall draws at n = 40 and 1100 (their burn
    and thin have no effect; the second id names a former table cutoff),
    single swap-chain steps and auxiliary sweeps all give the draws they
    gave when the digests were recorded.
    """

    @pytest.mark.parametrize("model, draws, burn, thin, seed, want", [
        (LinearModel(get_score("sq"), -6.0, 40), 4, 1000, 400, 31,
         "b5d42083b23a7ed3f633775ea34bad998798006e7def89f46e7293e958e18bd9"),
        (LinearModel(get_score("xy"), 20.0, 1100), 2, 3000, 2000, 32,
         "2f15c03e7f8064e4aefe76dbef1f28d6196587cffd281c22fc935d801081973a"),
        (KendallModel(2.0, 40), 4, 1000, 400, 33,
         "0117225d37f7b8dc356b471ff576bd765dbf527112a450b45e13bc946f3b32fb"),
        (KendallModel(20.0, 1100), 2, 3000, 2000, 37,
         "9485499d0957e04e626e8415705c8e214465067f8b33ca4165a180a269510198"),
    ], ids=["linear-n40", "linear-n1100", "kendall", "kendall-above-table"])
    def test_sample(self, model, draws, burn, thin, seed, want):
        out = sample(model, draws, burn=burn, thin=thin, sampler="swap", seed=seed)
        assert _digest(out) == want

    def test_single_steps(self):
        state, snapshots = _step_snapshots(LinearModel(get_score("footrule"), 3.0, 30), 34)
        assert state.swaps_accepted == 1067
        assert (_digest(snapshots)
                == "88cf778dc3703d5c4a04089bc53723a85884007887ccf8a624a475617c89ad85")

    @pytest.mark.parametrize("n, draws, burn, thin, seed, want", [
        (500, 4, 5, 2, 35,
         "81d116ff0d68e57d14dac32989196e6768f0b4e4d2b9511527fb77d7b7a631b8"),
        (3000, 2, 2, 1, 36,
         "a55d8f9a7e70e0aefbecd82d56750c5ea44fc75bbea100418103613c32c97529"),
    ], ids=["n500", "n3000"])
    def test_auxiliary(self, n, draws, burn, thin, seed, want):
        model = LinearModel(get_score("xy"), 20.0, n)
        out = sample(model, draws, burn=burn, thin=thin, sampler="auxiliary", seed=seed)
        assert _digest(out) == want


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

    def test_checks_the_score_function_not_its_name(self):
        # a score named xy with the sign flipped would give draws of the +xy model
        impostor = LinearModel(ScoreFunction("xy", lambda x, y: -x * y), 5.0, 6)
        rng = make_rng(1)
        state = ChainState.uniform_start(6, rng)
        assert not supports_auxiliary(impostor)
        with pytest.raises(ValueError):
            auxiliary_gibbs_sweep(state, impostor, rng)
        with pytest.raises(ValueError, match="auxiliary sampler"):
            sample(impostor, 2, sampler="auxiliary", seed=1)
        twin = pickle.loads(pickle.dumps(LinearModel(get_score("xy"), 5.0, 6)))
        assert supports_auxiliary(twin)

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


def _chain_starts(monkeypatch) -> list:
    """The states of the chains that ``sample`` starts from now on, in order."""
    states = []
    start = ChainState.uniform_start

    def spy(n, rng):
        states.append(start(n, rng))
        return states[-1]

    monkeypatch.setattr(ChainState, "uniform_start", staticmethod(spy))
    return states


class TestSample:
    def test_draw_is_a_read_only_copy(self, monkeypatch):
        model = LinearModel(get_score("xy"), 0.0, 6)
        states = _chain_starts(monkeypatch)
        draws = sample(model, 1, burn=0, thin=1, seed=9)
        recorded = draws.tolist()
        (state,) = states
        rng = make_rng(10)
        for _ in range(50):
            _run_swap(state, model, rng, 0, 1, 1)
        assert [state.values.tolist()] != recorded
        assert draws.tolist() == recorded
        assert not draws.flags.writeable
        assert not np.shares_memory(draws, state.values)

    @pytest.mark.parametrize("m", [0, 1, 4])
    @pytest.mark.parametrize("model, sampler", [
        (LinearModel(get_score("footrule"), 2.0, 1), "swap"),
        (LinearModel(get_score("footrule"), 2.0, 7), "swap"),
        (LinearModel(get_score("xy"), 2.0, 1), "auxiliary"),
        (LinearModel(get_score("xy"), 2.0, 7), "auxiliary"),
        (KendallModel(2.0, 1), "swap"),
        (KendallModel(2.0, 7), "swap"),
    ], ids=["swap-n1", "swap-n7", "aux-n1", "aux-n7", "kendall-n1", "kendall-n7"])
    def test_draws_are_one_read_only_array(self, monkeypatch, model, sampler, m):
        states = _chain_starts(monkeypatch)
        draws = sample(model, m, burn=3, thin=2, sampler=sampler, seed=5)
        assert draws.shape == (m, model.n) and draws.dtype == np.int64
        assert draws.flags.c_contiguous and not draws.flags.writeable
        assert np.array_equal(np.sort(draws, axis=1),
                              np.broadcast_to(np.arange(1, model.n + 1), draws.shape))
        assert len(states) == (0 if isinstance(model, KendallModel) else 1)
        assert not any(np.shares_memory(draws, state.values) for state in states)
        with pytest.raises(ValueError, match="read-only"):
            draws[...] = 1

    def test_fixed_seed_reproducible(self):
        model = LinearModel(get_score("xy"), 1.0, 8)
        a = sample(model, 5, burn=200, thin=20, sampler="swap", seed=42)
        b = sample(model, 5, burn=200, thin=20, sampler="swap", seed=42)
        assert np.array_equal(a, b)
        c = sample(model, 5, burn=200, thin=20, sampler="swap", seed=43)
        assert not np.array_equal(a, c)

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

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_non_finite_custom_score_raises(self, n, bad):
        # a chain at n = 10 or 60 would step pair by pair, at n = 200 by
        # array passes; the model refuses the score before either starts.
        # The one bad cell, (1, 1/2), lies in the last block of rows
        f = ScoreFunction("holed", lambda x, y: np.where((x == 1.0) & (y == 0.5), bad, x * y))
        with pytest.raises(ValueError, match=f"score 'holed' is not finite on the k = {n} "):
            sample(LinearModel(f, 3.0, n), 5, burn=100, thin=10, seed=1)

    def test_uniform_inversion_mean(self):
        # theta = 0: E Inv = n(n-1)/4 = 95 at n = 20
        model = LinearModel(get_score("xy"), 0.0, 20)
        draws = sample(model, 10_000, burn=5_000, thin=50, sampler="swap", seed=7)
        mean_inv = np.mean([inversions(Permutation(p)) for p in draws])
        assert abs(mean_inv - 95.0) <= 3.0

    def test_kendall_chain_tracks_limit_derivative(self):
        n, theta = 300, 2.0
        model = KendallModel(theta, n)
        draws = sample(model, 80, burn=60_000, thin=3_000, sampler="swap", seed=11)
        rate = np.mean([inversions(Permutation(p)) for p in draws]) / (n * n)
        assert abs(rate - kendall_limit_C_prime(theta)) <= 0.01


def _insertion_code(p):
    """V_j = #{i < j : pi(i) > pi(j)}, j = 1..n, by its definition."""
    return [sum(a > b for a in p[:j]) for j, b in enumerate(p)]


def _code_edges(theta, n, j):
    """Edges of the uniform's intervals for the variable the sampler draws.

    It draws V_j for theta <= 0 and W_j = j - 1 - V_j for theta > 0; the
    x-th interval [edges[x], edges[x + 1]) gives that variable the value
    x.  With a = -|theta|/n, P(X <= x - 1) = expm1(a x) / expm1(a j).
    """
    x = np.arange(j + 1, dtype=np.float64)
    if theta == 0:
        return x / j
    a = -abs(theta) / n
    return np.expm1(a * x) / math.expm1(a * j)


def _code_value(theta, j, v):
    """The drawn variable at V_j = v."""
    return j - 1 - v if theta > 0 else v


class _Uniforms:
    """A generator stub whose ``random(n)`` returns chosen uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return np.array(self.u, dtype=np.float64)


def _decode(model, u):
    """The Kendall draw that the uniforms ``u`` give, as a tuple."""
    row = np.zeros(model.n, dtype=np.int64)
    _kendall_draw(model, _Uniforms(u), row)
    return tuple(row.tolist())


EXACT_THETAS = [-7.5, 0.0, 3.0, 40.0]


class TestKendallExact:
    @pytest.mark.parametrize("theta", EXACT_THETAS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_code_law_is_the_model_pmf(self, n, theta):
        perms, probs = enumerate_pmf(KendallModel(theta, n))
        edges = [_code_edges(theta, n, j) for j in range(1, n + 1)]
        for p, want in zip(perms.tolist(), probs):
            got = 1.0
            for j, v in enumerate(_insertion_code(p), start=1):
                x = _code_value(theta, j, v)
                got *= edges[j - 1][x + 1] - edges[j - 1][x]
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("theta", EXACT_THETAS)
    @pytest.mark.parametrize("n", range(1, 7))
    def test_uniforms_in_code_intervals_decode_to_the_permutation(self, n, theta):
        # the midpoint of each coordinate's interval, for every pi in S_n
        model = KendallModel(theta, n)
        edges = [_code_edges(theta, n, j) for j in range(1, n + 1)]
        for p in itertools.permutations(range(1, n + 1)):
            u = []
            for j, v in enumerate(_insertion_code(p), start=1):
                x = _code_value(theta, j, v)
                u.append(0.5 * (edges[j - 1][x] + edges[j - 1][x + 1]))
            assert _decode(model, u) == p

    @pytest.mark.parametrize("n", [1, 5, 50])
    def test_end_uniforms_give_the_end_codes(self, n):
        # u = 0 draws 0 and the largest uniform draws j - 1 at every j, for
        # |theta| small enough that j - 1 keeps an interval wider than an ulp;
        # at small |theta| the inverse CDF of the largest rounds up to j
        top = np.nextafter(1.0, 0.0)
        ident, rev = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
        for theta in np.concatenate([-np.logspace(-12, 0, 60), [0.0],
                                     np.logspace(-12, 0, 60)]).tolist():
            model = KendallModel(theta, n)
            low = _decode(model, [0.0] * n)
            high = _decode(model, [top] * n)
            assert (low, high) == ((rev, ident) if theta > 0 else (ident, rev))

    @pytest.mark.parametrize("theta", [1e4, -1e4, 0.0, 5e-324])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_extreme_theta_draws_bijections_without_warnings(self, n, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = sample(KendallModel(theta, n), 20, seed=19)
        for d in draws:
            assert np.array_equal(np.sort(d), np.arange(1, n + 1))
        if abs(theta) == 1e4:
            want = np.arange(n, 0, -1) if theta > 0 else np.arange(1, n + 1)
            assert all(np.array_equal(d, want) for d in draws)

    @pytest.mark.parametrize("theta", [-20.0, 5.0, 50.0])
    @pytest.mark.parametrize("n", [200, 1000])
    def test_mean_inversions_match_logz_prime(self, n, theta):
        # the tolerance is 4 standard errors of the mean from the exact
        # variance sum_j Var(V_j) of Inv, fixed before the draws
        m = 300
        c = theta / n
        var = 0.0
        for j in range(1, n + 1):
            v = np.arange(j, dtype=np.float64)
            w = np.exp(c * (v - (j - 1 if c > 0 else 0)))
            w /= w.sum()
            mean = w @ v
            var += w @ (v - mean) ** 2
        tol = 4.0 * math.sqrt(var / m) / (n * n)
        draws = sample(KendallModel(theta, n), m, seed=23)
        rate = np.mean([inversions(Permutation(d)) for d in draws]) / (n * n)
        assert abs(rate - kendall_logZ_prime(n, theta)) <= tol

    def test_burn_thin_and_sampler_are_checked_and_ignored(self):
        model = KendallModel(2.0, 30)
        want = sample(model, 4, seed=3)
        assert np.array_equal(sample(model, 4, burn=500, thin=7, sampler="swap", seed=3), want)
        with pytest.raises(ValueError, match="burn must be >= 0"):
            sample(model, 4, burn=-1, seed=3)
        with pytest.raises(ValueError, match="thin must be >= 1"):
            sample(model, 4, thin=0, seed=3)
        with pytest.raises(ValueError, match="unknown sampler"):
            sample(model, 4, sampler="gibbs", seed=3)


class TestLongRunLaws:
    def test_swap_matches_exact_pmf_s4(self):
        model = LinearModel(get_score("xy"), 3.0, 4)
        perms, probs = enumerate_pmf(model)
        states = [tuple(p) for p in perms]
        draws = sample(model, 60_000, burn=2_000, thin=5, sampler="swap", seed=5)
        emp = empirical_law(map(tuple, draws.tolist()), states)
        assert tv_distance(emp, probs) < 0.05

    def test_samplers_agree_s4(self):
        model = LinearModel(get_score("xy"), 2.0, 4)
        a = sample(model, 60_000, burn=2_000, thin=5, sampler="swap", seed=6)
        b = sample(model, 60_000, burn=30, thin=1, sampler="auxiliary", seed=7)
        states = [tuple(p) for p in itertools.permutations(range(1, 5))]
        emp_a = empirical_law(map(tuple, a.tolist()), states)
        emp_b = empirical_law(map(tuple, b.tolist()), states)
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
            inv = np.argsort(p) + 1  # pi^{-1}(v) at v - 1
            assert probs[index[tuple(inv.tolist())]] == pytest.approx(pr, rel=1e-10)
            sigma = tuple((n + 1 - inv[::-1]).tolist())
            assert probs[index[sigma]] == pytest.approx(pr, rel=1e-10)

    def test_sampled_law_matches_inverse_law(self):
        model = LinearModel(get_score("xy"), 1.5, 5)
        states = [tuple(p) for p in itertools.permutations(range(1, 6))]
        draws = sample(model, 100_000, burn=2_000, thin=5, sampler="swap", seed=8)
        emp = empirical_law(map(tuple, draws.tolist()), states)
        inverses = np.argsort(draws, axis=1) + 1
        emp_inv = empirical_law(map(tuple, inverses.tolist()), states)
        assert tv_distance(emp, emp_inv) < 0.05
