"""The samplers against their former per-step loops, kept here verbatim as oracles.

``_oracle_run_swap`` is the pair-swap loop that ran every swap step before
the steps were run in segments between records and, above the score-table
cutoff, in chunks with vectorised ratios; ``_oracle_sweep`` is the
auxiliary sweep before its picks were computed up front.  The samplers
must give the same draws, the same counts and leave the generator at the
same position.
"""
import numpy as np
import pytest

from permexp.grids import ScoreFunction, get_score
from permexp.mcmc import (
    _BLOCK,
    ChainState,
    _run_swap,
    auxiliary_gibbs_sweep,
    gibbs_swap_step,
    make_rng,
    sample,
)
from permexp.models import SCORE_TABLE_MAX_N, KendallModel, LinearModel
from permexp.perm import Permutation

# the oracle's block size fixes its RNG stream
_ORACLE_BLOCK = 1 << 15


def _oracle_run_swap(state, model, rng, n_samples, burn, thin):
    n = model.n
    values = state.values
    total = burn + n_samples * thin
    if n < 2:
        # S_1 has no pair to swap: every step keeps its one permutation
        state.steps += total
        return [state.permutation() for _ in range(n_samples)]
    log_ratio, swap = model.swap_evaluator(values)
    draws: list[Permutation] = []
    next_record = burn + thin if n_samples > 0 else total + 1
    done = 0
    while done < total:
        m = min(_ORACLE_BLOCK, total - done)
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n - 1, size=m)
        uu = rng.random(m)
        with np.errstate(divide="ignore"):
            logits = np.log(uu) - np.log1p(-uu)
        # memoryviews yield Python ints and floats one at a time: no numpy
        # scalars in the loop and no block-sized lists in memory
        for i, j, logit in zip(memoryview(ii), memoryview(jj), memoryview(logits)):
            if j >= i:
                j += 1
            if logit < log_ratio(i, j):
                swap(i, j)
                state.swaps_accepted += 1
            done += 1
            if done == next_record:
                draws.append(state.permutation())
                next_record = done + thin if len(draws) < n_samples else total + 1
    state.steps += total
    return draws


def _oracle_sweep(state, model, rng):
    n = state.n
    theta = model.theta
    j_arr = np.arange(1, n + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        b = state.values + (n * n / theta) * np.log(rng.random(n)) / j_arr
    entry = np.ceil(np.maximum(b, 1.0)).astype(np.int64)  # first l with b_j <= l
    # ndarray methods skip the dispatch of their np.* wrappers, which costs
    # more than the work itself at small n
    order = entry.argsort(kind="stable")
    # positions order[:stops[l - 1]] are feasible for target l and all later ones
    stops = entry[order].searchsorted(j_arr, side="right")
    picks = rng.random(n)
    new_values = np.empty(n, dtype=np.int64)
    out = memoryview(new_values)
    arrivals = memoryview(order)
    pool: list[int] = []
    start = 0
    for l, stop, pick in zip(range(1, n + 1), memoryview(stops), memoryview(picks)):
        pool += arrivals[start:stop]
        start = stop
        if not pool:
            raise RuntimeError("feasible pool emptied; sweep invariant broken")
        r = int(pick * len(pool))
        out[pool[r]] = l
        pool[r] = pool[-1]
        pool.pop()
    state.values[:] = new_values
    state.sweeps += 1
    return state


def _exp_score(x, y):
    return np.exp(x * y - 0.5)


SCORES = [get_score(name) for name in ("xy", "centered", "footrule", "sq")]
SCORES.append(ScoreFunction("exp", _exp_score))


def _chains(model, seed):
    """Two chains at the same uniform start, each with its own generator."""
    chains = []
    for _ in range(2):
        rng = make_rng(seed)
        chains.append((ChainState.uniform_start(model.n, rng), rng))
    return chains


def _assert_same(model, seed, n_samples, burn, thin):
    (state, rng), (want_state, want_rng) = _chains(model, seed)
    draws = _run_swap(state, model, rng, n_samples, burn, thin)
    want = _oracle_run_swap(want_state, model, want_rng, n_samples, burn, thin)
    assert [d.as_tuple() for d in draws] == [d.as_tuple() for d in want]
    assert np.array_equal(state.values, want_state.values)
    assert (state.steps, state.swaps_accepted) == (want_state.steps, want_state.swaps_accepted)
    assert rng.random() == want_rng.random()


class TestWideSwapOracle:
    """Chains above the score-table cutoff take chunked ratios; the oracle, one per pair."""

    @pytest.mark.parametrize("n", [1025, 1100, 2000])
    @pytest.mark.parametrize("theta", [-20.0, 0.0, 3.0, 50.0])
    @pytest.mark.parametrize("f", SCORES, ids=[f.name for f in SCORES])
    def test_same_chain(self, f, theta, n):
        assert n > SCORE_TABLE_MAX_N
        model = LinearModel(f, theta, n)
        _assert_same(model, n, 3, 700, 600)

    def test_score_arrays_left_alone(self):
        """f's arrays may be read-only or shared: the chain only reads them."""
        returned = []

        def read_only_xy(x, y):
            out = x * y
            out.flags.writeable = False
            returned.append((out, out.copy()))
            return out

        model = LinearModel(ScoreFunction("read-only-xy", read_only_xy), 3.0, 1025)
        _assert_same(model, 43, 3, 700, 600)
        assert all(np.array_equal(out, copy) for out, copy in returned)
        constant = ScoreFunction("constant", lambda x, y: np.broadcast_to(0.5, np.broadcast(x, y).shape))
        _assert_same(LinearModel(constant, 3.0, 1025), 44, 3, 700, 600)


# the per-pair table path, a Kendall chain and the chunked path
BOOKKEEPING_MODELS = [LinearModel(get_score("xy"), 2.0, 5), KendallModel(-1.0, 7),
                      LinearModel(get_score("sq"), 0.0, 1030)]


class TestRecordBookkeeping:
    @pytest.mark.parametrize("n_samples, burn, thin", [
        (3, _BLOCK - 100, 100),      # the first record ends a block
        (2, _BLOCK - 1, 1),          # a record on the block's last step, then one on the next
        (40, 0, 1),                  # a record after every step
        (4, 0, 9),
        (0, 500, 3),                 # no draws; the steps still run and count
        (1, 2 * _BLOCK, 5),          # the burn-in spans two whole blocks
    ], ids=["block-end", "block-edge", "thin-1", "burn-0", "no-samples", "two-blocks"])
    @pytest.mark.parametrize("model", BOOKKEEPING_MODELS, ids=["table", "kendall", "chunked"])
    def test_matches_oracle(self, model, n_samples, burn, thin):
        assert _BLOCK == _ORACLE_BLOCK
        _assert_same(model, 40, n_samples, burn, thin)

    @pytest.mark.parametrize("model", BOOKKEEPING_MODELS, ids=["table", "kendall", "chunked"])
    def test_single_steps_match_oracle(self, model):
        (state, rng), (want_state, want_rng) = _chains(model, 41)
        for _ in range(300):
            gibbs_swap_step(state, model, rng)
            _oracle_run_swap(want_state, model, want_rng, 0, 1, 1)
            assert np.array_equal(state.values, want_state.values)
        assert (state.steps, state.swaps_accepted) == (want_state.steps,
                                                       want_state.swaps_accepted)
        assert rng.random() == want_rng.random()

    def test_sample_matches_oracle(self):
        model = LinearModel(get_score("footrule"), 20.0, 1200)
        rng = make_rng(42)
        want = _oracle_run_swap(ChainState.uniform_start(model.n, rng), model, rng, 3, 900, 800)
        draws = sample(model, 3, 900, 800, "swap", seed=42)
        assert [d.as_tuple() for d in draws] == [d.as_tuple() for d in want]


class TestAuxiliaryOracle:
    @pytest.mark.parametrize("theta", [0.5, 3.0, 20.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 4, 50, 500, 3000])
    def test_same_sweeps(self, n, theta):
        model = LinearModel(get_score("xy"), theta, n)
        (state, rng), (want_state, want_rng) = _chains(model, n)
        for _ in range(6):
            auxiliary_gibbs_sweep(state, model, rng)
            _oracle_sweep(want_state, model, want_rng)
            assert np.array_equal(state.values, want_state.values)
        assert state.sweeps == want_state.sweeps
        assert rng.random() == want_rng.random()
