"""The samplers against plain per-step references, kept here as oracles.

``_oracle_run_swap`` is a plain per-pair reference of the swap chain's
schedule: blocks of uniform random matchings from ``rng.permuted`` rows,
then their uniforms, with each pair's log ratio read from the score table
``score_grid(f, n)``, item by item, where the chain reads the same grid as
rows of Python floats or calls f on a whole matching's arrays.  It returns
its draws as a list of rows.  The swap chains must give the same draws,
the same counts and leave the generator at the same position.

``_oracle_sweep`` is the auxiliary sweep before its picks were computed up
front and before its assignment became one in-place Fisher-Yates pass.
The two map uniforms to draws differently, so they are compared by their
exact transition matrices on S_3 and S_4, and by the number of uniforms a
sweep uses.
"""
import functools
import itertools
import math

import numpy as np
import pytest

from permexp.grids import ScoreFunction, get_score, score_grid
from permexp.mcmc import (
    _BLOCK,
    ChainState,
    _run_swap,
    auxiliary_gibbs_sweep,
    make_rng,
    sample,
)
from permexp.models import LinearModel

from conftest import enumerate_pmf

# the oracle's block size fixes its RNG stream
_ORACLE_BLOCK = 1 << 15


@functools.lru_cache(maxsize=1)
def _score_table(f, n):
    """The score table of the last model, kept for its runs of one step each."""
    return score_grid(f, n)


def _oracle_run_swap(state, model, rng, n_samples, burn, thin):
    n = model.n
    values = state.values
    total = burn + n_samples * thin
    if n < 2:
        # S_1 has no pair to swap: every step keeps its one permutation
        state.steps += total
        return [values.tolist() for _ in range(n_samples)]
    # Python floats from the table's items, summed in the chain's order;
    # a nested list of the table would hold 4e6 floats at n = 2000
    score = _score_table(model.f, n).item
    theta = model.theta
    h = n // 2
    draws: list[list[int]] = []
    next_record = burn + thin if n_samples > 0 else total + 1
    done = 0
    while done < total:
        # whole matchings of h pairs, then one uniform per step
        m = min(max(1, _ORACLE_BLOCK // h) * h, total - done)
        rows = rng.permuted(np.broadcast_to(np.arange(n), (-(-m // h), n)), axis=1).tolist()
        uu = rng.random(m)
        with np.errstate(divide="ignore"):
            logits = np.log(uu) - np.log1p(-uu)
        for step, logit in enumerate(logits.tolist()):
            # pair k of a row is (row[2k], row[2k + 1])
            row, k = rows[step // h], step % h
            i, j = row[2 * k], row[2 * k + 1]
            a = int(values[i]) - 1
            b = int(values[j]) - 1
            if logit < -theta * (score(i, a) + score(j, b) - score(i, b) - score(j, a)):
                values[i], values[j] = b + 1, a + 1
                state.swaps_accepted += 1
            done += 1
            if done == next_record:
                draws.append(values.tolist())
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
    assert draws.tolist() == want
    assert np.array_equal(state.values, want_state.values)
    assert (state.steps, state.swaps_accepted) == (want_state.steps, want_state.swaps_accepted)
    assert rng.random() == want_rng.random()


class TestWideSwapOracle:
    """Wide chains heat-bath each matching by array operations; the oracle reads the score table."""

    @pytest.mark.parametrize("n", [1025, 1100, 2000])
    @pytest.mark.parametrize("theta", [-20.0, 0.0, 3.0, 50.0])
    @pytest.mark.parametrize("f", SCORES, ids=[f.name for f in SCORES])
    def test_same_chain(self, f, theta, n):
        model = LinearModel(f, theta, n)
        _assert_same(model, n, 3, 700, 600)

    def test_score_arrays_left_alone(self):
        """A score that returns read-only 0-d arrays runs as a float one."""
        constant = ScoreFunction("constant", lambda x, y: np.broadcast_to(0.5, np.broadcast(x, y).shape))
        _assert_same(LinearModel(constant, 3.0, 1025), 44, 3, 700, 600)


# a chain run by the per-pair loop and one whose matchings are heat-bathed
# by array operations, each with blocks of exactly _BLOCK steps (h = 2 and
# h = 512); the ids "table" and "chunked" keep the names of two ratio
# paths that once split the chains at n = 1024
BOOKKEEPING_MODELS = [LinearModel(get_score("xy"), 2.0, 5),
                      LinearModel(get_score("sq"), 0.0, 1025)]


class TestRecordBookkeeping:
    @pytest.mark.parametrize("n_samples, burn, thin", [
        (3, _BLOCK - 100, 100),      # the first record ends a block
        (2, _BLOCK - 1, 1),          # a record on the block's last step, then one on the next
        (40, 0, 1),                  # a record after every step
        (4, 0, 9),
        (0, 500, 3),                 # no draws; the steps still run and count
        (1, 2 * _BLOCK, 5),          # the burn-in spans two whole blocks
    ], ids=["block-end", "block-edge", "thin-1", "burn-0", "no-samples", "two-blocks"])
    @pytest.mark.parametrize("model", BOOKKEEPING_MODELS, ids=["table", "chunked"])
    def test_matches_oracle(self, model, n_samples, burn, thin):
        assert _BLOCK == _ORACLE_BLOCK
        assert _BLOCK % (model.n // 2) == 0
        _assert_same(model, 40, n_samples, burn, thin)

    @pytest.mark.parametrize("model", BOOKKEEPING_MODELS, ids=["table", "chunked"])
    def test_single_steps_match_oracle(self, model):
        (state, rng), (want_state, want_rng) = _chains(model, 41)
        for _ in range(300):
            _run_swap(state, model, rng, 0, 1, 1)
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
        assert draws.tolist() == want


class _Stream:
    """A generator stub whose ``random(size)`` returns the next size chosen uniforms."""

    def __init__(self, u):
        self.u = u
        self.used = 0

    def random(self, size):
        out = np.array(self.u[self.used:self.used + size], dtype=np.float64)
        assert out.size == size
        self.used += size
        return out


def _entry_cases(values, theta):
    """Each entry vector of a sweep from ``values``, its probability and its V.

    Position j is feasible for target l >= entry_j, and with rate
    r = theta j / n^2, P(entry_j <= e) = e^{r (e - pi(j))} for e < pi(j):
    V_j in (e^{r (e - 1 - pi(j))}, e^{r (e - pi(j))}] gives entry e (the
    lower end is 0 at e = 1, the upper 1 at e = pi(j)).  The V returned is
    the middle of that interval.
    """
    n = len(values)
    per_position = []
    for j, v in enumerate(values, start=1):
        r = theta * j / (n * n)
        edges = [0.0] + [math.exp(r * (e - v)) for e in range(1, v)] + [1.0]
        per_position.append([(e, edges[e] - edges[e - 1], (edges[e - 1] + edges[e]) / 2)
                             for e in range(1, v + 1)])
    for case in itertools.product(*per_position):
        entries, probs, mids = zip(*case)
        yield entries, math.prod(probs), list(mids)


def _pool_sizes(entries):
    """c_l = #{j : entry_j <= l} - (l - 1), the pool a target l picks from."""
    return [sum(e <= l for e in entries) - (l - 1) for l in range(1, len(entries) + 1)]


def _feasible(entries):
    n = len(entries)
    return {p for p in itertools.permutations(range(1, n + 1))
            if all(v >= e for v, e in zip(p, entries))}


def _exact_aux_kernel(sweep, model, slice_uniform):
    """The sweep's n! x n! transition matrix, from every entry and pick vector.

    ``slice_uniform(v)`` is the uniform that ``sweep`` reads as V = v.  Each
    pick is (r + 1/2)/c_l, so it selects r from a pool of c_l.  For every
    entry vector the pick vectors must map one to one onto the feasible
    assignments, and each sweep must read exactly 2n uniforms.
    """
    perms, probs = enumerate_pmf(model)
    states = [tuple(p) for p in perms.tolist()]
    index = {s: i for i, s in enumerate(states)}
    n = model.n
    kmat = np.zeros((len(states), len(states)))
    for a, s in enumerate(states):
        for entries, p_entries, mids in _entry_cases(s, model.theta):
            sizes = _pool_sizes(entries)
            slices = [slice_uniform(v) for v in mids]
            images = []
            for picks in itertools.product(*[range(c) for c in sizes]):
                rng = _Stream(slices + [(r + 0.5) / c for r, c in zip(picks, sizes)])
                state = ChainState(np.array(s))
                sweep(state, model, rng)
                assert rng.used == 2 * n and state.sweeps == 1
                images.append(tuple(state.values.tolist()))
            assert len(set(images)) == len(images)
            assert set(images) == _feasible(entries)
            for t in images:
                kmat[a, index[t]] += p_entries / len(images)
    return probs, kmat


class TestAuxiliaryOracle:
    @pytest.mark.parametrize("theta", [0.5, 3.0, 20.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 4, 50, 500, 3000])
    def test_same_sweeps(self, n, theta):
        """Both sweeps read 2n uniforms and keep a bijection; their draws differ."""
        model = LinearModel(get_score("xy"), theta, n)
        (state, rng), (want_state, want_rng) = _chains(model, n)
        for _ in range(6):
            auxiliary_gibbs_sweep(state, model, rng)
            _oracle_sweep(want_state, model, want_rng)
            assert np.array_equal(np.sort(state.values), np.arange(1, n + 1))
        assert state.sweeps == want_state.sweeps == 6
        assert rng.random() == want_rng.random()

    @pytest.mark.parametrize("theta", [0.5, 3.0, 40.0])
    @pytest.mark.parametrize("n", [3, 4])
    def test_exact_kernel(self, n, theta):
        """The sweep's exact matrix is stochastic, keeps the pmf, and equals the oracle's."""
        model = LinearModel(get_score("xy"), theta, n)
        # the sweep reads V = 1 - u, the oracle V = u
        probs, kmat = _exact_aux_kernel(auxiliary_gibbs_sweep, model, lambda v: 1.0 - v)
        assert np.abs(kmat.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(probs @ kmat - probs).max() <= 1e-15
        _, want = _exact_aux_kernel(_oracle_sweep, model, lambda v: v)
        assert np.abs(kmat - want).max() <= 1e-15
