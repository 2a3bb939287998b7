"""Samplers for the permutation models.

The Kendall model is drawn exactly: its insertion code has independent
truncated-geometric coordinates (see ``KendallModel``), so one draw is n
uniforms, one inverse CDF per coordinate and one decode, and distinct
draws are independent.  The linear models are sampled by MCMC, with two
kernels:

* a pair-swap Gibbs step on the pairs of uniform random perfect
  matchings: a matching splits the positions into floor(n/2) disjoint
  pairs, and the steps take its pairs in order, each resampling the two
  entries of its pair from their conditional distribution given the rest
  (keep or swap).  Each step is a heat-bath on its pair, so it is
  reversible for the model pmf.  Averaged over the uniform matching, one
  whole matching is a reversible kernel too: its pairs are disjoint and
  the linear weight is a sum over positions, so their heat-baths commute
  and the matching is one exact blocked Gibbs step.  A draw recorded
  inside a matching still comes from the model at equilibrium, because
  every step keeps the model stationary.  One function, ``_run_swap``, runs
  every swap step of ``sample``, and it alone holds the chain's log ratio.
  A matching of at least ``_MATCHING_MIN_PAIRS`` pairs is heat-bathed by
  array operations; a smaller one pair by pair on the score grid's rows.
  On S_1 there is no pair, and a step keeps the one permutation.
* an auxiliary-variable sweep for the Spearman (f = xy) family with
  theta > 0: draw one uniform slice variable per position, which turns
  the conditional law of the permutation into the uniform distribution
  over assignments satisfying per-position floors; that law is sampled
  exactly by one constrained Fisher-Yates pass, in place on the positions
  sorted by their floors.

Both draw their randomness as numpy arrays and do in numpy what does not
depend on the steps before (the matchings, the logits, the sweep's
floors, pool sizes and picks).  What is left is stepped through as plain
Python ints and floats, read and written through memoryviews or lists,
where a numpy call would cost more than the model arithmetic: the sweep's
picks, and the pairs of small matchings.  Each branch of ``sample``
writes its draws into the rows of one int64 array, copied from a chain
state that ``ChainState`` checks once when it is made.

The default burn-ins of the linear chains are fixed step and sweep
counts; no check shows that a chain has reached equilibrium after them,
and 10 auxiliary sweeps are far too few at n = 1000.

All randomness flows through an explicit counter-based generator
(numpy Philox); a seed fully determines the output, and independent
seeds give independent draws and chains.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grids import SCORE_FUNCTIONS, lattice, score_grid
from .models import KendallModel, LinearModel, Model
from .perm import Permutation

__all__ = [
    "ChainState",
    "make_rng",
    "auxiliary_gibbs_sweep",
    "supports_auxiliary",
    "sample",
]


# Swap steps per block of randomness, in whole matchings: a block holds
# max(1, _BLOCK // h) matchings of h = n // 2 pairs, drawn before the
# block's uniforms.  The block size and that order fix the RNG stream.
_BLOCK = 1 << 15

# Matchings of at least this many pairs are heat-bathed by array
# operations, smaller ones pair by pair in a Python loop over the score
# grid; both give the same draws, so this sets speed only.  Per-step ns,
# loop/arrays, at theta = 3 (2 cores, numpy 2.4.6, least of 5 runs of 2e5
# steps); from h = 88 the arrays win for every built-in score:
#   h   xy       centered  footrule  sq
#   72  258/244  267/237   232/235   231/257
#   80  254/203  262/218   222/218   236/242
#   88  251/193  247/212   218/212   235/215
_MATCHING_MIN_PAIRS = 88

# the signs of the four terms of a log ratio, s_i[a] + s_j[b] - s_i[b] - s_j[a]
_SIGNS = np.array([[1.0], [1.0], [-1.0], [-1.0]])
_SIGNS.setflags(write=False)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the sole entry point for chain randomness."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(eq=False)
class ChainState:
    """Mutable state of one chain.

    ``values`` is the current permutation as a 1-based int64 image array;
    it must be a bijection of {1..n} and stays one after every transition.
    """

    values: np.ndarray
    steps: int = 0
    sweeps: int = 0
    swaps_accepted: int = 0

    def __post_init__(self):
        # checked once per chain: the transitions and recorded draws rely on
        # it and do not check again; the swap loop writes values in place
        self.values = np.ascontiguousarray(self.values, dtype=np.int64)
        Permutation(self.values)  # raises unless values is a bijection

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def uniform_start(cls, n: int, rng: np.random.Generator) -> "ChainState":
        return cls(rng.permutation(n).astype(np.int64) + 1)


def supports_auxiliary(model: Model) -> bool:
    """Whether the auxiliary sweep draws ``model``: the built-in xy score at theta > 0.

    The sweep's floors are the closed form of that score, so a score is
    checked by its function, not by its name.
    """
    return (isinstance(model, LinearModel) and model.f.fn is SCORE_FUNCTIONS["xy"].fn
            and model.theta > 0)


def auxiliary_gibbs_sweep(state: ChainState, model: Model,
                          rng: np.random.Generator) -> ChainState:
    """One auxiliary-variable sweep for the Spearman family (theta > 0).

    Per position j, the slice variable U_j is uniform on
    [0, e^{(theta/n^2) j pi(j)}]; given U, the permutation is uniform over
    the assignments with pi(j) >= b_j = max(pi(j) + (n^2/(theta j)) log V_j, 1),
    where V_j = 1 - u_j (U_j over its bound) is uniform on (0, 1].

    That law is drawn by one constrained Fisher-Yates pass (Durstenfeld
    1964) in place on ``a``, the positions in order of ceil(b_j): target l
    swaps a[l - 1] with a uniform a[q], l - 1 <= q < stop_l, and takes
    a[l - 1].  As a[l - 1:stop_l] is then exactly the set of positions
    feasible for l that no earlier target took, the pick vectors map one to
    one onto the feasible assignments, from 2n uniforms.  No pool is empty,
    as b_j <= pi(j); an empty one means a bug and raises before any write.

    The exponent (theta/n^2) j pi(j) is theta f(j/n, pi(j)/n) for f = xy
    on the right-endpoint lattice of ``grids.lattice``; a change of that
    lattice has to change this closed form with it.
    """
    if not supports_auxiliary(model):
        raise ValueError("auxiliary sweep requires the Linear xy model with theta > 0")
    n = state.n
    _, targets, offsets = _sweep_constants(n)
    u = rng.random(2 * n)  # the slice variables, then the picks: one stream
    b = np.log1p(-u[:n])
    b *= _slice_scale(n, model.theta)
    b += state.values
    np.maximum(b, 1.0, out=b)
    # the smallest integer type that holds n: numpy sorts 8- and 16-bit keys
    # stably by radix, 12x faster at n = 10^4.  ndarray methods skip the
    # dispatch of their np.* wrappers, which costs more than the work at small n
    entry = np.ceil(b, out=b).astype(targets.dtype)
    order = entry.argsort(kind="stable")
    sizes = entry[order].searchsorted(targets, side="right")
    sizes -= offsets  # falls by at most 1 per target: none < 1 unless one is 0
    if np.count_nonzero(sizes) < n:
        raise RuntimeError("feasible pool emptied; sweep invariant broken")
    picks = (u[n:] * sizes).astype(np.int64) + offsets
    a = order.tolist()
    for l, q in enumerate(picks.tolist()):
        a[l], a[q] = a[q], a[l]
    state.values[a] = targets
    state.sweeps += 1
    return state


@functools.lru_cache(maxsize=8)
def _sweep_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only 1..n as floats and in the smallest integer type holding n, and 0..n-1."""
    consts = (np.arange(1, n + 1, dtype=np.float64),
              np.arange(1, n + 1, dtype=np.min_scalar_type(n)), np.arange(n))
    for a in consts:
        a.setflags(write=False)
    return consts


@functools.lru_cache(maxsize=8)
def _slice_scale(n: int, theta: float) -> np.ndarray:
    """Read-only n^2 / (theta j) for j = 1..n: one product per sweep, not two."""
    scale = (n * n / theta) / _sweep_constants(n)[0]
    scale.setflags(write=False)
    return scale


def sample(model: Model, n_samples: int, burn: int | None = None,
           thin: int | None = None, sampler: str = "swap",
           seed: int = 0) -> np.ndarray:
    """Draw permutations from the model, as the rows of one array.

    Returns a read-only, C-contiguous int64 array of shape (n_samples, n),
    one draw pi(1), ..., pi(n) a row, that shares no memory with a chain.

    A Kendall model is drawn exactly: the draws are i.i.d., and ``burn``,
    ``thin`` and ``sampler="swap"`` are validated but have no effect.  A
    linear model is sampled by MCMC: ``burn``/``thin`` count pair-swap
    steps for the swap sampler, each a heat-bath on one pair of a uniform
    random matching (taken in order, floor(n/2) pairs a matching), and
    full sweeps for the auxiliary sampler; defaults are 10*n^2 swap steps
    (or 10 sweeps) of burn-in and n^2-step (or 1-sweep) thinning.
    Deterministic given ``seed``; distinct seeds give independent draws.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if burn is not None and burn < 0:
        raise ValueError("burn must be >= 0")
    if thin is not None and thin < 1:
        raise ValueError("thin must be >= 1")
    if sampler not in ("swap", "auxiliary"):
        raise ValueError(f"unknown sampler {sampler!r}")
    if sampler == "auxiliary" and not supports_auxiliary(model):
        raise ValueError("auxiliary sampler requires the Linear xy model with theta > 0; "
                         "use sampler='swap'")
    rng = make_rng(seed)
    if isinstance(model, KendallModel):
        draws = np.empty((n_samples, model.n), dtype=np.int64)
        for row in draws:
            _kendall_draw(model, rng, row)
    elif sampler == "swap":
        state = ChainState.uniform_start(model.n, rng)
        burn = 10 * model.n * model.n if burn is None else burn
        thin = max(1, model.n * model.n) if thin is None else thin
        draws = _run_swap(state, model, rng, n_samples, burn, thin)
    else:
        state = ChainState.uniform_start(model.n, rng)
        for _ in range(10 if burn is None else burn):
            auxiliary_gibbs_sweep(state, model, rng)
        draws = np.empty((n_samples, model.n), dtype=np.int64)
        for row in draws:
            for _ in range(1 if thin is None else thin):
                auxiliary_gibbs_sweep(state, model, rng)
            row[:] = state.values
    draws.setflags(write=False)
    return draws


def _kendall_draw(model: KendallModel, rng: np.random.Generator, row: np.ndarray) -> None:
    """One exact draw of the Kendall model from ``rng.random(n)``, written into ``row``.

    With c = theta/n, the code coordinate V_j has P(V_j = v) proportional
    to e^{cv} on {0..j-1}: the floor of a variable with density
    proportional to e^{cx} on [0, j).  Its inverse CDF is evaluated for
    -|c|, where expm1(-|c| j) lies in (-1, 0] at every theta, so it gives
    V_j for theta <= 0 and W_j = j - 1 - V_j for theta > 0.  When |theta|
    is below half an ulp of 1, every weight e^{cv}, v < n, is 1 in double
    precision and V_j = floor(u j); dividing by a subnormal c would lose
    the law.  The decode runs right to left: pi(j) is the
    (V_j + 1)-th largest of the j values still free, the one at index
    j - 1 - V_j in ascending order.
    """
    n = model.n
    c = model.theta / n
    j = _sweep_constants(n)[0]
    x = rng.random(n)
    if 1.0 + abs(model.theta) == 1.0:
        x *= j
    else:
        # u * expm1 lies in (-1, 0], so x >= 0; rounding can reach j
        a = -abs(c)
        x *= np.expm1(a * j)
        np.log1p(x, out=x)
        x /= a
    np.floor(x, out=x)
    np.minimum(x, j - 1.0, out=x)
    # x becomes j - 1 - V_j, the index of pi(j) among the free values
    if c <= 0:
        np.subtract(j - 1.0, x, out=x)
    free = list(range(1, n + 1))
    row[::-1] = [free.pop(i) for i in reversed(x.astype(np.int64).tolist())]


def _run_swap(state: ChainState, model: LinearModel, rng: np.random.Generator,
              n_samples: int, burn: int, thin: int) -> np.ndarray:
    """Run burn + n_samples * thin swap steps on ``state``; return the draws.

    The draws are the rows of an int64 (n_samples, n) array: the states
    after steps burn + thin, burn + 2 thin, ...
    The pairs come from uniform random perfect matchings of the positions,
    used in order: with h = n // 2, one ``rng.permuted`` row gives the h
    disjoint pairs (row[2k], row[2k + 1]), and for odd n its last position
    sits that matching out.  A block of randomness is max(1, _BLOCK // h)
    rows, then one uniform U per step.  A swap is accepted when
    logit(U) < log ratio, which is U < sigma(log ratio).

    A matching of at least ``_MATCHING_MIN_PAIRS`` pairs is heat-bathed in
    one set of array operations: its pairs are disjoint, so every log ratio
    reads the state at the matching's start.  A smaller one runs pair by
    pair in a Python loop over the score grid's rows s_i.  Both sum every
    log ratio from f's floats on arrays in the same order, so they give the
    same chain.  Each block is run as segments that end at the recorded
    steps and, for the array execution, at the end of each matching, so the
    work over steps keeps no record bookkeeping.
    """
    n = model.n
    values = state.values
    total = burn + n_samples * thin
    if n < 2:
        # S_1 has no pair to swap: every step keeps its one permutation
        state.steps += total
        return np.ones((n_samples, n), dtype=np.int64)
    h = n // 2
    per_block = max(1, _BLOCK // h) * h
    vectorised = h >= _MATCHING_MIN_PAIRS
    draws = np.empty((n_samples, n), dtype=np.int64)
    span = h if vectorised else per_block
    positions = np.arange(n)[None, :]
    theta = model.theta
    if vectorised:
        fn = model.f.fn
        t = lattice(n)
        # the lattice at a 1-based value: point[v] = t[v - 1]
        point = np.concatenate(([0.0], t))
    else:
        # the score grid as rows of Python floats, with a zero column in
        # front so that a 1-based value indexes it: score[i][v] = f((i + 1)/n, v/n)
        score = np.concatenate((np.zeros((n, 1)), score_grid(model.f, n)), axis=1).tolist()
        cells = memoryview(values)
    recorded = 0
    accepted = 0
    record = burn + thin if n_samples > 0 else total + 1
    done = 0
    while done < total:
        m = min(per_block, total - done)
        rows = positions.repeat(-(-m // h), axis=0)
        rng.permuted(rows, axis=1, out=rows)
        uu = rng.random(m)
        with np.errstate(divide="ignore"):
            logits = np.log(uu) - np.log1p(-uu)
        pairs = rows[:, :2 * h].reshape(-1, h, 2)  # pairs[r, k] = row r's pair k
        if vectorised:
            # per matching, the positions p, q, q, p of its pairs as four
            # contiguous rows, and the lattice points of p, q, p, q: against
            # the values a, b, b, a at idx, one call of f gives the four
            # terms f(t_p, a), f(t_q, b), f(t_p, b), f(t_q, a) of every ratio
            idx = np.ascontiguousarray(pairs[:, :, [0, 1, 1, 0]].transpose(0, 2, 1))
            at = t[idx[:, [0, 1, 0, 1]]]
        else:
            # memoryviews yield Python ints and floats one at a time: no
            # numpy scalars in the loop and no block-sized lists in memory
            ends = iter(memoryview(pairs.reshape(-1)[:2 * m]))
            steps = zip(ends, ends, memoryview(logits))
        lo = 0
        while lo < m:
            hi = min(m, record - done, (lo // span + 1) * span)
            if vectorised:
                r, k = divmod(lo, h)  # matching r from its pair k
                sites = idx[r, :, k:k + hi - lo]
                v = values[sites]  # a, b, b, a
                # the terms with signs +, +, -, -, added row after row: the
                # floats of the loop's s_i[a] + s_j[b] - s_i[b] - s_j[a]
                terms = fn(at[r, :, k:k + hi - lo], point[v]) * _SIGNS
                swap = logits[lo:hi] < -theta * np.add.reduce(terms, axis=0)
                values[sites[:2]] = np.where(swap, v[1::-1], v[:2])
                accepted += int(np.count_nonzero(swap))
            else:
                for i, j, logit in islice(steps, hi - lo):
                    a = cells[i]
                    b = cells[j]
                    s_i = score[i]
                    s_j = score[j]
                    if logit < -theta * (s_i[a] + s_j[b] - s_i[b] - s_j[a]):
                        cells[i] = b
                        cells[j] = a
                        accepted += 1
            lo = hi
            if done + hi == record:
                draws[recorded] = values
                recorded += 1
                record += thin if recorded < n_samples else total + 1
        done += m
        # drop the iterator over this block, so that drawing the next block
        # frees its arrays
        steps = ends = None
    state.steps += total
    state.swaps_accepted += accepted
    return draws
