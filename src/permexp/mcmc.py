"""MCMC samplers for the permutation models.

Two kernels are provided:

* a pair-swap Gibbs step: pick an unordered pair of positions uniformly
  and resample the two entries from their conditional distribution given
  the rest (keep or swap).  The model pmf is stationary and reversible
  for this kernel, for both model families.  One loop, ``_run_swap``,
  runs every swap step, ``gibbs_swap_step`` and ``sample`` alike.  It
  asks the model for a ratio evaluator over the chain's state:
  ``log_ratio(i, j)`` and a ``swap(i, j)`` that also updates any
  per-chain cache.  Linear models up to SCORE_TABLE_MAX_N read a score
  table; a Kendall chain at n <= INVERSION_TABLE_MAX_N reads an
  inversion prefix-count table in O(1) and updates it on each accepted
  swap, and at larger n counts the entries between the pair.  A linear
  chain above SCORE_TABLE_MAX_N keeps f(x_i, u_pi(i)) per position and
  takes the ratios of a chunk of proposals from one vectorised call of
  f (``models._chunk_ratios``); a pair that a swap earlier in its chunk
  moved asks ``log_ratio``, which calls f on its four points.  On S_1
  there is no pair, and a step keeps the one permutation.
* an auxiliary-variable sweep for the Spearman (f = xy) family with
  theta > 0: draw one uniform slice variable per position, which turns
  the conditional law of the permutation into the uniform distribution
  over assignments satisfying per-position floors; that law is sampled
  exactly by a sequential uniform assignment, whose picks are computed
  for the whole sweep up front.

Both loops draw their randomness as numpy arrays, do in numpy what does
not depend on the steps before (the second index of each pair, the
logits, the sweep's floors and pool sizes), and then step through the
rest as plain Python ints and floats, read and written through
memoryviews or lists: a numpy scalar costs far more per operation than
the model arithmetic of one step.  Recorded draws are read-only copies of
the state, which ``ChainState`` checks once when it is made, so they skip
``Permutation``'s checks.

The default burn-ins of ``sample`` are fixed step and sweep counts; no
check shows that a chain has reached equilibrium after them, and 10
auxiliary sweeps are far too few at n = 1000.

All randomness flows through an explicit counter-based generator
(numpy Philox); a seed fully determines the output, and independent
seeds give independent chains.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .models import ChunkRatios, LinearModel, Model, _chunk_ratios
from .perm import Permutation

__all__ = [
    "ChainState",
    "make_rng",
    "gibbs_swap_step",
    "auxiliary_gibbs_sweep",
    "supports_auxiliary",
    "sample",
]


# Swap steps per block of randomness; the block size fixes the RNG stream.
_BLOCK = 1 << 15

# Swap proposals per chunk of a chain whose model gives chunked ratios
# (models._chunk_ratios).  A chunk's ratios cost one set of numpy calls,
# about 8 us, and each pair that an accepted swap moved earlier in the chunk
# costs a per-pair ratio, about 4 us, so the best size grows with n and
# falls with the acceptance rate.  Measured in steps/s on xy chains (2
# cores, numpy 2.4.6), 64 to 128 tie within noise at n = 1025 and theta = 0,
# where most pairs go stale, and 128 is fastest at n = 2000-3000; all run
# 3-6x the per-pair loop.
_CHUNK = 128


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

    def permutation(self) -> Permutation:
        """A read-only copy of the state; the bijection is not re-checked."""
        return Permutation._trusted(self.values)


def gibbs_swap_step(state: ChainState, model: Model, rng: np.random.Generator) -> ChainState:
    """One conditional pair-swap; mutates and returns ``state``.

    The pair (I, J) is uniform over all n-choose-2 position pairs; the
    swapped configuration is adopted with its conditional probability
    sigma(log Q(swapped) - log Q(current)), so at theta = 0 the swap
    happens with probability exactly 1/2.
    """
    _run_swap(state, model, rng, 0, 1, 1)
    return state


def supports_auxiliary(model: Model) -> bool:
    return isinstance(model, LinearModel) and model.f.name == "xy" and model.theta > 0


def auxiliary_gibbs_sweep(state: ChainState, model: Model,
                          rng: np.random.Generator) -> ChainState:
    """One auxiliary-variable sweep for the Spearman family (theta > 0).

    Per position j, the slice variable U_j is uniform on
    [0, e^{(theta/n^2) j pi(j)}]; conditionally on U the permutation is
    uniform over assignments with pi(j) >= b_j where
    b_j = max((n^2/(theta j)) log U_j, 1).  Writing U_j = V_j times its
    upper bound with V_j uniform keeps everything in log space:
    b_j = max(pi(j) + (n^2/(theta j)) log V_j, 1) <= pi(j), so the
    sequential assignment of targets 1..n over the feasible index pools
    can never run dry; an empty pool signals a bug and raises.

    The exponent (theta/n^2) j pi(j) is theta f(j/n, pi(j)/n) for f = xy
    on the right-endpoint lattice of ``grids.lattice``; a change of that
    lattice has to change this closed form with it.
    """
    if not supports_auxiliary(model):
        raise ValueError("auxiliary sweep requires the Linear xy model with theta > 0")
    n = state.n
    theta = model.theta
    j_arr, targets, offsets = _sweep_constants(n)
    u = rng.random(2 * n)  # the slice variables, then the picks: one stream
    with np.errstate(divide="ignore"):
        b = state.values + (n * n / theta) * np.log(u[:n]) / j_arr
    np.maximum(b, 1.0, out=b)
    # first l with b_j <= l, in the smallest integer type that holds n: numpy
    # sorts 8- and 16-bit keys stably by radix, 12x faster at n = 10^4
    entry = np.ceil(b, out=b).astype(targets.dtype)
    # ndarray methods skip the dispatch of their np.* wrappers, which costs
    # more than the work itself at small n
    order = entry.argsort(kind="stable")
    # positions order[:stops[l - 1]] are feasible for target l and all later
    # ones, and l - 1 of them are taken, so the pool holds stops[l - 1] - (l - 1)
    stops = entry[order].searchsorted(targets, side="right")
    picks = (u[n:] * (stops - offsets)).astype(np.int64)
    arrivals = order.tolist()
    out = [0] * n
    pool: list[int] = []
    start = 0
    try:
        for l, stop, r in zip(range(1, n + 1), stops.tolist(), picks.tolist()):
            if stop > start:
                pool += arrivals[start:stop]
                start = stop
            out[pool[r]] = l
            pool[r] = pool[-1]
            del pool[-1]
    except IndexError:  # pool[0] of an empty pool
        raise RuntimeError("feasible pool emptied; sweep invariant broken") from None
    state.values[:] = out
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


def sample(model: Model, n_samples: int, burn: int | None = None,
           thin: int | None = None, sampler: str = "swap",
           seed: int = 0) -> list[Permutation]:
    """Draw permutations from the model by MCMC.

    ``burn``/``thin`` count pair-swap steps for the swap sampler and
    full sweeps for the auxiliary sampler; defaults are 10*n^2 swap
    steps (or 10 sweeps) of burn-in and n^2-step (or 1-sweep) thinning.
    Deterministic given ``seed``; distinct seeds give independent
    chains.
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
    state = ChainState.uniform_start(model.n, rng)
    if sampler == "swap":
        burn = 10 * model.n * model.n if burn is None else burn
        thin = max(1, model.n * model.n) if thin is None else thin
        return _run_swap(state, model, rng, n_samples, burn, thin)
    burn = 10 if burn is None else burn
    thin = 1 if thin is None else thin
    draws = []
    for _ in range(burn):
        auxiliary_gibbs_sweep(state, model, rng)
    for _ in range(n_samples):
        for _ in range(thin):
            auxiliary_gibbs_sweep(state, model, rng)
        draws.append(state.permutation())
    return draws


def _run_swap(state: ChainState, model: Model, rng: np.random.Generator,
              n_samples: int, burn: int, thin: int) -> list[Permutation]:
    """Run burn + n_samples * thin swap steps on ``state``; return the draws.

    The draws are the states after steps burn + thin, burn + 2 thin, ...
    Randomness comes in blocks of (I, J, U) arrays.  A swap is accepted
    when logit(U) < log ratio, which is U < sigma(log ratio).  Each block
    is run as segments that end at the recorded steps, so the loops over
    steps keep no record bookkeeping.
    """
    n = model.n
    values = state.values
    total = burn + n_samples * thin
    if n < 2:
        # S_1 has no pair to swap: every step keeps its one permutation
        state.steps += total
        return [state.permutation() for _ in range(n_samples)]
    log_ratio, swap = model.swap_evaluator(values)
    chunked = _chunk_ratios(model, values)
    draws: list[Permutation] = []
    accepted = 0
    record = burn + thin if n_samples > 0 else total + 1
    done = 0
    while done < total:
        m = min(_BLOCK, total - done)
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n - 1, size=m)
        uu = rng.random(m)
        jj += jj >= ii  # J uniform over the positions other than I
        with np.errstate(divide="ignore"):
            logits = np.log(uu) - np.log1p(-uu)
        if chunked is None:
            # memoryviews yield Python ints and floats one at a time: no
            # numpy scalars in the loop and no block-sized lists in memory
            steps = zip(memoryview(ii), memoryview(jj), memoryview(logits))
        else:
            pairs = np.stack((ii, jj))
            ii, jj = pairs  # views of its rows: the drawn arrays are freed
        lo = 0
        while lo < m:
            hi = min(m, record - done)
            if chunked is None:
                for i, j, logit in islice(steps, hi - lo):
                    if logit < log_ratio(i, j):
                        swap(i, j)
                        accepted += 1
            else:
                accepted += _chunked_steps(chunked, log_ratio, swap, pairs[:, lo:hi],
                                           logits[lo:hi])
            lo = hi
            if done + hi == record:
                draws.append(state.permutation())
                record += thin if len(draws) < n_samples else total + 1
        done += m
        # drop the iterators over this block, so that drawing the next block
        # frees its arrays
        steps = pairs = None
    state.steps += total
    state.swaps_accepted += accepted
    return draws


def _chunked_steps(chunked: ChunkRatios, log_ratio, swap, pairs: np.ndarray,
                   logits: np.ndarray) -> int:
    """Run the proposals (rows i and j of ``pairs``) in order, ``_CHUNK`` at a time.

    ``chunked`` is ``(ratios, refresh)`` from ``models._chunk_ratios``:
    ``ratios`` gives a chunk's log-ratios against the state at the chunk's
    start, and ``refresh`` is told the positions each chunk moved.  A pair
    with a position that an accepted swap moved earlier in the chunk asks
    ``log_ratio``.  Returns the swaps accepted.
    """
    ratios, refresh = chunked
    accepted = 0
    for lo in range(0, logits.size, _CHUNK):
        chunk = pairs[:, lo:lo + _CHUNK]
        ratio_of = memoryview(ratios(chunk))
        touched: set[int] = set()
        for i, j, logit, ratio in zip(memoryview(chunk[0]), memoryview(chunk[1]),
                                      memoryview(logits[lo:lo + _CHUNK]), ratio_of):
            if i in touched or j in touched:
                ratio = log_ratio(i, j)
            if logit < ratio:
                swap(i, j)
                accepted += 1
                touched.add(i)
                touched.add(j)
        if touched:
            refresh(list(touched))
    return accepted
