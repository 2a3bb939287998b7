"""MCMC samplers for the permutation models.

Two kernels are provided:

* a pair-swap Gibbs step: pick an unordered pair of positions uniformly
  and resample the two entries from their conditional distribution given
  the rest (keep or swap).  The model pmf is stationary and reversible
  for this kernel, for both model families.  One loop, ``_run_swap``,
  runs every swap step, ``gibbs_swap_step`` and ``sample`` alike.  It
  asks the model for a ratio evaluator over the chain's state:
  ``log_ratio(i, j)`` and a ``swap(i, j)`` that also updates any
  per-chain cache.  Linear models read a score table or call f and keep
  no cache; a Kendall chain at n <= INVERSION_TABLE_MAX_N reads an
  inversion prefix-count table in O(1) and updates it on each accepted
  swap, and at larger n counts the entries between the pair.  On S_1
  there is no pair, and a step keeps the one permutation.
* an auxiliary-variable sweep for the Spearman (f = xy) family with
  theta > 0: draw one uniform slice variable per position, which turns
  the conditional law of the permutation into the uniform distribution
  over assignments satisfying per-position floors; that law is sampled
  exactly by a sequential uniform assignment.

Both loops draw their randomness as numpy arrays and then step through
them as plain Python ints and floats, read and written through
memoryviews: a numpy scalar costs far more per operation than the model
arithmetic of one step, and memoryviews copy nothing.  Recorded draws are
read-only copies of the state, which ``ChainState`` checks once when it is
made, so they skip ``Permutation``'s checks.

The default burn-ins of ``sample`` are fixed step and sweep counts; no
check shows that a chain has reached equilibrium after them, and 10
auxiliary sweeps are far too few at n = 1000.

All randomness flows through an explicit counter-based generator
(numpy Philox); a seed fully determines the output, and independent
seeds give independent chains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import LinearModel, Model
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
    """
    if not supports_auxiliary(model):
        raise ValueError("auxiliary sweep requires the Linear xy model with theta > 0")
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
    when logit(U) < log ratio, which is U < sigma(log ratio).
    """
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
        m = min(_BLOCK, total - done)
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
