"""MCMC samplers for the permutation models.

Two kernels are provided:

* a pair-swap Gibbs step: pick an unordered pair of positions uniformly
  and resample the two entries from their conditional distribution given
  the rest (keep or swap).  The model pmf is stationary and reversible
  for this kernel, for both model families.
* an auxiliary-variable sweep for the Spearman (f = xy) family with
  theta > 0: draw one uniform slice variable per position, which turns
  the conditional law of the permutation into the uniform distribution
  over assignments satisfying per-position floors; that law is sampled
  exactly by a sequential uniform assignment.  A handful of sweeps mixes
  even for n in the thousands.

All randomness flows through an explicit counter-based generator
(numpy Philox); a seed fully determines the output, and independent
seeds give independent chains.
"""
from __future__ import annotations

import math
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


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the sole entry point for chain randomness."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(eq=False)
class ChainState:
    """Mutable state of one chain.

    ``values`` is the current permutation as a 1-based image array; it
    stays a bijection after every transition.
    """

    values: np.ndarray
    steps: int = 0
    sweeps: int = 0
    swaps_accepted: int = 0

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def uniform_start(cls, n: int, rng: np.random.Generator) -> "ChainState":
        return cls(rng.permutation(n).astype(np.int64) + 1)

    def permutation(self) -> Permutation:
        return Permutation(self.values.copy())


def _accept_probability(log_ratio: float) -> float:
    # conditional probability of the swapped configuration among the two
    if log_ratio >= 0:
        return 1.0 / (1.0 + math.exp(-log_ratio))
    e = math.exp(log_ratio)
    return e / (1.0 + e)


def gibbs_swap_step(state: ChainState, model: Model, rng: np.random.Generator) -> ChainState:
    """One conditional pair-swap; mutates and returns ``state``.

    The pair (I, J) is uniform over all n-choose-2 position pairs; the
    swapped configuration is adopted with its conditional probability
    sigma(log Q(swapped) - log Q(current)), so at theta = 0 the swap
    happens with probability exactly 1/2.
    """
    n = state.n
    i = int(rng.integers(n))
    j = int(rng.integers(n - 1))
    if j >= i:
        j += 1
    log_ratio = model.swap_log_ratio(state.values, i, j)
    if rng.random() < _accept_probability(log_ratio):
        state.values[i], state.values[j] = state.values[j], state.values[i]
        state.swaps_accepted += 1
    state.steps += 1
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
    order = np.argsort(entry, kind="stable")
    entry_sorted = entry[order]
    picks = rng.random(n)
    new_values = np.empty(n, dtype=np.int64)
    pool = np.empty(n, dtype=np.int64)
    pool_size = 0
    ptr = 0
    for l in range(1, n + 1):
        while ptr < n and entry_sorted[ptr] <= l:
            pool[pool_size] = order[ptr]
            pool_size += 1
            ptr += 1
        if pool_size == 0:
            raise RuntimeError("feasible pool emptied; sweep invariant broken")
        r = int(picks[l - 1] * pool_size)
        idx = pool[r]
        pool[r] = pool[pool_size - 1]
        pool_size -= 1
        new_values[idx] = l
    state.values[:] = new_values
    state.sweeps += 1
    return state


def _resolve_sampler(sampler: str, model: Model) -> str:
    if sampler == "auto":
        return "auxiliary" if supports_auxiliary(model) else "swap"
    if sampler == "auxiliary" and not supports_auxiliary(model):
        raise ValueError(
            "auxiliary sampler requires the Linear xy model with theta > 0; "
            "use sampler='swap' (or 'auto' to fall back)"
        )
    if sampler not in ("swap", "auxiliary"):
        raise ValueError(f"unknown sampler {sampler!r}")
    return sampler


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
    kind = _resolve_sampler(sampler, model)
    rng = make_rng(seed)
    state = ChainState.uniform_start(model.n, rng)
    if kind == "swap":
        burn = 10 * model.n * model.n if burn is None else burn
        thin = max(1, model.n * model.n) if thin is None else max(1, thin)
        return _run_swap(state, model, rng, n_samples, burn, thin)
    burn = 10 if burn is None else burn
    thin = 1 if thin is None else max(1, thin)
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
    """Tight swap-chain loop with block-generated randomness."""
    n = model.n
    values = state.values
    theta = getattr(model, "theta", 0.0)
    is_linear = isinstance(model, LinearModel)
    fmat = None
    if is_linear and n <= 1024:
        t = np.arange(1, n + 1) / n
        x, y = np.meshgrid(t, t, indexing="ij")
        fmat = np.asarray(model.f(x, y), dtype=np.float64)

    total = burn + n_samples * thin
    draws: list[Permutation] = []
    next_record = burn + thin if n_samples > 0 else total + 1
    done = 0
    block = 1 << 15
    while done < total:
        m = min(block, total - done)
        ii = rng.integers(0, n, size=m)
        jj = rng.integers(0, n - 1, size=m)
        uu = rng.random(m)
        for t_ in range(m):
            i = int(ii[t_])
            j = int(jj[t_])
            if j >= i:
                j += 1
            if fmat is not None:
                vi = values[i] - 1
                vj = values[j] - 1
                y_ = fmat[i, vi] + fmat[j, vj] - fmat[i, vj] - fmat[j, vi]
                log_ratio = -theta * y_
            else:
                log_ratio = model.swap_log_ratio(values, i, j)
            if uu[t_] < _accept_probability(log_ratio):
                values[i], values[j] = values[j], values[i]
                state.swaps_accepted += 1
            done += 1
            if done == next_record:
                draws.append(Permutation(values.copy()))
                next_record = done + thin if len(draws) < n_samples else total + 1
    state.steps += total
    return draws
