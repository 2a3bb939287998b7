import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from permexp.mcmc import ChainState, _run_swap
from permexp.models import enumerate_pmf
from permexp.perm import Permutation

REPO_ROOT = Path(__file__).resolve().parents[1]
LOTTERY_CSV = REPO_ROOT / "data" / "draft_lottery_1970.csv"


@pytest.fixture(scope="session")
def lottery_path() -> Path:
    assert LOTTERY_CSV.exists(), "bundled lottery dataset missing"
    return LOTTERY_CSV


@pytest.fixture(scope="session")
def lottery():
    from permexp.io import load_lottery_csv

    return load_lottery_csv(LOTTERY_CSV)


def random_permutation(rng: np.random.Generator, n: int) -> Permutation:
    return Permutation(rng.permutation(n) + 1)


def inversions_quadratic(pi: Permutation) -> int:
    """O(n^2) direct pair count, the oracle for the fast path."""
    v = pi.values
    return int(np.triu(v[:, None] > v[None, :], k=1).sum())


def all_perms(n: int):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def empirical_law(draw_tuples, states: list) -> np.ndarray:
    """Empirical distribution over an explicit state list."""
    index = {s: i for i, s in enumerate(states)}
    counts = np.zeros(len(states))
    for t in draw_tuples:
        counts[index[t]] += 1
    return counts / counts.sum()


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class SwapDraws:
    """A generator stub that feeds a swap chain chosen draws.

    A block of m swap steps asks for ``integers(0, n, m)`` (the I),
    ``integers(0, n - 1, m)`` (the J', which the chain maps to J) and
    ``random(m)`` (the U), in that order; the stub returns ``i``, ``j``
    and ``u`` and checks that every call asks for them.  Runs of one block
    only.
    """

    def __init__(self, n: int, i, j, u):
        self.integer_calls = [(n, list(i)), (n - 1, list(j))]
        self.u = list(u)

    def integers(self, low, high, size):
        want_high, values = self.integer_calls.pop(0)
        assert (low, high, size) == (0, want_high, len(values))
        return np.array(values, dtype=np.int64)

    def random(self, size):
        assert not self.integer_calls and size == len(self.u)
        return np.array(self.u, dtype=np.float64)


def swap_step(model, values, i: int, j: int, u: float) -> tuple:
    """The state after one step of the swap chain from ``values`` that draws I = i, J' = j, U = u."""
    state = ChainState(np.array(values, dtype=np.int64))
    _run_swap(state, model, SwapDraws(model.n, [i], [j], [u]), 0, 1, 1)
    assert state.steps == 1
    return tuple(state.values.tolist())


def swap_bracket(acc: float) -> tuple[float, float | None]:
    """Uniforms 1e-9 relative below and above ``acc``; None for the upper one unless it is below 1.

    A swap step that accepts with probability ``acc`` swaps at the first
    and keeps its state at the second.
    """
    above = acc * (1.0 + 1e-9)
    return acc * (1.0 - 1e-9), above if above < 1.0 else None


def exact_swap_kernel(model):
    """Transition matrix of the swap chain's step on S_n, read off the step itself.

    A stub generator feeds the step from every state s every draw (I, J')
    in {0..n-1} x {0..n-2}; these must reach each ordered pair (i, j),
    i != j, exactly once.  With t the state s with i and j swapped and
    Delta = log p(t) - log p(s) from ``enumerate_pmf``, the step must give
    t at U = sigma(Delta)(1 - 1e-9) and keep s at U = sigma(Delta)(1 + 1e-9)
    when that is below 1, so it swaps with probability sigma(Delta) to
    within 1e-9 relative.  Returns the states, their pmf and the matrix
    built from those probabilities.
    """
    perms, probs = enumerate_pmf(model)
    states = [tuple(p) for p in perms.tolist()]
    index = {s: a for a, s in enumerate(states)}
    logp = np.log(probs)
    n = model.n
    draws = list(itertools.product(range(n), range(n - 1)))
    kmat = np.zeros((len(states), len(states)))
    for a, s in enumerate(states):
        pairs = set()
        for i, jp in draws:
            j = jp + (jp >= i)
            t = list(s)
            t[i], t[j] = t[j], t[i]
            b = index[tuple(t)]
            acc = float(expit(logp[b] - logp[a]))
            below, above = swap_bracket(acc)
            # a swap of i with any position other than j gives another state
            assert swap_step(model, s, i, jp, below) == states[b]
            if above is not None:
                assert swap_step(model, s, i, jp, above) == s
            pairs.add((i, j))
            kmat[a, b] += acc / len(draws)
            kmat[a, a] += (1.0 - acc) / len(draws)
        assert len(pairs) == len(draws) == n * (n - 1)
    return states, probs, kmat
