import itertools
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from permexp.ipfp import DEFAULT_TOL, limit_matrix
from permexp.mcmc import ChainState, _run_swap
from permexp.models import (
    BRUTE_FORCE_LIMIT,
    LinearModel,
    _all_permutations,
    enumerate_statistics,
)
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


# ---------------------------------------------------------------- oracles


def grid_mean(w: np.ndarray, score: np.ndarray) -> float:
    """<F, w>: the mean of the score grid F = score_grid(f, k) under the cells w.

    One pass over both arrays, with no k x k product array.
    """
    return float(np.einsum("ij,ij->", score, w))


def kernel_run(b0: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int = 10_000):
    """The IPFP run on the positive kernel b0 itself: log b0 as the score grid, theta = 1."""
    return limit_matrix(None, 1.0, b0.shape[0], tol=tol, max_iter=max_iter,
                        score_grid=np.log(b0))


def recover_potentials(result) -> tuple[np.ndarray, np.ndarray]:
    """Potentials (a_hat, b_hat) of the factorized density from a run's log scales.

    At convergence the grid satisfies A = exp(shifted kernel + alpha_r
    + beta_s) with margins 1/k; adding log k to each side and splitting
    the free constant symmetrically gives grid samples a_hat, b_hat
    with sum(a_hat) == sum(b_hat), and -(mean a_hat + mean b_hat) is the
    variational value of the run.
    """
    if not result.converged:
        raise ValueError("potentials require a converged IPFP result")
    alpha = result.row_log_scales
    beta = result.col_log_scales
    k = alpha.size
    logk = np.log(k)
    c = (beta.sum() - alpha.sum()) / (2.0 * k)
    return alpha + logk + c, beta + logk - c


def log_weights(model) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of S_n, in enumeration order, with their log weights (n <= 9).

    A linear model's are theta times the statistics of ``enumerate_statistics``;
    a Kendall model's are theta / n times the inversion counts.
    """
    n = model.n
    if isinstance(model, LinearModel):
        perms, stats = enumerate_statistics(model.f, n)
        return perms, model.theta * stats
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {BRUTE_FORCE_LIMIT}")
    perms = _all_permutations(n)
    inv = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(n - 1):
        for j in range(i + 1, n):
            inv += perms[:, i] > perms[:, j]
    return perms, (model.theta / n) * inv


def _logsumexp(a: np.ndarray) -> float:
    """log sum e^a: the largest entry plus log1p of the rest's sum relative to it.

    Shifting by the largest entry keeps exp from overflowing; log1p keeps
    a rest far below it from vanishing in 1 + rest.
    """
    top = int(np.argmax(a))
    rest = np.exp(a - a[top])
    rest[top] = 0.0
    return float(a[top] + np.log1p(rest.sum()))


def brute_logZ(model) -> float:
    """log sum of weights over all of S_n by enumeration (n <= 9)."""
    return _logsumexp(log_weights(model)[1])


def enumerate_pmf(model) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of S_n with their exact probabilities (n <= 9)."""
    perms, lw = log_weights(model)
    return perms, np.exp(lw - _logsumexp(lw))


# ---------------------------------------------------------------- helpers


def save_permutation_csv(pi: Permutation, path_or_stream) -> None:
    """Write one permutation in the ``i,pi`` format that ``fit --data`` reads."""
    text = "i,pi\n" + "".join(f"{i},{v}\n" for i, v in enumerate(pi.values.tolist(), start=1))
    if hasattr(path_or_stream, "write"):
        path_or_stream.write(text)
    else:
        Path(path_or_stream).write_text(text)


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
    """A generator stub that feeds a swap chain chosen matchings and uniforms.

    A block of m swap steps shuffles ceil(m / h) rows of 0..n-1 in place
    with ``permuted(rows, axis=1, out=rows)`` (h = n // 2: the matchings,
    whose pairs are (row[2k], row[2k + 1])), then asks for ``random(m)``
    (the U), in that order; the stub writes ``rows`` and returns ``u``, and
    checks that every call asks for them.  Runs of one block only.
    """

    def __init__(self, n: int, rows, u):
        self.rows = [list(row) for row in rows]
        assert all(sorted(row) == list(range(n)) for row in self.rows)
        self.u = list(u)
        self.permuted_calls = 0

    def permuted(self, x, axis, out):
        assert self.permuted_calls == 0 and axis == 1 and out is x
        assert x.tolist() == [sorted(row) for row in self.rows]
        self.permuted_calls += 1
        out[...] = self.rows
        return out

    def random(self, size):
        assert self.permuted_calls == 1 and size == len(self.u)
        return np.array(self.u, dtype=np.float64)


def pair_row(n: int, i: int, j: int) -> list:
    """A shuffled row of 0..n-1 whose first pair is (i, j)."""
    return [i, j] + [k for k in range(n) if k not in (i, j)]


def swap_step(model, values, i: int, j: int, u: float) -> tuple:
    """The state after one step of the swap chain from ``values`` on the pair (i, j) with U = u."""
    state = ChainState(np.array(values, dtype=np.int64))
    _run_swap(state, model, SwapDraws(model.n, [pair_row(model.n, i, j)], [u]), 0, 1, 1)
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

    A step heat-baths the first pair of a uniformly shuffled row, which is a
    uniform ordered pair (i, j), i != j.  A stub generator feeds the step
    from every state s each such pair.  With t the state s with i and j
    swapped and Delta = log p(t) - log p(s) from ``enumerate_pmf``, the
    step must give t at U = sigma(Delta)(1 - 1e-9) and keep s at
    U = sigma(Delta)(1 + 1e-9) when that is below 1, so it swaps with
    probability sigma(Delta) to within 1e-9 relative.  Returns the states,
    their pmf and the matrix built from those probabilities.
    """
    perms, probs = enumerate_pmf(model)
    states = [tuple(p) for p in perms.tolist()]
    index = {s: a for a, s in enumerate(states)}
    logp = np.log(probs)
    n = model.n
    pairs = list(itertools.permutations(range(n), 2))
    kmat = np.zeros((len(states), len(states)))
    for a, s in enumerate(states):
        for i, j in pairs:
            t = list(s)
            t[i], t[j] = t[j], t[i]
            b = index[tuple(t)]
            acc = float(expit(logp[b] - logp[a]))
            below, above = swap_bracket(acc)
            assert swap_step(model, s, i, j, below) == states[b]
            if above is not None:
                assert swap_step(model, s, i, j, above) == s
            kmat[a, b] += acc / len(pairs)
            kmat[a, a] += (1.0 - acc) / len(pairs)
    return states, probs, kmat
