"""Discrete copula grids and score functions on the unit square.

A grid of order k is a k x k matrix of cell probabilities summing to 1;
it is "doubly stochastic at level k" when every row and column carries
mass 1/k.  Score functions are named, vectorized maps [0,1]^2 -> R.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .perm import Permutation, bin_counts

__all__ = [
    "ScoreFunction",
    "CopulaGrid",
    "SCORE_FUNCTIONS",
    "get_score",
    "uniform_grid",
    "kl_to_uniform",
    "grid_mean",
    "from_permutation",
    "grid_points",
]


@dataclass(frozen=True)
class ScoreFunction:
    """A named score f(x, y) on the unit square, evaluated on float arrays."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, x, y):
        return self.fn(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))


# module-level functions, not lambdas, so that a score (and a model that
# holds one) can be pickled
def _xy(x, y):
    return x * y


def _centered(x, y):
    return (x - 0.5) * (y - 0.5)


def _footrule(x, y):
    return -np.abs(x - y)


def _sq(x, y):
    return -((x - y) ** 2)


SCORE_FUNCTIONS = {
    "xy": ScoreFunction("xy", _xy),
    "centered": ScoreFunction("centered", _centered),
    "footrule": ScoreFunction("footrule", _footrule),
    "sq": ScoreFunction("sq", _sq),
}


def get_score(name: str) -> ScoreFunction:
    try:
        return SCORE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown score function {name!r}; built-ins: {sorted(SCORE_FUNCTIONS)}"
        ) from None


def grid_points(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid of the right-endpoint lattice (r/k, s/k), r,s = 1..k."""
    t = np.arange(1, k + 1) / k
    return np.meshgrid(t, t, indexing="ij")


@dataclass(frozen=True, eq=False)
class CopulaGrid:
    """k x k nonnegative cell probabilities summing to 1."""

    w: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.w, dtype=np.float64).copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("grid must be a square matrix")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("grid entries must be finite and nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"grid mass {total} != 1")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)

    @property
    def k(self) -> int:
        return self.w.shape[0]

    def row_sums(self) -> np.ndarray:
        return self.w.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.w.sum(axis=0)

    def marginal_residual(self) -> float:
        """Largest deviation of any row/column sum from 1/k."""
        t = 1.0 / self.k
        return float(max(np.abs(self.row_sums() - t).max(),
                         np.abs(self.col_sums() - t).max()))

    def is_doubly_stochastic(self, tol: float = 1e-10) -> bool:
        return self.marginal_residual() <= tol

    def step_density(self) -> np.ndarray:
        """Density values k^2 * w of the piecewise-constant measure."""
        return self.k * self.k * self.w


def uniform_grid(k: int) -> CopulaGrid:
    """The uniform grid with every cell at 1/k^2."""
    if k < 1:
        raise ValueError("grid order must be >= 1")
    return CopulaGrid(np.full((k, k), 1.0 / (k * k)))


def kl_to_uniform(grid: CopulaGrid) -> float:
    """KL divergence of the grid from the uniform grid.

    sum w log w + 2 log k with the 0 log 0 = 0 convention; nonnegative,
    and zero exactly at the uniform grid.
    """
    w = grid.w
    log_w = np.zeros_like(w)
    np.log(w, out=log_w, where=w > 0)
    return float(np.sum(w * log_w) + 2.0 * np.log(grid.k))


def grid_mean(grid: CopulaGrid, f) -> float:
    """Mean of f under the grid: sum f(r/k, s/k) w[r,s]."""
    x, y = grid_points(grid.k)
    return float(np.sum(f(x, y) * grid.w))


def from_permutation(pi: Permutation, k: int) -> CopulaGrid:
    """Empirical cell weights of pi on the k x k grid (counts / n).

    Row and column sums sit within 1/n of 1/k, so the result is doubly
    stochastic at level k only up to that resolution.
    """
    return CopulaGrid(bin_counts(pi, k).counts / pi.n)
