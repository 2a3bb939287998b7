"""Discrete copula grids, score functions and the lattice they meet on.

A grid of order k is a k x k float array of cell probabilities summing
to 1, doubly stochastic at level k when every row and column carries
mass 1/k; the functions here take that array as it is.  An IPFP result
gives its grid as a :class:`CopulaGrid`: the read-only array it builds
on first read, and its order k.  Score functions are named, vectorized maps
[0,1]^2 -> R, evaluated only at points of :func:`lattice`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ScoreFunction",
    "CopulaGrid",
    "SCORE_FUNCTIONS",
    "get_score",
    "kl_to_uniform",
    "lattice",
    "score_grid",
]


@dataclass(frozen=True)
class ScoreFunction:
    """A named score f(x, y) on the unit square.

    ``fn`` takes float arrays, which broadcast against each other, and
    works elementwise; no package code calls it on anything but arrays.
    """

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
    # the operators, unlike np.abs, reuse the x - y array in place
    return -abs(x - y)


def _sq(x, y):
    # squared and negated in place: no array beyond x - y
    d = x - y
    d *= d
    d *= -1.0
    return d


SCORE_FUNCTIONS = {
    "xy": ScoreFunction("xy", _xy),
    "centered": ScoreFunction("centered", _centered),
    "footrule": ScoreFunction("footrule", _footrule),
    "sq": ScoreFunction("sq", _sq),
}


def _is_builtin(f) -> bool:
    """Whether f computes one of the built-in scores, told by its function's identity."""
    fn = getattr(f, "fn", None)
    return any(fn is g.fn for g in SCORE_FUNCTIONS.values())


def get_score(name: str) -> ScoreFunction:
    try:
        return SCORE_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown score function {name!r}; built-ins: {sorted(SCORE_FUNCTIONS)}"
        ) from None


def lattice(k: int) -> np.ndarray:
    """The right-endpoint lattice r/k, r = 1..k: cells (r/k, s/k), points (i/n, pi(i)/n)."""
    return np.arange(1, k + 1) / k


def score_grid(f, k: int) -> np.ndarray:
    """Read-only float64 F[r-1, s-1] = f(r/k, s/k).

    f is called once, on the read-only lattice as a k x 1 column and a
    1 x k row, so F is the only k x k array built here besides f's own
    temporaries.  A result that is not k x k (a column, a row or a
    constant) is broadcast and copied to one.  A value that is not finite
    raises ValueError naming f: every kernel exp(theta * F) needs finite F.
    """
    t = lattice(k)
    t.setflags(write=False)
    grid = np.asarray(f(t[:, None], t[None, :]), dtype=np.float64)
    shape = (t.size, t.size)  # (0, 0) for k < 1, which the callers reject
    if grid.shape != shape:
        grid = np.array(np.broadcast_to(grid, shape))
    # min and max are nan if any value is; they hold no k x k array
    if grid.size and not (np.isfinite(grid.min()) and np.isfinite(grid.max())):
        raise _not_finite(f, t.size)
    grid.setflags(write=False)
    return grid


def _not_finite(f, k: int) -> ValueError:
    """The error for a score f with a value that is not finite on the k x k lattice."""
    name = getattr(f, "name", getattr(f, "__name__", repr(f)))
    return ValueError(f"score {name!r} is not finite on the k = {k} lattice")


@dataclass(frozen=True, eq=False)
class CopulaGrid:
    """The read-only k x k cell array of an IPFP result, and its order k."""

    w: np.ndarray

    @property
    def k(self) -> int:
        return self.w.shape[0]


def kl_to_uniform(w: np.ndarray) -> float:
    """KL divergence of the cell array w from the uniform grid.

    sum w log w + 2 log k with the 0 log 0 = 0 convention; nonnegative,
    and zero exactly at the uniform grid.
    """
    w_log_w = np.zeros_like(w)
    np.log(w, out=w_log_w, where=w > 0)
    w_log_w *= w
    return float(np.sum(w_log_w) + 2.0 * np.log(w.shape[0]))

