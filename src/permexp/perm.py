"""Permutations of {1..n}: rank statistics, grid binning, and the exact
law of the binned count matrix under a uniform permutation.

A permutation pi is identified with the point cloud {(i/n, pi(i)/n)} on
the unit square.  Binning those points on a k x k grid produces a count
matrix whose row and column sums are fixed by n and k alone; under a
uniform pi the matrix follows the Fisher-Yates (multivariate
hypergeometric) distribution implemented in :func:`fisher_yates_logpmf`.
"""
from __future__ import annotations

import math

import numpy as np

from .grids import lattice

__all__ = [
    "Permutation",
    "inversions",
    "linear_statistic",
    "spearman_r",
    "bin_counts",
    "band_counts",
    "fisher_yates_logpmf",
    "cdf_distance",
]


class Permutation:
    """A bijection of {1..n}, stored as the 1-based image sequence.

    ``values[i-1] == pi(i)``.  Instances are immutable and hashable.

    >>> Permutation([2, 3, 1]).as_tuple()
    (2, 3, 1)
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("a permutation needs a non-empty 1-D sequence")
        n = arr.size
        if arr.min() < 1 or arr.max() > n or np.any(np.bincount(arr, minlength=n + 1)[1:] != 1):
            raise ValueError("values are not a bijection of {1..%d}" % n)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(1, n + 1))

    def as_tuple(self) -> tuple:
        return tuple(int(v) for v in self.values)

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        if self.n <= 12:
            return f"Permutation({list(map(int, self.values))})"
        return f"Permutation(n={self.n})"


def inversions(pi: Permutation) -> int:
    """Number of inverted pairs #{i < j : pi(i) > pi(j)}.

    Bottom-up merge counting, O(n log^2 n) in numpy: at the level where
    the runs of ``width`` entries are sorted, each entry of a right run
    counts the entries of its left run above it with one
    ``searchsorted`` over all left runs, each offset by its block, and a
    stable sort then merges every pair of runs.
    """
    n = pi.n
    values = pi.values - 1
    index = np.arange(n)
    total = 0
    width = 1
    while width < n:
        block = index // (2 * width)
        keys = block * n + values
        right = index % (2 * width) >= width
        # a right run's left run is full and holds left keys
        # block * width .. block * width + width - 1
        below = np.searchsorted(keys[~right], keys[right])
        total += int((block[right] * width + width - below).sum())
        keys.sort(kind="stable")
        values = keys - block * n
        width *= 2
    return total


def linear_statistic(pi: Permutation, f) -> float:
    """Sum of f(i/n, pi(i)/n) over i = 1..n for a vectorized score f."""
    t = lattice(pi.n)
    return float(np.sum(f(t, t[pi.values - 1])))


def spearman_r(pi: Permutation, sigma: Permutation) -> float:
    """Rank correlation 1 - 6 * sum (pi(i)-sigma(i))^2 / (n(n^2-1))."""
    if pi.n != sigma.n:
        raise ValueError("size mismatch")
    n = pi.n
    if n < 2:
        raise ValueError("rank correlation needs n >= 2")
    d2 = np.sum((pi.values - sigma.values).astype(np.float64) ** 2)
    return float(1.0 - 6.0 * d2 / (n * (n * n - 1.0)))


def band_counts(n: int, k: int) -> np.ndarray:
    """Number of indices i in {1..n} falling in each of the k bands.

    Band r holds the i with ceil(k*i/n) = r, so the count is
    floor(n*r/k) - floor(n*(r-1)/k).
    """
    edges = (n * np.arange(0, k + 1)) // k
    return np.diff(edges).astype(np.int64)


def bin_counts(pi: Permutation, k: int) -> np.ndarray:
    """The k x k int64 counts of the points (i/n, pi(i)/n) per grid cell.

    A coordinate x lands in cell ceil(k*x); cell 1 therefore absorbs
    (0, 1/k] and a point sitting exactly on a grid line r/k belongs to
    cell r.  Indices are integer arithmetic throughout, so there is no
    floating-point boundary ambiguity.
    """
    n = pi.n
    if not 1 <= k <= n:
        raise ValueError(f"grid order k={k} outside 1..{n}")
    idx = np.arange(1, n + 1)
    rows = -(-(k * idx) // n) - 1          # ceil(k*i/n), 0-based
    cols = -(-(k * pi.values) // n) - 1
    return np.bincount(rows * k + cols, minlength=k * k).reshape(k, k)


def fisher_yates_logpmf(counts: np.ndarray) -> float:
    """Log-probability of a k x k count matrix under a uniform permutation.

    n is the total count.  log[ (prod_r M_r!)^2 / (n! * prod_{rs} M_rs!) ],
    evaluated through log-gamma so that n in the hundreds stays well
    inside float range.  No cell exceeds its band, so one table of log c!
    for c up to the largest band covers every factorial but n!.
    Raises ValueError unless the counts form a non-empty square matrix
    with no negative cell whose row and column sums are the band counts
    forced by (n, k).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1] or counts.size == 0:
        raise ValueError("counts must form a non-empty square matrix")
    if np.any(counts < 0):
        raise ValueError("negative cell count")
    n = int(counts.sum())
    bands = band_counts(n, counts.shape[0])
    if not np.array_equal(counts.sum(axis=1), bands):
        raise ValueError("row sums differ from the band counts")
    if not np.array_equal(counts.sum(axis=0), bands):
        raise ValueError("column sums differ from the band counts")
    log_fac = np.array([math.lgamma(c + 1.0) for c in range(int(bands.max()) + 1)])
    return float(
        2.0 * np.sum(log_fac[bands])
        - math.lgamma(n + 1.0)
        - np.sum(log_fac[counts])
    )


def cdf_distance(pi: Permutation) -> float:
    """Sup distance between the two square representations of pi.

    Compares the CDF of the cell-smeared measure (density n on the n
    squares (i,pi(i))) with the CDF of the point-mass measure on
    (i/n, pi(i)/n).  Both CDFs agree at lattice corners, and within any
    lattice cell the gap is largest against the cell's corner values,
    so the supremum is the largest two-corner increment over the cells,
    over n.  With C(i, j) the count of points in [1, i] x [1, j], that
    increment is C(i, j) - C(i-1, j-1) = [pi(i) <= j] + [pi^-1(j) < i]:
    1 at (n, n), never above 2, and 2 exactly where pi(i) < j = pi(k)
    for some k < i, an inversion.  So the distance is 1/n for the
    identity and 2/n for every other pi.
    """
    return (2.0 if np.any(pi.values[1:] < pi.values[:-1]) else 1.0) / pi.n
