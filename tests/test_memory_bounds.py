"""Peak memory of a fit, measured with tracemalloc.

Each fit holds its big array once: the m * C(n,2) pair scores of a PL
fit, and for LD the score grid F plus one k x k working kernel.  The
bounds are written as multiples of those arrays; the former code
peaked at twice each of them.  The Kendall limit density, which builds
its k x k output from four k x k arrays, is bounded the same way.  An
IPFP run on the convolution source holds no k x k array beyond F.
"""
import tracemalloc

import numpy as np
import pytest

from permexp import ipfp
from permexp.estimators import PAIR_BLOCK, estimating_equation, multi_estimate
from permexp.grids import get_score, score_grid
from permexp.ipfp import limit_matrix
from permexp.models import kendall_limit_density
from permexp.perm import Permutation

# a PL fit adds at most this many PAIR_BLOCK x n float arrays to its
# pair scores: the block temporaries of the build (measured 3.0 for xy
# and footrule at n = 1000 and 2000)
PAIR_BUILD_ARRAYS = 4
# k x k float arrays, beyond what existed before the call
SCORE_GRID_ARRAYS = 1.1
LD_EVALUATION_ARRAYS = 1.1
KENDALL_DENSITY_ARRAYS = 4.1
# floats per grid row of a run on the convolution, beyond F: its spectra and
# FFT buffers of n < 4k points (measured 20.5 at k = 1000, 2000 and 4000)
CONVOLUTION_ROW_FLOATS = 32


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, m", [(2000, 1), (1000, 3)])
@pytest.mark.parametrize("name", ["xy", "footrule"])
def test_pl_fit_holds_its_pair_scores_once(name, n, m):
    rng = np.random.default_rng([n, m])
    perms = [Permutation(rng.permutation(n) + 1) for _ in range(m)]
    f = get_score(name)
    pair_bytes = m * (n * (n - 1) // 2) * 8
    peak = _peak_bytes(lambda: multi_estimate(perms, f, "pl"))
    # the former fit peaked at 2 * pair_bytes, above this bound
    assert pair_bytes <= peak <= pair_bytes + PAIR_BUILD_ARRAYS * PAIR_BLOCK * n * 8


@pytest.mark.parametrize("name", ["xy", "footrule", "sq", "centered"])
def test_score_grid_builds_one_grid(name):
    k = 500
    f = get_score(name)
    peak = _peak_bytes(lambda: score_grid(f, k))
    # the former meshgrid build peaked at 3 k^2 floats (4 for footrule and
    # centered), and the build on k x k views at 2 for centered
    assert peak <= SCORE_GRID_ARRAYS * k * k * 8


@pytest.mark.parametrize("theta", [3.0, -7.5, 400.0])
def test_kendall_density_builds_four_grids(theta):
    k = 500
    peak = _peak_bytes(lambda: kendall_limit_density(theta, k))
    # the former meshgrid build peaked at 7 k^2 floats
    assert peak <= KENDALL_DENSITY_ARRAYS * k * k * 8


@pytest.mark.parametrize("theta", [3.0, 400.0])
def test_ld_evaluation_holds_one_kernel(theta):
    k = 500
    pi = Permutation(np.random.default_rng(8).permutation(50) + 1)
    score = estimating_equation([pi], get_score("xy"), "ld", k=k)  # builds F
    peak = _peak_bytes(lambda: score(theta))
    # the former evaluation held theta * F beside the kernel: 2 k^2 floats
    assert peak <= LD_EVALUATION_ARRAYS * k * k * 8


def test_convolution_run_holds_no_kernel():
    k = 2000
    f = get_score("xy")
    # loads numpy.fft outside the measured run
    limit_matrix(f, 3.0, ipfp._CONVOLUTION_MIN_K)
    grid = score_grid(f, k)
    peak = _peak_bytes(lambda: limit_matrix(f, 3.0, k, score_grid=grid))
    # a dense run adds a k x k kernel, k / 32 = 62 times this bound
    assert peak <= CONVOLUTION_ROW_FLOATS * k * 8
