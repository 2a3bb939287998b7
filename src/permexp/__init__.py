"""Exponential-family models on permutations.

Library surface: permutation/rank primitives (:mod:`permexp.perm`),
copula grids and score functions (:mod:`permexp.grids`), IPFP scaling
and the limiting log-normalizer (:mod:`permexp.ipfp`), model families
and the Kendall closed forms (:mod:`permexp.models`), the exact Kendall
sampler and MCMC samplers (:mod:`permexp.mcmc`), temperature estimators
and the uniformity test (:mod:`permexp.estimators`), and file formats
(:mod:`permexp.io`).
The ``permexp`` command line fronts the same functionality.
"""
from .estimators import (
    AllPairsDegenerateError,
    EstimateResult,
    NoRootError,
    UniformityTest,
    estimating_equation,
    multi_estimate,
    threshold_test,
    uniformity_test,
)
from .grids import (
    SCORE_FUNCTIONS,
    CopulaGrid,
    ScoreFunction,
    get_score,
    kl_to_uniform,
    lattice,
    score_grid,
)
from .ipfp import (
    IpfpNonConvergence,
    IpfpResult,
    limit_matrix,
    variational_value,
    w_k,
    w_k_prime,
)
from .mcmc import ChainState, auxiliary_gibbs_sweep, make_rng, sample
from .models import (
    KendallModel,
    LinearModel,
    kendall_limit_C,
    kendall_limit_C_prime,
    kendall_limit_density,
    kendall_logZ,
    kendall_logZ_prime,
)
from .perm import (
    Permutation,
    bin_counts,
    cdf_distance,
    fisher_yates_logpmf,
    inversions,
    linear_statistic,
    spearman_r,
)

__version__ = "0.1.0"
