"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line once its assertions hold, so
``pytest tests/test_acceptance.py -v -s`` doubles as the sign-off
checklist.  Budgets are asserted where the criterion states one.
"""
import itertools
import math
import time

import numpy as np
import pytest

from permexp.estimators import multi_estimate, threshold_test, uniformity_test
from permexp.grids import get_score, kl_to_uniform, score_grid
from permexp.io import load_lottery_csv
from permexp.ipfp import limit_matrix, variational_value, w_k
from permexp.mcmc import ChainState, auxiliary_gibbs_sweep, make_rng, sample
from permexp.models import (
    KendallModel,
    LinearModel,
    grid_discordance,
    kendall_limit_C,
    kendall_limit_density,
    kendall_logZ,
)
from permexp.perm import Permutation, bin_counts, fisher_yates_logpmf, spearman_r

from conftest import (
    LOTTERY_CSV,
    all_perms,
    brute_logZ,
    empirical_law,
    enumerate_pmf,
    exact_swap_kernel,
    recover_potentials,
    tv_distance,
)


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def test_01_normalizer_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for n in range(2, 9):
        for theta in (-3.0, -1.0, 0.0, 1.0, 5.0):
            gap = abs(kendall_logZ(n, theta) - brute_logZ(KendallModel(theta, n)))
            worst = max(worst, gap)
            assert gap <= 1e-9, (n, theta, gap)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"closed-form normalizer == enumeration, max gap {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_02_limit_constant():
    start = time.time()
    n = 4000
    log_nfac = kendall_logZ(n, 0.0)
    worst = 0.0
    for theta in (-2.0, 1.0, 5.0):
        gap = abs((kendall_logZ(n, theta) - log_nfac) / n - kendall_limit_C(theta))
        worst = max(worst, gap)
        assert gap <= 2e-3, (theta, gap)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(2, f"finite-n normalizer tracks the limit constant, max gap "
               f"{worst:.2e}, {elapsed:.1f}s")


def test_03_kendall_limit_density():
    k = 400
    worst_margin = 0.0
    for theta in (1.0, 2.0, 5.0):
        rho = kendall_limit_density(theta, k)
        margin = max(
            float(np.abs(rho.mean(axis=0) - 1.0).max()),
            float(np.abs(rho.mean(axis=1) - 1.0).max()),
        )
        worst_margin = max(worst_margin, margin)
        assert margin <= 1e-4, (theta, margin)
        p = rho / rho.sum()
        value = (theta / 2.0) * grid_discordance(p) - float(
            np.sum(p * np.log(p * k * k))
        )
        assert abs(value - kendall_limit_C(theta)) <= 1e-2, theta
    flat_gap = float(np.abs(kendall_limit_density(0.01, k) - 1.0).max())
    assert flat_gap < 0.01
    _report(3, f"limit density has uniform margins (<= {worst_margin:.1e}), is "
               f"flat at theta -> 0, and matches the variational value")


def test_04_ipfp_correctness():
    start = time.time()
    f = get_score("xy")
    k, theta = 100, 20.0

    res = limit_matrix(f, theta, k, tol=1e-12)
    assert res.converged and res.residual <= 1e-12

    logres = np.log(res.grid.w) - theta * score_grid(f, k)
    logres -= res.row_log_scales[:, None] + res.col_log_scales[None, :]
    assert np.abs(logres).max() <= 1e-8

    a_hat, b_hat = recover_potentials(res)
    value = variational_value(res)
    assert abs(value - (-(a_hat.mean() + b_hat.mean()))) <= 1e-8
    assert abs(w_k(f, theta, k) - value) <= 1e-12

    # k = 2 against a one-dimensional scan of the constrained objective:
    # grids with 1/2 margins are [[a, .5-a], [.5-a, a]], so the program
    # reduces to maximizing theta*a/4 - 2 log 2 - entropy term over a; the
    # centered score's kernel there is [[1, 1], [1, e^(theta/4)]]
    theta2 = 5.0
    res2 = limit_matrix(get_score("centered"), theta2, 2, tol=1e-15, max_iter=10_000)
    fgrid = np.array([[0.0, 0.0], [0.0, 0.25]])

    def objective(a):
        ent = 2.0 * (a * np.log(a) + (0.5 - a) * np.log(0.5 - a))
        return theta2 * 0.25 * a - 2.0 * math.log(2.0) - ent

    scan = np.linspace(1e-9, 0.5 - 1e-9, 2_000_001)
    best = float(scan[np.argmax(objective(scan))])
    assert abs(res2.grid.w[0, 0] - best) <= 1e-8 + 5e-7  # scan resolution
    got = theta2 * float(np.sum(fgrid * res2.grid.w)) - kl_to_uniform(res2.grid.w)
    assert abs(got - objective(best)) <= 1e-8

    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(4, f"IPFP hits 1e-12 margins in {res.iterations} sweeps, satisfies "
               f"the scaling structure, and matches the k=2 program; "
               f"{elapsed:.1f}s")


def test_05_grid_halving_stability():
    f = get_score("xy")
    for theta in (2.0, 20.0):
        for k in (50, 100):
            # |df/dx|, |df/dy| <= 1 for xy, so f moves by at most 2/k
            # (the L1 diameter) within a 1/k cell
            bound = abs(theta) * (2.0 / k + 2.0 / (2 * k))
            gap = abs(w_k(f, theta, k) - w_k(f, theta, 2 * k))
            assert gap <= bound, (theta, k, gap, bound)
    _report(5, "log-normalizer change under grid halving stays below the "
               "Lipschitz bound")


def test_06_sampler_exactness():
    start = time.time()
    model = LinearModel(get_score("xy"), 3.0, 4)
    states, probs, kmat = exact_swap_kernel(model)
    index = {s: i for i, s in enumerate(states)}
    flow = probs[:, None] * kmat
    db_gap = float(np.abs(flow - flow.T).max())
    assert db_gap <= 1e-12

    draws = sample(model, 200_000, burn=2_000, thin=5, sampler="swap", seed=101)
    emp_swap = empirical_law(map(tuple, draws.tolist()), states)
    tv_swap = tv_distance(emp_swap, probs)
    assert tv_swap < 0.02

    aux_model = LinearModel(get_score("xy"), 3.0, 4)
    rng = make_rng(202)
    state = ChainState.uniform_start(4, rng)
    for _ in range(50):
        auxiliary_gibbs_sweep(state, aux_model, rng)
    counts = np.zeros(24)
    for _ in range(1_000_000):
        auxiliary_gibbs_sweep(state, aux_model, rng)
        counts[index[tuple(state.values)]] += 1
    tv_aux = tv_distance(counts / counts.sum(), probs)
    assert tv_aux < 0.02

    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(6, f"swap kernel balances exactly (gap {db_gap:.1e}); long-run TVs "
               f"swap {tv_swap:.3f}, auxiliary {tv_aux:.3f}; {elapsed:.0f}s")


def test_07_draft_lottery_reproduction():
    start = time.time()
    data = load_lottery_csv(LOTTERY_CSV)
    tau = data.tau()
    f = get_score("xy")

    stat = uniformity_test(tau).statistic
    assert round(stat, 4) == 0.2702

    r = spearman_r(data.pi(), Permutation.identity(366))
    assert abs(r - (-0.226)) <= 0.001

    pl = multi_estimate([tau], f, "pl")
    assert abs(pl.theta_hat - 2.92) <= 0.01

    ld = multi_estimate([tau], f, "ld", k=1000, root_tol=1e-5, max_iter=200)
    assert abs(ld.theta_hat - 2.96) <= 0.05

    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(7, f"statistic {stat:.4f}, rank correlation {r:.3f}, "
               f"theta_PL {pl.theta_hat:.3f}, theta_LD {ld.theta_hat:.3f}; "
               f"{elapsed:.0f}s")


def test_08_root_n_consistency():
    start = time.time()
    f = get_score("xy")
    theta = 2.0
    replicates = 200
    scaled_rmse = {}
    medians = {}
    seed = itertools.count(1000)
    for n in (50, 100, 200):
        errs = []
        roots = []
        for _ in range(replicates):
            draw = Permutation(sample(LinearModel(f, theta, n), 1, burn=80, thin=1,
                                      sampler="auxiliary", seed=next(seed))[0])
            root = multi_estimate([draw], f, "pl", root_tol=1e-6).theta_hat
            roots.append(root)
            errs.append((root - theta) ** 2)
        scaled_rmse[n] = math.sqrt(np.mean(errs) * n)
        medians[n] = float(np.median(roots))
    spread = max(scaled_rmse.values()) / min(scaled_rmse.values())
    assert spread < 1.6, scaled_rmse
    assert abs(medians[200] - theta) <= 0.25, medians
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(8, f"sqrt(n)-scaled RMSE {dict((k, round(v, 2)) for k, v in scaled_rmse.items())} "
               f"(spread x{spread:.2f}), median at n=200 {medians[200]:.3f}; "
               f"{elapsed:.0f}s")


def test_09_threshold_test_consistency():
    # The squared-difference score carries twice the temperature signal of
    # xy per unit theta (its doubly-centered part is 2(x-1/2)(y-1/2)), so
    # theta0=0 vs theta1=2 at n=300 is separable with it; with f=xy the
    # estimator noise (~12/sqrt(n)) makes these size/power levels
    # unreachable at this n.  Grid order k=n aligns the estimating
    # equation's lattice with the statistic's, removing the null bias.
    fsq = get_score("sq")
    fxy = get_score("xy")
    n, theta1 = 300, 2.0
    k, root_tol = 300, 1e-3
    rng = np.random.default_rng(77)

    # sampling shortcut: the sq family at theta equals the xy family at
    # 2*theta up to a row/column gauge; verify, then use the fast sampler
    _, p_sq = enumerate_pmf(LinearModel(fsq, theta1, 5))
    _, p_xy = enumerate_pmf(LinearModel(fxy, 2 * theta1, 5))
    assert float(np.abs(p_sq - p_xy).max()) < 1e-12

    rejections_null = 0
    for _ in range(100):
        tau = Permutation(rng.permutation(n) + 1)
        est = multi_estimate([tau], fsq, "ld", k=k, root_tol=root_tol)
        rejections_null += threshold_test(est.theta_hat, 0.0, theta1)
    size = rejections_null / 100.0
    assert size <= 0.05, size

    rejections_alt = 0
    for rep in range(100):
        draw = Permutation(sample(LinearModel(fxy, 2 * theta1, n), 1, burn=80, thin=1,
                                  sampler="auxiliary", seed=5000 + rep)[0])
        est = multi_estimate([draw], fsq, "ld", k=k, root_tol=root_tol)
        rejections_alt += threshold_test(est.theta_hat, 0.0, theta1)
    power = rejections_alt / 100.0
    assert power >= 0.95, power
    _report(9, f"threshold test size {size:.2f}, power {power:.2f} "
               f"(100 replicates each)")


def test_10_fisher_yates_pmf():
    # enumeration: the pmf sums to 1 over the matrices realized by S_n
    for n, k in ((4, 2), (5, 2), (6, 3)):
        freq = {}
        for pi in all_perms(n):
            key = tuple(bin_counts(pi, k).ravel())
            freq[key] = freq.get(key, 0) + 1
        total = 0.0
        nfac = math.factorial(n)
        for key, count in freq.items():
            logp = fisher_yates_logpmf(np.array(key).reshape(k, k))
            total += math.exp(logp)
            assert math.exp(logp) == pytest.approx(count / nfac, rel=1e-12)
        assert total == pytest.approx(1.0, abs=1e-12)

    # frequencies: n=5, k=2, one million uniform draws, 4 standard errors
    rng = np.random.default_rng(99)
    draws = 1_000_000
    samples = rng.permuted(np.tile(np.arange(1, 6), (draws, 1)), axis=1)
    m11 = (samples[:, :2] <= 2).sum(axis=1)
    for a in (0, 1, 2):
        m = np.array([[a, 2 - a], [2 - a, 1 + a]])
        p = math.exp(fisher_yates_logpmf(m))
        freq = float(np.mean(m11 == a))
        se = math.sqrt(p * (1.0 - p) / draws)
        assert abs(freq - p) <= 4.0 * se, (a, freq, p)
    _report(10, "bin-count law sums to 1 by enumeration and matches uniform "
                "sampling within 4 standard errors")
