"""Workload definitions: seeded inputs, fixed command lists, output checks.

Each workload is one pass of ``permexp`` CLI argv lists.  Inputs come
from the benchmark seed through numpy alone; no permexp code is used to
make or to check them.  Every command spells out each flag that sizes
its work (``--k``, ``--tol``, ``--root-tol``, ``--burn``, ``--thin``,
``--draws``, ``--seed``), so a changed CLI default cannot resize a
workload.  ``--iters`` stays at its default: it is a cap, not a size,
and a command that reaches it counts as failed.

A check takes the command's captured stdout and returns an error
message, or None when the output is right.  See README.md in this
directory for why each workload looks the way it does.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Check = Callable[[str], Optional[str]]


@dataclass
class Command:
    """One CLI invocation of a pass, with the check of its output."""

    label: str
    argv: list
    check: Check
    outputs: tuple = ()
    counted: bool = True    # part of wall_s and the latency percentiles


@dataclass(frozen=True)
class Sizes:
    fit_files_small: int
    fit_files_large: int
    fit_n_small: int
    fit_n_large: int
    fit_rho_max: float
    logz_xy: tuple          # (theta_max, steps, k)
    logz_footrule: tuple    # (theta_max, steps, k)
    density_k: int
    kendall_density_k: int
    swap_n: int
    swap_steps: tuple       # (burn, thin, draws)
    wide_n: int
    wide_steps: tuple
    aux_n: int
    aux_sweeps: tuple


FULL = Sizes(
    fit_files_small=23, fit_files_large=2, fit_n_small=500, fit_n_large=2000,
    fit_rho_max=0.75,
    logz_xy=(500.0, 5, 100), logz_footrule=(60.0, 7, 100),
    density_k=1000, kendall_density_k=400,
    swap_n=200, swap_steps=(100_000, 5_000, 40),
    wide_n=2000, wide_steps=(20_000, 10_000, 4),
    aux_n=10_000, aux_sweeps=(30, 2, 10),
)

TINY = Sizes(
    fit_files_small=2, fit_files_large=1, fit_n_small=60, fit_n_large=120,
    fit_rho_max=0.6,
    logz_xy=(40.0, 3, 20), logz_footrule=(20.0, 3, 20),
    density_k=40, kendall_density_k=30,
    swap_n=20, swap_steps=(2_000, 100, 5),
    wide_n=1100, wide_steps=(1_000, 500, 2),
    aux_n=200, aux_sweeps=(3, 1, 3),
)

SIZES = {"full": FULL, "tiny": TINY}

# Pinned values of the 1970 draft-lottery report (README), compared at the
# number of decimals they are published with.
LOTTERY_PINNED = (
    (("statistic",), 0.2702, 4),
    (("uniformity", "z"), 4.31, 2),
    (("spearman_r",), -0.226, 3),
    (("pl", "theta_hat"), 2.92, 2),
    (("ld", "theta_hat"), 2.96, 2),
)


# --------------------------------------------------------------------------
# inputs


def copula_permutation(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    """Ranks of a Gaussian-copula sample with correlation rho, as pi(1..n)."""
    x = rng.standard_normal(n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(y, kind="stable")] = np.arange(1, n + 1)
    return ranks[np.argsort(x, kind="stable")]


def write_permutation(path: str, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("i,pi\n")
        fh.writelines(f"{i},{v}\n" for i, v in enumerate(values.tolist(), start=1))


def stratified_rhos(rng: np.random.Generator, count: int, rho_max: float) -> np.ndarray:
    """One correlation per equal-width stratum of [-rho_max, rho_max].

    Stratifying keeps the spread of fitted temperatures, and so the work
    of the root finder, nearly the same from seed to seed.
    """
    u = (np.arange(count) + rng.random(count)) / count
    return rho_max * (2.0 * u - 1.0)


# --------------------------------------------------------------------------
# independent numerics for the checks


def _pair_score_sign_change(values: np.ndarray, theta: float, delta: float) -> bool:
    """PL score sum_{i<j} y/(1+e^{theta y}) changes sign on [theta-delta, theta+delta].

    For f = xy the pair score is y_ij = (x_i - x_j)(u_i - u_j).  Rows are
    processed in blocks so the check itself stays small in memory.
    """
    n = values.size
    x = np.arange(1, n + 1) / n
    u = values / n
    lo = hi = 0.0
    block = 256
    with np.errstate(over="ignore"):
        for start in range(0, n - 1, block):
            rows = slice(start, min(start + block, n - 1))
            y = (x[rows, None] - x[None, :]) * (u[rows, None] - u[None, :])
            mask = np.arange(n)[None, :] > np.arange(n)[rows, None]
            y = y[mask]
            lo += float(np.sum(y / (1.0 + np.exp((theta - delta) * y))))
            hi += float(np.sum(y / (1.0 + np.exp((theta + delta) * y))))
    return lo >= 0.0 >= hi


def _inversions(values: np.ndarray) -> int:
    total = 0
    for start in range(0, values.size, 256):
        block = values[start:start + 256]
        later = np.arange(values.size)[None, :] > np.arange(start, start + block.size)[:, None]
        total += int(np.count_nonzero((block[:, None] > values[None, :]) & later))
    return total


def _psi(x: np.ndarray) -> np.ndarray:
    """1/(1 - e^{-x}) - 1/x with psi(0) = 1/2."""
    x = np.asarray(x, dtype=np.float64)
    out = np.full_like(x, 0.5)
    big = np.abs(x) > 1e-4
    out[big] = 1.0 / (-np.expm1(-x[big])) - 1.0 / x[big]
    out[~big] = 0.5 + x[~big] / 12.0
    return out


def _kendall_mean_rate(n: int, theta: float) -> float:
    """E[Inv]/n^2 under the Kendall model, from the q-factorial product."""
    j = np.arange(1, n + 1, dtype=np.float64)
    x = theta / n
    return float(np.sum((j / n) * _psi(x * j) - _psi(np.full_like(j, x)) / n) / n)


def _print_slack(value: float) -> float:
    """Rounding of a float printed to 10 significant digits."""
    if value == 0.0:
        return 1e-300
    return 10.0 ** (math.floor(math.log10(abs(value))) - 9)


# --------------------------------------------------------------------------
# checks


def _check_estimate(report: dict, method: str, root_tol: float) -> Optional[str]:
    if report.get("method") != method:
        return f"method {report.get('method')!r} != {method!r}"
    theta = report["theta_hat"]
    if not math.isfinite(theta):
        return "theta_hat not finite"
    lo, hi = report["bracket_lo"], report["bracket_hi"]
    slack = root_tol + _print_slack(theta)
    if not lo - slack <= theta <= hi + slack:
        return f"theta_hat {theta} outside its bracket [{lo}, {hi}]"
    if report["evaluations"] < 1:
        return "no score evaluations reported"
    return None


def check_pl(values: np.ndarray, root_tol: float) -> Check:
    def check(stdout):
        report = json.loads(stdout)
        err = _check_estimate(report, "PL", root_tol)
        if err:
            return err
        theta = report["theta_hat"]
        if not _pair_score_sign_change(values, theta, root_tol + _print_slack(theta)):
            return f"PL score keeps its sign within root_tol of theta_hat {theta}"
        return None
    return check


def check_ld(k: int, root_tol: float) -> Check:
    def check(stdout):
        report = json.loads(stdout)
        err = _check_estimate(report, "LD", root_tol)
        if err:
            return err
        if report.get("k") != k:
            return f"grid order {report.get('k')} != {k}"
        if abs(report["score_at_root"]) > 1e-6:
            return f"LD score at root {report['score_at_root']}"
        return None
    return check


def check_kendall_ml(values: np.ndarray, root_tol: float) -> Check:
    n = values.size
    rate = _inversions(values) / (n * n)

    def check(stdout):
        report = json.loads(stdout)
        err = _check_estimate(report, "Kendall-ML", root_tol)
        if err:
            return err
        theta = report["theta_hat"]
        delta = root_tol + _print_slack(theta)
        below = rate - _kendall_mean_rate(n, theta - delta)
        above = rate - _kendall_mean_rate(n, theta + delta)
        if not below >= 0.0 >= above:
            return f"Kendall ML score keeps its sign within root_tol of {theta}"
        return None
    return check


def check_kendall_ld(root_tol: float) -> Check:
    def check(stdout):
        report = json.loads(stdout)
        err = _check_estimate(report, "Kendall-LD", root_tol)
        if err:
            return err
        if abs(report["score_at_root"]) > 1e-6:
            return f"Kendall LD score at root {report['score_at_root']}"
        return None
    return check


def check_lottery(stdout: str) -> Optional[str]:
    report = json.loads(stdout)
    for keys, pinned, digits in LOTTERY_PINNED:
        value = report
        for key in keys:
            if key not in value:
                return f"lottery report lacks {'.'.join(keys)}"
            value = value[key]
        if round(value, digits) != pinned:
            return f"lottery {'.'.join(keys)} = {value}, pinned {pinned}"
    return None


def _read_grid(path: str) -> np.ndarray:
    with open(path) as fh:
        k = int(fh.readline())
        flat = np.array(fh.read().replace("\n", ",").rstrip(",").split(","), dtype=np.float64)
    if flat.size != k * k:
        raise ValueError(f"{path}: {flat.size} values for a {k} x {k} grid")
    return flat.reshape(k, k)


def check_logz(path: str, thetas: np.ndarray) -> Check:
    def check(stdout):
        with open(path) as fh:
            header = fh.readline().strip()
            rows = [line.rstrip("\n").split(",") for line in fh]
        if header != "theta,w_k,w_k_prime,status":
            return f"logz header {header!r}"
        if len(rows) != thetas.size:
            return f"logz has {len(rows)} rows, expected {thetas.size}"
        capped = sum(r[3] == "maxiter" for r in rows)
        if capped or any(r[3] != "ok" for r in rows):
            return f"logz: {capped} of {len(rows)} rows at maxiter"
        got = np.array([[float(c) for c in r[:3]] for r in rows])
        if not np.allclose(got[:, 0], thetas, rtol=1e-9, atol=1e-9):
            return "logz theta column differs from the requested grid"
        if not np.all(np.isfinite(got)):
            return "logz has non-finite values"
        if np.any(np.diff(got[:, 2]) < 0):
            return "logz w_k_prime decreases in theta"
        return None
    return check


def check_density(path: str, k: int, tol: float) -> Check:
    def check(stdout):
        grid = _read_grid(path)
        if grid.shape != (k, k):
            return f"density grid {grid.shape}, expected {(k, k)}"
        if np.any(~np.isfinite(grid)) or np.any(grid < 0):
            return "density has negative or non-finite values"
        worst = max(np.abs(grid.mean(axis=0) - 1).max(), np.abs(grid.mean(axis=1) - 1).max())
        if worst > tol:
            return f"density row/column means off 1 by {worst:.3e}"
        return None
    return check


def check_draws(path: str, n: int, draws: int, hist: Optional[tuple] = None) -> Check:
    """Every draw is a bijection of 1..n; the --hist grid matches the draws."""
    def check(stdout):
        with open(path) as fh:
            if fh.readline().strip() != "draw,i,pi":
                return "draws header"
            table = np.array(fh.read().replace("\n", ",").rstrip(",").split(","),
                             dtype=np.int64).reshape(-1, 3)
        if table.shape[0] != n * draws:
            return f"{table.shape[0]} draw rows, expected {n * draws}"
        perms = table[:, 2].reshape(draws, n)
        if np.any(table[:, 0].reshape(draws, n) != np.arange(1, draws + 1)[:, None]):
            return "draw column out of order"
        if np.any(table[:, 1].reshape(draws, n) != np.arange(1, n + 1)[None, :]):
            return "index column out of order"
        if np.any(np.sort(perms, axis=1) != np.arange(1, n + 1)[None, :]):
            return "a draw is not a bijection"
        if hist is None:
            return None
        hist_path, k = hist
        density = _read_grid(hist_path)
        rows = (k * np.arange(1, n + 1) + n - 1) // n - 1
        cols = (k * perms + n - 1) // n - 1
        counts = np.bincount((rows[None, :] * k + cols).ravel(), minlength=k * k)
        counts = counts.reshape(k, k)
        got = density * (draws * n) / (k * k)
        if not np.allclose(got, counts, rtol=1e-8, atol=1e-6):
            return "hist grid differs from the binned draws"
        if round(float(got.sum())) != draws * n:
            return f"hist total {got.sum()} != draws * n = {draws * n}"
        return None
    return check


# --------------------------------------------------------------------------
# workloads


def lottery_command(root: str, counted: bool = True) -> Command:
    data = os.path.join(root, "data", "draft_lottery_1970.csv")
    argv = ["lottery", "--data", data, "--k", "1000", "--iters", "200", "--tol", "1e-12",
            "--root-tol", "1e-6", "--bins", "10", "--seed", "0"]
    return Command("lottery", argv, check_lottery, counted=counted)


def build_fit(seed: int, sizes: Sizes, root: str, workdir: str) -> list:
    """PL, LD, Kendall LD and Kendall ML fits of copula permutations, then lottery."""
    rng = np.random.default_rng([seed, 1])
    count = sizes.fit_files_small + sizes.fit_files_large
    rhos = stratified_rhos(rng, count, sizes.fit_rho_max)
    # the large files take evenly spaced strata, so every seed has the same mix
    large = set(np.linspace(0, count - 1, sizes.fit_files_large + 2)[1:-1].round().astype(int))
    root_tol = 1e-8
    commands = []
    for j, rho in enumerate(rhos):
        n = sizes.fit_n_large if j in large else sizes.fit_n_small
        values = copula_permutation(rng, n, float(rho))
        path = os.path.join(workdir, f"perm{j:02d}_n{n}.csv")
        write_permutation(path, values)
        rt = ["--root-tol", repr(root_tol)]
        tag = f"{j:02d}-n{n}"
        commands += [
            Command(f"pl-{tag}", ["fit", "--model", "linear", "--f", "xy", "--method", "pl",
                                  "--data", path] + rt, check_pl(values, root_tol)),
            Command(f"ld-{tag}", ["fit", "--model", "linear", "--f", "xy", "--method", "ld",
                                  "--k", "100", "--tol", "1e-12", "--data", path] + rt,
                    check_ld(100, root_tol)),
            Command(f"kld-{tag}", ["fit", "--model", "kendall", "--method", "ld",
                                   "--data", path] + rt, check_kendall_ld(root_tol)),
            Command(f"kml-{tag}", ["fit", "--model", "kendall", "--method", "ml",
                                   "--data", path] + rt, check_kendall_ml(values, root_tol)),
        ]
    return commands + [lottery_command(root)]


def _jitter(rng: np.random.Generator, value: float, share: float) -> float:
    """value moved by at most +-share of itself, rounded to 6 decimals."""
    return round(value * (1.0 + share * (2.0 * rng.random() - 1.0)), 6)


def build_limit(seed: int, sizes: Sizes, root: str, workdir: str) -> list:
    """logz curves (xy, footrule) and densities (xy, Kendall); no root finding."""
    rng = np.random.default_rng([seed, 2])
    commands = []
    for f, (theta_max, steps, k) in (("xy", sizes.logz_xy), ("footrule", sizes.logz_footrule)):
        hi = _jitter(rng, theta_max, 0.01)
        lo = -_jitter(rng, theta_max, 0.01)
        out = os.path.join(workdir, f"logz_{f}.csv")
        commands.append(Command(
            f"logz-{f}", ["logz", "--f", f, "--theta-min", repr(lo), "--theta-max", repr(hi),
                          "--steps", str(steps), "--k", str(k), "--tol", "1e-12",
                          "--out", out],
            check_logz(out, np.linspace(lo, hi, steps)), (out,)))
    out = os.path.join(workdir, "density_xy.csv")
    k = sizes.density_k
    commands.append(Command(
        "density-xy", ["density", "--model", "linear", "--f", "xy",
                       "--theta", repr(_jitter(rng, 20.0, 0.02)), "--k", str(k),
                       "--tol", "1e-12", "--out", out],
        check_density(out, k, 1e-6), (out,)))
    out = os.path.join(workdir, "density_kendall.csv")
    k = sizes.kendall_density_k
    commands.append(Command(
        "density-kendall", ["density", "--model", "kendall",
                            "--theta", repr(_jitter(rng, 2.0, 0.1)), "--k", str(k),
                            "--out", out],
        check_density(out, k, 1e-3), (out,)))
    return commands


def build_sample(seed: int, sizes: Sizes, root: str, workdir: str) -> list:
    """Swap chains (xy, footrule, Kendall; xy above the score-matrix cutoff), aux sweeps."""
    rng = np.random.default_rng([seed, 3])
    chains = [
        ("swap-xy", ["--model", "linear", "--f", "xy"], sizes.swap_n, sizes.swap_steps, "swap"),
        ("swap-footrule", ["--model", "linear", "--f", "footrule"], sizes.swap_n,
         sizes.swap_steps, "swap"),
        ("swap-kendall", ["--model", "kendall"], sizes.swap_n, sizes.swap_steps, "swap"),
        ("swap-wide", ["--model", "linear", "--f", "xy"], sizes.wide_n, sizes.wide_steps,
         "swap"),
        ("aux", ["--model", "linear", "--f", "xy"], sizes.aux_n, sizes.aux_sweeps, "aux"),
    ]
    commands = []
    for label, model, n, (burn, thin, draws), sampler in chains:
        out = os.path.join(workdir, f"{label}.csv")
        argv = (["sample"] + model +
                ["--theta", "20", "--n", str(n), "--draws", str(draws), "--burn", str(burn),
                 "--thin", str(thin), "--sampler", sampler,
                 "--seed", str(int(rng.integers(2 ** 31))), "--out", out])
        hist = None
        outputs = (out,)
        if sampler == "aux":
            hist_out = os.path.join(workdir, f"{label}_hist.csv")
            argv += ["--hist", "10", "--hist-out", hist_out]
            hist = (hist_out, 10)
            outputs = (out, hist_out)
        commands.append(Command(label, argv, check_draws(out, n, draws, hist), outputs))
    return commands


WORKLOADS = {"fit": build_fit, "limit": build_limit, "sample": build_sample}
