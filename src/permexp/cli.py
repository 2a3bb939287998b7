"""Command-line surface.

Subcommands: ``fit`` (estimate theta from permutation files), ``logz``
(curve of the limiting log-normalizer and its derivative), ``density``
(limiting density grid), ``sample`` (MCMC draws), ``lottery`` (the full
1970 draft-lottery analysis).

Exit codes: 0 success, 2 when a fit legitimately has no root
(extremal data), 1 on a usage, I/O or validation failure.  All floats
are printed with 10 significant digits; every source of randomness
hangs off an explicit ``--seed``.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .estimators import (
    AllPairsDegenerateError,
    NoRootError,
    _reject_given,
    multi_estimate,
    uniformity_test,
)
from .grids import SCORE_FUNCTIONS, get_score, grid_mean
from .ipfp import IpfpNonConvergence, limit_matrix, variational_value
from .io import (
    _fmt,
    _writing,
    format_json_report,
    load_lottery_csv,
    load_permutation_csv,
    save_draws_csv,
    write_grid_csv,
)
from .mcmc import sample
from .models import KendallModel, LinearModel, kendall_limit_density
from .perm import Permutation, bin_counts, linear_statistic, spearman_r

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ROOT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a fit has no root."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_score_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--f", dest="score", default="xy", choices=list(SCORE_FUNCTIONS))


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="permexp", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=f"permexp {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate theta from permutation CSV files")
    fit.add_argument("--model", choices=["linear", "kendall"], default="linear")
    # the linear model's flags are None when not given, so that a fit that
    # takes none of them can reject them; cmd_fit fills in their defaults
    # for a linear ld fit
    fit.add_argument("--f", dest="score", choices=list(SCORE_FUNCTIONS),
                     help="linear model's score function (default xy)")
    fit.add_argument("--data", action="append", required=True,
                     help="permutation CSV; repeat it to pool i.i.d. samples "
                          "(either model)")
    fit.add_argument("--method", choices=["pl", "ld", "ml"], required=True)
    fit.add_argument("--k", type=int, help="grid order of a linear ld fit (default 100)")
    fit.add_argument("--iters", type=int, help="IPFP sweep cap of a linear ld fit")
    fit.add_argument("--tol", type=float,
                     help="IPFP residual tolerance of a linear ld fit (default 1e-12)")
    fit.add_argument("--root-tol", type=float, default=1e-8)
    fit.set_defaults(func=cmd_fit)

    logz = sub.add_parser("logz", help="curve of the limiting log-normalizer")
    _add_score_argument(logz)
    logz.add_argument("--theta-min", type=float, required=True)
    logz.add_argument("--theta-max", type=float, required=True)
    logz.add_argument("--steps", type=int, required=True)
    logz.add_argument("--k", type=int, default=100)
    logz.add_argument("--iters", type=int, default=None)
    logz.add_argument("--tol", type=float, default=1e-12)
    logz.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    logz.set_defaults(func=cmd_logz)

    dens = sub.add_parser("density", help="limiting density on a k x k grid")
    dens.add_argument("--model", choices=["linear", "kendall"], default="linear")
    _add_score_argument(dens)
    dens.add_argument("--theta", type=float, required=True)
    dens.add_argument("--k", type=int, required=True)
    dens.add_argument("--iters", type=int, default=None)
    dens.add_argument("--tol", type=float, default=1e-12)
    dens.add_argument("--out", default="-")
    dens.set_defaults(func=cmd_density)

    smp = sub.add_parser("sample", help="draw permutations by MCMC")
    smp.add_argument("--model", choices=["linear", "kendall"], default="linear")
    _add_score_argument(smp)
    smp.add_argument("--theta", type=float, required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--draws", type=int, default=1)
    smp.add_argument("--burn", type=int, default=None)
    smp.add_argument("--thin", type=int, default=None)
    smp.add_argument("--sampler", choices=["swap", "aux"], default="swap")
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--hist", type=int, default=None, metavar="K",
                     help="also emit the K x K binned frequency grid")
    smp.add_argument("--out", default="-")
    smp.add_argument("--hist-out", default=None,
                     help="path for the --hist grid (default: <out>_hist.csv)")
    smp.set_defaults(func=cmd_sample)

    lot = sub.add_parser("lottery", help="full 1970 draft-lottery analysis")
    lot.add_argument("--data", required=True, help="day_of_year,draw_order CSV")
    lot.add_argument("--k", type=int, default=1000, help="grid order for the LD fit")
    lot.add_argument("--iters", type=int, default=200)
    lot.add_argument("--tol", type=float, default=1e-12)
    lot.add_argument("--root-tol", type=float, default=1e-6)
    lot.add_argument("--bins", type=int, default=10)
    lot.add_argument("--seed", type=int, default=0,
                     help="seed for the uniform reference permutation")
    lot.set_defaults(func=cmd_lottery)

    return top


def cmd_fit(args) -> int:
    ld_only = {"--k": args.k, "--iters": args.iters, "--tol": args.tol}
    f, ld_kw = None, {}
    if args.model == "kendall":
        _reject_given("the Kendall model", {"--f": args.score, **ld_only})
    else:
        f = get_score(args.score or "xy")
        if args.method == "ld":
            ld_kw = {"k": 100 if args.k is None else args.k,
                 "tol": 1e-12 if args.tol is None else args.tol,
                 "max_iter": args.iters}
        else:
            _reject_given(f"method {args.method}", ld_only)
    perms = [load_permutation_csv(p) for p in args.data]
    try:
        result = multi_estimate(perms, f, args.method, root_tol=args.root_tol, **ld_kw)
    except NoRootError as err:
        print(format_json_report({
            "error": "no_root", "sign": err.sign,
            "bracket_lo": err.bracket[0], "bracket_hi": err.bracket[1],
            "evaluations": err.evaluations,
        }))
        return EXIT_NO_ROOT
    except AllPairsDegenerateError:
        print(format_json_report({"error": "degenerate", "detail":
                                  "all pairwise scores vanish"}))
        return EXIT_NO_ROOT
    print(format_json_report(result.to_json_dict()))
    return EXIT_OK


def cmd_logz(args) -> int:
    f = get_score(args.score)
    lo, hi = args.theta_min, args.theta_max
    if args.steps < 2 or not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        print("error: need steps >= 2 and finite theta-min < theta-max", file=sys.stderr)
        return EXIT_ERROR
    rows = ["theta,w_k,w_k_prime,status\n"]
    for theta in np.linspace(lo, hi, args.steps).tolist():
        status = "ok"
        try:
            res = limit_matrix(f, theta, args.k, tol=args.tol, max_iter=args.iters)
        except IpfpNonConvergence as err:
            res = err.result
            status = "maxiter"
        w = variational_value(res, f, theta)
        wp = grid_mean(res.grid, f)
        rows.append(f"{_fmt(theta)},{_fmt(w)},{_fmt(wp)},{status}\n")
    with _writing(sys.stdout if args.out == "-" else args.out) as fh:
        fh.write("".join(rows))
    return EXIT_OK


def cmd_density(args) -> int:
    if args.model == "kendall":
        grid = kendall_limit_density(args.theta, args.k)
    else:
        f = get_score(args.score)
        try:
            res = limit_matrix(f, args.theta, args.k, tol=args.tol,
                               max_iter=args.iters)
        except IpfpNonConvergence as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_ERROR
        grid = res.grid.step_density()
    write_grid_csv(grid, sys.stdout if args.out == "-" else args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    hist_out = args.hist_out
    if args.hist is not None:
        if args.draws < 1:
            print("error: --hist needs at least one draw", file=sys.stderr)
            return EXIT_ERROR
        if hist_out is None:
            if args.out == "-":
                print("error: --hist with stdout output needs --hist-out",
                      file=sys.stderr)
                return EXIT_ERROR
            hist_out = f"{args.out}_hist.csv"
    f = get_score(args.score)
    if args.model == "kendall":
        model = KendallModel(args.theta, args.n)
    else:
        model = LinearModel(f, args.theta, args.n)
    sampler = "auxiliary" if args.sampler == "aux" else "swap"
    try:
        draws = sample(model, args.draws, burn=args.burn, thin=args.thin,
                       sampler=sampler, seed=args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    density = None
    if args.hist is not None:
        counts = np.zeros((args.hist, args.hist), dtype=np.int64)
        for pi in draws:
            counts += bin_counts(pi, args.hist).counts
        total = sum(pi.n for pi in draws)
        density = counts * (args.hist * args.hist / total)
    save_draws_csv(draws, sys.stdout if args.out == "-" else args.out)
    if density is not None:
        write_grid_csv(density, hist_out)
    return EXIT_OK


def cmd_lottery(args) -> int:
    data = load_lottery_csv(args.data)
    pi = data.pi()
    tau = data.tau()
    n = tau.n
    f = get_score("xy")

    stat = linear_statistic(tau, f) / n
    unif = uniformity_test(tau)
    r_rank = spearman_r(pi, Permutation.identity(n))

    report = {
        "n": n,
        "statistic": stat,
        "uniformity": unif.to_json_dict(),
        "spearman_r": r_rank,
    }
    exit_code = EXIT_OK
    try:
        report["pl"] = multi_estimate([tau], f, "pl", root_tol=args.root_tol).to_json_dict()
        report["ld"] = multi_estimate([tau], f, "ld", root_tol=args.root_tol, k=args.k,
                                      tol=args.tol, max_iter=args.iters).to_json_dict()
    except NoRootError as err:
        report["error"] = "no_root"
        report["sign"] = err.sign
        exit_code = EXIT_NO_ROOT

    rng = np.random.default_rng(args.seed)
    reference = Permutation(rng.permutation(n) + 1)
    report["tau_bins"] = bin_counts(tau, args.bins).counts.tolist()
    report["reference_bins"] = bin_counts(reference, args.bins).counts.tolist()
    print(format_json_report(report))
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IpfpNonConvergence as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
