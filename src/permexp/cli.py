"""Command-line surface.

Subcommands: ``fit`` (estimate theta from permutation files), ``logz``
(curve of the limiting log-normalizer and its derivative), ``density``
(limiting density grid), ``sample`` (exact Kendall draws, MCMC draws of
a linear model), ``lottery`` (the full 1970 draft-lottery analysis).

Exit codes: 0 success, 2 when a fit's estimating equation has no sign
change within the [-64, 64] bracket (the Kendall-LD fit of the reverse
permutation at n = 366, whose root is near 730) or all its PL pair scores
vanish, 1 on a usage, I/O or validation failure or an IPFP stop at the
sweep cap; a ``lottery`` fit that ends either way leaves its record in
the printed report, and 1 outranks 2.  All floats
are printed with 10 significant digits; every source of randomness
hangs off an explicit ``--seed``.

A negative number in exponent form passed as a word of its own, as in
``--theta -1e1``, is read as an option and rejected; join it to its
flag with ``=``: ``--theta=-1e1``, ``--root-tol=-1e-3``.
"""
from __future__ import annotations

import argparse
import functools
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
from .grids import SCORE_FUNCTIONS, get_score, score_grid
from .ipfp import DEFAULT_TOL, IpfpNonConvergence, limit_matrix, variational_value
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
from .perm import Permutation, bin_counts, spearman_r

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ROOT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means a fit found no root in its bracket."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_score_argument(parser: argparse.ArgumentParser) -> None:
    # None when not given, so that the Kendall model can reject it
    parser.add_argument("--f", dest="score", choices=list(SCORE_FUNCTIONS),
                        help="linear model's score function (default xy)")


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
    _add_score_argument(fit)
    fit.add_argument("--data", action="append", required=True,
                     help="permutation CSV; repeat it to pool i.i.d. samples "
                          "(either model)")
    fit.add_argument("--method", choices=["pl", "ld", "ml"], required=True)
    fit.add_argument("--k", type=int, help="grid order of a linear ld fit (default 100)")
    fit.add_argument("--iters", type=int, help="IPFP sweep cap of a linear ld fit")
    fit.add_argument("--tol", type=float, help="IPFP residual tolerance of a linear ld fit "
                                              f"(default {DEFAULT_TOL:g})")
    fit.add_argument("--root-tol", type=float, default=1e-8)

    logz = sub.add_parser("logz", help="curve of the limiting log-normalizer")
    _add_score_argument(logz)
    logz.add_argument("--theta-min", type=float, required=True)
    logz.add_argument("--theta-max", type=float, required=True)
    logz.add_argument("--steps", type=int, required=True)
    logz.add_argument("--k", type=int, default=100)
    logz.add_argument("--iters", type=int, default=None)
    logz.add_argument("--tol", type=float, default=DEFAULT_TOL)
    logz.add_argument("--out", default="-", help="output CSV path, or - for stdout")

    dens = sub.add_parser("density", help="limiting density on a k x k grid")
    dens.add_argument("--model", choices=["linear", "kendall"], default="linear")
    _add_score_argument(dens)
    dens.add_argument("--theta", type=float, required=True)
    dens.add_argument("--k", type=int, required=True)
    dens.add_argument("--iters", type=int, help="IPFP sweep cap of a linear density")
    dens.add_argument("--tol", type=float, help="IPFP residual tolerance of a linear density "
                                               f"(default {DEFAULT_TOL:g})")
    dens.add_argument("--out", default="-")

    smp = sub.add_parser("sample", help="draw permutations: exact i.i.d. draws of the "
                                        "Kendall model, MCMC for a linear model")
    smp.add_argument("--model", choices=["linear", "kendall"], default="linear")
    _add_score_argument(smp)
    smp.add_argument("--theta", type=float, required=True)
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--draws", type=int, default=1)
    smp.add_argument("--burn", type=int, default=None,
                     help="burn-in of a linear chain, in swap steps (default 10 n^2) "
                          "or aux sweeps (default 10); checked, then ignored by Kendall draws")
    smp.add_argument("--thin", type=int, default=None,
                     help="steps (default n^2) or sweeps (default 1) between a linear "
                          "chain's draws; checked, then ignored by Kendall draws")
    smp.add_argument("--sampler", choices=["swap", "aux"], default="swap",
                     help="linear chain kernel: heat-bath steps on the pairs of uniform "
                          "random matchings, or auxiliary sweeps (xy, theta > 0); exact "
                          "Kendall draws accept swap and ignore it")
    smp.add_argument("--seed", type=int, default=0)
    smp.add_argument("--hist", type=int, default=None, metavar="K",
                     help="also emit the K x K binned frequency grid")
    smp.add_argument("--out", default="-")
    smp.add_argument("--hist-out", default=None,
                     help="path for the --hist grid (default: <out>_hist.csv)")

    lot = sub.add_parser("lottery", help="full 1970 draft-lottery analysis")
    lot.add_argument("--data", required=True, help="day_of_year,draw_order CSV")
    lot.add_argument("--k", type=int, default=1000, help="grid order for the LD fit")
    lot.add_argument("--iters", type=int, default=200)
    lot.add_argument("--tol", type=float, default=DEFAULT_TOL)
    lot.add_argument("--root-tol", type=float, default=1e-6)
    lot.add_argument("--bins", type=int, default=10)
    lot.add_argument("--seed", type=int, default=0,
                     help="seed for the uniform reference permutation")

    return top


def cmd_fit(args) -> int:
    ld_only = {"--k": args.k, "--iters": args.iters, "--tol": args.tol}
    f, ld_kw = None, {}
    if args.model == "kendall":
        _reject_given("the Kendall model", {"--f": args.score, **ld_only})
    else:
        f = get_score(args.score or "xy")
        if args.method == "ld":
            ld_kw = {"k": 100 if args.k is None else args.k, "tol": args.tol,
                     "max_iter": args.iters}
        else:
            _reject_given(f"method {args.method}", ld_only)
    perms = [load_permutation_csv(p) for p in args.data]
    try:
        result = multi_estimate(perms, f, args.method, root_tol=args.root_tol, **ld_kw)
    except (NoRootError, AllPairsDegenerateError) as err:
        print(format_json_report(_failure_record(err)))
        return EXIT_NO_ROOT
    print(format_json_report(result.to_json_dict()))
    return EXIT_OK


def _failure_record(err: NoRootError | AllPairsDegenerateError | IpfpNonConvergence) -> dict:
    """The report record of a fit that ended without an estimate."""
    if isinstance(err, NoRootError):
        return {"error": "no_root", "sign": err.sign, "bracket_lo": err.bracket[0],
                "bracket_hi": err.bracket[1], "evaluations": err.evaluations}
    kind = "ipfp_maxiter" if isinstance(err, IpfpNonConvergence) else "degenerate"
    return {"error": kind, "detail": str(err)}


def cmd_logz(args) -> int:
    f = get_score(args.score or "xy")
    lo, hi = args.theta_min, args.theta_max
    # hi - lo is finite only if both ends are, and np.linspace computes it
    if args.steps < 2 or not (math.isfinite(hi - lo) and lo < hi):
        raise ValueError("need steps >= 2 and finite theta-min < theta-max")
    rows = ["theta,w_k,w_k_prime,status\n"]
    # one score grid F gives every row's kernel theta * F; each run stores
    # w' = <F, A>, and w = theta * w' - D(A || uniform) reads its grid A
    score = score_grid(f, args.k)
    for theta in np.linspace(lo, hi, args.steps).tolist():
        status = "ok"
        try:
            res = limit_matrix(f, theta, args.k, tol=args.tol, max_iter=args.iters,
                               score_grid=score)
        except IpfpNonConvergence as err:
            res = err.result
            status = "maxiter"
        wp = res.score_mean
        w = variational_value(res)
        rows.append(f"{_fmt(theta)},{_fmt(w)},{_fmt(wp)},{status}\n")
    with _writing(sys.stdout if args.out == "-" else args.out) as fh:
        fh.write("".join(rows))
    return EXIT_OK


def cmd_density(args) -> int:
    if args.model == "kendall":
        _reject_given("the Kendall model",
                      {"--f": args.score, "--iters": args.iters, "--tol": args.tol})
        grid = kendall_limit_density(args.theta, args.k)
    else:
        f = get_score(args.score or "xy")
        tol = DEFAULT_TOL if args.tol is None else args.tol
        res = limit_matrix(f, args.theta, args.k, tol=tol, max_iter=args.iters)
        grid = args.k * args.k * res.grid.w
    write_grid_csv(grid, sys.stdout if args.out == "-" else args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    hist_out = args.hist_out
    if args.hist is not None:
        if args.draws < 1:
            raise ValueError("--hist needs at least one draw")
        if not 1 <= args.hist <= args.n:
            raise ValueError(f"--hist K={args.hist} outside 1..{args.n}")
        if hist_out is None:
            if args.out == "-":
                raise ValueError("--hist with stdout output needs --hist-out")
            hist_out = f"{args.out}_hist.csv"
    if args.model == "kendall":
        _reject_given("the Kendall model", {"--f": args.score})
        model = KendallModel(args.theta, args.n)
    else:
        model = LinearModel(get_score(args.score or "xy"), args.theta, args.n)
    sampler = "auxiliary" if args.sampler == "aux" else "swap"
    draws = sample(model, args.draws, burn=args.burn, thin=args.thin,
                   sampler=sampler, seed=args.seed)
    save_draws_csv(draws, sys.stdout if args.out == "-" else args.out)
    if args.hist is not None:
        counts = sum(bin_counts(Permutation(row), args.hist) for row in draws)
        write_grid_csv(counts * (args.hist * args.hist / draws.size), hist_out)
    return EXIT_OK


def cmd_lottery(args) -> int:
    data = load_lottery_csv(args.data)
    pi = data.pi()
    tau = data.tau()
    n = tau.n
    f = get_score("xy")

    unif = uniformity_test(tau)
    r_rank = spearman_r(pi, Permutation.identity(n))

    report = {
        "n": n,
        "statistic": unif.statistic,
        "uniformity": unif.to_json_dict(),
        "spearman_r": r_rank,
    }
    exit_code = EXIT_OK
    fits = {"pl": {}, "ld": {"k": args.k, "tol": args.tol, "max_iter": args.iters}}
    for method, settings in fits.items():
        # each fit on its own: one without an estimate leaves its record and the
        # other fit; an IPFP stop (exit 1) outranks a missing root (exit 2)
        try:
            report[method] = multi_estimate([tau], f, method, root_tol=args.root_tol,
                                            **settings).to_json_dict()
        except (NoRootError, AllPairsDegenerateError) as err:
            report[method] = _failure_record(err)
            exit_code = exit_code or EXIT_NO_ROOT
        except IpfpNonConvergence as err:
            report[method] = _failure_record(err)
            exit_code = EXIT_ERROR

    rng = np.random.default_rng(args.seed)
    reference = Permutation(rng.permutation(n) + 1)
    report["tau_bins"] = bin_counts(tau, args.bins).tolist()
    report["reference_bins"] = bin_counts(reference, args.bins).tolist()
    print(format_json_report(report))
    return exit_code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs about as much as a small fit.

    Parsing leaves it unchanged, and it holds no command function, so
    ``main`` finds ``cmd_<command>`` by name on each call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (IpfpNonConvergence, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
