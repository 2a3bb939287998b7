"""Spans around the public functions of each permexp module.

A layer is one module of the package.  :class:`Tracer` wraps every
public module-level function, and the constructor of every public
class, at each name it is looked up by: the defining module (for calls
inside it, such as ``permexp.ipfp.w_k_prime`` calling ``limit_matrix``)
and every module that imported it (``permexp.cli.limit_matrix``,
``permexp.estimators.w_k_prime``).  A span records its name, layer,
parent span, the command it belongs to, start and end, and its self time
(duration less the time covered by child spans).  Counters that need a
call's arguments or result (IPFP sweeps, root-finder evaluations, bytes
written, chain steps) are taken at the same boundary.

Spans stay in memory while the benchmark runs; :meth:`Tracer.dump`
writes them out at the end.  Nothing under ``src/`` is edited: the
wrappers are installed and removed at run time.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "io", "ipfp", "grids", "estimators", "models", "mcmc", "perm")
_MODULES = {f"permexp.{name}" for name in LAYERS}

FIT_FUNCTIONS = {"pl_estimate", "ld_estimate", "kendall_ld_estimate", "ml_exact",
                 "multi_estimate"}
READERS = {"load_permutation_csv", "load_lottery_csv"}
WRITERS = {"save_permutation_csv", "save_draws_csv", "write_grid_csv"}
# Above this exponent range limit_matrix scales in the log domain.
LOG_DOMAIN_RANGE = 30.0
# Linear swap chains up to this n use a precomputed score matrix.
SWAP_MATRIX_MAX_N = 1024


class _Frame:
    __slots__ = ("sid", "child")

    def __init__(self, sid):
        self.sid = sid
        self.child = 0.0


class Tracer:
    """Install, collect and remove spans over the permexp modules."""

    def __init__(self):
        self.spans = []          # (id, parent id, command, name, start, end, self time)
        self.counters = Counter()
        self.command = None
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self._next_id = 0

    # ------------------------------------------------------------------ setup

    def install(self) -> None:
        modules = {name: sys.modules[f"permexp.{name}"] for name in LAYERS}
        wrapped = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) not in _MODULES:
                    continue
                if id(obj) not in wrapped:
                    owner = obj.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self._wrap(obj, owner, obj.__name__)
                self._patch(module, attr, wrapped[id(obj)])
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isclass(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and "__init__" in vars(obj)
                        and not issubclass(obj, BaseException)):
                    self._patch(obj, "__init__", self._wrap(obj.__init__, layer, attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------ spans

    def _wrap(self, fn, layer: str, fname: str):
        name = f"{layer}.{fname}"
        observe = _OBSERVERS.get(fname)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = _Frame(sid)
            stack.append(frame)
            before = _bytes_before(fname, args, kwargs)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame.child
                tracer.spans.append((sid, parent.sid if parent else None, tracer.command,
                                     name, start, end, own))
                c = tracer.counters
                c[f"{layer}.calls"] += 1
                c[f"{layer}.self_s"] += own
                if observe is not None:
                    observe(c, args, kwargs, result, error, duration, own, before)
                if parent is not None:
                    # the bookkeeping above is charged to no layer's self time
                    parent.child += time.perf_counter() - start

        return span

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: id, parent, command, name, start, end, self."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------- counters


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _bytes_before(fname, args, kwargs):
    if fname not in WRITERS:
        return None
    dest = _arg(args, kwargs, 1, "path_or_stream")
    return dest.tell() if hasattr(dest, "write") else 0


def _observe_ipfp(log_range):
    """Counter for an IPFP kernel; log_range gives the exponent range of its kernel."""
    def observe(c, args, kwargs, result, error, duration, own, before):
        res = result if error is None else getattr(error, "result", None)
        if res is None:
            return
        k = res.grid.k
        c["ipfp.kernel_calls"] += 1
        c["ipfp.sweeps"] += res.iterations
        c["ipfp.cell_sweeps"] += res.iterations * k * k
        if log_range(args, kwargs, k) > LOG_DOMAIN_RANGE:
            c["ipfp.log_domain_calls"] += 1
    return observe


def _limit_matrix_range(args, kwargs, k) -> float:
    f = _arg(args, kwargs, 0, "f")
    theta = float(_arg(args, kwargs, 1, "theta"))
    t = np.arange(1, k + 1) / k
    return float(np.ptp(theta * f(t[:, None], t[None, :])))


def _ipfp_scale_range(args, kwargs, k) -> float:
    return float(np.ptp(np.log(np.asarray(_arg(args, kwargs, 0, "b0"), dtype=np.float64))))


def _observe_fit(c, args, kwargs, result, error, duration, own, before):
    c["estimators.fits"] += 1
    if error is None:
        c["estimators.root_evals"] += result.evaluations
    elif type(error).__name__ == "NoRootError":
        c["estimators.no_root"] += 1
        c["estimators.root_evals"] += error.evaluations


def _observe_pairs(c, args, kwargs, result, error, duration, own, before):
    c["estimators.pair_scores_calls"] += 1
    c["estimators.pair_scores_s"] += duration


def _observe_read(c, args, kwargs, result, error, duration, own, before):
    c["io.read_calls"] += 1
    c["io.read_s"] += own


def _observe_write(c, args, kwargs, result, error, duration, own, before):
    dest = _arg(args, kwargs, 1, "path_or_stream")
    if hasattr(dest, "write"):
        written = dest.tell() - before
    else:
        written = os.path.getsize(dest)
    c["io.write_bytes"] += written
    c["io.write_s"] += own


def _observe_sample(c, args, kwargs, result, error, duration, own, before):
    model = _arg(args, kwargs, 0, "model")
    n_samples = _arg(args, kwargs, 1, "n_samples")
    burn = _arg(args, kwargs, 2, "burn")
    thin = _arg(args, kwargs, 3, "thin")
    sampler = _arg(args, kwargs, 4, "sampler", "swap")
    if sampler != "swap" or burn is None or thin is None or error is not None:
        return
    if type(model).__name__ == "KendallModel":
        kind = "kendall"
    elif model.n > SWAP_MATRIX_MAX_N:
        kind = "wide"
    else:
        kind = model.f.name
    c[f"mcmc.swap_{kind}_steps"] += burn + n_samples * max(1, thin)
    c[f"mcmc.swap_{kind}_s"] += own


def _observe_aux(c, args, kwargs, result, error, duration, own, before):
    c["mcmc.aux_sweeps"] += 1
    c["mcmc.aux_s"] += duration


_OBSERVERS = {
    "limit_matrix": _observe_ipfp(_limit_matrix_range),
    "ipfp_scale": _observe_ipfp(_ipfp_scale_range),
    **{name: _observe_fit for name in FIT_FUNCTIONS},
    **{name: _observe_read for name in READERS},
    **{name: _observe_write for name in WRITERS},
    "pairwise_swap_scores": _observe_pairs,
    "sample": _observe_sample,
    "auxiliary_gibbs_sweep": _observe_aux,
}


def layer_metrics(counters: Counter, passes: int) -> dict:
    """Per-pass layer metrics from the counters of ``passes`` traced passes."""
    c = counters
    per = 1.0 / max(1, passes)

    def ratio(num, den, scale=1.0):
        return scale * c[num] / c[den] if c[den] else 0.0

    m = {
        "cli.self_s": c["cli.self_s"] * per,
        "io.read_calls": c["io.read_calls"] * per,
        "io.read_s": c["io.read_s"] * per,
        "io.write_bytes": c["io.write_bytes"] * per,
        "io.write_s": c["io.write_s"] * per,
        "ipfp.calls": c["ipfp.kernel_calls"] * per,
        "ipfp.sweeps": c["ipfp.sweeps"] * per,
        "ipfp.cell_sweeps": c["ipfp.cell_sweeps"] * per,
        "ipfp.self_s": c["ipfp.self_s"] * per,
        "ipfp.ns_per_cell_sweep": ratio("ipfp.self_s", "ipfp.cell_sweeps", 1e9),
        "ipfp.log_domain_share": ratio("ipfp.log_domain_calls", "ipfp.kernel_calls"),
        "grids.calls": c["grids.calls"] * per,
        "grids.self_s": c["grids.self_s"] * per,
        "estimators.fits": c["estimators.fits"] * per,
        "estimators.root_evals": c["estimators.root_evals"] * per,
        "estimators.evals_per_fit": ratio("estimators.root_evals", "estimators.fits"),
        "estimators.self_s": c["estimators.self_s"] * per,
        "estimators.pair_scores_calls": c["estimators.pair_scores_calls"] * per,
        "estimators.pair_scores_s": c["estimators.pair_scores_s"] * per,
        "estimators.no_root": c["estimators.no_root"] * per,
        "models.calls": c["models.calls"] * per,
        "models.self_s": c["models.self_s"] * per,
        "mcmc.self_s": c["mcmc.self_s"] * per,
        "perm.calls": c["perm.calls"] * per,
        "perm.self_s": c["perm.self_s"] * per,
    }
    for kind in ("xy", "footrule", "kendall", "wide"):
        m[f"mcmc.swap_{kind}_steps_per_s"] = ratio(f"mcmc.swap_{kind}_steps",
                                                   f"mcmc.swap_{kind}_s")
    m["mcmc.aux_sweeps_per_s"] = ratio("mcmc.aux_sweeps", "mcmc.aux_s")
    return m
