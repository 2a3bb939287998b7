"""One benchmark client: a fresh interpreter that drives ``permexp.cli.main``.

The first thing it does is import ``permexp.cli`` from the checkout's
``src`` and time that import (the set-up every CLI invocation pays).
With ``--probe`` it prints that time, raw and scaled to the machine's
quiet speed, and exits.  Otherwise it builds the workload's inputs from
the seed and runs its command list as a closed loop with one client:
each argv list is passed to ``permexp.cli.main`` after the previous one
returned, stdout is captured, and every output is checked.  Passes of
the list repeat until ``--seconds`` is used up.  Each latency is scaled
to the machine's quiet speed (``gauge.py``), and a command's latency is
its median over passes.  With ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics come from the traced ones.  The last
line of stdout is one JSON object for ``run.py``.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
_t0 = time.perf_counter()
import permexp.cli  # noqa: E402  (timed: must precede every other import)

SETUP_S = time.perf_counter() - _t0

import statistics  # noqa: E402

import gauge  # noqa: E402

# Canaries taken right after the import, to scale SETUP_S.
SETUP_CANARIES = 5

if sys.argv[1:] == ["--probe"]:
    canaries = [gauge.canary() for _ in range(SETUP_CANARIES)]
    print(SETUP_S, SETUP_S * gauge.NOMINAL_S / statistics.median(canaries))
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, lottery_command  # noqa: E402


class Runner:
    """Runs commands, checks outputs, and keeps failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._digests = {}

    def run(self, index, command) -> tuple:
        """Run one command; return its start time and latency in seconds."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.command = index
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = permexp.cli.main(command.argv)
        except Exception:
            rc = None
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if error is None and rc != 0:
            error = f"exit code {rc}: {err.getvalue().strip()[:300]}"
        if error is None:
            error = self._verify(command, out.getvalue())
        if error is not None:
            self.failed += 1
            self.errors.append(f"{command.label}: {error}")
        return start, latency

    def _verify(self, command, stdout):
        """Check the first output of a command; later passes must repeat it exactly."""
        digest = hashlib.sha256(stdout.encode())
        for path in command.outputs:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        digest = digest.hexdigest()
        previous = self._digests.get(command.label)
        if previous is not None:
            return None if digest == previous else "output differs from the first pass"
        try:
            problem = command.check(stdout)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem is None:
            self._digests[command.label] = digest
        return problem


def blas_threads():
    """Thread count of the BLAS numpy loaded, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": blas_threads(),
    }


def run_passes(commands, seconds, runner, tracer, speed):
    """Repeat the command list until the time is used; alternate tracing if given.

    Returns the (start, latency) pairs of the untraced and of the traced
    passes, one list per pass.  The last pass is the one that ends
    nearest to ``seconds``.  Canaries run between commands, outside every
    latency.
    """
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(plain)
        if trace_this:
            tracer.install()
        try:
            pass_start = time.perf_counter()
            timings = []
            for i, command in enumerate(commands):
                speed.maybe_sample()
                timings.append(runner.run(i, command))
            speed.sample()
            last = time.perf_counter() - pass_start
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else plain).append(timings)
        done = time.perf_counter() - started
        need_traced = tracer is not None and not traced
        if not need_traced and done + last / 2 > seconds:
            return plain, traced


def command_latencies(passes, commands, speed=None):
    """Median latency of each command over the passes, scaled by the gauge if given."""
    def scaled(start, latency):
        return latency if speed is None else latency * speed.factor(start, start + latency)
    return {c.label: statistics.median(scaled(*p[i]) for p in passes)
            for i, c in enumerate(commands)}


def end_to_end(latency, commands):
    counted = sorted(latency[c.label] for c in commands if c.counted)
    # inclusive: with a short command list the 90th percentile interpolates
    # between the two slowest commands instead of extrapolating past them
    cuts = (statistics.quantiles(counted, n=10, method="inclusive")
            if len(counted) > 1 else counted * 9)
    metrics = {
        "wall_s": sum(counted),
        "cmd_p50_s": statistics.median(counted),
        "cmd_p90_s": cuts[8],
    }
    if "lottery" in latency:
        metrics["lottery_s"] = latency["lottery"]
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    speed = gauge.Gauge()
    for _ in range(SETUP_CANARIES):
        speed.sample()
    setup_scaled = SETUP_S * gauge.NOMINAL_S / statistics.median(speed.values)

    workdir = os.path.join(args.workdir, args.workload)
    os.makedirs(workdir, exist_ok=True)
    commands = WORKLOADS[args.workload](args.seed, SIZES[args.size], ROOT, workdir)
    if not args.trace and not any(c.label == "lottery" for c in commands):
        # timed for lottery_s only; kept out of wall_s and the percentiles
        commands.append(lottery_command(ROOT, counted=False))
    tracer = Tracer() if args.trace else None
    runner = Runner(tracer)
    plain, traced = run_passes(commands, args.seconds, runner, tracer, speed)

    latency = command_latencies(plain, commands, speed)
    result = {
        "env": environment(),
        "setup_raw_s": SETUP_S,
        "setup_s": setup_scaled,
        "passes": len(plain),
        "commands": sum(c.counted for c in commands),
        "speed_factor": gauge.NOMINAL_S / statistics.median(speed.values),
        "latencies": latency,
    }
    wall_s = end_to_end(latency, commands)["wall_s"]
    if args.trace:
        traced_wall = end_to_end(command_latencies(traced, commands, speed), commands)["wall_s"]
        metrics = layer_metrics(tracer.counters, len(traced))
        metrics["trace.overhead_ratio"] = traced_wall / wall_s - 1.0
        result["traced_passes"] = len(traced)
        result["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(workdir, f"spans-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(latency, commands)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["unscaled"] = end_to_end(command_latencies(plain, commands), commands)
    result.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  errors=runner.errors[:20], timings=plain,
                  canaries=list(zip(speed.times, speed.values)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
