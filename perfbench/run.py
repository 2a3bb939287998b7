"""permexp benchmark: fit, limit and sample workloads through the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit|limit|sample --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

The program under test is ``src/permexp`` of the same checkout; nothing
else is imported for it, and the run stops with exit code 2 when that
tree is missing.  Set-up (``setup_s``) is the import of ``permexp.cli``
in a fresh interpreter: one untimed import compiles the bytecode, then
the median is taken over several fresh-interpreter imports, each scaled
to the machine's quiet speed (``gauge.py``).  The workload itself runs
in one more fresh interpreter (``client.py``).

Stdout holds a table of every metric with its unit, the environment, and
as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The full record, environment
included, is also written to ``perfbench/work/``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "work")
REQUIRED = (os.path.join(ROOT, "src", "permexp", "cli.py"),
            os.path.join(ROOT, "data", "draft_lottery_1970.csv"))
SETUP_PROBES = {"full": 4, "tiny": 1}
DEADLINE_S = 170.0


def _units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def probe_setup(timeout):
    """Import time of permexp.cli in a fresh interpreter: (raw, scaled to quiet speed)."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "client.py"), "--probe"],
                         capture_output=True, text=True, timeout=timeout, check=True)
    raw, scaled = out.stdout.split()
    return float(raw), float(scaled)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("fit", "limit", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SETUP_PROBES), default="full",
                        help="tiny: a small input for testing the benchmark itself")
    args = parser.parse_args()
    began = time.monotonic()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"error: program under test not found: {', '.join(missing)}", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    probe_setup(timeout=DEADLINE_S)  # compiles the bytecode of a fresh checkout
    setups = [probe_setup(timeout=DEADLINE_S - (time.monotonic() - began))
              for _ in range(SETUP_PROBES[args.size])]
    cmd = [sys.executable, os.path.join(HERE, "client.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", WORKDIR]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=DEADLINE_S - (time.monotonic() - began))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: benchmark client exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    setups.append((record["setup_raw_s"], record["setup_s"]))

    metrics = record["metrics"]
    section = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
    units = _units(section)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, setup_samples=setups)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(WORKDIR, name), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['passes']}  commands timed {record['commands']}  "
          f"setup samples {len(setups)}  speed factor {record['speed_factor']:.3f}")
    for metric, unit in units.items():
        print(f"  {metric:34s} {metrics[metric]:.6g} {unit}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'failed_ratio':34s} {ratio:.6g} ratio ({record['failed']}/{record['attempted']})")
    for error in record["errors"]:
        print(f"  FAILED {error}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
