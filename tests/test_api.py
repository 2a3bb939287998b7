import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import permexp
import permexp.cli
from permexp.io import save_permutation_csv

from conftest import REPO_ROOT

MODULES = [info.name for info in pkgutil.iter_modules(permexp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"permexp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # importing scipy would add about 0.5 s to every command; only the
    # tests use it, as an oracle
    src = str(Path(permexp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import json, sys, permexp, permexp.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == []


def _public_bindings():
    """Every attribute of each permexp module, and each class's own __init__."""
    seen = {}
    for name in MODULES:
        module = importlib.import_module(f"permexp.{name}")
        for attr, obj in vars(module).items():
            seen[(name, attr)] = obj
            if inspect.isclass(obj):
                seen[(name, attr, "__init__")] = vars(obj).get("__init__")
    return seen


def _load_spans():
    path = REPO_ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_cli_reads_ipfp_results(tmp_path, lottery, capsys):
    # the benchmark's --trace 1 mode reads res.grid.k of every IPFP result,
    # IpfpNonConvergence.result included, and counts fits at the estimators
    spans = _load_spans()
    data = tmp_path / "tau.csv"
    save_permutation_csv(lottery.tau(), data)
    before = _public_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [
            permexp.cli.main(["logz", "--theta-min", "0", "--theta-max", "10",
                              "--steps", "2", "--k", "10", "--iters", "1"]),
            permexp.cli.main(["density", "--theta", "2", "--k", "10",
                              "--out", str(tmp_path / "d.csv")]),
        ]
        limit_out = capsys.readouterr().out
        calls_before_fit = tracer.counters["ipfp.kernel_calls"]
        codes.append(permexp.cli.main(["fit", "--method", "ld", "--k", "20",
                                       "--data", str(data)]))
    finally:
        tracer.uninstall()
    fit = json.loads(capsys.readouterr().out)
    assert codes == [0, 0, 0]
    assert limit_out.count(",maxiter") == 1 and limit_out.count(",ok") == 1
    c = tracer.counters
    assert c["ipfp.kernel_calls"] > 0 and c["ipfp.sweeps"] > 0
    assert c["estimators.fits"] == 1
    # every LD evaluation is one IPFP run through limit_matrix
    assert c["ipfp.kernel_calls"] - calls_before_fit == fit["evaluations"]
    after = _public_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_cli_counts_chain_steps(tmp_path):
    # the benchmark's --trace 1 mode counts swap steps per chain kind and
    # auxiliary sweeps at the sample and sweep spans; a chain calls no
    # public function per step, so its spans stay few
    spans = _load_spans()
    chains = [  # (label, model arguments, n, burn, thin, draws, sampler)
        ("wide", ["--model", "linear", "--f", "xy"], 1100, 2000, 500, 2, "swap"),
        ("kendall", ["--model", "kendall"], 30, 1000, 100, 3, "swap"),
        ("aux", ["--model", "linear", "--f", "xy"], 50, 3, 2, 4, "aux"),
    ]
    before = _public_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [permexp.cli.main(["sample"] + model + [
            "--theta", "3", "--n", str(n), "--burn", str(burn), "--thin", str(thin),
            "--draws", str(draws), "--sampler", sampler, "--seed", "5",
            "--out", str(tmp_path / f"{label}.csv")])
            for label, model, n, burn, thin, draws, sampler in chains]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    c = tracer.counters
    assert c["mcmc.swap_wide_steps"] == 2000 + 2 * 500
    assert c["mcmc.swap_kendall_steps"] == 1000 + 3 * 100
    assert c["mcmc.aux_sweeps"] == 3 + 4 * 2
    assert c["mcmc.swap_xy_steps"] == c["mcmc.swap_footrule_steps"] == 0
    assert len(tracer.spans) < 100
    after = _public_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
