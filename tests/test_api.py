import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import permexp
import permexp.cli
import permexp.mcmc

from conftest import REPO_ROOT, save_permutation_csv

MODULES = [info.name for info in pkgutil.iter_modules(permexp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"permexp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _package_uses() -> dict:
    """(module, name) of each top-level definition of the package -> the (module, name) it uses.

    A definition uses a name of its own module that its body reads, a name
    its module imports from another permexp module, and ``module.name``
    for a module imported whole.  ``__init__`` and ``__all__`` use nothing.
    """
    uses = {}
    for path in Path(permexp.__file__).parent.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        defs, imported, modules = {}, {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        imported[local] = (node.module, alias.name)
                    else:
                        modules[local] = alias.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and name.id != "__all__":
                            defs[name.id] = node
        for name, node in defs.items():
            used = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    if sub.id in defs:
                        used.add((path.stem, sub.id))
                    elif sub.id in imported:
                        used.add(imported[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    used.add((modules[sub.value.id], sub.attr))
            uses[(path.stem, name)] = used
    return uses


def _paper_quantities() -> set:
    """The names in the first column of README's Paper quantities table."""
    text = (REPO_ROOT / "README.md").read_text()
    section = text.partition("\n## Paper quantities\n")[2].partition("\n## ")[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M))


def _reached(uses: dict, roots) -> set:
    """The definitions that ``roots`` reach through ``uses``, the roots included."""
    reached = set()
    stack = list(roots)
    while stack:
        key = stack.pop()
        if key not in reached:
            reached.add(key)
            stack.extend(uses.get(key, ()))
    return reached


def test_every_public_name_is_used_or_a_paper_quantity():
    # a public name is reached from the CLI's functions (the commands are
    # looked up by name, so every cli function is a root) or from one of
    # the paper's quantities that README lists with the check of each
    uses = _package_uses()
    paper = _paper_quantities()
    public = [(name, attr) for name in MODULES
              for attr in getattr(importlib.import_module(f"permexp.{name}"), "__all__", ())]
    by_cli = _reached(uses, [key for key in uses if key[0] == "cli"])
    reached = _reached(uses, [*by_cli, *(key for key in public if key[1] in paper)])
    assert [key for key in public if key not in reached] == []
    # each listed quantity is public, and not one the CLI already reaches
    assert paper <= {attr for _, attr in public}
    assert not paper & {attr for _, attr in by_cli}


def test_every_public_member_is_read():
    # each public method or property of a public class is read as `.name`
    # in package code outside its own definition; matching names alone
    # over-approximates the reads, so a member in use is never flagged
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(permexp.__file__).parent.glob("*.py")}
    reads = Counter(node.attr for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    unread = []
    for name, tree in trees.items():
        public = getattr(importlib.import_module(f"permexp.{name}"), "__all__", ())
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in public):
                continue
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    own = sum(isinstance(node, ast.Attribute) and node.attr == member.name
                              for node in ast.walk(member))
                    if reads[member.name] == own:
                        unread.append(f"{name}.{cls.name}.{member.name}")
    assert unread == []


def test_no_instance_skips_its_constructor():
    # Permutation.__init__ checks that its values are a bijection; an
    # instance made by object.__new__ (or any other __new__) would skip it
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(permexp.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__"]
    assert calls == []


def test_cli_import_loads_no_scipy():
    # importing scipy would add about 0.5 s to every command; only the
    # tests use it, as an oracle.  numpy.fft (about 1.3 ms) is reached as
    # np.fft on the IPFP's convolution path alone, so no import loads it
    src = str(Path(permexp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import json, sys, permexp, permexp.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.fft'))))")
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


def _load_perfbench(name, monkeypatch):
    path = REPO_ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass reads its module from sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_swap_chains_run_the_array_execution(monkeypatch):
    # the sample workload's linear swap chains have matchings of n // 2
    # pairs; a move of the cutoff must not quietly switch them to the loop
    workloads = _load_perfbench("workloads", monkeypatch)
    for n in (workloads.FULL.swap_n, workloads.FULL.wide_n):
        assert n // 2 >= permexp.mcmc._MATCHING_MIN_PAIRS


def test_traced_cli_reads_ipfp_results(tmp_path, lottery, capsys, monkeypatch):
    # the benchmark's --trace 1 mode reads res.grid.k of every IPFP result,
    # IpfpNonConvergence.result included, and counts fits at the estimators
    spans = _load_perfbench("spans", monkeypatch)
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


def test_traced_cli_counts_chain_steps(tmp_path, monkeypatch):
    # the benchmark's --trace 1 mode counts swap steps per chain kind and
    # auxiliary sweeps at the sample and sweep spans; a chain calls no
    # public function per step, so its spans stay few
    spans = _load_perfbench("spans", monkeypatch)
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
