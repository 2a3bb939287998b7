"""Smoke test of the benchmark itself, at the tiny input size.

Run from the root of a checkout:  python3 -m pytest perfbench/test_smoke.py
Every workload runs once untraced and once traced for one second; the
output must name every metric of BENCHMARK.json with its unit, and no
command may fail.  A copy holding only BENCHMARK.json and this directory
must make the benchmark exit non-zero without a result.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_nothing_fails(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    table = {parts[0]: parts[1:3] for parts in (line.split() for line in lines[:-1])
             if len(parts) >= 3 and line_is_metric(parts)}
    for m in declared:
        assert table[m["name"]][1] == m["unit"], (m, table.get(m["name"]))
    assert table["failed_ratio"][0] == "0", proc.stdout


def line_is_metric(parts):
    try:
        float(parts[1])
    except ValueError:
        return False
    return True


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = _run(tmp_path, "fit", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
