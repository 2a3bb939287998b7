import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import permexp

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
