import importlib
import pkgutil

import pytest

import permexp

MODULES = [info.name for info in pkgutil.iter_modules(permexp.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"permexp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
