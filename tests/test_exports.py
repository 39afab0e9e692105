"""Every exported name resolves, and importing the package stays cheap.

A name left in a module's ``__all__`` after its function is deleted makes
``from otafl.<module> import *`` raise; a name the package re-exports that
its module no longer declares public is a stale export of another kind.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import otafl

MODULES = ["otafl"] + [f"otafl.{m.name}" for m in pkgutil.iter_modules(otafl.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
    if name == "otafl":
        # the package's public names are each declared by the module that defines them
        for attr, value in vars(otafl).items():
            if attr.startswith("_") or inspect.ismodule(value):
                continue
            home = importlib.import_module(value.__module__)
            assert attr in home.__all__, f"otafl.{attr} is not in {home.__name__}.__all__"


def test_import_leaves_numpy_random_unloaded():
    # importing numpy.random adds ~14 ms to every import of otafl; the
    # engine's generator code makes what it needs from it on first use
    code = "import sys, otafl; print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    env = {**os.environ, "PYTHONPATH": str(Path(otafl.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
