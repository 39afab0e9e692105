"""Every exported name resolves.

A name left in a module's ``__all__`` after its function is deleted makes
``from otafl.<module> import *`` raise; a name the package re-exports that
its module no longer declares public is a stale export of another kind.
"""

import importlib
import inspect
import pkgutil

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
