import importlib
import pkgutil

import pytest

import tbdkit

MODULES = ["tbdkit"] + [f"tbdkit.{m.name}" for m in pkgutil.iter_modules(tbdkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted would break
    # `from tbdkit.<module> import *` and nothing else
    module = importlib.import_module(name)
    for sub in MODULES[1:]:
        importlib.import_module(sub)  # the package root exports its submodules
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
