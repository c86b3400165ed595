import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import tbdkit

MODULES = ["tbdkit"] + [f"tbdkit.{m.name}" for m in pkgutil.iter_modules(tbdkit.__path__)]
SOURCES = sorted(Path(tbdkit.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted would break
    # `from tbdkit.<module> import *` and nothing else
    module = importlib.import_module(name)
    for sub in MODULES[1:]:
        importlib.import_module(sub)  # the package root exports its submodules
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def _unused_imports(source):
    """Names a module imports and never reads: no Name node of the parsed
    source loads them (annotations included) and __all__ does not list
    them."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


def test_unused_import_detector_sees_each_form():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport os.path\nfrom math import pi, tau as t\n"
        "__all__ = ['pi']\n"
        "def f(x: np.ndarray):\n    return x\n"
    )
    assert _unused_imports(source) == ["os", "os", "t"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    # a deletion that leaves an import behind shows here
    assert _unused_imports(path.read_text()) == []
