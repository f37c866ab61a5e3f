"""Every charsum module imports on its own in a fresh interpreter, before
the package's __init__ runs, so an import cycle between two modules
shows whichever of them is loaded first.  Only `angles` reads the table
of p-th roots of unity; every other module goes through its kernels."""

import ast
import subprocess
import sys
from importlib.util import find_spec
from pathlib import Path

import pytest

PACKAGE = Path(find_spec("charsum").submodule_search_locations[0])
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

LOAD_ALONE = """
import importlib, sys, types
pkg = types.ModuleType("charsum")
pkg.__path__ = [sys.argv[1]]
sys.modules["charsum"] = pkg
importlib.import_module("charsum." + sys.argv[2])
"""


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    r = subprocess.run([sys.executable, "-c", LOAD_ALONE, str(PACKAGE), name],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


@pytest.mark.parametrize("name", MODULES)
def test_only_angles_calls_unit_roots(name):
    tree = ast.parse((PACKAGE / (name + ".py")).read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "unit_roots" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))]
    assert name == "angles" or not calls, calls
