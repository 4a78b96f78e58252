"""The exact path's independence of floats and of the oracle: its modules
import only the standard library and each other, hold no float, and load
neither numpy nor scipy when imported."""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "wres")

# The exact path, and the two methods through which its values reach the
# oracle's floats.
EXACT_MODULES = (
    "exact", "clifford", "rational", "jets", "boundary", "interior", "baselines"
)
FLOAT_BRIDGES = {("GaussianRational", "to_complex"), ("Poly", "eval_numeric")}


# Imports each exact-path module in turn and prints the first after whose
# import numpy or scipy is loaded, or nothing.
_IMPORT_PROBE = """
import importlib, sys
for module in sys.argv[1:]:
    importlib.import_module("wres." + module)
    if "numpy" in sys.modules or "scipy" in sys.modules:
        print(module)
        break
"""


def test_exact_path_loads_no_numpy_or_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *EXACT_MODULES],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(os.path.dirname(SRC))),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_path_imports_no_oracle_and_holds_no_float(module):
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    exempt = {
        id(node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if (cls.name, getattr(method, "name", None)) in FLOAT_BRIDGES
        for node in ast.walk(method)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.level == 1 and node.module in EXACT_MODULES, node.module
            else:
                assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif id(node) in exempt:
            continue
        elif isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), (module, node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id not in ("float", "complex"), (module, node.lineno)
