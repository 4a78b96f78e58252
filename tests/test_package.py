"""The package namespace: every name `wres/__init__.py` imports, and the
exact path's independence of floats and of the oracle."""

import ast
import importlib
import os
import sys

import pytest

import wres

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "wres")
INIT = os.path.join(SRC, "__init__.py")

# The exact path, and the two methods through which its values reach the
# oracle's floats.
EXACT_MODULES = (
    "exact", "clifford", "rational", "jets", "boundary", "interior", "baselines"
)
FLOAT_BRIDGES = {("GaussianRational", "to_complex"), ("Poly", "eval_numeric")}


def _reexports():
    with open(INIT, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1, "the package re-exports only its own modules"
            for alias in node.names:
                yield node.module, alias.asname or alias.name, alias.name


def test_every_reexport_resolves_to_its_defining_object():
    names = list(_reexports())
    assert len(names) > 50
    for module_name, exported, original in names:
        module = importlib.import_module(f"wres.{module_name}")
        assert hasattr(wres, exported), f"wres.{exported} is missing"
        obj = getattr(wres, exported)
        assert obj is getattr(module, original), exported
        # functions and classes are re-exported from where they are defined
        defined_in = getattr(obj, "__module__", None)
        if isinstance(defined_in, str):
            assert defined_in == module.__name__, exported


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
