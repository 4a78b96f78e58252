"""The package namespace: every name `wres/__init__.py` imports."""

import ast
import importlib
import os

import wres

INIT = os.path.join(os.path.dirname(__file__), os.pardir, "src", "wres", "__init__.py")


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
