"""The mutation table in tools/mutants.py stays in step with the code:
each old text occurs once in its file and each named test exists.  The
mutants themselves run only through the tool."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

MUTANTS = {mutant.name: mutant for mutant in mutants.MUTANTS}


def test_mutant_names_are_distinct():
    assert len(MUTANTS) == len(mutants.MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS)
def test_mutant_applies_once_and_still_parses(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    ast.parse(text.replace(mutant.old, mutant.new))


def _test_functions(path):
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS)
def test_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test in mutant.tests:
        path, function = test.split("::")
        assert function in _test_functions(path), test
