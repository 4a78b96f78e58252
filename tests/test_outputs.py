"""The command list of tools/outputs.py stays valid and complete: every
command parses and validates, and the list covers every supported pair,
every interior variant, every form of each command and both
conventions.  The commands themselves run only through the tool."""

import importlib.util
from pathlib import Path

import pytest

from wres import cli
from wres.boundary import SUPPORTED_PAIRS
from wres.interior import SQUARE_VARIANTS

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)

SPECS = {" ".join(argv): cli.build_spec(cli._PARSER.parse_args(argv)) for argv in outputs.COMMANDS}


def test_commands_are_distinct():
    assert len(SPECS) == len(outputs.COMMANDS)


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS)
def test_command_passes_validation(spec):
    cli._validate(spec)


def _specs(command):
    return [spec for spec in SPECS.values() if spec.command == command]


def test_commands_cover_every_pair_and_variant():
    assert {(s.dim, s.left, s.right) for s in _specs("boundary")} == SUPPORTED_PAIRS
    assert {s.op for s in _specs("interior")} == set(SQUARE_VARIANTS)


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_commands_cover_every_form_and_both_conventions(command):
    specs = _specs(command)
    assert {s.emit for s in specs} == set(cli._COMMANDS[command].emits)
    assert {s.dual for s in specs} == {True, False}
