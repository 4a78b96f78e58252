"""Byte-identity manifest: one line per command of a fixed command list.

    python3 tools/outputs.py > outputs.txt

Each command runs in process through `wres.cli.main`, from this
checkout's own `src/`, with WRES_THREADS=1, and prints one line

    md5(stdout|stderr) exit argv

so two checkouts print the same manifest exactly when every command
prints the same bytes and exits the same way.  To compare a change with
its parent, copy this file into a second checkout of the parent and diff
the two manifests.

The list holds every boundary pair, every interior variant at n = 4, 6
and 8 and the five n=6 case rows, each in every form and both
conventions; the identities and crosscheck commands in both of their
forms; the 64-scenario n=4 crosscheck; and a case tuple that is no row,
a usage error.  `tests/test_outputs.py` checks, without running
anything, that every command parses and validates and that the list
keeps that coverage.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_FORMS = ("json", "latex", "text")
_CONVENTIONS = ((), ("--independent-dual",))
_PAIRS = ((4, "Dv", "Dv"), (4, "DvStar", "DvStar"), (4, "Dv", "DvStar"), (6, "Dv", "D3"))
_VARIANTS = ("Dv2", "DvStar2", "DvStarDv")
_ROWS_6 = ("-1,-3,0,0,1", "-1,-3,0,1,0", "-1,-3,1,0,0", "-1,-4,0,0,0", "-2,-3,0,0,0")


def _pair(command: str, dim: int, left: str, right: str) -> tuple:
    return (command, "--dim", str(dim), "--left", left, "--right", right)


def _crosscheck(dim, left, right, scenarios, seed, emit, *flags) -> tuple:
    tail = ("--scenarios", str(scenarios), "--seed", str(seed), "--emit", emit)
    return _pair("crosscheck", dim, left, right) + tail + flags


COMMANDS = (
    tuple(
        _pair("boundary", *pair) + ("--emit", emit, *conv)
        for conv in _CONVENTIONS
        for pair in _PAIRS
        for emit in _FORMS
    )
    + tuple(
        ("interior", "--dim", str(dim), "--op", op, "--emit", emit, *conv)
        for conv in _CONVENTIONS
        for dim in (4, 6, 8)
        for op in _VARIANTS
        for emit in _FORMS
    )
    + tuple(
        _pair("case", 6, "Dv", "D3") + (f"--tuple={row}", "--emit", emit, *conv)
        for conv in _CONVENTIONS
        for row in _ROWS_6
        for emit in _FORMS
    )
    + (
        ("identities", "--dim", "4"),
        ("identities", "--dim", "6"),
        ("identities", "--dim", "4", "--emit", "json", "--independent-dual"),
        ("identities", "--dim", "6", "--seed", "5", "--emit", "json"),
        _crosscheck(4, "Dv", "DvStar", 16, 0, "json"),
        _crosscheck(4, "Dv", "DvStar", 16, 0, "text"),
        _crosscheck(4, "Dv", "Dv", 4, 9, "json", "--independent-dual"),
        _crosscheck(4, "Dv", "DvStar", 4, 9, "json", "--independent-dual"),
        _crosscheck(4, "Dv", "DvStar", 4, 9, "text", "--independent-dual"),
        _crosscheck(6, "Dv", "D3", 1, 3, "json"),
        _crosscheck(4, "Dv", "DvStar", 64, 0, "json"),
        _pair("case", 6, "Dv", "D3") + ("--tuple=0,0,0,0,0", "--emit", "json"),
    )
)


def manifest_line(main, argv: tuple) -> str:
    """Run one command through main and describe what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    digest = hashlib.md5(f"{out.getvalue()}|{err.getvalue()}".encode()).hexdigest()
    return f"{digest} {code} {' '.join(argv)}"


def main() -> int:
    os.environ["WRES_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from wres.cli import main as cli_main

    for argv in COMMANDS:
        print(manifest_line(cli_main, argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
