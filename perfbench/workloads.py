"""The benchmark's workloads, their expected outputs and output checks.

Every workload is a closed-loop session of wres CLI commands run in one
fresh interpreter: each command starts when the previous one returns.
Exact commands must reproduce, byte for byte, the stdout captured from
the engine (`data/`, regenerated by `capture.py`).  The oracle command
is checked by its rows: same (scenario seed, case) set, every row
passed, and `exact`/`numeric` within the command's tolerance of the
captured run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

BOUNDARY4_PAIRS = (("Dv", "Dv"), ("DvStar", "DvStar"), ("Dv", "DvStar"))
INTERIOR_VARIANTS = ("Dv2", "DvStar2", "DvStarDv")
DRIFT_CONVENTIONS = ((), ("--independent-dual",))

# crosscheck4 runs CROSSCHECK_SCENARIOS consecutive scenario seeds; the
# captured oracle run covers scenario seeds 0 .. CAPTURED_SCENARIOS - 1.
CROSSCHECK_SCENARIOS = 12
CAPTURED_SCENARIOS = 64
CROSSCHECK_TOLERANCE = 1e-6
CROSSCHECK_DATA = "crosscheck-4-Dv-DvStar.json"

WORKLOADS = ("boundary6", "tables4", "interior6", "crosscheck4")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the name of its expected-output file."""

    argv: tuple
    data: str
    kind: str  # "exact" or "crosscheck"


def boundary_command(dim: int, left: str, right: str, dual: tuple = ()) -> Command:
    argv = ("boundary", "--dim", str(dim), "--left", left, "--right", right)
    argv += ("--emit", "json") + dual
    name = f"boundary-{dim}-{left}-{right}{'-indep' if dual else ''}.json"
    return Command(argv, name, "exact")


def interior_command(dim: int, op: str, dual: tuple = ()) -> Command:
    argv = ("interior", "--dim", str(dim), "--op", op, "--emit", "json") + dual
    name = f"interior-{dim}-{op}{'-indep' if dual else ''}.json"
    return Command(argv, name, "exact")


def crosscheck_seed(seed: int) -> int:
    """First scenario seed of crosscheck4 for a benchmark seed.

    The window of CROSSCHECK_SCENARIOS seeds always lies inside the
    captured run, so every row has a reference.
    """
    return seed % (CAPTURED_SCENARIOS - CROSSCHECK_SCENARIOS + 1)


def crosscheck_command(seed: int, scenarios: int = CROSSCHECK_SCENARIOS) -> Command:
    argv = ("crosscheck", "--dim", "4", "--left", "Dv", "--right", "DvStar")
    argv += ("--scenarios", str(scenarios), "--seed", str(seed), "--emit", "json")
    return Command(argv, CROSSCHECK_DATA, "crosscheck")


def commands(workload: str, seed: int) -> list[Command]:
    """The command session of one workload; only crosscheck4 uses the seed."""
    if workload == "boundary6":
        return [boundary_command(6, "Dv", "D3")]
    if workload == "tables4":
        out = []
        for dual in DRIFT_CONVENTIONS:
            out += [boundary_command(4, l, r, dual) for l, r in BOUNDARY4_PAIRS]
            out += [interior_command(4, op, dual) for op in INTERIOR_VARIANTS]
        return out
    if workload == "interior6":
        return [
            interior_command(6, op, dual)
            for dual in DRIFT_CONVENTIONS
            for op in INTERIOR_VARIANTS
        ]
    if workload == "crosscheck4":
        return [crosscheck_command(crosscheck_seed(seed))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# expected outputs


def load_expected(data_dir: str = DATA_DIR) -> dict:
    """manifest.json plus every captured stdout it names."""
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    expected = {}
    for name, exit_code in manifest["exit_codes"].items():
        with open(os.path.join(data_dir, name), encoding="utf-8", newline="") as fh:
            expected[name] = (exit_code, fh.read())
    return expected


def _rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) if scale < 1e-8 else abs(a - b) / scale


def _rows_by_key(text: str) -> dict:
    rows = json.loads(text)["rows"]
    return {(row["seed"], tuple(row["case"])): row for row in rows}


def check_crosscheck(argv: tuple, stdout: str, reference: str) -> list[str]:
    """Problems of a crosscheck output against the captured reference run."""
    first = int(argv[argv.index("--seed") + 1])
    count = int(argv[argv.index("--scenarios") + 1])
    try:
        rows = _rows_by_key(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparseable crosscheck output: {exc}"]
    ref = {
        key: row
        for key, row in _rows_by_key(reference).items()
        if first <= key[0] < first + count
    }
    problems = []
    if set(rows) != set(ref):
        problems.append(
            f"row set differs: missing {sorted(set(ref) - set(rows))}, "
            f"extra {sorted(set(rows) - set(ref))}"
        )
    for key in sorted(set(rows) & set(ref)):
        row, want = rows[key], ref[key]
        if row.get("passed") is not True:
            problems.append(f"row {key} did not pass")
        for field in ("exact", "numeric"):
            got = complex(*row[field])
            err = _rel_err(got, complex(*want[field]))
            if err > CROSSCHECK_TOLERANCE:
                problems.append(f"row {key} {field} off by {err:.3e}")
    return problems


def check_output(command: Command, exit_code: int, stdout: str, expected: dict) -> list[str]:
    """Problems of one command's result; an empty list means correct."""
    want_code, want_text = expected[command.data]
    problems = []
    if exit_code != want_code:
        problems.append(f"exit code {exit_code}, expected {want_code}")
    if command.kind == "crosscheck":
        problems += check_crosscheck(command.argv, stdout, want_text)
    elif stdout != want_text:
        problems.append("stdout differs from the captured output")
    return problems


def max_rel_err(command: Command, stdout: str) -> float:
    """Largest oracle relative error a crosscheck reported, else 0."""
    if command.kind != "crosscheck":
        return 0.0
    try:
        return max(row["rel_err"] for row in json.loads(stdout)["rows"])
    except (ValueError, KeyError, TypeError):
        return 0.0
