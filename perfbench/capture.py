"""Regenerate the benchmark's expected outputs in data/.

    python3 perfbench/capture.py [--src DIR]

Runs every exact command of every workload, plus one oracle run over
scenario seeds 0 .. CAPTURED_SCENARIOS - 1, through `wres.cli.main`
with the wres package under DIR (default: this checkout's src/), and
stores each stdout with its exit code.  Capture from the commit the
benchmark is meant to pin: the outputs are the correctness reference
of every later run.

Before writing, the boundary and interior outputs are cross-checked
against the frozen reference table in `wres.baselines`: every
dimension-four value must agree, and dimension six must disagree in
exactly the three recorded places, with exit code 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

N6_DISCREPANCIES = [
    "case (-1, -4, 0, 0, 0)",
    "case (-2, -3, 0, 0, 0)",
    "boundary total",
]


def run_cli(cli, argv) -> tuple[int, str]:
    real = sys.stdout
    sys.stdout = io.StringIO()
    try:
        code = cli.main(list(argv))
        return code, sys.stdout.getvalue()
    finally:
        sys.stdout = real


def baseline_labels(argv: tuple, text: str) -> list[str] | None:
    """Labels where the output disagrees with wres.baselines, or None if
    no reference is on record for the command."""
    from wres import baselines
    from wres.cli import parse_report

    report = parse_report(text)
    dim = report.meta["dim"]
    dual = report.meta["dual"]
    if argv[0] == "boundary":
        left, right = report.meta["operators"]
        reference = baselines.boundary_reference(dim, left, right, dual=dual)
        if reference is None:
            return None
        ref_cases, ref_total = reference
        labels = [
            f"case {case.as_tuple()}"
            for case, value in report.cases
            if case.as_tuple() in ref_cases and value != ref_cases[case.as_tuple()]
        ]
        if report.total != ref_total:
            labels.append("boundary total")
        return labels
    (op,) = report.meta["operators"]
    expected = baselines.interior_reference(dim, op, dual=dual)
    if expected is None:
        return None
    return [] if report.total == expected else ["interior total"]


def cross_check(command, code: int, text: str) -> None:
    labels = baseline_labels(command.argv, text)
    reported = [d["label"] for d in json.loads(text)["discrepancies"]]
    if labels is not None and labels != reported:
        raise SystemExit(f"{command.data}: baselines give {labels}, cli reported {reported}")
    want = N6_DISCREPANCIES if command.argv[:3] == ("boundary", "--dim", "6") else []
    if reported != want or code != (1 if want else 0):
        raise SystemExit(f"{command.data}: exit {code}, discrepancies {reported}, expected {want}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"))
    args = parser.parse_args(argv)
    os.environ["WRES_THREADS"] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    import wres.cli as cli

    exact = {}
    for workload in workloads.WORKLOADS:
        for command in workloads.commands(workload, 0):
            if command.kind == "exact":
                exact[command.data] = command
    os.makedirs(workloads.DATA_DIR, exist_ok=True)
    exit_codes = {}
    for name, command in exact.items():
        code, text = run_cli(cli, command.argv)
        cross_check(command, code, text)
        exit_codes[name] = code
        with open(os.path.join(workloads.DATA_DIR, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"{name}: exit {code}, {len(text)} bytes", flush=True)

    oracle = workloads.crosscheck_command(0, workloads.CAPTURED_SCENARIOS)
    code, text = run_cli(cli, oracle.argv)
    failed = [row for row in json.loads(text)["rows"] if not row["passed"]]
    if code != 0 or failed:
        raise SystemExit(f"oracle run failed: exit {code}, {len(failed)} rows failed")
    exit_codes[oracle.data] = code
    with open(os.path.join(workloads.DATA_DIR, oracle.data), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"{oracle.data}: exit {code}, {len(text)} bytes", flush=True)

    with open(os.path.join(workloads.DATA_DIR, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"exit_codes": exit_codes}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
