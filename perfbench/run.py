"""Cold end-to-end benchmark of the wres CLI, with an optional layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload is a fresh interpreter (child.py) that
imports `wres.cli` from this checkout's src/ and runs the workload's
command session through `wres.cli.main`, closed loop, single process,
one thread.  Repetitions continue while the next one is expected to end
within --seconds (there is always at least one).  Every output is
checked against data/; a wrong exit code or output counts as a failed
command and never aborts the run.

--trace 0 reports the end-to-end metrics (medians over repetitions):
  wall_s       import of wres.cli done -> last command's output
  setup_s      interpreter spawn -> import of wres.cli done; the
               repetitions plus import-only spawns give SETUP_SAMPLES
  peak_rss_mb  peak resident memory of the child
--trace 1 runs the workload once untraced and once traced and reports
the per-layer metrics, including trace.overhead_ratio; spans go to
.bench_out/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  --all runs every workload in turn, prints a table and writes
.bench_out/summary.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYERS, POLE_EVAL

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0

# One engine thread and one BLAS thread.  With the default pool of
# cpu_count() workers and unpinned BLAS, crosscheck on a 2-core machine
# ran slower (10.6-11.2 s against 8.3-9.0 s) with identical output: the
# pool only adds oversubscription noise to a one-session latency
# benchmark.  The hash seed is pinned so set and dict iteration order,
# and with it the work done, is the same in every run.
PINNED_ENV = {
    "WRES_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Traced keys reported per layer: the fields reported for each, and the
# workloads on which it must record calls.  "baselines" is the whole layer.
ALL = set(workloads.WORKLOADS)
EXACT = {"boundary6", "tables4", "interior6"}
BOUNDARY = {"boundary6", "tables4", "crosscheck4"}
ORACLE = {"crosscheck4"}
LAYER_KEYS = {
    "exact.poly_mul": (("calls", "s"), ALL),
    "exact.poly_add": (("calls", "s"), ALL),
    "exact.sphere_normal_form": (("calls", "s"), BOUNDARY),
    "clifford.matmul": (("calls", "s"), ALL),
    "interior.curvature_term": (("calls", "s"), {"tables4", "interior6"}),
    "rational.canon": (("calls", "s"), BOUNDARY),
    "rational.matmul": (("calls", "s"), BOUNDARY),
    "rational.pi_plus": (("calls", "s"), BOUNDARY),
    "rational.line_integral": (("calls", "s"), BOUNDARY),
    "rational.sphere_integrate": (("calls", "s"), BOUNDARY),
    "jets.inverse_symbols": (("calls", "s"), BOUNDARY),
    "boundary.evaluate_case": (("calls", "s"), BOUNDARY),
    "numcheck.fiber_build": (("calls", "s"), ORACLE),
    "numcheck.pole_expansion": (("calls", "s"), ORACLE),
    POLE_EVAL: (("calls",), ORACLE),
    "numcheck.line_quad": (("calls", "s"), ORACLE),
    "baselines": (("s",), EXACT),
    "cli.emit": (("s",), ALL),
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


# ---------------------------------------------------------------------------
# one child interpreter


def run_child(commands: list, trace: bool, deadline: float) -> dict:
    """Spawn child.py, run the session, return its result plus timings."""
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONPATH", None)
    job = json.dumps({"src": SRC, "commands": [list(c) for c in commands], "trace": trace})
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=HERE,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(job, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child exceeded the run deadline")
    t_exit = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()}")
    result = json.loads(out)
    result["setup_s"] = result["t_import"] - t_spawn
    result["wall_s"] = result["t_end"] - result["t_import"]
    result["rep_s"] = t_exit - t_spawn
    return result


def check_results(commands: list, result: dict, expected: dict) -> list[list[str]]:
    """The problems of each command of one session, in command order."""
    out = []
    for command, res in zip(commands, result["results"]):
        problems = workloads.check_output(command, res["exit"], res["stdout"], expected)
        if res.get("error"):
            problems.insert(0, res["error"])
        out.append([f"{' '.join(command.argv)}: {p}" for p in problems])
    return out


# ---------------------------------------------------------------------------
# measuring one workload


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "seed": seed,
        "pinned_env": PINNED_ENV,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "wres", "cli.py")):
        raise BenchError(f"no wres sources under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    commands = workloads.commands(workload, seed)
    argvs = [c.argv for c in commands]
    expected = workloads.load_expected()
    env = environment(seed)

    reps, problems = [], []
    failed = 0

    def repetition(traced: bool) -> dict:
        nonlocal failed
        result = run_child(argvs, traced, deadline)
        for command_problems in check_results(commands, result, expected):
            failed += bool(command_problems)
            problems.extend(command_problems)
        reps.append(result)
        return result

    if trace:
        plain = repetition(False)
        traced = repetition(True)
        metrics = layer_metrics(workload, commands, traced)
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
        write_spans(workload, seed, argvs, traced["spans"])
    else:
        t_measure = time.monotonic()
        while True:
            rep_s = repetition(False)["rep_s"]
            if time.monotonic() + rep_s > t_measure + seconds:
                break
        setup = [r["setup_s"] for r in reps]
        while len(setup) < SETUP_SAMPLES:
            setup.append(run_child([], False, deadline)["setup_s"])
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] * 1024 / 1e6 for r in reps),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        env["samples"] = {
            "wall_s": [r["wall_s"] for r in reps],
            "cpu_s": [r["cpu_s"] for r in reps],
            "setup_s": setup,
        }
    env["versions"] = reps[0]["versions"]
    env["wres_file"] = reps[0]["wres_file"]
    return {
        "workload": workload,
        "environment": env,
        "problems": problems,
        "attempted": len(commands) * len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(workload: str, commands: list, traced: dict) -> dict:
    """Per-layer metrics of one traced session; fails on a silent span."""
    summary = traced["trace"]
    keys, layers = summary["keys"], summary["layers"]

    def stat(key, field):
        if key in layers:  # a whole layer: sum over its keys
            return sum(v[field] for k, v in keys.items() if k.startswith(key + "."))
        return keys.get(key, {}).get(field, 0)

    silent = [k for k, (_, where) in LAYER_KEYS.items() if workload in where and not stat(k, "calls")]
    if silent:
        raise BenchError(f"declared spans recorded no calls on {workload}: {silent}")

    metrics = {}
    for key, (fields, _) in sorted(LAYER_KEYS.items()):
        if "calls" in fields:
            metrics[f"{key}.calls"] = (stat(key, "calls"), "count")
        if "s" in fields:
            value = layers[key]["s"] if key in layers else stat(key, "s")
            metrics[f"{key}.s"] = (value, "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
    metrics["jets.inverse_symbols.repeat_ratio"] = (
        summary["repeat_ratio"]["jets.inverse_symbols"],
        "ratio",
    )
    oracle_errors = (workloads.max_rel_err(c, r["stdout"]) for c, r in zip(commands, traced["results"]))
    metrics["numcheck.max_rel_err"] = (max(oracle_errors), "ratio")
    return metrics


def write_spans(workload: str, seed: int, argvs: list, spans: list) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"commands": [list(a) for a in argvs], "spans": spans}, fh)


# ---------------------------------------------------------------------------
# reporting


def report_lines(run: dict) -> list[str]:
    env = run["environment"]
    lines = [
        f"workload {run['workload']}: seed {env['seed']}, nproc {env['nproc']}, "
        f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}",
        f"  python {env['versions']['python']}, numpy {env['versions']['numpy']}, "
        f"scipy {env['versions']['scipy']}, wres {env['wres_file']}",
    ]
    for name, samples in env.get("samples", {}).items():
        lines.append(f"  {name} samples: {' '.join(f'{x:.4f}' for x in samples)}")
    for name, (value, unit) in run["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    fail_ratio = run["failed"] / run["attempted"]
    lines.append(f"  fail_ratio = {fail_ratio:.6g} ({run['failed']}/{run['attempted']} commands)")
    lines += [f"  FAILED {p}" for p in run["problems"]]
    return lines


def result_json(run: dict) -> str:
    return json.dumps(
        {
            "correct": not run["problems"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in run["metrics"].items()
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    names = workloads.WORKLOADS if args.all else (args.workload,)
    runs = []
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(run)), flush=True)
            runs.append(run)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    if args.all:
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "summary.json"), "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=2)
    else:
        print(result_json(runs[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
