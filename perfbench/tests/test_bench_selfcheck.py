"""Self-tests of the benchmark: tracer arithmetic, output checks, seeds."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that moves only when the synthetic work says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_arithmetic_on_synthetic_span_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.work(1.0)

    def mid(depth):
        clock.work(2.0)
        leaf_w()
        if depth:
            mid_w(depth - 1)  # same key nested: inclusive time counted once

    def top():
        clock.work(0.5)
        mid_w(1)
        emit_w()

    def emit():
        clock.work(0.25)

    leaf_w = tr._wrap(leaf, "exact.leaf", "exact")
    mid_w = tr._wrap(mid, "rational.mid", "rational")
    emit_w = tr._wrap(emit, "cli.emit", "cli")
    top_w = tr._wrap(top, "cli.main", "cli")
    tr.set_command(7)
    top_w()

    summary = tr.summary()
    keys, layers = summary["keys"], summary["layers"]
    assert keys["exact.leaf"] == {"calls": 2, "s": 2.0}
    assert keys["rational.mid"] == {"calls": 2, "s": 6.0}
    assert keys["cli.main"] == {"calls": 1, "s": 6.75}
    assert layers["exact"] == {"s": 2.0, "self_s": 2.0}
    assert layers["rational"] == {"s": 6.0, "self_s": 4.0}
    assert layers["cli"] == {"s": 6.75, "self_s": 0.75}
    total_self = sum(layer["self_s"] for layer in layers.values())
    assert total_self == pytest.approx(6.75)

    spans = {s["name"]: s for s in tr.spans() if s["name"] != "rational.mid"}
    mids = [s for s in tr.spans() if s["name"] == "rational.mid"]
    assert spans["cli.main"]["parent"] is None
    assert spans["cli.emit"]["parent"] == spans["cli.main"]["id"]
    assert mids[0]["parent"] == spans["cli.main"]["id"]
    assert mids[1]["parent"] == mids[0]["id"]
    assert [m["self_s"] for m in mids] == [2.0, 2.0]
    assert all(s["command"] == 7 for s in tr.spans())
    # the exact layer is counted, never recorded span by span
    assert "exact.leaf" not in {s["name"] for s in tr.spans()}


def test_repeat_ratio_counts_calls_with_seen_arguments():
    tr = tracer.Tracer()

    def inverse_symbols(n, variant, dual=True):
        return (n, variant, dual)

    wrapped = tr._wrap(inverse_symbols, "jets.inverse_symbols", "jets")
    wrapped(4, "Dv")
    wrapped(4, "Dv", True)  # same arguments once defaults are applied
    wrapped(4, "Dv", dual=False)
    wrapped(4, "DvStar")
    assert tr.repeat_ratio("jets.inverse_symbols") == 0.25


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


def test_output_check_rejects_corrupted_boundary_stdout(expected):
    (command,) = workloads.commands("boundary6", 0)
    code, text = expected[command.data]
    assert code == 1
    assert workloads.check_output(command, 1, text, expected) == []
    corrupted = text.replace('"re": "-65/2"', '"re": "-65/3"', 1)
    assert corrupted != text
    assert workloads.check_output(command, 1, corrupted, expected)
    assert workloads.check_output(command, 0, text, expected)


def _window_output(expected, command):
    first = int(command.argv[command.argv.index("--seed") + 1])
    payload = json.loads(expected[command.data][1])
    payload["rows"] = [
        r for r in payload["rows"] if first <= r["seed"] < first + workloads.CROSSCHECK_SCENARIOS
    ]
    return payload


def test_output_check_rejects_failed_crosscheck_row(expected):
    (command,) = workloads.commands("crosscheck4", 5)
    payload = _window_output(expected, command)
    for row in payload["rows"]:
        row["error_estimate"] = 1e-12  # extra keys are allowed
    assert workloads.check_output(command, 0, json.dumps(payload), expected) == []

    failed = json.loads(json.dumps(payload))
    failed["rows"][3]["passed"] = False
    assert workloads.check_output(command, 0, json.dumps(failed), expected)

    drifted = json.loads(json.dumps(payload))
    drifted["rows"][0]["numeric"][0] *= 1 + 1e-4
    assert workloads.check_output(command, 0, json.dumps(drifted), expected)

    missing = json.loads(json.dumps(payload))
    del missing["rows"][-1]
    assert workloads.check_output(command, 0, json.dumps(missing), expected)


def test_seed_changes_crosscheck_scenarios_only(expected):
    for name in workloads.WORKLOADS:
        a, b = workloads.commands(name, 1), workloads.commands(name, 2)
        if name == "crosscheck4":
            assert a != b
            rows_a = {r["seed"] for r in _window_output(expected, a[0])["rows"]}
            rows_b = {r["seed"] for r in _window_output(expected, b[0])["rows"]}
            assert rows_a != rows_b
        else:
            assert a == b
            assert all(c.kind == "exact" for c in a)


def test_every_seed_maps_into_the_captured_oracle_run():
    for seed in (0, 1, 52, 53, 10**9 + 7):
        first = workloads.crosscheck_seed(seed)
        assert 0 <= first
        assert first + workloads.CROSSCHECK_SCENARIOS <= workloads.CAPTURED_SCENARIOS


def test_traced_child_patches_by_name_imports_and_keeps_output(expected):
    """boundary.py imports integrate_real_line by name; it must be traced."""
    command = workloads.boundary_command(4, "Dv", "Dv")
    job = {
        "src": os.path.join(os.path.dirname(BENCH), "src"),
        "commands": [list(command.argv)],
        "trace": True,
    }
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=BENCH,
        env=dict(os.environ, WRES_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    (res,) = result["results"]
    assert workloads.check_output(command, res["exit"], res["stdout"], expected) == []
    keys = result["trace"]["keys"]
    for key in tracer.NAMED:
        if key.startswith(("numcheck.", "interior.")):
            continue
        assert keys[key]["calls"] > 0, key
    assert keys["boundary.boundary_phi"]["calls"] == 1  # cli imports it by name


def test_reported_metrics_match_the_benchmark_contract():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    summary = {
        "keys": {key: {"calls": 1, "s": 0.5} for key in run.LAYER_KEYS},
        "layers": {layer: {"s": 1.0, "self_s": 0.5} for layer in tracer.LAYERS},
        "repeat_ratio": {"jets.inverse_symbols": 0.5},
    }
    summary["keys"]["baselines.compare_total"] = {"calls": 1, "s": 0.1}
    commands = workloads.commands("tables4", 0)
    traced = {"trace": summary, "results": [{"stdout": ""} for _ in commands]}
    per_layer = run.layer_metrics("tables4", commands, traced)
    per_layer["trace.overhead_ratio"] = (1.0, "ratio")
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == {
        name: unit for name, (_, unit) in per_layer.items()
    }
    assert [(m["name"], m["unit"]) for m in contract["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
