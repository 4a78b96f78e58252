"""Command-line behavior: determinism, exit codes, emission formats,
job files, and the thread cap."""

import json
import os
import subprocess
import sys

import pytest

import wres
from wres.cli import (
    JobSpec,
    UsageError,
    emit_report,
    latex_poly,
    load_job_file,
    main,
    parse_report,
    run_command,
    thread_cap,
)
from wres.exact import Poly


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_clean_boundary_run_exits_zero(capsys):
    code, out, err = run_main(
        capsys, ["boundary", "--dim", "4", "--left", "Dv", "--right", "Dv"]
    )
    assert code == 0
    assert err == ""
    assert "discrepancies: none" in out
    assert "total: 0" in out


def test_discrepancy_exits_one(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "crosscheck",
            "--dim",
            "4",
            "--left",
            "Dv",
            "--right",
            "Dv",
            "--scenarios",
            "1",
            "--tolerance",
            "1e-300",
        ],
    )
    assert code == 1
    assert "FAIL" in out


def test_usage_errors_exit_two_and_name_the_field(capsys):
    checks = [
        (["boundary", "--dim", "5"], "dim"),
        (["boundary", "--dim", "2"], "dim"),
        (["boundary", "--dim", "4", "--left", "Dv", "--right", "D3"], "operators"),
        (["case", "--dim", "4"], "tuple"),
        (["case", "--dim", "4", "--tuple", "1,2,3"], "tuple"),
        (["case", "--dim", "4", "--tuple", "0,0,0,0,0"], "tuple"),
        (["crosscheck", "--dim", "4", "--emit", "latex"], "emit"),
        (["identities", "--emit", "latex"], "emit"),
        (["interior", "--op", "Dv3"], "op"),
        (["crosscheck", "--dim", "4", "--tolerance", "-1"], "tolerance"),
        (["crosscheck", "--dim", "4", "--scenarios", "0"], "scenarios"),
    ]
    for argv, field in checks:
        code, out, err = run_main(capsys, argv)
        assert code == 2, argv
        assert f"usage error: field '{field}'" in err, argv
        assert out == ""


def test_argparse_failures_exit_two(capsys):
    code, _, _ = run_main(capsys, ["frobnicate"])
    assert code == 2
    code, _, _ = run_main(capsys, [])
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_main(capsys, ["--help"])[0] == 0


# ---------------------------------------------------------------------------
# determinism and formats


def test_boundary_json_is_byte_deterministic(capsys):
    argv = [
        "boundary",
        "--dim",
        "4",
        "--left",
        "Dv",
        "--right",
        "DvStar",
        "--emit",
        "json",
    ]
    code1, out1, _ = run_main(capsys, argv)
    code2, out2, _ = run_main(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["meta"]["dim"] == 4
    assert payload["meta"]["operators"] == ["Dv", "DvStar"]
    assert payload["meta"]["engine-version"] == wres.__version__
    assert payload["meta"]["dual"] is True
    assert payload["meta"]["omega"] == "cosphere"
    assert len(payload["cases"]) == 5
    assert payload["discrepancies"] == []


def test_crosscheck_json_is_byte_deterministic(capsys):
    argv = [
        "crosscheck",
        "--dim",
        "4",
        "--left",
        "Dv",
        "--right",
        "Dv",
        "--scenarios",
        "2",
        "--emit",
        "json",
    ]
    _, out1, _ = run_main(capsys, argv)
    _, out2, _ = run_main(capsys, argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert all(row["passed"] for row in payload["rows"])
    # four live cases per scenario (the tangential case is skipped)
    assert len(payload["rows"]) == 8


def test_json_report_round_trips(capsys):
    _, out, _ = run_main(
        capsys,
        ["boundary", "--dim", "4", "--left", "Dv", "--right", "Dv", "--emit", "json"],
    )
    report = parse_report(out)
    assert emit_report(report, "json") == out
    again = parse_report(emit_report(report, "json"))
    assert again == report


def test_case_latex_golden(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "case",
            "--dim",
            "4",
            "--left",
            "Dv",
            "--right",
            "Dv",
            "--tuple=-2,-1,0,0,0",
            "--emit",
            "latex",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "% case (-2, -1, 0, 0, 0)"
    assert (
        lines[1]
        == "\\left[\\frac{9}{2}\\pi h'(0)+2\\pi\\langle v,dx_n\\rangle\\right]\\Omega"
    )


def test_latex_zero_and_structural_case(capsys):
    assert latex_poly(Poly.zero(), 4) == "0"
    _, out, _ = run_main(
        capsys,
        [
            "case",
            "--dim",
            "4",
            "--left",
            "Dv",
            "--right",
            "Dv",
            "--tuple=-1,-1,0,0,1",
            "--emit",
            "latex",
        ],
    )
    assert "% case (-1, -1, 0, 0, 1)\n0\n" in out


def test_interior_commands(capsys):
    code, out, _ = run_main(
        capsys, ["interior", "--dim", "4", "--op", "DvStarDv", "--emit", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancies"] == []
    monomials = {t["monomial"] for t in payload["total"]["terms"]}
    assert any("W(1,1)" in m for m in monomials)


def test_module_entry_point_matches_main(capsys):
    argv = ["interior", "--dim", "4", "--op", "DvStarDv", "--emit", "json"]
    code, out, _ = run_main(capsys, argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(wres.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "wres.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == code
    assert proc.stdout == out


def test_identities_command(capsys):
    code, out, _ = run_main(capsys, ["identities", "--dim", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("ok   ") for line in lines)
    code, out, _ = run_main(capsys, ["identities", "--dim", "4", "--emit", "json"])
    assert code == 0
    payload = json.loads(out)
    assert all(entry["ok"] for entry in payload["identities"])


def test_independent_dual_flag_switches_generators(capsys):
    _, out, _ = run_main(
        capsys,
        [
            "boundary",
            "--dim",
            "4",
            "--left",
            "Dv",
            "--right",
            "DvStar",
            "--independent-dual",
            "--emit",
            "json",
        ],
    )
    assert "VS(4)" in out
    payload = json.loads(out)
    assert payload["meta"]["dual"] is False


# ---------------------------------------------------------------------------
# job files


def test_job_file_matches_flags(capsys, tmp_path):
    job = tmp_path / "run.job"
    job.write_text(
        "# boundary sweep\n"
        "dim = 4\n"
        "left = Dv\n"
        "right = DvStar\n"
        "emit = json\n"
    )
    _, from_job, _ = run_main(capsys, ["boundary", "--job", str(job)])
    _, from_flags, _ = run_main(
        capsys,
        ["boundary", "--dim", "4", "--left", "Dv", "--right", "DvStar", "--emit", "json"],
    )
    assert from_job == from_flags


def test_flags_override_job_file(capsys, tmp_path):
    job = tmp_path / "run.job"
    job.write_text("dim = 4\nleft = Dv\nright = Dv\nemit = json\n")
    _, out, _ = run_main(capsys, ["boundary", "--job", str(job), "--emit", "text"])
    assert out.startswith("dim       = 4")


def test_job_file_errors_name_the_field(capsys, tmp_path):
    job = tmp_path / "bad.job"
    job.write_text("dim = 4\nwarp = 9\n")
    code, _, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert code == 2
    assert "usage error: field 'warp'" in err

    job.write_text("dim four\n")
    code, _, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert code == 2
    assert "usage error: field 'job'" in err

    code, _, err = run_main(capsys, ["boundary", "--job", str(tmp_path / "nope")])
    assert code == 2
    assert "usage error: field 'job'" in err

    job.write_text("dim = quite\n")
    code, _, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert code == 2
    assert "usage error: field 'dim'" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_non_finite_tolerance_is_a_usage_error(capsys, tmp_path, value):
    # NaN compares false against everything and inf passes every row, so
    # either would turn the crosscheck verdict into a constant
    argv = ["crosscheck", "--dim", "4", "--left", "Dv", "--right", "Dv"]
    code, out, err = run_main(capsys, argv + ["--scenarios=1", f"--tolerance={value}"])
    assert code == 2
    assert "usage error: field 'tolerance'" in err
    assert out == ""

    job = tmp_path / "run.job"
    job.write_text(f"scenarios = 1\ntolerance = {value}\n")
    code, out, err = run_main(capsys, argv + ["--job", str(job)])
    assert code == 2
    assert "usage error: field 'tolerance'" in err
    assert out == ""


def test_load_job_file_parses_values(tmp_path):
    job = tmp_path / "run.job"
    job.write_text("# comment\n\ndim = 6\ntuple = -1,-4,0,0,0\n")
    assert load_job_file(str(job)) == {"dim": "6", "tuple": "-1,-4,0,0,0"}


# ---------------------------------------------------------------------------
# thread cap


def test_thread_cap_respects_environment(monkeypatch):
    monkeypatch.setenv("WRES_THREADS", "2")
    assert thread_cap(8) == 2
    assert thread_cap(1) == 1
    monkeypatch.setenv("WRES_THREADS", "99")
    assert thread_cap(3) == 3
    monkeypatch.delenv("WRES_THREADS")
    assert thread_cap(2) >= 1


def test_thread_cap_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("WRES_THREADS", "zero")
    with pytest.raises(UsageError) as info:
        thread_cap(4)
    assert info.value.field_name == "WRES_THREADS"
    monkeypatch.setenv("WRES_THREADS", "0")
    with pytest.raises(UsageError):
        thread_cap(4)


def test_threaded_crosscheck_matches_sequential(capsys, monkeypatch):
    argv = [
        "crosscheck",
        "--dim",
        "4",
        "--left",
        "Dv",
        "--right",
        "Dv",
        "--scenarios",
        "2",
    ]
    monkeypatch.setenv("WRES_THREADS", "1")
    _, sequential, _ = run_main(capsys, argv)
    monkeypatch.setenv("WRES_THREADS", "2")
    _, threaded, _ = run_main(capsys, argv)
    assert sequential == threaded
    assert sequential.count("ok  ") == 8


def test_bad_thread_cap_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WRES_THREADS", "-3")
    code, _, err = run_main(
        capsys, ["crosscheck", "--dim", "4", "--left", "Dv", "--right", "Dv"]
    )
    assert code == 2
    assert "usage error: field 'WRES_THREADS'" in err


# ---------------------------------------------------------------------------
# run_command as a library entry


def test_run_command_boundary_spec():
    spec = JobSpec(command="boundary", dim=4, left="Dv", right="DvStar", emit="json")
    code1, text1 = run_command(spec)
    code2, text2 = run_command(spec)
    assert code1 == code2 == 0
    assert text1 == text2


def test_run_command_rejects_unknown_command():
    with pytest.raises(UsageError):
        run_command(JobSpec(command="warp"))
