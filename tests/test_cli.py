"""Command-line behavior: determinism, exit codes, emission formats,
job files, and the thread cap."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import wres
import wres.cli as cli
import wres.clifford
import wres.jets as jets
import wres.rational
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
from wres.exact import (
    GR_I,
    GaussianRational,
    Poly,
    gen_h,
    gen_pi,
    gen_s,
    gen_v,
    gen_ws,
    gen_xi,
)


DATA = os.path.join(os.path.dirname(__file__), "data")


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


# Each bad input as an argv for main and as a JobSpec for run_command, with
# the field both doors must name.
_BAD_INPUTS = [
    (["boundary", "--dim", "5"], dict(command="boundary", dim=5), "dim"),
    (["boundary", "--dim", "2"], dict(command="boundary", dim=2), "dim"),
    (
        ["boundary", "--dim", "4", "--left", "Dv", "--right", "D3"],
        dict(command="boundary", right="D3"),
        "operators",
    ),
    (
        ["boundary", "--dim", "6", "--left", "Dv", "--right", "Dv"],
        dict(command="boundary", dim=6, left="Dv", right="Dv"),
        "operators",
    ),
    (["case", "--dim", "4"], dict(command="case"), "tuple"),
    (
        ["case", "--dim", "4", "--tuple", "1,2,3"],
        dict(command="case", case_tuple=(1, 2, 3)),
        "tuple",
    ),
    (
        ["case", "--dim", "4", "--tuple", "0,0,0,0,0"],
        dict(command="case", case_tuple=(0, 0, 0, 0, 0)),
        "tuple",
    ),
    (
        ["case", "--dim", "4", "--tuple="],
        dict(command="case", case_tuple=None),
        "tuple",
    ),
    (
        ["case", "--dim", "4", "--tuple=-1,x,0,0,0"],
        dict(command="case", case_tuple=(-1, "x", 0, 0, 0)),
        "tuple",
    ),
    (
        ["crosscheck", "--dim", "4", "--emit", "latex"],
        dict(command="crosscheck", emit="latex"),
        "emit",
    ),
    (
        ["identities", "--emit", "latex"],
        dict(command="identities", emit="latex"),
        "emit",
    ),
    (["interior", "--emit", "yaml"], dict(command="interior", emit="yaml"), "emit"),
    (["interior", "--op", "Dv3"], dict(command="interior", op="Dv3"), "op"),
    (["interior", "--op", "bogus"], dict(command="interior", op="bogus"), "op"),
    (["interior", "--dim", "5"], dict(command="interior", dim=5), "dim"),
    (
        ["crosscheck", "--dim", "4", "--tolerance", "-1"],
        dict(command="crosscheck", tolerance=-1.0),
        "tolerance",
    ),
    (
        ["crosscheck", "--dim", "4", "--scenarios", "0"],
        dict(command="crosscheck", scenarios=0),
        "scenarios",
    ),
    (
        ["crosscheck", "--seed=-1", "--scenarios", "1"],
        dict(command="crosscheck", seed=-1, scenarios=1),
        "seed",
    ),
]


def test_usage_errors_exit_two_and_name_the_field(capsys):
    """main and run_command reject each bad input, naming the same field."""
    for argv, settings, field in _BAD_INPUTS:
        code, out, err = run_main(capsys, argv)
        assert code == 2, argv
        assert f"usage error: field '{field}'" in err, argv
        assert out == ""
        with pytest.raises(UsageError) as info:
            run_command(JobSpec(**settings))
        assert info.value.field_name == field, settings


# JobSpec values of a type that no reader of the command line returns, so
# only a library caller can pass them, with the field each must name.
_BAD_LIBRARY_TYPES = [
    (dict(command="interior", dim="4"), "dim"),
    (dict(command="interior", dual="false", emit="json"), "dual"),
    (
        dict(command="crosscheck", left="Dv", right="DvStar", scenarios=1.5),
        "scenarios",
    ),
    (dict(command="boundary", dim=4.0), "dim"),
    (dict(command="interior", tolerance="x"), "tolerance"),
    (dict(command="case", case_tuple="-2,-1,0,0,0"), "tuple"),
    (
        dict(command="crosscheck", left="Dv", right="DvStar", seed=True, scenarios=1),
        "seed",
    ),
    (dict(command=["interior"]), "command"),
]


@pytest.mark.parametrize("settings,field", _BAD_LIBRARY_TYPES)
def test_run_command_rejects_a_value_of_the_wrong_type(settings, field):
    with pytest.raises(UsageError) as info:
        run_command(JobSpec(**settings))
    assert info.value.field_name == field


def test_run_command_accepts_an_int_tolerance_and_a_list_tuple():
    settings = dict(command="case", emit="json")
    want = run_command(JobSpec(case_tuple=(-2, -1, 0, 0, 0), **settings))
    got = run_command(JobSpec(case_tuple=[-2, -1, 0, 0, 0], tolerance=1, **settings))
    assert got == want


def test_argparse_failures_exit_two(capsys):
    code, _, _ = run_main(capsys, ["frobnicate"])
    assert code == 2
    code, _, _ = run_main(capsys, [])
    assert code == 2


def test_help_exits_zero(capsys):
    assert run_main(capsys, ["--help"])[0] == 0


def test_main_reuses_the_parser_built_at_import(capsys, monkeypatch):
    def rebuild():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "_build_parser", rebuild)
    argv = ["interior", "--dim", "4", "--op", "DvStar2"]
    first = run_main(capsys, argv + ["--independent-dual"])
    second = run_main(capsys, argv)
    assert first[0] == second[0] == 0
    # a flag given to one call does not carry over to the next
    assert first[1] != second[1]
    assert second == run_main(capsys, argv)


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


# Every captured json report: boundary tables, their rows and interior
# densities, with discrepancies and exponents among them.
REPORT_CAPTURES = sorted(
    name
    for name in os.listdir(DATA)
    if name.endswith(".json") and name.split("-")[0] in ("boundary", "case", "interior")
)


@pytest.mark.parametrize("name", REPORT_CAPTURES)
def test_json_report_round_trips(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        out = handle.read()
    report = parse_report(out)
    assert emit_report(report, "json") == out
    again = parse_report(emit_report(report, "json"))
    assert again == report


def test_parse_report_rejects_a_corrupted_monomial():
    with open(os.path.join(DATA, "interior-6-Dv2.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["total"]["terms"][0]["monomial"] = "H*H"
    with pytest.raises(ValueError):
        parse_report(json.dumps(payload))


# Edits of a captured total that _emit_json never writes; the two
# spellings keep the value of the term they touch.
CORRUPTIONS = {
    "zero-coefficient": lambda terms: terms[0].update(re="0", im="0"),
    "repeated-monomial": lambda terms: terms.insert(1, dict(terms[0])),
    "unreduced-fraction": lambda terms: terms[0].update(re="-4096/6"),
    "decimal-spelling": lambda terms: terms[1].update(re="-2048.0"),
    "unsorted-terms": lambda terms: terms.reverse(),
}


CASE_TUPLES = {
    "float-entry": [-1.0, -3, 0, 0, 1],
    "bool-entry": [True, -3, 0, 0, 1],
    "four-entries": [-1, -3, 0, 0],
    "six-entries": [-1, -3, 0, 0, 1, 0],
}


@pytest.mark.parametrize("bad", CASE_TUPLES.values(), ids=CASE_TUPLES)
def test_parse_report_rejects_case_tuples_it_never_writes(bad):
    """A case tuple is exactly five plain ints, as _emit_json writes it."""
    with open(os.path.join(DATA, "boundary-6-Dv-D3.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["cases"][0]["tuple"] == [-1, -3, 0, 0, 1]
    payload["cases"][0]["tuple"] = bad
    with pytest.raises(ValueError, match="case tuple"):
        parse_report(json.dumps(payload))


# Reports whose JSON shape _emit_json never writes.
MALFORMED_REPORTS = {
    "top-level-list": lambda payload: [],
    "no-cases": lambda payload: {k: v for k, v in payload.items() if k != "cases"},
    "case-without-contribution": lambda payload: dict(
        payload, cases=[{"tuple": payload["cases"][0]["tuple"]}]
    ),
    "meta-list": lambda payload: dict(payload, meta=[]),
    "meta-empty": lambda payload: dict(payload, meta={}),
    "meta-dim-string": lambda payload: dict(payload, meta=dict(payload["meta"], dim="6")),
    "meta-operators-string": lambda payload: dict(
        payload, meta=dict(payload["meta"], operators="Dv")
    ),
}


@pytest.mark.parametrize("malform", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS)
def test_parse_report_rejects_report_shapes_it_never_writes(malform):
    """A malformed report raises ValueError, like every other rejection,
    not the KeyError or TypeError of a lookup that fails."""
    with open(os.path.join(DATA, "boundary-6-Dv-D3.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    with pytest.raises(ValueError):
        parse_report(json.dumps(malform(payload)))


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS)
def test_parse_report_rejects_polynomial_json_it_never_writes(corrupt):
    with open(os.path.join(DATA, "interior-6-Dv2.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["total"]["terms"][0]["re"] == "-2048/3"
    corrupt(payload["total"]["terms"])
    with pytest.raises(ValueError):
        parse_report(json.dumps(payload))


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


@pytest.mark.parametrize(
    "left, right, calls", [("Dv", "Dv", 1), ("DvStar", "DvStar", 1), ("Dv", "DvStar", 2)]
)
def test_case_inverts_each_operator_once(capsys, monkeypatch, left, right, calls):
    """The case command inverts a pair of one operator once, whichever
    module's binding of inverse_symbols it reaches the inversion through."""
    seen = []
    for name, module in list(sys.modules.items()):
        original = getattr(module, "inverse_symbols", None)
        if name.startswith("wres") and callable(original):

            def counting(*args, _original=original, **kwargs):
                seen.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "inverse_symbols", counting)
    argv = ["case", "--dim", "4", "--left", left, "--right", right]
    code, out, _ = run_main(capsys, argv + ["--tuple=-1,-1,0,1,0"])
    assert code == 0
    assert "case (-1, -1, 0, 1, 0)" in out
    assert len(seen) == calls


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


def test_latex_poly_renders_each_coefficient_shape():
    """A constant, coefficients 1 and -1 and imaginary ones, with no
    common sphere volume to factor."""
    poly = (
        Poly.const(Fraction(-3, 2))
        - Poly.gen(gen_h()) * Poly.gen(gen_pi(), 2)
        + Poly.gen(gen_s())
        + Poly.gen(gen_v(1), coeff=GR_I)
        + Poly.gen(gen_ws(4, 2), coeff=GaussianRational(0, Fraction(-1, 3)))
    )
    assert latex_poly(poly, 4) == (
        r"-\frac{3}{2}-\pi^{2} h'(0)+s+i\langle v,e_{1}\rangle"
        r"-\frac{1}{3}i(\nabla v^{*})_{42}"
    )
    # a unit imaginary part prints as i, alone and beside a real part
    assert latex_poly(Poly.gen(gen_v(2), coeff=-GR_I), 4) == r"-i\langle v,e_{2}\rangle"
    assert latex_poly(Poly.const(GaussianRational(2, 1)), 4) == r"\left(2+i\right)"
    # a tag that no report carries keeps its text form
    assert latex_poly(Poly.gen(gen_xi(1)), 4) == "XI(1)"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["crosscheck", "--dim", "4", "--left", "Dv", "--right", "DvStar"]
        + ["--scenarios", "4", "--seed", "0", "--emit", "json"],
        ["boundary", "--dim", "4", "--left", "Dv", "--right", "DvStar"]
        + ["--emit", "json"],
    ],
)
def test_omega_is_recorded_and_changes_nothing_else(capsys, argv):
    """--omega names the sphere OMEGA stands for; no value reads it."""
    code, out, err = run_main(capsys, argv)
    ambient = run_main(capsys, argv + ["--omega", "ambient"])
    payload = json.loads(out)
    assert payload["meta"]["omega"] == "cosphere"
    payload["meta"]["omega"] = "ambient"
    assert ambient == (code, json.dumps(payload, indent=2) + "\n", err)


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

    job.write_text("dual = maybe\n")
    code, _, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert code == 2
    assert err == "usage error: field 'dual': expected a boolean, got 'maybe'\n"

    # only a whole line is a comment
    job.write_text("dim = 4 # four\n")
    code, _, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert code == 2
    assert err == "usage error: field 'dim': not an integer: '4 # four'\n"


def test_job_file_dual_yes_is_the_default_convention(capsys, tmp_path):
    job = tmp_path / "run.job"
    job.write_text("dual = yes\n")
    code, from_job, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert (code, err) == (0, "")
    assert from_job == run_main(capsys, ["boundary"])[1]


def test_repeated_job_file_key_is_a_usage_error(capsys, tmp_path):
    job = tmp_path / "run.job"
    job.write_text("right = D3\ndim = 4\ndim = 6\n")
    code, out, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert (code, out) == (2, "")
    assert err == "usage error: field 'dim': line 3: repeated job file key\n"


def test_job_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    job = tmp_path / "bad.job"
    job.write_bytes(b"dim = 4\n\xff\xfe = 3\n")
    code, out, err = run_main(capsys, ["boundary", "--job", str(job)])
    assert code == 2
    assert out == ""
    assert "usage error: field 'job'" in err


def test_job_file_with_a_byte_order_mark_matches_flags(capsys, tmp_path):
    job = tmp_path / "bom.job"
    job.write_bytes(b"\xef\xbb\xbfdim = 4\nleft = Dv\nright = Dv\n")
    code, from_job, err = run_main(capsys, ["boundary", "--job", str(job)])
    _, from_flags, _ = run_main(
        capsys, ["boundary", "--dim", "4", "--left", "Dv", "--right", "Dv"]
    )
    assert (code, err) == (0, "")
    assert from_job == from_flags


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
    job.write_text("# comment\n\n  # indented\ndim = 6\ntuple = -1,-4,0,0,0\n")
    assert load_job_file(str(job)) == {"dim": "6", "tuple": "-1,-4,0,0,0"}


# ---------------------------------------------------------------------------
# one reader per setting: a flag and a job-file line mean the same thing

# A valid, mostly non-default value for every setting a command takes;
# `dual = false` is the job-file form of --independent-dual.
_COMMAND_VALUES = {
    "interior": {"dim": "6", "op": "DvStarDv"},
    "boundary": {"dim": "6", "left": "Dv", "right": "D3"},
    "case": {"dim": "6", "left": "Dv", "right": "D3", "tuple": "-1,-4,0,0,0"},
    "identities": {"dim": "6", "seed": "5"},
    "crosscheck": {
        "dim": "4",
        "left": "DvStar",
        "right": "DvStar",
        "seed": "2",
        "tolerance": "1e-5",
        "scenarios": "1",
    },
}
_SHARED_VALUES = {"emit": "json", "omega": "ambient", "dual": "false"}


def _flag(name, value):
    return "--independent-dual" if name == "dual" else f"--{name}={value}"


def _moved_settings():
    """Each flag of each command in the table, with all its settings."""
    for command, entry in cli._COMMANDS.items():
        values = {**_SHARED_VALUES, **_COMMAND_VALUES[command]}
        names = ("dim", "emit", "omega", "dual", *entry.flags)
        settings = {name: values[name] for name in names}
        for name in names:
            yield pytest.param(command, settings, name, id=f"{command}-{name}")


@pytest.mark.parametrize("command,settings,moved", _moved_settings())
def test_job_file_line_matches_its_flag(capsys, tmp_path, command, settings, moved):
    flags = [_flag(name, value) for name, value in settings.items()]
    code, out, err = run_main(capsys, [command, *flags])
    assert code in (0, 1) and err == ""

    job = tmp_path / "run.job"
    job.write_text(f"{moved} = {settings[moved]}\n")
    rest = [_flag(name, value) for name, value in settings.items() if name != moved]
    assert run_main(capsys, [command, *rest, "--job", str(job)]) == (code, out, "")


@pytest.mark.parametrize(
    "name,value",
    [
        ("dim", "abc"),
        ("emit", "xml"),
        ("omega", "flat"),
        ("scenarios", "1.5"),
        ("tolerance", "abc"),
        # numpy seeds a scenario only from a non-negative integer
        ("seed", "-1"),
    ],
)
def test_bad_value_is_the_same_usage_error_from_flag_or_job_file(
    capsys, tmp_path, name, value
):
    base = {"dim": "4", "left": "Dv", "right": "Dv", "scenarios": "1"}
    argv = ["crosscheck"] + [f"--{k}={v}" for k, v in base.items() if k != name]
    code, out, from_flag = run_main(capsys, argv + [f"--{name}={value}"])
    assert code == 2
    assert out == ""
    assert from_flag.startswith(f"usage error: field '{name}'")

    job = tmp_path / "run.job"
    job.write_text(f"{name} = {value}\n")
    assert run_main(capsys, argv + ["--job", str(job)]) == (2, "", from_flag)


def test_identities_fail_a_projection_that_drops_every_pole(capsys, monkeypatch):
    """A projection to zero is idempotent, but leaves the pole at +i in
    the remainder."""
    def zero(f):
        return wres.rational.RationalXi([])

    monkeypatch.setattr(wres.rational, "pi_plus", zero)
    monkeypatch.setattr(cli, "pi_plus", zero)
    code, out, _ = run_main(capsys, ["identities", "--dim", "4"])
    assert code == 1
    assert "FAIL projection-split" in out.splitlines()


def test_identities_fail_clifford_generators_that_commute(capsys, monkeypatch):
    """With every word product's sign +1, c_j c_j is +1, so the
    anticommutator of c_j with itself is 2 instead of -2."""
    word_product = wres.clifford.word_product

    def unsigned(u, v):
        return 1, word_product(u, v)[1]

    monkeypatch.setattr(wres.clifford, "word_product", unsigned)
    code, out, _ = run_main(capsys, ["identities", "--dim", "4"])
    assert code == 1
    assert "FAIL clifford-anticommutators" in out.splitlines()


def _returning(value):
    return lambda *args: value


# Each patch breaks one piece of the engine, and the set is exactly the
# rows that fail under it.  With the two tests above, every row can fail.
@pytest.mark.parametrize(
    "target, name, patch, failed",
    [
        (
            wres.clifford.CliffordOp,
            "trace",
            _returning(Poly.zero()),
            {
                "fiber-trace-dimension",
                "normal-clifford-square-trace",
                "tangential-clifford-square-trace",
                "warp-derivative-trace",
            },
        ),
        (
            cli,
            "normal_clifford",
            wres.clifford.CliffordOp.identity,
            {"normal-clifford-square-trace"},
        ),
        (
            cli,
            "tangential_clifford",
            wres.clifford.CliffordOp.identity,
            {"tangential-clifford-square-trace", "warp-derivative-trace"},
        ),
        (
            cli,
            "tangential_clifford",
            wres.clifford.normal_clifford,
            {"mixed-clifford-trace"},
        ),
        (
            wres.clifford.CliffordOp,
            "scale",
            lambda self, factor: self,
            {"warp-derivative-trace"},
        ),
        (cli, "line_quad", _returning(0j), {"line-quadrature-reference"}),
        (cli, "sphere_integrate", _returning(Poly.zero()), {"sphere-second-moment"}),
        (
            cli,
            "sphere_integrate",
            lambda poly, n: poly,
            {"sphere-second-moment", "sphere-odd-moment"},
        ),
    ],
    ids=[
        "trace-zero",
        "normal-is-identity",
        "tangential-is-identity",
        "tangential-is-normal",
        "scale-ignored",
        "quadrature-zero",
        "sphere-integral-zero",
        "sphere-integral-identity",
    ],
)
def test_identities_fail_exactly_the_rows_a_patch_breaks(
    capsys, monkeypatch, target, name, patch, failed
):
    """Every row of the identities report can fail, and each patch fails
    only the rows that read what it breaks."""
    monkeypatch.setattr(target, name, patch)
    code, out, _ = run_main(capsys, ["identities", "--dim", "4"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 10
    assert {line[5:] for line in lines if line.startswith("FAIL ")} == failed


def test_identities_accepts_a_negative_seed(capsys):
    code, out, _ = run_main(capsys, ["identities", "--dim=4", "--seed=-1"])
    assert code == 0
    assert "FAIL" not in out


def _readme() -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        return handle.read()


def test_readme_lists_every_job_file_key():
    listed = _readme().split("Recognized keys:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(cli._FIELDS)


def test_readme_spells_the_factors_of_d3():
    text = " ".join(_readme().split())
    product = " ".join(f.replace("Star", "*") for f in jets._FACTORS["D3"])
    assert f"`D3` is the third-order product `{product}`" in text


def test_readme_shows_what_the_commands_print(capsys):
    """Each indented `$ wres ...` block is that command's stdout, and the
    quoted dimension-six discrepancies are lines of the n=6 table."""
    text = _readme()
    blocks = re.findall(r"^    \$ wres (.*)\n((?:    .*\n)*)", text, re.M)
    assert len(blocks) == 2
    for argv, shown in blocks:
        _, out, _ = run_main(capsys, shlex.split(argv))
        assert out == "".join(line[4:] + "\n" for line in shown.splitlines())
    quoted = re.findall(r"^    (DISCREPANCY .*)$", text, re.M)
    assert len(quoted) == 3
    with open(os.path.join(DATA, "boundary-6-Dv-D3.txt"), encoding="utf-8") as handle:
        assert set(quoted) <= set(handle.read().splitlines())


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
# output bytes against the captures in tests/data


def _assert_capture(capsys, name, code, argv):
    """The command exits with code and prints the capture: on stderr for a
    `.err` file, else on stdout, with nothing on the other stream."""
    got_code, out, err = run_main(capsys, argv)
    with open(os.path.join(DATA, name), encoding="utf-8", newline="") as handle:
        want = handle.read()
    streams = (err, out) if name.endswith(".err") else (out, err)
    assert (got_code, *streams) == (code, want, "")


# Captured stdout of crosscheck commands, with their exit codes.  The
# oracle's floats print with every digit, so a change in its order of
# arithmetic shows here even when it stays inside any tolerance.
ORACLE_CAPTURES = [
    ("crosscheck-4-Dv-DvStar-scenarios4-seed0.json", 0, "4 Dv DvStar 4 0"),
    ("crosscheck-6-Dv-D3-scenarios1-seed3.json", 0, "6 Dv D3 1 3"),
    (
        "crosscheck-4-Dv-Dv-scenarios4-seed9-independent-dual.json",
        0,
        "4 Dv Dv 4 9 --independent-dual",
    ),
]


@pytest.mark.parametrize("threads", ["1", None])
@pytest.mark.parametrize("name, code, settings", ORACLE_CAPTURES)
def test_crosscheck_output_is_byte_identical_to_capture(
    capsys, monkeypatch, threads, name, code, settings
):
    if threads is None:
        monkeypatch.delenv("WRES_THREADS", raising=False)
    else:
        monkeypatch.setenv("WRES_THREADS", threads)
    dim, left, right, scenarios, seed, *flags = settings.split()
    argv = ["crosscheck", "--dim", dim, "--left", left, "--right", right]
    argv += ["--scenarios", scenarios, "--seed", seed, "--emit", "json"]
    _assert_capture(capsys, name, code, argv + flags)


# Captured stdout of interior commands, each of which exits 0, with the
# form each prints.  The mixed variant has no reference density under
# --independent-dual, so those runs compare against nothing.  A test id
# is the file name and the settings, as the extension names the form.
INTERIOR_CAPTURES = [
    (f"interior-6-{op}{suffix}.json", "json", f"6 {op}{flag}")
    for op in ("Dv2", "DvStar2", "DvStarDv")
    for suffix, flag in (("", ""), ("-independent-dual", " --independent-dual"))
] + [
    (
        "interior-8-DvStarDv-independent-dual.json",
        "json",
        "8 DvStarDv --independent-dual",
    ),
    ("interior-6-DvStarDv.tex", "latex", "6 DvStarDv"),
    (
        "interior-6-DvStarDv-independent-dual.tex",
        "latex",
        "6 DvStarDv --independent-dual",
    ),
]


@pytest.mark.parametrize(
    "name, emit, settings",
    INTERIOR_CAPTURES,
    ids=[f"{name}-{settings}" for name, _, settings in INTERIOR_CAPTURES],
)
def test_interior_output_is_byte_identical_to_capture(capsys, name, emit, settings):
    dim, op, *flags = settings.split()
    argv = ["interior", "--dim", dim, "--op", op, "--emit", emit, *flags]
    _assert_capture(capsys, name, 0, argv)


# Captured stdout of identities runs, each of which exits 0, with the form
# each prints and its settings: the dimension and the projection seed.
IDENTITIES_CAPTURES = [
    ("identities-4.txt", "text", "4 0"),
    ("identities-6-seed5.json", "json", "6 5"),
    ("identities-8-seed-1.txt", "text", "8 -1"),
]


@pytest.mark.parametrize("name, emit, settings", IDENTITIES_CAPTURES)
def test_identities_output_is_byte_identical_to_capture(capsys, name, emit, settings):
    dim, seed = settings.split()
    argv = ["identities", f"--dim={dim}", f"--seed={seed}", "--emit", emit]
    _assert_capture(capsys, name, 0, argv)


# Captured stdout of boundary tables and of single rows of them, with
# their exit codes: the n=6 table disagrees with the reference (exit 1)
# under the dual pairing, and prints its discrepancies in every form.
# The command is the first word of the file name; a `.err` file holds
# the stderr of a usage error, which prints nothing on stdout.
BOUNDARY_CAPTURES = [
    ("boundary-6-Dv-D3.json", 1, "6 Dv D3 json"),
    ("boundary-6-Dv-D3.txt", 1, "6 Dv D3 text"),
    ("boundary-6-Dv-D3.tex", 1, "6 Dv D3 latex"),
    ("boundary-6-Dv-D3-independent-dual.json", 0, "6 Dv D3 json --independent-dual"),
    (
        "boundary-4-Dv-DvStar-independent-dual.tex",
        0,
        "4 Dv DvStar latex --independent-dual",
    ),
] + [
    (
        f"case-6-Dv-D3-tuple_{row.replace(',', '_')}{suffix}.json",
        0,
        f"6 Dv D3 json --tuple={row}{flag}",
    )
    for row in ("-1,-3,0,0,1", "-1,-3,0,1,0", "-1,-3,1,0,0", "-1,-4,0,0,0", "-2,-3,0,0,0")
    for suffix, flag in (("", ""), ("-independent-dual", " --independent-dual"))
] + [
    ("case-4-Dv-DvStar-tuple_-1_-1_0_1_0.txt", 0, "4 Dv DvStar text --tuple=-1,-1,0,1,0"),
    ("case-6-Dv-D3-tuple_0_0_0_0_0.err", 2, "6 Dv D3 json --tuple=0,0,0,0,0"),
]


@pytest.mark.parametrize("name, code, settings", BOUNDARY_CAPTURES)
def test_boundary_output_is_byte_identical_to_capture(capsys, name, code, settings):
    dim, left, right, emit, *flags = settings.split()
    argv = [name.split("-")[0], "--dim", dim, "--left", left, "--right", right]
    _assert_capture(capsys, name, code, argv + ["--emit", emit, *flags])


# ---------------------------------------------------------------------------
# run_command as a library entry


def test_run_command_boundary_spec():
    spec = JobSpec(command="boundary", dim=4, left="Dv", right="DvStar", emit="json")
    code1, text1 = run_command(spec)
    code2, text2 = run_command(spec)
    assert code1 == code2 == 0
    assert text1 == text2


def test_run_command_rejects_unknown_command():
    with pytest.raises(UsageError) as info:
        run_command(JobSpec(command="warp"))
    assert info.value.field_name == "command"
