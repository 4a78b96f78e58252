"""Command-line front end.

Five subcommands cover the engine surface:

    interior    residue density of a squared operator over a closed manifold
    boundary    full boundary-term case table for an operator pair
    case        a single boundary case, selected by its index tuple
    identities  deterministic self-checks of the fiber algebra and calculus
    crosscheck  exact-versus-numeric verdicts at reproducible random scenarios

Output is byte-deterministic for a fixed command line: reports carry no
timestamps, term order is canonical, and every rational is emitted as an
exact numerator/denominator string.  Exit status is 0 for a clean run, 1
when any comparison reports a discrepancy, and 2 for a usage error; usage
errors always name the offending field.

`run_command(JobSpec(...))` is the one entry to the engine, for the
command line and for library callers alike: it validates the job, then
returns `(exit_code, text)`.  Every input the command line rejects with
exit 2 raises `UsageError` there, with `field_name` naming the field.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .baselines import (
    Discrepancy,
    boundary_reference,
    compare_cases,
    compare_total,
    interior_reference,
)
from .boundary import SUPPORTED_PAIRS, CaseTuple, boundary_phi
from .clifford import (
    CliffordOp,
    build_generator,
    normal_clifford,
    tangential_clifford,
)
from .exact import (
    GaussianRational,
    Poly,
    format_generator,
    format_monomial,
    gen_h,
    gen_omega,
    gen_xi,
    parse_monomial,
)
from .interior import SQUARE_VARIANTS, interior_wres
from .numcheck import NumericScenario, crosscheck, line_quad
from .rational import RationalXi, pi_plus, sphere_integrate

_OMEGAS = ("cosphere", "ambient")


class UsageError(Exception):
    """A bad field value; carries the field name for the error message."""

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field_name = field_name


@dataclass
class JobSpec:
    """Resolved invocation parameters, after merging flags and job file."""

    command: str
    dim: int = 4
    left: str = "Dv"
    right: str = "Dv"
    op: str = "Dv2"
    emit: str = "text"
    dual: bool = True
    omega: str = "cosphere"
    seed: int = 0
    tolerance: float = 1e-6
    scenarios: int = 3
    case_tuple: tuple | None = None


@dataclass
class Report:
    """What a command computed, independent of the emission format."""

    meta: dict
    cases: list
    total: Poly
    discrepancies: list


# ---------------------------------------------------------------------------
# settings: flags and job files


def load_job_file(path: str) -> dict:
    """Parse a UTF-8 job file of `key = value` lines into a string map."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("job", f"cannot read job file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(
                "job", f"line {lineno}: expected `key = value`, got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise UsageError(key, f"line {lineno}: repeated job file key")
        values[key] = value.strip()
    return values


def _read_int(field_name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(field_name, f"not an integer: {text!r}")


def _read_float(field_name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(field_name, f"not a number: {text!r}")


def _read_bool(field_name: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise UsageError(field_name, f"expected a boolean, got {text!r}")


def _read_text(field_name: str, text: str) -> str:
    return text


def _read_case_tuple(field_name: str, text: str) -> tuple | None:
    if not text:
        return None
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise UsageError(
            field_name, f"expected five comma-separated integers, got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(field_name, f"non-integer entry in {text!r}")


# Every setting, flag or job-file key, with the reader of its text and the
# type it reads, which a JobSpec built in code must match.  `tuple` fills
# JobSpec.case_tuple; `--independent-dual` stores "false" under `dual`.
_FIELDS = {
    "dim": (_read_int, int),
    "left": (_read_text, str),
    "right": (_read_text, str),
    "op": (_read_text, str),
    "emit": (_read_text, str),
    "dual": (_read_bool, bool),
    "omega": (_read_text, str),
    "seed": (_read_int, int),
    "tolerance": (_read_float, float),
    "scenarios": (_read_int, int),
    "tuple": (_read_case_tuple, tuple),
}


def _has_type(value, kind: type) -> bool:
    """Whether value has the type a reader returns: a bool is no int, an
    int serves as a float, a case tuple is None or a tuple or list of ints."""
    if kind is tuple:
        return value is None or (
            isinstance(value, (tuple, list))
            and all(_has_type(entry, int) for entry in value)
        )
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def build_spec(ns: argparse.Namespace) -> JobSpec:
    """Read each field from its flag, or else from the job file."""
    job = load_job_file(ns.job) if getattr(ns, "job", None) else {}
    for key in job:
        if key not in _FIELDS:
            raise UsageError(key, "unknown job file key")
    values = {}
    for name, (read, _) in _FIELDS.items():
        text = getattr(ns, name, None)
        if text is None:
            text = job.get(name)
        if text is not None:
            values["case_tuple" if name == "tuple" else name] = read(name, text)
    return JobSpec(command=ns.command, **values)


def _validate(spec: JobSpec) -> None:
    command = _COMMANDS.get(spec.command) if isinstance(spec.command, str) else None
    if command is None:
        raise UsageError("command", f"unknown command {spec.command!r}")
    for name, (_, kind) in _FIELDS.items():
        value = getattr(spec, "case_tuple" if name == "tuple" else name)
        if not _has_type(value, kind):
            raise UsageError(name, f"expected {kind.__name__}, got {value!r}")
    if spec.dim % 2 != 0 or spec.dim < 4:
        raise UsageError("dim", f"dimension must be even and >= 4, got {spec.dim}")
    if spec.emit not in command.emits:
        raise UsageError("emit", f"must be one of {command.emits}, got {spec.emit!r}")
    if spec.omega not in _OMEGAS:
        raise UsageError("omega", f"must be one of {_OMEGAS}, got {spec.omega!r}")
    if "op" in command.flags and spec.op not in SQUARE_VARIANTS:
        raise UsageError(
            "op", f"must be one of {SQUARE_VARIANTS}, got {spec.op!r}"
        )
    if "left" in command.flags:
        key = (spec.dim, spec.left, spec.right)
        if key not in SUPPORTED_PAIRS:
            raise UsageError(
                "operators",
                f"unsupported operator pair {key}; supported pairs are "
                + ", ".join(str(p) for p in sorted(SUPPORTED_PAIRS)),
            )
    if "tuple" in command.flags and spec.case_tuple is None:
        raise UsageError("tuple", f"the {spec.command} command requires a case tuple")
    if not (math.isfinite(spec.tolerance) and spec.tolerance > 0):
        raise UsageError(
            "tolerance", f"must be finite and positive, got {spec.tolerance!r}"
        )
    if spec.scenarios < 1:
        raise UsageError("scenarios", "must be at least 1")
    # numpy seeds a generator only from a non-negative integer
    if spec.command == "crosscheck" and spec.seed < 0:
        raise UsageError("seed", f"must be non-negative, got {spec.seed}")


# ---------------------------------------------------------------------------
# thread cap


def thread_cap(scenarios: int) -> int:
    """Worker count for scenario sweeps, capped by WRES_THREADS."""
    raw = os.environ.get("WRES_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        cap = _read_int("WRES_THREADS", raw)
        if cap < 1:
            raise UsageError("WRES_THREADS", "must be a positive integer")
    return max(1, min(cap, scenarios))


# ---------------------------------------------------------------------------
# serialization helpers


def _poly_to_json(poly: Poly) -> dict:
    terms = []
    for monomial, coeff in poly.sorted_terms():
        terms.append(
            {
                "monomial": format_monomial(monomial),
                "re": str(coeff.re),
                "im": str(coeff.im),
            }
        )
    return {"terms": terms}


def _poly_from_json(data: dict) -> Poly:
    terms = {}
    for term in data["terms"]:
        coeff = GaussianRational(term["re"], term["im"])
        terms[parse_monomial(term["monomial"])] = coeff
    poly = Poly(terms)
    if any(c.is_zero for c in terms.values()) or _poly_to_json(poly) != data:
        raise ValueError(f"not a polynomial as _poly_to_json writes it: {data!r}")
    return poly


def _case_from_json(data) -> CaseTuple:
    if not isinstance(data, list) or len(data) != 5 or any(
        type(x) is not int for x in data
    ):
        raise ValueError(f"not a case tuple as _emit_json writes it: {data!r}")
    return CaseTuple(*data)


def _emit_json(report: Report) -> str:
    payload = {
        "meta": report.meta,
        "cases": [
            {
                "tuple": list(case.as_tuple()),
                "contribution": _poly_to_json(contribution),
            }
            for case, contribution in report.cases
        ],
        "total": _poly_to_json(report.total),
        "discrepancies": [
            {
                "label": d.label,
                "computed": _poly_to_json(d.computed),
                "expected": _poly_to_json(d.expected),
            }
            for d in report.discrepancies
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_report(text: str) -> Report:
    """Inverse of the json emission; round-trips every report exactly.

    Raises ValueError on a report of a shape the emission never writes,
    where a lookup in it would raise KeyError or TypeError.
    """
    payload = json.loads(text)
    try:
        cases = [
            (
                _case_from_json(entry["tuple"]),
                _poly_from_json(entry["contribution"]),
            )
            for entry in payload["cases"]
        ]
        discrepancies = [
            Discrepancy(
                label=entry["label"],
                computed=_poly_from_json(entry["computed"]),
                expected=_poly_from_json(entry["expected"]),
            )
            for entry in payload["discrepancies"]
        ]
        meta, total = payload["meta"], _poly_from_json(payload["total"])
    except (KeyError, TypeError) as err:
        raise ValueError(f"not a report as _emit_json writes it: {err!r}") from err
    # The text and LaTeX forms print dim as an int and join the operators.
    if not (
        isinstance(meta, dict)
        and type(meta.get("dim")) is int
        and isinstance(meta.get("operators"), list)
        and all(isinstance(op, str) for op in meta["operators"])
    ):
        raise ValueError(f"not a meta object as _emit_json writes it: {meta!r}")
    return Report(meta=meta, cases=cases, total=total, discrepancies=discrepancies)


# ---------------------------------------------------------------------------
# latex


def _latex_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\frac{{{abs(x.numerator)}}}{{{abs(x.denominator)}}}"


def _latex_coefficient(c: GaussianRational) -> str:
    """A coefficient in LaTeX; a unit imaginary part prints as i, not 1i."""
    if c.im == 0:
        return _latex_fraction(c.re)
    sign = "-" if c.im < 0 else ""
    im_part = "i" if abs(c.im) == 1 else _latex_fraction(abs(c.im)) + "i"
    if c.re == 0:
        return sign + im_part
    return f"\\left({_latex_fraction(c.re)}{sign or '+'}{im_part}\\right)"


# The LaTeX name of each generator tag a report carries, formatted with
# the generator's indices; any other tag prints as format_generator does.
_LATEX_NAMES = {
    "H": "h'(0)",
    "PI": "\\pi",
    "OMEGA": "\\Omega",
    "S": "s",
    "V": "\\langle v,e_{{{0}}}\\rangle",
    "VS": "\\langle v^{{*}},e_{{{0}}}\\rangle",
    "W": "(\\nabla v)_{{{0}{1}}}",
    "WS": "(\\nabla v^{{*}})_{{{0}{1}}}",
}

# V(dim) and VS(dim), the drift components along the normal.
_LATEX_NORMAL_NAMES = {
    "V": "\\langle v,dx_n\\rangle",
    "VS": "\\langle v^{*},\\partial_{n}\\rangle",
}

# A term's \pi comes first and its \Omega last, the rest in monomial order.
_LATEX_RANKS = {"PI": 0, "OMEGA": 2}


def _latex_generator(gen, dim: int) -> str:
    tag, indices = gen[0], gen[1:]
    if indices == (dim,) and tag in _LATEX_NORMAL_NAMES:
        return _LATEX_NORMAL_NAMES[tag]
    name = _LATEX_NAMES.get(tag)
    return format_generator(gen) if name is None else name.format(*indices)


def _latex_term(monomial, coeff: GaussianRational, dim: int) -> str:
    symbols = ""
    for gen, exp in sorted(monomial, key=lambda pair: _LATEX_RANKS.get(pair[0][0], 1)):
        body = _latex_generator(gen, dim)
        piece = body if exp == 1 else f"{body}^{{{exp}}}"
        if symbols and piece[:1].isalnum():
            symbols += " "
        symbols += piece
    c = _latex_coefficient(coeff)
    if not symbols:
        return c
    if c == "1":
        return symbols
    if c == "-1":
        return "-" + symbols
    return c + symbols


def latex_poly(poly: Poly, dim: int) -> str:
    """Render a result polynomial, factoring a common sphere volume."""
    if not poly.terms:
        return "0"
    omega_gen = ("OMEGA",)
    factor_omega = all(
        dict(monomial).get(omega_gen) == 1 for monomial in poly.terms
    )
    pieces = []
    for monomial, coeff in poly.sorted_terms():
        if factor_omega:
            monomial = tuple(
                (g, e) for g, e in monomial if g != omega_gen
            )
        pieces.append(_latex_term(monomial, coeff, dim))
    body = pieces[0]
    for piece in pieces[1:]:
        body += piece if piece.startswith("-") else "+" + piece
    if factor_omega:
        return f"\\left[{body}\\right]\\Omega"
    return body


def _emit_latex(report: Report) -> str:
    dim = report.meta["dim"]
    lines = []
    for case, contribution in report.cases:
        lines.append(
            f"% case {case.as_tuple()}\n{latex_poly(contribution, dim)}"
        )
    lines.append(f"% total\n{latex_poly(report.total, dim)}")
    for d in report.discrepancies:
        lines.append(
            f"% discrepancy {d.label}\n"
            f"{latex_poly(d.computed, dim)} \\neq {latex_poly(d.expected, dim)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# text


def _emit_text(report: Report) -> str:
    lines = [
        "dim       = {dim}".format(dim=report.meta["dim"]),
        "operators = {ops}".format(ops=",".join(report.meta["operators"])),
    ]
    for case, contribution in report.cases:
        lines.append(f"case {case.as_tuple()}: {contribution!r}")
    lines.append(f"total: {report.total!r}")
    if report.discrepancies:
        for d in report.discrepancies:
            lines.append(
                f"DISCREPANCY {d.label}: computed {d.computed!r}"
                f" expected {d.expected!r}"
            )
    else:
        lines.append("discrepancies: none")
    return "\n".join(lines) + "\n"


# Every form a report prints in, by its --emit name.
_FORMS = {"json": _emit_json, "latex": _emit_latex, "text": _emit_text}


def emit_report(report: Report, emit: str) -> str:
    return _FORMS[emit](report)


# ---------------------------------------------------------------------------
# commands


def _meta(spec: JobSpec, operators: list) -> dict:
    return {
        "dim": spec.dim,
        "operators": operators,
        "engine-version": __version__,
        "dual": spec.dual,
        "omega": spec.omega,
    }


def _emit_table(
    spec: JobSpec, operators: list, cases: list, total: Poly, discrepancies: list
) -> tuple[int, str]:
    """Emit a report of exact values; any discrepancy makes the exit 1."""
    report = Report(_meta(spec, operators), cases, total, discrepancies)
    return (1 if discrepancies else 0), emit_report(report, spec.emit)


def _run_interior(spec: JobSpec) -> tuple[int, str]:
    total = interior_wres(spec.dim, spec.op, dual=spec.dual)
    expected = interior_reference(spec.dim, spec.op, dual=spec.dual)
    discrepancies = compare_total(total, expected, "interior total")
    return _emit_table(spec, [spec.op], [], total, discrepancies)


def _run_boundary(spec: JobSpec) -> tuple[int, str]:
    total, reports = boundary_phi(
        spec.dim, spec.left, spec.right, dual=spec.dual
    )
    cases = [(r.tuple, r.contribution) for r in reports]
    discrepancies = []
    reference = boundary_reference(
        spec.dim, spec.left, spec.right, dual=spec.dual
    )
    if reference is not None:
        ref_cases, ref_total = reference
        discrepancies = compare_cases(reports, ref_cases)
        discrepancies += compare_total(total, ref_total, "boundary total")
    return _emit_table(spec, [spec.left, spec.right], cases, total, discrepancies)


def _run_case(spec: JobSpec) -> tuple[int, str]:
    """One row of the boundary table, with no reference comparison."""
    _, reports = boundary_phi(spec.dim, spec.left, spec.right, dual=spec.dual)
    # Plain tuples, so a library caller's sequence of any length is no row.
    rows = {r.tuple.as_tuple(): r for r in reports}
    case = tuple(spec.case_tuple)
    if case not in rows:
        raise UsageError(
            "tuple",
            f"{case} is not a valid case for this pair; "
            f"valid tuples: {list(rows)}",
        )
    row = rows[case]
    cases = [(row.tuple, row.contribution)]
    return _emit_table(spec, [spec.left, spec.right], cases, row.contribution, [])


def _projection_splits(seed: int) -> bool:
    """pi_plus on 20 seeded proper rationals is idempotent, and the
    remainder f - pi_plus(f) keeps no pole at +i."""
    rng = random.Random(seed)
    for _ in range(20):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        deg = rng.randint(0, a + b - 1)
        coeffs = [Poly.const(Fraction(rng.randint(-9, 9))) for _ in range(deg + 1)]
        f = RationalXi(coeffs, a, b)
        plus = pi_plus(f)
        if pi_plus(plus) != plus or (f - plus).a != 0:
            return False
    return True


def _identity_checks(spec: JobSpec) -> list:
    """The (name, passed) rows of the identities command, in report order."""
    n = spec.dim
    # Each generator with {a, a} = 2 a^2: c_j squares to -1, cbar_j to +1,
    # and distinct generators anticommute.
    gens = [(build_generator(n, j, "clifford"), -2) for j in range(1, n + 1)]
    gens += [(build_generator(n, j, "clifford_bar"), 2) for j in range(1, n + 1)]
    fiber = Poly.const(1 << n)
    half_h = Poly.gen(gen_h(), coeff=Fraction(1, 2))
    c_nor, c_tan = normal_clifford(n), tangential_clifford(n)
    return [
        (
            "clifford-anticommutators",
            all(
                a @ b + b @ a == CliffordOp.identity(n, square if i == k else 0)
                for i, (a, square) in enumerate(gens)
                for k, (b, _) in enumerate(gens)
                if i <= k
            ),
        ),
        ("fiber-trace-dimension", CliffordOp.identity(n).trace() == fiber),
        ("normal-clifford-square-trace", (c_nor @ c_nor).trace() == -fiber),
        (
            "tangential-clifford-square-trace",
            (c_tan @ c_tan).trace_on_sphere() == -fiber,
        ),
        ("mixed-clifford-trace", (c_tan @ c_nor).trace().is_zero),
        (
            "warp-derivative-trace",
            (c_tan.scale(half_h) @ c_tan).trace_on_sphere() == -fiber * half_h,
        ),
        ("projection-split", _projection_splits(spec.seed)),
        (
            "line-quadrature-reference",
            abs(line_quad(lambda x: 1 / (1 + x * x) ** 2 + 0j) - math.pi / 2) < 1e-10,
        ),
        (
            "sphere-second-moment",
            sphere_integrate(Poly.gen(gen_xi(1), 2), n)
            == Poly.gen(gen_omega(), coeff=Fraction(1, n - 1)),
        ),
        ("sphere-odd-moment", sphere_integrate(Poly.gen(gen_xi(1)), n).is_zero),
    ]


def _emit_rows(spec: JobSpec, operators: list, key: str, rows: list, **extra):
    """Emit (passed, json entry, text line) rows: in JSON meta, then the
    extra keys, then the entries under key.  Any failed row exits 1."""
    if spec.emit == "json":
        entries = [entry for _, entry, _ in rows]
        payload = {"meta": _meta(spec, operators), **extra, key: entries}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [("ok   " if ok else "FAIL ") + line for ok, _, line in rows]
        text = "\n".join(lines) + "\n"
    return (0 if all(ok for ok, _, _ in rows) else 1), text


def _run_identities(spec: JobSpec) -> tuple[int, str]:
    checks = _identity_checks(spec)
    rows = [(ok, {"name": name, "ok": ok}, name) for name, ok in checks]
    return _emit_rows(spec, ["identities"], "identities", rows)


def _run_crosscheck(spec: JobSpec) -> tuple[int, str]:
    _, reports = boundary_phi(spec.dim, spec.left, spec.right, dual=spec.dual)
    live = [r for r in reports if not r.structurally_zero]

    def one(index: int):
        scenario = NumericScenario.draw(spec.dim, spec.seed + index, dual=spec.dual)
        return crosscheck(
            live, scenario, spec.left, spec.right, tolerance=spec.tolerance
        )

    with ThreadPoolExecutor(max_workers=thread_cap(spec.scenarios)) as pool:
        all_rows = list(pool.map(one, range(spec.scenarios)))

    rows = []
    for seed, checks in enumerate(all_rows, start=spec.seed):
        for row in checks:
            entry = {
                "seed": seed,
                "case": list(row.case.as_tuple()),
                "exact": [row.exact.real, row.exact.imag],
                "numeric": [row.numeric.real, row.numeric.imag],
                "rel_err": row.rel_err,
                "passed": row.passed,
                "spurious_imag": row.spurious_imag,
            }
            line = f"seed={seed} case={row.case.as_tuple()} rel_err={row.rel_err:.3e}"
            rows.append((row.passed, entry, line))
    operators = [spec.left, spec.right]
    return _emit_rows(spec, operators, "rows", rows, tolerance=spec.tolerance)


class _Command(NamedTuple):
    run: Callable[[JobSpec], tuple[int, str]]
    help: str
    flags: tuple  # besides --dim --emit --omega --independent-dual --job
    emits: tuple = tuple(_FORMS)  # the forms --emit accepts


_COMMANDS = {
    "interior": _Command(_run_interior, "interior residue density", ("op",)),
    "boundary": _Command(_run_boundary, "boundary case table", ("left", "right")),
    "case": _Command(_run_case, "one boundary case", ("left", "right", "tuple")),
    "identities": _Command(
        _run_identities, "deterministic self checks", ("seed",), ("json", "text")
    ),
    "crosscheck": _Command(
        _run_crosscheck,
        "exact vs numeric verdicts",
        ("left", "right", "seed", "tolerance", "scenarios"),
        ("json", "text"),
    ),
}


def run_command(spec: JobSpec) -> tuple[int, str]:
    """Validate a job, then execute it; returns (exit code, output text)."""
    _validate(spec)
    return _COMMANDS[spec.command].run(spec)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    """Every flag stays text; build_spec reads it like a job-file value."""
    parser = argparse.ArgumentParser(
        prog="wres",
        description="exact residue calculus for statistical Hodge operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in ("dim", "emit", "omega"):
            p.add_argument(f"--{flag}")
        p.add_argument(
            "--independent-dual",
            dest="dual",
            action="store_const",
            const="false",
            help="treat the dual drift components as independent draws",
        )
        p.add_argument("--job", help="job file of key = value lines")
        for flag in command.flags:
            p.add_argument(f"--{flag}")
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, text = run_command(build_spec(ns))
    except UsageError as exc:
        sys.stderr.write(
            f"usage error: field '{exc.field_name}': {exc}\n"
        )
        return 2
    sys.stdout.write(text)
    return code


def script() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    script()
