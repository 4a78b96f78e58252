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
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .baselines import (
    Discrepancy,
    boundary_reference,
    compare_cases,
    compare_total,
    interior_reference,
)
from .boundary import (
    _ORDER_OF,
    SUPPORTED_PAIRS,
    CaseTuple,
    boundary_phi,
    enumerate_cases,
    evaluate_case,
)
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
)
from .interior import SQUARE_VARIANTS, interior_wres
from .jets import inverse_symbols
from .numcheck import NumericScenario, crosscheck, line_quad
from .rational import RationalXi, pi_minus, pi_plus, sphere_integrate

_EMITS = ("json", "latex", "text")
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
# thread cap


def thread_cap(scenarios: int) -> int:
    """Worker count for scenario sweeps, capped by WRES_THREADS."""
    raw = os.environ.get("WRES_THREADS")
    if raw is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError("WRES_THREADS", f"not an integer: {raw!r}")
        if cap < 1:
            raise UsageError("WRES_THREADS", "must be a positive integer")
    return max(1, min(cap, scenarios))


# ---------------------------------------------------------------------------
# job files


def load_job_file(path: str) -> dict:
    """Parse a job file of `key = value` lines into a string map."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
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
        values[key.strip()] = value.strip()
    return values


_JOB_KEYS = {
    "dim",
    "left",
    "right",
    "op",
    "emit",
    "dual",
    "omega",
    "seed",
    "tolerance",
    "scenarios",
    "tuple",
}


def _parse_bool(field_name: str, text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise UsageError(field_name, f"expected a boolean, got {text!r}")


def _parse_case_tuple(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise UsageError(
            "tuple", f"expected five comma-separated integers, got {text!r}"
        )
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError("tuple", f"non-integer entry in {text!r}")


def build_spec(ns: argparse.Namespace) -> JobSpec:
    """Merge command-line flags over an optional job file, then validate."""
    job = {}
    if getattr(ns, "job", None):
        job = load_job_file(ns.job)
        for key in job:
            if key not in _JOB_KEYS:
                raise UsageError(key, "unknown job file key")

    def pick(name: str, default):
        flag = getattr(ns, name, None)
        if flag is not None:
            return flag
        if name in job:
            raw = job[name]
            if isinstance(default, bool):
                return _parse_bool(name, raw)
            if isinstance(default, int):
                try:
                    return int(raw)
                except ValueError:
                    raise UsageError(name, f"not an integer: {raw!r}")
            if isinstance(default, float):
                try:
                    return float(raw)
                except ValueError:
                    raise UsageError(name, f"not a number: {raw!r}")
            return raw
        return default

    dual = True
    if getattr(ns, "independent_dual", False):
        dual = False
    elif "dual" in job:
        dual = _parse_bool("dual", job["dual"])

    case_text = getattr(ns, "tuple", None)
    if case_text is None and "tuple" in job:
        case_text = job["tuple"]
    case_tuple = _parse_case_tuple(case_text) if case_text else None

    spec = JobSpec(
        command=ns.command,
        dim=pick("dim", JobSpec.dim),
        left=pick("left", JobSpec.left),
        right=pick("right", JobSpec.right),
        op=pick("op", JobSpec.op),
        emit=pick("emit", JobSpec.emit),
        dual=dual,
        omega=pick("omega", JobSpec.omega),
        seed=pick("seed", JobSpec.seed),
        tolerance=pick("tolerance", JobSpec.tolerance),
        scenarios=pick("scenarios", JobSpec.scenarios),
        case_tuple=case_tuple,
    )
    _validate(spec)
    return spec


def _validate(spec: JobSpec) -> None:
    if spec.dim % 2 != 0 or spec.dim < 4:
        raise UsageError("dim", f"dimension must be even and >= 4, got {spec.dim}")
    if spec.emit not in _EMITS:
        raise UsageError("emit", f"must be one of {_EMITS}, got {spec.emit!r}")
    if spec.omega not in _OMEGAS:
        raise UsageError("omega", f"must be one of {_OMEGAS}, got {spec.omega!r}")
    if spec.command == "interior" and spec.op not in SQUARE_VARIANTS:
        raise UsageError(
            "op", f"must be one of {SQUARE_VARIANTS}, got {spec.op!r}"
        )
    if spec.command in ("boundary", "case", "crosscheck"):
        key = (spec.dim, spec.left, spec.right)
        if key not in SUPPORTED_PAIRS:
            raise UsageError(
                "operators",
                f"unsupported operator pair {key}; supported pairs are "
                + ", ".join(str(p) for p in sorted(SUPPORTED_PAIRS)),
            )
    if spec.command == "case" and spec.case_tuple is None:
        raise UsageError("tuple", "the case command requires a case tuple")
    if not (math.isfinite(spec.tolerance) and spec.tolerance > 0):
        raise UsageError(
            "tolerance", f"must be finite and positive, got {spec.tolerance!r}"
        )
    if spec.scenarios < 1:
        raise UsageError("scenarios", "must be at least 1")
    if spec.command == "crosscheck" and spec.emit == "latex":
        raise UsageError("emit", "crosscheck output has no latex form")
    if spec.command == "identities" and spec.emit == "latex":
        raise UsageError("emit", "identities output has no latex form")


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


def _parse_generator(text: str):
    if "(" in text:
        tag, _, rest = text.partition("(")
        args = rest.rstrip(")")
        return (tag,) + tuple(int(a) for a in args.split(","))
    return (text,)


def _parse_monomial(text: str):
    if text == "1":
        return ()
    pairs = []
    for piece in text.split("*"):
        if "^" in piece:
            base, _, exp = piece.partition("^")
            pairs.append((_parse_generator(base), int(exp)))
        else:
            pairs.append((_parse_generator(piece), 1))
    return tuple(sorted(pairs))


def _poly_from_json(data: dict) -> Poly:
    terms = {}
    for term in data["terms"]:
        coeff = GaussianRational(
            Fraction(term["re"]), Fraction(term["im"])
        )
        terms[_parse_monomial(term["monomial"])] = coeff
    return Poly(terms)


def emit_report(report: Report, emit: str) -> str:
    if emit == "json":
        return _emit_json(report)
    if emit == "latex":
        return _emit_latex(report)
    return _emit_text(report)


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
    """Inverse of the json emission; round-trips every report exactly."""
    payload = json.loads(text)
    cases = [
        (
            CaseTuple(*entry["tuple"]),
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
    return Report(
        meta=payload["meta"],
        cases=cases,
        total=_poly_from_json(payload["total"]),
        discrepancies=discrepancies,
    )


# ---------------------------------------------------------------------------
# latex


def _latex_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    sign = "-" if x < 0 else ""
    return f"{sign}\\frac{{{abs(x.numerator)}}}{{{abs(x.denominator)}}}"


def _latex_coefficient(c: GaussianRational) -> str:
    if c.im == 0:
        return _latex_fraction(c.re)
    if c.re == 0:
        body = _latex_fraction(c.im)
        return body + "i"
    re_part = _latex_fraction(c.re)
    im_part = _latex_fraction(abs(c.im)) + "i"
    joiner = "-" if c.im < 0 else "+"
    return f"\\left({re_part}{joiner}{im_part}\\right)"


def _latex_generator(gen, dim: int) -> str:
    tag = gen[0]
    if tag == "H":
        return "h'(0)"
    if tag == "PI":
        return "\\pi"
    if tag == "OMEGA":
        return "\\Omega"
    if tag == "S":
        return "s"
    if tag == "XI":
        return f"\\xi_{{{gen[1]}}}"
    if tag == "V":
        if gen[1] == dim:
            return "\\langle v,dx_n\\rangle"
        return f"\\langle v,e_{{{gen[1]}}}\\rangle"
    if tag == "VS":
        if gen[1] == dim:
            return "\\langle v^{*},\\partial_{n}\\rangle"
        return f"\\langle v^{{*}},e_{{{gen[1]}}}\\rangle"
    if tag == "W":
        return f"(\\nabla v)_{{{gen[1]}{gen[2]}}}"
    if tag == "WS":
        return f"(\\nabla v^{{*}})_{{{gen[1]}{gen[2]}}}"
    if tag == "R":
        return f"R_{{{gen[1]}{gen[2]}{gen[3]}{gen[4]}}}"
    return format_generator(gen)


def _latex_term(monomial, coeff: GaussianRational, dim: int) -> str:
    pi_parts = []
    main_parts = []
    omega_parts = []
    for gen, exp in monomial:
        body = _latex_generator(gen, dim)
        rendered = body if exp == 1 else f"{body}^{{{exp}}}"
        if gen[0] == "PI":
            pi_parts.append(rendered)
        elif gen[0] == "OMEGA":
            omega_parts.append(rendered)
        else:
            main_parts.append(rendered)
    ordered = pi_parts + main_parts + omega_parts
    symbols = ""
    for piece in ordered:
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


def _run_interior(spec: JobSpec) -> tuple[int, str]:
    total = interior_wres(spec.dim, spec.op, dual=spec.dual)
    discrepancies = []
    expected = interior_reference(spec.dim, spec.op, dual=spec.dual)
    if expected is not None:
        discrepancies = compare_total(total, expected, "interior total")
    report = Report(
        meta=_meta(spec, [spec.op]),
        cases=[],
        total=total,
        discrepancies=discrepancies,
    )
    return (1 if discrepancies else 0), emit_report(report, spec.emit)


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
    report = Report(
        meta=_meta(spec, [spec.left, spec.right]),
        cases=cases,
        total=total,
        discrepancies=discrepancies,
    )
    return (1 if discrepancies else 0), emit_report(report, spec.emit)


def _run_case(spec: JobSpec) -> tuple[int, str]:
    allowed = enumerate_cases(spec.dim, _ORDER_OF[spec.left], _ORDER_OF[spec.right])
    case = CaseTuple(*spec.case_tuple)
    if case not in allowed:
        raise UsageError(
            "tuple",
            f"{case.as_tuple()} is not a valid case for this pair; "
            f"valid tuples: {[c.as_tuple() for c in allowed]}",
        )
    left = inverse_symbols(spec.dim, spec.left, dual=spec.dual)
    right = inverse_symbols(spec.dim, spec.right, dual=spec.dual)
    result = evaluate_case(case, left, right, spec.dim)
    report = Report(
        meta=_meta(spec, [spec.left, spec.right]),
        cases=[(result.tuple, result.contribution)],
        total=result.contribution,
        discrepancies=[],
    )
    return 0, emit_report(report, spec.emit)


def _identity_checks(spec: JobSpec) -> list:
    n = spec.dim
    checks = []
    clifford = [build_generator(n, j, "clifford") for j in range(1, n + 1)]
    clifford_bar = [
        build_generator(n, j, "clifford_bar") for j in range(1, n + 1)
    ]
    ok = True
    for i in range(n):
        for j in range(n):
            delta = -2 if i == j else 0
            anti = clifford[i] @ clifford[j] + clifford[j] @ clifford[i]
            if anti != CliffordOp.identity(n, delta):
                ok = False
            anti_bar = (
                clifford_bar[i] @ clifford_bar[j]
                + clifford_bar[j] @ clifford_bar[i]
            )
            if anti_bar != CliffordOp.identity(n, -delta):
                ok = False
            mixed = clifford[i] @ clifford_bar[j] + clifford_bar[j] @ clifford[i]
            if not mixed.is_zero:
                ok = False
    checks.append(("clifford-anticommutators", ok))
    dim_poly = Poly.const(Fraction(1 << n))
    checks.append(
        ("fiber-trace-dimension", CliffordOp.identity(n).trace() == dim_poly)
    )
    c_nor = normal_clifford(n)
    checks.append(
        (
            "normal-clifford-square-trace",
            (c_nor @ c_nor).trace() == Poly.const(Fraction(-(1 << n))),
        )
    )
    c_tan = tangential_clifford(n)
    checks.append(
        (
            "tangential-clifford-square-trace",
            (c_tan @ c_tan).trace_on_sphere()
            == Poly.const(Fraction(-(1 << n))),
        )
    )
    checks.append(
        ("mixed-clifford-trace", (c_tan @ c_nor).trace() == Poly.zero())
    )
    warped = c_tan.scale(Poly.gen(gen_h(), coeff=Fraction(1, 2)))
    expected_warp = Poly.gen(gen_h(), coeff=Fraction(-(1 << (n - 1))))
    checks.append(
        (
            "warp-derivative-trace",
            (warped @ c_tan).trace_on_sphere() == expected_warp,
        )
    )
    ok = True
    rng = random.Random(spec.seed)
    for _ in range(20):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        deg = rng.randint(0, a + b - 1)
        coeffs = tuple(
            Poly.const(Fraction(rng.randint(-9, 9))) for _ in range(deg + 1)
        )
        f = RationalXi(coeffs, a, b)
        plus = pi_plus(f)
        if pi_plus(plus) != plus:
            ok = False
        if plus + pi_minus(f) != f:
            ok = False
    checks.append(("projection-split", ok))
    quad_value = line_quad(lambda x: 1.0 / (1.0 + x * x) ** 2 + 0.0j, 40.0)
    checks.append(
        (
            "line-quadrature-reference",
            abs(quad_value - math.pi / 2.0) < 1e-10,
        )
    )
    second = sphere_integrate(
        Poly.gen(gen_xi(1)) * Poly.gen(gen_xi(1)), n
    )
    expected_second = Poly.gen(gen_omega(), coeff=Fraction(1, n - 1))
    checks.append(("sphere-second-moment", second == expected_second))
    first = sphere_integrate(Poly.gen(gen_xi(1)), n)
    checks.append(("sphere-odd-moment", first == Poly.zero()))
    return checks


def _run_identities(spec: JobSpec) -> tuple[int, str]:
    checks = _identity_checks(spec)
    failed = [name for name, ok in checks if not ok]
    if spec.emit == "json":
        payload = {
            "meta": _meta(spec, ["identities"]),
            "identities": [
                {"name": name, "ok": ok} for name, ok in checks
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            ("ok   " if ok else "FAIL ") + name for name, ok in checks
        ]
        text = "\n".join(lines) + "\n"
    return (1 if failed else 0), text


def _run_crosscheck(spec: JobSpec) -> tuple[int, str]:
    _, reports = boundary_phi(spec.dim, spec.left, spec.right, dual=spec.dual)
    live = [r for r in reports if not r.structurally_zero]

    def one(index: int):
        scenario = NumericScenario.draw(
            spec.dim, spec.seed + index, dual=spec.dual, omega=spec.omega
        )
        return crosscheck(
            live, scenario, spec.left, spec.right, tolerance=spec.tolerance
        )

    workers = thread_cap(spec.scenarios)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(one, range(spec.scenarios)))
    else:
        all_rows = [one(i) for i in range(spec.scenarios)]

    any_fail = False
    entries = []
    for index, rows in enumerate(all_rows):
        for row in rows:
            if not row.passed:
                any_fail = True
            entries.append(
                {
                    "seed": spec.seed + index,
                    "case": list(row.case.as_tuple()),
                    "exact": [row.exact.real, row.exact.imag],
                    "numeric": [row.numeric.real, row.numeric.imag],
                    "rel_err": row.rel_err,
                    "passed": row.passed,
                    "spurious_imag": row.spurious_imag,
                }
            )
    if spec.emit == "json":
        payload = {
            "meta": _meta(spec, [spec.left, spec.right]),
            "tolerance": spec.tolerance,
            "rows": entries,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = []
        for e in entries:
            status = "ok  " if e["passed"] else "FAIL"
            lines.append(
                "{status} seed={seed} case={case} rel_err={rel:.3e}".format(
                    status=status,
                    seed=e["seed"],
                    case=tuple(e["case"]),
                    rel=e["rel_err"],
                )
            )
        text = "\n".join(lines) + "\n"
    return (1 if any_fail else 0), text


def run_command(spec: JobSpec) -> tuple[int, str]:
    """Execute a resolved job; returns (exit code, output text)."""
    if spec.command == "interior":
        return _run_interior(spec)
    if spec.command == "boundary":
        return _run_boundary(spec)
    if spec.command == "case":
        return _run_case(spec)
    if spec.command == "identities":
        return _run_identities(spec)
    if spec.command == "crosscheck":
        return _run_crosscheck(spec)
    raise UsageError("command", f"unknown command {spec.command!r}")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wres",
        description="exact residue calculus for statistical Hodge operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--emit", choices=_EMITS, default=None)
        p.add_argument("--omega", choices=_OMEGAS, default=None)
        p.add_argument(
            "--independent-dual",
            action="store_true",
            help="treat the dual drift components as independent draws",
        )
        p.add_argument("--job", default=None, help="job file of key = value lines")

    p_int = sub.add_parser("interior", help="interior residue density")
    common(p_int)
    p_int.add_argument("--op", default=None)

    p_bdy = sub.add_parser("boundary", help="boundary case table")
    common(p_bdy)
    p_bdy.add_argument("--left", default=None)
    p_bdy.add_argument("--right", default=None)

    p_case = sub.add_parser("case", help="one boundary case")
    common(p_case)
    p_case.add_argument("--left", default=None)
    p_case.add_argument("--right", default=None)
    p_case.add_argument("--tuple", default=None, dest="tuple")

    p_id = sub.add_parser("identities", help="deterministic self checks")
    common(p_id)
    p_id.add_argument("--seed", type=int, default=None)

    p_x = sub.add_parser("crosscheck", help="exact vs numeric verdicts")
    common(p_x)
    p_x.add_argument("--left", default=None)
    p_x.add_argument("--right", default=None)
    p_x.add_argument("--seed", type=int, default=None)
    p_x.add_argument("--tolerance", type=float, default=None)
    p_x.add_argument("--scenarios", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        spec = build_spec(ns)
        code, text = run_command(spec)
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
