"""Acceptance gate.

Nine criteria, one test each, in dependency order: the fiber algebra,
the half-space projection, symbol inversion, the dimension-four case
table, the interior densities, the dimension-six regression with its
oracle arbitration, numeric concordance, vanishing structure, and the
command line.  Every test prints a verdict line and asserts its runtime
budget; expected values are written out inline so the gate is
self-contained.

The engine keeps no table between calls, so every budget times cold
work: each criterion builds the symbols, case tables, curvature terms
and oracle runs it checks inside its own timer, whether it runs alone
or after the others.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction

from wres.baselines import compare_cases, compare_total
from wres.boundary import boundary_phi
from wres.cli import main
from wres.clifford import (
    CliffordOp,
    build_generator,
    normal_clifford,
    tangential_clifford,
)
from wres.exact import (
    GaussianRational,
    Poly,
    gen_h,
    gen_omega,
    gen_pi,
    gen_s,
    gen_v,
    gen_vs,
    gen_w,
)
from wres.interior import (
    curvature_term,
    drift_gradient_term,
    interior_trace,
    interior_wres,
    residue_prefactor,
)
from wres.jets import compose_symbols, inverse_symbols, operator_symbols
from wres.numcheck import (
    NumericScenario,
    crosscheck,
    numeric_evaluate_case,
    omega_area,
    sphere_moment_mc,
)
from wres.rational import MatrixSymbol, RationalXi, pi_minus, pi_plus

I = GaussianRational(0, 1)


def verdict(number: int, elapsed: float, budget: float, note: str) -> None:
    print(
        f"criterion {number}: PASS  {note}  "
        f"({elapsed:.2f}s, budget {budget:g}s)"
    )
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def full_clifford(n):
    return MatrixSymbol.from_clifford(
        tangential_clifford(n)
    ) + MatrixSymbol.from_clifford(
        normal_clifford(n), RationalXi.monomial(1, 1)
    )


def pho(coeff) -> Poly:
    base = Poly.gen(gen_pi()) * Poly.gen(gen_h()) * Poly.gen(gen_omega())
    return base * GaussianRational.of(coeff)


def pvo(coeff, k: int, starred: bool = False) -> Poly:
    mk = gen_vs if starred else gen_v
    base = Poly.gen(gen_pi()) * Poly.gen(mk(k)) * Poly.gen(gen_omega())
    return base * GaussianRational.of(coeff)


def quad_sum(n, mk):
    out = Poly.zero()
    for k in range(1, n + 1):
        out = out + Poly.gen(mk(k), 2)
    return out


def diag_w_sum(n):
    out = Poly.zero()
    for j in range(1, n + 1):
        out = out + Poly.gen(gen_w(j, j))
    return out


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_1_clifford_identity_suite():
    """Anticommutators, fiber trace, and the two warped trace values,
    exactly, at both supported dimensions."""
    t0 = time.perf_counter()
    for n in (4, 6):
        cliff = [build_generator(n, j, "clifford") for j in range(1, n + 1)]
        bar = [
            build_generator(n, j, "clifford_bar") for j in range(1, n + 1)
        ]
        for i in range(n):
            for j in range(n):
                delta = -2 if i == j else 0
                assert cliff[i] @ cliff[j] + cliff[j] @ cliff[
                    i
                ] == CliffordOp.identity(n, delta)
                assert bar[i] @ bar[j] + bar[j] @ bar[
                    i
                ] == CliffordOp.identity(n, -delta)
                assert (cliff[i] @ bar[j] + bar[j] @ cliff[i]).is_zero
        assert CliffordOp.identity(n).trace() == Poly.const(1 << n)
        square_value = {4: -16, 6: -64}[n]
        warp_value = {4: -8, 6: -32}[n]
        c_tan = tangential_clifford(n)
        assert (c_tan @ c_tan).trace_on_sphere() == Poly.const(square_value)
        warped = c_tan.scale(Poly.gen(gen_h(), coeff=Fraction(1, 2)))
        assert (warped @ c_tan).trace_on_sphere() == Poly.gen(
            gen_h(), coeff=warp_value
        )
    verdict(
        1,
        time.perf_counter() - t0,
        1.0,
        "fiber algebra identities exact at n=4 and n=6",
    )


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_2_half_space_projection():
    """Worked projection values entrywise, plus idempotence and the
    plus/minus split on 100 seeded random proper rationals."""
    t0 = time.perf_counter()

    # i / |xi|^2 projects to 1 / (2 (xi_n - i))
    f = RationalXi((Poly.const(I),), 1, 1)
    assert pi_plus(f) == RationalXi((Poly.const(Fraction(1, 2)),), 1, 0)

    # c(xi) / |xi|^4 projects to -[(i xi_n + 2) c(xi') + i c(dx_n)]
    # over 4 (xi_n - i)^2
    n = 4
    c_tan = MatrixSymbol.from_clifford(
        tangential_clifford(n), RationalXi.inverse_norm_power(2)
    )
    c_nor = MatrixSymbol.from_clifford(
        normal_clifford(n),
        RationalXi.monomial(1, 1) * RationalXi.inverse_norm_power(2),
    )
    tan_factor = RationalXi(
        (
            Poly.const(Fraction(-1, 2)),
            Poly.const(GaussianRational(0, Fraction(-1, 4))),
        ),
        2,
        0,
    )
    nor_factor = RationalXi(
        (Poly.const(GaussianRational(0, Fraction(-1, 4))),), 2, 0
    )
    expected = MatrixSymbol.from_clifford(
        tangential_clifford(n), tan_factor
    ) + MatrixSymbol.from_clifford(normal_clifford(n), nor_factor)
    assert (c_tan + c_nor).pi_plus() == expected

    # i dxn(c(xi')) / |xi|^2 projects to dxn(c(xi')) / (2 (xi_n - i))
    half_h = Poly.gen(gen_h(), coeff=Fraction(1, 2))
    dxn_tan = tangential_clifford(n).scale(half_h)
    sym = MatrixSymbol.from_clifford(
        dxn_tan, RationalXi((Poly.const(I),), 1, 1)
    )
    assert sym.pi_plus() == MatrixSymbol.from_clifford(
        dxn_tan, RationalXi((Poly.const(Fraction(1, 2)),), 1, 0)
    )

    rng = random.Random(2024)
    for _ in range(100):
        a = rng.randint(1, 3)
        b = rng.randint(1, 3)
        deg = rng.randint(0, a + b - 1)
        coeffs = tuple(
            Poly.const(Fraction(rng.randint(-9, 9))) for _ in range(deg + 1)
        )
        f = RationalXi(coeffs, a, b)
        plus = pi_plus(f)
        assert pi_plus(plus) == plus
        assert plus + pi_minus(f) == f
    verdict(
        2,
        time.perf_counter() - t0,
        1.0,
        "projection goldens entrywise; split and idempotence on 100 draws",
    )


# ---------------------------------------------------------------------------
# criterion 3


def test_criterion_3_symbol_suite():
    """Inverse symbols against their worked closed forms, and
    composition with the forward symbols back to the identity."""
    t0 = time.perf_counter()
    n = 4
    for variant in ("Dv", "DvStar"):
        inv = inverse_symbols(n, variant)
        op = operator_symbols(n, variant)

        expected_top = full_clifford(n).scale(
            RationalXi.inverse_norm_power(1) * RationalXi.const(I)
        )
        assert inv.read(-1, 0) == expected_top

        sigma0 = op.read(0, 0)
        c_full = full_clifford(n)
        c_nor = MatrixSymbol.from_clifford(normal_clifford(n))
        h = Poly.gen(gen_h())
        dxn_tan = MatrixSymbol.from_clifford(
            tangential_clifford(n).scale(h * Fraction(1, 2))
        )
        norm2 = RationalXi(
            (Poly.const(1), Poly.const(0), Poly.const(1)), 0, 0
        )
        first = (c_full @ sigma0 @ c_full).scale(
            RationalXi.inverse_norm_power(2)
        )
        bracket = dxn_tan.scale(norm2) - c_full.scale(RationalXi.const(h))
        second = (c_full @ c_nor @ bracket).scale(
            RationalXi.inverse_norm_power(3)
        )
        assert inv.read(-2, 0) == first + second

        composed = compose_symbols(op, inv)
        assert composed.read(0, 0) == MatrixSymbol.identity(n)
        assert composed.read(-1, 0) == MatrixSymbol.zero(n)

    # leading term of the third-power inverse; the full composition
    # identity for the third power is exercised by the symbol unit tests
    m = 6
    inv3 = inverse_symbols(m, "D3")
    expected_lead = full_clifford(m).scale(
        RationalXi.inverse_norm_power(2) * RationalXi.const(I)
    )
    assert inv3.read(-3, 0) == expected_lead
    verdict(
        3,
        time.perf_counter() - t0,
        5.0,
        "inverse symbols match worked forms; compositions give identity",
    )


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_4_dim4_case_values():
    """The full dimension-four case table and the three totals, exactly,
    including the starred variants of the adjoint-square table."""
    t0 = time.perf_counter()
    h32 = Fraction(3, 2)
    h92 = Fraction(9, 2)

    total, reports = boundary_phi(4, "Dv", "Dv")
    by_case = {r.tuple.as_tuple(): r.contribution for r in reports}
    assert by_case[(-1, -1, 0, 0, 1)] == Poly.zero()
    assert by_case[(-1, -1, 0, 1, 0)] == pho(-h32)
    assert by_case[(-1, -1, 1, 0, 0)] == pho(h32)
    assert by_case[(-2, -1, 0, 0, 0)] == pho(h92) + pvo(2, 4)
    assert by_case[(-1, -2, 0, 0, 0)] == pho(-h92) + pvo(-2, 4)
    assert total == Poly.zero()
    assert boundary_phi(4, "Dv", "Dv", dual=False)[0] == Poly.zero()

    for dual in (True, False):
        total, reports = boundary_phi(4, "DvStar", "DvStar", dual=dual)
        by_case = {r.tuple.as_tuple(): r.contribution for r in reports}
        starred = not dual
        assert by_case[(-1, -1, 0, 1, 0)] == pho(-h32)
        assert by_case[(-1, -1, 1, 0, 0)] == pho(h32)
        assert by_case[(-2, -1, 0, 0, 0)] == pho(h92) + pvo(-2, 4, starred)
        assert by_case[(-1, -2, 0, 0, 0)] == pho(-h92) + pvo(2, 4, starred)
        assert total == Poly.zero()

    total, reports = boundary_phi(4, "Dv", "DvStar")
    by_case = {r.tuple.as_tuple(): r.contribution for r in reports}
    assert by_case[(-2, -1, 0, 0, 0)] == pho(h92) + pvo(2, 4)
    assert by_case[(-1, -2, 0, 0, 0)] == pho(-h92) + pvo(2, 4)
    assert total == pvo(4, 4)

    total, reports = boundary_phi(4, "Dv", "DvStar", dual=False)
    by_case = {r.tuple.as_tuple(): r.contribution for r in reports}
    assert by_case[(-2, -1, 0, 0, 0)] == pho(h92) + pvo(2, 4)
    assert by_case[(-1, -2, 0, 0, 0)] == pho(-h92) + pvo(2, 4, True)
    assert total == pvo(2, 4) + pvo(2, 4, True)
    verdict(
        4,
        time.perf_counter() - t0,
        10.0,
        "dimension-four case table and totals exact in both conventions",
    )


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_5_interior_densities():
    """Interior residue densities for the two squares and the mixed
    product, with the dimension-specific closed forms spelled out."""
    t0 = time.perf_counter()
    for n in (4, 6):
        dim = Fraction(1 << n)
        s_part = Poly.gen(gen_s(), coeff=Fraction(-1, 12)) * dim
        quarter = dim * Fraction(-1, 4)
        assert interior_trace(n, "Dv2") == s_part + quad_sum(n, gen_v) * quarter
        assert (
            interior_trace(n, "DvStar2")
            == s_part + quad_sum(n, gen_v) * quarter
        )
        assert (
            interior_trace(n, "DvStar2", dual=False)
            == s_part + quad_sum(n, gen_vs) * quarter
        )
        mixed = (
            s_part
            + quad_sum(n, gen_v) * (dim * Fraction(n - 3, 4))
            + diag_w_sum(n) * Fraction(-(1 << (n - 1)))
        )
        assert interior_trace(n, "DvStarDv") == mixed
        assert interior_wres(n, "DvStarDv") == residue_prefactor(n) * mixed

    pi2 = Poly.gen(gen_pi(), 2, 32)
    spec4 = Poly.gen(gen_s(), coeff=Fraction(-4, 3)) + quad_sum(
        4, gen_v
    ) * Fraction(-4)
    assert interior_wres(4, "Dv2") == pi2 * spec4

    pi3 = Poly.gen(gen_pi(), 3, 128)
    spec6 = (
        Poly.gen(gen_s(), coeff=Fraction(-16, 3))
        + quad_sum(6, gen_v) * Fraction(48)
        + diag_w_sum(6) * Fraction(-32)
    )
    assert interior_wres(6, "DvStarDv") == pi3 * spec6
    verdict(
        5,
        time.perf_counter() - t0,
        5.0,
        "interior densities exact, including both specializations",
    )


# ---------------------------------------------------------------------------
# criterion 6


def test_criterion_6_dim6_regression():
    """Dimension-six table against the recorded reference values.

    Pass condition: exact match, or a structured discrepancy in which
    the independent numeric oracle agrees with the engine within 1e-6
    relative on at least 20 reproducible scenarios.
    """
    t0 = time.perf_counter()
    total, reports = boundary_phi(6, "Dv", "D3")
    by_case = {r.tuple.as_tuple(): r.contribution for r in reports}

    reference_cases = {
        (-1, -3, 0, 0, 1): Poly.zero(),
        (-1, -3, 0, 1, 0): pho(Fraction(-15, 2)),
        (-1, -3, 1, 0, 0): pho(Fraction(25, 2)),
        (-1, -4, 0, 0, 0): pho(
            GaussianRational(Fraction(-195, 8), Fraction(-41, 8))
        )
        + pvo(22, 6),
        (-2, -3, 0, 0, 0): pho(Fraction(55, 2))
        + pvo(GaussianRational(-4, 9), 6),
    }
    reference_total = pho(
        GaussianRational(Fraction(65, 8), Fraction(-41, 8))
    ) + pvo(GaussianRational(18, 9), 6)

    discrepancies = compare_cases(reports, reference_cases)
    discrepancies += compare_total(total, reference_total, "boundary total")

    if not discrepancies:
        note = "dimension-six table matches the reference exactly"
    else:
        # the uncontested cases still have to agree
        assert by_case[(-1, -3, 0, 0, 1)] == Poly.zero()
        assert by_case[(-1, -3, 0, 1, 0)] == pho(Fraction(-15, 2))
        assert by_case[(-1, -3, 1, 0, 0)] == pho(Fraction(25, 2))

        labels = {d.label for d in discrepancies}
        assert labels == {
            "case (-1, -4, 0, 0, 0)",
            "case (-2, -3, 0, 0, 0)",
            "boundary total",
        }

        # frozen engine values: real coefficients, and the warp terms
        # cancel across the table exactly as they do at dimension four
        assert by_case[(-1, -4, 0, 0, 0)] == pho(Fraction(-65, 2)) + pvo(
            16, 6
        )
        assert by_case[(-2, -3, 0, 0, 0)] == pho(Fraction(55, 2)) + pvo(8, 6)
        assert total == pvo(24, 6)

        live = [r for r in reports if not r.structurally_zero]
        scenarios = 20
        for index in range(scenarios):
            scenario = NumericScenario.draw(6, 101 + index)
            rows = crosscheck(live, scenario, "Dv", "D3", tolerance=1e-6)
            assert len(rows) == len(live)
            for row in rows:
                assert row.passed, (
                    f"oracle disagrees with engine at seed {101 + index},"
                    f" case {row.case.as_tuple()}, rel_err {row.rel_err:.3e}"
                )
        note = (
            "structured discrepancy on two cases and the total; "
            f"oracle sides with the engine at 1e-6 on {scenarios} scenarios"
        )
    verdict(6, time.perf_counter() - t0, 300.0, note)


# ---------------------------------------------------------------------------
# criterion 7


def test_criterion_7_oracle_concordance_dim4():
    """Per-direction quadrature concordance for every dimension-four
    case in both conventions, sphere-averaged agreement for the live
    cases, and Monte-Carlo sphere moments at a million points."""
    t0 = time.perf_counter()
    pairs = [("Dv", "Dv"), ("DvStar", "DvStar"), ("Dv", "DvStar")]
    for left, right in pairs:
        for dual in (True, False):
            _, reports = boundary_phi(4, left, right, dual=dual)
            live = [r for r in reports if not r.structurally_zero]
            for seed in (3, 7):
                scenario = NumericScenario.draw(4, seed, dual=dual)
                rows = crosscheck(
                    live, scenario, left, right, tolerance=1e-6
                )
                assert len(rows) == len(live)
                assert all(row.passed for row in rows)

    _, reports = boundary_phi(4, "Dv", "Dv")
    scenario = NumericScenario.draw(4, 11)
    assignment = scenario.assignment()
    for report in reports:
        if report.structurally_zero:
            continue
        exact = report.contribution.eval_numeric(assignment)
        estimate, spread = numeric_evaluate_case(
            report.tuple, scenario, "Dv", "Dv", directions=32
        )
        assert abs(estimate - exact) < 5.0 * spread + 1e-9

    area = omega_area(3)
    million = 1_000_000
    got = sphere_moment_mc(3, (0, 0, 0), million, seed=41)
    assert abs(got - area) / area < 0.01
    got = sphere_moment_mc(3, (2, 0, 0), million, seed=43)
    assert abs(got - area / 3.0) / (area / 3.0) < 0.01
    got = sphere_moment_mc(3, (2, 2, 0), million, seed=47)
    assert abs(got - area / 15.0) / (area / 15.0) < 0.01
    got = sphere_moment_mc(3, (1, 0, 0), million, seed=53)
    assert abs(got) < 0.01 * area
    verdict(
        7,
        time.perf_counter() - t0,
        120.0,
        "dimension-four oracle concordance at 1e-6; sphere moments at 1%",
    )


# ---------------------------------------------------------------------------
# criterion 8


def test_criterion_8_vanishing_structure():
    """Every boundary contribution vanishes when the warp derivative and
    both drifts are switched off; commutator traces and the curvature
    trace vanish identically."""
    tables = [
        (4, "Dv", "Dv", True),
        (4, "Dv", "Dv", False),
        (4, "DvStar", "DvStar", True),
        (4, "DvStar", "DvStar", False),
        (4, "Dv", "DvStar", True),
        (4, "Dv", "DvStar", False),
        (6, "Dv", "D3", True),
    ]

    t0 = time.perf_counter()
    crossed_out = {"H", "V", "VS"}
    for n, left, right, dual in tables:
        _, reports = boundary_phi(n, left, right, dual=dual)
        zeroed = {gen_pi(): math.pi, gen_omega(): omega_area(n - 1)}
        zeroed[gen_h()] = 0.0
        for k in range(1, n + 1):
            zeroed[gen_v(k)] = 0.0
            zeroed[gen_vs(k)] = 0.0
        for report in reports:
            for monomial in report.contribution.terms:
                names = {g[0] for g, _ in monomial}
                assert names & crossed_out, (
                    f"case {report.tuple.as_tuple()} of ({n}, {left}, "
                    f"{right}) survives with flat collar and no drift"
                )
            assert report.contribution.eval_numeric(zeroed) == 0

    for n in (4, 6):
        for variant in ("Dv2", "DvStar2"):
            for dual in (True, False):
                assert (
                    drift_gradient_term(n, variant, dual).trace()
                    == Poly.zero()
                )
        assert curvature_term(n).trace() == Poly.zero()
    verdict(
        8,
        time.perf_counter() - t0,
        10.0,
        "flat-collar vanishing, commutator traces, and curvature trace",
    )


# ---------------------------------------------------------------------------
# criterion 9


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return time.perf_counter() - started, code, out.getvalue()


def test_criterion_9_cli_determinism_and_exit_codes():
    """Byte-identical output across repeated runs of each documented
    command, under one second per run, with the documented exit codes."""
    t0 = time.perf_counter()
    documented = [
        (["interior", "--dim", "4", "--op", "DvStarDv", "--emit", "json"], 0),
        (
            [
                "boundary",
                "--dim",
                "4",
                "--left",
                "Dv",
                "--right",
                "DvStar",
                "--emit",
                "json",
            ],
            0,
        ),
        (
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
            0,
        ),
        (["identities", "--dim", "4", "--emit", "json"], 0),
        (
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
                "--emit",
                "json",
            ],
            0,
        ),
        (
            [
                "boundary",
                "--dim",
                "6",
                "--left",
                "Dv",
                "--right",
                "D3",
                "--emit",
                "json",
            ],
            1,
        ),
    ]
    for argv, expected_code in documented:
        dt1, code1, out1 = run_cli(argv)
        dt2, code2, out2 = run_cli(argv)
        assert code1 == code2 == expected_code, argv
        assert out1 == out2, argv
        assert max(dt1, dt2) < 1.0, (argv, dt1, dt2)

    _, code, _ = run_cli(["boundary", "--dim", "5"])
    assert code == 2
    _, code, _ = run_cli(
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
        ]
    )
    assert code == 1
    verdict(
        9,
        time.perf_counter() - t0,
        30.0,
        "documented commands byte-deterministic under 1s; exit codes 0/1/2",
    )
