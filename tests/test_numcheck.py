"""Numeric oracle internals: quadrature, pole expansions, dense fiber
operators, and the exact-vs-numeric crosscheck rows."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wres.boundary import CaseTuple, boundary_phi
from wres.exact import GaussianRational, Poly, gen_omega
from wres.numcheck import (
    _POLE_ORDER,
    NumericFiber,
    NumericScenario,
    PoleExpansion,
    _case_coefficient,
    _pole_coefficients,
    _trace_integrand,
    crosscheck,
    line_quad,
    numeric_evaluate_case,
    numeric_line_integral,
    omega_area,
    sphere_moment_mc,
)
from wres.rational import RationalXi


def test_omega_area_known_values():
    assert math.isclose(omega_area(2), 2.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(omega_area(3), 4.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(omega_area(4), 2.0 * math.pi**2, rel_tol=1e-14)
    assert math.isclose(
        omega_area(5), 8.0 * math.pi**2 / 3.0, rel_tol=1e-14
    )


def test_scenario_is_reproducible():
    a = NumericScenario.draw(4, 9)
    b = NumericScenario.draw(4, 9)
    assert a == b
    assert math.isclose(sum(x * x for x in a.direction), 1.0, rel_tol=1e-12)
    assert len(a.direction) == 3
    assert a.vs == a.v


def test_scenario_independent_dual_differs():
    s = NumericScenario.draw(4, 9, dual=False)
    assert s.vs != s.v
    assert len(s.vs) == 4


def test_scenario_assignment_covers_generators():
    s = NumericScenario.draw(6, 2)
    assignment = s.assignment()
    names = {g[0] for g in assignment}
    assert names == {"H", "PI", "OMEGA", "XI", "V", "VS"}
    xi_indices = {g[1] for g in assignment if g[0] == "XI"}
    assert xi_indices == {1, 2, 3, 4, 5}
    assert assignment[gen_omega()] == omega_area(5)


def test_scenario_omega_interpretations():
    cos = NumericScenario.draw(4, 2)
    amb = NumericScenario.draw(4, 2, omega="ambient")
    assert math.isclose(cos.omega_value(), omega_area(3), rel_tol=1e-14)
    assert math.isclose(amb.omega_value(), omega_area(4), rel_tol=1e-14)
    bad = NumericScenario.draw(4, 2, omega="midpoint")
    with pytest.raises(ValueError):
        bad.omega_value()


def test_line_quad_reference_integrals():
    got = line_quad(lambda x: 1.0 / (1.0 + x * x), 40.0)
    assert abs(got - math.pi) < 1e-10
    got = line_quad(lambda x: 1.0 / (1.0 + x * x) ** 2, 40.0)
    assert abs(got - math.pi / 2.0) < 1e-10


def random_proper_rational(rng):
    a = rng.randint(0, 3)
    b = rng.randint(0, 3)
    if a + b == 0:
        a = 1
    length = rng.randint(1, a + b)
    num = []
    for _ in range(length):
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        num.append(Poly.const(GaussianRational(re, im)))
    rat = RationalXi(num, a, b)
    if rat.is_zero:
        rat = RationalXi([Poly.const(1)], max(a, 1), b)
    return rat


def eval_const_rational(rat, z):
    num = sum(
        complex(p.eval_numeric({})) * z**i for i, p in enumerate(rat.num)
    )
    return num / ((z - 1j) ** rat.a * (z + 1j) ** rat.b)


def test_pole_expansion_reproduces_rationals():
    """Contour-extracted principal parts must reproduce proper rational
    functions and their normal-covariable derivatives on the real line."""
    rng = random.Random(97)
    points = [-2.7, -1.1, -0.3, 0.4, 1.6, 3.2]
    for _ in range(25):
        rat = random_proper_rational(rng)
        poles = PoleExpansion(lambda z, r=rat: eval_const_rational(r, z))
        drat = rat.d_xi_n()
        for x in points:
            assert abs(poles.eval(x) - eval_const_rational(rat, x)) < 1e-9
            assert abs(poles.eval(x, 1) - eval_const_rational(drat, x)) < 1e-8


def test_pole_expansion_projection_golden():
    # 1/(1+x**2) splits at the poles; the upper part is -i/2 / (x - i)
    poles = PoleExpansion(lambda z: 1.0 / (1.0 + z * z))
    for x in (-1.5, 0.0, 0.8, 2.5):
        want = -0.5j / (x - 1j)
        assert abs(poles.eval_plus(x) - want) < 1e-12


def test_pole_expansion_handles_matrix_values():
    def f(z):
        return np.block(
            [
                [1.0 / (z - 1j), np.zeros_like(z)],
                [np.ones_like(z), 1.0 / (z + 1j) ** 2],
            ]
        )

    poles = PoleExpansion(f)
    got = poles.eval(0.5)
    assert abs(got[0, 0] - 1.0 / (0.5 - 1j)) < 1e-10
    assert abs(got[1, 1] - 1.0 / (0.5 + 1j) ** 2) < 1e-10
    # the entire entry has no principal part anywhere
    assert abs(got[1, 0]) < 1e-10


@pytest.mark.parametrize("n", [4, 6])
def test_numeric_fiber_clifford_relations(n):
    fiber = NumericFiber(NumericScenario.draw(n, 3))
    dim = 1 << n
    eye = np.eye(dim)
    for i in range(n):
        for j in range(n):
            anti = fiber.cliff[i] @ fiber.cliff[j] + fiber.cliff[j] @ fiber.cliff[i]
            want = -2.0 * eye if i == j else 0.0 * eye
            assert np.max(np.abs(anti - want)) < 1e-12
            anti = (
                fiber.cliff_bar[i] @ fiber.cliff_bar[j]
                + fiber.cliff_bar[j] @ fiber.cliff_bar[i]
            )
            want = 2.0 * eye if i == j else 0.0 * eye
            assert np.max(np.abs(anti - want)) < 1e-12
            mixed = (
                fiber.cliff[i] @ fiber.cliff_bar[j]
                + fiber.cliff_bar[j] @ fiber.cliff[i]
            )
            assert np.max(np.abs(mixed)) < 1e-12


def test_numeric_inverses_invert():
    fiber = NumericFiber(NumericScenario.draw(4, 13))
    first = fiber.first_inverse("Dv")
    triple = fiber.triple_inverse()
    eye = np.eye(fiber.dim)
    for z in (0.3, -1.7, 2.2):
        p = fiber.p1(z)
        assert np.max(np.abs(first["value"][-1](z) @ p - eye)) < 1e-10
        cube = p @ p @ p
        assert np.max(np.abs(triple["value"][-3](z) @ cube - eye)) < 1e-10


def test_alpha_case_is_numerically_zero():
    s = NumericScenario.draw(4, 21)
    case = CaseTuple(-1, -1, 0, 0, 1)
    assert numeric_line_integral(case, s, "Dv", "Dv") == 0.0
    estimate, spread = numeric_evaluate_case(case, s, "Dv", "Dv")
    assert estimate == 0.0
    assert spread == 0.0


def test_untracked_jets_rejected_numerically():
    s = NumericScenario.draw(4, 21)
    with pytest.raises(ValueError):
        numeric_line_integral(CaseTuple(-1, -1, 0, 2, 0), s, "Dv", "Dv")


def test_crosscheck_dim4_all_rows_pass():
    """The oracle and the exact engine agree per direction on every
    dimension-four case, far inside the default tolerance."""
    _, reports = boundary_phi(4, "Dv", "Dv")
    for seed in (5, 17):
        scenario = NumericScenario.draw(4, seed)
        rows = crosscheck(reports, scenario, "Dv", "Dv")
        assert len(rows) == len(reports)
        for row in rows:
            assert row.passed
            assert not row.spurious_imag
            assert row.rel_err < 1e-9


@pytest.mark.parametrize(
    "n, left, right", [(4, "Dv", "DvStar"), (6, "Dv", "D3")]
)
def test_contracted_integrand_matches_matrix_trace(n, left, right):
    """The scalar contraction w(x) @ G @ u(x) is the trace of the product
    of the two evaluated pole expansions, case by case."""
    _, reports = boundary_phi(n, left, right)
    fiber = NumericFiber(NumericScenario.draw(n, 29))
    left_family = fiber.inverse_family(left)
    right_family = fiber.inverse_family(right)
    live = [r.tuple for r in reports if not r.structurally_zero]
    assert live
    for case in live:
        lp = PoleExpansion(
            left_family["value" if case.j == 0 else "dxn"][case.r]
        )
        rp = PoleExpansion(
            right_family["value" if case.k == 0 else "dxn"][case.l]
        )
        integrand = _trace_integrand(lp, rp, case)
        coeff = _case_coefficient(case)
        for x in (-7.5, -2.3, -1.0, -0.4, 0.0, 0.6, 1.9, 11.0):
            want = coeff * np.trace(
                lp.eval_plus(x, case.k) @ rp.eval(x, case.j + 1)
            )
            assert abs(integrand(x) - want) <= 1e-12 * abs(want)


def test_crosscheck_rows_match_standalone_line_integrals():
    """Sharing the fiber and the pole expansions across a scenario's
    cases does the same arithmetic as one case at a time."""
    _, reports = boundary_phi(4, "Dv", "DvStar")
    live = [r for r in reports if not r.structurally_zero]
    scenario = NumericScenario.draw(4, 8)
    rows = crosscheck(live, scenario, "Dv", "DvStar")
    assert [row.case for row in rows] == [r.tuple for r in live]
    for row in rows:
        alone = numeric_line_integral(row.case, scenario, "Dv", "DvStar")
        assert row.numeric == alone


@pytest.mark.parametrize(
    "n, op", [(4, "Dv"), (4, "DvStar"), (6, "Dv"), (6, "DvStar"), (6, "D3")]
)
def test_pole_order_covers_every_inverse_family(n, op):
    """The assumed principal-part length is long enough: the contour
    coefficients of the four orders beyond it vanish at both poles."""
    fiber = NumericFiber(NumericScenario.draw(n, 101))
    for kind, functions in fiber.inverse_family(op).items():
        for order, fn in functions.items():
            coeffs = np.abs(
                [
                    _pole_coefficients(fn, pole, _POLE_ORDER + 4)
                    for pole in (1j, -1j)
                ]
            )
            tail = coeffs[:, _POLE_ORDER:].max()
            assert tail < 1e-12 * coeffs.max(), (kind, order, tail)


def test_crosscheck_flags_injected_fault():
    _, reports = boundary_phi(4, "Dv", "Dv")
    scenario = NumericScenario.draw(4, 5)
    doctored = []
    for report in reports:
        if report.tuple.as_tuple() == (-2, -1, 0, 0, 0):
            bad = report.trace_integral * Fraction(101, 100)
            doctored.append(replace(report, trace_integral=bad))
        else:
            doctored.append(report)
    rows = crosscheck(doctored, scenario, "Dv", "Dv")
    verdicts = {row.case.as_tuple(): row.passed for row in rows}
    assert verdicts[(-2, -1, 0, 0, 0)] is False
    assert all(v for key, v in verdicts.items() if key != (-2, -1, 0, 0, 0))


@pytest.mark.parametrize("omega", ["cosphere", "ambient"])
def test_numeric_case_value_matches_exact_contribution(omega):
    """Sphere-averaged numeric case values agree with the exact
    contribution within the Monte-Carlo error bar, under either reading
    of the symbolic sphere volume."""
    _, reports = boundary_phi(4, "Dv", "Dv")
    scenario = NumericScenario.draw(4, 11, omega=omega)
    target = next(
        r for r in reports if r.tuple.as_tuple() == (-2, -1, 0, 0, 0)
    )
    exact = target.contribution.eval_numeric(scenario.assignment())
    estimate, spread = numeric_evaluate_case(
        target.tuple, scenario, "Dv", "Dv", directions=48
    )
    assert abs(estimate - exact) < 5.0 * spread + 1e-9


def test_sphere_moment_mc_matches_exact_moments():
    area = omega_area(3)
    got = sphere_moment_mc(3, (2, 0, 0), 200_000, seed=29)
    assert abs(got - area / 3.0) / (area / 3.0) < 0.01
    got = sphere_moment_mc(3, (1, 1, 0), 200_000, seed=31)
    assert abs(got) < 0.01 * area
    got = sphere_moment_mc(5, (2, 2, 0, 0, 0), 400_000, seed=37)
    want = omega_area(5) / 35.0
    assert abs(got - want) / want < 0.01
