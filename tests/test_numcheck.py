"""Numeric oracle internals: quadrature, pole expansions, dense fiber
operators, and the exact-vs-numeric crosscheck rows."""

import ast
import math
import random
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad

from wres.boundary import CaseTuple, boundary_phi
from wres.exact import GaussianRational, Poly, gen_omega
from wres import jets, numcheck
from wres.numcheck import (
    _POLE_ORDER,
    NumericFiber,
    NumericScenario,
    PoleExpansion,
    _case_coefficient,
    _derivative_factors,
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


def test_line_quad_reference_integrals():
    got = line_quad(lambda x: 1.0 / (1.0 + x * x))
    assert abs(got - math.pi) < 1e-10
    got = line_quad(lambda x: 1.0 / (1.0 + x * x) ** 2)
    assert abs(got - math.pi / 2.0) < 1e-10


def _frozen_line_quad(g, t_bound):
    """`line_quad` as it was before its node table, kept verbatim as the
    reference for it."""

    def part(fn, a, b):
        return quad(fn, a, b, limit=200, epsabs=1e-11, epsrel=1e-11)[0]

    total = part(lambda x: g(x).real, -t_bound, t_bound) + 1j * part(
        lambda x: g(x).imag, -t_bound, t_bound
    )
    upper = 1.0 / t_bound
    for sign in (1.0, -1.0):

        def tail(t, s=sign):
            return g(s / t) / (t * t)

        total += part(lambda t: tail(t).real, 0.0, upper) + 1j * part(
            lambda t: tail(t).imag, 0.0, upper
        )
    return total


def _crosscheck_integrands(n, left, right, seed):
    """The quadrature integrands of every live case of one scenario."""
    _, reports = boundary_phi(n, left, right)
    fiber = NumericFiber(NumericScenario.draw(n, seed))
    terms = PoleExpansion(fiber.inverse_members((left, right))).terms
    return [
        _trace_integrand(
            terms[left, r.tuple.j, r.tuple.r],
            terms[right, r.tuple.k, r.tuple.l],
            r.tuple,
        )
        for r in reports
        if not r.structurally_zero
    ]


LINE_QUAD_INTEGRANDS = {
    "reference": lambda: [
        lambda x: 1.0 / (1.0 + x * x),
        lambda x: 1.0 / (1.0 + x * x) ** 2,
    ],
    "n4-Dv-DvStar": lambda: _crosscheck_integrands(4, "Dv", "DvStar", 8),
    "n6-Dv-D3": lambda: _crosscheck_integrands(6, "Dv", "D3", 3),
}


@pytest.mark.parametrize("integrands", list(LINE_QUAD_INTEGRANDS))
def test_line_quad_matches_frozen_copy(integrands):
    """The node table changes no bit of the result."""
    for g in LINE_QUAD_INTEGRANDS[integrands]():
        assert line_quad(g) == _frozen_line_quad(g, 40.0)


@pytest.mark.parametrize("integrands", list(LINE_QUAD_INTEGRANDS))
def test_line_quad_runs_g_once_per_distinct_node(integrands):
    """g runs once on each node the six quadratures ask for, and on no
    other node."""
    for g in LINE_QUAD_INTEGRANDS[integrands]():
        calls = []
        frozen_calls = []
        line_quad(lambda x: calls.append(x) or g(x))
        _frozen_line_quad(lambda x: frozen_calls.append(x) or g(x), 40.0)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(frozen_calls)
        assert len(calls) < len(frozen_calls)


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


def _expand(f):
    """The `PoleExpansion.terms` entry of one function f, passed as a
    one-member family."""

    def members(z):
        yield ["f"], f(z)

    return PoleExpansion(members).terms["f"]


def _eval_side(coeffs, center, z, deriv):
    """The principal part with coefficients coeffs at center, evaluated at
    z and differentiated deriv times; `PoleExpansion._eval_side` as it
    was, kept verbatim as the reference for the contracted integrand."""
    factors = _derivative_factors(len(coeffs), deriv).tolist()
    total = None
    for k, (a_k, factor) in enumerate(zip(coeffs, factors), start=1):
        term = a_k * (factor / (z - center) ** (k + deriv))
        total = term if total is None else total + term
    return total


def _eval(entry, z, deriv=0):
    """Both principal parts of a `PoleExpansion.terms` entry at z."""
    plus, minus = entry
    return _eval_side(plus, 1j, z, deriv) + _eval_side(minus, -1j, z, deriv)


def _eval_plus(entry, z, deriv=0):
    """Only the upper principal part: the half-space projection."""
    return _eval_side(entry[0], 1j, z, deriv)


def test_pole_expansion_reproduces_rationals():
    """Contour-extracted principal parts must reproduce proper rational
    functions and their normal-covariable derivatives on the real line."""
    rng = random.Random(97)
    points = [-2.7, -1.1, -0.3, 0.4, 1.6, 3.2]
    for _ in range(25):
        rat = random_proper_rational(rng)
        poles = _expand(lambda z, r=rat: eval_const_rational(r, z))
        drat = rat.d_xi_n()
        for x in points:
            assert abs(_eval(poles, x) - eval_const_rational(rat, x)) < 1e-9
            derivative = _eval(poles, x, 1)
            assert abs(derivative - eval_const_rational(drat, x)) < 1e-8


def test_pole_expansion_projection_golden():
    # 1/(1+x**2) splits at the poles; the upper part is -i/2 / (x - i)
    poles = _expand(lambda z: 1.0 / (1.0 + z * z))
    for x in (-1.5, 0.0, 0.8, 2.5):
        want = -0.5j / (x - 1j)
        assert abs(_eval_plus(poles, x) - want) < 1e-12


def test_pole_expansion_handles_matrix_values():
    def f(z):
        return np.block(
            [
                [1.0 / (z - 1j), np.zeros_like(z)],
                [np.ones_like(z), 1.0 / (z + 1j) ** 2],
            ]
        )

    got = _eval(_expand(f), 0.5)
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


OPERATOR_ORDERS = {"Dv": 1, "DvStar": 1, "D3": 3}


@pytest.mark.parametrize(
    "n, op", [(n, op) for n in (4, 6) for op in OPERATOR_ORDERS]
)
def test_numeric_inverses_invert(n, op):
    """The leading member inverts the composed top symbol, the power of
    i c(xi) given by the operator's order."""
    order = OPERATOR_ORDERS[op]
    fiber = NumericFiber(NumericScenario.draw(n, 13))
    z = np.array([0.3, -1.7, 2.2])[:, None, None]
    top = np.linalg.matrix_power(1j * (fiber.c_tan + z * fiber.c_nor), order)
    keys, leading = next(fiber.inverse_members((op,))(z))
    assert keys == [(op, 0, -order)]
    assert np.max(np.abs(leading @ top - np.eye(fiber.dim))) < 1e-10
    with pytest.raises(ValueError):
        fiber.inverse_members(("Dx",))


def _frozen_inverse_family(fiber, op):
    """The dense inverse closures as they were before one compose-and-invert
    path replaced them, kept verbatim as the reference for that path."""

    def p1(z):
        return 1j * (fiber.c_tan + z * fiber.c_nor)

    def p1_dxn(z):
        return 1j * (fiber.scenario.h / 2.0) * fiber.c_tan

    def p1_dxi(z):
        return 1j * fiber.c_nor

    def p0(variant):
        drift = fiber.drift_int if variant == "Dv" else fiber.drift_ext
        return fiber.a_op + fiber.b_op + drift

    def first_inverse(variant):
        p0_v = p0(variant)

        def q1(z):
            return np.linalg.inv(p1(z))

        def q1_dxn(z):
            q = q1(z)
            return -q @ p1_dxn(z) @ q

        def q2(z):
            q = q1(z)
            return -q @ (p0_v @ q - 1j * p1_dxi(z) @ q1_dxn(z))

        return {"value": {-1: q1, -2: q2}, "dxn": {-1: q1_dxn}}

    def triple_inverse():
        p0_l = p0("Dv")
        p0_s = p0("DvStar")

        def e2(z):
            return p1(z) @ p1(z)

        def e2_dxn(z):
            d = p1_dxn(z)
            return d @ p1(z) + p1(z) @ d

        def e2_dxi(z):
            d = p1_dxi(z)
            return d @ p1(z) + p1(z) @ d

        def e1(z):
            return p1(z) @ p0_l + p0_s @ p1(z) - 1j * p1_dxi(z) @ p1_dxn(z)

        def p3(z):
            return e2(z) @ p1(z)

        def p3_dxn(z):
            return e2_dxn(z) @ p1(z) + e2(z) @ p1_dxn(z)

        def p3_dxi(z):
            return e2_dxi(z) @ p1(z) + e2(z) @ p1_dxi(z)

        def p2(z):
            return e2(z) @ p0_s + e1(z) @ p1(z) - 1j * e2_dxi(z) @ p1_dxn(z)

        def q3(z):
            return np.linalg.inv(p3(z))

        def q3_dxn(z):
            q = q3(z)
            return -q @ p3_dxn(z) @ q

        def q4(z):
            q = q3(z)
            return -q @ (p2(z) @ q - 1j * p3_dxi(z) @ q3_dxn(z))

        return {"value": {-3: q3, -4: q4}, "dxn": {-3: q3_dxn}}

    return triple_inverse() if op == "D3" else first_inverse(op)


def _contour_argument(center):
    """The stacked ring `_pole_coefficients` samples its members on."""
    seen = []

    def members(z):
        seen.append(z)
        yield [], z

    list(_pole_coefficients(members, center, 1))
    return seen[0]


@pytest.mark.parametrize(
    "n, op", [(n, op) for n in (4, 6) for op in OPERATOR_ORDERS]
)
def test_inverse_family_matches_frozen_closures(n, op):
    """Every member of the composed-and-inverted family is bit for bit
    the value the hand-written closures computed, at both poles."""
    fiber = NumericFiber(NumericScenario.draw(n, 41))
    family = fiber.inverse_members((op,))
    old = _frozen_inverse_family(fiber, op)
    top = max(old["dxn"])
    members = [
        (0, top, old["value"][top]),
        (1, top, old["dxn"][top]),
        (0, top - 1, old["value"][top - 1]),
    ]
    for pole in (1j, -1j):
        z = _contour_argument(pole)
        got = {key: value for keys, value in family(z) for key in keys}
        assert len(got) == 3
        for jet, order, reference in members:
            member = got[op, jet, order]
            assert member.shape == (len(z), fiber.dim, fiber.dim)
            assert np.array_equal(member, reference(z)), (pole, jet, order)


def _frozen_stacked_family(fiber, op):
    """`inverse_family(op)` as it was before the per-scenario members,
    kept verbatim (with its `_invert`) as the reference for them.  Its
    stacked value is yielded as one member, keyed by op."""

    def _invert(symbol):
        top, top_dxn, top_dxi, low = symbol
        q = np.linalg.inv(top)
        q_dxn = -q @ top_dxn @ q
        return q, q_dxn, -q @ (low @ q - 1j * top_dxi @ q_dxn)

    factors = numcheck._FACTORS[op]

    def family(z):
        jets = (fiber._first_order_symbol(f, z) for f in factors)
        yield [op], np.stack(_invert(reduce(numcheck._compose, jets)), axis=1)

    return family


SHARED_PAIRS = [
    (4, "Dv", "DvStar", True, 4),
    (4, "Dv", "Dv", False, 3),
    (6, "Dv", "D3", True, 6),
]


@pytest.mark.parametrize("n, left, right, dual, count", SHARED_PAIRS)
def test_shared_members_match_frozen_per_operator_families(
    n, left, right, dual, count
):
    """Each member of a pair's shared family is bit for bit the symbol
    the frozen per-operator closures compute, at both poles, and the
    family holds each distinct symbol once."""
    fiber = NumericFiber(NumericScenario.draw(n, 41, dual=dual))
    ops = (left, right)
    members = fiber.inverse_members(ops)
    for pole in (1j, -1j):
        z = _contour_argument(pole)
        got = list(members(z))
        assert len(got) == count
        keyed = {key: value for keys, value in got for key in keys}
        assert len(keyed) == 3 * len(set(ops))
        for op in ops:
            old = _frozen_inverse_family(fiber, op)
            top = max(old["dxn"])
            for jet, order, reference in [
                (0, top, old["value"][top]),
                (1, top, old["dxn"][top]),
                (0, top - 1, old["value"][top - 1]),
            ]:
                member = keyed[op, jet, order]
                assert np.array_equal(member, reference(z)), (op, jet, order)


@pytest.mark.parametrize("n, left, right, dual, count", SHARED_PAIRS)
def test_shared_expansion_matches_frozen_per_operator_expansions(
    n, left, right, dual, count
):
    """Coefficients taken member by member equal, bit for bit, those the
    frozen stacked family of each operator gives."""
    fiber = NumericFiber(NumericScenario.draw(n, 43, dual=dual))
    ops = (left, right)
    shared = PoleExpansion(fiber.inverse_members(ops)).terms
    assert len({id(plus) for plus, _ in shared.values()}) == count
    for op in ops:
        top = -len(numcheck._FACTORS[op])
        alone_plus, alone_minus = PoleExpansion(
            _frozen_stacked_family(fiber, op)
        ).terms[op]
        symbols = [(0, top), (1, top), (0, top - 1)]
        for index, (jet, order) in enumerate(symbols):
            plus, minus = shared[op, jet, order]
            assert np.array_equal(plus, alone_plus[:, index])
            assert np.array_equal(minus, alone_minus[:, index])


RELEASE_PAIRS = [(4, "Dv", "DvStar", 4), (6, "Dv", "D3", 6)]


@pytest.mark.parametrize("n, left, right, count", RELEASE_PAIRS)
def test_inverse_members_hold_only_the_current_leading_values(
    n, left, right, count
):
    """Once the consumer drops a member, only the leading value and the
    normal derivative of the factor count being yielded stay alive."""
    fiber = NumericFiber(NumericScenario.draw(n, 41))
    members = fiber.inverse_members((left, right))(_contour_argument(1j))
    yielded = []
    for keys, value in members:
        op, _, order = keys[0]
        factors = len(numcheck._FACTORS[op])
        yielded.append((factors, order == -factors, weakref.ref(value)))
        del keys, value
        alive = [
            (f, leading) for f, leading, ref in yielded if ref() is not None
        ]
        assert alive == [
            (f, leading) for f, leading, _ in yielded
            if f == factors and leading
        ]
    assert len(yielded) == count


def test_pole_expansion_holds_no_earlier_member_samples():
    """`PoleExpansion` reduces each member's samples before it asks for
    the next member."""
    refs = []

    def sample(key, z):
        value = np.full_like(z, key, dtype=complex)
        refs.append(weakref.ref(value))
        return [key], value

    def members(z):
        for key in range(4):
            assert all(ref() is None for ref in refs)
            yield sample(key, z)

    terms = PoleExpansion(members).terms
    assert sorted(terms) == [0, 1, 2, 3]
    assert len(refs) == 8
    assert all(ref() is None for ref in refs)


def test_engine_and_oracle_factor_tables_agree():
    """The oracle keeps its own copy of the engine's factor table; a
    difference would show only as failed crosscheck rows."""
    assert jets._FACTORS == numcheck._FACTORS


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
    lp = PoleExpansion(fiber.inverse_members((left,))).terms
    rp = PoleExpansion(fiber.inverse_members((right,))).terms
    live = [r.tuple for r in reports if not r.structurally_zero]
    assert live
    for case in live:
        lm = lp[left, case.j, case.r]
        rm = rp[right, case.k, case.l]
        integrand = _trace_integrand(lm, rm, case)
        coeff = _case_coefficient(case)
        for x in (-7.5, -2.3, -1.0, -0.4, 0.0, 0.6, 1.9, 11.0):
            want = coeff * np.trace(
                _eval_plus(lm, x, case.k) @ _eval(rm, x, case.j + 1)
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
    family = fiber.inverse_members((op,))
    plus, minus = (
        {
            tuple(keys): np.abs(coeffs)
            for keys, coeffs in _pole_coefficients(
                family, pole, _POLE_ORDER + 4
            )
        }
        for pole in (1j, -1j)
    )
    assert len(plus) == 3
    for member in plus:
        member_coeffs = np.array([plus[member], minus[member]])
        tail = member_coeffs[:, _POLE_ORDER:].max()
        assert tail < 1e-12 * member_coeffs.max(), (member, tail)


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


def test_numeric_case_value_matches_exact_contribution():
    """Sphere-averaged numeric case values agree with the exact
    contribution within the Monte-Carlo error bar."""
    _, reports = boundary_phi(4, "Dv", "Dv")
    scenario = NumericScenario.draw(4, 11)
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


def test_oracle_imports_no_engine_code():
    """The oracle stays independent of the engine: it takes only the case
    types it reports on and the generator names of the exact assignment."""
    with open(numcheck.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported += [(module, alias.name) for alias in node.names]
    engine = [
        (module, name)
        for module, name in imported
        if module.startswith(".") or module.split(".")[0] == "wres"
    ]
    assert engine
    allowed = [
        (module, name)
        for module, name in engine
        if module in (".boundary", "wres.boundary")
        and name in ("CaseReport", "CaseTuple")
        or module in (".exact", "wres.exact")
        and name.startswith("gen_")
    ]
    assert engine == allowed
