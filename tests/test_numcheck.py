"""Numeric oracle internals: quadrature, pole expansions, dense fiber
operators, and the exact-vs-numeric crosscheck rows."""

import ast
import math
import os
import random
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wres.boundary import CaseTuple, boundary_phi
from wres.exact import GaussianRational, Poly, gen_omega
from wres import jets, numcheck
from wres.numcheck import (
    _POLE_ORDER,
    _T_BOUND,
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

DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("variant", ["Dv", "DvStar"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_first_order_jets_are_odd_in_form_degree(n, variant, dual):
    """Every dense jet of a first-order symbol maps even forms to odd
    ones and back: it vanishes wherever the row and column form degrees
    have the same parity.  A product of two such matrices is two
    half-size products, which is what a block path in the oracle would
    rely on."""
    fiber = NumericFiber(NumericScenario.draw(n, 47, dual=dual))
    z = np.array([0.3, -1.7, 2.2])[:, None, None]
    degree = np.array([bin(s).count("1") for s in range(fiber.dim)])
    same_parity = (degree[:, None] + degree[None, :]) % 2 == 0
    for jet in fiber._first_order_symbol(variant, z):
        jet = np.broadcast_to(jet, (len(z), fiber.dim, fiber.dim))
        assert np.all(jet[:, same_parity] == 0)
        assert np.any(jet[:, ~same_parity] != 0)


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


def _frozen_trace_integrand(left, right, case):
    """`_trace_integrand` as it was before the power memos, rebuilding w
    and u on every call; kept verbatim as the reference for it."""
    left_plus = left[0]
    order = len(left_plus)
    gram = np.einsum("kab,mba->km", left_plus, np.concatenate(right))
    gram *= _case_coefficient(case) * np.outer(
        _derivative_factors(order, case.k),
        np.tile(_derivative_factors(order, case.j + 1), 2),
    )
    powers = np.arange(1, order + 1)
    left_powers = powers + case.k
    right_powers = np.tile(powers + case.j + 1, 2)
    right_poles = np.repeat([1j, -1j], order)

    def integrand(x):
        w = (1.0 / (x - 1j)) ** left_powers
        u = (1.0 / (x - right_poles)) ** right_powers
        return w @ gram @ u

    return integrand


def _empty_node_tables(monkeypatch):
    """Give the oracle fresh, empty node tables for the rest of the test
    and return them."""
    tables = {kj: numcheck._NodeTable(*kj) for kj in numcheck._NODE_TABLES}
    monkeypatch.setattr(numcheck, "_NODE_TABLES", tables)
    return tables


def _table_counts(tables):
    return {kj: (table.stacked, table.alone) for kj, table in tables.items()}


def _live_dim4_reports():
    _, reports = boundary_phi(4, "Dv", "DvStar")
    return [r for r in reports if not r.structurally_zero]


@pytest.mark.parametrize(
    "n, left, right, seed", [(4, "Dv", "DvStar", 8), (6, "Dv", "D3", 3)]
)
def test_memoized_integrand_matches_frozen_copy_on_every_node(
    n, left, right, seed, monkeypatch
):
    """The tabled integrand gives every bit of the per-call one on every
    node line_quad asks for, centre and both tails, for every (k, j) in
    {0, 1}^2: the table's cases, and one synthetic case for each pair the
    table lacks.  Each case runs once on empty node tables, where every
    node is computed alone, and again on the tables that run filled,
    where the stacked product serves at least 90 % of the nodes, as the
    integrand's own counts say.  Values are numpy scalars on both paths,
    as the frozen one's are."""
    _, reports = boundary_phi(n, left, right)
    fiber = NumericFiber(NumericScenario.draw(n, seed))
    terms = PoleExpansion(fiber.inverse_members((left, right))).terms
    cases = [r.tuple for r in reports if not r.structurally_zero]
    r, l = cases[0].r, cases[0].l
    cases += [
        CaseTuple(r, l, k, j, 0)
        for k in (0, 1)
        for j in (0, 1)
        if (k, j) not in {(c.k, c.j) for c in cases}
    ]
    assert {(c.k, c.j) for c in cases} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for case in cases:
        entries = terms[left, case.j, case.r], terms[right, case.k, case.l]
        frozen = _frozen_trace_integrand(*entries, case)
        table = _empty_node_tables(monkeypatch)[case.k, case.j]
        for warm in (False, True):
            memoized = _trace_integrand(*entries, case)
            nodes = []
            value = line_quad(lambda x: nodes.append(x) or memoized(x))
            stacked, alone = len(memoized.stacked), len(memoized.alone)
            assert stacked + alone == len(nodes)
            if warm:
                assert stacked >= 0.9 * len(nodes)
            else:
                assert stacked == 0
            assert min(nodes) < -_T_BOUND and max(nodes) > _T_BOUND
            assert any(abs(x) < _T_BOUND for x in nodes)
            for x in nodes:
                got, want = memoized(x), frozen(x)
                assert type(got) is type(want), (case, x)
                assert got == want, (case, x)
            assert value == line_quad(frozen)


def test_power_memos_leak_no_state_between_scenarios(monkeypatch):
    """Rows of one scenario read after another are the rows of a fresh
    process, and the shared power rows cannot be written."""
    live = _live_dim4_reports()
    first, second = (NumericScenario.draw(4, seed) for seed in (3, 4))
    tables = _empty_node_tables(monkeypatch)
    crosscheck(live, first, "Dv", "DvStar")
    used = [kj for kj, table in tables.items() if table.snapshot()[0]]
    assert sorted(used) == [(0, 0), (0, 1), (1, 0)]
    before = _table_counts(tables)
    after_first = crosscheck(live, second, "Dv", "DvStar")
    after = _table_counts(tables)
    assert all(after[kj][0] > before[kj][0] for kj in used)
    _empty_node_tables(monkeypatch)
    assert after_first == crosscheck(live, second, "Dv", "DvStar")
    for kj in used:
        _, w, u = tables[kj].snapshot()
        with pytest.raises(ValueError):
            w[0, 0] = 0.0
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


def test_power_memos_stay_bounded(monkeypatch):
    """The node tables have a bound, and the 64 scenarios of the captured
    n=4 oracle run stay inside it.  Cut down to 8 nodes, a table holds
    the first 8 nodes and rows of an unlimited one, computes the rest
    alone, and the crosscheck rows stay those of the unlimited run."""
    live = _live_dim4_reports()
    scenarios = [NumericScenario.draw(4, seed) for seed in range(64)]
    unlimited = _empty_node_tables(monkeypatch)
    rows = [crosscheck(live, s, "Dv", "DvStar") for s in scenarios]
    sizes = [len(table.snapshot()[0]) for table in unlimited.values()]
    assert all(size <= numcheck._NODE_LIMIT for size in sizes)
    assert sum(size > 8 for size in sizes) == 3
    monkeypatch.setattr(numcheck, "_NODE_LIMIT", 8)
    cut = _empty_node_tables(monkeypatch)
    cut_rows = [crosscheck(live, s, "Dv", "DvStar") for s in scenarios[:12]]
    assert cut_rows == rows[:12]
    for kj, table in cut.items():
        nodes, w, u = table.snapshot()
        full_nodes, full_w, full_u = unlimited[kj].snapshot()
        assert len(nodes) == min(8, len(full_nodes))
        assert nodes == full_nodes[: len(nodes)]
        assert np.array_equal(w, full_w[: len(nodes)])
        assert np.array_equal(u, full_u[: len(nodes)])


def test_power_memos_hit_on_the_benchmark_scenarios(monkeypatch):
    """On the 12 scenarios of the crosscheck4 benchmark session the
    stacked products serve nearly every node: QUADPACK asks for the same
    nodes in every case and scenario.  The tables hold 609, 525 and 525
    nodes, every one computed alone once, and their counts add up to the
    25179 stacked of 26838 node values that README cites."""
    live = _live_dim4_reports()
    tables = _empty_node_tables(monkeypatch)
    for seed in range(1, 13):
        crosscheck(live, NumericScenario.draw(4, seed), "Dv", "DvStar")
    assert _table_counts(tables) == {
        (0, 0): (13629, 609),
        (0, 1): (5775, 525),
        (1, 0): (5775, 525),
        (1, 1): (0, 0),
    }
    assert [len(table.snapshot()[0]) for table in tables.values()] == [
        609, 525, 525, 0
    ]


_TAIL = st.floats(min_value=1e-6, max_value=1.0 / _T_BOUND)
_NODES = st.lists(
    st.sampled_from([0.0, _T_BOUND, -_T_BOUND])
    | st.floats(min_value=-_T_BOUND, max_value=_T_BOUND)
    | st.builds(lambda s, t: s / t, st.sampled_from([1.0, -1.0]), _TAIL),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(
    nodes=_NODES,
    k=st.sampled_from([0, 1]),
    j=st.sampled_from([0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_product_is_bitwise_the_per_node_product(nodes, k, j, seed):
    """The stacked product over a table's rows equals w @ gram @ u node by
    node in every bit and in type, for random nodes (the centre, its ends
    and the tails s / t) and random complex Gram matrices of mixed
    scales: numpy makes the same per-node calls for both forms."""
    rng = np.random.default_rng(seed)
    shape = (_POLE_ORDER, 2 * _POLE_ORDER)
    scale = 10.0 ** rng.uniform(-6, 6, size=shape)
    gram = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    table = numcheck._NodeTable(k, j)
    powers = np.arange(1, _POLE_ORDER + 1)
    poles = np.repeat([1j, -1j], _POLE_ORDER)

    def frozen(x):
        w = (1.0 / (x - 1j)) ** (powers + k)
        u = (1.0 / (x - poles)) ** np.tile(powers + j + 1, 2)
        return w @ gram @ u

    for x in nodes:
        alone = table.compute(x, gram)
        assert alone.tobytes() == frozen(x).tobytes()
    values = table.values(gram)
    assert list(values) == list(dict.fromkeys(nodes))
    for x, value in values.items():
        assert type(value) is np.complex128
        assert value.tobytes() == frozen(x).tobytes(), x


def test_node_tables_filled_by_racing_threads_match_one_thread(monkeypatch):
    """Four threads filling empty node tables at once, switching every
    microsecond, give the rows, nodes and counts of one thread: no node
    is lost or tabled twice, and every lookup is counted once."""
    live = _live_dim4_reports()
    scenarios = [NumericScenario.draw(4, seed) for seed in range(8)]
    single = _empty_node_tables(monkeypatch)
    want = [crosscheck(live, s, "Dv", "DvStar") for s in scenarios]
    raced = _empty_node_tables(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(crosscheck, live, s, "Dv", "DvStar") for s in scenarios
            ]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    for kj, table in raced.items():
        nodes, w, u = table.snapshot()
        want_nodes, want_w, want_u = single[kj].snapshot()
        assert sorted(nodes) == sorted(want_nodes)
        order = {x: i for i, x in enumerate(want_nodes)}
        rows = [order[x] for x in nodes]
        assert np.array_equal(w, want_w[rows])
        assert np.array_equal(u, want_u[rows])
        assert sum(_table_counts(raced)[kj]) == sum(_table_counts(single)[kj])


def test_a_node_is_tabled_only_under_its_tables_lock():
    """`compute` writes a fresh node into the table while it holds the
    table's lock, so racing threads cannot table a node twice or lose
    one; a node already tabled is not written again."""
    table = numcheck._NodeTable(0, 0)

    class LockedNodes(dict):
        def __setitem__(self, x, value):
            assert table._lock.locked(), x
            super().__setitem__(x, value)

    table._nodes = LockedNodes()
    gram = np.ones((_POLE_ORDER, 2 * _POLE_ORDER), dtype=complex)
    for x in (0.5, -3.0, 0.5, 41.0):
        table.compute(x, gram)
    assert table.snapshot()[0] == (0.5, -3.0, 41.0)


def test_threaded_cli_run_on_empty_tables_matches_the_capture():
    """A fresh interpreter whose two crosscheck workers fill the empty
    node tables concurrently prints the captured report byte for byte."""
    argv = ["crosscheck", "--dim", "4", "--left", "Dv", "--right", "DvStar"]
    argv += ["--scenarios", "4", "--seed", "0", "--emit", "json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(numcheck.__file__)))
    env = dict(os.environ, WRES_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "wres.cli", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )
    capture = DATA / "crosscheck-4-Dv-DvStar-scenarios4-seed0.json"
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == capture.read_bytes()


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
