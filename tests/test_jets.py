"""Tests for symbol jets, composition, and inversion."""

from fractions import Fraction

import pytest

from wres.clifford import normal_clifford, tangential_clifford
from wres.exact import GaussianRational, Poly, gen_h
from wres.jets import (
    SymbolJet,
    composite_symbols,
    compose_symbols,
    inverse_symbols,
    jet_mul,
    leading_symbol,
    operator_symbols,
)
from wres.rational import MatrixSymbol, RationalXi

I = GaussianRational(0, 1)


def full_clifford(n):
    return MatrixSymbol.from_clifford(
        tangential_clifford(n)
    ) + MatrixSymbol.from_clifford(
        normal_clifford(n), RationalXi.monomial(1, 1)
    )


def test_leading_symbol_is_i_clifford():
    n = 4
    jet = leading_symbol(n)
    expected = full_clifford(n).scale(RationalXi.const(I))
    assert jet.value == expected
    # its normal derivative only sees the warp of the tangential part
    half_h = RationalXi.const(Poly.gen(gen_h(), coeff=Fraction(1, 2)) * I)
    expected_dxn = MatrixSymbol.from_clifford(tangential_clifford(n)).scale(
        half_h
    )
    assert jet.dxn == expected_dxn


def test_jet_multiplication_leibniz():
    n = 4
    jet = leading_symbol(n)
    prod = jet_mul(jet, jet)
    lhs = prod.dxn
    rhs = jet.dxn @ jet.value + jet.value @ jet.dxn
    assert lhs == rhs


def test_jet_without_derivative_raises_loudly():
    n = 4
    sym = operator_symbols(n, "Dv")
    with pytest.raises(ValueError):
        sym[0].dxn_or_raise()


@pytest.mark.parametrize("variant", ["Dv", "DvStar"])
def test_compose_operator_with_inverse_is_identity(variant):
    n = 4
    op = operator_symbols(n, variant)
    inv = inverse_symbols(n, variant)
    composed = compose_symbols(op, inv)
    assert composed[0].value == MatrixSymbol.identity(n)
    assert composed[-1].value == MatrixSymbol.zero(n)


def test_compose_inverse_with_operator_is_identity():
    n = 4
    op = operator_symbols(n, "Dv")
    inv = inverse_symbols(n, "Dv")
    composed = compose_symbols(inv, op)
    assert composed[0].value == MatrixSymbol.identity(n)
    assert composed[-1].value == MatrixSymbol.zero(n)


def test_first_inverse_leading_golden():
    # order -1 inverse symbol is i c(xi) / |xi|^2
    n = 4
    inv = inverse_symbols(n, "Dv")
    expected = full_clifford(n).scale(
        RationalXi.inverse_norm_power(1) * RationalXi.const(I)
    )
    assert inv[-1].value == expected


@pytest.mark.parametrize("variant", ["Dv", "DvStar"])
def test_second_inverse_matches_worked_formula(variant):
    # order -2 inverse: c(xi) sigma_0 c(xi) / |xi|^4
    #   + c(xi)/|xi|^6 c(dx_n) [dxn(c(xi')) |xi|^2 - c(xi) h'(0) |xi'|^2]
    n = 4
    inv = inverse_symbols(n, variant)
    op = operator_symbols(n, variant)
    sigma0 = op[0].value
    c_full = full_clifford(n)
    c_nor = MatrixSymbol.from_clifford(normal_clifford(n))
    h = Poly.gen(gen_h())
    dxn_tan = MatrixSymbol.from_clifford(
        tangential_clifford(n).scale(h * Fraction(1, 2))
    )
    inv4 = RationalXi.inverse_norm_power(2)
    inv6 = RationalXi.inverse_norm_power(3)
    norm2 = RationalXi((Poly.const(1), Poly.const(0), Poly.const(1)), 0, 0)
    # |xi'|^2 is 1 on the cosphere of the tangential covariables
    first = (c_full @ sigma0 @ c_full).scale(inv4)
    bracket = dxn_tan.scale(norm2) - c_full.scale(RationalXi.const(h))
    second = (c_full @ c_nor @ bracket).scale(inv6)
    assert inv[-2].value == first + second


def test_triple_composition_leading_symbols():
    n = 6
    triple = composite_symbols(n, "D3")
    norm2 = RationalXi((Poly.const(1), Poly.const(0), Poly.const(1)), 0, 0)
    expected_top = full_clifford(n).scale(norm2 * RationalXi.const(I))
    assert triple[3].value == expected_top


def test_triple_inverse_leading_golden():
    # order -3 inverse of the composed operator: i c(xi) / |xi|^4
    n = 6
    inv = inverse_symbols(n, "D3")
    expected = full_clifford(n).scale(
        RationalXi.inverse_norm_power(2) * RationalXi.const(I)
    )
    assert inv[-3].value == expected


def test_triple_inverse_composes_to_identity():
    n = 6
    triple = composite_symbols(n, "D3")
    inv = inverse_symbols(n, "D3")
    composed = compose_symbols(triple, inv)
    assert composed[0].value == MatrixSymbol.identity(n)
    assert composed[-1].value == MatrixSymbol.zero(n)


def test_invert_rejects_non_clifford_leading_symbol():
    from wres.jets import invert_symbol

    n = 4
    bad_top = SymbolJet(
        MatrixSymbol.identity(n, RationalXi.monomial(1, 1)),
        MatrixSymbol.zero(n),
    )
    bad_next = SymbolJet(MatrixSymbol.zero(n), None)
    with pytest.raises(ValueError):
        invert_symbol(bad_top, bad_next, 1)
