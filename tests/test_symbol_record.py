"""The two-order Symbol record against the order-keyed jet dicts it
replaced.

The reference below is a frozen copy of the earlier representation: a
symbol was a dict from order to a value with an optional first normal
derivative, composed with a Leibniz product and inverted by the same
recursion.  Every field of every record the engine builds must equal
the corresponding entry of the reference, at both dimensions, for every
operator and both drift conventions.
"""

from fractions import Fraction
from functools import reduce

import pytest

from wres.clifford import (
    build_connection_ops,
    drift_action,
    normal_clifford,
    tangential_clifford,
)
from wres.exact import GR_I, GR_MINUS_I, Poly, gen_h
from wres.jets import composite_symbols, inverse_symbols, operator_symbols
from wres.rational import MatrixSymbol, RationalXi

FACTORS = {"Dv": ("Dv",), "DvStar": ("DvStar",), "D3": ("DvStar", "Dv", "DvStar")}


class RefJet:
    """Value and optional first normal derivative of one symbol order."""

    def __init__(self, value, dxn=None):
        self.value = value
        self.dxn = dxn


def ref_mul(f, g):
    value = f.value @ g.value
    if f.dxn is not None and g.dxn is not None:
        return RefJet(value, f.dxn @ g.value + f.value @ g.dxn)
    return RefJet(value, None)


def ref_operator(n, variant, dual):
    c_tan = tangential_clifford(n)
    c_nor = MatrixSymbol.from_clifford(normal_clifford(n), RationalXi.monomial(1, 1))
    value = (MatrixSymbol.from_clifford(c_tan) + c_nor).scale(RationalXi.const(GR_I))
    d_tan = c_tan.scale(Poly.gen(gen_h()) * Fraction(1, 2))
    dxn = MatrixSymbol.from_clifford(d_tan).scale(RationalXi.const(GR_I))
    a_op, b_op = build_connection_ops(n)
    drift = (
        drift_action(n, "interior")
        if variant == "Dv"
        else drift_action(n, "exterior", dual)
    )
    return {
        1: RefJet(value, dxn),
        0: RefJet(MatrixSymbol.from_clifford(a_op + b_op + drift), None),
    }


def ref_compose(left, right):
    m_l = max(left)
    m_r = max(right)
    top = ref_mul(left[m_l], right[m_r])
    minus_i = RationalXi.const(GR_MINUS_I)
    if right[m_r].dxn is None:
        raise ValueError("untracked normal derivative")
    next_value = (
        left[m_l].value @ right[m_r - 1].value
        + left[m_l - 1].value @ right[m_r].value
        + left[m_l].value.d_xi_n() @ right[m_r].dxn.scale(minus_i)
    )
    return {m_l + m_r: top, m_l + m_r - 1: RefJet(next_value, None)}


def ref_composite(n, op, dual):
    return reduce(ref_compose, (ref_operator(n, f, dual) for f in FACTORS[op]))


def ref_inverse(n, op, dual):
    graded = ref_composite(n, op, dual)
    m = max(graded)
    p_top, p_next = graded[m], graded[m - 1]
    w = p_top.value
    q_value = w.scale(RationalXi.inverse_norm_power(m))
    assert w @ q_value == MatrixSymbol.identity(n)
    q_dxn = -(q_value @ p_top.dxn @ q_value)
    minus_i = RationalXi.const(GR_MINUS_I)
    q_next = -(q_value @ (p_next.value @ q_value + w.d_xi_n() @ q_dxn.scale(minus_i)))
    return {-m: RefJet(q_value, q_dxn), -m - 1: RefJet(q_next, None)}


def assert_matches(symbol, reference):
    """Every field of the record equals the reference's entries, and the
    reference tracks nothing the record drops."""
    m = max(reference)
    assert sorted(reference) == [m - 1, m]
    assert symbol.order == m
    assert symbol.top == reference[m].value
    assert reference[m].dxn is not None
    assert symbol.top_dxn == reference[m].dxn
    assert symbol.low == reference[m - 1].value
    assert reference[m - 1].dxn is None


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("variant", ["Dv", "DvStar"])
def test_operator_symbols_match_the_jet_dicts(n, dual, variant):
    assert_matches(operator_symbols(n, variant, dual), ref_operator(n, variant, dual))


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("op", ["Dv", "DvStar", "D3"])
def test_composite_and_inverse_symbols_match_the_jet_dicts(n, dual, op):
    assert_matches(composite_symbols(n, op, dual), ref_composite(n, op, dual))
    assert_matches(inverse_symbols(n, op, dual), ref_inverse(n, op, dual))
