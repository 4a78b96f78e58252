"""Tests for symbol jets, composition, and inversion."""

from fractions import Fraction

import pytest

from wres.clifford import normal_clifford, tangential_clifford
from wres.exact import GaussianRational, Poly, gen_h
from wres.jets import (
    Symbol,
    _composite,
    composite_symbols,
    compose_symbols,
    inverse_symbols,
    invert_symbol,
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
    jet = operator_symbols(n, "Dv")
    expected = full_clifford(n).scale(RationalXi.const(I))
    assert jet.top == expected
    # its normal derivative only sees the warp of the tangential part
    half_h = RationalXi.const(Poly.gen(gen_h(), coeff=Fraction(1, 2)) * I)
    expected_dxn = MatrixSymbol.from_clifford(tangential_clifford(n)).scale(
        half_h
    )
    assert jet.top_dxn == expected_dxn


def test_jet_multiplication_leibniz():
    n = 4
    jet = operator_symbols(n, "Dv")
    prod = compose_symbols(jet, jet)
    lhs = prod.top_dxn
    rhs = jet.top_dxn @ jet.top + jet.top @ jet.top_dxn
    assert lhs == rhs


def test_jet_without_derivative_raises_loudly():
    n = 4
    sym = operator_symbols(n, "Dv")
    with pytest.raises(ValueError):
        sym.read(0, 1)


@pytest.mark.parametrize("n, variant", [(4, "Dv"), (6, "D3")])
def test_read_returns_the_carried_parts(n, variant):
    inv = inverse_symbols(n, variant)
    m = inv.order
    assert inv.read(m, 0) is inv.top
    assert inv.read(m, 1) is inv.top_dxn
    assert inv.read(m - 1, 0) is inv.low


@pytest.mark.parametrize("n, variant", [(4, "Dv"), (6, "D3")])
def test_read_rejects_every_part_not_carried(n, variant):
    inv = inverse_symbols(n, variant)
    m = inv.order
    refused = [(m - 1, 1), (m, 2), (m - 1, 2)]
    refused += [(order, d) for order in (m + 1, m - 2, 0) for d in (0, 1)]
    for order, derivatives in refused:
        with pytest.raises(ValueError):
            inv.read(order, derivatives)


@pytest.mark.parametrize(
    "build, name", [(operator_symbols, "D3"), (composite_symbols, "bogus")]
)
def test_symbols_reject_an_unknown_operator(build, name):
    """D3 is a product of first-order factors, no single operator."""
    with pytest.raises(ValueError):
        build(4, name)


def test_symbol_is_an_immutable_record():
    sym = operator_symbols(4, "Dv")
    with pytest.raises(AttributeError):
        sym.top = sym.low
    with pytest.raises(TypeError):
        sym[-1]


@pytest.mark.parametrize("variant", ["Dv", "DvStar"])
def test_compose_operator_with_inverse_is_identity(variant):
    n = 4
    op = operator_symbols(n, variant)
    inv = inverse_symbols(n, variant)
    composed = compose_symbols(op, inv)
    assert composed.read(0, 0) == MatrixSymbol.identity(n)
    assert composed.read(-1, 0) == MatrixSymbol.zero(n)


def test_compose_inverse_with_operator_is_identity():
    n = 4
    op = operator_symbols(n, "Dv")
    inv = inverse_symbols(n, "Dv")
    composed = compose_symbols(inv, op)
    assert composed.read(0, 0) == MatrixSymbol.identity(n)
    assert composed.read(-1, 0) == MatrixSymbol.zero(n)


def test_first_inverse_leading_golden():
    # order -1 inverse symbol is i c(xi) / |xi|^2
    n = 4
    inv = inverse_symbols(n, "Dv")
    expected = full_clifford(n).scale(
        RationalXi.inverse_norm_power(1) * RationalXi.const(I)
    )
    assert inv.read(-1, 0) == expected


@pytest.mark.parametrize("variant", ["Dv", "DvStar"])
def test_second_inverse_matches_worked_formula(variant):
    # order -2 inverse: c(xi) sigma_0 c(xi) / |xi|^4
    #   + c(xi)/|xi|^6 c(dx_n) [dxn(c(xi')) |xi|^2 - c(xi) h'(0) |xi'|^2]
    n = 4
    inv = inverse_symbols(n, variant)
    op = operator_symbols(n, variant)
    sigma0 = op.read(0, 0)
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
    assert inv.read(-2, 0) == first + second


def test_triple_composition_leading_symbols():
    n = 6
    triple = composite_symbols(n, "D3")
    norm2 = RationalXi((Poly.const(1), Poly.const(0), Poly.const(1)), 0, 0)
    expected_top = full_clifford(n).scale(norm2 * RationalXi.const(I))
    assert triple.read(3, 0) == expected_top


def test_triple_inverse_leading_golden():
    # order -3 inverse of the composed operator: i c(xi) / |xi|^4
    n = 6
    inv = inverse_symbols(n, "D3")
    expected = full_clifford(n).scale(
        RationalXi.inverse_norm_power(2) * RationalXi.const(I)
    )
    assert inv.read(-3, 0) == expected


def test_triple_inverse_composes_to_identity():
    n = 6
    triple = composite_symbols(n, "D3")
    inv = inverse_symbols(n, "D3")
    composed = compose_symbols(triple, inv)
    assert composed.read(0, 0) == MatrixSymbol.identity(n)
    assert composed.read(-1, 0) == MatrixSymbol.zero(n)


def test_invert_rejects_non_clifford_leading_symbol():
    n = 4
    bad = Symbol(
        1,
        MatrixSymbol.identity(n, RationalXi.monomial(1, 1)),
        MatrixSymbol.zero(n),
        MatrixSymbol.zero(n),
    )
    with pytest.raises(ValueError):
        invert_symbol(bad)


@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("variant", ["Dv", "DvStar", "D3"])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_inversion_on_a_word_set_is_the_full_inversion_there(n, variant, dual):
    """Restricting the inverse to a set of words changes only its order
    below the top, and only by dropping the words outside the set."""
    full = inverse_symbols(n, variant, dual)
    vectors = frozenset((1 << j, 0) for j in range(n))
    held = sorted(full.low.words)
    # every third word the full part holds, and two it cannot hold
    # (the order below the top is odd in form degree)
    mixed = frozenset(held[::3] + [(0, 0), (3, 0)])
    for words in (vectors, mixed, frozenset()):
        got = inverse_symbols(n, variant, dual, words=words)
        assert got.order == full.order
        assert got.top == full.top
        assert got.top_dxn == full.top_dxn
        want = {w: c for w, c in full.low.words.items() if w in words}
        assert got.low == MatrixSymbol(n, want)


def _asked_by_inversion(top_words, words):
    """The words of a composite's order below the top that inverting it
    on words reads: u XOR v, for u in the inner sum's preimage of words
    under the top and v a top word."""
    inner = {(s ^ x, t ^ y) for s, t in top_words for x, y in words}
    return frozenset((s ^ x, t ^ y) for s, t in top_words for x, y in inner)


@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_composite_on_a_word_set_is_the_full_composite_there(n, dual):
    """Composing D3 for an inversion on a set of words changes only its
    order below the top, and only by dropping the words that inversion
    does not read."""
    full = composite_symbols(n, "D3", dual)
    vectors = frozenset((1 << j, 0) for j in range(n))
    # every third word the full inverse's part holds, and two it cannot
    # hold (that part is odd in form degree)
    held = sorted(invert_symbol(full).low.words)
    lacking = [(0, 0), (3, 0)]
    assert not set(lacking) & set(held)
    mixed = frozenset(held[::3] + lacking)
    for words in (vectors, mixed, frozenset()):
        got = _composite(n, "D3", dual, words)
        assert got.order == full.order
        assert got.top == full.top
        assert got.top_dxn == full.top_dxn
        asked = _asked_by_inversion(full.top.words, words)
        want = {w: c for w, c in full.low.words.items() if w in asked}
        assert got.low == MatrixSymbol(n, want)
