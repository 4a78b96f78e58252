"""Boundary symbol jets: values and first normal derivatives at the base point.

The boundary computation only ever evaluates symbols, and single normal
derivatives of symbols, at a fixed boundary point in adapted
coordinates.  A SymbolJet carries exactly that: the value and, when
tracked, the first normal derivative, both as cosphere-reduced fiber
operators with rational coefficients.  Tangential derivatives vanish
identically at the base point in these coordinates, which is what
collapses the composition formula to a single normal term.

Second normal derivatives are never produced; any request for one fails
loudly rather than silently returning zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .clifford import (
    build_connection_ops,
    drift_exterior,
    drift_interior,
    normal_clifford,
    tangential_clifford,
)
from .exact import GR_I, GR_MINUS_I, Poly, gen_h
from .rational import MatrixSymbol, RationalXi

VARIANTS = ("Dv", "DvStar")

# Each operator as the product of its first-order factors, left to right.
_FACTORS = {
    "Dv": ("Dv",),
    "DvStar": ("DvStar",),
    "D3": ("DvStar", "Dv", "DvStar"),
}


class SymbolJet:
    """Value and optional first normal derivative of one symbol order."""

    __slots__ = ("value", "dxn")

    def __init__(self, value: MatrixSymbol, dxn: MatrixSymbol | None = None):
        self.value = value
        self.dxn = dxn

    @property
    def tracked(self) -> bool:
        return self.dxn is not None

    def dxn_or_raise(self) -> MatrixSymbol:
        if self.dxn is None:
            raise ValueError(
                "normal derivative requested for a symbol order that only "
                "carries a value; first-order jets cannot supply it"
            )
        return self.dxn

    def __repr__(self):
        return f"SymbolJet(value={self.value!r}, dxn={'tracked' if self.tracked else 'none'})"


def jet_mul(f: SymbolJet, g: SymbolJet) -> SymbolJet:
    """Pointwise product with Leibniz normal derivative.

    If either factor's derivative is untracked the product's derivative
    is untracked too; consumers fail loudly through dxn_or_raise.
    """
    value = f.value @ g.value
    if f.tracked and g.tracked:
        dxn = f.dxn @ g.value + f.value @ g.dxn
    else:
        dxn = None
    return SymbolJet(value, dxn)


# ---------------------------------------------------------------------------
# symbols of the two first-order operators


def leading_symbol(n: int) -> SymbolJet:
    """Order-one symbol: i times the Clifford action of the full covector."""
    c_tan = tangential_clifford(n)
    c_nor = MatrixSymbol.from_clifford(
        normal_clifford(n), RationalXi.monomial(1, 1)
    )
    value = (MatrixSymbol.from_clifford(c_tan) + c_nor).scale(RationalXi.const(GR_I))
    # The collar metric scales the tangential part by 1/h(x_n), h(0) = 1, so
    # the tangential frame covectors scale like sqrt(h): the normal derivative
    # of their Clifford action is H/2 times the action, H = h'(0).
    d_tan = c_tan.scale(Poly.gen(gen_h()) * Fraction(1, 2))
    dxn = MatrixSymbol.from_clifford(d_tan).scale(RationalXi.const(GR_I))
    return SymbolJet(value, dxn)


def zero_order_symbol(n: int, variant: str, dual: bool = True) -> SymbolJet:
    """Order-zero symbol: connection operators plus the drift action.

    The drift enters as interior multiplication for the operator itself
    and as exterior multiplication by the dual covector for its formal
    adjoint.  The normal derivative is never needed downstream, so it is
    left untracked.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown operator variant {variant!r}")
    a_op, b_op = build_connection_ops(n)
    drift = drift_interior(n) if variant == "Dv" else drift_exterior(n, dual)
    return SymbolJet(MatrixSymbol.from_clifford(a_op + b_op + drift), None)


def operator_symbols(n: int, variant: str, dual: bool = True) -> dict[int, SymbolJet]:
    """Graded symbol of one first-order operator: orders 1 and 0."""
    return {1: leading_symbol(n), 0: zero_order_symbol(n, variant, dual)}


# ---------------------------------------------------------------------------
# composition and inversion


def compose_symbols(
    left: dict[int, SymbolJet], right: dict[int, SymbolJet]
) -> dict[int, SymbolJet]:
    """Leading two orders of the composed symbol at the base point.

    The full composition sums derivative pairings over all covector
    directions, but at the base point every tangential position
    derivative of the right factor vanishes, so only the normal pairing
    survives at the first subleading order.  Orders below the two
    leading ones are dropped; they are never consumed.
    """
    m_l = max(left)
    m_r = max(right)
    top = jet_mul(left[m_l], right[m_r])
    minus_i = RationalXi.const(GR_MINUS_I)
    next_value = (
        left[m_l].value @ right[m_r - 1].value
        + left[m_l - 1].value @ right[m_r].value
        + left[m_l].value.d_xi_n() @ right[m_r].dxn_or_raise().scale(minus_i)
    )
    return {m_l + m_r: top, m_l + m_r - 1: SymbolJet(next_value, None)}


def composite_symbols(
    n: int, op: str, dual: bool = True
) -> dict[int, SymbolJet]:
    """Leading two orders of the graded symbol of op's factor product."""
    if op not in _FACTORS:
        raise ValueError(f"unknown operator selector {op!r}")
    return reduce(
        compose_symbols, (operator_symbols(n, f, dual) for f in _FACTORS[op])
    )


def invert_symbol(
    p_top: SymbolJet, p_next: SymbolJet, m: int
) -> dict[int, SymbolJet]:
    """Leading two orders of the inverse symbol.

    The leading symbol must square to the covector norm to the m-th
    power times the identity (true for Clifford-linear leading symbols),
    so the symbol over that power is its exact inverse, as the defining
    identity checks.  The subleading order comes from the standard
    recursion, again collapsed to the single normal pairing at the base
    point.
    """
    n = p_top.value.n
    w = p_top.value
    q_value = w.scale(RationalXi.inverse_norm_power(m))
    if w @ q_value != MatrixSymbol.identity(n):
        raise ValueError(
            "leading symbol square is not the expected norm power; "
            "cannot invert by the Clifford norm trick"
        )
    q_dxn = -(q_value @ p_top.dxn_or_raise() @ q_value)
    minus_i = RationalXi.const(GR_MINUS_I)
    q_next = -(
        q_value
        @ (p_next.value @ q_value + w.d_xi_n() @ q_dxn.scale(minus_i))
    )
    return {-m: SymbolJet(q_value, q_dxn), -m - 1: SymbolJet(q_next, None)}


def inverse_symbols(n: int, variant: str, dual: bool = True) -> dict[int, SymbolJet]:
    """Leading two orders of the inverse of variant's composed symbol:
    orders -1 and -2 for a first-order operator, -3 and -4 for D3."""
    graded = composite_symbols(n, variant, dual)
    m = max(graded)
    return invert_symbol(graded[m], graded[m - 1], m)
