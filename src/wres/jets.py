"""Boundary symbols: the leading two orders at the base point.

The boundary computation reads three things from a symbol of order m,
all at a fixed boundary point in adapted coordinates: the order-m part,
its first normal derivative, and the order m-1 part.  A Symbol carries
exactly those as cosphere-reduced fiber operators with rational
coefficients, and its order.  Tangential derivatives vanish identically
at the base point in these coordinates, which is what collapses the
composition formula to a single normal term.  That rule lives in
_compose_low: one left fold of factor Symbols composes them, and
inversion solves the rule's low(p o q) = 0 for the inverse's order below
the top.

Nothing else is ever produced: the normal derivative of the order m-1
part, second normal derivatives and lower orders are not carried, and
Symbol.read fails loudly for them rather than silently returning zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .clifford import (
    build_connection_ops,
    drift_action,
    normal_clifford,
    tangential_clifford,
)
from .exact import GR_I, GR_MINUS_I, XIN, Poly, gen_h
from .rational import MatrixSymbol, RationalXi

# The drift action in each first-order operator: interior multiplication
# by the drift, and for the adjoint exterior multiplication by its dual.
DRIFTS = {"Dv": "interior", "DvStar": "exterior"}

# Each operator as the product of its first-order factors, left to right.
_FACTORS = {
    "Dv": ("Dv",),
    "DvStar": ("DvStar",),
    "D3": ("DvStar", "Dv", "DvStar"),
}


@dataclass(frozen=True, slots=True)
class Symbol:
    """Leading two orders of a symbol of the given order at the base point.

    top is the order-`order` part, top_dxn its first normal derivative
    and low the order `order - 1` part.
    """

    order: int
    top: MatrixSymbol
    top_dxn: MatrixSymbol
    low: MatrixSymbol

    def read(self, order: int, normal_derivatives: int) -> MatrixSymbol:
        """The part of the given order, differentiated normal_derivatives
        times in x_n; a part that is not carried raises ValueError."""
        if order == self.order and normal_derivatives == 0:
            return self.top
        if order == self.order and normal_derivatives == 1:
            return self.top_dxn
        if order == self.order - 1 and normal_derivatives == 0:
            return self.low
        raise ValueError(
            f"order {order} with {normal_derivatives} normal derivatives is "
            f"not carried by a symbol of order {self.order}: only its top "
            "order, the top's first normal derivative and the next order are"
        )


# ---------------------------------------------------------------------------
# symbols of the two first-order operators


def operator_symbols(n: int, variant: str, dual: bool = True) -> Symbol:
    """Symbol of one first-order operator.

    Order one is i times the Clifford action of the full covector.
    Order zero is the connection operators plus the drift action that
    DRIFTS names.
    """
    if variant not in DRIFTS:
        raise ValueError(f"unknown operator variant {variant!r}")
    i = RationalXi.const(GR_I)
    c_tan = tangential_clifford(n)
    c_xi = c_tan + normal_clifford(n).scale(Poly.gen(XIN))
    top = MatrixSymbol.from_clifford(c_xi, i)
    # The collar metric scales the tangential part by 1/h(x_n), h(0) = 1, so
    # the tangential frame covectors scale like sqrt(h): the normal derivative
    # of their Clifford action is H/2 times the action, H = h'(0).
    d_tan = c_tan.scale(Poly.gen(gen_h()) * Fraction(1, 2))
    top_dxn = MatrixSymbol.from_clifford(d_tan, i)
    a_op, b_op = build_connection_ops(n)
    drift = drift_action(n, DRIFTS[variant], dual)
    low = MatrixSymbol.from_clifford(a_op + b_op + drift)
    return Symbol(1, top, top_dxn, low)


# ---------------------------------------------------------------------------
# composition and inversion


def _preimage(words: frozenset | None, top: MatrixSymbol) -> frozenset | None:
    """The words u with u XOR v in words for some word v of top: the only
    words of a left factor that its product with top reads on words.
    None, for every word, stays None."""
    if words is None:
        return None
    return frozenset((s ^ x, t ^ y) for s, t in top.words for x, y in words)


def _compose_low(
    top: MatrixSymbol, low: MatrixSymbol, right: Symbol, words: frozenset | None
) -> MatrixSymbol:
    """The order below the top of a left factor composed with right, on
    words (None for every word).

    The full composition sums derivative pairings over all covector
    directions, but at the base point every tangential position
    derivative of the right factor vanishes, so only the normal pairing
    -i d_xi_n(top) d_x_n(right.top) survives at this order.
    """
    minus_i = RationalXi.const(GR_MINUS_I)
    return (
        top.product(right.low, words)
        + low.product(right.top, words)
        + top.d_xi_n().product(right.top_dxn.scale(minus_i), words)
    )


def _fold(factors: list, words: frozenset | None) -> Symbol:
    """The left fold of the factor Symbols, its subleading part computed
    where inverting the product on words reads it (None for every word).

    The partial products' tops and their normal derivatives, the
    Leibniz products, come first, whole.  Inverting on words reads the
    product's subleading part on the preimage, under the top, of
    invert_symbol's inner words, themselves the preimage of words under
    the inverse top, whose words are the top's.  That set is carried back
    through the fold: a partial product's subleading part is read only
    against the next factor's top, on the preimage of the next step's
    words under that top.  A one-factor fold keeps its factor's whole
    part.
    """
    tops = [(factors[0].top, factors[0].top_dxn)]
    for right in factors[1:]:
        top, top_dxn = tops[-1]
        tops.append((top @ right.top, top_dxn @ right.top + top @ right.top_dxn))
    last = tops[-1][0]
    wanted = [_preimage(_preimage(words, last), last)]
    for right in reversed(factors[2:]):
        wanted.append(_preimage(wanted[-1], right.top))
    low = factors[0].low
    for (top, _), right, asked in zip(tops, factors[1:], reversed(wanted)):
        low = _compose_low(top, low, right, asked)
    return Symbol(sum(f.order for f in factors), *tops[-1], low)


def compose_symbols(left: Symbol, right: Symbol) -> Symbol:
    """Leading two orders of the composed symbol at the base point: the
    product of the tops, its normal derivative, and _compose_low's single
    normal pairing at the order below.  Orders below the two leading
    ones are dropped; they are never consumed.
    """
    return _fold([left, right], None)


def _composite(n: int, op: str, dual: bool, words: frozenset | None) -> Symbol:
    """op's factor product, its subleading part computed where inverting
    it on words reads it (None for every word), as in _fold.  Each
    distinct factor symbol is built once."""
    if op not in _FACTORS:
        raise ValueError(f"unknown operator selector {op!r}")
    built = {f: operator_symbols(n, f, dual) for f in dict.fromkeys(_FACTORS[op])}
    return _fold([built[f] for f in _FACTORS[op]], words)


def composite_symbols(n: int, op: str, dual: bool = True) -> Symbol:
    """Leading two orders of the graded symbol of op's factor product."""
    return _composite(n, op, dual, None)


def invert_symbol(p: Symbol, words: frozenset | None = None) -> Symbol:
    """Leading two orders of the inverse symbol.

    The leading symbol of order m must square to the covector norm to
    the m-th power times the identity (true for Clifford-linear leading
    symbols), so the symbol over that power is its exact inverse, as the
    defining identity checks.  The top's normal derivative follows by
    Leibniz.  The subleading order solves low(p o q) = 0.  With q' the
    partial inverse (q's top and its derivative, nothing below),
    _compose_low gives low(p o q) = low(p o q') + top(p) low(q), so
    low(q) = -top(q) low(p o q').

    Given a set of Clifford words, the subleading order is computed on
    those words only; the top and its normal derivative are whole either
    way.  The inner part low(p o q') is then needed only on the words
    u XOR k, for u a word of the top and k a word asked for, because only
    those multiply the top into k.
    """
    w = p.top
    q_top = w.scale(RationalXi.inverse_norm_power(p.order))
    if w @ q_top != MatrixSymbol.identity(w.n):
        raise ValueError(
            "leading symbol square is not the expected norm power; "
            "cannot invert by the Clifford norm trick"
        )
    q_dxn = -(q_top @ p.top_dxn @ q_top)
    partial = Symbol(-p.order, q_top, q_dxn, MatrixSymbol.zero(w.n))
    inner = _preimage(words, q_top)
    q_low = -q_top.product(_compose_low(w, p.low, partial, inner), words)
    return Symbol(-p.order, q_top, q_dxn, q_low)


def inverse_symbols(
    n: int, variant: str, dual: bool = True, words: frozenset | None = None
) -> Symbol:
    """Leading two orders of the inverse of variant's composed symbol:
    orders -1 and -2 for a first-order operator, -3 and -4 for D3.

    Given a frozenset of Clifford words, the order below the top is
    computed on those words only, as in invert_symbol, and the composed
    symbol's order below its top only on the words that reads, as in
    _composite.
    """
    return invert_symbol(_composite(n, variant, dual, words), words)
