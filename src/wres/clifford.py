"""Clifford and wedge operators on the exterior algebra fiber.

The fiber over a point of an n-manifold is the full exterior algebra of
an n-dimensional inner-product space, dimension 2**n.  Its endomorphisms
are generated by two anticommuting Clifford actions, the difference
c_j and the sum cbar_j of exterior and interior multiplication by the
j-th frame covector:

    c_i c_j + c_j c_i = -2 delta_ij,    cbar_i cbar_j + cbar_j cbar_i = 2 delta_ij,
    c_i cbar_j + cbar_j c_i = 0.

The 4**n words c_S cbar_T, each product taken in ascending index order,
form a basis of the endomorphisms, so an operator is stored as a sparse
map from words to coefficients.  A word is the bitmask pair (S, T): bit
(j-1) of S set means c_j is present, of T that cbar_j is.  This is the
bitmap representation of Dorst, Fontijne and Mann, Geometric Algebra for
Computer Science (2007), ch. 19: the product of two words is a sign
times one word, and the empty word is the only one with a trace, 2**n.

Each frame action weights the two words c_j and cbar_j of frame index
j: by (1, 0) for c_j, (0, 1) for cbar_j, (1/2, 1/2) for exterior and
(-1/2, 1/2) for interior multiplication by the j-th frame covector.
Component j of a contraction fills only those two words, which no other
component touches, so action_of writes the operator in one pass with no
sum; a single generator is the unit-component case.

One word map, _WordMap, holds what does not depend on the coefficient
ring (sums, negation, equality, the dimension check).  CliffordOp is the
word map over Poly; rational.MatrixSymbol is the one over RationalXi,
for symbols in the normal covariable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Sequence

from .exact import (
    Poly,
    Scalar,
    _add_product_into,
    gen_h,
    gen_v,
    gen_vs,
    gen_w,
    gen_ws,
    gen_xi,
    sphere_normal_form,
)

EMPTY_WORD = (0, 0)


def _swaps(a: int, b: int) -> int:
    """Transpositions that sort the ascending product of a times that of b."""
    a >>= 1
    count = 0
    while a:
        count += (a & b).bit_count()
        a >>= 1
    return count


def word_product(u: tuple, v: tuple) -> tuple:
    """(c_S cbar_T)(c_U cbar_V) = sign * c_(S^U) cbar_(T^V).

    The parity counts moving cbar_T past c_U, sorting the c and the cbar
    products, and the squares c_i**2 = -1 of the indices S and U share;
    the squares cbar_i**2 = +1 add nothing.
    """
    s, t = u
    x, y = v
    parity = (
        t.bit_count() * x.bit_count()
        + _swaps(s, x)
        + (s & x).bit_count()
        + _swaps(t, y)
    )
    return -1 if parity & 1 else 1, (s ^ x, t ^ y)


class _WordMap:
    """Sparse map from Clifford words to nonzero coefficients.

    The shared core of CliffordOp (coefficients Poly) and
    rational.MatrixSymbol (coefficients RationalXi).  Everything here is
    linear over constants and needs only the coefficients' own +, - and
    is_zero; each subclass adds what its ring needs for the identity,
    scaling and the product.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: dict | None = None):
        self.n = n
        self.words = words or {}

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    def _map(self, fn):
        """Apply fn to every coefficient, dropping the ones that vanish."""
        words = {}
        for w, c in self.words.items():
            d = fn(c)
            if not d.is_zero:
                words[w] = d
        return type(self)(self.n, words)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.words)
        for w, c in other.words.items():
            acc = out.get(w)
            s = c if acc is None else acc + c
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s
        return type(self)(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # negation keeps every coefficient nonzero
        return type(self)(self.n, {w: -c for w, c in self.words.items()})

    def _check(self, other) -> None:
        if self.n != other.n:
            raise ValueError(f"fiber dimension mismatch: {self.n} vs {other.n}")

    def _trace_pairs(self, other) -> list:
        """The (sign, EMPTY_WORD, left, right) products whose sum is the
        empty-word coefficient of self @ other.

        Only equal words multiply to the empty word, the one word with a
        trace, so only those pairs occur; each ring sums them its own way.
        """
        self._check(other)
        return [
            (*word_product(u, u), left, right)
            for u, left in self.words.items()
            if (right := other.words.get(u)) is not None
        ]

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.words

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.words == other.words

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, words={len(self.words)})"


class CliffordOp(_WordMap):
    """Sparse linear combination of Clifford words over Poly."""

    __slots__ = ()

    @staticmethod
    def identity(n: int, coeff: Scalar = 1) -> "CliffordOp":
        c = Poly.const(coeff)
        if c.is_zero:
            return CliffordOp(n)
        return CliffordOp(n, {EMPTY_WORD: c})

    def scale(self, factor) -> "CliffordOp":
        f = Poly.of(factor)
        return self._map(lambda p: p * f)

    def __matmul__(self, other: "CliffordOp") -> "CliffordOp":
        self._check(other)
        # sum each word's products in place, then wrap the nonzero sums
        sums: dict = {}
        for u, p in self.words.items():
            signed = {1: p, -1: -p}
            for v, q in other.words.items():
                sign, w = word_product(u, v)
                terms = sums.get(w)
                if terms is None:
                    terms = sums[w] = {}
                _add_product_into(terms, signed[sign], q)
        return CliffordOp(
            self.n, {w: Poly._own(terms) for w, terms in sums.items() if terms}
        )

    def trace_product(self, other: "CliffordOp") -> Poly:
        """Fiber trace of self @ other, without forming the product."""
        terms: dict = {}
        for sign, _, left, right in self._trace_pairs(other):
            _add_product_into(terms, left if sign > 0 else -left, right)
        return Poly._own(terms) * (1 << self.n)

    def trace(self) -> Poly:
        """Trace on the fiber: 2**n times the coefficient of the empty word."""
        return self.words.get(EMPTY_WORD, Poly.zero()) * (1 << self.n)

    def trace_on_sphere(self) -> Poly:
        """Trace with the cosphere relation applied to the coefficients."""
        return sphere_normal_form(self.trace(), self.n)


# ---------------------------------------------------------------------------
# generators


# The (c_j, cbar_j) weights of each frame action; see the module docstring.
_WEIGHTS = {
    "clifford": (1, 0),
    "clifford_bar": (0, 1),
    "exterior": (Fraction(1, 2), Fraction(1, 2)),
    "interior": (Fraction(-1, 2), Fraction(1, 2)),
}


def build_generator(n: int, j: int, kind: str) -> CliffordOp:
    """One frame generator acting on the fiber: the action of kind, one of
    "exterior", "interior", "clifford", "clifford_bar", on the j-th frame
    covector."""
    if not 1 <= j <= n:
        raise ValueError(f"frame index {j} out of range 1..{n}")
    return action_of(n, [int(k == j) for k in range(1, n + 1)], kind)


def action_of(n: int, components: Sequence, kind: str) -> CliffordOp:
    """Contract frame components with the build_generator family of kind.

    components has length n, or n-1 for purely tangential data (the
    normal slot is then zero).  Entries are Poly or plain scalars.  A bad
    kind raises ValueError whatever the components.
    """
    weights = _WEIGHTS.get(kind)
    if weights is None:
        raise ValueError(f"unknown generator kind {kind!r}")
    comps = list(components)
    if len(comps) == n - 1:
        comps.append(0)
    if len(comps) != n:
        raise ValueError(f"expected {n} or {n - 1} components, got {len(comps)}")
    w_c, w_cbar = weights
    words = {}
    for j, comp in enumerate(comps):
        p = Poly.of(comp)
        if p.is_zero:
            continue
        bit = 1 << j
        if w_c:
            words[bit, 0] = p * w_c
        if w_cbar:
            words[0, bit] = p * w_cbar
    return CliffordOp(n, words)


# ---------------------------------------------------------------------------
# the operators the symbol calculus needs


def tangential_clifford(n: int) -> CliffordOp:
    """Clifford action of the unit tangential covector."""
    return action_of(n, [Poly.gen(gen_xi(i)) for i in range(1, n)], "clifford")


def normal_clifford(n: int) -> CliffordOp:
    """Clifford action of the unit inward conormal."""
    return build_generator(n, n, "clifford")


def normal_clifford_bar(n: int) -> CliffordOp:
    return build_generator(n, n, "clifford_bar")


def drift_action(
    n: int, kind: str, dual: bool = True, along: int | None = None
) -> CliffordOp:
    """Interior product with the drift vector field, or exterior product
    with its dual covector; with along=j, the same action of the drift's
    covariant derivative along the j-th frame vector.

    The interior action reads the frame components V(k), or W(j, k).
    Under the dual pairing (the default) the covector's components are
    the same, so the exterior action reads them too; with an independent
    dual (dual=False) it reads VS(k), or WS(j, k).
    """
    if kind not in ("interior", "exterior"):
        raise ValueError(f"unknown drift action {kind!r}")
    independent = kind == "exterior" and not dual
    if along is None:
        mk = gen_vs if independent else gen_v
    else:
        mk = partial(gen_ws if independent else gen_w, along)
    return action_of(n, [Poly.gen(mk(k)) for k in range(1, n + 1)], kind)


def build_connection_ops(n: int) -> tuple[CliffordOp, CliffordOp]:
    """The two zero-order connection operators at the base point.

    The connection matrix has +H/2 in the (n,i) slot and -H/2 in the
    (i,n) slot for tangential i, H the warp derivative, and vanishes
    elsewhere.  Contracting it against the frame gives

        A = (H/8) sum_{i<n} c_i (cbar_n cbar_i - cbar_i cbar_n),
        B = -(H/8) sum_{i<n} c_i (c_n c_i - c_i c_n).

    Distinct generators anticommute, so each commutator is twice the
    product, and c_i c_n c_i = -c_n c_i**2 = c_n.  Hence

        A = (H/4) sum_{i<n} c_i cbar_n cbar_i,   B = -(n-1) (H/4) c_n.
    """
    quarter_h = Poly.gen(gen_h(), coeff=Fraction(1, 4))
    cbar_n = normal_clifford_bar(n)
    a_op = CliffordOp.zero(n)
    for i in range(1, n):
        c_i = build_generator(n, i, "clifford")
        a_op = a_op + c_i @ cbar_n @ build_generator(n, i, "clifford_bar")
    return a_op.scale(quarter_h), normal_clifford(n).scale(quarter_h * (1 - n))
