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

One word map, _WordMap, holds what does not depend on the coefficient
ring (sums, negation, equality, the dimension check).  CliffordOp is the
word map over Poly; rational.MatrixSymbol is the one over RationalXi,
for symbols in the normal covariable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import (
    Poly,
    Scalar,
    _add_product_into,
    gen_h,
    gen_v,
    gen_vs,
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
        if f.is_zero:
            return CliffordOp(self.n)
        out = {}
        for w, p in self.words.items():
            q = p * f
            if not q.is_zero:
                out[w] = q
        return CliffordOp(self.n, out)

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

    def trace(self) -> Poly:
        """Trace on the fiber: 2**n times the coefficient of the empty word."""
        return self.words.get(EMPTY_WORD, Poly.zero()) * (1 << self.n)

    def trace_on_sphere(self) -> Poly:
        """Trace with the cosphere relation applied to the coefficients."""
        return sphere_normal_form(self.trace(), self.n)


# ---------------------------------------------------------------------------
# generators


def build_generator(n: int, j: int, kind: str) -> CliffordOp:
    """One frame generator acting on the fiber.

    kind is one of "exterior", "interior", "clifford", "clifford_bar".
    The two Clifford actions are single words; exterior multiplication
    is (c_j + cbar_j)/2 and interior multiplication, its adjoint,
    (cbar_j - c_j)/2.
    """
    if not 1 <= j <= n:
        raise ValueError(f"frame index {j} out of range 1..{n}")
    bit = 1 << (j - 1)
    c, cbar = (bit, 0), (0, bit)
    one = Poly.const(1)
    half = Poly.const(Fraction(1, 2))
    if kind == "clifford":
        words = {c: one}
    elif kind == "clifford_bar":
        words = {cbar: one}
    elif kind == "exterior":
        words = {c: half, cbar: half}
    elif kind == "interior":
        words = {c: -half, cbar: half}
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return CliffordOp(n, words)


_KIND_BY_ACTION = {
    "clifford_covector": "clifford",
    "clifford_bar": "clifford_bar",
    "interior_vector": "interior",
    "exterior_covector": "exterior",
}


def action_of(n: int, components: Sequence, kind: str) -> CliffordOp:
    """Contract frame components with a generator family.

    components has length n, or n-1 for purely tangential data (the
    normal slot is then zero).  Entries are Poly or plain scalars.
    """
    base = _KIND_BY_ACTION.get(kind)
    if base is None:
        raise ValueError(f"unknown action kind {kind!r}")
    comps = list(components)
    if len(comps) == n - 1:
        comps.append(0)
    if len(comps) != n:
        raise ValueError(f"expected {n} or {n - 1} components, got {len(comps)}")
    out = CliffordOp.zero(n)
    for j, comp in enumerate(comps, start=1):
        p = Poly.of(comp)
        if p.is_zero:
            continue
        out = out + build_generator(n, j, base).scale(p)
    return out


# ---------------------------------------------------------------------------
# the operators the symbol calculus needs


def tangential_clifford(n: int) -> CliffordOp:
    """Clifford action of the unit tangential covector."""
    return action_of(n, [Poly.gen(gen_xi(i)) for i in range(1, n)], "clifford_covector")


def tangential_clifford_bar(n: int) -> CliffordOp:
    return action_of(n, [Poly.gen(gen_xi(i)) for i in range(1, n)], "clifford_bar")


def normal_clifford(n: int) -> CliffordOp:
    """Clifford action of the unit inward conormal."""
    return build_generator(n, n, "clifford")


def normal_clifford_bar(n: int) -> CliffordOp:
    return build_generator(n, n, "clifford_bar")


def drift_interior(n: int) -> CliffordOp:
    """Interior product with the drift vector field, frame components V(k)."""
    return action_of(n, [Poly.gen(gen_v(k)) for k in range(1, n + 1)], "interior_vector")


def drift_exterior(n: int, dual: bool = True) -> CliffordOp:
    """Exterior product with the dual drift covector.

    Under the dual pairing (the default) its frame components equal those
    of the drift vector, so the V generators are reused; otherwise the
    independent VS generators appear.
    """
    mk = gen_v if dual else gen_vs
    return action_of(n, [Poly.gen(mk(k)) for k in range(1, n + 1)], "exterior_covector")


def build_connection_ops(n: int) -> tuple[CliffordOp, CliffordOp]:
    """The two zero-order connection operators at the base point.

    Both come from contracting the connection matrix against the frame:
    the only nonvanishing entries pair a tangential index with the
    normal one and are +/- half the warp derivative H.  The first
    operator carries the bar action quadratically, the second the plain
    action; both carry one plain Clifford factor.
    """
    h = Poly.gen(gen_h())
    eighth = Poly.const(Fraction(1, 8)) * h
    a_op = CliffordOp.zero(n)
    b_op = CliffordOp.zero(n)
    for i in range(1, n):
        c_i = build_generator(n, i, "clifford")
        # connection matrix at the base point: the (n,i) slot holds +H/2
        # and the (i,n) slot -H/2, everything else vanishes
        cb = (
            build_generator(n, n, "clifford_bar") @ build_generator(n, i, "clifford_bar")
            - build_generator(n, i, "clifford_bar") @ build_generator(n, n, "clifford_bar")
        )
        cc = (
            build_generator(n, n, "clifford") @ build_generator(n, i, "clifford")
            - build_generator(n, i, "clifford") @ build_generator(n, n, "clifford")
        )
        a_op = a_op + (c_i @ cb).scale(eighth)
        b_op = b_op - (c_i @ cc).scale(eighth)
    return a_op, b_op
