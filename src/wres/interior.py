"""Interior residue of the squared and mixed drift operators.

For a generalized Laplacian the interior part of the residue reduces to
the fiber trace of s/6 plus the endomorphism piece of the Laplacian,
integrated over the manifold.  This module assembles that endomorphism
at the base point of normal coordinates, where the frame is parallel
and only curvature, scalar curvature, the drift, and the covariant
derivative of the drift survive.

Three operator squares occur: the square of the drift operator, the
square of its formal adjoint, and the mixed product adjoint-times-
operator.  They share the curvature and scalar terms and differ in how
the drift enters the quadratic and gradient terms.

The endomorphism is one list of products coeff * left @ right, the
curvature term first, as the identity times it.  build_endomorphism
forms and sums them; interior_trace takes the trace product by product,
which reads only the pairs of equal words, and never forms the
endomorphism.  The curvature term is written down word by word; its
trace vanishes because none of its words is empty.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Iterable, Iterator

from .clifford import CliffordOp, build_generator, drift_action
from .exact import Poly, gen_pi, gen_riemann, gen_s
from .jets import DRIFTS

# Each operator square as its (left, right) first-order factors.  The
# right factor's drift action is the inner one, the left factor's outer.
_SQUARES = {
    "Dv2": ("Dv", "Dv"),
    "DvStar2": ("DvStar", "DvStar"),
    "DvStarDv": ("DvStar", "Dv"),
}
SQUARE_VARIANTS = tuple(_SQUARES)


def curvature_term(n: int) -> CliffordOp:
    """(1/8) sum R_ijkl cbar_i cbar_j c_k c_l over all index tuples.

    R_ijkl and both pair products cbar_i cbar_j and c_k c_l change sign
    when a pair is swapped, so the four orientations of each term agree
    and the sum is half the one over i < j, k < l.  For such indices
    cbar_i cbar_j c_k c_l is the single word c_k c_l cbar_i cbar_j with
    sign +1, since moving two cbar past two c is an even permutation,
    and no two index tuples share a word: the term needs no product.
    """
    pairs = [
        (i, j, (1 << (i - 1)) | (1 << (j - 1)))
        for i, j in combinations(range(1, n + 1), 2)
    ]
    half = Fraction(1, 2)
    return CliffordOp(
        n,
        {
            (kl, ij): Poly.gen(gen_riemann(i, j, k, l)[1], coeff=half)
            for (i, j, ij), (k, l, kl) in product(pairs, repeat=2)
        },
    )


def _drift_actions(
    n: int, variant: str, dual: bool, along: int | None = None
) -> tuple[CliffordOp, CliffordOp]:
    """The inner and outer drift actions of the variant, or with along=j
    those of the drift's derivative along e_j; one object if they agree."""
    if variant not in _SQUARES:
        raise ValueError(f"unknown square variant {variant!r}")
    left, right = _SQUARES[variant]
    inner, outer = DRIFTS[right], DRIFTS[left]
    action = drift_action(n, inner, dual, along)
    return action, action if outer == inner else drift_action(n, outer, dual, along)


def _square_products(n: int, inner: CliffordOp, outer: CliffordOp) -> Iterator[tuple]:
    """-(1/4) sum_i (c_i L + R c_i)**2 as (coeff, left, right) triples.

    L is the inner drift action of the variant, the one inside the
    operator, and R the outer one, brought in from the left factor;
    they are one object for the two genuine squares (_drift_actions).
    """
    for i in range(1, n + 1):
        c_i = build_generator(n, i, "clifford")
        term = c_i @ inner + outer @ c_i
        yield Fraction(-1, 4), term, term


def _gradient_products(n: int, variant: str, dual: bool) -> Iterator[tuple]:
    """(1/2) sum_j (nabla_j X c_j - c_j nabla_j Y) as (coeff, left, right)
    triples.

    X is the outer drift action of the variant and Y the inner one:
    interior for the operator square, exterior for the adjoint square,
    and exterior against interior for the mixed product.
    """
    for j in range(1, n + 1):
        c_j = build_generator(n, j, "clifford")
        inner, outer = _drift_actions(n, variant, dual, along=j)
        yield Fraction(1, 2), outer, c_j
        yield Fraction(-1, 2), c_j, inner


def _products(n: int, variant: str, dual: bool) -> Iterator[tuple]:
    """The endomorphism as (coeff, left, right) triples: the curvature
    term, the scalar term -s/4, the drift square, the drift gradient and
    -(outer drift)(inner drift), which is zero for a genuine square."""
    inner, outer = _drift_actions(n, variant, dual)
    one = CliffordOp.identity(n)
    # the identity goes left, as trace_product walks the left operand's words
    yield 1, one, curvature_term(n)
    yield Poly.gen(gen_s(), coeff=Fraction(-1, 4)), one, one
    yield from _square_products(n, inner, outer)
    yield from _gradient_products(n, variant, dual)
    yield -1, outer, inner


def _sum_products(n: int, products: Iterable[tuple]) -> CliffordOp:
    """The sum of coeff * (left @ right) over the triples."""
    out = CliffordOp.zero(n)
    for coeff, left, right in products:
        out = out + (left @ right).scale(coeff)
    return out


def drift_square_term(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """-(1/4) sum_i (c_i L + R c_i)**2; see _square_products."""
    return _sum_products(n, _square_products(n, *_drift_actions(n, variant, dual)))


def drift_gradient_term(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """(1/2) sum_j (nabla_j X c_j - c_j nabla_j Y); see _gradient_products."""
    return _sum_products(n, _gradient_products(n, variant, dual))


def build_endomorphism(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """The endomorphism piece of the chosen Laplacian at the base point."""
    return _sum_products(n, _products(n, variant, dual))


def interior_trace(n: int, variant: str, dual: bool = True) -> Poly:
    """Fiber trace of s/6 plus the endomorphism, one product at a time."""
    out = Poly.gen(gen_s(), coeff=Fraction(1, 6)) * Fraction(1 << n)
    for coeff, left, right in _products(n, variant, dual):
        out = out + left.trace_product(right) * coeff
    return out


def residue_prefactor(n: int) -> Poly:
    """(n-2) (4 pi)**(n/2) / (n/2 - 1)! with the circle constant symbolic."""
    half = n // 2
    if 2 * half != n:
        raise ValueError("interior residue needs even dimension")
    coeff = Fraction((n - 2) * 4**half, factorial(half - 1))
    return Poly.gen(gen_pi(), half, coeff)


def interior_wres(n: int, variant: str, dual: bool = True) -> Poly:
    """Interior residue density: prefactor times the endomorphism trace.

    The result is the integrand against the volume form; the integral
    over the manifold stays symbolic.
    """
    return residue_prefactor(n) * interior_trace(n, variant, dual)
