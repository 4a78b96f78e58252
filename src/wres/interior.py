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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .clifford import (
    CliffordOp,
    action_of,
    build_generator,
    drift_exterior,
    drift_interior,
)
from .exact import Poly, gen_pi, gen_riemann, gen_s, gen_w, gen_ws

SQUARE_VARIANTS = ("Dv2", "DvStar2", "DvStarDv")


def _nabla_interior(n: int, j: int) -> CliffordOp:
    """Interior product with the covariant derivative of the drift
    along the j-th frame vector."""
    return action_of(
        n, [Poly.gen(gen_w(j, k)) for k in range(1, n + 1)], "interior_vector"
    )


def _nabla_exterior(n: int, j: int, dual: bool) -> CliffordOp:
    """Exterior product with the covariant derivative of the dual
    covector along the j-th frame vector."""
    mk = gen_w if dual else gen_ws
    return action_of(
        n, [Poly.gen(mk(j, k)) for k in range(1, n + 1)], "exterior_covector"
    )


def curvature_term(n: int) -> CliffordOp:
    """(1/8) sum R_ijkl cbar_i cbar_j c_k c_l over all index tuples.

    Coefficients are stored canonically (first pair ascending, second
    pair ascending) with the antisymmetry signs tracked, so the full
    four-fold sum exercises every orientation of each generator.  The
    pair products cbar_i cbar_j and c_k c_l are formed once each, so
    every term of the sum costs a single product, and the sum runs over
    integer signs with the factor 1/8 applied once at the end.
    """
    cb = {i: build_generator(n, i, "clifford_bar") for i in range(1, n + 1)}
    cc = {i: build_generator(n, i, "clifford") for i in range(1, n + 1)}
    pairs = [(i, j) for i, j in product(range(1, n + 1), repeat=2) if i != j]
    cb_pair = {(i, j): cb[i] @ cb[j] for i, j in pairs}
    cc_pair = {(k, l): cc[k] @ cc[l] for k, l in pairs}
    out = CliffordOp.zero(n)
    for (i, j), (k, l) in product(pairs, repeat=2):
        sign, gen = gen_riemann(i, j, k, l)
        term = cb_pair[i, j] @ cc_pair[k, l]
        out = out + term.scale(Poly.gen(gen, coeff=sign))
    return out.scale(Fraction(1, 8))


def _drift_factors(n: int, variant: str, dual: bool) -> tuple[CliffordOp, CliffordOp]:
    """Left and right drift actions in the quadratic term."""
    interior, exterior = drift_interior(n), drift_exterior(n, dual)
    if variant == "Dv2":
        return interior, interior
    if variant == "DvStar2":
        return exterior, exterior
    if variant == "DvStarDv":
        return interior, exterior
    raise ValueError(f"unknown square variant {variant!r}")


def drift_square_term(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """-(1/4) sum_i (c_i L + R c_i)**2.

    L is the drift action inside the operator, R the one brought in from
    the left factor; they coincide for the two genuine squares.
    """
    left, right = _drift_factors(n, variant, dual)
    out = CliffordOp.zero(n)
    for i in range(1, n + 1):
        c_i = build_generator(n, i, "clifford")
        inner = c_i @ left + right @ c_i
        out = out - (inner @ inner)
    return out.scale(Fraction(1, 4))


def drift_gradient_term(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """(1/2) sum_j (nabla_j X c_j - c_j nabla_j Y).

    X and Y are the drift actions whose derivatives appear: interior for
    the operator square, exterior for the adjoint square, and exterior
    against interior for the mixed product.
    """
    out = CliffordOp.zero(n)
    for j in range(1, n + 1):
        c_j = build_generator(n, j, "clifford")
        if variant == "Dv2":
            x = _nabla_interior(n, j)
            y = x
        elif variant == "DvStar2":
            x = _nabla_exterior(n, j, dual)
            y = x
        elif variant == "DvStarDv":
            x = _nabla_exterior(n, j, dual)
            y = _nabla_interior(n, j)
        else:
            raise ValueError(f"unknown square variant {variant!r}")
        out = out + (x @ c_j - c_j @ y)
    return out.scale(Fraction(1, 2))


def build_endomorphism(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """The endomorphism piece of the chosen Laplacian at the base point."""
    if variant not in SQUARE_VARIANTS:
        raise ValueError(f"unknown square variant {variant!r}")
    out = curvature_term(n)
    out = out - CliffordOp.identity(n, Fraction(1, 4)).scale(Poly.gen(gen_s()))
    out = out + drift_square_term(n, variant, dual)
    out = out + drift_gradient_term(n, variant, dual)
    if variant == "DvStarDv":
        out = out - drift_exterior(n, dual) @ drift_interior(n)
    return out


def interior_trace(n: int, variant: str, dual: bool = True) -> Poly:
    """Fiber trace of s/6 plus the endomorphism."""
    endo = build_endomorphism(n, variant, dual)
    scalar = Poly.gen(gen_s(), coeff=Fraction(1, 6)) * Fraction(1 << n)
    return scalar + endo.trace()


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
