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

# (inner, outer) drift kinds of each operator square: the inner action
# belongs to the right factor, the outer one to the left factor
_DRIFT_KINDS = {
    "Dv2": ("interior", "interior"),
    "DvStar2": ("exterior", "exterior"),
    "DvStarDv": ("interior", "exterior"),
}
SQUARE_VARIANTS = tuple(_DRIFT_KINDS)


def _drift_kinds(variant: str) -> tuple[str, str]:
    kinds = _DRIFT_KINDS.get(variant)
    if kinds is None:
        raise ValueError(f"unknown square variant {variant!r}")
    return kinds


def _drift(n: int, kind: str, dual: bool) -> CliffordOp:
    """The drift action of the given kind, "interior" or "exterior"."""
    return drift_interior(n) if kind == "interior" else drift_exterior(n, dual)


def _nabla(n: int, j: int, kind: str, dual: bool) -> CliffordOp:
    """The drift action of the given kind with the drift replaced by its
    covariant derivative along the j-th frame vector."""
    mk = gen_ws if kind == "exterior" and not dual else gen_w
    action = "interior_vector" if kind == "interior" else "exterior_covector"
    return action_of(n, [Poly.gen(mk(j, k)) for k in range(1, n + 1)], action)


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


def drift_square_term(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """-(1/4) sum_i (c_i L + R c_i)**2.

    L is the inner drift action of the variant, the one inside the
    operator, and R the outer one, brought in from the left factor;
    they coincide for the two genuine squares.
    """
    inner, outer = _drift_kinds(variant)
    left = _drift(n, inner, dual)
    right = left if outer == inner else _drift(n, outer, dual)
    out = CliffordOp.zero(n)
    for i in range(1, n + 1):
        c_i = build_generator(n, i, "clifford")
        term = c_i @ left + right @ c_i
        out = out - (term @ term)
    return out.scale(Fraction(1, 4))


def drift_gradient_term(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """(1/2) sum_j (nabla_j X c_j - c_j nabla_j Y).

    X is the outer drift action of the variant and Y the inner one:
    interior for the operator square, exterior for the adjoint square,
    and exterior against interior for the mixed product.
    """
    inner, outer = _drift_kinds(variant)
    out = CliffordOp.zero(n)
    for j in range(1, n + 1):
        c_j = build_generator(n, j, "clifford")
        x = _nabla(n, j, outer, dual)
        y = x if inner == outer else _nabla(n, j, inner, dual)
        out = out + (x @ c_j - c_j @ y)
    return out.scale(Fraction(1, 2))


def build_endomorphism(n: int, variant: str, dual: bool = True) -> CliffordOp:
    """The endomorphism piece of the chosen Laplacian at the base point."""
    _drift_kinds(variant)
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
