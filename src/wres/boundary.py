"""The boundary contribution to the residue of a projected product.

The boundary term is a finite sum over integer case tuples
(r, l, k, j, alpha): r and l pick symbol orders of the two inverse
operators, k and j count normal-covariable and normal-position
derivatives, alpha counts tangential derivatives.  Each case contributes

    (-i)**(alpha+j+k+1) / (alpha! (j+k+1)!)
      * integral over the tangential cosphere
      * integral over the normal covariable
      * fiber trace of
        d_xn**j d_xiprime**alpha d_xin**k [half-space projection of sigma_r]
        times d_xprime**alpha d_xin**(j+1) d_xn**k [sigma_l]

evaluated at the boundary base point.  In adapted coordinates every
tangential position derivative of a symbol vanishes there, so alpha > 0
cases are structurally zero; they are still enumerated and reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .exact import GR_MINUS_I, GaussianRational, Poly
from .jets import _FACTORS, SymbolJet, inverse_symbols
from .rational import integrate_real_line, sphere_integrate

SUPPORTED_PAIRS = {
    (4, "Dv", "Dv"),
    (4, "DvStar", "DvStar"),
    (4, "Dv", "DvStar"),
    (6, "Dv", "D3"),
}

_ORDER_OF = {op: len(factors) for op, factors in _FACTORS.items()}


@dataclass(frozen=True)
class CaseTuple:
    """One summand of the boundary term."""

    r: int
    l: int
    k: int
    j: int
    alpha: int

    def as_tuple(self) -> tuple:
        return (self.r, self.l, self.k, self.j, self.alpha)


@dataclass(frozen=True)
class CaseReport:
    """Exact contribution of one case, with the audit trail kept.

    trace_integral is the normal-covariable integral of the fiber trace
    before the sphere integration: it still depends on the tangential
    covector components, which is what the numeric oracle evaluates at
    sampled directions.  contribution is the fully integrated value.
    """

    tuple: CaseTuple
    coefficient: GaussianRational
    trace_integral: Poly
    contribution: Poly

    @property
    def structurally_zero(self) -> bool:
        return self.tuple.alpha > 0


def enumerate_cases(n: int, p1: int, p2: int) -> list[CaseTuple]:
    """All case tuples for the given dimension and operator orders.

    The constraint r + l - k - j - alpha - 1 = -n with r <= -p1,
    l <= -p2 and k, j, alpha >= 0 has finitely many solutions; they are
    listed with higher total derivative count first, then by k, j
    ascending, then by r descending.
    """
    if n % 2:
        raise ValueError("boundary enumeration needs even dimension")
    if p1 < 1 or p2 < 1:
        raise ValueError("operator orders must be positive")
    out = []
    t_max = n - 1 - p1 - p2
    for t in range(t_max, -1, -1):
        s = 1 - n + t  # r + l
        for k in range(t + 1):
            for j in range(t - k + 1):
                alpha = t - k - j
                for r in range(-p1, s + p2 - 1, -1):
                    l = s - r
                    if l <= -p2:
                        out.append(CaseTuple(r, l, k, j, alpha))
    return out


def case_coefficient(case: CaseTuple) -> GaussianRational:
    """(-i)**(alpha+j+k+1) / (alpha! (j+k+1)!)."""
    power = GR_MINUS_I ** (case.alpha + case.j + case.k + 1)
    return power * Fraction(
        1, factorial(case.alpha) * factorial(case.j + case.k + 1)
    )


def evaluate_case(
    case: CaseTuple,
    left: dict[int, SymbolJet],
    right: dict[int, SymbolJet],
    n: int,
) -> CaseReport:
    """Exact contribution of one case tuple.

    The left symbol order r is projected to the half space first, then
    differentiated; the right order l is differentiated directly.  Cases
    with tangential derivatives are zero because the right factor's
    tangential position derivatives vanish at the base point.
    """
    coeff = case_coefficient(case)
    if case.alpha > 0:
        return CaseReport(case, coeff, Poly.zero(), Poly.zero())
    if case.j > 1 or case.k > 1:
        raise ValueError(
            f"case {case.as_tuple()} needs higher normal jets than tracked"
        )
    left_jet = left[case.r]
    right_jet = right[case.l]

    lf = left_jet.value if case.j == 0 else left_jet.dxn_or_raise()
    lf = lf.pi_plus()
    for _ in range(case.k):
        lf = lf.d_xi_n()

    rf = right_jet.value if case.k == 0 else right_jet.dxn_or_raise()
    for _ in range(case.j + 1):
        rf = rf.d_xi_n()

    trace = lf.trace_product(rf)
    line = integrate_real_line(trace)
    trace_integral = line * coeff
    contribution = sphere_integrate(trace_integral, n)
    return CaseReport(case, coeff, trace_integral, contribution)


def boundary_phi(
    n: int, left_op: str, right_op: str, dual: bool = True
) -> tuple[Poly, list[CaseReport]]:
    """Boundary term of the projected product of two inverse operators.

    Returns the exact total and the per-case breakdown.  Only the
    operator pairs with worked reference values are accepted.
    """
    if (n, left_op, right_op) not in SUPPORTED_PAIRS:
        raise ValueError(
            f"unsupported boundary pair: dimension {n}, {left_op} against {right_op}"
        )
    left = inverse_symbols(n, left_op, dual)
    right = inverse_symbols(n, right_op, dual)
    reports = [
        evaluate_case(case, left, right, n)
        for case in enumerate_cases(n, _ORDER_OF[left_op], _ORDER_OF[right_op])
    ]
    total = Poly.zero()
    for report in reports:
        total = total + report.contribution
    return total, reports
