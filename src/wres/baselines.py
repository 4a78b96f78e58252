"""Published reference values and discrepancy reporting.

The engine's exact output is the ground truth; hand-derived reference
values from the literature serve as regression targets: a frozen table
per boundary pair, and per interior variant a closed form in n, on
record at every even n except for the independent-dual mixed variant.
Compare functions produce structured discrepancy records whenever the
engine output differs.  A discrepancy is not automatically an engine
bug: published coefficient tables in this genre carry arithmetic slips,
which is why the numeric oracle exists as the arbiter.

All values are per unit boundary (or interior) volume, expressed in the
symbolic generators: H for the warp derivative, S for scalar curvature,
V(k)/VS(k) for drift components, W(j,k)/WS(j,k) for drift covariant
derivatives, PI and OMEGA for the circle constant and the sphere
volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    GaussianRational,
    Poly,
    gen_h,
    gen_omega,
    gen_pi,
    gen_s,
    gen_v,
    gen_vs,
    gen_w,
)
from .interior import residue_prefactor


def _pho(coeff) -> Poly:
    """coeff * PI * H * OMEGA."""
    return (
        Poly.gen(gen_pi()) * Poly.gen(gen_h()) * Poly.gen(gen_omega())
    ) * GaussianRational.of(coeff)


def _pvo(coeff, n: int, dual_component: bool = False) -> Poly:
    """coeff * PI * V(n) * OMEGA, or with VS(n) for an independent dual."""
    mk = gen_vs if dual_component else gen_v
    return (
        Poly.gen(gen_pi()) * Poly.gen(mk(n)) * Poly.gen(gen_omega())
    ) * GaussianRational.of(coeff)


@dataclass(frozen=True)
class Discrepancy:
    """One engine-vs-reference mismatch."""

    label: str
    computed: Poly
    expected: Poly


def _table4(left_drift: Poly, right_drift: Poly) -> dict[tuple, Poly]:
    """An n=4 case table: the three warp rows every pair shares, then the
    two rows of order -2, each with the drift term of its factor."""
    return {
        (-1, -1, 0, 0, 1): Poly.zero(),
        (-1, -1, 0, 1, 0): _pho(Fraction(-3, 2)),
        (-1, -1, 1, 0, 0): _pho(Fraction(3, 2)),
        (-2, -1, 0, 0, 0): _pho(Fraction(9, 2)) + left_drift,
        (-1, -2, 0, 0, 0): _pho(Fraction(-9, 2)) + right_drift,
    }


def boundary_reference(
    n: int, left_op: str, right_op: str, dual: bool = True
) -> tuple[dict[tuple, Poly], Poly] | None:
    """Expected per-case contributions and total for a boundary pair.

    Returns None when no reference value is on record for the pair in the
    requested convention (the independent-dual variants at dimension six).
    """
    vs = not dual
    if n == 4 and left_op == "Dv" and right_op == "Dv":
        return _table4(_pvo(2, 4), _pvo(-2, 4)), Poly.zero()
    if n == 4 and left_op == "DvStar" and right_op == "DvStar":
        return _table4(_pvo(-2, 4, vs), _pvo(2, 4, vs)), Poly.zero()
    if n == 4 and left_op == "Dv" and right_op == "DvStar":
        return _table4(_pvo(2, 4), _pvo(2, 4, vs)), _pvo(2, 4) + _pvo(2, 4, vs)
    if n == 6 and left_op == "Dv" and right_op == "D3":
        if not dual:
            return None
        cases = {
            (-1, -3, 0, 0, 1): Poly.zero(),
            (-1, -3, 0, 1, 0): _pho(Fraction(-15, 2)),
            (-1, -3, 1, 0, 0): _pho(Fraction(25, 2)),
            (-1, -4, 0, 0, 0): _pho(
                GaussianRational(Fraction(-195, 8), Fraction(-41, 8))
            )
            + _pvo(22, 6),
            (-2, -3, 0, 0, 0): _pho(Fraction(55, 2))
            + _pvo(GaussianRational(-4, 9), 6),
        }
        total = _pho(
            GaussianRational(Fraction(65, 8), Fraction(-41, 8))
        ) + _pvo(GaussianRational(18, 9), 6)
        return cases, total
    return None


def interior_reference(n: int, variant: str, dual: bool = True) -> Poly | None:
    """Expected interior residue density for a Laplacian variant.

    The mixed variant's reference is only on record under the dual
    pairing; its gradient-trace remainder is the diagonal contraction
    of the drift derivatives, which the reference keeps explicit.
    """
    dim = Fraction(1 << n)
    mk = gen_vs if variant == "DvStar2" and not dual else gen_v
    drift = Poly.zero()
    for k in range(1, n + 1):
        drift = drift + Poly.gen(mk(k), 2)
    trace = Poly.gen(gen_s(), coeff=Fraction(-1, 12)) * dim
    if variant in ("Dv2", "DvStar2"):
        trace = trace + drift * (dim * Fraction(-1, 4))
    elif variant == "DvStarDv":
        if not dual:
            return None
        diag = Poly.zero()
        for j in range(1, n + 1):
            diag = diag + Poly.gen(gen_w(j, j))
        trace = (
            trace
            + drift * (dim * Fraction(n - 3, 4))
            + diag * Fraction(-(1 << (n - 1)))
        )
    else:
        raise ValueError(f"unknown square variant {variant!r}")
    return residue_prefactor(n) * trace


def compare_cases(
    reports, reference_cases: dict[tuple, Poly]
) -> list[Discrepancy]:
    """Per-case engine-vs-reference comparison; a reference table lists
    exactly the cases of the engine's table."""
    out = []
    for report in reports:
        key = report.tuple.as_tuple()
        out += compare_total(report.contribution, reference_cases[key], f"case {key}")
    return out


def compare_total(total: Poly, expected: Poly, label: str) -> list[Discrepancy]:
    if total == expected:
        return []
    return [Discrepancy(label=label, computed=total, expected=expected)]
