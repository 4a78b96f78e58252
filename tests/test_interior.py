"""Interior residue assembly: endomorphism traces, prefactors, and the
comparison against the frozen reference densities."""

from fractions import Fraction
from itertools import product

import pytest

import wres.interior
from wres.baselines import compare_total, interior_reference
from wres.clifford import CliffordOp, build_generator, drift_action
from wres.exact import (
    Poly,
    gen_pi,
    gen_riemann,
    gen_s,
    gen_v,
    gen_vs,
    gen_w,
    gen_ws,
)
from wres.interior import (
    SQUARE_VARIANTS,
    _products,
    build_endomorphism,
    curvature_term,
    drift_gradient_term,
    drift_square_term,
    interior_trace,
    interior_wres,
    residue_prefactor,
)


def quad_sum(n, mk):
    out = Poly.zero()
    for k in range(1, n + 1):
        out = out + Poly.gen(mk(k), 2)
    return out


def cross_sum(n):
    out = Poly.zero()
    for k in range(1, n + 1):
        out = out + Poly.gen(gen_v(k)) * Poly.gen(gen_vs(k))
    return out


def diag_sum(n, mk):
    out = Poly.zero()
    for j in range(1, n + 1):
        out = out + Poly.gen(mk(j, j))
    return out


@pytest.mark.parametrize("n", [4, 6])
def test_curvature_trace_vanishes(n):
    """The curvature endomorphism is traceless: every Clifford word of
    positive length is traceless, and the scalar words cancel against
    the antisymmetry of the coefficients."""
    assert curvature_term(n).trace() == Poly.zero()


def _curvature_term_four_fold(n):
    """The curvature term as the sum over all four orientations of every
    index pair, with the antisymmetry signs of R tracked: a frozen copy
    of the earlier implementation."""
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


@pytest.mark.parametrize("n", [4, 6, 8])
def test_curvature_term_matches_the_four_fold_sum(n):
    assert curvature_term(n) == _curvature_term_four_fold(n)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("variant", SQUARE_VARIANTS)
@pytest.mark.parametrize("dual", [True, False])
def test_interior_trace_matches_the_trace_of_the_endomorphism(n, variant, dual):
    """The product-by-product trace against the trace of the formed
    endomorphism, which stays the reference path."""
    scalar = Poly.gen(gen_s(), coeff=Fraction(1, 6)) * (1 << n)
    expected = scalar + build_endomorphism(n, variant, dual).trace()
    assert interior_trace(n, variant, dual) == expected


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("variant", SQUARE_VARIANTS)
@pytest.mark.parametrize("dual", [True, False])
def test_endomorphism_is_the_sum_of_its_terms(n, variant, dual):
    """The curvature term, the scalar term -s/4, the drift square, the
    drift gradient and -(outer drift)(inner drift), each built on its own.
    The traces alone cannot see the curvature term, which is traceless."""
    *_, (coeff, outer, inner) = _products(n, variant, dual)
    scalar = CliffordOp.identity(n).scale(Poly.gen(gen_s(), coeff=Fraction(-1, 4)))
    expected = (
        curvature_term(n)
        + scalar
        + drift_square_term(n, variant, dual)
        + drift_gradient_term(n, variant, dual)
        + (outer @ inner).scale(coeff)
    )
    assert build_endomorphism(n, variant, dual) == expected


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("variant", ["Dv2", "DvStar2"])
@pytest.mark.parametrize("dual", [True, False])
def test_drift_product_vanishes_for_genuine_squares(n, variant, dual):
    """Every variant ends its products with -(outer drift)(inner drift);
    for a genuine square that is the zero operator, because interior and
    exterior multiplication each square to zero."""
    *_, (coeff, outer, inner) = _products(n, variant, dual)
    assert coeff == -1
    assert (outer @ inner).is_zero


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("variant", ["Dv2", "DvStar2"])
@pytest.mark.parametrize("dual", [True, False])
def test_gradient_trace_vanishes_for_genuine_squares(n, variant, dual):
    # for the genuine squares the gradient term is a sum of commutators
    assert drift_gradient_term(n, variant, dual).trace() == Poly.zero()


@pytest.mark.parametrize("n", [4, 6])
def test_gradient_trace_mixed_dual(n):
    expected = diag_sum(n, gen_w) * Fraction(-(1 << (n - 1)))
    assert drift_gradient_term(n, "DvStarDv", dual=True).trace() == expected


@pytest.mark.parametrize("n", [4, 6])
def test_gradient_trace_mixed_independent(n):
    expected = (diag_sum(n, gen_w) + diag_sum(n, gen_ws)) * Fraction(
        -(1 << (n - 2))
    )
    assert drift_gradient_term(n, "DvStarDv", dual=False).trace() == expected


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("dual", [True, False])
def test_quadratic_trace_operator_square(n, dual):
    expected = quad_sum(n, gen_v) * Fraction(-(1 << n), 4)
    assert drift_square_term(n, "Dv2", dual).trace() == expected


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("dual", [True, False])
def test_quadratic_trace_adjoint_square(n, dual):
    mk = gen_v if dual else gen_vs
    expected = quad_sum(n, mk) * Fraction(-(1 << n), 4)
    assert drift_square_term(n, "DvStar2", dual).trace() == expected


@pytest.mark.parametrize("n", [4, 6])
def test_quadratic_trace_mixed_independent(n):
    """Mixed quadratic term with an independent dual covector.

    Expanding -(1/4) sum_i (c_i L + R c_i)**2 with L the interior and R
    the exterior action: the pure squares contract to half the fiber
    dimension times the norms, and the cross terms pair the vector with
    the covector once per frame direction.
    """
    expected = (quad_sum(n, gen_v) + quad_sum(n, gen_vs)) * Fraction(
        -(1 << (n - 3))
    ) + cross_sum(n) * Fraction(n * (1 << (n - 2)))
    assert drift_square_term(n, "DvStarDv", dual=False).trace() == expected


@pytest.mark.parametrize("n", [4, 6])
def test_quadratic_trace_mixed_dual(n):
    # dual limit of the independent form: the norms and the pairing merge
    expected = quad_sum(n, gen_v) * Fraction((n - 1) * (1 << (n - 2)))
    assert drift_square_term(n, "DvStarDv", dual=True).trace() == expected


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("dual", [True, False])
def test_interior_trace_operator_square(n, dual):
    dim = Fraction(1 << n)
    expected = Poly.gen(gen_s(), coeff=Fraction(-1, 12)) * dim + quad_sum(
        n, gen_v
    ) * (dim * Fraction(-1, 4))
    assert interior_trace(n, "Dv2", dual) == expected


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("dual", [True, False])
def test_interior_trace_adjoint_square(n, dual):
    dim = Fraction(1 << n)
    mk = gen_v if dual else gen_vs
    expected = Poly.gen(gen_s(), coeff=Fraction(-1, 12)) * dim + quad_sum(
        n, mk
    ) * (dim * Fraction(-1, 4))
    assert interior_trace(n, "DvStar2", dual) == expected


@pytest.mark.parametrize("n", range(4, 15))
def test_interior_trace_mixed_dual(n):
    dim = Fraction(1 << n)
    expected = (
        Poly.gen(gen_s(), coeff=Fraction(-1, 12)) * dim
        + quad_sum(n, gen_v) * (dim * Fraction(n - 3, 4))
        + diag_sum(n, gen_w) * Fraction(-(1 << (n - 1)))
    )
    assert interior_trace(n, "DvStarDv", dual=True) == expected


@pytest.mark.parametrize("n", range(4, 15))
def test_interior_trace_mixed_independent(n):
    """Closed form for the mixed trace with independent drift data.

    Specializing the covector to the metric dual of the vector must
    recover the dual-pairing trace, which pins the cross coefficient.

    Derivation, for every n.  Write d = 2^n, eps_a and iota_a for
    exterior and interior multiplication by the a-th frame covector and
    vector, so that c_a = eps_a - iota_a and c_a^2 = -1.  The fiber trace
    identities are tr(eps_a iota_b) = tr(iota_b eps_a) = (d/2) delta_ab
    (half the forms hold e_a, half lack it) and tr(eps_a eps_b) =
    tr(iota_a iota_b) = 0; a word of positive length is traceless.  For
    DvStarDv the inner drift is L = sum V(k) iota_k and the outer one
    R = sum VS(k) eps_k, with L^2 = R^2 = 0 and tr(LR) = tr(RL) =
    (d/2) <V, VS>.  From the anticommutators, c_i L c_i = V(i) c_i + L
    and c_i R c_i = -VS(i) c_i + R, and tr(c_i L) = (d/2) V(i),
    tr(R c_i) = -(d/2) VS(i).  Term by term (interior._products):

    - s/6 plus the scalar term -s/4 gives -d S/12; the curvature term
      has no empty word, so it is traceless;
    - the square, -1/4 sum_i tr((c_i L + R c_i)^2): its pure parts are
      tr(c_i L c_i L) = (d/2) V(i)^2 and tr(R c_i R c_i) =
      (d/2) VS(i)^2, its cross parts tr(c_i L R c_i) = tr(R c_i c_i L) =
      -(d/2) <V, VS> by cyclicity, so it is
      -d/8 (|V|^2 + |VS|^2) + n d/4 <V, VS>;
    - the gradient, 1/2 sum_j (tr(nabla_j R c_j) - tr(c_j nabla_j L)),
      with nabla_j L = sum W(j,k) iota_k and nabla_j R = sum WS(j,k)
      eps_k, is -d/4 sum (W(j,j) + WS(j,j));
    - the last product, -tr(RL), is -d/2 <V, VS>.

    The cross terms add to (n-2) d/4 <V, VS>.  Under the dual pairing,
    VS = V and WS = W, so the law becomes (n-3)/4 d |V|^2 -
    d/2 sum W(j,j) - d S/12, which test_interior_trace_mixed_dual pins.
    Times the residue prefactor, either law is the recorded reference
    (test_interior_wres_matches_reference).
    """
    dim = Fraction(1 << n)
    expected = (
        Poly.gen(gen_s(), coeff=Fraction(-1, 12)) * dim
        + (quad_sum(n, gen_v) + quad_sum(n, gen_vs))
        * Fraction(-(1 << (n - 3)))
        + cross_sum(n) * Fraction((n - 2) * (1 << (n - 2)))
        + (diag_sum(n, gen_w) + diag_sum(n, gen_ws))
        * Fraction(-(1 << (n - 2)))
    )
    assert interior_trace(n, "DvStarDv", dual=False) == expected


def test_residue_prefactor_values():
    assert residue_prefactor(4) == Poly.gen(gen_pi(), 2, 32)
    assert residue_prefactor(6) == Poly.gen(gen_pi(), 3, 128)


def test_residue_prefactor_rejects_odd_dimension():
    with pytest.raises(ValueError):
        residue_prefactor(5)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        build_endomorphism(4, "Dv3")
    with pytest.raises(ValueError):
        drift_square_term(4, "bogus")
    with pytest.raises(ValueError):
        interior_reference(4, "bogus")


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize(
    "variant, kinds", [("Dv2", 1), ("DvStar2", 1), ("DvStarDv", 2)]
)
def test_interior_trace_builds_each_drift_action_once(monkeypatch, n, variant, kinds):
    """Each drift kind the variant reads is built once whole and once
    along each direction: n + 1 actions for a genuine square, 2n + 2 for
    the mixed product."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return drift_action(*args, **kwargs)

    monkeypatch.setattr(wres.interior, "drift_action", counted)
    interior_trace(n, variant)
    assert len(calls) == kinds * (n + 1)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("variant", SQUARE_VARIANTS)
@pytest.mark.parametrize("dual", [True, False])
def test_interior_wres_matches_reference(n, variant, dual):
    """The reference is a closed form in n for every variant and
    convention, and the engine matches it."""
    reference = interior_reference(n, variant, dual)
    computed = interior_wres(n, variant, dual)
    assert computed == reference
    assert compare_total(computed, reference, "interior") == []


def test_reference_for_independent_mixed_is_the_engine_value():
    assert interior_reference(4, "DvStarDv", dual=False) == interior_wres(
        4, "DvStarDv", dual=False
    )
