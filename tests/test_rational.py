"""Tests for the one-variable rational calculus and its integrals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wres.clifford import (
    EMPTY_WORD,
    normal_clifford,
    tangential_clifford,
    word_product,
)
from wres.exact import (
    GaussianRational,
    Poly,
    gen_h,
    gen_omega,
    gen_xi,
    sphere_normal_form,
)
from wres.jets import inverse_symbols
from wres.rational import (
    MatrixSymbol,
    RationalXi,
    integrate_real_line,
    pi_minus,
    pi_plus,
    sphere_integrate,
)

I = GaussianRational(0, 1)


def random_rational(rng, max_pole=3):
    a = rng.randint(0, max_pole)
    b = rng.randint(0, max_pole)
    if a + b == 0:
        a = 1
    deg = rng.randint(0, a + b - 1)
    num = tuple(
        Poly.const(
            GaussianRational(
                Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
            )
        )
        for _ in range(deg + 1)
    )
    return RationalXi(num, a, b)


def eval_rational(f, x):
    """Numeric value of f at a real point, straight from the pieces."""
    num = 0j
    for power, coeff in enumerate(f.num):
        num += coeff.eval_numeric({}) * x**power
    return num / ((x - 1j) ** f.a * (x + 1j) ** f.b)


def test_rational_arithmetic_matches_numeric_evaluation():
    rng = random.Random(31)
    points = [-2.0, -0.7, 0.3, 1.9]
    for _ in range(60):
        f = random_rational(rng)
        g = random_rational(rng)
        s = f + g
        p = f * g
        for x in points:
            fv, gv = eval_rational(f, x), eval_rational(g, x)
            assert abs(eval_rational(s, x) - (fv + gv)) < 1e-8
            assert abs(eval_rational(p, x) - fv * gv) < 1e-8


def test_rational_cancellation_reduces_pole_order():
    # (xi_n - i)(xi_n + i) / |xi|^2 must collapse to the constant 1
    num = (Poly.const(1), Poly.const(0), Poly.const(1))
    f = RationalXi(num, 1, 1)
    assert f == RationalXi.const(1)
    assert f.a == 0 and f.b == 0
    # xi_n (xi_n - i)^2 (xi_n + i) / ((xi_n - i)^3 (xi_n + i)^2): both poles
    # cancel in part, leaving xi_n / ((xi_n - i)(xi_n + i))
    num = tuple(Poly.const(c) for c in (0, -I, 1, -I, 1))
    f = RationalXi(num, 3, 2)
    assert f.a == 1 and f.b == 1
    assert f.num == (Poly.zero(), Poly.const(1))


def test_derivative_matches_finite_differences():
    rng = random.Random(47)
    for _ in range(30):
        f = random_rational(rng)
        df = f.d_xi_n()
        for x in (-1.3, 0.4, 2.2):
            h = 1e-6
            numeric = (eval_rational(f, x + h) - eval_rational(f, x - h)) / (
                2 * h
            )
            assert abs(eval_rational(df, x) - numeric) < 1e-5


def test_projection_idempotent_and_complementary():
    rng = random.Random(53)
    for _ in range(100):
        f = random_rational(rng)
        if f.degree >= f.a + f.b:
            continue
        plus = pi_plus(f)
        minus = pi_minus(f)
        assert pi_plus(plus) == plus
        assert pi_minus(minus) == minus
        assert plus + minus == f
        assert pi_plus(minus) == RationalXi.zero()


def test_projection_needs_proper_input():
    f = RationalXi((Poly.const(1), Poly.const(1)), 1, 0)
    with pytest.raises(ValueError):
        pi_plus(f)


def test_projection_golden_inverse_norm_squared():
    # pi+ of i / |xi|^2 is 1 / (2 (xi_n - i))
    f = RationalXi((Poly.const(I),), 1, 1)
    expected = RationalXi((Poly.const(Fraction(1, 2)),), 1, 0)
    assert pi_plus(f) == expected


def test_projection_golden_full_symbol():
    # pi+ of c(xi) / |xi|^4 from the worked half-space projection:
    # -[(i xi_n + 2) c(xi') + i c(dx_n)] / (4 (xi_n - i)^2)
    n = 4
    c_tan = MatrixSymbol.from_clifford(
        tangential_clifford(n), RationalXi.inverse_norm_power(2)
    )
    c_nor = MatrixSymbol.from_clifford(
        normal_clifford(n),
        RationalXi.monomial(1, 1) * RationalXi.inverse_norm_power(2),
    )
    got = (c_tan + c_nor).pi_plus()
    tan_factor = RationalXi(
        (
            Poly.const(Fraction(-1, 2)),
            Poly.const(GaussianRational(0, Fraction(-1, 4))),
        ),
        2,
        0,
    )
    nor_factor = RationalXi(
        (Poly.const(GaussianRational(0, Fraction(-1, 4))),), 2, 0
    )
    expected = MatrixSymbol.from_clifford(
        tangential_clifford(n), tan_factor
    ) + MatrixSymbol.from_clifford(normal_clifford(n), nor_factor)
    assert got == expected


def test_projection_golden_warped_derivative():
    # pi+ of i dxn(c(xi')) / |xi|^2 equals dxn(c(xi')) / (2 (xi_n - i))
    n = 4
    half_h = Poly.gen(gen_h(), coeff=Fraction(1, 2))
    dxn_tan = tangential_clifford(n).scale(half_h)
    sym = MatrixSymbol.from_clifford(
        dxn_tan, RationalXi((Poly.const(I),), 1, 1)
    )
    expected = MatrixSymbol.from_clifford(
        dxn_tan, RationalXi((Poly.const(Fraction(1, 2)),), 1, 0)
    )
    assert sym.pi_plus() == expected


def test_line_integral_closed_forms():
    pi_poly = Poly.gen(("PI",))
    # 1 / |xi|^2 integrates to pi
    f = RationalXi((Poly.const(1),), 1, 1)
    assert integrate_real_line(f) == pi_poly
    # 1 / |xi|^4 integrates to pi / 2
    f = RationalXi((Poly.const(1),), 2, 2)
    assert integrate_real_line(f) == pi_poly * Fraction(1, 2)
    # xi_n^2 / |xi|^4 integrates to pi / 2
    f = RationalXi((Poly.const(0), Poly.const(0), Poly.const(1)), 2, 2)
    assert integrate_real_line(f) == pi_poly * Fraction(1, 2)
    # 1 / (xi_n - i)^2 has no residue contribution
    f = RationalXi((Poly.const(1),), 2, 0)
    assert integrate_real_line(f) == Poly.zero()
    # xi_n / |xi|^4: odd, integrates to zero
    f = RationalXi((Poly.const(0), Poly.const(1)), 2, 2)
    assert integrate_real_line(f) == Poly.zero()


def test_line_integral_rejects_slow_decay():
    f = RationalXi((Poly.const(1), Poly.const(1)), 1, 1)
    with pytest.raises(ValueError):
        integrate_real_line(f)


def test_line_integral_matches_quadrature():
    from wres.numcheck import line_quad

    rng = random.Random(59)
    for _ in range(12):
        f = random_rational(rng)
        if f.degree > f.a + f.b - 2:
            continue
        exact = integrate_real_line(f).eval_numeric({("PI",): 3.141592653589793})
        numeric = line_quad(lambda x: eval_rational(f, x), 40.0)
        assert abs(exact - numeric) < 1e-8 * max(1.0, abs(exact))


def test_sphere_moments_dimension_four():
    omega = Poly.gen(gen_omega())
    n = 4
    x1, x2 = Poly.gen(gen_xi(1)), Poly.gen(gen_xi(2))
    assert sphere_integrate(Poly.const(1), n) == omega
    assert sphere_integrate(x1, n) == Poly.zero()
    assert sphere_integrate(x1 * x2, n) == Poly.zero()
    assert sphere_integrate(x1 * x1, n) == omega * Fraction(1, 3)
    assert sphere_integrate(x1 * x1 * x1 * x1, n) == omega * Fraction(1, 5)
    assert sphere_integrate(x1 * x1 * x2 * x2, n) == omega * Fraction(1, 15)


def test_sphere_moments_dimension_six():
    omega = Poly.gen(gen_omega())
    n = 6
    x1, x2 = Poly.gen(gen_xi(1)), Poly.gen(gen_xi(2))
    assert sphere_integrate(x1 * x1, n) == omega * Fraction(1, 5)
    assert sphere_integrate(x1 * x1 * x1 * x1, n) == omega * Fraction(3, 35)
    assert sphere_integrate(x1 * x1 * x2 * x2, n) == omega * Fraction(1, 35)


def test_sphere_moments_match_monte_carlo():
    from wres.numcheck import omega_area, sphere_moment_mc

    n = 4
    d = n - 1
    area = omega_area(d)
    exact = sphere_integrate(
        Poly.gen(gen_xi(1), exp=2), n
    ).eval_numeric({gen_omega(): area})
    estimate = sphere_moment_mc(d, (2,), samples=200_000, seed=5)
    assert abs(estimate - exact) < 0.01 * abs(exact)


def test_matrix_symbol_inverse_norm_round_trip():
    # c(xi) * c(xi) = -|xi|^2 on the cosphere, so scaling the square by
    # the inverse norm gives minus the identity
    n = 4
    c_full = MatrixSymbol.from_clifford(
        tangential_clifford(n)
    ) + MatrixSymbol.from_clifford(normal_clifford(n), RationalXi.monomial(1, 1))
    square = c_full @ c_full
    scaled = square.scale(RationalXi.inverse_norm_power(1))
    assert scaled == MatrixSymbol.identity(n, RationalXi.const(-1))


def test_matrix_symbol_trace_reduces_on_sphere():
    n = 4
    c_tan = MatrixSymbol.from_clifford(tangential_clifford(n))
    assert c_tan.trace_product(c_tan) == RationalXi.const(-(1 << n))


# ---------------------------------------------------------------------------
# properties on random rationals with Gaussian-rational coefficients

_gaussian = st.builds(
    GaussianRational,
    st.fractions(-5, 5, max_denominator=4),
    st.fractions(-5, 5, max_denominator=4),
)


@st.composite
def rationals(draw, proper=False):
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 3))
    size = a + b if proper else a + b + 2
    coeffs = draw(st.lists(_gaussian, max_size=size))
    return RationalXi([Poly.const(c) for c in coeffs], a, b)


@given(rationals(), rationals(), rationals())
def test_rational_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f - f == RationalXi.zero()
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f * RationalXi.const(1) == f


@given(rationals(), rationals())
def test_derivative_leibniz_rule(f, g):
    assert (f * g).d_xi_n() == f.d_xi_n() * g + f * g.d_xi_n()


@given(rationals(proper=True))
def test_projection_properties(f):
    plus = pi_plus(f)
    minus = pi_minus(f)
    assert plus.b == 0
    assert minus.a == 0
    assert pi_plus(plus) == plus
    assert plus + minus == f


def _to_sympy(sp, f, x):
    def scalar(p):
        c = p.constant_part()
        re, im = Fraction(c.re), Fraction(c.im)
        return sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
            im.numerator, im.denominator
        )

    num = sum(scalar(p) * x**k for k, p in enumerate(f.num))
    return num / ((x - sp.I) ** f.a * (x + sp.I) ** f.b)


def test_projections_and_residue_match_sympy():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")
    rng = random.Random(61)
    for _ in range(10):
        f = random_rational(rng)
        expr = _to_sympy(sp, f, x)
        # every partial-fraction term has its pole at exactly one of +-i
        parts = {sp.I: 0, -sp.I: 0}
        split = sp.expand_mul(sp.apart(expr, x, full=True).doit())
        for term in sp.Add.make_args(split):
            den = sp.denom(sp.together(term))
            (pole,) = [p for p in parts if den.subs(x, p) == 0]
            parts[pole] += term
        assert sp.cancel(_to_sympy(sp, pi_plus(f), x) - parts[sp.I]) == 0
        assert sp.cancel(_to_sympy(sp, pi_minus(f), x) - parts[-sp.I]) == 0
        if f.degree <= f.a + f.b - 2:
            res = sp.residue(expr, x, sp.I)
            re, im = (
                Fraction(int(sp.numer(v)), int(sp.denom(v)))
                for v in (sp.re(res), sp.im(res))
            )
            two_pi_i = Poly.gen(("PI",), coeff=GaussianRational(0, 2))
            assert integrate_real_line(f) == two_pi_i * GaussianRational(re, im)


# ---------------------------------------------------------------------------
# the trace of a product, without the product


def _product_trace(a, b):
    """Fiber trace of the formed product: 2**n times its empty word."""
    return (a @ b).words.get(EMPTY_WORD, RationalXi.zero()).scale(1 << a.n)


@pytest.mark.parametrize("n", [4, 6])
def test_trace_product_matches_the_formed_product_on_inverse_jets(n):
    symbols = []
    for variant in ("Dv", "DvStar", "D3"):
        for jet in inverse_symbols(n, variant).values():
            symbols += [jet.value] + ([jet.dxn] if jet.dxn is not None else [])
    nonzero = 0
    for a in symbols:
        for b in symbols:
            got = a.trace_product(b)
            assert got == _product_trace(a, b)
            nonzero += not got.is_zero
    assert nonzero > len(symbols)


@st.composite
def matrix_symbols(draw, n=3):
    """Random word maps over cosphere-normal rationals in XI(1), XI(2)."""
    words = {}
    for w in draw(st.lists(st.sampled_from(_SMALL_WORDS), max_size=6)):
        coeffs = draw(st.lists(_gaussian, min_size=1, max_size=3))
        # XI(2) is the last component at n = 3, so products reduce
        monomials = [Poly.const(1), Poly.gen(gen_xi(1)), Poly.gen(gen_xi(2))]
        num = [Poly.const(c) * monomials[k] for k, c in enumerate(coeffs)]
        r = RationalXi(num, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        if not r.is_zero:
            words[w] = r
    return MatrixSymbol(n, words)


_SMALL_WORDS = [(s, t) for s in range(4) for t in range(4)] + [(7, 7), (5, 2)]


def _paired_trace(a, b):
    """2**n sum over shared words w of sign(w, w) a_w b_w, summed with
    RationalXi arithmetic and reduced on the cosphere at the end."""
    total = RationalXi.zero()
    for w, left in a.words.items():
        if w in b.words:
            sign, empty = word_product(w, w)
            assert empty == EMPTY_WORD
            total = total + left * b.words[w] * RationalXi.const(sign)
    reduced = [sphere_normal_form(p, a.n) for p in total.num]
    return RationalXi(reduced, total.a, total.b).scale(1 << a.n)


@given(matrix_symbols(), matrix_symbols())
def test_trace_product_matches_the_formed_product_on_random_symbols(a, b):
    assert a.trace_product(b) == _product_trace(a, b) == _paired_trace(a, b)
    assert a.trace_product(a) == _product_trace(a, a)


# ---------------------------------------------------------------------------
# the cosphere invariant of MatrixSymbol


@pytest.mark.parametrize("n", [4, 6])
def test_matrix_symbol_results_stay_in_sphere_normal_form(n):
    symbols = []
    for variant in ("Dv", "D3"):
        for jet in inverse_symbols(n, variant).values():
            symbols += [jet.value] + ([jet.dxn] if jet.dxn is not None else [])
    results = []
    for s in symbols:
        results += [-s, s.d_xi_n(), s.pi_plus(), s.pi_minus()]
    for s, t in zip(symbols, symbols[1:] + symbols[:1]):
        product = s @ t
        results += [product, product.pi_plus(), product.pi_minus(), s + t, s - t]
    for result in symbols + results:
        for r in result.words.values():
            for p in r.num:
                assert sphere_normal_form(p, n) == p
