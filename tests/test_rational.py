"""Tests for the one-variable rational calculus and its integrals."""

import ast
import contextlib
import hashlib
import io
import random
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wres import cli, exact
from wres.boundary import SUPPORTED_PAIRS, CaseReport, boundary_phi
from wres.clifford import (
    EMPTY_WORD,
    normal_clifford,
    tangential_clifford,
    word_product,
)
from wres.exact import (
    GR_I,
    GR_MINUS_I,
    XIN,
    GaussianRational,
    Poly,
    _add_product_into,
    _split_xin,
    _vanishes_at,
    gen_h,
    gen_omega,
    gen_pi,
    gen_xi,
    sphere_normal_form,
)
from wres.jets import inverse_symbols
from wres.rational import (
    MatrixSymbol,
    RationalXi,
    _columns,
    _divide_linear,
    _numerator,
    _taylor_shift,
    integrate_real_line,
    pi_minus,
    pi_plus,
    sphere_integrate,
)

I = GaussianRational(0, 1)


def _from_layout(coeffs):
    """The one-Poly numerator of per-power coefficients (Poly or scalar)."""
    terms = (Poly.of(c) * Poly.gen(XIN, k) for k, c in enumerate(coeffs))
    return sum(terms, Poly.zero())


def _layout(num):
    """num as the list of Poly by power of xin that the earlier layout
    stored: no trailing zero, zeros below the top kept."""
    out: list = []
    for m, c in num.terms.items():
        rest, k = _split_xin(m)
        out.extend(Poly.zero() for _ in range(k + 1 - len(out)))
        out[k] = out[k] + Poly({rest: c})
    return out


def by_power(coeffs, a=0, b=0):
    """The RationalXi whose numerator has coeffs[k] at xin**k."""
    return RationalXi(_from_layout(coeffs), a, b)


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
    return by_power(num, a, b)


def eval_rational(f, x):
    """Numeric value of f at a real point, straight from the pieces."""
    return f.num.eval_numeric({XIN: x}) / ((x - 1j) ** f.a * (x + 1j) ** f.b)


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
    f = by_power(num, 1, 1)
    assert f == RationalXi.const(1)
    assert f.a == 0 and f.b == 0
    # xi_n (xi_n - i)^2 (xi_n + i) / ((xi_n - i)^3 (xi_n + i)^2): both poles
    # cancel in part, leaving xi_n / ((xi_n - i)(xi_n + i))
    num = tuple(Poly.const(c) for c in (0, -I, 1, -I, 1))
    f = by_power(num, 3, 2)
    assert f.a == 1 and f.b == 1
    assert f.num == Poly.gen(XIN)


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


def test_rational_rejects_a_negative_pole_order():
    with pytest.raises(ValueError):
        RationalXi(Poly.const(1), -1, 0)
    with pytest.raises(ValueError):
        RationalXi.monomial(1, -1)


def test_rational_repr_lists_numerator_and_poles():
    f = by_power([1, Poly.gen(gen_h())], 2, 1)
    assert repr(f) == "[1 + 1*H*XIN] / (XIN-i)^2(XIN+i)^1"
    assert repr(RationalXi.zero()) == "0"


def test_projection_needs_proper_input():
    f = by_power((Poly.const(1), Poly.const(1)), 1, 0)
    with pytest.raises(ValueError):
        pi_plus(f)


def test_projection_golden_inverse_norm_squared():
    # pi+ of i / |xi|^2 is 1 / (2 (xi_n - i))
    f = by_power((Poly.const(I),), 1, 1)
    expected = by_power((Poly.const(Fraction(1, 2)),), 1, 0)
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
    tan_factor = by_power(
        (
            Poly.const(Fraction(-1, 2)),
            Poly.const(GaussianRational(0, Fraction(-1, 4))),
        ),
        2,
        0,
    )
    nor_factor = by_power(
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
        dxn_tan, by_power((Poly.const(I),), 1, 1)
    )
    expected = MatrixSymbol.from_clifford(
        dxn_tan, by_power((Poly.const(Fraction(1, 2)),), 1, 0)
    )
    assert sym.pi_plus() == expected


def test_line_integral_closed_forms():
    pi_poly = Poly.gen(("PI",))
    # 1 / |xi|^2 integrates to pi
    f = by_power((Poly.const(1),), 1, 1)
    assert integrate_real_line(f) == pi_poly
    # 1 / |xi|^4 integrates to pi / 2
    f = by_power((Poly.const(1),), 2, 2)
    assert integrate_real_line(f) == pi_poly * Fraction(1, 2)
    # xi_n^2 / |xi|^4 integrates to pi / 2
    f = by_power((Poly.const(0), Poly.const(0), Poly.const(1)), 2, 2)
    assert integrate_real_line(f) == pi_poly * Fraction(1, 2)
    # 1 / (xi_n - i)^2 has no residue contribution
    f = by_power((Poly.const(1),), 2, 0)
    assert integrate_real_line(f) == Poly.zero()
    # xi_n / |xi|^4: odd, integrates to zero
    f = by_power((Poly.const(0), Poly.const(1)), 2, 2)
    assert integrate_real_line(f) == Poly.zero()
    # the zero rational, which has no poles at all
    assert integrate_real_line(RationalXi.zero()) == Poly.zero()


def test_line_integral_rejects_slow_decay():
    f = by_power((Poly.const(1), Poly.const(1)), 1, 1)
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
        numeric = line_quad(lambda x: eval_rational(f, x))
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
    return by_power(coeffs, a, b)


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


# frozen copies of the earlier division and shift, for differential tests


def _divide_linear_parent(num, root):
    rem: dict = {}
    power = GaussianRational(1)
    for p in num:
        _add_product_into(rem, p, Poly.const(power))
        power = power * root
    if rem:
        return None
    quot = [num[-1]]
    for p in reversed(num[1:-1]):
        quot.append(p + quot[-1] * root)
    return quot[::-1]


def _taylor_shift_parent(num, c, size):
    out: list = []
    for p in reversed(num):
        nxt = [p] + out[: size - 1]
        for k in range(min(len(out), size)):
            nxt[k] = nxt[k] + out[k] * c
        out = nxt
    return out


_roots = st.one_of(st.sampled_from([GR_I, GR_MINUS_I]), _gaussian)


@st.composite
def numerators(draw, root):
    """A numerator with a nonzero leading coefficient, times a random
    power of (xin - root) so that exact divisibility occurs too."""
    coeffs = draw(st.lists(_gaussian, min_size=1, max_size=6))
    coeffs.append(draw(_gaussian.filter(lambda c: not c.is_zero)))
    num = _from_layout([Poly.const(c) + Poly.gen(gen_h(), coeff=c * c) for c in coeffs])
    for _ in range(draw(st.integers(0, 2))):
        num = num * (Poly.gen(XIN) - root)
    return num


@given(st.data(), _roots)
def test_divide_linear_matches_the_earlier_division(data, root):
    num = data.draw(numerators(root))
    divided = {m: _divide_linear(col, root) for m, col in _columns(num).items()}
    quot = _numerator({m: q for m, (q, _) in divided.items()})
    rem = _numerator({m: [r] for m, (_, r) in divided.items()})
    parent = _divide_linear_parent(_layout(num), root)
    assert rem.is_zero == (parent is not None)
    if parent is not None:
        assert quot == _from_layout(parent)
    assert quot * (Poly.gen(XIN) - root) + rem == num


@given(st.data(), _roots, st.integers(1, 8))
def test_taylor_shift_matches_the_earlier_horner_loop(data, c, size):
    num = data.draw(numerators(c))
    shifted = {m: _taylor_shift(col, c, size) for m, col in _columns(num).items()}
    parent = _taylor_shift_parent(_layout(num), c, size)
    assert _numerator(shifted) == _from_layout(parent)


@given(st.data(), st.sampled_from([GR_I, GR_MINUS_I]), _roots)
def test_vanishing_at_a_pole_is_a_zero_division_remainder(data, root, factor):
    """Evaluating a numerator at +-i by quarter turns agrees with the
    remainder of the synthetic division, also on numerators built as
    N (xin - factor)**k, so with factor = root they vanish there."""
    num = data.draw(numerators(factor))
    remainders = [_divide_linear(col, root)[1] for col in _columns(num).values()]
    assert _vanishes_at(num, root) == all(r.is_zero for r in remainders)


def _residue_by_projection(f):
    """The earlier route: 2 pi i times the xin**(a-1) coefficient of the
    canonical numerator of pi_plus(f), over (xin - i)**a."""
    plus = pi_plus(f)
    if plus.is_zero or plus.degree < plus.a - 1:
        return Poly.zero()
    return Poly.gen(gen_pi()) * _layout(plus.num)[plus.a - 1] * GaussianRational(0, 2)


@st.composite
def decaying(draw):
    """A proper rational with quadratic decay, its numerator coefficients
    a constant plus a multiple of H."""
    a = draw(st.integers(0, 4))
    b = draw(st.integers(0, 3))
    size = max(a + b - 1, 0)
    coeffs = draw(st.lists(st.tuples(_gaussian, _gaussian), max_size=size))
    num = [Poly.const(c) + Poly.gen(gen_h(), coeff=h) for c, h in coeffs]
    return by_power(num, a, b)


# no pole at +i, so a zero principal part
@example(RationalXi(Poly.const(1), 0, 2))
# principal part 1/(xin - i)**2, whose xin**(a-1) coefficient is zero: the
# canonical numerator is shorter than the pole order
@example(by_power([GR_I, 1], 2, 1))
@given(decaying())
def test_residue_is_the_principal_part_coefficient(f):
    assert integrate_real_line(f) == _residue_by_projection(f)


def _to_sympy(sp, f, x):
    """f as a sympy expression in x, which stands for the generator XIN."""
    symbols = {XIN: x}
    num = 0
    for m, c in f.num.terms.items():
        re, im = Fraction(c.re), Fraction(c.im)
        value = sp.Rational(re.numerator, re.denominator) + sp.I * sp.Rational(
            im.numerator, im.denominator
        )
        num += value * sp.Mul(*(symbols[g] ** e for g, e in m))
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
        inv = inverse_symbols(n, variant)
        symbols += [inv.top, inv.top_dxn, inv.low]
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
        r = by_power(num, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
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
    reduced = sphere_normal_form(total.num, a.n)
    return RationalXi(reduced, total.a, total.b).scale(1 << a.n)


@given(matrix_symbols(), matrix_symbols())
def test_trace_product_matches_the_formed_product_on_random_symbols(a, b):
    assert a.trace_product(b) == _product_trace(a, b) == _paired_trace(a, b)
    assert a.trace_product(a) == _product_trace(a, a)


@cache
def _inverse_parts(n, dual):
    parts = []
    for variant in ("Dv", "DvStar", "D3"):
        inv = inverse_symbols(n, variant, dual)
        parts += [inv.top, inv.top_dxn, inv.low]
    return parts


@cache
def _full_product(n, dual, i, j):
    parts = _inverse_parts(n, dual)
    return parts[i] @ parts[j]


@st.composite
def restricted_products(draw):
    """Two inverse-symbol parts, their full product and a set of words:
    some the product holds, some it lacks, possibly none."""
    n = draw(st.sampled_from([4, 6]))
    dual = draw(st.booleans())
    i, j = draw(st.tuples(st.integers(0, 8), st.integers(0, 8)))
    full = _full_product(n, dual, i, j)
    any_word = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    held = st.sampled_from(sorted(full.words)) if full.words else any_word
    words = draw(st.frozensets(st.one_of(held, any_word), max_size=8))
    parts = _inverse_parts(n, dual)
    return parts[i], parts[j], full, words


@settings(deadline=None, max_examples=40)
@given(restricted_products())
def test_restricted_product_is_the_full_product_on_its_words(case):
    a, b, full, words = case
    want = {w: c for w, c in full.words.items() if w in words}
    assert a.product(b, words) == MatrixSymbol(a.n, want)
    assert a.product(b, frozenset()) == MatrixSymbol.zero(a.n)


# ---------------------------------------------------------------------------
# the cosphere invariant of MatrixSymbol


@pytest.mark.parametrize("n", [4, 6])
def test_matrix_symbol_results_stay_in_sphere_normal_form(n):
    symbols = []
    for variant in ("Dv", "D3"):
        inv = inverse_symbols(n, variant)
        symbols += [inv.top, inv.top_dxn, inv.low]
    results = []
    for s in symbols:
        results += [-s, s.d_xi_n(), s.pi_plus(), s - s.pi_plus()]
    for s, t in zip(symbols, symbols[1:] + symbols[:1]):
        product = s @ t
        plus = product.pi_plus()
        results += [product, plus, product - plus, s + t, s - t]
    for result in symbols + results:
        for r in result.words.values():
            assert sphere_normal_form(r.num, n) == r.num


# ---------------------------------------------------------------------------
# the earlier layout, a numerator as a list of Poly by power of xin, with its
# arithmetic frozen as the reference for the one-Poly numerator


def _pp_strip(num):
    while num and num[-1].is_zero:
        num.pop()
    return num


def _pp_divide_linear(num, root):
    partial = [Poly.zero()]
    for p in reversed(num):
        partial.append(p + partial[-1] * root)
    return partial[-2:0:-1], partial[-1]


def _pp_convolve_into(out, f, g):
    out.extend({} for _ in range(len(f) + len(g) - 1 - len(out)))
    for i, p in enumerate(f):
        for j, q in enumerate(g):
            _add_product_into(out[i + j], p, q)


def _pp_mul_coeffs(f, g):
    out: list = []
    if f and g:
        _pp_convolve_into(out, f, g)
    return [Poly._own(terms) for terms in out]


def _pp_add_coeffs(f, g):
    if len(f) < len(g):
        f, g = g, f
    return [p + q for p, q in zip(f, g)] + list(f[len(g):])


def _pp_lift(num, da, db):
    if not (da or db):
        return list(num)
    factor = [Poly.const(1)]
    for root in (GR_I,) * da + (GR_MINUS_I,) * db:
        factor = _pp_mul_coeffs(factor, [Poly.const(-root), Poly.const(1)])
    return _pp_mul_coeffs(num, factor)


def _pp_taylor_shift(num, c, size):
    out: list = []
    quot = num
    while quot and len(out) < size:
        quot, rem = _pp_divide_linear(quot, c)
        out.append(rem)
    return out


class PerPower:
    """N(xin) / ((xin - i)**a (xin + i)**b) with N a list of Poly by power."""

    def __init__(self, num, a=0, b=0):
        coeffs = _pp_strip([Poly.of(p) for p in num])
        orders = [a, b] if coeffs else [0, 0]
        for k, root in enumerate((GR_I, GR_MINUS_I)):
            while orders[k]:
                quot, rem = _pp_divide_linear(coeffs, root)
                if not rem.is_zero:
                    break
                coeffs = quot
                orders[k] -= 1
        self.num = tuple(coeffs)
        self.a, self.b = orders

    @property
    def degree(self):
        return len(self.num) - 1

    def __add__(self, other):
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        left = _pp_lift(self.num, a - self.a, b - self.b)
        right = _pp_lift(other.num, a - other.a, b - other.b)
        return PerPower(_pp_add_coeffs(left, right), a, b)

    def __neg__(self):
        return PerPower([-p for p in self.num], self.a, self.b)

    def __mul__(self, other):
        num = _pp_mul_coeffs(self.num, other.num)
        return PerPower(num, self.a + other.a, self.b + other.b)

    def scale(self, factor):
        return PerPower([p * factor for p in self.num], self.a, self.b)

    def d_xi_n(self):
        dnum = [p * k for k, p in enumerate(self.num) if k]
        if self.a == 0 and self.b == 0:
            return PerPower(dnum)
        shift = [
            Poly.const(GaussianRational(0, self.b - self.a)),
            Poly.const(-(self.a + self.b)),
        ]
        return PerPower(
            _pp_add_coeffs(_pp_lift(dnum, 1, 1), _pp_mul_coeffs(self.num, shift)),
            self.a + 1,
            self.b + 1,
        )


def _pp_pole_series(b, size):
    series = []
    c = GaussianRational(0, 2) ** -b
    for j in range(size):
        series.append(c)
        c = c * (GaussianRational(0, Fraction(1, 2)) * Fraction(b + j, j + 1))
    return series


def _pp_pi_plus(f):
    a, b = f.a, f.b
    if a == 0:
        return PerPower([])
    series = [Poly.const(c) for c in _pp_pole_series(b, a)]
    taylor = _pp_mul_coeffs(_pp_taylor_shift(f.num, GR_I, a), series)[:a]
    return PerPower(_pp_taylor_shift(taylor, GR_MINUS_I, a), a, 0)


def _pp_integrate_real_line(f):
    if not f.num:
        return Poly.zero()
    residue: dict = {}
    shifted = _pp_taylor_shift(f.num, GR_I, f.a)
    for p, c in zip(shifted, reversed(_pp_pole_series(f.b, f.a))):
        _add_product_into(residue, p, Poly.const(c * GaussianRational(0, 2)))
    return Poly.gen(gen_pi()) * Poly._own(residue)


def _pp_product_cells(pairs, n):
    sums: dict = {}
    for sign, w, left, right in pairs:
        cell = sums.setdefault(w, {})
        acc = cell.setdefault((left.a + right.a, left.b + right.b), [])
        lnum = left.num if sign > 0 else [-p for p in left.num]
        _pp_convolve_into(acc, lnum, right.num)
    out: dict = {}
    for w, cell in sums.items():
        top_a = max(a for a, _ in cell)
        top_b = max(b for _, b in cell)
        total: list = []
        for (a, b), acc in cell.items():
            lifted = _pp_lift([Poly._own(t) for t in acc], top_a - a, top_b - b)
            total = _pp_add_coeffs(total, lifted)
        s = PerPower([sphere_normal_form(p, n) for p in total], top_a, top_b)
        if s.num:
            out[w] = s
    return out


def _per_power(r):
    return PerPower(_layout(r.num), r.a, r.b)


def _assert_same(r, pp):
    """r, in the one-Poly layout, is pp, in the per-power layout."""
    assert (r.a, r.b) == (pp.a, pp.b)
    assert r.num == _from_layout(pp.num)
    assert all(not c.is_zero for c in r.num.terms.values())


@st.composite
def per_power_rationals(draw, proper=True):
    """A rational in both layouts; its numerator, over constants and H, is
    multiplied by powers of (xin - i) and (xin + i) that raise the pole
    orders alike, so canonical reduction has factors to divide out."""
    a = draw(st.integers(0, 3))
    b = draw(st.integers(0, 3))
    size = a + b if proper else a + b + 2
    pairs = draw(st.lists(st.tuples(_gaussian, _gaussian), max_size=size))
    coeffs = [Poly.const(c) + Poly.gen(gen_h(), coeff=h) for c, h in pairs]
    da, db = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    coeffs = _pp_lift(coeffs, da, db) if coeffs else []
    return by_power(coeffs, a + da, b + db), PerPower(coeffs, a + da, b + db)


@settings(max_examples=150)
@given(per_power_rationals(proper=False), per_power_rationals(proper=False))
def test_arithmetic_matches_the_per_power_layout(left, right):
    (f, f_pp), (g, g_pp) = left, right
    _assert_same(f, f_pp)
    _assert_same(g, g_pp)
    _assert_same(f + g, f_pp + g_pp)
    _assert_same(-f, -f_pp)
    _assert_same(f * g, f_pp * g_pp)
    factor = Poly.gen(gen_h(), coeff=GaussianRational(1, -2)) + 3
    _assert_same(f.scale(factor), f_pp.scale(factor))
    _assert_same(f.d_xi_n(), f_pp.d_xi_n())


@settings(max_examples=150)
@given(per_power_rationals())
def test_projections_and_line_integral_match_the_per_power_layout(pair):
    f, f_pp = pair
    plus = _pp_pi_plus(f_pp)
    _assert_same(pi_plus(f), plus)
    _assert_same(pi_minus(f), f_pp + -plus)
    if f.is_zero or f.degree <= f.a + f.b - 2:
        assert integrate_real_line(f) == _pp_integrate_real_line(f_pp)
    else:
        with pytest.raises(ValueError):
            integrate_real_line(f)


@settings(max_examples=60)
@given(matrix_symbols(), matrix_symbols(), st.frozensets(st.sampled_from(_SMALL_WORDS)))
def test_products_match_the_per_power_layout(a, b, words):
    pairs = [
        (*word_product(u, v), _per_power(left), _per_power(right))
        for u, left in a.words.items()
        for v, right in b.words.items()
    ]
    want = _pp_product_cells(pairs, a.n)
    got = a.product(b)
    assert got.words.keys() == want.keys()
    for w, r in got.words.items():
        _assert_same(r, want[w])
    assert a.product(b, words).words.keys() == want.keys() & words
    trace = want.get(EMPTY_WORD, PerPower([])).scale(Poly.const(1 << a.n))
    _assert_same(a.trace_product(b), trace)


_CASE_REPORTS_MD5 = "c93fcd4aef9810b996cb07619d9ff0d0"


def test_case_reports_match_the_per_power_layout():
    """Every case of every supported pair, in both conventions, evaluated
    again on the per-power layout from the same inverse symbols, and the
    reports' text against its md5 taken before the layout changed."""
    text = ""
    for n, left_op, right_op in sorted(SUPPORTED_PAIRS):
        vectors = frozenset((1 << j, 0) for j in range(n))
        for dual in (True, False):
            left = inverse_symbols(n, left_op, dual, vectors)
            right = inverse_symbols(n, right_op, dual, vectors)
            result = boundary_phi(n, left_op, right_op, dual)
            text += repr(result)
            for report in result[1]:
                case = report.tuple
                if case.alpha:
                    continue
                lf = {
                    w: _pp_pi_plus(_per_power(r))
                    for w, r in left.read(case.r, case.j).words.items()
                }
                rf = {
                    w: _per_power(r)
                    for w, r in right.read(case.l, case.k).words.items()
                }
                for _ in range(case.k):
                    lf = {w: r.d_xi_n() for w, r in lf.items()}
                for _ in range(case.j + 1):
                    rf = {w: r.d_xi_n() for w, r in rf.items()}
                pairs = [
                    (*word_product(w, w), r, rf[w]) for w, r in lf.items() if w in rf
                ]
                cells = _pp_product_cells(pairs, n)
                trace = cells.get(EMPTY_WORD, PerPower([])).scale(Poly.const(1 << n))
                line = _pp_integrate_real_line(trace) * report.coefficient
                assert report == CaseReport(
                    case, report.coefficient, line, sphere_integrate(line, n)
                )
    assert hashlib.md5(text.encode()).hexdigest() == _CASE_REPORTS_MD5


# ---------------------------------------------------------------------------
# the numerator format: XIN is the last factor, and it stays inside RationalXi


def test_every_generator_tag_sorts_before_the_normal_covariable():
    """The column view reads XIN as a monomial's last factor, which holds
    while every other tag exact.py builds sorts before "XIN"."""
    tree = ast.parse(Path(exact.__file__).read_text(encoding="utf-8"))
    tags = {
        node.elts[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[0].value, str)
        and node.elts[0].value.isupper()
    }
    assert {"H", "XI", "V", "VS", "W", "WS", "R", "S", "PI", "OMEGA", "XIN"} <= tags
    assert all(tag < "XIN" for tag in tags - {"XIN"})
    monomial = Poly.gen(XIN, 2) * Poly.gen(gen_xi(5), 3) * Poly.gen(("WS", 9, 9))
    (m,) = monomial.terms
    assert m[-1] == (XIN, 2)


@pytest.mark.parametrize("dual", [True, False])
@pytest.mark.parametrize("n, left, right", sorted(SUPPORTED_PAIRS))
def test_no_case_value_or_report_carries_the_normal_covariable(n, left, right, dual):
    _, reports = boundary_phi(n, left, right, dual)
    for report in reports:
        for poly in (report.trace_integral, report.contribution):
            assert all(g != XIN for m in poly.terms for g, _ in m)
    argv = ["boundary", "--dim", str(n), "--left", left, "--right", right]
    for emit in ("json", "latex", "text"):
        out = io.StringIO()
        flag = [] if dual else ["--independent-dual"]
        with contextlib.redirect_stdout(out):
            cli.main(argv + ["--emit", emit] + flag)
        assert "XIN" not in out.getvalue()


@pytest.mark.parametrize("n", [4, 6])
def test_no_numerator_stores_a_zero_coefficient(n):
    for variant in ("Dv", "DvStar", "D3"):
        inv = inverse_symbols(n, variant)
        parts = [inv.top, inv.top_dxn, inv.low]
        parts += [p.pi_plus() for p in parts] + [p.d_xi_n() for p in parts]
        parts += [p @ q for p in parts[:3] for q in parts[:3]]
        for part in parts:
            for r in part.words.values():
                assert r.num.terms
                assert all(not c.is_zero for c in r.num.terms.values())
