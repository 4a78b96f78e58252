"""Tests for the exact scalar and polynomial layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wres.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    format_generator,
    format_monomial,
    gen_h,
    gen_omega,
    gen_pi,
    gen_riemann,
    gen_s,
    gen_v,
    gen_vs,
    gen_w,
    gen_xi,
    parse_monomial,
    sphere_normal_form,
)


def random_scalar(rng):
    return GaussianRational(
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
        Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
    )


def random_poly(rng, gens, max_terms=4):
    p = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        g = rng.choice(gens)
        p = p + Poly.gen(g, exp=rng.randint(1, 2)) * random_scalar(rng)
    return p


def test_scalar_field_axioms():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + GR_ZERO == a
        assert a * GR_ONE == a


def test_scalar_i_squares_to_minus_one():
    assert GR_I * GR_I == GaussianRational(-1)
    assert GR_I.to_complex() == 1j


def test_scalar_powers():
    minus_i = GaussianRational(0, -1)
    assert minus_i**2 == GaussianRational(-1)
    assert minus_i**3 == GR_I
    assert minus_i**4 == GR_ONE


# -- GaussianRational against a (Fraction, Fraction) reference ------------

# each part is often zero, so zero, purely real, purely imaginary and
# general operands all occur; integral parts come in as int and Fraction
_parts = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(-9, 9, max_denominator=8),
)
_props = settings(max_examples=200, deadline=None, database=None)


def _pair(z):
    return (Fraction(z.re), Fraction(z.im))


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def _assert_canonical(z):
    # a part is an int exactly when it is integral, a Fraction otherwise;
    # never a float
    for part in (z.re, z.im):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (Fraction(part).denominator == 1)


def _assert_matches(z, ref):
    assert isinstance(z, GaussianRational)
    _assert_canonical(z)
    assert _pair(z) == ref


@_props
@given(_parts, _parts, _parts, _parts)
def test_scalar_arithmetic_matches_pair_reference(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    rx, ry = (Fraction(a), Fraction(b)), (Fraction(c), Fraction(d))
    _assert_canonical(x)
    _assert_matches(x + y, (rx[0] + ry[0], rx[1] + ry[1]))
    _assert_matches(x - y, (rx[0] - ry[0], rx[1] - ry[1]))
    _assert_matches(-x, (-rx[0], -rx[1]))
    _assert_matches(x * y, _ref_mul(rx, ry))
    if ry == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _assert_matches(x / y, _ref_div(rx, ry))


@_props
@given(_parts, _parts, _parts)
def test_scalar_mixed_operands_match_pair_reference(a, b, s):
    x = GaussianRational(a, b)
    rx, rs = (Fraction(a), Fraction(b)), (Fraction(s), Fraction(0))
    _assert_matches(x + s, (rx[0] + rs[0], rx[1]))
    _assert_matches(s + x, (rx[0] + rs[0], rx[1]))
    _assert_matches(x - s, (rx[0] - rs[0], rx[1]))
    _assert_matches(s - x, (rs[0] - rx[0], -rx[1]))
    _assert_matches(x * s, _ref_mul(rx, rs))
    _assert_matches(s * x, _ref_mul(rx, rs))
    if s:
        _assert_matches(x / s, _ref_div(rx, rs))
    if rx != (0, 0):
        _assert_matches(s / x, _ref_div(rs, rx))


@_props
@given(_parts, _parts, st.integers(-4, 6))
def test_scalar_powers_match_pair_reference(a, b, k):
    x = GaussianRational(a, b)
    rx = (Fraction(a), Fraction(b))
    if k < 0 and rx == (0, 0):
        with pytest.raises(ZeroDivisionError):
            x**k
        return
    ref = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        ref = _ref_mul(ref, rx)
    if k < 0:
        ref = _ref_div((Fraction(1), Fraction(0)), ref)
    _assert_matches(x**k, ref)


@_props
@given(_parts, _parts, _parts, _parts)
def test_scalar_equality_and_hash_follow_the_value(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    equal = (Fraction(a), Fraction(b)) == (Fraction(c), Fraction(d))
    assert (x == y) == equal
    if equal:
        assert hash(x) == hash(y)
    # the same value built from Fraction parts is the same scalar
    same = GaussianRational(Fraction(a), Fraction(b))
    assert x == same and hash(x) == hash(same)
    assert (x == Fraction(a)) == (not b)
    assert (x == a) == (not b)


def test_poly_ring_axioms():
    rng = random.Random(23)
    gens = [gen_h(), gen_xi(1), gen_xi(2), gen_v(1), gen_s()]
    for _ in range(80):
        p, q, r = (random_poly(rng, gens) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p
        assert p * Poly.const(1) == p


def test_poly_eval_numeric_matches_structure():
    p = Poly.gen(gen_h()) * Poly.gen(gen_xi(1), exp=2) * Fraction(3, 2)
    p = p + Poly.gen(gen_v(4)) * GaussianRational(0, 1)
    value = p.eval_numeric({gen_h(): 2.0, gen_xi(1): 0.5, gen_v(4): 3.0})
    assert abs(value - (0.75 + 3j)) < 1e-12


def test_poly_eval_numeric_ignores_term_insertion_order():
    # equal polynomials must give the same float, however they were built
    h, s = Poly.gen(gen_h()), Poly.gen(gen_s())
    first = Poly.const(1) + h - s
    second = h - s + Poly.const(1)
    assert first == second
    point = {gen_h(): 1e16, gen_s(): 1e16}
    assert first.eval_numeric(point) == second.eval_numeric(point)


def test_poly_eval_numeric_missing_generator():
    p = Poly.gen(gen_h())
    try:
        p.eval_numeric({})
    except KeyError as exc:
        assert "H" in str(exc)
    else:
        raise AssertionError("expected a KeyError for the missing generator")


def test_generator_formatting():
    assert format_generator(gen_h()) == "H"
    assert format_generator(gen_xi(2)) == "XI(2)"
    assert format_generator(gen_w(1, 3)) == "W(1,3)"
    assert format_generator(gen_pi()) == "PI"
    assert format_generator(gen_omega()) == "OMEGA"
    assert format_generator(gen_s()) == "S"
    assert format_generator(gen_v(4)) == "V(4)"
    assert format_generator(gen_vs(1)) == "VS(1)"


def test_monomial_formatting():
    assert format_monomial(()) == "1"
    assert format_monomial(((gen_h(), 1), (gen_xi(2), 3))) == "H*XI(2)^3"


_index = st.integers(0, 12)

# Generators with no index and with one, two and four indices.
_generators = st.one_of(
    st.sampled_from([gen_h(), gen_s(), gen_pi(), gen_omega()]),
    st.tuples(st.sampled_from(["XI", "V", "VS"]), _index),
    st.tuples(st.sampled_from(["W", "WS"]), _index, _index),
    st.tuples(st.just("R"), _index, _index, _index, _index),
)


@example({})
@example({gen_xi(2): 3, ("R", 1, 2, 1, 2): 1})
@given(st.dictionaries(_generators, st.integers(1, 6), max_size=5))
def test_parse_monomial_inverts_format_monomial(exponents):
    monomial = tuple(sorted(exponents.items()))
    assert parse_monomial(format_monomial(monomial)) == monomial


def _frozen_text_poly(poly):
    """The CLI's former text renderer, kept verbatim as the reference."""

    def _format_monomial(monomial):
        if not monomial:
            return "1"
        parts = []
        for gen, exp in monomial:
            name = format_generator(gen)
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)

    if not poly.terms:
        return "0"
    pieces = []
    for monomial, coeff in poly.sorted_terms():
        if coeff.im == 0:
            c = str(coeff.re)
        elif coeff.re == 0:
            c = f"{coeff.im}i"
        else:
            sign = "+" if coeff.im > 0 else "-"
            c = f"({coeff.re}{sign}{abs(coeff.im)}i)"
        mono = _format_monomial(monomial)
        pieces.append(c if mono == "1" else f"{c}*{mono}")
    return " + ".join(pieces)


_gaussian = st.builds(
    GaussianRational,
    st.fractions(-5, 5, max_denominator=4),
    st.fractions(-5, 5, max_denominator=4),
)


@st.composite
def polys(draw, gens, max_exp):
    """Sums of scalar multiples of generator products, built with Poly
    arithmetic."""
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 5))):
        term = Poly.const(draw(_gaussian))
        for g in draw(st.lists(st.sampled_from(gens), max_size=3)):
            term = term * Poly.gen(g, draw(st.integers(1, max_exp)))
        p = p + term
    return p


_DISPLAY_GENS = [
    gen_h(),
    gen_s(),
    gen_pi(),
    gen_omega(),
    gen_xi(1),
    gen_xi(3),
    gen_v(4),
    gen_vs(1),
    gen_w(1, 3),
    gen_riemann(1, 2, 3, 4)[1],
]


@given(polys(_DISPLAY_GENS, 4))
def test_poly_repr_is_the_frozen_text_rendering(p):
    assert repr(p) == _frozen_text_poly(p)


def test_riemann_symmetries():
    sign, gen = gen_riemann(2, 1, 3, 4)
    assert sign == -1 and gen == ("R", 1, 2, 3, 4)
    sign, gen = gen_riemann(1, 2, 4, 3)
    assert sign == -1 and gen == ("R", 1, 2, 3, 4)
    sign, gen = gen_riemann(2, 1, 4, 3)
    assert sign == 1 and gen == ("R", 1, 2, 3, 4)
    sign, _ = gen_riemann(1, 1, 3, 4)
    assert sign == 0
    sign, _ = gen_riemann(1, 2, 3, 3)
    assert sign == 0


def test_sphere_normal_form_eliminates_last_component():
    n = 4
    # xi_3^2 rewrites to 1 - xi_1^2 - xi_2^2 on the unit cosphere
    p = Poly.gen(gen_xi(3), exp=2)
    q = sphere_normal_form(p, n)
    expected = (
        Poly.const(1)
        - Poly.gen(gen_xi(1), exp=2)
        - Poly.gen(gen_xi(2), exp=2)
    )
    assert q == expected
    assert sphere_normal_form(q, n) == q


def _frozen_sphere_normal_form(poly, n):
    """The former fixpoint loop, kept verbatim as the reference."""
    last = gen_xi(n - 1)
    rest = Poly.const(1)
    for i in range(1, n - 1):
        rest = rest - Poly.gen(gen_xi(i), 2)

    current = poly
    while True:
        fixed: dict = {}
        pending = Poly.zero()
        changed = False
        for m, c in current.terms.items():
            exp = 0
            for g, e in m:
                if g == last:
                    exp = e
                    break
            if exp < 2:
                acc = fixed.get(m)
                fixed[m] = c if acc is None else acc + c
                continue
            changed = True
            stripped = tuple((g, e) for g, e in m if g != last)
            carry = exp % 2
            base = Poly({stripped: c})
            if carry:
                base = base * Poly.gen(last)
            pending = pending + base * rest ** (exp // 2)
        current = Poly({m: c for m, c in fixed.items() if not c.is_zero}) + pending
        if not changed:
            return current


@st.composite
def sphere_cases(draw):
    n = draw(st.sampled_from([4, 6]))
    gens = [gen_xi(i) for i in range(1, n)] + [gen_h(), gen_v(n)]
    return n, draw(polys(gens, 6))


@given(sphere_cases())
def test_sphere_normal_form_matches_frozen_fixpoint(case):
    n, p = case
    assert sphere_normal_form(p, n) == _frozen_sphere_normal_form(p, n)


def test_sphere_normal_form_returns_normal_input_itself():
    for n in (4, 6):
        last = Poly.gen(gen_xi(n - 1))
        p = Poly.gen(gen_xi(1), exp=4) * last + Poly.gen(gen_h()) - Fraction(1, 3)
        assert sphere_normal_form(p, n) is p
        assert sphere_normal_form(Poly.zero(), n).is_zero
        reduced = sphere_normal_form(p * last, n)
        assert reduced is not p * last
        assert sphere_normal_form(reduced, n) is reduced


def test_sphere_normal_form_is_idempotent_on_random_input():
    rng = random.Random(77)
    gens = [gen_xi(1), gen_xi(2), gen_xi(3), gen_h()]
    for _ in range(40):
        p = random_poly(rng, gens, max_terms=5)
        q = sphere_normal_form(p, 4)
        assert sphere_normal_form(q, 4) == q


def test_sphere_normal_form_preserves_numeric_value_on_sphere():
    rng = random.Random(13)
    import math

    for _ in range(25):
        p = random_poly(rng, [gen_xi(1), gen_xi(2), gen_xi(3)], max_terms=5)
        q = sphere_normal_form(p, 4)
        # draw a random point on the unit circle of the tangential covariables
        u = rng.uniform(0, 2 * math.pi)
        w = rng.uniform(-1, 1)
        x1 = math.sqrt(1 - w * w) * math.cos(u)
        x2 = math.sqrt(1 - w * w) * math.sin(u)
        assign = {gen_xi(1): x1, gen_xi(2): x2, gen_xi(3): w}
        assert abs(p.eval_numeric(assign) - q.eval_numeric(assign)) < 1e-10
