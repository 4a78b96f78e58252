"""Tests for the fiber Clifford algebra."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wres.clifford import (
    EMPTY_WORD,
    CliffordOp,
    action_of,
    build_connection_ops,
    build_generator,
    drift_exterior,
    drift_interior,
    normal_clifford,
    tangential_clifford,
    word_product,
)
from wres.exact import Poly, gen_h, gen_v, gen_vs, gen_xi
from wres.numcheck import _exterior
from wres.rational import MatrixSymbol


@pytest.mark.parametrize("n", [4, 6])
def test_anticommutators(n):
    cs = [build_generator(n, j, "clifford") for j in range(1, n + 1)]
    cbars = [build_generator(n, j, "clifford_bar") for j in range(1, n + 1)]
    for i in range(n):
        for j in range(n):
            delta = -2 if i == j else 0
            assert cs[i] @ cs[j] + cs[j] @ cs[i] == CliffordOp.identity(
                n, delta
            )
            assert cbars[i] @ cbars[j] + cbars[j] @ cbars[
                i
            ] == CliffordOp.identity(n, -delta)
            mixed = cs[i] @ cbars[j] + cbars[j] @ cs[i]
            assert mixed.is_zero


@pytest.mark.parametrize("n", [4, 6])
def test_exterior_interior_duality(n):
    for j in range(1, n + 1):
        ext = build_generator(n, j, "exterior")
        inte = build_generator(n, j, "interior")
        # contraction then wedge plus wedge then contraction is the identity
        assert ext @ inte + inte @ ext == CliffordOp.identity(n)
        assert (ext @ ext).is_zero
        assert (inte @ inte).is_zero


@pytest.mark.parametrize("n", [4, 6])
def test_identity_trace_is_fiber_dimension(n):
    assert CliffordOp.identity(n).trace() == Poly.const(Fraction(1 << n))


@pytest.mark.parametrize("n", [4, 6])
def test_clifford_square_traces(n):
    dim = 1 << n
    c_nor = normal_clifford(n)
    assert (c_nor @ c_nor).trace() == Poly.const(Fraction(-dim))
    c_tan = tangential_clifford(n)
    assert (c_tan @ c_tan).trace_on_sphere() == Poly.const(Fraction(-dim))
    assert (c_tan @ c_nor).trace() == Poly.zero()


@pytest.mark.parametrize("n", [4, 6])
def test_warp_derivative_trace(n):
    # the normal derivative of the tangential symbol is (h'(0)/2) c(xi')
    dim = 1 << n
    c_tan = tangential_clifford(n)
    warped = c_tan.scale(Poly.gen(gen_h(), coeff=Fraction(1, 2)))
    expected = Poly.gen(gen_h(), coeff=Fraction(-dim, 2))
    assert (warped @ c_tan).trace_on_sphere() == expected


@pytest.mark.parametrize("n", [4, 6])
def test_drift_traces_against_clifford(n):
    dim_half = 1 << (n - 1)
    c_nor = normal_clifford(n)
    interior = drift_interior(n)
    # tr[c(dx_n) iota(v)] = 2^(n-1) <v, dx_n>
    assert (c_nor @ interior).trace() == Poly.gen(
        gen_v(n), coeff=Fraction(dim_half)
    )
    exterior = drift_exterior(n, dual=False)
    # tr[c(dx_n) eps(v*)] = -2^(n-1) <v*, dx_n>
    assert (c_nor @ exterior).trace() == Poly.gen(
        gen_vs(n), coeff=Fraction(-dim_half)
    )
    c_tan = tangential_clifford(n)
    got = (c_tan @ interior).trace_on_sphere()
    expected = Poly.zero()
    for i in range(1, n):
        expected = expected + Poly.gen(gen_v(i)) * Poly.gen(gen_xi(i)) * Fraction(
            dim_half
        )
    assert got == expected


@pytest.mark.parametrize("n", [4, 6])
def test_connection_op_traces(n):
    a_op, b_op = build_connection_ops(n)
    c_nor = normal_clifford(n)
    dim = 1 << n
    assert (a_op @ c_nor).trace() == Poly.zero()
    # second connection operator pairs with the conormal through the
    # anticommutation relations: each tangential index contributes
    # -2 * dim, so the product trace carries (n-1) * dim / 4 * H
    expected = Poly.gen(gen_h(), coeff=Fraction(dim * (n - 1), 4))
    assert (b_op @ c_nor).trace() == expected
    assert a_op.trace() == Poly.zero()
    assert b_op.trace() == Poly.zero()


def test_action_of_accepts_tangential_component_lists():
    n = 4
    comps = [Poly.gen(gen_xi(i)) for i in range(1, n)]
    op = action_of(n, comps, "clifford_covector")
    assert op == tangential_clifford(n)


def test_action_of_rejects_bad_kind():
    with pytest.raises(ValueError):
        action_of(4, [Poly.const(1)] * 4, "no_such_action")


# ---------------------------------------------------------------------------
# the word basis against the oracle's dense matrices


class DenseWords:
    """Words c_S cbar_T as dense 2**n x 2**n matrices, built from the
    oracle's exterior multiplications with c = e - e.T, cbar = e + e.T.

    The entries are small integers, so real floating point is exact.
    """

    def __init__(self, n):
        self.n = n
        ext = [_exterior(n, j).real for j in range(1, n + 1)]
        self.c = [e - e.T for e in ext]
        self.cbar = [e + e.T for e in ext]

    def word(self, w):
        s, t = w
        out = np.eye(1 << self.n)
        for j in range(self.n):
            if s >> j & 1:
                out = out @ self.c[j]
        for j in range(self.n):
            if t >> j & 1:
                out = out @ self.cbar[j]
        return out

    def op(self, a):
        out = np.zeros((1 << self.n, 1 << self.n))
        for w, p in a.words.items():
            out += p.constant_part().re * self.word(w)
        return out


def _random_word(rng, n):
    return rng.randrange(1 << n), rng.randrange(1 << n)


def _random_op(rng, n, size):
    words = {}
    for _ in range(size):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        words[_random_word(rng, n)] = Poly.const(coeff)
    return CliffordOp(n, words)


@pytest.mark.parametrize("n", [4, 6])
def test_word_product_matches_dense_matrices(n):
    dense = DenseWords(n)
    rng = random.Random(n)
    for _ in range(200):
        u, v = _random_word(rng, n), _random_word(rng, n)
        sign, w = word_product(u, v)
        assert np.array_equal(dense.word(u) @ dense.word(v), sign * dense.word(w))


@pytest.mark.parametrize("n", [4, 6])
def test_only_the_empty_word_has_a_trace(n):
    dense = DenseWords(n)
    rng = random.Random(100 + n)
    words = [(s, t) for s in range(1 << n) for t in range(1 << n)]
    if n > 4:
        words = [EMPTY_WORD] + rng.sample(words, 300)
    for w in words:
        expected = 1 << n if w == EMPTY_WORD else 0
        assert np.trace(dense.word(w)) == expected, w


@pytest.mark.parametrize("n", [4, 6])
def test_operator_products_match_dense_matrices(n):
    dense = DenseWords(n)
    rng = random.Random(200 + n)
    for _ in range(10):
        a = _random_op(rng, n, rng.randint(1, 12))
        b = _random_op(rng, n, rng.randint(1, 12))
        product = a @ b
        assert np.array_equal(dense.op(product), dense.op(a) @ dense.op(b))
        assert np.trace(dense.op(product)) == product.trace().constant_part().re
        assert MatrixSymbol.from_clifford(a) @ MatrixSymbol.from_clifford(
            b
        ) == MatrixSymbol.from_clifford(product)


def _words(n):
    return st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(_words(n), _words(n), _words(n))))
def test_word_product_is_associative(triple):
    u, v, w = triple
    s_uv, uv = word_product(u, v)
    s_left, left = word_product(uv, w)
    s_vw, vw = word_product(v, w)
    s_right, right = word_product(u, vw)
    assert left == right
    assert s_uv * s_left == s_vw * s_right


# ---------------------------------------------------------------------------
# the word map shared by both fiber operator types


@pytest.mark.parametrize("cls", [CliffordOp, MatrixSymbol])
def test_word_map_subclasses_keep_their_type(cls):
    zero = cls.zero(4)
    assert type(zero) is cls and zero.is_zero
    one = cls.identity(4)
    for result in (one + one, one - one, -one):
        assert type(result) is cls
    assert one - one == zero
    assert repr(one) == f"{cls.__name__}(n=4, words=1)"
    with pytest.raises(ValueError, match="fiber dimension mismatch"):
        cls.identity(4) + cls.identity(6)
    with pytest.raises(ValueError, match="fiber dimension mismatch"):
        cls.identity(4) @ cls.identity(6)


def test_word_maps_of_different_rings_never_compare_equal():
    assert CliffordOp(4) != MatrixSymbol(4)
    assert MatrixSymbol(4) != CliffordOp(4)
    assert not CliffordOp.identity(4) == MatrixSymbol.identity(4)
    with pytest.raises(ValueError, match="fiber dimension mismatch"):
        MatrixSymbol.identity(4).trace_product(MatrixSymbol.identity(6))
