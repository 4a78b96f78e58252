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
    drift_action,
    normal_clifford,
    tangential_clifford,
    word_product,
)
from wres.exact import GR_ZERO, Poly, gen_h, gen_v, gen_vs, gen_w, gen_ws, gen_xi
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
    interior = drift_action(n, "interior")
    # tr[c(dx_n) iota(v)] = 2^(n-1) <v, dx_n>
    assert (c_nor @ interior).trace() == Poly.gen(
        gen_v(n), coeff=Fraction(dim_half)
    )
    exterior = drift_action(n, "exterior", dual=False)
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


def _connection_ops_from_commutators(n):
    """The connection operators as contractions of the connection matrix
    with generator commutators: a frozen copy of the earlier
    implementation."""
    h = Poly.gen(gen_h())
    eighth = Poly.const(Fraction(1, 8)) * h
    a_op = CliffordOp.zero(n)
    b_op = CliffordOp.zero(n)
    for i in range(1, n):
        c_i = build_generator(n, i, "clifford")
        cb = (
            build_generator(n, n, "clifford_bar") @ build_generator(n, i, "clifford_bar")
            - build_generator(n, i, "clifford_bar") @ build_generator(n, n, "clifford_bar")
        )
        cc = (
            build_generator(n, n, "clifford") @ build_generator(n, i, "clifford")
            - build_generator(n, i, "clifford") @ build_generator(n, n, "clifford")
        )
        a_op = a_op + (c_i @ cb).scale(eighth)
        b_op = b_op - (c_i @ cc).scale(eighth)
    return a_op, b_op


@pytest.mark.parametrize("n", [4, 6, 8])
def test_connection_ops_match_the_commutator_form(n):
    assert build_connection_ops(n) == _connection_ops_from_commutators(n)


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
    op = action_of(n, comps, "clifford")
    assert op == tangential_clifford(n)


def test_action_of_rejects_bad_kind():
    with pytest.raises(ValueError):
        action_of(4, [Poly.const(1)] * 4, "no_such_action")


# ---------------------------------------------------------------------------
# the frame actions against frozen copies of the earlier builders, which
# summed one scaled generator per component and wrote the drift
# convention in two places

KINDS = ("clifford", "clifford_bar", "exterior", "interior")


def _frozen_build_generator(n, j, kind):
    if not 1 <= j <= n:
        raise ValueError(f"frame index {j} out of range 1..{n}")
    bit = 1 << (j - 1)
    c, cbar = (bit, 0), (0, bit)
    one = Poly.const(1)
    half = Poly.const(Fraction(1, 2))
    if kind == "clifford":
        words = {c: one}
    elif kind == "clifford_bar":
        words = {cbar: one}
    elif kind == "exterior":
        words = {c: half, cbar: half}
    elif kind == "interior":
        words = {c: -half, cbar: half}
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return CliffordOp(n, words)


def _frozen_action_of(n, components, kind):
    comps = list(components)
    if len(comps) == n - 1:
        comps.append(0)
    if len(comps) != n:
        raise ValueError(f"expected {n} or {n - 1} components, got {len(comps)}")
    out = CliffordOp.zero(n)
    for j, comp in enumerate(comps, start=1):
        p = Poly.of(comp)
        if p.is_zero:
            continue
        out = out + _frozen_build_generator(n, j, kind).scale(p)
    return out


def _frozen_drift_interior(n):
    return _frozen_action_of(n, [Poly.gen(gen_v(k)) for k in range(1, n + 1)], "interior")


def _frozen_drift_exterior(n, dual=True):
    mk = gen_v if dual else gen_vs
    return _frozen_action_of(n, [Poly.gen(mk(k)) for k in range(1, n + 1)], "exterior")


def _frozen_nabla(n, j, kind, dual):
    mk = gen_ws if kind == "exterior" and not dual else gen_w
    return _frozen_action_of(n, [Poly.gen(mk(j, k)) for k in range(1, n + 1)], kind)


def _component():
    """Zeros, ints, Fractions and Polys, some of them zero Polys."""
    return st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=5),
        st.tuples(st.integers(1, 8), st.integers(-2, 2)).map(
            lambda kc: Poly.gen(gen_v(kc[0]), coeff=kc[1])
        ),
        st.tuples(st.integers(1, 8), st.integers(1, 3)).map(
            lambda kc: Poly.gen(gen_xi(kc[0])) * kc[1] + Fraction(1, kc[1])
        ),
    )


def _action_case(n):
    comps = st.lists(_component(), min_size=n - 1, max_size=n)
    return st.tuples(st.just(n), comps, st.sampled_from(KINDS))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(_action_case))
def test_action_of_matches_the_summed_generators(case):
    n, comps, kind = case
    assert action_of(n, comps, kind) == _frozen_action_of(n, comps, kind)


@pytest.mark.parametrize("n", range(1, 9))
def test_build_generator_matches_the_kind_chain(n):
    for kind in KINDS:
        for j in range(1, n + 1):
            assert build_generator(n, j, kind) == _frozen_build_generator(n, j, kind)


def test_frame_actions_keep_their_errors():
    for bad in (0, 5):
        with pytest.raises(ValueError, match="out of range"):
            build_generator(4, bad, "clifford")
    with pytest.raises(ValueError, match="unknown generator kind"):
        build_generator(4, 1, "no_such_action")
    # the earlier sum looked at the kind only for a nonzero component
    with pytest.raises(ValueError, match="unknown generator kind"):
        action_of(4, [0, 0, 0], "no_such_action")
    with pytest.raises(ValueError, match="expected 4 or 3 components, got 2"):
        action_of(4, [1, 1], "interior")
    with pytest.raises(ValueError, match="unknown drift action"):
        drift_action(4, "clifford")


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("dual", [True, False])
def test_drift_action_matches_the_frozen_builders(n, dual):
    assert drift_action(n, "interior", dual) == _frozen_drift_interior(n)
    assert drift_action(n, "exterior", dual) == _frozen_drift_exterior(n, dual)
    for kind in ("interior", "exterior"):
        for j in range(1, n + 1):
            got = drift_action(n, kind, dual, along=j)
            assert got == _frozen_nabla(n, j, kind, dual)


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
            out += p.terms.get((), GR_ZERO).re * self.word(w)
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
        trace = product.trace().terms.get((), GR_ZERO)
        assert np.trace(dense.op(product)) == trace.re
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


def _ops(n):
    """Two random operators on one fiber, coefficients V(k) times small
    integers, so that signs and cancellations both show."""
    entry = st.tuples(_words(n), st.integers(1, 3), st.sampled_from([-2, -1, 1, 3]))
    words = st.lists(entry, min_size=0, max_size=12)

    def build(entries):
        op = CliffordOp.zero(n)
        for w, k, c in entries:
            op = op + CliffordOp(n, {w: Poly.gen(gen_v(k), coeff=c)})
        return op

    return st.tuples(words.map(build), words.map(build))


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(_ops))
def test_trace_product_is_the_trace_of_the_product(pair):
    a, b = pair
    assert a.trace_product(b) == (a @ b).trace()
    assert a.trace_product(a) == (a @ a).trace()


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
