"""Rational functions of the normal covariable and their residue calculus.

Everything the boundary term needs lives in one variable: a symbol entry
restricted to the unit tangential cosphere is a rational function

    N(xin) / ((xin - i)**a * (xin + i)**b)

whose numerator is one polynomial in xin and the remaining generators,
with xin the generator XIN.  The denominator never acquires other roots
because the full covector length squared is 1 + xin**2 on the cosphere.

Canonical form: common factors (xin -+ i) are divided out, so a and b are
the true pole orders; the numerator, a Poly, stores no zero coefficient.
Whether (xin - i) or (xin + i) divides the numerator is tested by
evaluating it at i or -i, where each power of the root turns a
coefficient's parts by a quarter turn; a synthetic division runs only
when that value is zero.  Division, the Taylor shift and the derivative
read the numerator power by power through its columns: per monomial of
the other generators, the scalars by power of xin.  The projection
pi_plus keeps the principal part at +i (the orientation fixed by the
half-space calculus) and pi_minus, f - pi_plus(f), the one at -i.  With
t = xin - i the principal part at +i is T(t) / t**a, where T is the
Taylor polynomial below degree a of N / (t + 2i)**b: N is shifted to t,
multiplied by the truncated series of (t + 2i)**-b and shifted back.
The real-line integral closes the contour upward, which is exact for any
proper rational integrand with quadratic decay; the residue at +i is T's
t**(a-1) coefficient.

MatrixSymbol is the Clifford word map of clifford._WordMap with
RationalXi coefficients.  Its coefficients are reduced on the cosphere
only where numerators are multiplied: in scale, which from_clifford and
identity go through, and in the product, the product restricted to a
set of words (which multiplies only the word pairs that land there) and
the trace of a product.
Sums, negation, xin-derivatives and projections combine coefficients
over constants, so they keep sphere normal form by themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .clifford import EMPTY_WORD, CliffordOp, _WordMap, word_product
from .exact import (
    GR_I,
    GR_MINUS_I,
    GR_ZERO,
    XIN,
    GaussianRational,
    Poly,
    _add_product_into,
    _split_xin,
    _vanishes_at,
    gen_omega,
    gen_pi,
    sphere_normal_form,
)

_TWO_I = GaussianRational(0, 2)
_HALF_I = GaussianRational(0, Fraction(1, 2))
_XIN_MINUS_I = Poly.gen(XIN) - GR_I
_XIN_PLUS_I = Poly.gen(XIN) + GR_I


def _columns(num: Poly) -> dict:
    """num power by power: {rest monomial: scalars by power of xin}."""
    cols: dict = {}
    for m, c in num.terms.items():
        rest, k = _split_xin(m)
        col = cols.setdefault(rest, [])
        col.extend([GR_ZERO] * (k + 1 - len(col)))
        col[k] = c
    return cols


def _numerator(cols: dict) -> Poly:
    """The Poly whose columns are cols, leaving out zero scalars."""
    return Poly._own(
        {
            m + ((XIN, k),) if k else m: c
            for m, col in cols.items()
            for k, c in enumerate(col)
            if not c.is_zero
        }
    )


def _divide_linear(col: Sequence, root: GaussianRational) -> tuple:
    """(quotient, remainder) of a column by (xin - root), by synthetic division.

    The partial sums of Horner's rule for col(root) are the quotient's
    coefficients, and the last one is the remainder col(root).
    """
    partial = [GR_ZERO]
    for c in reversed(col):
        partial.append(c + partial[-1] * root)
    return partial[-2:0:-1], partial[-1]


def _lift(num: Poly, da: int, db: int) -> Poly:
    """num * (xin - i)**da * (xin + i)**db."""
    for factor in (_XIN_MINUS_I,) * da + (_XIN_PLUS_I,) * db:
        num = num * factor
    return num


def _taylor_shift(col: Sequence, c: GaussianRational, size: int) -> list:
    """Coefficients below degree size of col(xin + c): the remainders of
    dividing col by (xin - c) over and over."""
    out: list = []
    quot = col
    while quot and len(out) < size:
        quot, rem = _divide_linear(quot, c)
        out.append(rem)
    return out


class RationalXi:
    """N(xin) / ((xin - i)**a (xin + i)**b) in canonical form.

    num is one Poly in which xin is the generator XIN.
    """

    __slots__ = ("num", "a", "b")

    def __init__(self, num: Poly, a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        # dividing a nonzero numerator never empties it
        orders = [a, b] if num.terms else [0, 0]
        for k, root in enumerate((GR_I, GR_MINUS_I)):
            while orders[k] and _vanishes_at(num, root):
                cols = _columns(num).items()
                num = _numerator({m: _divide_linear(c, root)[0] for m, c in cols})
                orders[k] -= 1
        self.num = num
        self.a, self.b = orders

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "RationalXi":
        return RationalXi(Poly.zero())

    @staticmethod
    def const(value) -> "RationalXi":
        return RationalXi(Poly.of(value))

    @staticmethod
    def monomial(coeff, power: int = 0) -> "RationalXi":
        """coeff * xin**power."""
        return RationalXi(Poly.of(coeff) * Poly.gen(XIN, power))

    @staticmethod
    def inverse_norm_power(k: int) -> "RationalXi":
        """(1 + xin**2)**(-k)."""
        return RationalXi(Poly.const(1), k, k)

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num.terms

    @property
    def degree(self) -> int:
        return max((_split_xin(m)[1] for m in self.num.terms), default=-1)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "RationalXi") -> "RationalXi":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        left = _lift(self.num, a - self.a, b - self.b)
        right = _lift(other.num, a - other.a, b - other.b)
        return RationalXi(left + right, a, b)

    def __sub__(self, other: "RationalXi") -> "RationalXi":
        return self + (-other)

    def __neg__(self) -> "RationalXi":
        # negation preserves canonical form, so skip re-canonicalization
        neg = RationalXi.__new__(RationalXi)
        neg.num = -self.num
        neg.a = self.a
        neg.b = self.b
        return neg

    def __mul__(self, other: "RationalXi") -> "RationalXi":
        return RationalXi(self.num * other.num, self.a + other.a, self.b + other.b)

    def scale(self, factor) -> "RationalXi":
        """self times a scalar or a Poly free of XIN."""
        return RationalXi(self.num * factor, self.a, self.b)

    def d_xi_n(self) -> "RationalXi":
        """Derivative in the normal covariable."""
        if self.is_zero:
            return self
        dnum = _numerator(
            {
                m: [c * k for k, c in enumerate(col) if k]
                for m, col in _columns(self.num).items()
            }
        )
        if self.a == 0 and self.b == 0:
            return RationalXi(dnum)
        # N'(xin-i)(xin+i) - N(a(xin+i) + b(xin-i)), over orders (a+1, b+1)
        shift = -(_XIN_PLUS_I * self.a + _XIN_MINUS_I * self.b)
        return RationalXi(_lift(dnum, 1, 1) + self.num * shift, self.a + 1, self.b + 1)

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalXi):
            return NotImplemented
        return self.num == other.num and self.a == other.a and self.b == other.b

    def __repr__(self):
        if self.is_zero:
            return "0"
        den = []
        if self.a:
            den.append(f"(XIN-i)^{self.a}")
        if self.b:
            den.append(f"(XIN+i)^{self.b}")
        return f"[{self.num!r}] / {''.join(den)}" if den else f"[{self.num!r}]"


# ---------------------------------------------------------------------------
# principal parts and the line integral


def _require_proper(f: RationalXi, op: str) -> None:
    if f.degree >= f.a + f.b:
        raise ValueError(
            f"{op} requires a proper rational function; got numerator degree "
            f"{f.degree} with pole orders ({f.a}, {f.b})"
        )


def _principal(f: RationalXi) -> dict:
    """Columns of T, the numerator of the principal part T(t) / t**a of f
    at +i, in t = xin - i: the Taylor coefficients below t**a of
    N(t + i) (t + 2i)**-b.  The factor the pole at -i contributes,
    (t + 2i)**-b, has the coefficients (2i)**-b binom(b+j-1, j) (i/2)**j.
    Empty when f has no pole at +i."""
    a, b = f.a, f.b
    if not a:
        return {}
    series = [_TWO_I**-b]
    for j in range(1, a):
        series.append(series[-1] * (_HALF_I * Fraction(b + j - 1, j)))
    out = {}
    for m, col in _columns(f.num).items():
        taylor = [GR_ZERO] * a
        for k, s in enumerate(_taylor_shift(col, GR_I, a)):
            for j in range(k, a):
                taylor[j] = taylor[j] + s * series[j - k]
        out[m] = taylor
    return out


def pi_plus(f: RationalXi) -> RationalXi:
    """Keep the principal part at +i.

    This is the half-space projection of the boundary calculus: the
    summand holomorphic in the lower half-plane.  Input must be proper.
    """
    if f.is_zero:
        return f
    _require_proper(f, "pi_plus")
    cols = {m: _taylor_shift(t, GR_MINUS_I, f.a) for m, t in _principal(f).items()}
    return RationalXi(_numerator(cols), f.a, 0)


def pi_minus(f: RationalXi) -> RationalXi:
    """Keep the principal part at -i; pi_plus + pi_minus restores a proper input."""
    if f.is_zero:
        return f
    _require_proper(f, "pi_minus")
    return f - pi_plus(f)


def integrate_real_line(f: RationalXi) -> Poly:
    """Integral over the real line, closed through the upper half-plane.

    Requires at least quadratic decay (numerator degree <= a + b - 2);
    the result is 2*pi*i times the residue at +i and carries the
    symbolic PI generator.
    """
    if f.is_zero:
        return Poly.zero()
    if f.degree > f.a + f.b - 2:
        raise ValueError(
            f"integrand decays too slowly: numerator degree {f.degree} "
            f"with pole orders ({f.a}, {f.b})"
        )
    # the residue at +i is the t**(a-1) coefficient of the principal part
    residue = {m: [t[f.a - 1] * _TWO_I] for m, t in _principal(f).items()}
    return Poly.gen(gen_pi()) * _numerator(residue)


def sphere_integrate(poly: Poly, n: int) -> Poly:
    """Integrate a polynomial over the unit tangential cosphere.

    XI monomials turn into exact moments times the symbolic OMEGA
    volume; odd monomials vanish.  Non-XI generators pass through.
    The moment of prod XI(i)**(2 a_i) over the unit sphere in d = n-1
    variables is prod (2 a_i - 1)!! / prod_{j<A} (d + 2 j), A = sum a_i,
    relative to total mass OMEGA.
    """
    d = n - 1
    omega = gen_omega()
    out = Poly.zero()
    for m, c in poly.terms.items():
        xi_exps = []
        rest = []
        for g, e in m:
            if g[0] == "XI":
                xi_exps.append(e)
            else:
                rest.append((g, e))
        if any(e % 2 for e in xi_exps):
            continue
        halves = [e // 2 for e in xi_exps]
        total = sum(halves)
        moment = Fraction(1)
        for a_i in halves:
            for odd in range(1, 2 * a_i, 2):
                moment *= odd
        for j in range(total):
            moment /= d + 2 * j
        out = out + Poly({tuple(rest): c * moment}) * Poly.gen(omega)
    return out


# ---------------------------------------------------------------------------
# fiber operators with rational coefficients


def _on_sphere(num: Poly, a: int, b: int, n: int) -> RationalXi:
    """num / ((xin - i)**a (xin + i)**b), reduced on the cosphere, then
    canonicalized, so pole cancellations that are only visible modulo the
    cosphere relation are performed."""
    return RationalXi(sphere_normal_form(num, n), a, b)


def _product_cells(pairs: Iterable, n: int) -> dict:
    """Sum the products sign * left * right of (sign, word, left, right)
    pairs into one canonical, cosphere-reduced RationalXi per word.

    Raw numerator products are summed per word and denominator
    signature; each word's sums are lifted to common pole orders, added,
    then reduced and canonicalized once.  Both steps are linear over
    constants, so this is the canonical form of the reduced sum.  Words
    whose sum vanishes are left out.
    """
    sums: dict = {}
    for sign, w, left, right in pairs:
        cell = sums.get(w)
        if cell is None:
            cell = sums[w] = {}
        sig = (left.a + right.a, left.b + right.b)
        acc = cell.get(sig)
        if acc is None:
            acc = cell[sig] = {}
        _add_product_into(acc, left.num if sign > 0 else -left.num, right.num)
    out: dict = {}
    for w, cell in sums.items():
        top_a = max(a for a, _ in cell)
        top_b = max(b for _, b in cell)
        total = Poly.zero()
        for (a, b), acc in cell.items():
            total = total + _lift(Poly._own(acc), top_a - a, top_b - b)
        s = _on_sphere(total, top_a, top_b, n)
        if not s.is_zero:
            out[w] = s
    return out


class MatrixSymbol(_WordMap):
    """The Clifford word map over RationalXi, cosphere-reduced.

    Every numerator is in sphere normal form: the constructors and the
    products reduce what they multiply, and every other operation
    combines coefficients over constants, which keeps that form.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n: int, coeff: RationalXi | None = None) -> "MatrixSymbol":
        return MatrixSymbol.from_clifford(CliffordOp.identity(n), coeff)

    @staticmethod
    def from_clifford(op, factor: RationalXi | None = None) -> "MatrixSymbol":
        """Embed a polynomial fiber operator, optionally times a rational scalar."""
        words = {w: RationalXi(p) for w, p in op.words.items()}
        return MatrixSymbol(op.n, words).scale(
            factor if factor is not None else RationalXi.const(1)
        )

    # -- arithmetic --------------------------------------------------

    def scale(self, factor: RationalXi) -> "MatrixSymbol":
        return self._map(
            lambda r: _on_sphere(
                r.num * factor.num, r.a + factor.a, r.b + factor.b, self.n
            )
        )

    def __matmul__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        return self.product(other)

    def product(
        self, other: "MatrixSymbol", words: frozenset | None = None
    ) -> "MatrixSymbol":
        """self @ other, or only its coefficients on the given words.

        A word pair contributes to the one word it multiplies to, so the
        pairs whose word is not asked for are dropped before any
        coefficient is multiplied; each kept word's coefficient is the
        one the full product has there.
        """
        self._check(other)
        pairs = (
            (sign, w, left, right)
            for u, left in self.words.items()
            for v, right in other.words.items()
            for sign, w in (word_product(u, v),)
            if words is None or w in words
        )
        return MatrixSymbol(self.n, _product_cells(pairs, self.n))

    def trace_product(self, other: "MatrixSymbol") -> RationalXi:
        """Fiber trace of self @ other, without forming the product."""
        cells = _product_cells(self._trace_pairs(other), self.n)
        empty = cells.get(EMPTY_WORD, RationalXi.zero())
        return empty.scale(1 << self.n)

    # -- calculus ----------------------------------------------------

    def d_xi_n(self) -> "MatrixSymbol":
        return self._map(RationalXi.d_xi_n)

    def pi_plus(self) -> "MatrixSymbol":
        return self._map(pi_plus)
