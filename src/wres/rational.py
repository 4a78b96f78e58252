"""Rational functions of the normal covariable and their residue calculus.

Everything the boundary term needs lives in one variable: a symbol entry
restricted to the unit tangential cosphere is a rational function

    N(xin) / ((xin - i)**a * (xin + i)**b)

whose numerator coefficients are polynomials in the remaining
generators.  The denominator never acquires other roots because the
full covector length squared is 1 + xin**2 on the cosphere.

Canonical form: trailing zero numerator coefficients are stripped, and
common factors (xin -+ i) are divided out, so a and b are the true pole
orders.  The projection pi_plus keeps the principal part at +i (the
orientation fixed by the half-space calculus) and pi_minus, f - pi_plus(f),
the one at -i.  With t = xin - i the principal part at +i is T(t) / t**a,
where T is the Taylor polynomial below degree a of N / (t + 2i)**b: N is
shifted to t, multiplied by the truncated series of (t + 2i)**-b and
shifted back.  The real-line integral closes the contour upward, which is
exact for any proper rational integrand with quadratic decay; the residue
at +i is the xin**(a-1) coefficient of pi_plus's numerator.

MatrixSymbol is the Clifford word map of clifford._WordMap with
RationalXi coefficients.  Its coefficients are reduced on the cosphere
only where numerators are multiplied (from_clifford, identity, scale,
the product and the trace of a product).  Sums, negation,
xin-derivatives and projections combine coefficients over constants, so
they keep sphere normal form by themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .clifford import EMPTY_WORD, CliffordOp, _WordMap, word_product
from .exact import (
    GR_I,
    GR_MINUS_I,
    GaussianRational,
    Poly,
    _add_product_into,
    gen_omega,
    gen_pi,
    sphere_normal_form,
)

_TWO_I = GaussianRational(0, 2)
_HALF_I = GaussianRational(0, Fraction(1, 2))


def _strip(num: list) -> list:
    while num and num[-1].is_zero:
        num.pop()
    return num


def _divide_linear(num: Sequence[Poly], root: GaussianRational) -> tuple[list, Poly]:
    """(quotient, remainder) of num by (xin - root), by synthetic division.

    The partial sums of Horner's rule for num(root) are the quotient's
    coefficients, and the last one is the remainder num(root).
    """
    partial = [Poly.zero()]
    for p in reversed(num):
        partial.append(p + partial[-1] * root)
    return partial[-2:0:-1], partial[-1]


def _mul_coeffs(f: Sequence[Poly], g: Sequence[Poly]) -> list:
    if not f or not g:
        return []
    out = [{} for _ in range(len(f) + len(g) - 1)]
    for i, p in enumerate(f):
        for j, q in enumerate(g):
            _add_product_into(out[i + j], p, q)
    return [Poly._own(terms) for terms in out]


def _add_coeffs(f: Sequence[Poly], g: Sequence[Poly]) -> list:
    if len(f) < len(g):
        f, g = g, f
    return [p + q for p, q in zip(f, g)] + list(f[len(g):])


def _lift(num: Sequence[Poly], da: int, db: int) -> list:
    """Coefficients of num * (xin - i)**da * (xin + i)**db."""
    if not (da or db):
        return list(num)
    factor = [Poly.const(1)]
    for root in (GR_I,) * da + (GR_MINUS_I,) * db:
        factor = _mul_coeffs(factor, [Poly.const(-root), Poly.const(1)])
    return _mul_coeffs(num, factor)


def _taylor_shift(num: Sequence[Poly], c: GaussianRational, size: int) -> list:
    """Coefficients below degree size of num(xin + c): the remainders of
    dividing num by (xin - c) over and over."""
    out: list = []
    quot = num
    while quot and len(out) < size:
        quot, rem = _divide_linear(quot, c)
        out.append(rem)
    return out


class RationalXi:
    """N(xin) / ((xin - i)**a (xin + i)**b) in canonical form."""

    __slots__ = ("num", "a", "b")

    def __init__(self, num: Sequence[Poly], a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        coeffs = _strip([Poly.of(p) for p in num])
        # dividing a nonzero numerator never empties it
        orders = [a, b] if coeffs else [0, 0]
        for k, root in enumerate((GR_I, GR_MINUS_I)):
            while orders[k]:
                quot, rem = _divide_linear(coeffs, root)
                if not rem.is_zero:
                    break
                coeffs = quot
                orders[k] -= 1
        self.num = tuple(coeffs)
        self.a, self.b = orders

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "RationalXi":
        return RationalXi([])

    @staticmethod
    def const(value) -> "RationalXi":
        return RationalXi([Poly.of(value)])

    @staticmethod
    def monomial(coeff, power: int = 0) -> "RationalXi":
        """coeff * xin**power."""
        num = [Poly.zero()] * power + [Poly.of(coeff)]
        return RationalXi(num)

    @staticmethod
    def inverse_norm_power(k: int) -> "RationalXi":
        """(1 + xin**2)**(-k)."""
        return RationalXi([Poly.const(1)], k, k)

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        return len(self.num) - 1 if self.num else -1

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
        return RationalXi(_add_coeffs(left, right), a, b)

    def __sub__(self, other: "RationalXi") -> "RationalXi":
        return self + (-other)

    def __neg__(self) -> "RationalXi":
        # negation preserves canonical form, so skip re-canonicalization
        neg = RationalXi.__new__(RationalXi)
        neg.num = tuple(-p for p in self.num)
        neg.a = self.a
        neg.b = self.b
        return neg

    def __mul__(self, other: "RationalXi") -> "RationalXi":
        if self.is_zero or other.is_zero:
            return RationalXi([])
        return RationalXi(
            _mul_coeffs(self.num, other.num), self.a + other.a, self.b + other.b
        )

    def scale(self, factor) -> "RationalXi":
        f = Poly.of(factor)
        if f.is_zero or self.is_zero:
            return RationalXi([])
        return RationalXi([p * f for p in self.num], self.a, self.b)

    def d_xi_n(self) -> "RationalXi":
        """Derivative in the normal covariable."""
        if self.is_zero:
            return self
        dnum = [p * k for k, p in enumerate(self.num) if k]
        if self.a == 0 and self.b == 0:
            return RationalXi(dnum)
        # N'(xin-i)(xin+i) - N(a(xin+i) + b(xin-i)), over orders (a+1, b+1)
        shift = [
            Poly.const(GaussianRational(0, self.b - self.a)),
            Poly.const(-(self.a + self.b)),
        ]
        return RationalXi(
            _add_coeffs(_lift(dnum, 1, 1), _mul_coeffs(self.num, shift)),
            self.a + 1,
            self.b + 1,
        )

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RationalXi):
            return NotImplemented
        return self.num == other.num and self.a == other.a and self.b == other.b

    def __repr__(self):
        if self.is_zero:
            return "0"
        num = " + ".join(
            f"({p!r})*xin^{k}" if k else f"({p!r})" for k, p in enumerate(self.num)
        )
        den = []
        if self.a:
            den.append(f"(xin-i)^{self.a}")
        if self.b:
            den.append(f"(xin+i)^{self.b}")
        return f"[{num}] / {''.join(den)}" if den else f"[{num}]"


# ---------------------------------------------------------------------------
# principal parts and the line integral


def _require_proper(f: RationalXi, op: str) -> None:
    if f.degree >= f.a + f.b:
        raise ValueError(
            f"{op} requires a proper rational function; got numerator degree "
            f"{f.degree} with pole orders ({f.a}, {f.b})"
        )


def pi_plus(f: RationalXi) -> RationalXi:
    """Keep the principal part at +i.

    This is the half-space projection of the boundary calculus: the
    summand holomorphic in the lower half-plane.  Input must be proper.
    """
    if f.is_zero:
        return f
    _require_proper(f, "pi_plus")
    a, b = f.a, f.b
    if a == 0:
        return RationalXi([])
    # Taylor coefficients of (t + 2i)**-b: (2i)**-b binom(b+j-1, j) (i/2)**j
    series = [Poly.const(_TWO_I ** -b)]
    for j in range(a - 1):
        series.append(series[-1] * (_HALF_I * Fraction(b + j, j + 1)))
    taylor = _mul_coeffs(_taylor_shift(f.num, GR_I, a), series)[:a]
    return RationalXi(_taylor_shift(taylor, GR_MINUS_I, a), a, 0)


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
    plus = pi_plus(f)
    if plus.is_zero or plus.degree < plus.a - 1:
        return Poly.zero()
    return Poly.gen(gen_pi()) * plus.num[plus.a - 1] * _TWO_I


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


def _on_sphere(num: Sequence[Poly], a: int, b: int, n: int) -> RationalXi:
    """num / ((xin - i)**a (xin + i)**b), reduced on the cosphere, then
    canonicalized, so pole cancellations that are only visible modulo the
    cosphere relation are performed."""
    return RationalXi([sphere_normal_form(p, n) for p in num], a, b)


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
            acc = cell[sig] = []
        size = len(left.num) + len(right.num) - 1
        acc.extend({} for _ in range(size - len(acc)))
        lnum = left.num if sign > 0 else [-p for p in left.num]
        for i, p in enumerate(lnum):
            for j, q in enumerate(right.num):
                _add_product_into(acc[i + j], p, q)
    out: dict = {}
    for w, cell in sums.items():
        top_a = max(a for a, _ in cell)
        top_b = max(b for _, b in cell)
        total: list = []
        for (a, b), acc in cell.items():
            lifted = _lift([Poly._own(t) for t in acc], top_a - a, top_b - b)
            total = _add_coeffs(total, lifted)
        s = _on_sphere(total, top_a, top_b, n)
        if not s.is_zero:
            out[w] = s
    return out


class MatrixSymbol(_WordMap):
    """The Clifford word map over RationalXi, cosphere-reduced.

    Every numerator coefficient is in sphere normal form: the
    constructors and the products reduce what they multiply, and every
    other operation combines coefficients over constants, which keeps
    that form.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------

    @staticmethod
    def identity(n: int, coeff: RationalXi | None = None) -> "MatrixSymbol":
        return MatrixSymbol.from_clifford(CliffordOp.identity(n), coeff)

    @staticmethod
    def from_clifford(op, factor: RationalXi | None = None) -> "MatrixSymbol":
        """Embed a polynomial fiber operator, optionally times a rational scalar."""
        f = factor if factor is not None else RationalXi.const(1)
        words = {}
        for w, p in op.words.items():
            r = _on_sphere([p * q for q in f.num], f.a, f.b, op.n)
            if not r.is_zero:
                words[w] = r
        return MatrixSymbol(op.n, words)

    # -- arithmetic --------------------------------------------------

    def scale(self, factor: RationalXi) -> "MatrixSymbol":
        return self._map(
            lambda r: _on_sphere(
                _mul_coeffs(r.num, factor.num), r.a + factor.a, r.b + factor.b, self.n
            )
        )

    def __matmul__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        self._check(other)
        pairs = (
            (*word_product(u, v), left, right)
            for u, left in self.words.items()
            for v, right in other.words.items()
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
