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
orientation fixed by the half-space calculus), pi_minus the one at -i,
and the real-line integral is evaluated by closing the contour upward,
which is exact for any proper rational integrand with quadratic decay.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from .clifford import EMPTY_WORD, word_product
from .exact import (
    GaussianRational,
    Poly,
    _add_product_into,
    gen_omega,
    gen_pi,
    sphere_normal_form,
)

_PLUS_I = GaussianRational(0, 1)
_MINUS_I = GaussianRational(0, -1)
_TWO_I = GaussianRational(0, 2)


def _strip(num: list) -> list:
    while num and num[-1].is_zero:
        num.pop()
    return num


def _eval_at(num: Sequence[Poly], c: GaussianRational) -> Poly:
    acc = Poly.zero()
    for k in range(len(num) - 1, -1, -1):
        acc = acc * c + num[k]
    return acc


def _div_linear(num: Sequence[Poly], c: GaussianRational) -> tuple[list, Poly]:
    """Synthetic division by (xin - c): returns (quotient, remainder)."""
    if not num:
        return [], Poly.zero()
    quot = [Poly.zero()] * (len(num) - 1)
    carry = Poly.zero()
    for k in range(len(num) - 1, 0, -1):
        carry = num[k] + carry * c
        quot[k - 1] = carry
    rem = num[0] + carry * c
    return quot, rem


def _mul_coeffs(f: Sequence[Poly], g: Sequence[Poly]) -> list:
    if not f or not g:
        return []
    out = [{} for _ in range(len(f) + len(g) - 1)]
    for i, p in enumerate(f):
        for j, q in enumerate(g):
            _add_product_into(out[i + j], p, q)
    return [Poly._own(terms) for terms in out]


def _linear_power(c: GaussianRational, k: int) -> list:
    """Coefficient list of (xin + c)**k."""
    out = [Poly.const(1)]
    lin = [Poly.const(c), Poly.const(1)]
    for _ in range(k):
        out = _mul_coeffs(out, lin)
    return out


def _diff_coeffs(num: Sequence[Poly]) -> list:
    return [num[k] * k for k in range(1, len(num))]


class RationalXi:
    """N(xin) / ((xin - i)**a (xin + i)**b) in canonical form."""

    __slots__ = ("num", "a", "b")

    def __init__(self, num: Sequence[Poly], a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        coeffs = _strip([Poly.of(p) for p in num])
        if not coeffs:
            a = b = 0
        else:
            while a > 0:
                quot, rem = _div_linear(coeffs, _PLUS_I)
                if not rem.is_zero:
                    break
                coeffs = _strip(quot)
                a -= 1
                if not coeffs:
                    a = b = 0
                    break
            while b > 0 and coeffs:
                quot, rem = _div_linear(coeffs, _MINUS_I)
                if not rem.is_zero:
                    break
                coeffs = _strip(quot)
                b -= 1
            if not coeffs:
                a = b = 0
        self.num = tuple(coeffs)
        self.a = a
        self.b = b

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
        left = list(self.num)
        if a > self.a or b > self.b:
            left = _mul_coeffs(
                left,
                _mul_coeffs(
                    _linear_power(_MINUS_I, a - self.a),
                    _linear_power(_PLUS_I, b - self.b),
                ),
            )
        right = list(other.num)
        if a > other.a or b > other.b:
            right = _mul_coeffs(
                right,
                _mul_coeffs(
                    _linear_power(_MINUS_I, a - other.a),
                    _linear_power(_PLUS_I, b - other.b),
                ),
            )
        size = max(len(left), len(right))
        left += [Poly.zero()] * (size - len(left))
        right += [Poly.zero()] * (size - len(right))
        return RationalXi([l + r for l, r in zip(left, right)], a, b)

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
        dnum = _diff_coeffs(self.num)
        if self.a == 0 and self.b == 0:
            return RationalXi(dnum)
        # N'(xin-i)(xin+i) - N(a(xin+i) + b(xin-i)), over orders (a+1, b+1)
        norm = [Poly.const(1), Poly.zero(), Poly.const(1)]  # xin^2 + 1
        first = _mul_coeffs(dnum, norm) if dnum else []
        shift = [
            Poly.const(GaussianRational(0, self.a - self.b)),
            Poly.const(self.a + self.b),
        ]
        second = _mul_coeffs(list(self.num), _strip(shift))
        size = max(len(first), len(second))
        first += [Poly.zero()] * (size - len(first))
        second += [Poly.zero()] * (size - len(second))
        return RationalXi(
            [f - s for f, s in zip(first, second)], self.a + 1, self.b + 1
        )

    def map_coeffs(self, fn: Callable[[Poly], Poly]) -> "RationalXi":
        """Apply fn to every numerator coefficient, then re-canonicalize."""
        return RationalXi([fn(p) for p in self.num], self.a, self.b)

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


def _principal_part_coeffs(f: RationalXi, at_plus: bool) -> list:
    """Partial-fraction coefficients at the chosen pole.

    Returns [A_1 .. A_order]: f = sum A_k / (xin -+ i)**k + (rest).
    Uses the derivative recursion for N / (xin +- i)**other applied at
    the pole, which stays exact over the coefficient ring.
    """
    order = f.a if at_plus else f.b
    other = f.b if at_plus else f.a
    if order == 0:
        return []
    pole = _PLUS_I if at_plus else _MINUS_I
    away = _MINUS_I if at_plus else _PLUS_I  # root of the other factor
    coeffs = [Poly.zero()] * (order + 1)  # 1-indexed
    g = list(f.num)
    for m in range(order):
        value = _eval_at(g, pole)
        denom = (pole - away) ** (other + m)
        coeffs[order - m] = value.map_coeffs(
            lambda c, d=denom, f_=Fraction(1, factorial(m)): c / d * f_
        )
        if m + 1 < order:
            # g/(x - away)^(other+m) differentiates to
            # [g'(x - away) - (other+m) g] / (x - away)^(other+m+1)
            dg = _diff_coeffs(g)
            shifted = _mul_coeffs(dg, [Poly.const(-away), Poly.const(1)]) if dg else []
            size = max(len(shifted), len(g))
            shifted += [Poly.zero()] * (size - len(shifted))
            gg = list(g) + [Poly.zero()] * (size - len(g))
            g = _strip([s - q * (other + m) for s, q in zip(shifted, gg)])
    return coeffs


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
    coeffs = _principal_part_coeffs(f, at_plus=True)
    if not coeffs:
        return RationalXi([])
    # sum A_k / (xin - i)**k over common denominator (xin - i)**a
    a = f.a
    num = [Poly.zero()] * a
    for k in range(1, a + 1):
        if coeffs[k].is_zero:
            continue
        for pos, p in enumerate(_linear_power(_MINUS_I, a - k)):
            num[pos] = num[pos] + p * coeffs[k]
    return RationalXi(num, a, 0)


def pi_minus(f: RationalXi) -> RationalXi:
    """Keep the principal part at -i; pi_plus + pi_minus restores a proper input."""
    if f.is_zero:
        return f
    _require_proper(f, "pi_minus")
    coeffs = _principal_part_coeffs(f, at_plus=False)
    if not coeffs:
        return RationalXi([])
    b = f.b
    num = [Poly.zero()] * b
    for k in range(1, b + 1):
        if coeffs[k].is_zero:
            continue
        for pos, p in enumerate(_linear_power(_PLUS_I, b - k)):
            num[pos] = num[pos] + p * coeffs[k]
    return RationalXi(num, 0, b)


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
    if f.a == 0:
        return Poly.zero()
    residue = _principal_part_coeffs(f, at_plus=True)[1]
    return Poly.gen(gen_pi()) * residue * _TWO_I


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


class MatrixSymbol:
    """Sparse linear combination of Clifford words over RationalXi,
    cosphere-reduced.

    Words are those of clifford.CliffordOp.  Every construction path
    funnels through _normalized, or reduces its coefficients the same way
    itself (the product), so numerator coefficients stay in sphere normal
    form and pole cancellations that are only visible modulo the cosphere
    relation are actually performed.
    """

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: dict | None = None, *, reduce: bool = True):
        self.n = n
        if words and reduce:
            words = self._normalized(n, words)
        self.words = words or {}

    @staticmethod
    def _normalized(n: int, words: dict) -> dict:
        out = {}
        for w, r in words.items():
            rr = r.map_coeffs(lambda p: sphere_normal_form(p, n))
            if not rr.is_zero:
                out[w] = rr
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(n: int) -> "MatrixSymbol":
        return MatrixSymbol(n)

    @staticmethod
    def identity(n: int, coeff: RationalXi | None = None) -> "MatrixSymbol":
        c = coeff if coeff is not None else RationalXi.const(1)
        if c.is_zero:
            return MatrixSymbol(n)
        return MatrixSymbol(n, {EMPTY_WORD: c})

    @staticmethod
    def from_clifford(op, factor: RationalXi | None = None) -> "MatrixSymbol":
        """Embed a polynomial fiber operator, optionally times a rational scalar."""
        words = {}
        for w, p in op.words.items():
            r = RationalXi([p])
            if factor is not None:
                r = r * factor
            if not r.is_zero:
                words[w] = r
        return MatrixSymbol(op.n, words)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        self._check(other)
        out = dict(self.words)
        for w, r in other.words.items():
            acc = out.get(w)
            s = r if acc is None else acc + r
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s
        return MatrixSymbol(self.n, out)

    def __sub__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        return self + (-other)

    def __neg__(self) -> "MatrixSymbol":
        return MatrixSymbol(
            self.n, {w: -r for w, r in self.words.items()}, reduce=False
        )

    def __matmul__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        self._check(other)
        # sum raw numerator products per word and denominator signature
        sums: dict = {}
        for u, left in self.words.items():
            signed = {1: left.num, -1: [-p for p in left.num]}
            for v, right in other.words.items():
                sign, w = word_product(u, v)
                cell = sums.get(w)
                if cell is None:
                    cell = sums[w] = {}
                sig = (left.a + right.a, left.b + right.b)
                acc = cell.get(sig)
                if acc is None:
                    acc = cell[sig] = []
                size = len(left.num) + len(right.num) - 1
                acc.extend({} for _ in range(size - len(acc)))
                for i, p in enumerate(signed[sign]):
                    for j, q in enumerate(right.num):
                        _add_product_into(acc[i + j], p, q)
        # lift each word's sums to common pole orders, add them, reduce on
        # the cosphere, then canonicalize once; sphere reduction and the
        # pole-divisibility test are both linear in the coefficients, so
        # this is the canonical form of the reduced sum
        n = self.n
        out: dict = {}
        for w, cell in sums.items():
            if len(cell) == 1:
                ((top_a, top_b), total), = cell.items()
            else:
                top_a = max(a for a, _ in cell)
                top_b = max(b for _, b in cell)
                total = []
                for (a, b), acc in cell.items():
                    lift = _mul_coeffs(
                        _linear_power(_MINUS_I, top_a - a),
                        _linear_power(_PLUS_I, top_b - b),
                    )
                    size = len(acc) + len(lift) - 1
                    total.extend({} for _ in range(size - len(total)))
                    for i, terms in enumerate(acc):
                        p = Poly._own(terms)
                        for k, q in enumerate(lift):
                            _add_product_into(total[i + k], p, q)
            num = [sphere_normal_form(Poly._own(terms), n) for terms in total]
            s = RationalXi(num, top_a, top_b)
            if not s.is_zero:
                out[w] = s
        return MatrixSymbol(n, out, reduce=False)

    def scale(self, factor: RationalXi) -> "MatrixSymbol":
        if factor.is_zero:
            return MatrixSymbol(self.n)
        return MatrixSymbol(
            self.n, {w: r * factor for w, r in self.words.items()}
        )

    def _check(self, other: "MatrixSymbol") -> None:
        if self.n != other.n:
            raise ValueError(f"fiber dimension mismatch: {self.n} vs {other.n}")

    # -- calculus ----------------------------------------------------

    def d_xi_n(self) -> "MatrixSymbol":
        return MatrixSymbol(self.n, {w: r.d_xi_n() for w, r in self.words.items()})

    def pi_plus(self) -> "MatrixSymbol":
        return MatrixSymbol(self.n, {w: pi_plus(r) for w, r in self.words.items()})

    def pi_minus(self) -> "MatrixSymbol":
        return MatrixSymbol(self.n, {w: pi_minus(r) for w, r in self.words.items()})

    def trace(self) -> RationalXi:
        """Trace on the fiber: 2**n times the coefficient of the empty word."""
        return self.words.get(EMPTY_WORD, RationalXi.zero()).scale(1 << self.n)

    # -- queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.words

    def __eq__(self, other):
        if not isinstance(other, MatrixSymbol):
            return NotImplemented
        return self.n == other.n and self.words == other.words

    def __repr__(self):
        return f"MatrixSymbol(n={self.n}, words={len(self.words)})"
