"""Exact coefficient arithmetic: Gaussian rationals and sparse polynomials.

Everything downstream (Clifford operators, the one-variable rational
calculus, residue integrals) runs over the two types defined here, so no
floating point ever enters the exact pipeline.

A scalar is a Gaussian rational (x + y*i)/d held as three reduced ints.  A
polynomial is a sparse map from monomials to nonzero scalars; a monomial
is a sorted tuple of (generator, exponent) pairs.  Generators are plain
tuples tagged by a short string:

    ("H",)             first normal derivative of the boundary warp factor
    ("XI", i)          i-th tangential unit covector component, 1 <= i <= n-1
    ("V", k)           k-th frame component of the drift vector field
    ("VS", k)          k-th frame component of the dual drift covector
    ("W", j, k)        frame components of the covariant derivative of v
    ("WS", j, k)       same for the dual covector
    ("R", i, j, k, l)  curvature coefficient, canonical index order
    ("S",)             scalar curvature at the base point
    ("PI",)            the circle constant, kept symbolic
    ("OMEGA",)         boundary sphere volume, kept symbolic
    ("XIN",)           the normal covariable, internal to the numerators
                       of rational.RationalXi and to the fiber operators
                       that jets embeds into them

Generators compare lexicographically as tuples (the tag is always a
string, so the ordering is total), which gives a canonical term order
for free.  "XIN" sorts after every other tag, so a power of XIN is
always the last factor of a monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Tuple, Union

Generator = Tuple
Monomial = Tuple[Tuple[Generator, int], ...]


class GaussianRational:
    """A complex number (x + y*i) / d, stored as three ints x, y and d.

    The triple is reduced, d > 0 and gcd(x, y, d) == 1, so each value has
    one triple and zero is (0, 0, 1).  Arithmetic is int arithmetic with
    one gcd per result, skipped when d == 1, and multiplication takes a
    shortcut for the purely real or imaginary scalars most of the pipeline
    holds.  The parts `re` and `im` are read-only: each is an int when it
    is integral, else a reduced Fraction.  The constructor takes parts as
    int, bool, Fraction or text that Fraction() reads.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.x, self.y, self.d = re, im, 1
            return
        for part in (re, im):
            if isinstance(part, (float, complex)):
                raise TypeError(f"cannot coerce {part!r} to a Gaussian rational")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        # both parts are reduced, so the triple is too
        self.x = re.numerator * (d // re.denominator)
        self.y = im.numerator * (d // im.denominator)
        self.d = d

    # -- constructors ------------------------------------------------

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return _raw(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {value!r} to a Gaussian rational")

    # -- parts and predicates ----------------------------------------

    @property
    def re(self):
        q = Fraction(self.x, self.d)
        return q.numerator if q.denominator == 1 else q

    @property
    def im(self):
        q = Fraction(self.y, self.d)
        return q.numerator if q.denominator == 1 else q

    @property
    def is_zero(self) -> bool:
        return not self.x and not self.y

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.x + other.x, self.y + other.y, d)
        return _reduced(self.x * e + other.x * d, self.y * e + other.y * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -GaussianRational.of(other)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return _raw(-self.x, -self.y, self.d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, e = self.x, self.y, other.x, other.y
        d = self.d * other.d
        if not b:
            return _reduced(a * c, a * e, d)
        if not a:
            return _reduced(-b * e, b * c, d)
        if not e:
            return _reduced(a * c, b * c, d)
        if not c:
            return _reduced(-b * e, a * e, d)
        return _reduced(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        # (a + b i)/p divided by (c + e i)/q is q (a + b i)(c - e i) / (p (c^2 + e^2))
        a, b, c, e, q, p = self.x, self.y, other.x, other.y, other.d, self.d
        if e:
            n = p * (c * c + e * e)
            return _reduced((a * c + b * e) * q, (b * c - a * e) * q, n)
        if not c:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if c < 0:
            a, b, c = -a, -b, -c
        return _reduced(a * q, b * q, p * c)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        return _power(self, k, GaussianRational(1))

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.x == other.x and self.y == other.y and self.d == other.d
        if isinstance(other, (int, Fraction)):
            # a Fraction is reduced too, so equal values agree term by term
            n, d = other.numerator, other.denominator
            return not self.y and self.x == n and self.d == d
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.y else hash(self.re)

    # -- conversion --------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return f"{self.re}"
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _power(base, k: int, one):
    """base ** k for k >= 0, by square-and-multiply from one."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _raw(x: int, y: int, d: int) -> GaussianRational:
    # skips reduction: the triple must already be reduced, with d > 0
    z = object.__new__(GaussianRational)
    z.x, z.y, z.d = x, y, d
    return z


def _reduced(x: int, y: int, d: int) -> GaussianRational:
    # (x + y i) / d for d > 0, reduced; it builds the scalar itself rather
    # than call _raw, because it is the exact engine's hottest call
    if d != 1:
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
    z = object.__new__(GaussianRational)
    z.x, z.y, z.d = x, y, d
    return z


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_MINUS_I = GaussianRational(0, -1)

Scalar = Union[int, Fraction, GaussianRational]


# ---------------------------------------------------------------------------
# generator constructors


def gen_h() -> Generator:
    return ("H",)


def gen_xi(i: int) -> Generator:
    if i < 1:
        raise ValueError(f"tangential index must be >= 1, got {i}")
    return ("XI", i)


def gen_v(k: int) -> Generator:
    return ("V", k)


def gen_vs(k: int) -> Generator:
    return ("VS", k)


def gen_w(j: int, k: int) -> Generator:
    return ("W", j, k)


def gen_ws(j: int, k: int) -> Generator:
    return ("WS", j, k)


def gen_s() -> Generator:
    return ("S",)


def gen_pi() -> Generator:
    return ("PI",)


def gen_omega() -> Generator:
    return ("OMEGA",)


XIN: Generator = ("XIN",)


def _split_xin(m: Monomial) -> Tuple[Monomial, int]:
    """(rest, k) for the monomial rest * XIN**k; XIN is its last factor."""
    if m and m[-1][0] == XIN:
        return m[:-1], m[-1][1]
    return m, 0


def gen_riemann(i: int, j: int, k: int, l: int) -> Tuple[int, Generator]:
    """Canonicalize a curvature index tuple.

    Returns (sign, generator); sign is 0 when the entry vanishes
    identically (repeated index inside an antisymmetric pair).  The
    canonical representative has i < j and k < l.
    """
    if i == j or k == l:
        return 0, ("R", 0, 0, 0, 0)
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if k > l:
        k, l, sign = l, k, -sign
    return sign, ("R", i, j, k, l)


def format_generator(gen: Generator) -> str:
    tag = gen[0]
    if len(gen) == 1:
        return tag
    return f"{tag}({','.join(str(x) for x in gen[1:])})"


def format_monomial(monomial: Monomial) -> str:
    """Generators joined by "*", each with its exponent when it is not 1."""
    if not monomial:
        return "1"
    parts = []
    for gen, exp in monomial:
        name = format_generator(gen)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def parse_monomial(text: str) -> Monomial:
    """Inverse of format_monomial: the sorted monomial that text names.

    Raises ValueError on any text that format_monomial does not write."""
    if text == "1":
        return ()
    pairs = []
    for piece in text.split("*"):
        name, _, exp = piece.partition("^")
        tag, _, args = name.rstrip(")").partition("(")
        indices = tuple(int(a) for a in args.split(",")) if args else ()
        pairs.append(((tag,) + indices, int(exp) if exp else 1))
    monomial = tuple(sorted(pairs))
    if (
        format_monomial(monomial) != text
        or len({gen for gen, _ in monomial}) != len(monomial)
        or any(exp < 1 or not gen[0] for gen, exp in monomial)
    ):
        raise ValueError(f"not a monomial as format_monomial writes it: {text!r}")
    return monomial


# ---------------------------------------------------------------------------
# polynomials


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    # merge two sorted (generator, exponent) association tuples
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 == g2:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        elif g1 < g2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _add_product_into(out: dict, p: "Poly", q: "Poly") -> None:
    """Add p * q into a terms dict in place, dropping cancelled terms.

    Lets a caller sum many products without building a Poly for each
    partial sum.
    """
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = _merge_monomials(m1, m2)
            c = c1 * c2
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                s = acc + c
                if s.is_zero:
                    del out[m]
                else:
                    out[m] = s


def _vanishes_at(num: "Poly", root: GaussianRational) -> bool:
    """Whether num, a polynomial in XIN, is zero at XIN = root, for root i or -i.

    Each power of root turns a coefficient's parts by a quarter turn,
    (x + y i) i = -y + x i, so the sum is taken per monomial of the other
    generators on the scalars' integer triples, with no product taken
    and no Poly built.
    """
    step = root.y  # root is step * i
    sums: dict = {}
    for m, c in num.terms.items():
        m, k = _split_xin(m)
        turn = k * step % 4
        x, y, d = c.x, c.y, c.d
        if turn == 1:
            x, y = -y, x
        elif turn == 2:
            x, y = -x, -y
        elif turn == 3:
            x, y = y, -x
        acc = sums.get(m)
        if acc is None:
            sums[m] = [x, y, d]
        elif acc[2] == d:
            acc[0] += x
            acc[1] += y
        else:
            e = acc[2]
            sums[m] = [acc[0] * d + x * e, acc[1] * d + y * e, e * d]
    return not any(x or y for x, y, _ in sums.values())


class Poly:
    """Sparse multivariate polynomial over Gaussian rationals.

    Immutable by convention: no method mutates self, and the terms dict
    must not be touched from outside.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, GaussianRational] | None = None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def _own(cls, terms: dict) -> "Poly":
        # adopt a freshly built terms dict without copying it
        p = object.__new__(cls)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(value: Scalar) -> "Poly":
        c = GaussianRational.of(value)
        if c.is_zero:
            return Poly()
        return Poly({(): c})

    @staticmethod
    def gen(generator: Generator, exp: int = 1, coeff: Scalar = 1) -> "Poly":
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of a polynomial generator")
        c = GaussianRational.of(coeff)
        if c.is_zero:
            return Poly()
        if exp == 0:
            return Poly({(): c})
        return Poly({((generator, exp),): c})

    @staticmethod
    def of(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            other = Poly.of(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                s = acc + c
                if s.is_zero:
                    del out[m]
                else:
                    out[m] = s
        return Poly._own(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Poly.of(other))

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __neg__(self):
        return Poly._own({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (GaussianRational, int, Fraction)):
                c = GaussianRational.of(other)
                if c.is_zero:
                    return Poly()
                return Poly._own({m: v * c for m, v in self.terms.items()})
            other = Poly.of(other)
        out: dict = {}
        _add_product_into(out, self, other)
        return Poly._own(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, Poly.const(1))

    # -- comparison --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    # -- evaluation --------------------------------------------------

    def eval_numeric(self, assignment: Mapping[Generator, complex]) -> complex:
        """Evaluate at a numeric point; unassigned generators are an error."""
        total = 0j
        # a fixed term order, so the float sum does not depend on how the
        # terms dict was built
        for m, c in self.sorted_terms():
            val = c.to_complex()
            for g, e in m:
                if g not in assignment:
                    raise KeyError(
                        f"no numeric value assigned to generator {format_generator(g)}"
                    )
                val *= assignment[g] ** e
            total += val
        return total

    # -- display -----------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __repr__(self):
        """The text form `--emit text` prints: terms in sorted order."""
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c!r}*{format_monomial(m)}" if m else f"{c!r}"
            for m, c in self.sorted_terms()
        )


# ---------------------------------------------------------------------------
# the cosphere relation


def sphere_normal_form(poly: Poly, n: int) -> Poly:
    """Reduce modulo sum(XI(i)^2 for 1 <= i <= n-1) == 1.

    The last tangential component XI(n-1) is eliminated in even powers:
    a term with XI(n-1)^e becomes the rest of the term times
    XI(n-1)^(e mod 2) times (1 - XI(1)^2 - ... - XI(n-2)^2)^(e // 2).
    One pass is enough, because that factor contains no XI(n-1), so no
    product it forms raises an exponent of XI(n-1) back to 2.  The
    result is the canonical representative, and the reduction is
    idempotent: an input already in normal form is returned as is.
    """
    last = gen_xi(n - 1)
    if all(e < 2 for m in poly.terms for g, e in m if g == last):
        return poly
    rest = Poly.const(1)
    for i in range(1, n - 1):
        rest = rest - Poly.gen(gen_xi(i), 2)
    powers = [Poly.const(1)]  # powers[k] = rest ** k
    out: dict = {}
    for m, c in poly.terms.items():
        exp = next((e for g, e in m if g == last), 0)
        half = exp // 2
        kept = m
        if half:
            # XI(n-1) stays only for an odd exponent, and then to the first power
            kept = tuple(
                (g, 1) if g == last else (g, e) for g, e in m if g != last or e % 2
            )
        while len(powers) <= half:
            powers.append(powers[-1] * rest)
        _add_product_into(out, Poly._own({kept: c}), powers[half])
    return Poly._own(out)
