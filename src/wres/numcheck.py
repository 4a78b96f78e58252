"""Floating-point oracle for the exact boundary calculus.

Everything here is rebuilt numerically, on purpose: fiber matrices are
dense complex arrays, inverses come from LAPACK instead of the Clifford
norm trick, the half-space projection is a contour integral around the
upper pole instead of symbolic partial fractions, and the normal
covariable integral is adaptive quadrature with a substitution-based
tail instead of the residue theorem.  Agreement with the exact engine
is then meaningful evidence; a shared bug would have to live in the
problem statement itself.

The oracle works per tangential direction: a scenario draws one unit
direction on the boundary cosphere together with numeric values for the
warp derivative and the drift components, and the case integrals are
compared against the exact trace integrals evaluated at that direction.
Sphere integration is validated separately by Monte-Carlo moments, so
quadrature-level agreement is not diluted by sampling noise.

Each operator is the product of its first-order factors (`_FACTORS`).
One dense `_compose` folds their symbol jets and one LAPACK inverse of
the composed top gives the leading two orders of the inverse.  A case
reads one of three inverse symbols of each operator: the leading value,
its normal derivative or the subleading value.

Dense work is done once per scenario: its cases share one fiber and one
pole expansion, whose members are the distinct inverse symbols the
operator pair reads.  Every first-order factor has the same top symbol
and the same normal jets, so the leading value and its normal derivative
depend only on how many factors an operator has; they are inverted once
per factor count, and each operator adds only its own subleading value.
Each member comes with the keys `(op, jet, order)` of every symbol it
is, and a `PoleExpansion` keeps one table from those keys to the
member's coefficients at the two poles.  It samples the members once per
pole on the stacked contour nodes and takes the coefficients of each as
it is computed, so only one factor count's leading values are held at a
time.  Because the trace is bilinear in the pole terms, each case
contracts tr(A_k B_m) of the two table entries it reads once, and the
quadrature integrand is a small scalar form in powers of 1/(x -+ i).
`line_quad` runs that integrand once per distinct quadrature node: the
real and imaginary passes `quad` makes, and both tails, read one cache
of the values computed so far in the same call.  The power vectors at a
node depend only on the node and the case's jet orders (k, j), not on
the scenario, and QUADPACK's bisection of the fixed intervals asks for
the same few hundred nodes in every case.  So each (k, j) keeps one
process-wide node table (`_NodeTable`): the nodes asked for so far, in
insertion order, with their power vectors stacked as rows in buffers
allocated once at the table's bound of `_NODE_LIMIT` rows.  A case
evaluates its integrand on every tabled node at once, in one stacked
product that numpy computes with the same per-node calls and so to the
same bits, and computes alone, then tables, only a node the table
lacks.  Each case counts its own stacked and alone node values and adds
both to its table once, after its quadrature, so no lock is taken per
node value served.  This is the same contour-and-quadrature computation
in another order of summation, built from the oracle's own dense
matrices: no exact-engine code enters it, so agreement still means what
it meant.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import cache, reduce
from math import factorial

import numpy as np
from scipy.integrate import quad

from .boundary import CaseReport, CaseTuple
from .exact import gen_h, gen_omega, gen_pi, gen_v, gen_vs, gen_xi

_POLE_ORDER = 10
_T_BOUND = 40.0  # line_quad's split point between the finite and tail parts
_CONTOUR_NODES = 64
_CONTOUR_RADIUS = 0.5

# Each operator as the product of its first-order factors, left to right.
# The engine keeps its own table; crosscheck fails if the two disagree.
_FACTORS = {
    "Dv": ("Dv",),
    "DvStar": ("DvStar",),
    "D3": ("DvStar", "Dv", "DvStar"),
}


def omega_area(d: int) -> float:
    """Surface volume of the unit sphere in d ambient coordinates."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass
class NumericScenario:
    """One reproducible random evaluation point for the oracle.

    v holds the interior drift components and vs the exterior ones: vs
    is v itself under the dual pairing, an independent draw of the same
    size when the dual is independent.  The symbolic volume OMEGA reads
    the area of the cosphere the directions are drawn from.
    """

    n: int
    seed: int
    direction: tuple
    h: float
    v: tuple
    vs: tuple

    @staticmethod
    def draw(n: int, seed: int, dual: bool = True) -> "NumericScenario":
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=n - 1)
        direction = tuple(raw / np.linalg.norm(raw))
        h = float(rng.uniform(-2.0, 2.0))
        v = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=n))
        if dual:
            vs = v
        else:
            vs = tuple(float(x) for x in rng.uniform(-1.0, 1.0, size=n))
        return NumericScenario(n, seed, direction, h, v, vs)

    def assignment(self) -> dict:
        """Numeric values for every boundary-relevant generator."""
        out = {
            gen_h(): self.h,
            gen_pi(): math.pi,
            gen_omega(): omega_area(self.n - 1),
        }
        for i, x in enumerate(self.direction, start=1):
            out[gen_xi(i)] = x
        for k, x in enumerate(self.v, start=1):
            out[gen_v(k)] = x
        for k, x in enumerate(self.vs, start=1):
            out[gen_vs(k)] = x
        return out


# ---------------------------------------------------------------------------
# numeric fiber operators


def _exterior(n: int, j: int) -> np.ndarray:
    dim = 1 << n
    bit = 1 << (j - 1)
    below = bit - 1
    out = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        if s & bit:
            continue
        sign = -1.0 if bin(s & below).count("1") % 2 else 1.0
        out[s | bit, s] = sign
    return out


class NumericFiber:
    """Dense numeric symbols of the operator family at one scenario."""

    def __init__(self, scenario: NumericScenario):
        self.scenario = scenario
        n = scenario.n
        self.n = n
        self.dim = 1 << n
        ext = [_exterior(n, j) for j in range(1, n + 1)]
        self.cliff = [e - e.T for e in ext]
        self.cliff_bar = [e + e.T for e in ext]
        self.c_tan = sum(
            x * c for x, c in zip(scenario.direction, self.cliff[: n - 1])
        )
        self.c_nor = self.cliff[n - 1]
        h = scenario.h
        # connection operators from the nonzero connection-matrix slots
        a_op = np.zeros((self.dim, self.dim), dtype=complex)
        b_op = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(n - 1):
            ci = self.cliff[i]
            cb_i, cb_n = self.cliff_bar[i], self.cliff_bar[n - 1]
            c_i, c_n = self.cliff[i], self.cliff[n - 1]
            a_op += (h / 8.0) * ci @ (cb_n @ cb_i - cb_i @ cb_n)
            b_op -= (h / 8.0) * ci @ (c_n @ c_i - c_i @ c_n)
        self.a_op = a_op
        self.b_op = b_op
        self.drift_int = sum(
            x * e.T for x, e in zip(scenario.v, ext)
        )
        self.drift_ext = sum(x * e for x, e in zip(scenario.vs, ext))

    def _first_order_symbol(self, variant: str, z) -> tuple:
        """Jet of one first-order operator's symbol at z.

        The tuple is (top, d_xn top, d_xin top, order-0 part): the order-1
        value, its normal position and normal covariable derivatives, and
        the order-0 value.
        """
        drift = self.drift_int if variant == "Dv" else self.drift_ext
        return (
            1j * (self.c_tan + z * self.c_nor),
            1j * (self.scenario.h / 2.0) * self.c_tan,
            1j * self.c_nor,
            self.a_op + self.b_op + drift,
        )

    def inverse_members(self, ops: tuple):
        """The distinct inverse symbols the operators in ops read, as one
        function of z.

        For z stacked along a leading axis the function yields one
        `(keys, value)` pair at a time: a stacked value and every
        `(op, jet, order)` that reads it.  For each factor count come the
        leading value and its normal derivative, which the operators with
        that count share, then the subleading value of each of them.  A
        consumer that reduces each value before taking the next holds one
        count's leading values at a time.
        """
        groups = {}
        for op in dict.fromkeys(ops):
            if op not in _FACTORS:
                raise ValueError(f"unknown operator selector {op!r}")
            groups.setdefault(len(_FACTORS[op]), []).append(op)

        def members(z):
            for count, group in groups.items():
                yield from self._group_members(count, group, z)

        return members

    def _group_members(self, count: int, group: list, z):
        """The keyed inverse members of the operators with one factor
        count: their shared leading value and its normal derivative, then
        the subleading value of each."""
        q = q_dxn = None
        for op in group:
            jets = (self._first_order_symbol(f, z) for f in _FACTORS[op])
            top, top_dxn, top_dxi, low = reduce(_compose, jets)
            if q is None:
                q = np.linalg.inv(top)
                q_dxn = -q @ top_dxn @ q
                yield [(other, 0, -count) for other in group], q
                yield [(other, 1, -count) for other in group], q_dxn
            yield [(op, 0, -count - 1)], -q @ (low @ q - 1j * top_dxi @ q_dxn)


def _compose(left: tuple, right: tuple) -> tuple:
    """Leading two orders of the composed symbol, with the top's jets.

    At the base point only the normal pairing survives at the subleading
    order: -i d_xin(left top) d_xn(right top).
    """
    lt, lxn, lxi, llow = left
    rt, rxn, rxi, rlow = right
    return (
        lt @ rt,
        lxn @ rt + lt @ rxn,
        lxi @ rt + lt @ rxi,
        lt @ rlow + llow @ rt - 1j * lxi @ rxn,
    )


# ---------------------------------------------------------------------------
# contour-based pole expansions


def _pole_coefficients(members, center: complex, order: int):
    """Principal-part coefficients of each member at center by contour
    trapezoid.

    members is called once, on all nodes stacked along a leading axis,
    and yields `(keys, samples)` pairs.  For each one this yields
    `(keys, coeffs)`, with coeffs the stack [A_1 .. A_order] and the
    member ~ sum A_k / (z - center)**k near the center; spectral accuracy
    in the node count for rational members.
    """
    m = _CONTOUR_NODES
    r = _CONTOUR_RADIUS
    theta = 2.0 * math.pi * np.arange(m) / m
    ring = r * np.exp(1j * theta)
    powers = ring[None, :] ** np.arange(1, order + 1)[:, None]

    def reduced(member):
        keys, samples = member
        coeffs = powers @ samples.reshape(m, -1) / m
        return keys, coeffs.reshape((order,) + samples.shape[1:])

    # map lets go of each member once it is reduced, before the next one
    # is computed; a loop variable would keep it alive meanwhile.
    return map(reduced, members(center + ring[:, None, None]))


def _derivative_factors(order: int, deriv: int) -> np.ndarray:
    """Factors c_k with d^deriv/dz^deriv (z-p)^-k = c_k (z-p)^-(k+deriv)."""
    k = np.arange(1, order + 1)
    factors = np.ones(order)
    for u in range(deriv):
        factors *= -(k + u)
    return factors


class PoleExpansion:
    """Members as principal parts at +i and -i; proper rational in between.

    members is sampled once per pole on the whole contour: it receives z
    of shape (nodes, 1, 1) and yields `(keys, samples)` pairs, each
    sample stack of shape (nodes, *s).  The fiber's inverse members are
    yielded so, because `@` and `np.linalg.inv` act on stacks.
    `terms[key]` holds the coefficients `(plus, minus)` at the two poles
    of the member that key reads, each of shape (_POLE_ORDER, *s).
    """

    def __init__(self, members):
        plus, minus = (
            {
                key: coeffs
                for keys, coeffs in _pole_coefficients(members, pole, _POLE_ORDER)
                for key in keys
            }
            for pole in (1j, -1j)
        )
        self.terms = {key: (plus[key], minus[key]) for key in plus}


# The exponents of 1/(x -+ i) that the integrand reads at node x: the
# upper pole's powers for the left factor, differentiated k times, and
# both poles' powers for the right factor, differentiated j + 1 times.
_POWERS = np.arange(1, _POLE_ORDER + 1)
_POLES = np.repeat([1j, -1j], _POLE_ORDER)
_UPPER_EXPONENTS = (_POWERS, _POWERS + 1)  # by k
_POLE_EXPONENTS = (np.tile(_POWERS + 1, 2), np.tile(_POWERS + 2, 2))  # by j
_NODE_LIMIT = 4096  # nodes per table; later ones are computed alone


class _NodeTable:
    """The quadrature nodes seen under one normal-jet pair (k, j), in
    insertion order, with the integrand's power vectors at each.

    Row i of W is w = (1/(x - i))**(m + k) and row i of U is
    u = (1/(x -+ i))**(m + j + 1), m = 1.._POLE_ORDER, at the i-th node.
    At most `_NODE_LIMIT` nodes are tabled, and W and U are allocated
    at that bound once, unwritten.  The table is shared by threads: rows
    are only appended, under a lock, and `snapshot` hands out read-only
    views of the rows written so far together with their nodes.
    `stacked` and `alone` total the node values that the cases run under
    (k, j) served from a stacked product and computed alone; each case
    counts its own and adds them once, through `tally`.
    """

    def __init__(self, k: int, j: int):
        self._upper = _UPPER_EXPONENTS[k]
        self._pole = _POLE_EXPONENTS[j]
        self._lock = threading.Lock()
        self._nodes = {}  # node -> None, in insertion order
        self._w = np.empty((_NODE_LIMIT, _POLE_ORDER), dtype=complex)
        self._u = np.empty((_NODE_LIMIT, 2 * _POLE_ORDER), dtype=complex)
        self.stacked = self.alone = 0

    def tally(self, stacked: int, alone: int) -> None:
        """Add one case's counts of stacked and alone node values."""
        with self._lock:
            self.stacked += stacked
            self.alone += alone

    def snapshot(self) -> tuple:
        """(nodes, W, U) for every node tabled so far."""
        with self._lock:
            n = len(self._nodes)
            nodes, w, u = tuple(self._nodes), self._w[:n], self._u[:n]
        w.flags.writeable = u.flags.writeable = False
        return nodes, w, u

    def values(self, gram: np.ndarray) -> dict:
        """w @ gram @ u at every tabled node, from one stacked product.

        numpy makes the same per-slice calls for the stacked product as
        for `w @ gram @ u` at one node, so each value is the same to the
        bit (a 2-D `W @ gram` or an einsum is not).  The values stay numpy
        scalars: `line_quad`'s tails divide them by a float, which a
        Python complex does in other arithmetic.
        """
        nodes, w, u = self.snapshot()
        return dict(zip(nodes, ((w[:, None, :] @ gram) @ u[:, :, None])[:, 0, 0]))

    def compute(self, x: float, gram: np.ndarray) -> complex:
        """w @ gram @ u at one node, tabling the node if there is room."""
        w = (1.0 / (x - 1j)) ** self._upper
        u = (1.0 / (x - _POLES)) ** self._pole
        with self._lock:
            n = len(self._nodes)
            if x not in self._nodes and n < _NODE_LIMIT:
                self._w[n], self._u[n] = w, u
                self._nodes[x] = None
        return w @ gram @ u


_NODE_TABLES = {(k, j): _NodeTable(k, j) for k in (0, 1) for j in (0, 1)}


def _trace_integrand(left: tuple, right: tuple, case: CaseTuple):
    """x -> coeff * tr(L(x) @ R(x)) for two entries of
    `PoleExpansion.terms`.

    L is the upper part of left, differentiated case.k times; R is all of
    right, differentiated case.j + 1 times.  The trace is bilinear in the
    pole terms, so it is contracted once:
    G[k, m] = coeff * f_k * g_m * tr(A_k B_m) over the upper terms A of
    L and the terms B of both poles of R, with f, g the derivative
    factors.  The integrand is then w(x) @ G @ u(x), where w and u hold
    the matching powers of 1/(x - i) and 1/(x -+ i).  Both entries hold
    `_POLE_ORDER` terms per pole.

    The values at every node already in the (case.k, case.j) node table
    come from one stacked product, `((W[:, None, :] @ G) @ U[:, :, None])`,
    bit for bit those of `w @ G @ u` node by node (`_NodeTable.values`).
    A node the table lacks is computed alone and added to the table.
    The integrand keeps the nodes it served each way in its own lists,
    `integrand.stacked` and `integrand.alone`, for `_line_integrals` to
    add to the table once the case is integrated.
    """
    gram = np.einsum("kab,mba->km", left[0], np.concatenate(right))
    gram *= _case_coefficient(case) * np.outer(
        _derivative_factors(_POLE_ORDER, case.k),
        np.tile(_derivative_factors(_POLE_ORDER, case.j + 1), 2),
    )
    table = _NODE_TABLES[case.k, case.j]
    values = table.values(gram)
    stacked, alone = [], []
    served = stacked.append

    def integrand(x: float) -> complex:
        value = values.get(x)
        if value is None:
            alone.append(x)
            return table.compute(x, gram)
        served(x)
        return value

    integrand.stacked, integrand.alone = stacked, alone
    return integrand


# ---------------------------------------------------------------------------
# the line integral


def line_quad(g) -> complex:
    """Integral of g over the real line for integrands with quadratic decay.

    The central interval [-T, T], T = _T_BOUND, is adaptive quadrature;
    each tail is mapped to (0, 1/T] by inversion and integrated the same
    way, so the result estimates the full improper integral.  With
    `complex_func=True`, `quad` integrates the real and imaginary parts
    in two runs, which bisect alike and so ask for largely the same
    nodes.  All six runs share one cache of g, local to the call and
    keyed by the node x on the real line, so g runs once per distinct
    node; a tail looks up g(s / t) under its node s / t.
    """
    at = cache(g)

    def part(fn, a, b):
        return quad(
            fn, a, b, limit=200, epsabs=1e-11, epsrel=1e-11, complex_func=True
        )[0]

    total = part(at, -_T_BOUND, _T_BOUND)
    upper = 1.0 / _T_BOUND
    for sign in (1.0, -1.0):
        total += part(lambda t, s=sign: at(s / t) / (t * t), 0.0, upper)
    return total


# ---------------------------------------------------------------------------
# case evaluation


def _case_coefficient(case: CaseTuple) -> complex:
    return (-1j) ** (case.alpha + case.j + case.k + 1) / (
        factorial(case.alpha) * factorial(case.j + case.k + 1)
    )


def _line_integrals(
    cases: list, scenario: NumericScenario, left_op: str, right_op: str
) -> list:
    """Quadrature values of several cases at one scenario.

    The cases share one fiber and one pole expansion.  Its members are
    the distinct inverse symbols of the pair (`inverse_members`), all
    from one sample per pole; a case reads the terms its operator, jet
    and order key.
    """
    fiber = NumericFiber(scenario)
    terms = PoleExpansion(fiber.inverse_members((left_op, right_op))).terms
    values = []
    for case in cases:
        if case.alpha > 0:
            values.append(0.0 + 0.0j)
            continue
        if case.j > 1 or case.k > 1:
            raise ValueError("needs higher normal jets than tracked")
        integrand = _trace_integrand(
            terms[left_op, case.j, case.r],
            terms[right_op, case.k, case.l],
            case,
        )
        values.append(line_quad(integrand))
        table = _NODE_TABLES[case.k, case.j]
        table.tally(len(integrand.stacked), len(integrand.alone))
    return values


def numeric_line_integral(
    case: CaseTuple, scenario: NumericScenario, left_op: str, right_op: str
) -> complex:
    """Quadrature value of one case integrand at the scenario direction.

    This is the oracle's counterpart of the exact trace integral before
    sphere integration: coefficient times the normal-covariable integral
    of the fiber trace.
    """
    return _line_integrals([case], scenario, left_op, right_op)[0]


def numeric_evaluate_case(
    case: CaseTuple,
    scenario: NumericScenario,
    left_op: str,
    right_op: str,
    directions: int = 32,
) -> tuple[complex, float]:
    """Full numeric case value: line quadrature averaged over sampled
    directions, scaled by the numeric sphere volume.

    Returns the estimate and a one-sigma sampling error bound.  The
    quadrature error per direction is negligible against the sampling
    term.
    """
    if case.alpha > 0:
        return 0.0 + 0.0j, 0.0
    d = scenario.n - 1
    rng = np.random.default_rng(scenario.seed)
    values = []
    for _ in range(directions):
        raw = rng.normal(size=d)
        sampled = replace(scenario, direction=tuple(raw / np.linalg.norm(raw)))
        values.append(
            numeric_line_integral(case, sampled, left_op, right_op)
        )
    area = omega_area(d)
    arr = np.array(values)
    estimate = area * arr.mean()
    spread = area * arr.std() / math.sqrt(len(arr))
    return complex(estimate), float(abs(spread))


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class CheckRow:
    """One exact-vs-oracle comparison."""

    case: CaseTuple
    exact: complex
    numeric: complex
    rel_err: float
    passed: bool
    spurious_imag: bool


def _relative_error(exact: complex, numeric: complex) -> float:
    scale = max(abs(exact), abs(numeric))
    if scale < 1e-8:
        return abs(exact - numeric)
    return abs(exact - numeric) / scale


def crosscheck(
    reports: list[CaseReport],
    scenario: NumericScenario,
    left_op: str,
    right_op: str,
    tolerance: float = 1e-6,
) -> list[CheckRow]:
    """Per-case oracle verdicts at one scenario direction.

    The exact side is the trace integral evaluated at the scenario's
    numeric assignment; the numeric side recomputes the same quantity by
    quadrature.  A case passes when the relative error is within
    tolerance; an exactly-real exact value with visible numeric
    imaginary part is flagged separately.
    """
    assignment = scenario.assignment()
    numerics = _line_integrals(
        [report.tuple for report in reports], scenario, left_op, right_op
    )
    rows = []
    for report, numeric in zip(reports, numerics):
        exact = report.trace_integral.eval_numeric(assignment)
        rel = _relative_error(exact, numeric)
        exact_is_real = all(
            c.im == 0 for c in report.trace_integral.terms.values()
        )
        spurious = exact_is_real and abs(numeric.imag) > 1e-8
        rows.append(
            CheckRow(
                case=report.tuple,
                exact=exact,
                numeric=numeric,
                rel_err=rel,
                passed=rel <= tolerance and not spurious,
                spurious_imag=spurious,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# sphere sampling


def sphere_moment_mc(
    d: int, exponents: tuple, samples: int, seed: int
) -> float:
    """Monte-Carlo estimate of a monomial moment over the unit sphere.

    exponents[i] is the power of the (i+1)-th coordinate; the estimate
    is normalized by the numeric sphere area, matching the exact
    moment-formula convention.
    """
    rng = np.random.default_rng(seed)
    total = 0.0
    count = 0
    chunk = 1 << 17
    while count < samples:
        take = min(chunk, samples - count)
        pts = rng.normal(size=(take, d))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        vals = np.ones(take)
        for i, e in enumerate(exponents):
            if e:
                vals = vals * pts[:, i] ** e
        total += float(vals.sum())
        count += take
    return omega_area(d) * total / samples
