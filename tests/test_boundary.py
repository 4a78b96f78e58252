"""Boundary term: case enumeration, per-case evaluation, and the full
dimension-four tables against the frozen references."""

from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from wres import boundary, jets
from wres.baselines import boundary_reference, compare_cases, compare_total
from wres.boundary import (
    SUPPORTED_PAIRS,
    CaseTuple,
    boundary_phi,
    case_coefficient,
    enumerate_cases,
    evaluate_case,
)
from wres.exact import GaussianRational, Poly
from wres.jets import inverse_symbols
from wres.rational import MatrixSymbol

PAIRS_DIM4 = [
    ("Dv", "Dv"),
    ("DvStar", "DvStar"),
    ("Dv", "DvStar"),
]


def test_enumeration_dim4_first_order_pair():
    got = [c.as_tuple() for c in enumerate_cases(4, 1, 1)]
    assert got == [
        (-1, -1, 0, 0, 1),
        (-1, -1, 0, 1, 0),
        (-1, -1, 1, 0, 0),
        (-1, -2, 0, 0, 0),
        (-2, -1, 0, 0, 0),
    ]


def test_enumeration_dim6_first_against_third():
    got = [c.as_tuple() for c in enumerate_cases(6, 1, 3)]
    assert got == [
        (-1, -3, 0, 0, 1),
        (-1, -3, 0, 1, 0),
        (-1, -3, 1, 0, 0),
        (-1, -4, 0, 0, 0),
        (-2, -3, 0, 0, 0),
    ]


def test_enumeration_dim2_is_empty():
    assert enumerate_cases(2, 1, 1) == []


def test_enumeration_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_cases(5, 1, 1)
    with pytest.raises(ValueError):
        enumerate_cases(4, 0, 1)


def test_enumeration_satisfies_order_constraint():
    """The listed cases are every solution of the constraint, once each,
    in the documented order."""
    for n, p1, p2 in product(range(2, 13, 2), range(1, 5), range(1, 5)):
        cases = [c.as_tuple() for c in enumerate_cases(n, p1, p2)]
        # r + l - k - j - alpha - 1 = -n bounds every entry by n
        brute = {
            (r, l, k, j, r + l - k - j - 1 + n)
            for r, l in product(range(-n, 1 - p1), range(-n, 1 - p2))
            for k, j in product(range(n), repeat=2)
            if r + l - k - j - 1 + n >= 0
        }
        assert len(cases) == len(set(cases))
        assert set(cases) == brute
        # more derivatives first, then k and j ascending, then r descending
        order = [(-(k + j + alpha), k, j, -r) for r, _, k, j, alpha in cases]
        assert order == sorted(order)


def test_case_coefficient_values():
    minus_i = GaussianRational(0, -1)
    minus_half = GaussianRational(Fraction(-1, 2), 0)
    assert case_coefficient(CaseTuple(-1, -1, 0, 0, 1)) == GaussianRational(
        -1, 0
    )
    assert case_coefficient(CaseTuple(-1, -1, 0, 1, 0)) == minus_half
    assert case_coefficient(CaseTuple(-1, -1, 1, 0, 0)) == minus_half
    assert case_coefficient(CaseTuple(-1, -2, 0, 0, 0)) == minus_i
    assert case_coefficient(CaseTuple(-2, -1, 0, 0, 0)) == minus_i


def test_tangential_derivative_cases_are_structurally_zero():
    left = inverse_symbols(4, "Dv")
    case = CaseTuple(-1, -1, 0, 0, 1)
    report = evaluate_case(case, left, left, 4)
    assert report.structurally_zero
    assert report.trace_integral == Poly.zero()
    assert report.contribution == Poly.zero()
    assert report.coefficient == GaussianRational.of(-1)


def test_untracked_normal_jets_are_rejected():
    left = inverse_symbols(4, "Dv")
    with pytest.raises(ValueError):
        evaluate_case(CaseTuple(-1, -1, 0, 2, 0), left, left, 4)
    with pytest.raises(ValueError):
        evaluate_case(CaseTuple(-1, -1, 2, 0, 0), left, left, 4)


@pytest.mark.parametrize("left_op,right_op", PAIRS_DIM4)
@pytest.mark.parametrize("dual", [True, False])
def test_dim4_tables_match_reference(left_op, right_op, dual):
    """Every dimension-four pair reproduces its reference table exactly,
    case by case and in total, under both drift conventions."""
    total, reports = boundary_phi(4, left_op, right_op, dual)
    reference = boundary_reference(4, left_op, right_op, dual)
    assert reference is not None
    ref_cases, ref_total = reference
    assert {r.tuple.as_tuple() for r in reports} == set(ref_cases)
    assert compare_cases(reports, ref_cases) == []
    assert compare_total(total, ref_total, "boundary total") == []


@pytest.mark.parametrize("key", sorted(SUPPORTED_PAIRS))
@pytest.mark.parametrize("dual", [True, False])
def test_every_reference_lists_exactly_the_engine_cases(key, dual):
    """compare_cases reads each engine case from the reference table, so
    every table on record must list the engine's case tuples; only the
    independent-dual n = 6 table has none."""
    reference = boundary_reference(*key, dual)
    if reference is None:
        assert (key[0], dual) == (6, False)
        return
    _, reports = boundary_phi(*key, dual)
    assert sorted(r.tuple.as_tuple() for r in reports) == sorted(reference[0])


def test_an_unsupported_pair_has_no_reference():
    assert boundary_reference(6, "Dv", "Dv") is None


@pytest.mark.parametrize("left_op,right_op", PAIRS_DIM4)
def test_dim4_contributions_have_no_direction_dependence(left_op, right_op):
    # the cosphere integral must consume every tangential covariable
    _, reports = boundary_phi(4, left_op, right_op)
    for report in reports:
        for mono in report.contribution.terms:
            for gen, _ in mono:
                assert gen[0] != "XI"
        for mono in report.trace_integral.terms:
            for gen, _ in mono:
                assert gen[0] in ("XI", "H", "V", "VS", "PI")


@pytest.mark.parametrize(
    "left_op, right_op, dual, calls",
    [
        ("Dv", "Dv", True, 1),
        ("Dv", "Dv", False, 1),
        ("DvStar", "DvStar", True, 1),
        ("Dv", "DvStar", True, 2),
        ("Dv", "D3", True, 2),
        ("Dv", "D3", False, 2),
    ],
)
def test_boundary_phi_inverts_each_operator_once(
    monkeypatch, left_op, right_op, dual, calls
):
    """A pair of one operator reads one inversion on both sides, and the
    table is the one two separate full inversions give."""
    (n,) = [n for n, l, r in SUPPORTED_PAIRS if (l, r) == (left_op, right_op)]
    seen = []

    def counting(*args, **kwargs):
        seen.append(args)
        return inverse_symbols(*args, **kwargs)

    monkeypatch.setattr(boundary, "inverse_symbols", counting)
    total, reports = boundary_phi(n, left_op, right_op, dual=dual)
    assert len(seen) == calls

    left = inverse_symbols(n, left_op, dual)
    right = inverse_symbols(n, right_op, dual)
    want = [
        evaluate_case(case, left, right, n)
        for case in enumerate_cases(n, -left.order, -right.order)
    ]
    assert reports == want
    want_total = Poly.zero()
    for report in want:
        want_total = want_total + report.contribution
    assert total == want_total


# the orders of the supported pairs, and the probe family (n, 1, n - 3)
# whose orders sum to n - 2 like theirs
_ORDER_PAIRS = sorted(
    {(n, len(jets._FACTORS[l]), len(jets._FACTORS[r])) for n, l, r in SUPPORTED_PAIRS}
    | {(n, 1, n - 3) for n in range(4, 17, 2)}
)


@pytest.mark.parametrize("n, p1, p2", _ORDER_PAIRS)
def test_every_live_low_read_meets_the_partners_top(n, p1, p2):
    """The boundary tables compute each inverse's order below its top
    only on the top's words; that is exact because every live case that
    reads such a part reads the partner's top against it."""
    cases = enumerate_cases(n, p1, p2)
    low_reads = 0
    for case in cases:
        if case.alpha:
            continue
        if case.r == -p1 - 1:
            low_reads += 1
            assert (case.l, case.k) == (-p2, 0), case
        if case.l == -p2 - 1:
            low_reads += 1
            assert (case.r, case.j) == (-p1, 0), case
    assert low_reads == 2


def _unpaired_low_reads(cases, left_order, right_order):
    """The live cases that read one factor's order below its top against
    anything but the partner's top: a frozen copy of the scan that
    boundary_phi ran on every table before its order check."""
    out = []
    for case in cases:
        if case.alpha:
            continue
        left_low = case.r == left_order - 1
        right_low = case.l == right_order - 1
        if (left_low and (case.l, case.k) != (right_order, 0)) or (
            right_low and (case.r, case.j) != (left_order, 0)
        ):
            out.append(case)
    return out


def test_order_check_refuses_exactly_the_pairs_the_scan_refused():
    """boundary_phi's order check, p1 + p2 < n - 2, is the old scan: on
    every even n to 16 and every p1, p2 to n + 2 the scan finds a case
    reading a subleading part against more than the partner's top
    exactly there.  Orders summing to less than n - 2 leave room for
    cases that read two subleading parts, or one against a
    differentiated top."""
    for n in range(2, 17, 2):
        for p1, p2 in product(range(1, n + 3), repeat=2):
            unpaired = _unpaired_low_reads(enumerate_cases(n, p1, p2), -p1, -p2)
            assert bool(unpaired) == (p1 + p2 < n - 2), (n, p1, p2)
    unpaired = _unpaired_low_reads(enumerate_cases(6, 1, 1), -1, -1)
    assert CaseTuple(-2, -2, 0, 1, 0) in unpaired
    assert CaseTuple(-2, -1, 2, 0, 0) in unpaired


def test_boundary_phi_refuses_a_top_off_the_vector_words(monkeypatch):
    def shifted(*args, **kwargs):
        sym = inverse_symbols(*args, **kwargs)
        return replace(sym, top=sym.top + MatrixSymbol.identity(sym.top.n))

    monkeypatch.setattr(boundary, "inverse_symbols", shifted)
    with pytest.raises(ValueError, match="vector words"):
        boundary_phi(4, "Dv", "DvStar")


def test_boundary_phi_refuses_a_case_that_reads_low_against_low(monkeypatch):
    # two first-order inverses at n=6 leave room for one derivative more
    admitted = SUPPORTED_PAIRS | {(6, "Dv", "Dv")}
    monkeypatch.setattr(boundary, "SUPPORTED_PAIRS", admitted)
    with pytest.raises(ValueError, match="orders -1 and -1 sum to more than 2 - n"):
        boundary_phi(6, "Dv", "Dv")


def test_supported_pairs_are_frozen():
    assert SUPPORTED_PAIRS == {
        (4, "Dv", "Dv"),
        (4, "DvStar", "DvStar"),
        (4, "Dv", "DvStar"),
        (6, "Dv", "D3"),
    }


def test_unsupported_pair_raises():
    with pytest.raises(ValueError):
        boundary_phi(4, "Dv", "D3")
    with pytest.raises(ValueError):
        boundary_phi(8, "Dv", "Dv")
