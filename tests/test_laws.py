"""Laws that tie separate computations of the engine to each other.

Each law compares two routes to one value, or states a structural fact
of the boundary tables, without reading a frozen reference value.

The inverse of a product is the reversed product of the inverses.  The
code under test is `compose_symbols` and `invert_symbol`: the left side
inverts the composed symbol of D3 once, the right side inverts each
first-order factor and composes the inverses.  The law is checked on the
n=6 D3 only; for a single factor, as at n=4, both sides run the same
code, so it would prove nothing there.

The table laws follow from which symbol parts a case reads: the drift
enters only the order-zero part of a first-order operator, so the leading
order of Dv^{-1} and DvStar^{-1} is the same and only a case that reads
an order -2 part can tell the two apart.
"""

from functools import reduce

import pytest

from wres import jets
from wres.boundary import SUPPORTED_PAIRS, boundary_phi
from wres.exact import Poly, gen_h, gen_v
from wres.jets import compose_symbols, invert_symbol, inverse_symbols, operator_symbols

CONVENTIONS = [pytest.param(True, id="dual"), pytest.param(False, id="independent")]


def _rows(n, left, right, dual):
    _, reports = boundary_phi(n, left, right, dual=dual)
    return {r.tuple.as_tuple(): r.contribution for r in reports}


def _part_with(poly: Poly, generator) -> Poly:
    """The terms of poly whose monomial contains generator."""
    return Poly(
        {m: c for m, c in poly.terms.items() if any(g == generator for g, _ in m)}
    )


# ---------------------------------------------------------------------------
# symbol calculus


@pytest.mark.parametrize("dual", CONVENTIONS)
def test_inverse_of_a_product_is_the_reversed_product_of_inverses(dual):
    inverses = [
        invert_symbol(operator_symbols(6, factor, dual))
        for factor in reversed(jets._FACTORS["D3"])
    ]
    assert inverse_symbols(6, "D3", dual) == reduce(compose_symbols, inverses)


# ---------------------------------------------------------------------------
# boundary tables


@pytest.mark.parametrize("dual", CONVENTIONS)
def test_mixed_table_is_assembled_from_the_one_operator_tables(dual):
    mixed = _rows(4, "Dv", "DvStar", dual)
    dv = _rows(4, "Dv", "Dv", dual)
    dv_star = _rows(4, "DvStar", "DvStar", dual)
    assert list(mixed) == list(dv) == list(dv_star)
    for case, value in mixed.items():
        if case == (-2, -1, 0, 0, 0):
            assert value == dv[case], case
        elif case == (-1, -2, 0, 0, 0):
            assert value == dv_star[case], case
        else:
            assert value == dv[case] == dv_star[case], case


def test_interior_and_exterior_drift_differ_only_in_an_opposite_v_part():
    case = (-2, -1, 0, 0, 0)
    dv = _rows(4, "Dv", "Dv", True)[case]
    dv_star = _rows(4, "DvStar", "DvStar", True)[case]
    v = gen_v(4)
    assert dv - _part_with(dv, v) == dv_star - _part_with(dv_star, v)
    assert not _part_with(dv, v).is_zero
    assert _part_with(dv, v) == -_part_with(dv_star, v)


@pytest.mark.parametrize("dual", CONVENTIONS)
@pytest.mark.parametrize(
    "pair", sorted(SUPPORTED_PAIRS), ids=lambda pair: "-".join(map(str, pair))
)
def test_totals_are_free_of_the_warp_and_case_values_are_real(pair, dual):
    total, reports = boundary_phi(*pair, dual=dual)
    assert _part_with(total, gen_h()).is_zero
    for report in reports:
        coeffs = report.contribution.terms.values()
        assert all(c.im == 0 for c in coeffs), report.tuple
