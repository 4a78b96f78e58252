"""Exact noncommutative-residue calculus for statistical Hodge operators.

The package computes interior residue densities and boundary case tables
for drift-perturbed de Rham operators over symbolic coefficient rings,
with an independent floating-point oracle and a deterministic CLI.
"""

__version__ = "0.1.0"

from .baselines import (
    Discrepancy,
    boundary_reference,
    compare_cases,
    compare_total,
    interior_reference,
)
from .boundary import (
    SUPPORTED_PAIRS,
    CaseReport,
    CaseTuple,
    boundary_phi,
    case_coefficient,
    enumerate_cases,
    evaluate_case,
)
from .clifford import (
    CliffordOp,
    action_of,
    build_connection_ops,
    build_generator,
    normal_clifford,
    normal_clifford_bar,
    tangential_clifford,
)
from .exact import (
    GaussianRational,
    Poly,
    format_generator,
    gen_h,
    gen_omega,
    gen_pi,
    gen_riemann,
    gen_s,
    gen_v,
    gen_vs,
    gen_w,
    gen_ws,
    gen_xi,
    sphere_normal_form,
)
from .interior import (
    SQUARE_VARIANTS,
    build_endomorphism,
    interior_trace,
    interior_wres,
    residue_prefactor,
)
from .jets import (
    Symbol,
    composite_symbols,
    compose_symbols,
    inverse_symbols,
    operator_symbols,
)
from .numcheck import (
    CheckRow,
    NumericFiber,
    NumericScenario,
    crosscheck,
    line_quad,
    numeric_evaluate_case,
    numeric_line_integral,
    omega_area,
    sphere_moment_mc,
)
from .rational import (
    MatrixSymbol,
    RationalXi,
    integrate_real_line,
    pi_minus,
    pi_plus,
    sphere_integrate,
)
