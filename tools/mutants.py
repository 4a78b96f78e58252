"""Mutation checks as data: each row breaks the program in one known way
and names the tests that must catch it.

    python3 tools/mutants.py            # every row
    python3 tools/mutants.py NAME ...   # the named rows

For each row a run copies the checkout to a temporary directory, replaces
the row's old text by its new text in the copy, runs only the row's tests
there and prints `caught` when every one of them fails, else `missed`
with the tests that passed.  It never edits the checkout.  The exit
status is nonzero when any row is missed.

`tests/test_mutants.py` checks, without running anything, that every old
text occurs exactly once in its file and that every named test exists.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple  # pytest ids, `file::function`


MUTANTS = (
    Mutant(
        "node-tally-dropped",
        "src/wres/numcheck.py",
        "        table.tally(len(integrand.stacked), len(integrand.alone))\n",
        "",
        (
            "tests/test_numcheck.py::test_power_memos_hit_on_the_benchmark_scenarios",
            "tests/test_numcheck.py::"
            "test_power_memos_leak_no_state_between_scenarios",
        ),
    ),
    Mutant(
        "node-tabled-outside-lock",
        "src/wres/numcheck.py",
        "        with self._lock:\n"
        "            n = len(self._nodes)\n"
        "            if x not in self._nodes",
        "        if True:\n"
        "            n = len(self._nodes)\n"
        "            if x not in self._nodes",
        (
            "tests/test_numcheck.py::"
            "test_a_node_is_tabled_only_under_its_tables_lock",
        ),
    ),
    Mutant(
        "node-limit-ignored",
        "src/wres/numcheck.py",
        "if x not in self._nodes and n < _NODE_LIMIT:",
        "if x not in self._nodes:",
        ("tests/test_numcheck.py::test_power_memos_stay_bounded",),
    ),
    Mutant(
        "quad-reads-real-part-only",
        "src/wres/numcheck.py",
        "epsrel=1e-11, complex_func=True",
        "epsrel=1e-11",
        ("tests/test_numcheck.py::test_line_quad_matches_frozen_copy",),
    ),
    Mutant(
        "node-values-as-2d-product",
        "src/wres/numcheck.py",
        "((w[:, None, :] @ gram) @ u[:, :, None])[:, 0, 0]",
        "(w @ gram * u).sum(1)",
        (
            "tests/test_numcheck.py::"
            "test_stacked_product_is_bitwise_the_per_node_product",
            "tests/test_numcheck.py::"
            "test_memoized_integrand_matches_frozen_copy_on_every_node",
        ),
    ),
    Mutant(
        "node-values-as-python-complex",
        "src/wres/numcheck.py",
        "((w[:, None, :] @ gram) @ u[:, :, None])[:, 0, 0]",
        "((w[:, None, :] @ gram) @ u[:, :, None])[:, 0, 0].tolist()",
        (
            "tests/test_numcheck.py::"
            "test_stacked_product_is_bitwise_the_per_node_product",
            "tests/test_numcheck.py::"
            "test_memoized_integrand_matches_frozen_copy_on_every_node",
            "tests/test_cli.py::test_crosscheck_output_is_byte_identical_to_capture",
        ),
    ),
    Mutant(
        "inverse-inner-sum-on-asked-words",
        "src/wres/jets.py",
        "_compose_low(w, p.low, partial, inner)",
        "_compose_low(w, p.low, partial, words)",
        (
            "tests/test_jets.py::"
            "test_inversion_on_a_word_set_is_the_full_inversion_there",
        ),
    ),
    Mutant(
        "compose-normal-term-sign",
        "src/wres/jets.py",
        "minus_i = RationalXi.const(GR_MINUS_I)",
        "minus_i = RationalXi.const(GR_I)",
        (
            "tests/test_acceptance.py::test_criterion_3_symbol_suite",
            "tests/test_jets.py::test_second_inverse_matches_worked_formula",
            "tests/test_boundary.py::test_dim4_tables_match_reference",
            "tests/test_symbol_record.py::"
            "test_composite_and_inverse_symbols_match_the_jet_dicts",
            "tests/test_laws.py::"
            "test_totals_are_free_of_the_warp_and_case_values_are_real",
        ),
    ),
    Mutant(
        "fold-drops-leibniz-term",
        "src/wres/jets.py",
        "top_dxn @ right.top + top @ right.top_dxn",
        "top_dxn @ right.top",
        (
            "tests/test_jets.py::test_jet_multiplication_leibniz",
            "tests/test_symbol_record.py::"
            "test_composite_and_inverse_symbols_match_the_jet_dicts",
            "tests/test_laws.py::"
            "test_inverse_of_a_product_is_the_reversed_product_of_inverses",
        ),
    ),
    Mutant(
        "composite-low-on-asked-words",
        "src/wres/jets.py",
        "wanted.append(_preimage(wanted[-1], right.top))",
        "wanted.append(wanted[-1])",
        (
            "tests/test_jets.py::"
            "test_composite_on_a_word_set_is_the_full_composite_there",
            "tests/test_jets.py::"
            "test_inversion_on_a_word_set_is_the_full_inversion_there",
        ),
    ),
    Mutant(
        "canon-rotation-sign",
        "src/wres/exact.py",
        "turn = k * step % 4",
        "turn = k % 4",
        (
            "tests/test_rational.py::"
            "test_vanishing_at_a_pole_is_a_zero_division_remainder",
            "tests/test_boundary.py::test_dim4_tables_match_reference",
        ),
    ),
    Mutant(
        "residue-next-taylor-coefficient",
        "src/wres/rational.py",
        "t[f.a - 1] * _TWO_I",
        "t[f.a - 2] * _TWO_I",
        (
            "tests/test_rational.py::test_residue_is_the_principal_part_coefficient",
            "tests/test_rational.py::"
            "test_projections_and_line_integral_match_the_per_power_layout",
            "tests/test_boundary.py::test_dim4_tables_match_reference",
        ),
    ),
    Mutant(
        "xin-derivative-off-by-one",
        "src/wres/rational.py",
        "[c * k for k, c in enumerate(col) if k]",
        "[c * (k - 1) for k, c in enumerate(col) if k]",
        (
            "tests/test_rational.py::test_derivative_matches_finite_differences",
            "tests/test_rational.py::test_arithmetic_matches_the_per_power_layout",
            "tests/test_boundary.py::test_dim4_tables_match_reference",
        ),
    ),
    Mutant(
        "lift-roots-swapped",
        "src/wres/rational.py",
        "(_XIN_MINUS_I,) * da + (_XIN_PLUS_I,) * db",
        "(_XIN_PLUS_I,) * da + (_XIN_MINUS_I,) * db",
        (
            "tests/test_rational.py::test_rational_arithmetic_matches_numeric_evaluation",
            "tests/test_rational.py::test_arithmetic_matches_the_per_power_layout",
            "tests/test_rational.py::test_products_match_the_per_power_layout",
        ),
    ),
    Mutant(
        "boundary-drops-a-vector-word",
        "src/wres/boundary.py",
        "vectors = frozenset((1 << j, 0) for j in range(n))",
        "vectors = frozenset((1 << j, 0) for j in range(1, n))",
        (
            "tests/test_boundary.py::test_dim4_tables_match_reference",
            "tests/test_boundary.py::test_boundary_phi_inverts_each_operator_once",
        ),
    ),
    Mutant(
        "boundary-order-check-dropped",
        "src/wres/boundary.py",
        "    if left.order + right.order > 2 - n:\n",
        "    if False:\n",
        (
            "tests/test_boundary.py::"
            "test_boundary_phi_refuses_a_case_that_reads_low_against_low",
        ),
    ),
    Mutant(
        "endomorphism-drops-curvature",
        "src/wres/interior.py",
        "    yield 1, one, curvature_term(n)\n",
        "",
        (
            "tests/test_interior.py::"
            "test_endomorphism_is_the_sum_of_its_terms",
        ),
    ),
    Mutant(
        "interior-drops-drift-gradient",
        "src/wres/interior.py",
        "    yield from _gradient_products(n, variant, dual)\n",
        "",
        ("tests/test_interior.py::test_interior_trace_mixed_independent",),
    ),
    Mutant(
        "exterior-drift-sign-flipped",
        "src/wres/clifford.py",
        '"exterior": (Fraction(1, 2), Fraction(1, 2)),',
        '"exterior": (Fraction(-1, 2), Fraction(-1, 2)),',
        ("tests/test_interior.py::test_interior_trace_mixed_independent",),
    ),
    Mutant(
        "interior-reference-drops-cross-term",
        "src/wres/baselines.py",
        "            + over_k(lambda k: Poly.gen(gen_v(k)) * Poly.gen(vs(k)))\n"
        "            * Fraction(n - 2, 4)\n",
        "",
        ("tests/test_interior.py::test_interior_wres_matches_reference",),
    ),
    Mutant(
        "parse-report-meta-unchecked",
        "src/wres/cli.py",
        '        and type(meta.get("dim")) is int\n'
        '        and isinstance(meta.get("operators"), list)\n'
        '        and all(isinstance(op, str) for op in meta["operators"])\n',
        "",
        (
            "tests/test_cli.py::"
            "test_parse_report_rejects_report_shapes_it_never_writes",
        ),
    ),
    Mutant(
        "parse-report-coefficient-unchecked",
        "src/wres/cli.py",
        'if not all(_COEFFICIENT.fullmatch(term[part]) for part in ("re", "im")):',
        "if False:",
        (
            "tests/test_cli.py::"
            "test_parse_report_rejects_a_decimal_exponent_before_parsing_it",
        ),
    ),
    Mutant(
        "scalar-kept-unreduced",
        "src/wres/exact.py",
        "        g = gcd(x, y, d)\n",
        "        g = 1\n",
        (
            "tests/test_exact.py::test_every_stored_scalar_is_reduced",
            "tests/test_exact.py::test_scalar_field_axioms",
        ),
    ),
    Mutant(
        "scalar-division-conjugate-sign",
        "src/wres/exact.py",
        "(b * c - a * e) * q",
        "(a * e - b * c) * q",
        ("tests/test_exact.py::test_scalar_arithmetic_matches_pair_reference",),
    ),
    Mutant(
        "package-root-imports-oracle",
        "src/wres/__init__.py",
        '__version__ = "0.1.0"',
        '__version__ = "0.1.0"\nfrom . import numcheck',
        ("tests/test_package.py::test_exact_path_loads_no_numpy_or_scipy",),
    ),
)

_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"
)


def fails(checkout: Path, test: str) -> bool:
    """Whether test fails or errors in checkout.

    Each test runs in its own pytest process and is judged by the final
    summary line, so a test that ends its session early cannot hide
    another test's verdict.  pyproject.toml ignores the one warning
    hypothesis raises while reporting a failing test, which under
    `filterwarnings = error` ended the session with an internal error.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=checkout,
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    if re.search(r"\d+ (failed|errors?)\b", summary):
        return True
    if re.search(r"\d+ passed\b", summary):
        return False
    raise RuntimeError(f"{test}: no pytest verdict\n{proc.stdout}{proc.stderr}")


def run(mutant: Mutant) -> bool:
    """Whether every test of the row fails on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=_IGNORED)
        target = checkout / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.name}: old text is not in {mutant.path} once")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        passed = [test for test in mutant.tests if not fails(checkout, test)]
    verdict = "missed" if passed else "caught"
    print(f"{verdict:6} {mutant.name}", flush=True)
    for test in passed:
        print(f"       passed: {test}", flush=True)
    return not passed


def main(argv: list) -> int:
    rows = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in argv if name not in rows]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [rows[name] for name in argv] or list(MUTANTS)
    missed = [m.name for m in chosen if not run(m)]
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
