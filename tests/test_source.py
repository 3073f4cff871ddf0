"""Properties of the package source itself."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import toricstab

SRC = Path(__file__).resolve().parent.parent / "src" / "toricstab"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; a cross-check must raise a
    # ToricStabError instead, so that it still runs and the CLI exits 3
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


PUBLIC_NAMES = """
AlreadyARay CurveSummary DHMeasure DegeneratePolytope DimensionMismatch Fan FanDiagnostics
Halfspace InfeasibleTau InvariantViolation MonomialIdealData NonPrimitive NotAmple NotBig
NotBigOnUnitInterval NotMonotone NotNefAndNotDecomposable NotPseudoEffective OutOfRange
ParametricPolytope PiecewisePolynomial Polynomial Polytope RangeTooShort TestCurve
ThresholdReport ToricDivisor ToricStabError UnboundedRegion ZariskiPair ZeroDivisor ZeroVector
alpha_energy anticanonical big_volume curve_summary delta_pp_quotient delta_prime_quotient
delta_quotient delta_search dh_measure divisor energy energy_from_dh entropy extended_curve
filtration_curve flag_curve_value g_pairing inequality_report intersection_number is_ample
is_nef jtilde linear_stats log_discrepancy mass parametric_family polytope_of positive_pairing
ray_divisor ricci_energy s_invariant stabilized_volume star_subdivision truncated_curve
twisted_mabuchi validate_fan vertices_of volume volume_curve zariski_decompose zero_divisor
""".split()


def test_public_surface_is_pinned():
    # the package's public names, submodules aside; a change to them shows in this list
    public = {name: value for name, value in vars(toricstab).items() if not name.startswith("_")}
    assert sorted(n for n, v in public.items() if not isinstance(v, types.ModuleType)) == PUBLIC_NAMES
