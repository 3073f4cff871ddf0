"""Properties of the package source itself."""

from __future__ import annotations

import ast
import pickle
import types
from fractions import Fraction as Q
from pathlib import Path

import pytest

import toricstab
from toricstab import (
    CurveSummary,
    DHMeasure,
    Fan,
    FanDiagnostics,
    Halfspace,
    MonomialIdealData,
    ParametricPolytope,
    PiecewisePolynomial,
    Polynomial,
    Polytope,
    ThresholdReport,
    ToricDivisor,
    ZariskiPair,
    parametric_family,
)
from toricstab.geometry import Chamber
from toricstab.thresholds import CandidateRow, DirectionRow, Verdict

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


def _p1() -> Fan:
    return Fan.make([[1], [-1]], [[0], [1]])


def _divisor(*coeffs) -> ToricDivisor:
    return ToricDivisor(_p1(), tuple(map(Q, coeffs)))


def _row() -> CandidateRow:
    return CandidateRow((1,), Q(1), Q(2), Q(1, 2))


def _segment(points=None, den=None) -> Polytope:
    seg = Polytope.from_halfspaces([Halfspace((1,), 0), Halfspace((-2,), 3)])
    if points is None:
        return seg
    return Polytope(seg.rows, seg.q, seg.dimension, points, den)


def _family(hypograph=True) -> ParametricPolytope:
    fam = parametric_family([Halfspace((1,), 0), Halfspace((-1,), 1)], [0, 1])
    if hypograph:
        return fam
    return ParametricPolytope(fam.rows, fam.q, fam.chambers, fam.t_max, fam.dimension, None)


def _curve() -> toricstab.TestCurve:
    return toricstab.TestCurve(_p1(), _divisor(1, 2), _divisor(1, 2), _divisor(0, 0), Q(1), "extended",
                     Q(2), (1, 2), 3, 4)


_P1 = "Fan(rays=((1,), (-1,)), max_cones=((0,), (1,)), dimension=1)"

# per value class: a value, a twin built apart that differs at most in fields
# left out of equality, and the value's repr, as frozen dataclasses gave them
VALUES = {
    "Halfspace": (
        lambda: Halfspace((1, 0), Q(1, 2)),
        lambda: Halfspace([1, 0], Q(2, 4)),
        "Halfspace(normal=(1, 0), offset=Fraction(1, 2))",
    ),
    "Polytope": (
        _segment,
        lambda: _segment(points=(), den=1),
        "Polytope(rows=(((1,), 0), ((-1,), 3)), q=2, dimension=1, points=((0,), (3,)), den=2)",
    ),
    "Chamber": (
        lambda: Chamber(Q(0), Q(1, 2)),
        lambda: Chamber(Q(0), Q(2, 4)),
        "Chamber(lo=Fraction(0, 1), hi=Fraction(1, 2))",
    ),
    "ParametricPolytope": (
        _family,
        lambda: _family(hypograph=False),
        "ParametricPolytope(rows=(((1,), 0, 0), ((-1,), 1, 1)), q=1, chambers=(Chamber("
        "lo=Fraction(0, 1), hi=Fraction(1, 1)),), t_max=Fraction(1, 1), dimension=1)",
    ),
    "Fan": (_p1, lambda: Fan(((1,), (-1,)), [(1,), (0,)], 1), _P1),
    "ToricDivisor": (
        lambda: _divisor(1, Q(1, 2)),
        lambda: _divisor(1, Q(2, 4)),
        f"ToricDivisor(fan={_P1}, coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "FanDiagnostics": (
        lambda: FanDiagnostics(True, True, True, True, True, ("ok",)),
        lambda: FanDiagnostics(True, True, True, True, True, ("ok",)),
        "FanDiagnostics(is_complete=True, is_smooth=True, is_simplicial=True, all_primitive=True, "
        "proper_intersections=True, messages=('ok',))",
    ),
    "ZariskiPair": (
        lambda: ZariskiPair(_divisor(1, 1), _divisor(0, 0)),
        lambda: ZariskiPair(_divisor(1, 1), _divisor(0, 0)),
        f"ZariskiPair(positive=ToricDivisor(fan={_P1}, coeffs=(Fraction(1, 1), Fraction(1, 1))), "
        f"negative=ToricDivisor(fan={_P1}, coeffs=(Fraction(0, 1), Fraction(0, 1))))",
    ),
    "Polynomial": (
        lambda: Polynomial.of(1, Q(1, 2)),
        lambda: Polynomial.from_ints([2, 1, 0], 2),
        "Polynomial(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    "PiecewisePolynomial": (
        lambda: PiecewisePolynomial((0, 1), (Polynomial.of(1),), continuous=False),
        lambda: PiecewisePolynomial((0, 1), (Polynomial.of(1),)),
        "PiecewisePolynomial(breakpoints=(Fraction(0, 1), Fraction(1, 1)), pieces=(Polynomial("
        "coeffs=(Fraction(1, 1),)),), continuous=False)",
    ),
    "DHMeasure": (
        lambda: DHMeasure(None, ((1, 1),)),
        lambda: DHMeasure(None, ((Q(2, 2), 1),)),
        "DHMeasure(density=None, atoms=((Fraction(1, 1), Fraction(1, 1)),))",
    ),
    "MonomialIdealData": (
        lambda: MonomialIdealData.make([[[1, 0]], [[0, 0]]]),
        lambda: MonomialIdealData((((1, 0),), ((0, 0),))),
        "MonomialIdealData(ideals=(((1, 0),), ((0, 0),)))",
    ),
    "TestCurve": (
        _curve,
        _curve,
        f"TestCurve(model={_P1}, l=ToricDivisor(fan={_P1}, coeffs=(Fraction(1, 1), Fraction(2, 1))), "
        f"d=ToricDivisor(fan={_P1}, coeffs=(Fraction(1, 1), Fraction(2, 1))), "
        f"k_rel=ToricDivisor(fan={_P1}, coeffs=(Fraction(0, 1), Fraction(0, 1))), "
        "tau_plus=Fraction(1, 1), kind='extended', total_volume=Fraction(2, 1), integral_nums=(1, 2), "
        "mass_num=3, integral_den=4)",
    ),
    "CurveSummary": (
        lambda: CurveSummary(Q(1), Q(3, 2), Q(1), Q(1), Q(-3), Q(-2)),
        lambda: CurveSummary(Q(1), Q(3, 2), Q(1), Q(1), Q(-3), Q(-2)),
        "CurveSummary(energy=Fraction(1, 1), omega_energy=Fraction(3, 2), jtilde=Fraction(1, 1), "
        "entropy=Fraction(1, 1), ricci_energy=Fraction(-3, 1), twisted_mabuchi=Fraction(-2, 1))",
    ),
    "CandidateRow": (
        _row,
        _row,
        "CandidateRow(u=(1,), log_discrepancy=Fraction(1, 1), s_value=Fraction(2, 1), "
        "quotient=Fraction(1, 2))",
    ),
    "DirectionRow": (
        lambda: DirectionRow("H", Q(1), None),
        lambda: DirectionRow("H", Q(1), None),
        "DirectionRow(name='H', pp_quotient=Fraction(1, 1), prime_quotient=None)",
    ),
    "Verdict": (
        lambda: Verdict("A <= B", Q(1), Q(2), True),
        lambda: Verdict("A <= B", Q(1), Q(2), True),
        "Verdict(description='A <= B', left=Fraction(1, 1), right=Fraction(2, 1), holds=True)",
    ),
    "ThresholdReport": (
        lambda: ThresholdReport(Q(1, 2), (1,), (_row(),), assumptions=("exact",)),
        lambda: ThresholdReport(Q(1, 2), (1,), (_row(),), (), (), ("exact",)),
        "ThresholdReport(delta_estimate=Fraction(1, 2), minimizer=(1,), candidates=(CandidateRow("
        "u=(1,), log_discrepancy=Fraction(1, 1), s_value=Fraction(2, 1), quotient=Fraction(1, 2)),), "
        "directions=(), verdicts=(), assumptions=('exact',))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class_keeps_repr_equality_and_immutability(name):
    make, make_twin, shown = VALUES[name]
    value, twin = make(), make_twin()
    assert type(value).__name__ == name
    assert repr(value) == shown
    for field in type(value).__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == shown
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(value)) == value
