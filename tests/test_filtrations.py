from __future__ import annotations

import functools
import json
import math
import random
import re
from fractions import Fraction as Q

import pytest

from toricstab import (
    DHMeasure,
    Fan,
    MonomialIdealData,
    PiecewisePolynomial,
    Polynomial,
    anticanonical,
    big_volume,
    divisor,
    dh_measure,
    energy_from_dh,
    filtration_curve,
    flag_curve_value,
    is_ample,
    polytope_of,
    ray_divisor,
    star_subdivision,
    volume_curve,
)
from toricstab import filtrations, geometry, thresholds, toric, volume_fn
from toricstab.geometry import Chamber, Halfspace, parametric_family, triangulation, volume
from toricstab.cli import main
from toricstab.errors import InfeasibleTau, InvariantViolation, NotMonotone, ZeroVector
from toricstab.thresholds import primitive_candidates
from toricstab.volume_fn import _chamber_sum

from oracles import (
    filtration_family, fit_polynomial, polytope_at, product_fan, seeded_ample, superlevel_volume_curve,
    weighted_projective,
)


def test_filtration_curve_p2_ray(p2):
    curve = filtration_curve(p2, anticanonical(p2), (1, 0))
    assert curve.domain == (0, 3)
    assert curve.normalized().pieces == (Polynomial.of(9, -6, 1),)


def test_filtration_curve_p2_interior_direction(p2):
    curve = filtration_curve(p2, anticanonical(p2), (1, 1))
    assert curve.domain == (0, 3)
    assert curve(0) == 9
    assert curve.normalized().pieces == (Polynomial.of(9, 0, -1),)


def test_filtration_curve_zero_vector(p2):
    with pytest.raises(ZeroVector):
        filtration_curve(p2, anticanonical(p2), (0, 0))


def test_filtration_matches_volume_curve_on_rays(surfaces):
    # the two volume routes agree as piecewise polynomials, ray by ray
    for fan in surfaces.values():
        k = anticanonical(fan)
        for i, ray in enumerate(fan.rays):
            slice_curve = filtration_curve(fan, k, ray).normalized()
            divisor_curve, _tau = volume_curve(fan, k, ray_divisor(fan, i))
            assert slice_curve == divisor_curve.normalized()


def test_filtration_matches_volume_curve_after_subdivision(p2):
    from toricstab import star_subdivision

    fan, pull, _k = star_subdivision(p2, (1, 1))
    k = pull(anticanonical(p2))
    slice_curve = filtration_curve(fan, k, (1, 1)).normalized()
    divisor_curve, _tau = volume_curve(fan, k, ray_divisor(fan, 3))
    assert slice_curve == divisor_curve.normalized()


# ---- the closed-form filtration curves ---------------------------------------

def _oracle_models(p2, f1, p1xp1, p3):
    """Six models, each with its anticanonical class and one other big and nef class."""
    blp3, _pull, _k = star_subdivision(p3, (1, 1, 1))
    refined_f1, _pull, _k = star_subdivision(f1, (1, 2))
    others = {
        "p2": (p2, (1, 0, 0)),
        "f1": (f1, (0, 1, 2, 0)),
        "p1xp1": (p1xp1, (2, 1, 0, 0)),
        "p3": (p3, (1, 0, 0, 0)),
        "blp3": (blp3, (0, 0, 1, 2, 0)),
        "refined_f1": (refined_f1, (1, 1, 3, 0, 0)),
    }
    for name, (fan, coeffs) in others.items():
        for l in (anticanonical(fan), divisor(fan, coeffs)):
            assert is_ample(fan, l), (name, l)
            yield name, fan, l


def sampled_family_curve(pp):
    """t -> n! * volume(P_t) on the family's chambers, fitted through Polytope volumes.

    Each piece is fitted through both ends of its chamber, shared with its
    neighbours, and n - 1 points inside it.
    """
    n = pp.dimension
    sampled = functools.cache(lambda x: math.factorial(n) * volume(polytope_at(pp, x)))
    pieces = []
    for chamber in pp.chambers:
        xs = [chamber.lo, *chamber.sample_points(n - 1), chamber.hi]
        pieces.append(fit_polynomial(xs, [sampled(x) for x in xs]))
    return PiecewisePolynomial.merged([pp.chambers[0].lo, *(ch.hi for ch in pp.chambers)], pieces)


def test_filtration_curve_matches_family_oracle(p2, f1, p1xp1, p3):
    # the closed form against sampled volumes on the chambers of the
    # parametric slice family, on every primitive direction of the radius-2 ball
    for name, fan, l in _oracle_models(p2, f1, p1xp1, p3):
        for u in primitive_candidates(fan.dimension, 2):
            oracle = sampled_family_curve(filtration_family(fan, l, u))
            assert filtration_curve(fan, l, u) == oracle, (name, l.coeffs, u)


def test_filtration_curve_equals_the_slice_family_curve(p2, f1, p1xp1, p3):
    # the closed form on the slice family's hypograph against the superlevel
    # route on P_L's own triangulation, exactly, on every candidate of radius
    # 3 in dimension 2 and radius 2 in dimension 3
    blp3, pull, _k = star_subdivision(p3, (1, 1, 1))
    f1xp1 = Fan.make(
        [[*ray, 0] for ray in f1.rays] + [[0, 0, 1], [0, 0, -1]],
        [[*cone, end] for cone in f1.max_cones for end in (4, 5)],
    )
    models = [(fan, anticanonical(fan)) for fan in (p2, f1, p1xp1, p3, f1xp1, blp3)]
    models.append((blp3, pull(anticanonical(p3))))
    for fan, l in models:
        for u in primitive_candidates(fan.dimension, {2: 3, 3: 2}[fan.dimension]):
            oracle = superlevel_volume_curve(polytope_of(fan, l), u)
            assert filtration_curve(fan, l, u) == oracle, (fan.rays, l.coeffs, u)


def test_filtration_family_is_its_fraction_route_twin(monkeypatch, surfaces, p3):
    # the slice family filtration_curve builds, P_L's rows at rate 0 and the
    # slice row over lcm(p.q, den of min), against the Fraction route, P_L's
    # halfspaces and the slice halfspace put over one q by parametric_family:
    # rows, q and chambers, on the fixtures' fans, P(1,1,2), P2xP2 and F1xF1,
    # for -K and seeded ample L, along every primitive direction of radius 1,
    # and along the signed unit vectors on the fourfolds
    built = []
    real = filtrations.family_volume_curve

    def captured(pp):
        built.append(pp)
        return real(pp)

    monkeypatch.setattr(filtrations, "family_volume_curve", captured)
    fans = [*surfaces.values(), p3, weighted_projective([1, 1, 2]),
            product_fan(surfaces["p2"], surfaces["p2"]), product_fan(surfaces["f1"], surfaces["f1"])]
    families = 0
    for fan in fans:
        for l in [anticanonical(fan), *seeded_ample(fan, 46, 2)]:
            p = polytope_of(fan, l)
            n = fan.dimension
            units = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
            for u in units if n == 4 else primitive_candidates(n, 1):
                filtration_curve(fan, l, u)
                got = built.pop()
                rates = [0] * len(p.rows) + [1]
                want = parametric_family([*p.halfspaces, Halfspace(u, -p.support_min(u))], rates)
                assert (got.rows, got.q, got.chambers, got.t_max) == (want.rows, want.q, want.chambers, want.t_max)
                families += 1
    assert families == 3 * (3 * 8 + 26 + 8 + 2 * 8)


def test_simplex_above_a_chamber_counts_whole(f1):
    # along (0, -1) one simplex of P_{-K}'s triangulation has heights (2, 3, 3):
    # on the chamber [0, 2] it lies wholly above every level and counts whole
    # in the superlevel route, which meets the slice family's curve
    k, u = anticanonical(f1), (0, -1)
    p = polytope_of(f1, k)
    heights = [sum(a * b for a, b in zip(num, u)) for num in p.points]
    low = min(heights)
    assert [2, 3, 3] in [sorted(heights[i] - low for i in s) for _d, s in triangulation(p)]
    curve = filtration_curve(f1, k, u)
    assert curve.breakpoints == (0, 2, 3)
    assert curve.pieces == (Polynomial.of(8, 0, -1), Polynomial.of(12, -4))
    assert curve == superlevel_volume_curve(p, u)


def test_truncated_power_ties():
    # knots (0, 0, 1) and (0, 1, 1) on the chamber (0, 1): the triangle fractions
    # above C are (1 - C)^2 and 1 - C^2
    def on_chamber(knots, top, k):
        return _chamber_sum([(1, knots)], 1, Chamber(Q(0), Q(top)), k).coeffs

    assert on_chamber([0, 0, 1], 1, 2) == (1, -2, 1)
    assert on_chamber([0, 1, 1], 1, 2) == (1, 0, -1)
    # a triple tie at the bottom and at the top of P^3's width 4
    assert on_chamber([0, 0, 0, 4], 4, 3) == (1, Q(-3, 4), Q(3, 16), Q(-1, 64))
    assert on_chamber([0, 4, 4, 4], 4, 3) == (1, 0, 0, Q(-1, 64))


def test_filtration_curve_triangle_ties(p2):
    # the ray divisor on (-1, -1) has the standard triangle as section polytope
    hyperplane = ray_divisor(p2, 2)
    assert set(polytope_of(p2, hyperplane).vertices) == {(0, 0), (1, 0), (0, 1)}
    assert filtration_curve(p2, hyperplane, (0, 1)).pieces == (Polynomial.of(1, -2, 1),)
    assert filtration_curve(p2, hyperplane, (1, 1)).pieces == (Polynomial.of(1, 0, -1),)


def test_filtration_curve_p3_triple_tie(p3):
    # <v, (1,0,0)> on the vertices of P_{-K}: 3, -1, -1, -1
    k = anticanonical(p3)
    assert filtration_curve(p3, k, (1, 0, 0)).pieces == (Polynomial.of(64, -48, 12, -1),)
    assert filtration_curve(p3, k, (-1, 0, 0)).pieces == (Polynomial.of(64, 0, 0, -1),)


def _perturb(monkeypatch, extra):
    real = volume_fn._chamber_sum

    def perturbed(knotted, q, chamber, power):
        return real(knotted, q, chamber, power) + extra(chamber, power)

    monkeypatch.setattr(volume_fn, "_chamber_sum", perturbed)


def test_perturbed_closed_form_raises(monkeypatch, p2, capsys, problems_dir):
    _perturb(monkeypatch, lambda chamber, power: Polynomial.of(1))
    with pytest.raises(InvariantViolation, match=r"volume is not the symbolic polynomial on the chamber \[0, 3\]"):
        filtration_curve(p2, anticanonical(p2), (1, 0))
    p2_file = str(problems_dir / "p2.json")
    assert main(["dh", p2_file, "--u", "1,0"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolation"
    # the search builds no curve: it checks its barycenter against the cone
    # localization, here with one added to every sum, so n! vol reads 10;
    # a cold memo lets the check run
    real_sum = toric._localized
    monkeypatch.setattr(toric, "_localized", lambda *args: real_sum(*args) + 1)
    thresholds._barycenter.cache_clear()
    with pytest.raises(InvariantViolation, match=r"^volume routes disagree: 9 by the triangulation, 10 by cone"):
        thresholds._barycenter(p2, anticanonical(p2))
    assert main(["delta", p2_file, "--radius", "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvariantViolation" and "by cone localization" in err["message"]


@pytest.mark.parametrize("model, u, breakpoints", [
    ("p3", (2, 1, 0), (0, 4, 8)),
    ("f1", (1, 0), (0, 1, 3)),
])
def test_perturbed_second_chamber_raises(monkeypatch, request, model, u, breakpoints):
    # only the chamber after the first is off, so its check, at its own
    # level, is the one that must fire
    fan = request.getfixturevalue(model)
    k = anticanonical(fan)
    assert filtration_curve(fan, k, u).breakpoints == breakpoints
    _perturb(monkeypatch, lambda chamber, power: Polynomial.of(1) if chamber.lo > 0 else Polynomial(()))
    _lo, mid, hi = breakpoints
    with pytest.raises(InvariantViolation, match=rf"symbolic polynomial on the chamber \[{mid}, {hi}\]"):
        filtration_curve(fan, k, u)


def test_discontinuous_curve_passing_the_chamber_checks_exits_3(monkeypatch, f1, capsys, problems_dir):
    # c - x vanishes at each chamber's check point x = lo + (hi - lo) / 3, so
    # every chamber check passes and only continuity at the wall c = 1 fails
    _perturb(monkeypatch, lambda chamber, power: Polynomial.of(-chamber.sample_points(2)[0], 1))
    with pytest.raises(InvariantViolation, match="discontinuity at breakpoint 1"):
        filtration_curve(f1, anticanonical(f1), (1, 0))
    assert main(["dh", str(problems_dir / "f1.json"), "--u", "1,0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvariantViolation" and "discontinuity at breakpoint 1" in err["message"]


@pytest.mark.parametrize("u, pieces", [((1, 1), 1), ((1, 0), 2)])
def test_dh_measure_checks_each_piece_once(monkeypatch, f1, u, pieces):
    k = anticanonical(f1)
    curve = filtration_curve(f1, k, u)
    assert len(curve.pieces) == pieces
    analysed = []
    real = volume_fn.nonneg_on_interval

    def counted(p, a, b):
        analysed.append((a, b))
        return real(p, a, b)

    monkeypatch.setattr(volume_fn, "nonneg_on_interval", counted)
    dh_measure(curve, big_volume(f1, k))
    assert analysed == list(zip(curve.breakpoints, curve.breakpoints[1:]))


def test_filtration_curve_enumerates_one_hypograph(monkeypatch, p3):
    # with P_L cached, the curve solves the slice family's hypograph once, P_L's
    # four rows, the slice row and t >= 0 in dimension 4, and then only each
    # chamber check's rows, P_L's four and the slice row, in dimension 3
    k = anticanonical(p3)
    filtration_curve(p3, k, (1, 0, 0))
    solved = []
    real = geometry._basic_solutions

    def counted(rows, dim):
        solved.append((len(rows), dim))
        return real(rows, dim)

    monkeypatch.setattr(geometry, "_basic_solutions", counted)
    assert len(filtration_curve(p3, k, (2, 1, 0)).pieces) == 2
    assert solved == [(6, 4), (5, 3), (5, 3)]


def test_dropped_simplex_fails_the_first_chamber_check(monkeypatch, request, p2, f1, capsys, problems_dir):
    # one simplex of the slice family's hypograph missing where the curve reads
    # it: the slice volume falls short below the simplex's top height, so the
    # first chamber's check fires
    simplices = geometry._Hypograph.simplices.func
    monkeypatch.setattr(geometry._Hypograph, "simplices", property(lambda q: simplices(q)[1:]))
    with pytest.raises(InvariantViolation, match=r"symbolic polynomial on the chamber \[0, "):
        filtration_curve(p2, anticanonical(p2), (1, 0))
    assert main(["dh", str(problems_dir / "p2.json"), "--u", "1,0"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvariantViolation"
    assert "symbolic polynomial on the chamber [0, " in err["message"]
    # one simplex of F1's P_L, of several, missing where the barycenter and
    # the volume read it: the cone localization, which reads no triangulation,
    # disagrees; the volume memo filled here is cleared again afterwards
    monkeypatch.undo()
    real = geometry.triangulation
    monkeypatch.setattr(geometry, "triangulation", lambda p: real(p)[1:])
    request.addfinalizer(geometry.volume.cache_clear)
    geometry.volume.cache_clear()
    thresholds._barycenter.cache_clear()
    assert len(real(polytope_of(f1, anticanonical(f1)))) > 1
    assert main(["delta", str(problems_dir / "f1.json"), "--radius", "1"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvariantViolation"
    assert re.match(r"volume routes disagree: \d+ by the triangulation, 8 by cone localization$", err["message"])


def test_closed_form_degree_bound_raises(monkeypatch, p2):
    # a term of degree n + 1 that vanishes at the checked point passes the
    # volume check and leaves the degree bound to catch it
    def vanishing_at_check(chamber, power):
        x = chamber.sample_points(2)[0]
        return Polynomial.of(-x, 1) * Polynomial((0,) * power + (1,))

    _perturb(monkeypatch, vanishing_at_check)
    with pytest.raises(InvariantViolation, match=r"symbolic polynomial on the chamber \[0, 3\]"):
        filtration_curve(p2, anticanonical(p2), (1, 0))


# Adds one to every chamber polynomial of the closed form that dh reads.
PERTURB_CLOSED_FORM = """
from toricstab import volume_fn
from toricstab.volume_fn import Polynomial
_real = volume_fn._chamber_sum
volume_fn._chamber_sum = lambda *args: _real(*args) + Polynomial.of(1)
from toricstab.cli import main
"""

# Adds one to every sum of the cone localization that delta's barycenter check reads.
PERTURB_LOCALIZATION = """
from toricstab import toric
_real = toric._localized
toric._localized = lambda *args: _real(*args) + 1
from toricstab.cli import main
"""


@pytest.mark.parametrize("argv", [["delta", "--radius", "1"], ["dh", "--u", "1,0"]])
def test_perturbed_closed_form_survives_optimize(problems_dir, run_optimized, argv):
    command, *options = argv
    perturbed, message = {
        "delta": (PERTURB_LOCALIZATION, "by cone localization"),
        "dh": (PERTURB_CLOSED_FORM, "symbolic polynomial on the chamber"),
    }[command]
    script = perturbed + (
        f"raise SystemExit(main([{command!r}, {str(problems_dir / 'p2.json')!r}, *{options!r}]))\n"
    )
    result = run_optimized(script)
    assert result.returncode == 3, result.stderr
    err = json.loads(result.stderr)
    assert err["error"] == "InvariantViolation" and message in err["message"]


def test_dh_measure_p2(p2):
    curve = filtration_curve(p2, anticanonical(p2), (1, 0))
    nu = dh_measure(curve, 9)
    assert nu.atoms == ()
    assert nu.density.normalized().pieces == (Polynomial.of(Q(2, 3), -Q(2, 9)),)
    assert nu.total_mass() == 1
    assert nu.support() == (0, 3)
    assert energy_from_dh(nu) == 1


def test_dh_measure_f1(f1):
    curve = filtration_curve(f1, anticanonical(f1), (1, 1))
    nu = dh_measure(curve, 8)
    assert nu.density.normalized().pieces == (Polynomial.of(Q(1, 4), Q(1, 4)),)
    assert energy_from_dh(nu) == Q(7, 6)


def test_dh_measure_terminal_jump_atom():
    const = PiecewisePolynomial((Q(0), Q(2)), (Polynomial.of(9),))
    nu = dh_measure(const, 9)
    assert nu.atoms == ((2, 1),)
    assert energy_from_dh(nu) == 2


def test_dh_measure_rejects_increasing_curve():
    rising = PiecewisePolynomial((Q(0), Q(1)), (Polynomial.of(9, 1),))
    with pytest.raises(NotMonotone):
        dh_measure(rising, 9)


def test_dh_measure_wrong_start_value():
    curve = PiecewisePolynomial((Q(0), Q(1)), (Polynomial.of(5, -5),))
    with pytest.raises(NotMonotone):
        dh_measure(curve, 9)


def test_dh_atom_only_measure():
    nu = DHMeasure(None, ((Q(0), Q(1)),))
    assert energy_from_dh(nu) == 0


def test_dh_mass_is_one_random(surfaces):
    rng = random.Random(13)
    for fan in surfaces.values():
        k = anticanonical(fan)
        v = big_volume(fan, k)
        for _ in range(5):
            u = (rng.randint(-3, 3), rng.randint(-3, 3))
            if u == (0, 0):
                continue
            nu = dh_measure(filtration_curve(fan, k, u), v)
            assert nu.total_mass() == 1
            assert nu.atoms == ()  # toric slice curves are continuous to zero
            assert nu.density.is_nonnegative()


FLAG = MonomialIdealData.make([[(2, 0), (1, 1), (0, 2)], [(0, 0)]])


def test_flag_valuation():
    assert FLAG.valuation(0, (1, 1)) == 2
    assert FLAG.valuation(1, (1, 1)) == 0


def test_flag_curve_values():
    assert flag_curve_value(FLAG, Q(-1, 2), (1, 1)) == -1
    assert flag_curve_value(FLAG, 0, (1, 1)) == -2
    assert flag_curve_value(FLAG, -1, (1, 1)) == 0


def test_flag_curve_infeasible_tau():
    with pytest.raises(InfeasibleTau):
        flag_curve_value(FLAG, Q(1, 2), (1, 1))
    with pytest.raises(InfeasibleTau):
        flag_curve_value(FLAG, Q(-3, 2), (1, 1))


def test_flag_nesting_enforced():
    with pytest.raises(ValueError):
        MonomialIdealData.make([[(0, 0)], [(2, 0)]])
    # a valid chain: (x,y)^2 inside (x,y) inside the ring
    MonomialIdealData.make([[(2, 0), (1, 1), (0, 2)], [(1, 0), (0, 1)], [(0, 0)]])


def test_flag_curve_concave_piecewise_linear():
    flag = MonomialIdealData.make([[(3, 1), (1, 3)], [(1, 1)], [(0, 0)]])
    for u in [(2, 1), (1, 1), (1, 4), (3, 2)]:
        taus = [Q(-k, 12) for k in range(0, 25)]
        values = [flag_curve_value(flag, t, u) for t in taus]
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(s2 <= s1 for s1, s2 in zip(steps, steps[1:]))
