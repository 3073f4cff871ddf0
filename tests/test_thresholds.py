from __future__ import annotations

import concurrent.futures
import json
import math
import random
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricstab import (
    Fan,
    Polytope,
    anticanonical,
    big_volume,
    delta_pp_quotient,
    delta_prime_quotient,
    delta_quotient,
    delta_search,
    divisor,
    entropy,
    extended_curve,
    filtration_curve,
    g_pairing,
    inequality_report,
    is_ample,
    intersection_number,
    is_nef,
    jtilde,
    linear_stats,
    log_discrepancy,
    polytope_of,
    ray_divisor,
    s_invariant,
    star_subdivision,
    truncated_curve,
    volume_curve,
    zero_divisor,
)
from toricstab import filtrations, thresholds, toric, volume_fn
from toricstab.cli import main
from toricstab.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotAmple,
    NotBigOnUnitInterval,
    ZeroDivisor,
    ZeroVector,
)
from toricstab.thresholds import primitive_candidates
from toricstab.toric import is_strictly_ample, validate_fan

from oracles import (
    filtration_barycenter,
    oracle_log_discrepancy,
    oracle_s_invariant,
    seeded_ample,
    weighted_projective,
)


def test_s_invariant_values(p2, f1):
    k2, kf1 = anticanonical(p2), anticanonical(f1)
    assert s_invariant(p2, k2, (1, 0)) == 1
    assert s_invariant(p2, k2, (1, 1)) == 2
    assert s_invariant(f1, kf1, (1, 1)) == Q(7, 6)
    assert s_invariant(f1, kf1, (1, 0)) == Q(13, 12)
    with pytest.raises(ZeroVector):
        s_invariant(p2, k2, (0, 0))


def test_delta_quotient_values(p2, f1):
    k2, kf1 = anticanonical(p2), anticanonical(f1)
    assert delta_quotient(p2, k2, (1, 0)) == 1
    assert delta_quotient(p2, k2, (1, 1)) == 1
    assert delta_quotient(f1, kf1, (1, 1)) == Q(6, 7)


def test_primitive_candidates():
    cands = primitive_candidates(2, 1)
    assert set(cands) == {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)}
    assert (2, 2) not in primitive_candidates(2, 2)
    assert (2, 1) in primitive_candidates(2, 2)


def test_delta_search_p2(p2):
    report = delta_search(p2, anticanonical(p2), 2)
    assert report.delta_estimate == 1
    # the anticanonical barycenter sits at the origin: every candidate ties
    assert all(row.quotient == 1 for row in report.candidates)


def test_delta_search_f1(f1):
    report = delta_search(f1, anticanonical(f1), 2)
    assert report.delta_estimate == Q(6, 7)
    assert report.minimizer == (1, 1)


def test_delta_search_p1xp1(p1xp1):
    report = delta_search(p1xp1, anticanonical(p1xp1), 2)
    assert report.delta_estimate == 1


def test_delta_search_monotone_in_radius(f1):
    kf1 = anticanonical(f1)
    r2 = delta_search(f1, kf1, 2).delta_estimate
    r3 = delta_search(f1, kf1, 3).delta_estimate
    assert r3 <= r2
    assert r3 == Q(6, 7)


def test_delta_search_parallel_matches_serial(f1):
    kf1 = anticanonical(f1)
    serial = delta_search(f1, kf1, 2, jobs=1)
    parallel = delta_search(f1, kf1, 2, jobs=2)
    assert serial == parallel


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("jobs, workers", [(3, 3), (64, 8)])
def test_delta_search_caps_workers_at_candidates(p2, monkeypatch, jobs, workers):
    # radius 1 on a surface has 8 candidates; no process is started
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    k2 = anticanonical(p2)
    assert delta_search(p2, k2, 1, jobs=jobs) == delta_search(p2, k2, 1, jobs=1)
    assert sizes == [workers]


def test_delta_pp_quotient_values(p2, f1):
    k2, kf1 = anticanonical(p2), anticanonical(f1)
    h, e = ray_divisor(p2, 0), ray_divisor(f1, 3)
    assert delta_pp_quotient(p2, k2, h) == 1
    assert delta_pp_quotient(f1, kf1, e) == Q(6, 7)
    assert delta_pp_quotient(p2, k2, h.scale(2)) == 1
    with pytest.raises(ZeroDivisor):
        delta_pp_quotient(p2, k2, divisor(p2, [0, 0, 0]))


def test_delta_pp_scaling_invariance(f1):
    kf1 = anticanonical(f1)
    e = ray_divisor(f1, 3)
    base = delta_pp_quotient(f1, kf1, e)
    for c in (Q(1, 2), 2, 3):
        assert delta_pp_quotient(f1, kf1, e.scale(c)) == base


def divisorial_direction(fan, u):
    """(model, L, D, K_rel) of the toric divisor over X with valuation u, L = -K pulled back.

    D is the ray divisor D_u when u is a ray, else the new ray divisor E_u of
    the star subdivision at u, with that subdivision's relative canonical.
    """
    k = anticanonical(fan)
    if u in fan.rays:
        return fan, k, ray_divisor(fan, fan.rays.index(u)), None
    model, pull, k_rel = star_subdivision(fan, u)
    return model, pull(k), ray_divisor(model, len(model.rays) - 1), k_rel


def test_pp_quotient_is_a_over_s_on_every_divisorial_direction(surfaces, p3):
    # entropy / jtilde of the curve along D_u equals A(u) / S(u) exactly
    balls = [(fan, 2) for fan in surfaces.values()] + [(p3, 1)]
    checked = 0
    for fan, radius in balls:
        for u in primitive_candidates(fan.dimension, radius):
            model, l, d, k_rel = divisorial_direction(fan, u)
            expected = log_discrepancy(fan, u) / s_invariant(fan, anticanonical(fan), u)
            assert delta_pp_quotient(model, l, d, k_rel=k_rel) == expected, u
            checked += 1
    assert checked == 74


def test_delta_prime_quotient_p2(p2):
    three_h = ray_divisor(p2, 0).scale(3)
    h = ray_divisor(p2, 0)
    assert delta_prime_quotient(p2, three_h, h) == Q(15, 7)
    # not invariant under rescaling the direction
    assert delta_prime_quotient(p2, three_h, h.scale(2)) != Q(15, 7)
    with pytest.raises(NotBigOnUnitInterval):
        delta_prime_quotient(p2, three_h, h.scale(4))


def test_delta_prime_numerator_route(p2):
    # for K_rel = 0 and integral reduced direction, the numerator matches
    # n * int_0^1 ((L - tau D) . D) dtau exactly
    from toricstab import big_volume, g_pairing, jtilde, truncated_curve, extended_curve
    from oracles import fit_polynomial
    from toricstab import intersection_number

    three_h = ray_divisor(p2, 0).scale(3)
    h = ray_divisor(p2, 0)
    xs = [Q(1, 5), Q(1, 2)]
    ys = [intersection_number(p2, [three_h - h.scale(x), h]) for x in xs]
    integral_route = 2 * fit_polynomial(xs, ys).integrate(0, 1)
    g_route = 2 * g_pairing(p2, three_h, h, h.reduced())
    assert integral_route == g_route == 5
    denominator = big_volume(p2, three_h) * jtilde(truncated_curve(extended_curve(p2, three_h, h)))
    assert g_route / denominator == Q(15, 7)


def test_delta_prime_invariant_under_log_resolution(p2):
    # same data computed on the blowup model with its relative canonical
    fan, pull, k_rel = star_subdivision(p2, (1, 1))
    three_h = ray_divisor(p2, 0).scale(3)
    h = ray_divisor(p2, 0)
    upstairs = delta_prime_quotient(fan, pull(three_h), pull(h), k_rel=k_rel)
    assert upstairs == Q(15, 7)


def center_dimension(fan, u) -> int:
    """Dimension of the smallest cone of the fan containing u (the center's codimension)."""
    _cone, coords = fan.containing_cone(u)
    return sum(1 for c in coords if c > 0)


def nef_exceptional_directions(fan, dimension):
    """(u, model, L, D, K_rel) over non-ray u of the radius-1 ball whose center has the
    given codimension, D = E_u at the scales 1, tau+/2 and tau+ where L - D is nef."""
    for u in primitive_candidates(fan.dimension, 1):
        if u in fan.rays or center_dimension(fan, u) != dimension:
            continue
        model, l, e, k_rel = divisorial_direction(fan, u)
        _curve, tau_plus = volume_curve(model, l, e)
        for scale in (1, tau_plus / 2, tau_plus):
            d = e.scale(scale)
            if is_nef(model, l - d):
                yield u, model, l, d, k_rel


def old_prime_quotient(model, l, d, k_rel):
    """The numerator (K_rel . (-D)^{n-1}) + n G_{n-1}(L, D) . Red D, equal to
    n G_{n-1}(L, D) . (K_rel + Red D) on surfaces and over point centers."""
    n = model.dimension
    numerator = intersection_number(model, [k_rel] + [-d] * (n - 1))
    numerator += n * g_pairing(model, l, d, d.reduced())
    truncated = truncated_curve(extended_curve(model, l, d, k_rel=k_rel))
    return numerator / (big_volume(model, l) * jtilde(truncated))


def test_delta_prime_on_p3_curve_center(p3):
    # P3 at u = (-1, -1, 1), whose center is a torus-invariant curve
    model, l, e, k_rel = divisorial_direction(p3, (-1, -1, 1))
    d = e.scale(4)
    truncated = truncated_curve(extended_curve(model, l, d, k_rel=k_rel))
    assert entropy(truncated) / jtilde(truncated) == Q(9, 7)
    assert delta_prime_quotient(model, l, d, k_rel=k_rel) == Q(9, 7)
    # at D = 8 E_u = tau+ E_u, L - D is not nef and the two quotients part
    d = e.scale(8)
    assert not is_nef(model, l - d)
    truncated = truncated_curve(extended_curve(model, l, d, k_rel=k_rel))
    assert entropy(truncated) / jtilde(truncated) == 1
    assert delta_prime_quotient(model, l, d, k_rel=k_rel) == 0


def test_delta_prime_is_truncated_ent_over_jtilde_over_curve_centers(p3):
    blp3, _pull, _k = star_subdivision(p3, (1, 1, 1))
    checked = 0
    for fan in (p3, blp3):
        delta_of = {u: log_discrepancy(fan, u) / s_invariant(fan, anticanonical(fan), u)
                    for u in primitive_candidates(3, 1)}
        for u, model, l, d, k_rel in nef_exceptional_directions(fan, 2):
            prime = delta_prime_quotient(model, l, d, k_rel=k_rel)
            truncated = truncated_curve(extended_curve(model, l, d, k_rel=k_rel))
            assert prime == entropy(truncated) / jtilde(truncated), (u, d)
            assert prime >= delta_of[u], (u, d)
            checked += 1
    assert checked == 39


def test_delta_prime_keeps_the_old_k_rel_term_over_point_centers(p3):
    blp3, _pull, _k = star_subdivision(p3, (1, 1, 1))
    checked = 0
    for fan in (p3, blp3):
        for _u, model, l, d, k_rel in nef_exceptional_directions(fan, 3):
            assert delta_prime_quotient(model, l, d, k_rel=k_rel) == old_prime_quotient(
                model, l, d, k_rel)
            checked += 1
    assert checked > 0


def random_effective(fan, rng: random.Random):
    while True:
        coeffs = [Q(rng.choice([0, 0, 1, 1, 2]), rng.choice([1, 2, 3])) for _ in fan.rays]
        if any(coeffs):
            return divisor(fan, coeffs)


def test_inequalities_random_directions(surfaces):
    rng = random.Random(47)
    for fan in surfaces.values():
        k = anticanonical(fan)
        delta = delta_search(fan, k, 2).delta_estimate
        for _ in range(5):
            d = random_effective(fan, rng)
            assert delta_pp_quotient(fan, k, d) >= delta
            try:
                assert delta_prime_quotient(fan, k, d) >= delta
            except NotBigOnUnitInterval:
                pass


def test_inequality_report(f1):
    kf1 = anticanonical(f1)
    e = ray_divisor(f1, 3)
    report = inequality_report(
        f1, kf1, [("E", e), ("EplusF", e + ray_divisor(f1, 0))], 2
    )
    assert report.delta_estimate == Q(6, 7)
    assert all(v.holds for v in report.verdicts)
    assert any("equals delta" in v.description for v in report.verdicts)
    names = [row.name for row in report.directions]
    assert names == ["E", "EplusF"]


def test_inequality_report_p2_directions(p2):
    k2 = anticanonical(p2)
    h = ray_divisor(p2, 0)
    h1_plus_h2 = h + ray_divisor(p2, 1)
    report = inequality_report(
        p2, k2, [("H", h), ("2H", h.scale(2)), ("H1+H2", h1_plus_h2)], 2
    )
    assert report.delta_estimate == 1
    assert all(row.pp_quotient >= 1 for row in report.directions)
    assert all(v.holds for v in report.verdicts)


def test_inequality_report_empty_directions(p2):
    report = inequality_report(p2, anticanonical(p2), [], 2)
    assert report.delta_estimate == 1
    assert report.directions == ()
    assert report.verdicts == ()


# ---- S from the checked barycenter -----------------------------------------

def test_s_invariant_matches_both_routes_on_every_candidate(p2, f1, p1xp1, p3):
    # per candidate, the support pairing's mean minus its minimum, the
    # filtration curve's integral over the volume and <b, u> - min agree
    blp3, pull, _k_rel = star_subdivision(p3, (1, 1, 1))
    models = [(fan, anticanonical(fan), 2) for fan in (p2, f1, p1xp1, p3)]
    models += [(blp3, anticanonical(blp3), 1), (blp3, pull(anticanonical(p3)), 1)]
    for fan, l, radius in models:
        p, v = polytope_of(fan, l), big_volume(fan, l)
        for u in primitive_candidates(fan.dimension, radius):
            lo, mean, _hi = linear_stats(p, u)
            integral = filtration_curve(fan, l, u).integrate() / v
            assert mean - lo == integral == s_invariant(fan, l, u), (fan.rays, l.coeffs, u)


def _assert_rows_match_the_fraction_route(fan, l, radius):
    report = delta_search(fan, l, radius)
    assert [row.u for row in report.candidates] == primitive_candidates(fan.dimension, radius)
    for row in report.candidates:
        a, s = oracle_log_discrepancy(fan, row.u), oracle_s_invariant(fan, l, row.u)
        assert (row.log_discrepancy, row.s_value, row.quotient) == (a, s, a / s), (
            fan.rays, l.coeffs, row.u)


def test_candidate_rows_match_the_fraction_route(p2, f1, p1xp1, p3):
    # every row's integer A and S against the cone coordinates summed and
    # <b, u> - support_min with b from linear_stats; the pulled-back -K of
    # Bl_p P3 is big and nef but not strictly ample
    blp3, pull, _k_rel = star_subdivision(p3, (1, 1, 1))
    f1xp1 = Fan.make(
        [[*ray, 0] for ray in f1.rays] + [[0, 0, 1], [0, 0, -1]],
        [[*cone, end] for cone in f1.max_cones for end in (4, 5)],
    )
    models = [(fan, anticanonical(fan), 3) for fan in (p2, f1, p1xp1)]
    models += [(fan, anticanonical(fan), 2) for fan in (p3, blp3, f1xp1)]
    models.append((blp3, pull(anticanonical(p3)), 2))
    assert not is_strictly_ample(blp3, pull(anticanonical(p3)))
    for fan, l, radius in models:
        _assert_rows_match_the_fraction_route(fan, l, radius)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_candidate_rows_match_the_fraction_route_on_drawn_classes(p2, f1, p1xp1, p3, data):
    # a big and nef L with coefficients i/j, i <= 6, j <= 3
    blp3 = star_subdivision(p3, (1, 1, 1))[0]
    fan = data.draw(st.sampled_from([p2, f1, p1xp1, p3, blp3]))
    coeff = st.builds(Q, st.integers(0, 6), st.integers(1, 3))
    l = divisor(fan, data.draw(st.lists(coeff, min_size=len(fan.rays), max_size=len(fan.rays))))
    assume(is_ample(fan, l))
    _assert_rows_match_the_fraction_route(fan, l, 3 if fan.dimension == 2 else 2)


@pytest.mark.parametrize("index", [3, 0, None], ids=["E", "F", "zero"])
def test_polarization_not_big_and_nef_raises_not_ample(f1, index):
    # E is not nef, F is nef but not big, and 0 is neither: each raises before
    # the barycenter's memo builds anything, with direction errors first
    l = zero_divisor(f1) if index is None else ray_divisor(f1, index)
    thresholds._barycenter.cache_clear()
    for call in (lambda: s_invariant(f1, l, (1, 1)), lambda: delta_search(f1, l, 1)):
        with pytest.raises(NotAmple, match="^polarization is not big and nef$"):
            call()
    with pytest.raises(DimensionMismatch):
        s_invariant(f1, l, (1, 1, 0))
    with pytest.raises(ZeroVector):
        s_invariant(f1, l, (0, 0))


def test_delta_search_builds_no_curve_and_localizes_once(monkeypatch, p3):
    # the barycenter is checked by one cone localization per (fan, L): no
    # filtration curve is built and no chamber polynomial is summed
    thresholds._barycenter.cache_clear()
    curves, sums, localized = [], [], []
    real_curve, real_sum = filtrations.superlevel_volume_curve, volume_fn._chamber_sum
    real_moments = thresholds.localized_moments
    monkeypatch.setattr(filtrations, "superlevel_volume_curve", lambda p, u: curves.append(u) or real_curve(p, u))
    monkeypatch.setattr(volume_fn, "_chamber_sum", lambda *args: sums.append(1) or real_sum(*args))
    monkeypatch.setattr(
        thresholds, "localized_moments", lambda fan, l: localized.append(l) or real_moments(fan, l),
    )
    k = anticanonical(p3)
    report = delta_search(p3, k, 2)
    assert len(report.candidates) == len(primitive_candidates(3, 2)) > 3
    assert delta_search(p3, k, 1).delta_estimate == report.delta_estimate
    assert not curves and not sums and localized == [k]


@pytest.mark.parametrize("model", ["p2", "f1", "p1xp1", "p3", "blp3"])
def test_barycenter_matches_the_filtration_curves(request, model):
    # the filtration route, kept as the barycenter's oracle: along each e_i,
    # b_i - min x_i is the integral of the filtration curve over vol(L)
    if model == "blp3":
        fan = star_subdivision(request.getfixturevalue("p3"), (1, 1, 1))[0]
    else:
        fan = request.getfixturevalue(model)
    for l in [anticanonical(fan), *seeded_ample(fan, 41)]:
        b, q, points, den = thresholds._barycenter(fan, l)
        lows = [Q(min(x[i] for x in points), den) for i in range(fan.dimension)]
        assert [Q(bi, q) - low for bi, low in zip(b, lows)] == filtration_barycenter(fan, l)


@pytest.mark.parametrize("weights, radius, delta, minimizer, volume", [
    ((1, 1, 2), 3, Q(3, 4), (0, -1), 8),
    ((1, 2, 3), 3, Q(1, 2), (-2, -3), 6),
    ((1, 1, 1, 3), 2, Q(2, 3), (0, 0, -1), 72),
])
def test_delta_on_weighted_projective_spaces(weights, radius, delta, minimizer, volume):
    # simplicial, not smooth: the barycenter's check sums cones with |d_sigma| > 1
    fan = weighted_projective(weights)
    diagnostics = validate_fan(fan)
    assert diagnostics.ok and not diagnostics.is_smooth
    k = anticanonical(fan)
    assert big_volume(fan, k) == volume == Q(sum(weights) ** (len(weights) - 1), math.prod(weights))
    report = delta_search(fan, k, radius)
    assert (report.delta_estimate, report.minimizer) == (delta, minimizer)


@pytest.mark.parametrize("u", [(1,), (1, 0, 5)])
def test_direction_of_the_wrong_length_raises(p2, u):
    k = anticanonical(p2)
    for call in (s_invariant, filtration_curve):
        with pytest.raises(DimensionMismatch):
            call(p2, k, u)
    with pytest.raises(DimensionMismatch):
        log_discrepancy(p2, u)


def test_skewed_localization_coordinate_raises(monkeypatch, p3):
    # one added to the localization sum at xi + e_2 alone (k = 2) moves b_2
    # by cone localization and leaves its volume and the other coordinates,
    # so only the barycenter's comparison along e_2 sees it
    thresholds._barycenter.cache_clear()
    seen = []
    real = toric._localized

    def skewed(fan, classes, k):
        seen.append(k)
        return real(fan, classes, k) + (k == 2)

    monkeypatch.setattr(toric, "_localized", skewed)
    with pytest.raises(InvariantViolation, match=r"^barycenter routes disagree along u=\(0, 1, 0\)"):
        s_invariant(p3, anticanonical(p3), (1, 1, 1))
    assert set(seen) == {0, 1, 2, 3}


# Moves the weighted vertex sums of the one pass over P_L's triangulation
# along e_1 by one, so the barycenter by the triangulation disagrees with
# the cone localization.
SKEW_TRIANGULATION_SUMS = """
from toricstab import thresholds
_real = thresholds.triangulation_sums

def _skewed(p):
    total, weighted = _real(p)
    return total, (weighted[0] + 1, *weighted[1:])

thresholds.triangulation_sums = _skewed
"""


def test_s_route_disagreement_raises(monkeypatch, p2, capsys, problems_dir):
    # the script rebinds thresholds.triangulation_sums itself; recording the
    # real function first lets monkeypatch restore it for the tests that
    # follow, and a cold memo lets the skew reach the barycenter's check
    monkeypatch.setattr(thresholds, "triangulation_sums", thresholds.triangulation_sums)
    thresholds._barycenter.cache_clear()
    exec(SKEW_TRIANGULATION_SUMS, {})
    with pytest.raises(InvariantViolation, match=r"^barycenter routes disagree along u=\(1, 0\)"):
        s_invariant(p2, anticanonical(p2), (1, 0))
    code = main(["delta", str(problems_dir / "p2.json"), "--radius", "1"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolation"


def test_s_route_disagreement_survives_optimize(problems_dir, run_optimized):
    script = SKEW_TRIANGULATION_SUMS + (
        "from toricstab.cli import main\n"
        f"raise SystemExit(main(['delta', {str(problems_dir / 'p2.json')!r}, "
        "'--radius', '1']))\n"
    )
    result = run_optimized(script)
    assert result.returncode == 3, result.stderr
    err = json.loads(result.stderr)
    assert err["error"] == "InvariantViolation" and "barycenter routes disagree" in err["message"]


def test_s_invariant_builds_no_polytope_once_warm(p3, monkeypatch):
    # every memo cold but P_L: the barycenter reads P_L's triangulation and
    # checks it by cone localization, so an S value builds no Polytope at all
    # and computes no fresh volume
    blp3, pull, _k_rel = star_subdivision(p3, (1, 1, 1))
    models = [(p3, anticanonical(p3)), (blp3, pull(anticanonical(p3)))]
    for fan, l in models:
        assert is_ample(fan, l)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricstab":
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    for fan, l in models:
        polytope_of(fan, l)
    built, checks = [], []
    real = Polytope.from_rows
    monkeypatch.setattr(
        Polytope, "from_rows", classmethod(lambda cls, *args: built.append(1) or real(*args)),
    )
    check = volume_fn.normalized_volume
    monkeypatch.setattr(volume_fn, "normalized_volume", lambda *args: checks.append(1) or check(*args))
    assert s_invariant(p3, anticanonical(p3), (1, 0, 0)) == 1
    for fan, l in models:
        p = polytope_of(fan, l)
        for u in primitive_candidates(3, 1):
            lo, mean, _hi = linear_stats(p, u)
            assert s_invariant(fan, l, u) == mean - lo
    assert not built and not checks
