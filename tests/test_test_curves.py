from __future__ import annotations

import collections
import itertools
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import (
    Fan,
    ParametricPolytope,
    Polynomial,
    alpha_energy,
    anticanonical,
    big_volume,
    curve_summary,
    dh_measure,
    divisor,
    energy,
    energy_from_dh,
    entropy,
    extended_curve,
    filtration_curve,
    g_pairing,
    intersection_number,
    is_nef,
    jtilde,
    mass,
    positive_pairing,
    ray_divisor,
    ricci_energy,
    star_subdivision,
    truncated_curve,
    twisted_mabuchi,
    volume_curve,
    zariski_decompose,
    zero_divisor,
)
import toricstab.geometry as geometry
import toricstab.test_curves as tc
import toricstab.volume_fn as vf
from toricstab.errors import InvariantViolation, OutOfRange, RangeTooShort, ZeroDivisor
from toricstab.geometry import Chamber, dot
import oracles
from oracles import (
    CurveChamber,
    chamber_facet_polynomials,
    chamber_functionals,
    chamber_integrals,
    clipped_chambers,
    curve_chambers,
    entropy_at,
    entropy_direction,
    family_halfspaces,
    fit_polynomial,
    g_polynomial,
    oracle_basis_paths,
)


@pytest.fixture(scope="module")
def p2_h_curve(p2):
    return extended_curve(p2, anticanonical(p2), ray_divisor(p2, 0))


@pytest.fixture(scope="module")
def f1_e_curve(f1):
    return extended_curve(f1, anticanonical(f1), ray_divisor(f1, 3))


@pytest.fixture(scope="module")
def f1_fiber_curve(f1):
    return extended_curve(f1, anticanonical(f1), ray_divisor(f1, 0))


def volume_pieces(curve):
    volumes, _tau_plus = volume_curve(curve.model, curve.l, curve.d)
    return volumes.normalized().pieces


def test_extended_curve_basic(p2_h_curve, f1_e_curve):
    assert p2_h_curve.tau_plus == 3
    assert f1_e_curve.tau_plus == 2
    assert volume_pieces(p2_h_curve) == (Polynomial.of(9, -6, 1),)
    assert volume_pieces(f1_e_curve) == (Polynomial.of(8, -2, -1),)


def test_extended_curve_rejects_zero_direction(p2):
    with pytest.raises(ZeroDivisor):
        extended_curve(p2, anticanonical(p2), zero_divisor(p2))


def test_mass_values(p2_h_curve, f1_e_curve):
    assert mass(p2_h_curve, 1) == 4
    assert mass(p2_h_curve, 0) == 9
    assert mass(p2_h_curve, -2) == 9
    assert mass(f1_e_curve, 2) == 0
    with pytest.raises(OutOfRange):
        mass(f1_e_curve, Q(5, 2))


def test_truncated_curve(p2_h_curve, f1_e_curve, f1):
    t = truncated_curve(p2_h_curve)
    assert t.tau_plus == 1 and t.kind == "truncated"
    assert mass(t, Q(1, 2)) == Q(25, 4)
    tf = truncated_curve(f1_e_curve)
    assert [mass(tf, tau) for tau in (0, Q(1, 2), 1)] == [8, Q(27, 4), 5]
    with pytest.raises(OutOfRange):
        mass(tf, Q(3, 2))
    short = extended_curve(f1, anticanonical(f1), ray_divisor(f1, 3).scale(4))
    assert short.tau_plus == Q(1, 2)
    with pytest.raises(RangeTooShort):
        truncated_curve(short)


def test_energy(p2_h_curve, f1_e_curve):
    assert energy(p2_h_curve) == 1
    assert energy(f1_e_curve) == Q(7, 6)


def test_energy_matches_mass_integral(p2_h_curve, f1_fiber_curve):
    for curve in (p2_h_curve, f1_fiber_curve):
        v = curve.total_volume
        volumes, _tau_plus = volume_curve(curve.model, curve.l, curve.d)
        integral = volumes.integrate() / v
        assert energy(curve) == integral


def test_alpha_energy(p2, p2_h_curve):
    k2 = anticanonical(p2)
    assert alpha_energy(p2_h_curve, k2) == Q(3, 2)
    assert alpha_energy(p2_h_curve, ray_divisor(p2, 0).scale(3)) == Q(3, 2)
    assert alpha_energy(p2_h_curve, zero_divisor(p2)) == 0


def test_ricci_energy_and_mabuchi(p2_h_curve):
    assert ricci_energy(p2_h_curve) == -3
    assert twisted_mabuchi(p2_h_curve) == -2


def test_ricci_and_mabuchi_f1(f1, f1_e_curve):
    # E^omega = 7/4 by chamber integration: 2 + (1/8) int_0^2 (-tau) dtau
    assert alpha_energy(f1_e_curve, anticanonical(f1)) == Q(7, 4)
    assert ricci_energy(f1_e_curve) == Q(-7, 2)
    assert twisted_mabuchi(f1_e_curve) == Q(-5, 2)


def test_jtilde(p2_h_curve, f1_e_curve):
    assert jtilde(p2_h_curve) == 1
    assert jtilde(f1_e_curve) == Q(7, 6)


def test_jtilde_identity(surfaces):
    # n (E^omega - E) route must agree exactly
    rng = random.Random(19)
    for fan in surfaces.values():
        k = anticanonical(fan)
        for _ in range(3):
            d = divisor(fan, [rng.choice([0, 1, 2]) for _ in fan.rays])
            if d.is_zero:
                continue
            curve = extended_curve(fan, k, d)
            n = fan.dimension
            assert jtilde(curve) == n * (alpha_energy(curve, k) - energy(curve))
            assert jtilde(curve) >= 0


def test_jtilde_identity_for_truncated(p2, p2_h_curve):
    # E^omega(trunc) = 5/6 and E(trunc) = 19/27 by hand integration on [0,1]
    t = truncated_curve(p2_h_curve)
    assert energy(t) == Q(19, 27)
    assert alpha_energy(t, anticanonical(p2)) == Q(5, 6)
    assert jtilde(t) == 2 * (alpha_energy(t, anticanonical(p2)) - energy(t)) == Q(7, 27)


def test_entropy_at_values(p2_h_curve, f1_e_curve):
    assert entropy_at(p2_h_curve, 1) == Q(4, 9)
    # tau -> 0+ limit along samples approaches 2/3
    assert entropy_at(p2_h_curve, Q(1, 100)) == Q(2, 9) * (3 - Q(1, 100))
    for tau in (Q(1, 3), Q(1, 2), 1, Q(3, 2)):
        assert entropy_at(f1_e_curve, tau) == Q(1, 4) * (1 + tau)
    with pytest.raises(OutOfRange):
        entropy_at(p2_h_curve, 0)
    with pytest.raises(OutOfRange):
        entropy_at(p2_h_curve, 3)


def test_entropy(p2_h_curve, f1_e_curve, f1_fiber_curve):
    assert entropy(p2_h_curve) == 1
    assert entropy(f1_e_curve) == 1
    assert entropy(f1_fiber_curve) == 1


def test_entropy_at_matches_zariski_intersection(f1, f1_fiber_curve):
    # dual route: the derivative pairing equals the positive-part pairing
    kf1 = anticanonical(f1)
    curve = f1_fiber_curve
    chambers = curve_chambers(curve.model, curve.l, curve.d)
    for tau in (Q(1, 2), Q(3, 2), Q(5, 2)):
        ch = next(ch for ch in chambers if ch.lo <= tau < ch.hi)
        direction = zero_divisor(f1) + divisor(
            f1, [1 if i in ch.red_support else 0 for i in range(len(f1.rays))]
        )
        pair = zariski_decompose(f1, kf1 - ray_divisor(f1, 0).scale(tau))
        expected = 2 * intersection_number(f1, [pair.positive, direction]) / Q(8)
        assert entropy_at(curve, tau) == expected


def test_coefficient_one_identity(p2, f1):
    # entropy / jtilde equals log-discrepancy / expected-vanishing for
    # a single prime divisor with coefficient 1
    from toricstab import delta_quotient

    k2, kf1 = anticanonical(p2), anticanonical(f1)
    cases = [
        (p2, k2, 0, (1, 0)),
        (f1, kf1, 3, (1, 1)),
        (f1, kf1, 0, (1, 0)),
    ]
    for fan, k, ray_index, u in cases:
        curve = extended_curve(fan, k, ray_divisor(fan, ray_index))
        assert entropy(curve) / jtilde(curve) == delta_quotient(fan, k, u)


def test_scaling_invariance_of_entropy_jtilde_quotient(f1):
    kf1 = anticanonical(f1)
    e = ray_divisor(f1, 3)
    base = extended_curve(f1, kf1, e)
    quotient = entropy(base) / jtilde(base)
    for c in (Q(1, 2), 2, 3):
        scaled = extended_curve(f1, kf1, e.scale(c))
        assert entropy(scaled) / jtilde(scaled) == quotient


def test_energy_dh_consistency(surfaces):
    for fan in surfaces.values():
        k = anticanonical(fan)
        v = big_volume(fan, k)
        for i, ray in enumerate(fan.rays):
            curve = extended_curve(fan, k, ray_divisor(fan, i))
            nu = dh_measure(filtration_curve(fan, k, ray), v)
            assert energy(curve) == energy_from_dh(nu)


def test_functionals_invariant_under_pullback(p2, f1):
    # the P2 ray curve, recomputed on the blowup model with its relative canonical
    fan, pull, k_rel = star_subdivision(p2, (1, 1))
    k2 = anticanonical(p2)
    h = ray_divisor(p2, 0)
    downstairs = extended_curve(p2, k2, h)
    upstairs = extended_curve(fan, pull(k2), pull(h), k_rel=k_rel)
    assert upstairs.tau_plus == downstairs.tau_plus
    assert energy(upstairs) == energy(downstairs)
    assert jtilde(upstairs) == jtilde(downstairs)
    assert alpha_energy(upstairs, pull(k2)) == alpha_energy(downstairs, k2)
    assert entropy(upstairs) == entropy(downstairs)
    assert ricci_energy(upstairs) == ricci_energy(downstairs)
    assert twisted_mabuchi(upstairs) == twisted_mabuchi(downstairs)


def p3_exceptional_curves(p3):
    """P3 with -K, star-subdivided at u where A(u) = S(u) = 5: the curve along E_u with K_rel.

    On the chamber (4, 8) the positive part of L - tau*E_u is movable, not nef.
    """
    out = []
    for u in [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]:
        fan, pull, k_rel = star_subdivision(p3, u)
        e = ray_divisor(fan, len(fan.rays) - 1)
        out.append(extended_curve(fan, pull(anticanonical(p3)), e, k_rel=k_rel))
    return out


def test_functionals_pair_with_positive_products_on_p3(p3):
    from toricstab import delta_pp_quotient

    for curve in p3_exceptional_curves(p3):
        assert jtilde(curve) == 5
        assert entropy(curve) == 5
        assert delta_pp_quotient(curve.model, curve.l, curve.d, k_rel=curve.k_rel) == 1
        # the positive part is not nef here; the decomposition still holds
        pair = zariski_decompose(curve.model, curve.l - curve.d.scale(6))
        assert pair.positive + pair.negative == curve.l - curve.d.scale(6)


def test_curve_summary(p2_h_curve):
    summary = curve_summary(p2_h_curve)
    assert summary.energy == 1
    assert summary.omega_energy == Q(3, 2)
    assert summary.jtilde == 1
    assert summary.entropy == 1
    assert summary.ricci_energy == -3
    assert summary.twisted_mabuchi == -2


def test_curve_summary_on_p1():
    # in dimension 1 every facet is a vertex and pairs with weight 1
    p1 = Fan.make([[1], [-1]], [[0], [1]])
    summary = curve_summary(extended_curve(p1, anticanonical(p1), ray_divisor(p1, 0)))
    assert (summary.energy, summary.omega_energy, summary.jtilde) == (1, 2, 1)
    assert (summary.entropy, summary.ricci_energy, summary.twisted_mabuchi) == (1, -2, -1)


def test_degenerate_direction_zero_functionals(p2):
    # mass identically V: curve with tau+ = 0 is rejected as a zero direction
    with pytest.raises(ZeroDivisor):
        extended_curve(p2, anticanonical(p2), zero_divisor(p2))


# ---- the averaging polynomial ----------------------------------------------

def test_g_polynomial_values():
    assert g_polynomial(3, 1, 2) == Q(5, 2)
    assert g_polynomial(1, 1, 3) == Q(1, 3)
    assert g_polynomial(5, 0, 4) == 125


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@settings(max_examples=100, deadline=None)
@given(a=rationals, b=rationals, n=st.integers(min_value=1, max_value=5))
def test_g_polynomial_is_average_of_powers(a, b, n):
    # int_0^1 (a - t b)^{n-1} dt computed symbolically
    base = Polynomial.of(a, -b)
    prod = Polynomial.of(1)
    for _ in range(n - 1):
        prod = prod * base
    assert prod.integrate(0, 1) == g_polynomial(a, b, n)


def test_g_pairing_divisor_route(p2):
    # 2 * int_0^1 ((3H - tau H) . H) dtau = 2 G_1(3,1) = 5
    k2 = anticanonical(p2)
    h = ray_divisor(p2, 0)
    val = g_pairing(p2, k2, h, h)
    assert 2 * val == 5
    samples = [
        intersection_number(p2, [k2 - h.scale(t), h])
        for t in (Q(1, 4), Q(3, 4))
    ]
    integral = fit_polynomial([Q(1, 4), Q(3, 4)], samples).integrate(0, 1)
    assert integral == val


def test_entropy_at_derivative_mechanism(p2, p2_h_curve):
    # entropy density = (1/V) d/deps vol(L - tau D + eps * sum A_X(F) F_red)
    k2 = anticanonical(p2)
    h = ray_divisor(p2, 0)
    for tau in (Q(1, 2), 1, 2):
        direction = h.reduced()  # A_X = 1 on the single component
        value = positive_pairing(p2, k2 - h.scale(tau), direction)
        assert entropy_at(p2_h_curve, tau) == 2 * value / 9


def test_positive_pairing_builds_no_family(p2, p2_h_curve, monkeypatch):
    def refuse(*_args):
        raise AssertionError("the positive pairing built a parametric family")

    curve_chambers(p2, anticanonical(p2), ray_divisor(p2, 0))  # entropy_at's reduced support
    monkeypatch.setattr(geometry, "parametric_family", refuse)
    monkeypatch.setattr(geometry.ParametricPolytope, "from_rows", refuse)
    assert positive_pairing(p2, anticanonical(p2), ray_divisor(p2, 0)) == 3
    assert entropy_at(p2_h_curve, Q(1, 2)) == Q(5, 9)


def pairing(ch, alpha):
    """The positive product tau -> <P_tau^{n-1}> . alpha on a chamber, as a polynomial."""
    total = Polynomial(())
    for a, f in zip(alpha.coeffs, ch.facets):
        total = total + f.scale(a)
    return total


def sampled_entropy(curve):
    """Entropy by the derivative pairing: fit n samples of entropy_at per chamber, check one more."""
    n = curve.model.dimension
    v = curve.total_volume
    total = Q(0)
    for ch in curve_chambers(curve.model, curve.l, curve.d):
        direction = entropy_direction(curve.model, curve.k_rel, ch)
        xs = ch.sample_points(n + 1)
        ys = [n * positive_pairing(curve.model, curve.l - curve.d.scale(x), direction) / v
              for x in xs]
        poly = fit_polynomial(xs[:n], ys[:n])
        assert poly(xs[-1]) == ys[-1]
        total += poly.integrate(ch.lo, ch.hi)
    return total


def test_entropy_integrand_matches_derivative_pairing(surfaces, p3):
    # the criterion-6 models: P2 along H, seeded directions on F1, P1xP1,
    # F1 refined at (1,2) with its K_rel, and P3
    rng = random.Random(67)
    refined, pull, k_rel = star_subdivision(surfaces["f1"], (1, 2))
    models = [
        (surfaces["p2"], anticanonical(surfaces["p2"]), None, 0),
        (surfaces["f1"], anticanonical(surfaces["f1"]), None, 2),
        (surfaces["p1xp1"], anticanonical(surfaces["p1xp1"]), None, 2),
        (refined, pull(anticanonical(surfaces["f1"])), k_rel, 2),
        (p3, anticanonical(p3), None, 1),
    ]
    curves = [extended_curve(surfaces["p2"], models[0][1], ray_divisor(surfaces["p2"], 0))]
    curves += p3_exceptional_curves(p3)
    for fan, l, k, count in models:
        for _ in range(count):
            coeffs = [0] * len(fan.rays)
            while not any(coeffs):
                coeffs = [Q(rng.choice([0, 0, 1, 1, 2, 3]), rng.choice([1, 2, 3])) for _ in coeffs]
            curves.append(extended_curve(fan, l, divisor(fan, coeffs), k_rel=k))
    for curve in curves:
        ricci = anticanonical(curve.model) + curve.k_rel
        for ch in curve_chambers(curve.model, curve.l, curve.d):
            # the entropy, jtilde and Ricci integrands against the derivative pairing
            for alpha in (entropy_direction(curve.model, curve.k_rel, ch), curve.l, ricci):
                integrand = pairing(ch, alpha)
                for tau in ch.sample_points(2):
                    family_value = curve.l - curve.d.scale(tau)
                    assert integrand(tau) == positive_pairing(curve.model, family_value, alpha)
        assert entropy(curve) == sampled_entropy(curve)


# ---- self-checks under python -O -------------------------------------------

def corrupt_facet_simplex(facets):
    """Q's facet table with the first simplex of row 0's facet one larger in |det|."""
    rows = [list(row) for row in facets]
    (d, heights), *rest = rows[0]
    rows[0] = [(d + 1, heights), *rest]
    return rows


# Breaks one input of each self-check in turn and records whether it raised
# InvariantViolation; then runs the CLI with one facet simplex of the
# hypograph corrupted.
BROKEN_CHECKS = """
import json
from fractions import Fraction

import toricstab.geometry as geometry
import toricstab.test_curves as tc
import toricstab.toric as toric
import toricstab.volume_fn as vf
from toricstab import Fan, anticanonical, divisor, extended_curve
from toricstab.cli import main
from toricstab.errors import InvariantViolation

p2 = Fan.make([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
h = divisor(p2, [1, 0, 0])
raised = {"debug": __debug__}


def attempt(name, call):
    try:
        call()
    except InvariantViolation:
        raised[name] = True
    else:
        raised[name] = False


real_polytope_of = toric.polytope_of
polytopes = iter([real_polytope_of(p2, h), real_polytope_of(p2, anticanonical(p2))])
toric.polytope_of = lambda fan, d: next(polytopes)
attempt("zariski", lambda: toric.zariski_decompose(p2, h))
toric.polytope_of = real_polytope_of

real_volume = vf.big_volume
growing = iter([Fraction(1), Fraction(2)])
vf.big_volume = lambda fan, d: next(growing)
attempt("stabilized", lambda: vf.stabilized_volume(p2, anticanonical(p2), h, [[1, 1]]))
vf.big_volume = real_volume

# every facet volume of P_M one too large: the facets break Euler's identity
real_facet_volumes = vf.facet_volumes
vf.facet_volumes = lambda p, normals: [f + 1 for f in real_facet_volumes(p, normals)]
attempt("euler", lambda: vf.positive_pairing(p2, anticanonical(p2), h))
vf.facet_volumes = real_facet_volumes

# one facet simplex of the hypograph one too large in |det|: Q breaks Euler's identity
real_facets = geometry._Hypograph.facets.func
geometry._Hypograph.facets = property(lambda self: corrupt_facet_simplex(real_facets(self)))
attempt("hypograph", lambda: tc.alpha_energy(extended_curve(p2, anticanonical(p2), h), h))
print(json.dumps(raised))
raise SystemExit(main(["curve", PATH, "--direction", "H", "--functionals", "Ealpha"]))
"""


def test_self_checks_survive_optimize(problems_dir, run_optimized):
    import inspect

    script = (
        f"PATH = {str(problems_dir / 'p2.json')!r}\n"
        + inspect.getsource(corrupt_facet_simplex)
        + BROKEN_CHECKS
    )
    result = run_optimized(script)
    assert json.loads(result.stdout) == {
        "debug": False, "zariski": True, "stabilized": True, "euler": True, "hypograph": True,
    }
    assert result.returncode == 3, result.stderr
    assert json.loads(result.stderr)["error"] == "InvariantViolation"


def clear_memos():
    for memo in memoized_pieces():
        memo.cache_clear()


def test_a_corrupted_facet_simplex_breaks_euler(p2, monkeypatch):
    # one simplex of Q's facet on ray 0 one larger in |det|: the extended
    # curve's integrals break Euler's identity on Q and nothing is cached
    real = geometry._Hypograph.facets.func
    monkeypatch.setattr(
        geometry._Hypograph, "facets", property(lambda self: corrupt_facet_simplex(real(self)))
    )
    clear_memos()
    l, h = anticanonical(p2), ray_divisor(p2, 0)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="Euler's identity on \\[0, 3\\]"):
            extended_curve(p2, l, h)
    assert tc._ray_curve.cache_info().currsize == 0


# ---- the memoized curve pieces against the unmemoized route ----------------

def memoized_pieces():
    """The memoized pieces of a test curve: the ray's family, volume curve and integrals, and D's split."""
    return [vf.divisor_family, vf.ray_volume_curve, tc._ray_curve, vf._ray]


def seeded_directions(surfaces, p3, seed):
    """(fan, L, D, K_rel): P2 along H and seeded directions on the criterion-6 models.

    A direction whose tau+ is below 1 is scaled by tau+/2, as criterion 6
    does, so the unit-interval quotient is defined on every one.
    """
    rng = random.Random(seed)
    refined, pull, k_rel = star_subdivision(surfaces["f1"], (1, 2))
    p2 = surfaces["p2"]
    out = [(p2, anticanonical(p2), ray_divisor(p2, 0), None)]
    for fan, l, k, count in [
        (surfaces["f1"], anticanonical(surfaces["f1"]), None, 2),
        (surfaces["p1xp1"], anticanonical(surfaces["p1xp1"]), None, 2),
        (refined, pull(anticanonical(surfaces["f1"])), k_rel, 2),
        (p3, anticanonical(p3), None, 1),
    ]:
        for _ in range(count):
            coeffs = [0] * len(fan.rays)
            while not any(coeffs):
                coeffs = [Q(rng.choice([0, 0, 1, 1, 2, 3]), rng.choice([1, 2, 3])) for _ in coeffs]
            d = divisor(fan, coeffs)
            _curve, tau_plus = volume_curve(fan, l, d)
            out.append((fan, l, d if tau_plus >= 1 else d.scale(tau_plus / 2), k))
    return out


def curve_values(fan, l, d, k):
    # looked up at call time, so the oracle below sees its patched bindings
    from toricstab import delta_pp_quotient, delta_prime_quotient, volume_curve

    curve = extended_curve(fan, l, d, k_rel=k)
    return (
        volume_curve(fan, l, d),
        curve,
        curve_summary(curve),
        jtilde(truncated_curve(curve)),
        delta_pp_quotient(fan, l, d, k_rel=k),
        delta_prime_quotient(fan, l, d, k_rel=k),
    )


def test_memoized_curves_match_unmemoized_route(surfaces, p3, monkeypatch):
    directions = seeded_directions(surfaces, p3, 71)
    pieces = memoized_pieces()
    warm = [curve_values(*args) for args in directions]
    # a second pass is served by the memos: no new entries, and the family
    # is not even asked for, because the volume curve and the ray's curve
    # data, the truncated curve's included, are hits
    before = [fn.cache_info() for fn in pieces]
    again = [curve_values(*args) for args in directions]
    after = [fn.cache_info() for fn in pieces]
    assert again == warm
    assert [a.misses for a in after] == [b.misses for b in before]
    assert after[0].hits == before[0].hits
    assert all(a.hits > b.hits for a, b in zip(after[1:], before[1:]))
    # the oracle: every memoized function replaced by its unmemoized body in
    # every toricstab module that binds it, so the caches see no further call
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "toricstab"]
    for fn in pieces:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, fn.__wrapped__)
    cold = [curve_values(*args) for args in directions]
    assert [fn.cache_info() for fn in pieces] == after
    assert cold == warm


def test_failed_checks_are_not_cached(p2, monkeypatch):
    l, h = anticanonical(p2), ray_divisor(p2, 0)
    not_effective = divisor(p2, [1, -1, 0])
    size = vf.ray_volume_curve.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ZeroDivisor, match="effective"):
            volume_curve(p2, l, not_effective)
    assert vf.ray_volume_curve.cache_info().currsize == size
    clear_memos()
    real_integrals = tc.family_integrals
    monkeypatch.setattr(
        tc,
        "family_integrals",
        lambda pp, top, top_volume: real_integrals(pp, top, top_volume + 1),
    )
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="Euler's identity"):
            tc._ray_curve(p2, l, h)
    assert tc._ray_curve.cache_info().currsize == 0
    monkeypatch.setattr(tc, "family_integrals", real_integrals)
    assert tc._ray_curve(p2, l, h)[1:] == tc._ray_curve.__wrapped__(p2, l, h)[1:]
    assert tc._ray_curve.cache_info().currsize == 1


# ---- one hypograph per direction ray ----------------------------------------

def test_rescaled_directions_share_one_hypograph(f1, monkeypatch):
    # volume curves and test curves along E and along c E build Q once
    built = []
    real_init = geometry._Hypograph.__init__
    monkeypatch.setattr(
        geometry._Hypograph, "__init__",
        lambda self, rows, q, n: built.append(rows) or real_init(self, rows, q, n),
    )
    clear_memos()
    l, e = anticanonical(f1), ray_divisor(f1, 3)
    base, tau_plus = volume_curve(f1, l, e)
    for c in (Q(1, 2), 2, Q(7, 3), Q(2, 7)):
        scaled, scaled_tau = volume_curve(f1, l, e.scale(c))
        assert scaled_tau == tau_plus / c
        assert scaled.breakpoints == tuple(b / c for b in base.breakpoints)
        for piece, dilated in zip(base.pieces, scaled.pieces):
            assert dilated == Polynomial(
                [a * c**k for k, a in enumerate(piece.coeffs)]
            )
        curve = extended_curve(f1, l, e.scale(c))
        if curve.tau_plus >= 1:
            truncated_curve(curve)
    assert len(built) == 1
    assert vf.divisor_family.cache_info().currsize == 1
    assert tc._ray_curve.cache_info().currsize == 1


def test_equal_directions_split_into_one_ray(f1, monkeypatch):
    # equal divisors built apart share one (D0, c), and every curve along them
    # hands that D0 object to the ray's memo
    clear_memos()
    l = anticanonical(f1)
    one, two = (divisor(f1, [0, Q(2, 3), 0, Q(4, 3)]) for _ in range(2))
    assert one is not two
    (d0, c), (again, c_again) = vf._ray(one), vf._ray(two)
    assert d0 is again and c == c_again == Q(2, 3)
    assert d0.coeffs == (0, 1, 0, 2)
    asked = []
    real = tc._ray_curve
    monkeypatch.setattr(tc, "_ray_curve", lambda fan, l, d0: asked.append(d0) or real(fan, l, d0))
    curves = [extended_curve(f1, l, d) for d in (one, two)]
    truncated_curve(curves[1])
    assert curves[0] == curves[1]
    assert len(asked) == 3 and all(d is d0 for d in asked)
    assert vf._ray.cache_info().currsize == 1


def test_a_zero_direction_leaves_no_ray_memo(p2):
    clear_memos()
    for _ in range(2):
        with pytest.raises(ZeroDivisor, match="zero"):
            extended_curve(p2, anticanonical(p2), zero_divisor(p2))
    assert vf._ray.cache_info().currsize == 0


def test_entropy_and_ricci_energy_match_divisor_pairings(f1, p3):
    # the integer sums against n E^(K_rel + Red D) and -n E^(-K + K_rel), with
    # K_rel != 0, on extended curves and on truncated ones
    kinds = collections.Counter()
    for base, centre in ((f1, (1, 2)), (p3, (1, 1, 1))):
        fan, pull, k_rel = star_subdivision(base, centre)
        assert not k_rel.is_zero
        l, anti = pull(anticanonical(base)), anticanonical(fan)
        n = fan.dimension
        rays = range(len(fan.rays))
        directions = [ray_divisor(fan, i) for i in rays]
        directions += [
            ray_divisor(fan, i) + ray_divisor(fan, j).scale(Q(1, 2)) for i in rays for j in rays if i < j
        ]
        for d in directions:
            curve = extended_curve(fan, l, d, k_rel=k_rel)
            curves = [curve, truncated_curve(curve)] if curve.tau_plus >= 1 else [curve]
            for c in curves:
                assert entropy(c) == n * alpha_energy(c, k_rel + d.reduced())
                assert ricci_energy(c) == -n * alpha_energy(c, anti + k_rel)
                kinds[n, c.kind] += 1
    assert set(kinds) == {(2, "extended"), (2, "truncated"), (3, "extended"), (3, "truncated")}


# ---- curve chambers are the divisor family's chambers (the oracle) ----------

def crossing_refinement(fan, l, d):
    """Curve chambers cut at every crossing of two vertex paths' values against a ray.

    An independent oracle for the unrefined curve chambers: each family
    chamber is split wherever two of the oracle's vertex paths feasible on
    it swap order against some ray, and each piece reads every ray's
    minimizing path at its own midpoint and its facets on its own interval.
    """
    family = vf.divisor_family(fan, l, d)
    volumes = vf.family_volume_curve(family)
    bases = oracle_basis_paths(family_halfspaces(family), family.dimension)
    pieces = []
    for chamber in family.chambers:
        paths = [
            p for p, lo, hi in bases
            if (lo is None or lo <= chamber.lo) and (hi is None or chamber.hi <= hi)
        ]
        lines = [[(dot(p.base, u), dot(p.velocity, u)) for p in paths] for u in fan.rays]
        walls = {chamber.lo, chamber.hi}
        for ray_lines in lines:
            for (a0, a1), (b0, b1) in itertools.combinations(ray_lines, 2):
                if a1 != b1 and chamber.lo < (b0 - a0) / (a1 - b1) < chamber.hi:
                    walls.add((b0 - a0) / (a1 - b1))
        ordered = sorted(walls)
        for lo, hi in zip(ordered, ordered[1:]):
            mid = (lo + hi) / 2
            minima = [min(ray_lines, key=lambda c: c[0] + c[1] * mid) for ray_lines in lines]
            pos = tuple(Polynomial.of(-c0, -c1) for c0, c1 in minima)
            red = tuple(i for i, path in enumerate(pos) if l.coeffs[i] > path(mid))
            facets = chamber_facet_polynomials(family, Chamber(lo, hi))
            mass = volumes.piece_at(mid)
            integrals = chamber_integrals(lo, hi, facets, mass)
            pieces.append(CurveChamber(lo, hi, pos, red, mass, facets, *integrals))
    return pieces


def test_curve_chambers_match_crossing_refinement(surfaces, p3):
    directions = [(fan, l, d) for fan, l, d, _k in seeded_directions(surfaces, p3, 71)]
    directions += [(c.model, c.l, c.d) for c in p3_exceptional_curves(p3)]
    split = 0
    for fan, l, d in directions:
        chambers = curve_chambers(fan, l, d)
        assert len(chambers) == len(vf.divisor_family(fan, l, d).chambers)
        pieces = crossing_refinement(fan, l, d)
        split += len(pieces) - len(chambers)
        for piece in pieces:
            (cover,) = [ch for ch in chambers if ch.lo <= piece.lo and piece.hi <= ch.hi]
            assert replace(cover, lo=piece.lo, hi=piece.hi) == piece
    assert split > 0  # the oracle does cut some family chambers


def test_minimizer_check_raises_on_a_merged_chamber(f1, monkeypatch):
    # F1 along D_0 has two family chambers; at their wall t = 1 the support
    # function of the ray (1, 1) bends: min of x + y over P_t is max(-1, t - 2)
    l, d = anticanonical(f1), ray_divisor(f1, 0)
    family = vf.divisor_family(f1, l, d)
    first, second = family.chambers
    merged = Chamber(first.lo, second.hi)
    monkeypatch.setattr(
        oracles, "divisor_family",
        lambda *_args: ParametricPolytope(
            family.rows, family.q, (merged,), family.t_max, family.dimension, family.hypograph
        ),
    )
    curve_chambers.cache_clear()
    with pytest.raises(InvariantViolation, match=r"ray \(1, 1\) bends inside the chamber \[0, 3\]"):
        curve_chambers(f1, l, d)
    assert curve_chambers.cache_info().currsize == 0


def test_a_family_is_enumerated_once(f1, monkeypatch):
    # building F1's family along D_0, its volume curve, its extended and
    # truncated curves and the oracle's facet polynomials solves the family's
    # bases once: every other basic-solution loop is the vertex enumeration
    # of one polytope (_int_vertices)
    l, d = anticanonical(f1), ray_divisor(f1, 0)
    calls = collections.Counter()
    modules = [m for key, m in sys.modules.items() if key.startswith("toricstab.")]
    for name in ("_basic_solutions", "_int_vertices"):
        real = getattr(geometry, name)
        for module in modules:  # wherever the name was imported
            if vars(module).get(name) is real:
                monkeypatch.setattr(
                    module, name,
                    lambda *args, real=real, name=name: calls.update([name]) or real(*args),
                )
    clear_memos()
    family = vf.divisor_family(f1, l, d)
    vf.volume_curve(f1, l, d)
    truncated_curve(extended_curve(f1, l, d))
    for chamber in family.chambers:
        chamber_facet_polynomials(family, chamber)
    assert calls["_int_vertices"] > 0
    assert calls["_basic_solutions"] - calls["_int_vertices"] == 1


def test_a_curve_operation_builds_no_polytope(f1, monkeypatch):
    # F1 with -K along E, every cache cold: the volume curve, the extended
    # curve, its summary and both quotients read the polarization check off
    # the cone vertices and everything else off the ray's hypograph; the only
    # Polytopes built are the chamber checks' volumes, each from its own rows
    from toricstab import delta_pp_quotient, delta_prime_quotient

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricstab":
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    built, checks = [], []
    real = geometry.Polytope.from_rows
    monkeypatch.setattr(
        geometry.Polytope, "from_rows", classmethod(lambda cls, *args: built.append(1) or real(*args)),
    )
    check = vf.normalized_volume
    monkeypatch.setattr(vf, "normalized_volume", lambda *args: checks.append(1) or check(*args))
    l, e = anticanonical(f1), ray_divisor(f1, 3)
    volume_curve(f1, l, e)
    curve_summary(extended_curve(f1, l, e))
    delta_pp_quotient(f1, l, e)
    delta_prime_quotient(f1, l, e)
    assert checks and len(built) == len(checks)


def test_positive_and_negative_parts_match_zariski(surfaces, p3):
    # at both ends and the midpoint of every oracle chamber below tau+, the
    # curve's Zariski parts are the chamber route's affine positive part and
    # L - tau*D minus it
    blp3, _pull, blp3_k_rel = star_subdivision(p3, (1, 1, 1))
    refined_f1, _pull, f1_k_rel = star_subdivision(surfaces["f1"], (1, 2))
    models = [(fan, None) for fan in (*surfaces.values(), p3)]
    models += [(blp3, blp3_k_rel), (refined_f1, f1_k_rel)]
    points = 0
    for fan, k_rel in models:
        l = anticanonical(fan)
        for i in range(len(fan.rays)):
            d = ray_divisor(fan, i)
            curve = extended_curve(fan, l, d, k_rel=k_rel)
            chambers = curve_chambers(fan, l, d)
            taus = {tau for ch in chambers for tau in (ch.lo, (ch.lo + ch.hi) / 2, ch.hi)}
            for tau in sorted(taus - {curve.tau_plus}):
                ch = next(ch for ch in chambers if ch.lo <= tau < ch.hi)
                positive = divisor(fan, ch.positive_at(tau))
                assert curve.positive_part(tau) == positive, (fan.rays, i, tau)
                assert curve.negative_part(tau) == l - d.scale(tau) - positive, (fan.rays, i, tau)
                points += 1
    assert points == 70
    with pytest.raises(OutOfRange):
        curve.positive_part(curve.tau_plus + 1)


# ---- the hypograph's integrals against the chamber route ---------------------

def alpha_energy_oracle(curve, alpha):
    """The paper's tau+ (alpha.L^{n-1})/V + (1/V) int (<P_tau^{n-1}>.alpha - alpha.L^{n-1}).

    Summed over the oracle's chambers on the curve's domain, each pairing
    integrated as a polynomial.
    """
    n, v = curve.model.dimension, curve.total_volume
    base = intersection_number(curve.model, [curve.l] * (n - 1) + [alpha])
    total = curve.tau_plus * base / v
    chambers = clipped_chambers(curve_chambers(curve.model, curve.l, curve.d), curve.tau_plus)
    for ch in chambers:
        total += (pairing(ch, alpha).integrate(ch.lo, ch.hi) - base * (ch.hi - ch.lo)) / v
    return total


def oracle_models(surfaces, p3):
    """(fan, L, K_rel) of P2, F1, P1xP1, F1 refined at (1,2), P3, Bl_p P3, P3 refined at (1,1,0)."""
    out = [(fan, anticanonical(fan), None) for fan in (*surfaces.values(), p3)]
    for base, center in [(surfaces["f1"], (1, 2)), (p3, (1, 1, 1)), (p3, (1, 1, 0))]:
        fan, pull, k_rel = star_subdivision(base, center)
        out.append((fan, pull(anticanonical(base)), k_rel))
    return out


def oracle_curves(surfaces, p3, rng):
    """Extended and truncated curves along the last ray and one seeded direction per model."""
    curves = []
    for fan, l, k in oracle_models(surfaces, p3):
        coeffs = [Q(rng.choice([0, 1, 2]), rng.choice([1, 2])) for _ in fan.rays]
        coeffs[-1] += 1
        for d in (ray_divisor(fan, len(fan.rays) - 1), divisor(fan, coeffs)):
            _curve, tau_plus = volume_curve(fan, l, d)
            if tau_plus < 1:
                d = d.scale(tau_plus / 2)
            curve = extended_curve(fan, l, d, k_rel=k)
            curves += [curve, truncated_curve(curve)]
    return curves


def test_chamber_integrals_match_polynomial_route(surfaces, p3):
    # the hypograph's facet and mass integrals, on [0, tau+] and on [0, 1],
    # equal the sums of the chamber route's polynomial integrals, and every
    # functional its chamber sum
    rng = random.Random(89)
    not_nef = 0
    for curve in oracle_curves(surfaces, p3, rng):
        fan = curve.model
        chambers = clipped_chambers(curve_chambers(fan, curve.l, curve.d), curve.tau_plus)
        assert curve.mass_integral == sum(ch.mass.integrate(ch.lo, ch.hi) for ch in chambers)
        for i in range(len(fan.rays)):
            assert curve.pairing_integral(ray_divisor(fan, i)) == sum(
                ch.facets[i].integrate(ch.lo, ch.hi) for ch in chambers
            )
        for _ in range(3):
            alpha = divisor(fan, [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in fan.rays])
            # the dot product against the paper's tau+ form, with its ring product
            assert alpha_energy(curve, alpha) == alpha_energy_oracle(curve, alpha)
            not_nef += not is_nef(fan, alpha)
        s = curve_summary(curve)
        top = None if curve.kind == "extended" else 1
        assert (s.energy, s.omega_energy, s.jtilde, s.entropy, s.ricci_energy) == (
            chamber_functionals(fan, curve.l, curve.d, curve.k_rel, top)
        )
    assert not_nef > 0


def test_one_direction_integrates_its_hypograph_once(f1, monkeypatch):
    # F1 along 2E: the summary and both quotients integrate the ray's
    # hypograph once over [0, tau+ of E] and once over [0, 2] for the
    # truncated curve, and integrate no polynomial
    from toricstab import delta_pp_quotient, delta_prime_quotient

    integrated = []
    real_integrals = tc.family_integrals

    def spy(pp, top, top_volume):
        integrated.append(top)
        return real_integrals(pp, top, top_volume)

    def forbidden(poly, a, b):
        raise AssertionError("a functional integrated a polynomial")

    monkeypatch.setattr(tc, "family_integrals", spy)
    monkeypatch.setattr(Polynomial, "integrate", forbidden)
    clear_memos()
    l, d = anticanonical(f1), ray_divisor(f1, 3).scale(Q(1, 2))
    curve = extended_curve(f1, l, d)
    assert curve.tau_plus == 4
    curve_summary(curve)
    delta_pp_quotient(f1, l, d)
    delta_prime_quotient(f1, l, d)
    assert integrated == [2, Q(1, 2)]


def test_radial_functionals_compute_no_ring_product(f1, monkeypatch):
    # F1 along E: the summary and the pp quotient are dot products and call
    # no intersection_number; the prime quotient calls it n times, all in g_pairing
    from toricstab import delta_pp_quotient, delta_prime_quotient
    import toricstab.toric as toric

    callers = collections.Counter()
    real = toric.intersection_number
    modules = [m for key, m in sys.modules.items() if key.startswith("toricstab")]
    for module in modules:  # wherever the name was imported
        if vars(module).get("intersection_number") is real:
            monkeypatch.setattr(
                module, "intersection_number",
                lambda *args: callers.update([sys._getframe(1).f_code.co_name]) or real(*args),
            )
    clear_memos()
    l, e = anticanonical(f1), ray_divisor(f1, 3)
    curve_summary(extended_curve(f1, l, e))
    delta_pp_quotient(f1, l, e)
    assert callers == {}
    delta_prime_quotient(f1, l, e)
    assert callers == {"g_pairing": f1.dimension}


# ---- scale covariance against the chamber route ------------------------------

SCALE_MODELS = ("p2", "f1", "p1xp1", "f1r")


def scale_model(surfaces, name):
    if name == "f1r":
        fan, pull, k_rel = star_subdivision(surfaces["f1"], (1, 2))
        return fan, pull(anticanonical(surfaces["f1"])), k_rel
    return surfaces[name], anticanonical(surfaces[name]), None


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(SCALE_MODELS),
    coeffs=st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
    c=st.fractions(min_value=Q(1, 6), max_value=6, max_denominator=6).filter(lambda x: x > 0),
    at_edge=st.booleans(),
)
def test_rescaled_directions_match_the_chamber_route(surfaces, name, coeffs, c, at_edge):
    # D and cD on one ray: the volume curve is D's with t -> ct; E, E^alpha,
    # J~ and Ent scale by 1/c; the pp quotient does not move; and on [0, 1]
    # the truncated functionals are the chamber route's on cD's own family,
    # at the edge tau+ = 1 too (c = tau+ of D)
    fan, l, k_rel = scale_model(surfaces, name)
    d = divisor(fan, coeffs[: len(fan.rays)])
    if d.is_zero:
        d = ray_divisor(fan, 0)
    volumes, tau_plus = volume_curve(fan, l, d)
    if at_edge:
        c = tau_plus
    scaled_volumes, scaled_tau = volume_curve(fan, l, d.scale(c))
    assert scaled_tau == tau_plus / c
    own = vf.family_volume_curve(vf.divisor_family(fan, l, d.scale(c)))
    assert scaled_volumes == own
    for x in (Q(0), scaled_tau / 3, scaled_tau):
        assert scaled_volumes(x) == volumes(c * x)
    base = curve_summary(extended_curve(fan, l, d, k_rel=k_rel))
    curve = extended_curve(fan, l, d.scale(c), k_rel=k_rel)
    scaled = curve_summary(curve)
    for field_name in ("energy", "omega_energy", "jtilde", "entropy", "ricci_energy"):
        assert getattr(scaled, field_name) == getattr(base, field_name) / c
    assert (scaled.energy, scaled.omega_energy, scaled.jtilde, scaled.entropy,
            scaled.ricci_energy) == chamber_functionals(fan, l, d.scale(c), k_rel)
    from toricstab import delta_pp_quotient

    assert delta_pp_quotient(fan, l, d.scale(c), k_rel=k_rel) == delta_pp_quotient(
        fan, l, d, k_rel=k_rel
    )
    if curve.tau_plus >= 1:
        t = curve_summary(truncated_curve(curve))
        assert (t.energy, t.omega_energy, t.jtilde, t.entropy, t.ricci_energy) == (
            chamber_functionals(fan, l, d.scale(c), k_rel, top=1)
        )


def test_truncated_curve_at_the_edge(f1):
    # F1 with -K along 2E: tau+ = 1, so the truncated curve is the whole
    # extended one, and the prime quotient is delta(F1)
    from toricstab import delta_prime_quotient

    l, e = anticanonical(f1), ray_divisor(f1, 3)
    curve = extended_curve(f1, l, e.scale(2))
    assert curve.tau_plus == 1
    truncated = truncated_curve(curve)
    assert alpha_energy(truncated, e) == Q(1, 4)
    s = curve_summary(truncated)
    assert s == curve_summary(curve)
    assert (s.energy, s.omega_energy, s.jtilde, s.entropy, s.ricci_energy) == (
        chamber_functionals(f1, l, e.scale(2), top=1)
    )
    assert delta_prime_quotient(f1, l, e.scale(2)) == Q(6, 7)
