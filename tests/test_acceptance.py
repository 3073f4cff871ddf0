"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value below was recomputed by an independent oracle before
being frozen: closed-form polytope slices for the expected vanishing orders,
hand integration for the curve functionals, and the averaging-polynomial
closed form for the unit-interval quotients.  All comparisons are exact
(Fraction equality, zero tolerance); the only non-exact assertions are the
stated wall-clock budgets.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as Q

from toricstab import (
    Polynomial,
    alpha_energy,
    anticanonical,
    big_volume,
    delta_pp_quotient,
    delta_prime_quotient,
    delta_quotient,
    delta_search,
    dh_measure,
    divisor,
    energy,
    energy_from_dh,
    entropy,
    extended_curve,
    filtration_curve,
    g_pairing,
    intersection_number,
    jtilde,
    polytope_of,
    ray_divisor,
    ricci_energy,
    star_subdivision,
    twisted_mabuchi,
    validate_fan,
    volume_curve,
    zariski_decompose,
)
from toricstab.errors import AlreadyARay, NotPseudoEffective
from toricstab.geometry import volume
from oracles import fit_polynomial, g_polynomial, mixed_volume


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_delta_p2(p2):
    start = time.monotonic()
    report = delta_search(p2, anticanonical(p2), 2)
    elapsed = time.monotonic() - start
    ok = report.delta_estimate == 1 and elapsed < 1.0
    _report("1 delta(P2)", ok, f"delta = {report.delta_estimate}, {elapsed:.3f}s")


def test_criterion_2_delta_blowup(f1):
    start = time.monotonic()
    report = delta_search(f1, anticanonical(f1), 2)
    elapsed = time.monotonic() - start
    ok = (
        report.delta_estimate == Q(6, 7)
        and report.minimizer == (1, 1)
        and elapsed < 5.0
    )
    _report(
        "2 delta(Bl_pt P2)",
        ok,
        f"delta = {report.delta_estimate} at {report.minimizer}, {elapsed:.3f}s",
    )


def test_criterion_3_p2_curve_functionals(p2):
    k2 = anticanonical(p2)
    h = ray_divisor(p2, 0)
    curve = extended_curve(p2, k2, h)
    moment = energy_from_dh(dh_measure(filtration_curve(p2, k2, (1, 0)), 9))
    values = {
        "energy": (energy(curve), Q(1)),
        "omega-energy": (alpha_energy(curve, k2), Q(3, 2)),
        "jtilde": (jtilde(curve), Q(1)),
        "entropy": (entropy(curve), Q(1)),
        "ricci": (ricci_energy(curve), Q(-3)),
        "mabuchi": (twisted_mabuchi(curve), Q(-2)),
        "dh-moment": (moment, Q(1)),
    }
    ok = all(got == want for got, want in values.values())
    detail = ", ".join(f"{k}={got}" for k, (got, _w) in values.items())
    _report("3 P2 H-curve", ok, detail)


def test_criterion_4_delta_prime(p2):
    three_h = ray_divisor(p2, 0).scale(3)
    h = ray_divisor(p2, 0)
    value = delta_prime_quotient(p2, three_h, h)
    # both numerator routes: the averaging polynomial and direct integration
    g_route = 2 * g_pairing(p2, three_h, h, h.reduced())
    xs = [Q(1, 3), Q(2, 3)]
    ys = [
        2 * intersection_number(p2, [three_h - h.scale(x), h])
        for x in xs
    ]
    integral_route = fit_polynomial(xs, ys).integrate(0, 1)
    ok = value == Q(15, 7) and g_route == integral_route == 5
    _report(
        "4 delta-prime(P2, 3H, H)",
        ok,
        f"quotient = {value}, numerator routes {g_route} == {integral_route}",
    )


def test_criterion_5_identity_suite(surfaces):
    checks = 0
    # energy = DH moment and jtilde = n(E^omega - E) on all 11 ray directions
    for fan in surfaces.values():
        k = anticanonical(fan)
        v = big_volume(fan, k)
        for i, ray in enumerate(fan.rays):
            curve = extended_curve(fan, k, ray_divisor(fan, i))
            moment = energy_from_dh(dh_measure(filtration_curve(fan, k, ray), v))
            assert energy(curve) == moment
            assert jtilde(curve) == fan.dimension * (alpha_energy(curve, k) - energy(curve))
            checks += 1
    assert checks == 11
    # averaging-polynomial identity on 100 random rational pairs, n <= 5
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(1, 5)
        a = Q(rng.randint(-12, 12), rng.randint(1, 9))
        b = Q(rng.randint(-12, 12), rng.randint(1, 9))
        prod = Polynomial.of(1)
        for _i in range(n - 1):
            prod = prod * Polynomial.of(a, -b)
        assert prod.integrate(0, 1) == g_polynomial(a, b, n)
    # coefficient-1 identity on P2/H and F1/E
    p2, f1 = surfaces["p2"], surfaces["f1"]
    for fan, index, u in ((p2, 0, (1, 0)), (f1, 3, (1, 1))):
        k = anticanonical(fan)
        curve = extended_curve(fan, k, ray_divisor(fan, index))
        assert entropy(curve) / jtilde(curve) == delta_quotient(fan, k, u)
    _report("5 identity suite", True, "11 ray identities, 100 scalar identities")


def random_effective(fan, rng: random.Random):
    while True:
        coeffs = [Q(rng.choice([0, 0, 1, 1, 2, 3]), rng.choice([1, 2, 3])) for _ in fan.rays]
        if any(coeffs):
            return divisor(fan, coeffs)


def test_criterion_6_inequality_suite(surfaces):
    start = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for fan in surfaces.values():
        k = anticanonical(fan)
        delta = delta_search(fan, k, 3).delta_estimate
        for _ in range(20):
            d = random_effective(fan, rng)
            _curve, tau_plus = volume_curve(fan, k, d)
            if tau_plus < 1:
                d = d.scale(tau_plus / 2)  # rescale so the unit interval stays big
            assert delta_pp_quotient(fan, k, d) >= delta
            assert delta_prime_quotient(fan, k, d) >= delta
            checked += 1
    # scaling invariance of the pp-quotient
    f1 = surfaces["f1"]
    e = ray_divisor(f1, 3)
    base = delta_pp_quotient(f1, anticanonical(f1), e)
    for c in (Q(1, 2), 2, 3):
        assert delta_pp_quotient(f1, anticanonical(f1), e.scale(c)) == base
    elapsed = time.monotonic() - start
    ok = checked == 60 and elapsed < 60.0
    _report("6 inequality suite", ok, f"{checked} directions, {elapsed:.1f}s")


def test_criterion_7_structural_suite(surfaces, p3):
    rng = random.Random(211)
    fans = list(surfaces.values()) + [p3]
    # pullback invariance under 20 random star subdivisions
    done = 0
    while done < 20:
        fan = rng.choice(fans)
        k = anticanonical(fan)
        cone = rng.choice(fan.max_cones)
        i, j = rng.sample(list(cone), 2)
        center = tuple(a + b for a, b in zip(fan.rays[i], fan.rays[j]))
        try:
            refined, pull, _k_rel = star_subdivision(fan, center)
        except AlreadyARay:
            continue
        assert validate_fan(refined).ok
        pulled = pull(k)
        assert big_volume(refined, pulled) == big_volume(fan, k)
        n = fan.dimension
        assert intersection_number(refined, [pulled] * n) == intersection_number(
            fan, [k] * n
        )
        assert volume(polytope_of(refined, pulled)) == volume(polytope_of(fan, k))
        done += 1
    # log-concavity ratio tests: 100 equally spaced triples per family
    for fan in surfaces.values():
        k = anticanonical(fan)
        for d in (ray_divisor(fan, 0), anticanonical(fan)):
            curve, tau = volume_curve(fan, k, d)
            triples = 0
            for idx in range(1, 301):
                step = tau * Q(idx, 302)
                a, b, c = step, 2 * step, 3 * step
                if c >= tau:
                    break
                assert curve(a) * curve(c) <= curve(b) ** 2
                triples += 1
            assert triples >= 100
    # mixed-volume symmetry and diagonal normalization on the section polytopes
    p2 = surfaces["p2"]
    tri = polytope_of(p2, anticanonical(p2))
    quad = polytope_of(surfaces["f1"], anticanonical(surfaces["f1"]))
    sq = polytope_of(surfaces["p1xp1"], anticanonical(surfaces["p1xp1"]))
    assert mixed_volume([tri, tri]) == 9
    assert mixed_volume([quad, sq]) == mixed_volume([sq, quad])
    # Zariski: vol(M) = (P^n) on random pseudo-effective classes
    done = 0
    rng2 = random.Random(223)
    while done < 12:
        fan = rng.choice(list(surfaces.values()))
        m = random_effective(fan, rng2) - anticanonical(fan).scale(
            Q(rng2.choice([0, 1]), 2)
        )
        try:
            pair = zariski_decompose(fan, m)
        except NotPseudoEffective:
            continue
        assert big_volume(fan, m) == intersection_number(
            fan, [pair.positive] * fan.dimension
        )
        done += 1
    _report("7 structural suite", True, "pullbacks, log-concavity, Zariski checked")
