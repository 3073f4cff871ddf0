from __future__ import annotations

import itertools
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toricstab.toric as toric
from toricstab import (
    Fan,
    alpha_energy,
    anticanonical,
    big_volume,
    delta_pp_quotient,
    delta_search,
    divisor,
    entropy,
    filtration_curve,
    inequality_report,
    intersection_number,
    is_ample,
    is_nef,
    log_discrepancy,
    polytope_of,
    positive_pairing,
    ray_divisor,
    s_invariant,
    star_subdivision,
    validate_fan,
    volume,
    zariski_decompose,
    zero_divisor,
)
from toricstab.errors import (
    AlreadyARay,
    DimensionMismatch,
    InvariantViolation,
    NonPrimitive,
    NotAmple,
    NotPseudoEffective,
    ZeroVector,
)
from toricstab.geometry import _bareiss, _over_lcm, extreme_rays, is_primitive, linear_stats
from toricstab.toric import is_strictly_ample
from toricstab.test_curves import extended_curve, jtilde, truncated_curve
from toricstab.thresholds import delta_prime_quotient
from toricstab.volume_fn import divisor_family, volume_curve

from oracles import (
    det,
    mixed_volume,
    nonneg_combination,
    oracle_cone_vertices,
    oracle_intersection_number,
    oracle_is_ample,
    oracle_is_nef,
    oracle_is_strictly_ample,
    product_fan,
    ray_monomial,
    seeded_ample,
    solve_linear,
    weighted_projective,
)


def test_validate_p2(p2):
    diag = validate_fan(p2)
    assert diag.ok and diag.is_smooth and diag.is_complete


def test_validate_incomplete_fan():
    fan = Fan.make([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2]])
    diag = validate_fan(fan)
    assert not diag.is_complete
    assert any("not complete" in m for m in diag.messages)


def test_validate_nonprimitive_ray():
    fan = Fan.make([[2, 0], [0, 1], [-2, -1]], [[0, 1], [1, 2], [2, 0]])
    diag = validate_fan(fan)
    assert not diag.all_primitive
    assert any("not primitive" in m for m in diag.messages)


def test_validate_nonsmooth_cone():
    fan = Fan.make([[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
    diag = validate_fan(fan)
    assert not diag.is_smooth and diag.is_simplicial


# (rays, cones) -> the full diagnostics, flags in FanDiagnostics field order
PINNED_FANS = {
    "overlapping": (
        ([[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [2, 0], [0, 3]]),
        (False, True, True, True, False),
        (
            "wall (0,) lies on 3 cone(s), fan not complete",
            "wall (3,) lies on 1 cone(s), fan not complete",
            "cones (0, 1) and (0, 3) overlap beyond a common face (at (1, 1))",
        ),
    ),
    "p123": (
        ([[-2, -3], [1, 0], [0, 1]], [[0, 1], [1, 2], [2, 0]]),
        (True, False, True, True, True),
        (
            "cone (0, 1) has determinant 3 (not smooth)",
            "cone (0, 2) has determinant -2 (not smooth)",
        ),
    ),
    "unused ray": (
        ([[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [2, 0]]),
        (True, True, True, True, False),
        ("ray 3 lies on no maximal cone",),
    ),
    "unused duplicate ray": (
        ([[1, 0], [0, 1], [-1, -1], [1, 0]], [[0, 1], [1, 2], [2, 0]]),
        (True, True, True, True, False),
        ("ray 3 lies on no maximal cone",),
    ),
    "degenerate": (
        ([[1, 0], [0, 1], [-1, 0], [2, 0]], [[0, 1], [1, 2], [2, 3], [3, 0]]),
        (False, False, False, False, True),
        (
            "ray 3 = (2, 0) is not primitive",
            "cone (0, 3) is degenerate",
            "cone (2, 3) is degenerate",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FANS))
def test_validate_pinned_fans(name):
    (rays, cones), flags, messages = PINNED_FANS[name]
    diag = validate_fan(Fan.make(rays, cones))
    assert (
        diag.is_complete, diag.is_smooth, diag.is_simplicial, diag.all_primitive,
        diag.proper_intersections,
    ) == flags
    assert diag.messages == messages
    assert diag.ok == (name == "p123")


def face_test_by_shared_rays(fan):
    """Oracle for validate_fan's face test: the proper flag and the overlap messages.

    Each cone's inward facet normals are its dual basis by solve_linear, each
    scaled to integers by the lcm of its denominators, and an extreme ray of
    two cones' intersection must be a nonnegative combination of their shared
    rays, solved by a Fraction elimination.
    Like validate_fan, it tests only fans of n-ray cones with nonzero
    determinants, in dimension at least 2.  A ray on no cone clears the flag.
    """
    n = fan.dimension
    unused = set(range(len(fan.rays))) - {i for cone in fan.max_cones for i in cone}
    if n == 1 or any(len(c) != n or det(fan.cone_rays(c)) == 0 for c in fan.max_cones):
        return not unused, []

    def normals(cone):
        rays = fan.cone_rays(cone)
        return [_over_lcm(solve_linear(rays, [int(j == k) for k in range(n)]))[0] for j in range(n)]

    messages = []
    for ca, cb in itertools.combinations(fan.max_cones, 2):
        shared = [fan.rays[i] for i in sorted(set(ca) & set(cb))]
        columns = [[ray[i] for ray in shared] for i in range(n)]
        for ray in extreme_rays(normals(ca) + normals(cb), n):
            if nonneg_combination(columns, ray, len(shared)) is None:
                messages.append(f"cones {ca} and {cb} overlap beyond a common face (at {ray})")
                break
    return not messages and not unused, messages


@st.composite
def simplicial_fans(draw, n):
    """A few random primitive rays and some of their nondegenerate n-cones, overlapping or not."""
    coord = st.integers(min_value=-2, max_value=2)
    rays = draw(st.lists(
        st.tuples(*[coord] * n).filter(is_primitive), min_size=n, max_size=n + 3, unique=True
    ))
    cones = [c for c in itertools.combinations(range(len(rays)), n) if det([rays[i] for i in c])]
    assume(len(cones) >= 2)
    return Fan.make(rays, draw(st.lists(st.sampled_from(cones), min_size=2, max_size=5, unique=True)))


def assert_face_test_matches_oracle(fan):
    diag = validate_fan(fan)
    overlaps = [m for m in diag.messages if m.startswith("cones ")]
    assert (diag.proper_intersections, overlaps) == face_test_by_shared_rays(fan)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(simplicial_fans))
def test_face_test_matches_shared_ray_solve_on_random_fans(fan):
    assert_face_test_matches_oracle(fan)


def test_face_test_matches_shared_ray_solve_on_pinned_and_model_fans(models):
    fans = [Fan.make(*spec) for spec, _flags, _messages in PINNED_FANS.values()]
    for fan in fans + list(models.values()):
        assert_face_test_matches_oracle(fan)


def test_polytope_of_anticanonical(p2):
    p = polytope_of(p2, anticanonical(p2))
    assert set(p.vertices) == {(-1, -1), (2, -1), (-1, 2)}


def test_polytope_of_ray_divisor(p2):
    p = polytope_of(p2, ray_divisor(p2, 0))
    assert set(p.vertices) == {(-1, 0), (-1, 1), (0, 0)}


def test_polytope_of_infeasible(p2):
    assert polytope_of(p2, divisor(p2, [-1, -1, -1])).is_empty


def test_log_discrepancy_values(p2):
    assert log_discrepancy(p2, (1, 0)) == 1
    assert log_discrepancy(p2, (1, 1)) == 2
    assert log_discrepancy(p2, (2, 1)) == 3
    with pytest.raises(ZeroVector):
        log_discrepancy(p2, (0, 0))


def test_log_discrepancy_outside_the_support_raises():
    # the quadrant's one cone: the scan finds no cone holding (-1, 0)
    quadrant = Fan.make([[1, 0], [0, 1]], [[0, 1]])
    assert log_discrepancy(quadrant, (1, 2)) == 3
    with pytest.raises(ZeroVector, match=re.escape("(-1, 0) lies outside the support of the fan")):
        log_discrepancy(quadrant, (-1, 0))


def test_divisor_hash_is_cached_and_survives_pickle(f1):
    # equal divisors built apart hash and compare equal, before and after a
    # pickle round trip, as the process pool of delta_search needs; the hash
    # is that of the integer form and builds no Fraction view
    a = divisor(f1, [1, Q(1, 2), 0, 2])
    b = toric.ToricDivisor.make(Fan.make(f1.rays, f1.max_cones), ["1", "1/2", 0, Q(4, 2)])
    assert a == b and hash(a) == hash(b) == hash((f1, (2, 1, 0, 4), 2))
    fresh = toric.ToricDivisor._of(f1, (2, 1, 0, 4), 2)
    assert hash(fresh) == hash(a) and vars(fresh)["_hash"] == hash(a)
    assert not any("coeffs" in vars(d) for d in (a, b, fresh))
    assert {a: "a"}[b] == "a"
    for d in (a, pickle.loads(pickle.dumps(b))):
        back = pickle.loads(pickle.dumps(d))
        assert back == a and hash(back) == hash(a)
    assert a != divisor(f1, [1, Q(1, 3), 0, 2])


divisor_rationals = st.builds(Q, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))
f1_coefficients = st.lists(divisor_rationals, min_size=4, max_size=4)


def _lowest_terms(d) -> bool:
    return d.den > 0 and math.gcd(d.den, *d.nums) == 1


def test_divisor_integer_form_examples(f1):
    d = divisor(f1, ["1/2", "2/3", 1, "5/4"])
    assert (d.nums, d.den) == ((6, 8, 12, 15), 12)
    twin = toric.ToricDivisor._of(f1, (2, 4, 0, 8), 4)
    assert (twin.nums, twin.den) == ((1, 2, 0, 4), 2) and twin == divisor(f1, [Q(2, 4), 1, 0, 2])
    assert hash(twin) == hash(divisor(f1, ["1/2", 1, 0, 2]))
    assert (zero_divisor(f1).nums, zero_divisor(f1).den) == ((0, 0, 0, 0), 1)
    assert d.scale(0) == zero_divisor(f1) and d.scale(0).den == 1


@settings(max_examples=150, deadline=None)
@given(f1_coefficients, f1_coefficients, divisor_rationals)
def test_divisor_integer_form_matches_fraction_arithmetic(f1, a, b, c):
    # (nums, den) in lowest terms with den > 0, and the arithmetic in integers
    # against the same operations on the Fraction coefficients
    d, e = divisor(f1, a), divisor(f1, b)
    assert _lowest_terms(d) and d.coeffs == tuple(a) and [Q(x, d.den) for x in d.nums] == a
    negative = -abs(c) - Q(1, 3)
    cases = [
        (d + e, [x + y for x, y in zip(a, b)]),
        (d - e, [x - y for x, y in zip(a, b)]),
        (-d, [-x for x in a]),
        (d.scale(c), [c * x for x in a]),
        (d.scale(0), [0] * 4),
        (d.scale(negative), [negative * x for x in a]),
        (d.reduced(), [int(x != 0) for x in a]),
    ]
    for got, want in cases:
        assert got.coeffs == tuple(want) and got == divisor(f1, want) and _lowest_terms(got)
        assert got.is_zero == (not any(want)) and got.is_effective == all(x >= 0 for x in want)
        assert got.support() == tuple(i for i, x in enumerate(want) if x)
    twin = toric.ToricDivisor._of(f1, [6 * x for x in d.nums], 6 * d.den)
    assert twin == d and hash(twin) == hash(d) == hash((f1, d.nums, d.den))
    back = pickle.loads(pickle.dumps(d))
    assert back == d and hash(back) == hash(d) and (back.nums, back.den) == (d.nums, d.den)


def test_a_coefficient_list_of_the_wrong_length_is_refused(p2):
    # the constructor checks the length, so is_ample and polytope_of never see
    # a short divisor (a bare IndexError and UnboundedRegion before)
    for coeffs in ((1, 1), (1, 1, 1, 1), ()):
        for build in (toric.ToricDivisor, toric.ToricDivisor.make, divisor):
            with pytest.raises(DimensionMismatch, match="one coefficient per ray required"):
                build(p2, coeffs)
    for check in (is_ample, polytope_of):
        with pytest.raises(DimensionMismatch, match="one coefficient per ray required"):
            check(p2, toric.ToricDivisor(p2, (1, 1)))


def test_fan_hash_is_cached_and_survives_pickle(p3):
    # equal fans built apart, their cones listed in another order, hash and compare
    # equal, also after a pickle round trip, as the process pool of delta_search needs
    fan, pull, _k = star_subdivision(p3, (1, 1, 1))
    again = Fan.make([list(r) for r in fan.rays], [c[::-1] for c in reversed(fan.max_cones)])
    assert again == fan and hash(again) == hash(fan) == hash((fan.rays, fan.max_cones, 3))
    assert vars(again)["_hash"] == hash(fan) and {fan: "fan"}[again] == "fan" and fan != p3
    for f in (fan, pickle.loads(pickle.dumps(again))):
        back = pickle.loads(pickle.dumps(f))
        assert back == fan and hash(back) == hash(fan)
    l = pull(anticanonical(p3))
    assert delta_search(fan, l, 1, jobs=2) == delta_search(fan, l, 1, jobs=1)


def test_log_discrepancy_cone_linearity(surfaces):
    rng = random.Random(3)
    for fan in surfaces.values():
        for cone in fan.max_cones:
            u1, u2 = (fan.rays[i] for i in cone)
            for _ in range(5):
                a, b = rng.randint(0, 4), rng.randint(0, 4)
                c, d = rng.randint(0, 4), rng.randint(0, 4)
                v = tuple(a * x + b * y for x, y in zip(u1, u2))
                w = tuple(c * x + d * y for x, y in zip(u1, u2))
                s = tuple(x + y for x, y in zip(v, w))
                if not any(v) or not any(w) or not any(s):
                    continue
                assert log_discrepancy(fan, s) == log_discrepancy(
                    fan, v
                ) + log_discrepancy(fan, w)
        for ray in fan.rays:
            assert log_discrepancy(fan, ray) == 1


def test_star_subdivision_p2_gives_f1(p2, f1):
    fan, pull, k_rel = star_subdivision(p2, (1, 1))
    assert fan == f1
    assert pull(anticanonical(p2)).coeffs == (1, 1, 1, 2)
    assert k_rel.coeffs == (0, 0, 0, 1)
    assert validate_fan(fan).ok


def test_pullbacks_match_the_fraction_route(surfaces, p3):
    # the pullback's new coefficient, K_rel's and support_value, read in
    # integers off one scan of u's cone, against the cone coordinates in
    # Fractions: smooth and singular cones, det of either sign (P(1,2,3) has
    # dets 3 and -2), -K and seeded divisors, every primitive center of
    # sup-norm at most 2 that is not a ray
    rng = random.Random(47)
    fans = [*surfaces.values(), p3, weighted_projective([1, 1, 2]), weighted_projective([1, 2, 3])]
    dets = set()
    for fan in fans:
        divisors = [anticanonical(fan)] + [
            divisor(fan, [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in fan.rays]) for _ in range(2)
        ]
        for u in itertools.product(range(-2, 3), repeat=fan.dimension):
            if not any(u) or not is_primitive(u) or u in fan.rays:
                continue
            refined, pull, k_rel = star_subdivision(fan, u)
            cone, lam = fan.containing_cone(u)
            dets.add(toric._locate(fan, u)[1])
            assert k_rel == divisor(refined, [0] * len(fan.rays) + [sum(lam) - 1])
            for d in divisors:
                value = -sum(x * d.coeffs[i] for x, i in zip(lam, cone))
                assert toric.support_value(fan, d, u) == value
                assert pull(d) == divisor(refined, [*d.coeffs, -value])
    assert {3, -2} <= dets


def test_no_library_path_builds_a_fraction_view(f1, monkeypatch):
    # a star subdivision, pullbacks, the positive pairing and an inequality
    # report on the refined model, whose search model is F1 with -K: every
    # divisor they build keeps to its integers
    made = []
    real = toric.ToricDivisor._assign

    def assign(self, *args):
        made.append(self)
        real(self, *args)

    monkeypatch.setattr(toric.ToricDivisor, "_assign", assign)
    refined, pull, k_rel = star_subdivision(f1, (1, 2))
    l, e = pull(anticanonical(f1)), pull(ray_divisor(f1, 3))
    assert toric.support_value(f1, ray_divisor(f1, 3), (1, 2)) == -1
    assert positive_pairing(refined, l, e) == intersection_number(refined, [l, e]) == 1
    report = inequality_report(refined, l, [("E", e), ("Ek", e + k_rel)], 2,
                               search_model=(f1, anticanonical(f1)))
    assert any("equals delta" in v.description for v in report.verdicts)
    assert made and not [d for d in made if "coeffs" in vars(d)]


def test_star_subdivision_errors(p2):
    with pytest.raises(AlreadyARay):
        star_subdivision(p2, (1, 0))
    with pytest.raises(NonPrimitive):
        star_subdivision(p2, (2, 2))


def test_intersection_numbers(p2, f1):
    h = ray_divisor(p2, 0)
    assert intersection_number(p2, [h, h]) == 1
    k2 = anticanonical(p2)
    assert intersection_number(p2, [k2, k2]) == 9
    kf1 = anticanonical(f1)
    assert intersection_number(f1, [kf1, kf1]) == 8


def test_intersection_non_nef_splitting(f1):
    kf1 = anticanonical(f1)
    e = ray_divisor(f1, 3)
    fiber = ray_divisor(f1, 0)
    assert intersection_number(f1, [e, e]) == -1
    assert intersection_number(f1, [fiber, fiber]) == 0
    assert intersection_number(f1, [fiber, e]) == 1
    assert intersection_number(f1, [kf1, e]) == 1


def test_intersection_symmetry_multilinearity(f1):
    rng = random.Random(9)
    kf1 = anticanonical(f1)
    nef_divs = [random_nef(f1, rng) for _ in range(4)]
    for a, b in zip(nef_divs, nef_divs[1:]):
        assert intersection_number(f1, [a, b]) == intersection_number(f1, [b, a])
        c = a + b
        third = nef_divs[0]
        assert intersection_number(f1, [c, third]) == intersection_number(
            f1, [a, third]
        ) + intersection_number(f1, [b, third])


def random_nef(fan, rng: random.Random):
    """Divisor of the hull of a random lattice point set: saturated, hence nef."""
    pts = [
        (rng.randint(-3, 3), rng.randint(-3, 3))
        for _ in range(rng.randint(2, 6))
    ]
    coeffs = [-min(sum(a * b for a, b in zip(p, u)) for p in pts) for u in fan.rays]
    return divisor(fan, coeffs)


def test_random_saturated_divisors_are_nef(surfaces):
    rng = random.Random(17)
    for fan in surfaces.values():
        for _ in range(10):
            d = random_nef(fan, rng)
            assert is_nef(fan, d)
            # cone-vertex criterion agrees with saturation
            p = polytope_of(fan, d)
            for cone in fan.max_cones:
                m = solve_linear(
                    [fan.rays[i] for i in cone], [-d.coeffs[i] for i in cone]
                )
                assert m is not None and all(hs.slack(m) >= 0 for hs in p.halfspaces)


def test_polarization_checks_match_polytope_oracle(p2, f1, p1xp1, p3):
    """Cone-vertex nef/ample checks against the section-polytope route, on 11 fans.

    Half the divisors have random rational coefficients (empty P_D included),
    half are the saturated divisors of random rational point sets, which are
    nef on the surfaces and, on the refined fans, often ample but not strict.
    """
    f1_once, _pull, _k = star_subdivision(f1, (1, 2))
    p3_once, _pull, _k = star_subdivision(p3, (1, 1, 0))
    fans = [
        p2, f1, p1xp1, p3,
        Fan.make([[-2, -3], [1, 0], [0, 1]], [[0, 1], [1, 2], [2, 0]]),  # P(1,2,3)
        Fan.make([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                 [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]),  # dP6
        star_subdivision(p3, (1, 1, 1))[0],
        f1_once,
        star_subdivision(f1_once, (2, 1))[0],
        star_subdivision(p3_once, (1, 1, 1))[0],
        # (1, 1) in no cone: validate_fan refuses it for that alone
        Fan.make([[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [2, 0]]),
    ]
    rng = random.Random(28)
    seen = Counter()
    for fan in fans:
        diag = validate_fan(fan)
        assert diag.ok or diag.messages == ("ray 3 lies on no maximal cone",)
        n = fan.dimension
        for k in range(40):
            if k % 2:
                coeffs = [Q(rng.randint(-2, 3), rng.randint(1, 3)) for _ in fan.rays]
            else:
                pts = [
                    [Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(rng.randint(1, n + 3))
                ]
                coeffs = [-min(sum(map(mul, p, u)) for p in pts) for u in fan.rays]
            d = divisor(fan, coeffs)
            got = (is_nef(fan, d), is_ample(fan, d), is_strictly_ample(fan, d))
            want = (oracle_is_nef(fan, d), oracle_is_ample(fan, d), oracle_is_strictly_ample(fan, d))
            assert got == want, (fan, coeffs)
            seen[got] += 1
            seen["empty"] += polytope_of(fan, d).is_empty
    assert seen["empty"] > 0
    assert seen[False, False, False] and seen[True, False, False]
    assert seen[True, True, False] and seen[True, True, True]


def test_nef_vertices_match_fraction_cone_vertices(p2, f1, p1xp1, p3):
    """The integer cone vertices over their denominator against the Fraction route.

    The 440 divisors of test_polarization_checks_match_polytope_oracle (its
    11 fans, its seed): where D is nef the integers over den are the
    Fraction vertices m_sigma, and None means D is not nef.  On the P2 fan
    with the ray (1, 1) in no cone, every m_sigma exists and None still
    comes; a fan with a cone off the table gives None on both routes.
    """
    f1_once, _pull, _k = star_subdivision(f1, (1, 2))
    p3_once, _pull, _k = star_subdivision(p3, (1, 1, 0))
    stray = Fan.make([[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [2, 0]])
    fans = [
        p2, f1, p1xp1, p3,
        Fan.make([[-2, -3], [1, 0], [0, 1]], [[0, 1], [1, 2], [2, 0]]),  # P(1,2,3)
        Fan.make([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]],
                 [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]),  # dP6
        star_subdivision(p3, (1, 1, 1))[0],
        f1_once,
        star_subdivision(f1_once, (2, 1))[0],
        star_subdivision(p3_once, (1, 1, 1))[0],
        stray,  # (1, 1) in no cone
    ]
    rng = random.Random(28)
    seen = Counter()
    for fan in fans:
        n = fan.dimension
        for k in range(40):
            if k % 2:
                coeffs = [Q(rng.randint(-2, 3), rng.randint(1, 3)) for _ in fan.rays]
            else:
                pts = [
                    [Q(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(rng.randint(1, n + 3))
                ]
                coeffs = [-min(sum(map(mul, p, u)) for p in pts) for u in fan.rays]
            d = divisor(fan, coeffs)
            found = toric._nef_vertices(fan, d)
            want = oracle_cone_vertices(fan, d.coeffs)
            assert want is not None
            assert (found is not None) == oracle_is_nef(fan, d), (fan, coeffs)
            if found is not None:
                vertices, den = found
                assert [tuple(Q(c, den) for c in m) for m in vertices] == want
            seen[fan is stray, found is None] += 1
    assert seen[True, True] and seen[True, False] and seen[False, True] and seen[False, False]
    off_table = Fan.make([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2]])
    for coeffs in ([1, 1, 1], [0, 0, 0]):
        assert toric._nef_vertices(off_table, divisor(off_table, coeffs)) is None
        assert oracle_cone_vertices(off_table, coeffs) is None


def test_nefness_examples(f1, p2):
    assert is_nef(p2, anticanonical(p2))
    assert not is_nef(f1, ray_divisor(f1, 3))
    assert is_nef(f1, zero_divisor(f1))
    _fan, pull, _k = star_subdivision(p2, (1, 1))
    pulled = pull(anticanonical(p2))
    assert is_nef(f1, pulled)
    assert is_ample(f1, pulled)  # big and nef, though not strictly ample


def test_zariski_nef_is_its_own_positive_part(f1):
    kf1 = anticanonical(f1)
    pair = zariski_decompose(f1, kf1)
    assert pair.positive.coeffs == kf1.coeffs
    assert pair.negative.is_zero


def test_zariski_not_pseudoeffective(p2):
    with pytest.raises(NotPseudoEffective):
        zariski_decompose(p2, divisor(p2, [-1, 0, 0]))


def test_zariski_pullback_family(p2, f1):
    # the pullback of the anticanonical shifted along the exceptional ray:
    # adding (3/2)E forces a negative part, subtracting it stays nef
    _fan, pull, _k = star_subdivision(p2, (1, 1))
    base = pull(anticanonical(p2))
    e = ray_divisor(f1, 3)
    plus = zariski_decompose(f1, base + e.scale(Q(3, 2)))
    assert plus.positive.coeffs == base.coeffs
    assert plus.negative.coeffs == (0, 0, 0, Q(3, 2))
    minus = zariski_decompose(f1, base - e.scale(Q(3, 2)))
    assert minus.negative.is_zero
    assert is_nef(f1, minus.positive)
    assert big_volume(f1, minus.positive) == Q(27, 4)


def test_zariski_volume_identity_random(surfaces):
    rng = random.Random(31)
    for fan in surfaces.values():
        for _ in range(8):
            m = random_nef(fan, rng) + divisor(
                fan, [rng.choice([0, 0, 1, 2]) for _ in fan.rays]
            )
            try:
                pair = zariski_decompose(fan, m)
            except NotPseudoEffective:
                continue
            lhs = big_volume(fan, m)
            rhs = intersection_number(fan, [pair.positive] * fan.dimension)
            assert lhs == rhs
            assert (m - pair.positive - pair.negative).is_zero


def smooth_center(fan, rng: random.Random):
    cone = rng.choice(fan.max_cones)
    i, j = rng.sample(list(cone), 2)
    return tuple(a + b for a, b in zip(fan.rays[i], fan.rays[j]))


def test_pullback_invariance_random_subdivisions(surfaces, p3):
    rng = random.Random(41)
    fans = list(surfaces.values()) + [p3]
    done = 0
    while done < 20:
        fan = rng.choice(fans)
        d = (
            random_nef(fan, rng)
            if fan.dimension == 2
            else anticanonical(fan).scale(rng.randint(1, 3))
        )
        center = smooth_center(fan, rng)
        try:
            refined, pull, _k = star_subdivision(fan, center)
        except (AlreadyARay, NonPrimitive):
            continue
        assert validate_fan(refined).ok
        pulled = pull(d)
        assert volume(polytope_of(refined, pulled)) == volume(polytope_of(fan, d))
        assert big_volume(refined, pulled) == big_volume(fan, d)
        n = fan.dimension
        assert intersection_number(refined, [pulled] * n) == intersection_number(fan, [d] * n)
        done += 1


def test_p3_basics(p3):
    k3 = anticanonical(p3)
    assert validate_fan(p3).ok
    assert big_volume(p3, k3) == 64
    assert intersection_number(p3, [k3, k3, k3]) == 64
    assert log_discrepancy(p3, (1, 1, 1)) == 3
    _fan, _pull, k_rel = star_subdivision(p3, (1, 1, 1))
    assert k_rel.coeffs[-1] == 2


# ---- the intersection ring against independent routes ----------------------

def polytope_intersection(fan, divisors):
    """Oracle for nef divisors: polarization over the 2^n - 1 section-polytope volumes.

    Minkowski sums of section polytopes of nef divisors are the section
    polytopes of the coefficient sums.
    """
    n = fan.dimension
    total = Q(0)
    for size in range(1, n + 1):
        for combo in itertools.combinations(divisors, size):
            total += (-1) ** (n - size) * volume(polytope_of(fan, sum(combo[1:], combo[0])))
    return total


def surface_form(fan, a, b):
    """(a . b) on a smooth complete toric surface, read off the fan alone.

    D_i . D_j is 1 for distinct rays sharing a cone and 0 for other distinct
    rays; D_i^2 = -k where u_prev + u_next = k u_i for the two neighbours of u_i.
    """
    def pair(i, j):
        if i != j:
            return int(any(i in c and j in c for c in fan.max_cones))
        prev, nxt = (fan.rays[k] for c in fan.max_cones if i in c for k in c if k != i)
        u = fan.rays[i]
        c = next(c for c in range(2) if u[c] != 0)
        return -Q(prev[c] + nxt[c], u[c])

    return sum(
        (x * y * pair(i, j) for i, x in enumerate(a.coeffs) for j, y in enumerate(b.coeffs)),
        Q(0),
    )


def refined(fan, *centers):
    for center in centers:
        fan, _pull, _k = star_subdivision(fan, center)
    return fan


def random_nef_class(fan, rng: random.Random):
    """The Zariski positive part of a random effective divisor, which is nef."""
    coeffs = [Q(rng.randint(0, 4), rng.choice([1, 1, 2, 3])) for _ in fan.rays]
    return zariski_decompose(fan, divisor(fan, coeffs)).positive


def test_intersection_ring_matches_polytope_oracle(surfaces, p3):
    rng = random.Random(53)
    fans = {
        **surfaces,
        "p3": p3,
        "f1 refined twice": refined(surfaces["f1"], (1, 2), (1, 3)),
        "p3 refined twice": refined(p3, (1, 1, 1), (1, 1, 0)),
        # simplicial, not smooth: a cone of multiplicity 2
        "p2 refined at (1,2)": refined(surfaces["p2"], (1, 2)),
        "p3 refined at (1,1,2)": refined(p3, (1, 1, 2)),
    }
    for name, fan in fans.items():
        assert validate_fan(fan).ok, name
        for _ in range(12 if fan.dimension == 2 else 6):
            divisors = [random_nef_class(fan, rng) for _ in range(fan.dimension)]
            assert all(is_nef(fan, d) for d in divisors)
            assert intersection_number(fan, divisors) == polytope_intersection(fan, divisors), name


def test_intersection_ring_matches_surface_form(surfaces):
    rng = random.Random(59)
    for fan in surfaces.values():
        for _ in range(3):
            # two smooth star subdivisions, each at the sum of the rays of a cone
            for _step in range(2):
                i, j = rng.choice(fan.max_cones)
                fan = refined(fan, tuple(a + b for a, b in zip(fan.rays[i], fan.rays[j])))
            assert validate_fan(fan).is_smooth
            for _ in range(10):
                a, b = (
                    divisor(fan, [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in fan.rays])
                    for _ in range(2)
                )
                assert intersection_number(fan, [a, b]) == surface_form(fan, a, b)


# ---- intersection numbers on reduced supports against the full expansion -----

def full_support_intersection(fan, divisors):
    """Oracle: the product expanded over the divisors' whole supports into k^n ray monomials."""
    supports = [[(i, d.coeffs[i]) for i in d.support()] for d in divisors]
    total = Q(0)
    for combo in itertools.product(*supports):
        coeff = Q(1)
        for _i, c in combo:
            coeff *= c
        total += coeff * ray_monomial(fan, tuple(sorted(i for i, _c in combo)))
    return total


MODEL_NAMES = [
    "p2", "f1", "p1xp1", "f1 refined at (1,2)", "p3", "blp3", "p3 refined at (1,1,0)", "p123",
    "p2xp2", "f1xf1",
]


@pytest.fixture(scope="module")
def models(surfaces, p3):
    return {
        **surfaces,
        "f1 refined at (1,2)": refined(surfaces["f1"], (1, 2)),
        "p3": p3,
        "blp3": refined(p3, (1, 1, 1)),
        "p3 refined at (1,1,0)": refined(p3, (1, 1, 0)),
        # P(1,2,3): 1*u0 + 2*u1 + 3*u2 = 0, rays ordered so that the first
        # cone, the oracle's reference cone, has |det| = 3
        "p123": Fan.make([[-2, -3], [1, 0], [0, 1]], [[0, 1], [1, 2], [2, 0]]),
        "p2xp2": product_fan(surfaces["p2"], surfaces["p2"]),
        "f1xf1": product_fan(surfaces["f1"], surfaces["f1"]),
    }


def classes(fan, count):
    """`count` rational divisor classes on the fan, any signs."""
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.lists(
        st.lists(coeff, min_size=len(fan.rays), max_size=len(fan.rays)).map(
            lambda cs: divisor(fan, cs)
        ),
        min_size=count,
        max_size=count,
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduced_supports_match_full_expansion(models, name, data):
    fan = models[name]
    divisors = data.draw(classes(fan, fan.dimension))
    assert intersection_number(fan, divisors) == full_support_intersection(fan, divisors)


def assert_duals_match_solves(fan):
    """The fan's _cone_duals table against det and solve_linear, cone by cone."""
    table = toric._cone_duals(fan)
    n = fan.dimension
    for cone in fan.max_cones:
        rays = fan.cone_rays(cone)
        d = det(rays)
        if d == 0:
            assert cone not in table
            continue
        td, duals = table[cone]
        assert td == d
        for j, w in enumerate(duals):
            assert tuple(Q(a, td) for a in w) == solve_linear(rays, [int(j == k) for k in range(n)])
    assert list(table) == [c for c in fan.max_cones if det(fan.cone_rays(c)) != 0]


def test_cone_duals_match_det_and_solve_on_model_fans(models):
    fans = [
        *models.values(),
        refined(models["p2"], (1, 2)),
        refined(models["p3"], (1, 1, 2)),
        Fan.make(*PINNED_FANS["degenerate"][0]),
    ]
    for fan in fans:
        assert_duals_match_solves(fan)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
def test_cone_duals_match_det_and_solve_on_random_cones(rays):
    assert_duals_match_solves(Fan.make(rays, [range(len(rays))]))


def test_one_elimination_per_maximal_cone(monkeypatch):
    calls = []

    def counting(m, ncols):
        calls.append(ncols)
        return _bareiss(m, ncols)

    monkeypatch.setattr(toric, "_bareiss", counting)
    # a complete non-smooth fan built nowhere else, so its table is not cached yet
    fan = Fan.make(
        [[1, 0], [1, 3], [-1, 2], [-2, -1], [1, -2]], [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
    )
    assert validate_fan(fan).ok
    ball = [u for u in itertools.product(range(-2, 3), repeat=2) if any(u)]
    assert all(log_discrepancy(fan, u) > 0 for u in ball)
    assert all(log_discrepancy(fan, u) == 1 for u in fan.rays)
    l = random_nef(fan, random.Random(7))
    assert is_nef(fan, l)
    divisors = [ray_divisor(fan, i) for i in range(len(fan.rays))] + [l]
    for a, b in itertools.combinations_with_replacement(divisors, 2):
        intersection_number(fan, [a, b])
    assert len(calls) == len(fan.max_cones)


def test_reduction_on_a_non_smooth_reference_cone(models):
    # on P(1,2,3) the first cone has |det| = 3, so its dual basis is not
    # integral; D_i . D_j = w_i w_j / (w_0 w_1 w_2) there
    fan = models["p123"]
    assert validate_fan(fan).ok and not validate_fan(fan).is_smooth
    cone, (d, ws) = next(iter(toric._cone_duals(fan).items()))
    assert abs(d) == abs(det(fan.cone_rays(cone))) == 3
    assert any(a % d for w in ws for a in w)
    w = (1, 2, 3)
    for i, j in itertools.product(range(3), repeat=2):
        product = intersection_number(fan, [ray_divisor(fan, i), ray_divisor(fan, j)])
        assert product == Q(w[i] * w[j], w[0] * w[1] * w[2])


@pytest.mark.parametrize("name", ["p2", "f1", "p1xp1", "f1 refined at (1,2)", "p3", "blp3"])
def test_grouped_integer_expansion_matches_fraction_oracle(models, name):
    # random rational classes of any sign, repeated as alpha_energy ([L] * (n - 1) + [alpha])
    # and g_pairing (a^(n-1-j) b^j . c) repeat them, against the ungrouped Fraction expansion
    fan = models[name]
    n = fan.dimension
    rng = random.Random(f"grouped:{name}")

    def draw():
        return divisor(fan, [Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in fan.rays])

    for _ in range(8):
        a, b, c = draw(), draw(), draw()
        lists = [[a] * n, [a] * (n - 1) + [b], [draw() for _ in range(n)]]
        lists += [[a] * (n - 1 - j) + [b] * j + [c] for j in range(n)]
        lists.append([a, divisor(fan, a.coeffs)] + [b] * (n - 2))  # equal classes, distinct objects
        lists.append([zero_divisor(fan)] + [a] * (n - 1))
        for classes in lists:
            assert intersection_number(fan, classes) == oracle_intersection_number(fan, classes)


@pytest.mark.parametrize("weights", [(1, 1, 2), (1, 2, 3), (1, 1, 1, 3)])
def test_ray_products_on_weighted_projective_spaces(weights):
    # closed form, sharing no code with either route: on P(a_0, ..., a_n) the
    # ray divisors are D_i = a_i H with H^n = 1 / prod a_i
    fan = weighted_projective(weights)
    n = fan.dimension
    rays = [ray_divisor(fan, i) for i in range(n + 1)]
    for combo in itertools.combinations_with_replacement(range(n + 1), n):
        expected = Q(math.prod(weights[i] for i in combo), math.prod(weights))
        assert intersection_number(fan, [rays[i] for i in combo]) == expected, combo


def test_anticanonical_degree_of_four_dimensional_products(surfaces):
    # (-K_{S x S'})^4 = 6 (-K_S)^2 (-K_S')^2
    for name, degree in (("p2", 486), ("f1", 384)):
        fan = product_fan(surfaces[name], surfaces[name])
        assert intersection_number(fan, [anticanonical(fan)] * 4) == degree


@pytest.mark.parametrize("spec, cone", [
    (PINNED_FANS["degenerate"][0], "(0, 3)"),
    (([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2]]), "(2,)"),
])
def test_intersection_refuses_a_cone_that_is_not_full_dimensional_simplicial(spec, cone):
    fan = Fan.make(*spec)
    message = f"cone {cone} is not a full-dimensional simplicial cone"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        intersection_number(fan, [anticanonical(fan)] * 2)


# Each entry point where a (fan, divisor) pair comes in, called on F1 with -K
# and a divisor d of another fan in the place it names.
FOREIGN_DIVISOR_CALLS = {
    "polytope_of": lambda f1, k, d: polytope_of(f1, d),
    "big_volume": lambda f1, k, d: big_volume(f1, d),
    "zariski_decompose": lambda f1, k, d: zariski_decompose(f1, d),
    "is_nef": lambda f1, k, d: is_nef(f1, d),
    "is_ample": lambda f1, k, d: is_ample(f1, d),
    "is_strictly_ample": lambda f1, k, d: is_strictly_ample(f1, d),
    "intersection_number": lambda f1, k, d: intersection_number(f1, [k, d]),
    "pullback": lambda f1, k, d: star_subdivision(f1, (1, 2))[1](d),
    "divisor_family_l": lambda f1, k, d: divisor_family(f1, d, ray_divisor(f1, 3)),
    "divisor_family_d": lambda f1, k, d: divisor_family(f1, k, d),
    "volume_curve": lambda f1, k, d: volume_curve(f1, k, d),
    "extended_curve": lambda f1, k, d: extended_curve(f1, k, d),
    "delta_pp_quotient": lambda f1, k, d: delta_pp_quotient(f1, k, d),
    "alpha_energy": lambda f1, k, d: alpha_energy(extended_curve(f1, k, ray_divisor(f1, 3)), d),
    "entropy_k_rel": lambda f1, k, d: entropy(extended_curve(f1, k, ray_divisor(f1, 3), k_rel=d)),
    "positive_pairing": lambda f1, k, d: positive_pairing(f1, k, d),
    "s_invariant": lambda f1, k, d: s_invariant(f1, d, (1, 0)),
    "filtration_curve": lambda f1, k, d: filtration_curve(f1, d, (1, 0)),
}


@pytest.mark.parametrize("other", ["p2", "p1xp1"])
@pytest.mark.parametrize("call", FOREIGN_DIVISOR_CALLS.values(), ids=FOREIGN_DIVISOR_CALLS)
def test_a_divisor_from_another_fan_is_refused(request, f1, call, other):
    # P2's -K has three coefficients, and P1xP1's has four, as many as F1 has rays;
    # both are effective, nonzero, big and nef, so only the fan can refuse them
    d = anticanonical(request.getfixturevalue(other))
    with pytest.raises(DimensionMismatch, match="^divisor lives on a different fan$"):
        call(f1, anticanonical(f1), d)


def nef_classes(fan, rng, count):
    """`count` nef classes, drawn as Zariski positive parts and kept when nef."""
    out = []
    while len(out) < count:
        d = random_nef_class(fan, rng)
        if is_nef(fan, d):
            out.append(d)
    return out


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_intersection_numbers_match_the_nef_routes(models, name):
    fan = models[name]
    n = fan.dimension
    rng = random.Random(f"nef:{name}")
    for _ in range(4):
        # L^{n-1} . alpha against positive_pairing's facet sum, for big nef L
        l = nef_classes(fan, rng, 1)[0] + anticanonical(fan)
        alpha = divisor(fan, [Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in fan.rays])
        assert intersection_number(fan, [l] * (n - 1) + [alpha]) == positive_pairing(fan, l, alpha)
        # D_1 ... D_n of nef classes against the mixed volume of their polytopes
        divisors = nef_classes(fan, rng, n)
        expected = mixed_volume([polytope_of(fan, d) for d in divisors])
        assert intersection_number(fan, divisors) == expected


def test_delta_prime_on_refined_f1_with_k_rel(f1):
    # the numerator pairs K_rel with -D, which no nef shift could split before
    fan, pull, k_rel = star_subdivision(f1, (1, 2))
    l = pull(anticanonical(f1))
    rng = random.Random(61)
    directions = [ray_divisor(fan, i) for i in range(len(fan.rays))] + [
        divisor(fan, [Q(rng.randint(0, 3), rng.randint(1, 3)) for _ in fan.rays])
        for _ in range(3)
    ]
    for d in directions:
        _curve, tau_plus = volume_curve(fan, l, d)
        if tau_plus < 1:
            d = d.scale(tau_plus / 2)
        value = delta_prime_quotient(fan, l, d, k_rel=k_rel)
        # (K_rel . -D) + 2 (G_1(L, D) . Red D), with G_1(L, D) = L - D/2 on a surface
        red = d.reduced()
        numerator = surface_form(fan, k_rel, -d) + 2 * (
            surface_form(fan, l, red) - surface_form(fan, d, red) / 2
        )
        denominator = big_volume(fan, l) * jtilde(truncated_curve(extended_curve(fan, l, d)))
        assert value == numerator / denominator


def _localization_cases(request):
    p2, f1, p1xp1, p3 = (request.getfixturevalue(m) for m in ("p2", "f1", "p1xp1", "p3"))
    blp3, pull_p3, _k = star_subdivision(p3, (1, 1, 1))
    refined_f1, pull_f1, _k = star_subdivision(f1, (1, 2))
    return {
        **{name: (fan, [anticanonical(fan), *seeded_ample(fan, 43)])
           for name, fan in [("p2", p2), ("f1", f1), ("p1xp1", p1xp1), ("p3", p3), ("blp3", blp3)]},
        "refined_f1_pullback": (refined_f1, [pull_f1(anticanonical(f1))]),
        "blp3_pullback": (blp3, [pull_p3(anticanonical(p3))]),
        "f1_d2": (f1, [ray_divisor(f1, 2)]),
        **{f"p{''.join(map(str, w))}": (weighted_projective(w), [anticanonical(weighted_projective(w))])
           for w in [(1, 1, 2), (1, 2, 3), (1, 1, 1, 3)]},
        "p2xp2": (product_fan(p2, p2), [anticanonical(product_fan(p2, p2))]),
        "f1xf1": (product_fan(f1, f1), [anticanonical(product_fan(f1, f1))]),
    }


@pytest.mark.parametrize("case", [
    "p2", "f1", "p1xp1", "p3", "blp3", "refined_f1_pullback", "blp3_pullback", "f1_d2",
    "p112", "p123", "p1113", "p2xp2", "f1xf1",
])
def test_localized_moments_match_the_triangulation(request, case):
    # n! vol and n! int x by cone localization equal big_volume and
    # big_volume times linear_stats' barycenter, exactly: on classes that are
    # not strictly ample (cone vertices repeat), on cones with |d_sigma| > 1
    # and in dimension 4
    fan, classes = _localization_cases(request)[case]
    for l in classes:
        v = big_volume(fan, l)
        p = polytope_of(fan, l)
        units = [tuple(int(i == j) for j in range(fan.dimension)) for i in range(fan.dimension)]
        volume_num, moments, q = toric.localized_moments(fan, l)
        assert Q(volume_num, q) == v > 0
        assert [Q(m, q) for m in moments] == [v * linear_stats(p, e)[1] for e in units]


def test_localization_refuses_a_direction_orthogonal_to_a_cone_generator(p2):
    # at the generic (1, 3) the per-direction table gives (-K)^2 = 9; (1, 0)
    # is orthogonal to the generator (0, 1) of P^2's cone on rays 0 and 1
    lcm_t, cones = toric._direction(p2, (1, 3))
    assert Q(sum(weight * (-sum(xs)) ** 2 for _cone, _d, xs, weight in cones), lcm_t) == 9
    with pytest.raises(InvariantViolation, match=r"^xi = \(1, 0\) is orthogonal to the cone generator \(0, 1\)$"):
        toric._direction(p2, (1, 0))


def test_intersection_numbers_build_the_table_at_xi_alone(p3):
    # the n shifted tables serve only the first moments of localized_moments
    toric._localization.cache_clear()
    assert intersection_number(p3, [anticanonical(p3)] * 3) == 64
    assert toric._localization.cache_info().currsize == 1
    toric.localized_moments(p3, anticanonical(p3))
    assert toric._localization.cache_info().currsize == 4


def test_localization_refuses_a_class_that_is_not_nef(f1):
    # E, the exceptional ray of F1, has E^2 = -1: it is not nef, so P_E is not the hull of its cone vertices
    with pytest.raises(NotAmple, match="^divisor is not nef$"):
        toric.localized_moments(f1, ray_divisor(f1, 3))
