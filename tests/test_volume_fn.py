from __future__ import annotations

import json
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricstab import (
    PiecewisePolynomial,
    Polynomial,
    Polytope,
    anticanonical,
    big_volume,
    divisor,
    intersection_number,
    is_nef,
    polytope_of,
    positive_pairing,
    ray_divisor,
    star_subdivision,
    stabilized_volume,
    volume_curve,
    zariski_decompose,
    zero_divisor,
)
import toricstab.test_curves as tc
from toricstab import geometry, toric, volume_fn
from toricstab.cli import main, piecewise_to_dict
from toricstab.errors import InvariantViolation, NotAmple, NotBig, OutOfRange, ZeroDivisor
from toricstab.geometry import (
    Chamber, Halfspace, dot, facet_volumes, int_rows, parametric_family, triangulation, volume,
)
from toricstab.thresholds import primitive_candidates
from toricstab.toric import section_halfspaces
from toricstab.volume_fn import (
    _pseudo_divide,
    _squarefree,
    chamber_volume_polynomial,
    count_roots,
    divisor_family,
    family_volume_curve,
    nonneg_on_interval,
    superlevel_volume_curve,
)

from oracles import (
    FamilyHalfspace,
    FractionPolynomial,
    antiderivative_integral,
    chamber_facet_polynomials,
    family_halfspaces,
    filtration_family,
    fit_polynomial,
    fraction_horner,
    oracle_basis_paths,
    oracle_count_roots,
    oracle_nonneg_on_interval,
    oracle_squarefree_decomposition,
    oracle_walls,
    polytope_at,
)


# ---- polynomial layer ------------------------------------------------------

def test_polynomial_arithmetic():
    p = Polynomial.of(3, -1)
    assert (p * p).coeffs == (9, -6, 1)
    assert (p * p).integrate(0, 3) == 9
    assert p.derivative().coeffs == (-1,)
    assert (p + Polynomial.of(-3, 1)).is_zero


rationals = st.builds(Q, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12))
points = rationals | st.integers(min_value=-5, max_value=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(rationals | st.just(Q(0)), max_size=6), points, points)
@example([], Q(1, 2), 3)  # the zero polynomial
@example([0, 0], -2, Q(-7, 3))
def test_integer_evaluation_and_integral_match_fraction_routes(coeffs, a, b):
    p = Polynomial(tuple(coeffs))
    for x in (a, b):
        value = p(x)
        assert type(value) is Q and value == fraction_horner(p, x)
    integral = p.integrate(a, b)
    assert type(integral) is Q and integral == antiderivative_integral(p, a, b)
    assert p.integrate(b, a) == -integral


def test_fit_polynomial_exact():
    target = Polynomial.of(Q(1, 3), -2, 0, 5)
    xs = [Q(i, 7) for i in range(4)]
    fitted = fit_polynomial(xs, [target(x) for x in xs])
    assert fitted == target


def test_polynomial_divmod():
    num = Polynomial.of(-1, 0, 1)  # x^2 - 1
    den = Polynomial.of(-1, 1)  # x - 1
    q, r, s = _pseudo_divide(num.nums, den.nums)
    assert (q, r, s) == ([1, 1], [0], 1)  # quotient x + 1, no remainder


def test_count_roots():
    p = Polynomial.of(0, -1, 0, 1)  # x^3 - x: roots -1, 0, 1
    assert count_roots(p, -2, 2) == 3
    assert count_roots(p, Q(1, 2), 2) == 1
    # a root at the left end or an empty interval is refused, not miscounted
    p = Polynomial.of(0, 0, -1, 1)  # x^2 (x - 1)
    with pytest.raises(ValueError, match="vanishes at the left end"):
        count_roots(p, 0, 2)  # Sturm's count would say 0, and (0, 2] holds the root 1
    with pytest.raises(ValueError, match="vanishes at the left end"):
        count_roots(p, 0, Q(1, 2))  # Sturm's count would say -1
    with pytest.raises(ValueError, match="empty interval"):
        count_roots(p, 2, Q(1, 2))
    with pytest.raises(ValueError, match="zero polynomial"):
        count_roots(Polynomial(()), 0, 1)
    assert count_roots(p, Q(1, 2), 2) == 1
    assert count_roots(p, 2, 2) == 0


def test_polynomial_canonical_form_contracts():
    # one form: integer numerators over one positive denominator, in lowest terms
    one = Polynomial.of(1, 0)
    assert one == Polynomial.of(Q(2, 2)) == Polynomial.from_ints([3, 0, 0], 3)
    assert hash(one) == hash(Polynomial.of(Q(2, 2)))
    p = Polynomial.from_ints([4, -6, 0], -8)
    assert (p.nums, p.den) == ((-2, 3), 4)
    assert p == Polynomial.of(Q(-1, 2), Q(3, 4)) and p != Polynomial.of(Q(-1, 2))
    assert Polynomial(()) == Polynomial.of(0, 0) == Polynomial.from_ints([0], -5)
    assert (Polynomial(()).nums, Polynomial(()).den) == ((), 1)
    # coeffs is a tuple of Fractions: the CLI's JSON and the benchmark's encoding read it
    assert type(p.coeffs) is tuple and all(type(c) is Q for c in p.coeffs)
    assert p.coeffs == (Q(-1, 2), Q(3, 4))
    assert Polynomial.of("1/3", 2).coeffs == (Q(1, 3), Q(2))
    curve = PiecewisePolynomial((0, 1), (p,))
    assert piecewise_to_dict(curve)["pieces"] == [["-1/2", "3/4"]]


small_rationals = st.builds(
    Q, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)
)
# roots and interval ends drawn from one small set, so roots land on the ends and repeat
ends = st.sampled_from([Q(-1), Q(0), Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(2)])


def monic(nums):
    """The coefficients of an integer polynomial divided by its leading one."""
    return Polynomial.from_ints(nums, nums[-1]).coeffs


def _factored(scale, roots):
    p = FractionPolynomial((scale,))
    for r in roots:
        p = p * FractionPolynomial((-r, 1))
    return p.coeffs


polynomials = st.one_of(
    # any coefficients, zero polynomial and trailing zeros included
    st.lists(small_rationals | st.just(Q(0)), max_size=6),
    # a nonzero scale of either sign times linear factors at the ends, repeats included
    st.builds(_factored, small_rationals.filter(bool), st.lists(ends | small_rationals, max_size=5)),
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(polynomials, polynomials, small_rationals | ends, small_rationals.filter(bool))
@example((), (), Q(1, 2), Q(-3))
@example((0, 0, 1), (Q(-1, 2), 0), Q(0), Q(2))
def test_integer_polynomial_matches_fraction_oracle(a, b, x, c):
    p, q = Polynomial(a), Polynomial(b)
    fp, fq = FractionPolynomial(a), FractionPolynomial(b)
    for got, want in [
        (p + q, fp + fq), (p - q, fp - fq), (p * q, fp * fq), (p.scale(c), fp.scale(c)),
        (p.derivative(), fp.derivative()), (p, fp),
    ]:
        assert got.coeffs == want.coeffs
        assert got.den > 0 and math.gcd(got.den, *got.nums) == 1
        assert not got.nums or got.nums[-1] != 0
        assert got == Polynomial(want.coeffs) and hash(got) == hash(Polynomial(want.coeffs))
    assert p(x) == fp(x) and type(p(x)) is Q
    if not fq.is_zero:
        # s a = quo b + rem on the numerators, with s = lc(b)^k: the division of
        # p by q is quo * q.den / (s p.den) with remainder rem / (s p.den)
        quo, rem, s = _pseudo_divide(p.nums, q.nums)
        assert s == q.nums[-1] ** max(len(p.nums) - len(q.nums) + 1, 0)
        assert FractionPolynomial(p.nums).scale(s) == (
            FractionPolynomial(quo) * FractionPolynomial(q.nums) + FractionPolynomial(rem)
        )
        want_quo, want_rem = fp.divmod(fq)
        assert Polynomial.from_ints([q.den * c for c in quo], s * p.den).coeffs == want_quo.coeffs
        assert Polynomial.from_ints(rem, s * p.den).coeffs == want_rem.coeffs


@settings(max_examples=300, deadline=None)
@given(polynomials, ends | small_rationals, ends | small_rationals)
@example((0, 0, -1, 1), Q(0), Q(2))  # x^2 (x - 1), a root at the left end
@example(_factored(Q(-2), [Q(1, 2), Q(1, 2), Q(1)]), Q(1, 2), Q(1))
def test_sign_decisions_match_fraction_oracle(coeffs, a, b):
    p, fp = Polynomial(coeffs), FractionPolynomial(coeffs)
    dec = [(monic(f), m) for f, m in _squarefree(p.nums)]
    assert dec == [(f.coeffs, m) for f, m in oracle_squarefree_decomposition(fp)]
    a, b = min(a, b), max(a, b)
    assert nonneg_on_interval(p, a, b) == oracle_nonneg_on_interval(fp, a, b)
    if not fp.is_zero and fp(a) != 0:
        assert count_roots(p, a, b) == oracle_count_roots(fp, a, b)
    elif not fp.is_zero:
        with pytest.raises(ValueError):
            count_roots(p, a, b)


def test_squarefree_decomposition():
    p = Polynomial.of(-1, 1)  # x - 1
    q = Polynomial.of(-2, 1)  # x - 2
    dec = _squarefree((p * p * p * q * q).nums)
    assert {m: monic(f) for f, m in dec} == {3: p.coeffs, 2: q.coeffs}


def test_nonneg_on_interval_detects_hidden_dip():
    # (x - 1/2)(x - 9/16): negative only on a short interval strictly inside
    bad = Polynomial.of(Q(9, 32), -Q(17, 16), 1)
    assert not nonneg_on_interval(bad, 0, 1)
    assert nonneg_on_interval(Polynomial.of(0, 0, 1), -1, 1)
    assert not nonneg_on_interval(Polynomial.of(0, 1), -1, 1)
    assert nonneg_on_interval(Polynomial.of(2, -2, 1), -5, 5)  # (x-1)^2 + 1
    touch = Polynomial.of(-1, 1) * Polynomial.of(-1, 1)
    assert nonneg_on_interval(touch, 0, 2)
    assert not nonneg_on_interval(touch.scale(-1), 0, 2)


def test_piecewise_invariants():
    with pytest.raises(ValueError):
        PiecewisePolynomial((0, 1, 2), (Polynomial.of(0), Polynomial.of(1)))
    pw = PiecewisePolynomial(
        (0, 1, 2), (Polynomial.of(0, 1), Polynomial.of(2, -1))
    )
    assert pw(Q(1, 2)) == Q(1, 2)
    assert pw(Q(3, 2)) == Q(1, 2)
    assert pw.integrate() == 1
    assert pw.moment() == Q(1, 3) + (Polynomial.of(0, 2, -1)).integrate(1, 2)


def test_discontinuous_volume_curve_passing_the_chamber_checks_exits_3(
    monkeypatch, capsys, problems_dir
):
    # t - x vanishes at the point x where each chamber polynomial is checked,
    # so only the continuity of the built curve at the wall t = 1 can fail
    real = volume_fn.chamber_volume_polynomial

    def perturbed(pp, chamber):
        return real(pp, chamber) + Polynomial.of(-chamber.sample_points(2)[0], 1)

    monkeypatch.setattr(volume_fn, "chamber_volume_polynomial", perturbed)
    volume_fn.ray_volume_curve.cache_clear()
    assert main(["volume", str(problems_dir / "f1.json"), "--curve", "F"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvariantViolation" and "discontinuity at breakpoint 1" in err["message"]
    # the library's builder raises InvariantViolation where the constructor raises ValueError
    with pytest.raises(InvariantViolation, match="discontinuity at breakpoint 1"):
        PiecewisePolynomial.merged((0, 1, 2), (Polynomial.of(0), Polynomial.of(1)))


def test_piecewise_integral_is_signed_and_refuses_bounds_outside():
    pw = PiecewisePolynomial((0, 1, 2), (Polynomial.of(0, 1), Polynomial.of(2, -1)))
    assert pw.integrate() == pw.integrate(0, 2) == 1
    assert pw.integrate(2, 0) == -1
    assert pw.integrate(Q(3, 2), Q(1, 2)) == -pw.integrate(Q(1, 2), Q(3, 2)) == -Q(3, 4)
    assert pw.integrate(1, 1) == 0
    for a, b in ((-5, 1), (0, 3), (3, 0), (Q(-1, 9), None)):
        with pytest.raises(OutOfRange):
            pw.integrate(a, b)
    with pytest.raises(OutOfRange):
        pw(-5)


def test_piecewise_normalized_merges():
    pw = PiecewisePolynomial((0, 1, 2), (Polynomial.of(0, 1), Polynomial.of(0, 1)))
    assert pw.normalized().breakpoints == (0, 2)


# ---- volume functions ------------------------------------------------------

def test_big_volume(p2, f1):
    assert big_volume(p2, anticanonical(p2)) == 9
    assert big_volume(f1, anticanonical(f1)) == 8
    assert big_volume(p2, divisor(p2, [-1, -1, -1])) == 0


def test_volume_curve_p2(p2):
    curve, tau = volume_curve(p2, anticanonical(p2), ray_divisor(p2, 0))
    assert tau == 3
    assert curve.normalized().pieces == (Polynomial.of(9, -6, 1),)


def test_volume_curve_f1(f1):
    curve, tau = volume_curve(f1, anticanonical(f1), ray_divisor(f1, 3))
    assert tau == 2
    assert curve.normalized().pieces == (Polynomial.of(8, -2, -1),)


def test_volume_curve_two_chambers(f1):
    curve, tau = volume_curve(f1, anticanonical(f1), ray_divisor(f1, 0))
    assert tau == 3
    norm = curve.normalized()
    assert norm.breakpoints == (0, 1, 3)
    assert norm.pieces == (Polynomial.of(8, -4), Polynomial.of(9, -6, 1))


def test_volume_curve_errors(p2, f1):
    with pytest.raises(ZeroDivisor):
        volume_curve(p2, anticanonical(p2), zero_divisor(p2))
    with pytest.raises(NotAmple):
        volume_curve(f1, ray_divisor(f1, 3), ray_divisor(f1, 0))


def test_volume_curve_monotone_continuous_vanishing(surfaces):
    rng = random.Random(6)
    for fan in surfaces.values():
        k = anticanonical(fan)
        for _ in range(4):
            d = divisor(fan, [rng.choice([0, 1, 2]) for _ in fan.rays])
            if d.is_zero:
                continue
            curve, tau = volume_curve(fan, k, d)
            assert curve.is_nonincreasing()
            assert curve(0) == big_volume(fan, k)
            assert curve(tau) == 0
            # exact evaluation agrees from both sides of every breakpoint
            for i, x in enumerate(curve.breakpoints[1:-1], start=1):
                assert curve.pieces[i - 1](x) == curve.pieces[i](x)


def test_log_concavity_ratio_tests(surfaces):
    # f(a) f(c) <= f(b)^2 for equally spaced interior triples
    for fan in surfaces.values():
        k = anticanonical(fan)
        for d in (ray_divisor(fan, 0), anticanonical(fan)):
            curve, tau = volume_curve(fan, k, d)
            for i in range(1, 101):
                step = tau * Q(i, 102)
                a, b, c = step, 2 * step, 3 * step
                if c >= tau:
                    break
                assert curve(a) * curve(c) <= curve(b) ** 2


def test_positive_pairing_examples(p2):
    three_h = ray_divisor(p2, 0).scale(3)
    h = ray_divisor(p2, 0)
    assert positive_pairing(p2, three_h, h) == 3
    assert positive_pairing(p2, three_h, three_h) == 9
    with pytest.raises(NotBig):
        positive_pairing(p2, zero_divisor(p2) - h, h)


def test_positive_pairing_zariski_route(p2, f1):
    _fan, pull, _k = star_subdivision(p2, (1, 1))
    base = pull(anticanonical(p2))
    e = ray_divisor(f1, 3)
    kf1 = anticanonical(f1)
    for m in (base - e.scale(Q(3, 2)), base + e.scale(Q(3, 2)), kf1 - e.scale(Q(1, 2))):
        pair = zariski_decompose(f1, m)
        for lprime in (e, ray_divisor(f1, 0), kf1):
            assert positive_pairing(f1, m, lprime) == intersection_number(
                f1, [pair.positive, lprime]
            )


def test_positive_pairing_euler_identity(surfaces):
    rng = random.Random(27)
    for fan in surfaces.values():
        k = anticanonical(fan)
        for _ in range(5):
            m = k.scale(rng.randint(1, 3)) + divisor(
                fan, [rng.choice([0, 1]) for _ in fan.rays]
            )
            assert positive_pairing(fan, m, m) == big_volume(fan, m)


def test_positive_pairing_reads_one_incidence_table(p3, monkeypatch):
    # one table of tight sets triangulates P_M for vol(M), and one more holds
    # the facets of every ray
    k = anticanonical(p3)
    calls = []
    real = geometry._tight_sets

    def counted(rows, q, points, den):
        calls.append(len(rows))
        return real(rows, q, points, den)

    monkeypatch.setattr(geometry, "_tight_sets", counted)
    for cache in (geometry.volume, geometry.triangulation, toric._polytope_cached):
        cache.cache_clear()
    assert positive_pairing(p3, k, k) == 64
    assert calls == [4, 4]


def test_stabilized_volume(p2):
    three_h = ray_divisor(p2, 0).scale(3)
    h = ray_divisor(p2, 0)
    assert stabilized_volume(p2, three_h, h, [(1, 1)]) == [4, 4]
    assert stabilized_volume(p2, three_h, h, []) == [4]
    values = stabilized_volume(p2, anticanonical(p2), h, [(1, 1), (1, 2)])
    assert values == [4, 4, 4]


# ---- the sampled route as an independent oracle ----------------------------

def _oracle_models(surfaces, p3):
    """(model, filtration-direction radius) pairs for the oracle tests."""
    blp3, _pull, _k_rel = star_subdivision(p3, (1, 1, 1))
    return [
        (surfaces["f1"], 2),
        (surfaces["p1xp1"], 2),
        (p3, 1),
        (blp3, 1),
    ]


def _oracle_families(surfaces, p3):
    """Filtration families along every candidate direction, then seeded effective ones."""
    rng = random.Random(41)
    for fan, radius in _oracle_models(surfaces, p3):
        k = anticanonical(fan)
        for u in primitive_candidates(fan.dimension, radius):
            yield filtration_family(fan, k, u)
        for _ in range(6):
            d = divisor(fan, [rng.choice([0, 1, 2]) for _ in fan.rays])
            if not d.is_zero:
                yield divisor_family(fan, k.scale(rng.randint(1, 2)), d)


def _sampled_chamber_polynomial(pp, chamber, degree):
    xs = chamber.sample_points(degree + 1)
    return fit_polynomial(xs, [volume(polytope_at(pp, x)) for x in xs])


def test_symbolic_chamber_volumes_match_sampled_fit(surfaces, p3):
    chambers = 0
    for pp in _oracle_families(surfaces, p3):
        for chamber in pp.chambers:
            assert chamber_volume_polynomial(pp, chamber) == _sampled_chamber_polynomial(
                pp, chamber, pp.dimension
            )
            chambers += 1
    assert chambers > 200


def _facet_polynomials_by_normal(pp, chamber):
    """Per normal, the sum of the chamber facet polynomials of its rows, and the sampled fit.

    The rows on one normal bound P_x's facet on it in turn, so their
    polynomials sum to (n-1)! times the volume of that facet, read off a
    Polytope (one binding row per normal) at n interior points, which
    determine a polynomial of degree at most n - 1.
    """
    n = pp.dimension
    normals = list(dict.fromkeys(a for a, _b, _c in pp.rows))
    got = dict.fromkeys(normals, Polynomial(()))
    for (u, _b, _c), poly in zip(pp.rows, chamber_facet_polynomials(pp, chamber)):
        got[u] += poly
    xs = chamber.sample_points(n)
    samples = [facet_volumes(polytope_at(pp, x), normals) for x in xs]
    want = {
        u: fit_polynomial(xs, [math.factorial(n - 1) * areas[i] for areas in samples])
        for i, u in enumerate(normals)
    }
    return got, want


def test_chamber_facet_polynomials_match_sampled_fit(surfaces, p3):
    # the last family repeats a row with a larger offset and a normal with
    # another rate, so two pairs of its rows share a normal
    f1 = surfaces["f1"]
    rows = section_halfspaces(f1, anticanonical(f1).coeffs)
    repeated = parametric_family(
        [*rows, Halfspace((1, 0), 3), Halfspace((0, 1), 1)], [1, 0, 0, 0, 1, Q(1, 2)]
    )
    chambers = 0
    for pp in [*_oracle_families(surfaces, p3), repeated]:
        for chamber in pp.chambers:
            got, want = _facet_polynomials_by_normal(pp, chamber)
            assert got == want
            chambers += 1
    assert chambers > 200


@pytest.mark.parametrize("extra, rates, integrals", [
    # a second row on (1, 1), moving against a fixed one
    (Halfspace((1, 1), 1), [0, 0, 0, 0, 1], ((24, 24, 72, 0, 48), 112, 12)),
    # a second row on (1, 0), moving against a fixed one
    (Halfspace((1, 0), 1), [0, 0, 0, 0, 1], ((0, 48, 54, 6, 48), 104, 12)),
    # an exact duplicate of the moving row on (1, 1): the facet goes to the first
    (Halfspace((1, 1), 1), [0, 0, 0, 1, 1], ((24, 24, 72, 48, 0), 112, 12)),
])
def test_rows_sharing_a_normal_each_get_their_own_facet(f1, extra, rates, integrals):
    # each row of the hypograph Q gets the facet of Q it is tight on, not
    # every facet on its normal, so Euler's identity holds in family_integrals
    # and the facet integrals summed per normal are those of the sampled fits
    pp = parametric_family([Halfspace(u, 1) for u in f1.rays] + [extra], rates)
    got = tc.family_integrals(pp, pp.t_max, family_volume_curve(pp)(pp.t_max))
    assert got == integrals
    nums, _mass, den = got
    fits = [_facet_polynomials_by_normal(pp, chamber) for chamber in pp.chambers]
    for u in dict.fromkeys(a for a, _b, _c in pp.rows):
        assert all(polys[u] == fitted[u] for polys, fitted in fits)
        assert Q(sum(num for (a, _b, _c), num in zip(pp.rows, nums) if a == u), den) == sum(
            antiderivative_integral(fitted[u], ch.lo, ch.hi) for ch, (_polys, fitted) in zip(pp.chambers, fits)
        )


def _first_wall(fan, m, lprime):
    """The first wall s_1 > 0 of the family M + sL', or 1 when there is none."""
    phs = [FamilyHalfspace(u, a, -c) for u, a, c in zip(fan.rays, m.coeffs, lprime.coeffs)]
    walls = oracle_walls(oracle_basis_paths(phs, fan.dimension), math.inf)
    return min(walls, default=Q(1))


def test_positive_pairing_matches_sampled_derivative(surfaces, p3):
    # on [0, s_1] vol(M + sL') is one polynomial of degree <= n: fit n + 1
    # samples, check the wall end, and differentiate at 0
    rng = random.Random(43)
    blp3, _pull, _k_rel = star_subdivision(p3, (1, 1, 1))
    refined_f1, _pull, _k_rel = star_subdivision(surfaces["f1"], (1, 2))
    pairs = not_nef = 0
    for fan in (*surfaces.values(), p3, blp3, refined_f1):
        n = fan.dimension
        k = anticanonical(fan)
        for _ in range(14):
            m = k.scale(rng.randint(1, 2)) + divisor(
                fan, [rng.choice([-1, 0, 1, 2]) for _ in fan.rays]
            )
            if big_volume(fan, m) == 0:
                continue
            lprime = divisor(fan, [rng.randint(-2, 2) for _ in fan.rays])
            s1 = _first_wall(fan, m, lprime)
            xs = [s1 * Q(i, n + 1) for i in range(n + 2)]
            ys = [big_volume(fan, m + lprime.scale(x)) for x in xs]
            fit = fit_polynomial(xs[:-1], ys[:-1])
            assert fit(xs[-1]) == ys[-1]
            assert positive_pairing(fan, m, lprime) == fit.derivative()(0) / n
            pairs += 1
            not_nef += not is_nef(fan, m)
    assert pairs >= 50 and not_nef >= 5


# (k, [(|det|, k + 1 sorted heights)]): small heights, so that ties are common
knotted_simplices = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(
            st.tuples(
                st.integers(1, 5),
                st.lists(st.integers(0, 6), min_size=k + 1, max_size=k + 1).map(sorted),
            ),
            min_size=1,
            max_size=3,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(
    simplices=knotted_simplices,
    q=st.integers(min_value=1, max_value=3),
    top=st.fractions(min_value=0, max_value=7, max_denominator=3),
)
@example(simplices=(2, [(1, [0, 0, 3])]), q=1, top=Q(1))  # a tie at the bottom
@example(simplices=(2, [(2, [0, 3, 3])]), q=1, top=Q(3, 2))  # a tie at the top
@example(simplices=(2, [(2, [0, 3, 3])]), q=1, top=Q(3))  # the top on that tie
@example(simplices=(3, [(1, [0, 2, 2, 4])]), q=1, top=Q(2))  # a tie at the evaluation point
@example(simplices=(4, [(1, [0, 0, 2, 2, 5])]), q=2, top=Q(1))  # ties at the bottom and at q top
@example(simplices=(1, [(1, [1, 4])]), q=3, top=Q(5, 6))  # off every knot
@example(simplices=(2, [(3, [2, 4, 5]), (1, [0, 1, 5])]), q=1, top=Q(1))  # one wholly above
def test_scalar_route_is_the_chamber_polynomial_at_the_top(simplices, q, top):
    # the part below the top is the whole less the chamber polynomial there, on
    # the chamber whose closure holds the top: the one above it when it is a knot
    k, knotted = simplices
    x = top * q
    knots = [h for _d, hs in knotted for h in hs]
    lo = max((h for h in knots if h <= x), default=math.floor(x))
    hi = min((h for h in knots if h > x), default=math.floor(x) + 1)
    poly = volume_fn._chamber_sum(knotted, q, Chamber(Q(lo, q), Q(hi, q)), k)
    below = Q(*volume_fn._below_top(knotted, q, top, k))
    assert below == Q(sum(d for d, _hs in knotted), q**k) - poly(top)


def test_chamber_volume_check_raises(f1):
    # one chamber spanning F1's wall at t = 1: a vertex of the hypograph lies inside it
    pp = divisor_family(f1, anticanonical(f1), ray_divisor(f1, 0))
    first, second = pp.chambers
    spanning = Chamber(first.lo, second.hi)
    for chamber_polynomial in (chamber_volume_polynomial, chamber_facet_polynomials):
        with pytest.raises(InvariantViolation, match=r"a vertex height lies inside the chamber \[0, 3\]"):
            chamber_polynomial(pp, spanning)


def test_chamber_polynomials_triangulate_without_a_polytope(f1, p3, monkeypatch):
    # the chamber polynomials enumerate and triangulate the family's hypograph
    # on integer rows, and the check's P_x is a Polytope of integer rows,
    # triangulated uncached: no Fraction view of a Polytope is read and the
    # triangulation cache does not grow
    directions = [(fan, anticanonical(fan), ray_divisor(fan, 0)) for fan in (f1, p3)]
    families = [divisor_family(*direction) for direction in directions]
    cached = triangulation.cache_info().currsize
    want = [family_volume_curve(pp) for pp in families]
    facets = [chamber_facet_polynomials(pp, ch) for pp in families for ch in pp.chambers]

    def refuse(self):
        raise AssertionError("a chamber polynomial read a Polytope's Fraction view")

    monkeypatch.setattr(Polytope, "halfspaces", property(refuse))
    monkeypatch.setattr(Polytope, "vertices", property(refuse))
    # fresh families, whose hypographs are not yet triangulated
    families = [divisor_family.__wrapped__(*direction) for direction in directions]
    assert [family_volume_curve(pp) for pp in families] == want
    assert [chamber_facet_polynomials(pp, ch) for pp in families for ch in pp.chambers] == facets
    assert triangulation.cache_info().currsize == cached


def test_chamber_facet_polynomials_read_one_incidence_table(f1, p3, monkeypatch):
    # every ray's facet on every chamber is read off one table of tight sets
    # per family: the family's rows and s >= 0 on its hypograph
    directions = [(fan, anticanonical(fan), ray_divisor(fan, 0)) for fan in (f1, p3)]
    families = [divisor_family(*direction) for direction in directions]
    want = [chamber_facet_polynomials(pp, ch) for pp in families for ch in pp.chambers]
    calls = []
    real = geometry._tight_sets

    def counted(rows, q, points, den):
        calls.append(len(rows))
        return real(rows, q, points, den)

    monkeypatch.setattr(geometry, "_tight_sets", counted)
    # fresh families, whose hypographs have not read their facets yet
    families = [divisor_family.__wrapped__(*direction) for direction in directions]
    assert [chamber_facet_polynomials(pp, ch) for pp in families for ch in pp.chambers] == want
    assert calls == [len(pp.rows) + 1 for pp in families]


def test_a_hypograph_reads_one_incidence_table(f1, p3, monkeypatch):
    # Q's simplices and its facets are both read off one table of tight sets
    calls = []
    real = geometry._tight_sets

    def counted(rows, q, points, den):
        calls.append(len(rows))
        return real(rows, q, points, den)

    monkeypatch.setattr(geometry, "_tight_sets", counted)
    for fan in (f1, p3):
        # a fresh family, whose hypograph has read neither
        pp = divisor_family.__wrapped__(fan, anticanonical(fan), ray_divisor(fan, 0))
        assert pp.hypograph.simplices and pp.hypograph.facets
    assert calls == [len(f1.rays) + 1, len(p3.rays) + 1]


def test_a_family_is_its_integer_rows(f1, monkeypatch):
    # offsets and rates go over one q = 12 once, when the family is built;
    # its volume curve and integrals then read the integer rows alone
    offsets, rates = [Q(1, 2), Q(2, 3), 1, Q(5, 4)], [Q(1, 3), 0, 0, 1]
    pp = parametric_family([Halfspace(u, a) for u, a in zip(f1.rays, offsets)], rates)
    assert pp.rows == (((1, 0), 6, 4), ((0, 1), 8, 0), ((-1, -1), 12, 0), ((1, 1), 15, 12))
    assert pp.q == 12
    assert pp.chambers == (Chamber(0, Q(1, 8)), Chamber(Q(1, 8), Q(9, 4)))
    assert family_halfspaces(pp) == [FamilyHalfspace(u, a, d) for u, a, d in zip(f1.rays, offsets, rates)]
    calls = []
    real = geometry._over_lcm

    def counted(values):
        calls.append(values)
        return real(values)

    for module in (geometry, toric, volume_fn, tc):
        monkeypatch.setattr(module, "_over_lcm", counted)
    curve = family_volume_curve(pp)
    tc.family_integrals(pp, pp.t_max, curve(pp.t_max))
    assert calls == []


def test_chamber_check_rows_match_fraction_offsets(f1, monkeypatch):
    # _checked's integer rows at the sample point give the volume of the
    # Fraction offsets o - x k put over their lcm (int_rows): F1 along half_E
    # (rate 1/2), a family with rational offsets and rates, and a filtration
    # slice (rate 0 rows and one rate 1 row)
    l = anticanonical(f1)
    families = [
        divisor_family(f1, l, divisor(f1, [0, 0, 0, Q(1, 2)])),
        divisor_family(f1, divisor(f1, [Q(1, 2), Q(2, 3), 1, Q(5, 4)]), divisor(f1, [Q(1, 3), 0, 0, 1])),
        filtration_family(f1, l, (1, 2)),
    ]
    halfspaces = [family_halfspaces(pp) for pp in families]
    assert {hs.rate for hs in halfspaces[0]} == {0, Q(1, 2)}
    assert any(hs.offset.denominator > 1 for hs in halfspaces[1])
    assert sorted(hs.rate for hs in halfspaces[2]) == [0, 0, 0, 0, 1]
    checked = []
    real = volume_fn.normalized_volume

    def captured(rows, q, n):
        checked.append((rows, q, real(rows, q, n)))
        return checked[-1][-1]

    monkeypatch.setattr(volume_fn, "normalized_volume", captured)
    for pp, family in zip(families, halfspaces):
        n = pp.dimension
        for chamber in pp.chambers:
            x = chamber.sample_points(2)[0]
            offsets = [hs.offset - x * hs.rate for hs in family]
            want = real(*int_rows([hs.normal for hs in family], offsets), n)
            assert want > 0
            poly = Polynomial.of(want)
            assert volume_fn._checked(poly, chamber, pp.rows, pp.q, n) is poly
            assert checked.pop()[-1] == want
            with pytest.raises(InvariantViolation, match="not the symbolic polynomial"):
                volume_fn._checked(Polynomial.of(want + 1), chamber, pp.rows, pp.q, n)
    # the rows superlevel_volume_curve hands _checked, p's rows at rate 0 and
    # the slice row over lcm(p.q, p.den), against the Fraction offsets of p's
    # halfspaces and of {<x, u> >= min <., u> + x}: P_L of F1 for -K and for a
    # class with rational offsets, and a triangle with offsets over 1 and
    # vertices over 6
    triangle = [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-2, -3), 1)]
    superlevel = 0
    for p, u in (
        (polytope_of(f1, l), (1, 2)),
        (polytope_of(f1, divisor(f1, [Q(1, 2), Q(2, 3), 1, Q(5, 4)])), (2, -1)),
        (Polytope.from_halfspaces(triangle), (1, 1)),
    ):
        checked.clear()
        superlevel_volume_curve(p, u)
        heights = sorted({dot(v, u) for v in p.vertices})
        slices = [Chamber(lo - heights[0], hi - heights[0]) for lo, hi in zip(heights, heights[1:])]
        assert len(checked) == len(slices) > 1
        for chamber, (rows, q, got) in zip(slices, checked):
            x = chamber.sample_points(2)[0]
            normals = [hs.normal for hs in p.halfspaces] + [u]
            offsets = [hs.offset for hs in p.halfspaces] + [-heights[0] - x]
            assert [(a, Q(b, q)) for a, b in rows] == list(zip(normals, offsets))
            assert got == real(*int_rows(normals, offsets), p.dimension) > 0
            superlevel += 1
    assert superlevel > 4
