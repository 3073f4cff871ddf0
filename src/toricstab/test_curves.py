"""Test curves of divisors and their radial functionals.

An extended curve tracks the family L - tau*D through its exact Zariski
decompositions: within each chamber the positive part P_tau has coefficients
affine in tau and the negative part's support is constant.  The curve's
chambers are the divisor family's own chambers, not cut any further: they run
between consecutive vertex heights of the family's hypograph Q, and the
positive part at a ray u is minus the lower hull of Q's vertices projected to
(tau, <x, u>), which bends only at such heights.  In dimension >= 3
P_tau is only movable, not nef, so the functionals pair it through positive
products <P_tau^{n-1}> . alpha, not ring products.  Each chamber carries the
polynomials f_i(tau) = <P_tau^{n-1}> . D_i, (n-1)! times the lattice volumes
of the facets of the section polytope, and every pairing is the linear sum
sum_i alpha_i f_i.  Integration is linear, so each chamber also carries the
exact integrals I_i of its facet polynomials and that of its mass, integers
over one denominator from one shared set of integer power sums, computed
once; every functional below is then a plain sum over the chambers of
integer dot products sum_i alpha_i I_i and builds no polynomial.  The
chambers tile [0, tau+], so the paper's form tau+ c/V + (1/V) int (f - c)
of a radial functional is (1/V) int f: the constant c, a ring product such
as alpha . L^{n-1}, cancels and is never computed.  The mass identity
sum_i P_tau,i f_i = vol(L - tau D) is checked on integer polynomials.

Each piece of a curve is computed once per distinct input in a process: the
divisor family and volume curve (memoized in volume_fn) and the curve
chambers with their facet polynomials and integrals per (fan, L, D).
extended_curve is then a cheap wrapper on repeated directions, and a
truncated curve integrates afresh only its chamber clipped at tau = 1.
Failed checks are not cached: they raise again on every call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation, OutOfRange, RangeTooShort
from .geometry import LatticeVector, _Hypograph, _over_lcm
from .toric import (
    Fan,
    ToricDivisor,
    anticanonical,
    intersection_number,
    zero_divisor,
)
from .volume_fn import (
    PiecewisePolynomial,
    Polynomial,
    chamber_facet_polynomials,
    divisor_family,
    positive_pairing,
    volume_curve,
)


@dataclass(frozen=True)
class CurveChamber:
    """One tau-interval with affine Zariski data for the family L - tau*D.

    positive_paths[i] is the affine polynomial P_tau,i, the positive-part
    coefficient at ray i; the negative part is L - tau*D - P_tau.
    red_support lists the rays carrying the reduced divisor of
    tau*D + N_tau on the chamber interior, those with L_i > P_tau,i.
    facets[i] is the polynomial <P_tau^{n-1}> . D_i and mass is
    vol(L - tau*D) = sum_i P_tau,i facets[i].  integrals[i] and
    mass_integral, over integral_den, are their exact integrals over
    [lo, hi]; the radial functionals are sums of these over the chambers,
    which tile the curve's domain.  They are derived data and take no part
    in equality or hashing.
    """

    lo: Fraction
    hi: Fraction
    positive_paths: tuple[Polynomial, ...]
    red_support: tuple[int, ...]
    mass: Polynomial
    facets: tuple[Polynomial, ...]
    integrals: tuple[int, ...] = field(compare=False)
    integral_den: int = field(compare=False)
    mass_integral: int = field(compare=False)

    def positive_at(self, tau) -> tuple[Fraction, ...]:
        return tuple(path(tau) for path in self.positive_paths)

    def sample_points(self, count: int) -> list[Fraction]:
        width = self.hi - self.lo
        return [self.lo + width * Fraction(i + 1, count + 1) for i in range(count)]

    def pairing_integral(self, alpha: ToricDivisor) -> Fraction:
        """The integral of the positive product <P_tau^{n-1}> . alpha over the chamber.

        One integer dot product of alpha's numerators with the integrals',
        over the product of the two denominators.
        """
        nums, den = _over_lcm(alpha.coeffs)
        return Fraction(sum(map(operator.mul, nums, self.integrals)), den * self.integral_den)


def _integrals(
    lo: Fraction, hi: Fraction, facets: Sequence[Polynomial], mass: Polynomial
) -> tuple[tuple[int, ...], int, int]:
    """The exact integrals over [lo, hi] of the facet polynomials and of the mass.

    Every polynomial shares the power sums int_lo^hi tau^j = (hi^(j+1) - lo^(j+1))/(j+1),
    held as integers over one denominator D.  Each integral is then an
    integer dot product with a polynomial's numerators, all over one common
    denominator: returned as (facet numerators, denominator, mass numerator).
    A functional sums these over chambers that tile its domain, so it needs
    no integral of a constant term.
    """
    lp, lq, hp, hq = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    top = max(len(p.nums) for p in (mass, *facets))
    m = math.lcm(*range(1, top + 1))
    # int_lo^hi tau^j = powers[j] / D, D = m (lq hq)^top
    powers = [
        (hp ** (j + 1) * lq ** (j + 1) - lp ** (j + 1) * hq ** (j + 1))
        * (lq * hq) ** (top - j - 1) * (m // (j + 1))
        for j in range(top)
    ]
    den = math.lcm(mass.den, *(f.den for f in facets))
    integrals = tuple(
        sum(map(operator.mul, f.nums, powers)) * (den // f.den) for f in facets
    )
    mass_integral = sum(map(operator.mul, mass.nums, powers)) * (den // mass.den)
    return integrals, den * m * (lq * hq) ** top, mass_integral


@dataclass(frozen=True)
class TestCurve:
    """A one-parameter family of Zariski decompositions of L - tau*D."""

    model: Fan
    l: ToricDivisor
    d: ToricDivisor
    k_rel: ToricDivisor
    tau_plus: Fraction
    kind: str  # "extended" | "truncated"
    chambers: tuple[CurveChamber, ...]

    @property
    def total_volume(self) -> Fraction:
        return self.chambers[0].mass(0)

    def chamber_at(self, tau) -> CurveChamber:
        tau = Fraction(tau)
        for ch in self.chambers:
            if ch.lo <= tau < ch.hi:
                return ch
        if tau == self.chambers[-1].hi:
            return self.chambers[-1]
        raise OutOfRange(f"tau = {tau} outside [0, {self.tau_plus}]")

    def positive_part(self, tau) -> ToricDivisor:
        return ToricDivisor(self.model, self.chamber_at(tau).positive_at(tau))

    def negative_part(self, tau) -> ToricDivisor:
        return self.l - self.d.scale(tau) - self.positive_part(tau)

    def mass_curve(self) -> PiecewisePolynomial:
        bps = [self.chambers[0].lo] + [ch.hi for ch in self.chambers]
        return PiecewisePolynomial(tuple(bps), tuple(ch.mass for ch in self.chambers))


@dataclass(frozen=True)
class CurveSummary:
    """The radial functionals of one curve, all exact rationals."""

    energy: Fraction
    omega_energy: Fraction
    jtilde: Fraction
    entropy: Fraction
    ricci_energy: Fraction
    twisted_mabuchi: Fraction


def _support_hull(hypograph: _Hypograph, u: LatticeVector) -> list[tuple[int, int]]:
    """The lower convex hull of Q's vertices projected to (t, <x, u>), integers over Q's den.

    Its graph is g(t) = min over P_t of <x, u>, and its breakpoints, where
    it bends, are vertex heights of Q.  Andrew's monotone chain on the
    lowest point of each height; collinear points are dropped.
    """
    lowest: dict[int, int] = {}
    for num in hypograph.points:
        h, y = num[-1], sum(map(operator.mul, num, u))
        if h not in lowest or y < lowest[h]:
            lowest[h] = y
    hull: list[tuple[int, int]] = []
    for h, y in sorted(lowest.items()):
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
            <= (hull[-1][1] - hull[-2][1]) * (h - hull[-2][0])
        ):
            hull.pop()
        hull.append((h, y))
    return hull


@lru_cache(maxsize=None)
def _curve_chambers(fan: Fan, l: ToricDivisor, d: ToricDivisor) -> tuple[CurveChamber, ...]:
    """Chamber data of the family L - tau*D on [0, tau+], memoized per (fan, L, D).

    One curve chamber per chamber of the divisor family.  The positive part
    at ray u is -g(tau), g(tau) = min over P_tau of <x, u>, the lower hull
    of the family's hypograph Q projected to (tau, <x, u>) (_support_hull).
    Its breakpoints are vertex heights of Q and the family's chambers run
    between consecutive heights, so g is affine on each chamber, read off
    the hull segment over it in integers: the positive-part coefficient
    paths are affine integer polynomials, and the negative-part slacks
    L_i - tau*D_i - P_tau,i are nonnegative affine functions, identically
    zero or strictly positive on the interior; tau*D + N_tau is positive at
    ray i exactly where L_i > P_tau,i.  A hull breakpoint strictly inside a
    chamber raises InvariantViolation.

    The mass is read off the volume curve.  The facet polynomials are checked
    against it: sum_i P_tau,i f_i(tau) must equal the mass exactly, the facets
    against the full-dimensional triangulation; InvariantViolation otherwise.
    """
    volumes, _tau_plus = volume_curve(fan, l, d)
    family = divisor_family(fan, l, d)
    den = family.hypograph.den
    hulls = [_support_hull(family.hypograph, u) for u in fan.rays]
    chambers: list[CurveChamber] = []
    for chamber in family.chambers:
        lo, hi, mid = chamber.lo, chamber.hi, chamber.midpoint()
        bottom, top = math.floor(lo * den), math.ceil(hi * den)
        paths = []
        for u, hull in zip(fan.rays, hulls):
            if any(bottom < h < top for h, _y in hull):
                raise InvariantViolation(
                    f"the support function of ray {u} bends inside the chamber [{lo}, {hi}]"
                )
            # the first hull segment reaching hi; no breakpoint inside, so it starts at or below lo
            (h0, y0), (h1, y1) = next(pair for pair in zip(hull, hull[1:]) if pair[1][0] >= top)
            # -g(tau) = (y1 h0 - y0 h1 + (y0 - y1) den tau) / ((h1 - h0) den), in integers
            c0, c1, e = y1 * h0 - y0 * h1, (y0 - y1) * den, (h1 - h0) * den
            paths.append(Polynomial.from_ints((c0, c1), e))
        # support of tau*D + N_tau = L - P_tau on the chamber interior
        red = tuple(i for i, path in enumerate(paths) if l.coeffs[i] > path(mid))
        mass = volumes.piece_at(mid)
        facets = chamber_facet_polynomials(family, chamber)
        identity = Polynomial(())
        for path, f in zip(paths, facets):
            identity = identity + path * f
        if identity != mass:
            raise InvariantViolation(
                f"facet volumes do not sum to the mass on the chamber [{lo}, {hi}]"
            )
        chambers.append(
            CurveChamber(lo, hi, tuple(paths), red, mass, facets, *_integrals(lo, hi, facets, mass))
        )
    return tuple(chambers)


def extended_curve(
    fan: Fan,
    l: ToricDivisor,
    d: ToricDivisor,
    k_rel: ToricDivisor | None = None,
) -> TestCurve:
    """The maximal deformation curve of L along D, on [0, tau+].

    Mass at tau equals vol(L - tau*D); the curve's value for tau <= 0 is
    constant V and is never materialized.  `k_rel` carries the relative
    canonical divisor when the model arose from star subdivisions.
    """
    # volume_curve performs the polarization/effectivity checks
    _curve, tau_plus = volume_curve(fan, l, d)
    return TestCurve(
        model=fan,
        l=l,
        d=d,
        k_rel=k_rel if k_rel is not None else zero_divisor(fan),
        tau_plus=tau_plus,
        kind="extended",
        chambers=_curve_chambers(fan, l, d),
    )


def truncated_curve(curve: TestCurve) -> TestCurve:
    """Restriction of an extended curve to the unit interval.

    Models the unit-time deformation whose mass at tau is still
    vol(L - tau*D); requires the extended curve to reach tau+ >= 1.
    """
    if curve.kind != "extended":
        raise ValueError("only extended curves can be truncated")
    if curve.tau_plus < 1:
        raise RangeTooShort(f"tau+ = {curve.tau_plus} < 1")
    clipped = []
    for ch in curve.chambers:
        if ch.hi <= 1:
            clipped.append(ch)  # with its integrals
        elif ch.lo < 1:
            integrals, den, mass_integral = _integrals(ch.lo, Fraction(1), ch.facets, ch.mass)
            clipped.append(
                replace(
                    ch, hi=Fraction(1), integrals=integrals, integral_den=den,
                    mass_integral=mass_integral,
                )
            )
    return TestCurve(
        model=curve.model,
        l=curve.l,
        d=curve.d,
        k_rel=curve.k_rel,
        tau_plus=Fraction(1),
        kind="truncated",
        chambers=tuple(clipped),
    )


def mass(curve: TestCurve, tau) -> Fraction:
    """Exact vol(L - tau*D); V for tau <= 0, an error beyond tau+."""
    tau = Fraction(tau)
    if tau <= 0:
        return curve.total_volume
    if tau > curve.tau_plus:
        raise OutOfRange(f"tau = {tau} beyond tau+ = {curve.tau_plus}")
    return curve.chamber_at(tau).mass(tau)


def energy(curve: TestCurve) -> Fraction:
    """(1/V) integral of the mass over the curve domain, a sum of chamber integrals.

    This is the paper's tau+ + (1/V) integral of (mass - V): the chambers
    tile [0, tau+], so the integral of V is V tau+ and the two cancel.
    """
    total = sum(Fraction(ch.mass_integral, ch.integral_den) for ch in curve.chambers)
    return total / curve.total_volume


def alpha_energy(curve: TestCurve, alpha: ToricDivisor) -> Fraction:
    """(1/V) integral of <P_tau^{n-1}> . alpha over the curve domain, a sum of chamber integrals.

    alpha need not be nef.  <P_tau^{n-1}> . alpha is the positive product,
    the chamber's facet pairing, and depends only on the class of alpha.
    This is the paper's tau+ (alpha.L^{n-1})/V + (1/V) integral of
    (<P_tau^{n-1}>.alpha - alpha.L^{n-1}): the chambers tile [0, tau+], so
    the ring-product terms cancel and alpha . L^{n-1} is never computed.
    """
    return sum(ch.pairing_integral(alpha) for ch in curve.chambers) / curve.total_volume


def jtilde(curve: TestCurve) -> Fraction:
    """(n/V) integral of (<P_tau^{n-1}> . L - vol(P_tau)), positive products; nonnegative."""
    n = curve.model.dimension
    v = curve.total_volume
    total = Fraction(0)
    for ch in curve.chambers:
        total += ch.pairing_integral(curve.l) - Fraction(ch.mass_integral, ch.integral_den)
    return n * total / v


def _entropy_direction(curve: TestCurve, ch: CurveChamber) -> ToricDivisor:
    red = [Fraction(0)] * len(curve.model.rays)
    for i in ch.red_support:
        red[i] = Fraction(1)
    return curve.k_rel + ToricDivisor(curve.model, tuple(red))


def entropy_at(curve: TestCurve, tau) -> Fraction:
    """(n/V) <(L - tau D)^{n-1}> . (K_rel + Red(tau D + N_tau)).

    The positive product is positive_pairing's facet sum over the section
    polytope of L - tau D, built afresh rather than read off the curve's chambers.
    """
    tau = Fraction(tau)
    if not 0 < tau < curve.tau_plus:
        raise OutOfRange(f"entropy_at needs tau in (0, {curve.tau_plus})")
    n = curve.model.dimension
    ch = curve.chamber_at(tau)
    direction = _entropy_direction(curve, ch)
    family_value = curve.l - curve.d.scale(tau)
    return n * positive_pairing(curve.model, family_value, direction) / curve.total_volume


def entropy(curve: TestCurve) -> Fraction:
    """Chamber-wise exact integral of entropy_at over the curve domain.

    On a chamber the positive product of entropy_at is
    (n/V) <P_tau^{n-1}> . (K_rel + Red), with the chamber's reduced divisor,
    so the integrand is the chamber's facet pairing scaled by n/V.
    """
    n = curve.model.dimension
    total = Fraction(0)
    for ch in curve.chambers:
        total += ch.pairing_integral(_entropy_direction(curve, ch))
    return n * total / curve.total_volume


def ricci_energy(curve: TestCurve) -> Fraction:
    """-n times the energy against the pulled-back anticanonical class."""
    n = curve.model.dimension
    anti = anticanonical(curve.model) + curve.k_rel
    return -n * alpha_energy(curve, anti)


def twisted_mabuchi(curve: TestCurve) -> Fraction:
    """Ricci energy plus entropy."""
    return ricci_energy(curve) + entropy(curve)


def curve_summary(curve: TestCurve) -> CurveSummary:
    e = energy(curve)
    eo = alpha_energy(curve, curve.l)
    jt = jtilde(curve)
    ent = entropy(curve)
    er = ricci_energy(curve)
    return CurveSummary(
        energy=e,
        omega_energy=eo,
        jtilde=jt,
        entropy=ent,
        ricci_energy=er,
        twisted_mabuchi=er + ent,
    )


# --------------------------------------------------------------------------
# the degree-(n-1) averaging polynomial
# --------------------------------------------------------------------------

def g_polynomial(a, b, n: int) -> Fraction:
    """sum_j (1/(j+1)) C(n-1,j) (-1)^j a^{n-1-j} b^j, checked against its closed form.

    Equals the average of (a - t*b)^{n-1} over t in [0,1]; for b != 0 the
    closed form (a^n - (a-b)^n)/(n*b) must agree exactly.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    a, b = Fraction(a), Fraction(b)
    total = sum(
        (
            Fraction(math.comb(n - 1, j), j + 1) * (-1) ** j * a ** (n - 1 - j) * b**j
            for j in range(n)
        ),
        Fraction(0),
    )
    if b != 0:
        closed = (a**n - (a - b) ** n) / (n * b)
        if total != closed:
            raise InvariantViolation("averaging polynomial forms disagree")
    return total


def g_pairing(
    fan: Fan,
    a: ToricDivisor,
    b: ToricDivisor,
    against: ToricDivisor,
) -> Fraction:
    """Multilinear divisor form: sum_j (1/(j+1)) C(n-1,j) (-1)^j (a^{n-1-j} . b^j . against)."""
    n = fan.dimension
    total = Fraction(0)
    for j in range(n):
        classes = [a] * (n - 1 - j) + [b] * j + [against]
        value = intersection_number(fan, classes)
        total += Fraction(math.comb(n - 1, j), j + 1) * (-1) ** j * value
    return total
