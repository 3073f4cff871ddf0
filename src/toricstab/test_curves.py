"""Test curves of divisors and their radial functionals.

Every radial functional of the curve L - tau*D is linear in two kinds of
integral over the curve's domain: the mass integral M = int vol(L - tau D)
dtau and the facet integrals I_i = int <P_tau^{n-1}> . D_i dtau, where P_tau
is the positive part of L - tau*D and the positive product pairs a class
alpha as sum_i alpha_i <P_tau^{n-1}> . D_i.  On [0, tau+] these are n! vol(Q)
and (n-1)! times the lattice volumes of the facets of the family's
hypograph Q, the (n+1)-polytope whose slices are the section polytopes
(Witt Nystrom's energy as the integral of the concave transform; Donaldson's
boundary form of the Futaki invariant); on [0, 1] they are those of the part
of Q below height 1.  A curve carries them, integers over one denominator,
and every functional is a dot product: E = M / V, E^alpha = <alpha, I> / V,
J~ = n (<L, I> - M) / V and Ent = n E^(K_rel + Red D).  The entropy and the
Ricci energy -n E^(-K + K_rel) are integer sums with no divisor built:
K_rel's numerators against the I_i, plus the I_i summed over D's support,
or over every ray for -K.  The entropy needs no reduced support of
tau*D + N_tau: a ray that only N_tau carries misses P_tau, so its facet
function vanishes there.  The integrals are the parts
of Q and of its facets below the domain's top, read off volume_fn's closed
form on knotted simplices at that rational top and checked by Euler's
identity on Q (volume_fn.family_integrals).

One family serves each direction ray: D = c D0 with D0 primitive integral
(volume_fn._ray), and P_{L - tau c D0} = P_{L - (c tau) D0}, so the
integrals of D are 1/c times D0's, over [0, tau+ of D0] for the extended
curve and over [0, c] for the truncated one.  This module keeps no memo of
its own: the family, its volume curve and its extended integrals are
volume_fn's one memo per (fan, L, D0) (volume_fn._ray_curve), and a
truncated curve integrates that family afresh at its top.  Failed checks
are not cached: they raise again on every call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record
from .errors import OutOfRange, RangeTooShort
from .toric import (
    Fan,
    ToricDivisor,
    _check_fan,
    intersection_number,
    zariski_decompose,
    zero_divisor,
)
from .volume_fn import _ray, _ray_curve, family_integrals, volume_curve


class TestCurve(Record):
    """The family L - tau*D on [0, tau+] through the integrals of its radial functionals.

    integral_nums[i] / integral_den is the facet integral int <P_tau^{n-1}> . D_i
    dtau over the domain, and mass_num / integral_den the mass integral int
    vol(L - tau D) dtau; total_volume is V = vol(L).
    """

    _fields = (
        "model", "l", "d", "k_rel", "tau_plus", "kind", "total_volume", "integral_nums",
        "mass_num", "integral_den",
    )

    def __init__(self, model: Fan, l: ToricDivisor, d: ToricDivisor, k_rel: ToricDivisor,
                 tau_plus: Fraction, kind: str, total_volume: Fraction,
                 integral_nums: tuple[int, ...], mass_num: int, integral_den: int) -> None:
        fields = self.__dict__
        fields["model"] = model
        fields["l"] = l
        fields["d"] = d
        fields["k_rel"] = k_rel
        fields["tau_plus"] = tau_plus
        fields["kind"] = kind  # "extended" | "truncated"
        fields["total_volume"] = total_volume
        fields["integral_nums"] = integral_nums
        fields["mass_num"] = mass_num
        fields["integral_den"] = integral_den

    @property
    def mass_integral(self) -> Fraction:
        return Fraction(self.mass_num, self.integral_den)

    def pairing_integral(self, alpha: ToricDivisor) -> Fraction:
        """The integral of the positive product <P_tau^{n-1}> . alpha over the domain.

        One integer dot product of alpha's numerators with the facet integrals'.
        alpha must live on the curve's model (DimensionMismatch).
        """
        _check_fan(self.model, alpha)
        total = sum(map(operator.mul, alpha.nums, self.integral_nums))
        return Fraction(total, alpha.den * self.integral_den)

    def _zariski(self, tau):
        tau = Fraction(tau)
        if not 0 <= tau <= self.tau_plus:
            raise OutOfRange(f"tau = {tau} outside [0, {self.tau_plus}]")
        return zariski_decompose(self.model, self.l - self.d.scale(tau))

    def positive_part(self, tau) -> ToricDivisor:
        return self._zariski(tau).positive

    def negative_part(self, tau) -> ToricDivisor:
        return self._zariski(tau).negative


class CurveSummary(Record):
    """The radial functionals of one curve, all exact rationals."""

    _fields = ("energy", "omega_energy", "jtilde", "entropy", "ricci_energy", "twisted_mabuchi")

    def __init__(self, energy: Fraction, omega_energy: Fraction, jtilde: Fraction,
                 entropy: Fraction, ricci_energy: Fraction, twisted_mabuchi: Fraction) -> None:
        fields = self.__dict__
        fields["energy"] = energy
        fields["omega_energy"] = omega_energy
        fields["jtilde"] = jtilde
        fields["entropy"] = entropy
        fields["ricci_energy"] = ricci_energy
        fields["twisted_mabuchi"] = twisted_mabuchi


def _divided(integrals: tuple[tuple[int, ...], int, int], c: Fraction):
    """Integrals along D0 as integrals along D = c D0: each divided by c."""
    nums, mass, den = integrals
    p, q = c.numerator, c.denominator
    return tuple(x * q for x in nums), mass * q, den * p


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
    d0, c = _ray(d)
    family, volumes, integrals = _ray_curve(fan, l, d0)
    nums, mass, den = _divided(integrals, c)
    return TestCurve(
        model=fan,
        l=l,
        d=d,
        k_rel=k_rel if k_rel is not None else zero_divisor(fan),
        tau_plus=family.t_max / c,
        kind="extended",
        total_volume=volumes(0),
        integral_nums=nums,
        mass_num=mass,
        integral_den=den,
    )


def truncated_curve(curve: TestCurve) -> TestCurve:
    """Restriction of an extended curve to the unit interval.

    Models the unit-time deformation whose mass at tau is still
    vol(L - tau*D); requires the extended curve to reach tau+ >= 1.  With
    D = c D0, its integrals are 1/c times those of D0's family over [0, c].
    """
    if curve.kind != "extended":
        raise ValueError("only extended curves can be truncated")
    if curve.tau_plus < 1:
        raise RangeTooShort(f"tau+ = {curve.tau_plus} < 1")
    d0, c = _ray(curve.d)
    family, volumes, _integrals = _ray_curve(curve.model, curve.l, d0)
    nums, mass, den = _divided(family_integrals(family, c, volumes(c)), c)
    return TestCurve(
        curve.model, curve.l, curve.d, curve.k_rel, Fraction(1), "truncated", curve.total_volume,
        nums, mass, den,
    )


def mass(curve: TestCurve, tau) -> Fraction:
    """Exact vol(L - tau*D), read off the volume curve; V for tau <= 0, an error beyond tau+."""
    tau = Fraction(tau)
    if tau <= 0:
        return curve.total_volume
    if tau > curve.tau_plus:
        raise OutOfRange(f"tau = {tau} beyond tau+ = {curve.tau_plus}")
    volumes, _tau_plus = volume_curve(curve.model, curve.l, curve.d)
    return volumes(tau)


def energy(curve: TestCurve) -> Fraction:
    """(1/V) integral of the mass over the curve domain: M / V.

    This is the paper's tau+ + (1/V) integral of (mass - V): the integral
    of V over [0, tau+] is V tau+ and the two cancel.
    """
    return curve.mass_integral / curve.total_volume


def alpha_energy(curve: TestCurve, alpha: ToricDivisor) -> Fraction:
    """(1/V) integral of <P_tau^{n-1}> . alpha over the curve domain: <alpha, I> / V.

    alpha need not be nef.  <P_tau^{n-1}> . alpha is the positive product
    and depends only on the class of alpha.  This is the paper's tau+
    (alpha.L^{n-1})/V + (1/V) integral of (<P_tau^{n-1}>.alpha -
    alpha.L^{n-1}): the ring-product terms cancel and alpha . L^{n-1} is
    never computed.
    """
    return curve.pairing_integral(alpha) / curve.total_volume


def jtilde(curve: TestCurve) -> Fraction:
    """(n/V) integral of (<P_tau^{n-1}> . L - vol(P_tau)), positive products; nonnegative."""
    n = curve.model.dimension
    return n * (curve.pairing_integral(curve.l) - curve.mass_integral) / curve.total_volume


def _k_rel_pairing(curve: TestCurve, rays) -> Fraction:
    """(n/V) <K_rel + sum of D_i over `rays`, I>: K_rel's pairing_integral plus the rays'."""
    facets = curve.integral_nums
    pairing = curve.pairing_integral(curve.k_rel) + Fraction(
        sum(facets[i] for i in rays), curve.integral_den
    )
    return curve.model.dimension * pairing / curve.total_volume


def entropy(curve: TestCurve) -> Fraction:
    """(n/V) integral of <P_tau^{n-1}> . (K_rel + Red(tau D + N_tau)): n E^(K_rel + Red D).

    A ray in the support of N_tau but not of D carries no facet of P_tau,
    so the reduced divisor pairs as Red D does.
    """
    return _k_rel_pairing(curve, curve.d.support())


def ricci_energy(curve: TestCurve) -> Fraction:
    """-n times the energy against the pulled-back anticanonical class -K + K_rel."""
    return -_k_rel_pairing(curve, range(len(curve.integral_nums)))


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
