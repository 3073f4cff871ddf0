"""One-parameter volume functions and directional derivatives of the volume.

Houses the exact polynomial and piecewise-polynomial types used everywhere:
volume curves t -> vol(L - tD) and of any one-parameter family,
pseudo-effective thresholds, the positive (movable) intersection pairing as a
sum over the facets of the section polytope, checked by Euler's identity, and
volumes along towers of star subdivisions.

Every curve comes from one closed form on one triangulation per family:
over a simplex with vertex heights h, the divided difference [h] of
s -> (s - c)_+^k (Curry-Schoenberg).  A family's chamber volume and facet
polynomials triangulate its hypograph, the (n+1)-polytope whose slices are
the family's polytopes, once per family, with no Polytope built and no
triangulation cache entry added.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import (
    InvariantViolation,
    NotAmple,
    NotBig,
    NotMonotone,
    OutOfRange,
    ZeroDivisor,
)
from .geometry import (
    Chamber,
    ParametricPolytope,
    _Hypograph,
    _over_lcm,
    facet_volumes,
    int_rows,
    normalized_volume,
    parametric_family,
    volume,
)
from .toric import Fan, ToricDivisor, is_ample, polytope_of, section_halfspaces, star_subdivision


# --------------------------------------------------------------------------
# exact polynomials
# --------------------------------------------------------------------------

def _homogeneous(nums: Sequence[int], p: int, q: int) -> int:
    """q^(len(nums) - 1) * sum_i nums[i] * (p / q)^i, by Horner's scheme in integers."""
    acc, qpow = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, ascending order.

    Evaluation and integration run on its integer form, integer numerators
    over one common denominator, computed once on first use and outside
    equality and hashing; each builds one Fraction at the end.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def of(cls, *coeffs) -> Polynomial:
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @cached_property
    def _ints(self) -> tuple[list[int], int]:
        """The coefficients as integer numerators over their least common denominator."""
        return _over_lcm(self.coeffs)

    def __call__(self, x) -> Fraction:
        nums, den = self._ints
        if not nums:
            return Fraction(0)
        x = Fraction(x)
        q = x.denominator
        return Fraction(_homogeneous(nums, x.numerator, q), den * q ** (len(nums) - 1))

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial(
            tuple(
                a + b
                for a, b in itertools.zip_longest(
                    self.coeffs, other.coeffs, fillvalue=Fraction(0)
                )
            )
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + other.scale(-1)

    def __mul__(self, other: Polynomial) -> Polynomial:
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def scale(self, c) -> Polynomial:
        c = Fraction(c)
        return Polynomial(tuple(c * a for a in self.coeffs))

    def derivative(self) -> Polynomial:
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def integrate(self, a, b) -> Fraction:
        """The signed integral from a to b: power sums over one common denominator.

        With k coefficients over den, the antiderivative has integer
        coefficients over den * m, m = lcm(1, ..., k).
        """
        nums, den = self._ints
        k = len(nums)
        m = math.lcm(*range(1, k + 1))
        anti = [0] + [c * (m // e) for e, c in enumerate(nums, 1)]
        a, b = Fraction(a), Fraction(b)
        ad, bd = a.denominator, b.denominator
        top = _homogeneous(anti, b.numerator, bd) * ad**k
        top -= _homogeneous(anti, a.numerator, ad) * bd**k
        return Fraction(top, den * m * (ad * bd) ** k)

    def divmod(self, other: Polynomial) -> tuple[Polynomial, Polynomial]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        while rem and rem[-1] == 0:
            rem.pop()
        while len(rem) >= len(d):
            shift = len(rem) - len(d)
            factor = rem[-1] / d[-1]
            quo[shift] += factor
            for i, c in enumerate(d):
                rem[shift + i] -= factor * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(tuple(quo)), Polynomial(tuple(rem))


# ---- exact sign analysis ---------------------------------------------------

def _monic(p: Polynomial) -> Polynomial:
    return p if p.is_zero else p.scale(Fraction(1) / p.coeffs[-1])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    return _monic(a)


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: pairwise-coprime squarefree factors with multiplicities."""
    p = _monic(p)
    if p.degree <= 0:
        return []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    c = p.divmod(g)[0]
    d = p.derivative().divmod(g)[0] - c.derivative()
    out: list[tuple[Polynomial, int]] = []
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((_monic(a), i))
        c_next = c.divmod(a)[0]
        d = d.divmod(a)[0] - c_next.derivative()
        c = c_next
        i += 1
    return out


def _sturm_sequence(p: Polynomial) -> list[Polynomial]:
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        _q, r = seq[-2].divmod(seq[-1])
        if r.is_zero:
            break
        seq.append(r.scale(-1))
    return seq


def _sign_changes(values: Sequence[Fraction]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def count_roots(p: Polynomial, a, b) -> int:
    """Distinct real roots of p in (a, b]; requires p(a) != 0."""
    if p.is_zero:
        raise ValueError("the zero polynomial has infinitely many roots")
    seq = _sturm_sequence(p)
    return _sign_changes([q(a) for q in seq]) - _sign_changes([q(b) for q in seq])


def _divide_out_root(p: Polynomial, r) -> Polynomial:
    r = Fraction(r)
    while not p.is_zero and p.degree >= 1 and p(r) == 0:
        q, rem = p.divmod(Polynomial.of(-r, 1))
        if not rem.is_zero:
            raise InvariantViolation(f"dividing out the root {r} left a remainder")
        p = q
    return p


def nonneg_on_interval(p: Polynomial, a, b) -> bool:
    """Exact decision of p >= 0 everywhere on [a, b].

    Sign changes happen exactly at odd-multiplicity roots, so after checking
    the endpoints it suffices to verify that the odd part of the squarefree
    decomposition has no root strictly inside, then sample one non-root point.
    """
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("empty interval")
    if p.is_zero:
        return True
    if p(a) < 0 or p(b) < 0:
        return False
    if a == b:
        return True
    odd = Polynomial.of(1)
    for factor, mult in squarefree_decomposition(p):
        if mult % 2 == 1:
            odd = odd * factor
    odd = _divide_out_root(_divide_out_root(odd, a), b)
    if odd.degree >= 1 and count_roots(odd, a, b) > 0:
        return False
    # no interior sign change: one non-root sample decides the sign
    for k in range(1, p.degree + 3):
        x = a + (b - a) * Fraction(k, p.degree + 3)
        val = p(x)
        if val != 0:
            return val > 0
    raise InvariantViolation("nonzero polynomial vanished at more points than its degree")


# --------------------------------------------------------------------------
# piecewise polynomials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    Continuity across breakpoints is enforced at construction unless the
    object is built with `continuous=False` (used for densities, which may
    jump at chamber walls).
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[Polynomial, ...]
    continuous: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        bps = tuple(Fraction(b) for b in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) != len(self.pieces) + 1:
            raise ValueError("need exactly one piece per breakpoint interval")
        if any(x >= y for x, y in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.continuous:
            for x, left, right in zip(bps[1:], self.pieces, self.pieces[1:]):
                if left(x) != right(x):
                    raise ValueError(f"discontinuity at breakpoint {x}")

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def piece_index(self, x) -> int:
        x = Fraction(x)
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise OutOfRange(f"{x} outside domain [{lo}, {hi}]")
        for i in range(len(self.pieces) - 1):
            if x < self.breakpoints[i + 1]:
                return i
        return len(self.pieces) - 1

    def piece_at(self, x) -> Polynomial:
        return self.pieces[self.piece_index(x)]

    def __call__(self, x) -> Fraction:
        return self.piece_at(x)(x)

    def integrate(self, a=None, b=None) -> Fraction:
        """The signed integral from a to b, by default over the domain.

        A bound outside the domain raises OutOfRange, as piece_index does.
        """
        lo, hi = self.domain
        a = lo if a is None else Fraction(a)
        b = hi if b is None else Fraction(b)
        for x in (a, b):
            if not lo <= x <= hi:
                raise OutOfRange(f"{x} outside domain [{lo}, {hi}]")
        if a > b:
            return -self.integrate(b, a)
        total = Fraction(0)
        for i, poly in enumerate(self.pieces):
            left = max(a, self.breakpoints[i])
            right = min(b, self.breakpoints[i + 1])
            if left < right:
                total += poly.integrate(left, right)
        return total

    def moment(self) -> Fraction:
        """Exact integral of x * f(x) over the domain."""
        t = Polynomial.of(0, 1)
        total = Fraction(0)
        for i, poly in enumerate(self.pieces):
            total += (t * poly).integrate(self.breakpoints[i], self.breakpoints[i + 1])
        return total

    def is_nonincreasing(self) -> bool:
        return all(
            nonneg_on_interval(
                p.derivative().scale(-1), self.breakpoints[i], self.breakpoints[i + 1]
            )
            for i, p in enumerate(self.pieces)
        )

    def is_nonnegative(self) -> bool:
        return all(
            nonneg_on_interval(p, self.breakpoints[i], self.breakpoints[i + 1])
            for i, p in enumerate(self.pieces)
        )

    @classmethod
    def merged(
        cls, breakpoints: Sequence, pieces: Sequence[Polynomial], continuous: bool = True
    ) -> PiecewisePolynomial:
        """Built once from its pieces, adjacent intervals carrying the same polynomial merged.

        Continuity at a dropped breakpoint between equal polynomials is
        automatic, so checking the merged curve is as strong as checking the
        unmerged one.  The library builds its curves here, so a failed check
        is a library defect and raises InvariantViolation, not ValueError.
        """
        bps = [breakpoints[0]]
        merged: list[Polynomial] = []
        for right, poly in zip(breakpoints[1:], pieces, strict=True):
            if merged and merged[-1] == poly:
                bps[-1] = right
                continue
            merged.append(poly)
            bps.append(right)
        try:
            return cls(tuple(bps), tuple(merged), continuous=continuous)
        except ValueError as exc:
            raise InvariantViolation(f"built curve is invalid: {exc}") from exc

    def normalized(self) -> PiecewisePolynomial:
        """Merge adjacent intervals carrying the same polynomial."""
        return PiecewisePolynomial.merged(self.breakpoints, self.pieces, self.continuous)

    def scale(self, c) -> PiecewisePolynomial:
        return PiecewisePolynomial(
            self.breakpoints,
            tuple(p.scale(c) for p in self.pieces),
            continuous=self.continuous,
        )

    def derivative(self) -> PiecewisePolynomial:
        """Chamber-wise derivative; continuity is not implied."""
        return PiecewisePolynomial(
            self.breakpoints,
            tuple(p.derivative() for p in self.pieces),
            continuous=False,
        )

    def samples(self, per_piece: int) -> list[tuple[Fraction, Fraction]]:
        out = []
        for i, poly in enumerate(self.pieces):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            for j in range(per_piece):
                x = lo + (hi - lo) * Fraction(j, per_piece)
                out.append((x, poly(x)))
        out.append((self.breakpoints[-1], self.pieces[-1](self.breakpoints[-1])))
        return out


# --------------------------------------------------------------------------
# volume functions of divisors
# --------------------------------------------------------------------------

def big_volume(fan: Fan, d: ToricDivisor) -> Fraction:
    """vol(D) = n! * volume of the section polytope; zero iff D is not big."""
    return math.factorial(fan.dimension) * volume(polytope_of(fan, d))


@lru_cache(maxsize=None)
def divisor_family(fan: Fan, l: ToricDivisor, d: ToricDivisor) -> ParametricPolytope:
    """The parametric section polytope family of t -> L - tD from t = 0 to its threshold.

    Memoized per (fan, L, D): volume_curve and the test-curve chambers of one
    direction share a single family.
    """
    return parametric_family(section_halfspaces(fan, l.coeffs), list(d.coeffs))


def _truncated_power_dd(knots: Sequence[int], top: int, n: int) -> tuple[list[int], int]:
    """The divided difference [k_0, ..., k_m] of s -> (s - C)_+^n, as a polynomial in C.

    C ranges over one chamber, and no knot lies strictly inside it: the
    sorted `knots` at least `top`, the chamber's upper end, see (s - C)^n, the
    others see 0.  Where j - i + 1 knots coincide at s, the confluent entry is
    the Taylor coefficient binom(n, j - i) (s - C)^(n - j + i) above the chamber
    and 0 below it or when j - i > n.  There may be more than n + 1 knots.
    Returns integer coefficients, ascending in C, over one positive
    denominator.
    """

    def power(s: int, k: int) -> tuple[list[int], int]:
        # binom(n, k) * (s - C)^(n - k), padded to n + 1 coefficients
        if s < top or k > n:
            return [0] * (n + 1), 1
        m = n - k
        c = math.comb(n, k)
        return [c * math.comb(m, j) * s ** (m - j) * (-1) ** j for j in range(m + 1)] + [0] * k, 1

    table = [power(s, 0) for s in knots]
    for k in range(1, len(knots)):
        grown = []
        for i in range(len(knots) - k):
            a, b = knots[i], knots[i + k]
            if a == b:
                grown.append(power(a, k))
                continue
            (lo, dlo), (hi, dhi) = table[i], table[i + 1]
            grown.append(([x * dlo - y * dhi for x, y in zip(hi, lo)], dlo * dhi * (b - a)))
        table = grown
    return table[0]


def _slice_polynomial(
    knotted: Sequence[tuple[int, Sequence[int]]], lo: int, hi: int, q: int, n: int
) -> Polynomial:
    """c -> sum of |det| [h](s - q c)_+^n / q^n over (|det|, sorted heights h), on [lo/q, hi/q].

    The heights are integers over q, none strictly inside the chamber, n + 2
    per (n+1)-simplex of a hypograph or of one of its facets (_Hypograph):
    n! times the volume of its slice at c, which a simplex wholly above or
    below the chamber misses.
    """
    total, den = [0] * (n + 1), 1
    for d, hs in knotted:
        if hs[0] < hi and hs[-1] > lo:
            coeffs, dd_den = _truncated_power_dd(hs, hi, n)
            common = math.lcm(den, dd_den)
            total = [
                t * (common // den) + d * c * (common // dd_den) for t, c in zip(total, coeffs)
            ]
            den = common
    # C = q * c: a k-simplex's |det| / q^k times [h / q] of its k + 1 heights is |det| / q^n * [h]
    return Polynomial(tuple(Fraction(t * q**m, den * q**n) for m, t in enumerate(total)))


def _on_chamber(hypograph: _Hypograph, chamber: Chamber, knotted, power: int) -> Polynomial:
    """_slice_polynomial of `knotted`, simplices of the hypograph, to `power` on the chamber.

    None of Q's vertex heights may lie strictly inside the chamber.  The
    heights are integers, so the integers floor(lo) and ceil(hi) order them
    as the chamber's ends lo and hi over den do.
    """
    lo, hi = math.floor(chamber.lo * hypograph.den), math.ceil(chamber.hi * hypograph.den)
    if any(lo < h < hi for h in hypograph.heights):
        raise InvariantViolation(
            f"a vertex of the hypograph lies inside the chamber [{chamber.lo}, {chamber.hi}]"
        )
    return _slice_polynomial(knotted, lo, hi, hypograph.den, power)


def chamber_volume_polynomial(pp: ParametricPolytope, chamber: Chamber) -> Polynomial:
    """Exact volume polynomial on one chamber, in closed form on the family's hypograph.

    P_t is the slice at t of the family's (n+1)-polytope Q (pp.hypograph),
    triangulated once per family.  Over each simplex S of Q, with vertex heights h_S, n!
    times the volume of its slice at t is |det S| times the divided
    difference [h_S] of s -> (s - t)_+^n (Curry-Schoenberg), one polynomial
    in t between consecutive heights of Q.  Every height of Q is a wall of
    the family, so none may lie strictly inside the chamber.  The result is
    checked against an independent volume of P_x at one interior point x,
    the family's rows at x enumerated and triangulated afresh on integers
    (normalized_volume), and against the degree bound n = the family's
    dimension; a failure raises InvariantViolation.
    """
    n = pp.dimension
    poly = _on_chamber(pp.hypograph, chamber, pp.hypograph.simplices, n)
    poly = poly.scale(Fraction(1, math.factorial(n)))
    x = chamber.sample_points(2)[0]  # a third of the way in: neither the midpoint nor an end
    offsets = [hs.offset - x * hs.rate for hs in pp.halfspaces]
    check = normalized_volume(*int_rows([hs.normal for hs in pp.halfspaces], offsets), n)
    if poly.degree > n or math.factorial(n) * poly(x) != check:
        raise InvariantViolation(
            f"volume is not the symbolic polynomial on the chamber [{chamber.lo}, {chamber.hi}]"
        )
    return poly


def chamber_facet_polynomials(pp: ParametricPolytope, chamber: Chamber) -> tuple[Polynomial, ...]:
    """Per primitive normal u_i, t -> (n-1)! times the lattice volume of the facet of P_t.

    For the family of L - tD this is the positive product <P_t^{n-1}> . D_i,
    zero where the face minimizing u_i is not a facet.  That facet is the
    slice at t of Q's facet on row i (_Hypograph), every row's read from one
    incidence table per family.  Over each simplex T of it, with vertex
    heights h_T, the slice's (n-1)! lattice volume is |det(edges of T,
    (u_i, 0))| / <u_i, u_i> times the divided difference [h_T] of
    s -> (s - t)_+^(n-1), as in chamber_volume_polynomial.
    """
    n, hypograph = pp.dimension, pp.hypograph
    return tuple(
        _on_chamber(hypograph, chamber, knotted, n - 1).scale(Fraction(1, sum(a * a for a in u)))
        for u, knotted in zip(hypograph.normals, hypograph.facets)
    )


def family_volume_curve(pp: ParametricPolytope) -> PiecewisePolynomial:
    """Piecewise polynomial of t -> n! * volume(P_t) on [0, t_max], n = pp.dimension."""
    scale = math.factorial(pp.dimension)
    pieces = [chamber_volume_polynomial(pp, chamber).scale(scale) for chamber in pp.chambers]
    return PiecewisePolynomial.merged([pp.chambers[0].lo, *(ch.hi for ch in pp.chambers)], pieces)


@lru_cache(maxsize=None)
def volume_curve(
    fan: Fan, l: ToricDivisor, d: ToricDivisor
) -> tuple[PiecewisePolynomial, Fraction]:
    """Exact t -> vol(L - tD) on [0, tau+], plus the pseudo-effective threshold.

    L must pass the polarization check (full-dimensional nef-saturated
    polytope); D must be effective and nonzero, which forces tau+ < infinity.
    Memoized per (fan, L, D); a failed check is not cached and raises again.
    """
    if d.is_zero:
        raise ZeroDivisor("direction divisor is zero")
    if not d.is_effective:
        raise ZeroDivisor("direction divisor must be effective")
    if not is_ample(fan, l):
        raise NotAmple("polarization is not big and nef")
    pp = divisor_family(fan, l, d)
    curve = family_volume_curve(pp)
    if not curve.is_nonincreasing():
        raise NotMonotone("volume curve must be non-increasing")
    return curve, pp.t_max


def positive_pairing(fan: Fan, m: ToricDivisor, lprime: ToricDivisor) -> Fraction:
    """The positive product <M^{n-1}> . L' = sum_i L'_i f_i over the facets of P_M.

    f_i is (n-1)! times the lattice volume of the facet of P_M on ray i, and 0
    where that face is not a facet.  The sum is (1/n) d/ds vol(M + sL') at
    s = 0+ (Boucksom-Favre-Jonsson).  The facet volumes are checked against
    Euler's identity sum_i M_i f_i = vol(M), the facets triangulated apart
    from the full polytope, all from one incidence table of P_M; a failure
    raises InvariantViolation.
    """
    vol = big_volume(fan, m)
    if vol == 0:
        raise NotBig("positive pairing needs a big base divisor")
    scale = math.factorial(fan.dimension - 1)
    facets = [scale * f for f in facet_volumes(polytope_of(fan, m), fan.rays)]
    if sum(map(operator.mul, m.coeffs, facets)) != vol:
        raise InvariantViolation("facet volumes of the section polytope break Euler's identity")
    return sum(map(operator.mul, lprime.coeffs, facets))


def stabilized_volume(
    fan: Fan,
    l: ToricDivisor,
    d: ToricDivisor,
    refinements: Sequence[Sequence[int]],
) -> list[Fraction]:
    """Volumes of L - D along a tower of star subdivisions with both pulled back.

    Divisor data determined on the input model pulls back along every
    refinement, so the sequence is constant; it is reported as a
    non-increasing upper-bound chain for the volume over all models.
    """
    values = [big_volume(fan, l - d)]
    current_fan, current_l, current_d = fan, l, d
    for center in refinements:
        current_fan, pull, _k_rel = star_subdivision(current_fan, tuple(center))
        current_l = pull(current_l)
        current_d = pull(current_d)
        values.append(big_volume(current_fan, current_l - current_d))
    for a, b in zip(values, values[1:]):
        if b > a:
            raise InvariantViolation(f"stabilized volumes must be non-increasing: {a} then {b}")
    return values
