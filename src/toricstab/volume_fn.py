"""One-parameter volume functions and directional derivatives of the volume.

Houses the exact polynomial and piecewise-polynomial types used everywhere:
volume curves t -> vol(L - tD) and of any one-parameter family,
pseudo-effective thresholds, the positive (movable) intersection pairing as a
sum over the facets of the section polytope, checked by Euler's identity, and
volumes along towers of star subdivisions.

A Polynomial is integer numerators over one positive denominator, and its
arithmetic, evaluation and integration run in integers; the sign
decisions behind monotonicity (Yun's squarefree decomposition, Sturm
sequences) run on primitive integer remainder sequences.  A Fraction is
built only where a rational leaves the kernel.

Every volume curve, filtration curve and curve integral is one closed form
on knotted simplices, (|det|, sorted integer vertex heights h) over one
denominator: |det| [h](s - c)_+^k (Curry-Schoenberg), by one divided-difference
recursion on integers, read as a polynomial on a chamber (_chamber_sum) or
as the part below a rational top (_below_top).  It is summed over a family's
hypograph, the (n+1)-polytope whose slices are the family's polytopes,
triangulated once per family with no Polytope built, for every volume curve:
a divisor's, and a filtration's as its slice family; and over the hypograph
and its facets for test_curves' integrals.  A divisor's family and volume
curve are those of the primitive integral divisor on its ray, rescaled.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from ._record import Record
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
    FamilyRow,
    ParametricPolytope,
    _over_lcm,
    facet_volumes,
    normalized_volume,
    volume,
)
from .toric import (
    Fan,
    ToricDivisor,
    _check_fan,
    is_ample,
    polytope_of,
    star_subdivision,
)


# --------------------------------------------------------------------------
# exact polynomials
# --------------------------------------------------------------------------

def _ratio(x) -> tuple[int, int]:
    """The numerator and positive denominator of an int, a Fraction or anything Fraction takes."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _homogeneous(nums: Sequence[int], p: int, q: int) -> int:
    """q^(len(nums) - 1) * sum_i nums[i] * (p / q)^i, by Horner's scheme in integers.

    For q > 0 its sign is that of the polynomial nums at p / q.
    """
    acc, qpow = 0, 1
    for c in reversed(nums):
        acc = acc * p + c * qpow
        qpow *= q
    return acc


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two integer coefficient lists, ascending."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _derivative(nums: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(nums)][1:]


def _pseudo_divide(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s a = q b + r, s = lc(b)^k, k = max(deg a - deg b + 1, 0), all in integers.

    Each of the k steps multiplies q and r by lc(b) and cancels r's leading
    coefficient, so no step divides.
    """
    n, lc = len(b) - 1, b[-1]
    rem = list(a)
    quo = [0] * max(len(rem) - n, 0)
    for shift in reversed(range(len(quo))):
        c = rem.pop()
        quo = [lc * x for x in quo]
        quo[shift] = c
        rem = [lc * x for x in rem]
        for j in range(n):
            rem[shift + j] -= c * b[j]
    return quo, rem, lc ** len(quo)


class Polynomial(Record):
    """Univariate polynomial with exact rational coefficients, ascending order.

    Its one form is integer numerators `nums` over one positive denominator
    `den`, in lowest terms and without trailing zeros; equality and hashing
    read it.  Arithmetic, evaluation and integration run on it in integers,
    and each value returned as a rational is one Fraction built at the end.
    `coeffs`, the Fraction coefficients, is derived on demand.
    """

    _fields = ("nums", "den")

    def __init__(self, coeffs: Sequence = ()) -> None:
        self._assign(*_over_lcm([Fraction(c) for c in coeffs]))

    @classmethod
    def of(cls, *coeffs) -> Polynomial:
        return cls(coeffs)

    @classmethod
    def from_ints(cls, nums: Sequence[int], den: int = 1) -> Polynomial:
        """sum_i nums[i] x^i / den for integers nums and a nonzero integer den."""
        p = object.__new__(cls)
        p._assign(list(nums), den)
        return p

    def _assign(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [c // g for c in nums]
        fields = self.__dict__
        fields["nums"] = tuple(nums)
        fields["den"] = den // g

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.nums) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __call__(self, x) -> Fraction:
        if not self.nums:
            return Fraction(0)
        p, q = _ratio(x)
        return Fraction(_homogeneous(self.nums, p, q), self.den * q ** (len(self.nums) - 1))

    def __add__(self, other: Polynomial) -> Polynomial:
        g = math.gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        return Polynomial.from_ints(
            [x * ma + y * mb for x, y in itertools.zip_longest(self.nums, other.nums, fillvalue=0)],
            self.den * ma,
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + other.scale(-1)

    def __mul__(self, other: Polynomial) -> Polynomial:
        return Polynomial.from_ints(_convolve(self.nums, other.nums), self.den * other.den)

    def scale(self, c) -> Polynomial:
        p, q = _ratio(c)
        return Polynomial.from_ints([p * a for a in self.nums], self.den * q)

    def derivative(self) -> Polynomial:
        return Polynomial.from_ints(_derivative(self.nums), self.den)

    def dilate(self, c) -> Polynomial:
        """x -> self(c x): coefficient k times c^k, in integers over den * q^degree, c = p / q."""
        p, q = _ratio(c)
        k = len(self.nums) - 1
        return Polynomial.from_ints(
            [a * p**i * q ** (k - i) for i, a in enumerate(self.nums)], self.den * q**k
        )

    def integrate(self, a, b) -> Fraction:
        """The signed integral from a to b: power sums over one common denominator.

        With k coefficients over den, the antiderivative has integer
        coefficients over den * m, m = lcm(1, ..., k).
        """
        nums = self.nums
        k = len(nums)
        m = math.lcm(*range(1, k + 1))
        anti = [0] + [c * (m // e) for e, c in enumerate(nums, 1)]
        (an, ad), (bn, bd) = _ratio(a), _ratio(b)
        top = _homogeneous(anti, bn, bd) * ad**k - _homogeneous(anti, an, ad) * bd**k
        return Fraction(top, self.den * m * (ad * bd) ** k)


# ---- exact sign analysis on primitive integer remainder sequences -----------
#
# Positive multiples of a polynomial have its roots and its signs, so the
# decisions below run on integer coefficient lists divided by their positive
# content (primitive parts), with pseudo-remainders scaled by |lc|^k
# (Brown-Traub primitive remainder sequences).

def _primitive(nums: Sequence[int]) -> list[int]:
    g = math.gcd(*nums)
    return [c // g for c in nums] if g > 1 else list(nums)


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """|lc(b)|^k times the remainder of a by b, k = deg a - deg b + 1, trailing zeros dropped.

    The scale is positive, so the result has the remainder's signs.
    """
    _quo, rem, scale = _pseudo_divide(a, b)
    while rem and not rem[-1]:
        rem.pop()
    return rem if scale > 0 else [-c for c in rem]


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for a primitive b dividing a; the quotient is integral (Gauss's lemma).

    A remainder or a fractional quotient coefficient raises InvariantViolation.
    """
    quo, rem, scale = _pseudo_divide(a, b)
    if any(rem) or any(c % scale for c in quo):
        raise InvariantViolation("an exact polynomial division left a remainder")
    return [c // scale for c in quo]


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The primitive gcd with positive leading coefficient; [] for two zero polynomials."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _squarefree(nums: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on primitive integer polynomials.

    c and d carry one common scale through every step, as they are divided
    by the same primitive gcd, so each quotient is exact and integral.
    """
    if len(nums) <= 1:
        return []
    p = _primitive(nums)
    dp = _derivative(p)
    g = _gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    c = _exact_quotient(p, g)
    d = _exact_quotient(dp, g)
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(c) > 1:
        d = [x - y for x, y in itertools.zip_longest(d, _derivative(c), fillvalue=0)]
        while d and not d[-1]:
            d.pop()
        a = _gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c = _exact_quotient(c, a)
        d = _exact_quotient(d, a)
        i += 1
    return out


def _sturm_sequence(nums: Sequence[int]) -> list[list[int]]:
    """p, p' and the negated primitive pseudo-remainders: p's Sturm sequence up to scales > 0."""
    seq = [_primitive(nums), _primitive(_derivative(nums))]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in _primitive(r)])
    return seq


def _sign_changes(values: Sequence[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Polynomial, a, b) -> int:
    """Distinct real roots of p in (a, b], for a <= b and p(a) != 0; ValueError otherwise."""
    if p.is_zero:
        raise ValueError("the zero polynomial has infinitely many roots")
    (an, ad), (bn, bd) = _ratio(a), _ratio(b)
    if an * bd > bn * ad:
        raise ValueError(f"empty interval: {a} > {b}")
    if not _homogeneous(p.nums, an, ad):
        raise ValueError(f"the polynomial vanishes at the left end {a}")
    seq = _sturm_sequence(p.nums)
    return (
        _sign_changes([_homogeneous(q, an, ad) for q in seq])
        - _sign_changes([_homogeneous(q, bn, bd) for q in seq])
    )


def nonneg_on_interval(p: Polynomial, a, b) -> bool:
    """Exact decision of p >= 0 everywhere on [a, b].

    Sign changes happen exactly at odd-multiplicity roots, so after checking
    the endpoints it suffices to verify that the odd part of the squarefree
    decomposition has no root strictly inside, then sample one non-root point.
    Every sign is read off an integer, the numerators at a point's numerator
    and positive denominator (_homogeneous).
    """
    (an, ad), (bn, bd) = _ratio(a), _ratio(b)
    if an * bd > bn * ad:
        raise ValueError("empty interval")
    if p.is_zero:
        return True
    if _homogeneous(p.nums, an, ad) < 0 or _homogeneous(p.nums, bn, bd) < 0:
        return False
    if an * bd == bn * ad:
        return True
    odd = [1]
    for factor, mult in _squarefree(p.nums):
        if mult % 2 == 1:
            odd = _convolve(odd, factor)
    for p_end, q_end in ((an, ad), (bn, bd)):  # an end root in lowest terms, divided out
        while len(odd) > 1 and not _homogeneous(odd, p_end, q_end):
            odd = _exact_quotient(odd, [-p_end, q_end])
    if len(odd) > 1 and count_roots(Polynomial.from_ints(odd), a, b) > 0:
        return False
    # no interior sign change: one non-root sample decides the sign
    m = p.degree + 3
    for k in range(1, m):
        # a + (b - a) k / m over the positive denominator ad bd m
        val = _homogeneous(p.nums, an * bd * (m - k) + bn * ad * k, ad * bd * m)
        if val:
            return val > 0
    raise InvariantViolation("nonzero polynomial vanished at more points than its degree")


# --------------------------------------------------------------------------
# piecewise polynomials
# --------------------------------------------------------------------------

class PiecewisePolynomial(Record):
    """Piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    Continuity across breakpoints is enforced at construction unless the
    object is built with `continuous=False` (used for densities, which may
    jump at chamber walls).
    """

    _fields = ("breakpoints", "pieces", "continuous")
    _compared = ("breakpoints", "pieces")

    def __init__(self, breakpoints: tuple[Fraction, ...], pieces: tuple[Polynomial, ...],
                 continuous: bool = True) -> None:
        fields = self.__dict__
        fields["breakpoints"] = bps = tuple(Fraction(b) for b in breakpoints)
        fields["pieces"] = pieces
        fields["continuous"] = continuous
        if len(bps) != len(pieces) + 1:
            raise ValueError("need exactly one piece per breakpoint interval")
        if any(x >= y for x, y in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if continuous:
            for x, left, right in zip(bps[1:], pieces, pieces[1:]):
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
def _ray(d: ToricDivisor) -> tuple[ToricDivisor, Fraction]:
    """(D0, c) with D = c D0, c > 0 and D0 the primitive integral divisor on D's ray.

    Memoized per divisor, so every curve of one direction splits it once and
    equal directions share one D0 object.  A zero D has no ray and raises
    ZeroDivisor on every call.
    """
    if d.is_zero:
        raise ZeroDivisor("direction divisor is zero")
    g = math.gcd(*d.nums)
    return ToricDivisor._of(d.fan, [a // g for a in d.nums], 1), Fraction(g, d.den)


@lru_cache(maxsize=None)
def divisor_family(fan: Fan, l: ToricDivisor, d: ToricDivisor) -> ParametricPolytope:
    """The parametric section polytope family of t -> L - tD from t = 0 to its threshold.

    Memoized per (fan, L, D).  The library asks for it only along the
    primitive divisor D0 of a direction's ray (_ray): P_{L - t cD0} is
    P_{L - (ct) D0}, so every rescaling of one ray, its volume curve and its
    test curves share a single family and hypograph.  Its rows are (u_rho,
    L_rho, D_rho) over q = lcm(L.den, D.den), read off the numerators.  L and
    D must live on the fan (DimensionMismatch).
    """
    _check_fan(fan, l)
    _check_fan(fan, d)
    q = math.lcm(l.den, d.den)
    a, c = q // l.den, q // d.den
    rows = [(u, a * x, c * y) for u, x, y in zip(fan.rays, l.nums, d.nums)]
    return ParametricPolytope.from_rows(rows, q, fan.dimension)


# ---- the closed form on knotted simplices ------------------------------------

def _divided_difference(knots: Sequence[int], taylor) -> tuple[int, int]:
    """The divided difference [k_0, ..., k_m] of a function given by its Taylor coefficients.

    taylor(s, j) is the function's j-th Taylor coefficient at the knot s, an
    integer.  Where j - i + 1 sorted knots coincide at s, the confluent entry
    is taylor(s, j - i).  Returns an integer over a positive denominator that
    depends on the knots alone.
    """
    m = len(knots)
    nums = [taylor(s, 0) for s in knots]
    dens = [1] * m
    for k in range(1, m):
        # entry i of order k overwrites entry i of order k - 1, which only entry i - 1 reads
        for i in range(m - k):
            a, b = knots[i], knots[i + k]
            if a == b:
                nums[i], dens[i] = taylor(a, k), 1
            else:
                nums[i] = nums[i + 1] * dens[i] - nums[i] * dens[i + 1]
                dens[i] *= dens[i + 1] * (b - a)
    return nums[0], dens[0]


def _chamber_sum(knotted, q: int, chamber: Chamber, k: int) -> Polynomial:
    """c -> sum |det| [h](s - q c)_+^k / q^k over (|det|, sorted integer heights h) on a chamber.

    With k + 1 heights, a term is the part of its simplex at height >= c;
    with more, as over a hypograph or its facets, the slice at c.  A height
    strictly inside the chamber raises InvariantViolation.  A simplex wholly
    below the chamber adds 0, and one wholly above it |det| with k + 1
    heights and 0 with more.  Across it, the C^j coefficient of
    [h](s - C)_+^k is the divided difference of binom(k, j) (-1)^j s^(k-j)
    above the chamber, 0 below it.  The heights are integers, so
    floor(q lo) and ceil(q hi) order them as the chamber's ends do.
    """
    lo, hi = math.floor(chamber.lo * q), math.ceil(chamber.hi * q)

    def coefficient(j: int):
        # the Taylor coefficients of s -> binom(k, j) (-1)^j s^(k-j) at heights >= hi, 0 below
        c, m = (-1) ** j * math.comb(k, j), k - j
        return lambda s, i: 0 if s < hi or i > m else c * math.comb(m, i) * s ** (m - i)

    taylors = [coefficient(j) for j in range(k + 1)]
    total, den = [0] * (k + 1), 1
    for d, hs in knotted:
        if hs[-1] <= lo:
            continue
        if hs[0] >= hi:
            if len(hs) == k + 1:
                total[0] += d * den
            continue
        if hs[bisect.bisect_right(hs, lo)] < hi:  # the least height above lo
            raise InvariantViolation(
                f"a vertex height lies inside the chamber [{chamber.lo}, {chamber.hi}]"
            )
        dds = [_divided_difference(hs, taylor) for taylor in taylors]
        dd_den = dds[0][1]  # the same for every coefficient: it depends on the knots alone
        common = math.lcm(den, dd_den)
        up, scale = common // den, d * (common // dd_den)
        total = [t * up + scale * num for t, (num, _den) in zip(total, dds)]
        den = common
    return Polynomial.from_ints([t * q**j for j, t in enumerate(total)], den * q**k)


def _below_top(knotted, q: int, top: Fraction, k: int) -> tuple[int, int]:
    """sum |det| (1 - [h](s - q top)_+^k) / q^k over (|det|, k + 1 sorted integer heights h).

    Each term is the part of its simplex below the height top.  A simplex
    wholly below it adds |det| and one wholly above it 0; across it the
    divided difference is evaluated at the number q top = p / r, with
    (s - p/r)^k = (r s - p)^k / r^k.  Returns an integer over a positive
    denominator.
    """
    g = math.gcd(top.numerator * q, top.denominator)  # q top = p / r in lowest terms
    p, r = top.numerator * q // g, top.denominator // g

    def power(s: int, i: int) -> int:
        # binom(k, i) r^i (r s - p)^(k - i), the i-th Taylor coefficient of (r s - p)_+^k
        return math.comb(k, i) * r**i * (r * s - p) ** (k - i) if r * s > p and i <= k else 0

    total, den = 0, 1
    for d, hs in knotted:
        if hs[-1] * r <= p:
            total += d * den
        elif hs[0] * r < p:
            num, dd_den = _divided_difference(hs, power)
            part_den = dd_den * r**k
            common = math.lcm(den, part_den)
            total = total * (common // den) + d * (part_den - num) * (common // part_den)
            den = common
    return total, den * q**k


def chamber_volume_polynomial(pp: ParametricPolytope, chamber: Chamber) -> Polynomial:
    """Exact volume polynomial on one chamber, in closed form on the family's hypograph.

    P_t is the slice at t of the family's (n+1)-polytope Q (pp.hypograph),
    triangulated once per family.  Over each simplex S of Q, with vertex heights h_S, n!
    times the volume of its slice at t is |det S| times the divided
    difference [h_S] of s -> (s - t)_+^n (Curry-Schoenberg), one polynomial
    in t between consecutive heights of Q.  Every height of Q is a wall of
    the family, so none may lie strictly inside the chamber.  The result is
    checked (_checked) against the degree bound n = the family's dimension
    and an independent volume a third of the way in.
    """
    n, hypograph = pp.dimension, pp.hypograph
    poly = _chamber_sum(hypograph.simplices, hypograph.den, chamber, n)
    return _checked(poly, chamber, pp.rows, pp.q, n).scale(Fraction(1, math.factorial(n)))


def _checked(poly: Polynomial, chamber: Chamber, rows: Sequence[FamilyRow], q: int, n):
    """poly, n! * volume(P_t) on the chamber, checked; a failure raises InvariantViolation.

    P_t is {<a, x> + (b - t c) / q >= 0} for the family's rows (a, b, c).
    poly's degree is at most n, and a third of the way in, at x = p / r, it
    is the volume of the slice there, enumerated and triangulated afresh:
    the integer rows (a, b r - p c) over q r.
    """
    x = chamber.sample_points(2)[0]  # a third of the way in: neither the midpoint nor an end
    p, r = x.numerator, x.denominator
    check = normalized_volume([(a, b * r - p * c) for a, b, c in rows], q * r, n)
    if poly.degree > n or poly(x) != check:
        raise InvariantViolation(
            f"volume is not the symbolic polynomial on the chamber [{chamber.lo}, {chamber.hi}]"
        )
    return poly


def family_volume_curve(pp: ParametricPolytope) -> PiecewisePolynomial:
    """Piecewise polynomial of t -> n! * volume(P_t) on [0, t_max], n = pp.dimension."""
    scale = math.factorial(pp.dimension)
    pieces = [chamber_volume_polynomial(pp, chamber).scale(scale) for chamber in pp.chambers]
    return PiecewisePolynomial.merged([pp.chambers[0].lo, *(ch.hi for ch in pp.chambers)], pieces)


@lru_cache(maxsize=None)
def ray_volume_curve(
    fan: Fan, l: ToricDivisor, d0: ToricDivisor
) -> tuple[PiecewisePolynomial, Fraction]:
    """volume_curve along a ray's primitive divisor D0 (_ray): the curve and tau+ of L - tD0.

    Memoized per (fan, L, D0); a failed check is not cached and raises again.
    """
    if not d0.is_effective:
        raise ZeroDivisor("direction divisor must be effective")
    if not is_ample(fan, l):
        raise NotAmple("polarization is not big and nef")
    pp = divisor_family(fan, l, d0)
    curve = family_volume_curve(pp)
    if not curve.is_nonincreasing():
        raise NotMonotone("volume curve must be non-increasing")
    return curve, pp.t_max


def volume_curve(
    fan: Fan, l: ToricDivisor, d: ToricDivisor
) -> tuple[PiecewisePolynomial, Fraction]:
    """Exact t -> vol(L - tD) on [0, tau+], plus the pseudo-effective threshold.

    L must pass the polarization check (full-dimensional nef-saturated
    polytope); D must be effective and nonzero, which forces tau+ < infinity.
    With D = c D0 on its ray (_ray), vol(L - tD) = vol(L - (ct) D0): the curve
    is D0's (ray_volume_curve, where every check runs) with t -> ct, its
    breakpoints and tau+ divided by c and each piece dilated.
    """
    d0, c = _ray(d)
    curve, t_max = ray_volume_curve(fan, l, d0)
    if c == 1:
        return curve, t_max
    breakpoints = tuple(b / c for b in curve.breakpoints)
    return PiecewisePolynomial(breakpoints, tuple(p.dilate(c) for p in curve.pieces)), t_max / c


def positive_pairing(fan: Fan, m: ToricDivisor, lprime: ToricDivisor) -> Fraction:
    """The positive product <M^{n-1}> . L' = sum_i L'_i f_i over the facets of P_M.

    f_i is (n-1)! times the lattice volume of the facet of P_M on ray i, and 0
    where that face is not a facet.  The sum is (1/n) d/ds vol(M + sL') at
    s = 0+ (Boucksom-Favre-Jonsson).  The facet volumes are checked against
    Euler's identity sum_i M_i f_i = vol(M), the facets triangulated apart
    from the full polytope, all from one incidence table of P_M; a failure
    raises InvariantViolation.
    """
    _check_fan(fan, lprime)
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
