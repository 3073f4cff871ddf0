"""Fans, toric divisors, log discrepancies, star subdivisions, intersections.

All varieties are given by complete simplicial fans in N = Z^n.  A divisor is
integer numerators, one per ray, over one positive denominator in lowest
terms.  Each maximal cone's det and dual basis m_j come from one elimination,
in one table per fan (_cone_duals); on the cone, A = sum_j m_j and a divisor's
vertex is -sum_j a_j m_j.  The polarization checks read only these cone
vertices m_sigma: on a complete fan D is nef exactly when every m_sigma lies
in P_D, and P_D is then the hull of the m_sigma (Cox-Little-Schenck, Toric
Varieties, ch. 6), so no section polytope is built for them; nefness and the
rank test run in one integer pass over the m_sigma over one common
denominator.  One localization sum over the maximal cones (_localized) reads
the classes' cone vertices at a generic direction xi and its n shifts
xi + e_j, whose dots with the dual bases are memoized per fan and direction
(_localization, so an intersection number builds xi's alone), in integers over
one denominator: it gives intersection numbers of any n classes, nef or not
(intersection_number), and a nef D's volume and first moments
(localized_moments), with no vertex enumeration and no triangulation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from types import MappingProxyType

from ._record import Record
from .errors import (
    AlreadyARay,
    DimensionMismatch,
    InvariantViolation,
    NonPrimitive,
    NotAmple,
    NotPseudoEffective,
    ZeroVector,
)
from .geometry import (
    LatticeVector,
    Point,
    Polytope,
    _bareiss,
    _int_affine_rank,
    _over_lcm,
    content,
    extreme_rays,
    is_primitive,
)


class Fan(Record):
    """A complete simplicial fan: primitive rays, maximal cones by ray index; its hash is computed once."""

    _fields = ("rays", "max_cones", "dimension")

    def __init__(self, rays: tuple[LatticeVector, ...], max_cones: tuple[tuple[int, ...], ...],
                 dimension: int) -> None:
        fields = self.__dict__
        fields["rays"] = rays
        # canonical cone order, so structurally equal fans compare equal
        fields["max_cones"] = tuple(sorted(set(tuple(sorted(c)) for c in max_cones)))
        fields["dimension"] = dimension

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.rays, self.max_cones, self.dimension))

    @classmethod
    def make(cls, rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]]) -> Fan:
        rays_t = tuple(tuple(int(a) for a in r) for r in rays)
        if not rays_t:
            raise ValueError("a fan needs at least one ray")
        dim = len(rays_t[0])
        if any(len(r) != dim for r in rays_t):
            raise DimensionMismatch("rays of mixed dimension")
        cones_t = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
        for cone in cones_t:
            if any(i < 0 or i >= len(rays_t) for i in cone):
                raise ValueError(f"cone {cone} references a missing ray")
        return cls(rays_t, cones_t, dim)

    def cone_rays(self, cone: tuple[int, ...]) -> list[LatticeVector]:
        return [self.rays[i] for i in cone]

    def cone_coordinates(self, cone: tuple[int, ...], u: Sequence) -> Point | None:
        """Coordinates <m_j, u> of u in a maximal cone's ray basis, or None if u is outside.

        `cone` must be one of `max_cones`.  The dual basis m_j comes from
        _cone_duals; a cone without n independent rays contains nothing.
        """
        entry = _cone_duals(self).get(cone)
        if entry is None:
            return None
        d, duals = entry
        dots = [sum(map(mul, w, u)) for w in duals]
        if any(x * d < 0 for x in dots):
            return None
        return tuple(Fraction(x, d) for x in dots)

    def containing_cone(self, u: Sequence) -> tuple[tuple[int, ...], Point]:
        cone, d, dots = _locate(self, u)
        return cone, tuple(Fraction(x, d) for x in dots)


def _locate(fan: Fan, u: Sequence) -> tuple[tuple[int, ...], int, list[int]]:
    """The first cone of _cone_duals holding u, its det d and the integers d <m_j, u>."""
    if len(u) != fan.dimension:
        raise DimensionMismatch(
            f"{tuple(u)} has {len(u)} coordinates; the fan has dimension {fan.dimension}"
        )
    for cone, (d, duals) in _cone_duals(fan).items():
        dots = []
        for w in duals:
            dots.append(sum(map(mul, w, u)))
            if dots[-1] * d < 0:
                break
        else:
            return cone, d, dots
    raise ZeroVector(f"{tuple(u)} lies outside the support of the fan")


@lru_cache(maxsize=None)
def _cone_duals(fan: Fan) -> Mapping[tuple[int, ...], tuple[int, tuple[LatticeVector, ...]]]:
    """Per maximal cone with n independent rays: det M and the integer vectors det M * m_j.

    M has the cone's rays as rows and <m_j, u_k> = [j = k] on them, so m_j is
    column j of M^-1.  Eliminating [M | I] leaves pivot * M^-1 on the right,
    with pivot = sign * det M.  Cones keep the order of `max_cones`.
    Memoized per fan, and read-only.
    """
    n = fan.dimension
    table = {}
    for cone in fan.max_cones:
        if len(cone) != n:
            continue
        m = [[*ray, *(int(i == j) for i in range(n))] for j, ray in enumerate(fan.cone_rays(cone))]
        pivots, pivot, sign = _bareiss(m, n)
        if len(pivots) == n:
            duals = tuple(tuple(sign * row[n + j] for row in m) for j in range(n))
            table[cone] = (sign * pivot, duals)
    return MappingProxyType(table)


def _nef_vertices(fan: Fan, d: ToricDivisor) -> tuple[list[LatticeVector], int] | None:
    """Each maximal cone's m_sigma as integers over one den, in `max_cones` order, if D is nef.

    m_sigma = -sum_j a_j m_j is the point with <m_sigma, u_rho> = -a_rho on
    the cone's rays.  With the a_j D's numerators over its den c and den = c
    lcm |det sigma|, den m_sigma is read off _cone_duals in integers.  D is nef
    exactly when, for every ray rho, the least <den m_sigma, u_rho> over the
    cones is -a_rho den.  None when D is not nef, when a cone is missing from
    the table, or when the fan has no cone.
    """
    duals = _cone_duals(fan)
    entries = [duals.get(cone) for cone in fan.max_cones]
    if not entries or None in entries:
        return None
    scale = math.lcm(*(det for det, _ws in entries))
    vertices = []
    for cone, (det, ws) in zip(fan.max_cones, entries):
        a = [-(scale // det) * d.nums[i] for i in cone]
        vertices.append(tuple(sum(map(mul, a, column)) for column in zip(*ws)))
    for u, a in zip(fan.rays, d.nums):
        if min(sum(map(mul, m, u)) for m in vertices) != -a * scale:
            return None
    return vertices, d.den * scale


@lru_cache(maxsize=None)
def _localization(fan: Fan, k: int) -> tuple[int, int, tuple[tuple, ...]]:
    """S = lcm |d_sigma| and _direction's table at xi_k: xi_0 = xi, each xi_(j+1) = xi + e_j.

    The localization identity (Brion, "Points entiers dans les polyedres
    convexes", Ann. Sci. ENS 1988; Edidin-Graham, "Localization in
    equivariant intersection theory and the Bott residue formula", Amer. J.
    Math. 1998): a class D restricts to the fixed point of a maximal cone
    sigma as its cone vertex m_sigma(D) = -sum_j a_{sigma_j} m_j, and for an
    integer xi with every x_{sigma,j} = <xi, w_j> nonzero, on the generators
    w_j = d_sigma m_j of _cone_duals, classes D with multiplicities p_D
    totalling p give

        sum_sigma prod_D <xi, m_sigma(D)>^(p_D) d_sigma^n / T_sigma,
        T_sigma = |d_sigma| prod_j -x_{sigma,j},

    which is D_1 ... D_n for p = n, and (n + 1)! int_{P_D} <xi, x> dx for a
    nef D to the power n + 1: the degree n + 1 part of int_{P_D} e^<xi, x>
    dx, summed over P_D's tangent cones at the m_sigma.  Both sides are
    polynomial in D on the nef cone, so cones that share a vertex, as on a
    pulled-back class, each keep their term.  _localized runs the sum.

    xi = (1, M, ..., M^(n-1)) with M = 2W + 3, W the largest |entry| of the
    w_j, is generic, and so is each xi + e_j: let w_i be the last nonzero
    entry of a w; then |w_i (xi + e_j)_i| >= M^i, the entries below i add at
    most W (M^i - 1) / (M - 1) < M^i / 2, and a shift j < i adds at most
    W < M / 2 <= M^i / 2 more.  A maximal cone that is not full-dimensional
    and simplicial raises DimensionMismatch.  Memoized per (fan, k), so
    intersection numbers build xi's table alone.
    """
    duals = _cone_duals(fan)
    for cone in fan.max_cones:
        if cone not in duals:
            raise DimensionMismatch(f"cone {cone} is not a full-dimensional simplicial cone")
    if not duals:
        raise DimensionMismatch("the fan has no full-dimensional simplicial cone")
    m = 2 * max(abs(a) for _d, ws in duals.values() for w in ws for a in w) + 3
    xi = [m**i for i in range(fan.dimension)]
    if k:
        xi[k - 1] += 1
    return math.lcm(*(d for d, _ws in duals.values())), *_direction(fan, xi)


def _direction(fan: Fan, xi: Sequence[int]) -> tuple[int, tuple[tuple, ...]]:
    """At one xi: L = lcm T_sigma and, per maximal cone, (sigma, d_sigma, x_sigma, L / T_sigma).

    Cones keep the order of _cone_duals.  A zero x_{sigma,j} raises
    InvariantViolation.
    """
    cones = []
    for cone, (d, ws) in _cone_duals(fan).items():
        xs = tuple(sum(map(mul, xi, w)) for w in ws)
        if 0 in xs:
            raise InvariantViolation(
                f"xi = {tuple(xi)} is orthogonal to the cone generator {ws[xs.index(0)]}"
            )
        cones.append((cone, d, xs, abs(d) * math.prod(-x for x in xs)))
    lcm_t = math.lcm(*(t for *_cone, t in cones))
    return lcm_t, tuple((cone, d, xs, lcm_t // t) for cone, d, xs, t in cones)


def _localized(fan: Fan, classes: Mapping[ToricDivisor, int], k: int) -> Fraction:
    """_localization's sum at xi_k over classes whose multiplicities p_D total p = n or n + 1.

    With a class's numerators a over its den c, <xi_k, m_sigma(D)> =
    (-sum_j a_{sigma_j} x_{sigma,j}) / (c d_sigma), so the sum runs in
    integers over L_k S^(p - n) prod c^(p_D), and one Fraction is built.
    """
    s, lcm_t, cones = _localization(fan, k)
    extra = sum(classes.values()) - fan.dimension
    total = 0
    for cone, det, xs, weight in cones:
        weight *= (s // det) ** extra
        for d, p in classes.items():
            weight *= (-sum(d.nums[i] * x for i, x in zip(cone, xs))) ** p
        total += weight
    return Fraction(total, lcm_t * s**extra * math.prod(d.den**p for d, p in classes.items()))


def localized_moments(fan: Fan, d: ToricDivisor) -> tuple[int, LatticeVector, int]:
    """n! vol(P_D) and n! int_{P_D} x dx for a nef D, as integers over one denominator.

    By localization over the maximal cones, with no vertex enumeration and
    no triangulation (_localized): n! vol is D^n at xi, and (n + 1)! int
    <xi, x> is linear in xi, so n! int x_j is the difference of the sums
    for D^(n+1) at xi + e_j and at xi, over n + 1.  D must be nef (NotAmple).
    """
    if not is_nef(fan, d):
        raise NotAmple("divisor is not nef")
    n = fan.dimension
    first = _localized(fan, {d: n + 1}, 0)
    moments = [(_localized(fan, {d: n + 1}, j + 1) - first) / (n + 1) for j in range(n)]
    nums, q = _over_lcm([_localized(fan, {d: n}, 0), *moments])
    return nums[0], tuple(nums[1:]), q


class ToricDivisor(Record):
    """A rational divisor on a fixed fan: integer numerators `nums`, one per ray, over one `den`.

    `nums` over `den > 0` in lowest terms is its one form, as Polynomial's:
    equality reads it, and arithmetic runs on it in integers (_of).  `coeffs`,
    the Fraction coefficients, and the hash of (fan, coeffs) are derived once.
    The constructor takes one rational per ray (DimensionMismatch).
    """

    _fields = ("fan", "coeffs")
    _compared = ("fan", "nums", "den")

    def __init__(self, fan: Fan, coeffs: Sequence) -> None:
        if len(coeffs) != len(fan.rays):
            raise DimensionMismatch("one coefficient per ray required")
        self._assign(fan, *_over_lcm([Fraction(c) for c in coeffs]))

    @classmethod
    def _of(cls, fan: Fan, nums: Sequence[int], den: int) -> ToricDivisor:
        """nums[i] / den on ray i, for integers nums and a positive integer den."""
        d = object.__new__(cls)
        d._assign(fan, nums, den)
        return d

    def _assign(self, fan: Fan, nums: Sequence[int], den: int) -> None:
        g = math.gcd(den, *nums)
        fields = self.__dict__
        fields["fan"] = fan
        fields["nums"] = tuple(a // g for a in nums)
        fields["den"] = den // g

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.fan, self.coeffs))

    @classmethod
    def make(cls, fan: Fan, coeffs: Sequence) -> ToricDivisor:
        return cls(fan, tuple(coeffs))

    def __add__(self, other: ToricDivisor) -> ToricDivisor:
        _check_fan(self.fan, other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return ToricDivisor._of(self.fan, [a * x + b * y for x, y in zip(self.nums, other.nums)], den)

    def __sub__(self, other: ToricDivisor) -> ToricDivisor:
        return self + -other

    def __neg__(self) -> ToricDivisor:
        return ToricDivisor._of(self.fan, [-a for a in self.nums], self.den)

    def scale(self, c) -> ToricDivisor:
        c = Fraction(c)
        return ToricDivisor._of(self.fan, [c.numerator * a for a in self.nums], c.denominator * self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    @property
    def is_effective(self) -> bool:
        return all(a >= 0 for a in self.nums)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.nums) if a)

    def reduced(self) -> ToricDivisor:
        """Same support, all nonzero coefficients set to 1."""
        return ToricDivisor._of(self.fan, [int(a != 0) for a in self.nums], 1)


def _check_fan(fan: Fan, d: ToricDivisor) -> None:
    """Raise DimensionMismatch unless d lives on fan: an identity test, then equality."""
    if d.fan is not fan and d.fan != fan:
        raise DimensionMismatch("divisor lives on a different fan")


def divisor(fan: Fan, coeffs: Sequence) -> ToricDivisor:
    return ToricDivisor.make(fan, coeffs)


def zero_divisor(fan: Fan) -> ToricDivisor:
    return ToricDivisor._of(fan, [0] * len(fan.rays), 1)


def anticanonical(fan: Fan) -> ToricDivisor:
    return ToricDivisor._of(fan, [1] * len(fan.rays), 1)


def ray_divisor(fan: Fan, index: int) -> ToricDivisor:
    nums = [0] * len(fan.rays)
    nums[index] = 1
    return ToricDivisor._of(fan, nums, 1)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

class FanDiagnostics(Record):
    _fields = (
        "is_complete", "is_smooth", "is_simplicial", "all_primitive", "proper_intersections",
        "messages",
    )

    def __init__(self, is_complete: bool, is_smooth: bool, is_simplicial: bool,
                 all_primitive: bool, proper_intersections: bool,
                 messages: tuple[str, ...]) -> None:
        fields = self.__dict__
        fields["is_complete"] = is_complete
        fields["is_smooth"] = is_smooth
        fields["is_simplicial"] = is_simplicial
        fields["all_primitive"] = all_primitive
        fields["proper_intersections"] = proper_intersections
        fields["messages"] = messages

    @property
    def ok(self) -> bool:
        return (
            self.is_complete
            and self.is_simplicial
            and self.all_primitive
            and self.proper_intersections
        )


def validate_fan(fan: Fan) -> FanDiagnostics:
    """Exact completeness / smoothness / primitivity / face-intersection report.

    Each cone's determinant and inward facet normals sign(det) * det * m_j are
    read off _cone_duals.  An extreme ray of sigma_a & sigma_b lies in their
    shared face exactly when its coordinates on sigma_a's rays outside sigma_b vanish.
    A ray on no maximal cone, taken as a cone, meets the maximal cone that
    holds it beyond a common face, so it clears proper_intersections too.
    """
    messages: list[str] = []
    all_primitive = True
    for i, ray in enumerate(fan.rays):
        if content(ray) == 0:
            all_primitive = False
            messages.append(f"ray {i} is zero")
        elif not is_primitive(ray):
            all_primitive = False
            messages.append(f"ray {i} = {ray} is not primitive")

    is_simplicial = True
    is_smooth = True
    n = fan.dimension
    duals = _cone_duals(fan)
    for cone in fan.max_cones:
        if cone not in duals:
            is_simplicial = False
            problem = "is degenerate" if len(cone) == n else f"does not have {n} rays"
            messages.append(f"cone {cone} {problem}")
        elif abs(duals[cone][0]) != 1:
            is_smooth = False
            messages.append(f"cone {cone} has determinant {duals[cone][0]} (not smooth)")

    # wall regularity: every facet of a maximal cone is shared by exactly 2 cones
    is_complete = is_simplicial and bool(fan.max_cones)
    if is_simplicial and fan.max_cones:
        wall_count: dict[tuple[int, ...], int] = {}
        for cone in fan.max_cones:
            for facet in itertools.combinations(cone, n - 1):
                wall_count[facet] = wall_count.get(facet, 0) + 1
        bad = {w: c for w, c in wall_count.items() if c != 2}
        if n == 1:
            # complete 1-dim fans are exactly {R>=0, R<=0}
            is_complete = len(fan.max_cones) == 2
            if not is_complete:
                messages.append("fan does not cover the line")
        elif bad:
            is_complete = False
            for wall, count in sorted(bad.items()):
                messages.append(f"wall {wall} lies on {count} cone(s), fan not complete")

    used = {i for cone in fan.max_cones for i in cone}
    unused = [i for i in range(len(fan.rays)) if i not in used]
    messages.extend(f"ray {i} lies on no maximal cone" for i in unused)
    proper = not unused
    if is_simplicial and n > 1:
        normals = {
            c: [tuple(a if d > 0 else -a for a in w) for w in ws] for c, (d, ws) in duals.items()
        }
        for ca, cb in itertools.combinations(fan.max_cones, 2):
            outside = [w for i, w in zip(ca, duals[ca][1]) if i not in cb]
            for ray in extreme_rays(normals[ca] + normals[cb], n):
                if any(sum(map(mul, w, ray)) for w in outside):
                    proper = False
                    messages.append(
                        f"cones {ca} and {cb} overlap beyond a common face (at {ray})"
                    )
                    break
    return FanDiagnostics(
        is_complete=is_complete,
        is_smooth=is_smooth and is_simplicial,
        is_simplicial=is_simplicial,
        all_primitive=all_primitive,
        proper_intersections=proper,
        messages=tuple(messages),
    )


# --------------------------------------------------------------------------
# polytopes of divisors, nefness, ampleness
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _polytope_cached(fan: Fan, nums: tuple[int, ...], den: int) -> Polytope:
    return Polytope.from_rows(zip(fan.rays, nums), den, fan.dimension)


def polytope_of(fan: Fan, d: ToricDivisor) -> Polytope:
    """Section polytope {m : <m, u_rho> >= -a_rho}; may be empty."""
    _check_fan(fan, d)
    return _polytope_cached(fan, d.nums, d.den)


def support_value(fan: Fan, d: ToricDivisor, u: Sequence) -> Fraction:
    """Value at u of the divisor's piecewise-linear function (phi(u_rho) = -a_rho)."""
    cone, lam = fan.containing_cone(u)
    return sum(
        (lam[j] * -d.coeffs[i] for j, i in enumerate(cone)), Fraction(0)
    )


def is_nef(fan: Fan, d: ToricDivisor) -> bool:
    """Nefness from the cone vertices m_sigma alone, in integers; the fan must be complete.

    The divisor is nef exactly when, for every ray rho, the minimum of
    <m_sigma, u_rho> over the maximal cones is -a_rho (_nef_vertices).
    ">=" puts every m_sigma in P_D, which on a complete fan is nefness, and
    P_D is then the hull of the m_sigma, so "=" is the saturation of each
    ray's halfspace.
    """
    _check_fan(fan, d)
    return _nef_vertices(fan, d) is not None


@lru_cache(maxsize=None)
def is_ample(fan: Fan, d: ToricDivisor) -> bool:
    """Polarization check: nef with a full-dimensional section polytope; the fan must be complete.

    P_D of a nef divisor is the hull of the cone vertices, so it is
    full-dimensional exactly when they have affine rank n.  Both tests run in
    one integer pass over the cone vertices (_nef_vertices).  This accepts
    big and semi-ample classes such as pullbacks of ample divisors, which is
    exactly what the one-parameter constructions need.  Memoized on the
    immutable (fan, divisor) pair.
    """
    _check_fan(fan, d)
    found = _nef_vertices(fan, d)
    return found is not None and _int_affine_rank(found[0]) == fan.dimension


def ample_polytope(fan: Fan, d: ToricDivisor) -> Polytope:
    """P_D of a big and nef class (is_ample); NotAmple otherwise, before anything is built."""
    if not is_ample(fan, d):
        raise NotAmple("polarization is not big and nef")
    return polytope_of(fan, d)


def is_strictly_ample(fan: Fan, d: ToricDivisor) -> bool:
    """Ample in the strict sense: `is_ample` with one distinct cone vertex per maximal cone.

    The fan must be complete.
    """
    if not is_ample(fan, d):
        return False
    vertices, _den = _nef_vertices(fan, d)
    return len(set(vertices)) == len(vertices)


# --------------------------------------------------------------------------
# log discrepancy and star subdivisions
# --------------------------------------------------------------------------

def log_discrepancy(fan: Fan, u: Sequence[int]) -> Fraction:
    """The piecewise-linear function equal to 1 on every primitive ray, at u.

    On u's cone it is sum_j <m_j, u>, off the integer scan containing_cone shares (_locate).
    """
    if all(a == 0 for a in u):
        raise ZeroVector("log discrepancy of the zero vector")
    _cone, d, dots = _locate(fan, u)
    return Fraction(sum(dots), d)


def star_subdivision(
    fan: Fan, u: Sequence[int]
) -> tuple[Fan, Callable[[ToricDivisor], ToricDivisor], ToricDivisor]:
    """Star subdivision at a primitive u: (new fan, pullback map, relative canonical).

    The pullback evaluates the support function of the input divisor at u, so
    section polytopes (hence volumes and intersection numbers) are preserved.
    The relative canonical divisor is supported on the new ray with
    coefficient log_discrepancy(u) - 1.
    """
    u = tuple(int(a) for a in u)
    if all(a == 0 for a in u):
        raise ZeroVector("cannot subdivide at the zero vector")
    if not is_primitive(u):
        raise NonPrimitive(f"{u} is not primitive")
    if u in fan.rays:
        raise AlreadyARay(f"{u} is already a ray")
    new_index = len(fan.rays)
    new_cones: list[tuple[int, ...]] = []
    touched = False
    for cone in fan.max_cones:
        lam = fan.cone_coordinates(cone, u)
        if lam is None:
            new_cones.append(cone)
            continue
        touched = True
        for j, i in enumerate(cone):
            if lam[j] > 0:
                replaced = tuple(sorted(set(cone) - {i} | {new_index}))
                new_cones.append(replaced)
    if not touched:
        raise ZeroVector(f"{u} lies outside the support of the fan")
    new_fan = Fan(fan.rays + (u,), tuple(new_cones), fan.dimension)
    a_new = log_discrepancy(fan, u)

    def pullback(d: ToricDivisor) -> ToricDivisor:
        _check_fan(fan, d)
        return ToricDivisor(new_fan, d.coeffs + (-support_value(fan, d, u),))

    k_rel = ToricDivisor(
        new_fan, (Fraction(0),) * new_index + (a_new - 1,)
    )
    return new_fan, pullback, k_rel


# --------------------------------------------------------------------------
# intersection numbers and Zariski decomposition
# --------------------------------------------------------------------------

def intersection_number(
    fan: Fan,
    divisors: Sequence[ToricDivisor],
    ample_ref: ToricDivisor | None = None,
) -> Fraction:
    """Exact intersection number D_1 ... D_n of n divisor classes, nef or not, by cone localization.

    The sum of _localization at its generic xi over the classes, equal ones
    as powers (_localized); localized_moments' n! vol is its diagonal case
    D^n on a nef class.  `ample_ref` is accepted for old callers and ignored.
    """
    n = fan.dimension
    if len(divisors) != n:
        raise DimensionMismatch(f"need exactly {n} divisors")
    for d in divisors:
        _check_fan(fan, d)
    return _localized(fan, Counter(divisors), 0)


class ZariskiPair(Record):
    """Divisorial Zariski decomposition: movable positive part plus effective negative part."""

    _fields = ("positive", "negative")

    def __init__(self, positive: ToricDivisor, negative: ToricDivisor) -> None:
        fields = self.__dict__
        fields["positive"] = positive
        fields["negative"] = negative


def zariski_decompose(fan: Fan, m: ToricDivisor) -> ZariskiPair:
    """Toric divisorial Zariski decomposition of a pseudo-effective class.

    Positive part coefficients are the negated minima of the section polytope
    against the rays; the difference is the effective negative part.  The positive
    part keeps the input's section polytope; in dimension >= 3 it need not be nef.
    """
    p = polytope_of(fan, m)
    if p.is_empty:
        raise NotPseudoEffective("empty section polytope")
    pos_coeffs = tuple(-p.support_min(u) for u in fan.rays)
    positive = ToricDivisor(fan, pos_coeffs)
    negative = m - positive
    if not negative.is_effective:
        raise InvariantViolation("Zariski negative part must be effective")
    p_positive = polytope_of(fan, positive)
    if (p_positive.points, p_positive.den) != (p.points, p.den):
        raise InvariantViolation("Zariski positive part must have the input's section polytope")
    return ZariskiPair(positive, negative)
