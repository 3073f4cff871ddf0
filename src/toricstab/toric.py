"""Fans, toric divisors, log discrepancies, star subdivisions, intersections.

All varieties are given by complete simplicial fans in N = Z^n.  Divisors are
rational coefficient vectors indexed by rays.  Each maximal cone's det and
dual basis m_j come from one elimination, in one table per fan (_cone_duals);
on the cone, A = sum_j m_j and a divisor's vertex is -sum_j a_j m_j.
The polarization checks read only these cone vertices m_sigma: on a complete
fan D is nef exactly when every m_sigma lies in P_D, and P_D is then the hull
of the m_sigma (Cox-Little-Schenck, Toric Varieties, ch. 6), so no
section polytope is built for them; nefness and the rank test run in one
integer pass over the m_sigma over one common denominator.
Intersection numbers of any n divisors, nef or not, come from the fan's
intersection ring (Fulton, Introduction to Toric Varieties, 5.1): each class
is moved off the rays of one fixed maximal cone by linear equivalence, and the
products of ray divisors that remain are read off the cones, with repeated
rays removed the same way; the reduction and the expansion run in integers.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
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
    NotPseudoEffective,
    ZeroVector,
)
from .geometry import (
    Halfspace,
    LatticeVector,
    Point,
    Polytope,
    _bareiss,
    _int_affine_rank,
    _over_lcm,
    content,
    extreme_rays,
    int_rows,
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


def _nef_vertices(fan: Fan, coeffs: Sequence) -> tuple[list[LatticeVector], int] | None:
    """Each maximal cone's m_sigma as integers over one den, in `max_cones` order, if D is nef.

    m_sigma = -sum_j a_j m_j is the point with <m_sigma, u_rho> = -a_rho on
    the cone's rays.  With the a_j integers over c and den = c lcm |det
    sigma|, den m_sigma is read off _cone_duals in integers.  D is nef
    exactly when, for every ray rho, the least <den m_sigma, u_rho> over the
    cones is -a_rho den.  None when D is not nef, when a cone is missing from
    the table, or when the fan has no cone.
    """
    duals = _cone_duals(fan)
    entries = [duals.get(cone) for cone in fan.max_cones]
    if not entries or None in entries:
        return None
    nums, c = _over_lcm(coeffs)
    scale = math.lcm(*(d for d, _ws in entries))
    vertices = []
    for cone, (d, ws) in zip(fan.max_cones, entries):
        a = [-(scale // d) * nums[i] for i in cone]
        vertices.append(tuple(sum(map(mul, a, column)) for column in zip(*ws)))
    for u, a in zip(fan.rays, nums):
        if min(sum(map(mul, m, u)) for m in vertices) != -a * scale:
            return None
    return vertices, c * scale


class ToricDivisor(Record):
    """A rational divisor: one coefficient per ray of a fixed fan; its hash is computed once."""

    _fields = ("fan", "coeffs")

    def __init__(self, fan: Fan, coeffs: tuple[Fraction, ...]) -> None:
        fields = self.__dict__
        fields["fan"] = fan
        fields["coeffs"] = coeffs

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.fan, self.coeffs))

    @classmethod
    def make(cls, fan: Fan, coeffs: Sequence) -> ToricDivisor:
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != len(fan.rays):
            raise DimensionMismatch("one coefficient per ray required")
        return cls(fan, cs)

    def __add__(self, other: ToricDivisor) -> ToricDivisor:
        self._check(other)
        return ToricDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: ToricDivisor) -> ToricDivisor:
        self._check(other)
        return ToricDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> ToricDivisor:
        return ToricDivisor(self.fan, tuple(-a for a in self.coeffs))

    def scale(self, c) -> ToricDivisor:
        c = Fraction(c)
        return ToricDivisor(self.fan, tuple(c * a for a in self.coeffs))

    def _check(self, other: ToricDivisor) -> None:
        if other.fan != self.fan:
            raise DimensionMismatch("divisors live on different fans")

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def reduced(self) -> ToricDivisor:
        """Same support, all nonzero coefficients set to 1."""
        return ToricDivisor(
            self.fan, tuple(Fraction(1) if c != 0 else Fraction(0) for c in self.coeffs)
        )


def divisor(fan: Fan, coeffs: Sequence) -> ToricDivisor:
    return ToricDivisor.make(fan, coeffs)


def zero_divisor(fan: Fan) -> ToricDivisor:
    return ToricDivisor.make(fan, [0] * len(fan.rays))


def anticanonical(fan: Fan) -> ToricDivisor:
    return ToricDivisor.make(fan, [1] * len(fan.rays))


def ray_divisor(fan: Fan, index: int) -> ToricDivisor:
    coeffs = [0] * len(fan.rays)
    coeffs[index] = 1
    return ToricDivisor.make(fan, coeffs)


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

    proper = True
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

def section_halfspaces(fan: Fan, coeffs: Sequence) -> list[Halfspace]:
    """The halfspaces <m, u_rho> >= -a_rho cutting out a divisor's section polytope."""
    return [Halfspace(u, a) for u, a in zip(fan.rays, coeffs)]


@lru_cache(maxsize=None)
def _polytope_cached(fan: Fan, coeffs: tuple[Fraction, ...]) -> Polytope:
    return Polytope.from_rows(*int_rows(fan.rays, coeffs), fan.dimension)


def polytope_of(fan: Fan, d: ToricDivisor) -> Polytope:
    """Section polytope {m : <m, u_rho> >= -a_rho}; may be empty."""
    return _polytope_cached(fan, d.coeffs)


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
    return _nef_vertices(fan, d.coeffs) is not None


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
    found = _nef_vertices(fan, d.coeffs)
    return found is not None and _int_affine_rank(found[0]) == fan.dimension


def is_strictly_ample(fan: Fan, d: ToricDivisor) -> bool:
    """Ample in the strict sense: `is_ample` with one distinct cone vertex per maximal cone.

    The fan must be complete.
    """
    if not is_ample(fan, d):
        return False
    vertices, _den = _nef_vertices(fan, d.coeffs)
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
        if d.fan != fan:
            raise DimensionMismatch("divisor lives on a different fan")
        return ToricDivisor(new_fan, d.coeffs + (-support_value(fan, d, u),))

    k_rel = ToricDivisor(
        new_fan, (Fraction(0),) * new_index + (a_new - 1,)
    )
    return new_fan, pullback, k_rel


# --------------------------------------------------------------------------
# intersection numbers and Zariski decomposition
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ray_monomial(fan: Fan, rays: tuple[int, ...]) -> Fraction:
    """The product D_{i_1} ... D_{i_n} of ray divisors, for a sorted multiset of indices.

    Distinct rays spanning a cone sigma give 1/|det sigma| and distinct rays in
    no common cone give 0.  A repeated ray i of a cone sigma holding all the
    rays is replaced by the linearly equivalent -sum_{rho not in sigma}
    <m_i, u_rho> D_rho, m_i being sigma's dual basis vector for u_i
    (_cone_duals); every term has one more distinct ray, so the recursion ends.
    """
    distinct = set(rays)
    cone = next((c for c in fan.max_cones if distinct <= set(c)), None)
    if cone is None:
        return Fraction(0)
    entry = _cone_duals(fan).get(cone)
    if entry is None:
        raise DimensionMismatch(f"cone {cone} is not a full-dimensional simplicial cone")
    d, duals = entry
    if len(distinct) == len(rays):
        return Fraction(1, abs(d))
    repeated = next(i for i in rays if rays.count(i) > 1)
    w = duals[cone.index(repeated)]
    rest = list(rays)
    rest.remove(repeated)
    total = Fraction(0)
    for rho, u in enumerate(fan.rays):
        c = 0 if rho in cone else sum(map(mul, w, u))
        if c != 0:
            total -= Fraction(c, d) * _ray_monomial(fan, tuple(sorted(rest + [rho])))
    return total


@lru_cache(maxsize=None)
def _reference_cone(
    fan: Fan,
) -> tuple[tuple[int, ...], int, tuple[tuple[int, LatticeVector], ...]]:
    """The first cone of _cone_duals, sigma, its determinant d and integer duals on the other rays.

    The dual basis m_j has <m_j, u_k> = 1 for the j-th ray k of sigma and 0
    on its other rays; each ray rho outside sigma comes with the integer row
    (d <m_j, u_rho>)_j.  Memoized per fan.
    """
    duals = _cone_duals(fan)
    if not duals:
        raise DimensionMismatch("the fan has no full-dimensional simplicial cone")
    cone, (d, ws) = next(iter(duals.items()))
    rest = tuple(
        (rho, tuple(sum(map(mul, w, u)) for w in ws))
        for rho, u in enumerate(fan.rays)
        if rho not in cone
    )
    return cone, d, rest


def _power_terms(support: Sequence[tuple[int, int]], k: int) -> dict[tuple[int, ...], int]:
    """(sum_rho c_rho D_rho)^k as {sorted rays: integer coefficient}, with multinomial weights."""
    terms = {}
    for combo in itertools.combinations_with_replacement(support, k):
        rays = tuple(rho for rho, _c in combo)
        weight = math.factorial(k)
        for _rho, run in itertools.groupby(rays):
            weight //= math.factorial(len(list(run)))
        for _rho, c in combo:
            weight *= c
        terms[rays] = weight
    return terms


def intersection_number(
    fan: Fan,
    divisors: Sequence[ToricDivisor],
    ample_ref: ToricDivisor | None = None,
) -> Fraction:
    """Exact intersection number of n divisor classes in the fan's intersection ring.

    Each class is first moved off the rays of one fixed maximal cone sigma
    (`_reference_cone`): D - div chi^m, with <m, u_j> = D_j on sigma's rays,
    is linearly equivalent to D and supported on the other k - n rays.  In
    integers: with D's coefficients over their common denominator c and
    sigma's determinant d, the reduced coefficients are integers over c d,
    read off sigma's integer duals.  Equal classes are grouped, a class
    repeated j times contributing its j-th power with multinomial weights,
    and the product is expanded multilinearly over the reduced supports
    into integer coefficients grouped by ray monomial (`_ray_monomial`), so
    no argument needs to be nef.  One Fraction is built at the end.
    `ample_ref` is accepted for old callers and ignored.
    """
    n = fan.dimension
    if len(divisors) != n:
        raise DimensionMismatch(f"need exactly {n} divisors")
    for d in divisors:
        if d.fan != fan:
            raise DimensionMismatch("divisor lives on a different fan")
    cone, det, rest = _reference_cone(fan)
    terms: dict[tuple[int, ...], int] = {(): 1}
    den = 1
    classes = Counter((tuple(nums), c) for nums, c in (_over_lcm(d.coeffs) for d in divisors))
    for (nums, c), k in classes.items():
        on_cone = [nums[i] for i in cone]
        reduced = ((rho, nums[rho] * det - sum(map(mul, on_cone, row))) for rho, row in rest)
        power = _power_terms([(rho, r) for rho, r in reduced if r], k)
        den *= (c * det) ** k
        grouped: dict[tuple[int, ...], int] = defaultdict(int)
        for rays, x in terms.items():
            for more, y in power.items():
                grouped[tuple(sorted(rays + more))] += x * y
        terms = grouped
    values, mono_den = _over_lcm([_ray_monomial(fan, rays) for rays in terms])
    return Fraction(sum(map(mul, terms.values(), values)), den * mono_den)


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
