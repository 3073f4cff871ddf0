"""Fans, toric divisors, log discrepancies, star subdivisions, intersections.

All varieties are given by complete simplicial fans in N = Z^n.  Divisors are
rational coefficient vectors indexed by rays.  Intersection numbers of any n
divisors, nef or not, come from the fan's intersection ring (Fulton,
Introduction to Toric Varieties, 5.1): each class is moved off the rays of
one fixed maximal cone by linear equivalence, and the products of ray divisors
that remain are read off the cones, with repeated rays removed the same way.
"""

from __future__ import annotations

import itertools
from math import gcd
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

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
    _eliminate,
    content,
    det,
    dot,
    extreme_rays,
    is_primitive,
    solve_linear,
)


@dataclass(frozen=True)
class Fan:
    """A complete simplicial fan: primitive rays plus maximal cones by ray index."""

    rays: tuple[LatticeVector, ...]
    max_cones: tuple[tuple[int, ...], ...]
    dimension: int

    def __post_init__(self) -> None:
        # canonical cone order, so structurally equal fans compare equal
        object.__setattr__(
            self,
            "max_cones",
            tuple(sorted(set(tuple(sorted(c)) for c in self.max_cones))),
        )

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
        """Coordinates of u in the cone's ray basis, or None if u is outside."""
        if len(cone) != self.dimension:
            return None
        cols = self.cone_rays(cone)
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(self.dimension)]
        lam = solve_linear(rows, list(u))
        if lam is None or any(c < 0 for c in lam):
            return None
        return lam

    def containing_cone(self, u: Sequence) -> tuple[tuple[int, ...], Point]:
        for cone in self.max_cones:
            lam = self.cone_coordinates(cone, u)
            if lam is not None:
                return cone, lam
        raise ZeroVector(f"{tuple(u)} lies outside the support of the fan")


@dataclass(frozen=True)
class ToricDivisor:
    """A rational divisor: one coefficient per ray of a fixed fan."""

    fan: Fan
    coeffs: tuple[Fraction, ...]

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

@dataclass(frozen=True)
class FanDiagnostics:
    is_complete: bool
    is_smooth: bool
    is_simplicial: bool
    all_primitive: bool
    proper_intersections: bool
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.is_complete
            and self.is_simplicial
            and self.all_primitive
            and self.proper_intersections
        )


def _cone_normals(fan: Fan, cone: tuple[int, ...]) -> list[LatticeVector] | None:
    """Inward facet normals of a full-dimensional simplicial cone (rows of M^-1)."""
    n = fan.dimension
    # with the rays as rows, eliminating [M^T | I] leaves pivot * (M^-1)^T on the right
    m = [[*ray, *(int(i == j) for i in range(n))] for j, ray in enumerate(fan.cone_rays(cone))]
    pivots, pivot, _sign, _scale = _eliminate(m, n)
    if len(pivots) < n:
        return None
    out = []
    for i in range(n):
        column = [row[n + i] for row in m]
        # row i of M^-1 is column / pivot; clear its denominators
        g = gcd(pivot, *column)
        g = g if pivot > 0 else -g
        out.append(tuple(c // g for c in column))
    return out


def validate_fan(fan: Fan) -> FanDiagnostics:
    """Exact completeness / smoothness / primitivity / face-intersection report."""
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
    for cone in fan.max_cones:
        if len(cone) != n:
            is_simplicial = False
            is_smooth = False
            messages.append(f"cone {cone} does not have {n} rays")
            continue
        d = det(fan.cone_rays(cone))
        if d == 0:
            is_simplicial = False
            is_smooth = False
            messages.append(f"cone {cone} is degenerate")
        elif abs(d) != 1:
            is_smooth = False
            messages.append(f"cone {cone} has determinant {d} (not smooth)")

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
        for ca, cb in itertools.combinations(fan.max_cones, 2):
            ha = _cone_normals(fan, ca)
            hb = _cone_normals(fan, cb)
            if ha is None or hb is None:
                continue
            common = sorted(set(ca) & set(cb))
            for ray in extreme_rays(ha + hb, n):
                lam = None
                if common:
                    # ray must be a nonnegative combination of the shared rays
                    cols = [fan.rays[i] for i in common]
                    rows = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
                    sol = _nonneg_combination(rows, ray, len(common))
                    lam = sol
                if lam is None:
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


def _nonneg_combination(rows, target, k) -> tuple | None:
    """Solve rows * lam = target with lam >= 0, rows an n x k column system."""
    m = [[*r, t] for r, t in zip(rows, target)]
    pivots, pivot, _sign, _scale = _eliminate(m, k)
    # consistency rows
    if any(row[k] != 0 for row in m[len(pivots):]):
        return None
    lam = [Fraction(0)] * k
    for row, col in zip(m, pivots):
        lam[col] = Fraction(row[k], pivot)
    if any(c < 0 for c in lam):
        return None
    return tuple(lam)


# --------------------------------------------------------------------------
# polytopes of divisors, nefness, ampleness
# --------------------------------------------------------------------------

def section_halfspaces(fan: Fan, coeffs: Sequence) -> list[Halfspace]:
    """The halfspaces <m, u_rho> >= -a_rho cutting out a divisor's section polytope."""
    return [Halfspace(u, a) for u, a in zip(fan.rays, coeffs)]


@lru_cache(maxsize=None)
def _polytope_cached(fan: Fan, coeffs: tuple[Fraction, ...]) -> Polytope:
    return Polytope.from_halfspaces(section_halfspaces(fan, coeffs))


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
    """Support-function saturation against every ray, plus per-cone linearity.

    The divisor is nef exactly when its coefficients agree with the minima of
    its own section polytope against the rays and the per-cone solutions of
    those equalities land inside the polytope.
    """
    p = polytope_of(fan, d)
    if p.is_empty:
        return False
    for u, a in zip(fan.rays, d.coeffs):
        if p.support_min(u) != -a:
            return False
    for cone in fan.max_cones:
        rows = fan.cone_rays(cone)
        m = solve_linear(rows, [-d.coeffs[i] for i in cone])
        if m is None or not p.contains(m):
            return False
    return True


@lru_cache(maxsize=None)
def is_ample(fan: Fan, d: ToricDivisor) -> bool:
    """Polarization check: nef with a full-dimensional section polytope.

    This accepts big and semi-ample classes such as pullbacks of ample
    divisors, which is exactly what the one-parameter constructions need.
    Memoized on the immutable (fan, divisor) pair, like `_polytope_cached`.
    """
    p = polytope_of(fan, d)
    return (not p.is_empty) and p.is_full_dimensional and is_nef(fan, d)


def is_strictly_ample(fan: Fan, d: ToricDivisor) -> bool:
    """Ample in the strict sense: nef with one distinct vertex per maximal cone."""
    if not is_ample(fan, d):
        return False
    seen = set()
    for cone in fan.max_cones:
        m = solve_linear(fan.cone_rays(cone), [-d.coeffs[i] for i in cone])
        if m is None or m in seen:
            return False
        seen.add(m)
    return True


# --------------------------------------------------------------------------
# log discrepancy and star subdivisions
# --------------------------------------------------------------------------

def log_discrepancy(fan: Fan, u: Sequence[int]) -> Fraction:
    """The piecewise-linear function equal to 1 on every primitive ray, at u."""
    if all(a == 0 for a in u):
        raise ZeroVector("log discrepancy of the zero vector")
    _cone, lam = fan.containing_cone(u)
    return sum(lam, Fraction(0))


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
    <m, u_rho> D_rho, where <m, u_i> = 1 and <m, u_j> = 0 on the other rays of
    sigma; every term has one more distinct ray, so the recursion ends.
    """
    distinct = set(rays)
    cone = next((c for c in fan.max_cones if distinct <= set(c)), None)
    if cone is None:
        return Fraction(0)
    mult = abs(det(fan.cone_rays(cone))) if len(cone) == fan.dimension else 0
    if mult == 0:
        raise DimensionMismatch(f"cone {cone} is not a full-dimensional simplicial cone")
    if len(distinct) == len(rays):
        return 1 / mult
    repeated = next(i for i in rays if rays.count(i) > 1)
    m = solve_linear(fan.cone_rays(cone), [int(j == repeated) for j in cone])
    rest = list(rays)
    rest.remove(repeated)
    total = Fraction(0)
    for rho, u in enumerate(fan.rays):
        c = 0 if rho in cone else dot(m, u)
        if c != 0:
            total -= c * _ray_monomial(fan, tuple(sorted(rest + [rho])))
    return total


@lru_cache(maxsize=None)
def _reference_cone(fan: Fan) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[Fraction, ...]], ...]]:
    """The first full-dimensional simplicial maximal cone sigma, with its dual basis on the other rays.

    The dual basis m_j has <m_j, u_k> = 1 for the j-th ray k of sigma and 0
    on its other rays; each ray rho outside sigma comes with the row
    (<m_j, u_rho>)_j.  Memoized per fan.
    """
    n = fan.dimension
    cone = next((c for c in fan.max_cones if len(c) == n and det(fan.cone_rays(c)) != 0), None)
    if cone is None:
        raise DimensionMismatch("the fan has no full-dimensional simplicial cone")
    rays = fan.cone_rays(cone)
    dual = [solve_linear(rays, [int(j == k) for k in range(n)]) for j in range(n)]
    rest = tuple(
        (rho, tuple(dot(m, u) for m in dual)) for rho, u in enumerate(fan.rays) if rho not in cone
    )
    return cone, rest


def intersection_number(
    fan: Fan,
    divisors: Sequence[ToricDivisor],
    ample_ref: ToricDivisor | None = None,
) -> Fraction:
    """Exact intersection number of n divisor classes in the fan's intersection ring.

    Each class is first moved off the rays of one fixed maximal cone sigma
    (`_reference_cone`): D - div chi^m, with <m, u_j> = D_j on sigma's rays,
    is linearly equivalent to D and supported on the other k - n rays.  The
    product is then expanded multilinearly over these reduced supports into
    at most (k - n)^n monomials in the ray divisors (`_ray_monomial`), so no
    argument needs to be nef.  `ample_ref` is accepted for old callers and
    ignored.
    """
    n = fan.dimension
    if len(divisors) != n:
        raise DimensionMismatch(f"need exactly {n} divisors")
    for d in divisors:
        if d.fan != fan:
            raise DimensionMismatch("divisor lives on a different fan")
    cone, rest = _reference_cone(fan)
    supports = []
    for d in divisors:
        on_cone = [d.coeffs[i] for i in cone]
        reduced = ((rho, d.coeffs[rho] - dot(on_cone, row)) for rho, row in rest)
        supports.append([(rho, c) for rho, c in reduced if c != 0])
    total = Fraction(0)
    for combo in itertools.product(*supports):
        coeff = Fraction(1)
        for _i, c in combo:
            coeff *= c
        total += coeff * _ray_monomial(fan, tuple(sorted(i for i, _c in combo)))
    return total


@dataclass(frozen=True)
class ZariskiPair:
    """Divisorial Zariski decomposition: movable positive part plus effective negative part."""

    positive: ToricDivisor
    negative: ToricDivisor


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
    if polytope_of(fan, positive).vertices != p.vertices:
        raise InvariantViolation("Zariski positive part must have the input's section polytope")
    return ZariskiPair(positive, negative)
