"""Fraction routes kept as test oracles for the library's integer ones.

Lagrange interpolation through sampled values, and the Fraction Horner
scheme and antiderivative that Polynomial evaluated and integrated with
before it moved to integer numerators over one denominator.  The Fraction
coefficient polynomial with its arithmetic and long division, and on it the
Yun decomposition, Sturm sequences and sign decision that ran in Fractions
before they moved to primitive integer remainder sequences.  The
intersection ring route of an intersection number, which the library took
before it summed over the maximal cones by localization: products of ray
divisors read off the cones, a repeated ray moved off its cone by linear
equivalence (ray_monomial), and the Fraction expansion over supports
reduced against one cone, one term per n-tuple of rays.  A Fraction
Gauss-Jordan elimination, and on it the solve over a cone's shared rays that
validate_fan's face test ran before it read the cones' dual bases.  The
determinant and square solve on _eliminate (rational rows, each scaled by
the lcm of its denominators, then _bareiss), which the library no longer
calls.  The kernel vector, and on it the extreme rays of a cone, the basic
solutions and the simplex determinants by one Bareiss elimination each,
which the library ran before it read maximal minors by cofactors (_cross).
The vertex paths of a one-parameter family by Fraction solves:
parametric_family found its chambers on them before it read a family off
the vertices of its hypograph.  The chamber route of the
test-curve functionals: per chamber of D's own family, the positive part
read off the hypograph's lower hulls, the facet polynomials and their
integrals, summed chamber by chamber, with the entropy paired against each
chamber's reduced support; the test-curve functionals read the same
integrals off the hypograph of D's ray instead.  The averaging polynomial
G_{n-1}(a, b) and the entropy density at one tau, which the library does not
call.  The polarization checks on the section polytope P_D, enumerated in
Fractions, with each cone's vertex solved on its rays, and the cone
vertices read off the dual-basis table in Fractions: the library reads
nefness and ampleness off the cone vertices alone, in integers.  The slice family of a
filtration direction, whose volume curve on its hypograph the filtration
curve was before it moved to the section polytope's own triangulation.
The Fraction route of a candidate row: A as the cone coordinates of u
summed, and S as <b, u> - min <x, u> with b from linear_stats along the
unit vectors, before a row read integer dots off the barycenter's memo.
The filtration route of the barycenter: along each unit vector, the
integral of the filtration curve over the volume, which the barycenter was
checked against before it was checked by cone localization.

The halfspace route of a polytope, which Polytope.from_halfspaces took
before a Polytope was its integer rows: the dedupe into Halfspaces with
primitive normals, the vertices enumerated into Fractions, and both read
back into integers (rows over q, points over den) for the triangulation
and the volume; with it, the triangulation and the facet simplices of any
rows and their polytope's exact vertex set.

Fans and classes beyond the fixtures: weighted projective spaces P(1, a_1,
..., a_n), with (-K)^n = (sum a_i)^n / prod a_i as their oracle, products
of fans, and seeded big and nef classes.

Polytope geometry only the tests use: minkowski_sum (Fourier-Motzkin) and
mixed_volume by polarization, the oracle of toric.intersection_number
(Fulton, 5.4); hull_halfspaces, affine_rank of rational points and
polytope_from_points, which build random test polygons; family_halfspaces,
a family's integer rows read back as Fraction offsets and rates; and
polytope_at, a family's polytope at one t.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import NamedTuple, Sequence

from toricstab import geometry, toric
from toricstab.errors import (
    DegeneratePolytope, DimensionMismatch, InvariantViolation, OutOfRange, ZeroVector,
)
from toricstab.filtrations import _section_polytope, filtration_curve
from toricstab.geometry import (
    Chamber, Halfspace, IntRow, LatticeVector, ParametricPolytope, Point, Polytope, _bareiss,
    _dedupe_rows, _fm_eliminate_last, _Infeasible, _int_affine_rank, _int_vertices, _over_lcm,
    _pull, _pulled, _row_facets, _simplex_dets, content, int_rows, linear_stats, make_primitive,
    parametric_family, volume,
)
from toricstab.toric import Fan, ToricDivisor, anticanonical, divisor, is_ample, zero_divisor
from toricstab.volume_fn import (
    Polynomial,
    _chamber_sum,
    big_volume,
    chamber_volume_polynomial,
    divisor_family,
    positive_pairing,
)


def fit_polynomial(xs: Sequence, ys: Sequence) -> Polynomial:
    """Exact Lagrange interpolation through distinct rational nodes."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    result = Polynomial(())
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Polynomial.of(1)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            term = term * Polynomial.of(-xj, 1)
            denom *= xi - xj
        result = result + term.scale(yi / denom)
    return result


def _eliminate(m: list[Sequence], ncols: int) -> tuple[list[int], int, int, int]:
    """_bareiss on rational rows, each first scaled to integers by the lcm of its denominators.

    Returns the pivot columns, the last pivot, the sign of the row
    permutation and the product of the row scales.
    """
    scale = 1
    for i, row in enumerate(m):
        m[i], s = _over_lcm(row)
        scale *= s
    return (*_bareiss(m, ncols), scale)


def det(rows: Sequence[Sequence]) -> Fraction:
    n = len(rows)
    pivots, pivot, sign, scale = _eliminate(list(rows), n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * pivot, scale)


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...] | None:
    """Solve the square system rows * x = rhs; None if singular."""
    n = len(rows)
    m = [[*row, b] for row, b in zip(rows, rhs)]
    pivots, _pivot, _sign, _scale = _eliminate(m, n)
    if len(pivots) < n:
        return None
    return tuple(Fraction(m[i][n], m[i][i]) for i in range(n))


def kernel_vector(rows: Sequence[Sequence[int]], n: int) -> LatticeVector | None:
    """A primitive integer spanning vector of the kernel of integer rows if it is a line, else None.

    The free coordinate is positive.
    """
    if not rows:
        return None if n != 1 else (1,)
    m = list(rows)
    pivots, pivot, _sign = _bareiss(m, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    # the kernel is pivot * e_fc - sum_r m[r][fc] * e_pivots[r]; keep e_fc positive
    s = 1 if pivot > 0 else -1
    x = [0] * n
    x[fc] = s * pivot
    for row, pc in zip(m, pivots):
        x[pc] = -s * row[fc]
    return make_primitive(x)


def oracle_basic_solutions(rows, dim):
    """_basic_solutions by one Bareiss elimination per n-subset with independent normals.

    Yields (den, num) with x = num / den and den > 0.
    """
    for subset in itertools.combinations(rows, dim):
        m = [[*a, -b] for a, b in subset]
        pivots, den, _sign = _bareiss(m, dim)
        if len(pivots) < dim:
            continue
        s = 1 if den > 0 else -1
        yield s * den, [s * row[dim] for row in m]


def oracle_extreme_rays(normals, dim):
    """extreme_rays on kernel_vector: the kernel of every (dim - 1)-subset of normals, either sign, in the cone."""
    rays = set()
    for subset in itertools.combinations(normals, dim - 1):
        d = kernel_vector(subset, dim)
        if d is None:
            continue
        for cand in (d, tuple(-a for a in d)):
            if all(sum(map(mul, u, cand)) >= 0 for u in normals):
                rays.add(cand)
    return sorted(rays)


def oracle_simplex_dets(points, simplices, fixed=()):
    """_simplex_dets by one Bareiss elimination per simplex: the |last pivot| of its edges and `fixed`."""
    out = []
    for simplex in simplices:
        base = points[simplex[0]]
        edges = [[a - b for a, b in zip(points[i], base)] for i in simplex[1:]] + list(fixed)
        pivots, pivot, _sign = _bareiss(edges, len(edges))
        out.append(abs(pivot) if len(pivots) == len(edges) else 0)
    return out


def fraction_horner(poly: Polynomial, x) -> Fraction:
    """poly(x) by Horner's scheme on the Fraction coefficients."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def antiderivative(poly: Polynomial) -> Polynomial:
    """The antiderivative vanishing at 0, coefficient by coefficient in Fractions."""
    return Polynomial((Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(poly.coeffs)))


def antiderivative_integral(poly: Polynomial, a, b) -> Fraction:
    """The integral from a to b as the difference of the antiderivative's Fraction Horner values."""
    anti = antiderivative(poly)
    return fraction_horner(anti, b) - fraction_horner(anti, a)


def fraction_row_reduce(rows, ncols):
    """Reduced row echelon form over Fraction on the first ncols columns.

    Returns the reduced rows, the pivot columns and the product of the pivots
    with the sign of the row swaps (the determinant of a square full-rank input).
    """
    m = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    product = Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        found = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            product = -product
        product *= m[r][col]
        m[r] = [a / m[r][col] for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, product


def nonneg_combination(rows, target, k):
    """Solve rows * lam = target with lam >= 0, rows an n x k column system; None if no solution."""
    m, pivots, _product = fraction_row_reduce([[*r, t] for r, t in zip(rows, target)], k)
    if any(row[k] != 0 for row in m[len(pivots):]):
        return None
    lam = [Fraction(0)] * k
    for row, col in zip(m, pivots):
        lam[col] = row[k]
    return None if any(c < 0 for c in lam) else tuple(lam)


def oracle_solve(rows, rhs):
    """The square system rows * x = rhs by Fraction Gauss-Jordan elimination; None if singular."""
    n = len(rows)
    m, pivots, _product = fraction_row_reduce([[*r, b] for r, b in zip(rows, rhs)], n)
    return tuple(row[n] for row in m) if len(pivots) == n else None


class AffinePath(NamedTuple):
    """A vertex trajectory t -> base + t * velocity."""

    base: tuple[Fraction, ...]
    velocity: tuple[Fraction, ...]

    def at(self, t) -> tuple[Fraction, ...]:
        t = Fraction(t)
        return tuple(b + t * v for b, v in zip(self.base, self.velocity))


def oracle_basis_paths(halfspaces, dim):
    """(path, lo, hi) for every basis of a family whose path is feasible on some t-interval.

    The halfspaces are FamilyHalfspaces {<x, u> >= -(a - t d)}.  Each
    dim-subset with independent normals solves for its path's base and
    velocity; every other halfspace's slack along it is c0 + t c1, which
    bounds t from below (c1 > 0) or above (c1 < 0) at -c0 / c1.  lo or hi is
    None when nothing bounds that side.
    """
    out = []
    for subset in itertools.combinations(halfspaces, dim):
        rows = [hs.normal for hs in subset]
        base = oracle_solve(rows, [-hs.offset for hs in subset])
        if base is None:
            continue
        velocity = oracle_solve(rows, [hs.rate for hs in subset])
        lo = hi = None
        empty = False
        for hs in halfspaces:
            c0 = sum((a * x for a, x in zip(hs.normal, base)), Fraction(0)) + hs.offset
            c1 = sum((a * v for a, v in zip(hs.normal, velocity)), Fraction(0)) - hs.rate
            if c1 == 0:
                if c0 < 0:
                    empty = True
                    break
            elif c1 > 0:
                lo = -c0 / c1 if lo is None else max(lo, -c0 / c1)
            else:
                hi = -c0 / c1 if hi is None else min(hi, -c0 / c1)
        if empty or (lo is not None and hi is not None and lo > hi):
            continue
        out.append((AffinePath(base, velocity), lo, hi))
    return out


def oracle_walls(bases, t_max) -> list[Fraction]:
    """The ends of the paths' intervals strictly inside (0, t_max), sorted: the inner walls."""
    return sorted({w for _path, lo, hi in bases for w in (lo, hi) if w is not None and 0 < w < t_max})


def oracle_points(bases, lo, hi, t) -> list[tuple[Fraction, ...]]:
    """The sorted distinct points at t of the paths feasible on all of [lo, hi]."""
    return sorted({
        path.at(t) for path, a, b in bases if (a is None or a <= lo) and (b is None or hi <= b)
    })


# ---- the halfspace route of a polytope -----------------------------------------

def _int_points(points: Sequence[Sequence]) -> tuple[list[LatticeVector], int]:
    """The points as integer numerators over one common positive denominator."""
    flat, den = _over_lcm([c for p in points for c in p])
    coords = iter(flat)
    return [tuple(itertools.islice(coords, len(p))) for p in points], den


def _dedupe_halfspaces(halfspaces: Sequence[Halfspace]) -> tuple[Halfspace, ...]:
    """The halfspaces of _dedupe_rows, with primitive normals."""
    rows, q = int_rows([hs.normal for hs in halfspaces], [hs.offset for hs in halfspaces])
    return tuple(
        Halfspace(make_primitive(a), Fraction(b, q * content(a))) for a, b in _dedupe_rows(rows)
    )


def _triangulate(
    rows: Sequence[IntRow], q: int, points: Sequence[LatticeVector], den: int, dim: int
) -> list[tuple[int, ...]]:
    """_pulled on the incidence table of {<a, x> + b / q >= 0}, whose vertices are exactly points / den."""
    return _pulled(geometry._tight_sets(rows, q, points, den), points, dim)


def facet_simplices(
    rows: Sequence[IntRow], q: int, points: Sequence[LatticeVector], den: int, dim: int,
    normals: Sequence[Sequence[int]],
) -> list[list[tuple[int, ...]]]:
    """Per normal, the pulled facet _row_facets gives its row, on the incidence table of the rows.

    The polytope's vertices are exactly points / den; a normal with no row
    has no simplices.
    """
    tight = geometry._tight_sets(rows, q, points, den)
    on = dict(zip((a for a, _b in rows), _row_facets(tight, points)))
    facets = [on.get(tuple(u)) for u in normals]
    return [[] if facet is None else _pull(facet, dim - 1, tight, points) for facet in facets]


class HalfspacePolytope(NamedTuple):
    """The polytope of the halfspace route; equal as Polytopes were, on halfspaces and dimension."""

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Point, ...]
    dimension: int
    volume: Fraction

    @property
    def key(self) -> tuple[tuple[Halfspace, ...], int]:
        return self.halfspaces, self.dimension


def halfspace_polytope(halfspaces: Sequence[Halfspace]) -> HalfspacePolytope:
    """Polytope.from_halfspaces and volume on the halfspace route.

    The halfspaces deduped into Halfspaces (_dedupe_halfspaces), their
    vertices enumerated on the rows of those and turned into Fractions, and
    the integer form read back from both for the triangulation.  Raises
    UnboundedRegion when the intersection is nonempty but unbounded.
    """
    clean = _dedupe_halfspaces(halfspaces)
    dim = len(clean[0].normal)
    rows, q = int_rows([hs.normal for hs in clean], [hs.offset for hs in clean])
    points, den = _int_vertices(rows, q, dim)
    vertices = tuple(tuple(Fraction(c, den) for c in p) for p in points)
    points, den = _int_points(vertices)
    dets = _simplex_dets(points, _triangulate(rows, q, points, den, dim))
    return HalfspacePolytope(clean, vertices, dim, Fraction(sum(dets), den**dim * math.factorial(dim)))


# ---- polytope geometry for the tests -----------------------------------------

def hull_halfspaces(points: Sequence[Point]) -> list[Halfspace]:
    """Facet H-representation of the convex hull of a full-dimensional point set."""
    pts, den = _int_points([tuple(Fraction(c) for c in p) for p in points])
    dim = len(pts[0])
    rows = []
    for base, *rest in itertools.combinations(pts, dim):
        normal = kernel_vector([[a - b for a, b in zip(p, base)] for p in rest], dim)
        if normal is None:
            continue
        level = sum(map(mul, normal, base))
        values = [sum(map(mul, normal, p)) - level for p in pts]
        if all(v >= 0 for v in values):
            rows.append((normal, -level))
        elif all(v <= 0 for v in values):
            rows.append((tuple(-a for a in normal), level))
    # each facet is found once per dim-subset of its points; its normal is primitive
    return [Halfspace(a, Fraction(b, den)) for a, b in _dedupe_rows(rows)]


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of rational points (-1 when empty), in integers."""
    return _int_affine_rank(_int_points(points)[0])


def polytope_from_points(points: Sequence[Sequence]) -> Polytope:
    """The convex hull of a full-dimensional point set."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts or affine_rank(pts) < len(pts[0]):
        raise DegeneratePolytope("point set is empty or not full-dimensional")
    return Polytope.from_halfspaces(hull_halfspaces(pts))


class FamilyHalfspace(NamedTuple):
    """The family {x : <x, normal> >= -(offset - t * rate)}, in Fractions."""

    normal: LatticeVector
    offset: Fraction
    rate: Fraction


def family_halfspaces(pp: ParametricPolytope) -> list[FamilyHalfspace]:
    """The family's rows (a, b, c) over q as halfspaces with offset b / q and rate c / q."""
    return [FamilyHalfspace(a, Fraction(b, pp.q), Fraction(c, pp.q)) for a, b, c in pp.rows]


def polytope_at(pp: ParametricPolytope, t) -> Polytope:
    """The family's polytope {<x, u_i> >= -(a_i - t d_i)} at one t."""
    return Polytope.from_halfspaces(
        [Halfspace(hs.normal, hs.offset - t * hs.rate) for hs in family_halfspaces(pp)]
    )


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Exact Minkowski sum, by eliminating y from {(z, y) : z - y in P, y in Q}."""
    if p.dimension != q.dimension:
        raise DimensionMismatch("Minkowski summands must share a dimension")
    n = p.dimension
    lifted = [Halfspace(hs.normal + tuple(-a for a in hs.normal), hs.offset) for hs in p.halfspaces]
    lifted += [Halfspace((0,) * n + hs.normal, hs.offset) for hs in q.halfspaces]
    rows, den = int_rows([hs.normal for hs in lifted], [hs.offset for hs in lifted])
    try:
        for d in range(2 * n, n, -1):
            rows = _fm_eliminate_last(rows, d)
    except _Infeasible as exc:
        raise DegeneratePolytope("Minkowski sum of an empty polytope") from exc
    return Polytope.from_halfspaces([Halfspace(a, Fraction(b, den)) for a, b in rows])


def mixed_volume(polytopes: Sequence[Polytope]) -> Fraction:
    """Normalized mixed volume of n nonempty polytopes in dimension n: MV(P, ..., P) = n! vol(P).

    Inclusion-exclusion polarization over the Minkowski sums of the input
    polytopes; exact, and exponential only in the ambient dimension.
    """
    n = len(polytopes)
    if any(p.dimension != n or p.is_empty for p in polytopes):
        raise DimensionMismatch(f"need {n} nonempty polytopes in dimension {n}")
    return sum(
        (-1) ** (n - size) * volume(reduce(minkowski_sum, combo))
        for size in range(1, n + 1)
        for combo in itertools.combinations(polytopes, size)
    )


# ---- the Fraction polynomial kernel ----------------------------------------

@dataclass(frozen=True)
class FractionPolynomial:
    """Fraction coefficients, ascending, trailing zeros dropped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x) -> Fraction:
        return fraction_horner(self, x)

    def __add__(self, other):
        return FractionPolynomial(
            tuple(a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = [Fraction(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(tuple(out))

    def scale(self, c):
        return FractionPolynomial(tuple(Fraction(c) * a for a in self.coeffs))

    def derivative(self):
        return FractionPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def divmod(self, other):
        """Long division, one Fraction quotient coefficient per step."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, d = list(self.coeffs), other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(d) + 1, 0)
        while len(rem) >= len(d):
            shift = len(rem) - len(d)
            factor = rem[-1] / d[-1]
            quo[shift] += factor
            for i, c in enumerate(d):
                rem[shift + i] -= factor * c
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return FractionPolynomial(tuple(quo)), FractionPolynomial(tuple(rem))


def _monic(p: FractionPolynomial) -> FractionPolynomial:
    return p if p.is_zero else p.scale(1 / p.coeffs[-1])


def oracle_poly_gcd(a: FractionPolynomial, b: FractionPolynomial) -> FractionPolynomial:
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return _monic(a)


def oracle_squarefree_decomposition(p: FractionPolynomial) -> list[tuple[FractionPolynomial, int]]:
    """Yun's algorithm in Fractions."""
    p = _monic(p)
    if p.degree <= 0:
        return []
    g = oracle_poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    c = p.divmod(g)[0]
    d = p.derivative().divmod(g)[0] - c.derivative()
    out = []
    i = 1
    while c.degree > 0:
        a = oracle_poly_gcd(c, d)
        if a.degree > 0:
            out.append((_monic(a), i))
        c_next = c.divmod(a)[0]
        d = d.divmod(a)[0] - c_next.derivative()
        c = c_next
        i += 1
    return out


def _sign_changes(values) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def oracle_count_roots(p: FractionPolynomial, a, b) -> int:
    """Sturm's count of the distinct roots in (a, b], for a <= b and p(a) != 0, in Fractions."""
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        r = seq[-2].divmod(seq[-1])[1]
        if r.is_zero:
            break
        seq.append(r.scale(-1))
    return _sign_changes([q(a) for q in seq]) - _sign_changes([q(b) for q in seq])


def oracle_nonneg_on_interval(p: FractionPolynomial, a, b) -> bool:
    """p >= 0 on [a, b]: the ends, the odd part's interior roots, then one non-root sample."""
    a, b = Fraction(a), Fraction(b)
    if p.is_zero:
        return True
    if p(a) < 0 or p(b) < 0:
        return False
    if a == b:
        return True
    odd = FractionPolynomial((1,))
    for factor, mult in oracle_squarefree_decomposition(p):
        if mult % 2 == 1:
            odd = odd * factor
    for r in (a, b):
        while odd.degree >= 1 and odd(r) == 0:
            odd = odd.divmod(FractionPolynomial((-r, 1)))[0]
    if odd.degree >= 1 and oracle_count_roots(odd, a, b) > 0:
        return False
    for k in range(1, p.degree + 3):
        val = p(a + (b - a) * Fraction(k, p.degree + 3))
        if val != 0:
            return val > 0
    raise AssertionError("nonzero polynomial vanished at more points than its degree")


# ---- intersection numbers --------------------------------------------------

@lru_cache(maxsize=None)
def ray_monomial(fan, rays: tuple[int, ...]) -> Fraction:
    """The product D_{i_1} ... D_{i_n} of ray divisors in the fan's intersection ring, rays sorted.

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
    entry = toric._cone_duals(fan).get(cone)
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
            total -= Fraction(c, d) * ray_monomial(fan, tuple(sorted(rest + [rho])))
    return total


def oracle_intersection_number(fan, divisors) -> Fraction:
    """The product of n classes expanded in Fractions over their supports reduced against one cone.

    Each class is reduced against the first cone of the fan's dual-basis
    table and the product expanded into one term per n-tuple of rays, with
    no grouping of repeated classes or of equal monomials.
    """
    cone, (d, ws) = next(iter(toric._cone_duals(fan).items()))
    rest = [
        (rho, [Fraction(sum(map(mul, w, u)), d) for w in ws])
        for rho, u in enumerate(fan.rays)
        if rho not in cone
    ]
    supports = []
    for dv in divisors:
        on_cone = [dv.coeffs[i] for i in cone]
        reduced = ((rho, dv.coeffs[rho] - sum(map(mul, on_cone, row))) for rho, row in rest)
        supports.append([(rho, c) for rho, c in reduced if c != 0])
    total = Fraction(0)
    for combo in itertools.product(*supports):
        coeff = Fraction(1)
        for _rho, c in combo:
            coeff *= c
        total += coeff * ray_monomial(fan, tuple(sorted(rho for rho, _c in combo)))
    return total


# ---- polarization checks on the section polytope -----------------------------

def _oracle_cone_vertices(fan, coeffs):
    """Each maximal cone's vertex by a Fraction solve on its rays; None if a cone is degenerate."""
    vertices = []
    for cone in fan.max_cones:
        rhs = [-coeffs[i] for i in cone]
        m = solve_linear(fan.cone_rays(cone), rhs) if len(cone) == fan.dimension else None
        if m is None:
            return None
        vertices.append(m)
    return vertices


def oracle_cone_vertices(fan, coeffs):
    """Each maximal cone's m_sigma = -sum_j a_j m_j off _cone_duals in Fractions; None if one is off it.

    The polarization checks computed these, in `max_cones` order, before they
    ran in integers over one common denominator.
    """
    duals = toric._cone_duals(fan)
    vertices = []
    for cone in fan.max_cones:
        entry = duals.get(cone)
        if entry is None:
            return None
        d, ws = entry
        a = [coeffs[i] for i in cone]
        vertices.append(tuple(-sum(map(mul, a, column), Fraction(0)) / d for column in zip(*ws)))
    return vertices


def oracle_is_nef(fan, d) -> bool:
    """P_D nonempty, saturated against every ray, and holding every cone vertex."""
    p = toric.polytope_of(fan, d)
    if p.is_empty or any(p.support_min(u) != -a for u, a in zip(fan.rays, d.coeffs)):
        return False
    vertices = _oracle_cone_vertices(fan, d.coeffs)
    return vertices is not None and all(
        hs.slack(m) >= 0 for m in vertices for hs in p.halfspaces
    )


def oracle_is_ample(fan, d) -> bool:
    """Nef with a full-dimensional section polytope."""
    p = toric.polytope_of(fan, d)
    return not p.is_empty and p.is_full_dimensional and oracle_is_nef(fan, d)


def oracle_is_strictly_ample(fan, d) -> bool:
    """Ample with one distinct vertex per maximal cone."""
    if not oracle_is_ample(fan, d):
        return False
    vertices = _oracle_cone_vertices(fan, d.coeffs)
    return len(set(vertices)) == len(vertices)


# ---- candidate rows in Fractions ---------------------------------------------

def oracle_log_discrepancy(fan, u) -> Fraction:
    """The Fraction coordinates of u on the first maximal cone holding it, summed."""
    for cone in fan.max_cones:
        lam = fan.cone_coordinates(cone, u)
        if lam is not None:
            return sum(lam, Fraction(0))
    raise ZeroVector(f"{tuple(u)} lies outside the support of the fan")


def oracle_s_invariant(fan, l, u) -> Fraction:
    """<b, u> - min <x, u> over P_L, with b_i the linear_stats mean along e_i."""
    p = toric.polytope_of(fan, l)
    n = fan.dimension
    b = [linear_stats(p, tuple(int(i == j) for j in range(n)))[1] for i in range(n)]
    return sum(map(mul, b, u), Fraction(0)) - p.support_min(u)


# ---- the filtration route of the barycenter ----------------------------------

def filtration_barycenter(fan, l) -> list[Fraction]:
    """Along each e_i, the integral of filtration_curve over vol(L), that is b_i - min x_i."""
    n = fan.dimension
    v = big_volume(fan, l)
    return [
        filtration_curve(fan, l, tuple(int(i == j) for j in range(n))).integrate() / v
        for i in range(n)
    ]


# ---- fans and classes beyond the fixtures --------------------------------------

def weighted_projective(weights: Sequence[int]) -> Fan:
    """The fan of P(1, a_1, ..., a_n): rays e_i and -(a_1, ..., a_n), cones all n-subsets.

    The rays span Z^n and sum to zero with the weights.  Its anticanonical
    volume is (sum a_i)^n / prod a_i.
    """
    if weights[0] != 1:
        raise ValueError("the first weight must be 1")
    n = len(weights) - 1
    rays = [[-a for a in weights[1:]]] + [[int(i == j) for j in range(n)] for i in range(n)]
    return Fan.make(rays, list(itertools.combinations(range(n + 1), n)))


def product_fan(*fans: Fan) -> Fan:
    """The product fan: rays placed in their own block of coordinates, cones the products."""
    dim = sum(f.dimension for f in fans)
    rays, offsets, pos = [], [], 0
    for f in fans:
        offsets.append(len(rays))
        rays += [(0,) * pos + ray + (0,) * (dim - pos - f.dimension) for ray in f.rays]
        pos += f.dimension
    cones = [
        [i + off for cone, off in zip(combo, offsets) for i in cone]
        for combo in itertools.product(*(f.max_cones for f in fans))
    ]
    return Fan.make(rays, cones)


def seeded_ample(fan, seed: int, count: int = 3) -> list[ToricDivisor]:
    """count big and nef classes with coefficients p/q, p <= 4 and q <= 3, drawn from one seed."""
    rng = random.Random(seed)
    found = []
    for _ in range(200 * count):
        l = divisor(fan, [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in fan.rays])
        if is_ample(fan, l):
            found.append(l)
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} big and nef classes drawn")


# ---- the slice family of a filtration direction ------------------------------

def filtration_family(fan, l, u):
    """The slices {x in P_L : <x,u> - min <.,u> >= tau} as a family in tau from 0.

    The family must end at the width of P_L against u; InvariantViolation is
    raised when it does not.  Its volume curve (family_volume_curve) is an
    oracle for filtration_curve, and the tests sample polytope volumes on its
    chambers.
    """
    p = _section_polytope(fan, l, u)
    lo = p.support_min(u)
    hi = p.support_max(u)
    halfspaces = toric.section_halfspaces(fan, l.coeffs)
    # slice {<x,u> >= lo + tau}: offset -lo - tau, so the rate against tau is +1
    halfspaces.append(Halfspace(tuple(int(a) for a in u), -lo))
    rates = [Fraction(0)] * len(fan.rays) + [Fraction(1)]
    if hi == lo:
        raise ZeroVector("direction is constant on the section polytope")
    family = parametric_family(halfspaces, rates)
    if family.t_max != hi - lo:
        raise InvariantViolation(f"slice family ends at {family.t_max}, width is {hi - lo}")
    return family


# ---- the chamber route of the test-curve functionals -------------------------

def chamber_facet_polynomials(pp, chamber: Chamber) -> tuple[Polynomial, ...]:
    """Per primitive normal u_i, t -> (n-1)! times the lattice volume of the facet of P_t.

    For the family of L - tD this is the positive product <P_t^{n-1}> . D_i,
    zero where the face minimizing u_i is not a facet.  That facet is the
    slice at t of Q's facet on row i: over each simplex T of it, with vertex
    heights h_T, the slice's (n-1)! lattice volume is |det(edges of T,
    (u_i, 0))| / <u_i, u_i> times the divided difference [h_T] of
    s -> (s - t)_+^(n-1), as in chamber_volume_polynomial.
    """
    n, q = pp.dimension, pp.hypograph.den
    return tuple(
        _chamber_sum(knotted, q, chamber, n - 1).scale(Fraction(1, sum(map(mul, u, u))))
        for u, knotted in zip(pp.hypograph.normals, pp.hypograph.facets)
    )


@dataclass(frozen=True)
class CurveChamber:
    """One tau-interval with affine Zariski data for the family L - tau*D.

    positive_paths[i] is the affine polynomial P_tau,i; red_support lists
    the rays with L_i > P_tau,i, those carrying the reduced divisor of
    tau*D + N_tau on the chamber interior.  facets[i] is <P_tau^{n-1}> . D_i
    and mass is vol(L - tau*D); integrals[i] and mass_integral, over
    integral_den, are their integrals over [lo, hi].
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

    def pairing_integral(self, alpha) -> Fraction:
        nums, den = _over_lcm(alpha.coeffs)
        return Fraction(sum(map(operator.mul, nums, self.integrals)), den * self.integral_den)


def chamber_integrals(lo, hi, facets, mass) -> tuple[tuple[int, ...], int, int]:
    """The integrals over [lo, hi] of the facet polynomials and the mass: (numerators, den, mass)."""
    values = [f.integrate(lo, hi) for f in facets] + [mass.integrate(lo, hi)]
    nums, den = _over_lcm(values)
    return tuple(nums[:-1]), den, nums[-1]


def _support_hull(hypograph, u) -> list[tuple[int, int]]:
    """The lower convex hull of Q's vertices projected to (t, <x, u>), integers over Q's den."""
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
def curve_chambers(fan, l, d) -> tuple[CurveChamber, ...]:
    """Chamber data of the family L - tau*D on [0, tau+], on D's own family.

    One curve chamber per chamber of the family.  The positive part at ray u
    is -g(tau), g the lower hull of the hypograph projected to (tau, <x, u>),
    affine on each chamber; a hull breakpoint strictly inside a chamber
    raises InvariantViolation.  The mass is the family's chamber volume
    polynomial, and sum_i P_tau,i f_i(tau) must equal it exactly
    (InvariantViolation).
    """
    family = divisor_family(fan, l, d)
    den = family.hypograph.den
    hulls = [_support_hull(family.hypograph, u) for u in fan.rays]
    chambers: list[CurveChamber] = []
    for chamber in family.chambers:
        lo, hi = chamber.lo, chamber.hi
        mid = (lo + hi) / 2
        bottom, top = math.floor(lo * den), math.ceil(hi * den)
        paths = []
        for u, hull in zip(fan.rays, hulls):
            if any(bottom < h < top for h, _y in hull):
                raise InvariantViolation(
                    f"the support function of ray {u} bends inside the chamber [{lo}, {hi}]"
                )
            (h0, y0), (h1, y1) = next(pair for pair in zip(hull, hull[1:]) if pair[1][0] >= top)
            c0, c1, e = y1 * h0 - y0 * h1, (y0 - y1) * den, (h1 - h0) * den
            paths.append(Polynomial.from_ints((c0, c1), e))
        red = tuple(i for i, path in enumerate(paths) if l.coeffs[i] > path(mid))
        mass = chamber_volume_polynomial(family, chamber).scale(math.factorial(family.dimension))
        facets = chamber_facet_polynomials(family, chamber)
        identity = Polynomial(())
        for path, f in zip(paths, facets):
            identity = identity + path * f
        if identity != mass:
            raise InvariantViolation(
                f"facet volumes do not sum to the mass on the chamber [{lo}, {hi}]"
            )
        chambers.append(
            CurveChamber(lo, hi, tuple(paths), red, mass, facets,
                         *chamber_integrals(lo, hi, facets, mass))
        )
    return tuple(chambers)


def clipped_chambers(chambers, top=1) -> tuple[CurveChamber, ...]:
    """The chambers on [0, top], the one across top cut there with its integrals."""
    top = Fraction(top)
    out = []
    for ch in chambers:
        if ch.hi <= top:
            out.append(ch)
        elif ch.lo < top:
            integrals, den, mass_integral = chamber_integrals(ch.lo, top, ch.facets, ch.mass)
            out.append(replace(ch, hi=top, integrals=integrals, integral_den=den,
                               mass_integral=mass_integral))
    return tuple(out)


def entropy_direction(fan, k_rel, ch: CurveChamber) -> ToricDivisor:
    """K_rel + Red(tau D + N_tau) on the chamber: K_rel plus 1 on each ray of its reduced support."""
    red = [Fraction(int(i in ch.red_support)) for i in range(len(fan.rays))]
    return (k_rel if k_rel is not None else zero_divisor(fan)) + ToricDivisor(fan, tuple(red))


def chamber_functionals(fan, l, d, k_rel=None, top=None) -> tuple[Fraction, ...]:
    """(E, E^L, J~, Ent, E^Ric) as sums over the chambers, on [0, tau+] or on [0, top].

    The entropy pairs each chamber's own reduced support of tau*D + N_tau.
    """
    chambers = curve_chambers(fan, l, d)
    if top is not None:
        chambers = clipped_chambers(chambers, top)
    n, v = fan.dimension, chambers[0].mass(0)
    mass = sum((Fraction(ch.mass_integral, ch.integral_den) for ch in chambers), Fraction(0))
    pl = sum((ch.pairing_integral(l) for ch in chambers), Fraction(0))
    ent = sum(
        (ch.pairing_integral(entropy_direction(fan, k_rel, ch)) for ch in chambers), Fraction(0)
    )
    anti = anticanonical(fan) + (k_rel if k_rel is not None else zero_divisor(fan))
    ricci = sum((ch.pairing_integral(anti) for ch in chambers), Fraction(0))
    return mass / v, pl / v, n * (pl - mass) / v, n * ent / v, -n * ricci / v


def entropy_at(curve, tau) -> Fraction:
    """(n/V) <(L - tau D)^{n-1}> . (K_rel + Red(tau D + N_tau)) at one tau in (0, tau+).

    The reduced support is the chamber route's at tau; the positive product
    is positive_pairing's facet sum over the section polytope of L - tau D.
    """
    tau = Fraction(tau)
    if not 0 < tau < curve.tau_plus:
        raise OutOfRange(f"entropy_at needs tau in (0, {curve.tau_plus})")
    chambers = curve_chambers(curve.model, curve.l, curve.d)
    ch = next(ch for ch in chambers if ch.lo <= tau < ch.hi)
    direction = entropy_direction(curve.model, curve.k_rel, ch)
    family_value = curve.l - curve.d.scale(tau)
    return curve.model.dimension * positive_pairing(curve.model, family_value, direction) / (
        curve.total_volume
    )


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
