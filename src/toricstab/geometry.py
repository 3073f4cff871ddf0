"""Exact rational polytope kernel.

Vertex enumeration, volumes, linear statistics, lattice points, mixed volumes
and one-parameter polytope families, all in exact rational arithmetic.
Polytopes are stored in H-representation with cached vertices; inputs are
desk-scale (dimension <= 4, a few dozen halfspaces), so every algorithm here
prefers exhaustive enumeration over clever pivoting.

All exact linear algebra (determinants, solves, ranks, kernels) runs through
one fraction-free Gauss-Jordan elimination in integers (Bareiss), which
divides into Fractions only once at the end.  A system of halfspaces is
written as integer rows (a, b) of {<a, x> + b / q >= 0} over one common q.
On these rows one integer enumeration (_int_vertices) keeps the feasible
basic solutions, applies the boundedness and emptiness tests and returns the
vertices as integer numerators over one common denominator; vertices_of and
Polytope.from_halfspaces turn them into Fractions at the API boundary.  The
halfspace dedupe (one row per primitive normal, the binding one kept) and
the Fourier-Motzkin feasibility test run on the same rows.  One
basic-solution loop serves both the vertices of a polytope and those of a
family's hypograph, the (n+1)-polytope whose slices are the family's
polytopes: a family enumerates its hypograph once and reads its start,
chambers and threshold off the vertex heights.  Whether a polytope is
bounded depends on its facet normals only, so that test is memoized on the
normals and shared by every polytope of a family.

A Polytope keeps its integer form, written once at construction, and
triangulation, affine ranks and volumes run on it.  A simplex is a tuple of
vertex indices everywhere: the triangulation reads one vertex-facet
incidence table per polytope, the tight set of every row, and works on
faces as sets of vertex indices, the facets of a face being its maximal
intersections with the tight sets; the cached triangulation pairs each
simplex with its integer determinant, and volume and linear_moment sum
these and divide once, as facet_volumes does over the simplices of each
facet.  _triangulate and facet_simplices take any rows and their polytope's
exact vertex set, so a family's hypograph is triangulated on its integer
rows without a Polytope.
normalized_volume runs the same steps from integer rows to n! times the
volume without building a Polytope or touching the volume and triangulation
caches; a family's chamber volume polynomials are checked against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DegeneratePolytope,
    DimensionMismatch,
    UnboundedRegion,
)

Rational = Fraction
Point = tuple[Fraction, ...]
LatticeVector = tuple[int, ...]
IntRow = tuple[LatticeVector, int]  # (a, b): the halfspace <a, x> + b / q >= 0 over a shared q


# --------------------------------------------------------------------------
# small exact linear algebra
# --------------------------------------------------------------------------

def dot(u: Sequence, v: Sequence) -> Fraction:
    s = sum(map(mul, u, v))
    return s if type(s) is Fraction else Fraction(s)


def content(u: Sequence[int]) -> int:
    g = 0
    for a in u:
        g = gcd(g, abs(a))
    return g


def is_primitive(u: Sequence[int]) -> bool:
    return content(u) == 1


def make_primitive(u: Sequence[int]) -> LatticeVector:
    g = content(u)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in u)


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


def _bareiss(m: list[Sequence[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows m, in place, on the first ncols columns.

    Each step replaces every other row by (pivot * m[i] - m[i][col] * m[r]) // prev,
    prev being the previous pivot; the division is exact (Bareiss), so every
    entry stays an integer minor of m.  Afterwards pivot row r holds the last
    pivot in column pivots[r] and zeros in the other pivot columns, and the
    rows past the pivot rows vanish on the first ncols columns.

    Returns the pivot columns, the last pivot (1 when there is none) and the
    sign of the row permutation.
    """
    nrows = len(m)
    pivots: list[int] = []
    prev = 1
    sign = 1
    for col in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, nrows) if m[i][col]), None)
        if found is None:
            continue
        if found != r:
            m[r], m[found] = m[found], m[r]
            sign = -sign
        top = m[r]
        pivot = top[col]
        for i in range(nrows):
            if i != r:
                f = m[i][col]
                m[i] = [(pivot * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pivot
        pivots.append(col)
        if r + 1 == nrows:
            break
    return pivots, prev, sign


def matrix_rank(rows: Sequence[Sequence]) -> int:
    if not rows:
        return 0
    return len(_eliminate(list(rows), len(rows[0]))[0])


def kernel_vector(rows: Sequence[Sequence], n: int) -> LatticeVector | None:
    """A primitive integer spanning vector of a one-dimensional kernel, else None.

    The free coordinate is positive.
    """
    if not rows:
        return None if n != 1 else (1,)
    m = list(rows)
    pivots, pivot, _sign, _scale = _eliminate(m, n)
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


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_points(points: Sequence[Sequence]) -> tuple[list[LatticeVector], int]:
    """The points as integer numerators over one common positive denominator."""
    flat, den = _over_lcm([c for p in points for c in p])
    coords = iter(flat)
    return [tuple(itertools.islice(coords, len(p))) for p in points], den


def _int_affine_rank(points: Sequence[LatticeVector]) -> int:
    """Dimension of the affine hull of integer points (-1 when empty)."""
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return len(_bareiss(diffs, len(base))[0]) if diffs else 0


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull of the point set (-1 when empty)."""
    return _int_affine_rank(_int_points(points)[0])


# --------------------------------------------------------------------------
# halfspaces and polytopes
# --------------------------------------------------------------------------

def _as_int(a) -> int:
    if type(a) is int:
        return a
    f = Fraction(a)
    if f.denominator != 1:
        raise ValueError(f"halfspace normals must be integral, got {a}")
    return int(f)


@dataclass(frozen=True)
class Halfspace:
    """The set {x : <x, normal> >= -offset} with an integer normal."""

    normal: LatticeVector
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", tuple(_as_int(a) for a in self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        if all(a == 0 for a in self.normal):
            raise ValueError("halfspace normal must be nonzero")

    def slack(self, x: Sequence) -> Fraction:
        return dot(self.normal, x) + self.offset

    def contains(self, x: Sequence) -> bool:
        return self.slack(x) >= 0


def int_rows(normals: Sequence[LatticeVector], offsets: Sequence) -> tuple[list[IntRow], int]:
    """Rows (a, b) of {<a, x> + b / q >= 0}, one per normal and rational offset, over one q."""
    scaled, q = _over_lcm(offsets)
    return list(zip(normals, scaled)), q


def _int_rows(halfspaces: Sequence[Halfspace]) -> tuple[list[IntRow], int]:
    """The halfspaces as integer rows (a, b) of {<a, x> + b / q >= 0} over one common q."""
    return int_rows([hs.normal for hs in halfspaces], [hs.offset for hs in halfspaces])


def _dedupe_rows(rows: Iterable[IntRow]) -> list[IntRow]:
    """One row per primitive normal, in first-seen order: the binding one, least offset / content.

    The kept rows are returned as given, so they stay integers over the rows'
    q; rows with a zero normal are dropped.
    """
    best: dict[LatticeVector, tuple[IntRow, int]] = {}
    for a, b in rows:
        g = content(a)
        if g == 0:
            continue
        key = tuple(x // g for x in a)
        kept = best.get(key)
        if kept is None or b * kept[1] < kept[0][1] * g:
            best[key] = ((a, b), g)
    return [row for row, _g in best.values()]


def _dedupe_halfspaces(halfspaces: Sequence[Halfspace]) -> tuple[Halfspace, ...]:
    """The halfspaces of _dedupe_rows, with primitive normals."""
    rows, q = _int_rows(halfspaces)
    return tuple(
        Halfspace(make_primitive(a), Fraction(b, q * content(a))) for a, b in _dedupe_rows(rows)
    )


class _Infeasible(Exception):
    """Internal marker: Fourier-Motzkin derived 0 >= positive."""


def _fm_eliminate_last(rows: Sequence[IntRow], dim: int) -> list[IntRow]:
    """Fourier-Motzkin elimination of the last coordinate from integer rows over one q.

    Each combined row is divided by the gcd of its entries.  Raises
    _Infeasible when a contradictory constant row appears.
    """
    lower, upper, out = [], [], []
    for a, b in rows:
        c = a[dim - 1]
        if c > 0:
            lower.append((a, b))
        elif c < 0:
            upper.append((a, b))
        else:
            out.append((a[: dim - 1], b))
    for (al, bl), (au, bu) in itertools.product(lower, upper):
        cl, cu = al[dim - 1], -au[dim - 1]
        a = tuple(cu * x + cl * y for x, y in zip(al[: dim - 1], au))
        b = cu * bl + cl * bu
        g = gcd(*a, b) or 1
        out.append((tuple(x // g for x in a), b // g))
    if any(b < 0 for a, b in out if not any(a)):
        raise _Infeasible
    return _dedupe_rows(out)


def _feasible(rows: Sequence[IntRow], dim: int) -> bool:
    """Exact feasibility of integer rows, by Fourier-Motzkin elimination of every coordinate."""
    try:
        for d in range(dim, 0, -1):
            rows = _fm_eliminate_last(rows, d)
    except _Infeasible:
        return False
    return True


def extreme_rays(normals: Sequence[LatticeVector], dim: int) -> list[LatticeVector]:
    """Extreme rays of the pointed cone {x : <x,u_i> >= 0 for all i}, primitive and sorted.

    Each extreme ray spans the kernel of dim - 1 of the normals, so every such
    kernel vector, with either sign, that lies in the cone is one.
    """
    rays: set[LatticeVector] = set()
    for subset in itertools.combinations(normals, dim - 1):
        d = kernel_vector(subset, dim)
        if d is None:
            continue
        for cand in (d, tuple(-a for a in d)):
            if all(sum(map(mul, u, cand)) >= 0 for u in normals):
                rays.add(cand)
    return sorted(rays)


@lru_cache(maxsize=None)
def _recession_nontrivial(normals: tuple[LatticeVector, ...], dim: int) -> bool:
    """Whether {x : <x,u_i> >= 0 for all i} contains a nonzero vector.

    A kernel direction lies in it when the normals do not span; otherwise it
    is pointed and nontrivial exactly when it has an extreme ray.  It depends
    on the normals only, so every polytope of a family (one set of normals,
    moving offsets) shares one answer.
    """
    return matrix_rank(normals) < dim or bool(extreme_rays(normals, dim))


def _basic_solutions(rows: Sequence[IntRow], dim: int) -> Iterable[tuple[int, list[int]]]:
    """Every basic solution of integer rows (a, b): <a, x> = -b on each n-subset.

    One Bareiss elimination per subset with independent normals.  Yields
    (den, num) with x = num / den and den > 0, so a caller's integer
    feasibility test keeps its signs.
    """
    for subset in itertools.combinations(rows, dim):
        m = [[*a, -b] for a, b in subset]
        pivots, den, _sign = _bareiss(m, dim)
        if len(pivots) < dim:
            continue
        s = 1 if den > 0 else -1
        yield s * den, [s * row[dim] for row in m]


def _check_bounded(rows: Sequence[IntRow], dim: int, has_vertex: bool) -> None:
    """Raise UnboundedRegion if the intersection of the rows is unbounded.

    With a vertex it is bounded exactly when its recession cone is trivial;
    without one it is either empty or unbounded.
    """
    if has_vertex:
        if _recession_nontrivial(tuple(a for a, _b in rows), dim):
            raise UnboundedRegion("halfspace intersection is unbounded")
    elif _feasible(rows, dim):
        raise UnboundedRegion("nonempty intersection without vertices is unbounded")


def _feasible_vertices(
    solutions: Iterable[tuple[int, Sequence[int]]], rows: Sequence[IntRow], q: int
) -> tuple[list[LatticeVector], int]:
    """The basic solutions y = num / d (d > 0) feasible on the rows, as sorted vertices x = y / q.

    y = q * x solves <a, y> + b >= 0 in integers.  Each vertex is reduced to
    lowest terms, so the common denominator is the least one.
    """
    found: set[tuple[int, LatticeVector]] = set()
    for d, num in solutions:
        if all(sum(map(mul, a, num)) + b * d >= 0 for a, b in rows):
            d *= q
            g = gcd(d, *num)
            found.add((d // g, tuple(c // g for c in num)))
    den = lcm(*[d for d, _num in found])
    return sorted(tuple(c * (den // d) for c in num) for d, num in found), den


def _int_vertices(rows: Sequence[IntRow], q: int, dim: int) -> tuple[list[LatticeVector], int]:
    """The sorted vertices of {<a, x> + b / q >= 0}, as integers over one positive denominator.

    Raises UnboundedRegion when the intersection is nonempty but unbounded;
    no points means it is empty.
    """
    points, den = _feasible_vertices(_basic_solutions(rows, dim), rows, q)
    _check_bounded(rows, dim, bool(points))
    return points, den


def vertices_of(halfspaces: Sequence[Halfspace]) -> list[Point]:
    """Exact vertex set of a bounded halfspace intersection.

    The Fraction face of _int_vertices.  Raises UnboundedRegion when the
    intersection is nonempty but unbounded; an empty list means the
    intersection is empty.
    """
    halfspaces = list(halfspaces)
    if not halfspaces:
        raise UnboundedRegion("no halfspaces given")
    dim = len(halfspaces[0].normal)
    if any(len(hs.normal) != dim for hs in halfspaces):
        raise DimensionMismatch("halfspaces of mixed dimension")
    points, den = _int_vertices(*_int_rows(halfspaces), dim)
    return [tuple(Fraction(c, den) for c in p) for p in points]


@dataclass(frozen=True)
class Polytope:
    """Bounded rational polytope: deduplicated H-rep plus cached vertex set.

    Its integer form is written once, at construction: the halfspaces as
    `rows` over `q` (_int_rows) and the vertices as `points` over `den`
    (_int_points).  The triangulations read it.  Every Polytope is built by
    from_halfspaces, so its vertices are a function of its halfspaces and
    take no part in equality or the hash of a cache key.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Point, ...] = field(compare=False)
    dimension: int
    rows: list[IntRow] = field(init=False, repr=False, compare=False)
    q: int = field(init=False, repr=False, compare=False)
    points: list[LatticeVector] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows, q = _int_rows(self.halfspaces)
        points, den = _int_points(self.vertices)
        self.__dict__.update(rows=rows, q=q, points=points, den=den)

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[Halfspace]) -> Polytope:
        clean = _dedupe_halfspaces(halfspaces)
        verts = vertices_of(clean)
        dim = len(clean[0].normal)
        return cls(clean, tuple(verts), dim)

    @classmethod
    def from_points(cls, points: Sequence[Sequence]) -> Polytope:
        pts = [tuple(Fraction(c) for c in p) for p in points]
        if not pts:
            raise DegeneratePolytope("empty point set")
        dim = len(pts[0])
        if affine_rank(pts) < dim:
            raise DegeneratePolytope("point set is not full-dimensional")
        return cls.from_halfspaces(hull_halfspaces(pts))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def affine_dimension(self) -> int:
        return _int_affine_rank(self.points)

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dimension == self.dimension

    def contains(self, x: Sequence) -> bool:
        return all(hs.contains(x) for hs in self.halfspaces)

    def _support(self, extreme, u: Sequence) -> Fraction:
        """extreme (min or max) of <x, u> over the vertices: on their integer form, divided once."""
        if not self.points:
            raise DegeneratePolytope("empty polytope has no support values")
        return Fraction(extreme(sum(map(mul, num, u)) for num in self.points), self.den)

    def support_min(self, u: Sequence) -> Fraction:
        """min over the polytope of <x, u>; attained at a vertex."""
        return self._support(min, u)

    def support_max(self, u: Sequence) -> Fraction:
        """max over the polytope of <x, u>; attained at a vertex."""
        return self._support(max, u)


def hull_halfspaces(points: Sequence[Point]) -> list[Halfspace]:
    """Facet H-representation of the convex hull of a full-dimensional point set."""
    pts, den = _int_points([tuple(Fraction(c) for c in p) for p in points])
    dim = len(pts[0])
    rows: list[IntRow] = []
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


# --------------------------------------------------------------------------
# triangulation, volume, linear statistics
# --------------------------------------------------------------------------

def _tight_sets(
    rows: Sequence[IntRow], q: int, points: Sequence[LatticeVector], den: int
) -> list[frozenset[int]]:
    """For each row (a, b) of {<a, x> + b / q >= 0}, the indices of the points on its boundary.

    The points are x = num / den: num lies on the boundary of (a, b) exactly
    when <a, num> * q + b * den == 0.
    """
    return [
        frozenset(i for i, num in enumerate(points) if sum(map(mul, a, num)) * q + b * den == 0)
        for a, b in rows
    ]


def _facets(face: frozenset[int], tight: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """The facets of a face of a full-dimensional polytope, from the tight set of each row.

    Every facet of a face F is F & T for the tight set T of some facet of the
    polytope, and the maximal proper faces of F are its facets: they are the
    inclusion-maximal sets among the F & T other than F, in the order of
    their first row.
    """
    cuts = [cut for cut in dict.fromkeys(face & t for t in tight) if cut != face]
    return [cut for cut in cuts if not any(cut < other for other in cuts)]


def _pull(
    face: frozenset[int], dim: int, tight: Sequence[frozenset[int]], points: Sequence[LatticeVector]
) -> list[tuple[int, ...]]:
    """Pulling triangulation of a face of dimension dim, a set of indices into `points`.

    A face of dimension at most one is its own simplex, a vertex or an edge
    (lo, hi); a larger one is coned from its lex-least vertex over its facets
    that miss it.
    """
    if dim <= 1:
        return [tuple(sorted(face, key=points.__getitem__))]
    v0 = min(face, key=points.__getitem__)
    return [
        (v0, *simplex)
        for facet in _facets(face, tight)
        if v0 not in facet
        for simplex in _pull(facet, dim - 1, tight, points)
    ]


def _triangulate(
    rows: Sequence[IntRow], q: int, points: Sequence[LatticeVector], den: int, dim: int
) -> list[tuple[int, ...]]:
    """Simplices covering the polytope {<a, x> + b / q >= 0}, whose vertices are exactly points / den.

    A pulling triangulation on one vertex-facet incidence table, the tight
    set of every row: each simplex is a tuple of indices into `points`.  A
    nonempty polytope is full-dimensional exactly when no row is tight at
    every vertex (it has no implicit equality); otherwise there are no
    simplices.  The rows' normals must be nonzero.
    """
    tight = _tight_sets(rows, q, points, den)
    everything = frozenset(range(len(points)))
    if not points or everything in tight:
        return []
    return _pull(everything, dim, tight, points)


def facet_simplices(
    rows: Sequence[IntRow], q: int, points: Sequence[LatticeVector], den: int, dim: int,
    normals: Iterable[Sequence[int]],
) -> list[list[tuple[int, ...]]]:
    """Per normal, simplices covering the facet on the row with that normal, as indices into `points`.

    The polytope is {<a, x> + b / q >= 0}, whose vertices are exactly
    points / den, and its incidence table is computed once for all normals.
    A row's tight set is a facet exactly when the polytope is
    full-dimensional and the set is inclusion-maximal among the proper tight
    sets.  No simplices for a normal with no row, or whose row is not tight
    on a facet.
    """
    tight = _tight_sets(rows, q, points, den)
    everything = frozenset(range(len(points)))
    facets = [] if not points or everything in tight else _facets(everything, tight)
    on = {a: t for (a, _b), t in zip(rows, tight) if t in facets}
    return [_pull(on[u], dim - 1, tight, points) if u in on else [] for u in map(tuple, normals)]


def _simplex_dets(
    points: Sequence[LatticeVector], simplices: Iterable[Sequence[int]], fixed: Sequence = ()
) -> list[int]:
    """|det| of the edges of each simplex, indices into integer points, over the rows `fixed`."""
    out = []
    for simplex in simplices:
        base = points[simplex[0]]
        edges = [[a - b for a, b in zip(points[i], base)] for i in simplex[1:]] + list(fixed)
        pivots, pivot, _sign = _bareiss(edges, len(edges))
        out.append(abs(pivot) if len(pivots) == len(edges) else 0)
    return out


def facet_volumes(p: Polytope, normals: Sequence[Sequence[int]]) -> list[Fraction]:
    """Per normal, the lattice volume of the facet of p on its halfspace with it; 0 if there is none.

    Every facet is read from one incidence table.  A facet simplex with edges
    e_1, ..., e_{n-1} has (n-1)! times its lattice volume equal to
    |det(e_1, ..., e_{n-1}, normal)| / <normal, normal>; the edges are
    integers over p.den, so each facet's determinants are summed and divided
    once.
    """
    n = p.dimension
    scale = p.den ** (n - 1) * math.factorial(n - 1)
    return [
        Fraction(sum(_simplex_dets(p.points, simplices, [u])), scale * sum(a * a for a in u))
        for u, simplices in zip(normals, facet_simplices(p.rows, p.q, p.points, p.den, n, normals))
    ]


@lru_cache(maxsize=None)
def triangulation(p: Polytope) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Deterministic exact triangulation of a polytope; () unless it is full-dimensional.

    Each simplex is (|det| of its edges, its vertices as indices into
    p.points), so the determinants are eliminated once per polytope; a
    simplex's volume is |det| / (den^n * n!).
    """
    simplices = _triangulate(p.rows, p.q, p.points, p.den, p.dimension)
    return tuple(zip(_simplex_dets(p.points, simplices), simplices))


def _triangulated_volume(
    rows: Sequence[IntRow], q: int, points: Sequence[LatticeVector], den: int, dim: int
) -> Fraction:
    """n! times the volume of {<a, x> + b / q >= 0} with vertices points / den, by simplices."""
    return Fraction(sum(_simplex_dets(points, _triangulate(rows, q, points, den, dim))), den**dim)


def normalized_volume(rows: Sequence[IntRow], q: int, dim: int) -> Fraction:
    """n! times the volume of {<a, x> + b / q >= 0}; 0 when it is empty or lower-dimensional.

    The steps of Polytope.from_halfspaces and volume, on integers only: the
    rows deduped by primitive normal, every basis enumerated by
    _int_vertices, the vertices triangulated and the simplex determinants
    summed.  It builds no Halfspace, Polytope or Fraction vertex and leaves
    nothing in the volume and triangulation caches.  Raises UnboundedRegion
    when the intersection is unbounded.
    """
    rows = _dedupe_rows(rows)
    return _triangulated_volume(rows, q, *_int_vertices(rows, q, dim), dim)


@lru_cache(maxsize=None)
def volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume; 0 for empty or lower-dimensional polytopes.

    The integer simplex determinants are summed and divided once.
    """
    n = p.dimension
    return Fraction(sum(d for d, _simplex in triangulation(p)), p.den**n * math.factorial(n))


def linear_moment(p: Polytope, u: Sequence) -> Fraction:
    """Exact integral of x -> <x, u> over the polytope.

    Each simplex contributes its volume times <centroid, u>: the vertex sums
    are weighted by the integer determinants, and divided once.
    """
    n = p.dimension
    weighted = [0] * n
    for d, simplex in triangulation(p):
        for i in simplex:
            weighted = [w + d * c for w, c in zip(weighted, p.points[i])]
    return dot(weighted, u) / (p.den ** (n + 1) * math.factorial(n) * (n + 1))


def linear_stats(p: Polytope, u: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """(min, volume-average, max) of x -> <x, u> over a full-dimensional polytope."""
    vol = volume(p)
    if vol == 0:
        raise DegeneratePolytope("linear_stats requires positive volume")
    lo = p.support_min(u)
    hi = p.support_max(u)
    mean = linear_moment(p, u) / vol
    return lo, mean, hi


def lattice_points(p: Polytope) -> list[LatticeVector]:
    """All integer points of the polytope, lexicographically sorted."""
    if p.is_empty:
        return []
    n = p.dimension
    ranges = []
    for j in range(n):
        coords = [v[j] for v in p.vertices]
        ranges.append(range(math.ceil(min(coords)), math.floor(max(coords)) + 1))
    return [pt for pt in itertools.product(*ranges) if p.contains(pt)]


# --------------------------------------------------------------------------
# Minkowski sums and mixed volume
# --------------------------------------------------------------------------

def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Exact Minkowski sum, by eliminating y from {(z, y) : z - y in P, y in Q}."""
    if p.dimension != q.dimension:
        raise DimensionMismatch("Minkowski summands must share a dimension")
    n = p.dimension
    lifted: list[Halfspace] = []
    for hs in p.halfspaces:
        lifted.append(Halfspace(hs.normal + tuple(-a for a in hs.normal), hs.offset))
    for hs in q.halfspaces:
        lifted.append(Halfspace((0,) * n + hs.normal, hs.offset))
    rows, den = _int_rows(lifted)
    try:
        for d in range(2 * n, n, -1):
            rows = _fm_eliminate_last(rows, d)
    except _Infeasible as exc:
        raise DegeneratePolytope("Minkowski sum of an empty polytope") from exc
    return Polytope.from_halfspaces([Halfspace(a, Fraction(b, den)) for a, b in rows])


def mixed_volume(polytopes: Sequence[Polytope]) -> Fraction:
    """Normalized mixed volume with MV(P, ..., P) = n! * volume(P).

    Computed by inclusion-exclusion polarization over Minkowski sums of the
    input polytopes; exact, and exponential only in the ambient dimension.
    """
    n = len(polytopes)
    for p in polytopes:
        if p.dimension != n:
            raise DimensionMismatch(
                f"need {n} polytopes in dimension {n}, got dimension {p.dimension}"
            )
        if p.is_empty:
            raise DegeneratePolytope("mixed volume of an empty polytope")
    sums: dict[frozenset[int], Polytope] = {}

    def partial_sum(indices: frozenset[int]) -> Polytope:
        if indices not in sums:
            idx = sorted(indices)
            acc = polytopes[idx[0]]
            for i in idx[1:]:
                acc = minkowski_sum(acc, polytopes[i])
            sums[indices] = acc
        return sums[indices]

    total = Fraction(0)
    for size in range(1, n + 1):
        sign = (-1) ** (n - size)
        for combo in itertools.combinations(range(n), size):
            total += sign * volume(partial_sum(frozenset(combo)))
    return total


# --------------------------------------------------------------------------
# one-parameter families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParametricHalfspace:
    """The family {x : <x, normal> >= -(offset - t * rate)}."""

    normal: LatticeVector
    offset: Fraction
    rate: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", tuple(_as_int(a) for a in self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "rate", Fraction(self.rate))

    def at(self, t) -> Halfspace:
        return Halfspace(self.normal, self.offset - Fraction(t) * self.rate)


@dataclass(frozen=True)
class Chamber:
    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def sample_points(self, count: int) -> list[Fraction]:
        """count rationals strictly inside the chamber."""
        width = self.hi - self.lo
        return [self.lo + width * Fraction(i + 1, count + 1) for i in range(count)]


class _Hypograph:
    """Q = {(x, t) : <x, u_i> - d_i t + a_i >= 0, t >= 0}, whose slice at t is P_t.

    The family's rows in dimension n + 1, each scaled by k, the lcm of the
    rates' denominators, into an integer row (a, b) of {<a, (x, t)> + b / q
    >= 0}, then t >= 0.  Its vertices are the feasible basic solutions,
    integers over den with the height t last, enumerated once with no
    boundedness test: parametric_family reads the family's start, chambers
    and threshold off their heights and tests Q's recession cone itself.  Q
    is triangulated once, and its facets are read from one incidence table,
    each when first asked for.  No Polytope is built.
    """

    def __init__(self, halfspaces: Sequence[ParametricHalfspace]) -> None:
        self.dim = n = len(halfspaces[0].normal)
        k = lcm(*(hs.rate.denominator for hs in halfspaces))
        normals = [(*(k * a for a in hs.normal), -int(k * hs.rate)) for hs in halfspaces]
        offsets = [k * hs.offset for hs in halfspaces]
        self.rows, self.q = int_rows([*normals, (0,) * n + (1,)], [*offsets, 0])
        solutions = _basic_solutions(self.rows, n + 1)
        self.points, self.den = _feasible_vertices(solutions, self.rows, self.q)
        self.normals = [hs.normal for hs in halfspaces]
        self.heights = sorted({point[-1] for point in self.points})

    def _knotted(self, simplices, fixed=()) -> list[tuple[int, list[int]]]:
        dets = _simplex_dets(self.points, simplices, fixed)
        return [(d, sorted(self.points[i][-1] for i in s)) for d, s in zip(dets, simplices)]

    @cached_property
    def simplices(self) -> list[tuple[int, list[int]]]:
        """(|det|, sorted heights) of each simplex of Q."""
        return self._knotted(_triangulate(self.rows, self.q, self.points, self.den, self.dim + 1))

    @cached_property
    def facets(self) -> list[list[tuple[int, list[int]]]]:
        """Per row i, (|det(edges, (u_i, 0))|, sorted heights) of each simplex of its facet of Q.

        Rows sharing u_i bound P_t's facet on u_i in turn, so each gets the
        simplices of all their facets.
        """
        lifted = dict(zip((a for a, _b in self.rows), self.normals))  # one per row normal of Q
        facets = facet_simplices(self.rows, self.q, self.points, self.den, self.dim + 1, lifted)
        on: dict[LatticeVector, list] = {}
        for u, simplices in zip(lifted.values(), facets):
            on.setdefault(u, []).extend(self._knotted(simplices, [(*u, 0)]))
        return [on[u] for u in self.normals]


@dataclass(frozen=True)
class ParametricPolytope:
    """A one-parameter halfspace family with its exact chamber decomposition.

    `chambers` cover [0, t_max] in order; `t_max` is the exact feasibility
    threshold of the family.  `hypograph` is the family's (n+1)-polytope Q
    (_Hypograph), a function of its halfspaces that takes no part in
    equality or hashing.
    """

    halfspaces: tuple[ParametricHalfspace, ...]
    chambers: tuple[Chamber, ...]
    t_max: Fraction
    dimension: int
    hypograph: _Hypograph = field(repr=False, compare=False)

    def polytope_at(self, t) -> Polytope:
        return Polytope.from_halfspaces([hs.at(t) for hs in self.halfspaces])


def parametric_family(halfspaces: Sequence[Halfspace], rates: Sequence) -> ParametricPolytope:
    """Exact chamber decomposition of {<x,u_i> >= -(a_i - t d_i)} from t = 0.

    Everything is read off the vertices of the family's hypograph Q
    (_Hypograph), enumerated once.  Its slice at t = 0 is the start polytope,
    whose vertices are Q's at height 0: an empty start raises
    DegeneratePolytope and an unbounded one UnboundedRegion, the same tests
    as vertices_of.  A bounded start leaves Q's recession cone only
    directions (x, s) with s > 0, so Q is bounded exactly when no x has
    <x, u_i> >= d_i for every i (Fourier-Motzkin); otherwise the family is
    feasible for all large t, one that never moves included, and
    UnboundedRegion is raised.  The chambers run between consecutive vertex
    heights of Q, up to the top one, the feasibility threshold t_max: every
    vertex of P_t follows one affine path within a chamber.
    """
    if len(rates) != len(halfspaces):
        raise DimensionMismatch("one rate per halfspace required")
    phs = tuple(
        ParametricHalfspace(hs.normal, hs.offset, rate)
        for hs, rate in zip(halfspaces, rates)
    )
    dim = len(phs[0].normal)
    if any(len(hs.normal) != dim for hs in phs):
        raise DimensionMismatch("halfspaces of mixed dimension")
    hypograph = _Hypograph(phs)
    heights = hypograph.heights
    start = bool(heights) and heights[0] == 0
    _check_bounded(_int_rows(halfspaces)[0], dim, start)
    if not start:
        raise DegeneratePolytope("family is infeasible at the start parameter")
    # (x, 1) in Q's recession cone: Q's rows without their offsets, at height 1
    if _feasible([(a[:-1], a[-1]) for a, _b in hypograph.rows[:-1]], dim):
        raise UnboundedRegion("family remains feasible for arbitrarily large t")
    ends = [Fraction(h, hypograph.den) for h in heights]
    # t_max == 0: a single point of feasibility
    chambers = [Chamber(lo, hi) for lo, hi in zip(ends, ends[1:])] or [Chamber(ends[0], ends[0])]
    return ParametricPolytope(phs, tuple(chambers), ends[-1], dim, hypograph)
