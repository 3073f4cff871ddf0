"""Exact rational polytope kernel.

Vertex enumeration, volumes, linear statistics and one-parameter polytope
families, all in exact rational arithmetic.  Inputs are desk-scale
(dimension <= 4, a few dozen halfspaces), so every algorithm here prefers
exhaustive enumeration over clever pivoting.

Basic solutions, simplex determinants and extreme rays are maximal minors
of a few integer rows (_cross): cofactors in closed form up to three rows,
and one fraction-free Gauss-Jordan elimination of integer rows (Bareiss)
beyond, which also gives ranks.  Nothing divides into Fractions until the
end.
A system of halfspaces is written as integer rows (a, b) of
{<a, x> + b / q >= 0} over one common q, and a Polytope is this integer
form: one row per primitive normal, the binding one, over the least common
q, and its vertices as integers over one denominator.  Polytope.from_rows
is the one route from rows to a polytope: the dedupe, then one integer
enumeration (_int_vertices) of the feasible basic solutions with the
boundedness and emptiness tests.  from_halfspaces, vertices_of and toric's
section polytopes take it; a Polytope's Fraction halfspaces and vertices
are views for the API boundary.  The Fourier-Motzkin feasibility test runs
on the same rows.  A one-parameter family is its integer rows (a, b, c) of
{<a, x> + (b - t c) / q >= 0}, offsets and rates over one common q.  One
basic-solution loop serves both the vertices of a polytope and those of a
family's hypograph, the (n+1)-polytope whose slices are the family's
polytopes, on the rows ((q a, -c), b): a family enumerates its hypograph
once and reads its start, chambers and threshold off the vertex heights.
Whether a polytope is bounded depends on its facet normals only, so that
test is memoized on the normals and shared by every polytope of a family.

Triangulation, affine ranks and volumes run on the integer form.  A simplex
is a tuple of vertex indices everywhere: the triangulation reads one
vertex-facet incidence table per polytope, the tight set of every row, and
works on faces as sets of vertex indices, the facets of a face being its
maximal intersections with the tight sets.  _pulled and _row_facets read
only the table and the vertices, so a family's hypograph is triangulated
on its integer rows without a Polytope; its facets go per row, each to the
first row tight on it, and a facet is pulled only where it is read.  The cached triangulation pairs each simplex with
its integer determinant: volume sums these and divides once, as
facet_volumes does over each facet's simplices, and one integer pass
(triangulation_sums) gives the determinant sum with the weighted vertex
sums that linear_moment and the barycenter read.
normalized_volume is from_rows and the uncached _triangulation: n! times
the volume of integer rows, reading and filling no cache, against which a
family's chamber volume polynomials are checked.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from ._record import Record
from .errors import (
    DegeneratePolytope,
    DimensionMismatch,
    UnboundedRegion,
)

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


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows."""
    if not rows:
        return 0
    return len(_bareiss(list(rows), len(rows[0]))[0])


def _cross(rows: Sequence[Sequence[int]]) -> list[int]:
    """The k + 1 signed maximal minors of k integer rows of length k + 1.

    Component j is (-1)^j times the minor without column j, so <x, w> is the
    determinant of x stacked on the rows: w is orthogonal to every row, and
    zero exactly when the rows are dependent.  Cofactors in closed form up to
    three rows; beyond, the minors are read off _bareiss, the last pivot at
    the free column and the free column's entries at the pivot columns.
    """
    k = len(rows)
    if k == 0:
        return [1]
    if k == 1:
        (a, b), = rows
        return [b, -a]
    if k == 2:
        (r0, r1, r2), (s0, s1, s2) = rows
        return [r1 * s2 - r2 * s1, r2 * s0 - r0 * s2, r0 * s1 - r1 * s0]
    if k == 3:
        (r0, r1, r2, r3), (s0, s1, s2, s3), (t0, t1, t2, t3) = rows
        m01, m02, m03 = r0 * s1 - r1 * s0, r0 * s2 - r2 * s0, r0 * s3 - r3 * s0
        m12, m13, m23 = r1 * s2 - r2 * s1, r1 * s3 - r3 * s1, r2 * s3 - r3 * s2
        return [
            t1 * m23 - t2 * m13 + t3 * m12,
            t2 * m03 - t0 * m23 - t3 * m02,
            t0 * m13 - t1 * m03 + t3 * m01,
            t1 * m02 - t0 * m12 - t2 * m01,
        ]
    m = list(rows)
    pivots, pivot, sign = _bareiss(m, k + 1)
    if len(pivots) < k:
        return [0] * (k + 1)
    fc = next(c for c in range(k + 1) if c not in pivots)
    # the minor without column fc is sign * pivot
    s = sign if fc % 2 == 0 else -sign
    w = [0] * (k + 1)
    w[fc] = s * pivot
    for row, pc in zip(m, pivots):
        w[pc] = -s * row[fc]
    return w


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_affine_rank(points: Sequence[LatticeVector]) -> int:
    """Dimension of the affine hull of integer points (-1 when empty)."""
    if not points:
        return -1
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    return len(_bareiss(diffs, len(base))[0]) if diffs else 0


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


class Halfspace(Record):
    """The set {x : <x, normal> >= -offset} with an integer normal."""

    _fields = ("normal", "offset")

    def __init__(self, normal: LatticeVector, offset: Fraction) -> None:
        fields = self.__dict__
        fields["normal"] = normal = tuple(_as_int(a) for a in normal)
        fields["offset"] = Fraction(offset)
        if all(a == 0 for a in normal):
            raise ValueError("halfspace normal must be nonzero")

    def slack(self, x: Sequence) -> Fraction:
        return dot(self.normal, x) + self.offset


def int_rows(normals: Sequence[LatticeVector], offsets: Sequence) -> tuple[list[IntRow], int]:
    """Rows (a, b) of {<a, x> + b / q >= 0}, one per normal and rational offset, over one q."""
    scaled, q = _over_lcm(offsets)
    return list(zip(normals, scaled)), q


def _binding_rows(rows: Iterable[IntRow]) -> dict[LatticeVector, tuple[IntRow, int]]:
    """Per primitive normal, first seen first: its binding row (least offset / content) and content."""
    best: dict[LatticeVector, tuple[IntRow, int]] = {}
    for a, b in rows:
        g = content(a)
        if g == 0:
            continue
        key = tuple(x // g for x in a)
        kept = best.get(key)
        if kept is None or b * kept[1] < kept[0][1] * g:
            best[key] = ((a, b), g)
    return best


def _dedupe_rows(rows: Iterable[IntRow]) -> list[IntRow]:
    """The binding rows of _binding_rows as given, over the rows' q; zero normals are dropped."""
    return [row for row, _g in _binding_rows(rows).values()]


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

    Each extreme ray spans the kernel of dim - 1 independent normals, the
    line of their maximal minors (_cross), so every such nonzero cross
    product, with either sign, that lies in the cone is one.
    """
    rays: set[LatticeVector] = set()
    for subset in itertools.combinations(normals, dim - 1):
        w = _cross(subset)
        if not any(w):
            continue
        d = make_primitive(w)
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

    By Cramer's rule: the maximal minors w of the subset's rows (*a, b)
    (_cross) span their kernel, which holds (x, 1), so x = w[:n] / w[n], and
    w[n] = +-det A vanishes exactly when the normals are dependent, a subset
    that is skipped.  Yields (den, num) with x = num / den and den > 0, so a
    caller's integer feasibility test keeps its signs.
    """
    for subset in itertools.combinations(rows, dim):
        w = _cross([(*a, b) for a, b in subset])
        den = w[dim]
        if den:
            s = 1 if den > 0 else -1
            yield s * den, [s * c for c in w[:dim]]


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


class Polytope(Record):
    """Bounded rational polytope {<a, x> + b / q >= 0}: integer rows, and vertices `points` over `den`.

    `rows` holds one row per primitive normal, the binding one, in first-seen
    order over the least common `q`; equality and the hash read them alone.
    Every Polytope is built by from_rows.  `halfspaces` and `vertices` are
    Fraction views, built when first read.
    """

    _fields = ("rows", "q", "dimension", "points", "den")
    _compared = ("rows", "q", "dimension")

    def __init__(self, rows: tuple[IntRow, ...], q: int, dimension: int,
                 points: tuple[LatticeVector, ...], den: int) -> None:
        fields = self.__dict__
        fields["rows"] = rows
        fields["q"] = q
        fields["dimension"] = dimension
        fields["points"] = points
        fields["den"] = den

    @classmethod
    def from_rows(cls, rows: Iterable[IntRow], q: int, dim: int) -> Polytope:
        """The polytope of integer rows (a, b) of {<a, x> + b / q >= 0} in dimension dim.

        The rows are deduped by primitive normal (_binding_rows), each kept
        as its primitive normal with the offsets put over their least common
        denominator, and the vertices enumerated once (_int_vertices).
        Raises ValueError on a zero normal and UnboundedRegion when the
        intersection is nonempty but unbounded; no points means it is empty.
        """
        rows = list(rows)
        if not all(any(a) for a, _b in rows):
            raise ValueError("halfspace normal must be nonzero")
        kept = []
        for normal, ((_a, b), g) in _binding_rows(rows).items():
            h = gcd(b, q * g)
            # the primitive normal, and b / (q g) in lowest terms
            kept.append((normal, b // h, q * g // h))
        q = lcm(*(d for _a, _b, d in kept))
        rows = tuple((a, b * (q // d)) for a, b, d in kept)
        points, den = _int_vertices(rows, q, dim)
        return cls(rows, q, dim, tuple(points), den)

    @classmethod
    def from_halfspaces(cls, halfspaces: Sequence[Halfspace]) -> Polytope:
        halfspaces = list(halfspaces)
        if not halfspaces:
            raise UnboundedRegion("no halfspaces given")
        dim = len(halfspaces[0].normal)
        if any(len(hs.normal) != dim for hs in halfspaces):
            raise DimensionMismatch("halfspaces of mixed dimension")
        rows, q = int_rows([hs.normal for hs in halfspaces], [hs.offset for hs in halfspaces])
        return cls.from_rows(rows, q, dim)

    @cached_property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        return tuple(Halfspace(a, Fraction(b, self.q)) for a, b in self.rows)

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(tuple(Fraction(c, self.den) for c in p) for p in self.points)

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def affine_dimension(self) -> int:
        return _int_affine_rank(self.points)

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dimension == self.dimension

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


def vertices_of(halfspaces: Sequence[Halfspace]) -> list[Point]:
    """Exact vertex set of a bounded halfspace intersection, sorted: the vertices of from_halfspaces.

    Raises UnboundedRegion when the intersection is nonempty but unbounded;
    an empty list means the intersection is empty.
    """
    return list(Polytope.from_halfspaces(halfspaces).vertices)


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


def _pulled(
    tight: Sequence[frozenset[int]], points: Sequence[LatticeVector], dim: int
) -> list[tuple[int, ...]]:
    """Simplices covering a polytope whose vertices are exactly `points`, off its incidence table.

    A pulling triangulation on `tight`, the tight set of every row (a
    nonzero normal each): each simplex is a tuple of indices into `points`.
    A nonempty polytope is full-dimensional exactly when no row is tight at
    every vertex (it has no implicit equality); otherwise there are no
    simplices.
    """
    everything = frozenset(range(len(points)))
    if not points or everything in tight:
        return []
    return _pull(everything, dim, tight, points)


def _row_facets(
    tight: Sequence[frozenset[int]], points: Sequence[LatticeVector],
) -> list[frozenset[int] | None]:
    """Per row, the facet on it as a set of indices into `points`, or None.

    `tight` is the polytope's incidence table, the tight set of each of its
    rows.  A row's tight set is a facet exactly when the polytope is
    full-dimensional and the set is inclusion-maximal among the proper tight
    sets.  Each facet goes to the first row tight on it; every other row
    gets None.  A caller pulls (_pull) only the facets it reads.
    """
    everything = frozenset(range(len(points)))
    facets = set() if not points or everything in tight else set(_facets(everything, tight))
    out = []
    for t in tight:
        out.append(t if t in facets else None)
        facets.discard(t)
    return out


def _simplex_dets(
    points: Sequence[LatticeVector], simplices: Iterable[Sequence[int]], fixed: Sequence = ()
) -> list[int]:
    """|det| of the edges of each simplex, indices into integer points, over the rows `fixed`.

    The determinant of the rows E_0, ..., E_{k-1} is <E_0, _cross(E_1, ..., E_{k-1})>.
    """
    out = []
    fixed = list(fixed)
    for simplex in simplices:
        base = points[simplex[0]]
        first, *edges = [[a - b for a, b in zip(points[i], base)] for i in simplex[1:]] + fixed
        out.append(abs(sum(map(mul, first, _cross(edges)))))
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
    tight = _tight_sets(p.rows, p.q, p.points, p.den)
    on = dict(zip((a for a, _b in p.rows), _row_facets(tight, p.points)))
    out = []
    for u in normals:
        facet = on.get(tuple(u))
        simplices = [] if facet is None else _pull(facet, n - 1, tight, p.points)
        out.append(Fraction(sum(_simplex_dets(p.points, simplices, [u])), scale * sum(a * a for a in u)))
    return out


def _triangulation(p: Polytope) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Deterministic exact triangulation of a polytope; () unless it is full-dimensional.

    Each simplex is (|det| of its edges, its vertices as indices into
    p.points), so the determinants are eliminated once per polytope; a
    simplex's volume is |det| / (den^n * n!).
    """
    simplices = _pulled(_tight_sets(p.rows, p.q, p.points, p.den), p.points, p.dimension)
    return tuple(zip(_simplex_dets(p.points, simplices), simplices))


triangulation = lru_cache(maxsize=None)(_triangulation)


def normalized_volume(rows: Sequence[IntRow], q: int, dim: int) -> Fraction:
    """n! times the volume of {<a, x> + b / q >= 0}; 0 when it is empty or lower-dimensional.

    The polytope of from_rows, triangulated by the uncached _triangulation,
    so it reads and fills neither the volume nor the triangulation cache.
    Raises UnboundedRegion when the intersection is unbounded.
    """
    p = Polytope.from_rows(rows, q, dim)
    return Fraction(sum(d for d, _simplex in _triangulation(p)), p.den**dim)


@lru_cache(maxsize=None)
def volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume; 0 for empty or lower-dimensional polytopes.

    The integer simplex determinants are summed and divided once.
    """
    n = p.dimension
    return Fraction(sum(d for d, _simplex in triangulation(p)), p.den**n * math.factorial(n))


def triangulation_sums(p: Polytope) -> tuple[int, LatticeVector]:
    """(sum |det|, sum |det| * vertex sum) over the cached triangulation, in one integer pass.

    These are n! den^n vol(p) and (n + 1)! den^(n+1) int_p x dx: a
    simplex's integral of x is its volume times its centroid.
    """
    total, weighted = 0, [0] * p.dimension
    for d, simplex in triangulation(p):
        total += d
        sums = map(sum, zip(*(p.points[i] for i in simplex)))
        weighted = [w + d * s for w, s in zip(weighted, sums)]
    return total, tuple(weighted)


def linear_moment(p: Polytope, u: Sequence) -> Fraction:
    """Exact integral of x -> <x, u> over the polytope, off triangulation_sums, divided once."""
    n = p.dimension
    return dot(triangulation_sums(p)[1], u) / (p.den ** (n + 1) * math.factorial(n + 1))


def linear_stats(p: Polytope, u: Sequence) -> tuple[Fraction, Fraction, Fraction]:
    """(min, volume-average, max) of x -> <x, u> over a full-dimensional polytope."""
    vol = volume(p)
    if vol == 0:
        raise DegeneratePolytope("linear_stats requires positive volume")
    lo = p.support_min(u)
    hi = p.support_max(u)
    mean = linear_moment(p, u) / vol
    return lo, mean, hi


# --------------------------------------------------------------------------
# one-parameter families
# --------------------------------------------------------------------------

FamilyRow = tuple[LatticeVector, int, int]  # (a, b, c): <a, x> + (b - t c) / q >= 0 over a shared q


class Chamber(Record):
    _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        fields = self.__dict__
        fields["lo"] = lo
        fields["hi"] = hi

    def sample_points(self, count: int) -> list[Fraction]:
        """count rationals strictly inside the chamber."""
        width = self.hi - self.lo
        return [self.lo + width * Fraction(i + 1, count + 1) for i in range(count)]


def _knotted_simplices(heights: Sequence[int], simplices) -> list[tuple[int, list[int]]]:
    """volume_fn's knotted simplices, (|det|, sorted heights), of (|det|, vertex indices)."""
    return [(d, sorted(heights[i] for i in s)) for d, s in simplices]


class _Hypograph:
    """Q = {(x, t) : <a_i, x> + (b_i - t c_i) / q >= 0, t >= 0}, whose slice at t is P_t.

    The family's rows (a, b, c) over q in dimension n + 1, each the integer
    row ((q a, -c), b) of {<(q a, -c), (x, t)> + b >= 0}, then t >= 0.  Its
    vertices are the feasible basic solutions, in lowest terms over den with
    the height t last, enumerated once with no boundedness test:
    parametric_family reads the family's start, chambers and threshold off
    their heights and tests Q's recession cone itself.  Q is triangulated
    once and its facets are read once, each when first asked for, both off
    one incidence table and both as knotted simplices over den
    (_knotted_simplices).  No Polytope is built.
    """

    def __init__(self, rows: Sequence[FamilyRow], q: int, n: int) -> None:
        self.dim = n
        self.rows = [((*(q * x for x in a), -c), b) for a, b, c in rows]
        self.rows.append(((0,) * n + (1,), 0))
        solutions = _basic_solutions(self.rows, n + 1)
        self.points, self.den = _feasible_vertices(solutions, self.rows, 1)
        self.normals = [a for a, _b, _c in rows]
        self.heights = sorted({point[-1] for point in self.points})

    def _knotted(self, simplices, fixed=()) -> list[tuple[int, list[int]]]:
        dets = _simplex_dets(self.points, simplices, fixed)
        return _knotted_simplices([point[-1] for point in self.points], zip(dets, simplices))

    @cached_property
    def _tight(self) -> list[frozenset[int]]:
        """Q's incidence table, the tight set of every row, read by its simplices and its facets."""
        return _tight_sets(self.rows, 1, self.points, self.den)

    @cached_property
    def simplices(self) -> list[tuple[int, list[int]]]:
        """(|det|, sorted heights) of each simplex of Q."""
        return self._knotted(_pulled(self._tight, self.points, self.dim + 1))

    @cached_property
    def facets(self) -> list[list[tuple[int, list[int]]]]:
        """Per row i, (|det(edges, (u_i, 0))|, sorted heights) of each simplex of its facet of Q.

        Rows sharing u_i bound P_t's facet on u_i in turn, each with the
        facet of Q it is tight on; a facet on which several rows are tight,
        as on a repeated row, goes to the first of them.
        """
        tight = self._tight
        return [
            self._knotted([] if facet is None else _pull(facet, self.dim, tight, self.points), [(*u, 0)])
            for u, facet in zip(self.normals, _row_facets(tight, self.points))
        ]


class ParametricPolytope(Record):
    """A one-parameter family {<a, x> + (b - t c) / q >= 0} with its exact chamber decomposition.

    `rows` holds one integer row (a, b, c) per halfspace, in the given
    order, over `q`, the least common denominator of every offset b / q and
    rate c / q.  `chambers` cover [0, t_max] in order; `t_max` is the exact
    feasibility threshold of the family.  `hypograph` is the family's
    (n+1)-polytope Q (_Hypograph), a function of its rows that takes no part
    in equality, hashing or repr.
    """

    _fields = ("rows", "q", "chambers", "t_max", "dimension", "hypograph")
    _compared = _shown = ("rows", "q", "chambers", "t_max", "dimension")

    def __init__(self, rows: tuple[FamilyRow, ...], q: int, chambers: tuple[Chamber, ...],
                 t_max: Fraction, dimension: int, hypograph: _Hypograph) -> None:
        fields = self.__dict__
        fields["rows"] = rows
        fields["q"] = q
        fields["chambers"] = chambers
        fields["t_max"] = t_max
        fields["dimension"] = dimension
        fields["hypograph"] = hypograph


def parametric_family(halfspaces: Sequence[Halfspace], rates: Sequence) -> ParametricPolytope:
    """Exact chamber decomposition of {<x,u_i> >= -(a_i - t d_i)} from t = 0.

    The offsets a_i and rates d_i are put over one q once, as the rows
    (u_i, b_i, c_i) with a_i = b_i / q and d_i = c_i / q.  Everything is
    read off the vertices of the family's hypograph Q (_Hypograph),
    enumerated once.  Its slice at t = 0 is the start polytope, whose
    vertices are Q's at height 0: an empty start raises DegeneratePolytope
    and an unbounded one UnboundedRegion, the same tests as vertices_of, on
    the rows (u_i, b_i).  A bounded start leaves Q's recession cone only
    directions (x, s) with s > 0, so Q is bounded exactly when no x has
    <x, u_i> >= d_i for every i, the rows (u_i, -c_i) (Fourier-Motzkin);
    otherwise the family is feasible for all large t, one that never moves
    included, and UnboundedRegion is raised.  The chambers run between
    consecutive vertex heights of Q, up to the top one, the feasibility
    threshold t_max: every vertex of P_t follows one affine path within a
    chamber.
    """
    if len(rates) != len(halfspaces):
        raise DimensionMismatch("one rate per halfspace required")
    nums, q = _over_lcm([*(hs.offset for hs in halfspaces), *map(Fraction, rates)])
    dim = len(halfspaces[0].normal)
    if any(len(hs.normal) != dim for hs in halfspaces):
        raise DimensionMismatch("halfspaces of mixed dimension")
    rows = tuple((hs.normal, b, c) for hs, b, c in zip(halfspaces, nums, nums[len(halfspaces):]))
    hypograph = _Hypograph(rows, q, dim)
    heights = hypograph.heights
    start = bool(heights) and heights[0] == 0
    _check_bounded([(a, b) for a, b, _c in rows], dim, start)
    if not start:
        raise DegeneratePolytope("family is infeasible at the start parameter")
    if _feasible([(a, -c) for a, _b, c in rows], dim):
        raise UnboundedRegion("family remains feasible for arbitrarily large t")
    ends = [Fraction(h, hypograph.den) for h in heights]
    # t_max == 0: a single point of feasibility
    chambers = [Chamber(lo, hi) for lo, hi in zip(ends, ends[1:])] or [Chamber(ends[0], ends[0])]
    return ParametricPolytope(rows, q, tuple(chambers), ends[-1], dim, hypograph)
