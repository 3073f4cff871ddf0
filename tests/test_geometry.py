from __future__ import annotations

import collections
import itertools
import math
import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from toricstab import geometry
from toricstab.errors import DegeneratePolytope, UnboundedRegion
from toricstab.geometry import (
    Halfspace,
    ParametricHalfspace,
    Polytope,
    _dedupe_halfspaces,
    _feasible,
    _int_points,
    _int_rows,
    _recession_nontrivial,
    _tight_sets,
    affine_rank,
    facet_simplices,
    facet_volumes,
    hull_halfspaces,
    int_rows,
    kernel_vector,
    lattice_points,
    linear_moment,
    linear_stats,
    make_primitive,
    matrix_rank,
    minkowski_sum,
    mixed_volume,
    normalized_volume,
    parametric_family,
    triangulation,
    vertices_of,
    volume,
)

from oracles import (
    det,
    fraction_row_reduce,
    oracle_basis_paths,
    oracle_points,
    oracle_solve,
    oracle_walls,
    solve_linear,
)

P2_TRIANGLE = [Halfspace((1, 0), 1), Halfspace((0, 1), 1), Halfspace((-1, -1), 1)]
F1_QUAD = P2_TRIANGLE + [Halfspace((1, 1), 1)]


def poly(halfspaces) -> Polytope:
    return Polytope.from_halfspaces(halfspaces)


def test_vertices_of_p2_triangle():
    assert set(vertices_of(P2_TRIANGLE)) == {(-1, -1), (2, -1), (-1, 2)}


def test_vertices_of_interval():
    assert set(vertices_of([Halfspace((1,), 0), Halfspace((-1,), 1)])) == {(0,), (1,)}


def test_vertices_of_f1_quadrilateral():
    assert set(vertices_of(F1_QUAD)) == {(-1, 0), (-1, 2), (2, -1), (0, -1)}


def test_vertices_of_empty_is_empty_list():
    hs = [Halfspace((1, 0), -1), Halfspace((-1, 0), -1), Halfspace((0, 1), 0), Halfspace((0, -1), 1)]
    assert vertices_of(hs) == []


def test_vertices_of_unbounded_raises():
    with pytest.raises(UnboundedRegion):
        vertices_of([Halfspace((1, 0), 0), Halfspace((0, 1), 0)])
    # nonempty strip without vertices
    with pytest.raises(UnboundedRegion):
        vertices_of([Halfspace((0, 1), 0), Halfspace((0, -1), 1)])


def test_volume_triangle():
    assert volume(poly(P2_TRIANGLE)) == Q(9, 2)


def test_volume_empty_and_lower_dimensional():
    empty = poly([Halfspace((1, 0), -1), Halfspace((-1, 0), -1), Halfspace((0, 1), 0), Halfspace((0, -1), 0)])
    assert volume(empty) == 0
    segment = poly([Halfspace((1, 0), 0), Halfspace((-1, 0), 1), Halfspace((0, 1), 0), Halfspace((0, -1), 0)])
    assert volume(segment) == 0


def test_volume_quadrilateral():
    assert volume(poly(F1_QUAD)) == 4


def simplex_volume(simplex) -> Q:
    """|det(v_1 - v_0, ..., v_n - v_0)| / n! in Fractions."""
    rows = [[a - b for a, b in zip(v, simplex[0])] for v in simplex[1:]]
    return abs(det(rows)) / math.factorial(len(rows))


def vertex_simplices(p: Polytope) -> list[tuple]:
    """The simplices of triangulation(p) with their indices read as Fraction vertices."""
    return [tuple(p.vertices[i] for i in simplex) for _d, simplex in triangulation(p)]


def test_volume_invariant_under_coordinate_permutation():
    # independent simplicial decompositions must sum to the same volume
    p = poly(F1_QUAD)
    swapped = poly([Halfspace((u[1], u[0]), h.offset) for h in F1_QUAD for u in [h.normal]])
    assert volume(p) == volume(swapped)
    total = sum(simplex_volume(s) for s in vertex_simplices(p))
    assert total == volume(p)


def test_linear_stats_p2():
    assert linear_stats(poly(P2_TRIANGLE), (1, 0)) == (-1, 0, 2)


def test_linear_stats_zero_vector():
    assert linear_stats(poly(P2_TRIANGLE), (0, 0)) == (0, 0, 0)


def test_linear_stats_f1():
    assert linear_stats(poly(F1_QUAD), (1, 1)) == (-1, Q(1, 6), 1)


def test_linear_stats_degenerate():
    segment = poly([Halfspace((1, 0), 0), Halfspace((-1, 0), 1), Halfspace((0, 1), 0), Halfspace((0, -1), 0)])
    with pytest.raises(DegeneratePolytope):
        linear_stats(segment, (1, 0))


def sweep_mean(p: Polytope, u) -> Q:
    """Independent quadrature: layer-cake integral of the support slices."""
    lo = p.support_min(u)
    hi = p.support_max(u)
    hs = list(p.halfspaces) + [Halfspace(u, -lo)]
    rates = [Q(0)] * len(p.halfspaces) + [Q(1)]
    family = parametric_family(hs, rates)
    total = Q(0)
    for ch in family.chambers:
        xs = ch.sample_points(p.dimension + 1)
        ys = [volume(family.polytope_at(x)) for x in xs]
        from oracles import fit_polynomial

        total += fit_polynomial(xs, ys).integrate(ch.lo, ch.hi)
    return lo + total / volume(p)


def test_linear_stats_mean_matches_sweep_quadrature():
    rng = random.Random(11)
    for _ in range(10):
        pts = {(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(4, 8))}
        pts = list(pts)
        if len(pts) < 3:
            continue
        try:
            p = Polytope.from_points(pts)
        except DegeneratePolytope:
            continue
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u == (0, 0):
            u = (1, 0)
        _lo, mean, _hi = linear_stats(p, u)
        assert mean == sweep_mean(p, u)


def test_lattice_points_unit_square():
    square = poly([Halfspace((1, 0), 0), Halfspace((-1, 0), 1), Halfspace((0, 1), 0), Halfspace((0, -1), 1)])
    assert len(lattice_points(square)) == 4


def test_lattice_points_p2_triangle():
    assert len(lattice_points(poly(P2_TRIANGLE))) == 10


def test_lattice_points_empty():
    empty = poly([Halfspace((1, 0), -1), Halfspace((-1, 0), -1), Halfspace((0, 1), 0), Halfspace((0, -1), 1)])
    assert lattice_points(empty) == []


def test_roundtrip_vertices_to_halfspaces():
    for hs in (P2_TRIANGLE, F1_QUAD):
        p = poly(hs)
        again = Polytope.from_halfspaces(hull_halfspaces(list(p.vertices)))
        assert set(again.vertices) == set(p.vertices)


UNIT_SIMPLEX = [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), 1)]


def test_mixed_volume_diagonal_is_normalized_volume():
    s = poly(UNIT_SIMPLEX)
    assert mixed_volume([s, s]) == 1
    p = poly(P2_TRIANGLE)
    assert mixed_volume([p, p]) == 9


def random_polygon(rng: random.Random) -> Polytope:
    while True:
        pts = {(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 7))}
        try:
            return Polytope.from_points(sorted(pts))
        except DegeneratePolytope:
            continue


def test_mixed_volume_symmetry_and_multilinearity():
    rng = random.Random(23)
    for _ in range(6):
        p, q, r = (random_polygon(rng) for _ in range(3))
        assert mixed_volume([p, q]) == mixed_volume([q, p])
        pq = minkowski_sum(p, q)
        assert mixed_volume([pq, r]) == mixed_volume([p, r]) + mixed_volume([q, r])


def test_mixed_volume_3d_multilinearity():
    simplex = poly(
        [Halfspace(tuple(int(i == j) for j in range(3)), 0) for i in range(3)]
        + [Halfspace((-1, -1, -1), 1)]
    )
    slab = poly(
        [Halfspace(tuple(int(i == j) for j in range(3)), 0) for i in range(3)]
        + [Halfspace((-1, 0, 0), 2), Halfspace((0, -1, 0), 1), Halfspace((0, 0, -1), 1)]
    )
    box = poly(
        [Halfspace(tuple(int(i == j) for j in range(3)), 0) for i in range(3)]
        + [Halfspace(tuple(-int(i == j) for j in range(3)), 1) for i in range(3)]
    )
    combined = minkowski_sum(simplex, slab)
    assert mixed_volume([combined, box, box]) == mixed_volume(
        [simplex, box, box]
    ) + mixed_volume([slab, box, box])


def test_mixed_volume_3d_diagonal_and_symmetry():
    cube = poly(
        [Halfspace(tuple(int(i == j) for j in range(3)), 0) for i in range(3)]
        + [Halfspace(tuple(-int(i == j) for j in range(3)), 1) for i in range(3)]
    )
    simplex = poly(
        [Halfspace(tuple(int(i == j) for j in range(3)), 0) for i in range(3)]
        + [Halfspace((-1, -1, -1), 1)]
    )
    assert mixed_volume([cube, cube, cube]) == 6
    assert mixed_volume([simplex, simplex, simplex]) == 1
    assert (
        mixed_volume([cube, cube, simplex])
        == mixed_volume([cube, simplex, cube])
        == mixed_volume([simplex, cube, cube])
    )


def test_minkowski_sum_of_segments():
    seg_x = poly([Halfspace((1, 0), 0), Halfspace((-1, 0), 1), Halfspace((0, 1), 0), Halfspace((0, -1), 0)])
    seg_y = poly([Halfspace((0, 1), 0), Halfspace((0, -1), 1), Halfspace((1, 0), 0), Halfspace((-1, 0), 0)])
    assert volume(minkowski_sum(seg_x, seg_y)) == 1
    assert mixed_volume([seg_x, seg_y]) == 1


def inner_ends(family):
    """The chamber ends of a family strictly inside (0, t_max)."""
    return [ch.hi for ch in family.chambers[:-1]]


def test_parametric_family_p2():
    family = parametric_family(P2_TRIANGLE, [1, 0, 0])
    assert family.t_max == 3
    assert len(family.chambers) == 1
    bases = oracle_basis_paths(family.halfspaces, 2)
    assert oracle_walls(bases, family.t_max) == inner_ends(family) == []
    for t in (0, 1, 3):
        # (t-1, -1), (2, -1) and (t-1, 2-t), which meet at t = 3
        want = sorted({(t - 1, Q(-1)), (Q(2), Q(-1)), (t - 1, 2 - t)})
        assert oracle_points(bases, 0, 3, t) == want == list(family.polytope_at(t).vertices)


def test_parametric_family_zero_direction():
    # a family that never moves is feasible for all t
    with pytest.raises(UnboundedRegion):
        parametric_family(P2_TRIANGLE, [0, 0, 0])


def test_parametric_family_f1_threshold():
    family = parametric_family(F1_QUAD, [0, 0, 0, 1])
    assert family.t_max == 2


def test_parametric_volume_is_polynomial_per_chamber():
    from oracles import fit_polynomial

    for rates in ([1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 2]):
        family = parametric_family(F1_QUAD, rates)
        for ch in family.chambers:
            xs = ch.sample_points(7)
            ys = [volume(family.polytope_at(x)) for x in xs]
            fit = fit_polynomial(xs[:3], ys[:3])
            assert all(fit(x) == y for x, y in zip(xs, ys))


def test_chamber_paths_match_vertex_enumeration():
    # the oracle's walls are the chamber ends, and inside a chamber its paths are the vertices
    walls = 0
    for rates in ([1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 2]):
        family = parametric_family(F1_QUAD, rates)
        bases = oracle_basis_paths(family.halfspaces, 2)
        assert oracle_walls(bases, family.t_max) == inner_ends(family)
        walls += len(family.chambers) - 1
        for ch in family.chambers:
            for t in ch.sample_points(3):
                assert oracle_points(bases, ch.lo, ch.hi, t) == list(family.polytope_at(t).vertices)
    assert walls > 0


# --------------------------------------------------------------------------
# the fraction-free elimination against a Fraction Gauss-Jordan oracle
# --------------------------------------------------------------------------

def oracle_det(rows):
    _m, pivots, product = fraction_row_reduce(rows, len(rows))
    return product if len(pivots) == len(rows) else Q(0)


def oracle_kernel(rows, n):
    m, pivots, _product = fraction_row_reduce(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    x = [Q(0)] * n
    x[free[0]] = Q(1)
    for row, pc in zip(m, pivots):
        x[pc] = -row[free[0]]
    denom = lcm(*(a.denominator for a in x))
    return make_primitive([int(a * denom) for a in x])


entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Q, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)),
)


@st.composite
def matrices(draw, nrows, ncols):
    """Integer and rational matrices; a drawn flag makes one row depend on the others."""
    m = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=nrows - 1))
        weights = [draw(entries) for _ in range(nrows)]
        m[i] = [
            sum((w * row[j] for w, row, k in zip(weights, m, range(nrows)) if k != i), Q(0))
            for j in range(ncols)
        ]
    return m


sizes = st.integers(min_value=1, max_value=4)
square = sizes.flatmap(lambda n: matrices(n, n))
rectangular = st.tuples(sizes, sizes).flatmap(lambda rc: matrices(*rc))


@settings(max_examples=300, deadline=None)
@given(square)
def test_det_matches_fraction_elimination(m):
    assert det(m) == oracle_det(m)


@settings(max_examples=300, deadline=None)
@given(square.flatmap(lambda m: st.tuples(st.just(m), matrices(1, len(m)))))
def test_solve_linear_matches_fraction_elimination(system):
    m, (rhs,) = system
    assert solve_linear(m, rhs) == oracle_solve(m, rhs)


@settings(max_examples=300, deadline=None)
@given(rectangular)
def test_matrix_rank_matches_fraction_elimination(m):
    assert matrix_rank(m) == len(fraction_row_reduce(m, len(m[0]))[1])


@settings(max_examples=300, deadline=None)
@given(rectangular)
def test_kernel_vector_matches_fraction_elimination(m):
    # exact, sign included: the free coordinate stays positive
    assert kernel_vector(m, len(m[0])) == oracle_kernel(m, len(m[0]))


def test_kernel_vector_keeps_free_coordinate_positive():
    # the last pivot here is -1; the kernel must not take its sign
    assert kernel_vector([[1, -1, 0], [0, 0, -1]], 3) == (1, 1, 0)


# --------------------------------------------------------------------------
# the integer polytope kernel against the Fraction route it replaced
# --------------------------------------------------------------------------

def oracle_vertices(halfspaces):
    """vertices_of by Fraction solves and Fraction slack tests."""
    dim = len(halfspaces[0].normal)
    found = set()
    for subset in itertools.combinations(halfspaces, dim):
        x = solve_linear([hs.normal for hs in subset], [-hs.offset for hs in subset])
        if x is not None and all(hs.slack(x) >= 0 for hs in halfspaces):
            found.add(x)
    if found:
        if _recession_nontrivial(tuple(hs.normal for hs in halfspaces), dim):
            raise UnboundedRegion("halfspace intersection is unbounded")
        return sorted(found)
    if _feasible(_int_rows(halfspaces)[0], dim):
        raise UnboundedRegion("nonempty intersection without vertices is unbounded")
    return []


def oracle_tight(hs, vertices):
    return tuple(sorted(v for v in vertices if hs.slack(v) == 0))


def oracle_affine_rank(points):
    """affine_rank by Fraction differences."""
    if not points:
        return -1
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return matrix_rank(diffs) if diffs else 0


def oracle_pull(halfspaces, face, dim):
    """A pulling triangulation of a face on Fraction halfspaces: slack tests and affine ranks.

    The face is a sorted tuple of Fraction vertices, of dimension dim.  Up to
    dimension one it is its own simplex; otherwise it is coned from its least
    vertex over each facet that misses it, in the order of their first
    halfspace.  A facet is the face's points tight on a halfspace whose
    affine rank is dim - 1.
    """
    if dim <= 1:
        return [face]
    v0 = face[0]
    simplices, seen = [], set()
    for hs in halfspaces:
        facet = tuple(v for v in face if hs.slack(v) == 0)
        if v0 in facet or facet in seen or oracle_affine_rank(facet) != dim - 1:
            continue
        seen.add(facet)
        simplices += [(v0, *s) for s in oracle_pull(halfspaces, facet, dim - 1)]
    return simplices


def oracle_pulling(halfspaces, vertices, dim):
    """oracle_pull on the whole polytope; no simplices unless it is full-dimensional."""
    face = tuple(sorted(vertices))
    return oracle_pull(halfspaces, face, dim) if oracle_affine_rank(face) == dim else []


def oracle_triangulate(halfspaces, vertices, dim):
    """The projection triangulation on Fraction halfspaces: slack tests, substitution and lifting.

    The library triangulated this way before it read an incidence table; its
    simplices differ, but they cover the same volume.
    """
    if dim == 1:
        xs = sorted(v[0] for v in vertices)
        return [] if xs[0] == xs[-1] else [((xs[0],), (xs[-1],))]
    v0 = min(vertices)
    simplices, seen = [], set()
    for hs in halfspaces:
        if hs.slack(v0) == 0:
            continue
        tight = oracle_tight(hs, vertices)
        if len(tight) < dim or tight in seen:
            continue
        seen.add(tight)
        if oracle_affine_rank(tight) != dim - 1:
            continue
        simplices += [(v0,) + s for s in oracle_triangulate_facet(halfspaces, hs, tight, dim)]
    return simplices


def oracle_triangulate_facet(halfspaces, hs, tight, dim):
    if dim == 1:
        return [tuple(tight)]
    u, a = hs.normal, hs.offset
    k = max(range(dim), key=lambda j: abs(u[j]))
    s = 1 if u[k] > 0 else -1
    sub = []
    for other in halfspaces:
        w, b = other.normal, other.offset
        normal = tuple(s * (u[k] * w[j] - w[k] * u[j]) for j in range(dim) if j != k)
        if other is not hs and any(normal):
            sub.append(Halfspace(normal, s * (b * u[k] - a * w[k])))

    def lift(y):
        rest = sum((u[j] * c for c, j in zip(y, [j for j in range(dim) if j != k])), Q(0))
        return y[:k] + ((-a - rest) / u[k],) + y[k:]

    proj = [v[:k] + v[k + 1:] for v in tight]
    return [
        tuple(lift(y) for y in face)
        for face in oracle_triangulate(_dedupe_halfspaces(sub), proj, dim - 1)
    ]


offsets = st.builds(Q, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6))
positive_offsets = st.builds(Q, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=6))
# distinct large primes: a polytope's common denominator is the product of several
LARGE_PRIMES = (9973, 10007, 65521, 999983, 2147483647)
coprime_offsets = st.builds(
    Q, st.integers(min_value=1, max_value=12 * 2147483647), st.sampled_from(LARGE_PRIMES)
)


@st.composite
def halfspace_systems(draw, with_rates=False, bounded=False, coprime=False):
    """Small integer normals and rational offsets of mixed denominators in dimensions 1-4.

    A drawn flag adds a bounding simplex, so that bounded polytopes come next
    to unbounded and empty intersections.  With `bounded`, the simplex is
    always there and every offset is positive: a full-dimensional polytope
    around the origin.  With `coprime` too, the offsets have large coprime
    denominators, so vertices, tight sets and volumes run on big integers.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=6 - dim // 2))
    normals = [
        draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim)
             .filter(any))
        for _ in range(count)
    ]
    if bounded or draw(st.booleans()):
        normals += [[int(i == j) for j in range(dim)] for i in range(dim)] + [[-1] * dim]
    offset = (coprime_offsets if coprime else positive_offsets) if bounded else offsets
    hs = [Halfspace(u, draw(offset)) for u in normals]
    if not with_rates:
        return hs
    return hs, [draw(st.one_of(st.just(Q(0)), offsets)) for _ in hs]


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnboundedRegion:
        return UnboundedRegion


@settings(max_examples=300, deadline=None)
@given(halfspace_systems())
def test_vertices_of_matches_fraction_route(hs):
    assert outcome(vertices_of, hs) == outcome(oracle_vertices, hs)


def start_route(halfspaces):
    """The start of a family by vertex enumeration: the polytope, or the error type it raises."""
    try:
        start = Polytope.from_halfspaces(halfspaces)
    except UnboundedRegion:
        return UnboundedRegion
    return DegeneratePolytope if start.is_empty else start


CORNER = [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), 0)]


def closed(hs, rates, start):
    """The system closed by the slabs |<x, e_1>| <= r - t, r = 1 + max |v_1| over the start's vertices.

    The slabs are slack at t = 0, so the start is unchanged, and every
    family ends by t = r, those that grow with t too.
    """
    dim = len(hs[0].normal)
    r = 1 + max(abs(v[0]) for v in start.vertices)
    e1 = tuple(int(j == 0) for j in range(dim))
    slabs = [Halfspace(e1, r), Halfspace(tuple(-c for c in e1), r)]
    return hs + slabs, rates + [Q(1), Q(1)]


@settings(max_examples=200, deadline=None)
@given(halfspace_systems(with_rates=True))
# the triangle x + y <= t is born at t = 0 (every path starts there) or dies there
@example((CORNER, [Q(0), Q(0), Q(-1)]))
@example((CORNER, [Q(0), Q(0), Q(1)]))
def test_family_start_matches_vertex_enumeration(system):
    hs, rates = system
    phs = [ParametricHalfspace(h.normal, h.offset, r) for h, r in zip(hs, rates)]
    want = start_route([h.at(0) for h in phs])
    if isinstance(want, Polytope):
        hs, rates = closed(hs, rates, want)
    enumerated = []
    from_halfspaces = Polytope.from_halfspaces.__func__
    got = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "vertices_of", lambda h: enumerated.append(h) or vertices_of(h))
        mp.setattr(Polytope, "from_halfspaces",
                   classmethod(lambda cls, h: enumerated.append(h) or from_halfspaces(cls, h)))
        try:
            family = parametric_family(hs, rates)
        except (DegeneratePolytope, UnboundedRegion) as exc:
            got = type(exc)
    if want in (DegeneratePolytope, UnboundedRegion):
        assert got is want
        return
    assert got is None and not enumerated
    # the start's vertices are the hypograph's at height 0, and the oracle's paths at t = 0
    q = family.hypograph
    start = [tuple(Q(c, q.den) for c in p[:-1]) for p in q.points if p[-1] == 0]
    bases = oracle_basis_paths(family.halfspaces, len(hs[0].normal))
    assert start == oracle_points(bases, 0, 0, 0) == list(want.vertices)
    assert oracle_walls(bases, family.t_max) == inner_ends(family)
    if family.t_max == 0:
        # feasible at t = 0 only: the start polytope is not full-dimensional
        assert len(family.chambers) == 1 and not want.is_full_dimensional


@settings(max_examples=100, deadline=None)
# bounded systems too, so that most drawn starts are polytopes
@given(st.one_of(halfspace_systems(with_rates=True), halfspace_systems(with_rates=True, bounded=True)))
@example((CORNER, [Q(0), Q(0), Q(-1)]))
# x >= t - 1 meets y <= 1 and x + y <= 1 at (0, 1) when t = 1, inside (0, t_max = 2)
@example((P2_TRIANGLE + [Halfspace((0, -1), 1)], [Q(1), Q(0), Q(0), Q(0)]))
def test_family_chambers_tile_the_window(system):
    hs, rates = system
    start = start_route(hs)
    assume(isinstance(start, Polytope))
    family = parametric_family(*closed(hs, rates, start))
    ends = [(ch.lo, ch.hi) for ch in family.chambers]
    assert ends[0][0] == 0 and ends[-1][1] == family.t_max
    assert all(hi == lo for (_lo, hi), (lo, _hi) in zip(ends, ends[1:]))
    bases = oracle_basis_paths(family.halfspaces, family.dimension)
    assert oracle_walls(bases, family.t_max) == inner_ends(family)
    for ch in family.chambers:
        if ch.lo == ch.hi:
            continue
        mid = ch.midpoint()
        # the paths feasible on the whole chamber are its vertices inside and among them at its ends
        assert oracle_points(bases, ch.lo, ch.hi, mid) == list(family.polytope_at(mid).vertices)
        for t in (ch.lo, ch.hi):
            vertices = set(family.polytope_at(t).vertices)
            assert set(oracle_points(bases, ch.lo, ch.hi, t)) <= vertices


bounded_systems = st.one_of(
    halfspace_systems(bounded=True), halfspace_systems(bounded=True, coprime=True)
)


def facet_dets(simplices, u):
    """Summed |det(edges, u)| of Fraction facet simplices: (n-1)! <u, u> times their lattice volume."""
    return sum((abs(det([[a - b for a, b in zip(v, s[0])] for v in s[1:]] + [u])) for s in simplices), Q(0))


def check_triangulation(p):
    """The triangulation and facet simplices of p against the Fraction pulling oracle.

    The library's tight sets must be the slack-tested ones, read once by the
    triangulation and once for all facets; its simplices must be the
    oracle's, and cover the volume and facet volumes of the projection
    oracle.  Returns the simplices.
    """
    calls = []

    def checked(rows, q, points, den):
        got = _tight_sets(rows, q, points, den)
        verts = [tuple(Q(c, den) for c in num) for num in points]
        assert got == [
            {i for i, v in enumerate(verts) if Halfspace(a, Q(b, q)).slack(v) == 0} for a, b in rows
        ]
        calls.append(len(rows))
        return got

    normals = [hs.normal for hs in p.halfspaces]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_tight_sets", checked)
        simplices = geometry._triangulate(*_int_rows(p.halfspaces), *_int_points(p.vertices), p.dimension)
        facets = facet_simplices(p.rows, p.q, p.points, p.den, p.dimension, normals)
    assert calls == [len(p.halfspaces)] * 2
    n = p.dimension
    full = oracle_affine_rank(p.vertices) == n
    got = [tuple(p.vertices[i] for i in simplex) for simplex in simplices]
    assert got == oracle_pulling(p.halfspaces, p.vertices, n)
    assert bool(got) == full
    if full:
        assert vertex_simplices(p) == got
        assert sum(map(simplex_volume, got)) == sum(
            map(simplex_volume, oracle_triangulate(p.halfspaces, p.vertices, n)))
    for hs, on_facet, area in zip(p.halfspaces, facets, facet_volumes(p, normals)):
        u = hs.normal
        tight = oracle_tight(hs, p.vertices)
        facet = full and oracle_affine_rank(tight) == n - 1
        want = oracle_pull(p.halfspaces, tight, n - 1) if facet else []
        assert [tuple(p.vertices[i] for i in simplex) for simplex in on_facet] == want
        assert area == facet_dets(want, u) / (sum(a * a for a in u) * math.factorial(n - 1))
        if facet:
            assert facet_dets(want, u) == facet_dets(oracle_triangulate_facet(p.halfspaces, hs, tight, n), u)
    return simplices


@settings(max_examples=100, deadline=None)
@given(bounded_systems)
def test_triangulation_tight_sets_match_slack_route(halfspaces):
    p = poly(halfspaces)
    assert p.is_full_dimensional and check_triangulation(p)


@st.composite
def flat_systems(draw):
    """A bounded system of bounded_systems cut to the hyperplane <u, x> = level by two opposite rows.

    u is a row's normal or a small vector, and the level a vertex height or a
    height strictly between the least and the greatest, so the cut is not
    empty: a flat face of the polytope, or a slice through its interior.
    """
    hs = draw(bounded_systems)
    vertices = vertices_of(hs)
    dim = len(hs[0].normal)
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim).filter(any)
    u = draw(st.one_of(st.sampled_from([h.normal for h in hs]), vector.map(tuple)))
    heights = [sum(a * x for a, x in zip(u, v)) for v in vertices]
    lo, hi = min(heights), max(heights)
    level = draw(st.one_of(
        st.sampled_from(heights),
        st.builds(lambda k: lo + (hi - lo) * Q(k, 7), st.integers(min_value=1, max_value=6)),
    ))
    return hs + [Halfspace(u, -level), Halfspace(tuple(-a for a in u), level)]


@settings(max_examples=100, deadline=None)
@given(flat_systems())
def test_flat_systems_have_no_simplices(halfspaces):
    p = poly(halfspaces)
    assert not p.is_empty and not p.is_full_dimensional
    assert check_triangulation(p) == [] and volume(p) == 0


def cube(dim):
    return [Halfspace(tuple(s * int(i == j) for j in range(dim)), 1) for i in range(dim) for s in (1, -1)]


def cross_polytope(dim):
    return [Halfspace(signs, 1) for signs in itertools.product((1, -1), repeat=dim)]


def pyramid(dim):
    """The pyramid over the cube [-1, 1]^(dim-1) with apex e_dim: every base facet meets at the apex."""
    top = tuple(int(j == dim - 1) for j in range(dim))
    sides = [
        tuple(-s * int(i == j) - t for j, t in enumerate(top)) for i in range(dim - 1) for s in (1, -1)
    ]
    return [Halfspace(top, 0)] + [Halfspace(u, 1) for u in sides]


def flat(halfspaces, u, level):
    return halfspaces + [Halfspace(u, -level), Halfspace(tuple(-a for a in u), level)]


# non-simple polytopes, and flat cuts: a facet, a vertex, a slice through the interior
PINNED_SYSTEMS = [
    shape(dim) for dim in (2, 3, 4) for shape in (cube, cross_polytope, pyramid)
] + [
    flat(shape(dim), (1,) + (0,) * (dim - 1), level)
    for dim in (2, 3, 4) for shape in (cube, cross_polytope) for level in (0, Q(1, 2), 1)
] + [flat(pyramid(dim), tuple(int(j == dim - 1) for j in range(dim)), level)
     for dim in (2, 3, 4) for level in (0, Q(1, 3), 1)]


@pytest.mark.parametrize("halfspaces", PINNED_SYSTEMS)
def test_triangulation_of_pinned_systems(halfspaces):
    check_triangulation(poly(halfspaces))


def test_pinned_volumes():
    assert [volume(poly(shape(4))) for shape in (cube, cross_polytope, pyramid)] == [16, Q(2, 3), 2]
    assert volume(poly(flat(cube(4), (1, 0, 0, 0), 0))) == 0
    # the lex-least vertex of the cross-polytope is on 8 of its 16 facets, and
    # it is coned over the other 8, each a simplex
    assert len(triangulation(poly(cross_polytope(4)))) == 8


def test_facet_volume_is_zero_off_the_row_normals():
    # neither (1, 1) nor (2, 0) is the normal of a row of the square
    p = poly(cube(2))
    assert facet_volumes(p, [(1, 1), (2, 0), (1, 0), (0, -1)]) == [0, 0, 2, 2]
    simplices = facet_simplices(p.rows, p.q, p.points, p.den, 2, [(1, 1), (2, 0), (1, 0)])
    assert [len(s) for s in simplices] == [0, 0, 1]


def test_triangulation_reads_one_incidence_table():
    # the triangulation reads the tight sets once per polytope, and no face
    # of the recursion runs a rank test or a dedupe; the one dedupe of
    # normalized_volume is of the input rows, before the vertex enumeration
    # and the triangulation
    hs = cross_polytope(4) + [Halfspace((1, 1, 0, 0), Q(1, 2))]
    p = poly(hs)
    want = 24 * volume(p)
    counts = collections.Counter()

    def counted(name):
        real = getattr(geometry, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_tight_sets", "_int_affine_rank", "_dedupe_rows"):
            mp.setattr(geometry, name, counted(name))
        assert len(triangulation.__wrapped__(p)) > 8
        assert counts == {"_tight_sets": 1}
        counts.clear()
        assert normalized_volume(*_int_rows(hs), 4) == want
        assert counts == {"_tight_sets": 1, "_dedupe_rows": 1}


@settings(max_examples=100, deadline=None)
@given(bounded_systems, st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_volume_and_moment_match_simplex_volumes(halfspaces, u):
    p = poly(halfspaces)
    u = u[: p.dimension]
    simplices = vertex_simplices(p)
    assert volume(p) == sum((simplex_volume(s) for s in simplices), Q(0)) > 0
    assert linear_moment(p, u) == sum(
        (simplex_volume(s) * sum(a * x for a, x in zip(u, v)) / len(s) for s in simplices for v in s),
        Q(0),
    )


@settings(max_examples=200, deadline=None)
@given(st.one_of(rectangular, bounded_systems.map(lambda hs: vertices_of(hs))))
def test_affine_rank_matches_fraction_differences(points):
    assert affine_rank(points) == oracle_affine_rank(points)


# --------------------------------------------------------------------------
# the integer volume of the independent checks against the Polytope route
# --------------------------------------------------------------------------

@st.composite
def volume_systems(draw):
    """Systems in dimension 2 or 3 with repeated and non-primitive normals.

    Drawn flags add a bounding simplex around the origin, three times in four
    (the system is then a polytope or empty); a slice row on the normal of a
    drawn row, a facet normal whenever that row is a facet, binding or not;
    and the reverse of a drawn row, which leaves a lower-dimensional or empty
    intersection.  About a third each come out bounded and unbounded.
    """
    dim = draw(st.integers(min_value=2, max_value=3))
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim).filter(any)
    normals = draw(st.lists(vector, min_size=1, max_size=4))
    for k in draw(st.lists(st.integers(min_value=1, max_value=3), max_size=2)):
        normals.append([k * a for a in draw(st.sampled_from(normals))])
    hs = [Halfspace(u, draw(offsets)) for u in normals]
    if draw(st.integers(min_value=0, max_value=3)):
        simplex = [[int(i == j) for j in range(dim)] for i in range(dim)] + [[-1] * dim]
        hs += [Halfspace(u, draw(positive_offsets)) for u in simplex]
    if draw(st.booleans()):
        hs.append(Halfspace(draw(st.sampled_from(hs)).normal, draw(offsets)))
    if draw(st.booleans()):
        flip = draw(st.sampled_from(hs))
        hs.append(Halfspace(tuple(-a for a in flip.normal), -flip.offset))
    return hs


def polytope_volume(hs):
    """n! * volume of the Polytope built from the halfspaces."""
    return math.factorial(len(hs[0].normal)) * volume(Polytope.from_halfspaces(hs))


TRIANGLE = [Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((-1, -1), 2)]
UNIT_CUBE = [Halfspace(u, 0) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] + [
    Halfspace(u, 1) for u in ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
]


@settings(max_examples=300, deadline=None)
@given(volume_systems())
# slice rows on a facet normal, non-primitive: binding, and slack
@example(TRIANGLE + [Halfspace((-2, -2), 3)])
@example(TRIANGLE + [Halfspace((-3, -3), 9)])
@example(UNIT_CUBE + [Halfspace((0, 0, 3), -1)])
# unbounded, lower-dimensional and empty
@example([Halfspace((1, 0), 0), Halfspace((0, 1), 0), Halfspace((2, 0), 1)])
@example([Halfspace((1, 0), 0), Halfspace((-1, 0), 0), Halfspace((0, 1), 0), Halfspace((0, -1), 1)])
@example(UNIT_CUBE + [Halfspace((0, 0, 2), -3)])
def test_normalized_volume_matches_polytope_volume(hs):
    dim = len(hs[0].normal)
    assert outcome(normalized_volume, *_int_rows(hs), dim) == outcome(polytope_volume, hs)


@settings(max_examples=100, deadline=None)
@given(bounded_systems, st.lists(offsets | st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_support_values_match_fraction_dots(halfspaces, u):
    p = poly(halfspaces)
    u = u[: p.dimension]
    values = [sum((a * x for a, x in zip(u, v)), Q(0)) for v in p.vertices]
    assert p.support_min(u) == min(values) and p.support_max(u) == max(values)
