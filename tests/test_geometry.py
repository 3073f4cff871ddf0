from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from toricstab.errors import DegeneratePolytope, UnboundedRegion
from toricstab.geometry import (
    Halfspace,
    Polytope,
    hull_halfspaces,
    lattice_points,
    linear_stats,
    minkowski_sum,
    mixed_volume,
    parametric_family,
    simplex_volume,
    triangulation,
    vertices_of,
    volume,
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


def test_volume_invariant_under_coordinate_permutation():
    # independent simplicial decompositions must sum to the same volume
    p = poly(F1_QUAD)
    swapped = poly([Halfspace((u[1], u[0]), h.offset) for h in F1_QUAD for u in [h.normal]])
    assert volume(p) == volume(swapped)
    total = sum(simplex_volume(s) for s in triangulation(p))
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
        from toricstab.volume_fn import fit_polynomial

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


def test_parametric_family_p2():
    family = parametric_family(P2_TRIANGLE, [1, 0, 0])
    assert family.t_max == 3
    assert len(family.chambers) == 1
    paths = {(path.base, path.velocity) for path in family.chambers[0].paths}
    assert ((Q(-1), Q(-1)), (Q(1), Q(0))) in paths  # (t-1, -1)
    assert ((Q(2), Q(-1)), (Q(0), Q(0))) in paths  # (2, -1)
    assert ((Q(-1), Q(2)), (Q(1), Q(-1))) in paths  # (t-1, 2-t)


def test_parametric_family_zero_direction():
    family = parametric_family(P2_TRIANGLE, [0, 0, 0])
    assert family.t_max is None
    assert len(family.chambers) == 1
    assert all(all(v == 0 for v in path.velocity) for path in family.chambers[0].paths)


def test_parametric_family_f1_threshold():
    family = parametric_family(F1_QUAD, [0, 0, 0, 1])
    assert family.t_max == 2


def test_parametric_volume_is_polynomial_per_chamber():
    from toricstab.volume_fn import fit_polynomial

    for rates in ([1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 2]):
        family = parametric_family(F1_QUAD, rates)
        for ch in family.chambers:
            xs = ch.sample_points(7)
            ys = [volume(family.polytope_at(x)) for x in xs]
            fit = fit_polynomial(xs[:3], ys[:3])
            assert all(fit(x) == y for x, y in zip(xs, ys))


def test_polytope_on_chamber_matches_vertex_enumeration():
    for rates in ([1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 2]):
        family = parametric_family(F1_QUAD, rates)
        for ch in family.chambers:
            for t in ch.sample_points(3):
                assert family.polytope_on(ch, t) == family.polytope_at(t)
