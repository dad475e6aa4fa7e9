"""Polytope construction, verification, and decomposition."""

import itertools
import random
from fractions import Fraction

import pytest

from toricstab import (
    Simplex,
    build_polytope,
    cone_decomposition,
    delzant_check,
    geometry,
    halfspace,
    subdivide_by_hyperplanes,
    translate,
)
from toricstab.errors import (
    Degenerate,
    NonPrimitiveNormal,
    NotSimple,
    OriginNotInterior,
    Unbounded,
)
from toricstab import _linalg
from toricstab.plfunc import affine

from conftest import hull_polygon, shoelace


def F(x):
    return Fraction(x)


def pt(*coords):
    return tuple(Fraction(c) for c in coords)


class TestBuildPolytope:
    def test_cp2_triangle_vertices(self, cp2):
        assert set(cp2.vertices) == {pt(-1, -1), pt(2, -1), pt(-1, 2)}

    def test_pentagon_vertices(self, pentagon):
        assert set(pentagon.vertices) == {
            pt(-1, -1), pt(1, -1), pt(1, 0), pt(0, 1), pt(-1, 1),
        }

    def test_square_vertices(self, square):
        assert set(square.vertices) == {
            pt(1, 1), pt(1, -1), pt(-1, 1), pt(-1, -1),
        }

    def test_vertices_sorted_lexicographically(self, pentagon):
        assert list(pentagon.vertices) == sorted(pentagon.vertices)

    def test_unbounded_rejected(self):
        with pytest.raises(Unbounded):
            build_polytope([
                halfspace((1, 0), 1), halfspace((0, 1), 1), halfspace((0, -1), 1),
            ])

    def test_infeasible_rejected(self):
        with pytest.raises(Degenerate):
            build_polytope([
                halfspace((1,), -2), halfspace((-1,), 0),
            ])

    def test_non_primitive_normal_rejected(self):
        with pytest.raises(NonPrimitiveNormal):
            build_polytope([
                halfspace((2, 0), 1), halfspace((-1, 0), 1),
                halfspace((0, 1), 1), halfspace((0, -1), 1),
            ])

    def test_not_simple_rejected(self):
        # Square pyramid apex meets four facets in dimension 3.
        with pytest.raises(NotSimple):
            build_polytope([
                halfspace((0, 0, -1), 0),
                halfspace((1, 0, 1), 1),
                halfspace((-1, 0, 1), 1),
                halfspace((0, 1, 1), 1),
                halfspace((0, -1, 1), 1),
            ])

    def test_redundant_halfspace_dropped_with_warning(self):
        poly = build_polytope([
            halfspace((1, 0), 1), halfspace((-1, 0), 1),
            halfspace((0, 1), 1), halfspace((0, -1), 1),
            halfspace((1, 1), 5),
        ])
        assert len(poly.facets) == 4
        assert any("redundant" in w for w in poly.warnings)

    def test_duplicate_halfspace_dropped_with_warning(self):
        poly = build_polytope([
            halfspace((1, 0), 1), halfspace((1, 0), 1), halfspace((-1, 0), 1),
            halfspace((0, 1), 1), halfspace((0, -1), 1),
        ])
        assert len(poly.facets) == 4
        assert any("duplicate" in w for w in poly.warnings)

    def test_origin_interior_flag(self, cp2):
        assert cp2.origin_interior
        shifted = translate(cp2, (10, 10))
        assert not shifted.origin_interior

    def test_interval_1d(self):
        poly = build_polytope([halfspace((1,), 2), halfspace((-1,), 1)])
        assert poly.vertices == (pt(-1), pt(2))
        assert poly.volume == 3
        assert poly.boundary_measure == 2

    def test_cube_3d(self):
        poly = build_polytope([
            halfspace(n, 1)
            for n in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        ])
        assert len(poly.vertices) == 8
        assert poly.volume == 8
        assert poly.boundary_measure == 24


class TestEulerAndMeasures:
    def test_vertex_edge_counts_match_for_surfaces(self, cp2, square, pentagon, hexagon23):
        for poly in (cp2, square, pentagon, hexagon23):
            assert len(poly.vertices) == len(poly.facets)

    def test_boundary_measures(self, cp2, square, pentagon):
        assert cp2.boundary_measure == 9
        assert square.boundary_measure == 8
        assert pentagon.boundary_measure == 7

    def test_volume_against_shoelace(self, cp2, square, pentagon, hexagon23):
        for poly in (cp2, square, pentagon, hexagon23):
            cycle = [poly.vertices[i] for i in poly.ccw_cycle]
            assert poly.volume == shoelace(cycle)


class TestDelzant:
    def test_catalog_polytopes_are_delzant(self, cp2, square, pentagon, hexagon23):
        for poly in (cp2, square, pentagon, hexagon23):
            ok, violator = delzant_check(poly)
            assert ok and violator is None

    def test_non_delzant_vertex_reported(self):
        poly = build_polytope([
            halfspace((-1, 0), 1), halfspace((0, -1), 1), halfspace((1, 2), 2),
        ])
        ok, violator = delzant_check(poly)
        assert not ok
        assert violator == pt(-1, Fraction(3, 2))

    def test_invariant_under_translation(self, pentagon):
        moved = translate(pentagon, (Fraction(2, 21), Fraction(2, 21)))
        assert delzant_check(moved) == (True, None)


class TestTriangulate:
    def test_square_two_triangles(self, square):
        tris = square.triangulation
        assert len(tris) == 2
        assert [t.volume() for t in tris] == [2, 2]

    def test_cp2_single_simplex(self, cp2):
        tris = cp2.triangulation
        assert len(tris) == 1
        assert tris[0].volume() == Fraction(9, 2)

    def test_pentagon_area_sum(self, pentagon):
        tris = pentagon.triangulation
        assert len(tris) == 3
        assert sum(t.volume() for t in tris) == Fraction(7, 2)

    def test_volume_sum_matches_for_all_catalog(self, cp2, square, pentagon, hexagon23):
        for poly in (cp2, square, pentagon, hexagon23):
            assert sum(t.volume() for t in poly.triangulation) == poly.volume


class TestConeDecomposition:
    def test_square_four_unit_cones(self, square):
        cones = cone_decomposition(square)
        assert len(cones.cells) == 4
        assert all(s.volume() == 1 for _, s in cones.cells)

    def test_cp2_cone_volumes(self, cp2):
        cones = cone_decomposition(cp2)
        volumes = sorted(s.volume() for _, s in cones.cells)
        assert volumes == [Fraction(3, 2)] * 3

    def test_pentagon_total(self, pentagon):
        cones = cone_decomposition(pentagon)
        assert len(cones.cells) == 5
        assert sum(s.volume() for _, s in cones.cells) == Fraction(7, 2)

    def test_cone_volume_formula(self, cp2, square, pentagon, hexagon23):
        # bound * facet measure = dim * cone volume, facet by facet
        for poly in (cp2, square, pentagon, hexagon23):
            cones = cone_decomposition(poly)
            per_facet = {}
            for fi, s in cones.cells:
                per_facet[fi] = per_facet.get(fi, Fraction(0)) + s.volume()
            for fi, facet in enumerate(poly.facets):
                bound = poly.halfspaces[facet.halfspace_index].bound
                assert bound * facet.measure == poly.dim * per_facet[fi]

    def test_requires_interior_origin(self, cp2):
        with pytest.raises(OriginNotInterior):
            cone_decomposition(translate(cp2, (10, 0)))


class TestSubdivide:
    def test_square_single_cut(self, square):
        cells = subdivide_by_hyperplanes(square, [affine((1, 0), 0)])
        assert len(cells) == 2
        assert sorted(c.volume for c in cells) == [2, 2]

    def test_cp2_cut_areas(self, cp2):
        cells = subdivide_by_hyperplanes(cp2, [affine((1, 0), 0)])
        assert sorted(c.volume for c in cells) == [2, Fraction(5, 2)]

    def test_pentagon_two_cuts(self, pentagon):
        cells = subdivide_by_hyperplanes(
            pentagon, [affine((1, 0), 0), affine((0, 1), 0)]
        )
        assert len(cells) == 4
        assert sum(c.volume for c in cells) == Fraction(7, 2)

    def test_cut_missing_the_body(self, square):
        cells = subdivide_by_hyperplanes(square, [affine((1, 0), 10)])
        assert len(cells) == 1
        assert cells[0].volume == 4


def _enumerated(poly, cuts):
    """Oracle for ``intersect``: exhaustive enumeration of the combined list.

    Active sets are found here by brute force, every half-space at every
    vertex, so the oracle shares none of the clipper's bookkeeping.
    """
    combined = geometry._dedup_halfspaces(list(poly.halfspaces) + list(cuts))
    vertices, _ = geometry._enumerate_vertices(combined, poly.dim)
    if not vertices or _linalg.affine_rank(vertices) < poly.dim:
        return None
    active = [
        {i for i, h in enumerate(combined) if h.value(v) == h.bound}
        for v in vertices
    ]
    return geometry._build(combined, poly.dim, vertices, active, require_simple=False)


def _fields(poly):
    # Polytope.__eq__ compares only dim and halfspaces.
    if poly is None:
        return None
    return (poly.dim, poly.halfspaces, poly.vertices, poly.facets,
            poly.origin_interior, poly.warnings)


def _random_body(rng, kind):
    if kind == "polygon":
        while True:
            pts = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(3, 8))]
            if _linalg.affine_rank(pts) == 2:
                return hull_polygon(pts)
    if kind == "box":
        rows = []
        for j in range(3):
            lo = F(rng.randint(-6, 2)) / rng.randint(1, 3)
            e = tuple(int(i == j) for i in range(3))
            rows.append(halfspace(e, lo + rng.randint(1, 5)))
            rows.append(halfspace(tuple(-c for c in e), -lo))
        return build_polytope(rows)
    while True:
        verts = tuple(pt(*(rng.randint(-3, 3) for _ in range(3))) for _ in range(4))
        if _linalg.affine_rank(list(verts)) == 3:
            return build_polytope(geometry.simplex_halfspaces(Simplex(verts, 3)))


def _random_cut(rng, poly):
    """A half-space whose bound is a vertex value, between values, or outside."""
    while True:
        normal = tuple(rng.randint(-3, 3) for _ in range(poly.dim))
        if any(normal):
            break
    normal, _ = _linalg.primitivize(normal)
    values = sorted(_linalg.dot(normal, v) for v in poly.vertices)
    roll = rng.random()
    if roll < 0.3:
        bound = rng.choice(values)
    elif roll < 0.9:
        bound = values[0] + (values[-1] - values[0]) * Fraction(rng.randint(1, 11), 12)
    else:
        bound = rng.choice((values[0] - 1, values[-1] + 1))
    return halfspace(normal, bound)


class TestClipping:
    """``intersect`` clips the parent's vertices; enumeration is the oracle."""

    def check(self, poly, cuts):
        clipped = geometry.intersect(poly, cuts)
        assert _fields(clipped) == _fields(_enumerated(poly, cuts))
        return clipped

    @pytest.mark.parametrize("kind,count", [("polygon", 150), ("box", 40), ("simplex", 40)])
    def test_random_cuts(self, kind, count):
        rng = random.Random(f"clip-{kind}")
        kept = 0
        for _ in range(count):
            poly = _random_body(rng, kind)
            cuts = [_random_cut(rng, poly) for _ in range(rng.randint(1, 3))]
            kept += self.check(poly, cuts) is not None
        assert 0 < kept < count

    def test_handmade_cuts_on_the_square(self, square):
        cases = [
            ([halfspace((1, 1), 0)], 2),                      # through two vertices
            ([halfspace((1, 2), 1)], 3),                      # through one vertex
            ([halfspace((1, 0), 1)], 4),                      # along an edge, inward
            ([halfspace((-1, 0), -1)], None),                 # along an edge, outward
            ([halfspace((1, 1), 2)], 4),                      # touches one vertex
            ([halfspace((1, 0), 5)], 4),                      # misses the body
            ([halfspace((1, 0), -5)], None),                  # removes everything
            ([halfspace((-1, 2), 1), halfspace((2, -1), 1)], 2),  # meet at (1, 1)
            ([halfspace((1, 0), 0), halfspace((-1, 0), 0)], None),       # a line
        ]
        for cuts, volume in cases:
            cell = self.check(square, cuts)
            assert (None if cell is None else cell.volume) == volume

    def test_handmade_cuts_on_the_cube(self):
        cube = build_polytope([halfspace(n, 1) for n in (
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))])
        cases = [
            ([halfspace((1, 1, 1), 1)], Fraction(20, 3)),     # through three vertices
            ([halfspace((1, 1, 0), 0)], 4),                   # through two edges
            ([halfspace((1, 1, 1), 3)], 8),                   # touches one vertex
            ([halfspace((1, 1, 0), 2)], 8),                   # touches one edge
            ([halfspace((0, 0, -1), -1)], None),              # along a facet, outward
            ([halfspace((0, 0, 1), -2)], None),               # removes everything
            # Two planes meeting at the vertices (1, -1, -1) and (-1, 1, 1).
            ([halfspace((1, 1, 0), 0), halfspace((1, 0, 1), 0)], Fraction(8, 3)),
            # Two planes meeting along the diagonal from (1, 1, -1) to (1, -1, 1).
            ([halfspace((1, 1, 1), 1), halfspace((1, -1, -1), 1)], Fraction(16, 3)),
        ]
        for cuts, volume in cases:
            cell = self.check(cube, cuts)
            assert (None if cell is None else cell.volume) == volume

    def test_subdivision_calls_intersect_per_sign_pattern(self, pentagon):
        cells = subdivide_by_hyperplanes(pentagon, [affine((1, 0), 0), affine((1, -2), 0)])
        expected = [
            _enumerated(pentagon, [halfspace((s1, 0), 0), halfspace((s2, -2 * s2), 0)])
            for s1 in (1, -1) for s2 in (1, -1)
        ]
        assert [_fields(c) for c in cells] == [_fields(c) for c in expected if c is not None]


class TestTranslate:
    def test_identity(self, square):
        assert translate(square, (0, 0)) == square

    def test_cp2_to_standard_corner(self, cp2):
        moved = translate(cp2, (1, 1))
        assert set(moved.vertices) == {pt(0, 0), pt(3, 0), pt(0, 3)}

    def test_pentagon_centering(self, pentagon):
        moved = translate(pentagon, (Fraction(2, 21), Fraction(2, 21)))
        assert moved.barycenter == (0, 0)

    def test_commutes_with_vertex_shift(self, pentagon):
        t = (Fraction(1, 3), Fraction(-2, 5))
        moved = translate(pentagon, t)
        shifted = sorted(
            tuple(c + d for c, d in zip(v, t)) for v in pentagon.vertices
        )
        assert list(moved.vertices) == shifted

    def test_normals_unchanged(self, pentagon):
        moved = translate(pentagon, (5, 7))
        assert [h.normal for h in moved.halfspaces] == [
            h.normal for h in pentagon.halfspaces
        ]


def _min_largest_support(poly):
    """Oracle: min over P of max_i b_i(t), by trying every vertex of the
    polyhedron {(t, h) : 0 <= b_i(t) <= h} in (t, h)-space."""
    n = poly.dim
    rows = [(h.normal + (0,), h.bound) for h in poly.halfspaces]
    rows += [(tuple(-c for c in h.normal) + (-1,), -h.bound) for h in poly.halfspaces]
    best = None
    for subset in itertools.combinations(rows, n + 1):
        sol = _linalg.solve([r for r, _ in subset], [b for _, b in subset])
        if sol is not None and all(_linalg.dot(r, sol) <= b for r, b in rows):
            best = sol[n] if best is None else min(best, sol[n])
    return best


class TestBestOrigin:
    def test_catalog_minimum_at_zero(self, cp2, square, pentagon, hexagon23):
        for poly in (cp2, square, pentagon):
            best = poly.best_origin
            assert best.point == pt(0, 0)
            assert best.max_support == 1
        assert hexagon23.best_origin.max_support == 3

    def test_matches_exhaustive_oracle(self, pentagon, hexagon23):
        box = build_polytope([halfspace(n, b) for n, b in (
            ((1, 0, 0), 3), ((-1, 0, 0), 1), ((0, 1, 0), 2), ((0, -1, 0), 2),
            ((0, 0, 1), "1/2"), ((0, 0, -1), 4))])
        for poly, shift in ((pentagon, (5, -2)), (hexagon23, ("1/3", "7/2")),
                            (box, (-6, "2/5", 1))):
            moved = translate(poly, shift)
            best = moved.best_origin
            assert best.max_support == _min_largest_support(moved)
            assert max(moved.support_values(best.point)) == best.max_support
            assert min(moved.support_values(best.point)) == best.depth

    def test_prefers_an_interior_minimiser(self):
        # The minimisers of F form the segment x1 = 0 across the rectangle;
        # the reported one is interior, with the largest smallest bound.
        rect = build_polytope([halfspace((1, 0), 2), halfspace((-1, 0), 2),
                               halfspace((0, 1), 1), halfspace((0, -1), 1)])
        best = translate(rect, (3, 1)).best_origin
        assert (best.point, best.max_support, best.depth) == (pt(3, 1), 2, 1)
