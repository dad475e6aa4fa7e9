"""Polytope construction, verification, and decomposition."""

import ast
import fractions
import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from toricstab import (
    Facet,
    Polynomial,
    build_polytope,
    catalog,
    delzant_check,
    geometry,
    halfspace,
    integrate_polynomial,
    invariants,
    translate,
)
from toricstab.errors import (
    Degenerate,
    NonPrimitiveNormal,
    NotSimple,
    OriginNotInterior,
    ToricStabError,
    Unbounded,
    UnsupportedDimension,
)
from toricstab import _linalg
from toricstab.plfunc import affine
from toricstab.reproduce import random_convex_pl

from helpers import (
    DegenerateSimplex,
    affine_rank,
    body_simplices,
    cells_across,
    check_recession,
    facet_faces,
    hull_polygon,
    primitivize,
    prism,
    random_polygon,
    shoelace,
    simplex_halfspaces,
    simplex_measures,
    simplex_volume,
    spans_dimension,
)


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

    def test_dimension_four_rejected(self):
        # The 4-cube: integrals and clipping handle dimensions 1 to 3 only.
        rows = [halfspace(tuple(s * (i == j) for i in range(4)), 1)
                for j in range(4) for s in (1, -1)]
        with pytest.raises(UnsupportedDimension) as info:
            build_polytope(rows)
        assert isinstance(info.value, ToricStabError)
        assert str(info.value) == "dimension 4 is not supported; polytopes have dimension 1 to 3"


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


def _fan(poly):
    """The library's fan of ``poly`` as ``(volume, vertices)`` per simplex."""
    cycles = [f.vertex_indices for f in poly.facets]
    q, scale, fan = geometry._fan(poly.dim, poly._clip_start, cycles)
    return [(Fraction(det, scale), tuple(tuple(Fraction(c, q) for c in p) for p in points))
            for det, points in fan]


class TestTriangulate:
    """The fan that ``Polytope._moments`` and ``_cell_moments`` sum over."""

    def test_square_two_triangles(self, square):
        assert [volume for volume, _ in _fan(square)] == [2, 2]

    def test_cp2_single_simplex(self, cp2):
        assert [volume for volume, _ in _fan(cp2)] == [Fraction(9, 2)]

    def test_pentagon_area_sum(self, pentagon):
        fan = _fan(pentagon)
        assert len(fan) == 3
        assert sum(volume for volume, _ in fan) == Fraction(7, 2)

    def test_volume_sum_matches_for_all_catalog(self, cp2, square, pentagon, hexagon23):
        for poly in (cp2, square, pentagon, hexagon23):
            assert sum(volume for volume, _ in _fan(poly)) == poly.volume


def _cones(poly):
    """``(support, half-spaces, volume)`` of each pyramid of the cone form,
    its volume from the polytope its half-spaces bound."""
    return [(support, hs, build_polytope(hs, require_simple=False).volume)
            for support, hs, _ in poly._cone_halfspaces]


def _pyramid_bodies(rng):
    """Bodies with the origin inside: the catalog polygons, 3-D boxes,
    rational simplices, a segment, prisms over ``cp2_2blowup`` and a moved
    ``hexagon(2,3)`` (pentagonal and hexagonal facets), a cube with a
    corner cut off (pentagonal and triangular facets), and a square
    pyramid and an octahedron, which are not simple."""
    bodies = [catalog(name) for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup",
                                         "cp2_3blowup", "hexagon(2,3)")]
    bodies += [_centered(_random_body(rng, "box")) for _ in range(3)]
    bodies += [_centered(build_polytope(simplex_halfspaces(_rational_simplex(rng, n))))
               for n in (2, 3, 3)]
    bodies.append(build_polytope([halfspace((1,), F(7) / 3), halfspace((-1,), F(1) / 2)]))
    bodies.append(prism(catalog("cp2_2blowup"), F(-1) / 2, F(2) / 3))
    bodies.append(prism(translate(catalog("hexagon(2,3)"), (F(1) / 3, F(-1) / 5)), -1, F(1) / 3))
    bodies.append(build_polytope([halfspace(e, 1) for e in (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
        + [halfspace((1, 1, 1), 2)]))
    # Non-simple: facets that meet in a vertex alone share no ridge.
    bodies.append(build_polytope([halfspace((0, 0, -1), F(1) / 2), *PYRAMID[1:]],
                                 require_simple=False))
    bodies.append(build_polytope(OCTAHEDRON, require_simple=False))
    return bodies


def _gauge_cut(own, other):
    """The cut ``<l_j, x> / b_j <= <l_i, x> / b_i`` of facet j in the
    pyramid over facet i, from the rational normal ``l_j / b_j - l_i /
    b_i`` made primitive."""
    normal = [a / other.bound - b / own.bound for a, b in zip(other.normal, own.normal)]
    return halfspace(primitivize(normal)[0], 0)


def _share_ridge(facet, other, n):
    """Whether two facets meet in dimension n - 2, by their common
    ``Fraction`` vertices; in 1-D the two end points share the empty ridge."""
    common = set(facet.vertices) & set(other.vertices)
    return n == 1 or (len(common) >= n - 1 and affine_rank(list(common)) == n - 2)


def _full_gauge_pyramids(poly):
    """The pyramids with every gauge cut, m - 1 per facet: the facet's own
    half-space, then the cut of every other facet in facet order, each
    start the apex and the facet's vertices with tight sets found by
    brute force."""
    n = poly.dim
    pyramids = []
    for facet in poly.facets:
        own = facet.halfspace
        hs = (own, *(_gauge_cut(own, h) for h in poly.halfspaces if h is not own))
        start = []
        for v in [(F(0),) * n, *facet.vertices]:
            q, (p,) = _linalg.over_common_denominator((v,))
            start.append((p, q, frozenset(i for i, h in enumerate(hs) if h.value(v) == h.bound)))
        pyramids.append((own.bound, hs, tuple(start)))
    return pyramids


class TestConeDecomposition:
    """The pyramids from the origin over the facets (``_cone_halfspaces``)."""

    def test_square_four_unit_cones(self, square):
        cones = _cones(square)
        assert len(cones) == 4
        assert all(volume == 1 for *_, volume in cones)

    def test_cp2_cone_volumes(self, cp2):
        assert [volume for *_, volume in _cones(cp2)] == [Fraction(3, 2)] * 3

    def test_pentagon_total(self, pentagon):
        cones = _cones(pentagon)
        assert len(cones) == 5
        assert sum(volume for *_, volume in cones) == Fraction(7, 2)

    def test_bodies_cover_the_facet_shapes(self):
        # The prisms and the cut cube give facets with 5 and 6 vertices.
        sizes = {len(f.vertices) for poly in _pyramid_bodies(random.Random("pyramids"))
                 if poly.dim == 3 for f in poly.facets}
        assert {3, 4, 5, 6} <= sizes

    def test_cone_volume_formula(self):
        # bound * facet measure = dim * pyramid volume, facet by facet, from
        # the clip start and from the polytope the half-spaces bound, and
        # the pyramids tile the body.
        for poly in _pyramid_bodies(random.Random("pyramids")):
            assert poly.origin_interior
            cones = poly._cone_halfspaces
            assert len(cones) == len(poly.facets)
            total = Fraction(0)
            for facet, (support, hs, start), (_, _, volume) in zip(
                    poly.facets, cones, _cones(poly)):
                denominator, moments = geometry._cell_moments(hs, start, ())
                assert Fraction(moments[()], denominator) == volume
                assert hs[0] is facet.halfspace
                assert support == hs[0].bound
                assert support * facet.measure == poly.dim * volume
                total += volume
            assert total == poly.volume

    def test_pyramid_layout(self):
        # The facet's own half-space, then one cut through the origin per
        # facet that shares a ridge with it, in facet order: a facet whose
        # common vertices with it span dimension n - 2, and in 1-D the
        # other end point.  The start's tight sets are exactly the
        # half-spaces through each vertex, with every vertex inside every
        # half-space, and the polytope the half-spaces bound drops none of
        # them and has the same vertices and sets.
        for poly in _pyramid_bodies(random.Random("pyramids")):
            n = poly.dim
            for facet, (_, hs, start) in zip(poly.facets, poly._cone_halfspaces):
                own = facet.halfspace
                ridges = [h for other, h in zip(poly.facets, poly.halfspaces)
                          if other is not facet and _share_ridge(facet, other, n)]
                assert hs[0] is own
                assert list(hs[1:]) == [_gauge_cut(own, h) for h in ridges]
                assert 1 < len(hs) <= len(poly.halfspaces)
                assert all(h.bound == 0 for h in hs[1:])
                for p, q, tight in start:
                    assert q > 0 and math.gcd(q, *p) == 1
                    v = tuple(Fraction(c, q) for c in p)
                    slacks = [h.slack(v) for h in hs]
                    assert min(slacks) >= 0
                    assert tight == {i for i, s in enumerate(slacks) if s == 0}
                assert len(start[0][2]) == len(hs) - 1
                pyramid = build_polytope(hs, require_simple=False)
                assert pyramid.halfspaces == hs and pyramid.warnings == ()
                assert sorted((v, tight) for v, (_, _, tight)
                              in zip(pyramid.vertices, pyramid._clip_start)) == sorted(
                    (tuple(Fraction(c, q) for c in p), tight) for p, q, tight in start)

    def test_ridge_cuts_give_the_full_gauge_cell_moments(self):
        # Every cell of a convex PL function, and the body itself, cut
        # from the pyramid with ridge cuts only and from the one with all
        # m - 1 gauge cuts: the same moments, or None on both sides.
        rng = random.Random("ridge-pyramids")
        empty = kept = 0
        bodies = _pyramid_bodies(random.Random("pyramids"))
        for poly in bodies:
            full = _full_gauge_pyramids(poly)
            assert [len(hs) for _, hs, _ in full] == [len(poly.halfspaces)] * len(full)
            cuts_per_cell = [()]
            for _ in range(2):
                cuts_per_cell += [[h for h in cell.region.halfspaces
                                   if h not in poly.halfspaces]
                                  for cell in random_convex_pl(rng, poly).cells]
            for cuts in cuts_per_cell:
                for (support, hs, start), (full_support, full_hs, full_start) in zip(
                        poly._cone_halfspaces, full, strict=True):
                    assert support == full_support
                    moments = geometry._cell_moments(hs, start, cuts)
                    assert moments == geometry._cell_moments(full_hs, full_start, cuts)
                    empty += moments is None
                    kept += moments is not None
        # Some pyramid dropped a cut, and both outcomes occurred.
        assert any(len(hs) < len(poly.halfspaces)
                   for poly in bodies for _, hs, _ in poly._cone_halfspaces)
        assert empty > 0 and kept > 0

    def test_cone_and_fan_order(self, cp2, pentagon, hexagon23):
        # The fan cones from vertex 0 over the facet faces in facet order,
        # skipping the facets through vertex 0; the pyramids come in facet
        # order, each start the apex and then the facet's vertices in
        # cycle order.
        box = _random_body(random.Random("fan"), "box")
        centred = translate(box, tuple(-c for c in box.barycenter))
        for poly in (cp2, pentagon, hexagon23, box, centred):
            simplices = body_simplices(poly)
            assert _fan(poly) == [(simplex_volume(points), points) for points in simplices]
            if poly.origin_interior:
                origin = (F(0),) * poly.dim
                assert [(support, [tuple(Fraction(c, q) for c in p) for p, q, _ in start])
                        for support, _, start in poly._cone_halfspaces] == [
                    (facet.halfspace.bound, [origin, *facet.vertices])
                    for facet in poly.facets
                ]

    def test_requires_interior_origin(self, cp2):
        moved = translate(cp2, (10, 0))
        with pytest.raises(OriginNotInterior):
            invariants.linear_functional_L_cone(
                moved, affine((1, 0), 0), invariants.extremal_field(moved))


class TestSubdivide:
    """Cells on either side of cuts, one ``intersect`` per sign pattern."""

    def test_square_single_cut(self, square):
        cells = cells_across(square, [((1, 0), 0)])
        assert len(cells) == 2
        assert sorted(c.volume for c in cells) == [2, 2]

    def test_cp2_cut_areas(self, cp2):
        cells = cells_across(cp2, [((1, 0), 0)])
        assert sorted(c.volume for c in cells) == [2, Fraction(5, 2)]

    def test_pentagon_two_cuts(self, pentagon):
        cells = cells_across(pentagon, [((1, 0), 0), ((0, 1), 0)])
        assert len(cells) == 4
        assert sum(c.volume for c in cells) == Fraction(7, 2)

    def test_cut_missing_the_body(self, square):
        cells = cells_across(square, [((1, 0), 10)])
        assert len(cells) == 1
        assert cells[0].volume == 4


def _enumerate_vertices(hs, n):
    """Vertices of the body ``hs`` bounds: every n-subset of the hyperplanes
    is solved and a solution is kept when it satisfies every half-space."""
    found = []
    for subset in itertools.combinations(hs, n):
        sol = _linalg.solve([h.normal for h in subset], [h.bound for h in subset])
        if sol is not None and sol not in found and all(h.slack(sol) >= 0 for h in hs):
            found.append(sol)
    return found


def _from_enumeration(hs, n, warnings=None, require_simple=False):
    """Polytope of ``hs`` from exhaustive enumeration, with active sets
    found by brute force, every half-space at every vertex, so the oracle
    shares none of the clipper's bookkeeping.

    ``warnings`` is None for a cell of ``intersect``, which keeps none.
    For ``build_polytope`` it holds the duplicate records, and the oracle
    adds one record per redundant half-space, found by brute force too:
    one whose tight vertices do not span affine dimension n - 1."""
    vertices = _enumerate_vertices(hs, n)
    if not vertices:
        raise Degenerate("half-space intersection is empty")
    if affine_rank(vertices) < n:
        raise Degenerate("vertex hull is not full-dimensional")
    body = []
    for v in vertices:
        q, (p,) = _linalg.over_common_denominator((v,))
        body.append((p, q, frozenset(i for i, h in enumerate(hs) if h.value(v) == h.bound)))
    poly = geometry._build(hs, n, body, require_simple=require_simple)
    assert poly.warnings == ()
    if warnings is not None:
        for h in hs:
            tight = [v for v in vertices if h.value(v) == h.bound]
            if len(tight) < n or affine_rank(tight) != n - 1:
                warnings = [*warnings, f"redundant half-space {h.normal} <= {h.bound} dropped"]
        poly.warnings = tuple(warnings)
    return poly


def _enumerated(poly, cuts):
    """Oracle for ``intersect``: exhaustive enumeration of the combined list."""
    combined = []
    for h in [*poly.halfspaces, *cuts]:
        if h not in combined:
            combined.append(h)
    try:
        return _from_enumeration(combined, poly.dim)
    except Degenerate:
        return None


def _enumerated_build(rows, require_simple):
    """Oracle for ``build_polytope`` on bounded input with valid normals."""
    deduped, warnings = [], []
    for h in rows:
        if h in deduped:
            warnings.append(f"duplicate half-space {h.normal} <= {h.bound} dropped")
        else:
            deduped.append(h)
    return _from_enumeration(deduped, len(rows[0].normal), warnings, require_simple)


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
            if affine_rank(pts) == 2:
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
        if affine_rank(list(verts)) == 3:
            return build_polytope(simplex_halfspaces(verts))


def _primitive(rng, n):
    while True:
        normal = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(normal):
            return primitivize(normal)[0]


def _random_cut(rng, poly):
    """A half-space whose bound is a vertex value, between values, or outside."""
    normal = _primitive(rng, poly.dim)
    values = sorted(_linalg.dot(normal, v) for v in poly.vertices)
    roll = rng.random()
    if roll < 0.3:
        bound = rng.choice(values)
    elif roll < 0.9:
        bound = values[0] + (values[-1] - values[0]) * Fraction(rng.randint(1, 11), 12)
    else:
        bound = rng.choice((values[0] - 1, values[-1] + 1))
    return halfspace(normal, bound)


PYRAMID = [halfspace((0, 0, -1), 0), halfspace((1, 0, 1), 1), halfspace((-1, 0, 1), 1),
           halfspace((0, 1, 1), 1), halfspace((0, -1, 1), 1)]
OCTAHEDRON = [halfspace(s, 1) for s in itertools.product((1, -1), repeat=3)]


def _with_extras(rng, poly, scale=1):
    """The half-spaces of ``poly`` with bounds times ``scale``, shuffled,
    plus redundant ones (some touching the body) and duplicates."""
    rows = [halfspace(h.normal, h.bound * scale) for h in poly.halfspaces]
    for _ in range(rng.randint(0, 3)):
        normal = _primitive(rng, poly.dim)
        top = max(_linalg.dot(normal, v) for v in poly.vertices) * scale
        rows.append(halfspace(normal, top + rng.choice((0, 0, F(1) / 3, 2))))
    for _ in range(rng.randint(0, 2)):
        rows.append(rng.choice(rows))
    rng.shuffle(rows)
    return rows


class TestBuildAgainstEnumeration:
    """``build_polytope`` clips a bounding box; enumeration is the oracle."""

    def check(self, rows, require_simple=True):
        def outcome(build):
            try:
                return _fields(build(rows, require_simple))
            except (Degenerate, NotSimple) as exc:
                return type(exc), str(exc)

        built = outcome(lambda r, s: build_polytope(r, require_simple=s))
        assert built == outcome(_enumerated_build)
        if isinstance(built[0], int):
            # Both sides share _build, so facet retention gets its own oracle:
            # a half-space is kept exactly when the vertices it is tight at
            # span affine dimension n - 1, by rank, in any dimension.
            n, kept, vertices = built[:3]
            for h in rows:
                pts = [v for v in vertices if h.value(v) == h.bound]
                assert (h in kept) == (len(pts) >= n and affine_rank(pts) == n - 1)
        return built

    @pytest.mark.parametrize("kind,count", [("polygon", 60), ("box", 20), ("simplex", 20)])
    def test_random_bodies(self, kind, count):
        rng = random.Random(f"build-{kind}")
        for _ in range(count):
            if kind == "polygon":
                poly = random_polygon(rng, den=rng.choice((1, 2, 3, 7)))
            else:
                poly = _random_body(rng, kind)
            scale = F(1) / rng.randint(1, 5)
            rows = _with_extras(rng, poly, scale)
            assert self.check(rows, require_simple=False)[0] == poly.dim
            self.check(rows)

    def test_intervals(self):
        rng = random.Random("build-interval")
        for _ in range(30):
            lo, hi = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2))
            rows = [halfspace((1,), hi), halfspace((-1,), -lo)]
            rows += [halfspace((rng.choice((1, -1)),), rng.randint(20, 30))
                     for _ in range(rng.randint(0, 2))]
            rows += rng.sample(rows, rng.randint(0, 2))
            rng.shuffle(rows)
            self.check(rows)

    def test_non_simple_bodies(self):
        for rows in (PYRAMID, OCTAHEDRON):
            assert self.check(rows)[0] is NotSimple
            assert self.check(rows, require_simple=False)[0] == 3

    def test_huge_and_tiny_bounds(self):
        rng = random.Random("build-scale")
        for scale in (10**12, Fraction(1, 10**9), Fraction(10**12 + 1, 7)):
            for kind in ("polygon", "box", "simplex"):
                poly = random_polygon(rng) if kind == "polygon" else _random_body(rng, kind)
                self.check(_with_extras(rng, poly, scale), require_simple=False)
            self.check([halfspace((1,), scale), halfspace((-1,), scale)])
            self.check([halfspace(h.normal, h.bound * scale) for h in OCTAHEDRON],
                       require_simple=False)

    def test_vertices_near_the_box(self):
        # The box is |x_j| <= n! H**n + 1.  With nearly parallel normals the
        # vertex (-2002, -2003001) sits 1002 inside the box of 2004003.
        wedge = self.check([halfspace((1000, -1), 1001), halfspace((-1001, 1), 1001),
                            halfspace((1, 0), 0)])
        assert pt(-2002, -2003001) in wedge[2]
        # Here a coordinate reaches n! H**n = 2 itself.
        corner = self.check([halfspace((1, -1), 1), halfspace((0, 1), 1),
                             halfspace((-1, 0), 1), halfspace((0, -1), 1)])
        assert pt(2, 1) in corner[2]
        # H rounds the bound 3/2 up to 2; rounding down would put (3, 3/2)
        # on the box.
        corner = self.check([halfspace((1, -1), "3/2"), halfspace((0, 1), "3/2"),
                             halfspace((-1, 0), 1), halfspace((0, -1), 1)])
        assert pt(3, "3/2") in corner[2]
        self.check([halfspace((1, -1, 0), 1), halfspace((0, 1, -1), 1),
                    halfspace((0, 0, 1), 1), halfspace((-1, 0, 0), 1),
                    halfspace((0, -1, 0), 1), halfspace((0, 0, -1), 1)])
        rng = random.Random("build-parallel")
        for _ in range(10):
            a = rng.randint(100, 5000)
            rows = [halfspace((a, -1), rng.randint(-50, 50)),
                    halfspace((-a - 1, 1), rng.randint(60, 200)),
                    halfspace((1, 0), rng.randint(0, 3)), halfspace((0, 1), 10**6)]
            self.check(rows, require_simple=False)

    def test_empty_and_flat_bodies(self):
        square = [halfspace((0, 1), 1), halfspace((0, -1), 1)]
        cases = [
            ([halfspace((1, 0), -2), halfspace((-1, 0), 0)] + square,
             "half-space intersection is empty"),
            ([halfspace((1, 0), 0), halfspace((-1, 0), 0)] + square,
             "vertex hull is not full-dimensional"),
            ([halfspace((1, 1), 0), halfspace((-1, -1), 0), halfspace((1, 0), 0),
              halfspace((-1, 0), 0)], "vertex hull is not full-dimensional"),
            ([halfspace((1,), 1), halfspace((-1,), -1)], "vertex hull is not full-dimensional"),
            ([halfspace((1, 0, 0), 0), halfspace((-1, 0, 0), 0)]
             + [halfspace(n, 1) for n in ((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))],
             "vertex hull is not full-dimensional"),
            (OCTAHEDRON + [halfspace((1, 1, 1), -4)], "half-space intersection is empty"),
            # The direction (0, -1) recedes, but the body is empty.
            ([halfspace((1, 0), -1), halfspace((-1, 0), -1), halfspace((0, 1), 0)],
             "half-space intersection is empty"),
        ]
        for rows, message in cases:
            assert self.check(rows, require_simple=False) == (Degenerate, message)


def _special_cuts(rng, poly):
    """Cuts of a body in 1-D or 2-D that meet it at vertices: through a
    vertex, along a facet (its own half-space and the opposite one),
    tangent at a vertex (keeping the body or only the vertex), and through
    two vertices in 2-D or between them in 1-D."""
    v = rng.choice(poly.vertices)
    normal = _primitive(rng, poly.dim)
    facet = rng.choice(poly.facets).halfspace
    at_v = [h.normal for h in poly.halfspaces if h.value(v) == h.bound]
    tangent, _ = primitivize(tuple(sum(c) for c in zip(*at_v)))
    cuts = [halfspace(normal, _linalg.dot(normal, v)), facet,
            halfspace(tuple(-c for c in facet.normal), -facet.bound),
            halfspace(tangent, _linalg.dot(tangent, v)),
            halfspace(tuple(-c for c in tangent), -_linalg.dot(tangent, v))]
    w = rng.choice([u for u in poly.vertices if u != v])
    if poly.dim == 2:
        through, _ = primitivize((v[1] - w[1], w[0] - v[0]))
        cuts.append(halfspace(through, _linalg.dot(through, v)))
    else:
        cuts.append(halfspace((1,), (v[0] + w[0]) / 2))
    return cuts


class TestClipEdgeTest:
    """In 1-D and 2-D :func:`geometry._clip` takes an inside/outside pair
    for an edge when the pair's common tight set has n - 1 indices; its
    rows and ``full`` flag must be those of the enumeration oracle."""

    def check(self, poly, cuts):
        n = poly.dim
        hs = list(poly.halfspaces) + list(cuts)
        rows, full = geometry._clip(poly._clip_start, hs, n, len(poly.halfspaces))
        vertices = _enumerate_vertices(hs, n)
        got = [(tuple(F(c) / q for c in p), at_v) for p, q, at_v in rows]
        assert all(q > 0 and math.gcd(q, *p) == 1 for p, q, _ in rows)
        assert sorted(got) == sorted(
            (v, frozenset(i for i, h in enumerate(hs) if h.value(v) == h.bound))
            for v in vertices)
        assert full == (affine_rank(vertices) == n)
        return full

    def test_cuts_through_vertices_along_edges_and_tangent(self):
        rng = random.Random("clip-edge-test")
        bodies = [catalog(name) for name in ("cp2", "cp2_2blowup", "hexagon(2,3)")]
        for i in range(80):
            if i % 4 == 0:
                lo, hi = sorted(rng.sample(range(-12, 12), 2))
                bodies.append(build_polytope([halfspace((1,), F(hi) / 3),
                                              halfspace((-1,), F(-lo) / 3)]))
            else:
                bodies.append(random_polygon(rng, den=rng.choice((1, 2, 3))))
        outcomes = set()
        for poly in bodies:
            special = _special_cuts(rng, poly)
            for cut in special:
                outcomes.add((poly.dim, self.check(poly, [cut])))
            for _ in range(3):
                outcomes.add((poly.dim, self.check(poly, rng.sample(special, rng.randint(2, 3)))))
        assert outcomes == {(1, True), (1, False), (2, True), (2, False)}


def _boundedness_oracle(rows):
    """The error class ``build_polytope(rows, require_simple=False)`` must
    raise, or None: the pre-checks, then emptiness by enumeration, then
    recession by :func:`check_recession`, then flatness."""
    n = len(rows[0].normal)
    deduped = list(dict.fromkeys(rows))
    if len(rows) < n + 1 or _linalg.rank([h.normal for h in deduped]) < n:
        return Unbounded
    vertices = _enumerate_vertices(deduped, n)
    if not vertices:
        return Degenerate
    try:
        check_recession(deduped, n)
    except Unbounded:
        return Unbounded
    return Degenerate if affine_rank(vertices) < n else None


class TestBoundedness:
    """The box clip decides boundedness; :func:`check_recession` is the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_systems(self, n):
        rng = random.Random(f"boundedness-{n}")
        seen = {Unbounded: 0, Degenerate: 0, None: 0}
        named = 0
        for _ in range(1000):
            rows = [halfspace(_primitive(rng, n), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                    for _ in range(rng.randint(n + 1, n + 3))]
            if rng.random() < 0.2:
                rows.append(rng.choice(rows))
            expected = _boundedness_oracle(rows)
            try:
                build_polytope(rows, require_simple=False)
                got, message = None, ""
            except (Unbounded, Degenerate) as exc:
                got, message = type(exc), str(exc)
            assert got is expected, rows
            seen[got] += 1
            if message.startswith("direction "):
                direction = ast.literal_eval(message[len("direction "):-len(" recedes")])
                assert len(direction) == n and any(direction)
                assert math.gcd(*direction) == 1
                # The clip names the edge it meets first, which need not be
                # the oracle's first candidate ray; any receding one will do.
                assert all(_linalg.dot(h.normal, direction) <= 0 for h in rows), rows
                named += 1
        assert min(seen.values()) >= 100 and named >= 300

    def test_box_corner_edges(self):
        # The cone over (1, 1, 0), (1, 0, 1) and (0, 1, 1) meets the box on
        # its edges and at its corner (m, m, m), where no body half-space is tight.
        rows = [halfspace(l, 0) for l in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
        with pytest.raises(Unbounded, match=r"direction \((1, 1, 0|1, 0, 1|0, 1, 1)\) recedes"):
            build_polytope(rows + [halfspace((-1, 0, 0), 1)])


def _rebuilt_clip_start(poly):
    """The clip a polytope keeps, rebuilt from its ``Fraction`` vertices
    and its facets: each vertex over the least common denominator of its
    coordinates, and the indices of the facets through it."""
    tight = [set() for _ in poly.vertices]
    for facet in poly.facets:
        for j in facet.vertex_indices:
            tight[j].add(poly.halfspaces.index(facet.halfspace))
    start = []
    for v, at_v in zip(poly.vertices, tight):
        q, (p,) = _linalg.over_common_denominator((v,))
        start.append((p, q, frozenset(at_v)))
    return tuple(start)


def fractions_built(module, run):
    """The ``Fraction``s built by code of ``module`` while ``run()`` runs,
    directly or through ``Fraction`` arithmetic it starts."""
    here, there = module.__file__, fractions.__file__
    new = fractions.Fraction.__new__.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is new:
            caller = frame.f_back
            while caller.f_code.co_filename == there:
                caller = caller.f_back
            count += caller.f_code.co_filename == here

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


class TestIntegerRows:
    def test_intersect_builds_no_fraction(self):
        # The clip, the build and the cell's facets run on integer rows;
        # the Fraction vertices are made only when they are read.
        rng = random.Random("integer-rows")
        bodies = [random_polygon(rng, den=rng.choice((1, 3))) for _ in range(6)]
        bodies += [_random_body(rng, kind) for kind in ("box", "simplex", "box", "simplex")]
        cuts = [[_random_cut(rng, body) for _ in range(2)] for body in bodies]
        cells = []
        assert fractions_built(geometry, lambda: cells.extend(
            geometry.intersect(body, c) for body, c in zip(bodies, cuts))) == 0
        cells = [cell for cell in cells if cell is not None]
        assert len(cells) >= 5
        assert fractions_built(geometry, lambda: [cell.vertices for cell in cells]) > 0


class TestKeptClip:
    """``Polytope._clip_start`` is the clip ``_build`` was given, its tight
    sets renumbered to the retained half-spaces; the rebuild from the
    ``Fraction`` vertices and the facets is the oracle."""

    def check(self, poly):
        assert poly._clip_start == _rebuilt_clip_start(poly)

    def test_catalog_polygons(self):
        for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup",
                     "hexagon(2,3)", "hexagon(7/2,2)"):
            self.check(catalog(name))

    def test_boxes_simplices_and_cells(self):
        rng = random.Random("kept-clip")
        for kind in ("polygon", "box", "simplex"):
            for _ in range(15):
                poly = _random_body(rng, kind)
                self.check(poly)
                cell = geometry.intersect(poly, [_random_cut(rng, poly) for _ in range(2)])
                if cell is not None:
                    self.check(cell)

    def test_duplicate_and_redundant_halfspaces(self):
        # Dropped half-spaces shift the indices of those after them, so the
        # clip's tight sets must be renumbered.
        rng = random.Random("kept-clip-extras")
        renumbered = 0
        for kind in ("polygon", "box", "simplex"):
            for _ in range(15):
                poly = _random_body(rng, kind)
                rows = _with_extras(rng, poly, F(1) / rng.randint(1, 3))
                built = build_polytope(rows, require_simple=False)
                self.check(built)
                renumbered += len(built.halfspaces) < len(rows)
        for rows in (PYRAMID, OCTAHEDRON):
            self.check(build_polytope(rows + rows[:1] + [halfspace(rows[0].normal, 9)],
                                      require_simple=False))
        assert renumbered > 10


def _angular_cycle(points, flat):
    """Reference face order: positions sorted by exact angle about the
    centroid of ``flat``, rotated to start at the smallest of ``points``."""
    cx = sum(p[0] for p in flat) / len(flat)
    cy = sum(p[1] for p in flat) / len(flat)
    vecs = [(p[0] - cx, p[1] - cy) for p in flat]

    def compare(i, j):
        (ax, ay), (bx, by) = vecs[i], vecs[j]
        upper_i = ay > 0 or (ay == 0 and ax > 0)
        upper_j = by > 0 or (by == 0 and bx > 0)
        if upper_i != upper_j:
            return -1 if upper_i else 1
        return -1 if ax * by - ay * bx > 0 else 1

    order = sorted(range(len(flat)), key=functools.cmp_to_key(compare))
    start = order.index(min(range(len(points)), key=points.__getitem__))
    return order[start:] + order[:start]


class TestFaceOrder:
    """Face order from the edge graph equals an angular sort."""

    def check(self, poly):
        if poly.dim == 2:
            assert list(poly.ccw_cycle) == _angular_cycle(poly.vertices, poly.vertices)
            return
        for facet in poly.facets:
            normal = facet.halfspace.normal
            points = list(facet.vertices)
            assert points == [poly.vertices[j] for j in facet.vertex_indices]
            drop = next(j for j, c in enumerate(normal) if c != 0)
            flat = [p[:drop] + p[drop + 1:] for p in points]
            assert points == [points[q] for q in _angular_cycle(points, flat)]

    def test_random_polygons_and_cells(self):
        rng = random.Random("order-2d")
        for _ in range(60):
            poly = random_polygon(rng, den=rng.choice((1, 3)))
            self.check(poly)
            cell = geometry.intersect(poly, [_random_cut(rng, poly)])
            if cell is not None:
                self.check(cell)

    def test_random_3d_cells(self):
        rng = random.Random("order-3d")
        bodies = [build_polytope(rows, require_simple=False) for rows in (PYRAMID, OCTAHEDRON)]
        bodies += [_random_body(rng, kind) for kind in ("box", "simplex") for _ in range(8)]
        checked = 0
        for body in bodies:
            self.check(body)
            for _ in range(8):
                cuts = [_random_cut(rng, body) for _ in range(rng.randint(1, 2))]
                # Half of the cuts go through a vertex of the body.
                for i, h in enumerate(cuts):
                    if rng.random() < 0.5:
                        v = rng.choice(body.vertices)
                        cuts[i] = halfspace(h.normal, _linalg.dot(h.normal, v))
                cell = geometry.intersect(body, cuts)
                if cell is not None:
                    self.check(cell)
                    checked += 1
        assert checked > 50


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


def _monomial(n, alpha):
    """``x^alpha`` for an exponent written as its coordinate indices."""
    exponent = [0] * n
    for j in alpha:
        exponent[j] += 1
    return Polynomial(n, {tuple(exponent): 1})


def _centered(poly):
    """``poly`` translated so its barycenter is the origin."""
    return translate(poly, tuple(-c for c in poly.barycenter))


class TestCellMoments:
    """The cone form's cells: ``_cell_moments`` straight from the clip,
    against the moments of the ``intersect`` cell."""

    def check(self, poly, cuts):
        moments = geometry._cell_moments(poly.halfspaces, poly._clip_start, cuts)
        cell = geometry.intersect(poly, cuts)
        if cell is None:
            assert moments is None
            return None
        n = poly.dim
        denominator, values = moments
        assert set(values) == {(), *((j,) for j in range(n)),
                               *itertools.combinations_with_replacement(range(n), 2)}
        for alpha, value in values.items():
            assert Fraction(value, denominator) == integrate_polynomial(cell, _monomial(n, alpha))
        assert moments == cell._moments
        return cell

    @pytest.mark.parametrize("kind,count", [
        ("lattice polygon", 80), ("rational polygon", 80), ("box", 30), ("simplex", 30)])
    def test_random_cuts(self, kind, count):
        # Cuts through vertices, between vertex values and outside the body.
        rng = random.Random(f"cell-moments-{kind}")
        kept = 0
        for _ in range(count):
            if kind == "lattice polygon":
                poly = random_polygon(rng)
            elif kind == "rational polygon":
                poly = random_polygon(rng, den=rng.choice((2, 3, 7)))
            elif kind == "box":
                poly = _random_body(rng, "box")
            else:
                poly = build_polytope(
                    simplex_halfspaces(_rational_simplex(rng, 3)))
            cuts = [_random_cut(rng, poly) for _ in range(rng.randint(1, 3))]
            kept += self.check(poly, cuts) is not None
        assert 0 < kept < count

    def test_cone_cells_of_pl_functions(self):
        # Each pyramid cut by the cuts of each cell of a convex PL function
        # against the intersect of the cell with the pyramid's half-spaces.
        rng = random.Random("cell-moments-cones")
        bodies = [catalog("cp2_2blowup"), catalog("hexagon(2,3)")]
        bodies += [_centered(random_polygon(rng, den=rng.choice((1, 3)))) for _ in range(4)]
        bodies += [_centered(_random_body(rng, kind)) for kind in ("box", "box", "simplex")]
        empty = kept = 0
        for poly in bodies:
            for cell in random_convex_pl(rng, poly).cells:
                cuts = [h for h in cell.region.halfspaces if h not in poly.halfspaces]
                for _, hs, start in poly._cone_halfspaces:
                    moments = geometry._cell_moments(hs, start, cuts)
                    region = geometry.intersect(cell.region, hs)
                    assert moments == (None if region is None else region._moments)
                    empty += moments is None
                    kept += moments is not None
        assert empty > 0 and kept > 0

    def test_flat_and_empty_results(self, square):
        cube = build_polytope([halfspace(n, 1) for n in (
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))])
        cases = [
            (square, [halfspace((1, 0), 0), halfspace((-1, 0), 0)], None),   # a line
            (square, [halfspace((1, 1), -2)], None),                          # one vertex
            (square, [halfspace((-1, 0), -1)], None),                         # one edge
            (square, [halfspace((1, 0), -5)], None),                          # nothing
            (square, [halfspace((1, 1), 0)], 2),                              # a diagonal
            (cube, [halfspace((1, 1, 1), -3)], None),                         # one vertex
            (cube, [halfspace((1, 1, 0), -2)], None),                         # one edge
            (cube, [halfspace((1, 0, 0), 0), halfspace((-1, 0, 0), 0)], None),  # a square
            (cube, [halfspace((1, 1, 0), 0), halfspace((1, 0, 1), 0)], Fraction(8, 3)),
        ]
        for poly, cuts, volume in cases:
            cell = self.check(poly, cuts)
            assert (None if cell is None else cell.volume) == volume


def _face_cuts(poly):
    """Cuts meeting ``poly`` in one of its faces, and their opposites.

    For every pair of vertices, ``c`` is the primitive sum of the normals
    of the facets through both; it lies inside the normal cone of the
    least face holding the pair, so ``<c, x> >= <c, v>`` meets the body in
    that vertex, edge or facet, a flat result, and ``<c, x> <= <c, v>``
    holds the whole body and touches that face.  Yields ``(face
    dimension, cut)``, the opposite with dimension n."""
    n = poly.dim
    rows = poly._clip_start
    for (pu, qu, at_u), (_, _, at_w) in itertools.combinations_with_replacement(rows, 2):
        common = at_u & at_w
        if not common:
            continue
        c, _ = primitivize([sum(poly.halfspaces[i].normal[j] for i in common) for j in range(n)])
        top = sum(Fraction(a * x, qu) for a, x in zip(c, pu))
        face = [v for v in poly.vertices if _linalg.dot(c, v) == top]
        yield affine_rank(face), halfspace(tuple(-a for a in c), -top)
        yield n, halfspace(c, top)


class TestClipDimension:
    """``_clip`` decides full dimension from the slacks it computes; the
    homogeneous rank of its rows (:func:`spans_dimension`) is the oracle
    that ``intersect``, ``_cell_moments`` and ``build_polytope`` must agree
    with."""

    def check(self, poly, cuts):
        n = poly.dim
        combined = list(poly.halfspaces) + [h for h in dict.fromkeys(cuts)
                                            if h not in poly.halfspaces]
        rows, full = geometry._clip(poly._clip_start, combined, n, len(poly.halfspaces))
        assert full == spans_dimension(rows, n)
        assert (geometry.intersect(poly, cuts) is None) == (not full)
        moments = geometry._cell_moments(poly.halfspaces, poly._clip_start, cuts)
        assert (moments is None) == (not full)
        try:
            build_polytope(combined, require_simple=False)
            raised = None
        except Degenerate as exc:
            raised = str(exc)
        if not rows:
            assert raised == "half-space intersection is empty"
        elif not full:
            assert raised == "vertex hull is not full-dimensional"
        else:
            assert raised is None
        return rows, full

    @pytest.mark.parametrize("n", [2, 3])
    def test_tangent_and_generic_cuts(self, n):
        rng = random.Random(f"clip-dimension-{n}")
        faces, results = set(), set()
        for i in range(12 if n == 2 else 8):
            if n == 2:
                poly = random_polygon(rng, den=rng.choice((1, 2, 3)))
            else:
                poly = _random_body(rng, ("box", "simplex")[i % 2])
            pool = list(_face_cuts(poly))
            pool += [(None, _random_cut(rng, poly)) for _ in range(len(pool) // 2)]
            for dim, cut in pool:
                rows, full = self.check(poly, [cut])
                if dim is not None:
                    # A face cut gives that face, or the body for its opposite.
                    assert full == (dim == n)
                    assert full or affine_rank([tuple(Fraction(c, q) for c in p)
                                                for p, q, _ in rows]) == dim
                    faces.add(dim)
                results.add((bool(rows), full))
            for _ in range(6):
                self.check(poly, [cut for _, cut in rng.sample(pool, 2)])
        assert faces == set(range(n + 1))
        assert results == {(True, True), (True, False), (False, False)}


def _fraction_lp_minimize(rows, rhs, objectives, basis):
    """Reference: the simplex method with the vertex and every slack in
    ``Fraction``, under the same Bland rule, the adjugate recomputed at
    every pivot."""
    basis = list(basis)
    d = len(basis)
    zero = (0,) * len(objectives)
    z = None
    while True:
        adj, det = _linalg.adjugate([rows[k] for k in basis])
        sign = 1 if det > 0 else -1
        if z is None:
            z = [Fraction(sum(adj[p][q] * rhs[basis[q]] for q in range(d)), det)
                 for p in range(d)]
            slack = [b - _linalg.dot(row, z) for row, b in zip(rows, rhs)]
        release = None
        for q in sorted(range(d), key=basis.__getitem__):
            rate = tuple(-sign * sum(c[p] * adj[p][q] for p in range(d)) for c in objectives)
            if rate < zero:
                release = q
                break
        if release is None:
            return tuple(z)
        step = [-sign * adj[p][release] for p in range(d)]
        growth = [_linalg.dot(row, step) for row in rows]
        enter, length = None, None
        for k, g in enumerate(growth):
            if g > 0 and k not in basis:
                ratio = slack[k] / g
                if length is None or ratio < length:
                    enter, length = k, ratio
        if enter is None:
            raise ValueError("objective is unbounded below")
        basis[release] = enter
        z = [zp + length * sp for zp, sp in zip(z, step)]
        slack = [sk - length * g for sk, g in zip(slack, growth)]


def _rational_simplex(rng, n, den=3):
    """n + 1 affinely independent points in R^n with rational coordinates."""
    while True:
        verts = tuple(
            tuple(F(rng.randint(-6, 6)) / rng.randint(1, den) for _ in range(n))
            for _ in range(n + 1)
        )
        if affine_rank(verts) == n:
            return verts


def _bodies_and_cells(rng, count):
    """Seeded polygons, 3-D boxes and simplices, rational vertices
    included, each followed by its nonempty cells under random cuts."""
    for i in range(count):
        kind = ("polygon", "box", "simplex")[i % 3]
        if kind == "polygon":
            body = random_polygon(rng, den=rng.choice((1, 2, 3, 7)))
        elif kind == "box":
            body = _random_body(rng, "box")
        else:
            body = build_polytope(
                simplex_halfspaces(_rational_simplex(rng, 3))
            )
        yield body
        for _ in range(3):
            cell = geometry.intersect(body, [_random_cut(rng, body)
                                             for _ in range(rng.randint(1, 2))])
            if cell is not None:
                yield cell


def _euclidean_sq(vertices):
    """Squared length (two points) or squared area (three points in 3-D)."""
    d = [[b - a for a, b in zip(vertices[0], v)] for v in vertices[1:]]
    if len(d) == 1:
        return sum(c * c for c in d[0])
    (a1, a2, a3), (b1, b2, b3) = d
    cross = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    return sum(c * c for c in cross) / 4


def _unmeasured(facet):
    """Whether the facet holds its fields alone, nothing computed on demand."""
    return set(vars(facet)) == {"halfspace", "vertex_indices", "rows"}


class TestFacetMeasures:
    """Lattice measures of facet simplices, computed when first read."""

    def test_against_euclidean_oracle(self):
        rng = random.Random("facet-measures")
        checked = 0
        for poly in _bodies_and_cells(rng, 60):
            for facet, h in zip(poly.facets, poly.halfspaces, strict=True):
                assert facet.halfspace is h
                assert _unmeasured(facet)
                norm_sq = sum(c * c for c in h.normal)
                faces = facet_faces(facet, poly.dim)
                assert len(simplex_measures(facet)) == len(faces)
                for face, measure in zip(faces, simplex_measures(facet)):
                    assert all(h.value(v) == h.bound for v in face)
                    assert measure > 0
                    assert measure * measure == _euclidean_sq(face) / norm_sq
                    checked += 1
                assert facet.measure == sum(simplex_measures(facet))
                corners = {v for face in faces for v in face}
                assert corners == {poly.vertices[j] for j in facet.vertex_indices}
        assert checked > 1000

    def test_equal_exactly_when_fields_are(self, cp2, square):
        for poly in (cp2, square):
            for facet in poly.facets:
                fields = (facet.halfspace, facet.vertex_indices, facet.vertices)
                twin = Facet(facet.halfspace, facet.vertex_indices, facet.rows)
                facet.measure  # kept moments are no field
                assert facet == twin and not facet != twin
                assert hash(facet) == hash(twin) == hash(fields)
                assert facet != fields
                assert repr(facet) == (f"Facet(halfspace={fields[0]!r}, "
                                       f"vertex_indices={fields[1]!r}, vertices={fields[2]!r})")
        a, b = square.facets[:2]
        assert a != Facet(b.halfspace, a.vertex_indices, a.rows)
        assert a != Facet(a.halfspace, b.vertex_indices, a.rows)
        assert a != Facet(a.halfspace, a.vertex_indices, b.rows)

    def test_interval_facets_measure_one(self):
        poly = build_polytope([halfspace((1,), F(7) / 3), halfspace((-1,), F(1) / 2)])
        assert [simplex_measures(f) for f in poly.facets] == [(1,), (1,)]

    def test_cone_form_leaves_cone_cells_unmeasured(self, monkeypatch):
        # The cone form reads only the moments of its cone cells, so it
        # must build none of them: no intersect and no _build call at all.
        rng = random.Random("cone-cells")
        box = build_polytope([halfspace(e, b) for e, b in (
            ((1, 0, 0), 2), ((-1, 0, 0), 1), ((0, 1, 0), F(3) / 2),
            ((0, -1, 0), 1), ((0, 0, 1), 1), ((0, 0, -1), F(5) / 2))])
        for poly in (catalog("cp2_2blowup"), catalog("hexagon(2,3)"), box):
            ext = invariants.extremal_field(poly)
            u = random_convex_pl(rng, poly)
            assert len(u.cells) > 1
            calls = []

            def refuse(name):
                def call(*args, **kwargs):
                    calls.append(name)
                    raise AssertionError(f"the cone form called {name}")
                return call

            monkeypatch.setattr(geometry, "intersect", refuse("intersect"))
            monkeypatch.setattr(geometry, "_build", refuse("_build"))
            value = invariants.linear_functional_L_cone(poly, u, ext)
            monkeypatch.undo()
            assert calls == []
            assert value == invariants.linear_functional_L(poly, u, ext)


def _cross_fraction(rows, n):
    """Signed minors of n - 1 rational rows, in ``Fraction`` arithmetic."""
    if n == 1:
        return (F(1),)
    out = []
    for j in range(n):
        m = [[r[k] for k in range(n) if k != j] for r in rows]
        d = m[0][0] if n == 2 else m[0][0] * m[1][1] - m[0][1] * m[1][0]
        out.append(d if j % 2 == 0 else -d)
    return tuple(out)


def _reference_halfspaces(verts, n):
    """Reference for ``simplex_halfspaces``, rational from edges to bounds."""
    out = []
    for omit in range(n + 1):
        face = [verts[i] for i in range(n + 1) if i != omit]
        normal = _cross_fraction([[a - b for a, b in zip(p, face[0])] for p in face[1:]], n)
        if not any(normal):
            raise DegenerateSimplex("affinely dependent simplex vertices")
        prim, _ = primitivize(normal)
        bound = F(_linalg.dot(prim, face[0]))
        if _linalg.dot(prim, verts[omit]) > bound:
            prim = tuple(-c for c in prim)
            bound = -bound
        out.append(halfspace(prim, bound))
    return out


class TestSimplexHalfspaces:
    """The integer half-space form against a ``Fraction`` reference."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_fraction_reference(self, n):
        rng = random.Random(f"simplex-halfspaces-{n}")
        for _ in range(40):
            verts = _rational_simplex(rng, n, den=rng.choice((1, 2, 5, 12)))
            # Swapping two vertices flips the orientation.
            for order in (verts, (verts[1], verts[0]) + verts[2:]):
                hs = simplex_halfspaces(order)
                assert hs == _reference_halfspaces(order, n)
                assert all(type(c) is int for h in hs for c in h.normal)
                assert all(type(h.bound) is Fraction for h in hs)
                for i, v in enumerate(order):
                    # Each vertex lies on every face but its own, strictly inside that one.
                    assert [h.slack(v) > 0 for h in hs] == [j == i for j in range(n + 1)]
                    assert all(h.slack(v) >= 0 for h in hs)

    @pytest.mark.parametrize("verts", [
        ((F(1) / 2,), (F(1) / 2,)),
        ((0, 0), (1, 1), (2, 2)),
        ((F(1) / 2, 0), (F(1) / 2, 3), (F(1) / 2, F(-1) / 3)),
        ((1, 2), (1, 2), (3, 0)),
        ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)),
        ((0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, F(1) / 7)),
        ((F(1) / 3, 0, 1), (0, F(2) / 5, 1), (1, 1, 1), (5, -3, 1)),
    ])
    def test_dependent_vertices_raise(self, verts):
        # The reference raises only when some face spans no hyperplane (two
        # equal points in 2-D, three collinear in 3-D); the library also
        # catches an omitted vertex on its face's hyperplane.
        verts = tuple(pt(*v) for v in verts)
        with pytest.raises(DegenerateSimplex):
            simplex_halfspaces(verts)

    @pytest.mark.parametrize("verts", [
        ((0,),),
        ((0, 0), (1, 0)),
        ((0, 0), (1, 0), (0, 1), (1, 1)),
        ((0, 0, 0), (1, 0, 0), (0, 1, 0)),
    ])
    def test_wrong_vertex_count_raises(self, verts):
        with pytest.raises(DegenerateSimplex):
            simplex_halfspaces(tuple(pt(*v) for v in verts))


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

    def test_matches_the_fraction_lp(self, monkeypatch):
        # The fraction-free pivots must walk to the same vertex as the
        # Fraction simplex method, field for field.
        rng = random.Random("best-origin-lp")
        rect = build_polytope([halfspace((1, 0), 2), halfspace((-1, 0), 2),
                               halfspace((0, 1), 1), halfspace((0, -1), 1)])
        bodies = [rect, translate(rect, (3, 1))]
        bodies += [random_polygon(rng) for _ in range(40)]
        bodies += [translate(random_polygon(rng), (F(rng.randint(-9, 9)) / rng.randint(1, 7),
                                                   F(rng.randint(-9, 9)) / rng.randint(1, 7)))
                   for _ in range(20)]
        bodies += [_random_body(rng, "box") for _ in range(15)]
        for poly in bodies:
            best = geometry._best_origin(poly)
            monkeypatch.setattr(_linalg, "lp_minimize", _fraction_lp_minimize)
            reference = geometry._best_origin(poly)
            monkeypatch.undo()
            assert best == reference
            assert all(type(c) is Fraction for c in (*best.point, best.max_support, best.depth))
