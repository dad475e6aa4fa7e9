"""Exact rational convex polytopes in half-space form.

A polytope is the bounded intersection of half-spaces ``<l_i, x> <= b_i``
with primitive integer normals ``l_i`` and rational bounds.  Everything
derived from it (vertices, facets, boundary measures, triangulations,
cone decompositions, subdivisions) is computed in exact rational
arithmetic; this module never touches floating point.

Vertices come from one place, :func:`_clip`, which cuts a known body by
half-spaces one at a time and carries along which half-spaces are tight
at each vertex (its active set).  :func:`build_polytope` validates user
input and then clips a bounding box by every input half-space; internal
cells (:func:`intersect`, :func:`subdivide_by_hyperplanes`) clip their
parent's vertices by a few more.  Either way the vertices and their
active sets go to :func:`_build`, which derives everything else from
them, the order of each 3-D facet's vertices included.

Boundary pieces carry the lattice measure: on the facet with normal ``l``
it is the Euclidean surface measure divided by ``|l|_2``.  Because the
Euclidean measure of a rational facet piece is a rational multiple of
``sqrt(|l|_2^2)``, the lattice measure of every facet piece is an exact
rational and no square root is ever materialized.

What a polytope computes when it is built, and what only when read:
:func:`_build` derives the vertices, the retained facets, their vertex
sets and the simplices tiling each facet.  Everything an integral reads
beyond that is a cached property, computed on first use and kept: a
facet's simplices over one denominator and its lattice measures
(:attr:`Facet.simplex_measures`), the triangulation and its integer
form, the volume and barycenter, and the clipping start and cone
half-spaces.  Most cells of the cone form are only integrated over
their volume, so they never compute a facet measure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, factorial, gcd, lcm

from . import _linalg
from .errors import (
    Degenerate,
    DegenerateSimplex,
    NonPrimitiveNormal,
    NotSimple,
    OriginNotInterior,
    Unbounded,
)

Point = tuple


def _frac_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True)
class HalfSpace:
    """One constraint ``<normal, x> <= bound`` with a primitive integer normal."""

    normal: tuple
    bound: Fraction

    @property
    def key(self):
        """Exact identity of the supporting hyperplane with orientation."""
        return (self.normal, self.bound)

    def value(self, x) -> Fraction:
        return _linalg.dot(self.normal, x)

    def slack(self, x) -> Fraction:
        return self.bound - self.value(x)


def halfspace(normal, bound) -> HalfSpace:
    """Convenience constructor accepting plain ints and rational strings."""
    return HalfSpace(tuple(int(c) for c in normal), Fraction(bound))


@dataclass(frozen=True)
class Simplex:
    """Affinely independent rational points spanning a k-simplex in R^n."""

    vertices: tuple
    ambient_dim: int

    @property
    def k(self) -> int:
        return len(self.vertices) - 1

    def volume(self) -> Fraction:
        """k-dimensional volume; only defined for full-dimensional simplices.

        The determinant is computed once per simplex and kept, so the
        cached triangulation of a cell pays for it once over every
        integral taken on that cell.
        """
        return self._volume

    @functools.cached_property
    def _volume(self) -> Fraction:
        n = self.ambient_dim
        if self.k != n:
            raise DegenerateSimplex("volume needs a full-dimensional simplex")
        q, points = _linalg.over_common_denominator(self.vertices)
        return Fraction(abs(_linalg.det_int(_edges(points))), q**n * factorial(n))


@dataclass(frozen=True)
class Facet:
    """A facet of a polytope and the simplices tiling it.

    ``simplices`` tile the facet, and ``normal`` is the primitive integer
    normal ``l`` of its half-space.  The lattice measure of each simplex,
    the exact rational Euclidean measure over ``|l|_2``, is computed on
    the first read of :attr:`simplex_measures` or :attr:`measure` and
    kept.  Boundary integrals and boundary measures read it; the facets
    of a cell that is only integrated over its volume never pay for it.
    """

    halfspace_index: int
    vertex_indices: tuple
    simplices: tuple
    normal: tuple

    @functools.cached_property
    def _integer_simplices(self) -> tuple:
        """``(q, scale, simplices)``: the simplices over one denominator.

        Each simplex becomes ``(c, points)``: its vertices are
        ``points / q`` and its lattice measure is ``c / scale``.  The
        generalized cross product of a simplex's edges is parallel to
        ``l``, and its component along ``l`` over ``(n-1)! |l|_2^2`` is
        exactly the Euclidean measure over ``|l|_2``.  With the edges as
        integer vectors over ``q`` the cross product is ``q**(n-1)`` times
        the rational one, so ``c = |<cross, l>|`` and
        ``scale = q**(n-1) |l|_2^2 (n-1)!``.
        """
        n = len(self.normal)
        q, points = _over_one_denominator(self.simplices)
        scale = q ** (n - 1) * sum(c * c for c in self.normal) * factorial(n - 1)
        return q, scale, tuple(
            (abs(_linalg.dot(_linalg.cross_generalized(_edges(p), n), self.normal)), p)
            for p in points
        )

    @functools.cached_property
    def simplex_measures(self) -> tuple:
        _, scale, simplices = self._integer_simplices
        return tuple(Fraction(c, scale) for c, _ in simplices)

    @property
    def measure(self) -> Fraction:
        _, scale, simplices = self._integer_simplices
        return Fraction(sum(c for c, _ in simplices), scale)


@dataclass(frozen=True)
class BestOrigin:
    """The closed-polytope minimum of the largest support value.

    Moving the origin to ``t`` turns each facet bound ``b_i`` into
    ``b_i(t) = b_i - <l_i, t>``.  ``point`` minimises
    ``F(t) = max_i b_i(t)`` over the closed polytope and ``max_support`` is
    that minimum.  Among the minimisers, ``point`` has the largest smallest
    support value, which is ``depth``: ``depth > 0`` exactly when some
    minimiser lies strictly inside, and then ``point`` is one of them.
    """

    point: Point
    max_support: Fraction
    depth: Fraction


@dataclass(frozen=True)
class ConeDecomposition:
    """Cones over the facet simplices with apex at the origin, tiling P."""

    cells: tuple  # pairs (facet_index, Simplex)

    def volumes(self):
        return tuple(simplex.volume() for _, simplex in self.cells)


class Polytope:
    """Bounded full-dimensional rational polytope.

    Instances are immutable after construction; use :func:`build_polytope`.
    Vertices are stored in lexicographic order, facets in the order of the
    retained half-spaces.
    """

    def __init__(self, dim, halfspaces, vertices, facets, origin_interior, warnings=()):
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self.vertices = tuple(vertices)
        self.facets = tuple(facets)
        self.origin_interior = origin_interior
        self.warnings = tuple(warnings)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.dim == other.dim
            and self.halfspaces == other.halfspaces
        )

    def __hash__(self):
        return hash((self.dim, self.halfspaces))

    def __repr__(self):
        return f"Polytope(dim={self.dim}, facets={len(self.facets)}, vertices={len(self.vertices)})"

    # -- membership ----------------------------------------------------------

    def contains(self, x) -> bool:
        """Closure membership."""
        return all(h.value(x) <= h.bound for h in self.halfspaces)

    def contains_interior(self, x) -> bool:
        return all(h.value(x) < h.bound for h in self.halfspaces)

    # -- cached derived data ---------------------------------------------------

    @functools.cached_property
    def volume(self) -> Fraction:
        _, scale, fan = self._integer_fan
        return Fraction(sum(det for det, _ in fan), scale)

    @functools.cached_property
    def boundary_measure(self) -> Fraction:
        return sum((f.measure for f in self.facets), Fraction(0))

    @functools.cached_property
    def barycenter(self) -> Point:
        # Exact first moments over the integer fan: the centroid of a
        # simplex is the vertex average and integrates x exactly, and every
        # simplex volume is its det over the same n! q**n.
        q, _, fan = self._integer_fan
        weight = (self.dim + 1) * q * sum(det for det, _ in fan)
        return tuple(
            Fraction(sum(det * sum(p[j] for p in points) for det, points in fan), weight)
            for j in range(self.dim)
        )

    @functools.cached_property
    def best_origin(self) -> BestOrigin:
        return _best_origin(self)

    def support_values(self, t) -> tuple:
        """Facet bounds ``b_i - <l_i, t>`` measured from the point ``t``."""
        return tuple(h.slack(t) for h in self.halfspaces)

    @functools.cached_property
    def triangulation(self) -> tuple:
        return _fan_triangulation(self)

    @functools.cached_property
    def _integer_fan(self) -> tuple:
        """``(q, scale, simplices)``: :attr:`triangulation` over one denominator.

        The same form as :attr:`Facet._integer_simplices`: each simplex
        is ``(det, points)`` with vertices ``points / q``, ``det`` the
        integer ``|det|`` of its edges and ``scale = n! q**n``, so its
        volume is ``det / scale``.  Volume integrals sum integers over
        this and build one ``Fraction`` per call.
        """
        q, points = _over_one_denominator(self.triangulation)
        fan = tuple((abs(_linalg.det_int(_edges(p))), p) for p in points)
        return q, factorial(self.dim) * q**self.dim, fan

    @functools.cached_property
    def _clip_start(self) -> tuple:
        """Each vertex as ``(point, numerators, denominator, tight set)``.

        :func:`intersect` starts :func:`_clip` from here: ``point`` equals
        ``numerators / denominator``, and the tight set holds the indices
        of the facet half-spaces through the vertex.  Kept because a cell
        is clipped once per cone of the cone form.
        """
        tight = [set() for _ in self.vertices]
        for facet in self.facets:
            for j in facet.vertex_indices:
                tight[j].add(facet.halfspace_index)
        start = []
        for v, at_v in zip(self.vertices, tight):
            q, (p,) = _linalg.over_common_denominator((v,))
            start.append((v, p, q, frozenset(at_v)))
        return tuple(start)

    @functools.cached_property
    def _cone_halfspaces(self) -> tuple:
        """Each cone of :func:`cone_decomposition` as ``(support, half-spaces)``.

        ``support`` is the bound ``b_i`` of the cone's facet and the
        half-spaces are :func:`simplex_halfspaces` of its simplex, in the
        decomposition's order.  Both depend on the polytope alone; kept
        because the cone form clips every PL cell by every cone.
        """
        return tuple(
            (self.halfspaces[self.facets[fi].halfspace_index].bound,
             tuple(simplex_halfspaces(simplex)))
            for fi, simplex in cone_decomposition(self).cells
        )

    @functools.cached_property
    def facet_keys(self) -> frozenset:
        return frozenset(self.halfspaces[f.halfspace_index].key for f in self.facets)

    @functools.cached_property
    def ccw_cycle(self) -> tuple:
        """Vertex indices in counterclockwise order from the smallest (surfaces only)."""
        if self.dim != 2:
            raise ValueError("ccw_cycle is defined for dim 2 only")
        neighbours = [[] for _ in self.vertices]
        for facet in self.facets:
            a, b = facet.vertex_indices
            neighbours[a].append(b)
            neighbours[b].append(a)
        return tuple(_ccw_walk(self.vertices, neighbours))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_polytope(halfspaces, *, require_simple=True) -> Polytope:
    """Construct a polytope from half-space data, verifying its invariants.

    After validation, duplicates are dropped with a warning record and the
    body is checked to be bounded.  Its vertices then come from clipping
    the box ``|x_j| <= M`` by every input half-space (see :func:`_clip`).
    ``M = n! H**n + 1``, with ``H`` the largest ``|normal entry|`` and
    ``ceil(|bound|)``, puts the body strictly inside the box: by Cramer's
    rule a vertex coordinate is a determinant with entries of size at most
    ``H``, so at most ``n! H**n``, over a nonzero integer determinant.  So
    no box half-space is tight at a vertex of the body, and the active
    sets lose nothing when the box indices are shifted off.  Redundant
    half-spaces (touching the body in dimension below n-1 or not at all)
    are dropped with a warning record.
    """
    hs = [HalfSpace(tuple(int(c) for c in h.normal), Fraction(h.bound)) for h in halfspaces]
    if not hs:
        raise Degenerate("no half-spaces given")
    n = len(hs[0].normal)
    for h in hs:
        if len(h.normal) != n:
            raise Degenerate("mixed normal dimensions")
        if all(c == 0 for c in h.normal):
            raise NonPrimitiveNormal(f"zero normal with bound {h.bound}")
        g = 0
        for c in h.normal:
            g = gcd(g, abs(c))
        if g != 1:
            raise NonPrimitiveNormal(f"normal {h.normal} has content {g}")
    if len(hs) < n + 1:
        raise Unbounded(f"{len(hs)} half-spaces cannot bound dimension {n}")

    warnings = []
    deduped = []
    seen = set()
    for h in hs:
        if h.key in seen:
            warnings.append(f"duplicate half-space {h.normal} <= {h.bound} dropped")
            continue
        seen.add(h.key)
        deduped.append(h)

    _check_bounded(deduped, n)
    big = max(max(*map(abs, h.normal), ceil(abs(h.bound))) for h in deduped)
    m = factorial(n) * big**n + 1
    # Box half-space 2j is x_j <= m and 2j + 1 is -x_j <= m.
    box = [HalfSpace(tuple(s * (k == j) for k in range(n)), Fraction(m))
           for j in range(n) for s in (1, -1)]
    start = [(None, [-m if s else m for s in signs], 1,
              frozenset(2 * j + s for j, s in enumerate(signs)))
             for signs in itertools.product((0, 1), repeat=n)]
    clipped = _clip(start, box + deduped, n, len(box))
    if not clipped:
        raise Degenerate("half-space intersection is empty")
    body = _full_body(clipped, n)
    if body is None:
        raise Degenerate("vertex hull is not full-dimensional")
    vertices, active = body
    active = [frozenset(i - len(box) for i in at_v) for at_v in active]
    return _build(deduped, n, vertices, active, require_simple=require_simple,
                  warnings=warnings)


def _build(hs, n, vertices, active, *, require_simple, warnings=()) -> Polytope:
    """Shared constructor from the half-spaces, the vertices and their active sets.

    ``vertices`` must be exactly the vertices of the body the half-spaces
    bound, which must be full-dimensional, and ``active[j]`` exactly the
    indices into ``hs`` of the half-spaces tight at ``vertices[j]``.  Both
    come from :func:`_clip`; nothing is re-evaluated here.  Retained
    facets, facet simplices and warnings are derived from them; each
    facet keeps its normal, and its lattice measures wait until a
    boundary integral reads them (see :class:`Facet`).

    A 3-D facet's vertices are put in order by its edge graph: two of
    them share an edge exactly when their active sets meet in an index
    besides the facet's own, for then both lie on a second supporting
    plane.  :func:`_ccw_walk` turns the graph into the counterclockwise
    cycle, as seen with the normal's first nonzero coordinate dropped,
    from the smallest vertex.
    """
    warnings = list(warnings)
    order = sorted(range(len(vertices)), key=vertices.__getitem__)
    vertices = [vertices[j] for j in order]
    active = [active[j] for j in order]
    on = [[] for _ in hs]
    for j, at_v in enumerate(active):
        for i in at_v:
            on[i].append(j)

    # Facet retention: a half-space supports a facet exactly when its active
    # vertex set spans affine dimension n-1.  For n <= 3 a count decides:
    # no vertex of a convex body lies between two others, so n distinct
    # vertices on one supporting plane are never collinear.  From n = 4 on,
    # n of them can share a lower face (four on a 2-face), so the rank is
    # computed.
    retained = []
    for i, h in enumerate(hs):
        pts = [vertices[j] for j in on[i]]
        if len(pts) >= n and (n <= 3 or _linalg.affine_rank(pts) == n - 1):
            retained.append(i)
        else:
            warnings.append(f"redundant half-space {h.normal} <= {h.bound} dropped")

    kept = [hs[i] for i in retained]
    facets = []
    for new_index, old_index in enumerate(retained):
        h = hs[old_index]
        vidx = on[old_index]
        points = [vertices[j] for j in vidx]
        if n == 3:
            neighbours = [
                [q for q, k in enumerate(vidx) if k != j and len(active[j] & active[k]) > 1]
                for j in vidx
            ]
            drop = next(j for j, c in enumerate(h.normal) if c != 0)
            flat = [p[:drop] + p[drop + 1:] for p in points]
            points = [points[q] for q in _ccw_walk(flat, neighbours)]
        facets.append(Facet(new_index, tuple(vidx), _facet_simplices(points, n), h.normal))

    if require_simple:
        for j, v in enumerate(vertices):
            count = sum(1 for f in facets if j in f.vertex_indices)
            if count != n:
                raise NotSimple(f"vertex {v} lies on {count} facets")

    # At the origin every <l, x> is 0, so it is interior when every bound is positive.
    origin_interior = all(h.bound > 0 for h in kept)
    return Polytope(n, kept, vertices, facets, origin_interior, warnings)


def _ccw_walk(flat, neighbours) -> list:
    """Positions of a convex polygon's vertices in counterclockwise order from 0.

    ``flat`` holds the planar vertices and ``neighbours[q]`` the two
    positions sharing an edge with ``q``.  The walk leaves 0 towards the
    neighbour from which the other one lies counterclockwise about 0 (one
    2x2 integer determinant), then follows the edges.
    """
    a, b = neighbours[0]
    _, (o, pa, pb) = _linalg.over_common_denominator((flat[0], flat[a], flat[b]))
    if (pa[0] - o[0]) * (pb[1] - o[1]) < (pa[1] - o[1]) * (pb[0] - o[0]):
        a = b
    cycle = [0, a]
    while len(cycle) < len(flat):
        x, y = neighbours[cycle[-1]]
        cycle.append(y if x == cycle[-2] else x)
    return cycle


def _best_origin(poly: Polytope) -> BestOrigin:
    """Solve for :class:`BestOrigin` as one exact LP in ``(t, h, depth)``.

    Rows ``b_i(t) >= depth``, ``b_i(t) <= h`` and ``depth >= 0``; minimise
    ``h``, then maximise ``depth``.  The start is the first vertex ``v``
    with ``h = F(v)`` and ``depth = 0``: the n facets through ``v``, one
    row reaching ``F(v)`` and ``depth >= 0`` are tight and independent.
    """
    n, m = poly.dim, len(poly.halfspaces)
    rows, rhs = [], []
    for h in poly.halfspaces:
        rows.append(h.normal + (0, 1))
        rhs.append(h.bound)
    for h in poly.halfspaces:
        rows.append(tuple(-c for c in h.normal) + (-1, 0))
        rhs.append(-h.bound)
    lowest_depth = (0,) * (n + 1) + (-1,)
    rows.append(lowest_depth)
    rhs.append(Fraction(0))

    v = poly.vertices[0]
    basis = []
    for i, h in enumerate(poly.halfspaces):
        if h.value(v) == h.bound and len(basis) < n and _linalg.rank(
            [poly.halfspaces[j].normal for j in basis] + [h.normal]
        ) == len(basis) + 1:
            basis.append(i)
    at_v = poly.support_values(v)
    basis += [m + at_v.index(max(at_v)), 2 * m]

    objectives = [(0,) * n + (1, 0), lowest_depth]
    z = _linalg.lp_minimize(rows, rhs, objectives, basis)
    return BestOrigin(point=z[:n], max_support=z[n], depth=z[n + 1])


def _check_bounded(hs, n):
    normals = [h.normal for h in hs]
    if _linalg.rank(normals) < n:
        raise Unbounded("normals do not span the ambient space")
    # The recession cone is pointed once the normals span; it is nonzero
    # exactly when some candidate extreme ray (null direction of an
    # (n-1)-subset of normals) satisfies every inequality <l, v> <= 0.
    if n == 1:
        candidates = [(1,), (-1,)]
    else:
        candidates = []
        for subset in itertools.combinations(range(len(hs)), n - 1):
            v = _linalg.cross_generalized([normals[i] for i in subset], n)
            if any(c != 0 for c in v):
                candidates.append(v)
                candidates.append(tuple(-c for c in v))
    for v in candidates:
        if all(_linalg.dot(h.normal, v) <= 0 for h in hs):
            raise Unbounded(f"direction {v} recedes")


def _facet_simplices(points, n) -> tuple:
    """Simplices tiling a facet; in 3-D the points come in cycle order and
    are fanned from the first."""
    if n <= 2:
        return (Simplex(tuple(points), n),)
    return tuple(Simplex((points[0], points[i], points[i + 1]), n)
                 for i in range(1, len(points) - 1))


def _over_one_denominator(simplices):
    """``(q, points)``: each simplex's vertices as integer numerators over
    the common denominator ``q`` of all of them."""
    q = lcm(*[c.denominator for s in simplices for v in s.vertices for c in v])
    return q, [[[c.numerator * (q // c.denominator) for c in v] for v in s.vertices]
               for s in simplices]


def _edges(points):
    """Edge vectors from the first of the integer points."""
    base = points[0]
    return [[a - b for a, b in zip(p, base)] for p in points[1:]]


def _angular_order(vectors):
    """Indices sorted by exact angle of nonzero planar vectors."""

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def compare(i, j):
        vi, vj = vectors[i], vectors[j]
        hi, hj = half(vi), half(vj)
        if hi != hj:
            return -1 if hi < hj else 1
        cross = vi[0] * vj[1] - vi[1] * vj[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(range(len(vectors)), key=functools.cmp_to_key(compare))


def _cones(poly: Polytope, apex, facets) -> list:
    """``(facet_index, Simplex)``: the cone from ``apex`` over each simplex
    of the ``(facet_index, Facet)`` pairs, which must leave out the facets
    through ``apex``."""
    return [(fi, Simplex((apex,) + s.vertices, poly.dim))
            for fi, facet in facets for s in facet.simplices]


def _fan_triangulation(poly: Polytope) -> tuple:
    """n-simplices tiling P: cone from vertex 0 over the facets not through it."""
    away = [(fi, f) for fi, f in enumerate(poly.facets) if 0 not in f.vertex_indices]
    return tuple(s for _, s in _cones(poly, poly.vertices[0], away))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def delzant_check(poly: Polytope):
    """Whether the facet normals at every vertex form a lattice basis.

    Returns ``(ok, first_violating_vertex)`` scanning vertices in their
    stored lexicographic order.
    """
    for j, v in enumerate(poly.vertices):
        normals = [
            poly.halfspaces[f.halfspace_index].normal
            for f in poly.facets
            if j in f.vertex_indices
        ]
        if len(normals) != poly.dim:
            return False, v
        if abs(_linalg.det_int(normals)) != 1:
            return False, v
    return True, None


def cone_decomposition(poly: Polytope) -> ConeDecomposition:
    """Cones with apex at the origin over the facet simplices."""
    if not poly.origin_interior:
        raise OriginNotInterior("cone decomposition needs 0 strictly inside")
    origin = tuple(Fraction(0) for _ in range(poly.dim))
    return ConeDecomposition(tuple(_cones(poly, origin, enumerate(poly.facets))))


def subdivide_by_hyperplanes(poly: Polytope, cuts) -> list:
    """Cells of P carved by the zero sets of affine functions.

    Each cut contributes its two closed sides; cells are the nonempty
    full-dimensional intersections over all sign patterns.  Cut objects
    need ``gradient`` and ``constant`` attributes (or may be given as
    ``(gradient, constant)`` pairs).  Each sign pattern is one call to
    :func:`intersect`.
    """
    cells = [[]]
    for cut in cuts:
        grad, const = _cut_data(cut)
        if all(g == 0 for g in grad):
            continue  # constant function: one side is everything
        prim, s = _linalg.primitivize(grad)
        below = HalfSpace(prim, -s * const)  # gradient side <= 0
        above = HalfSpace(tuple(-c for c in prim), s * const)
        new_cells = []
        for cell in cells:
            new_cells.append(cell + [below])
            new_cells.append(cell + [above])
        cells = new_cells
    out = []
    for cell_hs in cells:
        cell = intersect(poly, cell_hs)
        if cell is not None:
            out.append(cell)
    return out


def intersect(poly: Polytope, halfspaces) -> Polytope | None:
    """Intersection with extra half-spaces; None if empty or lower-dimensional.

    The cell's vertices and their active sets come from clipping
    ``poly.vertices`` (see :func:`_clip`), not from a fresh evaluation of
    every half-space at every vertex, and whether they span dimension n is
    decided on the integer numerators the clip holds (see
    :func:`_full_body`).  The cell is built like any polytope: facet
    measures, triangulation and volume come on demand, so a cell that is
    only integrated over its volume never measures a facet.
    ``tests/test_geometry.py`` keeps an exhaustive n-subset enumeration of
    the combined list as the oracle the result must equal field for field.
    """
    n = poly.dim
    # The body's half-spaces are unique already, each supporting a facet.
    combined = list(poly.halfspaces)
    seen = set(poly.facet_keys)
    for h in halfspaces:
        if h.key not in seen:
            seen.add(h.key)
            combined.append(h)
    body = _full_body(_clip(poly._clip_start, combined, n, len(poly.halfspaces)), n)
    if body is None:
        return None
    return _build(combined, n, *body, require_simple=False)


def _clip(start, hs, n, first):
    """The vertices of a body cut by ``hs[first:]``, in the form of ``start``.

    ``start`` lists the body's vertices as ``(point, numerators,
    denominator, tight set)``: ``point`` is ``numerators / denominator``
    or None, and the tight set holds the indices into ``hs[:first]`` of
    the half-spaces through the vertex.  Each further half-space is
    applied in turn: a vertex with slack >= 0 stays, and a pair of
    vertices with one strictly inside and one strictly outside adds its
    crossing point when the pair spans an edge, that is when the
    half-spaces tight at both have rank n - 1.  A kept vertex gains the
    new index when its slack is 0, and a crossing point gets its edge's
    common set plus the new index.  A point inside an edge is tight
    exactly where the whole edge is, so these sets are exact and
    :func:`_build` takes them as given.  This holds for any body, so the
    result is exact even when it is empty or lower-dimensional, which
    the caller checks (see :func:`_full_body`).

    The clipping runs on integers: a vertex is ``p / q`` with an integer
    vector ``p`` and a positive integer ``q``, and the slack against
    ``<l, x> <= b`` is replaced by ``S = num(b) q - den(b) <l, p>``, which
    is ``den(b) q`` times the slack and so has its sign.  The crossing
    point of ``u`` (``S_u > 0``) and ``w`` (``S_w < 0``) is
    ``(S_u p_w - S_w p_u) / (S_u q_w - S_w q_u)``; it gets its
    ``Fraction`` point only if the body is kept (see :func:`_full_body`).
    """
    current = start
    for i in range(first, len(hs)):
        h = hs[i]
        num, den = h.bound.numerator, h.bound.denominator
        kept, inside, outside = [], [], []
        for vertex in current:
            v, p, q, at_v = vertex
            s = num * q - den * _linalg.dot(h.normal, p)
            if s > 0:
                kept.append(vertex)
                inside.append((vertex, s))
            elif s == 0:
                kept.append((v, p, q, at_v | {i}))
            else:
                outside.append((vertex, s))
        for (_, pu, qu, at_u), su in inside:
            for (_, pw, qw, at_w), sw in outside:
                common = at_u & at_w
                if _spans_edge([hs[k].normal for k in common], n):
                    p = [su * b - sw * a for a, b in zip(pu, pw)]
                    q = su * qw - sw * qu
                    g = gcd(q, *p)
                    kept.append((None, [c // g for c in p], q // g, common | {i}))
        if not kept:
            return []
        current = kept
    return current


def _full_body(clipped, n):
    """``(vertices, tight sets)`` of a :func:`_clip` result, or None when
    it is not full-dimensional.

    The vertices ``p / q`` span dimension n exactly when the homogeneous
    rows ``(q, p)`` have rank n + 1, so the test runs on the integers
    ``_clip`` holds.  Only a full-dimensional body has its new vertices
    turned into ``Fraction`` points.
    """
    if len(clipped) <= n or _linalg.rank([[q, *p] for _, p, q, _ in clipped]) <= n:
        return None
    vertices = [tuple(Fraction(c, q) for c in p) if v is None else v
                for v, p, q, _ in clipped]
    return vertices, [at_v for *_, at_v in clipped]


def _spans_edge(normals, n) -> bool:
    """Whether the normals tight at two distinct vertices have rank n - 1.

    Both vertices satisfy every one of these normals with equality, so
    the rank is at most n - 1; in 1-D and 2-D the test is a count, in 3-D
    it asks for one normal not parallel to the first.
    """
    if n <= 2:
        return len(normals) >= n - 1
    if n == 3:
        if not normals:
            return False
        a1, a2, a3 = normals[0]
        return any(
            a2 * b3 != a3 * b2 or a3 * b1 != a1 * b3 or a1 * b2 != a2 * b1
            for b1, b2, b3 in normals[1:]
        )
    return _linalg.rank(normals) == n - 1


def _cut_data(cut):
    if hasattr(cut, "gradient"):
        return tuple(Fraction(g) for g in cut.gradient), Fraction(cut.constant)
    grad, const = cut
    return tuple(Fraction(g) for g in grad), Fraction(const)


def translate(poly: Polytope, t) -> Polytope:
    """Shift by a rational vector: normals unchanged, bounds adjusted."""
    t = _frac_point(t)
    shifted = [
        HalfSpace(h.normal, h.bound + h.value(t)) for h in poly.halfspaces
    ]
    return build_polytope(shifted)


def simplex_halfspaces(simplex: Simplex):
    """Half-space representation of a full-dimensional simplex.

    The work runs on integers: with the vertices written as ``P / q``, the
    cross product of a face's integer edges is ``q**(n-1)`` times the
    rational one, so it has the same primitive normal, found by a gcd and
    turned away from the omitted vertex.  The only ``Fraction`` built per
    face is its bound ``<l, P_0> / q``.  Affinely dependent vertices raise
    :class:`DegenerateSimplex`: then some omitted vertex lies on the
    hyperplane through its face, or the face spans none.
    """
    n = simplex.ambient_dim
    if simplex.k != n:
        raise DegenerateSimplex("half-space form needs a full-dimensional simplex")
    q, points = _linalg.over_common_denominator(simplex.vertices)
    out = []
    for omit in range(n + 1):
        face = [p for i, p in enumerate(points) if i != omit]
        normal = _linalg.cross_generalized(_edges(face), n)
        level = _linalg.dot(normal, face[0])
        side = _linalg.dot(normal, points[omit]) - level
        if side == 0:
            raise DegenerateSimplex("affinely dependent simplex vertices")
        g = gcd(*normal) if side < 0 else -gcd(*normal)
        out.append(HalfSpace(tuple(c // g for c in normal), Fraction(level // g, q)))
    return out
