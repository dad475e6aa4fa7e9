"""Exact rational convex polytopes in half-space form.

A polytope is the bounded intersection of half-spaces ``<l_i, x> <= b_i``
with primitive integer normals ``l_i`` and rational bounds.  Everything
derived from it (vertices, facets, boundary measures, moments, the cones
over its facets) is computed in exact rational arithmetic; this module
never touches floating point.

Vertices come from one place, :func:`_clip`, which cuts a known body by
half-spaces one at a time and carries along which half-spaces are tight
at each vertex (its active set), each vertex as integer numerators over
a denominator.  :func:`build_polytope` validates user input and then
clips a bounding box by every input half-space; a cell
(:func:`intersect`) clips its parent's vertices by a few more.  Either
way the vertices and their active sets go to :func:`_build`, which
derives everything else from them; which half-spaces support facets,
and the cycle order of each 3-D facet's vertices, come from
:func:`_facets`.

There is one simplex form: the integer points of a clip over one
denominator.  :func:`_fan` cones a body from its first vertex over the
facets not through it, each facet fanned from the first vertex of its
cycle by :func:`_facet_simplices`, and :func:`_simplex_moments` sums the
closed-form moments over those simplices.  A facet is fanned the same way
in its own dimension.  The cone form has one pyramid per facet, with its
apex at the origin (:attr:`Polytope._cone_halfspaces`), and fans it like
any other clip.

Boundary pieces carry the lattice measure: on the facet with normal ``l``
it is the Euclidean surface measure divided by ``|l|_2``.  Because the
Euclidean measure of a rational facet piece is a rational multiple of
``sqrt(|l|_2^2)``, the lattice measure of every facet piece is an exact
rational and no square root is ever materialized.

What a polytope computes when it is built, and what only when read:
:func:`_build` derives the retained facets, each with its vertices in
cycle order, and the polytope keeps its clip (see :class:`Polytope`):
the simplicity check, :func:`delzant_check`, the start of the
:func:`_best_origin` LP and every later clip read its tight sets, and
nothing is rebuilt from ``Fraction`` vertices.
Everything an integral reads beyond that is a cached property, computed
on first use and kept: a facet's simplices over one denominator, their
lattice measures (:attr:`Facet.simplex_measures`) and the facet's
moments, the body's moments, the volume and barycenter, and the
pyramids of the cone form.

The cells of the cone form are never polytopes.  It reads nothing of a
cone cell but its moments, so :func:`_cell_moments` clips a pyramid's
start by the cuts of one PL cell with the same :func:`_clip` and
:func:`_facets` that :func:`intersect` uses and takes the moments
straight from the clip's integer vertices, building no
:class:`Polytope`, :class:`Facet` or ``Fraction`` vertex.
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
    NonPrimitiveNormal,
    NotSimple,
    Unbounded,
    UnsupportedDimension,
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
        q, (p,) = _linalg.over_common_denominator((x,))
        return Fraction(_linalg.dot(self.normal, p), q)

    def slack(self, x) -> Fraction:
        q, (p,) = _linalg.over_common_denominator((x,))
        return self._slack(q, p)

    def _slack(self, q, p) -> Fraction:
        """The slack at the point ``p / q`` (integer ``p``), as one ``Fraction``."""
        num, den = self.bound.numerator, self.bound.denominator
        return Fraction(num * q - den * _linalg.dot(self.normal, p), den * q)


def halfspace(normal, bound) -> HalfSpace:
    """Convenience constructor accepting plain ints and rational strings."""
    return HalfSpace(tuple(int(c) for c in normal), Fraction(bound))


@dataclass(frozen=True)
class Facet:
    """A facet of a polytope and its vertices.

    ``vertex_indices`` are the positions of the facet's vertices in the
    polytope's vertex list and ``vertices`` the points themselves, both in
    the order :func:`_facets` gives: the cycle from the first vertex in
    3-D, increasing otherwise.  ``normal`` is the primitive integer normal
    ``l`` of its half-space.  The simplices tiling the facet and the
    lattice measure of each, the exact rational Euclidean measure over
    ``|l|_2``, are computed on the first read of :attr:`simplex_measures`
    or :attr:`measure` and kept.  Boundary integrals and boundary measures
    read them; the facets of a cell that is only integrated over its
    volume never pay for them.
    """

    halfspace_index: int
    vertex_indices: tuple
    vertices: tuple
    normal: tuple

    @functools.cached_property
    def _integer_simplices(self) -> tuple:
        """``(q, scale, simplices)``: the facet's simplices over one denominator.

        The vertices become integer points over their common denominator
        ``q`` and are fanned by :func:`_facet_simplices`.  Each simplex is
        ``(c, points)``: its vertices are ``points / q`` and its lattice
        measure is ``c / scale``.  The generalized cross product of a
        simplex's edges is parallel to ``l``, and its component along
        ``l`` over ``(n-1)! |l|_2^2`` is exactly the Euclidean measure over
        ``|l|_2``.  With the edges as integer vectors over ``q`` the cross
        product is ``q**(n-1)`` times the rational one, so
        ``c = |<cross, l>|`` and ``scale = q**(n-1) |l|_2^2 (n-1)!``.
        """
        n = len(self.normal)
        q, points = _linalg.over_common_denominator(self.vertices)
        scale = q ** (n - 1) * sum(c * c for c in self.normal) * factorial(n - 1)
        return q, scale, tuple(
            (abs(_linalg.dot(_linalg.cross_generalized(_edges(p), n), self.normal)), p)
            for p in _facet_simplices(points, n)
        )

    @functools.cached_property
    def _moments(self) -> tuple:
        """:func:`_simplex_moments` of the facet with its lattice measure."""
        return _simplex_moments(len(self.normal) - 1, *self._integer_simplices)

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


class Polytope:
    """Bounded full-dimensional rational polytope.

    Instances are immutable after construction; use :func:`build_polytope`.
    Vertices are stored in lexicographic order, facets in the order of the
    retained half-spaces.  ``_clip_start`` is the clip the polytope was
    built from, each vertex as ``(point, numerators, denominator, tight
    set)`` in vertex order: ``point`` equals ``numerators / denominator``
    in lowest terms, and the tight set holds the indices into
    ``halfspaces`` of the facets through the vertex.  :func:`intersect`
    starts :func:`_clip` from it, the pyramids of :attr:`_cone_halfspaces`
    take their facet vertices from it, and :attr:`_moments` fans it.
    """

    def __init__(self, dim, halfspaces, clip_start, facets, origin_interior, warnings=()):
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self._clip_start = tuple(clip_start)
        self.vertices = tuple(v for v, *_ in self._clip_start)
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
        denominator, moments = self._moments
        return Fraction(moments[()], denominator)

    @functools.cached_property
    def boundary_measure(self) -> Fraction:
        return sum((f.measure for f in self.facets), Fraction(0))

    @functools.cached_property
    def rbar(self) -> Fraction:
        """Boundary measure over volume: the average scalar curvature."""
        return self.boundary_measure / self.volume

    @functools.cached_property
    def barycenter(self) -> Point:
        # The first moments over the volume, both over the same denominator.
        _, moments = self._moments
        return tuple(Fraction(moments[(j,)], moments[()]) for j in range(self.dim))

    @functools.cached_property
    def best_origin(self) -> BestOrigin:
        return _best_origin(self)

    def support_values(self, t) -> tuple:
        """Facet bounds ``b_i - <l_i, t>`` measured from the point ``t``."""
        q, (p,) = _linalg.over_common_denominator((t,))
        return tuple(h._slack(q, p) for h in self.halfspaces)

    @functools.cached_property
    def _moments(self) -> tuple:
        """:func:`_simplex_moments` of the body over its :func:`_fan`, read
        by volume integrals of degree <= 2."""
        cycles = [f.vertex_indices for f in self.facets]
        return _simplex_moments(self.dim, *_fan(self.dim, self._clip_start, cycles))

    @functools.cached_property
    def _cone_halfspaces(self) -> tuple:
        """The pyramids from the origin over the facets, as ``(support, half-spaces, start)``.

        One pyramid per facet, in facet order; ``support`` is the bound
        ``b_i`` of its facet.  The first half-space is the facet's own,
        and then comes one plane through the origin per ridge of the
        facet, turned towards the rest of the facet: the facet's vertices
        taken n - 1 at a time around its cycle, so in 3-D the edges of the
        cycle, in 2-D the two vertices and in 1-D the empty ridge.  With
        the vertices as integer points ``p / q`` the ridge plane's normal
        is the primitive :func:`_linalg.cross_generalized` of the ridge's
        ``p``, as scaling each point by its own ``q`` keeps a plane through
        the origin.  ``start`` is the pyramid's :func:`_clip` start, the
        apex first, then the facet's vertices as the polytope's clip holds
        them.  Its tight sets are exact: the apex lies on every ridge plane
        and not on the facet plane, and a vertex of the facet lies on the
        facet plane and on the planes of its ridges only, since the origin
        is off the facet plane and no three vertices of a facet are
        collinear.  The pyramids tile P when the origin is interior, which
        the caller checks before reading them.  Kept because the cone form
        cuts every pyramid by the cuts of every PL cell.
        """
        n = self.dim
        pyramids = []
        for facet in self.facets:
            own = self.halfspaces[facet.halfspace_index]
            base = [self._clip_start[j] for j in facet.vertex_indices]
            m = len(base)
            ridges = [tuple((j + k) % m for k in range(n - 1)) for j in range(m)]
            hs = [own]
            for j, ridge in enumerate(ridges):
                normal = _linalg.cross_generalized([base[k][1] for k in ridge], n)
                # The vertex after the ridge is off its plane and must keep slack > 0.
                side = _linalg.dot(normal, base[(j + n - 1) % m][1])
                g = gcd(*normal) if side < 0 else -gcd(*normal)
                hs.append(HalfSpace(tuple(c // g for c in normal), Fraction(0)))
            apex = ((Fraction(0),) * n, [0] * n, 1, frozenset(range(1, m + 1)))
            start = [apex] + [
                (v, p, q, frozenset([0] + [1 + j for j, ridge in enumerate(ridges) if k in ridge]))
                for k, (v, p, q, _) in enumerate(base)
            ]
            pyramids.append((own.bound, tuple(hs), tuple(start)))
        return tuple(pyramids)

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
        return tuple(_ccw_walk([(q, *p) for _, p, q, _ in self._clip_start], neighbours))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_polytope(halfspaces, *, require_simple=True) -> Polytope:
    """Construct a polytope from half-space data, verifying its invariants.

    The dimension must be 1 to 3.  After validation, duplicates are
    dropped with a warning record and the normals are checked to span, so
    the body has a vertex if it is not empty.  Its vertices then come from
    clipping the box ``|x_j| <= M`` by every input half-space (see
    :func:`_clip`).  ``M = n! H**n + 1``, with ``H`` the largest ``|normal
    entry|`` and ``ceil(|bound|)``, puts every vertex of the body strictly
    inside the box: by Cramer's rule a vertex coordinate is a determinant
    with entries of size at most ``H``, so at most ``n! H**n``, over a
    nonzero integer determinant.  So an empty clip means an empty body,
    which is reported before any recession direction is looked for; for a
    bounded body no box half-space is tight at a vertex, and the active
    sets lose nothing when the box indices are shifted off.  Redundant
    half-spaces (touching the body in dimension below n-1 or not at all)
    are dropped with a warning record.
    """
    hs = [HalfSpace(tuple(int(c) for c in h.normal), Fraction(h.bound)) for h in halfspaces]
    if not hs:
        raise Degenerate("no half-spaces given")
    n = len(hs[0].normal)
    if n > 3:
        raise UnsupportedDimension(
            f"dimension {n} is not supported; polytopes have dimension 1 to 3")
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

    if _linalg.rank([h.normal for h in deduped]) < n:
        raise Unbounded("normals do not span the ambient space")
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
    _check_recession(deduped, n)
    if not _full_body(clipped, n):
        raise Degenerate("vertex hull is not full-dimensional")
    body = [(v, p, q, frozenset(i - len(box) for i in at_v)) for v, p, q, at_v in clipped]
    return _build(deduped, n, body, require_simple=require_simple, warnings=warnings)


def _build(hs, n, body, *, require_simple, warnings=()) -> Polytope:
    """Shared constructor from the half-spaces and the vertices of their body.

    ``body`` lists the vertices in the form :func:`_clip` returns them,
    ``(point, numerators, denominator, tight set)``, and must be exactly
    the vertices of the body the half-spaces bound, which must be
    full-dimensional, with each tight set exactly the indices into ``hs``
    of the half-spaces through the vertex, and each vertex in lowest
    terms.  Nothing is re-evaluated here.  A vertex without its
    ``Fraction`` point gets it now.  Retained facets and their vertex
    order come from :func:`_facets`, and warnings from what it drops;
    each facet keeps its vertices in that order and its normal, and its
    simplices and their lattice measures wait until a boundary integral
    reads them (see :class:`Facet`).  The polytope keeps the sorted body
    as its ``_clip_start``, the tight sets renumbered to the retained
    half-spaces, so a vertex lies on as many facets as its tight set holds.
    """
    warnings = list(warnings)
    body = sorted(
        ((tuple(Fraction(c, q) for c in p) if v is None else v, p, q, at_v)
         for v, p, q, at_v in body),
        key=lambda vertex: vertex[0],
    )
    kept, facets, renumber = [], [], {}
    for i, (h, cycle) in enumerate(zip(hs, _facets(hs, n, body))):
        if cycle is None:
            warnings.append(f"redundant half-space {h.normal} <= {h.bound} dropped")
            continue
        renumber[i] = len(kept)
        facets.append(Facet(len(kept), tuple(cycle), tuple(body[j][0] for j in cycle), h.normal))
        kept.append(h)
    clip = [(v, p, q, frozenset(renumber[i] for i in at_v if i in renumber))
            for v, p, q, at_v in body]

    if require_simple:
        for v, _, _, at_v in clip:
            if len(at_v) != n:
                raise NotSimple(f"vertex {v} lies on {len(at_v)} facets")

    # At the origin every <l, x> is 0, so it is interior when every bound is positive.
    origin_interior = all(h.bound > 0 for h in kept)
    return Polytope(n, kept, clip, facets, origin_interior, warnings)


def _facets(hs, n, body) -> list:
    """For each half-space, the positions in ``body`` of its facet's
    vertices, or None when it supports no facet.

    ``body`` lists the vertices as :func:`_clip` does, and only the
    integer numerators, denominators and tight sets are read.  A
    half-space supports a facet exactly when its vertices span affine
    dimension n-1.  For n <= 3 a count decides: no vertex of a convex body
    lies between two others, so n distinct vertices on one supporting
    plane are never collinear.

    The positions come in increasing order, except in 3-D, where they are
    the facet's cycle from its first vertex: two vertices share an edge
    exactly when their tight sets meet in an index besides the facet's
    own, for then both lie on a second supporting plane, and
    :func:`_ccw_walk` turns that graph into the counterclockwise cycle as
    seen with the normal's first nonzero coordinate dropped.
    """
    on = [[] for _ in hs]
    for j, vertex in enumerate(body):
        for i in vertex[3]:
            on[i].append(j)
    out = []
    for h, vidx in zip(hs, on):
        if len(vidx) < n:
            out.append(None)
        elif n == 3:
            tight = [body[j][3] for j in vidx]
            neighbours = [[b for b, at_b in enumerate(tight) if b != a and len(at_a & at_b) > 1]
                          for a, at_a in enumerate(tight)]
            drop = next(j for j, c in enumerate(h.normal) if c != 0)
            flat = [(body[j][2], *body[j][1][:drop], *body[j][1][drop + 1:]) for j in vidx]
            out.append([vidx[b] for b in _ccw_walk(flat, neighbours)])
        else:
            out.append(vidx)
    return out


def _ccw_walk(flat, neighbours) -> list:
    """Positions of a convex polygon's vertices in counterclockwise order from 0.

    ``flat`` holds the planar vertices as homogeneous integer rows
    ``(q, x, y)`` with ``q > 0``, the point being ``(x, y) / q``, and
    ``neighbours[b]`` the two positions sharing an edge with ``b``.  The
    walk leaves 0 towards the neighbour from which the other one lies
    counterclockwise about 0, then follows the edges.  The turn is the
    sign of one 3x3 integer determinant of homogeneous rows, which is
    the product of the positive ``q`` and the planar turn.
    """
    a, b = neighbours[0]
    if _linalg.det_int([flat[0], flat[a], flat[b]]) < 0:
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
    The facets are the first n independent ones of ``v``'s tight set in
    index order.
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

    v, _, _, tight = poly._clip_start[0]
    basis = []
    for i in sorted(tight):
        if len(basis) < n and _linalg.rank(
            [poly.halfspaces[j].normal for j in basis] + [poly.halfspaces[i].normal]
        ) == len(basis) + 1:
            basis.append(i)
    at_v = poly.support_values(v)
    basis += [m + at_v.index(max(at_v)), 2 * m]

    objectives = [(0,) * n + (1, 0), lowest_depth]
    z = _linalg.lp_minimize(rows, rhs, objectives, basis)
    return BestOrigin(point=z[:n], max_support=z[n], depth=z[n + 1])


def _check_recession(hs, n):
    """Raise :class:`Unbounded` when the body of ``hs``, whose normals
    span, recedes in some direction.

    The recession cone is pointed once the normals span; it is nonzero
    exactly when some candidate extreme ray (null direction of an
    (n-1)-subset of normals) satisfies every inequality ``<l, v> <= 0``.
    """
    normals = [h.normal for h in hs]
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


def _facet_simplices(points, n) -> list:
    """Vertex tuples of the simplices tiling a facet of a body in R^n;
    in 3-D the points come in cycle order and are fanned from the first."""
    if n <= 2:
        return [tuple(points)]
    return [(points[0], points[i], points[i + 1]) for i in range(1, len(points) - 1)]


def _fan(n, body, cycles) -> tuple:
    """``(q, scale, simplices)``: n-simplices tiling a body, over one denominator.

    ``body`` lists the vertices as :func:`_clip` does, and ``cycles``
    holds, for each half-space, the positions in ``body`` of its facet's
    vertices as :func:`_facets` gives them, or None.  The body is coned
    from its first vertex over the :func:`_facet_simplices` of every facet
    not through it.  The form is that of :attr:`Facet._integer_simplices`:
    each simplex is ``(det, points)`` with vertices ``points / q``,
    ``det`` the integer ``|det|`` of its edges and ``scale = n! q**n``, so
    its volume is ``det / scale``.
    """
    q = lcm(*[qv for _, _, qv, _ in body])
    points = [[c * (q // qv) for c in p] for _, p, qv, _ in body]
    fan = []
    for cycle in cycles:
        if cycle is not None and 0 not in cycle:
            for face in _facet_simplices([points[j] for j in cycle], n):
                simplex = (points[0], *face)
                fan.append((abs(_linalg.det_int(_edges(simplex))), simplex))
    return q, factorial(n) * q**n, fan


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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def delzant_check(poly: Polytope):
    """Whether the facet normals at every vertex form a lattice basis.

    Returns ``(ok, first_violating_vertex)`` scanning vertices in their
    stored lexicographic order; the normals at a vertex are those of its
    tight set.
    """
    for v, _, _, tight in poly._clip_start:
        if len(tight) != poly.dim:
            return False, v
        if abs(_linalg.det_int([poly.halfspaces[i].normal for i in sorted(tight)])) != 1:
            return False, v
    return True, None


def intersect(poly: Polytope, halfspaces) -> Polytope | None:
    """Intersection with extra half-spaces; None if empty or lower-dimensional.

    The cell's vertices and their active sets come from clipping
    ``poly.vertices`` (see :func:`_clip`), not from a fresh evaluation of
    every half-space at every vertex, and whether they span dimension n is
    decided on the integer numerators the clip holds (see
    :func:`_full_body`).  The cell is built like any polytope: its facets
    keep their vertices, and facet simplices, measures and moments come
    on demand.  The cone form needs only the moments and calls
    :func:`_cell_moments` instead.
    ``tests/test_geometry.py`` keeps an exhaustive n-subset enumeration of
    the combined list as the oracle the result must equal field for field.
    """
    combined, body = _clip_by(poly.halfspaces, poly._clip_start, halfspaces)
    if body is None:
        return None
    return _build(combined, poly.dim, body, require_simple=False)


def _clip_by(hs, start, cuts):
    """``(combined, body)``: the half-spaces ``hs`` of a body followed by
    those of ``cuts`` new to them, and the :func:`_clip` of the body's
    clip ``start`` by them, or None for the body when that is not
    full-dimensional."""
    # The body's half-spaces are unique already; only the cuts can repeat.
    n = len(hs[0].normal)
    combined = list(hs)
    for h in cuts:
        if h not in combined:
            combined.append(h)
    body = _clip(start, combined, n, len(hs))
    return combined, body if _full_body(body, n) else None


def _cell_moments(hs, start, cuts):
    """:func:`_simplex_moments` of the body with half-spaces ``hs`` and clip
    ``start`` cut by ``cuts``, or None when that is empty or flat.

    The cone form reads nothing of a cone cell but its moments, so they
    come straight from the clip's integer vertices and tight sets: the
    same :func:`_fan` that :attr:`Polytope._moments` sums over, with the
    facets :func:`_facets` finds, and no :class:`Polytope`, :class:`Facet`
    or ``Fraction`` vertex is built.  The body is a pyramid of
    :attr:`Polytope._cone_halfspaces` there, and for a polytope
    ``_cell_moments(poly.halfspaces, poly._clip_start, cuts)`` is the
    moments of ``intersect(poly, cuts)``.
    """
    combined, body = _clip_by(hs, start, cuts)
    if body is None:
        return None
    n = len(hs[0].normal)
    return _simplex_moments(n, *_fan(n, body, _facets(combined, n, body)))


def _simplex_moments(k, q, scale, simplices) -> tuple:
    """``(D, moments)``: the integer moments of degree <= 2 of k-simplices.

    Each simplex is ``(c, points)`` with vertices ``points / q`` and
    measure ``c / scale``, as :func:`_fan` and
    :attr:`Facet._integer_simplices` give them.  ``moments`` maps the
    exponent of ``x^alpha``, written as the tuple of its coordinate
    indices in increasing order (``()``, ``(j,)`` or ``(j, l)``), to the
    integer whose quotient by ``D`` is the integral of ``x^alpha``.  On a
    simplex with vertex sums ``S_j`` the integral of ``x_j`` is its
    measure times ``S_j / ((k+1) q)``, and that of ``x_j x_l`` its measure
    times ``(sum_v P_vj P_vl + S_j S_l) / ((k+1)(k+2) q**2)`` (Baldoni,
    Berline, De Loera, Koeppe, Vergne, "How to integrate a polynomial
    over a simplex", Math. Comp. 80 (2011)), so every moment sits over
    ``D = scale (k+1)(k+2) q**2``.
    """
    n = len(simplices[0][1][0])
    volume = 0
    first = [0] * n
    second = [[0] * n for _ in range(n)]
    for c, points in simplices:
        volume += c
        sums = [sum(column) for column in zip(*points)]
        for j, sj in enumerate(sums):
            first[j] += c * sj
            row = second[j]
            for l in range(j, n):
                row[l] += c * (sum([p[j] * p[l] for p in points]) + sj * sums[l])
    moments = {(): volume * (k + 1) * (k + 2) * q * q}
    for j in range(n):
        moments[(j,)] = first[j] * (k + 2) * q
        for l in range(j, n):
            moments[(j, l)] = second[j][l]
    return scale * (k + 1) * (k + 2) * q * q, moments


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


def _full_body(clipped, n) -> bool:
    """Whether a :func:`_clip` result spans dimension n.

    The vertices ``p / q`` span dimension n exactly when the homogeneous
    rows ``(q, p)`` have rank n + 1, so the test runs on the integers
    ``_clip`` holds, before any vertex is turned into a ``Fraction``.
    """
    return len(clipped) > n and _linalg.rank([[q, *p] for _, p, q, _ in clipped]) > n


def _spans_edge(normals, n) -> bool:
    """Whether the normals tight at two distinct vertices have rank n - 1.

    Both vertices satisfy every one of these normals with equality, so
    the rank is at most n - 1; in 1-D and 2-D the test is a count, in 3-D
    it asks for one normal not parallel to the first.
    """
    if n <= 2:
        return len(normals) >= n - 1
    if not normals:
        return False
    a1, a2, a3 = normals[0]
    return any(
        a2 * b3 != a3 * b2 or a3 * b1 != a1 * b3 or a1 * b2 != a2 * b1
        for b1, b2, b3 in normals[1:]
    )


def translate(poly: Polytope, t) -> Polytope:
    """Shift by a rational vector: normals unchanged, bounds adjusted."""
    t = _frac_point(t)
    shifted = [
        HalfSpace(h.normal, h.bound + h.value(t)) for h in poly.halfspaces
    ]
    return build_polytope(shifted)

