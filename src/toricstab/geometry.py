"""Exact rational convex polytopes in half-space form.

A polytope is the bounded intersection of half-spaces ``<l_i, x> <= b_i``
with primitive integer normals ``l_i`` and rational bounds.  Everything
derived from it (vertices, facets, boundary measures, moments, the cones
over its facets) is exact; this module never touches floating point.

Vertices come from one place, :func:`_clip`, which cuts a known body by
half-spaces one at a time and holds each vertex as one integer row
``(numerators, denominator, tight set)``: the point over a positive
denominator in lowest terms, and the indices of the half-spaces through
it.  :func:`build_polytope` validates user input and clips a bounding box
by every input half-space, and the clip decides whether the body is
empty, then unbounded, then flat; a cell (:func:`intersect`) clips its
parent's rows by a few more.  Either way :func:`_build` derives the rest
from the rows on integers, with the facets and the cycle order of each
3-D facet's vertices from :func:`_facets`.  The polytope keeps its rows
(``Polytope._clip_start``) for the simplicity check,
:func:`delzant_check`, :func:`_best_origin` and every later clip; all
else is a cached property computed on first read: the ``Fraction``
vertices, the facets' simplices and moments, the body's moments, volume
and barycenter, and the pyramids of the cone form.

There is one simplex form, the integer points of a clip over one
denominator, and one measure, :func:`_measure`, the ``|det|`` of a
simplex's integer edges.  :func:`_fan` cones a body from its first vertex
over the facets not through it, each fanned from the first vertex of its
cycle by :func:`_facet_simplices`, and :func:`_simplex_moments` sums the
closed-form moments over those simplices.  A facet is fanned the same
way in its own dimension and carries the lattice measure ``dsigma``, the
Lebesgue measure of its lattice ``{x in Z^n : <l, x> = 0}``: as ``l`` is
primitive, leaving out the first coordinate ``j`` with ``l_j != 0`` maps
that lattice onto a sublattice of ``Z^(n-1)`` of index ``|l_j|``, so a
facet simplex measures its shadow's ``|det|`` over ``|l_j|``.

Moments stop at the degree their reader needs.  A body's moments
(volume integrals and the extremal solve) and a cone cell's (the cone
form) go to degree 2.  A facet keeps two tables.  Its degree <= 1 table
(:attr:`Facet._affine_moments`) is read by its lattice measure and by
the boundary integral of a PL function, whose pieces are affine, and is
summed into the boundary's (:attr:`Polytope._affine_boundary_moments`),
which the boundary measure, the extremal solve and boundary integrals
of affine polynomials read.  Its degree <= 2 table
(:attr:`Facet._moments`) is summed into
:attr:`Polytope._boundary_moments` only for a boundary integral of a
polynomial of degree 2, so no facet computes second moments unless such
an integrand asks for them.

The cone form has one pyramid per facet, with its apex at the origin:
with the origin interior, the cell of the gauge function
``max_j <l_j, x> / b_j`` where the facet's own term is largest, cut out
by the facet's half-space and the gauge cuts of the facets that share a
ridge with it (:attr:`Polytope._cone_halfspaces`).  The cone form reads
nothing of a cone cell but its moments, so :func:`_cell_moments` clips
a pyramid by the cuts of one PL cell with the same :func:`_clip` and
:func:`_facets` that :func:`intersect` uses and fans the rows, building
no :class:`Polytope`, :class:`Facet` or ``Fraction`` vertex.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import ceil, factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

from . import _linalg
from .errors import (
    Degenerate,
    NonPrimitiveNormal,
    NotSimple,
    Unbounded,
    UnsupportedDimension,
    exact,
    shown,
)

Point = tuple


class HalfSpace(NamedTuple):
    """One constraint ``<normal, x> <= bound`` with a primitive integer normal."""

    normal: tuple
    bound: Fraction

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


class Record:
    """Equality, hashing and ``repr`` over the attributes named in ``_fields``.

    A ``NamedTuple`` has these from its tuple; a record that keeps a
    ``__dict__`` for cached properties, or validates in its ``__init__``,
    takes them from here.  Records are equal exactly when they are of one
    class and their fields are equal, and hash like their field tuple.
    """

    _fields = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class Facet(Record):
    """A facet of a polytope and its vertices.

    ``vertex_indices`` are the positions of the facet's vertices in the
    polytope's vertex list and ``rows`` their clip rows ``(numerators,
    denominator, tight set)`` as the polytope keeps them, both in the
    order :func:`_facets` gives: the cycle from the first vertex in 3-D,
    increasing otherwise.  ``halfspace`` is the polytope's own half-space
    the facet lies in, with the primitive normal ``l``.  The ``Fraction``
    points (:attr:`vertices`), the simplices tiling the facet with their
    lattice measures, and its two moment tables are computed on first read
    and kept, so a cell only integrated over its volume never pays for
    them: :attr:`_affine_moments` (degree <= 1), read by :attr:`measure`,
    by PL boundary integrals and through
    :attr:`Polytope._affine_boundary_moments`, and :attr:`_moments`
    (degree <= 2), read only through :attr:`Polytope._boundary_moments`
    by boundary integrals of polynomials of degree 2.  Equality, hashing
    and ``repr`` are over ``_fields``.

    Instances are immutable by convention, as polytopes are.
    """

    _fields = ("halfspace", "vertex_indices", "vertices")

    def __init__(self, halfspace: HalfSpace, vertex_indices: tuple, rows: tuple):
        self.halfspace = halfspace
        self.vertex_indices = vertex_indices
        self.rows = rows

    @functools.cached_property
    def vertices(self) -> tuple:
        return _points(self.rows)

    @functools.cached_property
    def _integer_simplices(self) -> tuple:
        """``(q, scale, simplices)``: the facet's simplices over one denominator.

        The rows become integer points over one denominator ``q`` and are
        fanned by :func:`_facet_simplices`.  Each simplex is ``(c,
        points)``, with vertices ``points / q`` and lattice measure ``c /
        scale``: ``c`` is the :func:`_measure` of its shadow with the first
        coordinate ``j`` with ``l_j != 0`` left out, and ``scale = (n-1)!
        q**(n-1) |l_j|`` (see the module docstring).
        """
        normal = self.halfspace.normal
        n = len(normal)
        j = next(k for k, c in enumerate(normal) if c)
        q, points = _integer_points(self.rows)
        return q, factorial(n - 1) * q ** (n - 1) * abs(normal[j]), [
            (_measure([p[:j] + p[j + 1:] for p in simplex]), simplex)
            for simplex in _facet_simplices(points, n)
        ]

    @functools.cached_property
    def _moments(self) -> tuple:
        """:func:`_simplex_moments` of degree <= 2 of the facet with its
        lattice measure, read only by boundary integrals of polynomials of
        degree 2 through :attr:`Polytope._boundary_moments`."""
        return _simplex_moments(len(self.halfspace.normal) - 1, *self._integer_simplices)

    @functools.cached_property
    def _affine_moments(self) -> tuple:
        """:func:`_simplex_moments` of degree <= 1 of the facet with its
        lattice measure, read by :attr:`measure`, by boundary integrals of
        PL functions, whose pieces are affine, and through
        :attr:`Polytope._affine_boundary_moments`."""
        return _simplex_moments(len(self.halfspace.normal) - 1, *self._integer_simplices, 1)

    @property
    def measure(self) -> Fraction:
        """The lattice measure: the ``()`` entry of :attr:`_affine_moments`."""
        denominator, moments = self._affine_moments
        return Fraction(moments[()], denominator)


class BestOrigin(NamedTuple):
    """The closed-polytope minimum of the largest support value.

    Moving the origin to ``t`` turns each facet bound ``b_i`` into
    ``b_i(t) = b_i - <l_i, t>``.  ``point`` minimises
    ``F(t) = max_i b_i(t)`` over the closed polytope and ``max_support`` is
    that minimum.  Among the minimisers, ``point`` has the largest smallest
    support value, which is ``depth``: ``depth > 0`` exactly when some
    minimiser lies strictly inside, and then ``point`` is one of them.
    ``supports`` are the support values at ``point``.
    """

    point: Point
    max_support: Fraction
    depth: Fraction
    supports: tuple


class Polytope:
    """Bounded full-dimensional rational polytope.

    Instances are immutable after construction; use :func:`build_polytope`.
    Vertices are stored in lexicographic order, facets in the order of the
    retained half-spaces.  ``_clip_start`` is the clip the polytope was
    built from: one row ``(numerators, denominator, tight set)`` per
    vertex, in vertex order, the tight set holding the indices into
    ``halfspaces`` of the facets through the vertex.  :func:`intersect`
    starts :func:`_clip` from it, :attr:`_moments` fans it, and
    :attr:`vertices` makes the ``Fraction`` points from it on first read.

    Each table is computed on first read and kept, and each reader reads
    the lowest degree it needs: :attr:`_moments` (the body, degree <= 2)
    is read by :attr:`volume`, :attr:`barycenter`, volume integrals and
    the extremal solve; :attr:`_affine_boundary_moments` (the boundary,
    degree <= 1) by :attr:`boundary_measure`, so :attr:`rbar`, by the
    extremal solve and by boundary integrals of affine polynomials;
    :attr:`_boundary_moments` (degree <= 2) only by boundary integrals of
    polynomials of degree 2; and :attr:`_cone_halfspaces` by the cone
    form.  ``warnings`` holds what :func:`build_polytope` dropped; a cell
    of :func:`intersect` has none.
    """

    def __init__(self, dim, halfspaces, clip_start, facets, origin_interior, warnings=()):
        self.dim = dim
        self.halfspaces = tuple(halfspaces)
        self._clip_start = tuple(clip_start)
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

    # -- cached derived data ---------------------------------------------------

    @functools.cached_property
    def vertices(self) -> tuple:
        return _points(self._clip_start)

    @functools.cached_property
    def volume(self) -> Fraction:
        denominator, moments = self._moments
        return Fraction(moments[()], denominator)

    @functools.cached_property
    def boundary_measure(self) -> Fraction:
        denominator, moments = self._affine_boundary_moments
        return Fraction(moments[()], denominator)

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
    def _affine_boundary_moments(self) -> tuple:
        """The facets' :attr:`Facet._affine_moments` summed by
        :func:`_summed`: the moments of degree <= 1 of the boundary with its
        lattice measure, read by :attr:`boundary_measure`, the extremal
        solve and boundary integrals of affine polynomials."""
        return _summed([f._affine_moments for f in self.facets])

    @functools.cached_property
    def _boundary_moments(self) -> tuple:
        """The facets' :attr:`Facet._moments` summed by :func:`_summed`: the
        moments of degree <= 2 of the boundary, read only by boundary
        integrals of polynomials of degree 2."""
        return _summed([f._moments for f in self.facets])

    @functools.cached_property
    def _cone_halfspaces(self) -> tuple:
        """The pyramids from the origin over the facets, as ``(support, half-spaces, start)``.

        One pyramid per facet, in facet order; ``support`` is the bound
        ``b_i`` of its facet.  With the origin interior every ``b_j`` is
        positive and P is ``{x : max_j <l_j, x> / b_j <= 1}``.  The pyramid
        over facet i is the cell of that gauge function where term i is
        largest, the cone from the origin over the facet.  That cone is
        pointed, so its facet half-spaces cut it out: the cones over the
        ridges of facet i, its intersections with the facets j it meets in
        dimension n - 2.  Each lies in the plane of the cut ``<l_j, x> /
        b_j <= <l_i, x> / b_i``, as both terms are 1 on the ridge.  So the
        half-spaces are the facet's own, then the cut of every such j, in
        facet order; the cuts of the other facets are redundant and left
        out.  Facet j meets facet i in a ridge exactly when at least n - 1
        of facet i's vertices lie on it: in 3-D two shared vertices span
        an edge, in 2-D one is a vertex, and in 1-D the two end points
        share the empty ridge.  With ``b = p / q`` in lowest terms the
        cut's normal is the primitive part of ``p_i q_j l_j - p_j q_i
        l_i``, not 0 as no two facets share a normal, and its bound is 0.

        ``start`` is the pyramid's :func:`_clip` start, the apex first,
        then the facet's vertices as the polytope's clip holds them, with
        tight sets renumbered to the kept half-spaces.  They are exact: the
        apex lies on every cut and not on the facet plane, and on facet i,
        where term i is 1, term j reaches 1 exactly on facet j, so a facet
        vertex lies on its own plane and on the kept cuts of the facets in
        its clip tight set.  The pyramids tile P when the origin is
        interior, which the caller checks before reading them.  Kept
        because the cone form cuts every pyramid by the cuts of every PL
        cell.
        """
        n = self.dim
        zero = Fraction(0)
        pyramids = []
        for i, facet in enumerate(self.facets):
            own = facet.halfspace
            pi, qi = own.bound.numerator, own.bound.denominator
            hits = [0] * len(self.halfspaces)
            for _, _, tight in facet.rows:
                for j in tight:
                    hits[j] += 1
            hs, renumber = [own], {}
            for j, h in enumerate(self.halfspaces):
                if j != i and hits[j] >= n - 1:
                    pj, qj = h.bound.numerator, h.bound.denominator
                    normal = [pi * qj * a - pj * qi * b for a, b in zip(h.normal, own.normal)]
                    g = gcd(*normal)
                    renumber[j] = len(hs)
                    hs.append(HalfSpace(tuple(c // g for c in normal), zero))
            apex = ([0] * n, 1, frozenset(range(1, len(hs))))
            start = [apex] + [(p, q, frozenset([0] + [renumber[j] for j in tight if j in renumber]))
                              for p, q, tight in facet.rows]
            pyramids.append((own.bound, tuple(hs), tuple(start)))
        return tuple(pyramids)

    @functools.cached_property
    def ccw_cycle(self) -> tuple:
        """Vertex indices in counterclockwise order from the smallest (surfaces only)."""
        if self.dim != 2:
            raise ValueError("ccw_cycle is defined for dim 2 only")
        neighbours = [[] for _ in self._clip_start]
        for facet in self.facets:
            a, b = facet.vertex_indices
            neighbours[a].append(b)
            neighbours[b].append(a)
        return tuple(_ccw_walk([(q, *p) for p, q, _ in self._clip_start], neighbours))

    @functools.cached_property
    def ccw_facets(self) -> tuple:
        """The facets along :attr:`ccw_cycle`, the k-th from its k-th vertex
        to the next (surfaces only): the one facet in both tight sets."""
        tight = [self._clip_start[i][2] for i in self.ccw_cycle]
        return tuple(self.facets[min(a & b)] for a, b in zip(tight, tight[1:] + tight[:1]))


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
    nonzero integer determinant.  So the clip decides, in this order,
    that the body is empty (no vertex), unbounded (a vertex on the box,
    see :func:`_check_bounded`) or flat.  For a bounded body the active
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
        g = gcd(*h.normal)
        if g == 0:
            raise NonPrimitiveNormal(f"zero normal with bound {shown(h.bound)}")
        if g != 1:
            raise NonPrimitiveNormal(f"normal {shown(h.normal)} has content {shown(g)}")
    if len(hs) < n + 1:
        raise Unbounded(f"{len(hs)} half-spaces cannot bound dimension {n}")

    warnings = []
    deduped = []
    seen = set()
    for h in hs:
        if h in seen:
            warnings.append(f"duplicate half-space {exact(h.normal)} <= {exact(h.bound)} dropped")
            continue
        seen.add(h)
        deduped.append(h)

    if _linalg.rank([h.normal for h in deduped]) < n:
        raise Unbounded("normals do not span the ambient space")
    big = max(max(*map(abs, h.normal), ceil(abs(h.bound))) for h in deduped)
    m = factorial(n) * big**n + 1
    # Box half-space 2j is x_j <= m and 2j + 1 is -x_j <= m.
    box = [HalfSpace(tuple(s * (k == j) for k in range(n)), Fraction(m))
           for j in range(n) for s in (1, -1)]
    start = [([-m if s else m for s in signs], 1,
              frozenset(2 * j + s for j, s in enumerate(signs)))
             for signs in itertools.product((0, 1), repeat=n)]
    clipped, full = _clip(start, box + deduped, n, len(box))
    if not clipped:
        raise Degenerate("half-space intersection is empty")
    _check_bounded(clipped, box + deduped, n)
    if not full:
        raise Degenerate("vertex hull is not full-dimensional")
    body = [(p, q, frozenset(i - len(box) for i in at_v)) for p, q, at_v in clipped]
    return _build(deduped, n, body, require_simple=require_simple, warnings=warnings)


def _build(hs, n, body, *, require_simple, warnings=None) -> Polytope:
    """Shared constructor from the half-spaces and the vertices of their body.

    ``body`` holds the rows :func:`_clip` returns, exactly the vertices of
    the full-dimensional body ``hs`` bounds, each in lowest terms with its
    exact tight set.  Nothing is re-evaluated and no ``Fraction`` is made:
    the rows are sorted in the lexicographic order of their points by
    their integer points over one denominator.  Retained facets and their
    vertex order come from :func:`_facets`.  ``warnings`` is the list of
    :func:`build_polytope`, which gains one record per half-space that
    supports no facet; a cell of :func:`intersect` passes None and keeps
    none, as only the domain's warnings are read, and the cuts of a PL
    cell often miss the cell.  The polytope keeps the sorted rows as its
    ``_clip_start``, the tight sets renumbered to the retained
    half-spaces, and each facet keeps its vertices' rows in its order (see
    :class:`Facet`).
    """
    _, points = _integer_points(body)
    body = [body[k] for k in sorted(range(len(body)), key=points.__getitem__)]
    cycles = _facets(hs, n, body)
    kept, renumber = [], {}
    for i, (h, cycle) in enumerate(zip(hs, cycles)):
        if cycle is None:
            if warnings is not None:
                warnings.append(
                    f"redundant half-space {exact(h.normal)} <= {exact(h.bound)} dropped")
        else:
            renumber[i] = len(kept)
            kept.append(h)
    clip = [(p, q, frozenset(renumber[i] for i in at_v if i in renumber)) for p, q, at_v in body]
    facets = [Facet(hs[i], tuple(cycles[i]), tuple(clip[j] for j in cycles[i])) for i in renumber]

    if require_simple:
        for p, q, at_v in clip:
            if len(at_v) != n:
                point = tuple(Fraction(c, q) for c in p)
                raise NotSimple(f"vertex {shown(point)} lies on {len(at_v)} facets")

    # At the origin every <l, x> is 0, so it is interior when every bound is positive.
    origin_interior = all(h.bound > 0 for h in kept)
    return Polytope(n, kept, clip, facets, origin_interior, warnings or ())


def _facets(hs, n, body) -> list:
    """For each half-space, the positions in ``body`` of its facet's
    vertices, or None when it supports no facet.

    ``body`` lists the vertices as the rows of :func:`_clip`.  A
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
        for i in vertex[2]:
            on[i].append(j)
    out = []
    for h, vidx in zip(hs, on):
        if len(vidx) < n:
            out.append(None)
        elif n == 3:
            tight = [body[j][2] for j in vidx]
            neighbours = [[b for b, at_b in enumerate(tight) if b != a and len(at_a & at_b) > 1]
                          for a, at_a in enumerate(tight)]
            drop = next(j for j, c in enumerate(h.normal) if c != 0)
            flat = [(body[j][1], *body[j][0][:drop], *body[j][0][drop + 1:]) for j in vidx]
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

    p, q, tight = poly._clip_start[0]
    basis = []
    for i in sorted(tight):
        if len(basis) < n and _linalg.rank(
            [poly.halfspaces[j].normal for j in basis] + [poly.halfspaces[i].normal]
        ) == len(basis) + 1:
            basis.append(i)
    at_v = [h._slack(q, p) for h in poly.halfspaces]
    basis += [m + at_v.index(max(at_v)), 2 * m]

    objectives = [(0,) * n + (1, 0), lowest_depth]
    z = _linalg.lp_minimize(rows, rhs, objectives, basis)
    return BestOrigin(z[:n], z[n], z[n + 1], poly.support_values(z[:n]))


def _check_bounded(clipped, hs, n):
    """Raise :class:`Unbounded` when a vertex of the box clip ``clipped``
    of :func:`build_polytope` is tight at the box, naming the direction
    of an unbounded edge of the body.

    ``hs`` is the box's ``2 n`` half-spaces, then the body's, whose
    normals span.  The box holds every vertex of the body strictly
    inside, so a bounded body is its own clip.  An unbounded one has an
    extreme ray, and where that leaves the box the clip vertex is tight at
    n - 1 independent body normals (:func:`_spans_edge`); their null
    vector, turned out through the box face that the ray crosses from
    inside, recedes from every half-space.
    """
    for _, _, at_v in clipped:
        faces = sorted(i for i in at_v if i < 2 * n)
        normals = [hs[i].normal for i in sorted(at_v) if i >= 2 * n]
        if faces and _spans_edge(normals, n):
            d = next(d for rows in itertools.combinations(normals, n - 1)
                     if any(d := _linalg.cross_generalized(rows, n)))
            # Box half-space 2j is x_j <= m, so the ray leaves it with d_j > 0.
            j, s = divmod(faces[0], 2)
            g = gcd(*d) if (d[j] > 0) == (s == 0) else -gcd(*d)
            raise Unbounded(f"direction {shown(tuple(c // g for c in d))} recedes")


def _facet_simplices(points, n) -> list:
    """Vertex tuples of the simplices tiling a facet of a body in R^n;
    in 3-D the points come in cycle order and are fanned from the first."""
    if n <= 2:
        return [tuple(points)]
    return [(points[0], points[i], points[i + 1]) for i in range(1, len(points) - 1)]


def _fan(n, body, cycles) -> tuple:
    """``(q, scale, simplices)``: n-simplices tiling a body, over one denominator.

    ``body`` lists the vertices as the rows of :func:`_clip`, and
    ``cycles`` holds, for each half-space, the positions in ``body`` of
    its facet's vertices as :func:`_facets` gives them, or None.  The body
    is coned from its first vertex over the :func:`_facet_simplices` of
    every facet not through it.  The form is that of
    :attr:`Facet._integer_simplices`: each simplex is ``(det, points)``
    with vertices ``points / q``, ``det`` its :func:`_measure` and
    ``scale = n! q**n``, so its volume is ``det / scale``.
    """
    q, points = _integer_points(body)
    fan = []
    for cycle in cycles:
        if cycle is not None and 0 not in cycle:
            for face in _facet_simplices([points[j] for j in cycle], n):
                simplex = (points[0], *face)
                fan.append((_measure(simplex), simplex))
    return q, factorial(n) * q**n, fan


def _measure(points) -> int:
    """The one simplex measure: ``|det|`` of the integer edges from the
    first point, ``k! q**k`` times the k-volume of the simplex ``points / q``."""
    base = points[0]
    return abs(_linalg.det_int([[a - b for a, b in zip(p, base)] for p in points[1:]]))


def _integer_points(rows) -> tuple:
    """``(q, points)``: the vertices of clip rows as integer points over
    the least common denominator ``q`` of the rows."""
    q = lcm(*[qv for _, qv, _ in rows])
    return q, [[c * (q // qv) for c in p] for p, qv, _ in rows]


def _points(rows) -> tuple:
    """The vertices of clip rows as ``Fraction`` points."""
    return tuple(tuple(Fraction(c, q) for c in p) for p, q, _ in rows)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def delzant_check(poly: Polytope):
    """Whether the facet normals at every vertex form a lattice basis.

    Returns ``(ok, first_violating_vertex)`` scanning vertices in their
    stored lexicographic order; the normals at a vertex are those of its
    tight set.
    """
    for k, (_, _, tight) in enumerate(poly._clip_start):
        if (len(tight) != poly.dim
                or abs(_linalg.det_int([poly.halfspaces[i].normal for i in sorted(tight)])) != 1):
            return False, poly.vertices[k]
    return True, None


def intersect(poly: Polytope, halfspaces) -> Polytope | None:
    """Intersection with extra half-spaces; None if empty or lower-dimensional.

    The cell's rows come from clipping ``poly._clip_start`` (see
    :func:`_clip`), not from a fresh evaluation of every half-space at
    every vertex, and the clip also decides whether they span dimension
    n.  The cell is built like any polytope, on integers, but formats no
    warning for the cuts that miss it, and its vertices, facet simplices,
    measures and moments come on demand.  The cone form needs only the
    moments and calls :func:`_cell_moments` instead.
    ``tests/test_geometry.py`` keeps an exhaustive n-subset enumeration of
    the combined list as the oracle the result must equal field for field.
    """
    combined, body = _clip_by(poly.halfspaces, poly._clip_start, halfspaces)
    if body is None:
        return None
    return _build(combined, poly.dim, body, require_simple=False)


def _clip_by(hs, start, cuts):
    """``(combined, body)``: the half-spaces ``hs`` of a full-dimensional
    body followed by those of ``cuts`` new to them, and the :func:`_clip`
    of the body's clip ``start`` by them, or None for the body when that
    is not full-dimensional."""
    # The body's half-spaces are unique already; only the cuts can repeat.
    n = len(hs[0].normal)
    combined = list(hs)
    for h in cuts:
        if h not in combined:
            combined.append(h)
    body, full = _clip(start, combined, n, len(hs))
    return combined, body if full else None


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


def _simplex_moments(k, q, scale, simplices, degree=2) -> tuple:
    """``(D, moments)``: the integer moments of degree <= ``degree``, 2 or
    1, of k-simplices.

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
    ``D = scale (k+1) q`` at degree 1 and ``D = scale (k+1)(k+2) q**2`` at
    degree 2.  The volume integrals, the cone form and the boundary
    integrals of polynomials read degree 2; a PL boundary integral reads
    degree 1 (:attr:`Facet._affine_moments`).
    """
    n = len(simplices[0][1][0])
    volume = 0
    first = [0] * n
    second = [[0] * n for _ in range(n)]
    for c, points in simplices:
        volume += c
        columns = list(zip(*points))
        sums = [sum(column) for column in columns]
        for j, sj in enumerate(sums):
            first[j] += c * sj
        if degree > 1:
            for j, (column, sj) in enumerate(zip(columns, sums)):
                row = second[j]
                for l in range(j, n):
                    row[l] += c * (sum(map(mul, column, columns[l])) + sj * sums[l])
    if degree == 1:
        moments = {(): volume * (k + 1) * q}
        for j in range(n):
            moments[(j,)] = first[j]
        return scale * (k + 1) * q, moments
    moments = {(): volume * (k + 1) * (k + 2) * q * q}
    for j in range(n):
        moments[(j,)] = first[j] * (k + 2) * q
        for l in range(j, n):
            moments[(j, l)] = second[j][l]
    return scale * (k + 1) * (k + 2) * q * q, moments


def _summed(tables) -> tuple:
    """Moment tables ``(D, values)`` of one degree summed over the ``lcm``
    of their denominators, as one table of that form."""
    denominator = lcm(*[d for d, _ in tables])
    total = dict.fromkeys(tables[0][1], 0)
    for d, values in tables:
        s = denominator // d
        for key, value in values.items():
            total[key] += s * value
    return denominator, total


def _clip(start, hs, n, first):
    """``(rows, full)``: the vertices of a full-dimensional body cut by
    ``hs[first:]``, in the form of ``start``, and whether the cut body is
    full-dimensional.

    ``start`` lists the body's vertices as rows ``(numerators,
    denominator, tight set)``, the tight set holding the indices into
    ``hs[:first]`` of the half-spaces through the vertex.  Each further
    half-space is applied in turn: a vertex with slack >= 0 stays, and a pair of
    vertices with one strictly inside and one strictly outside adds its
    crossing point when the pair spans an edge, that is when the
    half-spaces tight at both have rank n - 1.  A kept vertex gains the
    new index when its slack is 0, and a crossing point gets its edge's
    common set plus the new index.  A point inside an edge is tight
    exactly where the whole edge is, so these sets are exact and
    :func:`_build` takes them as given.  This holds for any body, so the
    rows are exact even when the result is empty or lower-dimensional.

    A full-dimensional body ``K`` cut by a half-space ``H`` stays
    full-dimensional exactly when some vertex has slack > 0: the segment
    from such a vertex to an interior point of ``K`` starts with interior
    points of ``K`` inside ``H``; and when every vertex has slack <= 0,
    ``K`` and ``H`` meet in the plane of ``H``.  So ``full`` says that
    every cut left a vertex strictly inside, and an empty result is not
    full.

    The clipping runs on integers and makes no ``Fraction``: the slack of
    ``p / q`` (``q > 0``) against ``<l, x> <= b`` is replaced by ``S =
    num(b) q - den(b) <l, p>``, which is ``den(b) q`` times the slack and
    so has its sign.  The crossing point of ``u`` (``S_u > 0``) and ``w``
    (``S_w < 0``) is ``(S_u p_w - S_w p_u) / (S_u q_w - S_w q_u)``.  In 1-D
    and 2-D the edge test is the size of the common set (see
    :func:`_spans_edge`), so no normal is looked up.
    """
    current = start
    full = True
    for i in range(first, len(hs)):
        normal, bound = hs[i]
        num, den = bound.numerator, bound.denominator
        kept, inside, outside = [], [], []
        for vertex in current:
            p, q, at_v = vertex
            s = num * q - den * sum(map(mul, normal, p))
            if s > 0:
                kept.append(vertex)
                inside.append((vertex, s))
            elif s == 0:
                kept.append((p, q, at_v | {i}))
            else:
                outside.append((vertex, s))
        for (pu, qu, at_u), su in inside:
            for (pw, qw, at_w), sw in outside:
                common = at_u & at_w
                if (len(common) >= n - 1 if n <= 2
                        else _spans_edge([hs[k].normal for k in common], n)):
                    p = [su * b - sw * a for a, b in zip(pu, pw)]
                    q = su * qw - sw * qu
                    g = gcd(q, *p)
                    kept.append(([c // g for c in p], q // g, common | {i}))
        if not kept:
            return [], False
        full = full and bool(inside)
        current = kept
    return current, full


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
    t = tuple(Fraction(c) for c in t)
    shifted = [
        HalfSpace(h.normal, h.bound + h.value(t)) for h in poly.halfspaces
    ]
    return build_polytope(shifted)

