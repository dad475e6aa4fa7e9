"""Small test helpers shared by the test modules.

The helpers include the simplex and lattice-vector routines that only
tests need: :func:`simplex_halfspaces` with its :class:`DegenerateSimplex`,
:func:`affine_rank` and :func:`primitivize`.
"""

import itertools
import math
from fractions import Fraction

from toricstab import _linalg, build_polytope, halfspace
from toricstab.errors import ToricStabError
from toricstab.geometry import HalfSpace, _edges, intersect


class DegenerateSimplex(ToricStabError):
    """Simplex vertices are affinely dependent."""


def primitivize(vec):
    """Integer primitive vector parallel to a rational vector.

    Returns ``(prim, s)`` with ``prim = s * vec`` componentwise, ``s`` a
    positive rational.  Raises ValueError on the zero vector.
    """
    mult = math.lcm(*[Fraction(entry).denominator for entry in vec])
    ints = [int(Fraction(entry) * mult) for entry in vec]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints), Fraction(mult, g)


def affine_rank(points):
    """Dimension of the affine hull of a point collection."""
    if len(points) <= 1:
        return 0
    _, ints = _linalg.over_common_denominator(points)
    base = ints[0]
    return _linalg.rank([[a - b for a, b in zip(p, base)] for p in ints[1:]])


def simplex_halfspaces(vertices):
    """Half-space representation of the full-dimensional simplex on ``vertices``.

    ``vertices`` are n + 1 rational points in R^n, and the i-th half-space
    is that of the face omitting vertex i.  The work runs on integers:
    with the vertices written as ``P / q``, the cross product of a face's
    integer edges is ``q**(n-1)`` times the rational one, so it has the
    same primitive normal, found by a gcd and turned away from the
    omitted vertex.  The only ``Fraction`` built per face is its bound
    ``<l, P_0> / q``.  Affinely dependent vertices raise
    :class:`DegenerateSimplex`: then some omitted vertex lies on the
    hyperplane through its face, or the face spans none.  So does a vertex
    count other than n + 1.
    """
    n = len(vertices[0])
    if len(vertices) != n + 1:
        raise DegenerateSimplex(f"a simplex in R^{n} needs {n + 1} vertices, not {len(vertices)}")
    q, points = _linalg.over_common_denominator(vertices)
    out = []
    for omit in range(n + 1):
        face = [p for i, p in enumerate(points) if i != omit]
        normal = _linalg.cross_generalized(_edges(face), n)
        level = _linalg.dot(normal, face[0])
        side = _linalg.dot(normal, points[omit]) - level
        if side == 0:
            raise DegenerateSimplex("affinely dependent simplex vertices")
        g = math.gcd(*normal) if side < 0 else -math.gcd(*normal)
        out.append(HalfSpace(tuple(c // g for c in normal), Fraction(level // g, q)))
    return out


def shoelace(points):
    """Independent polygon area oracle from a CCW vertex cycle."""
    total = Fraction(0)
    m = len(points)
    for i in range(m):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def det(rows):
    """Determinant of a small square matrix by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)))


def simplex_volume(verts):
    """Volume of a full-dimensional simplex, ``|det(edges)| / n!``."""
    edges = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
    return abs(Fraction(det(edges))) / math.factorial(len(edges))


def facet_faces(facet, n):
    """The simplices tiling a facet of a body in R^n, fanned here from the
    facet's vertices in cycle order: the whole facet up to 2-D, triangles
    from the first vertex in 3-D."""
    points = facet.vertices
    if n <= 2:
        return [tuple(points)]
    return [(points[0], points[i], points[i + 1]) for i in range(1, len(points) - 1)]


def body_simplices(poly):
    """The n-simplices tiling ``poly``: its first vertex coned over the
    :func:`facet_faces` of every facet not through it."""
    v0 = poly.vertices[0]
    return [(v0, *face) for facet in poly.facets if 0 not in facet.vertex_indices
            for face in facet_faces(facet, poly.dim)]


def cells_across(poly, cuts):
    """The nonempty cells of ``poly`` on either side of each cut, one
    ``intersect`` per sign pattern; a cut ``(normal, bound)`` is the
    hyperplane ``<normal, x> = bound``."""
    cells = []
    for signs in itertools.product((1, -1), repeat=len(cuts)):
        sides = [halfspace(tuple(s * c for c in normal), s * Fraction(bound))
                 for s, (normal, bound) in zip(signs, cuts)]
        cell = intersect(poly, sides)
        if cell is not None:
            cells.append(cell)
    return cells


def hull_polygon(points, den=1):
    """Polygon of the convex hull of integer points, divided by ``den``
    (monotone chain); ``den > 1`` gives rational vertices."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    cycle = chain(pts) + chain(pts[::-1])
    rows = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        normal, _ = primitivize((b[1] - a[1], a[0] - b[0]))
        rows.append(halfspace(normal, Fraction(_linalg.dot(normal, a), den)))
    return build_polytope(rows, require_simple=False)


def prism(polygon, lo, hi):
    """The prism over a polygon with ``lo <= x3 <= hi``."""
    return build_polytope([halfspace((*h.normal, 0), h.bound) for h in polygon.halfspaces]
                          + [halfspace((0, 0, 1), hi), halfspace((0, 0, -1), -lo)])


def random_polygon(rng, den=1, radius=4, most=7):
    """Seeded hull of 3 to ``most`` integer points in ``[-radius, radius]^2``,
    divided by ``den``."""
    while True:
        pts = [(rng.randint(-radius, radius), rng.randint(-radius, radius))
               for _ in range(rng.randint(3, most))]
        if affine_rank(pts) == 2:
            return hull_polygon(pts, den)


def pack(crease):
    """The kernels' integer tuple ``(g0, g1, g2, gden)`` of an affine
    crease on the plane, in lowest terms."""
    (g1, g2), g0 = crease.gradient, crease.constant
    den = math.lcm(g0.denominator, g1.denominator, g2.denominator)
    return (int(g0 * den), int(g1 * den), int(g2 * den), den)
