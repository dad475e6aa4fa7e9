"""Small test helpers shared by the test modules.

The helpers include the simplex and lattice-vector routines that only
tests need: :func:`simplex_halfspaces` with its :class:`DegenerateSimplex`,
:func:`affine_rank` and :func:`primitivize`, and the oracles
:func:`simplex_measures`, :func:`check_recession`,
:func:`spans_dimension` and :func:`reference_extremal`.
"""

import itertools
import math
from fractions import Fraction

from toricstab import Polynomial, _linalg, build_polytope, halfspace, integrate_polynomial, make_pl
from toricstab.errors import ToricStabError, Unbounded
from toricstab.geometry import HalfSpace, intersect
from toricstab.integration import _form_integral
from toricstab.invariants import ExtremalData
from toricstab.plfunc import AffineFunction


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


def spans_dimension(rows, n):
    """Whether clip rows ``(numerators, denominator, tight set)`` span
    dimension n: the vertices ``p / q`` do exactly when the homogeneous
    rows ``(q, p)`` have rank n + 1."""
    return len(rows) > n and _linalg.rank([[q, *p] for p, q, _ in rows]) > n


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
        edges = [[a - b for a, b in zip(p, face[0])] for p in face[1:]]
        normal = _linalg.cross_generalized(edges, n)
        level = _linalg.dot(normal, face[0])
        side = _linalg.dot(normal, points[omit]) - level
        if side == 0:
            raise DegenerateSimplex("affinely dependent simplex vertices")
        g = math.gcd(*normal) if side < 0 else -math.gcd(*normal)
        out.append(HalfSpace(tuple(c // g for c in normal), Fraction(level // g, q)))
    return out


def contains_interior(poly, x):
    """Whether ``x`` lies strictly inside every half-space of ``poly``."""
    return all(h.value(x) < h.bound for h in poly.halfspaces)


def active_pieces(u, x):
    """The pieces of the PL function ``u`` attaining its maximum at ``x``."""
    x = tuple(Fraction(c) for c in x)
    values = [p.evaluate(x) for p in u.pieces]
    top = max(values)
    return [p for p, v in zip(u.pieces, values) if v == top]


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


def simplex_measures(facet):
    """The lattice measures of the simplices tiling a facet, in the order
    of its ``_integer_simplices``: each simplex's integer ``c`` over the
    facet's ``scale``."""
    _, scale, simplices = facet._integer_simplices
    return tuple(Fraction(c, scale) for c, _ in simplices)


def check_recession(hs, n):
    """Raise :class:`Unbounded` when the body of ``hs``, whose normals
    span, recedes in some direction; the oracle for boundedness.

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


def unimodular(rng, n):
    """A seeded n x n integer matrix of determinant +-1: the identity
    after a few row additions, swaps and sign changes."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 6)):
        i, j = rng.sample(range(n), 2)
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.choice((-2, -1, 1, 2))
            a[i] = [x + s * y for x, y in zip(a[i], a[j])]
        elif kind == 1:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return a


def push_forward(poly, u, a, t):
    """``poly`` and ``u`` pushed forward by the lattice map ``x -> A^{-T} x
    + t``: a normal or gradient ``l`` becomes ``A l``, and ``<A l, t>`` is
    added to its bound or taken from its constant."""
    def image(v):
        return tuple(sum(r * c for r, c in zip(row, v)) for row in a)

    def shift(v):
        return sum(c * x for c, x in zip(image(v), t))

    moved = build_polytope([halfspace(image(h.normal), h.bound + shift(h.normal))
                            for h in poly.halfspaces])
    pieces = [AffineFunction(image(p.gradient), p.constant - shift(p.gradient))
              for p in u.pieces]
    return moved, make_pl(pieces, moved)


def pack(crease):
    """The kernels' integer tuple ``(g0, g1, g2, gden)`` of an affine
    crease on the plane, in lowest terms."""
    (g1, g2), g0 = crease.gradient, crease.constant
    den = math.lcm(g0.denominator, g1.denominator, g2.denominator)
    return (int(g0 * den), int(g1 * den), int(g2 * den), den)


def newton_rows(count, ls, bs):
    """The rows ``(l, b)`` at offsets ``0 .. count - 1`` of a scan profile
    piece ``(start, count, cl, cb, ls, bs)``, from its samples by Newton's
    forward formula: every difference the samples have, at any order, with
    binomial weights, independent of the scan's fixed formulas."""
    def at(values, t):
        out = 0
        for k in range(len(values)):
            out += values[0] * math.comb(t, k)
            values = [b - a for a, b in zip(values, values[1:])]
        return out

    return [(at(ls, t), at(bs, t)) for t in range(count)]


def reference_rank(profiles, top_n, top_d):
    """``destabilizer._rank`` without pruning: every row of every piece
    (by :func:`newton_rows`) against the incumbent ``top_n / top_d``,
    ``(1, 0)`` for none, in order.  Returns ``(evaluated, pick)`` as
    ``_rank`` does: the rows with ``b > 0`` and ``(j, t, l, cl, b, cb)``
    for the first row of the lowest ratio strictly below the incumbent,
    or None."""
    evaluated, pick = 0, None
    for j, pieces in enumerate(profiles):
        for start, count, cl, cb, ls, bs in pieces:
            for t, (l, b) in enumerate(newton_rows(count, ls, bs), start):
                if b == 0:
                    continue
                evaluated += 1
                if l * cb * top_d < top_n * cl * b:
                    top_n, top_d = l * cb, cl * b
                    pick = (j, t, l, cl, b, cb)
    return evaluated, pick


def reference_extremal(poly):
    """``(matrix, extremal)``: the second-moment matrix and the
    :class:`ExtremalData` of ``poly`` from ``Polynomial`` arithmetic.

    The centered coordinates ``x_j + c_j`` are affine polynomials; the
    matrix integrates their products over the body, the Futaki vector
    their boundary integrals from the facets' degree-2 tables
    (``Polytope._boundary_moments``), the coefficients come from the
    ``Fraction`` solve of :func:`_linalg.solve`, and the range from the
    potential evaluated at every ``Fraction`` vertex.  The reference for
    ``invariants.extremal_field``, which reads integer tables instead.
    """
    n = poly.dim
    c = tuple(-x for x in poly.barycenter)
    centered = [Polynomial.affine(n, [int(i == j) for i in range(n)], c[j]) for j in range(n)]
    matrix = [[integrate_polynomial(poly, centered[j] * centered[l]) for l in range(n)]
              for j in range(n)]
    b = tuple(_form_integral(poly._boundary_moments, x) for x in centered)
    a = _linalg.solve(matrix, b)
    theta = AffineFunction(a, _linalg.dot(a, c))
    values = [theta.evaluate(v) for v in poly.vertices]
    low, high = min(values), max(values)
    return matrix, ExtremalData(c, b, a, theta, low, high, max(abs(low), abs(high)))
