"""Grid scan over single-crease convex functions hunting destabilizers.

Candidates are ``u = max(0, g)`` with an affine crease function ``g``
whose zero set crosses the polygon interior.  Directions come from a
rational circle parameterization (tangent half-angle, so no floating
trigonometry ever enters), offsets from an evenly spaced grid between the
base point and the extreme value of the direction over the vertices.
Every candidate's functional value and boundary integral are exact
rationals; the grid is refined locally around the incumbent a
configurable number of rounds and the final incumbent is re-verified
through the independent slow path.

The grid is integer: a direction parameter ``a / d`` and an offset
``p / q`` are kept as integer pairs, and a direction is its circle point
times ``d**2`` (:func:`_direction`), so the grid builds no ``Fraction``.
A refine round is the grid of the round before at :data:`ZOOM` times the
resolution, in a window of :data:`ZOOM` points each side of the incumbent.

Each direction's offsets are swept as a profile.  The vertices' values of
the direction cut the offset range into pieces; on a piece the boundary
integral ``B`` is a polynomial of degree at most 2 in the offset and
``integral(w * u)``, hence ``L``, one of degree at most 4, because the
clipped region's vertices move affinely and the weight adds a degree.  So
the kernel evaluates only the first :data:`SAMPLES` offsets of a piece,
all pieces of a round in one batch, and the rest of the piece follows
exactly from difference registers: each piece is one iterator
(:func:`_continued`) that yields the kernel's samples and then each
further ``(L, B)`` from four plus two integer additions.  Candidates are
ranked straight from these iterators (:func:`_rank`) by cross-multiplying
their integers; only the incumbent of each round is reduced and becomes
a ``Fraction`` ratio, and only the final winner an ``AffineFunction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import _linalg, integration, invariants
from .errors import NoInteriorCrease, UnsupportedDimension
from .geometry import Polytope
from .invariants import ExtremalData
from .kernels import simple_pl_values
from .plfunc import AffineFunction, SimplePL

REFINE_POINTS = 21
# A refine round spans one step of the round before each side of the
# incumbent with REFINE_POINTS points, so its steps are ZOOM times finer.
ZOOM = (REFINE_POINTS - 1) // 2
SAMPLES = 5  # kernel offsets per profile piece: enough to fix the quartic L


@dataclass(frozen=True)
class ScanConfig:
    """Grid sizes; counts must all be at least one."""

    direction_count: int = 360
    offset_count: int = 100
    refine_rounds: int = 2

    def __post_init__(self):
        if min(self.direction_count, self.offset_count) < 1 or self.refine_rounds < 0:
            raise ValueError("direction/offset counts must be >= 1, rounds >= 0")


@dataclass(frozen=True)
class ScanResult:
    """Certified upper bound for the coercivity constant from the scan.

    ``lambda_star_estimate`` is the minimum of the exact ratios
    ``L(u) / boundary_integral(u)`` over all sampled candidates, hence an
    upper bound for the true constant from this candidate family; it is
    never claimed to be the infimum.  ``destabilizer_found`` records an
    exact negative functional value.
    """

    lambda_star_estimate: Fraction
    worst_u: SimplePL
    destabilizer_found: bool
    curvature_hypothesis_ok: bool
    candidates_evaluated: int
    round_minima: tuple


def _direction(a: int, d: int):
    """The rational point on the circle for the parameter ``w = a / d``
    (taken mod 1), times ``d**2``, as an integer pair.

    For ``w < 1/2`` the point is ``(1 - s^2, 2 s)`` with ``s = 4 w - 1``,
    and beyond it ``(s^2 - 1, -2 s)`` with ``s = 4 (w - 1/2) - 1``; here
    ``d s`` is the integer ``4 a - d`` or ``4 a - 3 d``.
    """
    a %= d
    if 2 * a < d:
        s = 4 * a - d
        return (d * d - s * s, 2 * d * s)
    s = 4 * a - 3 * d
    return (s * s - d * d, -2 * d * s)


def _crease_family(poly: Polytope, base):
    """Per-direction crease sweeps for direction parameters ``w = a / d``.

    Returns a function ``(a, d) -> _Sweep``.  The vertices and the base
    point are put over one denominator once, as integer numerators.  Offsets
    ``v`` sweep from the crease through the normalization point (v = 0)
    out to the maximal vertex (v = 1), so every candidate is normalized:
    it vanishes at the base point and is nonnegative.  The antipodal
    direction covers the other orientation of each crease line, hence no
    line is lost to this restriction, and the resulting ratios genuinely
    upper-bound the coercivity constant.
    """
    pden, (*pts, (bx, by)) = _linalg.over_common_denominator((*poly.vertices, base))

    def sweep(a, d):
        n1, n2 = _direction(a, d)
        # Over d**2 * pden: the direction at each vertex and at the base
        # point, and the rise from there to the maximal vertex.
        values = [n1 * x + n2 * y for x, y in pts]
        gbase = n1 * bx + n2 * by
        top = max(values)
        breaks = sorted({s - gbase for s in values if gbase < s < top})
        return _Sweep(n1 * pden, n2 * pden, d * d * pden, gbase, top - gbase, breaks)

    return sweep


class _Sweep(NamedTuple):
    """The creases of one direction ``(n1, n2) / den`` as the offset moves.

    With ``v = vn / vd`` the crease is ``g = (n1 x + n2 y) / den - (gbase
    + v * rise) / den``; ``rise > 0`` because the base point is interior.
    ``breaks`` are the numerators over ``rise`` of the breakpoints: the
    offsets in (0, 1) at which the crease passes a vertex.
    """

    n1: int
    n2: int
    den: int
    gbase: int
    rise: int
    breaks: list

    def crease(self, vn, vd):
        """The crease at ``v = vn / vd`` (``vd > 0``) as the unreduced
        integer tuple ``(g0, g1, g2, gden)`` that :func:`simple_pl_values`
        reads."""
        return (-(self.gbase * vd + vn * self.rise), self.n1 * vd, self.n2 * vd, self.den * vd)

    def pieces(self, p0, q, count):
        """``(start, stop)`` runs of the offsets ``(p0 + t) / q``,
        ``t < count``, with ``q > 0``, that no breakpoint separates.

        Offset t lies at or left of the breakpoint ``b / rise`` exactly
        when ``t <= b q / rise - p0``, so an offset on a breakpoint ends
        its run; by continuity either side would do.
        """
        cuts = {b * q // self.rise - p0 + 1 for b in self.breaks}
        bounds = [0, *sorted(c for c in cuts if 0 < c < count), count]
        return list(zip(bounds, bounds[1:]))


def _differences(values):
    """The backward differences of ``values`` at its last value, of
    orders ``0 .. len(values) - 1``."""
    out = []
    while values:
        out.append(values[-1])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _continued(ls, bs, count):
    """The rows ``(L, B)`` of a piece at its offsets ``0 .. count - 1``,
    from the kernel's samples ``ls`` and ``bs`` at the first of them.

    The samples come first.  Past them, ``L`` (degree 4) and ``B``
    (degree 2) run on difference registers: the backward differences at
    the last row, of orders up to the degree.  The top one is constant
    and each lower one adds the one above, so a row costs 4 + 2 integer
    additions.  A piece longer than its samples has :data:`SAMPLES` of
    them, as many as ``L`` needs.
    """
    yield from zip(ls, bs)
    if count == len(ls):
        return
    l0, l1, l2, l3, l4 = _differences(ls)
    b0, b1, b2 = _differences(bs[-3:])
    for _ in range(count - len(ls)):
        l3 += l4
        l2 += l3
        l1 += l2
        l0 += l1
        b1 += b2
        b0 += b1
        yield l0, b0


def _profiles(family, kernel_args, ws, p0, q, count):
    """Exact ``L`` and ``B`` of every crease with direction parameter
    ``a / d`` for ``(a, d)`` in ``ws`` and offset ``(p0 + t) / q``,
    ``t < count``, with ``q > 0``: one row of the integer grid.

    Returns, per direction, its pieces as ``(start, cl, cb, rows)``:
    ``rows`` is a :func:`_continued` iterator whose ``k``-th item
    ``(l, b)`` is offset ``start + k``, with ``L = l / cl`` and ``B = b /
    cb`` and ``cl, cb > 0``.  One :func:`simple_pl_values` call evaluates
    the first :data:`SAMPLES` offsets of every piece, a direction's
    candidates together; ``cl`` and ``cb`` are the ``lcm`` of their
    denominators.
    """
    sweeps = [family(a, d) for a, d in ws]
    plans = [sw.pieces(p0, q, count) for sw in sweeps]
    cands = [
        sw.crease(p0 + t, q)
        for sw, pieces in zip(sweeps, plans)
        for start, stop in pieces
        for t in range(start, min(stop, start + SAMPLES))
    ]
    rows = iter(simple_pl_values(*kernel_args, cands))
    out = []
    for pieces in plans:
        direction = []
        for start, stop in pieces:
            got = [next(rows) for _ in range(min(stop - start, SAMPLES))]
            cl = math.lcm(*[ld for _, ld, _, _ in got])
            cb = math.lcm(*[bd for _, _, _, bd in got])
            ls = [ln * (cl // ld) for ln, ld, _, _ in got]
            bs = [bn * (cb // bd) for _, _, bn, bd in got]
            direction.append((start, cl, cb, _continued(ls, bs, stop - start)))
        out.append(direction)
    return out


def _rank(profiles, top_n, top_d):
    """Rank the rows of ``profiles`` (from :func:`_profiles`) in order,
    direction by direction and by offset, against the incumbent ratio
    ``top_n / top_d``.

    Returns ``(evaluated, pick)``: the number of rows with ``B > 0``, and
    ``(j, t, l, cl, b, cb)`` for the first row of the lowest ratio below
    the incumbent (direction ``j``, offset ``t``), or None.  ``L / B = (l
    * cb) / (cl * b)`` with ``b > 0`` and positive denominators, so ratios
    compare exactly by cross-multiplying, the products with the incumbent
    held per piece.  ``(1, 0)`` stands for the ratio of no incumbent,
    which every row beats.
    """
    evaluated = 0
    pick = None
    for j, pieces in enumerate(profiles):
        for start, cl, cb, rows in pieces:
            x, y = cb * top_d, top_n * cl
            for t, (l, b) in enumerate(rows, start):
                if b == 0:
                    continue  # crease missed the body; u vanishes on the boundary
                evaluated += 1
                if l * x < y * b:
                    top_n, top_d = l * cb, cl * b
                    x, y = cb * top_d, top_n * cl
                    pick = (j, t, l, cl, b, cb)
    return evaluated, pick


def _affine(cand) -> AffineFunction:
    """The crease of an integer candidate tuple as exact rationals."""
    g0, g1, g2, gden = cand
    return AffineFunction((Fraction(g1, gden), Fraction(g2, gden)), Fraction(g0, gden))


def _kernel_data(poly: Polytope, extremal: ExtremalData):
    cycle = poly.ccw_cycle
    vden, verts = _linalg.over_common_denominator([poly.vertices[i] for i in cycle])
    vxs, vys = map(list, zip(*verts))

    edge_by_pair = {}
    for facet in poly.facets:
        i, j = facet.vertex_indices
        edge_by_pair[frozenset((i, j))] = facet.measure
    edges = []
    m = len(cycle)
    for pos in range(m):
        i, j = cycle[pos], cycle[(pos + 1) % m]
        length = edge_by_pair[frozenset((i, j))]
        edges.append((pos, (pos + 1) % m, length.numerator, length.denominator))

    wden, wgrad, w0 = invariants._weight(poly, extremal).affine_numerators()
    return vxs, vys, vden, edges, [w0, *wgrad], wden


def scan(poly: Polytope, extremal: ExtremalData, config: ScanConfig = ScanConfig()) -> ScanResult:
    """Sweep single-crease candidates, keep the exact minimum ratio.

    The curvature hypothesis (weight nonnegative on P) is checked first
    and recorded; evaluation is exact either way.  Each round hands every
    direction the same offsets ``(p0 + t) / q``, ``t < count``, and
    evaluates them as per-direction profiles (:func:`_profiles`): one
    kernel batch of at most :data:`SAMPLES` offsets per piece, the rest
    from difference registers.  :func:`_rank` takes the candidates w-major
    and by offset, so its strict ``<`` keeps the first minimum of the grid.
    The incumbent becomes a ``Fraction`` ratio once per round, and only
    the final winner an ``AffineFunction``.  That winner is recomputed
    through the general functional as an independent exactness check
    before reporting.
    """
    if poly.dim != 2:
        raise UnsupportedDimension(
            f"the crease scan is defined for dimension 2 only, not {poly.dim}")
    weight = invariants._weight(poly, extremal)
    hypothesis_ok = min(weight.evaluate(v) for v in poly.vertices) >= 0
    if poly.origin_interior:
        base = (Fraction(0), Fraction(0))
    else:
        base = poly.barycenter

    kernel_args = _kernel_data(poly, extremal)
    family = _crease_family(poly, base)

    evaluated = 0
    best = None  # (ratio numerator, ratio denominator, (a, d), (p, q), candidate, (L, B))
    round_minima = []

    def consider(ws, p0, q, count):
        """Evaluate every crease ``(a / d, (p0 + t) / q)`` of the integer
        grid, ``(a, d)`` in ``ws`` w-major and ``t < count``; keep the
        first minimum."""
        nonlocal best, evaluated
        profiles = _profiles(family, kernel_args, ws, p0, q, count)
        ranked, pick = _rank(profiles, *(best[:2] if best else (1, 0)))
        evaluated += ranked
        if pick is not None:
            j, t, l, cl, b, cb = pick
            a, d = ws[j]
            cand = family(a, d).crease(p0 + t, q)
            best = (l * cb, cl * b, (a, d), (p0 + t, q), cand, (Fraction(l, cl), Fraction(b, cb)))

    m = config.direction_count
    offs = config.offset_count
    consider([(a, m) for a in range(m)], 0, offs, offs)
    if best is None:
        raise NoInteriorCrease("no scan candidate produced a valid crease")
    round_minima.append(Fraction(best[0], best[1]))

    for r in range(1, config.refine_rounds + 1):
        d, q = m * ZOOM**r, offs * ZOOM**r
        # The incumbent over this round's denominators: a round that kept
        # it leaves it over an older, coarser grid.
        (a, ad), (p, pq) = best[2], best[3]
        a, p = a * (d // ad), p * (q // pq)
        lo, hi = max(p - ZOOM, 0), min(p + ZOOM, q - 1)
        consider([(a + i, d) for i in range(-ZOOM, ZOOM + 1)], lo, q, hi - lo + 1)
        round_minima.append(Fraction(best[0], best[1]))

    ratio = round_minima[-1]
    crease = _affine(best[4])
    lval, bval = best[5]
    worst = SimplePL(crease)

    # Independent re-verification through the general machinery.
    u = worst.as_pl(poly)
    l_check = invariants.linear_functional_L(poly, u, extremal)
    b_check = integration.boundary_integral(poly, u)
    if l_check != lval or b_check != bval:
        raise AssertionError(
            "kernel and reference functional disagree: "
            f"{lval}/{bval} vs {l_check}/{b_check}"
        )

    return ScanResult(
        lambda_star_estimate=ratio,
        worst_u=worst,
        destabilizer_found=lval < 0,
        curvature_hypothesis_ok=hypothesis_ok,
        candidates_evaluated=evaluated,
        round_minima=tuple(round_minima),
    )
