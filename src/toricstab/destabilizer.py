"""Grid scan over single-crease convex functions hunting destabilizers.

Candidates are ``u = max(0, g)`` with an affine crease function ``g``
whose zero set crosses the polygon interior.  Directions come from a
rational circle parameterization (tangent half-angle, so no floating
trigonometry ever enters), offsets from an interior grid between the
extreme values of the direction over the vertices.  Every candidate's
functional value and boundary integral are exact rationals; the grid is
refined locally around the incumbent a configurable number of rounds and
the final incumbent is re-verified through the independent slow path.

Candidates stay integers until the winner: each direction is put over one
denominator once, a candidate is an integer tuple for the kernel, and
candidates are ranked by cross-multiplying the kernel's integer results.
Only the incumbent of each round becomes a ``Fraction`` ratio, and only
the final winner an ``AffineFunction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import integration, invariants
from .errors import NoInteriorCrease
from .geometry import Polytope
from .invariants import ExtremalData
from .kernels import simple_pl_values
from .plfunc import AffineFunction, SimplePL

REFINE_POINTS = 21


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


def _direction(w: Fraction):
    """Rational point on the circle for a parameter in [0, 1)."""
    w = w % 1
    half = Fraction(1, 2)
    if w < half:
        s = 4 * w - 1
        return (1 - s * s, 2 * s)
    s = 4 * (w - half) - 1
    return (s * s - 1, -2 * s)


def _crease_family(poly: Polytope, base):
    """Creases for direction parameters w and offset parameters v in [0, 1).

    Returns a function ``(ws, vs) -> list`` giving the creases of every
    pair in ``ws x vs``, w-major.  A crease ``g = (g0 + g1 x + g2 y) / gden``
    is the integer tuple ``(g0, g1, g2, gden)`` that
    :func:`simple_pl_values` reads; the tuples are not reduced.  Each
    direction ``(a1, a2)``, its value at the base point and its rise from
    there to the maximal vertex are put over one denominator once, with
    the vertices and the base point as integer numerators over a common
    denominator.  Offsets sweep from the crease through the normalization
    point (v = 0) out to the maximal vertex, so every candidate is
    normalized: it vanishes at the base point and is nonnegative.  The
    antipodal direction covers the other orientation of each crease line,
    hence no line is lost to this restriction, and the resulting ratios
    genuinely upper-bound the coercivity constant.
    """
    pden = math.lcm(*[c.denominator for p in (*poly.vertices, base) for c in p])
    pts = [(int(x * pden), int(y * pden)) for x, y in poly.vertices]
    bx, by = int(base[0] * pden), int(base[1] * pden)

    def creases(ws, vs):
        offsets = [(v.numerator, v.denominator) for v in vs]
        out = []
        for w in ws:
            a1, a2 = _direction(w)
            aden = math.lcm(a1.denominator, a2.denominator)
            n1 = a1.numerator * (aden // a1.denominator)
            n2 = a2.numerator * (aden // a2.denominator)
            # Over aden * pden: the direction, its value at the base point
            # and its rise to the maximal vertex; with v = vn / vd,
            # g = a1 x + a2 y - (gbase + v * rise).
            gbase = n1 * bx + n2 * by
            rise = max(n1 * x + n2 * y for x, y in pts) - gbase
            n1 *= pden
            n2 *= pden
            den = aden * pden
            out.extend(
                (-(gbase * vd + vn * rise), n1 * vd, n2 * vd, den * vd)
                for vn, vd in offsets
            )
        return out

    return creases


def _affine(cand) -> AffineFunction:
    """The crease of an integer candidate tuple as exact rationals."""
    g0, g1, g2, gden = cand
    return AffineFunction((Fraction(g1, gden), Fraction(g2, gden)), Fraction(g0, gden))


def _kernel_data(poly: Polytope, extremal: ExtremalData):
    cycle = poly.ccw_cycle
    verts = [poly.vertices[i] for i in cycle]
    vden = 1
    for p in verts:
        for c in p:
            vden = math.lcm(vden, c.denominator)
    vxs = [int(p[0] * vden) for p in verts]
    vys = [int(p[1] * vden) for p in verts]

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

    rbar = invariants.average_scalar_curvature(poly)
    w0 = extremal.theta.constant + rbar
    w1, w2 = extremal.theta.gradient
    wden = math.lcm(w0.denominator, w1.denominator, w2.denominator)
    wlin = (int(w0 * wden), int(w1 * wden), int(w2 * wden))
    return vxs, vys, vden, edges, wlin, wden


def scan(poly: Polytope, extremal: ExtremalData, config: ScanConfig = ScanConfig()) -> ScanResult:
    """Sweep single-crease candidates, keep the exact minimum ratio.

    The curvature hypothesis (weight nonnegative on P) is checked first
    and recorded; evaluation is exact either way.  Candidates are integer
    tuples from the grid point to the ranking; the incumbent becomes a
    ``Fraction`` ratio once per round, and only the final winner an
    ``AffineFunction``.  That winner is recomputed through the general
    functional as an independent exactness check before reporting.
    """
    if poly.dim != 2:
        raise ValueError("the crease scan is defined for dimension 2 only")
    rbar = invariants.average_scalar_curvature(poly)
    weight_min = min(
        rbar + extremal.theta.evaluate(v) for v in poly.vertices
    )
    hypothesis_ok = weight_min >= 0
    if poly.origin_interior:
        base = (Fraction(0), Fraction(0))
    else:
        base = poly.barycenter

    vxs, vys, vden, edges, wlin, wden = _kernel_data(poly, extremal)
    creases = _crease_family(poly, base)

    evaluated = 0
    best = None  # (ratio numerator, ratio denominator, w, v, candidate, row)
    round_minima = []

    def consider(ws, vs):
        """Evaluate every (w, v) in ws x vs, w-major; keep the first minimum.

        A row's ratio is ``L / B = (ln * bd) / (ld * bn)`` with ``bn > 0``
        and positive denominators, so ratios compare exactly by
        cross-multiplying; the strict ``<`` keeps the first minimum found.
        """
        nonlocal best, evaluated
        cands = creases(ws, vs)
        rows = simple_pl_values(vxs, vys, vden, edges, wlin, wden, cands)
        pick = None
        top_n, top_d = best[:2] if best else (None, None)
        for k, (ln, ld, bn, bd) in enumerate(rows):
            if bn == 0:
                continue  # crease missed the body; u vanishes on the boundary
            evaluated += 1
            if top_d is None or ln * bd * top_d < top_n * ld * bn:
                top_n, top_d = ln * bd, ld * bn
                pick = k
        if pick is not None:
            nv = len(vs)
            best = (top_n, top_d, ws[pick // nv], vs[pick % nv], cands[pick], rows[pick])

    m = config.direction_count
    offs = config.offset_count
    consider([Fraction(j, m) for j in range(m)], [Fraction(t, offs) for t in range(offs)])
    if best is None:
        raise NoInteriorCrease("no scan candidate produced a valid crease")
    round_minima.append(Fraction(best[0], best[1]))

    dw = Fraction(1, m)
    dv = Fraction(1, offs)
    for _ in range(config.refine_rounds):
        w_star, v_star = best[2], best[3]
        ws = [
            w_star - dw + Fraction(2 * i, REFINE_POINTS - 1) * dw
            for i in range(REFINE_POINTS)
        ]
        vs = [
            v_star - dv + Fraction(2 * i, REFINE_POINTS - 1) * dv
            for i in range(REFINE_POINTS)
        ]
        vs = [v for v in vs if 0 <= v < 1]
        consider(ws, vs)
        round_minima.append(Fraction(best[0], best[1]))
        dw = 2 * dw / (REFINE_POINTS - 1)
        dv = 2 * dv / (REFINE_POINTS - 1)

    ratio = round_minima[-1]
    crease = _affine(best[4])
    ln, ld, bn, bd = best[5]
    lval, bval = Fraction(ln, ld), Fraction(bn, bd)
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
