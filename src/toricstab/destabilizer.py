"""Grid scan over single-crease convex functions hunting destabilizers.

Candidates are ``u = max(0, g)`` with an affine crease function ``g``
whose zero set crosses the polygon interior.  Directions come from a
rational circle parameterization (tangent half-angle, so no floating
trigonometry ever enters), offsets from an interior grid between the
extreme values of the direction over the vertices.  Every candidate's
functional value and boundary integral are exact rationals; the grid is
refined locally around the incumbent a configurable number of rounds and
the final incumbent is re-verified through the independent slow path.
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
    """Creases for direction parameter w and offset parameter v in [0, 1).

    Returns a function ``(w, v) -> AffineFunction`` that caches, per
    direction, the direction's values at the base point and its maximum
    over the vertices.  Offsets sweep from the crease through the
    normalization point (v = 0) out to the maximal vertex, so every
    candidate is normalized: it vanishes at the base point and is
    nonnegative.  The antipodal direction covers the other orientation of
    each crease line, hence no line is lost to this restriction, and the
    resulting ratios genuinely upper-bound the coercivity constant.
    """
    direction_cache = {}

    def crease(w, v):
        key = w % 1
        data = direction_cache.get(key)
        if data is None:
            a1, a2 = _direction(key)
            gmax = max(a1 * p[0] + a2 * p[1] for p in poly.vertices)
            gbase = a1 * base[0] + a2 * base[1]
            data = (a1, a2, gmax, gbase)
            direction_cache[key] = data
        a1, a2, gmax, gbase = data
        return AffineFunction((a1, a2), -(gbase + v * (gmax - gbase)))

    return crease


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


def _pack(crease: AffineFunction):
    g1, g2 = crease.gradient
    g0 = crease.constant
    den = math.lcm(g0.denominator, g1.denominator, g2.denominator)
    return (int(g0 * den), int(g1 * den), int(g2 * den), den)


def scan(poly: Polytope, extremal: ExtremalData, config: ScanConfig = ScanConfig()) -> ScanResult:
    """Sweep single-crease candidates, keep the exact minimum ratio.

    The curvature hypothesis (weight nonnegative on P) is checked first
    and recorded; evaluation is exact either way.  The incumbent after all
    refinement rounds is recomputed through the general functional as an
    independent exactness check before reporting.
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

    crease_for = _crease_family(poly, base)

    def evaluate_batch(params):
        cands = []
        keep = []
        for w, v in params:
            crease = crease_for(w, v)
            cands.append(_pack(crease))
            keep.append((w, v, crease))
        results = simple_pl_values(vxs, vys, vden, edges, wlin, wden, cands)
        out = []
        for (w, v, crease), (ln, ld, bn, bd) in zip(keep, results):
            if bn == 0:
                continue  # crease missed the body; u vanishes on the boundary
            out.append((w, v, crease, Fraction(ln, ld), Fraction(bn, bd)))
        return out

    m = config.direction_count
    offs = config.offset_count
    grid = [
        (Fraction(j, m), Fraction(t, offs))
        for j in range(m)
        for t in range(offs)
    ]
    evaluated = 0
    best = None
    round_minima = []

    def consider(batch):
        nonlocal best, evaluated
        for w, v, crease, lval, bval in batch:
            evaluated += 1
            ratio = lval / bval
            if best is None or ratio < best[0]:
                best = (ratio, w, v, crease, lval, bval)

    consider(evaluate_batch(grid))
    if best is None:
        raise NoInteriorCrease("no scan candidate produced a valid crease")
    round_minima.append(best[0])

    dw = Fraction(1, m)
    dv = Fraction(1, offs)
    for _ in range(config.refine_rounds):
        _, w_star, v_star, _, _, _ = best
        ws = [
            w_star - dw + Fraction(2 * i, REFINE_POINTS - 1) * dw
            for i in range(REFINE_POINTS)
        ]
        vs = [
            v_star - dv + Fraction(2 * i, REFINE_POINTS - 1) * dv
            for i in range(REFINE_POINTS)
        ]
        vs = [v for v in vs if 0 <= v < 1]
        consider(evaluate_batch([(w, v) for w in ws for v in vs]))
        round_minima.append(best[0])
        dw = 2 * dw / (REFINE_POINTS - 1)
        dv = 2 * dv / (REFINE_POINTS - 1)

    ratio, _, _, crease, lval, bval = best
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
