"""Curvature averages, extremal data, stability functionals and conditions.

All quantities are exact rationals derived from polytope integrals:

* the average scalar curvature is the lattice-measure boundary volume
  divided by the volume;
* the centering constants shift each coordinate to integrate to zero;
* the obstruction vector pairs centered coordinates with the boundary;
* the extremal potential is the affine function whose coefficients solve
  the second-moment system against that vector, which is exactly the
  requirement that the stability functional vanish on affine functions.

The linear functional ``L`` of a convex piecewise-linear function is the
boundary integral minus the weighted volume integral; its sign over all
such functions encodes relative stability of the associated family of
degenerations, and ``-L / (2 Vol)`` is the reported invariant of one
degeneration.  Every affine input is read as its integer form: each PL
piece and the potential ``theta`` carry theirs (``AffineFunction.form``),
and the weight ``rbar + theta`` is built from it in :func:`_weight` alone,
which the crease scan reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, geometry, integration, plfunc
from .errors import OriginNotInterior, SingularMoment, WrongFamily
from .geometry import Polytope
from .integration import Polynomial
from .plfunc import AffineFunction, PLFunction

CONDITION_CODES = ("c02", "c02prime", "c02doubleprime", "c43", "c04", "c61")


@dataclass(frozen=True)
class ExtremalData:
    """Centering constants, the futaki vector ``b`` solved against,
    extremal coefficients and the potential's range."""

    c: tuple
    b: tuple
    a: tuple
    theta: AffineFunction
    theta_min: Fraction
    theta_max: Fraction
    norm: Fraction


@dataclass(frozen=True)
class DegenerationReport:
    """Exact invariants of the degeneration induced by a convex PL function."""

    L_value: Fraction
    rel_futaki: Fraction
    gen_futaki_alpha: Fraction
    ip_ab: Fraction
    ip_bb: Fraction
    trivial: bool


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of one sufficient condition with its exact slack.

    ``margin`` is the slack at the best interior origin (a supremum over
    interior origins for the origin-dependent codes); ``holds`` is true
    when some interior origin makes the slack nonnegative.  ``origin`` is
    the point, in the polytope's own coordinates, at which ``witness`` was
    evaluated: an interior origin where the condition holds when it holds,
    else a minimiser of the largest support value.  It is None for codes
    that use no origin.  ``margin_at_given_origin`` is the slack with the
    coordinate origin as apex, None when that origin is not interior.
    """

    name: str
    holds: bool
    margin: Fraction
    witness: object = None
    origin: tuple = None
    margin_at_given_origin: Fraction = None


# ---------------------------------------------------------------------------
# basic invariants
# ---------------------------------------------------------------------------


def average_scalar_curvature(poly: Polytope) -> Fraction:
    """Boundary measure over volume; the curvature average of the class,
    kept on the polytope as :attr:`Polytope.rbar`."""
    return poly.rbar


def centering_constants(poly: Polytope) -> tuple:
    """Constants c with integral of (x_j + c_j) over P equal to zero."""
    vol = poly.volume
    out = []
    for j in range(poly.dim):
        moment = integration.integrate_polynomial(
            poly, Polynomial.coordinate(poly.dim, j)
        )
        out.append(-moment / vol)
    return tuple(out)


def futaki_vector(poly: Polytope, c=None) -> tuple:
    """Boundary pairing with the centered coordinates.

    The volume part of the pairing vanishes by centering, so the vector is
    the boundary integral of ``x_j + c_j``; it is zero exactly when the
    obstruction to constant scalar curvature vanishes on the class.
    ``c`` defaults to :func:`centering_constants`.

    The integral of ``x_j + c_j`` is the facets' first moments in ``x_j``
    plus ``c_j`` times their measures, so one pass reads each facet's
    moments once, over the ``lcm`` of their denominators, and builds one
    ``Fraction`` per coordinate.
    """
    if c is None:
        c = centering_constants(poly)
    moments = [facet._moments for facet in poly.facets]
    den = math.lcm(*[d for d, _ in moments])
    measure = 0
    first = [0] * poly.dim
    for d, values in moments:
        s = den // d
        measure += s * values[()]
        for j in range(poly.dim):
            first[j] += s * values[(j,)]
    return tuple(Fraction(f * cj.denominator + cj.numerator * measure, den * cj.denominator)
                 for f, cj in zip(first, c))


def _centered(n, c) -> list:
    """The centered coordinates ``x_j + c_j`` as polynomials."""
    return [Polynomial.affine(n, [int(i == j) for i in range(n)], c[j]) for j in range(n)]


def second_moment_matrix(poly: Polytope, c=None):
    """Matrix of integrals of centered coordinate products; positive definite."""
    if c is None:
        c = centering_constants(poly)
    n = poly.dim
    centered = _centered(n, c)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        for l in range(j, n):
            value = integration.integrate_polynomial(poly, centered[j] * centered[l])
            mat[j][l] = value
            mat[l][j] = value
    return mat


def extremal_field(poly: Polytope) -> ExtremalData:
    """Solve the second-moment system for the extremal potential.

    The coefficients ``a`` satisfy ``M a = b`` with ``M`` the centered
    second-moment matrix and ``b`` the boundary pairing vector, which is
    the unique affine potential making the stability functional vanish on
    every affine function.  The range over the polytope is attained at
    vertices since the potential is affine.
    """
    c = centering_constants(poly)
    mat = second_moment_matrix(poly, c)
    b = futaki_vector(poly, c)
    sol = _linalg.solve(mat, b)
    if sol is None:
        raise SingularMoment("second-moment matrix is singular")
    a = tuple(sol)
    const = _linalg.dot(a, c)
    theta = AffineFunction(a, const)
    values = [theta.evaluate(v) for v in poly.vertices]
    tmin, tmax = min(values), max(values)
    return ExtremalData(
        c=c, b=b, a=a, theta=theta, theta_min=tmin, theta_max=tmax,
        norm=max(abs(tmin), abs(tmax)),
    )


# ---------------------------------------------------------------------------
# the linear functional
# ---------------------------------------------------------------------------


def _weight(poly: Polytope, extremal: ExtremalData) -> Polynomial:
    """The affine weight, curvature average plus extremal potential; the
    one place it is built."""
    return extremal.theta.form + average_scalar_curvature(poly)


def _pairing(u: PLFunction, affine: Polynomial) -> Fraction:
    """The integral over the domain of ``u`` times an affine polynomial."""
    return sum(
        (integration.integrate_polynomial(cell.region, affine * cell.piece.form)
         for cell in u.cells),
        Fraction(0),
    )


def linear_functional_L(poly: Polytope, u: PLFunction, extremal: ExtremalData) -> Fraction:
    """Boundary integral of u minus the weighted volume integral, exact."""
    return integration.boundary_integral(poly, u) - _pairing(u, _weight(poly, extremal))


def linear_functional_L_cone(poly: Polytope, u: PLFunction, extremal: ExtremalData) -> Fraction:
    """The same functional computed through the cone decomposition.

    Over the pyramid with apex 0 above a facet of support value ``b_i``
    the boundary piece converts to the divergence integrand
    ``<x, grad u> / b_i + (n / b_i) u``; summed against the weighted term
    this reproduces the boundary form exactly on the common refinement of
    pyramids and PL cells.  A cell is P cut by its own cuts, the
    half-spaces of ``cell.region`` that are not facets of P, and a pyramid
    lies in P, so each refinement cell is a pyramid
    (:attr:`Polytope._cone_halfspaces`) cut by one cell's cuts.  Nothing
    of it but its moments is read, so each comes from
    :func:`geometry._cell_moments` and is never built as a polytope, and
    each costs one dot product with its moments and one ``Fraction``.
    """
    if not poly.origin_interior:
        raise OriginNotInterior("cone form needs 0 strictly inside")
    n = poly.dim
    weight = _weight(poly, extremal)
    # Per cell the integrand is lift / b_i - weighted, with the lift
    # <x, grad u> + n u = (n + 1) u - c for the piece u = <grad u, x> + c;
    # only b_i depends on the pyramid, so each distinct b_i builds its
    # integrands once.
    parts, cuts = [], []
    for cell in u.cells:
        piece = cell.piece
        parts.append((piece.form * (n + 1) - piece.constant, weight * piece.form))
        cuts.append([h for h in cell.region.halfspaces if h.key not in poly.facet_keys])
    integrands = {}
    total = Fraction(0)
    for support, pyramid_hs, start in poly._cone_halfspaces:
        if support not in integrands:
            integrands[support] = [lift * (1 / support) - weighted for lift, weighted in parts]
        for cell_cuts, integrand in zip(cuts, integrands[support]):
            moments = geometry._cell_moments(pyramid_hs, start, cell_cuts)
            if moments is not None:
                total += integration._form_integral(moments, integrand)
    return total


def relative_futaki(poly: Polytope, u: PLFunction, extremal: ExtremalData) -> DegenerationReport:
    """Exact invariants of the toric degeneration induced by ``u``."""
    vol = poly.volume
    rbar = average_scalar_curvature(poly)
    boundary = integration.boundary_integral(poly, u)
    u_volume = integration.integrate_pl(u)
    theta = extremal.theta.form
    theta_u = _pairing(u, theta)
    theta_sq = integration.integrate_polynomial(poly, theta * theta)
    # The weight is theta + rbar, so its pairing with u splits exactly.
    L = boundary - theta_u - rbar * u_volume
    return DegenerationReport(
        L_value=L,
        rel_futaki=-L / (2 * vol),
        gen_futaki_alpha=-(boundary - rbar * u_volume) / (2 * vol),
        ip_ab=-theta_u,
        ip_bb=-theta_sq,
        trivial=plfunc.is_affine(u),
    )


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------


def check_condition(poly: Polytope, extremal: ExtremalData, which: str) -> ConditionVerdict:
    """Evaluate one sufficient condition with its exact rational margin.

    Condition codes (``b_i`` the facet bounds measured from an origin):

    * ``c02``            curvature average plus potential sup norm is at
                         most ``(n+1)/b_i`` for every facet bound ``b_i``;
    * ``c02prime``       the same against ``n+1`` (anticanonical bounds);
    * ``c02doubleprime`` curvature average alone against ``(n+1)/b_i``;
    * ``c43``            pointwise form: curvature average plus potential
                         value at most ``(n+1)/b_i`` everywhere on P;
    * ``c04``            cone-volume form for vanishing obstruction;
    * ``c61``            parameter window of the symmetric hexagon family,
                         decided by exact squared comparisons.

    The cone form behind ``c02``, ``c02doubleprime``, ``c43`` and ``c04``
    holds with its apex at any interior point, and ``L`` vanishes on
    affine functions, so these hold when some interior origin ``t``
    satisfies them.  They see ``t`` only through ``F(t) = max_i b_i(t)``,
    and the reported margin is the one at ``min F`` over the closed
    polytope (:attr:`Polytope.best_origin`), the supremum over interior
    origins.  When that minimum is reached only on the boundary, a
    positive margin still holds at an interior point near the minimiser,
    but a zero margin does not: the cone form needs its apex strictly
    inside, and whether a boundary apex is admissible is left open by the
    documents this follows, so it is refused.  ``c04`` also reports its
    margin at the given origin and raises :class:`OriginNotInterior` when
    that origin is not interior; the other codes accept any coordinates.
    """
    if which not in CONDITION_CODES:
        raise ValueError(f"unknown condition code {which!r}")
    n = poly.dim
    rbar = average_scalar_curvature(poly)

    if which == "c61":
        return _check_hexagon_window(poly)

    if which == "c02prime":
        margin = (n + 1) - rbar - extremal.norm
        return ConditionVerdict("c02prime", margin >= 0, margin,
                                margin_at_given_origin=margin)

    if which == "c04" and not poly.origin_interior:
        raise OriginNotInterior("cone volumes need 0 strictly inside")
    if which == "c43":
        # The weight is affine, so its maximum sits at a vertex.
        theta_values = [extremal.theta.evaluate(v) for v in poly.vertices]
        vertex_index = theta_values.index(max(theta_values))
        level = rbar + extremal.theta_max
    elif which == "c02":
        level = rbar + extremal.norm
    else:
        level = rbar

    def slack(largest_bound):
        if which == "c04":
            # Summing b_i * sigma(F_i) = n * vol(cone_i) over the facets
            # gives sum_i vol(cone_i) / b_i = boundary_measure / n, so the
            # worst cone-volume ratio b_i * sum_j vol(cone_j) / (b_j vol)
            # is rbar * max_i b_i / n.
            return (Fraction(n + 1) - rbar * largest_bound) / n
        return Fraction(n + 1) / largest_bound - level

    best = poly.best_origin
    margin = slack(best.max_support)
    origin = best.point
    holds = margin >= 0 and best.depth > 0
    if margin > 0 and best.depth == 0:
        # F is convex and the barycenter is interior, so moving from the
        # boundary minimiser towards it by the fraction s stays inside and
        # keeps F at most the level where the slack vanishes.
        center = poly.barycenter
        at_center = max(poly.support_values(center))
        target = Fraction(n + 1) / level
        s = min(Fraction(1), (target - best.max_support) / (at_center - best.max_support))
        origin = tuple(t + s * (c - t) for t, c in zip(origin, center))
        holds = True

    bounds = poly.support_values(origin)
    facet = bounds.index(max(bounds))
    witness = (facet, vertex_index) if which == "c43" else facet
    at_given = None
    if poly.origin_interior:
        # Measured from 0, each support value is the bound itself.
        at_given = slack(max(h.bound for h in poly.halfspaces))
    return ConditionVerdict(which, holds, margin, witness, origin, at_given)


def hexagon_parameters(poly: Polytope):
    """Extract (first, second) when P is the symmetric hexagon family.

    The family is recognised up to lattice isomorphism.  Its six normals
    ``n[0..5]``, in counterclockwise order from the positive first axis,
    satisfy ``n[i-1] + n[i+1] = n[i]`` and ``det(n[0], n[1]) = 1``, like
    ``(1,0), (1,1), (0,1), (-1,0), (-1,-1), (0,-1)``; and some translation
    makes the bounds equal on each alternate triple.  The normals of a
    triple sum to zero, so its bound average does not move under
    translation; these averages are the parameters, the first from the
    triple holding ``n[0]``.  Since ``n[i+3] = -n[i]``, such a translation
    exists exactly when the sums ``b[i] + b[i+3]`` of opposite bounds agree.
    """
    if poly.dim != 2 or len(poly.facets) != 6:
        return None
    hs = [poly.halfspaces[f.halfspace_index] for f in poly.facets]
    order = geometry._angular_order([h.normal for h in hs])
    normals = [hs[i].normal for i in order]
    bounds = [hs[i].bound for i in order]
    if _linalg.det_int(normals[:2]) != 1:
        return None
    for i in range(6):
        before, after = normals[i - 1], normals[(i + 1) % 6]
        if _linalg.vadd(before, after) != normals[i]:
            return None
    if not bounds[0] + bounds[3] == bounds[1] + bounds[4] == bounds[2] + bounds[5]:
        return None
    return sum(bounds[0::2]) / 3, sum(bounds[1::2]) / 3


def _check_hexagon_window(poly: Polytope) -> ConditionVerdict:
    params = hexagon_parameters(poly)
    if params is None:
        raise WrongFamily("polytope is not the symmetric hexagon family")
    lam, mu = params
    # The window bounds are quadratic surds; inside the family's parameter
    # range they are equivalent to these two rational quadratics being
    # nonpositive, so the comparison stays exact.
    lower = 10 * lam * mu - 5 * lam**2 - 3 * mu**2
    upper = 10 * lam * mu - 5 * mu**2 - 3 * lam**2
    margin = min(lower, upper)
    return ConditionVerdict("c61", margin >= 0, margin, (lam, mu),
                            margin_at_given_origin=margin)
