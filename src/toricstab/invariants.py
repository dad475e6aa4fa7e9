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

from fractions import Fraction
from typing import NamedTuple

from . import _linalg, geometry, integration, plfunc
from .errors import OriginNotInterior, SingularMoment, WrongFamily
from .geometry import Polytope
from .integration import Polynomial
from .plfunc import AffineFunction, PLFunction

CONDITION_CODES = ("c02", "c02doubleprime", "c43", "c02prime", "c04", "c61")


class ExtremalData(NamedTuple):
    """Centering constants, the futaki vector ``b`` solved against,
    extremal coefficients and the potential's range."""

    c: tuple
    b: tuple
    a: tuple
    theta: AffineFunction
    theta_min: Fraction
    theta_max: Fraction
    norm: Fraction


class DegenerationReport(NamedTuple):
    """Exact invariants of the degeneration induced by a convex PL function."""

    L_value: Fraction
    rel_futaki: Fraction
    gen_futaki_alpha: Fraction
    ip_ab: Fraction
    ip_bb: Fraction
    trivial: bool


class ConditionVerdict(NamedTuple):
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
    """Constants c with integral of (x_j + c_j) over P equal to zero: the
    negated barycenter."""
    return tuple(-x for x in poly.barycenter)


def futaki_vector(poly: Polytope) -> tuple:
    """Boundary pairing with the centered coordinates.

    The volume part of the pairing vanishes by centering, so the vector is
    the boundary integral of ``x_j + c_j``; it is zero exactly when the
    obstruction to constant scalar curvature vanishes on the class.  The
    centering is :func:`centering_constants`, and each entry is one
    :func:`integration.boundary_integral`.
    """
    return tuple(integration.boundary_integral(poly, x) for x in _centered(poly))


def _centered(poly: Polytope) -> list:
    """The centered coordinates ``x_j + c_j`` as polynomials."""
    n, c = poly.dim, centering_constants(poly)
    return [Polynomial.affine(n, [int(i == j) for i in range(n)], c[j]) for j in range(n)]


def second_moment_matrix(poly: Polytope):
    """Matrix of integrals of centered coordinate products; positive definite."""
    n = poly.dim
    centered = _centered(poly)
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
    vertices since the potential is affine.  The solve runs once per
    polytope, which keeps it as it keeps ``rbar``, so a scan and the
    report built after it share one.
    """
    kept = vars(poly).get("_extremal")
    if kept is not None:
        return kept
    c = centering_constants(poly)
    mat = second_moment_matrix(poly)
    b = futaki_vector(poly)
    sol = _linalg.solve(mat, b)
    if sol is None:
        raise SingularMoment("second-moment matrix is singular")
    a = tuple(sol)
    const = _linalg.dot(a, c)
    theta = AffineFunction(a, const)
    values = [theta.evaluate(v) for v in poly.vertices]
    tmin, tmax = min(values), max(values)
    poly._extremal = ExtremalData(
        c=c, b=b, a=a, theta=theta, theta_min=tmin, theta_max=tmax,
        norm=max(abs(tmin), abs(tmax)),
    )
    return poly._extremal


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
    of it but its moments of degree <= 2 is read, so each comes from
    :func:`geometry._cell_moments` and is never built as a polytope.

    Per cell the integrand is ``lift / b_i - weighted``, with the lift
    ``<x, grad u> + n u = (n + 1) u - c`` for the piece ``u = <grad u, x>
    + c`` and ``weighted`` the weight times the piece; only ``b_i``
    depends on the pyramid.  So each cell's lift and weighted forms are
    built once, each refinement cell costs two integer dot products with
    its moments (:func:`integration._form_integral`), and each pyramid's
    lift integrals are summed before their one division by ``b_i``.
    """
    if not poly.origin_interior:
        raise OriginNotInterior("cone form needs 0 strictly inside")
    n = poly.dim
    weight = _weight(poly, extremal)
    outer = frozenset(poly.halfspaces)
    parts = []
    for cell in u.cells:
        piece = cell.piece
        parts.append((piece.form * (n + 1) - piece.constant, weight * piece.form,
                      [h for h in cell.region.halfspaces if h not in outer]))
    lifted = weighted_total = Fraction(0)
    for support, pyramid_hs, start in poly._cone_halfspaces:
        lift_sum = Fraction(0)
        for lift, weighted, cell_cuts in parts:
            moments = geometry._cell_moments(pyramid_hs, start, cell_cuts)
            if moments is not None:
                lift_sum += integration._form_integral(moments, lift)
                weighted_total += integration._form_integral(moments, weighted)
        lifted += lift_sum / support
    return lifted - weighted_total


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

    Condition codes (``b_i`` the facet bounds measured from an origin),
    each applying to every polytope unless it says what it raises:

    * ``c02``            curvature average plus potential sup norm is at
                         most ``(n+1)/b_i`` for every facet bound ``b_i``;
    * ``c02doubleprime`` curvature average alone against ``(n+1)/b_i``;
    * ``c43``            pointwise form: curvature average plus potential
                         value at most ``(n+1)/b_i`` everywhere on P;
    * ``c02prime``       ``c02`` with every ``b_i = 1``; raises
                         :class:`WrongFamily` unless some origin makes
                         every bound 1 (the anticanonical class);
    * ``c04``            cone-volume form for vanishing obstruction;
                         raises :class:`OriginNotInterior` unless the
                         given origin is interior;
    * ``c61``            parameter window of the symmetric hexagon family,
                         decided by exact squared comparisons; raises
                         :class:`WrongFamily` off the family.

    The cone form behind the others holds with its apex at any interior
    point, and ``L`` vanishes on affine functions, so they hold when some
    interior origin ``t`` satisfies them.  They see ``t`` only through
    ``F(t) = max_i b_i(t)``, and each margin is one slack
    ``(n+1)/F - level``, the level being the curvature average plus the
    code's potential term; so ``c02prime`` is ``c02``'s slack at
    ``F = 1``, and ``c04`` is ``c02doubleprime``'s slack times ``F/n``.
    The reported margin is the one at ``min F`` over the closed polytope
    (:attr:`Polytope.best_origin`), the supremum over interior origins.
    When that minimum is reached only on the boundary, a positive margin
    still holds at an interior point near the minimiser, but a zero
    margin does not: the cone form needs its apex strictly inside, and
    whether a boundary apex is admissible is left open by the documents
    this follows, so it is refused.  ``c04`` also reports its margin at
    the given origin; the others accept any coordinates.
    """
    if which not in CONDITION_CODES:
        raise ValueError(f"unknown condition code {which!r}")
    if which == "c61":
        return _check_hexagon_window(poly)
    n = poly.dim
    best = poly.best_origin
    # Anticanonical bounds are a property of P up to translation: when some
    # origin makes every b_i equal to 1, the best origin does.
    if which == "c02prime" and not all(b == 1 for b in best.supports):
        raise WrongFamily("no origin makes every facet bound 1")
    if which == "c04" and not poly.origin_interior:
        raise OriginNotInterior("cone volumes need 0 strictly inside")
    # The potential's term in the level; c02doubleprime and c04 have none.
    term = {"c02": extremal.norm, "c02prime": extremal.norm, "c43": extremal.theta_max}.get(which)
    level = poly.rbar + term if term else poly.rbar

    def slack(largest_bound):
        value = Fraction(n + 1) / largest_bound - level
        # For c04, summing b_i * sigma(F_i) = n * vol(cone_i) over the
        # facets gives sum_i vol(cone_i) / b_i = boundary_measure / n, so
        # the worst cone-volume ratio b_i * sum_j vol(cone_j) / (b_j vol)
        # is rbar * max_i b_i / n, and its slack is scaled by F / n.
        return value * largest_bound / n if which == "c04" else value

    if which == "c02prime":
        margin = slack(1)
        return ConditionVerdict(which, margin >= 0, margin, margin_at_given_origin=margin)

    margin = slack(best.max_support)
    origin, bounds = best.point, best.supports
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
        bounds = poly.support_values(origin)
        holds = True
    witness = bounds.index(max(bounds))
    if which == "c43":
        # The weight is affine, so its maximum sits at a vertex.
        theta_values = [extremal.theta.evaluate(v) for v in poly.vertices]
        witness = (witness, theta_values.index(max(theta_values)))
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
    hs = [f.halfspace for f in poly.ccw_facets]
    # The normals turn counterclockwise along the facets, so the one at the
    # least angle is the first in the half-turn [0, pi) after one outside it.
    upper = [h.normal[1] > 0 or (h.normal[1] == 0 and h.normal[0] > 0) for h in hs]
    start = next(i for i in range(6) if upper[i] and not upper[i - 1])
    normals = [h.normal for h in hs[start:] + hs[:start]]
    bounds = [h.bound for h in hs[start:] + hs[:start]]
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
