"""Exact integration over polytopes and their boundaries, plus lattice sums.

Every integrand is a :class:`Polynomial` of degree at most 2, because
every integral behind the invariants is at most an affine weight times an
affine piece.  A polynomial is held as integer numerators over one
denominator, and every region, a polytope from the fan of its integer
vertices and a facet from its simplices with their lattice measures,
computes once and keeps its integer moments of degree <= 2 over one
denominator (:func:`geometry._simplex_moments`, from the closed-form
simplex moments of Baldoni, Berline, De Loera, Koeppe and Vergne); a
polytope's boundary keeps its facets' moments summed over one
denominator (``Polytope._boundary_moments``).  An integral of a
polynomial is then one integer dot product and one ``Fraction``
(:func:`_form_integral`), over the body or over its boundary.  A PL
function's pieces are affine, so its boundary integral reads each cell
facet's moments of degree <= 1 alone (``Facet._affine_moments``).
An affine piece of a PL function enters as its own integer form
(``AffineFunction.form``, built once per piece): the integrals, the
pairings and the lattice sum's piece table all read it, and none builds
another.  Lattice-point work scans ``k * P`` line by line along the last
coordinate: the scaled half-spaces give each line's integer interval
exactly (:func:`kernels.lattice_weighted_sum`), so only points of
``k * P`` are visited.  A cell budget on the bounding box of ``k * P``
still guards the scan, so a careless scale cannot wedge the process.
"""

from __future__ import annotations

import math
import types
from fractions import Fraction
from typing import NamedTuple

from . import _linalg
from .errors import NonPositiveScale, ScaleOverflow, shown
from .geometry import Polytope
from .kernels import lattice_weighted_sum

MAX_DEGREE = 2
DEFAULT_CELL_BUDGET = 10**8


class Polynomial:
    """Polynomial of degree at most :data:`MAX_DEGREE` with rational coefficients.

    Its state is the integer form ``(denominator, numerators)`` that
    :func:`_form_integral` integrates: ``numerators`` maps each monomial,
    written as the tuple of its coordinate indices in increasing order
    (``x_0 x_2`` as ``(0, 2)``, the constant as ``()``), to the integer
    numerator of its coefficient over the positive ``denominator``.
    Instances are immutable.  ``+``, ``-`` and ``*`` keep the form as it
    comes, so a cancelled monomial may stay with numerator 0;
    :attr:`terms` and :meth:`degree` skip those.  A product above degree 2
    raises ``ValueError``.
    """

    def __init__(self, dim, terms=None):
        coefficients = []
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent {shown(alpha)} for dimension {dim}")
            if sum(alpha) > MAX_DEGREE:
                raise ValueError(f"degree {shown(sum(alpha))} exceeds cap {MAX_DEGREE}")
            key = tuple(j for j, a in enumerate(alpha) for _ in range(a))
            coefficients.append((key, Fraction(coeff)))
        denominator = math.lcm(*[c.denominator for _, c in coefficients])
        numerators = {}
        for key, c in coefficients:
            numerators[key] = numerators.get(key, 0) + c.numerator * (denominator // c.denominator)
        self.dim = dim
        self._form = (denominator, numerators)

    @classmethod
    def _of(cls, dim, denominator, numerators):
        """Wrap an integer form built by the arithmetic, without checking it."""
        poly = cls.__new__(cls)
        poly.dim = dim
        poly._form = (denominator, numerators)
        return poly

    @classmethod
    def constant(cls, dim, value):
        value = Fraction(value)
        return cls._of(dim, value.denominator, {(): value.numerator})

    @classmethod
    def coordinate(cls, dim, j):
        if not 0 <= j < dim:
            raise ValueError(f"no coordinate {shown(j)} in dimension {dim}")
        return cls._of(dim, 1, {(j,): 1})

    @classmethod
    def affine(cls, dim, gradient, constant):
        """``<gradient, x> + constant``; the coefficients are ints or ``Fraction``s."""
        if len(gradient) != dim:
            raise ValueError(f"gradient {shown(gradient)} does not have dimension {dim}")
        denominator = math.lcm(constant.denominator, *[c.denominator for c in gradient])
        numerators = {(): constant.numerator * (denominator // constant.denominator)}
        for j, c in enumerate(gradient):
            numerators[(j,)] = c.numerator * (denominator // c.denominator)
        return cls._of(dim, denominator, numerators)

    def affine_numerators(self):
        """``(D, G, C)`` with the polynomial equal to ``(<G, x> + C) / D``
        in integers; for a polynomial of degree at most 1."""
        denominator, numerators = self._form
        gradient = [numerators.get((j,), 0) for j in range(self.dim)]
        return denominator, gradient, numerators.get((), 0)

    @property
    def terms(self):
        """Read-only view of the nonzero ``Fraction`` coefficients, keyed by
        exponent tuples of length ``dim``."""
        denominator, numerators = self._form
        terms = {}
        for key, c in numerators.items():
            if c:
                alpha = [0] * self.dim
                for j in key:
                    alpha[j] += 1
                terms[tuple(alpha)] = Fraction(c, denominator)
        return types.MappingProxyType(terms)

    def degree(self) -> int:
        return max((len(key) for key, c in self._form[1].items() if c), default=0)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """``self + sign * other`` over the lcm of the two denominators."""
        (da, ta), (db, tb) = self._form, self._coerce(other)._form
        denominator = math.lcm(da, db)
        ma, mb = denominator // da, sign * (denominator // db)
        numerators = {key: c * ma for key, c in ta.items()}
        for key, c in tb.items():
            numerators[key] = numerators.get(key, 0) + c * mb
        return Polynomial._of(self.dim, denominator, numerators)

    def __mul__(self, other):
        da, ta = self._form
        if isinstance(other, (int, Fraction)):
            return Polynomial._of(self.dim, da * other.denominator,
                                  {key: c * other.numerator for key, c in ta.items()})
        db, tb = self._coerce(other)._form
        numerators = {}
        for ka, ca in ta.items():
            if ca:
                for kb, cb in tb.items():
                    if cb:
                        key = ka + kb
                        if len(key) > MAX_DEGREE:
                            raise ValueError(f"product exceeds degree cap {MAX_DEGREE}")
                        key = tuple(sorted(key))
                        numerators[key] = numerators.get(key, 0) + ca * cb
        return Polynomial._of(self.dim, da * db, numerators)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return Polynomial.constant(self.dim, other)

    def evaluate(self, x) -> Fraction:
        """Exact value at a point of ints and ``Fraction``s.

        The point goes over one common denominator ``q``, and the sum runs
        on integer numerators with each monomial raised to degree 2 by
        powers of ``q``; the result is the only ``Fraction`` built.
        """
        q, (point,) = _linalg.over_common_denominator((x,))
        denominator, numerators = self._form
        total = 0
        for key, c in numerators.items():
            for j in key:
                c *= point[j]
            total += c * q ** (MAX_DEGREE - len(key))
        return Fraction(total, denominator * q**MAX_DEGREE)

    def __repr__(self):
        return f"Polynomial({dict(self.terms)!r})"


class LatticeSum(NamedTuple):
    """Exact lattice sum of a piecewise-linear weight at scale k."""

    k: int
    count: int
    weighted_sum: Fraction

    def residual(self, n, volume, boundary) -> Fraction:
        """The weighted sum minus its predictions from the volume and
        boundary integrals of the weight over an n-dimensional body
        (see :func:`ehrhart_residual`)."""
        return self.weighted_sum - self.k**n * volume - Fraction(self.k ** (n - 1), 2) * boundary


# ---------------------------------------------------------------------------
# polytope and boundary integrals
# ---------------------------------------------------------------------------


def _form_integral(moments, f: Polynomial) -> Fraction:
    """Integral of ``f`` over a region with these moments.

    ``moments`` is ``(D, values)`` as :func:`geometry._simplex_moments`
    gives it, with ``values[key] / D`` the integral of the monomial
    ``key`` written as in :class:`Polynomial`.
    """
    denominator, values = moments
    d, numerators = f._form
    return Fraction(sum(c * values[key] for key, c in numerators.items()), d * denominator)


def integrate_polynomial(poly: Polytope, f: Polynomial) -> Fraction:
    """Exact integral of a polynomial over the polytope: a dot product
    with the body's moments (see :func:`_form_integral`)."""
    return _form_integral(poly._moments, f)


def integrate_pl(u) -> Fraction:
    """Exact integral of a piecewise-linear function over its domain."""
    return sum((integrate_polynomial(cell.region, cell.piece.form) for cell in u.cells), Fraction(0))


def boundary_integral(poly: Polytope, f) -> Fraction:
    """Exact integral over the boundary with the lattice measure.

    ``f`` is a :class:`Polynomial`, integrated as one dot product with the
    boundary's moments of degree <= 2 (``Polytope._boundary_moments``), or
    a ``PLFunction``, integrated through its cell subdivision: each cell
    is a polytope that shares its outer facets with ``poly``, so
    restricting the active piece to those facets covers the boundary
    exactly once.  A piece is affine, so each outer facet of a cell
    contributes a dot product with its moments of degree <= 1
    (``Facet._affine_moments``), and no cell facet computes its second
    moments.
    """
    if not isinstance(f, Polynomial):
        return _boundary_integral_pl(poly, f)
    return _form_integral(poly._boundary_moments, f)


def _boundary_integral_pl(poly: Polytope, u) -> Fraction:
    outer = frozenset(poly.halfspaces)
    if frozenset(u.domain.halfspaces) != outer:
        raise ValueError("piecewise-linear function lives on a different polytope")
    total = Fraction(0)
    for cell in u.cells:
        for facet in cell.region.facets:
            if facet.halfspace in outer:
                total += _form_integral(facet._affine_moments, cell.piece.form)
    return total


# ---------------------------------------------------------------------------
# lattice sums
# ---------------------------------------------------------------------------


def _integer_box(poly: Polytope, k):
    lows = []
    highs = []
    cells = 1
    for j in range(poly.dim):
        values = [k * v[j] for v in poly.vertices]
        lo = math.ceil(min(values))
        hi = math.floor(max(values))
        lows.append(lo)
        highs.append(hi)
        cells *= max(hi - lo + 1, 0)
    if cells > DEFAULT_CELL_BUDGET:
        raise ScaleOverflow(f"lattice box has {shown(cells)} cells, budget {DEFAULT_CELL_BUDGET}")
    return lows, highs


def _scaled_constraints(poly: Polytope, k):
    """Integer constraint rows: <m, I> <= r encodes <l, I> <= k * bound."""
    rows = []
    for h in poly.halfspaces:
        q = h.bound.denominator
        rows.append((tuple(q * c for c in h.normal), k * h.bound.numerator))
    return rows


def _piece_table(u):
    """Pieces as integer rows over one common denominator.

    Row ``(A, C)`` encodes the affine piece with value
    ``(<A, I> + C * k) / (D * k)`` at the rational point ``I / k``.
    """
    pieces = getattr(u, "pieces", None)
    if pieces is None:
        pieces = (u,)
    forms = [p.form.affine_numerators() for p in pieces]
    denom = math.lcm(*[d for d, _, _ in forms])
    table = []
    for d, gradient, constant in forms:
        m = denom // d
        table.append((tuple(g * m for g in gradient), constant * m))
    return table, denom


def pl_lattice_sum(poly: Polytope, phi, k) -> LatticeSum:
    """Count lattice points of ``k * P`` and sum ``phi(I / k)`` exactly.

    The kernel walks the lines of ``k * P`` along the last coordinate and
    visits only its lattice points; the box of ``k * P`` still has to fit
    the cell budget, or :class:`ScaleOverflow` is raised before any work.
    """
    if k <= 0:
        raise NonPositiveScale(f"scale k must be a positive integer, not {shown(k)}")
    lows, highs = _integer_box(poly, k)
    rows = _scaled_constraints(poly, k)
    table, denom = _piece_table(phi)
    count, numerator = lattice_weighted_sum(
        poly.dim, lows, highs, rows, table, k
    )
    return LatticeSum(k=k, count=count, weighted_sum=Fraction(numerator, denom * k))


def ehrhart_residual(poly: Polytope, phi, k) -> Fraction:
    """Lattice sum minus its volume and boundary predictions.

    For a convex piecewise-linear weight ``phi`` (a ``PLFunction``) the
    leading behaviour of the lattice sum is ``k^n`` times the volume
    integral plus ``k^(n-1)/2`` times the boundary integral; the residual
    is what remains and stays bounded by lower-order terms.
    """
    total = pl_lattice_sum(poly, phi, k)
    return total.residual(poly.dim, integrate_pl(phi), boundary_integral(poly, phi))
