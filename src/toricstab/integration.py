"""Exact integration over polytopes and their boundaries, plus lattice sums.

Integrands of degree <= 2 read moments.  Every region, a polytope from
its triangulation and a facet from its simplices with their lattice
measures, computes once and keeps its integer moments of degree <= 2 over
one denominator (:func:`geometry._simplex_moments`, from the closed-form
simplex moments of Baldoni, Berline, De Loera, Koeppe and Vergne).  An
integrand of degree <= 2 written as integer numerators over one
denominator (an integer form, see :func:`_form_integral`) then integrates
to one integer dot product and one ``Fraction``: a volume integral builds
one per call, a boundary integral one per facet.  Products of affine
functions are built as integer forms too (:func:`_product_form`), never
as ``Polynomial`` products.  Only degrees 3 and 4 expand into barycentric
monomial integrals, simplex by simplex.
Lattice-point work is a bounding-box scan with exact half-space
filtering, guarded by a cell budget so a careless scale cannot wedge the
process.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import _linalg
from .errors import ScaleOverflow
from .geometry import Polytope, _simplex_moments
from .kernels import lattice_weighted_sum

DEFAULT_MAX_DEGREE = 4
DEFAULT_CELL_BUDGET = 10**8


class Polynomial:
    """Sparse polynomial with rational coefficients, keyed by exponent tuples.

    ``terms`` maps exponent tuples of length ``dim`` to nonzero ``Fraction``
    coefficients.  It is treated as immutable: the integer form that
    :meth:`evaluate` and the moment integrals use (one common denominator
    and an integer numerator per term) is cached on first use.  The public
    constructor and classmethods coerce and validate their input; ``+``,
    ``-`` and ``*`` build their results through :meth:`_trusted`, because
    terms combined from valid polynomials are already in that form.
    """

    def __init__(self, dim, terms=None, max_degree=DEFAULT_MAX_DEGREE):
        self.dim = dim
        self.max_degree = max_degree
        clean = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != dim or any(a < 0 for a in alpha):
                raise ValueError(f"bad exponent {alpha} for dimension {dim}")
            if sum(alpha) > max_degree:
                raise ValueError(f"degree {sum(alpha)} exceeds cap {max_degree}")
            coeff = Fraction(coeff)
            if coeff:
                clean[alpha] = clean.get(alpha, Fraction(0)) + coeff
        self.terms = {a: c for a, c in clean.items() if c}

    @classmethod
    def _trusted(cls, dim, terms, max_degree):
        """Wrap ``terms`` already in canonical form, without re-checking it."""
        poly = cls.__new__(cls)
        poly.dim = dim
        poly.max_degree = max_degree
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {tuple([0] * dim): Fraction(value)})

    @classmethod
    def coordinate(cls, dim, j):
        alpha = [0] * dim
        alpha[j] = 1
        return cls(dim, {tuple(alpha): Fraction(1)})

    @classmethod
    def affine(cls, dim, gradient, constant):
        """``<gradient, x> + constant``, built straight into canonical form."""
        if len(gradient) != dim:
            raise ValueError(f"gradient {gradient} does not have dimension {dim}")
        terms = {}
        # The constant's exponent (j = dim) is all zeros; it comes first.
        for j, c in ((dim, constant), *enumerate(gradient)):
            c = Fraction(c)
            if c:
                terms[tuple(int(i == j) for i in range(dim))] = c
        return cls._trusted(dim, terms, DEFAULT_MAX_DEGREE)

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for a, c in other.terms.items():
            terms[a] = terms.get(a, 0) + c
        return Polynomial._trusted(
            self.dim, {a: c for a, c in terms.items() if c},
            max(self.max_degree, other.max_degree),
        )

    def __sub__(self, other):
        return self + (self._coerce(other) * Fraction(-1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = {a: c * other for a, c in self.terms.items()} if other else {}
            return Polynomial._trusted(self.dim, terms, self.max_degree)
        other = self._coerce(other)
        terms = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                terms[key] = terms.get(key, 0) + ca * cb
        max_degree = max(self.max_degree, other.max_degree,
                         max((sum(k) for k in terms), default=0))
        return Polynomial._trusted(
            self.dim, {a: c for a, c in terms.items() if c}, max_degree
        )

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return Polynomial.constant(self.dim, other)

    @functools.cached_property
    def _integer_form(self):
        """``(denominator, terms)``: the integer form of the polynomial.

        ``terms`` maps each exponent, written as the tuple of its
        coordinate indices in increasing order (``x_0^2 x_2`` as
        ``(0, 0, 2)``), to the integer numerator of its coefficient over
        ``denominator``; see :func:`_form_integral`.
        """
        denominator = math.lcm(*[c.denominator for c in self.terms.values()])
        return denominator, {
            tuple(j for j, a in enumerate(alpha) for _ in range(a)):
                c.numerator * (denominator // c.denominator)
            for alpha, c in self.terms.items()
        }

    def _numerator(self, point, q) -> int:
        """Integer ``N`` with ``f(point / q) = N / (denominator * q**degree)``.

        ``point`` holds integers, ``q`` is a positive integer, and
        ``denominator`` is that of :attr:`_integer_form`.
        """
        degree = self.degree()
        powers = [1]
        for _ in range(degree):
            powers.append(powers[-1] * q)
        total = 0
        for indices, numerator in self._integer_form[1].items():
            for j in indices:
                numerator *= point[j]
            total += numerator * powers[degree - len(indices)]
        return total

    def evaluate(self, x) -> Fraction:
        """Exact value at a point of ints and ``Fraction``s.

        The point goes over one common denominator and the sum runs on
        integer numerators; the result is the only ``Fraction`` built.
        """
        q, point = _linalg.over_common_denominator((x,))
        return Fraction(self._numerator(point[0], q),
                        self._integer_form[0] * q**self.degree())

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


@dataclass(frozen=True)
class LatticeSum:
    """Exact lattice sum of a piecewise-linear weight at scale k."""

    k: int
    count: int
    weighted_sum: Fraction


# ---------------------------------------------------------------------------
# simplex and polytope integrals
# ---------------------------------------------------------------------------


def _monomial_over_simplex(verts, alpha, k, measure) -> Fraction:
    """Barycentric formula on a k-simplex of known k-measure.

    Expands ``x^alpha`` with ``x = sum lambda_i v_i`` into barycentric
    monomials and applies
    ``integral of prod lambda^beta = k! * measure * prod(beta!) / (k+|beta|)!``.
    """
    if sum(alpha) == 0:
        return measure
    expansion = {tuple([0] * len(verts)): Fraction(1)}
    for j, power in enumerate(alpha):
        for _ in range(power):
            expansion = _mul_linear(expansion, [v[j] for v in verts])
    kfact = factorial(k)
    total = Fraction(0)
    for beta, coeff in expansion.items():
        weight = Fraction(kfact, factorial(k + sum(beta)))
        for b in beta:
            weight *= factorial(b)
        total += coeff * weight
    return total * measure


def _mul_linear(expansion, coeffs):
    out = {}
    for beta, c in expansion.items():
        for i, vi in enumerate(coeffs):
            if vi == 0:
                continue
            key = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            out[key] = out.get(key, Fraction(0)) + c * vi
    return out


def _poly_over_simplex(verts, poly: Polynomial, k, measure) -> Fraction:
    if measure == 0:
        return Fraction(0)
    if poly.degree() <= 2:
        q, points = _linalg.over_common_denominator(verts)
        moments = _simplex_moments(k, q, 1, [(1, points)])
        return _form_integral(moments, poly._integer_form) * measure
    total = Fraction(0)
    for alpha, coeff in poly.terms.items():
        total += coeff * _monomial_over_simplex(verts, alpha, k, measure)
    return total


def _form_integral(moments, form) -> Fraction:
    """Integral of an integer form over a region with these moments.

    ``form`` is ``(d, terms)``: the integrand is the sum of
    ``c * x^alpha / d`` over ``terms``, which maps each exponent, as the
    tuple of its coordinate indices in increasing order, to an integer
    ``c``.  ``moments`` is ``(D, values)`` as
    :func:`geometry._simplex_moments` gives it, with ``values[alpha] / D``
    the integral of ``x^alpha``; degrees up to 2 are covered.
    """
    denominator, values = moments
    d, terms = form
    return Fraction(sum(c * values[alpha] for alpha, c in terms.items()), d * denominator)


def _affine_form(gradient, constant) -> tuple:
    """The integer form of ``<gradient, x> + constant`` (see :func:`_form_integral`);
    the coefficients are ints or ``Fraction``s."""
    coeffs = [constant, *gradient]
    d = math.lcm(*[c.denominator for c in coeffs])
    numerators = [c.numerator * (d // c.denominator) for c in coeffs]
    terms = {(): numerators[0]}
    for j, c in enumerate(numerators[1:]):
        terms[(j,)] = c
    return d, terms


def _product_form(a, b) -> tuple:
    """The integer form of the product of two integer forms."""
    (da, ta), (db, tb) = a, b
    terms = {}
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            key = tuple(sorted(ka + kb))
            terms[key] = terms.get(key, 0) + ca * cb
    return da * db, terms


def _combination(*pairs) -> tuple:
    """The integer form of ``sum s * f`` over ``(s, f)`` pairs, each ``s``
    an int or ``Fraction`` and each ``f`` an integer form."""
    pairs = [(Fraction(s), f) for s, f in pairs]
    d = math.lcm(*[s.denominator * f[0] for s, f in pairs])
    terms = {}
    for s, (df, tf) in pairs:
        m = s.numerator * (d // (s.denominator * df))
        for key, c in tf.items():
            terms[key] = terms.get(key, 0) + m * c
    return d, terms


def integrate_polynomial(poly: Polytope, f) -> Fraction:
    """Exact integral of a polynomial over the polytope.

    Up to degree 2 it is a dot product with the body's moments (see
    :func:`_form_integral`); degrees 3 and 4 take the barycentric
    expansion simplex by simplex.
    """
    f = _as_polynomial(f, poly.dim)
    if f.degree() <= 2:
        return _form_integral(poly._moments, f._integer_form)
    return sum(
        (_poly_over_simplex(s.vertices, f, poly.dim, s.volume()) for s in poly.triangulation),
        Fraction(0),
    )


def _facet_integral(facet, f: Polynomial, k) -> Fraction:
    """Exact integral over one facet with the lattice measure."""
    if f.degree() <= 2:
        return _form_integral(facet._moments, f._integer_form)
    return sum(
        (_poly_over_simplex(s.vertices, f, k, m)
         for s, m in zip(facet.simplices, facet.simplex_measures)),
        Fraction(0),
    )


def integrate_pl(u) -> Fraction:
    """Exact integral of a piecewise-linear function over its domain."""
    total = Fraction(0)
    for cell in u.cells:
        f = Polynomial.affine(u.domain.dim, cell.piece.gradient, cell.piece.constant)
        total += integrate_polynomial(cell.region, f)
    return total


def boundary_integral(poly: Polytope, f) -> Fraction:
    """Exact integral over the boundary with the lattice measure.

    Polynomials integrate facet by facet.  A piecewise-linear function is
    integrated through its cell subdivision: each cell is a polytope that
    shares its outer facets with ``poly``, so restricting the active piece
    to those facets covers the boundary exactly once.
    """
    if hasattr(f, "cells"):
        return _boundary_integral_pl(poly, f)
    f = _as_polynomial(f, poly.dim)
    return sum((_facet_integral(facet, f, poly.dim - 1) for facet in poly.facets), Fraction(0))


def _boundary_integral_pl(poly: Polytope, u) -> Fraction:
    if u.domain.facet_keys != poly.facet_keys:
        raise ValueError("piecewise-linear function lives on a different polytope")
    outer = poly.facet_keys
    total = Fraction(0)
    for cell in u.cells:
        piece = _affine_form(cell.piece.gradient, cell.piece.constant)
        region = cell.region
        for facet in region.facets:
            if region.halfspaces[facet.halfspace_index].key in outer:
                total += _form_integral(facet._moments, piece)
    return total


def _as_polynomial(f, dim) -> Polynomial:
    if isinstance(f, Polynomial):
        return f
    if hasattr(f, "gradient"):
        return Polynomial.affine(dim, f.gradient, f.constant)
    return Polynomial.constant(dim, f)


# ---------------------------------------------------------------------------
# lattice sums
# ---------------------------------------------------------------------------


def _integer_box(poly: Polytope, k, budget):
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
    if cells > budget:
        raise ScaleOverflow(f"lattice box has {cells} cells, budget {budget}")
    return lows, highs


def _scaled_constraints(poly: Polytope, k):
    """Integer constraint rows: <m, I> <= r encodes <l, I> <= k * bound."""
    rows = []
    for h in poly.halfspaces:
        q = h.bound.denominator
        rows.append((tuple(q * c for c in h.normal), k * h.bound.numerator))
    return rows

def lattice_points(poly: Polytope, k, budget=DEFAULT_CELL_BUDGET) -> list:
    """All integer points of the dilation ``k * P`` (closure)."""
    if k <= 0:
        raise ValueError("scale k must be a positive integer")
    lows, highs = _integer_box(poly, k, budget)
    rows = _scaled_constraints(poly, k)
    points = []
    for point in itertools.product(
        *(range(lo, hi + 1) for lo, hi in zip(lows, highs))
    ):
        if all(_linalg.dot(m, point) <= r for m, r in rows):
            points.append(point)
    return points


def _piece_table(u, dim):
    """Pieces as integer rows over one common denominator.

    Row ``(A, C)`` encodes the affine piece with value
    ``(<A, I> + C * k) / (D * k)`` at the rational point ``I / k``.
    """
    pieces = getattr(u, "pieces", None)
    if pieces is None:
        pieces = (u,)
    denom = 1
    for p in pieces:
        for g in p.gradient:
            denom = math.lcm(denom, Fraction(g).denominator)
        denom = math.lcm(denom, Fraction(p.constant).denominator)
    table = []
    for p in pieces:
        row_a = tuple(int(Fraction(g) * denom) for g in p.gradient)
        row_c = int(Fraction(p.constant) * denom)
        table.append((row_a, row_c))
    return table, denom


def pl_lattice_sum(poly: Polytope, phi, k, budget=DEFAULT_CELL_BUDGET) -> LatticeSum:
    """Count lattice points of ``k * P`` and sum ``phi(I / k)`` exactly."""
    if k <= 0:
        raise ValueError("scale k must be a positive integer")
    lows, highs = _integer_box(poly, k, budget)
    rows = _scaled_constraints(poly, k)
    table, denom = _piece_table(phi, poly.dim)
    count, numerator = lattice_weighted_sum(
        poly.dim, lows, highs, rows, table, k
    )
    return LatticeSum(k=k, count=count, weighted_sum=Fraction(numerator, denom * k))


def ehrhart_residual(poly: Polytope, phi, k, budget=DEFAULT_CELL_BUDGET) -> Fraction:
    """Lattice sum minus its volume and boundary predictions.

    For a convex piecewise-linear weight the leading behaviour of the
    lattice sum is ``k^n`` times the volume integral plus ``k^(n-1)/2``
    times the boundary integral; the residual is what remains and stays
    bounded by lower-order terms.
    """
    total = pl_lattice_sum(poly, phi, k, budget).weighted_sum
    if hasattr(phi, "cells"):
        vol_term = integrate_pl(phi)
        bnd_term = boundary_integral(poly, phi)
    else:
        f = _as_polynomial(phi, poly.dim)
        vol_term = integrate_polynomial(poly, f)
        bnd_term = boundary_integral(poly, f)
    n = poly.dim
    return total - k**n * vol_term - Fraction(k ** (n - 1), 2) * bnd_term
