"""Convex piecewise-linear functions on a polytope.

A function is the maximum of finitely many affine pieces with rational
data.  Each piece carries its integer form, the degree-1
:class:`~toricstab.integration.Polynomial` that every integral, lattice
sum and evaluation reads, built once per piece.  Construction computes
the cell subdivision of the domain on which each piece is the active
maximizer, cutting by the integer differences of those forms; pieces
that never win on a full-dimensional cell are dropped, duplicates are
merged, so affineness is a plain cell-count test afterwards.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import geometry
from .errors import EmptyPieceList, OutsideDomain, shown
from .geometry import HalfSpace, Polytope, Record
from .integration import Polynomial


class AffineFunction(Record):
    """The affine map ``x -> <gradient, x> + constant``.

    The coefficients are ints or ``Fraction``s.  :attr:`form` is the map
    as an integer :class:`Polynomial`, built on first use and kept; the
    integrals, the cuts of :func:`make_pl` and :meth:`evaluate` all read it.
    Instances are immutable by convention, as polytopes are.
    """

    _fields = ("gradient", "constant")

    def __init__(self, gradient: tuple, constant: Fraction):
        self.gradient = gradient
        self.constant = constant

    @functools.cached_property
    def form(self) -> Polynomial:
        return Polynomial.affine(len(self.gradient), self.gradient, self.constant)

    def evaluate(self, x) -> Fraction:
        return self.form.evaluate(x)

    def __neg__(self) -> "AffineFunction":
        return AffineFunction(tuple(-a for a in self.gradient), -self.constant)


def affine(gradient, constant=0) -> AffineFunction:
    """Constructor coercing plain numbers and rational strings."""
    return AffineFunction(
        tuple(Fraction(g) for g in gradient), Fraction(constant)
    )


def zero_function(dim) -> AffineFunction:
    return AffineFunction(tuple(Fraction(0) for _ in range(dim)), Fraction(0))


class Cell(NamedTuple):
    """A maximal region where a single piece is the maximizer."""

    piece: AffineFunction
    region: Polytope


class PLFunction:
    """Maximum of affine pieces together with its cell subdivision."""

    def __init__(self, pieces, domain, cells):
        self.pieces = tuple(pieces)
        self.domain = domain
        self.cells = tuple(cells)

    def evaluate(self, x) -> Fraction:
        x = tuple(Fraction(c) for c in x)
        if not self.domain.contains(x):
            raise OutsideDomain(f"{shown(x)} is outside the domain closure")
        return max(p.evaluate(x) for p in self.pieces)

    def __repr__(self):
        return f"PLFunction(pieces={len(self.pieces)}, cells={len(self.cells)})"


def make_pl(pieces, domain: Polytope) -> PLFunction:
    """Build the maximum of affine pieces over a polytope.

    Duplicate pieces are merged up front.  The cell of piece ``p`` is the
    subset where ``p >= q`` for every other piece ``q``; only pieces with a
    full-dimensional cell are retained, so the surviving cells tile the
    domain with disjoint interiors.
    """
    pieces = [
        p if isinstance(p, AffineFunction) else affine(*p) for p in pieces
    ]
    if not pieces:
        raise EmptyPieceList("need at least one affine piece")
    unique = []
    seen = set()
    for p in pieces:
        key = (p.gradient, p.constant)
        if key not in seen:
            seen.add(key)
            unique.append(p)

    kept = []
    cells = []
    for i, p in enumerate(unique):
        constraints = []
        emptied = False
        for j, q in enumerate(unique):
            if i == j:
                continue
            # Keep where p - q >= 0, that is <G, x> + C >= 0 for the
            # integer numerators of the difference over its denominator.
            _, grad, const = (p.form - q.form).affine_numerators()
            g = gcd(*grad)
            if g == 0:
                if const < 0:
                    emptied = True
                    break
                continue
            constraints.append(HalfSpace(tuple(-c // g for c in grad), Fraction(const, g)))
        if emptied:
            continue
        region = geometry.intersect(domain, constraints)
        if region is not None:
            kept.append(p)
            cells.append(Cell(p, region))
    return PLFunction(kept, domain, cells)


class SimplePL(NamedTuple):
    """``max(0, crease)``: one affine piece against zero."""

    crease: AffineFunction

    def as_pl(self, domain: Polytope) -> PLFunction:
        return make_pl([zero_function(domain.dim), self.crease], domain)


def is_affine(u: PLFunction) -> bool:
    """True when a single piece covers the whole domain."""
    return len(u.cells) == 1
