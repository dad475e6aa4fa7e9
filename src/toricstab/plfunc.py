"""Convex piecewise-linear functions on a polytope.

A function is the maximum of finitely many affine pieces with rational
data.  Construction computes the cell subdivision of the domain on which
each piece is the active maximizer; pieces that never win on a
full-dimensional cell are dropped, duplicates are merged, so affineness
is a plain cell-count test afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg, geometry
from .errors import EmptyPieceList, OutsideDomain
from .geometry import HalfSpace, Polytope


@dataclass(frozen=True)
class AffineFunction:
    """The affine map ``x -> <gradient, x> + constant``."""

    gradient: tuple
    constant: Fraction

    def evaluate(self, x) -> Fraction:
        # The gradient and the point each over one denominator, so the
        # value is one Fraction.
        g, (grad,) = _linalg.over_common_denominator((self.gradient,))
        q, (p,) = _linalg.over_common_denominator((x,))
        num, den = self.constant.numerator, self.constant.denominator
        return Fraction(_linalg.dot(grad, p) * den + num * g * q, g * q * den)

    def __sub__(self, other: "AffineFunction") -> "AffineFunction":
        return AffineFunction(
            tuple(a - b for a, b in zip(self.gradient, other.gradient)),
            self.constant - other.constant,
        )

    def __neg__(self) -> "AffineFunction":
        return AffineFunction(tuple(-a for a in self.gradient), -self.constant)


def affine(gradient, constant=0) -> AffineFunction:
    """Constructor coercing plain numbers and rational strings."""
    return AffineFunction(
        tuple(Fraction(g) for g in gradient), Fraction(constant)
    )


def zero_function(dim) -> AffineFunction:
    return AffineFunction(tuple(Fraction(0) for _ in range(dim)), Fraction(0))


@dataclass(frozen=True)
class Cell:
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
            raise OutsideDomain(f"{x} is outside the domain closure")
        return max(p.evaluate(x) for p in self.pieces)

    def active_pieces(self, x):
        """Pieces attaining the maximum at a point of the closed domain."""
        x = tuple(Fraction(c) for c in x)
        values = [p.evaluate(x) for p in self.pieces]
        top = max(values)
        return [p for p, v in zip(self.pieces, values) if v == top]

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
            diff = p - q  # keep where diff >= 0
            if all(g == 0 for g in diff.gradient):
                if diff.constant < 0:
                    emptied = True
                    break
                continue
            prim, s = _linalg.primitivize(diff.gradient)
            # <grad, x> + c >= 0  <=>  <-prim, x> <= s * c
            constraints.append(
                HalfSpace(tuple(-c for c in prim), s * diff.constant)
            )
        if emptied:
            continue
        region = geometry.intersect(domain, constraints)
        if region is not None:
            kept.append(p)
            cells.append(Cell(p, region))
    return PLFunction(kept, domain, cells)


@dataclass(frozen=True)
class SimplePL:
    """``max(0, crease)``: one affine piece against zero."""

    crease: AffineFunction

    def as_pl(self, domain: Polytope) -> PLFunction:
        return make_pl([zero_function(domain.dim), self.crease], domain)


def is_affine(u: PLFunction) -> bool:
    """True when a single piece covers the whole domain."""
    return len(u.cells) == 1
