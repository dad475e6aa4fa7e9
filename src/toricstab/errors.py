"""Exception types raised by the library.

Every failure mode of the geometric and analytic operations gets its own
class so callers (in particular the CLI) can map them to precise messages
and exit codes.
"""

from fractions import Fraction


class ToricStabError(Exception):
    """Base class for all library errors."""


# -- polytope construction ---------------------------------------------------

class Unbounded(ToricStabError):
    """The half-space intersection recedes in some direction."""


class NotSimple(ToricStabError):
    """A vertex lies on more facet hyperplanes than the dimension allows."""


class NonPrimitiveNormal(ToricStabError):
    """A facet normal is zero or its integer components share a factor."""


class Degenerate(ToricStabError):
    """The half-space intersection is empty or not full-dimensional."""


class OriginNotInterior(ToricStabError):
    """An operation requiring the origin strictly inside the polytope."""


# -- integration and lattice scans ------------------------------------------

class ScaleOverflow(ToricStabError):
    """A lattice scan would exceed the cell budget."""


class NonPositiveScale(ToricStabError, ValueError):
    """A lattice scale ``k`` is not a positive integer."""


# -- piecewise-linear functions ----------------------------------------------

class EmptyPieceList(ToricStabError):
    """A piecewise-linear function needs at least one affine piece."""


class OutsideDomain(ToricStabError):
    """Evaluation point lies outside the closed domain polytope."""


# -- invariants ---------------------------------------------------------------

class SingularMoment(ToricStabError):
    """Second-moment matrix was singular; impossible for a valid polytope."""


class WrongFamily(ToricStabError):
    """A family-specific condition was requested on a non-member polytope."""


# -- scanning -----------------------------------------------------------------

class NoInteriorCrease(ToricStabError):
    """The scan grid produced no crease meeting the polytope interior."""


class UnsupportedDimension(ToricStabError, ValueError):
    """A body of a dimension the operation does not handle: the crease
    scan takes polygons only, and polytopes have dimension 1 to 3."""


# -- input handling ------------------------------------------------------------

class UnknownName(ToricStabError):
    """No catalog entry under the requested name."""


class InvalidHexagonParams(ToricStabError):
    """Hexagon family parameters outside the admissible range."""


def shown(value) -> str:
    """``repr(value)`` for an error message, cut after 60 characters and
    then followed by its full length, so no input is echoed whole.  A
    ``Fraction`` shows as ``3/2`` and a tuple of them as ``(-1, 3/2)``."""
    if isinstance(value, tuple):
        text = f"({', '.join(map(str, value))}{',' * (len(value) == 1)})"
    else:
        text = str(value) if isinstance(value, Fraction) else repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


class ParseError(ToricStabError):
    """Malformed specification text or expression.

    Carries a human-readable location (field path or character position)
    in ``where`` when one is available.
    """

    def __init__(self, message, where=None):
        self.where = where
        if where is not None:
            message = f"{where}: {message}"
        super().__init__(message)
