"""Exception types raised by the library, and the one writer of exact numbers.

Every failure mode of the geometric and analytic operations gets its own
class so callers (in particular the CLI) can map them to precise messages
and exit codes.  :func:`exact` writes every int and ``Fraction`` that the
library turns into text, and :func:`shown` cuts it for error messages.
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


def exact(value) -> str:
    """The text ``str`` gives an int or a ``Fraction`` (``-3/2``) and a
    tuple of them (``(-1, 3/2)``), whatever their number of digits;
    anything else as ``repr`` writes it.  CPython writes no integer of more
    digits than ``sys.get_int_max_str_digits()``, a limit the input parsers
    rely on, so past it an integer is split at about half its digits by a
    power of ten and the halves are written in turn."""
    if isinstance(value, tuple):
        return f"({', '.join(map(exact, value))}{',' * (len(value) == 1)})"
    if isinstance(value, Fraction):
        if value.denominator != 1:
            return f"{exact(value.numerator)}/{exact(value.denominator)}"
        value = value.numerator
    try:
        return repr(value)
    except ValueError:
        pass
    if value < 0:
        return "-" + exact(-value)
    k = value.bit_length() * 3 // 20  # log10(2) / 2 is about 0.15
    high, low = divmod(value, 10**k)
    return exact(high) + exact(low).zfill(k)


def shown(value) -> str:
    """:func:`exact` for an error message, cut after 60 characters and then
    followed by its full length, so no input is echoed whole."""
    text = exact(value)
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
