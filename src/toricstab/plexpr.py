"""Tiny expression grammar for convex piecewise-linear functions.

Accepted forms::

    max(expr, expr, ...)
    expr

where ``expr`` is an affine combination of rational literals and
coordinates, e.g. ``1/2 + 2*x1 - 3/4*x2`` or ``-x1``.  Rational literals
only; this intentionally stops far short of a general parser.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, shown
from .plfunc import AffineFunction

_VAR = re.compile(r"^x([1-9][0-9]*)$")
_NUM = re.compile(r"^[0-9]+(/[0-9]+)?$")


def parse_pl_expression(text: str, dim: int):
    """Parse into a list of AffineFunction pieces (one for a bare affine);
    an error inside ``max`` is placed at its argument, counted from 1."""
    s = text.strip()
    if not s:
        raise ParseError("empty expression")
    if s.startswith("max"):
        body = s[3:].strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise ParseError("expected parentheses after max")
        parts = body[1:-1].split(",")
        return [_parse_affine(p, dim, f"max argument {i}") for i, p in enumerate(parts, 1)]
    return [_parse_affine(s, dim, None)]


def _parse_affine(expr: str, dim: int, where) -> AffineFunction:
    gradient = [Fraction(0)] * dim
    constant = Fraction(0)
    # Normalize signs into explicit +/- separators.
    cleaned = expr.replace("-", "+-").replace(" ", "")
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    if not cleaned:
        raise ParseError("empty affine expression", where=where)
    for term in cleaned.split("+"):
        if not term:
            raise ParseError("dangling sign", where=where)
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:]
        try:
            coeff, var = _split_term(term, where)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in term {shown(term)}", where=where) from None
        except ValueError:  # over the limit of sys.get_int_max_str_digits()
            raise ParseError(f"too many digits in term {shown(term)}", where=where) from None
        if var is None:
            constant += sign * coeff
        else:
            if not 1 <= var <= dim:
                raise ParseError(f"coordinate out of range for dimension {dim} in term "
                                 f"{shown(term)}", where=where)
            gradient[var - 1] += sign * coeff
    return AffineFunction(tuple(gradient), constant)


def _split_term(term: str, where):
    """Return (coefficient, variable index or None) for one product term."""
    if "*" in term:
        left, _, right = term.partition("*")
        num, var = (left, right) if _VAR.match(right or "") else (right, left)
        m = _VAR.match(var or "")
        if not m or not _NUM.match(num or ""):
            raise ParseError(f"bad term {shown(term)}", where=where)
        return Fraction(num), int(m.group(1))
    m = _VAR.match(term)
    if m:
        return Fraction(1), int(m.group(1))
    if _NUM.match(term):
        return Fraction(term), None
    raise ParseError(f"bad term {shown(term)}", where=where)
