"""Polytope specification files.

The on-disk format is JSON with rationals as strings so exact values
survive any toolchain:

    {
      "dim": 2,
      "name": "cp2",
      "halfspaces": [
        {"normal": [-1, 0], "bound": "1"},
        {"normal": [0, -1], "bound": "1"},
        {"normal": [1, 1], "bound": "1"}
      ]
    }

Parsing reports the offending field on malformed input, or the offset
when the text is not JSON; geometric errors from construction propagate
unchanged.  Bounds are written by :func:`errors.exact`, whatever their
length, as centering can make them.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import ParseError, exact, shown
from .geometry import HalfSpace, Polytope, build_polytope


# A spec nests an array in an object in an array in an object, no deeper.
_SPEC_DEPTH = 4
_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


class _LongInteger:
    """A JSON integer with more digits than the interpreter converts.

    Every field that reads an integer refuses it, so the error names the
    field.
    """

    def __init__(self, digits):
        self.digits = digits

    def __repr__(self):
        return f"<integer of {self.digits} digits, too long to read>"


def _parse_int(digits: str):
    try:
        return int(digits)
    except ValueError:  # over the limit of sys.get_int_max_str_digits()
        return _LongInteger(len(digits))


def _too_deep(text: str):
    """Offset of the first array or object nested deeper than a spec nests."""
    depth = 0
    for match in _BRACKET.finditer(text):
        token = match.group()
        if token in "[{":
            depth += 1
            if depth > _SPEC_DEPTH:
                return match.start()
        elif token in "]}":
            depth -= 1
    return None


def parse_spec(text: str) -> Polytope:
    """Parse specification text into a validated polytope."""
    try:
        data = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), where=f"offset {exc.pos}") from exc
    except RecursionError:
        raise ParseError("arrays and objects nested too deeply to decode",
                         where=f"offset {_too_deep(text)}") from None
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")

    dim = data.get("dim")
    # JSON true and false are Python ints; a type check keeps them out.
    if type(dim) is not int or not 1 <= dim <= 3:
        raise ParseError("expected an integer in {1, 2, 3}", where="dim")
    raw = data.get("halfspaces")
    if not isinstance(raw, list) or not raw:
        raise ParseError("expected a non-empty array", where="halfspaces")

    halfspaces = []
    for i, entry in enumerate(raw):
        where = f"halfspaces[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("expected an object", where=where)
        normal = entry.get("normal")
        if (
            not isinstance(normal, list)
            or len(normal) != dim
            or not all(type(c) is int for c in normal)
        ):
            raise ParseError(
                f"expected {dim} integer components, got {shown(normal)}",
                where=f"{where}.normal",
            )
        bound = entry.get("bound")
        if type(bound) not in (int, str):
            raise ParseError(
                f"expected an integer or rational string, got {shown(bound)}",
                where=f"{where}.bound",
            )
        try:
            bound = Fraction(bound)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {shown(bound)}", where=f"{where}.bound") from exc
        halfspaces.append(HalfSpace(tuple(normal), bound))
    return build_polytope(halfspaces)


def emit_spec(poly: Polytope, name=None) -> str:
    """Canonical specification text.

    Every bound is written exactly, however many digits it has.
    :func:`parse_spec` inverts the text exactly while each bound's
    numerator and denominator fit ``sys.get_int_max_str_digits()``; past
    that limit it refuses the bound with a :class:`ParseError` that names
    it, as it refuses any over-long integer it reads.
    """
    data = {
        "dim": poly.dim,
        "halfspaces": [
            {"normal": list(h.normal), "bound": exact(h.bound)}
            for h in poly.halfspaces
        ],
    }
    if name is not None:
        data["name"] = name
    return json.dumps(data, indent=2, sort_keys=True)
