"""Built-in polytopes: the five anticanonical toric Fano surfaces and the
two-parameter symmetric hexagon family of classes on the three-point
blow-up.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidHexagonParams, UnknownName, shown
from .geometry import Polytope, build_polytope, halfspace

CATALOG_NAMES = (
    "cp2",
    "cp1xcp1",
    "cp2_1blowup",
    "cp2_2blowup",
    "cp2_3blowup",
    "hexagon(L,M)",
)

_FIXED = {
    "cp2": [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)],
    "cp1xcp1": [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)],
    "cp2_1blowup": [((-1, -1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)],
    "cp2_2blowup": [
        ((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 1),
    ],
}

_HEX_PATTERN = re.compile(r"^hexagon\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")


def hexagon(first, second) -> Polytope:
    """Hexagon with bound ``first`` on three alternating facets, ``second``
    on the other three.

    The parameters must be positive rationals with each at most twice the
    other; at the boundary of that window the hexagon degenerates to a
    triangle, which is still a valid (and Delzant) polytope.
    """
    lam = Fraction(first)
    mu = Fraction(second)
    if lam <= 0 or mu <= 0:
        raise InvalidHexagonParams("parameters must be positive")
    if 2 * mu < lam or mu > 2 * lam:
        raise InvalidHexagonParams(
            f"need first/2 <= second <= 2*first, got {shown((lam, mu))}"
        )
    rows = [
        ((1, 0), lam), ((0, -1), mu), ((-1, -1), lam),
        ((-1, 0), mu), ((0, 1), lam), ((1, 1), mu),
    ]
    return build_polytope([halfspace(n, b) for n, b in rows])


def catalog(name: str) -> Polytope:
    """Look up a named polytope; hexagons as ``hexagon(L,M)`` with rational
    parameters like ``hexagon(2,3)`` or ``hexagon(7/2,2)``."""
    key = name.strip().lower()
    if key in _FIXED:
        return build_polytope([halfspace(n, b) for n, b in _FIXED[key]])
    if key == "cp2_3blowup":
        return hexagon(1, 1)
    match = _HEX_PATTERN.match(key)
    if match:
        try:
            lam = Fraction(match.group(1))
            mu = Fraction(match.group(2))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidHexagonParams(f"bad hexagon parameters in {shown(name)}") from exc
        return hexagon(lam, mu)
    raise UnknownName(f"no catalog entry {shown(name)}; known: {', '.join(CATALOG_NAMES)}")
