"""Shared fixtures: the catalog polytopes and small test helpers."""

import math
from fractions import Fraction

import pytest

from toricstab import _linalg, build_polytope, catalog, halfspace


@pytest.fixture(scope="session")
def cp2():
    return catalog("cp2")


@pytest.fixture(scope="session")
def square():
    return catalog("cp1xcp1")


@pytest.fixture(scope="session")
def blowup1():
    return catalog("cp2_1blowup")


@pytest.fixture(scope="session")
def pentagon():
    return catalog("cp2_2blowup")


@pytest.fixture(scope="session")
def hexagon11():
    return catalog("cp2_3blowup")


@pytest.fixture(scope="session")
def hexagon23():
    return catalog("hexagon(2,3)")


def shoelace(points):
    """Independent polygon area oracle from a CCW vertex cycle."""
    total = Fraction(0)
    m = len(points)
    for i in range(m):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % m]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def hull_polygon(points, den=1):
    """Polygon of the convex hull of integer points, divided by ``den``
    (monotone chain); ``den > 1`` gives rational vertices."""
    pts = sorted(set(points))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    cycle = chain(pts) + chain(pts[::-1])
    rows = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        normal, _ = _linalg.primitivize((b[1] - a[1], a[0] - b[0]))
        rows.append(halfspace(normal, Fraction(_linalg.dot(normal, a), den)))
    return build_polytope(rows, require_simple=False)


def random_polygon(rng, den=1, radius=4, most=7):
    """Seeded hull of 3 to ``most`` integer points in ``[-radius, radius]^2``,
    divided by ``den``."""
    while True:
        pts = [(rng.randint(-radius, radius), rng.randint(-radius, radius))
               for _ in range(rng.randint(3, most))]
        if _linalg.affine_rank(pts) == 2:
            return hull_polygon(pts, den)


def pack(crease):
    """The kernels' integer tuple ``(g0, g1, g2, gden)`` of an affine
    crease on the plane, in lowest terms."""
    (g1, g2), g0 = crease.gradient, crease.constant
    den = math.lcm(g0.denominator, g1.denominator, g2.denominator)
    return (int(g0 * den), int(g1 * den), int(g2 * den), den)
