"""The integer kernels against the general-purpose path and a brute-force scan."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from toricstab import (
    boundary_integral, build_polytope, catalog, halfspace, integration, kernels,
    linear_functional_L,
)
from toricstab import invariants
from toricstab.destabilizer import _kernel_data
from toricstab.errors import ScaleOverflow
from toricstab.plfunc import AffineFunction, SimplePL

from helpers import pack, random_polygon


def brute_weighted_sum(dim, lows, highs, rows, table, k):
    """Oracle: visit every cell of the box, test every row, take every max."""
    count = 0
    total = 0
    ranges = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
    for point in itertools.product(*ranges):
        if any(sum(m * p for m, p in zip(normal, point)) > rhs for normal, rhs in rows):
            continue
        count += 1
        if table:
            total += max(sum(a * p for a, p in zip(a_row, point)) + c * k
                         for a_row, c in table)
    return count, total


def brute_lattice_sum(poly, phi, k):
    """Oracle: ``phi(I / k)`` summed in Fraction arithmetic over the box."""
    lows, highs = integration._integer_box(poly, k, 10**8)
    total = Fraction(0)
    count = 0
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if all(h.value(point) <= k * h.bound for h in poly.halfspaces):
            count += 1
            total += phi.evaluate(tuple(Fraction(c, k) for c in point))
    return count, total


def random_case(rng):
    dim = rng.randint(1, 3)
    lows = [rng.randint(-4, 2) for _ in range(dim)]
    highs = [lo + rng.randint(-1, 5) for lo in lows]
    rows = []
    for _ in range(rng.randint(0, 5)):
        normal = [rng.randint(-3, 3) for _ in range(dim)]
        if rng.random() < 0.3:
            normal[-1] = 0
        rows.append((tuple(normal), rng.randint(-6, 8)))
    table = []
    for _ in range(rng.randint(0, 5)):
        if table and rng.random() < 0.3:
            a_row, c = rng.choice(table)
            # A duplicate piece, or a parallel one along the last coordinate.
            table.append((a_row, c if rng.random() < 0.5 else c + rng.randint(-2, 2)))
        else:
            table.append((tuple(rng.randint(-5, 5) for _ in range(dim)),
                          rng.randint(-5, 5)))
    return dim, lows, highs, rows, table, rng.randint(1, 4)


class TestLatticeWeightedSum:
    def test_random_cases_match_brute_force(self):
        rng = random.Random(2024)
        for _ in range(1500):
            case = random_case(rng)
            assert kernels.lattice_weighted_sum(*case) == brute_weighted_sum(*case), case

    def test_degenerate_tables_and_lines(self):
        lows, highs = [-3, -3], [4, 4]
        # x <= 1, x + y <= 2 and x >= -2; the rows with a zero last
        # coefficient empty the lines x = -3 and x = 2..4.
        rows = [((1, 0), 1), ((1, 1), 2), ((-1, 0), 2)]
        tables = [
            [],
            [((1, 2), 3), ((1, 2), 3)],             # duplicates
            [((1, 2), 3), ((1, 2), -1), ((4, 2), 0)],  # parallel in y
            [((0, 5), 0), ((0, -5), 0), ((0, 0), 1)],  # a tie point of slopes +-5
            [((2, -1), 1), ((0, 0), 0), ((-1, 3), 2), ((1, 1), -4)],
        ]
        for table in tables:
            got = kernels.lattice_weighted_sum(2, lows, highs, rows, table, 3)
            assert got == brute_weighted_sum(2, lows, highs, rows, table, 3)
        # A zero-last row that no line satisfies empties the box.
        empty = rows + [((1, 0), -4)]
        assert kernels.lattice_weighted_sum(2, lows, highs, empty, tables[1], 3) == (0, 0)

    def test_huge_coefficients_stay_exact(self):
        big = 10**30
        lows, highs = [-3, -3], [3, 3]
        rows = [((1, 0), 3), ((-1, 0), 3), ((0, 1), 3), ((0, -1), 3)]
        table = [((big, -big), big), ((0, 0), 0)]
        got = kernels.lattice_weighted_sum(2, lows, highs, rows, table, 2)
        assert got == brute_weighted_sum(2, lows, highs, rows, table, 2)
        assert got[0] == 49

    @pytest.mark.parametrize("name", ["cp2", "cp2_2blowup"])
    def test_catalog_boxes(self, name):
        poly = catalog(name)
        lows, highs = integration._integer_box(poly, 17, 10**8)
        rows = integration._scaled_constraints(poly, 17)
        table = [((3, -2), 5), ((-1, 4), 0), ((0, 0), -7)]
        got = kernels.lattice_weighted_sum(2, lows, highs, rows, table, 17)
        assert got == brute_weighted_sum(2, lows, highs, rows, table, 17)

    def test_over_budget_box_raises(self):
        from toricstab import make_pl
        from toricstab.plfunc import affine

        poly = catalog("cp2")
        phi = make_pl([affine((0, 0), 1)], poly)
        with pytest.raises(ScaleOverflow):
            integration.pl_lattice_sum(poly, phi, 10**6, budget=10**4)


class TestPureKernel:
    def test_boundary_and_functional_match_reference(self):
        # The kernel value of L and the boundary integral must equal the
        # slow general-purpose path for assorted creases.
        rng = random.Random(7)
        poly = catalog("cp2_2blowup")
        ext = invariants.extremal_field(poly)
        vxs, vys, vden, edges, wlin, wden = _kernel_data(poly, ext)
        for _ in range(25):
            crease = AffineFunction(
                (
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                ),
                Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
            )
            if all(g == 0 for g in crease.gradient):
                continue
            (ln, ld, bn, bd), = kernels.simple_pl_values(
                vxs, vys, vden, edges, wlin, wden, [pack(crease)]
            )
            u = SimplePL(crease).as_pl(poly)
            assert Fraction(ln, ld) == linear_functional_L(poly, u, ext)
            assert Fraction(bn, bd) == boundary_integral(poly, u)

    def test_lattice_sum_against_library(self):
        from toricstab.plfunc import affine, zero_function
        from toricstab import make_pl, pl_lattice_sum

        poly = catalog("cp2")
        phi = make_pl(
            [zero_function(2), affine((1, 0), 0), affine((Fraction(1, 2), 1), Fraction(-1, 3))],
            poly,
        )
        for k in (1, 4, 9):
            out = pl_lattice_sum(poly, phi, k)
            assert (out.count, out.weighted_sum) == brute_lattice_sum(poly, phi, k)


def line_through(p, q):
    """``g`` with ``g(p) = g(q) = 0``, positive on the left of ``p -> q``."""
    n = (p[1] - q[1], q[0] - p[0])
    return AffineFunction(n, -(n[0] * p[0] + n[1] * p[1]))


def special_creases(poly):
    """Creases through the vertices, along edges, touching and missing.

    Yields ``(label, crease, misses)`` where ``misses`` says that
    ``u = max(0, crease)`` vanishes on the whole polygon.
    """
    cycle = [poly.vertices[i] for i in poly.ccw_cycle]
    m = len(cycle)
    centroid = tuple(sum(p[j] for p in cycle) / m for j in range(2))
    for k in range(m):
        v, prev, nxt = cycle[k], cycle[k - 1], cycle[(k + 1) % m]
        # Through the vertex and the interior point, both orientations.
        through = line_through(v, centroid)
        yield f"vertex {k}", through, False
        yield f"vertex {k} reversed", -through, False
        # Along the edge k -> k+1: left is the inside, so the crease is
        # >= 0 on P; reversed it is <= 0 and u vanishes.
        edge = line_through(v, nxt)
        yield f"edge {k}", edge, False
        yield f"edge {k} reversed", -edge, True
        # The sum of the two edge normals at v is strictly inside the
        # normal cone: <n, x - v> is 0 at v alone and negative elsewhere.
        n = tuple((-line_through(prev, v).gradient[j]) - line_through(v, nxt).gradient[j]
                  for j in range(2))
        outside = AffineFunction(n, -(n[0] * v[0] + n[1] * v[1]))
        yield f"touch {k}", outside, True
        yield f"touch {k} reversed", -outside, False
        yield f"miss {k}", AffineFunction(n, outside.constant - 1), True
        yield f"cover {k}", -AffineFunction(n, outside.constant - 1), False
    if m >= 4:
        diagonal = line_through(cycle[0], cycle[2])
        yield "diagonal", diagonal, False
        yield "diagonal reversed", -diagonal, False


class TestCreaseEdgeCases:
    """``simple_pl_values`` against ``linear_functional_L`` and
    ``boundary_integral`` where the crease meets the polygon's corners."""

    @staticmethod
    def check(poly, ext, crease, misses=None, label=""):
        rows = kernels.simple_pl_values(
            *_kernel_data(poly, ext),
            [tuple(k * c for c in pack(crease)) for k in (1, 2, 3, 7)],
        )
        # Multiples of a candidate give identical rows.
        assert rows == [rows[0]] * 4, label
        ln, ld, bn, bd = rows[0]
        assert ld > 0 and bd > 0, label
        assert math.gcd(ln, ld) == 1 and math.gcd(bn, bd) == 1, label
        u = SimplePL(crease).as_pl(poly)
        assert Fraction(ln, ld) == linear_functional_L(poly, u, ext), label
        assert Fraction(bn, bd) == boundary_integral(poly, u), label
        if misses is not None:
            assert (bn == 0) == misses, label
            if misses:
                assert rows[0] == (0, 1, 0, 1), label

    @pytest.mark.parametrize("den", [1, 3])
    def test_random_polygons(self, den):
        rng = random.Random(41 + den)
        for _ in range(4):
            poly = random_polygon(rng, den)
            ext = invariants.extremal_field(poly)
            assert den == 1 or _kernel_data(poly, ext)[2] > 1
            for _ in range(4):
                crease = AffineFunction(
                    (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                     Fraction(rng.randint(-6, 6), rng.randint(1, 4))),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                )
                if crease.gradient != (0, 0):
                    self.check(poly, ext, crease)

    @pytest.mark.parametrize("den", [1, 2])
    def test_vertices_edges_touching_and_missing(self, den):
        rng = random.Random(7 * den)
        # Edge lengths 3/4 and 5/6: their lcm 12 is not their maximum.
        rectangle = build_polytope([
            halfspace((-1, 0), Fraction(1, 4)), halfspace((1, 0), Fraction(1, 2)),
            halfspace((0, -1), Fraction(1, 3)), halfspace((0, 1), Fraction(1, 2)),
        ])
        assert {f.measure for f in rectangle.facets} == {Fraction(3, 4), Fraction(5, 6)}
        polys = [catalog("cp2_2blowup"), catalog("hexagon(2,3)"), rectangle]
        polys += [random_polygon(rng, den) for _ in range(2)]
        for poly in polys:
            ext = invariants.extremal_field(poly)
            for label, crease, misses in special_creases(poly):
                self.check(poly, ext, crease, misses, label)


class TestFanCases:
    """``simple_pl_values`` fans the region ``{g >= 0}`` from its first
    polygon vertex; every way the crease can meet the polygon's vertices
    must give the reference values."""

    @staticmethod
    def creases(rng, poly):
        """Seeded creases through a vertex or a random point, with small
        integer normals."""
        for _ in range(40):
            normal = (rng.randint(-4, 4), rng.randint(-4, 4))
            if normal == (0, 0):
                continue
            if rng.random() < 0.4:
                point = rng.choice(poly.vertices)
            else:
                point = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2))
            yield AffineFunction(normal, -(normal[0] * point[0] + normal[1] * point[1]))

    def test_every_case_matches_reference(self):
        rng = random.Random(17)
        seen = set()
        for den in (1, 1, 1, 2, 3, 5):
            for _ in range(2):
                poly = random_polygon(rng, den)
                ext = invariants.extremal_field(poly)
                args = _kernel_data(poly, ext)
                vxs, vys, vden = args[:3]
                creases = list(self.creases(rng, poly))
                rows = kernels.simple_pl_values(*args, [pack(c) for c in creases])
                for crease, (ln, ld, bn, bd) in zip(creases, rows):
                    (g1, g2), g0 = crease.gradient, crease.constant
                    ghat = [g1 * x + g2 * y + g0 * vden for x, y in zip(vxs, vys)]
                    positive = sum(g > 0 for g in ghat)
                    if positive:
                        seen.add((min(positive, 3), ghat[0] < 0, 0 in ghat))
                    u = SimplePL(crease).as_pl(poly)
                    assert Fraction(ln, ld) == linear_functional_L(poly, u, ext), crease
                    assert Fraction(bn, bd) == boundary_integral(poly, u), crease
        # One, two or more vertices above the crease; the first ccw vertex
        # below it or not; a vertex on it or none: each combination occurs.
        assert seen == set(itertools.product((1, 2, 3), (False, True), (False, True)))
