"""Curvature averages, extremal data, the functional, and the conditions."""

import functools
import random
from fractions import Fraction

import pytest

from toricstab import (
    Polynomial,
    boundary_integral,
    catalog,
    check_condition,
    hexagon,
    integrate_polynomial,
    linear_functional_L,
    linear_functional_L_cone,
    make_pl,
    relative_futaki,
    scan,
    translate,
)
from hypothesis import given, settings, strategies as st

from toricstab import build_polytope, geometry, halfspace, integration, invariants, report
from toricstab.catalog import CATALOG_NAMES
from toricstab.cli import main
from toricstab.destabilizer import ScanConfig
from toricstab.errors import OriginNotInterior, WrongFamily
from toricstab.geometry import intersect
from toricstab.plfunc import AffineFunction, affine, zero_function
from toricstab.reproduce import random_affine, random_convex_pl

from helpers import (DegenerateSimplex, active_pieces, contains_interior, prism,
                     push_forward, random_polygon, reference_extremal, simplex_halfspaces,
                     unimodular)


def F(a, b=1):
    return Fraction(a, b)


def crease_x1(poly):
    return make_pl([zero_function(2), affine((1, 0), 0)], poly)


def tri_quadratic_integral(f, tri):
    """Oracle: edge-midpoint rule, exact for polynomials of degree two."""
    (x1, y1), (x2, y2), (x3, y3) = tri
    area = abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) / 2
    mids = (
        ((x1 + x2) / 2, (y1 + y2) / 2),
        ((x1 + x3) / 2, (y1 + y3) / 2),
        ((x2 + x3) / 2, (y2 + y3) / 2),
    )
    return area / 3 * sum(f(m) for m in mids)


BLOWUP1_FAN = (
    ((F(0), F(-1)), (F(2), F(-1)), (F(-1), F(2))),
    ((F(0), F(-1)), (F(-1), F(2)), (F(-1), F(0))),
)


class TestCurvatureAverage:
    def test_fano_surfaces(self):
        for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup"):
            assert invariants.average_scalar_curvature(catalog(name)) == 2

    def test_hexagon_closed_form(self):
        for lam, mu in ((1, 1), (2, 3), (3, 2), (5, 4), (F(7, 2), 2)):
            poly = hexagon(lam, mu)
            expected = F(2) * (mu + lam) / (4 * lam * mu - mu**2 - lam**2)
            assert invariants.average_scalar_curvature(poly) == expected

    def test_degenerate_hexagon_boundary_params(self):
        # At the edge of the window the hexagon collapses to a triangle but
        # the closed form still matches.
        poly = hexagon(1, 2)
        assert len(poly.facets) == 3
        assert invariants.average_scalar_curvature(poly) == 2


class TestCenteringAndFutaki:
    def test_square_symmetric(self, square):
        assert invariants.centering_constants(square) == (0, 0)
        assert invariants.futaki_vector(square) == (0, 0)

    def test_pentagon(self, pentagon):
        assert invariants.centering_constants(pentagon) == (F(2, 21), F(2, 21))
        assert invariants.futaki_vector(pentagon) == (F(-1, 3), F(-1, 3))

    def test_blowup1(self, blowup1):
        assert invariants.centering_constants(blowup1) == (F(-1, 12), F(-1, 12))

    def test_hexagon_vanishes(self):
        for lam, mu in ((1, 1), (2, 3), (3, 2)):
            assert invariants.futaki_vector(hexagon(lam, mu)) == (0, 0)

    def test_centered_coordinates_integrate_to_zero(self, pentagon, blowup1):
        for poly in (pentagon, blowup1):
            c = invariants.centering_constants(poly)
            for j in range(2):
                f = Polynomial.affine(
                    2, [1 if i == j else 0 for i in range(2)], c[j]
                )
                assert integrate_polynomial(poly, f) == 0


class TestExtremalField:
    def test_pentagon_exact_coefficients(self, pentagon):
        ext = invariants.extremal_field(pentagon)
        assert ext.a == (F(-168, 409), F(-168, 409))

    def test_hexagon_trivial(self, hexagon23):
        ext = invariants.extremal_field(hexagon23)
        assert ext.a == (0, 0)
        assert ext.theta.gradient == (0, 0)
        assert ext.theta.constant == 0
        assert ext.norm == 0

    def test_blowup1_against_frozen_oracle(self, blowup1):
        # Oracle 1: moments frozen from iterated integrals.
        # Oracle 2: midpoint quadrature over an independent fan.
        def moment(f):
            return sum(tri_quadratic_integral(f, tri) for tri in BLOWUP1_FAN)

        assert moment(lambda p: F(1)) == 4
        assert moment(lambda p: p[0]) == F(1, 3)
        assert moment(lambda p: p[0] * p[0]) == 2
        assert moment(lambda p: p[0] * p[1]) == F(-4, 3)

        c = F(-1, 12)
        m_diag = moment(lambda p: (p[0] + c) ** 2)
        m_off = moment(lambda p: (p[0] + c) * (p[1] + c))
        assert (m_diag, m_off) == (F(71, 36), F(-49, 36))
        b = F(1, 3)
        # Solve the symmetric 2x2 system by hand: (m_diag + m_off) a = b.
        expected = b / (m_diag + m_off)
        assert expected == F(6, 11)

        ext = invariants.extremal_field(blowup1)
        assert ext.a == (expected, expected)

    def test_scan_and_its_report_share_one_solve(self, monkeypatch, capsys):
        # The solve is kept on the polytope, so the report built after a
        # scan reads the scan's: one second-moment solve per polytope, in
        # the library and in the CLI's scan command.
        solved = []
        moments = invariants._moment_system

        def counted(poly):
            solved.append(poly)
            return moments(poly)

        monkeypatch.setattr(invariants, "_moment_system", counted)
        poly = catalog("cp2_2blowup")
        result = scan(poly, invariants.extremal_field(poly), ScanConfig(24, 8, 1))
        report.build_report(poly, scan_result=result)
        assert solved == [poly]
        assert main(["scan", "--catalog", "hexagon(2,3)"]) == 0
        capsys.readouterr()
        assert len(solved) == 2

    def test_moment_matrix_positive_definite(self):
        for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup"):
            poly = catalog(name)
            mat = invariants.second_moment_matrix(poly)
            assert mat[0][0] > 0
            assert mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] > 0

    def test_theta_integrates_to_zero(self, pentagon, blowup1):
        for poly in (pentagon, blowup1):
            ext = invariants.extremal_field(poly)
            f = Polynomial.affine(2, ext.theta.gradient, ext.theta.constant)
            assert integrate_polynomial(poly, f) == 0
            assert ext.theta_min <= 0 <= ext.theta_max


def _extremal_bodies(rng):
    """The catalog with three hexagons, seeded rational polygons, 1-D
    intervals, and seeded 3-D boxes and simplices."""
    bodies = [catalog(name) for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup",
                                         "cp2_3blowup", "hexagon(2,3)")]
    bodies += [hexagon(1, 2), hexagon(3, 4), hexagon(F(7, 2), 2)]
    bodies += [random_polygon(rng, den=rng.choice((1, 2, 3, 7))) for _ in range(12)]
    for _ in range(4):
        lo = F(rng.randint(-9, 3), rng.randint(1, 4))
        bodies.append(build_polytope([halfspace((1,), lo + F(rng.randint(1, 9), rng.randint(1, 3))),
                                      halfspace((-1,), -lo)]))
    for _ in range(4):
        rows = []
        for j in range(3):
            e = tuple(int(i == j) for i in range(3))
            lo = F(rng.randint(-6, 2), rng.randint(1, 3))
            rows += [halfspace(e, lo + F(rng.randint(1, 5), rng.randint(1, 2))),
                     halfspace(tuple(-c for c in e), -lo)]
        bodies.append(build_polytope(rows))
    while len(bodies) < 33:
        verts = [tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
                 for _ in range(4)]
        try:
            bodies.append(build_polytope(simplex_halfspaces(verts)))
        except DegenerateSimplex:
            continue
    return bodies


class TestExtremalReference:
    """The integer solve against the ``Polynomial`` reference of
    ``helpers.reference_extremal``, and its invariants under lattice maps."""

    def test_field_for_field(self):
        rng = random.Random("extremal-reference")
        dims = set()
        for poly in _extremal_bodies(rng):
            # The reference reads the degree-2 boundary table, so it gets
            # its own copy of the body.
            matrix, expected = reference_extremal(build_polytope(poly.halfspaces))
            ext = invariants.extremal_field(poly)
            assert ext == expected
            assert repr(ext) == repr(expected)
            assert invariants.second_moment_matrix(poly) == matrix
            assert invariants.futaki_vector(poly) == ext.b
            assert invariants.centering_constants(poly) == ext.c
            assert all(type(x) is Fraction for x in (*ext.c, *ext.b, *ext.a, ext.theta.constant,
                                                   ext.theta_min, ext.theta_max, ext.norm))
            dims.add(poly.dim)
        assert dims == {1, 2, 3}

    def test_lattice_maps_keep_the_range(self):
        # rbar and the potential's range and norm are properties of the
        # body up to GL(n, Z) and translation, so they are bit-identical.
        rng = random.Random("extremal-lattice-maps")
        for poly in _extremal_bodies(rng):
            ext = invariants.extremal_field(poly)
            expected = (poly.rbar, ext.theta_min, ext.theta_max, ext.norm)
            u = make_pl([zero_function(poly.dim)], poly)
            for _ in range(3):
                a = unimodular(rng, poly.dim) if poly.dim > 1 else [[rng.choice((1, -1))]]
                t = tuple(F(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(poly.dim))
                moved, _ = push_forward(poly, u, a, t)
                moved_ext = invariants.extremal_field(moved)
                assert (moved.rbar, moved_ext.theta_min, moved_ext.theta_max,
                        moved_ext.norm) == expected


class TestThetaNorm:
    def test_hexagon_zero(self, hexagon23):
        ext = invariants.extremal_field(hexagon23)
        assert ext.norm == 0

    def test_pentagon_norm_and_range(self, pentagon):
        ext = invariants.extremal_field(pentagon)
        assert ext.norm == F(304, 409)
        assert ext.theta_min == F(-200, 409)
        assert -2 < ext.theta_min and ext.theta_max < 1

    def test_blowup1_range(self, blowup1):
        ext = invariants.extremal_field(blowup1)
        assert (ext.theta_min, ext.theta_max) == (F(-7, 11), F(5, 11))
        assert -2 < ext.theta_min and ext.theta_max < 1


class TestLinearFunctional:
    def test_vanishes_on_affine(self, cp2, pentagon, hexagon23):
        rng = random.Random(3)
        for poly in (cp2, pentagon, hexagon23):
            ext = invariants.extremal_field(poly)
            for _ in range(20):
                u = make_pl([random_affine(rng, 2)], poly)
                assert linear_functional_L(poly, u, ext) == 0

    def test_cp2_crease_value(self, cp2):
        ext = invariants.extremal_field(cp2)
        assert linear_functional_L(cp2, crease_x1(cp2), ext) == F(4, 3)

    def test_square_crease_value(self, square):
        ext = invariants.extremal_field(square)
        assert linear_functional_L(square, crease_x1(square), ext) == 1

    def test_cone_form_matches_on_examples(self, cp2, square):
        for poly in (cp2, square):
            ext = invariants.extremal_field(poly)
            u = crease_x1(poly)
            assert linear_functional_L_cone(poly, u, ext) == linear_functional_L(
                poly, u, ext
            )

    def test_cone_form_matches_random(self, pentagon, hexagon23):
        rng = random.Random(5)
        for poly in (pentagon, hexagon23):
            ext = invariants.extremal_field(poly)
            for _ in range(10):
                u = random_convex_pl(rng, poly)
                assert linear_functional_L_cone(poly, u, ext) == linear_functional_L(
                    poly, u, ext
                )

    def test_cone_form_matches_in_3d(self):
        # Boxes with rational bounds and prisms over moved catalog polygons,
        # so rational vertices, the origin inside every one.
        rng = random.Random("cone-form-3d")
        bodies = []
        for _ in range(3):
            bodies.append(build_polytope([
                halfspace(tuple(s * int(i == j) for i in range(3)),
                          F(rng.randint(1, 9), rng.randint(1, 4)))
                for j in range(3) for s in (1, -1)]))
        for name, shift in (("cp2_2blowup", (F(1, 3), F(-1, 5))), ("hexagon(2,3)", (F(-2, 7), 0))):
            bodies.append(prism(translate(catalog(name), shift), F(-1, 2), F(2, 3)))
        cells = 0
        for poly in bodies:
            assert poly.origin_interior and any(q > 1 for _, q, _ in poly._clip_start)
            ext = invariants.extremal_field(poly)
            for _ in range(4):
                u = random_convex_pl(rng, poly)
                cells += len(u.cells)
                assert linear_functional_L_cone(poly, u, ext) == linear_functional_L(
                    poly, u, ext
                )
        assert cells > 2 * 4 * len(bodies)

    def test_cone_form_needs_interior_origin(self, cp2):
        moved = translate(cp2, (10, 0))
        ext = invariants.extremal_field(moved)
        with pytest.raises(OriginNotInterior):
            linear_functional_L_cone(moved, crease_x1(moved), ext)

    @staticmethod
    def _normalized_at_origin(u):
        """``u`` minus a supporting affine function at the origin: the
        average gradient of the pieces active there, so the result is
        >= 0 and 0 at the origin."""
        origin = (F(0),) * u.domain.dim
        active = active_pieces(u, origin)
        s = [sum((a.gradient[j] for a in active), F(0)) / len(active)
             for j in range(u.domain.dim)]
        return make_pl([AffineFunction(tuple(g - sj for g, sj in zip(p.gradient, s)),
                                       p.constant - u.evaluate(origin))
                        for p in u.pieces], u.domain)

    def test_lower_bound_for_normalized(self, pentagon, square):
        # For u normalized at the origin, the functional dominates the cone
        # sum with the shifted weight, because the per-cell Legendre values
        # are nonnegative.
        rng = random.Random(9)
        for poly in (pentagon, square):
            ext = invariants.extremal_field(poly)
            rbar = invariants.average_scalar_curvature(poly)
            n = poly.dim
            weight = Polynomial.affine(
                n, ext.theta.gradient, ext.theta.constant + rbar
            )
            for _ in range(10):
                u = self._normalized_at_origin(random_convex_pl(rng, poly))
                value = linear_functional_L(poly, u, ext)
                bound = F(0)
                for support, cone_hs, _ in poly._cone_halfspaces:
                    for cell in u.cells:
                        region = intersect(cell.region, cone_hs)
                        if region is None:
                            continue
                        piece = Polynomial.affine(
                            n, cell.piece.gradient, cell.piece.constant
                        )
                        integrand = piece * (F(n + 1) / support) - weight * piece
                        bound += integrate_polynomial(region, integrand)
                assert value >= bound


class TestRelativeFutaki:
    def test_cp2_spot_value(self, cp2):
        ext = invariants.extremal_field(cp2)
        deg = relative_futaki(cp2, crease_x1(cp2), ext)
        assert deg.L_value == F(4, 3)
        assert deg.rel_futaki == F(-4, 27)
        assert not deg.trivial

    def test_pentagon_pairing_value(self, pentagon):
        # The exact pairing -integral(theta * u) of the crease with the potential.
        ext = invariants.extremal_field(pentagon)
        deg = relative_futaki(pentagon, crease_x1(pentagon), ext)
        assert deg.ip_ab == F(169, 1227)

    def test_affine_is_trivial(self, pentagon):
        ext = invariants.extremal_field(pentagon)
        deg = relative_futaki(pentagon, make_pl([affine((2, -1), 3)], pentagon), ext)
        assert deg.rel_futaki == 0
        assert deg.trivial

    def test_consistency_identity(self, pentagon, blowup1):
        # Boundary integral of the potential equals the integral of its
        # square, which is the vanishing of the functional on the potential.
        for poly in (pentagon, blowup1):
            ext = invariants.extremal_field(poly)
            theta = Polynomial.affine(2, ext.theta.gradient, ext.theta.constant)
            assert boundary_integral(poly, theta) == integrate_polynomial(
                poly, theta * theta
            )

    def test_sign_bridge(self, pentagon):
        rng = random.Random(17)
        ext = invariants.extremal_field(pentagon)
        vol = pentagon.volume
        for _ in range(20):
            u = random_convex_pl(rng, pentagon)
            deg = relative_futaki(pentagon, u, ext)
            assert deg.rel_futaki == -deg.L_value / (2 * vol)
            if deg.L_value > 0:
                assert deg.rel_futaki < 0
            assert (deg.rel_futaki == 0) == deg.trivial

    def test_L_value_equals_linear_functional(self, cp2, blowup1, pentagon, hexagon23):
        # relative_futaki splits the weighted volume into theta and rbar
        # parts; linear_functional_L integrates the weight in one piece.
        rng = random.Random(23)
        box = build_polytope([halfspace(n, b) for n, b in (
            ((1, 0, 0), 2), ((-1, 0, 0), "1/2"), ((0, 1, 0), 1), ((0, -1, 0), 3),
            ((0, 0, 1), "3/2"), ((0, 0, -1), 1))])
        for poly in (cp2, blowup1, pentagon, hexagon23, box):
            ext = invariants.extremal_field(poly)
            for _ in range(6 if poly.dim == 2 else 2):
                u = random_convex_pl(rng, poly)
                assert relative_futaki(poly, u, ext).L_value == linear_functional_L(
                    poly, u, ext
                )

    def test_self_pairing_and_trivial_link(self, hexagon23):
        ext = invariants.extremal_field(hexagon23)
        u = crease_x1(hexagon23)
        deg = relative_futaki(hexagon23, u, ext)
        # Trivial extremal action: the pairing degenerates and the relative
        # and generalized invariants coincide.
        assert deg.ip_bb == 0
        assert deg.rel_futaki == deg.gen_futaki_alpha


class TestAffineFormsBuiltOnce:
    def test_second_calls_build_no_form(self, hexagon23, monkeypatch):
        # Each piece and the potential carry their integer form, so once
        # those are built no reader builds another.
        u = make_pl([affine((1, 0), 0), affine((0, 1), F(1, 2)), zero_function(2)], hexagon23)
        assert len(u.cells) == 3
        ext = invariants.extremal_field(hexagon23)
        readers = [
            lambda: integration.integrate_pl(u),
            lambda: boundary_integral(hexagon23, u),
            lambda: linear_functional_L(hexagon23, u, ext),
            lambda: linear_functional_L_cone(hexagon23, u, ext),
            lambda: relative_futaki(hexagon23, u, ext),
        ]
        first = [read() for read in readers]
        builds = []
        build = Polynomial.affine.__func__

        def counted(cls, *args):
            builds.append(args)
            return build(cls, *args)

        monkeypatch.setattr(Polynomial, "affine", classmethod(counted))
        assert [read() for read in readers] == first
        assert builds == []


class TestBoundaryTablesAtTheirDegree:
    """The analysis reads the boundary at degree <= 1 only; the facets'
    degree-2 tables wait for a quadratic integrand."""

    def test_analyze_and_lfun_leave_the_degree_two_tables_unread(self):
        # What `analyze --pl` and then `lfun` compute, on one polytope.
        rng = random.Random("lazy-boundary")
        bodies = [catalog(name) for name in CATALOG_NAMES if "(" not in name]
        bodies += [hexagon(1, 2), hexagon(3, 4)]
        bodies += [random_polygon(rng, den=rng.choice((1, 2, 3))) for _ in range(12)]
        for poly in bodies:
            u = random_convex_pl(rng, poly)
            rep = report.build_report(poly, pl_functions=[("u", u)])
            report.render_table(rep)
            ext = invariants.extremal_field(poly)
            L = linear_functional_L(poly, u, ext)
            if poly.origin_interior:
                assert linear_functional_L_cone(poly, u, ext) == L
            assert "_affine_boundary_moments" in vars(poly)
            assert "_boundary_moments" not in vars(poly)
            assert not any("_moments" in vars(f) for f in poly.facets)
            assert not any("_moments" in vars(f) for cell in u.cells
                           for f in cell.region.facets)

    def test_each_integrand_reads_its_table(self, pentagon):
        poly = build_polytope(pentagon.halfspaces)
        x, y = Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)
        affine_value = boundary_integral(poly, x * 3 - y + 1)
        assert "_boundary_moments" not in vars(poly)
        # A monomial of degree 2 cancelled to 0 still reads degree 2.
        cancelled = x * y - y * x + x
        assert cancelled.degree() == 1
        assert boundary_integral(poly, cancelled) == boundary_integral(poly, x)
        assert "_boundary_moments" in vars(poly)
        assert affine_value == integration._form_integral(poly._boundary_moments, x * 3 - y + 1)


class TestConditions:
    def test_pentagon_margin(self, pentagon):
        ext = invariants.extremal_field(pentagon)
        verdict = check_condition(pentagon, ext, "c02")
        assert verdict.holds
        assert verdict.margin == F(105, 409)

    def test_fano_with_vanishing_obstruction(self):
        for name in ("cp2", "cp1xcp1", "cp2_3blowup"):
            poly = catalog(name)
            ext = invariants.extremal_field(poly)
            for code in ("c02", "c02prime", "c02doubleprime", "c43"):
                verdict = check_condition(poly, ext, code)
                assert verdict.holds, (name, code)
                assert verdict.margin == 1

    def test_square_cone_volume_condition(self, square):
        ext = invariants.extremal_field(square)
        verdict = check_condition(square, ext, "c04")
        assert verdict.holds
        assert verdict.margin == F(1, 2)

    def test_c43_uses_max_not_norm(self, pentagon):
        ext = invariants.extremal_field(pentagon)
        pointwise = check_condition(pentagon, ext, "c43")
        # theta_max = 304/409 equals the norm here, so margins agree.
        assert pointwise.margin == F(105, 409)
        assert isinstance(pointwise.witness, tuple)

    def test_hexagon_window(self):
        for lam, mu in ((2, 3), (3, 2), (1, 1)):
            poly = hexagon(lam, mu)
            ext = invariants.extremal_field(poly)
            verdict = check_condition(poly, ext, "c61")
            assert verdict.holds
        wide = hexagon(F(5), F(49, 18))  # ratio 0.5444..., below the window
        ext = invariants.extremal_field(wide)
        verdict = check_condition(wide, ext, "c61")
        assert not verdict.holds
        assert verdict.margin < 0

    def test_hexagon_window_matches_float_surd(self):
        # Cross-check the exact squared comparison against floating point
        # evaluation of the window away from its boundary.
        import math

        low = (5 - math.sqrt(10)) / 3
        high = (5 + math.sqrt(10)) / 5
        for lam, mu in ((2, 3), (3, 2), (4, 3), (3, 4), (5, 3), (F(5), F(49, 18))):
            poly = hexagon(lam, mu)
            ext = invariants.extremal_field(poly)
            verdict = check_condition(poly, ext, "c61")
            ratio = float(Fraction(mu) / Fraction(lam))
            assert verdict.holds == (low <= ratio <= high)

    def test_wrong_family(self, square):
        ext = invariants.extremal_field(square)
        with pytest.raises(WrongFamily):
            check_condition(square, ext, "c61")

    def test_c04_requires_interior_origin(self, cp2):
        moved = translate(cp2, (10, 10))
        ext = invariants.extremal_field(moved)
        with pytest.raises(OriginNotInterior):
            check_condition(moved, ext, "c04")

    def test_unknown_code_rejected(self, square):
        ext = invariants.extremal_field(square)
        with pytest.raises(ValueError):
            check_condition(square, ext, "c99")

    def test_minimum_only_on_boundary(self):
        # Over the plane F(t) = max_i b_i(t) has minimum 2, reached only
        # outside P; over P its minimum is 9/4, at (-1/2, 1/4) on the edge.
        poly = build_polytope([halfspace((1, 1), 2), halfspace((-1, 2), 1),
                               halfspace((-3, 1), 4), halfspace((1, -1), 1)])
        rbar = invariants.average_scalar_curvature(poly)
        assert rbar == F(68, 53)
        best = poly.best_origin
        assert (best.point, best.max_support, best.depth) == ((F(-1, 2), F(1, 4)), F(9, 4), 0)
        ext = invariants.extremal_field(poly)
        verdict = check_condition(poly, ext, "c02doubleprime")
        # Neither 23/106 (the exterior minimiser) nor -113/212 (the origin).
        assert verdict.holds
        assert verdict.margin == F(8, 159)
        assert verdict.margin_at_given_origin == F(-113, 212)
        assert contains_interior(poly, verdict.origin)
        assert 3 / max(poly.support_values(verdict.origin)) - rbar >= 0
        assert check_condition(poly, ext, "c04").margin == F(3, 53)

    def test_zero_margin_at_an_interior_origin_holds(self):
        # On this rectangle rbar = 3/2 and min F = 2, so c02doubleprime has
        # margin 0; the minimisers run from edge to edge, and an interior
        # one is the witness.
        rect = build_polytope([halfspace((1, 0), 4), halfspace((-1, 0), 0),
                               halfspace((0, 1), 2), halfspace((0, -1), 0)])
        ext = invariants.extremal_field(rect)
        verdict = check_condition(rect, ext, "c02doubleprime")
        assert verdict.holds
        assert verdict.margin == 0
        assert contains_interior(rect, verdict.origin)
        assert verdict.margin_at_given_origin is None

    def test_exterior_origin_accepted_except_by_c04(self, pentagon):
        moved = translate(pentagon, (10, 10))
        ext = invariants.extremal_field(moved)
        for code in ("c02", "c02doubleprime", "c43"):
            verdict = check_condition(moved, ext, code)
            assert verdict.holds
            assert verdict.margin == check_condition(
                pentagon, invariants.extremal_field(pentagon), code).margin
            assert verdict.margin_at_given_origin is None
            assert verdict.origin == (10, 10)
        with pytest.raises(OriginNotInterior):
            check_condition(moved, ext, "c04")

    def test_best_origin_solved_once_per_report(self, monkeypatch):
        calls = []
        solve = geometry._best_origin
        monkeypatch.setattr(geometry, "_best_origin",
                            lambda poly: calls.append(poly) or solve(poly))
        report.build_report(translate(catalog("cp2_2blowup"), (1, 2)))
        assert len(calls) == 1

    def test_c02prime_only_for_anticanonical_bounds(self):
        # hexagon(2,3) has no origin with every bound 1, nor has a random
        # lattice polygon as a rule; the Fano polygons keep c02prime under
        # translations and GL(2,Z) maps.
        rng = random.Random(23)
        while True:
            poly = random_polygon(rng)
            if any(b != 1 for b in poly.support_values(poly.best_origin.point)):
                break
        for other in (catalog("hexagon(2,3)"), poly):
            with pytest.raises(WrongFamily):
                check_condition(other, invariants.extremal_field(other), "c02prime")
        for name in ("cp2", "cp1xcp1", "cp2_3blowup"):
            for word, shift in (((), (0, 0)), ((), (3, -1)), ((0, 1, 2), (F(1, 3), F(-2, 5)))):
                moved = _lattice_image(catalog(name), word, shift)
                verdict = check_condition(moved, invariants.extremal_field(moved), "c02prime")
                assert (verdict.holds, verdict.margin) == (True, 1), (name, word, shift)

    def test_origin_margins_share_one_slack(self):
        # c04 is c02doubleprime's slack times F/n wherever the origin is
        # interior, and c02prime is c02 wherever it applies.
        rng = random.Random(603237)
        polys = [catalog(name) for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup",
                                            "cp2_3blowup", "hexagon(2,3)")]
        polys += [random_polygon(rng, den=rng.choice((1, 2, 3))) for _ in range(40)]
        anticanonical = interior = 0
        for poly in polys:
            ext = invariants.extremal_field(poly)
            c02 = check_condition(poly, ext, "c02")
            doubleprime = check_condition(poly, ext, "c02doubleprime")
            if poly.origin_interior:
                interior += 1
                c04 = check_condition(poly, ext, "c04")
                scale = poly.best_origin.max_support / poly.dim
                assert c04.margin == doubleprime.margin * scale
                assert c04.holds == doubleprime.holds
            try:
                prime = check_condition(poly, ext, "c02prime")
            except WrongFamily:
                continue
            anticanonical += 1
            assert (prime.margin, prime.holds) == (c02.margin, c02.holds)
        assert interior > 20 and anticanonical >= 5


# GL(2,Z) generators: a quarter turn, a shear and a reflection.
_GL2_GENERATORS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (0, -1)))


def _lattice_image(poly, word, shift):
    """P under x -> A x + shift, A the product of the generators in word."""
    a = ((1, 0), (0, 1))
    for g in word:
        g = _GL2_GENERATORS[g]
        a = tuple(tuple(sum(g[i][k] * a[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    # Normals go to A^{-T} l; the bounds are kept.
    inv_t = ((a[1][1] * det, -a[1][0] * det), (-a[0][1] * det, a[0][0] * det))
    mapped = build_polytope([
        halfspace(tuple(inv_t[i][0] * h.normal[0] + inv_t[i][1] * h.normal[1]
                        for i in range(2)), h.bound)
        for h in poly.halfspaces
    ])
    return translate(mapped, shift)


def _reported_conditions(poly):
    return {
        c["name"]: (c["holds"], c["margin"]["exact"])
        for c in report.build_report(poly)["conditions"]
    }


@functools.cache
def _catalog_conditions(name):
    return _reported_conditions(catalog(name))


class TestOriginIndependence:
    @pytest.mark.parametrize("name", ["cp2_1blowup", "cp2_2blowup", "hexagon(2,3)"])
    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(
        word=st.lists(st.integers(0, len(_GL2_GENERATORS) - 1), max_size=4),
        shift=st.tuples(*[st.fractions(-8, 8, max_denominator=5)] * 2),
    )
    def test_conditions_survive_lattice_maps(self, name, word, shift):
        moved = _lattice_image(catalog(name), word, shift)
        got = _reported_conditions(moved)
        expected = dict(_catalog_conditions(name))
        if not moved.origin_interior:
            expected.pop("c04")
        assert got == expected

    def test_moved_hexagon_keeps_its_parameters(self):
        for word, shift in (((), (1, -2)), ((0, 1, 2), (F(1, 3), F(-2, 5)))):
            moved = _lattice_image(catalog("hexagon(2,3)"), word, shift)
            assert invariants.hexagon_parameters(moved) in ((2, 3), (3, 2))
            verdict = check_condition(moved, invariants.extremal_field(moved), "c61")
            assert verdict.holds
            assert verdict.margin == 3

    def test_unequal_opposite_sums_leave_the_family(self):
        # The hexagon normals, but b_0 + b_3 = 5 while b_1 + b_4 = 6.
        bounds = (2, 3, 2, 3, 3, 3)
        normals = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
        poly = build_polytope([halfspace(m, b) for m, b in zip(normals, bounds)])
        assert len(poly.facets) == 6
        assert invariants.hexagon_parameters(poly) is None


def _lattice_map_bodies(rng):
    """The catalog polygons, then seeded 3-D boxes and simplices about the origin."""
    bodies = [catalog(name) for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup",
                                         "cp2_3blowup", "hexagon(2,3)")]
    for _ in range(3):
        rows = []
        for j in range(3):
            e = tuple(int(i == j) for i in range(3))
            lo = F(rng.randint(1, 4), rng.randint(1, 3))
            rows += [halfspace(e, F(rng.randint(1, 5), rng.randint(1, 2))),
                     halfspace(tuple(-c for c in e), lo)]
        bodies.append(build_polytope(rows))
    while len(bodies) < 12:
        verts = [tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(4)]
        try:
            simplex = build_polytope(simplex_halfspaces(verts))
        except DegenerateSimplex:
            continue
        bodies.append(translate(simplex, tuple(-c for c in simplex.barycenter)))
    return bodies


class TestLatticeMaps:
    """``L`` and the boundary integral of a PL function do not change when
    the polytope and the function are pushed forward together by a map of
    GL(n, Z) and a rational translation, and the cone form agrees with them
    wherever the origin is interior."""

    @staticmethod
    def values(poly, u):
        ext = invariants.extremal_field(poly)
        L = linear_functional_L(poly, u, ext)
        if poly.origin_interior:
            assert linear_functional_L_cone(poly, u, ext) == L
        return L, boundary_integral(poly, u)

    def test_pushed_forward_values(self):
        rng = random.Random("lattice-maps")
        cone_checks = []
        for poly in _lattice_map_bodies(rng):
            u = random_convex_pl(rng, poly)
            expected = self.values(poly, u)
            for _ in range(3):
                a = unimodular(rng, poly.dim)
                t = tuple(F(rng.randint(-1, 1), rng.randint(2, 6)) for _ in range(poly.dim))
                moved, pushed = push_forward(poly, u, a, t)
                assert [len(f.vertices) for f in moved.facets] == [
                    len(f.vertices) for f in poly.facets]
                assert self.values(moved, pushed) == expected
                cone_checks.append((moved.dim, moved.origin_interior,
                                    max(len(f.vertices) for f in moved.facets)))
        # The cone form ran on moved polygons and on moved 3-D bodies with
        # triangular and with quadrilateral facets, and some moved origins
        # left the interior.
        assert {(2, True, 2), (3, True, 3), (3, True, 4)} <= set(cone_checks)
        assert any(not interior for _, interior, _ in cone_checks)


def _angular_order(vectors):
    """Indices sorted by exact angle of nonzero planar vectors."""

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def compare(i, j):
        vi, vj = vectors[i], vectors[j]
        hi, hj = half(vi), half(vj)
        if hi != hj:
            return -1 if hi < hj else 1
        cross = vi[0] * vj[1] - vi[1] * vj[0]
        return -1 if cross > 0 else 1 if cross < 0 else 0

    return sorted(range(len(vectors)), key=functools.cmp_to_key(compare))


def _hexagon_oracle(poly):
    """``hexagon_parameters`` with the normals sorted by angle."""
    if poly.dim != 2 or len(poly.facets) != 6:
        return None
    hs = [f.halfspace for f in poly.facets]
    order = _angular_order([h.normal for h in hs])
    normals = [hs[i].normal for i in order]
    bounds = [hs[i].bound for i in order]
    if normals[0][0] * normals[1][1] - normals[0][1] * normals[1][0] != 1:
        return None
    if any(tuple(a + b for a, b in zip(normals[i - 1], normals[(i + 1) % 6])) != normals[i]
           for i in range(6)):
        return None
    if not bounds[0] + bounds[3] == bounds[1] + bounds[4] == bounds[2] + bounds[5]:
        return None
    return sum(bounds[0::2]) / 3, sum(bounds[1::2]) / 3


class TestHexagonOrder:
    """``hexagon_parameters`` reads the normals along ``ccw_facets``; an
    angular sort is the oracle."""

    HEXAGON_NORMALS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))

    def test_lattice_images(self):
        rng = random.Random("hexagon-order")
        for _ in range(60):
            lam = F(rng.randint(3, 12), rng.randint(1, 3))
            mu = lam * F(rng.randint(11, 39), 20)
            word = [rng.randrange(len(_GL2_GENERATORS)) for _ in range(rng.randint(0, 5))]
            shift = (F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
            moved = _lattice_image(hexagon(lam, mu), word, shift)
            got = invariants.hexagon_parameters(moved)
            assert got == _hexagon_oracle(moved)
            assert got in ((lam, mu), (mu, lam))

    def test_near_misses(self):
        rng = random.Random("hexagon-misses")
        for _ in range(30):
            word = [rng.randrange(len(_GL2_GENERATORS)) for _ in range(rng.randint(0, 4))]
            bounds = [F(rng.randint(4, 6))] * 6
            bounds[rng.randrange(6)] += F(1, rng.randint(2, 9))
            normals = list(self.HEXAGON_NORMALS)
            if rng.random() < 0.5:
                # (2, 1) in place of (1, 1) keeps six facets but breaks the relations.
                normals[1] = (2, 1)
                bounds = [F(3), F(5), F(3), F(3), F(3), F(3)]
            poly = _lattice_image(
                build_polytope([halfspace(m, b) for m, b in zip(normals, bounds)]), word, (0, 0))
            assert len(poly.facets) == 6
            assert invariants.hexagon_parameters(poly) is None
            assert _hexagon_oracle(poly) is None

    def test_lattice_symmetries(self):
        # The rotation taking each normal to the next, and the swap of the
        # axes; each image lists the same half-spaces in another order.
        rotation, swap = ((1, -1), (1, 0)), ((0, 1), (1, 0))
        poly = hexagon(2, 3)
        images = set()
        for turns in range(6):
            for flip in (False, True):
                a = ((1, 0), (0, 1))
                for g in [swap] * flip + [rotation] * turns:
                    a = tuple(tuple(sum(g[i][k] * a[k][j] for k in range(2)) for j in range(2))
                              for i in range(2))
                moved = build_polytope([
                    halfspace(tuple(sum(a[i][j] * h.normal[j] for j in range(2)) for i in range(2)),
                              h.bound)
                    for h in poly.halfspaces])
                images.add(moved.halfspaces)
                got = invariants.hexagon_parameters(moved)
                assert got == _hexagon_oracle(moved)
                assert got in ((2, 3), (3, 2))
        assert len(images) == 12


# -- the ray-averaged boundary weight -------------------------------------------
#
# Put the origin inside P and write the weight of L as
# ``w = rbar + theta = w0 + w1(x)``, with w1 linear.  Over the cone from 0
# on facet i, with bound b_i, put ``x = s y`` for y in F_i and 0 <= s <= 1;
# then ``dx = b_i s^(n-1) ds dsigma(y)``, so
#
#     L(u) = sum_i int_{F_i} [u(y) - b_i int_0^1 w(s y) u(s y) s^(n-1) ds] dsigma(y).
#
# For u homogeneous of degree 1, ``u(s y) = s u(y)`` and the inner integral
# is ``u(y) (w0 / (n+1) + w1(y) / (n+2))``, so ``L(u) = int_dP W u dsigma``
# with ``W = 1 - b_i (w0 / (n+1) + w1(y) / (n+2))`` on facet i.  For convex
# u with ``u(0) = 0`` and ``u >= 0``, ``u(s y) <= s u(y)``; so where
# ``w >= 0`` on P, ``L(u) >= int_dP W u dsigma >= (min W) int_dP u dsigma``.
# W is affine on each facet, so its minimum is at a (facet, vertex) pair.


def ray_weights(poly, extremal):
    """Per half-space of ``poly``, the affine weight ``W`` on its facet."""
    n = poly.dim
    w0 = poly.rbar + extremal.theta.constant
    return {h: AffineFunction(tuple(-h.bound * a / (n + 2) for a in extremal.theta.gradient),
                              1 - h.bound * w0 / (n + 1))
            for h in poly.halfspaces}


def weighted_boundary(poly, u, weights):
    """``int_dP W u dsigma``: each cell's piece times W over the cell's
    facets that lie on a half-space of ``poly``."""
    total = F(0)
    for cell in u.cells:
        for facet in cell.region.facets:
            if facet.halfspace in weights:
                total += integration._form_integral(
                    facet._moments, weights[facet.halfspace].form * cell.piece.form)
    return total


def min_weight(poly, weights):
    return min(weights[f.halfspace].evaluate(v) for f in poly.facets for v in f.vertices)


CP3 = [((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1), ((1, 1, 1), 1)]


def _ray_bodies(rng):
    """The catalog with ``hexagon(1,2)``, and seeded rational polygons, 3-D
    boxes and 3-D simplices, each with the origin inside."""
    bodies = [catalog(name) for name in CATALOG_NAMES[:-1]] + [hexagon(1, 2)]
    polygons = [random_polygon(rng, den=rng.choice((1, 2, 3)), radius=3) for _ in range(12)]
    bodies += [p for p in polygons if p.origin_interior]

    def bound():
        return F(rng.randint(1, 5), rng.randint(1, 3))

    for _ in range(3):
        base = build_polytope([halfspace(e, bound()) for e in ((1, 0), (-1, 0), (0, 1), (0, -1))])
        bodies.append(prism(base, -bound(), bound()))
    simplices = 0
    while simplices < 3:
        verts = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                 for _ in range(4)]
        try:
            poly = build_polytope(simplex_halfspaces(verts))
        except DegenerateSimplex:
            continue
        if poly.origin_interior:
            bodies.append(poly)
            simplices += 1
    return bodies


class TestRayWeight:
    def test_identity_for_creases_through_the_origin(self):
        rng = random.Random(14)
        checked = 0
        for poly in _ray_bodies(rng):
            ext = invariants.extremal_field(poly)
            weights = ray_weights(poly, ext)
            for _ in range(3):
                xi = (0,) * poly.dim
                while not any(xi):
                    xi = tuple(rng.randint(-3, 3) for _ in range(poly.dim))
                u = make_pl([zero_function(poly.dim), affine(xi, 0)], poly)
                assert linear_functional_L(poly, u, ext) == weighted_boundary(poly, u, weights)
                checked += 1
        assert checked == 63

    def test_min_weight(self):
        want = {"cp2": F(1, 3), "cp1xcp1": F(1, 3), "cp2_3blowup": F(1, 3),
                "hexagon(1,2)": F(1, 3), "cp2_1blowup": F(5, 22), "cp2_2blowup": F(63, 409),
                "hexagon(2,3)": F(1, 11)}
        bodies = {name: catalog(name) for name in want}
        bodies["cp3"] = build_polytope([halfspace(n, b) for n, b in CP3])
        want["cp3"] = F(1, 4)
        got = {name: min_weight(poly, ray_weights(poly, invariants.extremal_field(poly)))
               for name, poly in bodies.items()}
        assert got == want

    def test_bound_for_convex_functions(self):
        # u = max(0, l_1, ..., l_k) with l_j(0) <= 0 is convex, u(0) = 0, u >= 0.
        rng = random.Random(3)
        bodies = _ray_bodies(rng) + [hexagon(2, 3), build_polytope(
            [halfspace(n, b) for n, b in CP3])]
        checked = 0
        for poly in bodies:
            ext = invariants.extremal_field(poly)
            if poly.rbar + ext.theta_min < 0:
                continue
            weights = ray_weights(poly, ext)
            lowest = min_weight(poly, weights)
            for _ in range(8):
                pieces = [zero_function(poly.dim)]
                for _ in range(rng.randint(1, 4)):
                    pieces.append(affine([F(rng.randint(-3, 3), rng.randint(1, 2))
                                          for _ in range(poly.dim)],
                                         -F(rng.randint(0, 3), rng.randint(1, 3))))
                u = make_pl(pieces, poly)
                weighted = weighted_boundary(poly, u, weights)
                assert linear_functional_L(poly, u, ext) >= weighted
                assert weighted >= lowest * boundary_integral(poly, u)
                checked += 1
        assert checked == 112

    def test_min_weight_bounds_the_scan_estimate(self):
        config = ScanConfig(direction_count=12, offset_count=8, refine_rounds=1)
        for poly in [catalog(name) for name in CATALOG_NAMES[:-1]] + [hexagon(1, 2),
                                                                       hexagon(2, 3)]:
            ext = invariants.extremal_field(poly)
            assert min_weight(poly, ray_weights(poly, ext)) <= scan(
                poly, ext, config).lambda_star_estimate
