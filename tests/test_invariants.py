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
    translate,
)
from hypothesis import given, settings, strategies as st

from toricstab import build_polytope, geometry, halfspace, integration, invariants, report
from toricstab.errors import OriginNotInterior, WrongFamily
from toricstab.geometry import intersect
from toricstab.plfunc import AffineFunction, affine, zero_function
from toricstab.reproduce import random_affine, random_convex_pl

from helpers import prism


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
            assert poly.origin_interior and any(q > 1 for _, _, q, _ in poly._clip_start)
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
        active = u.active_pieces(origin)
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
        assert poly.contains_interior(verdict.origin)
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
        assert rect.contains_interior(verdict.origin)
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
