"""Crease scan: exactness, monotone refinement, and sanity on stable bodies."""

from fractions import Fraction

import pytest

from toricstab import (
    boundary_integral,
    catalog,
    linear_functional_L,
    make_pl,
    scan,
)
from toricstab import invariants
from toricstab.destabilizer import ScanConfig, _crease_family, _direction
from toricstab.plfunc import SimplePL, affine, zero_function


SMALL = ScanConfig(direction_count=24, offset_count=8, refine_rounds=1)


def F(a, b=1):
    return Fraction(a, b)


class TestConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert (cfg.direction_count, cfg.offset_count, cfg.refine_rounds) == (360, 100, 2)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            ScanConfig(direction_count=0)
        with pytest.raises(ValueError):
            ScanConfig(refine_rounds=-1)


class TestDirections:
    def test_rational_circle_points(self):
        seen = set()
        for j in range(16):
            a = _direction(F(j, 16))
            assert a != (0, 0)
            assert all(isinstance(c, Fraction) for c in a)
            seen.add(a)
        assert len(seen) == 16

    def test_candidates_are_normalized(self, square):
        base = (F(0), F(0))
        crease_for = _crease_family(square, base)
        for j in range(12):
            for t in range(5):
                crease = crease_for(F(j, 12), F(t, 5))
                assert crease.evaluate(base) <= 0
                # crease meets the interior: positive somewhere on vertices
                assert max(crease.evaluate(v) for v in square.vertices) > 0


class TestScan:
    def test_square_no_destabilizer(self, square):
        ext = invariants.extremal_field(square)
        result = scan(square, ext, SMALL)
        assert not result.destabilizer_found
        assert result.lambda_star_estimate > 0
        assert result.curvature_hypothesis_ok

    def test_square_spot_ratio(self, square):
        # The axis crease through the origin is in every default-like grid:
        # L = 1 and the boundary integral is 3.
        ext = invariants.extremal_field(square)
        u = make_pl([zero_function(2), affine((1, 0), 0)], square)
        assert linear_functional_L(square, u, ext) == 1
        assert boundary_integral(square, u) == 3
        result = scan(square, ext, ScanConfig(direction_count=8, offset_count=4,
                                              refine_rounds=0))
        assert result.lambda_star_estimate <= F(1, 3)

    def test_cp2_crease_ratio_present(self, cp2):
        ext = invariants.extremal_field(cp2)
        u = make_pl([zero_function(2), affine((1, 0), 0)], cp2)
        ratio = linear_functional_L(cp2, u, ext) / boundary_integral(cp2, u)
        assert ratio == F(1, 3)

    def test_pentagon_no_destabilizer(self, pentagon):
        # The pointwise condition holds with positive margin, so the
        # functional is nonnegative on every candidate.
        ext = invariants.extremal_field(pentagon)
        result = scan(pentagon, ext, SMALL)
        assert not result.destabilizer_found
        assert result.lambda_star_estimate > 0
        assert result.curvature_hypothesis_ok

    def test_monotone_refinement(self, pentagon):
        ext = invariants.extremal_field(pentagon)
        result = scan(pentagon, ext, ScanConfig(direction_count=30, offset_count=10,
                                                refine_rounds=3))
        minima = result.round_minima
        assert all(minima[i + 1] <= minima[i] for i in range(len(minima) - 1))

    def test_worst_candidate_reverified(self, hexagon23):
        ext = invariants.extremal_field(hexagon23)
        result = scan(hexagon23, ext, SMALL)
        u = result.worst_u.as_pl(hexagon23)
        ratio = linear_functional_L(hexagon23, u, ext) / boundary_integral(
            hexagon23, u
        )
        assert ratio == result.lambda_star_estimate

    def test_scaling_invariance(self, square):
        ext = invariants.extremal_field(square)
        crease = affine((F(2, 3), F(-1, 2)), F(1, 5))
        for t in (F(1), F(3), F(7, 2)):
            scaled = SimplePL(
                affine(tuple(t * g for g in crease.gradient), t * crease.constant)
            )
            u = scaled.as_pl(square)
            ratio = linear_functional_L(square, u, ext) / boundary_integral(square, u)
            base = SimplePL(crease).as_pl(square)
            base_ratio = linear_functional_L(square, base, ext) / boundary_integral(
                square, base
            )
            assert ratio == base_ratio

    def test_dimension_guard(self):
        interval = catalog("cp2")  # 2d fine; build a 1d body for the guard
        from toricstab import build_polytope, halfspace

        segment = build_polytope([halfspace((1,), 1), halfspace((-1,), 1)])
        ext = invariants.extremal_field(segment)
        with pytest.raises(ValueError):
            scan(segment, ext, SMALL)
        assert interval.dim == 2
