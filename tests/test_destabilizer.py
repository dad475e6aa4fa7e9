"""Crease scan: exactness, monotone refinement, and sanity on stable bodies."""

import fractions
import random
import sys
from fractions import Fraction

import pytest

from toricstab import (
    boundary_integral,
    catalog,
    kernels,
    linear_functional_L,
    make_pl,
    scan,
)
from toricstab import destabilizer, invariants
from toricstab.destabilizer import (
    REFINE_POINTS,
    SAMPLES,
    ScanConfig,
    ScanResult,
    _affine,
    _crease_family,
    _direction,
    _kernel_data,
    _profiles,
    _rank,
)
from toricstab.plfunc import AffineFunction, SimplePL, affine, zero_function

from helpers import hull_polygon, pack, random_polygon


SMALL = ScanConfig(direction_count=24, offset_count=8, refine_rounds=1)


def F(a, b=1):
    return Fraction(a, b)


def scan_base(poly):
    return (F(0), F(0)) if poly.origin_interior else poly.barycenter


def direction(w):
    """Rational point on the circle for a parameter ``w`` taken mod 1, in
    Fractions: the reference for the integer ``_direction``."""
    w = w % 1
    half = F(1, 2)
    if w < half:
        s = 4 * w - 1
        return (1 - s * s, 2 * s)
    s = 4 * (w - half) - 1
    return (s * s - 1, -2 * s)


def reference_crease(poly, w, v):
    """The crease for (w, v) as one ``AffineFunction`` in Fractions."""
    base = scan_base(poly)
    a1, a2 = direction(w)
    gmax = max(a1 * p[0] + a2 * p[1] for p in poly.vertices)
    gbase = a1 * base[0] + a2 * base[1]
    return AffineFunction((a1, a2), -(gbase + v * (gmax - gbase)))


def reference_ratios(poly, ext, params):
    """``(w, v, crease, L, B)`` for the pairs whose crease meets the body."""
    creases = [reference_crease(poly, w, v) for w, v in params]
    rows = kernels.simple_pl_values(*_kernel_data(poly, ext), [pack(c) for c in creases])
    return [
        (w, v, c, F(ln, ld), F(bn, bd))
        for (w, v), c, (ln, ld, bn, bd) in zip(params, creases, rows)
        if bn != 0
    ]


def reference_scan(poly, ext, config):
    """The scan loop in Fractions: an ``AffineFunction`` per candidate,
    ``Fraction`` ratios, and a strict ``<`` so the first minimum wins."""
    rbar = invariants.average_scalar_curvature(poly)
    hypothesis_ok = min(rbar + ext.theta.evaluate(v) for v in poly.vertices) >= 0
    best, evaluated, minima = None, 0, []

    def consider(params):
        nonlocal best, evaluated
        for w, v, crease, lval, bval in reference_ratios(poly, ext, params):
            evaluated += 1
            if best is None or lval / bval < best[0]:
                best = (lval / bval, w, v, crease, lval)
        minima.append(best[0])

    m, offs = config.direction_count, config.offset_count
    consider([(F(j, m), F(t, offs)) for j in range(m) for t in range(offs)])
    dw, dv = F(1, m), F(1, offs)
    steps = [F(2 * i, REFINE_POINTS - 1) - 1 for i in range(REFINE_POINTS)]
    for _ in range(config.refine_rounds):
        ws = [best[1] + s * dw for s in steps]
        vs = [v for v in (best[2] + s * dv for s in steps) if 0 <= v < 1]
        consider([(w, v) for w in ws for v in vs])
        dw, dv = 2 * dw / (REFINE_POINTS - 1), 2 * dv / (REFINE_POINTS - 1)
    return ScanResult(
        lambda_star_estimate=best[0],
        worst_u=SimplePL(best[3]),
        destabilizer_found=best[4] < 0,
        curvature_hypothesis_ok=hypothesis_ok,
        candidates_evaluated=evaluated,
        round_minima=tuple(minima),
    )


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
            a = _direction(j, 16)
            assert a != (0, 0)
            assert all(type(c) is int for c in a)
            seen.add(a)
        assert len(seen) == 16
        # d**2 times the Fraction circle point, for parameters outside
        # [0, 1) and fractions not in lowest terms too.
        for d in (1, 2, 3, 7, 12, 360, 36000):
            for a in [*range(-2 * d, 2 * d + 1, max(1, d // 12)), d // 2, d - 1]:
                assert _direction(a, d) == tuple(d * d * c for c in direction(F(a, d)))

    def test_candidates_are_normalized(self):
        ws = [(j, 12) for j in range(12)] + [(-1, 7), (5, 4), (6, 8)]
        vs = [(t, 5) for t in range(5)] + [(2, 3), (4, 6)]
        # The square, rational vertices, and the origin on the boundary,
        # where the base point is the barycenter.
        corner = hull_polygon([(0, 0), (3, 0), (2, 2), (0, 1)])
        assert not corner.origin_interior
        for poly in [catalog("cp1xcp1"), catalog("hexagon(7/2,2)"), corner]:
            base = scan_base(poly)
            family = _crease_family(poly, base)
            for (a, d), (p, q) in [(w, v) for w in ws for v in vs]:
                cand = family(a, d).crease(p, q)
                assert all(type(c) is int for c in cand)
                assert cand[3] > 0
                crease = _affine(cand)
                assert crease == reference_crease(poly, F(a, d), F(p, q))
                assert crease.evaluate(base) <= 0
                # crease meets the interior: positive somewhere on vertices
                assert max(crease.evaluate(v) for v in poly.vertices) > 0


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


def assert_same_scan(poly, config):
    ext = invariants.extremal_field(poly)
    got, want = scan(poly, ext, config), reference_scan(poly, ext, config)
    for field in ScanResult.__dataclass_fields__:
        assert getattr(got, field) == getattr(want, field), field
    return got


class TestScanAgainstReference:
    """``scan`` on integer candidates equals the Fraction reference loop."""

    CONFIGS = [ScanConfig(24, 8, 2), ScanConfig(7, 5, 3)]

    @pytest.mark.parametrize("name", ["cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup",
                                      "cp2_3blowup", "hexagon(2,3)", "hexagon(7/2,2)"])
    def test_catalog(self, name):
        for config in self.CONFIGS:
            assert_same_scan(catalog(name), config)

    def test_seeded_lattice_polygons(self):
        rng = random.Random(1234)
        polys = [random_polygon(rng, radius=3) for _ in range(10)]
        # Both base points: the origin and the barycenter.
        assert {p.origin_interior for p in polys} == {True, False}
        for poly in polys:
            assert_same_scan(poly, self.CONFIGS[0])

    def test_exact_tie_keeps_first_minimum(self):
        # The square is symmetric under y -> -y and x <-> y, and so is the
        # grid of 8 directions, so its minimum ratio is attained by at
        # least two candidates; the first one found must win.
        square = catalog("cp1xcp1")
        ext = invariants.extremal_field(square)
        config = ScanConfig(8, 4, 0)
        grid = [(F(j, 8), F(t, 4)) for j in range(8) for t in range(4)]
        ratios = [(lval / bval, c) for _, _, c, lval, bval in reference_ratios(square, ext, grid)]
        low = min(r for r, _ in ratios)
        tied = [c for r, c in ratios if r == low]
        assert len(tied) >= 2
        result = assert_same_scan(square, config)
        assert result.worst_u.crease == tied[0]

    def test_kept_incumbent_is_rescaled(self):
        # Round 1 keeps the incumbent of round 0, so its grid indices are
        # over the coarser round-0 denominators; round 2 must centre its
        # window on the same point, and there finds a lower ratio.
        result = assert_same_scan(catalog("cp2_2blowup"), ScanConfig(7, 5, 3))
        minima = result.round_minima
        assert minima[0] == minima[1] > minima[2]


def breakpoints(poly, w):
    """Offsets in (0, 1) at which the crease of direction w passes a
    vertex, in Fractions from the vertices."""
    base = scan_base(poly)
    a1, a2 = direction(w)
    values = [a1 * x + a2 * y for x, y in poly.vertices]
    gbase = a1 * base[0] + a2 * base[1]
    top = max(values)
    return sorted({(g - gbase) / (top - gbase) for g in values if gbase < g < top})


def check_profiles(poly, ext, ws, p0, q, count):
    """Every profile row equals ``simple_pl_values`` on the same crease,
    directions ``(a, d)`` in ``ws`` and offsets ``(p0 + t) / q``, and
    the pieces are the runs between breakpoints, an offset on a breakpoint
    ending its run.  Returns the piece lengths and the number of offsets
    that lie on a breakpoint."""
    family = _crease_family(poly, scan_base(poly))
    args = _kernel_data(poly, ext)
    profiles = _profiles(family, args, ws, p0, q, count)
    assert len(profiles) == len(ws)
    vs = [F(p0 + t, q) for t in range(count)]
    lengths, on_break = [], 0
    for (a, d), pieces in zip(ws, profiles):
        cands = [family(a, d).crease(p0 + t, q) for t in range(count)]
        want = [(F(ln, ld), F(bn, bd)) for ln, ld, bn, bd in kernels.simple_pl_values(*args, cands)]
        got, stops = [], []
        for start, cl, cb, rows in pieces:
            rows = list(rows)
            assert start == len(got) and cl > 0 and cb > 0 and rows
            got.extend((F(l, cl), F(b, cb)) for l, b in rows)
            stops.append(len(got))
            lengths.append(len(rows))
        assert got == want
        cuts = breakpoints(poly, F(a, d))
        on_break += sum(v in cuts for v in vs)
        for t in range(count - 1):
            split = any(vs[t] <= c < vs[t + 1] for c in cuts)
            assert split == (t + 1 in stops), (a, d, t)
    return lengths, on_break


def fraction_calls(run):
    """The calls into ``fractions`` made straight from ``destabilizer``
    code while ``run()`` runs: constructions, arithmetic, comparisons."""
    here, there = destabilizer.__file__, fractions.__file__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if (event == "call" and frame.f_code.co_filename == there
                and frame.f_back.f_code.co_filename == here):
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


class TestIntegerGrid:
    def test_fraction_work_does_not_grow_with_the_grid(self):
        # The grid, its refine rounds and the ranking run on integers; the
        # Fractions left are per polygon, per round and for the winner.
        poly = catalog("hexagon(2,3)")
        ext = invariants.extremal_field(poly)
        counts = [fraction_calls(lambda: scan(poly, ext, ScanConfig(m, offs, 2)))
                  for m, offs in ((12, 10), (48, 10), (12, 40), (96, 80))]
        assert len(set(counts)) == 1
        assert counts[0] > 0  # the per-round ratios are seen


class TestProfiles:
    """Per-direction profiles against the kernel on every grid offset."""

    WS = [(j, 24) for j in range(24)]

    def polygons(self):
        rng = random.Random(99)
        polys = [random_polygon(rng, radius=3) for _ in range(6)]
        polys += [random_polygon(rng, den=rng.choice((2, 3, 7)), radius=5) for _ in range(4)]
        polys += [catalog("cp2_2blowup"), catalog("hexagon(7/2,2)")]
        # Both base points, and rational vertices over vden > 1.
        assert {p.origin_interior for p in polys} == {True, False}
        assert any(c.denominator > 1 for p in polys for pt in p.vertices for c in pt)
        return polys

    def test_seeded_polygons(self):
        lengths, on_break = [], 0
        for poly in self.polygons():
            ext = invariants.extremal_field(poly)
            got = check_profiles(poly, ext, self.WS, 0, 40, 40)
            lengths += got[0]
            on_break += got[1]
        # Short pieces, all kernel samples, and long ones continued by
        # finite differences; and grid offsets exactly on a breakpoint.
        assert {1, 2, 3, 4, 5} <= set(lengths)
        assert max(lengths) >= 6
        assert on_break > 0

    def test_single_offset_and_offgrid_start(self):
        poly = catalog("cp2_2blowup")
        ext = invariants.extremal_field(poly)
        check_profiles(poly, ext, self.WS, 7, 21, 1)
        check_profiles(poly, ext, [(-1, 7), (5, 4)], 40, 180, 45)
        check_profiles(poly, ext, [(13, 70), (99, 50)], 150, 180, 30)

    def test_refine_round_progressions(self, monkeypatch):
        calls = []

        def recording(family, kernel_args, ws, p0, q, count):
            calls.append((ws, p0, q, count))
            return _profiles(family, kernel_args, ws, p0, q, count)

        monkeypatch.setattr(destabilizer, "_profiles", recording)
        for poly in self.polygons()[::3]:
            ext = invariants.extremal_field(poly)
            calls.clear()
            scan(poly, ext, ScanConfig(12, 30, 3))
            assert len(calls) == 4
            for ws, p0, q, count in calls:
                check_profiles(poly, ext, ws, p0, q, count)

    def test_rank_skips_missed_creases(self):
        # Offsets t / 40 up to t = 40, where the crease touches the top
        # vertex and B = 0.  _rank reads the profile iterators, counts
        # the rows with B > 0 and picks the first strict minimum, as a
        # Fraction loop over the kernel's rows does.
        q = 40
        continued_misses = 0
        for poly in self.polygons()[::2]:
            ext = invariants.extremal_field(poly)
            family = _crease_family(poly, scan_base(poly))
            args = _kernel_data(poly, ext)
            count, best = 0, None
            for j, (a, d) in enumerate(self.WS):
                sweep = family(a, d)
                rows = kernels.simple_pl_values(*args, [sweep.crease(t, q) for t in range(q + 1)])
                assert rows[q] == (0, 1, 0, 1)
                start = sweep.pieces(0, q, q + 1)[-1][0]
                continued_misses += q - start >= SAMPLES
                for t, (ln, ld, bn, bd) in enumerate(rows):
                    if bn:
                        count += 1
                        ratio = F(ln, ld) / F(bn, bd)
                        if best is None or ratio < best[0]:
                            best = (ratio, j, t)
            evaluated, pick = _rank(_profiles(family, args, self.WS, 0, q, q + 1), 1, 0)
            j, t, l, cl, b, cb = pick
            assert evaluated == count
            assert (F(l, cl) / F(b, cb), j, t) == best
            # Against that minimum as the incumbent nothing is picked.
            top = best[0]
            again = _rank(_profiles(family, args, self.WS, 0, q, q + 1),
                          top.numerator, top.denominator)
            assert again == (count, None)
        # Some missed crease lies past the kernel's samples of its piece.
        assert continued_misses > 0
