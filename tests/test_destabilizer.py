"""Crease scan: exactness, monotone refinement, and sanity on stable bodies."""

import fractions
import math
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
    _certified,
    _crease_family,
    _direction,
    _forward,
    _kernel_data,
    _profiles,
    _rank,
    _walk,
)
from toricstab.plfunc import AffineFunction, SimplePL, affine, zero_function

from helpers import hull_polygon, newton_rows, pack, random_polygon, reference_rank


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
            ScanConfig(offset_count=0)
        with pytest.raises(ValueError):
            ScanConfig(refine_rounds=-1)

    def test_equal_exactly_when_counts_are(self):
        assert ScanConfig() == ScanConfig(360, 100, 2)
        assert hash(ScanConfig(7, 5)) == hash((7, 5, 2))
        assert ScanConfig(7, 5) != ScanConfig(7, 5, 3)
        assert repr(ScanConfig(offset_count=8)) == (
            "ScanConfig(direction_count=360, offset_count=8, refine_rounds=2)")


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
    for field in ScanResult._fields:
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
    """Offsets in [0, 1) at which the crease of direction w passes a
    vertex, in Fractions from the vertices."""
    base = scan_base(poly)
    a1, a2 = direction(w)
    values = [a1 * x + a2 * y for x, y in poly.vertices]
    gbase = a1 * base[0] + a2 * base[1]
    top = max(values)
    return sorted({(g - gbase) / (top - gbase) for g in values if gbase <= g < top})


def check_profiles(poly, ext, ws, p0, q, count):
    """Every profile row equals ``simple_pl_values`` on the same crease,
    directions ``(a, d)`` in ``ws`` and offsets ``(p0 + t) / q``, the
    kernel puts every row of a piece over that piece's ``(cl, cb)``, and
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
        kernel = kernels.simple_pl_values(*args, cands)
        want = [(F(ln, ld), F(bn, bd)) for ln, ld, bn, bd in kernel]
        got, stops = [], []
        for start, size, cl, cb, ls, bs in pieces:
            assert len(ls) == len(bs) == min(size, SAMPLES)
            if size > SAMPLES:
                rows = list(_walk(*_forward(ls, bs), size))
            else:
                rows = list(zip(ls, bs))
            assert start == len(got) and cl > 0 and cb > 0 and rows
            assert all((ld, bd) == (cl, cb) for _, ld, _, bd in kernel[start:start + size])
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


def profiled_calls(run, wanted):
    """The number of profile events ``(frame, event, arg)`` that
    ``wanted`` accepts while ``run()`` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += wanted(frame, event, arg)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def fraction_calls(run):
    """The calls into ``fractions`` made straight from ``destabilizer``
    code while ``run()`` runs: constructions, arithmetic, comparisons."""
    here, there = destabilizer.__file__, fractions.__file__
    return profiled_calls(run, lambda frame, event, arg: (
        event == "call" and frame.f_code.co_filename == there
        and frame.f_back.f_code.co_filename == here))


def gcd_calls(run):
    """The ``math.gcd`` and ``math.lcm`` calls made straight from
    ``kernels`` or ``destabilizer`` code while ``run()`` runs."""
    here = {kernels.__file__, destabilizer.__file__}
    return profiled_calls(run, lambda frame, event, arg: (
        event == "c_call" and (arg is math.gcd or arg is math.lcm)
        and frame.f_code.co_filename in here))


class TestIntegerGrid:
    GRIDS = ((12, 10), (48, 10), (12, 40), (96, 80))

    def test_fraction_work_does_not_grow_with_the_grid(self):
        # The grid, its refine rounds and the ranking run on integers; the
        # Fractions left are per polygon, per round and for the winner.
        poly = catalog("hexagon(2,3)")
        ext = invariants.extremal_field(poly)
        counts = [fraction_calls(lambda: scan(poly, ext, ScanConfig(m, offs, 2)))
                  for m, offs in self.GRIDS]
        assert len(set(counts)) == 1
        assert counts[0] > 0  # the per-round ratios are seen

    def test_rows_are_not_reduced(self):
        # The kernel's rows stay over their crossing weights and a piece's
        # rows over its first row's denominators: the gcd and lcm calls
        # left are per kernel batch, not per row.
        poly = catalog("hexagon(2,3)")
        ext = invariants.extremal_field(poly)
        counts = [gcd_calls(lambda: scan(poly, ext, ScanConfig(m, offs, 2)))
                  for m, offs in self.GRIDS]
        assert len(set(counts)) == 1


def profile_polygons():
    """Seeded lattice and rational polygons and two catalog ones."""
    rng = random.Random(99)
    polys = [random_polygon(rng, radius=3) for _ in range(6)]
    polys += [random_polygon(rng, den=rng.choice((2, 3, 7)), radius=5) for _ in range(4)]
    polys += [catalog("cp2_2blowup"), catalog("hexagon(7/2,2)")]
    # Both base points, and rational vertices over vden > 1.
    assert {p.origin_interior for p in polys} == {True, False}
    assert any(c.denominator > 1 for p in polys for pt in p.vertices for c in pt)
    return polys


class TestProfiles:
    """Per-direction profiles against the kernel on every grid offset."""

    WS = [(j, 24) for j in range(24)]

    def polygons(self):
        return profile_polygons()

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

    def test_sweep_cuts_at_a_vertex_on_the_base_crease(self):
        # On cp2_1blowup the crease of direction (0, -1) through the origin
        # passes the vertex (-1, 0).  At v = 0 the kernel counts that vertex
        # in the region, after it not, so the crossed edges and the rows'
        # denominators change there.  A sweep without the breakpoint 0
        # joins the two runs, and _profiles refuses the piece.
        poly = catalog("cp2_1blowup")
        ext = invariants.extremal_field(poly)
        family = _crease_family(poly, scan_base(poly))
        sweep = family(0, 4)
        assert sweep.n1 == 0 < -sweep.n2 and sweep.breaks[0] == 0
        check_profiles(poly, ext, [(0, 4)], 0, 10, 10)

        def without_zero(a, d):
            sweep = family(a, d)
            return sweep._replace(breaks=[b for b in sweep.breaks if b])

        with pytest.raises(AssertionError, match="different denominators"):
            _profiles(without_zero, _kernel_data(poly, ext), [(0, 4)], 0, 10, 10)

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


def bernstein(coeffs, n):
    """The polynomial in ``t`` with the Bernstein coefficients ``coeffs``
    on ``[0, n]``, times ``n**degree``."""
    deg = len(coeffs) - 1
    return lambda t: sum(c * math.comb(deg, i) * t**i * (n - t) ** (deg - i)
                         for i, c in enumerate(coeffs))


def certificate_cases(rng):
    """Seeded ``(P, B, n, exact)``: a quartic ``P`` and a quadratic ``B``
    as functions on the integers, the range ``[0, n]``, and, when they
    are given in Bernstein form on it, whether every coefficient of ``P``
    is ``>= 0`` and every one of ``B`` is ``> 0`` (else None)."""
    for _ in range(2500):
        n = rng.choice((1, 2, 3, 4, 5, 6, 8, 11, rng.randint(12, 60), 2000))
        r, r2 = rng.randint(0, n), rng.randint(0, n)
        k, c = rng.choice((0, 0, 1, 5)), rng.randint(1, 3)
        kind = rng.randrange(5)
        if kind == 0:  # double roots at integers, a minimum of 0 at r
            p = lambda t, r=r, r2=r2, k=k, c=c: c * (t - r) ** 2 * ((t - r2) ** 2 + k)
        elif kind == 1:  # negative at the one integer r
            p = lambda t, r=r, r2=r2, k=k, c=c: (4 * c * (t - r) ** 2 - 1) * ((t - r2) ** 2 + k + 1)
        elif kind == 2:
            coeffs = [rng.randint(-40, 40) for _ in range(5)]
            p = lambda t, coeffs=coeffs: sum(a * t**i for i, a in enumerate(coeffs))
        else:  # Bernstein form, often a single negative coefficient
            beta = [rng.choice((0, 1, 2, 9)) for _ in range(5)]
            if rng.random() < 0.5:
                beta[rng.randrange(5)] = -rng.choice((1, 2))
            p = bernstein(beta, n)
        bkind = rng.randrange(4) if kind < 3 else 3
        if bkind == 0:  # zero at the integer r when k = 0
            b = lambda t, r=r, k=k: (t - r) ** 2 + k
        elif bkind == 1:  # negative at the one integer r
            b = lambda t, r=r: 4 * (t - r) ** 2 - 1
        elif bkind == 2:
            coeffs = [rng.randint(-9, 30), rng.randint(-9, 9), rng.randint(-3, 3)]
            b = lambda t, coeffs=coeffs: sum(a * t**i for i, a in enumerate(coeffs))
        else:
            gamma = [rng.choice((1, 2, 5)) for _ in range(3)]
            if rng.random() < 0.4:
                gamma[rng.randrange(3)] = rng.choice((0, -1))
            b = bernstein(gamma, n)
        exact = None
        if kind >= 3 and bkind == 3:
            exact = min(beta) >= 0 and min(gamma) > 0
        yield p, b, n, exact


class TestCertificate:
    """``_certified`` against brute force on seeded polynomials."""

    def test_sound_and_exact_on_bernstein_forms(self):
        rng = random.Random(2012)
        accepted = zero_at_integer = exact_cases = 0
        for p, b, n, exact in certificate_cases(rng):
            # The ranking's form: B and L = (P + y B0) / x with P = x P0
            # over B = x B0, so x L - y B = x P0.
            x, y = rng.choice((1, 2, 7)), rng.randint(-5, 5)
            ls = [p(t) + y * b(t) for t in range(SAMPLES)]
            bs = [x * b(t) for t in range(SAMPLES)]
            ok = _certified(x, y, *_forward(ls, bs), n + 1)
            if exact is not None:
                exact_cases += 1
                assert ok == exact, (n, exact)
            if ok:
                accepted += 1
                values = [p(t) for t in range(n + 1)]
                assert min(values) >= 0 and min(b(t) for t in range(n + 1)) > 0, n
                zero_at_integer += 0 in values
        assert accepted > 300 and zero_at_integer > 100 and exact_cases > 800


class TestPruning:
    """The pruned ranking against a walk of every row."""

    def test_same_count_and_pick_as_the_full_walk(self, monkeypatch):
        seen = []

        def recording(profiles, top_n, top_d):
            seen.append((profiles, top_n, top_d))
            return _rank(profiles, top_n, top_d)

        monkeypatch.setattr(destabilizer, "_rank", recording)
        rng = random.Random(17)
        for poly in profile_polygons():
            seen.clear()
            scan(poly, invariants.extremal_field(poly), ScanConfig(24, 40, 2))
            # The first round over the whole grid and the two refine rounds.
            assert len(seen) == 3
            for profiles, top_n, top_d in seen:
                ratios = [
                    (count > SAMPLES, Fraction(l * cb, cl * b))
                    for pieces in profiles
                    for start, count, cl, cb, ls, bs in pieces
                    for l, b in newton_rows(count, ls, bs) if b
                ]
                # Incumbents equal to a row's ratio: the least row's, and
                # rows of pieces long enough to be certified, where P
                # then vanishes at an integer.
                ties = {min(r for _, r in ratios),
                        *rng.sample([r for long, r in ratios if long], 3)}
                incumbents = {(1, 0), (top_n, top_d), (-1, 1), (-1, 10**9),
                              *((r.numerator, r.denominator) for r in ties)}
                for incumbent in incumbents:
                    got = _rank(profiles, *incumbent)
                    assert got == reference_rank(profiles, *incumbent), incumbent

    @pytest.mark.parametrize("name", ["cp2_2blowup", "hexagon(2,3)"])
    def test_default_scan_skips_most_rows(self, name, monkeypatch):
        rows = skipped = 0

        def profiles(*args):
            nonlocal rows
            got = _profiles(*args)
            rows += sum(piece[1] for pieces in got for piece in pieces)
            return got

        def certified(x, y, dl, db, count):
            nonlocal skipped
            ok = _certified(x, y, dl, db, count)
            skipped += count if ok else 0
            return ok

        monkeypatch.setattr(destabilizer, "_profiles", profiles)
        monkeypatch.setattr(destabilizer, "_certified", certified)
        poly = catalog(name)
        scan(poly, invariants.extremal_field(poly))
        assert 2 * skipped >= rows > 0
