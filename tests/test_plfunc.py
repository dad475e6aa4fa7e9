"""Convex piecewise-linear functions: construction, normalization, queries."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstab import catalog, is_affine, make_pl
from toricstab.errors import EmptyPieceList, OutsideDomain
from toricstab.geometry import HalfSpace, intersect
from toricstab.plfunc import AffineFunction, SimplePL, affine, zero_function

from helpers import primitivize


def F(a, b=1):
    return Fraction(a, b)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def random_point_in(rng, poly):
    """Rejection-sample a rational point of the closed polytope."""
    lows = [min(v[j] for v in poly.vertices) for j in range(poly.dim)]
    highs = [max(v[j] for v in poly.vertices) for j in range(poly.dim)]
    while True:
        x = tuple(
            lo + Fraction(rng.randint(0, 64), 64) * (hi - lo)
            for lo, hi in zip(lows, highs)
        )
        if poly.contains(x):
            return x


class TestMakePL:
    def test_two_cells_split_at_crease(self, square):
        u = make_pl([affine((1, 0), 0), zero_function(2)], square)
        assert len(u.pieces) == 2
        assert len(u.cells) == 2
        assert sum(c.region.volume for c in u.cells) == square.volume

    def test_three_piece_band(self, square):
        u = make_pl(
            [affine((1, 1), -1), zero_function(2), affine((-1, -1), -1)],
            square,
        )
        assert len(u.cells) == 3
        assert sum(c.region.volume for c in u.cells) == 4

    def test_duplicate_pieces_merged(self, square):
        u = make_pl([affine((1, 0), 0), affine((1, 0), 0)], square)
        assert len(u.pieces) == 1
        assert len(u.cells) == 1

    def test_dominated_piece_dropped(self, square):
        u = make_pl([affine((1, 0), 0), affine((1, 0), -1)], square)
        assert len(u.pieces) == 1

    def test_empty_pieces_rejected(self, square):
        with pytest.raises(EmptyPieceList):
            make_pl([], square)


class TestEvaluate:
    def test_positive_side(self, square):
        u = make_pl([zero_function(2), affine((1, 0), 0)], square)
        assert u.evaluate((F(1, 2), F(-1))) == F(1, 2)

    def test_zero_side(self, square):
        u = make_pl([zero_function(2), affine((1, 0), 0)], square)
        assert u.evaluate((-1, 0)) == 0

    def test_tie_on_crease(self, pentagon):
        u = make_pl([affine((1, 1), -1), zero_function(2)], pentagon)
        assert u.evaluate((1, 0)) == 0

    def test_outside_domain_rejected(self, square):
        u = make_pl([zero_function(2)], square)
        with pytest.raises(OutsideDomain):
            u.evaluate((2, 0))


class TestQueries:
    def test_is_affine_single_active_piece(self, square):
        assert is_affine(make_pl([affine((1, 0), 0), affine((1, 0), -1)], square))

    def test_is_affine_false_for_crease(self, square):
        assert not is_affine(make_pl([zero_function(2), affine((1, 0), 0)], square))

    def test_crease_missing_domain_is_affine(self, square):
        assert is_affine(make_pl([zero_function(2), affine((1, 0), -2)], square))

    def test_is_rational(self, square):
        for pieces in (
            [affine((1, 0), 0)],
            [SimplePL(affine((2, -3), F(1, 2))).crease, zero_function(2)],
            [affine((1, 1), -1), zero_function(2), affine((-1, -1), -1)],
        ):
            u = make_pl(pieces, square)
            assert all(isinstance(c, Fraction)
                       for piece in u.pieces for c in (*piece.gradient, piece.constant))


class TestConvexity:
    @settings(max_examples=60, deadline=None)
    @given(
        gx=rationals, gy=rationals, c=rationals,
        hx=rationals, hy=rationals, d=rationals,
        t=st.fractions(min_value=0, max_value=1, max_denominator=16),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_segment_inequality(self, pentagon, gx, gy, c, hx, hy, d, t, seed):
        u = make_pl(
            [AffineFunction((gx, gy), c), AffineFunction((hx, hy), d)], pentagon
        )
        rng = random.Random(seed)
        x = random_point_in(rng, pentagon)
        y = random_point_in(rng, pentagon)
        mid = tuple(t * a + (1 - t) * b for a, b in zip(x, y))
        assert u.evaluate(mid) <= t * u.evaluate(x) + (1 - t) * u.evaluate(y)


def _reference_cells(pieces, domain):
    """``(piece, region)`` per cell of the maximum, cut the ``Fraction``
    way: each difference of pieces taken in ``Fraction``s, its gradient
    made primitive and the bound scaled to match."""
    unique = list(dict.fromkeys(pieces))
    out = []
    for p in unique:
        cuts = []
        for q in unique:
            if q is p:
                continue
            grad = [a - b for a, b in zip(p.gradient, q.gradient)]
            const = p.constant - q.constant
            if not any(grad):
                if const < 0:
                    break
                continue
            prim, s = primitivize(grad)
            cuts.append(HalfSpace(tuple(-c for c in prim), s * const))
        else:
            region = intersect(domain, cuts)
            if region is not None:
                out.append((p, region))
    return out


class TestIntegerCuts:
    """``make_pl`` cuts by the integer differences of the pieces' forms."""

    @pytest.mark.parametrize("name", ["cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup",
                                      "cp2_3blowup", "hexagon(2,3)"])
    def test_against_fraction_reference(self, name):
        domain = catalog(name)
        rng = random.Random(f"integer-cuts-{name}")

        def coefficient():
            # Half the coefficients are plain ints.
            if rng.random() < 0.5:
                return rng.randint(-3, 3)
            return Fraction(rng.randint(-12, 12), rng.randint(1, 6))

        for _ in range(25):
            pieces = [AffineFunction((coefficient(), coefficient()), coefficient())
                      for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                pieces.append(rng.choice(pieces))  # a duplicate
            if rng.random() < 0.5:
                p = rng.choice(pieces)  # the same gradient, another constant
                pieces.append(AffineFunction(p.gradient, p.constant + Fraction(rng.randint(-4, 4), 3)))
            rng.shuffle(pieces)
            u = make_pl(pieces, domain)
            reference = _reference_cells(pieces, domain)
            assert [c.piece for c in u.cells] == [p for p, _ in reference]
            for cell, (_, region) in zip(u.cells, reference):
                assert cell.region.halfspaces == region.halfspaces
                assert all(type(c) is int for h in cell.region.halfspaces for c in h.normal)
                assert all(type(h.bound) is Fraction for h in cell.region.halfspaces)


class TestAffineForm:
    @pytest.mark.parametrize("gradient, constant", [
        ((2, -3), 5),
        ((F(1, 2), F(-2, 3)), F(5, 7)),
        ((1, F(3, 4)), 0),
        ((0, 0), F(-1, 6)),
        ((F(7, 3),), 2),
        ((1, -1, F(1, 5)), F(2, 9)),
    ])
    def test_evaluate_matches_fraction_arithmetic(self, gradient, constant):
        f = AffineFunction(gradient, constant)
        rng = random.Random(f"evaluate-{gradient}-{constant}")
        for _ in range(20):
            x = tuple(rng.choice((rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 8))))
                      for _ in gradient)
            want = sum((Fraction(g) * c for g, c in zip(gradient, x)), Fraction(constant))
            got = f.evaluate(x)
            assert got == want
            assert type(got) is Fraction

    def test_form_is_built_once(self):
        f = affine((1, F(1, 2)), F(-1, 3))
        assert f.form is f.form
        assert f.form.terms == {(0, 0): F(-1, 3), (1, 0): 1, (0, 1): F(1, 2)}
