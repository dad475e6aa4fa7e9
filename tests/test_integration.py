"""Exact integration and lattice sums, checked against independent oracles."""

import ast
import itertools
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from toricstab import (
    Polynomial,
    boundary_integral,
    ehrhart_residual,
    integrate_polynomial,
    make_pl,
    pl_lattice_sum,
)
from toricstab import _linalg, build_polytope, catalog, halfspace
from toricstab.errors import ScaleOverflow
from toricstab.geometry import _simplex_moments, intersect
from toricstab.integration import _form_integral, integrate_pl
from toricstab.invariants import average_scalar_curvature
from toricstab.plfunc import affine, zero_function
from toricstab.reproduce import random_convex_pl

from helpers import (
    DegenerateSimplex,
    affine_rank,
    body_simplices,
    cells_across,
    facet_faces,
    primitivize,
    push_forward,
    random_polygon,
    simplex_halfspaces,
    simplex_measures,
    simplex_volume,
    unimodular,
)

SOURCE = Path(__file__).resolve().parent.parent / "src" / "toricstab"


def F(a, b=1):
    return Fraction(a, b)


def brute_lattice(poly, k):
    """Oracle: direct box enumeration with Fraction membership tests."""
    lows = []
    highs = []
    for j in range(poly.dim):
        values = [k * v[j] for v in poly.vertices]
        lows.append(min(values))
        highs.append(max(values))
    out = []
    import math

    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in zip(lows, highs)]
    for point in itertools.product(*ranges):
        if all(
            sum(c * p for c, p in zip(h.normal, point)) <= k * h.bound
            for h in poly.halfspaces
        ):
            out.append(point)
    return out


def _simplex_body(*verts):
    return build_polytope(simplex_halfspaces(verts))


class TestMonomialSimplex:
    def test_standard_simplex_volume(self):
        s = _simplex_body((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
        assert integrate_polynomial(s, Polynomial.constant(2, 1)) == F(1, 2)

    def test_standard_simplex_coordinate(self):
        s = _simplex_body((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
        assert integrate_polynomial(s, Polynomial.coordinate(2, 0)) == F(1, 6)

    def test_big_triangle_square_monomial(self):
        # Iterated-integral oracle: int_{-1}^{2} x^2 (2 - x) dx = 9/4.
        s = _simplex_body((F(-1), F(-1)), (F(2), F(-1)), (F(-1), F(2)))
        assert integrate_polynomial(s, Polynomial(2, {(2, 0): 1})) == F(9, 4)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(DegenerateSimplex):
            _simplex_body((F(0), F(0)), (F(1), F(1)), (F(2), F(2)))


def _random_simplex(rng, k, n):
    """k + 1 affinely independent rational points in R^n."""
    while True:
        verts = tuple(
            tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
            for _ in range(k + 1)
        )
        if affine_rank(verts) == k:
            return verts


def _random_polynomial(rng, n, degree):
    """Random coefficients on every monomial of ``degree`` and most lower ones."""
    terms = {}
    for alpha in itertools.product(range(degree + 1), repeat=n):
        if sum(alpha) <= degree and (sum(alpha) == degree or rng.random() < 0.7):
            terms[alpha] = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return Polynomial(n, terms)


def _simplex_integral(verts, f, k, measure):
    """``f`` over one k-simplex of this measure, from the simplex's moments."""
    q, points = _linalg.over_common_denominator(verts)
    return _form_integral(_simplex_moments(k, q, 1, [(1, points)]), f) * measure


def _monomial_over_simplex(verts, alpha, k, measure):
    """Oracle: the barycentric formula on a k-simplex of known k-measure.

    Expands ``x^alpha`` with ``x = sum lambda_i v_i`` into barycentric
    monomials and applies
    ``integral of prod lambda^beta = k! * measure * prod(beta!) / (k+|beta|)!``.
    """
    expansion = {(0,) * len(verts): F(1)}
    for j, power in enumerate(alpha):
        for _ in range(power):
            product = {}
            for beta, c in expansion.items():
                for i, v in enumerate(verts):
                    key = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    product[key] = product.get(key, F(0)) + c * v[j]
            expansion = product
    total = F(0)
    for beta, coeff in expansion.items():
        weight = F(factorial(k), factorial(k + sum(beta)))
        for b in beta:
            weight *= factorial(b)
        total += coeff * weight
    return total * measure


def _substitution_integral(verts, f, k, measure):
    """Oracle: pull f back to the standard k-simplex, integrate by Dirichlet.

    With ``x = v_0 + sum_i lambda_i (v_i - v_0)`` the integral is
    ``k! * measure * sum_beta c_beta * beta! / (k + |beta|)!``.
    """
    base = verts[0]
    coords = [
        Polynomial.affine(k, [v[j] - base[j] for v in verts[1:]], base[j])
        for j in range(len(base))
    ]
    pulled = Polynomial.constant(k, 0)
    for alpha, coeff in f.terms.items():
        term = Polynomial.constant(k, coeff)
        for x, power in zip(coords, alpha):
            for _ in range(power):
                term = term * x
        pulled = pulled + term
    total = F(0)
    for beta, coeff in pulled.terms.items():
        weight = F(factorial(k), factorial(k + sum(beta)))
        for b in beta:
            weight *= factorial(b)
        total += coeff * weight
    return total * measure


# (k, n): full-dimensional simplices and facet simplices (k = n - 1),
# points included (k = 0, the facets in 1-D).
SIMPLEX_SHAPES = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (0, 1), (0, 2), (0, 3)]


class TestQuadraticRule:
    """The closed-form simplex moments that integrate degree 2 exactly."""

    @pytest.mark.parametrize("k,n", SIMPLEX_SHAPES)
    def test_matches_monomial_expansion(self, k, n):
        rng = random.Random(f"quadratic-{k}-{n}")
        for _ in range(20):
            verts = _random_simplex(rng, k, n)
            measure = F(rng.randint(1, 30), rng.randint(1, 7))
            f = _random_polynomial(rng, n, 2)
            assert f.degree() == 2
            expected = sum(
                (c * _monomial_over_simplex(verts, a, k, measure) for a, c in f.terms.items()),
                F(0),
            )
            assert _simplex_integral(verts, f, k, measure) == expected

    @pytest.mark.parametrize("k,n", SIMPLEX_SHAPES)
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_against_pullback_oracle(self, k, n, degree):
        rng = random.Random(f"pullback-{k}-{n}-{degree}")
        for _ in range(5):
            verts = _random_simplex(rng, k, n)
            measure = F(rng.randint(1, 30), rng.randint(1, 7))
            f = _random_polynomial(rng, n, degree)
            assert _simplex_integral(verts, f, k, measure) == _substitution_integral(
                verts, f, k, measure
            )

    @pytest.mark.parametrize("k,n", SIMPLEX_SHAPES)
    def test_degree_one_table(self, k, n):
        # Stopping at degree 1 keeps the same integrals of affine functions.
        rng = random.Random(f"degree-one-{k}-{n}")
        for _ in range(10):
            verts = _random_simplex(rng, k, n)
            q, points = _linalg.over_common_denominator(verts)
            scale = rng.randint(1, 9)
            low = _simplex_moments(k, q, scale, [(1, points)], 1)
            assert set(low[1]) == {()} | {(j,) for j in range(n)}
            f = _random_polynomial(rng, n, 1)
            assert _form_integral(low, f) == _form_integral(
                _simplex_moments(k, q, scale, [(1, points)]), f)


def _naive_value(f, x):
    """Oracle: the term-by-term ``Fraction`` evaluation."""
    total = F(0)
    for alpha, coeff in f.terms.items():
        value = F(coeff)
        for xj, aj in zip(x, alpha):
            value *= F(xj) ** aj
        total += value
    return total


def _random_point(rng, n):
    kind = rng.choice(["int", "fraction", "integer-valued fraction"])
    if kind == "int":
        return tuple(rng.randint(-9, 9) for _ in range(n))
    if kind == "fraction":
        return tuple(F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n))
    return tuple(F(rng.randint(-9, 9)) for _ in range(n))


class TestPolynomialArithmetic:
    """Integer-numerator evaluation, the unvalidated arithmetic results and
    the degree cap."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_evaluate_matches_naive(self, n):
        rng = random.Random(f"evaluate-{n}")
        for degree in range(3):
            for _ in range(15):
                f = _random_polynomial(rng, n, degree)
                for _ in range(4):
                    x = _random_point(rng, n)
                    value = f.evaluate(x)
                    assert isinstance(value, Fraction)
                    assert value == _naive_value(f, x)
        zero = Polynomial(n)
        assert zero.evaluate(_random_point(rng, n)) == 0
        assert isinstance(zero.evaluate((1,) * n), Fraction)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_equal_the_validated_path(self, n):
        rng = random.Random(f"arithmetic-{n}")
        for _ in range(40):
            degree = rng.randint(0, 2)
            f = _random_polynomial(rng, n, degree)
            g = _random_polynomial(rng, n, rng.randint(0, 2 - degree))
            scalar = rng.choice([0, 3, -2, F(-5, 7), F(0)])
            results = [f + g, f - g, f * g, f * scalar, scalar * f,
                       f - f, f + f * -1, f + 2, f - F(1, 3)]
            for result in results:
                validated = Polynomial(n, result.terms)
                assert result.terms == validated.terms
                assert all(type(c) is Fraction for c in result.terms.values())
            x = _random_point(rng, n)
            fx, gx = _naive_value(f, x), _naive_value(g, x)
            assert (f + g).evaluate(x) == fx + gx
            assert (f - g).evaluate(x) == fx - gx
            assert (f * g).evaluate(x) == fx * gx
            assert (f * scalar).evaluate(x) == fx * scalar
            assert (f - f).terms == {}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_affine_equals_the_validated_path(self, n):
        rng = random.Random(f"affine-{n}")
        for _ in range(40):
            gradient = [rng.choice([0, 2, -1, F(3, 4), F(0)]) for _ in range(n)]
            constant = rng.choice([0, 5, F(-7, 3)])
            terms = {(0,) * n: constant}
            for j, g in enumerate(gradient):
                terms[tuple(int(i == j) for i in range(n))] = g
            f = Polynomial.affine(n, gradient, constant)
            assert list(f.terms.items()) == list(Polynomial(n, terms).terms.items())
            assert all(type(c) is Fraction for c in f.terms.values())
            # The integer numerators, also of a difference and a constant.
            for p, grad, const in ((f, gradient, constant),
                                   (f - Polynomial.coordinate(n, 0) * F(1, 6),
                                    [gradient[0] - F(1, 6), *gradient[1:]], constant),
                                   (Polynomial.constant(n, constant), [0] * n, constant)):
                d, numerators, c = p.affine_numerators()
                assert d > 0 and all(type(g) is int for g in (*numerators, c))
                assert [F(g, d) for g in numerators] == grad and F(c, d) == const
        with pytest.raises(ValueError):
            Polynomial.affine(n, [1] * (n + 1), 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_cap(self, n):
        for alpha in itertools.product(range(4), repeat=n):
            if sum(alpha) == 3:
                with pytest.raises(ValueError):
                    Polynomial(n, {alpha: F(1, 2)})
        x = Polynomial.coordinate(n, 0)
        with pytest.raises(ValueError):
            x * x * x
        with pytest.raises(ValueError):
            (x * x + 1) * (x - 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cancelled_terms(self, n):
        x = Polynomial.coordinate(n, n - 1)
        square = (x + 1) * (x - 1)
        assert dict(square.terms) == {(0,) * (n - 1) + (2,): 1, (0,) * n: -1}
        assert square.degree() == 2
        assert all(square.terms.values())
        for p in (square, x, x * x * F(3, 4) + 2, Polynomial.constant(n, 5)):
            for zero in (p - p, p + p * -1, p * 0, p * F(0)):
                assert dict(zero.terms) == {}
                assert zero.degree() == 0
                assert zero.evaluate((F(1, 3),) * n) == 0
        # A monomial that cancelled does not count towards a product's degree.
        linear = (x * x + x) - x * x
        assert linear.degree() == 1
        assert dict((linear * linear).terms) == dict((x * x).terms)
        with pytest.raises(TypeError):
            square.terms[(0,) * n] = 1


def _rational_bodies(rng, n, count):
    """Seeded bodies in R^n with rational vertices, each followed by its
    cells under random cuts; every third body is a single simplex."""
    for i in range(count):
        if i % 3 == 0:
            body = build_polytope(simplex_halfspaces(_random_simplex(rng, n, n)))
        elif n == 2:
            body = random_polygon(rng, den=rng.choice((1, 2, 3, 7)))
        else:
            rows = []
            for j in range(n):
                lo = F(rng.randint(-6, 2), rng.randint(1, 3))
                e = tuple(int(i == j) for i in range(n))
                rows.append(halfspace(e, lo + F(rng.randint(1, 9), rng.randint(1, 2))))
                rows.append(halfspace(tuple(-c for c in e), -lo))
            body = build_polytope(rows)
        yield body
        for _ in range(2):
            while True:
                normal = tuple(rng.randint(-3, 3) for _ in range(n))
                if any(normal):
                    break
            normal, _ = primitivize(normal)
            values = sorted(_linalg.dot(normal, v) for v in body.vertices)
            bound = values[0] + (values[-1] - values[0]) * F(rng.randint(1, 11), 12)
            cell = intersect(body, [halfspace(normal, bound)])
            if cell is not None:
                yield cell


class TestOneDenominatorSums:
    """Volume and boundary integrals summed over one denominator per body
    or facet, against the per-simplex rules and the pull-back oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_volume_against_per_simplex_sums(self, n):
        # The integrands come from their own stream, so the bodies do not
        # depend on how many are drawn; bodies 0 and 3 are simplices.
        rng = random.Random(f"volume-integral-{n}")
        draws = random.Random(f"volume-integrands-{n}")
        single = 0
        for poly in _rational_bodies(rng, n, 12 if n == 2 else 4):
            simplices = [(s, simplex_volume(s)) for s in body_simplices(poly)]
            single += len(simplices) == 1
            volume = sum(m for _, m in simplices)
            assert poly.volume == volume
            assert poly.barycenter == tuple(
                sum(m * sum(v[j] for v in s) for s, m in simplices) / ((n + 1) * volume)
                for j in range(n)
            )
            for degree in range(3):
                f = _random_polynomial(draws, n, degree)
                value = integrate_polynomial(poly, f)
                assert isinstance(value, Fraction)
                assert value == sum(
                    (_simplex_integral(s, f, n, m) for s, m in simplices), F(0))
                assert value == sum(
                    (_substitution_integral(s, f, n, m) for s, m in simplices), F(0))
        assert single >= 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_against_per_simplex_sums(self, n):
        rng = random.Random(f"boundary-integral-{n}")
        for poly in _rational_bodies(rng, n, 9 if n == 2 else 2):
            pieces = []
            for facet in poly.facets:
                faces = facet_faces(facet, n)
                assert len(faces) == len(simplex_measures(facet))
                pieces += zip(faces, simplex_measures(facet))
            for degree in range(3):
                f = _random_polynomial(rng, n, degree)
                value = boundary_integral(poly, f)
                assert isinstance(value, Fraction)
                assert value == sum(
                    (_simplex_integral(s, f, n - 1, m) for s, m in pieces), F(0))
                assert value == sum(
                    (_substitution_integral(s, f, n - 1, m) for s, m in pieces), F(0))

    def test_zero_polynomial(self, pentagon):
        assert integrate_polynomial(pentagon, Polynomial(2)) == 0
        assert boundary_integral(pentagon, Polynomial(2)) == 0


class TestPolynomialIntegral:
    def test_square_x1_squared(self, square):
        assert integrate_polynomial(square, Polynomial(2, {(2, 0): 1})) == F(4, 3)

    def test_pentagon_first_moment(self, pentagon):
        assert integrate_polynomial(pentagon, Polynomial.coordinate(2, 0)) == F(-1, 3)

    def test_cp2_volume(self, cp2):
        assert integrate_polynomial(cp2, Polynomial.constant(2, 1)) == F(9, 2)

    def test_linearity(self, pentagon):
        rng = random.Random(7)
        f = Polynomial(2, {(2, 0): F(1, 3), (1, 1): F(-2)})
        g = Polynomial(2, {(0, 1): F(5, 2), (0, 0): F(1)})
        for _ in range(10):
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            b = F(rng.randint(-9, 9), rng.randint(1, 9))
            lhs = integrate_polynomial(pentagon, f * a + g * b)
            rhs = a * integrate_polynomial(pentagon, f) + b * integrate_polynomial(
                pentagon, g
            )
            assert lhs == rhs

    def test_additivity_over_subdivision(self, pentagon):
        f = Polynomial(2, {(2, 0): F(1), (1, 1): F(1, 2), (0, 0): F(-3)})
        cells = cells_across(pentagon, [((1, 0), F(-1, 3)), ((1, -2), 0)])
        assert len(cells) == 4
        total = sum(integrate_polynomial(c, f) for c in cells)
        assert total == integrate_polynomial(pentagon, f)

    def test_monte_carlo_oracle(self, pentagon):
        # Statistical oracle for degree-2 monomials: sample mean times the
        # volume should sit within three standard errors of the exact value.
        numpy = pytest.importorskip("numpy")
        rng = numpy.random.default_rng(42)
        samples = 100_000
        xs = rng.uniform(-1.0, 1.0, size=(4 * samples, 2))
        inside = (
            (xs[:, 0] <= 1) & (xs[:, 1] <= 1)
            & (xs[:, 0] >= -1) & (xs[:, 1] >= -1)
            & (xs[:, 0] + xs[:, 1] <= 1)
        )
        pts = xs[inside][:samples]
        vol = float(pentagon.volume)
        for alpha in ((2, 0), (1, 1), (0, 2)):
            values = pts[:, 0] ** alpha[0] * pts[:, 1] ** alpha[1]
            mean = values.mean()
            sigma = values.std(ddof=1) / numpy.sqrt(len(values))
            exact = float(integrate_polynomial(pentagon, Polynomial(2, {alpha: 1})))
            assert abs(exact - mean * vol) <= 3 * sigma * vol


class TestBoundaryIntegral:
    def test_square_perimeter(self, square):
        assert boundary_integral(square, Polynomial.constant(2, 1)) == 8

    def test_cp2_lattice_perimeter(self, cp2):
        assert boundary_integral(cp2, Polynomial.constant(2, 1)) == 9

    def test_pentagon_first_moment(self, pentagon):
        assert boundary_integral(pentagon, Polynomial.coordinate(2, 0)) == -1

    def test_pl_restriction(self, square):
        u = make_pl([zero_function(2), affine((1, 0), 0)], square)
        assert boundary_integral(square, u) == 3

    def test_consistency_with_curvature_average(self, cp2, square, pentagon):
        for poly in (cp2, square, pentagon):
            ratio = boundary_integral(poly, Polynomial.constant(2, 1)) / (
                integrate_polynomial(poly, Polynomial.constant(2, 1))
            )
            assert ratio == average_scalar_curvature(poly)


def _pl_domains(rng):
    """The catalog, then seeded rational polygons, intervals, 3-D boxes and
    simplices, each followed by its cells under random cuts."""
    for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup",
                 "hexagon(2,3)", "hexagon(7/2,2)"):
        yield catalog(name)
    for n, count in ((1, 6), (2, 12), (3, 6)):
        yield from _rational_bodies(rng, n, count)


class TestAffineFacetMoments:
    """A PL boundary integral reads only the facets' moments of degree <= 1."""

    def test_entries_match_the_full_moments(self):
        rng = random.Random("affine-facet-moments")
        checked = {1: 0, 2: 0, 3: 0}
        for poly in _pl_domains(rng):
            u = random_convex_pl(rng, poly)
            for facet in [f for cell in u.cells for f in cell.region.facets] + list(poly.facets):
                d1, low = facet._affine_moments
                d2, full = facet._moments
                assert list(low) == [key for key in full if len(key) <= 1]
                for key, value in low.items():
                    assert Fraction(value, d1) == Fraction(full[key], d2)
                assert facet.measure == Fraction(full[()], d2)
                checked[poly.dim] += 1
        assert min(checked.values()) >= 20

    def test_pl_boundary_integral_against_full_moments(self):
        rng = random.Random("affine-boundary-integral")
        split = 0
        for poly in _pl_domains(rng):
            u = random_convex_pl(rng, poly)
            outer = set(poly.halfspaces)
            expected = sum((_form_integral(facet._moments, cell.piece.form)
                            for cell in u.cells for facet in cell.region.facets
                            if facet.halfspace in outer), F(0))
            assert boundary_integral(poly, u) == expected
            split += len(u.cells) > 1
        assert split >= 20


class TestLatticePoints:
    """The count of :func:`pl_lattice_sum`, which the ``ehrhart`` command prints."""

    @staticmethod
    def count(poly, k):
        return pl_lattice_sum(poly, zero_function(poly.dim), k).count

    def test_square_counts(self, square):
        assert self.count(square, 1) == 9
        assert self.count(square, 10) == 441

    def test_cp2_count(self, cp2):
        assert self.count(cp2, 1) == 10

    def test_matches_brute_enumeration(self, pentagon, cp2):
        # A weight with distinct values on these points checks which points
        # were counted, not only how many.
        for poly in (pentagon, cp2):
            for k in (1, 3, 7):
                points = brute_lattice(poly, k)
                out = pl_lattice_sum(poly, affine((1, 64), 0), k)
                assert out.count == len(points)
                assert out.weighted_sum == sum((F(i + 64 * j, k) for i, j in points), F(0))

    def test_budget_guard(self, square):
        with pytest.raises(ScaleOverflow):
            self.count(square, 10**6)

    def test_count_at_least_vertices(self, cp2, square, pentagon):
        for poly in (cp2, square, pentagon):
            for k in (1, 2, 5):
                integral_vertices = sum(
                    1
                    for v in poly.vertices
                    if all((k * c).denominator == 1 for c in v)
                )
                assert self.count(poly, k) >= integral_vertices


class TestPLLatticeSum:
    def test_square_crease_sum(self, square):
        phi = make_pl([zero_function(2), affine((1, 0), 0)], square)
        out = pl_lattice_sum(square, phi, 10)
        assert out.count == 441
        assert out.weighted_sum == F(231, 2)

    def test_square_constant(self, square):
        phi = make_pl([affine((0, 0), 1)], square)
        assert pl_lattice_sum(square, phi, 5).weighted_sum == 121

    def test_cp2_affine_sum(self, cp2):
        # Brute enumeration over the ten points of the unscaled triangle.
        phi = make_pl([affine((1, 1), 0)], cp2)
        expected = sum(
            Fraction(i + j) for i, j in brute_lattice(cp2, 1)
        )
        out = pl_lattice_sum(cp2, phi, 1)
        assert out.count == 10
        assert out.weighted_sum == expected == 0

    def test_matches_pointwise_evaluation(self, pentagon):
        phi = make_pl(
            [affine((1, -1), F(1, 2)), affine((-2, 1), 0), zero_function(2)],
            pentagon,
        )
        for k in (2, 5):
            expected = sum(
                (phi.evaluate((F(i, k), F(j, k))) for i, j in brute_lattice(pentagon, k)),
                F(0),
            )
            assert pl_lattice_sum(pentagon, phi, k).weighted_sum == expected


def corner_simplex(rng):
    """A seeded simplex ``x_j >= -a_j``, ``x1 + x2 + x3 <= b`` with bounds in
    quarters from 1 to 2, as the benchmark's 3-D lattice requests draw them."""
    lo = [F(rng.randint(4, 8), 4) for _ in range(3)]
    rows = [halfspace(tuple(-int(i == j) for i in range(3)), lo[j]) for j in range(3)]
    return build_polytope(rows + [halfspace((1, 1, 1), F(rng.randint(4, 8), 4))])


class TestLatticeSumInvariance:
    """The count and the weighted sum of :func:`pl_lattice_sum` do not change
    when the polytope and the weight are pushed forward together by a map of
    GL(n, Z) and a translation ``t`` with ``k t`` integral: the map carries
    the lattice points of ``k P`` one to one onto those of the image.  The
    image's box and lines differ from the original's, so this oracle shares
    neither with the kernel nor with a brute-force loop."""

    def test_pushed_forward_sums(self):
        rng = random.Random("lattice-sum-maps")
        bodies = [(catalog(name), (1, 4, 9, 20)) for name in (
            "cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup", "hexagon(2,3)")]
        # Rational polygons at k not divisible by their denominators have
        # lattice points on some facets of k P and not on others.
        bodies += [(random_polygon(rng, den=den), (1, 2, 5)) for den in (1, 2, 3, 2, 3, 5)]
        bodies += [(corner_simplex(rng), (1, 2, 3)) for _ in range(4)]
        moved_points = set()
        for poly, scales in bodies:
            u = random_convex_pl(rng, poly)
            for k in scales:
                expected = pl_lattice_sum(poly, u, k)
                for _ in range(2):
                    a = unimodular(rng, poly.dim)
                    t = tuple(F(rng.randint(-2 * k, 2 * k), k) for _ in range(poly.dim))
                    moved, pushed = push_forward(poly, u, a, t)
                    got = pl_lattice_sum(moved, pushed, k)
                    assert (got.count, got.weighted_sum) == (expected.count, expected.weighted_sum)
                    moved_points.add((poly.dim, got.count > 0))
        # Polygons and simplices with points were moved; so were some
        # rational polygons whose k P holds no lattice point.
        assert moved_points == {(2, True), (2, False), (3, True)}


class TestEhrhartResidual:
    def test_square_crease_exact_half(self, square):
        phi = make_pl([zero_function(2), affine((1, 0), 0)], square)
        for k in (10, 25, 50):
            assert ehrhart_residual(square, phi, k) == F(1, 2)

    def test_square_constant_is_one(self, square):
        phi = make_pl([affine((0, 0), 1)], square)
        for k in (1, 2, 7, 19):
            assert ehrhart_residual(square, phi, k) == 1

    def test_bounded_over_scales(self, cp2):
        phi = make_pl([zero_function(2), affine((1, 0), 0)], cp2)
        residuals = [abs(ehrhart_residual(cp2, phi, k)) for k in range(1, 51)]
        assert max(residuals) <= 2

    def test_integrate_pl_agrees_with_cellwise(self, pentagon):
        phi = make_pl([zero_function(2), affine((1, 0), 0)], pentagon)
        direct = sum(
            (
                integrate_polynomial(
                    cell.region,
                    Polynomial.affine(2, cell.piece.gradient, cell.piece.constant),
                )
                for cell in phi.cells
            ),
            F(0),
        )
        assert integrate_pl(phi) == direct


class TestIntegerFormBoundary:
    def test_no_other_module_reads_integration_internals(self):
        # The integer form of a polynomial is private to ``integration``;
        # other modules may reach only ``_form_integral`` there, which the
        # cone form needs for moments that come from no polytope.
        allowed = {"_form_integral"}
        for path in sorted(SOURCE.glob("*.py")):
            if path.name == "integration.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("integration"):
                    names = {alias.name for alias in node.names}
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "integration"):
                    names = {node.attr}
                else:
                    continue
                leaked = {name for name in names if name.startswith("_")} - allowed
                assert not leaked, (path.name, sorted(leaked))
