"""The exact elimination of ``_linalg`` against a ``Fraction`` Gaussian reference."""

import random
from fractions import Fraction

import pytest

from toricstab import _linalg

SIZES = range(1, 6)


def gauss(rows):
    """Reference: ``(rank, det)`` by Gaussian elimination in ``Fraction``,
    ``det`` None unless the matrix is square."""
    m = [[Fraction(a) for a in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    det, r = Fraction(1), 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        det *= m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r, (det if nrows == ncols else None)


def reference_solve(rows, rhs):
    """Reference: Gauss-Jordan on ``[A | b]`` in ``Fraction``, None when singular."""
    n = len(rows)
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for i in range(n):
            if i != c:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(row[n] for row in m)


def random_integer(rng, nrows, ncols, rank=None):
    """A random integer matrix, of the given rank at most when one is named:
    the product of random ``nrows x rank`` and ``rank x ncols`` factors."""
    if rank is None:
        return [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    left = random_integer(rng, nrows, rank)
    right = random_integer(rng, rank, ncols)
    return [[sum(left[i][t] * right[t][j] for t in range(rank)) for j in range(ncols)]
            for i in range(nrows)]


def random_rational(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def matrices(seed):
    """Square, tall and wide integer matrices of sizes 1 to 5, full rank and
    rank-deficient, some with a zero column or row."""
    rng = random.Random(seed)
    for nrows in SIZES:
        for ncols in SIZES:
            for _ in range(6):
                yield random_integer(rng, nrows, ncols)
            for rank in range(min(nrows, ncols)):
                yield random_integer(rng, nrows, ncols, rank)


def test_rank_against_reference():
    for rows in matrices("rank"):
        assert _linalg.rank(rows) == gauss(rows)[0], rows


def test_rank_of_no_rows():
    assert _linalg.rank([]) == 0


def test_det_of_no_rows():
    # The empty product: the measure of a 0-dimensional simplex.
    assert _linalg.det_int([]) == 1


def test_det_against_reference():
    singular = 0
    for rows in matrices("det"):
        if len(rows) == len(rows[0]):
            det = gauss(rows)[1]
            singular += det == 0
            assert _linalg.det_int(rows) == det, rows
    assert singular >= 15


def test_solve_against_reference():
    rng = random.Random("solve")
    singular = 0
    for n in SIZES:
        for rank in [n] * 12 + list(range(n)):
            ints = random_integer(rng, n, n, None if rank == n else rank)
            for rows in (ints, [[a + random_rational(rng) for a in row] for row in ints]):
                rhs = [random_rational(rng) for _ in range(n)]
                expected = reference_solve(rows, rhs)
                got = _linalg.solve(rows, rhs)
                assert got == expected, rows
                assert (got is None) == (gauss(rows)[1] == 0)
                if got is None:
                    singular += 1
                else:
                    assert all(isinstance(x, Fraction) for x in got)
                    assert [_linalg.dot(row, got) for row in rows] == rhs
    assert singular > 10


def test_adjugate_times_matrix_is_det_identity():
    rng = random.Random("adjugate")
    checked = 0
    for n in SIZES:
        for _ in range(20):
            rows = random_integer(rng, n, n)
            det = gauss(rows)[1]
            if det == 0:
                with pytest.raises(ValueError):
                    _linalg.adjugate(rows)
                continue
            adj, got = _linalg.adjugate(rows)
            assert got == det
            assert all(isinstance(a, int) for row in adj for a in row)
            for i in range(n):
                for j in range(n):
                    assert sum(adj[i][k] * rows[k][j] for k in range(n)) == det * (i == j)
            checked += 1
    assert checked > 60


def test_zero_leading_entry_forces_a_row_swap():
    # Each leading entry is 0 until a row swap brings a nonzero one up;
    # the permutation matrix has determinant -1 and its inverse its transpose.
    swap = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 0]]
    assert _linalg.det_int(swap) == -1
    assert _linalg.rank(swap) == 5
    adj, det = _linalg.adjugate(swap)
    assert det == -1
    assert adj == [[-a for a in col] for col in zip(*swap)]
    rhs = [Fraction(k, 3) for k in range(1, 6)]
    x = _linalg.solve(swap, rhs)
    assert [_linalg.dot(row, x) for row in swap] == rhs
    shifted = [[0, 2, 1, 0], [0, 0, 3, 1], [2, 1, 0, 0], [1, 0, 0, 5]]
    assert _linalg.det_int(shifted) == gauss(shifted)[1] != 0
    assert _linalg.solve(shifted, [1, 2, 3, 4]) == reference_solve(shifted, [1, 2, 3, 4])


def test_rank_skips_a_zero_column():
    # The first column is zero, so the pivots land in columns 1 and 3.
    rows = [[0, 1, 2, 3], [0, 2, 4, 7], [0, 3, 6, 10]]
    assert _linalg.rank(rows) == 2
    assert _linalg.det_int([[0, 1, 2, 3], [0, 2, 4, 7], [0, 3, 6, 10], [0, 1, 1, 1]]) == 0
