"""Exact linear algebra on small integer and rational matrices.

Everything here is sized for the ambient dimensions the rest of the
library supports (1 to 3) and the small systems built on them: the
second-moment solve for the extremal potential and the best-origin LP.
There is one elimination, :func:`_eliminate`, the forward pass of
Bareiss's fraction-free Gaussian elimination: every entry it leaves is a
minor of its input, so each division is exact and no rational forms.
:func:`rank` counts its pivots and :func:`det_int` reads its last pivot
(closed forms cover n <= 3).  :func:`solve` and :func:`adjugate` run it
over the augmented rows ``[A | b]`` and ``[A | I]``, and only they
back-substitute (:func:`_solve_integer`).  Rational input goes over one
common denominator first; results become ``Fraction`` only at the end.
"""

from fractions import Fraction
from math import lcm
from operator import mul


def dot(u, v):
    return sum(map(mul, u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def over_common_denominator(points):
    """``(q, integer_points)`` with each rational point equal to its integer point / q.

    ``q`` is the least common denominator of every coordinate of every
    point, so exact work on the points can run on integers and build one
    ``Fraction`` at the end.
    """
    # lcm gets a list, not a generator: CPython builds the argument tuple of
    # a generator oversized and shrinks it, and the shrunk tuples pile up in
    # its tuple free lists (about 1 MB over a long run).
    q = lcm(*[c.denominator for p in points for c in p])
    return q, [[c.numerator * (q // c.denominator) for c in p] for p in points]


def _eliminate(rows, width):
    """Forward fraction-free (Bareiss) elimination of integer rows.

    Each of the first ``width`` columns takes as pivot its first nonzero
    entry at or below the current row, swapped up, or is skipped.  A pivot
    replaces each row below by ``(pivot * row - row[c] * pivot_row) /
    previous pivot``, exact as every entry is then a minor of the swapped
    input (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22 (1968)).  Returns ``(m, rank,
    sign)``, ``sign`` that of the row swaps; with ``width`` pivots the last
    is the determinant of the swapped leading ``width`` columns.
    """
    m = [list(row) for row in rows]
    sign, prev, r = 1, 1, 0
    for c in range(width):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        top = m[r]
        pivot = top[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(pivot * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = pivot
        r += 1
    return m, r, sign


def _solve_integer(rows, n):
    """``(det * X, det)`` for the integer system ``[A | B]`` with ``A`` its
    first n columns, or None when ``A`` is singular.

    :func:`_eliminate` runs forward, then back-substitution on integers
    with ``det = det(A)``: ``det * X = adj(A) B`` is an integer matrix, so
    each division is exact.  ``X`` comes back one row per unknown.
    """
    m, r, sign = _eliminate(rows, n)
    if r < n:
        return None
    det = sign * m[-1][n - 1]
    y = [None] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        y[k] = [(det * b - sum(row[j] * y[j][c] for j in range(k + 1, n))) // row[k]
                for c, b in enumerate(row[n:])]
    return y, det


def det_int(rows):
    """Determinant of a small integer matrix: 1 for the empty one, closed
    forms for n <= 3, else the last pivot of :func:`_eliminate`, signed by
    its row swaps."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m, r, sign = _eliminate(rows, n)
    return sign * m[-1][-1] if r == n else 0


def solve(rows, rhs):
    """Solve a square rational system exactly.

    Returns a tuple of ``Fraction`` or None when the matrix is singular.
    The rows ``[A | b]`` go over one common denominator to
    :func:`_solve_integer`.
    """
    _, system = over_common_denominator([[*row, b] for row, b in zip(rows, rhs)])
    out = _solve_integer(system, len(rows))
    return None if out is None else tuple(Fraction(y, out[1]) for (y,) in out[0])


def rank(rows):
    """Rank of an integer matrix: the pivot count of :func:`_eliminate`."""
    return _eliminate(rows, len(rows[0]) if rows else 0)[1]


def cross_generalized(rows, n):
    """Integer vector orthogonal to n-1 integer row vectors in R^n via signed minors.

    For n = 2 this rotates the single row by a quarter turn, for n = 3 it
    is the cross product.  Returns the zero vector when the rows are
    dependent.  Callers with rational rows write them over a common
    denominator first, which scales the result by a positive integer.
    In the library only ``geometry._check_bounded`` calls it, for the
    direction of an unbounded edge; every measure is a :func:`det_int`.
    """
    if len(rows) != n - 1:
        raise ValueError("need exactly n-1 rows")
    if n == 1:
        return (1,)
    out = []
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows]
        d = det_int(minor)
        out.append(d if j % 2 == 0 else -d)
    return tuple(out)


def adjugate(rows):
    """Adjugate and determinant of a nonsingular square integer matrix:
    :func:`_solve_integer` of ``[A | I]``."""
    n = len(rows)
    out = _solve_integer([[*row, *(int(i == j) for j in range(n))]
                          for i, row in enumerate(rows)], n)
    if out is None:
        raise ValueError("singular matrix")
    return out


def lp_minimize(rows, rhs, objectives, basis):
    """Lexicographic minimum of a small LP ``rows z <= rhs``, exact.

    ``rows`` and the cost vectors in ``objectives`` are integer and
    ``rhs`` rational; the objectives are minimised in turn, each later one
    breaking ties among minimisers of the earlier ones.  ``basis`` names d
    rows (d the number of unknowns) that are linearly independent and
    tight at a feasible starting vertex.  The simplex method walks from
    vertex to vertex, releasing one tight row per step; Bland's rule
    (smallest row index when releasing, smallest index among tied
    blocking rows) rules out cycling on degenerate vertices.  The
    objectives must be bounded below on the feasible set.  Returns the
    optimal vertex.

    The pivots are fraction-free.  ``rhs`` goes over one denominator
    ``D``, and the basis matrix is held as its adjugate ``adj`` and
    determinant ``det``, so the vertex is ``adj rhs_B / (det D)`` on
    integer numerators and each slack is an integer over ``|det| D``,
    with the ratio test cross-multiplied.  Replacing basis row ``r`` by
    the row ``a`` makes ``det' = a . adj[:, r]``; column ``r`` of the
    adjugate stays, and every other column ``q`` becomes
    ``(det' adj[:, q] - (a . adj[:, q]) adj[:, r]) / det``, an exact
    division.  Each coordinate becomes a ``Fraction`` only at the end.
    Calling :func:`adjugate` at every pivot instead would save ten lines,
    but made ``geometry._best_origin`` 1.5 times slower on small lattice
    polygons (0.28-0.31 against 0.18-0.20 ms, Python 3.11, 2-core x86-64).
    """
    basis = list(basis)
    d = len(basis)
    denominator, scaled = over_common_denominator((rhs,))
    (rhs,) = scaled
    zero = (0,) * len(objectives)
    adj, det = adjugate([rows[k] for k in basis])
    while True:
        sign = 1 if det > 0 else -1
        z = [sum(adj[p][q] * rhs[basis[q]] for q in range(d)) for p in range(d)]
        # Releasing tight row q moves along -adj[:, q] / det, and each
        # objective c changes by -(c . adj[:, q]) / det per unit of slack.
        release = None
        for q in sorted(range(d), key=basis.__getitem__):
            rate = tuple(-sign * sum(c[p] * adj[p][q] for p in range(d)) for c in objectives)
            if rate < zero:
                release = q
                break
        if release is None:
            return tuple(Fraction(zp, det * denominator) for zp in z)
        # A positive multiple of the edge direction, in integers; a row's
        # slack is its numerator over |det| D, and the step length to it
        # the slack over its growth, compared by cross-multiplying.
        step = [-sign * adj[p][release] for p in range(d)]
        enter, best_slack, best_growth = None, None, None
        for k, row in enumerate(rows):
            g = dot(row, step)
            if g > 0 and k not in basis:
                slack = sign * (rhs[k] * det - dot(row, z))
                if enter is None or slack * best_growth < best_slack * g:
                    enter, best_slack, best_growth = k, slack, g
        if enter is None:
            raise ValueError("objective is unbounded below")
        a = rows[enter]
        column = [adj[p][release] for p in range(d)]
        new_det = dot(a, column)
        for q in range(d):
            if q != release:
                f = sum(a[p] * adj[p][q] for p in range(d))
                for p in range(d):
                    adj[p][q] = (new_det * adj[p][q] - f * column[p]) // det
        basis[release] = enter
        det = new_det
