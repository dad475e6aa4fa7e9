"""Exact linear algebra on small rational matrices.

Everything here is sized for the ambient dimensions the rest of the
library supports (1 to 3) plus the occasional (n)x(n) moment system.
Determinants and solves clear denominators first and then work on
integers (fraction-free elimination), so no intermediate rounding can
occur; results come back as ``Fraction``.
"""

from fractions import Fraction
from math import lcm


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def clear_row_denominators(row):
    """Scale a rational row to integers; returns the integer row."""
    mult = lcm(*[entry.denominator for entry in row])
    return [entry.numerator * (mult // entry.denominator) for entry in row]


def over_common_denominator(points):
    """``(q, integer_points)`` with each rational point equal to its integer point / q.

    ``q`` is the least common denominator of every coordinate of every
    point, so exact work on the points can run on integers and build one
    ``Fraction`` at the end.
    """
    # lcm gets a list, not a generator, here and below: CPython builds the
    # argument tuple of a generator oversized and shrinks it, and the shrunk
    # tuples pile up in its tuple free lists (about 1 MB over a long run).
    q = lcm(*[c.denominator for p in points for c in p])
    return q, [[c.numerator * (q // c.denominator) for c in p] for p in points]


def det_int(rows):
    """Determinant of a small integer matrix (Bareiss for n > 3)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def solve(rows, rhs):
    """Solve a square rational system exactly.

    Returns a tuple of ``Fraction`` or None when the matrix is singular.
    Rows are scaled to integers and the solve runs on integer
    determinants (Cramer), which keeps the elimination fraction-free.
    """
    n = len(rows)
    mat = []
    vec = []
    for row, b in zip(rows, rhs):
        ints = clear_row_denominators(list(row) + [b])
        mat.append(ints[:-1])
        vec.append(ints[-1])
    d = det_int(mat)
    if d == 0:
        return None
    sol = []
    for j in range(n):
        cols = [
            [mat[i][k] if k != j else vec[i] for k in range(n)]
            for i in range(n)
        ]
        sol.append(Fraction(det_int(cols), d))
    return tuple(sol)


def rank(rows):
    """Rank of an integer matrix by fraction-free Gaussian elimination.

    A pivot row eliminates below it by integer cross-multiplication.
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        for i in range(r + 1, nrows):
            f = m[i][c]
            if f != 0:
                m[i] = [top[c] * a - f * b for a, b in zip(m[i], top)]
        r += 1
        if r == nrows:
            break
    return r


def cross_generalized(rows, n):
    """Integer vector orthogonal to n-1 integer row vectors in R^n via signed minors.

    For n = 2 this rotates the single row by a quarter turn, for n = 3 it
    is the cross product.  Returns the zero vector when the rows are
    dependent.  Callers with rational rows write them over a common
    denominator first, which scales the result by a positive integer.
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
    """Adjugate and determinant of a square integer matrix of size >= 2."""
    n = len(rows)
    adj = [
        [
            (-1) ** (i + j) * det_int(
                [[r[k] for k in range(n) if k != i] for idx, r in enumerate(rows) if idx != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    return adj, sum(a * adj[k][0] for k, a in enumerate(rows[0]))


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
