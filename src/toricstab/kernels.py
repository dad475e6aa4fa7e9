"""Integer kernels for the two hot loops.

``simple_pl_values`` evaluates the stability functional and the boundary
integral for batches of single-crease candidates on a polygon, entirely
in integer arithmetic on pre-scaled data.  Each candidate's two sums run
over one denominator fixed before the sum starts (the edge lengths over
the ``lcm`` of their denominators, the clipped polygon over the product
of its crossing weights), so a candidate costs two ``gcd`` calls, the
two that reduce its results.  The crease scan calls it once per round,
on the first few offsets of each piece of each direction's profile; the
candidates come unreduced from the scan's integer grid, direction
``a / d`` and offset ``p / q`` as integers over ``d**2 q`` times the
vertex denominator.  The scan continues every piece from these exact
samples by finite differences, so the kernel's rows must be exact at
every offset it is given.  ``lattice_weighted_sum`` is the bounding-box lattice scan.
Results are exact integers.
"""

import itertools
from math import gcd, lcm


def _reduced(n, d):
    """Lowest terms of ``n / d`` for ``d > 0``; zero is ``(0, 1)``."""
    g = gcd(n, d)
    return n // g, d // g


def simple_pl_values(vxs, vys, vden, edges, wlin, wden, cands):
    """Exact functional and boundary values for single-crease candidates.

    The polygon has vertices ``(vxs[i], vys[i]) / vden`` in counterclockwise
    order.  ``edges`` rows are ``(i, j, lnum, lden)`` giving the boundary
    measure of each edge; ``wlin = (w0, w1, w2)`` with ``wden`` encodes the
    weight ``(w0 + w1 x + w2 y) / wden``.  Each candidate
    ``(g0, g1, g2, gden)`` with ``gden > 0`` is the crease function
    ``g = (g0 + g1 x + g2 y) / gden`` and the evaluated function is
    ``u = max(0, g)``.  A candidate need not be in lowest terms: every
    positive multiple of it gives the same row.

    Returns ``(L_num, L_den, B_num, B_den)`` per candidate, each pair in
    lowest terms with a positive denominator, where ``B`` is the boundary
    integral of ``u`` and ``L = B - integral(w * u)``.

    The boundary sum holds the edge lengths over the ``lcm`` of their
    denominators; only the at most two edges the crease crosses add a
    denominator of their own.  The volume sum scales the clipped polygon
    to one denominator, the product of its crossing points' weights, and
    adds the fan triangles' midpoint rules as plain integers.
    """
    w0, w1, w2 = wlin
    w0v = w0 * vden
    nv = len(vxs)
    nxt = list(range(1, nv)) + [0]
    # The weight at each vertex, scaled by wden * vden.
    what = [w1 * x + w2 * y + w0v for x, y in zip(vxs, vys)]
    eden = lcm(*[row[3] for row in edges])
    elens = [(i, j, lnum * (eden // lden)) for i, j, lnum, lden in edges]
    out = []
    for g0, g1, g2, gden in cands:
        g0v = g0 * vden
        # The crease at each vertex, scaled by gden * vden.
        ghat = [g1 * x + g2 * y + g0v for x, y in zip(vxs, vys)]

        # Boundary term: exact average of max(0, affine) along each edge,
        # (a + b) / 2 on an edge where g >= 0 and a^2 / (2 (a - b)) on an
        # edge that g crosses from a > 0 to b < 0.
        full = 0
        cn, cd = 0, 1
        for i, j, length in elens:
            a = ghat[i]
            b = ghat[j]
            if a <= 0 and b <= 0:
                continue
            if a >= 0 and b >= 0:
                full += length * (a + b)
            else:
                if a < 0:
                    a, b = b, a
                cn = cn * (a - b) + length * a * a * cd
                cd *= a - b
        bn, bd = _reduced(full * cd + cn, 2 * eden * gden * vden * cd)

        # Volume term: integral of w * g over the clipped region {g >= 0}.
        # Vertices of the region are ``(x, y, q)``: polygon vertices with
        # q = 1, crossing points with their weight q = |a - b|.
        clipped = []
        scale = 1
        for idx in range(nv):
            a = ghat[idx]
            if a >= 0:
                clipped.append((vxs[idx], vys[idx], 1, what[idx], a))
            k = nxt[idx]
            b = ghat[k]
            if (a > 0 > b) or (a < 0 < b):
                q = a - b
                rx = a * vxs[k] - b * vxs[idx]
                ry = a * vys[k] - b * vys[idx]
                if q < 0:
                    rx, ry, q = -rx, -ry, -q
                clipped.append((rx, ry, q, w1 * rx + w2 * ry + w0v * q, 0))
                scale *= q
        total = 0
        if len(clipped) >= 3:
            # Over the common denominator ``scale``: coordinates, and the
            # weight and crease values (the crease is 0 where it crosses).
            pts = []
            for x, y, q, wv, gv in clipped:
                f = scale // q
                pts.append((x * f, y * f, wv * f, gv * f))
            x0, y0, wa, ga = pts[0]
            for t in range(1, len(pts) - 1):
                x1, y1, wb, gb = pts[t]
                x2, y2, wc, gc = pts[t + 1]
                det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
                # Midpoint rule: area / 3 times the sum of w * g at the
                # edge midpoints, which are sums of the endpoint values.
                total += det * (
                    (wa + wb) * (ga + gb)
                    + (wa + wc) * (ga + gc)
                    + (wb + wc) * (gb + gc)
                )
        ad = 24 * scale**4 * wden * gden * vden**4

        # L = B - A over the product of the two denominators.
        ln_, ld_ = _reduced(bn * ad - total * bd, bd * ad)
        out.append((ln_, ld_, bn, bd))
    return out


def lattice_weighted_sum(dim, lows, highs, rows, table, k):
    """Scan the integer box, filter by the constraint rows, sum the weight.

    ``rows`` are ``(normal, rhs)`` pairs encoding ``<normal, I> <= rhs``.
    ``table`` rows ``(A, C)`` are affine pieces with integer data; the
    weight at a point is ``max over pieces of (<A, I> + C * k)`` and the
    caller divides the returned numerator by the common denominator.
    """
    count = 0
    total = 0
    ranges = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
    for point in itertools.product(*ranges):
        ok = True
        for m, r in rows:
            s = 0
            for mj, pj in zip(m, point):
                s += mj * pj
            if s > r:
                ok = False
                break
        if not ok:
            continue
        count += 1
        best = None
        for a_row, c in table:
            v = c * k
            for aj, pj in zip(a_row, point):
                v += aj * pj
            if best is None or v > best:
                best = v
        total += best if best is not None else 0
    return count, total
