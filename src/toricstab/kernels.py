"""Integer kernels for the two hot loops.

``simple_pl_values`` evaluates the stability functional and the boundary
integral for batches of single-crease candidates on a polygon, entirely
in integer arithmetic on pre-scaled data.  ``lattice_weighted_sum`` is
the bounding-box lattice scan.  Results are exact integers.
"""

import itertools
from math import gcd


def _norm(n, d):
    """Normalize an integer fraction with positive denominator."""
    if n == 0:
        return 0, 1
    g = gcd(abs(n), d)
    return n // g, d // g


def _add(an, ad, bn, bd):
    return _norm(an * bd + bn * ad, ad * bd)


def simple_pl_values(vxs, vys, vden, edges, wlin, wden, cands):
    """Exact functional and boundary values for single-crease candidates.

    The polygon has vertices ``(vxs[i], vys[i]) / vden`` in counterclockwise
    order.  ``edges`` rows are ``(i, j, lnum, lden)`` giving the boundary
    measure of each edge; ``wlin = (w0, w1, w2)`` with ``wden`` encodes the
    weight ``(w0 + w1 x + w2 y) / wden``.  Each candidate
    ``(g0, g1, g2, gden)`` is the crease function
    ``g = (g0 + g1 x + g2 y) / gden`` and the evaluated function is
    ``u = max(0, g)``.

    Returns ``(L_num, L_den, B_num, B_den)`` per candidate where ``B`` is
    the boundary integral of ``u`` and ``L = B - integral(w * u)``.
    """
    nv = len(vxs)
    w0, w1, w2 = wlin
    w0v = w0 * vden
    base_pts = [(vxs[i], vys[i], 1) for i in range(nv)]
    out = []
    for g0, g1, g2, gden in cands:
        g0v = g0 * vden
        ghat = [g1 * vxs[i] + g2 * vys[i] + g0v for i in range(nv)]
        gd = gden * vden

        # Boundary term: exact average of max(0, affine) along each edge.
        bn, bd = 0, 1
        for i, j, lnum, lden in edges:
            a = ghat[i]
            b = ghat[j]
            if a <= 0 and b <= 0:
                continue
            if a >= 0 and b >= 0:
                en, ed = a + b, 2
            elif a > 0:
                en, ed = a * a, 2 * (a - b)
            else:
                en, ed = b * b, 2 * (b - a)
            bn, bd = _add(bn, bd, lnum * en, lden * ed)
        bn, bd = _norm(bn, bd * gd)

        # Volume term: integral of w * g over the clipped region {g >= 0},
        # one fan triangle at a time with the exact midpoint rule.
        an, ad = 0, 1
        clipped = _clip(base_pts, ghat, g1, g2, g0v)
        if len(clipped) >= 3:
            x0, y0, q0 = clipped[0]
            for t in range(1, len(clipped) - 1):
                x1, y1, q1 = clipped[t]
                x2, y2, q2 = clipped[t + 1]
                det3 = (
                    x0 * (y1 * q2 - y2 * q1)
                    - y0 * (x1 * q2 - x2 * q1)
                    + q0 * (x1 * y2 - x2 * y1)
                )
                if det3 == 0:
                    continue
                sn, sd = 0, 1
                for (ax, ay, aw), (bx, by, bw) in (
                    ((x0, y0, q0), (x1, y1, q1)),
                    ((x0, y0, q0), (x2, y2, q2)),
                    ((x1, y1, q1), (x2, y2, q2)),
                ):
                    mx = ax * bw + bx * aw
                    my = ay * bw + by * aw
                    mw = 2 * aw * bw
                    whom = w1 * mx + w2 * my + w0v * mw
                    ghom = g1 * mx + g2 * my + g0v * mw
                    sn, sd = _add(sn, sd, whom * ghom, mw * mw)
                an, ad = _add(an, ad, det3 * sn, 6 * q0 * q1 * q2 * sd)
        an, ad = _norm(an, ad * wden * gden * vden**4)

        ln_, ld_ = _add(bn, bd, -an, ad)
        out.append((ln_, ld_, bn, bd))
    return out


def _clip(pts, vals, g1, g2, g0v):
    """Clip a convex CCW polygon to {g >= 0}; homogeneous integer output."""
    m = len(pts)
    out = []
    for idx in range(m):
        nxt = idx + 1 if idx + 1 < m else 0
        p, a = pts[idx], vals[idx]
        q, b = pts[nxt], vals[nxt]
        if a >= 0:
            out.append(p)
        if (a > 0 > b) or (a < 0 < b):
            rx = a * q[0] - b * p[0]
            ry = a * q[1] - b * p[1]
            rw = a * q[2] - b * p[2]
            if rw < 0:
                rx, ry, rw = -rx, -ry, -rw
            g = gcd(gcd(abs(rx), abs(ry)), rw)
            if g > 1:
                rx //= g
                ry //= g
                rw //= g
            out.append((rx, ry, rw))
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
