"""Integer kernels for the two hot loops.

``simple_pl_values`` evaluates the stability functional and the boundary
integral for batches of single-crease candidates on a polygon, entirely
in integer arithmetic on pre-scaled data.  Each candidate's two sums run
over denominators fixed by its crossing points, so a candidate costs two
``gcd`` calls, the two that reduce its results.  With ``q1`` and ``q2``
the weights ``|a - b|`` of the crease's at most two crossing points, the
boundary sum is over ``2 eden gden vden q1 q2`` (``eden`` the ``lcm`` of
the edge lengths' denominators) and the volume sum over ``24 wden gden
vden**4 (q1 q2)**2``: the region ``{g >= 0}`` is fanned from its first
polygon vertex, so the triangles of polygon vertices stay over the
vertex integers and only the at most two triangles with a crossing point
carry ``q``'s.  The crease's linear part at the vertices is computed once
per run of candidates with the same ``(g1, g2, gden)``.  The crease scan
calls it once per round, on the first few offsets of each piece of each
direction's profile, a direction's candidates next to each other; they
come unreduced from the scan's integer grid, direction ``a / d`` and
offset ``p / q`` as integers over ``d**2 q`` times the vertex
denominator.  The scan continues every piece from these exact samples by
finite differences, so the kernel's rows must be exact at every offset
it is given.  ``lattice_weighted_sum`` is the bounding-box lattice scan.
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
    order.  ``edges`` rows are ``(i, i + 1 mod m, lnum, lden)`` in that
    order, giving the boundary measure ``lnum / lden`` of each edge;
    ``wlin = (w0, w1, w2)`` with ``wden`` encodes the weight
    ``(w0 + w1 x + w2 y) / wden``.  Each candidate ``(g0, g1, g2, gden)``
    with ``gden > 0`` is the crease function ``g = (g0 + g1 x + g2 y) /
    gden`` and the evaluated function is ``u = max(0, g)``.  A candidate
    need not be in lowest terms: every positive multiple of it gives the
    same row.

    Returns ``(L_num, L_den, B_num, B_den)`` per candidate, each pair in
    lowest terms with a positive denominator, where ``B`` is the boundary
    integral of ``u`` and ``L = B - integral(w * u)``.

    One pass over the edges finds the boundary sum and the region ``{g >=
    0}``: the polygon vertices ``s, s + 1, .., e`` (cyclically) and at most
    two crossing points, the exit one on the edge ``(e, e + 1)`` and the
    entry one on ``(s - 1, s)``.  The boundary sum holds the edge lengths
    over the ``lcm`` of their denominators, and each crossed edge adds its
    weight ``|a - b|``.  The region is fanned from ``s``: the triangles of
    polygon vertices give a linear form in the crease's vertex values,
    kept per ``(s, e)``, and the at most two triangles with a crossing
    point, where ``g = 0``, put the volume sum over ``q_exit**2 *
    q_entry**2`` times the vertices' ``24 wden gden vden**4``.
    """
    w0, w1, w2 = wlin
    w0v = w0 * vden
    nv = len(vxs)
    # The weight at each vertex, scaled by wden * vden.
    what = [w1 * x + w2 * y + w0v for x, y in zip(vxs, vys)]
    eden = lcm(*[row[3] for row in edges])
    # The length of the edge into each vertex, over eden.
    into = [lnum * (eden // lden) for _, _, lnum, lden in edges[-1:] + edges[:-1]]

    def det(s, j, k):
        """Twice the signed area of the triangle ``(s, j, k)``, over ``vden**2``."""
        xs, ys = vxs[s], vys[s]
        return (vxs[j] - xs) * (vys[k] - ys) - (vxs[k] - xs) * (vys[j] - ys)

    fans = {}

    def fan(s, e):
        """The vertices ``s .. e`` fanned from ``s``.

        On a triangle, ``integral(w * g)`` is ``det / 24`` times ``sum w_i
        g_i + (sum w_i) (sum g_i)`` over its corners, so over the triangles
        ``(s, j, j + 1)`` it is ``sum c_u * g_u``: ``form`` holds the pairs
        ``(u, c_u)``.  Also returned: ``e + 1``, ``s - 1`` and the dets of
        ``(s, e, e + 1)``, ``(s, e, s - 1)`` and ``(s, e + 1, s - 1)``,
        which the crossing triangles scale.
        """
        coef = [0] * nv
        ws = what[s]
        for j in range(s + 1, s + (e - s) % nv):
            j %= nv
            k = (j + 1) % nv
            d = det(s, j, k)
            sw = ws + what[j] + what[k]
            coef[s] += d * (ws + sw)
            coef[j] += d * (what[j] + sw)
            coef[k] += d * (what[k] + sw)
        f, p = (e + 1) % nv, (s - 1) % nv
        form = [(u, c) for u, c in enumerate(coef) if c]
        fans[s, e] = entry = (form, f, p, det(s, e, f), det(s, e, p), det(s, f, p))
        return entry

    out = []
    run = None
    for g0, g1, g2, gden in cands:
        if run != (g1, g2, gden):
            # A scan hands over each direction's rows together.
            run = (g1, g2, gden)
            lin = [g1 * x + g2 * y for x, y in zip(vxs, vys)]
            bden = 2 * eden * gden * vden
            aden = 24 * wden * gden * vden**4
        g0v = g0 * vden
        # The crease at each vertex, scaled by gden * vden.
        ghat = [v + g0v for v in lin]

        # Boundary term: exact average of max(0, affine) along each edge,
        # (a + b) / 2 on an edge where g >= 0 and a^2 / (2 (a - b)) on an
        # edge that g crosses from a > 0 to b < 0.  The same pass finds the
        # region's run of vertices s .. e and the crossings' weights
        # q = a - b (0 for none).
        full = 0
        cn, cd = 0, 1
        s, e = 0, nv - 1
        qo = qi = 0
        a = ghat[-1]
        for k, b in enumerate(ghat):
            if a >= 0:
                if b >= 0:
                    full += into[k] * (a + b)
                else:
                    e = (k or nv) - 1
                    if a > 0:
                        qo = a - b
                        cn = cn * qo + into[k] * a * a * cd
                        cd *= qo
            elif b >= 0:
                s = k
                if b > 0:
                    qi = a - b
                    cn = cn * -qi + into[k] * b * b * cd
                    cd *= -qi
            a = b
        if not full and cd == 1:
            out.append((0, 1, 0, 1))  # g <= 0 on the polygon: u = 0
            continue
        bn, bd = _reduced(full * cd + cn, bden * cd)

        # Volume term: integral of w * g over the region, fanned from s.  A
        # crossing X on the edge (i, k) is (a V_k - b V_i) / q; from V_s it
        # is q (X - V_s) = a (V_k - V_s) - b (V_i - V_s), its weight is
        # (a what[k] - b what[i]) / q and g(X) = 0.  So the triangle
        # (s, e, X_exit) has det g_e det(s, e, e + 1) / q_exit, the
        # triangle (s, X_exit, X_entry) one over q_exit q_entry, and each
        # over its q's once more in its weight sum.
        form, f, p, d_ef, d_ep, d_fp = fans.get((s, e)) or fan(s, e)
        total = 0
        for u, c in form:
            total += c * ghat[u]
        ad = aden
        gs, ws = ghat[s], what[s]
        if qo:
            ge, gf, we = ghat[e], ghat[f], what[e]
            wo = ge * what[f] - gf * we
            total = total * qo * qo + ge * d_ef * (
                qo * (ws * gs + we * ge) + (qo * (ws + we) + wo) * (gs + ge))
            ad *= qo * qo
            if qi:
                wi = ghat[p] * ws - gs * what[p]
                total = total * qi * qi - gs * (ge * d_fp - gf * d_ep) * gs * (
                    2 * qo * qi * ws + qi * wo + qo * wi)
                ad *= qi * qi
        elif qi:
            # No exit crossing, so g_e = 0.
            wi = ghat[p] * ws - gs * what[p]
            total = total * qi * qi - gs * d_ep * gs * (qi * (2 * ws + what[e]) + wi)
            ad *= qi * qi

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
