"""Integer kernels for the two hot loops.

``simple_pl_values`` evaluates the stability functional and the boundary
integral for batches of single-crease candidates on a polygon, entirely
in integer arithmetic on pre-scaled data.  Each candidate's two sums run
over denominators fixed by its crossing points, and its results stay
over them unreduced, so a candidate makes no ``gcd`` call.  Whenever
the crease ``g`` is negative at some polygon vertex and not at another,
it crosses the boundary exactly twice, and either crossing may sit on a
vertex where ``g = 0``.  With ``q1`` and ``q2`` the weights ``|a - b|``
of the two crossings (``g`` is ``a`` and ``b`` at the crossed edge's
ends), the boundary sum is over ``2 eden gden vden q1 q2`` (``eden`` the
``lcm`` of the edge lengths' denominators) and the volume sum over ``24
wden gden vden**4 (q1 q2)**2``: the region ``{g >= 0}`` is fanned from
its first polygon vertex, so the triangles of polygon vertices stay over
the vertex integers and only the two triangles with a crossing point
carry ``q``'s.  The crease's linear part at the vertices is computed once
per run of candidates with the same ``(g1, g2, gden)``.  The crease scan
calls it once per round, on the first few offsets of each piece of each
direction's profile, a direction's candidates next to each other; they
come unreduced from the scan's integer grid, direction ``a / d`` and
offset ``p / q`` as integers over ``d**2 q`` times the vertex
denominator.  The scan continues every piece from these exact samples by
finite differences, so the kernel's rows must be exact at every offset
it is given, and it reads one piece's rows over one pair of
denominators: along a piece the same vertices have ``g >= 0``, so the
same edges are crossed.

``lattice_weighted_sum`` counts the integer points of a body given by
integer rows and sums a max-of-affine weight over them.  It walks lines
along the last coordinate: at each integer point of the other
coordinates' box, the rows give the line's integer interval of the last
coordinate by one floor or ceiling each, so it visits no point outside
the body and tests no row per point.  Results are exact integers.
"""

import itertools
from math import lcm


def simple_pl_values(vxs, vys, vden, edges, wlin, wden, cands):
    """Exact functional and boundary values for single-crease candidates.

    The polygon has vertices ``(vxs[i], vys[i]) / vden`` in counterclockwise
    order.  ``edges`` rows are ``(lnum, lden)``, one per edge from vertex
    ``i`` to ``i + 1 mod m`` in that order, giving its boundary measure
    ``lnum / lden``; ``wlin = (w0, w1, w2)`` with ``wden`` encodes the weight
    ``(w0 + w1 x + w2 y) / wden``.  Each candidate ``(g0, g1, g2, gden)``
    with ``gden > 0`` is the crease function ``g = (g0 + g1 x + g2 y) /
    gden`` and the evaluated function is ``u = max(0, g)``.  A candidate
    need not be in lowest terms: every positive multiple of it gives a
    row of the same values.

    Returns ``(L_num, L_den, B_num, B_den)`` per candidate, each pair
    exact but not reduced, with a positive denominator, where ``B`` is
    the boundary integral of ``u`` and ``L = B - integral(w * u)``.  With
    ``q = q_exit q_entry`` (1 without crossings) ``B`` is over ``2 eden
    gden vden q`` and ``L`` over ``both gden vden q**2``, ``both`` the
    ``lcm`` of ``2 eden`` and ``24 wden vden**3``, so the denominators of
    a candidate depend only on ``(g1, g2, gden)`` and on which vertices
    have ``g >= 0``.  A crease that misses the polygon gives ``(0, 1, 0,
    1)``.

    One pass over the edges finds the boundary sum and the region ``{g >=
    0}``: the polygon vertices ``s, s + 1, .., e`` (cyclically) and the
    crossing points.  Whenever some vertex has ``g < 0`` and another ``g
    >= 0`` there are exactly two, the exit one on the edge ``(e, e + 1)``
    and the entry one on ``(s - 1, s)``, and either may sit on the vertex
    ``e`` or ``s`` where ``g = 0``; then it adds nothing to the sums but
    its weight.  The boundary sum holds the edge lengths over the ``lcm``
    of their denominators, and each crossed edge adds its weight ``|a -
    b|``.  The region is fanned from ``s``: the triangles of polygon
    vertices give a linear form in the crease's vertex values, kept per
    ``(s, e)``, and the two triangles with a crossing point, where ``g =
    0``, put the volume sum over ``q_exit**2 * q_entry**2`` times the
    vertices' ``24 wden gden vden**4``.  ``g <= 0`` on every vertex is
    the row of ``u = 0``.
    """
    w0, w1, w2 = wlin
    w0v = w0 * vden
    nv = len(vxs)
    # The weight at each vertex, scaled by wden * vden.
    what = [w1 * x + w2 * y + w0v for x, y in zip(vxs, vys)]
    eden = lcm(*[lden for _, lden in edges])
    # L = B - A puts the boundary sum, over 2 eden gden vden q, and the
    # volume sum, over 24 wden gden vden**4 q**2, over both gden vden q**2.
    both = lcm(2 * eden, 24 * wden * vden**3)
    mb, ma = both // (2 * eden), both // (24 * wden * vden**3)
    # The length of the edge into each vertex, over eden.
    into = [lnum * (eden // lden) for lnum, lden in edges[-1:] + edges[:-1]]

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
            lden = both * gden * vden
        g0v = g0 * vden
        # The crease at each vertex, scaled by gden * vden.
        ghat = [v + g0v for v in lin]

        # Boundary term: exact average of max(0, affine) along each edge,
        # (a + b) / 2 on an edge where g >= 0, a^2 / (2 (a - b)) on the
        # exit edge, from a >= 0 to b < 0, and b^2 / (2 (b - a)) on the
        # entry edge, from a < 0 to b >= 0.  The same pass finds the
        # region's run of vertices s .. e and the crossings' weights q = a -
        # b, 0 for none.  A crossing on a vertex (a = 0 on the exit edge, b =
        # 0 on the entry edge) adds nothing to the sum and keeps its weight,
        # so qo and qi are both set or both 0.
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
                    qo = a - b
                    cn = cn * qo + into[k] * a * a * cd
                    cd *= qo
            elif b >= 0:
                s = k
                qi = a - b
                cn = cn * -qi + into[k] * b * b * cd
                cd *= -qi
            a = b
        if not full and not cn:
            out.append((0, 1, 0, 1))  # g <= 0 on the polygon: u = 0
            continue
        bn, bd = full * cd + cn, bden * cd

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
        if qo:
            gs, ge, gf = ghat[s], ghat[e], ghat[f]
            ws, we = what[s], what[e]
            wo = ge * what[f] - gf * we
            wi = ghat[p] * ws - gs * what[p]
            total = total * qo * qo + ge * d_ef * (
                qo * (ws * gs + we * ge) + (qo * (ws + we) + wo) * (gs + ge))
            total = total * qi * qi - gs * (ge * d_fp - gf * d_ep) * gs * (
                2 * qo * qi * ws + qi * wo + qo * wi)
        out.append((bn * mb * cd - total * ma, lden * cd * cd, bn, bd))
    return out


def lattice_weighted_sum(dim, lows, highs, rows, table, k):
    """Count the integer points of the rows' body and sum their weight, line by line.

    ``rows`` are ``(normal, rhs)`` pairs encoding ``<normal, I> <= rhs``.
    ``table`` rows ``(A, C)`` are affine pieces with integer data; the
    weight at a point is ``max over pieces of (<A, I> + C * k)`` and the
    caller divides the returned numerator by the common denominator.
    Returns ``(count, numerator)``.

    The box ``lows .. highs`` is walked over its first ``dim - 1``
    coordinates only.  At each such prefix every row bounds the last
    coordinate ``x``: with ``c`` its last coefficient and ``rest`` its
    rhs minus the prefix's part, ``c > 0`` gives ``x <= floor(rest / c)``,
    ``c < 0`` gives ``x >= ceil(rest / c)``, and ``c = 0`` empties the
    line when ``rest < 0`` and otherwise drops out.  The points of the
    line's interval, clipped to the box, are exactly the line's points of
    the body, so no other point is visited and no row is tested per point.
    """
    count = 0
    total = 0
    last = dim - 1
    split = [(m[:last], m[last], r) for m, r in rows]
    box = [range(lo, hi + 1) for lo, hi in zip(lows[:last], highs[:last])]
    for prefix in itertools.product(*box):
        lo, hi = lows[last], highs[last]
        for head, c, r in split:
            rest = r
            for mj, pj in zip(head, prefix):
                rest -= mj * pj
            if c > 0:
                hi = min(hi, rest // c)
            elif c < 0:
                lo = max(lo, -(rest // -c))
            elif rest < 0:
                hi = lo - 1
            if lo > hi:
                break
        if lo > hi:
            continue
        count += hi - lo + 1
        if not table:
            continue
        for x in range(lo, hi + 1):
            point = prefix + (x,)
            best = None
            for a_row, c in table:
                v = c * k
                for aj, pj in zip(a_row, point):
                    v += aj * pj
                if best is None or v > best:
                    best = v
            total += best
    return count, total
