"""What one request runs, the exact values it fixes, and the oracles.

``execute`` makes the calls of the CLI commands behind each workload, in the
CLI's order, each command starting again from the request's text as the CLI
starts from the spec file.  Calls go through module attributes, so the
tracer's wrappers see them.  Everything else here runs outside the timed
phase: the digest of the exact values and the benchmark's own oracles,
which compute what they expect without the library's geometry, integration
or lattice code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from toricstab import destabilizer, integration, invariants, plexpr, plfunc, report, specfile

from workloads import SCAN_DIRECTION_COUNT

# The brute-force lattice oracle runs at the largest scale up to the
# request's k whose integer box holds at most this many cells.
BRUTE_FORCE_CELLS = 500


@dataclass
class Outcome:
    """The objects and values the last command of a request produced."""

    poly: object
    u: object = None
    extremal: object = None
    values: dict = None


def _pl(req, poly):
    return plfunc.make_pl(plexpr.parse_pl_expression(req.expr, poly.dim), poly)


def analyze(req):
    """`toricstab analyze --spec FILE --pl EXPR` with the table output."""
    poly = specfile.parse_spec(req.spec)
    u = _pl(req, poly)
    rep = report.build_report(poly, name=req.name, pl_functions=[(req.expr, u)])
    report.render_table(rep)
    report.report_exit_code(rep)


def lfun(req) -> Outcome:
    """`toricstab lfun --spec FILE --pl EXPR`."""
    poly = specfile.parse_spec(req.spec)
    u = _pl(req, poly)
    extremal = invariants.extremal_field(poly)
    values = {"L": invariants.linear_functional_L(poly, u, extremal)}
    if poly.origin_interior:
        values["L_cone"] = invariants.linear_functional_L_cone(poly, u, extremal)
    return Outcome(poly, u, extremal, values)


def scan_command(req) -> Outcome:
    """`toricstab scan --spec FILE` with the table output."""
    poly = specfile.parse_spec(req.spec)
    extremal = invariants.extremal_field(poly)
    config = destabilizer.ScanConfig(direction_count=SCAN_DIRECTION_COUNT)
    result = destabilizer.scan(poly, extremal, config)
    rep = report.build_report(poly, name=req.name, scan_result=result)
    report.render_table(rep)
    report.report_exit_code(rep)
    crease = result.worst_u.crease
    values = {
        "lambda_star_estimate": result.lambda_star_estimate,
        "crease_gradient": list(crease.gradient),
        "crease_constant": crease.constant,
    }
    return Outcome(poly, None, extremal, values)


def ehrhart(req) -> Outcome:
    """`toricstab ehrhart --spec FILE --pl EXPR --k K`."""
    poly = specfile.parse_spec(req.spec)
    u = _pl(req, poly)
    total = integration.pl_lattice_sum(poly, u, req.k)
    residual = integration.ehrhart_residual(poly, u, req.k)
    values = {
        "lattice_points": total.count,
        "weighted_sum": total.weighted_sum,
        "volume_integral": integration.integrate_pl(u),
        "boundary_integral": integration.boundary_integral(poly, u),
        "residual": residual,
    }
    return Outcome(poly, u, None, values)


def execute(req) -> Outcome:
    """Run one request; the returned outcome is that of its last command."""
    if req.workload == "degenerations":
        analyze(req)
        return lfun(req)
    if req.workload == "scan":
        return scan_command(req)
    return ehrhart(req)


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def exact_values(req, out: Outcome) -> dict:
    """The values the mathematics fixes, as exact strings.

    Report layout and condition witnesses are left out: they may change
    without any value changing.
    """
    values = dict(out.values)
    values["volume"] = out.poly.volume
    if out.extremal is not None:
        values["extremal_coefficients"] = list(out.extremal.a)
        values["theta_constant"] = out.extremal.theta.constant
    if req.workload == "degenerations":
        deg = invariants.relative_futaki(out.poly, out.u, out.extremal)
        values["futaki_vector"] = list(invariants.futaki_vector(out.poly))
        values["relative_futaki"] = deg.rel_futaki
        values["generalized_futaki"] = deg.gen_futaki_alpha
        values["pairing_with_extremal"] = deg.ip_ab
        values["extremal_self_pairing"] = deg.ip_bb
    return {key: _exact(value) for key, value in values.items()}


def _exact(value):
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return str(Fraction(value))


def digest(values: dict) -> str:
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_failures(req, out: Outcome) -> list:
    """Independent checks of one outcome; returns what disagreed."""
    rows = spec_rows(req.spec)
    failures = []
    if len(rows[0][0]) == 2:
        area = shoelace(polygon_vertices(rows))
        if area != out.poly.volume:
            failures.append(f"shoelace area {area} != volume {out.poly.volume}")
    if req.workload == "degenerations":
        if out.values.get("L_cone") != out.values["L"]:
            failures.append(
                f"cone form {out.values.get('L_cone')} != boundary form {out.values['L']}"
            )
    if req.workload == "lattice":
        failures += _lattice_oracle(req, out, rows)
    return failures


def spec_rows(spec: str):
    """``(normal, bound)`` rows of a spec text, read without the library."""
    data = json.loads(spec)
    return [(tuple(h["normal"]), Fraction(h["bound"])) for h in data["halfspaces"]]


def polygon_vertices(rows):
    """Vertex cycle of a polygon given by irredundant half-planes.

    Sorting the outward normals by angle puts consecutive edges next to
    each other; each vertex is where two consecutive edge lines meet.
    """
    ordered = sorted(rows, key=lambda r: math.atan2(r[0][1], r[0][0]))
    out = []
    for (n1, b1), (n2, b2) in zip(ordered, ordered[1:] + ordered[:1]):
        det = n1[0] * n2[1] - n1[1] * n2[0]
        out.append(((b1 * n2[1] - n1[1] * b2) / det, (n1[0] * b2 - b1 * n2[0]) / det))
    return out


def shoelace(points) -> Fraction:
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def _lattice_oracle(req, out, rows):
    vertices = polytope_vertices(rows)
    k = req.k
    while k > 1 and math.prod(hi - lo + 1 for lo, hi in lattice_box(vertices, k)) > BRUTE_FORCE_CELLS:
        k -= 1
    if k == req.k:
        count, total = out.values["lattice_points"], out.values["weighted_sum"]
    else:
        result = integration.pl_lattice_sum(out.poly, out.u, k)
        count, total = result.count, result.weighted_sum
    expected = brute_force_lattice_sum(rows, vertices, out.u.pieces, k)
    if expected != (count, total):
        return [f"lattice sum at k={k}: brute force {expected} != {(count, total)}"]
    return []


def polytope_vertices(rows):
    """Vertices of the half-space data, by solving every square subsystem."""
    dim = len(rows[0][0])
    vertices = set()
    for subset in itertools.combinations(rows, dim):
        point = _solve([r[0] for r in subset], [r[1] for r in subset])
        if point is not None and all(
            sum(a * x for a, x in zip(n, point)) <= b for n, b in rows
        ):
            vertices.add(point)
    return sorted(vertices)


def lattice_box(vertices, k):
    """Integer ranges holding kP."""
    return [
        (math.ceil(k * min(v[j] for v in vertices)), math.floor(k * max(v[j] for v in vertices)))
        for j in range(len(vertices[0]))
    ]


def _solve(matrix, rhs):
    """Cramer's rule for 2x2 and 3x3 systems; None when singular."""
    det = _det(matrix)
    if det == 0:
        return None
    out = []
    for j in range(len(matrix)):
        swapped = [row[:j] + (b,) + row[j + 1:] for row, b in zip(matrix, rhs)]
        out.append(Fraction(_det(swapped)) / det)
    return tuple(out)


def _det(m):
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def brute_force_lattice_sum(rows, vertices, pieces, k):
    """Count the integer points of kP and sum ``u(I / k)`` over them."""
    scaled = [(tuple(c * b.denominator for c in n), k * b.numerator) for n, b in rows]
    count = 0
    total = Fraction(0)
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in lattice_box(vertices, k))):
        if all(sum(a * x for a, x in zip(n, point)) <= r for n, r in scaled):
            count += 1
            x = tuple(Fraction(c, k) for c in point)
            total += max(p.evaluate(x) for p in pieces)
    return count, total
