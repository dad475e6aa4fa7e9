"""Seeded inputs for the three benchmark workloads.

Every request is plain text: spec-file JSON for the polytope and, where the
command takes one, a PL expression.  The generator never imports
``toricstab``; the library sees only the strings made here.  The same seed
gives byte-identical strings, and no polytope repeats within one stream.

The request index, not the seed, fixes each request's stratum: 2-D or 3-D,
the vertex count, the piece count and the band of lattice-box sizes.  So
every run holds the same mix of sizes, and the seed draws the rest.  Run
to run, the medians then move with the program and not with the draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
import math
from fractions import Fraction

WORKLOADS = ("degenerations", "scan", "lattice")

# Every DEGENERATIONS_3D_EVERY-th `degenerations` request is 3-D, and every
# LATTICE_3D_EVERY-th `lattice` one.  A fixed interleave keeps the share the
# same on every seed.  3-D `degenerations` requests (boxes with two pieces)
# all cost more than the slowest 2-D ones, and a run holds about thirty of
# them: the tail, the 11th-largest latency, then sits well inside the 3-D
# population (near its 70th percentile), not on its border with the 2-D one.
# 3-D `lattice` requests (corner simplices) cost about what 2-D ones do, so
# there the two populations overlap and have no border.
DEGENERATIONS_3D_EVERY = 5
LATTICE_3D_EVERY = 10
# Every SCAN_CATALOG_EVERY-th scan is a catalog polygon: the five fixed
# surfaces first, then symmetric hexagons with fresh parameters.
SCAN_CATALOG_EVERY = 4
# Reduced from the library default of 360 so that a run holds enough scans
# for a tail; `offset_count` and `refine_rounds` keep their defaults.
SCAN_DIRECTION_COUNT = 24
# `lattice` draws k so that the integer box of kP holds about this many
# cells (log-uniform between the two), which keeps the lattice scan the
# dominant cost without a heavy tail from large polygons at large k.
LATTICE_BOX_CELLS = (8000, 16000)

# A stream stops with an error, not a hang, after this many draws in a
# row that repeat a polytope.
MAX_REPEATS = 10000

CATALOG_POLYGONS = (
    ("cp2", [((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)]),
    ("cp1xcp1", [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]),
    ("cp2_1blowup", [((-1, -1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)]),
    ("cp2_2blowup", [((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1), ((1, 1), 1)]),
    ("cp2_3blowup", [((1, 0), 1), ((0, -1), 1), ((-1, -1), 1), ((-1, 0), 1), ((0, 1), 1), ((1, 1), 1)]),
)


@dataclass(frozen=True)
class Request:
    """One benchmark request: the command and the text it reads."""

    index: int
    workload: str
    kind: str  # "2d", "3d" or "catalog"
    name: str
    spec: str
    expr: str | None = None
    k: int | None = None


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def spec_text(name, rows) -> str:
    """Spec-file JSON for half-space rows ``(normal, bound)``."""
    data = {
        "dim": len(rows[0][0]),
        "name": name,
        "halfspaces": [
            {"normal": list(normal), "bound": str(Fraction(bound))}
            for normal, bound in rows
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True)


def affine_text(gradient, constant) -> str:
    """An affine expression in the ``plexpr`` grammar."""
    terms = []
    for j, g in enumerate(gradient):
        if g:
            terms.append((g, f"*x{j + 1}"))
    if constant or not terms:
        terms.append((Fraction(constant), ""))
    out = ""
    for i, (coeff, var) in enumerate(terms):
        sign = "-" if coeff < 0 else ("+" if i else "")
        out += f"{sign}{abs(coeff)}{var}"
    return out


def pl_text(pieces) -> str:
    body = ", ".join(affine_text(g, c) for g, c in pieces)
    return f"max({body})" if len(pieces) > 1 else body


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def _hull(points):
    """Counterclockwise convex hull of integer points, no collinear vertices."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _edge_rows(cycle):
    """Outward primitive normals and integer bounds of a CCW lattice polygon."""
    rows = []
    for i, p in enumerate(cycle):
        q = cycle[(i + 1) % len(cycle)]
        nx, ny = q[1] - p[1], p[0] - q[0]
        g = math.gcd(nx, ny)
        nx, ny = nx // g, ny // g
        rows.append(((nx, ny), nx * p[0] + ny * p[1]))
    return rows


def lattice_polygon(rng, radius, vertices):
    """Random lattice polygon with the given vertex count and 0 strictly inside.

    Returns the half-space rows and the widths of the bounding box.
    """
    while True:
        points = [
            (rng.randint(-radius, radius), rng.randint(-radius, radius))
            for _ in range(vertices + rng.randint(0, 4))
        ]
        cycle = _hull(points)
        if len(cycle) != vertices:
            continue
        rows = _edge_rows(cycle)
        if all(bound > 0 for _, bound in rows):
            widths = [max(p[j] for p in cycle) - min(p[j] for p in cycle) for j in (0, 1)]
            return rows, widths


def polytope_3d(rng, family, max_side):
    """Random box or corner simplex with 0 strictly inside.

    Bounds are multiples of 1/4 between 1 and ``max_side``.  Both families
    are simple polytopes.  Returns the half-space rows and the widths of the
    bounding box.
    """

    def bound():
        return Fraction(rng.randint(4, 4 * max_side), 4)

    lo = [bound() for _ in range(3)]
    if family == "simplex":
        top = bound()
        rows = [((-1, 0, 0), lo[0]), ((0, -1, 0), lo[1]), ((0, 0, -1), lo[2])]
        rows.append(((1, 1, 1), top))
        total = sum(lo) + top
        return rows, [total, total, total]
    hi = [bound() for _ in range(3)]
    rows = []
    for j in range(3):
        e = [0, 0, 0]
        e[j] = 1
        rows.append((tuple(e), hi[j]))
        e[j] = -1
        rows.append((tuple(e), lo[j]))
    return rows, [a + b for a, b in zip(lo, hi)]


def lattice_scale(rng, widths, index):
    """Seeded k whose integer box of kP holds about LATTICE_BOX_CELLS cells.

    The target is log-uniform between the two bounds, stratified over three
    bands by the request index so every run holds the same mix of sizes.
    """
    low, high = LATTICE_BOX_CELLS
    target = low * (high / low) ** ((index % 3 + rng.random()) / 3)
    size = 1
    for w in widths:
        size *= w
    return max(2, round((target / size) ** (1 / len(widths))))


def hexagon_rows(first, second):
    return [
        ((1, 0), first), ((0, -1), second), ((-1, -1), first),
        ((-1, 0), second), ((0, 1), first), ((1, 1), second),
    ]


def _canonical(rows):
    return tuple(sorted((tuple(n), Fraction(b)) for n, b in rows))


# ---------------------------------------------------------------------------
# PL functions
# ---------------------------------------------------------------------------


def random_pl(rng, rows, pieces, radius):
    """Affine pieces ``(gradient, constant)`` of a convex PL function.

    The pieces are the tangent planes of ``c |x|^2 / 2`` at distinct
    half-integer points strictly inside the polytope, which lies in the cube
    ``[-radius, radius]^n``, plus one common affine
    function.  The paraboloid is strictly convex, so each piece is the
    maximum on a full-dimensional cell around its point: the function has
    exactly ``pieces`` cells, and the cost of a request does not hang on
    how many random pieces happen to win.
    """
    dim = len(rows[0][0])
    points = []
    while len(points) < pieces:
        point = tuple(Fraction(rng.randint(-2 * radius, 2 * radius), 2) for _ in range(dim))
        inside = all(sum(n * x for n, x in zip(normal, point)) < bound for normal, bound in rows)
        if inside and point not in points:
            points.append(point)
    scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    tilt = [rng.randint(-1, 1) for _ in range(dim)]
    shift = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    out = []
    for point in points:
        gradient = tuple(scale * x + t for x, t in zip(point, tilt))
        constant = shift - scale * sum(x * x for x in point) / 2
        out.append((gradient, constant))
    return out


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def requests(workload: str, seed: int):
    """Endless deterministic stream of distinct requests for a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    index = 0
    catalog_slot = 0
    repeats = 0
    while True:
        kind, name, rows, extra = _make(workload, rng, index, catalog_slot)
        if kind == "catalog":
            catalog_slot += 1
        key = _canonical(rows)
        if key in seen:
            repeats += 1
            if repeats > MAX_REPEATS:
                raise RuntimeError(f"{workload}: no new polytope after {MAX_REPEATS} draws")
            continue
        seen.add(key)
        repeats = 0
        yield Request(index=index, workload=workload, kind=kind, name=name,
                      spec=spec_text(name, rows), **extra)
        index += 1


def _make(workload, rng, index, catalog_slot):
    if workload == "degenerations":
        if index % DEGENERATIONS_3D_EVERY == DEGENERATIONS_3D_EVERY - 1:
            rows, _ = polytope_3d(rng, "box", max_side=3)
            expr = pl_text(random_pl(rng, rows, 2, radius=3))
            return "3d", f"box-{index}", rows, {"expr": expr}
        vertices, pieces = 3 + index % 5, 2 + index // 5 % 3
        rows, _ = lattice_polygon(rng, radius=3, vertices=vertices)
        expr = pl_text(random_pl(rng, rows, pieces, radius=3))
        return "2d", f"polygon-{index}", rows, {"expr": expr}

    if workload == "scan":
        if index % SCAN_CATALOG_EVERY == SCAN_CATALOG_EVERY - 1:
            if catalog_slot < len(CATALOG_POLYGONS):
                name, rows = CATALOG_POLYGONS[catalog_slot]
                return "catalog", name, rows, {}
            first = rng.randint(2, 40)
            second = rng.randint((first + 1) // 2, 2 * first)
            lam, mu = Fraction(first, 2), Fraction(second, 2)
            return "catalog", f"hexagon({lam},{mu})", hexagon_rows(lam, mu), {}
        rows, _ = lattice_polygon(rng, radius=3, vertices=3 + index % 5)
        return "2d", f"polygon-{index}", rows, {}

    if index % LATTICE_3D_EVERY == LATTICE_3D_EVERY - 1:
        rows, widths = polytope_3d(rng, "simplex", max_side=2)
        expr = pl_text(random_pl(rng, rows, 1 + index // LATTICE_3D_EVERY % 2, radius=2))
        return "3d", f"simplex-{index}", rows, {"expr": expr, "k": lattice_scale(rng, widths, index)}
    vertices, pieces = 3 + index % 4, 1 + index // 4 % 4
    rows, widths = lattice_polygon(rng, radius=3, vertices=vertices)
    expr = pl_text(random_pl(rng, rows, pieces, radius=3))
    return "2d", f"polygon-{index}", rows, {"expr": expr, "k": lattice_scale(rng, widths, index)}
