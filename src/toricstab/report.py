"""Report assembly and rendering.

Reports carry every rational twice, as an exact ``p/q`` string and as a
decimal approximation; structured output is canonical JSON (sorted keys,
fixed separators) so identical inputs produce identical bytes.  Every
exact string comes from :func:`errors.exact`, whatever its length.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from . import __version__
from . import geometry, invariants, specfile
from .errors import OriginNotInterior, WrongFamily, exact
from .geometry import Polytope
from .invariants import ConditionVerdict, DegenerationReport


def rational_entry(value) -> dict:
    """``value`` exact and as a float; ``approx`` is None past the float range."""
    value = Fraction(value)
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    return {"exact": exact(value), "approx": approx}


def _point_entry(point):
    return [exact(c) for c in point]


def _verdict_entry(verdict: ConditionVerdict) -> dict:
    witness = verdict.witness
    if isinstance(witness, tuple):
        witness = [exact(w) for w in witness]
    elif witness is not None:
        witness = exact(witness)
    at_given = verdict.margin_at_given_origin
    return {
        "name": verdict.name,
        "holds": verdict.holds,
        "margin": rational_entry(verdict.margin),
        "margin_at_given_origin": None if at_given is None else rational_entry(at_given),
        "origin": None if verdict.origin is None else _point_entry(verdict.origin),
        "witness": witness,
    }


def input_hash(poly: Polytope) -> str:
    return hashlib.sha256(specfile.emit_spec(poly).encode()).hexdigest()


def build_report(poly: Polytope, name=None, pl_functions=(), scan_result=None) -> dict:
    """Full stability report for one polytope.

    It carries the verdict of every condition code in
    :data:`invariants.CONDITION_CODES` that applies to ``poly``.
    ``pl_functions`` is a sequence of ``(label, PLFunction)`` pairs to
    analyse as degenerations; ``scan_result`` attaches a finished scan.
    """
    extremal = invariants.extremal_field(poly)
    rbar = invariants.average_scalar_curvature(poly)
    delzant_ok, violator = geometry.delzant_check(poly)

    conditions = []
    for code in invariants.CONDITION_CODES:
        try:
            conditions.append(invariants.check_condition(poly, extremal, code))
        except (OriginNotInterior, WrongFamily):
            pass

    report = {
        "tool": {
            "name": "toricstab",
            "version": __version__,
            "input_sha256": input_hash(poly),
        },
        "polytope": {
            "name": name,
            "dim": poly.dim,
            "facet_count": len(poly.facets),
            "vertex_count": len(poly.vertices),
            "vertices": [_point_entry(v) for v in poly.vertices],
            "volume": rational_entry(poly.volume),
            "boundary_measure": rational_entry(poly.boundary_measure),
            "delzant": delzant_ok,
            "delzant_violator": _point_entry(violator) if violator else None,
            "origin_interior": poly.origin_interior,
            "warnings": list(poly.warnings),
        },
        "rbar": rational_entry(rbar),
        "centering": [rational_entry(c) for c in extremal.c],
        "futaki_vector": [rational_entry(b) for b in extremal.b],
        "extremal": {
            "coefficients": [rational_entry(a) for a in extremal.a],
            "theta_constant": rational_entry(extremal.theta.constant),
            "theta_min": rational_entry(extremal.theta_min),
            "theta_max": rational_entry(extremal.theta_max),
            "theta_norm": rational_entry(extremal.norm),
        },
        "conditions": [_verdict_entry(v) for v in conditions],
    }

    if pl_functions:
        report["degenerations"] = [
            degeneration_entry(label, invariants.relative_futaki(poly, u, extremal))
            for label, u in pl_functions
        ]

    if scan_result is not None:
        crease = scan_result.worst_u.crease
        report["scan"] = {
            "lambda_star_estimate": rational_entry(scan_result.lambda_star_estimate),
            "estimate_kind": "upper bound from sampled simple PL family",
            "worst_crease_gradient": [exact(g) for g in crease.gradient],
            "worst_crease_constant": exact(crease.constant),
            "destabilizer_found": scan_result.destabilizer_found,
            "curvature_hypothesis_ok": scan_result.curvature_hypothesis_ok,
            "candidates_evaluated": scan_result.candidates_evaluated,
            "round_minima": [exact(r) for r in scan_result.round_minima],
        }
    return report


def degeneration_entry(label, deg: DegenerationReport) -> dict:
    """The invariants of one degeneration, keyed as every output prints them."""
    return {
        "function": label,
        "L": rational_entry(deg.L_value),
        "relative_futaki": rational_entry(deg.rel_futaki),
        "generalized_futaki": rational_entry(deg.gen_futaki_alpha),
        "pairing_with_extremal": rational_entry(deg.ip_ab),
        "extremal_self_pairing": rational_entry(deg.ip_bb),
        "trivial": deg.trivial,
    }


def report_exit_code(report: dict) -> int:
    """0 when every verdict holds and no destabilizer, else 1."""
    for verdict in report.get("conditions", ()):
        if not verdict["holds"]:
            return 1
    scan_part = report.get("scan")
    if scan_part and scan_part["destabilizer_found"]:
        return 1
    return 0


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """A rational entry as ``exact (~approx)``, or ``exact`` alone past the
    float range; any other value as ``str``."""
    if isinstance(value, dict) and "exact" in value:
        approx = value["approx"]
        return value["exact"] if approx is None else f"{value['exact']} (~{approx:.6g})"
    return str(value)


def render_simple(body: dict) -> str:
    """One aligned ``key  value`` line per entry."""
    width = max(len(k) for k in body)
    return "".join(f"{k:<{width}}  {_fmt(v)}\n" for k, v in body.items())


def render_table(report: dict) -> str:
    lines = []
    poly = report["polytope"]
    tool = report["tool"]
    name = poly["name"] or "(unnamed)"
    lines.append(f"polytope {name}: dim {poly['dim']}, "
                 f"{poly['facet_count']} facets, {poly['vertex_count']} vertices")
    lines.append(f"  volume            {_fmt(poly['volume'])}")
    lines.append(f"  boundary measure  {_fmt(poly['boundary_measure'])}")
    lines.append(f"  delzant           {poly['delzant']}")
    if poly["warnings"]:
        for w in poly["warnings"]:
            lines.append(f"  warning: {w}")
    lines.append(f"  rbar              {_fmt(report['rbar'])}")
    lines.append("  centering         "
                 + ", ".join(_fmt(c) for c in report["centering"]))
    lines.append("  futaki vector     "
                 + ", ".join(_fmt(b) for b in report["futaki_vector"]))
    ext = report["extremal"]
    lines.append("  extremal coeffs   "
                 + ", ".join(_fmt(a) for a in ext["coefficients"]))
    lines.append(f"  theta range       [{_fmt(ext['theta_min'])}, {_fmt(ext['theta_max'])}]")
    lines.append(f"  theta norm        {_fmt(ext['theta_norm'])}")
    lines.append("conditions:")
    for verdict in report["conditions"]:
        state = "holds" if verdict["holds"] else "FAILS"
        lines.append(
            f"  {verdict['name']:<16} {state:>6}  margin {_fmt(verdict['margin'])}"
        )
    for deg in report.get("degenerations", ()):
        lines.append(f"degeneration {deg['function']}:")
        lines.append(f"  L                 {_fmt(deg['L'])}")
        lines.append(f"  relative futaki   {_fmt(deg['relative_futaki'])}")
        lines.append(f"  generalized       {_fmt(deg['generalized_futaki'])}")
        lines.append(f"  pairing (a,b)     {_fmt(deg['pairing_with_extremal'])}")
        lines.append(f"  pairing (b,b)     {_fmt(deg['extremal_self_pairing'])}")
        lines.append(f"  trivial           {deg['trivial']}")
    scan_part = report.get("scan")
    if scan_part:
        lines.append("scan:")
        lines.append(f"  lambda* estimate  {_fmt(scan_part['lambda_star_estimate'])}"
                     f"  [{scan_part['estimate_kind']}]")
        lines.append(f"  worst crease      grad ({', '.join(scan_part['worst_crease_gradient'])})"
                     f" + {scan_part['worst_crease_constant']}")
        lines.append(f"  destabilizer      {scan_part['destabilizer_found']}")
        lines.append(f"  hypothesis ok     {scan_part['curvature_hypothesis_ok']}")
        lines.append(f"  candidates        {scan_part['candidates_evaluated']}")
    lines.append(f"tool toricstab {tool['version']}  input {tool['input_sha256'][:16]}")
    return "\n".join(lines) + "\n"
