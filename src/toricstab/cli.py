"""Command-line interface.

Exit codes: 0 when the computation succeeded and every requested
condition holds, 1 when a condition fails or a destabilizer is found,
2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, integration, invariants, plexpr, report, reproduce, specfile
from .catalog import CATALOG_NAMES, catalog
from .errors import ParseError, ToricStabError
from .geometry import translate
from .plfunc import is_affine, make_pl
from .destabilizer import ScanConfig, scan as run_scan


def _add_source_flags(parser, centerable=False):
    parser.add_argument("--catalog", metavar="NAME", help="built-in polytope name")
    parser.add_argument("--spec", metavar="FILE", help="polytope specification file")
    if centerable:
        parser.add_argument(
            "--center",
            action="store_true",
            help="translate the polytope so its barycenter is the origin",
        )


def _add_output_flags(parser):
    parser.add_argument("--out", metavar="FILE", help="write the report to a file")
    parser.add_argument(
        "--format",
        choices=("table", "structured"),
        default="table",
        help="human table or canonical JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricstab",
        description="Exact stability invariants of rational convex polytopes.",
    )
    parser.add_argument("--version", action="version", version=f"toricstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant and condition report")
    _add_source_flags(p, centerable=True)
    p.add_argument("--pl", action="append", default=[], metavar="EXPR",
                   help="also analyse the degeneration of this PL function")
    _add_output_flags(p)

    p = sub.add_parser("lfun", help="the linear functional of a PL function")
    _add_source_flags(p)
    p.add_argument("--pl", required=True, metavar="EXPR")
    _add_output_flags(p)

    p = sub.add_parser("relative-futaki", help="degeneration invariants of a PL function")
    _add_source_flags(p)
    p.add_argument("--pl", required=True, metavar="EXPR")
    _add_output_flags(p)

    p = sub.add_parser("scan", help="grid scan for destabilizing crease functions")
    _add_source_flags(p, centerable=True)
    _add_output_flags(p)

    p = sub.add_parser("ehrhart", help="lattice sum and its residual at scale k")
    _add_source_flags(p)
    p.add_argument("--pl", required=True, metavar="EXPR")
    p.add_argument("--k", required=True, type=int, metavar="INT")
    _add_output_flags(p)

    p = sub.add_parser("catalog", help="list built-in polytopes or emit one")
    p.add_argument("--catalog", metavar="NAME", help="emit this entry as a spec file")
    _add_output_flags(p)

    p = sub.add_parser("reproduce", help="run the full verification suite")
    return parser


def _load_polytope(args):
    if getattr(args, "catalog", None) and getattr(args, "spec", None):
        raise ToricStabError("give either --catalog or --spec, not both")
    if getattr(args, "catalog", None):
        poly, name = catalog(args.catalog), args.catalog
    elif getattr(args, "spec", None):
        with open(args.spec, "rb") as handle:
            data = handle.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}",
                             where=f"{args.spec}, byte {exc.start}") from None
        poly, name = specfile.parse_spec(text), args.spec
    else:
        raise ToricStabError("a polytope is required: --catalog NAME or --spec FILE")
    if getattr(args, "center", False):
        poly = translate(poly, tuple(-b for b in poly.barycenter))
        name = f"{name} (centered)"
    return poly, name


def _parse_pl(expr, poly):
    return make_pl(plexpr.parse_pl_expression(expr, poly.dim), poly)


def _emit(args, payload, render=report.render_table):
    """Write a payload to ``--out`` or stdout.

    A string is written as it is; a dict as canonical JSON with
    ``--format structured``, else through ``render``.
    """
    if isinstance(payload, str):
        text = payload
    elif args.format == "structured":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = render(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ToricStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "reproduce":
        ok = reproduce.run_all()
        return 0 if ok else 1

    if args.command == "catalog":
        if args.catalog:
            poly = catalog(args.catalog)
            _emit(args, specfile.emit_spec(poly, name=args.catalog) + "\n")
        else:
            _emit(args, "\n".join(CATALOG_NAMES) + "\n")
        return 0

    poly, name = _load_polytope(args)

    if args.command == "analyze":
        pl_functions = [(expr, _parse_pl(expr, poly)) for expr in args.pl]
        rep = report.build_report(poly, name=name, pl_functions=pl_functions)
        _emit(args, rep)
        return report.report_exit_code(rep)

    if args.command == "lfun":
        u = _parse_pl(args.pl, poly)
        extremal = invariants.extremal_field(poly)
        value = invariants.linear_functional_L(poly, u, extremal)
        body = {
            "function": args.pl,
            "L": report.rational_entry(value),
            "pieces": len(u.pieces),
            "affine": is_affine(u),
        }
        if poly.origin_interior:
            cone = invariants.linear_functional_L_cone(poly, u, extremal)
            body["L_cone_form"] = report.rational_entry(cone)
            body["forms_agree"] = cone == value
        _emit(args, body, report.render_simple)
        return 0

    if args.command == "relative-futaki":
        u = _parse_pl(args.pl, poly)
        extremal = invariants.extremal_field(poly)
        deg = invariants.relative_futaki(poly, u, extremal)
        _emit(args, report.degeneration_entry(args.pl, deg), report.render_simple)
        return 0

    if args.command == "scan":
        extremal = invariants.extremal_field(poly)
        result = run_scan(poly, extremal, ScanConfig())
        rep = report.build_report(poly, name=name, scan_result=result)
        _emit(args, rep)
        return report.report_exit_code(rep)

    if args.command == "ehrhart":
        u = _parse_pl(args.pl, poly)
        total = integration.pl_lattice_sum(poly, u, args.k)
        volume = integration.integrate_pl(u)
        boundary = integration.boundary_integral(poly, u)
        residual = total.residual(poly.dim, volume, boundary)
        _emit(args, {
            "function": args.pl,
            "k": args.k,
            "lattice_points": total.count,
            "weighted_sum": report.rational_entry(total.weighted_sum),
            "volume_integral": report.rational_entry(volume),
            "boundary_integral": report.rational_entry(boundary),
            "residual": report.rational_entry(residual),
        }, report.render_simple)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
