"""Spec files, expression parsing, catalog entries, CLI behaviour."""

import contextlib
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import toricstab
from toricstab import (
    build_polytope,
    catalog,
    emit_spec,
    errors,
    halfspace,
    integration,
    invariants,
    make_pl,
    parse_spec,
    report,
    translate,
)
from toricstab.catalog import CATALOG_NAMES, hexagon
from toricstab.cli import main
from toricstab.errors import InvalidHexagonParams, OutsideDomain, ParseError, UnknownName
from toricstab.plexpr import parse_pl_expression
from toricstab.plfunc import zero_function


@contextlib.contextmanager
def lifted_digit_limit():
    """No limit on the digits of int-to-string conversions inside the block
    (the limit exists from Python 3.11)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@contextlib.contextmanager
def lowered_digit_limit():
    """The limit on the digits of int-to-string conversions at CPython's
    minimum, 640, inside the block, so inputs of a few hundred digits reach
    it (the limit exists from Python 3.11)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(640)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


GOLDEN = Path(__file__).resolve().parent / "golden"


def F(a, b=1):
    return Fraction(a, b)


class TestSpecFile:
    def test_round_trip_catalog(self):
        for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup"):
            poly = catalog(name)
            again = parse_spec(emit_spec(poly, name=name))
            assert again == poly
            assert again.vertices == poly.vertices

    def test_rational_bound_string(self):
        text = json.dumps({
            "dim": 1,
            "halfspaces": [
                {"normal": [1], "bound": "7/2"},
                {"normal": [-1], "bound": 1},
            ],
        })
        poly = parse_spec(text)
        assert poly.vertices == ((F(-1),), (F(7, 2),))

    def test_malformed_normal_names_field(self):
        text = json.dumps({
            "dim": 2,
            "halfspaces": [{"normal": [1], "bound": 1}],
        })
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert "halfspaces[0].normal" in str(err.value)

    def test_bad_rational_names_field(self):
        text = json.dumps({
            "dim": 2,
            "halfspaces": [
                {"normal": [1, 0], "bound": "x"},
                {"normal": [-1, 0], "bound": 1},
                {"normal": [0, 1], "bound": 1},
                {"normal": [0, -1], "bound": 1},
            ],
        })
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert "halfspaces[0].bound" in str(err.value)

    def test_round_trip_stops_at_the_digit_limit(self, capsys, tmp_path):
        # A bound of 600 digits each way round-trips under the 640-digit
        # limit; one of 700 is written whole but refused when read back.
        for digits, readable in ((600, True), (700, False)):
            q = 10**digits + 1
            poly = build_polytope([halfspace((1, 0), F(q + 1, q)), halfspace((-1, 0), 1),
                                   halfspace((0, 1), 1), halfspace((0, -1), 1)])
            i = next(i for i, h in enumerate(poly.halfspaces) if h.bound.denominator == q)
            spec = tmp_path / f"long{digits}.json"
            with lowered_digit_limit():
                text = emit_spec(poly)
                assert f'"{report.exact(poly.halfspaces[i].bound)}"' in text
                spec.write_text(text)
                if readable:
                    assert parse_spec(text) == poly
                    continue
                with pytest.raises(ParseError) as err:
                    parse_spec(text)
                assert err.value.where == f"halfspaces[{i}].bound"
                assert main(["analyze", "--spec", str(spec)]) == 2
            assert f"halfspaces[{i}].bound" in capsys.readouterr().err

    def test_invalid_json_reports_position(self):
        with pytest.raises(ParseError):
            parse_spec("{not json")


class TestPLExpressions:
    def test_simple_crease(self):
        pieces = parse_pl_expression("max(0, x1)", 2)
        assert len(pieces) == 2
        assert pieces[1].gradient == (1, 0)

    def test_full_affine(self):
        (piece,) = parse_pl_expression("1/2 + 2*x1 - 3/4*x2", 2)
        assert piece.gradient == (2, F(-3, 4))
        assert piece.constant == F(1, 2)

    def test_three_pieces_with_spaces(self):
        pieces = parse_pl_expression("max(x1 + x2 - 1, 0, -x1 - x2 - 1)", 2)
        assert len(pieces) == 3
        assert pieces[0].constant == -1

    def test_coefficient_on_either_side(self):
        (piece,) = parse_pl_expression("x2*3", 2)
        assert piece.gradient == (0, 3)

    def test_out_of_range_coordinate(self):
        with pytest.raises(ParseError):
            parse_pl_expression("x3", 2)

    def test_garbage_rejected(self):
        for bad in ("max(", "max()", "2**x1", "x1 x2", "1.5 + x1", "", "x2 - x1*3/0"):
            with pytest.raises(ParseError):
                parse_pl_expression(bad, 2)


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("nope")

    def test_all_fixed_names_build(self):
        for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup"):
            poly = catalog(name)
            assert poly.dim == 2
            assert poly.origin_interior

    def test_blowup_counts(self):
        assert len(catalog("cp2_1blowup").facets) == 4
        assert len(catalog("cp2_2blowup").facets) == 5
        assert len(catalog("cp2_3blowup").facets) == 6

    def test_hexagon_string_form(self):
        assert catalog("hexagon(2,3)") == hexagon(2, 3)
        assert catalog("hexagon(7/2, 2)") == hexagon(F(7, 2), 2)

    def test_hexagon_params_rejected(self):
        with pytest.raises(InvalidHexagonParams):
            hexagon(1, 3)
        with pytest.raises(InvalidHexagonParams):
            hexagon(0, 1)
        with pytest.raises(InvalidHexagonParams):
            catalog("hexagon(1,0)")

    def test_names_constant_mentions_every_entry(self):
        assert set(CATALOG_NAMES) >= {
            "cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup",
        }


class TestCLI:
    def test_analyze_exit_zero(self, capsys):
        code = main(["analyze", "--catalog", "cp2_2blowup"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-168/409" in out
        assert "c02" in out

    def test_analyze_structured_deterministic(self, capsys):
        code = main(["analyze", "--catalog", "cp2", "--format", "structured"])
        first = capsys.readouterr().out
        assert code == 0
        main(["analyze", "--catalog", "cp2", "--format", "structured"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["extremal"]["coefficients"][0]["exact"] == "0"

    def test_relative_futaki_spot(self, capsys):
        code = main(["relative-futaki", "--catalog", "cp2", "--pl", "max(0, x1)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "-4/27" in out

    def test_lfun_agreeing_forms(self, capsys):
        code = main([
            "lfun", "--catalog", "cp1xcp1", "--pl", "max(0, x1)",
            "--format", "structured",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["L"]["exact"] == "1"
        assert payload["forms_agree"] is True

    def test_ehrhart_residual(self, capsys):
        code = main([
            "ehrhart", "--catalog", "cp1xcp1", "--pl", "max(0, x1)", "--k", "10",
            "--format", "structured",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["residual"]["exact"] == "1/2"
        assert payload["lattice_points"] == 441

    def test_ehrhart_sums_the_lattice_once(self, capsys, monkeypatch):
        # The count, the weighted sum and the residual come from one scan.
        calls = []
        scan = integration.pl_lattice_sum

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(integration, "pl_lattice_sum", counted)
        assert main(["ehrhart", "--catalog", "cp2", "--pl", "max(0, x1)", "--k", "5"]) == 0
        assert "residual" in capsys.readouterr().out
        assert len(calls) == 1

    def test_catalog_listing_and_emission(self, capsys, tmp_path):
        assert main(["catalog"]) == 0
        listed = capsys.readouterr().out
        assert "cp2_2blowup" in listed
        out_file = tmp_path / "cp2.json"
        assert main(["catalog", "--catalog", "cp2", "--out", str(out_file)]) == 0
        again = parse_spec(out_file.read_text())
        assert again == catalog("cp2")

    def test_spec_file_input(self, capsys, tmp_path):
        spec_path = tmp_path / "poly.json"
        spec_path.write_text(emit_spec(catalog("cp2_1blowup")))
        code = main(["analyze", "--spec", str(spec_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "6/11" in out

    def test_input_errors_exit_two(self, capsys):
        assert main(["analyze", "--catalog", "nope"]) == 2
        assert main(["analyze"]) == 2
        assert main(["analyze", "--catalog", "cp2", "--pl", "max("]) == 2
        assert main(["analyze", "--spec", "/does/not/exist.json"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv,message", [
        (["ehrhart", "--catalog", "cp2", "--pl", "max(0, x1)", "--k", "0"],
         "scale k must be a positive integer, not 0"),
        (["ehrhart", "--catalog", "cp2", "--pl", "max(0, x1)", "--k", "-3"],
         "scale k must be a positive integer, not -3"),
        (["scan", "--spec", "box3_rational.json"],
         "the crease scan is defined for dimension 2 only, not 3"),
    ])
    def test_bad_scale_and_dimension_exit_two(self, capsys, monkeypatch, argv, message):
        # Exit 1 means a failing condition, so these input errors exit 2.
        monkeypatch.chdir(GOLDEN)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["lfun", "--catalog", "cp2", "--pl", "max(0, 1/0*x1)"],
         "max argument 2: zero denominator in term '1/0*x1'"),
        (["lfun", "--catalog", "cp2", "--pl", "1/0"], "zero denominator in term '1/0'"),
        (["analyze", "--spec", "dim_true.json"], "dim: expected an integer in {1, 2, 3}"),
        (["analyze", "--spec", "normal_true.json"],
         "halfspaces[0].normal: expected 2 integer components, got [True, 0]"),
        (["analyze", "--spec", "normal_false.json"],
         "halfspaces[0].normal: expected 2 integer components, got [0, False]"),
        (["lfun", "--catalog", "cp2", "--pl", "max(0, x1, 2*y3)"], "max argument 3: bad term '2*y3'"),
    ])
    def test_bad_expression_and_spec_exit_two(self, capsys, monkeypatch, tmp_path, argv, message):
        # A literal over 0 is no rational, y3 is no coordinate and JSON
        # true and false are no integers: input errors that name the max
        # argument and the term once, or the field.
        rows = [{"normal": [True, 0], "bound": 1}, {"normal": [-1, 0], "bound": 1},
                {"normal": [0, 1], "bound": 1}, {"normal": [0, -1], "bound": 1}]
        (tmp_path / "dim_true.json").write_text(json.dumps(
            {"dim": True, "halfspaces": [{"normal": [1], "bound": 1}, {"normal": [-1], "bound": 1}]}))
        (tmp_path / "normal_true.json").write_text(json.dumps({"dim": 2, "halfspaces": rows}))
        rows[0]["normal"] = [0, False]
        (tmp_path / "normal_false.json").write_text(json.dumps({"dim": 2, "halfspaces": rows}))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    LONG = "1" * 5000  # over CPython's default limit of 4300 digits per int

    @pytest.mark.parametrize("name,data,message", [
        ("latin1.json", b'{"dim": 2, "halfspaces": [{"normal": [1, 0], "bound": "\xff"}]}',
         "latin1.json, byte 55: not UTF-8 text: invalid start byte"),
        ("deep.json", b"[" * 100_000 + b"]" * 100_000,
         "offset 4: arrays and objects nested too deeply to decode"),
        ("long_normal.json",
         b'{"dim": 2, "halfspaces": [{"normal": [' + LONG.encode() + b', 0], "bound": "1"}]}',
         "halfspaces[0].normal: expected 2 integer components, "
         "got [<integer of 5000 digits, too long to read>, 0]"),
    ], ids=["not-utf8", "deep", "long-int"])
    def test_undecodable_spec_exits_two(self, capsys, tmp_path, monkeypatch, name, data, message):
        # Bytes that are not UTF-8, nesting deeper than the decoder's
        # recursion and an integer over the digit limit are input errors
        # that name the byte, the offset or the field, not tracebacks.
        (tmp_path / name).write_bytes(data)
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--spec", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_overlong_coefficient_exits_two(self, capsys):
        expr = f"max(0, {self.LONG}*x1)"
        assert main(["lfun", "--catalog", "cp2", "--pl", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        shown = repr(f"{self.LONG}*x1")[:60]
        assert captured.err == (
            f"error: max argument 2: too many digits in term {shown}... (5005 characters)\n")

    @pytest.mark.parametrize("argv,field", [
        (["lfun", "--catalog", "cp2", "--pl", f"max(0, {LONG}*x1)"],
         "max argument 2: too many digits in term"),
        (["analyze", "--spec", "long_bound.json"], "halfspaces[0].bound: bad rational"),
        (["analyze", "--spec", "long_normal.json"],
         "halfspaces[0].normal: expected 2 integer components"),
        (["analyze", "--catalog", LONG], "no catalog entry"),
        (["analyze", "--spec", "long_content.json"], "normal (2000"),
        (["analyze", "--spec", "long_vertex.json"], "vertex (-1000"),
    ], ids=["pl-coefficient", "spec-bound", "spec-normal", "catalog-name", "content",
            "not-simple"])
    def test_long_input_is_cut_in_errors(self, capsys, tmp_path, monkeypatch, argv, field):
        # An error names the field and echoes at most a fixed length of
        # the input, with its full length, however long the input is.
        rows = {"long_bound.json": [{"normal": [1, 0], "bound": self.LONG + "/0"}],
                "long_normal.json": [{"normal": [0] * 10_000, "bound": 1}],
                "long_content.json": [{"normal": [2 * 10**3000, 2 * 10**3000], "bound": 1}],
                "long_vertex.json": [{"normal": list(signs), "bound": f"{10**3000}/3"}
                                     for signs in itertools.product((1, -1), repeat=3)]}
        for name, halfspaces in rows.items():
            dim = len(halfspaces[0]["normal"]) if name == "long_vertex.json" else 2
            (tmp_path / name).write_text(json.dumps({"dim": dim, "halfspaces": halfspaces}))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}")
        assert " characters)" in captured.err
        assert len(captured.err.encode()) < 300

    def test_points_in_errors_read_as_rationals(self, capsys, tmp_path):
        # A point in an error is written like a spec, not as Fraction reprs.
        spec = tmp_path / "octahedron.json"
        spec.write_text(json.dumps({"dim": 3, "halfspaces": [
            {"normal": list(signs), "bound": 1} for signs in itertools.product((1, -1), repeat=3)]}))
        assert main(["analyze", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == "error: vertex (-1, 0, 0) lies on 4 facets\n"
        u = make_pl([zero_function(2)], catalog("cp2"))
        with pytest.raises(OutsideDomain, match=r"^\(3, 1/2\) is outside the domain closure$"):
            u.evaluate((3, F(1, 2)))
        with pytest.raises(OutsideDomain, match=r"^\(1000.*\.\.\. \(\d+ characters\) is outside"):
            u.evaluate((10**100, 0))

    @pytest.mark.parametrize("rows,message", [
        ([((1, 0), 1), ((0, 1), 1), ((0, -1), 1)], "direction (-1, 0) recedes"),
        ([((1, 0), -2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)],
         "half-space intersection is empty"),
        ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)],
         "vertex hull is not full-dimensional"),
        # Empty, although (0, -1) recedes from every half-space.
        ([((1, 0), -1), ((-1, 0), -1), ((0, 1), 0)], "half-space intersection is empty"),
    ])
    def test_bad_body_spec_exits_two(self, capsys, tmp_path, rows, message):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({
            "dim": 2,
            "halfspaces": [{"normal": list(n), "bound": b} for n, b in rows],
        }))
        assert main(["analyze", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_scan_subcommand_small_body(self, capsys, monkeypatch):
        # Patch the default grid down so the CLI path stays fast here; the
        # full default grid is exercised by the acceptance suite.
        import toricstab.cli as cli_mod
        from toricstab.destabilizer import ScanConfig

        monkeypatch.setattr(
            cli_mod, "ScanConfig",
            lambda: ScanConfig(direction_count=16, offset_count=6, refine_rounds=1),
        )
        code = main(["scan", "--catalog", "cp1xcp1", "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["scan"]["destabilizer_found"] is False

    @pytest.mark.parametrize("name,golden", [("cp2_2blowup", "scan_cp2_2blowup.json"),
                                             ("hexagon(2,3)", "scan_hexagon23.json"),
                                             ("blowup1_moved.json", "scan_blowup1_moved.json"),
                                             ("cp2_2blowup", "scan_cp2_2blowup.txt"),
                                             ("hexagon(2,3)", "scan_hexagon23.txt"),
                                             ("blowup1_moved.json", "scan_blowup1_moved.txt")])
    def test_default_scan_golden_bytes(self, tmp_path, monkeypatch, name, golden):
        # The files hold the output of the scan that sent every grid
        # candidate through the kernel; the profile scan must match them
        # byte for byte, as canonical JSON (``.json``) and as the default
        # table (``.txt``).  The two catalog polygons are lattice polygons
        # around the origin; the spec is cp2_1blowup moved by (3/2, 1/3),
        # so its vertices are over 6 and the scan's base point is the
        # barycenter.  Their conditions cover every applicability rule:
        # c02prime and c04 on cp2_2blowup, c61 on the hexagon, and on the
        # moved spec c02prime without c04.
        monkeypatch.chdir(GOLDEN)
        source = ["--spec", name] if name.endswith(".json") else ["--catalog", name]
        out = tmp_path / "scan.out"
        fmt = "table" if golden.endswith(".txt") else "structured"
        code = main(["scan", *source, "--format", fmt, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("tag,source,expr", [
        ("cp2_2blowup", ["--catalog", "cp2_2blowup"], "max(0, x1 - 1/2, 1/3*x1 + x2)"),
        ("hexagon23", ["--catalog", "hexagon(2,3)"], "max(0, x1 - x2 + 1/2, 2/3*x2 - 1)"),
        ("box3", ["--spec", "box3_rational.json"], "max(0, x1 + x2 - 1/3, x3 - 1/2)"),
    ])
    @pytest.mark.parametrize("command,prefix", [("lfun", "lfun"), ("analyze", "analyze_pl"),
                                                ("analyze", "analyze_pl_table")])
    def test_pl_golden_bytes(self, tmp_path, monkeypatch, tag, source, expr, command, prefix):
        # The structured output of ``lfun --pl`` (both forms of L) and
        # ``analyze --pl``, and the default table of ``analyze --pl``
        # (``analyze_pl_table``), must match these files byte for byte.
        # The spec is read relative to the golden directory, so its name
        # in the report does not depend on where the tests run.
        monkeypatch.chdir(GOLDEN)
        out = tmp_path / "out"
        fmt, suffix = ("table", "txt") if prefix.endswith("_table") else ("structured", "json")
        code = main([command, *source, "--pl", expr, "--format", fmt, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"{prefix}_{tag}.{suffix}").read_bytes()

    @pytest.mark.parametrize("tag,source,expr", [
        ("cp2_2blowup", ["--catalog", "cp2_2blowup"], "max(0, x1 - 1/2, 1/3*x1 + x2)"),
        ("hexagon23", ["--catalog", "hexagon(2,3)"], "max(0, x1 - x2 + 1/2, 2/3*x2 - 1)"),
        ("box3", ["--spec", "box3_rational.json"], "max(0, x1 + x2 - 1/3, x3 - 1/2)"),
    ])
    @pytest.mark.parametrize("k", [3, 10])
    def test_ehrhart_golden_bytes(self, tmp_path, monkeypatch, tag, source, expr, k):
        # The lattice sum, the PL volume and boundary integrals and the
        # residual that ``ehrhart`` prints must match these files byte for
        # byte.
        monkeypatch.chdir(GOLDEN)
        out = tmp_path / "out.json"
        code = main(["ehrhart", *source, "--pl", expr, "--k", str(k), "--format", "structured",
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"ehrhart_{tag}_k{k}.json").read_bytes()

    @pytest.mark.parametrize("argv,code,golden", [
        (["analyze", "--spec", "segment_rational.json", "--pl", "max(0, x1 - 1/3, -2*x1 - 1/5)"],
         0, "analyze_pl_segment.json"),
        (["analyze", "--spec", "nondelzant_triangle.json"], 1, "analyze_nondelzant_triangle.json"),
        (["lfun", "--spec", "slanted_simplex3.json", "--pl", "max(0, x1 + x2 - 1/3, x3 - 1/2)"],
         0, "lfun_slanted_simplex3.json"),
    ], ids=["segment", "nondelzant", "slanted-simplex"])
    def test_vertex_order_and_slanted_facet_golden_bytes(self, tmp_path, monkeypatch,
                                                         argv, code, golden):
        # Bytes that depend on the vertex order and on facets whose normal
        # has a first nonzero entry of size 2: a segment with rational ends,
        # the triangle x, y >= -1, 2x + y <= 2, whose Delzant violator is
        # the first failing vertex in lexicographic order, and the simplex
        # x, y, z >= -1, 2x + y + z <= 2.
        monkeypatch.chdir(GOLDEN)
        out = tmp_path / "out.json"
        assert main([*argv, "--format", "structured", "--out", str(out)]) == code
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_values_past_the_float_range_keep_their_exact_form(self, capsys, tmp_path):
        # A value too large for a float has "approx": null and is printed
        # alone in tables; values in range keep their approximation.
        assert report.rational_entry(F(-(10**400), 3)) == {
            "exact": f"-{10**400}/3", "approx": None}
        assert report.rational_entry(F(1, 4)) == {"exact": "1/4", "approx": 0.25}
        big = 10**400
        structured = []
        for coefficient in (1, big):
            argv = ["lfun", "--catalog", "cp2", "--pl", f"max(0, {coefficient}*x1)"]
            assert main([*argv, "--format", "structured"]) == 0
            structured.append(json.loads(capsys.readouterr().out))
            assert main(argv) == 0
            table = capsys.readouterr().out
        small, large = structured
        assert large["L"] == {"exact": str(big * Fraction(small["L"]["exact"])), "approx": None}
        assert f"L            {large['L']['exact']}\n" in table
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps({"dim": 2, "halfspaces": [
            {"normal": [1, 0], "bound": str(2 * 10**308)},
            {"normal": [0, 1], "bound": 1}, {"normal": [-1, -1], "bound": 1}]}))
        assert main(["analyze", "--spec", str(spec), "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["polytope"]["volume"]["approx"] is None
        assert payload["conditions"][0]["margin"]["approx"] == 1.5e-308
        assert main(["analyze", "--spec", str(spec)]) == 0
        assert f"  volume            {payload['polytope']['volume']['exact']}\n" in (
            capsys.readouterr().out)

    def test_exact_values_past_the_digit_limit(self, capsys, tmp_path):
        # CPython writes no integer of more than 4,300 digits by default.
        # Every input here is under that limit, and L is far past it.
        spec = tmp_path / "triangle.json"
        spec.write_text(json.dumps({"dim": 2, "halfspaces": [
            {"normal": [1, 0], "bound": str(10**200)},
            {"normal": [0, 1], "bound": str(10**200)},
            {"normal": [-1, -1], "bound": 1}]}))
        expr = f"max(0, {10**4000}*x1)"
        poly = parse_spec(spec.read_text())
        value = invariants.linear_functional_L(
            poly, make_pl(parse_pl_expression(expr, 2), poly), invariants.extremal_field(poly))
        samples = [value, -value, Fraction(10**5000 + 1, 10**4400 - 3), 10**4300, -(10**9000)]
        with lifted_digit_limit():
            want = [str(Fraction(v)) for v in samples]
        assert len(want[0]) > 4300
        assert [report.exact(v) for v in samples] == want
        big, small = 10**4300, -(10**9000) + 7
        tuples = [(big,), (small,), (big, small), (3, small)]
        fractions = [(value,), (-value, F(1, 3)), (F(2), value)]
        with lifted_digit_limit():
            texts = [repr(t) for t in tuples]
            texts += [f"({', '.join(map(str, t))}{',' * (len(t) == 1)})" for t in fractions]
        assert [errors.exact(t) for t in tuples + fractions] == texts
        assert [errors.shown(t) for t in tuples + fractions] == [
            f"{text[:60]}... ({len(text)} characters)" for text in texts]
        argv = ["lfun", "--spec", str(spec), "--pl", expr]
        assert main([*argv, "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["L"] == {"exact": want[0], "approx": None}
        assert main(argv) == 0
        assert f"L            {want[0]}\n" in capsys.readouterr().out

    # Every input is under 640 digits; some derived value is past it: a
    # vertex of the pyramid, a centered bound of the pentagon, L and the
    # invariants of the long PL function (1,051 digits each way; its
    # cells keep no warnings), the lattice box of a long k.
    Q = 10**350

    @staticmethod
    def _long_spec(tmp_path, name):
        q1, q2 = TestCLI.Q + 1, TestCLI.Q + 3
        if name == "pyramid":
            b1, b2 = F(3 * q1 + 1, q1), F(2 * q2 + 1, q2)
            rows = [((1, 0, 1), b1), ((-1, 0, 1), b2), ((0, 1, 1), b1 + 1),
                    ((0, -1, 1), b2 - 1), ((0, 0, -1), 10)]
        else:
            rows = [((1, 0), 3 + F(1, q1)), ((0, 1), 2 + F(1, q2)), ((-1, 0), 1),
                    ((0, -1), 1), ((1, 1), 4)]
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps({"dim": len(rows[0][0]), "halfspaces": [
            {"normal": list(n), "bound": str(b)} for n, b in rows]}))
        return str(spec)

    LONG_PL = f"max(0, x1 - 1/2 - 1/{Q + 1}, 2*x1 - 1 - 1/{Q + 3})"

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "--spec", "pyramid"], 2),
        (["analyze", "--center", "--spec", "pentagon"], 0),
        (["lfun", "--catalog", "cp2", "--pl", LONG_PL], 0),
        (["relative-futaki", "--catalog", "cp2", "--pl", LONG_PL], 0),
        (["ehrhart", "--catalog", "cp2", "--pl", LONG_PL, "--k", "3"], 0),
        (["analyze", "--catalog", "cp2", "--pl", LONG_PL], 0),
        (["analyze", "--catalog", "cp2", "--pl", LONG_PL, "--format", "structured"], 0),
        (["ehrhart", "--catalog", "cp2", "--pl", "max(0, x1)", "--k", str(Q)], 2),
    ], ids=["pyramid", "centered-pentagon", "lfun", "relative-futaki", "ehrhart",
            "analyze-pl", "analyze-pl-structured", "ehrhart-long-k"])
    def test_derived_values_past_a_lowered_digit_limit(self, capsys, tmp_path, argv, code):
        argv = [self._long_spec(tmp_path, a) if a in ("pyramid", "pentagon") else a
                for a in argv]
        runs = []
        for limit in (lowered_digit_limit, lifted_digit_limit):
            with limit():
                runs.append((main(argv), *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == code

    def test_center_flag(self, capsys):
        code = main([
            "analyze", "--catalog", "cp2_2blowup", "--center",
            "--format", "structured",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [c["exact"] for c in payload["centering"]] == ["0", "0"]
        # Extremal coefficients are translation invariant.
        assert payload["extremal"]["coefficients"][0]["exact"] == "-168/409"

    def test_translated_spec_keeps_catalog_margins(self, capsys, tmp_path):
        spec_path = tmp_path / "moved.json"
        spec_path.write_text(emit_spec(translate(catalog("cp2_2blowup"), (10, 10))))
        code = main(["analyze", "--spec", str(spec_path), "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        margins = {c["name"]: c["margin"]["exact"] for c in payload["conditions"]}
        assert margins["c02"] == margins["c43"] == "105/409"
        assert margins["c02doubleprime"] == "1"
        # The cone-volume form reports at the given origin, which is outside.
        assert "c04" not in margins

    def test_failing_condition_exits_one(self, capsys, tmp_path):
        # A long thin box violates the curvature bound against its longest
        # facet, so analyze must exit 1.
        text = json.dumps({
            "dim": 2,
            "halfspaces": [
                {"normal": [1, 0], "bound": 8},
                {"normal": [-1, 0], "bound": 8},
                {"normal": [0, 1], "bound": "1/8"},
                {"normal": [0, -1], "bound": "1/8"},
            ],
        })
        spec_path = tmp_path / "thin.json"
        spec_path.write_text(text)
        code = main(["analyze", "--spec", str(spec_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILS" in out


class TestPublicSurface:
    def test_exported_names(self):
        # The public surface changes only on purpose: update this list
        # together with the change and its note in CHANGES.md.
        assert sorted(toricstab.__all__) == [
            "AffineFunction", "CATALOG_NAMES", "ConditionVerdict", "DegenerationReport",
            "ExtremalData", "Facet", "HalfSpace", "KERNEL_BACKEND", "LatticeSum",
            "PLFunction", "Polynomial", "Polytope", "Rational", "ScanConfig", "ScanResult",
            "SimplePL", "ToricStabError", "affine", "average_scalar_curvature",
            "boundary_integral", "build_polytope", "catalog", "centering_constants",
            "check_condition", "delzant_check", "destabilizer", "ehrhart_residual",
            "emit_spec", "errors", "extremal_field", "futaki_vector", "geometry",
            "halfspace", "hexagon", "integrate_polynomial", "integration", "invariants",
            "is_affine", "kernels", "linear_functional_L", "linear_functional_L_cone",
            "make_pl", "parse_spec", "pl_lattice_sum", "plfunc", "relative_futaki", "scan",
            "specfile", "translate",
        ]

    def test_value_records_refuse_assignment(self):
        poly = catalog("cp2")
        extremal = toricstab.extremal_field(poly)
        u = toricstab.make_pl(parse_pl_expression("max(0, x1)", 2), poly)
        records = [
            poly.halfspaces[0],
            poly.best_origin,
            toricstab.pl_lattice_sum(poly, u, 2),
            extremal,
            toricstab.relative_futaki(poly, u, extremal),
            toricstab.check_condition(poly, extremal, "c02"),
            u.cells[0],
            toricstab.SimplePL(toricstab.affine((1, 0), 0)),
            toricstab.scan(poly, extremal, toricstab.ScanConfig(8, 4, 1)),
        ]
        assert sorted(type(r).__name__ for r in records) == [
            "BestOrigin", "Cell", "ConditionVerdict", "DegenerationReport", "ExtremalData",
            "HalfSpace", "LatticeSum", "ScanResult", "SimplePL"]
        for record in records:
            first = type(record)._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, first, getattr(record, first))

    def test_cli_import_generates_no_code(self):
        # Every command starts by importing the CLI: it must not load
        # dataclasses, whose records exec generated methods, nor inspect.
        src = Path(toricstab.__file__).resolve().parent.parent
        code = (f"import sys; sys.path.insert(0, {str(src)!r}); import toricstab.cli; "
                "print(toricstab.cli.__file__); "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, timeout=60, check=True)
        where, loaded = done.stdout.splitlines()
        assert Path(where).resolve().parent.parent == src
        assert loaded == "[]"
