"""Spec files, expression parsing, catalog entries, CLI behaviour."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import toricstab
from toricstab import catalog, emit_spec, integration, parse_spec, translate
from toricstab.catalog import CATALOG_NAMES, hexagon
from toricstab.cli import main
from toricstab.errors import InvalidHexagonParams, ParseError, UnknownName
from toricstab.plexpr import parse_pl_expression


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
        for bad in ("max(", "max()", "2**x1", "x1 x2", "1.5 + x1", ""):
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
                                             ("blowup1_moved.json", "scan_blowup1_moved.json")])
    def test_default_scan_golden_bytes(self, tmp_path, monkeypatch, name, golden):
        # The files hold the output of the scan that sent every grid
        # candidate through the kernel; the profile scan must match them
        # byte for byte.  The two catalog polygons are lattice polygons
        # around the origin; the spec is cp2_1blowup moved by (3/2, 1/3),
        # so its vertices are over 6 and the scan's base point is the
        # barycenter.
        monkeypatch.chdir(GOLDEN)
        source = ["--spec", name] if name.endswith(".json") else ["--catalog", name]
        out = tmp_path / "scan.json"
        code = main(["scan", *source, "--format", "structured", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("tag,source,expr", [
        ("cp2_2blowup", ["--catalog", "cp2_2blowup"], "max(0, x1 - 1/2, 1/3*x1 + x2)"),
        ("hexagon23", ["--catalog", "hexagon(2,3)"], "max(0, x1 - x2 + 1/2, 2/3*x2 - 1)"),
        ("box3", ["--spec", "box3_rational.json"], "max(0, x1 + x2 - 1/3, x3 - 1/2)"),
    ])
    @pytest.mark.parametrize("command,prefix", [("lfun", "lfun"), ("analyze", "analyze_pl")])
    def test_pl_golden_bytes(self, tmp_path, monkeypatch, tag, source, expr, command, prefix):
        # The structured output of ``lfun --pl`` (both forms of L) and
        # ``analyze --pl`` must match these files byte for byte.  The spec
        # is read relative to the golden directory, so its name in the
        # report does not depend on where the tests run.
        monkeypatch.chdir(GOLDEN)
        out = tmp_path / "out.json"
        code = main([command, *source, "--pl", expr, "--format", "structured",
                     "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"{prefix}_{tag}.json").read_bytes()

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
