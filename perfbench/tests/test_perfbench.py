"""The benchmark's own tests: inputs, the tail rule, tracing and the gates.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

import ast
import itertools
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import commands
import golden
import layers
import run
import tracer
import workloads
from toricstab import specfile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def take(workload, seed, count):
    return list(itertools.islice(workloads.requests(workload, seed), count))


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_strings(workload):
    first = [(r.spec, r.expr, r.k) for r in take(workload, 7, 60)]
    second = [(r.spec, r.expr, r.k) for r in take(workload, 7, 60)]
    assert first == second
    assert first != [(r.spec, r.expr, r.k) for r in take(workload, 8, 60)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_polytope_repeats_within_a_run(workload):
    keys = [
        tuple(sorted(commands.spec_rows(r.spec))) for r in take(workload, 3, 400)
    ]
    assert len(set(keys)) == len(keys)


def test_degenerations_polytopes_have_the_origin_inside():
    reqs = take("degenerations", 5, 3 * workloads.DEGENERATIONS_3D_EVERY)
    assert {r.kind for r in reqs} == {"2d", "3d"}
    for req in reqs:
        assert specfile.parse_spec(req.spec).origin_interior, req.name


def test_scan_includes_every_catalog_polygon():
    names = {r.name for r in take("scan", 1, 5 * workloads.SCAN_CATALOG_EVERY)}
    assert {name for name, _ in workloads.CATALOG_POLYGONS} <= names


# -- the tail rule -----------------------------------------------------------


def test_tail_keeps_ten_samples_beyond_it():
    samples = list(range(1, 101))
    value, percentile = run.tail_latency(samples)
    assert (value, percentile) == (90, 90.0)
    assert sum(1 for s in samples if s > value) == run.TAIL_BEYOND
    value, percentile = run.tail_latency(list(range(1, 12)))
    assert value == 1 and sum(1 for s in range(1, 12) if s > value) == 10


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail_latency(list(range(10)))


# -- exactness gates ---------------------------------------------------------


def test_golden_requests_match_their_digests():
    attempted, problems = run.golden_check(commands, golden, "lattice")
    assert attempted == golden.GOLDEN_COUNT["lattice"]
    assert problems == {}


def test_oracles_pass_and_catch_an_altered_value():
    for workload in workloads.WORKLOADS:
        req = next(r for r in take(workload, 2, 4) if r.kind == "2d")
        out = commands.execute(req)
        assert commands.oracle_failures(req, out) == []
        before = commands.digest(commands.exact_values(req, out))
        key = {"degenerations": "L_cone", "scan": "lambda_star_estimate",
               "lattice": "weighted_sum"}[workload]
        altered = replace(out, values={**out.values, key: out.values[key] + 1})
        assert commands.digest(commands.exact_values(req, altered)) != before
        if workload == "degenerations":
            assert commands.oracle_failures(req, altered)


def test_brute_force_lattice_oracle_sees_a_wrong_count():
    req = next(r for r in take("lattice", 4, 4) if r.kind == "2d")
    req = replace(req, k=3)
    out = commands.execute(req)
    assert commands.oracle_failures(req, out) == []
    wrong = replace(out, values={**out.values, "lattice_points": out.values["lattice_points"] + 1})
    assert commands.oracle_failures(req, wrong)


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_names_from_toricstab():
    for path in BENCH.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("toricstab"):
                assert not any(private(p) for p in node.module.split(".")), path
                for alias in node.names:
                    assert not private(alias.name), (path, alias.name)
                    modules.add(alias.asname or alias.name)
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("toricstab"):
                        assert not any(private(p) for p in alias.name.split(".")), path
                        modules.add((alias.asname or alias.name).split(".")[0])
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert not private(node.attr), (path, node.value.id, node.attr)


# -- tracing -----------------------------------------------------------------


def traced(reqs):
    trace = tracer.Tracer()
    walls = []
    with trace:
        for i, req in enumerate(reqs):
            trace.request = i
            start = time.perf_counter_ns()
            commands.execute(req)
            walls.append(time.perf_counter_ns() - start)
    return trace, walls


def test_call_site_bindings_are_wrapped_and_restored():
    from toricstab import destabilizer, integration, kernels

    originals = (destabilizer.simple_pl_values, integration.lattice_weighted_sum)
    scan_req = take("scan", 1, 1)[0]
    lattice_req = next(r for r in take("lattice", 1, 4) if r.kind == "2d")
    trace, _ = traced([scan_req, lattice_req])
    calls, _ = trace.totals()
    assert calls["kernels.simple_pl_values"] > 0
    assert calls["kernels.lattice_weighted_sum"] == 2
    assert calls["geometry.intersect"] >= 2
    assert (destabilizer.simple_pl_values, integration.lattice_weighted_sum) == originals
    assert kernels.simple_pl_values is originals[0]


def test_self_times_add_up_to_request_wall_time():
    reqs = [r for r in take("degenerations", 1, 4) if r.kind == "2d"][:2]
    reqs += [take("scan", 1, 1)[0], take("lattice", 1, 1)[0]]
    trace, walls = traced(reqs)
    for i, wall in enumerate(walls):
        own = sum(s[6] for s in trace.spans if s[2] == i)
        assert (1 - run.TRACE_TOLERANCE) * wall <= own <= wall


def test_spans_name_their_parent():
    trace, _ = traced(take("scan", 1, 1))
    ids = {s[0]: s for s in trace.spans}
    for span_id, parent, _, name, start, end, _ in trace.spans:
        if parent is not None:
            outer = ids[parent]
            assert outer[4] <= start <= end <= outer[5], name


def test_missing_layer_reads_none_and_absent_layer_reads_zero():
    names = ["geometry.intersect.calls", "destabilizer.scan.self_ms",
             "kernels.simple_pl_values.useful_frac"]
    values, warnings = layers.per_layer(names, "lattice", 4, {}, {}, {}, set())
    assert values["geometry.intersect.calls"] is None and warnings
    assert values["destabilizer.scan.self_ms"] == 0
    assert values["kernels.simple_pl_values.useful_frac"] == 0


# -- the benchmark file ------------------------------------------------------


def test_benchmark_file_names_what_the_run_measures():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for metric in bench["per_layer"]:
        function, _, stat = metric["name"].rpartition(".")
        if function == "trace":
            continue
        assert function in layers.EXPECTED, metric["name"]
        assert stat in ("calls", "self_ms") or stat in layers.STATS, metric["name"]


def test_run_refuses_a_directory_without_the_library():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert done.returncode == 2
    assert done.stdout == ""
