#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of toricstab.

    python3 perfbench/run.py --workload degenerations --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``, and the run stops with exit code 2 when it is not there.  One
client sends requests in a closed loop: the next request starts when the
previous one returns, as a CLI user works.  Each request makes the calls of
the CLI commands behind its workload (see ``commands.py``) on seeded
spec-file and PL-expression text (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: from starting a fresh interpreter to its import of the CLI
  having returned, median of several;
* ``latency_p50_ms`` and ``latency_tail_ms``: the median and the highest
  percentile with at least ten samples beyond it (which one is recorded as
  ``tail_percentile``) of the requests that passed every check;
* ``throughput_rps``: those requests over the busy time of all requests;
* ``peak_rss_mb``: the process's peak resident set after the timed phase.

Times are in reference seconds, scaled by the host speed measured next to
them (see ``hostspeed.py``); the raw request times are printed and kept
beside them.
``failed_frac`` is printed as well, and the last line carries ``failed``
and ``attempted``.

``--trace 1`` runs half the time untraced, then replays the same requests
with every layer wrapped (see ``tracer.py``) and reports the per-layer
metrics (see ``layers.py``).  Requests are checked outside the timed phase
by the benchmark's own oracles, and the fixed golden requests by the digest
of their exact values (see ``golden.py``); a request that raises or fails
a check counts as failed.  ``--workload all`` runs the three workloads one
after another in one process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
the definitions, every request's digest and latency, and the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

# setup_s is the median over this many fresh interpreters, after one more
# that is not counted and writes the bytecode caches.
SETUP_REPEATS = 21
SETUP_CODE = ("import time, toricstab.cli; t = time.monotonic(); import hostspeed; "
              "print(t, hostspeed.calibration_seconds())")
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
# Self times of the spans of a traced request must cover at least this share
# of its wall time; the rest is the benchmark's own code between calls.
TRACE_TOLERANCE = 0.05


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_library():
    """Import toricstab from this checkout's ``src/``, and nowhere else."""
    package = SRC / "toricstab"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no toricstab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import toricstab

    if Path(toricstab.__file__).resolve().parent != package.resolve():
        raise SetupError(f"toricstab imported from {toricstab.__file__}, not {package}")
    return toricstab


def load_benchmark():
    try:
        with open(BENCHMARK_FILE, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {BENCHMARK_FILE.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail_latency(samples):
    """``(value, percentile)`` of the highest percentile that still has at
    least TAIL_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave none with {TAIL_BEYOND} beyond it")
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100 * rank / n


def measure_setup():
    """Median time from starting a fresh interpreter to its CLI import.

    The child stamps the system-wide monotonic clock once the import has
    returned, then runs one calibration, so its time is scaled by the speed
    of the core it ran on (see ``hostspeed.py``).
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        end = time.monotonic()
        if done.returncode != 0:
            raise SetupError(f"set-up failed: {done.stderr}")
        imported, calibration = (float(v) for v in done.stdout.split())
        if not start < imported < end:
            raise SetupError("the child's monotonic clock is not the parent's")
        times.append((imported - start) * hostspeed.REFERENCE_SECONDS / calibration)
    return statistics.median(times[1:])


def check(commands, req, out):
    """Oracles and digest of one outcome; runs outside the timed phase."""
    values = commands.exact_values(req, out)
    return commands.digest(values), commands.oracle_failures(req, out)


def timed_pass(commands, stream, seconds):
    """Closed-loop requests until their busy time reaches ``seconds``.

    Each record holds the request's raw time and, in ``scaled``, the time
    in reference seconds (see ``hostspeed.py``).
    """
    records = []
    busy = 0.0
    gc.collect()
    calibrations = [hostspeed.calibration_seconds()]
    while busy < seconds:
        req = next(stream)
        out, digest, problems = None, None, []
        start = time.perf_counter()
        try:
            out = commands.execute(req)
        except Exception:  # a failed request is counted, and the run goes on
            problems = [traceback.format_exc()]
        elapsed = time.perf_counter() - start
        busy += elapsed
        calibrations.append(hostspeed.calibration_seconds())
        if out is not None:
            try:
                digest, problems = check(commands, req, out)
            except Exception:
                problems = [traceback.format_exc()]
        records.append({"req": req, "seconds": elapsed, "digest": digest, "problems": problems})
    scale(records, calibrations)
    return records


def scale(records, calibrations):
    for record, factor in zip(records, hostspeed.factors(calibrations)):
        record["factor"] = factor
        record["scaled"] = record["seconds"] * factor


def traced_pass(commands, tracer_module, records):
    """Replay the requests of an untraced pass with every layer wrapped."""
    tracer = tracer_module.Tracer()
    replay = []
    gc.collect()
    calibrations = [hostspeed.calibration_seconds()]
    with tracer:
        for i, record in enumerate(records):
            tracer.request = i
            start = time.perf_counter()
            try:
                commands.execute(record["req"])
            except Exception:  # already counted by the untraced pass
                pass
            elapsed = time.perf_counter() - start
            tracer.request = None
            calibrations.append(hostspeed.calibration_seconds())
            replay.append({"seconds": elapsed})
    scale(replay, calibrations)
    return tracer, replay


def golden_check(commands, golden, workload):
    """Run the golden requests; returns (attempted, problems by request)."""
    expected = golden.expected().get(workload, [])
    requests = golden.golden_requests(workload)
    problems = {}
    for i, req in enumerate(requests):
        try:
            digest, found = check(commands, req, commands.execute(req))
        except Exception:
            problems[req.name] = [traceback.format_exc()]
            continue
        if i >= len(expected) or digest != expected[i]:
            found = found + [f"exact values changed: digest {digest}"]
        if found:
            problems[req.name] = found
    return len(requests), problems


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(bench, workload, seed, seconds, trace):
    import commands
    import golden
    import layers
    import tracer as tracer_module
    import workloads

    setup_s = measure_setup()
    golden_attempted, golden_problems = golden_check(commands, golden, workload)
    stream = workloads.requests(workload, seed)
    records = timed_pass(commands, stream, seconds / 2 if trace else seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = sum(1 for r in records if r["problems"]) + len(golden_problems)
    attempted = len(records) + golden_attempted
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {"setup_s": setup_s, **latency_metrics(records, "scaled"),
                       "failed_frac": failed / attempted, "peak_rss_mb": peak_rss_mb},
        "raw": latency_metrics(records, "seconds"),
        "requests": request_summary(records),
        "golden": {"attempted": golden_attempted, "problems": golden_problems},
        "problems": {r["req"].name: r["problems"] for r in records if r["problems"]},
        "digests": [{"index": r["req"].index, "name": r["req"].name, "sha256": r["digest"],
                     "latency_ms": r["seconds"] * 1000, "factor": r["factor"]}
                    for r in records],
        "warnings": [],
    }
    if trace:
        tracer, replay = traced_pass(commands, tracer_module, records)
        calls, self_ns = tracer.totals([r["factor"] for r in replay])
        names = [m["name"] for m in bench["per_layer"]]
        values, warnings = layers.per_layer(names, workload, len(records), calls, self_ns,
                                            tracer.counts, tracer.broken)
        values["trace.overhead_frac"] = (sum(r["scaled"] for r in replay)
                                         / sum(r["scaled"] for r in records) - 1)
        _, raw_self_ns = tracer.totals()
        coverage = sum(raw_self_ns.values()) / 1e9 / sum(r["seconds"] for r in replay)
        if coverage < 1 - TRACE_TOLERANCE:
            warnings.append(f"span self times cover {coverage:.3f} of request wall time")
        result["per_layer"] = values
        result["trace_coverage"] = coverage
        result["warnings"] += warnings
        result["spans"] = tracer.spans
    return result


def latency_metrics(records, key):
    """p50, tail and throughput of the requests that passed every check."""
    ok = [r[key] for r in records if not r["problems"]]
    out = {"latency_p50_ms": None, "latency_tail_ms": None, "tail_percentile": None,
           "throughput_rps": len(ok) / sum(r[key] for r in records)}
    if ok:
        out["latency_p50_ms"] = statistics.median(ok) * 1000
    if len(ok) > TAIL_BEYOND:
        tail, out["tail_percentile"] = tail_latency(ok)
        out["latency_tail_ms"] = tail * 1000
    return out


def request_summary(records):
    """Request count and input-size ranges."""
    import commands

    def span(values):
        return [min(values), max(values)] if values else None

    reqs = [r["req"] for r in records]
    facets = [len(commands.spec_rows(q.spec)) for q in reqs]
    pieces = [q.expr.count(",") + 1 for q in reqs if q.expr]
    kinds = {}
    for q in reqs:
        kinds[q.kind] = kinds.get(q.kind, 0) + 1
    return {"count": len(reqs), "kinds": kinds, "halfspaces": span(facets),
            "pl_pieces": span(pieces), "k": span([q.k for q in reqs if q.k])}


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def environment(toricstab, seed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "toricstab_version": toricstab.__version__,
        "kernel_backend": toricstab.KERNEL_BACKEND,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def write_results(bench, env, results, seed, trace):
    import layers

    OUT.mkdir(exist_ok=True)
    stem = f"{'-'.join(r['workload'] for r in results)}-seed{seed}-trace{trace}"
    spans = {}
    for r in results:
        if "spans" in r:
            spans[r["workload"]] = r.pop("spans")
    document = {
        "environment": env,
        "definitions": {
            "workloads": bench["workloads"],
            "end_to_end": bench["end_to_end"],
            "per_layer": bench["per_layer"],
            "layer_map": layers.LAYER_MAP,
            "expected_layers": layers.EXPECTED,
            "load": "closed loop, one client",
            "tail_rule": f"highest percentile with at least {TAIL_BEYOND} samples beyond it",
            "trace_tolerance": TRACE_TOLERANCE,
        },
        "results": results,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)
    if spans:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for workload, rows in spans.items():
                for row in rows:
                    handle.write(json.dumps([workload, *row]) + "\n")
    return OUT / f"{stem}.json"


def units(bench):
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def print_workload(result, unit_of):
    w = result["workload"]
    unit_of = {**unit_of, "failed_frac": "fraction", "tail_percentile": "%"}
    rows = [(name, value) for name, value in result["end_to_end"].items()]
    rows += [(f"raw.{name}", value) for name, value in result["raw"].items()]
    rows += list(result.get("per_layer", {}).items())
    for name, value in rows:
        unit = unit_of.get(name.removeprefix("raw."), "")
        print(f"{w:<14} {name:<44} {value!s:>22} {unit}")
    for line in result["warnings"]:
        print(f"warning: {w}: {line}", file=sys.stderr)


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        bench = load_benchmark()
        args = parse_args(argv, [w["name"] for w in bench["workloads"]])
        toricstab = load_library()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(toricstab, args.seed)
    chosen = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    results = [run_workload(bench, w, args.seed, args.seconds, args.trace) for w in chosen]

    unit_of = units(bench)
    for result in results:
        print_workload(result, unit_of)
    path = write_results(bench, env, results, args.seed, args.trace)
    print(f"results: {path.relative_to(ROOT)}")

    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for result in results:
        values = result["per_layer"] if args.trace else result["end_to_end"]
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name in listed:
            metrics[prefix + name] = {"value": values.get(name), "unit": unit_of[name]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
