"""The benchmark's per-layer trace still fits the library.

``perfbench/tracer.py`` wraps the public functions of the layer modules
from outside, and ``perfbench/layers.py`` reads a layer metric as None when
a function that a workload is expected to call records no call, or when a
call no longer fits its counter.  A library change that routes around a
traced function (``integrate_pl`` no longer calling
``integrate_polynomial``, say) or changes a counted signature leaves every
output exact and the run green, but its per-layer metrics unreadable.  So
one seeded request per workload runs here through the tracer, and every
per-layer metric that ``BENCHMARK.json`` lists must come out as a number.
The benchmark's files are read, never changed.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import commands  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_traced_request_fills_every_layer_metric(workload):
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    req = next(workloads.requests(workload, 30))
    trace = tracer.Tracer()
    with trace:
        trace.request = 0
        commands.execute(req)
    calls, self_ns = trace.totals()
    values, warnings = layers.per_layer(names, workload, 1, calls, self_ns,
                                        trace.counts, trace.broken)
    assert trace.broken == set()
    assert warnings == []
    assert [name for name, value in values.items() if value is None] == []
