"""Per-layer metrics from a traced pass, and what each should move.

A per-layer metric is named ``<module>.<function>.<stat>``.  ``calls``,
``self_ms`` and the plain counts are per request; the ``_frac`` and
``_per_call`` stats are ratios with the base named in STATS.  ``self_ms``
is in reference milliseconds, scaled by the host speed measured next to
each request like the end-to-end times (see ``hostspeed.py``).  A layer
function that the map below expects on a workload but that recorded no
call there reads ``None`` with a warning, never 0, so a rename cannot pass
as a speed-up.  A function with no call on a workload where it is not
expected reads 0.
"""

from __future__ import annotations

ALL = ("degenerations", "scan", "lattice")

# Workloads on which each traced layer function must record calls.
EXPECTED = {
    "specfile.parse_spec": ALL,
    "plexpr.parse_pl_expression": ("degenerations", "lattice"),
    "geometry.build_polytope": ALL,
    "geometry.intersect": ALL,
    "plfunc.make_pl": ALL,
    "integration.integrate_polynomial": ALL,
    "integration.boundary_integral": ALL,
    "integration.pl_lattice_sum": ("lattice",),
    "invariants.extremal_field": ("degenerations", "scan"),
    "invariants.check_condition": ("degenerations", "scan"),
    "invariants.linear_functional_L": ("degenerations", "scan"),
    "invariants.linear_functional_L_cone": ("degenerations",),
    "invariants.relative_futaki": ("degenerations",),
    "destabilizer.scan": ("scan",),
    "kernels.simple_pl_values": ("scan",),
    "kernels.lattice_weighted_sum": ("lattice",),
    "report.build_report": ("degenerations", "scan"),
}

# stat -> (numerator counter, denominator counter or "requests" or "calls")
STATS = {
    "nonempty_frac": ("nonempty", "calls"),
    "cells_per_call": ("cells", "calls"),
    "candidates": ("candidates", "requests"),
    "useful_frac": ("useful", "candidates"),
    "box_cells": ("box_cells", "requests"),
    "hit_frac": ("hits", "box_cells"),
}

# Which end-to-end metric each layer metric should move, on which workload,
# and where it should stay flat.
LAYER_MAP = [
    {"metrics": "geometry.intersect.{calls,self_ms,nonempty_frac}",
     "moves": "latency_p50_ms, throughput_rps", "on": "degenerations",
     "flat_on": "scan, lattice"},
    {"metrics": "geometry.build_polytope.{calls,self_ms}",
     "moves": "all latencies a little", "on": "every workload",
     "flat_on": "every workload under a new clipper"},
    {"metrics": "plfunc.make_pl.{calls,self_ms,cells_per_call}",
     "moves": "latency_p50_ms", "on": "degenerations, lattice", "flat_on": ""},
    {"metrics": "integration.integrate_polynomial.{calls,self_ms}, "
                "integration.boundary_integral.self_ms",
     "moves": "latency_tail_ms (3-D cone form)", "on": "degenerations", "flat_on": ""},
    {"metrics": "invariants.{linear_functional_L,linear_functional_L_cone,"
                "relative_futaki,extremal_field,check_condition}.self_ms",
     "moves": "latency_p50_ms", "on": "degenerations",
     "flat_on": "", "note": "check_condition is where an LP origin would cost"},
    {"metrics": "destabilizer.scan.{self_ms,candidates}",
     "moves": "latency_p50_ms, throughput_rps", "on": "scan",
     "flat_on": "absent elsewhere"},
    {"metrics": "kernels.simple_pl_values.{calls,self_ms,candidates,useful_frac}",
     "moves": "latency_p50_ms", "on": "scan", "flat_on": "absent elsewhere"},
    {"metrics": "integration.pl_lattice_sum.{calls,self_ms}, "
                "kernels.lattice_weighted_sum.{calls,self_ms,box_cells,hit_frac}",
     "moves": "latency_p50_ms, latency_tail_ms", "on": "lattice",
     "flat_on": "degenerations"},
    {"metrics": "report.build_report.self_ms, specfile.parse_spec.self_ms, "
                "plexpr.parse_pl_expression.self_ms",
     "moves": "fixed cost per request", "on": "all", "flat_on": ""},
    {"metrics": "trace.overhead_frac", "moves": "none",
     "on": "traced busy time over untraced, minus one, per workload", "flat_on": ""},
]


def per_layer(names, workload, requests, calls, self_ns, counts, broken):
    """Values of the named layer metrics, plus warnings for missing layers.

    ``calls`` and ``self_ns`` map a layer function to its totals over the
    traced pass of ``requests`` requests; ``counts`` maps it to the totals
    of its counters; ``broken`` names functions whose counters failed.
    """
    values = {}
    warnings = []
    for metric in names:
        function, _, stat = metric.rpartition(".")
        if function == "trace":
            continue
        n_calls = calls.get(function, 0)
        if n_calls == 0 and workload in EXPECTED.get(function, ()):
            values[metric] = None
            warnings.append(f"{function} recorded no calls on {workload}: {metric} is missing")
            continue
        if stat == "calls":
            values[metric] = n_calls / requests
        elif stat == "self_ms":
            values[metric] = self_ns.get(function, 0) / requests / 1e6
        elif function in broken:
            values[metric] = None
            warnings.append(f"{function} no longer fits its counter: {metric} is missing")
        else:
            top, base = STATS[stat]
            counter = counts.get(function, {})
            denominator = {"calls": n_calls, "requests": requests}.get(base, counter.get(base, 0))
            values[metric] = counter.get(top, 0) / denominator if denominator else 0.0
    return values, warnings
