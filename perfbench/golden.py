"""Fixed requests whose exact-value digests are stored with the benchmark.

The timed requests depend on ``--seed``, so their exact values cannot be
known in advance.  Every run therefore also executes these golden requests,
made from a seed no run uses, and compares the SHA-256 of their exact
values with ``golden.json``.  A mismatch counts the request as failed.

Regenerate the file only when the mathematics is meant to change:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"
GOLDEN_SEED = "golden"
# Enough requests per workload to include at least one of each kind.
GOLDEN_COUNT = {"degenerations": 8, "scan": 4, "lattice": 10}


def golden_requests(workload):
    import workloads

    return list(itertools.islice(workloads.requests(workload, GOLDEN_SEED),
                                 GOLDEN_COUNT[workload]))


def expected():
    with open(GOLDEN_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def main():
    import run

    run.load_library()
    import commands

    table = {}
    for workload in GOLDEN_COUNT:
        table[workload] = [
            commands.digest(commands.exact_values(req, commands.execute(req)))
            for req in golden_requests(workload)
        ]
    with open(GOLDEN_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
