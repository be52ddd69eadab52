#!/usr/bin/env python3
"""Regenerate perfbench/expected.json, the expected values for every cell past
the committed table that the beyond-table and witness-sweep workloads can draw.

Run from the repository root (takes about ten minutes):

    python3 perfbench/make_expected.py

Every value comes from the solver at the current commit and is cross-checked
before it is written: it must lie inside the best_bounds sandwich, equal the
closed form when one applies, and a branch-reduce witness must be an
independent set of that size.  `gen_s`, the median time of a
beyond-table cell over GEN_PASSES passes over the whole pool, is used only
to stratify the beyond-table draw by cost.  The passes are a minute apart
for each cell, so a phase of contention from other processes on the machine
slows one of its times, not all of them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from petersen_alpha import alpha, best_bounds  # noqa: E402

from run import BEYOND_POOL, EXPECTED_JSON, WITNESS_POOL, independence_error  # noqa: E402


GEN_PASSES = 5


def checked(n: int, k: int, value: int) -> int:
    report = best_bounds(n, k)
    if not report.lower.value <= value <= report.upper.value:
        raise SystemExit(f"({n},{k}): {value} outside [{report.lower.value}, {report.upper.value}]")
    if report.exact is not None and report.exact != value:
        raise SystemExit(f"({n},{k}): {value} != closed form {report.exact}")
    return value


def main() -> None:
    results, times = {}, {key: [] for key in BEYOND_POOL}
    for p in range(GEN_PASSES):
        for n, k in BEYOND_POOL:
            start = time.perf_counter()
            result = alpha(n, k, deadline=time.monotonic() + 600)
            times[(n, k)].append(time.perf_counter() - start)
            results.setdefault((n, k), result)
        print(f"beyond pool: pass {p + 1} of {GEN_PASSES} done", flush=True)
    beyond = []
    for (n, k), result in results.items():
        if result.witness is not None:
            err = independence_error(n, k, result.witness, result.value)
            if err:
                raise SystemExit(f"({n},{k}): {err}")
        gen_s = statistics.median(times[(n, k)])
        beyond.append([n, k, checked(n, k, result.value), result.method, round(gen_s, 4)])
        print(f"beyond ({n},{k}) = {result.value} by {result.method} in {gen_s:.3f} s", flush=True)
    witness = []
    for n, k in WITNESS_POOL:
        witness.append([n, k, checked(n, k, alpha(n, k, "dp").value)])
    print(f"witness pool: {len(witness)} cells", flush=True)
    EXPECTED_JSON.write_text(json.dumps({"beyond": beyond, "witness": witness}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
