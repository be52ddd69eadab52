#!/usr/bin/env python3
"""Fit the cost model that solver.alpha uses to choose its engine.

Times the forced window DP and the forced branch-reduce on every cell of a
grid (k = 6..12 and n from 31 to 121; cells with a closed form are left out,
since "auto" never solves them), then fits

    window DP       c_dp * 4**k * n        geometric mean of t / (4**k * n)
    branch-reduce   c_br * exp(c_n * n)    least squares on log t

and records the grid, the constants and the machine in BENCH_dispatch.json,
leaving its other sections as they are.  Copy the printed constants into
solver.py (_DP_COST, _BR_COST, _BR_RATE); solver.alpha extrapolates the
model past the grid's largest n.

    python3 scripts/fit_dispatch.py
"""

import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import machine  # noqa: E402  (scripts/bench.py, this script's directory)
from petersen_alpha import alpha, exact_closed_form  # noqa: E402

GRID_NS = (31, 45, 61, 77, 91, 105, 121)
GRID_KS = range(6, 13)
REPEATS = 3  # timings per cell and engine; the median is kept
OUT = ROOT / "BENCH_dispatch.json"


def grid_cells() -> list[tuple[int, int]]:
    return [(n, k) for n in GRID_NS for k in GRID_KS if exact_closed_form(n, k) is None]


def median_seconds(n: int, k: int, strategy: str) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        alpha(n, k, strategy)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def fit(rows: list[dict]) -> dict:
    dp_logs = [math.log(r["dp_s"] / (4 ** r["k"] * r["n"])) for r in rows]
    ns = [r["n"] for r in rows]
    br_logs = [math.log(r["br_s"]) for r in rows]
    n_mean, log_mean = statistics.fmean(ns), statistics.fmean(br_logs)
    rate = (sum((n - n_mean) * (y - log_mean) for n, y in zip(ns, br_logs))
            / sum((n - n_mean) ** 2 for n in ns))
    return {
        "dp_cost": math.exp(statistics.fmean(dp_logs)),
        "br_cost": math.exp(log_mean - rate * n_mean),
        "br_rate": rate,
    }


def main() -> int:
    alpha(31, 6, "dp")  # warm-up: numpy and the solver's first calls
    alpha(31, 6, "bb")
    rows = []
    for n, k in grid_cells():
        dp_s = median_seconds(n, k, "dp")
        br_s = median_seconds(n, k, "bb")
        rows.append({"n": n, "k": k, "dp_s": round(dp_s, 6), "br_s": round(br_s, 6)})
        print(f"({n},{k}) dp {dp_s:.4f}s  branch-reduce {br_s:.4f}s", flush=True)

    constants = fit(rows)
    print(f"_DP_COST = {constants['dp_cost']:.2g}")
    print(f"_BR_COST = {constants['br_cost']:.2g}")
    print(f"_BR_RATE = {constants['br_rate']:.3g}")
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record.update({
        "what": "median seconds of the forced window DP and branch-reduce per grid cell, "
                "and the dispatch constants fitted from them",
        "machine": machine(),
        "repeats": REPEATS,
        "grid": rows,
        "fit": constants,
    })
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
