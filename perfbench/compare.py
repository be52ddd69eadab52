#!/usr/bin/env python3
"""A/B comparison of two checkouts, both measured by this copy of the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . [--workloads table-band ...]

It runs PAIRS = 10 pairs at the run length BENCHMARK.json sets.  Pair i
runs seed 1 + i on both sides, the parent first when i is even and the
change first when i is odd.  Each run is `perfbench/run.py` of this
checkout, started in the side's checkout.  For every workload and end-to-end
metric it reports each side's median and quartiles, the pairs the change won,
and a verdict (bounds and directions come from BENCHMARK.json):

  win          the change won at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile range
  regression   the change's median is worse than the parent's by more than
               the metric's bound
  unresolved   either side's interquartile range exceeds the bound, unless
               every run of the change reads better than every run of the parent
  within bound otherwise

A side whose run fails or reports a wrong answer makes the workload's row
"failed".  The full table is also written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_PY = BENCH_DIR / "run.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
PAIRS = 10
FIRST_SEED = 1


def run_once(side: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=side, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    if not result["correct"]:
        return {"error": f"{result['failed']} of {result['attempted']} cells failed"}
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    worse_by = sign * (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        call = "win"
    elif worse_by > bound:
        call = "regression"
    elif spread > bound and not all_better:
        call = "unresolved"
    else:
        call = "within bound"
    return {"parent": [p1, pm, p3], "change": [c1, cm, c3], "wins": wins, "pairs": len(parent),
            "worse_by": worse_by, "spread": spread, "bound": bound, "verdict": call}


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, default=BENCH_DIR.parent / ".bench_out" / "compare.json")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side).resolve(), workload, FIRST_SEED + i))
        errors = [r["error"] for side in runs.values() for r in side if "error" in r]
        if errors:
            report[workload] = {"verdict": "failed", "errors": errors}
            print(f"{workload}: failed: {errors[0]}")
            continue
        rows = {}
        print(f"{workload} ({PAIRS} pairs)")
        print(f"  {'metric':14s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} {'wins':>6s}  verdict")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            row = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                          metric["better"], metric["bound"])
            rows[name] = row
            fmt = "/".join(f"{v:.4g}" for v in row["parent"]), "/".join(f"{v:.4g}" for v in row["change"])
            print(f"  {name:14s} {fmt[0]:>30s} {fmt[1]:>30s} {row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']}")
        report[workload] = {"metrics": rows, "runs": runs}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if any(r.get("verdict") == "failed" or any(m["verdict"] == "regression" for m in r.get("metrics", {}).values())
                    for r in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
