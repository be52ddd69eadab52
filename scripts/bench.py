#!/usr/bin/env python3
"""Time cells of petersen_alpha and record them in a BENCH_*.json.

    python3 scripts/bench.py SUITE --label NAME [--src DIR] [--label NAME --src DIR ...]

Each --label names the source tree of the --src in the same place (one
--label alone defaults to this checkout's src).  Every sample is one call in
a fresh interpreter on one tree, after a warm-up with the same call on a cell
no sample uses (k = 3), so no cache or memo carries over between samples.  A
sample can also time named functions inside the call; a row keeps the median
of each timed quantity over REPEATS samples, and its minimum under the same
key with "_min" appended.  The trees take turns sample by sample, in the order
given on even repeats and reversed on odd ones, so a slow phase of the
machine falls on all of them alike.  Each suite writes each tree's rows under
its NAME in the "runs" of its file, with the machine, and leaves every other
key as it was:

  witness   BENCH_witness.json.  alpha_window_dp(n, k) without (value_s) and
            with a witness (with_witness_s), and the part of the latter spent
            in windowdp._dp_witness (witness_s).
  branch    BENCH_branch.json.  alpha(n, k) as the table asks it (call
            "alpha") or alpha_branch_reduce on the adjacency of P(n, k)
            without a hint (call "unhinted": an AdjacencyGraph, so searched
            whole, where alpha() searches P(n, k) without u_0 and v_k), in
            seconds (s); and the median share of the call spent in
            solver._reduce and solver._clique_cover_bound, from REPEATS more
            samples that time them (the timers slow the call, so their
            totals are not kept).
  dispatch  BENCH_dispatch.json.  alpha(n, k, "dp") and alpha(n, k, "bb")
            (dp_s, br_s) on the grid k = 6..12, n = 31..121 without the
            cells that have a closed form, since "auto" never solves them.
            It then prints the constants of solver.alpha's cost model fitted
            to the rows (_DP_COST, _BR_COST, _BR_RATE):
                window DP      _DP_COST * 4**k * n            geometric mean of t / (4**k * n)
                branch-reduce  _BR_COST * exp(_BR_RATE * n)   least squares on log t

A before/after pair times the parent commit and this checkout in one
invocation (the witness suite needs trees with the windowdp module):

    python3 scripts/bench.py branch --label before --src ../parent/src --label after --src src
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from petersen_alpha import exact_closed_form  # noqa: E402

REPEATS = 5
# the north star's single large cells (forced onto the DP) and the
# witness-sweep workload's k = 4..8 at n = 2000
WITNESS_CELLS = [(77, 12), (151, 11), (2000, 4), (2000, 5), (2000, 6), (2000, 7), (2000, 8)]
# (call, n, k): alpha() on the table's slowest committed cell, on cells of
# the beyond-table workload's rows (84,41 and 88,29 have even n and odd k,
# so they are bipartite closed forms and time the dispatch alone; 85,41 and
# 89,29 are their branch-reduce neighbours), and the unhinted search
BRANCH_CELLS = [("alpha", 77, 37), ("alpha", 79, 37), ("alpha", 84, 41), ("alpha", 88, 29),
                ("alpha", 85, 41), ("alpha", 89, 29), ("unhinted", 77, 37)]
DISPATCH_CELLS = [(n, k) for n in (31, 45, 61, 77, 91, 105, 121) for k in range(6, 13)
                  if exact_closed_form(n, k) is None]

# argv: call n k [module.function ...]; prints the seconds of the call, then
# of each named function inside it
SAMPLE = """
import importlib, sys, time
from petersen_alpha import adjacency, petersen_graph, solver
call, n, k, names = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
spent = dict.fromkeys(names, 0.0)
def timer(name, f):
    def timed(*args):
        t0 = time.perf_counter()
        try:
            return f(*args)
        finally:
            spent[name] += time.perf_counter() - t0
    return timed
for name in names:
    module, function = name.split(".")
    module = importlib.import_module("petersen_alpha." + module)
    setattr(module, function, timer(name, getattr(module, function)))
def prepared(n, k):
    if call == "unhinted":
        g = adjacency(petersen_graph(n, k))
        return lambda: solver.alpha_branch_reduce(g)
    if call in ("alpha", "dp", "bb"):
        return lambda: solver.alpha(n, k, "auto" if call == "alpha" else call)
    return lambda: solver.alpha_window_dp(n, k, want_witness=call == "witness")
prepared(11, 3)()  # warm-up on a cell no sample uses
spent = dict.fromkeys(names, 0.0)
run = prepared(n, k)
t0 = time.perf_counter()
run()
print(time.perf_counter() - t0, *spent.values())
"""


def samples(srcs: list[Path], call: str, n: int, k: int, *names: str) -> list[list[list[float]]]:
    """REPEATS runs of SAMPLE on each tree of `srcs`, each in a fresh
    interpreter, the trees taking turns (module docstring); per tree, its
    runs."""
    out = [[] for _ in srcs]
    for repeat in range(REPEATS):
        turns = range(len(srcs)) if repeat % 2 == 0 else range(len(srcs) - 1, -1, -1)
        for i in turns:
            out[i].append([float(x) for x in subprocess.run(
                [sys.executable, "-c", SAMPLE, call, str(n), str(k), *names],
                env=dict(os.environ, PYTHONPATH=str(srcs[i])),
                check=True, capture_output=True, text=True).stdout.split()])
    return out


def median(values, digits: int = 5) -> float:
    return round(statistics.median(values), digits)


def timed(key: str, seconds: list[float], digits: int = 5) -> dict:
    """The median of a timed quantity under key, and its minimum under key_min."""
    return {key: median(seconds, digits), f"{key}_min": round(min(seconds), digits)}


def witness_rows(srcs: list[Path], n: int, k: int) -> list[dict]:
    values = samples(srcs, "value", n, k)
    withs = samples(srcs, "witness", n, k, "windowdp._dp_witness")
    return [{"n": n, "k": k, **timed("value_s", [t for t, in value]),
             **timed("with_witness_s", [t for t, _ in both]), **timed("witness_s", [w for _, w in both])}
            for value, both in zip(values, withs)]


def branch_rows(srcs: list[Path], call: str, n: int, k: int) -> list[dict]:
    plains = samples(srcs, call, n, k)
    wrappeds = samples(srcs, call, n, k, "solver._reduce", "solver._clique_cover_bound")
    return [{"call": call, "n": n, "k": k, **timed("s", [t for t, in plain]),
             "reduce_share": median((r / t for t, r, _ in wrapped), 3),
             "clique_cover_share": median((c / t for t, _, c in wrapped), 3)}
            for plain, wrapped in zip(plains, wrappeds)]


def dispatch_rows(srcs: list[Path], n: int, k: int) -> list[dict]:
    dps, bbs = samples(srcs, "dp", n, k), samples(srcs, "bb", n, k)
    return [{"n": n, "k": k, **timed("dp_s", [t for t, in dp], 6), **timed("br_s", [t for t, in bb], 6)}
            for dp, bb in zip(dps, bbs)]


SUITES = {  # suite: (file, cells, each tree's row of one cell, what the rows hold)
    "witness": ("BENCH_witness.json", WITNESS_CELLS, witness_rows,
                "median (and, under *_min, minimum) seconds over fresh interpreters of "
                "alpha_window_dp without and with a witness, and of the witness phase "
                "(_dp_witness) inside the latter"),
    "branch": ("BENCH_branch.json", BRANCH_CELLS, branch_rows,
               "median (and, under *_min, minimum) seconds over fresh interpreters of "
               "alpha(n, k) (call 'alpha') or of alpha_branch_reduce on P(n, k) without a "
               "hint (call 'unhinted'), and the median shares of the call spent in "
               "solver._reduce and solver._clique_cover_bound, timed in separate wrapped "
               "interpreters"),
    "dispatch": ("BENCH_dispatch.json", DISPATCH_CELLS, dispatch_rows,
                 "runs: median (and, under *_min, minimum) seconds over fresh interpreters "
                 "of the forced window DP and branch-reduce per grid cell.  grid: the same, "
                 "as medians of 3 timings in one warm interpreter, and fit: the dispatch "
                 "constants solver.py uses, fitted from that grid"),
}


def fit(rows: list[dict]) -> dict:
    """The cost model's constants fitted to dispatch rows (module docstring)."""
    dp_logs = [math.log(r["dp_s"] / (4 ** r["k"] * r["n"])) for r in rows]
    ns = [r["n"] for r in rows]
    br_logs = [math.log(r["br_s"]) for r in rows]
    n_mean, log_mean = statistics.fmean(ns), statistics.fmean(br_logs)
    rate = (sum((n - n_mean) * (y - log_mean) for n, y in zip(ns, br_logs))
            / sum((n - n_mean) ** 2 for n in ns))
    return {"dp_cost": math.exp(statistics.fmean(dp_logs)),
            "br_cost": math.exp(log_mean - rate * n_mean), "br_rate": rate}


def machine() -> dict:
    """CPU, core count, Python, numpy and platform of this interpreter."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def parse(argv: list[str] | None = None) -> tuple[str, list[tuple[str, Path]]]:
    """The suite and its (label, source tree) pairs, in the order given."""
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("suite", choices=SUITES, help="what to time, and the file it writes")
    parser.add_argument("--label", action="append", required=True,
                        help="key of a tree's run in the file's runs (repeatable)")
    parser.add_argument("--src", action="append", type=Path,
                        help="source tree to time, one per --label (default: this checkout's src)")
    args = parser.parse_args(argv)
    srcs = args.src or [ROOT / "src"]
    if len(srcs) != len(args.label):
        parser.error(f"{len(args.label)} --label but {len(srcs)} --src; give one --src per --label")
    if len(set(args.label)) != len(args.label):
        parser.error("each --label must differ from the others")
    return args.suite, list(zip(args.label, srcs))


def main() -> int:
    suite, pairs = parse()
    name, cells, rows_of, what = SUITES[suite]
    runs = {label: [] for label, _ in pairs}
    for cell in cells:
        for (label, _), row in zip(pairs, rows_of([src for _, src in pairs], *cell)):
            runs[label].append(row)
            print(label, row, flush=True)
    path = ROOT / name
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({"what": what, "machine": machine(), "repeats": REPEATS})
    data.setdefault("runs", {}).update(runs)
    path.write_text(json.dumps(data, indent=1) + "\n")
    if suite == "dispatch":
        for label, rows in runs.items():
            c = fit(rows)
            print(f"{label}:\n_DP_COST = {c['dp_cost']:.2g}\n_BR_COST = {c['br_cost']:.2g}\n_BR_RATE = {c['br_rate']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
