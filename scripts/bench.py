#!/usr/bin/env python3
"""Time single window-DP and branch-reduce cells, layer by layer.

Every sample is one call in a fresh interpreter, after a warm-up call on a
cell no sample uses, so no cache or memo carries over from an earlier
sample.  For each window-DP cell it records the median over REPEATS
interpreters of

    value_s           alpha_window_dp(n, k)
    with_witness_s    alpha_window_dp(n, k, want_witness=True)
    witness_s         the part of with_witness_s spent in windowdp._dp_witness
                      (the re-sweep, the backtrack and its checks)

and writes them with the machine, Python and numpy versions under the given
label in BENCH_witness.json.  For each branch-reduce cell, alpha(n, k) as the
table asks it or alpha_branch_reduce on the adjacency of P(n, k) without a
hint (an AdjacencyGraph, so searched whole, where P(n, k) itself is searched
without u_0), it records the median seconds over REPEATS plain interpreters,
and from REPEATS more, in which solver._reduce and solver._clique_cover_bound
are wrapped in timers, the median share of the call spent in each (the
wrapping slows the call, so its totals are not the ones recorded), in
BENCH_branch.json.  Other labels in both files are left as they are.
--only witness or --only branch times and writes one of the two files, so
that a before/after pair for one layer leaves the other file's pairs alone.
--src times another source tree, such as a checkout of the parent commit
(the witness samples need one with the windowdp module):

    python3 scripts/bench.py --label after
    python3 scripts/bench.py --label before --src ../parent/src --only branch
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_witness.json"
BRANCH_OUT = ROOT / "BENCH_branch.json"
REPEATS = 5
# the north star's single large cells (forced onto the DP) and the
# witness-sweep workload's k = 4..8 at n = 2000
CELLS = [(77, 12), (151, 11), (2000, 4), (2000, 5), (2000, 6), (2000, 7), (2000, 8)]
# (call, n, k): alpha() on the table's slowest committed cell, on cells of
# the beyond-table workload's rows (84,41 and 88,29 have even n and odd k,
# so they are bipartite closed forms and time the dispatch alone; 85,41 and
# 89,29 are their branch-reduce neighbours), and the unhinted search
BRANCH_CELLS = [("alpha", 77, 37), ("alpha", 79, 37), ("alpha", 84, 41), ("alpha", 88, 29),
                ("alpha", 85, 41), ("alpha", 89, 29), ("unhinted", 77, 37)]

SAMPLE = """
import sys, time
from petersen_alpha import solver, windowdp
n, k, witness = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
inner = [0.0]
dp_witness = windowdp._dp_witness
def timed(*args):
    t0 = time.perf_counter()
    try:
        return dp_witness(*args)
    finally:
        inner[0] += time.perf_counter() - t0
windowdp._dp_witness = timed
solver.alpha_window_dp(11, 3, want_witness=witness)  # warm-up; no cell has k = 3
inner[0] = 0.0
t0 = time.perf_counter()
solver.alpha_window_dp(n, k, want_witness=witness)
print(time.perf_counter() - t0, inner[0])
"""

BRANCH_SAMPLE = """
import sys, time
from petersen_alpha import adjacency, petersen_graph, solver
call, n, k, wrap = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
spent = {"_reduce": 0.0, "_clique_cover_bound": 0.0}
def timer(name):
    f = getattr(solver, name)
    def timed(*args):
        t0 = time.perf_counter()
        try:
            return f(*args)
        finally:
            spent[name] += time.perf_counter() - t0
    return timed
if wrap:
    for name in spent:
        setattr(solver, name, timer(name))
solver.alpha(13, 4, "bb")  # warm-up on a cell no sample uses
spent = dict.fromkeys(spent, 0.0)
g = adjacency(petersen_graph(n, k))
t0 = time.perf_counter()
if call == "alpha":
    solver.alpha(n, k)
else:
    solver.alpha_branch_reduce(g)
print(time.perf_counter() - t0, *spent.values())
"""


def run(src: Path, code: str, *args) -> list[float]:
    """The numbers `code` prints, run with `args` in a fresh interpreter on `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return [float(x) for x in out.split()]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    """The machine record of a BENCH_*.json: CPU, core count, Python, numpy
    and platform of this interpreter."""
    import numpy

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="key of this run in the files it writes")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    parser.add_argument("--only", choices=["witness", "branch"], default=None,
                        help="time and write only BENCH_witness.json or only BENCH_branch.json")
    args = parser.parse_args()

    if args.only != "branch":
        bench_witness(args.src, args.label)
    if args.only != "witness":
        bench_branch(args.src, args.label)
    return 0


def bench_witness(src: Path, label: str) -> None:
    """Time the window-DP CELLS and record them under `label` in BENCH_witness.json."""
    rows = []
    for n, k in CELLS:
        value = statistics.median(run(src, SAMPLE, n, k, 0)[0] for _ in range(REPEATS))
        both = [run(src, SAMPLE, n, k, 1) for _ in range(REPEATS)]
        total = statistics.median(t for t, _ in both)
        witness = statistics.median(w for _, w in both)
        rows.append({"n": n, "k": k, "value_s": round(value, 5),
                     "with_witness_s": round(total, 5), "witness_s": round(witness, 5)})
        print(f"({n},{k}) value {value * 1000:.1f} ms  with witness {total * 1000:.1f} ms"
              f"  of which witness {witness * 1000:.1f} ms", flush=True)
    record(OUT, label, rows, machine(),
           "median seconds over fresh interpreters of alpha_window_dp without and "
           "with a witness, and of the witness phase (_dp_witness) inside the latter")


def bench_branch(src: Path, label: str) -> None:
    """Time the BRANCH_CELLS and record them under `label` in BENCH_branch.json."""
    branch_rows = []
    for call, n, k in BRANCH_CELLS:
        seconds = statistics.median(run(src, BRANCH_SAMPLE, call, n, k, 0)[0] for _ in range(REPEATS))
        wrapped = [run(src, BRANCH_SAMPLE, call, n, k, 1) for _ in range(REPEATS)]
        reduce_share = statistics.median(r / t for t, r, _ in wrapped)
        bound_share = statistics.median(c / t for t, _, c in wrapped)
        branch_rows.append({"call": call, "n": n, "k": k, "s": round(seconds, 5),
                            "reduce_share": round(reduce_share, 3),
                            "clique_cover_share": round(bound_share, 3)})
        print(f"{call}({n},{k}) {seconds * 1000:.1f} ms  _reduce {reduce_share:.0%}"
              f"  _clique_cover_bound {bound_share:.0%}", flush=True)
    record(BRANCH_OUT, label, branch_rows, machine(),
           "median seconds over fresh interpreters of alpha(n, k) (call 'alpha') or of "
           "alpha_branch_reduce on P(n, k) without a hint (call 'unhinted'), and the "
           "median shares of the call spent in solver._reduce and "
           "solver._clique_cover_bound, timed in separate wrapped interpreters")


def record(path: Path, label: str, rows: list[dict], machine: dict, what: str) -> None:
    """Put `rows` under `label` in the JSON file at `path`, keeping its other labels."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({"what": what, "machine": machine, "repeats": REPEATS})
    data.setdefault("runs", {})[label] = rows
    path.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
