#!/usr/bin/env python3
"""Time single window-DP cells, the value pass and the witness apart.

Every sample is one call in a fresh interpreter, after a warm-up call at
k = 3, which no cell uses, so no cache or memo carries over from an earlier
sample.  For each cell it records the median over REPEATS interpreters of

    value_s           alpha_window_dp(n, k)
    with_witness_s    alpha_window_dp(n, k, want_witness=True)
    witness_s         the part of with_witness_s spent in solver._dp_witness
                      (the re-sweep, the backtrack and its checks)

and writes them with the machine, Python and numpy versions under the given
label in BENCH_witness.json, leaving the other labels as they are.  --src
times another source tree, such as a checkout of the parent commit:

    python3 scripts/bench.py --label after
    python3 scripts/bench.py --label before --src ../parent/src
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
REPEATS = 5
# the north star's single large cells (forced onto the DP) and the
# witness-sweep workload's k = 4..8 at n = 2000
CELLS = [(77, 12), (151, 11), (2000, 4), (2000, 5), (2000, 6), (2000, 7), (2000, 8)]

SAMPLE = """
import sys, time
from petersen_alpha import solver
n, k, witness = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
inner = [0.0]
dp_witness = solver._dp_witness
def timed(*args):
    t0 = time.perf_counter()
    try:
        return dp_witness(*args)
    finally:
        inner[0] += time.perf_counter() - t0
solver._dp_witness = timed
solver.alpha_window_dp(11, 3, want_witness=witness)  # warm-up; no cell has k = 3
inner[0] = 0.0
t0 = time.perf_counter()
solver.alpha_window_dp(n, k, want_witness=witness)
print(time.perf_counter() - t0, inner[0])
"""


def sample(src: Path, n: int, k: int, witness: bool) -> tuple[float, float]:
    """(seconds of the call, seconds of it in _dp_witness) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", SAMPLE, str(n), str(k), str(int(witness))],
                         env=env, check=True, capture_output=True, text=True).stdout
    total, inner = map(float, out.split())
    return total, inner


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="key of this run in BENCH_witness.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    args = parser.parse_args()

    rows = []
    for n, k in CELLS:
        value = statistics.median(sample(args.src, n, k, False)[0] for _ in range(REPEATS))
        both = [sample(args.src, n, k, True) for _ in range(REPEATS)]
        total = statistics.median(t for t, _ in both)
        witness = statistics.median(w for _, w in both)
        rows.append({"n": n, "k": k, "value_s": round(value, 5),
                     "with_witness_s": round(total, 5), "witness_s": round(witness, 5)})
        print(f"({n},{k}) value {value * 1000:.1f} ms  with witness {total * 1000:.1f} ms"
              f"  of which witness {witness * 1000:.1f} ms", flush=True)

    import numpy  # the version of the interpreter the samples ran in

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record.update({
        "what": "median seconds over fresh interpreters of alpha_window_dp without and "
                "with a witness, and of the witness phase (_dp_witness) inside the latter",
        "machine": {
            "cpu": cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "repeats": REPEATS,
    })
    record.setdefault("runs", {})[args.label] = rows
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
