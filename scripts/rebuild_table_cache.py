#!/usr/bin/env python3
"""Recompute the alpha table up to --n-max and persist it as a JSONL cache.

The committed cache at data/alpha_n77.jsonl was produced by this script; the
acceptance suite cross-checks it against live solver runs before using it.
Rerunning against an existing cache only computes missing cells.
"""

import argparse
import logging
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from petersen_alpha import tables  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=77)
    parser.add_argument("--cache", type=str, default=str(Path(__file__).resolve().parent.parent / "data" / "alpha_n77.jsonl"))
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--budget-secs", type=float, default=600.0)
    args = parser.parse_args()

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    start = time.perf_counter()
    cells = tables.generate_table(
        args.n_max, cache_path=args.cache, jobs=args.jobs,
        budget_secs=args.budget_secs,
    )
    timeouts = [c for c in cells if c.method == "timeout"]
    print(f"{len(cells)} cells in {time.perf_counter() - start:.1f}s, {len(timeouts)} timeouts")
    for c in timeouts:
        print(f"  timeout at ({c.n},{c.k})")
    return 3 if timeouts else 0


if __name__ == "__main__":
    sys.exit(main())
