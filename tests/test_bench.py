"""scripts/bench.py: its cells, its fit and its command line.  Nothing here
times anything."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from petersen_alpha import exact_closed_form, petersen_graph

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("dp_cost,br_cost,br_rate", [(2.9e-9, 1.7e-3, 0.0508), (1e-9, 4e-4, 0.07)])
def test_fit_recovers_the_constants(dp_cost, br_cost, br_rate):
    rows = [{"n": n, "k": k, "dp_s": dp_cost * 4**k * n, "br_s": br_cost * math.exp(br_rate * n)}
            for n, k in bench.DISPATCH_CELLS]
    got = bench.fit(rows)
    for key, want in (("dp_cost", dp_cost), ("br_cost", br_cost), ("br_rate", br_rate)):
        assert got[key] == pytest.approx(want, rel=1e-9)


def test_suite_cells():
    for _, cells, _, _ in bench.SUITES.values():
        for cell in cells:
            petersen_graph(*cell[-2:])  # raises DomainError unless P(n,k) is valid
    assert all(k <= 12 for _, k in bench.WITNESS_CELLS)
    grid = json.loads((ROOT / "BENCH_dispatch.json").read_text())["grid"]
    assert bench.DISPATCH_CELLS == [(r["n"], r["k"]) for r in grid]
    assert len(bench.DISPATCH_CELLS) == 35
    assert all(exact_closed_form(n, k) is None for n, k in bench.DISPATCH_CELLS)


def test_help_names_the_suites():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert all(name in proc.stdout for name in ("witness", "branch", "dispatch"))


def test_label_src_pairs():
    suite, pairs = bench.parse(["branch", "--label", "before", "--src", "old/src", "--label", "after", "--src", "src"])
    assert (suite, pairs) == ("branch", [("before", Path("old/src")), ("after", Path("src"))])
    assert bench.parse(["witness", "--label", "now"]) == ("witness", [("now", ROOT / "src")])
    for argv in (["branch", "--label", "a", "--label", "b"],
                 ["branch", "--label", "a", "--src", "x", "--src", "y"],
                 ["branch", "--label", "a", "--src", "x", "--label", "a", "--src", "y"]):
        with pytest.raises(SystemExit) as exc:
            bench.parse(argv)
        assert exc.value.code == 2, argv


def test_rows_report_the_minimum_next_to_the_median(monkeypatch):
    def fake_samples(srcs, call, n, k, *names):
        runs = [[t * (1 + j) for j in range(1 + len(names))] for t in (0.3, 0.1, 0.5, 0.2, 0.4)]
        return [runs for _ in srcs]

    monkeypatch.setattr(bench, "samples", fake_samples)
    srcs = [Path("before"), Path("after")]
    assert bench.witness_rows(srcs, 2000, 6) == 2 * [
        {"n": 2000, "k": 6, "value_s": 0.3, "value_s_min": 0.1, "with_witness_s": 0.3,
         "with_witness_s_min": 0.1, "witness_s": 0.6, "witness_s_min": 0.2}]
    assert bench.branch_rows(srcs, "alpha", 77, 37) == 2 * [
        {"call": "alpha", "n": 77, "k": 37, "s": 0.3, "s_min": 0.1,
         "reduce_share": 2.0, "clique_cover_share": 3.0}]
    assert bench.dispatch_rows(srcs, 61, 9) == 2 * [
        {"n": 61, "k": 9, "dp_s": 0.3, "dp_s_min": 0.1, "br_s": 0.3, "br_s_min": 0.1}]
