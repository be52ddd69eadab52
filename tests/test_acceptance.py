"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The full-table criteria
recompute everything live; the conjecture criterion additionally consumes the
committed result cache (data/alpha_n77.jsonl) after validating it cell by
cell against the reference fixture and against the live recomputations.
"""

import statistics
import time
from pathlib import Path

import pytest

from petersen_alpha import (
    adjacency,
    alpha,
    alpha_branch_reduce,
    alpha_oracle,
    alpha_window_dp,
    lower_bounds,
    petersen_graph,
    segment_subgraph,
    upper_bounds,
)
from petersen_alpha.bounds import tiling_size_even_even, tiling_size_odd_even
from petersen_alpha.constructions import (
    independent_set_even_even,
    independent_set_odd_even,
    type1_pattern,
    verify_witness,
)
from petersen_alpha.decomposition import checked_path_decomposition
from petersen_alpha.tables import cache_load, check_conjecture, generate_table, table_cells

CACHE_PATH = Path(__file__).resolve().parent.parent / "data" / "alpha_n77.jsonl"

SPOT_CELLS = {
    (77, 2): 61, (77, 3): 75, (77, 4): 67, (77, 5): 74,
    (77, 38): 61, (60, 29): 60, (50, 24): 48,
}


@pytest.fixture(scope="module")
def table40():
    """Criterion 1 workload: the full n <= 40 table via normal dispatch."""
    start = time.perf_counter()
    cells = generate_table(40, budget_secs=None)
    elapsed = time.perf_counter() - start
    return {(c.n, c.k): c.alpha for c in cells}, elapsed


@pytest.fixture(scope="module")
def spot_results():
    """Criterion 2 workload: large spot cells, each under a 120 s deadline."""
    out = {}
    for (n, k) in SPOT_CELLS:
        deadline = time.monotonic() + 120.0
        result = alpha(n, k, "auto", deadline=deadline)
        out[(n, k)] = result
    return out


def test_criterion_1_reference_table_n5_to_40(table40, reference_alpha):
    values, elapsed = table40
    for (n, k) in table_cells(40):
        assert values[(n, k)] == reference_alpha[(n, k)], (n, k)
    assert elapsed <= 600.0, f"table took {elapsed:.0f}s, budget is 600s"
    print(f"\nACCEPTANCE 1: PASS - all {len(values)} cells with n <= 40 match "
          f"the reference table ({elapsed:.0f}s)")


def test_criterion_2_large_spot_cells(spot_results):
    for (n, k), expected in SPOT_CELLS.items():
        result = spot_results[(n, k)]
        assert result.value == expected, ((n, k), result.value, expected)
    print(f"\nACCEPTANCE 2: PASS - {len(SPOT_CELLS)} spot cells up to n=77 exact "
          f"within the 120s budget")


def test_criterion_3_closed_form_suites():
    checked = 0
    for n in range(5, 61):  # k = 2: floor(4n/5)
        assert alpha_window_dp(n, 2).value == 4 * n // 5, n
        checked += 1
    for n in range(7, 61):  # k = 3: n or n-2 by parity
        assert alpha_window_dp(n, 3).value == (n if n % 2 == 0 else n - 2), n
        checked += 1
    for n in range(11, 61):  # k = 5: n or n-3 by parity
        assert alpha_window_dp(n, 5).value == (n if n % 2 == 0 else n - 3), n
        checked += 1
    for k in range(2, 13):  # n = 3k: ceil((5k-2)/2)
        assert alpha_window_dp(3 * k, k).value == (5 * k - 1) // 2, k
        checked += 1
    for n in (12, 20, 28, 34, 40):  # bipartite sample: alpha = n
        for k in range(1, (n - 1) // 2 + 1, 2):
            engine = alpha_window_dp(n, k) if k <= 12 else alpha_branch_reduce(
                adjacency(petersen_graph(n, k)))
            assert engine.value == n, (n, k)
            checked += 1
    print(f"\nACCEPTANCE 3: PASS - {checked} closed-form cells equal forced solver output")


def test_criterion_4_bound_sandwich(table40, spot_results):
    values, _ = table40
    exact = dict(values)
    exact.update({cell: r.value for cell, r in spot_results.items()})
    for (n, k), a in exact.items():
        for b in lower_bounds(n, k):
            assert b.value <= a, (n, k, b)
        for b in upper_bounds(n, k):
            assert b.value >= a, (n, k, b)
    density_checked = 0
    for k in (4, 6, 8):
        for n in range(2 * k + 1, 61):
            a = exact.get((n, k)) or alpha_window_dp(n, k).value
            assert a <= (2 * k - 1) * n // (2 * k), (n, k)
            density_checked += 1
    print(f"\nACCEPTANCE 4: PASS - sandwich holds on {len(exact)} cells; "
          f"density upper bound holds on {density_checked} even-k cells to n=60")


def test_criterion_5_construction_grids():
    start = time.perf_counter()
    count = 0
    for k in (4, 6, 8, 10, 12):
        for n in range(2 * k + 2, 201, 2):
            w = independent_set_even_even(n, k)
            assert verify_witness(w) and w.claimed_size == tiling_size_even_even(n, k)
            count += 1
        for n in range(2 * k + 1, 202, 2):
            w = independent_set_odd_even(n, k)
            assert verify_witness(w) and w.claimed_size == tiling_size_odd_even(n, k)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"constructions took {elapsed:.1f}s, budget is 10s"
    print(f"\nACCEPTANCE 5: PASS - {count} witnesses verified at formula size ({elapsed:.1f}s)")


def test_criterion_6_segment_pattern_uniqueness():
    start = time.perf_counter()
    for k in (4, 6):
        from petersen_alpha.solver import maximum_independent_sets

        g = petersen_graph(6 * k, k)
        sub, codes = segment_subgraph(g, 0)
        sets = maximum_independent_sets(sub)
        assert len(sets) == 1, f"k={k}: expected a unique maximum set, got {len(sets)}"
        assert len(sets[0]) == 2 * k
        assert {codes[i] for i in sets[0]} == type1_pattern(g, 0)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    print(f"\nACCEPTANCE 6: PASS - segment alpha-sets unique and equal the pattern "
          f"for k=4,6 ({elapsed:.1f}s)")


def test_criterion_7_path_decomposition_grid():
    count = 0
    for n in range(5, 101):
        for k in range(1, min(10, (n - 1) // 2) + 1):
            if n <= 2 * k + 1:
                continue
            d, report = checked_path_decomposition(n, k)
            assert len(d.bags) == n - 2 * k - 1, (n, k)
            assert all(len(b) == 4 * k + 4 for b in d.bags), (n, k)
            assert report.valid and report.width == 4 * k + 3, (n, k)
            count += 1
    print(f"\nACCEPTANCE 7: PASS - {count} decompositions satisfy all three axioms "
          f"with n-2k-1 bags of size 4k+4")


def test_criterion_8_conjecture_full_range(table40, spot_results, reference_alpha):
    assert CACHE_PATH.exists(), (
        "committed cache missing; run petersen-alpha table --n-max 77 "
        "--cache data/alpha_n77.jsonl --budget-secs 600 --out /dev/null")
    cached = cache_load(CACHE_PATH)
    cells = table_cells(77)
    assert all(key in cached for key in cells), "cache incomplete"
    assert all(c.method != "timeout" for c in cached.values())
    # the cache must agree with the independently transcribed reference table
    for key in cells:
        assert cached[key].alpha == reference_alpha[key], key
    # and with everything recomputed live in this run
    values, _ = table40
    for key, live in values.items():
        assert cached[key].alpha == live, key
    for key, res in spot_results.items():
        assert cached[key].alpha == res.value, key

    report = check_conjecture(77, alphas={key: c.alpha for key, c in cached.items()})
    assert report.all_hold
    for c in report.cells:
        assert c.holds == c.beta_holds  # alpha form iff beta form
        if c.n > 3 * c.k:
            assert c.case != "table-only", (c.n, c.k)
    print(f"\nACCEPTANCE 8: PASS - conjecture holds on {len(report.cells)} cells to n=77 "
          f"in both forms; every n>3k cell is covered by a proven case")


def test_criterion_9_engine_cross_validation():
    for n in range(5, 15):
        for k in range(1, (n - 1) // 2 + 1):
            g = adjacency(petersen_graph(n, k))
            o = alpha_oracle(g)
            d = alpha_window_dp(n, k).value
            b = alpha_branch_reduce(g).value
            assert o == d == b, (n, k, o, d, b)
    pairs = 0
    for n in range(5, 41):
        for k in range(1, min(12, (n - 1) // 2) + 1):
            d = alpha_window_dp(n, k).value
            b = alpha_branch_reduce(adjacency(petersen_graph(n, k))).value
            assert d == b, (n, k, d, b)
            pairs += 1
    print(f"\nACCEPTANCE 9: PASS - oracle/DP/branch-reduce agree on n <= 14; "
          f"DP = branch-reduce on {pairs} cells with n <= 40, k <= 12")


def test_criterion_10_fixed_k_linear_scaling():
    alpha_window_dp(200, 4)  # warm-up
    # 7 interleaved samples of each size (a few ms each): a burst of load
    # from another process on a shared machine slows both sizes alike, and
    # the medians ride it out
    samples = {1000: [], 4000: []}
    for _ in range(7):
        for n, times in samples.items():
            t0 = time.perf_counter()
            alpha_window_dp(n, 4)
            times.append(time.perf_counter() - t0)
    t1000, t4000 = (statistics.median(times) for times in samples.values())
    assert t4000 <= 4.0 * t1000, f"t(4000)={t4000:.4f}s > 4 x t(1000)={t1000:.4f}s"
    print(f"\nACCEPTANCE 10: PASS - t(4000)/t(1000) = {t4000 / t1000:.2f} <= 4")
