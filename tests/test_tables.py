import concurrent.futures
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from petersen_alpha import ConsistencyError, DomainError, tables
from petersen_alpha.tables import (
    TableCell,
    cache_append,
    cache_load,
    check_conjecture,
    conjecture_case,
    generate_table,
    table_cells,
    write_table_csv,
)


def test_table_cells_range():
    cells = table_cells(7)
    assert cells == [(5, 1), (5, 2), (6, 1), (6, 2), (7, 1), (7, 2), (7, 3)]
    with pytest.raises(ValueError):
        table_cells(4)


def test_generate_small_table():
    cells = generate_table(5, budget_secs=None)
    assert [(c.n, c.k, c.alpha) for c in cells] == [(5, 1, 4), (5, 2, 4)]


def test_generate_table_includes_7_3():
    cells = {(c.n, c.k): c.alpha for c in generate_table(7, budget_secs=None)}
    assert cells[(7, 3)] == 5


def test_csv_schema_and_determinism():
    cells = generate_table(8, budget_secs=None)
    out1, out2 = io.StringIO(), io.StringIO()
    write_table_csv(cells, out1)
    write_table_csv(generate_table(8, budget_secs=None), out2)
    text = out1.getvalue()
    assert text == out2.getvalue()
    lines = text.split("\n")
    assert lines[0] == "n,k,alpha,method"
    assert lines[-1] == ""  # single trailing LF
    assert all(line == line.rstrip() for line in lines)
    assert lines[1] == "5,1,4,closed-form"


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cell = TableCell(13, 4, 11, "window-dp", 7)
    cache_append(path, cell)
    loaded = cache_load(path)
    assert loaded[(13, 4)] == cell


def test_cache_empty_and_missing(tmp_path):
    path = tmp_path / "cache.jsonl"
    assert cache_load(path) == {}
    path.write_text("")
    assert cache_load(path) == {}


def test_cache_skips_malformed_lines(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(
        b'not json\n'
        b'{"n": 5, "k": 2, "alpha": 4, "method": "closed-form", "elapsed_ms": 0}\n'
        b'{"n": 6, "k": 1}\n'
        b'{"n": 5, "k": 1, "alpha": 4.7, "method": "closed-form", "elapsed_ms": 0}\n'
        b'{"n": 6, "k": 2, "alpha": true, "method": "closed-form", "elapsed_ms": 0}\n'
        b'{"n": 6.5, "k": 1, "alpha": 6, "method": "closed-form", "elapsed_ms": 0}\n'
        b'\xff\n'
        b'{"n": 7, "k": 1, "alpha": 6, "method": "\xe9", "elapsed_ms": 0}\n'
        b'{"n": 7, "k": 2, "alpha": 5, "method": null, "elapsed_ms": 0}\n'
        b'{"n": 7, "k": 3, "alpha": 5, "method": 5, "elapsed_ms": 0}\n'
        b'{"n": 8, "k": 1, "alpha": 8, "method": "guess", "elapsed_ms": 0}\n'
        b'{"n": 8, "k": 2, "alpha": 6, "method": ["closed-form"], "elapsed_ms": 0}\n'
        b'{"n": 5, "k": 1, "alpha": 7, "method": "closed-form", "elapsed_ms": 0}\n'
        b'{"n": 5, "k": 2, "alpha": 3, "method": "branch-reduce", "elapsed_ms": 0}\n'
        b'{"n": 9, "k": 0, "alpha": 9, "method": "closed-form", "elapsed_ms": 0}\n'
        b'{"n": 8, "k": 4, "alpha": 8, "method": "closed-form", "elapsed_ms": 0}\n'
        b'{"n": 1' + b'0' * 400 + b', "k": 1, "alpha": 1, "method": "closed-form", "elapsed_ms": 0}\n'
    )
    with caplog.at_level("WARNING"):
        loaded = cache_load(path)
    assert set(loaded) == {(5, 2)}
    assert sum("malformed" in r.message for r in caplog.records) == 16


def test_cache_skips_solved_record_without_alpha(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"n": 5, "k": 1, "alpha": null, "method": "window-dp", "elapsed_ms": 3}\n')
    with caplog.at_level("WARNING"):
        assert cache_load(path) == {}
    assert any("malformed" in r.message for r in caplog.records)
    # the cell is computed again instead of reaching the table without alpha
    cell = generate_table(6, cache_path=path, budget_secs=None)[0]
    assert (cell.n, cell.k, cell.alpha, cell.method) == (5, 1, 4, "closed-form")
    assert cache_load(path)[(5, 1)].alpha == 4


def test_cache_skips_timeout_record(tmp_path, caplog):
    timeout = '{"n": 5, "k": 1, "alpha": null, "method": "timeout", "elapsed_ms": 0}\n'
    solved = '{"n": 5, "k": 1, "alpha": 4, "method": "closed-form", "elapsed_ms": 0}\n'
    path = tmp_path / "cache.jsonl"
    # alone: the cell is computed again rather than reported as a timeout
    path.write_text(timeout)
    with caplog.at_level("WARNING"):
        assert cache_load(path) == {}
    assert any("malformed" in r.message for r in caplog.records)
    cell = generate_table(5, cache_path=path, budget_secs=None)[0]
    assert (cell.n, cell.k, cell.alpha, cell.method) == (5, 1, 4, "closed-form")
    # followed by a solved record: no conflict with the solved value
    path.write_text(timeout + solved)
    assert cache_load(path)[(5, 1)].alpha == 4


def test_cache_conflict_is_hard_error(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_append(path, TableCell(13, 4, 11, "window-dp", 7))
    cache_append(path, TableCell(13, 4, 12, "branch-reduce", 9))
    with pytest.raises(ConsistencyError):
        cache_load(path)


def test_cache_last_write_wins_on_consistent_duplicates(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_append(path, TableCell(13, 4, 11, "window-dp", 7))
    cache_append(path, TableCell(13, 4, 11, "branch-reduce", 9))
    loaded = cache_load(path)
    assert loaded[(13, 4)].method == "branch-reduce"


def test_cache_survives_a_cut_last_line(tmp_path, caplog):
    """A crash in mid-write leaves a last line without its newline; the next
    run drops it and starts its first record on a line of its own, so no
    later load meets the cut record."""
    path = tmp_path / "cache.jsonl"
    generate_table(8, cache_path=path, budget_secs=None)
    assert len(cache_load(path)) == 10
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 1 + 20])  # cut the last record
    assert len(cache_load(path)) == 9
    for _ in range(2):
        generate_table(8, cache_path=path, budget_secs=None)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert len(cache_load(path)) == 10
        assert not caplog.records
    assert path.read_text().endswith("}\n")
    assert len(path.read_text().splitlines()) == 10


def test_warm_cache_reused(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = generate_table(7, cache_path=path, budget_secs=None)
    # warm rerun must produce identical rows and not recompute
    second = generate_table(7, cache_path=path, budget_secs=None)
    assert first == second
    # cache contains every cell exactly once
    assert len(cache_load(path)) == len(first)


def test_parallel_table_streams_cache_like_serial(tmp_path, caplog):
    def records(path):
        return [(r["n"], r["k"], r["alpha"], r["method"])
                for r in map(json.loads, path.read_text().splitlines())]

    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    generate_table(16, cache_path=serial, budget_secs=None)
    with caplog.at_level(logging.INFO, logger="petersen_alpha.tables"):
        generate_table(16, cache_path=parallel, jobs=2, budget_secs=None)
    assert len(records(serial)) == 54
    assert records(parallel) == records(serial)
    assert "computed 50/54 cells" in caplog.text


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size asked for and
    maps in this process, so no worker is ever started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_larger_than_the_work(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: _RecordingPool(sizes, max_workers))
    serial = generate_table(6, budget_secs=None)
    assert sizes == []
    assert generate_table(6, jobs=500, budget_secs=None) == serial  # 4 cells
    assert generate_table(6, jobs=2, budget_secs=None) == serial
    assert sizes == [4, 2]
    # one cell left to compute runs in this process, whatever jobs asks for
    path = tmp_path / "cache.jsonl"
    for cell in serial[:3]:
        cache_append(path, cell)
    assert generate_table(6, cache_path=path, jobs=8, budget_secs=None) == serial
    assert sizes == [4, 2]


POOL_ON_DEMAND = """
import sys
from petersen_alpha.tables import generate_table
assert len(generate_table(8)) == 10
assert "multiprocessing" not in sys.modules
assert "concurrent.futures.process" not in sys.modules
"""


def test_process_pool_loads_only_when_a_pool_runs():
    """A fresh interpreter builds a one-process table without loading
    multiprocessing or the process pool."""
    env = dict(os.environ, PYTHONPATH=str(Path(tables.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", POOL_ON_DEMAND], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("jobs,budget_secs", [(0, None), (-3, None), (1, float("nan")),
                                              (1, -1.0), (1, 0.0), (2, float("-inf"))])
def test_generate_table_rejects_bad_jobs_and_budget(monkeypatch, jobs, budget_secs):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # a pool must not even be tried
    with pytest.raises(DomainError):
        generate_table(6, jobs=jobs, budget_secs=budget_secs)


def test_timeout_cells_are_explicit(tmp_path):
    path = tmp_path / "cache.jsonl"
    cells = generate_table(13, cache_path=path, budget_secs=1e-9)
    timed_out = [c for c in cells if c.method == "timeout"]
    assert timed_out, "expected at least one budget-exceeded cell"
    assert all(c.alpha is None for c in timed_out)
    # timeouts never enter the cache
    assert all(c.method != "timeout" for c in cache_load(path).values())
    out = io.StringIO()
    write_table_csv(cells, out)
    row = next(line for line in out.getvalue().split("\n") if line.endswith(",timeout"))
    n, k, alpha_field, method = row.split(",")
    assert alpha_field == ""


def test_conjecture_case_tags():
    assert conjecture_case(30, 4) == "small-k"
    assert conjecture_case(30, 7) == "bipartite"
    assert conjecture_case(31, 7) == "odd-odd"   # 2n = 62 >= 40
    assert conjecture_case(30, 8) == "even-even"
    assert conjecture_case(31, 8) == "odd-even"  # 31 > 24
    assert conjecture_case(19, 9) == "table-only"


def test_conjecture_small_range():
    report = check_conjecture(12, {(c.n, c.k): c.alpha for c in generate_table(12, budget_secs=None)})
    assert report.all_hold
    assert len(report.cells) == len(table_cells(12))
    for c in report.cells:
        assert c.holds == (c.alpha >= 4 * c.n // 5)
        assert c.beta == 2 * c.n - c.alpha
        assert c.beta_holds == (c.beta <= c.n + -(c.n // -5))
        assert c.holds == c.beta_holds  # the two forms are the same inequality


def test_conjecture_accepts_precomputed_alphas(reference_alpha):
    report = check_conjecture(20, alphas=reference_alpha)
    assert report.all_hold
    counts = report.case_counts()
    assert counts.get("table-only", 0) + sum(
        v for key, v in counts.items() if key != "table-only"
    ) == len(report.cells)


def test_conjecture_missing_alpha_is_error():
    with pytest.raises(ConsistencyError):
        check_conjecture(10, alphas={})


def test_cell_json_line_stable():
    line = TableCell(5, 2, 4, "closed-form", 0).to_json_line()
    assert json.loads(line) == {"n": 5, "k": 2, "alpha": 4, "method": "closed-form", "elapsed_ms": 0}
    assert line == '{"alpha": 4, "elapsed_ms": 0, "k": 2, "method": "closed-form", "n": 5}'
    timeout = TableCell(77, 37, None, "timeout", 120000).to_json_line()
    assert timeout == '{"alpha": null, "elapsed_ms": 120000, "k": 37, "method": "timeout", "n": 77}'
