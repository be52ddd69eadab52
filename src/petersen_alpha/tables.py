"""Table generation, the vertex-cover conjecture check, and the result cache.

The table runner computes one cell per (n, k) with n in [5, n_max] and
1 <= k <= (n-1)/2, reusing a line-oriented JSONL cache when provided and
emitting rows sorted by (n, k) so output never depends on computation order.
Cells that exhaust their time budget are reported with method "timeout" and
an empty alpha; they are never written to the cache.

The conjecture checker takes the exact alpha of every cell from its caller
(such as the table runner) and evaluates both equivalent forms of the
Behsaz-Hatami-Mahmoodian bound: alpha >= floor(4n/5) and, via
alpha + beta = 2n, beta <= n + ceil(n/5).  Each cell also gets a tag naming
which proven case covers it (small-k, bipartite, odd-odd, even-even,
odd-even) or "table-only" when only the computed table vouches for it.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping

from .bounds import best_bounds
from .errors import BudgetExceededError, ConsistencyError, DomainError
from .graph import is_bipartite
from .solver import alpha

log = logging.getLogger(__name__)

CSV_HEADER = "n,k,alpha,method"


@dataclass(frozen=True)
class TableCell:
    n: int
    k: int
    alpha: int | None  # None exactly when method == "timeout"
    method: str
    elapsed_ms: int

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def table_cells(n_max: int) -> list[tuple[int, int]]:
    """All (n, k) pairs of the table up to n_max, sorted."""
    if n_max < 5:
        raise DomainError(f"n_max must be >= 5, got {n_max}")
    return [(n, k) for n in range(5, n_max + 1) for k in range(1, (n - 1) // 2 + 1)]


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cache_load(path: str | Path) -> dict[tuple[int, int], TableCell]:
    """Load the JSONL cache.  A line is skipped with a warning, so its cell is
    computed again, unless it is UTF-8 JSON of integers n, k, alpha and
    elapsed_ms (a timeout record is not) and a method naming a solver, with
    k >= 1, n > 2k and ceil(2n/3) <= alpha <= n (the spokes bound alpha by n;
    Brooks' theorem 3-colours P(n,k)).  Conflicting alphas are a hard error."""
    out: dict[tuple[int, int], TableCell] = {}
    p = Path(path)
    if not p.exists():
        return out
    with p.open("rb") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode())
                # checked, not converted: int() would read 4.7 as 4 and true as 1
                if not all(type(rec[key]) is int for key in ("n", "k", "alpha", "elapsed_ms")):
                    raise ValueError("n, k, alpha and elapsed_ms must be integers")
                if rec["method"] not in ("closed-form", "window-dp", "branch-reduce"):
                    raise ValueError("method must name a solver")
                cell = TableCell(rec["n"], rec["k"], rec["alpha"], rec["method"], rec["elapsed_ms"])
                if not (1 <= cell.k and 2 * cell.k < cell.n and -(-2 * cell.n // 3) <= cell.alpha <= cell.n):
                    raise ValueError("no P(n,k) has this alpha")
            # ValueError covers bad UTF-8 and bad JSON, RecursionError JSON nested too deeply
            except (KeyError, TypeError, ValueError, RecursionError):
                log.warning("%s:%d: skipping malformed cache line", p, lineno)
                continue
            prev = out.get((cell.n, cell.k))
            if prev is not None and prev.alpha != cell.alpha:
                raise ConsistencyError(
                    f"cache {p} has conflicting alpha for ({cell.n},{cell.k}): "
                    f"{prev.alpha} vs {cell.alpha}"
                )
            out[(cell.n, cell.k)] = cell
    return out


def cache_append(path: str | Path, cell: TableCell) -> None:
    with Path(path).open("a") as f:
        f.write(cell.to_json_line() + "\n")


def _drop_cut_last_line(path: str | Path) -> None:
    """Drop a last line that a crash cut off mid-write, so that no later load
    meets it and the next record starts a line of its own.  The file is read
    whole only when its last byte is not a newline."""
    p = Path(path)
    if p.exists() and p.stat().st_size:
        with p.open("rb+") as f:
            f.seek(-1, os.SEEK_END)
            if f.read(1) != b"\n":
                f.seek(0)
                f.truncate(f.read().rfind(b"\n") + 1)


# ---------------------------------------------------------------------------
# table generation
# ---------------------------------------------------------------------------


def _compute_cell(args: tuple[int, int, float | None]) -> TableCell:
    n, k, budget_secs = args
    deadline = None if budget_secs is None else time.monotonic() + budget_secs
    try:
        result = alpha(n, k, "auto", deadline=deadline)
    except BudgetExceededError:
        return TableCell(n, k, None, "timeout", int(budget_secs * 1000))
    return TableCell(n, k, result.value, result.method, result.elapsed_ms)


def generate_table(
    n_max: int,
    *,
    cache_path: str | Path | None = None,
    jobs: int = 1,
    budget_secs: float | None = 120.0,
) -> list[TableCell]:
    """Compute every table cell up to n_max, reusing and extending the cache.

    Cells run in a pool of min(jobs, cells left) workers if that exceeds 1.
    Either way each cell is appended to the cache as it arrives, in table
    order, so a crash keeps every cell finished before it; the cache is
    written only by this coordinating process, and the returned list is
    always sorted by (n, k) so the rendered output is deterministic.  A last
    line that a crash cut off is dropped before the first append, once per
    run.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    if budget_secs is not None and not budget_secs > 0:
        raise DomainError(f"budget_secs must be > 0 (or None for no budget), got {budget_secs}")
    wanted = table_cells(n_max)
    cached = cache_load(cache_path) if cache_path else {}
    done = {key: cached[key] for key in wanted if key in cached}
    work = [(n, k, budget_secs) for n, k in wanted if (n, k) not in done]

    if work:
        if cache_path is not None:
            _drop_cut_last_line(cache_path)
        workers = min(jobs, len(work))
        if workers > 1:  # multiprocessing loads only when a pool runs
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
            fresh = pool.map(_compute_cell, work) if pool else map(_compute_cell, work)
            for i, cell in enumerate(fresh, start=1):
                done[(cell.n, cell.k)] = cell
                if cache_path is not None and cell.method != "timeout":
                    cache_append(cache_path, cell)
                if i % 50 == 0:
                    log.info("computed %d/%d cells", i, len(work))

    return [done[key] for key in wanted]


def write_table_csv(cells: Iterable[TableCell], sink: IO[str]) -> None:
    """Render cells as CSV: header n,k,alpha,method, LF endings."""
    sink.write(CSV_HEADER + "\n")
    for cell in cells:
        alpha_str = "" if cell.alpha is None else str(cell.alpha)
        sink.write(f"{cell.n},{cell.k},{alpha_str},{cell.method}\n")


# ---------------------------------------------------------------------------
# conjecture
# ---------------------------------------------------------------------------


def conjecture_case(n: int, k: int) -> str:
    """Which proven case of the vertex-cover conjecture covers (n, k)."""
    if k <= 5:
        return "small-k"
    if is_bipartite(n, k):
        return "bipartite"
    if n % 2 == 1 and k % 2 == 1 and 2 * n >= 5 * (k + 1):
        return "odd-odd"
    if n % 2 == 0 and k % 2 == 0:
        return "even-even"
    if n % 2 == 1 and k % 2 == 0 and n > 3 * k:
        return "odd-even"
    return "table-only"


@dataclass(frozen=True)
class ConjectureCell:
    n: int
    k: int
    alpha: int
    threshold: int          # floor(4n/5)
    holds: bool             # alpha >= threshold
    beta: int               # 2n - alpha
    beta_bound: int         # n + ceil(n/5)
    beta_holds: bool        # beta <= beta_bound
    case: str

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ConjectureReport:
    n_max: int
    cells: list[ConjectureCell] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(c.holds and c.beta_holds for c in self.cells)

    def case_counts(self) -> dict[str, int]:
        return dict(Counter(c.case for c in self.cells))

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "all_hold": self.all_hold,
            "case_counts": self.case_counts(),
            "cells": [c.to_dict() for c in self.cells],
        }


def check_conjecture(n_max: int, alphas: Mapping[tuple[int, int], int]) -> ConjectureReport:
    """Evaluate both conjecture forms on the exact alpha of every cell <= n_max.

    `alphas` maps (n, k) to the exact alpha, as the table runner computes
    it; a cell missing from it is a ConsistencyError, and so is a value
    below the threshold that is also below the cell's proven lower bound
    (such as a corrupt cache line), rather than a violation.  Cells that
    meet the threshold are not looked up in `bounds`.
    """
    report = ConjectureReport(n_max)
    for n, k in table_cells(n_max):
        a = alphas.get((n, k))
        if a is None:
            raise ConsistencyError(f"no exact alpha available for ({n},{k})")
        threshold = 4 * n // 5
        if a < threshold and a < (low := best_bounds(n, k).lower).value:
            raise ConsistencyError(f"alpha {a} for ({n},{k}) is below its bound {low.value} [{low.source}]")
        beta = 2 * n - a
        beta_bound = n + (-(n // -5))
        report.cells.append(
            ConjectureCell(
                n, k, a, threshold, a >= threshold,
                beta, beta_bound, beta <= beta_bound,
                conjecture_case(n, k),
            )
        )
    return report
