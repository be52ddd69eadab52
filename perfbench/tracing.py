"""Spans around the public functions of petersen_alpha's layers.

The spans are installed from outside the package: every module attribute of
petersen_alpha.* that is bound to a layer function is rebound to a wrapper,
so calls between modules (tables -> solver -> bounds -> graph) pass through
it.  `install` returns a function that restores the original bindings.

A span is [name, start, end, parent index, cell id, note].  Spans stay in
memory until the round ends.  A layer's self time is its span's duration minus
the durations of its direct children, which cover disjoint parts of it
because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

LAYER_FUNCTIONS = {
    "graph": ("petersen_graph", "adjacency"),
    "bounds": ("exact_closed_form", "lower_bounds", "best_bounds"),
    "solver": ("alpha", "alpha_window_dp", "alpha_branch_reduce"),
    "tables": ("generate_table", "cache_load", "cache_append", "write_table_csv", "check_conjecture"),
}

# A solver.alpha span that starts outside any cell (inside generate_table)
# opens a new cell.
CELL_SPAN = "solver.alpha"

ROUTES = {"closed-form": "closed_form", "window-dp": "window_dp", "branch-reduce": "branch_reduce"}

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER_METRICS = [
    (f"{layer}.{fn}.{what}", unit, "lower")
    for layer, fns in LAYER_FUNCTIONS.items()
    for fn in fns
    for what, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("bounds.exact_closed_form.hits", "count", "higher"),
    ("bounds.exact_closed_form.hit_ratio", "ratio", "higher"),
    ("solver.alpha.route.closed_form", "count", "higher"),
    ("solver.alpha.route.window_dp", "count", "lower"),
    ("solver.alpha.route.branch_reduce", "count", "lower"),
    ("solver.alpha_window_dp.cell_updates", "count", "lower"),
    ("solver.alpha_window_dp.updates_per_s", "1/s", "higher"),
    ("solver.alpha_window_dp.state_bytes", "B", "lower"),
    ("solver.alpha_window_dp.witness.calls", "count", "lower"),
    ("solver.alpha_window_dp.witness.self_s", "s", "lower"),
    ("solver.alpha_branch_reduce.timeouts", "count", "lower"),
    ("tables.cache_load.lines", "count", "lower"),
    ("tables.cache_append.bytes", "B", "lower"),
    ("trace.cells", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _dp_work(n: int, k: int) -> tuple[int, int]:
    """Computed cell updates and value-table bytes of one window-DP call.

    Updates are seeds x n x 2^(k+1), with 3 * 2^(k-1) boundary seeds.  Bytes
    follow the chunk rule at the commit that defined this benchmark: up to
    2^24 table entries per chunk, int16 entries for n <= 8000 (else int32),
    two value tables of rows x 2^(k+1) plus three temporaries of
    rows x 2^(k-1).  k <= 5 sweeps every seed at once in int32 through a
    64-column transfer matrix: two value tables plus the rows x 2^(k+1) x
    2^(k+1) block product.
    """
    seeds = 3 << (k - 1)
    states = 1 << (k + 1)
    if k <= 5:
        return seeds * n * states, 4 * seeds * states * (states + 2)
    rows, itemsize = min(seeds, max(1, (1 << 24) >> (k + 1))), (2 if n <= 8000 else 4)
    return seeds * n * states, itemsize * rows * (2 * states + 3 * (states >> 2))


def _note(name: str) -> Callable | None:
    """What a span records about its call beyond the timing, by span name."""
    if name == "solver.alpha":
        return lambda a, kw, res, exc: ROUTES.get(getattr(res, "method", None), "error")
    if name == "bounds.exact_closed_form":
        return lambda a, kw, res, exc: res is not None
    if name == "solver.alpha_window_dp":
        return lambda a, kw, res, exc: (_arg(a, kw, 0, "n"), _arg(a, kw, 1, "k"), bool(kw.get("want_witness")))
    if name == "solver.alpha_branch_reduce":
        return lambda a, kw, res, exc: type(exc).__name__ == "BudgetExceededError"
    if name == "tables.cache_append":
        return lambda a, kw, res, exc: len(_arg(a, kw, 1, "cell").to_json_line()) + 1
    if name == "tables.cache_load":
        return lambda a, kw, res, exc: len(res) if res is not None else 0
    return None


def install(wrap: Callable[[str, Callable], Callable | None]) -> Callable[[], None]:
    """Rebind each layer function, in every loaded petersen_alpha module, to
    wrap(span name, function); a None from wrap leaves it alone.  Returns the
    function that undoes every rebinding."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "petersen_alpha" or name.startswith("petersen_alpha."))]
    undo = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = importlib.import_module(f"petersen_alpha.{layer}")
        for fname in names:
            fn = getattr(home, fname)
            wrapped = wrap(f"{layer}.{fname}", fn)
            if wrapped is None:
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))

    def restore() -> None:
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)

    return restore


def cell_timer(latencies: list[tuple[tuple[int, int], float]]) -> Callable[[], None]:
    """Append ((n, k), seconds) of each solver.alpha call to `latencies`,
    with no spans; returns the restore function."""

    def wrap(name: str, fn: Callable) -> Callable | None:
        if name != CELL_SPAN:
            return None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                latencies.append(((_arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "k")), perf_counter() - start))

        return timed

    return install(wrap)


class Tracer:
    """Records one span per call of a layer function while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cell: int | None = None  # set by the benchmark around its per-cell calls
        self.cells = 0
        self._stack: list[int] = []

    def new_cell(self) -> int:
        self.cells += 1
        return self.cells - 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = _note(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            cell = spans[parent][4] if parent is not None else self.cell
            if cell is None and name == CELL_SPAN:
                cell = self.new_cell()
            span = [name, 0.0, 0.0, parent, cell, None]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:  # noted on the span, then re-raised
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if note is not None:
                    span[5] = note(args, kwargs, result, error)

        return traced

    def write(self, path: Path, round_index: int) -> None:
        """Append the spans to `path`; ids, parents and cells count within
        the round."""
        with path.open("a") as f:
            for i, (name, start, end, parent, cell, note) in enumerate(self.spans):
                f.write(json.dumps({"round": round_index, "id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "cell": cell, "note": note}) + "\n")

    def metrics(self, traced_wall: float) -> dict[str, float]:
        """The per-layer metrics of `traced_wall` seconds of traced work
        that sum over rounds; `merge` adds the rest."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        spanned = 0.0
        state_bytes = 0
        for i, (name, start, end, parent, _, note) in enumerate(spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            if parent is None:
                spanned += end - start
            if name == "solver.alpha":
                counts[f"solver.alpha.route.{note}"] += 1
            elif name == "bounds.exact_closed_form":
                counts["bounds.exact_closed_form.hits"] += bool(note)
            elif name == "solver.alpha_window_dp":
                n, k, witness = note
                updates, nbytes = _dp_work(n, k)
                counts["solver.alpha_window_dp.cell_updates"] += updates
                state_bytes = max(state_bytes, nbytes)
                if witness:
                    counts["solver.alpha_window_dp.witness.calls"] += 1
                    counts["solver.alpha_window_dp.witness.self_s"] += own
            elif name == "solver.alpha_branch_reduce":
                counts["solver.alpha_branch_reduce.timeouts"] += bool(note)
            elif name == "tables.cache_append":
                counts["tables.cache_append.bytes"] += note
            elif name == "tables.cache_load":
                counts["tables.cache_load.lines"] += note

        out: dict[str, float] = {}
        for layer, fns in LAYER_FUNCTIONS.items():
            for fn in fns:
                out[f"{layer}.{fn}.calls"] = calls[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.self_s"] = self_s[f"{layer}.{fn}"]
        out.update({
            "bounds.exact_closed_form.hits": counts["bounds.exact_closed_form.hits"],
            **{f"solver.alpha.route.{r}": counts[f"solver.alpha.route.{r}"] for r in ROUTES.values()},
            "solver.alpha_window_dp.cell_updates": counts["solver.alpha_window_dp.cell_updates"],
            "solver.alpha_window_dp.state_bytes": state_bytes,
            "solver.alpha_window_dp.witness.calls": counts["solver.alpha_window_dp.witness.calls"],
            "solver.alpha_window_dp.witness.self_s": counts["solver.alpha_window_dp.witness.self_s"],
            "solver.alpha_branch_reduce.timeouts": counts["solver.alpha_branch_reduce.timeouts"],
            "tables.cache_load.lines": counts["tables.cache_load.lines"],
            "tables.cache_append.bytes": counts["tables.cache_append.bytes"],
            "trace.cells": self.cells,
            "trace.spans": len(spans),
            "trace.wall_s": traced_wall,
            "trace.unspanned_s": traced_wall - spanned,
        })
        return out


def merge(parts: list[dict[str, float]], untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric of several traced rounds, from each round's
    `Tracer.metrics`, given the wall time of as many rounds untraced.  The
    rounds' figures are summed, except state_bytes, the largest."""
    out: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER_METRICS}
    for part in parts:
        for name, value in part.items():
            out[name] = max(out[name], value) if name == "solver.alpha_window_dp.state_bytes" else out[name] + value
    cf_calls = out["bounds.exact_closed_form.calls"]
    dp_self = out["solver.alpha_window_dp.self_s"]
    out["bounds.exact_closed_form.hit_ratio"] = out["bounds.exact_closed_form.hits"] / cf_calls if cf_calls else 0.0
    out["solver.alpha_window_dp.updates_per_s"] = out["solver.alpha_window_dp.cell_updates"] / dp_self if dp_self else 0.0
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    for name, unit, _ in PER_LAYER_METRICS:
        if unit in ("count", "B"):
            out[name] = int(out[name])
    return out
