#!/usr/bin/env python3
"""Benchmark of petersen_alpha: four workloads, every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload table-band --seed 1 --seconds 28 --trace 0

One closed-loop client: each cell is asked only after the previous one is
answered.  A run repeats its workload in rounds, and every round is a fresh
interpreter that imports petersen_alpha, answers the round's cells once,
checks them and reports its timings, so no state of one round reaches the
next.  --trace 0 reports the end-to-end metrics.  --trace 1 runs rounds
untraced and then as many traced, and reports the per-layer metrics from
spans around each layer's public functions.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries the provenance.  The record and, with
--trace 1, the spans are also written under .bench_out/.
perfbench/README.md names the workloads and every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_JSON = BENCH_DIR / "expected.json"
SRC_DIR = ROOT / "src"
COMMITTED_CACHE = ROOT / "data" / "alpha_n77.jsonl"
REFERENCE_CSV = ROOT / "tests" / "data" / "reference_alpha.csv"
OUT_DIR = ROOT / ".bench_out"

CELL_BUDGET_S = 60.0
ROUND_TIMEOUT_S = 120.0
SETUP_REPEATS = 7
TRACE_MAX_ROUNDS = 10

# A run has at least MIN_ROUNDS rounds.  A cell's latency is its median
# over the rounds, and cells_per_s comes from the median round.  Each round
# is a fresh interpreter, so a memo kept inside the program cannot make a
# later round faster than the first, and the medians keep the costs that
# come only now and then (garbage collection, a slow append).
MIN_ROUNDS = 3

# table-band: the band is row 63 for every seed.  It has all three routes,
# including the window DP at k = 11 and at k = 12 (the only k that splits
# the DP into chunks), and both its median and its tail cell fall among
# branch-reduce cells of close cost (31-38 ms).  In an even row most cells
# are closed forms, and in a band of rows 60-61 the median fell on the step
# between a 4 ms and a 10 ms cell, so it moved by 18% between runs.
BAND = (63, 63)

# beyond-table: k > 12 cells of the rows just past the committed table.  The
# seed draws one solved cell from each of BEYOND_STRATA equal-size cost
# strata (ranked by the time the cell took when expected.json was made) and
# BEYOND_CLOSED closed-form cells, so every seed asks for about the same
# work.  The 39 cells that took over BEYOND_MAX_GEN_S (up to 3.8 s) are left
# out, so that a round stays near 6 s.  Rows 90-110 would take 15-64 s a row.
BEYOND_POOL = [(n, k) for n in range(78, 90) for k in range(13, (n - 1) // 2 + 1)]
BEYOND_STRATA = 36
BEYOND_CLOSED = 11  # an odd cell count makes the median one cell
BEYOND_MAX_GEN_S = 0.5

# witness-sweep: WITNESS_PER_K cells for each k, n drawn by the seed.  The
# median falls inside k = 6 and the tail inside k = 7, whose costs (about
# 100 and 145 ms) are apart from their neighbours'; k = 3 costs as much as
# k = 4 and 5, and k = 9, 10 take 1-5 s a cell.
WITNESS_KS = (4, 5, 6, 7, 8)
WITNESS_NS = range(1900, 2101)
WITNESS_PER_K = 6
WITNESS_POOL = [(n, k) for k in WITNESS_KS for n in WITNESS_NS]

END_TO_END_METRICS = [
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def independence_error(n: int, k: int, witness, value: int) -> str | None:
    """Why `witness` is not an independent set of size `value` in P(n,k)."""
    chosen = set(witness)
    if len(chosen) != len(witness):
        return "witness repeats a vertex"
    if len(chosen) != value:
        return f"witness has {len(chosen)} vertices, alpha is {value}"
    if any(not 0 <= v < 2 * n for v in chosen):
        return "witness vertex out of range"
    for i in range(n):
        if i in chosen and (i + 1) % n in chosen:
            return f"outer edge u{i} u{(i + 1) % n}"
        if i in chosen and n + i in chosen:
            return f"spoke u{i} v{i}"
        if n + i in chosen and n + (i + k) % n in chosen:
            return f"inner edge v{i} v{(i + k) % n}"
    return None


@dataclass
class Round:
    """One pass over a workload's cells, made in one fresh interpreter."""

    wall_s: float | None                    # timed region only; None if the round failed as a whole
    latencies: list                         # [n, k, seconds] per timed cell
    attempted: int
    failures: list[str]                     # one per failed cell
    peak_rss_mb: float = 0.0                # of the interpreter that made the round
    trace: dict | None = field(default=None)  # per-layer metrics of a traced round


class Context:
    """The program under test and the answers it must give."""

    def __init__(self) -> None:
        for path in (SRC_DIR / "petersen_alpha" / "__init__.py", COMMITTED_CACHE, REFERENCE_CSV, EXPECTED_JSON):
            if not path.is_file():
                raise BenchError(f"missing {path}; run from the root of a petersen_alpha checkout")
        sys.path.insert(0, str(SRC_DIR))
        import numpy
        import petersen_alpha
        from petersen_alpha import bounds, solver, tables

        if Path(petersen_alpha.__file__).resolve().parent != (SRC_DIR / "petersen_alpha").resolve():
            raise BenchError(f"imported petersen_alpha from {petersen_alpha.__file__}, not {SRC_DIR}")
        self.numpy_version = numpy.__version__
        self.bounds, self.solver, self.tables = bounds, solver, tables
        with REFERENCE_CSV.open() as f:
            next(f)
            self.reference = {(int(n), int(k)): int(a) for n, k, a in (line.strip().split(",") for line in f)}
        expected = json.loads(EXPECTED_JSON.read_text())
        self.beyond = {(n, k): (a, method, gen_s) for n, k, a, method, gen_s in expected["beyond"]}
        self.witness = {(n, k): a for n, k, a in expected["witness"]}


def check_answer(key, result, want: int, want_witness: bool) -> str | None:
    """Why `result` (an ExactResult or the exception raised) is wrong."""
    if isinstance(result, BaseException):
        return f"{key}: raised {result!r}"
    if result.value != want:
        return f"{key}: alpha {result.value}, expected {want}"
    if want_witness and result.witness is None:
        return f"{key}: no witness"
    if result.witness is not None:
        err = independence_error(key[0], key[1], result.witness, result.value)
        if err:
            return f"{key}: {err}"
    return None


def require_expected(cells, expect: dict) -> None:
    missing = [key for key in cells if key not in expect]
    if missing:
        raise BenchError(f"{EXPECTED_JSON.name} has no value for {missing[:3]}; run perfbench/make_expected.py")


def round_order(cells: list, seed: int, index: int) -> list:
    """The cells in the order round `index` asks them, so that no cell is
    always the first a fresh interpreter answers."""
    order = list(cells)
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


def solve_cells(ctx: Context, cells, expect: dict, want_witness: bool, tracer) -> Round:
    """Ask alpha for each cell in turn; a raise is a failed cell, never a crash."""
    latencies, results = [], []
    start = time.perf_counter()
    for n, k in cells:
        if tracer is not None:
            tracer.cell = tracer.new_cell()
        t = time.perf_counter()
        try:
            result = ctx.solver.alpha(n, k, want_witness=want_witness, deadline=time.monotonic() + CELL_BUDGET_S)
        except Exception as exc:  # counted as a failed cell below
            result = exc
        latencies.append([n, k, time.perf_counter() - t])
        results.append(result)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.cell = None
    failures = [err for key, result in zip(cells, results)
                if (err := check_answer(key, result, expect[key], want_witness))]
    return Round(wall, latencies, len(cells), failures)


class TableBand:
    """Cold generate_table over a band of two committed rows, extending a
    fresh cache that holds the rows below the band."""

    name = "table-band"

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx = ctx
        self.lo, self.hi = BAND
        self.band = [(n, k) for n in range(self.lo, self.hi + 1) for k in range(1, (n - 1) // 2 + 1)]
        self.cells_per_round = len(self.band)
        self.cache = OUT_DIR / "table-band.jsonl"

    def describe(self) -> dict:
        return {"rows": [self.lo, self.hi], "cells": self.band}

    def setup(self) -> tuple[str, str]:
        return f"print(petersen_alpha.alpha({self.lo}, 1).value)", str(self.ctx.reference[(self.lo, 1)])

    def run_round(self, tracer, index: int) -> Round:
        with COMMITTED_CACHE.open() as f:
            prefix = "".join(line for line in f if json.loads(line)["n"] < self.lo)
        self.cache.write_text(prefix)
        # A cell's latency is the solver.alpha call generate_table makes for
        # it; a cell answered without one gets no sample.
        timed: list[tuple[tuple[int, int], float]] = []
        restore = tracing.cell_timer(timed) if tracer is None else (lambda: None)
        cells = None
        start = time.perf_counter()
        try:
            cells = self.ctx.tables.generate_table(self.hi, cache_path=self.cache, budget_secs=CELL_BUDGET_S)
        except Exception as exc:  # every band cell counts as failed
            error = repr(exc)
        finally:
            wall = time.perf_counter() - start
            restore()
        if cells is None:
            return Round(wall, [], len(self.band), [f"{key}: generate_table raised {error}" for key in self.band])
        got = {(c.n, c.k): c.alpha for c in cells}
        appended = {}
        for line in self.cache.read_text()[len(prefix):].splitlines():
            rec = json.loads(line)
            appended[(rec["n"], rec["k"])] = rec["alpha"]
        failures = []
        for key in self.band:
            want = self.ctx.reference[key]
            if got.get(key) != want:
                failures.append(f"{key}: table alpha {got.get(key)}, expected {want}")
            elif appended.get(key) != want:
                failures.append(f"{key}: cache line alpha {appended.get(key)}, expected {want}")
        band = set(self.band)
        latencies = [[n, k, seconds] for (n, k), seconds in timed if (n, k) in band]
        return Round(wall, latencies, len(self.band), failures)


class BeyondTable:
    """alpha on k > 12 cells past the committed table, cost-stratified."""

    name = "beyond-table"

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx, self.seed = ctx, seed
        self.expect = {key: a for key, (a, _, _) in ctx.beyond.items()}
        closed = sorted(key for key, (_, method, _) in ctx.beyond.items() if method == "closed-form")
        solved = sorted((gen_s, key) for key, (_, method, gen_s) in ctx.beyond.items()
                        if method != "closed-form" and gen_s <= BEYOND_MAX_GEN_S)
        size = len(solved)
        rng = random.Random(seed)
        self.cells = [rng.choice(solved[s * size // BEYOND_STRATA:(s + 1) * size // BEYOND_STRATA])[1]
                      for s in range(BEYOND_STRATA)]
        self.cells += rng.sample(closed, BEYOND_CLOSED)
        require_expected(self.cells, self.expect)
        self.cells_per_round = len(self.cells)

    def describe(self) -> dict:
        return {"cells": self.cells}

    def setup(self) -> tuple[str, str]:
        n, k = min(self.cells, key=lambda key: self.ctx.beyond[key][2])
        return f"print(petersen_alpha.alpha({n}, {k}).value)", str(self.expect[(n, k)])

    def run_round(self, tracer, index: int) -> Round:
        return solve_cells(self.ctx, round_order(self.cells, self.seed, index), self.expect, False, tracer)


class WitnessSweep:
    """alpha with a witness on long fixed-k cells."""

    name = "witness-sweep"

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx, self.seed = ctx, seed
        rng = random.Random(seed)
        self.cells = [(n, k) for k in WITNESS_KS for n in rng.sample(WITNESS_NS, WITNESS_PER_K)]
        require_expected(self.cells, ctx.witness)
        self.cells_per_round = len(self.cells)

    def describe(self) -> dict:
        return {"cells": self.cells}

    def setup(self) -> tuple[str, str]:
        n, k = min(self.cells, key=lambda key: key[::-1])
        return (f"print(petersen_alpha.alpha({n}, {k}, want_witness=True).value)",
                str(self.ctx.witness[(n, k)]))

    def run_round(self, tracer, index: int) -> Round:
        return solve_cells(self.ctx, round_order(self.cells, self.seed, index), self.ctx.witness, True, tracer)


class CacheReplay:
    """Table, CSV, conjecture check and bounds for all n <= 77 from a copy of
    the committed cache, with no solving."""

    name = "cache-replay"
    N_MAX = 77

    def __init__(self, seed: int, ctx: Context) -> None:
        self.ctx, self.seed = ctx, seed
        self.cells = sorted(ctx.reference)
        self.cells_per_round = len(self.cells)
        self.copy = OUT_DIR / "cache-replay.jsonl"

    def describe(self) -> dict:
        return {"n_max": self.N_MAX, "cells": len(self.cells), "best_bounds_order": "shuffled by seed and round"}

    def setup(self) -> tuple[str, str]:
        shutil.copyfile(COMMITTED_CACHE, self.copy)
        return (f"print(tables.generate_table({self.N_MAX}, cache_path={str(self.copy)!r})[0].alpha)",
                str(self.ctx.reference[(5, 1)]))

    def run_round(self, tracer, index: int) -> Round:
        tables, bounds = self.ctx.tables, self.ctx.bounds
        order = round_order(self.cells, self.seed, index)
        shutil.copyfile(COMMITTED_CACHE, self.copy)
        latencies, reports = [], []
        start = time.perf_counter()
        try:
            cells = tables.generate_table(self.N_MAX, cache_path=self.copy, budget_secs=CELL_BUDGET_S)
            sink = io.StringIO()
            tables.write_table_csv(cells, sink)
            conjecture = tables.check_conjecture(
                self.N_MAX, alphas={(c.n, c.k): c.alpha for c in cells if c.alpha is not None})
            # The table, CSV and conjecture answer all cells at once; the
            # bounds query is the one answered cell by cell.
            for n, k in order:
                if tracer is not None:
                    tracer.cell = tracer.new_cell()
                t = time.perf_counter()
                reports.append(bounds.best_bounds(n, k))
                latencies.append([n, k, time.perf_counter() - t])
        except Exception as exc:  # every cell counts as failed
            return Round(time.perf_counter() - start, [], len(order), [f"replay raised {exc!r}"] * len(order))
        finally:
            if tracer is not None:
                tracer.cell = None
        wall = time.perf_counter() - start
        return Round(wall, latencies, len(order), self.check(cells, sink.getvalue(), conjecture, order, reports))

    def check(self, cells, csv_text: str, conjecture, order, reports) -> list[str]:
        ref = self.ctx.reference
        bad: dict[tuple[int, int], str] = {}
        if sorted((c.n, c.k) for c in cells) != sorted(ref):
            return [f"table has {len(cells)} cells, reference {len(ref)}"] * len(ref)
        for c in cells:
            if c.alpha != ref[(c.n, c.k)]:
                bad[(c.n, c.k)] = f"table alpha {c.alpha}"
        lines = csv_text.split("\n")
        if lines[0] != "n,k,alpha,method" or lines[-1] != "" or len(lines) != len(cells) + 2:
            return ["CSV header, row count or line ending wrong"] * len(ref)
        for line, c in zip(lines[1:], cells):
            if line != f"{c.n},{c.k},{ref[(c.n, c.k)]},{c.method}":
                bad.setdefault((c.n, c.k), f"CSV line {line!r}")
        if len(conjecture.cells) != len(ref):
            return [f"conjecture checked {len(conjecture.cells)} cells"] * len(ref)
        for cc in conjecture.cells:
            holds = ref[(cc.n, cc.k)] >= 4 * cc.n // 5
            if cc.alpha != ref[(cc.n, cc.k)] or cc.holds != holds or cc.beta_holds != holds:
                bad.setdefault((cc.n, cc.k), "conjecture cell wrong")
        for (n, k), report in zip(order, reports):
            a = ref[(n, k)]
            if not report.lower.value <= a <= report.upper.value or report.exact not in (None, a):
                bad.setdefault((n, k), f"bounds [{report.lower.value}, {report.upper.value}] exact {report.exact}")
        if self.copy.stat().st_size != COMMITTED_CACHE.stat().st_size:
            bad.setdefault((0, 0), "replay changed the cache file")
        return [f"{key}: {why}" for key, why in bad.items()]


WORKLOADS = {w.name: w for w in (TableBand, BeyondTable, WitnessSweep, CacheReplay)}


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  VmHWM starts afresh at exec;
    ru_maxrss may carry the peak of the process that started this one."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def spans_path(workload: str, seed: int) -> Path:
    return OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"


def round_main(args) -> int:
    """Make round `args.round` of the workload in this interpreter and print
    it as one JSON line."""
    workload = WORKLOADS[args.workload](args.seed, Context())
    tracer = tracing.Tracer() if args.trace else None
    restore = tracing.install(tracer.wrap) if tracer is not None else (lambda: None)
    try:
        result = workload.run_round(tracer, args.round)
    finally:
        restore()
    if tracer is not None:
        result.trace = tracer.metrics(result.wall_s)
        tracer.write(spans_path(args.workload, args.seed), args.round)
    result.peak_rss_mb = peak_rss_mb()
    print(json.dumps(asdict(result)))
    return 0


def run_round(workload, seed: int, index: int, trace: int) -> Round:
    """Round `index` of the workload, made by a fresh interpreter.  A round
    whose interpreter fails or overruns counts all its cells as failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(seed),
           "--trace", str(trace), "--round", str(index)]
    failed = Round(None, [], workload.cells_per_round, [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failed.failures = [f"round {index} took over {ROUND_TIMEOUT_S:.0f} s"] * workload.cells_per_round
        return failed
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        why = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        failed.failures = [f"round {index} failed: {why[0]}"] * workload.cells_per_round
        return failed
    return Round(**json.loads(lines[-1]))


class SetupProbe:
    """Times fresh interpreters that import petersen_alpha and answer one
    cell of the workload, from spawn to exit.  The samples are spread over
    the run, SETUP_REPEATS of them, so that one phase of contention on the
    machine cannot slow them all."""

    def __init__(self, workload, seconds: float) -> None:
        snippet, self.want = workload.setup()
        self.code = f"import petersen_alpha\nfrom petersen_alpha import tables\n{snippet}\n"
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        self.every = seconds / SETUP_REPEATS
        self.times: list[float] = []
        self.failures: list[str] = []

    def sample(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        self.times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != self.want:
            self.failures.append(f"setup answered {proc.stdout.strip()!r} (exit {proc.returncode}), "
                                 f"expected {self.want}")

    def catch_up(self, elapsed: float) -> None:
        """Take the samples due `elapsed` seconds into the run."""
        while len(self.times) < SETUP_REPEATS and len(self.times) * self.every <= elapsed:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.sample()
        return statistics.median(self.times)


def run_rounds(workload, seed: int, seconds: float, min_rounds: int, max_rounds: int | None = None,
               trace: int = 0, first: int = 0, setup: SetupProbe | None = None) -> list[Round]:
    """Rounds `first`, `first + 1`, ... until another would overrun
    `seconds`, but at least `min_rounds` and at most `max_rounds`; before
    each round, the set-up samples that are due."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        if setup is not None:
            setup.catch_up(time.perf_counter() - start)
        rounds.append(run_round(workload, seed, first + len(rounds), trace))
        spent = time.perf_counter() - start
        if len(rounds) == max_rounds or (len(rounds) >= min_rounds and spent + spent / len(rounds) > seconds):
            return rounds


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the maximum when there are 10 samples or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics(trace: int) -> list[tuple[str, str]] | None:
    path = BENCH_DIR.parent / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, help="make only this round, in this interpreter, and print it")
    args = parser.parse_args(argv)
    if args.round is None and (args.seconds is None or args.seconds <= 0):
        parser.error("--seconds must be given and positive")

    try:
        if args.round is not None:
            return round_main(args)
        ctx = Context()
        OUT_DIR.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, ctx)
        units = dict(END_TO_END_METRICS) if not args.trace else {m: u for m, u, _ in tracing.PER_LAYER_METRICS}
        declared = declared_metrics(args.trace)
        if declared is not None and declared != list(units.items()):
            raise BenchError("BENCHMARK.json metrics differ from the ones this benchmark reports")

        failures: list[str] = []
        attempted = 0
        if not args.trace:
            setup = SetupProbe(workload, args.seconds)
            rounds = run_rounds(workload, args.seed, args.seconds, MIN_ROUNDS, setup=setup)
            setup_s = setup.median()
            failures += setup.failures
            attempted += SETUP_REPEATS
            timed = [r for r in rounds if r.wall_s is not None]
            samples: dict[tuple[int, int], list[float]] = {}
            for r in timed:
                for n, k, seconds in r.latencies:
                    samples.setdefault((n, k), []).append(seconds)
            if not samples:
                raise BenchError("no cell was timed")
            latencies = [statistics.median(s) for s in samples.values()]
            tail_s, tail_pct = tail(latencies)
            metrics = {
                "cells_per_s": workload.cells_per_round / statistics.median(r.wall_s for r in timed),
                "cell_p50_ms": 1000 * statistics.median(latencies),
                "cell_tail_ms": 1000 * tail_s,
                "peak_rss_mb": max(r.peak_rss_mb for r in timed),
                "setup_s": setup_s,
            }
            notes = {"tail_percentile": tail_pct, "latency_cells": len(latencies),
                     "round_wall_s": [r.wall_s for r in rounds]}
        else:
            spans_path(args.workload, args.seed).unlink(missing_ok=True)
            untraced = run_rounds(workload, args.seed, args.seconds / 2, 1, TRACE_MAX_ROUNDS)
            traced = run_rounds(workload, args.seed, float("inf"), len(untraced), len(untraced), 1, len(untraced))
            rounds = untraced + traced
            parts = [r.trace for r in traced if r.trace is not None]
            if not parts or any(r.wall_s is None for r in rounds):
                raise BenchError("a round failed; run with --trace 0 to see which cells")
            metrics = tracing.merge(parts, sum(r.wall_s for r in untraced))
            self_sum = sum(v for name, v in metrics.items() if name.endswith(".self_s") and name.count(".") == 2)
            notes = {"self_sum_s": self_sum,
                     "self_sum_plus_unspanned_s": self_sum + metrics["trace.unspanned_s"]}
        for r in rounds:
            failures += r.failures
            attempted += r.attempted
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": ctx.numpy_version, "platform": platform.platform(),
        "rounds": len(rounds), "cells": workload.describe(),
    }
    record = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {attempted} cells attempted, "
          f"{len(failures)} failed (failed_frac {len(failures) / attempted:.4f})")
    for err in failures[:20]:
        print(f"  FAILED {err}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    for name, value in notes.items():
        print(f"  ({name} {value if isinstance(value, list) else format(value, '.6g')})")
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "notes": notes, "failures": failures, **record}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
