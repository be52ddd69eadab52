"""Command-line interface.

Subcommands: alpha, bounds, table, conjecture, decompose, construct.
Exit codes: 0 success, 1 usage, domain or file error, 2 verification or
consistency failure or a failed self-check, 3 timeout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import tables
from .constructions import independent_set_even_even, independent_set_odd_even
from .decomposition import checked_path_decomposition
from .errors import BudgetExceededError, ConsistencyError, DomainError, InternalError
from .graph import petersen_graph
from .solver import alpha as solve_alpha

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_alpha(args) -> int:
    result = solve_alpha(args.n, args.k, args.method, want_witness=args.witness)
    payload = {
        "n": args.n, "k": args.k, "alpha": result.value,
        "method": result.method, "elapsed_ms": result.elapsed_ms,
    }
    if args.witness:
        payload["witness"] = list(result.witness) if result.witness else None
    if args.json:
        _emit_json(payload)
    else:
        print(f"alpha(P({args.n},{args.k})) = {result.value}  [{result.method}, {result.elapsed_ms} ms]")
        if args.witness and result.witness:
            g = petersen_graph(args.n, args.k)
            print("witness:", " ".join(g.label(v) for v in result.witness))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    report = bounds_mod.best_bounds(args.n, args.k)
    if args.json:
        _emit_json(report.to_dict())
    else:
        print(f"P({args.n},{args.k}): lower {report.lower.value} [{report.lower.source}], "
              f"upper {report.upper.value} [{report.upper.source}]"
              + (f", exact {report.exact}" if report.exact is not None else ""))
        for b in report.all:
            print(f"  {b.kind:<5} {b.value:>4}  {b.source}")
    return EXIT_OK


def _cmd_table(args) -> int:
    cells = tables.generate_table(
        args.n_max,
        cache_path=args.cache,
        jobs=args.jobs,
        budget_secs=args.budget_secs,
    )
    if args.out:
        with Path(args.out).open("w", newline="") as f:
            tables.write_table_csv(cells, f)
    else:
        tables.write_table_csv(cells, sys.stdout)
    if any(c.method == "timeout" for c in cells):
        print("some cells exceeded their budget", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    cells = tables.generate_table(args.n_max, cache_path=args.cache, budget_secs=None)
    report = tables.check_conjecture(args.n_max, {(c.n, c.k): c.alpha for c in cells})
    if args.json:
        _emit_json(report.to_dict())
    else:
        counts = ", ".join(f"{name}: {num}" for name, num in sorted(report.case_counts().items()))
        print(f"checked {len(report.cells)} cells up to n={args.n_max}; "
              f"conjecture holds on all: {report.all_hold}")
        print(f"case coverage: {counts}")
        for c in report.cells:
            if not (c.holds and c.beta_holds):
                print(f"  VIOLATION at ({c.n},{c.k}): alpha={c.alpha} < {c.threshold}")
    return EXIT_OK if report.all_hold else EXIT_VERIFY


def _cmd_decompose(args) -> int:
    # the builder has validated the decomposition, and raises if it failed
    deco, report = checked_path_decomposition(args.n, args.k)
    payload = deco.to_dict(args.n, args.k)
    if args.validate:
        payload["validation"] = report.to_dict()
    if args.json:
        _emit_json(payload)
    else:
        note = " (trivial single bag)" if deco.trivial else ""
        print(f"P({args.n},{args.k}): {len(deco.bags)} bags, width {deco.width}{note}")
        if args.validate:
            print(f"valid: {report.valid}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    if args.n % 2 == 0:
        witness = independent_set_even_even(args.n, args.k)
    else:
        witness = independent_set_odd_even(args.n, args.k)
    # the builder has verified the witness, and raises if it failed
    _emit_json({**witness.to_dict(), "verified": True})
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="petersen-alpha",
                     description="independence numbers of generalized Petersen graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha", help="exact independence number of P(n,k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["auto", "dp", "bb", "closed"], default="auto")
    p.add_argument("--witness", action="store_true", help="also output a maximum independent set")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("bounds", help="all applicable lower/upper bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", help="alpha for every (n,k) up to n-max, as CSV")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", type=str, default=None, help="CSV path (default: stdout)")
    p.add_argument("--cache", type=str, default=None, help="JSONL result cache to reuse/extend")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget-secs", type=float, default=120.0, help="per-cell time budget")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("conjecture", help="check beta <= n + ceil(n/5) on exact values")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--cache", type=str, default=None, help="JSONL result cache to reuse/extend")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("decompose", help="width-4k+3 path decomposition of P(n,k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--validate", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("construct", help="explicit independent set witness (even k > 2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # progress lines and cache warnings go to stderr while the command runs;
    # the package logger is left as it was found, and the root logger is not
    # touched
    logger = logging.getLogger("petersen_alpha")
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except BudgetExceededError as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
