import hashlib
import io
import json
import logging
import re
import shlex
from pathlib import Path

import pytest

from petersen_alpha import InternalError, bounds, cli, solver, tables
from petersen_alpha.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alpha_text(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "13", "--k", "6")
    assert code == 0
    assert "alpha(P(13,6)) = 10" in out


def test_alpha_text_with_witness(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "13", "--k", "6", "--witness")
    assert code == 0
    first, second = out.splitlines()
    assert first.startswith("alpha(P(13,6)) = 10  [")
    assert second == "witness: u0 u3 u5 u7 u9 u11 v1 v2 v4 v6"


def test_alpha_json_with_witness(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "11", "--k", "4", "--witness", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == 9
    assert len(payload["witness"]) == 9
    assert payload["method"] in ("window-dp", "branch-reduce")


def test_alpha_forced_method(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "10", "--k", "2", "--method", "closed", "--json")
    assert code == 0
    assert json.loads(out)["method"] == "closed-form"


def test_alpha_domain_error_exit_1(capsys):
    code, _, err = run(capsys, "alpha", "--n", "4", "--k", "2")
    assert code == 1 and "n > 2k" in err


def test_alpha_forced_method_precondition_exit_1(capsys):
    code, _, err = run(capsys, "alpha", "--n", "13", "--k", "6", "--method", "closed")
    assert code == 1 and "closed form" in err
    code, out, err = run(capsys, "alpha", "--n", "10", "--k", "2", "--method", "closed", "--witness")
    assert code == 1 and out == "" and err == "error: closed forms carry no witness\n"


def test_alpha_internal_error_exit_2(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise InternalError("witness size disagrees with the DP value")

    monkeypatch.setattr(cli, "solve_alpha", fail)
    code, out, err = run(capsys, "alpha", "--n", "13", "--k", "6")
    assert code == 2 and out == ""
    assert err == "internal error: witness size disagrees with the DP value\n"


def test_alpha_engine_value_outside_bounds_exit_2(capsys, monkeypatch):
    def too_big(n, k, **kwargs):
        return solver.ExactResult(bounds.best_bounds(n, k).upper.value + 1, "window-dp", None, 0.0)

    monkeypatch.setattr(solver, "alpha_window_dp", too_big)
    code, out, err = run(capsys, "alpha", "--n", "13", "--k", "6")
    assert code == 2 and out == ""
    assert err.startswith("internal error: window-dp gave alpha(P(13,6)) = 12, outside the bounds")


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "16", "--k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 14
    assert payload["lower"]["value"] == 14 and payload["upper"]["value"] == 14
    assert {b["kind"] for b in payload["all"]} >= {"lower", "upper"}


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "16", "--k", "4")
    assert code == 0
    assert out.splitlines() == [
        "P(16,4): lower 14 [k4-residue], upper 14 [k4-residue], exact 14",
        "  lower    3  even-k-ratio",
        "  lower   12  even-even-gcd",
        "  lower   14  even-even-tiling",
        "  upper   16  spoke-matching",
        "  upper   14  segment-density",
        "  exact   14  k4-residue",
    ]


def test_table_csv_stdout(capsys):
    code, out, _ = run(capsys, "table", "--n-max", "6")
    assert code == 0
    assert out.splitlines() == ["n,k,alpha,method", "5,1,4,closed-form", "5,2,4,closed-form",
                                "6,1,6,closed-form", "6,2,4,closed-form"]


def test_table_reports_progress_on_stderr(capsys):
    logger = logging.getLogger("petersen_alpha")
    handlers, level = list(logger.handlers), logger.level
    code, out, err = run(capsys, "table", "--n-max", "16")
    assert code == 0
    assert "computed 50/54 cells" in err
    expected = io.StringIO()
    tables.write_table_csv(tables.generate_table(16), expected)
    assert out == expected.getvalue()
    assert logger.handlers == handlers and logger.level == level


def test_conjecture_reports_progress_on_stderr(capsys):
    logger = logging.getLogger("petersen_alpha")
    handlers, level = list(logger.handlers), logger.level
    code, out, err = run(capsys, "conjecture", "--n-max", "16", "--json")
    assert code == 0
    assert "computed 50/54 cells" in err
    report = tables.check_conjecture(16, {(c.n, c.k): c.alpha for c in tables.generate_table(16)})
    assert out == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert logger.handlers == handlers and logger.level == level


def test_table_writes_file_and_cache(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    cache_path = tmp_path / "c.jsonl"
    code, _, _ = run(capsys, "table", "--n-max", "9", "--out", str(out_path),
                     "--cache", str(cache_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("n,k,alpha,method\n") and text.endswith("\n")
    assert cache_path.exists()
    # warm rerun: byte-identical output
    code, _, _ = run(capsys, "table", "--n-max", "9", "--out", str(out_path),
                     "--cache", str(cache_path))
    assert code == 0 and out_path.read_text() == text


def test_table_file_error_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing"
    for flag in ("--cache", "--out"):
        code, _, err = run(capsys, "table", "--n-max", "6", flag, str(missing / "c.jsonl"))
        assert code == 1 and err.startswith("error:") and str(missing) in err, flag


def test_table_conflicting_cache_exit_2(tmp_path, capsys):
    cache_path = tmp_path / "c.jsonl"
    tables.cache_append(cache_path, tables.TableCell(5, 1, 4, "closed-form", 0))
    tables.cache_append(cache_path, tables.TableCell(5, 1, 5, "window-dp", 0))
    code, out, err = run(capsys, "table", "--n-max", "6", "--cache", str(cache_path))
    assert code == 2 and out == ""
    assert err.startswith("consistency error:") and "(5,1)" in err


def test_malformed_cache_lines_are_recomputed(tmp_path, capsys):
    """A line that is not UTF-8, one nested too deeply for the JSON parser and
    records whose method names no solver are skipped: table and conjecture
    exit 0 and solve those cells again."""
    bad = (b'\xff\n' + b'[' * 200_000 + b'\n'
           b'{"n": 5, "k": 1, "alpha": 4, "method": null, "elapsed_ms": 0}\n'
           b'{"n": 5, "k": 2, "alpha": 4, "method": 5, "elapsed_ms": 0}\n')
    cache_path = tmp_path / "c.jsonl"
    for command in ("table", "conjecture"):
        plain = run(capsys, command, "--n-max", "6")
        cache_path.write_bytes(bad)
        code, out, err = run(capsys, command, "--n-max", "6", "--cache", str(cache_path))
        assert (code, out) == plain[:2] and plain[0] == 0
        assert err.count("skipping malformed cache line") == 4, command
        cells = tables.cache_load(cache_path)
        assert {cell: (c.alpha, c.method) for cell, c in cells.items()} == {
            (5, 1): (4, "closed-form"), (5, 2): (4, "closed-form"),
            (6, 1): (6, "closed-form"), (6, 2): (4, "closed-form")}, command


def test_impossible_cache_values_are_recomputed(tmp_path, capsys):
    """alpha(P(5,1)) = 7 exceeds n and alpha(P(5,2)) = 3 is below 2n/3: both
    records are skipped and solved again, so table prints the true values
    and conjecture reports no violation."""
    bad = (b'{"n": 5, "k": 1, "alpha": 7, "method": "closed-form", "elapsed_ms": 0}\n'
           b'{"n": 5, "k": 2, "alpha": 3, "method": "branch-reduce", "elapsed_ms": 0}\n')
    cache_path = tmp_path / "c.jsonl"
    for command in ("table", "conjecture"):
        plain = run(capsys, command, "--n-max", "6")
        cache_path.write_bytes(bad)
        code, out, err = run(capsys, command, "--n-max", "6", "--cache", str(cache_path))
        assert (code, out) == plain[:2] and plain[0] == 0, command
        assert "VIOLATION" not in out and "5,1,7" not in out and "5,2,3" not in out
        cells = tables.cache_load(cache_path)
        assert (cells[5, 1].alpha, cells[5, 2].alpha) == (4, 4), command


def test_table_rejects_zero_jobs_exit_1(capsys):
    code, out, err = run(capsys, "table", "--n-max", "6", "--jobs", "0")
    assert code == 1 and out == "" and err.startswith("error:") and "jobs" in err


def test_table_timeout_exit_3(tmp_path, capsys):
    code, out, err = run(capsys, "table", "--n-max", "13", "--budget-secs", "1e-9",
                         "--out", str(tmp_path / "t.csv"))
    assert code == 3
    assert "budget" in err


def test_conjecture_text(capsys):
    code, out, _ = run(capsys, "conjecture", "--n-max", "10")
    assert code == 0
    assert "holds on all: True" in out


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--n-max", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_hold"] is True
    assert payload["n_max"] == 8


def test_conjecture_from_cache_copy_solves_nothing(tmp_path, capsys, monkeypatch):
    plain = run(capsys, "conjecture", "--n-max", "20")
    cache_path = tmp_path / "c.jsonl"
    committed = (Path(__file__).resolve().parents[1] / "data" / "alpha_n77.jsonl").read_bytes()
    cache_path.write_bytes(committed)

    def refuse(args):
        raise AssertionError(f"cell {args[:2]} was solved, not read from the cache")

    monkeypatch.setattr(tables, "_compute_cell", refuse)
    # the plain run reports its progress; the cached run computes nothing to report
    assert run(capsys, "conjecture", "--n-max", "20", "--cache", str(cache_path)) == (*plain[:2], "")
    assert plain[0] == 0 and "computed 50/88 cells" in plain[2]
    assert cache_path.read_bytes() == committed


@pytest.mark.parametrize("argv,digest", [
    (("conjecture", "--n-max", "20", "--json"),
     "7dbeeccfb0f0f52e2e9743fd94662669a92402e9d2bc1326f097ba160e8aa28e"),
    (("decompose", "--n", "20", "--k", "4", "--validate", "--json"),
     "5e30cbe93ec681ccfef3056167a7b14bf0554b7719667c2aeb1fa2803d05fe29"),
])
def test_json_output_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_decompose_json_schema(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "10", "--k", "2", "--validate", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["width"] == 11
    assert len(payload["bags"]) == 5
    assert all(isinstance(v, int) for bag in payload["bags"] for v in bag)
    assert payload["validation"]["valid"] is True
    assert payload["trivial"] is False


def test_decompose_text(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "20", "--k", "4", "--validate")
    assert code == 0
    assert out == "P(20,4): 11 bags, width 19\nvalid: True\n"
    code, out, _ = run(capsys, "decompose", "--n", "5", "--k", "2")
    assert code == 0
    assert out == "P(5,2): 1 bags, width 9 (trivial single bag)\n"


def test_decompose_validate_builds_and_checks_once(capsys, monkeypatch):
    import petersen_alpha.decomposition as decomposition
    import petersen_alpha.graph as graph

    calls = {"adjacency": 0, "validate_decomposition": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    # every module binding of the two names, wherever the CLI might reach them
    for module in (graph, decomposition, cli):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, _ = run(capsys, "decompose", "--n", "200", "--k", "6", "--validate", "--json")
    assert code == 0 and json.loads(out)["validation"]["valid"] is True
    assert calls == {"adjacency": 1, "validate_decomposition": 1}


def test_decompose_failed_self_check_exit_2(capsys, monkeypatch):
    import petersen_alpha.decomposition as decomposition

    real = decomposition.validate_decomposition

    def broken(g, d):
        report = real(g, d)
        report.occurrences_connected = False
        return report

    monkeypatch.setattr(decomposition, "validate_decomposition", broken)
    code, out, err = run(capsys, "decompose", "--n", "20", "--k", "4", "--validate")
    assert code == 2 and out == ""
    assert err.startswith("internal error: extrapolated decomposition invalid for (20,4)")


def test_decompose_trivial_flagged(capsys):
    code, out, _ = run(capsys, "decompose", "--n", "5", "--k", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["trivial"] is True and len(payload["bags"]) == 1


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--n", "16", "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 16 and payload["k"] == 4
    assert payload["size"] == 14 == len(payload["members"])
    assert payload["verified"] is True
    assert all(0 <= v < 32 for v in payload["members"])


def test_construct_rejects_odd_k(capsys):
    code, _, err = run(capsys, "construct", "--n", "15", "--k", "5")
    assert code == 1 and "even k" in err


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--n", "10"])  # missing --k
    assert exc.value.code == 1


def test_readme_cli_examples_parse():
    """Every `petersen-alpha ...` line in README's sh blocks is a valid command
    line, so the docs cannot keep a flag the parser has dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("petersen-alpha ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
