"""CLI surface: subcommands, formats, exit codes, config precedence."""

import csv
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import divcensus
from divcensus import asymptotics, census, divisor_core
from divcensus.cli import (
    COMMANDS,
    GLOBAL_OPTIONS,
    MAX_GRID_POINTS,
    geometric_grid,
    main,
    parse_count,
)
from divcensus.config import ResourceLimitError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl_records(out):
    return [json.loads(line) for line in out.splitlines() if line]


def csv_records(out):
    return list(csv.DictReader(io.StringIO(out)))


# -- argument plumbing ---------------------------------------------------------

def test_parse_count_accepts_scientific_notation():
    assert parse_count("10000000") == 10**7
    assert parse_count("1e7") == 10**7
    assert parse_count("2.5e1") == 25
    with pytest.raises(ValueError):
        parse_count("1.5")
    with pytest.raises(ValueError):
        parse_count("ten")
    assert parse_count("1" + "0" * 4299) == 10**4299
    with pytest.raises(ValueError, match="MAX_COUNT_DIGITS"):
        parse_count("1e4300")


def test_huge_or_infinite_count_is_a_usage_error(capsys):
    # Refused before int() builds the number, about 40 s at a million digits.
    for text, reason in (("1e1000000", "MAX_COUNT_DIGITS = 4300"), ("inf", "expected an integer")):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--n", text])
        assert exc.value.code == 2
        assert reason in capsys.readouterr().err


def test_nonintegral_n_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "1.5"])
    assert exc.value.code == 2


def test_unknown_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["census", "--n"], "--n"),  # no value
        (["census"], "--n"),  # a required option missing
        (["census", "--n", "5", "--format", "xml"], "--format"),
        (["census", "5"], "5"),  # a stray positional
        (["census", "--n", "5", "--bogus", "1"], "--bogus"),
        (["census", "--n", "5", "--verbose"], "--verbose"),  # global flags go first
        (["census", "-x"], "-x"),
        (["--verbose=1", "census", "--n", "5"], "--verbose"),
        (["table", "--st", "10", "--stop", "100", "--points", "2"], "--st"),  # ambiguous
        (["table", "--start", "10", "--stop", "100", "--points", "x"], "--points"),
        ([], "COMMAND"),
    ],
)
def test_usage_errors_exit_two_and_name_the_argument(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"divcensus: error: argument {named}: " in captured.err


@pytest.mark.parametrize(
    "given, spelled_out",
    [
        (["census", "--n=30"], ["census", "--n", "30"]),
        (["census", "--n", "30", "--format=csv"], ["census", "--n", "30", "--format", "csv"]),
        (["verify", "--max", "50"], ["verify", "--max-n", "50"]),  # a unique prefix
    ],
)
def test_equals_and_prefix_forms_read_as_spelled_out(given, spelled_out, capsys):
    expected = run(capsys, *spelled_out)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *given) == expected


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_global_option(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        assert f"\n  {command} " in out
    for name, *_ in GLOBAL_OPTIONS:
        assert f"--{name}" in out


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_help_lists_every_option(command, capsys):
    # Help wins over a missing required option.
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"usage: divcensus {command} ")
        for name, *_ in COMMANDS[command][2]:
            assert f"\n  --{name}" in captured.out


def test_geometric_grid():
    assert geometric_grid(10, 1000, 3) == [10, 100, 1000]
    assert geometric_grid(2, 3, 5) == [2, 3]  # rounding collapses duplicates
    with pytest.raises(ValueError):
        geometric_grid(1, 1000, 3)
    with pytest.raises(ValueError):
        geometric_grid(10, 10, 3)
    with pytest.raises(ValueError):
        geometric_grid(10, 1000, 1)
    assert geometric_grid(2, 10**12, MAX_GRID_POINTS)[-1] == 10**12
    with pytest.raises(ResourceLimitError, match="MAX_GRID_POINTS"):
        geometric_grid(2, 10**12, MAX_GRID_POINTS + 1)


def test_geometric_grid_refuses_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            geometric_grid(2, 1000, 10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**14


# -- census ---------------------------------------------------------------------

def test_census_brute_six(capsys):
    code, out, _ = run(capsys, "census", "--n", "6", "--method", "brute")
    assert code == 0
    (rec,) = jsonl_records(out)
    assert rec == {"N": 6, "A": 35, "B": 38, "C": 15, "S": 25, "method": "brute"}


def test_census_fast_one(capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--method", "fast")
    assert code == 0
    (rec,) = jsonl_records(out)
    assert (rec["A"], rec["B"], rec["C"], rec["S"]) == (1, 1, 1, 1)


def test_census_scientific_n(capsys):
    code, out, _ = run(capsys, "census", "--n", "1e3")
    assert code == 0
    assert jsonl_records(out)[0]["N"] == 1000


def test_census_zero_n_exits_two(capsys):
    code, _, err = run(capsys, "census", "--n", "0")
    assert code == 2
    assert "invalid argument" in err


def test_census_brute_above_ceiling_exits_three(capsys):
    code, _, err = run(capsys, "census", "--n", "20000", "--method", "brute")
    assert code == 3
    assert "resource refusal" in err


def test_ceiling_flag_overrides_default(capsys):
    code, out, _ = run(
        capsys, "--oracle-ceiling", "20000", "census", "--n", "10001", "--method", "brute"
    )
    assert code == 0
    assert jsonl_records(out)[0]["method"] == "brute"


def test_ceiling_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("DIVCENSUS_ORACLE_CEILING", "50")
    code, _, _ = run(capsys, "census", "--n", "100", "--method", "brute")
    assert code == 3  # env lowered the ceiling
    code, _, _ = run(capsys, "--oracle-ceiling", "100", "census", "--n", "100", "--method", "brute")
    assert code == 0  # flag beats env


@pytest.mark.parametrize("via_env", [False, True])
def test_ceiling_parses_like_every_count(via_env, capsys, monkeypatch):
    knob = ()
    if via_env:
        monkeypatch.setenv("DIVCENSUS_ORACLE_CEILING", "1e5")
    else:
        knob = ("--oracle-ceiling", "1e5")
    code, out, _ = run(capsys, *knob, "census", "--n", "10001", "--method", "brute")
    assert code == 0 and jsonl_records(out)[0]["method"] == "brute"
    code, _, err = run(capsys, *knob, "census", "--n", "100001", "--method", "brute")
    assert code == 3 and "(ceiling 100000)" in err


@pytest.mark.parametrize(
    "env, flag, message",
    [
        (None, "0", "--oracle-ceiling must be a positive integer, got 0"),
        (None, "-3", "--oracle-ceiling must be a positive integer, got -3"),
        ("0", None, "DIVCENSUS_ORACLE_CEILING must be a positive integer, got 0"),
        ("-5", None, "DIVCENSUS_ORACLE_CEILING must be a positive integer, got -5"),
        ("lots", None, "DIVCENSUS_ORACLE_CEILING: not a number: 'lots'"),
        ("1.5", "50", "DIVCENSUS_ORACLE_CEILING: expected an integer, got '1.5'"),
    ],
)
def test_bad_ceiling_is_refused_by_its_source_on_every_command(
    env, flag, message, capsys, monkeypatch
):
    # A malformed variable is refused even where the flag would override it.
    if env is not None:
        monkeypatch.setenv("DIVCENSUS_ORACLE_CEILING", env)
    knob = () if flag is None else ("--oracle-ceiling", flag)
    for command in (
        ("census", "--n", "5"),
        ("table", "--start", "10", "--stop", "100", "--points", "2"),
        ("sample", "--n", "300", "--trials", "1000", "--seed", "4"),
        ("verify", "--max-n", "5"),
        ("counterexamples", "--n", "5"),
    ):
        assert run(capsys, *knob, *command) == (2, "", f"divcensus: invalid argument: {message}\n")


def test_malformed_ceiling_flag_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--oracle-ceiling", "lots", "census", "--n", "5"])
    assert exc.value.code == 2
    assert "argument --oracle-ceiling: not a number: 'lots'" in capsys.readouterr().err


def test_segment_and_thread_env_knobs_change_nothing_numeric(capsys, monkeypatch):
    _, baseline, _ = run(capsys, "census", "--n", "5000")
    monkeypatch.setenv("DIVCENSUS_THREADS", "3")  # no longer a knob: ignored
    monkeypatch.setenv("DIVCENSUS_ORACLE_CEILING", "50")
    monkeypatch.setenv("DIVCENSUS_SEGMENT_SIZE", "137")  # no longer a knob: ignored
    code, out, _ = run(capsys, "census", "--n", "5000")
    assert code == 0
    assert out == baseline  # knobs steer resources, never values


def test_garbage_env_knob_is_a_usage_error(capsys, monkeypatch):
    sample = ("sample", "--n", "300", "--trials", "1000", "--seed", "4")
    _, baseline, _ = run(capsys, *sample)
    monkeypatch.setenv("DIVCENSUS_THREADS", "lots")  # no longer a knob: ignored
    assert run(capsys, *sample) == (0, baseline, "")
    monkeypatch.setenv("DIVCENSUS_ORACLE_CEILING", "lots")
    code, _, err = run(capsys, "census", "--n", "10")
    assert code == 2
    assert "DIVCENSUS_ORACLE_CEILING" in err


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "sample", "--n", "300", "--trials", "1000", "--seed", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_objects_from_before_the_command_are_frozen_while_it_runs(capsys, monkeypatch):
    frozen = []
    fast_census = census.fast_census

    def spy(n):
        frozen.append(gc.get_freeze_count())
        return fast_census(n)

    monkeypatch.setattr(census, "fast_census", spy)
    assert run(capsys, "census", "--n", "10")[0] == 0
    assert frozen[0] > 0 and gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert gc.get_freeze_count() == 0


def test_census_csv_matches_jsonl(capsys):
    _, out_j, _ = run(capsys, "census", "--n", "30", "--method", "fast")
    _, out_c, _ = run(capsys, "census", "--n", "30", "--method", "fast", "--format", "csv")
    (rj,) = jsonl_records(out_j)
    (rc,) = csv_records(out_c)
    assert set(rc) == set(rj)
    for key, value in rj.items():
        parsed = type(value)(rc[key])
        assert parsed == value, key


# -- table -----------------------------------------------------------------------

def test_table_grid_and_ratio_bound(capsys):
    code, out, _ = run(capsys, "table", "--start", "10", "--stop", "1000", "--points", "3")
    assert code == 0
    recs = jsonl_records(out)
    assert [r["N"] for r in recs] == [10, 100, 1000]
    assert all(r["ratio"] <= 1 for r in recs)
    assert all(r["lemma_norm"] > 0 for r in recs)


def test_table_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "table", "--start", "1", "--stop", "1000", "--points", "3")
    assert code == 2 and "invalid argument" in err
    code, _, _ = run(capsys, "table", "--start", "10", "--stop", "1000", "--points", "1")
    assert code == 2


def test_table_refuses_a_huge_grid_before_any_point(capsys, monkeypatch):
    calls = []
    for module in (census, asymptotics):
        monkeypatch.setattr(module, "fast_census", lambda n: calls.append(n))
    # 1e400 would overflow the float grid; the size guard comes first.
    code, out, err = run(capsys, "table", "--start", "2", "--stop", "1e400", "--points", "3")
    assert code == 3
    assert "resource refusal" in err and "SUBLINEAR_TABLE_CAP" in err
    assert out == "" and calls == []
    # The first refused N: sqrt(N) just above the table cap.
    first = (divisor_core.SUBLINEAR_TABLE_CAP + 1) ** 2
    code, _, _ = run(capsys, "table", "--start", "2", "--stop", str(first), "--points", "3")
    assert code == 3 and calls == []


def test_table_refuses_too_many_points(capsys):
    points = str(MAX_GRID_POINTS + 1)
    code, out, err = run(capsys, "table", "--start", "2", "--stop", "1000", "--points", points)
    assert code == 3 and out == ""
    assert "resource refusal" in err and "MAX_GRID_POINTS" in err


def test_table_csv_round_trips_field_for_field(capsys):
    args = ("table", "--start", "10", "--stop", "100", "--points", "2")
    _, out_j, _ = run(capsys, *args)
    _, out_c, _ = run(capsys, *args, "--format", "csv")
    js = jsonl_records(out_j)
    cs = csv_records(out_c)
    assert len(js) == len(cs) == 2
    for rj, rc in zip(js, cs):
        assert int(rc["N"]) == rj["N"]
        for key in ("ratio", "theorem1_norm", "ramanujan_norm", "a_norm", "lemma_norm"):
            assert float(rc[key]) == rj[key], key


# -- sample ------------------------------------------------------------------------

def test_sample_below_four_is_certain(capsys):
    code, out, _ = run(capsys, "sample", "--n", "3", "--trials", "1000", "--seed", "42")
    assert code == 0
    (rec,) = jsonl_records(out)
    assert rec["p_hat"] == 1.0
    assert rec["successes"] == 1000
    assert rec["seed"] == 42
    assert set(rec) == {"N", "trials", "successes", "p_hat", "std_err", "seed"}


def test_sample_is_reproducible_via_reported_seed(capsys):
    args = ("sample", "--n", "50", "--trials", "20000", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sample_without_seed_reports_entropy_seed(capsys):
    code, out, _ = run(capsys, "sample", "--n", "10", "--trials", "100")
    assert code == 0
    (rec,) = jsonl_records(out)
    assert 0 <= rec["seed"] < 2**64


def test_sample_invalid_arguments(capsys):
    code, _, _ = run(capsys, "sample", "--n", "10", "--trials", "0")
    assert code == 2
    code, _, _ = run(capsys, "sample", "--n", "0", "--trials", "10")
    assert code == 2


def test_sample_trials_beyond_int64_is_an_argument_error(capsys):
    code, out, err = run(capsys, "sample", "--n", "100", "--trials", "1e30", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "64 signed bits" in err and "Traceback" not in err


def test_sample_oversized_n_is_a_resource_refusal(capsys):
    code, _, err = run(capsys, "sample", "--n", "1e9", "--trials", "10")
    assert code == 3
    assert "resource refusal" in err


def test_sample_csv_round_trips_field_for_field(capsys):
    args = ("sample", "--n", "40", "--trials", "5000", "--seed", "3")
    _, out_j, _ = run(capsys, *args)
    _, out_c, _ = run(capsys, *args, "--format", "csv")
    (rj,) = jsonl_records(out_j)
    (rc,) = csv_records(out_c)
    for key in ("N", "trials", "successes", "seed"):
        assert int(rc[key]) == rj[key]
    for key in ("p_hat", "std_err"):
        assert float(rc[key]) == rj[key]


# -- verify --------------------------------------------------------------------------

def test_verify_clean(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 0
    assert "all N <= 100" in out


def test_verify_rejects_zero(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "0")
    assert code == 2
    assert "invalid argument" in err


def with_b_off_by_one(result, at):
    """result with B one too high if its N is at, else result itself."""
    return dataclasses.replace(result, b_count=result.b_count + 1) if result.N == at else result


def bump_blocks(monkeypatch, name, at, columns):
    """Make census.<name>, a block generator verify reads, add 1 to columns of N = at.

    Columns 0..3 are B, A, C and S.
    """
    real = getattr(census, name)

    def blocks(*args, **kwargs):
        for lo, counts in real(*args, **kwargs):
            if lo <= at < lo + len(counts):
                counts[at - lo, list(columns)] += 1
            yield lo, counts

    monkeypatch.setattr(census, name, blocks)


def b_off_by_one_at(monkeypatch, at):
    """Make census.fast_census_blocks, which verify compares, report B one too high at N = at."""
    bump_blocks(monkeypatch, "fast_census_blocks", at, [0])


def test_verify_fault_injection_names_the_n(capsys, monkeypatch):
    b_off_by_one_at(monkeypatch, 37)
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 1
    assert "N=37" in out
    assert "fast=" in out and "brute=" in out


@pytest.mark.parametrize("at", [64, 65, 100])  # the last step of --max-n 100 is 65..100
def test_verify_names_an_n_at_a_step_edge(at, capsys, monkeypatch):
    b_off_by_one_at(monkeypatch, at)
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    b = census.brute_force_census(at).b_count
    assert code == 1
    assert out == f"mismatch at N={at}: B fast={b + 1} brute={b}\n"


@pytest.mark.parametrize("columns, label", [([0, 1], "B"), ([1, 3], "A"), ([2, 3], "C")])
def test_verify_reports_the_first_wrong_count_in_order(columns, label, capsys, monkeypatch):
    bump_blocks(monkeypatch, "fast_census_blocks", 37, columns)
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 1
    assert out.startswith(f"mismatch at N=37: {label} fast=")


def test_verify_checks_the_identity_on_the_brute_counts(capsys, monkeypatch):
    # A one too high on both routes: they agree, but A = 2S - C fails.
    r = census.brute_force_census(37)
    bump_blocks(monkeypatch, "brute_force_census_blocks", 37, [1])
    bump_blocks(monkeypatch, "fast_census_blocks", 37, [1])
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 1
    assert out == (
        f"mismatch at N=37: identity A=2S-C fails on brute counts "
        f"A={r.a_count + 1} S={r.s_count} C={r.c_count}\n"
    )


def test_verify_refuses_steps_out_of_line(monkeypatch):
    monkeypatch.setattr(census, "_SWEEP_BLOCK", 7)
    with pytest.raises(RuntimeError, match="steps differ at N=1"):
        main(["verify", "--max-n", "100"])


@pytest.mark.parametrize("at, logged", [(None, [500, 1000]), (500, []), (1000, [500])])
def test_verify_logs_every_500_n_it_verified(at, logged, caplog, capsys, monkeypatch):
    if at is not None:
        b_off_by_one_at(monkeypatch, at)
    with caplog.at_level("INFO", logger="divcensus"):
        code, _, _ = run(capsys, "--verbose", "verify", "--max-n", "1000")
    assert code == (0 if at is None else 1)
    messages = [rec.getMessage() for rec in caplog.records]
    assert messages == [f"verified through N={n}" for n in logged]


def test_verify_builds_one_census_result(built_results, capsys):
    # The two routes are compared as arrays; only fast_census(max_n) builds one.
    code, _, _ = run(capsys, "verify", "--max-n", "2000")
    assert code == 0
    assert built_results == [2000]


@pytest.mark.parametrize("top", [100, 10_001])
def test_verify_calls_fast_census_once_at_max_n(top, capsys, monkeypatch):
    # The sweep counts every N itself; fast_census, the route of census --n,
    # is checked once, at max_n, where it walks B's identity.
    calls = []
    real = census.fast_census
    monkeypatch.setattr(census, "fast_census", lambda n: calls.append(n) or real(n))
    code, out, _ = run(capsys, "--oracle-ceiling", str(top), "verify", "--max-n", str(top))
    assert code == 0
    assert f"all N <= {top}" in out
    assert calls == [top]


@pytest.mark.parametrize("max_n", [100, 10_001])
def test_verify_checks_fast_census_at_max_n(max_n, capsys, monkeypatch):
    real = census.fast_census
    monkeypatch.setattr(census, "fast_census", lambda n: with_b_off_by_one(real(n), max_n))
    code, out, _ = run(capsys, "--oracle-ceiling", str(max_n), "verify", "--max-n", str(max_n))
    assert code == 1
    assert f"mismatch at N={max_n}: fast_census (A, B, C, S)=" in out


def test_verify_checks_b_on_the_small_table(capsys, monkeypatch):
    # Off by one only from a table short of N: verify --max-n 100 sweeps
    # its N without B's walk, then asks fast_census(100) for B over
    # census_table(100), D(0..10).
    real = census._b_walk
    monkeypatch.setattr(
        census,
        "_b_walk",
        lambda n, prefix, weighted: real(n, prefix, weighted) + (prefix.size <= n),
    )
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 1
    assert "mismatch at N=100: fast_census (A, B, C, S)=" in out


def test_verify_checks_c_without_a_table(capsys, monkeypatch):
    # Only C without a table calls the batched D without a workspace; the
    # pass lends one to every call, and S without a table one to both of
    # its sums.  verify checks C first.
    real = census.divisor_summatory_batch
    monkeypatch.setattr(
        census,
        "divisor_summatory_batch",
        lambda x, *workspace: real(x, *workspace) + (not workspace),
    )
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 1
    assert "mismatch at N=100: C without a table=" in out


def test_verify_checks_s_without_a_table(capsys, monkeypatch):
    # Only S without a table takes capped quotient sums, one row for each
    # a <= icbrt(100) = 4; the sweep and fast_census(max_n) never do.
    real = census.quotient_sums
    monkeypatch.setattr(
        census,
        "quotient_sums",
        lambda x, cap=None, workspace=None: real(x, cap, workspace) + (cap is not None),
    )
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    s = census.brute_force_census(100).s_count
    assert code == 1
    assert out == f"mismatch at N=100: S without a table={s - 3 * 4} brute={s}\n"


def test_verify_checks_the_table_fallback(capsys, monkeypatch):
    # An off-by-one D(q) above the table reaches no N of the sweep, whose
    # sieve runs to max_n; only fast_census(max_n) sees it, in the pass of
    # census_table(100) that B, S and C share.  S without a table lends a
    # workspace too, so the fault is put in the calls from the pass alone.
    real = census.divisor_summatory_batch
    monkeypatch.setattr(
        census,
        "divisor_summatory_batch",
        lambda x, *workspace: real(x, *workspace)
        + (sys._getframe(1).f_code.co_name == "pass_sums"),
    )
    code, out, _ = run(capsys, "verify", "--max-n", "100")
    assert code == 1
    assert "mismatch at N=100: fast_census (A, B, C, S)=" in out


# -- python -m divcensus ----------------------------------------------------------------

def run_python(*args):
    """`python *args` in a fresh interpreter that imports this divcensus."""
    src = str(Path(divcensus.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "divcensus", "census", "--n", "100")
    assert done.returncode == 0, done.stderr
    assert jsonl_records(done.stdout) == [
        {"N": 100, "A": 2313, "B": 3046, "C": 629, "S": 1471, "method": "fast"}
    ]


def test_cli_imports_neither_argparse_nor_locale():
    # argparse's first use, with the locale import its gettext lookups make,
    # cost about as much as a census at N = 1.6e7.
    code = (
        "import contextlib, io, sys\n"
        "from divcensus import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['census', '--n', '100']) == 0\n"
        "print(sorted({'argparse', 'locale'} & set(sys.modules)))\n"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# -- counterexamples --------------------------------------------------------------------

def test_counterexamples_at_six(capsys):
    code, out, _ = run(capsys, "counterexamples", "--n", "6", "--limit", "10")
    assert code == 0
    recs = jsonl_records(out)
    assert recs == [
        {"a": 2, "b": 2, "r": 4},
        {"a": 2, "b": 3, "r": 6},
        {"a": 3, "b": 2, "r": 6},
    ]


def test_counterexamples_empty_below_four(capsys):
    code, out, _ = run(capsys, "counterexamples", "--n", "3", "--limit", "10")
    assert code == 0
    assert out == ""


def test_counterexamples_csv_has_header_even_when_empty(capsys):
    code, out, _ = run(capsys, "counterexamples", "--n", "3", "--limit", "5", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "a,b,r"
    assert len(out.splitlines()) == 1


def test_counterexamples_respects_limit(capsys):
    code, out, _ = run(capsys, "counterexamples", "--n", "100", "--limit", "2")
    assert code == 0
    assert len(jsonl_records(out)) == 2


def test_counterexamples_invalid_limit(capsys):
    code, _, _ = run(capsys, "counterexamples", "--n", "10", "--limit", "0")
    assert code == 2


def test_counterexamples_invalid_n_writes_nothing(capsys):
    code, out, err = run(capsys, "counterexamples", "--n", "0", "--format", "csv")
    assert code == 2
    assert out == "" and "invalid argument" in err


def test_counterexamples_stream_without_buffering(monkeypatch):
    # Each record is written as it is found: the traced peak does not grow
    # with the count of records (124877 at N = 3000).
    class LineCounter:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")

    sink = LineCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["counterexamples", "--n", "3000", "--limit", "1000000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.lines == 124_877
    assert peak < 2 * 2**20


# -- output hygiene -----------------------------------------------------------------------

def test_data_on_stdout_logs_on_stderr(capsys):
    code, out, err = run(capsys, "--verbose", "census", "--n", "12")
    assert code == 0
    for line in out.splitlines():
        json.loads(line)  # stdout is pure data
    assert "divcensus" not in out


def test_exit_codes_stay_in_contract(capsys, monkeypatch):
    observed = set()
    observed.add(run(capsys, "census", "--n", "5")[0])
    observed.add(run(capsys, "census", "--n", "0")[0])
    observed.add(run(capsys, "census", "--n", "99999", "--method", "brute")[0])
    b_off_by_one_at(monkeypatch, 10)
    observed.add(run(capsys, "verify", "--max-n", "50")[0])
    assert observed == {0, 1, 2, 3}
