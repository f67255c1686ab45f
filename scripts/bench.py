#!/usr/bin/env python3
"""End-to-end benchmark: `divcensus census`, `verify` and `sample`, one fresh process a run.

For each N the command `python -m divcensus census --n N` and an
in-process run of that census's table and of the batched D kernel on its
pass, for each M the
command `python -m divcensus verify --max-n M`, and for each N of the
sample list `python -m divcensus sample --n N --trials 2e6 --seed 1`, runs
in a new interpreter on the source tree of a checkout (this one by
default), with every DIVCENSUS_* variable cleared and BLAS pinned to one
thread.  Each run records its wall time, its CPU time and peak RSS (from
the child's own rusage) and its exit code; a census run adds the four
counts it printed, a verify or sample run its last line.  The kernel run
first times summatory_table(y), y = summatory_table_size(N), and adds
y, table_s and ns_per_entry, the median over as many builds as fill half
a second.  It then times divisor_summatory_batch on the pass's x = N // m,
m <= M = N // (y + 1), in the pass's steps of m, with one BatchWorkspace
lent to every step as the pass lends it, and adds M, the cells sum
isqrt(x) and ns_per_cell, the median over as many repeats of the pass as
fill half a second.  Then it adds pass_s, the median time of
census.pass_sums(N, table) on a fresh table each repeat: the pass's
weights, its kernel and its three reductions.  Last, on one table and its
pass's sums, it adds the median times of the stages that fast_census runs
after the pass, each over as many runs as fill half a second: walk_s for
B's walk, s_s for S's lookups and c_s for C's lookups.  Then, the same
way, s_alone_s and c_alone_s, the median times of S and C alone,
census.count_da_over_hyperbola(N) and census.count_gcd_divisor_sum(N),
which read no table.  Each sample run is followed, the same way, by an
in-process run of the sampler's stages at its N: build_s, the median
time of sampler.build_triple_space(N); count_s, that of
sample_triples(N, 2*10^6, seed 1) on the built space; and triples_s,
that of space.triples(v) on one chunk of 2^18 drawn v, after a first
call has built the guide and the divisor lists.  Before all of
them, the CLI's fixed cost: the time of one in-process
cli.main(["census", "--n", "1"]) after the imports, in each of
CLI_PROCESSES fresh interpreters, is recorded with its median as cli_s;
a fresh process's wall time buries it under about 0.1 s of interpreter
and numpy start-up.  The file BENCH_<label>.json holds the runs together
with the machine facts and the commit and source digest of the checkout,
so that files written before and after a change, on the same machine,
can be compared.

Usage:
    python scripts/bench.py --label after [--checkout .] [--n 1e8 1e10 1e12 1e13]
                            [--verify-max-n 2000 10000] [--sample-n 5e4 1e6] [--repeat 1]
    python scripts/bench.py --label parent change --checkout ../parent . [...]

An empty --n, --verify-max-n or --sample-n list skips that command.

Several checkouts, each paired in order with a label, are run in
alternating rounds: each repeat of a bound runs it once per checkout, and
the checkout that goes first moves on by one from one repeat to the next.
So a drift in the host's speed lands on every checkout alike.  Each
checkout writes its own BENCH_<label>.json.

The file goes to bench/ in this repository, whichever checkout is run.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT_DIR = REPO / "bench"
DEFAULT_NS = ["1e8", "1e10", "1e12", "1e13"]
DEFAULT_VERIFY_MAX_NS = ["2000", "10000"]
DEFAULT_SAMPLE_NS = ["5e4", "1e6"]
SAMPLE_ARGS = ["--trials", "2e6", "--seed", "1"]
CLI_ARGV = ["census", "--n", "1"]
CLI_PROCESSES = 9
# Run by `python -c CLI_CODE ARGV_JSON` on a checkout's src/; prints the seconds
# of one cli.main(argv), imports excluded, and exits with its exit code.
CLI_CODE = """
import contextlib, io, json, sys, time
from divcensus import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
print(elapsed)
sys.exit(code)
"""
# Run by `python -c KERNEL_CODE N` on a checkout's src/; prints one JSON line.
KERNEL_CODE = """
import json, statistics, sys, time
import numpy as np
from divcensus import census, divisor_core as dc
N = int(float(sys.argv[1]))
y = dc.summatory_table_size(N)
table_times = []
while sum(table_times) < 0.5:
    t0 = time.perf_counter()
    dc.summatory_table(y)
    table_times.append(time.perf_counter() - t0)
table_s = statistics.median(table_times)
M = N // (y + 1)
m = np.arange(1, M + 1, dtype=np.int64)
steps = [N // m[lo : lo + census._PASS_ROWS] for lo in range(0, M, census._PASS_ROWS)]
cells = sum(int(np.sqrt(x.astype(np.float64)).astype(np.int64).sum()) for x in steps)
workspace = dc.BatchWorkspace(N, min(M, census._PASS_ROWS))  # lent to every step, as the pass does
times = []
while not times or (cells and sum(times) < 0.5):
    t0 = time.perf_counter()
    for x in steps:
        dc.divisor_summatory_batch(x, workspace)
    times.append(time.perf_counter() - t0)
kernel_s = statistics.median(times)
ns_per_cell = round(kernel_s / cells * 1e9, 3) if cells else None
pass_times = []
while not pass_times or (M and sum(pass_times) < 0.5):
    table = dc.summatory_table(y)
    t0 = time.perf_counter()
    plain, weighted, squares = census.pass_sums(N, table)
    pass_times.append(time.perf_counter() - t0)
    del table
table = dc.summatory_table(y)  # the stages' table, after the last pass's is freed
stages = {}
for name, stage, total in (("walk_s", census._b_walk, weighted),
                           ("s_s", census._s_lookups, plain),
                           ("c_s", census._c_lookups, squares)):
    stage_times = []
    while sum(stage_times) < 0.5:
        t0 = time.perf_counter()
        stage(N, table, total)
        stage_times.append(time.perf_counter() - t0)
    stages[name] = round(statistics.median(stage_times), 6)
for name, count in (("s_alone_s", census.count_da_over_hyperbola),
                    ("c_alone_s", census.count_gcd_divisor_sum)):
    count_times = []
    while sum(count_times) < 0.5:
        t0 = time.perf_counter()
        count(N)
        count_times.append(time.perf_counter() - t0)
    stages[name] = round(statistics.median(count_times), 6)
print(json.dumps({"y": y, "table_repeats": len(table_times), "table_s": round(table_s, 4),
                  "ns_per_entry": round(table_s / y * 1e9, 2),
                  "M": M, "cells": cells, "repeats": len(times),
                  "kernel_s": round(kernel_s, 4), "ns_per_cell": ns_per_cell,
                  "pass_repeats": len(pass_times),
                  "pass_s": round(statistics.median(pass_times), 4), **stages}))
"""
# Run by `python -c SAMPLER_CODE N` on a checkout's src/; prints one JSON line.
SAMPLER_CODE = """
import json, statistics, sys, time
import numpy as np
from divcensus import sampler
N = int(float(sys.argv[1]))
def median_s(stage):
    times = []
    while sum(times) < 0.5:
        t0 = time.perf_counter()
        stage()
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times), 6)
stages = {"build_s": median_s(lambda: sampler.build_triple_space(N))}
space = sampler.build_triple_space(N)
stages["count_s"] = median_s(lambda: sampler.sample_triples(N, 2_000_000, 1, space=space))
v = np.random.default_rng(1).integers(0, space.total_triples, size=sampler.CHUNK_TRIALS,
                                      dtype=np.int32)
space.triples(v)  # builds the guide and the divisor lists
stages["triples_s"] = median_s(lambda: space.triples(v))
print(json.dumps(stages))
"""


def machine_facts() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def checkout_facts(checkout: Path) -> dict:
    """The commit, whether src/ differs from it, and a digest of src/**/*.py.

    The git fields are None outside a git work tree.
    """

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=checkout, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD") or None
    status = git("status", "--porcelain", "--", "src")
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_changed_since_commit": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def child_env(checkout: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIVCENSUS_")}
    env["PYTHONPATH"] = str(checkout / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_python(argv: list[str], env: dict) -> tuple[dict, str]:
    """One `python *argv` in a fresh process, measured by wait4.

    Returns the measurements, with stderr's tail on failure, and stdout.
    """
    cmd = [sys.executable, *argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    record = {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }
    if record["exit"] != 0:
        record["stderr"] = stderr[-2000:]
    return record, stdout


def run_divcensus(argv: list[str], env: dict) -> tuple[dict, str]:
    """One `python -m divcensus *argv` in a fresh process (run_python)."""
    return run_python(["-m", "divcensus", *argv], env)


def run_census(n: str, env: dict) -> dict:
    """`divcensus census --n n`, with the four counts it printed."""
    measured, stdout = run_divcensus(["census", "--n", n], env)
    record = {"command": "census", "n": n, **measured}
    if record["exit"] == 0:
        line = json.loads(stdout.strip().splitlines()[-1])
        record["N"] = line["N"]
        record["counts"] = {key: line[key] for key in ("A", "B", "C", "S")}
    return record


def run_kernel(n: str, env: dict) -> dict:
    """KERNEL_CODE at bound n: the batched D kernel's time on the census pass."""
    measured, stdout = run_python(["-c", KERNEL_CODE, n], env)
    record = {"command": "kernel", "n": n, **measured}
    if record["exit"] == 0:
        record.update(json.loads(stdout.strip().splitlines()[-1]))
    return record


def run_cli(processes: int, env: dict) -> dict:
    """CLI_CODE in `processes` fresh interpreters: cli.main(CLI_ARGV)'s times and their median."""
    record = {"command": "cli", "argv": CLI_ARGV, "processes": processes, "exit": 0, "runs_s": []}
    for _ in range(processes):
        measured, stdout = run_python(["-c", CLI_CODE, json.dumps(CLI_ARGV)], env)
        if measured["exit"] != 0:
            record.update(exit=measured["exit"], stderr=measured["stderr"])
            return record
        record["runs_s"].append(round(float(last_line(stdout)), 6))
    record["cli_s"] = round(statistics.median(record["runs_s"]), 6)
    return record


def last_line(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


def run_verify(max_n: str, env: dict) -> dict:
    """`divcensus verify --max-n max_n`, with the line it printed last."""
    measured, stdout = run_divcensus(["verify", "--max-n", max_n], env)
    return {"command": "verify", "max_n": max_n, **measured, "result": last_line(stdout)}


def run_sample(n: str, env: dict) -> dict:
    """`divcensus sample --n n` with SAMPLE_ARGS, with the line it printed last."""
    measured, stdout = run_divcensus(["sample", "--n", n, *SAMPLE_ARGS], env)
    return {"command": "sample", "n": n, **measured, "result": last_line(stdout)}


def run_sampler(n: str, env: dict) -> dict:
    """SAMPLER_CODE at bound n: the medians of the sampler's stages."""
    measured, stdout = run_python(["-c", SAMPLER_CODE, n], env)
    record = {"command": "sampler", "n": n, **measured}
    if record["exit"] == 0:
        record.update(json.loads(last_line(stdout)))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", nargs="+", required=True, help="names BENCH_<label>.json, one label a checkout"
    )
    parser.add_argument(
        "--checkout", nargs="+", type=Path, default=[REPO], help="trees whose src/ is run"
    )
    parser.add_argument("--n", nargs="*", default=DEFAULT_NS, help="census bounds, in order")
    parser.add_argument(
        "--verify-max-n",
        nargs="*",
        default=DEFAULT_VERIFY_MAX_NS,
        help="verify bounds, in order, run after the census bounds",
    )
    parser.add_argument(
        "--sample-n",
        nargs="*",
        default=DEFAULT_SAMPLE_NS,
        help="sample bounds, in order, run after the verify bounds",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per bound (default 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if len(args.label) != len(args.checkout):
        parser.error(f"{len(args.label)} labels for {len(args.checkout)} checkouts")

    checkouts = [checkout.resolve() for checkout in args.checkout]
    envs = [child_env(checkout) for checkout in checkouts]
    jobs = (
        [(run_cli, CLI_PROCESSES)]
        + [(run, n) for n in args.n for run in (run_census, run_kernel)]
        + [(run_verify, m) for m in args.verify_max_n]
        + [(run, n) for n in args.sample_n for run in (run_sample, run_sampler)]
    )
    runs = [[] for _ in checkouts]
    for run, bound in jobs:
        for repeat in range(args.repeat):
            for k in range(len(checkouts)):
                side = (repeat + k) % len(checkouts)
                record = run(bound, envs[side])
                shown = json.dumps(record)
                if len(checkouts) > 1:
                    shown = f"{args.label[side]} {shown}"
                print(shown, file=sys.stderr)
                runs[side].append(record)
    OUT_DIR.mkdir(exist_ok=True)
    for label, checkout, side_runs in zip(args.label, checkouts, runs):
        result = {
            "label": label,
            "commands": [
                "python -c CLI_CODE " + json.dumps(CLI_ARGV),
                "python -m divcensus census --n N",
                "python -c KERNEL_CODE N",
                "python -m divcensus verify --max-n M",
                "python -m divcensus sample --n N " + " ".join(SAMPLE_ARGS),
                "python -c SAMPLER_CODE N",
            ],
            "machine": machine_facts(),
            "checkout": checkout_facts(checkout),
            "runs": side_runs,
        }
        path = OUT_DIR / f"BENCH_{label}.json"
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(path)
    return 0 if all(r["exit"] == 0 for side_runs in runs for r in side_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
