"""Command-line surface: census, table, sample, verify, counterexamples.

Data goes to stdout as JSON-lines or RFC-4180-style CSV; logging goes to
stderr.  Exit codes: 0 success, 1 verification mismatch, 2 argument error,
3 resource refusal.
"""

import argparse
import csv
import gc
import json
import logging
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from itertools import islice

import numpy as np

from . import asymptotics, census, sampler
from .config import DEFAULT_ORACLE_CEILING, ENV_PREFIX, ResourceLimitError

log = logging.getLogger("divcensus")

CENSUS_FIELDS = ["N", "A", "B", "C", "S", "method"]
RATIO_FIELDS = ["N", "ratio", "theorem1_norm", "ramanujan_norm", "a_norm", "lemma_norm"]
SAMPLE_FIELDS = ["N", "trials", "successes", "p_hat", "std_err", "seed"]
COUNTEREXAMPLE_FIELDS = ["a", "b", "r"]

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class CountError(argparse.ArgumentTypeError, ValueError):
    """A malformed count; argparse shows the message of this type of error."""


# Counts with more digits are refused before int() builds them, which takes
# about 40 s at a million digits.  4300 is the default of Python's own limit
# on str -> int conversion (sys.get_int_max_str_digits).
MAX_COUNT_DIGITS = 4300


def parse_count(text: str) -> int:
    """Exact integer from decimal or scientific notation ('10000000', '1e7')."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise CountError(f"not a number: {text!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise CountError(f"expected an integer, got {text!r}")
    if value.adjusted() >= MAX_COUNT_DIGITS:
        raise CountError(
            f"a count has at most MAX_COUNT_DIGITS = {MAX_COUNT_DIGITS} digits, "
            f"got {value.adjusted() + 1}"
        )
    return int(value)


def _round_real(x: float) -> float:
    """Round to 12 significant digits, the serialization precision for reals."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def census_record(res: census.CensusResult) -> dict:
    return {
        "N": res.N,
        "A": res.a_count,
        "B": res.b_count,
        "C": res.c_count,
        "S": res.s_count,
        "method": res.method,
    }


def fields_record(obj, fields: list[str]) -> dict:
    """The attributes of obj named in `fields`, floats rounded by _round_real."""
    record = {}
    for name in fields:
        value = getattr(obj, name)
        record[name] = _round_real(value) if isinstance(value, float) else value
    return record


def emit_records(fields: list[str], records, fmt: str, stream=None) -> None:
    """Write records to `stream`; the CSV header is written even when empty."""
    out = sys.stdout if stream is None else stream
    if fmt == "csv":
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
    else:
        for rec in records:
            out.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_census(args) -> int:
    n = args.n
    if args.method == "brute":
        result = census.brute_force_census(n, oracle_ceiling=args.oracle_ceiling)
    else:
        result = census.fast_census(n)
    emit_records(CENSUS_FIELDS, [census_record(result)], args.format)
    return EXIT_OK


# table --points above this is refused before its grid is built: the grid
# is a Python list of that many values before duplicates go, and 10^6
# points took 3 s and 15 MiB traced for 999 distinct N in [2, 1000].
MAX_GRID_POINTS = 10_000


def geometric_grid(start: int, stop: int, points: int) -> list[int]:
    """Geometrically spaced integers from start to stop, deduplicated.

    More than MAX_GRID_POINTS points are refused before any is computed.
    """
    if start < 2 or stop <= start:
        raise ValueError(f"need 2 <= start < stop, got start={start} stop={stop}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if points > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"--points {points} refused: above MAX_GRID_POINTS = {MAX_GRID_POINTS}; split the range"
        )
    step = (math.log(stop) - math.log(start)) / (points - 1)
    grid = [round(math.exp(math.log(start) + i * step)) for i in range(points)]
    grid[0], grid[-1] = start, stop
    seen = []
    for n in grid:
        if not seen or n > seen[-1]:
            seen.append(n)
    return seen


def cmd_table(args) -> int:
    census.check_census_size(args.stop)  # before the float grid, which overflows first
    grid = geometric_grid(args.start, args.stop, args.points)
    points = asymptotics.ratio_table(grid)
    emit_records(RATIO_FIELDS, (fields_record(p, RATIO_FIELDS) for p in points), args.format)
    return EXIT_OK


def cmd_sample(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        log.info("no --seed given; drew %d from system entropy", seed)
    estimate = sampler.sample_triples(args.n, args.trials, seed)
    emit_records(SAMPLE_FIELDS, [fields_record(estimate, SAMPLE_FIELDS)], args.format)
    return EXIT_OK


def cmd_counterexamples(args) -> int:
    if args.limit < 1:
        raise ValueError(f"limit must be >= 1, got {args.limit}")
    found = islice(census.iter_counterexamples(args.n), args.limit)
    emit_records(
        COUNTEREXAMPLE_FIELDS,
        (fields_record(c, COUNTEREXAMPLE_FIELDS) for c in found),
        args.format,
    )
    return EXIT_OK


def _counts(res: census.CensusResult) -> tuple[int, int, int, int]:
    return res.a_count, res.b_count, res.c_count, res.s_count


def cmd_verify(args) -> int:
    """Fast path vs definitional brute force on every N <= max_n."""
    max_n = args.max_n
    if max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {max_n}")
    # Both routes yield (lo, counts) steps of the same width, row i holding
    # B, A, C and S at N = lo + i, which are compared step by step without
    # a CensusResult per N.  The oracle is asked first, so that an
    # oversized max_n is refused before any fast work.
    for (lo, brute), (fast_lo, fast) in zip(
        census.brute_force_census_blocks(max_n, oracle_ceiling=args.oracle_ceiling),
        census.fast_census_blocks(max_n),
    ):
        if (fast_lo, fast.shape) != (lo, brute.shape):
            raise RuntimeError(f"the oracle's and the sweep's steps differ at N={lo}")
        _, a, c, s = brute.T
        # Per N in order: B, A, C and S, then the identity on the brute counts.
        bad = np.column_stack((fast != brute, a != 2 * s - c))
        row, col = divmod(int(bad.argmax()), 5)  # the first failure, if any
        failed = bool(bad[row, col])
        stop = lo + row if failed else lo + len(brute)  # the first N not verified
        for n in range(lo + -lo % 500, stop, 500):
            log.info("verified through N=%d", n)
        if failed:
            got, want = fast[row].tolist(), brute[row].tolist()
            if col < 4:
                print(f"mismatch at N={stop}: {'BACS'[col]} fast={got[col]} brute={want[col]}")
            else:
                _, a_n, c_n, s_n = want
                print(
                    f"mismatch at N={stop}: identity A=2S-C fails on brute counts "
                    f"A={a_n} S={s_n} C={c_n}"
                )
            return EXIT_MISMATCH
    # The sweep counts every N from running sums of d(n)^2, d_3(n) and
    # c(n), with no D at all.  B's hyperbola walk and the D above a table
    # are checked here, at the largest N, by
    # fast_census(max_n), the route of census --n, and C by its route
    # without a table.  census_table(max_n) has isqrt(max_n) entries for
    # max_n <= 4096, the smallest table, whose pass has the largest M, and
    # at most 1.17 sqrt(max_n) up to the oracle's default ceiling, so its
    # pass is not empty from max_n = 2 on (M = 44 at 2000, 85 at 10^4).
    b, a, c, s = brute[-1].tolist()
    for label, got, want in (
        ("C without a table", census.count_gcd_divisor_sum(max_n), c),
        ("fast_census (A, B, C, S)", _counts(census.fast_census(max_n)), (a, b, c, s)),
    ):
        if got != want:
            print(f"mismatch at N={max_n}: {label}={got} brute={want}")
            return EXIT_MISMATCH
    print(f"verify: fast path matches brute force (A, B, C, S and A=2S-C) for all N <= {stop - 1}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # argparse exits 2 on its own errors, which matches the exit-code contract
    parser = argparse.ArgumentParser(
        prog="divcensus",
        description=(
            "Exact counts of triples (a, b, r) with r | ab and ab <= N: all of "
            "them (B), those where r | a or r | b (A), those where r divides "
            "both (C), plus convergence tables against their asymptotics and "
            "seeded sampling of the failure rate. Logs are natural throughout."
        ),
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    knobs = parser.add_argument_group("knobs (override DIVCENSUS_* environment)")
    knobs.add_argument("--oracle-ceiling", type=parse_count, default=None, metavar="N")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=["jsonl", "csv"],
            default="jsonl",
            help="output format (default: jsonl, one JSON object per line)",
        )

    p = sub.add_parser("census", help="exact A, B, C, S at one N")
    p.add_argument("--n", type=parse_count, required=True, help="bound N (scientific ok: 1e7)")
    p.add_argument("--method", choices=["brute", "fast"], default="fast")
    add_format(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("table", help="convergence table on a geometric grid of N")
    p.add_argument("--start", type=parse_count, required=True)
    p.add_argument("--stop", type=parse_count, required=True)
    p.add_argument("--points", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sample", help="seeded Monte Carlo estimate of A(N)/B(N)")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--trials", type=parse_count, required=True)
    p.add_argument("--seed", type=int, default=None, help="64-bit seed; drawn from entropy if absent")
    add_format(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="check the fast path against brute force")
    p.add_argument("--max-n", type=parse_count, default=2000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexamples", help="triples with r | ab but r dividing neither factor")
    p.add_argument("--n", type=parse_count, required=True)
    p.add_argument("--limit", type=int, default=10)
    add_format(p)
    p.set_defaults(func=cmd_counterexamples)

    return parser


def resolve_oracle_ceiling(args) -> int:
    """--oracle-ceiling if given, else DIVCENSUS_ORACLE_CEILING, else DEFAULT_ORACLE_CEILING.

    The variable is parsed like every count, and refused when malformed even
    if the flag is given; a refusal names where the bad value came from.
    """
    name = ENV_PREFIX + "ORACLE_CEILING"
    raw = os.environ.get(name)
    try:
        value = DEFAULT_ORACLE_CEILING if raw is None else parse_count(raw)
    except CountError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if args.oracle_ceiling is not None:
        name, value = "--oracle-ceiling", args.oracle_ceiling
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def main(argv=None) -> int:
    # What is alive before the command, mostly the objects of the imports,
    # lives as long as it does.  Frozen, it is left out of the command's
    # garbage collections: one generation-1 pass over it costs about 1.5 ms,
    # a sixth of a census at N = 1.6e7.
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )
    try:
        args.oracle_ceiling = resolve_oracle_ceiling(args)
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"divcensus: resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"divcensus: invalid argument: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
