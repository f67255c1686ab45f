"""Command-line surface: census, table, sample, verify, counterexamples.

Data goes to stdout as JSON-lines or RFC-4180-style CSV; logging goes to
stderr.  Exit codes: 0 success, 1 verification mismatch, 2 argument error,
3 resource refusal.

The command line is read by the standard library's getopt against one
table, COMMANDS, which also gives the help text: global options before
the command word, then the command's own.  Long options take
`--opt value` or `--opt=value`, and a unique prefix of their name.
"""

import csv
import gc
import getopt
import json
import logging
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from itertools import islice
from types import SimpleNamespace

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


class CountError(ValueError):
    """A malformed count; a usage error shows its message after the option's name."""


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


def parse_int(text: str) -> int:
    """An integer as int() reads it ('12', '-5', '1_000'), for --points, --seed and --limit."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


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
    # fast_census(max_n), the route of census --n, and C and S by their
    # routes without a table.  census_table(max_n), the prefix sums D(0..y), ends
    # at y = isqrt(max_n) for max_n <= 4096, the smallest table, whose pass
    # has the largest M, and at y <= 1.17 sqrt(max_n) up to the oracle's
    # default ceiling, so its pass is not empty from max_n = 2 on (M = 44
    # at 2000, 85 at 10^4).  C and S alone share divisor_core's one kernel,
    # quotient_sums, and a fault there is named by C, checked first.
    b, a, c, s = brute[-1].tolist()
    for label, got, want in (
        ("C without a table", census.count_gcd_divisor_sum(max_n), c),
        ("S without a table", census.count_da_over_hyperbola(max_n), s),
        ("fast_census (A, B, C, S)", _counts(census.fast_census(max_n)), (a, b, c, s)),
    ):
        if got != want:
            print(f"mismatch at N={max_n}: {label}={got} brute={want}")
            return EXIT_MISMATCH
    print(f"verify: fast path matches brute force (A, B, C, S and A=2S-C) for all N <= {stop - 1}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Command table and argument parsing
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of an option that must be given

FORMAT_OPTION = (
    "format", ("jsonl", "csv"), "jsonl", "output format (default: jsonl, one JSON object per line)"
)

# An option is (name, converter, default or REQUIRED, help).  The converter
# reads the text given as --name TEXT or --name=TEXT into the value a
# handler finds as args.<name, with - as _>; it is the tuple of accepted
# words for a choice, and None for a flag, which takes no value and reads
# True when given.  Global options go before the command.
GLOBAL_OPTIONS = [
    ("verbose", None, False, "log progress to stderr"),
    (
        "oracle-ceiling",
        parse_count,
        None,
        f"largest N of the brute-force path (default: {ENV_PREFIX}ORACLE_CEILING, "
        f"else {DEFAULT_ORACLE_CEILING})",
    ),
]

# command: (handler, one-line help, options)
COMMANDS = {
    "census": (cmd_census, "exact A, B, C, S at one N", [
        ("n", parse_count, REQUIRED, "bound N (scientific ok: 1e7)"),
        ("method", ("brute", "fast"), "fast", "enumeration or identities (default: fast)"),
        FORMAT_OPTION,
    ]),
    "table": (cmd_table, "convergence table on a geometric grid of N", [
        ("start", parse_count, REQUIRED, "first N of the grid"),
        ("stop", parse_count, REQUIRED, "last N of the grid"),
        ("points", parse_int, REQUIRED, f"grid points, at most {MAX_GRID_POINTS}"),
        FORMAT_OPTION,
    ]),
    "sample": (cmd_sample, "seeded Monte Carlo estimate of A(N)/B(N)", [
        ("n", parse_count, REQUIRED, "bound N"),
        ("trials", parse_count, REQUIRED, "triples drawn"),
        ("seed", parse_int, None, "64-bit seed; drawn from entropy if absent"),
        FORMAT_OPTION,
    ]),
    "verify": (cmd_verify, "check the fast path against brute force", [
        ("max-n", parse_count, 2000, "check every N up to this one (default: 2000)"),
    ]),
    "counterexamples": (cmd_counterexamples, "triples with r | ab but r dividing neither factor", [
        ("n", parse_count, REQUIRED, "bound N on ab"),
        ("limit", parse_int, 10, "most triples written (default: 10)"),
        FORMAT_OPTION,
    ]),
}

DESCRIPTION = (
    "Exact counts of triples (a, b, r) with r | ab and ab <= N: all of them (B),\n"
    "those where r | a or r | b (A), those where r divides both (C), plus\n"
    "convergence tables against their asymptotics and seeded sampling of the\n"
    "failure rate. Logs are natural throughout."
)


def _option_text(name: str, convert) -> str:
    """--name, with the placeholder of its value."""
    if isinstance(convert, tuple):
        return f"--{name} {{{','.join(convert)}}}"
    if convert is None:
        return f"--{name}"
    return f"--{name} {name.upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        options, prog, tail = GLOBAL_OPTIONS, "divcensus", ["COMMAND", "..."]
    else:
        options, prog, tail = COMMANDS[command][2], f"divcensus {command}", []
    words = ["usage:", prog, "[-h]"]
    for name, convert, default, _ in options:
        text = _option_text(name, convert)
        words.append(text if default is REQUIRED else f"[{text}]")
    return " ".join(words + tail)


def _help(command: str | None) -> str:
    """The help of divcensus (command None) or of one command, from the tables."""
    if command is None:
        about, options = DESCRIPTION, GLOBAL_OPTIONS
    else:
        _, about, options = COMMANDS[command]
    sections = [
        ("options", [("-h, --help", "show this help and exit")] + [
            (_option_text(name, convert), text) for name, convert, _, text in options
        ]),
    ]
    if command is None:
        sections.append(
            ("commands (see divcensus COMMAND --help)",
             [(name, entry[1]) for name, entry in COMMANDS.items()])
        )
    lines = [_usage(command), "", about]
    for title, rows in sections:
        width = max(len(left) for left, _ in rows)
        lines += ["", f"{title}:"] + [f"  {left:<{width}}  {right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def _invalid_choice(text: str, choices) -> str:
    return f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"


def _usage_error(command: str | None, message: str):
    """Print the usage and `divcensus: error: message` to stderr, and exit 2."""
    print(_usage(command), file=sys.stderr)
    print(f"divcensus: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _getopt_message(exc: getopt.GetoptError, longopts: list[str], where: str) -> str:
    """'argument --X: reason' for a getopt refusal."""
    if f"--{exc.opt}" not in exc.msg:  # a short option; -h is the only one
        return f"argument -{exc.opt}: not an option of {where}"
    if exc.opt + "=" in longopts:  # getopt names the whole option here
        return f"argument --{exc.opt}: expected one argument"
    if exc.opt in longopts:
        return f"argument --{exc.opt}: takes no value"
    matches = ["--" + o.rstrip("=") for o in longopts if o.startswith(exc.opt)]
    if matches:
        return f"argument --{exc.opt}: ambiguous option, could match {', '.join(matches)}"
    return f"argument --{exc.opt}: not an option of {where}"


def _parse_options(argv: list[str], options: list, command: str | None) -> tuple[dict, list[str]]:
    """The values of `options` read from the head of argv, and the rest of argv.

    getopt stops at the first word that is not an option: the command, in
    the pass over divcensus's own options (command None); after a command
    every word must be an option.  -h or --help prints the help of
    `command` (None: divcensus) and exits 0.  A value is converted where it
    stands, and the last of a repeated option wins.
    """
    where = "divcensus" if command is None else f"divcensus {command}"
    longopts = ["help"]
    longopts += [name + ("" if convert is None else "=") for name, convert, _, _ in options]
    try:
        found, rest = getopt.getopt(argv, "h", longopts)
    except getopt.GetoptError as exc:
        _usage_error(command, _getopt_message(exc, longopts, where))
    if any(opt in ("-h", "--help") for opt, _ in found):
        sys.stdout.write(_help(command))
        raise SystemExit(EXIT_OK)
    if command is not None and rest:
        _usage_error(command, f"argument {rest[0]}: {where} takes options only")
    converters = {name: convert for name, convert, _, _ in options}
    values = {}
    for opt, text in found:
        name = opt[2:]
        convert = converters[name]
        if convert is None:
            values[name] = True
        elif isinstance(convert, tuple):
            if text not in convert:
                _usage_error(command, f"argument {opt}: {_invalid_choice(text, convert)}")
            values[name] = text
        else:
            try:
                values[name] = convert(text)
            except ValueError as exc:
                _usage_error(command, f"argument {opt}: {exc}")
    for name, _, default, _ in options:
        if name not in values:
            if default is REQUIRED:
                _usage_error(command, f"argument --{name}: required by {where}")
            values[name] = default
    return {name.replace("-", "_"): value for name, value in values.items()}, rest


def parse_args(argv: list[str]):
    """The handler of the command that argv names, and its arguments.

    Two getopt passes read COMMANDS: divcensus's own options up to the
    command word, then the command's options; a word left after them is
    refused.  Every refusal prints the usage and `divcensus: error:
    argument X: reason` to stderr and exits 2.
    """
    values, rest = _parse_options(argv, GLOBAL_OPTIONS, None)
    if not rest:
        _usage_error(None, f"argument COMMAND: required, one of {', '.join(COMMANDS)}")
    command, *rest = rest
    if command not in COMMANDS:
        _usage_error(None, f"argument COMMAND: {_invalid_choice(command, COMMANDS)}")
    handler, _, options = COMMANDS[command]
    command_values, _ = _parse_options(rest, options, command)
    return handler, SimpleNamespace(**values, **command_values)


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
    handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )
    try:
        args.oracle_ceiling = resolve_oracle_ceiling(args)
        return handler(args)
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
