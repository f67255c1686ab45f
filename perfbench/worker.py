"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py [--trace] [--threads2 N] [--spans PATH] cli <divcensus args...>
    python3 perfbench/worker.py [--trace] [--spans PATH] hyperbola <N>
    python3 perfbench/worker.py setup

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
first thing it reports is the monotonic time at which `import divcensus`
finished, which run.py turns into the set-up time.  The operation's wall
time, CPU time and peak RSS are measured here, and then the reference
kernel.  Everything, the operation's output included,
goes unjudged into one JSON line on stdout; run.py checks it.
"""

import time

import divcensus
from divcensus import census, cli, config, sampler

READY_NS = time.monotonic_ns()

import argparse
import contextlib
import inspect
import io
import json
import math
import resource
import sys
import traceback

import numpy as np

# Reference-kernel timings taken right after the operation.
REFERENCE_REPEATS = 4


def _rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _step(x: int, k: int) -> int:
    return x // k + 1


def reference_kernel() -> list[float]:
    """[numpy wall, numpy CPU, interpreter wall, interpreter CPU] seconds of fixed work.

    The work shares no code with divcensus.  One part is numpy strided
    updates, like the sieve; the other is interpreter work, small function
    calls and list appends, like the small-N census calls.  The host this
    runs on changes speed by up to 1.8x within seconds, for every process
    at once, and each kind of work slows by its own factor; run.py rescales
    each operation by these times, taken right after it.
    """
    w0, c0 = time.perf_counter(), time.process_time()
    block = np.zeros(1 << 20, dtype=np.int32)
    for k in range(1, 1100):
        block[k::k] += 2
    w1, c1 = time.perf_counter(), time.process_time()
    total, seen = 0, []
    for i in range(1, 100_000):
        total += _step(i, 7)
        seen.append(total)
    w2, c2 = time.perf_counter(), time.process_time()
    return [w1 - w0, c1 - c0, w2 - w1, c2 - c1]


def sieve_increments(n: int) -> int:
    """Element updates the paired-divisor sieve makes on 1..n.

    Divisor k <= sqrt(n) adds 2 at k^2, k^2 + k, ..., which is n//k - k + 1
    positions; segmenting the range does not change the total.
    """
    return sum(n // k - k + 1 for k in range(1, math.isqrt(n) + 1))


def run_operation(mode: str, rest: list[str]) -> dict:
    if mode == "hyperbola":
        n = int(rest[0])
        return {"S": census.count_da_over_hyperbola(n), "C": census.count_gcd_divisor_sum(n)}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(rest)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
    return {"exit": code, "stdout": buf.getvalue()}


class LayerProbe:
    """Installs the spans and counters of a traced operation, then reduces them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.segmented_args: list[tuple[int, int]] = []
        self.space_bytes = 0
        self.trials = 0
        self.rss_after_build = 0.0
        self.rss_after_sample = 0.0

    def install(self) -> None:
        t = self.tracer
        # census looks these up in its own namespace, so that is where they
        # are wrapped; divisor_core's own attributes would never be called.
        t.wrap(census, "fast_census", "census.fast_census")
        t.wrap(census, "count_da_over_hyperbola", "census.S")
        t.wrap(census, "count_gcd_divisor_sum", "census.C")
        t.wrap(census, "count_all_triples", "census.B")
        t.wrap_generator(census, "brute_force_census_range", "census.oracle")
        t.wrap(census, "divisor_summatory", "divisor_core.summatory")
        t.wrap(census, "floor_quotient_blocks", "divisor_core.floor_quotient_blocks")
        t.wrap(
            census,
            "divisor_square_summatory_segmented",
            "divisor_core.segmented_b",
            note=self._note_segmented,
        )
        t.wrap(sampler, "sample_triples", "sampler.sample_triples", note=self._note_sample)
        t.wrap(sampler, "build_triple_space", "sampler.build", note=self._note_build)
        t.wrap(sampler, "sieve_divisor_counts", "divisor_core.sieve_table")

    def _note_segmented(self, args, kwargs, result) -> None:
        seg = kwargs.get("segment_size", args[1] if len(args) > 1 else config.DEFAULT_SEGMENT_SIZE)
        self.segmented_args.append((args[0], seg))

    def _note_build(self, args, kwargs, space) -> None:
        self.rss_after_build = _rss_mib()
        arrays = (space.table.counts, space.cum_weights, space.starts, space.flat_divisors)
        self.space_bytes += sum(a.nbytes for a in arrays)

    def _note_sample(self, args, kwargs, estimate) -> None:
        self.rss_after_sample = _rss_mib()
        self.trials += estimate.trials

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of this operation; a layer it never reached reads 0."""
        spans = self.tracer.summary()

        def get(name, field):
            return spans.get(name, {}).get(field, 0)

        def layer_self(prefix):
            return sum(v["self_s"] for k, v in spans.items() if k.startswith(prefix + "."))

        def per(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        increments = sum(sieve_increments(n) for n, _ in self.segmented_args)
        segmented_s = get("divisor_core.segmented_b", "total_s")
        summatory_calls = get("divisor_core.summatory", "calls")
        summatory_s = get("divisor_core.summatory", "total_s")
        fast_calls = get("census.fast_census", "calls")
        draw_s = get("sampler.sample_triples", "self_s")
        growth = self.rss_after_sample - self.rss_after_build if self.trials else 0.0
        return {
            "divisor_core.segmented_b_s": segmented_s,
            "divisor_core.segments": sum(-(-n // seg) for n, seg in self.segmented_args),
            "divisor_core.sieve_increments": increments,
            "divisor_core.sieve_ns_per_increment": per(segmented_s, increments, 1e9),
            "divisor_core.summatory_calls": summatory_calls,
            "divisor_core.summatory_s": summatory_s,
            "divisor_core.summatory_us_per_call": per(summatory_s, summatory_calls, 1e6),
            "divisor_core.sieve_table_s": get("divisor_core.sieve_table", "total_s"),
            "divisor_core.self_s": layer_self("divisor_core"),
            "census.S_s": get("census.S", "total_s"),
            "census.C_s": get("census.C", "total_s"),
            "census.B_s": get("census.B", "total_s"),
            "census.self_s": layer_self("census"),
            "census.fast_calls": fast_calls,
            "census.fast_us_per_call": per(get("census.fast_census", "total_s"), fast_calls, 1e6),
            "census.oracle_s": get("census.oracle", "total_s"),
            "sampler.build_s": get("sampler.build", "total_s"),
            "sampler.space_bytes": self.space_bytes,
            "sampler.draw_s": draw_s,
            "sampler.draws_per_s": per(self.trials, draw_s),
            "sampler.draw_rss_growth_mib": growth,
            "sampler.self_s": layer_self("sampler"),
            "cli.self_s": layer_self("cli"),
        }


def threads2_seconds(n: int) -> tuple[float, int] | None:
    """Segmented B at threads=2, untraced, for the threads-knob speed-up.

    None when the program no longer has a threads knob to measure.
    """
    from divcensus import divisor_core

    fn = divisor_core.divisor_square_summatory_segmented
    if "threads" not in inspect.signature(fn).parameters:
        return None
    t0 = time.perf_counter()
    b = fn(n, threads=2)
    return time.perf_counter() - t0, b


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--threads2", type=int, default=None, metavar="N")
    parser.add_argument("--spans", default=None, metavar="PATH")
    parser.add_argument("mode", choices=["cli", "hyperbola", "setup"])
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    record = {
        "ready_ns": READY_NS,
        "package": divcensus.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.mode == "setup":
        record["reference"] = [reference_kernel() for _ in range(REFERENCE_REPEATS)]
        print(json.dumps(record))
        return 0

    probe = None
    if args.trace:
        from spans import Tracer

        probe = LayerProbe(Tracer())
        probe.install()
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if probe is None:
            output = run_operation(args.mode, args.rest)
        else:
            root = "cli.main" if args.mode == "cli" else "bench.operation"
            output = probe.tracer.call(root, run_operation, args.mode, args.rest)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - cpu0
        record["peak_rss_mib"] = _rss_mib()
        # Only after the operation, so the kernel cannot raise its peak RSS.
        record["reference"] = [reference_kernel() for _ in range(REFERENCE_REPEATS)]
        record["output"] = output
        if probe is not None:
            probe.tracer.unwrap()
            record["layers"] = probe.layers()
            record["spans"] = len(probe.tracer.start)
            if args.spans:
                probe.tracer.save(args.spans)
        if args.threads2 is not None:
            measured = threads2_seconds(args.threads2)
            if measured is not None:
                record["threads2_s"], record["threads2_b"] = measured
    except Exception:
        # The operation's failure is a result to report, not a crash.
        record["error"] = traceback.format_exc()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
