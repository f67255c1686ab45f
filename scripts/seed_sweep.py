#!/usr/bin/env python3
"""Sampler calibration sweep: does p_hat concentrate on the exact ratio?

Draws `--trials` triples at bound N for each of `--seeds` consecutive
seeds, compares every estimate to the exact A(N)/B(N) from the census, and
reports how many land within 4 standard errors (binomial theory says
roughly all of them should).  It also times the sampler's two stages: the
table build once, and the draws as throughput over all seeds.

Usage:
    python scripts/seed_sweep.py [--n 100000] [--trials 1000000] [--seeds 20]
"""

import argparse
import time

from divcensus import census
from divcensus.sampler import build_triple_space, sample_triples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--seeds", type=int, default=20)
    args = parser.parse_args()

    exact = census.fast_census(args.n)
    p_exact = exact.a_count / exact.b_count
    print(f"N={args.n}: exact A/B = {exact.a_count}/{exact.b_count} = {p_exact:.8f}")

    t0 = time.perf_counter()
    space = build_triple_space(args.n)
    print(f"sampling tables built in {time.perf_counter() - t0:.2f}s")

    hits = 0
    draw_s = 0.0
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        est = sample_triples(args.n, args.trials, seed, space=space)
        draw_s += time.perf_counter() - t0
        deviations = abs(est.p_hat - p_exact) / est.std_err if est.std_err else 0.0
        ok = deviations <= 4.0
        hits += ok
        print(
            f"seed {seed:>3}: p_hat={est.p_hat:.8f}  dev={deviations:5.2f} se  "
            f"{'ok' if ok else 'OUTSIDE 4 se'}"
        )
    print(f"{hits}/{args.seeds} within 4 standard errors")
    draws = args.trials * args.seeds
    print(f"draws: {draws} in {draw_s:.2f}s ({draws / draw_s:.3g} draws/s)")


if __name__ == "__main__":
    main()
