#!/usr/bin/env python3
"""Convergence experiment: normalized census counts across decades of N.

Prints one row per decade with every normalization the library tracks:

    ratio           A(N)/B(N)
    theorem1_norm   (A/B) ln N / pi^2        -> 1
    ramanujan_norm  B pi^2 / (N ln^3 N)      -> 1
    a_norm          A / (N ln^2 N)           -> 1
    lemma_norm      C / (N ln N)             -> zeta(2) =~ 1.6449

The drift is O(1/ln N), so expect slow movement: a decade of N buys one
more unit of ln N.  The lemma_norm limit is derived, not guessed: README
and asymptotics.py give lemma_norm = zeta(2) - 1.621 / ln N + O(1/sqrt(N)).
--markdown emits the table ready to paste into docs.

Usage:
    python scripts/decade_grid.py [--max-exp 7] [--markdown]
"""

import argparse
import math
import time

from divcensus import asymptotics, census


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-exp", type=int, default=7, help="largest decade 10^k (default 7)")
    parser.add_argument("--markdown", action="store_true", help="emit a markdown table")
    args = parser.parse_args()

    grid = [10**k for k in range(3, args.max_exp + 1)]
    rows = []
    for n in grid:
        t0 = time.perf_counter()
        result = census.fast_census(n)
        point = asymptotics.ratio_point(result)
        rows.append((point, time.perf_counter() - t0))

    zeta2 = math.pi**2 / 6
    if args.markdown:
        print("| N | A(N)/B(N) | theorem1_norm | ramanujan_norm | a_norm | lemma_norm |")
        print("|---|-----------|---------------|----------------|--------|------------|")
        for p, _ in rows:
            print(
                f"| 10^{round(math.log10(p.N))} | {p.ratio:.6f} | {p.theorem1_norm:.4f} "
                f"| {p.ramanujan_norm:.4f} | {p.a_norm:.4f} | {p.lemma_norm:.4f} |"
            )
    else:
        header = f"{'N':>12} {'ratio':>10} {'thm1':>8} {'raman':>8} {'a_norm':>8} {'lemma':>8} {'secs':>7}"
        print(header)
        print("-" * len(header))
        for p, secs in rows:
            print(
                f"{p.N:>12} {p.ratio:>10.6f} {p.theorem1_norm:>8.4f} {p.ramanujan_norm:>8.4f} "
                f"{p.a_norm:>8.4f} {p.lemma_norm:>8.4f} {secs:>7.2f}"
            )
        print(f"\nlemma_norm limit zeta(2) = {zeta2:.4f}, approached as zeta(2) - 1.621 / ln N")


if __name__ == "__main__":
    main()
