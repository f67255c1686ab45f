"""Compute the exact counts the benchmark checks against, and cross-check them.

    PYTHONPATH=src python3 perfbench/make_pins.py > perfbench/pins.json

The pins come from the program's fast routes.  Each is then recomputed by
routes that share no code with the hyperbola path, and the script stops
if any differs:

- up to the in-memory table limit (census_big and sample), B from
  sieve_divisor_counts plus divisor_square_summatory, S as
  sum d(a) * floor(N/a) over that table, and C as sum_r D_table(N // r^2);
- at every scale, S as D_3(N) by enumerating x <= y <= z with xyz <= N;
- at hyperbola_big's N, C with each D(x) taken as sum_k floor(x/k) over
  blocks of equal quotient.

It needs about 0.3 GB of memory and under a minute.
"""

import json
import sys
from math import isqrt

import numpy as np

from divcensus import census
from divcensus.divisor_core import divisor_square_summatory, sieve_divisor_counts

# Each census workload draws its N from one of these sets by seed.  The
# members of a set cost the same to within a millionth; each set holds a
# perfect square and its predecessor, where the isqrt bounds change.
CENSUS_BIG_N = [4000**2 - 1, 4000**2, 4000**2 + 7, 4000**2 + 37]
HYPERBOLA_BIG_N = [20000**2 - 1, 20000**2, 20000**2 + 19, 20000**2 + 33]
SAMPLE_N = [50_000]

_CHUNK = 1 << 22


def table_counts(table, n: int) -> dict[str, int]:
    """B, S and C at n from one in-memory d(n) table."""
    counts = table.counts
    b = divisor_square_summatory(n, table)
    s = 0
    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, n)
        d = counts[lo : hi + 1].astype(np.int64)
        s += int(np.dot(d, n // np.arange(lo, hi + 1, dtype=np.int64)))
    xs = sorted({n // (r * r) for r in range(1, isqrt(n) + 1)})
    prefix = {}
    carry = 0
    j = 0
    for lo in range(1, n + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, n)
        run = np.cumsum(counts[lo : hi + 1], dtype=np.int64)
        while j < len(xs) and xs[j] <= hi:
            prefix[xs[j]] = carry + int(run[xs[j] - lo])
            j += 1
        carry += int(run[-1])
    c = sum(prefix[n // (r * r)] for r in range(1, isqrt(n) + 1))
    return {"B": b, "S": s, "C": c}


def piltz3(n: int) -> int:
    """D_3(n) = #{(x, y, z) : xyz <= n}, counted over x <= y <= z."""
    total = 0
    x = 1
    while x * x * x <= n:
        y = np.arange(x, isqrt(n // x) + 1, dtype=np.int64)
        tail = n // (x * y) - y  # choices z > y
        # x = y: (x, x, x) once, (x, x, z > x) three ways;
        # x < y: (x, y, y) three ways, (x, y, z > y) six ways.
        total += 1 + 3 * int(tail[0])
        total += int(np.sum(3 + 6 * tail[1:]))
        x += 1
    return total


def block_summatory(x: int) -> int:
    """D(x) = sum_{k<=x} floor(x/k), one term per run of equal quotient."""
    total = 0
    k = 1
    while k <= x:
        q = x // k
        k_hi = x // q
        total += q * (k_hi - k + 1)
        k = k_hi + 1
    return total


def mismatch(label: str, got: int, want: int) -> None:
    sys.exit(f"pin cross-check failed: {label}: fast route {want}, independent route {got}")


def main() -> None:
    pins = {"census_big": {}, "hyperbola_big": {}, "sample": {}}
    table = sieve_divisor_counts(max(CENSUS_BIG_N))
    for workload, ns in (("census_big", CENSUS_BIG_N), ("sample", SAMPLE_N)):
        for n in ns:
            fast = census.fast_census(n)
            pin = {"A": fast.a_count, "B": fast.b_count, "C": fast.c_count, "S": fast.s_count}
            for key, value in table_counts(table, n).items():
                if value != pin[key]:
                    mismatch(f"{key}({n})", value, pin[key])
            s3 = piltz3(n)
            if s3 != pin["S"]:
                mismatch(f"S({n}) as D_3", s3, pin["S"])
            pins[workload][str(n)] = pin
            print(f"pinned {workload} N={n}", file=sys.stderr)
    del table
    for n in HYPERBOLA_BIG_N:
        s = census.count_da_over_hyperbola(n)
        c = census.count_gcd_divisor_sum(n)
        s3 = piltz3(n)
        if s3 != s:
            mismatch(f"S({n}) as D_3", s3, s)
        c_blocks = sum(block_summatory(n // (r * r)) for r in range(1, isqrt(n) + 1))
        if c_blocks != c:
            mismatch(f"C({n}) by blocks", c_blocks, c)
        pins["hyperbola_big"][str(n)] = {"A": 2 * s - c, "C": c, "S": s}
        print(f"pinned hyperbola_big N={n}", file=sys.stderr)
    json.dump(pins, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
