"""Exact triple censuses.

For a bound N, over ordered pairs (a, b) with ab <= N and divisors r of ab:

    B(N) = #{(a, b, r) : r | ab}                  = sum_{n<=N} d(n)^2
    A(N) = #{(a, b, r) : r | ab, r|a or r|b}      = 2*S(N) - C(N)
    C(N) = #{(a, b, r) : r | a and r | b}         = sum_{ab<=N} d(gcd(a, b))
    S(N) = sum_{ab<=N} d(a)                       = sum_{b<=N} D(floor(N/b))

The B identity collapses the inner sum over ordered factorizations of n
(there are d(n) of them, each contributing d(n) choices of r).  Summing
d(n)^2 term by term is linear in N, so B is computed from Ramanujan's
(1916) identity instead.  d(n)^2 is multiplicative with
d(p^a)^2 = (a+1)^2, and sum_a (a+1)^2 t^a = (1 - t^2) / (1 - t)^4, so

    sum_n d(n)^2 n^-s = prod_p (1 - p^-2s) / (1 - p^-s)^4 = zeta(s)^4 / zeta(2s).

zeta(s)^4 is the series of d_4(n), the number of ordered 4-factorizations
of n, and 1/zeta(2s) that of mu(k) placed at n = k^2.  Hence d^2 is their
Dirichlet convolution, and summing it up to N gives

    B(N) = sum_{k<=sqrt(N)} mu(k) * D_4(floor(N / k^2)),

with D_4(x) = sum_{m<=x} d_4(m), each found by a hyperbola split over a
table of D (divisor_core has the details).  This costs about N^(2/3).
Below SUBLINEAR_B_CUTOFF the table set-up outweighs the saving, and B is
summed term by term from the d(n) of the table instead.  The A
identity is inclusion-exclusion on "r | a or r | b" plus the a <-> b
symmetry.  The C identity comes from writing a = r*c, b = r*e: the triples
with r dividing both coordinates biject with (r, c, e) such that
r^2 * c * e <= N, so

    C(N) = sum_{r<=sqrt(N)} D(floor(N / r^2)).

S splits at R = isqrt(N): the b > R share the quotients q <= N // (R + 1),
each taken by N // q - N // (q + 1) values of b, so

    S(N) = sum_{b<=R} D(N // b) + sum_{q<=N//(R+1)} (N // q - N // (q + 1)) D(q).

In a census all three read D from one summatory table of size y for
this N (divisor_core).  Below SUBLINEAR_B_CUTOFF, y = N and the table is
a view of one read-only table of D(0..SUBLINEAR_B_CUTOFF - 1), sieved
once per process on the first small census, so a run of small censuses
(verify) sieves once.  From the cutoff on, y is that same shared table
while the size rule's N^(2/3) / 4 is below the cutoff (N up to about
3.7e6), and beyond that each census sieves its own table of about
N^(2/3) / 4 entries.  Every D(q) with q <= y is a lookup.  Every D(q)
above y is D(N // m) for some m <= M = N // (y + 1) (B asks for
m = k^2 u, S for m = b, C for m = r^2).  The table's pass evaluates each
of them once, in float64 blocks, and keeps only three sums:
sum_{m<=M} D(N // m), which is the part of S with b <= M,
sum_{m<=M} 2^omega(m) D(N // m), which holds every term of B with
k^2 u <= M (divisor_core has the weights), and sum_{r^2<=M} D(N // r^2),
the part of C with r^2 <= M.  B, S and C at one N share the pass, which
costs about 2 N / sqrt(y) cells, about 4 N^(2/3) below the table cap.
Below SUBLINEAR_B_CUTOFF, M = 0 and there is no pass.

C alone needs no table: it evaluates every D(N // r^2) in float64
blocks, each distinct quotient once, which takes about sqrt(N) ln(N) / 3
cells and sieves nothing.

The fast counts take 1 <= N < (SUBLINEAR_TABLE_CAP + 1)^2 = 2^48 + 2^25 + 1,
the N whose sqrt(N) the table reaches, and refuse a larger N before any
sieve (check_census_size).  Inside that domain every reduction is exact:
S and C in int64, since every term and partial sum is at most
C(N) <= S(N) = D_3(N) <= N (1 + ln N)^2 < 4e17 < 2^63, B's hyperbola
terms in uint64, grouped by the sign of mu(k) into two sums of
nonnegative terms, each below 2^64, and the pass's sums of integers below
2^53 in float64 (divisor_core).

Every count is also computable by definitional enumeration
(brute_force_census), which is the oracle the fast identities are verified
against; the two routes share no code.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import isqrt
from typing import Iterator, Optional

import numpy as np

from .config import DEFAULT_ORACLE_CEILING, ResourceLimitError
from .divisor_core import (
    SUBLINEAR_TABLE_CAP,
    SummatoryTable,
    divisor_list,
    divisor_square_summatory_sublinear,
    divisor_summatory_batch,
    summatory_table,
    summatory_table_size,
)

# B switches from the term-by-term sum to the sublinear identity at this N.
# Medians of 300 interleaved calls of each route on a 2-vCPU VM cross
# between 5000 and 7000: term by term 125 us against 165 us at N = 2000,
# 188 against 197 at 5000, 211 against 206 at 6000, 249 against 219 at
# 8000.  At N = 1.6e7 the sublinear route takes ~11 ms, the linear ~0.4 s.
SUBLINEAR_B_CUTOFF = 6000


@dataclass(frozen=True)
class CensusResult:
    """All four counts for one N, tagged with how they were computed."""

    N: int
    b_count: int
    a_count: int
    c_count: int
    s_count: int
    method: str  # "brute" or "fast"


@dataclass(frozen=True)
class Counterexample:
    """A triple with r | ab but r dividing neither a nor b."""

    a: int
    b: int
    r: int


def _check_n(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")


# Terms per vectorized step of S and C: a few int64 temporaries, ~10 MiB.
_TERM_CHUNK = 1 << 18


def check_census_size(N: int) -> None:
    """Refuse at once an N outside the fast census's domain.

    B's identity looks up d(u) for every u <= sqrt(N), so the fast counts
    take 1 <= N < (SUBLINEAR_TABLE_CAP + 1)^2, where every reduction is
    exact in machine integers (module docstring).
    """
    _check_n(N)
    if isqrt(N) > SUBLINEAR_TABLE_CAP:
        shown = N if N.bit_length() <= 64 else f"2^{N.bit_length() - 1} or more"
        raise ResourceLimitError(
            f"fast census refused at N={shown}: B needs d(n) up to sqrt(N), above "
            f"the table cap SUBLINEAR_TABLE_CAP = {SUBLINEAR_TABLE_CAP}, so N must be below "
            f"(SUBLINEAR_TABLE_CAP + 1)^2 = {(SUBLINEAR_TABLE_CAP + 1) ** 2}"
        )


@lru_cache(maxsize=1)
def _small_prefix() -> np.ndarray:
    """D(0..SUBLINEAR_B_CUTOFF - 1), read-only: sieved on first use, once per process."""
    return summatory_table(SUBLINEAR_B_CUTOFF - 1, SUBLINEAR_B_CUTOFF - 1).prefix


def census_table(N: int) -> SummatoryTable:
    """The one d(n) and D(m) table behind B, S and C at N.

    Below SUBLINEAR_B_CUTOFF it runs to N itself, where B is its sum of
    d(n)^2, and its prefix is a read-only view of one table of
    D(0..SUBLINEAR_B_CUTOFF - 1) that every such N shares (24 KB, sieved
    on the first small census).  From the cutoff on, while
    summatory_table_size(N) is still below the cutoff (N up to about
    3.7e6), it is that whole shared table, larger than a private one would
    be, with N's own pass above it.  Beyond that it is sieved for this N
    alone, with summatory_table_size(N) entries.
    """
    size = summatory_table_size(N)  # <= N, so every N below the cutoff shares the table
    if size >= SUBLINEAR_B_CUTOFF:
        return summatory_table(size, N)
    n_max = min(N, SUBLINEAR_B_CUTOFF - 1)
    return SummatoryTable(N=N, n_max=n_max, prefix=_small_prefix()[: n_max + 1])


def _table_for(N: int, table: Optional[SummatoryTable]) -> SummatoryTable:
    """census_table(N) when no table is given, else the given one, if it was built for N."""
    if table is None:
        return census_table(N)
    if table.N != N:
        raise ValueError(f"table built for N={table.N}, not for N={N}")
    return table


def _ranges(start: int, stop: int) -> Iterator[np.ndarray]:
    """start..stop as int64 arrays of at most _TERM_CHUNK values."""
    for lo in range(start, stop + 1, _TERM_CHUNK):
        yield np.arange(lo, min(lo + _TERM_CHUNK, stop + 1), dtype=np.int64)


def count_all_triples(N: int, table: Optional[SummatoryTable] = None) -> int:
    """B(N) = sum_{n<=N} d(n)^2.

    Term by term below SUBLINEAR_B_CUTOFF, when the table reaches N;
    otherwise by the sublinear identity.
    """
    check_census_size(N)
    if N < SUBLINEAR_B_CUTOFF:
        table = _table_for(N, table)
        if table.n_max >= N:
            d = table.counts(N)
            return int(np.dot(d, d))
    return divisor_square_summatory_sublinear(N, table)


def count_gcd_divisor_sum(N: int, table: Optional[SummatoryTable] = None) -> int:
    """C(N) = sum_{ab<=N} d(gcd(a,b)) = sum_{r<=sqrt(N)} D(floor(N/r^2)).

    Without a table nothing is sieved: every D(N // r^2) comes from
    divisor_summatory_batch, _TERM_CHUNK values of r at a time.  Past
    r ~ N^(1/3) runs of r share one quotient, which is evaluated once:
    about 2 N^(1/3) rows, sqrt(N) (ln(N) + 4) / 3 cells in all.  With a
    table, the r^2 <= M are the squares sum of its pass and the rest are
    lookups.
    """
    check_census_size(N)
    if table is None:
        total = 0
        for r in _ranges(1, isqrt(N)):
            x = N // (r * r)
            starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
            runs = np.diff(starts, append=x.size)
            total += int(np.dot(divisor_summatory_batch(x[starts]), runs))
        return total
    table = _table_for(N, table)
    total = table.pass_sums[2]  # the r^2 <= M
    for r in _ranges(isqrt(table.M) + 1, isqrt(N)):
        total += int(table.summatory(N // (r * r)).sum())
    return total


def count_da_over_hyperbola(N: int, table: Optional[SummatoryTable] = None) -> int:
    """S(N) = sum_{ab<=N} d(a) = sum_{b<=N} D(floor(N/b)).

    With R = isqrt(N), the b > R take each quotient q <= N // (R + 1) for
    N // q - N // (q + 1) values of b, so

        S(N) = sum_{b<=R} D(N // b) + sum_{q<=N//(R+1)} (N // q - N // (q + 1)) D(q).

    The b <= M, whose D(N // b) lie above the table, are the plain sum of
    the table's pass; every other D is a lookup, since M <= R <= y.
    """
    check_census_size(N)
    table = _table_for(N, table)
    root = isqrt(N)
    total = table.pass_sums[0]  # the b <= M
    for b in _ranges(table.M + 1, root):
        total += int(table.summatory(N // b).sum())
    for q in _ranges(1, N // (root + 1)):
        total += int(np.dot(N // q - N // (q + 1), table.summatory(q)))
    return total


def count_good_triples(N: int) -> int:
    """A(N) = 2*S(N) - C(N), exactly."""
    check_census_size(N)
    table = census_table(N)
    return 2 * count_da_over_hyperbola(N, table) - count_gcd_divisor_sum(N, table)


def fast_census(N: int) -> CensusResult:
    """All four counts by the identity-based routes, from one sieved table."""
    check_census_size(N)
    table = census_table(N)
    b = count_all_triples(N, table)
    s = count_da_over_hyperbola(N, table)
    c = count_gcd_divisor_sum(N, table)
    return CensusResult(N=N, b_count=b, a_count=2 * s - c, c_count=c, s_count=s, method="fast")


# ---------------------------------------------------------------------------
# Definitional oracle
# ---------------------------------------------------------------------------

def _divisor_lists(n_max: int) -> list[list[int]]:
    """divisor list (ascending) for every n <= n_max, by marking multiples."""
    lists: list[list[int]] = [[] for _ in range(n_max + 1)]
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1, k):
            lists[m].append(k)
    return lists


def brute_force_census_range(
    max_n: int,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> Iterator[CensusResult]:
    """Yield the definitional CensusResult for every N in 1..max_n.

    Counts are accumulated pair by pair: raising N by one admits exactly the
    ordered pairs with a*b = N, so each product n is enumerated once.  Every
    divisibility condition is tested literally with remainders; no census
    identity is consulted anywhere.
    """
    _check_n(max_n)
    if max_n > oracle_ceiling:
        raise ResourceLimitError(
            f"brute-force census refused at N={max_n} (ceiling {oracle_ceiling}); "
            f"use the fast path or raise DIVCENSUS_ORACLE_CEILING"
        )
    lists = _divisor_lists(max_n)
    a_total = b_total = c_total = s_total = 0
    for n in range(1, max_n + 1):
        divs = lists[n]
        for a in divs:
            b = n // a
            s_total += len(lists[a])
            for r in divs:
                b_total += 1
                in_a = a % r == 0
                in_b = b % r == 0
                if in_a or in_b:
                    a_total += 1
                if in_a and in_b:
                    c_total += 1
        yield CensusResult(
            N=n,
            b_count=b_total,
            a_count=a_total,
            c_count=c_total,
            s_count=s_total,
            method="brute",
        )


def brute_force_census(N: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING) -> CensusResult:
    """Definitional enumeration of all triples for a single N."""
    result = None
    for result in brute_force_census_range(N, oracle_ceiling=oracle_ceiling):
        pass
    return result


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

def iter_counterexamples(N: int) -> Iterator[Counterexample]:
    """All triples with r | ab, ab <= N, r dividing neither a nor b.

    Emitted in lexicographic (a*b, a, r) order, which the product-first
    enumeration produces for free.  N < 1 raises ValueError at the call,
    before any triple is asked for.
    """
    _check_n(N)
    return _counterexamples(N)


def _counterexamples(N: int) -> Iterator[Counterexample]:
    for n in range(1, N + 1):
        divs = divisor_list(n)
        for a in divs:
            b = n // a
            for r in divs:
                if a % r != 0 and b % r != 0:
                    yield Counterexample(a=a, b=b, r=r)


def list_counterexamples(N: int, limit: Optional[int] = None) -> list[Counterexample]:
    """The first `limit` counterexamples (all of them when limit is None)."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    return list(islice(iter_counterexamples(N), limit))
