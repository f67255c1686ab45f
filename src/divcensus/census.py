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

with D_4(x) = sum_{m<=x} d_4(m), the count of 4-tuples with product at
most x.  The hyperbola split gives

    D_4(x) = 2 * sum_{u<=sqrt(x)} d(u) * D(floor(x/u))  -  D(floor(sqrt(x)))^2,

and grouping the k by the sign of mu(k), with x_k = N // k^2,

    B(N) = 2 (P+ - P-)  -  sum_k mu(k) * D(isqrt(N) // k)^2,

where P+ and P- sum d(u) * D(x_k // u) over the pairs (k, u),
u <= sqrt(x_k), with mu(k) = +1 and mu(k) = -1.  This costs about
N^(2/3) sieve work plus sqrt(N) ln(N) lookups in a table of D, against
the N ln N of summing d(n)^2 term by term.  divisor_core keeps the
term-by-term sums, in memory and segmented, as independent cross-checks.

The sweep (fast_census_blocks), which counts every N up to max_n, uses
none of these identities.  Raising N by one admits the triples with
ab = N, so B, S and C grow by

    d(N)^2,    d_3(N) = sum_{k | N} d(k),    c(N) = sum_{r^2 | N} d(N / r^2),

and the sweep takes running sums of d(n)^2 and of d_3(n) and c(n) sieved
from one d(n) table (divisor_core.sieve_d3_and_c, which also gives the
sampler its success counts s(n) = 2 d_3(n) - c(n)): no D(x) and no table
of D.

The A identity is inclusion-exclusion on "r | a or r | b" plus the
a <-> b symmetry.  The C identity comes from writing a = r*c, b = r*e:
the triples with r dividing both coordinates biject with (r, c, e) such
that r^2 * c * e <= N, so

    C(N) = sum_{r<=sqrt(N)} D(floor(N / r^2)).

S splits at R = isqrt(N): the b > R share the quotients q <= N // (R + 1),
each taken by N // q - N // (q + 1) values of b, so

    S(N) = sum_{b<=R} D(N // b) + sum_{q<=N//(R+1)} (N // q - N // (q + 1)) D(q).

Summatory table and the pass above it
-------------------------------------
At every N, a census's B, S and C read D from one table, census_table(N):
divisor_core's prefix sums D(0..y), y = summatory_table_size(N), about
N^(2/3) / 4 and at least sqrt(N), sieved for this N alone; nothing is
kept between censuses.  Every D they ask for above y is D(N // m) with
m <= M = N // (y + 1) <= sqrt(N), because (N // a) // b = N // (ab): B
asks for m = k^2 u, S for m = b, C for m = r^2.  So a D(q) with q <= y is
a plain lookup, and the D above the table are taken in one streaming pass
over m <= M (pass_sums), which refuses a table shorter than sqrt(N).  The
pass evaluates each D(N // m) once, in float64 blocks of _PASS_ROWS
values of m, and reduces it into three sums:

    sum_{m<=M} D(N // m)              the part of S with b <= M,
    sum_{m<=M} w(m) D(N // m)         the part of B with k^2 u <= M,
    sum_{r^2<=M} D(N // r^2)          the part of C with r^2 <= M.

The second sum is B's hyperbola terms mu(k) d(u) D(N // (k^2 u)) with
k^2 u <= M, grouped by m = k^2 u, so w(m) = sum_{k^2 u = m} mu(k) d(u)
(_weights).  Each such pair has u <= m / k^2 <= sqrt(N) / k, inside the
hyperbola sum, because M <= sqrt(N).  w(m) is the coefficient of
zeta(s)^2 / zeta(2s), 2^omega(m) with omega(m) the number of distinct
primes of m, so 0 < w(m) <= d(m), and the terms sum_{m<=M} w(m) D(N // m)
are at most N (1 + ln N) sum_{m<=sqrt(N)} d(m) / m <=
N (1 + ln N) (1 + ln sqrt(N))^2 < 2^62 on the census domain, so each
block reduces in int64, as do the other two, partial sums of S and C
(bound below).  fast_census takes the pass once and hands each sum to
its count's stage: B walks only its pairs with k^2 u > M, whose
D(N // (k^2 u)) <= y are lookups, so the pairs left to the pass only
shrink P+ and P- (_b_walk); S and C look up their D(N // m) with m > M
(_s_lookups, _c_lookups).

The sieve costs c_s y and the pass sum_{m<=M} sqrt(N / m) ~ 2 N / sqrt(y)
cells of c_p each, least in sum at y = (c_p N / c_s)^(2/3).  When the
rule was fitted, on one core of a 2-vCPU VM, a sieve entry cost 16-20 ns
while the table fit in cache and a pass cell 1.4-3 ns, so
(c_p / c_s)^(2/3) came to about 0.27, and the one size rule,
summatory_table_size(N), is y = N^(2/3) / 4, at least sqrt(N) and at
most SUBLINEAR_TABLE_CAP.  Below the cap both parts cost about N^(2/3):
the sieve N^(2/3) / 4 entries and the pass 4 N^(2/3) cells.  The cap
binds from N = 2^39, about 5.5e11.  The small ufunc buffer and the
einsum row sums of divisor_core's batched D have since cut a pass cell
to about 0.6 of its former cost at N = 1e10 and to 0.7-0.9 at 1e12 and
1e13 (medians of alternating in-process runs by scripts/bench.py, in
several spells of the host, whose speed moved the absolute figures by up
to half: 0.8-1.5 ns a cell at 1e13), and the blocked sieve cut a table
entry to 24-34 ns at 2^24 (divisor_core).  summatory_table_size is left
unchanged until scripts/bench.py shows that a re-fit gains.

C alone needs no table: it evaluates every D(N // r^2) in float64
blocks, each distinct quotient once, which takes about sqrt(N) ln(N) / 3
cells and sieves nothing.

S alone needs none either.  S(N) = D_3(N) = #{(a, b, c) : abc <= N}, and
with A = icbrt(N) every such triple has a coordinate at most A, since
(A + 1)^3 > N.  Inclusion-exclusion over the three coordinates then gives

    S(N) = 3 sum_{a<=A} D(N // a) - 3 sum_{a,b<=A} (N // a) // b + A^3,

as the triples with a, b <= A take c <= (N // a) // b and those with all
three at most A number A^3 <= N.  Both sums are divisor_core's one
kernel, quotient_sums, over the A nonincreasing x = N // a.  The first
is the batched D, 2 quotient_sums(x) - isqrt(x)^2, sum_{a<=A} sqrt(N / a)
~ 2 N^(2/3) cells; the second is quotient_sums(x, A), A^2 ~ N^(2/3)
cells, as A <= isqrt(N // A) <= isqrt(N // a) for every a <= A (from
A^3 <= N, A^2 <= N // A), so every row is exactly A wide.  Both are
exact on the census domain (divisor_core: x <= N <= SUMMATORY_BATCH_MAX_X),
and each reduces in int64, as the first is at most S(N) and the second
at most N (1 + ln A)^2.  Its memory is the A quotients and one
BatchWorkspace that both sums share, and it shares nothing with the
census table or the pass.  fast_census keeps its table S, whose lookups
cost little beside the pass it takes anyway.

The fast counts take 1 <= N < (SUBLINEAR_TABLE_CAP + 1)^2 = 2^48 + 2^25 + 1,
the N whose sqrt(N) the table reaches, and refuse a larger N before any
sieve (check_census_size).  Inside that domain every reduction is exact:
S and C in int64, since every term and partial sum is at most
C(N) <= S(N) = D_3(N) <= N (1 + ln N)^2 < 4e17 < 2^63, and the pass's
sums of integers below 2^53 in float64 (divisor_core).  The terms of P+
and P- are nonnegative, so each is reduced in uint64, a step of pairs at
a time, into a Python int.  The sum over u of one x is at most D_4(x), as
it is at least D(floor(sqrt(x)))^2, and D_k(x) <= x (1 + ln x)^(k-1)
(induct on D_k(x) = sum_{m<=x} D_{k-1}(x/m) with
sum_{m<=x} 1/m <= 1 + ln x).  The smallest k > 1 with mu(k) = 1 is 6,
and sum_{k>=6} 1/k^2 < 1/5, so P+ <= (6/5) N (1 + ln N)^3, and
P- <= (zeta(2) - 1) N (1 + ln N)^3: both below 1.5e19 < 2^64 on the
domain.  The corner term is one int64 dot whose terms add up to at most
zeta(2) N (1 + ln N)^2 < 2^63 in absolute value.

Every count is also computable by definitional enumeration
(brute_force_census), which is the oracle the fast identities are verified
against: it tests r | a and r | b on every triple, by a remainder taken
once on each pair of divisors of each n, numpy blocks of consecutive n at
a time, and shares nothing with the fast routes but numpy and
CensusResult.
"""

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .config import DEFAULT_ORACLE_CEILING, ResourceLimitError
from .divisor_core import (
    SUBLINEAR_TABLE_CAP,
    BatchWorkspace,
    _mobius_table,
    divisor_list,
    divisor_summatory_batch,
    quotient_sums,
    sieve_d3_and_c,
    sieve_divisor_counts,
    summatory_table,
    summatory_table_size,
)

@dataclass(frozen=True, slots=True)
class CensusResult:
    """All four counts for one N, tagged with how they were computed."""

    N: int
    b_count: int
    a_count: int
    c_count: int
    s_count: int
    method: str  # "brute" or "fast"


@dataclass(frozen=True, slots=True)
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

# Values m per step of the pass over m <= M.
_PASS_ROWS = 1 << 14

# (k, u) pairs per vectorized step of B's walk, a long run of one k split
# across steps: about ten 2 MiB temporaries, 22 MiB traced at N = 10^11.
_PAIR_CHUNK = 1 << 18


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


def census_table(N: int) -> np.ndarray:
    """D(0..y) as read-only int32, y = summatory_table_size(N), sieved for this N alone.

    y is about N^(2/3) / 4 and at least sqrt(N); the D(N // m),
    m <= M = N // (y + 1), above it are pass_sums's.
    """
    return summatory_table(summatory_table_size(N))


def _ranges(start: int, stop: int) -> Iterator[np.ndarray]:
    """start..stop as int64 arrays of at most _TERM_CHUNK values."""
    for lo in range(start, stop + 1, _TERM_CHUNK):
        yield np.arange(lo, min(lo + _TERM_CHUNK, stop + 1), dtype=np.int64)


def _weights(prefix: np.ndarray, M: int) -> np.ndarray:
    """w(m) = sum_{k^2 u = m} mu(k) d(u) for 0 <= m <= M, M >= 1, in prefix's dtype, w(0) = 0.

    Starts from d(1..M), the differences of the prefix sums D(0..M), and
    adds mu(k) d(1..M // k^2) at the multiples of k^2 for each squarefree
    2 <= k <= sqrt(M), with mu from one sieve to sqrt(M).  Each entry is a
    partial sum of its terms, at most sum_{k^2 | m} d(m / k^2) <= d(m)^2 <
    2^31 in absolute value, and ends as w(m) = 2^omega(m), omega(m) the
    number of distinct primes of m: 1 <= w(m) <= 2^8 for
    m <= SUBLINEAR_TABLE_CAP, whose m have at most 8 distinct primes.  The
    int64 bound of the pass's weighted sum rests on 0 < w(m) <= d(m)
    (module docstring).
    """
    d = np.diff(prefix[: M + 1])  # d(1..M)
    weights = np.insert(d, 0, 0)
    mu = _mobius_table(isqrt(M))
    for k in np.flatnonzero(mu)[1:].tolist():  # the squarefree k >= 2
        multiples = weights[k * k :: k * k]
        if mu[k] > 0:
            multiples += d[: multiples.size]
        else:
            multiples -= d[: multiples.size]
    return weights


def pass_sums(N: int, prefix: np.ndarray) -> tuple[int, int, int]:
    """(plain, weighted, squares) over the D(N // m) above the table prefix = D(0..y).

    With M = N // (y + 1): plain = sum_{m<=M} D(N // m) is S's part with
    b <= M, weighted = sum_{m<=M} w(m) D(N // m), w from _weights, is B's
    part with k^2 u <= M, and squares = sum_{r^2<=M} D(N // r^2) is C's
    part with r^2 <= M.  It is a plain tuple because every census takes
    one, and a named tuple takes ten times as long to make.  Each D(N // m)
    is evaluated once, _PASS_ROWS values of m at a time, and dropped after
    the three sums take it (module docstring).  M = 0 costs nothing.  A
    table shorter than sqrt(N) is refused: B reads d(u) from it for every
    u <= sqrt(N).
    """
    if prefix.size <= isqrt(N):
        raise ValueError(f"summatory table size {prefix.size - 1} is below sqrt(N) = {isqrt(N)}")
    plain = weighted = squares = 0
    M = N // prefix.size
    if M:
        weights = _weights(prefix, M)
        workspace = BatchWorkspace(N, min(M, _PASS_ROWS))  # the widest row is N // 1
        for lo in range(1, M + 1, _PASS_ROWS):
            m = np.arange(lo, min(lo + _PASS_ROWS, M + 1), dtype=np.int64)
            d = divisor_summatory_batch(N // m, workspace)
            plain += int(d.sum())
            weighted += int(np.dot(weights[lo : lo + d.size].astype(np.int64), d))
            r = np.arange(isqrt(lo - 1) + 1, isqrt(int(m[-1])) + 1, dtype=np.int64)
            squares += int(d[r * r - lo].sum())
    return plain, weighted, squares


def _b_walk(N: int, prefix: np.ndarray, weighted: int) -> int:
    """B(N) from the pass's weighted sum and a walk of the pairs with k^2 u > M over prefix.

    By the hyperbola identity of the module docstring,
    B = 2 (P+ - P-) - corners.  With a table that reaches N, M = 0 and the
    walk takes every pair.
    """
    root = isqrt(N)
    M = N // prefix.size
    mu = _mobius_table(root)
    ks = np.flatnonzero(mu)
    runs = root // ks  # isqrt(N // k^2) = isqrt(N) // k
    corner = prefix[runs].astype(np.int64)  # D(isqrt(N // k^2))
    corners = int(np.dot(mu[ks] * corner, corner))
    del corner
    # The pairs with u <= M // k^2 are in the pass's weighted sum.  The walk
    # takes the rest, u = M // k^2 + 1..isqrt(N) // k, whose quotients
    # N // (k^2 u) < prefix.size are lookups.  Only the k <= sqrt(M) lose
    # pairs, and only k = 1 can lose its whole run (when M = isqrt(N)):
    # for k >= 2, M <= isqrt(N) gives isqrt(N) // k >= k (M // k^2).
    few = int(np.searchsorted(ks, isqrt(M), side="right"))
    runs[:few] -= M // (ks[:few] * ks[:few])
    first = int(runs[0] == 0)
    ks, runs = ks[first:], runs[first:]
    ends = np.cumsum(runs)
    n_pairs = int(ends[-1]) if ends.size else 0
    # The (k, u) pairs are laid out k by k, each k a run, and taken
    # _PAIR_CHUNK at a time, so a long run (k = 1 has about sqrt(N)
    # pairs) spans several steps.  Runs i..j-1 meet the step's pairs
    # [lo, hi), none of them empty.
    positive = negative = 0
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, n_pairs)
        i = int(np.searchsorted(ends, lo, side="right"))
        j = int(np.searchsorted(ends, hi, side="left")) + 1
        k, begin = ks[i:j], ends[i:j] - runs[i:j]
        run = np.minimum(ends[i:j], hi) - np.maximum(begin, lo)
        skip = M // (k * k)
        u = np.arange(lo + 1, hi + 1, dtype=np.int64) - np.repeat(begin - skip, run)
        d_sum = prefix[np.repeat(N // (k * k), run) // u]
        d_u = prefix[u] - prefix[u - 1]
        terms = d_u.astype(np.uint64) * d_sum.astype(np.uint64)
        by_k = np.add.reduceat(terms, np.cumsum(run) - run)
        plus = mu[k] > 0
        positive += int(by_k[plus].sum())
        negative += int(by_k[~plus].sum())
    return 2 * (weighted + positive - negative) - corners


def _s_lookups(N: int, prefix: np.ndarray, plain: int) -> int:
    """S(N) from the pass's plain sum, the b <= M, and lookups in prefix for the rest.

    With R = isqrt(N), the b > R take each quotient q <= N // (R + 1) for
    N // q - N // (q + 1) values of b, so

        S(N) = sum_{b<=R} D(N // b) + sum_{q<=N//(R+1)} (N // q - N // (q + 1)) D(q).

    Every D but the pass's is a lookup, since M <= R <= y.  numpy sums the
    int32 lookups in int64.
    """
    root = isqrt(N)
    total = plain
    for b in _ranges(N // prefix.size + 1, root):
        total += int(prefix[N // b].sum())
    for q in _ranges(1, N // (root + 1)):
        total += int(np.dot(N // q - N // (q + 1), prefix[q]))
    return total


def _c_lookups(N: int, prefix: np.ndarray, squares: int) -> int:
    """C(N) from the pass's squares sum, the r^2 <= M, and lookups in prefix for the rest."""
    total = squares
    for r in _ranges(isqrt(N // prefix.size) + 1, isqrt(N)):
        total += int(prefix[N // (r * r)].sum())
    return total


def count_all_triples(N: int) -> int:
    """B(N) = sum_{n<=N} d(n)^2, by the pass and walk of fast_census."""
    check_census_size(N)
    prefix = census_table(N)
    return _b_walk(N, prefix, pass_sums(N, prefix)[1])


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for 0 <= n < 2^64: the float root, then stepped to the exact one."""
    a = round(n ** (1 / 3))
    while a**3 > n:
        a -= 1
    while (a + 1) ** 3 <= n:
        a += 1
    return a


def count_da_over_hyperbola(N: int) -> int:
    """S(N) = sum_{ab<=N} d(a) = D_3(N), by the cube-root split, sieving nothing.

    With A = icbrt(N), S(N) = 3 sum_{a<=A} D(N // a) - 3 sum_{a,b<=A}
    (N // a) // b + A^3 (module docstring): one divisor_summatory_batch
    over the x = N // a, about 2 N^(2/3) cells, and quotient_sums over the
    same x at cap A, about N^(2/3) cells, both in one BatchWorkspace.  Both
    reduce in int64, as the first sum is at most S(N) < 2^63 and the
    second at most N (1 + ln A)^2.  fast_census takes S from its table
    instead (_s_lookups).
    """
    check_census_size(N)
    A = _icbrt(N)
    x = N // np.arange(1, A + 1, dtype=np.int64)
    workspace = BatchWorkspace(N, A)
    singles = int(divisor_summatory_batch(x, workspace).sum())
    pairs = int(quotient_sums(x, A, workspace).sum())
    return 3 * (singles - pairs) + A**3


def count_gcd_divisor_sum(N: int) -> int:
    """C(N) = sum_{ab<=N} d(gcd(a,b)) = sum_{r<=sqrt(N)} D(floor(N/r^2)), sieving nothing.

    Every D(N // r^2) comes from divisor_summatory_batch, _TERM_CHUNK
    values of r at a time.  Past r ~ N^(1/3) runs of r share one quotient,
    which is evaluated once: about 2 N^(1/3) rows, sqrt(N) (ln(N) + 4) / 3
    cells in all.  fast_census takes C from its table instead (_c_lookups):
    0.03 ms against 0.34 ms here at N = 1.6e7 (best of 5 in-process
    runs, one core of a 2-vCPU VM).
    """
    check_census_size(N)
    total = 0
    for r in _ranges(1, isqrt(N)):
        x = N // (r * r)
        starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        runs = np.diff(starts, append=x.size)
        total += int(np.dot(divisor_summatory_batch(x[starts]), runs))
    return total


def fast_census(N: int) -> CensusResult:
    """All four counts by the identity-based routes, over census_table(N) and one pass.

    The pass runs before B's walk sieves mu to sqrt(N), so that their
    temporaries never meet.
    """
    check_census_size(N)
    prefix = census_table(N)
    plain, weighted, squares = pass_sums(N, prefix)
    b = _b_walk(N, prefix, weighted)
    s = _s_lookups(N, prefix, plain)
    c = _c_lookups(N, prefix, squares)
    return CensusResult(N=N, b_count=b, a_count=2 * s - c, c_count=c, s_count=s, method="fast")


# N per step of the sweep, the width of the oracle's steps, which verify
# zips with them.
_SWEEP_BLOCK = 64

# N per sieve block of the sweep, rounded down to whole steps (at least
# one).  A block holds d_3 and c as int32 and its counts as int64, 48
# bytes an N at most, 12 MiB here.
_SWEEP_SIEVE_ROWS = 1 << 18


def fast_census_blocks(max_n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, counts) for each step of the fast sweep of 1..max_n, lazily.

    counts is int64 of shape (width, 4), row i holding B, A, C and S at
    N = lo + i, the layout of brute_force_census_blocks.  Raising N by one
    adds d(N)^2 to B, d_3(N) to S and c(N) to C, with d_3(n) =
    sum_{k | n} d(k) and c(n) = sum_{r^2 | n} d(n / r^2), so every count
    is a running sum, and A(N) = 2 S(N) - C(N).  The sweep sieves d(0..max_n)
    once as int32, then d_3 and c over blocks of _SWEEP_SIEVE_ROWS N
    (divisor_core.sieve_d3_and_c) and takes their running sums: no D(x)
    and no hyperbola identity, so it is a route to B, S and C independent
    of fast_census.  Each step is a copy, the caller's to keep or change.

    Every max_n up to SUBLINEAR_TABLE_CAP = 2^24 is exact: d(n), d_3(n)
    and c(n) are int32, as c(n) <= d_3(n) <= d(n)^2 < 4n <= 2^26, and the
    int64 running sums are at most B(max_n) <= max_n (1 + ln max_n)^3 < 2^37,
    as d_3(n) <= d(n)^2.
    Memory is the d(n) table, 4 bytes an N, and one block.  max_n < 1
    raises ValueError and max_n above the cap ResourceLimitError at the
    call, before anything is allocated.
    """
    _check_n(max_n)
    if max_n > SUBLINEAR_TABLE_CAP:
        raise ResourceLimitError(
            f"fast census sweep refused at max_n={max_n}: it sieves d(n) to max_n, "
            f"above the table cap SUBLINEAR_TABLE_CAP = {SUBLINEAR_TABLE_CAP}"
        )
    return _fast_census_blocks(max_n)


def _fast_census_blocks(max_n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The fast sweep's (lo, counts) steps over 1..max_n, over one sieve of d to max_n."""
    d = sieve_divisor_counts(max_n).counts
    rows = _SWEEP_BLOCK * max(1, _SWEEP_SIEVE_ROWS // _SWEEP_BLOCK)
    totals = np.zeros(4, dtype=np.int64)  # B, A, C and S at lo - 1
    for lo in range(1, max_n + 1, rows):
        hi = min(lo + rows, max_n + 1)
        d3, c = sieve_d3_and_c(d, lo, hi)
        counts = np.empty((hi - lo, 4), dtype=np.int64)
        counts[:, 0] = d[lo:hi]
        counts[:, 0] *= counts[:, 0]
        counts[:, 1] = 2 * d3 - c
        counts[:, 2] = c
        counts[:, 3] = d3
        del d3, c
        np.cumsum(counts, axis=0, out=counts)
        counts += totals
        totals = counts[-1].copy()
        for step in range(0, hi - lo, _SWEEP_BLOCK):  # copies: a step is the caller's
            yield lo + step, counts[step : step + _SWEEP_BLOCK].copy()
        del counts  # before the next block's


# ---------------------------------------------------------------------------
# Definitional oracle
# ---------------------------------------------------------------------------

# The oracle lays out every divisor of every n <= max_n by marking multiples,
# then takes the n in blocks of whole steps and, within a block, in classes
# of equal d(n).  For a class of c numbers with t divisors each it gathers
# their divisors as a (c, t) matrix, ascending, and takes a % r once for
# every pair (a, r) of divisors of one n: that says whether r | a, and, read
# with the rows mirrored, whether r | b, since b = n // a is the mirrored
# divisor.  The mirror is checked on every row, at the cost of one division
# per divisor, so every test stays a literal remainder.  S adds d(a), the
# length of a's own divisor list, per pair (n, a).  No census identity and
# nothing of divisor_core or the sampler is used; numpy and CensusResult are
# all it shares with the fast routes.  The layout keeps 4 bytes per divisor
# entry, against about 19 for the lists of Python ints it replaces (1.8 MB
# at 10^4); sorting it by n takes about 20 bytes an entry for a moment,
# 1.8 MiB traced at 10^4, the oracle's peak there.  The layout's arrays are
# int32 while it has fewer than 2^31 entries (max_n up to about 10^8) and
# int64 beyond; a block's matrices hold divisors and layout offsets in the
# same dtype, and its tallies, at most d(n)^2 per n, go straight to int64.
# The running totals are int64: each is at most B(N) <= D_4(N) <=
# N (1 + ln N)^3, as d(n)^2 <= d_4(n) (module docstring), below 2^63 for
# N <= 10^14, far past any DIVCENSUS_ORACLE_CEILING whose layout fits in
# memory.

# n per step of the oracle, the width of the sweep's steps, which verify
# zips with them.
_ORACLE_BLOCK = 64

# Triples per block of the oracle: a block takes whole steps while their
# triples, sum d(n)^2, stay within it, and at least one step, though a step
# holds far fewer (about 1.2 * 10^4 triples near 10^4, 5 * 10^4 near 10^7).
# A class's remainders and masks take about 6 bytes a triple, so a block
# adds at most about 6 MiB to the layout.  At 10^4 (1.5 * 10^6 triples, two
# blocks) its largest class peaks at 0.9 MiB, below the layout's sort.
_ORACLE_BLOCK_TRIPLES = 1 << 20


def brute_force_census_blocks(
    max_n: int,
    oracle_ceiling: int = DEFAULT_ORACLE_CEILING,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, counts) for each step of the oracle over 1..max_n.

    counts is int64 of shape (width, 4), row i holding B, A, C and S at
    N = lo + i.  Raising N by one admits exactly the triples (a, b, r)
    with ab = N, so each step counts, for each of its n, the triples with
    a | n, b = n // a and r | n: B all of them, A those with r | a or
    r | b, C those with both, and S the sum of d(a) over the divisors a
    of n.  Each test is a remainder taken on a pair of divisors of n: r | a
    on (a, r), and r | b on (b, r), read from the pair of the mirrored
    divisor b = n // a, which is checked.  The N's counts are running
    totals of these.  Each step is a copy, the caller's to keep or change.
    A max_n below 1 or above oracle_ceiling is refused at the first step
    asked for, before anything is allocated.
    """
    _check_n(max_n)
    if max_n > oracle_ceiling:
        raise ResourceLimitError(
            f"brute-force census refused at N={max_n} (ceiling {oracle_ceiling}); "
            f"use the fast path or raise DIVCENSUS_ORACLE_CEILING"
        )
    # The pairs (k, m = jk), k = 1..max_n and j = 1..max_n // k, laid out k
    # by k; a stable sort by m lists each m's divisors k ascending.
    k = np.arange(1, max_n + 1, dtype=np.int64)
    n_pairs = int((max_n // k).sum())
    dtype = np.int32 if n_pairs < 2**31 else np.int64
    k = k.astype(dtype)
    counts = max_n // k
    ends = np.cumsum(counts, dtype=dtype)
    k = np.repeat(k, counts)
    j = np.arange(1, n_pairs + 1, dtype=dtype) - np.repeat(ends - counts, counts)
    m = k * j
    del counts, ends, j
    divisors = k[np.argsort(m, kind="stable")]
    del k
    d = np.bincount(m, minlength=max_n + 1).astype(dtype)  # d(0..max_n), d(0) = 0
    del m
    first = np.zeros(max_n + 2, dtype=dtype)  # n's divisors are divisors[first[n]:first[n + 1]]
    np.cumsum(d, out=first[1:])
    # Blocks of whole steps, at most _ORACLE_BLOCK_TRIPLES triples unless one
    # step; triples[i] counts the triples of the n below edges[i].
    edges = np.append(np.arange(1, max_n + 1, _ORACLE_BLOCK), max_n + 1)
    triples = np.cumsum(np.square(d, dtype=np.int64))[edges - 1]
    totals = np.zeros(4, dtype=np.int64)
    i = 0
    while i < edges.size - 1:
        top = int(np.searchsorted(triples, triples[i] + _ORACLE_BLOCK_TRIPLES, side="right")) - 1
        j = max(i + 1, top)
        lo, hi = int(edges[i]), int(edges[j])
        i = j
        # The n of the block grouped by d(n), one class of equal d(n) at a time.
        size = d[lo:hi]
        order = np.argsort(size, kind="stable")
        cuts = np.flatnonzero(np.diff(size[order])) + 1
        counts = np.empty((hi - lo, 4), dtype=np.int64)
        for rows in np.split(order, cuts):
            n = (rows + lo).astype(dtype)
            t = int(size[rows[0]])
            divs = divisors[first[n][:, None] + np.arange(t, dtype=dtype)]  # (c, t), ascending
            counts[rows, 1:3] = _class_tallies(n, divs)
        counts[:, 0] = size
        counts[:, 0] *= counts[:, 0]  # B
        a = divisors[first[lo] : first[hi]]
        counts[:, 3] = np.add.reduceat(d[a], first[lo:hi] - first[lo])  # S: every n has a divisor
        np.cumsum(counts, axis=0, out=counts)
        counts += totals
        totals = counts[-1].copy()
        for step in range(0, hi - lo, _ORACLE_BLOCK):  # copies: a step is the caller's
            yield lo + step, counts[step : step + _ORACLE_BLOCK].copy()
        del counts  # before the next block's


def _class_tallies(n: np.ndarray, divs: np.ndarray) -> np.ndarray:
    """A and C of each n of one class, as an int64 array of shape (c, 2).

    Row i of divs lists the t divisors of n[i] ascending.  rel[i, x, y]
    is divs[i, x] % divs[i, y] == 0, one literal remainder for each pair
    (a, r) of divisors of n[i], so it says whether r | a.  b = n // a is
    the mirrored divisor divs[i, t - 1 - x], so rel[:, ::-1, :] says
    whether r | b.  The mirror is checked on every row, and a row that
    breaks it raises RuntimeError.  A counts the pairs with r | a or
    r | b, C those with both.
    """
    # count_nonzero, not array_equal: its full .all() reduction took a
    # 64 KiB buffer that showed in verify's peak RSS.
    if np.count_nonzero(n[:, None] // divs != divs[:, ::-1]):
        raise RuntimeError("oracle layout broken: n // a is not the mirrored divisor of a")
    rel = divs[:, :, None] % divs[:, None, :] == 0
    in_b = rel[:, ::-1, :]
    flat = (n.size, -1)
    tallies = np.empty((n.size, 2), dtype=np.int64)
    tallies[:, 0] = np.count_nonzero((rel | in_b).reshape(flat), axis=1)
    tallies[:, 1] = np.count_nonzero((rel & in_b).reshape(flat), axis=1)
    return tallies


def brute_force_census(N: int, oracle_ceiling: int = DEFAULT_ORACLE_CEILING) -> CensusResult:
    """Definitional enumeration of all triples for a single N: the oracle's last row."""
    for _, counts in brute_force_census_blocks(N, oracle_ceiling):
        pass
    return CensusResult(N, *counts[-1].tolist(), "brute")


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
