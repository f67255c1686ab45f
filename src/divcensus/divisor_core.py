"""Divisor-count primitives: d(n) tables, D(x) = sum_{n<=x} d(n), sum d(n)^2.

Everything here is exact integer arithmetic; floats never enter.

Sieve
-----
d(n) is recovered from its divisor pairs: every divisor k <= sqrt(n) pairs
with n/k >= sqrt(n), so

    d(n) = 2 * #{k : k | n, k^2 <= n}  -  [n is a perfect square].

Looping k up to sqrt(n_max) and adding 2 at k^2, k^2+k, k^2+2k, ... (with a
-1 correction at k^2 itself) fills a whole table in O(n_max log n_max)
element increments but only O(sqrt(n_max)) vectorized passes, which is what
makes 10^7-scale tables cheap in Python.  The same pass works on a block
[lo, hi] in isolation, giving the segmented mode used for sums far beyond
the in-memory table limit.

Summatory function
------------------
D(x) counts lattice points under the hyperbola ab <= x.  Splitting at
sqrt(x) and using the a <-> b symmetry:

    D(x) = sum_{n<=x} d(n) = 2 * sum_{k<=sqrt(x)} floor(x/k) - floor(sqrt(x))^2

which is O(sqrt(x)) and needs no table, so it stays usable for arguments
as large as the census bound N itself.  It is one int64 reduction, exact
for x <= SUMMATORY_MAX_X = 2^52; a larger x is refused.

Sum of d(n)^2
-------------
With D_4(x) = sum_{uv<=x} d(u) d(v), the count of 4-tuples with product
at most x, and mu the Moebius function,

    sum_{n<=N} d(n)^2 = sum_{k<=sqrt(N)} mu(k) * D_4(floor(N / k^2))

(census.py derives this from sum d(n)^2 n^-s = zeta(s)^4 / zeta(2s)), and
the hyperbola split again gives

    D_4(x) = 2 * sum_{u<=sqrt(x)} d(u) * D(floor(x/u))  -  D(floor(sqrt(x)))^2.

Grouping the k by the sign of mu(k), with x_k = N // k^2,

    sum_{n<=N} d(n)^2 = 2 (P - M)  -  sum_k mu(k) * D(isqrt(N) // k)^2,

where P and M sum d(u) * D(x_k // u) over the pairs (k, u), u <= sqrt(x_k),
with mu(k) = +1 and mu(k) = -1.  Their terms are nonnegative, so each is
reduced in uint64, a step of pairs at a time, into a Python int.  The sum
over u of one x is at most D_4(x), as it is at least D(floor(sqrt(x)))^2,
and D_k(x) <= x (1 + ln x)^(k-1) (induct on D_k(x) = sum_{m<=x} D_{k-1}(x/m)
with sum_{m<=x} 1/m <= 1 + ln x).  The smallest k > 1 with mu(k) = 1 is 6,
and sum_{k>=6} 1/k^2 < 1/5, so P <= (6/5) N (1 + ln N)^3, and
M <= (zeta(2) - 1) N (1 + ln N)^3: both below 1.5e19 < 2^64 for every
N < (SUBLINEAR_TABLE_CAP + 1)^2 = 2^48 + 2^25 + 1, the census's domain.
The corner term is one int64 dot whose terms add up to at most
zeta(2) N (1 + ln N)^2 < 2^63 in absolute value.

divisor_square_summatory_sublinear costs about N^(2/3) sieve work plus
sqrt(N) ln(N) lookups in a summatory table, against the N ln N of summing
d(n)^2 term by term.  The term-by-term routes stay: the in-memory one for
small N, the segmented one as an independent cross-check.

Summatory table
---------------
summatory_table(y, N) serves one bound N.  It sieves d(n) once up to y
and keeps the int32 prefix sums D(0..y); d(n) is read back as
D(n) - D(n-1).  Every count of the census is a sum of D values (census.py
has the identities), and every D it asks for above y is D(N // m) with
m <= M = N // (y + 1), because (N // a) // b = N // (ab).  So the table
also holds one dense int64 array above[m] = D(N // m), m <= M, filled
lazily: its vectorized summatory(q) looks D(q) up for q <= y, and for
q > y reads above[N // q], making one divisor_summatory call the first
time an entry is asked for.  A q above y that is not a quotient of N is
refused.  With the one size rule, summatory_table_size(N) = N^(2/3)
capped at SUBLINEAR_TABLE_CAP, the sieve and those N^(1/3) evaluations of
O(sqrt(N / m)) each both cost about N^(2/3); the array costs 8 N / y
bytes, 4.8 MB at N = 10^13.
"""

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .config import ResourceLimitError

# In-memory d(n) tables are refused above this (int32 table ~ 4 bytes/entry,
# so the ceiling is ~0.5 GB).  Segmented iteration has no such bound.
TABLE_LIMIT = 1 << 27

# Block length of the segmented sieve: ~12 MiB of working set.
DEFAULT_SEGMENT_SIZE = 1 << 20

# divisor_summatory reduces sum_{k<=sqrt(x)} x // k in int64 and refuses a
# larger x: that sum is at most D(x) <= x (1 + ln x) < 2^63 for x <= 2^52.
SUMMATORY_MAX_X = 1 << 52

# The d(n) table behind the sublinear sum of d(n)^2 holds at most this many
# entries.  Its int32 counts plus their int32 prefix sums peak at 8 bytes an
# entry, 128 MiB at the cap, which N reaches at N^(2/3) = 2^24 (N ~ 6.9e10).
# int32 prefix sums are exact here: D(y) <= y (1 + ln y) < 3e8 < 2^31.
SUBLINEAR_TABLE_CAP = 1 << 24

# (k, u) pairs handled per vectorized step of the sublinear sum, a long run
# of one k split across steps: about ten 2 MiB temporaries, 22 MiB traced at
# N = 10^11.
_PAIR_CHUNK = 1 << 18


@dataclass(frozen=True)
class DivisorTable:
    """Sieved divisor counts: counts[n] = d(n) for 1 <= n <= n_max.

    counts[0] is a padding zero.  The array is marked read-only, so a table
    can be shared freely across threads.
    """

    n_max: int
    counts: np.ndarray


def sieve_divisor_counts(n_max: int) -> DivisorTable:
    """Sieve d(1..n_max) via the paired-divisor pass described above."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if n_max > TABLE_LIMIT:
        raise ResourceLimitError(
            f"in-memory divisor table refused at n_max={n_max} "
            f"(limit {TABLE_LIMIT}); use the segmented operations instead"
        )
    counts = np.zeros(n_max + 1, dtype=np.int32)
    for k in range(1, isqrt(n_max) + 1):
        sq = k * k
        counts[sq::k] += 2
        counts[sq] -= 1
    counts.setflags(write=False)
    return DivisorTable(n_max=n_max, counts=counts)


def divisor_summatory(x: int) -> int:
    """D(x) = sum_{n<=x} d(n), exactly, in O(sqrt(x)) via the hyperbola split.

    x above SUMMATORY_MAX_X is refused, where the int64 sum could overflow.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > SUMMATORY_MAX_X:
        raise ResourceLimitError(
            f"D(x) refused at x={x}: its int64 sum is exact only up to "
            f"SUMMATORY_MAX_X = 2^52"
        )
    r = isqrt(x)
    return 2 * int(np.sum(x // np.arange(1, r + 1, dtype=np.int64))) - r * r


def divisor_list(n: int) -> list[int]:
    """Ascending divisors of n by trial division up to sqrt(n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    small = []
    large = []
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
    return small + large[::-1]


@dataclass(frozen=True)
class SummatoryTable:
    """D(q) for the q a census at N asks for: q <= n_max and q = N // m.

    prefix[m] = D(m) = sum_{n<=m} d(n) for 0 <= m <= n_max.  d(n) =
    prefix[n] - prefix[n-1] is read back from the prefix sums rather than
    kept beside them, which halves the table's memory.  The prefix sums are
    int32, exact because n_max <= SUBLINEAR_TABLE_CAP: D(y) <= y (1 + ln y)
    < 3e8 < 2^31 there.

    above[m] = D(N // m) for 1 <= m <= N // (n_max + 1), the only D above
    n_max that B, S and C at N ask for.  An entry stays 0 until it is first
    asked for, which is unambiguous as D(q) >= 1, so B, S and C share each
    evaluation.
    """

    N: int
    n_max: int
    prefix: np.ndarray
    above: np.ndarray

    def counts(self, upto: int) -> np.ndarray:
        """d(0..upto) as int64, with d(0) = 0 as in DivisorTable.counts."""
        if upto > self.n_max:
            raise ValueError(f"upto={upto} exceeds table.n_max={self.n_max}")
        d = np.zeros(upto + 1, dtype=np.int64)
        np.subtract(self.prefix[1 : upto + 1], self.prefix[:upto], out=d[1:])
        return d

    def summatory(self, q: np.ndarray) -> np.ndarray:
        """D(q) as int64 for each entry q >= 1 of an int64 array.

        q <= n_max is a table lookup.  q above is read from above[N // q]
        and must be a quotient N // m, else ValueError; each entry costs one
        divisor_summatory call over the table's lifetime.
        """
        big = q > self.n_max
        out = self.prefix[np.where(big, 0, q)].astype(np.int64)
        if big.any():
            q_big = q[big]
            m = np.maximum(self.N // q_big, 1)  # q > N gives 0, and N // 1 != q
            wrong = self.N // m != q_big
            if wrong.any():
                raise ValueError(
                    f"q={int(q_big[wrong][0])} exceeds table.n_max={self.n_max} "
                    f"and is not N // m for the table's N={self.N}"
                )
            need = np.sort(m[self.above[m] == 0])
            for k in need[np.diff(need, prepend=0) > 0].tolist():  # each distinct m once
                self.above[k] = divisor_summatory(self.N // k)
            out[big] = self.above[m]
        return out


def summatory_table_size(n_max: int) -> int:
    """The one size rule for a summatory table at bound n_max.

    y = n_max^(2/3) balances the sieve against the D(q) evaluations above
    the table; y is at least sqrt(n_max), so that B finds d(u) for every
    u <= sqrt(n_max), while the cap allows, and at most SUBLINEAR_TABLE_CAP.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    root = isqrt(n_max)
    if root >= SUBLINEAR_TABLE_CAP:  # also keeps huge n_max out of the float power
        return SUBLINEAR_TABLE_CAP
    return min(SUBLINEAR_TABLE_CAP, max(root, int(n_max ** (2 / 3))))


def summatory_table(y: int, N: int) -> SummatoryTable:
    """Sieve d(1..y) once and take the prefix sums D(1..y), for sums at bound N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if y > SUBLINEAR_TABLE_CAP:
        raise ValueError(
            f"summatory table size {y} exceeds SUBLINEAR_TABLE_CAP = {SUBLINEAR_TABLE_CAP}"
        )
    prefix = np.cumsum(sieve_divisor_counts(y).counts, dtype=np.int32)
    prefix.setflags(write=False)
    above = np.zeros(N // (y + 1) + 1, dtype=np.int64)
    return SummatoryTable(N=N, n_max=y, prefix=prefix, above=above)


def divisor_square_summatory(x: int, table: DivisorTable) -> int:
    """sum_{n<=x} d(n)^2 from an in-memory table."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > table.n_max:
        raise ValueError(f"x={x} exceeds table.n_max={table.n_max}")
    c = table.counts[1 : x + 1].astype(np.int64)
    return int(np.dot(c, c))


def _check_segment_size(segment_size: int) -> None:
    # The upper cap keeps per-segment int64 partial sums provably below 2^63
    # (and a segment that size would be 8 GB of RAM regardless).
    if not 1 <= segment_size <= (1 << 30):
        raise ValueError(f"segment_size must be in [1, 2^30], got {segment_size}")


def _segment_counts(lo: int, hi: int) -> np.ndarray:
    """d(n) for n in [lo, hi] without sieving anything below lo."""
    block = np.zeros(hi - lo + 1, dtype=np.int32)
    for k in range(1, isqrt(hi) + 1):
        sq = k * k
        first = max(sq, ((lo + k - 1) // k) * k)
        if first <= hi:
            block[first - lo :: k] += 2
        if lo <= sq <= hi:
            block[sq - lo] -= 1
    return block


def iter_divisor_segments(n_max: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
    """Yield (lo, counts) blocks covering 1..n_max, each of <= segment_size values.

    counts[i] = d(lo + i).  Memory use is bounded by the segment size alone,
    so n_max may exceed TABLE_LIMIT by orders of magnitude.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _check_segment_size(segment_size)
    lo = 1
    while lo <= n_max:
        hi = min(lo + segment_size - 1, n_max)
        yield lo, _segment_counts(lo, hi)
        lo = hi + 1


def divisor_square_summatory_segmented(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> int:
    """sum_{n<=n_max} d(n)^2 streamed over segments; exact for any n_max.

    It costs time linear in n_max and memory bounded by the segment size.
    The census uses the sublinear route; this one is kept as an independent
    cross-check of it.
    """
    total = 0
    for _, counts in iter_divisor_segments(n_max, segment_size):
        d = counts.astype(np.int64)
        # Each block's int64 dot stays far below 2^63: a block of length L
        # is at most L * max(d)^2, and d(n) < 2 * sqrt(n).
        total += int(np.dot(d, d))
    return total


def _mobius_table(n_max: int) -> np.ndarray:
    """mu(0..n_max) as int8, mu(0) = 0.

    Each prime p <= sqrt(n_max) flips the sign of its multiples, zeroes the
    multiples of p^2 and is multiplied into small_part, the product of the
    distinct small primes of each multiple.  A number that small_part falls
    short of has exactly one prime factor above sqrt(n_max) left, which
    flips the sign once more.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mu = np.ones(n_max + 1, dtype=np.int8)
    small_part = np.ones(n_max + 1, dtype=np.int64)
    r = isqrt(n_max)
    is_prime = np.ones(r + 1, dtype=bool)
    for p in range(2, r + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            small_part[p::p] *= p
    mu[small_part < np.arange(n_max + 1)] *= -1
    mu[0] = 0
    return mu


def divisor_square_summatory_sublinear(n_max: int, table: SummatoryTable | None = None) -> int:
    """sum_{n<=n_max} d(n)^2 = sum_{k<=sqrt(n_max)} mu(k) D_4(n_max // k^2), exactly.

    See the module docstring for the identity and the cost.  d(u) is needed
    up to sqrt(n_max), so the table, built for N = n_max, must reach that
    far, and n_max >= (SUBLINEAR_TABLE_CAP + 1)^2 = 2^48 is refused.
    Without a table, one of summatory_table_size(n_max) entries is sieved.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    root = isqrt(n_max)
    if root > SUBLINEAR_TABLE_CAP:
        raise ResourceLimitError(
            f"sublinear sum of d(n)^2 refused at N={n_max}: it needs d(n) up to "
            f"sqrt(N) = {root}, above the table cap {SUBLINEAR_TABLE_CAP}"
        )
    if table is None:
        table = summatory_table(summatory_table_size(n_max), n_max)
    elif table.n_max < root:
        raise ValueError(f"table.n_max={table.n_max} is below sqrt(n_max) = {root}")
    d = table.counts(root)

    mu = _mobius_table(root)
    ks = np.flatnonzero(mu)
    lengths = root // ks  # isqrt(n_max // k^2) = isqrt(n_max) // k
    corner = table.prefix[lengths].astype(np.int64)  # D(isqrt(n_max // k^2))
    corners = int(np.dot(mu[ks] * corner, corner))
    ends = np.cumsum(lengths)
    n_pairs = int(ends[-1])
    # The (k, u) pairs are laid out k by k, each k a run of u = 1..lengths[k],
    # and taken _PAIR_CHUNK at a time, so a long run (k = 1 has sqrt(n_max)
    # pairs) spans several steps.  Runs i..j-1 meet the step's pairs [lo, hi).
    # positive and negative are P and M of the module docstring.
    positive = negative = 0
    for lo in range(0, n_pairs, _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, n_pairs)
        i = int(np.searchsorted(ends, lo, side="right"))
        j = int(np.searchsorted(ends, hi, side="left")) + 1
        k, begin = ks[i:j], ends[i:j] - lengths[i:j]
        run = np.minimum(ends[i:j], hi) - np.maximum(begin, lo)
        u = np.arange(lo + 1, hi + 1, dtype=np.int64) - np.repeat(begin, run)
        d_sum = table.summatory(np.repeat(n_max // (k * k), run) // u)
        terms = d[u].astype(np.uint64) * d_sum.astype(np.uint64)
        plus = np.repeat(mu[k] > 0, run)
        positive += int(terms[plus].sum())
        negative += int(terms[~plus].sum())
    return 2 * (positive - negative) - corners
