"""Divisor-count primitives: d(n) tables, D(x) = sum_{n<=x} d(n), sum d(n)^2.

Every result here is exact.  The one route through floats, the batched
D, is exact under the bound stated in its section.

Sieve
-----
d(n) is recovered from its divisor pairs: every divisor k <= sqrt(n) pairs
with n/k >= sqrt(n), so

    d(n) = 2 * #{k : k | n, k^2 <= n}  -  [n is a perfect square].

One routine, _sieve, fills a block d(lo..hi) in place: each k <= sqrt(hi)
adds 2 at its multiples from max(k^2, lo) on, and each square k^2 in the
block takes 1 back.  That is O(L log hi) element increments for a block
of L entries, in O(sqrt(hi)) vectorized passes.  Every d(n) table, the
summatory table, the sampler's counts and the segmented cross-check, is
sieved in blocks of _SIEVE_BLOCK = 2^20 entries (4 MiB of int32), which
stay in cache while every k strides over them (costs in the next section).

sieve_d3_and_c takes the same kind of pass over a block [lo, hi) of a
d(n) table: d_3(n) = sum_{k | n} d(k) and c(n) = sum_{r^2 | n} d(n / r^2),
in O(sqrt(hi)) vectorized passes.  They are the steps of S and C from
N - 1 to N, which the census sweep sums, and the sampler's success count
of n is s(n) = 2 d_3(n) - c(n).

Summatory function
------------------
D(x) counts lattice points under the hyperbola ab <= x.  Splitting at
sqrt(x) and using the a <-> b symmetry:

    D(x) = sum_{n<=x} d(n) = 2 * sum_{k<=sqrt(x)} floor(x/k) - floor(sqrt(x))^2

which is O(sqrt(x)) and needs no table, so it stays usable for arguments
as large as the census bound N itself.  It is one int64 reduction, exact
for x <= SUMMATORY_MAX_X = 2^52; a larger x is refused.

Summatory table and the pass above it
-------------------------------------
summatory_table(y, N) serves one bound N, with sqrt(N) <= y.  It sieves
d(n) once up to y and takes the int32 prefix sums D(0..y) in place; d(n)
is read back as D(n) - D(n-1).  Every count of the census is a sum of D
values (census.py has the identities), and every D it asks for above y is
D(N // m) with m <= M = N // (y + 1) <= sqrt(N), because
(N // a) // b = N // (ab).  So a D(q) with q <= y is a plain lookup, and
the D above the table are taken in one streaming pass over m <= M
(SummatoryTable.pass_sums).  The pass evaluates each D(N // m) once, block
by block, and reduces it into three sums:

    sum_{m<=M} D(N // m)              the part of S with b <= M,
    sum_{m<=M} w(m) D(N // m)         the part of B with k^2 u <= M,
    sum_{r^2<=M} D(N // r^2)          the part of C with r^2 <= M.

The second sum is B's hyperbola terms mu(k) d(u) D(N // (k^2 u))
(census.py) with k^2 u <= M, grouped by m = k^2 u, so
w(m) = sum_{k^2 u = m} mu(k) d(u) (SummatoryTable.pass_weights).  Each
such pair has u <= m / k^2 <= sqrt(N) / k, inside the hyperbola sum,
because M <= sqrt(N).  w(m) is the coefficient of zeta(s)^2 / zeta(2s),
2^omega(m) with omega(m) the number of distinct primes of m, so
0 < w(m) <= d(m), and the terms sum_{m<=M} w(m) D(N // m) are at most
N (1 + ln N) sum_{m<=sqrt(N)} d(m) / m <= N (1 + ln N) (1 + ln sqrt(N))^2
< 2^62 on the census domain, so each block reduces in int64, as do the
other two, partial sums of S and C (census.py has their bound).  B then
walks only its pairs with k^2 u > M, whose D(N // (k^2 u)) <= y are
lookups, and S and C look up their D(N // m) with m > M.

The sieve costs c_s y and the pass sum_{m<=M} sqrt(N / m) ~ 2 N / sqrt(y)
cells of c_p each, least in sum at y = (c_p N / c_s)^(2/3).  When the
rule was fitted, on one core of a 2-vCPU VM, a sieve entry cost 16-20 ns
while the table fit in cache and a pass cell 1.4-3 ns, so
(c_p / c_s)^(2/3) came to about 0.27, and the one
size rule, summatory_table_size(N), is y = N^(2/3) / 4, at least sqrt(N)
and at most SUBLINEAR_TABLE_CAP.  Below the cap both parts cost about
N^(2/3): the sieve N^(2/3) / 4 entries and the pass 4 N^(2/3) cells.  The
cap binds from N = 2^39, about 5.5e11.  The small ufunc buffer and the
einsum row sums of the next section have since cut a pass cell to about
0.6 of its former cost at N = 1e10 and to 0.7-0.9 at 1e12 and 1e13
(medians of alternating in-process runs by scripts/bench.py, in several
spells of the host, whose speed moved the absolute figures by up to half:
0.8-1.5 ns a cell at 1e13).  The blocked sieve makes a table entry cost
19 ns at 1.2e6 entries and 24-34 ns at 2^24, where striding each k over
the whole table cost 19 and 59-63 ns (medians of 5 alternating runs by
scripts/bench.py, bench/BENCH_blocked-sieve.json).  summatory_table_size
is left unchanged until scripts/bench.py shows that a re-fit gains.

Batched summatory function
--------------------------
divisor_summatory_batch evaluates D(x) for a nonincreasing int64 array of
x in float64 blocks of about _BLOCK_CELLS cells: rows of x, of widths
r = isqrt(x), against one shared row of reciprocals 1/k, k = 1, 2, ...  A row wider than
a block is split across column blocks.  A block of several rows is as
wide as its widest, w, and needs no mask for the cells k > r of its
narrower rows: x // k >= k exactly when k <= r, so max(x // k, k - 1)
keeps the cells k <= r and puts k - 1 in the others, whose sum
(w (w - 1) - r (r - 1)) / 2 is then taken back.  Three facts make it exact
for x <= SUMMATORY_BATCH_MAX_X, the largest N of the census domain, and it
refuses a larger x:

- floor((x + 1/2) * fl(1/k)) = x // k.  With x = Qk + j, 0 <= j < k, the
  exact (x + 1/2) / k lies in [Q + 1/(2k), Q + 1 - 1/(2k)], and the two
  roundings move it by a relative 2^-52 at most, less than 1/(2k) while
  x + 1/2 < 2^50.
- floor(sqrt(x)) in float64 is isqrt(x) = r: the root of x = (r + 1)^2 - 1
  falls short of r + 1 by about 1/(2r), more than half an ulp of r + 1
  while x < 2^52, and sqrt is correctly rounded and monotone.
- Every cell and every partial row sum is an integer of at most
  sum_{k<=r} x / k + w^2 / 2 <= x (1 + ln sqrt(x)) + 2^47 < 2^53, so
  float64 adds it exactly, in any order.

The blocks run at numpy's full speed under two choices.  First, the loop
runs under a ufunc buffer of _UFUNC_BUFSIZE elements, set and restored by
try/finally (np.errstate restores the buffer only from numpy 2.0 on).  At
numpy's default of 8192, a ufunc with a broadcast operand goes through
its buffer whenever a block's rows are under about 8192 / 3 = 2730
columns: the multiply by the column shifted[i:j, None] and the maximum
against the row k_minus_1 then cost 1.0-1.3 ns a cell, against 0.3 ns on
wider rows or under the small buffer.  Second, the row sums are
np.einsum("ij->i"), a running sum, not q.sum(axis=1), which takes a
pairwise sum of each row: 0.2 ns a cell against 0.3-0.4.  The last fact
above makes both orders exact.  The reciprocals 1/k, k = c0 + 1..c1, of
a column block of a lone row wider than the head are 1 / (j + c0 + 1)
over the float64 row j = 0, 1, ..., so no int-to-float cast runs through
the small buffer.

The work arrays, 1/k and k - 1 over the head, one block of cells and the
reciprocals past the head, about 1 MiB each, live in a BatchWorkspace.  A
pass allocates one, sized for its widest row, and lends it to every call.
Allocated per call, they cost a pass at N = 10^12 about 10^4 minor page
faults, against about 1500 with the workspace (ru_minflt of one process).

The int64 divisor_summatory stays as the independent per-x route.
"""

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import Iterator

import numpy as np

from .config import ResourceLimitError

# Entries of one block of the d(n) sieve, 4 MiB of int32 (module docstring).
_SIEVE_BLOCK = 1 << 20

# divisor_summatory reduces sum_{k<=sqrt(x)} x // k in int64 and refuses a
# larger x: that sum is at most D(x) <= x (1 + ln x) < 2^63 for x <= 2^52.
SUMMATORY_MAX_X = 1 << 52

# The d(n) table behind a census holds at most this many entries.  Its
# int32 prefix sums, taken in place, peak at 4 bytes an entry, 64 MiB at
# the cap, which the size rule reaches at N^(2/3) / 4 = 2^24 (N = 2^39,
# about 5.5e11).
# int32 prefix sums are exact here: D(y) <= y (1 + ln y) < 3e8 < 2^31.
SUBLINEAR_TABLE_CAP = 1 << 24

# divisor_summatory_batch is exact up to the largest N of the census domain:
# there sum_{k<=sqrt(x)} x / k <= x (1 + ln sqrt(x)) < 2^53 (module docstring).
SUMMATORY_BATCH_MAX_X = (SUBLINEAR_TABLE_CAP + 1) ** 2 - 1

# Cells of one float64 block of divisor_summatory_batch: a 1 MiB working array.
_BLOCK_CELLS = 1 << 17

# Cells past its rows' ends that a block of divisor_summatory_batch may
# carry rather than be split: about the cost of one more block's numpy
# calls, and a 16th of a full block.
_SPARE_CELLS = 1 << 13

# numpy's ufunc buffer, in elements, while divisor_summatory_batch runs.
# A broadcast operand goes through the buffer only on rows under about
# bufsize / 3 columns (module docstring): 85 here, 2730 at numpy's default
# of 8192.  The kernel on the pass's x, ns a cell at bufsize 128 / 256 /
# 1024 / 8192 (interleaved in-process medians, one core of a 2-vCPU VM,
# einsum row sums at every size): 6.1 / 5.8 / 8.4 / 10.1 at N = 1.6e7,
# 4.6 / 4.5 / 4.6 / 6.9 at 4e8, 3.6 / 3.5 / 3.6 / 4.8 at 1e10; 1.39 /
# 1.41 / 1.41 at 1e12, whose rows are all over 4000 wide.
_UFUNC_BUFSIZE = 256

# Values m per step of a summatory table's pass over m <= M.
_PASS_ROWS = 1 << 14


@dataclass(frozen=True)
class DivisorTable:
    """Sieved divisor counts: counts[n] = d(n) for 1 <= n <= n_max.

    counts[0] is a padding zero.  The array is marked read-only.
    """

    n_max: int
    counts: np.ndarray


def _sieve(counts: np.ndarray, lo: int) -> None:
    """Sieve d(lo..lo + counts.size - 1) in place into counts, a zeroed int32 view; d(0) = 0.

    Each k <= sqrt(hi) adds 2 from its first multiple at or above
    max(k^2, lo) on, and each square k^2 in the block takes 1 back.  A
    block shorter than k may hold no such multiple; k is then skipped,
    which saves a tail block of one entry at 2^24 its 4096 numpy calls.
    """
    size = counts.size
    k = np.arange(1, isqrt(lo + size - 1) + 1)
    squares = k * k - lo
    counts[squares[isqrt(max(lo - 1, 0)) :]] -= 1  # the k^2 >= lo
    starts = np.maximum(squares, -lo % k)  # -lo % k: k's first multiple from lo
    for step, start in zip(range(1, k.size + 1), starts.tolist()):  # no list of k: table peak
        if start < size:
            counts[start::step] += 2


def sieve_d3_and_c(d: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """d_3(n) = sum_{k | n} d(k) and c(n) = sum_{r^2 | n} d(n / r^2) for lo <= n < hi, as int32.

    d is an int32 d(n) table reaching hi - 1 with d[0] = 0, and 0 <= lo < hi;
    entry n - lo of each result is its count at n, d_3(0) = c(0) = 0.
    d_3(n) sums d(m) over the pairs (k, m) with km = n.  Each
    k <= sqrt(hi - 1) adds the pairs with k <= m, as in the d(n) sieve:
    d(m) at n = km for m >= k and d(k) at n = km for m > k.  c(n) sums d(m)
    over n = r^2 m, each r <= sqrt(hi - 1) adding d(m) at n = r^2 m.  Every
    entry is a partial sum of its count, and c(n) <= d_3(n) <= d(n)^2 <
    4n, as d_3(n) counts some of the d(n)^2 pairs of divisors of n, so
    int32 holds every step for hi <= 2^29.
    """
    d3 = np.zeros(hi - lo, dtype=np.int32)
    c = np.zeros(hi - lo, dtype=np.int32)
    for k in range(1, isqrt(hi - 1) + 1):
        last = (hi - 1) // k
        first = max(k, -(-lo // k))  # the first m >= k with km >= lo
        if first <= last:
            d3[k * first - lo :: k] += d[first : last + 1]
            after = max(k + 1, first)
            d3[k * after - lo :: k] += d[k]
        square = k * k
        first = max(1, -(-lo // square))
        if first <= (hi - 1) // square:
            c[square * first - lo :: square] += d[first : (hi - 1) // square + 1]
    return d3, c


def sieve_divisor_counts(n_max: int) -> DivisorTable:
    """Sieve d(1..n_max) in blocks of _SIEVE_BLOCK entries (module docstring)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    counts = np.zeros(n_max + 1, dtype=np.int32)
    for lo in range(0, n_max + 1, _SIEVE_BLOCK):
        _sieve(counts[lo : lo + _SIEVE_BLOCK], lo)
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


class BatchWorkspace:
    """The work arrays of divisor_summatory_batch, for calls on at most rows values x <= x_max.

    Sized as a call on rows values from x_max down sizes its own: 1/k and
    k - 1 for the head k <= min(isqrt(x_max), _BLOCK_CELLS), one block of
    cells, and the reciprocals of one column block past the head when the
    widest row is wider than the head, about 1 MiB each.  A pass makes one
    and lends it to each of its calls, so that none allocates them.
    """

    def __init__(self, x_max: int, rows: int):
        width = isqrt(x_max)
        head = min(width, _BLOCK_CELLS)
        self.x_max, self.rows = x_max, rows
        self.inv = 1.0 / np.arange(1.0, head + 1.0)
        self.k_minus_1 = np.arange(head, dtype=np.float64)
        self.cells = np.empty(min(_BLOCK_CELLS, rows * width))
        self.reciprocals = np.empty(head if width > head else 0)


def divisor_summatory_batch(x: np.ndarray, workspace: BatchWorkspace | None = None) -> np.ndarray:
    """D(x) as int64 for each entry of a nonincreasing 1-D int64 array, in float64 blocks.

    Exact for 1 <= x <= SUMMATORY_BATCH_MAX_X, and a larger x is refused
    (module docstring, "Batched summatory function").  The quotients
    N // m of increasing m are nonincreasing; x in another order is refused.
    The work arrays come from workspace, which must hold x, or are
    allocated for this call.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    if (x[1:] > x[:-1]).any():
        raise ValueError("x must be nonincreasing")
    if int(x[-1]) < 1:
        raise ValueError(f"x must be >= 1, got {int(x[-1])}")
    if int(x[0]) > SUMMATORY_BATCH_MAX_X:
        raise ResourceLimitError(
            f"batched D(x) refused at x={int(x[0])}: its float64 sums are exact "
            f"only up to SUMMATORY_BATCH_MAX_X = (SUBLINEAR_TABLE_CAP + 1)^2 - 1"
        )
    if workspace is None:
        workspace = BatchWorkspace(int(x[0]), x.size)
    elif int(x[0]) > workspace.x_max or x.size > workspace.rows:
        raise ValueError(
            f"workspace holds {workspace.rows} x <= {workspace.x_max}, "
            f"not {x.size} from {int(x[0])}"
        )
    inv, k_minus_1, cells = workspace.inv, workspace.k_minus_1, workspace.cells
    width = np.sqrt(x.astype(np.float64)).astype(np.int64)  # isqrt(x), nonincreasing
    filled = np.cumsum(width)  # filled[j] - filled[i] = cells of rows i+1..j
    shifted = x + 0.5  # exact in float64
    sums = np.zeros(x.size)
    block_width = np.empty(x.size, dtype=np.int64)
    old_bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        i = 0
        while i < x.size:
            # Rows i..j-1: at most a block of cells, of which at most
            # _SPARE_CELLS lie past the narrower rows' ends.
            w = int(width[i])
            rows = np.arange(1, min(x.size - i, max(1, _BLOCK_CELLS // w)) + 1)
            spare = rows * w - (filled[i : i + rows.size] - filled[i] + w)  # nondecreasing
            j = i + int(np.searchsorted(spare, _SPARE_CELLS, side="right"))
            narrowest = int(width[j - 1])
            step = _BLOCK_CELLS // (j - i)  # a lone row wider than a block spans several
            for c0 in range(0, w, step):
                c1 = min(c0 + step, w)
                if c1 <= inv.size:
                    row = inv[c0:c1]
                else:  # a lone row past the head: 1/k, k = c0 + 1..c1
                    row = workspace.reciprocals[: c1 - c0]
                    np.add(k_minus_1[: c1 - c0], c0 + 1.0, out=row)
                    np.divide(1.0, row, out=row)
                q = cells[: (j - i) * (c1 - c0)].reshape(j - i, c1 - c0)
                np.multiply(shifted[i:j, None], row, out=q)
                np.floor(q, out=q)
                if c1 > narrowest:  # only in a block of several rows, so c1 <= head
                    tail = q[:, max(c0, narrowest) - c0 :]
                    np.maximum(tail, k_minus_1[max(c0, narrowest) : c1], out=tail)
                sums[i:j] += np.einsum("ij->i", q)
            block_width[i:j] = w
            i = j
    finally:
        np.setbufsize(old_bufsize)
    # Each row's cells k = r + 1..w held k - 1: take them back.
    spare = (block_width * (block_width - 1) - width * (width - 1)) // 2
    return 2 * (sums.astype(np.int64) - spare) - width * width


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
    """D(q) for the q a census at N asks for: q <= n_max, and the pass above.

    prefix[m] = D(m) = sum_{n<=m} d(n) for 0 <= m <= n_max, with n_max at
    least sqrt(N).  d(n) = prefix[n] - prefix[n-1] is read back from the
    prefix sums rather than kept beside them, which halves the table's
    memory.  The prefix sums are int32, exact because n_max <=
    SUBLINEAR_TABLE_CAP: D(y) <= y (1 + ln y) < 3e8 < 2^31 there.

    The D(q) above n_max that B, S and C at N ask for are D(N // m) with
    m <= M = N // (n_max + 1); pass_sums reduces them, once per table.
    """

    N: int
    prefix: np.ndarray

    def __post_init__(self):
        if self.n_max < isqrt(self.N):
            raise ValueError(
                f"summatory table size {self.n_max} is below sqrt(N) = {isqrt(self.N)}"
            )

    @property
    def n_max(self) -> int:
        """The largest m whose D(m) the table holds."""
        return self.prefix.size - 1

    @property
    def M(self) -> int:
        """The m <= M whose D(N // m) lie above the table."""
        return self.N // (self.n_max + 1)

    def summatory(self, q: np.ndarray) -> np.ndarray:
        """D(q) as int64 for each entry 1 <= q <= n_max of an int64 array."""
        return self.prefix[q].astype(np.int64)

    def pass_weights(self) -> np.ndarray:
        """w(m) = sum_{k^2 u = m} mu(k) d(u) for 0 <= m <= M as int32, w(0) = 0.

        Starts from d(1..M), the differences of the prefix sums, and adds
        mu(k) d(1..M // k^2) at the multiples of k^2 for each squarefree
        2 <= k <= sqrt(M), with mu from one sieve to sqrt(M).  Each entry
        is a partial sum of its terms, at most sum_{k^2 | m} d(m / k^2) <=
        d(m)^2 < 2^31 in absolute value, and ends as w(m) = 2^omega(m),
        omega(m) the number of distinct primes of m: 1 <= w(m) <= 2^8 for
        m <= SUBLINEAR_TABLE_CAP, whose m have at most 8 distinct primes.
        The int64 bound of the pass's weighted sum rests on 0 < w(m) <= d(m)
        (module docstring).
        """
        M = self.M
        d = np.diff(self.prefix[: M + 1])  # d(1..M)
        weights = np.insert(d, 0, 0)
        if M:
            mu = _mobius_table(isqrt(M))
            for k in np.flatnonzero(mu)[1:].tolist():  # the squarefree k >= 2
                multiples = weights[k * k :: k * k]
                if mu[k] > 0:
                    multiples += d[: multiples.size]
                else:
                    multiples -= d[: multiples.size]
        return weights

    @cached_property
    def pass_sums(self) -> tuple[int, int, int]:
        """(plain, weighted, squares) over the D(N // m), m <= M, from one pass.

        plain = sum_{m<=M} D(N // m) is S's part with b <= M, weighted =
        sum_{m<=M} w(m) D(N // m), w from pass_weights, is B's part with
        k^2 u <= M, and squares = sum_{r^2<=M} D(N // r^2) is C's part with
        r^2 <= M.  It is a plain tuple because every census builds one, and
        a named tuple takes ten times as long to make.  Each D(N // m) is
        evaluated once, _PASS_ROWS values of m at a time, and dropped after
        the three sums take it (module docstring).  M = 0 costs nothing.
        """
        plain = weighted = squares = 0
        M = self.M
        if M:
            weights = self.pass_weights()
            workspace = BatchWorkspace(self.N, min(M, _PASS_ROWS))  # the widest row is N // 1
            for lo in range(1, M + 1, _PASS_ROWS):
                m = np.arange(lo, min(lo + _PASS_ROWS, M + 1), dtype=np.int64)
                d = divisor_summatory_batch(self.N // m, workspace)
                plain += int(d.sum())
                weighted += int(np.dot(weights[lo : lo + d.size].astype(np.int64), d))
                r = np.arange(isqrt(lo - 1) + 1, isqrt(int(m[-1])) + 1, dtype=np.int64)
                squares += int(d[r * r - lo].sum())
        return plain, weighted, squares


def summatory_table_size(n_max: int) -> int:
    """The one size rule for a summatory table at bound n_max.

    y = n_max^(2/3) / 4 balances the sieve against the D(q) evaluations
    above the table (module docstring); y is at least sqrt(n_max), so that
    B finds d(u) for every u <= sqrt(n_max), while the cap allows, and at
    most SUBLINEAR_TABLE_CAP.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    root = isqrt(n_max)
    if root >= SUBLINEAR_TABLE_CAP:  # also keeps huge n_max out of the float power
        return SUBLINEAR_TABLE_CAP
    return min(SUBLINEAR_TABLE_CAP, max(root, int(n_max ** (2 / 3)) // 4))


def summatory_table(y: int, N: int) -> SummatoryTable:
    """Sieve d(1..y) once and take the prefix sums D(1..y) in place, for sums at bound N.

    y must be at least sqrt(N).  The prefix sums overwrite the sieve's own
    int32 counts, so the table peaks at 4 bytes an entry.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if y > SUBLINEAR_TABLE_CAP:
        raise ValueError(
            f"summatory table size {y} exceeds SUBLINEAR_TABLE_CAP = {SUBLINEAR_TABLE_CAP}"
        )
    prefix = np.zeros(y + 1, dtype=np.int32)
    carry = 0  # D(lo - 1)
    for lo in range(0, y + 1, _SIEVE_BLOCK):
        block = prefix[lo : lo + _SIEVE_BLOCK]
        _sieve(block, lo)
        block[0] += carry
        np.cumsum(block, out=block)
        carry = block[-1]
    prefix.setflags(write=False)
    return SummatoryTable(N=N, prefix=prefix)


def divisor_square_summatory(x: int, table: DivisorTable) -> int:
    """sum_{n<=x} d(n)^2 from an in-memory table."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > table.n_max:
        raise ValueError(f"x={x} exceeds table.n_max={table.n_max}")
    c = table.counts[1 : x + 1].astype(np.int64)
    return int(np.dot(c, c))


def iter_divisor_segments(n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, counts) blocks covering 1..n_max, each of <= _SIEVE_BLOCK values.

    counts[i] = d(lo + i).  Memory use is bounded by the block length alone,
    whatever n_max.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    for lo in range(1, n_max + 1, _SIEVE_BLOCK):
        counts = np.zeros(min(_SIEVE_BLOCK, n_max + 1 - lo), dtype=np.int32)
        _sieve(counts, lo)
        yield lo, counts


def divisor_square_summatory_segmented(n_max: int) -> int:
    """sum_{n<=n_max} d(n)^2 streamed over sieve blocks; exact for any n_max.

    It costs time linear in n_max and memory bounded by the block length.
    The census takes B by its hyperbola identity (census.py); this route is
    kept as an independent cross-check of it.
    """
    total = 0
    for _, counts in iter_divisor_segments(n_max):
        d = counts.astype(np.int64)
        # Each block's int64 dot stays far below 2^63: a block of length L
        # is at most L * max(d)^2, and d(n) < 2 * sqrt(n).
        total += int(np.dot(d, d))
    return total


def _mobius_table(n_max: int) -> np.ndarray:
    """mu(0..n_max) as int8, mu(0) = 0.

    Each prime p <= sqrt(n_max) flips the sign of its multiples, zeroes the
    multiples of p^2 and is divided once out of rest, an int32 copy of n
    (n_max <= SUBLINEAR_TABLE_CAP here).  So p <= sqrt(n_max) is prime
    exactly when no smaller prime has divided rest[p].  A squarefree n
    whose rest stays above 1 has exactly one prime factor above
    sqrt(n_max) left, which flips the sign once more; mu is 0 already
    wherever rest misses a power.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mu = np.ones(n_max + 1, dtype=np.int8)
    rest = np.arange(n_max + 1, dtype=np.int32)
    for p in range(2, isqrt(n_max) + 1):
        if rest[p] == p:
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            rest[p::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    return mu

