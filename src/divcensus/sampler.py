"""Seeded uniform sampling from the triple census.

A triple is drawn uniformly from the B(N) triples (a, b, r) with r | ab and
ab <= N as a deterministic function of one uniform v in [0, B(N)).  The
values of v are laid out in 2N cells, all A(N) successes first:

    cell n, for n = 1, ..., N, holds the s(n) successful pairs of product n,
    those with r | a or r | b, and
    cell N + n holds its d(n)^2 - s(n) failing pairs,

so cum_weights[n] = A(n) and cum_weights[N + n] = A(N) + B(n) - A(n).  A
draw succeeds exactly when v < A(N) = cum_weights[N]; counting successes
needs no product and no divisor.  To name the triple:

    1. the cell j is the first index with cum_weights[j] > v, found by a
       guide table of about 2N buckets (Chen & Asau 1974; Devroye 1986,
       III.2.4) that jumps to the first candidate of v's bucket and steps
       forward from there; its product is n = j - N [j > N],
    2. the rank v - cum_weights[j-1] is uniform over the pairs of the cell
       and picks the pair (a, r) of divisors of n on its side of the test,
       with b = n/a.

The d(n)^2 values of v in the two cells of n are exactly the d(n)^2
triples with ab = n, one each, so every triple has probability 1/B(N) and
the success indicator "r | a or r | b" has mean A(N)/B(N).  Reusing the
inversion uniform this way is Devroye 1986, II.2.

Within each cell the pairs are ordered r-major: row by row for r = 1, ...,
n among the divisors, with a ascending within a row.  Row r holds
2 d(n/r) - [r^2 | n] d(n/r^2) successes: the a with r | a, the a with
r | n/a, less those counted twice; the rest of its d(n) pairs fail.  So
s(n) = 2 d_3(n) - c(n), where d_3(n) = sum_{k | n} d(k) and
c(n) = sum_{r^2 | n} d(n/r^2), and s(n) is the increment A(n) - A(n-1).

The tables behind the count (TripleSpace) are built once per N: d(n) and
the cell bounds, whose d_3(n) and c(n) come from divisor_core.sieve_d3_and_c,
the sieve behind the census sweep's S and C, one pass per k <= sqrt(N).
Only triples(), which names the drawn (a, b, r), needs the guide and the
divisor lists; they are built on its first use, the lists by one pass per
k <= sqrt(N) over the multiples of k, without a sort
(_flat_divisor_lists).  Each draw then finds its row r, and its a, among
the divisors of its own n.

The draw runs in the int32 domain that SPACE_LIMIT guarantees: v, every
table and a, b, r are int32, and only the cell j and the product n are
widened to int64.  Every table is gathered with np.take.  The kernel also
accepts int64 v, with the same results.

Reproducibility: the generator is numpy's PCG64.  Trials are processed in
fixed chunks of CHUNK_TRIALS; chunk i draws its v, one int32 array, from
the stream seeded by SeedSequence(entropy=seed, spawn_key=(i,)).  For a
range below 2^32 numpy's bounded draw takes the same 32-bit path for
int32 and int64 output, so the values are those of an int64 draw.  The
chunk streams depend only on (seed, i), so the estimate is a
deterministic function of (N, trials, seed).  The chunks run one at a
time, in order.  triples() maps a chunk's v _DRAW_BLOCK values at a time,
which bounds the temporaries of each step; the blocks do not change which
triples are drawn.

numpy imports numpy.random on first use, and it is left that way: the
first draw pays about 10 ms for it (a third of that is `secrets`, through
`hmac` and `_hashlib`).  Importing it with the package would put that
time on every command, the ones that never sample included.
"""

import logging
from dataclasses import dataclass
from functools import cached_property, partial
from math import isqrt, sqrt

import numpy as np

from .config import ResourceLimitError
from .divisor_core import DivisorTable, sieve_d3_and_c, sieve_divisor_counts

# Chunk size is part of the reproducibility contract: changing it changes
# which stream serves which trial.
CHUNK_TRIALS = 1 << 18

log = logging.getLogger(__name__)

# The int32 domain of the draw: the triple count B(2*10^6) = 957082634
# < 2^31 bounds v and every entry of cum_weights, and the rank within a
# cell is below d(n)^2 < 4n <= 4N < 2^31.  It also bounds the tables that
# draw() and triples() build on first use, the divisor lists (~ N ln N
# entries; D(2*10^6) ~ 2.9e7 <= 2^31 - 1 bounds every index into them),
# and the row sizes summed over one block of triples(): a cell holds at
# most 64272 pairs (the failures of n = 1801800), so a block's sum stays
# below _DRAW_BLOCK * 2^16 = 2^31.  A success count builds none of those,
# nor the guide.
SPACE_LIMIT = 2_000_000

# Draws per step of triples().  Each draw lays out its d(n) divisors, so a
# step's temporaries hold about d(n) entries a draw: at this length a few
# MiB, an eighth of what a whole chunk at once would hold.  It does not
# change the result: every v is the chunk stream's, whatever the blocks.
_DRAW_BLOCK = 1 << 15

# One progress line at INFO per this many chunks.
PROGRESS_CHUNKS = 64


@dataclass(frozen=True)
class SampleEstimate:
    """Monte Carlo estimate of P(r|a or r|b) under the uniform triple draw."""

    N: int
    trials: int
    successes: int
    p_hat: float
    std_err: float
    seed: int


@dataclass(frozen=True)
class TripleSpace:
    """Precomputed tables for drawing triples at one N.

    cum_weights has 2N + 1 entries, the bounds of the cells of the module
    docstring: cum_weights[n] = A(n) for n <= N, and
    cum_weights[N + n] = A(N) + B(n) - A(n).  So successes = A(N) and
    total_triples = B(N), and a draw v succeeds exactly when
    v < successes.  This and d(n) are built with the space, and they are
    all a success count reads.

    The tables of triples() are built on its first use and then kept:
    guide[i] is the first cell j with cum_weights[j] > i * width, for the
    ceil(B/width) buckets of width = ceil(B/2N), at most 2N entries;
    flat_divisors holds every divisor list back to back, ascending within
    each n, and starts[n] indexes the first divisor of n.  Every table is
    int32 (SPACE_LIMIT says why).
    """

    N: int
    table: DivisorTable
    cum_weights: np.ndarray

    @property
    def successes(self) -> int:
        return int(self.cum_weights[self.N])

    @property
    def total_triples(self) -> int:
        return int(self.cum_weights[2 * self.N])

    @cached_property
    def width(self) -> int:
        return -(-self.total_triples // (2 * self.N))

    @cached_property
    def guide(self) -> np.ndarray:
        # Bucket i belongs to the first j with cum_weights[j] > i * width, so
        # cell j covers buckets ceil(cum_weights[j-1] / width) up to
        # ceil(cum_weights[j] / width) - 1.
        edges = -(-self.cum_weights // self.width)
        guide = np.repeat(np.arange(1, 2 * self.N + 1, dtype=np.int32), np.diff(edges))
        guide.setflags(write=False)
        return guide

    @cached_property
    def starts(self) -> np.ndarray:
        starts = np.zeros(self.N + 1, dtype=np.int32)
        if self.N > 1:
            np.cumsum(self.table.counts[1 : self.N], dtype=np.int32, out=starts[2:])
        starts.setflags(write=False)
        return starts

    @cached_property
    def flat_divisors(self) -> np.ndarray:
        flat = _flat_divisor_lists(self.table.counts, self.starts)
        flat.setflags(write=False)
        return flat

    def products(self, v: np.ndarray) -> np.ndarray:
        """The cell j with cum_weights[j-1] <= v < cum_weights[j] for each v in [0, B).

        Equal to np.searchsorted(cum_weights, v, side="right"): the guide
        entry of v's bucket is never past the answer, and each step forward
        is taken only by the entries still behind it.  v is int32 or int64;
        j is int64 either way.  Its product is j, or j - N past N.
        """
        cum = self.cum_weights
        j = self.guide.take(v // self.width).astype(np.int64)
        behind = np.flatnonzero(cum.take(j) <= v)
        while behind.size:
            j[behind] += 1
            behind = behind[cum.take(j.take(behind)) <= v.take(behind)]
        return j

    def triples(self, v: np.ndarray):
        """(a, b, r) for each v in [0, B): a one-to-one map onto the triples.

        v picks the cell j, and so the product n = a*b and the side of the
        test, and its rank v - cum_weights[j-1] the divisor pair (a, r) on
        that side, in the order of the module docstring, so that
        "r | a or r | b" holds exactly when v < successes.  v is int32, as
        drawn, or int64; a, b and r are int32, as n <= N < 2^31.  Each draw
        lays out the d(n) divisors of its n and finds its row and its a among
        them, so v is taken _DRAW_BLOCK values at a time.
        """
        blocks = [
            self._block_triples(v[lo : lo + _DRAW_BLOCK])
            for lo in range(0, max(v.size, 1), _DRAW_BLOCK)
        ]
        return tuple(np.concatenate(arrays) for arrays in zip(*blocks))

    def _block_triples(self, v: np.ndarray):
        # The cell j of each v gives its side of the test and its rank
        # there; j becomes the product n in place.
        n = self.products(v)
        counts = self.table.counts
        failure = n > self.N
        rank = v - self.cum_weights.take(n - 1)
        n -= self.N * failure
        # Lay out every draw's d(n) divisors once: they are its candidate
        # rows r, and then its candidate a.  The temporaries are updated in
        # place and freed once spent, as a smaller heap faults in fewer pages.
        d = counts.take(n)
        first = np.cumsum(d) - d
        index = np.repeat((self.starts.take(n) - first).astype(np.int32), d)
        index += np.arange(index.size, dtype=np.int32)
        divisors = self.flat_divisors.take(index)
        del index
        cofactors = np.repeat(n.astype(np.int32), d)
        cofactors //= divisors
        # Row r holds 2 d(n/r) - [r^2 | n] d(n/r^2) successes, and the rest
        # of its d(n) pairs fail.  One running sum over the block of the row
        # sizes on each draw's side, in int32 (SPACE_LIMIT), places the
        # draw's rank there: its row, the rank within the row and the row's
        # size.
        failure = np.repeat(failure, d)
        square = np.flatnonzero(cofactors % divisors == 0)
        sizes = counts.take(cofactors)
        sizes *= 2
        sizes[square] -= counts.take(cofactors.take(square) // divisors.take(square))
        np.subtract(np.repeat(d, d), sizes, out=sizes, where=failure)
        ends = np.cumsum(sizes, dtype=np.int32)
        at = ends.take(first) - sizes.take(first) + rank
        row = ends.searchsorted(at, side="right")
        size = sizes.take(row)
        rank = at - ends.take(row) + size
        del ends, sizes
        r = divisors.take(row)
        # Keep the divisors on each draw's side of the test; a is the
        # rank-th of its row's, as they are ascending.
        r_each = np.repeat(r, d)
        hits = divisors % r_each == 0
        cofactors %= r_each
        hits |= cofactors == 0
        hits ^= failure
        kept = np.flatnonzero(hits)
        a = divisors.take(kept.take(np.cumsum(size) - size + rank))
        b = n.astype(np.int32)
        b //= a
        return a, b, r

    def draw(self, trials: int, seed: int):
        """(a, b, r) arrays for `trials` seeded draws."""
        _check_trials_and_seed(trials, seed)
        chunks = [self.triples(v) for v in _chunk_uniforms(self, trials, seed)]
        return tuple(np.concatenate(arrays) for arrays in zip(*chunks))


def build_triple_space(N: int) -> TripleSpace:
    """Sieve d(n) and the cell bounds for sampling at bound N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > SPACE_LIMIT:
        raise ResourceLimitError(
            f"sampling space refused at N={N} (limit {SPACE_LIMIT}): v and cum_weights "
            f"must fit in int32, and draw() builds divisor lists of ~N ln N entries"
        )
    table = sieve_divisor_counts(N)
    # s(n) = 2 d_3(n) - c(n) (module docstring); 2 d_3(n) <= 2 d(n)^2 < 8N.
    s, c = sieve_d3_and_c(table.counts, 0, N + 1)
    s *= 2
    s -= c
    del c
    # The cell sizes s(n), then d(n)^2 - s(n), each written in place, summed
    # in place: a temporary of N entries would raise the build's peak.
    cum = np.zeros(2 * N + 1, dtype=np.int32)
    cum[1 : N + 1] = s[1:]
    np.square(table.counts[1:], out=cum[N + 1 :])
    cum[N + 1 :] -= s[1:]
    np.cumsum(cum, dtype=np.int32, out=cum)
    cum.setflags(write=False)
    return TripleSpace(N=N, table=table, cum_weights=cum)


def _flat_divisor_lists(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The divisors of 1, 2, ..., N back to back, ascending within each n.

    counts[n] = d(n) and starts[n] = d(1) + ... + d(n-1) for n <= N.  Each
    divisor pair (k, m // k) of m with k <= sqrt(m) is placed by one pass
    per k <= isqrt(N) over m = k^2, k^2 + k, ..., N, as in the d(n) sieve:
    k at the front cursor low[m] and m // k at the back cursor high[m] of
    m's run, which then move one step inwards.  The small divisors thus
    fill each run from the front in ascending order and their cofactors
    from the back in descending order, and the two writes meet at a
    perfect square, where both are k.  No sort is needed, and beside the
    result the build holds the two cursors and one pass's indices, all
    int32, which holds them for N <= SPACE_LIMIT.
    """
    N = len(starts) - 1
    flat = np.empty(int(starts[N]) + int(counts[N]), dtype=np.int32)
    low = starts.copy()
    high = starts + counts[: N + 1] - 1
    for k in range(1, isqrt(N) + 1):
        run = slice(k * k, N + 1, k)
        flat[low[run]] = k
        low[run] += 1
        flat[high[run]] = np.arange(k, N // k + 1, dtype=np.int32)
        high[run] -= 1
    return flat


def _chunk_uniforms(space: TripleSpace, trials: int, seed: int):
    """Yield each chunk's v in order, generated as needed: one array from its own stream.

    Chunk i holds CHUNK_TRIALS int32 values, the last one what is left,
    drawn from SeedSequence(entropy=seed, spawn_key=(i,)).  A progress
    line is logged after every PROGRESS_CHUNKS chunks.
    """
    chunks = -(-trials // CHUNK_TRIALS)
    for i in range(chunks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        yield rng.integers(0, space.total_triples, size=size, dtype=np.int32)
        if (i + 1) % PROGRESS_CHUNKS == 0:
            log.info("sampled %d of %d chunks", i + 1, chunks)


def _chunk_successes(space: TripleSpace, v: np.ndarray) -> int:
    """Successes "r | a or r | b" among the draws of one chunk's v: the v below A(N)."""
    return int(np.count_nonzero(v < space.successes))


def _check_trials_and_seed(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials >= 2**63:
        raise ValueError(f"trials must fit in 64 signed bits, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


def sample_triples(
    N: int,
    trials: int,
    seed: int,
    space: TripleSpace | None = None,
) -> SampleEstimate:
    """Estimate P(r|a or r|b) over `trials` uniform triple draws.

    Each chunk's successes are counted as soon as it is drawn, so memory
    holds one chunk's draws, not all of them.  Pass a prebuilt
    TripleSpace to amortize the sieve across many calls (it does not affect
    the result).
    """
    _check_trials_and_seed(trials, seed)
    if space is None:
        space = build_triple_space(N)
    elif space.N != N:
        raise ValueError(f"space was built for N={space.N}, not N={N}")
    # map, unlike a for loop, drops each chunk's v before drawing the next.
    successes = sum(map(partial(_chunk_successes, space), _chunk_uniforms(space, trials, seed)))
    p_hat = successes / trials
    std_err = sqrt(p_hat * (1.0 - p_hat) / trials)
    return SampleEstimate(
        N=N, trials=trials, successes=successes, p_hat=p_hat, std_err=std_err, seed=seed
    )
