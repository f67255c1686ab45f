"""Seeded uniform sampling from the triple census.

A triple is drawn uniformly from the B(N) triples (a, b, r) with r | ab and
ab <= N by a three-stage draw:

    1. product n in [1, N] with probability d(n)^2 / B(N): v uniform in
       [0, B(N)), n the first index with cum_weights[n] > v, found by a
       guide table (Chen & Asau 1974; Devroye 1986, III.2.4) that jumps to
       the first candidate of v's bucket and steps forward from there,
    2. a uniform over the d(n) divisors of n, b = n/a,
    3. r uniform over the d(n) divisors of n.

Stage 1's weight is exactly the number of triples with ab = n, so every
triple has probability 1/B(N) and the success indicator "r | a or r | b"
has mean A(N)/B(N).

Reproducibility: the generator is numpy's PCG64.  Trials are processed in
fixed chunks of CHUNK_TRIALS; chunk i uses the stream seeded by
SeedSequence(entropy=seed, spawn_key=(i,)).  The chunk streams depend only
on (seed, i), so the merged estimate is a deterministic function of
(N, trials, seed) no matter how many workers execute the chunks.
"""

import os
from dataclasses import dataclass
from math import sqrt
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .config import ResourceLimitError
from .divisor_core import TABLE_LIMIT, DivisorTable, sieve_divisor_counts
from .divisor_core import divisor_list  # noqa: F401  (kept as divcensus.sampler.divisor_list)

# Chunk size is part of the reproducibility contract: changing it changes
# which stream serves which trial.
CHUNK_TRIALS = 1 << 18

# Above this N the flattened divisor lists (~ N ln N entries) get heavy.
SPACE_LIMIT = 2_000_000


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

    cum_weights[n] = sum_{m<=n} d(m)^2, so cum_weights[N] = B(N).
    flat_divisors holds every divisor list back to back, ascending within
    each n; starts[n] indexes the first divisor of n.
    guide[i] is the first n with cum_weights[n] > i * width, for the
    ceil(B/width) buckets of width = ceil(B/N).
    """

    N: int
    table: DivisorTable
    cum_weights: np.ndarray
    starts: np.ndarray
    flat_divisors: np.ndarray
    guide: np.ndarray
    width: int

    @property
    def total_triples(self) -> int:
        return int(self.cum_weights[self.N])

    def products(self, v: np.ndarray) -> np.ndarray:
        """n with cum_weights[n-1] <= v < cum_weights[n] for each v in [0, B).

        Equal to np.searchsorted(cum_weights, v, side="right"): the guide
        entry of v's bucket is never past the answer, and each step forward
        is taken only by the entries still behind it.
        """
        cum = self.cum_weights
        n = self.guide[v // self.width]
        behind = np.flatnonzero(cum[n] <= v)
        while behind.size:
            n[behind] += 1
            behind = behind[cum[n[behind]] <= v[behind]]
        return n

    def draw(self, trials: int, seed: int, threads: int = 1):
        """(a, b, r) arrays for `trials` seeded draws."""
        _check_trials_and_seed(trials, seed)
        chunks = _run_chunks(_draw_chunk, self, trials, seed, threads)
        a = np.concatenate([c[0] for c in chunks])
        b = np.concatenate([c[1] for c in chunks])
        r = np.concatenate([c[2] for c in chunks])
        return a, b, r


def build_triple_space(N: int, space_limit: int = SPACE_LIMIT) -> TripleSpace:
    """Sieve the weight and divisor tables for sampling at bound N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > min(space_limit, TABLE_LIMIT):
        raise ResourceLimitError(
            f"sampling space refused at N={N} "
            f"(limit {min(space_limit, TABLE_LIMIT)}): divisor lists need "
            f"~N ln N entries in memory"
        )
    table = sieve_divisor_counts(N)
    d = table.counts[1 : N + 1].astype(np.int64)
    cum = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(d * d, out=cum[1:])

    width = -(-int(cum[N]) // N)
    guide = np.searchsorted(cum, np.arange(0, cum[N], width, dtype=np.int64), side="right")

    starts = np.zeros(N + 1, dtype=np.int64)
    if N > 1:
        np.cumsum(d[:-1], out=starts[2:])
    flat = _flat_divisor_lists(N)
    for array in (cum, starts, flat, guide):
        array.setflags(write=False)
    return TripleSpace(
        N=N, table=table, cum_weights=cum, starts=starts, flat_divisors=flat,
        guide=guide, width=width,
    )


def _flat_divisor_lists(N: int) -> np.ndarray:
    """The divisors of 1, 2, ..., N back to back, ascending within each n.

    The multiples k*j (j <= N//k) are laid out k by k, so a stable sort on
    the multiple keeps ascending k within each n.  Keys and divisors are
    int32 (N <= TABLE_LIMIT < 2^31); the result is int64.
    """
    k = np.arange(1, N + 1, dtype=np.int32)
    per_k = N // k
    divisors = np.repeat(k, per_k)
    # j = 1, 2, ..., N//k within the run of each k: a cumsum of ones that
    # drops back to 1 where each run after the first begins.
    multiples = np.ones(len(divisors), dtype=np.int32)
    multiples[np.cumsum(per_k[:-1])] = 1 - per_k[:-1]
    np.cumsum(multiples, out=multiples)
    multiples *= divisors
    # Each temporary is dropped once spent: at N = 10^6 each is 56-112 MiB.
    order = np.argsort(multiples, kind="stable")
    del multiples
    flat = divisors[order]
    del order, divisors
    return flat.astype(np.int64)


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def _draw_chunk(space: TripleSpace, count: int, seed: int, index: int):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    v = rng.integers(0, space.total_triples, size=count, dtype=np.int64)
    n = space.products(v)
    d_n = space.table.counts[n].astype(np.int64)
    base = space.starts[n]
    a = space.flat_divisors[base + rng.integers(0, d_n)]
    r = space.flat_divisors[base + rng.integers(0, d_n)]
    b = n // a
    return a, b, r


def _chunk_successes(space: TripleSpace, count: int, seed: int, index: int) -> int:
    """Successes "r | a or r | b" among one chunk's draws; its arrays die here."""
    a, b, r = _draw_chunk(space, count, seed, index)
    return int(np.count_nonzero((a % r == 0) | (b % r == 0)))


def _check_trials_and_seed(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


def _run_chunks(work, space: TripleSpace, trials: int, seed: int, threads: int) -> list:
    """[work(space, size, seed, i) for each chunk i], on up to `threads` workers.

    No more workers start than there are chunks or CPUs, however large
    `threads` is; the results do not depend on the count.
    """
    sizes = _chunk_sizes(trials)
    workers = min(threads, len(sizes), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda ic: work(space, ic[1], seed, ic[0]), enumerate(sizes)))
    return [work(space, size, seed, i) for i, size in enumerate(sizes)]


def sample_triples(
    N: int,
    trials: int,
    seed: int,
    threads: int = 1,
    space: TripleSpace | None = None,
) -> SampleEstimate:
    """Estimate P(r|a or r|b) over `trials` uniform triple draws.

    Each chunk's successes are counted as soon as it is drawn, so memory
    holds one chunk's draws per worker, not all of them.  Pass a prebuilt
    TripleSpace to amortize the sieve across many calls (it does not affect
    the result).
    """
    _check_trials_and_seed(trials, seed)
    if space is None:
        space = build_triple_space(N)
    elif space.N != N:
        raise ValueError(f"space was built for N={space.N}, not N={N}")
    successes = sum(_run_chunks(_chunk_successes, space, trials, seed, threads))
    p_hat = successes / trials
    std_err = sqrt(p_hat * (1.0 - p_hat) / trials)
    return SampleEstimate(
        N=N, trials=trials, successes=successes, p_hat=p_hat, std_err=std_err, seed=seed
    )
