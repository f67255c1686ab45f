"""Sieve, summatory and summatory-table primitives against trial-division oracles."""

import math
import tracemalloc
from fractions import Fraction
from math import factorial, gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divcensus import census, divisor_core
from divcensus.config import ResourceLimitError
from divcensus.divisor_core import (
    SUBLINEAR_TABLE_CAP,
    SUMMATORY_BATCH_MAX_X,
    SUMMATORY_MAX_X,
    DivisorTable,
    _mobius_table,
    divisor_square_summatory,
    divisor_square_summatory_segmented,
    divisor_summatory,
    divisor_summatory_batch,
    iter_divisor_segments,
    quotient_sums,
    sieve_divisor_counts,
    summatory_table,
    summatory_table_size,
)

EULER_GAMMA = 0.5772156649015329


def trial_division_d(n: int) -> int:
    """Independent oracle: count divisors by remainder tests up to sqrt(n)."""
    count = 0
    for k in range(1, isqrt(n) + 1):
        if n % k == 0:
            count += 1 if k * k == n else 2
    return count


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, isqrt(n) + 1))


def whole_table_sieve(n_max: int) -> np.ndarray:
    """d(0..n_max) as int32, every k <= sqrt(n_max) strided over the whole table.

    The unblocked route, kept as the reference of the blocked sieve.
    """
    counts = np.zeros(n_max + 1, dtype=np.int32)
    k = np.arange(1, isqrt(n_max) + 1)
    counts[k * k] -= 1
    for step, start in zip(range(1, k.size + 1), (k * k).tolist()):
        counts[start::step] += 2
    return counts


TABLE = sieve_divisor_counts(10_000)
ORACLE_D = [0] + [trial_division_d(n) for n in range(1, 10_001)]


# -- sieve -------------------------------------------------------------------

def test_whole_table_reference_matches_trial_division():
    assert whole_table_sieve(10_000).tolist() == ORACLE_D


@pytest.mark.parametrize("y", [1, 2, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5, 2**24])
def test_blocked_tables_match_the_whole_table_sieve_bit_for_bit(y):
    want = whole_table_sieve(y)
    counts = sieve_divisor_counts(y).counts
    assert counts.dtype == np.int32 and np.array_equal(counts, want)
    del counts
    np.cumsum(want, out=want)
    prefix = summatory_table(y)
    assert prefix.dtype == np.int32 and np.array_equal(prefix, want)


@pytest.mark.parametrize("block", [1, 7, 777])
def test_every_producer_is_exact_across_block_edges(block, monkeypatch):
    monkeypatch.setattr(divisor_core, "_SIEVE_BLOCK", block)
    n = 10_000
    assert sieve_divisor_counts(n).counts.tolist() == ORACLE_D
    assert summatory_table(n).tolist() == np.cumsum(ORACLE_D).tolist()
    segments = list(iter_divisor_segments(n))
    assert [lo for lo, _ in segments] == list(range(1, n + 1, block))
    assert np.concatenate([c for _, c in segments]).tolist() == ORACLE_D[1:]


def test_sieve_matches_trial_division_everywhere():
    assert TABLE.counts[1:].tolist() == ORACLE_D[1:]


def test_sieve_ends_exactly_at_every_small_n_max():
    for n_max in range(1, 301):
        assert sieve_divisor_counts(n_max).counts[1:].tolist() == ORACLE_D[1 : n_max + 1]


def test_sieve_known_values():
    assert sieve_divisor_counts(1).counts.tolist() == [0, 1]
    assert TABLE.counts[6] == 4
    assert TABLE.counts[12] == 6


def test_sieve_prime_entries_are_two():
    for p in range(2, 1000):
        if is_prime(p):
            assert TABLE.counts[p] == 2


def test_sieve_composite_entries_at_least_two():
    assert (np.asarray(TABLE.counts[2:]) >= 2).all()


@given(
    m=st.integers(min_value=1, max_value=99),
    n=st.integers(min_value=1, max_value=99),
)
def test_sieve_multiplicative_on_coprime_pairs(m, n):
    if gcd(m, n) != 1:
        return
    assert TABLE.counts[m * n] == TABLE.counts[m] * TABLE.counts[n]


def test_sieve_rejects_zero():
    with pytest.raises(ValueError):
        sieve_divisor_counts(0)


def test_table_is_read_only():
    with pytest.raises(ValueError):
        TABLE.counts[5] = 99


# -- d_3 and c -----------------------------------------------------------------

def exponents_by_factoring(n: int) -> list[int]:
    """The exponents of n's prime factorization, by trial division."""
    exponents, p = [], 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            exponents.append(a)
        p += 1
    return exponents + [1] * (n > 1)


def d3_and_c_by_factoring(n: int) -> tuple[int, int]:
    """d_3(n) and c(n), both multiplicative: (a+1)(a+2)/2 and sum_{2j<=a} (a-2j+1) at p^a."""
    d3 = c = 1
    for a in exponents_by_factoring(n):
        d3 *= (a + 1) * (a + 2) // 2
        c *= sum(a - 2 * j + 1 for j in range(a // 2 + 1))
    return d3, c


D3_AND_C = [(0, 0)] + [d3_and_c_by_factoring(n) for n in range(1, 2001)]


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 2001), (1, 2001), (0, 1), (1, 2), (961, 1500), (997, 2001), (1999, 2000), (2000, 2001)],
)
def test_d3_and_c_match_factoring(lo, hi):
    # Blocks from 0, from 1, from a perfect square (31^2) and from 997, a
    # prime, which no small k divides.
    d3, c = divisor_core.sieve_d3_and_c(TABLE.counts, lo, hi)
    assert d3.dtype == c.dtype == np.int32
    assert list(zip(d3.tolist(), c.tolist())) == D3_AND_C[lo:hi]


def test_d3_and_c_are_exact_across_block_edges():
    for step in (1, 37, 64, 1000):
        blocks = [
            divisor_core.sieve_d3_and_c(TABLE.counts, lo, min(lo + step, 2001))
            for lo in range(0, 2001, step)
        ]
        d3, c = (np.concatenate(parts) for parts in zip(*blocks))
        assert list(zip(d3.tolist(), c.tolist())) == D3_AND_C


def test_d3_and_c_hold_their_int32_bound_at_the_table_cap():
    # c(n) <= d_3(n) <= d(n)^2 < 2^31 up to 2^24, the sweep's largest
    # max_n.  14414400 has the most divisors below 2^24, 504 of them.
    top = SUBLINEAR_TABLE_CAP
    d = sieve_divisor_counts(top).counts
    assert int(d.argmax()) == 14414400 and d[14414400] == 504
    for lo, hi in ((14414400 - 2000, 14414400 + 2000), (top - 4000, top + 1)):
        d3, c = divisor_core.sieve_d3_and_c(d, lo, hi)
        square = d[lo:hi].astype(np.int64) ** 2
        assert (c <= d3).all() and (d3 <= square).all() and square.max() < 2**31
        assert d3.dtype == c.dtype == np.int32
        for n in (lo, hi - 1, 14414400, *range(lo, hi, 397)):
            if lo <= n < hi:
                assert (int(d3[n - lo]), int(c[n - lo])) == d3_and_c_by_factoring(n), n


# -- divisor_summatory -------------------------------------------------------

def test_summatory_known_values():
    assert divisor_summatory(1) == 1
    assert divisor_summatory(4) == 8
    assert divisor_summatory(100) == 482


def test_summatory_matches_naive_up_to_1e4():
    running = 0
    for x in range(1, 10_001):
        running += ORACLE_D[x]
        assert divisor_summatory(x) == running, f"D({x})"


def test_summatory_finite_difference_is_d():
    for x in range(2, 1001):
        assert divisor_summatory(x) - divisor_summatory(x - 1) == ORACLE_D[x]


def test_summatory_strictly_increasing():
    values = [divisor_summatory(x) for x in range(1, 500)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_summatory_at_least_x():
    for x in (1, 2, 17, 1000, 12345):
        assert divisor_summatory(x) >= x


def test_summatory_vector_branch_agrees_with_segment_sums():
    # The segmented sieve is a wholly different route to the same number.
    for x in (2_000_000, 2_000_003):
        by_sieve = sum(int(block.sum()) for _, block in iter_divisor_segments(x))
        assert divisor_summatory(x) == by_sieve


def test_summatory_tracks_main_terms():
    # soft sanity band; the classical error term is far below sqrt(x)
    for x in (10, 100, 10_000, 10**6):
        main = x * math.log(x) + (2 * EULER_GAMMA - 1) * x
        assert abs(divisor_summatory(x) - main) <= 2 * math.sqrt(x) + 2


def test_summatory_rejects_zero():
    with pytest.raises(ValueError):
        divisor_summatory(0)


def test_summatory_refuses_above_int64_bound(monkeypatch):
    monkeypatch.setattr(divisor_core, "isqrt", None)  # the refusal comes before any work
    with pytest.raises(ResourceLimitError, match="SUMMATORY_MAX_X"):
        divisor_summatory(SUMMATORY_MAX_X + 1)


# -- divisor_summatory_batch -------------------------------------------------

def test_batch_summatory_matches_per_x_route_up_to_1e5():
    x = np.arange(10**5, 0, -1, dtype=np.int64)
    assert divisor_summatory_batch(x).tolist() == [divisor_summatory(int(v)) for v in x]
    # Repeats, gaps and the empty array.
    picked = np.sort(np.random.default_rng(1).integers(1, 10**5, size=5000))[::-1]
    assert divisor_summatory_batch(picked).tolist() == [divisor_summatory(int(v)) for v in picked]
    assert divisor_summatory_batch(np.array([], dtype=np.int64)).size == 0


@settings(max_examples=15, deadline=None)
@given(x=st.lists(st.integers(min_value=1, max_value=2**48 - 1), min_size=1, max_size=3))
def test_batch_summatory_matches_per_x_route_below_2_48(x):
    x = sorted(x, reverse=True)
    assert divisor_summatory_batch(np.array(x, dtype=np.int64)).tolist() == [
        divisor_summatory(v) for v in x
    ]


def test_batch_summatory_at_its_bound_and_refused_above(monkeypatch):
    # isqrt(SUMMATORY_BATCH_MAX_X) = 2^24 columns: the one row is split
    # across many column blocks.  Beside it, a row of one column block.
    x = np.array([SUMMATORY_BATCH_MAX_X, 10**6], dtype=np.int64)
    assert isqrt(SUMMATORY_BATCH_MAX_X) > 64 * divisor_core._BLOCK_CELLS
    assert divisor_summatory_batch(x).tolist() == [divisor_summatory(int(v)) for v in x]
    # A smaller block splits rows of the 10^4 range too.
    monkeypatch.setattr(divisor_core, "_BLOCK_CELLS", 16)
    small = np.arange(10_000, 8_999, -7, dtype=np.int64)
    assert divisor_summatory_batch(small).tolist() == [divisor_summatory(int(v)) for v in small]
    with pytest.raises(ResourceLimitError, match="SUMMATORY_BATCH_MAX_X"):
        divisor_summatory_batch(np.array([SUMMATORY_BATCH_MAX_X + 1, 5], dtype=np.int64))
    with pytest.raises(ValueError, match=">= 1"):
        divisor_summatory_batch(np.array([5, 0], dtype=np.int64))
    with pytest.raises(ValueError, match="nonincreasing"):
        divisor_summatory_batch(np.array([5, 6], dtype=np.int64))


def test_batch_summatory_is_exact_across_the_buffer_threshold():
    # The pass's x at N = 4e8: rows 20000 down to 368 wide, many to a
    # block, on both sides of the default ufunc buffer's bufsize / 3 = 2730
    # columns, where the broadcast operands of a block go through it.
    n = 4 * 10**8
    M = n // (summatory_table_size(n) + 1)
    assert M == 2947
    x = n // np.arange(1, M + 1, dtype=np.int64)
    assert isqrt(int(x[0])) == 20000 and isqrt(int(x[-1])) == 368
    assert divisor_summatory_batch(x).tolist() == [divisor_summatory(int(v)) for v in x]


def test_batch_summatory_restores_the_ufunc_buffer(monkeypatch):
    x = np.array([10**9, 10**6, 7], dtype=np.int64)
    want = [divisor_summatory(int(v)) for v in x]
    old = np.setbufsize(4096)  # the caller's own setting, not numpy's default
    try:
        assert divisor_summatory_batch(x).tolist() == want
        assert np.getbufsize() == 4096
        # A tile op that raises still leaves the caller's buffer behind it.
        seen = []

        def failing_row_sums(*args):
            seen.append(np.getbufsize())
            raise RuntimeError("tile op failed")

        monkeypatch.setattr(np, "einsum", failing_row_sums)
        with pytest.raises(RuntimeError, match="tile op failed"):
            divisor_summatory_batch(x)
        assert seen == [divisor_core._UFUNC_BUFSIZE]
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)


def test_batch_summatory_lends_its_workspace_and_refuses_one_too_small():
    # 10^12 // m for m < 58 is wider than the head of 2^17 columns, so the
    # reciprocals past the head come from the workspace too.
    n = 10**12
    x = n // np.arange(1, 300, dtype=np.int64)
    want = divisor_summatory_batch(x)
    assert want[[0, 57, 298]].tolist() == [divisor_summatory(int(v)) for v in x[[0, 57, 298]]]
    workspace = divisor_core.BatchWorkspace(n, 300)
    assert workspace.reciprocals.size == workspace.inv.size == divisor_core._BLOCK_CELLS
    for _ in range(2):  # reused, whatever the last call left in it
        assert np.array_equal(divisor_summatory_batch(x, workspace), want)
    assert np.array_equal(divisor_summatory_batch(x[100:], workspace), want[100:])
    small = np.arange(10_000, 8_999, -7, dtype=np.int64)
    want_small = [divisor_summatory(int(v)) for v in small]
    assert divisor_summatory_batch(small, workspace).tolist() == want_small
    for too_small in (divisor_core.BatchWorkspace(n - 1, 300), divisor_core.BatchWorkspace(n, 298)):
        with pytest.raises(ValueError, match="workspace holds"):
            divisor_summatory_batch(x, too_small)


# -- sum of d(n)^2 -----------------------------------------------------------

def test_square_summatory_known_values():
    assert divisor_square_summatory(1, TABLE) == 1
    assert divisor_square_summatory(4, TABLE) == 18
    assert divisor_square_summatory(6, TABLE) == 38


def test_square_summatory_rejects_x_beyond_table():
    with pytest.raises(ValueError, match="n_max"):
        divisor_square_summatory(10_001, TABLE)
    with pytest.raises(ValueError):
        divisor_square_summatory(0, TABLE)


def test_square_summatory_strictly_increasing():
    values = [divisor_square_summatory(x, TABLE) for x in range(1, 300)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_segmented_square_summatory_matches_table(monkeypatch):
    want = divisor_square_summatory(10_000, TABLE)
    assert divisor_square_summatory_segmented(10_000) == want
    for block in (999, 1):
        monkeypatch.setattr(divisor_core, "_SIEVE_BLOCK", block)
        assert divisor_square_summatory_segmented(10_000) == want


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(min_value=1, max_value=10_000),
    block=st.integers(min_value=1, max_value=3000),
)
def test_segmented_square_summatory_any_segmentation(x, block):
    want = divisor_square_summatory(x, TABLE)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisor_core, "_SIEVE_BLOCK", block)
        assert divisor_square_summatory_segmented(x) == want


def test_segment_iteration_covers_range_exactly(monkeypatch):
    monkeypatch.setattr(divisor_core, "_SIEVE_BLOCK", 777)
    seen = []
    for lo, block in iter_divisor_segments(5000):
        assert len(block) <= 777 and lo == len(seen) + 1
        seen.extend(block.tolist())
    assert seen == ORACLE_D[1:5001]


# -- sum of d(n)^2 by the hyperbola identity ----------------------------------

TABLE_30K = sieve_divisor_counts(30_000)


def moebius_by_factoring(n: int) -> int:
    """Independent oracle: mu(n) by trial-division factoring."""
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def omega_by_factoring(n: int) -> int:
    """Independent oracle: the number of distinct primes of n, by trial division."""
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def test_mobius_table_matches_factoring():
    mu = _mobius_table(5000)
    assert mu[0] == 0
    assert mu[1:].tolist() == [moebius_by_factoring(n) for n in range(1, 5001)]
    assert _mobius_table(1).tolist() == [0, 1]


def weights_to(M: int) -> np.ndarray:
    """The pass weights w(0..M) of the table D(0..M), whose pass at N = M (M + 1) reaches M."""
    prefix = summatory_table(M)
    assert M * (M + 1) // prefix.size == M
    return census._weights(prefix, M)


def test_pass_weights_match_factoring():
    weights = weights_to(5000)
    assert weights.dtype == np.int32
    assert weights.tolist() == [0] + [2 ** omega_by_factoring(n) for n in range(1, 5001)]
    assert weights_to(1).tolist() == [0, 1]
    assert weights_to(30030)[30030] == 2**6  # 2 * 3 * 5 * 7 * 11 * 13
    assert census.pass_sums(1000, summatory_table(1000)) == (0, 0, 0)  # M = 0: no weights
    # 2^omega(m) = sum_{k^2 u = m} mu(k) d(u), the weight of D(N // m) in the pass.
    for m in range(1, 2001):
        weight = sum(
            moebius_by_factoring(k) * ORACLE_D[m // (k * k)]
            for k in range(1, isqrt(m) + 1)
            if m % (k * k) == 0
        )
        assert weight == weights[m], m


def test_pass_weights_at_the_domain_top():
    # y = M = 2^24, the largest M a census table reaches.  Every weight is a
    # power of two, at most 2^8: 2 * 3 * ... * 19 = 9699690 <= 2^24 has 8
    # distinct primes, and every m <= 2^24 has at most 8.
    top = SUBLINEAR_TABLE_CAP
    weights = weights_to(top)
    assert weights.size == top + 1 and weights[0] == 0
    rest = weights[1:]
    assert rest.min() >= 1 and rest.max() == 2**8
    assert not (rest & (rest - 1)).any()
    assert weights[9699690] == 2**8 and weights[top] == 2  # 2^24 has one prime
    rng = np.random.default_rng(7)
    sampled = [*rng.integers(1, top + 1, size=300).tolist(), top - 1, 14414400]
    for m in sampled:
        assert weights[m] == 2 ** omega_by_factoring(m), m


def test_mobius_table_traces_under_eight_bytes_an_entry():
    n = 10**6
    tracemalloc.start()
    _mobius_table(n)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * n


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=30_000))
def test_count_all_triples_matches_table(n):
    assert census.count_all_triples(n) == divisor_square_summatory(n, TABLE_30K)


class LookupSpy(np.ndarray):
    """A table that records the size of every array of indices it is read at."""

    def __getitem__(self, index):
        if isinstance(index, np.ndarray):
            self.sizes.append(index.size)
        return self.view(np.ndarray)[index]


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=30_000))
def test_count_all_triples_splits_runs_across_steps(chunk, n):
    # With a chunk shorter than the runs of one k, each run spans several
    # steps.  After one read of the corners, each step reads the table at
    # three arrays of its pairs' length, for D(x_k // u), D(u) and D(u - 1):
    # none holds more than the chunk's pairs, and together the steps hold
    # each pair once.
    prefix = census.census_table(n)
    weighted = census.pass_sums(n, prefix)[1]
    spy = prefix.view(LookupSpy)
    spy.sizes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_PAIR_CHUNK", chunk)
        got = census._b_walk(n, spy, weighted)
    assert got == divisor_square_summatory(n, TABLE_30K)
    corners, *steps = spy.sizes
    assert steps[0::3] == steps[1::3] == steps[2::3]
    assert max(steps, default=0) <= chunk
    # Only the pairs with k^2 u > M are walked; the pass has the rest.
    root = isqrt(n)
    y = summatory_table_size(n)
    m_max = n // (y + 1)
    squarefree = [k for k in range(1, root + 1) if moebius_by_factoring(k)]
    assert corners == len(squarefree)
    pairs = sum(root // k - m_max // (k * k) for k in squarefree)
    assert sum(steps[0::3]) == pairs


def test_count_all_triples_at_squares_and_neighbours():
    # isqrt(N) and every isqrt(N // k^2) step at a perfect square.
    for m in (1, 2, 3, 4, 12, 60, 99, 100, 173):
        for n in (m * m - 1, m * m, m * m + 1):
            if n >= 1:
                want = divisor_square_summatory(n, TABLE_30K)
                assert census.count_all_triples(n) == want, n


@pytest.mark.parametrize("n", [10**6, 10**7])
def test_count_all_triples_matches_segmented(n):
    assert census.count_all_triples(n) == divisor_square_summatory_segmented(n)


def test_count_all_triples_rejects_and_refuses():
    with pytest.raises(ValueError):
        census.count_all_triples(0)
    # d(u) is needed up to sqrt(N), which must fit under the table cap;
    # the refusal comes before any work.
    with pytest.raises(ResourceLimitError, match="table cap"):
        census.count_all_triples((SUBLINEAR_TABLE_CAP + 1) ** 2)


def ln2_upper_bound() -> Fraction:
    """The rational bound ln 2 < 7/10, proved with exact arithmetic.

    e exceeds the partial sum of 1/k! to k = 15, and 2^10 < e^7 gives
    ln 2 < 7/10.
    """
    e_lo = sum(Fraction(1, factorial(k)) for k in range(16))
    assert 2**10 < e_lo**7
    return Fraction(7, 10)


CENSUS_TOP = (SUBLINEAR_TABLE_CAP + 1) ** 2


def test_int64_census_bound_at_threshold():
    # The census takes N < CENSUS_TOP <= 2^49. S and C are at most
    # D_3(N) <= N (1 + ln N)^2, checked with ln 2 < 7/10: they fit int64.
    hi = ln2_upper_bound()
    assert CENSUS_TOP <= 2**49
    assert CENSUS_TOP * (1 + 49 * hi) ** 2 < 2**63


def test_int64_hyperbola_bound_at_threshold():
    # B's per-x sums are at most D_4(x) <= x (1 + ln x)^3 for x < CENSUS_TOP:
    # they fit uint64.
    hi = ln2_upper_bound()
    assert CENSUS_TOP <= 2**49
    assert CENSUS_TOP * (1 + 49 * hi) ** 3 < 2**64
    # P, the sum over the k with mu(k) = 1, is at most (6/5) N (1 + ln N)^3:
    # the smallest such k > 1 is 6, and sum_{k>=6} 1/k^2 < 1/5 (the tail past
    # 100 is below 1/100).  M, over mu(k) = -1, has zeta(2) - 1 < 1 in its
    # place.  Both fit uint64.
    assert [k for k in range(2, 7) if moebius_by_factoring(k) == 1] == [6]
    assert sum(Fraction(1, k * k) for k in range(6, 101)) + Fraction(1, 100) < Fraction(1, 5)
    assert Fraction(6, 5) * CENSUS_TOP * (1 + 49 * hi) ** 3 < 2**64
    # The corner term sum_k mu(k) D(isqrt(N) // k)^2 is one int64 dot; its
    # terms add up to at most zeta(2) N (1 + ln N)^2 < 2 N (1 + ln N)^2.
    assert 2 * CENSUS_TOP * (1 + 49 * hi) ** 2 < 2**63
    # The int32 prefix sums of the capped table: D(y) <= y (1 + ln y) < 2^31.
    assert SUBLINEAR_TABLE_CAP == 2**24
    assert 2**24 * (1 + 24 * hi) < 2**31


def test_batch_summatory_bounds_at_threshold():
    # floor((x + 1/2) * fl(1/k)) = x // k needs x + 1/2 < 2^50, and each row
    # sum is at most x (1 + ln sqrt(x)) plus the k - 1 in the cells past
    # sqrt(x), at most w^2 / 2 <= 2^47: below 2^53, as sqrt(x) < 2^25.
    hi = ln2_upper_bound()
    assert SUMMATORY_BATCH_MAX_X == CENSUS_TOP - 1
    assert SUMMATORY_BATCH_MAX_X + 1 < 2**50
    assert SUMMATORY_BATCH_MAX_X * (1 + 25 * hi) + 2**47 < 2**53
    # The pass's weighted sum, at most N (1 + ln N) (1 + ln sqrt(N))^2, fits int64.
    assert CENSUS_TOP * (1 + 49 * hi) * (1 + 25 * hi) ** 2 < 2**62


def test_reciprocal_floor_is_exact_at_multiples_near_the_bound():
    # x // k by the reciprocal fails first where k divides x: (x + 1/2) / k
    # then sits 1/(2k) above an integer.  Check x = jk - 1, jk, jk + 1
    # near SUMMATORY_BATCH_MAX_X for random k <= 2^24.
    rng = np.random.default_rng(7)
    k = rng.integers(1, 2**24 + 1, size=1 << 16)
    j = SUMMATORY_BATCH_MAX_X // k - rng.integers(0, 3, size=k.size)
    inv = 1.0 / k.astype(np.float64)
    for x in (j * k - 1, j * k, j * k + 1):
        x = np.minimum(x, SUMMATORY_BATCH_MAX_X)
        assert (np.floor((x + 0.5) * inv).astype(np.int64) == x // k).all()


def test_float_root_is_isqrt_near_the_bound():
    # The float64 root of x floors to isqrt(x) while x < 2^52; the closest
    # calls are x = r^2 - 1 just below a square.
    r = np.arange(2**24 - 2**12, 2**24 + 2, dtype=np.int64)
    for x in (r * r - 1, r * r, r * r + 1):
        x = x[x <= SUMMATORY_BATCH_MAX_X]
        root = np.sqrt(x.astype(np.float64)).astype(np.int64)
        assert (root * root <= x).all() and ((root + 1) ** 2 > x).all()


# -- quotient_sums -----------------------------------------------------------------

def row_sums_by_int64(x, cap):
    """sum_{k<=min(isqrt(x), cap)} x // k for each x, by int64 floor divisions."""
    return [
        int((int(v) // np.arange(1, min(isqrt(int(v)), cap) + 1, dtype=np.int64)).sum())
        for v in x
    ]


def test_quotient_sums_match_int64_divisions_and_restore_the_ufunc_buffer():
    # Rows from one cell to 1000, many to a block, on x from 10^9 down to
    # 1: at caps 100 and 1000 some rows are narrower than the cap and end
    # at isqrt(x), in blocks beside rows the cap cuts.  The caller's ufunc
    # buffer is left as it was.
    rng = np.random.default_rng(3)
    x = np.sort(np.r_[rng.integers(1, 10**9, size=200), rng.integers(1, 10**4, size=100)])[::-1]
    root = np.array([isqrt(int(v)) for v in x])
    old = np.setbufsize(4096)
    try:
        for cap in (1, 2, 7, 100, 1000):
            assert quotient_sums(x, cap).tolist() == row_sums_by_int64(x, cap)
            assert np.getbufsize() == 4096
    finally:
        np.setbufsize(old)
    for cap in (100, 1000):
        assert (root < cap).any() and (root > cap).any()
    # Uncapped, and capped past every row, the sums are the batched D's.
    want = ((divisor_summatory_batch(x) + root * root) // 2).tolist()
    assert quotient_sums(x).tolist() == quotient_sums(x, 10**6).tolist() == want
    small = np.array([30, 6, 5, 1], dtype=np.int64)
    assert quotient_sums(small, 6).tolist() == [68, 9, 7, 1]
    assert quotient_sums(small, 3).tolist() == [55, 9, 7, 1]
    assert quotient_sums(np.array([], dtype=np.int64), 3).size == 0


def test_quotient_sums_are_exact_at_the_domain_top():
    # Rows at and just below the largest x, whose isqrt(x) = 2^24 the caps
    # cut: 2^16 = icbrt(x), as in S, 2^17, the widest row of one column
    # block, and 2^17 + 1, a lone row whose second column block lies past
    # the head.  Each row sum is at most x (1 + ln cap) < 2^52.
    hi = ln2_upper_bound()
    assert divisor_core._BLOCK_CELLS == 2**17
    assert SUMMATORY_BATCH_MAX_X == 2**48 + 2**25
    assert SUMMATORY_BATCH_MAX_X * (1 + 18 * hi) < 2**52
    x = SUMMATORY_BATCH_MAX_X - np.array([0, 1, 2, 720720, 2**24], dtype=np.int64)
    for cap in (2**16, 2**17, 2**17 + 1):
        got = quotient_sums(x, cap)
        assert got.tolist() == row_sums_by_int64(x, cap)
        assert (got < 2**52).all()
    assert quotient_sums(np.array([SUMMATORY_BATCH_MAX_X]), 1).tolist() == [
        SUMMATORY_BATCH_MAX_X
    ]


def test_quotient_sums_refuse_a_cap_below_1():
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            quotient_sums(np.array([5], dtype=np.int64), cap)


def test_machine_integer_bounds():
    # divisor_summatory's int64 sum is at most D(x) <= x (1 + ln x) < 2^63
    # for x <= 2^52.
    hi = ln2_upper_bound()
    assert SUMMATORY_MAX_X == 2**52
    assert 2**52 * (1 + 52 * hi) < 2**63


def test_piltz_bound_holds_for_small_x():
    # D_k(x) <= x (1 + ln x)^(k-1) for k = 2 and 4, against a sieved d_4.
    n = 3000
    d = TABLE.counts[: n + 1].astype(np.int64)
    d4 = np.zeros(n + 1, dtype=np.int64)
    for a in range(1, n + 1):
        d4[a :: a] += d[a] * d[1 : n // a + 1]
    D2, D4 = np.cumsum(d), np.cumsum(d4)
    for x in range(1, n + 1):
        assert D2[x] <= x * (1 + math.log(x))
        assert D4[x] <= x * (1 + math.log(x)) ** 3


def sublinear_in_python_ints(n: int, table: np.ndarray) -> tuple[int, int]:
    """B by the k loop in Python ints, and P+ over its pairs read from the table D(0..y).

    D(q) is the table's entry q for q <= y and the per-x
    divisor_summatory above, and d(u) = D(u) - D(u - 1).
    """
    prefix = [int(v) for v in table]
    y = len(prefix) - 1
    root = isqrt(n)
    total = positive = 0
    for k in range(1, root + 1):
        mu = moebius_by_factoring(k)
        x = n // (k * k)
        if mu:
            hyperbola = above = 0
            for u in range(1, isqrt(x) + 1):
                q = x // u
                d_sum = prefix[q] if q <= y else divisor_summatory(q)
                term = (prefix[u] - prefix[u - 1]) * d_sum
                hyperbola += term
                above += term if q > y else 0
            total += mu * (2 * hyperbola - prefix[isqrt(x)] ** 2)
            positive += hyperbola - above if mu == 1 else 0
    return total, positive


def test_hyperbola_sums_exact_between_2_63_and_2_64():
    # Near N = 2^48 the proven bound on P+, the sum over the pairs with
    # mu(k) = 1 that the table answers, passes 2^63: a sum between the two
    # must reduce exactly, where int64 wraps.  Here, in a table for
    # N = 10^4 of size 1000, D(909) and D(769), which only the pairs
    # (k, u) = (1, 11) and (1, 13) read, with d(11) = d(13) = 2, are faked
    # near 2^61, so that P+ = 2^63 + O(10^7).  Above sqrt(N) = 100 the
    # prefix is only read as D, never as d(u).
    n, y = 10**4, 1000
    real = summatory_table(y)
    prefix = real.astype(np.int64)
    prefix[909], prefix[769] = 2**61 + 7, 2**61 + 3
    want, positive = sublinear_in_python_ints(n, prefix)
    assert 2**63 < positive < 2**64
    got = census._b_walk(n, prefix, census.pass_sums(n, prefix)[1])
    assert type(got) is int and got == want
    assert sublinear_in_python_ints(n, real)[0] == divisor_square_summatory(n, TABLE)


# -- summatory table -----------------------------------------------------------

def test_summatory_table_size_rule():
    assert summatory_table_size(1) == 1
    assert summatory_table_size(10**6) == 2499  # int(1e6 ** (2/3)) = 9999, then // 4
    assert summatory_table_size(10**9) == 249_999
    assert summatory_table_size(2000) == isqrt(2000)  # sqrt(N) is the floor up to N = 4096
    for n in (2, 99, 6000, 10**7, 10**12):
        y = summatory_table_size(n)
        assert isqrt(n) <= y <= SUBLINEAR_TABLE_CAP
    # Capped from N^(2/3) / 4 = 2^24, N = 2^39, on, then at sqrt(N) = 2^24
    # and beyond, where y < sqrt(N); a huge N never reaches the float power.
    assert summatory_table_size(2**39 - 2**10) < SUBLINEAR_TABLE_CAP
    assert summatory_table_size(2**39 + 2**10) == SUBLINEAR_TABLE_CAP
    assert summatory_table_size(2**50) == SUBLINEAR_TABLE_CAP
    assert summatory_table_size(10**400) == SUBLINEAR_TABLE_CAP
    with pytest.raises(ValueError):
        summatory_table_size(0)


def test_summatory_table_holds_d_and_prefix_sums():
    table = summatory_table(10_000)
    assert table.size == 10_001
    assert table.tolist() == np.cumsum(ORACLE_D).tolist()
    assert np.diff(table).tolist() == ORACLE_D[1:]
    assert table.dtype == np.int32 and not table.flags.writeable
    with pytest.raises(ValueError, match="SUBLINEAR_TABLE_CAP"):
        summatory_table(SUBLINEAR_TABLE_CAP + 1)
    with pytest.raises(ValueError):
        summatory_table(0)


def test_summatory_table_lookup():
    table = summatory_table(100)
    q = np.array([1, 100, 99, 7, 100], dtype=np.int64)
    assert table[q].tolist() == [divisor_summatory(int(v)) for v in q]


@pytest.mark.parametrize("q", [101, 5001, 10**4 + 1, 2**40])
def test_summatory_table_refuses_q_above_the_table(q):
    # Every D above the table comes from its pass, never from a lookup.
    table = summatory_table(100)
    with pytest.raises(IndexError):
        table[np.array([3, q], dtype=np.int64)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=30_000), data=st.data())
def test_summatory_table_answers_every_quotient(n, data):
    # Each D(n // m) is a lookup when n // m <= y, and otherwise, m <= M,
    # a term of the pass: plain, weighted by 2^omega(m), and, at a square
    # m, in the squares sum.
    y = data.draw(st.integers(min_value=isqrt(n), max_value=n), label="y")
    table = summatory_table(y)
    m = np.arange(1, n + 1, dtype=np.int64)
    q = n // m
    below = q <= y
    assert n // table.size == n // (y + 1) == int((~below).sum())
    assert table[q[below]].tolist() == [divisor_summatory(v) for v in q[below].tolist()]
    above = [(int(v), divisor_summatory(int(n // v))) for v in m[~below]]
    weights = {v: 2 ** omega_by_factoring(v) for v, _ in above}
    assert census.pass_sums(n, table) == (
        sum(d for _, d in above),
        sum(weights[v] * d for v, d in above),
        sum(d for v, d in above if isqrt(v) ** 2 == v),
    )


def test_pass_is_taken_once_per_table(monkeypatch):
    n = 10**6
    table = summatory_table(1000)
    want = census.pass_sums(n, table)  # M = 999 in one step
    calls, workspaces = [], []
    real = census.divisor_summatory_batch

    def spy(x, *workspace):
        calls.append(x.size)
        workspaces.extend(workspace)
        return real(x, *workspace)

    monkeypatch.setattr(census, "divisor_summatory_batch", spy)
    monkeypatch.setattr(census, "_PASS_ROWS", 300)  # M = 999 in four steps
    sums = census.pass_sums(n, table)
    assert calls == [300, 300, 300, 99]
    # One workspace for every call, sized for the widest row, n // 1.
    assert len(workspaces) == 4 and len({id(w) for w in workspaces}) == 1
    assert (workspaces[0].x_max, workspaces[0].rows) == (n, 300)
    # The squares 17^2 | 18^2, 24^2 | 25^2 and 30^2 | 31^2 sit either side
    # of a step's end.
    assert sums == want
    assert sums[2] == sum(divisor_summatory(n // (r * r)) for r in range(1, 32))


def test_summatory_table_peaks_at_four_bytes_an_entry():
    y = 10**6
    tracemalloc.start()
    summatory_table(y)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 4 * y + 2**16


def test_count_all_triples_takes_a_table():
    n = 30_000
    want = divisor_square_summatory(n, TABLE_30K)
    # y = n - 1 leaves M = 1 to the pass; y = n leaves M = 0, and B walks every pair.
    for y in (isqrt(n), 1000, n - 1, n):
        prefix = summatory_table(y)
        assert census._b_walk(n, prefix, census.pass_sums(n, prefix)[1]) == want
    with pytest.raises(ValueError, match="below sqrt"):
        census.pass_sums(n, summatory_table(isqrt(n) - 1))
