"""Seeded triple sampling: determinism, uniformity, unbiasedness."""

import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from divcensus import census, divisor_core, sampler
from divcensus.census import (
    brute_force_census,
    brute_force_census_blocks,
    count_all_triples,
    fast_census,
)
from divcensus.config import ResourceLimitError
from divcensus.divisor_core import divisor_list
from divcensus.sampler import (
    CHUNK_TRIALS,
    SampleEstimate,
    TripleSpace,
    build_triple_space,
    sample_triples,
)


def test_divisor_list_is_the_one_trial_division_helper():
    assert divisor_list is census.divisor_list


def test_divisor_list_known_values():
    assert divisor_list(1) == [1]
    assert divisor_list(6) == [1, 2, 3, 6]
    assert divisor_list(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    with pytest.raises(ValueError):
        divisor_list(0)


@given(n=st.integers(min_value=1, max_value=2000))
def test_divisor_list_matches_remainder_filter(n):
    assert divisor_list(n) == [k for k in range(1, n + 1) if n % k == 0]


def test_space_weight_total_is_triple_count():
    for n in (1, 2, 6, 100, 500):
        space = build_triple_space(n)
        assert space.total_triples == count_all_triples(n)


@settings(deadline=None)
@given(N=st.integers(min_value=1, max_value=1000))
@example(N=1)
@example(N=2)
def test_space_flat_divisor_layout(N):
    space = build_triple_space(N)
    lists = [divisor_list(n) for n in range(1, N + 1)]
    assert space.flat_divisors.dtype == np.int32
    assert space.flat_divisors.tolist() == [k for divs in lists for k in divs]
    for n, divs in enumerate(lists, start=1):
        assert int(space.table.counts[n]) == len(divs)
        start = int(space.starts[n])
        assert space.flat_divisors[start : start + len(divs)].tolist() == divs


def _reference_divisor_layout(N):
    """flat_divisors and starts[1:] from a lexsort of every (k, k*j) pair with k*j <= N."""
    k = np.repeat(np.arange(1, N + 1, dtype=np.int64), N // np.arange(1, N + 1))
    multiple = np.concatenate([np.arange(d, N + 1, d, dtype=np.int64) for d in range(1, N + 1)])
    order = np.lexsort((k, multiple))  # by multiple, then by divisor
    return k[order], np.searchsorted(multiple[order], np.arange(1, N + 1))


@pytest.mark.parametrize("N", [1, 10**5])
def test_flat_divisor_layout_at_scale(N):
    # 10^5 takes in every perfect square up to 316^2, where the front and
    # back of a list meet, and primes up to 99991.
    space = build_triple_space(N)
    flat, starts = _reference_divisor_layout(N)
    assert space.flat_divisors.dtype == space.starts.dtype == np.int32
    assert np.array_equal(space.flat_divisors, flat)
    assert np.array_equal(space.starts[1:], starts)


def test_build_peaks_below_twice_the_tables_it_keeps():
    # The guide and the divisor lists are built on first use, so they are
    # built here, inside the traced region that the bound covers.
    tracemalloc.start()
    try:
        space = build_triple_space(200_000)
        space.flat_divisors  # builds starts too
        space.guide
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = (space.table.counts, space.cum_weights, space.starts, space.flat_divisors, space.guide)
    assert peak <= 2 * sum(array.nbytes for array in kept)


def test_build_peaks_below_twice_the_tables_of_a_success_count():
    tracemalloc.start()
    try:
        space = build_triple_space(200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = (space.table.counts, space.cum_weights)
    assert peak <= 2 * sum(array.nbytes for array in kept)


def test_full_chunk_draws_in_bounded_memory():
    # The chunk's v (2 MiB) plus one block's temporaries, not a dozen
    # whole-chunk arrays.
    space = build_triple_space(50_000)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sampler._chunk_successes(space, next(sampler._chunk_uniforms(space, CHUNK_TRIALS, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 6 * 2**20


@settings(deadline=None)
@given(N=st.integers(min_value=1, max_value=2000))
@example(N=1)
@example(N=2)
def test_guide_search_equals_binary_search(N):
    space = build_triple_space(N)
    cum = space.cum_weights
    B = space.total_triples
    bucket_edges = np.arange(0, B, space.width, dtype=np.int64)
    # The first and last v of every cell and bucket; an empty last cell
    # starts at B, which is no draw.
    v = np.concatenate(
        [[0], cum[1:] - 1, cum[:-1], [B - 1], bucket_edges, bucket_edges[1:] - 1]
    ).astype(np.int64)
    v = v[v < B]
    before = v.copy()
    j = space.products(v)
    assert j.dtype == np.int64
    assert np.array_equal(j, np.searchsorted(cum, v, side="right"))
    assert np.array_equal(v, before)
    assert np.array_equal(space.products(v.astype(np.int32)), j)
    assert cum.size == 2 * N + 1
    assert space.guide.dtype == np.int32 and space.guide.size <= 2 * N
    assert np.array_equal(space.guide, np.searchsorted(cum, bucket_edges, side="right"))


def test_space_refuses_oversized_n(monkeypatch):
    def no_sieve(*args, **kwargs):
        raise AssertionError("sieve_divisor_counts called before the size was checked")

    monkeypatch.setattr(sampler, "sieve_divisor_counts", no_sieve)
    for n in (sampler.SPACE_LIMIT + 1, 10**12):
        with pytest.raises(ResourceLimitError, match=f"limit {sampler.SPACE_LIMIT}"):
            build_triple_space(n)


def test_estimate_fields_and_determinism():
    est = sample_triples(12, 5000, seed=2024)
    assert isinstance(est, SampleEstimate)
    assert est.N == 12 and est.trials == 5000 and est.seed == 2024
    assert est.p_hat == est.successes / est.trials
    assert est.std_err == math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
    assert 0 <= est.p_hat <= 1
    assert sample_triples(12, 5000, seed=2024) == est


def test_prebuilt_space_does_not_change_the_stream():
    space = build_triple_space(30)
    assert sample_triples(30, 4000, seed=5, space=space) == sample_triples(30, 4000, seed=5)
    with pytest.raises(ValueError, match="built for"):
        sample_triples(31, 10, seed=5, space=space)


def test_no_counterexamples_below_four_means_certain_success():
    for n in (1, 2, 3):
        for seed in (0, 1, 7, 123456789):
            assert sample_triples(n, 2000, seed).p_hat == 1.0


def test_estimate_concentrates_at_small_n():
    exact = 17 / 18  # A(4)/B(4)
    est = sample_triples(4, 200_000, seed=7)
    assert abs(est.p_hat - exact) <= 4 * est.std_err


# `runs` repeats the same call on the same space: the chunk loop keeps no
# state from one run to the next, so every run must give the same count.
@pytest.mark.parametrize("runs", [1, 2])
def test_streamed_successes_equal_the_count_over_all_draws(runs):
    # Three chunks and a partial fourth, counted chunk by chunk as drawn.
    space = build_triple_space(300)
    trials = 3 * CHUNK_TRIALS + 1234
    a, b, r = space.draw(trials, seed=2024)
    want = int(np.count_nonzero((a % r == 0) | (b % r == 0)))
    for _ in range(runs):
        est = sample_triples(300, trials, seed=2024, space=space)
        assert est.successes == want


@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("block", [7, 1000])
def test_partial_draw_blocks_count_every_draw_once(monkeypatch, block, runs):
    # Only triples() works in blocks.  Neither block length divides a
    # chunk, so the full chunk ends on a partial block, and the last chunk
    # is partial too.  The blocks name the same triples, whose literal
    # test counts the successes of the same stream.
    assert CHUNK_TRIALS % block
    space = build_triple_space(300)
    trials = CHUNK_TRIALS + 1234
    want = space.draw(trials, seed=2024)
    successes = sample_triples(300, trials, seed=2024, space=space).successes
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", block)
    for _ in range(runs):
        a, b, r = space.draw(trials, seed=2024)
        for want_array, got_array in zip(want, (a, b, r)):
            assert np.array_equal(want_array, got_array)
        assert int(np.count_nonzero((a % r == 0) | (b % r == 0))) == successes


def test_chunk_boundaries_do_not_skew_totals():
    # trials chosen to land exactly on, just under, and just over a chunk edge
    space = build_triple_space(20)
    for trials in ((1 << 18) - 1, 1 << 18, (1 << 18) + 1):
        est = sample_triples(20, trials, seed=3, space=space)
        assert est.trials == trials
        assert 0 <= est.successes <= trials


def test_product_distribution_matches_squared_divisor_weights():
    # each n should appear with probability d(n)^2 / B(6) = {1,4,4,9,4,16}/38
    space = build_triple_space(6)
    trials = 1_000_000
    a, b, r = space.draw(trials, seed=31337)
    n = a * b
    weights = {1: 1, 2: 4, 3: 4, 4: 9, 5: 4, 6: 16}
    for value, weight in weights.items():
        p = weight / 38
        observed = int(np.count_nonzero(n == value)) / trials
        assert abs(observed - p) <= 4 * math.sqrt(p * (1 - p) / trials), f"n={value}"


def test_drawn_triples_are_valid():
    space = build_triple_space(50)
    a, b, r = space.draw(20_000, seed=11)
    n = a * b
    assert (n <= 50).all() and (n >= 1).all()
    assert (n % r == 0).all()


def test_unbiased_across_seeds_at_desk_scale():
    result = brute_force_census(200)
    exact = result.a_count / result.b_count
    space = build_triple_space(200)
    trials = 100_000
    seeds = range(50)
    mean = np.mean([sample_triples(200, trials, s, space=space).p_hat for s in seeds])
    combined_se = math.sqrt(exact * (1 - exact) / (trials * len(seeds)))
    assert abs(mean - exact) <= 5 * combined_se


# Successes of the one-uniform draw that puts all A(N) successes first: the
# draw stream is a fixed function of (N, trials, seed).  The same v gave
# 276_410, 391_392 and 554_975 while each n's successes came first within
# its own d(n)^2 values, 276_356, 392_077 and 554_316 while the residual
# picked a and r by w // d(n) and w % d(n), and the draw that spent two more
# uniforms per triple on a and r gave 276_614, 391_856 and 554_820.
@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize(
    "N, trials, seed, successes",
    [
        (6, 300_000, 5, 276_511),
        (1000, 600_000, 99, 391_764),
        (300, 3 * CHUNK_TRIALS + 1234, 2024, 554_091),
    ],
)
def test_draw_stream_is_pinned(N, trials, seed, successes, runs):
    for _ in range(runs):
        assert sample_triples(N, trials, seed).successes == successes


# sha256 of draw()'s a, b and r bytes: the triples themselves, and so their
# order within each n, are a fixed function of (N, trials, seed).
@pytest.mark.parametrize(
    "N, trials, seed, digest",
    [
        (6, 300_000, 5, "4a98476e1f74ba8374ae59e1e0210c5297e70f833e6e484ad4f23023142de221"),
        (
            300,
            CHUNK_TRIALS + 1234,
            2024,
            "8066c97af3a18148bfb09929865f6955f23b7ce8986528281e404460bf71e3f7",
        ),
        (10**5, CHUNK_TRIALS, 5, "6764f77b0509185411cec52e133775ca8b675af33a0049edfd22f61ae220780b"),
    ],
)
def test_drawn_triples_are_pinned(N, trials, seed, digest):
    a, b, r = build_triple_space(N).draw(trials, seed)
    assert a.dtype == b.dtype == r.dtype == np.int32
    assert hashlib.sha256(a.tobytes() + b.tobytes() + r.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("trials, seed", [(0, 1), (10, -1), (10, 2**64)])
def test_bad_trials_or_seed_refused_before_the_build(monkeypatch, trials, seed):
    def no_build(*args, **kwargs):
        raise AssertionError("build_triple_space called before the arguments were checked")

    monkeypatch.setattr(sampler, "build_triple_space", no_build)
    with pytest.raises(ValueError):
        sample_triples(10**6, trials, seed)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sample_triples(0, 10, seed=1)
    with pytest.raises(ValueError):
        sample_triples(5, 0, seed=1)
    with pytest.raises(ValueError):
        sample_triples(5, 10, seed=-1)
    with pytest.raises(ValueError):
        sample_triples(5, 10, seed=2**64)


def _nested_loop_triples(N):
    """Every (a, b, r) with r | ab and ab <= N, in lexicographic order, by plain loops."""
    found = []
    for a in range(1, N + 1):
        for b in range(1, N // a + 1):
            for r in range(1, a * b + 1):
                if a * b % r == 0:
                    found.append((a, b, r))
    return found


def test_triples_maps_every_v_to_a_distinct_triple():
    # v is uniform on [0, B), so a one-to-one map onto the B triples makes
    # the draw exactly uniform: the exhaustive form of a chi-squared test.
    # The literal test of each triple is v < A(N).
    everything = _nested_loop_triples(200)
    for N in range(1, 201):
        space = build_triple_space(N)
        v = np.arange(space.total_triples, dtype=np.int64)
        a, b, r = space.triples(v)
        got = sorted(zip(a.tolist(), b.tolist(), r.tolist()))
        assert got == [t for t in everything if t[0] * t[1] <= N], f"N={N}"
        literal = (a % r == 0) | (b % r == 0)
        assert np.array_equal(literal, v < space.successes), f"N={N}"


def _cell_sizes_of(space):
    """s(n), then d(n)^2 - s(n), for n = 1..N: the sizes of the 2N cells."""
    sizes = np.diff(space.cum_weights.astype(np.int64))
    return sizes[: space.N], sizes[space.N :]


def test_success_counts_are_the_oracle_increments_of_a():
    a_counts = np.concatenate([counts[:, 1] for _, counts in brute_force_census_blocks(2000)])
    want = np.diff(a_counts, prepend=0)
    assert np.diff(build_triple_space(2000).cum_weights[:2001]).tolist() == want.tolist()


@pytest.mark.parametrize("N", [50_000, 10**6, sampler.SPACE_LIMIT])
def test_success_counts_sum_to_a(N):
    # The sampler's own sieve, not fast_census, gives both totals.
    space = build_triple_space(N)
    result = fast_census(N)
    assert (space.successes, space.total_triples) == (result.a_count, result.b_count)


def test_thresholds_are_int32_at_the_space_limit():
    # The thresholds that v is compared with are the 2N + 1 cell bounds.
    # Each cell holds between 0 and d(n)^2 < 4n pairs, so the bounds rise
    # from 0 to B(N) < 2^31 and int32 holds every one of them.
    N = sampler.SPACE_LIMIT
    space = build_triple_space(N)
    successes, failures = _cell_sizes_of(space)
    d = space.table.counts[1:].astype(np.int64)
    assert space.cum_weights.dtype == np.int32 and space.cum_weights.size == 2 * N + 1
    assert (successes >= 1).all() and (failures >= 0).all()
    assert np.array_equal(successes + failures, d * d)
    assert (d * d < 4 * np.arange(1, N + 1)).all()
    assert space.cum_weights[0] == 0 and space.total_triples < 2**31


def test_sampling_builds_no_divisor_lists(monkeypatch):
    # A success count compares v with A(N): it builds neither the divisor
    # lists nor the guide.
    def no_lists(*args, **kwargs):
        raise AssertionError("_flat_divisor_lists called by a success count")

    monkeypatch.setattr(sampler, "_flat_divisor_lists", no_lists)
    space = build_triple_space(50_000)
    est = sample_triples(50_000, 300_000, seed=3, space=space)
    assert est.trials == 300_000 and 0 < est.successes < est.trials
    assert "guide" not in vars(space) and "width" not in vars(space)


class _CountingGenerator:
    """Wraps a numpy Generator and counts its integers() calls."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def integers(self, *args, **kwargs):
        self.calls.append(kwargs.get("size"))
        return self.rng.integers(*args, **kwargs)


def test_each_chunk_draws_one_uniform_array(monkeypatch):
    space = build_triple_space(300)
    trials = 2 * CHUNK_TRIALS + 7
    want = space.draw(trials, seed=8)
    calls = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: _CountingGenerator(default_rng(s), calls))
    got = space.draw(trials, seed=8)
    assert calls == [CHUNK_TRIALS, CHUNK_TRIALS, 7]
    for want_array, got_array in zip(want, got):
        assert np.array_equal(want_array, got_array)
    # The first chunk's triples are triples() of its one stream's first array.
    v = default_rng(np.random.SeedSequence(entropy=8, spawn_key=(0,))).integers(
        0, space.total_triples, size=CHUNK_TRIALS, dtype=np.int64
    )
    for whole, first in zip(got, space.triples(v)):
        assert np.array_equal(whole[:CHUNK_TRIALS], first)


# Small ranges, B(5*10^4) and B(SPACE_LIMIT), the largest range drawn.
@pytest.mark.parametrize("B", [1, 2, 7, 11244299, 957082634])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_int32_chunks_are_the_int64_stream(B, seed):
    # A full chunk and a partial one, each equal to the int64 draw of its
    # stream: below 2^32 numpy draws both widths by the same 32-bit path.
    space = SimpleNamespace(total_triples=B)
    chunks = list(sampler._chunk_uniforms(space, CHUNK_TRIALS + 1234, seed))
    assert [v.size for v in chunks] == [CHUNK_TRIALS, 1234]
    for i, v in enumerate(chunks):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        assert v.dtype == np.int32
        assert np.array_equal(v, rng.integers(0, B, size=v.size, dtype=np.int64))


class _StopSampling(Exception):
    pass


@pytest.mark.parametrize("runs", [1, 2])
def test_huge_trials_hand_out_chunks_lazily(monkeypatch, runs):
    # Chunks are drawn as they are counted, and one chunk's v (2 MiB) is
    # freed before the next one is drawn.  A run stopped part way leaves
    # nothing behind: the next run starts again from chunk 0.
    seen = []

    def stop_at_the_fourth(space, v):
        seen.append((v.size, int(v[0])))
        if len(seen) % 4 == 0:
            raise _StopSampling
        return v.size

    monkeypatch.setattr(sampler, "_chunk_successes", stop_at_the_fourth)
    space = build_triple_space(10)
    for _ in range(runs):
        tracemalloc.start()
        try:
            with pytest.raises(_StopSampling):
                sample_triples(10, 10**15, seed=1, space=space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * CHUNK_TRIALS * 8
    assert [size for size, _ in seen] == [CHUNK_TRIALS] * 4 * runs
    assert seen == seen[:4] * runs


def test_progress_is_logged_every_64_chunks(caplog):
    space = build_triple_space(10)
    trials = 130 * CHUNK_TRIALS
    with caplog.at_level("INFO", logger="divcensus.sampler"):
        done = sum(1 for _ in sampler._chunk_uniforms(space, trials, seed=1))
    assert done == 130
    assert [rec.getMessage() for rec in caplog.records] == [
        "sampled 64 of 130 chunks",
        "sampled 128 of 130 chunks",
    ]


@pytest.mark.parametrize("trials", [2**63, 10**30])
def test_trials_beyond_int64_refused_before_the_build(monkeypatch, trials):
    def no_build(*args, **kwargs):
        raise AssertionError("build_triple_space called before the arguments were checked")

    monkeypatch.setattr(sampler, "build_triple_space", no_build)
    with pytest.raises(ValueError, match="64 signed bits"):
        sample_triples(100, trials, seed=1)


def test_space_limit_is_the_int32_domain():
    # flat_divisors has D(N) entries, indexed in int32, the rank within a
    # cell, below d(n)^2 < 4n, is int32 too, and so are v < B(N) and
    # cum_weights.
    assert divisor_core.divisor_summatory(sampler.SPACE_LIMIT) < 2**31
    assert 4 * sampler.SPACE_LIMIT < 2**31
    assert fast_census(sampler.SPACE_LIMIT).b_count == 957082634 < 2**31


@pytest.fixture(scope="module")
def limit_space():
    space = build_triple_space(sampler.SPACE_LIMIT)
    space.flat_divisors  # builds starts too
    space.guide
    return space


def test_first_draw_builds_no_table_per_divisor_entry(limit_space):
    # A draw finds its row among its own divisors: beyond the divisor lists
    # it holds one block's layout, not a table as long as those lists.
    tracemalloc.start()
    try:
        limit_space.draw(2**15, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_space.flat_divisors.nbytes


def test_block_row_sizes_sum_in_int32(limit_space, monkeypatch):
    # A cell holds at most 64272 pairs up to SPACE_LIMIT (the failures of
    # n = 1801800), so one block's row sizes sum below 2^31.
    space, n = limit_space, 1801800
    successes, failures = _cell_sizes_of(space)
    assert int(np.maximum(successes, failures).max()) == int(failures[n - 1]) == 64272
    assert sampler._DRAW_BLOCK * 64272 < 2**31
    # A whole block drawn from that n's failure cell reaches the bound;
    # blocks of 1024 draws give the same triples.
    step = np.arange(sampler._DRAW_BLOCK, dtype=np.int32) * 64272 // sampler._DRAW_BLOCK
    v = int(space.cum_weights[space.N + n - 1]) + step
    a, b, r = space.triples(v)
    assert (a * b == n).all() and (a % r != 0).all() and (b % r != 0).all()
    assert len(set(zip(a.tolist(), r.tolist()))) == v.size
    monkeypatch.setattr(sampler, "_DRAW_BLOCK", 1024)
    for whole, small in zip((a, b, r), space.triples(v)):
        assert np.array_equal(whole, small)
