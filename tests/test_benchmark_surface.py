"""The program names that the benchmark in perfbench/ reads.

perfbench/ skips a wrapped name that is gone, so removing one of these
would not fail a benchmark run: a traced run would break, or a layer read
zero.  This test fails instead.
"""

from pathlib import Path

import numpy as np

from divcensus import census, divisor_core, sampler

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_perfbench_uses_unconditionally_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import make_pins  # noqa: F401  divisor_square_summatory, sieve_divisor_counts
    import worker  # noqa: F401  divcensus.census, cli, config and sampler

    n = 1000
    fast = census.fast_census(n)
    assert census.count_all_triples(n) == fast.b_count
    assert census.count_da_over_hyperbola(n) == fast.s_count
    assert census.count_gcd_divisor_sum(n) == fast.c_count
    # make_pins's independent B, and the segmented B that --threads2 times.
    table = divisor_core.sieve_divisor_counts(n)
    assert isinstance(table.counts, np.ndarray)
    assert divisor_core.divisor_square_summatory(n, table) == fast.b_count
    assert divisor_core.divisor_square_summatory_segmented(n) == fast.b_count
    # A traced sample run sizes the space by these four arrays.
    space = sampler.build_triple_space(n)
    for array in (space.table.counts, space.cum_weights, space.starts, space.flat_divisors):
        assert isinstance(array, np.ndarray)
    assert sampler.sample_triples(n, 1000, 7).trials == 1000
