"""Census identities vs definitional enumeration.

The package's own brute_force_census is the oracle for the fast path, so
this file first pins the oracle itself against two independently written
enumerations (per-triple loops over divisor lists, and plain nested loops
with no divisor lists) and hand counts.
"""

import tracemalloc
import types
from itertools import islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divcensus import census, divisor_core
from divcensus.census import (
    Counterexample,
    brute_force_census,
    brute_force_census_blocks,
    count_all_triples,
    count_da_over_hyperbola,
    count_gcd_divisor_sum,
    fast_census,
    fast_census_blocks,
    iter_counterexamples,
)
from divcensus.config import DEFAULT_ORACLE_CEILING, ResourceLimitError
from divcensus.divisor_core import (
    SUBLINEAR_TABLE_CAP,
    divisor_square_summatory,
    divisor_summatory,
    sieve_divisor_counts,
    summatory_table,
)


def loop_census(N):
    """Second, structurally different oracle: no divisor lists, just loops."""
    a_cnt = b_cnt = c_cnt = s_cnt = 0
    for a in range(1, N + 1):
        for b in range(1, N // a + 1):
            n = a * b
            s_cnt += sum(1 for k in range(1, a + 1) if a % k == 0)
            for r in range(1, n + 1):
                if n % r:
                    continue
                b_cnt += 1
                if a % r == 0 or b % r == 0:
                    a_cnt += 1
                if a % r == 0 and b % r == 0:
                    c_cnt += 1
    return a_cnt, b_cnt, c_cnt, s_cnt


def product_first_census_range(max_n):
    """Reference oracle: per-triple Python loops over divisor lists, product by product.

    Raising N by one admits exactly the ordered pairs with a*b = N, so each
    product n is enumerated once, and every condition is tested literally.
    """
    lists = [[] for _ in range(max_n + 1)]
    for k in range(1, max_n + 1):
        for m in range(k, max_n + 1, k):
            lists[m].append(k)
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
        yield census.CensusResult(
            N=n,
            b_count=b_total,
            a_count=a_total,
            c_count=c_total,
            s_count=s_total,
            method="brute",
        )


STEP = census._ORACLE_BLOCK


def counts_of(results):
    return [(r.N, r.b_count, r.a_count, r.c_count, r.s_count) for r in results]


def block_rows(blocks, width):
    """(N, B, A, C, S) of every row of (lo, counts) blocks of the given width.

    Checks the layout on the way: int64 counts of four columns, blocks
    starting at 1 and following on, each full but the last.
    """
    rows, widths = [], []
    for lo, counts in blocks:
        assert counts.dtype == np.int64 and counts.shape[1] == 4
        assert lo == len(rows) + 1
        widths.append(len(counts))
        rows += [(N, *row) for N, row in enumerate(counts.tolist(), lo)]
    assert set(widths[:-1]) <= {width} and 1 <= widths[-1] <= width
    return rows


# (N, B, A, C, S) of every N <= 2000, by the oracle and by the loops.
ORACLE = block_rows(brute_force_census_blocks(2000), STEP)
PRODUCT_FIRST = list(product_first_census_range(2000))


def test_oracle_matches_the_product_first_loops_up_to_2000():
    assert ORACLE == counts_of(PRODUCT_FIRST)


@pytest.mark.parametrize("max_n", [1, STEP - 1, STEP, STEP + 1, 2 * STEP + 1, 2000])
def test_oracle_at_step_edges(max_n):
    assert block_rows(brute_force_census_blocks(max_n), STEP) == counts_of(PRODUCT_FIRST[:max_n])


# With the block budget at B(192), the triples of the n <= 192, the first
# block is exactly three steps; the later ones, whose steps hold more
# triples, take two steps or one.  A budget of one triple makes every
# step a block.
BLOCK_EDGE = 3 * STEP
BLOCK_BUDGET = PRODUCT_FIRST[BLOCK_EDGE - 1].b_count
TRIPLES_TO = [0] + [r.b_count for r in PRODUCT_FIRST]  # B(N), the triples of the n <= N


def oracle_blocks(max_n, budget):
    """The oracle's blocks by their rule: whole steps while their triples fit, at least one."""
    edges = [*range(1, max_n + 1, STEP), max_n + 1]
    blocks, i = [], 0
    while i < len(edges) - 1:
        j, base = i + 1, TRIPLES_TO[edges[i] - 1]
        while j + 1 < len(edges) and TRIPLES_TO[edges[j + 1] - 1] - base <= budget:
            j += 1
        blocks.append(range(edges[i], edges[j]))
        i = j
    return blocks


@pytest.mark.parametrize(
    "budget, max_n",
    [(BLOCK_BUDGET, n) for n in (BLOCK_EDGE - 1, BLOCK_EDGE, BLOCK_EDGE + 1, 1000, 2000)]
    + [(1, 2000)],
)
def test_oracle_at_block_edges(budget, max_n, monkeypatch):
    monkeypatch.setattr(census, "_ORACLE_BLOCK_TRIPLES", budget)
    classes = []
    tallies = census._class_tallies

    def spy(n, divs):
        classes.append((divs.shape[1], n.tolist()))
        return tallies(n, divs)

    monkeypatch.setattr(census, "_class_tallies", spy)
    assert block_rows(brute_force_census_blocks(max_n), STEP) == counts_of(PRODUCT_FIRST[:max_n])
    # Every class is n of one d(n) inside one block, block by block, and
    # the classes take each n <= max_n once.
    blocks = oracle_blocks(max_n, budget)
    assert (len(blocks) > 1) == (max_n > BLOCK_EDGE or budget == 1)
    if max_n >= BLOCK_EDGE and budget == BLOCK_BUDGET:
        assert blocks[0] == range(1, BLOCK_EDGE + 1)
    at = []
    for t, ns in classes:
        at.append(next(k for k, block in enumerate(blocks) if ns[0] in block))
        assert set(ns) <= set(blocks[at[-1]])
        assert {isqrt(TRIPLES_TO[n] - TRIPLES_TO[n - 1]) for n in ns} == {t}  # d(n)
    assert at == sorted(at)
    assert sorted(n for _, ns in classes for n in ns) == list(range(1, max_n + 1))


def test_oracle_class_tallies_and_their_mirror_guard():
    # 12 and 18 have six divisors each; A and C as the loops count them.
    n = np.array([12, 18], dtype=np.int32)
    divs = np.array([[1, 2, 3, 4, 6, 12], [1, 2, 3, 6, 9, 18]], dtype=np.int32)
    want = [
        [r.a_count - q.a_count, r.c_count - q.c_count]
        for q, r in ((PRODUCT_FIRST[n - 2], PRODUCT_FIRST[n - 1]) for n in (12, 18))
    ]
    assert census._class_tallies(n, divs).tolist() == want
    # A row whose b = n // a is not its mirrored divisor is refused, not counted.
    swapped = divs[:, [1, 0, 2, 3, 4, 5]]
    wrong = np.array([[1, 2, 3, 4, 6, 12], [1, 2, 3, 6, 9, 9]], dtype=np.int32)
    for broken in (swapped, wrong):
        with pytest.raises(RuntimeError, match="mirrored"):
            census._class_tallies(n, broken)


def test_oracle_at_its_default_ceiling_peaks_below_2_mib():
    # The sort of the layout sets the peak, 1.8 MiB; the blocks stay below it.
    tracemalloc.start()
    try:
        for _, counts in brute_force_census_blocks(DEFAULT_ORACLE_CEILING):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[-1].tolist() == [1504136, 857678, 135568, 496623]
    assert peak <= 2 * 2**20


def test_lone_brute_census_builds_one_result(built_results):
    assert brute_force_census(1729) == PRODUCT_FIRST[1728]
    assert built_results == [1729]


def test_oracle_counts_are_python_ints():
    # so that census --method brute stays JSON-serialisable
    for n in (1, STEP, 1729):
        r = brute_force_census(n)
        assert {type(v) for v in (r.N, r.b_count, r.a_count, r.c_count, r.s_count)} == {int}


def test_oracle_refuses_a_huge_n_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="DIVCENSUS_ORACLE_CEILING"):
            brute_force_census(10**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024


def test_oracle_reads_nothing_of_divisor_core(monkeypatch):
    # census imports nothing of the sampler; of divisor_core, blank every name.
    blanked = []
    for name, value in vars(divisor_core).items():
        own = getattr(value, "__module__", divisor_core.__name__) == divisor_core.__name__
        if own and not isinstance(value, types.ModuleType) and getattr(census, name, None) is value:
            monkeypatch.setattr(census, name, None)
            blanked.append(name)
    assert {"divisor_list", "summatory_table", "SUBLINEAR_TABLE_CAP"} <= set(blanked)
    assert block_rows(brute_force_census_blocks(200), STEP) == counts_of(PRODUCT_FIRST[:200])


def test_oracle_agrees_with_independent_loop_enumeration():
    for N in (1, 2, 3, 7, 12, 30, 60):
        _, b, a, c, s = ORACLE[N - 1]
        assert (a, b, c, s) == loop_census(N)


def test_oracle_hand_counts():
    assert ORACLE[1] == (2, 5, 5, 3, 4)
    assert ORACLE[3] == (4, 18, 17, 9, 13)
    assert brute_force_census(1).method == "brute"


def test_single_shot_brute_matches_range():
    assert counts_of([brute_force_census(4)]) == [ORACLE[3]]
    assert counts_of([brute_force_census(1729)]) == [ORACLE[1728]]


def test_oracle_ceiling_refusal():
    with pytest.raises(ResourceLimitError, match="fast path"):
        brute_force_census(10_001)
    # raising the ceiling lifts the refusal
    assert brute_force_census(42, oracle_ceiling=42).N == 42


# -- individual fast operations ----------------------------------------------

def test_count_all_triples_examples():
    assert count_all_triples(1) == 1
    assert count_all_triples(4) == 18
    assert count_all_triples(6) == 38


def test_count_all_triples_sieves_mu_once_per_call(monkeypatch):
    # B walks its hyperbola identity, and the walk sieves mu, to isqrt(N),
    # once per call.  The pass's weights sieve mu to isqrt(M) once per
    # table, and not at all when M = 0.
    table = sieve_divisor_counts(10**4 + 1)
    walked, weighted = [], []
    real = census._mobius_table
    monkeypatch.setattr(census, "_mobius_table", lambda n: walked.append(n) or real(n))
    monkeypatch.setattr(divisor_core, "_mobius_table", lambda n: weighted.append(n) or real(n))
    ns = (9999, 10**4, 10**4 + 1)
    for n in ns:
        assert count_all_triples(n) == divisor_square_summatory(n, table), n
    assert walked == [isqrt(n) for n in ns]
    assert weighted == [isqrt(census.census_table(n).M) for n in ns]
    assert all(weighted)
    walked.clear()
    weighted.clear()
    assert count_all_triples(9999, summatory_table(9999, 9999)) == divisor_square_summatory(
        9999, table
    )
    assert walked == [isqrt(9999)] and weighted == []  # M = 0: no pass


def test_count_all_triples_from_a_table_short_of_n():
    # B, like S and C, accepts any table from sqrt(N) up.
    want = brute_force_census(5000).b_count
    assert count_all_triples(5000) == want == 620_598
    for y in (isqrt(5000), 71, 4999):
        assert count_all_triples(5000, summatory_table(y, 5000)) == want, y


def test_count_gcd_divisor_sum_examples():
    assert count_gcd_divisor_sum(1) == 1
    # cross-check on the reparametrized form: D(4) + D(1) = 8 + 1
    assert count_gcd_divisor_sum(4) == 9 == divisor_summatory(4) + divisor_summatory(1)
    assert count_gcd_divisor_sum(6) == 15


def test_count_da_over_hyperbola_examples():
    assert count_da_over_hyperbola(1) == 1
    assert count_da_over_hyperbola(4) == 13  # D(4)+D(2)+D(1)+D(1)
    assert count_da_over_hyperbola(100) == loop_census(100)[3]


def marked_divisor_counts(n_max):
    """d(0..n_max) by marking the multiples of every k, in plain Python."""
    d = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        for m in range(k, n_max + 1, k):
            d[m] += 1
    return d


LOOP_D = marked_divisor_counts(30_000)
LOOP_PREFIX = [0]
for _d in LOOP_D[1:]:
    LOOP_PREFIX.append(LOOP_PREFIX[-1] + _d)


def loop_s_and_c(n):
    """S(n) = sum_a d(a) floor(n/a) and C(n) = sum_r D(n // r^2), by loops."""
    s = sum(LOOP_D[a] * (n // a) for a in range(1, n + 1))
    c = sum(LOOP_PREFIX[n // (r * r)] for r in range(1, isqrt(n) + 1))
    return s, c


@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=30_000), data=st.data())
def test_s_and_c_from_any_table_size_match_loops(n, data):
    # A table of size y in [sqrt(n), n] leaves M = n // (y + 1) <= sqrt(n)
    # values D(n // m) to its pass: up to sqrt(n) of them at y = isqrt(n),
    # none at y = n.  B from the same table is checked against the
    # segmented sum of d(n)^2, a route that shares no code with the pass.
    root = isqrt(n)
    y = data.draw(st.one_of(st.integers(root, 2 * root), st.integers(root, n)), label="y")
    table = summatory_table(min(y, n), n)
    got = (count_da_over_hyperbola(n, table), count_gcd_divisor_sum(n, table))
    assert got == loop_s_and_c(n)
    b = count_all_triples(n, table)
    assert b == divisor_core.divisor_square_summatory_segmented(n)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=30_000))
def test_c_without_a_table_sieves_nothing_and_matches_the_table_routes(n):
    tables = (summatory_table(isqrt(n), n), census.census_table(n), summatory_table(n, n))
    want = {count_gcd_divisor_sum(n, table) for table in tables}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divisor_core, "_sieve", None)
        got = count_gcd_divisor_sum(n)
    assert want == {got} and got == loop_s_and_c(n)[1]


@pytest.mark.parametrize(
    "n, c",
    [(4 * 10**8, 12384085429), (10**12, 43830142939380), (10**13, 476177421208658)],
)
def test_c_without_a_table_pins(n, c, monkeypatch):
    # The 10^12 and 10^13 pins come from the census's table route (ROADMAP
    # baseline); 4e8 is perfbench's hyperbola_big pin.
    monkeypatch.setattr(divisor_core, "_sieve", None)
    assert count_gcd_divisor_sum(n) == c


def test_tables_below_sqrt_n_or_for_another_n_are_refused():
    with pytest.raises(ValueError, match="below sqrt"):
        summatory_table(99, 10**4)
    table = summatory_table(100, 10**4)
    for op in (count_all_triples, count_da_over_hyperbola, count_gcd_divisor_sum):
        with pytest.raises(ValueError, match="N=10000"):
            op(10**4 - 1, table)


@pytest.mark.parametrize(
    "n, s, c",
    [
        (10**9, 230375375227, 32467409097),
        (10**10, 2824280446479, 362549612240),
    ],
)
def test_s_and_c_pins(n, s, c):
    # Pinned from the earlier route over floor-quotient blocks.
    table = census.census_table(n)
    assert count_da_over_hyperbola(n) == count_da_over_hyperbola(n, table) == s
    assert count_gcd_divisor_sum(n) == count_gcd_divisor_sum(n, table) == c


def spy_on_sieve(monkeypatch) -> list[int]:
    """The top, lo + len - 1, of every block divisor_core._sieve sieves from now on, in order."""
    sieved = []
    real = divisor_core._sieve

    def spy(counts, lo):
        sieved.append(lo + counts.size - 1)
        return real(counts, lo)

    monkeypatch.setattr(divisor_core, "_sieve", spy)
    return sieved


@pytest.mark.parametrize("n", [5999, 10**6, 10**7])
def test_fast_census_sieves_once(n, monkeypatch):
    # Every census sieves census_table(N), and nothing is kept for the next.
    sieved = spy_on_sieve(monkeypatch)
    fast_census(n)
    fast_census(n)
    size = divisor_core.summatory_table_size(n)
    assert size == {5999: 82, 10**6: 2499, 10**7: 11603}[n]
    assert sieved == [size, size]


def private_b_s_c(n, y):
    """B, S and C at n from a table of size y sieved for n alone."""
    private = summatory_table(y, n)
    return (
        count_all_triples(n, private),
        count_da_over_hyperbola(n, private),
        count_gcd_divisor_sum(n, private),
    )


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=9999))
def test_small_census_matches_a_private_table(n):
    # census_table(N) and its pass against B's walk and S and C over a
    # table that reaches N, which leaves nothing to a pass.
    got = fast_census(n)
    assert (got.b_count, got.s_count, got.c_count) == private_b_s_c(n, n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**6))
def test_census_matches_b_term_by_term_and_a_table_that_reaches_n(n):
    # B's walk and the pass against the in-memory sum of d(n)^2, and S and
    # C against a table that reaches N.
    got = fast_census(n)
    b, s, c = private_b_s_c(n, n)
    assert got.b_count == divisor_square_summatory(n, sieve_divisor_counts(n)) == b
    assert (got.s_count, got.c_count, got.a_count) == (s, c, 2 * s - c)


def test_census_table_has_one_size_rule():
    for n in (1, 100, 9999, 10**4, 10**6):
        table = census.census_table(n)
        assert (table.N, table.n_max) == (n, divisor_core.summatory_table_size(n))


@pytest.mark.parametrize("n", [10**4, 10**5, 3_718_064])
def test_b_without_a_table_sieves_the_census_table(n, monkeypatch):
    # B alone takes the census's table, as fast_census does, not a table of
    # its own.
    want = divisor_core.divisor_square_summatory_segmented(n)
    sieved = spy_on_sieve(monkeypatch)
    assert count_all_triples(n) == want
    assert sieved == [divisor_core.summatory_table_size(n)]


def test_d_above_the_table_is_evaluated_once_per_pass(monkeypatch):
    # Every D above the table is D(n // m), m <= M = n // (y + 1).  The
    # table's pass evaluates each once, for B, S and C together.  C without
    # a table evaluates each of its distinct D(n // r^2) once itself.
    n = 10**7
    m_max = n // (divisor_core.summatory_table_size(n) + 1)
    assert m_max == 861
    in_pass, in_c = [], []
    real = divisor_core.divisor_summatory_batch

    def spy(calls):
        return lambda x, *workspace: calls.extend(x.tolist()) or real(x, *workspace)

    monkeypatch.setattr(divisor_core, "divisor_summatory_batch", spy(in_pass))
    monkeypatch.setattr(census, "divisor_summatory_batch", spy(in_c))
    fast_census(n)
    assert sorted(in_pass) == sorted(n // m for m in range(1, m_max + 1))
    assert in_c == []
    in_pass.clear()
    table = census.census_table(n)
    count_all_triples(n, table)
    assert len(in_pass) == m_max
    count_da_over_hyperbola(n, table)
    count_gcd_divisor_sum(n, table)
    assert len(in_pass) == m_max and in_c == []  # S and C read the same pass
    in_pass.clear()
    count_gcd_divisor_sum(n)  # alone, C makes no pass
    assert in_pass == []
    assert in_c == sorted({n // (r * r) for r in range(1, isqrt(n) + 1)}, reverse=True)


def test_small_census_makes_no_pass(monkeypatch):
    # The sweep's sieve runs to max_n, so no D lies above it.
    monkeypatch.setattr(divisor_core, "divisor_summatory_batch", None)
    monkeypatch.setattr(census, "divisor_summatory_batch", None)
    for n in (1, 100, 9999):
        for _ in fast_census_blocks(n):  # neither a pass nor C calls the batched D
            pass
    assert block_rows(fast_census_blocks(100), census._SWEEP_BLOCK) == ORACLE[:100]


def test_census_pins_at_10_12():
    # At 10^12 the pass evaluates 59604 D(N // m) and B walks its pairs with
    # k^2 u > M; the pins come from the earlier route, which evaluated each
    # D(N // m) by the per-x int64 divisor_summatory.
    got = fast_census(10**12)
    assert (got.b_count, got.s_count, got.c_count) == (
        2728918556059128,
        402439152166882,
        43830142939380,
    )


def test_fast_census_refuses_before_sieving(monkeypatch):
    monkeypatch.setattr(divisor_core, "_sieve", None)
    first = (SUBLINEAR_TABLE_CAP + 1) ** 2
    for op in (
        count_all_triples,
        count_da_over_hyperbola,
        count_gcd_divisor_sum,
        fast_census,
    ):
        with pytest.raises(ResourceLimitError, match="SUBLINEAR_TABLE_CAP"):
            op(first)
    census.check_census_size(first - 1)  # the largest N they take


def test_fast_census_a_examples():
    assert fast_census(1).a_count == 1
    assert fast_census(4).a_count == 2 * 13 - 9 == 17
    assert fast_census(6).a_count == 35


def test_zero_arguments_rejected():
    for op in (
        count_all_triples,
        count_gcd_divisor_sum,
        count_da_over_hyperbola,
        fast_census,
        fast_census_blocks,  # at the call, before anything is asked for
        brute_force_census,
    ):
        with pytest.raises(ValueError):
            op(0)


# -- fast path vs oracle ------------------------------------------------------

def test_fast_census_matches_oracle_up_to_400():
    for want in ORACLE[:400]:
        got = fast_census(want[0])
        assert got.method == "fast"
        assert counts_of([got]) == [want], f"N={want[0]}"


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=2000))
def test_fast_census_matches_oracle_sampled(n):
    assert counts_of([fast_census(n)]) == [ORACLE[n - 1]]


# The sweep runs 50 N past the oracle's default ceiling.
SWEEP_TOP = 10_050


@pytest.fixture(scope="module")
def censuses_to_sweep_top():
    """The census of every N <= SWEEP_TOP by the per-count routes, not the sweep.

    B walks its hyperbola identity over census_table(N), S looks its D up
    there, and C sieves nothing.
    """
    censuses = []
    for n in range(1, SWEEP_TOP + 1):
        table = census.census_table(n)
        b, s = count_all_triples(n, table), count_da_over_hyperbola(n, table)
        c = count_gcd_divisor_sum(n)
        censuses.append(
            census.CensusResult(N=n, b_count=b, a_count=2 * s - c, c_count=c, s_count=s, method="fast")
        )
    return censuses


def test_sweep_matches_fast_census_at_every_n(censuses_to_sweep_top):
    swept = block_rows(fast_census_blocks(SWEEP_TOP), census._SWEEP_BLOCK)
    assert swept == counts_of(censuses_to_sweep_top)
    # A lone fast_census walks B's identity over census_table(N) at every N.
    lone = [fast_census(n) for n in (1, 2000, 9999, 10**4, SWEEP_TOP)]
    assert counts_of(lone) == [swept[r.N - 1] for r in lone]
    for r in lone:
        assert {type(v) for v in (r.N, r.b_count, r.a_count, r.c_count, r.s_count)} == {int}


@pytest.mark.parametrize("block", [1, 7])
def test_sweep_in_partial_blocks_matches_fast_census(block, censuses_to_sweep_top, monkeypatch):
    monkeypatch.setattr(census, "_SWEEP_BLOCK", block)
    assert block_rows(fast_census_blocks(SWEEP_TOP), block) == counts_of(censuses_to_sweep_top)


def test_sweep_sieves_once_to_max_n_and_calls_no_fast_census(censuses_to_sweep_top, monkeypatch):
    sieved = spy_on_sieve(monkeypatch)
    monkeypatch.setattr(census, "fast_census", None)
    assert block_rows(fast_census_blocks(SWEEP_TOP), census._SWEEP_BLOCK) == counts_of(
        censuses_to_sweep_top
    )
    assert sieved == [SWEEP_TOP]


@pytest.mark.parametrize("rows, block", [(1, 64), (1000, 64), (1000, 7), (2**18, 1)])
def test_sweep_across_many_sieve_blocks_matches_fast_census(
    rows, block, censuses_to_sweep_top, monkeypatch
):
    # A sieve block holds whole steps, at least one: 64, 960, 994 and 2^18 N.
    monkeypatch.setattr(census, "_SWEEP_SIEVE_ROWS", rows)
    monkeypatch.setattr(census, "_SWEEP_BLOCK", block)
    assert block_rows(fast_census_blocks(SWEEP_TOP), block) == counts_of(censuses_to_sweep_top)


def test_sweep_evaluates_no_d(censuses_to_sweep_top, monkeypatch):
    # Running sums of sieved d^2, d_3 and c: no batched D, no summatory
    # table, no pass and no fast_census.
    def pass_sums(self):
        raise AssertionError("the sweep took a pass")

    for module in (census, divisor_core):
        monkeypatch.setattr(module, "divisor_summatory_batch", None)
        monkeypatch.setattr(module, "summatory_table", None)
    monkeypatch.setattr(divisor_core.SummatoryTable, "pass_sums", property(pass_sums))
    monkeypatch.setattr(census, "fast_census", None)
    assert block_rows(fast_census_blocks(SWEEP_TOP), census._SWEEP_BLOCK) == counts_of(
        censuses_to_sweep_top
    )


def test_sweep_to_2_22_is_pinned_within_its_memory_bound():
    # The d(n) table, 4 bytes an N, and one sieve block of at most 16 MiB.
    # The last row was pinned by the earlier sweep over a table of D.
    max_n = 2**22
    tracemalloc.start()
    try:
        for _, counts in fast_census_blocks(max_n):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[-1].tolist() == [2287557408, 974602627, 98415315, 536508971]
    assert peak <= 4 * max_n + 16 * 2**20


def test_sweep_refuses_a_max_n_above_the_table_cap_before_allocating():
    # At the call, not at the first step.  The cap itself is taken: the
    # sweep is lazy, so nothing is sieved until a step is asked for.
    fast_census_blocks(SUBLINEAR_TABLE_CAP)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="SUBLINEAR_TABLE_CAP"):
            fast_census_blocks(SUBLINEAR_TABLE_CAP + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024


def test_inclusion_exclusion_identity_on_oracle():
    for _, _, a, c, s in ORACLE[:500]:
        assert a == 2 * s - c


def test_lemma_reparametrization_vs_oracle():
    for n, _, _, c, _ in ORACLE[:500]:
        identity = sum(divisor_summatory(n // (k * k)) for k in range(1, isqrt(n) + 1))
        assert identity == c, f"N={n}"


def test_counts_are_nondecreasing_and_ordered():
    prev = None
    for _, b, a, c, s in ORACLE:
        assert 1 <= a <= b
        assert c <= a
        if prev is not None:
            prev_b, prev_a, prev_c, prev_s = prev
            assert a >= prev_a
            assert b >= prev_b
            assert c >= prev_c
            assert s >= prev_s
            assert b - a >= prev_b - prev_a
        prev = b, a, c, s


# -- counterexamples -----------------------------------------------------------

def test_counterexamples_known_lists():
    assert list(iter_counterexamples(3)) == []
    assert list(iter_counterexamples(4)) == [Counterexample(2, 2, 4)]
    assert list(iter_counterexamples(6)) == [
        Counterexample(2, 2, 4),
        Counterexample(2, 3, 6),
        Counterexample(3, 2, 6),
    ]


def test_counterexamples_include_smallest_composite_failure():
    for n in (6, 30, 100):
        assert Counterexample(2, 3, 6) in iter_counterexamples(n)


def test_counterexamples_satisfy_defining_conditions():
    for cx in iter_counterexamples(300):
        assert (cx.a * cx.b) % cx.r == 0
        assert cx.a % cx.r != 0
        assert cx.b % cx.r != 0
        assert cx.r > 1
        assert cx.a * cx.b <= 300


def test_counterexamples_sorted_by_product_then_a_then_r():
    keys = [(c.a * c.b, c.a, c.r) for c in iter_counterexamples(500)]
    assert keys == sorted(keys)


def test_counterexample_count_reconciles_with_census_gap():
    full = list(iter_counterexamples(500))
    gaps = {n: b - a for n, b, a, _, _ in ORACLE[:500]}
    running = 0
    by_product = {}
    for c in full:
        by_product[c.a * c.b] = by_product.get(c.a * c.b, 0) + 1
    for n in range(1, 501):
        running += by_product.get(n, 0)
        assert running == gaps[n], f"N={n}"


def test_counterexample_limit_is_a_prefix():
    # The limit of the counterexamples command; its refusal of 0 is a CLI test.
    full = list(iter_counterexamples(100))
    assert list(islice(iter_counterexamples(100), 5)) == full[:5]
    assert list(islice(iter_counterexamples(100), 10**9)) == full


def test_iter_counterexamples_is_lazy():
    gen = iter_counterexamples(10**9)  # must not enumerate anything yet
    assert next(gen) == Counterexample(2, 2, 4)
