"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The heavyweight shared inputs (definitional
enumeration through N=2000, the decade grid of fast censuses up to 10^7)
are computed once per session.
"""

import math
import time
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from divcensus import asymptotics, census, cli, divisor_core, sampler
from divcensus.divisor_core import divisor_square_summatory_segmented, divisor_summatory

DECADES = [10**3, 10**4, 10**5, 10**6, 10**7]
VERIFY_BOUND = 2000


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def oracle():
    """(N, B, A, C, S) of every N <= 2000 by the definitional brute-force census."""
    return [
        (N, *row)
        for lo, counts in census.brute_force_census_blocks(VERIFY_BOUND)
        for N, row in enumerate(counts.tolist(), lo)
    ]


@pytest.fixture(scope="session")
def decade_census():
    """Fast census at each decade N, 10^3 .. 10^7, timed."""
    results = {}
    elapsed = {}
    for n in DECADES:
        t0 = time.perf_counter()
        results[n] = census.fast_census(n)
        elapsed[n] = time.perf_counter() - t0
    return results, elapsed


@pytest.fixture(scope="session")
def decade_points(decade_census):
    results, _ = decade_census
    return {n: asymptotics.ratio_point(results[n]) for n in DECADES}


def test_criterion_01_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    code = cli.main(["verify", "--max-n", str(VERIFY_BOUND)])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        report(
            1,
            f"verify --max-n {VERIFY_BOUND} exits 0",
            code == 0 and f"all N <= {VERIFY_BOUND}" in out and elapsed < 120,
            f"exit={code}, {elapsed:.1f}s",
        )


def test_criterion_02_inclusion_exclusion_identity(oracle, decade_census):
    results, _ = decade_census
    ok = all(a == 2 * s - c for _, _, a, c, s in oracle)
    for n in DECADES:
        r = results[n]
        ok = ok and r.a_count == 2 * r.s_count - r.c_count
    big = results[10**7]
    report(
        2,
        "A = 2S - C exactly, brute N<=2000 and fast through 10^7",
        ok,
        f"at 10^7: A={big.a_count}, 2S-C={2 * big.s_count - big.c_count}",
    )


def test_criterion_03_gcd_sum_reparametrization(oracle):
    first_bad = None
    for n, _, _, c, _ in oracle:
        via_identity = sum(divisor_summatory(n // (k * k)) for k in range(1, isqrt(n) + 1))
        if via_identity != c:
            first_bad = (n, via_identity, c)
            break
    report(
        3,
        "sum_{r<=sqrt(N)} D(N/r^2) equals brute common-divisor count, N<=2000",
        first_bad is None,
        "exact for all N" if first_bad is None else f"diverges at {first_bad}",
    )


def test_criterion_04_headline_ratio_convergence(decade_points):
    r_small = decade_points[10**3].theorem1_norm
    r_big = decade_points[10**7].theorem1_norm
    ok = abs(r_big - 1) < abs(r_small - 1) and 0.6 <= r_big <= 1.4
    report(
        4,
        "normalized ratio R(N) drifts toward 1 on the decade grid",
        ok,
        f"R(10^3)={r_small:.4f}, R(10^7)={r_big:.4f}",
    )


def test_criterion_05_squared_divisor_sum_normalization(decade_points):
    at_1e4 = decade_points[10**4].ramanujan_norm
    at_1e6 = decade_points[10**6].ramanujan_norm
    at_1e7 = decade_points[10**7].ramanujan_norm
    ok = (
        0.8 <= at_1e7 <= 1.8
        and abs(at_1e7 - 1) < abs(at_1e4 - 1)
        and abs(at_1e7 - 1) < abs(at_1e6 - 1)
    )
    report(
        5,
        "B(N) pi^2/(N ln^3 N) in [0.8, 1.8] at 10^7 and closer to 1 than at 10^4",
        ok,
        f"10^4: {at_1e4:.4f}, 10^6: {at_1e6:.4f}, 10^7: {at_1e7:.4f}",
    )


def test_criterion_06_good_triple_normalization(decade_points):
    at_1e3 = decade_points[10**3].a_norm
    at_1e7 = decade_points[10**7].a_norm
    ok = 0.7 <= at_1e7 <= 1.5 and abs(at_1e7 - 1) < abs(at_1e3 - 1)
    report(
        6,
        "A(N)/(N ln^2 N) in [0.7, 1.5] at 10^7 and closer to 1 than at 10^3",
        ok,
        f"10^3: {at_1e3:.4f}, 10^7: {at_1e7:.4f}",
    )


def test_criterion_07_gcd_sum_bound(decade_points):
    values = [decade_points[n].lemma_norm for n in DECADES]
    # the wide bracket at 10^7 reflects the heuristic zeta(2) limit
    ok = max(values) <= 3.0 and 1.3 <= values[-1] <= 1.7
    report(
        7,
        "C(N)/(N ln N) <= 3.0 across the decade grid",
        ok,
        "sequence " + ", ".join(f"{v:.4f}" for v in values),
    )


def log_weighted_harmonic(n: int) -> float:
    """sum_{b<=n} ln(b)/b by direct summation: numpy within chunks of 2^20 terms, fsum across."""
    partials = []
    for lo in range(1, n + 1, 2**20):
        b = np.arange(lo, min(lo + 2**20, n + 1), dtype=np.float64)
        partials.append(float(np.sum(np.log(b) / b)))
    return math.fsum(partials)


def test_criterion_08_log_weighted_harmonic_band():
    worst = 0.0
    for exp in range(1, 8):
        n = 10**exp
        gap = abs(log_weighted_harmonic(n) - math.log(n) ** 2 / 2)
        worst = max(worst, gap)
    report(
        8,
        "|sum ln(b)/b - ln^2(N)/2| <= 1.0 for N in 10..10^7",
        worst <= 1.0,
        f"worst gap {worst:.4f}",
    )


def test_criterion_09_sampler_concentration(decade_census):
    results, _ = decade_census
    exact = results[10**5].a_count / results[10**5].b_count
    t0 = time.perf_counter()
    space = sampler.build_triple_space(10**5)
    passes = 0
    fixed_seed_ok = False
    for seed in range(20):
        est = sampler.sample_triples(10**5, 10**6, seed, space=space)
        hit = abs(est.p_hat - exact) <= 4 * est.std_err
        passes += hit
        if seed == 0:
            fixed_seed_ok = hit
    elapsed = time.perf_counter() - t0
    ok = passes >= 19 and fixed_seed_ok and elapsed < 60
    report(
        9,
        "N=10^5, 10^6 trials: |p_hat - A/B| <= 4 se for >= 19 of 20 seeds",
        ok,
        f"{passes}/20 within 4 se, {elapsed:.1f}s",
    )


def test_criterion_10_counterexample_ground_truth(oracle):
    at_six = [(c.a, c.b, c.r) for c in census.iter_counterexamples(6)]
    ok = at_six == [(2, 2, 4), (2, 3, 6), (3, 2, 6)] and (2, 3, 6) in at_six
    ok = ok and list(census.iter_counterexamples(3)) == []
    per_product = {}
    for c in census.iter_counterexamples(VERIFY_BOUND):
        key = c.a * c.b
        per_product[key] = per_product.get(key, 0) + 1
    running = 0
    reconciled = True
    for n, b, a, _, _ in oracle:
        running += per_product.get(n, 0)
        if running != b - a:
            reconciled = False
            break
    report(
        10,
        "counterexample lists exact at N=3,6 and count B-A for all N<=2000",
        ok and reconciled,
        f"total at 2000: {running}",
    )


def test_criterion_11_performance_envelope(decade_census, monkeypatch):
    _, elapsed = decade_census
    fast_time = elapsed[10**7]

    tracemalloc.start()
    t0 = time.perf_counter()
    b_default = divisor_square_summatory_segmented(10**8)
    seg_time = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    monkeypatch.setattr(divisor_core, "_SIEVE_BLOCK", 3_000_017)
    b_odd_segments = divisor_square_summatory_segmented(10**8)

    ok = (
        fast_time < 60
        and b_default == b_odd_segments
        and peak < 256 * 2**20  # segment-bounded working set, not N-bounded
    )
    report(
        11,
        "10^7 census under 60s single-threaded; segmented 10^8 within memory bounds",
        ok,
        f"10^7 in {fast_time:.1f}s; 10^8 in {seg_time:.1f}s, peak {peak / 2**20:.0f} MiB, "
        f"segmentations agree at {b_default}",
    )
