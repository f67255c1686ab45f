"""Normalization formulas."""

import math

import pytest

from divcensus import asymptotics
from divcensus.config import ResourceLimitError
from divcensus.divisor_core import SUBLINEAR_TABLE_CAP
from divcensus.asymptotics import (
    PI_SQUARED,
    ratio_point,
    ratio_table,
)
from divcensus.census import brute_force_census, iter_counterexamples


def test_ratio_table_at_one():
    (pt,) = ratio_table([1])
    assert pt.ratio == 1.0
    assert pt.theorem1_norm == 0.0  # ln 1 = 0
    assert math.isinf(pt.ramanujan_norm)
    assert math.isinf(pt.a_norm)
    assert math.isinf(pt.lemma_norm)


def test_ratio_table_refuses_a_too_large_grid_up_front(monkeypatch):
    calls = []
    monkeypatch.setattr(asymptotics, "fast_census", lambda n: calls.append(n))
    with pytest.raises(ResourceLimitError, match="SUBLINEAR_TABLE_CAP"):
        ratio_table([2, 3, (SUBLINEAR_TABLE_CAP + 1) ** 2])
    assert calls == []


def test_ratio_table_at_four():
    (pt,) = ratio_table([4])
    assert pt.ratio == 17 / 18
    assert pt.theorem1_norm == pytest.approx(17 / 18 * math.log(4) / PI_SQUARED, abs=1e-15)


def test_ratio_table_validates_grid():
    with pytest.raises(ValueError):
        ratio_table([])
    with pytest.raises(ValueError):
        ratio_table([10, 10])
    with pytest.raises(ValueError):
        ratio_table([10, 5])
    with pytest.raises(ValueError):
        ratio_table([0, 5])


def test_theorem1_norm_definition_holds_to_float_precision():
    for pt in ratio_table([2, 3, 10, 97, 1000, 9973]):
        assert abs(pt.theorem1_norm - pt.ratio * math.log(pt.N) / PI_SQUARED) < 1e-12


def test_normalizations_positive_for_n_at_least_two():
    for pt in ratio_table([2, 5, 50, 500]):
        assert 0 < pt.ratio <= 1
        for value in (pt.theorem1_norm, pt.ramanujan_norm, pt.a_norm, pt.lemma_norm):
            assert value > 0


def test_ratio_is_one_below_four_and_below_one_after():
    for n in range(1, 41):
        pt = ratio_point(brute_force_census(n))
        if n <= 3:
            assert pt.ratio == 1.0
        else:
            assert pt.ratio < 1.0


def test_census_gap_equals_counterexample_count():
    for n in range(1, 201):
        result = brute_force_census(n)
        gap = result.b_count - result.a_count
        assert gap == sum(1 for _ in iter_counterexamples(n))


def test_ramanujan_norm_small_formula():
    # B(2) = 5; no asymptotic content this small, just the formula itself
    want = 5 * PI_SQUARED / (2 * math.log(2) ** 3)
    assert ratio_point(brute_force_census(2)).ramanujan_norm == pytest.approx(want, rel=1e-15)
    assert ratio_table([2])[0].ramanujan_norm == pytest.approx(want, rel=1e-15)


def test_a_norm_small_formula():
    value = ratio_point(brute_force_census(4)).a_norm
    assert value == pytest.approx(17 / (4 * math.log(4) ** 2), rel=1e-15)
    assert value == pytest.approx(2.2115, abs=5e-4)


def test_lemma_norm_small_formula():
    value = ratio_point(brute_force_census(4)).lemma_norm
    assert value == pytest.approx(9 / (4 * math.log(4)), rel=1e-15)
    assert value == pytest.approx(1.623, abs=5e-4)


def test_lemma_norm_follows_its_two_term_asymptotic():
    # C(N) = zeta(2) N ln N + (zeta(2) (2 gamma - 1) + 2 zeta'(2)) N + O(sqrt(N) ln N)
    # (asymptotics module docstring), so the two terms leave about
    # 1 / sqrt(N) = 3.2e-4 of lemma_norm at 10^7.
    zeta2 = PI_SQUARED / 6
    euler_gamma = 0.5772156649015329
    zeta2_prime = -0.9375482543158438
    n = 10**7
    want = zeta2 + (zeta2 * (2 * euler_gamma - 1) + 2 * zeta2_prime) / math.log(n)
    (pt,) = ratio_table([n])
    assert want == pytest.approx(1.5444, abs=1e-4)
    assert pt.lemma_norm == pytest.approx(want, abs=1e-3)
