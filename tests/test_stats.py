"""Tests for the shared interval and hashing helpers."""

import numpy as np
import pytest

from freesum.errors import ParameterError
from freesum.stats import (
    Z99,
    hash_unit,
    logsumexp,
    splitmix64,
    stream_seed,
    three_way_verdict,
    wilson_interval,
)


def test_wilson_interval_frozen_values():
    lo, hi = wilson_interval(500, 1000)
    assert lo == pytest.approx(0.45940700521208483, abs=1e-12)
    assert hi == pytest.approx(0.5405929947879151, abs=1e-12)


def test_wilson_interval_edge_counts():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0
    assert hi == pytest.approx(0.062220687715822974, abs=1e-12)
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0
    assert lo == pytest.approx(0.9377793122841772, abs=1e-12)


def test_wilson_interval_properties():
    for n in (10, 100, 10000):
        lo, hi = wilson_interval(n // 2, n)
        assert 0.0 <= lo <= 0.5 <= hi <= 1.0
    # interval shrinks with more data
    w1 = np.diff(wilson_interval(50, 100))[0]
    w2 = np.diff(wilson_interval(5000, 10000))[0]
    assert w2 < w1


def test_wilson_interval_validation():
    with pytest.raises(ParameterError):
        wilson_interval(1, 0)
    with pytest.raises(ParameterError):
        wilson_interval(11, 10)


def test_splitmix64_reference_vector():
    # first output of the reference sequence seeded at zero
    assert int(splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF


def test_stream_seed_determinism():
    assert stream_seed(42, 0) == 5592132763777985307
    assert stream_seed(42, 1) == 9129838320742759465
    assert stream_seed(42, 0) != stream_seed(43, 0)


def test_hash_unit_frozen_and_bounded():
    cols = [np.array([0.5, 1.5]), np.array([2.0, 3.0])]
    h = hash_unit(7, cols)
    assert h[0] == pytest.approx(0.5172857141749149, abs=1e-15)
    assert h[1] == pytest.approx(0.9081472349107992, abs=1e-15)
    assert np.array_equal(h, hash_unit(7, cols))
    assert not np.array_equal(h, hash_unit(8, cols))
    rng = np.random.default_rng(0)
    big = hash_unit(3, [rng.uniform(-5, 5, 4096), rng.uniform(-5, 5, 4096)])
    assert np.all((big >= 0.0) & (big < 1.0))
    # roughly uniform: mean near 1/2, CLT gives ~0.0045 standard error
    assert abs(np.mean(big) - 0.5) < 0.02
    with pytest.raises(ParameterError):
        hash_unit(1, [])


def test_z99_constant():
    # two-sided 99% quantile of the standard normal
    from scipy.stats import norm

    assert Z99 == pytest.approx(norm.ppf(0.995), abs=1e-12)


def test_three_way_verdict_boundaries():
    assert three_way_verdict(-1.0, 1.0) == "holds"
    assert three_way_verdict(-1.5, 1.0) == "inconclusive"
    assert three_way_verdict(-3.0, 1.0) == "inconclusive"
    assert three_way_verdict(-3.5, 1.0) == "violated"
    # zero tolerance: any negative deficit is a clear violation
    assert three_way_verdict(0.0, 0.0) == "holds"
    assert three_way_verdict(-1e-12, 0.0) == "violated"


def test_logsumexp_matches_scipy():
    from scipy.special import logsumexp as scipy_logsumexp

    assert logsumexp(np.full(4, -np.inf)) == -np.inf
    assert logsumexp([-3.25]) == -3.25
    big = np.random.default_rng(5).uniform(-700.0, 700.0, 10**5)
    for a in (big, big - 1400.0, np.array([0.0, -np.inf, 1e-3])):
        assert logsumexp(a) == pytest.approx(float(scipy_logsumexp(a)), rel=1e-14)
