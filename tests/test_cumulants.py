"""Tests for moment/cumulant conversion and non-crossing mixed moments."""

import numpy as np
import pytest

from freesum.cumulants import (
    cumulants_from_moments,
    free_cumulant,
    mixed_free_moment,
    moments_from_cumulants,
    pair_moment_targets,
)
from freesum.errors import ParameterError
from freesum.measure import (
    bernoulli,
    free_poisson,
    point_mass,
    semicircle,
)

SEMICIRCLE_CUMULANTS = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_semicircle_moments_are_catalan():
    m = moments_from_cumulants(SEMICIRCLE_CUMULANTS)
    assert m == pytest.approx([0, 1, 0, 2, 0, 5, 0, 14], abs=1e-12)


def test_free_poisson_rate_one_moments():
    assert moments_from_cumulants([1.0, 1.0, 1.0, 1.0]) == pytest.approx(
        [1, 2, 5, 14], abs=1e-12
    )


def test_moment_cumulant_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(10):
        k = list(rng.uniform(-2, 2, 6))
        back = cumulants_from_moments(moments_from_cumulants(k))
        assert back == pytest.approx(k, abs=1e-10)


def test_free_cumulant_semicircle():
    sc = semicircle(1.0)
    assert free_cumulant(sc, 2) == pytest.approx(1.0, abs=1e-6)
    assert free_cumulant(sc, 4) == pytest.approx(0.0, abs=1e-6)
    fine = semicircle(1.0, n_cells=4096)
    assert free_cumulant(fine, 4) == pytest.approx(0.0, abs=1e-6)
    assert free_cumulant(fine, 1) == pytest.approx(0.0, abs=1e-8)
    assert free_cumulant(fine, 3) == pytest.approx(0.0, abs=1e-7)


def test_free_cumulant_point_mass():
    pm = point_mass(0.7)
    assert free_cumulant(pm, 1) == pytest.approx(0.7, abs=1e-14)
    for order in (2, 3, 4):
        assert free_cumulant(pm, order) == pytest.approx(0.0, abs=1e-14)


def test_free_cumulant_bernoulli():
    b = bernoulli(0.5, -1.0, 1.0)
    assert free_cumulant(b, 2) == pytest.approx(1.0, abs=1e-6)
    assert free_cumulant(b, 4) == pytest.approx(-1.0, abs=1e-6)


def test_free_cumulant_free_poisson():
    # all free cumulants of the rate-r law equal r
    fp = free_poisson(2.0)
    for order in (1, 2, 3, 4):
        assert free_cumulant(fp, order) == pytest.approx(2.0, abs=1e-5)


def test_free_cumulant_order_validation():
    sc = semicircle(1.0)
    with pytest.raises(ParameterError):
        free_cumulant(sc, 5)
    with pytest.raises(ParameterError):
        free_cumulant(sc, 0)


def test_mixed_free_moment_two_point_laws():
    cb = [0.0, 1.0, 0.0, -1.0]
    pair = {0: cb, 1: cb}
    assert mixed_free_moment(pair, (0, 1, 0, 1)) == pytest.approx(0.0, abs=1e-14)
    assert mixed_free_moment(pair, (0, 0, 1, 1)) == pytest.approx(1.0, abs=1e-14)
    assert mixed_free_moment(pair, (1, 1, 1, 1)) == pytest.approx(1.0, abs=1e-14)


def test_mixed_free_moment_semicircular_pair():
    cs = [0.0, 1.0, 0.0, 0.0]
    pair = {0: cs, 1: cs}
    # crossing patterns vanish for free semicirculars
    assert mixed_free_moment(pair, (0, 1, 0, 1)) == pytest.approx(0.0, abs=1e-14)
    assert mixed_free_moment(pair, (0, 1, 1, 0)) == pytest.approx(1.0, abs=1e-14)
    assert mixed_free_moment(pair, (0, 0, 0, 0)) == pytest.approx(2.0, abs=1e-14)


def test_mixed_free_moment_factorizes_alternating_pattern():
    # freeness forces tau(abab) = tau(a)^2 tau(b^2) + tau(a^2) tau(b)^2
    #                              - tau(a)^2 tau(b)^2
    ca = [0.5, 1.0, 0.0, 0.0]
    cb = [0.3, 2.0, 0.0, 0.0]
    pair = {0: ca, 1: cb}
    assert mixed_free_moment(pair, (0, 1)) == pytest.approx(0.15, abs=1e-14)
    ta, ta2 = 0.5, 1.25
    tb, tb2 = 0.3, 2.09
    expected = ta * ta * tb2 + ta2 * tb * tb - ta * ta * tb * tb
    assert mixed_free_moment(pair, (0, 1, 0, 1)) == pytest.approx(expected, abs=1e-12)


def test_pair_moment_targets_enumeration():
    targets = pair_moment_targets([0.0, 1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0], 4)
    # 2 + 4 + 8 + 16 words over a two-letter alphabet
    assert len(targets) == 30
    assert targets[(0,)] == pytest.approx(0.0, abs=1e-14)
    assert targets[(0, 0)] == pytest.approx(1.0, abs=1e-14)
    assert targets[(0, 1)] == pytest.approx(0.0, abs=1e-14)
    assert targets[(0, 0, 1, 1)] == pytest.approx(1.0, abs=1e-14)
    assert targets[(0, 1, 0, 1)] == pytest.approx(0.0, abs=1e-14)
