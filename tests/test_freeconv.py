"""Tests for free additive convolution via subordination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesum import freeconv
from freesum.cumulants import free_cumulant
from freesum.errors import ParameterError
from freesum.freeconv import free_convolve, subordination_at
from freesum.measure import (
    GridConfig,
    affine_pushforward,
    arcsine,
    bernoulli,
    free_poisson,
    l1_distance,
    moment,
    point_mass,
    semicircle,
    snapped_window,
    uniform,
)
from freesum.transform import StaircaseTransform, r_transform

GRID = GridConfig(1024)


def variance(mu):
    return moment(mu, 2) - moment(mu, 1) ** 2


def test_semicircle_stability():
    # semicircle(s) + semicircle(t) = semicircle(s + t)
    for s, t in [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]:
        out = free_convolve(
            semicircle(s, grid=GRID), semicircle(t, grid=GRID), grid=GRID
        )
        target = semicircle(s + t, grid=GRID)
        assert l1_distance(out, target) < 1e-2
        assert variance(out) == pytest.approx(s + t, abs=1e-3)


def test_two_point_law_gives_arcsine():
    b = bernoulli(0.5, -1.0, 1.0)
    out = free_convolve(b, b, grid=GridConfig(2048))
    target = arcsine(2.0)
    # snapped windows make the grids line up exactly
    assert out.grid_lo == target.grid_lo and out.grid_hi == target.grid_hi
    assert l1_distance(out, target) < 2e-2
    assert variance(out) == pytest.approx(2.0, abs=1e-3)
    assert out.meta["unconverged_points"] == 0


def test_point_mass_translates():
    sc = semicircle(1.0, grid=GRID)
    out = free_convolve(point_mass(0.5), sc, grid=GRID)
    assert l1_distance(out, affine_pushforward(sc, 1.0, 0.5)) < 1e-3
    assert moment(out, 1) == pytest.approx(0.5, abs=1e-9)
    both = free_convolve(point_mass(0.3), point_mass(-1.0))
    assert both.atoms == ((-0.7, 1.0),)


def test_mean_and_variance_additivity():
    a = uniform(-1.0, 1.0, grid=GRID)
    b = free_poisson(2.0, grid=GRID)
    out = free_convolve(a, b, grid=GRID)
    assert moment(out, 1) == pytest.approx(moment(a, 1) + moment(b, 1), abs=1e-3)
    assert variance(out) == pytest.approx(variance(a) + variance(b), abs=1e-3)


def test_support_containment():
    a = uniform(-1.0, 1.0, grid=GRID)
    b = free_poisson(2.0, grid=GRID)
    out = free_convolve(a, b, grid=GRID)
    lo, hi = out.support()
    sum_lo = a.support()[0] + b.support()[0]
    sum_hi = a.support()[1] + b.support()[1]
    assert lo >= sum_lo - 2 * out.cell_width
    assert hi <= sum_hi + 2 * out.cell_width


def test_commutativity():
    a = uniform(-1.0, 1.0, grid=GRID)
    b = free_poisson(2.0, grid=GRID)
    assert l1_distance(free_convolve(a, b, grid=GRID), free_convolve(b, a, grid=GRID)) < 1e-3


def test_cumulant_additivity_battery():
    pairs = [
        (semicircle(1.0, grid=GRID), free_poisson(2.0, grid=GRID)),
        (uniform(-1.0, 1.0, grid=GRID), uniform(0.0, 1.0, grid=GRID)),
        (bernoulli(0.5, -1.0, 1.0), semicircle(0.5, grid=GRID)),
    ]
    for a, b in pairs:
        out = free_convolve(a, b, grid=GRID)
        for order in (1, 2, 3, 4):
            lhs = free_cumulant(out, order)
            rhs = free_cumulant(a, order) + free_cumulant(b, order)
            assert lhs == pytest.approx(rhs, abs=5e-3)


def test_r_transform_additivity():
    a = uniform(-1.0, 1.0, grid=GRID)
    b = free_poisson(2.0, grid=GRID)
    out = free_convolve(a, b, grid=GRID)
    w = 0.05j
    assert abs(r_transform(out, w) - r_transform(a, w) - r_transform(b, w)) < 2e-3


def test_convolution_meta():
    out = free_convolve(semicircle(1.0, grid=GRID), semicircle(1.0, grid=GRID), grid=GRID)
    assert set(out.meta) >= {
        "raw_mass",
        "renormalization",
        "eta",
        "unconverged_points",
        "worst_residual",
        "solver_steps",
        "readout_points",
    }
    assert 0.9 <= out.meta["raw_mass"] <= 1.1
    assert out.meta["eta"] > 0
    assert out.meta["unconverged_points"] == 0


def test_solver_steps_count_evaluation_rounds(monkeypatch):
    # one round evaluates both input transforms once
    calls = []
    g_and_deriv = StaircaseTransform.g_and_deriv

    def counted(self, z):
        calls.append(z)
        return g_and_deriv(self, z)

    monkeypatch.setattr(StaircaseTransform, "g_and_deriv", counted)
    small = GridConfig(256)
    out = free_convolve(semicircle(1.0, grid=small), uniform(-1.0, 1.0, grid=small), grid=small)
    assert out.meta["solver_steps"] > out.meta["readout_points"]
    assert 2 * out.meta["solver_steps"] == len(calls)


def test_extrapolated_warm_start_step_budget():
    # neighbour warm starts took 3.14 rounds per readout point on this pair
    out = free_convolve(semicircle(0.5), semicircle(1.0))
    assert out.meta["unconverged_points"] == 0
    assert out.meta["solver_steps"] <= 2.6 * out.meta["readout_points"]


def test_readout_points_count_the_points_solved(monkeypatch):
    # every point the sweep solves at the readout height Im z = eta, fallback
    # bootstraps included, is one readout point and counts in the 1% gate
    solved = set()
    solve = freeconv._PointSolver.solve

    def recorded(self, z, w1, budget):
        solved.add(z)
        return solve(self, z, w1, budget)

    monkeypatch.setattr(freeconv._PointSolver, "solve", recorded)
    small = GridConfig(256)
    out = free_convolve(semicircle(1.0, grid=small), uniform(-1.0, 1.0, grid=small), grid=small)
    at_readout = {z.real for z in solved if z.imag == out.meta["eta"]}
    assert len(at_readout) == out.meta["readout_points"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 4096), st.floats(1.0, 4.0))
def test_readout_plan_shape(n_cells, padding):
    grid = GridConfig(n_cells, padding)
    lo, hi, pad = snapped_window(-1.3, 0.7, grid)
    h = (hi - lo) / n_cells
    interior = np.arange(pad, n_cells - pad)
    x, weight, cell = freeconv._readout_plan(lo, h, interior)
    assert np.all(np.diff(x) > 0)
    assert np.all(lo + h * cell < x) and np.all(x < lo + h * (cell + 1))
    np.testing.assert_allclose(np.bincount(cell, weight)[interior], 1.0, rtol=0, atol=1e-14)
    counts = np.bincount(cell, minlength=n_cells)[interior]
    n_edge = min(freeconv.EDGE_CELLS, interior.size // 2)
    assert counts[0] == counts[-1] == 40
    assert np.all(counts[1:n_edge] == 8) and np.all(counts[-n_edge:-1] == 8)
    assert np.all(counts[n_edge:-n_edge] == 1)


def test_subordination_identities():
    a = uniform(-1.0, 1.0, grid=GRID)
    b = free_poisson(2.0, grid=GRID)
    z = 0.5 + 0.8j
    state = subordination_at(a, b, z)
    ga = StaircaseTransform(a).g(np.array([state.omega1]))[0]
    gb = StaircaseTransform(b).g(np.array([state.omega2]))[0]
    # both subordinated evaluations give G of the convolution
    assert abs(ga - gb) < 1e-9
    assert abs(state.omega1 + state.omega2 - z - 1.0 / ga) < 1e-9
    assert state.omega1.imag >= z.imag
    assert state.omega2.imag >= z.imag
    assert state.residual <= 1e-9


def test_subordination_rejects_lower_half_plane():
    a = semicircle(1.0, grid=GRID)
    with pytest.raises(ParameterError):
        subordination_at(a, a, 0.5 - 0.1j)
    with pytest.raises(ParameterError):
        subordination_at(a, a, 0.5)


def test_atomic_output_rejected_by_mass_check():
    # bern(p) boxplus bern(q) carries an atom of mass |1 - p - q| whenever
    # p + q != 1; the continuous inverter cannot represent it and must
    # refuse rather than renormalize the gap away
    from freesum.errors import InversionQualityError

    a = bernoulli(0.25, -1.9, 0.3, grid=GRID)
    b = bernoulli(0.33, -1.0, 0.6, grid=GRID)
    with pytest.raises(InversionQualityError, match="mass"):
        free_convolve(a, b, grid=GRID)
