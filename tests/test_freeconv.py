"""Tests for free additive convolution via subordination."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freesum
from freesum import freeconv
from freesum.cumulants import free_cumulant
from freesum.freeconv import free_convolve
from freesum.measure import (
    affine_pushforward,
    arcsine,
    bernoulli,
    free_poisson,
    l1_distance,
    moment,
    point_mass,
    semicircle,
    uniform,
)
from freesum.transform import StaircaseTransform, r_transform
from helpers import gapped_two_point_cdf

CELLS = 1024


def variance(mu):
    return moment(mu, 2) - moment(mu, 1) ** 2


def test_semicircle_stability():
    # semicircle(s) + semicircle(t) = semicircle(s + t)
    for s, t in [(0.5, 0.5), (0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]:
        out = free_convolve(
            semicircle(s, n_cells=CELLS), semicircle(t, n_cells=CELLS), n_cells=CELLS
        )
        target = semicircle(s + t, n_cells=CELLS)
        assert l1_distance(out, target) < 1e-2
        assert variance(out) == pytest.approx(s + t, abs=1e-3)


def test_two_point_law_gives_arcsine():
    b = bernoulli(0.5, -1.0, 1.0)
    out = free_convolve(b, b, n_cells=2048)
    target = arcsine(2.0)
    # snapped windows make the grids line up exactly
    assert out.grid_lo == target.grid_lo and out.grid_hi == target.grid_hi
    assert l1_distance(out, target) < 2e-2
    assert variance(out) == pytest.approx(2.0, abs=1e-3)
    assert out.meta["unconverged_points"] == 0


def test_point_mass_translates():
    sc = semicircle(1.0, n_cells=CELLS)
    out = free_convolve(point_mass(0.5), sc, n_cells=CELLS)
    assert l1_distance(out, affine_pushforward(sc, 1.0, 0.5)) < 1e-3
    assert moment(out, 1) == pytest.approx(0.5, abs=1e-9)
    both = free_convolve(point_mass(0.3), point_mass(-1.0))
    assert both.atoms == ((-0.7, 1.0),)


def test_mean_and_variance_additivity():
    a = uniform(-1.0, 1.0, n_cells=CELLS)
    b = free_poisson(2.0, n_cells=CELLS)
    out = free_convolve(a, b, n_cells=CELLS)
    assert moment(out, 1) == pytest.approx(moment(a, 1) + moment(b, 1), abs=1e-3)
    assert variance(out) == pytest.approx(variance(a) + variance(b), abs=1e-3)


def test_support_containment():
    a = uniform(-1.0, 1.0, n_cells=CELLS)
    b = free_poisson(2.0, n_cells=CELLS)
    out = free_convolve(a, b, n_cells=CELLS)
    lo, hi = out.support()
    sum_lo = a.support()[0] + b.support()[0]
    sum_hi = a.support()[1] + b.support()[1]
    assert lo >= sum_lo - 2 * out.cell_width
    assert hi <= sum_hi + 2 * out.cell_width


def test_commutativity():
    a = uniform(-1.0, 1.0, n_cells=CELLS)
    b = free_poisson(2.0, n_cells=CELLS)
    assert l1_distance(free_convolve(a, b, CELLS), free_convolve(b, a, CELLS)) < 1e-3


def test_cumulant_additivity_battery():
    pairs = [
        (semicircle(1.0, n_cells=CELLS), free_poisson(2.0, n_cells=CELLS)),
        (uniform(-1.0, 1.0, n_cells=CELLS), uniform(0.0, 1.0, n_cells=CELLS)),
        (bernoulli(0.5, -1.0, 1.0), semicircle(0.5, n_cells=CELLS)),
    ]
    for a, b in pairs:
        out = free_convolve(a, b, n_cells=CELLS)
        for order in (1, 2, 3, 4):
            lhs = free_cumulant(out, order)
            rhs = free_cumulant(a, order) + free_cumulant(b, order)
            assert lhs == pytest.approx(rhs, abs=5e-3)


@pytest.mark.parametrize("r", [0.4, 0.6, 0.95])
def test_gapped_two_point_sum_adds_cumulants(r):
    # the sum has inverse-square-root edges inside its support too, at +-(1 - r)
    a, b = bernoulli(0.5, -1.0, 1.0), bernoulli(0.5, -r, r)
    out = free_convolve(a, b)
    assert out.meta["unconverged_points"] == 0
    for order in (2, 4):
        err = free_cumulant(out, order) - free_cumulant(a, order) - free_cumulant(b, order)
        assert abs(err) <= 5e-3
    edges = out.edges()
    exact = gapped_two_point_cdf(edges, 1.0 + r, 1.0 - r)
    assert np.max(np.abs(out.cdf(edges) - exact)) <= 1e-5


# affine push-forwards a X + b of three density laws at 512 cells; gapped
# sums of two-point laws have the test above
PROPERTY_CELLS = 512
BASE_LAWS = (
    semicircle(1.0, n_cells=PROPERTY_CELLS),
    uniform(-1.0, 1.0, n_cells=PROPERTY_CELLS),
    arcsine(1.0, n_cells=PROPERTY_CELLS),
)
affine_laws = st.builds(
    affine_pushforward,
    st.sampled_from(BASE_LAWS),
    st.floats(0.3, 3.0).flatmap(lambda a: st.sampled_from([a, -a])),
    st.floats(-2.0, 2.0),
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(affine_laws, affine_laws)
def test_affine_pairs_keep_mass_and_add_cumulants(a, b):
    out = free_convolve(a, b, n_cells=PROPERTY_CELLS)
    assert out.meta["cdf_end_error"] <= freeconv.CDF_TOL
    assert out.meta["cdf_repair"] <= freeconv.CDF_TOL
    assert out.meta["unconverged_points"] == 0
    # kappa_j carries the j-th power of the scale, here the sum's deviation
    scale = variance(out) ** 0.5
    for order in (1, 2, 3, 4):
        err = free_cumulant(out, order) - free_cumulant(a, order) - free_cumulant(b, order)
        assert abs(err) <= 5e-3 * scale**order


def test_r_transform_additivity():
    a = uniform(-1.0, 1.0, n_cells=CELLS)
    b = free_poisson(2.0, n_cells=CELLS)
    out = free_convolve(a, b, n_cells=CELLS)
    w = 0.05j
    assert abs(r_transform(out, w) - r_transform(a, w) - r_transform(b, w)) < 2e-3


def test_convolution_meta():
    out = free_convolve(semicircle(1.0, CELLS), semicircle(1.0, CELLS), CELLS)
    assert set(out.meta) >= {
        "cdf_end_error",
        "cdf_repair",
        "eta",
        "unconverged_points",
        "worst_residual",
        "solver_steps",
        "readout_points",
    }
    assert out.meta["cdf_end_error"] <= freeconv.CDF_TOL
    assert out.meta["cdf_repair"] <= freeconv.CDF_TOL
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
    out = free_convolve(semicircle(1.0, 256), uniform(-1.0, 1.0, 256), 256)
    assert out.meta["solver_steps"] > out.meta["readout_points"]
    assert 2 * out.meta["solver_steps"] == len(calls)


CONVOLVE_256 = """
import json
from freesum.freeconv import free_convolve
from freesum.measure import semicircle, uniform
out = free_convolve(semicircle(1.0, 256), uniform(-1.0, 1.0, 256), 256)
print(out.density.tobytes().hex())
print(json.dumps(out.meta, sort_keys=True))
"""


def test_blas_thread_count_leaves_output_unchanged():
    src = str(Path(freesum.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", CONVOLVE_256], env=env,
                              capture_output=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0].splitlines()[1])["unconverged_points"] == 0


def test_extrapolated_warm_start_step_budget():
    # neighbour warm starts took 3.14 rounds per readout point on this pair,
    # linear extrapolation 2.13 and cubic Hermite extrapolation 1.61
    out = free_convolve(semicircle(0.5), semicircle(1.0))
    assert out.meta["unconverged_points"] == 0
    assert out.meta["solver_steps"] <= 1.9 * out.meta["readout_points"]


def test_warm_start_slope_is_the_branch_derivative():
    # the slope kept with an accepted point, -F_beta'(omega2) / H'(omega1),
    # is d(omega1)/dx along the readout line
    a, b = semicircle(1.0, 256), uniform(-1.0, 1.0, 256)
    eta = free_convolve(a, b, 256).meta["eta"]
    solver = freeconv._PointSolver(a, b)
    dx = 1e-4
    for x in (-1.5, 0.3, 1.2):
        _, _, _, (_, slope), converged = solver.bootstrap(complex(x, eta), 5.0)
        assert converged
        right = solver.bootstrap(complex(x + dx, eta), 5.0)
        left = solver.bootstrap(complex(x - dx, eta), 5.0)
        assert right[-1] and left[-1]
        central = (right[0] - left[0]) / (2 * dx)
        assert abs(slope - central) <= 1e-5 * abs(slope)


def test_warm_start_changes_speed_only(monkeypatch):
    # a sweep that bootstraps every point reads the same density
    a, b = semicircle(1.0, 256), uniform(-1.0, 1.0, 256)
    warm = free_convolve(a, b, 256)
    solve = freeconv._PointSolver.solve

    def refuse_warm_starts(self, z, w1, budget):
        if w1 is None:
            return None, math.inf, None, None, False
        return solve(self, z, w1, budget)

    monkeypatch.setattr(freeconv, "_warm_start", lambda trail, x, floor: None)
    monkeypatch.setattr(freeconv._PointSolver, "solve", refuse_warm_starts)
    cold = free_convolve(a, b, 256)
    assert warm.meta["unconverged_points"] == cold.meta["unconverged_points"] == 0
    assert cold.meta["solver_steps"] > 5 * warm.meta["solver_steps"]
    peak = warm.density.max()
    assert np.abs(warm.density - cold.density).max() <= 1e-8 * peak


def test_readout_points_count_the_points_solved(monkeypatch):
    # every point the sweep solves at the readout height Im z = eta, fallback
    # bootstraps included, is one readout point and counts in the 1% gate
    solved = set()
    solve = freeconv._PointSolver.solve

    def recorded(self, z, w1, budget):
        solved.add(z)
        return solve(self, z, w1, budget)

    monkeypatch.setattr(freeconv._PointSolver, "solve", recorded)
    out = free_convolve(semicircle(1.0, 256), uniform(-1.0, 1.0, 256), 256)
    at_readout = {z.real for z in solved if z.imag == out.meta["eta"]}
    assert len(at_readout) == out.meta["readout_points"]


def test_subordination_identities():
    a = uniform(-1.0, 1.0, n_cells=CELLS)
    b = free_poisson(2.0, n_cells=CELLS)
    z = 0.5 + 0.8j
    (alo, ahi), (blo, bhi) = a.support(), b.support()
    solver = freeconv._PointSolver(a, b)
    omega1, residual, _, _, converged = solver.bootstrap(z, (ahi + bhi) - (alo + blo))
    assert converged and residual <= 1e-9
    ga = StaircaseTransform(a).g(omega1)
    omega2 = 1.0 / ga + z - omega1
    gb = StaircaseTransform(b).g(omega2)
    # both subordinated evaluations give G of the convolution
    assert abs(ga - gb) < 1e-9
    assert omega1.imag >= z.imag
    assert omega2.imag >= z.imag


def test_atomic_output_rejected_by_mass_check():
    # bern(p) boxplus bern(q) carries an atom of mass |1 - p - q| whenever
    # p + q != 1; the continuous inverter cannot represent it and must
    # refuse rather than renormalize the gap away
    from freesum.errors import InversionQualityError

    a = bernoulli(0.25, -1.9, 0.3, n_cells=CELLS)
    b = bernoulli(0.33, -1.0, 0.6, n_cells=CELLS)
    with pytest.raises(InversionQualityError, match="mass"):
        free_convolve(a, b, n_cells=CELLS)
