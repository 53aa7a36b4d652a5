"""Tests for Cauchy transform evaluation and the R-transform."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesum.errors import ConvergenceError, ParameterError
from freesum.measure import Measure, bernoulli, semicircle
from freesum.transform import StaircaseTransform, cauchy_transform, r_transform


def test_semicircle_closed_form():
    # G(z) = (z - sqrt(z^2 - 4)) / 2 for unit variance; at z = 2i this is
    # (1 - sqrt(2)) i
    expected = (1.0 - math.sqrt(2.0)) * 1j
    sc = semicircle(1.0)
    assert abs(cauchy_transform(sc, 2j) - expected) < 1e-6
    sc_fine = semicircle(1.0, n_cells=8192)
    assert abs(cauchy_transform(sc_fine, 2j) - expected) < 1e-7


def test_atomic_cauchy_exact():
    b = bernoulli(0.5, -1.0, 1.0)
    z = 0.4 + 0.8j
    assert abs(cauchy_transform(b, z) - z / (z * z - 1.0)) < 1e-12
    assert cauchy_transform(b, 1j) == -0.5j
    from freesum.measure import point_mass

    assert cauchy_transform(point_mass(0.0), 1j) == -1j


def g_and_deriv_at(ev, zs):
    """G and G' at each point of zs, as two arrays."""
    values = [ev.g_and_deriv(z) for z in zs]
    return np.array([v[0] for v in values]), np.array([v[1] for v in values])


def g_at(ev, zs):
    return np.array([ev.g(z) for z in zs])


def test_schwarz_reflection():
    st = StaircaseTransform(semicircle(1.0))
    rng = np.random.default_rng(5)
    zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(1e-3, 4.0, 100)
    assert np.max(np.abs(np.conj(g_at(st, np.conj(zs))) - g_at(st, zs))) == 0.0


def test_herglotz_and_asymptotics():
    st = StaircaseTransform(semicircle(1.0))
    rng = np.random.default_rng(11)
    zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(1e-3, 5.0, 100)
    assert np.all(g_at(st, zs).imag < 0)
    # far from the support, z G(z) - 1 decays like 1/z^2
    ring = rng.uniform(20, 40, 25) * np.exp(1j * rng.uniform(0.1, math.pi - 0.1, 25))
    assert np.all(np.abs(ring * g_at(st, ring) - 1.0) <= 1.0 / np.abs(ring))


def per_cell_g_and_deriv(mu, z):
    """Reference G and G': c * (Log(z - l) - Log(z - r)) summed cell by cell."""
    z = np.asarray(z, dtype=complex)
    edges = mu.edges()
    nz = np.nonzero(mu.density)[0]
    dl = z[..., None] - edges[nz]
    dr = z[..., None] - edges[nz + 1]
    c = mu.density[nz]
    g = np.sum(c * (np.log(dl) - np.log(dr)), axis=-1)
    gp = np.sum(c * (1.0 / dl - 1.0 / dr), axis=-1)
    for loc, w in mu.atoms:
        g = g + w / (z - loc)
        gp = gp - w / (z - loc) ** 2
    return g, gp


@st.composite
def staircase_measures(draw):
    """Staircases of 2-64 cells on windows 0.2-6 wide, with an interior zero
    gap and up to 3 atoms.

    Rounding in both forms grows with the density jumps: on windows about
    0.03 wide the per-cell reference itself is off by about 1e-13.
    """
    n = draw(st.integers(2, 64))
    lo = draw(st.floats(-3.0, 2.0))
    width = draw(st.floats(0.2, 6.0))
    cell_heights = st.one_of(st.just(0.0), st.floats(0.01, 10.0))
    heights = np.array(draw(st.lists(cell_heights, min_size=n, max_size=n)))
    gap = draw(st.integers(0, n - 1))
    heights[gap : gap + draw(st.integers(0, n // 2))] = 0.0
    if not heights.any():
        heights[0] = 1.0
    atoms = draw(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.01, 0.2)), max_size=3)
    )
    atom_mass = sum(w for _, w in atoms)
    hi = lo + width
    density = heights / (heights.sum() * (hi - lo) / n) * (1.0 - atom_mass)
    return Measure(lo, hi, density, tuple((lo + u * width, w) for u, w in atoms))


# both half-planes, from 1e-6 off the axis out to |z| = 1e3
off_axis_points = st.lists(
    st.builds(
        complex,
        st.one_of(st.floats(-6.0, 6.0), st.floats(-1e3, 1e3)),
        st.one_of(st.floats(1e-6, 10.0), st.floats(10.0, 1e3)).flatmap(
            lambda y: st.sampled_from([y, -y])
        ),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(staircase_measures(), off_axis_points)
def test_edge_jump_form_matches_per_cell_form(mu, points):
    z = np.array(points)
    ev = StaircaseTransform(mu)
    g, gp = g_and_deriv_at(ev, z)
    g_ref, gp_ref = per_cell_g_and_deriv(mu, z)
    assert np.all(np.abs(g - g_ref) <= 1e-13 * (1.0 + np.abs(g_ref)))
    assert np.all(np.abs(gp - gp_ref) <= 1e-10 * (1.0 + np.abs(gp_ref)))
    assert np.array_equal(g_at(ev, z), g)
    # Herglotz: each half-plane maps into the opposite one
    assert np.all(g.imag * z.imag < 0)
    # Schwarz reflection holds exactly, not just to rounding
    g_conj, gp_conj = g_and_deriv_at(ev, np.conj(z))
    assert np.array_equal(g_conj, np.conj(g))
    assert np.array_equal(gp_conj, np.conj(gp))


def per_cell_im_potential(mu, z):
    """Reference Im L: c * Im(Phi(z - l) - Phi(z - r)), Phi(u) = u Log u - u, per cell."""
    edges = mu.edges()
    nz = np.nonzero(mu.density)[0]
    phi = lambda u: u * np.log(u) - u  # noqa: E731
    value = np.sum(mu.density[nz] * (phi(z - edges[nz]) - phi(z - edges[nz + 1])))
    value += sum(w * np.log(z - loc) for loc, w in mu.atoms)
    return value.imag


@settings(max_examples=100, deadline=None, derandomize=True)
@given(staircase_measures(), off_axis_points)
def test_im_potential_matches_per_cell_form(mu, points):
    ev = StaircaseTransform(mu)
    for z in points:
        im_l = ev.g_and_deriv(z)[2]
        assert abs(im_l - per_cell_im_potential(mu, z)) <= 1e-12 * (1.0 + abs(z))
        # Im L(x + iy) / pi -> mass right of x as y -> 0+, off the atoms
        if all(abs(z.real - loc) > 1e-3 for loc, _ in mu.atoms):
            right = 1.0 - float(mu.cdf(z.real))
            assert abs(ev.g_and_deriv(complex(z.real, 1e-12))[2] / math.pi - right) <= 1e-6


def test_one_call_allocates_less_than_one_edge_array():
    # the per-edge rows live in buffers made once, by the constructor
    ev = StaircaseTransform(semicircle(1.0))
    z = 0.3 + 0.7j
    ev.g_and_deriv(z)
    tracemalloc.start()
    try:
        ev.g_and_deriv(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ev.coef.size * 8


def test_coefficients_are_edge_jumps():
    mu = Measure(0.0, 1.0, np.array([0.0, 2.0, 2.0, 0.0, 1.0, 3.0]) / (8.0 / 6.0))
    ev = StaircaseTransform(mu)
    # equal neighbours and the zero cells' edges leave no jump
    np.testing.assert_array_equal(ev.edge_loc, mu.edges()[[1, 3, 4, 5, 6]])
    np.testing.assert_array_equal(ev.coef, np.array([2.0, -2.0, 1.0, 2.0, -3.0]) * 0.75)
    assert ev.coef.sum() == 0.0


def test_real_axis_rejected():
    sc = semicircle(1.0)
    with pytest.raises(ParameterError):
        cauchy_transform(sc, 1.5)


def test_derivative_matches_finite_difference():
    sc = semicircle(1.0)
    z = 0.3 + 0.7j
    h = 1e-6
    fd = (cauchy_transform(sc, z + h) - cauchy_transform(sc, z - h)) / (2 * h)
    assert abs(StaircaseTransform(sc).g_and_deriv(z)[1] - fd) < 1e-8


def test_r_transform_semicircle_linear():
    # R(w) = variance * w
    sc = semicircle(1.0)
    assert abs(r_transform(sc, 0.1j) - 0.1j) < 1e-6
    sc2 = semicircle(0.5, n_cells=4096)
    assert abs(r_transform(sc2, 0.2 + 0.1j) - 0.5 * (0.2 + 0.1j)) < 1e-6


def test_r_transform_bernoulli_closed_form():
    # symmetric two-point law: R(w) = (sqrt(1 + 4 w^2) - 1) / (2 w)
    b = bernoulli(0.5, -1.0, 1.0)
    assert abs(r_transform(b, 0.2) - (math.sqrt(1.16) - 1.0) / 0.4) < 1e-12
    w = 0.3 + 0.2j
    expected = (np.sqrt(1.0 + 4.0 * w * w) - 1.0) / (2.0 * w)
    assert abs(r_transform(b, w) - expected) < 1e-10


def test_r_transform_point_mass_constant():
    from freesum.measure import point_mass

    pm = point_mass(0.7)
    for w in (0.05, 0.1j, 0.2 + 0.1j):
        assert abs(r_transform(pm, w) - 0.7) < 1e-9


def test_r_transform_unreachable_argument():
    # w = 1.5 lies outside the range of G for the semicircle, so Newton
    # cannot land on a consistent branch
    with pytest.raises(ConvergenceError):
        r_transform(semicircle(1.0), 1.5)
