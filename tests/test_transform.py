"""Tests for Cauchy transform evaluation, inversion, and the R-transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freesum.errors import (
    ConvergenceError,
    DomainError,
    InversionQualityError,
    ParameterError,
)
from freesum.measure import GridConfig, Measure, bernoulli, l1_distance, semicircle
from freesum.transform import (
    CauchyEvaluation,
    StaircaseTransform,
    cauchy_derivative,
    cauchy_transform,
    evaluate_cauchy,
    r_transform,
    stieltjes_invert,
)


def test_cauchy_evaluation_validates_half_plane():
    CauchyEvaluation(0.3 + 0.7j, 0.1 - 0.2j)
    with pytest.raises(ParameterError):
        # upper half plane must map into the lower half plane
        CauchyEvaluation(0.3 + 0.7j, 0.1 + 0.2j)


def test_semicircle_closed_form():
    # G(z) = (z - sqrt(z^2 - 4)) / 2 for unit variance; at z = 2i this is
    # (1 - sqrt(2)) i
    expected = (1.0 - math.sqrt(2.0)) * 1j
    sc = semicircle(1.0)
    assert abs(cauchy_transform(sc, 2j) - expected) < 1e-6
    sc_fine = semicircle(1.0, grid=GridConfig(8192))
    assert abs(cauchy_transform(sc_fine, 2j) - expected) < 1e-7


def test_atomic_cauchy_exact():
    b = bernoulli(0.5, -1.0, 1.0)
    z = 0.4 + 0.8j
    assert abs(cauchy_transform(b, z) - z / (z * z - 1.0)) < 1e-12
    assert cauchy_transform(b, 1j) == -0.5j
    from freesum.measure import point_mass

    assert cauchy_transform(point_mass(0.0), 1j) == -1j


def test_schwarz_reflection():
    st = StaircaseTransform(semicircle(1.0))
    rng = np.random.default_rng(5)
    zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(1e-3, 4.0, 100)
    assert np.max(np.abs(np.conj(st.g(np.conj(zs))) - st.g(zs))) == 0.0


def test_herglotz_and_asymptotics():
    st = StaircaseTransform(semicircle(1.0))
    rng = np.random.default_rng(11)
    zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(1e-3, 5.0, 100)
    assert np.all(st.g(zs).imag < 0)
    # far from the support, z G(z) - 1 decays like 1/z^2
    ring = rng.uniform(20, 40, 25) * np.exp(1j * rng.uniform(0.1, math.pi - 0.1, 25))
    assert np.all(np.abs(ring * st.g(ring) - 1.0) <= 1.0 / np.abs(ring))


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
    g, gp = ev.g_and_deriv(z)
    g_ref, gp_ref = per_cell_g_and_deriv(mu, z)
    assert np.all(np.abs(g - g_ref) <= 1e-13 * (1.0 + np.abs(g_ref)))
    assert np.all(np.abs(gp - gp_ref) <= 1e-10 * (1.0 + np.abs(gp_ref)))
    assert np.array_equal(ev.g(z), g)
    # Herglotz: each half-plane maps into the opposite one
    assert np.all(g.imag * z.imag < 0)
    # Schwarz reflection holds exactly, not just to rounding
    g_conj, gp_conj = ev.g_and_deriv(np.conj(z))
    assert np.array_equal(g_conj, np.conj(g))
    assert np.array_equal(gp_conj, np.conj(gp))


def test_coefficients_are_edge_jumps():
    mu = Measure(0.0, 1.0, np.array([0.0, 2.0, 2.0, 0.0, 1.0, 3.0]) / (8.0 / 6.0))
    ev = StaircaseTransform(mu)
    # equal neighbours and the zero cells' edges leave no jump
    np.testing.assert_array_equal(ev.edge_loc, mu.edges()[[1, 3, 4, 5, 6]])
    np.testing.assert_array_equal(ev.coef, np.array([2.0, -2.0, 1.0, 2.0, -3.0]) * 0.75)
    assert ev.coef.sum() == 0.0


def test_real_axis_rejected():
    sc = semicircle(1.0)
    with pytest.raises(DomainError):
        cauchy_transform(sc, 1.5)
    with pytest.raises(DomainError):
        cauchy_derivative(sc, 0.0)


def test_derivative_matches_finite_difference():
    sc = semicircle(1.0)
    z = 0.3 + 0.7j
    h = 1e-6
    fd = (cauchy_transform(sc, z + h) - cauchy_transform(sc, z - h)) / (2 * h)
    assert abs(cauchy_derivative(sc, z) - fd) < 1e-8


def test_evaluate_cauchy_record():
    sc = semicircle(1.0)
    ev = evaluate_cauchy(sc, 1j)
    assert ev.point == 1j
    assert ev.value == cauchy_transform(sc, 1j)
    assert ev.value.imag < 0


def test_inversion_roundtrip_semicircle():
    sc = semicircle(1.0)
    st = StaircaseTransform(sc)
    inv = stieltjes_invert(st.g, (-2.2, 2.2), 2048, eta=1e-3)
    assert l1_distance(inv, sc) < 5e-3
    assert 0.95 < inv.meta["raw_mass"] < 1.05
    assert inv.meta["renormalization"] == pytest.approx(1.0, abs=0.05)
    # default eta (tied to cell width) also recovers the law
    inv2 = stieltjes_invert(st.g, (-2.2, 2.2), 2048)
    assert l1_distance(inv2, sc) < 7e-3


def test_inversion_point_mass_kernel():
    # Poisson kernel at scale eta: most mass lands within 10 eta of the atom
    inv = stieltjes_invert(lambda z: 1.0 / z, (-1.0, 1.0), 2048, eta=1e-2)
    x = inv.midpoints()
    near = (x >= -0.1) & (x <= 0.1)
    assert float(np.sum(inv.density[near]) * inv.cell_width) >= 0.9


def test_inversion_uniform_from_analytic_transform():
    inv = stieltjes_invert(
        lambda z: np.log(z / (z - 1.0)), (-0.5, 1.5), 2048, eta=1e-3
    )
    x = inv.midpoints()
    sel = (x >= 0.1) & (x <= 0.9)
    assert np.max(np.abs(inv.density[sel] - 1.0)) <= 1e-2


def test_inversion_rejects_mass_defect():
    st = StaircaseTransform(semicircle(1.0))
    with pytest.raises(InversionQualityError) as exc:
        stieltjes_invert(lambda z: 0.2 * st.g(z), (-2.2, 2.2), 512)
    assert exc.value.raw_mass == pytest.approx(0.2, abs=0.05)


def test_inversion_requires_a_vectorized_transform():
    # g is called once on the whole grid; np.sum(1/z) is the point-mass
    # transform at one point but reduces an array to a scalar, and is refused
    # rather than retried point by point
    with pytest.raises(ParameterError):
        stieltjes_invert(lambda z: np.sum(1.0 / z), (-1.0, 1.0), 2048, eta=1e-2)
    st = StaircaseTransform(semicircle(1.0))
    with pytest.raises(ParameterError):
        stieltjes_invert(lambda z: st.g(z)[:-1], (-2.2, 2.2), 512)


def test_inversion_of_atomic_transform_smears_but_keeps_mass():
    st = StaircaseTransform(bernoulli(0.5, -1.0, 1.0))
    inv = stieltjes_invert(st.g, (-1.5, 1.5), 1024)
    assert 0.9 < inv.meta["raw_mass"] <= 1.0
    # peaks sit at the atom locations
    x = inv.midpoints()
    peak = x[np.argmax(inv.density * (x > 0))]
    assert abs(peak - 1.0) < 0.01


def test_r_transform_semicircle_linear():
    # R(w) = variance * w
    sc = semicircle(1.0)
    assert abs(r_transform(sc, 0.1j) - 0.1j) < 1e-6
    sc2 = semicircle(0.5, grid=GridConfig(4096))
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
