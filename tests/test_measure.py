"""Tests for hybrid grid/atom measures and the standard one-parameter laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from freesum.cli import _jsonable
from freesum.errors import ParameterError
from freesum.measure import (
    Measure,
    affine_pushforward,
    arcsine,
    bernoulli,
    free_poisson,
    kolmogorov_distance,
    l1_distance,
    moment,
    point_mass,
    semicircle,
    snapped_window,
    standard_family,
    uniform,
)

from helpers import ks_statistic, measure_from_json

# Dvoretzky-Kiefer-Wolfowitz style bound at the 1% level
KS_BOUND = 1.63


@pytest.mark.parametrize("n_cells", [1, 0, -4, 64.0, "64", None])
def test_snapped_window_refuses_a_bad_cell_count(n_cells):
    with pytest.raises(ParameterError, match="n_cells must be an integer >= 2"):
        snapped_window(-1.0, 1.0, n_cells)
    with pytest.raises(ParameterError, match="n_cells must be an integer >= 2"):
        uniform(0.0, 1.0, n_cells=n_cells)


def test_total_mass_enforced():
    good = uniform(0.0, 1.0, n_cells=16)
    assert good.density_mass + good.atom_mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        Measure(
            grid_lo=0.0,
            grid_hi=1.0,
            density=np.full(16, 0.5),
            atoms=(),
        )


def test_uniform_density_exact_on_snapped_grid():
    u = uniform(0.0, 1.0)
    lo, hi = u.support()
    assert lo == 0.0 and hi == 1.0
    inside = (u.midpoints() > 0.0) & (u.midpoints() < 1.0)
    assert np.max(np.abs(u.density[inside] - 1.0)) < 1e-12
    assert np.all(u.density[~inside] == 0.0)


def test_semicircle_moments_against_quadrature():
    sc = semicircle(1.0)
    # independent oracle: direct quadrature of the closed-form density
    den = lambda x: math.sqrt(max(4.0 - x * x, 0.0)) / (2.0 * math.pi)
    m2_ref, _ = quad(lambda x: x * x * den(x), -2.0, 2.0)
    m4_ref, _ = quad(lambda x: x**4 * den(x), -2.0, 2.0)
    assert m2_ref == pytest.approx(1.0, abs=1e-10)
    assert m4_ref == pytest.approx(2.0, abs=1e-10)
    assert moment(sc, 1) == pytest.approx(0.0, abs=1e-9)
    assert moment(sc, 2) == pytest.approx(1.0, abs=1e-5)
    assert moment(sc, 4) == pytest.approx(2.0, abs=1e-4)
    assert sc.support() == pytest.approx((-2.0, 2.0), abs=1e-12)


def test_arcsine_moments_and_cdf():
    ar = arcsine(2.0)
    assert moment(ar, 2) == pytest.approx(2.0, abs=1e-3)
    assert moment(ar, 4) == pytest.approx(6.0, abs=2e-3)
    assert ar.cdf(np.array([0.0]))[0] == pytest.approx(0.5, abs=1e-12)
    assert ar.cdf(np.array([-2.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert ar.cdf(np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-12)


def test_uniform_moments():
    u = uniform(0.0, 1.0)
    assert moment(u, 1) == pytest.approx(0.5, abs=1e-12)
    assert moment(u, 2) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_bernoulli_atoms_exact():
    b = bernoulli(0.3, -1.0, 2.0)
    assert b.atoms == ((-1.0, 0.3), (2.0, 0.7))
    assert b.density_mass == 0.0
    assert moment(b, 1) == pytest.approx(1.1, abs=1e-14)
    assert moment(b, 2) == pytest.approx(3.1, abs=1e-14)
    with pytest.raises(ParameterError):
        bernoulli(1.5, 0.0, 1.0)
    with pytest.raises(ParameterError):
        bernoulli(0.5, 1.0, 1.0)


def test_point_mass():
    pm = point_mass(0.7)
    assert pm.is_point_mass()
    assert pm.atoms == ((0.7, 1.0),)
    assert not semicircle(1.0).is_point_mass()


def test_free_poisson_moments():
    # all free cumulants equal the rate, so m1 = r, m2 = r + r^2,
    # m3 = r + 3 r^2 + r^3
    fp = free_poisson(2.0)
    assert fp.atoms == ()
    assert moment(fp, 1) == pytest.approx(2.0, abs=1e-6)
    assert moment(fp, 2) == pytest.approx(6.0, abs=1e-5)
    assert moment(fp, 3) == pytest.approx(22.0, abs=1e-4)
    lo, hi = fp.support()
    assert lo == pytest.approx((1.0 - math.sqrt(2.0)) ** 2, abs=1e-12)
    assert hi == pytest.approx((1.0 + math.sqrt(2.0)) ** 2, abs=1e-12)


def test_free_poisson_subcritical_atom():
    fp = free_poisson(0.5)
    assert fp.atoms == ((0.0, 0.5),)
    assert moment(fp, 1) == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ParameterError):
        free_poisson(0.0)


def test_cdf_quantile_roundtrip():
    sc = semicircle(1.0)
    xs = np.array([-1.3, -0.4, 0.2, 1.7])
    back = sc.quantile(sc.cdf(xs))
    assert np.max(np.abs(back - xs)) < 1e-10
    qs = sc.quantile(np.linspace(0.01, 0.99, 23))
    assert np.all(np.diff(qs) > 0)


def test_quantile_at_an_atom_inside_a_density_cell():
    # F jumps from 0.3125 to 0.8125 at 0.25, inside the cell [0, 1]
    mu = Measure(-1.0, 1.0, [0.25, 0.25], atoms=((0.25, 0.5),))
    assert mu.quantile(0.5) == 0.25
    assert mu.quantile(1.0) == 1.0
    assert mu.quantile(0.0) == -1.0
    np.testing.assert_allclose(mu.quantile([0.25, 0.3125, 0.8125, 0.9]), [0.0, 0.25, 0.25, 0.6])


def _family_laws(s):
    """(name, law on a grid, exact support) for every standard family at scale s."""
    fp_lo = 0.0 if s < 1.0 else (1.0 - math.sqrt(s)) ** 2
    return [
        ("semicircle", lambda g: semicircle(s, g), (-2.0 * math.sqrt(s), 2.0 * math.sqrt(s))),
        ("arcsine", lambda g: arcsine(s, g), (-s, s)),
        ("uniform", lambda g: uniform(-s, 1.0 / s, g), (-s, 1.0 / s)),
        ("free_poisson 2s", lambda g: free_poisson(2.0 * s, g),
         ((1.0 - math.sqrt(2.0 * s)) ** 2, (1.0 + math.sqrt(2.0 * s)) ** 2)),
        ("free_poisson s", lambda g: free_poisson(s, g), (fp_lo, (1.0 + math.sqrt(s)) ** 2)),
        ("bernoulli", lambda g: bernoulli(0.3, -s, s, g), (-s, s)),
        ("point_mass", lambda g: point_mass(s, g), (s, s)),
    ]


@pytest.mark.parametrize("n_cells", [256, 2048])
def test_standard_families_leave_padding_cells_empty(n_cells):
    for s in np.geomspace(0.8, 1.25, 41):
        for name, build, (lo, hi) in _family_laws(float(s)):
            mu = build(n_cells)
            inside = (mu.midpoints() > lo) & (mu.midpoints() < hi)
            assert np.all(mu.density[~inside] == 0.0), (name, s)
            assert mu.support() == pytest.approx((lo, hi), rel=0.0, abs=4e-15), (name, s)


@pytest.mark.parametrize("rate", [0.3, 1.0, 2.0])
def test_free_poisson_cdf_matches_quadrature(rate):
    a, b = (1.0 - math.sqrt(rate)) ** 2, (1.0 + math.sqrt(rate)) ** 2
    fp = free_poisson(rate)
    atom = max(0.0, 1.0 - rate)

    def continuous_cdf(x):
        # t = a + s^2 removes the square-root edges and, at rate 1, the pole
        f = lambda s: s * s * math.sqrt(max(b - a - s * s, 0.0)) / (math.pi * (a + s * s))
        return quad(f, 0.0, math.sqrt(min(max(x, a), b) - a), epsabs=1e-15)[0]

    edges = fp.edges()
    for x in edges[np.linspace(0, edges.size - 1, 20).astype(int)]:
        ref = (atom if x >= 0.0 else 0.0) + continuous_cdf(x)
        assert abs(fp.cdf(x) - ref) <= 1e-12, (rate, x)


@st.composite
def staircase_with_atoms(draw):
    """Random grid density plus atoms, some inside positive-density cells."""
    n = draw(st.integers(2, 12))
    lo = draw(st.floats(-3.0, 3.0))
    hi = lo + draw(st.floats(0.1, 4.0))
    weights = draw(st.lists(st.just(0.0) | st.floats(0.1, 5.0), min_size=n, max_size=n))
    dens = np.array(weights)
    n_atoms = draw(st.integers(0 if dens.sum() > 0 else 1, 3))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=n_atoms, max_size=n_atoms))
    fracs = draw(st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]),
                          min_size=n_atoms, max_size=n_atoms))
    h = (hi - lo) / n
    locs = sorted({min(lo + h * (c + f), hi) for c, f in zip(cells, fracs)})
    atoms = ()
    if locs:
        raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(locs),
                                     max_size=len(locs))))
        atom_mass = draw(st.floats(0.2, 0.8)) if dens.sum() > 0 else 1.0
        atoms = tuple(zip(locs, raw / raw.sum() * atom_mass))
    if dens.sum() > 0:
        dens = dens * (1.0 - sum(w for _, w in atoms)) / (dens.sum() * h)
    return Measure(lo, hi, dens, atoms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(staircase_with_atoms())
def test_quantile_is_the_generalized_inverse(mu):
    at_atoms = np.clip(mu.cdf([loc for loc, _ in mu.atoms]), 0.0, 1.0)
    q = np.sort(np.concatenate([np.linspace(0.0, 1.0, 101), at_atoms]))
    x = mu.quantile(q)
    assert np.all(np.diff(x) >= 0.0)
    assert np.all(mu.cdf(x) >= q - 1e-12)
    # F is piecewise linear, so one ulp to the left reads the left limit
    assert np.all(mu.cdf(np.nextafter(x, -np.inf)) <= q + 1e-12)
    assert kolmogorov_distance(mu, mu) == 0.0


def test_moment_order_limits():
    sc = semicircle(1.0)
    assert moment(sc, 0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        moment(sc, 17)
    with pytest.raises(ParameterError):
        moment(sc, -1)


def test_affine_pushforward():
    sc = semicircle(1.0)
    g = affine_pushforward(sc, -2.0, 1.0)
    assert moment(g, 1) == pytest.approx(1.0, abs=1e-12)
    assert moment(g, 2) == pytest.approx(5.0, abs=1e-4)
    lo, hi = g.support()
    assert (lo, hi) == pytest.approx((-3.0, 5.0), abs=1e-12)
    # atoms map exactly
    b = affine_pushforward(bernoulli(0.3, -1.0, 2.0), -1.0, 0.0)
    assert b.atoms == ((-2.0, 0.7), (1.0, 0.3))


AFFINE_BASES = (
    semicircle(1.0, 256),
    arcsine(0.7, 256),
    free_poisson(2.0, 256),
    bernoulli(0.3, -1.0, 2.0, 256),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(len(AFFINE_BASES))),
    st.floats(0.1, 10.0),
    st.sampled_from([-1.0, 1.0]),
    st.floats(-5.0, 5.0),
)
def test_affine_pushforward_properties(base, scale, sign, b):
    mu = AFFINE_BASES[base]
    a = sign * scale
    nu = affine_pushforward(mu, a, b)
    assert nu.density_mass + nu.atom_mass == pytest.approx(1.0, abs=1e-12)
    assert nu.mean() == pytest.approx(a * mu.mean() + b, abs=1e-12 * (1.0 + abs(b)))
    assert nu.variance() == pytest.approx(a * a * mu.variance(), rel=1e-9)
    # the inverse map returns the law; CDFs are compared away from the atoms,
    # where an ulp of drift in an atom's location would read as its weight
    back = affine_pushforward(nu, 1.0 / a, -b / a)
    lo, hi = mu.support()
    x = np.linspace(lo - 1.0, hi + 1.0, 1001)
    for loc, _ in mu.atoms:
        x = x[np.abs(x - loc) > 1e-9]
    np.testing.assert_allclose(back.cdf(x), mu.cdf(x), rtol=0, atol=1e-9)


def test_l1_distance_hand_values():
    u1 = uniform(0.0, 1.0)
    u2 = uniform(0.5, 1.5)
    assert l1_distance(u1, u2) == pytest.approx(1.0, abs=1e-10)
    assert l1_distance(u1, u1) == 0.0
    sc = semicircle(1.0)
    far = affine_pushforward(sc, 1.0, 10.0)
    assert l1_distance(sc, far) == pytest.approx(2.0, abs=1e-12)
    # continuous vs purely atomic: total variation style separation
    assert l1_distance(sc, bernoulli(0.5, -1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)


def test_kolmogorov_distance_hand_values():
    assert kolmogorov_distance(uniform(0.0, 1.0), uniform(0.5, 1.5)) == pytest.approx(
        0.5, abs=1e-10
    )
    assert kolmogorov_distance(point_mass(0.0), point_mass(1.0)) == 1.0
    sc = semicircle(1.0)
    assert kolmogorov_distance(sc, sc) == 0.0


def test_sampling_matches_cdf():
    sc = semicircle(1.0)
    n = 20000
    # inverse-CDF draws: the quantile of uniform levels
    s = sc.quantile(np.random.default_rng(7).random(n))
    assert s.shape == (n,)
    assert ks_statistic(s, sc) < KS_BOUND / math.sqrt(n)
    # deterministic given the seed
    assert np.array_equal(s, sc.quantile(np.random.default_rng(7).random(n)))
    assert not np.array_equal(s, sc.quantile(np.random.default_rng(8).random(n)))


def test_sampling_atoms():
    b = bernoulli(0.3, -1.0, 2.0)
    s = b.quantile(np.random.default_rng(3).random(5000))
    frac = np.mean(np.isclose(s, -1.0))
    assert abs(frac - 0.3) < 0.02
    assert set(np.round(np.unique(s), 12)) == {-1.0, 2.0}


def test_json_roundtrip():
    fp = free_poisson(0.5)
    back = measure_from_json(_jsonable(fp))
    assert back.grid_lo == fp.grid_lo and back.grid_hi == fp.grid_hi
    assert np.array_equal(back.density, fp.density)
    assert back.atoms == fp.atoms


def test_standard_family_dispatch():
    m = standard_family("semicircle", [1.0])
    assert l1_distance(m, semicircle(1.0)) == 0.0
    b = standard_family("bernoulli", [0.3, -1.0, 2.0])
    assert b.atoms == ((-1.0, 0.3), (2.0, 0.7))
    with pytest.raises(ParameterError):
        standard_family("cauchy", [1.0])
    with pytest.raises(ParameterError):
        standard_family("semicircle", [-1.0])
    with pytest.raises(ParameterError):
        standard_family("semicircle", [1.0, 2.0])


def test_point_mass_is_a_standard_family():
    assert _jsonable(standard_family("point_mass", [0.3])) == _jsonable(point_mass(0.3))
    assert _jsonable(standard_family("point_mass", [0.3], 64)) == _jsonable(point_mass(0.3, 64))
    for params in ([], [0.3, 0.5]):
        with pytest.raises(ParameterError, match="takes 1 parameter"):
            standard_family("point_mass", params)
