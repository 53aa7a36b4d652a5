"""Tests for free entropy, entropy-power reports, and Fisher information."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from freesum.cli import _jsonable
from freesum.errors import ParameterError
from freesum.freeconv import free_convolve
from freesum.freeentropy import (
    EntropyReport,
    _lag_kernel,
    chi,
    epi_deficit,
    free_fisher,
    log_energy,
    stam_deficit,
)
from freesum.measure import (
    Measure,
    affine_pushforward,
    arcsine,
    bernoulli,
    free_poisson,
    moment,
    point_mass,
    semicircle,
    uniform,
)
from freesum.stats import three_way_verdict

CELLS = 1024
NEG_INF = float("-inf")


def test_uniform_energy_closed_form():
    # reduce the double integral over the unit square to one dimension:
    # |s - t| has density 2(1 - u) on [0, 1]
    ref, _ = quad(lambda u: 2.0 * (1.0 - u) * math.log(u), 0.0, 1.0)
    assert ref == pytest.approx(-1.5, abs=1e-10)
    assert log_energy(uniform(0.0, 1.0)) == pytest.approx(-1.5, abs=1e-9)


def test_semicircle_energy():
    assert log_energy(semicircle(1.0)) == pytest.approx(-0.25, abs=1e-3)
    fine = semicircle(1.0, n_cells=16384)
    assert log_energy(fine) == pytest.approx(-0.25, abs=1e-6)


def test_energy_refines_quadratically():
    err_coarse = abs(log_energy(semicircle(1.0, n_cells=2048)) + 0.25)
    err_fine = abs(log_energy(semicircle(1.0, n_cells=4096)) + 0.25)
    assert err_fine <= 0.5 * err_coarse


@pytest.mark.parametrize("n", [2, 7, 64, 257])
def test_energy_lag_sums_match_pairwise_reference(n):
    # the FFT autocorrelation of the cell densities must equal the explicit
    # sum over all cell pairs, zero cells included
    rng = np.random.default_rng(n)
    density = rng.uniform(0.0, 2.0, n)
    density[: n // 3] = 0.0
    mu = Measure(-1.0, 1.0, density * n / (2.0 * density.sum()))
    h = mu.cell_width
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    pairs = mu.density @ _lag_kernel(n)[lag] @ mu.density
    ref = h * h * (mu.density.sum() ** 2 * math.log(h) + pairs)
    assert log_energy(mu) == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_arcsine_on_radius_two_has_zero_energy():
    # equilibrium measure of [-2, 2]: capacity gives zero logarithmic energy
    assert abs(log_energy(arcsine(2.0))) < 5e-4
    assert abs(log_energy(arcsine(2.0, n_cells=16384))) < 5e-5


def test_atomic_energy_is_negative_infinity():
    assert log_energy(point_mass(0.0)) == NEG_INF
    assert log_energy(bernoulli(0.5, -1.0, 1.0)) == NEG_INF
    assert log_energy(free_poisson(0.5)) == NEG_INF
    assert chi(point_mass(0.0)) == NEG_INF


def test_chi_values():
    assert chi(uniform(0.0, 1.0)) == pytest.approx(
        -0.75 + 0.5 * math.log(2.0 * math.pi), abs=1e-4
    )
    assert chi(semicircle(1.0)) == pytest.approx(
        0.5 * math.log(2.0 * math.pi * math.e), abs=1e-3
    )


def test_chi_scaling_and_translation():
    sc = semicircle(1.0)
    doubled = affine_pushforward(sc, 2.0, 0.0)
    assert chi(doubled) - chi(sc) == pytest.approx(math.log(2.0), abs=1e-4)
    shifted = affine_pushforward(sc, 1.0, 0.7)
    assert chi(shifted) == chi(sc)


def test_semicircle_maximizes_chi_at_fixed_variance():
    target = chi(semicircle(1.0, n_cells=16384))
    a = math.sqrt(3.0)
    flat = uniform(-a, a)
    assert variance_of(flat) == pytest.approx(1.0, abs=1e-6)
    assert chi(flat) < target
    arc = arcsine(math.sqrt(2.0))
    assert variance_of(arc) == pytest.approx(1.0, abs=1e-3)
    assert chi(arc) < target


def variance_of(mu):
    return moment(mu, 2) - moment(mu, 1) ** 2


def test_entropy_report_validation():
    with pytest.raises(ParameterError):
        EntropyReport(
            chi_alpha=0.0,
            chi_beta=0.0,
            chi_sum=0.0,
            power_alpha=-1.0,
            power_beta=1.0,
            power_sum=1.0,
            deficit=0.0,
            quadrature_error_estimate=0.0,
        )
    with pytest.raises(ParameterError):
        EntropyReport(
            chi_alpha=0.0,
            chi_beta=0.0,
            chi_sum=0.0,
            power_alpha=1.0,
            power_beta=1.0,
            power_sum=1.0,
            deficit=float("inf"),
            quadrature_error_estimate=0.0,
        )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(0.0, 100.0), st.floats(0.0, 5.0))
def test_entropy_report_verdict_is_the_one_rule(power_alpha, power_beta, power_sum, quad_err):
    # the tolerance is the quadrature estimate or 2% of the larger side
    deficit = power_sum - power_alpha - power_beta
    rep = EntropyReport(
        chi_alpha=0.0, chi_beta=0.0, chi_sum=0.0, power_alpha=power_alpha,
        power_beta=power_beta, power_sum=power_sum, deficit=deficit,
        quadrature_error_estimate=quad_err,
    )
    scale = max(power_sum, power_alpha + power_beta)
    assert rep.tolerance == max(quad_err, 0.02 * scale)
    assert rep.verdict == three_way_verdict(deficit, rep.tolerance)


def test_epi_semicircle_equality_case():
    rep = epi_deficit(
        semicircle(1.0, n_cells=CELLS), semicircle(1.0, n_cells=CELLS), n_cells=CELLS
    )
    two_pi_e = 2.0 * math.pi * math.e
    assert rep.power_alpha == pytest.approx(two_pi_e, rel=1e-3)
    assert rep.power_beta == pytest.approx(two_pi_e, rel=1e-3)
    assert rep.power_sum == pytest.approx(2.0 * two_pi_e, rel=1e-3)
    assert abs(rep.deficit) < 2e-2 * rep.power_sum
    # powers stay consistent with the entropies
    assert rep.power_alpha == pytest.approx(math.exp(2 * rep.chi_alpha), rel=1e-12)
    assert rep.quadrature_error_estimate >= 0.0
    assert rep.infinite_entropy_inputs == ()
    js = _jsonable(rep)
    assert js["deficit"] == rep.deficit


def test_epi_translation_by_point_mass():
    rep = epi_deficit(semicircle(1.0, n_cells=CELLS), point_mass(0.5), n_cells=CELLS)
    assert rep.power_beta == 0.0
    assert rep.infinite_entropy_inputs == ("beta",)
    assert abs(rep.deficit) < 1e-3
    assert rep.chi_sum == pytest.approx(rep.chi_alpha, abs=1e-12)


def test_epi_two_point_inputs_yield_arcsine_power():
    b = bernoulli(0.5, -1.0, 1.0)
    rep = epi_deficit(b, b, n_cells=2048)
    assert rep.power_alpha == 0.0 and rep.power_beta == 0.0
    assert rep.infinite_entropy_inputs == ("alpha", "beta")
    assert rep.deficit == rep.power_sum
    # chi(arcsine[-2,2]) = 3/4 + log(2 pi)/2, so the power is 2 pi e^{3/2}
    assert rep.power_sum == pytest.approx(2.0 * math.pi * math.e**1.5, rel=1e-2)


def test_epi_deficit_nonnegative_battery():
    pairs = [
        (uniform(-1.0, 1.0, n_cells=CELLS), semicircle(0.5, n_cells=CELLS)),
        (free_poisson(2.0, n_cells=CELLS), semicircle(1.0, n_cells=CELLS)),
        (uniform(0.0, 1.0, n_cells=CELLS), uniform(0.0, 1.0, n_cells=CELLS)),
    ]
    for a, b in pairs:
        rep = epi_deficit(a, b, n_cells=CELLS)
        scale = max(rep.power_sum, rep.power_alpha, rep.power_beta)
        assert rep.deficit >= -2e-2 * scale


def test_free_fisher_values():
    assert free_fisher(uniform(0.0, 1.0)) == pytest.approx(
        4.0 * math.pi**2 / 3.0, abs=1e-10
    )
    assert free_fisher(semicircle(1.0)) == pytest.approx(1.0, abs=1e-3)
    assert free_fisher(semicircle(4.0)) == pytest.approx(0.25, abs=1e-3)
    with pytest.raises(ParameterError):
        free_fisher(bernoulli(0.5, -1.0, 1.0))


def test_fisher_variance_bound():
    # Cramer-type bound: Phi * Var >= 1 with equality exactly for semicircles
    for mu, expect_equality in [
        (semicircle(1.0), True),
        (semicircle(0.25), True),
        (uniform(0.0, 1.0), False),
        (free_poisson(2.0), False),
    ]:
        product = free_fisher(mu) * variance_of(mu)
        assert product >= 1.0 - 1e-4
        if not expect_equality:
            assert product > 1.05
        else:
            assert product == pytest.approx(1.0, abs=1e-4)


# step of the central difference in t below; its error falls as H^2, and at
# H = 0.02 the largest relative gap measured on these six cases is 5.9e-4
H = 0.02


@pytest.mark.parametrize("t", [0.25, 1.0])
@pytest.mark.parametrize(
    "law", [uniform(-1.0, 1.0), arcsine(1.0), free_poisson(2.0)],
    ids=["uniform", "arcsine", "free_poisson"],
)
def test_free_de_bruijn_identity(law, t):
    # d/dt chi(mu boxplus sigma_t) = Phi*(mu boxplus sigma_t) / 2, with sigma_t
    # the semicircle of variance t (Voiculescu, Comm. Math. Phys. 155, 1993):
    # ties chi, free_fisher and free_convolve together on laws with no
    # closed-form Fisher information
    def chi_at(variance):
        return chi(free_convolve(law, semicircle(variance)))

    slope = (chi_at(t + H) - chi_at(t - H)) / (2.0 * H)
    half_fisher = 0.5 * free_fisher(free_convolve(law, semicircle(t)))
    assert abs(slope / half_fisher - 1.0) <= 1e-3


def test_stam_deficit_semicircle_pairs():
    assert abs(
        stam_deficit(semicircle(1.0, n_cells=CELLS), semicircle(1.0, n_cells=CELLS), n_cells=CELLS)
    ) < 5e-3
    assert abs(
        stam_deficit(semicircle(1.0, n_cells=CELLS), semicircle(3.0, n_cells=CELLS), n_cells=CELLS)
    ) < 5e-3


def test_stam_deficit_rejects_atoms():
    with pytest.raises(ParameterError):
        stam_deficit(bernoulli(0.5, -1.0, 1.0), semicircle(1.0, n_cells=CELLS), n_cells=CELLS)
