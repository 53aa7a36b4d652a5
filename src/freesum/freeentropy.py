"""Free entropy of one variable, entropy-power reports, Fisher information.

The logarithmic energy of a staircase density is computed exactly: for cells
of width h at lag D the pair integral of log|s-t| is h^2*(log h + J(D)) with
J in closed form, so the only discretization error left is the cell-averaging
of the density itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .freeconv import free_convolve
from .measure import N_CELLS, Measure

CHI_SHIFT = 0.75 + 0.5 * math.log(2.0 * math.pi)

__all__ = [
    "EntropyReport",
    "chi",
    "epi_deficit",
    "free_fisher",
    "log_energy",
    "stam_deficit",
]


def _lag_kernel(n: int) -> np.ndarray:
    """J(D) = double integral of log|u - v + D| over the unit square, D >= 0."""
    d = np.arange(n, dtype=float)

    def a_fn(x):
        out = np.zeros_like(x)
        nz = x != 0
        out[nz] = x[nz] * np.log(np.abs(x[nz])) - x[nz]
        return out

    def b_fn(x):
        out = np.zeros_like(x)
        nz = x != 0
        out[nz] = 0.5 * x[nz] * x[nz] * np.log(np.abs(x[nz])) - 0.25 * x[nz] * x[nz]
        return out

    return (
        (d + 1) * (a_fn(d + 1) - a_fn(d))
        - (d - 1) * (a_fn(d) - a_fn(d - 1))
        + 2 * b_fn(d)
        - b_fn(d + 1)
        - b_fn(d - 1)
    )


def _staircase_energy(density: np.ndarray, h: float) -> float:
    n = density.size
    # autocorrelation at lags 0..n-1; zero-filling to 2n keeps it acyclic
    spectrum = np.fft.rfft(density, 2 * n)
    lags = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:n]
    lags[0] = float(np.dot(density, density))  # exact diagonal term
    weights = np.full(n, 2.0)
    weights[0] = 1.0
    total_sq = float(np.sum(density)) ** 2
    return h * h * (total_sq * math.log(h) + float(np.dot(weights * lags, _lag_kernel(n))))


def log_energy(mu: Measure) -> float:
    """Double integral of log|s - t|; -inf whenever an atom is present.

    Any atom pairs with itself at log 0, so atomic measures have energy
    -inf regardless of other mass; callers treat the sentinel as entropy
    power zero.
    """
    if mu.atoms:
        return float("-inf")
    return _staircase_energy(mu.density, mu.cell_width)


def chi(mu: Measure) -> float:
    """Free entropy: log-energy plus 3/4 + log(2 pi)/2; -inf propagates."""
    e = log_energy(mu)
    if e == float("-inf"):
        return e
    return e + CHI_SHIFT


def _coarsen(density: np.ndarray) -> np.ndarray:
    if density.size % 2:
        density = np.append(density, 0.0)
    return 0.5 * (density[0::2] + density[1::2])


def _chi_with_refinement(mu: Measure) -> tuple[float, float]:
    """chi plus a Richardson-style error estimate from a 2x coarser grid."""
    if mu.atoms:
        return float("-inf"), 0.0
    fine = _staircase_energy(mu.density, mu.cell_width)
    coarse = _staircase_energy(_coarsen(mu.density), 2.0 * mu.cell_width)
    return fine + CHI_SHIFT, abs(fine - coarse) / 3.0


@dataclass(frozen=True)
class EntropyReport:
    """Entropy powers of two inputs and their free convolution.

    deficit = power_sum - power_alpha - power_beta; the free entropy power
    inequality asserts it is nonnegative.  Powers are exp(2 chi), zero when
    the corresponding chi is -inf (purely atomic input); such inputs are
    listed in infinite_entropy_inputs.  sum_meta is the ``meta`` of the
    computed convolution, holding the solver diagnostics; it is not part of
    the JSON form.
    """

    chi_alpha: float
    chi_beta: float
    chi_sum: float
    power_alpha: float
    power_beta: float
    power_sum: float
    deficit: float
    quadrature_error_estimate: float
    infinite_entropy_inputs: tuple[str, ...] = ()
    sum_meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        for name in ("power_alpha", "power_beta", "power_sum"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")
        if not math.isfinite(self.deficit):
            raise ParameterError("deficit must be finite")


def _power(c: float) -> float:
    return 0.0 if c == float("-inf") else math.exp(2.0 * c)


def epi_deficit(alpha: Measure, beta: Measure, n_cells: int = N_CELLS) -> EntropyReport:
    """Entropy power report for alpha, beta and their free convolution."""
    mu_sum = free_convolve(alpha, beta, n_cells)
    chi_a, err_a = _chi_with_refinement(alpha)
    chi_b, err_b = _chi_with_refinement(beta)
    chi_s, err_s = _chi_with_refinement(mu_sum)
    p_a, p_b, p_s = _power(chi_a), _power(chi_b), _power(chi_s)
    flagged = tuple(
        name
        for name, c in (("alpha", chi_a), ("beta", chi_b))
        if c == float("-inf")
    )
    # first-order propagation of the three energy refinement gaps
    err = 2.0 * (p_s * err_s + p_a * err_a + p_b * err_b)
    return EntropyReport(
        chi_alpha=chi_a,
        chi_beta=chi_b,
        chi_sum=chi_s,
        power_alpha=p_a,
        power_beta=p_b,
        power_sum=p_s,
        deficit=p_s - p_a - p_b,
        quadrature_error_estimate=err,
        infinite_entropy_inputs=flagged,
        sum_meta=mu_sum.meta,
    )


def free_fisher(mu: Measure) -> float:
    """Fisher information (4 pi^2 / 3) * integral of density cubed.

    The semicircle of variance v gives 1/v; the free de Bruijn identity,
    d/dt chi(mu boxplus sigma_t) = Phi(mu boxplus sigma_t) / 2, ties it to
    chi and free_convolve on other laws.
    """
    if mu.atoms:
        raise ParameterError("Fisher information needs an absolutely continuous measure")
    return (4.0 * math.pi**2 / 3.0) * float(np.sum(mu.density**3)) * mu.cell_width


def stam_deficit(alpha: Measure, beta: Measure, n_cells: int = N_CELLS) -> float:
    """1/Phi(convolution) - 1/Phi(alpha) - 1/Phi(beta); >= 0 by the free Stam
    inequality (Voiculescu, Invent. Math. 132, 1998), 0 for two semicircles."""
    phi_a = free_fisher(alpha)
    phi_b = free_fisher(beta)
    if phi_a <= 0 or phi_b <= 0:
        raise ParameterError("inputs must carry positive Fisher information")
    mu_sum = free_convolve(alpha, beta, n_cells)
    return 1.0 / free_fisher(mu_sum) - 1.0 / phi_a - 1.0 / phi_b
