"""Cauchy transform evaluation, Stieltjes inversion, and the R-transform.

The transform of a grid-plus-atoms measure has a closed form.  A constant
density cell [l, r] of height c contributes c*(Log(z-l) - Log(z-r)) and an
atom w/(z-a), so no quadrature error enters beyond the staircase
representation itself.  Summed over cells the logs telescope: each grid edge
e_j carries the density jump dc_j = c_j - c_(j-1) (zero outside the grid),
and

    G(z)  = sum_j dc_j Log(z - e_j) + sum_atoms w / (z - a),
    G'(z) = sum_j dc_j / (z - e_j)  - sum_atoms w / (z - a)^2,

with only the nonzero jumps kept: one log and one reciprocal per edge where
a jump occurs instead of two of each per cell.

Densities recovered on a grid, by Stieltjes inversion here or by free
convolution, pass one mass gate: the raw mass must lie in [0.9, 1.1] before
renormalization.  The R-transform's Newton iteration stops at residual
NEWTON_TOL within NEWTON_MAX_ITER steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, InversionQualityError, ParameterError
from .measure import Measure, moment


@dataclass(frozen=True)
class CauchyEvaluation:
    """One evaluation G(point) = value with the Herglotz sign recorded."""

    point: complex
    value: complex

    def __post_init__(self):
        if self.point.imag > 0 and not self.value.imag < 0:
            raise ParameterError(
                "transform of a probability measure must map the upper "
                "half-plane to the lower one"
            )


NEWTON_MAX_ITER = 200
NEWTON_TOL = 1e-12


class StaircaseTransform:
    """Evaluator for G and G' of a fixed measure, valid off the real axis.

    ``coef`` holds the nonzero density jumps dc_j at the grid edges
    ``edge_loc`` (the edge-jump form in the module docstring); ``atom_loc``
    and ``atom_w`` hold the atoms.  Each Log(z - e_j) is formed in real
    arithmetic, and two exact rearrangements keep the rounding error of the
    edge sum from growing with the distance to the support:

    - log|z - e_j| is taken relative to log|z - m|, m the support midpoint,
      which adds nothing because the jumps sum to zero;
    - Arg(z - e_j) is split into an angle in (-pi/2, pi/2), small unless z
      is near e_j, plus pi sign(Im z) for the edges right of Re z, whose
      jumps sum to minus the density of the cell holding Re z (the
      Sokhotski-Plemelj jump).

    The sums over edges are plain reductions, so values do not depend on the
    BLAS thread count.  Values in the lower half-plane follow the same
    closed form, which is the Schwarz reflection of the upper-half-plane
    branch; both are needed when inverting G (the functional inverse lands
    in the opposite half-plane).
    """

    def __init__(self, mu: Measure):
        edges = mu.edges()
        jumps = np.diff(mu.density, prepend=0.0, append=0.0)
        nz = np.nonzero(jumps)[0]
        self.edge_loc = edges[nz]
        self.coef = jumps[nz]
        self.atom_loc = np.array([a for a, _ in mu.atoms])
        self.atom_w = np.array([w for _, w in mu.atoms])
        self.support = mu.support() if (nz.size or mu.atoms) else (0.0, 0.0)
        self.mean = moment(mu, 1)
        self._mid = 0.5 * (self.support[0] + self.support[1])
        # density of the cell holding x, indexed by searchsorted(edges, x, "right")
        self._grid_edges = edges
        self._cell_density = np.concatenate(([0.0], mu.density, [0.0]))

    def _edge_sum(self, v):
        return np.einsum("...j,j->...", v, self.coef)

    def _edge_terms(self, z, deriv: bool):
        """The edge sums of G and, if deriv, of G'; G' is None otherwise."""
        # + 0.0 turns Re z = -0.0 into +0.0, so x_j < 0 agrees with searchsorted
        re = z.real + 0.0
        x = re[..., None] - self.edge_loc
        y = z.imag[..., None]
        r2 = x * x + y * y
        r2_mid = (re - self._mid) ** 2 + z.imag**2
        log_abs = 0.5 * self._edge_sum(np.log(r2 / r2_mid[..., None]))
        with np.errstate(divide="ignore", over="ignore"):
            # Arg(z - e_j) - pi sign(y) [x_j < 0], with x_j = 0 giving +-pi/2
            angle = np.arctan(y / x)
        cell = self._cell_density[np.searchsorted(self._grid_edges, re, side="right")]
        g = log_abs + 1j * (self._edge_sum(angle) - math.pi * np.sign(z.imag) * cell)
        if not deriv:
            return g, None
        inv = 1.0 / r2
        # 1/(z - e) = (x - i y) / |z - e|^2
        return g, self._edge_sum(x * inv) - 1j * (z.imag * self._edge_sum(inv))

    def _evaluate(self, z, deriv: bool):
        z = np.asarray(z, dtype=complex)
        g, gp = 0j, 0j
        if self.coef.size:
            g, gp = self._edge_terms(z, deriv)
        if self.atom_loc.size:
            da = z[..., None] - self.atom_loc
            g = g + np.sum(self.atom_w / da, axis=-1)
            if deriv:
                gp = gp - np.sum(self.atom_w / da**2, axis=-1)
        scalar = z.ndim == 0
        if not deriv:
            return complex(g) if scalar else g
        return (complex(g), complex(gp)) if scalar else (g, gp)

    def g(self, z):
        return self._evaluate(z, deriv=False)

    def g_and_deriv(self, z):
        return self._evaluate(z, deriv=True)


def cauchy_transform(mu: Measure, z: complex) -> complex:
    """G(z) = integral of 1/(z-t) dmu(t), exact for the staircase density.

    Either half-plane is accepted; only real z is rejected since G has its
    cut on the support there.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("z must not be real")
    return StaircaseTransform(mu).g(z)


def cauchy_derivative(mu: Measure, z: complex) -> complex:
    z = complex(z)
    if z.imag == 0.0:
        raise DomainError("z must not be real")
    return StaircaseTransform(mu).g_and_deriv(z)[1]


def evaluate_cauchy(mu: Measure, z: complex) -> CauchyEvaluation:
    """Bundle point and value, enforcing the half-plane sign invariant."""
    return CauchyEvaluation(point=complex(z), value=cauchy_transform(mu, z))


def _renormalized(
    lo: float, hi: float, density: np.ndarray, meta: dict | None = None
) -> Measure:
    """The grid measure on [lo, hi] with ``density`` scaled to mass 1.

    Refuses with InversionQualityError unless the raw mass lies in
    [0.9, 1.1].  The result's meta holds the raw mass and the factor applied,
    followed by the entries of ``meta``.
    """
    h = (hi - lo) / density.size
    raw_mass = float(np.sum(density) * h)
    if not 0.9 <= raw_mass <= 1.1:
        raise InversionQualityError(
            f"mass before renormalization is {raw_mass:.6f}, outside [0.9, 1.1]",
            raw_mass=raw_mass,
        )
    return Measure(
        lo,
        hi,
        density / raw_mass,
        meta={"raw_mass": raw_mass, "renormalization": 1.0 / raw_mass, **(meta or {})},
    )


def stieltjes_invert(g, window, n_cells: int, eta: float | None = None) -> Measure:
    """Recover a measure from a transform via the Poisson-kernel boundary limit.

    density(x) ~ -Im g(x + i*eta)/pi on the window grid, clipped at zero and
    renormalized; the pre-normalization mass and the factor applied are kept
    in the result's meta entry.  ``g`` is called once, on the array of all
    grid points, and must return an array of the same shape.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ParameterError("window must satisfy hi > lo")
    if n_cells < 2:
        raise ParameterError("n_cells must be >= 2")
    h = (hi - lo) / n_cells
    if eta is None:
        eta = 4.0 * h
    if not eta > 0:
        raise ParameterError("eta must be positive")
    x = lo + h * (np.arange(n_cells) + 0.5)
    vals = np.asarray(g(x + 1j * eta), dtype=complex)
    if vals.shape != x.shape:
        raise ParameterError(
            f"g must return one value per point, shape {x.shape}, got shape {vals.shape}"
        )
    return _renormalized(lo, hi, np.clip(-vals.imag / math.pi, 0.0, None))


def r_transform(mu: Measure, w: complex) -> complex:
    """R(w) = K(w) - 1/w with K the functional inverse of G near infinity.

    Newton iteration on G(z) = w seeded at z = 1/w + mean; the seed is the
    two-term Laurent expansion of K, so for small |w| the iteration starts
    inside the basin.
    """
    w = complex(w)
    if w == 0:
        raise ParameterError("w must be nonzero")
    ev = StaircaseTransform(mu)
    s_lo, s_hi = ev.support
    z = 1.0 / w + ev.mean
    resid = math.inf
    for _ in range(NEWTON_MAX_ITER):
        if z.imag == 0.0 and s_lo <= z.real <= s_hi:
            # G has its cut here; step off the axis to keep values finite
            z = complex(z.real, 1e-9)
        gval, gp = ev.g_and_deriv(z)
        f = gval - w
        resid = abs(f)
        if resid <= NEWTON_TOL:
            return z - 1.0 / w
        if gp == 0:
            break
        step = f / gp
        # trust region: K is locally smooth, huge steps signal divergence
        cap = 1.0 + 0.5 * abs(z)
        if abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
    raise ConvergenceError(
        f"Newton on G(z) = w did not converge (residual {resid:.3e})",
        residual=resid,
    )
