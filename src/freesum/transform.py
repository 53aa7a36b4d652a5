"""Cauchy transform and log potential evaluation, and the R-transform.

The transform of a grid-plus-atoms measure has a closed form.  A constant
density cell [l, r] of height c contributes c*(Log(z-l) - Log(z-r)) and an
atom w/(z-a), so no quadrature error enters beyond the staircase
representation itself.  Summed over cells the logs telescope: each grid edge
e_j carries the density jump dc_j = c_j - c_(j-1) (zero outside the grid),
and

    G(z)  = sum_j dc_j Log(z - e_j) + sum_atoms w / (z - a),
    G'(z) = sum_j dc_j / (z - e_j)  - sum_atoms w / (z - a)^2,

with only the nonzero jumps kept: one log and one reciprocal per edge where
a jump occurs instead of two of each per cell.  The log potential
L(z) = integral of Log(z - t) dmu(t) telescopes the same way, to
sum_j dc_j (z - e_j) Log(z - e_j) plus a real constant plus
sum_atoms w Log(z - a), so its imaginary part reuses the logs and angles
of G.  The R-transform's Newton iteration stops at residual NEWTON_TOL
within NEWTON_MAX_ITER steps.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import ConvergenceError, ParameterError
from .measure import Measure, moment

__all__ = ["cauchy_transform", "r_transform"]

NEWTON_MAX_ITER = 200
NEWTON_TOL = 1e-12


class StaircaseTransform:
    """Evaluator for G, G' and Im L of a fixed measure at one point off the axis.

    ``coef`` holds the nonzero density jumps dc_j at the grid edges
    ``edge_loc`` (the edge-jump form in the module docstring); ``atom_loc``
    holds the atom locations.  Each Log(z - e_j) is formed in real
    arithmetic, and two exact rearrangements keep the rounding error of the
    edge sum from growing with the distance to the support:

    - log|z - e_j| is taken relative to log|z - m|, m the support midpoint,
      which adds nothing because the jumps sum to zero;
    - Arg(z - e_j) is split into an angle in (-pi/2, pi/2), small unless z
      is near e_j, plus pi sign(Im z) for the edges right of Re z, whose
      jumps sum to minus the density of the cell holding Re z (the
      Sokhotski-Plemelj jump).

    With x_j = Re z - e_j and y = Im z, Im L(z) is
    y sum_j dc_j log|z - e_j| + sum_j dc_j x_j Arg(z - e_j) plus the atoms'
    w Arg(z - a).  The same split of the angle leaves the per-edge row
    x_j arctan(y / x_j), and pi sign(y) times the sum of dc_j x_j over the
    edges right of Re z, which is the density mass right of Re z; that sum
    comes from a suffix sum of dc_j (e_j - m) made once.

    A call fills the five per-edge rows log(r_j^2 / r_m^2), arctan(y / x_j),
    x_j / r_j^2, 1 / r_j^2 and x_j arctan(y / x_j) of a work array allocated
    once, in place, and reduces them against the jumps in one einsum: a
    plain reduction, not a BLAS product, so values do not depend on the BLAS
    thread count.  The shared buffers make one instance unsafe to call from
    two threads at once.  Atoms are a scalar loop.  Values in the lower
    half-plane follow the same closed form, which is the exact Schwarz
    reflection of the upper-half-plane branch; both are needed when
    inverting G (the functional inverse lands in the opposite half-plane).
    """

    def __init__(self, mu: Measure):
        edges = mu.edges()
        jumps = np.diff(mu.density, prepend=0.0, append=0.0)
        nz = np.nonzero(jumps)[0]
        self.edge_loc = edges[nz]
        self.coef = jumps[nz]
        self.atom_loc = np.array([a for a, _ in mu.atoms])
        self._atoms = [(float(a), float(w)) for a, w in mu.atoms]
        self.support = mu.support() if (nz.size or mu.atoms) else (0.0, 0.0)
        self.mean = moment(mu, 1)
        self._mid = 0.5 * (self.support[0] + self.support[1])
        # density of the cell holding x and sum of dc_j (e_j - m) over the
        # edges right of x, both indexed by bisect_right(edges, x)
        self._grid_edges = edges.tolist()
        self._cell_density = [0.0, *mu.density.tolist(), 0.0]
        self._right_moment = [*np.cumsum((jumps * (edges - self._mid))[::-1])[::-1].tolist(), 0.0]
        self._terms = np.empty((5, nz.size))
        self._x = np.empty(nz.size)

    def g(self, z: complex) -> complex:
        return self.g_and_deriv(z)[0]

    def g_and_deriv(self, z: complex) -> tuple[complex, complex, float]:
        """G(z), G'(z) and Im L(z), L the log potential."""
        z = complex(z)
        g = gp = 0j
        im_l = 0.0
        if self.coef.size:
            # + 0.0 turns Re z = -0.0 into +0.0, so x_j < 0 agrees with bisect
            re, y = z.real + 0.0, z.imag
            x, t = self._x, self._terms
            np.subtract(re, self.edge_loc, out=x)
            np.multiply(x, x, out=t[3])
            np.add(t[3], y * y, out=t[3])  # r_j^2 = |z - e_j|^2
            dm = re - self._mid
            np.divide(t[3], dm * dm + y * y, out=t[0])
            np.log(t[0], out=t[0])
            with np.errstate(divide="ignore", over="ignore"):
                # Arg(z - e_j) - pi sign(y) [x_j < 0], with x_j = 0 giving +-pi/2
                np.divide(y, x, out=t[1])
            np.arctan(t[1], out=t[1])
            np.multiply(x, t[1], out=t[4])
            np.reciprocal(t[3], out=t[3])
            np.multiply(x, t[3], out=t[2])  # 1/(z - e) = (x - i y) / |z - e|^2
            log_abs, angle, re_inv, inv, x_angle = np.einsum("ij,j->i", t, self.coef).tolist()
            i = bisect_right(self._grid_edges, re)
            cell = self._cell_density[i]
            jump = math.pi * ((y > 0) - (y < 0))
            g = complex(0.5 * log_abs, angle - jump * cell)
            gp = complex(re_inv, -(y * inv))
            im_l = 0.5 * y * log_abs + x_angle - jump * (dm * cell + self._right_moment[i])
        for a, w in self._atoms:
            d = z - a
            g += w / d
            gp -= w / (d * d)
            im_l += w * math.atan2(d.imag, d.real)
        return g, gp, im_l


def cauchy_transform(mu: Measure, z: complex) -> complex:
    """G(z) = integral of 1/(z-t) dmu(t), exact for the staircase density.

    Either half-plane is accepted; only real z is rejected since G has its
    cut on the support there.  G and G' together come from
    ``StaircaseTransform(mu).g_and_deriv(z)``.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise ParameterError("z must not be real")
    return StaircaseTransform(mu).g(z)


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
        gval, gp, _ = ev.g_and_deriv(z)
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
