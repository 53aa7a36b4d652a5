"""Free additive convolution of compactly supported measures.

The convolution is computed through the pair of analytic subordination
functions: at each query point z the coupled equations

    omega2 = F_alpha(omega1) + z - omega1
    omega1 = F_beta(omega2) + z - omega2,      F = 1/G,

are solved by a damped fixed point with a safeguarded Newton polish (to
residual TOL * max(1, |z|, |F_alpha(omega1)|), the size of the two terms H
subtracts, at most MAX_ITER rounds per point).  The round that accepts a
point also reads the distribution function there: with L the log potential,
L_mu(z) = L_alpha(omega1) + L_beta(omega2) - Log F_alpha(omega1), since
omega1 + omega2 = z + F_mu gives both sides the derivative G_mu and both are
log z + o(1) at infinity.  So cdf(x) = 1 - Im L_mu(x + i eta) / pi, and the
omegas extend continuously to the real line (Belinschi, PTRF 142, 2008).

The cdf is read at every grid edge strictly inside the support, swept once
in increasing x, and the cell masses are its differences, as for every
standard family.  Each edge warm-starts from the cubic Hermite extrapolation
through the two edges solved before it, clamped to Im >= Im z, from the
Newton-corrected omega1 and the slope d(omega1)/dx = -F_beta'(omega2) /
H'(omega1) of the round that accepted each.  The first edge, any edge whose
warm start fails, and the two support ends are bootstrapped by continuation
from high up in the half-plane.  The ends, where the cdf is 0 and 1, stay
out of the warm-start trail and are pinned in the output: CDF_TOL bounds
their read error and the repair (clipping to [0, 1], running maximum) that
makes the read values a distribution function.

A sum keeps an atom exactly when the heaviest atoms of the two inputs weigh
more than 1 together (Bercovici and Voiculescu, Regularity questions for
free convolution, 1998); a grid density cannot carry it, so such inputs are
refused before any solve.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, InversionQualityError
from .measure import MASS_TOL, N_CELLS, Measure, affine_pushforward, snapped_window
from .transform import StaircaseTransform

__all__ = ["free_convolve"]

# relative window height of the readout line Im z; the read cdf errs most at
# an inverse-square-root support end, by about sqrt(eta): 1.4e-6 there on
# two-point pairs, which CDF_TOL clears 70 times
ETA_FACTOR = 2e-12

# subordination solve: converged once |H| <= TOL * max(1, |z|, |F_alpha|);
# fixed-point steps move omega1 by DAMPING * H; a full solve makes at most
# MAX_ITER rounds
TOL = 1e-10
DAMPING = 0.5
MAX_ITER = 500

# largest error of the read cdf at the support ends, where it is 0 and 1,
# and largest change that clipping and the running maximum make to it
CDF_TOL = 1e-4


class _PointSolver:
    """Solves the subordination pair at single points, reusing evaluators."""

    def __init__(self, alpha: Measure, beta: Measure):
        self.ev_a = StaircaseTransform(alpha)
        self.ev_b = StaircaseTransform(beta)
        # evaluation rounds made so far, bootstrap rounds included
        self.steps = 0

    def _sweep_step(self, z, w1):
        """One round: H, H', F_alpha(w1), d(omega1)/dx = -F_beta'(w2) / H', cdf."""
        self.steps += 1
        ga, gpa, la = self.ev_a.g_and_deriv(w1)
        fa = 1.0 / ga
        fpa = -gpa * fa * fa
        w2 = fa + z - w1
        floor = z.imag
        if w2.imag < floor:
            w2 = complex(w2.real, floor)
        gb, gpb, lb = self.ev_b.g_and_deriv(w2)
        fb = 1.0 / gb
        fpb = -gpb * fb * fb
        h = fb - fa
        hp = (fpb - 1.0) * (fpa - 1.0) - 1.0
        cdf = 1.0 - (la + lb - cmath.phase(fa)) / math.pi
        return h, hp, fa, (-fpb / hp if hp != 0 else 0j), cdf

    def solve(self, z, w1, budget):
        """Iterate from w1; returns (omega1, residual, cdf, knot, converged).

        knot is (omega1 - H/H', d(omega1)/dx) from the same round: the sweep
        warm-starts later points from it.  Unconverged, it returns the
        iterate with the smallest residual.
        """
        floor = z.imag
        scale = max(1.0, abs(z))
        best = (w1, math.inf, math.nan, (w1, 0j))  # omega1, residual, cdf, knot
        for _ in range(budget):
            h, hp, fa, slope, cdf = self._sweep_step(z, w1)
            resid = abs(h)
            step = h / hp if hp != 0 else 0j
            if resid < best[1]:
                best = (w1, resid, cdf, (w1 - step, slope))
            if resid <= TOL * max(scale, abs(fa)):
                return (*best, True)
            if resid < 0.3 * scale and hp != 0:
                cap = 1.0 + 0.5 * (abs(w1) + abs(z))
                if abs(step) > cap:
                    step *= cap / abs(step)
                cand = w1 - step
            else:
                cand = w1 + DAMPING * h
            if cand.imag < floor:
                cand = complex(cand.real, floor)
            w1 = cand
        return (*best, False)

    def bootstrap(self, z, height):
        """Continuation from Im = height down to z; returns what solve does."""
        levels = [height]
        while levels[-1] > z.imag * 2:
            levels.append(levels[-1] * 0.4)
        w1 = complex(z.real, levels[0])
        for lv in levels:
            w1 = self.solve(complex(z.real, lv), w1, 80)[0]
        return self.solve(z, w1, MAX_ITER)


def _warm_start(trail, x: float, floor: float) -> complex:
    """omega1 at x from the last two (x, omega1, d(omega1)/dx) in trail.

    The guess extrapolates the cubic Hermite interpolant of the two points;
    with one solved point it is omega1 plus slope times step.  It never drops
    below Im = floor, the readout height.
    """
    x1, w1, s1 = trail[-1]
    if len(trail) < 2:
        guess = w1 + s1 * (x - x1)
    else:
        x0, w0, s0 = trail[-2]
        d, t = x1 - x0, (x - x0) / (x1 - x0)
        # the cubic in powers of t, which is 0 at x0 and 1 at x1
        c2 = 3 * (w1 - w0) - (2 * s0 + s1) * d
        c3 = 2 * (w0 - w1) + (s0 + s1) * d
        guess = w0 + t * (s0 * d + t * (c2 + t * c3))
    return complex(guess.real, max(guess.imag, floor))


def free_convolve(alpha: Measure, beta: Measure, n_cells: int = N_CELLS) -> Measure:
    """Distribution of X + Y for freely independent X ~ alpha, Y ~ beta.

    A point-mass input reduces to a translation and is handled exactly; a
    sum that keeps an atom (two input atoms weighing more than 1 together)
    is refused with InversionQualityError before any solve, as is a read
    cdf that fails its CDF_TOL check.
    """
    if alpha.is_point_mass():
        return affine_pushforward(beta, 1.0, alpha.atoms[0][0])
    if beta.is_point_mass():
        return affine_pushforward(alpha, 1.0, beta.atoms[0][0])
    (a, wa), (b, wb) = (max(mu.atoms, key=lambda atom: atom[1], default=(0.0, 0.0))
                        for mu in (alpha, beta))
    if wa + wb > 1.0 + MASS_TOL:
        raise InversionQualityError(
            f"the sum keeps an atom of mass {wa + wb - 1.0:.6g} at {a + b:.6g}, "
            "which a grid density cannot carry",
            atom_location=a + b,
            atom_mass=wa + wb - 1.0,
        )

    alo, ahi = alpha.support()
    blo, bhi = beta.support()
    s_lo, s_hi = alo + blo, ahi + bhi
    lo, hi, pad = snapped_window(s_lo, s_hi, n_cells)
    h = (hi - lo) / n_cells
    eta = ETA_FACTOR * (hi - lo)
    inner = lo + h * np.arange(pad + 1, n_cells - pad)

    ps = _PointSolver(alpha, beta)
    width = max(1.0, s_hi - s_lo)
    reads = []
    unconverged = 0
    worst = 0.0
    trail: list[tuple[float, complex, complex]] = []
    # the support ends first, each bootstrapped alone: extrapolating from a
    # point a fraction of a cell away costs the next edge hundreds of rounds
    for i, x in enumerate([s_lo, s_hi, *inner.tolist()]):
        z = complex(x, eta)
        ok = False
        if trail:
            _, resid, cdf, knot, ok = ps.solve(z, _warm_start(trail, x, eta), MAX_ITER)
        if not ok:
            _, resid, cdf, knot, ok = ps.bootstrap(z, width)
        if not ok:
            unconverged += 1
            worst = max(worst, resid)
        if i >= 2:
            trail = [*trail[-1:], (x, *knot)]
        reads.append(cdf)

    n_points = len(reads)
    if unconverged > 0.01 * n_points:
        raise ConvergenceError(
            f"subordination failed at {unconverged} of {n_points} points "
            f"(worst residual {worst:.3e})",
            residual=worst,
        )
    end_error = float(np.max(np.abs([reads[0], 1.0 - reads[1]])))
    read = np.array(reads[2:])
    ends = np.zeros(pad + 1)
    cdf = np.maximum.accumulate(np.clip(np.concatenate([ends, read, ends + 1.0]), 0.0, 1.0))
    repair = float(np.max(np.abs(cdf[pad + 1 : n_cells - pad] - read)))
    if not (end_error <= CDF_TOL and repair <= CDF_TOL):
        raise InversionQualityError(
            f"read cdf is off by {end_error:.3e} at the support ends and needed a "
            f"repair of {repair:.3e}, above {CDF_TOL}",
            cdf_end_error=end_error,
            cdf_repair=repair,
        )
    meta = {"cdf_end_error": end_error, "cdf_repair": repair, "eta": eta,
            "unconverged_points": unconverged, "worst_residual": worst,
            "solver_steps": ps.steps, "readout_points": n_points}
    return Measure(lo, hi, np.diff(cdf) / h, meta=meta)
