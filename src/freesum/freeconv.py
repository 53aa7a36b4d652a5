"""Free additive convolution of compactly supported measures.

The convolution is computed through the pair of analytic subordination
functions: at each query point z the coupled equations

    omega2 = F_alpha(omega1) + z - omega1
    omega1 = F_beta(omega2) + z - omega2,      F = 1/G,

are solved by a damped fixed point with a safeguarded Newton polish (to
residual TOL * max(1, |z|), at most MAX_ITER rounds per point), and the
density is read off from G(z) = G_alpha(omega1(z)) just above the real axis.
The readout points form one plan in increasing x: the midpoint of each
ordinary cell, and in-cell quadrature nodes in the cells next to the support
endpoints, so the spacing is not uniform near the edges.  The plan is swept
once, serially.  Each point warm-starts from the cubic Hermite extrapolation
through the two points solved before it, clamped to Im >= Im z: each solved
point keeps its Newton-corrected omega1 and the slope d(omega1)/dx =
-F_beta'(omega2) / H'(omega1), both free from the round that accepted it.  The
first point is bootstrapped by continuation from high up in the half-plane
where the fixed point is strongly contractive, and so is any point whose
warm start fails.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .measure import N_CELLS, Measure, affine_pushforward, snapped_window
from .transform import StaircaseTransform, _renormalized

__all__ = ["free_convolve"]

# relative window height of the readout line Im z; small enough that the
# Poisson tail bias in second/fourth moments stays below the additivity
# tolerances, large enough to stay clear of rounding in the cell logs
ETA_FACTOR = 2e-8

# cells adjacent to a support endpoint refined by in-cell quadrature
EDGE_CELLS = 24

# subordination solve: converged once |H| <= TOL * max(1, |z|); fixed-point
# steps move omega1 by DAMPING * H; a full solve makes at most MAX_ITER rounds
TOL = 1e-10
DAMPING = 0.5
MAX_ITER = 500

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)


class _PointSolver:
    """Solves the subordination pair at single points, reusing evaluators."""

    def __init__(self, alpha: Measure, beta: Measure):
        self.ev_a = StaircaseTransform(alpha)
        self.ev_b = StaircaseTransform(beta)
        # evaluation rounds made so far, bootstrap rounds included
        self.steps = 0

    def _sweep_step(self, z, w1):
        """One evaluation round: H, H', F_alpha(w1) and d(omega1)/dx = -F_beta'(w2) / H'."""
        self.steps += 1
        ga, gpa = self.ev_a.g_and_deriv(w1)
        fa = 1.0 / ga
        fpa = -gpa * fa * fa
        w2 = fa + z - w1
        floor = z.imag
        if w2.imag < floor:
            w2 = complex(w2.real, floor)
        gb, gpb = self.ev_b.g_and_deriv(w2)
        fb = 1.0 / gb
        fpb = -gpb * fb * fb
        h = fb - fa
        hp = (fpb - 1.0) * (fpa - 1.0) - 1.0
        return h, hp, fa, (-fpb / hp if hp != 0 else 0j)

    def solve(self, z, w1, budget):
        """Iterate from w1; returns (omega1, residual, F_value, knot, converged).

        knot is (omega1 - H/H', d(omega1)/dx) from the same round: the sweep
        warm-starts later points from it.  Unconverged, it returns the
        iterate with the smallest residual.
        """
        floor = z.imag
        scale = max(1.0, abs(z))
        best = (w1, math.inf, w1, (w1, 0j))  # omega1, residual, F, knot
        for _ in range(budget):
            h, hp, fa, slope = self._sweep_step(z, w1)
            resid = abs(h)
            step = h / hp if hp != 0 else 0j
            if resid < best[1]:
                best = (w1, resid, fa, (w1 - step, slope))
            if resid <= TOL * scale:
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


def _panel_rule(cuts):
    """8-point Gauss nodes and weights on [0, 1] split into panels at cuts."""
    a, b = cuts[:-1, None], cuts[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * _GAUSS8_NODES).ravel(), (half * _GAUSS8_WEIGHTS).ravel()


# in-cell rules as (nodes in units of the cell width, weights summing to 1);
# the outermost cells use geometric panels refined toward the support
# endpoint so inverse-square-root blowups are integrated accurately
_MIDPOINT = (np.array([0.5]), np.array([1.0]))
_GAUSS8 = _panel_rule(np.array([0.0, 1.0]))
_SINGULAR_LEFT = _panel_rule(np.array([0.0, 1.0 / 729.0, 1.0 / 81.0, 1.0 / 9.0, 1.0 / 3.0, 1.0]))
_SINGULAR_RIGHT = (1.0 - _SINGULAR_LEFT[0][::-1], _SINGULAR_LEFT[1][::-1])


def _readout_plan(lo: float, h: float, interior: np.ndarray):
    """Readout abscissae in increasing x, with quadrature weights and cells.

    Ordinary cells are read at their midpoint; the EDGE_CELLS cells next to
    each support endpoint are averaged by in-cell quadrature instead, since
    the density may have square-root behavior there.
    """
    n_edge = min(EDGE_CELLS, interior.size // 2)
    rules = [_MIDPOINT] * interior.size
    rules[:n_edge] = rules[-n_edge:] = [_GAUSS8] * n_edge
    rules[0], rules[-1] = _SINGULAR_LEFT, _SINGULAR_RIGHT
    x = np.concatenate([lo + h * (idx + u) for idx, (u, _) in zip(interior, rules)])
    weight = np.concatenate([w for _, w in rules])
    cell = np.repeat(interior, [w.size for _, w in rules])
    return x, weight, cell


def free_convolve(alpha: Measure, beta: Measure, n_cells: int = N_CELLS) -> Measure:
    """Distribution of X + Y for freely independent X ~ alpha, Y ~ beta.

    A point-mass input reduces to a translation and is handled exactly; more
    general surviving atoms (possible only when two input atoms carry total
    weight above 1) are outside this solver's scope and surface as an
    inversion-quality failure rather than a wrong answer.
    """
    if alpha.is_point_mass():
        return affine_pushforward(beta, 1.0, alpha.atoms[0][0])
    if beta.is_point_mass():
        return affine_pushforward(alpha, 1.0, beta.atoms[0][0])

    alo, ahi = alpha.support()
    blo, bhi = beta.support()
    s_lo, s_hi = alo + blo, ahi + bhi
    lo, hi, pad = snapped_window(s_lo, s_hi, n_cells)
    h = (hi - lo) / n_cells
    eta = ETA_FACTOR * (hi - lo)
    xs, weight, cell = _readout_plan(lo, h, np.arange(pad, n_cells - pad))

    ps = _PointSolver(alpha, beta)
    width = max(1.0, s_hi - s_lo)
    values = np.empty(xs.size)
    unconverged = 0
    worst = 0.0
    trail: list[tuple[float, complex, complex]] = []
    for i, x in enumerate(xs.tolist()):
        z = complex(x, eta)
        ok = False
        if trail:
            _, resid, fa, knot, ok = ps.solve(z, _warm_start(trail, x, eta), MAX_ITER)
        if not ok:
            _, resid, fa, knot, ok = ps.bootstrap(z, width)
        if not ok:
            unconverged += 1
            worst = max(worst, resid)
        trail = [*trail[-1:], (x, *knot)]
        values[i] = max(0.0, -((1.0 / fa).imag) / math.pi)
    density = np.bincount(cell, weight * values, minlength=n_cells)

    n_points = xs.size
    if unconverged > 0.01 * n_points:
        raise ConvergenceError(
            f"subordination failed at {unconverged} of {n_points} points "
            f"(worst residual {worst:.3e})",
            residual=worst,
        )
    return _renormalized(
        lo,
        hi,
        density,
        {
            "eta": eta,
            "unconverged_points": unconverged,
            "worst_residual": worst,
            "solver_steps": ps.steps,
            "readout_points": n_points,
        },
    )
