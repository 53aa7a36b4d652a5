"""Free additive convolution of compactly supported measures.

The convolution is computed through the pair of analytic subordination
functions: at each query point z the coupled equations

    omega2 = F_alpha(omega1) + z - omega1
    omega1 = F_beta(omega2) + z - omega2,      F = 1/G,

are solved by a damped fixed point with a safeguarded Newton polish, and the
density is read off from G(z) = G_alpha(omega1(z)) just above the real axis.
The readout points form one plan in increasing x: the midpoint of each
ordinary cell, and in-cell quadrature nodes in the cells next to the support
endpoints, so the spacing is not uniform near the edges.  The plan is swept
once, serially.  Each point warm-starts from the linear extrapolation of
omega1 through the two points solved before it, clamped to Im >= Im z.  The
first point is bootstrapped by continuation from high up in the half-plane
where the fixed point is strongly contractive, and so is any point whose
warm start fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulants import free_cumulant  # re-exported; additivity under this op
from .errors import ConvergenceError, InversionQualityError, ParameterError
from .measure import (
    DEFAULT_GRID,
    GridConfig,
    Measure,
    affine_pushforward,
    snapped_window,
)
from .transform import StaircaseTransform

__all__ = [
    "SolverConfig",
    "SubordinationState",
    "free_convolve",
    "free_cumulant",
    "subordination_at",
]

# relative window height of the readout line Im z; small enough that the
# Poisson tail bias in second/fourth moments stays below the additivity
# tolerances, large enough to stay clear of rounding in the cell logs
ETA_FACTOR = 2e-8

# cells adjacent to a support endpoint refined by in-cell quadrature
EDGE_CELLS = 24

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    damping: float = 0.5
    max_iter: int = 500

    def __post_init__(self):
        if not 1e-12 <= self.tol <= 1e-4:
            raise ParameterError(f"tol must lie in [1e-12, 1e-4], got {self.tol}")
        if not 0 < self.damping <= 1:
            raise ParameterError("damping must lie in (0, 1]")
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")


@dataclass(frozen=True)
class SubordinationState:
    """Converged subordination values at one point, with iteration accounting."""

    omega1: complex
    omega2: complex
    residual: float
    iterations: int


class _PointSolver:
    """Solves the subordination pair at single points, reusing evaluators."""

    def __init__(self, alpha: Measure, beta: Measure, cfg: SolverConfig):
        self.ev_a = StaircaseTransform(alpha)
        self.ev_b = StaircaseTransform(beta)
        self.cfg = cfg
        # evaluation rounds made so far, bootstrap rounds included
        self.steps = 0

    def _sweep_step(self, z, w1):
        """One evaluation round: residual H, Newton slope, second point."""
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
        return h, hp, w2, fa

    def solve(self, z, w1, budget):
        """Iterate from w1; returns (state, F_value, converged)."""
        cfg = self.cfg
        floor = z.imag
        scale = max(1.0, abs(z))
        best = (math.inf, w1, w1, w1)  # residual, w1, w2, F
        for it in range(1, budget + 1):
            h, hp, w2, fa = self._sweep_step(z, w1)
            resid = abs(h)
            if resid < best[0]:
                best = (resid, w1, w2, fa)
            if resid <= cfg.tol * scale:
                return SubordinationState(w1, w2, resid, it), fa, True
            use_newton = resid < 0.3 * scale and hp != 0
            if use_newton:
                step = h / hp
                cap = 1.0 + 0.5 * (abs(w1) + abs(z))
                if abs(step) > cap:
                    step *= cap / abs(step)
                cand = w1 - step
            else:
                cand = w1 + cfg.damping * h
            if cand.imag < floor:
                cand = complex(cand.real, floor)
            w1 = cand
        resid, w1, w2, fa = best
        return SubordinationState(w1, w2, resid, budget), fa, False

    def bootstrap(self, z, height):
        """Continuation from Im = height down to z; returns warm (w1, state...)."""
        levels = [height]
        while levels[-1] > z.imag * 2:
            levels.append(levels[-1] * 0.4)
        w1 = complex(z.real, levels[0])
        state = None
        fa = None
        ok = False
        for lv in levels:
            zl = complex(z.real, lv)
            state, fa, ok = self.solve(zl, w1, 80)
            w1 = state.omega1
        state, fa, ok = self.solve(z, w1, self.cfg.max_iter)
        return state, fa, ok


def subordination_at(
    alpha: Measure, beta: Measure, z: complex, cfg: SolverConfig | None = None
) -> SubordinationState:
    """Solve the subordination equations at one upper-half-plane point."""
    z = complex(z)
    if not z.imag > 0:
        raise ParameterError("z must lie in the open upper half-plane")
    cfg = cfg or SolverConfig()
    solver = _PointSolver(alpha, beta, cfg)
    alo, ahi = alpha.support()
    blo, bhi = beta.support()
    width = max(1.0, (ahi + bhi) - (alo + blo))
    state, _, ok = solver.bootstrap(z, max(1.0, width))
    if not ok:
        raise ConvergenceError(
            f"subordination did not converge at {z} (residual {state.residual:.3e})",
            residual=state.residual,
        )
    return state


def _warm_start(trail, x: float, floor: float) -> complex:
    """omega1 extrapolated linearly to x from the last two (x, omega1) in trail.

    With one solved point the guess is its omega1; the guess never drops
    below Im = floor, the readout height.
    """
    x1, w1 = trail[-1]
    if len(trail) < 2:
        return w1
    x0, w0 = trail[-2]
    guess = w1 + (w1 - w0) * ((x - x1) / (x1 - x0))
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


def free_convolve(
    alpha: Measure,
    beta: Measure,
    grid: GridConfig | None = None,
    solver: SolverConfig | None = None,
) -> Measure:
    """Distribution of X + Y for freely independent X ~ alpha, Y ~ beta.

    A point-mass input reduces to a translation and is handled exactly; more
    general surviving atoms (possible only when two input atoms carry total
    weight above 1) are outside this solver's scope and surface as an
    inversion-quality failure rather than a wrong answer.
    """
    grid = grid or DEFAULT_GRID
    solver = solver or SolverConfig()
    if alpha.is_point_mass():
        return affine_pushforward(beta, 1.0, alpha.atoms[0][0])
    if beta.is_point_mass():
        return affine_pushforward(alpha, 1.0, beta.atoms[0][0])

    alo, ahi = alpha.support()
    blo, bhi = beta.support()
    s_lo, s_hi = alo + blo, ahi + bhi
    lo, hi, pad = snapped_window(s_lo, s_hi, grid)
    n = grid.n_cells
    h = (hi - lo) / n
    eta = ETA_FACTOR * (hi - lo)
    xs, weight, cell = _readout_plan(lo, h, np.arange(pad, n - pad))

    ps = _PointSolver(alpha, beta, solver)
    width = max(1.0, s_hi - s_lo)
    values = np.empty(xs.size)
    unconverged = 0
    worst = 0.0
    trail: list[tuple[float, complex]] = []
    for i, x in enumerate(xs.tolist()):
        z = complex(x, eta)
        ok = False
        if trail:
            state, fa, ok = ps.solve(z, _warm_start(trail, x, eta), solver.max_iter)
        if not ok:
            state, fa, ok = ps.bootstrap(z, width)
        if not ok:
            unconverged += 1
            worst = max(worst, state.residual)
        trail = [*trail[-1:], (x, state.omega1)]
        values[i] = max(0.0, -((1.0 / fa).imag) / math.pi)
    density = np.bincount(cell, weight * values, minlength=n)

    n_points = xs.size
    if unconverged > 0.01 * n_points:
        raise ConvergenceError(
            f"subordination failed at {unconverged} of {n_points} points "
            f"(worst residual {worst:.3e})",
            residual=worst,
        )

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
        meta={
            "raw_mass": raw_mass,
            "renormalization": 1.0 / raw_mass,
            "eta": eta,
            "unconverged_points": unconverged,
            "worst_residual": worst,
            "solver_steps": ps.steps,
            "readout_points": n_points,
        },
    )
