"""Compactly supported probability measures on the real line.

A measure is stored as a uniform grid of cell-averaged density values plus a
finite list of atoms.  Every standard family is built from its closed-form
distribution function (zero for the purely atomic laws) plus its atoms, so
every cell carries its exact mass and the margin cells outside the support
carry none.  ``cdf``, ``quantile`` and ``kolmogorov_distance`` all read one
table: the grid edges with the cumulative cell mass, and the atom locations
with the cumulative atom weight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

__all__ = [
    "Measure",
    "affine_pushforward",
    "arcsine",
    "bernoulli",
    "free_poisson",
    "kolmogorov_distance",
    "l1_distance",
    "moment",
    "point_mass",
    "sample",
    "semicircle",
    "standard_family",
    "uniform",
]

MASS_TOL = 1e-12

# default resolution of every discretized law and free convolution
N_CELLS = 2048


@dataclass(frozen=True)
class Measure:
    """Probability measure: cell-averaged grid density plus point atoms.

    Parameters
    ----------
    grid_lo, grid_hi : float
        Window endpoints; cells are uniform on ``[grid_lo, grid_hi]``.
    density : ndarray
        Nonnegative cell-averaged values, one per cell.
    atoms : tuple of (location, weight)
        Point masses; weights in (0, 1], locations inside the window.
    meta : dict
        Diagnostic values (total mass, inversion quality, ...).  Not part
        of equality or serialization.
    """

    grid_lo: float
    grid_hi: float
    density: np.ndarray
    atoms: tuple[tuple[float, float], ...] = ()
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        dens = np.ascontiguousarray(np.asarray(self.density, dtype=float))
        if dens.ndim != 1 or dens.size < 2:
            raise ParameterError("density must be a 1-d array with at least 2 cells")
        if not (math.isfinite(self.grid_lo) and math.isfinite(self.grid_hi)):
            raise ParameterError("grid endpoints must be finite")
        if not self.grid_hi > self.grid_lo:
            raise ParameterError("grid_hi must exceed grid_lo")
        if not np.all(np.isfinite(dens)):
            raise ParameterError("density values must be finite")
        if np.any(dens < 0):
            if np.min(dens) < -1e-14:
                raise ParameterError("density values must be nonnegative")
            dens = np.clip(dens, 0.0, None)
        dens.flags.writeable = False
        object.__setattr__(self, "density", dens)
        atoms = tuple(sorted((float(a), float(w)) for a, w in self.atoms))
        for loc, w in atoms:
            if not (self.grid_lo <= loc <= self.grid_hi):
                raise ParameterError(f"atom at {loc} outside window")
            if not (0.0 < w <= 1.0):
                raise ParameterError(f"atom weight {w} outside (0, 1]")
        object.__setattr__(self, "atoms", atoms)
        total = self.density_mass + self.atom_mass
        if abs(total - 1.0) > MASS_TOL:
            raise ParameterError(f"total mass {total} differs from 1 by > {MASS_TOL}")

    # -- geometry of the grid -------------------------------------------------

    @property
    def n_cells(self) -> int:
        return self.density.size

    @property
    def cell_width(self) -> float:
        return (self.grid_hi - self.grid_lo) / self.n_cells

    def edges(self) -> np.ndarray:
        return np.linspace(self.grid_lo, self.grid_hi, self.n_cells + 1)

    def midpoints(self) -> np.ndarray:
        h = self.cell_width
        return self.grid_lo + h * (np.arange(self.n_cells) + 0.5)

    # -- masses ---------------------------------------------------------------

    @property
    def density_mass(self) -> float:
        return float(np.sum(self.density) * self.cell_width)

    @property
    def atom_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def support(self) -> tuple[float, float]:
        """Smallest interval carrying all the mass."""
        edges = self.edges()
        nz = np.nonzero(self.density > 0)[0]
        los, his = [], []
        if nz.size:
            los.append(edges[nz[0]])
            his.append(edges[nz[-1] + 1])
        if self.atoms:
            los.append(min(a for a, _ in self.atoms))
            his.append(max(a for a, _ in self.atoms))
        return min(los), max(his)

    def is_point_mass(self, tol: float = 1e-9) -> bool:
        return (
            len(self.atoms) == 1
            and self.atoms[0][1] >= 1.0 - tol
            and self.density_mass <= tol
        )

    # -- distribution function and inverse ------------------------------------

    def _knots(self) -> np.ndarray:
        """Sorted grid edges and atom locations: F is linear between them."""
        return np.union1d(self.edges(), [loc for loc, _ in self.atoms])

    def _cdf(self, x, side: str) -> np.ndarray:
        """F(x) for side "right", the left limit F(x-) for side "left".

        The one table behind every read: grid edges with the cumulative cell
        mass, atom locations with the cumulative atom weight.
        """
        cells = np.concatenate([[0.0], np.cumsum(self.density) * self.cell_width])
        locs = np.array([loc for loc, _ in self.atoms], dtype=float)
        steps = np.concatenate([[0.0], np.cumsum([w for _, w in self.atoms])])
        return np.interp(x, self.edges(), cells) + steps[np.searchsorted(locs, x, side)]

    def cdf(self, x) -> np.ndarray:
        """Right-continuous distribution function, vectorized."""
        return self._cdf(np.asarray(x, dtype=float), "right")

    def quantile(self, q) -> np.ndarray:
        """Generalized inverse of the CDF, vectorized over ``q`` in [0, 1].

        Walks the monotone path (knot, F(knot-)), (knot, F(knot)) over every
        knot.  q = 0 reads the left end of the support, and q at or above the
        rounded total mass reads its right end.
        """
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ParameterError("quantile levels must lie in [0, 1]")
        knots = self._knots()
        xs = np.repeat(knots, 2)
        fs = np.column_stack([self._cdf(knots, "left"), self._cdf(knots, "right")])
        # np.interp can round an atom just below an edge one ulp past F(edge)
        fs = np.maximum.accumulate(fs.ravel())
        first = np.searchsorted(fs, 0.0, "right")
        last = np.searchsorted(fs, fs[-1], "left")
        i = np.clip(np.searchsorted(fs, q, "left"), first, last)
        frac = np.clip((q - fs[i - 1]) / (fs[i] - fs[i - 1]), 0.0, 1.0)
        return xs[i - 1] + frac * (xs[i] - xs[i - 1])

    def mean(self) -> float:
        return moment(self, 1)

    def variance(self) -> float:
        m1 = moment(self, 1)
        return moment(self, 2) - m1 * m1

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "grid_lo": self.grid_lo,
            "grid_hi": self.grid_hi,
            "density": [float(v) for v in self.density],
            "atoms": [[loc, w] for loc, w in self.atoms],
        }

    @classmethod
    def from_json(cls, data: dict | str) -> "Measure":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(
            grid_lo=float(data["grid_lo"]),
            grid_hi=float(data["grid_hi"]),
            density=np.asarray(data["density"], dtype=float),
            atoms=tuple((float(a), float(w)) for a, w in data.get("atoms", ())),
        )


# -- construction helpers ------------------------------------------------------


def snapped_window(support_lo: float, support_hi: float, n_cells: int):
    """Window of n_cells cells with the support endpoints on cell edges.

    The window is about 1.25 times the support, centred on it, so
    quadrature never clips mass.  Snapping keeps densities with jumps or
    edge singularities exactly cell-aligned, so no cell straddles a support
    endpoint.  Returns (lo, hi, pad_cells); the support spans cells
    [pad_cells, n_cells - pad_cells).
    """
    if not isinstance(n_cells, int) or n_cells < 2:
        raise ParameterError(f"n_cells must be an integer >= 2, got {n_cells}")
    width = support_hi - support_lo
    if width <= 0:
        raise ParameterError("support width must be positive")
    n_interior = max(2, round(n_cells / 1.25))
    pad = (n_cells - n_interior) // 2
    n_interior = n_cells - 2 * pad
    h = width / n_interior
    return support_lo - pad * h, support_hi + pad * h, pad


def _from_cdf(cdf, support, n_cells: int, atoms=()) -> Measure:
    """Cell masses from exact CDF differences; mass is conserved by design.

    ``cdf`` is the continuous part's distribution function on ``support``.
    The edges that ``snapped_window`` puts on the support ends are pinned
    there, so the margin cells get exactly zero mass and the end cells all
    of theirs, even where linspace rounds an end edge one ulp inside.
    """
    lo, hi, pad = snapped_window(support[0], support[1], n_cells)
    edges = np.linspace(lo, hi, n_cells + 1)
    edges[pad], edges[n_cells - pad] = support
    vals = cdf(np.clip(edges, support[0], support[1]))
    dens = np.diff(vals) / ((hi - lo) / n_cells)
    dens = np.clip(dens, 0.0, None)
    target = 1.0 - sum(w for _, w in atoms)
    got = np.sum(dens) * (hi - lo) / n_cells
    if got > 0:
        dens = dens * (target / got)
    return Measure(lo, hi, dens, tuple(atoms))


def semicircle(variance: float, n_cells: int = N_CELLS) -> Measure:
    """Semicircular law with the given variance, supported on [-2s, 2s]."""
    if not (math.isfinite(variance) and variance > 0):
        raise ParameterError(f"variance must be positive, got {variance}")
    s = math.sqrt(variance)
    r = 2.0 * s

    def cdf(x):
        u = np.clip(x / r, -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi

    return _from_cdf(cdf, (-r, r), n_cells)


def arcsine(radius: float, n_cells: int = N_CELLS) -> Measure:
    """Arcsine law with density 1 / (pi * sqrt(r^2 - x^2)) on (-r, r)."""
    if not (math.isfinite(radius) and radius > 0):
        raise ParameterError(f"radius must be positive, got {radius}")

    def cdf(x):
        u = np.clip(x / radius, -1.0, 1.0)
        return 0.5 + np.arcsin(u) / math.pi

    return _from_cdf(cdf, (-radius, radius), n_cells)


def uniform(lo: float, hi: float, n_cells: int = N_CELLS) -> Measure:
    """Uniform law on [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ParameterError(f"need lo < hi, got [{lo}, {hi}]")

    def cdf(x):
        return np.clip((x - lo) / (hi - lo), 0.0, 1.0)

    return _from_cdf(cdf, (lo, hi), n_cells)


def bernoulli(p: float, a: float, b: float, n_cells: int = N_CELLS) -> Measure:
    """Two-point law: mass p at a, mass 1 - p at b."""
    if not (0.0 < p < 1.0):
        raise ParameterError(f"p must lie in (0, 1), got {p}")
    if not (math.isfinite(a) and math.isfinite(b)) or a == b:
        raise ParameterError("atom locations must be finite and distinct")
    return _from_cdf(np.zeros_like, (min(a, b), max(a, b)), n_cells, ((a, p), (b, 1.0 - p)))


def point_mass(location: float, n_cells: int = N_CELLS) -> Measure:
    """Unit mass at a single point."""
    if not math.isfinite(location):
        raise ParameterError("location must be finite")
    support = (location - 0.5, location + 0.5)
    return _from_cdf(np.zeros_like, support, n_cells, ((location, 1.0),))


def free_poisson(rate: float, n_cells: int = N_CELLS) -> Measure:
    """Free Poisson law with the given rate (jump size 1).

    For rate >= 1 the law is absolutely continuous on [a, b] =
    [(1 - sqrt(rate))^2, (1 + sqrt(rate))^2]; below 1 an atom of weight
    1 - rate sits at the origin.  The continuous part's CDF is closed-form,
    written with atan2 so it keeps its digits at both ends of [a, b].
    """
    if not (math.isfinite(rate) and rate > 0):
        raise ParameterError(f"rate must be positive, got {rate}")
    sq = math.sqrt(rate)
    a, b = (1.0 - sq) ** 2, (1.0 + sq) ** 2
    atoms = ((0.0, 1.0 - rate),) if rate < 1.0 else ()

    def cdf(x):
        u = np.clip(x - a, 0.0, None)  # x runs over [0, b], below a for rate < 1
        v = b - x
        return (
            np.sqrt(u * v)
            + (a + b) * np.arctan2(np.sqrt(u), np.sqrt(v))
            - 2.0 * abs(1.0 - rate) * np.arctan2(np.sqrt(b * u), np.sqrt(a * v))
        ) / (2.0 * math.pi)

    return _from_cdf(cdf, (0.0 if atoms else a, b), n_cells, atoms)


_FAMILIES = {
    "semicircle": (semicircle, 1),
    "bernoulli": (bernoulli, 3),
    "arcsine": (arcsine, 1),
    "uniform": (uniform, 2),
    "free_poisson": (free_poisson, 1),
    "point_mass": (point_mass, 1),
}


def standard_family(name: str, params, n_cells: int = N_CELLS) -> Measure:
    """Build one of the named standard laws from a parameter list."""
    try:
        fn, arity = _FAMILIES[name]
    except KeyError:
        raise ParameterError(
            f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}"
        ) from None
    params = list(params)
    if len(params) != arity:
        raise ParameterError(f"family {name!r} takes {arity} parameter(s)")
    return fn(*params, n_cells=n_cells)


# -- operations -----------------------------------------------------------------


def moment(mu: Measure, p: int) -> float:
    """p-th raw moment by cell-midpoint quadrature plus exact atom terms."""
    if not isinstance(p, int) or p < 0 or p > 16:
        raise ParameterError(f"moment order must be an integer in [0, 16], got {p}")
    mids = mu.midpoints()
    val = float(np.dot(mu.density, mids**p) * mu.cell_width)
    val += sum(w * loc**p for loc, w in mu.atoms)
    return val


def affine_pushforward(mu: Measure, a: float, b: float) -> Measure:
    """Law of a*X + b.  Grid cells map one-to-one, so masses are exact."""
    if not (math.isfinite(a) and math.isfinite(b)) or a == 0:
        raise ParameterError("need finite a != 0 and finite b")
    lo, hi = a * mu.grid_lo + b, a * mu.grid_hi + b
    dens = mu.density / abs(a)
    if a < 0:
        lo, hi = hi, lo
        dens = dens[::-1]
    atoms = tuple((a * loc + b, w) for loc, w in mu.atoms)
    return Measure(lo, hi, dens, atoms)


def sample(mu: Measure, count: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling; deterministic for a given seed."""
    if not isinstance(count, int) or count < 1:
        raise ParameterError(f"count must be a positive integer, got {count}")
    rng = np.random.default_rng(seed)
    return mu.quantile(rng.random(count))


def l1_distance(mu: Measure, nu: Measure) -> float:
    """L1 distance between the continuous parts plus atom mass mismatch."""
    edges = np.unique(np.concatenate([mu.edges(), nu.edges()]))

    def dens_on(m: Measure, mids):
        out = np.zeros(mids.size)
        inside = (mids > m.grid_lo) & (mids < m.grid_hi)
        idx = np.clip(
            ((mids[inside] - m.grid_lo) / m.cell_width).astype(int), 0, m.n_cells - 1
        )
        out[inside] = m.density[idx]
        return out

    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    d = float(np.sum(np.abs(dens_on(mu, mids) - dens_on(nu, mids)) * widths))
    locs = sorted({loc for loc, _ in mu.atoms} | {loc for loc, _ in nu.atoms})
    wa, wb = dict(mu.atoms), dict(nu.atoms)
    return d + sum(abs(wa.get(loc, 0.0) - wb.get(loc, 0.0)) for loc in locs)


def kolmogorov_distance(mu: Measure, nu: Measure) -> float:
    """Sup distance between CDFs, read at every knot and its left limit."""
    pts = np.union1d(mu._knots(), nu._knots())
    right = np.abs(mu.cdf(pts) - nu.cdf(pts))
    left = np.abs(mu._cdf(pts, "left") - nu._cdf(pts, "left"))
    return float(max(np.max(right), np.max(left)))


def ks_statistic(samples: np.ndarray, mu: Measure) -> float:
    """Kolmogorov statistic of an empirical sample against ``mu``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = mu.cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
