"""Test-only helpers: readers and builders the package itself never calls."""

import math

import numpy as np

from freesum.measure import Measure
from freesum.microstates import StepFunctionSpec


def ks_statistic(samples, mu: Measure) -> float:
    """Kolmogorov statistic of an empirical sample against ``mu``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = mu.cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def affine(h: StepFunctionSpec, a: float, b: float) -> StepFunctionSpec:
    """The profile a * h + b on h's nodes."""
    return StepFunctionSpec(h.nodes, tuple(a * v + b for v in h.values))


def measure_from_json(data: dict) -> Measure:
    """The measure whose JSON form, as the CLI writes it, is ``data``."""
    return Measure(
        data["grid_lo"],
        data["grid_hi"],
        np.asarray(data["density"], dtype=float),
        tuple((a, w) for a, w in data["atoms"]),
    )


def gapped_two_point_cdf(x, s: float, d: float):
    """CDF of (1/2, +-a) boxplus (1/2, +-b) with s = a + b > d = |a - b|.

    The density is |y| / (pi sqrt((s^2 - y^2)(y^2 - d^2))) on d < |y| < s;
    with u = y^2 it integrates to an arcsine in u.
    """
    y = np.clip(np.abs(np.asarray(x, dtype=float)), d, s)
    u = np.clip((2.0 * y * y - s * s - d * d) / (s * s - d * d), -1.0, 1.0)
    half = (np.arcsin(u) + 0.5 * math.pi) / (2.0 * math.pi)
    return np.where(np.asarray(x) >= 0, 0.5 + half, 0.5 - half)
