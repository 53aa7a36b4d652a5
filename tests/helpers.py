"""Test-only helpers: readers and builders the package itself never calls."""

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
