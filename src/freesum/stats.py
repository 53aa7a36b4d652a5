"""Shared statistical helpers: confidence intervals, verdicts, seeded stream hashing."""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# two-sided 99% normal quantile
Z99 = 2.5758293035489004

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def wilson_interval(successes: int, trials: int):
    """Wilson score interval at 99% for a binomial proportion.

    Preferred over the Wald interval because it stays inside [0, 1] and
    behaves at proportions near 0 or 1.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + Z99 * Z99 / trials
    center = (p + Z99 * Z99 / (2 * trials)) / denom
    half = (Z99 / denom) * np.sqrt(p * (1 - p) / trials + Z99 * Z99 / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def three_way_verdict(deficit: float, tol: float) -> str:
    """holds if deficit >= -tol, violated if deficit < -3 tol, else inconclusive.

    "violated" needs clear separation so noise cannot trigger it.
    """
    if deficit >= -tol:
        return "holds"
    if deficit < -3.0 * tol:
        return "violated"
    return "inconclusive"


def logsumexp(a) -> float:
    """log(sum(exp(a))) shifted by the max; an all -inf input gives -inf."""
    a = np.asarray(a, dtype=np.float64)
    peak = np.max(a)
    if not np.isfinite(peak):
        return float(peak)
    return float(peak + np.log(np.sum(np.exp(a - peak))))


def splitmix64(x):
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    x = np.asarray(x, dtype=np.uint64)
    # uint64 wraparound is the point here; silence numpy's overflow warning
    with np.errstate(over="ignore"):
        z = (x + _SPLITMIX_GAMMA) & np.uint64(0xFFFFFFFFFFFFFFFF)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def stream_seed(seed: int, stream: int) -> int:
    """Derived seed for an independent stream; deterministic and collision-poor."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return int(splitmix64(base ^ splitmix64(np.uint64(stream))))


def hash_unit(seed: int, columns) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from float coordinate columns.

    Each row's IEEE-754 bit patterns are folded through SplitMix64, so the
    value depends only on (seed, coordinates).  Used for reproducible random
    subset predicates.
    """
    cols = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
    if not cols:
        raise ParameterError("need at least one coordinate column")
    acc = np.full(cols[0].shape, np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    with np.errstate(over="ignore"):
        for j, c in enumerate(cols):
            bits = c.view(np.uint64)
            acc = splitmix64(acc ^ bits ^ (np.uint64(j + 1) * _SPLITMIX_GAMMA))
    return acc.astype(np.float64) / float(2**64)
