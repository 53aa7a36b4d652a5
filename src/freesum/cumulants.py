"""Free cumulants, moment transforms, and mixed moments of free families.

The moment/cumulant dictionaries here follow the non-crossing partition
calculus: moments are sums over non-crossing partitions of products of
cumulants, and mixed moments of free variables keep only partitions whose
blocks are monochromatic.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .measure import Measure, moment

__all__ = [
    "cumulants_from_moments",
    "free_cumulant",
    "mixed_free_moment",
    "moments_from_cumulants",
    "pair_moment_targets",
]


def moments_from_cumulants(kappa) -> list[float]:
    """Moments m_1..m_n from free cumulants k_1..k_n.

    Uses m_n = sum_s k_s * [x^(n-s)] M(x)^s with M(x) = 1 + sum m_j x^j,
    which is the coefficient form of the non-crossing recursion.
    """
    kappa = [float(k) for k in kappa]
    n = len(kappa)
    m = [0.0] * (n + 1)
    m[0] = 1.0
    for order in range(1, n + 1):
        # powers of the truncated moment series, refreshed each round
        total = 0.0
        mkcoef = np.array(m[:order])
        power = np.array([1.0] + [0.0] * (order - 1))
        for s in range(1, order + 1):
            power = np.convolve(power, mkcoef)[:order]
            total += kappa[s - 1] * power[order - s]
        m[order] = total
    return m[1:]


def cumulants_from_moments(m) -> list[float]:
    """Free cumulants k_1..k_n from moments m_1..m_n (inverse recursion)."""
    m = [float(v) for v in m]
    n = len(m)
    kappa: list[float] = []
    for order in range(1, n + 1):
        forward = moments_from_cumulants(kappa + [0.0])
        kappa.append(m[order - 1] - forward[order - 1])
    return kappa


def free_cumulant(mu: Measure, order: int) -> float:
    """Free cumulant of a measure for order 1..4, from its first moments.

    Free cumulants add under free convolution, which is what the
    convolution tests exploit.
    """
    if order not in (1, 2, 3, 4):
        raise ParameterError(f"order must be in 1..4, got {order}")
    return cumulants_from_moments([moment(mu, p) for p in range(1, order + 1)])[-1]


def mixed_free_moment(marginal_cumulants, word) -> float:
    """Mixed moment tau(x_{c1} x_{c2} ... ) for a free family.

    ``marginal_cumulants`` maps a color to its cumulant list (k_1.. up to at
    least the word length).  Only non-crossing partitions with monochromatic
    blocks survive freeness; the recursion splits on the block containing the
    first letter, whose legs cut the rest of the word into independent gaps.
    """
    from itertools import combinations

    word = tuple(word)
    for c in set(word):
        if c not in marginal_cumulants:
            raise ParameterError(f"no cumulants supplied for color {c!r}")
        if len(marginal_cumulants[c]) < len(word):
            raise ParameterError("cumulant lists shorter than the word")
    cache: dict[tuple, float] = {(): 1.0}

    def tau(w: tuple) -> float:
        if w in cache:
            return cache[w]
        color = w[0]
        n = len(w)
        rest_same = [i for i in range(1, n) if w[i] == color]
        kappas = marginal_cumulants[color]
        total = 0.0
        # block through position 0 picks any same-color legs to its right;
        # a block of r legs leaves r gaps (between legs, then the tail)
        for r_extra in range(len(rest_same) + 1):
            for chosen in combinations(rest_same, r_extra):
                legs = (0,) + chosen
                kap = float(kappas[len(legs) - 1])
                if kap == 0.0:
                    continue
                prod = kap
                for a, b in zip(legs, legs[1:]):
                    prod *= tau(w[a + 1 : b])
                    if prod == 0.0:
                        break
                else:
                    prod *= tau(w[legs[-1] + 1 :])
                    total += prod
        cache[w] = total
        return total

    return tau(word)


def pair_moment_targets(m_first, m_second, max_len: int) -> dict[tuple, float]:
    """Targets for every word of length <= max_len in two free variables.

    Words are tuples over {0, 1}; marginal moment lists index orders 1..N.
    """
    if max_len < 1:
        raise ParameterError("max_len must be >= 1")
    cums = {
        0: cumulants_from_moments(m_first),
        1: cumulants_from_moments(m_second),
    }
    targets: dict[tuple, float] = {}
    stack: list[tuple] = [(0,), (1,)]
    while stack:
        w = stack.pop()
        targets[w] = mixed_free_moment(cums, w)
        if len(w) < max_len:
            stack.extend([w + (0,), w + (1,)])
    return targets
