"""Random-matrix microstates: slot-constrained spectra under Haar bases.

A microstate set is carved out of self-adjoint k x k matrices by pinning each
ordered eigenvalue into its own interval ("slot") derived from a strictly
increasing profile function on [0, 1].  This module samples such matrices,
tests moment-matching membership against limit targets, and estimates the
normalized log-volume of a slot set, which converges to the log-energy
entropy of the profile's push-forward distribution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cumulants import cumulants_from_moments, moments_from_cumulants, pair_moment_targets
from .errors import ParameterError, PrecisionError
from .freeentropy import CHI_SHIFT
from .measure import Measure
from .stats import logsumexp, stream_seed, wilson_interval

__all__ = [
    "ContainmentResult",
    "FractionEstimate",
    "GammaTarget",
    "MatrixMicrostate",
    "StepFunctionSpec",
    "check_sum_containment",
    "empirical_chi",
    "estimate_log_volume_omega",
    "log_flag_constant",
    "membership_report",
    "sum_spectrum_experiment",
    "theta_fraction",
]

_HERMITIAN_TOL = 1e-12
_SLOT_LANDING_TOL = 1e-9
_NORM_SLACK = 1e-9
_UNITARY_TOL = 1e-10
_MIN_ESS = 100.0
_PROPOSAL_BINS = 128
# fraction of proposal mass spread uniformly over bins so no region of a
# slot box gets probability zero under the tilted proposal
_PROPOSAL_FLOOR = 0.05
# uniform-draw cells per coordinate in the proposal's bin guide table
_GUIDE_CELLS = 1024
# log-Vandermonde sums: columns per block, the most gap offsets multiplied
# before one log, and the bound on |log| of every partial product, which
# keeps each product a normal float64 (exp(-690) ~ 1e-300)
_VDM_BLOCK = 1024
_VDM_GROUP = 16
_VDM_LOG_RANGE = 690.0

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)


# -- profile functions --------------------------------------------------------


@dataclass(frozen=True)
class StepFunctionSpec:
    """Strictly increasing piecewise-linear profile on [0, 1].

    ``nodes`` are abscissae starting at 0 and ending at 1; ``values`` are the
    profile values at those nodes.  Both must be strictly increasing, which
    makes every eigenvalue slot a nonempty interval at any resolution.
    """

    nodes: tuple
    values: tuple

    def __post_init__(self):
        nodes = tuple(float(t) for t in self.nodes)
        values = tuple(float(v) for v in self.values)
        if len(nodes) < 2 or len(nodes) != len(values):
            raise ParameterError("need matching node/value tables with >= 2 entries")
        if not all(math.isfinite(t) for t in nodes + values):
            raise ParameterError("table entries must be finite")
        if abs(nodes[0]) > 0.0 or abs(nodes[-1] - 1.0) > 0.0:
            raise ParameterError("nodes must start at 0 and end at 1")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ParameterError("nodes must be strictly increasing")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ParameterError("values must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @classmethod
    def identity(cls) -> "StepFunctionSpec":
        return cls((0.0, 1.0), (0.0, 1.0))

    @classmethod
    def from_quantiles(cls, mu: Measure, n_nodes: int = 129) -> "StepFunctionSpec":
        """Tabulate the quantile function of ``mu``.

        Atoms produce flat quantile stretches, which the strictness check
        rejects; only measures with a genuine density can serve as profiles.
        """
        if n_nodes < 2:
            raise ParameterError("n_nodes must be >= 2")
        ts = np.linspace(0.0, 1.0, n_nodes)
        hs = np.asarray(mu.quantile(ts), dtype=float)
        if np.any(np.diff(hs) <= 0.0):
            raise ParameterError("quantile table is not strictly increasing")
        return cls(tuple(ts), tuple(hs))

    def __call__(self, t):
        return np.interp(t, self.nodes, self.values)

    @property
    def sup_abs(self) -> float:
        """sup |h|; attained at a node because h is piecewise linear."""
        return max(abs(self.values[0]), abs(self.values[-1]))

    def slots(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalue slots [h(s/k), h((2s+1)/(2k))] for s = 0..k-1.

        Strict monotonicity makes consecutive slots disjoint with a gap, so
        slot-wise draws are automatically sorted.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        s = np.arange(k, dtype=float)
        lo = self(s / k)
        hi = self((2.0 * s + 1.0) / (2.0 * k))
        if np.any(hi <= lo):
            raise ParameterError(f"empty eigenvalue slot at resolution 1/{2 * k}")
        return lo, hi

    def moments(self, n: int) -> list[float]:
        """Moments of the push-forward of uniform [0, 1] through the profile.

        Per-segment Gauss quadrature; h is linear on each segment so 8 nodes
        integrate h^m exactly for m <= 15.
        """
        if n < 1:
            raise ParameterError("n must be >= 1")
        if n > 15:
            raise ParameterError("moments supported up to order 15")
        out = []
        t0 = np.asarray(self.nodes[:-1])
        t1 = np.asarray(self.nodes[1:])
        half = 0.5 * (t1 - t0)
        mid = 0.5 * (t0 + t1)
        ts = mid[:, None] + half[:, None] * _GAUSS8_NODES[None, :]
        hs = self(ts)
        for m in range(1, n + 1):
            vals = np.sum(hs**m * _GAUSS8_WEIGHTS[None, :], axis=1) * half
            out.append(float(np.sum(vals)))
        return out


# -- matrices ------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixMicrostate:
    """Self-adjoint k x k matrix.

    The spectrum is computed on the first ``spectrum()`` call and cached, and
    every later reader shares that read-only array.  A matrix drawn from
    eigenvalue slots, diagonal or under a Haar basis, carries an upper bound
    on its operator norm, known without an eigensolve, and a sum of two such
    matrices carries the total of their bounds (the triangle inequality);
    every other matrix carries None.
    """

    k: int
    entries: np.ndarray
    _norm_bound: float | None = field(default=None, kw_only=True, repr=False, compare=False)
    _spectrum: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k}")
        m = np.ascontiguousarray(np.asarray(self.entries, dtype=complex))
        if m.shape != (self.k, self.k):
            raise ParameterError(f"entries must be {self.k}x{self.k}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ParameterError("entries must be finite")
        gap = float(np.max(np.abs(m - m.conj().T))) if self.k else 0.0
        if gap > _HERMITIAN_TOL:
            raise ParameterError(f"matrix deviates from self-adjoint by {gap:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order, solved on the first call."""
        if self._spectrum is None:
            spectrum = np.linalg.eigvalsh(self.entries)
            spectrum.flags.writeable = False
            object.__setattr__(self, "_spectrum", spectrum)
        return self._spectrum

    def __add__(self, other: "MatrixMicrostate") -> "MatrixMicrostate":
        if not isinstance(other, MatrixMicrostate):
            return NotImplemented
        if other.k != self.k:
            raise ParameterError("matrix sizes differ")
        bounds = (self._norm_bound, other._norm_bound)
        total = None if None in bounds else bounds[0] + bounds[1]
        return MatrixMicrostate(self.k, self.entries + other.entries, _norm_bound=total)


# -- membership targets ---------------------------------------------------------


@dataclass(frozen=True)
class GammaTarget:
    """Moment targets for membership tests on words of bounded length.

    ``target_moments`` maps each word (a tuple of variable indices) to its
    expected normalized trace; ``max_len`` caps the word length, ``eps`` is
    the acceptance tolerance, and ``norm_bound`` bounds each operator norm.
    """

    target_moments: dict
    max_len: int
    eps: float
    norm_bound: float

    def __post_init__(self):
        if not isinstance(self.max_len, int) or self.max_len < 1:
            raise ParameterError(f"max_len must be an integer >= 1, got {self.max_len}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ParameterError(f"eps must be positive, got {self.eps}")
        if not (math.isfinite(self.norm_bound) and self.norm_bound > 0.0):
            raise ParameterError(f"norm_bound must be positive, got {self.norm_bound}")
        cleaned = {}
        for word, value in self.target_moments.items():
            w = tuple(int(c) for c in word)
            if not 1 <= len(w) <= self.max_len:
                raise ParameterError(f"word {w} has length outside 1..{self.max_len}")
            if any(c < 0 for c in w):
                raise ParameterError("variable indices must be nonnegative")
            v = float(value)
            if abs(v) > self.norm_bound ** len(w) * (1.0 + 1e-9):
                raise ParameterError(f"target for {w} exceeds norm_bound^len")
            cleaned[w] = v
        if not cleaned:
            raise ParameterError("need at least one target word")
        object.__setattr__(self, "target_moments", cleaned)

    @property
    def n_variables(self) -> int:
        return 1 + max(max(w) for w in self.target_moments)

    @classmethod
    def single(cls, moments, eps: float, norm_bound: float) -> "GammaTarget":
        """Targets for one variable: all powers up to len(moments)."""
        moments = [float(v) for v in moments]
        targets = {(0,) * (m + 1): moments[m] for m in range(len(moments))}
        return cls(targets, len(moments), eps, norm_bound)

    @classmethod
    def free_pair(
        cls, moments_first, moments_second, max_len: int, eps: float, norm_bound: float
    ) -> "GammaTarget":
        """Targets for two free variables with the given marginal moments.

        Mixed words get the values forced by freeness: only non-crossing
        monochromatic cumulant patterns contribute.
        """
        m1 = [float(v) for v in moments_first][:max_len]
        m2 = [float(v) for v in moments_second][:max_len]
        if len(m1) < max_len or len(m2) < max_len:
            raise ParameterError("marginal moment lists shorter than max_len")
        return cls(pair_moment_targets(m1, m2, max_len), max_len, eps, norm_bound)


# -- sampling -------------------------------------------------------------------


def _haar_from_rng(k: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Haar unitary U and its measured unitarity defect max |fl(U U*) - I|.

    QR of a complex Ginibre matrix with the triangular factor's diagonal
    rotated to positive reals; without that correction QR alone is not Haar.
    """
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0.0, d / np.where(np.abs(d) > 0.0, np.abs(d), 1.0), 1.0)
    u = q * phase
    gap = float(np.max(np.abs(u @ u.conj().T - np.eye(k))))
    if gap > _UNITARY_TOL:
        raise PrecisionError("orthonormalization lost unitarity", k=k, gap=gap)
    return u, gap


def _gamma(n: int) -> float:
    """Higham's rounding constant n u / (1 - n u), u = 2^-53 the unit roundoff."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


def _sample_omega(h: StepFunctionSpec, k: int, rng: np.random.Generator) -> MatrixMicrostate:
    """Matrix S built from a uniform slot draw lam, with its spectrum certified.

    Eigenvalue s+1 is uniform in [h(s/k), h((2s+1)/(2k))]; the slots are
    disjoint, so the draw is already sorted.  S is U diag(lam) U* in floating
    point for a Haar U, then averaged with its adjoint.  Its spectrum is
    shown to lie within ``_SLOT_LANDING_TOL`` of lam, hence of the slots,
    without an eigensolve.  Write u = 2^-53, g_n = ``_gamma(n)``,
    L = max |lam|, and delta for the defect max |fl(U U*) - I| measured by
    ``_haar_from_rng``.

    - Row norms.  A complex inner product of length k is computed within
      g_{k+2} |x|^T |y| (Higham, *Accuracy and Stability of Numerical
      Algorithms*, sec. 3.5-3.6).  Each squared row norm r of U therefore
      obeys r <= 1 + delta + g_{k+2} r, so r <= rho = (1 + delta) / (1 -
      g_{k+2}), and sum_l |u_il| |u_jl| <= rho by Cauchy-Schwarz.
    - Congruence.  The exact U U* - I has entries at most delta + g_{k+2} rho
      and so 2-norm at most eta = k (delta + g_{k+2} rho).  By Ostrowski's
      theorem (Horn & Johnson, *Matrix Analysis*, Thm 4.5.9) the i-th
      eigenvalue of A = U diag(lam) U* is t_i lam_i with |t_i - 1| <= eta.
    - Rounding.  Scaling the columns of U by lam costs one rounding and the
      product g_{k+2} more, so fl(U diag(lam) U*) is within g_{k+3} L rho of
      A entrywise.  The average with the adjoint adds at most 2 u L rho, so
      every entry of S - A is at most (g_{k+3} + 2 u) L rho and ||S - A||_2 is
      at most k rho (g_{k+3} + 2 u) L.  By Weyl's inequality no eigenvalue
      moves further than that.

    Together |lam_i(S) - lam_i| <= L (eta + k rho (g_{k+3} + 2 u)), about
    1e-11 at k = 128.  (``np.abs`` may round delta down by a relative 2^-52
    or so, which lowers the bound by at most as much; that is left out.)
    The matrix carries the norm bound L plus the certified bound.  When the
    certified bound exceeds the tolerance, the spectrum is solved and checked
    against the slots instead, an escape raises ``PrecisionError``, and the
    matrix carries no bound: its norm is read from the solved spectrum.
    """
    lo, hi = h.slots(k)
    lam = rng.uniform(lo, hi)
    u, delta = _haar_from_rng(k, rng)
    m = (u * lam) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    top = float(np.max(np.abs(lam)))
    rho = (1.0 + delta) / (1.0 - _gamma(k + 2))
    eta = k * (delta + _gamma(k + 2) * rho)
    drift = top * (eta + k * rho * (_gamma(k + 3) + 2.0 * 2.0**-53))
    if drift <= _SLOT_LANDING_TOL:
        return MatrixMicrostate(k, m, _norm_bound=top + drift)
    state = MatrixMicrostate(k, m)
    spectrum = state.spectrum()
    if np.any(spectrum < lo - _SLOT_LANDING_TOL) or np.any(spectrum > hi + _SLOT_LANDING_TOL):
        worst = float(np.max(np.maximum(lo - spectrum, spectrum - hi)))
        raise PrecisionError(
            "reconstructed spectrum left its slots", k=k, worst_escape=worst
        )
    return state


# -- membership -----------------------------------------------------------------


def _word_traces(mats: list[np.ndarray], words) -> dict[tuple, float]:
    """Normalized traces of matrix words, one product per cached prefix.

    Every matrix must be Hermitian; callers pass ``MatrixMicrostate.entries``.
    A word of length 1 is read off the diagonal.  A longer word w = p c needs
    only the product P of its prefix p, because tr(P M) = sum_ij P_ij M_ji =
    ``np.vdot(M, P)`` for Hermitian M.  Prefix products are cached, and a
    prefix whose reversal is already cached is that product's conjugate
    transpose, since (A B ... C)* = C ... B A.  At max_len 3 a pair of
    matrices costs 3 products: AA, AB and BB, with BA = (AB)*.
    """
    k = mats[0].shape[0]
    cache: dict[tuple, np.ndarray] = {}
    out: dict[tuple, float] = {}
    for word in sorted(words):
        if len(word) == 1:
            value = np.trace(mats[word[0]]).real
        else:
            value = np.vdot(mats[word[-1]], _word_product(mats, word[:-1], cache)).real
        out[word] = float(value) / k
    return out


def _word_product(mats: list[np.ndarray], word: tuple, cache: dict) -> np.ndarray:
    """Product of the matrices ``word`` names, caching every product formed."""
    if len(word) == 1:
        return mats[word[0]]
    prod = cache.get(word)
    if prod is None:
        mirror = cache.get(word[::-1])
        if mirror is not None:
            prod = mirror.conj().T
        else:
            prod = _word_product(mats, word[:-1], cache) @ mats[word[-1]]
        cache[word] = prod
    return prod


def membership_report(states, target: GammaTarget) -> dict:
    """Moment-matching verdict with diagnostics.

    Returns member flag, the norm-violation flag, the norms used, the worst
    word and its error.  ``member`` is true iff no norm exceeds the bound and
    every word trace of length <= max_len matches its target within eps.  A
    matrix's own norm bound stands for its norm when it is at most
    ``target.norm_bound`` (plus ``_NORM_SLACK``); otherwise the norm is read
    from the matrix's spectrum, so no verdict rests on a loose bound.
    """
    states = list(states)
    if not states:
        raise ParameterError("need at least one matrix")
    k = states[0].k
    if any(s.k != k for s in states):
        raise ParameterError("matrix sizes differ")
    if target.n_variables > len(states):
        raise ParameterError(
            f"targets mention variable {target.n_variables - 1} "
            f"but only {len(states)} matrices were given"
        )
    limit = target.norm_bound + _NORM_SLACK
    norms = [
        s._norm_bound
        if s._norm_bound is not None and s._norm_bound <= limit
        else float(np.max(np.abs(s.spectrum())))
        for s in states
    ]
    report = {
        "member": False,
        "norm_violation": False,
        "norms": norms,
        "worst_word": None,
        "worst_error": 0.0,
    }
    if max(norms) > limit:
        report["norm_violation"] = True
        return report
    mats = [s.entries for s in states]
    traces = _word_traces(mats, target.target_moments)
    worst_word, worst_err = None, -1.0
    for word, value in traces.items():
        err = abs(value - target.target_moments[word])
        if err > worst_err:
            worst_word, worst_err = word, err
    report["worst_word"] = worst_word
    report["worst_error"] = worst_err
    report["member"] = worst_err <= target.eps
    return report


# -- pair fraction ----------------------------------------------------------------


def _pair_trials(h1, h2, k: int, max_len: int, eps: float, trials: int, seed: int):
    """Iterator of (a1, a2, member) for trials t = 0..trials-1.

    Checks ``trials`` and builds the freeness target of the two push-forward
    laws (words up to ``max_len``, tolerance ``eps``, norm bound the larger
    sup |h|) before any trial runs.  Trial t draws from the stream
    stream_seed(seed, t) and tests the pair against that target.

    A trial draws the pair (Lam1, V Lam2 V*): a1 is the diagonal of a slot
    draw of h1, whose norm is exactly its largest |entry|, and a2 is a slot
    draw of h2 under one Haar basis V (``_sample_omega``).  Two independent
    rotations (U1 Lam1 U1*, U2 Lam2 U2*) give the same law of everything
    read here: the word traces, the norms and the spectrum of a1 + a2 are
    unchanged by conjugating both matrices by U1*, which leaves
    (Lam1, U1* U2 Lam2 U2* U1), and U1* U2 is Haar and independent of the
    slot draws.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    target = GammaTarget.free_pair(
        h1.moments(max_len),
        h2.moments(max_len),
        max_len,
        eps,
        max(h1.sup_abs, h2.sup_abs),
    )
    lo, hi = h1.slots(k)

    def trial(t):
        rng = np.random.default_rng(stream_seed(seed, t))
        lam = rng.uniform(lo, hi)
        first = MatrixMicrostate(k, np.diag(lam), _norm_bound=float(np.max(np.abs(lam))))
        second = _sample_omega(h2, k, rng)
        report = membership_report((first, second), target)
        return first, second, bool(report["member"])

    return map(trial, range(trials))


def _log_vandermonde_sq(lam: np.ndarray) -> np.ndarray:
    """2 sum_{i<j} log(lam[j] - lam[i]) for each column of a (k, n) array.

    Columns must increase strictly.  Each block of ``_VDM_BLOCK`` columns is
    walked offset by offset: the gaps lam[d:] - lam[:-d] of up to
    ``_VDM_GROUP`` consecutive offsets d are multiplied into one running
    product, which is logged once.  Every gap lies between the block's
    smallest adjacent gap and its largest span, so the group size is the
    largest for which a product of that many such gaps stays inside
    exp(+-_VDM_LOG_RANGE).  A zero gap forces single gaps, whose log is -inf.
    """
    k, n = lam.shape
    out = np.empty(n)
    acc = np.empty((k - 1, min(n, _VDM_BLOCK)))
    gaps = np.empty_like(acc)
    for start in range(0, n, _VDM_BLOCK):
        b = lam[:, start : start + _VDM_BLOCK]
        width = b.shape[1]
        prod, gap = acc[:, :width], gaps[:, :width]
        min_gap = float(np.min(np.subtract(b[1:], b[:-1], out=gap)))
        if min_gap > 0.0:
            worst = max(-math.log(min_gap), math.log(float(np.max(b[-1] - b[0]))))
            group = max(1, int(_VDM_LOG_RANGE / max(worst, _VDM_LOG_RANGE / _VDM_GROUP)))
        else:
            group = 1
        total = np.zeros(width)
        for first in range(1, k, group):
            rows = k - first
            np.subtract(b[first:], b[:-first], out=prod[:rows])
            for d in range(first + 1, min(first + group, k)):
                np.multiply(
                    prod[: k - d], np.subtract(b[d:], b[:-d], out=gap[: k - d]), out=prod[: k - d]
                )
            total += np.sum(np.log(prod[:rows], out=prod[:rows]), axis=0)
        out[start : start + width] = 2.0 * total
    return out


@dataclass(frozen=True)
class FractionEstimate:
    """Pass fraction of a pairwise trial with its Wilson interval.

    The fraction is under the law the trials draw: each eigenvalue uniform
    in its slot, and the pair (Lam1, V Lam2 V*) for a Haar V, which reads
    the same as two independent Haar bases (see ``_pair_trials``).
    """

    passes: int
    trials: int
    fraction: float
    ci_low: float
    ci_high: float


def _ess(log_w: np.ndarray) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2, from log weights."""
    return float(np.exp(2.0 * logsumexp(log_w) - logsumexp(2.0 * log_w)))


def theta_fraction(
    h1: StepFunctionSpec,
    h2: StepFunctionSpec,
    k: int,
    max_len: int,
    eps: float,
    trials: int,
    seed: int,
) -> FractionEstimate:
    """Fraction of independent slot-sample pairs that look free.

    Each trial draws a diagonal slot draw of h1 and a slot draw of h2 under
    one Haar basis, the law of two independently rotated slot draws (see
    ``_pair_trials``), and tests the pair against the freeness targets of
    the two push-forward laws.  Trial t draws from stream_seed(seed, t), so
    it draws the same whatever ``trials`` is, and distinct seeds never share
    a trial stream.
    """
    passes = sum(member for _, _, member in _pair_trials(h1, h2, k, max_len, eps, trials, seed))
    lo, hi = wilson_interval(passes, trials)
    return FractionEstimate(
        passes=passes,
        trials=trials,
        fraction=passes / trials,
        ci_low=lo,
        ci_high=hi,
    )


# -- spectra of sums ---------------------------------------------------------------


def _empirical_measure(eigenvalues: np.ndarray) -> Measure:
    locs, counts = np.unique(np.asarray(eigenvalues, dtype=float), return_counts=True)
    total = int(np.sum(counts))
    span = float(locs[-1] - locs[0])
    margin = max(1e-6, 0.05 * span)
    atoms = tuple((float(x), float(c) / total) for x, c in zip(locs, counts))
    return Measure(
        grid_lo=float(locs[0]) - margin,
        grid_hi=float(locs[-1]) + margin,
        density=np.zeros(8),
        atoms=atoms,
    )


def sum_spectrum_experiment(alpha: Measure, beta: Measure, k: int, seed: int) -> Measure:
    """Empirical spectral measure of a sum of independently rotated matrices.

    Each summand is a diagonal of midpoint quantiles, Q_a and Q_b.  The sum
    is Q_a + V Q_b V* for one Haar unitary V: conjugating U_a Q_a U_a* +
    U_b Q_b U_b* by U_a* keeps its spectrum and leaves that form, with
    V = U_a* U_b Haar.  The eigenvalues come back as atoms of mass 1/k.
    """
    if not isinstance(k, int) or k < 32:
        raise ParameterError(f"k must be an integer >= 32, got {k}")
    rng = np.random.default_rng(seed)
    ps = (np.arange(k) + 0.5) / k
    qa = np.asarray(alpha.quantile(ps), dtype=float)
    qb = np.asarray(beta.quantile(ps), dtype=float)
    v, _ = _haar_from_rng(k, rng)
    s = (v * qb) @ v.conj().T + np.diag(qa)
    s = 0.5 * (s + s.conj().T)
    eig = np.linalg.eigvalsh(s)
    if not np.all(np.isfinite(eig)):
        raise PrecisionError("eigensolver returned non-finite spectrum")
    return _empirical_measure(eig)


# -- entropy estimators ---------------------------------------------------------------


def empirical_chi(eigenvalues) -> float:
    """Plug-in log-energy entropy of a finite spectrum.

    (2/k^2) sum_{i<j} log|l_i - l_j| + 3/4 + log(2 pi)/2.  A repeated
    eigenvalue (gap <= 1e-14) returns -inf, matching the entropy of a
    distribution with an atom.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ParameterError("need a vector of at least 2 eigenvalues")
    if not np.all(np.isfinite(lam)):
        raise ParameterError("eigenvalues must be finite")
    k = lam.size
    lam = np.sort(lam)
    if float(np.min(np.diff(lam))) <= 1e-14:
        return float("-inf")
    return float(_log_vandermonde_sq(lam[:, None])[0] / (k * k)) + CHI_SHIFT


@functools.lru_cache(maxsize=None)
def log_flag_constant(k: int) -> float:
    """log C_k in  lambda(dA) = C_k * Vandermonde^2 dlambda * dU.

    Calibrated against the Gaussian integral over self-adjoint matrices in
    the trace norm, which equals (2 pi)^(k^2/2) exactly: integrating out the
    eigenbasis leaves the Hankel determinant of Gaussian moments,
    (2 pi)^(k/2) prod_{n<k} n!, so
    log C_k = (k^2/2 - k/2) log 2pi - sum_{n<k} log n!.
    """
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    return k * (k - 1) / 2 * math.log(2 * math.pi) - sum(math.lgamma(n + 1) for n in range(k))


def _box_proposal(lo: np.ndarray, hi: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate tilted bin probabilities for the slot box.

    Each coordinate's marginal response to the squared-Vandermonde integrand
    is evaluated on a bin grid with the other coordinates frozen at their
    slot centers; a uniform floor keeps every bin reachable.  All geometry is
    divided by ``scale`` so that rescaling the profile leaves the proposal
    bit-for-bit unchanged.
    """
    k = lo.size
    width = hi - lo
    centers = 0.5 * (lo + hi) / scale
    u_mid = (np.arange(_PROPOSAL_BINS) + 0.5) / _PROPOSAL_BINS
    pos = (lo[:, None] + width[:, None] * u_mid[None, :]) / scale
    diff = np.abs(pos[:, :, None] - centers[None, None, :])
    np.einsum("ibi->ib", diff)[:] = 1.0
    g = 2.0 * np.sum(np.log(diff), axis=2)
    g -= np.max(g, axis=1, keepdims=True)
    p = np.exp(g)
    p /= np.sum(p, axis=1, keepdims=True)
    p = (1.0 - _PROPOSAL_FLOOR) * p + _PROPOSAL_FLOOR / _PROPOSAL_BINS
    return p, np.cumsum(p, axis=1)


def _draw_bins(cum: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Bin of each uniform draw in ``r`` under the cumulative masses ``cum``.

    Equals np.minimum(np.searchsorted(cum, r, side="right"), cum.size - 1).
    A guide table holds the bin of each of ``_GUIDE_CELLS`` cell starts; a
    draw starts at its cell's entry and steps idx += cum[idx] <= r as often
    as the most bin edges that one cell holds, which reaches its bin.
    """
    # an infinite last edge keeps every draw at or before the last bin
    edges = cum.copy()
    edges[-1] = np.inf
    guide = np.searchsorted(edges, np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS, side="right")
    idx = guide[(r * _GUIDE_CELLS).astype(np.intp)]
    for _ in range(int(np.max(np.diff(guide)))):
        idx += edges[idx] <= r
    return idx


def estimate_log_volume_omega(
    h: StepFunctionSpec, k: int, mc_samples: int, seed: int
) -> float:
    """Normalized log-volume of a slot set: k^{-2} log volume + log(k)/2.

    The volume factors into the basis constant ``log_flag_constant`` times
    the squared-Vandermonde integral over the slot box.  The integral is
    estimated in log space by importance sampling from a per-coordinate
    tilted proposal, with a log-sum-exp reduction; as k grows the value
    approaches the log-energy entropy of the profile's push-forward law.

    The samples are held as a (k, mc_samples) array, one row per coordinate.
    Each sample's log squared Vandermonde comes from grouped products: in
    blocks of ``_VDM_BLOCK`` samples the gaps of up to ``_VDM_GROUP``
    consecutive offsets are multiplied together before one log is taken.
    The group size is the largest that keeps every partial product inside
    exp(+-690), judged from the block's smallest adjacent gap and largest
    span, so no product overflows or turns subnormal.
    """
    if not isinstance(k, int) or not 2 <= k <= 64:
        raise ParameterError(f"k must be an integer in 2..64, got {k}")
    if mc_samples < 10_000:
        raise ParameterError(f"mc_samples must be >= 10^4, got {mc_samples}")
    lo, hi = h.slots(k)
    width = hi - lo
    scale = h.values[-1] - h.values[0]
    p, cum = _box_proposal(lo, hi, scale)
    # log q is a density in unit box coordinates; the width Jacobian
    # converts both it and the integral to eigenvalue coordinates
    log_p = np.log(p) + math.log(_PROPOSAL_BINS)
    rng = np.random.default_rng(seed)

    lam = np.empty((k, mc_samples))
    log_q = np.zeros(mc_samples)
    bin_width = width / _PROPOSAL_BINS
    for i in range(k):
        r = rng.random(mc_samples)
        idx = _draw_bins(cum[i], r)
        frac = rng.random(mc_samples)
        lam[i] = lo[i] + bin_width[i] * (idx + frac)
        log_q += log_p[i, idx]
    log_jacobian = float(np.sum(np.log(width)))

    log_w = _log_vandermonde_sq(lam) - log_q

    log_total = logsumexp(log_w)
    ess = _ess(log_w)
    if ess < _MIN_ESS:
        raise PrecisionError(
            "importance weights collapsed",
            ess=ess,
            samples=mc_samples,
            log_weight_std=float(np.std(log_w)),
            k=k,
        )
    log_integral = log_total - math.log(mc_samples) + log_jacobian
    log_volume = log_flag_constant(k) + log_integral
    return log_volume / (k * k) + 0.5 * math.log(k)


# -- sum containment ---------------------------------------------------------------


@dataclass(frozen=True)
class ContainmentResult:
    """Pass fraction of pair-filtered sums against the convolution targets.

    ``kept`` counts the pairs surviving the freeness filter; when none do the
    estimate is inconclusive and the fraction is NaN.
    """

    passes: int
    kept: int
    trials: int
    fraction: float
    ci_low: float
    ci_high: float
    inconclusive: bool


def check_sum_containment(
    h1: StepFunctionSpec,
    h2: StepFunctionSpec,
    k: int,
    max_len: int,
    eps: float,
    trials: int,
    seed: int,
    filter_max_len: int,
    filter_eps: float,
) -> ContainmentResult:
    """How often a freeness-filtered pair sums into the convolution targets.

    Pairs are drawn as in ``theta_fraction``: a diagonal slot draw of h1 and
    a slot draw of h2 under one Haar basis, whose sum has the spectrum law of
    the sum of two independently rotated slot draws (see ``_pair_trials``).
    Those passing the freeness filter have their sum tested against the
    moments of the free convolution of the two push-forward laws (computed
    exactly through cumulant additivity), with norm bound 2R.  A trial
    solves no eigenvalue problem: each summand carries a norm bound from its
    slot draw, exact for the diagonal one and certified for the other, and
    the sum carries their total; ``membership_report`` solves a spectrum
    only for a matrix whose bound is missing or exceeds its target's.  The
    freeness filter keeps a pair whose word traces up to length
    filter_max_len lie within filter_eps of their free values.
    """
    bound = max(h1.sup_abs, h2.sup_abs)
    pairs = _pair_trials(h1, h2, k, filter_max_len, filter_eps, trials, seed)
    kappa = [
        a + b
        for a, b in zip(
            cumulants_from_moments(h1.moments(max_len)),
            cumulants_from_moments(h2.moments(max_len)),
        )
    ]
    sum_target = GammaTarget.single(moments_from_cumulants(kappa), eps, 2.0 * bound)
    passes = 0
    kept = 0
    for a1, a2, paired in pairs:
        if paired:
            kept += 1
            passes += int(membership_report((a1 + a2,), sum_target)["member"])
    lo, hi = wilson_interval(passes, kept) if kept else (0.0, 1.0)
    return ContainmentResult(
        passes=passes,
        kept=kept,
        trials=trials,
        fraction=passes / kept if kept else float("nan"),
        ci_low=lo,
        ci_high=hi,
        inconclusive=kept == 0,
    )
