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
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .cumulants import cumulants_from_moments, moments_from_cumulants, pair_moment_targets
from .errors import ParameterError, PrecisionError, StepFunctionError
from .freeentropy import CHI_SHIFT
from .measure import Measure
from .stats import stream_seed, wilson_interval

_HERMITIAN_TOL = 1e-12
_SLOT_LANDING_TOL = 1e-9
_NORM_SLACK = 1e-9
_UNITARY_TOL = 1e-10
_MIN_ESS = 100.0
_PROPOSAL_BINS = 128
# fraction of proposal mass spread uniformly over bins so no region of a
# slot box gets probability zero under the tilted proposal
_PROPOSAL_FLOOR = 0.05

_GAUSS8_NODES, _GAUSS8_WEIGHTS = np.polynomial.legendre.leggauss(8)

_PROVENANCE_KINDS = ("omega_sample", "haar_conjugate", "sum")


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
            raise StepFunctionError("need matching node/value tables with >= 2 entries")
        if not all(math.isfinite(t) for t in nodes + values):
            raise StepFunctionError("table entries must be finite")
        if abs(nodes[0]) > 0.0 or abs(nodes[-1] - 1.0) > 0.0:
            raise StepFunctionError("nodes must start at 0 and end at 1")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise StepFunctionError("nodes must be strictly increasing")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise StepFunctionError("values must be strictly increasing")
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
            raise StepFunctionError("quantile table is not strictly increasing")
        return cls(tuple(ts), tuple(hs))

    def __call__(self, t):
        return np.interp(t, self.nodes, self.values)

    def affine(self, a: float, b: float) -> "StepFunctionSpec":
        """Profile a*h + b; ``a`` must be positive to preserve monotonicity."""
        if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0:
            raise ParameterError("need finite a > 0 and finite b")
        return StepFunctionSpec(self.nodes, tuple(a * v + b for v in self.values))

    @property
    def sup_abs(self) -> float:
        """sup |h|; attained at a node because h is piecewise linear."""
        return max(abs(self.values[0]), abs(self.values[-1]))

    def table_id(self) -> str:
        raw = np.asarray(self.nodes + self.values, dtype=float).tobytes()
        return hashlib.sha1(raw).hexdigest()[:8]

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
            raise StepFunctionError(f"empty eigenvalue slot at resolution 1/{2 * k}")
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
    """Self-adjoint k x k matrix with a provenance tag.

    Provenance is one of ``omega_sample:<table-id>``, ``haar_conjugate``,
    ``sum``; the tag records how the matrix was produced, not what it equals.
    The spectrum is computed once, when the matrix is built, and every
    reader shares that read-only array.
    """

    k: int
    entries: np.ndarray
    provenance: str
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)

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
        kind = self.provenance.split(":", 1)[0]
        if kind not in _PROVENANCE_KINDS:
            raise ParameterError(f"unknown provenance {self.provenance!r}")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        spectrum = np.linalg.eigvalsh(m)
        spectrum.flags.writeable = False
        object.__setattr__(self, "_spectrum", spectrum)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self._spectrum

    def normalized_trace(self) -> float:
        return float(np.trace(self.entries).real) / self.k

    def __add__(self, other: "MatrixMicrostate") -> "MatrixMicrostate":
        if not isinstance(other, MatrixMicrostate):
            return NotImplemented
        if other.k != self.k:
            raise ParameterError("matrix sizes differ")
        return MatrixMicrostate(self.k, self.entries + other.entries, "sum")


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


def _haar_from_rng(k: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0.0, d / np.where(np.abs(d) > 0.0, np.abs(d), 1.0), 1.0)
    u = q * phase
    gap = float(np.max(np.abs(u @ u.conj().T - np.eye(k))))
    if gap > _UNITARY_TOL:
        raise PrecisionError(
            "orthonormalization lost unitarity", diagnostics={"k": k, "gap": gap}
        )
    return u


def haar_unitary(k: int, seed: int) -> np.ndarray:
    """Haar-distributed k x k unitary.

    QR of a complex Ginibre matrix with the triangular factor's diagonal
    rotated to positive reals; without that correction QR alone is not Haar.
    """
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    return _haar_from_rng(k, np.random.default_rng(seed))


def _sample_omega(
    h: StepFunctionSpec, k: int, rng: np.random.Generator
) -> tuple[MatrixMicrostate, np.ndarray]:
    lo, hi = h.slots(k)
    lam = rng.uniform(lo, hi)
    u = _haar_from_rng(k, rng)
    m = (u * lam) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    state = MatrixMicrostate(k, m, f"omega_sample:{h.table_id()}")
    spectrum = state.spectrum()
    if np.any(spectrum < lo - _SLOT_LANDING_TOL) or np.any(spectrum > hi + _SLOT_LANDING_TOL):
        worst = float(np.max(np.maximum(lo - spectrum, spectrum - hi)))
        raise PrecisionError(
            "reconstructed spectrum left its slots",
            diagnostics={"k": k, "worst_escape": worst},
        )
    return state, lam


def sample_omega(h: StepFunctionSpec, k: int, seed: int) -> MatrixMicrostate:
    """Uniform slot spectrum conjugated by an independent Haar basis.

    Eigenvalue s+1 is uniform in [h(s/k), h((2s+1)/(2k))]; the slots are
    disjoint, so the draw is already sorted.  The reconstructed matrix's
    spectrum is re-checked against the slots to 1e-9.
    """
    if not isinstance(k, int) or k < 2:
        raise ParameterError(f"k must be an integer >= 2, got {k}")
    state, _ = _sample_omega(h, k, np.random.default_rng(seed))
    return state


# -- membership -----------------------------------------------------------------


def _word_traces(mats: list[np.ndarray], words) -> dict[tuple, float]:
    """Normalized traces of matrix words, reusing prefix products.

    Sorted tuples put every proper prefix before its extensions whenever the
    word set is prefix-closed, which target dictionaries always are.
    """
    k = mats[0].shape[0]
    cache: dict[tuple, np.ndarray] = {}
    out: dict[tuple, float] = {}
    for word in sorted(words):
        prefix = word[:-1]
        base = cache.get(prefix)
        if base is None:
            prod = mats[word[0]]
            for c in word[1:]:
                prod = prod @ mats[c]
        else:
            prod = base @ mats[word[-1]]
        cache[word] = prod
        out[word] = float(np.trace(prod).real) / k
    return out


def membership_report(states, target: GammaTarget) -> dict:
    """Moment-matching verdict with diagnostics.

    Returns member flag, the norm-violation flag, the worst word and its
    error.  ``member`` is true iff no norm exceeds the bound and every word
    trace of length <= max_len matches its target within eps.
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
    norms = [float(np.max(np.abs(s.spectrum()))) for s in states]
    report = {
        "member": False,
        "norm_violation": False,
        "norms": norms,
        "worst_word": None,
        "worst_error": 0.0,
    }
    if max(norms) > target.norm_bound + _NORM_SLACK:
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


def _pair_trials(h1, h2, k: int, target: GammaTarget, trials: int, seed: int):
    """Yield ((a1, lam1), (a2, lam2), member) for trials t = 0..trials-1.

    Trial t samples one matrix per profile, each with its slot draw, from the
    stream stream_seed(seed, t), and tests the pair against ``target``.
    """
    for t in range(trials):
        rng = np.random.default_rng(stream_seed(seed, t))
        first = _sample_omega(h1, k, rng)
        second = _sample_omega(h2, k, rng)
        yield first, second, bool(membership_report((first[0], second[0]), target)["member"])


def _log_vandermonde_sq(lam: np.ndarray) -> float:
    i, j = np.triu_indices(lam.size, 1)
    return float(2.0 * np.sum(np.log(lam[j] - lam[i])))


@dataclass(frozen=True)
class FractionEstimate:
    """Pass fraction of a pairwise trial with both sampling-law readings.

    ``fraction`` counts trials as drawn (slot-uniform law) and carries the
    Wilson interval; ``weighted_fraction`` reweights each trial by the
    squared Vandermonde of its slot draws, targeting the flat matrix law.
    """

    passes: int
    trials: int
    fraction: float
    ci_low: float
    ci_high: float
    weighted_fraction: float
    weight_ess: float


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

    Each trial draws one matrix per profile with its own Haar basis and tests
    the pair against the freeness targets of the two push-forward laws.
    Trial t draws from stream_seed(seed, t), so parallel and serial
    evaluation agree exactly and distinct seeds never share a trial stream.
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
    logw = np.empty(trials)
    member = np.zeros(trials, dtype=bool)
    for t, ((_, lam1), (_, lam2), ok) in enumerate(_pair_trials(h1, h2, k, target, trials, seed)):
        member[t] = ok
        logw[t] = _log_vandermonde_sq(lam1) + _log_vandermonde_sq(lam2)
    passes = int(np.count_nonzero(member))
    lo, hi = wilson_interval(passes, trials)
    log_total = logsumexp(logw)
    weighted = float(np.exp(logsumexp(logw[member]) - log_total)) if passes else 0.0
    ess = float(np.exp(2.0 * log_total - logsumexp(2.0 * logw)))
    return FractionEstimate(
        passes=passes,
        trials=trials,
        fraction=passes / trials,
        ci_low=lo,
        ci_high=hi,
        weighted_fraction=weighted,
        weight_ess=ess,
    )


# -- spectra of sums ---------------------------------------------------------------


def _empirical_measure(eigenvalues: np.ndarray, meta: dict) -> Measure:
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
        meta=meta,
    )


def sum_spectrum_experiment(alpha: Measure, beta: Measure, k: int, seed: int) -> Measure:
    """Empirical spectral measure of a sum of independently rotated matrices.

    Each summand is a diagonal of midpoint quantiles conjugated by its own
    Haar unitary; the eigenvalues of the sum come back as atoms of mass 1/k.
    """
    if not isinstance(k, int) or k < 32:
        raise ParameterError(f"k must be an integer >= 32, got {k}")
    rng = np.random.default_rng(seed)
    ps = (np.arange(k) + 0.5) / k
    qa = np.asarray(alpha.quantile(ps), dtype=float)
    qb = np.asarray(beta.quantile(ps), dtype=float)
    u = _haar_from_rng(k, rng)
    v = _haar_from_rng(k, rng)
    a = (u * qa) @ u.conj().T
    b = (v * qb) @ v.conj().T
    s = a + b
    s = 0.5 * (s + s.conj().T)
    eig = np.linalg.eigvalsh(s)
    if not np.all(np.isfinite(eig)):
        raise PrecisionError("eigensolver returned non-finite spectrum")
    return _empirical_measure(eig, meta={"k": k, "seed": seed})


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
    i, j = np.triu_indices(k, 1)
    gaps = np.abs(lam[i] - lam[j])
    if float(np.min(gaps)) <= 1e-14:
        return float("-inf")
    return float(2.0 / (k * k) * np.sum(np.log(gaps))) + CHI_SHIFT


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


def estimate_log_volume_omega(
    h: StepFunctionSpec, k: int, mc_samples: int, seed: int
) -> float:
    """Normalized log-volume of a slot set: k^{-2} log volume + log(k)/2.

    The volume factors into the basis constant ``log_flag_constant`` times
    the squared-Vandermonde integral over the slot box.  The integral is
    estimated in log space by importance sampling from a per-coordinate
    tilted proposal, with a log-sum-exp reduction; as k grows the value
    approaches the log-energy entropy of the profile's push-forward law.
    """
    if not isinstance(k, int) or not 2 <= k <= 64:
        raise ParameterError(f"k must be an integer in 2..64, got {k}")
    if mc_samples < 10_000:
        raise ParameterError(f"mc_samples must be >= 10^4, got {mc_samples}")
    lo, hi = h.slots(k)
    width = hi - lo
    scale = h.values[-1] - h.values[0]
    p, cum = _box_proposal(lo, hi, scale)
    rng = np.random.default_rng(seed)

    lam = np.empty((mc_samples, k))
    log_q = np.zeros(mc_samples)
    bin_width = width / _PROPOSAL_BINS
    for i in range(k):
        r = rng.random(mc_samples)
        idx = np.minimum(np.searchsorted(cum[i], r, side="right"), _PROPOSAL_BINS - 1)
        frac = rng.random(mc_samples)
        lam[:, i] = lo[i] + bin_width[i] * (idx + frac)
        log_q += np.log(p[i, idx]) + math.log(_PROPOSAL_BINS)
    # log q above is a density in unit box coordinates; the width Jacobian
    # converts both it and the integral to eigenvalue coordinates
    log_jacobian = float(np.sum(np.log(width)))

    i_idx, j_idx = np.triu_indices(k, 1)
    log_w = np.empty(mc_samples)
    chunk = max(1, (1 << 22) // max(1, i_idx.size))
    for start in range(0, mc_samples, chunk):
        block = lam[start : start + chunk]
        gaps = block[:, j_idx] - block[:, i_idx]
        log_w[start : start + chunk] = 2.0 * np.sum(np.log(gaps), axis=1)
    log_w -= log_q

    log_total = float(logsumexp(log_w))
    ess = float(np.exp(2.0 * log_total - logsumexp(2.0 * log_w)))
    if ess < _MIN_ESS:
        raise PrecisionError(
            "importance weights collapsed",
            diagnostics={
                "ess": ess,
                "samples": mc_samples,
                "log_weight_std": float(np.std(log_w)),
                "k": k,
            },
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
    filter_max_len: int
    filter_eps: float
    inconclusive: bool


def check_sum_containment(
    h1: StepFunctionSpec,
    h2: StepFunctionSpec,
    k: int,
    max_len: int,
    eps: float,
    trials: int,
    seed: int,
    filter_max_len: int | None = None,
    filter_eps: float | None = None,
) -> ContainmentResult:
    """How often a freeness-filtered pair sums into the convolution targets.

    Pairs are drawn as in ``theta_fraction``; those passing the freeness
    filter have their sum tested against the moments of the free convolution
    of the two push-forward laws (computed exactly through cumulant
    additivity), with norm bound 2R.  The filter defaults come from the crude
    word-splitting bound (length 2*max_len, tolerance eps/(4 (2R)^max_len)),
    which at practical k keeps almost nothing; pass explicit filter
    parameters for a usable estimate.
    """
    if trials < 100:
        raise ParameterError(f"trials must be >= 100, got {trials}")
    bound = max(h1.sup_abs, h2.sup_abs)
    if filter_max_len is None:
        filter_max_len = 2 * max_len
    if filter_eps is None:
        filter_eps = eps / (4.0 * (2.0 * bound) ** max_len)
    pair_target = GammaTarget.free_pair(
        h1.moments(filter_max_len),
        h2.moments(filter_max_len),
        filter_max_len,
        filter_eps,
        bound,
    )
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
    for (a1, _), (a2, _), paired in _pair_trials(h1, h2, k, pair_target, trials, seed):
        if not paired:
            continue
        kept += 1
        passes += int(membership_report((a1 + a2,), sum_target)["member"])
    if kept == 0:
        return ContainmentResult(
            passes=0,
            kept=0,
            trials=trials,
            fraction=float("nan"),
            ci_low=0.0,
            ci_high=1.0,
            filter_max_len=filter_max_len,
            filter_eps=filter_eps,
            inconclusive=True,
        )
    lo, hi = wilson_interval(passes, kept)
    return ContainmentResult(
        passes=passes,
        kept=kept,
        trials=trials,
        fraction=passes / kept,
        ci_low=lo,
        ci_high=hi,
        filter_max_len=filter_max_len,
        filter_eps=filter_eps,
        inconclusive=False,
    )
