"""Restricted Minkowski sums in R^n: volumes, caps, and inequality checks.

Every body is stored in one form: an ellipsoid or a box, given by its axes
and centre, or an intersection of such bodies.  Balls are equal-axis
ellipsoids and dilates scale the axes and centre, so both keep their
constructors but need no code of their own.  Pair constraints (Theta)
restrict which x + y contribute to the sumset.  Exact volumes use closed
forms; everything else is seeded hit-or-miss Monte Carlo plus an occupancy
grid for sumset volumes.  The occupancy estimate counts every marked cell
at full volume, so it can err either way: missed boundary cells bias it
low, partly covered ones bias it high (balls of radius 1 and 0.8 in R^6
with 10^6 pairs read 251.1 against an exact 175.8).  A nonnegative deficit
is therefore not conservative evidence for the superadditivity
inequalities checked here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSampleError, ParameterError
from .stats import Z99, hash_unit, stream_seed, three_way_verdict, wilson_interval

__all__ = [
    "CheckReport",
    "MonteCarloConfig",
    "SetSpec",
    "ThetaSpec",
    "VolumeEstimate",
    "ball_example_exact",
    "bll_symmetrization_check",
    "cap_fraction",
    "check_corollary15",
    "check_lemma13",
    "check_remark16",
    "check_theorem12",
    "first_integral_fraction_at_extremal_r0",
    "fubini_lower_bound",
    "register_theta_predicate",
    "restricted_sum_volume",
    "volume",
]

_MAX_EXACT_DIM = 64
_MAX_MC_DIM = 10
_MAX_THETA_DIM = 12
_MAX_SUM_DIM = 6
_MAX_PROPOSALS = 500_000_000
# every Monte Carlo budget is split over this many seeded streams
_STREAMS = 4
# pairings of each sampled batch when marking the sumset occupancy grid
_PAIRING_ROUNDS = 8
# pairs drawn at a time by each stream of the pair samplers
_CHUNK = 500_000


# ---------------------------------------------------------------------------
# set and pair-constraint specifications


@dataclass(frozen=True)
class SetSpec:
    """A body in R^n: an ellipsoid, a box, or an intersection of bodies.

    An ellipsoid or box stores its axes (semi-axes or half-widths) and its
    centre c; with d = (x - c) / axes it holds the x with |d| <= 1 or
    max |d_i| <= 1.  A ball is the ellipsoid with equal axes, and a dilate
    is the body with its axes and centre multiplied.  An intersection stores
    only its parts.
    """

    kind: str
    dim: int
    axes: tuple | None = None
    center: tuple | None = None
    parts: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dimension must be >= 1")
        if self.kind == "intersection":
            if not self.parts:
                raise ParameterError("intersection needs at least one part")
            if any(p.dim != self.dim for p in self.parts):
                raise ParameterError("intersection parts must share the dimension")
            return
        if self.kind not in ("ellipsoid", "box"):
            raise ParameterError(f"unknown set kind {self.kind!r}")
        if self.axes is None or len(self.axes) != self.dim:
            raise ParameterError(f"{self.kind} needs one axis per dimension")
        if not all(0.0 < a < math.inf for a in self.axes):
            raise ParameterError("radius, semi-axes or half-widths must be positive and finite")
        if self.center is None or len(self.center) != self.dim:
            raise ParameterError("center must have one coordinate per axis")
        if not all(math.isfinite(c) for c in self.center):
            raise ParameterError("center coordinates must be finite")

    # constructors

    @classmethod
    def ball(cls, radius: float, dim: int, center=None) -> "SetSpec":
        return cls.ellipsoid([radius] * dim, center)

    @classmethod
    def box(cls, half_widths, center=None) -> "SetSpec":
        return cls._axial("box", half_widths, center)

    @classmethod
    def ellipsoid(cls, semi_axes, center=None) -> "SetSpec":
        return cls._axial("ellipsoid", semi_axes, center)

    @classmethod
    def _axial(cls, kind: str, axes, center) -> "SetSpec":
        axes = tuple(float(a) for a in axes)
        center = (0.0,) * len(axes) if center is None else tuple(float(c) for c in center)
        return cls(kind=kind, dim=len(axes), axes=axes, center=center)

    @classmethod
    def intersection(cls, *parts) -> "SetSpec":
        parts = tuple(parts)
        return cls(kind="intersection", dim=parts[0].dim if parts else 0, parts=parts)

    @classmethod
    def scaled(cls, base: "SetSpec", factor: float) -> "SetSpec":
        """The dilate factor * base: axes and centre scale, parts scale one by one."""
        f = float(factor)
        if not 0.0 < f < math.inf:
            raise ParameterError("scale factor must be positive and finite")
        if base.kind == "intersection":
            return cls.intersection(*(cls.scaled(p, f) for p in base.parts))
        return cls._axial(base.kind, [f * a for a in base.axes], [f * c for c in base.center])

    # geometry

    def contains(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "intersection":
            out = np.ones(x.shape[0], dtype=bool)
            for part in self.parts:
                out &= part.contains(x)
            return out
        d = (x - np.asarray(self.center)) / np.asarray(self.axes)
        if self.kind == "box":
            return np.all(np.abs(d) <= 1.0, axis=1)
        return np.einsum("ij,ij->i", d, d) <= 1.0

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "intersection":
            los, his = zip(*(p.bounding_box() for p in self.parts))
            return np.max(los, axis=0), np.min(his, axis=0)
        c, ax = np.asarray(self.center), np.asarray(self.axes)
        return c - ax, c + ax

    def exact_volume(self) -> float | None:
        """Closed-form volume, or None when only Monte Carlo applies."""
        if self.kind == "intersection":
            return None
        unit = unit_ball_volume(self.dim) if self.kind == "ellipsoid" else 2.0**self.dim
        return unit * float(np.prod(self.axes))

    def origin_symmetric(self) -> bool:
        """True when the set is provably invariant under x -> -x."""
        if self.kind == "intersection":
            return all(p.origin_symmetric() for p in self.parts)
        return not any(self.center)


def unit_ball_volume(n: int) -> float:
    # V_n = V_{n-2} 2 pi / n from V_0 = 1, V_1 = 2: exact up to one rounding per step
    v = 2.0 if n % 2 else 1.0
    for k in range(2 + n % 2, n + 1, 2):
        v *= 2.0 * math.pi / k
    return v


_THETA_PREDICATES: dict = {}


def register_theta_predicate(name: str, fn) -> None:
    """Register a deterministic pair predicate usable as ThetaSpec.custom."""
    _THETA_PREDICATES[name] = fn


@dataclass(frozen=True)
class ThetaSpec:
    """Constraint on pairs (x, y) defining the restricted sum."""

    kind: str
    c: float | None = None
    bound: float | None = None
    density: float | None = None
    predicate: str | None = None

    def __post_init__(self):
        if self.kind == "full":
            pass
        elif self.kind == "inner_product_leq":
            if self.c is None or not math.isfinite(self.c):
                raise ParameterError("inner_product_leq needs a finite threshold")
        elif self.kind == "sum_norm_leq":
            if self.bound is None or not 0 < self.bound < math.inf:
                raise ParameterError("sum_norm_leq needs a positive finite bound")
        elif self.kind == "complement_fraction":
            if self.density is None or not 0.0 <= self.density < 1.0:
                raise ParameterError("complement density must lie in [0, 1)")
        elif self.kind == "custom":
            if not self.predicate:
                raise ParameterError("custom theta needs a predicate id")
        else:
            raise ParameterError(f"unknown theta kind {self.kind!r}")

    @classmethod
    def full(cls) -> "ThetaSpec":
        return cls(kind="full")

    @classmethod
    def inner_product_leq(cls, c: float) -> "ThetaSpec":
        return cls(kind="inner_product_leq", c=float(c))

    @classmethod
    def sum_norm_leq(cls, bound: float) -> "ThetaSpec":
        return cls(kind="sum_norm_leq", bound=float(bound))

    @classmethod
    def complement_fraction(cls, density: float) -> "ThetaSpec":
        return cls(kind="complement_fraction", density=float(density))

    @classmethod
    def custom(cls, predicate: str) -> "ThetaSpec":
        return cls(kind="custom", predicate=predicate)

    def indicator(self, x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
        if self.kind == "full":
            return np.ones(x.shape[0], dtype=bool)
        if self.kind == "inner_product_leq":
            return np.einsum("ij,ij->i", x, y) <= self.c
        if self.kind == "sum_norm_leq":
            s = x + y
            return np.einsum("ij,ij->i", s, s) <= self.bound * self.bound
        if self.kind == "complement_fraction":
            cols = [x[:, j] for j in range(x.shape[1])]
            cols += [y[:, j] for j in range(y.shape[1])]
            return hash_unit(seed, cols) >= self.density
        fn = _THETA_PREDICATES.get(self.predicate)
        if fn is None:
            raise ParameterError(f"no theta predicate registered as {self.predicate!r}")
        return np.asarray(fn(x, y), dtype=bool)

    def known_fraction(self) -> float | None:
        """Pair-measure fraction fixed by construction, when available."""
        if self.kind == "full":
            return 1.0
        if self.kind == "complement_fraction":
            # the keep/drop hash is uniform on [0, 1) by construction
            return 1.0 - self.density
        return None


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    stderr: float
    samples: int
    method: str

    def __post_init__(self):
        if self.value < 0 or self.stderr < 0:
            raise ParameterError("volume and stderr must be nonnegative")
        if self.method == "exact" and self.stderr != 0:
            raise ParameterError("exact volumes carry zero stderr")
        if self.method not in ("exact", "mc_hit_or_miss", "occupancy_grid"):
            raise ParameterError(f"unknown method {self.method!r}")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "samples": self.samples,
            "method": self.method,
        }


@dataclass(frozen=True)
class CheckReport:
    lhs: float
    rhs: float
    deficit: float
    ci_halfwidth: float
    verdict: str
    context: dict = field(compare=False, default_factory=dict)

    def __post_init__(self):
        if self.verdict not in ("holds", "violated", "inconclusive"):
            raise ParameterError(f"unknown verdict {self.verdict!r}")
        if self.ci_halfwidth < 0:
            raise ParameterError("ci_halfwidth must be nonnegative")

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "ci_halfwidth": self.ci_halfwidth,
            "verdict": self.verdict,
            "context": self.context,
        }


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling budget and constants.

    Results depend on the seed but never on threads, which only schedule
    the jobs of the fixed number of seeded streams.
    """

    pair_samples: int = 200_000
    grid_cells_per_axis: int | None = None
    seed: int = 0
    threads: int = 1
    c: float = 0.01
    C: float = 3.0

    def __post_init__(self):
        if self.pair_samples < 1000:
            raise ParameterError("pair_samples must be >= 1000")
        if self.grid_cells_per_axis is not None and self.grid_cells_per_axis < 2:
            raise ParameterError("grid_cells_per_axis must be >= 2")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")
        if not 0 < self.c < 1:
            raise ParameterError("gate constant c must lie in (0, 1)")
        if not 0 < self.C < math.inf:
            raise ParameterError("constant C must be positive and finite")


# ---------------------------------------------------------------------------
# sampling primitives


def _sample_in_set(spec: SetSpec, count: int, rng) -> tuple[np.ndarray, int]:
    """count uniform points of spec and the number of proposals drawn for them.

    A box is drawn coordinate-wise and an ellipsoid as the unit-ball draw
    U^(1/n) g/|g| with a Gaussian direction g (Muller 1959), times its axes,
    plus its centre.  These exact draws take one proposal per point.  An
    intersection rejects from its bounding box, sizing each batch from the
    acceptance seen so far.
    """
    n = spec.dim
    if spec.kind == "box":
        lo, hi = spec.bounding_box()
        return rng.uniform(lo, hi, size=(count, n)), count
    if spec.kind == "ellipsoid":
        pts = rng.standard_normal((count, n))
        scale = rng.random(count) ** (1.0 / n)
        scale /= np.sqrt(np.einsum("ij,ij->i", pts, pts))
        pts *= scale[:, None]
        pts *= spec.axes
        pts += spec.center
        return pts, count

    lo, hi = spec.bounding_box()
    if np.any(hi <= lo):
        raise DegenerateSampleError("empty bounding box")
    out = np.empty((count, n))
    filled = 0
    proposals = 0
    batch = count
    while filled < count:
        batch = min(2_000_000, batch)
        cand = rng.uniform(lo, hi, size=(batch, n))
        proposals += batch
        good = cand[spec.contains(cand)]
        take = min(len(good), count - filled)
        out[filled : filled + take] = good[:take]
        filled += take
        if proposals > _MAX_PROPOSALS:
            raise DegenerateSampleError(
                f"rejection acceptance too low after {proposals} proposals"
            )
        # size the next batch by the acceptance seen so far, with 10% to spare
        batch = max(1024, math.ceil(1.1 * (count - filled) * proposals / max(filled, 1)))
    return out, proposals


def _split_budget(total: int, streams: int) -> list[int]:
    base, rem = divmod(total, streams)
    return [base + (1 if i < rem else 0) for i in range(streams)]


def _run_streams(cfg: MonteCarloConfig, job) -> list:
    """Run job(stream_index, samples, rng) per stream, fixed reduction order."""
    budgets = _split_budget(cfg.pair_samples, _STREAMS)
    args = [
        (i, budgets[i], np.random.default_rng(stream_seed(cfg.seed, i)))
        for i in range(_STREAMS)
    ]
    if cfg.threads == 1:
        return [job(*a) for a in args]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(lambda a: job(*a), args))


def volume(spec: SetSpec, cfg: MonteCarloConfig | None = None) -> VolumeEstimate:
    """Exact volume where a formula exists, hit-or-miss MC otherwise."""
    exact = spec.exact_volume()
    if exact is not None:
        if spec.dim > _MAX_EXACT_DIM:
            raise ParameterError(f"exact volumes limited to n <= {_MAX_EXACT_DIM}")
        return VolumeEstimate(value=exact, stderr=0.0, samples=0, method="exact")
    if spec.dim > _MAX_MC_DIM:
        raise ParameterError(f"Monte Carlo volumes limited to n <= {_MAX_MC_DIM}")
    cfg = cfg or MonteCarloConfig()
    lo, hi = spec.bounding_box()
    box_vol = float(np.prod(hi - lo))
    if box_vol <= 0:
        return VolumeEstimate(value=0.0, stderr=0.0, samples=cfg.pair_samples,
                              method="mc_hit_or_miss")

    def job(_i, m, rng):
        pts = rng.uniform(lo, hi, size=(m, spec.dim))
        return int(np.count_nonzero(spec.contains(pts)))

    hits = sum(_run_streams(cfg, job))
    m = cfg.pair_samples
    if hits == 0:
        raise DegenerateSampleError("no hits when sampling the set")
    p = hits / m
    return VolumeEstimate(
        value=box_vol * p,
        stderr=box_vol * math.sqrt(p * (1.0 - p) / m),
        samples=m,
        method="mc_hit_or_miss",
    )


# ---------------------------------------------------------------------------
# restricted sums


def _adaptive_cells(samples: int, n: int) -> int:
    return int(np.clip(round((samples / 4.0) ** (1.0 / n)), 8, 512))


def _face_rim(grid: np.ndarray) -> np.ndarray:
    """Unmarked cells of a boolean grid that share a face with a marked cell."""
    grown = grid.copy()
    for axis in range(grid.ndim):
        src, dst = np.moveaxis(grid, axis, 0), np.moveaxis(grown, axis, 0)  # views
        dst[1:] |= src[:-1]
        dst[:-1] |= src[1:]
    return grown & ~grid


class _OccupancyGrid:
    """Hit counts of one stream's sums on cells**n equal cells spanning [lo, hi].

    counts is the C-order ravel of the grid.  mark() reuses scratch index
    buffers of up to ``batch`` rows, so marking allocates nothing per call
    beyond the kept flat indices when a keep mask is given.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, cells: int, batch: int):
        n = len(lo)
        self.lo = lo
        self.widths = (hi - lo) / cells
        self.top = cells - 1
        self.strides = cells ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.counts = np.zeros(cells**n, dtype=np.int64)
        self._idx = np.empty((batch, n), dtype=np.int64)
        self._flat = np.empty(batch, dtype=np.int64)

    def mark(self, s: np.ndarray, keep: np.ndarray | None = None) -> None:
        """Count each row of s, or each row where keep is true; overwrites s.

        Rows outside [lo, hi] count in the nearest boundary cell.
        """
        idx, flat = self._idx[: len(s)], self._flat[: len(s)]
        s -= self.lo
        s /= self.widths
        np.copyto(idx, s, casting="unsafe")  # truncates toward zero, as astype does
        np.clip(idx, 0, self.top, out=idx)
        np.matmul(idx, self.strides, out=flat)
        np.add.at(self.counts, flat if keep is None else flat[keep], 1)


def restricted_sum_volume(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None = None
) -> dict:
    """Volumes of A, B, the pair constraint and the restricted sumset.

    volume_a and volume_b are ``volume(A)`` and ``volume(B)`` under cfg.
    theta_volume is hit-or-miss over independent uniform pairs from A x B,
    drawn by ``_sample_in_set``; rejection_proposals counts the points it
    proposed for them (2 * pair_samples when A and B are drawn exactly).
    sum_volume counts occupancy-grid cells, spanning the sum of the
    bounding boxes, hit by sampled x + y with (x, y) admitted by theta;
    besides the independent pairs, each batch is reused through
    circular-shift repairings (still valid theta-filtered pairs) to cover
    the thin boundary shell where the sum density vanishes.  Every marked
    cell counts at full volume, and the stderr field carries an additive
    allowance (boundary rim plus an unseen-cell estimate) rather than a
    Gaussian standard error.
    """
    if A.dim != B.dim:
        raise ParameterError("A and B must share the dimension")
    n = A.dim
    if n > _MAX_THETA_DIM:
        raise ParameterError(f"pair sampling limited to n <= {_MAX_THETA_DIM}")
    if n > _MAX_SUM_DIM:
        raise ParameterError(f"sumset estimation limited to n <= {_MAX_SUM_DIM}")
    cfg = cfg or MonteCarloConfig()

    vol_a = volume(A, cfg)
    vol_b = volume(B, cfg)
    lo_a, hi_a = A.bounding_box()
    lo_b, hi_b = B.bounding_box()
    lo_s, hi_s = lo_a + lo_b, hi_a + hi_b
    cells = cfg.grid_cells_per_axis or _adaptive_cells(cfg.pair_samples, n)
    if cells**n > 2**23:
        raise ParameterError("occupancy grid too large; lower grid_cells_per_axis")
    cell_vol = float(np.prod((hi_s - lo_s) / cells))
    full = theta.kind == "full"

    def job(_i, m, rng):
        hits = 0
        proposals = 0
        size = min(m, _CHUNK)
        grid = _OccupancyGrid(lo_s, hi_s, cells, size)
        s = np.empty((size, n))
        yr = None if full else np.empty((size, n))
        done = 0
        while done < m:
            chunk = min(m - done, _CHUNK)
            x, px = _sample_in_set(A, chunk, rng)
            y, py = _sample_in_set(B, chunk, rng)
            proposals += px + py
            for r in range(_PAIRING_ROUNDS):
                # pair x[i] with y[i - k]: round 0 holds the independent pairs,
                # later rounds circular shifts of the same batch
                k = r * chunk // _PAIRING_ROUNDS
                np.add(x[:k], y[chunk - k :], out=s[:k])
                np.add(x[k:], y[: chunk - k], out=s[k:chunk])
                keep = None
                if not full:
                    yr[:k] = y[chunk - k :]
                    yr[k:chunk] = y[: chunk - k]
                    keep = theta.indicator(x, yr[:chunk], cfg.seed)
                if r == 0:
                    hits += chunk if full else int(np.count_nonzero(keep))
                grid.mark(s[:chunk], keep)
            done += chunk
        return hits, grid.counts, proposals

    results = _run_streams(cfg, job)
    m = cfg.pair_samples
    hits = sum(r[0] for r in results)
    counts = results[0][1]
    for r in results[1:]:
        counts += r[1]
    proposals = sum(r[2] for r in results)
    if hits == 0:
        raise DegenerateSampleError("pair constraint admitted no sampled pairs")

    p = hits / m
    pair_vol = vol_a.value * vol_b.value
    stderr_p = math.sqrt(p * (1.0 - p) / m)
    # propagate MC volume uncertainty when A or B has no closed form
    theta_stderr = pair_vol * stderr_p
    theta_stderr = math.hypot(theta_stderr, p * vol_b.value * vol_a.stderr)
    theta_stderr = math.hypot(theta_stderr, p * vol_a.value * vol_b.stderr)
    theta_vol = VolumeEstimate(
        value=pair_vol * p, stderr=theta_stderr, samples=m, method="mc_hit_or_miss"
    )

    marked = counts > 0
    n_marked = int(np.count_nonzero(marked))
    value = n_marked * cell_vol
    # rim allowance: unmarked cells sharing a face with a marked cell
    rim_vol = int(np.count_nonzero(_face_rim(marked.reshape((cells,) * n)))) * cell_vol
    # Chao-style unseen-cell estimate from singleton/doubleton counts, with
    # a safety factor since boundary cells have vanishing hit intensity
    f1 = int(np.count_nonzero(counts == 1))
    f2 = int(np.count_nonzero(counts == 2))
    unseen = f1 * f1 / (2.0 * f2) if f2 > 0 else 0.5 * f1 * (f1 - 1)
    coverage_vol = 2.5 * unseen * cell_vol
    sum_vol = VolumeEstimate(
        value=value,
        stderr=rim_vol + coverage_vol,
        samples=hits,
        method="occupancy_grid",
    )
    return {
        "volume_a": vol_a,
        "volume_b": vol_b,
        "theta_volume": theta_vol,
        "sum_volume": sum_vol,
        "theta_hits": hits,
        "pair_samples": m,
        "grid_cells_per_axis": cells,
        "rejection_proposals": proposals,
    }


# ---------------------------------------------------------------------------
# cap geometry (spherical caps of the ball example)


def _log_beta_ratio(p: float, x: float) -> float:
    """log I_x(p, p), the regularized incomplete beta ratio, for x <= 1/2 (-inf at x <= 0).

    Sums I_x(p, p) = x^p (1-x)^p / (p B(p, p)) * 2F1(2p, 1; p+1; x) (DLMF 8.17.8),
    whose terms are positive and decreasing for x <= 1/2: O(sqrt(p)) of them.  The
    prefactor (4x(1-x))^p Gamma(p+1/2) / (2 sqrt(pi) p Gamma(p)) is formed in logs,
    with an expansion at large p, where differences of lgamma values lose digits.
    """
    if x <= 0.0:
        return -math.inf
    total, term, k = 1.0, 1.0, 0
    while term > 1e-17 * total:
        term *= (2.0 * p + k) * x / (p + 1.0 + k)
        total += term
        k += 1
    if x < 0.25:
        log_base = math.log(4.0 * x) + math.log1p(-x)
    else:
        v = 1.0 - 2.0 * x  # exact for x in [1/4, 1/2]
        log_base = math.log1p(-v * v)
    if p < 30.0:
        log_ratio = math.lgamma(p + 0.5) - math.lgamma(p) - 0.5 * math.log(p)
    else:
        # Bernoulli-polynomial expansion in 1/p^2; the first omitted term is < 1e-16 at p >= 30
        u = 1.0 / (p * p)
        log_ratio = (((17.0 / 14336.0 * u - 1.0 / 640.0) * u + 1.0 / 192.0) * u - 1.0 / 8.0) / p
    return p * log_base + log_ratio - 0.5 * math.log(4.0 * math.pi * p) + math.log(total)


def cap_fraction(n: int, rho: float, r0: float, detail: bool = False):
    """Fraction of the small ball rho*B^n reachable within the big ball.

    For |x0| = r0, returns lambda({y : |y| <= rho, |x0 + y| <= sqrt(1+rho^2)})
    normalized by lambda(rho B^n).  Computed from two incomplete beta ratios
    I_x((n+1)/2, (n+1)/2): the part of the small ball below the cap plane,
    plus the lens against the big sphere.
    """
    if n < 2:
        raise ParameterError("cap geometry needs n >= 2")
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0, 1]")
    if not 0.0 < r0 <= 1.0:
        raise ParameterError("r0 must lie in (0, 1]")
    big_r = math.sqrt(1.0 + rho * rho)
    info = {"n": n, "rho": rho, "r0": r0, "containment": False}
    if r0 <= big_r - rho:
        # the shifted small ball sits entirely inside the big ball
        info["containment"] = True
        if detail:
            info.update(fraction=1.0)
            return 1.0, info
        return 1.0

    # r0 in (big_r - rho, 1] puts the plane offset s in [0, big_r - r0]
    s = (1.0 - r0 * r0) / (2.0 * r0)
    p = 0.5 * (n + 1)
    first = 1.0 - math.exp(_log_beta_ratio(p, 0.5 * (1.0 - s / rho)))
    # lens: substitute r0 + u = big_r * w on [s, t]
    w0 = (r0 + s) / big_r
    second = math.exp(_log_beta_ratio(p, 0.5 * (1.0 - w0)) + n * math.log(big_r / rho))
    fraction = min(first + second, 1.0)
    if detail:
        info.update(
            fraction=fraction,
            first_integral_fraction=first,
            second_integral_fraction=second,
            s=s,
            t=big_r - r0,
            w0=w0,
        )
        return fraction, info
    return fraction


def first_integral_fraction_at_extremal_r0(n: int, rho: float) -> float:
    """First-integral share of the cap at the r0 maximizing its deficit.

    The plane offset s equals rho/sqrt(n) at r0 = sqrt(q^2+1) - q with
    q = rho/sqrt(n), so the share tends to the normal tail value
    ndtr(1) ~ 0.8413 as n grows.
    """
    if n < 2:
        raise ParameterError("needs n >= 2")
    q = rho / math.sqrt(n)
    r0 = math.sqrt(q * q + 1.0) - q
    _, info = cap_fraction(n, rho, min(r0, 1.0), detail=True)
    if info.get("containment"):
        return 1.0
    return info["first_integral_fraction"]


def check_lemma13(n: int, rho: float, grid_r0: int = 33) -> dict:
    """Scan cap fractions near r0 = 1 for a positive uncovered share c1.

    With tau = min(rho sqrt(n), 1)/2, points at radius r0 in [1 - tau/n, 1]
    miss at least c1 of the small ball, which bounds the admissible pair
    fraction away from 1 and yields a positive constant c.
    """
    if n < 2:
        raise ParameterError("needs n >= 2")
    if grid_r0 < 2:
        raise ParameterError("grid_r0 must be >= 2")
    tau = 0.5 * min(rho * math.sqrt(n), 1.0)
    r0s = np.linspace(1.0 - tau / n, 1.0, grid_r0)
    c1 = min(1.0 - cap_fraction(n, rho, float(r)) for r in r0s)
    shell = (1.0 - tau / n) ** n
    bound = 1.0 - shell * c1
    implied_c = shell * c1 / min(rho * math.sqrt(n), 1.0)
    deficit = shell * c1
    report = CheckReport(
        lhs=1.0,
        rhs=bound,
        deficit=deficit,
        ci_halfwidth=0.0,
        verdict="holds" if deficit > 0 else "inconclusive",
        context={
            "n": n,
            "rho": rho,
            "tau": tau,
            "grid_r0": grid_r0,
            "c1_estimate": c1,
            "implied_c": implied_c,
        },
    )
    return {"c1_estimate": c1, "report": report}


# ---------------------------------------------------------------------------
# gates and check reports


def _volume_ratio_rho(vol_a: float, vol_b: float, n: int) -> float:
    ratio = (vol_b / vol_a) ** (1.0 / n)
    return min(ratio, 1.0 / ratio)


def _origin_ball_radius(spec: SetSpec) -> float | None:
    """Radius of an origin-centred ball, an ellipsoid with equal axes, else None."""
    if spec.kind == "ellipsoid" and not any(spec.center) and len(set(spec.axes)) == 1:
        return spec.axes[0]
    return None


def _theta_fraction_quadrature(A: SetSpec, B: SetSpec, theta: ThetaSpec) -> float | None:
    """Exact pair fraction for sum-norm constraints on origin-centered balls."""
    if theta.kind != "sum_norm_leq":
        return None
    ra, rb = _origin_ball_radius(A), _origin_ball_radius(B)
    if ra is None or rb is None:
        return None
    if ra < rb:
        ra, rb = rb, ra
    rho = rb / ra
    if abs(theta.bound - ra * math.sqrt(1.0 + rho * rho)) > 1e-9 * ra:
        return None
    n = A.dim
    # average the cap fraction over the radial law of x in the big ball
    nodes, weights = np.polynomial.legendre.leggauss(64)
    tt = 0.5 * (nodes + 1.0)
    ww = 0.5 * weights
    vals = np.array([cap_fraction(n, rho, max(float(t), 1e-12)) for t in tt])
    return float(np.sum(ww * n * tt ** (n - 1) * vals))


def _known_pair_fraction(A: SetSpec, B: SetSpec, theta: ThetaSpec):
    """Pair fraction with a deterministic derivation, else None.

    complement_fraction and full are fixed by construction; a zero
    inner-product threshold on origin-symmetric sets keeps exactly half by
    the (x, y) -> (x, -y) symmetry; sum-norm constraints on origin balls
    with the equality-case radius reduce to the cap quadrature.
    """
    known = theta.known_fraction()
    if known is not None:
        return known, "by_construction"
    if (
        theta.kind == "inner_product_leq"
        and theta.c == 0.0
        and A.origin_symmetric()
        and B.origin_symmetric()
    ):
        return 0.5, "by_construction"
    quad_val = _theta_fraction_quadrature(A, B, theta)
    if quad_val is not None:
        return quad_val, "quadrature"
    return None, "mc"


def _pair_fraction(A: SetSpec, B: SetSpec, theta: ThetaSpec, rsv: dict):
    """(fraction, (lo, hi), source): a derived value, else the 99% Wilson CI."""
    known, source = _known_pair_fraction(A, B, theta)
    if known is not None:
        return known, (known, known), source
    lo, hi = wilson_interval(rsv["theta_hits"], rsv["pair_samples"])
    return rsv["theta_hits"] / rsv["pair_samples"], (float(lo), float(hi)), source


def _gate(fraction_needed: float, A: SetSpec, B: SetSpec, theta: ThetaSpec, rsv: dict) -> dict:
    """Decide the lambda(Theta) precondition; ties are never passes."""
    fraction, (lo, hi), source = _pair_fraction(A, B, theta, rsv)
    if source == "mc":
        passed = lo > fraction_needed
        tied = not passed and not hi < fraction_needed
    else:
        passed, tied = fraction >= fraction_needed, False
    return {
        "fraction": fraction,
        "ci": (lo, hi),
        "passed": passed,
        "tied": tied,
        "source": source,
        "threshold": fraction_needed,
    }


def _power_ci(vol: VolumeEstimate, n: int, z: float) -> float:
    """Halfwidth of vol.value ** (2/n) via the delta method."""
    if vol.value <= 0:
        return 0.0
    spread = vol.stderr if vol.method == "occupancy_grid" else z * vol.stderr
    return (2.0 / n) * vol.value ** (2.0 / n - 1.0) * spread


def _power_check(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None, rule, **extra
) -> CheckReport:
    """lambda(A +_Theta B)^(2/n) >= factor (lambda(A)^(2/n) + lambda(B)^(2/n)).

    rule(n, rho, cfg) gives one version's (gate threshold, rhs factor), with
    rho the symmetric volume-ratio root.  The input volumes are the ones the
    restricted-sum estimate computed; their Monte Carlo stderr enters the CI
    scaled like the rhs.  A failed or tied gate yields an inconclusive
    verdict; the measured volumes are still reported.
    """
    cfg = cfg or MonteCarloConfig()
    n = A.dim
    rsv = restricted_sum_volume(A, B, theta, cfg)
    vol_a, vol_b = rsv["volume_a"], rsv["volume_b"]
    rho = _volume_ratio_rho(vol_a.value, vol_b.value, n)
    threshold, factor = rule(n, rho, cfg)
    gate = _gate(threshold, A, B, theta, rsv)
    # a negative factor makes the bound vacuous, not negative
    scale = max(factor, 0.0)
    lhs = rsv["sum_volume"].value ** (2.0 / n)
    rhs = scale * (vol_a.value ** (2.0 / n) + vol_b.value ** (2.0 / n))
    ci = _power_ci(rsv["sum_volume"], n, Z99)
    ci += scale * Z99 * (2.0 / n) * (
        vol_a.value ** (2.0 / n - 1.0) * vol_a.stderr
        + vol_b.value ** (2.0 / n - 1.0) * vol_b.stderr
    )
    deficit = lhs - rhs
    verdict = three_way_verdict(deficit, ci) if gate["passed"] else "inconclusive"
    return CheckReport(
        lhs=lhs,
        rhs=rhs,
        deficit=deficit,
        ci_halfwidth=ci,
        verdict=verdict,
        context={
            "n": n,
            "rho": rho,
            "c": cfg.c,
            "C": cfg.C,
            "rhs_factor": factor,
            "gate": gate,
            "theta_volume": rsv["theta_volume"].to_json(),
            "sum_volume": rsv["sum_volume"].to_json(),
            "volume_a": vol_a.value,
            "volume_b": vol_b.value,
            "seed": cfg.seed,
            "pair_samples": cfg.pair_samples,
            "grid_cells_per_axis": rsv["grid_cells_per_axis"],
            "rejection_proposals": rsv["rejection_proposals"],
            **extra,
        },
    )


def check_theorem12(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None = None
) -> CheckReport:
    """Superadditivity of the 2/n-th volume power under a near-full Theta.

    Gate: lambda(Theta) >= (1 - c min(rho sqrt(n), 1)) lambda(A) lambda(B).
    """

    def rule(n, rho, cfg):
        return 1.0 - cfg.c * min(rho * math.sqrt(n), 1.0), 1.0

    return _power_check(A, B, theta, cfg, rule)


def check_corollary15(
    A: SetSpec,
    B: SetSpec,
    theta: ThetaSpec,
    delta: float,
    cfg: MonteCarloConfig | None = None,
) -> CheckReport:
    """Stability variant: Theta misses at most delta of the pair measure.

    rhs is scaled by (1 - C delta / n).  delta is accepted up to 1/2; the
    regime of interest is small delta.
    """
    if not 0.0 <= delta <= 0.5:
        raise ParameterError("delta must lie in [0, 0.5]")

    def rule(n, rho, cfg):
        return 1.0 - delta, 1.0 - cfg.C * delta / n

    return _power_check(A, B, theta, cfg, rule, delta=delta)


def check_remark16(
    A: SetSpec,
    B: SetSpec,
    theta: ThetaSpec,
    gamma: float,
    cfg: MonteCarloConfig | None = None,
) -> CheckReport:
    """Weak-gate variant: Theta keeps only a gamma fraction of pairs.

    Experimental: rhs is scaled by 1 - C rho sqrt(log(1 + 1/gamma)/n).
    """
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie in (0, 1)")

    def rule(n, rho, cfg):
        return gamma, 1.0 - cfg.C * rho * math.sqrt(math.log1p(1.0 / gamma) / n)

    return _power_check(A, B, theta, cfg, rule, gamma=gamma)


def fubini_lower_bound(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None = None
) -> CheckReport:
    """Slice bound: the restricted sum covers (1 - delta) of the larger body."""
    cfg = cfg or MonteCarloConfig()
    rsv = restricted_sum_volume(A, B, theta, cfg)
    vol_a = rsv["volume_a"]
    if vol_a.value < rsv["volume_b"].value:
        raise ParameterError("requires lambda(A) >= lambda(B)")
    fraction, (lo, hi), _source = _pair_fraction(A, B, theta, rsv)
    delta = 1.0 - fraction
    lhs = rsv["sum_volume"].value
    rhs = (1.0 - delta) * vol_a.value
    ci = rsv["sum_volume"].stderr + vol_a.value * (0.5 * (hi - lo)) + Z99 * vol_a.stderr
    deficit = lhs - rhs
    return CheckReport(
        lhs=lhs,
        rhs=rhs,
        deficit=deficit,
        ci_halfwidth=ci,
        verdict=three_way_verdict(deficit, ci),
        context={
            "n": A.dim,
            "delta": delta,
            "theta_fraction": fraction,
            "volume_a": vol_a.value,
            "seed": cfg.seed,
        },
    )


def bll_symmetrization_check(
    A: SetSpec, B: SetSpec, C: SetSpec, cfg: MonteCarloConfig | None = None
) -> CheckReport:
    """Pair mass landing in C never beats the ball-rearranged configuration.

    lhs samples lambda({(x, y) in A x B : x + y in C}); rhs repeats the
    measurement with every set replaced by the origin-centered ball of the
    same volume, using the same seed.
    """
    if A.dim != B.dim or A.dim != C.dim:
        raise ParameterError("all three sets must share the dimension")
    if A.dim > 4:
        raise ParameterError("symmetrization check limited to n <= 4")
    cfg = cfg or MonteCarloConfig()
    n = A.dim

    def pair_mass(a, b, c):
        va, vb = volume(a, cfg), volume(b, cfg)

        def job(_i, m, rng):
            hits = 0
            done = 0
            while done < m:
                chunk = min(m - done, _CHUNK)
                x, _ = _sample_in_set(a, chunk, rng)
                y, _ = _sample_in_set(b, chunk, rng)
                hits += int(np.count_nonzero(c.contains(x + y)))
                done += chunk
            return hits

        hits = sum(_run_streams(cfg, job))
        m = cfg.pair_samples
        p = hits / m
        val = p * va.value * vb.value
        err = va.value * vb.value * math.sqrt(max(p * (1 - p), 1e-12) / m)
        return val, err

    lhs, err_l = pair_mass(A, B, C)

    def ball_of_same_volume(spec):
        v = volume(spec, cfg).value
        return SetSpec.ball((v / unit_ball_volume(n)) ** (1.0 / n), n)

    rhs, err_r = pair_mass(
        ball_of_same_volume(A), ball_of_same_volume(B), ball_of_same_volume(C)
    )
    ci = Z99 * math.hypot(err_l, err_r)
    deficit = rhs - lhs  # inequality says lhs <= rhs
    return CheckReport(
        lhs=lhs,
        rhs=rhs,
        deficit=deficit,
        ci_halfwidth=ci,
        verdict=three_way_verdict(deficit, ci),
        context={"n": n, "seed": cfg.seed, "pair_samples": cfg.pair_samples},
    )


def ball_example_exact(rho: float, n: int) -> dict:
    """Closed-form equality case: half the pairs, sum a dilated ball.

    The orthogonal pair constraint keeps exactly half of lambda(A)lambda(B)
    and the restricted sum is sqrt(1 + rho^2) B^n, which makes the 2/n-th
    power identity exact.
    """
    if not 0.0 < rho < 1.0:
        raise ParameterError("rho must lie in (0, 1)")
    if n < 1:
        raise ParameterError("n must be >= 1")
    sum_radius = math.sqrt(1.0 + rho * rho)
    w = unit_ball_volume(n)
    gap = (
        (w * sum_radius**n) ** (2.0 / n)
        - w ** (2.0 / n)
        - (w * rho**n) ** (2.0 / n)
    )
    return {"theta_fraction": 0.5, "sum_radius": sum_radius, "equality_gap": gap}

