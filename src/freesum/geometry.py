"""Restricted Minkowski sums in R^n: volumes, caps, and inequality checks.

Sets are balls, boxes, ellipsoids, intersections and dilates; pair
constraints (Theta) restrict which x + y contribute to the sumset.  Exact
volumes use Gamma-function formulas; everything else is seeded hit-or-miss
Monte Carlo plus an occupancy grid for sumset volumes.  The occupancy
estimate is deliberately biased low, so nonnegative deficits are
conservative evidence for the superadditivity inequalities checked here.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.ndimage import binary_dilation
from scipy.special import gammaln

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

_EXACT_KINDS = ("ball", "box", "ellipsoid")
_MAX_EXACT_DIM = 64
_MAX_MC_DIM = 10
_MAX_THETA_DIM = 12
_MAX_SUM_DIM = 6
_MAX_PROPOSALS = 500_000_000


# ---------------------------------------------------------------------------
# set and pair-constraint specifications


@dataclass(frozen=True)
class SetSpec:
    """A body in R^n with membership test, bounding box, and volume."""

    kind: str
    dim: int
    radius: float | None = None
    half_widths: tuple | None = None
    semi_axes: tuple | None = None
    parts: tuple | None = None
    base: "SetSpec | None" = None
    factor: float | None = None
    center: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dimension must be >= 1")
        if self.kind == "ball":
            if self.radius is None or self.radius <= 0:
                raise ParameterError("ball radius must be positive")
        elif self.kind == "box":
            if self.half_widths is None or len(self.half_widths) != self.dim:
                raise ParameterError("box needs one half-width per axis")
            if any(w <= 0 for w in self.half_widths):
                raise ParameterError("box half-widths must be positive")
        elif self.kind == "ellipsoid":
            if self.semi_axes is None or len(self.semi_axes) != self.dim:
                raise ParameterError("ellipsoid needs one semi-axis per axis")
            if any(a <= 0 for a in self.semi_axes):
                raise ParameterError("ellipsoid semi-axes must be positive")
        elif self.kind == "intersection":
            if not self.parts:
                raise ParameterError("intersection needs at least one part")
            if any(p.dim != self.dim for p in self.parts):
                raise ParameterError("intersection parts must share the dimension")
        elif self.kind == "scaled":
            if self.base is None or self.base.dim != self.dim:
                raise ParameterError("scaled set needs a base of the same dimension")
            if self.factor is None or self.factor <= 0:
                raise ParameterError("scale factor must be positive")
        else:
            raise ParameterError(f"unknown set kind {self.kind!r}")
        if self.center is not None and len(self.center) != self.dim:
            raise ParameterError("center must have one coordinate per axis")

    # constructors

    @classmethod
    def ball(cls, radius: float, dim: int, center=None) -> "SetSpec":
        return cls(kind="ball", dim=dim, radius=float(radius),
                   center=None if center is None else tuple(center))

    @classmethod
    def box(cls, half_widths, center=None) -> "SetSpec":
        hw = tuple(float(w) for w in half_widths)
        return cls(kind="box", dim=len(hw), half_widths=hw,
                   center=None if center is None else tuple(center))

    @classmethod
    def ellipsoid(cls, semi_axes, center=None) -> "SetSpec":
        ax = tuple(float(a) for a in semi_axes)
        return cls(kind="ellipsoid", dim=len(ax), semi_axes=ax,
                   center=None if center is None else tuple(center))

    @classmethod
    def intersection(cls, *parts) -> "SetSpec":
        parts = tuple(parts)
        return cls(kind="intersection", dim=parts[0].dim if parts else 0, parts=parts)

    @classmethod
    def scaled(cls, base: "SetSpec", factor: float) -> "SetSpec":
        return cls(kind="scaled", dim=base.dim, base=base, factor=float(factor))

    # geometry

    def _center(self) -> np.ndarray:
        if self.center is None:
            return np.zeros(self.dim)
        return np.asarray(self.center, dtype=float)

    def contains(self, points: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "ball":
            d = x - self._center()
            return np.einsum("ij,ij->i", d, d) <= self.radius * self.radius
        if self.kind == "box":
            d = np.abs(x - self._center())
            return np.all(d <= np.asarray(self.half_widths), axis=1)
        if self.kind == "ellipsoid":
            d = (x - self._center()) / np.asarray(self.semi_axes)
            return np.einsum("ij,ij->i", d, d) <= 1.0
        if self.kind == "intersection":
            out = np.ones(x.shape[0], dtype=bool)
            for part in self.parts:
                out &= part.contains(x)
            return out
        return self.base.contains(x / self.factor)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "ball":
            c = self._center()
            return c - self.radius, c + self.radius
        if self.kind == "box":
            c = self._center()
            hw = np.asarray(self.half_widths)
            return c - hw, c + hw
        if self.kind == "ellipsoid":
            c = self._center()
            ax = np.asarray(self.semi_axes)
            return c - ax, c + ax
        if self.kind == "intersection":
            los, his = zip(*(p.bounding_box() for p in self.parts))
            return np.max(los, axis=0), np.min(his, axis=0)
        lo, hi = self.base.bounding_box()
        return lo * self.factor, hi * self.factor

    def exact_volume(self) -> float | None:
        """Closed-form volume, or None when only Monte Carlo applies."""
        if self.kind == "ball":
            return unit_ball_volume(self.dim) * self.radius**self.dim
        if self.kind == "box":
            return float(np.prod(2.0 * np.asarray(self.half_widths)))
        if self.kind == "ellipsoid":
            return unit_ball_volume(self.dim) * float(np.prod(self.semi_axes))
        if self.kind == "scaled":
            base = self.base.exact_volume()
            return None if base is None else self.factor**self.dim * base
        return None

    def origin_symmetric(self) -> bool:
        """True when the set is provably invariant under x -> -x."""
        if self.center is not None and any(c != 0 for c in self.center):
            return False
        if self.kind in _EXACT_KINDS:
            return True
        if self.kind == "intersection":
            return all(p.origin_symmetric() for p in self.parts)
        return self.base.origin_symmetric()


def unit_ball_volume(n: int) -> float:
    return math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n + 1.0))


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
            if self.c is None:
                raise ParameterError("inner_product_leq needs a threshold")
        elif self.kind == "sum_norm_leq":
            if self.bound is None or self.bound <= 0:
                raise ParameterError("sum_norm_leq needs a positive bound")
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
    low_biased: bool = False

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
            "low_biased": self.low_biased,
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
    """Sampling budget and constants; streams are part of the contract.

    Results depend on (seed, n_streams) but never on threads, which only
    schedule the per-stream jobs.
    """

    pair_samples: int = 200_000
    grid_cells_per_axis: int | None = None
    seed: int = 0
    n_streams: int = 4
    threads: int = 1
    pairing_rounds: int = 8
    c: float = 0.01
    C: float = 3.0

    def __post_init__(self):
        if self.pair_samples < 1000:
            raise ParameterError("pair_samples must be >= 1000")
        if self.grid_cells_per_axis is not None and self.grid_cells_per_axis < 2:
            raise ParameterError("grid_cells_per_axis must be >= 2")
        if self.n_streams < 1 or self.threads < 1:
            raise ParameterError("n_streams and threads must be >= 1")
        if self.pairing_rounds < 1:
            raise ParameterError("pairing_rounds must be >= 1")
        if not 0 < self.c < 1:
            raise ParameterError("gate constant c must lie in (0, 1)")
        if self.C <= 0:
            raise ParameterError("constant C must be positive")


# ---------------------------------------------------------------------------
# sampling primitives


def _sample_in_set(spec: SetSpec, count: int, rng) -> tuple[np.ndarray, int]:
    """Uniform points via rejection from the bounding box; returns proposals."""
    lo, hi = spec.bounding_box()
    if np.any(hi <= lo):
        raise DegenerateSampleError("empty bounding box")
    if spec.kind == "box":
        pts = rng.uniform(lo, hi, size=(count, spec.dim))
        return pts, count
    out = np.empty((count, spec.dim))
    filled = 0
    proposals = 0
    while filled < count:
        batch = min(2_000_000, max(8192, 4 * (count - filled)))
        cand = rng.uniform(lo, hi, size=(batch, spec.dim))
        proposals += batch
        good = cand[spec.contains(cand)]
        take = min(len(good), count - filled)
        out[filled : filled + take] = good[:take]
        filled += take
        if proposals > _MAX_PROPOSALS:
            raise DegenerateSampleError(
                f"rejection acceptance too low after {proposals} proposals"
            )
    return out, proposals


def _split_budget(total: int, streams: int) -> list[int]:
    base, rem = divmod(total, streams)
    return [base + (1 if i < rem else 0) for i in range(streams)]


def _run_streams(cfg: MonteCarloConfig, job) -> list:
    """Run job(stream_index, samples, rng) per stream, fixed reduction order."""
    budgets = _split_budget(cfg.pair_samples, cfg.n_streams)
    args = [
        (i, budgets[i], np.random.default_rng(stream_seed(cfg.seed, i)))
        for i in range(cfg.n_streams)
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
    return binary_dilation(grid) & ~grid


def restricted_sum_volume(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None = None
) -> dict:
    """Volumes of A, B, the pair constraint and the restricted sumset.

    volume_a and volume_b are ``volume(A)`` and ``volume(B)`` under cfg.
    theta_volume is hit-or-miss over independent uniform pairs from A x B.
    sum_volume marks occupancy-grid cells hit by sampled x + y with (x, y)
    admitted by theta; besides the independent pairs, each batch is reused
    through circular-shift repairings (still valid theta-filtered pairs) to
    cover the thin boundary shell where the sum density vanishes.  The
    estimate is biased low, and its stderr field carries an additive
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
    widths = (hi_s - lo_s) / cells
    cell_vol = float(np.prod(widths))

    def mark(counts, s):
        if len(s):
            idx = np.clip(((s - lo_s) / widths).astype(np.int64), 0, cells - 1)
            flat = np.ravel_multi_index(idx.T, (cells,) * n)
            counts += np.bincount(flat, minlength=cells**n)

    def job(_i, m, rng):
        hits = 0
        proposals = 0
        counts = np.zeros(cells**n, dtype=np.int64)
        done = 0
        while done < m:
            chunk = min(m - done, 500_000)
            x, px = _sample_in_set(A, chunk, rng)
            y, py = _sample_in_set(B, chunk, rng)
            proposals += px + py
            keep = theta.indicator(x, y, cfg.seed)
            hits += int(np.count_nonzero(keep))
            mark(counts, (x + y)[keep])
            for r in range(1, cfg.pairing_rounds):
                yr = np.roll(y, r * chunk // cfg.pairing_rounds, axis=0)
                kr = theta.indicator(x, yr, cfg.seed)
                mark(counts, (x + yr)[kr])
            done += chunk
        return hits, counts, proposals

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
        low_biased=True,
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


def _log_slab_integral(n: int, lo: float, hi: float) -> float:
    """log of integral over [lo, hi] of (1 - v^2)^((n-1)/2), -1 <= lo <= hi <= 1."""
    if hi <= lo:
        return float("-inf")
    half = 0.5 * (n - 1)

    def log_f(v):
        vv = min(v * v, 1.0)
        if vv >= 1.0:
            return float("-inf")
        return half * math.log1p(-vv)

    # shift by the max so quad sees an O(1) integrand even for huge n
    peak = 0.0 if lo <= 0.0 <= hi else (lo if abs(lo) < abs(hi) else hi)
    shift = log_f(peak)
    pieces = sorted({lo, hi, *((0.0,) if lo < 0.0 < hi else ())})
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        val, _ = quad(lambda v: math.exp(log_f(v) - shift), a, b, limit=200)
        total += val
    if total <= 0:
        return float("-inf")
    return shift + math.log(total)


def _log_slab_closed_form(n: int) -> float:
    # int_{-1}^{1} (1 - v^2)^((n-1)/2) dv = sqrt(pi) Gamma((n+1)/2) / Gamma(n/2+1)
    return 0.5 * math.log(math.pi) + gammaln(0.5 * (n + 1)) - gammaln(0.5 * n + 1.0)


def cap_fraction(n: int, rho: float, r0: float, detail: bool = False):
    """Fraction of the small ball rho*B^n reachable within the big ball.

    For |x0| = r0, returns lambda({y : |y| <= rho, |x0 + y| <= sqrt(1+rho^2)})
    normalized by lambda(rho B^n).  Computed from two slab integrals: the
    part of the small ball below the cap plane, plus the lens against the
    big sphere.
    """
    if n < 2:
        raise ParameterError("cap geometry needs n >= 2")
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0, 1]")
    if not 0.0 < r0 <= 1.0:
        raise ParameterError("r0 must lie in (0, 1]")
    big_r = math.sqrt(1.0 + rho * rho)
    info = {"n": n, "rho": rho, "r0": r0, "clamped": False, "containment": False}
    if r0 <= big_r - rho:
        # the shifted small ball sits entirely inside the big ball
        info["containment"] = True
        if detail:
            info.update(fraction=1.0)
            return 1.0, info
        return 1.0

    s = (1.0 - r0 * r0) / (2.0 * r0)
    t = big_r - r0
    v_s = s / rho
    if v_s < -1.0 or s > t:
        # defensive clamp; unreachable for r0 in the valid range
        info["clamped"] = True
        v_s = max(v_s, -1.0)
        s = v_s * rho
        t = max(t, s)

    log_i0 = _log_slab_integral(n, -1.0, 1.0) + n * math.log(rho)
    first = math.exp(_log_slab_integral(n, -1.0, min(v_s, 1.0)) + n * math.log(rho) - log_i0)
    # second integral: substitute r0 + u = big_r * w on [s, t]
    w0 = (r0 + s) / big_r
    log_i2 = _log_slab_integral(n, min(w0, 1.0), 1.0) + n * math.log(big_r)
    second = math.exp(log_i2 - log_i0)
    fraction = min(first + second, 1.0)
    if detail:
        info.update(
            fraction=fraction,
            first_integral_fraction=first,
            second_integral_fraction=second,
            s=s,
            t=t,
            w0=w0,
            identity_rel_err=abs(
                math.exp(_log_slab_integral(n, -1.0, 1.0) - _log_slab_closed_form(n))
                - 1.0
            ),
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


def _balls_at_origin(A: SetSpec, B: SetSpec) -> tuple[float, float] | None:
    def ball_radius(spec):
        if spec.kind == "ball" and (spec.center is None or not any(spec.center)):
            return spec.radius
        if spec.kind == "scaled":
            r = ball_radius(spec.base)
            return None if r is None else r * spec.factor
        return None

    ra, rb = ball_radius(A), ball_radius(B)
    if ra is None or rb is None:
        return None
    return ra, rb


def _theta_fraction_quadrature(A: SetSpec, B: SetSpec, theta: ThetaSpec) -> float | None:
    """Exact pair fraction for sum-norm constraints on origin-centered balls."""
    if theta.kind != "sum_norm_leq":
        return None
    radii = _balls_at_origin(A, B)
    if radii is None:
        return None
    ra, rb = radii
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
                chunk = min(m - done, 500_000)
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

