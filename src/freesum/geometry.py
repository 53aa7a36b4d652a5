"""Restricted Minkowski sums in R^n: volumes, caps, and inequality checks.

Every body is stored in one form: an ellipsoid or a box, given by its axes
and centre, or an intersection of such bodies.  Balls are equal-axis
ellipsoids and dilates scale the axes and centre, so both keep their
constructors but need no code of their own.  A pair constraint (Theta)
restricts which x + y contribute to the sumset; it is one of four kinds:
full, inner_product_leq, sum_norm_leq and complement_fraction.  Exact
volumes use closed forms, and so do the sumsets whose geometry is exact:
origin-centred balls (a ball or an annulus) and box pairs (a box).
Everything else is seeded hit-or-miss Monte Carlo (``_hit_or_miss``).  A
sumset's points are each decided exactly (``_sumset_membership``): a witness
pair proves u in A + B and a Lagrange dual bound proves u outside, so the
estimate is unbiased.  Off the origin balls, inner_product_leq can make the
sumset non-convex; no certificate applies there and its volume is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

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
    "check_theorem12",
    "first_integral_fraction_at_extremal_r0",
    "restricted_sum_volume",
    "volume",
]

_MAX_EXACT_DIM = 64
_MAX_MC_DIM = 10
_MAX_SUM_DIM = 6
_MAX_PROPOSALS = 500_000_000
# the stream_seed purposes of cfg.seed: each sampled estimate draws from its
# own generator (``_rng``)
_PAIRS, _VOLUME_A, _VOLUME_B, _VOLUME_C, _SUM_POINTS, _BALL_PAIRS = range(6)
# pairs drawn at a time by the pair sampler, and points decided at a time by
# the hit-or-miss estimator
_CHUNK = 50_000
_POINT_CHUNK = 12_500
# pair samples of the budget per certified sum point: 5,000 points at 200k
_PAIRS_PER_SUM_POINT = 40
# barrier-Newton steps before a sum point is left undecided, and the growth
# of the barrier weight per step
_MAX_NEWTON_STEPS = 60
_BARRIER_GROWTH = 2.0
# relative rounding bound of a closed-form sumset volume, whose kappa_n,
# square root and powers up to n = _MAX_SUM_DIM round by under 1e-14
_CLOSED_FORM_ETA = 1e-12


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


@dataclass(frozen=True)
class ThetaSpec:
    """Constraint on pairs (x, y) defining the restricted sum: every pair,
    <x, y> <= c, |x + y| <= bound, or a seeded hash >= density."""

    kind: str
    c: float | None = None
    bound: float | None = None
    density: float | None = None

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

    def indicator(self, x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
        if self.kind == "full":
            return np.ones(x.shape[0], dtype=bool)
        if self.kind == "inner_product_leq":
            return np.einsum("ij,ij->i", x, y) <= self.c
        if self.kind == "sum_norm_leq":
            s = x + y
            return np.einsum("ij,ij->i", s, s) <= self.bound * self.bound
        cols = [x[:, j] for j in range(x.shape[1])]
        cols += [y[:, j] for j in range(y.shape[1])]
        return hash_unit(seed, cols) >= self.density


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
        if self.method not in ("exact", "mc_hit_or_miss", "closed_form"):
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
    """Sampling budget, seed and gate constants."""

    pair_samples: int = 200_000
    seed: int = 0
    c: float = 0.01
    C: float = 3.0

    def __post_init__(self):
        if self.pair_samples < 1000:
            raise ParameterError("pair_samples must be >= 1000")
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


def _rng(cfg: MonteCarloConfig, purpose: int) -> np.random.Generator:
    """The one generator of the estimate with this purpose under cfg's seed."""
    return np.random.default_rng(stream_seed(cfg.seed, purpose))


def volume(spec: SetSpec, cfg: MonteCarloConfig | None = None) -> VolumeEstimate:
    """Exact volume where a formula exists, hit-or-miss MC otherwise.

    A Monte Carlo volume draws on the volume-of-A purpose, so it is the
    volume_a of ``restricted_sum_volume`` under the same cfg.
    """
    return _volume(spec, cfg, _VOLUME_A)


def _volume(spec: SetSpec, cfg: MonteCarloConfig | None, purpose: int) -> VolumeEstimate:
    """``volume``, drawing a Monte Carlo estimate from the generator of purpose."""
    exact = spec.exact_volume()
    if exact is not None:
        if spec.dim > _MAX_EXACT_DIM:
            raise ParameterError(f"exact volumes limited to n <= {_MAX_EXACT_DIM}")
        return VolumeEstimate(value=exact, stderr=0.0, samples=0, method="exact")
    if spec.dim > _MAX_MC_DIM:
        raise ParameterError(f"Monte Carlo volumes limited to n <= {_MAX_MC_DIM}")
    cfg = cfg or MonteCarloConfig()
    member = lambda u: np.where(spec.contains(u), 1, -1)  # noqa: E731
    rng = _rng(cfg, purpose)
    return _hit_or_miss(*spec.bounding_box(), member, cfg.pair_samples, rng)[0]


def _hit_or_miss(lo, hi, member, points: int, rng) -> tuple[VolumeEstimate, int]:
    """(estimate, undecided points) of a set's volume from points uniform on the box [lo, hi].

    member(u) is 1 for a row of u in the set, -1 outside and 0 undecided.
    The points are drawn from rng in chunks.  An undecided point counts as
    outside and adds box volume / points to stderr, so the estimate stays
    sound.  An empty box has volume 0.
    """
    box_vol = float(np.prod(hi - lo))
    if box_vol <= 0:
        return VolumeEstimate(value=0.0, stderr=0.0, samples=points, method="mc_hit_or_miss"), 0
    hits = undecided = 0
    for start in range(0, points, _POINT_CHUNK):
        state = member(rng.uniform(lo, hi, size=(min(_POINT_CHUNK, points - start), len(lo))))
        hits += int(np.count_nonzero(state == 1))
        undecided += int(np.count_nonzero(state == 0))
    if hits == 0:
        raise DegenerateSampleError("no sampled point landed in the set")
    p = hits / points
    stderr = box_vol * (math.sqrt(p * (1.0 - p) / points) + undecided / points)
    estimate = VolumeEstimate(value=box_vol * p, stderr=stderr, samples=points,
                              method="mc_hit_or_miss")
    return estimate, undecided


# ---------------------------------------------------------------------------
# restricted sums


def _origin_ball_radius(spec: SetSpec) -> float | None:
    """Radius of an origin-centred ball, an ellipsoid with equal axes, else None."""
    if spec.kind == "ellipsoid" and not any(spec.center) and len(set(spec.axes)) == 1:
        return spec.axes[0]
    return None


def _annulus(a, b, c):
    """(R^2, r0) of {x + y : |x| <= a, |y| <= b, <x, y> <= c}, a >= b > 0, c >= -ab.

    R^2 = a^2 + b^2 + 2 min(c, ab) and r0 = max(0, -c/b - b), in plain
    arithmetic, so floats and Fractions both work.  For u = x + y:
    - |u| <= R: |u|^2 = |x|^2 + |y|^2 + 2<x, y> with <x, y> <= min(c, |x||y|).
    - |u| >= r0 when r0 > 0, i.e. c < -b^2: then t = |y| > 0 and
      <u, y> = <x, y> + t^2 <= c + t^2 < 0, so |u| t >= -c - t^2 and
      |u| >= -c/t - t >= -c/b - b, since -c/t - t falls in t.
    - Every r in [r0, R] is reached, so for n >= 2, where Theta is rotation
      invariant, the sumset is the annulus r0 <= |u| <= R.  Take u = r e
      with |e| = 1.  For r <= a - b, x = (r + b) e and y = -b e have
      <x, y> = -b(r + b) <= c exactly when r >= -c/b - b, which is at most
      a - b as c >= -ab.  For a - b <= r <= R <= a + b, the triangle with
      sides a, b and r, spanned by e and a unit vector orthogonal to it,
      has <x, y> = (r^2 - a^2 - b^2)/2 <= c.
    On the line (n = 1) there is no such triangle and the sumset can be
    smaller: c = 0 gives [-a, a].
    """
    cc = min(c, a * b)
    return a * a + b * b + 2 * cc, max(-cc / b - b, 0 * b)  # 0 * b keeps the type


def _closed_form_sum_volume(A: SetSpec, B: SetSpec, theta: ThetaSpec) -> float | None:
    """Exact volume of A +_Theta B where the geometry gives one, else None.

    - Origin-centred balls of radii a >= b: the ball (a + b) B^n under a full
      Theta or complement_fraction (its hash keeps a dense set of pairs, so
      only a null set of sums goes), its part min(t, a + b) B^n under
      sum_norm_leq(t), and under inner_product_leq(c) the empty set when
      c < -ab, where no pair is admitted, else for n >= 2 the annulus of
      ``_annulus``.
    - Box + box under a full Theta or complement_fraction: the box with
      summed half-widths and centres.
    """
    whole = theta.kind in ("full", "complement_fraction")
    if A.kind == B.kind == "box":
        return 2.0**A.dim * float(np.prod(np.add(A.axes, B.axes))) if whole else None
    a, b = _origin_ball_radius(A), _origin_ball_radius(B)
    if a is None or b is None:
        return None
    a, b, n = max(a, b), min(a, b), A.dim
    if whole:
        return unit_ball_volume(n) * (a + b) ** n
    if theta.kind == "sum_norm_leq":
        return unit_ball_volume(n) * min(theta.bound, a + b) ** n
    if theta.kind == "inner_product_leq":
        outer_sq, inner = _annulus(Fraction(a), Fraction(b), Fraction(theta.c))
        if outer_sq < inner * inner:  # exactly when c < -ab: no pair is admitted
            return 0.0
        if n == 1:
            return None
        # R^n - r0^n = (R^2n - r0^2n) / (R^n + r0^n), whose numerator is exact,
        # keeps the digits of a thin annulus
        outer = math.sqrt(outer_sq)
        ring = float(outer_sq**n - inner ** (2 * n)) / (outer**n + float(inner) ** n)
        return unit_ball_volume(n) * ring
    return None


def _pair_hits(A: SetSpec, B: SetSpec, keep, pairs: int, rng) -> tuple[int, int]:
    """(pairs with keep(x, y) true, proposals) over independent pairs drawn from rng.

    keep maps batches of rows x of A and y of B to a boolean mask.  The
    pairs are drawn in chunks of at most ``_CHUNK``.
    """
    hits = proposals = 0
    for start in range(0, pairs, _CHUNK):
        x, px = _sample_in_set(A, min(_CHUNK, pairs - start), rng)
        y, py = _sample_in_set(B, min(_CHUNK, pairs - start), rng)
        proposals += px + py
        hits += int(np.count_nonzero(keep(x, y)))
    return hits, proposals


def _pieces(spec: SetSpec) -> tuple[np.ndarray, np.ndarray]:
    """(w, c) with spec = {y : sum_j w[k, j] (y_j - c[k, j])^2 <= 1 for every row k}.

    An ellipsoid is one row, a box one row per coordinate, an intersection
    the rows of its parts.
    """
    if spec.kind == "intersection":
        ws, cs = zip(*(_pieces(p) for p in spec.parts))
        return np.concatenate(ws), np.concatenate(cs)
    w = 1.0 / np.square(spec.axes)
    c = np.asarray(spec.center, dtype=float)
    if spec.kind == "ellipsoid":
        return w[None, :], c[None, :]
    return np.diag(w), np.tile(c, (spec.dim, 1))


def _dual_bound(lam: np.ndarray, w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D(lam) less its rounding bound, the minimiser m) per point.

    D(lam) = min_y sum_k lam_k q_k(y) with q_k(y) = sum_j w[k, j] (y_j - c[p, k, j])^2
    and each row of lam summing to 1; m_j is the lam w-weighted mean of the
    centres.  Each term of D is at most (lam w)_j (|m_j| + max_k |c_kj|)^2,
    and rounding moves D by under 8 (w.size + 8) eps times their sum.
    """
    lw = lam[:, :, None] * w
    wsum = lw.sum(axis=1)
    m = np.einsum("pkj,pkj->pj", lw, c) / wsum
    gap = m[:, None, :] - c
    value = np.einsum("pkj,pkj->p", lw, gap * gap)
    scale = np.einsum("pj,pj->p", wsum, np.square(np.abs(m) + np.abs(c).max(axis=1)))
    return value - 8.0 * (w.size + 8) * np.finfo(float).eps * scale, m


def _sumset_membership(A: SetSpec, B: SetSpec, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(state, witness) per row of u: state 1 if certified in A + B, -1 outside, 0 undecided.

    u is in A + B exactly when B and u - A meet, that is when
    min_y max_k q_k(y) <= 1 over the ``_pieces`` rows of B and of u - A.
    - Inside: a witness y with B.contains(y) and A.contains(u - y).
    - Outside: max_k q_k >= sum_k lam_k q_k for lam in the simplex, so
      ``_dual_bound`` above 1 proves that no y exists (weak duality).
    y and lam come from path following on min s subject to q_k(y) <= s
    (Boyd and Vandenberghe, Convex Optimization, section 11): one damped
    Newton step on the self-concordant t s - sum_k log(s - q_k(y)) per growth
    of t by ``_BARRIER_GROWTH``, with lam_k proportional to 1/(s - q_k).
    Both certificates are tested before each step, so the solve sets only
    how many points are decided.  Coordinates are centred on B's bounding box.
    """
    n = u.shape[1]
    ref = 0.5 * np.add(*B.bounding_box())
    w_b, c_b = _pieces(B)
    w_a, c_a = _pieces(A)
    w = np.concatenate([w_b, w_a])
    c = np.concatenate(
        [np.broadcast_to(c_b - ref, (len(u), len(w_b), n)), (u - ref)[:, None, :] - c_a], axis=1
    )
    dual, y = _dual_bound(np.full((len(u), len(w)), 1.0 / len(w)), w, c)
    q = np.einsum("kj,pkj->pk", w, np.square(y[:, None, :] - c))
    s = q.max(axis=1) + 1.0
    t = np.sum(1.0 / (s[:, None] - q), axis=1)
    state = np.zeros(len(u), dtype=np.int8)
    witness = np.full(u.shape, np.nan)
    rows = np.arange(len(u))
    for step in range(_MAX_NEWTON_STEPS + 1):
        outside = dual > 1.0
        inside = ~outside & (q.max(axis=1) <= 1.0)
        if inside.any():
            y_in = y[inside] + ref
            held = B.contains(y_in) & A.contains(u[rows[inside]] - y_in)
            witness[rows[inside][held]] = y_in[held]
            inside[inside] = held
        state[rows[inside]] = 1
        state[rows[outside]] = -1
        left = ~(inside | outside)
        if step == _MAX_NEWTON_STEPS or not left.any():
            return state, witness
        rows, c, y, s, t, q = rows[left], c[left], y[left], s[left], t[left], q[left]
        # gradients of q_k(y) - s, whose barrier terms give the Newton system
        inv = 1.0 / (s[:, None] - q)
        g = np.concatenate([2.0 * w * (y[:, None, :] - c), np.full((len(y), len(w), 1), -1.0)], 2)
        hess = np.einsum("pk,pki,pkj->pij", inv * inv, g, g)
        hess[:, range(n), range(n)] += inv @ (2.0 * w)
        grad = np.einsum("pk,pki->pi", inv, g)
        grad[:, n] += t
        move = -np.linalg.solve(hess, grad[..., None])[..., 0]
        move /= 1.0 + np.sqrt(np.maximum(-np.einsum("pi,pi->p", grad, move), 0.0))[:, None]
        y_new, s_new = y + move[:, :n], s + move[:, n]
        q_new = np.einsum("kj,pkj->pk", w, np.square(y_new[:, None, :] - c))
        # the damped step stays in the domain; a point rounding pushes out stays put
        moved = np.all(q_new < s_new[:, None], axis=1)
        y[moved], s[moved], q[moved] = y_new[moved], s_new[moved], q_new[moved]
        t *= _BARRIER_GROWTH
        lam = 1.0 / (s[:, None] - q)
        dual = _dual_bound(lam / lam.sum(axis=1, keepdims=True), w, c)[0]


def _certified_sum_volume(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig
) -> tuple[VolumeEstimate, int]:
    """``_hit_or_miss`` of A +_Theta B on bbox(A) + bbox(B), decided by ``_sumset_membership``.

    The points come from cfg's sum-points generator.  The sumset is A + B
    under a full Theta or complement_fraction, whose hash drops only a null
    set of sums, and (A + B) cap t B^n under sum_norm_leq(t).
    """
    (lo_a, hi_a), (lo_b, hi_b) = A.bounding_box(), B.bounding_box()
    lo, hi = lo_a + lo_b, hi_a + hi_b
    points = cfg.pair_samples // _PAIRS_PER_SUM_POINT
    rng = _rng(cfg, _SUM_POINTS)
    if theta.kind != "sum_norm_leq":
        return _hit_or_miss(lo, hi, lambda u: _sumset_membership(A, B, u)[0], points, rng)
    bound = theta.bound

    def member(u):
        state = np.full(len(u), -1, dtype=np.int8)
        near = np.einsum("ij,ij->i", u, u) <= bound * bound
        state[near] = _sumset_membership(A, B, u[near])[0]
        return state

    return _hit_or_miss(np.maximum(lo, -bound), np.minimum(hi, bound), member, points, rng)


def restricted_sum_volume(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None = None
) -> dict:
    """Volumes of A, B, the pair constraint and the restricted sumset.

    Each sampled estimate draws from its own generator ``_rng``: volume_a
    (``volume(A, cfg)``), volume_b, the pair draws and the sumset points, so
    no two share a stream; the Theta hash keys on cfg.seed itself.
    theta_volume is hit-or-miss over independent uniform pairs from A x B,
    drawn by ``_sample_in_set``; rejection_proposals counts the points it
    proposed for them (2 * pair_samples when A and B are drawn exactly).  A
    full Theta, whose hit-or-miss is identically 1, draws no pairs, and
    rejection_proposals is 0.

    sum_volume is exact where ``_closed_form_sum_volume`` gives the volume v:
    method "closed_form", value v (1 - eta) and stderr 2 eta value, with the
    rounding bound eta = 1e-12, so v lies in [value, value + stderr].  Every
    other pair goes through ``_certified_sum_volume`` (method
    "mc_hit_or_miss"), except under inner_product_leq, which raises
    ParameterError: there the sumset need not be convex.
    """
    if A.dim != B.dim:
        raise ParameterError("A and B must share the dimension")
    n = A.dim
    if n > _MAX_SUM_DIM:
        raise ParameterError(f"sumset estimation limited to n <= {_MAX_SUM_DIM}")
    exact = _closed_form_sum_volume(A, B, theta)
    if exact is None and theta.kind == "inner_product_leq":
        raise ParameterError("inner_product_leq sum volumes need origin-centred balls and "
                             "n >= 2: elsewhere the sumset need not be convex")
    cfg = cfg or MonteCarloConfig()
    m = cfg.pair_samples
    vol_a = _volume(A, cfg, _VOLUME_A)
    vol_b = _volume(B, cfg, _VOLUME_B)
    admitted = partial(theta.indicator, seed=cfg.seed)
    if theta.kind == "full":
        hits, proposals = m, 0
    else:
        hits, proposals = _pair_hits(A, B, admitted, m, _rng(cfg, _PAIRS))
    if hits == 0:
        raise DegenerateSampleError("pair constraint admitted no sampled pairs")
    if exact is None:
        sum_vol = _certified_sum_volume(A, B, theta, cfg)[0]
    else:
        value = exact * (1.0 - _CLOSED_FORM_ETA)
        sum_vol = VolumeEstimate(
            value=value, stderr=2.0 * _CLOSED_FORM_ETA * value, samples=0, method="closed_form"
        )

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
    return {
        "volume_a": vol_a,
        "volume_b": vol_b,
        "theta_volume": theta_vol,
        "sum_volume": sum_vol,
        "theta_hits": hits,
        "pair_samples": m,
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


def _cap_shares(n: int, rho: float, r0: float) -> tuple[float, float, float]:
    """(s, first, second): the cap plane's offset s and the two integral shares.

    ``first`` is the part of rho*B^n below the plane at offset s from the
    shifted centre, I_x((n+1)/2, (n+1)/2) with x = (1 + s/rho)/2, and
    ``second`` the lens between that plane and the big sphere.  When the
    shifted small ball lies inside the big one the shares are 1 and 0.
    """
    if n < 2:
        raise ParameterError("cap geometry needs n >= 2")
    if not 0.0 < rho <= 1.0:
        raise ParameterError("rho must lie in (0, 1]")
    if not 0.0 < r0 <= 1.0:
        raise ParameterError("r0 must lie in (0, 1]")
    big_r = math.sqrt(1.0 + rho * rho)
    # r0 in (big_r - rho, 1] puts the plane offset s in [0, big_r - r0]
    s = (1.0 - r0 * r0) / (2.0 * r0)
    if r0 <= big_r - rho:
        # the shifted small ball sits entirely inside the big ball
        return s, 1.0, 0.0
    p = 0.5 * (n + 1)
    first = 1.0 - math.exp(_log_beta_ratio(p, 0.5 * (1.0 - s / rho)))
    # lens: substitute r0 + u = big_r * w on [s, t]
    w0 = (r0 + s) / big_r
    second = math.exp(_log_beta_ratio(p, 0.5 * (1.0 - w0)) + n * math.log(big_r / rho))
    return s, first, second


def cap_fraction(n: int, rho: float, r0: float) -> float:
    """Fraction of the small ball rho*B^n reachable within the big ball.

    For |x0| = r0, returns lambda({y : |y| <= rho, |x0 + y| <= sqrt(1+rho^2)})
    normalized by lambda(rho B^n).  Computed from two incomplete beta ratios
    I_x((n+1)/2, (n+1)/2): the part of the small ball below the cap plane,
    plus the lens against the big sphere.
    """
    _, first, second = _cap_shares(n, rho, r0)
    return min(first + second, 1.0)


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
    return _cap_shares(n, rho, min(r0, 1.0))[1]


def check_lemma13(n: int, rho: float) -> dict:
    """Uncovered share c1 of the small ball at r0 = 1 - tau/n, and the constant it implies.

    With tau = min(rho sqrt(n), 1)/2, points at radius r0 in [1 - tau/n, 1]
    miss at least c1 of the small ball, which bounds the admissible pair
    fraction away from 1 and yields a positive constant c.  By Anderson's
    theorem the cap fraction falls as r0 grows, so the least uncovered share
    on that range is at its inner end: c1 = 1 - cap_fraction(n, rho, 1 - tau/n).
    """
    if n < 2:
        raise ParameterError("needs n >= 2")
    tau = 0.5 * min(rho * math.sqrt(n), 1.0)
    c1 = 1.0 - cap_fraction(n, rho, 1.0 - tau / n)
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


def _theta_fraction_quadrature(A: SetSpec, B: SetSpec, theta: ThetaSpec) -> float | None:
    """Exact pair fraction for a sum-norm constraint on origin-centered balls."""
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


def _pair_fraction(A: SetSpec, B: SetSpec, theta: ThetaSpec, rsv: dict):
    """(fraction, (lo, hi), source): a derived value, else the 99% Wilson CI.

    full and complement_fraction are fixed by construction (the keep/drop
    hash is uniform on [0, 1)); a zero inner-product threshold on
    origin-symmetric sets keeps exactly half by the (x, y) -> (x, -y)
    symmetry; sum-norm constraints on origin balls with the equality-case
    radius reduce to the cap quadrature.
    """
    known, source = None, "by_construction"
    if theta.kind == "full":
        known = 1.0
    elif theta.kind == "complement_fraction":
        known = 1.0 - theta.density
    elif theta.kind == "inner_product_leq":
        if theta.c == 0.0 and A.origin_symmetric() and B.origin_symmetric():
            known = 0.5
    else:
        known, source = _theta_fraction_quadrature(A, B, theta), "quadrature"
    if known is not None:
        return known, (known, known), source
    lo, hi = wilson_interval(rsv["theta_hits"], rsv["pair_samples"])
    return rsv["theta_hits"] / rsv["pair_samples"], (float(lo), float(hi)), "mc"


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


def _spread(vol: VolumeEstimate) -> float:
    """99% halfwidth of a volume: a closed form's rounding bracket as it is, Z99 stderr else."""
    return vol.stderr if vol.method == "closed_form" else Z99 * vol.stderr


def _power_ci(vol: VolumeEstimate, n: int) -> float:
    """99% halfwidth of vol.value ** (2/n) via the delta method."""
    if vol.value <= 0:
        return 0.0
    return (2.0 / n) * vol.value ** (2.0 / n - 1.0) * _spread(vol)


def _power_check(
    A: SetSpec, B: SetSpec, theta: ThetaSpec, cfg: MonteCarloConfig | None, rule, **extra
) -> CheckReport:
    """lambda(A +_Theta B)^(2/n) >= factor (lambda(A)^(2/n) + lambda(B)^(2/n)).

    rule(n, rho, cfg) gives one version's (gate threshold, rhs factor), with
    rho the symmetric volume-ratio root.  The input volumes are the ones the
    restricted-sum estimate computed; their Monte Carlo stderr enters the CI
    scaled like the rhs.  A failed or tied gate yields an inconclusive
    verdict; the measured volumes are still reported.

    The context also reports the slice bound lambda(A +_Theta B) >= fraction
    max(lambda(A), lambda(B)), from the same estimates: by Fubini some slice
    {x : (x, y) in Theta} of A holds fraction lambda(A), and y plus it lies in
    the sumset; likewise for B.  It needs no gate.
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
    ci = _power_ci(rsv["sum_volume"], n) + scale * (_power_ci(vol_a, n) + _power_ci(vol_b, n))
    deficit = lhs - rhs
    verdict = three_way_verdict(deficit, ci) if gate["passed"] else "inconclusive"
    big = max(vol_a, vol_b, key=lambda vol: vol.value)
    frac_lo, frac_hi = gate["ci"]
    slice_rhs = gate["fraction"] * big.value
    slice_ci = _spread(rsv["sum_volume"]) + big.value * 0.5 * (frac_hi - frac_lo) + _spread(big)
    slice_deficit = rsv["sum_volume"].value - slice_rhs
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
            "rejection_proposals": rsv["rejection_proposals"],
            "slice_bound": {
                "rhs": slice_rhs,
                "deficit": slice_deficit,
                "ci_halfwidth": slice_ci,
                "verdict": three_way_verdict(slice_deficit, slice_ci),
            },
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


def bll_symmetrization_check(
    A: SetSpec, B: SetSpec, C: SetSpec, cfg: MonteCarloConfig | None = None
) -> CheckReport:
    """Pair mass landing in C never beats the ball-rearranged configuration.

    lhs samples lambda({(x, y) in A x B : x + y in C}); rhs repeats the
    measurement with every set replaced by the origin-centered ball of the
    same volume.  The three input volumes and each side's pair draws draw
    from their own generators (``_rng``), so the two sides' errors are
    independent and add in quadrature.
    """
    if A.dim != B.dim or A.dim != C.dim:
        raise ParameterError("all three sets must share the dimension")
    if A.dim > 4:
        raise ParameterError("symmetrization check limited to n <= 4")
    cfg = cfg or MonteCarloConfig()
    n, m = A.dim, cfg.pair_samples

    def pair_mass(a, b, c, va, vb, purpose):
        hits = _pair_hits(a, b, lambda x, y: c.contains(x + y), m, _rng(cfg, purpose))[0]
        p = hits / m
        return p * va * vb, va * vb * math.sqrt(max(p * (1 - p), 1e-12) / m)

    vols = [_volume(spec, cfg, purpose).value
            for spec, purpose in zip((A, B, C), (_VOLUME_A, _VOLUME_B, _VOLUME_C))]
    balls = [SetSpec.ball((v / unit_ball_volume(n)) ** (1.0 / n), n) for v in vols]
    lhs, err_l = pair_mass(A, B, C, vols[0], vols[1], _PAIRS)
    ball_vols = [volume(ball).value for ball in balls[:2]]
    rhs, err_r = pair_mass(*balls, *ball_vols, _BALL_PAIRS)
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
    and the restricted sum is sqrt(1 + rho^2) B^n, the c = 0 case of
    ``_annulus``, which makes the 2/n-th power identity exact.  It needs
    n >= 2: on the line the orthogonal sum is [-1, 1], not sqrt(1 + rho^2) B^1.
    """
    if not 0.0 < rho < 1.0:
        raise ParameterError("rho must lie in (0, 1)")
    if n < 2:
        raise ParameterError("the ball example needs n >= 2")
    sum_radius = math.sqrt(_annulus(1.0, rho, 0.0)[0])
    w = unit_ball_volume(n)
    gap = (
        (w * sum_radius**n) ** (2.0 / n)
        - w ** (2.0 / n)
        - (w * rho**n) ** (2.0 / n)
    )
    return {"theta_fraction": 0.5, "sum_radius": sum_radius, "equality_gap": gap}

