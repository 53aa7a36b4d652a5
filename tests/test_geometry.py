"""Tests for restricted Minkowski sum volumes and inequality checks."""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, ndtr
from scipy.stats import kstest

import freesum.geometry as geometry
from freesum.cli import _jsonable
from freesum.errors import DegenerateSampleError, ParameterError
from freesum.stats import Z99, three_way_verdict
from freesum.geometry import (
    CheckReport,
    MonteCarloConfig,
    SetSpec,
    ThetaSpec,
    VolumeEstimate,
    ball_example_exact,
    bll_symmetrization_check,
    cap_fraction,
    check_corollary15,
    check_lemma13,
    check_theorem12,
    first_integral_fraction_at_extremal_r0,
    restricted_sum_volume,
    unit_ball_volume,
    volume,
)

FAST = MonteCarloConfig(pair_samples=200_000, seed=5)
BALL_CAP_BOX = SetSpec.intersection(SetSpec.ball(1.0, 3), SetSpec.box([0.8, 0.8, 0.8]))


class TestSpecs:
    def test_set_validation(self):
        with pytest.raises(ParameterError):
            SetSpec.ball(-1.0, 3)
        with pytest.raises(ParameterError):
            SetSpec.ball(1.0, 0)
        with pytest.raises(ParameterError):
            SetSpec.box([1.0, -0.5])
        with pytest.raises(ParameterError):
            SetSpec.ball(1.0, 2, center=(0.0,))
        with pytest.raises(ParameterError):
            SetSpec.intersection()
        with pytest.raises(ParameterError):
            SetSpec.intersection(SetSpec.ball(1, 2), SetSpec.ball(1, 3))
        with pytest.raises(ParameterError):
            SetSpec(kind="pyramid", dim=3)
        with pytest.raises(ParameterError):
            SetSpec.scaled(SetSpec.ball(1, 2), 0.0)
        with pytest.raises(ParameterError):  # a dilate whose axes overflow
            SetSpec.scaled(SetSpec.box([1e300, 1.0]), 1e10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sets_rejected(self, bad):
        with pytest.raises(ParameterError):
            SetSpec.ball(bad, 2)
        with pytest.raises(ParameterError):
            SetSpec.box([1.0, bad])
        with pytest.raises(ParameterError):
            SetSpec.ellipsoid([bad, 1.0])
        with pytest.raises(ParameterError):
            SetSpec.ball(1.0, 2, center=(0.0, bad))
        with pytest.raises(ParameterError):
            SetSpec.scaled(BALL_CAP_BOX, bad)
        with pytest.raises(ParameterError):
            ThetaSpec.inner_product_leq(bad)
        with pytest.raises(ParameterError):
            ThetaSpec.sum_norm_leq(bad)

    def test_theta_validation(self):
        with pytest.raises(ParameterError):
            ThetaSpec.sum_norm_leq(0.0)
        with pytest.raises(ParameterError):
            ThetaSpec.complement_fraction(1.0)
        with pytest.raises(ParameterError):
            ThetaSpec(kind="custom")
        with pytest.raises(ParameterError):
            ThetaSpec(kind="weird")

    def test_volume_estimate_validation(self):
        with pytest.raises(ParameterError):
            VolumeEstimate(value=-1.0, stderr=0.0, samples=0, method="exact")
        with pytest.raises(ParameterError):
            VolumeEstimate(value=1.0, stderr=0.1, samples=0, method="exact")
        with pytest.raises(ParameterError):
            VolumeEstimate(value=1.0, stderr=0.0, samples=0, method="quad")

    def test_check_report_validation(self):
        with pytest.raises(ParameterError):
            CheckReport(lhs=1, rhs=1, deficit=0, ci_halfwidth=-1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(-10.0, 10.0), st.floats(0.0, 5.0), st.booleans())
    def test_check_report_verdict_is_the_one_rule(self, deficit, ci, hypothesis_met):
        report = CheckReport(lhs=1.0, rhs=1.0 - deficit, deficit=deficit, ci_halfwidth=ci,
                             hypothesis_met=hypothesis_met)
        expected = three_way_verdict(deficit, ci) if hypothesis_met else "inconclusive"
        assert report.verdict == expected

    def test_mc_config_validation(self):
        with pytest.raises(ParameterError):
            MonteCarloConfig(pair_samples=10)

    def test_origin_symmetry(self):
        assert SetSpec.ball(1, 3).origin_symmetric()
        assert SetSpec.box([1, 2], center=(0.0, 0.0)).origin_symmetric()
        assert not SetSpec.box([1, 2], center=(0.1, 0.0)).origin_symmetric()
        nested = SetSpec.scaled(
            SetSpec.intersection(SetSpec.ball(1, 2), SetSpec.box([0.5, 0.7])), 2.0
        )
        assert nested.origin_symmetric()

    def test_ball_is_an_equal_axis_ellipsoid(self):
        for n, r, c in ((1, 0.5, None), (3, 2.0, (0.1, -0.2, 0.3)), (12, 0.7, None)):
            ball = SetSpec.ball(r, n, c)
            assert ball == SetSpec.ellipsoid([r] * n, c)
            assert ball.kind == "ellipsoid"
            assert SetSpec.scaled(SetSpec.ball(1, n), r) == SetSpec.ball(r, n)

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(SetSpec)]
        assert names == ["kind", "dim", "axes", "center", "parts"]
        assert [f.name for f in dataclasses.fields(ThetaSpec)] == ["kind", "c", "bound", "density"]
        # the grid size is derived from the budget, not stored
        names = [f.name for f in dataclasses.fields(MonteCarloConfig)]
        assert names == ["pair_samples", "seed"]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_dilate_agrees_with_the_directly_built_body(self, data):
        n = data.draw(st.integers(1, 6))
        coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
        axes = data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
        center = data.draw(coords)
        kind = data.draw(st.sampled_from(["box", "ellipsoid"]))
        make = getattr(SetSpec, kind)
        factor = data.draw(st.floats(0.2, 5.0))
        base = make(axes, center)
        dilate = SetSpec.scaled(base, factor)
        direct = make(np.multiply(factor, axes), np.multiply(factor, center))
        for got, want in zip(dilate.bounding_box(), direct.bounding_box()):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
        assert dilate.exact_volume() == pytest.approx(direct.exact_volume(), rel=1e-15)
        assert dilate.exact_volume() == pytest.approx(
            factor**n * base.exact_volume(), rel=1e-15
        )
        # membership of u in the dilate is membership of u / factor in the base
        lo, hi = direct.bounding_box()
        u = np.random.default_rng(0).uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (500, n))
        d = (u - direct.center) / direct.axes
        gauge = np.abs(d).max(axis=1) if kind == "box" else np.sqrt((d * d).sum(axis=1))
        away = np.abs(gauge - 1.0) > 1e-9
        inside = dilate.contains(u)[away]
        assert np.array_equal(inside, direct.contains(u)[away])
        assert np.array_equal(inside, base.contains(u / factor)[away])
        assert np.array_equal(inside, gauge[away] <= 1.0)


class TestVolume:
    def test_ball_area_is_pi(self):
        est = volume(SetSpec.ball(1.0, 2))
        assert est.method == "exact"
        assert est.stderr == 0.0
        assert est.value == pytest.approx(math.pi, abs=1e-15)

    def test_unit_ball_volume_closed_form(self):
        assert [unit_ball_volume(n) for n in range(4)] == [1.0, 2.0, math.pi, 4.0 * math.pi / 3.0]
        for n in range(4, 65):
            ref = math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)
            assert unit_ball_volume(n) == pytest.approx(ref, rel=1e-14)

    def test_ball_homogeneity_exact(self):
        # lambda(rho B^n) / lambda(B^n) = rho^n
        for n, rho in ((3, 0.5), (7, 0.9), (12, 0.3)):
            ratio = volume(SetSpec.ball(rho, n)).value / volume(SetSpec.ball(1, n)).value
            assert ratio == pytest.approx(rho**n, rel=1e-12)

    def test_scaled_volume_exact(self):
        direct = volume(SetSpec.ball(0.5, 3)).value
        scaled = volume(SetSpec.scaled(SetSpec.ball(1.0, 3), 0.5)).value
        assert scaled == pytest.approx(direct, rel=1e-14)
        boxed = volume(SetSpec.scaled(SetSpec.box([1.0, 2.0]), 3.0)).value
        assert boxed == pytest.approx(9.0 * 8.0, rel=1e-14)

    def test_ellipsoid_volume(self):
        est = volume(SetSpec.ellipsoid([1.0, 2.0, 3.0]))
        assert est.value == pytest.approx(unit_ball_volume(3) * 6.0, rel=1e-14)

    def test_dimension_limits(self):
        with pytest.raises(ParameterError):
            volume(SetSpec.ball(1.0, 65))
        big = SetSpec.intersection(SetSpec.ball(1, 11), SetSpec.box([1.0] * 11))
        with pytest.raises(ParameterError):
            volume(big, FAST)

    def test_intersection_box_inside_disk(self):
        # box [-0.5, 0.5]^2 sits inside the unit disk, so the intersection
        # is the box itself; the MC bounding box equals the box, making the
        # estimate exact
        inter = SetSpec.intersection(SetSpec.ball(1.0, 2), SetSpec.box([0.5, 0.5]))
        est = volume(inter, MonteCarloConfig(pair_samples=200_000, seed=7))
        assert est.method == "mc_hit_or_miss"
        assert abs(est.value - 1.0) <= max(3.0 * est.stderr, 1e-12)

    def test_adjacent_seeds_give_distinct_estimates(self):
        # streams derive from (seed, stream) through stream_seed; seeds 4-7
        # must not reuse each other's streams in another order
        values = {volume(BALL_CAP_BOX, MonteCarloConfig(seed=s)).value for s in (4, 5, 6, 7)}
        assert len(values) == 4

    def test_sampled_volume_is_the_restricted_sums_volume_a(self):
        # volume and restricted_sum_volume's A draw on one purpose, and B on
        # another: the same body as A and as B gives two independent estimates
        cfg = MonteCarloConfig(pair_samples=20_000, seed=5)
        rsv = restricted_sum_volume(BALL_CAP_BOX, BALL_CAP_BOX, ThetaSpec.full(), cfg)
        assert rsv["volume_a"] == volume(BALL_CAP_BOX, cfg)
        assert rsv["volume_b"].value != rsv["volume_a"].value

    def test_point_chunks_set_memory_only(self, monkeypatch):
        # the chunks are consecutive draws of one generator, so their size
        # moves no bit of a hit-or-miss estimate
        cfg = MonteCarloConfig(pair_samples=30_000, seed=5)
        whole = volume(BALL_CAP_BOX, cfg)
        monkeypatch.setattr(geometry, "_POINT_CHUNK", 777)
        assert volume(BALL_CAP_BOX, cfg) == whole

    def test_intersection_off_center_matches_grid_oracle(self):
        inter = SetSpec.intersection(
            SetSpec.ball(1.0, 2), SetSpec.box([0.8, 0.8], center=(0.5, 0.0))
        )
        est = volume(inter, MonteCarloConfig(pair_samples=400_000, seed=7))
        # independent pixel-counting oracle on the bounding box
        lo, hi = inter.bounding_box()
        m = 2000
        xs = np.linspace(lo[0], hi[0], m, endpoint=False) + (hi[0] - lo[0]) / (2 * m)
        ys = np.linspace(lo[1], hi[1], m, endpoint=False) + (hi[1] - lo[1]) / (2 * m)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / m**2
        oracle = np.count_nonzero(inter.contains(pts)) * cell
        assert abs(est.value - oracle) <= 3.0 * est.stderr + 0.01


@st.composite
def exactly_sampled_bodies(draw):
    """A ball or ellipsoid, maybe off-centre, maybe scaled, with the centre
    and semi-axes of the map that sends it onto the unit ball."""
    n = draw(st.integers(1, 12))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    center = draw(st.one_of(st.none(), coords))
    if draw(st.booleans()):
        radius = draw(st.floats(0.1, 3.0))
        spec, axes = SetSpec.ball(radius, n, center), np.full(n, radius)
    else:
        semi_axes = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
        spec, axes = SetSpec.ellipsoid(semi_axes, center), np.array(semi_axes)
    offset = np.zeros(n) if center is None else np.array(center)
    factor = draw(st.one_of(st.none(), st.floats(0.2, 5.0)))
    if factor is not None:
        spec, axes, offset = SetSpec.scaled(spec, factor), factor * axes, factor * offset
    return spec, offset, axes


class TestSampling:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exactly_sampled_bodies())
    def test_exact_draws_are_uniform_in_the_body(self, body):
        # mapped back onto the unit ball, |u|^n of a uniform point is U(0, 1)
        spec, offset, axes = body
        pts, proposals = geometry._sample_in_set(spec, 2000, np.random.default_rng(17))
        assert pts.shape == (2000, spec.dim)
        assert proposals == 2000
        assert spec.contains(pts).all()
        u = (pts - offset) / axes
        radial = np.einsum("ij,ij->i", u, u) ** (0.5 * spec.dim)
        assert kstest(radial, "uniform").pvalue > 1e-3

    def test_intersection_draws_lie_in_every_part(self):
        off_centre = SetSpec.intersection(
            SetSpec.ellipsoid([1.5, 0.5, 1.0], center=(0.2, 0.0, 0.0)),
            SetSpec.ball(1.0, 3, center=(0.5, 0.0, 0.0)),
        )
        doubled = SetSpec.scaled(BALL_CAP_BOX, 2.0)
        assert doubled.parts == (SetSpec.ball(2.0, 3), SetSpec.box([1.6, 1.6, 1.6]))
        rng = np.random.default_rng(3)
        for spec in (BALL_CAP_BOX, off_centre, doubled):
            pts, proposals = geometry._sample_in_set(spec, 5000, rng)
            assert pts.shape == (5000, 3)
            assert proposals > 5000
            for part in spec.parts:
                assert part.contains(pts).all()

    @pytest.mark.parametrize("pair", [
        (SetSpec.ball(1.0, 4), SetSpec.ball(0.6, 4, center=(0.1, 0.0, 0.0, 0.2))),
        (SetSpec.ellipsoid([1.0, 0.5, 0.8]), SetSpec.ellipsoid([0.3, 0.9, 0.6])),
    ], ids=["balls", "ellipsoids"])
    def test_exactly_sampled_pairs_take_one_proposal_per_point(self, pair):
        # a full Theta draws no pairs; dropping a hash subset makes them drawn
        rsv = restricted_sum_volume(*pair, ThetaSpec.complement_fraction(0.1), FAST)
        assert rsv["rejection_proposals"] == 2 * rsv["pair_samples"]


class TestRestrictedSum:
    def test_disk_doubling_close_to_4pi(self):
        # A + A = 2A for convex A; full pair constraint on two unit disks, one
        # off the origin so that the sum is sampled and certified point by point
        cfg = MonteCarloConfig(pair_samples=10_000_000, seed=11)
        rsv = restricted_sum_volume(
            SetSpec.ball(1, 2, center=(0.1, -0.2)), SetSpec.ball(1, 2), ThetaSpec.full(), cfg
        )
        sv = rsv["sum_volume"]
        assert sv.method == "mc_hit_or_miss"
        assert sv.samples == 250_000
        assert abs(sv.value - 4.0 * math.pi) <= 3.0 * sv.stderr

    def test_estimates_draw_from_distinct_seeds(self, monkeypatch):
        # restricted_sum_volume makes four estimates: volume(A), volume(B),
        # the pair draws and the sumset points; bll makes five: volume(A),
        # volume(B), volume(C) and the two sides' pair draws.  Each draws
        # from one generator, and within one call no seed serves two of them
        seeds = []
        default_rng = np.random.default_rng

        def recorded(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recorded)
        other = SetSpec.intersection(SetSpec.ball(0.6, 3), SetSpec.box([0.5, 0.4, 0.5]))
        cfg = MonteCarloConfig(pair_samples=20_000, seed=5)
        restricted_sum_volume(BALL_CAP_BOX, other, ThetaSpec.complement_fraction(0.2), cfg)
        assert len(seeds) == len(set(seeds)) == 4
        seeds.clear()
        c = SetSpec.intersection(SetSpec.ball(1.5, 3), SetSpec.box([1.2, 1.0, 1.1]))
        bll_symmetrization_check(BALL_CAP_BOX, other, c, cfg)
        assert len(seeds) == len(set(seeds)) == 5

    def test_half_space_pair_fraction(self):
        cfg = MonteCarloConfig(pair_samples=1_000_000, seed=3)
        A, B = SetSpec.ball(1, 3), SetSpec.ball(0.8, 3)
        rsv = restricted_sum_volume(A, B, ThetaSpec.inner_product_leq(0.0), cfg)
        tv = rsv["theta_volume"]
        pair_vol = volume(A).value * volume(B).value
        frac = tv.value / pair_vol
        sigma = tv.stderr / pair_vol
        assert abs(frac - 0.5) <= 3.0 * sigma

    def test_orthogonal_sum_is_dilated_ball(self):
        # restricted sum of B^3 and 0.8 B^3 under <x,y> <= 0 fills
        # sqrt(1.64) B^3, exactly in closed form
        cfg = MonteCarloConfig(pair_samples=1_000_000, seed=3)
        a, b, theta = SetSpec.ball(1, 3), SetSpec.ball(0.8, 3), ThetaSpec.inner_product_leq(0.0)
        target = (1.0 + 0.64) ** 1.5 * unit_ball_volume(3)
        sv = restricted_sum_volume(a, b, theta, cfg)["sum_volume"]
        assert sv.method == "closed_form"
        assert sv.value <= target <= sv.value + sv.stderr

    def test_no_admitted_pairs_raises(self):
        with pytest.raises(DegenerateSampleError):
            restricted_sum_volume(
                SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.inner_product_leq(-100.0), FAST
            )

    def test_dimension_limits(self):
        with pytest.raises(ParameterError):
            restricted_sum_volume(SetSpec.ball(1, 7), SetSpec.ball(1, 7), ThetaSpec.full(), FAST)
        with pytest.raises(ParameterError):
            restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(1, 3), ThetaSpec.full(), FAST)

    def test_seed_reproducibility(self):
        r1 = restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(0.5, 2), ThetaSpec.full(), FAST)
        r2 = restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(0.5, 2), ThetaSpec.full(), FAST)
        assert r1["sum_volume"].value == r2["sum_volume"].value
        assert r1["theta_volume"].value == r2["theta_volume"].value

    def test_nested_thetas_monotone(self):
        # dropping more pairs cannot grow the sumset; a hash-dropped subset is
        # a null set of sums, so every density leaves A + B and the same
        # certified points
        a, b = SetSpec.ball(1, 2), SetSpec.ball(0.7, 2, center=(0.2, 0.1))
        values = []
        for d in (0.0, 0.3, 0.6):
            rsv = restricted_sum_volume(a, b, ThetaSpec.complement_fraction(d), FAST)
            assert rsv["sum_volume"].method == "mc_hit_or_miss"
            values.append(rsv["sum_volume"].value)
        assert values[0] == values[1] == values[2]

    def test_restricted_subset_of_full(self):
        a, b = SetSpec.box([1.0, 0.5]), SetSpec.ball(0.5, 2)
        full = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)
        part = restricted_sum_volume(a, b, ThetaSpec.sum_norm_leq(1.0), FAST)
        assert part["sum_volume"].value <= full["sum_volume"].value

    def test_brunn_minkowski_sanity(self):
        cfg = MonteCarloConfig(pair_samples=1_000_000, seed=11)
        a, b = SetSpec.ball(1, 2), SetSpec.ball(0.6, 2, center=(0.3, -0.1))
        rsv = restricted_sum_volume(a, b, ThetaSpec.full(), cfg)
        sv = rsv["sum_volume"]
        assert sv.method == "mc_hit_or_miss"
        lhs = sv.value**0.5
        rhs = volume(a).value**0.5 + volume(b).value**0.5
        tol = 0.5 * sv.value ** (-0.5) * 3.0 * sv.stderr
        assert lhs >= rhs - tol


def kappa(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def annulus_witness(e, v, r, a, b):
    """x in aB^n and y in bB^n with x + y = r e, spanned by e and v (unit, orthogonal).

    Collinear for r <= a - b; otherwise the triangle with sides a, b and r.
    """
    if r <= a - b:
        return (r + b) * e, -b * e
    along = (r * r + a * a - b * b) / (2.0 * r)
    x = along * e + math.sqrt(max(a * a - along * along, 0.0)) * v
    return x, r * e - x


@st.composite
def origin_ball_annuli(draw, min_dim):
    """(n, a, b, c) with a >= b and c in [-ab, ab]."""
    n = draw(st.integers(min_dim, 6))
    a = draw(st.floats(0.1, 3.0))
    b = a * draw(st.floats(0.05, 1.0))
    c = a * b * draw(st.floats(-1.0, 1.0))
    return n, a, b, c


class TestClosedFormSums:
    @pytest.mark.parametrize("a, b, theta, exact", [
        (SetSpec.ball(1.0, 6), SetSpec.ball(0.8, 6), ThetaSpec.full(), kappa(6) * 1.8**6),
        (SetSpec.ball(0.5, 3), SetSpec.scaled(SetSpec.ball(1.0, 3), 1.5),
         ThetaSpec.complement_fraction(0.3), kappa(3) * 2.0**3),
        (SetSpec.ball(1.0, 4), SetSpec.ball(0.5, 4), ThetaSpec.sum_norm_leq(1.2), kappa(4) * 1.2**4),
        (SetSpec.ball(1.0, 2), SetSpec.ball(0.5, 2), ThetaSpec.sum_norm_leq(9.0), kappa(2) * 1.5**2),
        (SetSpec.ball(1.0, 3), SetSpec.ball(0.8, 3), ThetaSpec.inner_product_leq(0.0),
         kappa(3) * 1.64**1.5),
        # R^2 = 1 + 0.36 - 0.8 and r0 = 0.4/0.6 - 0.6
        (SetSpec.ball(0.6, 5), SetSpec.ball(1.0, 5), ThetaSpec.inner_product_leq(-0.4),
         kappa(5) * (0.56**2.5 - (0.4 / 0.6 - 0.6) ** 5)),
        (SetSpec.ball(1.0, 2), SetSpec.ball(0.5, 2), ThetaSpec.inner_product_leq(3.0),
         kappa(2) * 1.5**2),
        (SetSpec.box([1.0, 0.5, 0.2]), SetSpec.box([0.3, 0.2, 0.1], center=(1.0, 2.0, 3.0)),
         ThetaSpec.full(), 8.0 * 1.3 * 0.7 * 0.3),
        (SetSpec.box([1.0, 0.5]), SetSpec.box([0.3, 0.2]), ThetaSpec.complement_fraction(0.2),
         4.0 * 1.3 * 0.7),
    ], ids=["balls-full", "balls-complement", "balls-sum-norm", "balls-sum-norm-loose",
            "balls-orthogonal", "balls-annulus", "balls-loose-inner-product",
            "boxes-full", "boxes-complement"])
    def test_exact_pairs_skip_the_grid(self, a, b, theta, exact):
        rsv = restricted_sum_volume(a, b, theta, FAST)
        sv = rsv["sum_volume"]
        assert sv.method == "closed_form"
        assert sv.value <= exact <= sv.value + sv.stderr
        assert sv.stderr <= 2e-12 * sv.value
        assert sv.samples == 0

    @pytest.mark.parametrize("a, b, theta", [
        (SetSpec.ball(1.0, 3, center=(0.1, 0.0, 0.0)), SetSpec.ball(0.5, 3), ThetaSpec.full()),
        (SetSpec.ellipsoid([1.0, 0.5]), SetSpec.ball(0.5, 2), ThetaSpec.full()),
        (SetSpec.box([1.0, 0.5]), SetSpec.ball(0.5, 2), ThetaSpec.full()),
        (SetSpec.box([1.0, 0.5]), SetSpec.box([0.5, 0.5]), ThetaSpec.sum_norm_leq(1.0)),
        (BALL_CAP_BOX, SetSpec.ball(0.5, 3), ThetaSpec.complement_fraction(0.2)),
        (SetSpec.ellipsoid([1.0, 0.7, 0.4, 0.9, 0.6, 0.8]), SetSpec.box([0.3] * 6),
         ThetaSpec.full()),
    ], ids=["off-centre-ball", "ellipsoid", "box-ball", "boxes-sum-norm", "intersection",
            "n6-ellipsoid-box"])
    def test_other_pairs_are_certified(self, a, b, theta, monkeypatch):
        calls = []
        certified = geometry._certified_sum_volume
        monkeypatch.setattr(geometry, "_certified_sum_volume",
                            lambda *args: calls.append(args) or certified(*args))
        rsv = restricted_sum_volume(a, b, theta, FAST)
        sv = rsv["sum_volume"]
        assert sv.method == "mc_hit_or_miss"
        assert sv.samples == FAST.pair_samples // 40
        [args] = calls
        estimate, undecided = certified(*args)
        assert estimate == sv
        assert undecided == 0

    @pytest.mark.parametrize("a, b", [
        (SetSpec.ball(1.0, 1), SetSpec.ball(0.5, 1)),
        (SetSpec.box([1.0, 0.5]), SetSpec.box([0.5, 0.5])),
        (SetSpec.ball(1.0, 3, center=(0.1, 0.0, 0.0)), SetSpec.ball(0.5, 3)),
    ], ids=["line-balls", "boxes", "off-centre-balls"])
    def test_inner_product_off_the_closed_form_is_refused(self, a, b):
        # the sumset need not be convex there: on the line <x, y> <= 0 leaves
        # [-a, a], and the certified witness passes <x, y> <= 0 for no point
        with pytest.raises(ParameterError, match="inner_product_leq"):
            restricted_sum_volume(a, b, ThetaSpec.inner_product_leq(0.0), FAST)

    def test_full_theta_draws_no_pairs(self):
        a, b = SetSpec.ball(1.0, 3), SetSpec.ball(0.7, 3)
        rsv = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)
        assert rsv["rejection_proposals"] == 0
        assert rsv["theta_hits"] == rsv["pair_samples"] == FAST.pair_samples
        pair_vol = volume(a).value * volume(b).value
        assert rsv["theta_volume"] == VolumeEstimate(
            value=pair_vol, stderr=0.0, samples=FAST.pair_samples, method="mc_hit_or_miss"
        )

    @pytest.mark.parametrize("theta", [
        ThetaSpec.inner_product_leq(0.1),
        ThetaSpec.sum_norm_leq(1.1),
        ThetaSpec.complement_fraction(0.2),
    ], ids=["inner-product", "sum-norm", "complement"])
    def test_restricted_theta_counts_its_pair_hits(self, theta):
        # the closed form still draws the pairs for theta_volume, and counts
        # exactly the admitted pairs of the pair counter
        a, b = SetSpec.ball(1.0, 3), SetSpec.ball(0.7, 3)
        cfg = MonteCarloConfig(pair_samples=100_000, seed=8)
        rsv = restricted_sum_volume(a, b, theta, cfg)
        keep = partial(theta.indicator, seed=cfg.seed)
        pairs = geometry._rng(cfg, geometry._PAIRS)
        counted = geometry._pair_hits(a, b, keep, cfg.pair_samples, pairs)
        assert (rsv["theta_hits"], rsv["rejection_proposals"]) == counted
        assert rsv["sum_volume"].method == "closed_form"

    def test_below_minus_ab_no_pair_is_admitted(self):
        with pytest.raises(DegenerateSampleError):
            restricted_sum_volume(
                SetSpec.ball(1.0, 3), SetSpec.ball(0.5, 3), ThetaSpec.inner_product_leq(-0.51), FAST
            )

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_thin_annulus_keeps_its_digits(self, n):
        # c just above -ab leaves a shell of width ~1e-9 around |u| = a - b
        a, b = 1.0, 0.75
        c = -a * b + 1e-9
        outer_sq, inner = geometry._annulus(Fraction(a), Fraction(b), Fraction(c))
        with localcontext() as ctx:
            ctx.prec = 60
            outer = (Decimal(outer_sq.numerator) / Decimal(outer_sq.denominator)).sqrt()
            exact = outer**n - (Decimal(inner.numerator) / Decimal(inner.denominator)) ** n
        got = geometry._closed_form_sum_volume(
            SetSpec.ball(a, n), SetSpec.ball(b, n), ThetaSpec.inner_product_leq(c)
        ) / unit_ball_volume(n)
        assert abs(got / float(exact) - 1.0) < 1e-14

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(origin_ball_annuli(min_dim=1), st.integers(0, 2**32 - 1))
    def test_annulus_contains_every_admitted_sum(self, params, seed):
        n, a, b, c = params
        outer_sq, inner = geometry._annulus(a, b, c)
        outer = math.sqrt(outer_sq)
        rng = np.random.default_rng(seed)
        x, _ = geometry._sample_in_set(SetSpec.ball(a, n), 4000, rng)
        y, _ = geometry._sample_in_set(SetSpec.ball(b, n), 4000, rng)
        keep = ThetaSpec.inner_product_leq(c).indicator(x, y, 0)
        norms = np.linalg.norm(x[keep] + y[keep], axis=1)
        assert np.all(norms >= inner - 1e-12)
        assert np.all(norms <= outer + 1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(origin_ball_annuli(min_dim=2), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_annulus_radii_are_all_reached(self, params, where, seed):
        n, a, b, c = params
        outer_sq, inner = geometry._annulus(a, b, c)
        r = inner + where * (math.sqrt(outer_sq) - inner)
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(n)
        e /= np.linalg.norm(e)
        v = rng.standard_normal(n)
        v -= (v @ e) * e
        v /= np.linalg.norm(v)
        x, y = annulus_witness(e, v, r, a, b)
        tol = 1e-12 * (1.0 + a * a)
        assert np.linalg.norm(x) <= a + tol
        assert np.linalg.norm(y) <= b + tol
        assert x @ y <= c + tol
        assert np.allclose(x + y, r * e, rtol=0.0, atol=tol)
        # x, y and u = x + y lie in the plane of e and v
        for w in (x, y):
            assert np.linalg.norm(w - (w @ e) * e - (w @ v) * v) <= tol

    def test_default_gate_constant_below_the_equality_case_on_the_grid(self):
        # the largest gate constant Theorem 12 admits on B^n, rho B^n and
        # Theta = {|x + y| <= sqrt(1 + rho^2)} is 0.13-0.40 over this grid
        worst = min(
            (1.0 - geometry._theta_fraction_quadrature(
                SetSpec.ball(1.0, n), SetSpec.ball(rho, n),
                ThetaSpec.sum_norm_leq(math.sqrt(1.0 + rho * rho)),
            )) / min(rho * math.sqrt(n), 1.0)
            for n in range(2, 65)
            for rho in np.linspace(0.1, 0.9, 9)
        )
        assert worst >= geometry.THEOREM12_C


def steiner_volume(radius, half_widths):
    """lambda(box + radius B^n) = sum_j e_j(2 half_widths) kappa_(n-j) radius^(n-j)."""
    n = len(half_widths)
    e = [1.0] + [0.0] * n  # elementary symmetric polynomials of the side lengths
    for side in 2.0 * np.asarray(half_widths):
        for j in range(n, 0, -1):
            e[j] += e[j - 1] * side
    return sum(e[j] * kappa(n - j) * radius ** (n - j) for j in range(n + 1))


def holds_point(spec, x, tol=1e-12):
    """Membership of rows of x, written out from the stored fields with a rounding allowance."""
    if spec.kind == "intersection":
        return np.all([holds_point(p, x, tol) for p in spec.parts], axis=0)
    d = (x - np.array(spec.center)) / np.array(spec.axes)
    if spec.kind == "box":
        return np.max(np.abs(d), axis=1) <= 1.0 + tol
    return np.sum(d * d, axis=1) <= 1.0 + tol


@st.composite
def bodies(draw, n):
    """An off-centre ellipsoid, box, or ellipsoid-box intersection sharing a centre region."""
    def axial(kind, centre):
        axes = [draw(st.floats(0.1, 1.5)) for _ in range(n)]
        return (SetSpec.ellipsoid if kind == "ellipsoid" else SetSpec.box)(axes, centre)

    centre = [draw(st.floats(-2.0, 2.0)) for _ in range(n)]
    kind = draw(st.sampled_from(["ellipsoid", "box", "intersection"]))
    if kind != "intersection":
        return axial(kind, centre)
    # both parts hold the shared centre, so the intersection is not empty
    shifted = [c + draw(st.floats(-0.05, 0.05)) for c in centre]
    return SetSpec.intersection(axial("ellipsoid", centre), axial("box", shifted))


class TestCertifiedMembership:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.data())
    def test_certificates_are_sound(self, data):
        n = data.draw(st.integers(1, 4))
        a, b = data.draw(bodies(n)), data.draw(bodies(n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lo_a, hi_a = a.bounding_box()
        lo_b, hi_b = b.bounding_box()
        u = rng.uniform(lo_a + lo_b, hi_a + hi_b, size=(2000, n))
        state, witness = geometry._sumset_membership(a, b, u)
        inside = state == 1
        assert np.all(np.isnan(witness[~inside]))
        assert np.all(holds_point(b, witness[inside]))
        assert np.all(holds_point(a, u[inside] - witness[inside]))
        # a sum of a sampled pair is in A + B, so no certificate may put it outside
        x, _ = geometry._sample_in_set(a, 100_000, rng)
        y, _ = geometry._sample_in_set(b, 100_000, rng)
        assert not np.any(geometry._sumset_membership(a, b, x + y)[0] == -1)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("case", ["origin-balls", "boxes", "ball-box"])
    def test_certified_volume_matches_the_closed_forms(self, case, n):
        if case == "origin-balls":
            a, b = SetSpec.ball(1.0, n), SetSpec.ball(0.6, n)
            exact = kappa(n) * 1.6**n
        elif case == "boxes":
            wa, wb = np.linspace(0.3, 1.0, n), np.linspace(0.8, 0.2, n)
            a = SetSpec.box(wa, center=np.linspace(-1.0, 1.0, n))
            b = SetSpec.box(wb, center=np.linspace(0.5, -0.5, n))
            exact = float(np.prod(2.0 * (wa + wb)))
        else:
            half = np.linspace(0.2, 0.9, n)
            a = SetSpec.ball(0.5, n, center=np.linspace(0.3, -0.3, n))
            b = SetSpec.box(half, center=np.full(n, 0.7))
            exact = steiner_volume(0.5, half)
        estimates = [
            geometry._certified_sum_volume(a, b, ThetaSpec.full(), MonteCarloConfig(seed=seed))
            for seed in (1, 2, 3)
        ]
        assert all(undecided == 0 for _, undecided in estimates)
        mean = np.mean([e.value for e, _ in estimates])
        sigma = math.sqrt(sum(e.stderr**2 for e, _ in estimates)) / len(estimates)
        # box pairs fill their sampling box, so sigma is 0 and only rounding is left
        assert abs(mean - exact) <= 3.0 * sigma + 1e-12 * exact

    def test_translation_moves_nothing(self):
        a = SetSpec.ellipsoid([0.9, 0.6, 0.8])
        shift_a, shift_b = (0.3, -1.2, 2.0), (-5.0, 0.25, 1.0)
        moved_a = SetSpec.ellipsoid(a.axes, center=shift_a)
        moved_b = SetSpec.intersection(
            SetSpec.ball(1.0, 3, center=shift_b), SetSpec.box([0.8] * 3, center=shift_b)
        )
        here = geometry._certified_sum_volume(a, BALL_CAP_BOX, ThetaSpec.full(), FAST)
        there = geometry._certified_sum_volume(moved_a, moved_b, ThetaSpec.full(), FAST)
        assert there[1] == here[1] == 0
        assert there[0].value == pytest.approx(here[0].value, rel=1e-12)

    def test_sum_norm_cuts_the_sumset(self):
        # (A + B) cap t B^n: with t below the distance from the origin to the
        # boundary of A + B the cut is the whole ball t B^n
        a, b = SetSpec.box([1.0, 0.5]), SetSpec.ball(0.5, 2, center=(0.1, 0.0))
        est, undecided = geometry._certified_sum_volume(a, b, ThetaSpec.sum_norm_leq(0.9), FAST)
        assert undecided == 0
        assert abs(est.value - math.pi * 0.81) <= 3.0 * est.stderr

    @pytest.mark.parametrize("u, state", [
        (0.3, 1), (-1.19, 1), (1.79, 1), (-1.1999, 1), (1.7999, 1),
        (-1.2001, -1), (1.8001, -1), (5.0, -1),
    ], ids=["middle", "near-low", "near-high", "at-low", "at-high",
            "past-low", "past-high", "far"])
    def test_interval_sums_are_decided_at_their_ends(self, u, state):
        # [-0.5, 1.5] + [-0.7, 0.3] = [-1.2, 1.8]
        a = SetSpec.box([1.0], center=(0.5,))
        b = SetSpec.ball(0.5, 1, center=(-0.2,))
        got, witness = geometry._sumset_membership(a, b, np.array([[u]]))
        assert got.tolist() == [state]
        if state == 1:
            assert b.contains(witness) and a.contains(u - witness)

    def test_an_unfinished_solve_leaves_points_undecided(self, monkeypatch):
        # with no Newton step only the starting point's certificates are tried;
        # the undecided points count as outside and widen the stderr to cover them
        a = SetSpec.ellipsoid([0.9, 0.6, 0.8])
        full, undecided = geometry._certified_sum_volume(a, BALL_CAP_BOX, ThetaSpec.full(), FAST)
        assert undecided == 0
        monkeypatch.setattr(geometry, "_MAX_NEWTON_STEPS", 0)
        cut, undecided = geometry._certified_sum_volume(a, BALL_CAP_BOX, ThetaSpec.full(), FAST)
        assert undecided > 0
        assert cut.value < full.value <= cut.value + cut.stderr


class TestStalledPoints:
    """Sum points of an n = 6 ellipsoid and box that one barrier path leaves undecided.

    Each lies outside A + B: a direction d with <u, d> above the support
    values h_A(d) + h_B(d) separates it by 1e-3 to 8e-3.  With the weights
    lam ~ 1 / (s - q_k) of the barrier iterate at ``_BARRIER_GROWTH`` = 2,
    ``_dual_bound`` peaks near 0.994 about step 9 and then decays, so it
    never exceeds 1 within ``_MAX_NEWTON_STEPS``; the retry at
    ``_RETRY_GROWTH`` certifies them.  They are sum points drawn at
    pair_samples = 200,000: the first three under an earlier seeding of the
    draws, the last two at seeds 55 and 76, the only undecided points of
    seeds 0-199.
    """

    A = SetSpec.ellipsoid([1.0, 0.7, 0.4, 0.9, 0.6, 0.8])
    B = SetSpec.box([0.3] * 6)
    POINTS = np.array([
        [0.28185104622217527, -0.3548287223807616, -0.6062133690760678,
         0.8888853248958435, 0.3021989805023553, -0.29443287455464484],
        [-0.28865469993097403, -0.3021859472791286, -0.6286618240166333,
         0.8345050338161555, -0.1210525483866911, 0.3058603096893038],
        [-1.2000040310469895, 0.3000748350867073, 0.2913893900775325,
         -0.5242617636267379, 0.2926155915247941, 0.5886063106225212],
        [-0.28886180100352266, 0.6592199439766424, 0.2767162873001394,
         0.2929452853970671, 0.2924421673457387, 0.9945142055232692],
        [-0.299695714531236, 0.2837943405190859, 0.41711850732976186,
         0.2628795442249796, 0.27605344165268764, -1.0745583428964953],
    ])

    def test_recorded_points_read_outside(self):
        assert geometry._sumset_membership(self.A, self.B, self.POINTS)[0].tolist() == [-1] * 5

    def test_the_retry_solves_only_the_undecided_rows(self, monkeypatch):
        # two decided rows beside the five: the retry sees the five alone
        inside = np.zeros((1, 6))
        far = np.full((1, 6), 3.0)
        u = np.concatenate([inside, self.POINTS, far])
        solve = geometry._barrier_solve
        rows = []

        def recorded(A, B, points, growth):
            rows.append((len(points), growth))
            return solve(A, B, points, growth)

        monkeypatch.setattr(geometry, "_barrier_solve", recorded)
        state, witness = geometry._sumset_membership(self.A, self.B, u)
        assert state.tolist() == [1] + [-1] * 5 + [-1]
        assert rows == [(7, geometry._BARRIER_GROWTH), (5, geometry._RETRY_GROWTH)]
        assert np.all(np.isfinite(witness[0])) and np.all(np.isnan(witness[1:]))


def quadratic_rows(w, c, y):
    """q_k(y) = sum_j w[k, j] (y_j - c[k, j])^2 for one point y."""
    return np.sum(w * np.square(y - c), axis=1)


class TestCertificateParts:
    @pytest.mark.parametrize("spec, rows", [
        (SetSpec.ellipsoid([0.9, 0.4, 1.3], center=(0.2, -0.5, 1.0)), 1),
        (SetSpec.box([0.3, 1.1, 0.6], center=(-1.0, 0.0, 0.4)), 3),
        (SetSpec.intersection(SetSpec.ball(1.0, 3, center=(0.1, 0.1, 0.1)),
                              SetSpec.box([0.7, 0.5, 0.9])), 4),
    ], ids=["ellipsoid", "box", "intersection"])
    def test_pieces_describe_the_set(self, spec, rows):
        w, c = geometry._pieces(spec)
        assert w.shape == c.shape == (rows, spec.dim)
        lo, hi = spec.bounding_box()
        y = np.random.default_rng(4).uniform(lo - 0.2, hi + 0.2, size=(5000, spec.dim))
        worst = np.array([quadratic_rows(w, c, p).max() for p in y])
        clear = np.abs(worst - 1.0) > 1e-9
        assert np.array_equal(spec.contains(y)[clear], worst[clear] <= 1.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_dual_bound_is_below_the_largest_piece_everywhere(self, n, k, seed):
        # weak duality: for lam in the simplex, D(lam) <= max_k q_k(y) for every y
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.05, 20.0, size=(k, n))
        c = rng.uniform(-3.0, 3.0, size=(8, k, n))
        lam = rng.dirichlet(np.ones(k), size=8)
        dual, m = geometry._dual_bound(lam, w, c)
        for p in range(8):
            ys = np.vstack([m[p], rng.uniform(-4.0, 4.0, size=(200, n))])
            largest = np.array([quadratic_rows(w, c[p], y).max() for y in ys])
            assert np.all(dual[p] <= largest)
            # m minimises the lam-weighted sum, which D trails only by its rounding bound
            weighted = np.array([lam[p] @ quadratic_rows(w, c[p], y) for y in ys])
            assert weighted.argmin() == 0
            assert 0.0 <= weighted[0] - dual[p] <= 1e-9 * (1.0 + weighted[0])


class TestHitOrMiss:
    BOX = (np.zeros(2), np.array([2.0, 1.0]))

    def rng(self):
        return np.random.default_rng(5)

    def test_undecided_points_count_as_outside_and_widen_the_stderr(self):
        def member(u):
            return np.where(u[:, 0] < 1.0, 1, np.where(u[:, 0] < 1.2, 0, -1))

        points = 40_000
        est, undecided = geometry._hit_or_miss(*self.BOX, member, points, self.rng())
        assert abs(undecided / points - 0.1) < 0.01
        p = est.value / 2.0
        binomial = 2.0 * math.sqrt(p * (1.0 - p) / points)
        assert est.stderr == pytest.approx(binomial + 2.0 * undecided / points, rel=1e-12)
        # the decided half is the volume read; the undecided tenth lies above it
        assert abs(est.value - 1.0) <= 3.0 * binomial
        assert est.samples == points and est.method == "mc_hit_or_miss"

    def test_empty_box_has_volume_zero(self):
        def member(u):
            raise AssertionError("an empty box draws no point")

        lo, hi = np.zeros(2), np.array([1.0, 0.0])
        est, undecided = geometry._hit_or_miss(lo, hi, member, 1000, self.rng())
        assert (est.value, est.stderr, undecided) == (0.0, 0.0, 0)

    def test_no_hit_raises(self):
        with pytest.raises(DegenerateSampleError):
            geometry._hit_or_miss(*self.BOX, lambda u: np.full(len(u), -1), 1000, self.rng())


class TestPowerCheckCore:
    """The two 2/n-power checks share one estimate of every volume."""

    CHECKS = (
        check_theorem12,
        lambda a, b, th, cfg: check_corollary15(a, b, th, 0.05, cfg),
    )

    def test_each_input_volume_computed_once(self, monkeypatch):
        calls = []
        real = geometry.volume

        def counting(spec, *args):
            calls.append(spec.kind)
            return real(spec, *args)

        monkeypatch.setattr(geometry, "volume", counting)
        cfg = MonteCarloConfig(pair_samples=20_000, seed=3)
        for check in self.CHECKS:
            calls.clear()
            check(SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX, ThetaSpec.full(), cfg)
            assert calls == ["ellipsoid", "intersection"]

    def test_context_volumes_are_the_restricted_sum_volumes(self):
        a, b = SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX
        rsv = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)
        assert rsv["volume_a"] == volume(a)
        assert rsv["volume_b"].method == "mc_hit_or_miss"
        rep = check_corollary15(a, b, ThetaSpec.full(), 0.05, FAST)
        assert rep.context["volume_a"] == rsv["volume_a"].value
        assert rep.context["volume_b"] == rsv["volume_b"].value
        assert rep.context["theta_volume"] == rsv["theta_volume"]
        assert rep.context["sum_volume"] == rsv["sum_volume"]

    def test_reports_carry_rejection_proposals(self):
        a, b = SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX
        proposals = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)["rejection_proposals"]
        for check in self.CHECKS:
            rep = check(a, b, ThetaSpec.full(), FAST)
            assert rep.context["rejection_proposals"] == proposals

    def test_corollary15_ci_counts_monte_carlo_input_volumes(self):
        # at delta = 0 the rhs factor is 1, so the CI must match theorem12's,
        # which includes the stderr of the Monte Carlo volume of B
        a, b = SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX
        r15 = check_corollary15(a, b, ThetaSpec.full(), 0.0, FAST)
        r12 = check_theorem12(a, b, ThetaSpec.full(), FAST)
        assert r15.ci_halfwidth == r12.ci_halfwidth

    @pytest.mark.parametrize("vol, spread", [
        (VolumeEstimate(value=2.0, stderr=4e-12, samples=0, method="closed_form"), 4e-12),
        (VolumeEstimate(value=2.0, stderr=0.01, samples=5000, method="mc_hit_or_miss"),
         Z99 * 0.01),
        (VolumeEstimate(value=2.0, stderr=0.0, samples=0, method="exact"), 0.0),
    ], ids=["closed_form", "mc_hit_or_miss", "exact"])
    def test_spread_of_each_method(self, vol, spread):
        # a closed form's stderr is already its rounding bracket; Monte Carlo is read at 99%
        assert geometry._spread(vol) == spread
        assert geometry._power_ci(vol, 4) == pytest.approx(0.5 * 2.0**-0.5 * spread, rel=1e-15)

    def test_negative_rhs_factor_is_a_vacuous_bound(self):
        # n = 1 and delta = 1/2 give 1 - 3/2 < 0: rhs and its CI share clamp to 0
        rep = check_corollary15(
            SetSpec.ball(1.0, 1), SetSpec.ball(0.5, 1), ThetaSpec.full(), 0.5, FAST
        )
        assert rep.context["rhs_factor"] == pytest.approx(-0.5)
        assert rep.rhs == 0.0
        assert rep.verdict == "holds"


class TestTheoremTwelve:
    def test_cube_pair_exact_margin(self):
        # [-1,1]^3 + [-1,1]^3 = [-2,2]^3: lhs -> 64^(2/3) = 16, rhs = 8
        rep = check_theorem12(
            SetSpec.box([1, 1, 1]), SetSpec.box([1, 1, 1]), ThetaSpec.full(),
            MonteCarloConfig(pair_samples=400_000, seed=5),
        )
        assert rep.rhs == pytest.approx(8.0, abs=1e-12)
        assert rep.lhs <= 16.0 + 1e-9
        assert rep.deficit > 0
        assert rep.verdict == "holds"
        assert rep.context["gate"]["passed"]

    def test_ball_equality_deficit_within_ci(self):
        # equality configuration: the orthogonality constraint keeps half
        # the pairs, so the near-full gate fails and the verdict stays
        # inconclusive, but the measured deficit must straddle zero
        rep = check_theorem12(
            SetSpec.ball(1, 4), SetSpec.ball(0.7, 4), ThetaSpec.inner_product_leq(0.0),
            MonteCarloConfig(pair_samples=2_000_000, seed=5),
        )
        gate = rep.context["gate"]
        assert gate["fraction"] == 0.5
        assert gate["source"] == "by_construction"
        assert not gate["passed"]
        assert rep.verdict == "inconclusive"
        assert abs(rep.deficit) <= rep.ci_halfwidth

    def test_sum_norm_gate_via_cap_quadrature(self, monkeypatch):
        # equality-radius sum-norm constraint on balls: the gate fraction
        # comes from the cap integral, and passes with a larger gate constant
        monkeypatch.setattr(geometry, "THEOREM12_C", 0.2)
        rep = check_theorem12(
            SetSpec.ball(1, 5), SetSpec.ball(0.5, 5), ThetaSpec.sum_norm_leq(math.sqrt(1.25)),
            MonteCarloConfig(pair_samples=1_000_000, seed=5),
        )
        gate = rep.context["gate"]
        assert gate["source"] == "quadrature"
        assert gate["passed"]
        assert 0.80 <= gate["fraction"] <= 0.82
        assert rep.verdict == "holds"

    def test_equal_axis_ellipsoids_get_the_ball_quadrature_gate(self, monkeypatch):
        monkeypatch.setattr(geometry, "THEOREM12_C", 0.2)
        theta = ThetaSpec.sum_norm_leq(math.sqrt(1.25))
        cfg = MonteCarloConfig(pair_samples=20_000, seed=5)
        balls = check_theorem12(SetSpec.ball(1, 5), SetSpec.ball(0.5, 5), theta, cfg)
        ellipsoids = check_theorem12(
            SetSpec.ellipsoid([1.0] * 5), SetSpec.scaled(SetSpec.ellipsoid([1.0] * 5), 0.5),
            theta, cfg,
        )
        assert ellipsoids.context["gate"]["source"] == "quadrature"
        assert ellipsoids.context["gate"] == balls.context["gate"]
        assert ellipsoids.verdict == balls.verdict

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 64), st.floats(0.1, 0.9))
    def test_default_gate_constant_admits_the_equality_case(self, n, rho):
        # at Theta = {|x + y| <= sqrt(1 + rho^2)} on B^n and rho B^n the
        # theorem's gate admits any c below (1 - fraction) / min(rho sqrt(n), 1)
        theta = ThetaSpec.sum_norm_leq(math.sqrt(1.0 + rho * rho))
        fraction = geometry._theta_fraction_quadrature(
            SetSpec.ball(1.0, n), SetSpec.ball(rho, n), theta
        )
        assert geometry.THEOREM12_C < (1.0 - fraction) / min(rho * math.sqrt(n), 1.0)

    def test_report_serializes(self):
        rep = check_theorem12(
            SetSpec.box([1, 1]), SetSpec.box([0.5, 0.5]), ThetaSpec.full(), FAST
        )
        blob = _jsonable(rep)
        assert blob["verdict"] == "holds"
        assert blob["context"]["n"] == 2


class TestCorollaryFifteen:
    def test_delta_zero_reduces_to_plain_rhs(self):
        a, b = SetSpec.ball(1, 3), SetSpec.ball(0.6, 3)
        r15 = check_corollary15(a, b, ThetaSpec.full(), 0.0, FAST)
        r12 = check_theorem12(a, b, ThetaSpec.full(), FAST)
        assert r15.rhs == r12.rhs

    def test_delta_range(self):
        with pytest.raises(ParameterError):
            check_corollary15(SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.full(), 0.6, FAST)

    def test_tiny_summand_fubini_regime(self):
        rep = check_corollary15(
            SetSpec.ball(1, 3), SetSpec.ball(0.15, 3), ThetaSpec.full(), 0.05, FAST
        )
        assert rep.context["gate"]["passed"]
        assert rep.verdict == "holds"

    def test_random_complement_gate_by_construction(self):
        # dropping a 5% hash subset exactly meets the (1 - delta) gate
        rep = check_corollary15(
            SetSpec.ball(1, 4), SetSpec.ball(1, 4), ThetaSpec.complement_fraction(0.05), 0.05,
            MonteCarloConfig(pair_samples=1_000_000, seed=7),
        )
        gate = rep.context["gate"]
        assert gate["source"] == "by_construction"
        assert gate["fraction"] == 0.95
        assert gate["passed"]
        assert rep.verdict == "holds"


class TestFubini:
    """The slice bound lambda(A +_Theta B) >= fraction max(lambda(A), lambda(B)) in the context."""

    @staticmethod
    def slice_bound(a, b, theta):
        return check_theorem12(a, b, theta, FAST).context["slice_bound"]

    def test_full_theta_simplifies_to_monotonicity(self):
        a, b = SetSpec.ball(1, 3), SetSpec.ball(0.6, 3)
        bound = self.slice_bound(a, b, ThetaSpec.full())
        assert bound["rhs"] == volume(a).value
        assert bound["verdict"] == "holds"

    def test_half_space_theta(self):
        a, b = SetSpec.ball(1, 3), SetSpec.ball(0.8, 3)
        bound = self.slice_bound(a, b, ThetaSpec.inner_product_leq(0.0))
        assert bound["rhs"] == 0.5 * volume(a).value
        assert bound["verdict"] == "holds"

    def test_random_complement_on_boxes(self):
        bound = self.slice_bound(
            SetSpec.box([1, 1]), SetSpec.box([0.5, 0.5]), ThetaSpec.complement_fraction(0.2)
        )
        assert bound["rhs"] == pytest.approx(0.8 * 4.0, rel=1e-15)
        assert bound["verdict"] == "holds"

    def test_the_larger_body_sets_the_rhs(self):
        # a slice of either body lies in the sumset, so the order of A and B is free
        a, b = SetSpec.ball(0.5, 2), SetSpec.ball(1, 2)
        bound = self.slice_bound(a, b, ThetaSpec.full())
        assert bound == self.slice_bound(b, a, ThetaSpec.full())
        assert bound["rhs"] == volume(b).value

    def test_sampled_sum_volume_enters_the_ci_at_99_percent(self):
        a, b = SetSpec.ellipsoid([1.0, 0.8, 0.9]), SetSpec.ellipsoid([0.5, 0.6, 0.4])
        bound = self.slice_bound(a, b, ThetaSpec.full())
        sv = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)["sum_volume"]
        assert sv.method == "mc_hit_or_miss"
        assert bound["ci_halfwidth"] >= Z99 * sv.stderr
        assert bound["deficit"] == sv.value - bound["rhs"]


class TestSymmetrization:
    def test_balls_are_fixed_points(self):
        balls = SetSpec.ball(1, 2), SetSpec.ball(0.7, 2), SetSpec.ball(1.2, 2)
        rep = bll_symmetrization_check(*balls, FAST)
        # rearranging balls reproduces the same configuration, so the rhs is
        # bit for bit the pair mass of the balls drawn on the rhs's own purpose
        a, b, c = balls
        m = FAST.pair_samples
        rng = geometry._rng(FAST, geometry._BALL_PAIRS)
        p = geometry._pair_hits(a, b, lambda x, y: c.contains(x + y), m, rng)[0] / m
        assert rep.rhs == p * volume(a).value * volume(b).value
        assert rep.verdict == "holds"

    def test_shifted_box_against_balls(self):
        rep = bll_symmetrization_check(
            SetSpec.box([0.5, 0.5], center=(0.3, 0.1)),
            SetSpec.ball(0.7, 2),
            SetSpec.ball(1.0, 2),
            MonteCarloConfig(pair_samples=1_000_000, seed=5),
        )
        assert rep.lhs <= rep.rhs + rep.ci_halfwidth
        assert rep.verdict in ("holds", "inconclusive")

    def test_inactive_constraint_gives_equality(self):
        rep = bll_symmetrization_check(
            SetSpec.ball(1, 2), SetSpec.ball(0.7, 2), SetSpec.ball(50.0, 2), FAST
        )
        pair_vol = math.pi * math.pi * 0.49
        assert rep.lhs == pytest.approx(pair_vol, rel=1e-12)
        assert rep.rhs == pytest.approx(pair_vol, rel=1e-12)

    @pytest.mark.parametrize("seed, lhs, rhs, ci", [
        (3, 2.8851785844316096, 2.9936151147536085, 0.007041396585033444),
        (4, 2.8852331335819117, 2.989111941841999, 0.006987670793466981),
    ], ids=["seed3", "seed4"])
    def test_each_volume_computed_once(self, monkeypatch, seed, lhs, rhs, ci):
        # one volume per input body and one per ball that is sampled; the
        # report is pinned at each estimate drawing on its own seed
        calls = []
        counted = geometry.volume
        monkeypatch.setattr(geometry, "volume", lambda *a: calls.append(a[0]) or counted(*a))
        rep = bll_symmetrization_check(
            BALL_CAP_BOX,
            SetSpec.ellipsoid([0.6, 0.5, 0.7], center=(0.1, 0.0, -0.1)),
            SetSpec.intersection(SetSpec.ball(1.5, 3), SetSpec.box([1.2, 1.0, 1.1])),
            MonteCarloConfig(pair_samples=100_000, seed=seed),
        )
        assert len(calls) == 5
        assert (rep.lhs, rep.rhs, rep.ci_halfwidth, rep.verdict) == (lhs, rhs, ci, "holds")

    def test_dimension_limit(self):
        with pytest.raises(ParameterError):
            bll_symmetrization_check(
                SetSpec.ball(1, 5), SetSpec.ball(1, 5), SetSpec.ball(1, 5), FAST
            )


class TestCapFraction:
    def test_containment_branch_is_exact(self):
        # small r0 leaves the shifted ball inside the big one
        assert cap_fraction(3, 0.5, 0.05) == 1.0
        assert cap_fraction(2, 1.0, 0.3) == 1.0

    def test_normalization_identity(self):
        # I_{1/2}(p, p) = 1/2 by symmetry, which pins the Gamma-ratio prefactor
        for n in (2, 3, 8, 29, 30, 59, 60, 61, 128, 10**4, 3 * 10**4, 10**5):
            p = 0.5 * (n + 1)
            assert math.exp(geometry._log_beta_ratio(p, 0.5)) == pytest.approx(0.5, abs=1e-13)

    def test_log_beta_ratio_matches_betainc(self):
        xs = np.concatenate([np.geomspace(1e-12, 0.1, 23), np.linspace(0.1, 0.5, 81)])
        for n in (2, 3, 8, 128, 10**4):
            p = 0.5 * (n + 1)
            for x in xs:
                ref = betainc(p, p, x)
                if ref > 1e-300:
                    got = math.exp(geometry._log_beta_ratio(p, float(x)))
                    assert got == pytest.approx(ref, rel=1e-12), (n, x)

    def test_just_past_containment_is_one(self):
        # rounding can push the beta arguments just below zero here
        for rho in (0.05, 0.3, 0.77, 1.0):
            r0 = math.nextafter(math.sqrt(1.0 + rho * rho) - rho, 2.0)
            assert cap_fraction(5, rho, r0) == pytest.approx(1.0, abs=1e-12)

    def test_large_n_keeps_the_lens(self):
        # at rho = r0 = 1 the plane passes through the centre, and the lens
        # adds about 1/sqrt(2 pi n): a share that adaptive quadrature lost
        for n in (3 * 10**4, 10**5):
            excess = cap_fraction(n, 1.0, 1.0) - 0.5
            assert excess == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * n), rel=1e-3)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(2, 4096), st.floats(1e-3, 1.0), st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
    def test_never_increases_in_r0(self, n, rho, r0, step):
        # Anderson's theorem: the overlap of two centred balls shrinks as
        # their centres move apart; check_lemma13 reads c1 at the inner r0
        # for this reason.  One rounding of the shares is allowed.
        farther = r0 + step * (1.0 - r0)
        assert cap_fraction(n, rho, farther) <= cap_fraction(n, rho, r0) + 1e-15

    def test_decreasing_in_r0(self):
        vals = [cap_fraction(2, 1.0, r) for r in (0.75, 0.9, 1.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] == pytest.approx(0.8387462489649887, abs=1e-9)
        assert vals[2] == pytest.approx(0.6816901138162095, abs=1e-9)

    def test_first_integral_matches_betainc_oracle(self):
        # the plane-cut share of the small ball is a regularized
        # incomplete beta value; scipy computes it independently
        for n, rho, r0 in ((4, 0.8, 0.95), (7, 0.5, 0.99), (3, 0.3, 0.999)):
            s, first, _ = geometry._cap_shares(n, rho, r0)
            oracle = betainc(0.5 * (n + 1), 0.5 * (n + 1), 0.5 * (1.0 + s / rho))
            assert first == pytest.approx(oracle, abs=1e-9)

    def test_matches_planar_monte_carlo(self):
        frac = cap_fraction(2, 1.0, 1.0)
        rng = np.random.default_rng(123)
        pts = rng.uniform(-1, 1, size=(1_000_000, 2))
        y = pts[(pts**2).sum(axis=1) <= 1.0]
        hit = ((y + np.array([1.0, 0.0])) ** 2).sum(axis=1) <= 2.0
        mc = hit.mean()
        sigma = math.sqrt(mc * (1 - mc) / len(y))
        assert abs(mc - frac) <= 3.0 * sigma

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            cap_fraction(1, 0.5, 0.5)
        with pytest.raises(ParameterError):
            cap_fraction(3, 1.5, 0.5)
        with pytest.raises(ParameterError):
            cap_fraction(3, 0.5, 0.0)

    def test_first_integral_trend_reaches_normal_cdf(self):
        target = ndtr(1.0)
        errs = []
        for n in (10, 100, 1000, 10000):
            errs.append(abs(first_integral_fraction_at_extremal_r0(n, 1.0) - target))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[3] <= 0.02


class TestLemmaThirteen:
    def test_planar_value(self):
        out = check_lemma13(2, 1.0)
        assert out["c1_estimate"] == pytest.approx(0.16125375103501127, abs=1e-6)
        assert out["report"].verdict == "holds"
        assert out["report"].context["implied_c"] == pytest.approx(0.0907052, abs=1e-5)

    def test_uniform_lower_bound_small_rho(self):
        for n in (2, 8, 32, 128):
            out = check_lemma13(n, 0.1)
            assert out["c1_estimate"] > 0.05

    def test_scanned_fractions_never_exceed_one(self):
        tau = 0.5 * min(1.0 * math.sqrt(3), 1.0)
        for r0 in np.linspace(1.0 - tau / 3.0, 1.0, 9):
            assert cap_fraction(3, 1.0, float(r0)) <= 1.0

    # (n, rho): c1_estimate, implied_c, deficit as the 33-point r0 scan
    # computed them; reading c1 at the scan's first point changes no bit.  The
    # scan lost 8e-13 to cancellation at (2048, 0.01), whose values are a
    # 60-digit reference instead
    SCAN_VALUES = {
        (2, 1.0): (0.16125375103501138, 0.0907052349571939, 0.0907052349571939),
        (3, 0.5): (0.2000986333526884, 0.14475077104242542, 0.1253578449401253),
        (8, 0.1): (0.28871543185535864, 0.8850282581053887, 0.2503237931392154),
        (32, 0.01): (0.30612614026245877, 5.260612248765812, 0.2975851675436255),
        (128, 0.5): (0.44721975175509965, 0.2709870341770172, 0.2709870341770172),
        (512, 1.0): (0.47360978701602807, 0.2871886878878216, 0.2871886878878216),
        (2048, 0.1): (0.45512558402897296, 0.2760307698950734, 0.2760307698950734),
        (2048, 0.01): (0.30842318772152629, 0.54350931647090688, 0.24596423892137189),
    }

    @pytest.mark.parametrize("n, rho", list(SCAN_VALUES))
    def test_matches_the_r0_scan(self, n, rho):
        out = check_lemma13(n, rho)
        report = out["report"]
        got = (out["c1_estimate"], report.context["implied_c"], report.deficit)
        assert got == pytest.approx(self.SCAN_VALUES[n, rho], rel=1e-13, abs=0)
        assert report.verdict == "holds"

    # (n, rho): c1 from a 50-digit evaluation of the same two beta ratios.  Once
    # rho sqrt(n) << 1, c1 levels off near 0.3085; forming 1 - r0 from the
    # rounded r0 = 1 - tau/n lost it to cancellation (c1 = 0 at (1e6, 1e-6),
    # an OverflowError at (1e6, 6.3e-8), 0.5 at rho = 1e-16, drift at 1e-12)
    SMALL_OFFSET_C1 = {
        (10**6, 1e-6): 0.30853748331969789,
        (10**7, 1e-6): 0.30853753309971665,
        (10**6, 6.309573444801943e-08): 0.30853748369078055,
        (10**5, 1e-12): 0.30853698862306164,
        (10**6, 1e-12): 0.30853748371577068,
        (10**7, 1e-12): 0.30853753322496596,
        (2, 1e-16): 0.27970217208174394,
        (128, 1e-16): 0.30810725543940184,
        (10**6, 1e-16): 0.30853748371577108,
        (10**7, 1e-300): 0.30853753322496608,
        # rho^2 is subnormal here; an x formed from it overflowed the lens share
        (10**6, 4.0933107541968894e-161): 0.30853748371577108,
    }

    @pytest.mark.parametrize("n, rho", list(SMALL_OFFSET_C1))
    def test_small_offsets_keep_c1(self, n, rho):
        out = check_lemma13(n, rho)
        assert out["c1_estimate"] == pytest.approx(self.SMALL_OFFSET_C1[n, rho], rel=1e-12)
        assert out["report"].deficit > 0
        assert out["report"].verdict == "holds"

    def test_validation(self):
        with pytest.raises(ParameterError):
            check_lemma13(1, 0.5)
        # 1/rho overflows for a subnormal rho, and the lens share reads NaN
        with pytest.raises(ParameterError, match="5e-324"):
            check_lemma13(2, 5e-324)


class TestBallExample:
    def test_equality_gap_zero(self):
        out = ball_example_exact(0.5, 3)
        assert abs(out["equality_gap"]) <= 1e-12
        assert out["theta_fraction"] == 0.5
        assert out["sum_radius"] == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_fraction_independent_of_rho(self):
        for rho in (0.1, 0.5, 0.99):
            assert ball_example_exact(rho, 4)["theta_fraction"] == 0.5

    def test_the_line_is_refused(self):
        # on the line the orthogonal sum is [-1, 1], not sqrt(1 + rho^2) B^1
        with pytest.raises(ParameterError, match="n >= 2"):
            ball_example_exact(0.9, 1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ball_example_exact(1.0, 3)
        with pytest.raises(ParameterError):
            ball_example_exact(0.5, 0)
