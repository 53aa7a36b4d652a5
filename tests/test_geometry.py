"""Tests for restricted Minkowski sum volumes and inequality checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, ndtr
from scipy.stats import kstest

import freesum.geometry as geometry
from freesum.errors import DegenerateSampleError, ParameterError
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
    check_remark16,
    check_theorem12,
    first_integral_fraction_at_extremal_r0,
    fubini_lower_bound,
    register_theta_predicate,
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
        with pytest.raises(ParameterError):
            MonteCarloConfig(C=bad)

    def test_theta_validation(self):
        with pytest.raises(ParameterError):
            ThetaSpec.sum_norm_leq(0.0)
        with pytest.raises(ParameterError):
            ThetaSpec.complement_fraction(1.0)
        with pytest.raises(ParameterError):
            ThetaSpec.custom("")
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
            CheckReport(lhs=1, rhs=1, deficit=0, ci_halfwidth=0, verdict="maybe")
        with pytest.raises(ParameterError):
            CheckReport(lhs=1, rhs=1, deficit=0, ci_halfwidth=-1, verdict="holds")

    def test_mc_config_validation(self):
        with pytest.raises(ParameterError):
            MonteCarloConfig(pair_samples=10)
        with pytest.raises(ParameterError):
            MonteCarloConfig(c=0.0)
        with pytest.raises(ParameterError):
            MonteCarloConfig(C=-1.0)

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
        rsv = restricted_sum_volume(*pair, ThetaSpec.full(), FAST)
        assert rsv["rejection_proposals"] == 2 * rsv["pair_samples"]


class TestRestrictedSum:
    def test_disk_doubling_close_to_4pi(self):
        # A + A = 2A for convex A; full pair constraint on two unit disks
        cfg = MonteCarloConfig(pair_samples=10_000_000, grid_cells_per_axis=512, seed=11)
        rsv = restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.full(), cfg)
        sv = rsv["sum_volume"]
        assert sv.method == "occupancy_grid"
        assert abs(sv.value - 4.0 * math.pi) <= 0.03 * 4.0 * math.pi

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
        # sqrt(1.64) B^3; occupancy is low-biased with a covering allowance
        cfg = MonteCarloConfig(pair_samples=1_000_000, seed=3)
        rsv = restricted_sum_volume(
            SetSpec.ball(1, 3), SetSpec.ball(0.8, 3), ThetaSpec.inner_product_leq(0.0), cfg
        )
        target = (1.0 + 0.64) ** 1.5 * unit_ball_volume(3)
        sv = rsv["sum_volume"]
        assert sv.value <= 1.05 * target
        assert sv.value + 3.0 * sv.stderr >= target

    def test_no_admitted_pairs_raises(self):
        with pytest.raises(DegenerateSampleError):
            restricted_sum_volume(
                SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.inner_product_leq(-100.0), FAST
            )

    def test_grid_size_guard(self):
        with pytest.raises(ParameterError):
            restricted_sum_volume(
                SetSpec.ball(1, 4),
                SetSpec.ball(1, 4),
                ThetaSpec.full(),
                MonteCarloConfig(pair_samples=10_000, grid_cells_per_axis=512),
            )

    def test_dimension_limits(self):
        with pytest.raises(ParameterError):
            restricted_sum_volume(SetSpec.ball(1, 7), SetSpec.ball(1, 7), ThetaSpec.full(), FAST)
        with pytest.raises(ParameterError):
            restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(1, 3), ThetaSpec.full(), FAST)

    def test_thread_count_never_changes_results(self):
        base = MonteCarloConfig(pair_samples=100_000, seed=9, threads=1)
        multi = MonteCarloConfig(pair_samples=100_000, seed=9, threads=3)
        a, b = SetSpec.ball(1, 2), SetSpec.box([0.6, 0.6])
        r1 = restricted_sum_volume(a, b, ThetaSpec.complement_fraction(0.3), base)
        r2 = restricted_sum_volume(a, b, ThetaSpec.complement_fraction(0.3), multi)
        assert r1["theta_volume"].value == r2["theta_volume"].value
        assert r1["sum_volume"].value == r2["sum_volume"].value
        assert r1["theta_hits"] == r2["theta_hits"]
        # exact draws on one side, rejection from an intersection on the other
        a = SetSpec.ellipsoid([1.2, 0.7, 0.9], center=(0.1, 0.0, -0.2))
        for theta in (ThetaSpec.full(), ThetaSpec.inner_product_leq(0.1)):
            r1 = restricted_sum_volume(a, BALL_CAP_BOX, theta, base)
            r2 = restricted_sum_volume(a, BALL_CAP_BOX, theta, multi)
            assert r1 == r2
        b1 = bll_symmetrization_check(a, BALL_CAP_BOX, SetSpec.ball(1.5, 3), base)
        b3 = bll_symmetrization_check(a, BALL_CAP_BOX, SetSpec.ball(1.5, 3), multi)
        assert b1.to_json() == b3.to_json()

    @pytest.mark.parametrize("full", [True, False], ids=["full", "restricted"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_marking_matches_ravel_multi_index_reference(self, n, full):
        rng = np.random.default_rng(40 + n)
        lo_a, hi_a = -rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
        lo_b, hi_b = -rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
        lo, hi = lo_a + lo_b, hi_a + hi_b
        s = rng.uniform(lo_a, hi_a, (3000, n)) + rng.uniform(lo_b, hi_b, (3000, n))
        # sums one rounding step below the grid in one or every coordinate,
        # exactly on its top faces, and on mixed corners,
        below = np.nextafter(lo, -np.inf)
        axis = rng.integers(n, size=20)
        s[np.arange(20), axis] = below[axis]
        s[20:40] = below
        s[40:60] = hi
        s[60] = np.where(np.arange(n) % 2, below, hi)
        s[61] = np.where(np.arange(n) % 2, hi, lo)
        keep = None if full else rng.random(len(s)) < 0.6
        cells = int(rng.integers(2, 9))
        widths = (hi - lo) / cells
        # and one and a half cells outside, which clipping folds back in
        s[62:70] = lo - 1.5 * widths
        s[70:78] = hi + 1.5 * widths
        rows = s if keep is None else s[keep]
        idx = np.clip(((rows - lo) / widths).astype(np.int64), 0, cells - 1)
        reference = np.bincount(np.ravel_multi_index(idx.T, (cells,) * n), minlength=cells**n)

        grid = geometry._OccupancyGrid(lo, hi, cells, len(s))
        work = s.copy()
        # two calls of unequal length use the scratch buffers partly
        grid.mark(work[:1100], None if full else keep[:1100])
        grid.mark(work[1100:], None if full else keep[1100:])
        assert np.array_equal(grid.counts, reference)
        assert grid.counts.sum() == len(rows)

    def test_seed_reproducibility(self):
        r1 = restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(0.5, 2), ThetaSpec.full(), FAST)
        r2 = restricted_sum_volume(SetSpec.ball(1, 2), SetSpec.ball(0.5, 2), ThetaSpec.full(), FAST)
        assert r1["sum_volume"].value == r2["sum_volume"].value
        assert r1["theta_volume"].value == r2["theta_volume"].value

    def test_nested_thetas_monotone(self):
        # dropping more pairs can only shrink the observed sumset when the
        # kept subsets are nested, which a shared hash seed guarantees
        a, b = SetSpec.ball(1, 2), SetSpec.ball(0.7, 2)
        values = []
        for d in (0.0, 0.3, 0.6):
            rsv = restricted_sum_volume(a, b, ThetaSpec.complement_fraction(d), FAST)
            values.append(rsv["sum_volume"].value)
        assert values[0] >= values[1] >= values[2]

    def test_restricted_subset_of_full(self):
        a, b = SetSpec.box([1.0, 0.5]), SetSpec.ball(0.5, 2)
        full = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)
        part = restricted_sum_volume(a, b, ThetaSpec.inner_product_leq(0.1), FAST)
        assert part["sum_volume"].value <= full["sum_volume"].value

    def test_brunn_minkowski_sanity(self):
        cfg = MonteCarloConfig(pair_samples=1_000_000, seed=11)
        a, b = SetSpec.ball(1, 2), SetSpec.ball(0.6, 2)
        rsv = restricted_sum_volume(a, b, ThetaSpec.full(), cfg)
        sv = rsv["sum_volume"]
        lhs = sv.value**0.5
        rhs = volume(a).value**0.5 + volume(b).value**0.5
        tol = 0.5 * sv.value ** (-0.5) * 3.0 * sv.stderr
        assert lhs >= rhs - tol

    def test_face_rim_of_hand_built_grids(self):
        grid = np.zeros((5, 5, 5), dtype=bool)
        grid[2, 2, 2] = True
        rim = geometry._face_rim(grid)
        assert np.count_nonzero(rim) == 6
        assert not rim[2, 2, 2] and rim[1, 2, 2] and rim[2, 2, 3]
        assert not rim[1, 1, 2]  # shares an edge only
        corner = np.zeros((5, 5, 5), dtype=bool)
        corner[0, 0, 0] = True
        rim = geometry._face_rim(corner)
        assert np.count_nonzero(rim) == 3
        assert rim[1, 0, 0] and rim[0, 1, 0] and rim[0, 0, 1]
        # marked cells are never part of the rim
        block = np.zeros((4, 4), dtype=bool)
        block[1:3, 1:3] = True
        assert np.count_nonzero(geometry._face_rim(block)) == 8

    def test_face_rim_matches_neighbour_reference(self):
        def reference(grid):
            padded = np.pad(grid, 1)
            rim = np.zeros_like(grid)
            for axis in range(grid.ndim):
                for start in (0, 2):
                    idx = [slice(1, -1)] * grid.ndim
                    idx[axis] = slice(start, start + grid.shape[axis])
                    rim |= padded[tuple(idx)]
            return rim & ~grid

        rng = np.random.default_rng(0)
        for n in range(1, 7):
            for p in (0.05, 0.3, 0.7):
                grid = rng.random((4,) * n) < p
                assert np.array_equal(geometry._face_rim(grid), reference(grid))
        for shape in ((1,), (1, 2, 5), (2, 1, 3, 1)):
            grid = rng.random(shape) < 0.5
            assert np.array_equal(geometry._face_rim(grid), reference(grid))

    def test_custom_theta_predicate(self):
        register_theta_predicate("first_coords_opposite", lambda x, y: x[:, 0] * y[:, 0] <= 0.0)
        rsv = restricted_sum_volume(
            SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.custom("first_coords_opposite"), FAST
        )
        pair_vol = math.pi**2
        frac = rsv["theta_volume"].value / pair_vol
        assert abs(frac - 0.5) <= 3.0 * rsv["theta_volume"].stderr / pair_vol
        with pytest.raises(ParameterError):
            restricted_sum_volume(
                SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.custom("never_registered"), FAST
            )


class TestPowerCheckCore:
    """The three 2/n-power checks share one estimate of every volume."""

    CHECKS = (
        check_theorem12,
        lambda a, b, th, cfg: check_corollary15(a, b, th, 0.05, cfg),
        lambda a, b, th, cfg: check_remark16(a, b, th, 0.5, cfg),
        fubini_lower_bound,
    )

    def test_each_input_volume_computed_once(self, monkeypatch):
        calls = []
        real = geometry.volume

        def counting(spec, cfg=None):
            calls.append(spec.kind)
            return real(spec, cfg)

        monkeypatch.setattr(geometry, "volume", counting)
        cfg = MonteCarloConfig(pair_samples=20_000, seed=3)
        for check in self.CHECKS:
            calls.clear()
            check(SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX, ThetaSpec.full(), cfg)
            assert calls == ["ellipsoid", "intersection"]

    def test_context_volumes_are_the_restricted_sum_volumes(self):
        a, b = SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX
        rsv = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)
        assert rsv["volume_a"] == volume(a, FAST)
        assert rsv["volume_b"] == volume(b, FAST)
        rep = check_remark16(a, b, ThetaSpec.full(), 0.5, FAST)
        assert rep.context["volume_a"] == rsv["volume_a"].value
        assert rep.context["volume_b"] == rsv["volume_b"].value
        assert rep.context["sum_volume"] == rsv["sum_volume"].to_json()

    def test_reports_carry_rejection_proposals(self):
        a, b = SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX
        proposals = restricted_sum_volume(a, b, ThetaSpec.full(), FAST)["rejection_proposals"]
        for check in self.CHECKS[:3]:
            rep = check(a, b, ThetaSpec.full(), FAST)
            assert rep.context["rejection_proposals"] == proposals

    def test_corollary15_ci_counts_monte_carlo_input_volumes(self):
        # at delta = 0 the rhs factor is 1, so the CI must match theorem12's,
        # which includes the stderr of the Monte Carlo volume of B
        a, b = SetSpec.ellipsoid([1.2, 1.0, 1.0]), BALL_CAP_BOX
        r15 = check_corollary15(a, b, ThetaSpec.full(), 0.0, FAST)
        r12 = check_theorem12(a, b, ThetaSpec.full(), FAST)
        assert r15.ci_halfwidth == r12.ci_halfwidth

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

    def test_sum_norm_gate_via_cap_quadrature(self):
        # equality-radius sum-norm constraint on balls: the gate fraction
        # comes from the cap integral, and passes with the larger explicit
        # gate constant
        rep = check_theorem12(
            SetSpec.ball(1, 5), SetSpec.ball(0.5, 5), ThetaSpec.sum_norm_leq(math.sqrt(1.25)),
            MonteCarloConfig(pair_samples=1_000_000, seed=5, c=0.2),
        )
        gate = rep.context["gate"]
        assert gate["source"] == "quadrature"
        assert gate["passed"]
        assert 0.80 <= gate["fraction"] <= 0.82
        assert rep.verdict == "holds"

    def test_equal_axis_ellipsoids_get_the_ball_quadrature_gate(self):
        theta = ThetaSpec.sum_norm_leq(math.sqrt(1.25))
        cfg = MonteCarloConfig(pair_samples=20_000, seed=5, c=0.2)
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
        assert MonteCarloConfig().c < (1.0 - fraction) / min(rho * math.sqrt(n), 1.0)

    def test_report_serializes(self):
        rep = check_theorem12(
            SetSpec.box([1, 1]), SetSpec.box([0.5, 0.5]), ThetaSpec.full(), FAST
        )
        blob = rep.to_json()
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
    def test_full_theta_simplifies_to_monotonicity(self):
        rep = fubini_lower_bound(SetSpec.ball(1, 3), SetSpec.ball(0.6, 3), ThetaSpec.full(), FAST)
        assert rep.context["delta"] == 0.0
        assert rep.verdict == "holds"

    def test_half_space_theta(self):
        rep = fubini_lower_bound(
            SetSpec.ball(1, 3), SetSpec.ball(0.8, 3), ThetaSpec.inner_product_leq(0.0), FAST
        )
        assert rep.context["delta"] == 0.5
        assert rep.verdict == "holds"

    def test_random_complement_on_boxes(self):
        rep = fubini_lower_bound(
            SetSpec.box([1, 1]), SetSpec.box([0.5, 0.5]), ThetaSpec.complement_fraction(0.2), FAST
        )
        assert rep.verdict == "holds"

    def test_requires_larger_first_argument(self):
        with pytest.raises(ParameterError):
            fubini_lower_bound(SetSpec.ball(0.5, 2), SetSpec.ball(1, 2), ThetaSpec.full(), FAST)


class TestSymmetrization:
    def test_balls_are_fixed_points(self):
        rep = bll_symmetrization_check(
            SetSpec.ball(1, 2), SetSpec.ball(0.7, 2), SetSpec.ball(1.2, 2), FAST
        )
        # rearranging balls reproduces the same configuration and seed,
        # hence bitwise equal sides
        assert rep.deficit == 0.0
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

    def test_dimension_limit(self):
        with pytest.raises(ParameterError):
            bll_symmetrization_check(
                SetSpec.ball(1, 5), SetSpec.ball(1, 5), SetSpec.ball(1, 5), FAST
            )


class TestRemarkSixteen:
    def test_rhs_factor_monotone_in_gamma(self):
        factors = []
        for gamma in (0.2, 0.4, 0.6, 0.8, 0.95):
            rep = check_remark16(
                SetSpec.ball(1, 4), SetSpec.ball(0.7, 4), ThetaSpec.full(), gamma,
                MonteCarloConfig(pair_samples=50_000, seed=5),
            )
            factors.append(rep.context["rhs_factor"])
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_ball_example_passes_weak_bound(self):
        rep = check_remark16(
            SetSpec.ball(1, 4), SetSpec.ball(0.7, 4), ThetaSpec.inner_product_leq(0.0), 0.5, FAST
        )
        assert rep.context["gate"]["passed"]
        assert rep.verdict == "holds"

    def test_sparse_random_theta_recorded(self):
        rep = check_remark16(
            SetSpec.ball(1, 3), SetSpec.ball(1, 3), ThetaSpec.complement_fraction(0.6), 0.4, FAST
        )
        assert rep.verdict in ("holds", "violated", "inconclusive")

    def test_gamma_range(self):
        with pytest.raises(ParameterError):
            check_remark16(SetSpec.ball(1, 2), SetSpec.ball(1, 2), ThetaSpec.full(), 1.0, FAST)


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

    def test_decreasing_in_r0(self):
        vals = [cap_fraction(2, 1.0, r) for r in (0.75, 0.9, 1.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[0] == pytest.approx(0.8387462489649887, abs=1e-9)
        assert vals[2] == pytest.approx(0.6816901138162095, abs=1e-9)

    def test_first_integral_matches_betainc_oracle(self):
        # the plane-cut share of the small ball is a regularized
        # incomplete beta value; scipy computes it independently
        for n, rho, r0 in ((4, 0.8, 0.95), (7, 0.5, 0.99), (3, 0.3, 0.999)):
            _, info = cap_fraction(n, rho, r0, detail=True)
            v_s = info["s"] / rho
            oracle = betainc(0.5 * (n + 1), 0.5 * (n + 1), 0.5 * (1.0 + v_s))
            assert info["first_integral_fraction"] == pytest.approx(oracle, abs=1e-9)

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
    def test_planar_scan_value(self):
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

    def test_validation(self):
        with pytest.raises(ParameterError):
            check_lemma13(1, 0.5)
        with pytest.raises(ParameterError):
            check_lemma13(3, 0.5, grid_r0=1)


class TestBallExample:
    def test_equality_gap_zero(self):
        out = ball_example_exact(0.5, 3)
        assert abs(out["equality_gap"]) <= 1e-12
        assert out["theta_fraction"] == 0.5
        assert out["sum_radius"] == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_fraction_independent_of_rho(self):
        for rho in (0.1, 0.5, 0.99):
            assert ball_example_exact(rho, 4)["theta_fraction"] == 0.5

    def test_one_dimension_still_exact(self):
        assert abs(ball_example_exact(0.9, 1)["equality_gap"]) <= 1e-12

    def test_validation(self):
        with pytest.raises(ParameterError):
            ball_example_exact(1.0, 3)
        with pytest.raises(ParameterError):
            ball_example_exact(0.5, 0)
