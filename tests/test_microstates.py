"""Slot-constrained random-matrix sampling, membership, and volume tests."""

import math

import numpy as np
import pytest
from scipy import integrate

import freesum.microstates as ms
from freesum.cumulants import cumulants_from_moments, mixed_free_moment
from freesum.errors import ParameterError, PrecisionError, StepFunctionError
from freesum.measure import (
    arcsine,
    bernoulli,
    kolmogorov_distance,
    ks_statistic,
    point_mass,
    semicircle,
    uniform,
)
from freesum.freeentropy import chi
from freesum.microstates import (
    ContainmentResult,
    FractionEstimate,
    GammaTarget,
    MatrixMicrostate,
    StepFunctionSpec,
    check_sum_containment,
    empirical_chi,
    estimate_log_volume_omega,
    haar_unitary,
    log_flag_constant,
    membership_report,
    sample_omega,
    sum_spectrum_experiment,
    theta_fraction,
)

H_ID = StepFunctionSpec.identity()
H_SC = StepFunctionSpec.from_quantiles(semicircle(1.0))
H_UN = StepFunctionSpec.from_quantiles(uniform(-1.0, 1.0))

CHI_UNIFORM01 = -0.75 + 0.5 * math.log(2.0 * math.pi)


class TestStepFunctionSpec:
    def test_identity_slots_k4(self):
        lo, hi = H_ID.slots(4)
        np.testing.assert_allclose(lo, [0.0, 0.25, 0.5, 0.75], atol=0)
        np.testing.assert_allclose(hi, [0.125, 0.375, 0.625, 0.875], atol=0)

    def test_slots_are_disjoint_and_sorted(self):
        lo, hi = H_SC.slots(97)
        assert np.all(hi > lo)
        assert np.all(lo[1:] > hi[:-1])

    def test_table_validation(self):
        with pytest.raises(StepFunctionError):
            StepFunctionSpec((0.0, 1.0), (1.0, 1.0))
        with pytest.raises(StepFunctionError):
            StepFunctionSpec((0.0, 0.5), (0.0, 1.0))
        with pytest.raises(StepFunctionError):
            StepFunctionSpec((0.0, 0.5, 0.5, 1.0), (0.0, 0.3, 0.6, 1.0))
        with pytest.raises(StepFunctionError):
            StepFunctionSpec((0.0,), (1.0,))

    def test_from_quantiles_rejects_atomic_measures(self):
        with pytest.raises(StepFunctionError):
            StepFunctionSpec.from_quantiles(bernoulli(0.5, -1.0, 1.0))

    def test_uniform_profile_moments_are_exact(self):
        # quantile of uniform(-1,1) is 2t-1, so the table is exactly linear
        m = H_UN.moments(4)
        np.testing.assert_allclose(m, [0.0, 1.0 / 3.0, 0.0, 1.0 / 5.0], atol=1e-14)

    def test_semicircle_profile_moments_near_catalan(self):
        m = H_SC.moments(4)
        assert abs(m[0]) <= 1e-3
        assert abs(m[1] - 1.0) <= 2e-3
        assert abs(m[3] - 2.0) <= 1e-2

    def test_affine_requires_positive_slope(self):
        with pytest.raises(ParameterError):
            H_ID.affine(-1.0, 0.0)
        shifted = H_ID.affine(3.0, -1.0)
        assert shifted.values == (-1.0, 2.0)
        assert shifted.sup_abs == 2.0


class TestSampleOmega:
    def test_spectra_land_in_slots(self):
        lo, hi = H_ID.slots(4)
        for seed in range(20):
            spec = sample_omega(H_ID, 4, seed=seed).spectrum()
            assert np.all(spec >= lo - 1e-9)
            assert np.all(spec <= hi + 1e-9)

    def test_affine_equivariance(self):
        base = sample_omega(H_ID, 4, seed=0).spectrum()
        moved = sample_omega(H_ID.affine(3.0, -1.0), 4, seed=0).spectrum()
        np.testing.assert_allclose(moved, 3.0 * base - 1.0, atol=1e-12)

    def test_semicircle_profile_matches_semicircle_law(self):
        state = sample_omega(H_SC, 256, seed=3)
        assert ks_statistic(state.spectrum(), semicircle(1.0)) <= 0.03

    def test_provenance_and_hermiticity(self):
        state = sample_omega(H_SC, 32, seed=5)
        assert state.provenance == f"omega_sample:{H_SC.table_id()}"
        assert np.max(np.abs(state.entries - state.entries.conj().T)) <= 1e-12

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            sample_omega(H_ID, 1, seed=0)

    def test_determinism(self):
        a = sample_omega(H_SC, 64, seed=42)
        b = sample_omega(H_SC, 64, seed=42)
        assert np.array_equal(a.entries, b.entries)


class TestHaarUnitary:
    def test_unitarity_and_determinant(self):
        u = haar_unitary(64, seed=9)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) <= 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8

    def test_scalar_phase_is_uniform(self):
        vals = np.array([haar_unitary(1, seed=s)[0, 0] for s in range(2000)])
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12
        assert abs(np.mean(vals)) <= 0.05

    def test_trace_statistics_k64(self):
        tr = np.array([np.trace(haar_unitary(64, seed=1000 + s)) for s in range(1000)])
        assert abs(np.mean(tr.real)) <= 0.1
        # Haar traces have E|Tr U|^2 = 1 independent of k
        assert abs(np.mean(np.abs(tr) ** 2) - 1.0) <= 0.15

    def test_trace_moment_matches_gram_schmidt_oracle(self):
        # independent Haar construction: orthonormalize Gaussian columns by hand
        rng = np.random.default_rng(77)
        oracle = []
        for _ in range(5000):
            g = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
            v1 = g[:, 0] / np.linalg.norm(g[:, 0])
            w = g[:, 1] - (v1.conj() @ g[:, 1]) * v1
            oracle.append(abs(v1[0] + (w / np.linalg.norm(w))[1]) ** 2)
        mine = [
            abs(np.trace(haar_unitary(2, seed=5_000_000 + s))) ** 2 for s in range(5000)
        ]
        assert abs(np.mean(mine) - np.mean(oracle)) <= 0.1

    def test_determinism(self):
        assert np.array_equal(haar_unitary(32, seed=9), haar_unitary(32, seed=9))


class TestMembership:
    def test_self_consistency(self):
        state = sample_omega(H_SC, 256, seed=21)
        spec = state.spectrum()
        target = GammaTarget.single(
            [float(np.mean(spec**m)) for m in range(1, 5)], eps=0.1, norm_bound=2.0
        )
        assert membership_report((state,), target)["member"]

    def test_pair_with_itself_is_not_free(self):
        state = sample_omega(H_SC, 128, seed=33)
        m = H_SC.moments(2)
        target = GammaTarget.free_pair(m, m, 2, eps=0.01, norm_bound=2.0)
        report = membership_report((state, state), target)
        assert not report["member"]
        # tau(AB) = tau(A)tau(B) ~ 0 under freeness but Tr(A^2)/k ~ 1 here
        assert report["worst_word"] == (0, 1)
        assert report["worst_error"] > 0.5

    def test_zero_matrices_match_zero_targets(self):
        zero = MatrixMicrostate(8, np.zeros((8, 8), dtype=complex), "sum")
        target = GammaTarget({(0,): 0.0, (0, 0): 0.0}, 2, eps=1e-12, norm_bound=1.0)
        assert membership_report((zero,), target)["member"]

    def test_norm_violation_flag(self):
        big = MatrixMicrostate(8, np.eye(8, dtype=complex) * 5.0, "sum")
        report = membership_report((big,), GammaTarget({(0,): 0.5}, 1, eps=1.0, norm_bound=1.0))
        assert report["norm_violation"]
        assert not report["member"]

    def test_target_validation(self):
        with pytest.raises(ParameterError):
            GammaTarget({(0,): 0.5}, 1, eps=0.0, norm_bound=1.0)
        with pytest.raises(ParameterError):
            GammaTarget({(0, 0): 0.5}, 1, eps=0.1, norm_bound=1.0)
        with pytest.raises(ParameterError):
            GammaTarget({(0,): 2.0}, 1, eps=0.1, norm_bound=1.0)

    def test_missing_variable_guard(self):
        state = sample_omega(H_SC, 16, seed=1)
        m = H_SC.moments(2)
        pair = GammaTarget.free_pair(m, m, 2, eps=0.1, norm_bound=2.0)
        with pytest.raises(ParameterError):
            membership_report((state,), pair)

    def test_matrix_validation(self):
        with pytest.raises(ParameterError):
            MatrixMicrostate(2, np.array([[0.0, 1.0], [0.0, 0.0]]), "sum")
        with pytest.raises(ParameterError):
            MatrixMicrostate(2, np.eye(2), "mystery")


class TestThetaFraction:
    def test_semicircle_uniform_k64(self):
        est = theta_fraction(H_SC, H_UN, 64, 2, 0.2, trials=100, seed=17)
        assert est.fraction >= 0.9
        assert est.weighted_fraction >= 0.9
        assert est.ci_low <= est.fraction <= est.ci_high

    def test_monotone_in_eps(self):
        runs = [
            theta_fraction(H_SC, H_UN, 32, 3, eps, trials=100, seed=17)
            for eps in (0.05, 0.1, 0.2)
        ]
        fracs = [r.fraction for r in runs]
        weighted = [r.weighted_fraction for r in runs]
        assert fracs == sorted(fracs)
        assert weighted == sorted(weighted)
        assert fracs[-1] > fracs[0]

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            theta_fraction(H_SC, H_UN, 32, 2, 0.1, trials=99, seed=0)

    def test_one_eigensolve_per_matrix(self, monkeypatch):
        # each trial's two matrices are solved once; the slot check and the
        # norm check share that spectrum
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        theta_fraction(H_SC, H_UN, 16, 2, 0.2, trials=100, seed=3)
        assert len(calls) == 2 * 100

    def test_determinism(self):
        a = theta_fraction(H_SC, H_UN, 32, 2, 0.1, trials=100, seed=4)
        b = theta_fraction(H_SC, H_UN, 32, 2, 0.1, trials=100, seed=4)
        assert a == b

    def test_adjacent_seeds_give_distinct_results(self):
        # trial streams derive from (seed, t) through stream_seed; seeds 0-3
        # must not replay each other's trials in another order, which would
        # leave the importance weights equal up to summation order
        runs = [theta_fraction(H_SC, H_UN, 16, 2, 0.2, trials=100, seed=s) for s in range(4)]
        ess = [r.weight_ess for r in runs]
        for i in range(4):
            for j in range(i):
                assert abs(ess[i] - ess[j]) > 1e-9 * ess[i]


class TestSumSpectrum:
    def test_bernoulli_pair_gives_arcsine(self):
        emp = sum_spectrum_experiment(
            bernoulli(0.5, -1.0, 1.0), bernoulli(0.5, -1.0, 1.0), 512, seed=11
        )
        assert kolmogorov_distance(emp, arcsine(2.0)) <= 0.05

    def test_semicircle_pair_adds_variance(self):
        emp = sum_spectrum_experiment(semicircle(1.0), semicircle(1.0), 512, seed=12)
        assert kolmogorov_distance(emp, semicircle(2.0)) <= 0.05

    def test_point_mass_shifts_spectrum(self):
        base = sum_spectrum_experiment(semicircle(1.0), point_mass(0.0), 64, seed=5)
        moved = sum_spectrum_experiment(semicircle(1.0), point_mass(0.7), 64, seed=5)
        s0 = np.array([a for a, _ in base.atoms])
        s1 = np.array([a for a, _ in moved.atoms])
        np.testing.assert_allclose(s1, s0 + 0.7, atol=1e-10)

    def test_atom_weights(self):
        emp = sum_spectrum_experiment(semicircle(1.0), uniform(-1.0, 1.0), 64, seed=2)
        weights = [w for _, w in emp.atoms]
        assert abs(sum(weights) - 1.0) <= 1e-12
        assert all(abs(w - 1.0 / 64.0) <= 1e-15 for w in weights)

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            sum_spectrum_experiment(semicircle(1.0), semicircle(1.0), 31, seed=0)


class TestEmpiricalChi:
    def test_two_point_closed_form(self):
        assert empirical_chi([0.0, 1.0]) == 0.75 + 0.5 * math.log(2.0 * math.pi)

    def test_repeated_eigenvalue_sentinel(self):
        assert empirical_chi([0.5, 0.5, 1.0]) == float("-inf")
        assert empirical_chi([0.0, 1e-15, 1.0]) == float("-inf")

    def test_scaling_adds_log_two(self):
        lam = semicircle(1.0).quantile((np.arange(512) + 0.5) / 512)
        delta = empirical_chi(2.0 * np.asarray(lam)) - empirical_chi(lam)
        assert abs(delta - (1.0 - 1.0 / 512.0) * math.log(2.0)) <= 1e-12

    def test_semicircle_quantiles_approach_chi(self):
        lam = semicircle(1.0).quantile((np.arange(1024) + 0.5) / 1024)
        assert abs(empirical_chi(lam) - 0.5 * math.log(2.0 * math.pi * math.e)) <= 0.05

    def test_error_shrinks_with_doubling(self):
        ref = 0.5 * math.log(2.0 * math.pi * math.e)
        errs = []
        for k in (256, 512, 1024):
            lam = semicircle(1.0).quantile((np.arange(k) + 0.5) / k)
            errs.append(abs(empirical_chi(lam) - ref))
        assert errs[2] < errs[1] < errs[0]

    def test_validation(self):
        with pytest.raises(ParameterError):
            empirical_chi([1.0])
        with pytest.raises(ParameterError):
            empirical_chi([0.0, float("nan")])


class TestLogVolume:
    def test_flag_constant_matches_orthogonal_polynomial_product(self):
        # independent oracle: Hankel det of Gaussian moments = (2pi)^(k/2) prod n!
        for k in range(2, 9):
            closed = k * k / 2 * math.log(2 * math.pi) - (
                k / 2 * math.log(2 * math.pi)
                + sum(math.lgamma(n + 1) for n in range(k))
            )
            assert abs(log_flag_constant(k) - closed) <= 1e-6 * abs(closed)
        assert log_flag_constant(1) == 0.0

    def test_flag_constant_matches_hankel_determinant(self):
        # the defining form: (k^2/2) log 2pi - log det[g_{i+j}] over the
        # Gaussian moments g_m, in float64 where the Hankel matrix is tame
        for k in range(1, 9):
            g = [math.sqrt(2 * math.pi), 0.0]
            for m in range(2, 2 * k - 1):
                g.append((m - 1) * g[m - 2])
            hankel = np.array([[g[i + j] for j in range(k)] for i in range(k)])
            sign, logdet = np.linalg.slogdet(hankel)
            assert sign == 1.0
            want = k * k / 2 * math.log(2 * math.pi) - logdet
            assert log_flag_constant(k) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_two_slot_quadrature_crosscheck(self):
        eps0 = 1e-3
        h = StepFunctionSpec(
            (0.0, 0.25, 0.5, 0.75, 1.0), (0.0, eps0, 1.0, 1.0 + eps0, 1.0 + 2 * eps0)
        )
        integral, _ = integrate.dblquad(
            lambda y, x: (y - x) ** 2, 0.0, eps0, 1.0, 1.0 + eps0
        )
        brute = (log_flag_constant(2) + math.log(integral)) / 4.0 + 0.5 * math.log(2.0)
        got = estimate_log_volume_omega(h, 2, 20_000, seed=4)
        assert abs(got - brute) <= 1e-3

    def test_uniform_profile_converges_to_chi(self):
        target = chi(uniform(0.0, 1.0))
        assert abs(target - CHI_UNIFORM01) <= 1e-4
        gaps = [
            abs(estimate_log_volume_omega(H_ID, k, 100_000, seed=1) - target)
            for k in (8, 16, 32)
        ]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 0.1

    def test_profile_doubling_adds_log_two(self):
        a = estimate_log_volume_omega(H_ID, 32, 50_000, seed=7)
        b = estimate_log_volume_omega(H_ID.affine(2.0, 0.0), 32, 50_000, seed=7)
        assert abs((b - a) - math.log(2.0)) <= 1e-12

    def test_ess_guard(self, monkeypatch):
        # a flat proposal cannot follow the Vandermonde peak at k=64
        monkeypatch.setattr(ms, "_PROPOSAL_FLOOR", 1.0)
        with pytest.raises(PrecisionError) as err:
            estimate_log_volume_omega(H_ID, 64, 10_000, seed=0)
        assert err.value.diagnostics["ess"] < 100

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            estimate_log_volume_omega(H_ID, 65, 10_000, seed=0)
        with pytest.raises(ParameterError):
            estimate_log_volume_omega(H_ID, 8, 9_999, seed=0)


class TestSumContainment:
    def test_explicit_filter_mostly_passes(self):
        result = check_sum_containment(
            H_SC, H_SC, 64, 3, 0.4, trials=100, seed=19, filter_max_len=3, filter_eps=0.15
        )
        assert not result.inconclusive
        assert result.kept == 100
        assert result.fraction == 1.0

    def test_default_transfer_tolerances_filter_everything(self):
        # default inner tolerance eps/(4 (2R)^N) is ~4e-4 here, far below the
        # O(1/k) moment noise, so no pair survives and the check is inconclusive
        result = check_sum_containment(H_SC, H_SC, 64, 3, 0.1, trials=100, seed=7)
        assert result.inconclusive
        assert result.kept == 0
        assert math.isnan(result.fraction)
        assert result.filter_max_len == 6
        assert result.filter_eps < 1e-3

    def test_first_moment_passes_by_trace_linearity(self):
        result = check_sum_containment(H_UN, H_UN, 64, 1, 0.2, trials=100, seed=13)
        assert result.kept > 0
        assert result.fraction == 1.0

    def test_monotone_in_outer_eps(self):
        fracs = [
            check_sum_containment(
                H_SC, H_SC, 64, 3, e1, trials=100, seed=19,
                filter_max_len=3, filter_eps=0.15,
            ).fraction
            for e1 in (0.1, 0.2, 0.4)
        ]
        assert fracs == sorted(fracs)
        assert fracs[-1] > fracs[0]

    def test_one_eigensolve_per_matrix(self, monkeypatch):
        # two per trial for the pair, one more for the sum of each kept pair;
        # filter_eps 0.06 keeps 37 of the 100 pairs
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        result = check_sum_containment(
            H_SC, H_UN, 16, 2, 0.2, trials=100, seed=5, filter_max_len=2, filter_eps=0.06
        )
        assert 0 < result.kept < result.trials
        assert len(calls) == 2 * 100 + result.kept

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            check_sum_containment(H_SC, H_SC, 32, 2, 0.1, trials=50, seed=0)


class TestInvariants:
    def test_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(3)
        diag = np.sort(rng.uniform(-1.0, 1.0, 48))
        u = haar_unitary(48, seed=8)
        m = (u * diag) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        assert np.max(np.abs(np.linalg.eigvalsh(m) - diag)) <= 1e-9

    def test_trace_additivity(self):
        a = sample_omega(H_SC, 64, seed=1)
        b = sample_omega(H_UN, 64, seed=2)
        total = (a + b).normalized_trace()
        assert abs(total - (a.normalized_trace() + b.normalized_trace())) <= 1e-13
        assert (a + b).provenance == "sum"

    def test_mixed_moment_approaches_free_target(self):
        cums = {
            0: cumulants_from_moments(H_SC.moments(4)),
            1: cumulants_from_moments(H_UN.moments(4)),
        }
        target = mixed_free_moment(cums, (0, 1, 0, 1))
        vals = []
        for s in range(20):
            rng = np.random.default_rng(1000 + s)
            a, _ = ms._sample_omega(H_SC, 256, rng)
            b, _ = ms._sample_omega(H_UN, 256, rng)
            w = a.entries @ b.entries
            vals.append(float(np.trace(w @ w).real) / 256.0)
        assert abs(float(np.mean(vals)) - target) <= 0.1
