"""Slot-constrained random-matrix sampling, membership, and volume tests."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import freesum.microstates as ms
from freesum.cumulants import cumulants_from_moments, mixed_free_moment, pair_moment_targets
from freesum.errors import ParameterError, PrecisionError
from freesum.measure import (
    arcsine,
    bernoulli,
    kolmogorov_distance,
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
    log_flag_constant,
    membership_report,
    sum_spectrum_experiment,
    theta_fraction,
)

from helpers import affine, ks_statistic

H_ID = StepFunctionSpec.identity()
H_SC = StepFunctionSpec.from_quantiles(semicircle(1.0))
H_UN = StepFunctionSpec.from_quantiles(uniform(-1.0, 1.0))

CHI_UNIFORM01 = -0.75 + 0.5 * math.log(2.0 * math.pi)


def _haar(k, seed):
    """The Haar unitary the samplers draw, from a fresh generator at seed."""
    return ms._haar_from_rng(k, np.random.default_rng(seed))[0]


def _omega(h, k, seed):
    """A slot draw of ``h`` under a Haar basis, from a fresh generator at seed."""
    return ms._sample_omega(h, k, np.random.default_rng(seed))


def _normalized_trace(m):
    return np.trace(m.entries).real / m.k


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
        with pytest.raises(ParameterError):
            StepFunctionSpec((0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ParameterError):
            StepFunctionSpec((0.0, 0.5), (0.0, 1.0))
        with pytest.raises(ParameterError):
            StepFunctionSpec((0.0, 0.5, 0.5, 1.0), (0.0, 0.3, 0.6, 1.0))
        with pytest.raises(ParameterError):
            StepFunctionSpec((0.0,), (1.0,))

    def test_from_quantiles_rejects_atomic_measures(self):
        with pytest.raises(ParameterError):
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
        # a negative slope reverses the values, which the profile refuses
        with pytest.raises(ParameterError, match="strictly increasing"):
            affine(H_ID, -1.0, 0.0)
        shifted = affine(H_ID, 3.0, -1.0)
        assert shifted.values == (-1.0, 2.0)
        assert shifted.sup_abs == 2.0


class TestSampleOmega:
    def test_spectra_land_in_slots(self):
        lo, hi = H_ID.slots(4)
        for seed in range(20):
            spec = _omega(H_ID, 4, seed=seed).spectrum()
            assert np.all(spec >= lo - 1e-9)
            assert np.all(spec <= hi + 1e-9)

    def test_affine_equivariance(self):
        base = _omega(H_ID, 4, seed=0).spectrum()
        moved = _omega(affine(H_ID, 3.0, -1.0), 4, seed=0).spectrum()
        np.testing.assert_allclose(moved, 3.0 * base - 1.0, atol=1e-12)

    def test_semicircle_profile_matches_semicircle_law(self):
        state = _omega(H_SC, 256, seed=3)
        assert ks_statistic(state.spectrum(), semicircle(1.0)) <= 0.03

    def test_hermiticity_and_norm_bound(self):
        # the norm and the certified bound both lie within the landing
        # tolerance of the largest slot draw
        state = _omega(H_SC, 32, seed=5)
        assert np.max(np.abs(state.entries - state.entries.conj().T)) <= 1e-12
        norm = float(np.max(np.abs(state.spectrum())))
        assert norm <= state._norm_bound <= norm + 2e-9

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            _omega(H_ID, 0, seed=0)

    def test_determinism(self):
        a = _omega(H_SC, 64, seed=42)
        b = _omega(H_SC, 64, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_spectrum_is_solved_at_most_once(self, monkeypatch):
        calls = _count_eigensolves(monkeypatch)
        state = _omega(H_SC, 16, seed=2)
        total = state + state
        assert calls == []
        first = state.spectrum()
        assert state.spectrum() is first
        assert not first.flags.writeable
        membership_report((state, total), GammaTarget({(0,): 0.0}, 1, eps=1.0, norm_bound=4.0))
        total.spectrum()
        assert len(calls) == 2


def _count_linalg(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda m: calls.append(1) or original(m))
    return calls


def _count_eigensolves(monkeypatch) -> list:
    return _count_linalg(monkeypatch, "eigvalsh")


def _count_membership(monkeypatch) -> list:
    # records the number of matrices in each membership test
    calls = []
    report = ms.membership_report

    def counted(states, target):
        states = list(states)
        calls.append(len(states))
        return report(states, target)

    monkeypatch.setattr(ms, "membership_report", counted)
    return calls


def _scale_qr(monkeypatch, factor: float) -> None:
    # the Haar draw's orthonormal factor comes back scaled, so U U* = factor^2 I
    qr = np.linalg.qr

    def scaled(z):
        q, r = qr(z)
        return q * factor, r

    monkeypatch.setattr(np.linalg, "qr", scaled)


class TestSlotCertificate:
    def test_uncertified_draw_solves_and_keeps_the_outcome(self, monkeypatch):
        # a defect of 9e-11 passes the unitarity check (1e-10) but puts the
        # landing bound near 3e-9 at k = 32, above the slot tolerance
        plain = theta_fraction(H_SC, H_UN, 32, 3, 0.1, trials=100, seed=17)
        calls = _count_eigensolves(monkeypatch)
        _scale_qr(monkeypatch, 1.0 + 4.5e-11)
        solved = theta_fraction(H_SC, H_UN, 32, 3, 0.1, trials=100, seed=17)
        assert len(calls) == 100
        assert 0 < solved.passes < solved.trials
        assert solved == plain

    def test_uncertified_draw_carries_no_bound(self, monkeypatch):
        # its norm is read from the spectrum solved for the slot check
        _scale_qr(monkeypatch, 1.0 + 4.5e-11)
        state = _omega(H_SC, 32, seed=17)
        assert state._norm_bound is None
        assert state._spectrum is not None

    def test_escaped_spectrum_raises(self, monkeypatch):
        # a Haar draw that lets a non-unitary U through, reporting its defect
        haar = ms._haar_from_rng

        def inflated(k, rng):
            u = 1.01 * haar(k, rng)[0]
            return u, float(np.max(np.abs(u @ u.conj().T - np.eye(k))))

        monkeypatch.setattr(ms, "_haar_from_rng", inflated)
        with pytest.raises(PrecisionError, match="reconstructed spectrum left its slots"):
            _omega(H_SC, 16, seed=0)
        with pytest.raises(PrecisionError, match="reconstructed spectrum left its slots"):
            theta_fraction(H_SC, H_UN, 16, 2, 0.2, trials=100, seed=3)

    def test_non_unitary_draw_raises(self, monkeypatch):
        _scale_qr(monkeypatch, 1.0 + 1e-9)
        with pytest.raises(PrecisionError, match="orthonormalization lost unitarity"):
            _omega(H_SC, 16, seed=0)
        with pytest.raises(PrecisionError, match="orthonormalization lost unitarity"):
            check_sum_containment(
                H_SC, H_UN, 16, 2, 0.2, trials=100, seed=5, filter_max_len=2, filter_eps=0.06
            )


class TestHaarUnitary:
    def test_unitarity_and_determinant(self):
        u = _haar(64, seed=9)
        assert np.max(np.abs(u @ u.conj().T - np.eye(64))) <= 1e-10
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8

    def test_scalar_phase_is_uniform(self):
        vals = np.array([_haar(1, seed=s)[0, 0] for s in range(2000)])
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12
        assert abs(np.mean(vals)) <= 0.05

    def test_trace_statistics_k64(self):
        tr = np.array([np.trace(_haar(64, seed=1000 + s)) for s in range(1000)])
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
            abs(np.trace(_haar(2, seed=5_000_000 + s))) ** 2 for s in range(5000)
        ]
        assert abs(np.mean(mine) - np.mean(oracle)) <= 0.1

    def test_determinism(self):
        assert np.array_equal(_haar(32, seed=9), _haar(32, seed=9))


class TestMembership:
    def test_self_consistency(self):
        state = _omega(H_SC, 256, seed=21)
        spec = state.spectrum()
        target = GammaTarget.single(
            [float(np.mean(spec**m)) for m in range(1, 5)], eps=0.1, norm_bound=2.0
        )
        assert membership_report((state,), target)["member"]

    def test_pair_with_itself_is_not_free(self):
        state = _omega(H_SC, 128, seed=33)
        m = H_SC.moments(2)
        target = GammaTarget.free_pair(m, m, 2, eps=0.01, norm_bound=2.0)
        report = membership_report((state, state), target)
        assert not report["member"]
        # tau(AB) = tau(A)tau(B) ~ 0 under freeness but Tr(A^2)/k ~ 1 here
        assert report["worst_word"] == (0, 1)
        assert report["worst_error"] > 0.5

    def test_zero_matrices_match_zero_targets(self):
        zero = MatrixMicrostate(8, np.zeros((8, 8), dtype=complex))
        target = GammaTarget({(0,): 0.0, (0, 0): 0.0}, 2, eps=1e-12, norm_bound=1.0)
        assert membership_report((zero,), target)["member"]

    def test_norm_violation_flag(self):
        big = MatrixMicrostate(8, np.eye(8, dtype=complex) * 5.0)
        report = membership_report((big,), GammaTarget({(0,): 0.5}, 1, eps=1.0, norm_bound=1.0))
        assert report["norm_violation"]
        assert not report["member"]

    def test_loose_norm_bound_defers_to_the_spectrum(self):
        # a norm bound above the target's never decides the verdict alone
        state = _omega(H_SC, 16, seed=4)
        norm = float(np.max(np.abs(state.spectrum())))
        target = GammaTarget({(0,): _normalized_trace(state)}, 1, eps=1e-9, norm_bound=norm)
        loose = MatrixMicrostate(16, state.entries, _norm_bound=10.0 * norm)
        report = membership_report((loose,), target)
        assert report["member"]
        assert report["norms"] == [norm]
        assert report == membership_report((MatrixMicrostate(16, state.entries),), target)

    def test_tight_norm_bound_stands_for_the_norm(self, monkeypatch):
        state = _omega(H_SC, 16, seed=4)
        target = GammaTarget({(0,): _normalized_trace(state)}, 1, eps=1e-9, norm_bound=2.0)
        calls = _count_eigensolves(monkeypatch)
        report = membership_report((state,), target)
        assert report["member"]
        assert report["norms"] == [state._norm_bound]
        assert calls == []

    def test_target_validation(self):
        with pytest.raises(ParameterError):
            GammaTarget({(0,): 0.5}, 1, eps=0.0, norm_bound=1.0)
        with pytest.raises(ParameterError):
            GammaTarget({(0, 0): 0.5}, 1, eps=0.1, norm_bound=1.0)
        with pytest.raises(ParameterError):
            GammaTarget({(0,): 2.0}, 1, eps=0.1, norm_bound=1.0)

    def test_missing_variable_guard(self):
        state = _omega(H_SC, 16, seed=1)
        m = H_SC.moments(2)
        pair = GammaTarget.free_pair(m, m, 2, eps=0.1, norm_bound=2.0)
        with pytest.raises(ParameterError):
            membership_report((state,), pair)

    @settings(max_examples=60, deadline=None)
    @given(
        n_vars=st.integers(2, 3),
        k=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        letters=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4), min_size=1, max_size=6),
        mirrored=st.booleans(),
    )
    def test_word_traces_match_naive_products(self, n_vars, k, seed, letters, mirrored):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(n_vars):
            z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            mats.append(0.5 * (z + z.conj().T))
        if mirrored:
            # every word w of length >= 3 brings the word reversed(w[:-1]) + w[-1],
            # so the two mirrored prefixes are both needed
            words = [(0, 1, 0)] + [tuple(c % n_vars for c in w) for w in letters]
            words += [w[-2::-1] + w[-1:] for w in words if len(w) >= 3]
        else:
            # letter 0 only in first place: no prefix's reversal is a prefix
            words = [(0,) + tuple(1 + c % (n_vars - 1) for c in w[1:]) for w in letters]
        closed = {w[:n] for w in words for n in range(1, len(w) + 1)} | {(v,) for v in range(n_vars)}
        got = ms._word_traces(mats, closed)
        assert set(got) == closed
        scale = max(np.linalg.norm(m, 2) for m in mats)
        for word in closed:
            prod = mats[word[0]]
            for c in word[1:]:
                prod = prod @ mats[c]
            naive = float(np.trace(prod).real) / k
            assert abs(got[word] - naive) <= 1e-12 * scale ** len(word)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 24),
        seed=st.integers(0, 2**32 - 1),
        max_len=st.integers(1, 4),
        log_eps=st.floats(-3.0, 0.0),
    )
    def test_joint_conjugation_changes_no_trace_or_verdict(self, k, seed, max_len, log_eps):
        # what a pair trial reads is invariant under (A, B) -> (WAW*, WBW*),
        # which lets a trial draw one relative rotation in place of two;
        # eps from 1e-3 to 1 gives both verdicts
        eps = 10.0**log_eps
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(2):
            z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            mats.append((z + z.conj().T) / math.sqrt(8.0 * k))
        w = ms._haar_from_rng(k, rng)[0]
        turned = [w @ m @ w.conj().T for m in mats]
        turned = [0.5 * (m + m.conj().T) for m in turned]
        norms = [np.linalg.norm(m, 2) for m in mats]
        words = pair_moment_targets([0.0] * max_len, [0.0] * max_len, max_len)
        got, want = ms._word_traces(turned, words), ms._word_traces(mats, words)
        for word in words:
            assert abs(got[word] - want[word]) <= 1e-10 * max(norms) ** len(word)

        spectra = [np.linalg.eigvalsh(m) for m in mats]
        moments = [[float(np.mean(s**n)) for n in range(1, max_len + 1)] for s in spectra]
        target = GammaTarget.free_pair(*moments, max_len, eps, 2.0 * max(norms))
        plain = membership_report([MatrixMicrostate(k, m) for m in mats], target)
        moved = membership_report([MatrixMicrostate(k, m) for m in turned], target)
        if abs(plain["worst_error"] - eps) > 1e-9 * max(norms) ** max_len:
            assert moved["member"] == plain["member"]
        assert abs(moved["worst_error"] - plain["worst_error"]) <= 1e-10 * max(norms) ** max_len

    def test_word_traces_leave_no_reference_cycle(self):
        # products kept alive by a cycle wait for the cyclic collector, which
        # let peak memory grow with the number of trials
        mats = [_omega(h, 8, seed=1).entries for h in (H_SC, H_UN)]
        words = GammaTarget.free_pair(H_SC.moments(3), H_UN.moments(3), 3, 0.1, 2.0).target_moments
        gc.collect()
        gc.disable()
        try:
            ms._word_traces(mats, words)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_matrix_validation(self):
        with pytest.raises(ParameterError):
            MatrixMicrostate(2, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ParameterError):
            MatrixMicrostate(2, np.eye(3))

    def test_unsampled_matrix_has_no_norm_bound(self):
        plain = MatrixMicrostate(4, np.eye(4))
        assert plain._norm_bound is None
        assert (plain + _omega(H_SC, 4, seed=1))._norm_bound is None


def _two_rotation_fraction(h1, h2, k, max_len, eps, trials, seed):
    """Pass fraction of pairs (U1 Lam1 U1*, U2 Lam2 U2*) with independent Haar bases."""
    target = GammaTarget.free_pair(
        h1.moments(max_len), h2.moments(max_len), max_len, eps, max(h1.sup_abs, h2.sup_abs)
    )
    rng = np.random.default_rng(seed)
    passes = 0
    for _ in range(trials):
        pair = []
        for h in (h1, h2):
            lam = rng.uniform(*h.slots(k))
            u = ms._haar_from_rng(k, rng)[0]
            m = (u * lam) @ u.conj().T
            pair.append(MatrixMicrostate(k, 0.5 * (m + m.conj().T)))
        passes += membership_report(pair, target)["member"]
    return passes / trials


class TestThetaFraction:
    def test_semicircle_uniform_k64(self):
        est = theta_fraction(H_SC, H_UN, 64, 2, 0.2, trials=100, seed=17)
        assert est.fraction >= 0.9
        assert est.ci_low <= est.fraction <= est.ci_high

    def test_monotone_in_eps(self):
        fracs = [
            theta_fraction(H_SC, H_UN, 32, 3, eps, trials=100, seed=17).fraction
            for eps in (0.05, 0.1, 0.2)
        ]
        assert fracs == sorted(fracs)
        assert fracs[-1] > fracs[0]

    def test_one_rotation_matches_two_rotation_law(self):
        # the trials draw (Lam1, V Lam2 V*); two independent Haar bases give
        # the same law, so the pass fractions agree within sampling error.
        # Arcsine profiles at this eps fail about a fifth of the trials on a
        # mixed word alone, which the rotation decides
        h = StepFunctionSpec.from_quantiles(arcsine(1.0))
        trials = 1500
        one = theta_fraction(h, h, 8, 3, 0.08, trials=trials, seed=8).fraction
        two = _two_rotation_fraction(h, h, 8, 3, 0.08, trials, seed=9)
        assert 0.2 <= two <= 0.8
        sigma = math.sqrt(two * (1.0 - two) * 2.0 / trials)
        assert abs(one - two) <= 4.0 * sigma

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            theta_fraction(H_SC, H_UN, 32, 2, 0.1, trials=99, seed=0)

    def test_one_membership_test_per_trial(self, monkeypatch):
        calls = _count_membership(monkeypatch)
        theta_fraction(H_SC, H_UN, 16, 2, 0.2, trials=100, seed=3)
        assert calls == [2] * 100

    def test_no_eigensolve_per_trial(self, monkeypatch):
        # one Haar basis per trial; slot landing and norms are certified from
        # each trial's slot draws
        eigensolves = _count_eigensolves(monkeypatch)
        qrs = _count_linalg(monkeypatch, "qr")
        theta_fraction(H_SC, H_UN, 16, 2, 0.2, trials=100, seed=3)
        assert eigensolves == []
        assert len(qrs) == 100

    def test_determinism(self):
        a = theta_fraction(H_SC, H_UN, 32, 2, 0.1, trials=100, seed=4)
        b = theta_fraction(H_SC, H_UN, 32, 2, 0.1, trials=100, seed=4)
        assert a == b

    def test_adjacent_seeds_give_distinct_results(self):
        # trial streams derive from (seed, t) through stream_seed; seeds 0-3
        # must not replay each other's trials, in any order
        drawn = [
            {(a1.entries.tobytes(), a2.entries.tobytes()) for a1, a2, _ in
             ms._pair_trials(H_SC, H_UN, 16, 2, 0.2, trials=100, seed=s)}
            for s in range(4)
        ]
        assert [len(d) for d in drawn] == [100] * 4
        assert len(set().union(*drawn)) == 400


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


@st.composite
def increasing_columns(draw):
    """(k, n) arrays of strictly increasing columns spanning 1e-6 to 1e3.

    The first column may open with a run of equal gaps as small as 1e-200,
    which caps the group size of its block anywhere from 16 down to 1.
    """
    k = draw(st.integers(2, 64))
    n = draw(st.sampled_from([1, 2, 5, ms._VDM_BLOCK + 3]))
    span = 10.0 ** draw(st.floats(-6.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = np.cumsum(rng.uniform(0.05, 1.0, size=(k - 1, n)), axis=0)
    lam = np.vstack([np.zeros(n), span * steps / steps[-1]])
    run = draw(st.integers(0, min(3, k - 1)))
    if run:
        tiny = 10.0 ** -draw(st.floats(1.0, 200.0))
        lam[: run + 1, 0] = tiny * np.arange(run + 1)
        lam[run + 1 :, 0] += tiny * run
    return lam


def log_vandermonde_sq_reference(lam):
    i, j = np.triu_indices(lam.shape[0], 1)
    return 2.0 * np.sum(np.log(lam[j] - lam[i]), axis=0)


class TestLogVandermonde:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(increasing_columns())
    def test_grouped_products_match_pairwise_logs(self, lam):
        assert np.all(np.diff(lam, axis=0) > 0.0)
        ref = log_vandermonde_sq_reference(lam)
        got = ms._log_vandermonde_sq(lam)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
        k = lam.shape[0]
        doubled = ms._log_vandermonde_sq(2.0 * lam) - got
        assert np.all(np.abs(doubled - k * (k - 1) * math.log(2.0)) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_zero_gap_gives_minus_infinity(self):
        lam = np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
        with np.errstate(divide="ignore"):
            got = ms._log_vandermonde_sq(lam)
        assert got[0] == float("-inf")
        assert got[1] == pytest.approx(log_vandermonde_sq_reference(lam[:, 1:])[0], rel=1e-15)


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
        b = estimate_log_volume_omega(affine(H_ID, 2.0, 0.0), 32, 50_000, seed=7)
        assert abs((b - a) - math.log(2.0)) <= 1e-12

    def test_ess_guard(self, monkeypatch):
        # a flat proposal cannot follow the Vandermonde peak at k=64
        monkeypatch.setattr(ms, "_PROPOSAL_FLOOR", 1.0)
        with pytest.raises(PrecisionError) as err:
            estimate_log_volume_omega(H_ID, 64, 10_000, seed=0)
        assert err.value.diagnostics["ess"] < 100

    def test_sample_memory_stays_near_one_sample_array(self):
        # the (k, samples) draws are the only array of that size; weights
        # are formed block by block
        k, samples = 64, 20_000
        tracemalloc.start()
        try:
            estimate_log_volume_omega(H_ID, k, samples, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * k * samples * 8

    @pytest.mark.parametrize("k", [16, 32, 64])
    @pytest.mark.parametrize("h", [H_ID, affine(H_ID, 1.7, -0.4), H_SC], ids=["id", "affine", "sc"])
    def test_guide_table_bins_match_searchsorted(self, h, k):
        lo, hi = h.slots(k)
        _, cum = ms._box_proposal(lo, hi, h.values[-1] - h.values[0])
        flat = np.cumsum(np.full(ms._PROPOSAL_BINS, 1.0 / ms._PROPOSAL_BINS))
        cells = np.arange(ms._GUIDE_CELLS) / ms._GUIDE_CELLS
        rng = np.random.default_rng(k)
        for row in (*cum, flat):
            # uniform draws, plus draws on and just below every bin edge, on
            # every cell start, and the largest draw below 1
            r = np.concatenate(
                [
                    rng.random(20_000),
                    row[row < 1.0],
                    np.nextafter(row, 0.0),
                    cells,
                    [np.nextafter(1.0, 0.0)],
                ]
            )
            want = np.minimum(np.searchsorted(row, r, side="right"), ms._PROPOSAL_BINS - 1)
            np.testing.assert_array_equal(ms._draw_bins(row, r), want)

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
        # pinned at this seed; about 0.4% of kept sums fail at this eps
        assert result.fraction == 0.99

    def test_word_splitting_tolerances_filter_everything(self):
        # the crude word-splitting filter (length 2N, tolerance eps/(4 (2R)^N),
        # ~4e-4 here) lies far below the O(1/k) moment noise, so no pair
        # survives and the check is inconclusive
        result = check_sum_containment(
            H_SC, H_SC, 64, 3, 0.1, trials=100, seed=7,
            filter_max_len=6, filter_eps=0.1 / (4 * 2.0**6),
        )
        assert result.inconclusive
        assert result.kept == 0
        assert math.isnan(result.fraction)

    def test_first_moment_passes_by_trace_linearity(self):
        result = check_sum_containment(
            H_UN, H_UN, 64, 1, 0.2, trials=100, seed=13, filter_max_len=2, filter_eps=0.025
        )
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

    def test_no_eigensolve_per_trial(self, monkeypatch):
        # one Haar basis per trial, and neither the pair nor the sum of a kept
        # pair is solved: the sum's norm bound is its parts' total;
        # filter_eps 0.06 keeps 35 of 100
        eigensolves = _count_eigensolves(monkeypatch)
        qrs = _count_linalg(monkeypatch, "qr")
        result = check_sum_containment(
            H_SC, H_UN, 16, 2, 0.2, trials=100, seed=5, filter_max_len=2, filter_eps=0.06
        )
        assert 0 < result.kept < result.trials
        assert eigensolves == []
        assert len(qrs) == 100

    def test_membership_tests_the_pair_and_each_kept_sum(self, monkeypatch):
        calls = _count_membership(monkeypatch)
        result = check_sum_containment(
            H_SC, H_UN, 16, 2, 0.2, trials=100, seed=5, filter_max_len=2, filter_eps=0.06
        )
        assert 0 < result.kept < result.trials
        assert sorted(calls) == [1] * result.kept + [2] * result.trials

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            check_sum_containment(
                H_SC, H_SC, 32, 2, 0.1, trials=50, seed=0, filter_max_len=2, filter_eps=0.1
            )


class TestInvariants:
    def test_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(3)
        diag = np.sort(rng.uniform(-1.0, 1.0, 48))
        u = _haar(48, seed=8)
        m = (u * diag) @ u.conj().T
        m = 0.5 * (m + m.conj().T)
        assert np.max(np.abs(np.linalg.eigvalsh(m) - diag)) <= 1e-9

    def test_trace_additivity(self):
        a = _omega(H_SC, 64, seed=1)
        b = _omega(H_UN, 64, seed=2)
        total = _normalized_trace(a + b)
        assert abs(total - (_normalized_trace(a) + _normalized_trace(b))) <= 1e-13

    def test_sum_carries_the_total_norm_bound(self):
        a = _omega(H_SC, 64, seed=1)
        b = _omega(H_UN, 64, seed=2)
        total = a + b
        assert total._norm_bound == a._norm_bound + b._norm_bound
        assert float(np.max(np.abs(total.spectrum()))) <= total._norm_bound

    def test_mixed_moment_approaches_free_target(self):
        cums = {
            0: cumulants_from_moments(H_SC.moments(4)),
            1: cumulants_from_moments(H_UN.moments(4)),
        }
        target = mixed_free_moment(cums, (0, 1, 0, 1))
        vals = []
        for s in range(20):
            rng = np.random.default_rng(1000 + s)
            a = ms._sample_omega(H_SC, 256, rng)
            b = ms._sample_omega(H_UN, 256, rng)
            w = a.entries @ b.entries
            vals.append(float(np.trace(w @ w).real) / 256.0)
        assert abs(float(np.mean(vals)) - target) <= 0.1
