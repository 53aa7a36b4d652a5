"""Acceptance battery: one test per primary operating requirement.

Each test prints a single pass/fail line (written past pytest's capture)
and enforces the stated tolerances plus its runtime ceiling.  All seeds
are fixed, so every stochastic figure asserted below is bit-reproducible
on re-runs.
"""

import math
import time
from math import lgamma

import numpy as np
from scipy.special import ndtr

from freesum.cumulants import free_cumulant
from freesum.freeconv import free_convolve
from freesum.freeentropy import chi, epi_deficit, stam_deficit
from freesum.geometry import (
    MonteCarloConfig,
    SetSpec,
    ThetaSpec,
    ball_example_exact,
    bll_symmetrization_check,
    check_lemma13,
    check_theorem12,
    first_integral_fraction_at_extremal_r0,
    restricted_sum_volume,
)
from freesum.measure import (
    kolmogorov_distance,
    l1_distance,
    standard_family,
)
from freesum.microstates import (
    StepFunctionSpec,
    check_sum_containment,
    estimate_log_volume_omega,
    log_flag_constant,
    sum_spectrum_experiment,
    theta_fraction,
)

SEMICIRCLE1 = standard_family("semicircle", [1.0])
BERN_SYM = standard_family("bernoulli", [0.5, -1.0, 1.0])
CHI_UNIFORM01 = -0.75 + 0.5 * math.log(2.0 * math.pi)


def finish(capsys, num, name, t0, limit, failures):
    elapsed = time.monotonic() - t0
    over = limit is not None and elapsed >= limit
    status = "FAIL" if failures or over else "PASS"
    limit_txt = f" (limit {limit:.0f}s)" if limit is not None else ""
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {status} in {elapsed:.1f}s{limit_txt}")
    if over:
        failures = failures + [f"runtime {elapsed:.1f}s exceeded the {limit:.0f}s ceiling"]
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures)


def random_body(rng, n):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return SetSpec.ball(float(rng.uniform(0.3, 1.5)), n)
    if kind == 1:
        return SetSpec.box(rng.uniform(0.2, 1.2, size=n))
    return SetSpec.ellipsoid(rng.uniform(0.3, 1.4, size=n))


def random_law(rng, allow_atoms=True):
    # convolutions of these stay atomless: at most one factor carries atoms,
    # and a two-point law needs an atomic partner to produce an output atom
    kind = int(rng.integers(0, 4 if allow_atoms else 3))
    if kind == 0:
        return standard_family("semicircle", [float(rng.uniform(0.3, 2.0))])
    if kind == 1:
        return standard_family("uniform", sorted(float(v) for v in rng.uniform(-2, 2, size=2)))
    if kind == 2:
        return standard_family("arcsine", [float(rng.uniform(0.5, 2.0))])
    return standard_family(
        "bernoulli",
        [
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(-2.0, -0.2)),
            float(rng.uniform(0.2, 2.0)),
        ],
    )


def random_law_pair(rng):
    a = random_law(rng, allow_atoms=True)
    b = random_law(rng, allow_atoms=not a.atoms)
    return a, b


def test_criterion_01_ball_equality_exact_and_mc(capsys):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(101)
    mc_rho = float(rng.uniform(0.3, 0.9))
    mc_n = int(rng.integers(2, 6))
    cases = [(mc_rho, mc_n)] + [
        (float(rng.uniform(0.05, 0.95)), int(rng.integers(1, 129))) for _ in range(19)
    ]
    for rho, n in cases:
        gap = ball_example_exact(rho, n)["equality_gap"]
        if abs(gap) > 1e-12:
            failures.append(f"equality gap {gap:.3e} at rho={rho:.3f} n={n}")

    # the equality pair itself, pushed through the sampling pipeline
    report = check_theorem12(
        SetSpec.ball(1.0, mc_n),
        SetSpec.ball(mc_rho, mc_n),
        ThetaSpec.inner_product_leq(0.0),
        MonteCarloConfig(pair_samples=10_000_000, seed=2024),
    )
    ctx = report.context
    frac = ctx["theta_volume"]["value"] / (ctx["volume_a"] * ctx["volume_b"])
    sigma = math.sqrt(0.25 / 10_000_000)
    if abs(frac - 0.5) > 3.0 * sigma:
        failures.append(f"theta fraction {frac:.6f} is {abs(frac - 0.5) / sigma:.1f} sigma from 1/2")
    if abs(report.deficit) > report.ci_halfwidth:
        failures.append(
            f"deficit {report.deficit:.4f} outside CI halfwidth {report.ci_halfwidth:.4f}"
        )
    finish(capsys, 1, "ball equality case, exact and sampled", t0, 120.0, failures)


def test_criterion_02_randomized_restricted_sum_battery(capsys):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(20240817)
    gate_passed = 0
    for i in range(50):
        n = int(rng.integers(2, 6))
        a, b = random_body(rng, n), random_body(rng, n)
        if rng.uniform() < 0.8:
            theta = ThetaSpec.full()
        else:
            theta = ThetaSpec.complement_fraction(float(rng.uniform(1e-4, 2e-3)))
        report = check_theorem12(a, b, theta, MonteCarloConfig(seed=int(rng.integers(1 << 31))))
        if report.context["gate"]["passed"]:
            gate_passed += 1
            if report.verdict == "violated":
                failures.append(f"config {i} (n={n}) reported violated")
    if gate_passed < 40:
        failures.append(f"only {gate_passed}/50 configs passed the admissibility gate")
    finish(capsys, 2, "50-config battery never violated", t0, 600.0, failures)


def test_criterion_03_cap_constant_and_limit_fraction(capsys):
    t0 = time.monotonic()
    failures = []
    for rho in (0.05, 0.2, 1.0):
        for n in (2, 8, 32, 128):
            c1 = check_lemma13(n, rho)["c1_estimate"]
            if c1 <= 0.05:
                failures.append(f"c1={c1:.4f} at rho={rho} n={n}")
        frac = first_integral_fraction_at_extremal_r0(10_000, rho)
        if abs(frac - ndtr(1.0)) > 0.02:
            failures.append(f"first-integral fraction {frac:.4f} at rho={rho}")
    finish(capsys, 3, "uncovered-cap constant and normal-tail limit", t0, 60.0, failures)


def test_criterion_04_symmetrization_triples(capsys):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(808)
    for i in range(30):
        n = int(rng.integers(1, 4))
        a, b, c = (random_body(rng, n) for _ in range(3))
        report = bll_symmetrization_check(
            a, b, c, MonteCarloConfig(seed=int(rng.integers(1 << 31)))
        )
        if report.lhs > report.rhs + report.ci_halfwidth:
            failures.append(
                f"triple {i}: lhs {report.lhs:.5f} > rhs {report.rhs:.5f} + ci {report.ci_halfwidth:.5f}"
            )
    finish(capsys, 4, "symmetrized triple integrals dominate", t0, 300.0, failures)


def test_criterion_05_free_convolution_oracles(capsys):
    t0 = time.monotonic()
    failures = []
    for v1, v2 in ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7), (2.0, 0.25), (1.2, 0.8)):
        out = free_convolve(
            standard_family("semicircle", [v1]), standard_family("semicircle", [v2])
        )
        dist = l1_distance(out, standard_family("semicircle", [v1 + v2]))
        if dist > 1e-2:
            failures.append(f"semicircle pair ({v1},{v2}) L1={dist:.4f}")
    dist = l1_distance(free_convolve(BERN_SYM, BERN_SYM), standard_family("arcsine", [2.0]))
    if dist > 2e-2:
        failures.append(f"two-point pair L1={dist:.4f}")
    rng = np.random.default_rng(5150)
    for i in range(20):
        a, b = random_law_pair(rng)
        out = free_convolve(a, b)
        for j in range(1, 5):
            err = abs(free_cumulant(out, j) - free_cumulant(a, j) - free_cumulant(b, j))
            if err > 5e-3:
                failures.append(f"pair {i}: kappa_{j} additivity off by {err:.4f}")
    finish(capsys, 5, "convolution closed forms and cumulant additivity", t0, 120.0, failures)


def test_criterion_06_entropy_closed_forms(capsys):
    t0 = time.monotonic()
    failures = []
    err_u = abs(chi(standard_family("uniform", [0.0, 1.0])) - CHI_UNIFORM01)
    if err_u > 1e-4:
        failures.append(f"uniform entropy off by {err_u:.2e}")
    err_s = abs(chi(SEMICIRCLE1) - 0.5 * math.log(2.0 * math.pi * math.e))
    if err_s > 1e-3:
        failures.append(f"semicircle entropy off by {err_s:.2e}")
    finish(capsys, 6, "entropy closed forms", t0, 60.0, failures)


def test_criterion_07_entropy_power_superadditivity(capsys):
    t0 = time.monotonic()
    failures = []
    rng = np.random.default_rng(777)
    for i in range(25):
        a, b = random_law_pair(rng)
        report = epi_deficit(a, b)
        scale = max(report.power_sum, report.power_alpha + report.power_beta)
        if report.deficit < -2e-2 * scale:
            failures.append(f"pair {i}: deficit {report.deficit:.5f} below -2e-2 * {scale:.3f}")
    report = epi_deficit(SEMICIRCLE1, SEMICIRCLE1)
    rel = abs(report.deficit) / report.power_sum
    if rel > 2e-2:
        failures.append(f"equality case relative deficit {rel:.4f}")
    finish(capsys, 7, "entropy power superadditive on battery", t0, 300.0, failures)


def test_criterion_08_microstate_pipeline(capsys):
    t0 = time.monotonic()
    failures = []

    # (a) spectra of Haar-conjugated sums track the convolution
    for name, law, seed in (("two-point", BERN_SYM, 11), ("semicircle", SEMICIRCLE1, 12)):
        emp = sum_spectrum_experiment(law, law, 512, seed)
        ks = kolmogorov_distance(emp, free_convolve(law, law))
        if ks > 0.05:
            failures.append(f"{name} spectrum KS={ks:.4f}")

    # (b) acceptance fraction grows with matrix size and saturates
    h_sc = StepFunctionSpec.from_quantiles(SEMICIRCLE1)
    fractions = [theta_fraction(h_sc, h_sc, k, 3, 0.1, 100, 29).fraction for k in (32, 64, 128, 256)]
    if any(lo > hi for lo, hi in zip(fractions, fractions[1:])):
        failures.append(f"acceptance fractions not monotone: {fractions}")
    if not fractions[-1] >= 0.95:
        failures.append(f"final acceptance fraction {fractions[-1]:.3f} < 0.95")
    if not fractions[-1] > fractions[0]:
        failures.append("acceptance fraction failed to increase")

    # (c) normalization self-test, then the log-volume estimate itself
    for k in range(1, 9):
        closed = 0.5 * k * math.log(2.0 * math.pi) + sum(lgamma(n + 1) for n in range(k))
        target = 0.5 * k * k * math.log(2.0 * math.pi) - closed
        got = log_flag_constant(k)
        rel = abs(got - target) / max(abs(target), 1.0)
        if rel > 1e-6:
            failures.append(f"flag constant k={k} relative error {rel:.2e}")
    vol = estimate_log_volume_omega(StepFunctionSpec.identity(), 32, 100_000, 1)
    if abs(vol - CHI_UNIFORM01) > 0.1:
        failures.append(f"log-volume {vol:.4f} vs entropy {CHI_UNIFORM01:.4f}")

    # (d) containment of sum microstates under an attainable moment filter
    res = check_sum_containment(h_sc, h_sc, 256, 3, 0.4, 100, 19, filter_max_len=3, filter_eps=0.15)
    if res.inconclusive or not res.fraction >= 0.95:
        failures.append(f"containment fraction {res.fraction} (kept {res.kept}/{res.trials})")

    finish(capsys, 8, "microstate spectra, fractions, volume, containment", t0, 1200.0, failures)


def test_criterion_09_bitwise_determinism(capsys):
    t0 = time.monotonic()
    failures = []
    ball, small = SetSpec.ball(1.0, 3), SetSpec.ball(0.6, 3)
    theta = ThetaSpec.inner_product_leq(0.0)
    cfg = MonteCarloConfig(pair_samples=200_000, seed=31)

    r1 = restricted_sum_volume(ball, small, theta, cfg)
    r2 = restricted_sum_volume(ball, small, theta, cfg)
    if r1 != r2:
        failures.append("restricted_sum_volume not reproducible")

    rep1 = check_theorem12(ball, small, theta, cfg)
    rep2 = check_theorem12(ball, small, theta, cfg)
    if rep1 != rep2:
        failures.append("check_theorem12 not reproducible")

    b1 = bll_symmetrization_check(ball, small, small, cfg)
    b2 = bll_symmetrization_check(ball, small, small, cfg)
    if b1 != b2:
        failures.append("bll_symmetrization_check not reproducible")

    h = StepFunctionSpec.from_quantiles(SEMICIRCLE1)
    if theta_fraction(h, h, 64, 3, 0.1, 100, 17) != theta_fraction(h, h, 64, 3, 0.1, 100, 17):
        failures.append("theta_fraction not reproducible")

    s1 = sum_spectrum_experiment(SEMICIRCLE1, SEMICIRCLE1, 256, 5)
    s2 = sum_spectrum_experiment(SEMICIRCLE1, SEMICIRCLE1, 256, 5)
    if s1.atoms != s2.atoms or not np.array_equal(s1.density, s2.density):
        failures.append("sum_spectrum_experiment not reproducible")

    if estimate_log_volume_omega(h, 16, 20_000, 3) != estimate_log_volume_omega(h, 16, 20_000, 3):
        failures.append("estimate_log_volume_omega not reproducible")

    c1 = check_sum_containment(h, h, 64, 3, 0.4, 100, 19, filter_max_len=3, filter_eps=0.15)
    c2 = check_sum_containment(h, h, 64, 3, 0.4, 100, 19, filter_max_len=3, filter_eps=0.15)
    if c1 != c2:
        failures.append("check_sum_containment not reproducible")

    finish(capsys, 9, "stochastic pipelines re-run bit-identically", t0, None, failures)


def test_criterion_10_fisher_sharpening_records(capsys):
    t0 = time.monotonic()
    failures = []
    for v1, v2 in ((0.5, 0.5), (1.0, 1.0), (0.3, 1.7), (2.0, 0.25), (1.2, 0.8)):
        value = stam_deficit(
            standard_family("semicircle", [v1]), standard_family("semicircle", [v2])
        )
        if value > 5e-3:
            failures.append(f"semicircle pair ({v1},{v2}): {value:.2e}")
    # >= 0 by the free Stam inequality (Voiculescu 1998); recorded, not asserted
    recorded = {
        "uniform+uniform": stam_deficit(
            standard_family("uniform", [-1.0, 1.0]), standard_family("uniform", [-1.0, 1.0])
        ),
        "arcsine+semicircle": stam_deficit(standard_family("arcsine", [1.0]), SEMICIRCLE1),
    }
    with capsys.disabled():
        for pair, value in recorded.items():
            print(f"  [criterion 10] recorded reciprocal-information gap {pair}: {value:+.3e}")
    finish(capsys, 10, "reciprocal information superadditivity records", t0, None, failures)
