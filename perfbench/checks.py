"""Checks of CLI outputs against computations made apart from the program.

Nothing here imports ``freesum``.  References are closed forms written out
below: cell averages of the semicircle, arcsine and free two-point laws,
moments and free cumulants of the input laws, free entropies, volumes of
balls, boxes and ellipsoids, and Mehta's closed form of the flag constant.
Tolerances are those of the acceptance battery in ``tests/test_acceptance.py``
unless a comment says otherwise.

``check(config, doc)`` returns ``(failures, l1)``: a list of messages, empty
when the output passes, and the L1 distance to a closed-form convolution
when the operation has one (else ``None``).
"""

from __future__ import annotations

import math

import numpy as np

L1_SEMICIRCLE_TOL = 1e-2
L1_TWO_POINT_TOL = 2e-2
CUMULANT_TOL = 5e-3
EPI_EQUALITY_REL_TOL = 2e-2
# the battery has no arcsine entropy check; the program's error there is
# 1.4e-4, so the semicircle tolerance applies
CHI_TOL = {"semicircle": 1e-3, "uniform": 1e-4, "arcsine": 1e-3}
# exact volumes are closed forms on both sides: only rounding may differ
VOLUME_REL_TOL = 1e-12
MICROSTATE_FRACTION_MIN = 0.95
LOG_VOLUME_TOL = 0.1
FLAG_CONSTANT_REL_TOL = 1e-6
# The battery's 3 sigma holds at its one fixed seed.  Here the Monte Carlo
# seed changes with every benchmark seed, and a 3 sigma bound would fail on
# 0.27% of them; 5 sigma keeps that below 1e-6 per seed.
PAIR_FRACTION_SIGMAS = 5.0

# chi = log-energy + CHI_SHIFT
CHI_SHIFT = 0.75 + 0.5 * math.log(2.0 * math.pi)


# -- laws ---------------------------------------------------------------------


def law_moments(spec: dict, order: int = 4) -> list[float]:
    """Raw moments m_1..m_order of a measure spec, in closed form."""
    family, p = spec["family"], spec.get("params", [])
    ks = range(1, order + 1)
    if family == "semicircle":
        # m_2j = Catalan(j) v^j
        return [0.0 if k % 2 else math.comb(k, k // 2) / (k // 2 + 1) * p[0] ** (k // 2)
                for k in ks]
    if family == "arcsine":
        # m_2j = binom(2j, j) (r/2)^2j
        return [0.0 if k % 2 else math.comb(k, k // 2) * (p[0] / 2.0) ** k for k in ks]
    if family == "uniform":
        a, b = p
        return [(b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a)) for k in ks]
    if family == "bernoulli":
        w, a, b = p
        return [w * a**k + (1.0 - w) * b**k for k in ks]
    if family == "free_poisson":
        # every free cumulant of the free Poisson law (jump 1) equals the rate
        return moments_from_cumulants([p[0]] * order)
    raise ValueError(f"no closed-form moments for family {family!r}")


def _series_power(coeffs: list[float], power: int, degree: int) -> list[float]:
    out = [1.0] + [0.0] * degree
    for _ in range(power):
        out = [sum(out[i] * coeffs[j - i] for i in range(j + 1)) for j in range(degree + 1)]
    return out


def moments_from_cumulants(kappa: list[float]) -> list[float]:
    """m_n = sum_s kappa_s [z^(n-s)] M(z)^s, from M(z) = C(z M(z))."""
    m = [1.0]
    for n in range(1, len(kappa) + 1):
        m.append(sum(kappa[s - 1] * _series_power(m, s, n - s)[n - s] for s in range(1, n + 1)))
    return m[1:]


def cumulants_from_moments(moments: list[float]) -> list[float]:
    """Inverse of moments_from_cumulants, one order at a time."""
    m = [1.0] + list(moments)
    kappa: list[float] = []
    for n in range(1, len(moments) + 1):
        lower = sum(kappa[s - 1] * _series_power(m, s, n - s)[n - s] for s in range(1, n))
        kappa.append(m[n] - lower)
    return kappa


def staircase_moments(measure: dict, order: int = 4) -> list[float]:
    """Exact moments of a cell-constant density plus atoms."""
    dens = np.asarray(measure["density"], dtype=float)
    edges = np.linspace(measure["grid_lo"], measure["grid_hi"], dens.size + 1)
    out = []
    for k in range(1, order + 1):
        cell = (edges[1:] ** (k + 1) - edges[:-1] ** (k + 1)) / (k + 1)
        out.append(float(np.dot(dens, cell)) + sum(w * x**k for x, w in measure["atoms"]))
    return out


def semicircle_cdf(variance: float):
    r = 2.0 * math.sqrt(variance)

    def cdf(x):
        u = np.clip(x / r, -1.0, 1.0)
        return 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi

    return cdf


def free_two_point_cdf(alpha: list[float], beta: list[float]):
    """CDF of the free sum of two equal-weight two-point laws.

    With half-spans a, b and S = a + b, D = |a - b|, the centred sum has
    density |y| / (pi sqrt((S^2 - y^2)(y^2 - D^2))) on D <= |y| <= S, the
    arcsine law of radius S when a = b.
    """
    shift = 0.5 * (alpha[1] + alpha[2] + beta[1] + beta[2])
    a, b = 0.5 * abs(alpha[2] - alpha[1]), 0.5 * abs(beta[2] - beta[1])
    s2, d2 = (a + b) ** 2, (a - b) ** 2

    def cdf(x):
        y = np.asarray(x, dtype=float) - shift
        yy = np.clip(y * y, d2, s2)
        half = np.arcsin(np.clip((2.0 * yy - s2 - d2) / (s2 - d2), -1.0, 1.0)) / (2.0 * math.pi)
        return np.where(y >= 0.0, 0.75 + half, 0.25 - half)

    return cdf


def l1_to_cdf(measure: dict, cdf) -> float:
    """L1 distance from a staircase output to the cell averages of a CDF."""
    dens = np.asarray(measure["density"], dtype=float)
    edges = np.linspace(measure["grid_lo"], measure["grid_hi"], dens.size + 1)
    h = edges[1] - edges[0]
    ref = np.diff(cdf(edges)) / h
    return float(np.sum(np.abs(dens - ref)) * h) + sum(w for _, w in measure["atoms"])


def closed_form_sum_cdf(alpha: dict, beta: dict):
    """CDF of alpha boxplus beta when a closed form is known, else None."""
    if alpha["family"] == beta["family"] == "semicircle":
        return semicircle_cdf(alpha["params"][0] + beta["params"][0])
    if (alpha["family"] == beta["family"] == "bernoulli"
            and alpha["params"][0] == beta["params"][0] == 0.5):
        return free_two_point_cdf(alpha["params"], beta["params"])
    return None


def closed_form_chi(spec: dict) -> float | None:
    family, p = spec["family"], spec.get("params", [])
    if family == "semicircle":
        return 0.5 * math.log(2.0 * math.pi * math.e * p[0])
    if family == "uniform":
        return math.log(p[1] - p[0]) - 1.5 + CHI_SHIFT
    if family == "arcsine":
        return math.log(p[0] / 2.0) + CHI_SHIFT
    if family == "bernoulli":
        return float("-inf")
    return None


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def set_volume(spec: dict) -> float | None:
    kind = spec["kind"]
    if kind == "ball":
        return unit_ball_volume(spec["dim"]) * spec["radius"] ** spec["dim"]
    if kind == "box":
        return math.prod(2.0 * w for w in spec["half_widths"])
    if kind == "ellipsoid":
        return unit_ball_volume(len(spec["semi_axes"])) * math.prod(spec["semi_axes"])
    return None


def exact_minkowski_volume(a: dict, b: dict, theta: dict) -> float | None:
    """Exact restricted-sum volume for the configurations the benchmark runs."""
    if a["kind"] == b["kind"] == "ball":
        n = a["dim"]
        if theta["kind"] == "full":
            return unit_ball_volume(n) * (a["radius"] + b["radius"]) ** n
        if theta["kind"] == "inner_product_leq" and theta["c"] == 0.0:
            # {x + y : <x, y> <= 0} is the ball of radius sqrt(ra^2 + rb^2)
            return unit_ball_volume(n) * math.hypot(a["radius"], b["radius"]) ** n
    if a["kind"] == b["kind"] == "box" and theta["kind"] == "full":
        return math.prod(2.0 * (wa + wb) for wa, wb in zip(a["half_widths"], b["half_widths"]))
    return None


def log_flag_constant(k: int) -> float:
    """Mehta: (k^2/2) log 2pi - (k/2) log 2pi - sum_{n<k} log n!."""
    return (0.5 * k * k - 0.5 * k) * math.log(2.0 * math.pi) - sum(
        math.lgamma(n + 1) for n in range(k)
    )


# -- checks per command ---------------------------------------------------------


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1.0)


def _check_freeconv(params, result):
    failures = []
    alpha, beta = params["alpha"], params["beta"]
    measure = result["measure"]
    l1 = None
    cdf = closed_form_sum_cdf(alpha, beta)
    if cdf is not None:
        l1 = l1_to_cdf(measure, cdf)
        tol = L1_SEMICIRCLE_TOL if alpha["family"] == "semicircle" else L1_TWO_POINT_TOL
        if not l1 <= tol:
            failures.append(f"L1 to the closed form {l1:.3e} > {tol}")
    want = [x + y for x, y in zip(cumulants_from_moments(law_moments(alpha)),
                                  cumulants_from_moments(law_moments(beta)))]
    got = cumulants_from_moments(staircase_moments(measure))
    for j, (g, w) in enumerate(zip(got, want), start=1):
        if not abs(g - w) <= CUMULANT_TOL:
            failures.append(f"kappa_{j} additivity off by {abs(g - w):.3e}")
    return failures, l1


def _check_epi(params, result):
    failures = []
    report = result["report"]
    if result["verdict"] != "holds":
        failures.append(f"verdict {result['verdict']!r}; the free EPI is a theorem")
    alpha, beta = params["alpha"], params["beta"]
    for name, spec in (("alpha", alpha), ("beta", beta)):
        want = closed_form_chi(spec)
        got = report[f"chi_{name}"]
        if want == float("-inf"):
            if got != want:
                failures.append(f"chi_{name} {got} for an atomic input")
            if name not in report["infinite_entropy_inputs"]:
                failures.append(f"atomic input {name} missing from infinite_entropy_inputs")
        elif want is not None and not abs(got - want) <= CHI_TOL[spec["family"]]:
            failures.append(f"chi_{name} off its closed form by {abs(got - want):.2e}")
    if alpha == beta and alpha["family"] == "semicircle":
        rel = abs(report["deficit"]) / report["power_sum"]
        if not rel <= EPI_EQUALITY_REL_TOL:
            failures.append(f"equality case relative deficit {rel:.4f}")
    return failures, None


def _input_volume_failures(params, context):
    failures = []
    for side, key in (("a", "volume_a"), ("b", "volume_b")):
        want = set_volume(params[side])
        if want is not None and not _close(context[key], want, VOLUME_REL_TOL):
            failures.append(f"{key} {context[key]!r} differs from closed form {want!r}")
    return failures


def _check_theorem12(params, result):
    report = result["report"]
    failures = _input_volume_failures(params, report["context"])
    if not report["context"]["gate"]["passed"]:
        failures.append("admissibility gate did not pass")
    if report["verdict"] == "violated":
        failures.append("verdict violated on a theorem")
    return failures, None


def _check_minkowski(params, result):
    failures = []
    a, b, theta = params["a"], params["b"], params["theta"]
    vol_a, vol_b = set_volume(a), set_volume(b)
    m = result["pair_samples"]
    if theta["kind"] == "inner_product_leq" and theta["c"] == 0.0:
        fraction = result["theta_volume"]["value"] / (vol_a * vol_b)
        sigma = math.sqrt(0.25 / m)
        if not abs(fraction - 0.5) <= PAIR_FRACTION_SIGMAS * sigma:
            failures.append(
                f"pair fraction {fraction:.6f} is {abs(fraction - 0.5) / sigma:.1f} sigma from 1/2"
            )
    exact = exact_minkowski_volume(a, b, theta)
    if exact is not None:
        est = result["sum_volume"]
        # restricted_sum_volume documents the estimate as low-biased with an
        # additive allowance: the exact volume lies in [value, value + stderr]
        if not est["value"] <= exact <= est["value"] + est["stderr"]:
            failures.append(
                f"exact sum volume {exact:.4f} outside [{est['value']:.4f}, "
                f"{est['value'] + est['stderr']:.4f}] (ratio {est['value'] / exact:.3f})"
            )
    return failures, None


def _check_theta(params, result):
    if not result["fraction"] >= MICROSTATE_FRACTION_MIN:
        return [f"theta fraction {result['fraction']} < {MICROSTATE_FRACTION_MIN}"], None
    return [], None


def _check_sum(params, result):
    if result["inconclusive"]:
        return ["containment inconclusive"], None
    if not result["fraction"] >= MICROSTATE_FRACTION_MIN:
        return [f"containment fraction {result['fraction']} < {MICROSTATE_FRACTION_MIN}"], None
    return [], None


def _check_volume(params, result):
    failures = []
    if len(params["h"]["values"]) != 2:
        raise ValueError("volume check expects an affine profile")
    lo, hi = params["h"]["values"]
    want = closed_form_chi({"family": "uniform", "params": [lo, hi]})
    got = result["normalized_log_volume"]
    if not abs(got - want) <= LOG_VOLUME_TOL:
        failures.append(f"log-volume {got:.4f} vs entropy {want:.4f}")
    k = params["k"]
    flag = log_flag_constant(k)
    if not _close(result["log_flag_constant"], flag, FLAG_CONSTANT_REL_TOL):
        failures.append(f"log_flag_constant {result['log_flag_constant']} vs closed form {flag}")
    return failures, None


_CHECKS = {
    "freeconv": _check_freeconv,
    "epi": _check_epi,
    "theorem12": _check_theorem12,
    "minkowski": _check_minkowski,
    "microstates-theta": _check_theta,
    "microstates-sum": _check_sum,
    "microstates-volume": _check_volume,
}


def check(config: dict, doc: dict):
    """Check one CLI output document against its config's closed forms."""
    failures = []
    if doc.get("command") != config["command"]:
        failures.append(f"document command {doc.get('command')!r} != {config['command']!r}")
    more, l1 = _CHECKS[config["command"]](config["params"], doc["result"])
    return failures + more, l1
