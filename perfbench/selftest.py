"""Self-test of the benchmark's checks: each must reject a wrong output.

Run from the repository root: ``python3 perfbench/selftest.py``.  Outputs
are synthesised from the closed forms in ``checks.py``, so the test needs
neither freesum nor a benchmark run.  Each case builds a right output, which
the check must accept, and deliberately wrong ones, which it must reject.
"""

import copy
import math
import sys

import numpy as np

import checks


def staircase(cdf, lo, hi, n=2048):
    edges = np.linspace(lo, hi, n + 1)
    return {"grid_lo": lo, "grid_hi": hi, "atoms": [],
            "density": list(np.diff(cdf(edges)) / (edges[1] - edges[0]))}


def law(family, *params):
    return {"family": family, "params": list(params)}


def freeconv_case(alpha, beta, cdf, lo, hi):
    config = {"command": "freeconv", "params": {"alpha": alpha, "beta": beta}}
    doc = {"command": "freeconv", "result": {"measure": staircase(cdf, lo, hi)}}
    return config, doc


def epi_doc(alpha, beta, chi_sum):
    chi_a, chi_b = checks.closed_form_chi(alpha), checks.closed_form_chi(beta)
    power = [0.0 if c == -math.inf else math.exp(2 * c) for c in (chi_a, chi_b, chi_sum)]
    report = {"chi_alpha": chi_a, "chi_beta": chi_b, "chi_sum": chi_sum,
              "power_alpha": power[0], "power_beta": power[1], "power_sum": power[2],
              "deficit": power[2] - power[0] - power[1],
              "infinite_entropy_inputs": [n for n, c in (("alpha", chi_a), ("beta", chi_b))
                                          if c == -math.inf]}
    return {"command": "epi", "result": {"report": report, "verdict": "holds"}}


def cases():
    """Yield (name, config, right_doc, [(wrong_name, wrong_doc), ...])."""
    sc1, sc2 = law("semicircle", 0.5), law("semicircle", 1.2)
    config, doc = freeconv_case(sc1, sc2, checks.semicircle_cdf(1.7), -4.5, 4.5)
    wrong_var = freeconv_case(sc1, sc2, checks.semicircle_cdf(1.9), -4.5, 4.5)[1]
    yield "freeconv semicircle", config, doc, [("semicircle of the wrong variance", wrong_var)]

    b = law("bernoulli", 0.5, -1.0, 1.0)
    arcsine2 = lambda x: 0.5 + np.arcsin(np.clip(np.asarray(x) / 2.0, -1, 1)) / math.pi  # noqa: E731
    config, doc = freeconv_case(b, b, arcsine2, -2.0, 2.0)
    shifted = freeconv_case(b, b, lambda x: arcsine2(np.asarray(x) - 0.05), -2.05, 2.05)[1]
    with_atom = copy.deepcopy(doc)
    with_atom["result"]["measure"]["density"] = [
        0.98 * d for d in with_atom["result"]["measure"]["density"]]
    with_atom["result"]["measure"]["atoms"] = [[0.0, 0.02]]
    yield "freeconv two-point", config, doc, [("shifted arcsine", shifted),
                                              ("spurious atom", with_atom)]

    a, b = law("semicircle", 1.0), law("semicircle", 1.0)
    config = {"command": "epi", "params": {"alpha": a, "beta": b}}
    doc = epi_doc(a, b, checks.closed_form_chi(law("semicircle", 2.0)))
    violated = copy.deepcopy(doc)
    violated["result"]["verdict"] = "violated"
    off_deficit = epi_doc(a, b, checks.closed_form_chi(law("semicircle", 2.2)))
    off_chi = copy.deepcopy(doc)
    off_chi["result"]["report"]["chi_alpha"] += 0.01
    yield "epi semicircle equality", config, doc, [("verdict violated", violated),
                                                   ("deficit of 10%", off_deficit),
                                                   ("chi off its closed form", off_chi)]

    a, b = law("arcsine", 1.0), law("uniform", -1.0, 1.0)
    config = {"command": "epi", "params": {"alpha": a, "beta": b}}
    doc = epi_doc(a, b, 2.0)
    off_uniform = copy.deepcopy(doc)
    off_uniform["result"]["report"]["chi_beta"] += 1e-3
    yield "epi arcsine+uniform", config, doc, [("uniform chi off by 1e-3", off_uniform)]

    a = b = law("bernoulli", 0.5, -1.0, 1.0)
    config = {"command": "epi", "params": {"alpha": a, "beta": b}}
    doc = epi_doc(a, b, 0.5)
    unlisted = copy.deepcopy(doc)
    unlisted["result"]["report"]["infinite_entropy_inputs"] = ["alpha"]
    yield "epi two-point", config, doc, [("atomic input not listed", unlisted)]

    ball_a, ball_b = ({"kind": "ball", "radius": r, "dim": 3} for r in (1.0, 0.6))
    params = {"a": ball_a, "b": ball_b, "theta": {"kind": "full"}}
    vol_a, vol_b = checks.set_volume(ball_a), checks.set_volume(ball_b)
    report = {"verdict": "holds",
              "context": {"gate": {"passed": True}, "volume_a": vol_a, "volume_b": vol_b}}
    config = {"command": "theorem12", "params": params}
    doc = {"command": "theorem12", "result": {"report": report}}
    wrong = []
    for label, path, value in (("gate failed", ("context", "gate", "passed"), False),
                               ("verdict violated", ("verdict",), "violated"),
                               ("volume_a off", ("context", "volume_a"), vol_a * 1.001)):
        bad = copy.deepcopy(doc)
        node = bad["result"]["report"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        wrong.append((label, bad))
    yield "theorem12 balls", config, doc, wrong

    theta = {"kind": "inner_product_leq", "c": 0.0}
    config = {"command": "minkowski", "params": {"a": ball_a, "b": ball_b, "theta": theta}}
    exact = checks.exact_minkowski_volume(ball_a, ball_b, theta)
    m = 1_000_000

    def minkowski_doc(fraction, value, stderr):
        return {"command": "minkowski", "result": {
            "pair_samples": m,
            "theta_volume": {"value": fraction * vol_a * vol_b},
            "sum_volume": {"value": value, "stderr": stderr}}}

    doc = minkowski_doc(0.5, 0.97 * exact, 0.1 * exact)
    yield "minkowski inner product", config, doc, [
        ("pair fraction 20 sigma off", minkowski_doc(0.51, 0.97 * exact, 0.1 * exact)),
        ("sum volume above the exact one", minkowski_doc(0.5, 1.05 * exact, 0.1 * exact)),
        ("allowance too small", minkowski_doc(0.5, 0.9 * exact, 0.05 * exact)),
    ]

    config = {"command": "microstates-theta", "params": {}}
    yield "microstates-theta", config, {"command": "microstates-theta",
                                        "result": {"fraction": 0.97}}, [
        ("fraction 0.9", {"command": "microstates-theta", "result": {"fraction": 0.9}})]

    config = {"command": "microstates-sum", "params": {}}
    yield "microstates-sum", config, {"command": "microstates-sum",
                                      "result": {"fraction": 1.0, "inconclusive": False}}, [
        ("inconclusive", {"command": "microstates-sum",
                          "result": {"fraction": float("nan"), "inconclusive": True}}),
        ("fraction 0.8", {"command": "microstates-sum",
                          "result": {"fraction": 0.8, "inconclusive": False}})]

    profile = {"nodes": [0.0, 1.0], "values": [-0.5, 1.5]}
    config = {"command": "microstates-volume", "params": {"h": profile, "k": 32}}
    chi = checks.closed_form_chi(law("uniform", -0.5, 1.5))
    flag = checks.log_flag_constant(32)

    def volume_doc(value, flag_value):
        return {"command": "microstates-volume",
                "result": {"normalized_log_volume": value, "log_flag_constant": flag_value}}

    yield "microstates-volume", config, volume_doc(chi - 0.02, flag), [
        ("log-volume 0.2 off", volume_doc(chi - 0.2, flag)),
        ("flag constant off", volume_doc(chi - 0.02, flag * (1 + 1e-5)))]


def reference_failures() -> list[str]:
    """The closed forms themselves, against values worked out by hand."""
    out = []
    if not np.allclose(checks.law_moments(law("free_poisson", 2.0)), [2.0, 6.0, 22.0, 90.0]):
        out.append("free Poisson moments from cumulants")
    if not np.allclose(checks.cumulants_from_moments(checks.law_moments(law("semicircle", 1.5))),
                       [0.0, 1.5, 0.0, 0.0], atol=1e-14):
        out.append("semicircle cumulants from moments")
    if not np.allclose(checks.cumulants_from_moments(checks.law_moments(law("arcsine", 2.0))),
                       [0.0, 2.0, 0.0, -2.0], atol=1e-14):
        out.append("arcsine cumulants from moments")
    two_point = checks.free_two_point_cdf([0.5, -1.0, 1.0], [0.5, -1.0, 1.0])
    x = np.linspace(-2.5, 2.5, 101)
    if not np.allclose(two_point(x), 0.5 + np.arcsin(np.clip(x / 2, -1, 1)) / math.pi):
        out.append("equal-span two-point sum is not arcsine")
    if abs(checks.log_flag_constant(1)) > 1e-15 or abs(
            checks.log_flag_constant(2) - math.log(2 * math.pi)) > 1e-12:
        out.append("flag constant at k = 1, 2")
    return out


def main() -> int:
    bad = 0
    for failure in reference_failures():
        print(f"FAIL reference: {failure}")
        bad += 1
    for name, config, right, wrongs in cases():
        failures, _ = checks.check(config, right)
        if failures:
            print(f"FAIL {name}: right output rejected: {failures}")
            bad += 1
        for wrong_name, doc in wrongs:
            failures, _ = checks.check(config, doc)
            status = "ok  " if failures else "FAIL"
            bad += not failures
            print(f"{status} {name}: rejects {wrong_name}")
    print("self-test", "passed" if not bad else f"failed ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
