"""Seed-generated CLI configs for the four benchmark workloads.

Each workload is a list of operations run in sequence by one process.  An
operation is one JSON config for ``freesum.cli.run``; the program receives
nothing else.  Parameters are drawn from ``random.Random(seed)`` inside
narrow ranges, so a new seed gives new inputs with about the same amount of
work, and a claim can be re-checked on a seed that was not used to make it.

Every workload also runs a light config of each command outside its focus,
so that every run reports every end-to-end metric from work it really did
and each metric can be compared on every workload.  The light configs use
inputs that leave the focus workloads' predictions intact: two-point laws
for the convolution commands (no density cells), boxes for the
restricted-sum commands (no rejection sampling).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("convolution", "convolution-atoms", "restricted-sums", "microstates")

COMMAND_METRICS = {
    "freeconv": "freeconv_s",
    "epi": "epi_s",
    "theorem12": "theorem12_s",
    "minkowski": "minkowski_s",
    "microstates-theta": "microstates_theta_s",
    "microstates-sum": "microstates_sum_s",
    "microstates-volume": "microstates_volume_s",
}


@dataclass(frozen=True)
class Operation:
    """One CLI config plus what the harness needs to know about it.

    ``known_fault`` names a program fault that makes this operation's check
    fail on every run; such an operation is counted in ``failed`` without
    making the run incorrect.  Its inputs must not depend on the seed.
    """

    label: str
    config: dict
    known_fault: str | None = None

    @property
    def command(self) -> str:
        return self.config["command"]


def _r(x: float) -> float:
    # four significant digits keep configs readable and exact in JSON
    return float(f"{x:.4g}")


def _scale(rng: random.Random, lo: float = 0.8, hi: float = 1.25) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _law(family: str, *params: float) -> dict:
    return {"family": family, "params": [_r(p) for p in params]}


def _pair(command: str, alpha: dict, beta: dict, grid: dict | None = None) -> dict:
    params = {"alpha": alpha, "beta": beta}
    if grid is not None:
        params["grid"] = grid
    return {"command": command, "params": params}


def _two_point(rng: random.Random, half_span: float) -> dict:
    center = rng.uniform(-0.3, 0.3)
    return _law("bernoulli", 0.5, center - half_span, center + half_span)


def _ball(radius: float, dim: int) -> dict:
    return {"kind": "ball", "radius": _r(radius), "dim": dim}


def _box(half_widths) -> dict:
    return {"kind": "box", "half_widths": [_r(w) for w in half_widths]}


def _semicircle_profile(variance: float) -> dict:
    return {"quantiles_of": _law("semicircle", variance)}


def _affine_profile(rng: random.Random) -> dict:
    lo = _r(rng.uniform(-1.0, 1.0))
    width = _r(_scale(rng, 0.5, 2.0))
    return {"nodes": [0.0, 1.0], "values": [lo, _r(lo + width)]}


# -- focus workloads -----------------------------------------------------------


def _convolution(rng: random.Random) -> list[Operation]:
    # the L1 distance to the closed form is scale-free but moves with the
    # variance ratio, so the seed draws the scale and the ratio stays fixed
    v_large = _scale(rng)
    v_small = 0.5 * v_large
    v_eq = _scale(rng)
    rate = rng.uniform(1.5, 2.5)
    v_fp = _scale(rng)
    v_epi = _scale(rng)
    radius = _scale(rng)
    u_lo, u_hi = -rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    return [
        Operation("freeconv semicircle unequal",
                  _pair("freeconv", _law("semicircle", v_small), _law("semicircle", v_large))),
        Operation("freeconv semicircle equal",
                  _pair("freeconv", _law("semicircle", v_eq), _law("semicircle", v_eq))),
        Operation("freeconv free_poisson+semicircle",
                  _pair("freeconv", _law("free_poisson", rate), _law("semicircle", v_fp))),
        Operation("epi semicircle equal",
                  _pair("epi", _law("semicircle", v_epi), _law("semicircle", v_epi))),
        Operation("epi arcsine+uniform",
                  _pair("epi", _law("arcsine", radius), _law("uniform", u_lo, u_hi))),
    ]


def _convolution_atoms(rng: random.Random) -> list[Operation]:
    # Weights stay at 1/2: unequal weights leave an output atom, which
    # free_convolve refuses by design.  Both laws of a pair share one
    # half-span (spans differ between pairs): with unequal half-spans the sum
    # has a gap whose inner edges free_convolve does not refine, and kappa_4
    # misses additivity by 1e-2 to 4e-2 on every span ratio tried.
    ops = []
    for command, count in (("freeconv", 4), ("epi", 4)):
        for i in range(count):
            half_span = _scale(rng)
            ops.append(Operation(f"{command} two-point pair #{i}",
                                 _pair(command, _two_point(rng, half_span),
                                       _two_point(rng, half_span))))
    return ops


def _theorem12(a: dict, b: dict, theta: dict, seed: int) -> dict:
    return {"command": "theorem12", "seed": seed, "params": {"a": a, "b": b, "theta": theta}}


def _minkowski(a: dict, b: dict, theta: dict, seed: int, mc: dict | None = None) -> dict:
    params = {"a": a, "b": b, "theta": theta}
    if mc is not None:
        params["mc"] = mc
    return {"command": "minkowski", "seed": seed, "params": params}


FULL = {"kind": "full"}
LIGHT_REPEATS = 4

# Fixed inputs, independent of the seed: restricted_sum_volume counts every
# occupancy cell any sample hits at full cell volume, and on the 8-per-axis
# grid it picks at n = 6 the boundary cells outweigh the unseen shell, so the
# reported volume exceeds the exact Minkowski sum (about 1.44x) while being
# flagged low-biased.
N6_BALL_MINKOWSKI = Operation(
    "minkowski balls n=6 full",
    _minkowski(_ball(1.0, 6), _ball(0.8, 6), FULL, 20240817, {"pair_samples": 1_000_000}),
    known_fault="restricted_sum_volume over-counts boundary occupancy cells at n=6",
)


def _restricted_sums(rng: random.Random) -> list[Operation]:
    r3, rho3 = _scale(rng), rng.uniform(0.5, 0.9)
    r6, rho6 = _scale(rng), rng.uniform(0.6, 0.9)
    box_a = [rng.uniform(0.4, 1.0) for _ in range(3)]
    box_b = [rng.uniform(0.4, 1.0) for _ in range(3)]
    axes = [rng.uniform(0.5, 1.0) for _ in range(3)]
    cap = rng.uniform(0.7, 0.9)
    rm, rhom = _scale(rng), rng.uniform(0.5, 0.9)
    mbox_a = [rng.uniform(0.4, 1.0) for _ in range(3)]
    mbox_b = [rng.uniform(0.4, 1.0) for _ in range(3)]
    ball_cap_box = {"kind": "intersection", "parts": [_ball(1.0, 3), _box([cap] * 3)]}
    return [
        Operation("theorem12 balls n=3 complement",
                  _theorem12(_ball(r3, 3), _ball(r3 * rho3, 3),
                             {"kind": "complement_fraction",
                              "density": _r(rng.uniform(5e-4, 2e-3))},
                             _mc_seed(rng))),
        Operation("theorem12 balls n=6 full",
                  _theorem12(_ball(r6, 6), _ball(r6 * rho6, 6), FULL, _mc_seed(rng))),
        Operation("theorem12 boxes n=3 full",
                  _theorem12(_box(box_a), _box(box_b), FULL, _mc_seed(rng))),
        Operation("theorem12 ellipsoid vs ball-box intersection",
                  _theorem12({"kind": "ellipsoid", "semi_axes": [_r(x) for x in axes]},
                             ball_cap_box, FULL, _mc_seed(rng))),
        Operation("minkowski balls n=3 inner product <= 0",
                  _minkowski(_ball(rm, 3), _ball(rm * rhom, 3),
                             {"kind": "inner_product_leq", "c": 0.0}, _mc_seed(rng))),
        Operation("minkowski boxes n=3 full",
                  _minkowski(_box(mbox_a), _box(mbox_b), FULL, _mc_seed(rng))),
        N6_BALL_MINKOWSKI,
    ]


def _microstates(rng: random.Random) -> list[Operation]:
    sum_params = {"max_len": 3, "eps": 0.4, "trials": 100,
                  "filter_max_len": 3, "filter_eps": 0.15}
    return [
        Operation("microstates-theta k=128",
                  {"command": "microstates-theta", "seed": _mc_seed(rng),
                   "params": {"h1": _semicircle_profile(rng.uniform(0.6, 1.0)),
                              "h2": _semicircle_profile(rng.uniform(0.6, 1.0)),
                              "k": 128, "max_len": 3, "eps": 0.1, "trials": 100}}),
        Operation("microstates-sum k=128",
                  {"command": "microstates-sum", "seed": _mc_seed(rng),
                   "params": {"h1": _semicircle_profile(rng.uniform(0.6, 1.0)),
                              "h2": _semicircle_profile(rng.uniform(0.6, 1.0)),
                              "k": 128, **sum_params}}),
        Operation("microstates-volume k=32",
                  {"command": "microstates-volume", "seed": _mc_seed(rng),
                   "params": {"h": _affine_profile(rng), "k": 32, "mc_samples": 100_000}}),
        Operation("microstates-volume k=64",
                  {"command": "microstates-volume", "seed": _mc_seed(rng),
                   "params": {"h": _affine_profile(rng), "k": 64, "mc_samples": 100_000}}),
    ]


# -- light configs -------------------------------------------------------------


def _light(rng: random.Random, command: str) -> Operation:
    label = f"light {command}"
    if command in ("freeconv", "epi"):
        half_span = _scale(rng)
        config = _pair(command, _two_point(rng, half_span), _two_point(rng, half_span),
                       {"n_cells": 256})
    elif command in ("theorem12", "minkowski"):
        boxes = [_box([rng.uniform(0.4, 1.0) for _ in range(3)]) for _ in range(2)]
        make = _theorem12 if command == "theorem12" else _minkowski
        config = make(*boxes, FULL, _mc_seed(rng))
    elif command == "microstates-theta":
        config = {"command": command, "seed": _mc_seed(rng),
                  "params": {"h1": _semicircle_profile(rng.uniform(0.6, 1.0)),
                             "h2": _semicircle_profile(rng.uniform(0.6, 1.0)),
                             "k": 32, "max_len": 3, "eps": 0.3, "trials": 100}}
    elif command == "microstates-sum":
        config = {"command": command, "seed": _mc_seed(rng),
                  "params": {"h1": _semicircle_profile(rng.uniform(0.6, 1.0)),
                             "h2": _semicircle_profile(rng.uniform(0.6, 1.0)),
                             "k": 32, "max_len": 2, "eps": 0.4, "trials": 100,
                             "filter_max_len": 2, "filter_eps": 0.3}}
    else:
        config = {"command": command, "seed": _mc_seed(rng),
                  "params": {"h": _affine_profile(rng), "k": 16, "mc_samples": 20_000}}
    return Operation(label, config)


_FOCUS = {
    "convolution": _convolution,
    "convolution-atoms": _convolution_atoms,
    "restricted-sums": _restricted_sums,
    "microstates": _microstates,
}


def build(workload: str, seed: int) -> list[Operation]:
    """Operations of one round of ``workload``; the same seed gives the same list.

    The light configs, about 0.15 s each, run ``LIGHT_REPEATS`` times at
    points spread through the round.  CPU speed on a shared host swings by a
    third for seconds at a time, and one short sample per round would land
    wholly in one swing.
    """
    if workload not in _FOCUS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    focus = _FOCUS[workload](rng)
    covered = {op.command for op in focus}
    light = [_light(rng, command) for command in COMMAND_METRICS if command not in covered]
    ops = []
    for i in range(LIGHT_REPEATS):
        ops += focus[i * len(focus) // LIGHT_REPEATS:(i + 1) * len(focus) // LIGHT_REPEATS]
        ops += light
    return ops
