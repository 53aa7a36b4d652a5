"""Seeded experiment driver: JSON configs in, reproducible JSON out.

Every command maps onto one library operation.  Configs are validated
against per-command schemas before anything runs, by ``_schema_errors``, a
walker over the few JSON Schema keywords the schemas use plus one of their
own, ``byMode``; it words each refusal as jsonschema would, so the package
needs numpy alone.  Outputs echo the fully resolved configuration (defaults
included) so a result file alone suffices to rerun the experiment.  Every
verdict is formed in the library, beside its check, by
``stats.three_way_verdict``; this module only maps it to an exit code: 0
holds/success, 2 violated, 3 inconclusive, 1 any error (usage errors too).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import FreesumError, ParameterError
from .freeconv import free_convolve
from .freeentropy import chi, epi_deficit, log_energy, stam_deficit
from .geometry import (
    MonteCarloConfig,
    SetSpec,
    ThetaSpec,
    ball_example_exact,
    bll_symmetrization_check,
    check_corollary15,
    check_lemma13,
    check_theorem12,
    restricted_sum_volume,
)
from .measure import N_CELLS, kolmogorov_distance, standard_family
from .microstates import (
    StepFunctionSpec,
    check_sum_containment,
    empirical_chi,
    estimate_log_volume_omega,
    log_flag_constant,
    sum_spectrum_experiment,
    theta_fraction,
)

# commands whose results depend on random sampling; these require a seed
STOCHASTIC_COMMANDS = frozenset(
    (
        "minkowski",
        "theorem12",
        "corollary15",
        "bll",
        "microstates-spectrum",
        "microstates-theta",
        "microstates-volume",
        "microstates-sum",
    )
)

_EXIT_BY_VERDICT = {None: 0, "holds": 0, "violated": 2, "inconclusive": 3}


# -- schemas -------------------------------------------------------------------


def _object(required=(), by_mode=None, **properties):
    """A closed object schema: the keys in ``properties`` and no other.

    ``by_mode`` is (mode_of, fields): ``fields[mode_of(obj)]`` names the
    (required, optional) keys of the object's mode, and the object holds
    those, a kind besides, and no other.
    """
    schema = {
        "type": "object",
        "required": list(required),
        "properties": properties,
        "additionalProperties": False,
    }
    if by_mode is not None:
        schema["byMode"] = by_mode
    return schema


_MEASURE = {"$ref": "#/$defs/measure"}
_SET = {"$ref": "#/$defs/set"}
_THETA = {"$ref": "#/$defs/theta"}
_PROFILE = {"$ref": "#/$defs/profile"}
_MC = {"$ref": "#/$defs/mc"}
_GRID = {"$ref": "#/$defs/grid"}
_NUMBERS = {"type": "array", "items": {"type": "number"}}

# fields each mode of an object reads, as (required, optional)
_SET_FIELDS = {
    "ball": (["radius", "dim"], ["center"]),
    "box": (["half_widths"], ["center"]),
    "ellipsoid": (["semi_axes"], ["center"]),
    "intersection": (["parts"], []),
    "scaled": (["base", "factor"], []),
}
_THETA_FIELDS = {
    "full": ([], []),
    "inner_product_leq": (["c"], []),
    "sum_norm_leq": (["bound"], []),
    "complement_fraction": (["density"], []),
}
_MINKOWSKI_FIELDS = {
    "exact": (["example", "rho", "n"], []),
    "monte-carlo": (["a", "b", "theta"], ["mc"]),
}
_PROFILE_FIELDS = {
    "quantiles": (["quantiles_of"], ["n_nodes"]),
    "table": (["nodes", "values"], []),
}


def _kind(spec: dict):
    return spec.get("kind")


def _minkowski_mode(params: dict) -> str:
    # the ball example is exact; a minkowski config without it samples
    return "exact" if "example" in params else "monte-carlo"


def _profile_mode(spec: dict) -> str:
    return "quantiles" if "quantiles_of" in spec else "table"


_DEFS = {
    "measure": _object(
        ["family"],
        family={
            "enum": [
                "arcsine",
                "bernoulli",
                "free_poisson",
                "point_mass",
                "semicircle",
                "uniform",
            ]
        },
        params=_NUMBERS,
    ),
    "set": _object(
        ["kind"],
        by_mode=(_kind, _SET_FIELDS),
        kind={"enum": list(_SET_FIELDS)},
        radius={"type": "number", "exclusiveMinimum": 0},
        dim={"type": "integer", "minimum": 1},
        center=_NUMBERS,
        half_widths=_NUMBERS,
        semi_axes=_NUMBERS,
        parts={"type": "array", "items": _SET, "minItems": 1},
        base=_SET,
        factor={"type": "number", "exclusiveMinimum": 0},
    ),
    "theta": _object(
        ["kind"],
        by_mode=(_kind, _THETA_FIELDS),
        kind={"enum": list(_THETA_FIELDS)},
        c={"type": "number"},
        bound={"type": "number"},
        density={"type": "number"},
    ),
    "profile": _object(
        by_mode=(_profile_mode, _PROFILE_FIELDS),
        quantiles_of=_MEASURE,
        n_nodes={"type": "integer", "minimum": 2},
        nodes={**_NUMBERS, "minItems": 2},
        values={**_NUMBERS, "minItems": 2},
    ),
    "mc": _object(pair_samples={"type": "integer", "minimum": 1000}),
    "grid": _object(n_cells={"type": "integer", "minimum": 2}),
}

_PARAM_SCHEMAS = {
    "entropy": _object(["mu"], mu=_MEASURE, grid=_GRID),
    "freeconv": _object(["alpha", "beta"], alpha=_MEASURE, beta=_MEASURE, grid=_GRID),
    "epi": _object(["alpha", "beta"], alpha=_MEASURE, beta=_MEASURE, grid=_GRID),
    "stam": _object(["alpha", "beta"], alpha=_MEASURE, beta=_MEASURE, grid=_GRID),
    "lemma13": _object(
        ["n", "rho"],
        n={"type": "integer", "minimum": 2},
        rho={"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    ),
    "minkowski": _object(
        by_mode=(_minkowski_mode, _MINKOWSKI_FIELDS),
        example={"const": "ball"},
        rho={"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        n={"type": "integer", "minimum": 2},
        a=_SET,
        b=_SET,
        theta=_THETA,
        mc=_MC,
    ),
    "theorem12": _object(["a", "b", "theta"], a=_SET, b=_SET, theta=_THETA, mc=_MC),
    "corollary15": _object(
        ["a", "b", "theta", "delta"],
        a=_SET,
        b=_SET,
        theta=_THETA,
        mc=_MC,
        delta={"type": "number", "minimum": 0, "maximum": 0.5},
    ),
    "bll": _object(["a", "b", "c_set"], a=_SET, b=_SET, c_set=_SET, mc=_MC),
    "microstates-spectrum": _object(
        ["alpha", "beta", "k"],
        alpha=_MEASURE,
        beta=_MEASURE,
        k={"type": "integer", "minimum": 32},
        reference=_MEASURE,
    ),
    "microstates-theta": _object(
        ["h1", "h2", "k", "max_len", "eps", "trials"],
        h1=_PROFILE,
        h2=_PROFILE,
        k={"type": "integer", "minimum": 2},
        max_len={"type": "integer", "minimum": 1},
        eps={"type": "number", "exclusiveMinimum": 0},
        trials={"type": "integer", "minimum": 100},
    ),
    "microstates-volume": _object(
        ["h", "k", "mc_samples"],
        h=_PROFILE,
        k={"type": "integer", "minimum": 2, "maximum": 64},
        mc_samples={"type": "integer", "minimum": 10_000},
    ),
    "microstates-sum": _object(
        ["h1", "h2", "k", "max_len", "eps", "trials", "filter_max_len", "filter_eps"],
        h1=_PROFILE,
        h2=_PROFILE,
        k={"type": "integer", "minimum": 2},
        max_len={"type": "integer", "minimum": 1},
        eps={"type": "number", "exclusiveMinimum": 0},
        trials={"type": "integer", "minimum": 100},
        filter_max_len={"type": "integer", "minimum": 1},
        filter_eps={"type": "number", "exclusiveMinimum": 0},
    ),
}


class ConfigError(FreesumError):
    """Config rejected before any computation ran."""


def _line_of_path(raw: str, keys) -> int:
    # walk key names left to right, advancing a text cursor, so repeated
    # field names (every measure has a "family") resolve to the right line
    pos = 0
    found = 0
    for key in keys:
        if not isinstance(key, str):
            continue
        match = re.search(r'"%s"\s*:' % re.escape(key), raw[pos:])
        if match is None:
            break
        found = pos + match.start()
        pos = found + 1
    return raw.count("\n", 0, found) + 1


# a JSON string, or a token that Python's json reads as a number outside
# strings: NaN and Infinity, which JSON lacks, or a numeric literal, which
# reads as an infinite float when it is too large for a float
_STRING_OR_NUMBER = re.compile(
    r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)'
)


def _load_config(raw: str):
    """json.loads, refusing NaN, Infinity and literals too large for a float."""

    def refuse(token):
        # the decoder calls this at the first such token outside a string
        at = next(
            m.start(1)
            for m in _STRING_OR_NUMBER.finditer(raw)
            if m.group(1) and not math.isfinite(float(m.group(1)))
        )
        raise json.JSONDecodeError(f"non-finite number {token} is not allowed", raw, at)

    def parse_float(token):
        value = float(token)
        return value if math.isfinite(value) else refuse(token)

    def parse_int(token):
        # an integer field reaches float arithmetic or a 64-bit seed
        return int(token) if math.isfinite(float(token)) else refuse(token)

    return json.loads(raw, parse_constant=refuse, parse_float=parse_float, parse_int=parse_int)


# the JSON types a schema names; a bool is no number, and an integer field
# takes integer literals only, as the library calls need an int
_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}

_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum"),
}


def _schema_errors(schema: dict, instance, path: tuple = ()):
    """Each way ``instance`` breaks ``schema``, as (rank, path, message).

    Keywords are read in the schema's order, ``type`` first, so the others
    see only values of that type.  The messages are jsonschema's, and the
    least rank met first is the error jsonschema reports.  The rank is the
    failing value's path, except that an unexpected key ranks at its object;
    the path then goes on to the first such key, whose line is reported.
    """
    if "$ref" in schema:
        schema = _DEFS[schema["$ref"].rpartition("/")[2]]
    for keyword, value in schema.items():
        if keyword == "type":
            if isinstance(instance, bool) or not isinstance(instance, _JSON_TYPES[value]):
                yield path, path, f"{instance!r} is not of type {value!r}"
                return
        elif keyword == "enum" and instance not in value:
            yield path, path, f"{instance!r} is not one of {value!r}"
        elif keyword == "const" and instance != value:
            yield path, path, f"{value!r} was expected"
        elif keyword in _BOUNDS and _BOUNDS[keyword][0](instance, value):
            yield path, path, f"{instance!r} is {_BOUNDS[keyword][1]} of {value!r}"
        elif keyword == "minItems" and len(instance) < value:
            short = "should be non-empty" if value == 1 else "is too short"
            yield path, path, f"{instance!r} {short}"
        elif keyword == "items":
            for index, item in enumerate(instance):
                yield from _schema_errors(value, item, (*path, index))
        elif keyword == "required":
            for name in value:
                if name not in instance:
                    yield path, path, f"{name!r} is a required property"
        elif keyword == "properties":
            for name, subschema in value.items():
                if name in instance:
                    yield from _schema_errors(subschema, instance[name], (*path, name))
        elif keyword == "additionalProperties":
            extra = [key for key in instance if key not in schema["properties"]]
            if extra:
                names = ", ".join(map(repr, sorted(extra)))
                verb = "was" if len(extra) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                yield path, (*path, extra[0]), message
        elif keyword == "byMode":
            mode_of, fields = value
            mode = mode_of(instance)
            if isinstance(mode, str) and mode in fields:
                # the object again, closed to the fields of its mode; a field
                # that only another mode reads ranks at its own key
                required, optional = fields[mode]
                own = _object(required, **dict.fromkeys(["kind", *required, *optional], {}))
                for _, where, message in _schema_errors(own, instance, path):
                    yield where, where, message


def _first_error(schema: dict, instance, path: tuple = ()):
    """The (rank, path, message) of the error reported, or None."""
    return min(_schema_errors(schema, instance, path), key=lambda err: err[0], default=None)


def _validate(config: dict, raw: str, path: str) -> None:
    err = _first_error(_TOP_SCHEMA, config)
    if err is not None:
        line = _line_of_path(raw, err[1] or ["command"])
        raise ConfigError(f"{path}:{line}: {err[2]}")
    command = config["command"]
    err = _first_error(_PARAM_SCHEMAS[command], config["params"], ("params",))
    if err is not None:
        raise ConfigError(f"{path}:{_line_of_path(raw, err[1])}: params: {err[2]}")
    exact_mode = command == "minkowski" and _minkowski_mode(config["params"]) == "exact"
    if command in STOCHASTIC_COMMANDS and not exact_mode and "seed" not in config:
        raise ConfigError(
            f"{path}:{_line_of_path(raw, ['command'])}: "
            f"seed is required for stochastic command {command!r}"
        )


# -- config object parsers -------------------------------------------------------


def _parse_measure(spec: dict, n_cells: int = N_CELLS):
    return standard_family(spec["family"], spec.get("params", []), n_cells)


def _n_cells(params: dict) -> int:
    return params.get("grid", {}).get("n_cells", N_CELLS)


def _parse_set(spec: dict) -> SetSpec:
    kind = spec["kind"]
    center = spec.get("center")
    if kind == "ball":
        return SetSpec.ball(spec["radius"], spec["dim"], center)
    if kind == "box":
        return SetSpec.box(spec["half_widths"], center)
    if kind == "ellipsoid":
        return SetSpec.ellipsoid(spec["semi_axes"], center)
    if kind == "intersection":
        return SetSpec.intersection(*(_parse_set(p) for p in spec["parts"]))
    return SetSpec.scaled(_parse_set(spec["base"]), spec["factor"])


def _parse_theta(spec: dict) -> ThetaSpec:
    kind = spec["kind"]
    if kind == "full":
        return ThetaSpec.full()
    if kind == "inner_product_leq":
        return ThetaSpec.inner_product_leq(spec["c"])
    if kind == "sum_norm_leq":
        return ThetaSpec.sum_norm_leq(spec["bound"])
    return ThetaSpec.complement_fraction(spec["density"])


def _parse_profile(spec: dict) -> StepFunctionSpec:
    if "quantiles_of" in spec:
        mu = _parse_measure(spec["quantiles_of"])
        return StepFunctionSpec.from_quantiles(mu, spec.get("n_nodes", 129))
    return StepFunctionSpec(tuple(spec["nodes"]), tuple(spec["values"]))


def _mc_config(params: dict, seed: int) -> MonteCarloConfig:
    return MonteCarloConfig(**params.get("mc", {}), seed=seed)


# -- command handlers --------------------------------------------------------------


def _run_entropy(params, seed):
    n_cells = _n_cells(params)
    mu = _parse_measure(params["mu"], n_cells)
    value = chi(mu)
    result = {
        "chi": value,
        "log_energy": log_energy(mu),
        "degenerate": value == float("-inf"),
    }
    return result, None, {"grid": {"n_cells": n_cells}}


# solver diagnostics copied from free_convolve's meta; null when an input is a
# point mass and the sum is an exact translation, with no solve
SOLVER_DIAGNOSTICS = (
    "cdf_end_error", "cdf_repair", "eta", "unconverged_points", "worst_residual", "solver_steps"
)


def _solver_diagnostics(meta):
    return {key: meta.get(key) for key in SOLVER_DIAGNOSTICS}


def _run_freeconv(params, seed):
    n_cells = _n_cells(params)
    out = free_convolve(
        _parse_measure(params["alpha"], n_cells), _parse_measure(params["beta"], n_cells), n_cells
    )
    result = {
        "measure": out,
        "mean": out.mean(),
        "variance": out.variance(),
        "diagnostics": _solver_diagnostics(out.meta),
    }
    return result, None, {"grid": {"n_cells": n_cells}}


def _run_epi(params, seed):
    n_cells = _n_cells(params)
    report = epi_deficit(
        _parse_measure(params["alpha"], n_cells), _parse_measure(params["beta"], n_cells), n_cells
    )
    result = {
        "report": report,
        "tolerance": report.tolerance,
        "verdict": report.verdict,
        "diagnostics": _solver_diagnostics(report.sum_meta),
    }
    return result, report.verdict, {"grid": {"n_cells": n_cells}}


def _run_stam(params, seed):
    n_cells = _n_cells(params)
    value = stam_deficit(
        _parse_measure(params["alpha"], n_cells), _parse_measure(params["beta"], n_cells), n_cells
    )
    # >= 0 by the free Stam inequality (a theorem); recorded, with no verdict
    return {"stam_deficit": value}, None, {"grid": {"n_cells": n_cells}}


def _run_lemma13(params, seed):
    out = check_lemma13(params["n"], params["rho"])
    return out, out["report"].verdict, {}


def _run_minkowski(params, seed):
    if _minkowski_mode(params) == "exact":
        out = ball_example_exact(params["rho"], params["n"])
        return out, out["verdict"], {"mode": "exact"}
    cfg = _mc_config(params, seed)
    out = restricted_sum_volume(
        _parse_set(params["a"]), _parse_set(params["b"]), _parse_theta(params["theta"]), cfg
    )
    return out, None, {"mode": "monte-carlo", "mc": cfg}


def _check_handler(check, *fields):
    """Handler calling check(*parsed fields, cfg) and reporting its verdict."""

    def run(params, seed):
        cfg = _mc_config(params, seed)
        report = check(*(parse(params[key]) for key, parse in fields), cfg)
        return {"report": report}, report.verdict, {"mc": cfg}

    return run


_PAIR_FIELDS = (("a", _parse_set), ("b", _parse_set), ("theta", _parse_theta))


def _run_microstates_spectrum(params, seed):
    emp = sum_spectrum_experiment(
        _parse_measure(params["alpha"]), _parse_measure(params["beta"]), params["k"], seed
    )
    eigenvalues = [loc for loc, _ in emp.atoms]
    result = {"measure": emp, "empirical_chi": empirical_chi(eigenvalues)}
    if "reference" in params:
        result["ks_to_reference"] = kolmogorov_distance(
            emp, _parse_measure(params["reference"])
        )
    return result, None, {}


def _run_microstates_theta(params, seed):
    est = theta_fraction(
        _parse_profile(params["h1"]),
        _parse_profile(params["h2"]),
        params["k"],
        params["max_len"],
        params["eps"],
        params["trials"],
        seed,
    )
    return est, None, {}


def _run_microstates_volume(params, seed):
    value = estimate_log_volume_omega(
        _parse_profile(params["h"]), params["k"], params["mc_samples"], seed
    )
    result = {
        "normalized_log_volume": value,
        "log_flag_constant": log_flag_constant(params["k"]),
    }
    return result, None, {}


def _run_microstates_sum(params, seed):
    out = check_sum_containment(
        _parse_profile(params["h1"]),
        _parse_profile(params["h2"]),
        params["k"],
        params["max_len"],
        params["eps"],
        params["trials"],
        seed,
        params["filter_max_len"],
        params["filter_eps"],
    )
    verdict = "inconclusive" if out.inconclusive else None
    return out, verdict, {}


_HANDLERS = {
    "entropy": _run_entropy,
    "freeconv": _run_freeconv,
    "epi": _run_epi,
    "minkowski": _run_minkowski,
    "theorem12": _check_handler(check_theorem12, *_PAIR_FIELDS),
    "corollary15": _check_handler(check_corollary15, *_PAIR_FIELDS, ("delta", float)),
    "lemma13": _run_lemma13,
    "bll": _check_handler(
        bll_symmetrization_check, ("a", _parse_set), ("b", _parse_set), ("c_set", _parse_set)
    ),
    "microstates-spectrum": _run_microstates_spectrum,
    "microstates-theta": _run_microstates_theta,
    "microstates-volume": _run_microstates_volume,
    "microstates-sum": _run_microstates_sum,
    "stam": _run_stam,
}

# the command table: every command has a parameter schema and a handler
COMMANDS = tuple(_HANDLERS)

_TOP_SCHEMA = _object(
    ["command", "params"],
    command={"enum": list(COMMANDS)},
    params={"type": "object"},
    seed={"type": "integer"},
    output={"type": "string"},
)


# -- serialization ------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(x, ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    # the one record rule: a result dataclass is written field by field,
    # leaving out the diagnostics declared repr=False (Measure.meta,
    # EntropyReport.sum_meta); it sits after the scalars, which are far more
    # numerous in a result
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.repr
        }
    raise ParameterError(f"cannot serialize value of type {type(obj).__name__}")


def render_json(obj, indent: int = 0) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits.

    Nonfinite numbers appear as bare Infinity/-Infinity/NaN tokens, the
    widely parsed extension for experiment records.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


# -- driver --------------------------------------------------------------------------


def run_command(command: str, params: dict, seed: int):
    """Dispatch one experiment; returns (result, verdict, resolved-defaults)."""
    result, verdict, resolved = _HANDLERS[command](params, seed)
    return _jsonable(result), verdict, _jsonable(resolved)


def run(config: dict, raw: str = "", path: str = "<config>") -> tuple[str, int, str | None]:
    """Validate and execute a config; returns (text, exit_code, output_path)."""
    _validate(config, raw, path)
    seed = config.get("seed", 0)
    result, verdict, resolved = run_command(config["command"], config["params"], seed)
    doc = {
        "command": config["command"],
        "params": _jsonable(config["params"]),
        "resolved": resolved,
        "result": result,
        "seed": seed,
        "verdict": verdict,
    }
    return render_json(doc) + "\n", _EXIT_BY_VERDICT[verdict], config.get("output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freesum",
        description="Seeded free-probability and restricted-sum experiments.",
    )
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--output", help="override the config output path")
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, the code a violated verdict owns
        return 0 if stop.code == 0 else 1

    started = time.monotonic()
    try:
        raw = Path(args.config).read_text()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        config = _load_config(raw)
    except json.JSONDecodeError as err:
        print(f"error: {args.config}:{err.lineno}: {err.msg}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print(f"error: {args.config}:1: config must be a JSON object", file=sys.stderr)
        return 1
    for key, value in (("seed", args.seed), ("output", args.output)):
        if value is not None:
            config[key] = value
    try:
        text, code, output = run(config, raw, args.config)
    except FreesumError as err:
        suffix = f" diagnostics={err.diagnostics}" if err.diagnostics else ""
        print(f"error: {err}{suffix}", file=sys.stderr)
        return 1
    if output:
        out_path = Path(output)
        sidecar = {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": time.monotonic() - started,
            "config_path": str(args.config),
        }
        try:
            out_path.write_text(text)
            Path(str(out_path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
