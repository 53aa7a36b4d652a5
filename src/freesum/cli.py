"""Seeded experiment driver: JSON configs in, reproducible JSON/CSV out.

Every command maps onto one library operation.  Configs are validated
against per-command schemas before anything runs; outputs echo the fully
resolved configuration (defaults included) so a result file alone suffices
to rerun the experiment.  Exit codes encode verdicts: 0 holds/success,
2 violated, 3 inconclusive, 1 any error (usage errors too).
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import jsonschema
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
from .stats import three_way_verdict

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

MAX_SWEEP_COMBINATIONS = 10_000

_EXIT_BY_VERDICT = {None: 0, "holds": 0, "violated": 2, "inconclusive": 3}


# -- schemas -------------------------------------------------------------------

_MEASURE_DEF = {
    "type": "object",
    "required": ["family"],
    "properties": {
        "family": {
            "enum": [
                "arcsine",
                "bernoulli",
                "free_poisson",
                "point_mass",
                "semicircle",
                "uniform",
            ]
        },
        "params": {"type": "array", "items": {"type": "number"}},
    },
    "additionalProperties": False,
}

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


def _check_by_mode(validator, by_mode, instance, schema):
    # keyword "byMode": (mode_of, fields); an object carries every field its
    # mode reads, a kind besides, and no other
    mode_of, fields = by_mode
    mode = mode_of(instance) if isinstance(instance, dict) else None
    if not isinstance(mode, str) or mode not in fields:
        return
    required, optional = fields[mode]
    for name in required:
        if name not in instance:
            yield jsonschema.ValidationError(f"{name!r} is a required property")
    allowed = {"kind", *required, *optional}
    extra = [key for key in instance if key not in allowed]
    if extra:
        names = ", ".join(map(repr, sorted(extra)))
        verb = "was" if len(extra) == 1 else "were"
        # the error sits at the first unexpected key, so its line is reported
        yield jsonschema.ValidationError(
            f"Additional properties are not allowed ({names} {verb} unexpected)",
            path=[extra[0]],
        )


_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"byMode": _check_by_mode}
)


_SET_DEF = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_SET_FIELDS)},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "dim": {"type": "integer", "minimum": 1},
        "center": {"type": "array", "items": {"type": "number"}},
        "half_widths": {"type": "array", "items": {"type": "number"}},
        "semi_axes": {"type": "array", "items": {"type": "number"}},
        "parts": {"type": "array", "items": {"$ref": "#/$defs/set"}, "minItems": 1},
        "base": {"$ref": "#/$defs/set"},
        "factor": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
    "byMode": (_kind, _SET_FIELDS),
}

_THETA_DEF = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": list(_THETA_FIELDS)},
        "c": {"type": "number"},
        "bound": {"type": "number"},
        "density": {"type": "number"},
    },
    "additionalProperties": False,
    "byMode": (_kind, _THETA_FIELDS),
}

_PROFILE_DEF = {
    "type": "object",
    "properties": {
        "quantiles_of": {"$ref": "#/$defs/measure"},
        "n_nodes": {"type": "integer", "minimum": 2},
        "nodes": {"type": "array", "items": {"type": "number"}, "minItems": 2},
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 2},
    },
    "additionalProperties": False,
    "byMode": (_profile_mode, _PROFILE_FIELDS),
}

_MC_DEF = {
    "type": "object",
    "properties": {
        "pair_samples": {"type": "integer", "minimum": 1000},
    },
    "additionalProperties": False,
}

_GRID_DEF = {
    "type": "object",
    "properties": {
        "n_cells": {"type": "integer", "minimum": 2},
    },
    "additionalProperties": False,
}

_DEFS = {
    "measure": _MEASURE_DEF,
    "set": _SET_DEF,
    "theta": _THETA_DEF,
    "profile": _PROFILE_DEF,
    "mc": _MC_DEF,
    "grid": _GRID_DEF,
}


def _two_measures(*extra_required, **extra_props):
    schema = {
        "type": "object",
        "required": ["alpha", "beta", *extra_required],
        "properties": {
            "alpha": {"$ref": "#/$defs/measure"},
            "beta": {"$ref": "#/$defs/measure"},
            **extra_props,
        },
        "additionalProperties": False,
    }
    return schema


def _pair_sets(*extra_required, **extra_props):
    return {
        "type": "object",
        "required": ["a", "b", "theta", *extra_required],
        "properties": {
            "a": {"$ref": "#/$defs/set"},
            "b": {"$ref": "#/$defs/set"},
            "theta": {"$ref": "#/$defs/theta"},
            "mc": {"$ref": "#/$defs/mc"},
            **extra_props,
        },
        "additionalProperties": False,
    }


_PARAM_SCHEMAS = {
    "entropy": {
        "type": "object",
        "required": ["mu"],
        "properties": {"mu": {"$ref": "#/$defs/measure"}, "grid": {"$ref": "#/$defs/grid"}},
        "additionalProperties": False,
    },
    "freeconv": _two_measures(grid={"$ref": "#/$defs/grid"}),
    "epi": _two_measures(grid={"$ref": "#/$defs/grid"}),
    "stam": _two_measures(grid={"$ref": "#/$defs/grid"}),
    "lemma13": {
        "type": "object",
        "required": ["n", "rho"],
        "properties": {
            "n": {"type": "integer", "minimum": 2},
            "rho": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        },
        "additionalProperties": False,
    },
    "minkowski": {
        "type": "object",
        "properties": {
            "example": {"const": "ball"},
            "rho": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            "n": {"type": "integer", "minimum": 2},
            "a": {"$ref": "#/$defs/set"},
            "b": {"$ref": "#/$defs/set"},
            "theta": {"$ref": "#/$defs/theta"},
            "mc": {"$ref": "#/$defs/mc"},
        },
        "additionalProperties": False,
        "byMode": (_minkowski_mode, _MINKOWSKI_FIELDS),
    },
    "theorem12": _pair_sets(),
    "corollary15": _pair_sets(
        "delta", delta={"type": "number", "minimum": 0, "maximum": 0.5}
    ),
    "bll": {
        "type": "object",
        "required": ["a", "b", "c_set"],
        "properties": {
            "a": {"$ref": "#/$defs/set"},
            "b": {"$ref": "#/$defs/set"},
            "c_set": {"$ref": "#/$defs/set"},
            "mc": {"$ref": "#/$defs/mc"},
        },
        "additionalProperties": False,
    },
    "microstates-spectrum": _two_measures(
        "k",
        k={"type": "integer", "minimum": 32},
        reference={"$ref": "#/$defs/measure"},
    ),
    "microstates-theta": {
        "type": "object",
        "required": ["h1", "h2", "k", "max_len", "eps", "trials"],
        "properties": {
            "h1": {"$ref": "#/$defs/profile"},
            "h2": {"$ref": "#/$defs/profile"},
            "k": {"type": "integer", "minimum": 2},
            "max_len": {"type": "integer", "minimum": 1},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "trials": {"type": "integer", "minimum": 100},
        },
        "additionalProperties": False,
    },
    "microstates-volume": {
        "type": "object",
        "required": ["h", "k", "mc_samples"],
        "properties": {
            "h": {"$ref": "#/$defs/profile"},
            "k": {"type": "integer", "minimum": 2, "maximum": 64},
            "mc_samples": {"type": "integer", "minimum": 10_000},
        },
        "additionalProperties": False,
    },
    "microstates-sum": {
        "type": "object",
        "required": [
            "h1", "h2", "k", "max_len", "eps", "trials", "filter_max_len", "filter_eps"
        ],
        "properties": {
            "h1": {"$ref": "#/$defs/profile"},
            "h2": {"$ref": "#/$defs/profile"},
            "k": {"type": "integer", "minimum": 2},
            "max_len": {"type": "integer", "minimum": 1},
            "eps": {"type": "number", "exclusiveMinimum": 0},
            "trials": {"type": "integer", "minimum": 100},
            "filter_max_len": {"type": "integer", "minimum": 1},
            "filter_eps": {"type": "number", "exclusiveMinimum": 0},
        },
        "additionalProperties": False,
    },
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


# a JSON string, or a non-finite token that Python's json accepts outside strings
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity)')


def _load_config(raw: str):
    """json.loads, refusing the NaN and Infinity tokens that JSON itself lacks."""

    def refuse(token):
        # the decoder calls this at the first such token outside a string
        at = next(m.start(1) for m in _STRING_OR_CONSTANT.finditer(raw) if m.group(1))
        raise json.JSONDecodeError(f"non-finite number {token} is not allowed", raw, at)

    return json.loads(raw, parse_constant=refuse)


def _first_error(schema: dict, instance):
    """The schema error at the first path in key order, or None."""
    errors = _Validator(schema).iter_errors(instance)
    return min(errors, key=lambda e: list(e.absolute_path), default=None)


def _params_error(command: str, params: dict):
    return _first_error({"$defs": _DEFS, **_PARAM_SCHEMAS[command]}, params)


def _error_path(err) -> list:
    """Keys leading to a schema error; an unexpected key ends its own path.

    An ``additionalProperties`` error sits at the object holding the key, so
    the first key the schema does not list is appended.
    """
    path = list(err.absolute_path)
    if err.validator == "additionalProperties":
        allowed = err.schema.get("properties", {})
        path.append(next(key for key in err.instance if key not in allowed))
    return path


def _validate(config: dict, raw: str, path: str) -> None:
    err = _first_error(_TOP_SCHEMA, config)
    if err is not None:
        line = _line_of_path(raw, _error_path(err) or ["command"])
        raise ConfigError(f"{path}:{line}: {err.message}")
    command = config["command"]
    err = _params_error(command, config["params"])
    if err is not None:
        line = _line_of_path(raw, ["params", *_error_path(err)])
        raise ConfigError(f"{path}:{line}: params: {err.message}")
    if "sweep" in config and config.get("format") == "json":
        raise ConfigError(
            f"{path}:{_line_of_path(raw, ['format'])}: "
            "sweep output is one CSV row per combination; format must be csv or omitted"
        )
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
SOLVER_DIAGNOSTICS = ("raw_mass", "eta", "unconverged_points", "worst_residual", "solver_steps")


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
    scale = max(report.power_sum, report.power_alpha + report.power_beta)
    tol = max(report.quadrature_error_estimate, 0.02 * scale)
    verdict = three_way_verdict(report.deficit, tol)
    result = {
        "report": report,
        "tolerance": tol,
        "verdict": verdict,
        "diagnostics": _solver_diagnostics(report.sum_meta),
    }
    return result, verdict, {"grid": {"n_cells": n_cells}}


def _run_stam(params, seed):
    n_cells = _n_cells(params)
    value = stam_deficit(
        _parse_measure(params["alpha"], n_cells), _parse_measure(params["beta"], n_cells), n_cells
    )
    # >= 0 by the free Stam inequality (a theorem); recorded, with no verdict
    return {"stam_deficit": value}, None, {"grid": {"n_cells": n_cells}}


def _run_lemma13(params, seed):
    out = check_lemma13(params["n"], params["rho"])
    report = out["report"]
    result = {"c1_estimate": out["c1_estimate"], "report": report}
    return result, report.verdict, {}


def _run_minkowski(params, seed):
    if _minkowski_mode(params) == "exact":
        out = ball_example_exact(params["rho"], params["n"])
        scale = 1.0 + params["rho"] ** 2
        verdict = "holds" if abs(out["equality_gap"]) <= 1e-9 * scale else "violated"
        result = {**out, "verdict": verdict}
        return result, verdict, {"mode": "exact"}
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

_TOP_SCHEMA = {
    "type": "object",
    "required": ["command", "params"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "params": {"type": "object"},
        "seed": {"type": "integer"},
        "output": {"type": "string"},
        "format": {"enum": ["json", "csv"]},
        "sweep": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {"type": "array", "minItems": 1},
        },
    },
    "additionalProperties": False,
}


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


def _flatten(obj, prefix: str = "") -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in sorted(obj.items()):
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def render_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


# -- driver --------------------------------------------------------------------------


def _set_dotted(params: dict, path: str, value) -> None:
    keys = path.split(".")
    node = params
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ParameterError(f"sweep path {path!r} crosses a non-object")
    node[keys[-1]] = value


def run_command(command: str, params: dict, seed: int):
    """Dispatch one experiment; returns (result, verdict, resolved-defaults)."""
    result, verdict, resolved = _HANDLERS[command](params, seed)
    return _jsonable(result), verdict, _jsonable(resolved)


def _document(config: dict, seed: int, result, verdict, resolved) -> dict:
    return {
        "command": config["command"],
        "params": _jsonable(config["params"]),
        "resolved": resolved,
        "result": result,
        "seed": seed,
        "verdict": verdict,
    }


def _run_single(config: dict, seed: int, fmt: str):
    result, verdict, resolved = run_command(config["command"], config["params"], seed)
    doc = _document(config, seed, result, verdict, resolved)
    if fmt == "csv":
        flat = _flatten(doc)
        columns = list(flat)
        text = render_csv([flat], columns)
    else:
        text = render_json(doc) + "\n"
    return text, _EXIT_BY_VERDICT[verdict]


def _run_sweep(config: dict, seed: int):
    sweep = config["sweep"]
    keys = sorted(sweep)
    total = math.prod(len(sweep[k]) for k in keys)
    if total > MAX_SWEEP_COMBINATIONS:
        raise ConfigError(
            f"sweep grid has {total} combinations; limit is {MAX_SWEEP_COMBINATIONS}"
        )
    rows = []
    result_columns: list[str] = []
    seen = set()
    for combo in itertools.product(*(sweep[k] for k in keys)):
        params = copy.deepcopy(config["params"])
        for key, value in zip(keys, combo):
            _set_dotted(params, key, value)
        row = {key: value for key, value in zip(keys, combo)}
        try:
            # a swept value is checked like a config value before it runs
            err = _params_error(config["command"], params)
            if err is not None:
                where = ".".join(["params", *map(str, err.absolute_path)])
                raise ConfigError(f"{where}: {err.message}")
            result, verdict, _ = run_command(config["command"], params, seed)
            flat = _flatten(result)
            for col in flat:
                if col not in seen:
                    seen.add(col)
                    result_columns.append(col)
            row.update(flat)
            row["verdict"] = verdict or ""
            row["error"] = ""
        except FreesumError as err:
            row["verdict"] = ""
            row["error"] = str(err)
        rows.append(row)
    columns = keys + sorted(result_columns) + ["verdict", "error"]
    return render_csv(rows, columns), 0


def run(config: dict, raw: str = "", path: str = "<config>") -> tuple[str, int, str | None]:
    """Validate and execute a config; returns (text, exit_code, output_path)."""
    _validate(config, raw, path)
    seed = config.get("seed", 0)
    fmt = config.get("format", "json")
    if "sweep" in config:
        text, code = _run_sweep(config, seed)
    else:
        text, code = _run_single(config, seed, fmt)
    return text, code, config.get("output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="freesum",
        description="Seeded free-probability and restricted-sum experiments.",
    )
    parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--output", help="override the config output path")
    parser.add_argument("--format", choices=("json", "csv"), help="override output format")
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
    for key, value in (
        ("seed", args.seed),
        ("output", args.output),
        ("format", args.format),
    ):
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
