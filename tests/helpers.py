"""Test-only helpers: readers and builders the package itself never calls."""

import math

import jsonschema
import numpy as np

from freesum import cli
from freesum.measure import Measure
from freesum.microstates import StepFunctionSpec


def ks_statistic(samples, mu: Measure) -> float:
    """Kolmogorov statistic of an empirical sample against ``mu``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = mu.cdf(x)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def affine(h: StepFunctionSpec, a: float, b: float) -> StepFunctionSpec:
    """The profile a * h + b on h's nodes."""
    return StepFunctionSpec(h.nodes, tuple(a * v + b for v in h.values))


def measure_from_json(data: dict) -> Measure:
    """The measure whose JSON form, as the CLI writes it, is ``data``."""
    return Measure(
        data["grid_lo"],
        data["grid_hi"],
        np.asarray(data["density"], dtype=float),
        tuple((a, w) for a, w in data["atoms"]),
    )


def gapped_two_point_cdf(x, s: float, d: float):
    """CDF of (1/2, +-a) boxplus (1/2, +-b) with s = a + b > d = |a - b|.

    The density is |y| / (pi sqrt((s^2 - y^2)(y^2 - d^2))) on d < |y| < s;
    with u = y^2 it integrates to an arcsine in u.
    """
    y = np.clip(np.abs(np.asarray(x, dtype=float)), d, s)
    u = np.clip((2.0 * y * y - s * s - d * d) / (s * s - d * d), -1.0, 1.0)
    half = (np.arcsin(u) + 0.5 * math.pi) / (2.0 * math.pi)
    return np.where(np.asarray(x) >= 0, 0.5 + half, 0.5 - half)


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


# Draft 2020-12 with the one custom keyword the CLI's schemas use
_ReferenceValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"byMode": _check_by_mode}
)


def _reference_error(schema: dict, instance):
    """(line path, message) of the error jsonschema reports first, or None.

    Errors rank by path in key order; an ``additionalProperties`` error
    ranks at its object and is reported at the first unexpected key.
    """
    errors = _ReferenceValidator({"$defs": cli._DEFS, **schema}).iter_errors(instance)
    err = min(errors, key=lambda e: list(e.absolute_path), default=None)
    if err is None:
        return None
    path = list(err.absolute_path)
    if err.validator == "additionalProperties":
        allowed = err.schema.get("properties", {})
        path.append(next(key for key in err.instance if key not in allowed))
    return path, err.message


def reference_refusal(config: dict, raw: str, path: str) -> str | None:
    """The refusal ``cli._validate`` words for ``config`` with jsonschema as
    the schema validator, or None when the config passes.

    This is the oracle the CLI's own schema walker is checked against.
    """
    err = _reference_error(cli._TOP_SCHEMA, config)
    if err is not None:
        return f"{path}:{cli._line_of_path(raw, err[0] or ['command'])}: {err[1]}"
    command = config["command"]
    err = _reference_error(cli._PARAM_SCHEMAS[command], config["params"])
    if err is not None:
        return f"{path}:{cli._line_of_path(raw, ['params', *err[0]])}: params: {err[1]}"
    exact_mode = command == "minkowski" and cli._minkowski_mode(config["params"]) == "exact"
    if command in cli.STOCHASTIC_COMMANDS and not exact_mode and "seed" not in config:
        return (
            f"{path}:{cli._line_of_path(raw, ['command'])}: "
            f"seed is required for stochastic command {command!r}"
        )
    return None
