"""Span recorder for the traced run, wrapped around freesum's entry points.

Instrumentation lives here, not in ``src/``: ``install`` replaces public
functions and methods of each freesum module with timing wrappers.  A
function imported by name into another module (``free_convolve`` into
``freeentropy`` and ``cli``, say) is replaced in every module that holds it,
so each name is wrapped where it is looked up.  ``numpy.linalg.qr`` and
``eigvalsh`` are wrapped only as ``freesum.microstates`` sees them, through
a view of numpy installed as that module's ``np``.

A span is ``[name, start, end, parent]`` with the parent's index in the span
list (-1 at the top).  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import time

import numpy as np

# (metric, unit) in the order they are printed
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("measure.build_s", "s"),
    ("transform.calls", "count"),
    ("transform.points", "count"),
    ("transform.cell_terms", "count"),
    ("transform.s", "s"),
    ("freeconv.solver_steps", "count"),
    ("freeconv.self_s", "s"),
    ("freeentropy.self_s", "s"),
    ("cumulants.s", "s"),
    ("geometry.volume_calls", "count"),
    ("geometry.volume_s", "s"),
    ("geometry.contains_points", "count"),
    ("geometry.contains_s", "s"),
    ("geometry.indicator_s", "s"),
    ("geometry.rejection_acceptance", "ratio"),
    ("geometry.sum_self_s", "s"),
    ("microstates.eigensolves", "count"),
    ("microstates.eigensolve_s", "s"),
    ("microstates.qr_calls", "count"),
    ("microstates.qr_s", "s"),
    ("microstates.membership_s", "s"),
    ("microstates.flag_constant_s", "s"),
    ("microstates.volume_self_s", "s"),
)

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        # per-span payloads recorded by wrappers: index -> dict
        self.notes: dict[int, dict] = {}

    def wrap(self, name: str, fn, note=None):
        """Wrap ``fn`` in a span; ``note(args, result)`` may attach a payload."""
        spans, stack, notes = self.spans, self.stack, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path) -> None:
        """Gzipped JSON lines, one array per span: name, start, end, parent, note."""
        with gzip.open(path, "wt") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps([*span, self.notes.get(idx)]) + "\n")


class _View:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, overrides: dict):
        self._base = base
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._base, name)


def _replace_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(freesum_modules: dict) -> Tracer:
    """Wrap the layer entry points; ``freesum_modules`` maps short names to modules."""
    tracer = Tracer()
    mods = freesum_modules
    everywhere = list(mods.values())

    def wrap_function(module, attr, name, note=None):
        original = getattr(module, attr)
        _replace_everywhere(everywhere, original, tracer.wrap(name, original, note))

    def wrap_method(cls, attr, name, note=None, kind=None):
        raw = cls.__dict__[attr]
        if kind is classmethod:
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, note)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, note))

    wrap_function(mods["cli"], "run", "cli.run",
                  note=lambda args, result: {"bytes": len(result[0].encode())})
    wrap_function(mods["cli"], "run_command", "cli.run_command")

    wrap_function(mods["measure"], "standard_family", "measure.standard_family")
    wrap_method(mods["microstates"].StepFunctionSpec, "from_quantiles",
                "measure.from_quantiles", kind=classmethod)

    def transform_note(args, result):
        ev, z = args[0], args[1]
        points = int(np.size(z))
        return {"points": points, "terms": points * (ev.coef.size + ev.atom_loc.size)}

    for attr in ("g", "g_and_deriv"):
        wrap_method(mods["transform"].StaircaseTransform, attr, f"transform.{attr}",
                    note=transform_note)

    wrap_function(mods["freeconv"], "free_convolve", "freeconv.free_convolve")
    wrap_function(mods["freeentropy"], "epi_deficit", "freeentropy.epi_deficit")

    for attr in ("pair_moment_targets", "cumulants_from_moments", "moments_from_cumulants"):
        wrap_function(mods["cumulants"], attr, f"cumulants.{attr}")

    geometry = mods["geometry"]
    wrap_function(geometry, "volume", "geometry.volume")
    wrap_method(geometry.SetSpec, "contains", "geometry.contains",
                note=lambda args, result: {"points": int(np.size(result))})
    wrap_method(geometry.ThetaSpec, "indicator", "geometry.indicator")
    wrap_function(geometry, "restricted_sum_volume", "geometry.restricted_sum_volume",
                  note=lambda args, result: {"pair_samples": int(result["pair_samples"]),
                                             "proposals": int(result["rejection_proposals"])})

    micro = mods["microstates"]
    linalg = _View(np.linalg, {
        "qr": tracer.wrap("microstates.qr", np.linalg.qr),
        "eigvalsh": tracer.wrap("microstates.eigvalsh", np.linalg.eigvalsh),
    })
    micro.np = _View(np, {"linalg": linalg})
    wrap_function(micro, "membership_report", "microstates.membership_report")
    wrap_function(micro, "log_flag_constant", "microstates.log_flag_constant")
    wrap_function(micro, "estimate_log_volume_omega", "microstates.estimate_log_volume_omega")
    return tracer


# -- per-layer metrics -----------------------------------------------------------


COUNT_UNITS = ("count", "bytes")
MEASURE_BUILD = frozenset(("measure.standard_family", "measure.from_quantiles"))
CUMULANTS = frozenset(("cumulants.pair_moment_targets", "cumulants.cumulants_from_moments",
                       "cumulants.moments_from_cumulants"))


def layer_metrics(tracer: Tracer, begin: int, end: int) -> dict:
    """Per-layer metrics over the spans recorded in ``[begin, end)``."""
    spans, notes = tracer.spans, tracer.notes
    duration = [0.0] * (end - begin)
    child_time = [0.0] * (end - begin)
    for i in range(begin, end):
        name, start, stop, parent = spans[i]
        duration[i - begin] = stop - start
        if parent >= begin:
            child_time[parent - begin] += stop - start

    def nested(i: int, names) -> bool:
        # an ancestor span is one of ``names``, so this call is counted there
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    m = {name: 0 if unit in COUNT_UNITS else 0.0 for name, unit in PER_LAYER}
    pair_samples = proposals = 0
    for i in range(begin, end):
        name = spans[i][0]
        dur, self_time = duration[i - begin], duration[i - begin] - child_time[i - begin]
        note = notes.get(i, {})
        if name == "cli.run":
            m["cli.self_s"] += self_time
            m["cli.output_bytes"] += note["bytes"]
        elif name in MEASURE_BUILD and not nested(i, MEASURE_BUILD):
            m["measure.build_s"] += dur
        elif name.startswith("transform."):
            m["transform.calls"] += 1
            m["transform.points"] += note["points"]
            m["transform.cell_terms"] += note["terms"]
            m["transform.s"] += dur
            if name == "transform.g_and_deriv" and nested(i, ("freeconv.free_convolve",)):
                m["freeconv.solver_steps"] += 1
        elif name == "freeconv.free_convolve":
            m["freeconv.self_s"] += self_time
        elif name == "freeentropy.epi_deficit":
            m["freeentropy.self_s"] += self_time
        elif name in CUMULANTS and not nested(i, CUMULANTS):
            m["cumulants.s"] += dur
        elif name == "geometry.volume":
            m["geometry.volume_calls"] += 1
            m["geometry.volume_s"] += dur
        elif name == "geometry.contains" and not nested(i, ("geometry.contains",)):
            m["geometry.contains_points"] += note["points"]
            m["geometry.contains_s"] += dur
        elif name == "geometry.indicator":
            m["geometry.indicator_s"] += dur
        elif name == "geometry.restricted_sum_volume":
            m["geometry.sum_self_s"] += self_time
            pair_samples += note["pair_samples"]
            proposals += note["proposals"]
        elif name == "microstates.eigvalsh":
            m["microstates.eigensolves"] += 1
            m["microstates.eigensolve_s"] += dur
        elif name == "microstates.qr":
            m["microstates.qr_calls"] += 1
            m["microstates.qr_s"] += dur
        elif name == "microstates.membership_report":
            m["microstates.membership_s"] += dur
        elif name == "microstates.log_flag_constant":
            m["microstates.flag_constant_s"] += dur
        elif name == "microstates.estimate_log_volume_omega":
            m["microstates.volume_self_s"] += self_time
    # every solver step evaluates both input transforms once
    m["freeconv.solver_steps"] //= 2
    m["geometry.rejection_acceptance"] = 2.0 * pair_samples / proposals if proposals else 0.0
    return m


def median_metrics(per_round: list[dict]) -> dict:
    """Median of each metric over rounds; counts repeat, so theirs is exact."""
    out = {}
    for name, unit in PER_LAYER:
        values = [r[name] for r in per_round]
        value = statistics.median(values)
        out[name] = {"value": int(value) if unit in COUNT_UNITS else value, "unit": unit}
    return out
