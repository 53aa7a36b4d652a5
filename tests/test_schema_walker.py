"""The CLI's schema walker refuses what jsonschema refuses, in the same words.

``helpers.reference_refusal`` runs the same schemas through jsonschema's
Draft 2020-12 validator, extended with the ``byMode`` keyword.  Valid configs
of every command are mutated at random, and both must accept the result or
both refuse it with the same ``path:line: message``.

One difference is deliberate and never generated: jsonschema counts a whole
float such as ``2.0`` as an integer, while the walker takes integer literals
only.  So no mutation writes a whole float; the base configs hold floats only
in number fields, and every replacement number is an int or a non-whole
float.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freesum.cli as cli

from helpers import reference_refusal

SEMICIRCLE = {"family": "semicircle", "params": [1.0]}
BERNOULLI = {"family": "bernoulli", "params": [0.5, -1.0, 1.0]}
GRID = {"n_cells": 256}
BALL = {"kind": "ball", "radius": 1.0, "dim": 2, "center": [0.0, 0.5]}
BOX = {"kind": "box", "half_widths": [1.0, 0.5]}
ELLIPSOID = {"kind": "ellipsoid", "semi_axes": [1.0, 2.0], "center": [0.0, 0.0]}
INTERSECTION = {"kind": "intersection", "parts": [BALL, BOX]}
SCALED = {"kind": "scaled", "base": ELLIPSOID, "factor": 0.5}
QUANTILES = {"quantiles_of": BERNOULLI, "n_nodes": 65}
TABLE = {"nodes": [0.0, 0.5, 1.0], "values": [-1.0, 0.0, 1.0]}
MC = {"pair_samples": 20000}

VALID = [
    {"command": "entropy", "params": {"mu": SEMICIRCLE, "grid": GRID}},
    {"command": "freeconv", "params": {"alpha": SEMICIRCLE, "beta": BERNOULLI, "grid": GRID}},
    {"command": "epi", "params": {"alpha": BERNOULLI, "beta": SEMICIRCLE}},
    {"command": "stam", "output": "stam.json", "params": {"alpha": SEMICIRCLE,
                                                          "beta": SEMICIRCLE}},
    {"command": "lemma13", "params": {"n": 4, "rho": 0.5}},
    {"command": "minkowski", "params": {"example": "ball", "rho": 0.5, "n": 3}},
    {"command": "minkowski", "seed": 1, "params": {
        "a": INTERSECTION, "b": SCALED, "theta": {"kind": "inner_product_leq", "c": -0.2},
        "mc": MC}},
    {"command": "theorem12", "seed": 1, "params": {
        "a": BALL, "b": ELLIPSOID, "theta": {"kind": "sum_norm_leq", "bound": 1.5}}},
    {"command": "corollary15", "seed": 1, "params": {
        "a": BOX, "b": SCALED, "theta": {"kind": "complement_fraction", "density": 0.1},
        "delta": 0.25, "mc": MC}},
    {"command": "bll", "seed": 1, "params": {
        "a": BALL, "b": BOX, "c_set": INTERSECTION, "mc": MC}},
    {"command": "microstates-spectrum", "seed": 1, "params": {
        "alpha": SEMICIRCLE, "beta": BERNOULLI, "k": 32, "reference": SEMICIRCLE}},
    {"command": "microstates-theta", "seed": 1, "params": {
        "h1": QUANTILES, "h2": TABLE, "k": 8, "max_len": 2, "eps": 0.2, "trials": 100}},
    {"command": "microstates-volume", "seed": 1, "params": {
        "h": TABLE, "k": 8, "mc_samples": 10000}},
    {"command": "microstates-sum", "seed": 1, "params": {
        "h1": TABLE, "h2": QUANTILES, "k": 8, "max_len": 2, "eps": 0.2, "trials": 100,
        "filter_max_len": 2, "filter_eps": 0.06}},
]

# names of fields somewhere in the schemas, so an added key is often one that
# another mode, kind or command reads, and names that no schema has
KEY_NAMES = ["kind", "radius", "dim", "center", "parts", "base", "n", "rho", "example",
             "theta", "mc", "nodes", "values", "n_nodes", "quantiles_of", "c", "seed",
             "params", "grid", "zeta", "aa", "mm", "Z"]
# every bound in the schemas and a value on each side of it; no whole floats
NUMBERS = [-1, 0, 1, 2, 31, 32, 64, 65, 99, 100, 999, 1000, 9999, 10000,
           -0.5, 1e-9, 0.25, 0.5, 0.75, 1.5]
STRINGS = ["gaussian", "", "Ball", "ball", "box", "intersection", "scaled", "full",
           "inner_product_leq", "semicircle", "bernoulli", "lemma13", "theorem12",
           "microstates-volume"]
OTHERS = [True, False, "1", [1.0], {}, None]
MUTATIONS = ["drop", "add", "add", "retype", "number", "number", "string", "array"]


def _locations(node, path=()):
    """Every (path, value) in a config tree, the root included."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _locations(child, (*path, key))


def _replace(config, path, value):
    """``config`` with a copy of ``value`` at ``path``."""
    value = copy.deepcopy(value)
    if not path:
        return value
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# mutation: (which values it may replace, the values it writes over ``old``)
REPLACEMENTS = {
    # any field given a bool, a string, a list, an object or null
    "retype": (lambda value: True, lambda old: OTHERS),
    # a number pushed across a bound, or made a non-whole float
    "number": (_is_number, lambda old: NUMBERS),
    # a bad enum or const, or the kind of another mode
    "string": (lambda value: isinstance(value, str), lambda old: STRINGS),
    # an empty or short array
    "array": (lambda value: isinstance(value, list), lambda old: [[], old[:1]]),
}


@st.composite
def mutated_configs(draw):
    """A valid config with one to three mutations, each at a random place."""
    # a copy through JSON, so no two places in the tree share one object
    config = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for _ in range(draw(st.integers(1, 3))):
        # one mutation in eight may touch the top level; a refusal there
        # hides every error in params
        places = list(_locations(config))
        if draw(st.integers(0, 7)):
            places = [(p, v) for p, v in places if p[:1] == ("params",)]
        kind = draw(st.sampled_from(MUTATIONS))
        if kind in ("drop", "add"):
            dicts = [(p, v) for p, v in places if isinstance(v, dict)]
            if not dicts:
                continue
            path, obj = draw(st.sampled_from(dicts))
            items = list(obj.items())
            if kind == "drop" and items:
                del items[draw(st.integers(0, len(items) - 1))]
            elif kind == "add":
                # one or several unknown keys, each at a random place in
                # the object, so their order in the file is not sorted
                names = draw(st.lists(st.sampled_from(KEY_NAMES), min_size=1, max_size=3,
                                      unique=True))
                for name in [name for name in names if name not in obj]:
                    value = draw(st.sampled_from(NUMBERS + OTHERS))
                    items.insert(draw(st.integers(0, len(items))), (name, value))
            config = _replace(config, path, dict(items))
            continue
        test, values = REPLACEMENTS[kind]
        targets = [(p, v) for p, v in places if p and test(v)]
        if targets:
            path, old = draw(st.sampled_from(targets))
            config = _replace(config, path, draw(st.sampled_from(values(old))))
    return config


def refusal(config, raw):
    try:
        cli._validate(config, raw, "c.json")
    except cli.ConfigError as err:
        return str(err)
    return None


@pytest.mark.parametrize("config", VALID, ids=[
    f"{c['command']}-{i}" for i, c in enumerate(VALID)])
def test_the_base_configs_are_valid(config):
    raw = json.dumps(config, indent=2)
    assert refusal(config, raw) is None
    assert reference_refusal(config, raw, "c.json") is None


@settings(max_examples=800, deadline=None, derandomize=True)
@given(mutated_configs())
def test_the_walker_refuses_as_jsonschema_does(config):
    # one key a line, so a refusal at the wrong key names the wrong line
    raw = json.dumps(config, indent=2)
    assert refusal(config, raw) == reference_refusal(config, raw, "c.json")
