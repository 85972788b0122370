"""Structured config text for maps, connectors and profiles.

Configs are JSON objects, given inline or as a path to a JSON file.  Each
map kind is one table of families with typed parameter schemas, and
``build`` makes every kind in one step: check the family, take the schema's
keys, check each value, construct.  Unknown keys and family names are
rejected with the accepted ones, so committed config files stay reproducible.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import classify
from .annulus import BASES, TAUS, AnnulusMapLift, BaseMap, FiberMap, TauSpec, make_skew_product
from .circle import LiftedCircleMap, from_function, make_lift
from .connectors import ConnectorCurve, constant_connector, invariant_connector_from_arc
from .errors import ParseError, ValidationError
from .schema import (REQUIRED, Family, config, count, integer, margin, number, numbers, pair,
                     size, take)
from .stability import EPSILONS, EpsilonSpec


def load_config(text_or_path: str) -> dict:
    """Parse inline JSON or the contents of a JSON file."""
    text = text_or_path
    p = Path(text_or_path)
    try:
        if p.is_file():
            text = p.read_text()
    except OSError:
        pass
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"config is not valid JSON ({e}); "
                         "pass inline JSON or a path to a JSON file") from None
    if not isinstance(obj, dict):
        raise ValidationError("config must be a JSON object")
    return obj


def _insertions(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return [classify.Insertion.of(s) for s in value]


def _lift(family: str, fn: Callable) -> Callable:
    """Builder sampling the lift fn(x, **params) on the grid, params as metadata."""
    return lambda grid, **p: from_function(lambda x: fn(x, **p), grid, {"family": family, **p})


def _arc(m, p, n_back, n_fwd, margin, value):
    curve = invariant_connector_from_arc(m, p, n_back, n_fwd, margin=margin)
    if value is not None:
        curve.value = value
    return curve


# families whose table entry builds the object from its checked parameters
_TAU = (None, lambda value, name: build("tau", value))
CIRCLES = {
    "linear": Family({"degree": (REQUIRED, integer), "offset": (0.0, number),
                      "grid": (4096, size)},
                     _lift("linear", lambda x, degree, offset: degree * x + offset)),
    "sine": Family({"degree": (REQUIRED, integer), "amplitude": (0.1, number),
                    "offset": (0.0, number), "grid": (4096, size)},
                   _lift("sine", lambda x, degree, amplitude, offset:
                         degree * x + amplitude * np.sin(2 * np.pi * x) + offset)),
    "samples": Family({"values": (REQUIRED, numbers)},
                      lambda values: make_lift(values, {"family": "samples"})),
    "blowup": Family({"degree": (REQUIRED, integer), "insertions": (REQUIRED, _insertions),
                      "grid": (4096, size), "depth": (12, size)},
                     lambda degree, insertions, grid, depth:
                     classify.blow_up(degree, insertions, grid=grid, depth=depth)),
}
FIBERS = {
    "linear": Family({"degree": (REQUIRED, integer), "tau": _TAU},
                     lambda degree, tau: FiberMap(degree, tau=tau or TauSpec())),
    "circle_map": Family({"map": (REQUIRED, lambda value, name: circle_map_from_config(value)),
                          "tau": _TAU},
                         lambda map, tau: FiberMap(map.degree, circle=map, tau=tau or TauSpec())),
}
CONNECTORS = {                                  # builders take the annulus map first
    "const": Family({"height": (REQUIRED, number), "margin": (1e-3, margin),
                     "samples": (1024, lambda value, name: integer(value, name, least=2))},
                    lambda m, height, margin, samples: constant_connector(height, margin, samples)),
    "invariant_arc": Family({"p": (REQUIRED, pair), "n_back": (8, count),
                             "n_fwd": (14, count), "margin": (1e-5, margin),
                             "value": (None, number)}, _arc),
}


def _base(name: str, values=None, **params) -> BaseMap:
    return BaseMap(name, tuple(params.values()), values)   # values: the samples table


class Kind(NamedTuple):
    key: str                         # the config key naming the family
    families: dict                   # family name -> Family
    make: Callable | None = None     # (name, **params) -> object; None: the family builds it


KINDS = {
    "circle": Kind("family", CIRCLES),
    "base": Kind("family", BASES, _base),
    "tau": Kind("family", TAUS, TauSpec),
    "fiber": Kind("family", FIBERS),
    "connector": Kind("kind", CONNECTORS),
    "epsilon": Kind("family", EPSILONS, EpsilonSpec),
}


def build(kind: str, cfg, *context):
    """Check a config of one map kind against its family's schema and build it."""
    key, families, make = KINDS[kind]
    name = config(cfg, kind).get(key)
    if not isinstance(name, str) or name not in families:
        raise ValidationError(f"unknown {kind} {key} {name!r}; known: {list(families)}")
    schema = families[name].schema
    p = take(cfg, {key: REQUIRED, **{k: d for k, (d, _) in schema.items()}}, f"{name} {kind}")
    params = {k: p[k] if p[k] is None and d is None else check(p[k], k)
              for k, (d, check) in schema.items()}
    return make(name, **params) if make else families[name].call(*context, **params)


def circle_map_from_config(cfg: dict) -> LiftedCircleMap:
    try:
        return build("circle", cfg)
    except ValueError as e:        # samples the lift validation rejects
        raise ValidationError(f"invalid circle map: {e}") from None


def annulus_map_from_config(cfg: dict) -> AnnulusMapLift:
    p = take(config(cfg, "annulus map"), {"base": REQUIRED, "fiber": REQUIRED}, "annulus map")
    return make_skew_product(build("base", p["base"]), build("fiber", p["fiber"]),
                             metadata={"config": cfg})


def connector_from_config(cfg: dict, m: AnnulusMapLift) -> ConnectorCurve:
    return build("connector", cfg, m)


def epsilon_from_config(cfg: dict) -> EpsilonSpec:
    return build("epsilon", cfg)
