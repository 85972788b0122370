"""Structured config text for maps, connectors and profiles.

Configs are JSON objects, given inline or as a path to a JSON file.
Unknown keys and unknown family names are rejected with the list of
accepted ones, so committed config files stay reproducible.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import classify
from .annulus import AnnulusMapLift, BaseMap, FiberMap, TauSpec, make_skew_product
from .circle import LiftedCircleMap, from_function, make_lift
from .connectors import ConnectorCurve, constant_connector, invariant_connector_from_arc
from .errors import ParseError, ValidationError
from .stability import EpsilonSpec

CIRCLE_FAMILIES = ("linear", "sine", "samples", "blowup")
BASE_FAMILIES = ("identity", "power", "affine_to_one", "contraction", "samples")
TAU_FAMILIES = ("zero", "const", "linear", "inv_one_minus")
FIBER_FAMILIES = ("linear", "circle_map")
CONNECTOR_KINDS = ("const", "invariant_arc")
EPSILON_FAMILIES = ("const", "edge_poly")


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


def _take(cfg: dict, allowed: dict, where: str) -> dict:
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where}; "
                              f"allowed: {sorted(allowed)}")
    out = {}
    for key, default in allowed.items():
        if default is REQUIRED and key not in cfg:
            raise ValidationError(f"missing required key {key!r} in {where}")
        out[key] = cfg.get(key, default)
    return out


REQUIRED = object()


def _number(value, name: str, positive: bool = False):
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not np.isfinite(value))
            or (positive and value <= 0)):
        raise ValidationError(f"{name} must be a {'positive' if positive else 'finite'} "
                              f"number, got {value!r}")
    return value


MAX_SIZE = 2 ** 24
SIZE_KEYS = ("points", "grid", "nx", "ny", "depth", "samples")


def _integer(value, name: str, positive: bool = False) -> int:
    if _number(value, name, positive) != int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if name in SIZE_KEYS and value > MAX_SIZE:
        raise ValidationError(f"{name} must be at most {MAX_SIZE}, got {value!r}")
    return int(value)


def _insertion(spec) -> classify.Insertion:
    if not isinstance(spec, dict):
        raise ValidationError(f"an insertion must be a config object, got {spec!r}")
    p = _take(spec, {"base_angle": REQUIRED, "length": REQUIRED, "kind": "north_south"},
              "insertion")
    if not isinstance(p["base_angle"], str):
        _number(p["base_angle"], "base_angle")
    try:
        angle = classify.as_angle_fraction(p["base_angle"])
    except (ValueError, ZeroDivisionError):        # a string that is not 'p/q'
        raise ValidationError(f"base_angle must be a number or 'p/q', "
                              f"got {p['base_angle']!r}") from None
    return classify.Insertion(angle, float(_number(p["length"], "length", positive=True)),
                              str(p["kind"]))


def circle_map_from_config(cfg: dict) -> LiftedCircleMap:
    try:
        return _circle_map(cfg)
    except ValueError as e:        # samples the lift validation rejects
        raise ValidationError(f"invalid circle map: {e}") from None


def _circle_map(cfg: dict) -> LiftedCircleMap:
    family = cfg.get("family")
    if family not in CIRCLE_FAMILIES:
        raise ValidationError(f"unknown circle family {family!r}; "
                              f"known: {list(CIRCLE_FAMILIES)}")
    if family == "linear":
        p = _take(cfg, {"family": REQUIRED, "degree": REQUIRED, "offset": 0.0,
                        "grid": 4096}, "linear map")
        d, c = _integer(p["degree"], "degree"), p["offset"]
        return from_function(lambda x: d * x + c, _integer(p["grid"], "grid", positive=True),
                             {"family": "linear", "degree": d, "offset": c})
    if family == "sine":
        p = _take(cfg, {"family": REQUIRED, "degree": REQUIRED, "amplitude": 0.1,
                        "offset": 0.0, "grid": 4096}, "sine map")
        d, a, c = _integer(p["degree"], "degree"), p["amplitude"], p["offset"]
        return from_function(lambda x: d * x + a * np.sin(2 * np.pi * x) + c,
                             _integer(p["grid"], "grid", positive=True),
                             {"family": "sine", "degree": d, "amplitude": a, "offset": c})
    if family == "samples":
        p = _take(cfg, {"family": REQUIRED, "values": REQUIRED}, "sampled map")
        return make_lift(p["values"], {"family": "samples"})
    p = _take(cfg, {"family": REQUIRED, "degree": REQUIRED, "insertions": REQUIRED,
                    "grid": 4096, "depth": 12}, "blowup map")
    if not isinstance(p["insertions"], list):
        raise ValidationError(f"insertions must be a list, got {p['insertions']!r}")
    return classify.blow_up(_integer(p["degree"], "degree"),
                            [_insertion(s) for s in p["insertions"]],
                            grid=_integer(p["grid"], "grid", positive=True),
                            depth=_integer(p["depth"], "depth", positive=True))


def base_from_config(cfg: dict) -> BaseMap:
    family = cfg.get("family")
    if family not in BASE_FAMILIES:
        raise ValidationError(f"unknown base family {family!r}; known: {list(BASE_FAMILIES)}")
    if family == "identity":
        _take(cfg, {"family": REQUIRED}, "base map")
        return BaseMap("identity")
    if family == "power":
        p = _take(cfg, {"family": REQUIRED, "exponent": REQUIRED}, "base map")
        _number(p["exponent"], "exponent", positive=True)
        return BaseMap("power", (float(p["exponent"]),))
    if family == "affine_to_one":
        _take(cfg, {"family": REQUIRED}, "base map")
        return BaseMap("affine_to_one")
    if family == "contraction":
        p = _take(cfg, {"family": REQUIRED, "center": 0.5, "rate": 0.9}, "base map")
        if not 0.0 < p["rate"] < 1.0:
            raise ValidationError(f"contraction rate must be in (0,1), got {p['rate']}")
        return BaseMap("contraction", (float(p["center"]), float(p["rate"])))
    p = _take(cfg, {"family": REQUIRED, "values": REQUIRED}, "base map")
    return BaseMap("samples", table=np.asarray(p["values"], dtype=float))


def tau_from_config(cfg: dict | None) -> TauSpec:
    if cfg is None:
        return TauSpec()
    family = cfg.get("family")
    if family not in TAU_FAMILIES:
        raise ValidationError(f"unknown tau family {family!r}; known: {list(TAU_FAMILIES)}")
    p = _take(cfg, {"family": REQUIRED, "scale": 1.0}, "tau term")
    return TauSpec(family, float(_number(p["scale"], "tau scale")))


def annulus_map_from_config(cfg: dict) -> AnnulusMapLift:
    p = _take(cfg, {"base": REQUIRED, "fiber": REQUIRED}, "annulus map")
    base = base_from_config(p["base"])
    fcfg = p["fiber"]
    family = fcfg.get("family")
    if family not in FIBER_FAMILIES:
        raise ValidationError(f"unknown fiber family {family!r}; known: {list(FIBER_FAMILIES)}")
    if family == "linear":
        fp = _take(fcfg, {"family": REQUIRED, "degree": REQUIRED, "tau": None}, "fiber")
        fiber = FiberMap(_integer(fp["degree"], "degree"), tau=tau_from_config(fp["tau"]))
    else:
        fp = _take(fcfg, {"family": REQUIRED, "map": REQUIRED, "tau": None}, "fiber")
        circle = circle_map_from_config(fp["map"])
        fiber = FiberMap(circle.degree, circle=circle, tau=tau_from_config(fp["tau"]))
    return make_skew_product(base, fiber, metadata={"config": cfg})


def connector_from_config(cfg: dict, m: AnnulusMapLift) -> ConnectorCurve:
    kind = cfg.get("kind")
    if kind not in CONNECTOR_KINDS:
        raise ValidationError(f"unknown connector kind {kind!r}; known: {list(CONNECTOR_KINDS)}")
    if kind == "const":
        p = _take(cfg, {"kind": REQUIRED, "height": REQUIRED, "margin": 1e-3,
                        "samples": 1024}, "connector")
        _number(p["margin"], "margin", positive=True)
        return constant_connector(float(p["height"]), float(p["margin"]),
                                  _integer(p["samples"], "samples", positive=True))
    p = _take(cfg, {"kind": REQUIRED, "p": REQUIRED, "n_back": 8, "n_fwd": 14,
                    "margin": 1e-5, "value": None}, "connector")
    curve = invariant_connector_from_arc(m, tuple(p["p"]), _integer(p["n_back"], "n_back"),
                                         _integer(p["n_fwd"], "n_fwd"),
                                         margin=float(p["margin"]))
    if p["value"] is not None:
        curve.value = float(p["value"])
    return curve


def epsilon_from_config(cfg: dict) -> EpsilonSpec:
    family = cfg.get("family")
    if family not in EPSILON_FAMILIES:
        raise ValidationError(f"unknown epsilon family {family!r}; "
                              f"known: {list(EPSILON_FAMILIES)}")
    p = _take(cfg, {"family": REQUIRED, "value": 0.1, "power": 1.0}, "epsilon profile")
    _number(p["value"], "value", positive=True)
    return EpsilonSpec(family, float(p["value"]), float(p["power"]))
