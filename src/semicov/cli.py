"""Command-line front end: reproducible runs, CSV/JSON artifacts, exit codes.

Exit codes: 0 success (or equivalent verdict), 1 negative verdict
(distinct classification, violated winding bound), 2 inconclusive,
3 error.  Artifacts embed the config hash and tolerance metadata;
identical configs yield byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import classify, configs, connectors, obstruction, semiconj1d, semiconj2d, stability
from .errors import SemicovError, ValidationError

COMMANDS = ("semiconj1d", "rotation", "classify", "compare", "semiconj2d",
            "repellers", "star-scan", "counterexample-table", "perturb")


@dataclass
class RunConfig:
    command: str
    maps: dict = field(default_factory=dict)       # name -> raw map config
    params: dict = field(default_factory=dict)
    out: str | None = None

    def digest(self) -> str:
        blob = json.dumps({"command": self.command, "maps": self.maps,
                           "params": self.params}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_SCHEMAS = {
    "semiconj1d": {"map": configs.REQUIRED, "orientation": 1, "tol": 1e-8},
    "rotation": {"map": configs.REQUIRED, "points": 256, "x": None, "tol": 1e-10},
    "classify": {"map": configs.REQUIRED, "tol": 1e-8, "max_period": 16},
    "compare": {"a": configs.REQUIRED, "b": configs.REQUIRED, "tol": 1e-3},
    "semiconj2d": {"map": configs.REQUIRED, "band": [0.2, 0.8], "tol": 1e-8,
                   "nx": 129, "ny": 256},
    "repellers": {"map": configs.REQUIRED, "connector": configs.REQUIRED, "depth": 10},
    "star-scan": {"map": configs.REQUIRED, "band": [0.1, 0.9], "nmax": 6,
                  "connector": None, "depth": 8},
    "counterexample-table": {"nmax": 8},
    "perturb": {"epsilon": configs.REQUIRED, "grid": 100000},
}

_MAP_KEYS = {"map", "a", "b"}
_NUMERIC_POSITIVE = {"tol", "points", "nx", "ny", "depth", "nmax", "grid", "max_period"}


def parse_config(text_or_obj) -> RunConfig:
    """Validate a run config given as JSON text, a path, or a dict."""
    obj = configs.load_config(text_or_obj) if isinstance(text_or_obj, str) else dict(text_or_obj)
    command = obj.pop("command", None)
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; known: {list(COMMANDS)}")
    out = obj.pop("out", None)
    schema = _SCHEMAS[command]
    unknown = set(obj) - set(schema)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} for {command}; "
                              f"allowed: {sorted(schema)}")
    maps, params = {}, {}
    for key, default in schema.items():
        if default is configs.REQUIRED and key not in obj:
            raise ValidationError(f"missing required key {key!r} for {command}")
        value = obj.get(key, default)
        if key in _NUMERIC_POSITIVE and value is not None:
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValidationError(f"{key} must be positive, got {value!r}")
        if key == "band" and value is not None:
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(isinstance(v, (int, float)) for v in value)
                    and 0.0 < value[0] < value[1] < 1.0):
                raise ValidationError(f"band must be two numbers 0 < a < b < 1, got {value}")
        if key == "orientation" and value not in (1, -1):
            raise ValidationError(f"orientation must be +1 or -1, got {value!r}")
        if key in _MAP_KEYS or key in ("connector", "epsilon"):
            maps[key] = value
        else:
            params[key] = value
    if command == "counterexample-table" and params["nmax"] < 2:
        raise ValidationError(f"nmax must be at least 2, got {params['nmax']!r}")
    return RunConfig(command, maps, params, out)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows, meta: dict) -> str:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj: dict, meta: dict) -> str:
    return json.dumps({"meta": meta, **obj}, sort_keys=True, indent=2) + "\n"


def run(cfg: RunConfig) -> int:
    """Dispatch a validated run config; returns the process exit code."""
    meta = {"config_sha256": cfg.digest(), **{k: v for k, v in cfg.params.items()
                                              if isinstance(v, (int, float))}}
    p = cfg.params
    if cfg.command == "semiconj1d":
        m = configs.circle_map_from_config(cfg.maps["map"])
        h = semiconj1d.solve_semiconjugacy(m, int(p["orientation"]), p["tol"])
        xs = np.linspace(0.0, 1.0, h.grid + 1)
        meta["residual"] = f"{h.residual:.3e}"
        _write_text(cfg.out, _csv(["x", "H"], zip(xs.tolist(), h.samples.tolist()), meta))
        return 0

    if cfg.command == "rotation":
        m = configs.circle_map_from_config(cfg.maps["map"])
        h = semiconj1d.solve_semiconjugacy(m, 1, p["tol"])
        xs = (np.asarray([float(p["x"])]) if p["x"] is not None
              else np.linspace(0.0, 1.0, int(p["points"]), endpoint=False))
        _write_text(cfg.out, _csv(["x", "rho"], zip(xs.tolist(), h(xs).tolist()), meta))
        return 0

    if cfg.command == "classify":
        m = configs.circle_map_from_config(cfg.maps["map"])
        data = classify.classification_data(m, tol=p["tol"], max_period=int(p["max_period"]))
        out = {"degree": data.degree, "grid": data.grid,
               "records": [_record_json(r) for r in data.records]}
        _write_text(cfg.out, _json_text(out, meta))
        return 0

    if cfg.command == "compare":
        da = classify.classification_data(configs.circle_map_from_config(cfg.maps["a"]))
        db = classify.classification_data(configs.circle_map_from_config(cfg.maps["b"]))
        verdict = classify.compare_classification(da, db, tol=p["tol"])
        out = {"status": verdict.status, "reason": verdict.reason}
        if verdict.relator is not None:
            out["relator"] = {"rotation_index": verdict.relator.rotation_index,
                              "reflect": verdict.relator.reflect}
        _write_text(cfg.out, _json_text(out, meta))
        return verdict.exit_code

    if cfg.command == "semiconj2d":
        m = configs.annulus_map_from_config(cfg.maps["map"])
        band = tuple(p["band"])
        h = semiconj2d.solve_band_semiconjugacy(m, band, p["tol"],
                                                nx=int(p["nx"]), ny=int(p["ny"]))
        meta["residual"] = f"{h.residual:.3e}"
        ys = np.linspace(0.0, 1.0, h.ny + 1)
        rows = [(float(x), float(y), float(h.values[i, j]))
                for i, x in enumerate(h.x_samples) for j, y in enumerate(ys)]
        _write_text(cfg.out, _csv(["x", "y", "H"], rows, meta))
        return 0

    if cfg.command == "repellers":
        m = configs.annulus_map_from_config(cfg.maps["map"])
        c = configs.connector_from_config(cfg.maps["connector"], m)
        reps = connectors.repelling_connectors(m, c, depth=int(p["depth"]))
        rows = [(k, float(x), float(y))
                for k, r in enumerate(reps) for x, y in zip(r.xs, r.heights)]
        meta["count"] = len(reps)
        _write_text(cfg.out, _csv(["curve_id", "x", "y"], rows, meta))
        return 0

    if cfg.command == "star-scan":
        m = configs.annulus_map_from_config(cfg.maps["map"])
        band = tuple(p["band"])
        h_field = None
        if cfg.maps.get("connector") is not None:
            c = configs.connector_from_config(cfg.maps["connector"], m)
            if c.value is None:
                c.value = 0.0
            h_field = connectors.semiconjugacy_from_connectors(
                m, [c], depth=int(p["depth"]), band=band)
        report = obstruction.star_condition_scan(m, band, int(p["nmax"]), h_field=h_field)
        out = {
            "band": list(band),
            "max_winding": report.max_winding,
            "max_per_n": {str(k): v for k, v in report.max_per_n().items()},
            "deviation_bound": report.deviation_bound,
            "implied_bound": report.implied_bound,
            "satisfied": report.satisfied,
            "records": len(report.records),
        }
        _write_text(cfg.out, _json_text(out, meta))
        return 0 if report.satisfied in (True, None) else 1

    if cfg.command == "counterexample-table":
        rows = obstruction.counterexample_growth_table(int(p["nmax"]))
        _write_text(cfg.out, _json_text({"rows": rows}, meta))
        return 0

    if cfg.command == "perturb":
        eps = configs.epsilon_from_config(cfg.maps["epsilon"])
        spec = stability.perturb_p2(eps)
        report = stability.verify_perturbation(spec, grid=int(p["grid"]))
        _write_text(cfg.out, _json_text(report, meta))
        return 0

    raise ValidationError(f"unhandled command {cfg.command}")


def _record_json(r: classify.PlateauRecord) -> dict:
    sig = r.signature
    return {
        "image_angle": r.image_angle,
        "kind": r.kind,
        "period": r.period,
        "preperiod": r.preperiod,
        "depth_limited": r.depth_limited,
        "interval": [r.interval[0], r.interval[1]],
        "signature": {
            "orientation": sig.orientation,
            "fixed_point_count": sig.fixed_point_count,
            "sign_pattern": list(sig.sign_pattern) if sig.sign_pattern else None,
            "identity_like": sig.identity_like,
        },
    }


def _add_common(sp, *names):
    for name in names:
        if name == "out":
            sp.add_argument("--out", default=None, help="artifact path (default: stdout)")
        elif name == "tol":
            sp.add_argument("--tol", type=float, default=None)
        elif name == "band":
            sp.add_argument("--band", default=None, help="a,b inside (0,1)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="semicov",
                                 description="semiconjugacies of circle/annulus coverings")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("semiconj1d", help="solve the circle semiconjugacy lift")
    sp.add_argument("--map", required=True)
    sp.add_argument("--orientation", choices=["+", "-"], default="+")
    _add_common(sp, "tol", "out")

    sp = sub.add_parser("rotation", help="rotation numbers of a circle map")
    sp.add_argument("--map", required=True)
    sp.add_argument("--points", type=int, default=None)
    sp.add_argument("--x", type=float, default=None)
    _add_common(sp, "tol", "out")

    sp = sub.add_parser("classify", help="classification data of a circle covering")
    sp.add_argument("--map", required=True)
    _add_common(sp, "tol", "out")

    sp = sub.add_parser("compare", help="compare two circle coverings")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    _add_common(sp, "tol", "out")

    sp = sub.add_parser("semiconj2d", help="band semiconjugacy of an annulus covering")
    sp.add_argument("--map", required=True)
    _add_common(sp, "band", "tol", "out")

    sp = sub.add_parser("repellers", help="repelling connectors from a free connector")
    sp.add_argument("--map", required=True)
    sp.add_argument("--connector", required=True)
    sp.add_argument("--depth", type=int, default=None)
    _add_common(sp, "out")

    sp = sub.add_parser("star-scan", help="winding bound scan over iterated loop lifts")
    sp.add_argument("--map", required=True)
    sp.add_argument("--connector", default=None)
    sp.add_argument("--nmax", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)
    _add_common(sp, "band", "out")

    sp = sub.add_parser("counterexample-table", help="winding lower-bound growth table")
    sp.add_argument("--nmax", type=int, default=None)
    _add_common(sp, "out")

    sp = sub.add_parser("perturb", help="verified pointwise-small perturbation of squaring")
    sp.add_argument("--epsilon", required=True)
    sp.add_argument("--grid", type=int, default=None)
    _add_common(sp, "out")

    ns = ap.parse_args(argv)
    try:
        cfg = _namespace_to_config(ns)
        return run(cfg)
    except SemicovError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def _namespace_to_config(ns) -> RunConfig:
    obj: dict = {"command": ns.command}
    for key, value in vars(ns).items():
        if key == "command" or value is None:
            continue
        if key in ("map", "a", "b", "connector", "epsilon"):
            obj[key] = configs.load_config(value)
        elif key == "orientation":
            obj[key] = 1 if value == "+" else -1
        elif key == "band":
            try:
                obj[key] = [float(v) for v in value.split(",")]
            except ValueError:
                raise ValidationError(f"band must be a,b, got {value!r}") from None
        else:
            obj[key] = value
    return parse_config(obj)


if __name__ == "__main__":
    sys.exit(main())
