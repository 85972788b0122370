"""Command-line front end: reproducible runs, CSV/JSON artifacts, exit codes.

Exit codes: 0 success (or equivalent verdict), 1 negative verdict
(distinct classification, violated winding bound, failed perturbation
certificate), 2 inconclusive, 3 error.  Artifacts embed the config hash
and tolerance metadata; identical configs yield byte-identical artifacts.

Every command is one entry of ``COMMANDS``: its schema (key -> default or
``schema.REQUIRED``) sets both the run-config keys and the ``--<key>``
flags, and its handler turns a validated config into artifact text and an
exit code.  Every key is one entry of ``KEYS``: check, flag reader, hint.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import (classify, configs, connectors, numerics, obstruction, schema, semiconj1d,
               semiconj2d, stability)
from .errors import SemicovError, ValidationError

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


def parse_config(text_or_obj) -> RunConfig:
    """Validate a run config given as JSON text, a path, or a dict."""
    obj = configs.load_config(text_or_obj) if isinstance(text_or_obj, str) else dict(text_or_obj)
    command = obj.pop("command", None)
    if not isinstance(command, str) or command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; known: {list(COMMANDS)}")
    out = obj.pop("out", None)
    if not isinstance(out, (str, type(None))):
        raise ValidationError(f"out must be a path string, got {out!r}")
    maps, params = {}, {}
    for key, value in schema.take(obj, COMMANDS[command].schema, command).items():
        if value is not None:                           # None leaves an optional key unset
            KEYS[key].check(value, key)
        (maps if KEYS[key].check is schema.config else params)[key] = value
    return RunConfig(command, maps, params, out)


def _csv(header: list[str], rows, meta: dict) -> str:
    """CSV text: a meta comment, the header, then rows of tuples.

    Each column holds one type, so the first row sets one %-format for all:
    ``%.12g`` for floats, ``%s`` for anything else.
    """
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append(",".join(header))
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        fmt = ",".join("%.12g" if isinstance(v, float) else "%s" for v in first)
        lines.append(fmt % first)
        lines.extend(fmt % row for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj: dict, meta: dict) -> str:
    return json.dumps({"meta": meta, **obj}, sort_keys=True, indent=2) + "\n"


def run(cfg: RunConfig) -> int:
    """Run a validated config, write its artifact; returns the process exit code."""
    fresh = cfg.out is not None and not os.path.exists(cfg.out)
    if cfg.out is not None:     # fail before the work; "a" keeps an earlier artifact if the run fails
        open(cfg.out, "a").close()
    meta = {"config_sha256": cfg.digest(), **{k: v for k, v in cfg.params.items()
                                              if isinstance(v, (int, float))}}
    try:
        text, code = COMMANDS[cfg.command].handler(cfg, meta)
    except BaseException:
        if fresh:               # the probe made this file; a failed run leaves none
            os.remove(cfg.out)
        raise
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    return code


# --- handlers: (validated config, artifact meta) -> (artifact text, exit code) ---

def _semiconj1d(cfg: RunConfig, meta: dict):
    p = cfg.params
    m = configs.circle_map_from_config(cfg.maps["map"])
    h = semiconj1d.solve_semiconjugacy(m, int(p["orientation"]), p["tol"])
    meta["residual"] = f"{h.residual:.3e}"
    rows = _rows_1d if h.grid + 1 <= numerics.BLOCK else _rows_1d.__wrapped__
    return _csv(["x", "H"], (), meta) + rows(h.grid) % tuple(h.samples.tolist()), 0


@functools.lru_cache(maxsize=4)             # one-block grids only: a 2^24 grid keeps nothing
def _rows_1d(grid: int) -> str:
    """_csv's (x, H) rows as one %-template: each node's x label formatted once, then %.12g."""
    return "".join(["%.12g,%%.12g\n" % x for x in np.linspace(0.0, 1.0, grid + 1).tolist()])


def _rotation(cfg: RunConfig, meta: dict):
    p = cfg.params
    m = configs.circle_map_from_config(cfg.maps["map"])
    xs = (np.asarray([float(p["x"])]) if p["x"] is not None
          else np.linspace(0.0, 1.0, int(p["points"]), endpoint=False))
    rho = semiconj1d.rotation_number(m, xs, p["tol"])
    return _csv(["x", "rho"], zip(xs.tolist(), rho.tolist()), meta), 0


def _classify(cfg: RunConfig, meta: dict):
    p = cfg.params
    m = configs.circle_map_from_config(cfg.maps["map"])
    data = classify.classification_data(m, tol=p["tol"], max_period=int(p["max_period"]))
    out = {"degree": data.degree, "grid": data.grid,
           "records": [{**vars(r), "signature": vars(r.signature)} for r in data.records]}
    return _json_text(out, meta), 0


def _compare(cfg: RunConfig, meta: dict):
    da = classify.classification_data(configs.circle_map_from_config(cfg.maps["a"]))
    db = classify.classification_data(configs.circle_map_from_config(cfg.maps["b"]))
    verdict = classify.compare_classification(da, db, tol=cfg.params["tol"])
    out = {"status": verdict.status, "reason": verdict.reason}
    if verdict.relator is not None:
        out["relator"] = {"rotation_index": verdict.relator.rotation_index,
                          "reflect": verdict.relator.reflect}
    return _json_text(out, meta), verdict.exit_code


def _semiconj2d(cfg: RunConfig, meta: dict):
    p = cfg.params
    m = configs.annulus_map_from_config(cfg.maps["map"])
    h = semiconj2d.solve_band_semiconjugacy(m, tuple(p["band"]), p["tol"],
                                            nx=int(p["nx"]), ny=int(p["ny"]))
    meta["residual"] = f"{h.residual:.3e}"
    # _csv's rows, one % per x-row: its "x,y_j,%.12g" lines joined from labels formatted once
    ys = ["%.12g,%%.12g\n" % y for y in np.linspace(0.0, 1.0, h.ny + 1).tolist()]
    rows = (("%.12g," % x).join(["", *ys]) % tuple(row)
            for x, row in zip(h.x_samples.tolist(), h.values.tolist()))
    return _csv(["x", "y", "H"], (), meta) + "".join(rows), 0


def _repellers(cfg: RunConfig, meta: dict):
    m = configs.annulus_map_from_config(cfg.maps["map"])
    c = configs.connector_from_config(cfg.maps["connector"], m)
    reps = connectors.repelling_connectors(m, c, depth=int(cfg.params["depth"]))
    rows = [(k, x, y) for k, r in enumerate(reps)
            for x, y in zip(r.xs.tolist(), r.heights.tolist())]
    meta["count"] = len(reps)
    return _csv(["curve_id", "x", "y"], rows, meta), 0


def _star_scan(cfg: RunConfig, meta: dict):
    p = cfg.params
    m = configs.annulus_map_from_config(cfg.maps["map"])
    band = tuple(p["band"])
    h_field = None
    if cfg.maps["connector"] is not None:
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
    return _json_text(out, meta), 0 if report.satisfied in (True, None) else 1


def _counterexample_table(cfg: RunConfig, meta: dict):
    nmax = schema.span(cfg.params["nmax"], "nmax")      # the table starts at n = 2
    return _json_text({"rows": obstruction.counterexample_growth_table(nmax)}, meta), 0


def _perturb(cfg: RunConfig, meta: dict):
    spec = stability.perturb_p2(configs.epsilon_from_config(cfg.maps["epsilon"]))
    report = stability.verify_perturbation(spec, grid=int(cfg.params["grid"]))
    verified = (report["ratio_ok"] and report["injectivity"]["injective_on_sector"]
                and report["foliation_preserved"] and report["invariance_fraction"] == 1.0)
    return _json_text(report, meta), 0 if verified else 1


class Command(NamedTuple):
    help: str
    schema: dict                                        # key -> default or schema.REQUIRED
    handler: Callable[[RunConfig, dict], tuple[str, int]]


class Key(NamedTuple):                                  # one run-config key
    check: Callable                                     # schema check; validates only
    read: Callable                                      # flag text -> its JSON config value
    hint: str = "default: {}"                           # --help text; {} is the default


def float_list(text: str) -> list:
    return [float(v) for v in text.split(",")]


KEYS = {
    **dict.fromkeys(("map", "a", "b", "connector", "epsilon"),
                    Key(schema.config, configs.load_config, "JSON config or path")),
    **dict.fromkeys(("points", "ny", "depth", "nmax", "grid", "max_period"), Key(schema.size, int)),
    "nx": Key(schema.span, int),                        # a band grid spans two x nodes
    "band": Key(schema.band, float_list, "a,b with 0 < a < b < 1; default: {}"),
    "orientation": Key(schema.sign, lambda t: {"+": 1, "-": -1}.get(t, t),  # else the check fails
                       "+ (1) or - (-1); default: {}"),
    "tol": Key(schema.positive, float),
    "x": Key(schema.number, float),
}

_REQ = schema.REQUIRED
COMMANDS = {
    "semiconj1d": Command("solve the circle semiconjugacy lift",
                          {"map": _REQ, "orientation": 1, "tol": 1e-8}, _semiconj1d),
    "rotation": Command("rotation numbers of a circle map",
                        {"map": _REQ, "points": 256, "x": None, "tol": 1e-10}, _rotation),
    "classify": Command("classification data of a circle covering",
                        {"map": _REQ, "tol": 1e-8, "max_period": 16}, _classify),
    "compare": Command("compare two circle coverings",
                       {"a": _REQ, "b": _REQ, "tol": 1e-3}, _compare),
    "semiconj2d": Command("band semiconjugacy of an annulus covering",
                          {"map": _REQ, "band": [0.2, 0.8], "tol": 1e-8, "nx": 129, "ny": 256},
                          _semiconj2d),
    "repellers": Command("repelling connectors from a free connector",
                         {"map": _REQ, "connector": _REQ, "depth": 10}, _repellers),
    "star-scan": Command("winding bound scan over iterated loop lifts",
                         {"map": _REQ, "band": [0.1, 0.9], "nmax": 6, "connector": None,
                          "depth": 8}, _star_scan),
    "counterexample-table": Command("winding lower-bound growth table", {"nmax": 8},
                                    _counterexample_table),
    "perturb": Command("verified pointwise-small perturbation of squaring",
                       {"epsilon": _REQ, "grid": 100000}, _perturb),
}


class _Parser(argparse.ArgumentParser):
    """Malformed argv is a config error (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _parser() -> _Parser:
    """The argparse tree of every command, built on first use."""
    ap = _Parser(prog="semicov", description="semiconjugacies of circle/annulus coverings")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for key, default in command.schema.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, required=default is _REQ,
                            type=KEYS[key].read, help=KEYS[key].hint.format(default))
        sp.add_argument("--out", help="artifact path (default: stdout)")
    return ap


def main(argv=None) -> int:
    try:
        ns = vars(_parser().parse_args(argv))
        return run(parse_config({k: v for k, v in ns.items() if v is not None}))
    except (SemicovError, OSError) as e:              # OSError: the --out path
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
