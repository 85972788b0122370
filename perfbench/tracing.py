"""Per-layer tracing of semicov from outside the package.

The tracer replaces each layer's public functions with wrappers, under
every name the function is reachable by in the loaded semicov modules
(``classify`` imports ``solve_semiconjugacy`` by name, ``semicov``
re-exports it), and methods on their class.  A wrapper records a span
(id, parent, name, start, end) in memory, counts exceptions by type and
re-raises them, and lets the layer read counts off the call's arguments
and result.  The two hottest scalar layers (``ConnectorCurve.height_at``
and ``LiftedCircleMap.__call__``) are counted without spans, so that the
tracer does not dominate the time it measures.

A layer's self time is its spans' time minus the part covered by their
child spans.  A target that no longer exists raises at install time, so a
renamed function fails the traced run instead of reporting zero calls.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

F8 = 8                          # bytes per float64 / int64 element


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric prefix, wrapped targets and counters."""

    name: str
    targets: tuple[str, ...]                 # "module:function" or "module:Class.method"
    spans: bool = True                       # False: count calls only
    observe: Callable | None = None          # (stats, args, kwargs, result) -> None
                                             # adds to stats under full metric names


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _lift_points(stats, args, kwargs, result):
    stats["circle.lift_eval.points"] += _size(args[1])           # args[0] is the map


def _fiber_points(stats, args, kwargs, result):
    stats["annulus.fiber_inverse.points"] += _size(args[2] if len(args) > 2
                                                   else kwargs["targets"])


def _solve1d(stats, args, kwargs, result):
    """1D gather, per node and iteration: int64 index, weight and shift read,
    two gathered values read, the new value written (48 B); 6 ops to
    interpolate and divide, 3 for the change norm."""
    p = "semiconj1d.solve_semiconjugacy."
    n = result.grid + 1
    stats[p + "iterations"] += result.iterations
    stats[p + "ops_computed"] += 9 * n * result.iterations
    stats[p + "bytes_computed"] += 6 * F8 * n * result.iterations
    stats[p + "largest_array_bytes"] = max(stats[p + "largest_array_bytes"], F8 * n)
    stats["semiconj1d.residual_reported"] = max(stats["semiconj1d.residual_reported"],
                                                result.residual)


def _solve2d(stats, args, kwargs, result):
    """Bilinear gather, per node and iteration: two int64 indices and three
    weights read, four gathered values read, the new value written (80 B);
    18 ops for the weighted sum, shift and divide, 3 for the change norm."""
    p = "semiconj2d.solve_band_semiconjugacy."
    n = result.values.size
    stats[p + "iterations"] += result.iterations
    stats[p + "ops_computed"] += 21 * n * result.iterations
    stats[p + "bytes_computed"] += 10 * F8 * n * result.iterations
    stats[p + "largest_array_bytes"] = max(stats[p + "largest_array_bytes"], F8 * n)


def _coding(stats, args, kwargs, result):
    """Coding gather, per column, height sample and coding curve: the
    floor-shifted heights and values and their argmax/argmin (9 ops) over
    six materialised float64 arrays (48 B).  Counted as if every curve
    covered every column, so it is an upper bound."""
    p = "connectors.coding."
    curves = result.metadata["curves"]
    n = result.values.size * curves
    stats["connectors.curves"] += curves
    stats[p + "ops_computed"] += 9 * n
    stats[p + "bytes_computed"] += 6 * F8 * n
    stats[p + "largest_array_bytes"] = max(stats[p + "largest_array_bytes"],
                                           F8 * result.values.shape[1] * curves)


def _blow_up(stats, args, kwargs, result):
    stats["classify.blow_up.samples"] += result.grid + 1


def _records(stats, args, kwargs, result):
    stats["classify.records"] += len(result.records)


def _scan(stats, args, kwargs, result):
    stats["obstruction.records"] += len(result.records)
    stats["obstruction.ambiguous_records"] += sum(r.ambiguous_endpoint for r in result.records)


def _perturbation(stats, args, kwargs, result):
    stats["stability.verify_perturbation.points"] += result["grid"] + result["r_samples"]


LAYERS = (
    Layer("connectors.preimage_connectors", ("semicov.connectors:preimage_connectors",)),
    Layer("connectors.height_at", ("semicov.connectors:ConnectorCurve.height_at",), spans=False),
    Layer("connectors.coding", ("semicov.connectors:semiconjugacy_from_connectors",),
          observe=_coding),
    Layer("connectors.repelling_connectors", ("semicov.connectors:repelling_connectors",)),
    Layer("annulus.fiber_inverse", ("semicov.annulus:FiberMap.inverse",), observe=_fiber_points),
    Layer("obstruction.star_condition_scan", ("semicov.obstruction:star_condition_scan",),
          observe=_scan),
    Layer("obstruction.lift_loop_winding", ("semicov.obstruction:lift_loop_winding",),
          spans=False),
    Layer("circle.find_periodic_points", ("semicov.circle:find_periodic_points",)),
    Layer("numerics.bisect_brackets", ("semicov.numerics:bisect_brackets",)),
    Layer("circle.lift_eval", ("semicov.circle:LiftedCircleMap.__call__",), spans=False,
          observe=_lift_points),
    Layer("classify.blow_up", ("semicov.classify:blow_up",), observe=_blow_up),
    Layer("classify.classification_data", ("semicov.classify:classification_data",),
          observe=_records),
    Layer("classify.interval_signature", ("semicov.classify:interval_signature",), spans=False),
    Layer("classify.compare_classification", ("semicov.classify:compare_classification",)),
    # one CLI command: parse, dispatch (cli.run runs inside it) and artifact formatting
    Layer("cli.run", ("semicov.cli:main",)),
    Layer("configs.map_build", ("semicov.configs:circle_map_from_config",
                                "semicov.configs:annulus_map_from_config",
                                "semicov.configs:connector_from_config",
                                "semicov.configs:epsilon_from_config")),
    Layer("semiconj1d.solve_semiconjugacy", ("semicov.semiconj1d:solve_semiconjugacy",),
          observe=_solve1d),
    Layer("semiconj2d.solve_band_semiconjugacy", ("semicov.semiconj2d:solve_band_semiconjugacy",),
          observe=_solve2d),
    Layer("stability.verify_perturbation", ("semicov.stability:verify_perturbation",),
          observe=_perturbation),
)


def _snake(name: str) -> str:
    """Exception counter name: OutOfDomain -> out_of_domain."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


@dataclass
class Span:
    id: int
    parent: int                 # -1 for a root span
    name: str
    start: float
    end: float


@dataclass
class Tracer:
    """Span and counter store; install() wraps the layers, remove() restores them."""

    layers: tuple[Layer, ...] = LAYERS
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    stats: Counter = field(default_factory=Counter)
    exceptions: dict = field(default_factory=lambda: defaultdict(Counter))
    _stack: list[int] = field(default_factory=list)
    _next_id: int = 0
    _patches: list = field(default_factory=list)

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.stats.clear()
        self.exceptions.clear()
        self._stack.clear()

    # -- spans ------------------------------------------------------------

    def open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def close(self, sid: int, name: str, start: float, end: float):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(sid, parent, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one job."""
        sid = self.open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.close(sid, name, start, time.perf_counter())

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, layer: Layer, fn):
        tracer = self

        if not layer.spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[layer.name] += 1
                try:
                    result = fn(*args, **kwargs)
                except BaseException as e:
                    tracer.exceptions[layer.name][_snake(type(e).__name__)] += 1
                    raise
                if layer.observe:
                    layer.observe(tracer.stats, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tracer.calls[layer.name] += 1
            sid = tracer.open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer.exceptions[layer.name][_snake(type(e).__name__)] += 1
                raise
            finally:
                tracer.close(sid, layer.name, start, time.perf_counter())
            if layer.observe:
                layer.observe(tracer.stats, args, kwargs, result)
            return result
        return spanned

    def install(self):
        """Wrap every layer target under all names it is bound to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "semicov" or name.startswith("semicov."))]
        try:
            for layer in self.layers:
                for target in layer.targets:
                    self._install_target(layer, target, modules)
        except BaseException:
            self.remove()
            raise

    def _install_target(self, layer: Layer, target: str, modules):
        mod_name, _, qual = target.partition(":")
        module = importlib.import_module(mod_name)
        owner_name, _, attr = qual.rpartition(".")
        if owner_name:                       # a method: patch it on its class
            owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                raise LookupError(f"layer {layer.name}: {target} not found")
            self._patch(owner, attr, self._wrapper(layer, vars(owner)[attr]))
            return
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LookupError(f"layer {layer.name}: {target} not found")
        wrapped = self._wrapper(layer, fn)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is fn:
                    self._patch(m, name, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """This pass's per-layer numbers, keyed '<module>.<function>.<stat>'."""
        own = self_times_by_name(self.spans)
        out: dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer.name}.calls"] = self.calls[layer.name]
            if layer.spans:
                out[f"{layer.name}.self_s"] = own.get(layer.name, 0.0)
            for exc, count in self.exceptions[layer.name].items():
                out[f"{layer.name}.{exc}"] = count
        out.update(self.stats)
        return out


def self_times_by_name(spans: list[Span]) -> dict[str, float]:
    """Sum over spans of (duration - time covered by direct children), by name.

    Children are clipped to their parent's interval and their union is
    taken, so overlapping or overhanging children are not counted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)
