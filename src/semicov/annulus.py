"""Degree-d covering maps of the open annulus (0,1) x S^1 via fibered lifts.

A map is stored as a skew product: a monotone base map of (0,1) together
with a per-fiber circle-map lift g_x(y) satisfying g_x(y+1) = g_x(y) + d.
The fiber stores only its fundamental domain behavior, so the equivariance
F(x, y+1) = F(x, y) + (0, d) is exact on every evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import DEGREE_TOL, LiftedCircleMap
from .errors import (BaseEscapes, BaseNotInvertible, DegreeTooSmall, FiberNotMonotone,
                     NonIntegerDegree, OutOfDomain)
from .schema import REQUIRED, Family, fraction, number, numbers, positive


# ---------------------------------------------------------------------------
# base maps of (0,1)
# ---------------------------------------------------------------------------

def _table_inverse(y, table):
    if np.any(np.diff(table) <= 0):
        raise BaseNotInvertible("sampled base is not strictly increasing")
    return np.interp(y, table, np.linspace(0.0, 1.0, len(table)))


# family -> (schema, x -> base(x), y -> base^-1(y)); both take BaseMap.params
BASES = {
    "identity": Family({}, lambda x: x, lambda y: y),
    "power": Family({"exponent": (REQUIRED, positive)},
                    lambda x, p: x ** p, lambda y, p: y ** (1.0 / p)),
    "affine_to_one": Family({}, lambda x: 0.5 * (x + 1.0), lambda y: 2.0 * y - 1.0),
    "contraction": Family({"center": (0.5, number), "rate": (0.9, fraction)},
                          lambda x, c, r: c + r * (x - c), lambda y, c, r: c + (y - c) / r),
    "samples": Family({"values": (REQUIRED, numbers)},
                      lambda x, table: np.interp(x, np.linspace(0.0, 1.0, len(table)), table),
                      _table_inverse),
}


@dataclass(frozen=True)
class BaseMap:
    """Monotone self-map of (0,1), one family of ``BASES``: params holds its
    parameters in schema order (the samples family's one parameter is its
    values on a uniform grid of [0,1])."""

    kind: str
    params: tuple = ()

    def __call__(self, x):
        out = BASES[self.kind].call(np.asarray(x, dtype=float), *self.params)
        return out if out.ndim else float(out)

    def inverse(self, y):
        """Inverse where defined; raises BaseNotInvertible outside the image."""
        y = np.asarray(y, dtype=float)
        out = BASES[self.kind].inverse(y, *self.params)
        if not np.all((out > 0.0) & (out < 1.0)):
            raise BaseNotInvertible(f"preimage leaves (0,1) for targets in "
                                    f"[{np.min(y)}, {np.max(y)}]")
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# fiber maps
# ---------------------------------------------------------------------------

_SCALE = {"scale": (1.0, number)}
TAUS = {                                 # family -> (schema, (x, scale) -> tau(x))
    "zero": Family(_SCALE, lambda x, s: np.zeros_like(x)),
    "const": Family(_SCALE, lambda x, s: np.full_like(x, s)),
    "linear": Family(_SCALE, lambda x, s: s * x),
    "inv_one_minus": Family(_SCALE, lambda x, s: s / (1.0 - x)),
}


@dataclass(frozen=True)
class TauSpec:
    """Fiber translation term tau(x), one family of ``TAUS``: zero |
    const c | linear c*x | inv_one_minus c/(1-x), with c = scale."""

    kind: str = "zero"
    scale: float = 0.0

    def __call__(self, x):
        out = TAUS[self.kind].call(np.asarray(x, dtype=float), self.scale)
        return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class FiberMap:
    """Per-fiber circle-map lift g_x(y) = G(y) + tau(x), or a raw callable.

    G is either the linear lift d*y or any LiftedCircleMap; raw callables
    (the stability construction, forward only) supply fn(x, y) and a degree.
    """

    degree: int
    circle: LiftedCircleMap | None = None
    tau: TauSpec = field(default_factory=TauSpec)
    fn: object = None                      # callable (x, y) -> lift value

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.fn is not None:
            out = self.fn(x, y)
        elif self.circle is not None:
            out = self.circle(y) + self.tau(x)
        else:
            out = self.degree * y + self.tau(x)
        out = np.asarray(out, dtype=float)
        return out if out.ndim else float(out)

    def branches(self, x, targets):
        """The |d| ascending integer offsets k for which g_x(w) = target + k
        has its solution w in [0,1), one row per target (shape targets + (|d|,)).

        g_x maps [0,1) onto [a, a+d) for d > 0 and onto (a+d, a] for d < 0,
        with a = g_x(0), so the first offset is ceil(a - t), respectively
        floor(a - t) - |d| + 1; x is a single base point.
        """
        t = np.asarray(self.__call__(x, 0.0)) - np.asarray(targets, dtype=float)
        ad = abs(self.degree)
        start = np.ceil(t) if self.degree > 0 else np.floor(t) - ad + 1
        return start[..., None] + np.arange(ad)

    def inverse(self, x, targets):
        """Solve g_x(w) = target per component: w = G^-1(target - tau(x)), with tau
        subtracted in place: a float array of targets (of the broadcast shape) is overwritten."""
        if self.fn is not None:
            raise NotImplementedError("raw-callable fibers have no inverse")
        t = np.asarray(targets, dtype=float)
        t -= self.tau(x)
        if self.circle is not None:
            return self.circle.inverse(t)
        t /= self.degree
        return t

    def slope_range(self, xs) -> tuple[float, float]:
        """Min/max fiber slope d g_x / dy over xs and 64 angles, by steps of 1e-5."""
        xs = np.asarray(xs, dtype=float)
        ys = np.linspace(0.0, 1.0, 64, endpoint=False)
        dy = 1e-5
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        s = (self.__call__(xg, yg + dy) - self.__call__(xg, yg)) / dy
        if self.degree < 0:
            s = -s
        return float(s.min()), float(s.max())


# ---------------------------------------------------------------------------
# annulus lifts
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AnnulusMapLift:
    """Skew-product lift F(x, y) = (base(x), fiber(x, y)) on (0,1) x R."""

    base: BaseMap
    fiber: FiberMap

    @property
    def degree(self) -> int:
        return self.fiber.degree

    def __call__(self, x, y):
        """Lift value with exact fiber equivariance; x must stay in the domain."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not ((x > 0.0) & (x < 1.0)).all():
            raise OutOfDomain("x outside domain (0.0, 1.0)")
        if not np.isfinite(y).all():
            raise OutOfDomain("fiber coordinate must be finite")
        k = np.floor(y)
        out_y = np.asarray(self.fiber(x, y - k)) + k * self.degree
        out_x = np.asarray(self.base(x))
        if out_x.ndim:
            return out_x, out_y
        return float(out_x), float(out_y)


def make_skew_product(base: BaseMap, fiber: FiberMap) -> AnnulusMapLift:
    """Validate a skew product on a 64 x 64 grid and read its degree from fiber equivariance."""
    if base.kind == "samples":            # every entry: the grid can miss one
        table = np.asarray(base.params[0], dtype=float)
        if not np.all((table >= 0.0) & (table <= 1.0)):          # NaN fails this
            raise BaseEscapes("base table values must be finite and in [0, 1]")
    xs = np.linspace(0.01, 0.99, 64)
    bx = np.asarray(base(xs))
    if not np.all((bx > 0.0) & (bx < 1.0)):        # NaN fails this and the checks below
        raise BaseEscapes("base map must send (0,1) into (0,1)")
    ys = np.linspace(0.0, 1.0, 64, endpoint=False)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    jump = np.asarray(fiber(xg, yg + 1.0)) - np.asarray(fiber(xg, yg))
    d = round(float(jump.flat[0])) if np.isfinite(jump.flat[0]) else 0
    if not np.max(np.abs(jump - d)) <= DEGREE_TOL:
        raise NonIntegerDegree(f"fiber jumps {np.min(jump)}..{np.max(jump)} are not one integer")
    if abs(d) <= 1:
        raise DegreeTooSmall(f"|degree| must exceed 1, got {d}")
    if d != fiber.degree:
        raise NonIntegerDegree(f"fiber declares degree {fiber.degree}, measured {d}")
    if fiber.circle is not None and not fiber.circle.is_covering:
        raise FiberNotMonotone("circle-map fiber samples are not strictly monotone")
    lo, _ = fiber.slope_range(xs)
    if not lo > 0.0:
        raise FiberNotMonotone(f"fiber slope reaches {lo} <= 0")
    return AnnulusMapLift(base, fiber)
