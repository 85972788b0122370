"""Degree-d covering maps of the open annulus (0,1) x S^1 via fibered lifts.

A map is stored as a skew product: a monotone base map of (0,1) together
with a per-fiber circle-map lift g_x(y) satisfying g_x(y+1) = g_x(y) + d.
The fiber stores only its fundamental domain behavior, so the equivariance
F(x, y+1) = F(x, y) + (0, d) is exact on every evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circle import LiftedCircleMap
from .errors import (BaseEscapes, BaseNotInvertible, DegreeTooSmall, FiberNotMonotone,
                     NonIntegerDegree, OrbitEscapes, OutOfDomain)
from .numerics import bisect_brackets, frac
from .schema import REQUIRED, Family, fraction, number, numbers, positive

DEGREE_TOL = 1e-9


# ---------------------------------------------------------------------------
# base maps of (0,1)
# ---------------------------------------------------------------------------

def _table_inverse(y, table):
    if np.any(np.diff(table) <= 0):
        raise BaseNotInvertible("sampled base is not strictly increasing")
    return np.interp(y, table, np.linspace(0.0, 1.0, len(table)))


# family -> (schema, x -> base(x), y -> base^-1(y)); both take BaseMap.args
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
    numbers in schema order, the samples family its values on a uniform
    grid of [0,1] in table."""

    kind: str
    params: tuple = ()
    table: np.ndarray | None = None

    @property
    def args(self) -> tuple:
        return self.params if self.table is None else (self.table,)

    def __call__(self, x):
        out = BASES[self.kind].call(np.asarray(x, dtype=float), *self.args)
        return out if out.ndim else float(out)

    def inverse(self, y):
        """Inverse where defined; raises BaseNotInvertible outside the image."""
        y = np.asarray(y, dtype=float)
        out = BASES[self.kind].inverse(y, *self.args)
        if np.any(out <= 0.0) or np.any(out >= 1.0):
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
    (used by the stability construction) supply fn(x, y) and a degree.
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

    def inverse(self, x, targets, xtol=1e-13):
        """Solve g_x(w) = target per component (monotone in the fiber)."""
        x = np.asarray(x, dtype=float)
        targets = np.asarray(targets, dtype=float)
        x, targets = np.broadcast_arrays(x, targets)
        if self.fn is None and self.circle is None:
            return (targets - self.tau(x)) / self.degree
        base = self.__call__(x, np.zeros_like(targets))
        ys = np.linspace(0.0, 1.0, 17)
        dev = 0.0
        for y0 in ys:     # deviation of the fiber from its linear part
            dev = max(dev, float(np.max(np.abs(
                self.__call__(x, np.full_like(targets, y0)) - base - self.degree * y0))))
        span = (targets - base) / self.degree
        pad = 1.0 + dev / abs(self.degree)
        lo, hi = span - pad, span + pad
        sgn = 1.0 if self.degree > 0 else -1.0
        return bisect_brackets(lambda w: sgn * (self.__call__(x, w) - targets), lo, hi, xtol)

    def slope_range(self, xs, n_y: int = 64, dy: float = 1e-5) -> tuple[float, float]:
        """Min/max sampled fiber slope d g_x / dy over xs and a y grid."""
        xs = np.asarray(xs, dtype=float)
        ys = np.linspace(0.0, 1.0, n_y, endpoint=False)
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
    degree: int
    metadata: dict = field(default_factory=dict)

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


def make_skew_product(base: BaseMap, fiber: FiberMap, n_check: int = 64,
                      metadata: dict | None = None) -> AnnulusMapLift:
    """Validate a skew product and read its degree from fiber equivariance."""
    xs = np.linspace(0.01, 0.99, n_check)
    bx = np.asarray(base(xs))
    if np.any(bx <= 0.0) or np.any(bx >= 1.0):
        raise BaseEscapes("base map must send (0,1) into (0,1)")
    ys = np.linspace(0.0, 1.0, n_check, endpoint=False)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    jump = np.asarray(fiber(xg, yg + 1.0)) - np.asarray(fiber(xg, yg))
    d = round(float(jump.flat[0]))
    if np.max(np.abs(jump - d)) > DEGREE_TOL:
        raise NonIntegerDegree(f"fiber equivariance jump {jump.flat[0]!r} is not an integer")
    if abs(d) <= 1:
        raise DegreeTooSmall(f"|degree| must exceed 1, got {d}")
    if d != fiber.degree:
        raise NonIntegerDegree(f"fiber declares degree {fiber.degree}, measured {d}")
    lo, _ = fiber.slope_range(xs)
    if lo <= 0.0:
        raise FiberNotMonotone(f"fiber slope reaches {lo} <= 0")
    return AnnulusMapLift(base, fiber, d, metadata=dict(metadata or {}))


def displacement_bound(m: AnnulusMapLift, band: tuple[float, float],
                       grid: tuple[int, int] = (256, 128)) -> dict:
    """Sampled sup |y1 - d*y0| over band x [0,1), with a divergence diagnostic.

    The divergence flag is a heuristic: the same supremum is re-measured
    over six margins shrinking toward the boundary; monotone unbounded
    growth sets the flag.  It is reported as a diagnostic, never a theorem.
    """
    a, b = band
    if not 0.0 < a < b < 1.0:
        raise OutOfDomain(f"band {band} not inside (0,1)")

    def sup_on(lo, hi):
        xs = np.linspace(lo, hi, grid[0])
        ys = np.linspace(0.0, 1.0, grid[1], endpoint=False)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        disp = np.asarray(m.fiber(xg, yg)) - m.degree * yg
        return float(np.max(np.abs(disp)))

    value = sup_on(a, b)
    margins = [10.0 ** (-k) for k in range(2, 8)]
    sups = [sup_on(mg, 1.0 - mg) for mg in margins]
    increasing = all(s2 >= s1 for s1, s2 in zip(sups, sups[1:]))
    diverges = increasing and sups[-1] > 10.0 * max(sups[0], 1e-12) and sups[-1] > 1.0
    return {"sup": value, "diverges": diverges, "margin_sups": sups, "band": band}


def fiber_preimages(m: AnnulusMapLift, target: tuple[float, float],
                    tol: float = 1e-10) -> list[tuple[float, float]]:
    """The |d| preimages of an annulus point under a skew product.

    Solves base(x) = x' (monotone inverse), then the |d| fiber solutions
    g_x(y) = theta' + k in [0,1).
    """
    x_t, theta = target
    x = float(np.asarray(m.base.inverse(x_t)))
    ys = m.fiber.inverse(np.full(abs(m.degree), x), theta + m.fiber.branches(x, theta),
                         xtol=min(tol, 1e-12))
    ys = np.sort(frac(ys))
    return [(x, float(y)) for y in ys]


def estimate_annulus_rotation(m: AnnulusMapLift, start: tuple[float, float],
                              n_max: int = 60, gap_tol: float = 1e-6) -> dict:
    """Partial rotation estimates y_n / d^n with a Cauchy diagnostic.

    Reports the estimate sequence, the largest gap over the final quarter
    of the run, and a convergence flag; makes no claim when not Cauchy.
    """
    x, y = float(start[0]), float(start[1])
    estimates = [y]
    d = float(m.degree)
    for n in range(1, n_max + 1):
        if not (0.0 < x < 1.0):
            raise OrbitEscapes(f"orbit left (0,1) at step {n - 1}")
        x, y = m(x, y)
        if not np.isfinite(y) or not np.isfinite(x):
            raise OrbitEscapes(f"orbit blew up numerically at step {n}")
        estimates.append(y / d ** n)
    est = np.asarray(estimates)
    tail = est[3 * len(est) // 4:]
    gap = float(np.max(np.abs(np.diff(tail)))) if len(tail) > 1 else float("inf")
    return {"estimates": estimates, "value": float(est[-1]),
            "cauchy_gap": gap, "converged": gap <= gap_tol}
