"""Semiconjugacy lifts for annulus coverings on invariant product bands.

On a forward-invariant band [a,b] x S^1 the operator T(H) = H(F(.))/d
contracts by 1/|d| in the sup metric; its fixed point H satisfies H(x, y+1)
= H(x, y) + 1 and |H(x,y) - y| <= M, and -H is the orientation-reversing one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annulus import AnnulusMapLift
from .errors import BandNotInvariant, OutOfDomain, ValidationError
from .numerics import (band_gather, band_plan, band_rows, circle_dist, compact, contract,
                       max_circular_gap, periodic_plan)
from .schema import MAX_SIZE, band as check_band

FIBER_TOL = 0.01      # turns: the largest fiber gap, and the largest miss of a level


@dataclass(eq=False)
class BandField2D:
    """Sampled semiconjugacy lift H on band x [0,1], bilinear in between.

    values[i, j] = H(x_i, y_j) on uniform nodes of band x [0, 1], with the
    H(x, y_Ny) = H(x, y_0) + 1 column kept exact.
    """

    band: tuple[float, float]
    values: np.ndarray                # shape (Nx, Ny+1)
    residual: float = float("nan")
    iterations: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def ny(self) -> int:
        return self.values.shape[1] - 1

    @property
    def x_samples(self) -> np.ndarray:
        return np.linspace(*self.band, len(self.values))

    @property
    def deviation_bound(self) -> float:
        """sup |H(x, y) - y|: the node maximum, exact for a bilinear field."""
        return float(np.max(np.abs(self.values - np.linspace(0.0, 1.0, self.ny + 1))))

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        a, b = self.band
        if not np.all((x >= a - 1e-12) & (x <= b + 1e-12)):
            raise OutOfDomain(f"x outside band [{a}, {b}]")
        i, wx = band_rows(x, self.band, len(self.values) - 1)
        j, wy, shift = periodic_plan(y, self.ny, 1)
        s, v = self.ny + 1, self.values.ravel()
        k, ox = i * s + j, 1.0 - wx     # band_gather's x-then-y order: its bits at node images
        h = ((v.take(k) * ox + v[s:].take(k) * wx) * (1.0 - wy)
             + (v[1:].take(k) * ox + v[s + 1:].take(k) * wx) * wy + shift)
        return h if h.ndim else float(h)


def _band_grid(m: AnnulusMapLift, band: tuple[float, float], nx: int, ny: int):
    """Nodes xs and ys, the base image fx of each row, and rows -> the compact gather
    plan of H at the images of those rows."""
    check_band(band, "band")
    if nx < 2 or ny < 1 or nx * (ny + 1) > MAX_SIZE:
        raise ValidationError(f"the band grid needs nx >= 2, ny >= 1 and at most {MAX_SIZE} "
                              f"nodes, got {nx} x {ny}")
    xs = np.linspace(band[0], band[1], nx)
    ys = np.linspace(0.0, 1.0, ny + 1)
    fx = m.base(xs)                       # a skew product's x image depends on the row only

    def image(rows):
        return compact(band_plan(fx[rows], m(xs[rows, None], ys)[1], band, nx - 1, ny))
    return xs, ys, fx, image


def solve_band_semiconjugacy(m: AnnulusMapLift, band: tuple[float, float],
                             tol: float = 1e-8, nx: int = 129, ny: int = 256) -> BandField2D:
    """Fixed point of T(H) = H(F(.))/d on an invariant product band.

    The band must satisfy base([a,b]) inside [a,b] on the sample grid
    (this is the compact invariant set in product form).  Stops when the
    iteration step is below tol*(1 - 1/|d|).
    """
    _, ys, fx, image = _band_grid(m, band, nx, ny)
    a, b = band
    if fx.min() < a - 1e-12 or fx.max() > b + 1e-12:
        raise BandNotInvariant(f"base image [{fx.min()}, {fx.max()}] leaves [{a}, {b}]")
    start = np.broadcast_to(ys, (nx, ny + 1))
    cur, it, defect = contract(image, band_gather, start, m.degree, tol)
    return BandField2D((a, b), cur, float(defect.max()), it)


def check_fiber_surjectivity(h: BandField2D, x_level: float) -> bool:
    """True iff h(x_level, .) mod 1 at 2048 angles leaves no circular gap > FIBER_TOL."""
    ys = np.linspace(0.0, 1.0, 2048, endpoint=False)
    return max_circular_gap(h(np.full_like(ys, x_level), ys)) <= FIBER_TOL


def check_fiber_connector(h: BandField2D, z: float) -> bool:
    """True iff the h-fiber over angle z comes within FIBER_TOL of every x-level of the band."""
    xg, yg = np.meshgrid(h.x_samples, np.linspace(0.0, 1.0, h.ny, endpoint=False), indexing="ij")
    return not np.any(np.min(circle_dist(h(xg, yg), z), axis=1) > FIBER_TOL)
