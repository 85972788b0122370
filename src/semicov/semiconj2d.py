"""Semiconjugacy lifts for annulus coverings on invariant product bands.

On a forward-invariant band [a,b] x S^1 the operator T(H) = H(F(.))/d
contracts by 1/|d| in the sup metric and its fixed point H satisfies
H(x, y+1) = H(x, y) + 1 and a uniform deviation bound |H(x,y) - y| <= M.
A bounded-displacement variant solves on a widening truncation with a
mean-deviation boundary closure when no invariant band exists.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annulus import AnnulusMapLift, displacement_bound
from .errors import (BandNotInvariant, DisplacementDiverges, MaxIterExceeded,
                     OutOfDomain, ValidationError)
from .numerics import band_gather, band_plan, circle_dist, contract, max_circular_gap
from .schema import MAX_SIZE


@dataclass(eq=False)
class BandField2D:
    """Sampled semiconjugacy lift H on band x [0,1], bilinear in between.

    values[i, j] = H(x_i, y_j) on uniform nodes of band x [0, 1], with the
    y_Ny = y_0 + 1 column kept exact.
    """

    band: tuple[float, float]
    values: np.ndarray                # shape (Nx, Ny+1)
    orientation: int = 1
    degree: int = 2
    residual: float = float("nan")
    tol: float = float("nan")
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
        """sup |H(x, y) - orientation*y|: the node maximum, exact for a bilinear field."""
        ys = np.linspace(0.0, 1.0, self.ny + 1)
        return float(np.max(np.abs(self.values - self.orientation * ys)))

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        a, b = self.band
        if not np.all((x >= a - 1e-12) & (x <= b + 1e-12)):
            raise OutOfDomain(f"x outside band [{a}, {b}]")
        plan = band_plan(x, y, self.band, len(self.values) - 1, self.ny, self.orientation)
        v = band_gather(self.values, plan)
        return v if v.ndim else float(v)


def _band_grid(m: AnnulusMapLift, band: tuple[float, float], nx: int, ny: int,
               orientation: int):
    """Nodes xs and ys, the base image fx of each row, and rows -> (fy, plan): the
    fiber image of those rows and the gather plan of H at their images."""
    if nx < 2 or ny < 1 or nx * (ny + 1) > MAX_SIZE:
        raise ValidationError(f"the band grid needs nx >= 2, ny >= 1 and at most {MAX_SIZE} "
                              f"nodes, got {nx} x {ny}")
    xs = np.linspace(band[0], band[1], nx)
    ys = np.linspace(0.0, 1.0, ny + 1)
    fx = m.base(xs)                       # a skew product's x image depends on the row only

    def image(rows):
        fy = m(xs[rows, None], ys)[1]
        return fy, band_plan(fx[rows, None], fy, band, nx - 1, ny, orientation)
    return xs, ys, fx, image


def _gather(values):
    """p -> H(F(.)) on the rows of band plan p; a broadcast start is copied once, not per block."""
    flat = values.ravel()
    return lambda p: band_gather(flat, p)


def solve_band_semiconjugacy(m: AnnulusMapLift, band: tuple[float, float],
                             tol: float = 1e-8, max_iter: int | None = None,
                             nx: int = 129, ny: int = 256,
                             orientation: int = 1) -> BandField2D:
    """Fixed point of T(H) = H(F(.))/d on an invariant product band.

    The band must satisfy base([a,b]) inside [a,b] on the sample grid
    (this is the compact invariant set in product form).  Stops when the
    iteration step is below tol*(1 - 1/|d|).
    """
    a, b = band
    xs, ys, fx, image = _band_grid(m, (a, b), nx, ny, orientation)
    if fx.min() < a - 1e-12 or fx.max() > b + 1e-12:
        raise BandNotInvariant(f"base image [{fx.min()}, {fx.max()}] leaves [{a}, {b}]")
    start = np.broadcast_to(orientation * ys, (nx, ny + 1))
    cur, it, converged, defect = contract(lambda rows: image(rows)[1], _gather, start,
                                          m.degree, orientation, tol, max_iter)
    if not converged:
        raise MaxIterExceeded(f"no convergence to {tol} within {it} iterations")
    return BandField2D((a, b), cur, orientation, m.degree, residual=float(defect.max()),
                       tol=tol, iterations=it)


def solve_bounded_semiconjugacy(m: AnnulusMapLift, truncation: tuple[float, float],
                                tol: float = 1e-8, max_iter: int = 400,
                                nx: int = 129, ny: int = 256,
                                max_widenings: int = 6) -> BandField2D:
    """Semiconjugacy lift under bounded fiber displacement, no invariance.

    Where the map leaves the truncated domain, H(F(p)) is closed by the
    ansatz H(x,y) ~ y + (mean measured deviation); the truncation is then
    widened until the residual on the interior of the original window is
    below tol on at least one checked point (metadata["interior_points"]).
    Convergence is declared from that interior residual only;
    metadata["inner_converged"] records whether the fixed-point iteration
    itself met its stop rule within max_iter steps.
    """
    a0, b0 = truncation
    diag = displacement_bound(m, (min(a0, 0.05), max(b0, 0.95)))
    if diag["diverges"]:
        raise DisplacementDiverges(f"margin sups {diag['margin_sups']}")

    for k in range(max_widenings + 1):
        a = a0 * 0.5 ** k
        b = 1.0 - (1.0 - b0) * 0.5 ** k
        xs, ys, fx, image = _band_grid(m, (a, b), nx, ny, 1)
        inside = (fx >= a) & (fx <= b)

        def plan(rows):                  # the band plan, then the closure's inputs
            fy, p = image(rows)
            return p, inside[rows, None], fy

        def lift(v):
            closure, gather = float(np.mean(v - ys)), _gather(v)
            return lambda p: np.where(p[1], gather(p[0]), p[2] + closure)

        cur, it, converged, defect = contract(plan, lift, np.broadcast_to(ys, (nx, ny + 1)),
                                              m.degree, 1, tol, max_iter)
        field = BandField2D((a, b), cur, 1, m.degree, residual=float(defect.max()),
                            tol=tol, iterations=it)
        # the window's rows whose images stay in the truncation, without the glued column
        rows = slice(int(np.searchsorted(xs, a0, "left")), int(np.searchsorted(xs, b0, "right")))
        kept = defect[rows][inside[rows]]
        interior, points = float(kept.max(initial=0.0)), kept.size * ny
        field.metadata.update(interior_residual=interior, interior_points=points,
                              widenings=k, inner_converged=converged)
        if points and interior <= tol:
            return field
    raise MaxIterExceeded(f"interior residual {interior} over {points} points not "
                          f"below {tol} after {max_widenings} widenings")


def check_fiber_surjectivity(h: BandField2D, x_level: float, max_gap: float = 0.01) -> bool:
    """True iff h(x_level, .) mod 1 at 2048 angles leaves no circular gap > max_gap."""
    a, b = h.band
    if not a - 1e-12 <= x_level <= b + 1e-12:
        raise OutOfDomain(f"level {x_level} outside band [{a}, {b}]")
    ys = np.linspace(0.0, 1.0, 2048, endpoint=False)
    vals = h(np.full_like(ys, float(np.clip(x_level, a, b))), ys)
    return max_circular_gap(vals) <= max_gap


def check_fiber_connector(h: BandField2D, z: float, tol: float = 0.01,
                          x_levels=None) -> bool:
    """True iff the h-fiber over angle z meets every x-level of the band.

    Levels outside the field's band count as domain gaps and fail the check.
    """
    a, b = h.band
    if x_levels is None:
        x_levels = h.x_samples
    x_levels = np.asarray(x_levels, dtype=float)
    if np.any(x_levels < a - 1e-12) or np.any(x_levels > b + 1e-12):
        return False
    xg, yg = np.meshgrid(np.clip(x_levels, a, b), np.linspace(0.0, 1.0, h.ny, endpoint=False),
                         indexing="ij")
    return not np.any(np.min(circle_dist(h(xg, yg), z), axis=1) > tol)
