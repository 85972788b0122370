"""Connector curves and the repeller route to a semiconjugacy.

Connectors here are graphs x -> y(x) in lifted coordinates over a
sub-interval of (0,1); a graph connector is always inessential, so the
constructions below stay in the trivial class.  Boundary accumulation is
asserted only up to truncation margins.

For a free connector of a fiberwise-expanding skew product, nested
preimage components converge geometrically to the invariant repelling
connectors; assigning roots of unity to the repellers and refining along
preimage curve families codes a semiconjugacy with z -> z^d.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .annulus import AnnulusMapLift
from .errors import (BranchCollision, ImageNotGraph, NoExpansion, NotFree,
                     NotMonotoneBase, OutOfDomain)
from .numerics import circle_dist, frac
from .semiconj2d import BandField2D


@dataclass(eq=False)
class ConnectorCurve:
    """Graph connector: lifted heights over increasing base samples.

    reaches_lower / reaches_upper record whether the curve extends to the
    truncation margins of (0,1); the idealized boundary accumulation is
    asserted only in that sense.
    """

    xs: np.ndarray
    heights: np.ndarray
    margin: float = 1e-3
    value: float | None = None          # lifted semiconjugacy value, when coded
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.heights = np.asarray(self.heights, dtype=float)
        if len(self.xs) < 2 or np.any(np.diff(self.xs) <= 0):
            raise ValueError("curve needs strictly increasing base samples")

    @property
    def x_range(self) -> tuple[float, float]:
        return float(self.xs[0]), float(self.xs[-1])

    @property
    def reaches_lower(self) -> bool:
        return self.xs[0] <= 2.0 * self.margin

    @property
    def reaches_upper(self) -> bool:
        return self.xs[-1] >= 1.0 - 2.0 * self.margin

    def height_at(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.xs[0] - 1e-12) or np.any(x > self.xs[-1] + 1e-12):
            raise OutOfDomain(f"x outside curve range {self.x_range}")
        v = np.interp(x, self.xs, self.heights)
        return v if v.ndim else float(v)


def constant_connector(height: float, margin: float = 1e-3,
                       n: int = 1024) -> ConnectorCurve:
    """Horizontal connector at a fixed lifted height."""
    xs = np.linspace(margin, 1.0 - margin, n)
    return ConnectorCurve(xs, np.full(n, float(height)), margin)


def _interp_rows(x, xp, fp):
    """np.interp(x, xp, row) for every row of fp, with np.interp's arithmetic.

    xp must be strictly increasing; points outside it take the end values.
    """
    j = np.searchsorted(xp, x, side="right") - 1
    jc = np.clip(j, 0, len(xp) - 2)
    v = (fp[..., jc + 1] - fp[..., jc]) / (xp[jc + 1] - xp[jc]) * (x - xp[jc]) + fp[..., jc]
    node = (j < 0) | (j == len(xp) - 1) | (xp[jc] == x)
    return np.where(node, fp[..., np.clip(j, 0, len(xp) - 1)], v)


def _preimage_block(m: AnnulusMapLift, xs: np.ndarray, heights: np.ndarray,
                    margin: float, n_samples: int | None = None):
    """Preimages of a block of curves (rows of heights) on shared nodes xs.

    Branch k solves g_x(w) = c(base(x)) + k, for the |d| offsets k of
    FiberMap.branches at the first node; fiber monotonicity separates the
    branches, which are continuous in x.  Children are sampled
    at the base preimages of the parent's nodes, so the recursion never
    interpolates the parent (steepening curves keep their node refinement)
    and a block's children share nodes.  Returns those nodes, the children's
    heights (|d| rows per parent, sorted by mean height) and branch offsets.
    """
    lo_img = float(np.asarray(m.base(margin)))
    hi_img = float(np.asarray(m.base(1.0 - margin)))
    mask = (xs >= lo_img - 1e-15) & (xs <= hi_img + 1e-15)
    if mask.sum() < 2:
        raise OutOfDomain("preimage range is empty inside the margins")
    base_pts, targets = xs[mask], heights[:, mask]
    if n_samples is not None and len(base_pts) < n_samples:
        extra = np.linspace(base_pts[0], base_pts[-1], n_samples)
        targets = _interp_rows(extra, base_pts, targets)
        base_pts = extra
    cx = np.asarray(m.base.inverse(base_pts))
    keep = (cx >= margin - 1e-15) & (cx <= 1.0 - margin + 1e-15)
    if keep.sum() < 2:
        raise OutOfDomain("preimage range is empty inside the margins")
    cx, targets = cx[keep], targets[:, keep]
    offsets = m.fiber.branches(cx[0], targets[:, 0])
    w = m.fiber.inverse(cx, targets[:, None, :] + offsets[..., None])
    order = np.argsort(np.mean(w, axis=2), axis=1, kind="stable")
    w = np.take_along_axis(w, order[..., None], axis=1)
    gap = float(np.min(np.diff(w, axis=1), initial=np.inf))
    if gap <= 1e-9:
        raise BranchCollision(f"branch separation {gap} below resolution")
    return cx, w.reshape(-1, len(cx)), np.take_along_axis(offsets, order, axis=1).ravel()


def preimage_connectors(m: AnnulusMapLift, c: ConnectorCurve,
                        n_samples: int | None = None,
                        margin: float | None = None) -> list[ConnectorCurve]:
    """The |d| preimage curves of a graph connector, sorted by height (see _preimage_block)."""
    margin = c.margin if margin is None else margin
    xs, hs, offsets = _preimage_block(m, c.xs, c.heights[None, :], margin, n_samples)
    return [ConnectorCurve(xs.copy(), h, margin, metadata={"offset": int(k)})
            for h, k in zip(hs, offsets)]


def connector_image(m: AnnulusMapLift, c: ConnectorCurve) -> ConnectorCurve:
    """Image curve of a graph connector; requires a monotone base on its range."""
    bx = np.asarray(m.base(c.xs))
    if np.any(np.diff(bx) <= 0):
        raise ImageNotGraph("base not strictly increasing on the curve range")
    return ConnectorCurve(bx, np.asarray(m.fiber(c.xs, c.heights)), c.margin)


def is_free(m: AnnulusMapLift, c: ConnectorCurve, tol: float = 1e-6) -> bool:
    """True iff the image stays off the curve over the overlapping range.

    Distances are measured on the circle fiber (mod 1) at equal base
    positions; an empty overlap counts as free.
    """
    img = connector_image(m, c)
    lo = max(c.x_range[0], img.x_range[0])
    hi = min(c.x_range[1], img.x_range[1])
    if hi <= lo:
        return True
    xs = np.linspace(lo, hi, max(len(c.xs), 256))
    gap = circle_dist(img.height_at(xs), c.height_at(xs))
    return float(np.min(gap)) > tol


def invariant_connector_from_arc(m: AnnulusMapLift, p: tuple[float, float],
                                 n_back: int = 6, n_fwd: int = 10,
                                 samples_per_arc: int = 200,
                                 margin: float = 1e-3) -> ConnectorCurve:
    """Invariant connector built from an arc joining p to F(p).

    The base coordinate must strictly increase along the orbit of p.  The
    arc is iterated forward n_fwd times; backward pieces are inverse
    lifts, each anchored at the shared endpoint with the previous piece.
    Pieces are clipped at the margins; the invariance residual
    sup |F(C) - C| over the overlap is stored in metadata.
    """
    x_p, y_p = float(p[0]), float(p[1])
    fx, fy = m(x_p, y_p)
    if fx <= x_p + 1e-12:
        raise NotMonotoneBase(f"base must move {x_p} strictly right, got {fx}")
    ts = np.linspace(0.0, 1.0, samples_per_arc)
    pieces = [(x_p + (fx - x_p) * ts, y_p + (fy - y_p) * ts)]

    cur = pieces[0]
    for _ in range(n_fwd):
        nxt_x, nxt_y = m(cur[0], cur[1])
        if nxt_x[-1] >= 1.0 - margin:
            keep = nxt_x <= 1.0 - margin
            if keep.sum() >= 2:
                pieces.append((nxt_x[keep], nxt_y[keep]))
            break
        pieces.append((nxt_x, nxt_y))
        cur = (nxt_x, nxt_y)

    # backward inverse lifts; each new piece ends at the previous piece's
    # left endpoint, which is an exact preimage of that piece's right one
    prev_x, prev_y = pieces[0]
    lo_img = float(np.asarray(m.base(margin)))
    for _ in range(n_back):
        ax, ay = prev_x[0], prev_y[0]
        c_off = round(float(np.asarray(m.fiber(ax, ay))) - float(prev_y[-1]))
        invertible = prev_x >= lo_img + 1e-15   # preimages below the margin are dropped
        clipped = invertible.sum() < len(prev_x)
        if invertible.sum() < 2:
            break
        sx, sy = prev_x[invertible], prev_y[invertible]
        if clipped:                             # refine toward the cut
            sx_fine = np.linspace(lo_img * (1 + 1e-12), sx[-1], len(prev_x))
            sy = np.interp(sx_fine, sx, sy)
            sx = sx_fine
        bx = np.asarray(m.base.inverse(sx))
        w = m.fiber.inverse(bx, sy + c_off)
        pieces.insert(0, (bx, w))
        if clipped:
            break
        prev_x, prev_y = bx, w

    xs = np.concatenate([px for px, _ in pieces])
    ys = np.concatenate([py for _, py in pieces])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]
    keep = np.concatenate(([True], np.diff(xs) > 1e-14))
    curve = ConnectorCurve(xs[keep], ys[keep], margin)

    sample = curve.xs[:: max(1, len(curve.xs) // 512)]
    ix, iy = m(sample, curve.height_at(sample))
    ok = (ix >= curve.xs[0]) & (ix <= curve.xs[-1])
    residual = float(np.max(np.abs(iy[ok] - curve.height_at(ix[ok])))) if ok.any() else np.inf
    curve.metadata.update({"invariance_residual": residual,
                           "pieces": len(pieces),
                           "boundary_accumulating": curve.reaches_lower and curve.reaches_upper})
    return curve


# ---------------------------------------------------------------------------
# repelling connectors
# ---------------------------------------------------------------------------

def _require_window_invariant(m: AnnulusMapLift, margin: float):
    xs = np.linspace(margin, 1.0 - margin, 64)
    bx = np.asarray(m.base(xs))
    if bx.min() < margin - 1e-12 or bx.max() > 1.0 - margin + 1e-12:
        raise OutOfDomain("base must keep the margin window inside itself "
                          "for the nesting construction")


def _check_expansion(m: AnnulusMapLift, margin: float) -> float:
    lo, _ = m.fiber.slope_range(np.linspace(margin, 1.0 - margin, 64))
    if lo <= 1.0 + 1e-9:
        raise NoExpansion(f"min fiber slope {lo} <= 1; refusing unconvergent nesting")
    return lo


def repelling_connectors(m: AnnulusMapLift, c: ConnectorCurve, depth: int = 10,
                         n_samples: int = 1024, tol: float = 1e-6) -> list[ConnectorCurve]:
    """|d-1| repelling connectors from a free connector, to finite depth.

    For d > 1: the |d| preimage curves of the free connector cut the
    annulus into |d| gaps; every gap not holding the connector nests to a
    repeller under repeated preimage-in-gap refinement, contracting by at
    least the inverse fiber expansion per level.  All gaps are nested at
    once (see _nest).  For d < -1 the first repeller c' is produced this
    way and the nesting is repeated on the preimage curves of c', skipping
    no gap, with one extra preimage level intersected before nesting in the
    two gaps adjacent to c'.  Successive-depth sup gaps are recorded in
    metadata["depth_gaps"].
    """
    margin = c.margin
    _require_window_invariant(m, margin)
    lam = _check_expansion(m, margin)
    if not is_free(m, c, tol):
        raise NotFree("connector meets its image")
    reps = _nest(m, c, depth, n_samples)
    if m.degree < 0:
        reps = reps[:1] + _nest(m, reps[0], depth, n_samples, skip=False, refine=True)
    for r in reps:
        r.metadata["fiber_expansion"] = lam
    return reps


def _nest(m: AnnulusMapLift, c: ConnectorCurve, depth: int, n_samples: int,
          skip: bool = True, refine: bool = False) -> list[ConnectorCurve]:
    """Nest the gaps between consecutive preimage curves of c, all gaps at once.

    Gap k lies between the preimage curves lower[k] and upper[k] = lower[k+1]
    (lower[0] + 1 for the last) on a shared window xs; each level replaces
    every row of cur by its unique preimage inside its own gap, whose branch
    offset is read off the side curve (lower for d > 0, upper for d < 0),
    since consecutive preimage curves differ by one period in the fiber
    image.  skip drops the gap holding c; refine starts the two gaps
    adjacent to c (which c, being invariant, bounds) from the midline of
    the strip between the preimages of their boundaries.
    """
    margin = c.margin
    px, ph, _ = _preimage_block(m, c.xs, c.heights[None, :], margin, n_samples)
    xs = np.linspace(max(margin, c.xs[0], px[0]), min(1.0 - margin, c.xs[-1], px[-1]), n_samples)
    lower = _interp_rows(xs, px, ph)
    upper = np.concatenate([lower[1:], lower[:1] + 1.0])
    bx = np.asarray(m.base(xs))

    def pull(h, side):                  # each row's preimage inside its gap
        t = np.array([np.interp(bx, xs, row) for row in h])
        return m.fiber.inverse(xs, t + np.ceil(side - t))

    cc = c.height_at(xs)
    u = cc + np.ceil(lower[0] - cc)                 # representative inside the stack
    k0 = int(np.median(np.sum(np.vstack([lower, upper[-1:]]) <= u, axis=0) - 1)) if skip else -1
    side = np.asarray(m.fiber(xs, lower if m.degree > 0 else upper))
    cur = 0.5 * (lower + upper)
    if refine:    # the gaps on either side of the preimage curve closest to c
        j = int(np.argmin(np.min([np.max(np.abs(lower - cc - t), axis=1) for t in (-1, 0, 1)],
                                 axis=0)))
        r = [(j - 1) % len(lower), j]
        ends = pull(np.concatenate([lower[r], upper[r]]), np.tile(side[r], (2, 1)))
        l_star, u_star = ends[:2], ends[2:]
        cur[r] = 0.5 * (np.maximum(lower[r], np.minimum(l_star, u_star))
                        + np.minimum(upper[r], np.maximum(l_star, u_star)))
    keep = np.arange(len(lower)) != k0
    cur, side, gaps = cur[keep], side[keep], []
    for _ in range(depth):
        new = pull(cur, side)
        gaps.append(np.max(np.abs(new - cur), axis=1))
        cur = new
    return [ConnectorCurve(xs.copy(), h, margin,
                           metadata={"gap_index": int(k), "depth": depth,
                                     "depth_gaps": [float(g[i]) for g in gaps]})
            for i, (k, h) in enumerate(zip(np.flatnonzero(keep), cur))]


# ---------------------------------------------------------------------------
# coded semiconjugacy
# ---------------------------------------------------------------------------

def semiconjugacy_from_repellers(m: AnnulusMapLift, repellers: list[ConnectorCurve],
                                 depth: int = 8, band: tuple[float, float] | None = None,
                                 nx: int = 65, ny: int = 128) -> BandField2D:
    """Semiconjugacy field coded by repellers and their preimage families.

    The |d-1| repellers receive the (d-1)-st roots of unity; every
    preimage curve of a curve with lifted value v and branch offset c
    receives (v + c)/d.  Grid points take the midpoint of the value
    interval of their enclosing pair of curves.  The field's residual is
    measured on the grid, not bounded: it exceeds |d|^(-depth+1) 6.5x for
    d=3 and stalls near 1/3 for d=-2 below depth 8.
    """
    reps = sorted(repellers, key=lambda cv: float(np.mean(cv.heights)))
    roots = [j / (m.degree - 1) for j in range(len(reps))]
    seeds = [ConnectorCurve(r.xs, r.heights, r.margin,      # value on the repeller's lift branch
                            value=float(v + round(float(np.mean(r.heights)) - v)))
             for r, v in zip(reps, roots)]
    return semiconjugacy_from_connectors(m, seeds, depth, band, nx, ny)


def semiconjugacy_from_connectors(m: AnnulusMapLift, seeds: list[ConnectorCurve],
                                  depth: int = 8, band: tuple[float, float] | None = None,
                                  nx: int = 65, ny: int = 128) -> BandField2D:
    """Recursive preimage coding seeded by curves with fixed lifted values.

    Seeds must satisfy h(f(seed)) = m_d(h(seed)) for their declared values
    (repellers with roots of unity, or an invariant connector with a fixed
    value).  Works for bases that move the window, at the cost of curve
    ranges shrinking with depth.

    A level is a list of blocks (xs, heights (n_curves, n_nodes), values,
    margin); a block's children share the base preimages of its nodes, so
    they form one block.  Every level is kept (8 bytes x curves x nodes)
    until one gather per block, in family order, so tie-breaks are kept.
    metadata["level_curves"] counts curves per level, seeds first, and
    metadata["dropped_blocks"] the blocks whose preimages left the margins.
    """
    if any(s.value is None for s in seeds):
        raise ValueError("seed curves need declared lifted values")
    d = m.degree
    groups = [list(g) for _, g in groupby(seeds, lambda s: (s.margin, s.xs.tobytes()))]
    frontier = [(g[0].xs, np.array([s.heights for s in g]),
                 np.array([s.value for s in g], dtype=float), g[0].margin) for g in groups]
    levels, dropped = [frontier], 0
    for _ in range(depth):
        new = []
        for xs, hs, vs, mg in frontier:
            try:
                cx, ch, offsets = _preimage_block(m, xs, hs, mg)
            except OutOfDomain:
                dropped += 1
                continue
            new.append((cx, ch, (np.repeat(vs, abs(d)) + offsets) / d, mg))
        if not new:
            break
        levels.append(new)
        frontier = new

    if band is None:
        band = (max(float(b[0][0]) for b in frontier), min(float(b[0][-1]) for b in frontier))
    xs = np.linspace(band[0], band[1], nx)
    ys = np.linspace(0.0, 1.0, ny + 1)
    blocks = [b for level in levels for b in level]
    heights = np.concatenate([_interp_rows(xs, b[0], b[1]) for b in blocks])
    vals = np.concatenate([b[2] for b in blocks])
    inside = np.repeat([(xs >= b[0][0] - 1e-12) & (xs <= b[0][-1] + 1e-12) for b in blocks],
                       [len(b[1]) for b in blocks], axis=0)
    values, rows = np.empty((nx, ny + 1)), np.arange(ny + 1)
    for i, x in enumerate(xs):
        hs, vs = heights[inside[:, i], i], vals[inside[:, i]]
        if len(hs) == 0:
            raise OutOfDomain(f"no coding curves over x = {x}; lower the depth "
                              "or shrink the band")
        shift = np.floor(ys[:, None] - hs[None, :])
        below, vals_b = hs + shift, vs + shift
        v_lo = vals_b[rows, np.argmax(below, axis=1)]
        v_hi = vals_b[rows, np.argmin(below + 1.0, axis=1)] + 1.0
        values[i] = 0.5 * (v_lo + v_hi)
    values[:, -1] = values[:, 0] + 1.0

    field = BandField2D(band, xs, values, 1, d,
                        metadata={"depth": depth, "curves": len(vals),
                                  "coding": "repeller-preimage", "dropped_blocks": dropped,
                                  "level_curves": [sum(len(b[1]) for b in lv) for lv in levels]})
    # residual measured where the image stays in the band
    xg, yg = np.meshgrid(xs, ys[:-1], indexing="ij")
    fx, fy = m(xg, yg)
    ok = (fx >= band[0]) & (fx <= band[1])
    if ok.any():
        hv = field(np.clip(fx, band[0], band[1]), fy)
        res = np.abs(frac(hv - d * field(xg, yg) + 0.5) - 0.5)
        field.residual = float(np.max(res[ok]))
    field.deviation_bound = float(np.max(np.abs(values - ys[None, :])))
    return field
