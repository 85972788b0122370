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

from . import schema
from .annulus import AnnulusMapLift
from .errors import (BranchCollision, ImageNotGraph, NoExpansion, NotFree,
                     NotMonotoneBase, OutOfDomain, ValidationError)
from .numerics import circle_dist, frac
from .semiconj2d import BandField2D

MAX_LEVEL_LOG2 = 26                   # a coding level holds at most 2^26 preimage heights
N_SAMPLES = 1024                      # nodes of a nest's shared window
NX, NY = 65, 128                      # the coding grid: NX columns, NY + 1 rows
SPACING = 1e-14                       # base spacing below which an arc's samples are one


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
        if (len(self.xs) < 2 or not np.all(np.diff(self.xs) > 0)
                or not (np.isfinite(self.xs).all() and np.isfinite(self.heights).all())):
            raise ValueError("curve needs finite heights over strictly increasing "
                             "finite base samples")

    @property
    def reaches_lower(self) -> bool:
        return self.xs[0] <= 2.0 * self.margin

    @property
    def reaches_upper(self) -> bool:
        return self.xs[-1] >= 1.0 - 2.0 * self.margin

    def height_at(self, x):
        x = np.asarray(x, dtype=float)
        if not np.all((x >= self.xs[0] - 1e-12) & (x <= self.xs[-1] + 1e-12)):
            raise OutOfDomain(f"x outside curve range ({self.xs[0]}, {self.xs[-1]})")
        v = np.interp(x, self.xs, self.heights)
        return v if v.ndim else float(v)


def constant_connector(height: float, margin: float = 1e-3,
                       n: int = 1024) -> ConnectorCurve:
    """Horizontal connector at a fixed lifted height."""
    xs = np.linspace(margin, 1.0 - margin, n)
    return ConnectorCurve(xs, np.full(n, float(height)), margin)


def _segments(x, xp):
    """np.interp's segment [xp[j], xp[j+1]] of each x for _interp: j, its width, x - xp[j]
    and where np.interp returns a sample instead.  xp must be strictly increasing."""
    j = np.searchsorted(xp[1:-1], x, side="right")
    x0 = xp[j]
    return j, xp[j + 1] - x0, x - x0, x <= x0, x >= xp[-1]


def _interp(seg, fp):
    """np.interp(x, xp, row), bit for bit, for every row of fp (only read, so a view
    will do) with seg = _segments(x, xp)."""
    j, dx, t, node, top = seg
    lo, hi = fp.take(j, axis=-1), fp.take(j + 1, axis=-1)
    v = (hi - lo) / dx * t + lo
    v[..., node] = lo[..., node]
    v[..., top] = hi[..., top]
    return v


def preimage_connectors(m: AnnulusMapLift, xs: np.ndarray, heights: np.ndarray,
                        margin: float, n_samples: int | None = None):
    """Preimages of a block of curves (rows of heights) on shared nodes xs.

    Branch k solves g_x(w) = c(base(x)) + k, for the |d| offsets k of
    FiberMap.branches at the first node; fiber monotonicity separates the
    branches, which are continuous in x, and orders them: ascending offsets
    give ascending heights for d > 0, descending ones for d < 0.  Children
    are sampled at the base preimages of the parent's nodes, so the
    recursion never interpolates the parent (steepening curves keep their
    node refinement) and a block's children share nodes.  Returns those
    nodes, the children's heights (|d| rows per parent, in ascending height)
    and branch offsets; a row out of order fails the gap check.  xs and every
    base map increase, so the nodes kept in the margins are one contiguous
    run before and after the base inverse: heights is sliced, never copied
    or written, and the fiber inverse overwrites the targets + offsets sum.
    """
    lo_img = float(np.asarray(m.base(margin)))
    hi_img = float(np.asarray(m.base(1.0 - margin)))
    on = np.flatnonzero((xs >= lo_img - 1e-15) & (xs <= hi_img + 1e-15))
    if len(on) < 2:
        raise OutOfDomain("preimage range is empty inside the margins")
    base_pts, targets = xs[on[0]:on[-1] + 1], heights[:, on[0]:on[-1] + 1]
    if n_samples is not None and len(on) < n_samples:
        fine = np.linspace(base_pts[0], base_pts[-1], n_samples)
        base_pts, targets = fine, _interp(_segments(fine, base_pts), targets)
    cx = np.asarray(m.base.inverse(base_pts))
    on = np.flatnonzero((cx >= margin - 1e-15) & (cx <= 1.0 - margin + 1e-15))
    if len(on) < 2:
        raise OutOfDomain("preimage range is empty inside the margins")
    cx, targets = cx[on[0]:on[-1] + 1], targets[:, on[0]:on[-1] + 1]
    offsets = m.fiber.branches(cx[0], targets[:, 0])
    if m.degree < 0:
        offsets = offsets[:, ::-1]
    w = m.fiber.inverse(cx, targets[:, None, :] + offsets[..., None])
    gap = float(np.min(np.diff(w, axis=1), initial=np.inf))
    if gap <= 1e-9:
        raise BranchCollision(f"branch separation {gap} below resolution")
    return cx, w.reshape(-1, len(cx)), offsets.ravel()


def is_free(m: AnnulusMapLift, c: ConnectorCurve) -> bool:
    """True iff the image stays more than 1e-6 off the curve over the overlapping range.

    The image is a graph only for a base strictly increasing on the curve
    range (else ImageNotGraph).  Distances are measured on the circle fiber
    (mod 1) at equal base positions; an empty overlap counts as free.
    """
    bx = np.asarray(m.base(c.xs))
    if np.any(np.diff(bx) <= 0):
        raise ImageNotGraph("base not strictly increasing on the curve range")
    lo = max(c.xs[0], bx[0])
    hi = min(c.xs[-1], bx[-1])
    if hi <= lo:
        return True
    xs = np.linspace(lo, hi, max(len(c.xs), 256))
    gap = circle_dist(np.interp(xs, bx, m.fiber(c.xs, c.heights)), c.height_at(xs))
    return float(np.min(gap)) > 1e-6


def invariant_connector_from_arc(m: AnnulusMapLift, p: tuple[float, float],
                                 n_back: int = 6, n_fwd: int = 10,
                                 margin: float = 1e-3) -> ConnectorCurve:
    """Invariant connector built from an arc of 200 samples joining p to F(p).

    The base coordinate must strictly increase along the orbit of p.  The
    arc is iterated forward n_fwd times; backward pieces are inverse
    lifts, each anchored at the shared endpoint with the previous piece.
    Pieces are clipped at the margins, and the forward ones end at the first
    whose base range is at most SPACING, the curve's dedupe spacing: on an
    attracting base point they would pile up.
    """
    x_p, y_p = float(p[0]), float(p[1])
    fx, fy = m(x_p, y_p)
    if fx <= x_p + 1e-12:
        raise NotMonotoneBase(f"base must move {x_p} strictly right, got {fx}")
    ts = np.linspace(0.0, 1.0, 200)
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
        if np.ptp(nxt_x) <= SPACING:
            break
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
    keep = np.concatenate(([True], np.diff(xs) > SPACING))
    curve = ConnectorCurve(xs[keep], ys[keep], margin)
    curve.metadata.update({"pieces": len(pieces),
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


def repelling_connectors(m: AnnulusMapLift, c: ConnectorCurve,
                         depth: int = 10) -> list[ConnectorCurve]:
    """|d-1| repelling connectors from a free connector, to finite depth.

    For d > 1: the |d| preimage curves of the free connector cut the
    annulus into |d| gaps; every gap not holding the connector nests to a
    repeller under repeated preimage-in-gap refinement, contracting by at
    least the inverse fiber expansion per level.  All gaps are nested at
    once (see _nest).  For d < -1 only the first such gap is nested, to
    the first repeller c', and the nesting is repeated on the preimage
    curves of c', skipping no gap, with one extra preimage level
    intersected before nesting in the two gaps adjacent to c'.  Successive-depth sup gaps are recorded in
    metadata["depth_gaps"].
    """
    margin = c.margin
    _require_window_invariant(m, margin)
    lam = _check_expansion(m, margin)
    if not is_free(m, c):
        raise NotFree("connector meets its image")
    reps = _nest(m, c, depth)
    if m.degree < 0:
        reps += _nest(m, reps[0], depth, invariant=True)
    for r in reps:
        r.metadata["fiber_expansion"] = lam
    return reps


def _nest(m: AnnulusMapLift, c: ConnectorCurve, depth: int,
          invariant: bool = False) -> list[ConnectorCurve]:
    """Nest the gaps between consecutive preimage curves of c, all gaps at once.

    Gap k lies between the preimage curves lower[k] and upper[k] = lower[k+1]
    (lower[0] + 1 for the last) on a shared window xs of N_SAMPLES nodes;
    each level replaces every row of cur by its unique preimage inside its
    own gap, whose branch offset is read off the side curve (lower for
    d > 0, upper for d < 0), since consecutive preimage curves differ by one
    period in the fiber image.  A free c's gap is dropped; for an invariant
    c, which bounds the two gaps adjacent to it, those gaps start from the
    midline of the strip between the preimages of their boundaries and no
    gap is dropped.  For d < 0 a free c nests only the first gap kept.

    The nesting stops at the first level equal, bit for bit, to the one two
    before it (a fixed point or a 2-cycle of rounding) and keeps the level of
    the depth's parity; metadata["depth_gaps"] lists only the levels that ran.
    """
    margin = c.margin
    px, ph, _ = preimage_connectors(m, c.xs, c.heights[None, :], margin, N_SAMPLES)
    xs = np.linspace(max(margin, c.xs[0], px[0]), min(1.0 - margin, c.xs[-1], px[-1]), N_SAMPLES)
    lower = _interp(_segments(xs, px), ph)
    upper = np.concatenate([lower[1:], lower[:1] + 1.0])
    seg = _segments(np.asarray(m.base(xs)), xs)        # every level pulls through base(xs)

    def pull(h, side):                  # each row's preimage inside its gap
        t = _interp(seg, h)
        return m.fiber.inverse(xs, t + np.ceil(side - t))

    cc = c.height_at(xs)
    u = cc + np.ceil(lower[0] - cc)                 # representative inside the stack
    k0 = -1 if invariant else int(np.median(np.sum(np.vstack([lower, upper[-1:]]) <= u, 0) - 1))
    side = np.asarray(m.fiber(xs, lower if m.degree > 0 else upper))
    cur = 0.5 * (lower + upper)
    if invariant:    # the gaps on either side of the preimage curve closest to c
        j = int(np.argmin(np.min([np.max(np.abs(lower - cc - t), axis=1) for t in (-1, 0, 1)],
                                 axis=0)))
        r = [(j - 1) % len(lower), j]
        ends = pull(np.concatenate([lower[r], upper[r]]), np.tile(side[r], (2, 1)))
        l_star, u_star = ends[:2], ends[2:]
        cur[r] = 0.5 * (np.maximum(lower[r], np.minimum(l_star, u_star))
                        + np.minimum(upper[r], np.maximum(l_star, u_star)))
    keep = np.arange(len(lower)) != k0
    if m.degree < 0 and not invariant:
        keep &= np.cumsum(keep) == 1
    cur, side, gaps, prev = cur[keep], side[keep], [], None
    for level in range(depth):
        new = pull(cur, side)
        gaps.append(np.max(np.abs(new - cur), axis=1))
        if prev is not None and np.array_equal(new, prev):    # period 2 from here on:
            cur = new if (depth - level) % 2 else cur           # keep depth's parity
            break
        prev, cur = cur, new
    return [ConnectorCurve(xs.copy(), h, margin,
                           metadata={"gap_index": int(k), "depth": depth,
                                     "depth_gaps": [float(g[i]) for g in gaps]})
            for i, (k, h) in enumerate(zip(np.flatnonzero(keep), cur))]


# ---------------------------------------------------------------------------
# coded semiconjugacy
# ---------------------------------------------------------------------------

def semiconjugacy_from_repellers(m: AnnulusMapLift, repellers: list[ConnectorCurve],
                                 band: tuple[float, float], depth: int = 8) -> BandField2D:
    """Semiconjugacy field coded by repellers and their preimage families.

    A repeller r that the fiber maps onto its lift r + k (k the median of
    fiber(x, r(x)) - r(base(x)) where base(x) stays in r's range) takes the
    value k/(d-1), a (d-1)-st root of unity, so that d v = v + k.  Every
    preimage curve of a curve with lifted value v and branch offset c
    receives (v + c)/d.  Grid points take the midpoint of the value
    interval of their enclosing pair of curves.  The residual is measured
    on the coding grid; tests assert it is at most |d|^(1-depth) at depths
    4-7, on linear fibers with |d| <= 4 and on a sine fiber with |d| <= 3.
    """
    seeds = []
    for r in repellers:
        bx = np.asarray(m.base(r.xs))
        on = (bx >= r.xs[0]) & (bx <= r.xs[-1])
        t = np.sort(m.fiber(r.xs[on], r.heights[on]) - r.height_at(bx[on]))   # NaNs last
        mid = t[-1:] if np.isnan(t[-1:]).any() else t[(t.size - 1) // 2:t.size // 2 + 1]
        k = round(float(np.mean(mid)))      # np.median, whose NaN check imports numpy.ma
        seeds.append(ConnectorCurve(r.xs, r.heights, r.margin, value=k / (m.degree - 1)))
    return semiconjugacy_from_connectors(m, seeds, band, depth)


def _code_column(hs: np.ndarray, vs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coded values at heights y in [0, 1) over one column of curves.

    The curve at height h with value v has lifts h + n with values v + n;
    each y takes the midpoint of the values of its enclosing pair of lifts.
    With the key g = h - floor(h), the lower curve has the largest g <= y
    (the largest g when none is) and the upper one the smallest g > y (the
    smallest g when none is); ties go to the first curve.
    """
    g = hs - np.floor(hs)
    order = np.argsort(g, kind="stable")            # ties in curve order
    gs = g[order]
    k = np.searchsorted(gs, y, side="right")        # curves with g <= y
    lo = order[np.searchsorted(gs, gs[k - 1])]      # first of its ties; k = 0 wraps to the top
    hi = order[k % len(gs)]                         # k = C wraps to the bottom
    v_lo = vs[lo] + np.floor(y - hs[lo])
    v_hi = vs[hi] + np.floor(y - hs[hi]) + 1.0
    return 0.5 * (v_lo + v_hi)


def semiconjugacy_from_connectors(m: AnnulusMapLift, seeds: list[ConnectorCurve],
                                  band: tuple[float, float], depth: int = 8) -> BandField2D:
    """Recursive preimage coding seeded by curves with fixed lifted values.

    Seeds must satisfy h(f(seed)) = m_d(h(seed)) for their declared values
    (repellers with roots of unity, or an invariant connector with a fixed
    value).  Works for bases that move the window, at the cost of curve
    ranges shrinking with depth.

    A level is a list of blocks (xs, heights (n_curves, n_nodes), values,
    margin); a block's children share the base preimages of its nodes, so
    they form one block.  Each block is evaluated at the NX columns when it
    is built and keeps only those heights, so only the frontier and the
    level being built hold nodes; blocks are collected in level and block
    order, so ties go to the earlier curve.  Each of the NX columns is then
    coded by _code_column: one stable sort of the C curve keys and one
    searchsorted of the NY rows below y = 1, O((C + NY) log C) per column;
    the row y = 1 is row y = 0 plus one.  metadata["level_curves"] counts curves per level,
    seeds first, and metadata["dropped_blocks"] the blocks whose
    preimages left the margins.  The residual sup |H(F(p)) - d H(p)| mod 1 runs
    over the nodes p whose image stays in the band, H(p) read from the stored values.

    Raises ValidationError for depth < 0, a band outside 0 < a < b < 1 or
    no seeds, and before building a level of more than 2^MAX_LEVEL_LOG2
    heights: |d| times the frontier's curves x nodes.
    """
    if depth < 0:
        raise ValidationError(f"the coding depth must be >= 0, got {depth}")
    schema.band(band, "the coding band")
    if not seeds:
        raise ValidationError("the coding needs at least one seed curve")
    if any(s.value is None for s in seeds):
        raise ValueError("seed curves need declared lifted values")
    d = m.degree
    xs = np.linspace(band[0], band[1], NX)
    ys = np.linspace(0.0, 1.0, NY + 1)
    coded = []                          # per block: column heights, values, inside row

    def code(block):
        bx, hs, vs, _ = block
        inside = (xs >= bx[0] - 1e-12) & (xs <= bx[-1] + 1e-12)
        coded.append((_interp(_segments(xs, bx), hs), vs, inside))
        return block

    groups = [list(g) for _, g in groupby(seeds, lambda s: (s.margin, s.xs.tobytes()))]
    frontier = [code((g[0].xs, np.array([s.heights for s in g]),
                      np.array([s.value for s in g], dtype=float), g[0].margin)) for g in groups]
    level_curves, dropped = [len(seeds)], 0
    for level in range(1, depth + 1):
        size = abs(d) * sum(b[1].size for b in frontier)
        if size > 2 ** MAX_LEVEL_LOG2:
            raise ValidationError(f"coding level {level} needs {size} heights, more than "
                                  f"2^{MAX_LEVEL_LOG2}; lower the depth")
        new = []
        for bx, hs, vs, mg in frontier:
            try:
                cx, ch, offsets = preimage_connectors(m, bx, hs, mg)
            except OutOfDomain:
                dropped += 1
                continue
            new.append(code((cx, ch, (np.repeat(vs, abs(d)) + offsets) / d, mg)))
        if not new:
            break
        level_curves.append(sum(len(b[2]) for b in new))
        frontier = new
    heights = np.concatenate([c[0] for c in coded])
    vals = np.concatenate([c[1] for c in coded])
    inside = np.repeat([c[2] for c in coded], [len(c[1]) for c in coded], axis=0)
    values = np.empty((NX, NY + 1))
    for i, x in enumerate(xs):
        on = inside[:, i]
        if not on.any():
            raise OutOfDomain(f"no coding curves over x = {x}; lower the depth "
                              "or shrink the band")
        values[i, :-1] = _code_column(heights[on, i], vals[on], ys[:-1])
    values[:, -1] = values[:, 0] + 1.0

    field = BandField2D(band, values,
                        metadata={"depth": depth, "curves": len(vals),
                                  "coding": "repeller-preimage", "dropped_blocks": dropped,
                                  "level_curves": level_curves})
    fx, fy = m(*np.meshgrid(xs, ys[:-1], indexing="ij"))
    ok = (fx >= band[0]) & (fx <= band[1])
    if ok.any():
        hv = field(np.clip(fx, band[0], band[1]), fy)
        res = np.abs(frac(hv - d * values[:, :-1] + 0.5) - 0.5)
        field.residual = float(np.max(res[ok]))
    return field
