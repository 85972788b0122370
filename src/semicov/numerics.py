"""Small vectorized numerical helpers used across the package."""
from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import MaxIterExceeded, OutOfDomain

BLOCK = 2 ** 16                       # points per block of a contract step: fits a core's L2
POINTS = 2 ** 10                      # fn points per bisection round: 2^6, 2^12 slower, 2^8 no faster


def frac(x):
    """Fractional part in [0, 1)."""
    return x - np.floor(x)


def circle_dist(a, b):
    """Distance on the unit circle between angles a and b (mod 1)."""
    d = frac(np.asarray(a, dtype=float) - b)
    return np.minimum(d, 1.0 - d)


def bisect_brackets(fn, lo, hi, xtol=1e-13):
    """Bisect sign-changing brackets [lo, hi] in parallel, at most 200 levels.

    Each bracket must satisfy fn(lo)*fn(hi) <= 0.  fn must be elementwise
    and defined on the whole closed brackets: a round passes it the 2^m - 1
    midpoints of m levels of every bracket in one call, the candidates on a
    new leading axis and the brackets on the trailing axes (lo.shape), so
    per-bracket arrays inside fn broadcast.  m is the most levels that keep
    a call within POINTS points, and at least one.  Each level keeps the
    half whose lower end has fn(lo)'s sign class (fn <= 0; NaN counts as
    > 0).  The midpoints come from the recursion 0.5 * (lo + hi), so the
    results equal those of one-midpoint bisection bit for bit, which stops
    at the first level whose widest bracket is at most xtol.  Returns the
    midpoints of the final brackets; no brackets give an empty array.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape, n = lo.shape, lo.size
    if n == 0:
        return 0.5 * (lo + hi)
    neg = np.asarray(fn(lo), dtype=float).reshape(n) <= 0
    lo, hi, left, width = lo.reshape(n), hi.reshape(n), 200, np.inf
    while left and not width <= xtol:
        m = min(left, max(1, (POINTS // n + 1).bit_length() - 1))
        ends = np.stack([lo, hi])
        for _ in range(m):                   # interleave the ends with their midpoints
            tier = np.empty((2 * len(ends) - 1, n))
            tier[::2] = ends
            tier[1::2] = 0.5 * (ends[:-1] + ends[1:])
            ends = tier
        fm = np.asarray(fn(ends[1:-1].reshape((-1,) + shape)), dtype=float).reshape(-1, n)
        right = ((fm <= 0) == neg).ravel()   # the midpoint replaces lo
        flat, at, path = ends.ravel(), np.arange(n), np.empty((m, n), dtype=np.int64)
        steps = n << np.arange(m - 1, -1, -1)     # half a bracket per level, in flat units
        for j, step in enumerate(steps.tolist()):  # at: flat index of each lower end
            path[j] = at = at + step * right.take(at + (step - n))
        lower, upper = flat.take(path), flat.take(path + steps[:, None])
        widths = np.max(upper - lower, axis=1)
        j = next((j for j, w in enumerate(widths.tolist()) if w <= xtol), m - 1)
        lo, hi, left, width = lower[j], upper[j], left - j - 1, widths[j]
    return 0.5 * (lo.reshape(shape) + hi.reshape(shape))


def max_circular_gap(values):
    """Largest gap left on the circle by the given angles (mod 1)."""
    v = np.sort(frac(np.asarray(values, dtype=float)))
    if v.size == 0:
        return 1.0
    gaps = np.diff(v)
    wrap = v[0] + 1.0 - v[-1]
    return float(max(gaps.max(initial=0.0), wrap))


def sign_changes(values):
    """Indices i where values[i] and values[i+1] straddle zero strictly."""
    v = np.asarray(values, dtype=float)
    return np.nonzero(v[:-1] * v[1:] < 0)[0]


def periodic_plan(x, grid: int, period):
    """Plan (i, w, k*period) for periodic_gather; rejects NaN and inf.

    The piecewise-linear function on the uniform grid of [0, 1] is extended
    by f(x + k) = f(x) + k*period.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise OutOfDomain("evaluation points must be finite")
    k = np.floor(x)
    pos = (x - k) * grid
    i = np.minimum(pos.astype(np.int64), grid - 1)
    return i, pos - i, k * period


def compact(plan):
    """plan with its index (first) as int32 and its shift (last) in the narrowest signed
    integer dtype that holds it bit for bit, else as it is; the gathers take both."""
    index, *rest, shift = plan
    narrow = np.min_scalar_type(min(int(shift.min()), ~int(shift.max())))   # ~hi = -hi - 1
    exact = shift.astype(narrow) if narrow.kind == "i" and narrow.itemsize < 8 else shift
    same = exact.astype(float).tobytes() == shift.tobytes()      # false on a -0.0 shift
    return (index.astype(np.int32), *rest, exact if same else shift)


def periodic_gather(samples, plan):
    """Values samples[i]*(1-w) + samples[i+1]*w + k*period of a periodic plan."""
    i, w, shift = plan
    i = i.astype(np.intp, copy=False)               # a compact plan's index, widened once
    out = samples.take(i)
    out *= 1.0 - w
    upper = samples[1:].take(i)
    upper *= w
    out += upper
    out += shift
    return out


def band_rows(x, band: tuple[float, float], nx: int):
    """Source row i and weight wx of x on the nx + 1 rows of band x [0, 1], x clipped."""
    a, b = band
    px = np.clip((np.asarray(x, dtype=float) - a) / (b - a) * nx, 0.0, nx)
    i = np.minimum(px.astype(np.int64), nx - 1)
    return i, px - i


def band_plan(x, y, band: tuple[float, float], nx: int, ny: int):
    """Row-separable plan (idx, i, wx, wy, shift) on the (nx+1) x (ny+1) nodes of band x [0, 1].

    Row r holds the points y[r] over the one base point x[r] (x clipped, y of
    period 1): i[r] and wx[r] from ``band_rows`` blend the rows i and i + 1,
    and idx = r*(ny + 1) + j is each point's lower node in the blended rows.
    """
    i, wx = band_rows(x, band, nx)
    j, wy, shift = periodic_plan(y, ny, 1)
    return j + (ny + 1) * np.arange(len(j))[:, None], i, wx, wy, shift


def band_gather(values, plan):
    """Values of a band plan: the rows values[i]*(1-wx) + values[i+1]*wx blended once, in
    one buffer, then ``periodic_gather`` along y on the blend."""
    idx, i, wx, wy, shift = plan
    blend = values.take(i, axis=0)
    blend *= (1.0 - wx)[:, None]
    upper = values.take(i + 1, axis=0)
    upper *= wx[:, None]
    blend += upper
    del upper                                       # freed before the y gather's temporaries
    return periodic_gather(blend.ravel(), (idx, wy, shift))


@contextlib.contextmanager
def blocked(shape):
    """Yield sweep(task, *per_block) over blocks of about BLOCK points of shape's leading axis.

    sweep calls task(rows, *(a[k] for a in per_block)) for each block k, a
    slice of the leading axis, on a thread per usable CPU, and returns the
    results in block order; it raises what a task raised.  With one block or
    one CPU the tasks run inline.
    """
    per_block = max(1, BLOCK * shape[0] // max(1, int(np.prod(shape))))
    blocks = [slice(a, a + per_block) for a in range(0, shape[0], per_block)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(blocks))
    from concurrent.futures import ThreadPoolExecutor    # imported here: it takes ~6 ms
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        def sweep(task, *per_block):
            out = [None] * len(blocks)

            def run(first):                              # static stripes, one per worker
                for k in range(first, len(blocks), workers):
                    out[k] = task(blocks[k], *(a[k] for a in per_block))
            list((pool.map if pool else map)(run, range(workers)))
            return out
        yield sweep


def contract(plan, gather, start, degree: int, tol: float, max_iter: int | None = None):
    """Iterate T(H) = H(F(.)) / degree from start, gluing H[..., -1] = H[..., 0] + 1.

    plan(rows) builds the plan p of a block of leading-axis rows, once per
    block of ``blocked``, in its pool; gather(H, p) returns H(F(.)) on those
    rows, a new array that contract may overwrite.  start is made contiguous
    once, so no block's gather copies a broadcast start.  Stops once a step is
    at most tol*(1 - 1/|degree|), which bounds the distance to the fixed point
    by tol, and raises MaxIterExceeded if max_iter steps do not get there;
    max_iter defaults to twice the steps a 1/|degree| contraction needs, plus
    60, and at least one.  Returns (H, iterations, defect): one more sweep
    measures |H(F(.)) - degree*H| of the H returned over its body, every node
    but the glued one, and defect holds its maximum per leading index.

    A start of at most BLOCK points, the grids ``blocked`` makes one block
    of, skips the sweeps: plan(slice(None)) once, then one whole-array loop
    whose step maximum covers every node, the glued ones included (the same
    maximum and NaN as the blocks' plus the glued column's), so the same bits.
    """
    ad = abs(degree)
    if max_iter is None:
        max_iter = max(1, 2 * int(np.ceil(np.log(max(tol, 1e-300)) / np.log(1.0 / ad))) + 60)
    stop = tol * (1.0 - 1.0 / ad)

    def measure(rows, p):                        # in 1D the last block's body is one node short
        h = cur[..., :-1][rows]
        r = gather(cur, p)[..., :h.shape[-1]]
        np.subtract(r, degree * h, out=r)
        np.max(np.abs(r, out=r), axis=tuple(range(1, r.ndim)), initial=0.0, out=defect[rows])

    if start.size <= BLOCK:
        p, cur = plan(slice(None)), np.ascontiguousarray(start)
        change = np.empty(cur.shape)
        for it in range(1, max_iter + 1):
            new = gather(cur, p)
            new /= degree
            new[..., -1] = new[..., 0] + 1
            np.subtract(new, cur, out=change)    # every node, the glued ones too
            cur = new
            if np.abs(change, out=change).max() <= stop:
                break
        else:
            raise MaxIterExceeded(f"no convergence to {tol} within {max_iter} iterations")
        defect = np.empty(len(cur[..., :-1]))
        measure(slice(None), p)
        return cur, it, defect
    with blocked(start.shape) as sweep:
        plans = sweep(plan)                      # before the contiguous start: a lower peak
        cur = np.ascontiguousarray(start)
        for it in range(1, max_iter + 1):
            new = np.empty(cur.shape)

            def advance(rows, p):                # the glued column is measured once glued
                np.divide(gather(cur, p), degree, out=new[rows])
                change = np.subtract(new[..., :-1][rows], cur[..., :-1][rows])
                return np.abs(change, out=change).max(initial=0.0)
            changes = sweep(advance, plans)
            new[..., -1] = new[..., 0] + 1
            changes.append(np.abs(new[..., -1] - cur[..., -1]).max())
            cur = new
            if np.max(changes) <= stop:
                break
        else:
            raise MaxIterExceeded(f"no convergence to {tol} within {max_iter} iterations")
        defect = np.empty(len(cur[..., :-1]))
        sweep(measure, plans)
    return cur, it, defect
