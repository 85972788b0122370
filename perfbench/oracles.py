"""Oracles that judge job outputs without trusting the solver's own report.

Each function here recomputes something from the analytic map a job was
built from (never from the sampled lift the library stores) and from the
job's output values: a parsed CLI artifact or a returned field.  The
defect bounds are the benchmark's accuracy metrics:

    err_1d = sup_x |H(f(x)) - d H(x)| / (|d| - 1)
    err_2d = sup_p dist_mod1(H(F(p)), d H(p)) / (|d| - 1)

with the supremum taken over one seeded point inside every grid cell and
over the kinks of H(F(.)), the points F maps onto grid lines, where the
defect of a piecewise-linear field peaks.  It is measured off the grid
the solver iterated on.
"""
from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
LIMIT_ITERATIONS = 30         # H(x) = lim F^n(x) / d^n; d^-30 is far below every tolerance
BLOCK = 1 << 16               # points per vectorised block
BISECTIONS = 50               # halvings of [0, 1]: 1e-15, below every grid spacing


def sine_lift(d: int, amplitude: float, offset: float):
    """The analytic lift x -> d x + a sin(2 pi x) + c on the real line."""
    return lambda x: d * x + amplitude * np.sin(TWO_PI * x) + offset


def eval_field_1d(samples: np.ndarray, orientation: int, x) -> np.ndarray:
    """Piecewise-linear field on [0, 1], extended by H(x + k) = H(x) + k o."""
    n = len(samples) - 1
    x = np.asarray(x, dtype=float)
    k = np.floor(x)
    pos = (x - k) * n
    i = np.minimum(pos.astype(np.int64), n - 1)
    w = pos - i
    return samples[i] * (1.0 - w) + samples[i + 1] * w + k * orientation


def eval_field_2d(band, xs: np.ndarray, values: np.ndarray, x, y) -> np.ndarray:
    """Bilinear field on band x [0, 1], extended by H(x, y + k) = H(x, y) + k."""
    a, b = band
    nx = len(xs) - 1
    ny = values.shape[1] - 1
    px = np.clip((np.asarray(x, dtype=float) - a) / (b - a) * nx, 0.0, nx)
    i = np.minimum(px.astype(np.int64), nx - 1)
    wx = px - i
    y = np.asarray(y, dtype=float)
    k = np.floor(y)
    py = (y - k) * ny
    j = np.minimum(py.astype(np.int64), ny - 1)
    wy = py - j
    return (values[i, j] * (1 - wx) * (1 - wy) + values[i + 1, j] * wx * (1 - wy)
            + values[i, j + 1] * (1 - wx) * wy + values[i + 1, j + 1] * wx * wy + k)


def cell_points(n: int, rng: np.random.Generator) -> np.ndarray:
    """One seeded point strictly inside each of the n cells of [0, 1]."""
    return (np.arange(n) + rng.uniform(0.05, 0.95, n)) / n


def solve_monotone(g, targets: np.ndarray) -> np.ndarray:
    """Solve g(y) = targets on [0, 1] for an elementwise monotone g, by bisection."""
    lo, hi = np.zeros_like(targets), np.ones_like(targets)
    rising = g(hi) > g(lo)
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = (g(mid) < targets) == rising
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def grid_preimages(f, n: int) -> np.ndarray:
    """Points of [0, 1] that f maps onto the grid k/n.

    With H piecewise linear on that grid, these are the kinks of H(f(x)),
    where the defect |H(f(x)) - d H(x)| peaks between the nodes.
    """
    lo, hi = sorted((float(f(0.0)), float(f(1.0))))
    targets = np.arange(np.ceil(lo * n), np.floor(hi * n) + 1) / n
    return np.concatenate([solve_monotone(f, targets[i:i + BLOCK])
                           for i in range(0, len(targets), BLOCK)] or [np.empty(0)])


def defect_bound_1d(samples, orientation: int, d: int, f, rng, kinks=None) -> float:
    """err_1d of a sampled 1D field against the analytic lift f.

    The supremum runs over the kinks of H(f(x)) (pass grid_preimages(f, N)
    once and reuse it) and one seeded point per cell.  Evaluated in blocks
    so that the check stays small beside the workload's own memory.
    """
    x_all = cell_points(len(samples) - 1, rng)
    if kinks is not None:
        x_all = np.concatenate([kinks, x_all])
    h = lambda t: eval_field_1d(samples, orientation, t)
    worst = 0.0
    for start in range(0, len(x_all), BLOCK):
        x = x_all[start:start + BLOCK]
        worst = max(worst, float(np.max(np.abs(h(f(x)) - d * h(x)))))
    return worst / (abs(d) - 1)


def circle_gap(a, b) -> np.ndarray:
    """Distance between a and b on the circle of length 1."""
    t = np.asarray(a, dtype=float) - b
    return np.abs(t - np.round(t))


def band_points(band, nx: int, ny: int, fmap, rng) -> tuple[np.ndarray, np.ndarray]:
    """One seeded x inside each column cell; at each, one seeded y per row cell
    plus the y that the fiber maps onto the row grid (the kinks in y)."""
    a, b = band
    px = a + (b - a) * cell_points(nx, rng)
    py = cell_points(ny, rng)
    x0 = np.repeat(px, ny)
    y0 = np.tile(py, nx)
    lo = fmap(px, np.zeros(nx))[1]
    hi = fmap(px, np.ones(nx))[1]
    first = np.ceil(np.minimum(lo, hi) * ny).astype(np.int64)
    count = np.floor(np.maximum(lo, hi) * ny).astype(np.int64) - first + 1
    xk = np.repeat(px, count)
    targets = (np.repeat(first, count) + np.arange(count.sum())
               - np.repeat(np.cumsum(count) - count, count)) / ny
    yk = solve_monotone(lambda y: fmap(xk, y)[1], targets)
    return np.concatenate([x0, xk]), np.concatenate([y0, yk])


def defect_bound_2d(band, xs, values, d: int, fmap, rng) -> float:
    """err_2d of a sampled band field against the analytic skew product fmap.

    Points whose image leaves the band are skipped: the field is not
    defined there, so the defect cannot be measured.
    """
    a, b = band
    x, y = band_points(band, len(xs) - 1, values.shape[1] - 1, fmap, rng)
    fx, fy = fmap(x, y)
    keep = (fx >= a) & (fx <= b)
    if not keep.any():
        raise ValueError("no sample point maps back into the band")
    x, y, fx, fy = x[keep], y[keep], fx[keep], fy[keep]
    h = lambda p, q: eval_field_2d(band, xs, values, p, q)
    return float(np.max(circle_gap(h(fx, fy), d * h(x, y)))) / (abs(d) - 1)


def limit_semiconjugacy(f, d: int, x) -> np.ndarray:
    """H(x) = lim F^n(x) / d^n, the orientation-preserving solution."""
    y = np.asarray(x, dtype=float)
    for _ in range(LIMIT_ITERATIONS):
        y = f(y)
    return y / float(d) ** LIMIT_ITERATIONS


def affine_semiconjugacy(d: int, offset: float, x) -> np.ndarray:
    """Exact field of the affine lift d x + c: H(x) = x + c / (d - 1)."""
    return np.asarray(x, dtype=float) + offset / (d - 1)


def periodic_defect(f, n: int, roots) -> float:
    """Worst distance of F^n(x) - x from an integer over the reported roots."""
    x = np.asarray(roots, dtype=float)
    y = x.copy()
    for _ in range(n):
        y = f(y)
    g = y - x
    return float(np.max(np.abs(g - np.round(g)), initial=0.0))


# ---------------------------------------------------------------------------
# artifact parsing: CSV artifacts start with one '# key=value' meta line
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError("CSV artifact lacks its meta line")
    meta = dict(item.split("=", 1) for item in lines[0][2:].split())
    header = lines[1].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return meta, header, rows.reshape(-1, len(header))


def field_1d_from_csv(text: str) -> tuple[np.ndarray, float]:
    """Samples H(i/N) and the reported residual of a semiconj1d artifact."""
    meta, header, rows = parse_csv(text)
    if header != ["x", "H"]:
        raise ValueError(f"unexpected semiconj1d header {header}")
    n = len(rows) - 1
    if np.max(np.abs(rows[:, 0] - np.linspace(0.0, 1.0, n + 1))) > 1e-11:
        raise ValueError("semiconj1d artifact is not on the uniform grid")
    return rows[:, 1], float(meta["residual"])


def field_2d_from_csv(text: str) -> tuple[np.ndarray, np.ndarray, float]:
    """x samples, values (nx, ny+1) and the reported residual of a semiconj2d artifact."""
    meta, header, rows = parse_csv(text)
    if header != ["x", "y", "H"]:
        raise ValueError(f"unexpected semiconj2d header {header}")
    xs = np.unique(rows[:, 0])
    values = rows[:, 2].reshape(len(xs), -1)
    return xs, values, float(meta["residual"])


def curves_from_csv(text: str) -> list[np.ndarray]:
    """Height arrays of the curves in a repellers artifact."""
    _, header, rows = parse_csv(text)
    if header != ["curve_id", "x", "y"]:
        raise ValueError(f"unexpected repellers header {header}")
    ids = rows[:, 0].astype(int)
    return [rows[ids == k, 2] for k in np.unique(ids)]


def root_of_unity_gap(heights: np.ndarray, d: int) -> float:
    """Sup distance of a curve from the nearest lifted line j / (d - 1) + k."""
    m = abs(d - 1)
    scaled = heights * m
    line = np.round(np.mean(scaled))
    return float(np.max(np.abs(scaled - line))) / m
