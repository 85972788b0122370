"""Degree-d circle endomorphisms represented by sampled lifts.

A map f of the circle with |degree| > 1 is stored through a lift F: R -> R
with F(x+1) = F(x) + d.  Only the samples of F on [0, 1] are kept, at N+1
uniform grid points, and evaluation extends them by the equivariance, which
therefore holds exactly.  Between samples the lift is piecewise linear, so
monotonicity is decidable and root finding reduces to bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreeTooSmall, NonIntegerDegree, NotACovering, ValidationError
from .numerics import bisect_brackets, circle_dist, frac, periodic_gather, periodic_plan
from .schema import MAX_SIZE

DEGREE_TOL = 1e-9
MIN_SAMPLES = 16
CHUNK = 2 ** 14                       # points per chunk of iterate: F^n of a chunk stays in L2
STRIDE = 64                           # scan cells per coarse cell of find_periodic_points


@dataclass(eq=False)
class LiftedCircleMap:
    """Piecewise-linear lift of a degree-d circle endomorphism.

    samples[i] = F(i/N) for i = 0..N, with samples[N] = samples[0] + degree
    exactly.  Instances are treated as immutable; all operations are pure.
    """

    samples: np.ndarray
    degree: int
    is_covering: bool

    @property
    def grid(self) -> int:
        return len(self.samples) - 1

    def __call__(self, x):
        """Evaluate the lift, extended by F(x + k) = F(x) + k*degree."""
        val = periodic_gather(self.samples, periodic_plan(x, self.grid, self.degree))
        return val if val.ndim else float(val)

    def inverse(self, t):
        """F^-1(t) for a covering: shift t by k periods into F([0, 1]), interpolate, add k."""
        t = np.asarray(t, dtype=float)
        k = np.floor((t - self.samples[0]) / self.degree)
        s = 1 if self.degree > 0 else -1
        xs = np.linspace(0.0, 1.0, self.grid + 1)
        return np.interp(t - k * self.degree, self.samples[::s], xs[::s]) + k

    def iterate(self, x, n: int):
        """n-fold composition of the lift, composed n times per chunk of CHUNK points."""
        y = np.asarray(x, dtype=float)
        if y.size > CHUNK:
            out = np.empty(y.shape)
            flat, dst = y.ravel(), out.reshape(-1)
            for a in range(0, y.size, CHUNK):
                dst[a:a + CHUNK] = self.iterate(flat[a:a + CHUNK], n)
            return out
        for _ in range(n):
            y = self.__call__(y)
        return y


def make_lift(samples) -> LiftedCircleMap:
    """Validate lift samples and build a LiftedCircleMap.

    The endpoint difference F(1) - F(0) must round to an integer d with
    |d| > 1 within 1e-9; the last sample is then replaced by
    samples[0] + d so equivariance is exact.  The covering flag is set
    from strict sample monotonicity (sufficient, not necessary).
    """
    s = np.asarray(samples, dtype=float).copy()
    if s.ndim != 1 or len(s) < MIN_SAMPLES + 1:
        raise ValueError(f"need at least {MIN_SAMPLES + 1} samples, got {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("lift samples must be finite")
    span = s[-1] - s[0]
    d = round(span)
    if abs(span - d) > DEGREE_TOL:
        raise NonIntegerDegree(f"F(1)-F(0) = {span!r} is not an integer")
    if abs(d) <= 1:
        raise DegreeTooSmall(f"|degree| must exceed 1, got {d}")
    s[-1] = s[0] + d
    steps = np.diff(s)
    covering = bool(np.all(steps > 0)) if d > 0 else bool(np.all(steps < 0))
    return LiftedCircleMap(s, int(d), covering)


def from_function(fn, n: int = 4096) -> LiftedCircleMap:
    """Sample a callable lift on [0, 1] and validate it."""
    xs = np.linspace(0.0, 1.0, n + 1)
    return make_lift(fn(xs))


def model_lift(degree: int, n: int = 4096) -> LiftedCircleMap:
    """The linear model lift F(x) = degree * x."""
    xs = np.linspace(0.0, 1.0, n + 1)
    return make_lift(degree * xs)


def find_periodic_points(m: LiftedCircleMap, n: int, tol: float = 1e-9
                         ) -> list[tuple[float, int]]:
    """All angles x in [0,1) with F^n(x) - x integer, with minimal periods.

    Roots are bracketed by sign changes of F^n(x) - x - k on a dense scan
    grid, for every integer level k the scan interval reaches, and all
    brackets are bisected together to tolerance tol.  Only transversal
    roots are found; a run of sub-tolerance values is reported through its
    endpoints.  The scan has max(100000, 64 |d|^n) cells; more than
    MAX_SIZE raises ValidationError before anything is allocated.

    F^n of a covering is monotone, so on a coarse cell [a, b] of STRIDE scan
    cells F^n(x) - x lies in [min(F^n(a), F^n(b)) - b, max(...) - a].  Only
    cells whose bound, padded by max(1e-9, n L^n (L + S) 2^-46), reaches a
    level are scanned: with L the largest slope and S the largest |sample|,
    step j rounds by under 5 L^j (L + S) 2^-53 and each later step scales
    that by at most L, so the pad exceeds twice the error of F^n - x.
    """
    if not m.is_covering:
        raise NotACovering("periodic point search needs a covering map")
    if n < 1:
        raise ValueError("n must be at least 1")
    # |d| >= 2, so n past log2(MAX_SIZE) alone is over the limit: no huge power
    if n >= MAX_SIZE.bit_length() or 64 * abs(m.degree) ** n > MAX_SIZE:
        raise ValidationError(f"n {n} needs 64*{abs(m.degree)}^{n} scan nodes, "
                              f"more than {MAX_SIZE}")
    npts = max(100_000, 64 * abs(m.degree) ** n)
    xs = np.linspace(0.0, 1.0, npts + 1)
    ends = np.append(np.arange(0, npts, STRIDE), npts)          # the coarse nodes
    f = m.iterate(xs[ends], n)
    slope = np.abs(np.diff(m.samples)).max() * m.grid
    pad = max(1e-9, n * slope ** n * (slope + np.abs(m.samples).max()) * 2.0 ** -46)
    lo = np.minimum(f[:-1], f[1:]) - xs[ends[1:]] - pad
    hi = np.maximum(f[:-1], f[1:]) - xs[ends[:-1]] + pad
    near = ends[:-1][np.ceil(lo) <= np.floor(hi)]
    x = xs[np.minimum(near[:, None] + np.arange(STRIDE + 1), npts)]   # a row per kept cell
    g = m.iterate(x, n) - x
    # candidate (interval i, level k): every integer k in [min, max] of g on the interval
    k_lo = np.ceil(np.minimum(g[:, :-1], g[:, 1:]).ravel())
    count = (np.floor(np.maximum(g[:, :-1], g[:, 1:]).ravel()) - k_lo + 1).astype(np.int64)
    cells = np.flatnonzero(count)                   # only the cells that reach a level
    count, k_lo = count[cells], k_lo[cells]
    i = np.repeat(cells + cells // STRIDE, count)   # the interval's left node in g.ravel()
    k = np.repeat(k_lo, count) + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    cross = (g.take(i) - k) * (g.take(i + 1) - k) < 0   # strict sign change of g - k
    i, k = i[cross], k[cross]
    roots = [x[g == np.floor(g)],                   # exact roots at an integer level
             bisect_brackets(lambda t: m.iterate(t, n) - t - k, x.take(i), x.take(i + 1),
                             xtol=min(tol, 1e-12))]
    gap = max(tol, 2.0 / npts)                      # also drops a root repeated at a cell end
    kept: list[float] = []
    for r in np.sort(frac(np.concatenate(roots))):
        if not (kept and circle_dist(r, kept[-1]) <= gap):
            kept.append(float(r))
    if len(kept) > 1 and circle_dist(kept[0], kept[-1]) <= gap:
        kept.pop()
    return list(zip(kept, _minimal_periods(m, np.array(kept), n).tolist()))


def _minimal_periods(m: LiftedCircleMap, x: np.ndarray, n: int) -> np.ndarray:
    """Least p in 1..n with F^p(x) = x mod 1 within 1e-6, per point; n if none."""
    period = np.zeros(x.size, dtype=np.int64)
    y = x
    for p in range(1, n + 1):
        y = m(y)
        period[(period == 0) & (circle_dist(y, x) <= 1e-6)] = p
    return np.where(period == 0, n, period)
