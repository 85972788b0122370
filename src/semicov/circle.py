"""Degree-d circle endomorphisms represented by sampled lifts.

A map f of the circle with |degree| > 1 is stored through a lift F: R -> R
with F(x+1) = F(x) + d.  Only the samples of F on [0, 1] are kept, at N+1
uniform grid points, and evaluation extends them by the equivariance, which
therefore holds exactly.  Between samples the lift is piecewise linear, so
monotonicity is decidable and root finding reduces to bisection.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeTooSmall, NonIntegerDegree, NotACovering
from .numerics import (bisect_brackets, circle_dist, frac, periodic_gather, periodic_plan,
                       sign_changes)

DEGREE_TOL = 1e-9
MIN_SAMPLES = 16


@dataclass(eq=False)
class LiftedCircleMap:
    """Piecewise-linear lift of a degree-d circle endomorphism.

    samples[i] = F(i/N) for i = 0..N, with samples[N] = samples[0] + degree
    exactly.  Instances are treated as immutable; all operations are pure.
    """

    samples: np.ndarray
    degree: int
    is_covering: bool
    metadata: dict = field(default_factory=dict)

    @property
    def grid(self) -> int:
        return len(self.samples) - 1

    def __call__(self, x):
        """Evaluate the lift, extended by F(x + k) = F(x) + k*degree."""
        val = periodic_gather(self.samples, periodic_plan(x, self.grid, self.degree))
        return val if val.ndim else float(val)

    def iterate(self, x, n: int):
        """n-fold composition of the lift."""
        y = np.asarray(x, dtype=float)
        for _ in range(n):
            y = self.__call__(y)
        return y

    def angle(self, x):
        """Image angle in [0, 1) of the circle point with angle x."""
        return frac(self.__call__(x))


def make_lift(samples, metadata: dict | None = None) -> LiftedCircleMap:
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
    return LiftedCircleMap(s, int(d), covering, dict(metadata or {}))


def from_function(fn, n: int = 4096, metadata: dict | None = None) -> LiftedCircleMap:
    """Sample a callable lift on [0, 1] and validate it."""
    xs = np.linspace(0.0, 1.0, n + 1)
    return make_lift(fn(xs), metadata)


def model_lift(degree: int, n: int = 4096) -> LiftedCircleMap:
    """The linear model lift F(x) = degree * x."""
    xs = np.linspace(0.0, 1.0, n + 1)
    return make_lift(degree * xs, {"family": "linear", "degree": degree, "offset": 0.0})


def find_periodic_points(m: LiftedCircleMap, n: int, tol: float = 1e-9,
                         scan: int | None = None) -> list[tuple[float, int]]:
    """All angles x in [0,1) with F^n(x) - x integer, with minimal periods.

    Roots are bracketed by sign changes of F^n(x) - x - k on a dense scan
    grid (one pass per integer level k) and then bisected to tolerance tol.
    Only transversal roots are found; a run of sub-tolerance values is
    reported through its endpoints.
    """
    if not m.is_covering:
        raise NotACovering("periodic point search needs a covering map")
    if n < 1:
        raise ValueError("n must be at least 1")
    npts = scan or max(100_000, 64 * abs(m.degree) ** n)
    xs = np.linspace(0.0, 1.0, npts + 1)
    g = m.iterate(xs, n) - xs
    roots: list[float] = []
    for k in range(int(np.ceil(g.min())), int(np.floor(g.max())) + 1):
        h = g - k
        roots.extend(xs[h == 0.0])
        idx = sign_changes(h)
        if idx.size:
            found = bisect_brackets(lambda x: m.iterate(x, n) - x - k,
                                    xs[idx], xs[idx + 1], xtol=min(tol, 1e-12))
            roots.extend(found)
    roots = sorted(frac(r) for r in roots)
    out: list[tuple[float, int]] = []
    for r in roots:
        if out and circle_dist(r, out[-1][0]) <= max(tol, 2.0 / npts):
            continue
        out.append((float(r), _minimal_period(m, r, n)))
    if len(out) > 1 and circle_dist(out[0][0], out[-1][0]) <= max(tol, 2.0 / npts):
        out.pop()
    return out


def _minimal_period(m: LiftedCircleMap, x: float, n: int,
                    period_tol: float = 1e-6) -> int:
    for p in range(1, n + 1):
        if circle_dist(m.iterate(x, p), x) <= period_tol:
            return p
    return n
