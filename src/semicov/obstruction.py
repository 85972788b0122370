"""Winding obstruction for semiconjugacies of annulus coverings.

When a semiconjugacy with z -> z^d exists, lifts of multiplied loops
through iterates cannot wind arbitrarily: with M the deviation bound of
the semiconjugacy lift on a compact band, every admissible lift winds at
most 2M+1 times across the reference connector.  The scanner measures
windings directly; the growth table certifies, at the bookkeeping level
of lifted endpoint heights, a family of glued coverings whose windings
grow without bound, so no single constant can work for them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annulus import AnnulusMapLift
from .errors import FiberNotMonotone, OutOfDomain, ValidationError
from .numerics import frac
from .semiconj2d import BandField2D

MAX_STARTS_LOG2 = 18                  # star_condition_scan lifts at most 2^18 starts per (n, j)


@dataclass
class WindingRecord:
    n: int
    j: int
    start: tuple[float, float]
    end_height: float
    winding: int
    ambiguous_endpoint: bool = False


@dataclass(eq=False)
class WindingReport:
    """Scan records on a band, with the deviation bound M of the supplied field.

    M is the field's deviation_bound, the node maximum of |H - y|, exact for
    the bilinear field; implied_bound is 2M+1.
    """

    band: tuple[float, float]
    records: list[WindingRecord]
    deviation_bound: float | None = None

    @property
    def max_winding(self) -> int:
        return max((r.winding for r in self.records), default=0)

    def max_per_n(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            out[r.n] = max(out.get(r.n, 0), r.winding)
        return out

    @property
    def implied_bound(self) -> float | None:
        return None if self.deviation_bound is None else 2.0 * self.deviation_bound + 1.0

    @property
    def satisfied(self) -> bool | None:
        if self.implied_bound is None:
            return None
        return self.max_winding <= self.implied_bound


def _composite_fiber(m: AnnulusMapLift, x_start: float, n: int):
    """The composed fiber lift over x_start and its inverse."""
    xs_chain = [float(x_start)]
    for _ in range(n - 1):
        nxt = float(np.asarray(m.base(xs_chain[-1])))
        if not 0.0 < nxt < 1.0:
            raise OutOfDomain(f"base orbit left (0,1) at {nxt}")
        xs_chain.append(nxt)

    def forward(y):                     # y and t: float arrays
        for xc in xs_chain:
            y = m.fiber(np.full_like(y, xc), y)
        return y

    def inverse(t):
        for xc in reversed(xs_chain):
            t = m.fiber.inverse(xc, t)
        return t

    return forward, inverse


def lift_loop_winding(forward, inverse, n: int, j: int, x: float,
                      y0: np.ndarray) -> list[WindingRecord]:
    """Records of the j-fold loop lifted through the chain from each start height y0 over x.

    For skew products the lift from y0 is the unique monotone fiber solution
    beta(t) with G_n(beta(t)) = G_n(y0) + j*t, so no branch continuation
    ambiguity arises.  The winding against the reference connector at angle
    0 is the floor difference of the endpoint heights; an endpoint within
    1e-8 of an integer height is flagged ambiguous.
    """
    end = inverse(forward(y0) + j)
    winding = np.abs(np.floor(end) - np.floor(y0)).astype(int)
    amb = np.minimum(np.abs(end - np.round(end)), np.abs(y0 - np.round(y0))) < 1e-8
    return [WindingRecord(n, j, (float(x), y), e, w, a)
            for y, e, w, a in zip(y0.tolist(), end.tolist(), winding.tolist(), amb.tolist())]


def star_condition_scan(m: AnnulusMapLift, band: tuple[float, float], n_max: int,
                        h_field: BandField2D | None = None) -> WindingReport:
    """Measure windings over n <= n_max, systematic j, all preimage branches.

    For each n the loop, at angle 1/4, is taken in the fiber over the n-th
    base image of the anchor column at the band's midpoint, so every lift
    endpoint lies exactly on the anchor column inside the band.  j ranges
    over {1, ceil(d^(n-1)/2), d^(n-1)}, and all d^n starts of one (n, j)
    are lifted in one pass; |d|^n_max above 2^MAX_STARTS_LOG2 is refused.
    When a semiconjugacy field is supplied, its band must contain the scan
    band (else OutOfDomain), and the report records as M the field's
    deviation_bound, the node maximum of |H - y|, exact for the bilinear
    field, with the implied winding bound 2M+1.

    On a skew product with a monotone fiber, G_n is a monotone lift of
    degree d^n, so G_n^-1(G_n(y0) + j) lies within one unit of y0 for
    j <= |d|^n and every winding is 0 or 1: on such maps, which are all
    the maps semicov builds, the scan is a consistency check.
    """
    base_angle, x_anchor = 0.25, 0.5 * (band[0] + band[1])
    if m.fiber.slope_range(np.array([x_anchor]))[0] <= 0:
        raise FiberNotMonotone("loop lifting needs a monotone fiber")
    if h_field is not None and not h_field.band[0] <= band[0] <= band[1] <= h_field.band[1]:
        raise OutOfDomain(f"scan band {band} is not inside the field band {h_field.band}")
    d = abs(m.degree)
    # |d| >= 2, so n_max > MAX_STARTS_LOG2 alone is over the limit: no huge power
    if n_max > MAX_STARTS_LOG2 or d ** n_max > 2 ** MAX_STARTS_LOG2:
        raise ValidationError(f"nmax {n_max} needs {d}^{n_max} starts per loop, "
                              f"more than 2^{MAX_STARTS_LOG2}")
    records: list[WindingRecord] = []
    for n in range(1, n_max + 1):
        forward, inverse = _composite_fiber(m, x_anchor, n)
        g0 = float(forward(np.array([0.0]))[0])
        # all d^n fiber preimages of the loop base point over the anchor;
        # any d^n consecutive target offsets cover the branches mod 1
        first = np.ceil(g0 - base_angle) + np.arange(d ** n)
        starts = np.sort(frac(inverse(base_angle + first)))
        for j in sorted({1, max(1, int(np.ceil(d ** (n - 1) / 2))), max(1, d ** (n - 1))}):
            records += lift_loop_winding(forward, inverse, n, j, x_anchor, starts)
    return WindingReport(band, records, None if h_field is None else h_field.deviation_bound)


# ---------------------------------------------------------------------------
# unbounded-winding family: endpoint-height bookkeeping
# ---------------------------------------------------------------------------

def counterexample_growth_table(n_max: int) -> list[dict]:
    """Certified winding lower bounds n-1 for n = 2..n_max.

    Bookkeeping of lifted endpoint heights in the glued family: the n-th
    covering doubles angles on bands of radii (k+1)/(n+3), k < n+2, and
    re-glues one band so that the lift of an arc of winding n (heights 0 to
    n) and a disjoint arc at angle 1/2 share an image point.  Its marked
    points sit at x' = 0 and y' = n + 2^-n over loops of multiplicity up to
    2^(n-1); a row is verified when y' > n and y' - x' > n - 1.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if n_max > 47:                      # y_prime_height n + 2^-n rounds to n from n = 48 on
        raise ValidationError(f"nmax must be at most 47 (n + 2^-n == n from 48 on), got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        x_prime, y_prime = 0.0, float(n) + 0.5 / 2 ** (n - 1)
        rows.append({
            "n": n,
            "lower_bound": n - 1,
            "x_prime_height": x_prime,
            "y_prime_height": y_prime,
            "height_separation": y_prime - x_prime,
            "j_max": 2 ** (n - 1),
            "radii": [(k + 1) / (n + 3) for k in range(n + 2)],
            "invariants_verified": y_prime > n and y_prime - x_prime > n - 1,
        })
    return rows
