"""A pointwise-small perturbation of z -> z^2 on the punctured disc that
cannot be conjugate to it.

The perturbed map g squares the radius and applies, on each circle, an
increasing bump phi that contracts a shrinking angular window, so that the
sector R = {x < 1/2, |t| < rho(x)} becomes forward invariant and g is
injective on R.  The unperturbed squaring map doubles angular widths and
so is injective on no forward-invariant open set; with the perturbation
kept below any prescribed positive profile eps(x), no profile-bounded
neighborhood of the squaring map is a single conjugacy class.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annulus import AnnulusMapLift, BaseMap, FiberMap, make_skew_product
from .errors import BadParams, OutOfDomain
from .schema import Family, number, positive

TWO_PI = 2.0 * np.pi


def bump_phi(rho: float, rho_p: float, t):
    """Increasing odd piecewise-linear bump: +-rho -> +-rho', 2t outside.

    Knots at |t| = rho (value rho') and |t| = 2*rho (value 4*rho); beyond
    that phi(t) = 2t exactly.  The deviation |phi(t) - 2t| is maximized at
    the first knot with value exactly 2*rho - rho'.  Continuous in
    (t, rho, rho').
    """
    if not 0.0 < rho_p <= rho:
        raise BadParams(f"need 0 < rho' <= rho, got rho={rho}, rho'={rho_p}")
    out = _bump(rho, rho_p, np.asarray(t, dtype=float))
    return out if out.ndim else float(out)


def _bump(rho, rho_p, t):
    """bump_phi's arithmetic, elementwise over arrays of rho, rho' and t."""
    a = np.abs(t)
    inner = a * (rho_p / rho)
    mid = rho_p + (a - rho) * (4.0 * rho - rho_p) / rho
    return np.sign(t) * np.where(a <= rho, inner, np.where(a <= 2.0 * rho, mid, 2.0 * a))


_PROFILE = {"value": (0.1, positive), "power": (1.0, number)}
EPSILONS = {                        # family -> (schema, (x, value, power) -> eps(x))
    "const": Family(_PROFILE, lambda x, value, power: np.full_like(x, value)),
    "edge_poly": Family(_PROFILE,
                        lambda x, value, power: value * (4.0 * x * (1.0 - x)) ** power),
}


@dataclass(frozen=True)
class EpsilonSpec:
    """Radial closeness profile eps(x) > 0 on (0,1), one family of ``EPSILONS``:
    const (value; power unused) | edge_poly (value * (4 x (1-x))^power)."""

    kind: str = "const"
    value: float = 0.1
    power: float = 1.0

    def __call__(self, x):
        out = EPSILONS[self.kind].call(np.asarray(x, dtype=float), self.value, self.power)
        return out if out.ndim else float(out)


class RadialProfile:
    """Piecewise-linear radial function on [x_min, 1), log-spaced samples."""

    def __init__(self, xs: np.ndarray, values: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self._logx = np.log(self.xs)

    @property
    def x_min(self) -> float:
        return float(self.xs[0])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.x_min * (1 - 1e-12)) or np.any(x >= 1.0):
            raise OutOfDomain(f"radial profile defined on [{self.x_min}, 1)")
        v = np.interp(np.log(x), self._logx, self.values)
        return v if v.ndim else float(v)


def radial_rho(eps: EpsilonSpec, samples_per_band: int = 512,
               x_min: float = 1e-12) -> RadialProfile:
    """Angular window profile: 2*rho < eps everywhere, rho(x^2) < rho(x).

    Built band by band over the fundamental domains [x^2, x] of the
    squaring map, from [1/4, 1/2] inward: edge values shrink by a fixed
    factor, and band interiors take the minimum of the eps cap, a bridge
    between the edge values, and a strict fraction of rho at sqrt(x).
    The edge values never touch the other caps at the seams, so the
    profile is continuous.
    """
    edges = [0.5]
    while edges[-1] ** 2 > x_min:
        edges.append(edges[-1] ** 2)
    edges.append(x_min)

    pieces: list[tuple[np.ndarray, np.ndarray]] = []   # outermost first
    e_right = 0.49 * float(np.min(eps(np.linspace(0.25, 0.5, 256))))
    for hi, lo in zip(edges[:-1], edges[1:]):
        xs = np.geomspace(lo, hi, samples_per_band)
        cap = 0.49 * np.asarray(eps(xs))
        e_left = 0.8 * min(e_right, float(cap.min()))
        s = (np.log(xs) - np.log(lo)) / (np.log(hi) - np.log(lo))
        vals = np.minimum(cap, e_left + (e_right - e_left) * s)
        if pieces:
            parent_xs, parent_vals = pieces[-1]
            parent = np.interp(np.log(np.sqrt(xs)), np.log(parent_xs), parent_vals)
            vals = np.minimum(vals, 0.99 * parent)
        pieces.append((xs, vals))
        e_right = e_left

    xs_all = np.concatenate([xs[:-1] for xs, _ in reversed(pieces)])
    vals_all = np.concatenate([v[:-1] for _, v in reversed(pieces)])
    # the eps cap above 1/2, refined geometrically toward the outer boundary
    top = 1.0 - np.geomspace(0.5, 1e-9, samples_per_band)
    top_vals = np.minimum(pieces[0][1][-1], 0.49 * np.asarray(eps(top)))
    return RadialProfile(np.concatenate([xs_all, top]),
                         np.concatenate([vals_all, top_vals]))


@dataclass(eq=False)
class PerturbationSpec:
    epsilon: EpsilonSpec
    delta: float
    rho: RadialProfile
    g: AnnulusMapLift
    meta: dict = field(default_factory=dict)


def perturb_p2(eps: EpsilonSpec, x_min: float = 1e-12) -> PerturbationSpec:
    """The perturbed covering g(x e^{it}) = x^2 e^{i phi_{rho(x), rho(x^2)}(t)}.

    g equals the squaring map wherever |t| > 2 rho(x).  The fiber lift
    applies the bump on the wrapped fundamental angle (-pi, pi], which
    glues to a degree-2 lift because phi(t) = 2t near the seam.
    """
    rho = radial_rho(eps, x_min=x_min)

    def fiber_fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        wrap = y - np.round(y)                  # fundamental angle in turns
        phi = _bump(np.asarray(rho(x)), np.asarray(rho(x ** 2)), TWO_PI * wrap)
        return phi / TWO_PI + 2.0 * (y - wrap)

    fiber = FiberMap(2, fn=fiber_fn)
    g = make_skew_product(BaseMap("power", (2.0,)), fiber,
                          metadata={"family": "perturbed-squaring"})
    eps_sup = float(np.max(eps(np.linspace(max(x_min, 1e-6), 1.0, 4096, endpoint=False))))
    delta = max(1e-3, 1.1 * eps_sup)
    return PerturbationSpec(eps, delta, rho, g)


def verify_perturbation(spec: PerturbationSpec, grid: int = 100_000,
                        r_samples: int = 10_000, disc_width: float = 0.01,
                        seed: int = 0) -> dict:
    """Check every inequality the non-conjugacy argument uses.

    (i) sup |g - p2| / eps over a grid (expect < 1); (ii) forward
    invariance of the sector R on sampled points; (iii) an injectivity
    certificate for g on R (strict fiber monotonicity plus a base that
    strictly increases on the sampled radii); (iv) the iterate count after
    which the squaring map loses injectivity on any disc of the given
    angular width; (v) that the radius of g(x, t) does not vary with t on
    the grid, so g preserves the circle foliation.
    """
    rng = np.random.default_rng(seed)
    eps, rho, g = spec.epsilon, spec.rho, spec.g

    n = int(np.sqrt(grid))
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1.0 - 1e-9), n))
    ts = np.linspace(-np.pi, np.pi, grid // n, endpoint=False)
    xg, tg = np.meshgrid(xs, ts, indexing="ij")
    gx, gy = g(xg, tg / TWO_PI)
    p2 = xg ** 2 * np.exp(2j * tg)
    gz = xg ** 2 * np.exp(TWO_PI * 1j * gy)
    ratio = np.abs(gz - p2) / eps(xg)
    sup_ratio = float(np.max(ratio))

    x_r = np.exp(rng.uniform(np.log(1e-6), np.log(0.5 - 1e-12), r_samples))
    np.clip(x_r, 1e-6, 0.5 * (1 - 1e-12), out=x_r)
    rho_x = np.asarray(rho(x_r))
    t_r = rng.uniform(-1.0, 1.0, r_samples) * rho_x * (1 - 1e-12)
    _, y_img = g(x_r, t_r / TWO_PI)
    t_img = TWO_PI * (y_img - np.round(y_img))
    inside = (x_r ** 2 < 0.5) & (np.abs(t_img) < np.asarray(rho(x_r ** 2)))
    invariance_fraction = float(np.mean(inside))

    cert_x = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 4096))
    r_v = np.asarray(rho(cert_x))
    rp_v = np.asarray(rho(cert_x ** 2))
    slopes_ok = bool(np.all(rp_v > 0) and np.all(rp_v <= r_v)
                     and np.all((4 * r_v - rp_v) / r_v > 0))
    base_ok = bool(np.all(np.diff(np.asarray(g.base(cert_x))) > 0))
    certificate = {
        "fiber_slopes_positive": slopes_ok,
        "base_injective_on_sector": base_ok,
        "injective_on_sector": slopes_ok and base_ok,
    }

    noninj_iterates = int(np.ceil(np.log2(TWO_PI / disc_width)))

    return {
        "sup_ratio": sup_ratio,
        "ratio_ok": sup_ratio < 1.0,
        "invariance_fraction": invariance_fraction,
        "injectivity": certificate,
        "squaring_noninjective_after": noninj_iterates,
        "disc_width": disc_width,
        "foliation_preserved": bool(np.all(gx == gx[:, :1])),
        "grid": grid,
        "r_samples": r_samples,
        "delta": spec.delta,
    }
