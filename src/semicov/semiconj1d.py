"""Semiconjugacy of a degree-d circle map with the model z -> z^d.

The lift H of the semiconjugacy is the unique fixed point of the operator
T(H)(x) = H(F(x)) / d on the space of continuous H with H(x+1) = H(x) + o
(orientation o = +-1), where T contracts the sup metric by 1/|d|; T commutes
with H -> -H, so only o = 1 fields are iterated, on the map's grid, to a
distance-from-fixed-point tolerance via the Banach estimate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import LiftedCircleMap
from .errors import DegreeMismatch, OutOfDomain
from .numerics import compact, contract, frac, periodic_gather, periodic_plan


@dataclass(eq=False)
class SemiconjugacyField1D:
    """Sampled lift H of a semiconjugacy, with H(x+1) = H(x) + orientation.

    samples[i] = H(i/N), samples[N] = samples[0] + orientation exactly.
    residual is sup |H(F(x)) - d H(x)| over the nodes x = i/N, i < N, only.
    """

    samples: np.ndarray
    orientation: int
    degree: int
    residual: float = float("nan")
    iterations: int = 0

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def grid(self) -> int:
        return len(self.samples) - 1

    def __call__(self, x):
        val = periodic_gather(self.samples, periodic_plan(x, self.grid, self.orientation))
        return val if val.ndim else float(val)


def contraction_step(h: SemiconjugacyField1D, m: LiftedCircleMap) -> SemiconjugacyField1D:
    """One application of T(H) = H(F(.)) / d; a NaN or inf sample raises OutOfDomain.

    Preserves the equivariance class of H and contracts sup distances
    between fields by 1/|d| up to interpolation slack.
    """
    if h.degree != m.degree:
        raise DegreeMismatch(f"field degree {h.degree} vs map degree {m.degree}")
    if not np.isfinite(h.samples).all():
        raise OutOfDomain("field samples must be finite")
    new, _, defect = contract(_pullback(m, np.linspace(0.0, 1.0, h.grid + 1)), periodic_gather,
                              h.orientation * h.samples, m.degree, tol=np.inf, max_iter=1)
    new *= h.orientation                        # an orientation -1 field is negated in and out
    return SemiconjugacyField1D(new, h.orientation, h.degree, float(defect.max()))


def _pullback(m: LiftedCircleMap, nodes: np.ndarray):
    """rows -> the compact plan that gathers an orientation 1 H at F of those grid nodes."""
    return lambda rows: compact(periodic_plan(m(nodes[rows]), len(nodes) - 1, 1))


def solve_semiconjugacy(m: LiftedCircleMap, orientation: int = 1,
                        tol: float = 1e-8) -> SemiconjugacyField1D:
    """Fixed point of T to sup-distance tol from H0(x) = x, negated for orientation -1.

    Iteration stops when the step size drops below tol*(1 - 1/|d|), which
    bounds the remaining distance to the fixed point by tol.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    nodes = np.linspace(0.0, 1.0, m.grid + 1)      # the plan's nodes and the start H0(x) = x
    cur, it, defect = contract(_pullback(m, nodes), periodic_gather, nodes, m.degree, tol)
    if orientation == -1:
        np.negative(cur, out=cur)
    return SemiconjugacyField1D(cur, orientation, m.degree, float(defect.max()), it)


def rotation_number(m: LiftedCircleMap, x, tol: float = 1e-10):
    """Value H(x) of the orientation-preserving grid field solved to tol.

    This is the piecewise-linear field on the map's grid, not the limit
    lim F^n(x)/d^n of the stored lift: at 256 points of the sine map of
    degree 2, amplitude 0.3 and offset 0.2 the two differ by up to 1.3e-3
    (ROADMAP item 13 step A).
    """
    return solve_semiconjugacy(m, 1, tol)(x)


@dataclass(frozen=True)
class SelfConjugacy:
    """Circle homeomorphism commuting with z -> z^d.

    Acts on angles as theta -> rotation_index/modulus + s*theta with
    s = -1 when reflect else +1, modulus = |d - 1|.  The 2*modulus such
    maps form a dihedral group.
    """

    rotation_index: int
    reflect: bool
    modulus: int

    def apply_angle(self, theta):
        s = -1.0 if self.reflect else 1.0
        return frac(self.rotation_index / self.modulus + s * np.asarray(theta, dtype=float))

    def compose(self, other: "SelfConjugacy") -> "SelfConjugacy":
        if self.modulus != other.modulus:
            raise DegreeMismatch("cannot compose self-conjugacies of different groups")
        s = -1 if self.reflect else 1
        j = (self.rotation_index + s * other.rotation_index) % self.modulus
        return SelfConjugacy(j, self.reflect != other.reflect, self.modulus)

    def inverse(self) -> "SelfConjugacy":
        if self.reflect:
            return self
        return SelfConjugacy((-self.rotation_index) % self.modulus, False, self.modulus)

    @property
    def is_identity(self) -> bool:
        return self.rotation_index == 0 and not self.reflect


def self_conjugacies(d: int) -> list[SelfConjugacy]:
    """All 2|d-1| circle maps commuting with z -> z^d.

    Rotations by (d-1)-st roots of unity and their compositions with
    complex conjugation.
    """
    if abs(d) <= 1:
        raise ValueError("|d| must exceed 1")
    mod = abs(d - 1)
    out = [SelfConjugacy(j, False, mod) for j in range(mod)]
    out += [SelfConjugacy(j, True, mod) for j in range(mod)]
    return out
