"""Classification data for circle coverings and blow-up test-map synthesis.

A degree-d covering collapses, under its semiconjugacy h with z -> z^d,
a countable family of plateau intervals.  The classification data consists
of the degree, the h-images of the plateaus, and, for periodic plateaus,
a finite signature of the first-return interval map.  Two data sets are
compared up to the self-conjugacy group of z -> z^d.

Test maps are synthesized by the inverse construction: pick orbits of the
model map, open an interval at every orbit point (and at preimages up to a
truncation depth, with geometrically shrinking lengths), and insert a
prescribed interval homeomorphism at the first return of a periodic orbit.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .circle import LiftedCircleMap, make_lift
from .errors import Clash, NotACovering, NotInvariant, Overfull, ValidationError
from .numerics import bisect_brackets, circle_dist, frac, sign_changes
from .schema import REQUIRED, config, number, positive, take
from .semiconj1d import (SelfConjugacy, SemiconjugacyField1D, self_conjugacies,
                         solve_semiconjugacy)

# Piecewise-linear insert homeomorphisms of [0,1]: knots -> values.
INSERT_KINDS: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    "identity": ((0.0, 1.0), (0.0, 1.0)),
    # interior fixed point at 1/2, attracting
    "north_south": ((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.4, 0.5, 0.6, 1.0)),
    # interior fixed point at 1/2, repelling
    "south_north": ((0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.1, 0.5, 0.9, 1.0)),
    # no interior fixed point, pushes toward the right endpoint
    "advance": ((0.0, 0.5, 1.0), (0.0, 0.7, 1.0)),
    # no interior fixed point, pushes toward the left endpoint
    "retreat": ((0.0, 0.5, 1.0), (0.0, 0.3, 1.0)),
}

MAX_DEPTH = 24          # the longest preperiod a snapped angle or a classified point may have
HORIZON = 12            # forward images of a snapped angle that must match detected plateaus


# ---------------------------------------------------------------------------
# point classification under the model map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointClass:
    kind: str                   # "periodic" | "preperiodic" | "wandering"
    period: int | None = None
    preperiod: int | None = None
    depth_limited: bool = False


def classify_circle_point(z: Fraction, d: int, max_period: int = 16) -> PointClass:
    """Orbit type of the exact angle z = k/q under multiplication by d (mod 1).

    The orbit runs on the residues k -> d*k mod q as integers, and equal
    residues are equal angles.  Snap a measured angle with
    snap_structured_angle first.
    """
    walk = _orbit_walk(z.numerator % z.denominator, d, z.denominator, MAX_DEPTH + max_period)
    preperiod = walk.index(walk[-1])                # where the repeat first sat
    period = len(walk) - 1 - preperiod
    if 0 < period <= max_period and preperiod <= MAX_DEPTH:
        if preperiod == 0:
            return PointClass("periodic", period=period)
        return PointClass("preperiodic", period=period, preperiod=preperiod)
    return PointClass("wandering", depth_limited=True)


def _orbit_walk(w: int, d: int, q: int, steps: int) -> list[int]:
    """w, d*w, d^2*w, ... mod q, up to and including the first repeat, or steps steps."""
    walk, seen = [w], {w}
    for _ in range(steps):
        w = d * w % q
        walk.append(w)
        if w in seen:
            break
        seen.add(w)
    return walk


@functools.lru_cache(maxsize=64)
def _denominators(d: int, max_period: int, angle_tol: float) -> tuple[int, ...]:
    """The q = |d|^m * |d^n - 1| <= 0.1/angle_tol, n <= max_period, m <= MAX_DEPTH; ascending."""
    q_max = int(0.1 / angle_tol)
    # |d^n - 1| never decreases in n: the cycle lengths stop at the first one above q_max
    cycles = itertools.takewhile(lambda c: c <= q_max,
                                 (abs(d ** n - 1) for n in range(1, max_period + 1)))
    return tuple(sorted({q for c in cycles for m in range(MAX_DEPTH + 1)
                         if (q := c * abs(d) ** m) <= q_max}))


def snap_structured_angle(thetas, d: int, angle_tol: float,
                          max_period: int = 16) -> list[Fraction | None]:
    """Nearest angle of the form k / (|d|^m * |d^n - 1|) within angle_tol, for each of thetas.

    These are exactly the angles with eventually-periodic orbits under
    multiplication by d.  Denominators above 0.1/angle_tol are skipped
    (their spacing is below the measurement resolution); among the rest
    the smallest error wins, ties going to the smaller denominator.  The
    angles are snapped in one pass over angles x denominators; the list
    holds None where no denominator comes within angle_tol.
    """
    qs = _denominators(d, max_period, angle_tol)
    t = np.asarray(thetas, dtype=float).reshape(-1, 1)
    if not qs:
        return [None] * len(t)
    k = np.rint(t * qs)                   # half to even, as round()
    err = np.abs(t - k / qs)              # k / q as int / int: both exact below 2^53
    best = np.argmin(err, axis=1).tolist()    # the first minimum: ties keep the smaller q
    return [Fraction(int(k[i, j]), qs[j]) % 1 if err[i, j] < angle_tol else None
            for i, j in enumerate(best)]


# ---------------------------------------------------------------------------
# plateau extraction
# ---------------------------------------------------------------------------

def plateau_set(h: SemiconjugacyField1D) -> list[tuple[float, float]]:
    """Maximal intervals of >= 2 grid cells on which H varies <= 2/N, N its grid.

    Requires a monotone field (covering source).  Intervals are disjoint
    and sorted; a plateau straddling the 0/1 seam is returned with its
    right endpoint > 1.
    """
    n = h.grid
    plateau_tol = 2.0 / n
    s = h.orientation * h.samples
    if np.any(np.diff(s) < -1e-12):
        raise ValueError("plateau detection needs a monotone field")
    xs = np.linspace(0.0, 1.0, n + 1)
    # ends[i]: largest j with strict variation s[j] - s[i] < plateau_tol; the
    # greedy scan from i = 0 takes each window of >= 2 cells that starts at
    # or after the end of the last one taken
    ends = np.searchsorted(s, s + plateau_tol, side="left") - 1
    out: list[tuple[float, float]] = []
    i = 0
    for c in np.flatnonzero(ends[:n - 1] >= np.arange(2, n + 1)).tolist():
        if c < i:
            continue
        i = ends[c] + 1
        if out and xs[c] - out[-1][1] <= 2.5 / n:
            # a satellite: the greedy scan split one flat region at resolution
            out[-1] = (out[-1][0], xs[ends[c]])
        else:
            out.append((xs[c], xs[ends[c]]))
    if len(out) >= 2:
        (a0, b0), (a1, b1) = out[0], out[-1]
        touches = a0 <= 1.0 / n and b1 >= 1.0 - 1.5 / n
        if touches and (s[int(round(b0 * n))] + 1.0 - s[int(round(a1 * n))]) <= plateau_tol:
            out = out[1:-1] + [(a1, b0 + 1.0)]
    return out


# ---------------------------------------------------------------------------
# interval signatures
# ---------------------------------------------------------------------------

def _add_dip_roots(roots: list, xs, vals, tang_tol: float, sep: float) -> None:
    """Append, per run of |vals| <= tang_tol, the point of smallest |vals|
    unless it lies within sep of a root already listed (earlier runs' too)."""
    edges = np.diff(np.concatenate(([0], (np.abs(vals) <= tang_tol).view(np.int8), [0])))
    for i, j in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        x_star = float(xs[i + int(np.argmin(np.abs(vals[i:j])))])
        if not any(abs(x_star - r) <= sep for r in roots):
            roots.append(x_star)


@dataclass(frozen=True)
class IntervalSignature:
    """Finite invariant of the first-return map on a periodic plateau.

    fixed_point_count counts all fixed points on the closed interval
    (endpoints included); sign_pattern holds the signs of F^n - id on the
    count+1 open segments cut by those fixed points, including one
    flanking segment on each side of the interval.  identity_like marks
    return maps within tolerance of the identity; unresolved (count None,
    not identity_like) marks intervals the grid could not resolve.
    """

    orientation: int
    fixed_point_count: int | None
    sign_pattern: tuple[int, ...] | None
    identity_like: bool = False

    @classmethod
    def identity_class(cls, orientation: int = 1) -> "IntervalSignature":
        return cls(orientation, None, None, identity_like=True)

    def matches(self, other: "IntervalSignature") -> str:
        """'match' / 'mismatch' / 'uncertain', up to interval reversal."""
        if any(s.fixed_point_count is None and not s.identity_like for s in (self, other)):
            return "uncertain"
        if self.identity_like or other.identity_like:
            return "match" if self.identity_like == other.identity_like else "mismatch"
        if self.orientation != other.orientation:
            return "mismatch"
        if self.fixed_point_count != other.fixed_point_count:
            return "mismatch"
        p, q = self.sign_pattern, other.sign_pattern
        reversed_neg = tuple(-s for s in reversed(q))
        return "match" if (p == q or p == reversed_neg) else "mismatch"


def interval_signature(m: LiftedCircleMap, interval: tuple[float, float],
                       period: int) -> IntervalSignature:
    """Signature of F^period restricted to a period-invariant interval.

    Fixed points are located by sign-change bisection on a widened window;
    endpoints fixed only tangentially appear as dips of |F^p - id| within
    the grid's composition bias and are recovered from those dips.  When
    that bias reaches the scale of the return map's own displacement the
    signature is reported unresolved rather than guessed.
    """
    tol = 1e-9                          # the fixed-point tolerance
    a, b = float(interval[0]), float(interval[1])
    width = b - a
    if not 0.0 < width < 1.0:
        raise ValueError(f"bad interval {interval}")
    cell = 1.0 / m.grid
    orientation = 1 if (m.degree > 0 or period % 2 == 0) else -1

    mid = 0.5 * (a + b)
    delta = m.iterate(mid, period) - mid
    level = round(delta)
    if abs(delta - level) > max(1e-6, 0.5 * width):
        raise NotInvariant(f"interval {interval} not {period}-invariant")

    def g(x):
        return m.iterate(np.asarray(x, dtype=float), period) - np.asarray(x, dtype=float) - level

    flank = max(4.0 * cell, 0.02 * width)
    inner = np.linspace(a + flank, b - flank, 512)
    img = g(inner) + inner
    if img.min() < a - 4 * flank or img.max() > b + 4 * flank:
        raise NotInvariant(f"interval {interval} not mapped into itself")

    interior = np.linspace(a + 2 * cell, b - 2 * cell, 512)
    amplitude = float(np.max(np.abs(g(interior))))
    if amplitude <= max(100.0 * tol, 1e-7):
        return IntervalSignature.identity_class(orientation)

    # composition bias of the sampled map vs the return map's displacement
    tang_tol = max(200.0 * tol, 0.5 * abs(m.degree) ** period / m.grid)
    if tang_tol >= 0.5 * amplitude:
        return IntervalSignature(orientation, None, None)   # below resolution

    window = max(16.0 * cell, 0.05 * width)
    xs = np.linspace(a - window, b + window, 4096)
    vals = g(xs)
    scan_cell = xs[1] - xs[0]
    idx = sign_changes(vals)
    roots = bisect_brackets(g, xs[idx], xs[idx + 1], xtol=min(tol, 1e-12)).tolist()
    _add_dip_roots(roots, xs, vals, tang_tol, 4 * scan_cell)
    roots.sort()
    if any(r2 - r1 <= 4 * scan_cell for r1, r2 in zip(roots, roots[1:])):
        return IntervalSignature(orientation, None, None)  # unresolved
    slack = max(16.0 * cell, 0.1 * width)
    if not roots or abs(roots[0] - a) > slack or abs(roots[-1] - b) > slack:
        raise NotInvariant(f"interval {interval} endpoints not fixed by F^{period}")

    # flank signs just outside the located endpoints, still in the gap region
    lo, hi = roots[0], roots[-1]
    probes = [lo - 3 * cell] + \
             [0.5 * (r1 + r2) for r1, r2 in zip(roots, roots[1:])] + \
             [hi + 3 * cell]
    pattern = tuple(1 if v > 0 else -1 for v in g(np.asarray(probes)))
    return IntervalSignature(orientation, len(roots), pattern)


# ---------------------------------------------------------------------------
# classification data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlateauRecord:
    image_angle: float
    kind: str
    period: int | None
    preperiod: int | None
    depth_limited: bool
    interval: tuple[float, float]
    signature: IntervalSignature

    @property
    def length(self) -> float:
        return self.interval[1] - self.interval[0]


@dataclass(eq=False)
class ClassificationData:
    degree: int
    records: list[PlateauRecord]
    grid: int


def classification_data(m: LiftedCircleMap, tol: float = 1e-8,
                        max_period: int = 16) -> ClassificationData:
    """Degree plus plateau-image records with periodic-interval signatures.

    Plateaus are the runs on which H varies by at most 2/N, N its grid.
    Measured plateau images are snapped to the nearest eventually-periodic
    angle within 5e-4, preperiod at most MAX_DEPTH, before orbit
    classification (direct iteration of a measured float would amplify its
    error by |d| per step).  Non-periodic records carry the identity class.
    """
    if not m.is_covering:
        raise NotACovering("classification needs a covering map")
    h = solve_semiconjugacy(m, 1, tol)
    plateaus = plateau_set(h)
    measured = frac(h(np.array([0.5 * (a + b) for (a, b) in plateaus])))
    thetas = measured.tolist()
    snaps = snap_structured_angle(measured, m.degree, 5e-4, max_period)
    # plateau images are plateaus; a snap whose exact forward orbit misses the
    # detected plateau angles is a resolution artifact
    corroborated = _orbit_corroborated(snaps, m.degree, measured, max(4.0 / h.grid, 1e-3))
    records = []
    for (a, b), theta, snapped, ok in zip(plateaus, thetas, snaps, corroborated):
        if not ok:
            cls = PointClass("wandering", depth_limited=True)
            angle = theta
        else:
            cls = classify_circle_point(snapped, m.degree, max_period)
            angle = float(snapped)
        if cls.kind == "periodic":
            try:
                sig = interval_signature(m, (a, b), cls.period)
            except NotInvariant:
                # the snapped angle's periodicity is not confirmed by the map
                # itself; at this resolution the record cannot be trusted
                cls = PointClass("wandering", depth_limited=True)
                sig = IntervalSignature.identity_class()
        else:
            sig = IntervalSignature.identity_class()
        records.append(PlateauRecord(angle, cls.kind, cls.period, cls.preperiod,
                                     cls.depth_limited, (a, b), sig))
    records.sort(key=lambda r: r.image_angle)
    return ClassificationData(m.degree, records, h.grid)


def _orbit_corroborated(thetas: list[Fraction | None], d: int, measured_angles: np.ndarray,
                        tol: float) -> list[bool]:
    """Per angle: every exact forward image matches a detected plateau angle; None fails.

    Each orbit runs on the residues of theta's numerator mod its denominator,
    up to HORIZON steps or the first repeat, and is padded with its last
    point.  Each image is measured against its two cyclic neighbours among
    the sorted angles: circle_dist rounds monotonically on either side of
    the image, so no other angle is nearer, even by an ulp.
    """
    snapped = [i for i, theta in enumerate(thetas) if theta is not None]
    ok = [False] * len(thetas)
    if not snapped or len(measured_angles) == 0:
        return ok
    orbits = []
    for i in snapped:
        q = thetas[i].denominator
        orbits.append([w / q for w in _orbit_walk(thetas[i].numerator % q, d, q, HORIZON)[1:]])
    width = max(map(len, orbits))
    images = np.array([orbit + orbit[-1:] * (width - len(orbit)) for orbit in orbits])
    s = np.sort(measured_angles)
    j = np.searchsorted(s, images)
    near = s[np.stack((j % len(s), j - 1))]
    hit = np.all(circle_dist(near, images).min(axis=0) <= tol, axis=1)
    for i, verdict in zip(snapped, hit.tolist()):
        ok[i] = verdict
    return ok


@dataclass(frozen=True)
class Verdict:
    status: str                       # "equivalent" | "distinct" | "inconclusive"
    relator: SelfConjugacy | None = None
    reason: str = ""

    @property
    def exit_code(self) -> int:
        return {"equivalent": 0, "distinct": 1, "inconclusive": 2}[self.status]


def _marginal(rec: PlateauRecord, grid: int) -> bool:
    """Records near the resolution floor; their detection varies with the grid."""
    return rec.length <= 16.0 / grid


def _records_match(ra: PlateauRecord, rb: PlateauRecord) -> str:
    """'match' / 'mismatch' / 'uncertain' for an angle-matched record pair.

    Only periodicity itself is part of the data: every non-periodic record
    carries the identity class, so the preperiodic/wandering distinction
    (a resolution-limited diagnostic) is not compared.
    """
    if (ra.kind == "periodic") != (rb.kind == "periodic"):
        return "mismatch"
    if ra.kind == "periodic" and ra.period != rb.period:
        return "mismatch"
    return ra.signature.matches(rb.signature)


def compare_classification(a: ClassificationData, b: ClassificationData,
                           tol: float = 1e-3) -> Verdict:
    """Compare two classification data sets up to a self-conjugacy.

    Exhaustive search over the 2|d-1| candidates; record angles must match
    within tol as sets, periodic records must agree in period and
    signature.  A candidate matching everything except extra records at
    the resolution floor is only evidence at resolution: if no candidate
    matches fully, such partial matches yield an inconclusive verdict
    instead of a distinct one.
    """
    if a.degree != b.degree:
        return Verdict("distinct", reason=f"degrees {a.degree} vs {b.degree}")
    saw_sig_mismatch = False
    saw_partial = False
    angles_a = np.array([r.image_angle for r in a.records])
    other = sorted(((r.image_angle, r) for r in b.records), key=lambda t: t[0])
    for c in self_conjugacies(a.degree):
        mapped = sorted(zip(c.apply_angle(angles_a).tolist(), a.records), key=lambda t: t[0])
        pairs, extra_a, extra_b = _match_angles(mapped, other, tol)
        solid_extras = [r for r in extra_a if not _marginal(r, a.grid)] + \
                       [r for r in extra_b if not _marginal(r, b.grid)]
        if solid_extras:
            continue
        outcomes = [_records_match(ra, rb) for ra, rb in pairs]
        if any(o == "mismatch" for o in outcomes):
            saw_sig_mismatch = True
            continue
        if any(o == "uncertain" for o in outcomes) or extra_a or extra_b:
            saw_partial = True
            continue
        return Verdict("equivalent", relator=c)
    if saw_sig_mismatch:
        return Verdict("distinct", reason="signature mismatch")
    if saw_partial:
        return Verdict("inconclusive", reason="records match only at resolution limit")
    return Verdict("distinct", reason="record angle sets differ")


def _match_angles(xs, ys, tol):
    """Circular matching of (angle, record) lists, closest pairs first.

    Taking candidate pairs in global distance order keeps near-exact
    matches from being stolen by records that are merely within tolerance;
    equal distances go to the smaller x index, then the smaller y index.
    """
    dist = circle_dist(np.array([a for a, _ in xs], dtype=float)[:, None],
                       np.array([a for a, _ in ys], dtype=float)[None, :])
    rows, cols = np.nonzero(dist <= tol)
    order = np.lexsort((cols, rows, dist[rows, cols]))
    used_x, used_y = set(), set()
    pairs = []
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if i in used_x or j in used_y:
            continue
        used_x.add(i)
        used_y.add(j)
        pairs.append((xs[i][1], ys[j][1]))
    extra_x = [r for i, (_, r) in enumerate(xs) if i not in used_x]
    extra_y = [r for j, (_, r) in enumerate(ys) if j not in used_y]
    return pairs, extra_x, extra_y


# ---------------------------------------------------------------------------
# blow-up synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Insertion:
    base_angle: Fraction
    length: float
    kind: str = "north_south"

    @classmethod
    def of(cls, spec) -> "Insertion":
        """An Insertion, or one checked from a {base_angle, length, kind} config.

        The base angle is exact in [0,1): a Fraction, 'p/q' string or int as
        given, a float through limit_denominator(10**12).
        """
        if isinstance(spec, Insertion):
            return spec
        p = take(config(spec, "an insertion"),
                 {"base_angle": REQUIRED, "length": REQUIRED, "kind": "north_south"}, "insertion")
        value = p["base_angle"]
        if not isinstance(value, (str, Fraction, np.integer)):
            number(value, "base_angle")
        if isinstance(value, float):
            value = Fraction(value).limit_denominator(10 ** 12)
        try:
            angle = Fraction(value) % 1
        except (ValueError, ZeroDivisionError):        # a string that is not 'p/q'
            raise ValidationError(f"base_angle must be a number or 'p/q', "
                                  f"got {p['base_angle']!r}") from None
        return cls(angle, float(positive(p["length"], "length")), str(p["kind"]))


def transform_insertions(insertions, c: SelfConjugacy) -> list[Insertion]:
    """Apply a self-conjugacy to the base angles of insertion specs (exact)."""
    out = []
    for spec in insertions:
        ins = Insertion.of(spec)
        theta = -ins.base_angle if c.reflect else ins.base_angle
        theta = (theta + Fraction(c.rotation_index, c.modulus)) % 1
        out.append(Insertion(theta, ins.length, ins.kind))
    return out


def _orbit_atoms(d: int, specs: list[Insertion], min_len: float, depth: int, forward_cap: int
                 ) -> tuple[int, dict[int, tuple[float, int]], dict[int, str]]:
    """Atoms of every insertion orbit and of its preimages, as residues k of k/L.

    Returns L, residue -> (length, owner) and residue -> the insert kind of
    the step closing its cycle.  Lengths start below 1 and shrink by 2|d|
    per preimage level, so no atom lives past `levels` and L holds every
    denominator.
    """
    ad = abs(d)
    levels = max(0, min(depth, int(math.log(1.0 / min_len, 2 * ad)) + 1))
    L = math.lcm(*(ins.base_angle.denominator for ins in specs)) * ad ** levels
    atoms: dict[int, tuple[float, int]] = {}
    closing: dict[int, str] = {}

    def add(k: int, length: float, owner: int) -> None:
        if atoms.setdefault(k, (length, owner))[1] != owner:
            raise Clash(f"orbit collision at angle {Fraction(k, L)}")

    for owner, ins in enumerate(specs):
        seq = _orbit_walk(ins.base_angle.numerator * (L // ins.base_angle.denominator),
                          d, L, forward_cap)
        if seq.index(seq[-1]) < len(seq) - 1:   # the orbit returned: a rational cycle
            seq.pop()
            lengths = [ins.length] * len(seq)
            closing[seq[-1]] = ins.kind
        else:
            # no rational return: a prefix of the walk, with shrinking lengths
            lengths = [ins.length]
            while lengths[-1] >= min_len:
                lengths.append(lengths[-1] / (2.0 * ad))
        for k, length in zip(seq, lengths):
            add(k, length, owner)

    # preimage atoms, pruned below the grid floor
    frontier = list(atoms)
    for _ in range(levels):
        new = []
        for k in frontier:
            length, owner = atoms[k]
            if length / (2.0 * ad) >= min_len:
                for j in range(ad):
                    pre = (k + j * L) // d % L
                    if pre not in atoms:
                        new.append(pre)
                    add(pre, length / (2.0 * ad), owner)
        frontier = new
    return L, atoms, closing


def blow_up(degree: int, insertions, grid: int = 4096, depth: int = 12) -> LiftedCircleMap:
    """Degree-d covering whose semiconjugacy collapses the inserted intervals.

    Every point of each base orbit (tail and cycle, exact rational
    arithmetic) receives an interval of the requested length; preimages up
    to `depth` receive lengths shrunk by 1/(2|d|) per level, pruned below
    the grid floor.  On the cycle the first-return map realizes the
    requested insert kind; all other steps are affine.  Orbits with no
    rational return within 64 steps are truncated forward at
    sub-grid lengths.  The first insertion's interval is centered at 0.5.

    The lift is assembled by masks over the grid: samples inside an atom
    interval map affinely (through the closing insert kind) onto the image
    atom, and samples in the gaps are pulled back to the old circle,
    multiplied by d and pushed forward.
    """
    d = int(degree)
    if abs(d) <= 1:
        raise ValueError("|degree| must exceed 1")
    specs = [Insertion.of(s) for s in insertions]
    if not specs:
        xs = np.linspace(0.0, 1.0, grid + 1)
        return make_lift(d * xs)
    for ins in specs:
        if ins.kind not in INSERT_KINDS:
            raise ValidationError(f"unknown insert kind {ins.kind!r}; "
                                  f"known: {sorted(INSERT_KINDS)}")
        if d < 0 and ins.kind != "identity":
            raise ValidationError("negative degree supports only identity inserts")
        if not 0.0 < ins.length < 1.0:
            raise Overfull(f"insert length {ins.length} out of range")

    L, atoms, closing = _orbit_atoms(d, specs, 0.05 / grid, depth, 64)
    total = sum(length for length, _ in atoms.values())
    if total >= 1.0:
        raise Overfull(f"total inserted length {total} >= 1")

    order = sorted(atoms)
    angles = np.array([k / L for k in order])   # int division rounds like float(Fraction)
    lengths = np.array([atoms[k][0] for k in order])
    csum = np.concatenate(([0.0], np.cumsum(lengths)))
    scale = 1.0 - total
    lefts = scale * angles + csum[:-1]
    index = {k: i for i, k in enumerate(order)}

    i0 = index[next(iter(atoms))]               # the first insertion's base angle
    shift = 0.5 - (lefts[i0] + 0.5 * lengths[i0])
    lefts = lefts + shift
    rights = lefts + lengths

    def position(u: np.ndarray) -> np.ndarray:
        """New-circle position of old angles u in [0,1), jumps bridged rightward."""
        i = np.searchsorted(angles, u, side="right") - 1
        return shift + scale * u + csum[i + 1]

    # image of each atom: its atom index (-1 at a truncated chain end, a
    # sub-grid interval collapsing to a point), the exact integer branch and
    # the insert kind of the step out of it
    branch, images = zip(*(divmod(d * k, L) for k in order))
    image_q = np.array([index.get(img, -1) for img in images])
    branch = np.array(branch, dtype=float)
    truncated = position(np.array([img / L for img in images])) + branch
    kind = np.array([closing.get(k, "identity") for k in order])

    xs = np.linspace(0.0, 1.0, grid + 1)
    xw = shift + frac(xs - shift)               # position on the laid-out circle
    off = np.round(xw - xs)                     # integer sheet offset
    piece = np.searchsorted(lefts, xw + 1e-15, side="right") - 1
    placed = piece >= 0
    piece = np.where(placed, piece, len(order) - 1)  # points before lefts[0] sit in the last gap
    inside = placed & (xw <= rights[piece] + 1e-15) & (xw >= lefts[piece] - 1e-15)
    vals = np.empty(grid + 1)

    # inside atom interval p: affine onto the image atom through the insert kind
    i_in = np.nonzero(inside)[0]
    p = piece[i_in]
    s = np.minimum(np.maximum((xw[i_in] - lefts[p]) / lengths[p], 0.0), 1.0)
    pos = np.empty_like(s)
    for name, (knots, values) in INSERT_KINDS.items():
        sel = kind[p] == name
        pos[sel] = np.interp(s[sel], knots, values)
    if d < 0:
        pos = 1.0 - pos
    q = image_q[p]
    vals[i_in] = np.where(q >= 0, lefts[q] + pos * lengths[q] + branch[p], truncated[p])

    # gap between atoms: pull back to the old coordinate, push forward
    i_gap = np.nonzero(~inside)[0]
    p, on = piece[i_gap], placed[i_gap]
    gl = np.where(on, rights[p], rights[-1] - 1.0)
    t_old = np.where(on, angles[p], angles[-1] - 1.0)
    tau = d * (t_old + (xw[i_gap] - gl) / scale)
    vals[i_gap] = position(frac(tau)) + np.floor(tau)
    return make_lift(vals - off * d)
