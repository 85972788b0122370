from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from semicov import classify, schema
from semicov.circle import find_periodic_points, make_lift
from semicov.classify import (INSERT_KINDS, Insertion, IntervalSignature, PlateauRecord,
                              _orbit_atoms, blow_up, classification_data,
                              compare_classification, interval_signature,
                              plateau_set, snap_structured_angle, transform_insertions)
from semicov.errors import Clash, NotInvariant, Overfull, ValidationError
from semicov.numerics import circle_dist, frac
from semicov.semiconj1d import self_conjugacies, solve_semiconjugacy

NS = {"base_angle": 0, "length": 0.1, "kind": "north_south"}

EXPECTED_SIGNATURES = {
    "north_south": (3, (-1, 1, -1, 1)),
    "south_north": (3, (-1, -1, 1, 1)),
    "advance": (2, (-1, 1, 1)),
    "retreat": (2, (-1, -1, 1)),
}


# --- point classification -------------------------------------------------

OrbitClass = namedtuple("OrbitClass", "kind period preperiod depth_limited",
                        defaults=(None, None, False))


def _walk(z, d, max_period=16):
    """The one residue walk classification_data takes of a snapped angle z = k/q.

    A snap is already reduced mod 1; the walk reduces k mod q itself here, so
    that unreduced angles can be fed in too.
    """
    q = z.denominator
    return classify._orbit_walk(z.numerator % q, d, q, classify.MAX_DEPTH + max_period)


def _classify_point(z, d, max_period=16):
    """Kind, period, preperiod and depth_limited of z, read from its one walk."""
    return OrbitClass(*classify._orbit_class(_walk(z, d, max_period), max_period))


def _corroborated(thetas, d, measured_angles, tol):
    """_orbit_corroborated on the walks classification_data takes; None is not walked."""
    walks = [None if z is None else _walk(z, d) for z in thetas]
    return classify._orbit_corroborated(thetas, walks, measured_angles, tol)


def test_classify_point_fixed():
    assert _classify_point(Fraction(0), 2).kind == "periodic"
    assert _classify_point(Fraction(0), 2).period == 1


def test_classify_point_period_two():
    c = _classify_point(Fraction(1, 3), 2)
    assert (c.kind, c.period) == ("periodic", 2)


def test_classify_point_preperiodic():
    # 1/10 -> 1/5 -> 2/5 -> 4/5 -> 3/5 -> 1/5 enters a 4-cycle after one step
    c = _classify_point(Fraction(1, 10), 2)
    assert (c.kind, c.preperiod, c.period) == ("preperiodic", 1, 4)


def test_classify_point_reduces_the_angle_mod_1():
    # 4/3 and -1/3 are the period-2 point 1/3
    for z in (Fraction(4, 3), Fraction(-1, 3)):
        c = _classify_point(z, 2)
        assert (c.kind, c.period, c.preperiod) == ("periodic", 2, None)


def test_classify_point_wandering_flagged():
    c = _classify_point(Fraction(7853981633974483, 10 ** 16), 2, max_period=8)
    assert c.kind == "wandering" and c.depth_limited


def test_snap_structured_angle():
    assert snap_structured_angle([0.33339], 2, 1e-3) == [Fraction(1, 3)]
    assert snap_structured_angle([0.5312501], 2, 1e-4) == [Fraction(17, 32)]
    # an error of exactly angle_tol does not snap: 0.05 is 0.05 from 0/1 and 0/2
    assert snap_structured_angle([0.05, 0.0499], 2, 0.05) == [None, Fraction(0)]
    # a snap, when produced, is always within tolerance
    [got] = snap_structured_angle([0.3819660112], 2, 1e-4)
    assert got is None or abs(float(got) - 0.3819660112) <= 1e-4


def _snap_reference(theta, d, angle_tol, max_period=16, max_depth=24):
    """snap_structured_angle building its denominator ladder on every call, kept as the reference."""
    q_max = int(0.1 / angle_tol)
    best = None
    best_err = angle_tol
    best_q = None
    for n in range(1, max_period + 1):
        q0 = abs(d ** n - 1)
        for m in range(0, max_depth + 1):
            q = q0 * abs(d) ** m
            if q > q_max:
                break
            k = round(theta * q)
            err = abs(theta - k / q)
            if err < best_err or (err == best_err and best_q is not None and q < best_q):
                best = Fraction(k, q) % 1
                best_err = err
                best_q = q
    return best


def _exact_ties(d, angle_tol, max_period, max_depth=24):
    """Angles at the same float distance from two ladder fractions of different value."""
    q_max = int(0.1 / angle_tol)
    qs = sorted({abs(d ** n - 1) * abs(d) ** m for n in range(1, max_period + 1)
                 for m in range(max_depth + 1) if abs(d ** n - 1) * abs(d) ** m <= q_max})
    points = sorted({Fraction(k, q) for q in qs for k in range(q + 1)})
    out = []
    for lo, hi in zip(points, points[1:]):
        theta = (lo.numerator / lo.denominator + hi.numerator / hi.denominator) / 2
        if (hi - lo < 2 * angle_tol and abs(theta - lo.numerator / lo.denominator)
                == abs(theta - hi.numerator / hi.denominator)):
            out.append(theta)
    return out


@pytest.mark.parametrize("d", [2, -2, 3, -3])
def test_snap_matches_per_call_ladder(d):
    rng = np.random.default_rng(abs(d) * 10 + (d < 0))
    ties = 0
    for angle_tol, max_period in ((5e-4, 16), (1e-3, 4), (1e-2, 16), (2e-5, 8)):
        tied = _exact_ties(d, angle_tol, max_period)
        ties += len(tied)
        # exact ties between equal values too: every ladder fraction 0 or 1/2 matches alike
        thetas = [*rng.uniform(-1.0, 2.0, 300), *tied, 0.0, 1e-6, -3e-6, 0.5, 0.5 + 1e-7, 1.0]
        for theta in thetas:
            assert (snap_structured_angle([theta], d, angle_tol, max_period)
                    == [_snap_reference(theta, d, angle_tol, max_period)])
    assert ties > 0


@pytest.mark.parametrize("d", [2, -2, 3, -3, 4])
def test_array_snap_matches_the_per_angle_ladder(d):
    rng = np.random.default_rng(abs(d) * 10 + (d < 0) + 1)
    for angle_tol, max_period in ((5e-4, 16), (1e-3, 4), (2e-5, 8)):
        tied = _exact_ties(d, angle_tol, max_period)
        thetas = np.array([*rng.uniform(-1.0, 2.0, 2000), *tied, 0.0, -3e-6, 0.5, 1.0])
        got = snap_structured_angle(thetas, d, angle_tol, max_period)
        assert got == [_snap_reference(theta, d, angle_tol, max_period)
                       for theta in thetas.tolist()]
    assert snap_structured_angle(np.array([]), d, 5e-4) == []
    # no denominator at or below 0.1/angle_tol: nothing snaps
    assert snap_structured_angle([0.3, 0.0], d, 0.5) == [None, None]


def _denominators_reference(d, max_period, angle_tol, max_depth=24):
    """_denominators as one comprehension over every n <= max_period, kept as the reference."""
    q_max = int(0.1 / angle_tol)
    return tuple(sorted({q for n in range(1, max_period + 1) for m in range(max_depth + 1)
                         if (q := abs(d ** n - 1) * abs(d) ** m) <= q_max}))


@pytest.mark.parametrize("d", [2, -2, 3, -3, 4, -5, 7])
def test_denominators_stop_at_the_first_power_above_the_bound(d):
    for max_period in (1, 2, 3, 8, 16, 64):
        for angle_tol in (0.5, 0.05, 1e-2, 1e-3, 5e-4, 2e-5, 1e-7):
            assert (classify._denominators(d, max_period, angle_tol)
                    == _denominators_reference(d, max_period, angle_tol))
    # the largest max_period the schema allows costs no more than 16
    assert classify._denominators(d, schema.MAX_SIZE, 5e-4) == _denominators_reference(d, 16, 5e-4)


# --- plateaus ----------------------------------------------------------------

def test_plateau_set_empty_for_model(m2):
    h = solve_semiconjugacy(m2, 1, 1e-10)
    assert plateau_set(h) == []


def test_plateau_set_blow_up_interval():
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = plateau_set(h)
    base = [p for p in plats if p[0] < 0.5 < p[1]]
    assert len(base) == 1
    assert base[0][0] == pytest.approx(0.45, abs=1e-3)
    assert base[0][1] == pytest.approx(0.55, abs=1e-3)


def test_plateau_set_detects_grand_orbit_depths():
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = plateau_set(h)
    angles = sorted(float(frac(h(0.5 * (a + b)))) for a, b in plats)
    # the depth-1 preimage interval collapses to angle 1/2, depth-2 to 1/4, 3/4
    for target in (0.25, 0.5, 0.75):
        assert min(abs(t - target) for t in angles) < 1e-3


def test_plateau_wraps_across_seam():
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    wrapped = [p for p in plateau_set(h) if p[1] > 1.0]
    assert len(wrapped) == 1    # the angle-1/2 plateau sits opposite the base one


# --- signatures ----------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(EXPECTED_SIGNATURES))
def test_interval_signature_kinds(kind):
    m = blow_up(2, [dict(NS, kind=kind)])
    h = solve_semiconjugacy(m, 1, 1e-8)
    base = [p for p in plateau_set(h) if p[0] < 0.5 < p[1]][0]
    sig = interval_signature(m, base, 1)
    assert (sig.fixed_point_count, sig.sign_pattern) == EXPECTED_SIGNATURES[kind]
    assert sig.orientation == 1


def test_interval_signature_identity_like():
    m = blow_up(2, [dict(NS, kind="identity")])
    h = solve_semiconjugacy(m, 1, 1e-8)
    base = [p for p in plateau_set(h) if p[0] < 0.5 < p[1]][0]
    sig = interval_signature(m, base, 1)
    assert sig.identity_like


def test_interval_signature_endpoint_behavior():
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    base = [p for p in plateau_set(h) if p[0] < 0.5 < p[1]][0]
    sig = interval_signature(m, base, 1)
    # both endpoints repel: F^n - id runs (-, +) across the low end, (-, +) across the high end
    assert sig.sign_pattern[:2] == (-1, 1) and sig.sign_pattern[-2:] == (-1, 1)


def test_interval_signature_not_invariant():
    # a plateau fed with the wrong period is rejected
    m = blow_up(2, [{"base_angle": "1/3", "length": 0.1, "kind": "north_south"}])
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = plateau_set(h)
    base = max(plats, key=lambda p: p[1] - p[0])   # a cycle interval, period 2
    with pytest.raises(NotInvariant):
        interval_signature(m, base, 1)


def test_signature_matching_up_to_reversal():
    adv = IntervalSignature(1, 2, (-1, 1, 1))
    ret = IntervalSignature(1, 2, (-1, -1, 1))
    ns = IntervalSignature(1, 3, (-1, 1, -1, 1))
    ident = IntervalSignature.identity_class()
    unresolved = IntervalSignature(1, None, None)
    assert adv.matches(ret) == "match"            # reversal-conjugate
    assert adv.matches(ns) == "mismatch"
    assert ns.matches(ident) == "mismatch"
    assert ident.matches(ident) == "match"
    assert unresolved.matches(ns) == "uncertain"


# --- classification data ---------------------------------------------------

def test_classification_model_is_empty(m2):
    data = classification_data(m2)
    assert data.degree == 2 and data.records == []


def test_classification_blow_up_fixed_point():
    data = classification_data(blow_up(2, [NS]))
    per = [r for r in data.records if r.kind == "periodic"]
    assert len(per) == 1
    assert per[0].image_angle == pytest.approx(0.0, abs=1e-9)
    assert per[0].period == 1
    assert (per[0].signature.fixed_point_count,
            per[0].signature.sign_pattern) == EXPECTED_SIGNATURES["north_south"]


def test_classification_preperiodic_orbit():
    data = classification_data(blow_up(2, [{"base_angle": "1/10", "length": 0.1,
                                            "kind": "north_south"}]))
    base = [r for r in data.records if abs(r.image_angle - 0.1) < 1e-9]
    assert base and base[0].kind == "preperiodic"
    assert base[0].signature.identity_like
    cycle = [r for r in data.records if r.kind == "periodic"]
    assert sorted(round(r.image_angle, 6) for r in cycle) == [0.2, 0.4, 0.6, 0.8]
    assert all(r.period == 4 for r in cycle)


def test_classification_wandering_orbit():
    w = 0.1 * np.sqrt(2)
    data = classification_data(blow_up(2, [{"base_angle": w, "length": 0.15,
                                            "kind": "identity"}]))
    assert data.records
    base = min(data.records, key=lambda r: abs(r.image_angle - w))
    assert abs(base.image_angle - w) < 1e-3
    assert base.kind == "wandering" and base.depth_limited
    # no periodic claim survives: nothing on this map is a periodic plateau
    # (deep preimage records may legitimately read as preperiodic at
    # resolution, since preimages of w converge to preimages of rationals)
    assert all(r.kind != "periodic" for r in data.records)


# --- comparison ----------------------------------------------------------------

def test_compare_data_with_itself():
    data = classification_data(blow_up(2, [NS]))
    v = compare_classification(data, data)
    assert v.status == "equivalent" and v.relator.is_identity


def test_compare_degree_mismatch():
    a = classification_data(blow_up(2, [NS]))
    b = classification_data(blow_up(3, [dict(NS, base_angle="1/2")]))
    assert compare_classification(a, b).status == "distinct"


def test_compare_rotated_copy_equivalent():
    # blow-ups at z = 1 and at the other fixed point of z^3 differ by the
    # rotation by the (d-1)-st root of unity
    ins = [{"base_angle": 0, "length": 0.1, "kind": "advance"}]
    rot = [c for c in self_conjugacies(3) if c.rotation_index == 1 and not c.reflect][0]
    a = classification_data(blow_up(3, ins))
    b = classification_data(blow_up(3, transform_insertions(ins, rot)))
    v = compare_classification(a, b)
    assert v.status == "equivalent"
    assert v.relator.rotation_index == 1


def test_compare_reflected_copy_equivalent():
    # orbits chosen so no rotation mimics the reflection: reflecting the
    # period-2 orbit of 1/8 equals rotating it, but the 1/26 orbit breaks
    # the tie, so only a reflection can relate the two data sets
    ins = [{"base_angle": "1/8", "length": 0.09, "kind": "north_south"},
           {"base_angle": "1/26", "length": 0.06, "kind": "advance"}]
    refl = [c for c in self_conjugacies(3) if c.reflect and c.rotation_index == 0][0]
    a = classification_data(blow_up(3, ins))
    b = classification_data(blow_up(3, transform_insertions(ins, refl)))
    v = compare_classification(a, b)
    assert v.status == "equivalent"
    assert v.relator.reflect


def test_compare_signature_mismatch_distinct():
    a = classification_data(blow_up(2, [NS]))
    b = classification_data(blow_up(2, [dict(NS, kind="identity")]))
    v = compare_classification(a, b)
    assert v.status == "distinct"
    assert "signature" in v.reason


def test_compare_solid_extra_records_distinct():
    # a sizable extra plateau family is positive evidence of difference
    a = classification_data(blow_up(2, [NS, {"base_angle": 0.3819660112,
                                             "length": 0.08, "kind": "identity"}]))
    b = classification_data(blow_up(2, [NS]))
    assert compare_classification(a, b).status == "distinct"


def test_compare_marginal_extras_inconclusive():
    # extras at the resolution floor are not evidence either way
    a = classification_data(blow_up(2, [NS, {"base_angle": 0.3819660112,
                                             "length": 0.0015, "kind": "identity"}]))
    b = classification_data(blow_up(2, [NS]))
    assert compare_classification(a, b).status == "inconclusive"


def test_compare_unresolved_signature_inconclusive():
    # identical maps except one record's signature replaced by unresolved
    a = classification_data(blow_up(2, [NS]))
    b = classification_data(blow_up(2, [NS]))
    per = [i for i, r in enumerate(b.records) if r.kind == "periodic"][0]
    r = b.records[per]
    b.records[per] = PlateauRecord(r.image_angle, r.kind, r.period, r.preperiod,
                                   r.depth_limited, r.interval,
                                   IntervalSignature(1, None, None))
    assert compare_classification(a, b).status == "inconclusive"


# --- blow-up construction ----------------------------------------------------

def test_blow_up_no_insertions_is_model():
    # byte for byte the lift sampled from d * x on the blow-up's grid
    for d in (2, 3, -2, -3):
        for grid in (16, 4096):
            m, want = blow_up(d, [], grid=grid), make_lift(d * np.linspace(0.0, 1.0, grid + 1))
            assert m.samples.tobytes() == want.samples.tobytes()
            assert (m.degree, m.grid, m.is_covering) == (d, grid, True)


def test_blow_up_overfull():
    with pytest.raises(Overfull):
        blow_up(2, [{"base_angle": 0, "length": 1.2, "kind": "identity"}])
    with pytest.raises(Overfull):
        blow_up(2, [{"base_angle": 0, "length": 0.45, "kind": "identity"},
                    {"base_angle": "1/3", "length": 0.45, "kind": "identity"}])


def test_blow_up_orbit_clash():
    # 1/3 and 2/3 lie on the same doubling orbit
    with pytest.raises(Clash):
        blow_up(2, [{"base_angle": "1/3", "length": 0.1, "kind": "identity"},
                    {"base_angle": "2/3", "length": 0.1, "kind": "identity"}])


def test_blow_up_unknown_kind():
    with pytest.raises(ValidationError):
        blow_up(2, [dict(NS, kind="spiral")])


def test_blow_up_wandering_is_covering():
    m = blow_up(2, [{"base_angle": 0.1 * np.sqrt(2), "length": 0.15,
                     "kind": "identity"}])
    assert m.is_covering


def test_blow_up_negative_degree_smoke():
    m = blow_up(-2, [{"base_angle": 0, "length": 0.1, "kind": "identity"}])
    assert m.degree == -2 and m.is_covering
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = plateau_set(h)
    assert any(a < 0.5 < b for a, b in plats)


class _Atom:
    __slots__ = ("angle", "length", "owner", "closing")

    def __init__(self, angle, length, owner, closing=None):
        self.angle = angle
        self.length = length
        self.owner = owner
        self.closing = closing   # insert kind applied on the step out of this atom


def _fraction_orbit_atoms(d, specs, min_len, depth, forward_cap):
    """_orbit_atoms on Fraction angles: atoms keyed by exact angle, in insertion order."""
    ad = abs(d)
    atoms = {}

    def add(angle, length, owner, closing=None):
        if angle in atoms and atoms[angle].owner != owner:
            raise Clash(f"orbit collision at angle {angle}")
        atom = _Atom(angle, length, owner, closing)
        atoms[angle] = atom
        return atom

    for owner, ins in enumerate(specs):
        seq = [ins.base_angle]
        seen = {ins.base_angle: 0}
        cycle_start = None
        while len(seq) <= forward_cap:
            nxt = (d * seq[-1]) % 1
            if nxt in seen:
                cycle_start = seen[nxt]
                break
            seen[nxt] = len(seq)
            seq.append(nxt)
        if cycle_start is not None:
            for theta in seq:
                add(theta, ins.length, owner)
            atoms[seq[-1]].closing = ins.kind   # step closing the cycle
        else:
            # no rational return: truncate forward with shrinking lengths
            length = ins.length
            seq = [ins.base_angle]
            while length >= min_len:
                length /= 2.0 * ad
                nxt = (d * seq[-1]) % 1
                if nxt in atoms and atoms[nxt].owner != owner:
                    raise Clash(f"orbit collision at angle {nxt}")
                if nxt in atoms:
                    break
                seq.append(nxt)
            lengths = [ins.length]
            for _ in seq[1:]:
                lengths.append(lengths[-1] / (2.0 * ad))
            for theta, ell in zip(seq, lengths):
                add(theta, ell, owner)

    # preimage atoms, pruned below the grid floor
    frontier = list(atoms.values())
    for _ in range(depth):
        new = []
        for atom in frontier:
            child_len = atom.length / (2.0 * ad)
            if child_len < min_len:
                continue
            for j in range(ad):
                pre = (Fraction(atom.angle + j, d)) % 1
                if pre in atoms:
                    if atoms[pre].owner != atom.owner:
                        raise Clash(f"orbit collision at angle {pre}")
                    continue
                new.append(add(pre, child_len, atom.owner))
        if not new:
            break
        frontier = new
    return atoms


def _per_sample_blow_up(d, insertions, grid, depth=12):
    """Reference assembly of blow_up's lift, one grid sample at a time.

    Returns the lift samples and the set of branches the samples took
    ("atom", "truncated", "gap")."""
    specs = [Insertion.of(s) for s in insertions]
    atoms = _fraction_orbit_atoms(d, specs, 0.05 / grid, depth, 64)
    total = sum(a.length for a in atoms.values())
    order = sorted(atoms)
    angles = np.array([float(t) for t in order])
    lengths = np.array([atoms[t].length for t in order])
    scale = 1.0 - total
    lefts = scale * angles + np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
    index = {t: i for i, t in enumerate(order)}
    i0 = index[specs[0].base_angle]
    shift = 0.5 - (lefts[i0] + 0.5 * lengths[i0])
    lefts = lefts + shift

    def position(u):
        i = np.searchsorted(angles, u, side="right") - 1
        csum = np.concatenate(([0.0], np.cumsum(lengths)))
        return shift + scale * u + csum[i + 1]

    def kind_map(kind, s):
        knots, vals = INSERT_KINDS[kind]
        return np.interp(s, knots, vals)

    xs = np.linspace(0.0, 1.0, grid + 1)
    samples = np.empty(grid + 1)
    xw = shift + frac(xs - shift)
    off = np.round(xw - xs)
    piece = np.searchsorted(lefts, xw + 1e-15, side="right") - 1
    piece = np.clip(piece, -1, len(order) - 1)
    rights = lefts + lengths
    wrap_last = len(order) - 1
    branches = set()
    for i in range(grid + 1):
        p = int(piece[i]) if piece[i] >= 0 else wrap_last
        x = xw[i]
        left, ell = lefts[p], lengths[p]
        if x <= rights[p] + 1e-15 and x >= left - 1e-15 and piece[i] >= 0:
            s = min(max((x - left) / ell, 0.0), 1.0)
            atom = atoms[order[p]]
            img = (d * atom.angle) % 1
            branch = float(d * atom.angle - img)
            if img in index:
                branches.add("atom")
                q = index[img]
                pos = kind_map(atom.closing or "identity", np.array([s]))[0]
                if d < 0:
                    pos = 1.0 - pos
                val = lefts[q] + pos * lengths[q] + branch
            else:
                branches.add("truncated")
                val = float(position(np.array([float(img)]))[0]) + branch
        else:
            branches.add("gap")
            gl = rights[p] if piece[i] >= 0 else rights[wrap_last] - 1.0
            t_old = float(order[p]) if piece[i] >= 0 else angles[wrap_last] - 1.0
            t = t_old + (x - gl) / scale
            tau = d * t
            val = float(position(np.array([frac(tau)]))[0]) + np.floor(tau)
        samples[i] = val - off[i] * d
    return make_lift(samples).samples, branches


def _ins(angle, kind, length=0.12):
    return {"base_angle": angle, "length": length, "kind": kind}


# float base angles with no rational return whose truncated chain end holds a sample
TRUNCATED = [(2, 0.5355339059327378, 1024), (2, 0.9597979746446668, 4096),
             (3, 0.39411254969542897, 1024)]


BLOW_UPS = [
    *[(2, [_ins("1/3", k)], g) for k in sorted(INSERT_KINDS) for g in (1024, 4096)],
    *[(3, [_ins("1/8", k)], 1024) for k in sorted(INSERT_KINDS)],
    (3, [_ins("5/8", "south_north")], 4096),
    (-2, [_ins("0", "identity")], 1024),
    (-2, [_ins("1/3", "identity", 0.1)], 4096),
    (2, [_ins(0, "north_south", 0.08), _ins("1/3", "advance", 0.06)], 4096),
    (3, [_ins(0, "retreat", 0.08), _ins("1/2", "identity", 0.06)], 1024),
    *[(d, [_ins(a, "identity", 0.1)], g) for d, a, g in TRUNCATED],
]


@pytest.mark.parametrize("d,insertions,grid", BLOW_UPS)
def test_blow_up_matches_per_sample_reference(d, insertions, grid):
    ref, branches = _per_sample_blow_up(d, insertions, grid)
    assert np.array_equal(blow_up(d, insertions, grid=grid).samples, ref)
    if isinstance(insertions[0]["base_angle"], float):
        assert "truncated" in branches


@pytest.mark.parametrize("d,insertions,grid", BLOW_UPS)
def test_residue_atoms_match_fraction_reference(d, insertions, grid):
    specs = [Insertion.of(s) for s in insertions]
    ref = _fraction_orbit_atoms(d, specs, 0.05 / grid, 12, 64)
    L, atoms, closing = _orbit_atoms(d, specs, 0.05 / grid, 12, 64)
    # same atoms in the same insertion order, so the total length sums alike
    assert ([(Fraction(k, L), atom) for k, atom in atoms.items()]
            == [(t, (a.length, a.owner)) for t, a in ref.items()])
    assert ({Fraction(k, L): kind for k, kind in closing.items()}
            == {t: a.closing for t, a in ref.items() if a.closing})


# a float angle's truncated chain ends at 2^7 times it (length 0.1, grid 4096): a second
# insertion there clashes on its base, and one at 2^8 times it on a preimage of its own
X = Fraction(0.5355339059327378).limit_denominator(10 ** 12)


@pytest.mark.parametrize("d,angles", [
    (2, ["1/3", "2/3"]), (3, ["1/8", "3/8"]), (-2, ["1/3", "5/6"]), (2, ["1/10", "3/5"]),
    (2, [X, 2 ** 7 * X % 1]), (2, [X, 2 ** 8 * X % 1]),
])
def test_residue_atoms_clash_like_fraction_reference(d, angles):
    specs = [Insertion.of(_ins(a, "identity", 0.1)) for a in angles]
    with pytest.raises(Clash) as ref:
        _fraction_orbit_atoms(d, specs, 0.05 / 4096, 12, 64)
    with pytest.raises(Clash) as got:
        _orbit_atoms(d, specs, 0.05 / 4096, 12, 64)
    assert str(got.value) == str(ref.value)


def test_blow_up_depth_is_capped_where_atoms_fall_below_the_grid():
    ins = [_ins("1/8", "north_south", 0.1)]
    assert np.array_equal(blow_up(3, ins, depth=schema.MAX_SIZE).samples,
                          blow_up(3, ins, depth=12).samples)


def _scalar_plateau_set(h, plateau_tol):
    """plateau_set with one scalar searchsorted per greedy step."""
    n = h.grid
    s = h.orientation * h.samples
    xs = np.linspace(0.0, 1.0, n + 1)
    out = []
    i = 0
    while i <= n - 2:
        j = int(np.searchsorted(s, s[i] + plateau_tol, side="left")) - 1
        if j >= i + 2:
            out.append((xs[i], xs[j]))
            i = j + 1
        else:
            i += 1
    merged = []
    for a, b in out:
        if merged and a - merged[-1][1] <= 2.5 / n:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    out = merged
    if len(out) >= 2:
        (a0, b0), (a1, b1) = out[0], out[-1]
        touches = a0 <= 1.0 / n and b1 >= 1.0 - 1.5 / n
        if touches and (s[int(round(b0 * n))] + 1.0 - s[int(round(a1 * n))]) <= plateau_tol:
            out = out[1:-1] + [(a1, b0 + 1.0)]
    return out


def _scalar_dip_roots(roots, xs, vals, tang_tol, sep):
    """interval_signature's per-sample scan for runs of |vals| <= tang_tol."""
    roots = list(roots)
    small = np.abs(vals) <= tang_tol
    i = 0
    while i < len(small):
        if small[i]:
            j = i
            while j + 1 < len(small) and small[j + 1]:
                j += 1
            x_star = float(xs[i + int(np.argmin(np.abs(vals[i:j + 1])))])
            if not any(abs(x_star - r) <= sep for r in roots):
                roots.append(x_star)
            i = j + 1
        else:
            i += 1
    return roots


@pytest.mark.parametrize("seed", range(20))
def test_dip_roots_match_scalar_reference_on_random_runs(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(0.0, 1.0, 64))
    vals = rng.normal(size=64)                   # runs of |vals| <= 0.6, ends included
    earlier = sorted(rng.uniform(0.0, 1.0, seed % 4).tolist())
    roots = list(earlier)
    classify._add_dip_roots(roots, xs, vals, 0.6, 0.05)
    assert roots == _scalar_dip_roots(earlier, xs, vals, 0.6, 0.05)


@pytest.mark.parametrize("d,insertions,grid", BLOW_UPS)
def test_plateaus_and_dip_roots_match_scalar_references(d, insertions, grid, monkeypatch):
    m = blow_up(d, insertions, grid=grid)
    h = solve_semiconjugacy(m, 1, 1e-8)
    assert plateau_set(h) == _scalar_plateau_set(h, 2.0 / h.grid)
    checked = []

    def compare(roots, xs, vals, tang_tol, sep):
        expected = _scalar_dip_roots(roots, xs, vals, tang_tol, sep)
        add_dip_roots(roots, xs, vals, tang_tol, sep)
        checked.append(roots == expected)

    add_dip_roots = classify._add_dip_roots
    monkeypatch.setattr(classify, "_add_dip_roots", compare)
    records = classification_data(m).records
    assert all(checked)
    if any(not r.signature.identity_like and r.signature.fixed_point_count is not None
           for r in records):
        assert checked


def _fraction_classify_point(z, d, max_period, max_depth=24):
    """The orbit class stepping the Fraction itself: (d * a) % 1."""
    def is_per(a):
        w = a
        for n in range(1, max_period + 1):
            w = (d * w) % 1
            if w == a:
                return n
        return None

    n = is_per(z)
    if n is not None:
        return OrbitClass("periodic", period=n)
    w = z
    for m in range(1, max_depth + 1):
        w = (d * w) % 1
        n = is_per(w)
        if n is not None:
            return OrbitClass("preperiodic", period=n, preperiod=m)
    return OrbitClass("wandering", depth_limited=True)


def _structured_denominators(d, q_max=10 ** 4):
    """Every |d|^m * |d^n - 1| <= q_max: the denominators of eventually periodic angles."""
    qs, n = set(), 1
    while abs(d ** n - 1) <= q_max:
        q = abs(d ** n - 1)
        while q <= q_max:
            qs.add(q)
            q *= abs(d)
        n += 1
    return sorted(qs)


@pytest.mark.parametrize("d", [2, 3, -2, -3])
def test_integer_orbits_match_fraction_reference(d):
    # every numerator up to denominator 256, eight seeded ones above it
    rng = np.random.default_rng(abs(d) + 10 * (d < 0))
    angles = {Fraction(int(k), q) for q in _structured_denominators(d)
              for k in (range(q) if q <= 256 else rng.choice(q, 8, replace=False))}
    kinds = set()
    for max_period in (6, 16):
        for z in sorted(angles):
            got = _classify_point(z, d, max_period)
            assert got == _fraction_classify_point(z, d, max_period), z
            kinds.add(got.kind)
    assert kinds == {"periodic", "preperiodic", "wandering"}


def _nested_classify_point(z, d, max_period, max_depth=24):
    """The orbit class as nested loops: a period search at every preperiod."""
    q = z.denominator

    def is_per(a):
        w = a
        for n in range(1, max_period + 1):
            w = d * w % q
            if w == a:
                return n
        return None

    w = z.numerator % q
    n = is_per(w)
    if n is not None:
        return OrbitClass("periodic", period=n)
    for m in range(1, max_depth + 1):
        w = d * w % q
        n = is_per(w)
        if n is not None:
            return OrbitClass("preperiodic", period=n, preperiod=m)
    return OrbitClass("wandering", depth_limited=True)


@pytest.mark.parametrize("d", [2, 3, -2, -3, 4, 5])
def test_orbit_walk_matches_nested_loops(d):
    # structured denominators up to 10^9 (eventually periodic angles) and
    # seeded unstructured ones; the walk reads the period and preperiod
    # from where its first repeat sits
    rng = np.random.default_rng(30 + d)
    qs = _structured_denominators(d, 10 ** 9) + [int(q) for q in rng.integers(2, 10 ** 9, 20)]
    angles = {Fraction(int(k), q) for q in qs
              for k in (range(q) if q <= 64 else rng.integers(0, q, 6))}
    kinds = set()
    for max_period in (16, 3, 1, 5):
        for z in sorted(angles):
            got = _classify_point(z, d, max_period)
            assert got == _nested_classify_point(z, d, max_period), z
            kinds.add(got.kind)
    assert kinds == {"periodic", "preperiodic", "wandering"}


def _scalar_orbit_corroborated(theta, d, measured_angles, tol, horizon=12):
    """_orbit_corroborated with one circle_dist call per Fraction orbit point."""
    if len(measured_angles) == 0:
        return False
    w = theta
    seen = {w}
    for _ in range(horizon):
        w = (d * w) % 1
        if float(np.min(circle_dist(measured_angles, float(w)))) > tol:
            return False
        if w in seen:
            break
        seen.add(w)
    return True


@pytest.mark.parametrize("d", [2, 3, -2, -3])
def test_orbit_corroboration_matches_scalar_reference(d):
    rng = np.random.default_rng(20 + d)
    denominators = _structured_denominators(d, 2000)
    verdicts, thetas, seen = [], [], []
    for _ in range(200):
        q = int(rng.choice(denominators))
        theta = Fraction(int(rng.integers(q)), q)
        orbit, w = [], theta
        for _ in range(12):
            w = (d * w) % 1
            orbit.append(float(w))
        tol = 1e-3
        # orbit points moved by up to 2 tol (some exactly tol), a few dropped, plus clutter
        shift = tol * rng.choice([0.0, 0.5, 1.0, -1.0, 2.0], len(orbit), p=[.3, .3, .2, .1, .1])
        keep = rng.random(len(orbit)) < 0.9
        measured = np.concatenate((frac(np.array(orbit) + shift)[keep], rng.random(3)))
        thetas.append(theta)
        seen.append(measured)
        [got] = _corroborated([theta], d, measured, tol)
        assert got == _scalar_orbit_corroborated(theta, d, measured, tol), theta
        verdicts.append(got)
    # one call for orbits of every length against the first half's angles; None fails
    shared = np.concatenate(seen[:100])
    batch = _corroborated([None] + thetas, d, shared, 1e-3)
    assert batch == [False] + [_scalar_orbit_corroborated(t, d, shared, 1e-3) for t in thetas]
    assert set(batch[1:101]) == set(batch[101:]) == {True, False}
    assert _corroborated([Fraction(1, 3)], d, np.array([]), 1e-3) == [False]
    # dyadic orbit 1/2 -> 0 -> 0, each measured exactly 2^-10 away: the bound is inclusive
    measured = np.array([0.5 + 2.0 ** -10, 1.0 - 2.0 ** -10])
    for tol in (2.0 ** -10, 2.0 ** -11):
        assert (_corroborated([Fraction(1, 4)], 2, measured, tol)
                == [_scalar_orbit_corroborated(Fraction(1, 4), 2, measured, tol)]
                == [tol == 2.0 ** -10])
    assert set(verdicts) == {True, False}


def _scalar_classification_data(m, tol=1e-8, max_period=16):
    """classification_data's records from one h() call, snap and corroboration per plateau."""
    h = solve_semiconjugacy(m, 1, tol)
    plateau_tol = 2.0 / h.grid
    plateaus = plateau_set(h)
    measured = np.array([float(frac(h(0.5 * (a + b)))) for (a, b) in plateaus])
    records = []
    for (a, b), theta in zip(plateaus, measured):
        [snapped] = snap_structured_angle([theta], m.degree, 5e-4, max_period)
        if snapped is not None and not _scalar_orbit_corroborated(
                snapped, m.degree, measured, max(2.0 * plateau_tol, 1e-3)):
            snapped = None
        if snapped is None:
            cls = OrbitClass("wandering", depth_limited=True)
            angle = theta
        else:
            cls = _classify_point(snapped, m.degree, max_period)
            angle = float(snapped)
        if cls.kind == "periodic":
            try:
                sig = interval_signature(m, (a, b), cls.period)
            except NotInvariant:
                cls = OrbitClass("wandering", depth_limited=True)
                sig = IntervalSignature.identity_class()
        else:
            sig = IntervalSignature.identity_class()
        records.append(PlateauRecord(angle, cls.kind, cls.period, cls.preperiod,
                                     cls.depth_limited, (a, b), sig))
    records.sort(key=lambda r: r.image_angle)
    return records


@pytest.mark.parametrize("seed", range(25))
def test_classification_data_matches_per_record_reference(seed):
    """The c06 recipe's blow-ups at every degree and period: records and angle bits agree."""
    rng = np.random.default_rng(300 + seed)
    kinds = sorted(INSERT_KINDS)
    seen = set()
    for d in (2, 3):
        for period in (1, 2, 3):
            q = d ** period - 1
            ins = [{"base_angle": Fraction(int(rng.integers(0, q)), q),
                    "length": float(rng.uniform(0.08, 0.18)),
                    "kind": kinds[rng.integers(0, len(kinds))]}]
            got = classification_data(blow_up(d, ins)).records
            want = _scalar_classification_data(blow_up(d, ins))
            assert got == want
            assert (np.array([r.image_angle for r in got]).tobytes()
                    == np.array([r.image_angle for r in want]).tobytes())
            seen.update(r.kind for r in got)
    assert {"periodic", "wandering"} <= seen



def _two_walk_classify_point(z, d, max_period):
    """The orbit class from a walk of its own, as classification_data once took it."""
    walk = classify._orbit_walk(z.numerator % z.denominator, d, z.denominator,
                                classify.MAX_DEPTH + max_period)
    preperiod = walk.index(walk[-1])
    period = len(walk) - 1 - preperiod
    if 0 < period <= max_period and preperiod <= classify.MAX_DEPTH:
        if preperiod == 0:
            return OrbitClass("periodic", period=period)
        return OrbitClass("preperiodic", period=period, preperiod=preperiod)
    return OrbitClass("wandering", depth_limited=True)


def _horizon_walk_corroborated(thetas, d, measured_angles, tol):
    """The batch corroboration walking each snapped angle HORIZON steps itself."""
    snapped = [i for i, theta in enumerate(thetas) if theta is not None]
    ok = [False] * len(thetas)
    if not snapped or len(measured_angles) == 0:
        return ok
    orbits = []
    for i in snapped:
        q = thetas[i].denominator
        orbits.append([w / q for w in classify._orbit_walk(thetas[i].numerator % q, d, q,
                                                           classify.HORIZON)[1:]])
    width = max(map(len, orbits))
    images = np.array([orbit + orbit[-1:] * (width - len(orbit)) for orbit in orbits])
    s = np.sort(measured_angles)
    j = np.searchsorted(s, images)
    near = s[np.stack((j % len(s), j - 1))]
    hit = np.all(circle_dist(near, images).min(axis=0) <= tol, axis=1)
    for i, verdict in zip(snapped, hit.tolist()):
        ok[i] = verdict
    return ok


def _two_walk_classification_data(m, tol=1e-8, max_period=16):
    """classification_data walking each snapped angle twice: HORIZON steps to
    corroborate it, then MAX_DEPTH + max_period steps to classify it."""
    h = solve_semiconjugacy(m, 1, tol)
    plateaus = plateau_set(h)
    measured = frac(h(np.array([0.5 * (a + b) for (a, b) in plateaus])))
    snaps = snap_structured_angle(measured, m.degree, 5e-4, max_period)
    corroborated = _horizon_walk_corroborated(snaps, m.degree, measured,
                                              max(4.0 / h.grid, 1e-3))
    records = []
    for (a, b), theta, snapped, ok in zip(plateaus, measured.tolist(), snaps, corroborated):
        if not ok:
            cls = OrbitClass("wandering", depth_limited=True)
            angle = theta
        else:
            cls = _two_walk_classify_point(snapped, m.degree, max_period)
            angle = float(snapped)
        if cls.kind == "periodic":
            try:
                sig = interval_signature(m, (a, b), cls.period)
            except NotInvariant:
                cls = OrbitClass("wandering", depth_limited=True)
                sig = IntervalSignature.identity_class()
        else:
            sig = IntervalSignature.identity_class()
        records.append(PlateauRecord(angle, *cls, (a, b), sig))
    records.sort(key=lambda r: r.image_angle)
    return records


# one insertion each: every kind at d = 2 and 3, identity at d = -2 and -3
TWO_WALK_BLOW_UPS = [
    (2, "1/7", "north_south", 0.1), (2, "1/3", "south_north", 0.12), (2, "0", "advance", 0.1),
    (2, "2/7", "retreat", 0.08), (2, "1/5", "identity", 0.06), (2, "1/6", "north_south", 0.08),
    (3, "1/4", "north_south", 0.1), (3, "1/13", "south_north", 0.1), (3, "1/2", "advance", 0.12),
    (3, "0", "retreat", 0.1), (3, "1/8", "identity", 0.08),
    (-2, "1/3", "identity", 0.1), (-2, "1/5", "identity", 0.08),
    (-3, "1/4", "identity", 0.1), (-3, "1/10", "identity", 0.08),
]


@pytest.mark.parametrize("d,base,kind,length", TWO_WALK_BLOW_UPS)
def test_one_walk_records_equal_the_two_walk_records(d, base, kind, length):
    m = blow_up(d, [{"base_angle": base, "length": length, "kind": kind}])
    got = classification_data(m).records
    want = _two_walk_classification_data(m)
    assert got == want
    assert (np.array([r.image_angle for r in got]).tobytes()
            == np.array([r.image_angle for r in want]).tobytes())
    assert any(r.kind != "wandering" for r in got)         # some walk's class was read


@pytest.mark.parametrize("d,base,kind", [(2, "1/7", "north_south"), (3, "1/13", "advance"),
                                         (-2, "1/5", "identity")])
def test_classification_data_walks_each_snapped_orbit_once(d, base, kind, monkeypatch):
    m = blow_up(d, [{"base_angle": base, "length": 0.1, "kind": kind}])   # blow_up walks too
    walks, snaps = [], []
    orbit_walk, snap = classify._orbit_walk, classify.snap_structured_angle

    def counted_walk(*args):
        walks.append(args)
        return orbit_walk(*args)

    def recorded_snap(*args):
        snaps.extend(out := snap(*args))
        return out

    monkeypatch.setattr(classify, "_orbit_walk", counted_walk)
    monkeypatch.setattr(classify, "snap_structured_angle", recorded_snap)
    records = classification_data(m).records
    snapped = [z for z in snaps if z is not None]
    assert len(snaps) == len(records)
    assert len(walks) == len(snapped) > 0
    assert [args[:3] for args in walks] == [(z.numerator, d, z.denominator) for z in snapped]
    assert any(r.kind == "periodic" for r in records)

def _scalar_match_angles(xs, ys, tol):
    """_match_angles with one circle_dist call per pair and a (dist, i, j) tuple sort."""
    candidates = []
    for i, (ax, _) in enumerate(xs):
        for j, (ay, _) in enumerate(ys):
            dist = float(circle_dist(ax, ay))
            if dist <= tol:
                candidates.append((dist, i, j))
    candidates.sort()
    used_x, used_y = set(), set()
    pairs = []
    for _, i, j in candidates:
        if i in used_x or j in used_y:
            continue
        used_x.add(i)
        used_y.add(j)
        pairs.append((xs[i][1], ys[j][1]))
    extra_x = [r for i, (_, r) in enumerate(xs) if i not in used_x]
    extra_y = [r for j, (_, r) in enumerate(ys) if j not in used_y]
    return pairs, extra_x, extra_y


@pytest.mark.parametrize("seed", range(30))
def test_match_angles_matches_scalar_reference(seed):
    # angles on a 1/64 lattice give exact distance ties; 0 and 63/64 pair across the seam
    rng = np.random.default_rng(seed)

    def angles(n):
        a = rng.integers(0, 64, n) / 64.0
        a[rng.random(n) < 0.2] += rng.choice([1e-4, -1e-4, 1 / 128])
        return sorted(frac(np.concatenate((a, [0.0, 63 / 64][:seed % 3]))).tolist())

    xs = [(a, f"x{i}") for i, a in enumerate(angles(int(rng.integers(0, 12))))]
    ys = [(a, f"y{j}") for j, a in enumerate(angles(int(rng.integers(0, 12))))]
    for tol in (1e-3, 1 / 64, 2 / 64):
        assert classify._match_angles(xs, ys, tol) == _scalar_match_angles(xs, ys, tol)


def test_match_angles_breaks_distance_ties_by_x_then_y():
    # (x0, y1) across the seam and (x1, y0) are both 1/64 apart
    xs, ys = [(0.0, "x0"), (0.5, "x1")], [(33 / 64, "y0"), (63 / 64, "y1")]
    expected = ([("x0", "y1"), ("x1", "y0")], [], [])
    assert classify._match_angles(xs, ys, 1 / 64) == _scalar_match_angles(xs, ys, 1 / 64) == expected


# --- structural invariants --------------------------------------------------

def test_plateau_complete_invariance_at_resolution():
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = plateau_set(h)
    floor_len = 2.0 / h.grid

    def inside_some(angle_interval):
        lo, hi = angle_interval
        for a, b in plats:
            for shift in (-1.0, 0.0, 1.0):
                if a - 2 * floor_len <= lo + shift and hi + shift <= b + 2 * floor_len:
                    return True
        return False

    for a, b in plats:
        img = sorted((float(m(a)) % 1.0, float(m(b)) % 1.0))
        if img[1] - img[0] > 0.5:      # image wraps the seam
            img = [img[1] - 1.0, img[0]]
        assert inside_some(img)


def test_plateau_preimages_are_plateaus():
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = plateau_set(h)
    floor_len = 2.0 / h.grid
    # target: the plateau collapsing to angle 1/4 (depth two in the orbit)
    target = [p for p in plats
              if abs(float(frac(h(0.5 * (p[0] + p[1])))) - 0.25) < 1e-3][0]
    xs = np.linspace(0, 1, 200_001)
    vals = m(xs) % 1.0
    mask = (vals >= target[0]) & (vals <= target[1])
    # rotate so the scan starts outside a component, then pair the edges
    start = int(np.argmin(mask))
    rolled = np.roll(mask, -start)
    edges = np.flatnonzero(np.diff(rolled.astype(int)) != 0)
    assert len(edges) % 2 == 0
    comps = [((edges[k] + start) % len(xs), (edges[k + 1] + start) % len(xs))
             for k in range(0, len(edges), 2)]
    assert len(comps) == 2      # a covering has d preimage arcs
    for i, j in comps:
        a, b = xs[i], xs[j]
        length = (b - a) % 1.0
        if length <= 2 * floor_len:
            continue
        ok = any((a - (pa % 1.0)) % 1.0 <= floor_len and
                 (pb - pa) + 2 * floor_len >= length
                 for pa, pb in plats)
        assert ok, f"preimage arc ({a}, {b}) is not a detected plateau"


def test_transitivity_harness_orbits_never_dense():
    # a detected periodic plateau absorbs orbits; none becomes 0.05-dense
    m = blow_up(2, [{"base_angle": 0, "length": 0.2, "kind": "north_south"}])
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, 1000)
    orbit = np.empty((1000, 10_000))
    cur = pts.copy()
    for k in range(10_000):
        orbit[:, k] = cur
        cur = frac(m(cur))
    orbit.sort(axis=1)
    gaps = np.diff(orbit, axis=1)
    wrap = orbit[:, 0] + 1.0 - orbit[:, -1]
    max_gap = np.maximum(gaps.max(axis=1), wrap)
    assert np.all(max_gap > 0.05)


def test_periodic_density_harness():
    # plateau-free arcs of length >= 0.05 contain a periodic point of period <= 8
    m = blow_up(2, [NS])
    h = solve_semiconjugacy(m, 1, 1e-8)
    plats = [(a % 1.0, b % 1.0 if b <= 1 else b - 1.0) for a, b in plateau_set(h)]
    periodic = set()
    for n in range(1, 9):
        periodic.update(a for a, _ in find_periodic_points(m, n))
    periodic = np.array(sorted(periodic))
    cuts = sorted(x for p in plats for x in p)
    arcs = list(zip(cuts[1::2], cuts[2::2] + cuts[:1]))
    for lo, hi in arcs:
        length = (hi - lo) % 1.0
        if length < 0.05:
            continue
        inside = ((periodic - lo) % 1.0) < length
        assert inside.any(), f"no periodic point in arc ({lo}, {hi})"
