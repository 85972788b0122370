import numpy as np
import pytest

from semicov.annulus import AnnulusMapLift, BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import from_function, make_lift
from semicov.connectors import invariant_connector_from_arc, semiconjugacy_from_connectors
from semicov.errors import FiberNotMonotone, OutOfDomain, ValidationError
from semicov.obstruction import (WindingRecord, _composite_fiber, counterexample_growth_table,
                                 lift_loop_winding, star_condition_scan)
from semicov.semiconj2d import BandField2D


def lift_one(m, n, j, start):
    """lift_loop_winding's record for the one start (x, y0), through the chain over x."""
    forward, inverse = _composite_fiber(m, start[0], n)
    return lift_loop_winding(forward, inverse, n, j, start[0], np.array([float(start[1])]))[0]


def test_single_turn_lifts_to_half_turn(product_z2):
    # one turn lifts under z^2 to half a turn: no connector crossing
    rec = lift_one(product_z2, 1, 1, (0.5, 0.25))
    assert rec.winding == 0
    assert abs(rec.end_height - rec.start[1]) == pytest.approx(0.5, abs=1e-12)


def test_double_turn_lifts_to_full_turn(product_z2):
    rec = lift_one(product_z2, 1, 2, (0.5, 0.25))
    assert rec.winding == 1
    assert abs(rec.end_height - rec.start[1]) == pytest.approx(1.0, abs=1e-12)


def test_lift_pushforward_reproduces_loop(product_z2):
    # the lifted path G_2^-1(G_2(y0) + 3t), t in [0, 1], ends at the record's end height
    rec = lift_one(product_z2, 2, 3, (0.5, 0.125))
    forward, inverse = _composite_fiber(product_z2, 0.5, 2)
    ts = np.linspace(0.0, 1.0, 129)
    path = inverse(float(forward(np.array([0.125]))[0]) + 3 * ts)
    assert path[-1] == rec.end_height
    fwd = path.copy()
    for _ in range(2):
        fwd = np.asarray(product_z2.fiber(np.full_like(fwd, 0.5), fwd))
    assert np.max(np.abs(fwd - (fwd[0] + 3 * ts))) <= 1e-8


def scalar_lift(m, n, j, start):
    """lift_loop_winding's record from scalar floats: (end, winding, ambiguous)."""
    forward, inverse = _composite_fiber(m, start[0], n)
    y0 = float(start[1])
    end = float(inverse(np.array([float(forward(np.array([y0]))[0]) + j]))[0])
    winding = abs(int(np.floor(end)) - int(np.floor(y0)))
    return end, winding, min(abs(end - round(end)), abs(y0 - round(y0))) < 1e-8


@pytest.mark.parametrize("start", [(0.5, 0.0), (0.5, 0.25), (0.5, 0.999999999999), (0.3, -1.5)])
@pytest.mark.parametrize("n, j", [(1, 1), (2, 3), (3, 4)])
def test_lift_matches_scalar_reference(contracting_z2, start, n, j):
    # starts on or within 1e-8 of an integer height are flagged ambiguous
    rec = lift_one(contracting_z2, n, j, start)
    assert (rec.end_height, rec.winding, rec.ambiguous_endpoint) == scalar_lift(
        contracting_z2, n, j, start)
    assert [type(v) for v in (rec.end_height, rec.winding, rec.ambiguous_endpoint)] == [
        float, int, bool]
    if start[1] in (0.0, 0.999999999999):
        assert rec.ambiguous_endpoint


def per_record_scan(m, band, n_max):
    """star_condition_scan with one scalar_lift per start: the reference."""
    base_angle, x_anchor = 0.25, 0.5 * (band[0] + band[1])
    d = abs(m.degree)
    records = []
    for n in range(1, n_max + 1):
        forward, inverse = _composite_fiber(m, x_anchor, n)
        g0 = float(forward(np.array([0.0]))[0])
        first = np.ceil(g0 - base_angle) + np.arange(d ** n)
        starts = inverse(base_angle + first)
        starts = np.sort(starts - np.floor(starts))
        for j in sorted({1, max(1, int(np.ceil(d ** (n - 1) / 2))), max(1, d ** (n - 1))}):
            for y0 in starts.tolist():
                start = (x_anchor, y0)
                records.append(WindingRecord(n, j, start, *scalar_lift(m, n, j, start)))
    return records


def _sine_fiber(d, amplitude, tau=TauSpec("linear", 0.05)):
    circle = from_function(lambda x: d * x + amplitude * np.sin(2 * np.pi * x))
    return FiberMap(d, circle=circle, tau=tau)


SCAN_MAPS = {
    "c11": (BaseMap("affine_to_one"), FiberMap(2, tau=TauSpec("inv_one_minus", 1.0)), 6),
    "linear d=3": (BaseMap("contraction", (0.5, 0.9)), FiberMap(3, tau=TauSpec("linear", 0.3)), 4),
    "linear d=-2": (BaseMap("contraction", (0.5, 0.9)), FiberMap(-2), 6),
    "sine d=2": (BaseMap("contraction", (0.5, 0.9)), _sine_fiber(2, 0.1), 6),
    "sine d=-3": (BaseMap("contraction", (0.5, 0.9)), _sine_fiber(-3, 0.08), 4),
}


@pytest.mark.parametrize("name", SCAN_MAPS)
def test_star_scan_matches_per_record_reference(name):
    base, fiber, n_max = SCAN_MAPS[name]
    m = make_skew_product(base, fiber)
    got = star_condition_scan(m, (0.1, 0.9), n_max).records
    want = per_record_scan(m, (0.1, 0.9), n_max)
    assert got == want
    types = lambda r: [type(v) for v in (r.n, r.j, *r.start, r.end_height, r.winding,
                                         r.ambiguous_endpoint)]
    assert [types(r) for r in got] == [types(r) for r in want]
    assert types(got[0]) == [int, int, float, float, float, int, bool]


def test_non_monotone_fiber_is_rejected():
    # built directly: make_skew_product would refuse the fiber.  The samples
    # fall from 40/128 to 41/128, where slope_range samples an angle
    values = [2 * i / 128 for i in range(129)]
    values[41] = values[39]
    lift = make_lift(values)
    assert not lift.is_covering
    m = AnnulusMapLift(BaseMap("contraction", (0.5, 0.9)), FiberMap(2, circle=lift))
    with pytest.raises(FiberNotMonotone):
        star_condition_scan(m, (0.1, 0.9), 3)


def test_star_scan_product_bounded(product_z2):
    report = star_condition_scan(product_z2, (0.1, 0.9), 5)
    assert report.max_winding <= 1
    assert set(report.max_per_n()) == {1, 2, 3, 4, 5}


def test_star_scan_example_within_bound(example_map):
    c = invariant_connector_from_arc(example_map, (0.5, 0.0),
                                     n_back=9, n_fwd=16, margin=1e-5)
    c.value = 0.0
    field = semiconjugacy_from_connectors(example_map, [c], depth=8,
                                          band=(0.1, 0.9), nx=65, ny=128)
    report = star_condition_scan(example_map, (0.1, 0.9), 6, h_field=field)
    assert report.deviation_bound == field.deviation_bound
    assert report.implied_bound == 2 * report.deviation_bound + 1
    assert report.satisfied
    # every record's endpoints sit on the anchor column inside the band
    assert all(0.1 <= r.start[0] <= 0.9 for r in report.records)


def test_star_scan_bound_covers_every_node(example_map):
    # the star-scan golden's field: a sample of it can miss the node maximum
    # 13.203125, which the bilinear field attains
    c = invariant_connector_from_arc(example_map, (0.5, 0.0),
                                     n_back=9, n_fwd=16, margin=1e-5)
    c.value = 0.0
    field = semiconjugacy_from_connectors(example_map, [c], depth=6, band=(0.1, 0.9))
    report = star_condition_scan(example_map, (0.1, 0.9), 3, h_field=field)
    ys = np.linspace(0.0, 1.0, field.ny + 1)
    assert report.deviation_bound >= np.max(np.abs(field.values - ys))


@pytest.mark.parametrize("field_band", [(0.2, 0.9), (0.1, 0.8), (0.3, 0.6), (0.92, 0.95)])
def test_star_scan_refuses_a_field_short_of_the_band(product_z2, field_band):
    # a field on part of the scan band bounds nothing on the rest of it
    field = BandField2D(field_band, np.tile(np.linspace(0.0, 1.0, 9), (5, 1)))
    with pytest.raises(OutOfDomain):
        star_condition_scan(product_z2, (0.1, 0.9), 2, h_field=field)


def _seeded_skew_product(d, fiber, seed):
    """A contraction base and a linear or sine fiber of degree d, tau linear, drawn from seed."""
    rng = np.random.default_rng(seed)
    base = BaseMap("contraction", (rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.95)))
    tau = TauSpec("linear", rng.uniform(-0.5, 0.5))
    amplitude = rng.uniform(0.0, 0.15)          # slope d + 2 pi a cos stays away from 0
    fiber = FiberMap(d, tau=tau) if fiber == "linear" else _sine_fiber(d, amplitude, tau)
    return make_skew_product(base, fiber)


@pytest.mark.parametrize("seed", range(40, 45))
@pytest.mark.parametrize("fiber", ["linear", "sine"])
@pytest.mark.parametrize("d", [2, 3, -2, -3])
def test_skew_product_windings_are_at_most_one(d, fiber, seed):
    # a monotone composed fiber of degree d^n moves a lift at most one unit for
    # j <= |d|^n; lifting j = 2|d|^n instead shows that the check can fail
    m = _seeded_skew_product(d, fiber, seed)
    n_max = 6 if abs(d) == 2 else 4
    report = star_condition_scan(m, (0.1, 0.9), n_max)
    assert report.max_winding <= 1
    assert set(report.max_per_n()) == set(range(1, n_max + 1))
    for n in range(1, n_max + 1):
        forward, inverse = _composite_fiber(m, 0.5, n)
        starts = np.array([r.start[1] for r in report.records if r.n == n and r.j == 1])
        doubled = lift_loop_winding(forward, inverse, n, 2 * abs(d) ** n, 0.5, starts)
        assert {r.winding for r in doubled} == {2}


def test_star_scan_refuses_more_starts_than_its_limit(product_z2, contracting_z3):
    # |d|^nmax starts per loop above 2^18 are refused before any lift is built
    for m, n_max in ((product_z2, 19), (contracting_z3, 12), (product_z2, 2 ** 24)):
        with pytest.raises(ValidationError, match=r"more than 2\^18"):
            star_condition_scan(m, (0.1, 0.9), n_max)


def test_star_scan_covers_all_branches(product_z2):
    report = star_condition_scan(product_z2, (0.1, 0.9), 4)
    counts = {}
    for r in report.records:
        counts[(r.n, r.j)] = counts.get((r.n, r.j), 0) + 1
    for (n, _), k in counts.items():
        assert k == 2 ** n


def test_growth_table():
    rows = counterexample_growth_table(8)
    assert [r["n"] for r in rows] == list(range(2, 9))
    assert [r["lower_bound"] for r in rows] == [n - 1 for n in range(2, 9)]
    bounds = [r["lower_bound"] for r in rows]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(r["invariants_verified"] for r in rows)
    assert all(r["height_separation"] > r["n"] - 1 for r in rows)


def test_growth_table_requires_two():
    with pytest.raises(ValueError):
        counterexample_growth_table(1)


def test_growth_table_holds_up_to_47_only():
    rows = counterexample_growth_table(47)
    assert len(rows) == 46
    assert rows[-1]["y_prime_height"] > 47
    assert all(r["invariants_verified"] is (r["y_prime_height"] > r["n"] and
                                            r["height_separation"] > r["n"] - 1) for r in rows)
    assert all(r["invariants_verified"] for r in rows)
    with pytest.raises(ValidationError, match="at most 47.*got 48"):
        counterexample_growth_table(48)
