"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
"""
import time
from fractions import Fraction

import numpy as np

from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import find_periodic_points, from_function, model_lift
from semicov.classify import (blow_up, classification_data,
                              compare_classification, transform_insertions)
from semicov.connectors import (constant_connector, invariant_connector_from_arc,
                                repelling_connectors, semiconjugacy_from_connectors,
                                semiconjugacy_from_repellers)
from semicov.numerics import circle_dist
from semicov.obstruction import counterexample_growth_table, star_condition_scan
from semicov.semiconj1d import (SemiconjugacyField1D, contraction_step,
                                self_conjugacies, solve_semiconjugacy)
from semicov.semiconj2d import (FIBER_TOL, check_fiber_connector, check_fiber_surjectivity,
                                solve_band_semiconjugacy)
from semicov.stability import (DISC_WIDTH, R_SAMPLES, EpsilonSpec, perturb_p2,
                               verify_perturbation)

EXPECTED_SIGNATURES = {
    "north_south": (3, (-1, 1, -1, 1)),
    "south_north": (3, (-1, -1, 1, 1)),
    "advance": (2, (-1, 1, 1)),
    "retreat": (2, (-1, -1, 1)),
}
ALTERED_KIND = {"identity": "north_south", "north_south": "identity",
                "south_north": "advance", "advance": "north_south",
                "retreat": "north_south"}


def _verdict(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _random_field(rng, grid):
    xs = np.linspace(0, 1, grid + 1)
    h = xs.copy()
    for k in range(1, 9):
        h += rng.normal(0, 0.3 / k ** 2) * np.sin(2 * np.pi * k * xs + rng.uniform(0, 7))
    h[-1] = h[0] + 1.0
    return h


def test_c01_operator_contraction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for d in (2, 3):
        m = from_function(lambda x: d * x + 0.1 * np.sin(2 * np.pi * x))
        for _ in range(20):
            h1 = SemiconjugacyField1D(_random_field(rng, m.grid), 1, d)
            h2 = SemiconjugacyField1D(_random_field(rng, m.grid), 1, d)
            before = np.max(np.abs(h1.samples - h2.samples))
            after = np.max(np.abs(contraction_step(h1, m).samples
                                  - contraction_step(h2, m).samples))
            ok &= after / before <= 1.0 / abs(d) + 0.01
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(1, f"contraction factor <= 1/|d| + 0.01 for d=2,3 ({elapsed:.2f}s)", ok)


def test_c02_model_fixed_point():
    ok = True
    for d in (2, 3):
        h = solve_semiconjugacy(model_lift(d), 1, 1e-10)
        xs = np.linspace(0, 1, 4096)
        ok &= np.max(np.abs(h(xs) - xs)) <= 1e-9
        ok &= h.residual <= 1e-9
    _verdict(2, "model map solves to the identity within 1e-9", ok)


def test_c03_shift_law():
    ok = True
    xs = np.linspace(0, 1, 1000, endpoint=False)
    for d in (2, 3, 4):
        h = solve_semiconjugacy(
            from_function(lambda x: d * x + 0.1 * np.sin(2 * np.pi * x)), 1, 1e-9)
        h_up = solve_semiconjugacy(
            from_function(lambda x: d * x + 0.1 * np.sin(2 * np.pi * x) + 1.0), 1, 1e-9)
        ok &= np.max(np.abs(h_up(xs) - h(xs) - 1.0 / (d - 1))) <= 1e-6
    _verdict(3, "lift shift moves the rotation number by 1/(d-1), d=2,3,4", ok)


def test_c04_affine_oracle():
    ok = True
    xs = np.linspace(0, 1, 1000)
    for d, c in ((2, 0.25), (3, 0.25), (4, -0.3)):
        h = solve_semiconjugacy(from_function(lambda x: d * x + c), 1, 1e-9)
        ok &= np.max(np.abs(h(xs) - (xs + c / (d - 1)))) <= 1e-8
    _verdict(4, "affine maps solve to the analytic fixed point within 1e-8", ok)


def test_c05_self_conjugacy_group():
    ok = True
    thetas = np.linspace(0, 1, 1000, endpoint=False)
    for d in (2, 3, 4):
        group = self_conjugacies(d)
        ok &= len(group) == 2 * abs(d - 1)
        for c in group:
            ok &= float(np.max(circle_dist(c.apply_angle((d * thetas) % 1),
                                           (d * c.apply_angle(thetas)) % 1))) <= 1e-12
        ident = [g for g in group if g.is_identity][0]
        for a in group:
            ok &= a.compose(a.inverse()).is_identity
            ok &= a.compose(ident) == a
            for b in group:
                ok &= a.compose(b) in group
    _verdict(5, "self-conjugacies form the dihedral group of order 2|d-1|", ok)


def test_c06_classification_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    kinds = sorted(EXPECTED_SIGNATURES) + ["identity"]
    ok = True
    for trial in range(10):
        d = int(rng.choice([2, 3]))
        period = int(rng.choice([1, 2, 3]))
        q = d ** period - 1
        base = Fraction(int(rng.integers(0, q)), q)
        kind = kinds[rng.integers(0, len(kinds))]
        length = float(rng.uniform(0.08, 0.18))
        ins = [{"base_angle": base, "length": length, "kind": kind}]

        data = classification_data(blow_up(d, ins))
        cycle = set()
        th = base
        for _ in range(period + 1):
            cycle.add(float(th))
            th = (d * th) % 1
        hits = [r for r in data.records if r.kind == "periodic"
                and any(circle_dist(r.image_angle, a) < 1e-3 for a in cycle)]
        ok &= bool(hits)
        if hits:
            sig = hits[0].signature
            if kind == "identity":
                ok &= sig.identity_like
            else:
                ok &= (sig.fixed_point_count, sig.sign_pattern) == EXPECTED_SIGNATURES[kind]

        rot = rng.choice([c for c in self_conjugacies(d) if not c.is_identity])
        data_rot = classification_data(blow_up(d, transform_insertions(ins, rot)))
        ok &= compare_classification(data, data_rot).status == "equivalent"

        altered = [{"base_angle": base, "length": length, "kind": ALTERED_KIND[kind]}]
        data_alt = classification_data(blow_up(d, altered))
        ok &= compare_classification(data, data_alt).status == "distinct"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _verdict(6, f"10 randomized blow-ups round-trip and compare correctly ({elapsed:.1f}s)", ok)


def test_c07_periodic_counts():
    ok = True
    for d in (2, 3):
        m = model_lift(d)
        for n in range(1, 7):
            pts = find_periodic_points(m, n, tol=1e-9)
            ok &= len(pts) == d ** n - 1
            for angle, _ in pts:
                g = m.iterate(angle, n) - angle
                ok &= abs(g - round(g)) <= 1e-9
    _verdict(7, "the model map has exactly d^n - 1 periodic angles, d=2,3, n<=6", ok)


def test_c08_band_semiconjugacy():
    m = make_skew_product(BaseMap("identity"), FiberMap(2, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8)
    xg, yg = np.meshgrid(np.linspace(0.2, 0.8, 65), np.linspace(0, 1, 65), indexing="ij")
    ok = np.max(np.abs(h(xg, yg) - (yg + 0.1 * xg))) <= 1e-6
    ok &= FIBER_TOL == 0.01
    ok &= check_fiber_surjectivity(h, 0.5)
    for z in np.linspace(0, 1, 16, endpoint=False):
        ok &= check_fiber_connector(h, float(z))
    _verdict(8, "band field matches the ansatz y + 0.1x and is fiberwise onto", ok)


def test_c09_repeller_recovery():
    ok = True
    for d, lines, c0 in ((2, (1.0,), 0.25), (3, (0.5, 1.0), 1 / 6)):
        m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(d))
        reps = repelling_connectors(m, constant_connector(c0), depth=10)
        ok &= len(reps) == d - 1
        used = []
        for r in reps:
            target = min(lines, key=lambda t: abs(float(np.mean(r.heights)) - t))
            used.append(target)
            ok &= np.max(np.abs(r.heights - target)) <= 2.0 * d ** -10
        ok &= sorted(used) == sorted(lines)
    _verdict(9, "depth-10 repellers sit on the root-of-unity lines within 2 d^-10", ok)


def test_c10_coded_field_agreement():
    ok = True
    for d, depth in ((2, 10), (3, 8)):
        m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(d))
        c0 = 0.25 if d == 2 else 1 / 6
        reps = repelling_connectors(m, constant_connector(c0), depth=10)
        coded = semiconjugacy_from_repellers(m, reps, depth=depth, band=(0.2, 0.8))
        tol = 1e-10
        op = solve_band_semiconjugacy(m, (0.2, 0.8), tol)
        xg, yg = np.meshgrid(np.linspace(0.2, 0.8, 17),
                             np.linspace(0, 1, 32, endpoint=False), indexing="ij")
        best = min(float(np.max(circle_dist(c.apply_angle(coded(xg, yg)), op(xg, yg))))
                   for c in self_conjugacies(d))
        ok &= best <= float(d) ** (-depth + 1) + 10 * tol
    _verdict(10, "repeller-coded and operator fields agree up to a self-conjugacy", ok)


def test_c10_negative_degree_at_depth_ten():
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(-2))
    reps = repelling_connectors(m, constant_connector(0.25), depth=10)
    coded = semiconjugacy_from_repellers(m, reps, depth=10, band=(0.2, 0.8))
    tol = 1e-10
    op = solve_band_semiconjugacy(m, (0.2, 0.8), tol)
    xg, yg = np.meshgrid(np.linspace(0.2, 0.8, 17),
                         np.linspace(0, 1, 32, endpoint=False), indexing="ij")
    best = min(float(np.max(circle_dist(c.apply_angle(coded(xg, yg)), op(xg, yg))))
               for c in self_conjugacies(-2))
    ok = coded.metadata["curves"] == 6141 and best <= 2.0 ** -9 + 10 * tol
    _verdict(10, f"d=-2 coded at depth 10 agrees with the operator field to {best:.1e}", ok)


def test_c11_winding_bound():
    m = make_skew_product(BaseMap("affine_to_one"),
                          FiberMap(2, tau=TauSpec("inv_one_minus", 1.0)))
    c = invariant_connector_from_arc(m, (0.5, 0.0), n_back=9, n_fwd=16, margin=1e-5)
    c.value = 0.0
    field = semiconjugacy_from_connectors(m, [c], depth=8, band=(0.1, 0.9),
                                          nx=65, ny=128)
    report = star_condition_scan(m, (0.1, 0.9), 6, h_field=field)
    ok = report.deviation_bound is not None
    ok &= report.max_winding <= 2 * report.deviation_bound + 1
    ok &= report.satisfied
    _verdict(11, f"all windings (max {report.max_winding}) within 2M+1 = "
                 f"{report.implied_bound:.1f} on [0.1, 0.9], n<=6", ok)


def test_c12_counterexample_growth():
    rows = counterexample_growth_table(8)
    ok = [r["n"] for r in rows] == list(range(2, 9))
    ok &= [r["lower_bound"] for r in rows] == [n - 1 for n in range(2, 9)]
    ok &= all(r["invariants_verified"] for r in rows)
    ok &= all(r["height_separation"] > r["n"] - 1 for r in rows)
    _verdict(12, "glued-family winding bounds grow as n-1 for n = 2..8", ok)


def test_c13_stability_construction():
    start = time.perf_counter()
    spec = perturb_p2(EpsilonSpec("const", 0.1))
    rep = verify_perturbation(spec, grid=100_000)
    ok = R_SAMPLES == 10_000 and DISC_WIDTH == 0.01
    ok &= rep["sup_ratio"] < 1.0
    ok &= rep["invariance_fraction"] == 1.0
    ok &= rep["injectivity"]["injective_on_sector"]
    ok &= rep["squaring_noninjective_after"] == 10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(13, f"perturbation verified: ratio {rep['sup_ratio']:.3f} < 1, "
                 f"sector invariant, injective ({elapsed:.1f}s)", ok)
