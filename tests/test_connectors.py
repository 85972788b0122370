import numpy as np
import pytest

from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import from_function
from semicov.connectors import (ConnectorCurve, _check_expansion, _interp_rows,
                                _preimage_block, constant_connector,
                                invariant_connector_from_arc, is_free,
                                preimage_connectors, repelling_connectors,
                                semiconjugacy_from_connectors,
                                semiconjugacy_from_repellers)
from semicov.errors import NoExpansion, NotFree, NotMonotoneBase, OutOfDomain
from semicov.numerics import circle_dist
from semicov.semiconj1d import self_conjugacies
from semicov.semiconj2d import solve_band_semiconjugacy


def mean_height(curve):
    return float(np.mean(curve.heights))


# --- preimages -----------------------------------------------------------------

def test_preimage_square_roots_of_one(product_z2):
    pre = preimage_connectors(product_z2, constant_connector(0.0))
    assert [round(mean_height(c), 10) for c in pre] == [0.0, 0.5]


def test_preimage_cube_roots():
    prod3 = make_skew_product(BaseMap("identity"), FiberMap(3))
    pre = preimage_connectors(prod3, constant_connector(0.0))
    assert [mean_height(c) for c in pre] == pytest.approx([0, 1 / 3, 2 / 3], abs=1e-12)


def test_preimage_example_closed_form(example_map):
    # solving 2w + 1/(1-x) = c + offset gives w = (c + offset - 1/(1-x))/2
    c0 = constant_connector(0.0)
    pre = preimage_connectors(example_map, c0)
    assert len(pre) == 2
    for cv in pre:
        off = cv.metadata["offset"]
        expected = (off - 1.0 / (1.0 - cv.xs)) / 2.0
        assert np.max(np.abs(cv.heights - expected)) < 1e-12
    gap = pre[1].heights - pre[0].heights
    assert np.max(np.abs(gap - 0.5)) < 1e-12     # branches half a turn apart


def test_preimage_count_and_disjointness(contracting_z3):
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = constant_connector(rng.uniform(0, 1))
        pre = preimage_connectors(contracting_z3, c)
        assert len(pre) == 3
        for a, b in zip(pre, pre[1:]):
            assert np.min(b.heights - a.heights) > 1e-6


# --- freeness -----------------------------------------------------------------

def test_is_free_examples(product_z2):
    assert is_free(product_z2, constant_connector(0.25))      # image at 1/2
    assert not is_free(product_z2, constant_connector(0.0))   # invariant


def test_invariant_curve_not_free(example_map):
    c = invariant_connector_from_arc(example_map, (0.5, 0.0), margin=1e-4)
    assert not is_free(example_map, c)


# --- invariant connector construction ----------------------------------------

def test_invariant_connector_residual(example_map):
    c = invariant_connector_from_arc(example_map, (0.5, 0.0),
                                     n_back=9, n_fwd=16, margin=1e-5)
    assert c.reaches_lower and c.reaches_upper
    assert c.metadata["boundary_accumulating"]
    # invariance residual measured away from the steep tail
    xs = c.xs[(c.xs > 0.01) & (c.xs < 0.9)]
    ix, iy = example_map(xs, c.height_at(xs))
    assert np.max(np.abs(iy - c.height_at(ix))) <= 1e-6


def test_invariant_connector_rejects_identity_base(product_z2):
    with pytest.raises(NotMonotoneBase):
        invariant_connector_from_arc(product_z2, (0.5, 0.0))


def test_bare_arc_not_accumulating(example_map):
    c = invariant_connector_from_arc(example_map, (0.5, 0.0), n_back=0, n_fwd=0)
    assert not c.metadata["boundary_accumulating"]
    assert c.metadata["pieces"] == 1


# --- repelling connectors -------------------------------------------------

def test_repellers_z2(contracting_z2):
    reps = repelling_connectors(contracting_z2, constant_connector(0.25), depth=10)
    assert len(reps) == 1
    # nested-intersection oracle: z^2 = z on the circle only at z = 1
    assert np.max(np.abs(reps[0].heights - 1.0)) <= 2 * 2.0 ** -10
    gaps = reps[0].metadata["depth_gaps"]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_repellers_z3(contracting_z3):
    # nested-intersection oracle: z^3 = z forces z^2 = 1, two repellers
    reps = repelling_connectors(contracting_z3, constant_connector(1 / 6), depth=10)
    assert len(reps) == 2
    for r in reps:
        target = 0.5 if abs(mean_height(r) - 0.5) < 0.2 else 1.0
        assert np.max(np.abs(r.heights - target)) <= 2 * 3.0 ** -10


def test_repellers_reject_non_free(contracting_z2):
    with pytest.raises(NotFree):
        repelling_connectors(contracting_z2, constant_connector(0.0))


def test_repellers_reject_no_expansion():
    wobble = from_function(lambda x: 2 * x + 0.2 * np.sin(2 * np.pi * x))
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(2, circle=wobble))
    with pytest.raises(NoExpansion):
        repelling_connectors(m, constant_connector(0.25))


def test_repellers_approximately_invariant(contracting_z2):
    reps = repelling_connectors(contracting_z2, constant_connector(0.25), depth=10)
    r = reps[0]
    pre = preimage_connectors(contracting_z2, r)
    final_gap = r.metadata["depth_gaps"][-1]
    dists = []
    for cv in pre:
        common = (np.maximum(cv.xs[0], r.xs[0]), np.minimum(cv.xs[-1], r.xs[-1]))
        xs = np.linspace(*common, 257)
        dists.append(np.max(np.abs((cv.height_at(xs) - r.height_at(xs) + 0.5) % 1.0 - 0.5)))
    assert min(dists) <= 2 * final_gap


def test_repellers_negative_degree_smoke():
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(-2))
    reps = repelling_connectors(m, constant_connector(0.25), depth=12)
    assert len(reps) == 3
    angles = sorted(mean_height(r) % 1.0 for r in reps)
    # fixed circle points of z -> z^-2 are the cube roots of unity
    for got, want in zip(angles, (0.0, 1 / 3, 2 / 3)):
        assert circle_dist(got, want) < 1e-3


def _per_gap_repellers(m, c, depth, n_samples=1024):
    """Reference nesting: one gap at a time, one np.interp per level and gap."""
    def pullback(fn, lower, upper, xs, bx):
        t = fn(bx)
        side = lower if m.degree > 0 else upper
        return m.fiber.inverse(xs, t + np.ceil(np.asarray(m.fiber(xs, side)) - t))

    def gap_structure(c):
        px, ph, _ = _preimage_block(m, c.xs, c.heights[None, :], c.margin, n_samples)
        xs = np.linspace(max(c.margin, c.xs[0], px[0]),
                         min(1.0 - c.margin, c.xs[-1], px[-1]), n_samples)
        heights = list(_interp_rows(xs, px, ph))
        cc = c.height_at(xs)
        u = cc + np.ceil(heights[0] - cc)
        stack = np.stack(heights + [heights[0] + 1.0])
        return xs, heights, int(np.median(np.sum(stack <= u[None, :], axis=0) - 1))

    def nest(c, skip_gap=None, extra_refine=()):
        xs, heights, k0 = gap_structure(c)
        k0 = k0 if skip_gap is None else skip_gap
        bx, d, out = np.asarray(m.base(xs)), abs(m.degree), []
        for k in range(d):
            if k == k0:
                continue
            lower = heights[k]
            upper = heights[k + 1] if k + 1 < d else heights[0] + 1.0
            cur = 0.5 * (lower + upper)
            if k in extra_refine:
                l_star = pullback(lambda t: np.interp(t, xs, lower), lower, upper, xs, bx)
                u_star = pullback(lambda t: np.interp(t, xs, upper), lower, upper, xs, bx)
                cur = 0.5 * (np.maximum(lower, np.minimum(l_star, u_star))
                             + np.minimum(upper, np.maximum(l_star, u_star)))
            gaps = []
            for _ in range(depth):
                new = pullback(lambda t: np.interp(t, xs, cur), lower, upper, xs, bx)
                gaps.append(float(np.max(np.abs(new - cur))))
                cur = new
            out.append(ConnectorCurve(xs.copy(), cur, c.margin, metadata={
                "gap_index": k, "depth": depth, "depth_gaps": gaps}))
        return out

    reps = nest(c)
    if m.degree < 0:
        cp = reps[0]
        px, ph, _ = _preimage_block(m, cp.xs, cp.heights[None, :], c.margin, n_samples)
        xs_cmp = np.linspace(max(cp.xs[0], px[0]), min(cp.xs[-1], px[-1]), 257)
        ref = cp.height_at(xs_cmp)
        dists = [float(np.min([np.max(np.abs(h - ref - t)) for t in (-1, 0, 1)]))
                 for h in _interp_rows(xs_cmp, px, ph)]
        j, d0 = int(np.argmin(dists)), abs(m.degree)
        reps = [cp] + nest(cp, skip_gap=-1, extra_refine={j % d0, (j - 1) % d0})
    for r in reps:
        r.metadata["fiber_expansion"] = _check_expansion(m, c.margin)
    return reps


def _fiber(kind, d):
    if kind == "linear":
        return FiberMap(d)
    if kind == "tau":
        return FiberMap(d, tau=TauSpec("linear", 0.2))
    return FiberMap(d, circle=from_function(lambda x: d * x + 0.05 * np.sin(2 * np.pi * x)))


NEST_CASES = [(d, kind, depth) for d in (2, 3, 4, -2, -3, -4)
              for kind, depth in [("linear", 1), ("linear", 10), ("tau", 1), ("tau", 10),
                                  ("circle", 1), ("circle", 10)]]


@pytest.mark.parametrize("d, kind, depth", NEST_CASES)
def test_repellers_match_per_gap_reference(d, kind, depth):
    base = {"linear": (0.5, 0.9), "tau": (0.4, 0.8), "circle": (0.6, 0.95)}[kind]
    m = make_skew_product(BaseMap("contraction", base), _fiber(kind, d))
    c = constant_connector(0.15)
    got = repelling_connectors(m, c, depth=depth)
    want = _per_gap_repellers(m, c, depth)
    assert len(got) == len(want) == abs(d - 1)
    for g, w in zip(got, want):
        assert np.array_equal(g.xs, w.xs) and np.array_equal(g.heights, w.heights)
        assert g.metadata == w.metadata
    if depth == 1:       # the coding sees the same seeds
        a, b = (semiconjugacy_from_repellers(m, r, depth=1, band=(0.3, 0.7), nx=9, ny=16)
                for r in (got, want))
        assert np.array_equal(a.values, b.values) and a.residual == b.residual


# --- coded semiconjugacy -------------------------------------------------

def test_coded_field_matches_operator_z2(contracting_z2):
    reps = repelling_connectors(contracting_z2, constant_connector(0.25), depth=10)
    coded = semiconjugacy_from_repellers(contracting_z2, reps, depth=10, band=(0.2, 0.8))
    assert coded.residual <= 2.0 ** -9
    op = solve_band_semiconjugacy(contracting_z2, (0.2, 0.8), 1e-10)
    xg, yg = np.meshgrid(np.linspace(0.2, 0.8, 17),
                         np.linspace(0, 1, 16, endpoint=False), indexing="ij")
    best = min(float(np.max(circle_dist(c.apply_angle(coded(xg, yg)), op(xg, yg))))
               for c in self_conjugacies(2))
    assert best <= 2.0 ** -9 + 1e-8


def test_coded_field_depth_one_is_coarse(contracting_z2):
    reps = repelling_connectors(contracting_z2, constant_connector(0.25), depth=10)
    coarse = semiconjugacy_from_repellers(contracting_z2, reps, depth=1, band=(0.3, 0.7))
    assert coarse.metadata["depth"] == 1
    assert coarse.residual <= 1.0          # vacuous at depth one


def test_coded_field_cyclic_order(contracting_z3):
    reps = repelling_connectors(contracting_z3, constant_connector(1 / 6), depth=8)
    coded = semiconjugacy_from_repellers(contracting_z3, reps, depth=6, band=(0.3, 0.7))
    ys = np.linspace(0, 1, 64, endpoint=False)
    for x in (0.3, 0.5, 0.7):
        vals = coded(np.full_like(ys, x), ys)
        assert np.all(np.diff(vals) > -1e-12)


def test_coded_field_from_invariant_connector(example_map):
    c = invariant_connector_from_arc(example_map, (0.5, 0.0),
                                     n_back=9, n_fwd=16, margin=1e-5)
    c.value = 0.0
    field = semiconjugacy_from_connectors(example_map, [c], depth=8,
                                          band=(0.1, 0.9), nx=65, ny=128)
    # the coded field is the connector-offset ansatz H = y - C(x)
    for x in (0.1, 0.5, 0.9):
        ys = np.linspace(0, 1, 9)
        expected = ys - float(c.height_at(x))
        assert np.max(np.abs(field(np.full_like(ys, x), ys) - expected)) < 5e-3
    assert field.residual < 0.05           # limited by curve interpolation
    assert field.deviation_bound > 1.0     # the true lift deviates a lot here


def test_interp_rows_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(3)
    xp = np.sort(rng.uniform(0.0, 1.0, 50))
    fp = rng.normal(size=(4, 50))
    x = np.concatenate([rng.uniform(-0.1, 1.1, 2000), xp])       # outside, inside, on nodes
    got = _interp_rows(x, xp, fp)
    for row, want in zip(got, fp):
        assert np.array_equal(row, np.interp(x, xp, want))


def reference_coding(m, seeds, depth, band, nx, ny):
    """Per-curve coding: one preimage_connectors call per curve, np.interp per column."""
    families, frontier = list(seeds), list(seeds)
    for _ in range(depth):
        new = []
        for cv in frontier:
            try:
                pres = preimage_connectors(m, cv)
            except OutOfDomain:
                continue
            for p in pres:
                p.value = (cv.value + p.metadata["offset"]) / m.degree
            new.extend(pres)
        if not new:
            break
        families.extend(new)
        frontier = new
    xs = np.linspace(band[0], band[1], nx)
    ys = np.linspace(0.0, 1.0, ny + 1)
    values = np.empty((nx, ny + 1))
    for i, x in enumerate(xs):
        on = [cv for cv in families if cv.xs[0] - 1e-12 <= x <= cv.xs[-1] + 1e-12]
        hs = np.array([np.interp(x, cv.xs, cv.heights) for cv in on])
        vs = np.array([cv.value for cv in on])
        below = hs[None, :] + np.floor(ys[:, None] - hs[None, :])
        vals_b = vs[None, :] + np.floor(ys[:, None] - hs[None, :])
        rows = np.arange(len(ys))
        v_hi = vals_b[rows, np.argmin(below + 1.0, axis=1)] + 1.0
        values[i] = 0.5 * (vals_b[rows, np.argmax(below, axis=1)] + v_hi)
    values[:, -1] = values[:, 0] + 1.0
    return values, len(families)


def seeded(m, height, rep_depth=8):
    reps = repelling_connectors(m, constant_connector(height), depth=rep_depth)
    d = m.degree
    seeds = []
    for j, r in enumerate(sorted(reps, key=mean_height)):
        v = j / (d - 1)
        seeds.append(ConnectorCurve(r.xs, r.heights, r.margin,
                                    value=v + round(mean_height(r) - v)))
    return seeds


@pytest.mark.parametrize("d, depth, height", [(2, 5, 0.25), (3, 3, 1 / 6), (-2, 4, 0.25)])
def test_batched_coding_matches_per_curve_reference(d, depth, height):
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(d))
    seeds = seeded(m, height)
    field = semiconjugacy_from_connectors(m, seeds, depth=depth, band=(0.2, 0.8),
                                          nx=17, ny=32)
    values, curves = reference_coding(m, seeds, depth, (0.2, 0.8), 17, 32)
    assert np.array_equal(field.values, values)
    assert field.metadata["curves"] == curves
    levels = field.metadata["level_curves"]
    assert levels == [len(seeds) * abs(d) ** k for k in range(depth + 1)]
    assert sum(levels) == curves and field.metadata["dropped_blocks"] == 0


def test_batched_coding_sine_fiber_matches_reference():
    # batched bisection stops on the widest bracket of the whole level
    wobble = from_function(lambda x: 2 * x + 0.05 * np.sin(2 * np.pi * x))
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(2, circle=wobble))
    seeds = seeded(m, 0.25, rep_depth=6)
    field = semiconjugacy_from_connectors(m, seeds, depth=4, band=(0.2, 0.8), nx=17, ny=32)
    values, curves = reference_coding(m, seeds, 4, (0.2, 0.8), 17, 32)
    assert np.max(np.abs(field.values - values)) <= 1e-12
    assert field.metadata["curves"] == curves


def test_coding_counts_dropped_blocks(contracting_z2):
    # the base preimages of [0.3, 0.31] move away from 0.5 by 1/0.9 per
    # level and leave the margins after nine levels
    seed = ConnectorCurve(np.linspace(0.3, 0.31, 16), np.zeros(16), value=0.0)
    field = semiconjugacy_from_connectors(contracting_z2, [seed], depth=12,
                                          band=(0.3, 0.31), nx=5, ny=8)
    levels = field.metadata["level_curves"]
    assert field.metadata["dropped_blocks"] == 1
    assert len(levels) < 13 and levels == [2 ** k for k in range(len(levels))]
    values, curves = reference_coding(contracting_z2, [seed], 12, (0.3, 0.31), 5, 8)
    assert np.array_equal(field.values, values) and field.metadata["curves"] == curves
