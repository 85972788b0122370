import hashlib
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from semicov import connectors, obstruction
from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import from_function
from semicov.configs import annulus_map_from_config
from semicov.connectors import (ConnectorCurve, _check_expansion, _code_column, _interp,
                                _segments, constant_connector,
                                invariant_connector_from_arc, is_free,
                                preimage_connectors, repelling_connectors,
                                semiconjugacy_from_connectors,
                                semiconjugacy_from_repellers)
from semicov.errors import (BranchCollision, ImageNotGraph, NoExpansion, NotFree,
                            NotMonotoneBase, OutOfDomain, ValidationError)
from semicov.numerics import circle_dist, frac
from semicov.semiconj1d import self_conjugacies
from semicov.semiconj2d import solve_band_semiconjugacy


def mean_height(curve):
    return float(np.mean(curve.heights))


# --- preimages -----------------------------------------------------------------

def test_preimage_square_roots_of_one(product_z2):
    c = constant_connector(0.0)
    _, pre, _ = preimage_connectors(product_z2, c.xs, c.heights[None, :], c.margin)
    assert [round(float(np.mean(h)), 10) for h in pre] == [0.0, 0.5]


def test_preimage_cube_roots():
    prod3 = make_skew_product(BaseMap("identity"), FiberMap(3))
    c = constant_connector(0.0)
    _, pre, _ = preimage_connectors(prod3, c.xs, c.heights[None, :], c.margin)
    assert [float(np.mean(h)) for h in pre] == pytest.approx([0, 1 / 3, 2 / 3], abs=1e-12)


def test_preimage_example_closed_form(example_map):
    # solving 2w + 1/(1-x) = c + offset gives w = (c + offset - 1/(1-x))/2
    c0 = constant_connector(0.0)
    xs, pre, offsets = preimage_connectors(example_map, c0.xs, c0.heights[None, :], c0.margin)
    assert len(pre) == len(offsets) == 2
    for h, off in zip(pre, offsets):
        expected = (off - 1.0 / (1.0 - xs)) / 2.0
        assert np.max(np.abs(h - expected)) < 1e-12
    gap = pre[1] - pre[0]
    assert np.max(np.abs(gap - 0.5)) < 1e-12     # branches half a turn apart


def test_preimage_count_and_disjointness(contracting_z3):
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = constant_connector(rng.uniform(0, 1))
        _, pre, _ = preimage_connectors(contracting_z3, c.xs, c.heights[None, :], c.margin)
        assert len(pre) == 3
        for a, b in zip(pre, pre[1:]):
            assert np.min(b - a) > 1e-6


@pytest.mark.parametrize("at", [0, 7, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["xs", "heights"])
def test_curve_rejects_non_finite_samples(where, bad, at):
    # NaN differences are never <= 0 and an inf at an end differs by +inf, so
    # both used to pass the monotonicity check and reach the coding
    arrays = {"xs": np.linspace(0.1, 0.9, 16), "heights": np.zeros(16)}
    arrays[where][at] = bad
    with pytest.raises(ValueError, match="finite"):
        ConnectorCurve(arrays["xs"], arrays["heights"])


def sorted_preimage_connectors(m, xs, heights, margin, n_samples=None):
    """Reference: the preimage block with its branch rows sorted by mean height."""
    lo_img = float(np.asarray(m.base(margin)))
    hi_img = float(np.asarray(m.base(1.0 - margin)))
    mask = (xs >= lo_img - 1e-15) & (xs <= hi_img + 1e-15)
    base_pts, targets = xs[mask], heights[:, mask]
    if n_samples is not None and len(base_pts) < n_samples:
        extra = np.linspace(base_pts[0], base_pts[-1], n_samples)
        targets = np.array([np.interp(extra, base_pts, row) for row in targets])
        base_pts = extra
    cx = np.asarray(m.base.inverse(base_pts))
    keep = (cx >= margin - 1e-15) & (cx <= 1.0 - margin + 1e-15)
    cx, targets = cx[keep], targets[:, keep]
    offsets = m.fiber.branches(cx[0], targets[:, 0])
    w = m.fiber.inverse(cx, targets[:, None, :] + offsets[..., None])
    order = np.argsort(np.mean(w, axis=2), axis=1, kind="stable")
    w = np.take_along_axis(w, order[..., None], axis=1)
    return cx, w.reshape(-1, len(cx)), np.take_along_axis(offsets, order, axis=1).ravel()


BRANCH_ORDER_CASES = ([("linear", d, tau) for d in (2, 3, 4, -2, -3, -4)
                       for tau in ("zero", "linear", "inv_one_minus")]
                      + [("sine", 2, "zero"), ("sine", -3, "zero")]
                      + [("sine", d, "linear") for d in (2, 3, -2, -3)])


@pytest.mark.parametrize("kind, d, tau", BRANCH_ORDER_CASES)
def test_branch_order_matches_mean_height_sort(kind, d, tau):
    # children come out in ascending height by fiber monotonicity, as the sort put them,
    # and the parent's nodes and heights, read through slices, are left unchanged
    circle = None if kind == "linear" else from_function(
        lambda y: d * y + 0.05 * np.sin(2 * np.pi * y))
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)),
                          FiberMap(d, circle=circle, tau=TauSpec(tau, 0.3)))
    rng = np.random.default_rng(abs(d))
    xs = np.linspace(0.02, 0.98, 64)
    hs = rng.uniform(-2.0, 2.0, (3, 1)) + 0.2 * np.sin(2 * np.pi * rng.uniform(1, 3, (3, 1)) * xs)
    for n_samples in (None, 200):
        block = (xs, hs)
        for _ in range(2):                          # a seeded block, then its children
            before = [a.copy() for a in block]
            got = preimage_connectors(m, *block, 1e-3, n_samples)
            assert all(np.array_equal(a, b) for a, b in zip(block, before))
            want = sorted_preimage_connectors(m, *block, 1e-3, n_samples)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            block = got[:2]


def test_branch_rows_out_of_order_fail_the_gap_check(contracting_z2, monkeypatch):
    # the gap check guards the order: descending offsets give descending rows
    ascending = FiberMap.branches
    monkeypatch.setattr(FiberMap, "branches", lambda self, x, t: ascending(self, x, t)[..., ::-1])
    c = constant_connector(0.0)
    with pytest.raises(BranchCollision):
        preimage_connectors(contracting_z2, c.xs, c.heights[None, :], c.margin)


# --- freeness -----------------------------------------------------------------

@pytest.mark.parametrize("x", [np.nan, [np.nan, 0.5], [0.25, np.nan, 0.5]],
                         ids=["only", "first", "inner"])
def test_height_at_rejects_nan(x):
    with pytest.raises(OutOfDomain):
        constant_connector(0.25).height_at(x)


def test_is_free_examples(product_z2):
    assert is_free(product_z2, constant_connector(0.25))      # image at 1/2
    assert not is_free(product_z2, constant_connector(0.0))   # invariant


def test_is_free_needs_a_graph_image(product_z2):
    stepped = make_skew_product(BaseMap("samples", (np.array([0.1, 0.3, 0.3, 0.6, 0.9]),)),
                                product_z2.fiber)
    with pytest.raises(ImageNotGraph):
        is_free(stepped, constant_connector(0.25))


def test_is_free_on_an_empty_overlap(example_map):
    # affine_to_one sends [0.1, 0.2] to [0.55, 0.6], which the curve does not reach
    c = ConnectorCurve(np.linspace(0.1, 0.2, 16), np.zeros(16))
    assert is_free(example_map, c)


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


def test_invariant_connector_chains_backward_pieces(example_map):
    # from x = 0.9 the backward pieces reach down to 0.8, 0.6 and 0.2 before the
    # fourth is clipped at the margin, so the second and third are each anchored
    # on the backward piece before them
    lows = [invariant_connector_from_arc(example_map, (0.9, 0.0), n_back=k).xs[0]
            for k in range(6)]
    assert lows == pytest.approx([0.9, 0.8, 0.6, 0.2, 1e-3, 1e-3])
    c = invariant_connector_from_arc(example_map, (0.9, 0.0), n_back=3)
    assert c.metadata["pieces"] == invariant_connector_from_arc(
        example_map, (0.9, 0.0), n_back=0).metadata["pieces"] + 3
    xs = c.xs[c.xs < 0.9]
    ix, iy = example_map(xs, c.height_at(xs))
    assert np.max(np.abs(iy - c.height_at(ix))) <= 1e-12


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


def test_repellers_reject_base_moving_the_window():
    # x -> (x + 1)/2 sends the window's top 1 - margin to 1 - margin/2
    m = make_skew_product(BaseMap("affine_to_one"), FiberMap(2))
    with pytest.raises(OutOfDomain, match="margin window"):
        repelling_connectors(m, constant_connector(0.25))


def test_repellers_approximately_invariant(contracting_z2):
    reps = repelling_connectors(contracting_z2, constant_connector(0.25), depth=10)
    r = reps[0]
    px, pre, _ = preimage_connectors(contracting_z2, r.xs, r.heights[None, :], r.margin)
    final_gap = r.metadata["depth_gaps"][-1]
    dists = []
    for h in pre:
        xs = np.linspace(max(px[0], r.xs[0]), min(px[-1], r.xs[-1]), 257)
        dists.append(np.max(np.abs((np.interp(xs, px, h) - r.height_at(xs) + 0.5) % 1.0 - 0.5)))
    assert min(dists) <= 2 * final_gap


def test_repellers_negative_degree_smoke():
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(-2))
    reps = repelling_connectors(m, constant_connector(0.25), depth=12)
    assert len(reps) == 3
    angles = sorted(mean_height(r) % 1.0 for r in reps)
    # fixed circle points of z -> z^-2 are the cube roots of unity
    for got, want in zip(angles, (0.0, 1 / 3, 2 / 3)):
        assert circle_dist(got, want) < 1e-3


def _per_gap_repellers(m, c, depth):
    """Reference nesting: one gap at a time, one np.interp per level and gap."""
    n_samples = connectors.N_SAMPLES
    def pullback(fn, lower, upper, xs, bx):
        t = fn(bx)
        side = lower if m.degree > 0 else upper
        return m.fiber.inverse(xs, t + np.ceil(np.asarray(m.fiber(xs, side)) - t))

    def gap_structure(c):
        px, ph, _ = preimage_connectors(m, c.xs, c.heights[None, :], c.margin, n_samples)
        xs = np.linspace(max(c.margin, c.xs[0], px[0]),
                         min(1.0 - c.margin, c.xs[-1], px[-1]), n_samples)
        heights = [np.interp(xs, px, row) for row in ph]
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
        px, ph, _ = preimage_connectors(m, cp.xs, cp.heights[None, :], c.margin, n_samples)
        xs_cmp = np.linspace(max(cp.xs[0], px[0]), min(cp.xs[-1], px[-1]), 257)
        ref = cp.height_at(xs_cmp)
        dists = [float(np.min([np.max(np.abs(h - ref - t)) for t in (-1, 0, 1)]))
                 for h in (np.interp(xs_cmp, px, row) for row in ph)]
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


EARLY_STOP_FIBERS = {   # nests that reach a fixed point, and ones that end in a 2-cycle
    "linear d=2": {"family": "linear", "degree": 2},
    "linear d=3": {"family": "linear", "degree": 3},
    "sine d=2": {"family": "circle_map", "map": {"family": "sine", "degree": 2}},
    "linear d=-2": {"family": "linear", "degree": -2},
    "sine d=-3": {"family": "circle_map", "tau": {"family": "linear", "scale": 0.05},
                  "map": {"family": "sine", "degree": -3, "amplitude": 0.08}},
}


@pytest.mark.parametrize("name", EARLY_STOP_FIBERS)
def test_nest_stops_at_a_repeated_level(name):
    # every level after the stop is one of the last two, by parity: the repellers equal
    # the per-gap reference, which runs every level, and the gaps are its leading ones
    m = annulus_map_from_config({"base": {"family": "contraction"},
                                 "fiber": EARLY_STOP_FIBERS[name]})
    c = constant_connector(0.15)
    for depth in (60, 61, 400, 401):
        got = repelling_connectors(m, c, depth=depth)
        want = _per_gap_repellers(m, c, depth)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.heights, w.heights)
            gaps = g.metadata["depth_gaps"]
            assert len(gaps) < 60 and gaps == w.metadata["depth_gaps"][:len(gaps)]
        deep = repelling_connectors(m, c, depth=2 ** 24 + depth % 2)
        assert all(np.array_equal(a.heights, b.heights) for a, b in zip(deep, got, strict=True))


def test_program_calls_go_through_the_public_kernels(monkeypatch, contracting_z2):
    # a layer tracer wraps the module attributes, so every program call must look them up
    calls = []
    for module, name in ((connectors, "preimage_connectors"), (obstruction, "lift_loop_winding")):
        def counting(*args, _kernel=getattr(module, name), _name=name):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(module, name, counting)
    reps = repelling_connectors(contracting_z2, constant_connector(0.25), depth=3)
    assert calls == ["preimage_connectors"]
    semiconjugacy_from_repellers(contracting_z2, reps, depth=2, band=(0.2, 0.8))
    assert calls == ["preimage_connectors"] * 3
    obstruction.star_condition_scan(contracting_z2, (0.1, 0.9), 2)
    assert calls == ["preimage_connectors"] * 3 + ["lift_loop_winding"] * 3


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


RESIDUAL_CASES = ([("linear", d) for d in (2, -2, 3, -3, 4, -4)]
                  + [("sine", d) for d in (2, -2, 3, -3)])


@pytest.mark.parametrize("kind, d", RESIDUAL_CASES)
def test_coded_field_residual_bound(kind, d):
    """Each repeller seeded with its own invariance value codes a field whose
    residual is at most |d|^(1-depth)."""
    if kind == "linear":
        fiber = FiberMap(d)
    else:
        wobble = from_function(lambda y: d * y + 0.08 * np.sin(2 * np.pi * y))
        fiber = FiberMap(d, circle=wobble, tau=TauSpec("linear", 0.05))
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), fiber)
    reps = repelling_connectors(m, constant_connector(0.15), depth=10)
    for depth in (4, 5, 6, 7):
        coded = semiconjugacy_from_repellers(m, reps, depth=depth, band=(0.2, 0.8))
        assert coded.residual <= abs(d) ** (1 - depth)


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
    # the coding's own nodes and node maximum, as it computed them before fields derived them
    assert np.array_equal(field.x_samples, np.linspace(0.1, 0.9, 65))
    ys = np.linspace(0.0, 1.0, 129)
    assert field.deviation_bound == float(np.max(np.abs(field.values - ys[None, :])))


def test_interp_rows_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(3)
    xp = np.sort(rng.uniform(0.0, 1.0, 50))
    x = np.concatenate([rng.uniform(-0.1, 1.1, 2000), xp])       # outside, inside, on nodes
    seg = _segments(x, xp)
    for fp in (rng.normal(size=(4, 50)), rng.normal(size=(6, 100))[::2, ::2]):  # one seg, twice
        got = _interp(seg, fp)
        for row, want in zip(got, fp):
            assert np.array_equal(row, np.interp(x, xp, want))


@pytest.mark.parametrize("d", [3, -2])
def test_nest_finds_its_segments_once_with_np_interp_bits(d, monkeypatch):
    # every level of _nest pulls through the segments of base(xs) in xs found once per
    # nest, and each use gives np.interp's bits
    segments, interp, found = connectors._segments, connectors._interp, []

    def spy_segments(x, xp):
        found.append((segments(x, xp), x, xp))
        return found[-1][0]

    def spy_interp(seg, fp):
        x, xp = next((x, xp) for s, x, xp in found if s is seg)
        got = interp(seg, fp)
        for row, want in zip(got, fp):
            assert np.array_equal(row, np.interp(x, xp, want))
        return got

    monkeypatch.setattr(connectors, "_segments", spy_segments)
    monkeypatch.setattr(connectors, "_interp", spy_interp)
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), _fiber("circle", d))
    counts = []
    for depth in (2, 7):
        found.clear()
        repelling_connectors(m, constant_connector(0.15), depth=depth)
        counts.append(len(found))
    assert counts[0] == counts[1]


def reference_coding(m, seeds, depth, band, nx, ny):
    """Per-curve coding: one preimage_connectors call per curve, np.interp per column."""
    families, frontier = list(seeds), list(seeds)
    for _ in range(depth):
        new = []
        for cv in frontier:
            try:
                xs, hs, offsets = preimage_connectors(m, cv.xs, cv.heights[None, :], cv.margin)
            except OutOfDomain:
                continue
            new.extend(ConnectorCurve(xs, h, cv.margin, value=(cv.value + k) / m.degree)
                       for h, k in zip(hs, offsets))
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


def test_coding_breaks_ties_by_level_and_block_order(contracting_z2):
    # two seeds on different nodes form two blocks whose curves, and their
    # preimages, coincide at every column: the earlier block's values win
    seeds = [ConnectorCurve(np.linspace(0.01, 0.99, n), np.zeros(n), value=v)
             for n, v in ((64, 0.0), (33, 0.25))]
    field = semiconjugacy_from_connectors(contracting_z2, seeds, depth=3, band=(0.3, 0.7),
                                          nx=9, ny=16)
    values, _ = reference_coding(contracting_z2, seeds, 3, (0.3, 0.7), 9, 16)
    assert np.array_equal(field.values, values)
    assert field.metadata["level_curves"] == [2, 4, 8, 16]


@lru_cache(maxsize=None)
def deep_repellers(kind, d):
    """1024-node depth-10 repellers on the contraction base; a sine fiber has linear tau."""
    if kind == "linear":
        fiber = FiberMap(d)
    else:
        wobble = from_function(lambda y: d * y + 0.08 * np.sin(2 * np.pi * y))
        fiber = FiberMap(d, circle=wobble, tau=TauSpec("linear", 0.05))
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), fiber)
    return m, repelling_connectors(m, constant_connector(0.25 / abs(d - 1)), depth=10)


# SHA-256 of the coded values, the residual's repr and the level counts, recorded
# from the coding that kept every level and sorted each block's branches by mean height
DEEP_CODINGS = {
    ("linear", 2, 10): ("68ee5ba02b06322a9646b28100aef8b3e2ae64c702997ceae919eb2b9b8f523f",
                        "0.00048828125", [2 ** k for k in range(11)]),
    ("linear", 3, 8): ("fd93f3dbd38c64d5496a46974508ba486749aee3cb44fc89d91dcb9226281c00",
                       "7.620789513840265e-05", [2 * 3 ** k for k in range(9)]),
    ("linear", -4, 6): ("6abfd65cf9360cc5f2531425a8ba43d991e15234c9a12432a593f97e85aa771a",
                        "0.0", [5 * 4 ** k for k in range(7)]),
    ("sine", -3, 5): ("6a5dd59efd41143460f1336e024b2d18a864fec7d8b36c88e5cc2ce44a7ab431",
                      "0.002477043735631901", [4 * 3 ** k for k in range(6)]),
}


@pytest.mark.parametrize("kind, d, depth", DEEP_CODINGS)
def test_deep_coding_is_pinned(kind, d, depth):
    m, reps = deep_repellers(kind, d)
    field = semiconjugacy_from_repellers(m, reps, depth=depth, band=(0.2, 0.8))
    digest, residual, levels = DEEP_CODINGS[kind, d, depth]
    assert hashlib.sha256(field.values.tobytes()).hexdigest() == digest
    assert repr(field.residual) == residual
    assert field.metadata == {"depth": depth, "curves": sum(levels), "coding": "repeller-preimage",
                              "dropped_blocks": 0, "level_curves": levels}


def test_deep_coding_memory_peak():
    # 174.7 MiB with every level kept and the branch sort's copies, 124.2 MiB with the
    # parent's nodes copied and a second targets array in the inverse, 94.7 MiB with
    # sliced runs and the inverse in place (numpy 2.4)
    m, reps = deep_repellers("linear", 3)
    ours = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        semiconjugacy_from_repellers(m, reps, depth=8, band=(0.2, 0.8))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if ours:
            tracemalloc.stop()
    assert peak < 110 * 2 ** 20


# --- the column kernel against the argmax/argmin loop it replaced -----------

def loop_column(hs, vs, ys):
    """Reference: every row builds (rows x curves) arrays for one argmax and one argmin."""
    shift = np.floor(ys[:, None] - hs[None, :])
    below, vals_b = hs + shift, vs + shift
    rows = np.arange(len(ys))
    v_lo = vals_b[rows, np.argmax(below, axis=1)]
    v_hi = vals_b[rows, np.argmin(below + 1.0, axis=1)] + 1.0
    return 0.5 * (v_lo + v_hi)


def _coding_field(name):
    if name == "c11":
        m = make_skew_product(BaseMap("affine_to_one"),
                              FiberMap(2, tau=TauSpec("inv_one_minus", 1.0)))
        c = invariant_connector_from_arc(m, (0.5, 0.0), n_back=9, n_fwd=16, margin=1e-5)
        c.value = 0.0
        return lambda: semiconjugacy_from_connectors(m, [c], depth=8, band=(0.1, 0.9))
    d, depth = name
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(d))
    reps = repelling_connectors(m, constant_connector(0.25 / abs(d - 1)), depth=10)
    return lambda: semiconjugacy_from_repellers(m, reps, depth=depth, band=(0.2, 0.8))


@pytest.mark.parametrize("name", [(2, 10), (3, 5), (-2, 6), "c11"])
def test_coded_field_matches_loop_bit_for_bit(name, monkeypatch):
    # the four annulus-coding fields; every column's inputs are recorded
    build, columns = _coding_field(name), []

    def spy(hs, vs, y):
        columns.append((hs, vs, y))
        return _code_column(hs, vs, y)

    monkeypatch.setattr(connectors, "_code_column", spy)
    field = build()
    assert len(columns) == len(field.x_samples)
    ys = np.linspace(0.0, 1.0, field.values.shape[1])
    want = np.array([loop_column(hs, vs, ys[:-1]) for hs, vs, _ in columns])
    assert np.array_equal(field.values[:, :-1], want)


def gathered_residual(m, field):
    """The residual as first measured, with d H at the nodes read back through
    the field's bilinear gather instead of from the stored values."""
    band, d = field.band, m.degree
    xg, yg = np.meshgrid(field.x_samples, np.linspace(0.0, 1.0, field.ny + 1)[:-1],
                         indexing="ij")
    fx, fy = m(xg, yg)
    ok = (fx >= band[0]) & (fx <= band[1])
    res = np.abs(frac(field(np.clip(fx, *band), fy) - d * field(xg, yg) + 0.5) - 0.5)
    return float(np.max(res[ok])), float(np.max(np.abs(field(xg, yg) - field.values[:, :-1])))


@pytest.mark.parametrize("band, nx, ny", [((0.2, 0.8), 65, 128), ((0.23, 0.71), 37, 100)])
@pytest.mark.parametrize("d, depth", [(2, 10), (3, 5), (-2, 6)])
def test_coded_residual_reads_the_stored_node_values(d, depth, band, nx, ny):
    # the gather returns the stored value at a node up to rounding, which only a
    # non-dyadic band shows; the residual moves by at most d times that
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(d))
    reps = repelling_connectors(m, constant_connector(0.25 / abs(d - 1)), depth=10)
    field = semiconjugacy_from_repellers(m, reps, depth=depth, band=band, nx=nx, ny=ny)
    want, node_gap = gathered_residual(m, field)
    assert abs(field.residual - want) <= abs(d) * node_gap
    if band == (0.2, 0.8):                  # the annulus-coding fields: exact nodes
        assert node_gap == 0.0 and field.residual == want


def _dyadic_copies(rng):
    # integer-offset copies of two curves tie exactly in h mod 1
    return rng.permutation(np.concatenate([0.375 + rng.integers(-3, 4, 5),
                                           0.8125 + rng.integers(-3, 4, 4)]))


COLUMNS = {
    "integer-offset copies": _dyadic_copies,
    "on the y nodes": lambda rng: rng.integers(0, 16, 12) / 16 + rng.integers(-2, 3, 12),
    "at zero": lambda rng: np.array([0.0, 0.5, -0.0, 2.0, 0.25]),
    "at -1e-17": lambda rng: np.array([0.5, -1e-17, 0.25, 0.75]),
    "negative": lambda rng: np.array([-0.3, -1.7, -2.25, -0.9, -1e-3, -1.0]),
    "a single curve": lambda rng: np.array([rng.uniform(-2.0, 2.0)]),
    "a single curve at -1e-17": lambda rng: np.array([-1e-17]),
    "every key above every y": lambda rng: np.array([0.995, 1.9990234375, -0.001953125,
                                                     2.9975, -1e-17]),
    "generic": lambda rng: rng.uniform(-3.0, 3.0, 40),
}


@pytest.mark.parametrize("case", COLUMNS)
@pytest.mark.parametrize("ny", [1, 16, 128])
def test_code_column_matches_loop_bit_for_bit(case, ny):
    rng = np.random.default_rng(ny)
    ys = np.linspace(0.0, 1.0, ny + 1)[:-1]
    for _ in range(20):
        hs = COLUMNS[case](rng)
        vs = rng.normal(0.0, 3.0, len(hs))          # arbitrary values expose every choice
        assert np.array_equal(_code_column(hs, vs, ys), loop_column(hs, vs, ys))


def test_code_column_orders_sub_rounding_neighbours_by_key():
    # h = -1e-17 has the key 1.0 - 1e-17, which rounds to 1.0: its lift sits
    # just below the lift of h = 0 at 1, so it is the upper curve; the loop
    # rounded both to below + 1 = 1.0 and took the first curve instead
    hs, vs, ys = np.array([0.0, -1e-17]), np.array([0.0, 10.0]), np.array([0.0, 0.5])
    assert np.array_equal(_code_column(hs, vs, ys), [5.5, 5.5])
    assert np.array_equal(loop_column(hs, vs, ys), [0.5, 0.5])


def test_coding_rejects_columns_without_curves(contracting_z2):
    # the seed spans [0.3, 0.7]; the band's first column at x = 0.1 meets no curve
    seed = constant_connector(0.0, margin=0.3)
    seed.value = 0.0
    with pytest.raises(OutOfDomain, match="no coding curves over x = 0.1"):
        semiconjugacy_from_connectors(contracting_z2, [seed], (0.1, 0.9), depth=0, nx=9, ny=16)


@pytest.mark.parametrize("kwargs", [{"nx": 1}, {"nx": 0}, {"ny": 0}, {"ny": -3},
                                    {"band": (0.8, 0.2)}, {"band": (0.5, 0.5)},
                                    {"band": (0.0, 0.5)}, {"band": (0.5, 1.0)},
                                    {"depth": -1}, {"seeds": []}])
def test_coding_rejects_degenerate_inputs(contracting_z2, kwargs):
    args = {"seeds": [constant_connector(0.0)], "depth": 2, "band": (0.3, 0.7),
            "nx": 9, "ny": 16, **kwargs}
    args["seeds"] = [ConnectorCurve(s.xs, s.heights, s.margin, value=0.0) for s in args["seeds"]]
    with pytest.raises(ValidationError) as err:
        semiconjugacy_from_connectors(contracting_z2, **args)
    assert "\n" not in str(err.value)
