import numpy as np
import pytest

from semicov.circle import (CHUNK, STRIDE, _minimal_periods, find_periodic_points, from_function,
                            make_lift, model_lift)
from semicov.classify import INSERT_KINDS, blow_up
from semicov.errors import DegreeTooSmall, NonIntegerDegree, NotACovering, OutOfDomain
from semicov.numerics import bisect_brackets, circle_dist, frac, sign_changes


def test_make_lift_linear_model(m2):
    assert m2.degree == 2
    assert m2.is_covering


def test_make_lift_sine_small_is_covering():
    m = from_function(lambda x: 2 * x + 0.1 * np.sin(2 * np.pi * x))
    assert m.degree == 2
    # oracle: the sampled slope on a 1e4 grid stays positive
    xs = np.linspace(0, 1, 10_000)
    slopes = np.diff(m(xs)) / np.diff(xs)
    assert slopes.min() > 0
    assert m.is_covering


def test_make_lift_sine_large_not_covering():
    m = from_function(lambda x: 2 * x + 0.6 * np.sin(2 * np.pi * x))
    assert m.degree == 2
    # oracle: sampled slope changes sign near x = 1/2
    xs = np.linspace(0, 1, 10_000)
    slopes = np.diff(m(xs)) / np.diff(xs)
    assert slopes.min() < 0 < slopes.max()
    assert not m.is_covering


def test_make_lift_rejects_non_integer_degree():
    with pytest.raises(NonIntegerDegree):
        from_function(lambda x: 1.5 * x)


def test_make_lift_rejects_degree_one():
    with pytest.raises(DegreeTooSmall):
        from_function(lambda x: x + 0.1 * np.sin(2 * np.pi * x))


def test_evaluate_equivariance_examples(m2):
    assert m2(1.25) == pytest.approx(2.5, abs=1e-12)
    assert m2(-0.5) == pytest.approx(-1.0, abs=1e-12)


def test_evaluate_sine_closed_form(sine2):
    # 2*0.25 + 0.1*sin(pi/2) = 0.6
    assert sine2(0.25) == pytest.approx(0.6, abs=1e-10)


def test_equivariance_on_random_points(sine2):
    # the extension shares the stored samples, so the only deviation from
    # F(x+1) = F(x) + d is the rounding of x+1 itself
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3, 3, 1000)
    assert np.max(np.abs(sine2(xs + 1.0) - sine2(xs) - 2.0)) < 1e-11
    grid = np.linspace(0, 1, sine2.grid + 1)
    assert np.array_equal(sine2(grid + 1.0), sine2(grid) + 2.0)


def test_covering_monotone_on_dense_sample(sine2):
    xs = np.linspace(0, 1, 1000)
    assert np.all(np.diff(sine2(xs)) > 0)


def test_periodic_points_model_fixed(m2):
    pts = find_periodic_points(m2, 1)
    assert len(pts) == 1
    assert pts[0][0] == pytest.approx(0.0, abs=1e-9)
    assert pts[0][1] == 1


def test_periodic_points_model_period_two(m2):
    # oracle: solve 4x = x mod 1 -> x in {0, 1/3, 2/3}
    pts = find_periodic_points(m2, 2)
    angles = [a for a, _ in pts]
    assert angles == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-9)
    assert [p for _, p in pts] == [1, 2, 2]


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3)])
def test_periodic_point_count(d, n):
    pts = find_periodic_points(model_lift(d), n)
    assert len(pts) == d ** n - 1
    for angle, _ in pts:
        g = model_lift(d).iterate(angle, n) - angle
        assert abs(g - round(g)) <= 1e-9


def test_periodic_points_blow_up_interval():
    # interval opened at the fixed angle 0; the inserted return map has
    # fixed endpoints and an interior fixed point
    m = blow_up(2, [{"base_angle": 0, "length": 0.1, "kind": "north_south"}])
    pts = find_periodic_points(m, 1, tol=1e-9)
    angles = np.array([a for a, _ in pts])
    # oracle: sign changes of F(x) - x on a 1e5 grid
    xs = np.linspace(0, 1, 100_001)
    g = m(xs) - xs
    brackets = np.nonzero(g[:-1] * g[1:] < 0)[0]
    exact_zeros = int(np.count_nonzero(g == 0.0))   # 0.5 is fixed exactly on-grid
    assert len(angles) == len(brackets) + exact_zeros
    # construction places the plateau at [0.45, 0.55]
    assert angles == pytest.approx([0.45, 0.5, 0.55], abs=1e-3)


def test_periodic_points_negative_degree():
    # -2x = x mod 1 has the three solutions k/3
    pts = find_periodic_points(model_lift(-2), 1)
    assert [a for a, _ in pts] == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-9)


def test_periodic_points_merge_across_angle_zero():
    # F(x) - x dips 5e-6 below 0 at angle 0 and rises on both sides: a near-tangent
    # pair of fixed points at about +1.9e-6 and -8.3e-6, within the dedupe gap
    # 2/npts = 2e-5 across angle 0, so the one at the top of [0, 1) is dropped
    values = [-5e-6] + [2 * i / 16 + 0.1 for i in range(1, 16)] + [2 - 5e-6]
    m = make_lift(values)
    assert m.is_covering
    g = lambda x: m(x) - x
    assert g(0.0) < 0 < g(1e-5) and g(1.0 - 1e-5) - 1 > 0 > g(1.0) - 1
    pts = find_periodic_points(m, 1)
    assert [p for _, p in pts] == [1, 1]
    assert 0.0 < pts[0][0] < 1e-5
    assert pts[1][0] == pytest.approx(0.9, abs=1e-9)
    assert pts == _full_scan_periodic_points(m, 1)


def test_periodic_points_requires_covering():
    m = from_function(lambda x: 2 * x + 0.6 * np.sin(2 * np.pi * x))
    with pytest.raises(NotACovering):
        find_periodic_points(m, 1)


def _per_level_periodic_points(m, n, tol=1e-9):
    """Reference search: one bisection per integer level k and one scalar
    period scan per root."""
    npts = max(100_000, 64 * abs(m.degree) ** n)
    xs = np.linspace(0.0, 1.0, npts + 1)
    g = m.iterate(xs, n) - xs
    roots = []
    for k in range(int(np.ceil(g.min())), int(np.floor(g.max())) + 1):
        h = g - k
        roots.extend(xs[h == 0.0])
        idx = sign_changes(h)
        if idx.size:
            roots.extend(bisect_brackets(lambda x: m.iterate(x, n) - x - k,
                                         xs[idx], xs[idx + 1], xtol=min(tol, 1e-12)))
    out = []
    for r in sorted(frac(r) for r in roots):
        if out and circle_dist(r, out[-1][0]) <= max(tol, 2.0 / npts):
            continue
        period = next((p for p in range(1, n + 1)
                       if circle_dist(m.iterate(r, p), r) <= 1e-6), n)
        out.append((float(r), period))
    if len(out) > 1 and circle_dist(out[0][0], out[-1][0]) <= max(tol, 2.0 / npts):
        out.pop()
    return out


def _sine(d, a, c):
    return from_function(lambda x: d * x + a * np.sin(2 * np.pi * x) + c)


@pytest.mark.parametrize("make,n", [
    (lambda: model_lift(2), 5), (lambda: model_lift(3), 4), (lambda: model_lift(-2), 5),
    (lambda: _sine(2, 0.1, 0.0), 4), (lambda: _sine(3, 0.05, 0.3), 3),
    (lambda: _sine(-2, 0.09, -0.2), 3),
    (lambda: blow_up(2, [{"base_angle": 0, "length": 0.1, "kind": "north_south"}]), 1),
    (lambda: blow_up(2, [{"base_angle": 0, "length": 0.1, "kind": "north_south"}]), 3),
], ids=["model2", "model3", "model-2", "sine2", "sine3", "sine-2", "blowup-n1", "blowup-n3"])
def test_periodic_points_match_per_level_reference(make, n):
    m = make()
    got, ref = find_periodic_points(m, n), _per_level_periodic_points(m, n)
    assert [p for _, p in got] == [p for _, p in ref]
    assert np.all(np.abs(np.subtract([a for a, _ in got], [a for a, _ in ref])) <= 1e-12)


def _full_scan_periodic_points(m, n, tol=1e-9):
    """Reference search: F^n on every scan node, then the same brackets, bisection,
    dedupe and periods as find_periodic_points."""
    npts = max(100_000, 64 * abs(m.degree) ** n)
    xs = np.linspace(0.0, 1.0, npts + 1)
    g = m.iterate(xs, n) - xs
    k_lo = np.ceil(np.minimum(g[:-1], g[1:]))
    count = (np.floor(np.maximum(g[:-1], g[1:])) - k_lo + 1).astype(np.int64)
    cells = np.flatnonzero(count)
    count, k_lo = count[cells], k_lo[cells]
    i = np.repeat(cells, count)
    k = np.repeat(k_lo, count) + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    cross = (g[i] - k) * (g[i + 1] - k) < 0
    i, k = i[cross], k[cross]
    roots = [xs[g == np.floor(g)],
             bisect_brackets(lambda x: m.iterate(x, n) - x - k, xs[i], xs[i + 1],
                             xtol=min(tol, 1e-12))]
    gap = max(tol, 2.0 / npts)
    kept = []
    for r in np.sort(frac(np.concatenate(roots))):
        if not (kept and circle_dist(r, kept[-1]) <= gap):
            kept.append(float(r))
    if len(kept) > 1 and circle_dist(kept[0], kept[-1]) <= gap:
        kept.pop()
    return list(zip(kept, _minimal_periods(m, np.array(kept), n).tolist()))


_SCAN_MAPS = {f"{family}{d}": make for d in (2, 3, -2, -3) for family, make in [
    ("model", lambda d=d: model_lift(d)), ("sine", lambda d=d: _sine(d, 0.1, 0.3))]}
_BLOW_UPS = [(d, kind) for d in (2, 3) for kind in sorted(INSERT_KINDS)] + [(-2, "identity")]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", sorted(_SCAN_MAPS))
def test_periodic_points_equal_the_full_scan(name, n):
    m = _SCAN_MAPS[name]()
    assert find_periodic_points(m, n) == _full_scan_periodic_points(m, n)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d, kind", _BLOW_UPS)
def test_blow_up_periodic_points_equal_the_full_scan(d, kind, n):
    m = blow_up(d, [{"base_angle": 1 / 7, "length": 0.03, "kind": kind},
                    {"base_angle": 0, "length": 0.02, "kind": kind}])
    assert m.is_covering
    assert find_periodic_points(m, n) == _full_scan_periodic_points(m, n)


def test_periodic_points_with_a_root_on_a_coarse_node_equal_the_full_scan():
    # F(x) = 2x - 1/2 on a dyadic grid: at n = 11 the scan has 2^17 cells, and F^11 - x is
    # exactly 0 at the coarse node 1/2, the shared end of two kept coarse cells
    m, n = make_lift(2 * np.linspace(0.0, 1.0, 65) - 0.5), 11
    assert 64 * abs(m.degree) ** n == 2 ** 17 and (0.5 * 2 ** 17) % STRIDE == 0
    got = find_periodic_points(m, n)
    assert got == _full_scan_periodic_points(m, n)
    assert m.iterate(0.5, n) == 0.5 and (0.5, 1) in got


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, [0.25, np.nan]])
def test_lift_rejects_non_finite(m2, x):
    with pytest.raises(OutOfDomain):
        m2(x)


def _composed(m, x, n):
    for _ in range(n):
        x = m(x)
    return x


@pytest.mark.parametrize("size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 100_001])
def test_iterate_matches_composed_calls(sine2, size):
    x = np.random.default_rng(size).uniform(-2.0, 3.0, size)
    assert sine2.iterate(x, 3).tobytes() == _composed(sine2, x, 3).tobytes()


def test_iterate_keeps_0d_and_2d_inputs(sine2):
    got = sine2.iterate(0.3, 2)
    assert type(got) is float and got == _composed(sine2, 0.3, 2)
    x = np.random.default_rng(0).uniform(0.0, 1.0, (3, CHUNK // 2 + 7))    # over one chunk
    for grid in (x, x.T):
        got = sine2.iterate(grid, 2)
        assert got.shape == grid.shape
        assert got.tobytes() == _composed(sine2, grid, 2).tobytes()


def test_iterate_rejects_nan_in_the_last_chunk(sine2):
    x = np.linspace(0.0, 1.0, 2 * CHUNK + 5)
    x[-1] = np.nan
    with pytest.raises(OutOfDomain):
        sine2.iterate(x, 2)
