import os
import sys
import time

import numpy as np
import pytest

from semicov import numerics, semiconj1d, semiconj2d
from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import from_function
from semicov.errors import MaxIterExceeded, OutOfDomain
from semicov.numerics import band_gather, band_plan, contract, periodic_gather, periodic_plan
from semicov.semiconj2d import BandField2D


def _band_gather_2d(values, x, y, band):
    """The bilinear band gather by 2D fancy indexing, kept as the reference."""
    nx, ny = values.shape[0] - 1, values.shape[1] - 1
    a, b = band
    px = np.clip((np.asarray(x, dtype=float) - a) / (b - a) * nx, 0.0, nx)
    i = np.minimum(px.astype(np.int64), nx - 1)
    wx = px - i
    ox = 1.0 - wx
    j, wy, shift = periodic_plan(y, ny, 1)
    oy = 1.0 - wy
    return (values[i, j] * ox * oy + values[i + 1, j] * wx * oy
            + values[i, j + 1] * ox * wy + values[i + 1, j + 1] * wx * wy + shift)


def _values(rng, rows, ny):
    ys = np.linspace(0.0, 1.0, ny + 1)
    values = ys + 0.1 * rng.standard_normal((rows, ny + 1))
    values[:, -1] = values[:, 0] + 1
    return values


@pytest.mark.parametrize("rows, ny", [(2, 1), (3, 2), (17, 32), (65, 128)])
def test_band_gather_matches_2d_reference(rows, ny):
    rng = np.random.default_rng(rows * 1000 + ny)
    band = (0.2, 0.8)
    values = _values(rng, rows, ny)
    nx = rows - 1
    n = 500
    x = np.concatenate([rng.uniform(0.2, 0.8, n), rng.uniform(-0.5, 0.2, 50),
                        rng.uniform(0.8, 1.5, 50), [0.2, 0.8, 0.8, np.nextafter(0.8, 0.0)]])
    y = np.concatenate([rng.uniform(-3.0, 3.0, n), rng.integers(-4, 5, 100).astype(float),
                        [-1.0, 0.0, 1.0, -2.5]])
    # (x[:63, None], ...) has one x per row, as the band solvers' plans do
    for xs, ys in ((x, y), (x.reshape(4, -1), y.reshape(4, -1)),
                   (x[:, None], y[None, :8]), (x[:63, None], y[:504].reshape(63, 8)),
                   (np.float64(0.8), y), (x, -3.0)):
        got = band_gather(values, band_plan(xs, ys, band, nx, ny))
        want = _band_gather_2d(values, xs, ys, band)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    field = BandField2D(band, values)
    for px, py in ((0.8, 0.0), (0.2, -1.0), (0.5, 2.25), (0.37, -0.61)):
        got = field(np.asarray(px), np.asarray(py))
        assert isinstance(got, float)
        assert got == float(_band_gather_2d(values, px, py, band))
    grid = np.meshgrid(np.linspace(0.2, 0.8, 9), np.linspace(-1.0, 1.0, 11), indexing="ij")
    assert np.array_equal(field(*grid), _band_gather_2d(values, *grid, band))


def _contract_reference(lifted, start, degree, tol, max_iter=None):
    """The whole-array fixed-point loop and residual per leading index, kept as the
    reference for the blocked one."""
    ad = abs(degree)
    if max_iter is None:
        max_iter = 2 * int(np.ceil(np.log(max(tol, 1e-300)) / np.log(1.0 / ad))) + 60
    stop = tol * (1.0 - 1.0 / ad)
    cur, it, converged = start, max_iter, False
    for it in range(1, max_iter + 1):
        new = lifted(cur) / degree
        new[..., -1] = new[..., 0] + 1
        change = float(np.max(np.abs(new - cur)))
        cur = new
        if change <= stop:
            converged = True
            break
    r = np.abs(lifted(cur)[..., :-1] - degree * cur[..., :-1])
    return cur, it, converged, np.max(r, axis=tuple(range(1, r.ndim)), initial=0.0)


def _grid_residual(h, m):
    """sup |H(F(x)) - d H(x)| over x = i/N, i < N, through the field's own
    evaluation: the residual measurement the 1D solver made after solving,
    kept as the reference for the one contract makes."""
    xs = np.linspace(0.0, 1.0, h.grid, endpoint=False)
    return float(np.max(np.abs(h(m(xs)) - m.degree * h(xs))))


@pytest.fixture
def checked(monkeypatch):
    """Make the solvers' contract assert bit-equality with the reference, which must
    converge; returns its results."""
    results = []

    def contract_and_compare(plan, gather, start, degree, tol, max_iter=None):
        got = contract(plan, gather, start, degree, tol, max_iter)
        whole = plan(slice(None))
        want = _contract_reference(lambda v: gather(v, whole), start, degree, tol, max_iter)
        assert want[2] is True
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
        assert got[2].tobytes() == want[3].tobytes()
        results.append(got)
        return got

    monkeypatch.setattr(semiconj1d, "contract", contract_and_compare)
    monkeypatch.setattr(semiconj2d, "contract", contract_and_compare)
    return results


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("degree", [2, -2, 3])
# one block; a partial last block; the most points of one block; the fewest of two
@pytest.mark.parametrize("grid", [4096, 2 ** 17 + 3, 2 ** 16 - 1, 2 ** 16])
def test_blocked_1d_contract_matches_reference(checked, residual_matches, grid, degree,
                                               orientation):
    m = from_function(lambda x: degree * x + 0.1 * np.sin(2 * np.pi * x) + 0.2, grid)
    h = semiconj1d.solve_semiconjugacy(m, orientation, 1e-9)
    step = semiconj1d.contraction_step(h, m)
    start = np.linspace(0.0, 1.0, grid + 1)
    with pytest.raises(MaxIterExceeded, match="within 4 iterations"):
        contract(semiconj1d._pullback(m, start), periodic_gather, start, degree, 1e-9, max_iter=4)
    assert [r[1] for r in checked] == [h.iterations, 1]
    for field, residual in ((h, h.residual), (step, step.residual)):
        residual_matches(residual, _grid_residual(field, m), field.samples, degree,
                         exact=grid in (4096, 2 ** 16))


@pytest.mark.parametrize("degree", [2, -2, 3])
# rows 65 + 32; 128 + 128 + 44; 2^16 points in one block; 128 + 128 + 1
@pytest.mark.parametrize("nx, ny", [(97, 1000), (300, 511), (256, 255), (257, 255)])
def test_blocked_band_contract_matches_reference(checked, nx, ny, degree):
    m = make_skew_product(BaseMap("contraction", (0.5, 0.7)),
                          FiberMap(degree, tau=TauSpec("linear", 0.1)))
    h = semiconj2d.solve_band_semiconjugacy(m, (0.2, 0.8), 1e-9, nx=nx, ny=ny)
    _, ys, _, image = semiconj2d._band_grid(m, (0.2, 0.8), nx, ny)
    start = np.broadcast_to(ys, (nx, ny + 1))
    with pytest.raises(MaxIterExceeded, match="within 4 iterations"):
        contract(image, band_gather, start, degree, 1e-9, max_iter=4)
    assert [r[1] for r in checked] == [h.iterations]
    assert float(checked[0][2].max()) == h.residual


@pytest.mark.parametrize("degree", [2, -2, 3])
def test_blocked_sweep_equals_the_one_block_loop(monkeypatch, degree):
    m = from_function(lambda x: degree * x + 0.1 * np.sin(2 * np.pi * x) + 0.2, 4096)
    band_map = make_skew_product(BaseMap("contraction", (0.5, 0.7)),
                                 FiberMap(degree, tau=TauSpec("linear", 0.1)))
    nodes = np.linspace(0.0, 1.0, 4097)
    _, ys, _, image = semiconj2d._band_grid(band_map, (0.2, 0.8), 129, 256)
    nan_1d, nan_band = nodes.copy(), np.broadcast_to(ys, (129, 257)).copy()
    nan_1d[1234] = nan_band[64, 100] = np.nan

    def solves():
        hs = [semiconj1d.solve_semiconjugacy(m, o, 1e-9) for o in (1, -1)]
        hs += [semiconj1d.contraction_step(h, m) for h in hs]
        band = semiconj2d.solve_band_semiconjugacy(band_map, (0.2, 0.8), 1e-9)
        for args in ((semiconj1d._pullback(m, nodes), periodic_gather, nan_1d),
                     (image, band_gather, nan_band)):
            with pytest.raises(MaxIterExceeded, match="within 3 iterations"):
                contract(*args, degree, 1e300, max_iter=3)   # any finite step converges
        return [(v.tobytes(), f.iterations, f.residual)
                for v, f in [(h.samples, h) for h in hs] + [(band.values, band)]]

    swept, blocked = [], numerics.blocked
    monkeypatch.setattr(numerics, "blocked", lambda shape: swept.append(shape) or blocked(shape))
    one = solves()
    assert swept == []
    monkeypatch.setattr(numerics, "BLOCK", 1000)      # 5 blocks of 1D nodes, 43 of band rows
    assert solves() == one
    assert swept == [(4097,)] * 4 + [(129, 257), (4097,), (129, 257)]


@pytest.mark.parametrize("nodes", [4097, 2 ** 17 + 4])
def test_nan_prevents_convergence(nodes):
    start = np.linspace(0.0, 1.0, nodes)
    values = np.full(nodes, 0.5)
    values[nodes // 2] = np.nan

    def gather(v, rows):            # a block's plan is its rows
        return values[rows].copy()

    with pytest.raises(MaxIterExceeded, match="within 3 iterations"):
        contract(lambda rows: rows, gather, start, 2, 1e300, max_iter=3)
    want = _contract_reference(lambda v: gather(v, slice(None)), start, 2, 1e300, 3)
    assert want[1:3] == (3, False)


def test_a_nan_sample_fails_the_contraction_step():
    m = from_function(lambda x: 2 * x + 0.1 * np.sin(2 * np.pi * x), 4096)
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.linspace(0.0, 1.0, 4097)
        samples[1000] = bad
        field = semiconj1d.SemiconjugacyField1D(samples, 1, 2)
        with pytest.raises(OutOfDomain, match="finite"):
            semiconj1d.contraction_step(field, m)


@pytest.mark.parametrize("shape", [(2 ** 17 + 4,), (97, 1001)])
def test_lifted_value_at_the_glued_column_is_overwritten(shape):
    start = np.broadcast_to(np.linspace(0.0, 1.0, shape[-1]), shape).copy()
    glued = np.zeros(shape, dtype=bool)
    glued[..., -1] = True

    def gather(v, rows):    # the fixed point is start, whatever lifted says at the glued column
        return np.where(glued[rows], 1e6, 2.0 * v[rows])

    got = contract(lambda rows: rows, gather, start, 2, 1e-9)
    want = _contract_reference(lambda v: gather(v, slice(None)), start, 2, 1e-9)
    assert got[1] == want[1] == 1 and want[2]
    assert not got[2].any() and got[2].tobytes() == want[3].tobytes()
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("orientation", [0, 2, 0.5])
def test_solvers_reject_an_orientation_other_than_plus_or_minus_one(orientation):
    m = from_function(lambda x: 2 * x + 0.1 * np.sin(2 * np.pi * x), 4096)
    # contraction_step takes a field, and the field refuses the orientation when built
    for solve in (lambda: semiconj1d.solve_semiconjugacy(m, orientation),
                  lambda: semiconj1d.SemiconjugacyField1D(np.linspace(0.0, 1.0, 4097),
                                                          orientation, 2)):
        with pytest.raises(ValueError, match=r"^orientation must be \+1 or -1$"):
            solve()


def test_one_block_or_one_cpu_runs_without_an_executor(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("an executor was created")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    m = from_function(lambda x: 2 * x + 0.1 * np.sin(2 * np.pi * x), numerics.BLOCK - 1)
    semiconj1d.solve_semiconjugacy(m, 1, 1e-9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    semiconj1d.solve_semiconjugacy(from_function(m, 4 * numerics.BLOCK), 1, 1e-9)


def test_blocked_contract_under_oversubscribed_threads(checked, monkeypatch):
    # eight workers on fewer cores, switching threads every microsecond
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    m = from_function(lambda x: 3 * x + 0.1 * np.sin(2 * np.pi * x), 8 * numerics.BLOCK - 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for _ in range(3):
            semiconj1d.solve_semiconjugacy(m, 1, 1e-9)
            semiconj2d.solve_band_semiconjugacy(
                make_skew_product(BaseMap("identity"), FiberMap(-2, tau=TauSpec("linear", 0.1))),
                (0.2, 0.8), 1e-9, nx=300, ny=2047)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)
    assert checked


def _concatenated(parts):
    """The per-block plans joined along the leading axis; scalars must agree."""
    out = []
    for k, first in enumerate(parts[0]):
        if isinstance(first, np.ndarray):
            out.append(np.concatenate([p[k] for p in parts]))
        else:
            assert all(p[k] == first for p in parts)
            out.append(first)
    return out


def _widened(plan):
    """A compact plan with the whole plan's dtypes: an int64 index and a float64 shift."""
    index, *rest, shift = plan
    return [index.astype(np.int64), *rest, shift.astype(float)]


def _assert_compact(parts, shift_dtype):
    assert all(p[0].dtype == np.int32 and p[-1].dtype == shift_dtype for p in parts)


def _assert_plans_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        else:
            assert g == w


def test_block_plans_of_the_1d_solver_join_to_the_whole_plan():
    grid = 2 ** 17 + 3
    m = from_function(lambda x: 3 * x + 0.1 * np.sin(2 * np.pi * x) + 0.2, grid)
    nodes = np.linspace(0.0, 1.0, grid + 1)
    plan = semiconj1d._pullback(m, nodes)
    with numerics.blocked((grid + 1,)) as sweep:
        parts = sweep(plan)
    assert len(parts) == 3 and len(parts[-1][0]) == 4          # a partial last block
    _assert_compact(parts, np.int8)                             # F runs from 0.1 to 3.3
    # the whole plan as the 1D solver built it before: the map on every node at once
    whole = periodic_plan(m(nodes), grid, 1)
    _assert_plans_equal(_widened(_concatenated(parts)), whole)


def test_block_plans_of_the_band_solvers_join_to_the_whole_plan():
    nx, ny, band = 300, 511, (0.2, 0.8)
    fiber = FiberMap(-3, circle=from_function(lambda x: -3 * x + 0.05 * np.sin(2 * np.pi * x)),
                     tau=TauSpec("linear", 0.1))
    m = make_skew_product(BaseMap("contraction", (0.5, 0.7)), fiber)
    xs, ys, fx, image = semiconj2d._band_grid(m, band, nx, ny)
    with numerics.blocked((nx, ny + 1)) as sweep:
        parts = sweep(image)
    assert [len(p[0]) for p in parts] == [128, 128, 44]
    _assert_compact(parts, np.int8)
    # the whole grid as the band solver built it before: the map on the meshgrid
    xg, yg = np.meshgrid(xs, np.linspace(0.0, 1.0, ny + 1), indexing="ij")
    mx, my = m(xg, yg)
    assert fx.tobytes() == mx[:, 0].tobytes()
    _assert_plans_equal(_widened(_concatenated(parts)),
                        band_plan(mx[:, :1], my, band, nx - 1, ny))


def _solve_both_ways(monkeypatch, module, solve):
    """solve() with compact plans, and again with the float64-shift, int64-index plans of
    before; returns both results and the shift dtypes the compact plans took."""
    dtypes = []

    def recording(plan):
        plan = numerics.compact(plan)
        dtypes.append(plan[-1].dtype)
        return plan

    monkeypatch.setattr(module, "compact", recording)
    got = solve()
    monkeypatch.setattr(module, "compact", lambda plan: plan)
    return got, solve(), set(dtypes)


@pytest.mark.parametrize("offset", [300.0, -300.0])
@pytest.mark.parametrize("degree", [2, 3, -2, -3])
def test_1d_solves_whose_shifts_overflow_int8_equal_the_float_shift_plan(monkeypatch, degree,
                                                                          offset):
    grid = 2 ** 17 + 3                                  # three blocks, a partial last one
    m = from_function(lambda x: degree * x + offset + 0.1 * np.sin(2 * np.pi * x), grid)
    field = semiconj1d.SemiconjugacyField1D(np.linspace(0.0, -1.0, grid + 1), -1, degree)
    for solve in (lambda: semiconj1d.solve_semiconjugacy(m, 1, 1e-9),
                  lambda: semiconj1d.contraction_step(field, m)):
        got, want, dtypes = _solve_both_ways(monkeypatch, semiconj1d, solve)
        assert dtypes == {np.dtype(np.int16)}           # F runs past 300 turns
        assert got.samples.tobytes() == want.samples.tobytes()
        assert (got.iterations, got.residual) == (want.iterations, want.residual)


@pytest.mark.parametrize("degree", [2, 3, -2, -3])
def test_band_solves_whose_shifts_overflow_int8_equal_the_float_shift_plan(monkeypatch, degree):
    # tau = 30 / (1 - x) runs from 37.5 to 150 turns over the band
    m = make_skew_product(BaseMap("contraction", (0.5, 0.7)),
                          FiberMap(degree, tau=TauSpec("inv_one_minus", 30.0)))
    got, want, dtypes = _solve_both_ways(
        monkeypatch, semiconj2d,
        lambda: semiconj2d.solve_band_semiconjugacy(m, (0.2, 0.8), 1e-9, nx=300, ny=511))
    assert np.dtype(np.int16) in dtypes and dtypes <= {np.dtype(np.int8), np.dtype(np.int16)}
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.iterations, got.residual) == (want.iterations, want.residual)


@pytest.mark.parametrize("shift, dtype", [
    ([0.0, 127.0, -128.0], np.int8), ([0.0, 128.0], np.int16), ([-129.0, 5.0], np.int16),
    ([2.0 ** 15, 0.0], np.int32), ([-(2.0 ** 31), 1.0], np.int32), ([2.0 ** 31, 0.0], np.float64),
    ([1e300, 0.0], np.float64), ([-0.0, 1.0], np.float64), ([0.5, 1.0], np.float64)])
def test_compact_takes_the_narrowest_shift_dtype_that_holds_it_bit_for_bit(shift, dtype):
    index, shift = np.array([0, 7, 2 ** 24]), np.array(shift)
    got = numerics.compact((index, 0.25, shift))
    assert got[0].dtype == np.int32 and got[0].tolist() == index.tolist() and got[1] == 0.25
    assert got[2].dtype == dtype and got[2].astype(float).tobytes() == shift.tobytes()


def test_a_block_plan_error_keeps_its_type_and_message(monkeypatch):
    # a fiber value turns infinite on the rows of the last of three blocks
    m = make_skew_product(BaseMap("identity"), FiberMap(2))
    call = type(m).__call__

    def blows_up(self, x, y):
        fx, fy = call(self, x, y)
        return fx, np.where(np.asarray(x) > 0.75, np.inf, fy)

    monkeypatch.setattr(type(m), "__call__", blows_up)
    for cpus in (set(range(8)), {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        with pytest.raises(OutOfDomain) as err:
            semiconj2d.solve_band_semiconjugacy(m, (0.2, 0.8), 1e-9, nx=300, ny=511)
        assert str(err.value) == "evaluation points must be finite"


# --- bisection ----------------------------------------------------------------

def _bisect_reference(fn, lo, hi, xtol=1e-13):
    """The one-midpoint bisection loop, kept as the reference for the multi-level rounds."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.asarray(fn(lo), dtype=float)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = np.asarray(fn(mid), dtype=float)
        same = (flo <= 0) == (fm <= 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
        if np.max(hi - lo) <= xtol:
            break
    return 0.5 * (lo + hi)


def _counted(fn):
    """fn and the list of the shapes it was called on."""
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return fn(x)
    return counted, shapes


def _sine_brackets(count, seed):
    """count brackets of sin(x) - c around arcsin(c), c per bracket."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.9, 0.9, count)
    root = np.arcsin(c)
    lo = root - rng.uniform(1e-3, 1.0, count) * (root + 0.5 * np.pi)
    hi = root + rng.uniform(1e-3, 1.0, count) * (0.5 * np.pi - root)
    return (lambda x: np.sin(x) - c), lo, hi


def _cases():
    one = (lambda x: x ** 3 - 0.2, np.array([0.0]), np.array([1.0]))
    fn, lo, hi = _sine_brackets(62, 1)
    c = np.array([[0.1], [0.3], [0.7]])
    grid = np.linspace(0.0, 0.4, 5)
    yield "1 bracket", one, 1e-13
    yield "3 brackets", (lambda x: np.cos(3.0 * x), np.array([0.1, 0.2, 1.5]),
                         np.array([0.9, 1.9, 2.5])), 1e-13
    yield "62 brackets", (fn, lo, hi), 1e-12
    yield "62 brackets, xtol 1e-9", (fn, lo, hi), 1e-9
    yield "300 brackets", _sine_brackets(300, 3), 1e-12
    yield "2000 brackets", _sine_brackets(2000, 2), 1e-12
    yield "2-D, (3, 1) levels", (lambda x: x ** 3 - c, np.zeros((3, 5)), 1.0 + grid + c), 1e-13
    yield "xtol 0: the 200-level cap", one, 0.0
    # 9 levels a round: the 23rd round is cut to the 2 levels left
    yield "xtol 0, 2 brackets", (lambda x: np.sin(x), np.array([-1.0, 3.0]),
                                 np.array([2.0, 3.5])), 0.0
    yield "NaN on part of a bracket", (lambda x: np.where((x > 0.3) & (x < 0.4), np.nan, x - 0.35),
                                       np.array([0.0, 0.1]), np.array([1.0, 0.6])), 1e-13
    yield "0 at lo and at a midpoint", (lambda x: x - 0.25, np.array([0.25, 0.0, -0.5]),
                                        np.array([1.0, 0.5, 1.0])), 1e-13


@pytest.mark.parametrize("case, xtol", [(c, x) for _, c, x in _cases()],
                         ids=[name for name, _, _ in _cases()])
def test_bisection_matches_the_one_midpoint_loop(case, xtol):
    fn, lo, hi = case
    fn_ref, ref_shapes = _counted(fn)
    fn_new, new_shapes = _counted(fn)
    want = _bisect_reference(fn_ref, lo, hi, xtol)
    got = numerics.bisect_brackets(fn_new, lo, hi, xtol)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # one call for lo, then one per round of m levels, the last round cut to the levels left
    levels = len(ref_shapes) - 1
    m = max([1] + [k for k in range(1, 12) if (2 ** k - 1) * lo.size <= numerics.POINTS])
    rounds = -(-levels // m)
    assert new_shapes == [lo.shape] + [(2 ** min(m, 200 - m * r) - 1,) + lo.shape
                                       for r in range(rounds)]
    assert levels == 200 if xtol == 0.0 else levels < 200


def test_bisection_of_periodic_levels_matches_the_loop():
    m = from_function(lambda x: 2.0 * x + 0.05 * np.sin(2.0 * np.pi * x))
    n, xs = 5, np.linspace(0.0, 1.0, 1001)
    g = m.iterate(xs, n) - xs
    i, k = map(np.array, zip(*[(j, level) for level in range(32)
                               for j in np.flatnonzero((g[:-1] - level) * (g[1:] - level) < 0)]))
    assert i.size == 30                                      # 2^5 - 1 roots, 0 exact

    def fn(x):
        return m.iterate(x, n) - x - k                       # k per bracket, as find_periodic_points
    want = _bisect_reference(fn, xs[i], xs[i + 1], 1e-12)
    assert numerics.bisect_brackets(fn, xs[i], xs[i + 1], 1e-12).tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
def test_bisection_of_no_brackets_is_empty(shape):
    def fn(x):
        raise AssertionError("fn called with no brackets")
    got = numerics.bisect_brackets(fn, np.zeros(shape), np.ones(shape))
    assert got.shape == shape and got.dtype == float
    assert numerics.bisect_brackets(fn, [], []).shape == (0,)


def test_bisection_broadcasts_lo_against_hi():
    def fn(x):
        return x - np.array([0.2, 0.7])
    want = _bisect_reference(fn, 0.0, np.ones(2))
    assert numerics.bisect_brackets(fn, 0.0, np.ones(2)).tobytes() == want.tobytes()
