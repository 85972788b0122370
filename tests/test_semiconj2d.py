import math
import os
import tracemalloc

import numpy as np
import pytest

from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.errors import BandNotInvariant, OutOfDomain, ValidationError
from semicov.numerics import blocked
from semicov.semiconj1d import solve_semiconjugacy
from semicov.semiconj2d import (BandField2D, check_fiber_connector,
                                check_fiber_surjectivity, solve_band_semiconjugacy)


def test_product_model_fixed_point(product_z2):
    h = solve_band_semiconjugacy(product_z2, (0.2, 0.8), 1e-10)
    assert h.residual <= 1e-10
    assert h.deviation_bound <= 1e-10


def test_identity_base_translated_fiber_ansatz():
    # H(x,y) = y + tau(x)/(d-1) solves H(x, 2y + 0.1x) = 2 H(x, y)
    m = make_skew_product(BaseMap("identity"), FiberMap(2, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8)
    xg, yg = np.meshgrid(np.linspace(0.2, 0.8, 33), np.linspace(0, 2, 41), indexing="ij")
    assert np.max(np.abs(h(xg, yg) - (yg + 0.1 * xg))) <= 1e-6


def test_contracting_base_iteration_budget():
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)),
                          FiberMap(2, tau=TauSpec("const", 0.2)))
    tol = 1e-8
    h = solve_band_semiconjugacy(m, (0.2, 0.8), tol)
    assert h.residual <= tol
    assert h.iterations <= math.ceil(math.log2(1 / tol)) + 5


def test_band_not_invariant(example_map):
    with pytest.raises(BandNotInvariant):
        solve_band_semiconjugacy(example_map, (0.2, 0.8))


def test_deviation_bound_uniform_over_shifts():
    m = make_skew_product(BaseMap("identity"), FiberMap(2, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8)
    xs = np.linspace(0.2, 0.8, 17)
    ys = np.linspace(0, 1, 33)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    dev0 = np.max(np.abs(h(xg, yg) - yg))
    for k in (-3, 2):
        dev = np.max(np.abs(h(xg, yg + k) - (yg + k)))
        assert dev == pytest.approx(dev0, abs=1e-12)
    assert dev0 <= h.deviation_bound + 1e-12


def test_fiber_surjectivity(product_z2):
    h = solve_band_semiconjugacy(product_z2, (0.2, 0.8), 1e-10)
    assert check_fiber_surjectivity(h, 0.5)
    for level in (0.95, 0.8 + 1e-11, np.nan):
        with pytest.raises(OutOfDomain):
            check_fiber_surjectivity(h, level)
    # within the band's 1e-12 slack a level reads the edge fiber's values
    ys = np.linspace(0.0, 1.0, 2048, endpoint=False)
    for edge, level in ((0.2, 0.2 - 5e-13), (0.8, 0.8 + 5e-13)):
        assert np.array_equal(h(np.full_like(ys, level), ys), h(np.full_like(ys, edge), ys))
        assert check_fiber_surjectivity(h, level)


def test_fiber_surjectivity_fails_on_corrupted_field():
    values = np.tile(np.linspace(0, 1, 17), (9, 1))
    values[:, -1] = values[:, 0] + 1.0
    values[4, :] = 0.25          # one fiber collapsed to a constant
    bad = BandField2D((0.2, 0.8), values)
    assert not check_fiber_surjectivity(bad, 0.5)


def test_fiber_connector_levels():
    m = make_skew_product(BaseMap("identity"), FiberMap(2, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8)
    for z in np.linspace(0, 1, 16, endpoint=False):
        assert check_fiber_connector(h, float(z))


def test_fiber_connector_fails_on_one_collapsed_level():
    values = np.tile(np.linspace(0, 1, 17), (9, 1))
    values[4, :] = 0.25          # the level x = 0.5 takes no other angle
    bad = BandField2D((0.2, 0.8), values)
    assert check_fiber_connector(bad, 0.25)
    assert not check_fiber_connector(bad, 0.75)


def test_agreement_with_1d_field_on_products(sine2):
    # on a y-grid matching the 1-D field, the discrete fixed points coincide
    prod = make_skew_product(BaseMap("identity"), FiberMap(2, circle=sine2))
    tol = 1e-8
    h2 = solve_band_semiconjugacy(prod, (0.3, 0.7), tol, nx=17, ny=sine2.grid)
    h1 = solve_semiconjugacy(sine2, 1, tol)
    ys = np.linspace(0, 1, 257)
    for x in (0.3, 0.5, 0.7):
        gap = np.max(np.abs(h2(np.full_like(ys, x), ys) - h1(ys)))
        assert gap <= 2 * tol


@pytest.mark.parametrize("x, y", [(np.nan, 0.5), (0.5, np.nan), (0.5, np.inf)])
def test_band_field_rejects_non_finite(product_z2, x, y):
    h = solve_band_semiconjugacy(product_z2, (0.2, 0.8), 1e-10)
    with pytest.raises(OutOfDomain):
        h(x, y)


def _measure_whole_grid(field, m):
    """The residual over every grid row at once, kept as the reference."""
    xg, yg = np.meshgrid(field.x_samples, np.linspace(0.0, 1.0, field.ny, endpoint=False),
                         indexing="ij")
    fx, fy = m(xg, yg)
    a, b = field.band
    inside = (fx >= a) & (fx <= b)
    r = np.abs(np.where(inside, field(np.clip(fx, a, b), fy), np.nan) - m.degree * field(xg, yg))
    return float(np.nanmax(r, initial=0.0)), int(np.count_nonzero(~np.isnan(r)))


@pytest.mark.parametrize("degree", [2, -2, 3])
@pytest.mark.parametrize("nx, ny, band", [(97, 1000, (0.2, 0.8)), (300, 511, (0.2, 0.8)),
                                          (129, 256, (0.25, 0.75))])
def test_band_residual_matches_whole_grid(residual_matches, nx, ny, band, degree):
    # every image stays in the band; on the dyadic band and grid the
    # reference meets the nodes exactly, so it must agree bit for bit
    m = make_skew_product(BaseMap("contraction", (0.5, 0.7)),
                          FiberMap(degree, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, band, 1e-9, nx=nx, ny=ny)
    sup, count = _measure_whole_grid(h, m)
    assert count == nx * ny
    residual_matches(h.residual, sup, h.values, degree, exact=band == (0.25, 0.75))


@pytest.mark.parametrize("nx", [2, 63, 64, 65, 129])
def test_measure_chunks_match_whole_grid(residual_matches, nx):
    # 1025 columns put 63 rows in a block of the contract sweep that measures
    # the residual, so these nx end a block early, on its edge and just past it
    m = make_skew_product(BaseMap("contraction", (0.5, 0.7)),
                          FiberMap(2, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, (0.2, 0.8), 1e-9, nx=nx, ny=1024)
    sup, count = _measure_whole_grid(h, m)
    assert count == nx * 1024
    residual_matches(h.residual, sup, h.values, m.degree, exact=False)


@pytest.mark.parametrize("nx, ny", [(1, 16), (0, 16), (9, 0)])
def test_band_solvers_reject_degenerate_grids(product_z2, nx, ny):
    with pytest.raises(ValidationError):
        solve_band_semiconjugacy(product_z2, (0.2, 0.8), nx=nx, ny=ny)


@pytest.mark.parametrize("band", [(0.5, 0.5), (0.8, 0.2)])
def test_band_solver_rejects_an_empty_or_reversed_band(product_z2, band):
    with pytest.raises(ValidationError, match=r"^band must be two numbers 0 < a < b < 1"):
        solve_band_semiconjugacy(product_z2, band)


def test_band_solve_memory_peak(monkeypatch):
    # 24.1 MiB with an int64 index and a float64 shift per point, 18.7 MiB with compact
    # plans (numpy 2.4); two workers, since each holds block-sized temporaries
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    m = make_skew_product(BaseMap("identity"), FiberMap(2, tau=TauSpec("linear", 0.1)))
    ours = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solve_band_semiconjugacy(m, (0.2, 0.8), 1e-8, nx=513, ny=1024)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if ours:
            tracemalloc.stop()
    assert peak < 21 * 2 ** 20


def _deviation(values, ys):
    """sup |H(x, y) - y| over the nodes, a maximum per block of rows: the band
    solvers' own measurement before fields derived it, kept as the reference."""
    with blocked(values.shape) as sweep:
        return float(np.max(sweep(lambda rows: np.abs(values[rows] - ys).max())))


@pytest.mark.parametrize("nx, ny", [(33, 64), (300, 511)])
def test_band_field_derives_nodes_and_deviation_bound(nx, ny):
    # 300 x 512 nodes span three blocks of the reference's sweep
    m = make_skew_product(BaseMap("contraction", (0.5, 0.7)),
                          FiberMap(2, tau=TauSpec("linear", 0.1)))
    h = solve_band_semiconjugacy(m, (0.2, 0.8), 1e-9, nx=nx, ny=ny)
    assert np.array_equal(h.x_samples, np.linspace(0.2, 0.8, nx))
    assert h.deviation_bound == _deviation(h.values, np.linspace(0.0, 1.0, ny + 1))
