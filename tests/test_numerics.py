import numpy as np
import pytest

from semicov.numerics import band_gather, band_plan, periodic_plan
from semicov.semiconj2d import BandField2D


def _band_gather_2d(values, x, y, band, period):
    """The bilinear band gather by 2D fancy indexing, kept as the reference."""
    nx, ny = values.shape[0] - 1, values.shape[1] - 1
    a, b = band
    px = np.clip((np.asarray(x, dtype=float) - a) / (b - a) * nx, 0.0, nx)
    i = np.minimum(px.astype(np.int64), nx - 1)
    wx = px - i
    ox = 1.0 - wx
    j, oy, wy, shift = periodic_plan(y, ny, period)
    return (values[i, j] * ox * oy + values[i + 1, j] * wx * oy
            + values[i, j + 1] * ox * wy + values[i + 1, j + 1] * wx * wy + shift)


def _values(rng, rows, ny, orientation):
    ys = np.linspace(0.0, 1.0, ny + 1)
    values = orientation * ys + 0.1 * rng.standard_normal((rows, ny + 1))
    values[:, -1] = values[:, 0] + orientation
    return values


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize("rows, ny", [(2, 1), (3, 2), (17, 32), (65, 128)])
def test_band_gather_matches_2d_reference(rows, ny, orientation):
    rng = np.random.default_rng(rows * 1000 + ny)
    band = (0.2, 0.8)
    values = _values(rng, rows, ny, orientation)
    nx = rows - 1
    n = 500
    x = np.concatenate([rng.uniform(0.2, 0.8, n), rng.uniform(-0.5, 0.2, 50),
                        rng.uniform(0.8, 1.5, 50), [0.2, 0.8, 0.8, np.nextafter(0.8, 0.0)]])
    y = np.concatenate([rng.uniform(-3.0, 3.0, n), rng.integers(-4, 5, 100).astype(float),
                        [-1.0, 0.0, 1.0, -2.5]])
    for xs, ys in ((x, y), (x.reshape(4, -1), y.reshape(4, -1)),
                   (x[:, None], y[None, :8]), (np.float64(0.8), y), (x, -3.0)):
        got = band_gather(values, band_plan(xs, ys, band, nx, ny, orientation))
        want = _band_gather_2d(values, xs, ys, band, orientation)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    field = BandField2D(band, np.linspace(*band, rows), values, orientation)
    for px, py in ((0.8, 0.0), (0.2, -1.0), (0.5, 2.25), (0.37, -0.61)):
        got = field(np.asarray(px), np.asarray(py))
        assert isinstance(got, float)
        assert got == float(_band_gather_2d(values, px, py, band, orientation))
    grid = np.meshgrid(np.linspace(0.2, 0.8, 9), np.linspace(-1.0, 1.0, 11), indexing="ij")
    assert np.array_equal(field(*grid), _band_gather_2d(values, *grid, band, orientation))
