import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicov.annulus import BaseMap, make_skew_product
from semicov.errors import OutOfDomain
from semicov.stability import EpsilonSpec, _bump, perturb_p2, radial_rho, verify_perturbation

TWO_PI = 2 * np.pi


def test_bump_knot_values():
    assert _bump(0.1, 0.05, 0.1) == pytest.approx(0.05)     # t = rho -> rho'
    assert _bump(0.1, 0.05, 0.3) == pytest.approx(0.6)      # |t| > 2 rho -> 2t
    assert _bump(0.1, 0.05, 0.2) == pytest.approx(0.4)      # t = 2 rho -> 4 rho
    assert _bump(0.1, 0.05, 0.0) == 0.0


def test_bump_max_deviation_at_first_knot():
    ts = np.linspace(-1, 1, 200_001)
    dev = np.abs(_bump(0.1, 0.05, ts) - 2 * ts)
    assert dev.max() == pytest.approx(2 * 0.1 - 0.05, abs=1e-12)
    assert abs(abs(ts[np.argmax(dev)]) - 0.1) < 1e-5


@given(st.floats(1e-4, 0.5), st.floats(0.01, 1.0), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_bump_is_increasing_and_odd(rho, frac, t):
    rho_p = rho * frac
    eps = 1e-6 * rho
    assert _bump(rho, rho_p, t + eps) > _bump(rho, rho_p, t)
    assert _bump(rho, rho_p, -t) == pytest.approx(-_bump(rho, rho_p, t), rel=1e-12)
    assert abs(_bump(rho, rho_p, t) - 2 * t) <= 2 * rho - rho_p + 1e-12


def test_radial_profile_constraints():
    rho = radial_rho(EpsilonSpec("const", 0.1))
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1 - 1e-9), 100_000))
    assert np.max(2 * np.asarray(rho(xs)) / 0.1) < 1.0
    assert float(rho(0.25)) < float(rho(0.5))
    xs_nest = np.exp(np.linspace(np.log(1e-6), np.log(0.5), 1000))
    assert np.all(np.asarray(rho(xs_nest ** 2)) < np.asarray(rho(xs_nest)))


@pytest.mark.parametrize("x", [np.nan, [np.nan, 0.5], [0.25, np.nan, 0.5]],
                         ids=["only", "first", "inner"])
def test_radial_profile_rejects_nan(x):
    with pytest.raises(OutOfDomain):
        radial_rho(EpsilonSpec())(x)


def test_radial_profile_shrinking_epsilon():
    eps = EpsilonSpec("edge_poly", 0.2, 1.0)
    rho = radial_rho(eps)
    xs = np.exp(np.linspace(np.log(1e-5), np.log(1 - 1e-6), 50_000))
    assert np.all(2 * np.asarray(rho(xs)) < np.asarray(eps(xs)))
    xs_nest = np.exp(np.linspace(np.log(1e-5), np.log(0.5), 500))
    assert np.all(np.asarray(rho(xs_nest ** 2)) < np.asarray(rho(xs_nest)))
    # steeper profiles keep the bound on rho's own samples only: between them,
    # power 25 reads 2 rho = 1.098 eps near x = 0.9992
    for power in (1.0, 5.0, 10.0, 25.0):
        eps = EpsilonSpec("edge_poly", 0.2, power)
        rho = radial_rho(eps)
        assert np.max(2 * rho.values / eps(rho.xs)) <= 0.98 + 1e-12


def test_perturbation_structure():
    spec = perturb_p2(EpsilonSpec("const", 0.1))
    g = spec.g
    assert g.degree == 2
    # the positive ray is fixed by the angular bump
    assert g(0.3, 0.0)[1] == 0.0
    assert g(0.3, 0.0)[0] == pytest.approx(0.09)
    # outside the bump window the map is the squaring map, bit for bit
    for x in (0.2, 0.4, 0.7):
        t = 3.0 * float(np.asarray(spec.rho(x)))
        assert g(x, t / TWO_PI)[1] == 2 * t / TWO_PI
    # epsilon bounded by the declared delta
    xs = np.linspace(1e-4, 1 - 1e-4, 1000)
    assert np.all(np.asarray(spec.epsilon(xs)) < spec.delta)


def test_verify_perturbation_report():
    spec = perturb_p2(EpsilonSpec("const", 0.1))
    rep = verify_perturbation(spec, grid=100_000)
    assert rep["ratio_ok"] and rep["sup_ratio"] < 1.0
    assert rep["invariance_fraction"] == 1.0
    assert rep["injectivity"]["injective_on_sector"]
    assert rep["squaring_noninjective_after"] == 10      # ceil(log2(2 pi / 0.01))
    assert rep["foliation_preserved"]
    assert rep["r_samples"] == 10_000 and rep["disc_width"] == 0.01


def test_verify_perturbation_shrinking_profile():
    spec = perturb_p2(EpsilonSpec("edge_poly", 0.2, 1.0))
    rep = verify_perturbation(spec, grid=40_000)
    assert rep["ratio_ok"]
    assert rep["invariance_fraction"] == 1.0


def test_non_monotone_base_breaks_injectivity_certificate():
    spec = perturb_p2(EpsilonSpec("const", 0.1))
    folded = BaseMap("samples", (np.array([0.01, 0.3, 0.2, 0.4, 0.6]),))
    spec = replace(spec, g=make_skew_product(folded, spec.g.fiber))
    rep = verify_perturbation(spec, grid=10_000)
    cert = rep["injectivity"]
    assert cert["fiber_slopes_positive"]
    assert not cert["base_injective_on_sector"] and not cert["injective_on_sector"]
    assert rep["foliation_preserved"]


def test_angle_dependent_radius_breaks_foliation():
    spec = perturb_p2(EpsilonSpec("const", 0.1))
    g = spec.g

    class Twisted:              # image radius wobbles with the angle
        base = g.base

        def __call__(self, x, y):
            gx, gy = g(x, y)
            return gx * (1.0 + 1e-3 * np.sin(TWO_PI * np.asarray(y))), gy

    rep = verify_perturbation(replace(spec, g=Twisted()), grid=10_000)
    assert not rep["foliation_preserved"]
    assert rep["injectivity"]["injective_on_sector"]


def _ratio_grid_whole(spec, grid):
    """sup |g - p2| / eps and the foliation check on the whole meshgrid at once, as
    verify_perturbation computed them before it went by blocks of rows; the reference."""
    n = int(np.sqrt(grid))
    xs = np.exp(np.linspace(np.log(1e-6), np.log(1.0 - 1e-9), n))
    ts = np.linspace(-np.pi, np.pi, grid // n, endpoint=False)
    xg, tg = np.meshgrid(xs, ts, indexing="ij")
    gx, gy = spec.g(xg, tg / TWO_PI)
    p2 = xg ** 2 * np.exp(2j * tg)
    gz = xg ** 2 * np.exp(TWO_PI * 1j * gy)
    ratio = np.abs(gz - p2) / spec.epsilon(xg)
    return float(np.max(ratio)), bool(np.all(gx == gx[:, :1]))


@pytest.mark.parametrize("grid", [10 ** 6, 100_000])     # 16 blocks of rows; 207 + 109 rows
@pytest.mark.parametrize("eps", [EpsilonSpec("const", 0.1), EpsilonSpec("edge_poly", 0.2, 1.0),
                                 EpsilonSpec("edge_poly", 0.2, 5.0),
                                 EpsilonSpec("edge_poly", 0.2, 25.0)],
                         ids=["const", "edge_poly-1", "edge_poly-5", "edge_poly-25"])
def test_blocked_ratio_grid_matches_whole_grid(monkeypatch, eps, grid):
    spec = perturb_p2(eps)
    sup_ratio, foliated = _ratio_grid_whole(spec, grid)
    reports = [verify_perturbation(spec, grid=grid)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    reports.append(verify_perturbation(spec, grid=grid))
    for rep in reports:
        assert rep == reports[0]
        assert rep["sup_ratio"] == sup_ratio and rep["foliation_preserved"] is foliated
