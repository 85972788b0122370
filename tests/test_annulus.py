import numpy as np
import pytest

from semicov.annulus import (BaseMap, FiberMap, TauSpec, displacement_bound,
                             estimate_annulus_rotation, fiber_preimages,
                             make_skew_product)
from semicov.circle import from_function
from semicov.errors import (BaseEscapes, BaseNotInvertible, DegreeTooSmall, FiberNotMonotone,
                            NonIntegerDegree, OrbitEscapes, OutOfDomain)


def test_product_model_construction(product_z2):
    assert product_z2.degree == 2
    assert product_z2(0.5, 0.25) == (0.5, 0.5)
    assert product_z2(0.5, 1.25) == (0.5, 2.5)


def test_example_lift_closed_form(example_map):
    # base (x+1)/2 at 0.5 gives 0.75; fiber 2*0 + 1/(1-0.5) = 2
    assert example_map(0.5, 0.0) == (0.75, 2.0)


def test_non_integer_fiber_jump_rejected():
    with pytest.raises(NonIntegerDegree):
        make_skew_product(BaseMap("identity"), FiberMap(2, fn=lambda x, y: 1.5 * y))


def test_degree_one_fiber_rejected():
    with pytest.raises(DegreeTooSmall):
        make_skew_product(BaseMap("identity"), FiberMap(1, fn=lambda x, y: y))


def test_non_monotone_fiber_rejected():
    wiggle = lambda x, y: 2 * y - (3.0 / np.pi) * np.sin(2 * np.pi * y) / 2
    with pytest.raises(FiberNotMonotone):
        make_skew_product(BaseMap("identity"), FiberMap(2, fn=wiggle))


def test_base_escape_rejected():
    with pytest.raises(BaseEscapes):
        make_skew_product(BaseMap("samples", table=np.linspace(-0.2, 0.8, 33)),
                          FiberMap(2))


def test_evaluate_out_of_domain(product_z2):
    with pytest.raises(OutOfDomain):
        product_z2(1.2, 0.0)


def test_displacement_product_zero(product_z2):
    rep = displacement_bound(product_z2, (0.1, 0.9))
    assert rep["sup"] == 0.0
    assert not rep["diverges"]


def test_displacement_example_band_and_divergence(example_map):
    rep = displacement_bound(example_map, (0.1, 0.9))
    # sup of 1/(1-x) over the band is attained at the right edge
    assert rep["sup"] == pytest.approx(10.0, rel=1e-9)
    assert rep["diverges"]


def test_fiber_preimages_halving(product_z2):
    pts = fiber_preimages(product_z2, (0.5, 0.5))
    assert [y for _, y in pts] == pytest.approx([0.25, 0.75], abs=1e-10)


def test_fiber_preimages_degree_three():
    prod3 = make_skew_product(BaseMap("identity"), FiberMap(3))
    pts = fiber_preimages(prod3, (0.5, 0.0))
    assert [y for _, y in pts] == pytest.approx([0.0, 1 / 3, 2 / 3], abs=1e-10)


def test_fiber_preimages_round_trip(example_map):
    rng = np.random.default_rng(3)
    for _ in range(1000):
        target = (rng.uniform(0.55, 0.95), rng.uniform(0, 1))
        pts = fiber_preimages(example_map, target, tol=1e-10)
        assert len(pts) == 2
        for x, y in pts:
            fx, fy = example_map(x, y)
            assert fx == pytest.approx(target[0], abs=2e-10)
            gap = (fy - target[1]) % 1.0
            assert min(gap, 1.0 - gap) < 2e-10


@pytest.mark.parametrize("d", [2, 3, -2, -3])
@pytest.mark.parametrize("circle", [False, True], ids=["linear", "sine"])
def test_branches_solve_in_the_fundamental_domain(d, circle):
    wobble = from_function(lambda y: d * y + 0.05 * np.sin(2 * np.pi * y)) if circle else None
    fiber = FiberMap(d, circle=wobble, tau=TauSpec("inv_one_minus", 0.7))
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.05, 0.95, 5):
        targets = rng.uniform(-3.0, 3.0, 40)
        ks = fiber.branches(x, targets)
        assert ks.shape == (40, abs(d)) and np.all(np.diff(ks, axis=1) == 1)
        w = fiber.inverse(x, targets[:, None] + ks)
        assert np.all(w > -1e-12) and np.all(w < 1.0 + 1e-12)


def test_base_inverse_error_is_one_line():
    with pytest.raises(BaseNotInvertible) as err:
        BaseMap("affine_to_one").inverse(np.linspace(0.2, 0.8, 400))
    assert "\n" not in str(err.value) and "[0.2, 0.8]" in str(err.value)


def test_rotation_estimate_product(product_z2):
    rep = estimate_annulus_rotation(product_z2, (0.5, 0.3), 40)
    assert rep["converged"]
    assert rep["value"] == pytest.approx(0.3, abs=1e-12)


def test_rotation_estimate_contracted_band():
    # displacement bounded on an invariant band: geometric convergence
    m = make_skew_product(BaseMap("contraction", (0.5, 0.9)),
                          FiberMap(2, tau=TauSpec("inv_one_minus", 1.0)))
    rep = estimate_annulus_rotation(m, (0.5, 0.2), 40)
    assert rep["converged"] and rep["cauchy_gap"] <= 1e-6


def test_rotation_estimate_diverging_tau(example_map):
    # base runs to 1 so fast that the series of tau contributions stalls
    rep = estimate_annulus_rotation(example_map, (0.5, 0.2), 45)
    assert not rep["converged"]
    gaps = np.abs(np.diff(rep["estimates"]))
    assert gaps[-1] > 0.1


def test_rotation_estimate_escapes(example_map):
    with pytest.raises(OrbitEscapes):
        estimate_annulus_rotation(example_map, (0.5, 0.2), 200)


@pytest.mark.parametrize("x, y", [(np.nan, 0.5), (-np.inf, 0.5), (0.5, np.nan), (0.5, np.inf)])
def test_evaluate_rejects_non_finite(product_z2, x, y):
    with pytest.raises(OutOfDomain):
        product_z2(x, y)
