import numpy as np
import pytest

from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import from_function, make_lift
from semicov.errors import (BaseEscapes, BaseNotInvertible, DegreeTooSmall, FiberNotMonotone,
                            NonIntegerDegree, OutOfDomain)
from semicov.numerics import bisect_brackets


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
        make_skew_product(BaseMap("samples", (np.linspace(-0.2, 0.8, 33),)),
                          FiberMap(2))


def test_nan_base_sample_rejected():
    # a NaN compares false both ways, so it used to pass the range check and reach F
    values = np.linspace(0.1, 0.9, 33)
    values[9] = np.nan
    with pytest.raises(BaseEscapes):
        make_skew_product(BaseMap("samples", (values,)), FiberMap(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -0.5])
def test_bad_base_table_entry_between_the_checked_samples_rejected(bad):
    # entry 500 of 1001 lies at x = 0.5, between two of the 64 points the map is sampled at
    values = np.linspace(0.1, 0.9, 1001)
    values[500] = bad
    with pytest.raises(BaseEscapes, match=r"finite and in \[0, 1\]"):
        make_skew_product(BaseMap("samples", (values,)), FiberMap(2))


def test_nan_fiber_jump_rejected():
    nan_strip = lambda x, y: np.where((x > 0.5) & (x < 0.52), np.nan, 2.0 * y)
    with pytest.raises(NonIntegerDegree, match="nan"):
        make_skew_product(BaseMap("identity"), FiberMap(2, fn=nan_strip))


def test_nan_fiber_slope_rejected():
    # NaN only off the 64 sample angles: the jumps there are exact, the slope steps are not
    off_grid = lambda x, y: np.where(np.mod(64.0 * y, 1.0) > 0.0, np.nan, 2.0 * y)
    with pytest.raises(FiberNotMonotone, match="nan"):
        make_skew_product(BaseMap("identity"), FiberMap(2, fn=off_grid))


def test_inverse_subtracts_tau_in_place():
    fiber = FiberMap(2, tau=TauSpec("linear", 0.5))
    targets = np.array([1.0, 2.0])
    w = fiber.inverse(np.array([0.2, 0.4]), targets)
    assert w is targets and np.array_equal(w, [0.45, 0.9])


def test_evaluate_out_of_domain(product_z2):
    with pytest.raises(OutOfDomain):
        product_z2(1.2, 0.0)


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


def _bisection_inverse(fiber, x, targets, xtol=1e-13):
    """The generic root finder the closed form replaced: pad the bracket
    around the linear guess by the fiber's sampled deviation from d*y,
    then bisect."""
    x, targets = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(targets, dtype=float))
    base = fiber(x, np.zeros_like(targets))
    dev = max(float(np.max(np.abs(fiber(x, np.full_like(targets, y0)) - base - fiber.degree * y0)))
              for y0 in np.linspace(0.0, 1.0, 17))
    span = (targets - base) / fiber.degree
    pad = 1.0 + dev / abs(fiber.degree)
    sgn = 1.0 if fiber.degree > 0 else -1.0
    return bisect_brackets(lambda w: sgn * (fiber(x, w) - targets), span - pad, span + pad, xtol)


@pytest.mark.parametrize("d", [2, 3, -2, -3])
def test_circle_fiber_inverse_matches_bisection(d):
    wobble = from_function(lambda y: d * y + 0.08 * np.sin(2 * np.pi * y))
    fiber = FiberMap(d, circle=wobble, tau=TauSpec("inv_one_minus", 0.7))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.05, 0.95, (3, 1))
    targets = rng.uniform(-5.0, 5.0, (3, 200))
    w = fiber.inverse(x, targets.copy())                # the inverse overwrites its targets
    np.testing.assert_allclose(w, _bisection_inverse(fiber, x, targets), rtol=0, atol=1e-13)
    np.testing.assert_allclose(fiber(x, w), targets, rtol=0, atol=1e-13)


def test_raw_callable_fiber_has_no_inverse():
    fiber = FiberMap(2, fn=lambda x, y: 2.0 * y + 0.1 * x)
    with pytest.raises(NotImplementedError, match="raw-callable"):
        fiber.inverse(0.5, 0.3)


def test_non_covering_circle_fiber_rejected():
    values = 2.0 * np.arange(129) / 128
    values[42] = values[40]                 # one backward step
    circle = make_lift(values)
    assert not circle.is_covering and FiberMap(2, circle=circle).slope_range([0.5])[0] > 0
    with pytest.raises(FiberNotMonotone, match="not strictly monotone") as err:
        make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(2, circle=circle))
    assert "\n" not in str(err.value)


def test_base_inverse_error_is_one_line():
    with pytest.raises(BaseNotInvertible) as err:
        BaseMap("affine_to_one").inverse(np.linspace(0.2, 0.8, 400))
    assert "\n" not in str(err.value) and "[0.2, 0.8]" in str(err.value)


@pytest.mark.parametrize("base", [BaseMap("contraction", (0.5, 0.9)), BaseMap("power", (2.0,)),
                                  BaseMap("samples", (np.linspace(0.1, 0.9, 5),))],
                         ids=["contraction", "power", "samples"])
@pytest.mark.parametrize("y", [np.nan, [np.nan, 0.5], [0.25, np.nan, 0.5]],
                         ids=["only", "first", "inner"])
def test_base_inverse_rejects_nan(base, y):
    with pytest.raises(BaseNotInvertible):
        base.inverse(y)


def test_samples_base_inverse_round_trip():
    base = BaseMap("samples", (0.05 + 0.9 * np.linspace(0.0, 1.0, 33) ** 1.5,))
    xs = np.linspace(0.01, 0.99, 257)
    np.testing.assert_allclose(base.inverse(base(xs)), xs, rtol=0, atol=1e-12)


def test_samples_base_inverse_needs_increasing_table():
    flat = BaseMap("samples", (np.array([0.1, 0.4, 0.4, 0.9] * 4 + [0.95]),))
    with pytest.raises(BaseNotInvertible, match="not strictly increasing"):
        flat.inverse(0.5)


@pytest.mark.parametrize("x, y", [(np.nan, 0.5), (-np.inf, 0.5), (0.5, np.nan), (0.5, np.inf)])
def test_evaluate_rejects_non_finite(product_z2, x, y):
    with pytest.raises(OutOfDomain):
        product_z2(x, y)
