import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicov.circle import from_function
from semicov.errors import DegreeMismatch, OutOfDomain
from semicov.numerics import circle_dist
from semicov.semiconj1d import (SemiconjugacyField1D, contraction_step, rotation_number,
                                self_conjugacies, solve_semiconjugacy)


def identity_field(grid, degree, orientation=1):
    xs = np.linspace(0, 1, grid + 1)
    return SemiconjugacyField1D(orientation * xs, orientation, degree)


def random_field(rng, grid, degree, modes=8):
    """Smooth random element of the o=+1 space."""
    xs = np.linspace(0, 1, grid + 1)
    h = xs.copy()
    for k in range(1, modes + 1):
        h += rng.normal(0, 0.3 / k ** 2) * np.sin(2 * np.pi * k * xs + rng.uniform(0, 7))
    h[-1] = h[0] + 1.0
    return SemiconjugacyField1D(h, 1, degree)


def test_contraction_step_fixes_identity_on_model(m2):
    out = contraction_step(identity_field(m2.grid, 2), m2)
    assert np.max(np.abs(out.samples - identity_field(m2.grid, 2).samples)) == 0


def test_contraction_step_affine():
    m = from_function(lambda x: 2 * x + 0.25)
    out = contraction_step(identity_field(m.grid, 2), m)
    xs = np.linspace(0, 1, m.grid + 1)
    assert np.max(np.abs(out.samples - (xs + 0.125))) < 1e-14


@pytest.mark.parametrize("orientation", [0, 0.5, 2, -2])
def test_a_field_refuses_an_orientation_other_than_plus_or_minus_one(orientation):
    # a field built with orientation 0.5 used to evaluate H(1.25) = 0.75, and with 0
    # plateau_set read one plateau over the whole circle
    with pytest.raises(ValueError, match=r"^orientation must be \+1 or -1$"):
        SemiconjugacyField1D(np.linspace(0, 1, 65), orientation, 2)


def test_contraction_step_degree_mismatch(m2):
    with pytest.raises(DegreeMismatch):
        contraction_step(identity_field(m2.grid, 3), m2)


@pytest.mark.parametrize("d", [2, 3])
def test_contraction_factor_random_fields(d):
    m = from_function(lambda x: d * x + 0.1 * np.sin(2 * np.pi * x))
    rng = np.random.default_rng(d)
    for _ in range(5):
        h1 = random_field(rng, m.grid, d)
        h2 = random_field(rng, m.grid, d)
        before = np.max(np.abs(h1.samples - h2.samples))
        t1 = contraction_step(h1, m)
        t2 = contraction_step(h2, m)
        after = np.max(np.abs(t1.samples - t2.samples))
        assert after <= before / abs(d) + 0.01


def test_solve_model_is_identity(m2):
    h = solve_semiconjugacy(m2, 1, 1e-10)
    xs = np.linspace(0, 1, 1000)
    assert np.max(np.abs(h(xs) - xs)) <= 1e-9
    assert h.residual <= 1e-9


@pytest.mark.parametrize("d,c", [(2, 0.25), (3, 0.7), (2, -0.4)])
def test_solve_affine_oracle(d, c):
    # the ansatz H(x) = x + a solves H(dx + c) = dH(x) with a = c/(d-1)
    m = from_function(lambda x: d * x + c)
    h = solve_semiconjugacy(m, 1, 1e-9)
    xs = np.linspace(0, 1, 500)
    assert np.max(np.abs(h(xs) - (xs + c / (d - 1)))) <= 1e-8


def test_solve_sine_residual_and_decay(sine2):
    h = solve_semiconjugacy(sine2, 1, 1e-8)
    assert h.residual <= 1e-8
    # long-run iteration oracle: sup-error decays like 2^{-n}
    ref = solve_semiconjugacy(sine2, 1, 1e-12)
    cur = identity_field(sine2.grid, 2)
    errs = []
    for _ in range(25):
        errs.append(np.max(np.abs(cur.samples - ref.samples)))
        cur = contraction_step(cur, sine2)
    ratios = np.array(errs[9:20]) / np.array(errs[8:19])
    assert 0.3 < ratios.mean() < 0.6


def test_dense_residual_bounded_by_cell_modulus(sine2):
    tol = 1e-8
    h = solve_semiconjugacy(sine2, 1, tol)
    xs = np.linspace(0, 1, 10 * sine2.grid, endpoint=False)
    dense = np.max(np.abs(h(sine2(xs)) - 2 * h(xs)))
    modulus = np.max(np.abs(np.diff(h.samples)))
    assert dense <= tol + 2 * modulus


def test_solution_bounded_deviation_equal_on_shifts(sine2):
    h = solve_semiconjugacy(sine2, 1, 1e-8)
    xs = np.linspace(0, 1, 512)
    dev0 = np.abs(h(xs) - xs)
    for k in (-2, 1, 5):
        dev = np.abs(h(xs + k) - (xs + k))
        assert np.max(np.abs(dev - dev0)) < 1e-12
    assert h.deviation_bound < 0.2


def test_solution_monotone_for_covering(sine2):
    h = solve_semiconjugacy(sine2, 1, 1e-8)
    assert np.all(np.diff(h.samples) > -1e-12)


def test_negative_orientation_is_negation(sine2):
    hp = solve_semiconjugacy(sine2, 1, 1e-10)
    hm = solve_semiconjugacy(sine2, -1, 1e-10)
    assert np.array_equal(hm.samples, -hp.samples)


@pytest.mark.parametrize("kind", ["linear", "sine", "non-covering"])
@pytest.mark.parametrize("grid", [64, 1024])
@pytest.mark.parametrize("d", [2, 3, -2, -3])
def test_orientation_minus_one_solves_and_steps_are_the_negated_plus_one(d, grid, kind):
    # linear with offset 0 fixes x = 0, where the +1 lift takes an exact zero
    f = {"linear": lambda x: d * x,
         "sine": lambda x: d * x + 0.1 * np.sin(2 * np.pi * x) + 0.2,
         "non-covering": lambda x: d * x + 0.6 * np.sin(2 * np.pi * x)}[kind]
    m = from_function(f, grid)
    assert m.is_covering == (kind != "non-covering")
    hp, hm = (solve_semiconjugacy(m, o, 1e-10) for o in (1, -1))
    assert hm.orientation == -1 and np.array_equal(hm.samples, -hp.samples)
    assert (hm.iterations, hm.residual) == (hp.iterations, hp.residual)
    sp, sm = contraction_step(hp, m), contraction_step(hm, m)
    assert sm.orientation == -1 and np.array_equal(sm.samples, -sp.samples)
    assert sm.residual == sp.residual


def test_rotation_number_examples(m2):
    assert rotation_number(m2, 0.3) == pytest.approx(0.3, abs=1e-9)
    m_shift = from_function(lambda x: 2 * x + 1.0)
    assert rotation_number(m_shift, 0.0) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotation_shift_law(d):
    m = from_function(lambda x: d * x + 0.1 * np.sin(2 * np.pi * x))
    m_up = from_function(lambda x: d * x + 0.1 * np.sin(2 * np.pi * x) + 1.0)
    h = solve_semiconjugacy(m, 1, 1e-9)
    h_up = solve_semiconjugacy(m_up, 1, 1e-9)
    xs = np.linspace(0, 1, 1000, endpoint=False)
    gap = h_up(xs) - h(xs) - 1.0 / (d - 1)
    assert np.max(np.abs(gap)) <= 1e-6


@pytest.mark.parametrize("d,count", [(2, 2), (3, 4), (4, 6), (-2, 6)])
def test_self_conjugacy_count(d, count):
    assert len(self_conjugacies(d)) == count


def test_self_conjugacies_commute_with_model():
    for d in (2, 3, 4):
        thetas = np.linspace(0, 1, 1000, endpoint=False)
        for c in self_conjugacies(d):
            lhs = c.apply_angle((d * thetas) % 1.0)
            rhs = (d * c.apply_angle(thetas)) % 1.0
            assert np.max(circle_dist(lhs, rhs)) <= 1e-12


def test_rotation_commutes_degree_four_example():
    # (e^{2 pi i/3} z)^4 = e^{2 pi i/3} z^4 since 4/3 = 1/3 mod 1
    c = [g for g in self_conjugacies(4) if g.rotation_index == 1 and not g.reflect][0]
    theta = 0.2
    assert circle_dist((4 * c.apply_angle(theta)) % 1, c.apply_angle(4 * theta)) < 1e-15


@given(st.integers(min_value=2, max_value=6), st.data())
@settings(max_examples=40, deadline=None)
def test_group_laws(d, data):
    group = self_conjugacies(d)
    a = data.draw(st.sampled_from(group))
    b = data.draw(st.sampled_from(group))
    assert a.compose(b) in group                       # closure
    ident = [g for g in group if g.is_identity][0]
    assert a.compose(ident) == a and ident.compose(a) == a
    assert a.compose(a.inverse()).is_identity          # inverses
    theta = data.draw(st.floats(0, 1, exclude_max=True))
    assert circle_dist(a.compose(b).apply_angle(theta),
                       a.apply_angle(b.apply_angle(theta))) < 1e-12


@pytest.mark.parametrize("x", [np.nan, [0.5, np.inf]])
def test_field_rejects_non_finite(sine2, x):
    h = solve_semiconjugacy(sine2)
    with pytest.raises(OutOfDomain):
        h(x)
