import numpy as np
import pytest

from semicov.annulus import BaseMap, FiberMap, TauSpec, make_skew_product
from semicov.circle import from_function, model_lift


@pytest.fixture(scope="session")
def m2():
    return model_lift(2)


@pytest.fixture(scope="session")
def m3():
    return model_lift(3)


@pytest.fixture(scope="session")
def sine2():
    return from_function(lambda x: 2 * x + 0.1 * np.sin(2 * np.pi * x))


@pytest.fixture(scope="session")
def product_z2():
    """The product model (x, z^2)."""
    return make_skew_product(BaseMap("identity"), FiberMap(2))


@pytest.fixture(scope="session")
def contracting_z2():
    """Contracting base with the squaring fiber."""
    return make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(2))


@pytest.fixture(scope="session")
def contracting_z3():
    return make_skew_product(BaseMap("contraction", (0.5, 0.9)), FiberMap(3))


@pytest.fixture(scope="session")
def example_map():
    """Base pushing to 1, fiber 2y + 1/(1-x): no global deviation bound."""
    return make_skew_product(BaseMap("affine_to_one"),
                             FiberMap(2, tau=TauSpec("inv_one_minus", 1.0)))


def _residual_matches(got, want, values, degree, exact):
    """got equals want bit for bit where exact, else within 4 ulp of max |degree * values|.

    The reference residuals evaluate the field at its own nodes by
    interpolation.  Where a node coordinate times the grid size is no exact
    integer (a grid that is no power of two, a band that is not dyadic), the
    weights come out as 1 - 1e-16 rather than 1, so the reference's H(node)
    differs from the stored sample by an ulp or two of H.  The residual is a
    difference of two terms of size |degree * H|, so that error is a few ulp
    of those terms: about 1e6 ulp of a 1e-10 residual, which no bound in ulp
    of the residual itself can hold.  On the test grids it reaches 1.5 ulp.
    """
    if exact:
        assert got == want
    else:
        assert abs(got - want) <= 4 * np.spacing(np.max(np.abs(degree * values)))


@pytest.fixture(scope="session")
def residual_matches():
    """The check of a solver-reported residual against its reference measurement."""
    return _residual_matches
