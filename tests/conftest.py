import numpy as np
import pytest

from dodiff import make_box_weight, make_constant_weight, make_tapered_weight
from dodiff.kernel import eval_En_contour
from dodiff.spectral import build_exact_dirichlet


def dEn_dt_finite_difference(n, t, basis, w):
    """Central difference of E_n in time, the reference for the identity
    dE_n/dt = -lambda_n G_n."""
    h = 1e-4 * t
    up = eval_En_contour(n, t + h, basis, w)
    dn = eval_En_contour(n, t - h, basis, w)
    return (up - dn) / (2.0 * h)


@pytest.fixture(scope="session")
def const_weight():
    return make_constant_weight(1.0, alpha0=0.5, delta=0.25)


@pytest.fixture(scope="session")
def box_half():
    return make_box_weight(0.5, 0.02)


@pytest.fixture(scope="session")
def tapered():
    return make_tapered_weight(level=1.0, plateau_end=0.75, support_end=0.8,
                               alpha0=0.75, delta=0.5)


@pytest.fixture(scope="session")
def basis_pi():
    return build_exact_dirichlet(np.pi, 32)
