import numpy as np
import numpy.testing as npt
import pytest

from fracvar.errors import NumericsError
from fracvar.minimize import bfgs_minimize


def double_well(x):
    return x[0] ** 4 - x[0] ** 2 + x[1] ** 2


def double_well_grad(x):
    return np.array([4.0 * x[0] ** 3 - 2.0 * x[0], 2.0 * x[1]])


def double_well_hess(x):
    return np.diag([12.0 * x[0] ** 2 - 2.0, 2.0])


def test_newton_shifts_an_indefinite_hessian_and_converges():
    # the start sits on the concave hump, where a plain Newton step would climb
    result = bfgs_minimize(
        double_well, double_well_grad, np.array([0.1, 1.0]), tol=1e-10, hess=double_well_hess
    )
    npt.assert_allclose(result.x, [1.0 / np.sqrt(2.0), 0.0], atol=1e-10)
    assert result.gradient_norm < 1e-10


def test_non_finite_hessian_raises():
    with pytest.raises(NumericsError):
        bfgs_minimize(
            double_well,
            double_well_grad,
            np.array([0.5, 0.5]),
            hess=lambda x: np.full((2, 2), np.nan),
        )
