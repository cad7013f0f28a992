import numpy as np
import numpy.testing as npt
import pytest

from fracvar.errors import NumericsError
from fracvar.fracops import ToeplitzScheme, caputo_left_matrix, caputo_left_operator
from fracvar.minimize import PointwiseSum, bfgs_minimize, pcg_direction, schur_newton


def double_well(x):
    return x[0] ** 4 - x[0] ** 2 + x[1] ** 2


def double_well_grad(x):
    return np.array([4.0 * x[0] ** 3 - 2.0 * x[0], 2.0 * x[1]])


def double_well_hess(x):
    return np.diag([12.0 * x[0] ** 2 - 2.0, 2.0])


# the double well as a sum over one point, whose identity slot reads the node
# value X = x[1 - local]; x[local] is the point's own unknown Z
WELL = PointwiseSum((1, 1), [(None, np.arange(1))])


def schur_on_double_well(x, g, local=0, hess=double_well_hess):
    order = [1 - local, local]
    point = hess(x)[order][:, order][None]
    px, pz = schur_newton(WELL, point, g[None, order[:1]], g[None, order[1:]])
    return np.concatenate((px.ravel(), pz.ravel()))[order]


def test_newton_shifts_an_indefinite_hessian_and_converges():
    # the start sits on the concave hump, where a plain Newton step would
    # climb: the point's own 1 x 1 block is negative and needs the shift
    result = bfgs_minimize(
        double_well, double_well_grad, np.array([0.1, 1.0]), schur_on_double_well, tol=1e-10
    )
    npt.assert_allclose(result.x, [1.0 / np.sqrt(2.0), 0.0], atol=1e-10)
    assert result.gradient_norm < 1e-10


def test_newton_shifts_an_indefinite_schur_complement():
    # with the hump's coordinate as the node value, the point block of Z is
    # positive and the 1 x 1 Schur complement 12 x^2 - 2 is not
    x, g = np.array([0.1, 1.0]), double_well_grad(np.array([0.1, 1.0]))
    p = schur_on_double_well(x, g, local=1)
    # H = diag(-1.88, 2): tau doubles from 1e-3 max|diag H| until it passes 1.88
    tau = 2e-3 * 2**10
    npt.assert_allclose(p, -g / (np.diag(double_well_hess(x)) + tau), rtol=1e-14)
    result = bfgs_minimize(
        double_well, double_well_grad, x, lambda x, g: schur_on_double_well(x, g, 1), tol=1e-10
    )
    npt.assert_allclose(result.x, [1.0 / np.sqrt(2.0), 0.0], atol=1e-10)


def test_non_finite_hessian_raises():
    with pytest.raises(NumericsError, match="non-finite"):
        bfgs_minimize(
            double_well,
            double_well_grad,
            np.array([0.5, 0.5]),
            lambda x, g: schur_on_double_well(x, g, hess=lambda x: np.full((2, 2), np.nan)),
        )


def pcg_on_double_well(x, g):
    return pcg_direction(lambda v: double_well_hess(x) @ v, lambda r: r, g)


def test_newton_cg_leaves_the_concave_hump_and_converges():
    x0 = np.array([0.1, 1.0])
    result = bfgs_minimize(double_well, double_well_grad, x0, pcg_on_double_well, tol=1e-10)
    npt.assert_allclose(result.x, [1.0 / np.sqrt(2.0), 0.0], atol=1e-10)


def test_pcg_solves_a_positive_definite_system_to_its_tolerance():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    hmat = a @ a.T + 40.0 * np.eye(40)
    g = rng.standard_normal(40)
    diag = np.diag(hmat)
    p = pcg_direction(lambda v: hmat @ v, lambda r: r / diag, g)
    assert np.linalg.norm(hmat @ p + g) <= 1e-11 * np.linalg.norm(g)


def test_pcg_negative_curvature_exits():
    # the first direction -K^-1 g has negative curvature: it is returned as is
    hmat = np.diag([-1.0, 2.0])
    first = pcg_direction(lambda v: hmat @ v, lambda r: 0.5 * r, np.array([1.0, 0.0]))
    npt.assert_array_equal(first, [-0.5, 0.0])
    # a later negative-curvature direction returns the iterate so far
    hmat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 3.0, 1.0]])
    g = np.array([1.0, 1.0, 0.0])
    iterate = pcg_direction(lambda v: hmat @ v, lambda r: r, g)
    step = (g @ g) / (g @ hmat @ g)
    npt.assert_allclose(iterate, -step * g)


def test_non_finite_gradient_raises_without_a_warning():
    # the gradient overflows after the first step; RuntimeWarnings are
    # errors in this suite, so the overflow itself must not warn
    def grad(x):
        scale = 1.0 if x[0] == 0.5 else 1e300
        return 2.0 * x * scale * scale

    with pytest.raises(NumericsError, match="gradient is non-finite at iteration 1"):
        bfgs_minimize(lambda x: float(x @ x), grad, np.array([0.5, 0.5]), lambda x, g: -0.5 * x)


def test_pcg_non_finite_curvature_raises():
    with pytest.raises(NumericsError, match="non-finite"):
        pcg_direction(lambda v: np.full_like(v, np.nan), lambda r: r, np.ones(3))


def test_hvp_is_the_assembled_hessian_times_x():
    # two slots over 5 nodes, width 2: the node value and a dense matrix image
    rng = np.random.default_rng(8)
    rows = np.tile(np.arange(4), 2) + np.repeat([0, 1], 4)
    matrix = rng.standard_normal((5, 5))
    ps = PointwiseSum((5, 2), [(None, rows), (0.5 * matrix, rows)])
    point = rng.standard_normal((8, 4, 4))
    point += point.transpose(0, 2, 1)
    x = rng.standard_normal((5, 2))
    expected = ps.hessian(point) @ x.ravel()
    npt.assert_allclose(ps.hvp(point, x).ravel(), expected, rtol=1e-13, atol=1e-13)


def test_slice_scatter_matches_np_add_at_bit_for_bit():
    # rows of two runs scatter by slices, in np.add.at's order of additions
    rng = np.random.default_rng(4)
    rows = np.tile(np.arange(6), 2) + np.repeat([0, 1], 6)
    part = 0.3 * rng.standard_normal((12, 1))
    got = PointwiseSum((7, 1), [(None, rows)]).gradient([part])
    expected = np.zeros((7, 1))
    np.add.at(expected, rows, part)
    npt.assert_array_equal(got, expected)


def test_hvp_skips_zero_blocks_and_the_slots_only_they_read(monkeypatch):
    # a w-free Lagrangian's Caputo blocks are all zero: no FFT apply is made,
    # and the product is still the assembled Hessian's
    calls = []
    for name in ("apply", "apply_T"):
        op = getattr(ToeplitzScheme, name)
        monkeypatch.setattr(
            ToeplitzScheme, name, lambda self, v, op=op, name=name: calls.append(name) or op(self, v)
        )
    n, h, alpha = 16, 1.0 / 16, 0.4
    rng = np.random.default_rng(11)
    rows = np.arange(n + 1)
    difference = rng.standard_normal((n + 1, n + 1))
    slots = [(None, rows), (difference, rows)]
    fft = PointwiseSum((n + 1, 2), slots + [(caputo_left_operator(n, h, alpha), rows)])
    dense = PointwiseSum((n + 1, 2), slots + [(caputo_left_matrix(n, h, alpha), rows)])
    point = rng.standard_normal((n + 1, 6, 6))
    point += point.transpose(0, 2, 1)
    point[:, 4:], point[:, :, 4:] = 0.0, 0.0  # the Caputo slot's rows and columns
    x = rng.standard_normal((n + 1, 2))
    got = fft.hvp(point, x)
    assert calls == []
    npt.assert_allclose(got.ravel(), dense.hessian(point) @ x.ravel(), rtol=1e-13, atol=1e-13)
    # one product over every slot's argument, the zero ones included: bit for bit
    y = np.einsum("pij,pj->pi", point, np.concatenate(fft.args(x), axis=1))
    npt.assert_array_equal(got, fft.gradient([y[:, span] for span in fft.spans]))
