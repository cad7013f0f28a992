import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracvar.errors import NumericsError, ValidationError
from fracvar.fracops import (
    ToeplitzScheme,
    _fft_length,
    _l1_scheme,
    _product_trapezoid_scheme,
    caputo_left,
    caputo_left_matrix,
    caputo_left_operator,
    caputo_right,
    ibp_residual,
    rl_derivative_left,
    rl_derivative_right,
    rl_integral_left,
    rl_integral_right,
)
from fracvar.grid import (
    Grid,
    GridFunction,
    cell_differences,
    cell_differences_T,
    central_difference,
    central_difference_T,
)

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)  # = 1.1283791670955126
ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)  # = 0.5641895835477563


def sample(grid, fn):
    return GridFunction.from_callable(grid, fn)


# ---------------------------------------------------------------- oracles


def oracle_rl_integral_left(fn, a, t, beta):
    """Direct quadrature of the defining integral with the exact singular weight."""
    if t == a:
        return 0.0
    val, _ = quad(fn, a, t, weight="alg", wvar=(0.0, beta - 1.0))
    return val / math.gamma(beta)


def oracle_caputo_left(dfn, a, t, alpha):
    """Quadrature of the derivative against the exact kernel."""
    if t == a:
        return 0.0
    val, _ = quad(dfn, a, t, weight="alg", wvar=(0.0, -alpha))
    return val / math.gamma(1.0 - alpha)


# ---------------------------------------------------------- RL integrals


class TestRlIntegralLeft:
    def test_constant_half_order_closed_form(self):
        # closed form t^beta / Gamma(beta + 1); at t = 1: 2/sqrt(pi)
        g = Grid(0.0, 1.0, 512)
        out = rl_integral_left(sample(g, lambda t: np.ones_like(t)), 0.5)
        assert out.column()[-1] == pytest.approx(TWO_OVER_SQRT_PI, abs=2e-4)
        t = g.nodes()
        npt.assert_allclose(out.column(), t**0.5 / math.gamma(1.5), atol=2e-4)

    def test_against_direct_quadrature(self):
        g = Grid(0.0, 2.0, 256)
        f = sample(g, lambda t: np.cos(t))
        out = rl_integral_left(f, 0.3)
        t = g.nodes()
        for i in (32, 128, 256):
            ref = oracle_rl_integral_left(math.cos, 0.0, t[i], 0.3)
            assert out.column()[i] == pytest.approx(ref, abs=5e-5)

    def test_order_one_is_antiderivative(self):
        g = Grid(0.0, 1.0, 200)
        out = rl_integral_left(sample(g, lambda t: t), 1.0)
        t = g.nodes()
        npt.assert_allclose(out.column(), t**2 / 2.0, atol=1e-12)

    def test_zero_stays_zero(self):
        g = Grid(0.0, 1.0, 64)
        out = rl_integral_left(sample(g, np.zeros_like), 0.5)
        npt.assert_array_equal(out.values, 0.0)

    def test_rejects_nonpositive_order(self):
        g = Grid(0.0, 1.0, 8)
        f = sample(g, lambda t: t)
        for beta in (0.0, -0.5):
            with pytest.raises(ValidationError):
                rl_integral_left(f, beta)

    def test_rejects_nan_input(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.zeros(9)
        vals[3] = np.nan
        with pytest.raises(ValidationError):
            rl_integral_left(GridFunction(g, vals), 0.5)

    @pytest.mark.parametrize("beta", [120.0, 300.0])
    def test_overflowing_order_fails_fast(self, beta):
        # 120: k^(beta+1) overflows the weights; 300: Gamma(beta+2) overflows
        f = sample(Grid(0.0, 1.0, 1024), np.sin)
        with pytest.raises(NumericsError, match=f"order {beta} at n = 1024"):
            rl_integral_left(f, beta)
        with pytest.raises(NumericsError, match=f"order {beta} at n = 1024"):
            rl_integral_right(f, beta)

    def test_large_order_power_rule(self):
        # orders above 1 feed the transfer series: I^beta t = t^(1+beta)/Gamma(2+beta)
        g = Grid(0.0, 1.0, 256)
        out = rl_integral_left(sample(g, lambda t: t), 2.5)
        t = g.nodes()
        npt.assert_allclose(out.column(), t**3.5 / math.gamma(4.5), atol=1e-5)


class TestRlIntegralRight:
    def test_constant_half_order_closed_form(self):
        g = Grid(0.0, 1.0, 512)
        out = rl_integral_right(sample(g, lambda t: np.ones_like(t)), 0.5)
        assert out.column()[0] == pytest.approx(TWO_OVER_SQRT_PI, abs=2e-4)
        t = g.nodes()
        npt.assert_allclose(out.column(), (1.0 - t) ** 0.5 / math.gamma(1.5), atol=2e-4)

    def test_reflection_identity(self):
        g = Grid(0.0, 1.0, 128)
        f = sample(g, lambda t: np.sin(3.0 * t) + t**2)
        reflected = sample(g, lambda t: np.sin(3.0 * (1.0 - t)) + (1.0 - t) ** 2)
        right = rl_integral_right(f, 0.7).column()
        left_of_reflected = rl_integral_left(reflected, 0.7).column()
        npt.assert_allclose(right, left_of_reflected[::-1], atol=1e-13)

    def test_zero_stays_zero(self):
        g = Grid(0.0, 1.0, 64)
        out = rl_integral_right(sample(g, np.zeros_like), 0.5)
        npt.assert_array_equal(out.values, 0.0)


# ------------------------------------------------------ Caputo derivatives


class TestCaputoLeft:
    def test_constant_annihilated(self):
        g = Grid(0.0, 1.0, 64)
        out = caputo_left(sample(g, lambda t: np.full_like(t, 3.7)), 0.5)
        npt.assert_array_equal(out.values, 0.0)

    def test_linear_half_order(self):
        # power rule: Gamma(2)/Gamma(1.5) t^(1/2); at t = 1: 2/sqrt(pi)
        g = Grid(0.0, 1.0, 512)
        out = caputo_left(sample(g, lambda t: t), 0.5)
        assert out.column()[-1] == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-3)
        ref = oracle_caputo_left(lambda s: 1.0, 0.0, 1.0, 0.5)
        assert ref == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-10)

    def test_against_direct_quadrature_smooth(self):
        g = Grid(0.0, 1.0, 256)
        out = caputo_left(sample(g, lambda t: np.sin(t)), 0.4)
        t = g.nodes()
        for i in (64, 192, 256):
            ref = oracle_caputo_left(math.cos, 0.0, t[i], 0.4)
            assert out.column()[i] == pytest.approx(ref, abs=2e-4)

    def test_classical_limit_is_central_difference(self):
        g = Grid(0.0, 1.0, 128)
        f = sample(g, lambda t: t**2)
        out = caputo_left(f, 1.0)
        t = g.nodes()
        npt.assert_allclose(out.column(), 2.0 * t, atol=1e-12)
        npt.assert_array_equal(out.values, central_difference(f.values, g.h))

    def test_rejects_orders_outside_unit_interval(self):
        g = Grid(0.0, 1.0, 8)
        f = sample(g, lambda t: t)
        for alpha in (0.0, 1.5, -0.3):
            with pytest.raises(ValidationError):
                caputo_left(f, alpha)


class TestCaputoRight:
    def test_constant_annihilated(self):
        g = Grid(0.0, 1.0, 64)
        out = caputo_right(sample(g, lambda t: np.full_like(t, -2.0)), 0.5)
        npt.assert_array_equal(out.values, 0.0)

    def test_reflected_power_rule(self):
        g = Grid(0.0, 1.0, 512)
        out = caputo_right(sample(g, lambda t: 1.0 - t), 0.5)
        assert out.column()[0] == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-3)

    def test_classical_limit_has_minus_sign(self):
        g = Grid(0.0, 1.0, 128)
        out = caputo_right(sample(g, lambda t: t), 1.0)
        npt.assert_allclose(out.column(), -1.0, atol=1e-12)


# ---------------------------------------------------------- RL derivatives


class TestRlDerivativeLeft:
    def test_equals_caputo_when_start_value_vanishes(self):
        g = Grid(0.0, 1.0, 128)
        f = sample(g, lambda t: t * (1.0 + t))
        npt.assert_array_equal(
            rl_derivative_left(f, 0.6).values, caputo_left(f, 0.6).values
        )

    def test_constant_shift_term(self):
        # f = 1: the Caputo part is zero, leaving (t)^(-1/2)/Gamma(1/2)
        g = Grid(0.0, 1.0, 256)
        out = rl_derivative_left(sample(g, lambda t: np.ones_like(t)), 0.5)
        col = out.column()
        assert math.isnan(col[0])  # singular node flagged, not fabricated
        assert col[-1] == pytest.approx(ONE_OVER_SQRT_PI, rel=1e-12)
        t = g.nodes()
        npt.assert_allclose(col[1:], t[1:] ** -0.5 / math.gamma(0.5), rtol=1e-12)

    def test_classical_limit(self):
        g = Grid(0.0, 1.0, 128)
        f = sample(g, lambda t: t**3)
        out = rl_derivative_left(f, 1.0)
        npt.assert_array_equal(out.values, central_difference(f.values, g.h))
        assert np.isfinite(out.values).all()

    def test_caputo_relation_nodewise(self):
        g = Grid(0.0, 1.0, 128)
        f = sample(g, lambda t: np.cos(2.0 * t))
        alpha = 0.7
        diff = rl_derivative_left(f, alpha).values - caputo_left(f, alpha).values
        t = g.nodes()
        expected = np.cos(0.0) * t[1:] ** -alpha / math.gamma(1.0 - alpha)
        npt.assert_allclose(diff[1:, 0], expected, rtol=1e-12)


class TestRlDerivativeRight:
    def test_equals_caputo_when_end_value_vanishes(self):
        g = Grid(0.0, 1.0, 128)
        f = sample(g, lambda t: (1.0 - t) * np.exp(t))
        npt.assert_array_equal(
            rl_derivative_right(f, 0.5).values, caputo_right(f, 0.5).values
        )

    def test_constant_shift_term(self):
        g = Grid(0.0, 1.0, 256)
        out = rl_derivative_right(sample(g, lambda t: np.ones_like(t)), 0.5)
        col = out.column()
        assert math.isnan(col[-1])
        assert col[0] == pytest.approx(ONE_OVER_SQRT_PI, rel=1e-12)

    def test_zero_stays_zero(self):
        g = Grid(0.0, 1.0, 64)
        out = rl_derivative_right(sample(g, np.zeros_like), 0.5)
        npt.assert_array_equal(out.values, 0.0)


# ------------------------------------------------------ integration by parts


class TestIbpResidual:
    def test_half_order_parabola(self):
        n = 128
        g = Grid(0.0, 1.0, n)
        f = sample(g, lambda t: t * (1.0 - t))
        one = sample(g, lambda t: np.ones_like(t))
        res = ibp_residual(f, one, 0.5)
        assert res < 10.0 * g.h

    def test_both_sides_match_quadrature_oracle(self):
        # evaluate each side of the identity independently at modest accuracy
        n = 256
        g = Grid(0.0, 1.0, n)
        f = sample(g, lambda t: t * (1.0 - t))
        gfun = sample(g, lambda t: t + 1.0)
        alpha = 0.5

        def caputo_f(t):
            return oracle_caputo_left(lambda s: 1.0 - 2.0 * s, 0.0, t, alpha)

        lhs_oracle, _ = quad(lambda t: (t + 1.0) * caputo_f(t), 0.0, 1.0, limit=200)
        lhs_num = np.trapezoid(
            (gfun.values * caputo_left(f, alpha).values).sum(axis=1), dx=g.h
        )
        assert lhs_num == pytest.approx(lhs_oracle, abs=5e-4)
        assert ibp_residual(f, gfun, alpha) < 10.0 * g.h

    def test_zero_is_exact(self):
        g = Grid(0.0, 1.0, 64)
        z = sample(g, np.zeros_like)
        gf = sample(g, lambda t: t + 1.0)
        assert ibp_residual(z, gf, 0.5) == 0.0

    def test_classical_limit_identity(self):
        n = 256
        g = Grid(0.0, 1.0, n)
        f = sample(g, lambda t: np.sin(np.pi * t))
        gfun = sample(g, lambda t: t)
        assert ibp_residual(f, gfun, 1.0) < 10.0 * g.h**2

    def test_rejects_nonzero_endpoints(self):
        g = Grid(0.0, 1.0, 64)
        f = sample(g, lambda t: t + 1.0)
        gfun = sample(g, lambda t: t)
        with pytest.raises(ValidationError):
            ibp_residual(f, gfun, 0.5)

    def test_refinement_ratio(self):
        # residual must drop by >= 1.8 per grid doubling
        residuals = []
        for n in (64, 128, 256, 512, 1024):
            g = Grid(0.0, 1.0, n)
            f = sample(g, lambda t: t * (1.0 - t))
            gfun = sample(g, lambda t: t + 1.0)
            residuals.append(ibp_residual(f, gfun, 0.5))
        ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
        assert min(ratios) >= 1.8


# ----------------------------------------------------------- properties


@st.composite
def coeff_pairs(draw):
    c = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
    return draw(c), draw(c)


@pytest.mark.parametrize(
    "op,order",
    [
        (rl_integral_left, 0.5),
        (rl_integral_right, 0.5),
        (caputo_left, 0.5),
        (caputo_right, 0.5),
        (caputo_left, 1.0),
        (rl_derivative_left, 0.7),
        (rl_derivative_right, 0.7),
    ],
)
@given(pair=coeff_pairs())
@settings(max_examples=20, deadline=None)
def test_linearity(op, order, pair):
    c1, c2 = pair
    g = Grid(0.0, 1.0, 48)
    t = g.nodes()
    f1 = GridFunction(g, np.sin(2.0 * t))
    f2 = GridFunction(g, t**2 - 0.5 * t)
    combo = GridFunction(g, c1 * f1.values + c2 * f2.values)
    lhs = op(combo, order).values
    rhs = c1 * op(f1, order).values + c2 * op(f2, order).values
    scale = 1.0 + np.nanmax(np.abs(rhs))
    mask = np.isfinite(lhs) & np.isfinite(rhs)
    npt.assert_allclose(lhs[mask], rhs[mask], atol=1e-11 * scale)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_caputo_power_rule_convergence_order(k):
    alpha = 0.5
    errors = []
    for n in (64, 128, 256, 512):
        g = Grid(0.0, 1.0, n)
        f = sample(g, lambda t: t**k)
        out = caputo_left(f, alpha).column()
        t = g.nodes()
        exact = math.gamma(k + 1) / math.gamma(k + 1 - alpha) * t ** (k - alpha)
        errors.append(np.max(np.abs(out - exact)))
    if max(errors) < 1e-12:
        return  # L1 is exact for linear data; nothing left to converge
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    assert min(orders) >= 2.0 - alpha - 0.2


def test_classical_limit_on_smooth_function():
    g = Grid(0.0, 2.0, 256)
    f = sample(g, lambda t: np.exp(-t) * np.sin(2.0 * t))
    d_exact = lambda t: np.exp(-t) * (2.0 * np.cos(2.0 * t) - np.sin(2.0 * t))
    t = g.nodes()
    for op in (caputo_left, rl_derivative_left):
        npt.assert_allclose(op(f, 1.0).column(), d_exact(t), atol=30.0 * g.h**2)
    integ = rl_integral_left(f, 1.0).column()
    running = np.concatenate(([0.0], np.cumsum((f.column()[1:] + f.column()[:-1]) / 2.0 * g.h)))
    npt.assert_allclose(integ, running, atol=1e-13)


def test_vector_valued_columns_are_independent():
    g = Grid(0.0, 1.0, 64)
    t = g.nodes()
    f = GridFunction(g, np.stack([t, t**2], axis=1))
    out = caputo_left(f, 0.5)
    out0 = caputo_left(GridFunction(g, t), 0.5)
    out1 = caputo_left(GridFunction(g, t**2), 0.5)
    npt.assert_array_equal(out.values[:, 0], out0.column())
    npt.assert_array_equal(out.values[:, 1], out1.column())


def test_caputo_matrix_agrees_with_operator():
    # the matrix and the operator share the L1 kernel; small n exercises
    # the first rows and column 0, larger n the Toeplitz windows; the largest
    # gap is 1.5e-13 (n = 512, alpha = 0.9)
    for n in (2, 3, 17, 96, 512):
        g = Grid(0.0, 1.0, n)
        t = g.nodes()
        vals = np.sin(2.0 * t) + t**2
        for alpha in (0.1, 0.35, 0.5, 0.9, 1.0):
            m = caputo_left_matrix(g.n, g.h, alpha)
            direct = caputo_left(GridFunction(g, vals), alpha).column()
            npt.assert_allclose(m @ vals, direct, atol=1e-12)


# ------------------------------------------------------ Toeplitz apply


def direct_apply(scheme, values):
    """Reference for ToeplitzScheme.apply: one direct np.convolve per column."""
    n = len(scheme.kernel)
    out = scheme.first_column[:, None] * values[0]
    for j in range(values.shape[1]):
        out[1:, j] += np.convolve(scheme.kernel, values[1:, j])[:n]
    return scheme.scale * out


@pytest.mark.parametrize("n,dim", [(1, 1), (2, 1), (2, 3), (7, 1), (33, 2), (1000, 4), (65537, 1)])
def test_fft_apply_matches_direct_convolution(n, dim):
    # n = 65537 gives a full convolution of length 131073, padded to 3 * 2^16
    rng = np.random.default_rng(n)
    scheme = ToeplitzScheme(0.5, 1.7, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n + 1))
    values = rng.uniform(-1.0, 1.0, (n + 1, dim))
    ref = direct_apply(scheme, values)
    out = scheme.apply(values)
    assert out.shape == values.shape
    npt.assert_allclose(out, ref, rtol=0.0, atol=1e-13 * np.sqrt(n) * np.max(np.abs(ref)))
    if n <= 1000:
        npt.assert_allclose(scheme.dense() @ values, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def test_scheme_takes_the_kernel_spectrum_once(monkeypatch):
    # one rfft for the kernel, then one per product: 2 FFTs per apply or apply_T
    rng = np.random.default_rng(3)
    scheme = ToeplitzScheme(0.5, 1.7, rng.uniform(-1.0, 1.0, 64), rng.uniform(-1.0, 1.0, 65))
    values = rng.uniform(-1.0, 1.0, (65, 2))
    fresh = [ToeplitzScheme(0.5, 1.7, scheme.kernel, scheme.first_column) for _ in range(3)]
    refs = [fresh[0].apply(values), fresh[1].apply_T(values), fresh[2].apply(values)]
    rfft, calls = np.fft.rfft, []
    monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(a) or rfft(*a, **k))
    outs = [scheme.apply(values), scheme.apply_T(values), scheme.apply(values)]
    assert len(calls) == 4
    for out, ref in zip(outs, refs):
        npt.assert_array_equal(out, ref)


def test_fft_length_is_the_smaller_fast_size():
    assert [_fft_length(m) for m in (1, 2, 3, 4, 5, 7, 9, 13)] == [1, 2, 3, 4, 6, 8, 12, 16]
    assert _fft_length(131073) == 3 * 2**16
    assert _fft_length(131072) == 2**17
    assert _fft_length(196609) == 2**18


def test_scheme_rejects_non_finite_weights_and_scale():
    ones = np.ones(5)
    for kernel, column, scale in (
        (np.array([1.0, np.inf, 1.0, 1.0]), ones, 1.0),
        (ones[:4], np.array([0.0, np.nan, 1.0, 1.0, 1.0]), 1.0),
        (ones[:4], ones, np.inf),
        (ones[:4], ones, 0.0),
    ):
        with pytest.raises(NumericsError, match="order 2.5 at n = 4"):
            ToeplitzScheme(2.5, scale, kernel, column)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1025])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("dim", [1, 3])
def test_fft_transpose_matches_dense_transpose(n, alpha, dim):
    # the L1 scheme has a zero first column, the product trapezoid a full one
    y = np.random.default_rng(n + dim).uniform(-1.0, 1.0, (n + 1, dim))
    for scheme in (_l1_scheme(n, 1.0 / n, alpha), _product_trapezoid_scheme(n, 1.0 / n, alpha)):
        ref = scheme.dense().T @ y
        out = scheme.apply_T(y)
        assert out.shape == y.shape
        npt.assert_allclose(out, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def test_central_difference_pair_is_adjoint():
    rng = np.random.default_rng(21)
    pairs = (
        (central_difference, central_difference_T),
        (lambda x, h: cell_differences(x) / h, lambda y, h: cell_differences_T(y) / h),
    )
    for n in (2, 3, 17, 256):
        x, y = rng.standard_normal((2, n + 1, 2))
        h = 1.0 / n
        for apply, apply_T in pairs:
            lhs = np.sum(apply(x, h) * y)
            rhs = np.sum(x * apply_T(y, h))
            assert abs(lhs - rhs) <= 1e-13 * (np.sum(np.abs(x)) * np.sum(np.abs(y)) / h)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("n", [2, 3, 17, 96])
def test_caputo_operator_matches_the_dense_matrix(n, alpha):
    g = Grid(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    f, y = rng.standard_normal((2, n + 1, 2))
    op = caputo_left_operator(n, g.h, alpha)
    m = caputo_left_matrix(n, g.h, alpha)
    npt.assert_array_equal(op @ f, caputo_left(GridFunction(g, f), alpha).values)
    npt.assert_allclose(op.T @ y, m.T @ y, rtol=0.0, atol=1e-12 * np.max(np.abs(m.T @ y)))


def chan_circulant(toeplitz: np.ndarray) -> np.ndarray:
    """T. Chan's optimal circulant of a square Toeplitz matrix, from its
    entries t_k: first column c_k = ((n - k) t_k + k t_{k-n}) / n."""
    n = len(toeplitz)
    k = np.arange(n)
    before = np.concatenate(([0.0], toeplitz[0, :0:-1]))  # t_{k-n}, k >= 1
    column = ((n - k) * toeplitz[:, 0] + k * before) / n
    return np.stack([np.roll(column, j) for j in range(n)], axis=1)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 3, 17, 96])
def test_circulant_solver_inverts_t_chans_circulant_gram(n, alpha):
    # M = S Delta: column c of S sums M's columns right of c; its rows 1..n are Toeplitz
    h = 1.0 / n
    m = caputo_left_matrix(n, h, alpha)
    chan = chan_circulant(np.cumsum(m[:, :0:-1], axis=1)[:, ::-1][1:])
    op = caputo_left_operator(n, h, alpha)
    # the eigenvalues of C'C, read back from the solve with shift 0
    inverse = op.circulant_solver(0.0, 1.0)(np.eye(n))
    npt.assert_allclose(
        np.sort(1.0 / np.linalg.eigvalsh(0.5 * (inverse + inverse.T))),
        np.linalg.eigvalsh(chan.T @ chan),
        rtol=1e-10,
    )
    shift, weight = np.array([2.0, 0.0, 0.5]), np.array([0.0, 1.5, 0.7])
    y = np.random.default_rng(n).standard_normal((n, 3))
    out = op.circulant_solver(shift, weight)(y)
    for k in range(3):
        ref = np.linalg.solve(shift[k] * np.eye(n) + weight[k] * chan.T @ chan, y[:, k])
        npt.assert_allclose(out[:, k], ref, rtol=0.0, atol=1e-11 * np.max(np.abs(ref)))


def test_circulant_solver_needs_a_positive_definite_gram():
    op = caputo_left_operator(8, 0.125, 0.5)
    assert op.circulant_solver(np.array([0.0, 1.0]), np.array([0.0, 1.0])) is None
    assert op.circulant_solver(-1.0, 0.0) is None
    assert caputo_left_operator(8, 0.125, 1.0).circulant_solver is None
