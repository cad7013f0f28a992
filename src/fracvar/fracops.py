"""Discretized fractional integrals and derivatives on uniform grids.

Left-sided operators are computed directly; every right-sided one is the
left one under the reflection t -> a + b - t (:func:`reflected`), which maps
one kernel onto the other exactly (node i of the right operator is node
n - i of the left operator applied to the reversed samples).

Every left-sided scheme is one :class:`ToeplitzScheme` (kernel, first
column, scale), applied and transposed through one zero-padded real FFT in
O(n log n). Outputs differ from a direct convolution at round-off level;
repeated runs are bit-identical. The left Caputo derivative has one
representation, the :class:`MatrixFree` operator of
:func:`caputo_left_operator`: :func:`caputo_left` applies it, the
variational solver takes it as is (its ``circulant_solver``, T. Chan's
circulant of the L1 matrix, gives that solver's preconditioner), and
:func:`caputo_left_matrix`, which the control solver uses, expands the same
scheme densely.

Schemes
-------
* Riemann-Liouville integrals: product-trapezoidal quadrature — the kernel
  (t - theta)^(beta-1) is integrated exactly against the piecewise-linear
  interpolant of the samples.
* Caputo derivatives: L1 scheme — exact kernel moments against a piecewise-
  constant derivative. Order 2 - alpha for smooth data.
* Riemann-Liouville derivatives: Caputo value plus the constant-shift term
  f(a) (t-a)^(-alpha) / Gamma(1-alpha). Where that term is singular the node
  is flagged with NaN rather than given a fabricated value; quadratures that
  consume such output skip flagged nodes explicitly.

At ``alpha == 1`` every derivative reduces to the second-order difference
derivative (one-sided at the ends), matching the classical limit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gamma, inf
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericsError, ValidationError
from .grid import (
    GridFunction,
    cell_differences,
    cell_differences_T,
    central_difference,
    central_difference_T,
    require_close,
    require_finite,
    require_on,
    trapezoid,
)

__all__ = [
    "rl_integral_left",
    "rl_integral_right",
    "caputo_left",
    "caputo_right",
    "rl_derivative_left",
    "rl_derivative_right",
    "reflected",
    "ibp_residual",
    "caputo_left_matrix",
    "caputo_left_operator",
    "MatrixFree",
    "ToeplitzScheme",
]


def derivative_order(order, what: str = "derivative") -> float:
    alpha = float(order)
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"{what} order must lie in (0, 1], got {alpha}")
    return alpha


def integral_order(order) -> float:
    beta = float(order)
    if not np.isfinite(beta) or beta <= 0.0:
        raise ValidationError(f"integral order must be > 0, got {beta}")
    return beta


def power_scale(h: float, power: float, gamma_arg: float = 1.0) -> float:
    """h^power / Gamma(gamma_arg); inf where either overflows, which ToeplitzScheme rejects."""
    try:
        return h**power / gamma(gamma_arg)
    except OverflowError:
        return inf


def _fft_length(m: int) -> int:
    """Smallest of 2^k and 3 * 2^(k-2) that is >= m; both are fast rfft sizes."""
    p = 1 << (m - 1).bit_length()
    return 3 * p // 4 if 3 * p // 4 >= m else p


@dataclass(frozen=True, eq=False)
class ToeplitzScheme:
    """(M f)_i = scale * (first_column[i] f_0 + sum_{j=1}^{i} kernel[i-j] f_j), i = 0..n.

    ``kernel`` has n entries and ``first_column`` n + 1. Weights or a scale
    outside double-precision range raise ``NumericsError`` naming the order.
    The kernel's spectrum is computed on first use and kept with the scheme.
    """

    order: float
    scale: float
    kernel: np.ndarray
    first_column: np.ndarray

    def __post_init__(self):
        weights = np.concatenate((self.kernel, self.first_column))
        if not (np.isfinite(weights).all() and np.finfo(float).tiny <= self.scale < inf):
            n = len(self.kernel)
            raise NumericsError(f"order {self.order} at n = {n} leaves double-precision range")

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """rfft of the kernel at the padded length of :meth:`apply`, as a column."""
        n = len(self.kernel)
        return np.fft.rfft(self.kernel, _fft_length(2 * n - 1))[:, None]

    def apply(self, values: np.ndarray) -> np.ndarray:
        """M @ values, column by column, through one zero-padded rfft/irfft."""
        n = len(self.kernel)
        nfft = _fft_length(2 * n - 1)
        spectrum = np.fft.rfft(values[1:], nfft, axis=0)
        spectrum *= self._spectrum
        out = self.first_column[:, None] * values[0]
        out[1:] += np.fft.irfft(spectrum, nfft, axis=0)[:n]
        out *= self.scale
        return out

    def apply_T(self, values: np.ndarray) -> np.ndarray:
        """M.T @ values, column by column: the kernel's correlation with
        values[1:], one zero-padded rfft/irfft of the reversed samples."""
        n = len(self.kernel)
        nfft = _fft_length(2 * n - 1)
        spectrum = np.fft.rfft(values[:0:-1], nfft, axis=0)
        spectrum *= self._spectrum
        out = np.empty(values.shape)
        out[0] = self.first_column @ values
        out[1:] = np.fft.irfft(spectrum, nfft, axis=0)[n - 1 :: -1]
        out *= self.scale
        return out

    def dense(self) -> np.ndarray:
        """M as an (n+1, n+1) array; row i is a window of the reversed kernel."""
        n = len(self.kernel)
        padded = np.concatenate(([0.0], self.kernel[::-1], np.zeros(n)))
        m = np.multiply(self.scale, sliding_window_view(padded, n + 1)[::-1], order="C")
        m[:, 0] = self.scale * self.first_column
        return m


def _l1_scheme(n: int, h: float, alpha: float) -> ToeplitzScheme:
    """L1 weights b_k = k^(1-alpha) - (k-1)^(1-alpha), k = 1..n.

    The scheme acts on the differences (0, f_1 - f_0, ..., f_n - f_{n-1}),
    so its column 0 is zero and constants map to exact zeros.
    """
    powers = np.arange(0, n + 1, dtype=float) ** (1.0 - alpha)
    return ToeplitzScheme(alpha, power_scale(h, -alpha, 2.0 - alpha), np.diff(powers), np.zeros(n + 1))


def _product_trapezoid_scheme(n: int, h: float, beta: float) -> ToeplitzScheme:
    """Kernel 1, c_1..c_{n-1}; c_k is a second difference of k^(beta+1)."""
    k = np.arange(0, n + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        p = k ** (beta + 1.0)
        kernel = np.concatenate(([1.0], p[2:] - 2.0 * p[1:-1] + p[:-2]))
        a0 = np.concatenate(([0.0], p[:-1] - k[1:] ** beta * (k[1:] - beta - 1.0)))  # p[k-1] = (k-1)^(beta+1)
    a0[1] = beta  # (k-1)^(beta+1) at k=1 is 0^..., fix explicitly
    return ToeplitzScheme(beta, power_scale(h, beta, beta + 2.0), kernel, a0)


def rl_integral_left(f: GridFunction, order) -> GridFunction:
    """Left Riemann-Liouville integral of order beta > 0.

    Node-wise approximation of
    ``(1/Gamma(beta)) * integral_a^t (t - theta)^(beta-1) f(theta) dtheta``
    with the singular kernel integrated exactly against piecewise-linear f.
    Raises ``NumericsError`` when beta overflows the weights at this n.
    """
    beta = integral_order(order)
    require_finite(f)
    scheme = _product_trapezoid_scheme(f.grid.n, f.grid.h, beta)
    return f.with_values(scheme.apply(f.values))


def reflected(left: Callable, f: GridFunction, order) -> GridFunction:
    """The right-sided counterpart of the left operator ``left(f, order)``:
    node i is node n - i of ``left`` applied to the reversed samples."""
    return f.with_values(left(f.with_values(f.values[::-1]), order).values[::-1])


def rl_integral_right(f: GridFunction, order) -> GridFunction:
    """Right Riemann-Liouville integral; reflection of the left one."""
    return reflected(rl_integral_left, f, order)


def caputo_left(f: GridFunction, order) -> GridFunction:
    """Left Caputo derivative, L1 scheme; central differences at alpha = 1."""
    alpha = derivative_order(order)
    require_finite(f)
    return f.with_values(caputo_left_operator(f.grid.n, f.grid.h, alpha) @ f.values)


def caputo_right(f: GridFunction, order) -> GridFunction:
    """Right Caputo derivative; reflection of the left one (sign included)."""
    return reflected(caputo_left, f, order)


def _shift_term(f: GridFunction, alpha: float) -> np.ndarray:
    """Constant-shift term of the RL/Caputo relation, NaN-flagged at its pole t = a."""
    endpoint = f.values[0]
    inv_gamma = 1.0 / gamma(1.0 - alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = (f.grid.nodes() - f.grid.a) ** -alpha
        shift = endpoint[None, :] * radial[:, None] * inv_gamma
    shift[0] = np.where(endpoint == 0.0, 0.0, np.nan)
    return shift


def rl_derivative_left(f: GridFunction, order) -> GridFunction:
    """Left Riemann-Liouville derivative via the Caputo relation.

    Equals ``caputo_left(f) + f(a) (t-a)^(-alpha) / Gamma(1-alpha)``. The
    node at t = a is flagged NaN when f(a) != 0 (the value is genuinely
    singular there).
    """
    alpha = derivative_order(order)
    base = caputo_left(f, alpha)
    if alpha == 1.0:
        return base
    return f.with_values(base.values + _shift_term(f, alpha))


def rl_derivative_right(f: GridFunction, order) -> GridFunction:
    """Right Riemann-Liouville derivative; singular node flagged at t = b."""
    return reflected(rl_derivative_left, f, order)


def ibp_residual(f: GridFunction, g: GridFunction, order) -> float:
    """Gap in the fractional integration-by-parts identity.

    Returns ``| int g . caputo_left(f) - int f . rl_derivative_right(g) |``
    by trapezoid quadrature. Requires f(a) = f(b) = 0 (the identity without
    boundary terms); the flagged node of the right derivative counts as 0,
    where the exact integrand vanishes because f does.
    """
    alpha = derivative_order(order)
    require_on(g, f.grid, f.dim, "g")
    require_finite(f, "f")
    tol = 1e-14 * (1.0 + float(np.max(np.abs(f.values))))
    require_close(f.values[[0, -1]], 0, tol, "ibp_residual requires f to vanish at both endpoints")
    h = f.grid.h
    lhs = trapezoid(np.sum(g.values * caputo_left(f, alpha).values, axis=1), h)
    rhs_integrand = np.sum(f.values * rl_derivative_right(g, alpha).values, axis=1)
    rhs = trapezoid(np.where(np.isfinite(rhs_integrand), rhs_integrand, 0.0), h)
    return abs(lhs - rhs)


def caputo_left_matrix(n: int, h: float, order) -> np.ndarray:
    """Dense matrix M with (caputo_left f)_i = sum_j M[i, j] f_j: the L1
    scheme's dense form composed with the cell differences, and the
    central-difference matrix at alpha = 1. Used by the control solver,
    whose Hessian is dense.
    """
    alpha = derivative_order(order)
    if alpha == 1.0:
        return central_difference(np.eye(n + 1), h)
    m = _l1_scheme(n, h, alpha).dense()
    m[:, :-1] -= m[:, 1:]  # composed with the cell differences: column j is L1_j - L1_{j+1}
    return m


@dataclass(frozen=True)
class MatrixFree:
    """A node operator M known by its products: ``M @ f`` and ``M.T @ g``.

    For an M that annihilates constants, M = S Delta with Delta the cell
    differences (f_1 - f_0, ..., f_n - f_{n-1}), rows 1..n of
    :func:`~fracvar.grid.cell_differences`, and S an (n+1, n) map of cell
    values to nodes. Where rows 1..n of S form a Toeplitz matrix,
    ``circulant_solver(shift, weight)`` returns ``y -> (shift I + weight
    C' C)^-1 y`` for (n, columns) cell values, column by column (``shift``
    and ``weight`` of shape (columns,)), with C T. Chan's optimal circulant
    of those rows; it returns None where that matrix is not positive
    definite.
    """

    apply: Callable
    apply_T: Callable
    circulant_solver: Optional[Callable] = None

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return self.apply(values)

    @property
    def T(self) -> "MatrixFree":
        return MatrixFree(self.apply_T, self.apply)


def caputo_left_operator(n: int, h: float, order) -> MatrixFree:
    """The left Caputo derivative of (n+1, columns) node values as a
    :class:`MatrixFree` operator: the L1 scheme by FFT, and the central
    difference at alpha = 1, which has no ``circulant_solver``."""
    alpha = derivative_order(order)
    if alpha == 1.0:
        return MatrixFree(lambda f: central_difference(f, h), lambda g: central_difference_T(g, h))
    l1 = _l1_scheme(n, h, alpha)

    @cache
    def chan_squares():
        # rows 1..n of S are lower-triangular Toeplitz with first column
        # scale * b_{k+1}; T. Chan's circulant has (1 - k/n) scale b_{k+1},
        # and C' C has the squared moduli of its rfft as eigenvalues
        column = (1.0 - np.arange(n) / n) * l1.kernel
        return (l1.scale * np.abs(np.fft.rfft(column)))[:, None] ** 2

    def circulant_solver(shift, weight):
        eigenvalues = shift + weight * chan_squares()
        if not (np.isfinite(eigenvalues).all() and (eigenvalues > 0.0).all()):
            return None
        return lambda y: np.fft.irfft(np.fft.rfft(y, axis=0) / eigenvalues, n, axis=0)

    return MatrixFree(
        lambda f: l1.apply(cell_differences(f)),
        lambda g: cell_differences_T(l1.apply_T(g)),
        circulant_solver,
    )

