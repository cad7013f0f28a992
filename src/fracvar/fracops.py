"""Discretized fractional integrals and derivatives on uniform grids.

Left-sided operators are computed directly; right-sided ones reuse the left
code through the reflection t -> a + b - t, which maps one kernel onto the
other exactly (node i of the right operator is node n - i of the left
operator applied to the reversed samples).

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

from math import gamma

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .grid import (
    GridFunction,
    central_difference,
    central_difference_matrix,
    order_value,
    require_finite,
    require_same_grid,
    trapezoid,
)

__all__ = [
    "rl_integral_left",
    "rl_integral_right",
    "caputo_left",
    "caputo_right",
    "rl_derivative_left",
    "rl_derivative_right",
    "ibp_residual",
    "caputo_left_matrix",
]


def _derivative_order(order) -> float:
    alpha = order_value(order)
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"derivative order must lie in (0, 1], got {alpha}")
    return alpha


def _integral_order(order) -> float:
    beta = order_value(order)
    if not np.isfinite(beta) or beta <= 0.0:
        raise ValidationError(f"integral order must be > 0, got {beta}")
    return beta


def _l1_coeffs(n: int, alpha: float) -> np.ndarray:
    """b_k = k^(1-alpha) - (k-1)^(1-alpha) for k = 1..n."""
    k = np.arange(0, n + 1, dtype=float)
    powers = k ** (1.0 - alpha)
    return powers[1:] - powers[:-1]


def _product_trapezoid_coeffs(n: int, beta: float):
    """Interior convolution weights c_k and the j=0 column a0_i."""
    k = np.arange(0, n + 1, dtype=float)
    p = k ** (beta + 1.0)
    c = p[2:] - 2.0 * p[1:-1] + p[:-2]  # c_k for k = 1..n-1
    i = np.arange(0, n + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        a0 = (i - 1.0) ** (beta + 1.0) - i**beta * (i - beta - 1.0)
    a0[0] = 0.0
    if n >= 1:
        a0[1] = beta  # (i-1)^(beta+1) at i=1 is 0^..., fix explicitly
    return c, a0


def _convolve_columns(kernel: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column-wise full convolution; fixed summation order, deterministic."""
    out = np.empty((len(kernel) + cols.shape[0] - 1, cols.shape[1]))
    for j in range(cols.shape[1]):
        out[:, j] = np.convolve(cols[:, j], kernel)
    return out


def rl_integral_left(f: GridFunction, order) -> GridFunction:
    """Left Riemann-Liouville integral of order beta > 0.

    Node-wise approximation of
    ``(1/Gamma(beta)) * integral_a^t (t - theta)^(beta-1) f(theta) dtheta``
    with the singular kernel integrated exactly against piecewise-linear f.
    """
    beta = _integral_order(order)
    require_finite(f)
    n, h = f.grid.n, f.grid.h
    v = f.values
    scale = h**beta / gamma(beta + 2.0)
    c, a0 = _product_trapezoid_coeffs(n, beta)
    out = np.zeros_like(v)
    if n >= 2:
        inner = _convolve_columns(c, v[1:n])  # inner[i-2] pairs with node i
        out[2:] = inner[: n - 1]
    out[1:] += a0[1:, None] * v[0] + v[1:]
    out[1:] *= scale
    out[0] = 0.0
    return f.with_values(out)


def rl_integral_right(f: GridFunction, order) -> GridFunction:
    """Right Riemann-Liouville integral; reflection of the left one."""
    reflected = f.with_values(f.values[::-1])
    return f.with_values(rl_integral_left(reflected, order).values[::-1])


def caputo_left(f: GridFunction, order) -> GridFunction:
    """Left Caputo derivative, L1 scheme; central differences at alpha = 1."""
    alpha = _derivative_order(order)
    require_finite(f)
    n, h = f.grid.n, f.grid.h
    if alpha == 1.0:
        return f.with_values(central_difference(f.values, h))
    df = np.diff(f.values, axis=0)
    b = _l1_coeffs(n, alpha)
    conv = _convolve_columns(b, df)
    out = np.zeros_like(f.values)
    out[1:] = conv[:n] * (h**-alpha / gamma(2.0 - alpha))
    return f.with_values(out)


def caputo_right(f: GridFunction, order) -> GridFunction:
    """Right Caputo derivative; reflection of the left one (sign included)."""
    reflected = f.with_values(f.values[::-1])
    return f.with_values(caputo_left(reflected, order).values[::-1])


def _shift_term(f: GridFunction, alpha: float, left: bool) -> np.ndarray:
    """Constant-shift term of the RL/Caputo relation, NaN-flagged at its pole."""
    t = f.grid.nodes()
    dist = (t - f.grid.a) if left else (f.grid.b - t)
    endpoint = f.values[0] if left else f.values[-1]
    inv_gamma = 1.0 / gamma(1.0 - alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = dist**-alpha
        shift = endpoint[None, :] * radial[:, None] * inv_gamma
    pole = 0 if left else f.grid.n
    shift[pole] = np.where(endpoint == 0.0, 0.0, np.nan)
    return shift


def rl_derivative_left(f: GridFunction, order) -> GridFunction:
    """Left Riemann-Liouville derivative via the Caputo relation.

    Equals ``caputo_left(f) + f(a) (t-a)^(-alpha) / Gamma(1-alpha)``. The
    node at t = a is flagged NaN when f(a) != 0 (the value is genuinely
    singular there).
    """
    alpha = _derivative_order(order)
    base = caputo_left(f, alpha)
    if alpha == 1.0:
        return base
    return f.with_values(base.values + _shift_term(f, alpha, left=True))


def rl_derivative_right(f: GridFunction, order) -> GridFunction:
    """Right Riemann-Liouville derivative; singular node flagged at t = b."""
    alpha = _derivative_order(order)
    base = caputo_right(f, alpha)
    if alpha == 1.0:
        return base
    return f.with_values(base.values + _shift_term(f, alpha, left=False))


def ibp_residual(f: GridFunction, g: GridFunction, order) -> float:
    """Gap in the fractional integration-by-parts identity.

    Returns ``| int g . caputo_left(f) - int f . rl_derivative_right(g) |``
    by trapezoid quadrature. Requires f(a) = f(b) = 0 (the identity without
    boundary terms); the flagged node of the right derivative is skipped,
    where the exact integrand vanishes because f does.
    """
    alpha = _derivative_order(order)
    require_same_grid(f, g)
    if f.dim != g.dim:
        raise ValidationError(f"dimension mismatch: {f.dim} vs {g.dim}")
    require_finite(f)
    require_finite(g)
    scale = 1.0 + float(np.max(np.abs(f.values)))
    if max(np.max(np.abs(f.values[0])), np.max(np.abs(f.values[-1]))) > 1e-14 * scale:
        raise ValidationError("ibp_residual requires f to vanish at both endpoints")
    h = f.grid.h
    lhs = trapezoid(np.sum(g.values * caputo_left(f, alpha).values, axis=1), h)
    rhs_integrand = np.sum(f.values * rl_derivative_right(g, alpha).values, axis=1)
    rhs = trapezoid(rhs_integrand, h, skip_nonfinite=True)
    return abs(lhs - rhs)


def caputo_left_matrix(n: int, h: float, order) -> np.ndarray:
    """Dense matrix M with (caputo_left f)_i = sum_j M[i, j] f_j.

    Used by the solvers, whose gradients need the transpose; at alpha = 1
    this is the central-difference matrix.
    """
    alpha = _derivative_order(order)
    if alpha == 1.0:
        return central_difference_matrix(n, h)
    b = _l1_coeffs(n, alpha)  # b[k - 1] = b_k
    scale = h**-alpha / gamma(2.0 - alpha)
    # lower-triangular Toeplitz in c_0 = b_1, c_k = b_{k+1} - b_k: row i is
    # a window of the reversed coefficients; column 0 carries -b_i
    c = np.diff(b, prepend=0.0)
    padded = np.concatenate(([0.0], c[::-1], np.zeros(n)))
    m = np.multiply(scale, sliding_window_view(padded, n + 1)[::-1], order="C")
    m[1:, 0] = -scale * b
    m[0] = 0.0
    return m
