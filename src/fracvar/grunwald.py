"""Grunwald-Letnikov backend for the fractional operators.

An independent first-order discretization behind the same signatures as
:mod:`fracvar.fracops`. It shares no kernel-weight code with the primary
schemes, which is the point: the tests cross-check the two discretizations
against each other to catch weight bugs. Only the FFT apply of
:class:`fracvar.fracops.ToeplitzScheme` is shared, which the tests check
against a direct convolution, and the reflection
:func:`fracvar.fracops.reflected` that makes the right-sided operators. Not
used by the solvers.
"""

from __future__ import annotations

import numpy as np

from .fracops import ToeplitzScheme, derivative_order, integral_order, power_scale, reflected
from .grid import GridFunction, require_finite

__all__ = [
    "gl_rl_derivative_left",
    "gl_rl_derivative_right",
    "gl_caputo_left",
    "gl_caputo_right",
    "gl_rl_integral_left",
    "gl_rl_integral_right",
]


def _binomial_weights(n: int, alpha: float) -> np.ndarray:
    """w_j = (-1)^j C(alpha, j) via the stable recurrence, j = 0..n."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - (alpha + 1.0) / np.arange(1, n + 1))))


def _integral_weights(n: int, beta: float) -> np.ndarray:
    """v_j = C(beta + j - 1, j), the order -beta Grunwald weights."""
    j = np.arange(1, n + 1)
    with np.errstate(over="ignore"):
        return np.cumprod(np.concatenate(([1.0], (beta + j - 1.0) / j)))


def gl_rl_derivative_left(f: GridFunction, order) -> GridFunction:
    alpha = derivative_order(order)
    require_finite(f)
    n, h = f.grid.n, f.grid.h
    w = _binomial_weights(n, alpha)
    return f.with_values(ToeplitzScheme(alpha, power_scale(h, -alpha), w[:n], w).apply(f.values))


def gl_rl_derivative_right(f: GridFunction, order) -> GridFunction:
    return reflected(gl_rl_derivative_left, f, order)


def gl_caputo_left(f: GridFunction, order) -> GridFunction:
    shifted = f.with_values(f.values - f.values[0])
    return gl_rl_derivative_left(shifted, order)


def gl_caputo_right(f: GridFunction, order) -> GridFunction:
    shifted = f.with_values(f.values - f.values[-1])
    return gl_rl_derivative_right(shifted, order)


def gl_rl_integral_left(f: GridFunction, order) -> GridFunction:
    beta = integral_order(order)
    require_finite(f)
    n, h = f.grid.n, f.grid.h
    v = _integral_weights(n, beta)
    return f.with_values(ToeplitzScheme(beta, power_scale(h, beta), v[:n], v).apply(f.values))


def gl_rl_integral_right(f: GridFunction, order) -> GridFunction:
    return reflected(gl_rl_integral_left, f, order)
