"""Cross-checks between the primary schemes and the Grunwald-Letnikov backend.

The two discretizations share no weight code; agreement under refinement
catches kernel-weight mistakes in either one.
"""

import numpy as np
import numpy.testing as npt
import pytest

from fracvar.errors import NumericsError
from fracvar.fracops import (
    caputo_left,
    caputo_right,
    rl_derivative_left,
    rl_integral_left,
    rl_integral_right,
)
from fracvar.grid import Grid, GridFunction
from fracvar.grunwald import (
    _binomial_weights,
    _integral_weights,
    gl_caputo_left,
    gl_caputo_right,
    gl_rl_derivative_left,
    gl_rl_integral_left,
    gl_rl_integral_right,
)


def interior_gap(a, b, skip=2):
    return float(np.max(np.abs(a.values[skip:-skip] - b.values[skip:-skip])))


def window_gap(a, b, lo=0.2, hi=0.8):
    """Max gap on a fixed time window, away from any endpoint singularity."""
    t = a.grid.nodes()
    mask = (t >= lo) & (t <= hi)
    return float(np.max(np.abs(a.values[mask] - b.values[mask])))


def test_caputo_left_backends_converge_together():
    gaps = []
    for n in (64, 256, 1024):
        g = Grid(0.0, 1.0, n)
        f = GridFunction.from_callable(g, lambda t: np.sin(2.0 * t) + t**2)
        gaps.append(interior_gap(caputo_left(f, 0.5), gl_caputo_left(f, 0.5)))
    assert gaps[-1] < 0.02
    assert gaps[-1] < gaps[0] / 2.0


def test_caputo_right_backends_converge_together():
    gaps = []
    for n in (64, 256, 1024):
        g = Grid(0.0, 1.0, n)
        f = GridFunction.from_callable(g, lambda t: np.cos(t) * t)
        gaps.append(interior_gap(caputo_right(f, 0.4), gl_caputo_right(f, 0.4)))
    assert gaps[-1] < 0.02
    assert gaps[-1] < gaps[0] / 2.0


def test_rl_derivative_backends_converge_together():
    # compare on a fixed window: the derivative itself is singular at t = a
    gaps = []
    for n in (64, 256, 1024):
        g = Grid(0.0, 1.0, n)
        f = GridFunction.from_callable(g, lambda t: np.exp(-t))
        gaps.append(window_gap(rl_derivative_left(f, 0.5), gl_rl_derivative_left(f, 0.5)))
    assert gaps[-1] < 0.05
    assert gaps[-1] < gaps[0] / 2.0


def test_rl_integral_backends_converge_together():
    for maker, gl_maker in (
        (rl_integral_left, gl_rl_integral_left),
        (rl_integral_right, gl_rl_integral_right),
    ):
        gaps = []
        for n in (64, 256, 1024):
            g = Grid(0.0, 1.0, n)
            f = GridFunction.from_callable(g, lambda t: np.sin(3.0 * t))
            gaps.append(interior_gap(maker(f, 0.5), gl_maker(f, 0.5)))
        assert gaps[-1] < 0.01
        assert gaps[-1] < gaps[0] / 2.0


def test_gl_classical_limit_is_backward_difference():
    g = Grid(0.0, 1.0, 32)
    t = g.nodes()
    f = GridFunction(g, t**2)
    out = gl_rl_derivative_left(f, 1.0).column()
    backward = np.empty_like(t)
    backward[0] = t[0] ** 2 / g.h
    backward[1:] = (t[1:] ** 2 - t[:-1] ** 2) / g.h
    npt.assert_allclose(out, backward, atol=1e-12)


def test_weights_match_their_recurrences():
    n = 4096
    for alpha in (0.1, 0.5, 0.9, 1.0):
        w = [1.0]
        for j in range(1, n + 1):
            w.append(w[-1] * (1.0 - (alpha + 1.0) / j))
        npt.assert_array_equal(_binomial_weights(n, alpha), w)
    for beta in (0.3, 1.7, 6.5):
        v = [1.0]
        for j in range(1, n + 1):
            v.append(v[-1] * (beta + j - 1.0) / j)
        npt.assert_allclose(_integral_weights(n, beta), v, rtol=1e-13)


def test_overflowing_integral_order_fails_fast():
    f = GridFunction(Grid(0.0, 1.0, 1024), np.ones(1025))
    with pytest.raises(NumericsError, match="order 300.0 at n = 1024"):
        gl_rl_integral_left(f, 300.0)
