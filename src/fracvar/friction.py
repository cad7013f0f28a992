"""Linear-friction worked example: quadratic dissipation Lagrangian.

The model couples kinetic and potential energy with a half-order dissipation
term,

    L = m qdot^2 / 2 - U(q) + (gamma / 2) (D_C^(1/2) q)^2 ,

on a window [a, b]. Its stationarity condition is the damped oscillator with
a composed half-derivative force term; in the window-shrink limit (b -> a,
evaluated mid-window) the half-derivative term reduces to linear drag and
the classical damped equation m qdd + gamma qdot = F(q) emerges. This module
provides the Lagrangian, the momentum/Hamiltonian diagnostics, the shrink
study, and a classical integrator for the limiting equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericsError, ValidationError
from .grid import Grid, GridFunction
from .lagrangian import LagrangianSpec
from .variational import VariationalProblem, along

#: dissipation order of the model; the quadratic friction term is built on it
FRICTION_ORDER = 0.5


@dataclass
class FrictionProblem:
    """Particle of mass m with drag coefficient gamma in potential U.

    ``simulate_damped_eom`` calls ``potential_grad`` on Python floats, or
    not at all when it carries affine Horner ``coefficients``; the Lagrangian
    and the diagnostics call ``potential`` and ``potential_grad`` on arrays.
    """

    mass: float
    gamma: float
    potential: Callable[[np.ndarray], np.ndarray]
    potential_grad: Callable[[np.ndarray], np.ndarray]
    window: Grid

    def __post_init__(self):
        if not (np.isfinite(self.mass) and self.mass > 0.0):
            raise ValidationError(f"mass must be positive, got {self.mass}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValidationError(f"friction coefficient must be >= 0, got {self.gamma}")
        probes = np.linspace(-1.0, 1.0, 7)
        if not np.isfinite(np.asarray(self.potential(probes), dtype=float)).all():
            raise ValidationError("potential is not finite on probe points")


@dataclass
class FrictionDiagnostics:
    """Momenta and Hamiltonian along a trajectory on the problem window."""

    momentum: GridFunction  # dL/dv = m qdot
    half_momentum: GridFunction  # dL/dw = gamma D_C^(1/2) q
    hamiltonian: GridFunction


def friction_lagrangian(fp: FrictionProblem) -> LagrangianSpec:
    """LagrangianSpec for the model; the dissipation order is 1/2."""

    def evaluate(t, q, v, w):
        u = np.asarray(fp.potential(q[:, 0]), dtype=float)
        return 0.5 * fp.mass * v[:, 0] ** 2 - u + 0.5 * fp.gamma * w[:, 0] ** 2

    return LagrangianSpec(
        dim=1,
        evaluate=evaluate,
        dq=lambda t, q, v, w: -np.asarray(fp.potential_grad(q[:, 0]), dtype=float)[:, None],
        dv=lambda t, q, v, w: fp.mass * v,
        dw=lambda t, q, v, w: fp.gamma * w,
        autonomous=True,
        name="friction",
    )


def friction_variational_problem(fp: FrictionProblem, q_a: float, q_b: float) -> VariationalProblem:
    """The window's variational problem at the model's half order."""
    return VariationalProblem(friction_lagrangian(fp), fp.window, FRICTION_ORDER, ([q_a], [q_b]))


def friction_diagnostics(fp: FrictionProblem, q: GridFunction) -> FrictionDiagnostics:
    """Momenta and H = qdot dL/dv + w dL/dw - L (= m qdot^2/2 + U + (gamma/2) w^2),
    read from :func:`variational.along` at the model's half order."""
    if q.grid != fp.window:
        raise ValidationError("trajectory does not live on the problem window")
    if q.dim != 1:
        raise ValidationError("friction diagnostics expect a scalar trajectory")
    f = along(friction_lagrangian(fp), q.grid, FRICTION_ORDER, q.values)
    ham = (f.v * f.dv + f.w * f.dw)[:, 0] - f.L
    return FrictionDiagnostics(
        momentum=GridFunction(q.grid, f.dv),
        half_momentum=GridFunction(q.grid, f.dw),
        hamiltonian=GridFunction(q.grid, ham),
    )


def window_shrink_study(
    fp: FrictionProblem, q_global: Callable[[np.ndarray], np.ndarray], windows: Sequence[Grid]
) -> dict:
    """Friction-energy term at the window midpoint versus the first-order law.

    For each window: Delta t, (gamma/2)(D_C^(1/2) q)^2 at the midpoint, the
    first-order approximation (2/pi) gamma qdot^2 Delta t, their ratio, and
    the half-momentum at the midpoint, all read from :func:`variational.along`.
    The ratio column is reported, not asserted: evaluating the half-derivative
    mid-window gives half the first-order constant obtained at the window
    end, so the constant depends on the evaluation point. Windows must shrink
    around a common midpoint.
    """
    if len(windows) < 2:
        raise ValidationError("shrink study needs at least two windows")
    mids = [0.5 * (w.a + w.b) for w in windows]
    spans = [w.b - w.a for w in windows]
    if np.max(np.abs(np.diff(mids))) > 1e-12 * (1.0 + abs(mids[0])):
        raise ValidationError("windows are not nested around a common midpoint")
    if not all(spans[i] > spans[i + 1] for i in range(len(spans) - 1)):
        raise ValidationError("windows must strictly shrink")
    delta_t = np.array(spans)
    energy = np.empty(len(windows))
    first_order = np.empty(len(windows))
    half_momentum = np.empty(len(windows))
    lagrangian = friction_lagrangian(fp)
    for k, win in enumerate(windows):
        if win.n % 2 != 0:
            raise ValidationError("window grids need an even interval count (midpoint node)")
        q = GridFunction.from_callable(win, q_global)
        f = along(lagrangian, win, FRICTION_ORDER, q.values)
        mid = win.n // 2
        energy[k] = 0.5 * fp.gamma * f.w[mid, 0] ** 2
        first_order[k] = (2.0 / np.pi) * fp.gamma * f.v[mid, 0] ** 2 * delta_t[k]
        half_momentum[k] = f.dw[mid, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(first_order != 0.0, energy / first_order, np.nan)
    return {
        "delta_t": delta_t,
        "friction_energy": energy,
        "first_order": first_order,
        "ratio": ratio,
        "half_momentum_mid": half_momentum,
    }


def simulate_damped_eom(
    fp: FrictionProblem, q0: float, v0: float, horizon: float, steps: int
) -> GridFunction:
    """Integrate m qdd + gamma qdot = F(q) with classical RK4.

    This is the window-shrink limit of the stationarity condition, an
    ordinary ODE; the fractional content lives in the window diagnostics.
    Returns columns (q, qdot) on a fresh grid over [0, horizon].

    Two paths run the same scheme. A ``potential_grad`` from
    ``lagrangian.polynomial_potential`` with at most 2 Horner ``coefficients``
    is an affine force: one step is then a fixed matrix on (q, qdot, 1), the
    trajectory is filled by repeated squaring without calling the force, and
    its error stays at the rounding floor (~1e-15) where the loop's grows
    with the step count. Any other force runs scalar stages on Python floats,
    calling ``potential_grad`` on a float and taking ``float`` of the result.
    Raises ``NumericsError`` at the first step whose state is non-finite or
    exceeds 1e12 in magnitude.
    """
    if steps < 16:
        raise ValidationError(f"steps must be >= 16, got {steps}")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValidationError(f"horizon must be positive, got {horizon}")
    grid = Grid(0.0, float(horizon), int(steps))
    dt = grid.h
    grad, gamma, mass = fp.potential_grad, float(fp.gamma), float(fp.mass)
    coefficients = getattr(grad, "coefficients", None)
    if coefficients is not None and len(coefficients) <= 2:
        slope, offset = (0.0, 0.0, *coefficients)[-2:]
        return GridFunction(grid, _affine_rk4(slope, offset, gamma, mass, q0, v0, dt, grid.n))

    # scalar stages, in the operation order of the vector form y + c * k
    q, v = float(q0), float(v0)
    qs, vs = [q], [v]
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(steps):
        a1 = (-float(grad(q)) - gamma * v) / mass
        q2, v2 = q + half * v, v + half * a1
        a2 = (-float(grad(q2)) - gamma * v2) / mass
        q3, v3 = q + half * v2, v + half * a2
        a3 = (-float(grad(q3)) - gamma * v3) / mass
        q4, v4 = q + dt * v3, v + dt * a3
        a4 = (-float(grad(q4)) - gamma * v4) / mass
        q += sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v += sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        if not (math.isfinite(q) and math.isfinite(v)) or abs(q) > 1e12:
            raise _blowup(k + 1, dt)
        qs.append(q)
        vs.append(v)
    return GridFunction(grid, np.column_stack((qs, vs)))


def _affine_rk4(slope, offset, gamma, mass, q0, v0, dt, steps) -> np.ndarray:
    """RK4 states (q, qdot) for U'(q) = slope q + offset, steps + 1 rows.

    On y = (q, qdot, 1) the ODE is y' = (A/dt) y, and one RK4 step is its
    stability polynomial I + E with E = A + A^2/2 + A^3/6 + A^4/24. E is kept
    apart from I, so its small entries keep full precision: rows d..2d-1 are
    rows 0..d-1 plus their product with E = R^d - I, and E then becomes
    (I + E)^2 - I = 2E + E^2. Forming I + E and squaring it instead would
    let the rounding of I + E compound linearly in the step count.
    """
    rates = [[0.0, 1.0, 0.0], [-slope / mass, -gamma / mass, -offset / mass], [0.0, 0.0, 0.0]]
    a = dt * np.array(rates)
    eye = np.eye(3)
    e = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
    y = np.empty((steps + 1, 3))
    y[0] = (q0, v0, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        done = 1
        while done <= steps:
            k = min(done, steps + 1 - done)
            y[done : done + k] = y[:k] + y[:k] @ e.T
            e = 2.0 * e + e @ e
            done += k
        q, v = y[1:, 0], y[1:, 1]
        bad = ~(np.isfinite(q) & np.isfinite(v)) | (np.abs(q) > 1e12)
    if bad.any():
        raise _blowup(int(np.argmax(bad)) + 1, dt)
    return y[:, :2]


def _blowup(step: int, dt: float) -> NumericsError:
    return NumericsError(
        f"integration blew up at step {step} (t = {step * dt:.6g}); reduce the step size"
    )
