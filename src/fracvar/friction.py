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

    ``simulate_damped_eom`` calls ``potential_grad`` on Python floats; the
    Lagrangian and the diagnostics call ``potential`` and ``potential_grad``
    on arrays.
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

    The stages run on Python floats, so ``fp.potential_grad`` is called on a
    float and its result taken with ``float``; the diagnostics call it on
    arrays. Raises ``NumericsError`` at the first step whose state is
    non-finite or exceeds 1e12 in magnitude.
    """
    if steps < 16:
        raise ValidationError(f"steps must be >= 16, got {steps}")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValidationError(f"horizon must be positive, got {horizon}")
    grid = Grid(0.0, float(horizon), int(steps))
    dt = grid.h
    grad, gamma, mass = fp.potential_grad, float(fp.gamma), float(fp.mass)

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
            raise NumericsError(
                f"integration blew up at step {k + 1} (t = {(k + 1) * dt:.6g}); "
                "reduce the step size"
            )
        qs.append(q)
        vs.append(v)
    return GridFunction(grid, np.column_stack((qs, vs)))
