"""Variational problems coupling classical and Caputo velocities.

A problem is the functional ``I[q] = int_a^b L(t, q, dq/dt, D^alpha q) dt``
with both endpoint values of q prescribed. This module evaluates the action,
its directional (Frechet) differential, the Euler-Lagrange residual

    dL/dq - d/dt dL/dv + D_right^alpha dL/dw ,

and solves for extremals by direct transcription: the trajectory nodes are
the decision variables and the discretized action is minimized by Newton's
method on its assembled Hessian, with an analytic gradient certifying
convergence.

The solver's internal discretization is the action of the piecewise-linear
interpolant (per-cell trapezoid in t with the cell slope as velocity). The
node-based central-difference velocity paired with nodal trapezoid weights
is *not* variationally consistent - with that pairing even the free particle
has a non-zero discrete gradient at the straight line - while the
interpolant action is, and is second-order accurate. Every diagnostic here
and in ``noether``, ``optctrl`` and ``scenarios`` keeps the node-based
convention by reading one record, :func:`along`: t, q, v, w, and L with its
partials, checked finite node by node.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NumericsError, ValidationError
from .fracops import caputo_left, caputo_left_matrix, derivative_order, rl_derivative_right
from .grid import (
    Grid,
    GridFunction,
    central_difference,
    require_finite,
    trapezoid,
    write_csv,
)
from .lagrangian import LagrangianSpec, fd_partial
from .minimize import MAX_ITER, MAX_UNKNOWNS, PointwiseSum, bfgs_minimize


class VariationalProblem:
    """Functional definition: Lagrangian, grid, fractional order, boundary data."""

    def __init__(self, lagrangian: LagrangianSpec, grid: Grid, alpha, boundary):
        self.lagrangian = lagrangian
        self.grid = grid
        self.alpha = derivative_order(alpha, "problem")
        q_a, q_b = boundary
        self.q_a = np.atleast_1d(np.asarray(q_a, dtype=float))
        self.q_b = np.atleast_1d(np.asarray(q_b, dtype=float))
        if self.q_a.shape != (lagrangian.dim,) or self.q_b.shape != (lagrangian.dim,):
            raise ValidationError(
                f"boundary vectors must have dimension {lagrangian.dim}, "
                f"got {self.q_a.shape} and {self.q_b.shape}"
            )
        if not (np.isfinite(self.q_a).all() and np.isfinite(self.q_b).all()):
            raise ValidationError(f"boundary values must be finite, got {self.q_a} and {self.q_b}")

    @property
    def dim(self) -> int:
        return self.lagrangian.dim

    def along(self, q: GridFunction) -> TrajectoryFields:
        """:func:`along` for a checked trajectory ``q`` on the problem grid."""
        self.check_trajectory(q, boundary=False)
        return along(self.lagrangian, self.grid, self.alpha, q.values)

    def check_trajectory(self, q: GridFunction, boundary: bool) -> None:
        """Raise unless ``q`` is a finite trajectory on the problem grid
        (that meets the boundary values, with ``boundary``)."""
        if q.grid != self.grid:
            raise GridMismatchError("trajectory grid does not match the problem grid")
        if q.dim != self.dim:
            raise GridMismatchError(
                f"trajectory dimension {q.dim} does not match problem dimension {self.dim}"
            )
        require_finite(q, "trajectory")
        if boundary:
            scale = 1.0 + float(np.max(np.abs(q.values)))
            if (
                np.max(np.abs(q.values[0] - self.q_a)) > 1e-12 * scale
                or np.max(np.abs(q.values[-1] - self.q_b)) > 1e-12 * scale
            ):
                raise ValidationError("trajectory does not satisfy the boundary values")


#: node values along a trajectory: t, q, v = dq/dt, w = D_C^alpha q, and L with
#: its partials in q, v and w; each of shape (n+1,) or (n+1, dim)
TrajectoryFields = namedtuple("TrajectoryFields", "t q v w L dq dv dw")


def along(lagrangian: LagrangianSpec, grid: Grid, alpha, q_values) -> TrajectoryFields:
    """The fields every variational diagnostic reads, with the node-based
    conventions; ``NumericsError`` names the first node where one is non-finite."""
    q = GridFunction(grid, q_values)
    t = grid.nodes()
    v = central_difference(q.values, grid.h)
    w = caputo_left(q, alpha).values
    values = [v, w] + [
        np.asarray(f(t, q.values, v, w), dtype=float)
        for f in (lagrangian.evaluate, lagrangian.dq, lagrangian.dv, lagrangian.dw)
    ]
    bad = np.stack([~np.isfinite(x.reshape(len(t), -1)).all(axis=1) for x in values])
    if bad.any():
        node = int(np.argmax(bad.any(axis=0)))
        names = ("v", "w", "L", "dL/dq", "dL/dv", "dL/dw")
        which = ", ".join(name for name, b in zip(names, bad[:, node]) if b)
        raise NumericsError(
            f"non-finite {which} along the trajectory at node {node} (t = {t[node]:.6g})"
        )
    return TrajectoryFields(t, q.values, *values)


@dataclass
class ExtremalSolution:
    """Solver output: trajectory plus diagnostics."""

    trajectory: GridFunction
    velocity: GridFunction
    caputo_velocity: GridFunction
    residual: GridFunction
    action: float
    el_residual_norm: float
    gradient_norm: float
    iterations: int

    def to_csv(self, path) -> None:
        """Columns t, q*, qdot*, caputo_q*, el_residual (per component)."""
        d = self.trajectory.dim
        names = ["t"]
        for stem in ("q", "qdot", "caputo_q", "el_residual"):
            names += [f"{stem}{j}" for j in range(d)]
        blocks = (self.trajectory, self.velocity, self.caputo_velocity, self.residual)
        write_csv(path, names, [self.trajectory.grid.nodes()] + [f.values for f in blocks])


def action_value(problem: VariationalProblem, q: GridFunction) -> float:
    """Trapezoid quadrature of L(t, q, dq/dt, D^alpha q) over the grid."""
    problem.check_trajectory(q, boundary=True)
    return trapezoid(problem.along(q).L, problem.grid.h)


def frechet_differential(
    problem: VariationalProblem, q: GridFunction, h: GridFunction
) -> float:
    """Directional differential: int [dL/dq . h + dL/dv . h' + dL/dw . D^alpha h]."""
    f = problem.along(q)
    if h.grid != problem.grid or h.dim != problem.dim:
        raise GridMismatchError("variation does not live on the problem grid")
    require_finite(h, "variation")
    scale = 1.0 + float(np.max(np.abs(h.values)))
    if max(np.max(np.abs(h.values[0])), np.max(np.abs(h.values[-1]))) > 1e-12 * scale:
        raise ValidationError("admissible variations must vanish at both endpoints")
    hdot = central_difference(h.values, problem.grid.h)
    hcap = caputo_left(h, problem.alpha).values
    integrand = np.sum(f.dq * h.values + f.dv * hdot + f.dw * hcap, axis=1)
    return trapezoid(integrand, problem.grid.h)


def el_residual(problem: VariationalProblem, q: GridFunction) -> GridFunction:
    """Node-wise Euler-Lagrange residual; endpoint nodes are zero by convention."""
    f = problem.along(q)
    ddt_dv = central_difference(f.dv, problem.grid.h)
    rl_term = rl_derivative_right(GridFunction(problem.grid, f.dw), problem.alpha).values
    residual = f.dq - ddt_dv + rl_term
    residual[0] = 0.0
    residual[-1] = 0.0
    return GridFunction(problem.grid, residual)


def el_residual_norm(problem: VariationalProblem, q: GridFunction) -> float:
    res = el_residual(problem, q).values
    return float(np.max(np.abs(res[1:-1]))) if problem.grid.n >= 2 else 0.0


# ------------------------------------------------------------- the solver


def solve_extremal(
    problem: VariationalProblem, tol: float = 1e-8, max_iter: int = MAX_ITER
) -> ExtremalSolution:
    """Minimize the discretized action over interior nodes (endpoints fixed).

    The interpolant action is a :class:`~fracvar.minimize.PointwiseSum`
    over the node value, the cell slope and the node's row of the L1 Caputo
    matrix, at both ends of every cell. Newton steps start from the linear
    interpolant of the boundary values; their second partials are central
    differences of the analytic first partials. A gradient max-norm not
    below ``tol`` raises ``ConvergenceError`` carrying the final norm. More
    than ``MAX_UNKNOWNS`` interior values raise ``ValidationError`` before
    anything is allocated.
    """
    grid, d, lag = problem.grid, problem.dim, problem.lagrangian
    m = (grid.n - 1) * d  # unknowns; the endpoint values are fixed
    if m > MAX_UNKNOWNS:
        raise ValidationError(f"solver supports up to {MAX_UNKNOWNS} unknowns, got {m}")
    n, h, t = grid.n, grid.h, grid.nodes()
    cell = np.tile(np.arange(n), 2)  # the left ends of all cells, then the right ends
    node, columns = cell + np.repeat([0, 1], n), np.arange(d)
    action = PointwiseSum(
        (n + 1, d),
        [
            (columns, [(None, node, 1.0)]),
            (columns, [(None, cell + 1, 1.0 / h), (None, cell, -1.0 / h)]),
            (columns, [(caputo_left_matrix(n, h, problem.alpha), node, 1.0)]),
        ],
    )
    partials = (lag.dq, lag.dv, lag.dw)

    def assemble(x):
        return np.vstack((problem.q_a, x.reshape(n - 1, d), problem.q_b))

    def args(x):
        return (t[node], *action.args(assemble(x)))

    def fun(x):
        return 0.5 * h * float(np.sum(np.asarray(lag.evaluate(*args(x)), dtype=float)))

    def grad(x):
        a = args(x)
        g = action.gradient([0.5 * h * np.asarray(f(*a), dtype=float) for f in partials])
        return g[1:-1].ravel()

    def hess(x):
        a = args(x)
        pairs = [(s, r) for s in range(3) for r in range(s, 3)]
        blocks = {(s, r): 0.5 * h * fd_partial(partials[s], a, 1 + r) for s, r in pairs}
        return action.hessian(blocks)[d:-d, d:-d]

    frac = ((t - grid.a) / (grid.b - grid.a))[:, None]
    straight = (1.0 - frac) * problem.q_a[None, :] + frac * problem.q_b[None, :]
    result = bfgs_minimize(fun, grad, straight[1:-1].ravel(), hess, tol=tol, max_iter=max_iter)
    q = GridFunction(grid, assemble(result.x))
    f = problem.along(q)
    residual = el_residual(problem, q)
    return ExtremalSolution(
        trajectory=q,
        velocity=GridFunction(grid, f.v),
        caputo_velocity=GridFunction(grid, f.w),
        residual=residual,
        action=trapezoid(f.L, h),
        el_residual_norm=float(np.max(np.abs(residual.values[1:-1]))),
        gradient_norm=result.gradient_norm,
        iterations=result.iterations,
    )
