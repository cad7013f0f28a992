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
interpolant action is, and is second-order accurate. Diagnostics
(``action_value``, ``el_residual``, the exported velocity) keep the
node-based central-difference convention.
"""

from __future__ import annotations

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
from .minimize import MAX_ITER, bfgs_minimize


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

    @property
    def dim(self) -> int:
        return self.lagrangian.dim

    def fields(self, q: GridFunction):
        """Trajectory fields (t, q, v, w) with the node-based conventions."""
        self.check_trajectory(q, boundary=False)
        t = self.grid.nodes()
        v = central_difference(q.values, self.grid.h)
        w = caputo_left(q, self.alpha).values
        return t, q.values, v, w

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
    t, qv, v, w = problem.fields(q)
    lvals = np.asarray(problem.lagrangian.evaluate(t, qv, v, w), dtype=float)
    if not np.isfinite(lvals).all():
        node = int(np.argmax(~np.isfinite(lvals)))
        raise NumericsError(
            f"non-finite Lagrangian value at node {node} (t = {t[node]:.6g})"
        )
    return trapezoid(lvals, problem.grid.h)


def frechet_differential(
    problem: VariationalProblem, q: GridFunction, h: GridFunction
) -> float:
    """Directional differential: int [dL/dq . h + dL/dv . h' + dL/dw . D^alpha h]."""
    problem.check_trajectory(q, boundary=False)
    if h.grid != problem.grid or h.dim != problem.dim:
        raise GridMismatchError("variation does not live on the problem grid")
    require_finite(h, "variation")
    scale = 1.0 + float(np.max(np.abs(h.values)))
    if max(np.max(np.abs(h.values[0])), np.max(np.abs(h.values[-1]))) > 1e-12 * scale:
        raise ValidationError("admissible variations must vanish at both endpoints")
    t, qv, v, w = problem.fields(q)
    lag = problem.lagrangian
    d2 = np.asarray(lag.dq(t, qv, v, w), dtype=float)
    d3 = np.asarray(lag.dv(t, qv, v, w), dtype=float)
    d4 = np.asarray(lag.dw(t, qv, v, w), dtype=float)
    hdot = central_difference(h.values, problem.grid.h)
    hcap = caputo_left(h, problem.alpha).values
    integrand = np.sum(d2 * h.values + d3 * hdot + d4 * hcap, axis=1)
    return trapezoid(integrand, problem.grid.h)


def el_residual(problem: VariationalProblem, q: GridFunction) -> GridFunction:
    """Node-wise Euler-Lagrange residual; endpoint nodes are zero by convention."""
    t, qv, v, w = problem.fields(q)
    lag = problem.lagrangian
    d2 = np.asarray(lag.dq(t, qv, v, w), dtype=float)
    d3 = np.asarray(lag.dv(t, qv, v, w), dtype=float)
    d4 = np.asarray(lag.dw(t, qv, v, w), dtype=float)
    if not (np.isfinite(d2).all() and np.isfinite(d3).all() and np.isfinite(d4).all()):
        raise NumericsError("non-finite Lagrangian partials along the trajectory")
    ddt_d3 = central_difference(d3, problem.grid.h)
    rl_term = rl_derivative_right(GridFunction(problem.grid, d4), problem.alpha).values
    residual = d2 - ddt_d3 + rl_term
    residual[0] = 0.0
    residual[-1] = 0.0
    return GridFunction(problem.grid, residual)


def el_residual_norm(problem: VariationalProblem, q: GridFunction) -> float:
    res = el_residual(problem, q).values
    return float(np.max(np.abs(res[1:-1]))) if problem.grid.n >= 2 else 0.0


# ------------------------------------------------------------- the solver


def _interpolant_action_parts(problem: VariationalProblem):
    """Precompute the static pieces of the discrete action."""
    t = problem.grid.nodes()
    h = problem.grid.h
    cmat = caputo_left_matrix(problem.grid.n, h, problem.alpha)
    return t, h, cmat


def _discrete_action(problem, t, h, cmat, q):
    lag = problem.lagrangian
    vcell = np.diff(q, axis=0) / h
    w = cmat @ q
    left = np.asarray(lag.evaluate(t[:-1], q[:-1], vcell, w[:-1]), dtype=float)
    right = np.asarray(lag.evaluate(t[1:], q[1:], vcell, w[1:]), dtype=float)
    return 0.5 * h * (np.sum(left) + np.sum(right))


def _discrete_gradient(problem, t, h, cmat, q):
    lag = problem.lagrangian
    vcell = np.diff(q, axis=0) / h
    w = cmat @ q
    args_l = (t[:-1], q[:-1], vcell, w[:-1])
    args_r = (t[1:], q[1:], vcell, w[1:])
    d2l, d2r = np.asarray(lag.dq(*args_l), float), np.asarray(lag.dq(*args_r), float)
    d3l, d3r = np.asarray(lag.dv(*args_l), float), np.asarray(lag.dv(*args_r), float)
    d4l, d4r = np.asarray(lag.dw(*args_l), float), np.asarray(lag.dw(*args_r), float)
    g = np.zeros_like(q)
    g[:-1] += 0.5 * h * d2l
    g[1:] += 0.5 * h * d2r
    cell_momentum = 0.5 * (d3l + d3r)  # d(action)/d(vcell) / h
    g[:-1] -= cell_momentum
    g[1:] += cell_momentum
    s = np.zeros_like(q)
    s[:-1] += 0.5 * h * d4l
    s[1:] += 0.5 * h * d4r
    g += cmat.T @ s
    return g


def _discrete_hessian(problem, t, h, cmat, q):
    """Hessian of :func:`_discrete_action` in the node values ``q.ravel()``.

    Each evaluation point contributes ``J' (h/2 d2L) J``, where J maps the
    nodes to the point's node value, cell slope and row of ``cmat``. The
    second partials are central differences of the analytic first partials:
    they steer Newton steps, while the analytic gradient certifies
    convergence.
    """
    lag = problem.lagrangian
    n, d = q.shape[0] - 1, q.shape[1]
    lo, hi = np.arange(n), np.arange(1, n + 1)
    vcell = np.diff(q, axis=0) / h
    # left points of all cells, then right points; node[k] also names the
    # cmat row that gives the point's w
    node = np.concatenate((lo, hi))
    args = (t[node], q[node], np.concatenate((vcell, vcell)), (cmat @ q)[node])
    cell_lo, cell_hi = np.concatenate((lo, lo)), np.concatenate((hi, hi))
    jac = {"q": ((node, 1.0),), "v": ((cell_hi, 1.0 / h), (cell_lo, -1.0 / h))}
    partials = {"q": lag.dq, "v": lag.dv, "w": lag.dw}
    slots = {"q": 1, "v": 2, "w": 3}
    every = slice(None)
    # sum of J_x' B J_y over slot pairs x <= y, with the x == y blocks
    # halved, so that the Hessian is part + part'
    part = np.zeros((n + 1, d, n + 1, d))
    for x, y in (("q", "q"), ("q", "v"), ("v", "v"), ("q", "w"), ("v", "w"), ("w", "w")):
        block = (0.25 if x == y else 0.5) * h * fd_partial(partials[x], args, slots[y])
        if not block.any():
            continue
        if y != "w":  # banded: add each point's node pairs by index
            for rows, a in jac[x]:
                for cols, b in jac[y]:
                    np.add.at(part, (rows, every, cols, every), a * b * block)
            continue
        for ca, cb in zip(*np.nonzero(block.any(axis=0))):
            if x == "w":  # both sides read rows of the same cmat
                weights = np.bincount(node, block[:, ca, cb], n + 1)
                part[:, ca, :, cb] += cmat.T @ (weights[:, None] * cmat)
            else:  # row-scaled rows of cmat
                for rows, a in jac[x]:
                    np.add.at(
                        part[:, ca, :, cb], rows, (a * block[:, ca, cb])[:, None] * cmat[node]
                    )
    part = part.reshape((n + 1) * d, (n + 1) * d)
    return part + part.T


def solve_extremal(
    problem: VariationalProblem,
    init: GridFunction | None = None,
    tol: float = 1e-8,
    max_iter: int = MAX_ITER,
) -> ExtremalSolution:
    """Minimize the discretized action over interior nodes (endpoints fixed).

    Steps are Newton steps on :func:`_discrete_hessian`. The default
    initial guess is the linear interpolant of the boundary values.
    Convergence means the discrete gradient max-norm fell below ``tol``;
    non-convergence raises ``ConvergenceError`` carrying the final norm.
    """
    grid, d = problem.grid, problem.dim
    n = grid.n
    t, h, cmat = _interpolant_action_parts(problem)
    if init is not None:
        problem.check_trajectory(init, boundary=True)
        x0 = init.values[1:-1].ravel()
    else:
        frac = ((t - grid.a) / (grid.b - grid.a))[:, None]
        straight = (1.0 - frac) * problem.q_a[None, :] + frac * problem.q_b[None, :]
        x0 = straight[1:-1].ravel()

    def assemble(x):
        q = np.empty((n + 1, d))
        q[0] = problem.q_a
        q[-1] = problem.q_b
        q[1:-1] = x.reshape(n - 1, d)
        return q

    def fun(x):
        return _discrete_action(problem, t, h, cmat, assemble(x))

    def grad(x):
        return _discrete_gradient(problem, t, h, cmat, assemble(x))[1:-1].ravel()

    def hess(x):
        return _discrete_hessian(problem, t, h, cmat, assemble(x))[d:-d, d:-d]

    result = bfgs_minimize(fun, grad, x0, hess, tol=tol, max_iter=max_iter)
    q = GridFunction(grid, assemble(result.x))
    velocity = GridFunction(grid, central_difference(q.values, h))
    caputo_velocity = caputo_left(q, problem.alpha)
    residual = el_residual(problem, q)
    return ExtremalSolution(
        trajectory=q,
        velocity=velocity,
        caputo_velocity=caputo_velocity,
        residual=residual,
        action=action_value(problem, q),
        el_residual_norm=float(np.max(np.abs(residual.values[1:-1]))),
        gradient_norm=result.gradient_norm,
        iterations=result.iterations,
    )
