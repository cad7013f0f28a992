"""Variational problems coupling classical and Caputo velocities.

A problem is the functional ``I[q] = int_a^b L(t, q, dq/dt, D^alpha q) dt``
with both endpoint values of q prescribed. This module evaluates the action,
its directional (Frechet) differential, the Euler-Lagrange residual

    dL/dq - d/dt dL/dv + D_right^alpha dL/dw ,

and solves for extremals by direct transcription: the trajectory nodes are
the decision variables and the discretized action is minimized by Newton's
method, each step solved by preconditioned conjugate gradients on
Hessian-vector products (no matrix is formed), with an analytic gradient
certifying convergence.

The solver's internal discretization is the action of the piecewise-linear
interpolant (per-cell trapezoid in t with the cell slope as velocity). The
node-based central-difference velocity paired with nodal trapezoid weights
is *not* variationally consistent - with that pairing even the free particle
has a non-zero discrete gradient at the straight line - while the
interpolant action is, and is second-order accurate. Every diagnostic here
and in ``noether``, ``optctrl``, ``friction`` and ``scenarios`` keeps the
node-based convention by reading one record, :func:`along`: t, q, v, w, and L
with its partials, checked finite node by node.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NumericsError, ValidationError
from .fracops import (
    MatrixFree,
    caputo_left,
    caputo_left_operator,
    derivative_order,
    rl_derivative_right,
)
from .grid import (
    Grid,
    GridFunction,
    cell_differences,
    cell_differences_T,
    central_difference,
    require_finite,
    trapezoid,
    write_csv,
)
from .lagrangian import LagrangianSpec, fd_partial
from .minimize import MAX_ITER, MAX_UNKNOWNS, PointwiseSum, bfgs_minimize, pcg_direction


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
    return float(np.max(np.abs(res[1:-1])))


# ------------------------------------------------------------- the solver


def solve_extremal(
    problem: VariationalProblem, tol: float = 1e-8, max_iter: int = MAX_ITER
) -> ExtremalSolution:
    """Minimize the discretized action over interior nodes (endpoints fixed).

    The interpolant action is a :class:`~fracvar.minimize.PointwiseSum`
    over the node value, the cell slope (the cell differences over h) and
    the node's L1 Caputo derivative (the FFT operator of
    :func:`~fracvar.fracops.caputo_left_operator`), at both ends of every
    cell: three slots of one linear map each. Newton steps start from the
    linear interpolant of the boundary values; their second partials are
    central differences of the analytic first partials, and each step is
    solved matrix-free by :func:`~fracvar.minimize.pcg_direction`. The
    tridiagonal preconditioner ``K = Delta' diag(d) Delta + diag(e)`` keeps,
    per state component, the diagonal second partials: those of the slope
    and the Caputo derivative in cell-difference coordinates (d), and those
    of the node value (e). A gradient max-norm not below ``tol`` raises
    ``ConvergenceError`` carrying the final norm. More than ``MAX_UNKNOWNS``
    interior values raise ``ValidationError`` before anything is allocated.
    """
    grid, d, lag = problem.grid, problem.dim, problem.lagrangian
    m = (grid.n - 1) * d  # unknowns; the endpoint values are fixed
    if m > MAX_UNKNOWNS:
        raise ValidationError(f"solver supports up to {MAX_UNKNOWNS} unknowns, got {m}")
    n, h, t = grid.n, grid.h, grid.nodes()
    cell = np.tile(np.arange(n), 2)  # the left ends of all cells, then the right ends
    node, columns = cell + np.repeat([0, 1], n), np.arange(d)
    caputo = caputo_left_operator(n, h, problem.alpha)
    slope = MatrixFree(  # the cell differences over h
        lambda f: cell_differences(f) * (1.0 / h), lambda g: cell_differences_T(g) * (1.0 / h)
    )
    action = PointwiseSum(
        (n + 1, d), [(columns, None, node), (columns, slope, cell + 1), (columns, caputo, node)]
    )
    partials = (lag.dq, lag.dv, lag.dw)

    def assemble(x, q_a=problem.q_a, q_b=problem.q_b):
        return np.vstack((q_a, x.reshape(n - 1, d), q_b))

    def args(x):
        return (t[node], *action.args(assemble(x)))

    def fun(x):
        return 0.5 * h * float(np.sum(np.asarray(lag.evaluate(*args(x)), dtype=float)))

    def grad(x):
        a = args(x)
        g = action.gradient([0.5 * h * np.asarray(f(*a), dtype=float) for f in partials])
        return g[1:-1].ravel()

    def direction(x, g):
        a = args(x)
        pairs = [(s, r) for s in range(3) for r in range(s, 3)]
        blocks = {(s, r): 0.5 * h * fd_partial(partials[s], a, 1 + r) for s, r in pairs}
        state, slope, curv = (np.diagonal(blocks[s, s], axis1=1, axis2=2) for s in range(3))
        cells = (slope[:n] + slope[n:]) / (h * h) + caputo.cell_gram(_node_sums(curv))
        precondition = _tridiagonal_solver(cells, _node_sums(state)[1:-1])
        zero = np.zeros(d)

        def hvp(v):
            return action.hvp(blocks, assemble(v, zero, zero))[1:-1].ravel()

        return pcg_direction(hvp, lambda r: precondition(r.reshape(n - 1, d)).ravel(), g)

    frac = ((t - grid.a) / (grid.b - grid.a))[:, None]
    straight = (1.0 - frac) * problem.q_a[None, :] + frac * problem.q_b[None, :]
    result = bfgs_minimize(fun, grad, straight[1:-1].ravel(), direction, tol=tol, max_iter=max_iter)
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


def _node_sums(values: np.ndarray) -> np.ndarray:
    """Each node's sum of per-point values ordered as the action's points:
    the left ends of all cells, then the right ends."""
    n = len(values) // 2
    out = np.zeros((n + 1,) + values.shape[1:])
    out[:n] += values[:n]
    out[1:] += values[n:]
    return out


def _tridiagonal_solver(cells: np.ndarray, nodes: np.ndarray):
    """``r -> x`` solving ``K x = r`` with ``K = Delta' diag(d) Delta + diag(e)``
    per column, for the interior node values x: d = ``cells`` (n, columns),
    e = ``nodes`` (n - 1, columns) and Delta the cell differences of (0, x, 0).

    Cells with d <= 0 count as the smallest positive d of their column and
    nodes with e < 0 as 0, so K is positive definite. A column with no
    positive d is diag(e), and there nodes with e <= 0 count as the column's
    smallest positive e, or as 1 when there is none.

    K is factored once by cyclic reduction: padded with identity rows to
    2^k - 1 rows, each level eliminates the even rows (0, 2, ...) from the
    odd ones, which form the next level. A solve is one pass down the
    levels and one back up, in place.
    """
    d = _positive(cells, 0.0)
    e = np.maximum(nodes, 0.0)
    bare = ~d.any(axis=0)
    e[:, bare] = _positive(e[:, bare], 1.0)
    m, width = e.shape
    size = 2 ** m.bit_length() - 1
    diag = np.ones((size, width))
    diag[:m] = d[:-1] + d[1:] + e
    off = np.zeros((size, width))  # row i's coefficient of x_{i+1}, and row i+1's of x_i
    off[: m - 1] = -d[1:-1]
    # row i of the padded system sits at x[i + 1], between two zero rows;
    # level l's even rows are every 2^(l+1)-th row of x from x[2^l]. Each
    # gives x_even = scale * r_even + to_left * x_{even-1} + to_right * x_{even+1}.
    x = np.zeros((size + 2, width))
    down, up = [], []
    half = 1
    while len(diag) > 1:
        scale = 1.0 / diag[0::2]
        to_left = -scale * np.vstack((np.zeros((1, width)), off[1::2]))
        to_right = -scale * off[0::2]
        even = x[half :: 2 * half]
        down.append((x[2 * half : -1 : 2 * half], even[:-1], even[1:], to_right[:-1], to_left[1:]))
        up.append((even, x[: -1 : 2 * half], x[2 * half :: 2 * half], scale, to_left, to_right))
        diag = diag[1::2] + to_right[:-1] * off[:-1:2] + to_left[1:] * off[1::2]
        off = off[1::2] * to_right[1:]
        half *= 2

    def solve(r):
        x[1 : m + 1] = r
        x[m + 1 :] = 0.0
        for odd, before, after, from_before, from_after in down:
            odd += from_before * before + from_after * after
        x[half] /= diag[0]  # the last level's one row
        for even, before, after, scale, to_left, to_right in reversed(up):
            even *= scale
            even += to_left * before + to_right * after
        return x[1 : m + 1].copy()

    return solve


def _positive(values: np.ndarray, fallback: float) -> np.ndarray:
    """``values`` with each entry <= 0 replaced by the smallest positive entry
    of its column, or by ``fallback`` in a column without one."""
    positive = values > 0.0
    floor = np.min(np.where(positive, values, np.inf), axis=0)
    return np.where(positive, values, np.where(np.isfinite(floor), floor, fallback))
