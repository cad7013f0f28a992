"""Optimal control with mixed classical and fractional dynamics.

Minimize ``int_a^b L(t, q, u, mu) dt`` subject to

    dq/dt      = phi(t, q, u),
    D_C^alpha q = rho(t, q, mu),      q(a) = q_a ,

with the right endpoint free. The stationarity structure uses the
Hamiltonian H = L + p . phi + p_alpha . rho with co-vector (adjoint)
functions p and p_alpha paired with the two velocity channels.

The solver is a penalty-based direct transcription: all trajectory nodes
except the fixed initial one, plus every control node, are decision
variables; both dynamics channels enter as weighted quadratic penalties with
an increasing weight schedule. Each weight's objective is minimized by Newton
steps that eliminate every node's controls first, so that only the states'
Schur complement is assembled and factored, and the adjoints are recovered
from the converged penalty multipliers (p = -weight * defect). Adjoint
recovery is first-order in the final weight - tolerances downstream account
for that. Each node's penalty gradient is the trapezoid-weighted gradient of
H at those multiplier estimates, so the partials of H are written once, for
the solver and for the stationarity residuals.

Special cases are calls to their general form: the linear-quadratic family
is the :func:`variational_reduction` (phi = u, rho = mu) of
``lagrangian.quadratic_mix``, and :func:`autonomous_control_quantity` is the
time-translation instance of :func:`control_noether_quantity`. Residual (iii)
and the conserved quantity are ``variational.costate_residual`` and
``noether.momentum_quantity``, which the variational forms call at the
momenta p = -dL/dv, p_alpha = -dL/dw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericsError, ValidationError
from .fracops import caputo_left, caputo_left_matrix, derivative_order
from .grid import (
    Grid, GridFunction, central_difference, require_close, require_dim, require_integer, require_on,
    trapezoid_weights,
)
from .lagrangian import check_partial, fd_partial, quadratic_mix
from .minimize import MAX_UNKNOWNS, PointwiseSum, bfgs_minimize, schur_newton
from .noether import momentum_quantity
from .symmetry import SymmetryGroup, time_translation
from .variational import along, costate_residual

_PROBE_SEED = 9319
_BASE_WEIGHT = 100.0  # penalty weight of the first round; tenfold per round after
_ROUNDS = 3


@dataclass
class ControlProblem:
    """Cost and dynamics contracts, all vectorized over nodes.

    Shapes: ``cost(t,q,u,mu) -> (k,)`` with partials ``(k, n)/(k, m)/(k, d)``;
    ``velocity(t,q,u) -> (k,n)`` with Jacobians ``velocity_dq (k,n,n)`` and
    ``velocity_du (k,n,m)``; likewise for the fractional channel. ``d = 0``
    (no fractional control) is allowed; the fractional constraint then pins
    D_C^alpha q to ``frac_velocity(t, q)`` alone.
    """

    cost: Callable
    cost_dq: Callable
    cost_du: Callable
    cost_dmu: Callable
    velocity: Callable
    velocity_dq: Callable
    velocity_du: Callable
    frac_velocity: Callable
    frac_velocity_dq: Callable
    frac_velocity_dmu: Callable
    alpha: float
    grid: Grid
    q_start: np.ndarray
    state_dim: int
    control_dim: int
    frac_dim: int
    autonomous: bool = False

    def __post_init__(self):
        self.alpha = derivative_order(self.alpha, "control")
        for field, minimum in (("state_dim", 1), ("control_dim", 1), ("frac_dim", 0)):
            requirement = f"{field} must be an integer >= {minimum}"
            setattr(self, field, require_integer(getattr(self, field), minimum, requirement))
        self.q_start = np.atleast_1d(np.asarray(self.q_start, dtype=float))
        if self.q_start.shape != (self.state_dim,):
            raise ValidationError("initial state dimension mismatch")
        if not np.isfinite(self.q_start).all():
            raise ValidationError(f"initial state must be finite, got {self.q_start}")
        self._validate_contracts()

    def _validate_contracts(self):
        rng = np.random.default_rng(_PROBE_SEED)
        k = 100
        t = rng.uniform(self.grid.a, self.grid.b, size=k)
        q = rng.standard_normal((k, self.state_dim))
        u = rng.standard_normal((k, self.control_dim))
        mu = rng.standard_normal((k, self.frac_dim))
        for name, evaluate, args, slot in (
            ("cost_dq", self.cost, [t, q, u, mu], 1),
            ("cost_du", self.cost, [t, q, u, mu], 2),
            ("cost_dmu", self.cost, [t, q, u, mu], 3),
            ("velocity_dq", self.velocity, [t, q, u], 1),
            ("velocity_du", self.velocity, [t, q, u], 2),
            ("frac_velocity_dq", self.frac_velocity, [t, q, mu], 1),
            ("frac_velocity_dmu", self.frac_velocity, [t, q, mu], 2),
        ):
            if self.frac_dim or not name.endswith("dmu"):
                check_partial(f"control contract {name}", getattr(self, name), evaluate, args, slot)


@dataclass
class SolveDiagnostics:
    penalty_weights: list
    defect_norms: list  # combined dynamics defect L2 norm per round
    gradient_norm: float
    iterations: int


@dataclass
class PontryaginState:
    """State/control trajectories with the recovered co-vector functions."""

    q: GridFunction
    u: GridFunction
    mu: GridFunction
    p: GridFunction
    p_alpha: GridFunction
    diagnostics: Optional[SolveDiagnostics] = None


def _state_arrays(cp: ControlProblem, state: PontryaginState):
    for f, label, d in (
        (state.q, "q", cp.state_dim),
        (state.u, "u", cp.control_dim),
        (state.mu, "mu", cp.frac_dim or state.mu.dim),  # a placeholder when frac_dim = 0
        (state.p, "p", cp.state_dim),
        (state.p_alpha, "p_alpha", cp.state_dim),
    ):
        require_on(f, cp.grid, d, label)
    q = state.q.values
    tol = 1e-12 * (1.0 + float(np.max(np.abs(q))))
    require_close(q[0], cp.q_start, tol, "state does not satisfy the initial condition")
    mu_vals = state.mu.values if cp.frac_dim else np.zeros((cp.grid.n + 1, 0))
    return q, state.u.values, mu_vals, state.p.values, state.p_alpha.values


def hamiltonian(cp: ControlProblem, state: PontryaginState, t_index: int) -> float:
    """H = L + p . phi + p_alpha . rho at one node."""
    if not 0 <= t_index <= cp.grid.n:
        raise ValidationError(f"node index {t_index} outside the grid")
    return float(hamiltonian_values(cp, state)[t_index])


def hamiltonian_values(cp: ControlProblem, state: PontryaginState) -> np.ndarray:
    """H = L + p . phi + p_alpha . rho at every node."""
    return _hamiltonian_values(cp, *_state_arrays(cp, state))


def _hamiltonian_values(cp, q, u, mu, p, pa) -> np.ndarray:
    t = cp.grid.nodes()
    lvals = np.asarray(cp.cost(t, q, u, mu), dtype=float)
    phi = np.asarray(cp.velocity(t, q, u), dtype=float)
    rho = np.asarray(cp.frac_velocity(t, q, mu), dtype=float)
    return lvals + np.sum(p * phi, axis=1) + np.sum(pa * rho, axis=1)


def _hamiltonian_partials(cp, t, q, u, mu, p, pa):
    """dH/dq, dH/du and dH/dmu row by row; dH/dmu has no columns when frac_dim = 0."""

    def plus(gradient, jacobian, covector):  # gradient + covector . jacobian at each node
        jacobian = np.asarray(jacobian, dtype=float)
        return np.asarray(gradient, dtype=float) + np.einsum("kij,ki->kj", jacobian, covector)

    dhdq = plus(cp.cost_dq(t, q, u, mu), cp.velocity_dq(t, q, u), p)
    dhdq = plus(dhdq, cp.frac_velocity_dq(t, q, mu), pa)
    dhdu = plus(cp.cost_du(t, q, u, mu), cp.velocity_du(t, q, u), p)
    dhdmu = np.zeros((len(t), 0))
    if cp.frac_dim:
        dhdmu = plus(cp.cost_dmu(t, q, u, mu), cp.frac_velocity_dmu(t, q, mu), pa)
    return dhdq, dhdu, dhdmu


def pontryagin_residuals(cp: ControlProblem, state: PontryaginState):
    """Five node-wise residual functions of the stationarity structure.

    (i)   dH/dp - dq/dt            = phi - dq/dt
    (ii)  dH/dp_alpha - D_C^alpha q = rho - D_C^alpha q
    (iii) dH/dq + dp/dt - D_right^alpha p_alpha
    (iv)  dH/du
    (v)   dH/dmu

    Endpoint nodes are zeroed (interior-only contract).
    """
    q, u, mu, p, pa = _state_arrays(cp, state)
    t = cp.grid.nodes()
    phi = np.asarray(cp.velocity(t, q, u), dtype=float)
    rho = np.asarray(cp.frac_velocity(t, q, mu), dtype=float)
    res1 = phi - central_difference(q, cp.grid.h)
    res2 = rho - caputo_left(GridFunction(cp.grid, q), cp.alpha).values
    dhdq, res4, dhdmu = _hamiltonian_partials(cp, t, q, u, mu, p, pa)
    res3 = costate_residual(cp.grid, cp.alpha, dhdq, p, pa).values
    res5 = dhdmu if cp.frac_dim else np.zeros((cp.grid.n + 1, 1))
    out = []
    for res in (res1, res2, res3, res4, res5):
        res[0] = 0.0
        res[-1] = 0.0
        out.append(GridFunction(cp.grid, res))
    return tuple(out)


# --------------------------------------------------------------- the solver


def _sbp_difference_matrix(n: int, h: float) -> np.ndarray:
    """Central interior, first-order one-sided ends; adjoint-compatible with
    trapezoid weights, which is what makes the penalty multipliers consistent
    estimates of the adjoint functions."""
    m = central_difference(np.eye(n + 1), h)
    m[0, :3] = -1.0 / h, 1.0 / h, 0.0
    m[n, n - 2 :] = 0.0, -1.0 / h, 1.0 / h
    return m


def solve_control(cp: ControlProblem, tol: float = 1e-6, terminal_state=None) -> PontryaginState:
    """Penalty-based direct transcription with adjoint recovery.

    Decision variables: each node's y = (q, u, mu) in node order, without
    node 0's q (the initial condition). The penalty objective is a
    :class:`~fracvar.minimize.PointwiseSum` over the states q, whose point
    k reads q_k and the rows a = D q and c = C q of the difference and L1
    Caputo matrices, and over node k's u and mu, which enter term k alone.
    Three penalty rounds, weight 100 growing tenfold per round,
    warm-started, each minimized by Newton steps from
    :func:`~fracvar.minimize.schur_newton`, which eliminates each node's
    (u, mu) and factors the states' Schur complement; the combined dynamics
    defect must decrease across rounds or the dynamics are reported
    infeasible. ``terminal_state`` adds an optional endpoint penalty.
    """
    n, sd, md, dd = cp.grid.n, cp.state_dim, cp.control_dim, cp.frac_dim
    if max(sd, md, dd) > 4:
        raise ValidationError("solver supports dimensions up to 4 per channel")
    s = sd + md + dd  # values per node
    m = (n + 1) * s - sd  # unknowns; node 0's state is fixed
    if m > MAX_UNKNOWNS:
        raise ValidationError(f"solver supports up to {MAX_UNKNOWNS} unknowns, got {m}")
    h, t = cp.grid.h, cp.grid.nodes()
    wt = trapezoid_weights(n, h)
    q_goal = None
    if terminal_state is not None:
        q_goal = np.atleast_1d(np.asarray(terminal_state, dtype=float))
        if q_goal.shape != (sd,):
            raise ValidationError("terminal state dimension mismatch")
        if not np.isfinite(q_goal).all():
            raise ValidationError(f"terminal state must be finite, got {q_goal}")
    k, q_columns = np.arange(n + 1), np.arange(sd)
    penalty = PointwiseSum(
        (n + 1, sd),
        [(None, k), (_sbp_difference_matrix(n, h), k), (caputo_left_matrix(n, h, cp.alpha), k)],
    )
    # a node's y = (q, u, mu) among its slot-ordered arguments (q, a, c, u, mu)
    y_columns = np.concatenate((q_columns, np.arange(3 * sd, 2 * sd + s)))

    def nodes(z):
        return np.concatenate((cp.q_start, z)).reshape(n + 1, s)

    def args(z):
        """Node values y = (q, u, mu) and the rows a and c."""
        y = nodes(z)
        _, a, c = penalty.args(y[:, :sd])
        return y, a, c

    def defects(t, y, a, c):
        """q, u and mu of the node values y, and the two dynamics defects."""
        q, u, mu = np.hsplit(y, (sd, sd + md))
        e1 = a - np.asarray(cp.velocity(t, q, u), dtype=float)
        e2 = c - np.asarray(cp.frac_velocity(t, q, mu), dtype=float)
        return q, u, mu, e1, e2

    def objective(z, weight):
        q, u, mu, e1, e2 = defects(t, *args(z))
        lvals = np.asarray(cp.cost(t, q, u, mu), dtype=float)
        value = float(wt @ lvals)
        value += 0.5 * weight * float(wt @ np.sum(e1 * e1 + e2 * e2, axis=1))
        if q_goal is not None:
            value += 0.5 * weight * float(np.sum((q[-1] - q_goal) ** 2))
        return value

    def node_gradient(t, wt, y, a, c, weight):
        """Gradient of each node's term of the objective in its arguments
        (q, a, c, u, mu), at node times ``t`` with trapezoid weights ``wt``:
        wt times the gradient of H in (q, p, p_alpha, u, mu) at the
        multiplier estimates p = -weight * e1, p_alpha = -weight * e2."""
        q, u, mu, e1, e2 = defects(t, y, a, c)
        p, pa = -weight * e1, -weight * e2
        dhdq, dhdu, dhdmu = _hamiltonian_partials(cp, t, q, u, mu, p, pa)
        return wt[:, None] * np.hstack((dhdq, -p, -pa, dhdu, dhdmu))

    def gradient(z, weight):
        y, a, c = args(z)
        gq, ga, gc, gz = np.hsplit(node_gradient(t, wt, y, a, c, weight), (sd, 2 * sd, 3 * sd))
        g = np.hstack((penalty.gradient([gq, ga, gc]), gz))
        if q_goal is not None:
            g[-1, :sd] += weight * (y[-1, :sd] - q_goal)
        return g.ravel()[sd:]

    def direction(z, g, weight):
        # each node's y columns are a central difference of node_gradient
        # in y, whose -p and -p_alpha rows also give the (y, a|c) blocks by
        # transpose; the (a|c, a|c) block is exactly weight * wt * I
        jac = fd_partial(node_gradient, (t, wt, *args(z), weight), 2)
        point = np.zeros((n + 1, s + 2 * sd, s + 2 * sd))
        point[:, :, y_columns] = jac
        point[:, sd : 3 * sd, sd : 3 * sd] = weight * wt[:, None, None] * np.eye(2 * sd)
        point[:, y_columns, sd : 3 * sd] = point[:, sd : 3 * sd, y_columns].transpose(0, 2, 1)
        point = 0.5 * (point + point.transpose(0, 2, 1))
        if q_goal is not None:
            point[-1, q_columns, q_columns] += weight
        gn = np.concatenate((np.zeros(sd), g)).reshape(n + 1, s)
        px, pz = schur_newton(penalty, point, gn[:, :sd], gn[:, sd:], fixed=sd)
        return np.hstack((px, pz)).ravel()[sd:]

    z = np.tile(np.concatenate((cp.q_start, np.zeros(md + dd))), n + 1)[sd:]

    weights, defect_norms = [], []
    for k in range(_ROUNDS):
        weight = _BASE_WEIGHT * 10.0**k
        result = bfgs_minimize(
            lambda zz: objective(zz, weight),
            lambda zz: gradient(zz, weight),
            z,
            lambda zz, gg: direction(zz, gg, weight),
            tol=tol,
        )
        z = result.x
        q, u, mu, e1, e2 = defects(t, *args(z))
        norm = float(np.sqrt(wt @ np.sum(e1 * e1 + e2 * e2, axis=1)))
        weights.append(weight)
        defect_norms.append(norm)
    # a tenfold weight increase should shrink a feasible defect about
    # tenfold; treat anything not clearly decreasing as infeasible dynamics
    for a, b in zip(defect_norms, defect_norms[1:]):
        if b > 0.66 * a and b > 1e-10:
            raise NumericsError(
                "dynamics penalty defect did not decrease across rounds "
                f"(history {defect_norms}); dynamics look infeasible"
            )
    final_weight = weights[-1]
    return PontryaginState(
        q=GridFunction(cp.grid, q),
        u=GridFunction(cp.grid, u),
        mu=GridFunction(cp.grid, mu if dd else np.zeros((n + 1, 1))),
        p=GridFunction(cp.grid, -final_weight * e1),
        p_alpha=GridFunction(cp.grid, -final_weight * e2),
        diagnostics=SolveDiagnostics(
            penalty_weights=weights,
            defect_norms=defect_norms,
            gradient_norm=result.gradient_norm,
            iterations=result.iterations,
        ),
    )


# ----------------------------------------------------- conserved quantities


def control_noether_quantity(
    cp: ControlProblem, state: PontryaginState, s: SymmetryGroup, truncation: int = 2
) -> GridFunction:
    """``noether.momentum_quantity`` along a solved state: its p and p_alpha,
    and energy H - (1 - alpha) p_alpha . D_C^alpha q."""
    require_dim(s.dim, cp.state_dim, "symmetry")
    q, u, mu, p, pa = _state_arrays(cp, state)
    tau, f2 = s.rates_on(cp.grid.nodes(), q)
    cap_q = caputo_left(GridFunction(cp.grid, q), cp.alpha).values
    ham = _hamiltonian_values(cp, q, u, mu, p, pa)
    energy = ham - (1.0 - cp.alpha) * np.sum(pa * cap_q, axis=1)
    return momentum_quantity(cp.grid, cp.alpha, tau, f2, p, pa, energy, truncation)


def autonomous_control_quantity(cp: ControlProblem, state: PontryaginState) -> GridFunction:
    """H - (1 - alpha) p_alpha . D_C^alpha q, H itself at alpha = 1: the
    time-translation instance (tau = 1, f2 = 0) of :func:`control_noether_quantity`."""
    if not cp.autonomous:
        raise ValidationError("autonomous_control_quantity requires an autonomous problem")
    return control_noether_quantity(cp, state, time_translation(cp.state_dim), truncation=0)


# ------------------------------------------------------ registered families


def variational_reduction(lagrangian, grid: Grid, alpha, q_start) -> ControlProblem:
    """Control form of a variational problem: phi = u, rho = mu.

    Under the substitution u = dq/dt, mu = D_C^alpha q, p = -dL/dv,
    p_alpha = -dL/dw the stationarity residuals reproduce the variational
    Euler-Lagrange residual arithmetic exactly.
    """
    d = lagrangian.dim
    eye = np.eye(d)
    return ControlProblem(
        cost=lagrangian.evaluate,
        cost_dq=lagrangian.dq,
        cost_du=lagrangian.dv,
        cost_dmu=lagrangian.dw,
        velocity=lambda t, q, u: u,
        velocity_dq=lambda t, q, u: np.zeros((len(t), d, d)),
        velocity_du=lambda t, q, u: np.broadcast_to(eye, (len(t), d, d)).copy(),
        frac_velocity=lambda t, q, mu: mu,
        frac_velocity_dq=lambda t, q, mu: np.zeros((len(t), d, d)),
        frac_velocity_dmu=lambda t, q, mu: np.broadcast_to(eye, (len(t), d, d)).copy(),
        alpha=alpha,
        grid=grid,
        q_start=q_start,
        state_dim=d,
        control_dim=d,
        frac_dim=d,
        autonomous=lagrangian.autonomous,
    )


def reduction_state(cp: ControlProblem, q: GridFunction, lagrangian) -> PontryaginState:
    """Substituted state for reduction problems: u = dq/dt, mu = D_C^alpha q,
    p = -dL/dv, p_alpha = -dL/dw."""
    f = along(lagrangian, cp.grid, cp.alpha, q.values)
    return PontryaginState(
        q=q,
        u=GridFunction(cp.grid, f.v),
        mu=GridFunction(cp.grid, f.w),
        p=GridFunction(cp.grid, -f.dv),
        p_alpha=GridFunction(cp.grid, -f.dw),
    )


def scalar_tracking_problem(
    grid: Grid,
    alpha,
    q_start: float,
    state_weight: float = 1.0,
    control_weight: float = 1.0,
    frac_weight: float = 1.0,
) -> ControlProblem:
    """Scalar linear-quadratic family: L = (cq q^2 + cu u^2 + cmu mu^2)/2,
    phi = u, rho = mu; the :func:`variational_reduction` of
    ``quadratic_mix(cu, cmu, cq)``."""
    lag = quadratic_mix(control_weight, frac_weight, state_weight)
    return variational_reduction(lag, grid, alpha, [q_start])
