import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from fracvar import optctrl
from fracvar.errors import GridMismatchError, NumericsError, ValidationError
from fracvar.fracops import caputo_left, caputo_left_matrix
from fracvar.grid import Grid, GridFunction, central_difference, trapezoid, trapezoid_weights
from fracvar.lagrangian import quadratic_mix
from fracvar.minimize import PointwiseSum
from fracvar.noether import drift_report, noether_quantity
from fracvar.optctrl import (
    ControlProblem,
    PontryaginState,
    autonomous_control_quantity,
    control_noether_quantity,
    hamiltonian,
    pontryagin_residuals,
    reduction_state,
    scalar_tracking_problem,
    solve_control,
    variational_reduction,
    _hamiltonian_values,
)
from fracvar.symmetry import space_translation, time_translation
from fracvar.variational import VariationalProblem, el_residual, solve_extremal


def zero_problem(n=32):
    zeros_vec = lambda t, *args: np.zeros((len(t), 1))
    zeros_jac = lambda t, *args: np.zeros((len(t), 1, 1))
    return ControlProblem(
        cost=lambda t, q, u, mu: np.zeros(len(t)),
        cost_dq=zeros_vec,
        cost_du=zeros_vec,
        cost_dmu=zeros_vec,
        velocity=lambda t, q, u: np.zeros((len(t), 1)),
        velocity_dq=zeros_jac,
        velocity_du=zeros_jac,
        frac_velocity=lambda t, q, mu: np.zeros((len(t), 1)),
        frac_velocity_dq=zeros_jac,
        frac_velocity_dmu=zeros_jac,
        alpha=0.5,
        grid=Grid(0.0, 1.0, n),
        q_start=[0.0],
        state_dim=1,
        control_dim=1,
        frac_dim=1,
        autonomous=True,
    )


def nonlinear_problem(n):
    """State dim 2 with nonlinear cost, phi and rho, so every Hessian block is non-zero."""

    def cost(t, q, u, mu):
        q0, q1, u0, mu0 = q[:, 0], q[:, 1], u[:, 0], mu[:, 0]
        return 0.5 * (q0**2 + u0**2) + q0 * q1 * mu0 + 0.25 * mu0**4

    def velocity(t, q, u):
        return np.stack((q[:, 1] + u[:, 0] * q[:, 0], -np.sin(q[:, 0]) + u[:, 0] ** 2), axis=1)

    def velocity_dq(t, q, u):
        jac = np.zeros((len(t), 2, 2))
        jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0] = u[:, 0], 1.0, -np.cos(q[:, 0])
        return jac

    def frac_velocity(t, q, mu):
        return np.stack((mu[:, 0] + q[:, 0] * q[:, 1], q[:, 1] - mu[:, 0] ** 2), axis=1)

    def frac_velocity_dq(t, q, mu):
        jac = np.zeros((len(t), 2, 2))
        jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 1] = q[:, 1], q[:, 0], 1.0
        return jac

    return ControlProblem(
        cost=cost,
        cost_dq=lambda t, q, u, mu: np.stack(
            (q[:, 0] + q[:, 1] * mu[:, 0], q[:, 0] * mu[:, 0]), axis=1
        ),
        cost_du=lambda t, q, u, mu: u.copy(),
        cost_dmu=lambda t, q, u, mu: (q[:, 0] * q[:, 1] + mu[:, 0] ** 3)[:, None],
        velocity=velocity,
        velocity_dq=velocity_dq,
        velocity_du=lambda t, q, u: np.stack((q[:, 0], 2.0 * u[:, 0]), axis=1)[:, :, None],
        frac_velocity=frac_velocity,
        frac_velocity_dq=frac_velocity_dq,
        frac_velocity_dmu=lambda t, q, mu: np.stack(
            (np.ones(len(t)), -2.0 * mu[:, 0]), axis=1
        )[:, :, None],
        alpha=0.6,
        grid=Grid(0.0, 1.0, n),
        q_start=[0.3, -0.2],
        state_dim=2,
        control_dim=1,
        frac_dim=1,
    )


def feasible_nonlinear_problem(n):
    """Dimension 2 in every channel, nonlinear in q, u and mu, with feasible
    dynamics: u + u^3/3 and mu + mu^3/3 are onto, so phi and rho reach every
    value at every q. Node 0's rows are then solvable too: row 0 of the L1
    Caputo matrix is zero, and rho(a, q_a, mu_0) = 0 has a root mu_0."""

    def cost(t, q, u, mu):
        return 0.5 * np.sum(q * q + u * u + mu * mu, axis=1) + 0.25 * np.sum((q * u) ** 2, axis=1)

    def velocity_dq(t, q, u):
        jac = np.zeros((len(t), 2, 2))
        jac[:, 0, 1], jac[:, 1, 0] = np.cos(q[:, 1]), np.cos(q[:, 0])
        return jac

    def onto_dz(z):
        return np.einsum("ki,ij->kij", 1.0 + z * z, np.eye(2))

    return ControlProblem(
        cost=cost,
        cost_dq=lambda t, q, u, mu: q + 0.5 * q * u * u,
        cost_du=lambda t, q, u, mu: u + 0.5 * q * q * u,
        cost_dmu=lambda t, q, u, mu: mu.copy(),
        velocity=lambda t, q, u: u + u**3 / 3.0 + np.sin(q[:, ::-1]),
        velocity_dq=velocity_dq,
        velocity_du=lambda t, q, u: onto_dz(u),
        frac_velocity=lambda t, q, mu: mu + mu**3 / 3.0 - 0.5 * (q[:, :1] * q[:, 1:]),
        frac_velocity_dq=lambda t, q, mu: np.repeat(-0.5 * q[:, None, ::-1], 2, axis=1),
        frac_velocity_dmu=lambda t, q, mu: onto_dz(mu),
        alpha=0.6,
        grid=Grid(0.0, 1.0, n),
        q_start=[0.3, -0.2],
        state_dim=2,
        control_dim=2,
        frac_dim=2,
    )


def zero_state(cp):
    z = GridFunction(cp.grid, np.zeros(cp.grid.n + 1))
    return PontryaginState(q=z, u=z, mu=z, p=z, p_alpha=z)


def captured_direction(monkeypatch, cp, terminal):
    """(grad, direction, m) that solve_control hands to the minimizer in its first round."""

    class Captured(Exception):
        pass

    def spy(fun, grad, x0, direction, **kwargs):
        raise Captured(grad, direction, x0.size)

    monkeypatch.setattr(optctrl, "bfgs_minimize", spy)
    with pytest.raises(Captured) as excinfo:
        solve_control(cp, terminal_state=terminal)
    return excinfo.value.args


def dense_shifted_newton(hmat, g):
    """``(H + tau I)^-1 (-g)`` with the smallest doubling tau >= 0, from
    1e-3 max|diag H|, that lets numpy's Cholesky factorization succeed."""
    diag, tau = np.diag(hmat).copy(), 0.0
    while True:
        try:
            np.linalg.cholesky(hmat)
            return np.linalg.solve(hmat, -g), tau
        except np.linalg.LinAlgError:
            tau = 2.0 * tau if tau else 1e-3 * float(np.max(np.abs(diag)))
            np.fill_diagonal(hmat, diag + tau)


def random_smooth(grid, seed, amplitude=0.5):
    rng = np.random.default_rng(seed)
    t = grid.nodes()
    span = grid.b - grid.a
    vals = t.copy()
    for k in range(1, 4):
        vals = vals + amplitude * rng.standard_normal() / k**2 * np.sin(
            k * np.pi * (t - grid.a) / span
        )
    return GridFunction(grid, vals)


# ------------------------------------------------------------- Hamiltonian


class TestHamiltonian:
    def test_reduction_form_expands_by_hand(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 0.3, state_weight=0.0)
        g = cp.grid
        q = GridFunction(g, np.full(17, 0.3))
        u = GridFunction(g, np.full(17, 2.0))
        mu = GridFunction(g, np.full(17, -1.0))
        p = GridFunction(g, np.full(17, 0.25))
        pa = GridFunction(g, np.full(17, 0.5))
        state = PontryaginState(q=q, u=u, mu=mu, p=p, p_alpha=pa)
        # H = (u^2 + mu^2)/2 + p u + p_alpha mu
        expected = 0.5 * (4.0 + 1.0) + 0.25 * 2.0 + 0.5 * (-1.0)
        assert hamiltonian(cp, state, 5) == pytest.approx(expected, abs=1e-14)

    def test_vanishing_covectors_reduce_to_cost(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        g = cp.grid
        one = GridFunction(g, np.ones(17))
        zero = GridFunction(g, np.zeros(17))
        state = PontryaginState(q=one, u=one, mu=one, p=zero, p_alpha=zero)
        # L = (q^2 + u^2 + mu^2)/2 = 1.5 at every node
        assert hamiltonian(cp, state, 3) == pytest.approx(1.5, abs=1e-14)

    def test_node_index_bounds(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        state = zero_state(cp)
        state.q.values[0] = 1.0  # respect q(a)
        with pytest.raises(ValidationError):
            hamiltonian(cp, state, 17)


# ---------------------------------------------------- stationarity residuals


class TestPontryaginResiduals:
    def test_zero_problem_zero_state(self):
        cp = zero_problem()
        res = pontryagin_residuals(cp, zero_state(cp))
        for r in res:
            npt.assert_array_equal(r.values, 0.0)

    def test_velocity_residual_is_u_minus_qdot(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 32), 0.5, 0.0, state_weight=0.0)
        g = cp.grid
        t = g.nodes()
        q = GridFunction(g, t**2)
        u = GridFunction(g, np.sin(t))
        zero = GridFunction(g, np.zeros(33))
        state = PontryaginState(q=q, u=u, mu=zero, p=zero, p_alpha=zero)
        res = pontryagin_residuals(cp, state)
        expected = np.sin(t) - central_difference(q.values, g.h)[:, 0]
        npt.assert_allclose(res[0].values[1:-1, 0], expected[1:-1], atol=1e-14)

    def test_interior_blow_up_is_not_hidden(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 32), 0.5, 0.0)
        zero = GridFunction(cp.grid, np.zeros(33))
        p = np.zeros(33)
        p[16] = np.inf
        state = PontryaginState(q=zero, u=zero, mu=zero, p=GridFunction(cp.grid, p), p_alpha=zero)
        with pytest.raises(ValidationError, match=r"^p contains non-finite .* node 16\)"):
            pontryagin_residuals(cp, state)

    def test_reduction_substitution_matches_el_residual(self):
        # same-arithmetic identity on 5 random quadratic problems
        rng = np.random.default_rng(77)
        for trial in range(5):
            cv, cw = rng.uniform(0.5, 2.0, size=2)
            cq, slope = rng.uniform(-0.5, 0.5, size=2)
            lag = quadratic_mix(cv, cw, cq, slope)
            grid = Grid(0.0, 1.0, 64)
            alpha = rng.uniform(0.3, 0.9)
            cp = variational_reduction(lag, grid, alpha, [0.0])
            q = random_smooth(grid, seed=100 + trial)
            q.values[0] = 0.0
            state = reduction_state(cp, q, lag)
            res = pontryagin_residuals(cp, state)
            vp = VariationalProblem(lag, grid, alpha, ([0.0], [float(q.values[-1, 0])]))
            el = el_residual(vp, q).values
            scale = np.max(np.abs(el)) + 1e-30
            assert np.max(np.abs(res[2].values - el)) <= 1e-10 * scale
            for k in (0, 1, 3, 4):
                npt.assert_array_equal(res[k].values, 0.0)

    def test_variational_forms_are_the_control_forms_at_the_reduction_momenta(self):
        # acceptance criterion 9's five reductions: el_residual is residual
        # (iii) and noether_quantity is control_noether_quantity, both at
        # p = -dL/dv and p_alpha = -dL/dw; only the two energy terms are
        # assembled differently
        rng = np.random.default_rng(77)
        for trial in range(5):
            cv, cw = rng.uniform(0.5, 2.0, size=2)
            cq, slope = rng.uniform(-0.5, 0.5, size=2)
            lag = quadratic_mix(cv, cw, cq, slope)
            grid = Grid(0.0, 1.0, 64)
            alpha = rng.uniform(0.3, 0.9)
            cp = variational_reduction(lag, grid, alpha, [0.0])
            t = grid.nodes()
            q = GridFunction(grid, t + 0.3 * np.sin((trial + 1) * np.pi * t))
            state = reduction_state(cp, q, lag)
            vp = VariationalProblem(lag, grid, alpha, ([0.0], [float(q.values[-1, 0])]))
            npt.assert_array_equal(el_residual(vp, q).values, pontryagin_residuals(cp, state)[2].values)
            sol = SimpleNamespace(trajectory=q)  # noether_quantity reads only the trajectory
            space, time = space_translation([1.0]), time_translation()
            npt.assert_array_equal(
                noether_quantity(vp, sol, space, 3).values,
                control_noether_quantity(cp, state, space, 3).values,
            )
            got = noether_quantity(vp, sol, time, 3).values
            expected = control_noether_quantity(cp, state, time, 3).values
            assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_dimension_validation(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        g = cp.grid
        bad = GridFunction(g, np.zeros((17, 2)))
        one = GridFunction(g, np.ones(17))
        state = PontryaginState(q=bad, u=one, mu=one, p=one, p_alpha=one)
        with pytest.raises(ValidationError):
            pontryagin_residuals(cp, state)

    @pytest.mark.parametrize(
        "values, grid",
        [(np.ones((17, 2)), None), (np.ones(17), Grid(0.0, 2.0, 16))],
        ids=["dimension", "grid"],
    )
    def test_control_off_the_problem_grid_is_a_grid_mismatch(self, values, grid):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        one = GridFunction(cp.grid, np.ones(17))
        bad = GridFunction(grid or cp.grid, values)
        state = PontryaginState(q=one, u=bad, mu=one, p=one, p_alpha=one)
        with pytest.raises(GridMismatchError, match="^u "):
            optctrl.hamiltonian_values(cp, state)


# ------------------------------------------------------------- the solver


class TestSolveControl:
    def test_classical_lq_against_closed_form(self):
        # free-endpoint LQ: qdd = q with q(0) = 1, p(T) = 0 gives
        # q(t) = cosh(T - t) / cosh(T), p(t) = sinh(T - t) / cosh(T)
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 64), 1.0, 1.0, frac_weight=0.0)
        state = solve_control(cp)
        t = cp.grid.nodes()
        q_exact = np.cosh(1.0 - t) / np.cosh(1.0)
        p_exact = np.sinh(1.0 - t) / np.cosh(1.0)
        assert np.max(np.abs(state.q.column() - q_exact)) < 1e-3
        assert np.max(np.abs(state.p.column() - p_exact)) < 1e-3
        assert state.diagnostics.defect_norms[-1] < state.diagnostics.defect_norms[0]

    def test_zero_cost_minimum_without_fractional_channel(self):
        zeros_jac0 = lambda t, *args: np.zeros((len(t), 1, 0))
        cp = ControlProblem(
            cost=lambda t, q, u, mu: u[:, 0] ** 2,
            cost_dq=lambda t, q, u, mu: np.zeros((len(t), 1)),
            cost_du=lambda t, q, u, mu: 2.0 * u,
            cost_dmu=lambda t, q, u, mu: np.zeros((len(t), 0)),
            velocity=lambda t, q, u: u,
            velocity_dq=lambda t, q, u: np.zeros((len(t), 1, 1)),
            velocity_du=lambda t, q, u: np.ones((len(t), 1, 1)),
            frac_velocity=lambda t, q, mu: np.zeros((len(t), 1)),
            frac_velocity_dq=lambda t, q, mu: np.zeros((len(t), 1, 1)),
            frac_velocity_dmu=zeros_jac0,
            alpha=0.5,
            grid=Grid(0.0, 1.0, 32),
            q_start=[0.0],
            state_dim=1,
            control_dim=1,
            frac_dim=0,
            autonomous=True,
        )
        state = solve_control(cp)
        assert np.max(np.abs(state.u.values)) < 1e-6
        assert np.max(np.abs(state.q.values)) < 1e-6

    def test_equivalence_with_variational_module(self):
        # drive the state to 1 through a terminal penalty, then solve the
        # matching fixed-endpoint variational problem and compare costs
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 64), 0.5, 0.0, state_weight=0.0)
        state = solve_control(cp, terminal_state=[1.0])
        cost = trapezoid(
            0.5 * (state.u.column() ** 2 + state.mu.column() ** 2), cp.grid.h
        )
        reached = float(state.q.column()[-1])
        vp = VariationalProblem(quadratic_mix(1.0, 1.0), cp.grid, 0.5, ([0.0], [reached]))
        sol = solve_extremal(vp)
        assert abs(cost - sol.action) < 1e-3

    def test_infeasible_dynamics_reported(self):
        # D_C^alpha q = 1 cannot hold at t = a where the derivative vanishes
        zeros_jac0 = lambda t, *args: np.zeros((len(t), 1, 0))
        cp = ControlProblem(
            cost=lambda t, q, u, mu: 0.5 * u[:, 0] ** 2,
            cost_dq=lambda t, q, u, mu: np.zeros((len(t), 1)),
            cost_du=lambda t, q, u, mu: u,
            cost_dmu=lambda t, q, u, mu: np.zeros((len(t), 0)),
            velocity=lambda t, q, u: u,
            velocity_dq=lambda t, q, u: np.zeros((len(t), 1, 1)),
            velocity_du=lambda t, q, u: np.ones((len(t), 1, 1)),
            frac_velocity=lambda t, q, mu: np.ones((len(t), 1)),
            frac_velocity_dq=lambda t, q, mu: np.zeros((len(t), 1, 1)),
            frac_velocity_dmu=zeros_jac0,
            alpha=0.5,
            grid=Grid(0.0, 1.0, 32),
            q_start=[0.0],
            state_dim=1,
            control_dim=1,
            frac_dim=0,
            autonomous=True,
        )
        with pytest.raises(NumericsError):
            solve_control(cp)

    def test_dimension_caps(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        cp.state_dim = 5
        with pytest.raises(ValidationError):
            solve_control(cp)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            solve_control(cp, tol=tol)

    def test_unknowns_capped_before_allocating(self):
        # n = 2048 with 4 dims per channel: 24,584 unknowns, a 4.8 GB Hessian
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 2048), 0.5, 1.0)
        cp.state_dim = cp.control_dim = cp.frac_dim = 4
        with pytest.raises(ValidationError, match="unknowns"):
            solve_control(cp)

    def test_unknowns_cap_refuses_4097_before_allocating(self):
        # n = 1365 with (q, u, mu) per node: 3 * 1366 - 1 = 4097 unknowns,
        # one past the cap at which four dense Hessians fill 512 MiB
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 1365), 0.5, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="up to 4096 unknowns, got 4097"):
                solve_control(cp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("q_start", [np.nan, np.inf])
    def test_non_finite_initial_state_rejected(self, q_start):
        with pytest.raises(ValidationError, match="initial state must be finite"):
            scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, q_start)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, "below-minimum"])
    @pytest.mark.parametrize(
        "field, minimum", [("state_dim", 1), ("control_dim", 1), ("frac_dim", 0)]
    )
    def test_dimensions_must_be_integers(self, field, minimum, value):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        bad = minimum - 1 if value == "below-minimum" else value
        with pytest.raises(ValidationError, match=f"^{field} must be an integer >= {minimum}"):
            dataclasses.replace(cp, **{field: bad})

    def test_whole_float_dimensions_are_ints(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        cp = dataclasses.replace(cp, state_dim=1.0, control_dim=1.0, frac_dim=1.0)
        assert all(type(d) is int for d in (cp.state_dim, cp.control_dim, cp.frac_dim))

    @pytest.mark.parametrize("terminal", [[np.nan], [-np.inf]])
    def test_non_finite_terminal_state_rejected(self, terminal):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        with pytest.raises(ValidationError, match="terminal state must be finite"):
            solve_control(cp, terminal_state=terminal)

    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_difference_matrix_is_summation_by_parts(self, n):
        # W D + (W D)' = diag(-1, 0, ..., 0, 1) with trapezoid weights W: the
        # discrete int q' p + q p' = q p |_a^b behind the adjoint recovery
        h = 1.0 / n
        wd = trapezoid_weights(n, h)[:, None] * optctrl._sbp_difference_matrix(n, h)
        boundary = np.zeros((n + 1, n + 1))
        boundary[0, 0], boundary[n, n] = -1.0, 1.0
        npt.assert_allclose(wd + wd.T, boundary, atol=1e-14)

    @pytest.mark.parametrize(
        "problem, terminal",
        [
            (lambda: feasible_nonlinear_problem(8), None),
            (lambda: scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0), [0.7]),
        ],
        ids=["feasible-nonlinear", "linear-quadratic-terminal"],
    )
    def test_control_gradient_is_weighted_stationarity_residual(
        self, monkeypatch, problem, terminal
    ):
        # at any point, the first round's penalty gradient in an interior
        # node's (u, mu) is wt times residuals (iv) and (v) at the multiplier
        # estimates p = -weight * e1 and p_alpha = -weight * e2
        cp = problem()
        grad, _, m = captured_direction(monkeypatch, cp, terminal)
        n, h, sd, md = cp.grid.n, cp.grid.h, cp.state_dim, cp.control_dim
        z = np.random.default_rng(31).standard_normal(m)
        q, u, mu = np.hsplit(np.concatenate((cp.q_start, z)).reshape(n + 1, -1), (sd, sd + md))
        t = cp.grid.nodes()
        e1 = optctrl._sbp_difference_matrix(n, h) @ q - cp.velocity(t, q, u)
        e2 = caputo_left_matrix(n, h, cp.alpha) @ q - cp.frac_velocity(t, q, mu)
        weight = optctrl._BASE_WEIGHT
        fields = (q, u, mu, -weight * e1, -weight * e2)
        state = PontryaginState(*(GridFunction(cp.grid, v) for v in fields))
        _, _, _, res4, res5 = pontryagin_residuals(cp, state)
        expected = trapezoid_weights(n, h)[:, None] * np.hstack((res4.values, res5.values))
        g = np.concatenate((np.zeros(sd), grad(z))).reshape(n + 1, -1)
        bound = 1e-12 * np.max(np.abs(expected))
        npt.assert_allclose(g[1:-1, sd:], expected[1:-1], rtol=0.0, atol=bound)

    def test_penalty_hessian_matches_finite_differences_of_gradient(self, monkeypatch):
        # the Newton step at a random point solves the system of the
        # gradient's central differences, shifted by the tau that the
        # dense rule picks on them (the point is not convex), to the
        # residual that an entrywise Hessian error of 1e-7 max|fd| allows
        grad, direction, m = captured_direction(monkeypatch, nonlinear_problem(8), [0.5, -0.4])
        hessians = []
        assemble = PointwiseSum.hessian
        monkeypatch.setattr(
            PointwiseSum, "hessian", lambda *a: hessians.append(assemble(*a)) or hessians[-1]
        )
        z = np.random.default_rng(23).standard_normal(m)
        g = grad(z)
        p = direction(z, g)
        fd = np.empty((m, m))
        step = 1e-6
        for j in range(m):
            zp, zm = z.copy(), z.copy()
            zp[j] += step
            zm[j] -= step
            fd[:, j] = (grad(zp) - grad(zm)) / (2.0 * step)
        _, tau = dense_shifted_newton(fd.copy(), g)
        assert tau > 0.0
        reduced = hessians[-1]  # the states' matrix that was factored, node 0 included
        assert reduced.shape == (9 * 2, 9 * 2)
        npt.assert_array_equal(reduced, reduced.T)
        bound = 1e-7 * np.max(np.abs(fd)) * np.sum(np.abs(p))
        assert np.max(np.abs(fd @ p + tau * p + g)) <= bound

    @pytest.mark.parametrize(
        "problem, terminal, seed",
        [
            (lambda: scalar_tracking_problem(Grid(0.0, 1.0, 32), 0.5, 1.0), None, None),
            (lambda: nonlinear_problem(8), [0.5, -0.4], 23),
        ],
        ids=["linear-quadratic", "nonlinear"],
    )
    def test_eliminated_step_matches_dense_shifted_newton(
        self, monkeypatch, problem, terminal, seed
    ):
        # the reference: the penalty Hessian assembled over all m unknowns
        # from the same node blocks, shifted by the smallest doubling tau
        # that lets its Cholesky factorization succeed; convex LQ takes
        # tau = 0 at the start, the nonlinear problem tau > 0 at its random point
        cp = problem()
        grad, direction, m = captured_direction(monkeypatch, cp, terminal)
        calls = []
        eliminate = optctrl.schur_newton
        monkeypatch.setattr(
            optctrl, "schur_newton", lambda *a, **kw: calls.append((a, kw)) or eliminate(*a, **kw)
        )
        sd, s = cp.state_dim, cp.state_dim + cp.control_dim + cp.frac_dim
        z = np.tile(np.concatenate((cp.q_start, np.zeros(s - sd))), cp.grid.n + 1)[sd:]
        if seed is not None:
            z = np.random.default_rng(seed).standard_normal(m)
        g = grad(z)
        p = direction(z, g)
        (states, point, *_), kwargs = calls[0]
        assert kwargs == {"fixed": sd}
        # the node's (q, a, c, u, mu) blocks back in the order (y, a, c), at
        # the slots (None, k), (D, k) and (C, k) over all s values of a node
        back = np.concatenate((np.arange(sd), np.arange(3 * sd, 2 * sd + s), np.arange(sd, 3 * sd)))
        at = np.concatenate((np.arange(s), np.arange(s, s + sd), np.arange(2 * s, 2 * s + sd)))
        embedded = np.zeros((len(point), 3 * s, 3 * s))
        embedded[:, at[:, None], at] = point[:, back][:, :, back]
        full = PointwiseSum((cp.grid.n + 1, s), states.slots)
        expected, tau = dense_shifted_newton(full.hessian(embedded)[sd:, sd:], g)
        assert (tau > 0.0) == (seed is not None)
        npt.assert_allclose(p, expected, rtol=0.0, atol=1e-10 * np.max(np.abs(expected)))

    def test_solve_holds_no_dense_matrix_over_all_unknowns(self):
        # n = 1024 has m = 3074 unknowns: one m x m float64 array is 72 MiB
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 1024), 0.5, 1.0)
        m = 3 * 1025 - 1
        tracemalloc.start()
        try:
            state = solve_control(cp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.diagnostics.gradient_norm < 1e-6
        assert peak < m * m * 8

    def test_linear_quadratic_round_takes_one_newton_step(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 128), 0.5, 1.0)
        state = solve_control(cp)
        assert state.diagnostics.iterations == 1
        assert state.diagnostics.gradient_norm < 1e-10

    def test_nonlinear_dynamics_converge(self, monkeypatch):
        # the first round takes several Newton steps, so the eliminated step
        # and the assembled Schur complement run off the linear-quadratic path
        cp = feasible_nonlinear_problem(32)
        rounds = []
        minimize = optctrl.bfgs_minimize
        monkeypatch.setattr(
            optctrl, "bfgs_minimize", lambda *a, **kw: rounds.append(minimize(*a, **kw)) or rounds[-1]
        )
        state = solve_control(cp)
        assert state.diagnostics.gradient_norm < 1e-6
        steps = [result.iterations for result in rounds]
        # more than one step at first; the warm-started rounds converge
        # quadratically in two (a Hessian 10% off in one branch takes 3 or 4)
        assert steps[0] > 1 and max(steps[1:]) <= 2
        d = state.diagnostics.defect_norms
        assert len(d) == 3 and all(b <= 0.2 * a for a, b in zip(d, d[1:]))
        res = pontryagin_residuals(cp, state)
        assert np.max(np.abs(res[0].values)) < 10.0 * d[-1]
        assert np.max(np.abs(res[1].values)) < 10.0 * d[-1]

    def test_hamiltonian_system_consistency(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 64), 0.5, 1.0)
        state = solve_control(cp)
        res = pontryagin_residuals(cp, state)
        defect = state.diagnostics.defect_norms[-1]
        assert np.max(np.abs(res[0].values)) < 10.0 * defect
        assert np.max(np.abs(res[1].values)) < 10.0 * defect


# ----------------------------------------------------- conserved quantities


class TestControlQuantities:
    def test_time_translation_reduces_to_autonomous_quantity(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 64), 0.5, 1.0)
        state = solve_control(cp)
        c_full = control_noether_quantity(cp, state, time_translation(), truncation=2)
        c_auto = autonomous_control_quantity(cp, state)
        npt.assert_array_equal(c_full.values, c_auto.values)

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_autonomous_quantity_equals_its_formula(self, alpha):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 48), alpha, 1.0, state_weight=0.8)
        state = solve_control(cp)
        cap_q = caputo_left(state.q, alpha).values
        formula = optctrl.hamiltonian_values(cp, state) - (1.0 - alpha) * np.sum(
            state.p_alpha.values * cap_q, axis=1
        )
        npt.assert_array_equal(autonomous_control_quantity(cp, state).values[:, 0], formula)

    def test_symmetry_of_another_dimension_is_a_grid_mismatch(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        state = solve_control(cp)
        with pytest.raises(GridMismatchError, match="^symmetry has dimension 2, expected 1"):
            control_noether_quantity(cp, state, space_translation([1.0, 0.0]))

    def test_classical_hamiltonian_preserved(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 64), 1.0, 1.0, frac_weight=0.0)
        state = solve_control(cp)
        c = control_noether_quantity(cp, state, time_translation(), truncation=2)
        assert drift_report(c) < 1e-3

    def test_alpha_one_quantity_equals_hamiltonian(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 32), 1.0, 1.0, frac_weight=0.0)
        state = solve_control(cp)
        c = autonomous_control_quantity(cp, state)
        q, u, mu, p, pa = (
            state.q.values,
            state.u.values,
            state.mu.values,
            state.p.values,
            state.p_alpha.values,
        )
        ham = _hamiltonian_values(cp, q, u, mu, p, pa)
        npt.assert_array_equal(c.values[:, 0], ham)

    def test_zero_fractional_covector_reduces_to_hamiltonian(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 32), 0.5, 1.0)
        g = cp.grid
        one = GridFunction(g, np.ones(33))
        zero = GridFunction(g, np.zeros(33))
        q = GridFunction(g, np.full(33, 1.0))
        state = PontryaginState(q=q, u=one, mu=one, p=one, p_alpha=zero)
        c = autonomous_control_quantity(cp, state)
        ham = _hamiltonian_values(cp, q.values, one.values, one.values, one.values, zero.values)
        npt.assert_array_equal(c.values[:, 0], ham)

    def test_reduction_sign_identity_with_variational_quantity(self):
        # algebraic identity: with u = qdot, mu = D_C^alpha q, p = -dL/dv,
        # p_alpha = -dL/dw one gets H - (1-alpha) p_alpha . mu
        #   = L - qdot . dL/dv - alpha dL/dw . D_C^alpha q  (equal, same sign)
        lag = quadratic_mix(1.2, 0.8, 0.3, 0.1)
        grid = Grid(0.0, 1.0, 64)
        alpha = 0.6
        cp = variational_reduction(lag, grid, alpha, [0.0])
        q = random_smooth(grid, seed=21)
        q.values[0] = 0.0
        state = reduction_state(cp, q, lag)
        c_ctrl = autonomous_control_quantity(cp, state)
        t = grid.nodes()
        u = state.u.values
        mu = state.mu.values
        lvals = np.asarray(lag.evaluate(t, q.values, u, mu), float)
        d3 = np.asarray(lag.dv(t, q.values, u, mu), float)
        d4 = np.asarray(lag.dw(t, q.values, u, mu), float)
        c_var = lvals - np.sum(u * d3, axis=1) - alpha * np.sum(d4 * mu, axis=1)
        npt.assert_allclose(c_ctrl.values[:, 0], c_var, atol=1e-12)

    def test_rejects_non_autonomous(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 1.0)
        cp.autonomous = False
        state = zero_state(cp)
        with pytest.raises(ValidationError):
            autonomous_control_quantity(cp, state)

    def test_corrected_quantity_never_worse_than_hamiltonian(self):
        drifts = []
        for n in (32, 64, 128):
            cp = scalar_tracking_problem(Grid(0.0, 1.0, n), 0.5, 1.0)
            state = solve_control(cp)
            corrected = autonomous_control_quantity(cp, state)
            q, u, mu, p, pa = (
                state.q.values,
                state.u.values,
                state.mu.values,
                state.p.values,
                state.p_alpha.values,
            )
            ham = GridFunction(cp.grid, _hamiltonian_values(cp, q, u, mu, p, pa))
            drifts.append((drift_report(corrected), drift_report(ham)))
        for corrected_drift, ham_drift in drifts:
            assert corrected_drift <= ham_drift
        assert drifts[0][0] > drifts[1][0] > drifts[2][0]


# --------------------------------------------------------------- validation


class TestContractValidation:
    def test_wrong_jacobian_rejected(self):
        with pytest.raises(ValidationError):
            ControlProblem(
                cost=lambda t, q, u, mu: 0.5 * u[:, 0] ** 2,
                cost_dq=lambda t, q, u, mu: np.zeros((len(t), 1)),
                cost_du=lambda t, q, u, mu: 3.0 * u,  # wrong factor
                cost_dmu=lambda t, q, u, mu: np.zeros((len(t), 1)),
                velocity=lambda t, q, u: u,
                velocity_dq=lambda t, q, u: np.zeros((len(t), 1, 1)),
                velocity_du=lambda t, q, u: np.ones((len(t), 1, 1)),
                frac_velocity=lambda t, q, mu: mu,
                frac_velocity_dq=lambda t, q, mu: np.zeros((len(t), 1, 1)),
                frac_velocity_dmu=lambda t, q, mu: np.ones((len(t), 1, 1)),
                alpha=0.5,
                grid=Grid(0.0, 1.0, 16),
                q_start=[0.0],
                state_dim=1,
                control_dim=1,
                frac_dim=1,
            )

    def test_initial_condition_enforced(self):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, 16), 0.5, 0.5)
        g = cp.grid
        one = GridFunction(g, np.ones(17))
        state = PontryaginState(q=one, u=one, mu=one, p=one, p_alpha=one)
        with pytest.raises(ValidationError):
            pontryagin_residuals(cp, state)  # q(a) = 1 but q_start = 0.5


# ------------------------------------------------ the linear-quadratic family


def explicit_lq_problem(grid, alpha, q_start, state_weight, control_weight, frac_weight):
    """The linear-quadratic problem written out with its own lambdas."""

    def cost(t, q, u, mu):  # quadratic_mix's terms, in its order
        return (
            0.5 * control_weight * u[:, 0] ** 2
            + 0.5 * frac_weight * mu[:, 0] ** 2
            + 0.5 * state_weight * q[:, 0] ** 2
            + 0.0 * q[:, 0]
        )

    ones = lambda t: np.ones((len(t), 1, 1))
    zeros = lambda t: np.zeros((len(t), 1, 1))
    return ControlProblem(
        cost=cost,
        cost_dq=lambda t, q, u, mu: state_weight * q,
        cost_du=lambda t, q, u, mu: control_weight * u,
        cost_dmu=lambda t, q, u, mu: frac_weight * mu,
        velocity=lambda t, q, u: u,
        velocity_dq=lambda t, q, u: zeros(t),
        velocity_du=lambda t, q, u: ones(t),
        frac_velocity=lambda t, q, mu: mu,
        frac_velocity_dq=lambda t, q, mu: zeros(t),
        frac_velocity_dmu=lambda t, q, mu: ones(t),
        alpha=alpha,
        grid=grid,
        q_start=[q_start],
        state_dim=1,
        control_dim=1,
        frac_dim=1,
        autonomous=True,
    )


class TestLinearQuadraticFamily:
    @pytest.mark.parametrize(
        "n, alpha, q_start, weights, terminal",
        [
            (64, 0.5, 1.0, (1.0, 1.0, 1.0), None),
            (48, 0.37, 0.9, (1.07, 0.93, 1.02), None),
            (32, 1.0, -0.6, (0.0, 1.3, 0.0), [0.4]),
        ],
    )
    def test_matches_explicit_problem(self, n, alpha, q_start, weights, terminal):
        grid = Grid(0.0, 1.0, n)
        kw = dict(zip(("state_weight", "control_weight", "frac_weight"), weights))
        cp = scalar_tracking_problem(grid, alpha, q_start, **kw)
        ref_cp = explicit_lq_problem(grid, alpha, q_start, *weights)
        assert cp.autonomous
        state = solve_control(cp, terminal_state=terminal)
        ref = solve_control(ref_cp, terminal_state=terminal)
        for label in ("q", "u", "mu", "p", "p_alpha"):
            npt.assert_array_equal(getattr(state, label).values, getattr(ref, label).values)
        assert state.diagnostics == ref.diagnostics
        npt.assert_array_equal(
            optctrl.hamiltonian_values(cp, state), optctrl.hamiltonian_values(ref_cp, ref)
        )
