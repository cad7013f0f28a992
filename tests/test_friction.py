import math

import numpy as np
import numpy.testing as npt
import pytest

from fracvar.errors import NumericsError, ValidationError
from fracvar.fracops import rl_derivative_right
from fracvar.friction import (
    FRICTION_ORDER,
    FrictionProblem,
    friction_diagnostics,
    friction_lagrangian,
    friction_variational_problem,
    simulate_damped_eom,
    window_shrink_study,
)
from fracvar.grid import Grid, GridFunction, central_difference
from fracvar.lagrangian import polynomial_potential
from fracvar.noether import autonomous_quantity, drift_report
from fracvar.variational import el_residual, solve_extremal

ZERO_POTENTIAL = (lambda q: np.zeros_like(q), lambda q: np.zeros_like(q))


def make_problem(mass=1.0, gamma=1.0, potential=None, window=None):
    u, du = potential if potential is not None else ZERO_POTENTIAL
    win = window if window is not None else Grid(0.0, 1.0, 128)
    return FrictionProblem(mass, gamma, u, du, win)


# ------------------------------------------------------------- Lagrangian


class TestFrictionLagrangian:
    def test_frictionless_free_case_reduces(self):
        fp = make_problem(gamma=0.0)
        lag = friction_lagrangian(fp)
        t = np.zeros(3)
        q = np.zeros((3, 1))
        v = np.array([[1.0], [2.0], [3.0]])
        w = np.array([[5.0], [5.0], [5.0]])
        npt.assert_allclose(lag.evaluate(t, q, v, w), 0.5 * v[:, 0] ** 2, atol=1e-15)

    def test_caputo_partial_is_linear(self):
        fp = make_problem(gamma=2.0)
        lag = friction_lagrangian(fp)
        w = np.array([[3.0]])
        out = lag.dw(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), w)
        assert out[0, 0] == pytest.approx(6.0, abs=1e-15)

    def test_partials_match_finite_differences(self):
        u, du = polynomial_potential([0.0, 0.0, 0.65])
        fp = make_problem(mass=1.2, gamma=0.7, potential=(u, du))
        lag = friction_lagrangian(fp)
        rng = np.random.default_rng(12)
        t = rng.uniform(size=16)
        q = rng.standard_normal((16, 1))
        v = rng.standard_normal((16, 1))
        w = rng.standard_normal((16, 1))
        step = 1e-6
        for partial, slot in ((lag.dq, 0), (lag.dv, 1), (lag.dw, 2)):
            args = [q, v, w]
            hi = [a.copy() for a in args]
            lo = [a.copy() for a in args]
            hi[slot][:, 0] += step
            lo[slot][:, 0] -= step
            fd = (lag.evaluate(t, *hi) - lag.evaluate(t, *lo)) / (2.0 * step)
            npt.assert_allclose(partial(t, q, v, w)[:, 0], fd, atol=1e-8)

    def test_invalid_parameters_rejected(self):
        u, du = ZERO_POTENTIAL
        with pytest.raises(ValidationError):
            FrictionProblem(0.0, 1.0, u, du, Grid(0.0, 1.0, 16))
        with pytest.raises(ValidationError):
            FrictionProblem(1.0, -0.5, u, du, Grid(0.0, 1.0, 16))


# ------------------------------------------------------------ diagnostics


class TestFrictionDiagnostics:
    def test_frictionless_hamiltonian_is_classical_energy(self):
        u, du = polynomial_potential([0.0, 0.0, 0.5])
        win = Grid(0.0, math.pi / 2.0, 512)
        fp = make_problem(gamma=0.0, potential=(u, du), window=win)
        q = GridFunction(win, np.cos(win.nodes()))
        diag = friction_diagnostics(fp, q)
        t = win.nodes()
        energy = 0.5 * np.sin(t) ** 2 + 0.5 * np.cos(t) ** 2
        npt.assert_allclose(diag.hamiltonian.column()[1:-1], energy[1:-1], atol=1e-4)
        assert drift_report(diag.hamiltonian) < 1e-4

    def test_half_momentum_of_linear_motion(self):
        win = Grid(0.0, 1.0, 1024)
        fp = make_problem(gamma=0.8, window=win)
        v0 = 1.7
        q = GridFunction(win, v0 * win.nodes())
        diag = friction_diagnostics(fp, q)
        t = win.nodes()
        expected = 0.8 * v0 * 2.0 * np.sqrt(t / math.pi)
        npt.assert_allclose(diag.half_momentum.column()[1:], expected[1:], atol=2e-3)

    def test_potential_grad_that_is_not_the_potential_derivative_is_rejected(self):
        # the diagnostics build the Lagrangian, whose contract check compares
        # potential_grad with finite differences of potential
        u, _ = polynomial_potential([0.0, 0.0, 0.5])
        fp = make_problem(potential=(u, lambda q: 2.0 * q), window=Grid(0.0, 1.0, 64))
        q = GridFunction(fp.window, np.sin(fp.window.nodes()))
        with pytest.raises(ValidationError, match="analytic partial dq"):
            friction_diagnostics(fp, q)


# ------------------------------------------------------------ shrink study


class TestWindowShrinkStudy:
    def windows(self, center=1.0, base=0.5, count=5, n=256):
        return [Grid(center - base / 2**k / 2.0, center + base / 2**k / 2.0, n) for k in range(count)]

    def test_linear_motion_energy_halves_per_halving(self):
        fp = make_problem(gamma=0.9, window=Grid(0.0, 2.0, 64))
        table = window_shrink_study(fp, lambda t: 1.3 * t, self.windows())
        energy = table["friction_energy"]
        for k in range(len(energy) - 1):
            assert energy[k + 1] / energy[k] == pytest.approx(0.5, abs=0.05)

    def test_frictionless_columns_vanish(self):
        fp = make_problem(gamma=0.0, window=Grid(0.0, 2.0, 64))
        table = window_shrink_study(fp, lambda t: t, self.windows())
        npt.assert_array_equal(table["friction_energy"], 0.0)
        npt.assert_array_equal(table["half_momentum_mid"], 0.0)

    def test_half_momentum_bound_and_decay(self):
        gamma, slope = 0.7, 1.3
        fp = make_problem(gamma=gamma, window=Grid(0.0, 2.0, 64))
        table = window_shrink_study(fp, lambda t: slope * t, self.windows())
        bound = gamma * abs(slope) * 2.0 * np.sqrt(table["delta_t"])
        assert np.all(np.abs(table["half_momentum_mid"]) < bound)
        assert np.all(np.diff(np.abs(table["half_momentum_mid"])) < 0.0)

    def test_midpoint_constant_is_half_of_endpoint_form(self):
        # reported, not asserted against the model constant: mid-window
        # evaluation gives exactly half the end-of-window first-order value
        fp = make_problem(gamma=1.0, window=Grid(0.0, 2.0, 64))
        table = window_shrink_study(fp, lambda t: t, self.windows(n=512))
        npt.assert_allclose(table["ratio"], 0.5, atol=0.02)

    def test_rejects_non_nested_windows(self):
        fp = make_problem()
        bad = [Grid(0.0, 1.0, 64), Grid(0.3, 1.1, 64)]
        with pytest.raises(ValidationError):
            window_shrink_study(fp, lambda t: t, bad)

    def test_rejects_growing_windows(self):
        fp = make_problem()
        bad = [Grid(0.4, 0.6, 64), Grid(0.3, 0.7, 64)]
        with pytest.raises(ValidationError):
            window_shrink_study(fp, lambda t: t, bad)


# ------------------------------------------------------------- integrator


class TestSimulateDampedEom:
    def test_damped_free_closed_form(self):
        fp = make_problem(mass=1.0, gamma=1.0)
        out = simulate_damped_eom(fp, q0=0.0, v0=1.0, horizon=1.0, steps=1024)
        assert out.values[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)

    def test_frictionless_free_motion_is_exact(self):
        # U' of the empty polynomial: the affine path with zero force
        fp = make_problem(gamma=0.0, potential=polynomial_potential([]))
        out = simulate_damped_eom(fp, q0=0.25, v0=2.0, horizon=3.0, steps=64)
        t = out.grid.nodes()
        npt.assert_allclose(out.values[:, 0], 0.25 + 2.0 * t, atol=1e-12)

    def test_oscillator_energy_conservation(self):
        u, du = polynomial_potential([0.0, 0.0, 0.5])
        fp = make_problem(gamma=0.0, potential=(u, du))
        out = simulate_damped_eom(fp, q0=1.0, v0=0.0, horizon=10.0, steps=4096)
        energy = 0.5 * out.values[:, 1] ** 2 + 0.5 * out.values[:, 0] ** 2
        assert np.max(np.abs(energy - energy[0])) < 1e-8

    @staticmethod
    def vector_stage_reference(fp, force, q0, v0, horizon, steps):
        """RK4 with array-valued stages y + c * k, the operation order the integrator keeps."""
        dt = horizon / steps

        def rhs(y):
            return np.array([y[1], (force(y[0]) - fp.gamma * y[1]) / fp.mass])

        y = np.array([q0, v0])
        ref = [y]
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ref.append(y)
        return np.array(ref)

    def test_matches_vector_stage_reference_bitwise(self):
        # the force is evaluated as the integrator does, on a Python float:
        # q**4 is libm pow there and numpy's power ufunc on a 0-d array,
        # which differ in the last ulp on some inputs
        fp = make_problem(mass=1.03, gamma=0.7, potential=(lambda q: q**4, lambda q: 4.0 * q**3))
        ref = self.vector_stage_reference(
            fp, lambda q: -float(fp.potential_grad(float(q))), 1.02, -0.05, 2.0, 2048
        )
        out = simulate_damped_eom(fp, q0=1.02, v0=-0.05, horizon=2.0, steps=2048)
        npt.assert_array_equal(out.values, ref)

    def test_polynomial_potential_matches_zero_d_array_reference_bitwise(self):
        # the scenario's potential: Horner's rule gives the same bits on a
        # Python float as the force callback gives on a 0-d array
        fp = make_problem(
            mass=1.03, gamma=0.7, potential=polynomial_potential([0.3, -0.2, 2.1, 0.4])
        )
        force = lambda q: float(-np.asarray(fp.potential_grad(np.asarray(q)), dtype=float))
        ref = self.vector_stage_reference(fp, force, 1.02, -0.05, 2.0, 2048)
        out = simulate_damped_eom(fp, q0=1.02, v0=-0.05, horizon=2.0, steps=2048)
        npt.assert_array_equal(out.values, ref)

    @pytest.mark.parametrize(
        "coeffs",
        [[], [0.4], [0.1, -0.3], [0.2, -0.3, 2.1]],
        ids=["zero", "constant", "linear", "quadratic"],
    )
    def test_affine_force_is_never_called(self, coeffs):
        # a force of degree <= 1 is read from its Horner coefficients, so the
        # integrator fills the trajectory without calling it
        u, du = polynomial_potential(coeffs)
        calls = []

        def counting(q):
            calls.append(q)
            return du(q)

        counting.coefficients = du.coefficients
        fp = make_problem(mass=1.03, gamma=0.7, potential=(u, counting))
        out = simulate_damped_eom(fp, q0=1.02, v0=-0.05, horizon=2.0, steps=2048)
        assert calls == []
        ref = self.vector_stage_reference(
            fp, lambda q: -float(du(float(q))), 1.02, -0.05, 2.0, 2048
        )
        npt.assert_allclose(out.values, ref, rtol=0.0, atol=1e-13)

    def test_affine_path_is_at_the_rounding_floor_of_the_closed_form(self):
        # the benchmark's underdamped oscillator, m q'' + gamma q' + k q = 0;
        # step-by-step RK4 rounding reaches 3.4e-15 here, the step matrix 6.7e-16
        m, gamma, k, q0, v0 = 1.077788, 0.470256, 4.649042, 1.011095, -0.047459
        fp = make_problem(mass=m, gamma=gamma, potential=polynomial_potential([0.0, 0.0, k / 2.0]))
        out = simulate_damped_eom(fp, q0=q0, v0=v0, horizon=2.0, steps=16384)
        t = out.grid.nodes()
        lam = gamma / (2.0 * m)
        wd = math.sqrt(k / m - lam * lam)
        exact = np.exp(-lam * t) * (q0 * np.cos(wd * t) + (v0 + lam * q0) / wd * np.sin(wd * t))
        assert np.max(np.abs(out.values[:, 0] - exact)) <= 2e-15
        ref = self.vector_stage_reference(
            fp, lambda q: -float(fp.potential_grad(float(q))), q0, v0, 2.0, 16384
        )
        npt.assert_allclose(out.values, ref, rtol=0.0, atol=1e-13)

    @staticmethod
    def blowup_message(stiffness, polynomial=False):
        # U = -stiffness q^2 / 2: repulsive, unstable
        if polynomial:
            stiff = polynomial_potential([0.0, 0.0, -0.5 * stiffness])
        else:
            stiff = (lambda q: -0.5 * stiffness * q**2, lambda q: -stiffness * q)
        fp = make_problem(gamma=0.0, potential=stiff)
        with pytest.raises(NumericsError) as info:
            simulate_damped_eom(fp, q0=1.0, v0=0.0, horizon=10.0, steps=16)
        return str(info.value)

    def test_blowup_detected(self):
        assert "blew up at step 1 (t = 0.625);" in self.blowup_message(1e9)

    def test_blowup_detected_at_the_step_it_happens(self):
        # checked after every step, not once at the end
        assert "blew up at step 12 (t = 7.5);" in self.blowup_message(16.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "stiffness, where",
        [(1e9, "step 1 (t = 0.625)"), (16.0, "step 12 (t = 7.5)"), (1e30, "step 1 (t = 0.625)")],
    )
    def test_affine_blowup_is_reported_at_the_same_step(self, stiffness, where):
        # the step-matrix path reports the first bad row, as the loop reports
        # the first bad step; at 1e30 its squarings overflow, without a warning
        message = self.blowup_message(stiffness, polynomial=True)
        assert f"blew up at {where};" in message
        assert message == self.blowup_message(stiffness)

    def test_step_floor(self):
        fp = make_problem()
        with pytest.raises(ValidationError):
            simulate_damped_eom(fp, 0.0, 1.0, 1.0, steps=8)


# -------------------------------------------------------------- invariants


class TestFrictionInvariants:
    def test_el_residual_matches_damped_form(self):
        # same-arithmetic identity: the variational residual equals
        # -(m qdd - gamma D_right^(1/2) D_C^(1/2) q - F(q)) node-wise
        u, du = polynomial_potential([0.0, 0.0, 0.5])
        win = Grid(0.0, 1.0, 128)
        fp = make_problem(mass=1.3, gamma=0.6, potential=(u, du), window=win)
        q = GridFunction(win, np.sin(win.nodes()) + 0.2 * win.nodes())
        problem = friction_variational_problem(fp, float(q.values[0, 0]), float(q.values[-1, 0]))
        res = el_residual(problem, q).column()

        v = central_difference(q.values, win.h)
        qdd = central_difference(fp.mass * v, win.h)[:, 0]
        from fracvar.fracops import caputo_left

        w = caputo_left(q, FRICTION_ORDER)
        rl = rl_derivative_right(GridFunction(win, fp.gamma * w.values), FRICTION_ORDER).values[:, 0]
        force = -fp.potential_grad(q.values[:, 0])
        damped_form = qdd - rl - force
        npt.assert_allclose(res[1:-1], -damped_form[1:-1], atol=1e-10)

    def test_defect_improves_on_hamiltonian_along_extremal(self):
        # the dissipation-corrected quantity varies less than H itself (the
        # true drift of both plateaus with n; the correction only helps)
        u, du = polynomial_potential([0.0, 0.0, 0.5])
        drifts = []
        for n in (128, 256):
            fp = make_problem(gamma=0.5, potential=(u, du), window=Grid(0.0, 0.5, n))
            problem = friction_variational_problem(fp, 0.0, 0.2)
            sol = solve_extremal(problem)
            diag = friction_diagnostics(fp, sol.trajectory)
            defect = autonomous_quantity(problem, sol)
            drifts.append((drift_report(defect), drift_report(diag.hamiltonian)))
        for defect_drift, ham_drift in drifts:
            assert defect_drift < ham_drift

    def test_autonomous_quantity_equals_defect_diagnostic(self):
        # two assembly paths for the same quantity: via the Lagrangian
        # (L - qdot dL/dv - alpha dL/dw w) and via the diagnostics
        # (p_half^2 / (2 gamma) - H); both reduce to -(m qdot^2/2 + U)
        u, du = polynomial_potential([0.0, 0.0, 0.5])
        fp = make_problem(gamma=0.8, potential=(u, du), window=Grid(0.0, 0.5, 128))
        problem = friction_variational_problem(fp, 0.0, 0.3)
        sol = solve_extremal(problem)
        diag = friction_diagnostics(fp, sol.trajectory)
        quantity = autonomous_quantity(problem, sol)
        defect = diag.half_momentum.column() ** 2 / (2.0 * fp.gamma) - diag.hamiltonian.column()
        npt.assert_allclose(quantity.values[:, 0], defect, atol=1e-12)

    def test_nonconservation_detectable_against_matched_frictionless_run(self):
        u, du = polynomial_potential([0.0, 0.0, 0.5])
        steps = 1024
        runs = {}
        for gamma in (1.0, 0.0):
            fp = make_problem(gamma=gamma, potential=(u, du), window=Grid(0.0, 1.0, steps))
            sim = simulate_damped_eom(fp, q0=1.0, v0=0.0, horizon=1.0, steps=steps)
            q = GridFunction(fp.window, sim.values[:, 0])
            runs[gamma] = drift_report(friction_diagnostics(fp, q).hamiltonian)
        assert runs[1.0] > 10.0 * runs[0.0]

    def test_hamiltonian_drift_vanishes_on_shrinking_windows(self):
        # restrict damped motion to windows shrinking around t = 1
        fp_sim = make_problem(gamma=1.0)
        drifts = []
        for k in range(3):
            span = 0.5 / 2**k
            win = Grid(1.0 - span / 2.0, 1.0 + span / 2.0, 256)
            fp = make_problem(gamma=1.0, window=win)
            q = GridFunction.from_callable(win, lambda t: 1.0 - np.exp(-t))
            drifts.append(drift_report(friction_diagnostics(fp, q).hamiltonian))
        assert drifts[0] > drifts[1] > drifts[2]
