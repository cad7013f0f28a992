import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from fracvar import minimize, variational
from fracvar.errors import ConvergenceError, GridMismatchError, NumericsError, ValidationError
from fracvar.friction import FrictionProblem, friction_variational_problem
from fracvar.grid import Grid, GridFunction
from fracvar.lagrangian import (
    LagrangianSpec,
    free_particle,
    harmonic_oscillator,
    polynomial_potential,
    potential_polynomial,
    quadratic_mix,
)
from fracvar.minimize import PointwiseSum
from fracvar.noether import noether_quantity
from fracvar.symmetry import time_translation
from fracvar.variational import (
    VariationalProblem,
    action_value,
    along,
    el_residual,
    frechet_differential,
    solve_extremal,
)


def line_problem(n=128, alpha=1.0, lagrangian=None):
    lag = lagrangian if lagrangian is not None else free_particle()
    return VariationalProblem(lag, Grid(0.0, 1.0, n), alpha, ([0.0], [1.0]))


def captured_objective(monkeypatch, problem):
    """(fun, grad, x0, direction) that solve_extremal hands to the minimizer;
    x holds the interior nodes."""

    class Captured(Exception):
        pass

    def spy(fun, grad, x0, direction, **kwargs):
        raise Captured(fun, grad, x0, direction)

    with monkeypatch.context() as patch:
        patch.setattr(variational, "bfgs_minimize", spy)
        with pytest.raises(Captured) as excinfo:
            solve_extremal(problem)
    return excinfo.value.args


def line_trajectory(problem):
    return GridFunction(problem.grid, problem.grid.nodes())


def coupled_lagrangian():
    """Dim-2 L with q.w, v0*w1, q1*v0 and quartic terms: every Hessian block is non-zero."""

    def evaluate(t, q, v, w):
        return (
            0.5 * np.sum(v * v + w * w, axis=1)
            + 0.3 * np.sum(q * w, axis=1)
            + 0.4 * v[:, 0] * w[:, 1]
            + 0.2 * q[:, 1] * v[:, 0]
            + 0.5 * (q[:, 0] * q[:, 1]) ** 2
            + 0.1 * w[:, 0] ** 4
        )

    def dq(t, q, v, w):
        return np.stack(
            (
                0.3 * w[:, 0] + q[:, 0] * q[:, 1] ** 2,
                0.3 * w[:, 1] + 0.2 * v[:, 0] + q[:, 0] ** 2 * q[:, 1],
            ),
            axis=1,
        )

    def dv(t, q, v, w):
        return np.stack((v[:, 0] + 0.4 * w[:, 1] + 0.2 * q[:, 1], v[:, 1]), axis=1)

    def dw(t, q, v, w):
        return np.stack(
            (
                w[:, 0] + 0.3 * q[:, 0] + 0.4 * w[:, 0] ** 3,
                w[:, 1] + 0.3 * q[:, 1] + 0.4 * v[:, 0],
            ),
            axis=1,
        )

    return LagrangianSpec(dim=2, evaluate=evaluate, dq=dq, dv=dv, dw=dw, name="coupled")


def coupled_problem(n):
    return VariationalProblem(
        coupled_lagrangian(), Grid(0.0, 1.0, n), 0.5, ([0.0, 1.0], [1.0, -0.5])
    )


def friction_window():
    fp = FrictionProblem(1.0, 0.5, *polynomial_potential([0.0, 0.0, 2.0]))
    return friction_variational_problem(fp, Grid(0.0, 1.0, 512), 1.0, 0.2)


#: the solves whose Hessian-vector products are pinned: the seed-1
#: benchmark's three, purely fractional and mixed quadratic actions at
#: n = 4096 (one with negative Caputo curvature, one at alpha = 1 with a
#: w-term), a friction window and the alpha = 1 oscillator on [0, 3]
PANEL = {
    "noether-fractional": lambda: VariationalProblem(
        quadratic_mix(0.90903, 0.9201), Grid(0.0, 1.0, 512), 0.514879, ([0.003526], [1.005839])
    ),
    "extremal-harmonic": lambda: VariationalProblem(
        harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 512), 1.0, ([0.950123], [-0.098897])
    ),
    "noether-rotation": lambda: VariationalProblem(
        harmonic_oscillator(dim=2),
        Grid(0.0, 1.0, 128),
        0.531517,
        ([1.084994, 0.062394], [0.027054, 1.047758]),
    ),
    "mix(0, 1) alpha 0.6": lambda: line_problem(4096, 0.6, quadratic_mix(0.0, 1.0)),
    "mix(0, 1) alpha 0.75": lambda: line_problem(4096, 0.75, quadratic_mix(0.0, 1.0)),
    "mix(1, 1) alpha 0.75": lambda: line_problem(4096, 0.75, quadratic_mix(1.0, 1.0)),
    "mix(1, -0.3) alpha 0.9": lambda: line_problem(4096, 0.9, quadratic_mix(1.0, -0.3)),
    "mix(1, 1) alpha 1": lambda: line_problem(4096, 1.0, quadratic_mix(1.0, 1.0)),
    "friction window": friction_window,
    "oscillator on [0, 3]": lambda: VariationalProblem(
        harmonic_oscillator(), Grid(0.0, 3.0, 400), 1.0, ([0.0], [1.0])
    ),
}


def sine_variation(grid, modes=(1,), coeffs=(1.0,)):
    t = grid.nodes()
    vals = sum(c * np.sin(k * np.pi * (t - grid.a) / (grid.b - grid.a)) for k, c in zip(modes, coeffs))
    vals = np.asarray(vals)
    vals[0] = 0.0
    vals[-1] = 0.0
    return GridFunction(grid, vals)


# -------------------------------------------------------- LagrangianSpec


class TestLagrangianSpec:
    def test_analytic_partials_validated_against_fd(self):
        # a deliberately wrong partial must be rejected at construction
        with pytest.raises(ValidationError):
            LagrangianSpec(
                dim=1,
                evaluate=lambda t, q, v, w: 0.5 * np.sum(v * v, axis=1),
                dv=lambda t, q, v, w: 2.0 * v,  # wrong by a factor 2
            )

    def test_fd_fallback_matches_analytic(self):
        lag_fd = LagrangianSpec(
            dim=1,
            evaluate=lambda t, q, v, w: np.sum(q * q, axis=1) * np.sum(v, axis=1),
        )
        rng = np.random.default_rng(3)
        t = rng.uniform(size=8)
        q = rng.standard_normal((8, 1))
        v = rng.standard_normal((8, 1))
        w = rng.standard_normal((8, 1))
        npt.assert_allclose(lag_fd.dq(t, q, v, w), 2.0 * q * v, rtol=1e-6, atol=1e-8)
        npt.assert_allclose(lag_fd.dv(t, q, v, w), q * q, rtol=1e-6, atol=1e-8)

    def test_families_expose_flags(self):
        assert free_particle().autonomous
        assert harmonic_oscillator(dim=2).dim == 2
        assert potential_polynomial([0.0, 0.0, 0.5]).name == "potential-polynomial"
        assert quadratic_mix(1.0, 1.0).autonomous


# ------------------------------------------------------------ action value


class TestActionValue:
    def test_classical_free_particle_line(self):
        p = line_problem()
        assert action_value(p, line_trajectory(p)) == pytest.approx(0.5, abs=1e-12)

    def test_fractional_kinetic_energy_of_line(self):
        # L = w^2/2, alpha = 1/2, q = t: Caputo velocity is 2 sqrt(t/pi),
        # so the action is (1/2) * (4/pi) * (1/2) = 1/pi.
        p = line_problem(n=2048, alpha=0.5, lagrangian=quadratic_mix(0.0, 1.0))
        val = action_value(p, line_trajectory(p))
        assert val == pytest.approx(1.0 / math.pi, abs=2e-4)

    def test_constant_trajectory_constant_lagrangian(self):
        lag = quadratic_mix(1.0, 0.0, 0.0, 0.5)  # L = v^2/2 + 0.5 q
        p = VariationalProblem(lag, Grid(0.0, 2.0, 64), 1.0, ([3.0], [3.0]))
        q = GridFunction(p.grid, np.full(65, 3.0))
        assert action_value(p, q) == pytest.approx(2.0 * 1.5, abs=1e-12)

    def test_boundary_mismatch_rejected(self):
        p = line_problem()
        bad = GridFunction(p.grid, p.grid.nodes() + 0.5)
        with pytest.raises(ValidationError):
            action_value(p, bad)

    def test_dimension_mismatch_rejected(self):
        p = line_problem()
        bad = GridFunction(p.grid, np.zeros((p.grid.n + 1, 2)))
        with pytest.raises(GridMismatchError):
            action_value(p, bad)

    @pytest.mark.parametrize("q_a,q_b", [([math.nan], [1.0]), ([0.0], [math.inf])])
    def test_non_finite_boundary_values_rejected(self, q_a, q_b):
        with pytest.raises(ValidationError, match="boundary values must be finite"):
            VariationalProblem(free_particle(), Grid(0.0, 1.0, 8), 1.0, (q_a, q_b))


# --------------------------------------------------- Frechet differential


class TestFrechetDifferential:
    def test_zero_variation_is_exactly_zero(self):
        p = line_problem()
        z = GridFunction(p.grid, np.zeros(p.grid.n + 1))
        assert frechet_differential(p, line_trajectory(p), z) == 0.0

    def test_free_particle_line_sine_variation(self):
        p = line_problem(n=512)
        h = sine_variation(p.grid)
        assert abs(frechet_differential(p, line_trajectory(p), h)) < 1e-6

    def test_matches_central_difference_of_action(self):
        p = line_problem(n=256, alpha=0.5, lagrangian=quadratic_mix(1.0, 1.0, 0.3))
        q = line_trajectory(p)
        h = sine_variation(p.grid, modes=(1, 3), coeffs=(0.7, 0.2))
        eps = 1e-5
        plus = GridFunction(p.grid, q.values + eps * h.values)
        minus = GridFunction(p.grid, q.values - eps * h.values)
        fd = (action_value(p, plus) - action_value(p, minus)) / (2.0 * eps)
        assert frechet_differential(p, q, h) == pytest.approx(fd, abs=5e-9)

    def test_nonzero_endpoints_rejected(self):
        p = line_problem()
        bad = GridFunction(p.grid, np.ones(p.grid.n + 1))
        with pytest.raises(ValidationError):
            frechet_differential(p, line_trajectory(p), bad)

    def test_small_at_extremal_with_residual_bound(self):
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 256), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        h = sine_variation(p.grid, modes=(2,), coeffs=(0.8,))
        value = frechet_differential(p, sol.trajectory, h)
        h_l1 = float(np.sum(np.abs(h.values)) * p.grid.h)
        bound = sol.el_residual_norm * h_l1 * (p.grid.b - p.grid.a)
        assert abs(value) < max(bound, 1e-10)


# ------------------------------------------------------- non-finite fields


class TestNonFiniteFields:
    """L = v^2/2 + sqrt(10 - q) along q = 12 sin(pi t): sqrt leaves its domain
    where q > 10, first at node 11 of 32, so L and dL/dq are NaN there."""

    @pytest.fixture
    def case(self):
        lag = LagrangianSpec(
            dim=1,
            evaluate=lambda t, q, v, w: 0.5 * v[:, 0] ** 2 + np.sqrt(10.0 - q[:, 0]),
            dq=lambda t, q, v, w: -0.5 / np.sqrt(10.0 - q),
            dv=lambda t, q, v, w: v,
            dw=lambda t, q, v, w: np.zeros_like(w),
        )
        p = VariationalProblem(lag, Grid(0.0, 1.0, 32), 0.5, ([0.0], [0.0]))
        q = GridFunction.from_callable(p.grid, lambda t: 12.0 * np.sin(np.pi * t))
        with np.errstate(invalid="ignore"):
            yield p, q

    def test_along_names_the_first_bad_node(self, case):
        p, q = case
        with pytest.raises(NumericsError, match=r"L, dL/dq .* node 11 "):
            along(p.lagrangian, p.grid, p.alpha, q.values)

    def test_frechet_differential_raises(self, case):
        p, q = case
        with pytest.raises(NumericsError):
            frechet_differential(p, q, sine_variation(p.grid))

    def test_noether_quantity_raises(self, case):
        p, q = case
        with pytest.raises(NumericsError):
            noether_quantity(p, q, time_translation(), truncation=0)


# ------------------------------------------------------------ EL residual


class TestElResidual:
    def test_classical_harmonic_on_sampled_cosine(self):
        n = 64
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, n), 1.0, ([1.0], [0.0])
        )
        q = GridFunction(p.grid, np.cos(p.grid.nodes()))
        res = el_residual(p, q).column()
        assert np.max(np.abs(res)) < 20.0 * p.grid.h**2

    def test_velocity_independent_lagrangian_on_line(self):
        # L = q^2/2: residual is q itself (no derivative terms survive)
        lag = quadratic_mix(0.0, 0.0, 1.0)
        p = VariationalProblem(lag, Grid(0.0, 1.0, 64), 1.0, ([0.0], [1.0]))
        q = line_trajectory(p)
        res = el_residual(p, q).column()
        t = p.grid.nodes()
        npt.assert_allclose(res[1:-1], t[1:-1], atol=1e-10)
        assert res[0] == 0.0 and res[-1] == 0.0

    def test_endpoints_zero_by_convention(self):
        p = line_problem(alpha=0.5, lagrangian=quadratic_mix(1.0, 1.0))
        res = el_residual(p, line_trajectory(p)).column()
        assert res[0] == 0.0 and res[-1] == 0.0
        assert np.isfinite(res).all()


# ------------------------------------------------------------- the solver


class TestSolveExtremal:
    def test_free_particle_returns_line(self):
        p = line_problem(n=64)
        sol = solve_extremal(p)
        npt.assert_allclose(sol.trajectory.column(), p.grid.nodes(), atol=1e-8)
        assert sol.trajectory.column()[0] == 0.0
        assert sol.trajectory.column()[-1] == 1.0

    def test_linear_potential_parabola(self):
        # L = v^2/2 - q, q(0) = q(1) = 0: EL gives qdd = -1, q = (t - t^2)/2
        p = VariationalProblem(
            potential_polynomial([0.0, 1.0]), Grid(0.0, 1.0, 128), 1.0, ([0.0], [0.0])
        )
        sol = solve_extremal(p)
        t = p.grid.nodes()
        npt.assert_allclose(sol.trajectory.column(), (t - t**2) / 2.0, atol=1e-8)

    def test_harmonic_matches_cosine(self):
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 256), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        npt.assert_allclose(sol.trajectory.column(), np.cos(p.grid.nodes()), atol=1e-4)
        assert sol.el_residual_norm < 2e-3

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_caputo_term_at_alpha_one_matches_its_closed_form(self, n):
        # at alpha = 1, w is q' too, so L = v^2/2 + w^2/2 - q^2/2 has the
        # extremal 2 q'' + q = 0: cos(t/sqrt 2) - cot(pi/(2 sqrt 2)) sin(t/sqrt 2).
        # The error is first order: measured n * error = 0.121 at each n
        p = VariationalProblem(
            quadratic_mix(1.0, 1.0, -1.0), Grid(0.0, math.pi / 2.0, n), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        s = p.grid.nodes() / math.sqrt(2.0)
        exact = np.cos(s) - np.sin(s) / math.tan(math.pi / (2.0 * math.sqrt(2.0)))
        assert np.max(np.abs(sol.trajectory.column() - exact)) < 0.13 / n

    def test_fractional_interior_residual_shrinks(self):
        # The EL solution has a (b - t)^(-alpha) curvature layer at the right
        # endpoint, so the full max-norm grows under refinement; on a fixed
        # interior window the residual converges at ~2nd order.
        window_norm = []
        for n in (128, 256, 512):
            p = line_problem(n=n, alpha=0.5, lagrangian=quadratic_mix(1.0, 1.0))
            sol = solve_extremal(p)
            t = p.grid.nodes()
            mask = (t >= 0.1) & (t <= 0.9)
            window_norm.append(np.max(np.abs(sol.residual.values[mask])))
        assert window_norm[2] < 5e-4
        assert window_norm[0] / window_norm[1] > 1.5
        assert window_norm[1] / window_norm[2] > 1.5

    def test_nonconvergence_reports_gradient_norm(self, monkeypatch):
        # a quartic potential: Newton needs 3 steps, so one is not enough
        monkeypatch.setattr(minimize, "MAX_ITER", 1)
        quartic = potential_polynomial([0.0, 0.0, 0.5, 0.0, 2.0])
        p = VariationalProblem(quartic, Grid(0.0, 1.0, 128), 1.0, ([1.0], [-1.0]))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_extremal(p)
        assert excinfo.value.gradient_norm > 0.0

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # no gradient norm is below 0, -1 or nan, and every one is below inf
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            solve_extremal(line_problem(n=64, alpha=0.5), tol=tol)

    def test_quadratic_action_converges_in_one_newton_step(self):
        p = line_problem(n=256, alpha=0.5, lagrangian=quadratic_mix(1.0, 1.0))
        sol = solve_extremal(p)
        assert sol.iterations == 1
        assert sol.gradient_norm < 1e-11

    @pytest.mark.parametrize("alpha,q_rate,gap_rate", [(0.75, 1.35, 1.3), (0.9, 1.65, 1.65)])
    def test_velocity_free_extremal_converges_to_its_closed_form(self, alpha, q_rate, gap_rate):
        # L = w^2/2 on [0, 1], q from 0 to 1: w = c (1 - t)^(alpha - 1) with
        # c = Gamma(alpha) (2 alpha - 1), so q(t) = (2 alpha - 1) times the
        # integral of (t - s)^(alpha - 1) (1 - s)^(alpha - 1) over [0, t], and
        # S* = Gamma(alpha)^2 (2 alpha - 1) / 2. Both errors fall like
        # h^(2 alpha - 1), 2^(2 alpha - 1) per doubling: measured 1.44 and
        # 1.38-1.39 at alpha = 0.75, 1.76 and 1.73 at alpha = 0.9
        from scipy.integrate import quad

        kernel, _ = quad(
            lambda s: (1.0 - s) ** (alpha - 1.0), 0.0, 0.5, weight="alg", wvar=(0.0, alpha - 1.0)
        )
        q_half = (2.0 * alpha - 1.0) * kernel
        action = math.gamma(alpha) ** 2 * (2.0 * alpha - 1.0) / 2.0
        q_errors, gaps = [], []
        for n in (128, 256, 512):
            sol = solve_extremal(line_problem(n=n, alpha=alpha, lagrangian=quadratic_mix(0.0, 1.0)))
            q_errors.append(abs(sol.trajectory.values[n // 2, 0] - q_half))
            gaps.append(abs(sol.action - action))
        for errors, rate in ((q_errors, q_rate), (gaps, gap_rate)):
            assert errors[0] / errors[1] >= rate
            assert errors[1] / errors[2] >= rate

    def test_newton_matches_bfgs_on_coupled_problem(self, monkeypatch):
        from scipy import optimize

        p = coupled_problem(64)
        newton = solve_extremal(p)
        fun, grad, x0, _ = captured_objective(monkeypatch, p)
        bfgs = optimize.minimize(
            fun, x0, jac=grad, method="BFGS", options={"gtol": 1e-8, "maxiter": 10000}
        )
        assert newton.iterations <= 3 < bfgs.nit
        npt.assert_allclose(
            newton.trajectory.values[1:-1], bfgs.x.reshape(-1, 2), rtol=0.0, atol=1e-6
        )

    @pytest.mark.parametrize(
        "weights,alpha,most",
        [
            ((1.0, 1.0), 0.5, 15),
            ((1.0, 1.0), 0.9, 15),
            ((0.0, 1.0), 0.9, 30),
            ((0.0, 0.0, 1.0, 0.3), 0.5, 2),
        ],
    )
    def test_cg_iterations_per_newton_step(self, weights, alpha, most):
        # one Hessian-vector product per CG iteration; measured 6, 7, 9 and 1.
        # The state-only L = |q|^2/2 + 0.3 q has a diagonal Hessian, which the
        # preconditioner holds exactly; without its state term it took 1530.
        p = line_problem(n=2048, alpha=alpha, lagrangian=quadratic_mix(*weights))
        sol = solve_extremal(p)
        assert sol.iterations == 1
        assert sol.hessian_products <= most

    @pytest.mark.parametrize(
        "name,products",
        [
            ("noether-fractional", 6),
            ("extremal-harmonic", 2),
            ("noether-rotation", 1),
            ("mix(0, 1) alpha 0.6", 12),
            ("mix(0, 1) alpha 0.75", 11),
            ("mix(1, 1) alpha 0.75", 7),
            ("mix(1, -0.3) alpha 0.9", 7),
            ("mix(1, 1) alpha 1", 16),
            ("friction window", 8),
            ("oscillator on [0, 3]", 2),
        ],
    )
    def test_hessian_products_per_solve(self, name, products):
        # CG's path is deterministic, so the counts are exact. The first three
        # are the seed-1 benchmark solves; the friction window has negative
        # node curvature beside a Caputo term, which the circulant K drops;
        # mix(1, -0.3)'s negative Caputo curvature enters the circulant K
        # through its mean, and at alpha = 1 a w-term gets the tridiagonal K
        sol = solve_extremal(PANEL[name]())
        assert sol.hessian_products == products

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_classical_step_preconditions_with_the_hessian(self, monkeypatch, dim, alpha):
        # no Caputo curvature: K = Delta' diag(d) Delta + diag(e), with the
        # oscillator's e < 0 kept, is the interior Hessian, so K^-1 H x = x
        seen = []
        pcg = variational.pcg_direction
        monkeypatch.setattr(variational, "pcg_direction", lambda *a: seen.append(a) or pcg(*a))
        grid = Grid(0.0, 1.0, 32)
        p = VariationalProblem(harmonic_oscillator(dim=dim), grid, alpha, (np.ones(dim), np.zeros(dim)))
        solve_extremal(p)
        hvp, precondition = seen[0][:2]
        for x in np.random.default_rng(dim).standard_normal((5, 31 * dim)):
            hx = hvp(x)
            assert np.linalg.norm(precondition(hx) - x) <= 1e-12 * np.linalg.norm(x)

    def test_diverging_solve_raises_without_a_warning(self):
        # U = q^2 + q^4 makes the action unbounded below: the iterates grow
        # until a Hessian-vector product overflows. RuntimeWarnings are errors
        # in this suite, so an overflow warning would fail this test instead
        lag = potential_polynomial([0.0, 0.0, 1.0, 0.0, 1.0])
        p = VariationalProblem(lag, Grid(0.0, 1.0, 512), 0.5, ([0.5], [1.0]))
        with pytest.raises(NumericsError, match="not convex along that Newton direction"):
            solve_extremal(p)

    def test_oscillator_past_its_conjugate_point_is_not_convex(self):
        # on [0, 4] past the conjugate point pi the interior Hessian is
        # indefinite, so the extremal sin t / sin 4 is no minimum
        p = VariationalProblem(harmonic_oscillator(), Grid(0.0, 4.0, 400), 1.0, ([0.0], [1.0]))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_extremal(p)
        message = str(excinfo.value)
        assert message.startswith("no convergence within 50 iterations")
        assert message.endswith("the discrete action is not convex along that Newton direction")
        assert excinfo.value.gradient_norm > 1e6

    def test_solve_reads_the_trajectory_record_once(self, monkeypatch):
        # the post-solve velocity, Caputo velocity, action and residual all
        # come from one along record
        p = line_problem(n=64, alpha=0.5, lagrangian=quadratic_mix(1.0, 1.0))
        calls = []
        record = variational.along
        monkeypatch.setattr(variational, "along", lambda *a: calls.append(1) or record(*a))
        sol = solve_extremal(p)
        assert len(calls) == 1
        npt.assert_array_equal(sol.residual.values, el_residual(p, sol.trajectory).values)

    def test_solve_holds_no_dense_matrix(self):
        # one dense 2047 x 2047 Hessian alone is 32 MiB; the solve peaks near 1 MiB
        p = line_problem(n=2048, alpha=0.5, lagrangian=quadratic_mix(1.0, 1.0))
        tracemalloc.start()
        try:
            sol = solve_extremal(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.gradient_norm < 1e-8
        assert peak < 8 * 2**20

    def test_double_well_converges_through_negative_curvature(self, monkeypatch):
        # L = v^2/2 + (q^2 - 1)^2 on [0, 4]: near the straight-line start q ~ 0
        # the Hessian -d2/dt2 - 4 has negative modes, which CG must exit on
        curvatures = []
        hvp = PointwiseSum.hvp

        def spy(action, blocks, v):
            out = hvp(action, blocks, v)
            curvatures.append(float(np.sum(v * out)))
            return out

        monkeypatch.setattr(PointwiseSum, "hvp", spy)
        well = potential_polynomial([-1.0, 0.0, 2.0, 0.0, -1.0])
        p = VariationalProblem(well, Grid(0.0, 4.0, 256), 1.0, ([0.0], [0.1]))
        sol = solve_extremal(p, tol=1e-10)
        assert min(curvatures) <= 0.0
        assert sol.gradient_norm < 1e-10
        assert np.max(sol.trajectory.column()) > 0.9  # it settled into the well at q = 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 65])
    def test_preconditioner_solves_its_tridiagonal_system(self, n):
        # column 0 is plain; column 1 has a cell without curvature (it counts
        # as the column's smallest positive d) and a node term of -5, which
        # leaves K indefinite at every n (that node's d + d' - 5 < 0), so it
        # takes the clamp (0); column 2 has no d and a negative e, so its
        # non-positive e count as the smallest positive e; column 3 has
        # neither (K = I)
        rng = np.random.default_rng(n)
        cells = rng.uniform(0.5, 2.0, (n, 4))
        nodes = rng.uniform(0.5, 2.0, (n - 1, 4))
        cells[0, 1], nodes[-1, 1] = 0.0, -5.0
        cells[:, 2:] = 0.0
        nodes[0, 2], nodes[:, 3] = -1.0, 0.0
        r = rng.standard_normal((n - 1, 4))
        x = variational._tridiagonal_solver(cells, nodes)(r)
        d, e = cells.copy(), nodes.copy()
        d[0, 1], e[-1, 1] = np.min(cells[1:, 1]), 0.0
        e[0, 2] = np.min(nodes[1:, 2]) if n > 2 else 1.0  # n = 2: no positive e
        e[:, 3] = 1.0
        delta = np.diff(np.eye(n + 1)[:, 1:-1], axis=0)  # cell differences of (0, x, 0)
        for k in range(4):
            gram = delta.T @ (d[:, k, None] * delta) + np.diag(e[:, k])
            npt.assert_allclose(gram @ x[:, k], r[:, k], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 65])
    def test_signed_preconditioner_keeps_e_while_k_is_positive_definite(self, n):
        # per column, with A = Delta' diag(d) Delta: e = -lambda_min(A) / 2
        # keeps K positive definite and is kept; e = -2 lambda_min(A) is not,
        # so that column takes the clamp (e < 0 counts as 0); positive e stay
        rng = np.random.default_rng(n)
        cells = rng.uniform(0.5, 2.0, (n, 3))
        delta = np.diff(np.eye(n + 1)[:, 1:-1], axis=0)  # cell differences of (0, x, 0)
        grams = [delta.T @ (cells[:, k, None] * delta) for k in range(3)]
        nodes = rng.uniform(0.5, 2.0, (n - 1, 3))
        nodes[:, 0] = -0.5 * np.linalg.eigvalsh(grams[0])[0]
        nodes[:, 1] = -2.0 * np.linalg.eigvalsh(grams[1])[0]
        r = rng.standard_normal((n - 1, 3))
        x = variational._tridiagonal_solver(cells, nodes)(r)
        e = nodes.copy()
        e[:, 1] = 0.0
        for k in range(3):
            npt.assert_allclose((grams[k] + np.diag(e[:, k])) @ x[:, k], r[:, k], atol=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 64, 65])
    def test_cell_gram_solver_solves_with_any_positive_definite_m(self, n):
        # Delta' M Delta x = r through y = (0, -cumsum r), c = M^-1 y - mu M^-1 1
        # and x = cumsum(c)[:-1]; a random M maps 1 to no multiple of 1
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
        r = rng.standard_normal((n - 1, 3))
        x = variational._cell_gram_solver(lambda y: np.linalg.solve(m, y), n, 3)(r)
        delta = np.diff(np.eye(n + 1)[:, 1:-1], axis=0)
        ref = np.linalg.solve(delta.T @ m @ delta, r)
        npt.assert_allclose(x, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))

    def test_unknowns_cap_refuses_4097_before_allocating(self):
        # n = 4098 has 4097 interior values, one past the cap that both
        # solvers share; neither holds a matrix over all its unknowns
        p = line_problem(n=4098, alpha=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="up to 4096 unknowns, got 4097"):
                solve_extremal(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_solution_csv_columns(self, tmp_path):
        p = line_problem(n=16)
        sol = solve_extremal(p)
        path = tmp_path / "sol.csv"
        sol.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,q0,qdot0,caputo_q0,el_residual0"


# ------------------------------------------------------------- invariants


class TestInvariants:
    def test_discrete_gradient_matches_finite_differences(self, monkeypatch):
        p = line_problem(n=24, alpha=0.5, lagrangian=quadratic_mix(1.0, 0.7, 0.4))
        fun, grad, _, _ = captured_objective(monkeypatch, p)
        rng = np.random.default_rng(11)
        q = np.linspace(0.0, 1.0, 25)[:, None] + 0.1 * rng.standard_normal((25, 1))
        x = q[1:-1].ravel()
        analytic = grad(x)
        fd = np.empty_like(analytic)
        for j in range(len(fd)):
            step = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            fd[j] = (fun(xp) - fun(xm)) / (2.0 * step)
        npt.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    def test_discrete_hessian_matches_finite_differences_of_gradient(self, monkeypatch):
        # H e_j by the solver's own Hessian-vector product, for every unit vector
        p = coupled_problem(12)
        _, grad, _, direction = captured_objective(monkeypatch, p)
        x = np.random.default_rng(17).standard_normal((13, 2))[1:-1].ravel()
        seen = []
        hvp = PointwiseSum.hvp
        monkeypatch.setattr(PointwiseSum, "hvp", lambda *a: seen.append(a) or hvp(*a))
        direction(x, grad(x))
        action, blocks, _ = seen[0]
        analytic = np.empty((x.size, x.size))
        for j in range(x.size):
            unit = np.zeros((13, 2))
            unit[1:-1].flat[j] = 1.0
            analytic[:, j] = hvp(action, blocks, unit)[1:-1].ravel()
        fd = np.empty_like(analytic)
        step = 1e-6
        for j in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            fd[:, j] = (grad(xp) - grad(xm)) / (2.0 * step)
        # the FFT products are symmetric to round-off (measured 2.7e-16 of
        # max|H|). The assembled PointwiseSum.hessian stays exactly symmetric:
        # test_optctrl.py's test_penalty_hessian_matches_finite_differences_of_gradient
        # checks it on the control solver's Schur complement.
        npt.assert_allclose(analytic, analytic.T, rtol=0.0, atol=1e-14 * np.max(np.abs(analytic)))
        npt.assert_allclose(analytic, fd, rtol=0.0, atol=1e-7 * np.max(np.abs(fd)))

    def test_solver_output_annihilates_random_variations(self):
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 512), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        rng = np.random.default_rng(5)
        for _ in range(20):
            coeffs = rng.standard_normal(4) / np.arange(1, 5) ** 2
            h = sine_variation(p.grid, modes=(1, 2, 3, 4), coeffs=coeffs)
            h = GridFunction(p.grid, h.values / np.max(np.abs(h.values)))
            assert abs(frechet_differential(p, sol.trajectory, h)) < 1e-5

    def test_classical_reduction_matches_velocity_only_form(self):
        # at alpha=1 with a w-independent L the residual is the classical one
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, 1.0, 64), 1.0, ([1.0], [0.5])
        )
        q = GridFunction(p.grid, np.cos(p.grid.nodes()) * 0.9 + 0.1)
        res = el_residual(p, q).column()
        from fracvar.grid import central_difference

        v = central_difference(q.values, p.grid.h)
        classical = -q.values[:, 0] - central_difference(v, p.grid.h)[:, 0]
        npt.assert_allclose(res[1:-1], classical[1:-1], atol=1e-10)

    def test_action_refinement_differences_shrink(self):
        values = []
        for n in (64, 128, 256, 512):
            p = VariationalProblem(
                harmonic_oscillator(), Grid(0.0, math.pi / 2.0, n), 1.0, ([1.0], [0.0])
            )
            values.append(action_value(p, GridFunction(p.grid, np.cos(p.grid.nodes()))))
        diffs = [abs(values[i] - values[i + 1]) for i in range(3)]
        assert diffs[0] > diffs[1] > diffs[2]
