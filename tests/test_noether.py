import math

import numpy as np
import numpy.testing as npt
import pytest

from fracvar.errors import GridMismatchError, ValidationError
from fracvar.fracops import caputo_left, rl_derivative_right, rl_integral_right
from fracvar.grid import Grid, GridFunction, central_difference
from fracvar.lagrangian import LagrangianSpec, free_particle, harmonic_oscillator, quadratic_mix
import fracvar.noether as noether_module
from fracvar.noether import (
    _transformed_integrand,
    autonomous_quantity,
    drift_report,
    invariance_defect,
    invariance_necessary_residual,
    noether_quantity,
    series_terms,
    transfer_series,
)
from fracvar.symmetry import SymmetryGroup, rotation, space_translation, time_translation
from fracvar.variational import VariationalProblem, solve_extremal


# ------------------------------------------------------------- symmetries


class TestSymmetryGroup:
    def test_families_validate(self):
        assert time_translation().name == "time-translation"
        assert space_translation([1.0, 0.5]).dim == 2
        assert rotation(2.0).dim == 2

    def test_broken_group_property_rejected(self):
        with pytest.raises(ValidationError):
            SymmetryGroup(
                time_map=lambda eps, t: t,
                state_map=lambda eps, q: q * (1.0 + eps) ** 2,  # squares do not add
                time_rate=lambda t: np.zeros_like(t),
                state_rate=lambda t, q: 2.0 * q,
            )

    def test_broken_identity_rejected(self):
        with pytest.raises(ValidationError):
            SymmetryGroup(
                time_map=lambda eps, t: t + 1.0,
                state_map=lambda eps, q: q,
                time_rate=lambda t: np.ones_like(t),
                state_rate=lambda t, q: np.zeros_like(q),
            )

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValidationError):
            SymmetryGroup(
                time_map=lambda eps, t: t + eps,
                state_map=lambda eps, q: q,
                time_rate=lambda t: 3.0 * np.ones_like(t),
                state_rate=lambda t, q: np.zeros_like(q),
            )

    @pytest.mark.parametrize(
        "build, key",
        [
            (lambda: space_translation([math.nan]), "'direction'"),
            (lambda: space_translation([1.0, math.inf]), "'direction'"),
            (lambda: rotation(math.nan), "'rate'"),
            (lambda: rotation(-math.inf), "'rate'"),
        ],
        ids=["translation-nan", "translation-inf", "rotation-nan", "rotation-inf"],
    )
    def test_families_reject_a_non_finite_parameter(self, build, key):
        with pytest.raises(ValidationError, match=f"{key} must be finite"):
            build()

    @pytest.mark.parametrize("which", ["tau", "f2"])
    def test_nan_rate_rejected(self, which):
        nan_tau = which == "tau"
        with pytest.raises(ValidationError, match=f"{which} does not match"):
            SymmetryGroup(
                time_map=lambda eps, t: t + eps,
                state_map=lambda eps, q: q,
                time_rate=lambda t: np.full_like(t, math.nan if nan_tau else 1.0),
                state_rate=lambda t, q: np.full_like(q, 0.0 if nan_tau else math.nan),
            )

    @pytest.mark.parametrize("dim", [math.nan, math.inf, 2.5, 0], ids=["nan", "inf", "2.5", "0"])
    def test_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValidationError, match="dim must be a positive integer"):
            time_translation(dim=dim)

    def test_whole_float_dimension_is_an_int(self):
        dim = time_translation(dim=2.0).dim
        assert dim == 2 and isinstance(dim, int)

    def test_scaling_family_is_a_valid_group(self):
        # exp-scaling composes additively; used as a non-invariant probe
        s = SymmetryGroup(
            time_map=lambda eps, t: t,
            state_map=lambda eps, q: q * math.exp(eps),
            time_rate=lambda t: np.zeros_like(t),
            state_rate=lambda t, q: q,
            name="scaling",
        )
        assert s.name == "scaling"


# ------------------------------------------------------- invariance defect


class TestInvarianceDefect:
    def test_time_translation_of_autonomous_problem(self):
        p = VariationalProblem(
            quadratic_mix(1.0, 1.0), Grid(0.0, 1.0, 256), 0.5, ([0.0], [1.0])
        )
        sol = solve_extremal(p)
        defect = invariance_defect(p, sol.trajectory, time_translation())
        assert defect < 1e-5

    def test_time_translation_of_non_autonomous_problem(self):
        # L = (1 + t) v^2/2 + w^2/2 depends on t, so time translation is not a
        # symmetry; transforming the state alone would read exactly 0 here
        lag = LagrangianSpec(
            dim=1,
            evaluate=lambda t, q, v, w: 0.5 * (1.0 + t) * v[:, 0] ** 2 + 0.5 * w[:, 0] ** 2,
            dq=lambda t, q, v, w: np.zeros_like(q),
            dv=lambda t, q, v, w: (1.0 + t)[:, None] * v,
            dw=lambda t, q, v, w: w,
        )
        p = VariationalProblem(lag, Grid(0.0, 1.0, 128), 0.5, ([0.0], [1.0]))
        sol = solve_extremal(p)
        assert invariance_defect(p, sol.trajectory, time_translation()) > 0.1

    @pytest.mark.parametrize("check", [invariance_defect, invariance_necessary_residual])
    def test_symmetry_of_another_dimension_is_a_grid_mismatch(self, check):
        p = VariationalProblem(quadratic_mix(1.0, 1.0), Grid(0.0, 1.0, 16), 0.5, ([0.0], [1.0]))
        line = GridFunction.from_callable(p.grid, lambda t: t)
        with pytest.raises(GridMismatchError, match="^symmetry has dimension 2, expected 1"):
            check(p, line, rotation())

    def test_state_only_group_keeps_the_grid(self):
        # the last node of Grid(0, 3.7, 13) misses 3.7 by an ulp; the image
        # grid of an identity time map must still be the problem grid
        p = VariationalProblem(free_particle(), Grid(0.0, 3.7, 13), 1.0, ([0.0], [1.0]))
        q = GridFunction(p.grid, p.grid.nodes() / 3.7)
        grid, _ = _transformed_integrand(p, q, space_translation([1.0]), 1e-4)
        assert grid == p.grid

    def test_space_translation_of_q_independent_lagrangian(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 128), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        defect = invariance_defect(p, sol.trajectory, space_translation([1.0]))
        assert defect < 1e-6

    def test_rotation_of_planar_free_particle(self):
        p = VariationalProblem(
            free_particle(dim=2), Grid(0.0, 1.0, 256), 1.0, ([1.0, 0.0], [0.7, 0.7])
        )
        sol = solve_extremal(p)
        defect = invariance_defect(p, sol.trajectory, rotation(1.0))
        assert defect < 1e-5

    def test_non_invariant_pair_detected(self):
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 128), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        defect = invariance_defect(p, sol.trajectory, space_translation([1.0]))
        assert defect > 1e-2

    def test_extremality_gate(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 64), 1.0, ([0.0], [1.0]))
        wiggly = GridFunction(p.grid, p.grid.nodes() + 0.3 * np.sin(7.0 * p.grid.nodes()))
        with pytest.raises(ValidationError):
            invariance_defect(p, wiggly, space_translation([1.0]), el_tol=1e-3)

    @pytest.mark.parametrize("eps", [0.0, -1e-4, np.nan, np.inf])
    def test_step_must_be_finite_and_positive(self, eps):
        # checked before the trajectory is transformed, so no warning comes first
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 32), 1.0, ([0.0], [1.0]))
        line = GridFunction(p.grid, p.grid.nodes())
        with pytest.raises(ValidationError, match="eps must be finite and positive"):
            invariance_defect(p, line, space_translation([1.0]), eps=eps)

    def test_nonuniform_time_map_rejected(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 64), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        # Moebius maps compose additively but bend the uniform grid
        moebius = SymmetryGroup(
            time_map=lambda eps, t: t / (1.0 - eps * t),
            state_map=lambda eps, q: q,
            time_rate=lambda t: t * t,
            state_rate=lambda t, q: np.zeros_like(q),
            name="moebius",
        )
        with pytest.raises(ValidationError):
            invariance_defect(p, sol.trajectory, moebius)

    def test_richardson_step_consistency(self):
        # for a non-invariant pair the eps^2 truncation error must shrink ~4x
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 128), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        scaling = SymmetryGroup(
            time_map=lambda eps, t: t,
            state_map=lambda eps, q: q * math.exp(eps),
            time_rate=lambda t: np.zeros_like(t),
            state_rate=lambda t, q: q,
            name="scaling",
        )
        d1 = invariance_defect(p, sol.trajectory, scaling, eps=1e-2)
        d2 = invariance_defect(p, sol.trajectory, scaling, eps=5e-3)
        d3 = invariance_defect(p, sol.trajectory, scaling, eps=2.5e-3)
        ratio = abs(d1 - d2) / abs(d2 - d3)
        assert 2.5 < ratio < 6.0


# ------------------------------------------- necessary condition residual


class TestNecessaryResidual:
    def test_invariant_pair_small(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 256), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        res = invariance_necessary_residual(p, sol.trajectory, space_translation([1.0]))
        assert np.max(np.abs(res.values)) < 1e-4

    def test_zero_rate_gives_exact_zero(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 64), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        frozen = SymmetryGroup(
            time_map=lambda eps, t: t + eps,
            state_map=lambda eps, q: q,
            time_rate=lambda t: np.ones_like(t),
            state_rate=lambda t, q: np.zeros_like(q),
        )
        res = invariance_necessary_residual(p, sol.trajectory, frozen)
        npt.assert_array_equal(res.values, 0.0)

    def test_non_invariant_pair_bounded_away_from_zero(self):
        # harmonic + translation: the residual is f2 . d/dt(dL/dv) = -f2 q
        for n in (128, 256):
            p = VariationalProblem(
                harmonic_oscillator(), Grid(0.0, math.pi / 2.0, n), 1.0, ([1.0], [0.0])
            )
            sol = solve_extremal(p)
            res = invariance_necessary_residual(p, sol.trajectory, space_translation([1.0]))
            t = p.grid.nodes()
            expected = -np.cos(t)
            npt.assert_allclose(res.values[2:-2, 0], expected[2:-2], atol=5e-3)
            assert np.max(np.abs(res.values)) > 0.5

    @pytest.mark.parametrize(
        "symmetry",
        [space_translation([1.0]), rotation(1.0)],
        ids=["space-translation", "rotation"],
    )
    def test_matches_the_four_term_expression(self, symmetry):
        # the residual reads its Euler-Lagrange terms from the costate
        # residual; the reference is the four-term sum, each term written out
        d = symmetry.dim
        p = VariationalProblem(
            quadratic_mix(1.0, 0.7, -0.4, dim=d), Grid(0.0, 1.0, 256), 0.6, ([0.1] * d, [0.9] * d)
        )
        t = p.grid.nodes()
        waves = [(1.0 + t) * np.sin(2.0 + k + t) for k in range(d)]
        q = GridFunction(p.grid, np.column_stack(waves))
        f = p.along(q)
        _, f2 = symmetry.rates_on(t, q.values)
        expected = (
            np.sum(f2 * central_difference(f.dv, p.grid.h), axis=1)
            + np.sum(f.dv * central_difference(f2, p.grid.h), axis=1)
            + np.sum(f.dw * caputo_left(GridFunction(p.grid, f2), p.alpha).values, axis=1)
            - np.sum(f2 * rl_derivative_right(GridFunction(p.grid, f.dw), p.alpha).values, axis=1)
        )
        expected[0] = expected[-1] = 0.0
        res = invariance_necessary_residual(p, q, symmetry).values[:, 0]
        assert np.max(np.abs(expected)) > 0.1
        npt.assert_allclose(res, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))


# ----------------------------------------------------------- transfer series


@pytest.fixture
def integral_calls(monkeypatch):
    """The names of the RL integrals that noether evaluates, in call order."""
    calls = []
    for name in ("rl_integral_left", "rl_integral_right"):
        op = getattr(noether_module, name)
        monkeypatch.setattr(
            noether_module, name, lambda f, order, op=op, name=name: calls.append(name) or op(f, order)
        )
    return calls


class TestTransferSeries:
    def test_zero_f2_gives_zero_terms(self):
        g = Grid(0.0, 1.0, 64)
        zeros = GridFunction(g, np.zeros(65))
        poly = GridFunction(g, g.nodes() ** 2 + 1.0)
        series = transfer_series(zeros, poly, 0.5, 3)
        npt.assert_array_equal(series.terms, 0.0)
        assert series.tail_estimate == 0.0

    def test_constant_rate_evaluates_one_integral(self, integral_calls):
        # f2 - f2(a) and every difference of f2 vanish identically, so only
        # the order-0 right-sided integral has a non-zero factor
        n, alpha = 256, 0.5
        grid = Grid(0.0, 1.0, n)
        s = 1.0 - grid.nodes()
        f2 = np.full((n + 1, 1), 1.5)
        g = (0.9 * s + 1.1 * s**2)[:, None]
        terms = series_terms(f2, g, grid, alpha, 6)
        assert integral_calls == ["rl_integral_right"]
        expected = 1.5 * rl_integral_right(GridFunction(grid, g), 1.0 - alpha).values[:, 0]
        npt.assert_array_equal(terms[0], expected)
        npt.assert_array_equal(terms[1:], 0.0)

    def test_zero_g_evaluates_no_integral(self, integral_calls):
        # g = 0 is the other factor of every integral, whatever f2 is
        n = 64
        grid = Grid(0.0, 1.0, n)
        t = grid.nodes()
        terms = series_terms((t**2 - t)[:, None], np.zeros((n + 1, 1)), grid, 0.5, 6)
        assert integral_calls == []
        npt.assert_array_equal(terms, 0.0)

    def test_tail_estimate_leaves_out_the_end_stencils(self):
        # constant f2 (a space-translation rate): every difference of f2 is
        # exactly 0, the one-sided end stencils included, so the order-6 term
        # vanishes at every node and not only on the panel the tail reads
        n = 16384
        grid = Grid(0.0, 1.0, n)
        s = 1.0 - grid.nodes()
        f2 = GridFunction(grid, np.full(n + 1, 1.2))
        g = GridFunction(grid, 0.9 * s + 1.1 * s**2 + 0.8 * s**3)
        series = transfer_series(f2, g, 0.5, 6)
        npt.assert_array_equal(series.terms[-1], 0.0)
        assert series.tail_estimate == 0.0

    def test_identity_against_direct_operators(self):
        # d/dt of the truncated series vs g . D_C f2 - f2 . D_right g for
        # quadratic polynomials: every iterated difference stencil is exact,
        # so the max-norm gap is pure quadrature error
        n = 512
        grid = Grid(0.0, 1.0, n)
        t = grid.nodes()
        f2 = GridFunction(grid, t**2 - t)
        g = GridFunction(grid, t**2 + 1.0)
        alpha = 0.5
        series = transfer_series(f2, g, alpha, 3)
        lhs = central_difference(series.total()[:, None], grid.h)[:, 0]
        rhs = (
            g.values * caputo_left(f2, alpha).values
            - f2.values * rl_derivative_right(g, alpha).values
        )[:, 0]
        gap = np.max(np.abs(lhs[1:-1] - rhs[1:-1]))
        assert gap < series.tail_estimate + 0.1

    def test_identity_for_cubics_away_from_boundary_stencils(self):
        # with cubic data the order-3 iterated differences corrupt a few
        # boundary-adjacent nodes (raw stencils, documented); the identity
        # still holds on the interior window
        n = 512
        grid = Grid(0.0, 1.0, n)
        t = grid.nodes()
        f2 = GridFunction(grid, t**3 - t)
        g = GridFunction(grid, t**2 + 1.0)
        alpha = 0.5
        series = transfer_series(f2, g, alpha, 3)
        lhs = central_difference(series.total()[:, None], grid.h)[:, 0]
        rhs = (
            g.values * caputo_left(f2, alpha).values
            - f2.values * rl_derivative_right(g, alpha).values
        )[:, 0]
        mask = (t >= 0.05) & (t <= 0.95)
        gap = np.max(np.abs(lhs[mask] - rhs[mask]))
        assert gap < series.tail_estimate + 0.1

    def test_alpha_one_order_zero_term_uses_identity(self):
        n = 128
        grid = Grid(0.0, 1.0, n)
        t = grid.nodes()
        f2 = GridFunction(grid, t)
        g = GridFunction(grid, 2.0 + 0.0 * t)
        series = transfer_series(f2, g, 1.0, 0)
        # term_0 = g (f2 - f2(a)) + f2 . I_right^0 g with I^0 the identity
        expected = 2.0 * t + 2.0 * t
        npt.assert_allclose(series.terms[0], expected, atol=1e-12)

    @pytest.mark.parametrize("truncation", [math.nan, math.inf])
    def test_non_finite_truncation_rejected(self, truncation):
        grid = Grid(0.0, 1.0, 32)
        f = GridFunction(grid, grid.nodes())
        with pytest.raises(ValidationError, match="must be a non-negative integer"):
            transfer_series(f, f, 0.5, truncation)

    def test_truncation_cap(self):
        grid = Grid(0.0, 1.0, 32)
        f = GridFunction(grid, grid.nodes())
        with pytest.raises(ValidationError):
            transfer_series(f, f, 0.5, 7)
        with pytest.raises(ValidationError):
            transfer_series(f, f, 0.5, -1)


# -------------------------------------------------------- conserved quantities


class TestNoetherQuantity:
    def test_classical_energy_from_time_translation(self):
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 512), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        c = noether_quantity(p, sol, time_translation(), truncation=2)
        assert drift_report(c) < 1e-4
        # the quantity is -(energy); energy of cos is 1/2
        assert c.values[1:-1, 0] == pytest.approx(-0.5, abs=1e-3)

    def test_classical_momentum_from_space_translation(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 256), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        c = noether_quantity(p, sol, space_translation([1.0]), truncation=0)
        npt.assert_allclose(c.values[1:-1, 0], 1.0, atol=1e-6)

    def test_fractional_space_translation_quantity_drift_shrinks(self):
        # q-independent fractional Lagrangian is invariant under translation;
        # the no-time-change quantity qdot + I_right^(1-alpha)(dL/dw) must be
        # constant, with drift vanishing under refinement. The rate is set by
        # the (b-t)^(3/2) solution layer, about sqrt(2) per doubling.
        drifts = []
        for n in (128, 256, 512):
            p = VariationalProblem(
                quadratic_mix(1.0, 1.0), Grid(0.0, 1.0, n), 0.5, ([0.0], [1.0])
            )
            sol = solve_extremal(p)
            c = noether_quantity(p, sol, space_translation([1.0]), truncation=2)
            drifts.append(drift_report(c))
        assert drifts[0] / drifts[1] > 1.3
        assert drifts[1] / drifts[2] > 1.3

    def test_fractional_translation_quantity_closed_form(self):
        # independent assembly of the same quantity from the raw operators
        p = VariationalProblem(quadratic_mix(1.0, 1.0), Grid(0.0, 1.0, 256), 0.5, ([0.0], [1.0]))
        sol = solve_extremal(p)
        c = noether_quantity(p, sol, space_translation([1.0]), truncation=2)
        manual = sol.velocity.values[:, 0] + rl_integral_right(sol.caputo_velocity, 0.5).values[:, 0]
        npt.assert_allclose(c.values[:, 0], manual, atol=1e-12)

    @pytest.mark.parametrize("truncation", [math.nan, math.inf])
    def test_non_finite_truncation_rejected(self, truncation):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 32), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        with pytest.raises(ValidationError, match="must be a non-negative integer"):
            noether_quantity(p, sol, space_translation([1.0]), truncation=truncation)

    def test_truncation_rejected_above_cap(self):
        p = VariationalProblem(free_particle(), Grid(0.0, 1.0, 32), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        with pytest.raises(ValidationError):
            noether_quantity(p, sol, space_translation([1.0]), truncation=9)


class TestAutonomousQuantity:
    def test_classical_energy(self):
        p = VariationalProblem(
            harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 512), 1.0, ([1.0], [0.0])
        )
        sol = solve_extremal(p)
        c = autonomous_quantity(p, sol)
        t = p.grid.nodes()
        energy = 0.5 * np.sin(t) ** 2 + 0.5 * np.cos(t) ** 2
        npt.assert_allclose(c.values[1:-1, 0], -energy[1:-1], atol=1e-3)
        assert drift_report(c) < 1e-4

    @pytest.mark.parametrize(
        "lag, alpha, boundary",
        [
            (quadratic_mix(1.0, 1.0, -0.5, 0.2), 0.5, ([0.0], [1.0])),
            (quadratic_mix(0.8, 1.2, dim=2), 0.7, ([1.0, 0.0], [0.0, 0.5])),
            (harmonic_oscillator(), 1.0, ([1.0], [0.0])),
        ],
    )
    def test_equals_its_formula(self, lag, alpha, boundary):
        p = VariationalProblem(lag, Grid(0.0, 1.0, 64), alpha, boundary)
        sol = solve_extremal(p)
        t = p.grid.nodes()
        q, v, w = sol.trajectory.values, sol.velocity.values, sol.caputo_velocity.values
        formula = (
            lag.evaluate(t, q, v, w)
            - np.sum(v * lag.dv(t, q, v, w), axis=1)
            - alpha * np.sum(lag.dw(t, q, v, w) * w, axis=1)
        )
        c = autonomous_quantity(p, sol)
        npt.assert_array_equal(c.values[:, 0], formula)
        full = noether_quantity(p, sol, time_translation(lag.dim), truncation=2)
        npt.assert_array_equal(full.values, c.values)

    def test_constant_trajectory(self):
        lag = quadratic_mix(1.0, 0.0, 0.0, 0.0)
        p = VariationalProblem(lag, Grid(0.0, 1.0, 64), 1.0, ([2.0], [2.0]))
        sol = solve_extremal(p)
        c = autonomous_quantity(p, sol)
        npt.assert_allclose(c.values, 0.0, atol=1e-12)

    def test_rejects_non_autonomous(self):
        lag = LagrangianSpec(
            dim=1,
            evaluate=lambda t, q, v, w: 0.5 * np.sum(v * v, axis=1) + t,
            autonomous=False,
        )
        p = VariationalProblem(lag, Grid(0.0, 1.0, 32), 1.0, ([0.0], [1.0]))
        sol = solve_extremal(p)
        with pytest.raises(ValidationError):
            autonomous_quantity(p, sol)


class TestDriftReport:
    def test_constant_input_is_zero(self):
        g = Grid(0.0, 1.0, 64)
        assert drift_report(GridFunction(g, np.full(65, 2.5))) == 0.0

    def test_linear_input_formula(self):
        # interior scan: max |t - h| over nodes 1..n-1 is 1 - 2h, normalized
        # by 1 + h (t0 is the first interior node)
        n = 64
        g = Grid(0.0, 1.0, n)
        value = drift_report(GridFunction(g, g.nodes()))
        assert value == pytest.approx((1.0 - 2.0 * g.h) / (1.0 + g.h), rel=1e-12)

    def test_requires_finite_interior(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.ones(9)
        vals[4] = np.nan
        with pytest.raises(ValidationError):
            drift_report(GridFunction(g, vals))

    def test_rejects_vector_quantities(self):
        g = Grid(0.0, 1.0, 8)
        with pytest.raises(ValidationError):
            drift_report(GridFunction(g, np.ones((9, 2))))
