"""Acceptance suite: the package's numbered exit criteria.

Each criterion is a self-contained check returning a result record with a
pass flag, a human-readable detail string, and its wall-clock cost. Every
refinement check goes through ``_rates``, one neighbour-ratio test. The CLI
``accept`` command and the test suite both run this list; nothing here is
randomized, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import tempfile
import time
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fracops import caputo_left, caputo_right, ibp_residual, rl_derivative_left, rl_derivative_right
from .friction import FrictionProblem, friction_diagnostics, simulate_damped_eom, window_shrink_study
from .grid import Grid, GridFunction, central_difference
from .lagrangian import harmonic_oscillator, polynomial_potential, quadratic_mix
from .noether import autonomous_quantity, drift_report, transfer_series
from .optctrl import (
    autonomous_control_quantity, hamiltonian_values, pontryagin_residuals, reduction_state,
    scalar_tracking_problem, solve_control, variational_reduction,
)
from .scenarios import parse_scenario, run_scenario
from .variational import VariationalProblem, el_residual, solve_extremal


@dataclass
class CriterionResult:
    index: int
    title: str
    passed: bool
    detail: str
    seconds: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.seconds < self.budget

    def line(self) -> str:
        status = "PASS" if (self.passed and self.within_budget) else "FAIL"
        cost = f"{self.seconds:6.2f}s/{self.budget:.0f}s"
        return f"{status} criterion {self.index:2d} [{cost}] {self.title}: {self.detail}"


CRITERIA = []


def _criterion(index, title, budget):
    def wrap(fn):
        fn._criterion = (index, title, budget)
        CRITERIA.append(fn)
        return fn

    return wrap


_Rates = namedtuple("_Rates", "values ratios passed detail")


def _rates(label, sequence, quantity, lower, upper=math.inf, fmt=".2e") -> _Rates:
    """Evaluate ``quantity`` on each step of a refinement ``sequence``; each neighbour
    ratio (coarse over fine) must lie in [lower, upper]. Detail: ``label=[...] ratios=[...]``."""
    values = [quantity(step) for step in sequence]
    ratios = [coarse / fine for coarse, fine in zip(values, values[1:])]
    passed = all(lower <= r <= upper for r in ratios)
    detail = f"{label}={[format(v, fmt) for v in values]} ratios={[f'{r:.2f}' for r in ratios]}"
    return _Rates(values, ratios, passed, detail)


@_criterion(1, "operator accuracy (Caputo power rule)", 1.0)
def criterion_operator_accuracy(cache):
    alpha = 0.5

    def error(n):
        g = Grid(0.0, 1.0, n)
        t = g.nodes()
        out = caputo_left(GridFunction(g, t**2), alpha).column()
        exact = math.gamma(3.0) / math.gamma(3.0 - alpha) * t ** (2.0 - alpha)
        return float(np.max(np.abs(out - exact)))

    # order 2 - alpha = 1.5: orders in [1.4, 1.6]
    errors = _rates("errors", (64, 128, 256, 512), error, 2.0**1.4, 2.0**1.6)
    return errors.passed and errors.values[-1] < 5e-3, errors.detail


@_criterion(2, "classical-limit reduction at alpha=1", 1.0)
def criterion_classical_limit(cache):
    g = Grid(0.0, 1.0, 128)
    t = g.nodes()
    worst = 0.0
    for k in range(4):
        f = GridFunction(g, t**k)
        ref = central_difference(f.values, g.h)[:, 0]
        for op in (caputo_left, rl_derivative_left):
            worst = max(worst, float(np.max(np.abs(op(f, 1.0).column() - ref))))
        for op in (caputo_right, rl_derivative_right):
            worst = max(worst, float(np.max(np.abs(op(f, 1.0).column() + ref))))
    return worst < 1e-10, f"max deviation from difference derivative {worst:.2e}"


@_criterion(3, "integration by parts under refinement", 5.0)
def criterion_ibp(cache):
    def residual(n):
        g = Grid(0.0, 1.0, n)
        t = g.nodes()
        return ibp_residual(GridFunction(g, t * (1.0 - t)), GridFunction(g, t + 1.0), 0.5)

    residuals = _rates("residuals", (64, 128, 256, 512, 1024), residual, 2.6)
    return residuals.passed, residuals.detail


def _harmonic(cache):
    """The alpha = 1 oscillator x'' = -x on [0, pi/2] at n = 128, 256, 512, solved once."""
    if "harmonic" not in cache:
        grids = [Grid(0.0, math.pi / 2.0, n) for n in (128, 256, 512)]
        problems = [VariationalProblem(harmonic_oscillator(), g, 1.0, ([1.0], [0.0])) for g in grids]
        cache["harmonic"] = [(problem, solve_extremal(problem)) for problem in problems]
    return cache["harmonic"]


@_criterion(4, "Euler-Lagrange correctness (harmonic oscillator)", 5.0)
def criterion_harmonic_extremal(cache):
    def trajectory_error(solve):
        problem, sol = solve
        return float(np.max(np.abs(sol.trajectory.column() - np.cos(problem.grid.nodes()))))

    # second order in the trajectory, first in the residual max-norm (one-sided end stencil)
    errors = _rates("trajectory err", _harmonic(cache), trajectory_error, 3.5)
    residuals = _rates("el_residual_norm", _harmonic(cache), lambda s: s[1].el_residual_norm, 1.8)
    errors_ok = errors.passed and errors.values[-1] < 1e-4
    residuals_ok = residuals.passed and residuals.values[-1] < 1e-3
    return errors_ok and residuals_ok, f"{errors.detail}; {residuals.detail}"


@_criterion(5, "classical energy first integral", 5.0)
def criterion_classical_energy(cache):
    def drift(solve):
        problem, sol = solve
        return drift_report(autonomous_quantity(problem, sol.trajectory))

    drifts = _rates("energy drift", _harmonic(cache), drift, 3.5)
    return drifts.passed and drifts.values[-1] < 1e-4, drifts.detail


@_criterion(6, "fractional Noether quantity under refinement", 5.0)
def criterion_fractional_noether(cache):
    def drift(n):
        problem = VariationalProblem(
            quadratic_mix(1.0, 1.0), Grid(0.0, 1.0, n), 0.5, ([0.0], [1.0])
        )
        return drift_report(autonomous_quantity(problem, solve_extremal(problem).trajectory))

    drifts = _rates("drifts", (128, 256, 512), drift, 1.5, fmt=".4f")
    return drifts.passed, drifts.detail


@_criterion(7, "transfer formula identity", 5.0)
def criterion_transfer_formula(cache):
    # on a fixed interior panel the gap converges at order ~1.5; next to the
    # endpoints it decays slowly (4.2e-3, 2.9e-3, 2.0e-3), so it gets a bound
    alpha = 0.5
    interior_gaps = {}

    def panel_gap(n):
        grid = Grid(0.0, 1.0, n)
        t = grid.nodes()
        f2 = GridFunction(grid, t**2 - t)
        g = GridFunction(grid, t**2 + 1.0)
        series = transfer_series(f2, g, alpha, 3)
        lhs = central_difference(series.total()[:, None], grid.h)[:, 0]
        rhs = (
            g.values * caputo_left(f2, alpha).values
            - f2.values * rl_derivative_right(g, alpha).values
        )[:, 0]
        gap = np.abs(lhs - rhs)
        interior_gaps[n] = float(np.max(gap[1:-1]))
        return float(np.max(gap[(t >= 1.0 / 16.0) & (t <= 15.0 / 16.0)]))

    panel_gaps = _rates("panel gaps", (256, 512, 1024), panel_gap, 2.7)
    ok = panel_gaps.passed and interior_gaps[512] < 5e-3
    return ok, f"{panel_gaps.detail} interior gap(512)={interior_gaps[512]:.2e}"


@_criterion(8, "friction demo (limit EOM, shrink law, non-conservation)", 5.0)
def criterion_friction_demo(cache):
    fp_free = FrictionProblem(1.0, 1.0, *polynomial_potential([]))
    sim = simulate_damped_eom(fp_free, q0=0.0, v0=1.0, horizon=1.0, steps=1024)
    eom_err = abs(sim.values[-1, 0] - (1.0 - math.exp(-1.0)))

    windows = [Grid(1.0 - 0.25 / 2**k, 1.0 + 0.25 / 2**k, 256) for k in range(5)]
    energy = window_shrink_study(fp_free, lambda t: 1.0 - np.exp(-t), windows)["friction_energy"]
    # the friction energy halves with the window: each fine-over-coarse ratio within 0.05 of 0.5
    shrink = _rates("energy", range(len(windows)), lambda k: energy[k], 1.0 / 0.55, 1.0 / 0.45)
    halving = [1.0 / r for r in shrink.ratios]

    u, du = polynomial_potential([0.0, 0.0, 0.5])
    drifts = {}
    for gamma_value in (1.0, 0.0):
        fp = FrictionProblem(1.0, gamma_value, u, du)
        run = simulate_damped_eom(fp, q0=1.0, v0=0.0, horizon=1.0, steps=1024)
        q = GridFunction(run.grid, run.values[:, 0])
        drifts[gamma_value] = drift_report(friction_diagnostics(fp, q).hamiltonian)
    nonconservation_ok = drifts[1.0] > 10.0 * drifts[0.0]

    ok = eom_err < 1e-8 and shrink.passed and nonconservation_ok
    return ok, (
        f"q(1) err={eom_err:.2e}; energy halving={[f'{r:.3f}' for r in halving]}; "
        f"H drift damped/undamped={drifts[1.0]:.2e}/{drifts[0.0]:.2e}"
    )


@_criterion(9, "Pontryagin reduction identity", 5.0)
def criterion_pontryagin_reduction(cache):
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(5):
        cv, cw = rng.uniform(0.5, 2.0, size=2)
        cq, slope = rng.uniform(-0.5, 0.5, size=2)
        lag = quadratic_mix(cv, cw, cq, slope)
        grid = Grid(0.0, 1.0, 64)
        alpha = rng.uniform(0.3, 0.9)
        cp = variational_reduction(lag, grid, alpha, [0.0])
        t = grid.nodes()
        vals = t + 0.3 * np.sin((trial + 1) * np.pi * t)
        q = GridFunction(grid, vals)
        state = reduction_state(cp, q, lag)
        res = pontryagin_residuals(cp, state)
        vp = VariationalProblem(lag, grid, alpha, ([0.0], [float(vals[-1])]))
        el = el_residual(vp, q).values
        scale = float(np.max(np.abs(el))) + 1e-30
        worst = max(worst, float(np.max(np.abs(res[2].values - el))) / scale)
        for k in (0, 1, 3, 4):
            worst = max(worst, float(np.max(np.abs(res[k].values))) / scale)
    return worst < 1e-10, f"worst relative residual gap {worst:.2e}"


@_criterion(10, "control Noether quantity under refinement", 5.0)
def criterion_control_noether(cache):
    hamiltonian_drifts = {}

    def corrected_drift(n):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, n), 0.5, 1.0, state_weight=1.0)
        state = solve_control(cp)
        hamiltonian_drifts[n] = drift_report(GridFunction(cp.grid, hamiltonian_values(cp, state)))
        return drift_report(autonomous_control_quantity(cp, state))

    # the corrected drift falls strictly (every ratio above 1) and never exceeds H's
    falls = math.nextafter(1.0, 2.0)
    corrected = _rates("corrected", (32, 64, 128), corrected_drift, falls, fmt=".4f")
    h = list(hamiltonian_drifts.values())
    ok = corrected.passed and all(c <= d for c, d in zip(corrected.values, h))
    return ok, f"{corrected.detail} H={[f'{d:.4f}' for d in h]}"


_DEMO_SCENARIO = """[scenario]
kind = friction

[friction]
mass = 1.0
gamma = 1.0
potential = 0
q0 = 0.0
v0 = 1.0
horizon = 1.0
steps = 512
window_a = 0.0
window_b = 1.0
window_n = 256
shrink_windows = 4
"""


@_criterion(11, "determinism of repeated runs", 5.0)
def criterion_determinism(cache):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        scenario_file = tmp_path / "demo.ini"
        scenario_file.write_text(_DEMO_SCENARIO, encoding="ascii")
        scenario = parse_scenario(scenario_file)
        digests = []
        for run_index in (0, 1):
            manifest = run_scenario(scenario, out_dir=tmp_path / f"run{run_index}")
            digests.append({f["name"]: f["sha256"] for f in manifest.files})
    ok = digests[0] == digests[1]
    return ok, f"{len(digests[0])} files, digests {'identical' if ok else 'DIFFER'}"


def run_criterion(fn, cache) -> CriterionResult:
    index, title, budget = fn._criterion
    start = time.monotonic()
    try:
        passed, detail = fn(cache)
    except Exception as exc:  # honest reporting beats a crash mid-suite
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.monotonic() - start
    return CriterionResult(index, title, bool(passed), detail, seconds, budget)


def run_all() -> list:
    cache = {}
    return [run_criterion(fn, cache) for fn in CRITERIA]
