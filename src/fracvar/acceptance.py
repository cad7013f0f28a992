"""Acceptance suite: the package's numbered exit criteria.

Each criterion is a self-contained check returning a result record with a
pass flag, a human-readable detail string, and its wall-clock cost. The CLI
``accept`` command and the test suite both run this list; nothing here is
randomized, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fracops import (
    caputo_left,
    caputo_right,
    ibp_residual,
    rl_derivative_left,
    rl_derivative_right,
)
from .friction import (
    FrictionProblem,
    friction_diagnostics,
    simulate_damped_eom,
    window_shrink_study,
)
from .grid import Grid, GridFunction, central_difference
from .lagrangian import harmonic_oscillator, polynomial_potential, quadratic_mix
from .noether import autonomous_quantity, drift_report, transfer_series
from .optctrl import (
    autonomous_control_quantity,
    hamiltonian_values,
    pontryagin_residuals,
    reduction_state,
    scalar_tracking_problem,
    solve_control,
    variational_reduction,
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
    budget: float | None

    @property
    def within_budget(self) -> bool:
        return self.budget is None or self.seconds < self.budget

    def line(self) -> str:
        status = "PASS" if (self.passed and self.within_budget) else "FAIL"
        budget = f"/{self.budget:.0f}s" if self.budget else ""
        return f"{status} criterion {self.index:2d} [{self.seconds:6.2f}s{budget}] {self.title}: {self.detail}"


def _criterion(index, title, budget):
    def wrap(fn):
        fn._criterion = (index, title, budget)
        return fn

    return wrap


@_criterion(1, "operator accuracy (Caputo power rule)", 1.0)
def criterion_operator_accuracy(cache):
    alpha = 0.5
    errors = {}
    for n in (64, 128, 256, 512):
        g = Grid(0.0, 1.0, n)
        t = g.nodes()
        out = caputo_left(GridFunction(g, t**2), alpha).column()
        exact = math.gamma(3.0) / math.gamma(3.0 - alpha) * t ** (2.0 - alpha)
        errors[n] = float(np.max(np.abs(out - exact)))
    orders = [
        math.log2(errors[n] / errors[2 * n]) for n in (64, 128, 256)
    ]
    ok = errors[512] < 5e-3 and all(1.3 <= o <= 2.0 for o in orders)
    return ok, f"err(512)={errors[512]:.2e} orders={[f'{o:.2f}' for o in orders]}"


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
    residuals = []
    for n in (64, 128, 256, 512, 1024):
        g = Grid(0.0, 1.0, n)
        t = g.nodes()
        f = GridFunction(g, t * (1.0 - t))
        gfun = GridFunction(g, t + 1.0)
        residuals.append(ibp_residual(f, gfun, 0.5))
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    ok = min(ratios) >= 1.8
    return ok, f"residuals={[f'{r:.2e}' for r in residuals]} min ratio={min(ratios):.2f}"


@_criterion(4, "Euler-Lagrange correctness (harmonic oscillator)", 30.0)
def criterion_harmonic_extremal(cache):
    problem = VariationalProblem(
        harmonic_oscillator(), Grid(0.0, math.pi / 2.0, 512), 1.0, ([1.0], [0.0])
    )
    sol = solve_extremal(problem)
    cache["harmonic"] = (problem, sol)
    err = float(np.max(np.abs(sol.trajectory.column() - np.cos(problem.grid.nodes()))))
    ok = err < 1e-4 and sol.el_residual_norm < 1e-3
    return ok, f"trajectory err={err:.2e} el_residual_norm={sol.el_residual_norm:.2e}"


@_criterion(5, "classical energy first integral", 5.0)
def criterion_classical_energy(cache):
    if "harmonic" not in cache:
        criterion_harmonic_extremal(cache)
    problem, sol = cache["harmonic"]
    drift = drift_report(autonomous_quantity(problem, sol))
    return drift < 1e-4, f"energy drift={drift:.2e}"


@_criterion(6, "fractional Noether quantity under refinement", 120.0)
def criterion_fractional_noether(cache):
    drifts = []
    for n in (128, 256, 512):
        problem = VariationalProblem(
            quadratic_mix(1.0, 1.0), Grid(0.0, 1.0, n), 0.5, ([0.0], [1.0])
        )
        sol = solve_extremal(problem)
        drifts.append(drift_report(autonomous_quantity(problem, sol)))
    ratios = [drifts[i] / drifts[i + 1] for i in range(len(drifts) - 1)]
    ok = min(ratios) >= 1.5
    return ok, f"drifts={[f'{d:.4f}' for d in drifts]} ratios={[f'{r:.2f}' for r in ratios]}"


@_criterion(7, "transfer formula identity", 10.0)
def criterion_transfer_formula(cache):
    # on a fixed interior panel the gap converges at order ~1.5; next to the
    # endpoints it decays slowly (4.2e-3, 2.9e-3, 2.0e-3), so it gets a bound
    alpha = 0.5
    panel_gaps = []
    for n in (256, 512, 1024):
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
        panel_gaps.append(float(np.max(gap[(t >= 1.0 / 16.0) & (t <= 15.0 / 16.0)])))
        if n == 512:
            interior_gap = float(np.max(gap[1:-1]))
    ratios = [panel_gaps[i] / panel_gaps[i + 1] for i in range(len(panel_gaps) - 1)]
    ok = min(ratios) >= 2.5 and interior_gap < 5e-3
    return ok, (
        f"panel gaps={[f'{x:.2e}' for x in panel_gaps]} ratios={[f'{r:.2f}' for r in ratios]} "
        f"interior gap(512)={interior_gap:.2e}"
    )


@_criterion(8, "friction demo (limit EOM, shrink law, non-conservation)", 30.0)
def criterion_friction_demo(cache):
    fp_free = FrictionProblem(1.0, 1.0, *polynomial_potential([]))
    sim = simulate_damped_eom(fp_free, q0=0.0, v0=1.0, horizon=1.0, steps=1024)
    eom_err = abs(sim.values[-1, 0] - (1.0 - math.exp(-1.0)))

    windows = [Grid(1.0 - 0.25 / 2**k, 1.0 + 0.25 / 2**k, 256) for k in range(5)]
    table = window_shrink_study(fp_free, lambda t: 1.0 - np.exp(-t), windows)
    energy = table["friction_energy"]
    halving = [energy[i + 1] / energy[i] for i in range(len(energy) - 1)]
    halving_ok = all(abs(r - 0.5) <= 0.05 for r in halving)

    u, du = polynomial_potential([0.0, 0.0, 0.5])
    drifts = {}
    for gamma_value in (1.0, 0.0):
        fp = FrictionProblem(1.0, gamma_value, u, du)
        run = simulate_damped_eom(fp, q0=1.0, v0=0.0, horizon=1.0, steps=1024)
        q = GridFunction(run.grid, run.values[:, 0])
        drifts[gamma_value] = drift_report(friction_diagnostics(fp, q).hamiltonian)
    nonconservation_ok = drifts[1.0] > 10.0 * drifts[0.0]

    ok = eom_err < 1e-8 and halving_ok and nonconservation_ok
    return ok, (
        f"q(1) err={eom_err:.2e}; energy halving={[f'{r:.3f}' for r in halving]}; "
        f"H drift damped/undamped={drifts[1.0]:.2e}/{drifts[0.0]:.2e}"
    )


@_criterion(9, "Pontryagin reduction identity", 10.0)
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


@_criterion(10, "control Noether quantity under refinement", 120.0)
def criterion_control_noether(cache):
    rows = []
    for n in (32, 64, 128):
        cp = scalar_tracking_problem(Grid(0.0, 1.0, n), 0.5, 1.0, state_weight=1.0)
        state = solve_control(cp)
        corrected = drift_report(autonomous_control_quantity(cp, state))
        ham = GridFunction(cp.grid, hamiltonian_values(cp, state))
        rows.append((corrected, drift_report(ham)))
    decreasing = all(rows[i][0] > rows[i + 1][0] for i in range(len(rows) - 1))
    never_worse = all(c <= h for c, h in rows)
    ok = decreasing and never_worse
    return ok, f"corrected={[f'{c:.4f}' for c, _ in rows]} H={[f'{h:.4f}' for _, h in rows]}"


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


@_criterion(11, "determinism of repeated runs", None)
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


CRITERIA = [
    criterion_operator_accuracy,
    criterion_classical_limit,
    criterion_ibp,
    criterion_harmonic_extremal,
    criterion_classical_energy,
    criterion_fractional_noether,
    criterion_transfer_formula,
    criterion_friction_demo,
    criterion_pontryagin_reduction,
    criterion_control_noether,
    criterion_determinism,
]


def run_criterion(fn, cache) -> CriterionResult:
    index, title, budget = fn._criterion
    start = time.monotonic()
    try:
        passed, detail = fn(cache)
    except Exception as exc:  # honest reporting beats a crash mid-suite
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.monotonic() - start
    return CriterionResult(index, title, bool(passed), detail, seconds, budget)


def run_all(cache=None) -> list:
    cache = {} if cache is None else cache
    return [run_criterion(fn, cache) for fn in CRITERIA]
