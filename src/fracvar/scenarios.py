"""Scenario configs, batch execution, and run manifests.

Scenarios are flat INI files: a ``[scenario]`` section names the kind, and
one kind-specific section carries the parameters. Custom Lagrangians are
limited to the registered coefficient families - configs stay auditable,
there is no expression interpreter. Every run writes CSV artifacts plus a
``manifest.json`` listing each emitted file with its SHA-256 digest; outputs
carry no timestamps, so reruns of the same scenario are byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .friction import (
    FrictionProblem,
    friction_diagnostics,
    friction_lagrangian,
    simulate_damped_eom,
    window_shrink_study,
)
from .fracops import (
    caputo_left,
    caputo_right,
    rl_derivative_left,
    rl_derivative_right,
    rl_integral_left,
    rl_integral_right,
)
from .grid import Grid, GridFunction, write_csv
from .lagrangian import (
    free_particle,
    harmonic_oscillator,
    polynomial_potential,
    potential_polynomial,
    quadratic_mix,
)
from .noether import (
    drift_report,
    invariance_defect,
    noether_quantity,
    transfer_series,
)
from .optctrl import (
    autonomous_control_quantity,
    scalar_tracking_problem,
    hamiltonian_values,
    solve_control,
    variational_reduction,
)
from .symmetry import rotation, space_translation, time_translation
from .variational import VariationalProblem, solve_extremal

_OPERATORS = {
    "caputo-left": caputo_left,
    "caputo-right": caputo_right,
    "rl-derivative-left": rl_derivative_left,
    "rl-derivative-right": rl_derivative_right,
    "rl-integral-left": rl_integral_left,
    "rl-integral-right": rl_integral_right,
}


@dataclass
class Scenario:
    kind: str
    parameters: dict
    out_dir: str = "out"


@dataclass
class RunManifest:
    scenario: dict
    version: str
    wall_clock_sec: float
    files: list = field(default_factory=list)  # [{"name": ..., "sha256": ...}]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


class _Params:
    """Typed access to one config section with key-named errors."""

    def __init__(self, section: str, data: dict):
        self.section = section
        self.data = dict(data)

    def require(self, key: str) -> str:
        if key not in self.data:
            raise ValidationError(f"scenario is missing required key '{key}'")
        return self.data[key]

    def get(self, key: str, default=None):
        return self.data.get(key, default)

    def _float(self, key: str, default) -> float:
        raw = self.require(key) if default is None else self.data.get(key, default)
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ValidationError(f"key '{key}' must be a number, got {raw!r}") from None

    def number(self, key: str, default=None) -> float:
        value = self._float(key, default)
        if not math.isfinite(value):
            raise ValidationError(f"key '{key}' must be a finite number, got {value!r}")
        return value

    def positive(self, key: str, default=None) -> float:
        value = self.number(key, default)
        if value <= 0.0:
            raise ValidationError(f"key '{key}' must be > 0, got {value!r}")
        return value

    def integer(self, key: str, default=None) -> int:
        value = self._float(key, default)
        if not math.isfinite(value) or int(value) != value:
            raise ValidationError(f"key '{key}' must be an integer, got {value!r}")
        return int(value)

    def vector(self, key: str, default=None) -> np.ndarray:
        raw = self.require(key) if default is None else self.data.get(key, default)
        if isinstance(raw, (int, float)):
            return np.array([float(raw)])
        try:
            return np.array([float(x) for x in str(raw).split(",") if x.strip() != ""])
        except ValueError:
            raise ValidationError(f"key '{key}' must be a comma-separated number list") from None

    def int_list(self, key: str, default=None) -> list:
        vec = self.vector(key, default)
        out = []
        for v in vec:
            if not math.isfinite(v) or int(v) != v:
                raise ValidationError(f"key '{key}' must list integers")
            out.append(int(v))
        return out


def parse_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValidationError(f"cannot parse scenario file {path}: {exc}") from None
    if "scenario" not in parser:
        raise ValidationError("scenario file needs a [scenario] section")
    head = dict(parser["scenario"])
    kind = head.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"key 'kind' must be one of {KINDS}, got {kind!r}")
    params = dict(parser[kind]) if kind in parser else {}
    return Scenario(kind=kind, parameters=params, out_dir=head.get("out", "out"))


# ------------------------------------------------------- builders per kind


def build_lagrangian(params: _Params):
    family = params.require("lagrangian")
    if family == "free":
        return free_particle(dim=params.integer("dim", 1), mass=params.number("mass", 1.0))
    if family == "harmonic":
        return harmonic_oscillator(
            dim=params.integer("dim", 1),
            mass=params.number("mass", 1.0),
            stiffness=params.number("stiffness", 1.0),
        )
    if family == "potential-polynomial":
        coeffs = params.vector("coefficients")
        return potential_polynomial(coeffs, mass=params.number("mass", 1.0))
    if family == "friction":
        mass = params.number("mass", 1.0)
        gamma = params.number("gamma", 1.0)
        potential = polynomial_potential(params.vector("potential", "0"))
        return friction_lagrangian(FrictionProblem(mass, gamma, *potential, Grid(0.0, 1.0, 2)))
    if family == "custom-coefficients":
        return quadratic_mix(
            velocity_weight=params.number("velocity_weight", 1.0),
            caputo_weight=params.number("caputo_weight", 0.0),
            state_weight=params.number("state_weight", 0.0),
            state_slope=params.number("state_slope", 0.0),
            dim=params.integer("dim", 1),
        )
    raise ValidationError(f"key 'lagrangian' names an unknown family {family!r}")


def build_symmetry(params: _Params, dim: int):
    family = params.get("symmetry", "time-translation")
    if family == "time-translation":
        return time_translation(dim=dim)
    if family == "space-translation":
        direction = params.vector("direction", "1")
        if len(direction) != dim:
            raise ValidationError("key 'direction' must match the problem dimension")
        return space_translation(direction)
    if family == "rotation":
        if dim != 2:
            raise ValidationError("key 'symmetry' = rotation needs a 2-dimensional problem")
        return rotation(params.number("omega", 1.0))
    raise ValidationError(f"key 'symmetry' names an unknown family {family!r}")


def _variational_problem(params: _Params) -> VariationalProblem:
    lag = build_lagrangian(params)
    alpha = params.number("alpha")
    grid = Grid(params.number("a", 0.0), params.number("b", 1.0), params.integer("n"))
    q_a = params.vector("q_a")
    q_b = params.vector("q_b")
    if len(q_a) != lag.dim or len(q_b) != lag.dim:
        raise ValidationError("keys 'q_a'/'q_b' must match the Lagrangian dimension")
    return VariationalProblem(lag, grid, alpha, (q_a, q_b))


# -------------------------------------------------------------- executors
#
# Each executor takes the kind's parameters and the output directory, writes
# its CSV files there, and returns the emitted file names plus the headline
# metric that ``convergence_study`` tabulates against resolution.


def _power_reference(operator: str, k: float, alpha: float, x: np.ndarray) -> np.ndarray:
    """Closed-form value of the operator on x^k, x the distance to its base point."""
    if operator.startswith("rl-integral"):
        return math.gamma(k + 1.0) / math.gamma(k + 1.0 + alpha) * x ** (k + alpha)
    if k == 0.0 and (alpha == 1.0 or operator.startswith("caputo")):
        return np.zeros_like(x)  # a constant has no Caputo or classical derivative
    with np.errstate(divide="ignore"):  # x^-alpha at the RL pole, which callers mask
        return math.gamma(k + 1.0) / math.gamma(k + 1.0 - alpha) * x ** (k - alpha)


def _operator_error(operator: str, exponent: int, alpha: float, grid: Grid) -> float:
    t = grid.nodes()
    x = (grid.b - t) if operator.endswith("right") else (t - grid.a)
    k = float(exponent)
    out = _OPERATORS[operator](GridFunction(grid, x**k), alpha).column()
    ref = _power_reference(operator, k, alpha, x)
    mask = np.isfinite(out)
    return float(np.max(np.abs(out[mask] - ref[mask])))


def _log2_ratios(values: list) -> list:
    """NaN, then log2(v[i] / v[i+1]) per neighbouring pair (NaN where v[i+1] is 0)."""
    return [np.nan] + [
        np.log2(values[i] / values[i + 1]) if values[i + 1] > 0 else np.nan
        for i in range(len(values) - 1)
    ]


def _run_operator_test(params: _Params, out: Path):
    operator = params.require("operator")
    if operator not in _OPERATORS:
        raise ValidationError(f"key 'operator' names an unknown operator {operator!r}")
    alpha = params.number("alpha")
    a = params.number("a", 0.0)
    b = params.number("b", 1.0)
    exponent = params.integer("exponent", 2)
    grids = params.int_list("grids", "64,128,256,512")
    errors = [_operator_error(operator, exponent, alpha, Grid(a, b, n)) for n in grids]
    cols = [grids, [(b - a) / n for n in grids], errors]
    header = ["n", "h", "max_error"]
    if len(grids) >= 2:
        header.append("observed_order")
        cols.append(_log2_ratios(errors))
    write_csv(out / "convergence.csv", header, cols)
    return ["convergence.csv"], errors[grids.index(max(grids))]


def _solve_with_files(params: _Params, out: Path):
    """Solve the scenario's variational problem; write solution.csv and summary.csv."""
    problem = _variational_problem(params)
    sol = solve_extremal(problem, tol=params.positive("tolerance", 1e-8))
    sol.to_csv(out / "solution.csv")
    write_csv(
        out / "summary.csv",
        ["action", "el_residual_norm", "gradient_norm", "iterations"],
        [[sol.action], [sol.el_residual_norm], [sol.gradient_norm], [sol.iterations]],
    )
    return problem, sol


def _run_extremal(params: _Params, out: Path):
    _, sol = _solve_with_files(params, out)
    return ["solution.csv", "summary.csv"], sol.el_residual_norm


def _run_noether(params: _Params, out: Path):
    problem, sol = _solve_with_files(params, out)
    symmetry = build_symmetry(params, problem.dim)
    r = params.integer("truncation", 2)
    quantity = noether_quantity(problem, sol, symmetry, truncation=r)
    f = problem.along(sol.trajectory)
    tau, f2 = symmetry.rates_on(f.t, f.q)
    series = transfer_series(
        GridFunction(problem.grid, f2), GridFunction(problem.grid, f.dw), problem.alpha, r
    )
    defect = invariance_defect(problem, sol.trajectory, symmetry)
    drift = drift_report(quantity)
    write_csv(out / "invariant.csv", ["t", "c"], [f.t, quantity.values[:, 0]])
    write_csv(
        out / "symmetry.csv",
        ["t", "tau"] + [f"f2_{j}" for j in range(problem.dim)],
        [f.t, tau, f2],
    )
    write_csv(
        out / "noether_summary.csv",
        ["drift", "invariance_defect", "tail_estimate"],
        [[drift], [defect], [series.tail_estimate]],
    )
    names = ["solution.csv", "summary.csv", "invariant.csv", "symmetry.csv", "noether_summary.csv"]
    return names, drift


def _run_friction(params: _Params, out: Path):
    mass = params.number("mass", 1.0)
    gamma = params.number("gamma")
    potential = polynomial_potential(params.vector("potential", "0"))
    window = Grid(
        params.number("window_a", 0.0),
        params.number("window_b", 1.0),
        params.integer("window_n", 512),
    )
    horizon = params.number("horizon", 1.0)
    if not (0.0 <= window.a and window.b <= horizon):
        raise ValidationError(f"window_a, window_b must lie in [0, horizon] = [0, {horizon:g}]")
    fp = FrictionProblem(mass, gamma, *potential, window)
    sim = simulate_damped_eom(
        fp,
        q0=params.number("q0", 0.0),
        v0=params.number("v0", 1.0),
        horizon=horizon,
        steps=params.integer("steps", 1024),
    )
    t_sim = sim.grid.nodes()
    write_csv(out / "trajectory.csv", ["t", "q", "qdot"], [t_sim, sim.values])

    def q_sim(t):
        return np.interp(t, t_sim, sim.values[:, 0])

    q_window = GridFunction.from_callable(window, q_sim)
    diag = friction_diagnostics(fp, q_window)
    write_csv(
        out / "diagnostics.csv",
        ["t", "p", "p_half", "hamiltonian"],
        [
            window.nodes(),
            diag.momentum.values,
            diag.half_momentum.values,
            diag.hamiltonian.values,
        ],
    )

    count = params.integer("shrink_windows", 5)
    center = 0.5 * (window.a + window.b)
    base = (window.b - window.a) / 2.0
    windows = [
        Grid(center - base / 2**k / 2.0, center + base / 2**k / 2.0, 256) for k in range(count)
    ]
    table = window_shrink_study(fp, q_sim, windows)
    columns = ["delta_t", "friction_energy", "first_order", "ratio", "half_momentum_mid"]
    write_csv(out / "window_table.csv", columns, [table[k] for k in columns])
    names = ["trajectory.csv", "diagnostics.csv", "window_table.csv"]
    return names, drift_report(diag.hamiltonian)


def _control_problem(params: _Params, grid: Grid):
    family = params.get("family", "linear-quadratic")
    alpha = params.number("alpha")
    if family == "linear-quadratic":
        return scalar_tracking_problem(
            grid,
            alpha,
            q_start=params.number("q_a"),
            state_weight=params.number("state_weight", 1.0),
            control_weight=params.number("control_weight", 1.0),
            frac_weight=params.number("frac_weight", 1.0),
        )
    if family == "reduction-of-variations":
        lag = build_lagrangian(params)
        q_start = params.vector("q_a")
        return variational_reduction(lag, grid, alpha, q_start)
    raise ValidationError(f"key 'family' names an unknown control family {family!r}")


def _run_control(params: _Params, out: Path):
    grid = Grid(params.number("a", 0.0), params.number("b", 1.0), params.integer("n"))
    cp = _control_problem(params, grid)
    terminal = params.get("terminal")
    terminal_vec = None if terminal is None else params.vector("terminal")
    state = solve_control(cp, tol=params.positive("tolerance", 1e-6), terminal_state=terminal_vec)
    quantity = autonomous_control_quantity(cp, state)
    ham = hamiltonian_values(cp, state)
    fields = (
        ("q", state.q), ("u", state.u), ("mu", state.mu), ("p", state.p), ("p_alpha", state.p_alpha)
    )
    header = ["t"] + [f"{label}{j}" for label, gf in fields for j in range(gf.dim)]
    write_csv(
        out / "control.csv",
        header + ["hamiltonian", "invariant"],
        [cp.grid.nodes()] + [gf.values for _, gf in fields] + [ham, quantity.values],
    )
    drift = drift_report(quantity)
    write_csv(
        out / "summary.csv",
        ["final_defect", "invariant_drift", "iterations"],
        [[state.diagnostics.defect_norms[-1]], [drift], [state.diagnostics.iterations]],
    )
    return ["control.csv", "summary.csv"], drift


_EXECUTORS = {
    "operator-test": _run_operator_test,
    "extremal": _run_extremal,
    "noether": _run_noether,
    "friction": _run_friction,
    "control": _run_control,
}
KINDS = tuple(_EXECUTORS)

#: parameter that sets the resolution ``convergence_study`` refines; "n" otherwise
_RESOLUTION_KEYS = {"operator-test": "grids", "friction": "window_n"}


# ------------------------------------------------------------ entry points


def _write_manifest(out: Path, scenario: Scenario, start: float, names: list) -> RunManifest:
    """Write ``manifest.json`` listing exactly ``names`` (files in ``out``) with their digests."""
    manifest = RunManifest(
        scenario={"kind": scenario.kind, **scenario.parameters},
        version=__version__,
        wall_clock_sec=time.monotonic() - start,
        files=[
            {"name": name, "sha256": hashlib.sha256((out / name).read_bytes()).hexdigest()}
            for name in sorted(names)
        ],
    )
    (out / "manifest.json").write_text(manifest.to_json(), encoding="ascii")
    return manifest


def _execute(scenario: Scenario, out: Path):
    """Run the scenario's executor into ``out``; return its manifest and headline metric."""
    if scenario.kind not in _EXECUTORS:
        raise ValidationError(f"unknown scenario kind {scenario.kind!r}")
    start = time.monotonic()
    out.mkdir(parents=True, exist_ok=True)
    names, metric = _EXECUTORS[scenario.kind](_Params(scenario.kind, scenario.parameters), out)
    return _write_manifest(out, scenario, start, names), metric


def run_scenario(
    scenario: Scenario, out_dir=None, tol: float | None = None, truncation: int | None = None
) -> RunManifest:
    """Execute one scenario into ``out_dir`` (default: the scenario's ``out``).

    ``tol`` and ``truncation`` override the ``tolerance`` and ``truncation``
    keys; the manifest's ``scenario`` map records the values used.
    """
    parameters = dict(scenario.parameters)
    if tol is not None:
        parameters["tolerance"] = str(tol)
    if truncation is not None:
        parameters["truncation"] = str(truncation)
    out = Path(out_dir if out_dir is not None else scenario.out_dir)
    return _execute(Scenario(scenario.kind, parameters, scenario.out_dir), out)[0]


def run(scenario_file, out_dir=None, tol=None, truncation=None) -> RunManifest:
    """Parse and execute one scenario file."""
    return run_scenario(parse_scenario(scenario_file), out_dir, tol, truncation)


def convergence_study(scenario_file, grid_list, out_dir=None) -> RunManifest:
    """Run a scenario once per resolution; emit its headline metric vs n with ratios.

    The run at resolution N goes to ``n<N>/`` with its own manifest; the
    resolution key is ``n``, ``window_n`` for friction and ``grids`` for
    operator tests.
    """
    scenario = parse_scenario(scenario_file)
    if not grid_list:
        raise ValidationError("study needs at least one grid size")
    start = time.monotonic()
    out = Path(out_dir if out_dir is not None else scenario.out_dir)
    key = _RESOLUTION_KEYS.get(scenario.kind, "n")
    metrics = [
        _execute(Scenario(scenario.kind, {**scenario.parameters, key: str(n)}), out / f"n{n}")[1]
        for n in grid_list
    ]
    header = ["n", "metric"]
    cols = [grid_list, metrics]
    if len(grid_list) >= 2:
        header.append("log2_ratio")
        cols.append(_log2_ratios(metrics))
    write_csv(out / "study.csv", header, cols)
    grids = ",".join(str(n) for n in grid_list)
    study = Scenario(scenario.kind, {**scenario.parameters, "grids": grids})
    return _write_manifest(out, study, start, ["study.csv"])
