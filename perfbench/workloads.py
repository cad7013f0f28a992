"""Seeded inputs, operations and reference gates of the fracvar benchmark.

``generate(workload, seed)`` is pure data and imports nothing from fracvar:
the same seed gives the same inputs, and the program receives only these
inputs (INI scenario text, coefficient lists, grid sizes). Coefficients,
orders and boundary values are drawn within fixed bands; grid sizes are
fixed, so every seed asks for the same amount of work up to the solvers'
iteration counts.

``bind`` turns the inputs into operations that call fracvar's public API.
Each operation has a gate that compares its output with a reference
computed here from numpy and ``math.gamma`` (closed forms, power rules,
error envelopes) or with the solver's own certificates. A gate returns
``None`` when the output is within tolerance and a one-line reason when it
is not.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("extremal", "control", "kernels")

#: grid sizes per workload; "warm" runs every operation once at toy size
#: during set-up so that lazy imports and first-call costs leave the timing
SIZES = {
    "full": {
        "noether_n": 512,
        "harmonic_n": 512,
        "rotation_n": 128,
        "lq_n": 128,
        "reduction_n": 64,
        "operator_grids": [1024 * 2**k for k in range(7)],  # 1024 ... 65536
        "gl_n": 65536,
        "series_n": 16384,
        "rk4_steps": 16384,
        "window_n": 16384,
    },
    "warm": {
        "noether_n": 16,
        "harmonic_n": 16,
        "rotation_n": 16,
        "lq_n": 16,
        "reduction_n": 16,
        "operator_grids": [64, 128],
        "gl_n": 256,
        "series_n": 256,
        "rk4_steps": 64,
        "window_n": 64,
    },
}

SERIES_TRUNCATION = 6


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode("ascii")), seed % 2**63])


def _draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform draw rounded to 6 decimals, so INI text round-trips exactly."""
    return round(float(rng.uniform(lo, hi)), 6)


def _ini(kind: str, params: dict) -> str:
    lines = ["[scenario]", f"kind = {kind}", "", f"[{kind}]"]
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(repr(float(v)) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, scale: str = "full") -> list:
    """The operation list of one workload: a list of JSON-ready dicts."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    size = SIZES[scale]
    rng = _rng(workload, seed)
    return {"extremal": _extremal, "control": _control, "kernels": _kernels}[workload](rng, size)


def _extremal(rng, size) -> list:
    frac = {
        "lagrangian": "custom-coefficients",
        "velocity_weight": _draw(rng, 0.9, 1.1),
        "caputo_weight": _draw(rng, 0.9, 1.1),
        "alpha": _draw(rng, 0.45, 0.55),
        "a": 0.0,
        "b": 1.0,
        "n": size["noether_n"],
        "q_a": _draw(rng, -0.1, 0.1),
        "q_b": _draw(rng, 0.9, 1.1),
        "symmetry": "space-translation",
        "direction": 1.0,
        "truncation": 2,
    }
    harmonic = {
        "lagrangian": "harmonic",
        "alpha": 1.0,
        "a": 0.0,
        "b": repr(math.pi / 2.0),
        "n": size["harmonic_n"],
        "q_a": _draw(rng, 0.9, 1.1),
        "q_b": _draw(rng, -0.1, 0.1),
    }
    rot = {
        "lagrangian": "harmonic",
        "dim": 2,
        "alpha": _draw(rng, 0.45, 0.55),
        "a": 0.0,
        "b": 1.0,
        "n": size["rotation_n"],
        "q_a": [_draw(rng, 0.9, 1.1), _draw(rng, -0.1, 0.1)],
        "q_b": [_draw(rng, -0.1, 0.1), _draw(rng, 0.9, 1.1)],
        "symmetry": "rotation",
        "omega": 1.0,
        "truncation": 4,
    }
    return [
        {"name": "noether-fractional", "kind": "scenario", "inputs": {"ini": _ini("noether", frac), **frac}},
        {"name": "extremal-harmonic", "kind": "scenario", "inputs": {"ini": _ini("extremal", harmonic), **harmonic}},
        {"name": "noether-rotation", "kind": "scenario", "inputs": {"ini": _ini("noether", rot), **rot}},
    ]


def _control(rng, size) -> list:
    lq = {
        "family": "linear-quadratic",
        "alpha": _draw(rng, 0.45, 0.55),
        "n": size["lq_n"],
        "q_a": _draw(rng, 0.9, 1.1),
        "state_weight": _draw(rng, 0.9, 1.1),
        "control_weight": _draw(rng, 0.9, 1.1),
        "frac_weight": _draw(rng, 0.9, 1.1),
        "tol": 1e-6,
        "terminal": None,
    }
    reduction = {
        "family": "reduction-of-variations",
        "alpha": _draw(rng, 0.45, 0.55),
        "n": size["reduction_n"],
        "q_a": _draw(rng, -0.1, 0.1),
        "velocity_weight": _draw(rng, 0.9, 1.1),
        "caputo_weight": _draw(rng, 0.9, 1.1),
        "tol": 1e-6,
        "terminal": _draw(rng, 0.9, 1.1),
    }
    return [
        {"name": "control-lq", "kind": "control", "inputs": lq},
        {"name": "control-reduction", "kind": "control", "inputs": reduction},
    ]


def _kernels(rng, size) -> list:
    optest = {
        "operator": "rl-integral-right",
        "alpha": _draw(rng, 0.4, 0.6),
        "a": 0.0,
        "b": 1.0,
        "exponent": 2,
        "grids": ",".join(str(n) for n in size["operator_grids"]),
    }
    gl = {
        "alpha": _draw(rng, 0.4, 0.6),
        "n": size["gl_n"],
        "coefficients": [_draw(rng, 0.5, 1.5) for _ in range(3)],  # c1 t + c2 t^2 + c3 t^3
    }
    series = {
        "alpha": _draw(rng, 0.4, 0.6),
        "n": size["series_n"],
        "truncation": SERIES_TRUNCATION,
        "rate": _draw(rng, 0.5, 1.5),  # f2: a space-translation rate, constant in t
        "coefficients": [_draw(rng, 0.5, 1.5) for _ in range(3)],  # g = sum c_k (1-t)^k
    }
    stiffness = _draw(rng, 3.0, 5.0)
    friction = {
        "mass": _draw(rng, 0.9, 1.1),
        "gamma": _draw(rng, 0.4, 0.6),
        "potential": [0.0, 0.0, stiffness / 2.0],  # U = (k/2) q^2: underdamped
        "q0": _draw(rng, 0.9, 1.1),
        "v0": _draw(rng, -0.1, 0.1),
        "horizon": 2.0,
        "steps": size["rk4_steps"],
        "window_a": 0.0,
        "window_b": 1.0,
        "window_n": size["window_n"],
        "shrink_windows": 5,
    }
    return [
        {"name": "operator-test", "kind": "scenario", "inputs": {"ini": _ini("operator-test", optest), **optest}},
        {"name": "caputo-l1-vs-gl", "kind": "caputo-vs-gl", "inputs": gl},
        {"name": "transfer-series", "kind": "series", "inputs": series},
        {"name": "friction", "kind": "scenario", "inputs": {"ini": _ini("friction", friction), **friction}},
    ]


# ------------------------------------------------------------- operations


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    out_dir: Path | None = None


def bind(specs: list, workdir: Path, fv) -> list:
    """Operations for ``specs``; ``fv`` gives fracvar's modules by name.

    Calls go through module attributes at call time, so a tracer that
    replaces those attributes sees every call.
    """
    ops = []
    for spec in specs:
        name, kind, inputs = spec["name"], spec["kind"], spec["inputs"]
        if kind == "scenario":
            ops.append(_scenario_op(name, inputs, workdir, fv))
        elif kind == "control":
            ops.append(Operation(name, _control_runner(inputs, fv), _control_gate(inputs)))
        elif kind == "caputo-vs-gl":
            ops.append(Operation(name, _gl_runner(inputs, fv), _gl_gate(inputs)))
        elif kind == "series":
            ops.append(Operation(name, _series_runner(inputs, fv), _series_gate(inputs)))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return ops


def _scenario_op(name, inputs, workdir: Path, fv) -> Operation:
    ini_path = workdir / f"{name}.ini"
    ini_path.write_text(inputs["ini"], encoding="ascii")
    out = workdir / name

    def run():
        scenario = fv.scenarios.parse_scenario(ini_path)
        return fv.scenarios.run_scenario(scenario, out_dir=out)

    gate = {
        "noether-fractional": _gate_noether_fractional,
        "extremal-harmonic": _gate_harmonic,
        "noether-rotation": _gate_rotation,
        "operator-test": _gate_operator_test,
        "friction": _gate_friction,
    }[name]
    return Operation(name, run, lambda manifest: _manifest_gate(manifest, out) or gate(inputs, out), out)


# ------------------------------------------------------------------ gates


def _csv(path: Path) -> dict:
    """Columns of a CSV file by header name."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, j] for j, name in enumerate(header)}


def _manifest_gate(manifest, out: Path):
    """Manifest lists exactly the files on disk, each with its true digest."""
    recorded = {f["name"]: f["sha256"] for f in manifest.files}
    on_disk = sorted(p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json")
    if sorted(recorded) != on_disk:
        return f"manifest lists {sorted(recorded)}, directory holds {on_disk}"
    for fname, digest in recorded.items():
        if hashlib.sha256((out / fname).read_bytes()).hexdigest() != digest:
            return f"sha256 of {fname} does not match the manifest"
    listed = json.loads((out / "manifest.json").read_text(encoding="ascii"))["files"]
    if {f["name"]: f["sha256"] for f in listed} != recorded:
        return "manifest.json differs from the returned manifest"
    return None


def _finite(data, what):
    return None if np.isfinite(data).all() else f"{what} holds non-finite values"


def _gate_noether_fractional(inputs, out: Path):
    # the space-translation quantity of a q-independent Lagrangian drifts by
    # about C sqrt(h) from the (b-t)^(3/2) solution layer (C ~ 0.1 at
    # alpha = 0.5); 0.5 sqrt(h) leaves a factor 5
    summary = _csv(out / "summary.csv")
    noether = _csv(out / "noether_summary.csv")
    gnorm = summary["gradient_norm"][0]
    drift, defect = noether["drift"][0], noether["invariance_defect"][0]
    h = (inputs["b"] - inputs["a"]) / inputs["n"]
    if not gnorm < 1e-8:
        return f"gradient max-norm {gnorm:.3e} >= solver tolerance 1e-8"
    if not drift <= 0.5 * math.sqrt(h):
        return f"space-translation quantity drift {drift:.3e} > 0.5 sqrt(h) = {0.5 * math.sqrt(h):.3e}"
    if not abs(defect) <= 1e-8:
        return f"invariance defect {defect:.3e} of a q-independent Lagrangian > 1e-8"
    return None


def _harmonic_closed_form(t, q_a, q_b, b):
    """q'' = -q on [0, b] with q(0) = q_a, q(b) = q_b."""
    q_a, q_b = np.asarray(q_a, float), np.asarray(q_b, float)
    sin_coeff = (q_b - q_a * math.cos(b)) / math.sin(b)
    return np.outer(np.cos(t), q_a) + np.outer(np.sin(t), sin_coeff)


def _gate_harmonic(inputs, out: Path):
    # acceptance criterion 4: trajectory within 1e-4 of the closed form and
    # a max-norm EL residual below 1e-3
    sol = _csv(out / "solution.csv")
    residual = _csv(out / "summary.csv")["el_residual_norm"][0]
    ref = _harmonic_closed_form(sol["t"], [inputs["q_a"]], [inputs["q_b"]], float(inputs["b"]))
    err = float(np.max(np.abs(sol["q0"] - ref[:, 0])))
    if not err < 1e-4:
        return f"trajectory differs from the closed form by {err:.3e} >= 1e-4"
    if not residual < 1e-3:
        return f"EL residual max-norm {residual:.3e} >= 1e-3"
    return _finite(np.array(list(sol.values())), "solution.csv")


def _gate_rotation(inputs, out: Path):
    # dL/dw = 0, so this is the classical planar oscillator: closed-form
    # trajectory and a conserved angular momentum (bounds of criteria 4, 5)
    sol = _csv(out / "solution.csv")
    gnorm = _csv(out / "summary.csv")["gradient_norm"][0]
    drift = _csv(out / "noether_summary.csv")["drift"][0]
    ref = _harmonic_closed_form(sol["t"], inputs["q_a"], inputs["q_b"], float(inputs["b"]))
    err = float(np.max(np.abs(np.stack([sol["q0"], sol["q1"]], axis=1) - ref)))
    if not err < 1e-4:
        return f"trajectory differs from the closed form by {err:.3e} >= 1e-4"
    if not gnorm < 1e-8:
        return f"gradient max-norm {gnorm:.3e} >= solver tolerance 1e-8"
    if not drift < 1e-4:
        return f"angular momentum drift {drift:.3e} >= 1e-4"
    return _finite(np.array(list(sol.values())), "solution.csv")


def _gate_operator_test(inputs, out: Path):
    # product-trapezoid quadrature integrates the kernel exactly against the
    # piecewise-linear interpolant, whose error is at most h^2/8 max|f''|;
    # the kernel has mass (b-a)^beta / Gamma(beta + 1)
    table = _csv(out / "convergence.csv")
    grids = [int(n) for n in str(inputs["grids"]).split(",")]
    beta, k = inputs["alpha"], inputs["exponent"]
    length = inputs["b"] - inputs["a"]
    if [int(n) for n in table["n"]] != grids:
        return f"convergence.csv covers grids {table['n'].tolist()}, expected {grids}"
    f2max = k * (k - 1) * length ** (k - 2)
    bound = 0.125 * table["h"] ** 2 * f2max * length**beta / math.gamma(beta + 1.0)
    errors = table["max_error"]
    if not np.all(errors <= bound):
        worst = int(np.argmax(errors / bound))
        return f"power-rule error {errors[worst]:.3e} at n={grids[worst]} exceeds {bound[worst]:.3e}"
    orders = table["observed_order"][1:]
    if not np.all(np.abs(orders - 2.0) <= 0.1):
        return f"observed orders {orders.tolist()} are not 2 +- 0.1"
    return None


def _gate_friction(inputs, out: Path):
    # closed-form underdamped oscillator m q'' + gamma q' + k q = 0. At
    # dt = 2/16384 RK4's truncation error is ~1e-14 and accumulated rounding
    # at most steps * eps ~ 4e-12; a second-order scheme would miss by ~1e-8
    traj = _csv(out / "trajectory.csv")
    m, gam, k = inputs["mass"], inputs["gamma"], 2.0 * inputs["potential"][2]
    lam = gam / (2.0 * m)
    wd = math.sqrt(k / m - lam * lam)
    q0, v0 = inputs["q0"], inputs["v0"]
    t = traj["t"]
    c, s, e = np.cos(wd * t), np.sin(wd * t), np.exp(-lam * t)
    b_coef = (v0 + lam * q0) / wd
    q = e * (q0 * c + b_coef * s)
    v = e * (-lam * (q0 * c + b_coef * s) + wd * (-q0 * s + b_coef * c))
    err = float(max(np.max(np.abs(traj["q"] - q)), np.max(np.abs(traj["qdot"] - v))))
    if not err < 1e-10:
        return f"RK4 trajectory differs from the closed form by {err:.3e} >= 1e-10"
    if len(t) != inputs["steps"] + 1:
        return f"trajectory.csv has {len(t)} rows, expected {inputs['steps'] + 1}"
    diag = np.array(list(_csv(out / "diagnostics.csv").values()))
    if diag.shape[1] != inputs["window_n"] + 1:
        return f"diagnostics.csv has {diag.shape[1]} rows, expected {inputs['window_n'] + 1}"
    table = np.array(list(_csv(out / "window_table.csv").values()))
    if table.shape[1] != inputs["shrink_windows"]:
        return f"window_table.csv has {table.shape[1]} rows, expected {inputs['shrink_windows']}"
    return _finite(diag, "diagnostics.csv") or _finite(table, "window_table.csv")


# ---------------------------------------------------------------- control


def _control_runner(inputs, fv):
    def run():
        grid = fv.grid.Grid(0.0, 1.0, inputs["n"])
        if inputs["family"] == "linear-quadratic":
            cp = fv.optctrl.scalar_tracking_problem(
                grid,
                inputs["alpha"],
                inputs["q_a"],
                state_weight=inputs["state_weight"],
                control_weight=inputs["control_weight"],
                frac_weight=inputs["frac_weight"],
            )
        else:
            lag = fv.lagrangian.quadratic_mix(inputs["velocity_weight"], inputs["caputo_weight"])
            cp = fv.optctrl.variational_reduction(lag, grid, inputs["alpha"], [inputs["q_a"]])
        terminal = None if inputs["terminal"] is None else [inputs["terminal"]]
        state = fv.optctrl.solve_control(cp, tol=inputs["tol"], terminal_state=terminal)
        quantity = fv.optctrl.autonomous_control_quantity(cp, state)
        residuals = fv.optctrl.pontryagin_residuals(cp, state)
        return state, quantity, residuals

    return run


def _control_gate(inputs):
    # the solver's own certificates: gradient below tolerance in the last
    # round, a penalty defect that shrinks with each tenfold weight (about
    # tenfold when the dynamics are feasible), and dynamics residuals within
    # 10x the final defect (as test_hamiltonian_system_consistency)
    def check(result):
        state, quantity, residuals = result
        diag = state.diagnostics
        if not diag.gradient_norm < inputs["tol"]:
            return f"final gradient max-norm {diag.gradient_norm:.3e} >= tol {inputs['tol']:.1e}"
        d = diag.defect_norms
        if len(d) != 3 or not all(d[i + 1] <= 0.2 * d[i] for i in range(len(d) - 1)):
            return f"penalty defects {d} do not shrink at least 5x per round"
        for idx in (0, 1):
            worst = float(np.max(np.abs(residuals[idx].values)))
            if not worst < 10.0 * d[-1]:
                return f"dynamics residual {idx} max {worst:.3e} >= 10x final defect {d[-1]:.3e}"
        if inputs["terminal"] is not None:
            # endpoint penalty is first-order in the final weight
            gap = abs(float(state.q.values[-1, 0]) - inputs["terminal"])
            if not gap <= 20.0 / diag.penalty_weights[-1]:
                return f"terminal state missed by {gap:.3e} > 20 / final weight"
        for label, arr in (("q", state.q.values), ("p", state.p.values), ("invariant", quantity.values)):
            if not np.isfinite(arr).all():
                return f"{label} holds non-finite values"
        return None

    return check


# ---------------------------------------------------------------- kernels


def _power_terms(t, coefficients, order):
    """Caputo (order < 0 means integral) of sum c_k t^k, k = 1.., by the power rule."""
    out = np.zeros_like(t)
    for k, c in enumerate(coefficients, start=1):
        out += c * math.gamma(k + 1.0) / math.gamma(k + 1.0 - order) * t ** (k - order)
    return out


def _gl_runner(inputs, fv):
    def run():
        grid = fv.grid.Grid(0.0, 1.0, inputs["n"])
        t = grid.nodes()
        c1, c2, c3 = inputs["coefficients"]
        f = fv.grid.GridFunction(grid, c1 * t + c2 * t**2 + c3 * t**3)
        l1 = fv.fracops.caputo_left(f, inputs["alpha"])
        gl = fv.grunwald.gl_caputo_left(f, inputs["alpha"])
        return l1.column(), gl.column()

    return run


def _gl_gate(inputs):
    # away from t = a, GL = D^alpha f - (alpha/2) h D^(alpha+1) f + o(h) while
    # L1 errs by O(h^(2-alpha)): their difference must follow GL's
    # first-order term to within 5%, and L1 must sit inside it
    def check(result):
        l1, gl = result
        n, alpha = inputs["n"], inputs["alpha"]
        h = 1.0 / n
        t = np.arange(n + 1) * h
        away = t >= 0.125
        exact = _power_terms(t[away], inputs["coefficients"], alpha)
        lead = 0.5 * alpha * h * _power_terms(t[away], inputs["coefficients"], alpha + 1.0)
        diff = l1[away] - gl[away]
        scale = float(np.max(np.abs(lead)))
        miss = float(np.max(np.abs(diff - lead)))
        if not miss <= 0.05 * scale:
            return f"L1 - GL departs from GL's first-order term by {miss:.3e} > 5% of {scale:.3e}"
        l1_err = float(np.max(np.abs(l1[away] - exact)))
        if not l1_err <= scale:
            return f"L1 error {l1_err:.3e} exceeds GL's first-order error {scale:.3e}"
        return None

    return check


def _series_runner(inputs, fv):
    def run():
        n = inputs["n"]
        grid = fv.grid.Grid(0.0, 1.0, n)
        s = 1.0 - grid.nodes()
        g = sum(c * s**k for k, c in enumerate(inputs["coefficients"], start=1))
        f2 = fv.grid.GridFunction(grid, np.full((n + 1, 1), inputs["rate"]))
        return fv.noether.transfer_series(f2, fv.grid.GridFunction(grid, g), inputs["alpha"], inputs["truncation"])

    return run


def _series_gate(inputs):
    # transfer formula with constant f2: d/dt sum_r terms = -f2 D_right^alpha g,
    # and D_right^alpha (1-t)^k is a power rule. Checked on the panel
    # [1/16, 15/16], as the program's invariance panels; the raw one-sided
    # differences at the two ends are not part of the claim
    def check(series):
        n, alpha = inputs["n"], inputs["alpha"]
        h = 1.0 / n
        if series.terms.shape != (inputs["truncation"] + 1, n + 1):
            return f"series terms have shape {series.terms.shape}"
        total = series.total()
        derivative = (total[2:] - total[:-2]) / (2.0 * h)  # nodes 1..n-1
        s = 1.0 - np.arange(1, n) * h
        rhs = -inputs["rate"] * _power_terms(s, inputs["coefficients"], alpha)
        lo, hi = n // 16, n - n // 16
        gap = float(np.max(np.abs(derivative[lo - 1 : hi] - rhs[lo - 1 : hi])))
        if not gap <= 1e-6:
            return f"transfer-formula gap {gap:.3e} on [1/16, 15/16] > 1e-6"
        return None

    return check
