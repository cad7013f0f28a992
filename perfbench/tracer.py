"""Spans around fracvar's public functions, recorded from the benchmark side.

``Tracer.install`` replaces each listed function with a wrapper everywhere a
fracvar module binds it, so the names that callers import (for example
``fracvar.variational.bfgs_minimize`` or ``fracvar.scenarios.solve_extremal``)
are traced as well; ``uninstall`` puts every original back. The program's
source is not touched.

A span is ``[name, start, end, parent, op_id]``: ``name`` is
``layer.function``, ``parent`` the index of the enclosing span (-1 for
none) and ``op_id`` the operation that caused it. Spans are kept in memory
and written out at the end of a run. A span's self time is its duration
minus the part of it that its direct children cover.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

#: traced functions per module; the layer is the module's short name
TARGETS = {
    "fracvar.fracops": (
        "rl_integral_left",
        "rl_integral_right",
        "caputo_left",
        "caputo_right",
        "rl_derivative_left",
        "rl_derivative_right",
        "ibp_residual",
        "caputo_left_matrix",
    ),
    "fracvar.grunwald": (
        "gl_rl_derivative_left",
        "gl_rl_derivative_right",
        "gl_caputo_left",
        "gl_caputo_right",
        "gl_rl_integral_left",
        "gl_rl_integral_right",
    ),
    "fracvar.minimize": ("bfgs_minimize",),
    "fracvar.variational": (
        "solve_extremal",
        "action_value",
        "frechet_differential",
        "el_residual",
        "el_residual_norm",
    ),
    "fracvar.lagrangian": ("free_particle", "harmonic_oscillator", "potential_polynomial", "quadratic_mix"),
    "fracvar.noether": (
        "transfer_series",
        "noether_quantity",
        "autonomous_quantity",
        "invariance_defect",
        "invariance_necessary_residual",
        "drift_report",
    ),
    "fracvar.friction": (
        "simulate_damped_eom",
        "friction_diagnostics",
        "window_shrink_study",
        "friction_lagrangian",
    ),
    "fracvar.optctrl": (
        "solve_control",
        "hamiltonian",
        "pontryagin_residuals",
        "control_noether_quantity",
        "autonomous_control_quantity",
        "_hamiltonian_values",
        "scalar_tracking_problem",
        "variational_reduction",
        "reduction_state",
    ),
    "fracvar.scenarios": ("parse_scenario", "run_scenario", "run", "convergence_study"),
}

#: functions that hold fracvar's convolutions; the MAC count of one call is
#: computed from its argument shapes, since np.convolve of lengths p and q
#: performs p*q multiply-adds. Every other operator reaches these through
#: module globals, which install() also replaces, so nothing is counted twice.
_CONVOLUTIONS = {
    "fracops.caputo_left": lambda n, d, alpha: 0 if alpha == 1.0 else n * n * d,
    "fracops.rl_integral_left": lambda n, d, beta: (n - 1) * (n - 1) * d if n >= 2 else 0,
    "grunwald.gl_rl_derivative_left": lambda n, d, alpha: (n + 1) * (n + 1) * d,
    "grunwald.gl_rl_integral_left": lambda n, d, beta: (n + 1) * (n + 1) * d,
}

_LAGRANGIAN_BUILDERS = {
    "lagrangian.free_particle",
    "lagrangian.harmonic_oscillator",
    "lagrangian.potential_polynomial",
    "lagrangian.quadratic_mix",
    "friction.friction_lagrangian",
}


def self_times(spans) -> list:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.op_id = -1
        self._stack = []
        self._patches = []

    # ---------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def caller_layer(self) -> str:
        return self.spans[self._stack[-1]][0].split(".")[0] if self._stack else ""

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------- instrumenting

    def _wrapper_for(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        if name == "minimize.bfgs_minimize":
            return self._wrap_minimizer(fn)
        if name in _LAGRANGIAN_BUILDERS:
            return self.wrap(fn, name, after=lambda a, k, spec: self._wrap_lagrangian(spec))
        if name in _CONVOLUTIONS:
            macs = _CONVOLUTIONS[name]
            from fracvar.grid import order_value

            def count(args, kwargs, result):
                f, order = args[0], args[1] if len(args) > 1 else kwargs["order"]
                self.counters[f"{layer}.macs"] += macs(f.grid.n, f.dim, order_value(order))

            return self.wrap(fn, name, after=count)
        if name == "friction.simulate_damped_eom":

            def steps(args, kwargs, result):
                self.counters["friction.rk4_steps"] += result.grid.n

            return self.wrap(fn, name, after=steps)
        if name == "scenarios.run_scenario":

            def written(args, kwargs, manifest):
                out = Path(kwargs.get("out_dir") or (args[1] if len(args) > 1 else args[0].out_dir))
                names = [f["name"] for f in manifest.files] + ["manifest.json"]
                self.counters["scenarios.bytes_written"] += sum((out / n).stat().st_size for n in names)

            return self.wrap(fn, name, after=written)
        return self.wrap(fn, name)

    def _wrap_minimizer(self, fn):
        """Spans for the solver and for each objective/gradient callback.

        The callbacks are named after the layer that called the solver
        (``variational.objective``, ``optctrl.gradient``, ...).
        """

        @functools.wraps(fn)
        def traced(fun, grad, x0, *args, **kwargs):
            caller = self.caller_layer() or "minimize"
            fun_t = self.wrap(fun, f"{caller}.objective", after=self._bump("minimize.fun_evals"))
            grad_t = self.wrap(grad, f"{caller}.gradient", after=self._bump("minimize.grad_evals"))
            idx = self._open("minimize.bfgs_minimize")
            try:
                result = fn(fun_t, grad_t, x0, *args, **kwargs)
            finally:
                self._close(idx)
            self.counters["minimize.iterations"] += result.iterations
            return result

        return traced

    def _bump(self, key: str):
        def after(args, kwargs, result):
            self.counters[key] += 1

        return after

    def _wrap_lagrangian(self, spec) -> None:
        for attr in ("evaluate", "dq", "dv", "dw"):
            setattr(spec, attr, self.wrap(getattr(spec, attr), f"lagrangian.{attr}"))

    def install(self) -> None:
        """Replace every binding of each target in every loaded fracvar module."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("fracvar") and m is not None]
        for module_name, fnames in TARGETS.items():
            home = sys.modules[module_name]
            layer = module_name.split(".")[-1]
            for fname in fnames:
                original = getattr(home, fname)
                wrapper = self._wrapper_for(layer, fname, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((vars(module), key, original))
                            setattr(module, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for dkey, dval in list(value.items()):
                                if dval is original:
                                    self._patches.append((value, dkey, original))
                                    value[dkey] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches = []

    # ------------------------------------------------------------- output

    def write(self, path: Path, origin: float) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "op_id"])
            for idx, (name, start, end, parent, op_id) in enumerate(self.spans):
                out.writerow([idx, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent, op_id])


# ------------------------------------------------------- per-layer metrics


def _outermost(spans, names) -> float:
    """Summed duration of spans named in ``names`` with no such ancestor."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


LAYERS = ("minimize", "variational", "lagrangian", "optctrl", "fracops", "grunwald", "noether", "friction", "scenarios")


def layer_metrics(spans, counters, passes: int) -> dict:
    """Per-layer metrics as totals per pass (``passes`` traced passes)."""
    selfs = self_times(spans)
    per = 1.0 / max(passes, 1)
    by_layer = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_layer[span[0].split(".")[0]] += own

    def incl(*names):
        return _outermost(spans, set(names)) * per

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    def count(key):
        return counters.get(key, 0.0) * per

    m = {f"{layer}.self_s": by_layer[layer] * per for layer in LAYERS}

    solver_total = incl("minimize.bfgs_minimize")
    m["minimize.iterations"] = count("minimize.iterations")
    m["minimize.fun_evals"] = count("minimize.fun_evals")
    m["minimize.grad_evals"] = count("minimize.grad_evals")
    m["minimize.s_per_iter"] = ratio(solver_total, m["minimize.iterations"])

    m["variational.solve_s"] = incl("variational.solve_extremal")
    m["variational.objective_s"] = incl("variational.objective")
    m["variational.gradient_s"] = incl("variational.gradient")
    postsolve = 0.0
    for idx, span in enumerate(spans):
        if span[0] == "variational.solve_extremal":
            solver_ends = [s[2] for s in spans if s[3] == idx and s[0] == "minimize.bfgs_minimize"]
            if solver_ends:
                postsolve += span[2] - max(solver_ends)
    m["variational.postsolve_s"] = postsolve * per

    evals = [own for span, own in zip(spans, selfs) if span[0] in _LAGRANGIAN_EVALS]
    m["lagrangian.evals"] = len(evals) * per
    m["lagrangian.eval_s"] = sum(evals) * per

    m["optctrl.solve_s"] = incl("optctrl.solve_control")
    solve_ids = {i for i, s in enumerate(spans) if s[0] == "optctrl.solve_control"}
    m["optctrl.rounds"] = sum(1 for s in spans if s[0] == "minimize.bfgs_minimize" and s[3] in solve_ids) * per
    m["optctrl.objective_s"] = incl("optctrl.objective")
    m["optctrl.gradient_s"] = incl("optctrl.gradient")
    m["optctrl.diagnostics_s"] = incl(
        "optctrl.autonomous_control_quantity",
        "optctrl.control_noether_quantity",
        "optctrl.pontryagin_residuals",
        "optctrl.hamiltonian",
        "optctrl._hamiltonian_values",
    )

    fracops_ids = [i for i, s in enumerate(spans) if s[0].startswith("fracops.")]
    m["fracops.calls"] = sum(1 for i in fracops_ids if spans[i][3] < 0 or not spans[spans[i][3]][0].startswith("fracops.")) * per
    m["fracops.matrix_s"] = incl("fracops.caputo_left_matrix")
    m["fracops.macs"] = count("fracops.macs")
    conv_s = sum(own for span, own in zip(spans, selfs) if span[0] in _CONVOLUTIONS and span[0].startswith("fracops."))
    m["fracops.gmacs_per_s"] = ratio(m["fracops.macs"], conv_s * per) / 1e9
    m["grunwald.macs"] = count("grunwald.macs")

    m["noether.series_s"] = incl("noether.transfer_series")
    m["noether.quantity_s"] = incl("noether.noether_quantity", "noether.autonomous_quantity")
    m["noether.defect_s"] = incl("noether.invariance_defect", "noether.invariance_necessary_residual")

    m["friction.rk4_s"] = incl("friction.simulate_damped_eom")
    m["friction.rk4_steps_per_s"] = ratio(count("friction.rk4_steps"), m["friction.rk4_s"])
    m["friction.diagnostics_s"] = incl("friction.friction_diagnostics", "friction.window_shrink_study")

    m["scenarios.bytes_written"] = count("scenarios.bytes_written")
    m["scenarios.write_mb_per_s"] = ratio(m["scenarios.bytes_written"] / 1e6, m["scenarios.self_s"])
    return m


_LAGRANGIAN_EVALS = {"lagrangian.evaluate", "lagrangian.dq", "lagrangian.dv", "lagrangian.dw"}
