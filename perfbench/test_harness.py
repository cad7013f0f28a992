"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

FV = worker.import_fracvar(ROOT)


# ------------------------------------------------------------ self time


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a.root", 0.0, 10.0, -1, 0],
        ["b.child", 1.0, 3.0, 0, 0],
        ["b.child", 2.0, 5.0, 0, 0],  # overlaps its sibling
        ["c.grandchild", 2.5, 2.75, 2, 0],  # covered by span 2, not by the root
        ["b.child", 8.0, 10.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 2.75, 0.25, 2.0])


def test_layer_self_times_add_up_to_the_traced_time():
    spans = [
        ["scenarios.run_scenario", 0.0, 10.0, -1, 0],
        ["variational.solve_extremal", 1.0, 9.0, 0, 0],
        ["minimize.bfgs_minimize", 1.5, 8.0, 1, 0],
        ["variational.objective", 2.0, 3.0, 2, 0],
        ["lagrangian.evaluate", 2.2, 2.4, 3, 0],
        ["variational.gradient", 4.0, 6.0, 2, 0],
        ["fracops.caputo_left", 8.5, 8.75, 1, 0],
        ["noether.transfer_series", 12.0, 13.0, -1, 1],
        ["fracops.rl_integral_left", 12.25, 12.5, 7, 1],
    ]
    m = tracing.layer_metrics(spans, {"minimize.iterations": 4.0}, passes=1)
    total = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(10.0 + 1.0)
    assert m["minimize.self_s"] == pytest.approx(6.5 - 3.0)
    assert m["variational.self_s"] == pytest.approx(8.0 - 6.5 - 0.25 + 0.8 + 2.0)
    assert m["variational.postsolve_s"] == pytest.approx(1.0)
    assert m["minimize.s_per_iter"] == pytest.approx(6.5 / 4.0)
    assert m["lagrangian.evals"] == 1 and m["fracops.calls"] == 2
    assert m["noether.series_s"] == pytest.approx(1.0)


# -------------------------------------------------------------- tracer


def test_tracer_reaches_imported_names_counts_macs_and_uninstalls():
    original = FV.fracops.caputo_left
    t = tracing.Tracer()
    t.install()
    try:
        assert FV.variational.caputo_left is not original
        assert FV.scenarios._OPERATORS["caputo-left"] is FV.fracops.caputo_left
        grid = FV.grid.Grid(0.0, 1.0, 64)
        f = FV.grid.GridFunction(grid, np.stack([grid.nodes(), grid.nodes() ** 2], axis=1))
        FV.fracops.caputo_right(f, 0.5)  # reaches caputo_left through a module global
    finally:
        t.uninstall()
    assert FV.fracops.caputo_left is original and FV.variational.caputo_left is original
    assert [s[0] for s in t.spans] == ["fracops.caputo_right", "fracops.caputo_left"]
    assert t.spans[1][3] == 0
    assert t.counters["fracops.macs"] == 64 * 64 * 2


def test_tracer_counts_solver_callbacks_under_the_calling_layer():
    t = tracing.Tracer()
    lag = FV.lagrangian.quadratic_mix(1.0, 1.0)
    problem = FV.variational.VariationalProblem(lag, FV.grid.Grid(0.0, 1.0, 16), 0.5, ([0.0], [1.0]))
    t.install()
    try:
        sol = FV.variational.solve_extremal(problem)
    finally:
        t.uninstall()
    names = {s[0] for s in t.spans}
    assert {"variational.solve_extremal", "minimize.bfgs_minimize", "variational.objective"} <= names
    assert t.counters["minimize.iterations"] == sol.iterations
    assert t.counters["minimize.fun_evals"] == sum(1 for s in t.spans if s[0] == "variational.objective")


# ---------------------------------------------------------- generator


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(name):
    first = json.dumps(workloads.generate(name, 7), sort_keys=True)
    assert first == json.dumps(workloads.generate(name, 7), sort_keys=True)
    assert first != json.dumps(workloads.generate(name, 8), sort_keys=True)


def test_grid_sizes_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        sizes = [[op["inputs"].get("n") for op in workloads.generate(name, s)] for s in range(5)]
        assert all(row == sizes[0] for row in sizes)


# --------------------------------------------------------------- gates


def _op(name, run_fn, check):
    return workloads.Operation(name, run_fn, check)


def test_wrong_result_and_exception_count_as_failures():
    spec = workloads.generate("kernels", 3, scale="warm")[1]
    spec["inputs"]["n"] = 4096  # GL's first-order term dominates from here on
    ops = workloads.bind([spec], Path("unused"), FV)
    right = ops[0].run()
    assert ops[0].check(right) is None
    l1, gl = right
    wrong = _op("wrong", lambda: (l1 * (1.0 + 1e-3), gl), ops[0].check)

    def boom():
        raise FloatingPointError("injected")

    record = {"attempted": 0, "failed": 0, "failures": []}
    worker.run_pass([ops[0], wrong, _op("raises", boom, ops[0].check)], record)
    assert (record["attempted"], record["failed"]) == (3, 2)
    assert [f["op"] for f in record["failures"]] == ["wrong", "raises"]


def test_scenario_gate_rejects_a_tampered_output(tmp_path):
    spec = workloads.generate("extremal", 3, scale="warm")[2]  # rotation, n = 16
    spec["inputs"]["ini"] = spec["inputs"]["ini"].replace("n = 16", "n = 64")
    spec["inputs"]["n"] = 64
    (op,) = workloads.bind([spec], tmp_path, FV)
    manifest = op.run()
    assert op.check(manifest) is None
    path = op.out_dir / "solution.csv"
    path.write_text(path.read_text().replace("e-", "e+", 1))
    assert "sha256" in op.check(manifest)


def test_control_gate_needs_a_shrinking_penalty_defect():
    spec = workloads.generate("control", 3, scale="warm")[0]
    (op,) = workloads.bind([spec], Path("unused"), FV)
    state, quantity, residuals = op.run()
    assert op.check((state, quantity, residuals)) is None
    state.diagnostics.defect_norms[-1] = state.diagnostics.defect_norms[-2]
    assert "shrink" in op.check((state, quantity, residuals))


# ------------------------------------------- BENCHMARK.json, command line


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "control", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_power_rule_helper():
    t = np.array([0.5])
    got = workloads._power_terms(t, [0.0, 1.0], 0.5)  # D^0.5 t^2
    assert got[0] == pytest.approx(math.gamma(3.0) / math.gamma(2.5) * 0.5**1.5)
