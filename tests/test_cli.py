import dataclasses
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from fracvar.cli import main
from fracvar.errors import ValidationError
from fracvar.scenarios import (
    build_lagrangian,
    build_symmetry,
    convergence_study,
    parse_scenario,
    run,
    _Params,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

EXTREMAL_INI = """[scenario]
kind = extremal

[extremal]
lagrangian = harmonic
alpha = 1.0
a = 0.0
b = 1.5707963267948966
n = 64
q_a = 1.0
q_b = 0.0
"""

OPERATOR_INI = """[scenario]
kind = operator-test

[operator-test]
operator = caputo-left
alpha = 0.5
a = 0.0
b = 1.0
exponent = 2
grids = 64,128,256,512
"""

CONTROL_INI = """[scenario]
kind = control

[control]
family = reduction-of-variations
lagrangian = custom-coefficients
velocity_weight = 1.0
caputo_weight = 1.0
alpha = 0.5
n = 32
q_a = 0.0
terminal = 1.0
"""

FRICTION_INI = """[scenario]
kind = friction

[friction]
mass = 1.0
gamma = 1.0
potential = 0
q0 = 0.0
v0 = 1.0
horizon = 1.0
steps = 256
window_a = 0.0
window_b = 1.0
window_n = 128
shrink_windows = 4
"""


def cli(*args):
    env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "fracvar.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# ------------------------------------------------------------ config layer


class TestParsing:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI)
        scenario = parse_scenario(path)
        assert scenario.kind == "extremal"
        assert scenario.parameters["lagrangian"] == "harmonic"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_scenario(tmp_path / "absent.ini")

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text("[scenario]\nkind = banana\n")
        with pytest.raises(ValidationError) as err:
            parse_scenario(path)
        assert "kind" in str(err.value)

    def test_missing_alpha_names_the_key(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI.replace("alpha = 1.0\n", ""))
        with pytest.raises(ValidationError) as err:
            run(path, out_dir=tmp_path / "out")
        assert "'alpha'" in str(err.value)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_integer_keys_name_the_key(self, raw):
        with pytest.raises(ValidationError, match="key 'n' must be an integer"):
            _Params({"n": raw}).integer("n")
        with pytest.raises(ValidationError, match="key 'grids' must list integers"):
            _Params({"grids": f"64,{raw}"}).int_list("grids")

    def test_lagrangian_families(self):
        for family, extra in (
            ("free", {}),
            ("harmonic", {"stiffness": "2.0"}),
            ("potential-polynomial", {"coefficients": "0,0,0.5"}),
            ("friction", {"gamma": "0.5"}),
            ("custom-coefficients", {"caputo_weight": "1.0"}),
        ):
            lag = build_lagrangian(_Params({"lagrangian": family, **extra}))
            assert lag.dim == 1

    def test_symmetry_families(self):
        assert build_symmetry(_Params({}), dim=1).name == "time-translation"
        s = build_symmetry(
            _Params({"symmetry": "space-translation", "direction": "1,0"}), dim=2
        )
        assert s.dim == 2
        with pytest.raises(ValidationError):
            build_symmetry(_Params({"symmetry": "rotation"}), dim=1)


# --------------------------------------------------------------- execution


class TestRunScenario:
    def test_extremal_outputs_and_manifest(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI)
        manifest = run(path, out_dir=tmp_path / "out")
        names = {f["name"] for f in manifest.files}
        assert names == {"solution.csv", "summary.csv"}
        on_disk = {p.name for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"}
        assert on_disk == names  # manifest completeness
        recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert recorded["version"]
        assert {f["name"] for f in recorded["files"]} == names

    def test_operator_test_convergence_table(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI)
        run(path, out_dir=tmp_path / "out")
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert rows[0] == "n,h,max_error,observed_order"
        orders = [float(r.split(",")[3]) for r in rows[2:]]
        assert all(1.3 <= o <= 2.0 for o in orders)  # about 2 - alpha

    @pytest.mark.parametrize("alpha", ["0.5", "1.0"])
    @pytest.mark.parametrize(
        "operator",
        [
            "caputo-left",
            "caputo-right",
            "rl-derivative-left",
            "rl-derivative-right",
            "rl-integral-left",
            "rl-integral-right",
        ],
    )
    def test_operator_test_constant_is_exact(self, tmp_path, operator, alpha):
        ini = OPERATOR_INI.replace("caputo-left", operator).replace("exponent = 2", "exponent = 0")
        path = tmp_path / "s.ini"
        path.write_text(ini.replace("alpha = 0.5", f"alpha = {alpha}"))
        run(path, out_dir=tmp_path / "out")
        rows = (tmp_path / "out" / "convergence.csv").read_text().splitlines()[1:]
        errors = [float(r.split(",")[2]) for r in rows]
        assert all(e < 1e-12 for e in errors)

    def test_manifest_lists_only_emitted_files(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "stale.csv").write_text("t\n0\n")
        manifest = run(path, out_dir=tmp_path / "out")
        assert [f["name"] for f in manifest.files] == ["convergence.csv"]
        recorded = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [f["name"] for f in recorded["files"]] == ["convergence.csv"]

    def test_overrides_recorded_in_manifest(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI)
        manifest = run(path, out_dir=tmp_path / "out", tol=1e-6, truncation=3)
        assert manifest.scenario["tolerance"] == "1e-06"
        assert manifest.scenario["truncation"] == "3"

    def test_manifest_json_is_the_dataclass_dump(self, tmp_path):
        # to_json dumps vars(self), not a deep copy; its bytes must match dataclasses.asdict's
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI)
        manifest = run(path, out_dir=tmp_path / "out", tol=1e-6)
        expected = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True)
        assert (tmp_path / "out" / "manifest.json").read_text(encoding="ascii") == expected

    def test_friction_emits_three_csvs(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(FRICTION_INI)
        manifest = run(path, out_dir=tmp_path / "out")
        names = {f["name"] for f in manifest.files}
        assert names == {"trajectory.csv", "diagnostics.csv", "window_table.csv"}

    def test_reruns_are_byte_identical(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(FRICTION_INI)
        m1 = run(path, out_dir=tmp_path / "a")
        m2 = run(path, out_dir=tmp_path / "b")
        d1 = {f["name"]: f["sha256"] for f in m1.files}
        d2 = {f["name"]: f["sha256"] for f in m2.files}
        assert d1 == d2

    def test_study_degenerate_single_grid(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI)
        convergence_study(path, [64], out_dir=tmp_path / "out")
        header = (tmp_path / "out" / "study.csv").read_text().splitlines()[0]
        assert header == "n,metric"  # no ratio column

    def test_study_runs_the_run_path(self, tmp_path):
        # the terminal condition must reach the study's solve
        path = tmp_path / "s.ini"
        path.write_text(CONTROL_INI)
        run(path, out_dir=tmp_path / "run")
        summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
        drift = float(summary[1].split(",")[summary[0].split(",").index("invariant_drift")])
        convergence_study(path, [32], out_dir=tmp_path / "study")
        metric = float((tmp_path / "study" / "study.csv").read_text().splitlines()[1].split(",")[1])
        assert drift > 0.1
        assert metric == drift
        per_run = json.loads((tmp_path / "study" / "n32" / "manifest.json").read_text())
        assert {f["name"] for f in per_run["files"]} == {"control.csv", "summary.csv"}

    @pytest.mark.parametrize(
        "text",
        [
            EXTREMAL_INI,
            EXTREMAL_INI.replace("extremal", "noether") + "symmetry = space-translation\n",
            OPERATOR_INI,
            CONTROL_INI,
            FRICTION_INI,
        ],
        ids=["extremal", "noether", "operator-test", "control", "friction"],
    )
    def test_manifest_digests_are_those_of_the_files(self, tmp_path, text):
        # write_csv digests what it writes; nothing reads the files back
        path = tmp_path / "s.ini"
        path.write_text(text)
        run(path, out_dir=tmp_path / "run")
        convergence_study(path, [32, 64], out_dir=tmp_path / "study")
        study = tmp_path / "study"
        for out in (tmp_path / "run", study, study / "n32", study / "n64"):
            files = json.loads((out / "manifest.json").read_text())["files"]
            assert files
            for entry in files:
                assert entry["sha256"] == hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()

    def test_study_operator_orders(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI)
        convergence_study(path, [64, 128, 256], out_dir=tmp_path / "out")
        rows = (tmp_path / "out" / "study.csv").read_text().splitlines()
        assert rows[0] == "n,metric,log2_ratio"
        ratios = [float(r.split(",")[2]) for r in rows[2:]]
        assert all(1.3 <= r <= 2.0 for r in ratios)


# ----------------------------------------------------------- the executable


class TestCommandLine:
    def test_run_and_exit_zero(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI)
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert "solution.csv" in proc.stdout

    def test_missing_alpha_exits_one_with_key_name(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI.replace("alpha = 1.0\n", ""))
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert "alpha" in record["message"]

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_n_exits_one_with_key_name(self, tmp_path, raw):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI.replace("n = 64", f"n = {raw}"))
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert "'n'" in record["message"]

    @pytest.mark.parametrize(
        "line,key",
        [
            ("tolerance = nan", "'tolerance'"),
            ("tolerance = -1", "'tolerance'"),
            ("stiffness = nan", "'stiffness'"),
            ("direction = nan", "'direction'"),
        ],
    )
    def test_non_finite_or_non_positive_key_exits_one_with_key_name(self, tmp_path, line, key):
        path = tmp_path / "s.ini"
        ini = EXTREMAL_INI.replace("extremal", "noether") + "symmetry = space-translation\n"
        path.write_text(ini + line + "\n")
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert key in record["message"]

    def test_non_finite_boundary_value_exits_one(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(EXTREMAL_INI.replace("q_b = 0.0", "q_b = nan"))
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert "boundary values must be finite" in record["message"]

    def test_negative_exponent_exits_one_with_key_name(self, tmp_path):
        # x^-1 is infinite at the base point; the run must refuse the key
        # before sampling it, so no RuntimeWarning reaches stderr
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI.replace("exponent = 2", "exponent = -1"))
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Warning" not in proc.stderr
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert record["message"] == "key 'exponent' must be >= 0, got -1"

    def test_nonexistent_file_exits_one(self, tmp_path):
        proc = cli("run", str(tmp_path / "nope.ini"))
        assert proc.returncode == 1

    def test_study_command(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI)
        proc = cli("study", str(path), "--grids", "64,128", "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        assert (tmp_path / "out" / "study.csv").exists()

    def test_bad_grid_list_exits_one(self, tmp_path):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI)
        proc = cli("study", str(path), "--grids", "64,banana")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "line, edit",
        [("window_b = 1.0", "window_b = 3.0"), ("window_a = 0.0", "window_a = -0.5")],
        ids=["past-horizon", "before-start"],
    )
    def test_friction_window_outside_the_simulation_exits_one(self, tmp_path, line, edit):
        # the window's path is interpolated from the simulated one, which
        # covers [0, horizon] only
        path = tmp_path / "s.ini"
        path.write_text(FRICTION_INI.replace(line, edit))
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert all(key in record["message"] for key in ("window_a", "window_b", "horizon"))

    @pytest.mark.parametrize(
        "text",
        [
            EXTREMAL_INI.replace(
                "lagrangian = harmonic", "lagrangian = potential-polynomial\ncoefficients = 0,0,0.5\nmass = -1"
            ),
            FRICTION_INI.replace("mass = 1.0", "mass = -1"),
        ],
        ids=["potential-polynomial", "friction"],
    )
    def test_negative_mass_exits_one_naming_mass(self, tmp_path, text):
        path = tmp_path / "s.ini"
        path.write_text(text)
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert record["message"] == "mass must be positive, got -1.0"

    @pytest.mark.parametrize(
        "text, key",
        [
            (
                EXTREMAL_INI.replace(
                    "lagrangian = harmonic", "lagrangian = potential-polynomial\ncoefficients = 0,nan,1"
                ),
                "coefficients",
            ),
            (FRICTION_INI.replace("potential = 0", "potential = 0,inf"), "potential"),
        ],
        ids=["coefficients", "potential"],
    )
    def test_non_finite_list_entry_exits_one_naming_key(self, tmp_path, text, key):
        path = tmp_path / "s.ini"
        path.write_text(text)
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "validation"
        assert record["message"].startswith(f"key '{key}' must list finite numbers")

    @pytest.mark.parametrize(
        "text, key",
        [
            (EXTREMAL_INI.replace("extremal", "noether") + "symmetry = rotation\n", "'symmetry'"),
            (EXTREMAL_INI.replace("extremal", "noether") + "truncation = 9\n", "truncation order 9"),
            (FRICTION_INI.replace("shrink_windows = 4", "shrink_windows = 1"), "'shrink_windows'"),
        ],
        ids=["rotation-in-1d", "truncation", "shrink-windows"],
    )
    def test_a_refused_run_leaves_no_file(self, tmp_path, text, key):
        # every key is read and checked before the run solves, simulates or writes
        path = tmp_path / "s.ini"
        path.write_text(text)
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert key in json.loads(proc.stderr.strip().splitlines()[-1])["message"]
        assert list((tmp_path / "out").glob("**/*")) == []

    def test_a_grid_over_the_cap_exits_one_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "s.ini"
        path.write_text(OPERATOR_INI.replace("grids = 64,128,256,512", "grids = 64,1048577"))
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert "up to 1048576 intervals, got 1048577" in capsys.readouterr().err
        assert peak < 2**20

    def test_numerical_failure_exits_two(self, tmp_path):
        blowup = FRICTION_INI.replace("potential = 0", "potential = 0,0,-500000000")
        blowup = blowup.replace("steps = 256", "steps = 16").replace(
            "horizon = 1.0", "horizon = 10.0"
        )
        path = tmp_path / "s.ini"
        path.write_text(blowup)
        proc = cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert record["error"] == "numerical"


# ---------------------------------------------------------- the acceptance run


def test_accept_exits_three_on_criterion_6_alone_and_writes_identical_tables(tmp_path, capsys):
    tables = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        assert main(["accept", "--out", str(run_dir)]) == 3
        out = capsys.readouterr().out
        assert "10/11 criteria passed" in out
        assert [line.split()[2] for line in out.splitlines() if line.startswith("FAIL")] == ["6"]
        tables.append((run_dir / "acceptance_results.csv").read_bytes())
    rows = tables[0].decode("ascii").splitlines()
    assert rows[0] == "criterion,passed,detail"
    assert [row.split(",")[:2] for row in rows[1:]] == [
        [str(i), "0" if i == 6 else "1"] for i in range(1, 12)
    ]
    # no timing reaches the data file, so repeated runs are byte-identical
    assert tables[0] == tables[1]
