"""fracvar benchmark: time to solution on three seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extremal --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Each workload runs in its own worker process (``worker.py``), and set-up is
timed in further fresh processes, because import time is part of it. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The lines before it print every metric by name and unit, the
failure rate, the seed, the environment, and where the full record (inputs,
every sample, spans) was written. Exit code 0 means a result was printed;
any other code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("extremal", "control", "kernels")

#: set-up is measured this many times per run, in fresh processes
SETUP_SAMPLES = 7
#: hard limit on one invocation of this script
LIMIT_S = 175.0

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "minimize.iterations": "count",
    "minimize.fun_evals": "count",
    "minimize.grad_evals": "count",
    "minimize.self_s": "s",
    "minimize.s_per_iter": "s",
    "variational.self_s": "s",
    "variational.solve_s": "s",
    "variational.objective_s": "s",
    "variational.gradient_s": "s",
    "variational.postsolve_s": "s",
    "lagrangian.self_s": "s",
    "lagrangian.evals": "count",
    "lagrangian.eval_s": "s",
    "optctrl.self_s": "s",
    "optctrl.solve_s": "s",
    "optctrl.rounds": "count",
    "optctrl.objective_s": "s",
    "optctrl.gradient_s": "s",
    "optctrl.diagnostics_s": "s",
    "fracops.calls": "count",
    "fracops.self_s": "s",
    "fracops.matrix_s": "s",
    "fracops.macs": "MAC",
    "fracops.gmacs_per_s": "GMAC/s",
    "grunwald.self_s": "s",
    "grunwald.macs": "MAC",
    "noether.self_s": "s",
    "noether.series_s": "s",
    "noether.quantity_s": "s",
    "noether.defect_s": "s",
    "friction.self_s": "s",
    "friction.rk4_s": "s",
    "friction.rk4_steps_per_s": "1/s",
    "friction.diagnostics_s": "s",
    "scenarios.self_s": "s",
    "scenarios.bytes_written": "B",
    "scenarios.write_mb_per_s": "MB/s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
    "trace.spans": "count",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Worker environment: one BLAS thread, glibc's mmap and trim thresholds raised.

    The solvers are single-threaded by design and their matrix-vector
    products (m <= 512) do not gain from BLAS threads, whose spin-waiting on
    this 2-core machine made runs slower and less steady. The dense solvers
    allocate and free matrix-sized temporaries on every iteration; with
    glibc's defaults each one is a fresh mmap, about 650k page faults per
    control solve, whose cost in a virtual machine varied by 30% between
    runs. With the thresholds raised the memory is reused.
    """
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        MALLOC_MMAP_THRESHOLD_=str(32 * 2**20),
        MALLOC_TRIM_THRESHOLD_=str(256 * 2**20),
    )
    return env


def worker(args: list, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time limit: {' '.join(args)}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple:
    """(metrics, record, output directory) for one workload."""
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--out", str(out)]
    probes = 0 if trace else (SETUP_SAMPLES - 1) // 2

    def setup_probes():
        return [worker([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"] for _ in range(probes)]

    # probes before and after the measuring worker, so that a run's set-up
    # median spans the run rather than one moment of a shared machine
    setups = setup_probes()
    record = worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups += [record["setup_s"], *setup_probes()]
    record["setup_samples_s"] = setups
    if trace:
        layers = record["layers"]
        metrics = {key: layers[key] for key in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(record["pass_s"]),
            "slowest_op_s": statistics.median(record["slowest_op_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    record["metrics"] = metrics
    (out / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True), encoding="ascii")
    return metrics, record, out


def report(name: str, metrics: dict, record: dict, out: Path, trace: bool) -> None:
    units = PER_LAYER if trace else END_TO_END
    env = record["environment"]
    print(f"== {name}  seed={record['seed']}  record={out.relative_to(ROOT) / 'result.json'}")
    print(
        f"   env: nproc={env['nproc']} cpu={env['cpu_model']!r} llc={env['llc_bytes']} B "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} blas_threads={env['blas_threads']}"
    )
    for op in record["inputs"]:
        shown = {k: v for k, v in op["inputs"].items() if k != "ini"}
        print(f"   input {op['name']}: {json.dumps(shown, sort_keys=True)}")
    if not trace:
        q1, q2, q3 = quartiles(record["pass_s"])
        print(
            f"   passes={len(record['pass_s'])} pass_s median={q2:.4f} q1={q1:.4f} q3={q3:.4f} "
            f"spread={(q3 - q1) / q2:.3%}"
        )
        for op_name, samples in record["op_s"].items():
            print(f"   op {op_name}: median {statistics.median(samples):.4f} s")
    for key, value in metrics.items():
        print(f"   {key} = {value:.6g} {units[key]}")
    if trace:
        selfs = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        print(
            f"   layer self times {selfs:.6f} s + remainder {metrics['trace.remainder_s']:.6f} s "
            f"= traced pass {metrics['trace.pass_s']:.6f} s"
        )
        print("   fracops.macs, grunwald.macs and scenarios.bytes_written are computed from shapes and file sizes")
    rate = record["failed"] / record["attempted"]
    print(f"   fail_rate = {rate:.6g} ({record['failed']}/{record['attempted']} operations)")
    for failure in record["failures"][:10]:
        print(f"   FAILED {failure['op']}: {failure['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + LIMIT_S * (len(WORKLOADS) if args.workload == "all" else 1)
    if not (ROOT / "src" / "fracvar" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'fracvar'} is missing; run from a fracvar checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed = {}, 0, 0
    try:
        for name in names:
            metrics, record, out = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            report(name, metrics, record, out, bool(args.trace))
            attempted += record["attempted"]
            failed += record["failed"]
            combined[name] = metrics
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    if len(names) == 1:
        shown = {k: {"value": v, "unit": units[k]} for k, v in combined[names[0]].items()}
    else:
        shown = {f"{w}.{k}": {"value": v, "unit": units[k]} for w in names for k, v in combined[w].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
