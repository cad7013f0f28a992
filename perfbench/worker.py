"""One workload in one process: set-up, timed passes, gates, metrics.

Started by ``run.py``; prints one JSON object as its last line. Set-up is
timed from the top of this file, before numpy or fracvar is imported, to the
end of the warm-up. Passes form a closed loop: each operation starts when
the previous one has ended and been checked. ``--trace 1`` alternates an
untraced and a traced pass, so both see the same machine state.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
from importlib import metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("grid", "fracops", "grunwald", "minimize", "lagrangian", "variational", "noether", "friction", "optctrl", "scenarios")


def import_fracvar(root: Path):
    """fracvar from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "fracvar" / "__init__.py").is_file():
        raise SystemExit(f"error: no fracvar sources under {src}")
    sys.path.insert(0, str(src))
    fv = types.SimpleNamespace(**{m: importlib.import_module(f"fracvar.{m}") for m in MODULES})
    if Path(fv.grid.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: fracvar was imported from {fv.grid.__file__}, not {src}")
    return fv


def run_op(op, tracer=None, op_id=0):
    """(seconds, failure reason or None); exceptions count as failures."""
    if op.out_dir is not None and op.out_dir.exists():
        shutil.rmtree(op.out_dir)
    result, reason = None, None
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the benchmark counts failures and keeps going
        reason = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:
            reason = f"gate raised {type(exc).__name__}: {exc}"
    return elapsed, reason


def run_pass(ops, record, tracer=None):
    times = []
    for op in ops:
        elapsed, reason = run_op(op, tracer, op_id=record["attempted"])
        record["attempted"] += 1
        if reason is not None:
            record["failed"] += 1
            record["failures"].append({"op": op.name, "reason": reason})
        times.append(elapsed)
    return times


def environment(np_module) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = 0
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            size = (index / "size").read_text(encoding="ascii").strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20}.get(size[-1:], 1)
        if size.rstrip("KM").isdigit():
            llc = max(llc, int(size.rstrip("KM")) * scale)
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "llc_bytes": llc,
        "python": sys.version.split()[0],
        "numpy": np_module.__version__,
        "scipy": scipy_version,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_", "glibc default"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    fv = import_fracvar(ROOT)
    import numpy as np

    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    workdir = args.out / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    specs = workloads.generate(args.workload, args.seed)
    ops = workloads.bind(specs, workdir, fv)
    (workdir / "warm").mkdir(exist_ok=True)
    warm = workloads.bind(workloads.generate(args.workload, args.seed, scale="warm"), workdir / "warm", fv)
    for op in warm:
        run_op(op)  # results of the toy-size runs are not judged
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"attempted": 0, "failed": 0, "failures": []}
    passes, traced_passes = [], []
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # the first full-size pass pays first-touch costs; a traced run
        # compares traced with untraced passes, so it leaves that one out
        run_pass(ops, {"attempted": 0, "failed": 0, "failures": []})
    min_rounds = 2 if tracer is not None else 3
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, record))
        if tracer is not None:
            traced_passes.append(run_pass(ops, record, tracer))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(passes)
        if len(passes) >= min_rounds and elapsed + per_round > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": specs,
        "environment": environment(np),
        "setup_s": setup_s,
        "pass_s": [sum(p) for p in passes],
        "op_s": {op.name: [p[i] for p in passes] for i, op in enumerate(ops)},
        "slowest_op_s": [max(p) for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **record,
    }
    if tracer is not None:
        traced = [sum(p) for p in traced_passes]
        layers = tracing.layer_metrics(tracer.spans, tracer.counters, len(traced_passes))
        traced_mean = statistics.fmean(traced)
        untraced_mean = statistics.fmean(result["pass_s"])
        layers["trace.pass_s"] = traced_mean
        layers["trace.untraced_pass_s"] = untraced_mean
        layers["trace.overhead_s"] = traced_mean - untraced_mean
        layers["trace.remainder_s"] = traced_mean - sum(layers[f"{x}.self_s"] for x in tracing.LAYERS)
        layers["trace.spans"] = len(tracer.spans) / len(traced_passes)
        result["layers"] = layers
        tracer.write(args.out / "spans.csv", start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
