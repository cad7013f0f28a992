"""Command-line front end.

Commands: ``run <file>`` executes one scenario, ``study <file> --grids ...``
re-runs it across resolutions, ``accept`` runs the acceptance suite. Exit
codes: 0 success, 1 user error, 2 numerical failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import NumericsError, ValidationError

EXIT_OK = 0
EXIT_USER_ERROR = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracvar",
        description=(
            "Fractional-calculus operators, mixed classical/Caputo variational "
            "problems, and conserved-quantity diagnostics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to the scenario config")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--truncation", type=int, default=None, help="series truncation override")
    run_p.add_argument("--tol", type=float, default=None, help="solver tolerance override")

    study_p = sub.add_parser("study", help="re-run a scenario across grid sizes")
    study_p.add_argument("scenario", help="path to the scenario config")
    study_p.add_argument("--grids", required=True, help="comma-separated interval counts")
    study_p.add_argument("--out", default=None, help="output directory")

    accept_p = sub.add_parser("accept", help="run the acceptance suite")
    accept_p.add_argument("--out", default=None, help="directory for the results table")
    return parser


def _error_record(kind: str, message: str) -> str:
    return json.dumps({"error": kind, "message": message})


def _cmd_run(args) -> int:
    from .scenarios import run

    manifest = run(args.scenario, out_dir=args.out, tol=args.tol, truncation=args.truncation)
    for entry in manifest.files:
        print(f"wrote {entry['name']}  sha256={entry['sha256'][:16]}...")
    print(f"done in {manifest.wall_clock_sec:.2f}s")
    return EXIT_OK


def _cmd_study(args) -> int:
    from .scenarios import convergence_study

    try:
        grids = [int(x) for x in args.grids.split(",") if x.strip()]
    except ValueError:
        raise ValidationError("--grids must be a comma-separated integer list") from None
    manifest = convergence_study(args.scenario, grids, out_dir=args.out)
    for entry in manifest.files:
        print(f"wrote {entry['name']}  sha256={entry['sha256'][:16]}...")
    return EXIT_OK


def _cmd_accept(args) -> int:
    from .acceptance import run_all

    results = run_all()
    for result in results:
        print(result.line())
    failures = [r for r in results if not (r.passed and r.within_budget)]
    print(f"{len(results) - len(failures)}/{len(results)} criteria passed")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # no timings in the data file: repeated runs must be byte-identical
        with open(out / "acceptance_results.csv", "w", encoding="ascii") as fh:
            fh.write("criterion,passed,detail\n")
            for r in results:
                detail = r.detail.replace(",", ";")
                fh.write(f"{r.index},{int(r.passed and r.within_budget)},{detail}\n")
        print(f"wrote {out / 'acceptance_results.csv'}")
    return EXIT_ACCEPTANCE if failures else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USER_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "study":
            return _cmd_study(args)
        return _cmd_accept(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(_error_record("validation", str(exc)), file=sys.stderr)
        return EXIT_USER_ERROR
    except NumericsError as exc:
        print(_error_record("numerical", str(exc)), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
