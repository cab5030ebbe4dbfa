#!/usr/bin/env python3
"""Write a suite-shaped report of one benchmark workload's scenarios.

    python3 scripts/workload_reports.py WORKLOAD SEED OUT.json [--root DIR]

WORKLOAD names a workload of ``perfbench/workloads.py`` (suite, repr-large,
kernel-sweep).  The report is what ``tklab suite --out`` writes,
``{"scenarios": [...], "errors": [...], ...}``: one entry for each warm-up
and timed scenario the workload builds from SEED, each run once with all of
its checks at the default ``Tolerances()``.  ``suite`` runs the bundled
scenarios, which take no seed.  A scenario that raises is filed under
``errors`` as ``tklab suite`` files a file, and the rest still run.

``--root`` is the checkout whose ``src/`` and ``perfbench/`` are run, by
default this one; the script reads ``perfbench/`` and writes nothing there.
Two reports, say of a parent checkout and of a change, compare with
``scripts/report_diff.py``:

    python3 scripts/workload_reports.py repr-large 0 old.json --root ../parent
    python3 scripts/workload_reports.py repr-large 0 new.json
    python3 scripts/report_diff.py old.json new.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path


def workload_report(workloads, workload: str, seed: int) -> dict:
    """The suite-shaped report of the scenarios that the ``workloads``
    module builds for ``workload`` from ``seed``."""
    # imported here: ``main`` puts the chosen checkout on the path first
    from tklab.cli_reports import (SuiteResult, classify_error, run_scenario_object,
                                   run_suite)
    from tklab.config import Tolerances

    tol = Tolerances()
    if workload == "suite":
        return run_suite(workloads.SUITE_DIR, jobs=1, base_tol=tol).to_json()
    timed, warmup = workloads.build(workload, seed)
    reports, errors = [], []
    for scenario in warmup + timed:
        try:
            reports.append(run_scenario_object(scenario, tol))
        except Exception as exc:  # filed against its scenario, as a suite files a file
            errors.append((scenario.name, *classify_error(exc)))
    return SuiteResult(reports, errors).to_json()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the checkout to run (default: this one)")
    args = parser.parse_args(argv)
    for sub in ("perfbench", "src"):
        sys.path.insert(0, str(args.root.resolve() / sub))
    workloads = importlib.import_module("workloads")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    report = workload_report(workloads, args.workload, args.seed)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{args.workload} seed {args.seed}: {report['passed']} passed, "
          f"{report['failed']} failed, {len(report['errors'])} errors -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
