"""One benchmark process: set up a workload, then time passes over it.

Run by ``run.py``; prints ``READY`` once set-up is done (the parent times
set-up from process start to that line) and, unless ``--setup-only``, one JSON
line with the measured passes when it finishes.

A pass runs every scenario of the workload once, with every check, through
tklab's public entry points and default ``Tolerances()``.  Each check counts
as attempted; it counts as failed when its verdict is not ``pass``, when a
generated scenario's kernel or defect dimension differs from what its recipe
guarantees, or when the scenario raised.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tklab  # noqa: E402
from tklab import cli_reports  # noqa: E402
from tklab.config import Tolerances  # noqa: E402

import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402

#: discrete report fields whose values make up the verdict digest
DIGEST_FIELDS = ("status", "kernel_dim", "defect_dim", "slice_dim",
                 "predicted_dim", "case", "r", "p", "vanishing_case")
#: normalized residuals that accuracy_digits takes the worst of: kernel,
#: containment, reconstruction, isometry and invariance, under the names the
#: checks and their nested ``details``/``coordinate_residuals`` use
RESIDUAL_KEYS = frozenset({"kernel_residual_max", "containment_residual",
                           "reconstruction_residual_max", "isometry_residual_max",
                           "invariance_residuals", "invariance_residual_max",
                           "reconstruction", "isometry_gap"})
DIGITS_CAP = 16.0

#: functions whose single call is one dense SVD (or a few) of its input
SVD_SPANS = ("subspaces.nullspace", "subspaces.span_of", "subspaces.intersect",
             "subspaces.zero_at_origin_slice", "subspaces.perp",
             "subspaces.ortho_complement_within")
#: spans whose covered time should dominate a pass, per workload
DOMINANT_SPANS = {
    "repr-large": ("representation.extract_coordinates", "representation.invariance"),
    "kernel-sweep": ("subspaces.nullspace", "model_spaces.build_model_space"),
}


class PassResult:
    """Outcome of one pass: counts, digest, worst residual, failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rows: list = []
        self.failures: list = []
        self.worst_residual = 0.0

    def fail(self, what: str, checks: int = 1) -> None:
        self.attempted += checks
        self.failed += checks
        self.failures.append(what)

    def add(self, scenario: str, outcome, expect: dict | None) -> None:
        res = outcome.residuals
        fields = {"status": outcome.status}
        for key in DIGEST_FIELDS[1:]:
            src = "subspace_dim" if key == "kernel_dim" and "subspace_dim" in res else key
            if src in res:
                fields[key] = res[src]
        self.rows.append([scenario, outcome.name, fields])
        self.worst_residual = max(self.worst_residual, _worst_residual(res))
        self.attempted += 1
        problem = None
        if outcome.status != "pass":
            problem = f"verdict {outcome.status}"
        elif expect is not None:
            for key in ("kernel_dim", "defect_dim"):
                if key in expect and key in fields and fields[key] != expect[key]:
                    problem = f"{key} {fields[key]} != expected {expect[key]}"
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{scenario}/{outcome.name}: {problem}")

    def digest(self) -> str:
        text = json.dumps([self.rows, self.failures], sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()

    def accuracy_digits(self) -> float:
        if self.worst_residual <= 0.0:
            return DIGITS_CAP
        return min(DIGITS_CAP, -math.log10(self.worst_residual))


def _worst_residual(value, key=None) -> float:
    if isinstance(value, dict):
        return max((_worst_residual(v, k) for k, v in value.items()), default=0.0)
    if key not in RESIDUAL_KEYS:
        return 0.0
    if isinstance(value, list):
        return max((float(v) for v in value), default=0.0)
    return float(value) if value is not None else 0.0


def run_pass(workload: str, scenarios, tol: Tolerances) -> PassResult:
    result = PassResult()
    if workload == "suite":
        try:
            suite = cli_reports.run_suite(workloads.SUITE_DIR, jobs=1, base_tol=tol)
        except Exception as exc:  # a crash is a failed check, never a lost one
            result.fail(f"run_suite raised {type(exc).__name__}: {exc}")
            return result
        for report in suite.reports:
            for outcome in report.outcomes:
                result.add(report.scenario, outcome, None)
        for path, kind, message in suite.errors:
            result.fail(f"{Path(path).stem}: {kind} error: {message}")
        return result
    for sc in scenarios:
        try:
            report = cli_reports.run_scenario_object(sc, tol)
        except Exception as exc:  # a crash is a failed check, never a lost one
            result.fail(f"{sc.name}: raised {type(exc).__name__}: {exc}", len(sc.checks))
            continue
        for outcome in report.outcomes:
            result.add(sc.name, outcome, sc.expect)
    return result


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src" / "tklab"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),  # tklab never imports it
        "tklab": tklab.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "src_tklab_lines": sum(len(p.read_text().splitlines())
                               for p in sorted(src.glob("*.py"))),
        "platform": platform.platform(),
    }


def _git_rev() -> str | None:
    """HEAD commit read from the .git directory; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def timed_passes(workload, scenarios, tol, seconds, tracer=None):
    """Passes while another one is expected to end within ``seconds`` (at least one).

    Returns (wall times, pass results, per-pass trace summaries)."""
    walls, results, traces = [], [], []
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        result = run_pass(workload, scenarios, tol)
        end = time.perf_counter()
        walls.append(end - start)
        results.append(result)
        if tracer is not None:
            traces.append(trace_record(workload, tracer, end - start))
        if end - begin + statistics.median(walls) > seconds:
            return walls, results, traces


def trace_record(workload: str, tracer: Tracer, wall: float) -> dict:
    """Per-layer numbers of one traced pass."""
    spans = tracer.summary()
    layers = {f"{mod}.self_s": 0.0 for mod in MODULES}
    for name, row in spans.items():
        layers[f"{name.split('.')[0]}.self_s"] += row["self_s"]
    shares = {"svd_longest_call": tracer.longest(SVD_SPANS) / wall}
    if workload in DOMINANT_SPANS:
        shares["dominant"] = tracer.covered(DOMINANT_SPANS[workload]) / wall
    return {"pass_s": wall, "spans": spans, "counters": dict(tracer.counters),
            "layers": layers, "span_count": len(tracer.spans),
            "self_sum_share": sum(layers.values()) / wall, "shares": shares}


def write_spans(tracer: Tracer, path: Path) -> None:
    """Spans of the last traced pass: [name index, start, end, parent index]."""
    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": names, "spans": [
        [index[name], start, end, parent] for name, start, end, parent in tracer.spans]}))


def setup(workload: str, seed: int, tol: Tolerances):
    """Everything before the first timed pass; returns (scenarios, warm-up result)."""
    scenarios, warmup = workloads.build(workload, seed)
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    np.linalg.svd(probe)  # loads LAPACK and starts the BLAS threads
    return scenarios, run_pass(workload, warmup, tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tol = Tolerances()
    scenarios, warm = setup(args.workload, args.seed, tol)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = {"warmup": {"attempted": warm.attempted, "failed": warm.failed,
                      "failures": warm.failures}}
    if args.trace:
        walls, results, _ = timed_passes(args.workload, scenarios, tol, args.seconds / 2)
        tracer = Tracer()
        with tracer:
            t_walls, t_results, traces = timed_passes(
                args.workload, scenarios, tol, args.seconds / 2, tracer)
        out["traced"] = {"pass_s": t_walls, "passes": [_summary(r) for r in t_results],
                         "traces": traces}
        write_spans(tracer, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        walls, results, _ = timed_passes(args.workload, scenarios, tol, args.seconds)
    out["untraced"] = {"pass_s": walls, "passes": [_summary(r) for r in results]}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["environment"] = environment()
    print(json.dumps(out), flush=True)
    return 0


def _summary(result: PassResult) -> dict:
    return {"attempted": result.attempted, "failed": result.failed,
            "failures": result.failures, "digest": result.digest(),
            "worst_residual": result.worst_residual,
            "accuracy_digits": result.accuracy_digits()}


if __name__ == "__main__":
    sys.exit(main())
