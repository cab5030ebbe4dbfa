"""Baseline table: every workload untraced and traced, with per-layer columns.

    python3 perfbench/report.py --seed 0 --seconds 35

Runs ``run.py`` twice per workload (``--trace 0`` and ``--trace 1``), prints
the end-to-end numbers, the per-module self times, every per-layer metric
the benchmark documents, and the checks that the baseline has its expected
shape.  Exits 1 if a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import layer_value

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "repr-large", "kernel-sweep")

#: every per-layer number the README maps to an end-to-end metric; the ones
#: listed in BENCHMARK.json are those measured on every workload, or counts
LAYER_METRICS = (
    "cli_reports.load_scenario.s", "cli_reports.validate_scenario.s",
    "cli_reports.check.defect_theorem.s", "cli_reports.check.representation.s",
    "cli_reports.check.rank_one.s", "cli_reports.check.brown_halmos.s",
    "operators.build_perturbed.calls", "operators.build_perturbed.self_s",
    "operators.action_matrix.cells",
    "subspaces.nullspace.calls", "subspaces.nullspace.self_s", "subspaces.nullspace.cells",
    "subspaces.span_of.calls", "subspaces.span_of.self_s", "subspaces.perp.self_s",
    "subspaces.intersect.self_s", "subspaces.zero_at_origin_slice.self_s",
    "subspaces.is_contained.self_s", "subspaces.sigma_ratio_max",
    "near_invariance.kernel_of.calls", "near_invariance.kernel_of.self_s",
    "near_invariance.kernel_dim_sum", "near_invariance.compute_defect.calls",
    "near_invariance.compute_defect.self_s", "near_invariance.verify.self_s",
    "representation.build_frame.calls", "representation.build_frame.self_s",
    "representation.extract_coordinates.calls", "representation.extract_coordinates.self_s",
    "representation.peel_steps", "representation.reassemble.calls",
    "representation.reassemble.self_s", "representation.invariance.self_s",
    "representation.rank_one.self_s",
    "model_spaces.build_model_space.calls", "model_spaces.build_model_space.self_s",
    "model_spaces.decompose_against_theta.self_s",
    "symbols.is_inner.calls", "symbols.is_inner.self_s", "symbols.invert_analytic.self_s",
    "symbols.act.calls",
    "hardy_core.coeffvec_constructions", "hardy_core.backward_shift.calls",
)

#: share of the traced pass the named spans must cover (at least / at most)
DOMINANT_MIN = 0.5
SVD_CALL_MAX = 0.1
SELF_SUM_TOLERANCE = 0.1


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tklab baseline table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    for w in WORKLOADS:
        plain[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)

    head = f"{'':<38}" + "".join(f"{w:>14}" for w in WORKLOADS)
    print(head)
    rows = [("correct", lambda w: plain[w]["result"]["correct"] and traced[w]["result"]["correct"]),
            ("fail_ratio", lambda w: plain[w]["record"]["fail_ratio"])]
    rows += [(name, lambda w, n=name: plain[w]["result"]["metrics"][n]["value"])
             for name in plain[WORKLOADS[0]]["result"]["metrics"]]
    rows += [("traced pass_s", lambda w: traced[w]["record"]["traced_pass_s_samples"][-1]),
             ("tracing overhead_s", lambda w: traced[w]["record"]["tracing_overhead_s"])]
    rows += [(layer, lambda w, n=layer: traced[w]["record"]["layers"][n])
             for layer in traced[WORKLOADS[0]]["record"]["layers"]]
    for name in LAYER_METRICS:
        rows.append((name, lambda w, n=name: layer_value(n, last_trace(traced[w]["record"]))))
    for label, get in rows:
        print(f"{label:<38}" + "".join(f"{fmt(get(w)):>14}" for w in WORKLOADS))

    checks = []
    for w in WORKLOADS:
        rec = traced[w]["record"]
        checks.append((f"{w}: verdict digest equal untraced vs traced",
                       plain[w]["record"]["digest"] == rec["digest"]))
        checks.append((f"{w}: fail_ratio is 0", plain[w]["record"]["fail_ratio"] == 0))
        share = rec["self_sum_share"][-1]
        checks.append((f"{w}: layer self times sum to {share:.3f} of the traced pass",
                       abs(share - 1.0) <= SELF_SUM_TOLERANCE))
    shares = {w: traced[w]["record"]["shares"][-1] for w in WORKLOADS}
    for w in ("repr-large", "kernel-sweep"):
        checks.append((f"{w}: dominant spans cover {shares[w]['dominant']:.2f} of the pass",
                       shares[w]["dominant"] >= DOMINANT_MIN))
    longest = shares["suite"]["svd_longest_call"]
    checks.append((f"suite: longest single SVD call is {longest:.3f} of the pass",
                   longest <= SVD_CALL_MAX))
    print()
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in checks) else 1


def last_trace(record: dict) -> dict:
    return {"pass_s": record["traced_pass_s_samples"][-1], "spans": record["spans"],
            "counters": record["counters"], "layers": record["layers"]}


if __name__ == "__main__":
    sys.exit(main())
