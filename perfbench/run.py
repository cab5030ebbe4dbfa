"""tklab benchmark entry point.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json, ``--trace 1`` the per-layer ones; either way the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the line before it a ``{"record": ...}`` object with every
sample, the verdict digest, the environment and, when traced, every span
name's calls and times.

Set-up time is measured from outside: each worker process is timed from
spawn to the ``READY`` line it prints after importing tklab, building the
workload's scenarios and warming up.  Several set-up-only workers run before
the measuring one, and the median of all of them is reported.
"""

from __future__ import annotations

import argparse
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9
#: the whole run must finish well inside three minutes
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float, live: list):
    """Start a worker; returns (seconds from spawn to READY, process).

    The process is appended to ``live`` so the caller can stop it on any exit.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    live.append(proc)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - time.perf_counter(), 0.0))
    line = proc.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - start
    if line.strip() != "READY":
        raise BenchError(f"worker set-up failed ({'exit' if ready else 'timeout'})")
    return setup_s, proc


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline: float) -> str:
    """Wait for a worker and return its stdout after READY."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "tklab").is_dir():
        raise BenchError(f"no tklab sources under {ROOT / 'src'}; run from a checkout")
    return json.loads(spec_path.read_text())


def end_to_end(spec, worker_out, setup_samples) -> dict:
    passes = worker_out["untraced"]["passes"]
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": min(worker_out["untraced"]["pass_s"]),
        "peak_rss_mb": worker_out["peak_rss_mb"],
        "accuracy_digits": min(p["accuracy_digits"] for p in passes),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def layer_value(name: str, trace: dict) -> float:
    """A per-layer metric of one traced pass, looked up by its name.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.s`` (inclusive seconds)
    read the span table; ``<module>.self_s`` sums a module's self times;
    ``trace.pass_s`` is the traced pass wall time; anything else is a counter.
    """
    spans, counters = trace["spans"], trace["counters"]
    if name == "trace.pass_s":
        return trace["pass_s"]
    if name == "hardy_core.coeffvec_constructions":
        return spans.get("hardy_core.CoeffVec", {}).get("calls", 0)
    if name in trace["layers"]:
        return trace["layers"][name]
    for suffix, column in ((".calls", "calls"), (".self_s", "self_s"), (".s", "incl_s")):
        if name.endswith(suffix):
            return spans.get(name[:-len(suffix)], {}).get(column, 0)
    return counters.get(name, 0)


def per_layer(spec, traces) -> tuple[dict, list]:
    """Median over traced passes; counts must repeat exactly across them."""
    metrics, unsteady = {}, []
    for m in spec["per_layer"]:
        values = [layer_value(m["name"], t) for t in traces]
        if m["unit"] == "count" and len(set(values)) > 1:
            unsteady.append(m["name"])
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    return metrics, unsteady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tklab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    live: list = []
    try:
        spec = load_spec()
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_s, proc = spawn(common + ["--seconds", "0", "--setup-only"],
                                      deadline, live)
                finish(proc, deadline)
                setup_samples.append(setup_s)
        setup_s, proc = spawn(common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], deadline, live)
        setup_samples.append(setup_s)
        lines = finish(proc, deadline).strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        out = json.loads(lines[-1])
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in live:
            stop(proc)

    passes = out["untraced"]["passes"] + out.get("traced", {}).get("passes", [])
    attempted = out["warmup"]["attempted"] + sum(p["attempted"] for p in passes)
    failed = out["warmup"]["failed"] + sum(p["failed"] for p in passes)
    digests = sorted({p["digest"] for p in passes})
    accuracies = sorted({p["accuracy_digits"] for p in passes})
    failures = out["warmup"]["failures"] + [f for p in passes for f in p["failures"]]
    if len(digests) > 1:
        failures.append(f"verdict digest differs across passes: {digests}")
    if len(accuracies) > 1:
        failures.append(f"residuals differ across passes: {accuracies}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "digest": digests[0] if len(digests) == 1 else digests,
              "fail_ratio": failed / max(attempted, 1),
              "setup_s_samples": setup_samples, "pass_s_samples": out["untraced"]["pass_s"],
              "pass_s_median": statistics.median(out["untraced"]["pass_s"]),
              "peak_rss_mb": out["peak_rss_mb"],
              "accuracy_digits": accuracies[0] if accuracies else None,
              "environment": out["environment"]}
    if args.trace:
        traces = out["traced"]["traces"]
        metrics, unsteady = per_layer(spec, traces)
        if unsteady:
            failures.append(f"counts differ across traced passes: {unsteady}")
        traced_pass = min(out["traced"]["pass_s"])
        record.update({
            "traced_pass_s_samples": out["traced"]["pass_s"],
            "tracing_overhead_s": traced_pass - min(out["untraced"]["pass_s"]),
            "self_sum_share": [t["self_sum_share"] for t in traces],
            "shares": [t["shares"] for t in traces],
            "span_count": [t["span_count"] for t in traces],
            "layers": traces[-1]["layers"], "counters": traces[-1]["counters"],
            "spans": traces[-1]["spans"],
        })
    else:
        metrics = end_to_end(spec, out, setup_samples)
    record["failures"] = failures[:50]
    correct = failed == 0 and not failures
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
