"""Self-tests of the benchmark's tracer and correctness gate.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import inspect
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import tklab
import workloads
import worker
from tklab.config import Tolerances
from tracer import MODULES, Tracer

TOL = Tolerances()


@pytest.fixture(scope="module")
def sweep_small():
    # the kernel-sweep recipes at their warm-up size: every symbol class, fast
    return workloads.build("kernel-sweep", 3)[1]


def traced_pass(workload, scenarios):
    tracer = Tracer()
    with tracer:
        result = worker.run_pass(workload, scenarios, TOL)
    return tracer, result


def test_uninstall_restores_every_patch():
    tracer = Tracer()
    tracer.install()
    patches = tracer.patched()
    assert len(patches) > 100
    for namespace, attr, original in patches:
        current = namespace[attr] if isinstance(namespace, dict) else getattr(namespace, attr)
        assert current is not original
    tracer.uninstall()
    for namespace, attr, original in patches:
        current = namespace[attr] if isinstance(namespace, dict) else getattr(namespace, attr)
        assert current is original, (namespace, attr)
    for name in MODULES:
        module = getattr(tklab, name)
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj):
                assert not hasattr(obj, "__wrapped__"), (name, attr)


def test_every_imported_alias_is_patched():
    tracer = Tracer()
    with tracer:
        assert tklab.near_invariance.compute_defect is tklab.representation.compute_defect
        assert tklab.cli_reports.kernel_of is tklab.near_invariance.kernel_of
        assert tklab.nullspace is tklab.subspaces.nullspace
        assert hasattr(tklab.cli_reports.kernel_of, "__wrapped__")
        assert hasattr(tklab.hardy_core.CoeffVec.__init__, "__wrapped__")


def test_child_self_times_within_parent():
    tracer, result = traced_pass("suite", None)
    assert result.failed == 0
    spans = tracer.spans
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            assert p_start <= start and end <= p_end
    for name, row in tracer.summary().items():
        assert -1e-9 <= row["self_s"] <= row["incl_s"] + 1e-9, name


@pytest.mark.parametrize("workload", ["suite", "kernel-sweep"])
def test_traced_digest_equals_untraced(workload, sweep_small):
    scenarios = sweep_small if workload == "kernel-sweep" else None
    plain = worker.run_pass(workload, scenarios, TOL)
    _, traced = traced_pass(workload, scenarios)
    assert plain.failed == traced.failed == 0
    assert plain.digest() == traced.digest()
    assert plain.worst_residual == traced.worst_residual


def test_counts_repeat_across_traced_runs():
    first, _ = traced_pass("suite", None)
    second, _ = traced_pass("suite", None)
    calls = lambda t: {k: v["calls"] for k, v in t.summary().items()}
    assert calls(first) == calls(second)
    assert dict(first.counters) == dict(second.counters)
    assert calls(first)["hardy_core.CoeffVec"] > 1000


def test_dimension_mismatch_counts_as_failure(sweep_small):
    scenario = sweep_small[0]
    report = tklab.cli_reports.run_scenario_object(replace(scenario, expect={}), TOL)
    result = worker.PassResult()
    result.add(scenario.name, report.outcomes[0],
               dict(scenario.expect, kernel_dim=scenario.expect["kernel_dim"] + 1))
    assert result.failed == 1 and "kernel_dim" in result.failures[0]


def test_raising_scenario_counts_as_failure(sweep_small):
    broken = replace(sweep_small[0], checks=["defect_theorem", "no_such_check"])
    result = worker.run_pass("kernel-sweep", [broken], TOL)
    assert result.attempted == 2 and result.failed == 2


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(worker.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
