"""The suite-report comparison script on small reports."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

REPORT = {
    "scenarios": [
        {"scenario": "a", "ok": True, "checks": [
            {"name": "representation", "status": "pass", "seconds": 0.01,
             "residuals": {"kernel_dim": 5, "isometry_residual_max": 2e-15,
                           "invariance_residuals": [1e-15, 2e-15],
                           "certificate": {"support": [3, 3], "contraction": 0.25}}}]},
        {"scenario": "b", "ok": True, "checks": [
            {"name": "representation", "status": "pass", "seconds": 0.02,
             "residuals": {"kernel_dim": 7, "isometry_residual_max": 4e-15,
                           "invariance_residuals": [3e-15, 3e-15],
                           "certificate": {"support": [4, 2], "contraction": 0.0}}}]},
    ],
    "errors": [], "passed": 2, "failed": 0,
}


def _run(tmp_path, capsys, new):
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(REPORT))
    new_path.write_text(json.dumps(new))
    code = report_diff.main([str(old_path), str(new_path)])
    return code, capsys.readouterr().out.splitlines()


def _residuals(report, scenario):
    [check] = report["scenarios"][scenario]["checks"]
    return check["residuals"]


def test_timings_alone_are_no_difference(tmp_path, capsys):
    new = copy.deepcopy(REPORT)
    new["scenarios"][0]["checks"][0]["seconds"] = 9.0
    new["scenarios"].reverse()  # scenarios are matched by name
    assert _run(tmp_path, capsys, new) == (0, ["no differences"])


def test_moved_floats_print_their_largest_relative_move(tmp_path, capsys):
    new = copy.deepcopy(REPORT)
    _residuals(new, 0)["isometry_residual_max"] = 3e-15
    _residuals(new, 1)["isometry_residual_max"] = 5e-15
    _residuals(new, 1)["invariance_residuals"][1] = 3.3e-15
    code, lines = _run(tmp_path, capsys, new)
    assert code == 0
    assert lines == [
        "float checks.representation.residuals.invariance_residuals[]: 1 moved, "
        "largest relative move 9.09e-02 (b)",
        "float checks.representation.residuals.isometry_residual_max: 2 moved, "
        "largest relative move 3.33e-01 (a)"]


@pytest.mark.parametrize("change,line", [
    (lambda r: r["scenarios"][1].update(ok=False),
     "other scenarios/b/ok: true -> false"),
    (lambda r: _residuals(r, 0).update(kernel_dim=6),
     "other scenarios/a/checks/representation/residuals/kernel_dim: 5 -> 6"),
    (lambda r: _residuals(r, 1)["certificate"]["support"].append(1),
     "other scenarios/b/checks/representation/residuals/certificate/support/2: "
     "only in NEW (1)"),
    (lambda r: r.update(passed=1),
     "other passed: 2 -> 1"),
])
def test_any_other_difference_exits_1(tmp_path, capsys, change, line):
    new = copy.deepcopy(REPORT)
    change(new)
    _residuals(new, 0)["certificate"]["contraction"] = 0.5  # a float moves too
    code, lines = _run(tmp_path, capsys, new)
    assert code == 1
    assert lines == ["float checks.representation.residuals.certificate.contraction: "
                     "1 moved, largest relative move 5.00e-01 (a)", line]


def test_a_float_that_turns_infinite_moves_infinitely(tmp_path, capsys):
    new = copy.deepcopy(REPORT)
    _residuals(new, 1)["certificate"]["contraction"] = float("inf")
    code, lines = _run(tmp_path, capsys, new)
    assert code == 0
    assert lines == ["float checks.representation.residuals.certificate.contraction: "
                     "1 moved, largest relative move inf (b)"]
