"""The workload report script: a suite-shaped report of a benchmark workload."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workload_reports, report_diff = _load("workload_reports"), _load("report_diff")


def test_repr_large_report_holds_its_warmup_and_timed_scenarios(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # main adds the checkout's paths
    out = tmp_path / "repr-large.json"
    assert workload_reports.main(["repr-large", "3", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["scenario"] for s in report["scenarios"]] == [
        f"zero_symbol_repr[N={N}]" for N in (32, 128, 256)]
    assert (report["passed"], report["failed"], report["errors"]) == (3, 0, [])
    assert all([c["name"] for c in s["checks"]] == ["defect_theorem", "representation"]
               for s in report["scenarios"])
    capsys.readouterr()
    # the shape report_diff reads: a report against itself shows nothing
    assert report_diff.main([str(out), str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == ["no differences"]


def test_unknown_workload_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exc:
        workload_reports.main(["nope", "0", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "out.json").exists()
