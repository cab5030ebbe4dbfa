"""The scenario generator script against the bundled scenario files."""

import importlib.util
from pathlib import Path

from tklab.cli_reports import bundled_scenario_dir

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_scenarios.py"


def test_generator_reproduces_bundled_files(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("generate_scenarios", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    bundled = {p.name: p.read_bytes() for p in bundled_scenario_dir().glob("*.json")}
    written = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    assert sorted(written) == sorted(bundled)
    for name, payload in written.items():
        assert payload == bundled[name], name
