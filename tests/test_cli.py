import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklab.cli_reports import (EXIT_CHECK_FAIL, EXIT_INTERNAL, EXIT_PARSE,
                               EXIT_PASS, EXIT_VALIDATION, bundled_scenario_dir,
                               load_scenario, main, parse_scenario,
                               run_scenario, run_suite, sweep)
from tklab.config import Tolerances
from tklab.errors import ScenarioParseError, ScenarioValidationError
from tklab.operators import build_perturbed
from tklab.subspaces import nullspace
from tklab.symbols import LaurentMatrixSymbol, blaschke_taylor

from conftest import rand_orthonormal

SCENARIOS = bundled_scenario_dir()


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tklab.cli_reports", *args],
                          capture_output=True, text=True)


def strip_timings(payload):
    if isinstance(payload, dict):
        return {k: strip_timings(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [strip_timings(v) for v in payload]
    return payload


class TestRun:
    def test_bundled_scenarios_pass(self, tmp_path):
        for path in sorted(SCENARIOS.glob("*.json")):
            report, code = run_scenario(path, out=tmp_path / "r.json")
            assert code == EXIT_PASS, (path.name, report.to_json())

    def test_monomial_inner_scenario_via_cli(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("run", str(SCENARIOS / "inner_monomial_rank_one.json"),
                       "--out", str(out))
        assert proc.returncode == EXIT_PASS, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"defect_theorem", "rank_one", "representation"} <= names

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        out = tmp_path / "report.json"
        proc = run_cli("run", str(bad), "--out", str(out))
        assert proc.returncode == EXIT_PARSE
        assert not out.exists()  # no partial report

    def test_validation_error_exit_3(self, tmp_path):
        data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
        data["symbol_class"] = "nonsense"
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(data))
        proc = run_cli("run", str(bad))
        assert proc.returncode == EXIT_VALIDATION

    @pytest.mark.parametrize("symbol_class", ["inner", "theta_star"])
    def test_non_analytic_symbol_exit_3(self, tmp_path, symbol_class, capsys):
        # z^-1 is unitary on the circle, but neither inner nor the adjoint of one
        data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
        data["symbol_class"] = symbol_class
        data["symbol"] = LaurentMatrixSymbol.shift(data["m"], -1).to_json()
        path = tmp_path / "z_inverse.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == EXIT_VALIDATION
        assert "needs an analytic symbol" in capsys.readouterr().err

    def test_headroom_validation(self, tmp_path):
        data = json.loads((SCENARIOS / "inner_monomial_rank_one.json").read_text())
        data["N"] = 5  # bandwidth 2 + headroom 4 > 5
        # shrink payload shapes to match so only the headroom rule fires
        bad = tmp_path / "tight.json"
        bad.write_text(json.dumps(data))
        proc = run_cli("run", str(bad))
        assert proc.returncode == EXIT_VALIDATION

    def test_check_failure_exit_1(self, tmp_path):
        data = json.loads((SCENARIOS / "adjoint_monomial_critical.json").read_text())
        data["expect"]["kernel_dim"] = 99  # impossible expectation
        f = tmp_path / "failing.json"
        f.write_text(json.dumps(data))
        proc = run_cli("run", str(f))
        assert proc.returncode == EXIT_CHECK_FAIL
        assert "FAIL" in proc.stdout

    def test_deterministic_reports(self, tmp_path):
        path = SCENARIOS / "zero_symbol_defect.json"
        r1, _ = run_scenario(path, out=tmp_path / "a.json")
        r2, _ = run_scenario(path, out=tmp_path / "b.json")
        a = strip_timings(json.loads((tmp_path / "a.json").read_text()))
        b = strip_timings(json.loads((tmp_path / "b.json").read_text()))
        assert a == b


class TestSuite:
    def test_bundled_suite_passes(self, tmp_path):
        suite = run_suite(SCENARIOS, jobs=2, out=tmp_path / "suite.json")
        assert suite.exit_code == EXIT_PASS
        payload = json.loads((tmp_path / "suite.json").read_text())
        assert payload["failed"] == 0
        assert payload["passed"] == len(list(SCENARIOS.glob("*.json")))
        table = suite.table()
        assert "PASS" in table and "FAIL" not in table.replace("PASS", "")

    def test_empty_directory_exit_3(self, tmp_path):
        proc = run_cli("suite", str(tmp_path))
        assert proc.returncode == EXIT_VALIDATION

    def test_one_failing_scenario_aggregates(self, tmp_path):
        src = (SCENARIOS / "adjoint_monomial_critical.json").read_text()
        good = json.loads(src)
        bad = json.loads(src)
        bad["expect"]["kernel_dim"] = 99
        bad["name"] = "broken_expectation"
        (tmp_path / "a_good.json").write_text(json.dumps(good))
        (tmp_path / "b_bad.json").write_text(json.dumps(bad))
        suite = run_suite(tmp_path)
        assert suite.exit_code == EXIT_CHECK_FAIL
        assert sum(r.ok for r in suite.reports) == 1

    def test_seed_flag_reaches_scenarios(self, tmp_path, monkeypatch):
        from tklab import cli_reports
        names = ("complement_split_column.json", "zero_symbol_defect.json")
        for name in names:
            (tmp_path / name).write_text((SCENARIOS / name).read_text())
        seen = []
        real = cli_reports.run_scenario_object

        def spy(sc, base_tol):
            seen.append(sc.seed)
            return real(sc, base_tol)

        monkeypatch.setattr(cli_reports, "run_scenario_object", spy)
        assert main(["--seed", "7", "suite", str(tmp_path)]) == EXIT_PASS
        assert seen == [7, 7]
        seen.clear()
        assert main(["suite", str(tmp_path)]) == EXIT_PASS
        assert seen == [load_scenario(tmp_path / n).seed for n in sorted(names)]

    def test_bad_tolerance_fails_its_file_only(self, tmp_path):
        good = (SCENARIOS / "zero_symbol_defect.json").read_text()
        bad = json.loads(good)
        bad["name"] = "misspelled_tolerance"
        bad["tolerances"] = {"containmnet": 1e-6}
        (tmp_path / "a_bad.json").write_text(json.dumps(bad))
        (tmp_path / "b_good.json").write_text(good)
        proc = run_cli("suite", str(tmp_path))
        assert proc.returncode == EXIT_PARSE, proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.split()[:2] == ["zero_symbol_defect", "PASS"] for line in lines)
        assert any(line.startswith("a_bad") and "ERROR" in line and "containmnet" in line
                   for line in lines)

    def test_parse_error_dominates(self, tmp_path):
        (tmp_path / "a.json").write_text("{ nope")
        (tmp_path / "b.json").write_text(
            (SCENARIOS / "zero_symbol_defect.json").read_text())
        suite = run_suite(tmp_path)
        assert suite.exit_code == EXIT_PARSE


class TestSweep:
    def test_rank_sweep_zero_symbol(self):
        sc = load_scenario(SCENARIOS / "zero_symbol_defect.json")
        csv_text = sweep(sc, "n", [0, 1, 2])
        lines = csv_text.strip().splitlines()
        assert lines[0].split(",")[:3] == ["n", "kernel_dim", "defect_dim"]
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        for r in rows:
            assert int(r[2]) <= int(r[0])

    def test_truncation_sweep_monomial_inner(self):
        sc = load_scenario(SCENARIOS / "inner_monomial_sweep.json")
        csv_text = sweep(sc, "N", [8, 16, 32, 64])
        rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
        residuals = [max(float(r[3]), 1e-14) for r in rows]
        assert all(b <= a * (1 + 1e-6) + 1e-13 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < 1e-10

    def test_power_sweep(self):
        sc = load_scenario(SCENARIOS / "inner_monomial_sweep.json")
        csv_text = sweep(sc, "p", [1, 2, 3])
        assert len(csv_text.strip().splitlines()) == 4

    def test_model_dimension_tracks_power_sweep(self):
        # unperturbed adjoint scenario: kernel dim must equal m * s
        sc = load_scenario(SCENARIOS / "adjoint_monomial_sweep.json")
        csv_text = sweep(sc, "p", [1, 2, 3])
        rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
        for r in rows:
            assert int(r[1]) == sc.m * int(r[0])
            assert int(r[2]) == 0  # the model space is exactly invariant

    def test_inapplicable_parameter(self):
        sc = load_scenario(SCENARIOS / "zero_symbol_defect.json")
        with pytest.raises(ScenarioValidationError):
            sweep(sc, "p", [1, 2])

    def test_unknown_parameter(self):
        sc = load_scenario(SCENARIOS / "zero_symbol_defect.json")
        for param in ("q", "s"):
            with pytest.raises(ScenarioValidationError, match="unknown sweep parameter"):
                sweep(sc, param, [1])

    def test_negative_power_is_refused(self, capsys):
        path = SCENARIOS / "inner_monomial_sweep.json"
        assert main(["sweep", str(path), "--param", "p", "--values=-2"]) == EXIT_VALIDATION
        assert "needs an analytic symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["-1,1", "3"])
    def test_rank_outside_the_family_is_refused(self, values, capsys):
        # a negative n would slice the family from its end
        path = SCENARIOS / "zero_symbol_defect.json"
        assert main(["sweep", str(path), "--param", "n", f"--values={values}"]) \
            == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "n must lie in 0..2" in captured.err

    @pytest.mark.parametrize("values", ["abc", "1,2.5", "1;2"])
    def test_malformed_values_exit_2(self, values, capsys):
        path = SCENARIOS / "zero_symbol_defect.json"
        assert main(["sweep", str(path), "--param", "n", "--values", values]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error: bad --values")

    def test_cli_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", str(SCENARIOS / "inner_monomial_sweep.json"),
                       "--param", "N", "--values", "8,16,32", "--out", str(out))
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert out.read_text().startswith("N,kernel_dim,defect_dim")


class TestFactor:
    def test_factor_command(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(
            {"coeffs": [[0.0, 0.0], [-0.5, 0.0], [1.0, 0.0]]}))  # z(z - 1/2)
        proc = run_cli("factor", str(poly))
        assert proc.returncode == EXIT_PASS
        payload = json.loads(proc.stdout)
        assert payload["inner"]["zero_power"] == 1
        assert len(payload["inner"]["disk_zeros"]) == 1
        assert payload["reconstruction_residual"] < 1e-10

    def test_factor_circle_root_is_validation_error(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps(
            {"coeffs": [[-1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                        [1.0, 0.0]]}))  # z^4 - 1
        proc = run_cli("factor", str(poly))
        assert proc.returncode == EXIT_VALIDATION

    def test_factor_parse_error(self, tmp_path):
        poly = tmp_path / "poly.json"
        poly.write_text("nope")
        proc = run_cli("factor", str(poly))
        assert proc.returncode == EXIT_PARSE


class TestApiErrors:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.parametrize("tolerances,key", [
        ({"containmnet": 1e-6}, "containmnet"),
        ({"circle_margin": 1e-6}, "circle_margin"),
        ({"containment": "tight"}, "containment"),
        ({"containment": True}, "containment"),
        ({"rank_rel": None}, "rank_rel"),
        ([1e-6], "tolerances"),
        # invertibility is certified from the inverse series, with no knob
        ({"invertibility_margin": 1e-6}, "unknown tolerance 'invertibility_margin'"),
    ])
    def test_bad_tolerances_rejected(self, tolerances, key):
        data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
        data["tolerances"] = tolerances
        with pytest.raises(ScenarioParseError, match=key):
            parse_scenario(data)

    def test_known_tolerances_parsed(self):
        data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
        data["tolerances"] = {"containment": 1e-5, "rank_rel": 1e-9}
        sc = parse_scenario(data)
        tol = sc.tolerances(Tolerances())
        assert (tol.containment, tol.rank_rel) == (1e-5, 1e-9)

    def test_tolerance_flags(self):
        proc = run_cli("--tol-contain", "1e-5", "run",
                       str(SCENARIOS / "zero_symbol_defect.json"))
        assert proc.returncode == EXIT_PASS

    @pytest.mark.parametrize("rank_rel", [0.999, 1.0])
    def test_ambiguous_model_space_cut_is_a_verdict(self, tmp_path, rank_rel):
        # the Theta* model space at a cut its certificate cannot settle (0.999)
        # or that declares every direction null (1.0): a failed check, not a
        # crash
        data = json.loads((SCENARIOS / "adjoint_mixed_defect.json").read_text())
        data["tolerances"] = {"rank_rel": rank_rel}
        path = tmp_path / "adjoint_mixed_defect.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode in (EXIT_PASS, EXIT_CHECK_FAIL), proc.stderr
        assert proc.stderr == ""
        defect = json.loads(out.read_text())["checks"][0]
        assert defect["name"] == "defect_theorem" and defect["status"] == "fail"
        assert defect["residuals"]["sigma_conclusive"] is False

    @pytest.mark.parametrize("name", ["inner_monomial_rank_one", "adjoint_monomial_critical"])
    def test_inconclusive_rank_one_model_space_is_a_verdict(self, tmp_path, name):
        # rank_rel 1.0 reaches the model space the rank_one check reads; a cut
        # that keeps nothing fails the check, it is not bad input
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        data["tolerances"] = {"rank_rel": 1.0}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == EXIT_CHECK_FAIL, proc.stderr
        assert proc.stderr == ""
        [rank_one] = [c for c in json.loads(out.read_text())["checks"]
                      if c["name"] == "rank_one"]
        assert rank_one["status"] == "fail"
        assert rank_one["residuals"]["sigma_conclusive"] is False
        assert "model-space rank cut" in rank_one["residuals"]["inconclusive"]

    @pytest.mark.parametrize("name", ["zero_symbol_defect", "inner_mixed_monomials_defect"])
    def test_uncertifiable_representation_is_a_verdict(self, tmp_path, name):
        # at a 0.999 cut the frame cannot reconstruct the kernel: a failed
        # check, not bad input
        data = json.loads((SCENARIOS / f"{name}.json").read_text())
        data["tolerances"] = {"rank_rel": 0.999}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == EXIT_CHECK_FAIL, proc.stderr
        assert proc.stderr == ""
        [rep] = [c for c in json.loads(out.read_text())["checks"]
                 if c["name"] == "representation"]
        assert rep["status"] == "fail" and rep["residuals"]["certified"] is False
        assert "cannot reconstruct" in rep["residuals"]["uncertified"]
        assert {"r", "p", "vanishing_case"} <= set(rep["residuals"])

    def test_range_membership_reaches_the_rank_one_split(self, tmp_path):
        # G's model mass is 1.73 of |G| = 2: at 1.0 G counts as in the
        # shifted range, the analysis's frame misses the measured defect, and
        # the rank_one check fails where it passed at the default cut
        data = json.loads((SCENARIOS / "adjoint_monomial_critical.json").read_text())
        data["tolerances"] = {"range_membership": 1.0}
        path = tmp_path / "adjoint_monomial_critical.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == EXIT_CHECK_FAIL, proc.stderr
        assert proc.stderr == ""
        [rank_one] = json.loads(out.read_text())["checks"]
        residuals = rank_one["residuals"]
        assert rank_one["status"] == "fail" and residuals["certified"] is False
        assert "misses measured defect" in residuals["uncertified"]

    def test_uncertifiable_rank_one_frame_is_a_verdict(self, tmp_path):
        # with the sigma flag raised past the 0.5 cut's ratio, the analysis
        # reads a 10-dimensional kernel that its frame cannot reconstruct:
        # a failed check, not bad input
        data = json.loads((SCENARIOS / "factored_symbol_rank_one.json").read_text())
        data["tolerances"] = {"rank_rel": 0.5, "sigma_ratio_flag": 1e300}
        path = tmp_path / "factored_symbol_rank_one.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == EXIT_CHECK_FAIL, proc.stderr
        assert proc.stderr == ""
        [rank_one] = json.loads(out.read_text())["checks"]
        residuals = rank_one["residuals"]
        assert rank_one["status"] == "fail" and residuals["certified"] is False
        assert "cannot reconstruct" in residuals["uncertified"]
        assert residuals["kernel_dim"] == 10 and residuals["sigma_conclusive"] is True

    def test_tol_rank_reaches_the_kernel(self, tmp_path):
        # a cut at 0.9 |A| swallows unit singular values of the isometry, and
        # it is one the structured inner path cannot certify: the dense SVD
        # decides, and the kernel it reports is the dense one
        rng = np.random.default_rng(7)
        m, N = 2, 16
        theta = LaurentMatrixSymbol.shift(m, 2)
        G = rand_orthonormal(rng, m, N, 5, 1)
        H = rand_orthonormal(rng, m, N, 5, 1)
        path = tmp_path / "inner_random.json"
        path.write_text(json.dumps({
            "name": "inner_random", "m": m, "N": N, "symbol_class": "inner",
            "symbol": theta.to_json(), "checks": ["defect_theorem"],
            "perturbation": {"G": [g.to_json() for g in G],
                             "H": [h.to_json() for h in H]}}))

        def kernel_dim(*flags):
            out = tmp_path / "report.json"
            main([*flags, "run", str(path), "--out", str(out)])
            return json.loads(out.read_text())["checks"][0]["residuals"]["subspace_dim"]

        action = build_perturbed(theta, N, G, H).action_matrix()
        dense = nullspace(action, (m, N), tol_rel=0.9)
        assert kernel_dim() == nullspace(action, (m, N)).dim
        assert kernel_dim("--tol-rank", "0.9") == dense.dim > 1


def _bad_depths():
    """Every JSON value that is not an integer of at least 1."""
    return st.one_of(
        st.integers(max_value=0), st.booleans(), st.text(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.lists(st.integers(min_value=1), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


class TestDepthField:
    @given(_bad_depths())
    @settings(max_examples=60, deadline=None)
    def test_malformed_depth_is_a_parse_error(self, depth):
        data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
        data["depth"] = depth
        with pytest.raises(ScenarioParseError, match="depth"):
            parse_scenario(data)

    def test_valid_depth_is_kept(self):
        data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
        data["depth"] = 3
        assert parse_scenario(data).depth == 3
        data.pop("depth")
        assert parse_scenario(data).depth is None

    def test_bad_depth_fails_its_file_only(self, tmp_path):
        good = (SCENARIOS / "zero_symbol_defect.json").read_text()
        bad = json.loads(good)
        bad["name"] = "deep"
        bad["depth"] = "deep"
        (tmp_path / "a_bad.json").write_text(json.dumps(bad))
        (tmp_path / "b_good.json").write_text(good)
        proc = run_cli("suite", str(tmp_path))
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.split()[:2] == ["zero_symbol_defect", "PASS"] for line in lines)
        assert any(line.startswith("a_bad") and "ERROR" in line and "depth" in line
                   for line in lines)


def _bad_fields():
    """(field, value) pairs that ``parse_scenario`` must refuse.  A value
    ``"drop F1"`` stands for an object whose symbol F1 is missing."""
    scalars = st.one_of(st.booleans(), st.integers(), st.floats(), st.text())
    not_int = st.one_of(st.booleans(), st.floats(), st.text(), st.none(),
                        st.lists(st.integers(), max_size=2))
    not_object = st.one_of(scalars, st.lists(st.integers(), max_size=2))
    return st.one_of(
        st.tuples(st.sampled_from(["m", "N", "seed"]), not_int),
        st.tuples(st.just("checks"), st.one_of(
            scalars, st.none(), st.dictionaries(st.text(max_size=3), st.text(), max_size=2),
            st.lists(st.one_of(st.integers(), st.none()), min_size=1, max_size=3))),
        st.tuples(st.just("expect"), st.one_of(not_object, st.none())),
        st.tuples(st.just("symbol_class"), st.one_of(
            st.booleans(), st.integers(), st.floats(), st.none(),
            st.lists(st.text(), max_size=2))),
        st.tuples(st.just("symbol"), st.one_of(not_object, st.just({}))),
        st.tuples(st.just("factors"), st.one_of(
            not_object, st.just({}), st.sampled_from(["drop F1", "drop F2"]))),
        st.tuples(st.just("pair"), st.one_of(
            not_object, st.just({}), st.sampled_from(["drop psi", "drop phi"]))))


class TestMalformedFields:
    @given(_bad_fields())
    @settings(max_examples=150, deadline=None)
    def test_malformed_field_is_a_parse_error(self, bad):
        key, value = bad
        data = json.loads((SCENARIOS / "factored_symbol_defect.json").read_text())
        F1, F2 = data["factors"]["F1"], data["factors"]["F2"]
        full = {"factors": {"F1": F1, "F2": F2}, "pair": {"psi": F1, "phi": F2}}
        if key in full and value in [f"drop {name}" for name in full[key]]:
            value = {k: v for k, v in full[key].items() if k != value[5:]}
        data[key] = value
        with pytest.raises(ScenarioParseError, match=key):
            parse_scenario(data)

    def test_missing_integer_field(self):
        data = json.loads((SCENARIOS / "factored_symbol_defect.json").read_text())
        data.pop("N")
        with pytest.raises(ScenarioParseError, match="'N'"):
            parse_scenario(data)
        data = json.loads((SCENARIOS / "factored_symbol_defect.json").read_text())
        data.pop("seed")
        assert parse_scenario(data).seed == 0

    @pytest.mark.parametrize("family", [5, None, "G", {"coeffs": []}])
    def test_perturbation_families_must_be_lists(self, family):
        data = json.loads((SCENARIOS / "factored_symbol_defect.json").read_text())
        data["perturbation"]["G"] = family
        with pytest.raises(ScenarioParseError, match="perturbation"):
            parse_scenario(data)

    @pytest.mark.parametrize("key,value", [
        ("factors", "drop F1"), ("expect", 5), ("checks", "defect_theorem"),
        ("N", 24.7), ("N", 24.0), ("m", True), ("seed", "0")])
    def test_cli_exits_2(self, tmp_path, key, value):
        data = json.loads((SCENARIOS / "factored_symbol_defect.json").read_text())
        if value == "drop F1":
            value = {"F2": data["factors"]["F2"]}
        data[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = run_cli("run", str(path))
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert "Traceback" not in proc.stderr and key in proc.stderr

    def test_bad_file_fails_alone(self, tmp_path):
        good = (SCENARIOS / "factored_symbol_defect.json").read_text()
        bad = json.loads(good)
        bad["name"] = "spelled"
        bad["checks"] = "defect_theorem"
        (tmp_path / "a_bad.json").write_text(json.dumps(bad))
        (tmp_path / "b_good.json").write_text(good)
        proc = run_cli("suite", str(tmp_path))
        assert proc.returncode == EXIT_PARSE, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.split()[:2] == ["factored_symbol_defect", "PASS"] for line in lines)
        assert any(line.startswith("a_bad") and "ERROR" in line and "checks" in line
                   for line in lines)


class TestInternalErrors:
    @pytest.fixture(params=[RuntimeError("boom"),
                            np.linalg.LinAlgError("SVD did not converge")],
                        ids=["RuntimeError", "LinAlgError"])
    def crashing_representation(self, request, monkeypatch):
        from tklab import cli_reports

        def crash(run):
            raise request.param

        monkeypatch.setitem(cli_reports.CHECKS, "representation", crash)
        return type(request.param).__name__

    def test_suite_files_the_crash_and_keeps_the_rest(self, tmp_path, capsys,
                                                      crashing_representation):
        # the first file crashes in its representation check, the second has none
        for name in ("zero_symbol_defect.json", "adjoint_monomial_critical.json"):
            (tmp_path / name).write_text((SCENARIOS / name).read_text())
        suite = run_suite(tmp_path)
        assert suite.exit_code == EXIT_INTERNAL
        assert [r.scenario for r in suite.reports if r.ok] == ["adjoint_monomial_critical"]
        [(_, kind, message)] = suite.errors
        assert kind == "internal" and crashing_representation in message
        assert main(["suite", str(tmp_path)]) == EXIT_INTERNAL
        out = capsys.readouterr().out
        assert any(line.split()[:2] == ["adjoint_monomial_critical", "PASS"]
                   for line in out.splitlines())

    def test_internal_error_outranks_bad_input(self, tmp_path, crashing_representation):
        (tmp_path / "a.json").write_text("{ nope")
        (tmp_path / "b.json").write_text((SCENARIOS / "zero_symbol_defect.json").read_text())
        assert run_suite(tmp_path).exit_code == EXIT_INTERNAL

    def test_run_exits_4_without_traceback(self, capsys, crashing_representation):
        code = main(["run", str(SCENARIOS / "zero_symbol_defect.json")])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {crashing_representation}")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


def _run_with_rank_rel(tmp_path, capsys, path, rank_rel):
    """(exit code, checks of the JSON report) of one CLI run of a bundled
    scenario at the given rank cut; stderr must stay empty."""
    data = json.loads(path.read_text())
    data["tolerances"] = {"rank_rel": rank_rel}
    scenario, out = tmp_path / path.name, tmp_path / f"{path.stem}.report.json"
    scenario.write_text(json.dumps(data))
    code = main(["run", str(scenario), "--out", str(out)])
    assert capsys.readouterr().err == ""
    return code, json.loads(out.read_text())["checks"]


def test_cut_that_keeps_nothing_fails_every_kernel_reading_check(tmp_path, capsys):
    # rank_rel 1.0 declares every direction of each action null: every check
    # that reads a kernel fails, and only brown_halmos, which reads none, passes
    verdicts = []
    for path in sorted(SCENARIOS.glob("*.json")):
        code, checks = _run_with_rank_rel(tmp_path, capsys, path, 1.0)
        reads_kernel = [c["name"] != "brown_halmos" for c in checks]
        assert code == (EXIT_CHECK_FAIL if any(reads_kernel) else EXIT_PASS), path.stem
        for check, kernel in zip(checks, reads_kernel):
            verdicts.append((kernel, check["status"]))
            if check["name"] == "representation":
                assert check["residuals"]["sigma_conclusive"] is False, path.stem
    assert sorted(verdicts) == [(False, "pass")] + [(True, "fail")] * 21


BAD_TOLERANCES = [(f.name, value) for f in fields(Tolerances)
                  for value in (float("nan"), float("inf"), -1.0)] + [("rank_rel", 1.5)]


@pytest.mark.parametrize("key,value", BAD_TOLERANCES)
def test_tolerance_that_decides_nothing_is_a_parse_error(tmp_path, capsys, key, value):
    # NaN decides nothing, a negative bound passes or fails everything, and a
    # relative cut above 1 keeps nothing while its audit can read clean
    data = json.loads((SCENARIOS / "zero_symbol_defect.json").read_text())
    data["tolerances"] = {key: value}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and key in err and len(err.splitlines()) == 1


def _scenario_data(name):
    """A bundled scenario's JSON, or ``tail_inner``: the Theta* scenario
    ``adjoint_mixed_defect`` with Theta = diag(b, z), b a Blaschke factor
    truncated at degree 20, which is inner only to its tail (9.1e-11)."""
    if name != "tail_inner":
        return json.loads((SCENARIOS / f"{name}.json").read_text())
    data = _scenario_data("adjoint_mixed_defect")
    data["symbol"] = LaurentMatrixSymbol.diagonal(
        [blaschke_taylor(0.3, 20), [0.0, 1.0]]).to_json()
    return data


#: every ``Tolerances`` field, with a scenario that passes at the defaults and
#: a value of the field that makes it fail a check (exit 1) or validation
#: (exit 3).  Every bundled Theta is exactly inner, so ``inner`` needs one
#: that is inner only to a series tail
KNOB_VERDICTS = {
    "rank_rel": ("adjoint_monomial_critical", 0.999, EXIT_CHECK_FAIL),
    "ortho": ("factored_symbol_defect", 0.0, EXIT_VALIDATION),
    "inner": ("tail_inner", 1e-12, EXIT_VALIDATION),
    "containment": ("adjoint_monomial_critical", 0.0, EXIT_CHECK_FAIL),
    "containment_strict": ("inner_monomial_rank_one", 0.0, EXIT_CHECK_FAIL),
    "subspace_equality": ("complement_split_column", 0.0, EXIT_CHECK_FAIL),
    "membership": ("adjoint_monomial_noncritical", 0.0, EXIT_CHECK_FAIL),
    "defect_floor": ("inner_monomial_sweep", 1e300, EXIT_CHECK_FAIL),
    "representation": ("factored_symbol_rank_one", 0.0, EXIT_CHECK_FAIL),
    "range_membership": ("adjoint_monomial_critical", 1e300, EXIT_CHECK_FAIL),
    "sigma_ratio_flag": ("adjoint_monomial_noncritical", 0.0, EXIT_CHECK_FAIL),
}


def test_every_tolerance_has_a_verdict_it_flips():
    # a knob that reaches no verdict has no row to put here
    assert set(KNOB_VERDICTS) == {f.name for f in fields(Tolerances)}


@pytest.mark.parametrize("key", list(KNOB_VERDICTS))
def test_tolerance_flips_its_verdict(tmp_path, capsys, key):
    name, value, flipped = KNOB_VERDICTS[key]
    data = _scenario_data(name)
    path = tmp_path / "scenario.json"
    codes = []
    for tolerances in ({}, {key: value}):
        data["tolerances"] = tolerances
        path.write_text(json.dumps(data))
        codes.append(main(["run", str(path)]))
    assert codes == [EXIT_PASS, flipped]


@pytest.mark.parametrize("modulus", [0.94, 0.99])
def test_factor_with_a_zero_in_the_disk_is_refused(tmp_path, capsys, modulus):
    # F2 = diag(1 - z/a, 2 + z^2) is not invertible in H^infinity; the
    # factored kernel solve still finds the dense route's kernel, so only
    # validation keeps the class prediction from being reported
    data = json.loads((SCENARIOS / "factored_symbol_defect.json").read_text())
    a = modulus * np.exp(1j * np.pi / 64)
    data["factors"]["F2"] = LaurentMatrixSymbol.diagonal(
        [[1.0, -1.0 / a], [2.0, 0.0, 1.0]]).to_json()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    for argv in (["run", str(path)], ["sweep", str(path), "--param", "N",
                                      "--values", "32,64,128"]):
        assert main(argv) == EXIT_VALIDATION
        assert "factor F2 is not invertible" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-rank=nan", "--tol-rank=inf", "--tol-rank=-1",
                                  "--tol-rank=1e3", "--tol-contain=nan",
                                  "--tol-contain=inf", "--tol-contain=-1"])
def test_tolerance_flag_that_decides_nothing_is_a_parse_error(capsys, flag):
    assert main([flag, "run", str(SCENARIOS / "zero_symbol_defect.json")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: bad tolerance flag") and "Traceback" not in err


def test_split_column_keeps_its_core_singular_value(tmp_path, capsys):
    # a 0.999 cut still keeps the one singular value of the zero symbol's
    # n x n core, so the kernel is span{G}^perp and the analysis passes
    code, [check] = _run_with_rank_rel(
        tmp_path, capsys, SCENARIOS / "complement_split_column.json", 0.999)
    assert (code, check["status"]) == (EXIT_PASS, "pass")
