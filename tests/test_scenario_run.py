"""One scenario, one computation: every check reads the same ScenarioRun."""

import json
from dataclasses import replace

import pytest

from tklab import model_spaces
from tklab.cli_reports import (bundled_scenario_dir, load_scenario, parse_scenario,
                               run_scenario_object)
from tklab.config import Tolerances
from tklab.errors import ScenarioValidationError
from tklab.model_spaces import build_model_space
from tklab.near_invariance import (compute_defect, kernel_of,
                                   verify_theorem_inner_symbol,
                                   verify_theorem_invertible_factors,
                                   verify_theorem_phi_zero,
                                   verify_theorem_theta_star)
from tklab.operators import build_perturbed
from tklab.representation import (default_depth, rank_one_complement_analysis,
                                   rank_one_inner_kernel, rank_one_invertible_kernel,
                                   rank_one_theta_star_analysis)
from tklab.subspaces import Subspace
from tklab.symbols import LaurentMatrixSymbol, blaschke_taylor

from conftest import spy

SCENARIOS = bundled_scenario_dir()
BUNDLED = sorted(SCENARIOS.glob("*.json"))
def _strip_seconds(payload):
    if isinstance(payload, dict):
        return {k: _strip_seconds(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [_strip_seconds(v) for v in payload]
    return payload


@pytest.mark.parametrize("name, model_spaces_built", [
    ("zero_symbol_defect", 0),
    ("inner_mixed_monomials_defect", 0),
    ("adjoint_mixed_defect", 1),
])
def test_shared_work_runs_once(monkeypatch, name, model_spaces_built):
    sc = load_scenario(SCENARIOS / f"{name}.json")
    assert sc.checks == ["defect_theorem", "representation"]
    spies = {fn: spy(monkeypatch, fn)
             for fn in ("build_perturbed", "kernel_of", "compute_defect",
                        "build_model_space")}
    report = run_scenario_object(sc, Tolerances())
    assert report.ok
    assert {fn: len(calls) for fn, calls in spies.items()} == {
        "build_perturbed": 1, "kernel_of": 1, "compute_defect": 1,
        "build_model_space": model_spaces_built}


def _public_verification(sc, tol):
    common = dict(defect_floor=tol.defect_floor, tol_rel=tol.rank_rel,
                  tol_ortho=tol.ortho)
    if sc.symbol_class == "zero":
        return verify_theorem_phi_zero(sc.G, sc.H, sc.N, m=sc.m, **common)
    if sc.symbol_class == "inner":
        return verify_theorem_inner_symbol(sc.symbol, sc.G, sc.H, sc.N,
                                           tol_inner=tol.inner, **common)
    if sc.symbol_class == "invertible_factors":
        return verify_theorem_invertible_factors(*sc.factors, sc.G, sc.H, sc.N,
                                                 margin=tol.invertibility_margin,
                                                 **common)
    return verify_theorem_theta_star(sc.symbol, sc.G, sc.H, sc.N, tol_inner=tol.inner,
                                     range_membership=tol.range_membership, **common)


DEFECT_SCENARIOS = [p for p in BUNDLED if "defect_theorem" in load_scenario(p).checks]


@pytest.mark.parametrize("path", DEFECT_SCENARIOS, ids=lambda p: p.stem)
def test_defect_check_equals_public_verification(path):
    sc = load_scenario(path)
    tol = sc.tolerances(Tolerances())
    outcome = next(o for o in run_scenario_object(sc, Tolerances()).outcomes
                   if o.name == "defect_theorem")
    oracle = _public_verification(sc, tol).to_json()
    residuals = dict(outcome.residuals)
    residuals.pop("sigma_conclusive")
    assert residuals == oracle


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_check_order_does_not_change_reports(path):
    sc = load_scenario(path)
    forward = run_scenario_object(sc, Tolerances()).to_json()
    backward = run_scenario_object(replace(sc, checks=sc.checks[::-1]),
                                   Tolerances()).to_json()
    backward["checks"].reverse()
    assert _strip_seconds(backward) == _strip_seconds(forward)


def test_representation_only_theta_star_builds_no_model_space(monkeypatch):
    sc = replace(load_scenario(SCENARIOS / "adjoint_mixed_defect.json"),
                 checks=["representation"])
    certificates = spy(monkeypatch, "is_inner")
    built = spy(monkeypatch, "build_model_space")
    cross_checks = spy(monkeypatch, "_cross_check_projections")
    report = run_scenario_object(sc, Tolerances())
    assert report.ok and report.outcomes[0].status == "pass"
    assert built == [] and cross_checks == []
    assert len(certificates) == 1  # the validation's innerness certificate


def test_rank_rel_override_reaches_the_model_space_cut(monkeypatch, tmp_path):
    data = json.loads((SCENARIOS / "adjoint_mixed_defect.json").read_text())
    data["checks"] = ["defect_theorem"]
    data["tolerances"] = {"rank_rel": 3e-9}
    path = tmp_path / "override.json"
    path.write_text(json.dumps(data))
    cuts = []
    real = model_spaces.nullspace_within

    def spy(*args, **kwargs):
        cuts.append(kwargs["tol_rel"])
        return real(*args, **kwargs)

    monkeypatch.setattr(model_spaces, "nullspace_within", spy)
    report = run_scenario_object(load_scenario(path), Tolerances())
    assert report.outcomes[0].name == "defect_theorem"
    assert cuts == [3e-9]


def _defect_outcome(tmp_path, name, overrides):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    data["checks"] = ["defect_theorem"]
    data["tolerances"] = overrides
    path = tmp_path / "override.json"
    path.write_text(json.dumps(data))
    return run_scenario_object(load_scenario(path), Tolerances()).outcomes[0]


@pytest.mark.parametrize("name", ["zero_symbol_defect", "inner_mixed_monomials_defect"])
def test_cut_that_keeps_nothing_is_inconclusive(tmp_path, name):
    # rank_rel 1.0 cuts at the largest singular value: nothing is kept and a
    # positive singular value is called zero, a cut that settles nothing
    outcome = _defect_outcome(tmp_path, name, {"rank_rel": 1.0})
    assert outcome.residuals["subspace_dim"] == 64
    assert outcome.residuals["details"]["kernel_sigma_ratio"] >= 1.0
    assert outcome.residuals["sigma_conclusive"] is False
    assert outcome.status == "fail"


def test_ambiguous_defect_cut_is_inconclusive(tmp_path):
    # the kernel cut stays clean; the defect span's cut at 0.999 of its top
    # singular value falls between two of comparable size
    outcome = _defect_outcome(tmp_path, "zero_symbol_defect", {"rank_rel": 0.999})
    assert outcome.residuals["details"]["kernel_sigma_ratio"] < 1e-3
    zero, signal = outcome.residuals["sigma_gap"]
    assert zero / signal > 1e-3
    assert outcome.residuals["sigma_conclusive"] is False
    assert outcome.status == "fail"


def _rank_one_data(overrides):
    data = json.loads((SCENARIOS / "inner_monomial_rank_one.json").read_text())
    data["checks"] = ["rank_one"]
    data["tolerances"] = overrides
    return data


@pytest.mark.parametrize("overrides", [{}, {"inner": 0.5}], ids=["default", "loose_inner"])
def test_inner_override_leaves_the_rank_one_guards(overrides):
    data = _rank_one_data(overrides)
    g = data["perturbation"]["G"][0]
    g["coeffs"] = [[[1.3 * re, 1.3 * im] for re, im in row] for row in g["coeffs"]]
    with pytest.raises(ValueError, match="generator must have unit norm"):
        run_scenario_object(parse_scenario(data), Tolerances())


def test_inner_override_changes_the_innerness_verdict():
    # a truncated Blaschke entry: inner to 9.1e-11
    theta = LaurentMatrixSymbol.diagonal([blaschke_taylor(0.3, 20), [0.0, 1.0]])
    data = _rank_one_data({})
    data["symbol"], data["checks"] = theta.to_json(), []
    assert run_scenario_object(parse_scenario(data), Tolerances()).ok
    data["tolerances"] = {"inner": 1e-12}
    with pytest.raises(ScenarioValidationError, match="fails the inner test"):
        run_scenario_object(parse_scenario(data), Tolerances())


def test_rank_one_shares_the_scenario_kernel(monkeypatch):
    sc = load_scenario(SCENARIOS / "inner_monomial_rank_one.json")
    assert sc.checks == ["defect_theorem", "rank_one", "representation"]
    spies = {fn: spy(monkeypatch, fn)
             for fn in ("build_perturbed", "kernel_of", "build_model_space")}
    assert run_scenario_object(sc, Tolerances()).ok
    assert {fn: len(calls) for fn, calls in spies.items()} == {
        "build_perturbed": 1, "kernel_of": 1, "build_model_space": 1}


def _rank_one_outcome(name, overrides):
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    data["checks"], data["tolerances"] = ["rank_one"], overrides
    return run_scenario_object(parse_scenario(data), Tolerances()).outcomes[0]


def test_rank_rel_override_reaches_the_rank_one_kernel():
    # a cut at half the largest singular value keeps a 10-dimensional kernel
    # where the default keeps the expected line
    default = _rank_one_outcome("factored_symbol_rank_one", {})
    assert (default.status, default.residuals["kernel_dim"]) == ("pass", 1)
    coarse = _rank_one_outcome("factored_symbol_rank_one", {"rank_rel": 0.5})
    assert (coarse.status, coarse.residuals["kernel_dim"]) == ("fail", 10)


@pytest.mark.parametrize("name", ["inner_monomial_rank_one", "adjoint_monomial_critical"])
def test_rank_one_model_space_cut_that_keeps_nothing_is_inconclusive(name):
    outcome = _rank_one_outcome(name, {"rank_rel": 1.0})
    assert outcome.status == "fail"
    assert outcome.residuals["sigma_conclusive"] is False
    assert "model-space rank cut" in outcome.residuals["inconclusive"]


def _public_rank_one(sc):
    """The public analysis on a kernel and model space built afresh."""
    (G,), (H,) = sc.G, sc.H
    if sc.symbol_class == "zero":
        T = build_perturbed(LaurentMatrixSymbol.zero(sc.m), sc.N, [G], [H],
                            require_orthonormal=False)
        return rank_one_complement_analysis(kernel_of(T).subspace, G,
                                            depth=default_depth(sc.N), seed=sc.seed)
    if sc.symbol_class == "invertible_factors":
        F1, F2 = sc.factors
        T = build_perturbed(F1.adjoint().multiply(F2), sc.N, [G], [H],
                            require_orthonormal=False)
        return rank_one_invertible_kernel(kernel_of(T, factors=sc.factors), G, H)
    ms = build_model_space(sc.symbol, sc.N)
    if sc.symbol_class == "inner":
        T = build_perturbed(sc.symbol, sc.N, [G], [H], require_orthonormal=False)
        return rank_one_inner_kernel(kernel_of(T), ms, G, H)
    T = build_perturbed(sc.symbol.adjoint(), sc.N, [G], [H], require_orthonormal=False)
    kr = kernel_of(T)
    return rank_one_theta_star_analysis(kr, compute_defect(kr.subspace), ms, G, H,
                                        tol_equality=Tolerances().containment)


RANK_ONE = [p for p in BUNDLED if "rank_one" in load_scenario(p).checks]


@pytest.mark.parametrize("path", RANK_ONE, ids=lambda p: p.stem)
def test_rank_one_check_equals_public_analysis(path):
    sc = load_scenario(path)
    outcome = next(o for o in run_scenario_object(sc, Tolerances()).outcomes
                   if o.name == "rank_one")
    assert outcome.status == "pass"
    assert outcome.residuals == _public_rank_one(sc).to_json()


@pytest.mark.parametrize("path", [p for p in RANK_ONE
                                  if load_scenario(p).symbol_class == "zero"],
                         ids=lambda p: p.stem)
def test_zero_rank_one_reads_the_solved_kernel(monkeypatch, path):
    # the complement analysis's M is the run's kernel, not span{G}^perp again
    perps = []
    real_perp = Subspace.perp

    def perp(self):
        perps.append(self)
        return real_perp(self)

    monkeypatch.setattr(Subspace, "perp", perp)
    kernels = spy(monkeypatch, "kernel_of")
    assert run_scenario_object(load_scenario(path), Tolerances()).ok
    assert (len(perps), len(kernels)) == (0, 1)


def test_theta_star_rank_one_reads_the_measured_defect(monkeypatch):
    # the rank_one and representation checks share one defect measurement
    data = json.loads((SCENARIOS / "adjoint_monomial_critical.json").read_text())
    data["checks"] = ["rank_one", "representation"]
    defects = spy(monkeypatch, "compute_defect")
    report = run_scenario_object(parse_scenario(data), Tolerances())
    assert [o.status for o in report.outcomes] == ["pass", "pass"]
    assert len(defects) == 1
