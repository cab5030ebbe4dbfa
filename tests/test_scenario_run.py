"""One scenario, one computation: every check reads the same ScenarioRun."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tklab import model_spaces
from tklab.cli_reports import (CHECKS, EXIT_CHECK_FAIL, Scenario, ScenarioRun,
                               bundled_scenario_dir, check_defect_theorem,
                               check_rank_one, check_representation, load_scenario, main,
                               parse_scenario, run_scenario_object)
from tklab.config import Tolerances
from tklab.errors import InconclusiveCutError, ScenarioValidationError
from tklab.model_spaces import build_model_space
from tklab.near_invariance import KernelResult, compute_defect, kernel_of
from tklab.operators import build_perturbed
from tklab.representation import (default_depth, rank_one_complement_analysis,
                                   rank_one_inner_kernel, rank_one_invertible_kernel,
                                   rank_one_theta_star_analysis)
from tklab.subspaces import SigmaGap, Subspace
from tklab.hardy_core import CoeffVec, inner_product
from tklab.symbols import LaurentMatrixSymbol, blaschke_taylor, invert_analytic

from conftest import certified, rand_coeffvec, spy, unit

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


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_check_order_does_not_change_reports(path):
    sc = load_scenario(path)
    forward = run_scenario_object(sc, Tolerances()).to_json()
    backward = run_scenario_object(replace(sc, checks=sc.checks[::-1]),
                                   Tolerances()).to_json()
    backward["checks"].reverse()
    assert _strip_seconds(backward) == _strip_seconds(forward)


@pytest.mark.parametrize("path", [p for p in BUNDLED
                                  if "representation" in load_scenario(p).checks],
                         ids=lambda p: p.stem)
def test_value_split_adds_up_to_the_kernel(path):
    # W (r columns) and the origin slice split the kernel between them
    run = ScenarioRun.validated(load_scenario(path), Tolerances())
    residuals = CHECKS["representation"](run).residuals
    assert residuals["r"] + run.defect.slice_dim == residuals["kernel_dim"]
    assert residuals["kernel_dim"] == run.defect.subspace_dim == run.kernel.subspace.dim


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
    # its audited cut (ratio 0.95) is inconclusive: no analysis reads it
    assert coarse.residuals["sigma_conclusive"] is False
    assert set(coarse.residuals) == {"kernel_dim", "sigma_conclusive", "kernel_sigma_ratio"}


@pytest.mark.parametrize("name", ["inner_monomial_rank_one", "adjoint_monomial_critical"])
def test_rank_one_model_space_cut_that_keeps_nothing_is_inconclusive(name):
    outcome = _rank_one_outcome(name, {"rank_rel": 1.0})
    assert outcome.status == "fail"
    assert outcome.residuals["sigma_conclusive"] is False
    assert "model-space rank cut" in outcome.residuals["inconclusive"]


def test_range_membership_reaches_the_inner_rank_one_analysis():
    # H gains a 1e-4 constant, a model-space part of z^2 I that leaves
    # T_theta* H and so the critical criterion alone: outside the shifted
    # range at the default cut, inside it at 1.0
    data = _rank_one_data({})
    data["perturbation"]["H"][0]["coeffs"][1][0] = [1e-4, 0.0]
    default = run_scenario_object(parse_scenario(data), Tolerances()).outcomes[0]
    data["tolerances"] = {"range_membership": 1.0}
    loose = run_scenario_object(parse_scenario(data), Tolerances()).outcomes[0]
    assert default.residuals["details"]["h_in_shifted_range"] is False
    assert loose.residuals["details"]["h_in_shifted_range"] is True
    assert (default.residuals["case"], loose.residuals["case"]) == (
        "unexpected", "spanned_kernel")


def test_runner_fails_a_check_whose_cut_is_inconclusive(monkeypatch, capsys):
    # the runner, not each check, turns a cut that decides nothing into a
    # failed outcome, and times every check
    def inconclusive(run):
        raise InconclusiveCutError("cut decides nothing")

    monkeypatch.setitem(CHECKS, "representation", inconclusive)
    path = SCENARIOS / "zero_symbol_defect.json"
    report = run_scenario_object(load_scenario(path), Tolerances())
    defect, rep = report.outcomes
    assert defect.status == "pass" and defect.seconds > 0
    assert (rep.name, rep.status) == ("representation", "fail") and rep.seconds > 0
    assert rep.residuals == {"sigma_conclusive": False, "inconclusive": "cut decides nothing"}
    assert main(["run", str(path)]) == EXIT_CHECK_FAIL
    assert capsys.readouterr().err == ""


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
        return rank_one_invertible_kernel(kernel_of(T, factors=certified(*sc.factors)), G, H)
    ms = build_model_space(sc.symbol, sc.N)
    if sc.symbol_class == "inner":
        T = build_perturbed(sc.symbol, sc.N, [G], [H], require_orthonormal=False)
        return rank_one_inner_kernel(kernel_of(T), ms, G, H)
    T = build_perturbed(sc.symbol.adjoint(), sc.N, [G], [H], require_orthonormal=False)
    kr = kernel_of(T)
    return rank_one_theta_star_analysis(kr, compute_defect(kr.subspace), ms, G, H)


RANK_ONE = [p for p in BUNDLED if "rank_one" in load_scenario(p).checks]


@pytest.mark.parametrize("path", RANK_ONE, ids=lambda p: p.stem)
def test_rank_one_check_equals_public_analysis(path):
    # the check reports the analysis and, next to it, its kernel cut's audit
    sc = load_scenario(path)
    outcome = next(o for o in run_scenario_object(sc, Tolerances()).outcomes
                   if o.name == "rank_one")
    assert outcome.status == "pass"
    residuals = dict(outcome.residuals)
    assert residuals.pop("sigma_conclusive") is True
    assert residuals.pop("kernel_sigma_ratio") == \
        ScenarioRun.validated(sc, Tolerances()).kernel.sigma_ratio
    assert residuals == _public_rank_one(sc).to_json()


@pytest.mark.parametrize("name", ["factored_symbol_rank_one", "inner_monomial_rank_one"])
def test_line_kernel_at_a_noncritical_criterion_is_unexpected(rng, name):
    # the critical scenario's solved line, fed a unit G orthogonal to it: the
    # criterion 1 + <L H, G> is 1, which admits only the kernel {0}
    sc = load_scenario(SCENARIOS / f"{name}.json")
    solved = ScenarioRun.validated(sc, Tolerances())
    line = solved.kernel.subspace.basis_vectors()
    assert len(line) == 1
    G = rand_coeffvec(rng, sc.m, sc.N, 6)
    G = unit(G - inner_product(G, line[0]) * line[0])
    run = ScenarioRun(replace(sc, G=[G], expect={}), solved.tol)
    run.__dict__["kernel"] = solved.kernel
    outcome = check_rank_one(run)
    assert outcome.status == "fail" and outcome.residuals["case"] == "unexpected"
    assert abs(complex(*outcome.residuals["criterion"]) - 1.0) < 1e-12
    assert outcome.residuals["kernel_dim"] == 1


@pytest.mark.parametrize("name", ["zero_symbol_defect", "inner_mixed_monomials_defect",
                                  "adjoint_mixed_defect"])
def test_defect_floor_above_the_stack_is_inconclusive(name):
    # the residual stack's singular values are at most 1, so a floor of
    # 1e300 keeps nothing, and its zero side is judged against 1
    sc = replace(load_scenario(SCENARIOS / f"{name}.json"), checks=["defect_theorem"])
    [outcome] = run_scenario_object(sc, Tolerances(defect_floor=1e300)).outcomes
    assert outcome.status == "fail"
    assert outcome.residuals["defect_dim"] == 0
    assert outcome.residuals["sigma_conclusive"] is False


def test_prediction_cut_at_the_floor_is_inconclusive():
    # the prediction off the kernel has singular values 0.996, 0.782 and
    # 0.359; a floor of 0.362 drops the last one at a gap ratio of 0.46, so
    # the containment failure that follows rests on an ambiguous cut
    sc = replace(load_scenario(SCENARIOS / "adjoint_mixed_defect.json"),
                 checks=["defect_theorem"])
    [outcome] = run_scenario_object(sc, Tolerances(defect_floor=0.362)).outcomes
    assert outcome.status == "fail"
    assert outcome.residuals["details"]["prediction_mod_kernel_dim"] == 2
    assert outcome.residuals["sigma_conclusive"] is False
    [clean] = run_scenario_object(sc, Tolerances()).outcomes
    assert clean.status == "pass" and clean.residuals["sigma_conclusive"] is True


@pytest.mark.parametrize("path", RANK_ONE, ids=lambda p: p.stem)
def test_rank_one_audits_its_kernel_cut(path):
    default = _rank_one_outcome(path.stem, {})
    assert default.residuals["sigma_conclusive"] is True
    assert default.residuals["kernel_sigma_ratio"] <= 4.8e-12
    # a cut that keeps nothing fails before any analysis reads the kernel;
    # the inner and Theta* checks stop earlier, at their model space's cut
    coarse = _rank_one_outcome(path.stem, {"rank_rel": 1.0})
    assert coarse.status == "fail" and coarse.residuals["sigma_conclusive"] is False
    sc = load_scenario(path)
    if sc.symbol_class in ("zero", "invertible_factors"):
        assert set(coarse.residuals) == {"kernel_dim", "sigma_conclusive",
                                         "kernel_sigma_ratio"}
        assert coarse.residuals["kernel_dim"] == sc.m * sc.N
        assert coarse.residuals["kernel_sigma_ratio"] > Tolerances().sigma_ratio_flag


def test_critical_criterion_on_an_empty_kernel_fails():
    # F2 = 1.05 + z: its inverse series decays like 1.05^-k, so at N = 40 the
    # truncated candidate makes the criterion critical while the solved
    # kernel is empty; the one-dimensional analysis reads an empty basis
    m, N = 1, 40
    F1, F2 = LaurentMatrixSymbol.identity(m), LaurentMatrixSymbol.diagonal([[1.05, 1.0]])
    h = CoeffVec.monomial(m, N, 0, 1) + CoeffVec.monomial(m, N, 0, 2)
    Vc = invert_analytic(F2, N - 1).act(h).analytic_part().resized(N)
    scale = 1.0 / Vc.norm()
    sc = Scenario(name="slow_inverse_rank_one", m=m, N=N,
                  symbol_class="invertible_factors", checks=["rank_one"], seed=0,
                  G=[-scale * Vc], H=[scale * h], factors=(F1, F2),
                  expect={"case": "spanned_kernel", "kernel_dim": 1})
    [outcome] = run_scenario_object(sc, Tolerances()).outcomes
    assert outcome.status == "fail"
    assert (outcome.residuals["case"], outcome.residuals["kernel_dim"]) == \
        ("spanned_kernel", 0)


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


UNANALYZED = {"kernel_dim", "sigma_conclusive", "kernel_sigma_ratio"}


@pytest.mark.parametrize("name", ["adjoint_monomial_critical",
                                  "adjoint_monomial_noncritical",
                                  "adjoint_range_member_critical"])
def test_theta_star_rank_one_audits_its_defect_cut(monkeypatch, name):
    # the Theta* analysis reads the measured defect, and a floor of 1e300
    # keeps none of it: the cut is inconclusive and nothing is analyzed
    analyses = spy(monkeypatch, "rank_one_theta_star_analysis")
    outcome = _rank_one_outcome(name, {"defect_floor": 1e300})
    assert outcome.status == "fail" and outcome.residuals["sigma_conclusive"] is False
    assert set(outcome.residuals) == UNANALYZED
    assert outcome.residuals["kernel_sigma_ratio"] <= Tolerances().sigma_ratio_flag
    assert analyses == []


@pytest.mark.parametrize("name", ["complement_single_column", "factored_symbol_rank_one"])
def test_rank_one_measures_no_defect_it_does_not_read(monkeypatch, name):
    defects = spy(monkeypatch, "compute_defect")
    assert _rank_one_outcome(name, {"defect_floor": 1e300}).status == "pass"
    assert defects == []


def _ambiguous_value_run():
    """A run whose kernel is an m = 3, K = 4 subspace with values of
    singular values 1, 5e-10 and 3e-10: the value cut at 4e-10 splits the
    last two, while the kernel and defect cuts are clean."""
    m, N = 3, 4
    Q = np.zeros((m * N, 4), complex)
    Q[0, 0] = Q[2 * m, 3] = 1.0
    for col, (comp, value) in enumerate([(1, 5e-10), (2, 3e-10)], start=1):
        Q[comp, col], Q[m + comp, col] = value, np.sqrt(1.0 - value ** 2)
    sc = Scenario(name="ambiguous_values", m=m, N=N, symbol_class="zero", checks=[],
                  seed=0, G=[], H=[])
    run = ScenarioRun(sc, Tolerances())
    run.__dict__["kernel"] = KernelResult(
        subspace=Subspace(m, N, Q, 1e-12, SigmaGap(None, None)), residual_max=0.0,
        audit_violations=0, method="zero")
    return run


def test_ambiguous_value_cut_is_inconclusive():
    run = _ambiguous_value_run()
    outcome = check_representation(run)
    assert outcome.residuals["sigma_conclusive"] is False
    assert outcome.status == "fail"
    # the frame certifies: only the value cut's audit fails the check
    assert outcome.residuals["reconstruction_residual_max"] <= Tolerances().representation
    assert run.defect.sigma_gap.to_pair() == [None, 1.0]
    cut = run.defect.value_cut
    assert cut.gap.to_pair() == run.defect.details["slice_sigma_gap"] == [3e-10, 5e-10]
    assert cut.threshold == pytest.approx(4e-10)


def _ambiguous_model_space(run):
    """The run's model space with its cut's gap made ambiguous (ratio 0.5)."""
    ms = run.model_space
    space = ms.as_subspace
    return replace(ms, as_subspace=Subspace(space.m, space.N, space.basis, space.tol,
                                            SigmaGap(1e-9, 2e-9)))


@pytest.mark.parametrize("name, check", [
    ("inner_monomial_rank_one", check_rank_one),
    ("adjoint_monomial_critical", check_rank_one),
    ("adjoint_mixed_defect", check_defect_theorem),
])
def test_ambiguous_model_space_cut_is_inconclusive(monkeypatch, name, check):
    run = ScenarioRun.validated(load_scenario(SCENARIOS / f"{name}.json"), Tolerances())
    assert check(run).status == "pass"
    run = ScenarioRun.validated(run.sc, Tolerances())
    run.__dict__["model_space"] = _ambiguous_model_space(run)
    analyses = spy(monkeypatch, "_rank_one_analysis")
    outcome = check(run)
    assert outcome.status == "fail" and outcome.residuals["sigma_conclusive"] is False
    if check is check_rank_one:
        assert set(outcome.residuals) == UNANALYZED and analyses == []
