"""Scenario-driven command-line front end.

A scenario file declares an ambient size, a symbol class with its payload,
a rank-n perturbation, and a list of checks.  The runner dispatches each
check, collects residuals and sigma gaps, and emits a machine-readable JSON
report plus a human-readable summary.  Each scenario gets one
``ScenarioRun``: its operator, kernel, measured defect and model space are
computed at most once and shared by every check.
Exit codes are a stable contract: 0 pass, 1 check failure, 2 parse error,
3 validation error, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import BROWN_HALMOS_DEVIATION, REPRESENTATION_FLOOR, Tolerances
from .errors import (FrameDeficientError, InconclusiveCutError, ScenarioParseError,
                     ScenarioValidationError, TKLabError)
from .hardy_core import CoeffVec
from .model_spaces import ModelSpace, build_model_space
from .near_invariance import (DefectReport, KernelResult, _factored_prediction,
                              _inner_prediction, _kernel_defect,
                              _theta_star_prediction, _zero_prediction,
                              kernel_of)
from .operators import PerturbedToeplitz, brown_halmos_check, build_perturbed
from .representation import (build_frame, certify_representation, default_depth,
                             rank_one_complement_analysis,
                             rank_one_inner_kernel,
                             rank_one_invertible_kernel,
                             rank_one_theta_star_analysis)
from .subspaces import sigma_audit
from .symbols import (InvertibilityCheck, LaurentMatrixSymbol, is_inner,
                      is_invertible_analytic, scalar_inner_outer)

EXIT_PASS = 0
EXIT_CHECK_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4

#: the exit code of each kind of scenario error
ERROR_EXIT = {"parse": EXIT_PARSE, "validation": EXIT_VALIDATION,
              "internal": EXIT_INTERNAL}

SYMBOL_CLASSES = ("zero", "inner", "invertible_factors", "theta_star", "raw")
RANK_ONE_CLASSES = SYMBOL_CLASSES[:4]
HEADROOM = 4


@dataclass
class Scenario:
    name: str
    m: int
    N: int
    symbol_class: str
    checks: list[str]
    seed: int
    G: list[CoeffVec]
    H: list[CoeffVec]
    symbol: LaurentMatrixSymbol | None = None
    factors: tuple[LaurentMatrixSymbol, LaurentMatrixSymbol] | None = None
    pair: tuple[LaurentMatrixSymbol, LaurentMatrixSymbol] | None = None
    expect: dict = field(default_factory=dict)
    tolerance_overrides: dict = field(default_factory=dict)
    depth: int | None = None

    def tolerances(self, base: Tolerances) -> Tolerances:
        if not self.tolerance_overrides:
            return base
        return base.override(**self.tolerance_overrides)

    def total_bandwidth(self) -> int:
        if self.symbol is not None:
            return self.symbol.d
        if self.factors is not None:
            return self.factors[0].d + self.factors[1].d
        if self.pair is not None:
            return self.pair[0].d + self.pair[1].d
        return 0


def _parse_vec(payload, what: str) -> CoeffVec:
    try:
        return CoeffVec.from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad {what}: {exc}") from exc


def _parse_symbol(payload, what: str) -> LaurentMatrixSymbol:
    try:
        return LaurentMatrixSymbol.from_json(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad {what}: {exc}") from exc


def _parse_tolerances(payload) -> dict:
    """Tolerance overrides: known ``Tolerances`` fields with numeric values
    that ``Tolerances`` accepts."""
    if not isinstance(payload, dict):
        raise ScenarioParseError("tolerances must be a JSON object")
    known = {f.name for f in fields(Tolerances)}
    for key, value in payload.items():
        if key not in known:
            raise ScenarioParseError(f"unknown tolerance {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioParseError(f"tolerance {key!r} must be a number, got {value!r}")
    try:
        Tolerances(**payload)
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc
    return dict(payload)


def _parse_depth(value) -> int | None:
    """The invariance-check depth: absent, or an integer of at least 1."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)
                              or value < 1):
        raise ScenarioParseError(f"depth must be an integer >= 1, got {value!r}")
    return value


def _parse_int(data: dict, key: str, default: int | None = None) -> int:
    """An integer field; booleans and floats are errors, never truncated."""
    if key not in data:
        if default is None:
            raise ScenarioParseError(f"missing scenario field {key!r}")
        return default
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{key} must be an integer, got {value!r}")
    return value


def _check_seed(seed: int, what: str) -> int:
    """A seed, which numpy's generators take only when it is >= 0."""
    if seed < 0:
        raise ScenarioParseError(f"{what} must be an integer >= 0, got {seed!r}")
    return seed


def _parse_symbol_pair(data: dict, key: str, names: tuple[str, str],
                       what: str) -> tuple | None:
    """The two symbols of the object ``data[key]``, or None when it is absent."""
    payload = data.get(key)
    if payload is None:
        return None
    if not isinstance(payload, dict) or any(n not in payload for n in names):
        raise ScenarioParseError(f"{key} must be an object with {names[0]} and {names[1]}")
    return tuple(_parse_symbol(payload[n], f"{what} {n}") for n in names)


def parse_scenario(data: dict, name_hint: str = "scenario") -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario payload must be a JSON object")
    if not isinstance(data.get("symbol_class"), str):
        raise ScenarioParseError(
            f"symbol_class must be a string, got {data.get('symbol_class')!r}")
    checks = data.get("checks", [])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ScenarioParseError(f"checks must be a list of strings, got {checks!r}")
    expect = data.get("expect", {})
    if not isinstance(expect, dict):
        raise ScenarioParseError(f"expect must be a JSON object, got {expect!r}")
    pert = data.get("perturbation", {"G": [], "H": []})
    if not isinstance(pert, dict) or not all(isinstance(pert.get(k), list) for k in "GH"):
        raise ScenarioParseError("perturbation must carry G and H arrays")
    G = [_parse_vec(v, "perturbation G") for v in pert["G"]]
    H = [_parse_vec(v, "perturbation H") for v in pert["H"]]
    symbol = _parse_symbol(data["symbol"], "symbol") if data.get("symbol") is not None \
        else None
    name = data.get("name", name_hint)
    if not isinstance(name, str):
        raise ScenarioParseError(f"name must be a string, got {name!r}")
    return Scenario(name=name, m=_parse_int(data, "m"), N=_parse_int(data, "N"),
                    symbol_class=data["symbol_class"], checks=list(checks),
                    seed=_check_seed(_parse_int(data, "seed", 0), "seed"), G=G, H=H,
                    symbol=symbol,
                    factors=_parse_symbol_pair(data, "factors", ("F1", "F2"), "factor"),
                    pair=_parse_symbol_pair(data, "pair", ("psi", "phi"), "pair"),
                    expect=dict(expect),
                    tolerance_overrides=_parse_tolerances(data.get("tolerances", {})),
                    depth=_parse_depth(data.get("depth")))


def validate_scenario(sc: Scenario, tol: Tolerances
                      ) -> tuple[InvertibilityCheck, InvertibilityCheck] | None:
    """Raise ``ScenarioValidationError`` unless the scenario is well formed.

    Returns the factors' invertibility certificates for the factored class,
    which its run applies and bounds; None otherwise.
    """
    if sc.symbol_class not in SYMBOL_CLASSES:
        raise ScenarioValidationError(f"unknown symbol class {sc.symbol_class!r}")
    if sc.m < 1 or sc.N < 2:
        raise ScenarioValidationError(f"degenerate ambient ({sc.m}, {sc.N})")
    if sc.N <= sc.total_bandwidth() + HEADROOM:
        raise ScenarioValidationError(
            f"N={sc.N} leaves no headroom over bandwidth {sc.total_bandwidth()}")
    for fam_name, fam in (("G", sc.G), ("H", sc.H)):
        for v in fam:
            if v.shape != (sc.m, sc.N):
                raise ScenarioValidationError(
                    f"{fam_name} member shape {v.shape} != ({sc.m}, {sc.N})")
    if len(sc.G) != len(sc.H):
        raise ScenarioValidationError("perturbation families differ in length")
    if sc.symbol_class in ("inner", "theta_star"):
        if sc.symbol is None:
            raise ScenarioValidationError(f"class {sc.symbol_class} needs a symbol")
        # is_inner tests the circle only, where z^-1 is unitary too
        if not sc.symbol.is_analytic():
            raise ScenarioValidationError(
                f"class {sc.symbol_class} needs an analytic symbol, "
                f"got power {sc.symbol.powers()[0]}")
        inner = is_inner(sc.symbol, tol=tol.inner)
        if not inner.ok:
            raise ScenarioValidationError(
                f"symbol fails the inner test (deviation {inner.max_deviation:.3e})")
    if sc.symbol_class == "raw" and sc.symbol is None and sc.pair is None:
        raise ScenarioValidationError("raw scenarios need a symbol or a pair")
    if sc.symbol_class == "invertible_factors":
        if sc.factors is None:
            raise ScenarioValidationError("class invertible_factors needs factors")
        return _certified_factors(sc.factors)
    return None


def _certified_factors(factors: tuple[LaurentMatrixSymbol, LaurentMatrixSymbol]
                       ) -> tuple[InvertibilityCheck, InvertibilityCheck]:
    """The invertibility certificates of F1 and F2, or
    ``ScenarioValidationError`` for the first factor refused."""
    checks = []
    for label, F in zip(("F1", "F2"), factors):
        check = is_invertible_analytic(F)
        if not check.ok:
            raise ScenarioValidationError(f"factor {label} is not invertible")
        checks.append(check)
    return tuple(checks)


@dataclass
class ScenarioRun:
    """One validated scenario's shared computation.

    Each field is computed on first use and at most once; it lives as long
    as the scenario's run.  No check mutates a field, so the order of the
    checks cannot change a report.
    """

    sc: Scenario
    tol: Tolerances
    #: the factors' invertibility certificates as validation proved them; an
    #: unvalidated factored run proves them on first use
    certificates: tuple[InvertibilityCheck, InvertibilityCheck] | None = None

    @classmethod
    def validated(cls, sc: Scenario, base_tol: Tolerances) -> "ScenarioRun":
        tol = sc.tolerances(base_tol)
        return cls(sc, tol, validate_scenario(sc, tol))

    @cached_property
    def symbol(self) -> tuple[LaurentMatrixSymbol, tuple | None]:
        """(Phi, factors) of T = T_Phi + sum <., G_i> H_i for the symbol
        class; factors, the certificates of F1 and F2 for the factored class
        only, select its kernel solve."""
        sc = self.sc
        if sc.symbol_class == "zero":
            return LaurentMatrixSymbol.zero(sc.m), None
        if sc.symbol_class == "theta_star":
            return sc.symbol.adjoint(), None
        if sc.symbol_class == "invertible_factors":
            return (sc.factors[0].adjoint().multiply(sc.factors[1]),
                    self.certificates or _certified_factors(sc.factors))
        if sc.symbol_class in ("inner", "raw") and sc.symbol is not None:
            return sc.symbol, None
        raise ScenarioValidationError("no operator kernel for this scenario")

    @cached_property
    def operator(self) -> PerturbedToeplitz:
        """The scenario's operator.  The families need not be orthonormal
        here; the defect check demands it."""
        return build_perturbed(self.symbol[0], self.sc.N, self.sc.G, self.sc.H,
                               require_orthonormal=False)

    @cached_property
    def kernel(self) -> KernelResult:
        return kernel_of(self.operator, tol_rel=self.tol.rank_rel, factors=self.symbol[1])

    @cached_property
    def defect(self) -> DefectReport:
        """The kernel's measured defect, without a prediction."""
        return _kernel_defect(self.kernel, self.tol.defect_floor, self.tol.rank_rel)

    @cached_property
    def model_space(self) -> ModelSpace:
        """The model space of the inner symbol Theta, cut at ``rank_rel``:
        the inner and Theta* classes' rank-one checks read it, and so does
        the Theta* defect prediction."""
        return build_model_space(self.sc.symbol, self.sc.N, tol_inner=self.tol.inner,
                                 tol_rel=self.tol.rank_rel)

    @property
    def depth(self) -> int:
        """The invariance-check depth: the scenario's, else ``default_depth``."""
        return self.sc.depth if self.sc.depth is not None else default_depth(self.sc.N)

    def predicted_defect(self) -> DefectReport:
        """A copy of the measured defect with the class prediction attached."""
        sc, tol = self.sc, self.tol
        predict = _PREDICTIONS.get(sc.symbol_class)
        if predict is None:
            raise ScenarioValidationError(
                f"defect_theorem is not defined for class {sc.symbol_class!r}")
        # the Theta* prediction reads the model space, whose build certifies
        # Theta inner: it comes before the operator, so a non-inner Theta
        # fails there first
        extra = ((self.model_space, tol.range_membership)
                 if sc.symbol_class == "theta_star" else ())
        self.operator.check_orthonormal(tol.ortho)
        return predict(self.operator, self.kernel, self.defect, tol.defect_floor, *extra)


_PREDICTIONS = {
    "zero": _zero_prediction,
    "inner": _inner_prediction,
    "invertible_factors": _factored_prediction,
    "theta_star": _theta_star_prediction,
}


@dataclass
class CheckOutcome:
    name: str
    status: str  # pass | fail | skipped
    residuals: dict
    #: wall time of the check, set by ``run_scenario_object``
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status,
                "residuals": self.residuals, "seconds": round(self.seconds, 4)}


@dataclass
class RunReport:
    scenario: str
    outcomes: list[CheckOutcome]
    tolerances: Tolerances

    @property
    def ok(self) -> bool:
        return all(o.status != "fail" for o in self.outcomes)

    def to_json(self) -> dict:
        return {"scenario": self.scenario, "ok": self.ok,
                "checks": [o.to_json() for o in self.outcomes],
                "environment": {"tolerances": self.tolerances.to_json()}}


def _expect_matches(expect: dict, key: str, actual) -> bool:
    return key not in expect or expect[key] == actual


def _sigma_conclusive(run: ScenarioRun, defect: bool, model: bool,
                      prediction: DefectReport | None = None) -> bool:
    """Every rank cut behind the verdict is clean (``subspaces.sigma_audit``):
    the run's kernel cut; with ``defect`` the measured defect's span and its
    value split, whose spectra stay at most 1 (the residual stack
    P_{M^perp} S* and the values of an orthonormal basis); with ``model`` the
    model space's cut; with a ``prediction`` attached to the defect, the
    cuts of its span and of its part off the kernel.  Only the cuts asked
    for are computed."""
    spaces = [run.kernel.subspace] + ([run.model_space.as_subspace] if model else [])
    if prediction is not None:
        spaces += [space for space in (prediction.predicted, prediction.predicted_mod)
                   if space is not None]
    cuts = [(space.sigma_gap, space.tol, False) for space in spaces]
    if defect:
        span, value = run.defect.defect_basis, run.defect.value_cut
        cuts += [(span.sigma_gap, span.tol, True), (value.gap, value.threshold, True)]
    return sigma_audit(cuts, run.tol.sigma_ratio_flag)


def containment_tolerance(sc: Scenario, tol: Tolerances) -> float:
    # series inversion makes the prediction itself truncated; everything else
    # is exact polynomial arithmetic
    return tol.containment if sc.symbol_class == "invertible_factors" \
        else tol.containment_strict


def check_defect_theorem(run: ScenarioRun) -> CheckOutcome:
    sc, tol = run.sc, run.tol
    report = run.predicted_defect()
    ctol = containment_tolerance(sc, tol)
    # the Theta* prediction reads the model space
    conclusive = _sigma_conclusive(run, defect=True, model=sc.symbol_class == "theta_star",
                                   prediction=report)
    ok = (report.bound_ok and report.containment_ok(ctol)
          and report.details["kernel_audit_violations"] == 0 and conclusive)
    ok = ok and _expect_matches(sc.expect, "defect_dim", report.defect_dim)
    ok = ok and _expect_matches(sc.expect, "kernel_dim", report.subspace_dim)
    res = report.to_json()
    res["sigma_conclusive"] = conclusive
    return CheckOutcome("defect_theorem", "pass" if ok else "fail", res)


def check_representation(run: ScenarioRun) -> CheckOutcome:
    tol = run.tol
    kernel = run.kernel.subspace
    residuals: dict = {"kernel_dim": kernel.dim}
    if kernel.dim == 0:
        return CheckOutcome("representation", "skipped", residuals)
    # the frame's W is the defect measurement's value split
    conclusive = _sigma_conclusive(run, defect=True, model=False)
    residuals["sigma_conclusive"] = conclusive
    frame = build_frame(kernel, run.defect)
    residuals.update({"r": frame.r, "p": frame.p,
                      "vanishing_case": frame.vanishing_case,
                      "case": "vanishing" if frame.vanishing_case else "nonvanishing"})
    try:
        cert = certify_representation(frame, run.depth,
                                      max(tol.representation, REPRESENTATION_FLOOR))
    except FrameDeficientError as exc:  # a frame that cannot certify fails the check
        residuals.update({"certified": False, "uncertified": str(exc)})
        return CheckOutcome("representation", "fail", residuals)
    iso, rec, inv = cert.isometry, cert.reconstruction, cert.invariance
    residuals.update({"isometry_residual_max": iso,
                      "reconstruction_residual_max": rec,
                      "invariance_residuals": list(inv.residuals),
                      "depth": run.depth,
                      "certificate": {"squarings": cert.squarings,
                                      "contraction": cert.contraction,
                                      "support": list(cert.support),
                                      "head": cert.head,
                                      "nonzeros": list(cert.nonzeros)}})
    ok = (conclusive and iso <= tol.representation and rec <= tol.representation
          and inv.max_residual <= tol.membership)
    return CheckOutcome("representation", "pass" if ok else "fail", residuals)


def _rank_one_analysis(run: ScenarioRun, ms: ModelSpace | None, G: CoeffVec,
                       H: CoeffVec) -> tuple[bool, dict]:
    """The class's rank-one analysis on the run's kernel: (verdict, residuals)."""
    sc, tol = run.sc, run.tol
    if sc.symbol_class == "zero":
        rep = rank_one_complement_analysis(run.kernel.subspace, G, depth=run.depth,
                                           seed=sc.seed)
        residuals = rep.to_json()
        ok = (rep.condition_residual_max <= tol.membership
              and rep.projection_formula_residual <= tol.subspace_equality
              and rep.invariance.max_residual <= tol.membership
              and _expect_matches(sc.expect, "r", rep.r))
        if "g_norm_max" in sc.expect:
            ok = ok and residuals["g_norm"] <= sc.expect["g_norm_max"]
        if "G0_norm_max" in sc.expect:
            ok = ok and residuals["G0_norm"] <= sc.expect["G0_norm_max"]
    elif sc.symbol_class in ("inner", "invertible_factors"):
        if sc.symbol_class == "inner":
            rep = rank_one_inner_kernel(run.kernel, ms, G, H,
                                        range_membership=tol.range_membership)
            match_tol, routes_agree = tol.subspace_equality, True
        else:
            rep = rank_one_invertible_kernel(run.kernel, G, H)
            match_tol = tol.containment
            routes_agree = rep.details["convolution_gap"] <= tol.representation
        residuals = rep.to_json()
        ok = (rep.case != "unexpected" and routes_agree
              and _expect_matches(sc.expect, "case", rep.case)
              and _expect_matches(sc.expect, "kernel_dim", rep.kernel_dim)
              and (rep.expected_match_residual is None
                   or rep.expected_match_residual <= match_tol))
    else:
        rep = rank_one_theta_star_analysis(run.kernel, run.defect, ms, G, H,
                                           depth=run.depth,
                                           range_membership=tol.range_membership)
        residuals = rep.to_json()
        ok = (rep.equality_residual <= tol.containment
              and rep.projection_formula_residual <= tol.membership
              and _expect_matches(sc.expect, "case", rep.case)
              and _expect_matches(sc.expect, "kernel_dim", rep.kernel_dim)
              and max(rep.membership_residuals.values()) <= tol.membership)
    return ok, residuals


def check_rank_one(run: ScenarioRun) -> CheckOutcome:
    sc = run.sc
    if len(sc.G) != 1:
        raise ScenarioValidationError("rank_one checks need exactly one (G, H) pair")
    if sc.symbol_class not in RANK_ONE_CLASSES:
        raise ScenarioValidationError(
            f"rank_one is not defined for class {sc.symbol_class!r}")
    ms = run.model_space if sc.symbol_class in ("inner", "theta_star") else None
    # the Theta* analysis reads the measured defect and its value split too
    conclusive = _sigma_conclusive(run, defect=sc.symbol_class == "theta_star",
                                   model=ms is not None)
    audit = {"sigma_conclusive": conclusive, "kernel_sigma_ratio": run.kernel.sigma_ratio}
    failed = {"kernel_dim": run.kernel.subspace.dim, **audit}
    if not conclusive:  # an inconclusive cut fails unanalyzed
        return CheckOutcome("rank_one", "fail", failed)
    try:
        ok, residuals = _rank_one_analysis(run, ms, sc.G[0], sc.H[0])
    except FrameDeficientError as exc:  # a frame that cannot certify fails the check
        return CheckOutcome("rank_one", "fail",
                            {**failed, "certified": False, "uncertified": str(exc)})
    return CheckOutcome("rank_one", "pass" if ok else "fail", {**residuals, **audit})


def check_brown_halmos(run: ScenarioRun) -> CheckOutcome:
    sc = run.sc
    if sc.pair is None:
        raise ScenarioValidationError("brown_halmos needs a (psi, phi) pair")
    rep = brown_halmos_check(sc.pair[0], sc.pair[1], sc.N)
    residuals = rep.to_json()
    if rep.hypothesis_met:
        ok = rep.deviation <= BROWN_HALMOS_DEVIATION
    else:
        ok = True  # report-style; expectations can pin the counterexample shape
    for key in ("product_is_zero", "product_symbol_is_zero", "hypothesis_met"):
        ok = ok and _expect_matches(sc.expect, key, getattr(rep, key))
    if "deviation_max" in sc.expect:
        ok = ok and rep.deviation <= sc.expect["deviation_max"]
    return CheckOutcome("brown_halmos", "pass" if ok else "fail", residuals)


CHECKS = {
    "defect_theorem": check_defect_theorem,
    "representation": check_representation,
    "rank_one": check_rank_one,
    "brown_halmos": check_brown_halmos,
}


def run_scenario_object(sc: Scenario, base_tol: Tolerances) -> RunReport:
    """Validate the scenario and run its checks on one shared ``ScenarioRun``.

    Each check is timed here.  A rank cut that decides nothing
    (``InconclusiveCutError``) fails the check that reached it; it is no
    crash."""
    run = ScenarioRun.validated(sc, base_tol)
    outcomes = []
    for name in sc.checks:
        check = CHECKS.get(name)
        if check is None:
            raise ScenarioValidationError(f"unknown check {name!r}")
        t0 = time.perf_counter()
        try:
            outcome = check(run)
        except InconclusiveCutError as exc:
            outcome = CheckOutcome(name, "fail",
                                   {"sigma_conclusive": False, "inconclusive": str(exc)})
        outcome.seconds = time.perf_counter() - t0
        outcomes.append(outcome)
    return RunReport(scenario=sc.name, outcomes=outcomes, tolerances=run.tol)


def load_scenario(path: Path) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON in {path}: {exc}") from exc
    return parse_scenario(data, name_hint=Path(path).stem)


def run_scenario(path: Path, base_tol: Tolerances = Tolerances(),
                 out: Path | None = None,
                 seed: int | None = None) -> tuple[RunReport, int]:
    """Run one scenario file, its seed replaced by ``seed`` when given;
    returns (report, exit code)."""
    sc = load_scenario(path)
    if seed is not None:
        sc.seed = seed
    report = run_scenario_object(sc, base_tol)
    if out is not None:
        Path(out).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return report, EXIT_PASS if report.ok else EXIT_CHECK_FAIL


def classify_error(exc: Exception) -> tuple[str, str]:
    """(kind, one-line message) of an exception a scenario run raised.

    The kind is "parse" or "validation" for bad input and "internal" for
    anything else, numpy's ``LinAlgError`` included although it subclasses
    ``ValueError``: a solver failure is the program's fault, not the file's.
    """
    if isinstance(exc, ScenarioParseError):
        kind, message = "parse", str(exc)
    elif isinstance(exc, (TKLabError, ValueError)) and \
            not isinstance(exc, np.linalg.LinAlgError):
        kind, message = "validation", str(exc)
    else:
        kind, message = "internal", f"{type(exc).__name__}: {exc}"
    return kind, " ".join(message.splitlines())


@dataclass
class SuiteResult:
    reports: list
    errors: list  # (path, kind, message)

    @property
    def exit_code(self) -> int:
        # internal errors first, then bad input, then check failures
        for kind in ("internal", "parse", "validation"):
            if any(k == kind for _, k, _ in self.errors):
                return ERROR_EXIT[kind]
        if any(not r.ok for r in self.reports):
            return EXIT_CHECK_FAIL
        return EXIT_PASS

    def to_json(self) -> dict:
        return {
            "scenarios": [r.to_json() for r in self.reports],
            "errors": [{"path": str(p), "kind": k, "message": m}
                       for p, k, m in self.errors],
            "passed": sum(r.ok for r in self.reports),
            "failed": sum(not r.ok for r in self.reports),
        }

    def table(self) -> str:
        lines = [f"{'scenario':<42} {'status':<8} {'checks':<30}"]
        for r in self.reports:
            marks = ",".join(f"{o.name}:{o.status}" for o in r.outcomes)
            lines.append(f"{r.scenario:<42} {'PASS' if r.ok else 'FAIL':<8} {marks:<30}")
        for p, k, msg in self.errors:
            lines.append(f"{Path(p).stem:<42} {'ERROR':<8} {k}: {msg[:60]}")
        return "\n".join(lines)


def run_suite(directory: Path, jobs: int = 1,
              base_tol: Tolerances = Tolerances(),
              out: Path | None = None,
              seed: int | None = None) -> SuiteResult:
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise ScenarioValidationError(f"no scenario files in {directory}")

    def one(p: Path):
        try:
            return ("report", run_scenario(p, base_tol, seed=seed)[0], p)
        except Exception as exc:  # one crashing scenario must not lose the others
            return (*classify_error(exc), p)

    results = []
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, paths))
    else:
        results = [one(p) for p in paths]
    reports, errors = [], []
    for kind, payload, p in results:
        if kind == "report":
            reports.append(payload)
        else:
            errors.append((p, kind, payload))
    suite = SuiteResult(reports=reports, errors=errors)
    if out is not None:
        Path(out).write_text(json.dumps(suite.to_json(), indent=2) + "\n")
    return suite


SWEEP_PARAMS = ("N", "p", "n")


def _monomial_power(symbol: LaurentMatrixSymbol) -> int | None:
    powers = symbol.powers()
    if len(powers) != 1 or powers[0] < 0:
        return None
    if not np.allclose(symbol.fourier(powers[0]), np.eye(symbol.m)):
        return None
    return powers[0]


def sweep(sc: Scenario, param: str, values: list[int],
          base_tol: Tolerances = Tolerances()) -> str:
    """Run the defect check across a parameter range; returns CSV text."""
    if param not in SWEEP_PARAMS:
        raise ScenarioValidationError(f"unknown sweep parameter {param!r}")
    if param == "p":
        if sc.symbol_class not in ("inner", "theta_star") or \
                _monomial_power(sc.symbol) is None:
            raise ScenarioValidationError(
                f"parameter {param!r} needs a monomial identity symbol")
    # a negative n would slice the family from its end
    if param == "n" and not all(0 <= v <= len(sc.G) for v in values):
        raise ScenarioValidationError(
            f"sweep n must lie in 0..{len(sc.G)}, the stored family size")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([param, "kernel_dim", "defect_dim", "containment_residual",
                     "kernel_residual_max", "sigma_ratio"])
    for v in values:
        variant = Scenario(
            name=f"{sc.name}[{param}={v}]", m=sc.m,
            N=v if param == "N" else sc.N,
            symbol_class=sc.symbol_class, checks=["defect_theorem"],
            seed=sc.seed,
            G=[g.resized(v) if param == "N" else g for g in
               (sc.G[:v] if param == "n" else sc.G)],
            H=[h.resized(v) if param == "N" else h for h in
               (sc.H[:v] if param == "n" else sc.H)],
            symbol=(LaurentMatrixSymbol.shift(sc.m, v) if param == "p"
                    else sc.symbol),
            factors=sc.factors, expect={},
            tolerance_overrides=sc.tolerance_overrides)
        if param == "N":
            top = max([g.top_degree() for g in sc.G + sc.H] + [0])
            if v <= top + HEADROOM:
                raise ScenarioValidationError(
                    f"N={v} truncates the stored perturbation (top degree {top})")
        report = ScenarioRun.validated(variant, base_tol).predicted_defect()
        writer.writerow([v, report.subspace_dim, report.defect_dim,
                         _fmt(report.containment_residual),
                         _fmt(report.kernel_residual_max),
                         _fmt(report.details.get("kernel_sigma_ratio"))])
    return buf.getvalue()


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6e}"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def bundled_scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def _tol_from_args(args) -> Tolerances:
    """The tolerances the flags set; a value ``Tolerances`` rejects is a
    parse error."""
    overrides = {}
    if getattr(args, "tol_rank", None) is not None:
        overrides["rank_rel"] = args.tol_rank
    if getattr(args, "tol_contain", None) is not None:
        overrides["containment"] = args.tol_contain
        overrides["containment_strict"] = args.tol_contain
    try:
        return Tolerances(**overrides)
    except ValueError as exc:
        raise ScenarioParseError(f"bad tolerance flag: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tklab",
        description="kernels of perturbed block Toeplitz compressions: "
                    "scenario runner and verification reports")
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="relative singular-value rank cut")
    parser.add_argument("--tol-contain", type=float, default=None,
                        help="defect containment tolerance")
    parser.add_argument("--seed", type=int, default=None,
                        help="override scenario seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("file", type=Path)
    p_run.add_argument("--out", type=Path, default=None,
                       help="write the JSON report here")

    p_suite = sub.add_parser("suite", help="run a directory of scenarios")
    p_suite.add_argument("dir", type=Path)
    p_suite.add_argument("--jobs", type=int, default=1)
    p_suite.add_argument("--out", type=Path, default=None)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter of a scenario")
    p_sweep.add_argument("file", type=Path)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated integer values")
    p_sweep.add_argument("--out", type=Path, default=None)

    p_factor = sub.add_parser("factor", help="inner-outer split of a scalar polynomial")
    p_factor.add_argument("file", type=Path,
                          help='JSON file {"coeffs": [[re, im], ...]}')

    args = parser.parse_args(argv)
    try:
        tol = _tol_from_args(args)
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
        if args.command == "run":
            report, code = run_scenario(args.file, tol, out=args.out, seed=args.seed)
            for o in report.outcomes:
                print(f"{report.scenario}: {o.name} {o.status.upper()}")
            print(f"{report.scenario}: {'PASS' if report.ok else 'FAIL'}")
            return code
        if args.command == "suite":
            suite = run_suite(args.dir, jobs=args.jobs, base_tol=tol, out=args.out,
                              seed=args.seed)
            print(suite.table())
            return suite.exit_code
        if args.command == "sweep":
            sc = load_scenario(args.file)
            if args.seed is not None:
                sc.seed = args.seed
            try:
                values = [int(v) for v in args.values.split(",") if v]
            except ValueError as exc:  # a malformed list is bad input syntax
                raise ScenarioParseError(f"bad --values {args.values!r}: {exc}") from exc
            text = sweep(sc, args.param, values, base_tol=tol)
            if args.out is not None:
                args.out.write_text(text)
            print(text, end="")
            return EXIT_PASS
        if args.command == "factor":
            return _factor_command(args.file)
    except Exception as exc:  # every failure maps to its exit code, never a traceback
        kind, message = classify_error(exc)
        print(f"{kind} error: {message}", file=sys.stderr)
        return ERROR_EXIT[kind]
    return EXIT_PASS


def _factor_command(path: Path) -> int:
    try:
        data = json.loads(Path(path).read_text())
        coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    fact = scalar_inner_outer(coeffs)
    payload = fact.to_json()
    payload["reconstruction_residual"] = fact.reconstruction_residual(coeffs)
    print(json.dumps(payload, indent=2))
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
