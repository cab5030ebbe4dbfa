"""The named tolerances and the proofs that lean on them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tklab import cli_reports, subspaces, symbols
from tklab.cli_reports import (ScenarioRun, bundled_scenario_dir, load_scenario,
                               run_scenario_object)
from tklab.config import (BROWN_HALMOS_DEVIATION, COMPLEMENT_CUT, EXACT_INNER_ROUNDOFF,
                          ORIGIN_SLICE_FLOOR, SUBSPACE_GRAM_BOUND, Tolerances)
from tklab.errors import ContainmentError, NotInvertibleError
from tklab.hardy_core import CoeffVec
from tklab.near_invariance import compute_defect, kernel_of
from tklab.operators import build_perturbed
from tklab.subspaces import Subspace, column_norms, ortho_complement_within, span_of
from tklab.symbols import LaurentMatrixSymbol, invert_analytic

REPRESENTATION = [p for p in sorted(bundled_scenario_dir().glob("*.json"))
                  if "representation" in load_scenario(p).checks]


def test_exact_inner_roundoff_is_below_the_subspace_gram_bound():
    # an exactly inner range is certified orthonormal by its coefficient
    # identity instead of a Gram check, which needs this order
    assert EXACT_INNER_ROUNDOFF < SUBSPACE_GRAM_BOUND


def test_subspace_rejects_a_basis_past_the_gram_bound():
    basis = np.eye(4, 2, dtype=complex)
    basis[0, 0] += 4 * SUBSPACE_GRAM_BOUND
    with pytest.raises(ValueError, match="not orthonormal within 1e-12"):
        Subspace(2, 2, basis, 0.0)


def test_origin_slice_reads_its_named_floor(monkeypatch):
    # a unit member whose value at the origin is 1e-13: below the floor it
    # counts as vanishing there, above it as a value the slice must cut away
    coeffs = np.zeros((2, 6), complex)
    coeffs[0, 0], coeffs[1, 3] = 1e-13, 1.0
    M = subspaces.span_of([CoeffVec(coeffs), CoeffVec.monomial(2, 6, 0, 2)])
    assert 1e-13 < ORIGIN_SLICE_FLOOR
    assert compute_defect(M).slice_dim == 2
    monkeypatch.setattr(subspaces, "ORIGIN_SLICE_FLOOR", 1e-14)
    assert compute_defect(M).slice_dim == 1


def test_zero_route_origin_slice_reads_its_named_floor(monkeypatch):
    # G = cos t + z sin t with t = 1e-13: P_M 1 has norm sin t, so the values
    # of the kernel M = G^perp have one singular value 1e-13, which the
    # floor decides; the defect, from the complement, reads the same cut
    t = 1e-13
    G = CoeffVec(np.array([[np.cos(t), np.sin(t), 0, 0, 0, 0]], complex))
    H = CoeffVec.monomial(1, 6, 0, 2)
    kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(1), 6, [G], [H]))
    assert kr.method == "zero" and kr.subspace.dim == 5
    assert 1e-13 < ORIGIN_SLICE_FLOOR
    rep = compute_defect(kr.subspace, complement=kr.complement)
    assert rep.slice_dim == 5 and rep.W.shape[1] == 0
    zero_side, signal_side = rep.details["slice_sigma_gap"]
    assert zero_side == pytest.approx(t, rel=1e-6) and signal_side is None
    monkeypatch.setattr(subspaces, "ORIGIN_SLICE_FLOOR", 1e-14)
    rep = compute_defect(kr.subspace, complement=kr.complement)
    assert rep.slice_dim == 4 and rep.W.shape[1] == 1
    assert rep.details["slice_sigma_gap"][1] == pytest.approx(t, rel=1e-6)


def _membership_bound(K: int) -> float:
    """The certificate's bound on |q_i - Q Q^H q_i| for a K-column basis."""
    delta = SUBSPACE_GRAM_BOUND
    return math.sqrt(1.0 + K * delta) * math.sqrt(K) * delta


@pytest.mark.parametrize("path", REPRESENTATION, ids=lambda p: p.stem)
def test_kernel_basis_membership_stays_under_the_proved_bound(path):
    # the residual the representation certificate no longer measures
    run = ScenarioRun.validated(load_scenario(path), Tolerances())
    M = run.kernel.subspace
    Q = M.basis
    member = float(np.max(column_norms(Q - M.project_flat(Q)), initial=0.0))
    assert member <= _membership_bound(M.dim)


def test_complement_reads_its_named_cut(monkeypatch):
    # A = cos t + z^2 sin t sits in M = span{1, z} only to within sin t = 0.6;
    # M's basis off A then has singular values 1 and 0.6, which the cut
    # splits: at 0.5 both count and the complement is refused, at 0.7 it is z
    t = math.asin(0.6)
    M = span_of([CoeffVec.monomial(1, 3, 0, 0), CoeffVec.monomial(1, 3, 0, 1)])
    A = span_of([CoeffVec([[math.cos(t), 0.0, math.sin(t)]])])
    assert COMPLEMENT_CUT < 0.6
    with pytest.raises(ContainmentError, match="ambiguous"):
        ortho_complement_within(M, A, tol_contain=1.0)
    monkeypatch.setattr(subspaces, "COMPLEMENT_CUT", 0.7)
    rest = ortho_complement_within(M, A, tol_contain=1.0)
    assert rest.dim == 1 and abs(abs(rest.basis[1, 0]) - 1.0) < 1e-12


def test_brown_halmos_reads_its_named_deviation(monkeypatch):
    # with Phi analytic T(Psi) T(Phi) = T(Psi Phi) on the window, so dense
    # random coefficients leave only roundoff, which the named bound accepts
    rng = np.random.default_rng(3)
    coeffs = lambda: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    psi = LaurentMatrixSymbol(2, {-1: coeffs(), 0: coeffs(), 1: coeffs()})
    phi = LaurentMatrixSymbol(2, {0: coeffs(), 1: coeffs(), 2: coeffs()})
    counterexample = bundled_scenario_dir() / "toeplitz_product_counterexample.json"
    sc = replace(load_scenario(counterexample), pair=(psi, phi), expect={})
    [outcome] = run_scenario_object(sc, Tolerances()).outcomes
    deviation = outcome.residuals["deviation"]
    assert outcome.residuals["hypothesis_met"] and 0.0 < deviation <= BROWN_HALMOS_DEVIATION
    assert outcome.status == "pass"
    monkeypatch.setattr(cli_reports, "BROWN_HALMOS_DEVIATION", deviation / 2)
    [outcome] = run_scenario_object(sc, Tolerances()).outcomes
    assert outcome.status == "fail"


def test_series_inversion_reads_its_named_residual_bound(monkeypatch):
    # (1 - 0.9z)^4, coefficient norm 6.8, to degree 255: the blocked series
    # leaves a residual of 3.4e-11, inside the bound 1e-10 per unit norm and
    # past a bound of 1e-12
    A = LaurentMatrixSymbol.diagonal([[1.0, -3.6, 4.86, -2.916, 0.6561]])
    invert_analytic(A, 255)
    monkeypatch.setattr(symbols, "SERIES_INVERSION_RESIDUAL", 1e-12)
    with pytest.raises(NotInvertibleError, match="exceeds tolerance"):
        invert_analytic(A, 255)
