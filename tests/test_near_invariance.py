import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tklab import cli_reports, model_spaces, near_invariance, representation
from tklab.cli_reports import ScenarioRun, parse_scenario
from tklab.config import GRAM_SCHMIDT_DROP, Tolerances
from tklab.errors import ScenarioParseError, ScenarioValidationError
from tklab.hardy_core import (CoeffVec, backward_shift, column_vectors, flat_columns,
                              inner_product)
from tklab.model_spaces import build_model_space, decompose_against_theta
from tklab.near_invariance import compute_defect, kernel_of
from tklab.operators import (PerturbedToeplitz, ToeplitzCompression, build_perturbed,
                             orthonormalize_family)
from tklab.subspaces import (Subspace, column_gram_deviation, gram_schmidt, is_contained,
                             nullspace, span_of, subspace_equal)
from tklab.symbols import LaurentMatrixSymbol, blaschke_taylor, invert_analytic

from conftest import (certified, class_defect, class_scenario, rand_coeffvec,
                      rand_orthonormal, random_inner, spy, svd_shapes, unit)
from reference_oracle import zero_at_origin_slice


class TestComputeDefect:
    def test_model_space_has_no_defect(self):
        ms = build_model_space(LaurentMatrixSymbol.shift(2, 3), 10)
        rep = compute_defect(ms.as_subspace)
        assert rep.defect_dim == 0
        assert rep.slice_dim == 4  # degrees 1, 2 in both components

    def test_vacuous_slice(self):
        M = span_of([CoeffVec([[1.0, 1.0]])])  # 1 + z: nothing vanishes at 0
        rep = compute_defect(M)
        assert rep.slice_dim == 0 and rep.defect_dim == 0

    def test_complement_defect_inside_generators(self, rng):
        m, N, n = 2, 10, 2
        G = rand_orthonormal(rng, m, N, 6, n)
        M = span_of(G).perp()
        rep = compute_defect(M)
        assert rep.defect_dim <= n
        ok, resid = is_contained(rep.defect_basis, span_of(G), 1e-8)
        assert ok, resid

    def test_matches_per_vector_residuals(self, rng):
        # reference: shift and project each slice member on its own
        m, N = 2, 12
        M = span_of(rand_orthonormal(rng, m, N, 7, 3)).perp()
        residuals = []
        for F in zero_at_origin_slice(M).basis_vectors():
            shifted = backward_shift(F).flatten()
            residuals.append(CoeffVec.from_flat(shifted - M.project_flat(shifted), m, N))
        reference = span_of(residuals, floor=1e-8)
        rep = compute_defect(M)
        assert rep.defect_dim == reference.dim == 3
        assert subspace_equal(rep.defect_basis, reference, 1e-12)[0]
        assert rep.sigma_gap.signal_side == pytest.approx(
            reference.sigma_gap.signal_side, rel=1e-12)

    def test_defect_filling_the_slice_matches_the_oracle_stack(self):
        # M = span{(1 + z)/sqrt2, z^2}: W is (1 + z)/sqrt2, the slice z^2 and
        # its defect the line of P_{M^perp} z, so the defect fills the slice
        # and the cut has no zero side; the residual route's stack on
        # Q - W W^H Q has a second, roundoff singular value past the slice
        M = span_of([CoeffVec([[1.0, 1.0, 0.0, 0.0]]) * (1 / np.sqrt(2)),
                     CoeffVec.monomial(1, 4, 0, 2)])
        residuals = []
        for F in zero_at_origin_slice(M).basis_vectors():
            shifted = backward_shift(F).flatten()
            residuals.append(CoeffVec.from_flat(shifted - M.project_flat(shifted), 1, 4))
        oracle = span_of(residuals, floor=1e-8)
        rep = compute_defect(M)
        assert rep.W.shape[1] == 1 and rep.slice_dim == 1
        assert rep.defect_dim == oracle.dim == 1
        assert subspace_equal(rep.defect_basis, oracle, 1e-12)[0]
        assert oracle.sigma_gap.zero_side is None
        _assert_gaps_agree(rep.sigma_gap.to_pair(), oracle.sigma_gap.to_pair(), 1e-15)
        assert rep.sigma_gap.signal_side == pytest.approx(1 / np.sqrt(2), rel=1e-14)

    def test_defect_orthogonal_to_subspace(self, rng):
        m, N = 2, 8
        G = rand_orthonormal(rng, m, N, 5, 2)
        M = span_of(G).perp()
        rep = compute_defect(M)
        if rep.defect_dim and M.dim:
            overlap = np.max(np.abs(M.basis.conj().T @ rep.defect_basis.basis))
            assert overlap < 1e-10


class TestZeroSymbol:
    def test_rank_zero_everything_invariant(self):
        rep = class_defect("zero", [], [], 6, m=2)
        assert rep.subspace_dim == 12
        assert rep.defect_dim == 0

    def test_kernel_is_complement_and_defect_contained(self, rng):
        m, N, n = 2, 12, 2
        G = rand_orthonormal(rng, m, N, 6, n)
        H = rand_orthonormal(rng, m, N, 6, n)
        rep = class_defect("zero", G, H, N)
        assert rep.subspace_dim == m * N - n
        assert rep.defect_dim <= n
        assert rep.containment_residual < 1e-8
        assert rep.kernel_residual_max < 1e-10

    def test_vanishing_generator_keeps_constants(self):
        m, N = 2, 8
        G = [CoeffVec.monomial(m, N, 0, 1)]  # e1 z: G(0) = 0
        H = [CoeffVec.monomial(m, N, 1, 0)]
        rep = class_defect("zero", G, H, N)
        kernel = span_of(G).perp()
        # constants are orthogonal to z e1, so they sit in the kernel
        for i in range(m):
            ok, _ = is_contained(span_of([CoeffVec.monomial(m, N, i, 0)]),
                                 kernel, 1e-10)
            assert ok
        assert rep.defect_dim <= 1

    def test_missing_m_rejected(self):
        # with an empty family only the scenario's m fixes the ambient
        with pytest.raises(ScenarioParseError, match="missing scenario field 'm'"):
            parse_scenario({"symbol_class": "zero", "N": 6, "checks": ["defect_theorem"]})

    def test_unitary_recombination_invariance(self, rng):
        # the same unitary on both families leaves the operator unchanged
        m, N, n = 2, 10, 2
        G = rand_orthonormal(rng, m, N, 5, n)
        H = rand_orthonormal(rng, m, N, 5, n)
        theta = 0.7
        U = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]], dtype=complex)
        U[0] *= np.exp(0.3j)
        Gr = [U[i, 0] * G[0] + U[i, 1] * G[1] for i in range(n)]
        Hr = [U[i, 0] * H[0] + U[i, 1] * H[1] for i in range(n)]
        T1 = build_perturbed(LaurentMatrixSymbol.zero(m), N, G, H)
        T2 = build_perturbed(LaurentMatrixSymbol.zero(m), N, Gr, Hr)
        assert np.max(np.abs(T1.matrix - T2.matrix)) < 1e-12
        d1 = class_defect("zero", G, H, N)
        d2 = class_defect("zero", Gr, Hr, N)
        ok, _ = subspace_equal(d1.defect_basis, d2.defect_basis, 1e-8)
        assert ok


def tuned_inner_setup(rng, theta, m, N, count, vanish_at_zero=True):
    """H_i = theta u_i with orthonormal u_i, G_i = -u_i: kernel is span{u_i}."""
    us = rand_orthonormal(rng, m, N, 6, count, lo=1 if vanish_at_zero else 0)
    Hs = [theta.act(u).analytic_part().resized(N) for u in us]
    Gs = [-1.0 * u for u in us]
    return us, Gs, Hs


class TestInnerSymbol:
    def test_monomial_defect_space_match(self, rng):
        m, p, N = 2, 2, 16
        theta = LaurentMatrixSymbol.shift(m, p)
        us, G, H = tuned_inner_setup(rng, theta, m, N, 1)
        rep = class_defect("inner", G, H, N, symbol=theta)
        assert rep.subspace_dim == 1
        assert rep.defect_dim == 1
        assert rep.containment_residual < 1e-8
        # the prediction reduces to the (p+1)-fold backward shift of H
        assert rep.details["prediction_equality_residual"] < 1e-8
        pred = H[0]
        for _ in range(p + 1):
            pred = backward_shift(pred)
        T = build_perturbed(theta, N, G, H)
        M = kernel_of(T).subspace
        w = pred.flatten() - M.project_flat(pred.flatten())
        pred_mod = span_of([CoeffVec.from_flat(w, m, N)])
        ok, resid = subspace_equal(rep.defect_basis, pred_mod, 1e-8)
        assert ok, resid

    def test_constant_h_trivial_defect(self, rng):
        m, N = 2, 12
        theta = LaurentMatrixSymbol.shift(m, 2)
        H = [CoeffVec.monomial(m, N, 0, 0)]
        G = rand_orthonormal(rng, m, N, 4, 1)
        rep = class_defect("inner", G, H, N, symbol=theta)
        assert rep.predicted_dim == 0
        assert rep.defect_dim == 0

    def test_mixed_monomials_rank_two(self, rng):
        m, N = 2, 20
        theta = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
        us, G, H = tuned_inner_setup(rng, theta, m, N, 2)
        rep = class_defect("inner", G, H, N, symbol=theta)
        assert rep.subspace_dim == 2
        assert rep.defect_dim <= 2
        assert rep.containment_residual < 1e-8
        assert rep.details["alternate_form_residual"] < 1e-8

    def test_untuned_random_scenarios(self, rng):
        m, N = 2, 16
        theta = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
        G = rand_orthonormal(rng, m, N, 6, 2)
        H = rand_orthonormal(rng, m, N, 6, 2)
        rep = class_defect("inner", G, H, N, symbol=theta)
        assert rep.defect_dim <= 2
        assert rep.containment_residual < 1e-8

    def test_blaschke_diagonal(self, rng):
        m, N = 2, 32
        theta = LaurentMatrixSymbol.diagonal(
            [blaschke_taylor(0.3, 20), np.concatenate([[0, 0], [1.0]])])
        us, G, H = tuned_inner_setup(rng, theta, m, N, 1)
        rep = class_defect("inner", G, H, N, symbol=theta, inner=1e-6, ortho=1e-6)
        assert rep.defect_dim <= 1
        assert rep.containment_residual < 1e-6

    def test_not_inner_raises(self, rng):
        bad = LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]])
        G = rand_orthonormal(rng, 2, 10, 4, 1)
        with pytest.raises(ScenarioValidationError, match="fails the inner test"):
            ScenarioRun.validated(class_scenario("inner", G, G, 10, symbol=bad),
                                  Tolerances())

    def test_commutation_of_adjoint_with_shift(self, rng):
        # compress theta*, then shift, and vice versa: identical on polynomials
        m, N = 2, 12
        theta = LaurentMatrixSymbol.shift(m, 2)
        adj = ToeplitzCompression(theta.adjoint(), N)
        F = rand_coeffvec(rng, m, N, N)
        a = backward_shift(adj.apply(F))
        b = adj.apply(backward_shift(F))
        assert (a - b).norm() < 1e-12


class TestInvertibleFactors:
    def test_identity_factors_match_plain_shift_prediction(self, rng):
        m, N = 2, 16
        I = LaurentMatrixSymbol.identity(m)
        G = rand_orthonormal(rng, m, N, 5, 1)
        H = rand_orthonormal(rng, m, N, 5, 1)
        rep = class_defect("invertible_factors", G, H, N, factors=(I, I))
        assert rep.defect_dim <= 1
        assert rep.containment_residual < 1e-8
        # prediction must equal span{S* H} here
        pred = rep.predicted
        ok, _ = subspace_equal(pred, span_of([backward_shift(H[0])]), 1e-10)
        assert ok

    def test_diagonal_factor_with_unit_families(self, rng):
        m, N = 1, 40
        F1 = LaurentMatrixSymbol.identity(m)
        F2 = LaurentMatrixSymbol.diagonal([[2.0, 1.0]])
        G = rand_orthonormal(rng, m, N, 4, 1)
        H = rand_orthonormal(rng, m, N, 4, 1)
        rep = class_defect("invertible_factors", G, H, N, factors=(F1, F2))
        assert rep.defect_dim <= 1
        assert rep.containment_residual < 1e-6

    def test_contractive_factor_nontrivial_kernel(self, rng):
        # with min |F2| < 1 on the circle a unit pair (G, H) can reach the
        # critical criterion: H constant, G built from the inverse image
        m, N = 1, 40
        F1 = LaurentMatrixSymbol.identity(m)
        F2 = LaurentMatrixSymbol.diagonal([[1.0, 0.5]])
        H = [CoeffVec.monomial(m, N, 0, 0)]
        inv2 = invert_analytic(F2, N - 1)
        Vc = inv2.act(H[0]).analytic_part().resized(N)
        w = rand_coeffvec(rng, m, N, 6, lo=1)
        w = w - (inner_product(w, Vc) * (1.0 / Vc.norm_sq())) * Vc
        w = unit(w) * np.sqrt(max(1.0 - 1.0 / Vc.norm_sq(), 0.0))
        G = [(-1.0 / Vc.norm_sq()) * Vc + w]
        assert abs(G[0].norm() - 1.0) < 1e-10
        rep = class_defect("invertible_factors", G, H, N, factors=(F1, F2))
        assert rep.subspace_dim == 1
        assert rep.defect_dim <= 1
        assert rep.containment_residual < 1e-6

    def test_two_sided_factors(self, rng):
        m, N = 1, 48
        F1 = LaurentMatrixSymbol.diagonal([[2.0, 1.0]])
        F2 = LaurentMatrixSymbol.diagonal([[3.0, 1.0]])
        G = rand_orthonormal(rng, m, N, 4, 1)
        H = rand_orthonormal(rng, m, N, 4, 1)
        rep = class_defect("invertible_factors", G, H, N, factors=(F1, F2))
        assert rep.defect_dim <= 1
        assert rep.containment_residual < 1e-6

    def test_non_invertible_rejected(self, rng):
        m, N = 1, 12
        bad = LaurentMatrixSymbol.shift(m)
        G = rand_orthonormal(rng, m, N, 4, 1)
        with pytest.raises(Exception):
            class_defect("invertible_factors", G, G, N, factors=(bad, bad))


class TestThetaStar:
    def test_all_in_range_critical_family(self, rng):
        # G = -theta H is a unit vector inside the shifted range and reaches
        # the critical criterion: the kernel gains the theta H line
        s, m, N = 2, 2, 16
        theta = LaurentMatrixSymbol.shift(m, s)
        H = rand_orthonormal(rng, m, N, 5, 1)
        thH = theta.act(H[0]).analytic_part().resized(N)
        rep = class_defect("theta_star", [-1.0 * thH], H, N, symbol=theta)
        assert rep.subspace_dim == m * s + 1
        assert rep.details["outside_range_count"] == 0
        assert rep.defect_bound == 1
        assert rep.defect_dim <= 1
        assert rep.containment_residual < 1e-8

    def test_mixed_membership_counts(self, rng):
        m, N = 2, 20
        theta = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
        inside = unit(theta.act(rand_coeffvec(rng, m, N, 4))
                      .analytic_part().resized(N))
        outside_raw = rand_coeffvec(rng, m, N, 5)
        outside = outside_raw - inner_product(outside_raw, inside) * inside
        outside = unit(outside)
        H = rand_orthonormal(rng, m, N, 5, 2)
        rep = class_defect("theta_star", [inside, outside], H, N, symbol=theta)
        assert rep.details["outside_range_count"] == 1
        assert rep.defect_bound == 3
        assert rep.defect_dim <= 3
        assert rep.containment_residual < 1e-8

    def test_model_space_kernel_no_perturbation(self):
        m, s, N = 2, 2, 12
        theta = LaurentMatrixSymbol.shift(m, s)
        rep = class_defect("theta_star", [], [], N, symbol=theta)
        assert rep.subspace_dim == m * s
        assert rep.defect_dim == 0  # model spaces are invariant

    def test_kernel_residual_audit(self, rng):
        m, N = 2, 16
        theta = LaurentMatrixSymbol.shift(m, 2)
        H = rand_orthonormal(rng, m, N, 5, 1)
        thH = theta.act(H[0]).analytic_part().resized(N)
        rep = class_defect("theta_star", [-1.0 * thH], H, N, symbol=theta)
        assert rep.details["kernel_audit_violations"] == 0
        assert rep.details["kernel_sigma_ratio"] < 1e-3


def _dense_kernel(T, tol_rel=None):
    return nullspace(T.action_matrix(), (T.m, T.N), tol_rel=tol_rel)


def _assert_matches_dense(kr, T, method, tol_rel=None, subspace_tol=1e-10):
    """Structured kernel against the dense-SVD oracle: same path, dimension
    and subspace, and a signal side that never reads cleaner."""
    dense = _dense_kernel(T, tol_rel=tol_rel)
    assert kr.method == method
    assert kr.subspace.dim == dense.dim
    ok, resid = subspace_equal(kr.subspace, dense, subspace_tol)
    assert ok, resid
    if dense.sigma_gap.signal_side is not None:
        assert kr.sigma_gap.signal_side <= dense.sigma_gap.signal_side
    assert kr.audit_violations == 0


def _invertible_factor(rng, m, degree):
    """2I plus coefficients of total spectral norm 0.7: invertible on the disk."""
    terms = {0: 2.0 * np.eye(m)}
    for k, weight in zip(range(1, degree + 1), (0.4, 0.3)):
        R = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        terms[k] = weight * R / np.linalg.norm(R, 2)
    return LaurentMatrixSymbol(m, terms)


ORACLE_CASES = [(m, seed) for m in (1, 2, 3) for seed in (0, 1)]


class TestStructuredKernelOracle:
    @pytest.mark.parametrize("m,seed", ORACLE_CASES)
    def test_inner_random_families(self, m, seed):
        rng = np.random.default_rng([m, seed, 1])
        N = (16, 64)[seed]
        theta = random_inner(rng, m, 2 + seed)
        G = rand_orthonormal(rng, m, N, 6, 2)
        H = rand_orthonormal(rng, m, N, 6, 2)
        T = build_perturbed(theta, N, G, H)
        _assert_matches_dense(kernel_of(T), T, "inner")

    @pytest.mark.parametrize("m,seed", ORACLE_CASES)
    def test_inner_critical_families(self, m, seed):
        # H_i = Theta u_i, G_i = -u_i: T F = Theta (F - P_u F), kernel span{u}
        rng = np.random.default_rng([m, seed, 2])
        N, n = (24, 48)[seed], 1 + seed
        theta = random_inner(rng, m, 2)
        us = rand_orthonormal(rng, m, N, 5, n)
        H = [theta.act(u).analytic_part().resized(N) for u in us]
        T = build_perturbed(theta, N, [-1.0 * u for u in us], H)
        kr = kernel_of(T)
        assert kr.subspace.dim == n
        _assert_matches_dense(kr, T, "inner")

    @pytest.mark.parametrize("m,seed", ORACLE_CASES)
    def test_theta_star_random_families(self, m, seed):
        rng = np.random.default_rng([m, seed, 3])
        N = (20, 64)[seed]
        theta = random_inner(rng, m, 1 + seed)
        G = rand_orthonormal(rng, m, N, 6, 2)
        H = rand_orthonormal(rng, m, N, 6, 2)
        T = build_perturbed(theta.adjoint(), N, G, H)
        _assert_matches_dense(kernel_of(T), T, "theta_star")

    @pytest.mark.parametrize("m,seed", ORACLE_CASES)
    def test_theta_star_in_range_critical(self, m, seed):
        # G = -Theta H reaches the critical criterion: the model space, of
        # dimension deg det Theta = s, plus a line
        rng = np.random.default_rng([m, seed, 4])
        s, N = 1 + seed, (16, 40)[seed]
        theta = random_inner(rng, m, s)
        H = rand_orthonormal(rng, m, N, 5, 1)
        G = [-1.0 * theta.act(H[0]).analytic_part().resized(N)]
        T = build_perturbed(theta.adjoint(), N, G, H)
        kr = kernel_of(T)
        assert kr.subspace.dim == s + 1
        _assert_matches_dense(kr, T, "theta_star")

    def test_theta_star_without_bump_is_model_space(self):
        theta = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
        T = build_perturbed(theta.adjoint(), 32, [], [])
        kr = kernel_of(T)
        assert kr.subspace.dim == 5
        _assert_matches_dense(kr, T, "theta_star")

    @pytest.mark.parametrize("m,seed", ORACLE_CASES)
    def test_factored_random_families(self, m, seed):
        rng = np.random.default_rng([m, seed, 5])
        N = (24, 64)[seed]
        F1, F2 = _invertible_factor(rng, m, 1), _invertible_factor(rng, m, 2)
        G = rand_orthonormal(rng, m, N, 6, 2)
        H = rand_orthonormal(rng, m, N, 6, 2)
        T = build_perturbed(F1.adjoint().multiply(F2), N, G, H)
        _assert_matches_dense(kernel_of(T, factors=certified(F1, F2)), T, "factored")

    @pytest.mark.parametrize("m,seed", ORACLE_CASES)
    def test_factored_critical_rank_one(self, m, seed):
        # G = -V / |V|^2 with V = F2^-1 T_{F1*^-1} H puts V in the kernel
        rng = np.random.default_rng([m, seed, 6])
        N = (32, 64)[seed]
        F1, F2 = _invertible_factor(rng, m, 2), _invertible_factor(rng, m, 1)
        H = rand_orthonormal(rng, m, N, 5, 1)
        inner = invert_analytic(F1, N - 1).adjoint().act(H[0]).analytic_part()
        V = invert_analytic(F2, N - 1).act(inner.resized(N)).analytic_part().resized(N)
        T = build_perturbed(F1.adjoint().multiply(F2), N,
                            [(-1.0 / V.norm_sq()) * V], H, require_orthonormal=False)
        kr = kernel_of(T, factors=certified(F1, F2))
        assert kr.subspace.dim == 1
        _assert_matches_dense(kr, T, "factored")

    def test_truncated_blaschke_takes_dense_path(self, rng):
        # inner on the grid to 1e-6 only: the coefficient identity fails
        N = 32
        theta = LaurentMatrixSymbol.diagonal([blaschke_taylor(0.3, 20), [0.0, 1.0]])
        G = rand_orthonormal(rng, 2, N, 5, 1)
        H = rand_orthonormal(rng, 2, N, 5, 1)
        for symbol in (theta, theta.adjoint()):
            assert kernel_of(build_perturbed(symbol, N, G, H)).method == "dense"

    def test_zero_symbol_takes_zero_route(self, rng, monkeypatch):
        G = rand_orthonormal(rng, 2, 12, 5, 2)
        T = build_perturbed(LaurentMatrixSymbol.zero(2), 12, G, G)
        dense_svds = spy(monkeypatch, "nullspace")
        actions = []
        monkeypatch.setattr(PerturbedToeplitz, "action_matrix",
                            lambda self: actions.append(self))
        kr = kernel_of(T)
        assert kr.method == "zero"
        assert dense_svds == [] and actions == []
        assert kr.subspace.dim + kr.complement.shape[1] == 24

    def test_uncertified_cut_falls_back_to_dense(self, rng):
        # a cut at 0.9 |A| swallows the isometry's unit singular values; the
        # signal bound cannot clear it, so the dense SVD decides
        m, N = 2, 16
        theta = LaurentMatrixSymbol.shift(m, 2)
        G = rand_orthonormal(rng, m, N, 5, 1)
        H = rand_orthonormal(rng, m, N, 5, 1)
        T = build_perturbed(theta, N, G, H)
        kr = kernel_of(T, tol_rel=0.9)
        dense = _dense_kernel(T, tol_rel=0.9)
        assert kr.method == "dense"
        assert kr.subspace.dim == dense.dim > kernel_of(T).subspace.dim
        assert subspace_equal(kr.subspace, dense, 1e-10)[0]

    def test_action_that_cancels_to_roundoff_is_all_kernel(self, rng):
        # 2 I - 2 U U^H with U unitary is zero; its computed action is pure
        # roundoff, which a cut anchored to the action's own s[0] reads as rank
        m, N = 2, 6
        X = rng.standard_normal((m * N, m * N)) + 1j * rng.standard_normal((m * N, m * N))
        G = column_vectors(np.linalg.qr(X)[0], m, N)
        T = build_perturbed(LaurentMatrixSymbol.constant(2.0 * np.eye(m)), N, G,
                            [-2.0 * g for g in G], require_orthonormal=False)
        action = T.action_matrix()
        assert 0.0 < np.max(np.abs(action)) < 1e-13
        assert nullspace(action, (m, N)).dim < m * N
        kr = kernel_of(T)
        assert kr.method == "dense" and kr.subspace.dim == m * N

    def test_mismatched_factors_rejected(self, rng):
        F = LaurentMatrixSymbol.diagonal([[2.0, 1.0]])
        T = build_perturbed(F, 12, [], [])
        with pytest.raises(ValueError):
            kernel_of(T, factors=certified(F, F))


def _clean_cut(gap, cut):
    """Both boundary singular values sit off the cut by more than roundoff,
    so two backward-stable computations of the spectrum cut it alike."""
    margin = 1e-6 * cut
    return ((gap.signal_side is None or gap.signal_side > cut + margin)
            and (gap.zero_side is None or cut == 0.0 or gap.zero_side < cut - margin))


@st.composite
def zero_symbol_operators(draw):
    """Zero-symbol operators with rank-deficient, zero and non-orthonormal
    families: every column of G and H is random with a random scale, a
    multiple of an earlier column, or zero."""
    m = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(2, 48))
    n = draw(st.integers(0, min(4, m * N - 1)))  # n >= mN stays dense
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    families = []
    for _ in range(2):
        columns = []
        for kind in draw(st.lists(st.sampled_from(["random", "repeat", "zero"]),
                                  min_size=n, max_size=n)):
            if kind == "repeat" and columns:
                columns.append(complex(rng.standard_normal(), 1.0) * columns[-1])
            elif kind == "zero":
                columns.append(CoeffVec(np.zeros((m, N), complex)))
            else:
                columns.append(10.0 ** rng.uniform(-2, 2)
                               * rand_coeffvec(rng, m, N, draw(st.integers(1, N))))
        families.append(columns)
    T = build_perturbed(LaurentMatrixSymbol.zero(m), N, *families,
                        require_orthonormal=False)
    return T, draw(st.sampled_from([None, 1e-12, 1e-6, 0.3]))


def _array_held(M):
    """M with its basis held as an array, which keeps ``compute_defect``
    given no complement on the residual stack."""
    return Subspace(M.m, M.N, M.basis, M.tol)


def _assert_gaps_agree(pair, reference, tol):
    """Two [zero side, signal side] pairs name the same sides and agree within tol."""
    for value, ref in zip(pair, reference):
        assert (value is None) == (ref is None), (pair, reference)
        if ref is not None:
            assert abs(value - ref) <= tol, (pair, reference)


def _assert_w_spans_the_off_slice_frame(M, rep):
    """The value split's W spans what the Gram-Schmidt frame of M's basis
    projected off the full-SVD origin slice spanned.

    That frame carries the slice's projection error, about eps / s_r for
    s_r the smallest kept value singular value; past Gram-Schmidt's 1e-10
    drop it adds a roundoff column, so below s_r = 1e-5 W need only lie in
    its span."""
    sl = zero_at_origin_slice(M)
    reference, _ = gram_schmidt(M.basis - sl.project_flat(M.basis), GRAM_SCHMIDT_DROP)
    assert column_gram_deviation(rep.W) <= 1e-13
    signal = rep.details["slice_sigma_gap"][1]
    if signal is None or signal > 1e-5:
        assert rep.W.shape[1] == reference.shape[1]
    if rep.W.shape[1]:
        # cosines of the principal angles between span W and the frame's span
        cosines = np.linalg.svd(rep.W.conj().T @ reference, compute_uv=False)
        assert cosines.size == rep.W.shape[1] and cosines[-1] > 1.0 - 1e-10, cosines


class TestZeroSymbolRoute:
    """The zero symbol's kernel from its n x n core and its defect from the
    kernel's n-dimensional complement, against the dense SVDs."""

    @settings(max_examples=80, deadline=None)
    @given(zero_symbol_operators())
    def test_matches_dense_oracle(self, case):
        T, tol_rel = case
        dense = _dense_kernel(T, tol_rel=tol_rel)
        assume(_clean_cut(dense.sigma_gap, dense.tol))
        kr = kernel_of(T, tol_rel=tol_rel)
        # both solves are backward stable, so (sin-theta) their kernels may
        # differ by about eps |A| over the smallest kept singular value
        signal = dense.sigma_gap.signal_side
        scale = np.linalg.norm(T.action_matrix(), 2) / signal if signal else 1.0
        _assert_matches_dense(kr, T, "zero", tol_rel=tol_rel,
                              subspace_tol=max(1e-10, 1e-13 * scale))
        both = np.concatenate([kr.subspace.basis, kr.complement], axis=1)
        assert both.shape[1] == T.m * T.N
        assert column_gram_deviation(both) <= 1e-12
        residual_svd = compute_defect(_array_held(kr.subspace), tol_rel=tol_rel)
        assume(_clean_cut(residual_svd.sigma_gap, residual_svd.defect_basis.tol))
        within = compute_defect(kr.subspace, tol_rel=tol_rel, complement=kr.complement)
        assert within.defect_dim == residual_svd.defect_dim
        assert subspace_equal(within.defect_basis, residual_svd.defect_basis, 1e-10)[0]
        # the Weyl gap brackets the residual stack's own boundary singular values
        roundoff = 1e-13 * max(1.0, residual_svd.sigma_gap.signal_side or 0.0)
        if residual_svd.sigma_gap.zero_side is not None:
            assert within.sigma_gap.zero_side >= residual_svd.sigma_gap.zero_side - roundoff
        if residual_svd.sigma_gap.signal_side is not None:
            assert (within.sigma_gap.signal_side
                    <= residual_svd.sigma_gap.signal_side + roundoff)

    @settings(max_examples=80, deadline=None)
    @given(zero_symbol_operators())
    def test_complement_defect_matches_residual_stack(self, case):
        # the residual-stack path on an array copy of the basis is the oracle
        T, tol_rel = case
        kr = kernel_of(T, tol_rel=tol_rel)
        oracle = compute_defect(_array_held(kr.subspace), tol_rel=tol_rel)
        assume(_clean_cut(oracle.sigma_gap, oracle.defect_basis.tol))
        rep = compute_defect(kr.subspace, tol_rel=tol_rel, complement=kr.complement)
        assert (rep.slice_dim, rep.defect_dim) == (oracle.slice_dim, oracle.defect_dim)
        assert subspace_equal(rep.defect_basis, oracle.defect_basis, 1e-10)[0]
        roundoff = 1e-13 * max(1.0, oracle.sigma_gap.signal_side or 0.0)
        _assert_gaps_agree(rep.sigma_gap.to_pair(), oracle.sigma_gap.to_pair(), roundoff)
        _assert_gaps_agree(rep.details["slice_sigma_gap"],
                           oracle.details["slice_sigma_gap"], 1e-13)
        _assert_w_spans_the_off_slice_frame(kr.subspace, rep)

    @pytest.mark.parametrize("m, N", [(1, 8), (2, 12), (3, 6)])
    def test_w_spans_the_off_slice_frame_when_values_degenerate(self, m, N):
        # G holds the constant e_0, so e_0 lies in span U, P_M e_0 = 0 and
        # the value split keeps r = m - 1 < m directions
        rng = np.random.default_rng([m, N, 17])
        e0 = np.zeros((m, N), complex)
        e0[0, 0] = 1.0
        G = orthonormalize_family([CoeffVec(e0), rand_coeffvec(rng, m, N, 5)])
        H = rand_orthonormal(rng, m, N, 5, 2)
        kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(m), N, G, H))
        rep = compute_defect(kr.subspace, complement=kr.complement)
        assert rep.W.shape[1] == m - 1
        assert rep.slice_dim == kr.subspace.dim - (m - 1)
        assert np.max(np.abs(rep.W[0]), initial=0.0) < 1e-14
        _assert_w_spans_the_off_slice_frame(kr.subspace, rep)

    @pytest.mark.parametrize("m, N, n", [(1, 4, 3), (2, 12, 2), (3, 10, 4)])
    def test_zero_route_svds_stay_small(self, m, N, n, monkeypatch):
        # (1, 4, 3) is the kernel span{z^3}: a one-dimensional slice and a
        # three-column complement; the others have slices wider than it
        rng = np.random.default_rng([m, N, n])
        if m == 1:
            G = [CoeffVec(np.eye(N)[j:j + 1]) for j in range(n)]
            H = G
        else:
            G, H = rand_orthonormal(rng, m, N, 6, n), rand_orthonormal(rng, m, N, 6, n)
        shapes = svd_shapes(monkeypatch)
        rep = class_defect("zero", G, H, N)
        assert rep.details["kernel_method"] == "zero" and rep.containment_ok(1e-8)
        assert shapes and all(min(shape) <= max(m, n) for shape in shapes), shapes
        monkeypatch.undo()
        kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(m), N, G, H))
        oracle = compute_defect(_array_held(kr.subspace))
        assert (rep.slice_dim, rep.defect_dim) == (oracle.slice_dim, oracle.defect_dim)
        assert subspace_equal(rep.defect_basis, oracle.defect_basis, 1e-10)[0]

    @pytest.mark.parametrize("route", ["residual", "complement"])
    def test_value_svds_are_thin(self, route, monkeypatch):
        m, N, n = 2, 10, 2
        rng = np.random.default_rng([m, N, n])
        G, H = rand_orthonormal(rng, m, N, 5, n), rand_orthonormal(rng, m, N, 5, n)
        kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(m), N, G, H))
        # the residual route runs on an array copy of the held basis
        M = kr.subspace if route == "complement" else _array_held(kr.subspace)
        calls = []
        real = np.linalg.svd

        def spy_svd(a, full_matrices=True, **kwargs):
            calls.append((np.shape(a), full_matrices))
            return real(a, full_matrices=full_matrices, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        compute_defect(M, complement=kr.complement if route == "complement" else None)
        values = [full for shape, full in calls if shape == (m, kr.subspace.dim)]
        assert values and not any(values), calls

    def test_non_orthonormal_complement_rejected(self, rng):
        m, N = 2, 10
        G = rand_orthonormal(rng, m, N, 5, 2)
        kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(m), N, G, G))
        with pytest.raises(ValueError, match="not orthonormal"):
            compute_defect(kr.subspace, complement=2.0 * kr.complement)

    def test_complement_of_the_wrong_width_rejected(self, rng):
        m, N = 2, 10
        G = rand_orthonormal(rng, m, N, 5, 2)
        kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(m), N, G, G))
        with pytest.raises(ValueError, match="do not add up to 20"):
            compute_defect(kr.subspace, complement=kr.complement[:, :1])
        with pytest.raises(ValueError, match="complement shape"):
            compute_defect(kr.subspace, complement=kr.complement[:-1])

    def test_complement_not_orthogonal_to_the_subspace_rejected(self, rng):
        # an orthonormal U of the right width that overlaps M
        m, N = 2, 10
        G = rand_orthonormal(rng, m, N, 5, 2)
        kr = kernel_of(build_perturbed(LaurentMatrixSymbol.zero(m), N, G, G))
        U = np.concatenate([kr.complement[:, :1], kr.subspace.basis[:, :1]], axis=1)
        with pytest.raises(ValueError, match="not orthogonal to the subspace"):
            compute_defect(kr.subspace, complement=U)

    def test_many_pairs_keep_the_dense_path(self, rng):
        # n >= mN leaves no complete QR of G to read the kernel from
        G = rand_orthonormal(rng, 1, 3, 3, 3)
        T = build_perturbed(LaurentMatrixSymbol.zero(1), 3, G, G)
        kr = kernel_of(T)
        assert kr.method == "dense" and kr.complement is None


#: every tklab module that may call is_inner or invert_analytic
CALLERS = (model_spaces, near_invariance, representation)


def _theta_star_prediction_loop(theta, G, H, N):
    """The Theta* prediction as the coefficient formula writes it, one
    CoeffVec at a time: Theta S* H_i, then the model parts of the G_j
    outside the shifted range."""
    ms = build_model_space(theta, N)
    predicted = [theta.act(backward_shift(h)).analytic_part().resized(N) for h in H]
    for g in G:
        split = decompose_against_theta(g, ms)
        if not split.in_range:
            predicted.append(split.model_part)
    return flat_columns(predicted, theta.m * N)


def _factored_prediction_loop(F1, F2, H, N):
    """F2^-1 S* T_{F1*^-1} H_i per vector, with both series to degree N - 1."""
    inv1, inv2 = invert_analytic(F1, N - 1), invert_analytic(F2, N - 1)
    predicted = []
    for h in H:
        intermediate = inv1.adjoint().act(h).analytic_part().resized(N)
        predicted.append(inv2.act(backward_shift(intermediate)).analytic_part().resized(N))
    return flat_columns(predicted, F1.m * N)


def _diagonal_inner(m):
    """diag(z, z^2, ..., z^m): an exactly inner symbol, one entry per power."""
    return LaurentMatrixSymbol.diagonal([[0.0] * (i + 1) + [1.0] for i in range(m)])


class TestPredictionCompressions:
    """The block Toeplitz predictions against the per-vector coefficient loops
    they replaced."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_theta_star_prediction_equals_coefficient_loop(self, m, monkeypatch):
        rng = np.random.default_rng([m, 11])
        N = 16
        theta = _diagonal_inner(m)
        # G_0 lies in the shifted range, G_1 does not
        u = rand_orthonormal(rng, m, N, 5, 1)[0]
        g0 = theta.act(u).analytic_part().resized(N)
        g1 = rand_coeffvec(rng, m, N, 6)
        g1 = unit(g1 - inner_product(g1, g0) * g0)
        G, H = [g0, g1], rand_orthonormal(rng, m, N, 6, 2)
        seen = spy(monkeypatch, "_attach_prediction", [near_invariance])
        rep = class_defect("theta_star", G, H, N, symbol=theta)
        assert rep.details["outside_range_count"] == 1
        assert np.array_equal(seen[0][2], _theta_star_prediction_loop(theta, G, H, N))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_theta_star_prediction_mixing_symbol(self, m, monkeypatch):
        # a mixing Theta sums m products per entry; BLAS and the stacked
        # product round them differently, so equality is to roundoff
        rng = np.random.default_rng([m, 12])
        N = 20
        theta = random_inner(rng, m, 2)
        G, H = rand_orthonormal(rng, m, N, 6, 2), rand_orthonormal(rng, m, N, 6, 2)
        seen = spy(monkeypatch, "_attach_prediction", [near_invariance])
        class_defect("theta_star", G, H, N, symbol=theta)
        reference = _theta_star_prediction_loop(theta, G, H, N)
        assert seen[0][2].shape == reference.shape
        assert np.max(np.abs(seen[0][2] - reference)) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_factored_prediction_equals_coefficient_loop(self, m, monkeypatch):
        rng = np.random.default_rng([m, 13])
        N = 24
        F1, F2 = _invertible_factor(rng, m, 2), _invertible_factor(rng, m, 1)
        H = rand_orthonormal(rng, m, N, 6, 2)
        G = rand_orthonormal(rng, m, N, 6, 2)
        seen = spy(monkeypatch, "_attach_prediction", [near_invariance])
        class_defect("invertible_factors", G, H, N, factors=(F1, F2))
        assert np.max(np.abs(seen[0][2] - _factored_prediction_loop(F1, F2, H, N))) <= 1e-12

    def test_factors_inverted_once_per_check(self, rng, monkeypatch):
        # validation's certificates are the only inversion: the kernel solve
        # and the prediction substitute with them and form no series
        m, N = 2, 20
        F1, F2 = _invertible_factor(rng, m, 2), _invertible_factor(rng, m, 1)
        G, H = rand_orthonormal(rng, m, N, 5, 1), rand_orthonormal(rng, m, N, 5, 1)
        proofs = spy(monkeypatch, "is_invertible_analytic", [cli_reports])
        series = spy(monkeypatch, "invert_analytic", CALLERS)
        sc = class_scenario("invertible_factors", G, H, N, factors=(F1, F2))
        run = ScenarioRun.validated(sc, Tolerances())
        run.predicted_defect()
        assert proofs == [(F1,), (F2,)] and series == []
        assert run.kernel.factors is run.certificates


class TestOneInnernessTest:
    def test_theta_star_check_runs_one_grid_test(self, rng, monkeypatch):
        m, N = 2, 16
        theta = _diagonal_inner(m)
        G, H = rand_orthonormal(rng, m, N, 5, 1), rand_orthonormal(rng, m, N, 5, 1)
        calls = spy(monkeypatch, "is_inner", CALLERS)
        class_defect("theta_star", G, H, N, symbol=theta)
        assert len(calls) == 1

    def test_theta_star_check_rejects_non_inner(self, rng):
        bad = LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]])
        G = rand_orthonormal(rng, 2, 10, 4, 1)
        with pytest.raises(ScenarioValidationError, match="fails the inner test"):
            ScenarioRun.validated(class_scenario("theta_star", G, G, 10, symbol=bad),
                                  Tolerances())
