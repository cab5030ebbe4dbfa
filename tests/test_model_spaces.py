import numpy as np
import pytest

from tklab import model_spaces
from tklab.errors import InconclusiveCutError, NotInnerError
from tklab.hardy_core import CoeffVec, inner_product
from tklab.model_spaces import (build_model_space, decompose_against_theta,
                                project_onto_model_formula)
from tklab.operators import ToeplitzCompression
from tklab.subspaces import (is_contained, nullspace, project, span_of,
                             subspace_equal)
from tklab.symbols import LaurentMatrixSymbol, blaschke_taylor

from conftest import rand_coeffvec, random_inner


class TestBuild:
    def test_monomial_model_space(self):
        s, m, N = 2, 2, 8
        ms = build_model_space(LaurentMatrixSymbol.shift(m, s), N)
        assert ms.as_subspace.dim == m * s
        expected = span_of([CoeffVec.monomial(m, N, i, j)
                            for i in range(m) for j in range(s)])
        ok, _ = subspace_equal(ms.as_subspace, expected)
        assert ok

    def test_identity_gives_trivial_space(self):
        ms = build_model_space(LaurentMatrixSymbol.identity(2), 6)
        assert ms.as_subspace.dim == 0

    def test_exact_monomial_mass_split(self):
        theta = LaurentMatrixSymbol.shift(2, 2)
        ms = build_model_space(theta, 8)
        _, rng_space = _dense_model_space(theta, 8)
        assert ms.as_subspace.dim + rng_space.dim == 16
        _assert_orthogonal_to_range(ms, rng_space)

    def test_blaschke_diagonal_dimension(self):
        # one Blaschke-factor entry and one monomial entry: two directions
        # on the interior window; the oracle is the complement of the
        # exactly-built range generators
        N, alpha, R = 24, 0.3, 20
        theta = LaurentMatrixSymbol.diagonal(
            [blaschke_taylor(alpha, R), [0.0, 1.0]])
        ms = build_model_space(theta, N, tol_inner=1e-6)
        assert ms.as_subspace.dim == 2
        # independent construction: full-ambient complement of the range span
        gens = []
        for j in range(N - theta.d):
            for i in range(2):
                gens.append(theta.act(CoeffVec.monomial(2, N, i, j))
                            .analytic_part().resized(N))
        oracle = span_of(gens).perp()
        ok, resid = is_contained(ms.as_subspace, oracle, 1e-6)
        assert ok, resid

    def test_half_pole_blaschke_needs_wider_window(self):
        # the same two-direction count with a zero at 1/2: the truncation
        # tail (1/2)^R must clear the rank cut, which takes a wider window
        N, R = 48, 30
        theta = LaurentMatrixSymbol.diagonal(
            [blaschke_taylor(0.5, R), [0.0, 1.0]])
        ms = build_model_space(theta, N, tol_inner=1e-6)
        assert ms.as_subspace.dim == 2

    def test_not_inner_rejected(self):
        with pytest.raises(NotInnerError):
            build_model_space(LaurentMatrixSymbol.diagonal([[2.0, 1.0]]), 8)

    def test_not_analytic_rejected(self):
        with pytest.raises(NotInnerError):
            build_model_space(LaurentMatrixSymbol.shift(1).adjoint(), 8)

    def test_orthogonality_of_parts(self):
        theta = LaurentMatrixSymbol.shift(2, 3)
        ms = build_model_space(theta, 10)
        _assert_orthogonal_to_range(ms, _dense_model_space(theta, 10)[1])

    def test_interior_window_fully_covered(self):
        # no direction inside [0, N-d) may fall outside model + range
        N = 24
        theta = LaurentMatrixSymbol.diagonal(
            [blaschke_taylor(0.3, 20), [0.0, 1.0]])
        ms = build_model_space(theta, N, tol_inner=1e-6)
        _, rng_space = _dense_model_space(theta, N)
        combined = span_of(ms.as_subspace.basis_vectors() + rng_space.basis_vectors())
        for j in range(ms.interior):
            for i in range(2):
                F = CoeffVec.monomial(2, N, i, j)
                assert combined.residual_flat(F.flatten()) < 1e-6


def _no_dense_svd(*args, **kwargs):
    raise AssertionError("dense nullspace called")


def _dense_model_space(theta, N):
    """The dense construction: SVD nullspace of the compression of Theta* and
    the SVD span of the shifted-range generators, one Theta action each."""
    m = theta.m
    model = nullspace(ToeplitzCompression(theta.adjoint(), N).matrix, (m, N))
    gens = [theta.act(CoeffVec.monomial(m, N, i, j)).analytic_part().resized(N)
            for j in range(N - theta.d) for i in range(m)]
    return model, span_of(gens)


def _assert_orthogonal_to_range(ms, rng_space):
    cross = ms.as_subspace.basis.conj().T @ rng_space.basis
    assert np.max(np.abs(cross), initial=0.0) < 1e-8


class TestStructuredModelSpaceOracle:
    @pytest.mark.parametrize("m,degree,N", [(1, 1, 8), (1, 3, 40), (2, 1, 16),
                                            (2, 3, 64), (3, 2, 12), (3, 3, 48)])
    def test_random_inner_matches_dense(self, m, degree, N, monkeypatch):
        theta = random_inner(np.random.default_rng([m, degree, N]), m, degree)
        # an exactly inner Theta is solved inside R^perp: no dense SVD runs
        monkeypatch.setattr(model_spaces, "nullspace", _no_dense_svd)
        ms = build_model_space(theta, N)
        model, rng_space = _dense_model_space(theta, N)
        assert ms.as_subspace.dim == model.dim == degree
        assert subspace_equal(ms.as_subspace, model, 1e-10)[0]
        _assert_orthogonal_to_range(ms, rng_space)

    def test_mixed_monomials_match_dense(self):
        theta = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
        ms = build_model_space(theta, 32)
        model, rng_space = _dense_model_space(theta, 32)
        assert ms.as_subspace.dim == model.dim == 5
        assert subspace_equal(ms.as_subspace, model, 1e-10)[0]
        _assert_orthogonal_to_range(ms, rng_space)

    def test_uncertified_cut_falls_back_to_the_dense_svd(self, monkeypatch):
        # the certified gap of nullspace_within cannot settle a cut at 0.999
        # of |C|; the dense SVD decides, as in kernel_of, and keeps the unit
        # singular values of the exact inner compression
        theta, N = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]]), 32
        real, certified = model_spaces.nullspace_within, []
        monkeypatch.setattr(model_spaces, "nullspace_within",
                            lambda *args, **kwargs: certified.append(real(*args, **kwargs))
                            or certified[-1])
        ms = build_model_space(theta, N, tol_rel=0.999)
        assert certified == [None]
        comp = ToeplitzCompression(theta.adjoint(), N)
        dense = nullspace(comp.matrix, (2, N), tol_rel=0.999)
        assert np.array_equal(ms.as_subspace.basis, dense.basis)
        assert ms.as_subspace.tol == dense.tol
        model, _ = _dense_model_space(theta, N)
        assert ms.as_subspace.dim == model.dim
        assert subspace_equal(ms.as_subspace, model, 1e-10)[0]

    @pytest.mark.parametrize("theta,tol_inner", [
        (LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]]), 1e-8),
        (LaurentMatrixSymbol.diagonal([blaschke_taylor(0.3, 20), [0.0, 1.0]]), 1e-6)],
        ids=["exactly_inner", "series_inner"])
    def test_cut_at_the_top_of_the_spectrum_is_inconclusive(self, theta, tol_inner):
        # every direction would be null: no model space, and no cross-check
        # failure passed off as an assembly bug
        with pytest.raises(InconclusiveCutError, match="largest singular value"):
            build_model_space(theta, 24, tol_inner=tol_inner, tol_rel=1.0)

    def test_truncated_blaschke_matches_dense(self):
        N = 24
        theta = LaurentMatrixSymbol.diagonal([blaschke_taylor(0.3, 20), [0.0, 1.0]])
        ms = build_model_space(theta, N, tol_inner=1e-6)
        model, rng_space = _dense_model_space(theta, N)
        assert subspace_equal(ms.as_subspace, model, 1e-10)[0]
        _assert_orthogonal_to_range(ms, rng_space)


class TestProjection:
    def test_range_member_killed(self):
        m, N, s = 2, 10, 2
        theta = LaurentMatrixSymbol.shift(m, s)
        ms = build_model_space(theta, N)
        F = theta.act(CoeffVec.monomial(m, N, 0, 3)).analytic_part().resized(N)
        assert project(F, ms.as_subspace).norm() < 1e-12

    def test_constants_survive_shift_symbol(self):
        ms = build_model_space(LaurentMatrixSymbol.shift(2, 1), 8)
        F = CoeffVec([[1.0], [2.0]]).resized(8)
        assert (project(F, ms.as_subspace) - F).norm() < 1e-12

    def test_scalar_monomial_cut(self):
        ms = build_model_space(LaurentMatrixSymbol.shift(1, 2), 8)
        F = CoeffVec([[1.0, 1.0, 1.0]]).resized(8)  # 1 + z + z^2
        out = project(F, ms.as_subspace)
        assert np.allclose(out.coeffs[0, :3], [1.0, 1.0, 0.0], atol=1e-12)

    def test_formula_and_subspace_routes_agree(self, rng):
        theta = LaurentMatrixSymbol.diagonal([[0, 0, 1.0], [0, 0, 0, 1.0]])
        N = 12
        ms = build_model_space(theta, N)
        for _ in range(4):
            F = rand_coeffvec(rng, 2, N, N - theta.d)
            a = project(F, ms.as_subspace)
            b = project_onto_model_formula(F, ms)
            keep = ms.interior
            assert np.linalg.norm(a.coeffs[:, :keep] - b.coeffs[:, :keep]) < 1e-8

    def test_idempotent_and_self_adjoint(self, rng):
        theta = LaurentMatrixSymbol.shift(2, 2)
        N = 10
        ms = build_model_space(theta, N)
        F = rand_coeffvec(rng, 2, N, N - 2)
        G = rand_coeffvec(rng, 2, N, N - 2)
        PF = project(F, ms.as_subspace)
        assert (project(PF, ms.as_subspace) - PF).norm() < 1e-12
        lhs = inner_product(PF, G)
        rhs = inner_product(F, project(G, ms.as_subspace))
        assert abs(lhs - rhs) < 1e-8


class TestDecomposition:
    def test_model_member_untouched(self):
        m, N, s = 2, 8, 2
        ms = build_model_space(LaurentMatrixSymbol.shift(m, s), N)
        G = CoeffVec.monomial(m, N, 0, 1)
        split = decompose_against_theta(G, ms)
        assert (split.model_part - G).norm() < 1e-12
        assert split.range_part.norm() < 1e-12
        assert not split.in_range

    def test_range_member_detected(self):
        m, N, s = 2, 8, 2
        theta = LaurentMatrixSymbol.shift(m, s)
        ms = build_model_space(theta, N)
        G = theta.act(CoeffVec.monomial(m, N, 0, 0)).analytic_part().resized(N)
        split = decompose_against_theta(G, ms)
        assert split.in_range
        assert split.model_part.norm() < 1e-12

    def test_named_decomposition_recovered(self):
        # model part (z^{s-1}, 1, ..., 1) plus a shifted-range tail
        s, m, N = 3, 3, 12
        theta = LaurentMatrixSymbol.shift(m, s)
        ms = build_model_space(theta, N)
        gz = np.zeros((m, N), dtype=complex)
        gz[0, s - 1] = 1.0
        gz[1:, 0] = 1.0
        model_part = CoeffVec(gz)
        tail = theta.act(CoeffVec.monomial(m, N, 1, 2)).analytic_part().resized(N)
        split = decompose_against_theta(model_part + tail, ms)
        assert (split.model_part - model_part).norm() < 1e-12
        assert (split.range_part - tail).norm() < 1e-12

    def test_pythagoras(self, rng):
        theta = LaurentMatrixSymbol.shift(2, 2)
        N = 10
        ms = build_model_space(theta, N)
        G = rand_coeffvec(rng, 2, N, N - 2)
        split = decompose_against_theta(G, ms)
        total = split.model_part.norm_sq() + split.range_part.norm_sq()
        assert abs(total - G.norm_sq()) < 1e-8 * max(G.norm_sq(), 1.0)

    def test_monomial_dimension_formula(self):
        for m, s in ((1, 1), (2, 3), (3, 2)):
            ms = build_model_space(LaurentMatrixSymbol.shift(m, s), s + 6)
            assert ms.as_subspace.dim == m * s
