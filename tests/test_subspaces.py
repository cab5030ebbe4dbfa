import numpy as np
import pytest

from tklab import subspaces
from tklab.errors import ContainmentError, DimensionMismatch
from tklab.hardy_core import CoeffVec, inner_product, reproducing_column
from tklab.near_invariance import kernel_of
from tklab.operators import ToeplitzCompression, build_perturbed
from tklab.subspaces import (SigmaGap, Subspace, column_gram_deviation, column_span,
                             gram_schmidt, is_contained, nullspace,
                             ortho_complement_within, project, rank_cut, sigma_audit,
                             span_of, subspace_equal, zero_space)
from tklab.symbols import LaurentMatrixSymbol

from conftest import linked, rand_coeffvec, unit
from reference_oracle import intersect, vanishing_at_zero_space, zero_at_origin_slice


def span_monomials(m, N, pairs):
    return span_of([CoeffVec.monomial(m, N, c, d) for c, d in pairs])


class TestNullspace:
    def test_zero_matrix_full_ambient(self):
        ns = nullspace(np.zeros((4, 6)), (2, 3))
        assert ns.dim == 6
        assert ns.sigma_gap.ratio == 0.0

    def test_identity_trivial(self):
        ns = nullspace(np.eye(6), (2, 3))
        assert ns.dim == 0

    def test_backward_shift_kernel_is_constants(self):
        # P(zbar f) = 0 iff f constant; the oracle is the hand computation
        comp = ToeplitzCompression(LaurentMatrixSymbol.shift(1).adjoint(), 4)
        ns = nullspace(comp.matrix, (1, 4))
        assert ns.dim == 1
        vec = ns.basis_vectors()[0]
        assert abs(abs(vec.coeffs[0, 0]) - 1.0) < 1e-12
        assert np.allclose(vec.coeffs[0, 1:], 0)

    def test_sigma_gap_reported(self, rng):
        A = np.diag([1.0, 1.0, 1e-14])
        ns = nullspace(A, (1, 3))
        assert ns.dim == 1
        assert ns.sigma_gap.zero_side == pytest.approx(1e-14)
        assert ns.sigma_gap.signal_side == pytest.approx(1.0)
        assert ns.sigma_gap.ratio < 1e-3


class TestSpan:
    def test_duplicates_collapse(self):
        e1 = CoeffVec.monomial(2, 3, 0, 0)
        assert span_of([e1, e1]).dim == 1

    def test_independent_pair(self):
        assert span_monomials(2, 3, [(0, 0), (1, 0)]).dim == 2

    def test_noise_collapses_at_tolerance(self):
        a = CoeffVec([[1.0, 0.0]])
        b = CoeffVec([[1.0, 1e-14]])
        assert span_of([a, b], tol_rel=1e-10).dim == 1

    def test_all_zero_input(self):
        assert span_of([CoeffVec.zeros(2, 3)]).dim == 0

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            span_of([])

    def test_floor_suppresses_noise_directions(self):
        tiny = CoeffVec([[1e-12, 0.0]])
        assert span_of([tiny], floor=1e-8).dim == 0
        assert span_of([tiny]).dim == 1


class TestComplementAndIntersection:
    def test_complement_of_self_is_zero(self):
        M = span_monomials(1, 3, [(0, 0), (0, 1)])
        assert ortho_complement_within(M, M).dim == 0

    def test_complement_of_zero_is_m(self):
        M = span_monomials(1, 3, [(0, 0), (0, 1)])
        out = ortho_complement_within(M, zero_space(1, 3))
        ok, _ = subspace_equal(out, M)
        assert ok

    def test_monomial_complement(self):
        M = span_monomials(1, 4, [(0, 0), (0, 1)])
        A = span_monomials(1, 4, [(0, 1)])
        out = ortho_complement_within(M, A)
        ok, _ = subspace_equal(out, span_monomials(1, 4, [(0, 0)]))
        assert ok

    def test_not_contained_raises(self):
        M = span_monomials(1, 4, [(0, 0)])
        A = span_monomials(1, 4, [(0, 1)])
        with pytest.raises(ContainmentError):
            ortho_complement_within(M, A)

    def test_intersection_examples(self):
        m, N = 1, 4
        e = lambda d: (0, d)
        A = span_monomials(m, N, [e(0), e(1)])
        B = span_monomials(m, N, [e(1), e(2)])
        mid = intersect(A, B)
        ok, _ = subspace_equal(mid, span_monomials(m, N, [e(1)]))
        assert ok
        assert intersect(span_monomials(m, N, [e(0)]),
                         span_monomials(m, N, [e(1)])).dim == 0
        self_int = intersect(A, A)
        ok, _ = subspace_equal(self_int, A)
        assert ok

    def test_intersection_contained_in_both(self, rng):
        m, N = 2, 5
        A = span_of([rand_coeffvec(rng, m, N, 4) for _ in range(4)])
        B = span_of([rand_coeffvec(rng, m, N, 4) for _ in range(4)])
        mid = intersect(A, B)
        ok_a, _ = is_contained(mid, A, 1e-8)
        ok_b, _ = is_contained(mid, B, 1e-8)
        assert ok_a and ok_b


class TestProjection:
    def test_member_fixed(self, rng):
        M = span_of([rand_coeffvec(rng, 2, 4, 3) for _ in range(3)])
        F = M.basis_vectors()[0]
        assert (project(F, M) - F).norm() < 1e-12

    def test_orthogonal_killed(self):
        M = span_monomials(2, 3, [(0, 0)])
        F = CoeffVec.monomial(2, 3, 1, 0)
        assert project(F, M).norm() < 1e-14

    def test_reproducing_column_projection_formula(self, rng):
        # project the evaluation columns onto the complement of one unit
        # vector: the closed form has entries -conj(g_i(0)) g_t + delta
        m, N = 3, 6
        G = unit(rand_coeffvec(rng, m, N, 4))
        M = span_of([G]).perp()
        for i in range(m):
            col = reproducing_column(m, N, i)
            got = project(col, M)
            expected = col - complex(np.conj(G.coeffs[i, 0])) * G
            assert (got - expected).norm() < 1e-12

    def test_idempotent(self, rng):
        M = span_of([rand_coeffvec(rng, 2, 5, 4) for _ in range(3)])
        F = rand_coeffvec(rng, 2, 5, 5)
        once = project(F, M)
        twice = project(once, M)
        assert (once - twice).norm() < 1e-12
        # residual is orthogonal to M
        resid = F - once
        for b in M.basis_vectors():
            assert abs(inner_product(resid, b)) < 1e-10


class TestContainment:
    def test_reflexive(self, rng):
        A = span_of([rand_coeffvec(rng, 2, 4, 3) for _ in range(2)])
        ok, resid = is_contained(A, A, 1e-10)
        assert ok and resid < 1e-12

    def test_disjoint_lines(self):
        a = span_monomials(2, 3, [(0, 0)])
        b = span_monomials(2, 3, [(1, 0)])
        ok, resid = is_contained(a, b, 1e-8)
        assert not ok and resid == pytest.approx(1.0)

    def test_tolerance_semantics(self):
        eps = 1e-12
        tilted = span_of([CoeffVec([[1.0, eps], [0, 0]])])
        target = span_monomials(2, 2, [(0, 0)])
        ok, _ = is_contained(tilted, target, 1e-8)
        assert ok

    def test_matches_per_column_residuals(self, rng):
        A = span_of([rand_coeffvec(rng, 2, 6, 5) for _ in range(3)])
        B = span_of([rand_coeffvec(rng, 2, 6, 5) for _ in range(4)])
        reference = max(B.residual_flat(A.basis[:, i]) for i in range(A.dim))
        assert is_contained(A, B)[1] == pytest.approx(reference, rel=1e-12)
        assert is_contained(A, zero_space(2, 6))[1] == pytest.approx(1.0)

    def test_grassmann_triangle(self, rng):
        # two containments at tolerance compose at twice the tolerance
        m, N, tol = 2, 5, 1e-8
        C = span_of([rand_coeffvec(rng, m, N, 4) for _ in range(6)])
        B_vecs = [project(rand_coeffvec(rng, m, N, 4), C) for _ in range(4)]
        B = span_of(B_vecs)
        A_vecs = [project(rand_coeffvec(rng, m, N, 4), B) for _ in range(2)]
        A = span_of(A_vecs)
        ok_ab, _ = is_contained(A, B, tol)
        ok_bc, _ = is_contained(B, C, tol)
        ok_ac, _ = is_contained(A, C, 2 * tol)
        assert ok_ab and ok_bc and ok_ac


class TestSliceAndAmbient:
    def test_slice_examples(self):
        M = span_monomials(1, 3, [(0, 0), (0, 1)])
        sl = zero_at_origin_slice(M)
        ok, _ = subspace_equal(sl, span_monomials(1, 3, [(0, 1)]))
        assert ok

        M2 = span_monomials(1, 4, [(0, 2)])
        ok, _ = subspace_equal(zero_at_origin_slice(M2), M2)
        assert ok

        M3 = span_of([CoeffVec([[1.0, 1.0]])])  # 1 + z
        assert zero_at_origin_slice(M3).dim == 0

    def test_slice_members_vanish_and_belong(self, rng):
        M = span_of([rand_coeffvec(rng, 2, 5, 5) for _ in range(5)])
        sl = zero_at_origin_slice(M)
        for F in sl.basis_vectors():
            assert np.linalg.norm(F.coeffs[:, 0]) < 1e-10
        ok, _ = is_contained(sl, M, 1e-10)
        assert ok

    def test_dimension_split(self, rng):
        m, N = 2, 4
        M = span_of([rand_coeffvec(rng, m, N, 4) for _ in range(3)])
        assert M.dim + M.perp().dim == m * N
        assert np.max(np.abs(M.basis.conj().T @ M.perp().basis)) < 1e-14
        assert np.array_equal(zero_space(m, N).perp().basis, np.eye(m * N))
        assert Subspace(m, N, np.eye(m * N), 0.0).perp().dim == 0

    def test_vanishing_space(self):
        V = vanishing_at_zero_space(2, 4)
        assert V.dim == 6
        for F in V.basis_vectors():
            assert np.linalg.norm(F.coeffs[:, 0]) == 0

    def test_basis_orthonormality_enforced(self):
        bad = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            Subspace(2, 2, bad, 0.0)


class TestSigmaGap:
    def test_at_reads_both_sides_of_the_cut(self):
        s = np.array([3.0, 2.0, 1e-14])
        assert SigmaGap.at(s, 2).to_pair() == [1e-14, 2.0]
        assert SigmaGap.at(s, 0).to_pair() == [3.0, None]
        assert SigmaGap.at(s, 3).to_pair() == [None, 1e-14]
        assert SigmaGap.at(np.zeros(0), 0).to_pair() == [None, None]


class TestRankCut:
    def test_pads_and_truncates_to_the_width(self):
        s = np.array([2.0, 1.0, 1e-13])
        padded = rank_cut(s, 5, (3, 5), None, 0.0)
        assert padded.threshold == pytest.approx(1e-9)
        assert (padded.rank, padded.gap.to_pair()) == (2, [1e-13, 1.0])
        # past the width lies roundoff: a full-rank cut has no zero side
        assert rank_cut(s, 2, (3, 2), None, 0.0).gap.to_pair() == [None, 1.0]
        assert rank_cut(s, 4, (3, 4), None, 1.5).gap.to_pair() == [1.0, 2.0]

    def test_empty_spectrum_cuts_at_the_floor(self):
        cut = rank_cut(np.zeros(0), 0, (3, 0), None, 1e-12)
        assert (cut.threshold, cut.rank, cut.gap.to_pair()) == (1e-12, 0, [None, None])

    def test_zero_stack_spans_nothing_at_the_floor(self):
        span = column_span(np.zeros((6, 2), complex), (2, 3), None, 1e-8)
        assert (span.dim, span.tol, span.sigma_gap.to_pair()) == (0, 1e-8, [0.0, None])

    def test_audit_judges_an_empty_cut_by_the_cut(self):
        empty = SigmaGap(1e-6, None)
        assert empty.audited_ratio(1e-4, False) == pytest.approx(1e-2)
        # a unit spectrum is judged against min(cut, 1): a floor far above
        # it is no scale
        assert empty.audited_ratio(1e300, False) == pytest.approx(1e-306)
        assert empty.audited_ratio(1e300, True) == pytest.approx(1e-6)
        assert sigma_audit([(empty, 1e300, True)], 1e-3)
        assert not sigma_audit([(empty, 1e300, True), (SigmaGap(1.0, 2.0), 1.5, False)],
                               1e-3)
        assert not sigma_audit([(SigmaGap(float("nan"), 1.0), 0.5, False)], 1e-3)
        assert sigma_audit([], 1e-3)


def _frame_loop(X, drop_tol):
    """The W loop of build_frame before it called gram_schmidt."""
    W = []
    for idx in range(X.shape[1]):
        v = X[:, idx]
        for w in W:
            v = v - w * np.vdot(w, v)
        nrm = float(np.linalg.norm(v))
        if nrm > drop_tol:
            W.append(v / nrm)
    return W


def _coefficient_loop(vectors, drop_tol):
    """The rank-one analysis loop before it called gram_schmidt: Q and C."""
    k = len(vectors)
    Q, C = [], np.zeros((k, k), dtype=complex)
    for i, v in enumerate(vectors):
        coeff = np.zeros(k, dtype=complex)
        for j, q in enumerate(Q):
            overlap = np.vdot(q, v)
            v = v - q * overlap
            coeff += overlap * C[j]
        nrm = float(np.linalg.norm(v))
        if nrm > drop_tol:
            unit_i = np.zeros(k, dtype=complex)
            unit_i[i] = 1.0
            C[len(Q)] = (unit_i - coeff) / nrm
            Q.append(v / nrm)
    return Q, C[:len(Q)]


class TestGramSchmidt:
    def test_drops_dependent_column_and_factors_input(self, rng):
        X = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
        X = np.concatenate([X[:, :2], (X[:, 0] - 2j * X[:, 1])[:, None], X[:, 2:]], axis=1)
        Q, C = gram_schmidt(X, 1e-10)
        assert Q.shape == (12, 4) and C.shape == (4, 5)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(4))) < 1e-14
        assert np.max(np.abs(Q - X @ C.T)) < 1e-13
        assert np.all(C[:, 2] == 0)  # the dependent column contributes nothing
        # above the remainder's norm the column is kept
        assert gram_schmidt(X[:, :3], 1e-20)[0].shape[1] == 3

    def test_empty_input(self):
        Q, C = gram_schmidt(np.zeros((6, 0), dtype=complex), 1e-10)
        assert Q.shape == (6, 0) and C.shape == (0, 0)

    def test_equals_previous_loops_bit_for_bit(self, rng):
        for m, N, k in ((1, 9, 3), (2, 16, 7), (3, 10, 5)):
            X = rng.standard_normal((m * N, k)) + 1j * rng.standard_normal((m * N, k))
            X[:, -1] = X[:, 0] + X[:, 1]
            Q, _ = gram_schmidt(X, 1e-10)
            ref = _frame_loop(X, 1e-10)
            assert Q.shape[1] == len(ref) == k - 1
            assert all(np.array_equal(Q[:, j], w) for j, w in enumerate(ref))
            Q, C = gram_schmidt(np.asfortranarray(X), 1e-10)
            ref_Q, ref_C = _coefficient_loop([X[:, i].copy() for i in range(k)], 1e-10)
            assert all(np.array_equal(Q[:, j], w) for j, w in enumerate(ref_Q))
            assert np.array_equal(C, ref_C)


def _dense_gram_deviation(X):
    """The Gram check as BLAS computes it."""
    return float(np.max(np.abs(X.conj().T @ X - np.eye(X.shape[1]))))


class TestGramDeviation:
    def _routes(self, monkeypatch):
        """Whether each product the Gram check forms came back as links plus
        a block."""
        real, held = subspaces._product, []

        def spy(X, Y):
            out = real(X, Y)
            held.append(isinstance(out, subspaces._LinkBlock))
            return out

        monkeypatch.setattr(subspaces, "_product", spy)
        return held

    def test_dense_basis_keeps_blas_bitwise(self, rng, monkeypatch):
        held = self._routes(monkeypatch)
        X = np.linalg.qr(rng.standard_normal((96, 90)) + 1j * rng.standard_normal((96, 90)))[0]
        assert column_gram_deviation(X) == _dense_gram_deviation(X)
        assert held == [False]

    def test_householder_basis_takes_the_support_route(self, rng, monkeypatch):
        # the zero route's kernel basis: all but a small block are unit
        # vectors, held as links; each case is held the same way
        G = [unit(rand_coeffvec(rng, 2, 256, 8)) for _ in range(3)]
        held_basis = kernel_of(build_perturbed(
            LaurentMatrixSymbol.zero(2), 256, G, G, require_orthonormal=False)).subspace.held
        basis = subspaces._dense(held_basis)
        assert held_basis.link_cols.size == basis.shape[1] - held_basis.J.size > 400
        held = self._routes(monkeypatch)
        cases = [basis, basis * np.r_[2.0, np.ones(basis.shape[1] - 1)], basis.copy()]
        cases[2][:, 5] = 0.0  # a zero column misses its diagonal entry: deviation 1
        cases.append(basis.copy())
        cases[3][:, 7] += 1e-3 * basis[:, 300]  # the block takes link 300's row
        for X in cases:
            assert column_gram_deviation(linked(X)) == pytest.approx(
                _dense_gram_deviation(X), rel=1e-12, abs=1e-15)
        assert held == [True] * len(cases)
        assert column_gram_deviation(held_basis) <= 1e-14
        assert column_gram_deviation(linked(cases[2])) == 1.0
