import numpy as np
import pytest

from tklab.errors import DimensionMismatch, OrthonormalityError
from tklab.hardy_core import CoeffVec
from tklab.operators import (ToeplitzCompression, _block_toeplitz,
                             apply_block_toeplitz, brown_halmos_check,
                             build_perturbed, orthonormalize_family, range_complement)
from tklab.symbols import LaurentMatrixSymbol

from conftest import rand_coeffvec, rand_orthonormal, random_inner, svd_shapes, unit
from reference_oracle import gram_deviation, range_complement_block
from test_symbols import random_symbol


class TestToeplitzBuild:
    def test_zero_symbol(self):
        T = ToeplitzCompression(LaurentMatrixSymbol.zero(2), 4)
        assert np.max(np.abs(T.matrix)) == 0

    def test_shift_is_subdiagonal(self):
        T = ToeplitzCompression(LaurentMatrixSymbol.shift(1), 3)
        expected = np.diag([1.0, 1.0], -1)
        assert np.allclose(T.matrix, expected)

    def test_adjoint_symbol_gives_conjugate_transpose(self):
        Z = LaurentMatrixSymbol.shift(2)
        a = ToeplitzCompression(Z.adjoint(), 4)
        b = ToeplitzCompression(Z, 4)
        assert np.array_equal(a.matrix, b.matrix.conj().T)

    def test_adjoint_identity_random(self, rng):
        A = random_symbol(rng, 2, 2)
        assert np.array_equal(ToeplitzCompression(A.adjoint(), 6).matrix,
                              ToeplitzCompression(A, 6).matrix.conj().T)

    def test_bandwidth_guard(self):
        with pytest.raises(DimensionMismatch):
            ToeplitzCompression(LaurentMatrixSymbol.shift(1, 4), 4)

    def test_interior_window(self):
        T = ToeplitzCompression(LaurentMatrixSymbol.shift(2, 3), 10)
        assert T.interior == 7

    def test_analytic_apply_exact_on_interior(self, rng):
        # multiplication by an analytic symbol is exact on all coefficients
        # the window can hold, when the input is polynomial
        A = random_symbol(rng, 2, 2, analytic=True)
        N = 10
        T = ToeplitzCompression(A, N)
        F = rand_coeffvec(rng, 2, N, N - A.d)
        got = T.apply(F)
        exact = A.act(F).analytic_part().resized(N)
        assert np.allclose(got.coeffs, exact.coeffs, atol=1e-12)

    def test_block_structure(self, rng):
        A = random_symbol(rng, 2, 1)
        N = 5
        T = ToeplitzCompression(A, N)
        for j in range(N):
            for t in range(N):
                blk = T.matrix[2 * j:2 * j + 2, 2 * t:2 * t + 2]
                assert np.array_equal(blk, A.fourier(j - t))


def _block_toeplitz_loop(symbol, rows, cols):
    """Reference assembly, one block at a time."""
    m = symbol.m
    out = np.zeros((rows * m, cols * m), dtype=complex)
    for k in symbol.powers():
        for t in range(cols):
            if 0 <= t + k < rows:
                out[(t + k) * m:(t + k + 1) * m, t * m:(t + 1) * m] = symbol.fourier(k)
    return out


class TestBlockToeplitz:
    @pytest.mark.parametrize("rows,cols", [(7, 7), (9, 6), (5, 8), (1, 4)])
    def test_assembly_matches_block_loop(self, rng, rows, cols):
        phi = random_symbol(rng, 2, 3)
        assert np.array_equal(_block_toeplitz(phi, rows, cols),
                              _block_toeplitz_loop(phi, rows, cols))

    @pytest.mark.parametrize("rows,cols", [(7, 7), (9, 6), (5, 8)])
    def test_matrix_free_apply_matches_matrix(self, rng, rows, cols):
        phi = random_symbol(rng, 3, 2)
        X = rng.standard_normal((3 * cols, 4)) + 1j * rng.standard_normal((3 * cols, 4))
        assert np.allclose(apply_block_toeplitz(phi, X, rows),
                           _block_toeplitz_loop(phi, rows, cols) @ X,
                           rtol=0, atol=1e-13)


class TestPerturbed:
    def test_rank_zero_equals_base(self):
        T = build_perturbed(LaurentMatrixSymbol.shift(2), 5, [], [])
        assert np.array_equal(T.matrix,
                              ToeplitzCompression(LaurentMatrixSymbol.shift(2), 5).matrix)

    def test_zero_symbol_rank_one_single_entry(self):
        e = CoeffVec.monomial(1, 3, 0, 0)
        T = build_perturbed(LaurentMatrixSymbol.zero(1), 3, [e], [e])
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(T.matrix, expected)

    def test_hand_apply(self):
        # symbol z^2, G = 1, H = z: T(1) = P(z^2) + <1,1> z = z^2 + z? No:
        # T(1) = z^2 * 1 projected (= z^2) plus z; at N >= 4 both survive
        N = 4
        G = CoeffVec.monomial(1, N, 0, 0)
        H = CoeffVec.monomial(1, N, 0, 1)
        T = build_perturbed(LaurentMatrixSymbol.shift(1, 2), N, [G], [H])
        out = T.apply(CoeffVec.monomial(1, N, 0, 0))
        expected = np.zeros(N, dtype=complex)
        expected[1] = 1.0   # the rank-one term
        expected[2] = 1.0   # the multiplication term
        assert np.allclose(out.coeffs[0], expected)

    def test_orthonormality_enforced(self, rng):
        v = rand_coeffvec(rng, 2, 6, 3)
        with pytest.raises(OrthonormalityError) as err:
            build_perturbed(LaurentMatrixSymbol.zero(2), 6, [v], [unit(v)])
        assert "deviates" in str(err.value)

    def test_orthonormality_optional_for_analyses(self, rng):
        v = rand_coeffvec(rng, 2, 6, 3)
        T = build_perturbed(LaurentMatrixSymbol.zero(2), 6, [v], [v],
                            require_orthonormal=False)
        assert T.rank == 1

    def test_perturbation_rank(self, rng):
        n, N, m = 3, 8, 2
        G = rand_orthonormal(rng, m, N, 5, n)
        H = rand_orthonormal(rng, m, N, 5, n)
        T = build_perturbed(LaurentMatrixSymbol.zero(m), N, G, H)
        s = np.linalg.svd(T.matrix, compute_uv=False)
        assert int(np.sum(s > 1e-10)) == n

    def test_matrix_and_functional_forms_agree(self, rng):
        m, N = 2, 8
        G = rand_orthonormal(rng, m, N, 4, 2)
        H = rand_orthonormal(rng, m, N, 4, 2)
        T = build_perturbed(LaurentMatrixSymbol.shift(m), N, G, H)
        F = rand_coeffvec(rng, m, N, N)
        assert np.allclose(T.apply(F).flatten(), T.matrix @ F.flatten(), atol=1e-12)

    def test_action_matrix_extends_rows(self):
        T = build_perturbed(LaurentMatrixSymbol.shift(1, 2), 5,
                            [CoeffVec.monomial(1, 5, 0, 0)],
                            [CoeffVec.monomial(1, 5, 0, 1)])
        act = T.action_matrix()
        assert act.shape == (7, 5)
        # top-degree monomial no longer hides: z^4 -> z^6 row survives
        out = act @ CoeffVec.monomial(1, 5, 0, 4).flatten()
        assert abs(out[6]) == 1.0

    def test_square_matrix_is_action_prefix(self, rng):
        m, N = 2, 9
        phi = random_symbol(rng, m, 2)
        G = rand_orthonormal(rng, m, N, 6, 3)
        H = rand_orthonormal(rng, m, N, 6, 3)
        T = build_perturbed(phi, N, G, H)
        act = T.action_matrix()
        assert act.shape == (m * (N + 2), m * N)
        assert np.array_equal(T.matrix, act[:m * N])
        bump = sum(np.outer(h.flatten(), g.flatten().conj()) for g, h in zip(G, H))
        assert np.max(np.abs(T.matrix - (_block_toeplitz(phi, N, N) + bump))) < 1e-14
        assert np.array_equal(act[m * N:], _block_toeplitz(phi, N + 2, N)[m * N:])
        assert not act.flags.writeable

    def test_orthonormalize_family_helper(self, rng):
        fam = [rand_coeffvec(rng, 2, 6, 4) for _ in range(3)]
        fam.append(fam[0])  # exact dependency gets dropped
        out = orthonormalize_family(fam)
        assert len(out) == 3
        assert gram_deviation(out) < 1e-12


class TestBrownHalmos:
    def test_backward_shift_symbol_with_anything(self, rng):
        # psi = adjoint of the shift has an analytic adjoint, so the product
        # identity holds for every phi
        psi = LaurentMatrixSymbol.shift(2).adjoint()
        phi = random_symbol(rng, 2, 2)
        rep = brown_halmos_check(psi, phi, 12)
        assert rep.hypothesis_met
        assert rep.deviation < 1e-12

    def test_analytic_phi_with_anything(self, rng):
        psi = random_symbol(rng, 2, 2)
        phi = random_symbol(rng, 2, 2, analytic=True)
        rep = brown_halmos_check(psi, phi, 12)
        assert rep.hypothesis_met and rep.deviation < 1e-12

    def test_counterexample_pair(self):
        m = 2
        psi = LaurentMatrixSymbol(m, {1: np.diag([1.0, 0.0])})
        phi = LaurentMatrixSymbol(m, {-1: np.diag([0.0, 1.0])})
        rep = brown_halmos_check(psi, phi, 10)
        assert not rep.hypothesis_met
        assert rep.product_is_zero and rep.product_symbol_is_zero
        assert rep.deviation < 1e-12

    def test_identity_pair(self):
        I = LaurentMatrixSymbol.identity(2)
        rep = brown_halmos_check(I, I, 8)
        assert rep.deviation == 0

    def test_hypothesis_violation_detected(self):
        # psi = phi = z + zbar: neither factor qualifies and the product of
        # compressions picks up a corner defect
        sym = LaurentMatrixSymbol(1, {1: [[1.0]], -1: [[1.0]]})
        rep = brown_halmos_check(sym, sym, 12)
        assert not rep.hypothesis_met
        assert rep.deviation > 0.5

    def test_bandwidth_guard(self):
        sym = LaurentMatrixSymbol.shift(1, 3)
        with pytest.raises(DimensionMismatch):
            brown_halmos_check(sym, sym, 6)

    def test_backward_shift_commutes_with_constants(self, rng):
        # constant symbols commute with the backward shift on the interior
        m, N = 2, 8
        C = LaurentMatrixSymbol.constant(rng.standard_normal((m, m)))
        Zs = LaurentMatrixSymbol.shift(m).adjoint()
        left = ToeplitzCompression(Zs, N).matrix @ ToeplitzCompression(C, N).matrix
        right = ToeplitzCompression(C, N).matrix @ ToeplitzCompression(Zs, N).matrix
        w = (N - 1) * m
        assert np.allclose(left[:w, :w], right[:w, :w], atol=1e-12)


class TestRangeComplementThinSvd:
    """``range_complement`` forms the nonzero rows of the block R^H pick from
    Theta's coefficients and takes their SVD, at most 2md rows.  The
    reference is the block as it was first formed, Theta* applied to the
    picked unit columns (``reference_oracle.range_complement_block``), with
    the null directions of the SVD of the whole m(N - d) x 2md block, wide
    blocks (N < 3d) included.  The two SVDs decompose different matrices,
    so their null bases may differ by a unitary md x md rotation: they are
    compared by their spans, on the picked rows that carry both."""

    @staticmethod
    def full_svd_reference(theta, N):
        m, d = theta.m, theta.d
        idx, block = range_complement_block(theta, N)
        # a tall block's thin vh is already the full, square one
        _, _, vh = np.linalg.svd(block, full_matrices=block.shape[0] < block.shape[1])
        basis = np.zeros((m * N, m * d), dtype=complex)
        basis[idx] = vh[idx.size - m * d:].conj().T
        return idx, basis

    @pytest.mark.parametrize("which", ["diag23", "shift3", "mixing2", "mixing3"])
    @pytest.mark.parametrize("N_of_d", [lambda d: 2 * d + 1, lambda d: 3 * d,
                                        lambda d: 16, lambda d: 64, lambda d: 129,
                                        lambda d: 4096],
                             ids=["wide", "square-ish", "16", "64", "129", "4096"])
    def test_equals_full_svd(self, which, N_of_d, monkeypatch):
        rng = np.random.default_rng(len(which))
        theta = {"diag23": lambda: LaurentMatrixSymbol.diagonal([[0, 0, 1.0],
                                                                 [0, 0, 0, 1.0]]),
                 "shift3": lambda: LaurentMatrixSymbol.shift(2, 3),
                 "mixing2": lambda: random_inner(rng, 2, 2),
                 "mixing3": lambda: random_inner(rng, 3, 3)}[which]()
        N = max(N_of_d(theta.d), theta.d + 1)
        shapes = svd_shapes(monkeypatch)
        got = range_complement(theta, N)
        monkeypatch.undo()
        idx, ref = self.full_svd_reference(theta, N)
        m, d = theta.m, theta.d
        assert got.shape == ref.shape == (m * N, m * d)
        # zero off the degrees < d and >= N - d
        assert not np.delete(got, idx, axis=0).any()
        assert np.max(np.abs(got[idx] @ got[idx].conj().T
                             - ref[idx] @ ref[idx].conj().T)) <= 1e-13
        assert np.max(np.abs(got.conj().T @ got - np.eye(m * d))) <= 1e-13
        # orthogonal to the range R = Theta P_{N-d}
        assert np.max(np.abs(apply_block_toeplitz(theta.adjoint(), got, N - d))) <= 1e-13
        assert len(shapes) == 1 and shapes[0][0] <= min(2 * m * d, m * (N - d)), shapes
