import warnings

import numpy as np
import pytest

from tklab import symbols
from tklab.errors import CircleRootError, DimensionMismatch, NotInvertibleError
from tklab.symbols import (LaurentMatrixSymbol, blaschke_taylor,
                           diagonal_inner_outer, invert_analytic, is_inner,
                           is_invertible_analytic, scalar_inner_outer,
                           unit_circle_grid)


def random_symbol(rng, m, d, analytic=False):
    lo = 0 if analytic else -d
    terms = {k: rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
             for k in range(lo, d + 1)}
    return LaurentMatrixSymbol(m, terms)


class TestAlgebra:
    def test_identity_is_unit(self, rng):
        B = random_symbol(rng, 2, 2)
        I = LaurentMatrixSymbol.identity(2)
        assert I.multiply(B).equals(B)
        assert B.multiply(I).equals(B)

    def test_shift_times_adjoint_is_identity(self):
        Z = LaurentMatrixSymbol.shift(3)
        assert Z.multiply(Z.adjoint()).equals(
            LaurentMatrixSymbol.identity(3))

    def test_disjoint_diagonal_pair_multiplies_to_zero(self):
        m = 3
        psi = LaurentMatrixSymbol(m, {1: np.diag([1.0, 0, 0])})
        phi = LaurentMatrixSymbol(m, {-1: np.diag([0, 1.0, 0])})
        assert psi.multiply(phi).is_zero()

    def test_associativity(self, rng):
        A, B, C = (random_symbol(rng, 2, 1) for _ in range(3))
        left = A.multiply(B).multiply(C)
        right = A.multiply(B.multiply(C))
        for k in set(left.powers()) | set(right.powers()):
            assert np.allclose(left.fourier(k), right.fourier(k), atol=1e-12)

    def test_adjoint_examples(self):
        I = LaurentMatrixSymbol.identity(2)
        assert I.adjoint().equals(I)
        Z = LaurentMatrixSymbol.shift(2)
        Zs = Z.adjoint()
        assert Zs.powers() == [-1]
        assert np.allclose(Zs.fourier(-1), np.eye(2))

    def test_double_adjoint_exact(self, rng):
        A = random_symbol(rng, 3, 2)
        assert A.adjoint().adjoint().equals(A)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LaurentMatrixSymbol.identity(2).multiply(LaurentMatrixSymbol.identity(3))

    def test_json_roundtrip(self, rng):
        A = random_symbol(rng, 2, 2)
        again = LaurentMatrixSymbol.from_json(A.to_json())
        for k in A.powers():
            assert np.allclose(again.fourier(k), A.fourier(k))


class TestInnerTest:
    def test_monomial_identity_inner(self):
        chk = is_inner(LaurentMatrixSymbol.shift(2, 3))
        assert chk.ok and chk.max_deviation < 1e-12

    def test_outer_entry_not_inner(self):
        chk = is_inner(LaurentMatrixSymbol.diagonal([[2.0, 1.0]]))
        assert not chk.ok
        # |2 + e^{it}|^2 ranges over [1, 9]; deviation must reach 8
        assert chk.max_deviation > 1.0

    def test_truncated_blaschke_deviation_decreases(self):
        alpha = 0.5
        devs = []
        for R in (4, 8, 16, 24):
            th = LaurentMatrixSymbol.diagonal([blaschke_taylor(alpha, R)])
            devs.append(is_inner(th, tol=1.0).max_deviation)
            # geometric tail bound, checked by brute-force grid evaluation
            bound = 6 * alpha ** (R + 1) / (1 - alpha)
            assert devs[-1] <= bound
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_product_of_inners_is_inner(self):
        a = LaurentMatrixSymbol.diagonal([blaschke_taylor(0.2, 40),
                                          [0.0, 1.0]])
        b = LaurentMatrixSymbol.shift(2, 2)
        chk = is_inner(a.multiply(b), tol=1e-8)
        assert chk.ok


class TestInversion:
    def test_invertibility_examples(self):
        assert is_invertible_analytic(
            LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]]))
        assert not is_invertible_analytic(LaurentMatrixSymbol.shift(2))
        assert is_invertible_analytic(LaurentMatrixSymbol.identity(2))

    def test_invertibility_needs_analytic(self):
        with pytest.raises(ValueError):
            is_invertible_analytic(LaurentMatrixSymbol.shift(1).adjoint())

    def test_invert_identity(self):
        inv = invert_analytic(LaurentMatrixSymbol.identity(2), 5)
        assert inv.equals(LaurentMatrixSymbol.identity(2))

    def test_invert_geometric_series(self):
        # 1/(2+z) = sum (-1)^j z^j / 2^{j+1}
        inv = invert_analytic(LaurentMatrixSymbol.diagonal([[2.0, 1.0]]), 7)
        got = [inv.fourier(j)[0, 0] for j in range(8)]
        expected = [(-1.0) ** j * 2.0 ** -(j + 1) for j in range(8)]
        assert np.allclose(got, expected, atol=1e-14)

    def test_invert_nilpotent_neumann(self):
        # (2I + N)^{-1} = sum_t (-1)^t N^t / 2^{t+1}, a finite series
        m = 3
        Nmat = np.zeros((m, m))
        Nmat[0, 1] = Nmat[1, 2] = 1.0
        A = LaurentMatrixSymbol(m, {0: 2 * np.eye(m), 1: Nmat})
        inv = invert_analytic(A, 6)
        expected0 = np.eye(m) / 2
        assert np.allclose(inv.fourier(0), expected0)
        # oracle: matrix geometric series evaluated degree by degree
        acc = np.eye(m) / 2
        for j in range(1, 7):
            acc = -0.5 * (Nmat @ acc)
            assert np.allclose(inv.fourier(j), acc, atol=1e-13)

    def test_singular_constant_raises(self):
        with pytest.raises(NotInvertibleError):
            invert_analytic(LaurentMatrixSymbol.shift(1), 4)

    def test_overflowing_series_is_not_invertible(self):
        # 1/(1 + 2z) = sum (-2)^j z^j passes the float range at degree 1024
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotInvertibleError, match="not finite"):
                invert_analytic(LaurentMatrixSymbol.diagonal([[1.0, 2.0]]), 1100)

    def test_nan_residual_is_not_invertible(self, monkeypatch):
        monkeypatch.setattr(symbols, "_inversion_residual", lambda *args: float("nan"))
        with pytest.raises(NotInvertibleError, match="residual nan"):
            invert_analytic(LaurentMatrixSymbol.diagonal([[2.0, 1.0]]), 7)

    def test_reconstruction_residual_invariant(self, rng):
        A = LaurentMatrixSymbol(
            2, {0: 3 * np.eye(2) + 0.3 * rng.standard_normal((2, 2)),
                1: 0.4 * rng.standard_normal((2, 2)),
                2: 0.2 * rng.standard_normal((2, 2))})
        K = 20
        B = invert_analytic(A, K)
        prod = A.multiply(B)
        for j in range(K - A.d + 1):
            target = np.eye(2) if j == 0 else np.zeros((2, 2))
            assert np.max(np.abs(prod.fourier(j) - target)) \
                < 1e-10 * A.coefficient_norm()


class TestScalarFactorization:
    def test_pure_monomial(self):
        f = scalar_inner_outer([0, 0, 0, 1.0])  # z^3
        assert f.zero_power == 3 and not f.disk_zeros
        assert np.allclose(f.outer_coeffs, [1.0])

    def test_outer_only(self):
        f = scalar_inner_outer([2.0, 1.0])
        assert f.zero_power == 0 and not f.disk_zeros
        assert np.allclose(f.outer_coeffs, [2.0, 1.0])

    def test_mixed_with_reconstruction(self):
        p = np.array([0, -0.5, 1.0], dtype=complex)  # z(z - 1/2)
        f = scalar_inner_outer(p)
        assert f.zero_power == 1
        assert len(f.disk_zeros) == 1
        assert abs(f.disk_zeros[0] - 0.5) < 1e-12
        assert f.reconstruction_residual(p) < 1e-10

    def test_unimodular_inner_on_grid(self):
        p = np.convolve([0, 1.0], np.convolve([-0.3, 1.0], [2.0, 1.0]))
        f = scalar_inner_outer(p)
        grid = unit_circle_grid(512)
        assert np.max(np.abs(np.abs(f.inner_eval(grid)) - 1.0)) < 1e-8
        assert f.reconstruction_residual(p) < 1e-8

    def test_circle_root_refused(self):
        with pytest.raises(CircleRootError):
            scalar_inner_outer([-1.0, 0, 0, 0, 1.0])  # z^4 - 1

    def test_zero_polynomial_refused(self):
        with pytest.raises(ValueError):
            scalar_inner_outer([0.0, 0.0])

    def test_near_circle_root_refused(self):
        r = 1.0 - 1e-8
        with pytest.raises(CircleRootError):
            scalar_inner_outer([-r, 1.0])

    def test_inner_taylor_matches_eval(self):
        f = scalar_inner_outer(np.convolve([0, 1.0], [-0.4, 1.0]))
        series = f.inner_taylor(60)
        grid = unit_circle_grid(128)
        direct = f.inner_eval(grid)
        via_series = np.polyval(series[::-1], grid)
        assert np.max(np.abs(direct - via_series)) < 1e-10


class TestDiagonalFactorization:
    def test_monomial_diag(self):
        phi = LaurentMatrixSymbol.shift(3, 2)
        inner = diagonal_inner_outer(phi, 6)[0]
        assert inner.equals(LaurentMatrixSymbol.shift(3, 2))

    def test_identity(self):
        phi = LaurentMatrixSymbol.identity(2)
        assert diagonal_inner_outer(phi, 4)[0].equals(phi)

    def test_mixed_entries(self):
        phi = LaurentMatrixSymbol.diagonal([[2.0, 1.0], [0.0, 1.0]])
        inner = diagonal_inner_outer(phi, 6)[0]
        expected = LaurentMatrixSymbol.diagonal([[1.0], [0.0, 1.0]])
        assert inner.equals(expected)

    def test_outer_part_outer(self):
        phi = LaurentMatrixSymbol.diagonal(
            [np.convolve([0, 1.0], [-0.4, 1.0]), [3.0, 1.0]])
        _, outer, facts = diagonal_inner_outer(phi, 10)
        # outer entries have no roots in the closed disk
        for i, f in enumerate(facts):
            roots = np.roots(f.outer_coeffs[::-1]) if len(f.outer_coeffs) > 1 else []
            assert all(abs(r) > 1 for r in roots)

    def test_non_diagonal_rejected(self):
        bad = LaurentMatrixSymbol(2, {0: [[1.0, 1.0], [0.0, 1.0]]})
        with pytest.raises(ValueError):
            diagonal_inner_outer(bad, 4)

    def test_non_analytic_rejected(self):
        bad = LaurentMatrixSymbol.shift(2).adjoint()
        with pytest.raises(ValueError):
            diagonal_inner_outer(bad, 4)
