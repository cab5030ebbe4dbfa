import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tklab.errors import DimensionMismatch
from tklab.hardy_core import (CoeffVec, LaurentVec, backward_shift,
                              eval_at_zero, forward_shift, inner_product,
                              reproducing_column)
from tklab.subspaces import nullspace

from conftest import rand_coeffvec


def coeff_strategy(max_m=3, max_n=6):
    def build(m, N, seed):
        rng = np.random.default_rng(seed)
        return CoeffVec(rng.standard_normal((m, N)) + 1j * rng.standard_normal((m, N)))
    return st.builds(build,
                     st.integers(1, max_m), st.integers(1, max_n),
                     st.integers(0, 2 ** 31))


class TestInnerProduct:
    def test_monomial_orthonormality(self):
        e1 = CoeffVec.monomial(2, 4, 0, 0)
        assert inner_product(e1, e1) == pytest.approx(1.0)

    def test_distinct_monomials_orthogonal(self):
        a = CoeffVec.monomial(2, 4, 0, 0)
        b = CoeffVec.monomial(2, 4, 0, 1)
        assert inner_product(a, b) == 0

    def test_hand_value_two_components(self):
        F = CoeffVec([[1, 1], [0, 0]])   # (1+z, 0)
        G = CoeffVec([[1, -1], [0, 0]])  # (1-z, 0)
        assert inner_product(F, G) == pytest.approx(0.0)

    def test_conjugate_linear_second_argument(self):
        F = CoeffVec([[1.0, 2.0]])
        G = CoeffVec([[0.5, 1.0j]])
        assert inner_product(F, 1j * G) == pytest.approx(-1j * inner_product(F, G))
        assert inner_product(1j * F, G) == pytest.approx(1j * inner_product(F, G))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product(CoeffVec.zeros(1, 3), CoeffVec.zeros(2, 3))

    @given(coeff_strategy())
    @settings(max_examples=40, deadline=None)
    def test_positivity(self, F):
        val = inner_product(F, F)
        assert abs(val.imag) < 1e-12
        assert val.real >= 0
        assert val.real == pytest.approx(F.norm_sq())


class TestShifts:
    def test_forward_moves_degree(self):
        F = CoeffVec.monomial(1, 4, 0, 0)
        out = forward_shift(F)
        assert out.dropped == 0
        assert np.allclose(out.vec.coeffs, CoeffVec.monomial(1, 4, 0, 1).coeffs)

    def test_forward_zero(self):
        out = forward_shift(CoeffVec.zeros(2, 3))
        assert out.vec.norm() == 0 and out.dropped == 0

    def test_forward_top_degree_drops(self):
        F = CoeffVec.monomial(2, 5, 1, 4, 3.0)
        out = forward_shift(F)
        assert out.vec.norm() == 0
        assert out.dropped == pytest.approx(F.norm())

    def test_backward_constant_is_zero(self):
        F = CoeffVec([[2.0], [1.0j]]).resized(4)
        assert backward_shift(F).norm() == 0

    def test_backward_monomial(self):
        F = CoeffVec.monomial(2, 4, 0, 2)  # (z^2, 0)
        assert np.allclose(backward_shift(F).coeffs,
                           CoeffVec.monomial(2, 4, 0, 1).coeffs)

    @given(coeff_strategy())
    @settings(max_examples=40, deadline=None)
    def test_forward_of_backward_identity(self, F):
        # S(S* F) = F - F(0) * (degree-0 indicator)
        rebuilt = forward_shift(backward_shift(F)).vec
        expected = F.coeffs.copy()
        expected[:, 0] = 0
        assert np.allclose(rebuilt.coeffs, expected, atol=1e-12)

    @given(coeff_strategy())
    @settings(max_examples=40, deadline=None)
    def test_shifts_are_contractions(self, F):
        assert backward_shift(F).norm() <= F.norm() + 1e-12
        assert forward_shift(F).vec.norm() <= F.norm() + 1e-12

    def test_backward_then_forward_recovers_vanishing(self):
        rng = np.random.default_rng(0)
        F = rand_coeffvec(rng, 2, 6, 5, lo=1)  # F(0) = 0, top degree clear
        again = forward_shift(backward_shift(F)).vec
        assert np.allclose(again.coeffs, F.coeffs, atol=1e-12)

    def test_repeated_backward_shift(self):
        F = CoeffVec.monomial(1, 5, 0, 3)
        for _ in range(3):
            F = backward_shift(F)
        assert np.allclose(F.coeffs, CoeffVec.monomial(1, 5, 0, 0).coeffs)


class TestEvalAtZero:
    def test_mixed(self):
        F = CoeffVec([[1, 1], [0, 1]])  # (1+z, z)
        assert np.allclose(eval_at_zero(F), [1, 0])

    def test_shifted_vanishes(self):
        rng = np.random.default_rng(1)
        F = forward_shift(rand_coeffvec(rng, 2, 5, 4)).vec
        assert np.allclose(eval_at_zero(F), 0)

    def test_reproducing_column(self):
        for i in range(3):
            col = reproducing_column(3, 4, i)
            assert np.allclose(eval_at_zero(col), np.eye(3)[i])


class TestRieszProjection:
    def test_negative_only_projects_to_zero(self):
        L = LaurentVec.zeros(2, 3)
        arr = L.coeffs.copy()
        arr[:, 0:3] = 1.0  # degrees -3..-1
        assert LaurentVec(arr).analytic_part().norm() == 0

    def test_analytic_identity(self):
        F = CoeffVec([[1, 2, 3]])
        L = LaurentVec.from_analytic(F)
        assert np.allclose(L.analytic_part().coeffs, F.coeffs)

    def test_mixed_keeps_positive(self):
        # e^{-i t} in component 1, e^{i t} in component 2
        arr = np.zeros((2, 6), dtype=complex)  # degrees -3..2
        arr[0, 2] = 1.0   # degree -1
        arr[1, 4] = 1.0   # degree +1
        out = LaurentVec(arr).analytic_part()
        assert out.coeffs[0, 1] == 0 and out.coeffs[1, 1] == 1

    @given(coeff_strategy())
    @settings(max_examples=25, deadline=None)
    def test_idempotent_and_nonincreasing(self, F):
        L = LaurentVec.from_analytic(F, N=F.N + 2)
        once = L.analytic_part()
        assert once.norm() <= L.norm() + 1e-12
        twice = LaurentVec.from_analytic(once).analytic_part()
        assert np.allclose(once.coeffs[:, :F.N], twice.coeffs[:, :F.N])


class TestValidationAndJson:
    def test_nonfinite_rejected(self):
        # one finiteness pass over the complex array sees both parts
        for bad in (np.nan, np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                CoeffVec([[bad, 0.0]])
            with pytest.raises(ValueError, match="must be finite"):
                LaurentVec([[0.0, bad]])
            with pytest.raises(ValueError, match="must be finite"):
                nullspace(np.array([[bad, 0.0]]), (1, 2))

    def test_flatten_roundtrip_degree_major(self):
        F = CoeffVec([[1, 2], [3, 4]])
        flat = F.flatten()
        # degree-major: [A_0; A_1] blocks
        assert np.allclose(flat, [1, 3, 2, 4])
        assert np.allclose(CoeffVec.from_flat(flat, 2, 2).coeffs, F.coeffs)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(2)
        F = rand_coeffvec(rng, 2, 3, 3)
        again = CoeffVec.from_json(F.to_json())
        assert np.allclose(again.coeffs, F.coeffs)
        payload = F.to_json()
        assert payload["m"] == 2 and payload["N"] == 3
        assert isinstance(payload["coeffs"][0][0], list)

    def test_json_shape_mismatch(self):
        bad = {"m": 2, "N": 2, "coeffs": [[[1, 0]]]}
        with pytest.raises(DimensionMismatch):
            CoeffVec.from_json(bad)

    def test_immutability(self):
        F = CoeffVec([[1.0]])
        with pytest.raises(ValueError):
            F.coeffs[0, 0] = 2.0

    def test_laurent_analytic_roundtrip(self):
        rng = np.random.default_rng(3)
        F = rand_coeffvec(rng, 3, 4, 4)
        L = LaurentVec.from_analytic(F)
        assert np.allclose(L.analytic_part().coeffs, F.coeffs)
        assert not np.any(L.coeffs[:, :L.N])
