import numpy as np
import pytest

from tklab import representation
from tklab.errors import DimensionMismatch, FrameDeficientError, NotInnerError
from tklab.hardy_core import (CoeffVec, backward_shift, eval_at_zero,
                              inner_product, reproducing_column)
from tklab.near_invariance import compute_defect, kernel_of
from tklab.operators import ToeplitzCompression, build_perturbed, orthonormalize_family
from tklab.representation import (RepresentationFrame, build_frame, default_depth,
                                  peel_members, rank_one_complement_analysis,
                                  rank_one_inner_kernel,
                                  rank_one_invertible_kernel,
                                  rank_one_theta_star_analysis)
from tklab.model_spaces import build_model_space
from tklab.subspaces import (intersect, span_of, subspace_equal,
                             vanishing_at_zero_space, zero_space)
from tklab.symbols import LaurentMatrixSymbol, blaschke_taylor, invert_analytic

from conftest import rand_coeffvec, rand_orthonormal, random_inner, spy, unit
from test_near_invariance import CALLERS, _diagonal_inner, _invertible_factor


def complement_of(G):
    return span_of([G]).perp()


def extract_coordinates(F, frame, **kwargs):
    """The coordinate functions of one member, peeled alone."""
    return peel_members(F.flatten()[:, None], frame, **kwargs).coordinates(0)


def solved_kernel(symbol, G, H, N, factors=None):
    """The kernel of T_symbol + <., G> H, solved as a scenario run solves it."""
    T = build_perturbed(symbol, N, [G], [H], require_orthonormal=False)
    return kernel_of(T, factors=factors)


def inner_rank_one(theta, G, H, N):
    return rank_one_inner_kernel(solved_kernel(theta, G, H, N),
                                 build_model_space(theta, N), G, H)


def theta_star_rank_one(theta, G, H, N):
    kr = solved_kernel(theta.adjoint(), G, H, N)
    return rank_one_theta_star_analysis(kr, compute_defect(kr.subspace),
                                        build_model_space(theta, N), G, H)


def invertible_rank_one(F1, F2, G, H, N):
    return rank_one_invertible_kernel(
        solved_kernel(F1.adjoint().multiply(F2), G, H, N, factors=(F1, F2)), G, H)


def coefficient_rows(coords):
    """(K0 rows, k rows) of a coordinate tuple as r x L and p x L arrays."""
    width = (coords.K0 if coords.K0 is not None else coords.k[0]).N
    K0 = coords.K0.coeffs if coords.K0 is not None else np.zeros((0, width), complex)
    return K0, np.array([kj.coeffs[0] for kj in coords.k]).reshape(-1, width)


def flat(coeffs):
    """An m x N coefficient array as a flat degree-major vector."""
    return coeffs.T.reshape(-1)


class TestFrame:
    def test_constant_line(self):
        M = span_of([CoeffVec([[1.0, 0.0]])])
        frame = build_frame(M, compute_defect(M), zero_space(1, 2))
        assert frame.r == 1 and not frame.vanishing_case

    def test_shifted_line_is_vanishing(self):
        M = span_of([CoeffVec([[0.0, 1.0, 0.0]])])
        rep = compute_defect(M)
        frame = build_frame(M, rep)
        assert frame.r == 0 and frame.vanishing_case
        assert frame.p == rep.defect_dim == 1

    def test_complement_of_constant_column(self):
        m, N = 3, 8
        G = reproducing_column(m, N, 0)
        M = complement_of(G)
        frame = build_frame(M, compute_defect(M), span_of([G]))
        assert frame.r == m - 1
        values = np.stack([eval_at_zero(w) for w in frame.W], axis=1)
        # the values span the complement of e_1 in C^m
        assert np.linalg.matrix_rank(values) == m - 1
        assert np.max(np.abs(values[0])) < 1e-12

    def test_w_frame_matches_principal_angle_slice(self, rng):
        # the origin slice from the value map and from principal angles with
        # zH2 give the same projection, hence the same Gram-Schmidt W frame
        m, N = 2, 10
        M = span_of(rand_orthonormal(rng, m, N, 6, 3)).perp()
        frame = build_frame(M, compute_defect(M))
        Z = intersect(M, vanishing_at_zero_space(m, N)).basis
        off = M.basis - Z @ (Z.conj().T @ M.basis)
        reference = orthonormalize_family(
            [CoeffVec.from_flat(off[:, i], m, N) for i in range(M.dim)], 1e-10)
        assert len(frame.W) == len(reference) == m
        for w, ref in zip(frame.W, reference):
            assert (w - ref).norm() < 1e-12

    def test_defect_frame_must_cover(self, rng):
        m, N = 2, 8
        G = rand_orthonormal(rng, m, N, 5, 1)
        M = span_of(G).perp()
        with pytest.raises(Exception):
            build_frame(M, compute_defect(M), zero_space(m, N))  # misses the defect


class TestExtraction:
    def test_frame_column_coordinates(self, rng):
        m, N = 2, 10
        G = rand_orthonormal(rng, m, N, 5, 1)
        M = span_of(G).perp()
        rep = compute_defect(M)
        frame = build_frame(M, rep)
        for a, w in enumerate(frame.W):
            coords = extract_coordinates(w, frame)
            assert coords.K0 is not None
            assert abs(coords.K0.coeffs[a, 0] - 1.0) < 1e-10
            assert coords.K0.norm_sq() == pytest.approx(1.0, abs=1e-10)
            assert all(kj.norm() < 1e-10 for kj in coords.k)

    def test_non_member_rejected(self, rng):
        m, N = 2, 8
        G = rand_orthonormal(rng, m, N, 5, 1)
        M = span_of(G).perp()
        rep = compute_defect(M)
        frame = build_frame(M, rep)
        stray = G[0]  # orthogonal to M by construction
        with pytest.raises(ValueError):
            extract_coordinates(stray, frame)

    def test_deficient_frame_detected(self):
        # a vanishing line with an empty frame cannot represent its member
        m, N = 2, 8
        member = CoeffVec.monomial(m, N, 0, 1)
        M = span_of([member])
        starved = RepresentationFrame(M=M, W=(), E=())
        assert starved.vanishing_case
        with pytest.raises(FrameDeficientError):
            extract_coordinates(member, starved)

    def test_early_stop_surfaces_unconverged_tail(self, rng):
        # infinite coordinate series cut off too early leave in-window mass
        m, N = 2, 10
        G = rand_orthonormal(rng, m, N, 5, 1)
        M = span_of(G).perp()
        frame = build_frame(M, compute_defect(M))
        member = M.basis_vectors()[2]
        full = extract_coordinates(member, frame)
        if full.K0 is not None and full.K0.N > 8:
            with pytest.raises(FrameDeficientError):
                extract_coordinates(member, frame, max_steps=4)

    def test_isometry_and_reconstruction(self, rng):
        m, N = 2, 12
        G = rand_orthonormal(rng, m, N, 6, 2)
        M = span_of(G).perp()
        rep = compute_defect(M)
        frame = build_frame(M, rep)
        for F in M.basis_vectors()[:6]:
            coords = extract_coordinates(F, frame)
            assert coords.reconstruction_residual < 1e-10
            assert coords.isometry_gap < 1e-10

    def test_split_column_coordinates(self):
        # the complement of ((1 + z^k)/sqrt2) e1 gives the member (1 - z^k) e1
        # constant coordinates sqrt2 e1 and no defect coordinate, relative to
        # the canonical frame from projected reproducing columns
        m, N, k = 3, 16, 3
        arr = np.zeros((m, N), complex)
        arr[0, 0] = arr[0, k] = 1 / np.sqrt(2)
        G = CoeffVec(arr)
        analysis = rank_one_complement_analysis(complement_of(G), G)
        member_arr = np.zeros((m, N), complex)
        member_arr[0, 0] = 1.0
        member_arr[0, k] = -1.0
        coords = extract_coordinates(CoeffVec(member_arr), analysis.frame)
        K0 = coords.K0
        assert abs(K0.coeffs[0, 0] - np.sqrt(2)) < 1e-10
        assert backward_shift(CoeffVec(K0.coeffs[0:1])).norm() < 1e-10
        assert coords.k[0].norm() < 1e-10

    def test_reassembly_matches_manual_sum(self, rng):
        m, N = 2, 10
        G = rand_orthonormal(rng, m, N, 4, 1)
        M = span_of(G).perp()
        rep = compute_defect(M)
        frame = build_frame(M, rep)
        F = M.basis_vectors()[0]
        coords = extract_coordinates(F, frame)
        rebuilt = looped_reassemble(frame, *coefficient_rows(coords))
        assert np.linalg.norm(rebuilt - F.coeffs) < 1e-10


class TestInvariance:
    def test_model_space_coordinates_invariant(self):
        # zero-defect subspace: every backward shift of coordinates stays in
        ms = build_model_space(LaurentMatrixSymbol.shift(2, 3), 12)
        M = ms.as_subspace
        frame = build_frame(M, compute_defect(M), zero_space(2, 12))
        rep = peel_members(M.basis, frame, depth=6).invariance
        assert rep.max_residual < 1e-10

    def test_full_coordinate_space_for_constant_column(self):
        m, N = 3, 12
        G = reproducing_column(m, N, 0)
        M = complement_of(G)
        frame = build_frame(M, compute_defect(M), span_of([G]))
        rep = peel_members(M.basis[:, :8], frame, depth=default_depth(N)).invariance
        assert rep.max_residual < 1e-10

    def test_depth_default(self):
        assert default_depth(32) == 8
        assert default_depth(10) == 5

    def test_converse_direction(self, rng):
        # combinations of shifted coordinate tuples from members reassemble
        # into members again: the coordinate set behaves as an invariant
        # subspace in both directions
        m, N = 2, 16
        G = rand_orthonormal(rng, m, N, 5, 2)
        M = span_of(G).perp()
        frame = build_frame(M, compute_defect(M))
        rows = [coefficient_rows(extract_coordinates(F, frame))
                for F in M.basis_vectors()[:4]]
        for trial in range(4):
            weights = rng.standard_normal(len(rows)) \
                + 1j * rng.standard_normal(len(rows))
            shifts = rng.integers(0, 4, size=len(rows))
            width = max(K0.shape[1] for K0, _ in rows)
            K0_acc = np.zeros((frame.r, width), complex)
            k_acc = np.zeros((frame.p, width), complex)
            for w, n_shift, (K0, k) in zip(weights, shifts, rows):
                K0_acc[:, :K0.shape[1]] += w * shifted_rows(K0, int(n_shift))
                k_acc[:, :k.shape[1]] += w * shifted_rows(k, int(n_shift))
            v = looped_reassemble(frame, K0_acc, k_acc)
            assert M.residual_flat(flat(v)) < 1e-8 * max(np.linalg.norm(v), 1.0)


class TestComplementAnalysis:
    def test_constant_column_full_space(self):
        m, N = 3, 12
        G = reproducing_column(m, N, 0)
        rep = rank_one_complement_analysis(complement_of(G), G)
        assert rep.r == m - 1
        assert rep.g.norm() < 1e-12
        assert rep.G0.norm() < 1e-12
        assert rep.condition_residual_max < 1e-10
        assert rep.projection_formula_residual < 1e-12

    def test_split_column_data(self):
        m, N, k = 3, 16, 3
        arr = np.zeros((m, N), complex)
        arr[0, 0] = arr[0, k] = 1 / np.sqrt(2)
        G = CoeffVec(arr)
        rep = rank_one_complement_analysis(complement_of(G), G)
        assert rep.r == m
        expected_g = np.zeros(N, complex)
        expected_g[k - 1] = 0.5
        assert np.allclose(rep.g.coeffs[0], expected_g, atol=1e-12)
        expected_g0 = np.zeros(N, complex)
        expected_g0[k] = 0.5
        assert np.allclose(rep.G0.coeffs[0], expected_g0, atol=1e-12)
        assert np.allclose(rep.G0.coeffs[1:], 0, atol=1e-12)
        assert rep.condition_residual_max < 1e-10

    def test_inner_tuple_kills_g(self):
        # entries of unimodular boundary modulus make |G|^2 = 1, so g = 0
        m, N = 2, 24
        from tklab.symbols import blaschke_taylor
        arr = np.zeros((m, N), complex)
        arr[0, 1] = 1.0                       # z
        arr[1, :N] = blaschke_taylor(0.3, N - 1)
        G = unit(CoeffVec(arr))
        rep = rank_one_complement_analysis(complement_of(G), G)
        assert rep.g.norm() < 1e-7
        assert rep.condition_residual_max < 1e-6

    def test_reproducing_tuple(self):
        m, N, alpha = 2, 32, 0.4
        ka = np.array([alpha ** j for j in range(N)], complex)
        G = unit(CoeffVec(np.tile(ka, (m, 1))))
        rep = rank_one_complement_analysis(complement_of(G), G)
        # adjoint data: G0 collapses, g is proportional to the kernel column
        assert rep.G0.norm() < 1e-10
        expected = np.array([alpha ** (j + 1) for j in range(N)], complex)
        assert np.allclose(rep.g.coeffs[0], expected, atol=1e-9)
        # every sampled member carries no defect coordinate
        for coords in rep.coords:
            assert all(kj.norm() < 1e-8 for kj in coords.k)

    def test_unit_norm_enforced(self, rng):
        with pytest.raises(ValueError):
            G = rand_coeffvec(rng, 2, 8, 4) * 3.0
            rank_one_complement_analysis(complement_of(G), G)

    @pytest.mark.parametrize("depth", [None, 1, 5])
    def test_invariance_is_measured_by_the_peeling_pass(self, rng, depth):
        m, N = 2, 16
        G = unit(rand_coeffvec(rng, m, N, 5))
        rep = rank_one_complement_analysis(complement_of(G), G, depth=depth)
        expected = default_depth(N) if depth is None else depth
        assert rep.invariance.depth == expected
        refs = [(None, *coefficient_rows(c), None, None) for c in rep.coords]
        looped = looped_invariance(rep.frame, refs, [c.source_norm for c in rep.coords],
                                   expected)
        assert np.allclose(rep.invariance.residuals, looped, rtol=0, atol=1e-12)


class TestInnerRankOne:
    def test_noncritical_trivial_kernel(self, rng):
        m, N = 2, 12
        theta = LaurentMatrixSymbol.shift(m, 2)
        H = rand_orthonormal(rng, m, N, 4, 1)[0]
        adj = ToeplitzCompression(theta.adjoint(), N)
        cand = adj.apply(H)
        G_raw = rand_coeffvec(rng, m, N, 5)
        G = unit(G_raw - inner_product(G_raw, unit(cand)) * unit(cand))
        rep = inner_rank_one(theta, G, H, N)
        assert rep.case == "trivial_kernel"
        assert rep.kernel_dim == 0

    def test_critical_spanned_kernel(self, rng):
        m, N = 2, 14
        theta = LaurentMatrixSymbol.shift(m, 2)
        u = rand_orthonormal(rng, m, N, 5, 1)[0]
        H = theta.act(u).analytic_part().resized(N)
        rep = inner_rank_one(theta, -1.0 * u, H, N)
        assert rep.case == "spanned_kernel"
        assert rep.kernel_dim == 1
        assert rep.expected_match_residual < 1e-8
        assert rep.origin_case == "value_nonzero"
        assert rep.coordinate_residuals["K0_shift_mass"] < 1e-10
        assert rep.coordinate_residuals["k_mass"] < 1e-10

    def test_vanishing_value_subcase(self, rng):
        m, N = 2, 14
        theta = LaurentMatrixSymbol.shift(m, 1)
        u = rand_orthonormal(rng, m, N, 5, 1, lo=1)[0]  # u(0) = 0
        H = theta.act(u).analytic_part().resized(N)
        rep = inner_rank_one(theta, -1.0 * u, H, N)
        assert rep.case == "spanned_kernel"
        assert rep.origin_case == "value_zero"
        assert rep.coordinate_residuals["k1_shift_mass"] < 1e-10

    def test_named_monomial_case(self):
        # shift symbol with H = z e1: the candidate is the constant column
        # and the coordinate space collapses to constants-only
        m, N = 2, 10
        theta = LaurentMatrixSymbol.shift(m, 1)
        H = CoeffVec.monomial(m, N, 0, 1)
        G = -1.0 * CoeffVec.monomial(m, N, 0, 0)
        rep = inner_rank_one(theta, G, H, N)
        assert rep.case == "spanned_kernel"
        assert rep.origin_case == "value_nonzero"
        assert rep.coordinate_residuals["k_mass"] < 1e-12

    def test_shiftless_h_rejected(self):
        m, N = 2, 8
        theta = LaurentMatrixSymbol.shift(m, 1)
        with pytest.raises(ValueError):
            inner_rank_one(theta, reproducing_column(m, N, 0),
                           reproducing_column(m, N, 1), N)


class TestInvertibleRankOne:
    def test_identity_factors(self, rng):
        m, N = 2, 12
        I = LaurentMatrixSymbol.identity(m)
        H = rand_orthonormal(rng, m, N, 4, 1)[0]
        G = -1.0 * H
        rep = invertible_rank_one(I, I, G, H, N)
        # V_c = H and the criterion hits zero exactly
        assert abs(rep.criterion) < 1e-12
        assert rep.case == "spanned_kernel"
        assert rep.kernel_dim == 1
        assert rep.details["convolution_gap"] < 1e-12

    def test_geometric_candidate_cross_check(self, rng):
        m, N = 1, 32
        F1 = LaurentMatrixSymbol.identity(m)
        F2 = LaurentMatrixSymbol.diagonal([[2.0, 1.0]])
        H = CoeffVec.monomial(m, N, 0, 1)  # z
        G_raw = rand_coeffvec(rng, m, N, 4)
        inv2 = invert_analytic(F2, N - 1)
        Vc = inv2.act(H).analytic_part().resized(N)
        # shifted geometric series: coefficient j of V_c is (-1)^{j-1} 2^{-j}
        expected = np.zeros(N, complex)
        for j in range(1, N):
            expected[j] = (-1.0) ** (j - 1) * 2.0 ** (-j)
        assert np.allclose(Vc.coeffs[0], expected, atol=1e-14)
        G = unit(G_raw - inner_product(G_raw, unit(Vc)) * unit(Vc))
        rep = invertible_rank_one(F1, F2, G, H, N)
        assert rep.case == "trivial_kernel"
        assert rep.kernel_dim == 0
        assert rep.details["convolution_gap"] < 1e-12
        assert rep.details["shift_identity_gap"] < 1e-12

    def test_critical_with_scaled_h(self, rng):
        m, N = 1, 40
        F1 = LaurentMatrixSymbol.identity(m)
        F2 = LaurentMatrixSymbol.diagonal([[2.0, 1.0]])
        h = rand_orthonormal(rng, m, N, 4, 1)[0]
        inv2 = invert_analytic(F2, N - 1)
        Vc = inv2.act(h).analytic_part().resized(N)
        scale = 1.0 / Vc.norm()
        rep = invertible_rank_one(F1, F2, -scale * Vc, scale * h, N)
        assert rep.case == "spanned_kernel"
        assert rep.kernel_dim == 1
        assert rep.expected_match_residual < 1e-6


class TestThetaStarRankOne:
    def build_named_setup(self, s, m, N):
        theta = LaurentMatrixSymbol.shift(m, s)
        Harr = np.zeros((m, N), complex)
        Harr[0, 0] = 1 / np.sqrt(2)
        Harr[0, 1] = -1 / np.sqrt(2)
        H = CoeffVec(Harr)
        thH = theta.act(H).analytic_part().resized(N)
        Gz_arr = np.zeros((m, N), complex)
        Gz_arr[0, s - 1] = 1.0
        Gz_arr[1:, 0] = 1.0
        return theta, H, thH, CoeffVec(Gz_arr)

    def test_case_dispatch_totality(self):
        s, m, N = 2, 3, 24
        theta, H, thH, Gz = self.build_named_setup(s, m, N)
        cases = {}
        for label, G in (("oc", Gz + (-1.0) * thH),
                         ("on", Gz + 1.0 * thH),
                         ("ic", -1.0 * thH),
                         ("in", 1.0 * thH)):
            rep = theta_star_rank_one(theta, G, H, N)
            cases[label] = rep.case
            assert rep.equality_residual < 1e-6, (label, rep.equality_residual)
            assert rep.projection_formula_residual < 1e-6
        assert cases == {"oc": "outside_range_critical",
                         "on": "outside_range_noncritical",
                         "ic": "in_range_critical",
                         "in": "in_range_noncritical"}

    def test_outside_critical_structure(self):
        s, m, N = 2, 3, 32
        theta, H, thH, Gz = self.build_named_setup(s, m, N)
        rep = theta_star_rank_one(theta, Gz + (-1.0) * thH, H, N)
        # kernel = (model space + theta H line) minus the model part of G
        assert rep.kernel_dim == m * s
        assert rep.predicted_dim == m * s
        assert max(rep.membership_residuals.values()) < 1e-6

    def test_outside_noncritical_structure(self):
        s, m, N = 2, 3, 32
        theta, H, thH, Gz = self.build_named_setup(s, m, N)
        rep = theta_star_rank_one(theta, Gz + 1.0 * thH, H, N)
        assert rep.kernel_dim == m * s
        assert abs(rep.criterion - 2.0) < 1e-12
        assert max(rep.membership_residuals.values()) < 1e-6

    def test_in_range_noncritical_is_model_space(self):
        s, m, N = 2, 2, 20
        theta, H, thH, _ = self.build_named_setup(s, m, N)
        rep = theta_star_rank_one(theta, thH, H, N)
        ms = build_model_space(theta, N)
        ok, resid = subspace_equal(rep.kernel, ms.as_subspace, 1e-8)
        assert ok, resid

    def test_in_range_critical_gains_line(self):
        s, m, N = 2, 2, 20
        theta, H, thH, _ = self.build_named_setup(s, m, N)
        rep = theta_star_rank_one(theta, -1.0 * thH, H, N)
        assert rep.kernel_dim == m * s + 1

    def test_nonzero_g_required(self):
        s, m, N = 2, 2, 16
        theta, H, _, _ = self.build_named_setup(s, m, N)
        with pytest.raises(ValueError):
            theta_star_rank_one(theta, CoeffVec.zeros(m, N), H, N)


# ---------------------------------------------------------------------------
# oracle: the batched engine against a per-vector peeling loop
# ---------------------------------------------------------------------------


def looped_peel(F, frame, tol_tail=1e-10, max_steps=None):
    """Peel one member vector by vector, with convolution reassembly as the
    reference; returns (steps, K0 rows, k rows, reconstruction, isometry)."""
    M = frame.M
    m, N, r, p = M.m, M.N, frame.r, frame.p
    W = np.stack([w.flatten() for w in frame.W], axis=1) if r else np.zeros((m * N, 0))
    E = np.stack([e.flatten() for e in frame.E], axis=1) if p else np.zeros((m * N, 0))
    pinv = np.linalg.pinv(frame.value_matrix()) if r else np.zeros((0, m))
    cur = F.flatten()
    floor = tol_tail * max(F.norm(), 1e-300)
    cols = []
    for _ in range(max_steps or max(64 * N, 4096)):
        if np.linalg.norm(cur) <= floor:
            break
        a = pinv @ cur[:m]
        cur = cur - W @ a
        cur = np.concatenate([cur[m:], np.zeros(m, complex)])
        c = E.conj().T @ cur
        cur = cur - E @ c
        cols.append(np.concatenate([a, c]))
    coeffs = np.zeros((r + p, max(len(cols), 1)), complex)
    for t, col in enumerate(cols):
        coeffs[:, t] = col
    K0, k = coeffs[:r], coeffs[r:]
    rebuilt = looped_reassemble(frame, K0, k)
    recon = float(np.linalg.norm(rebuilt - F.coeffs))
    iso = abs(F.norm() ** 2 - float(np.sum(np.abs(coeffs) ** 2)))
    return len(cols), K0, k, recon, iso


def looped_reassemble(frame, K0, k):
    m, N = frame.M.m, frame.M.N
    out = np.zeros((m, N), complex)
    for a, w in enumerate(frame.W):
        for i in range(m):
            out[i] += np.convolve(K0[a], w.coeffs[i])[:N]
    for j, e in enumerate(frame.E):
        shifted = np.concatenate([[0j], k[j]])[:N]
        for i in range(m):
            out[i] += np.convolve(shifted, e.coeffs[i])[:N]
    return out


def shifted_rows(coeffs, n):
    out = np.zeros_like(coeffs)
    out[:, :max(coeffs.shape[1] - n, 0)] = coeffs[:, n:]
    return out


def looped_invariance(frame, refs, norms, depth):
    out = []
    for n in range(1, depth + 1):
        worst = 0.0
        for (_, K0, k, _, _), nrm in zip(refs, norms):
            v = looped_reassemble(frame, shifted_rows(K0, n), shifted_rows(k, n))
            worst = max(worst, frame.M.residual_flat(v.T.reshape(-1)) / nrm)
        out.append(worst)
    return out


def complement_frame(kind, m, N, seed):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        M = span_of(rand_orthonormal(rng, m, N, min(6, N - 2), 2)).perp()
    elif kind == "vanishing":
        # the constants lie in span G, so every member vanishes at the origin
        G = [reproducing_column(m, N, i) for i in range(m)]
        G += rand_orthonormal(rng, m, N, min(6, N - 2), 2, lo=1)
        M = span_of(G).perp()
    else:  # "invariant": polynomials of degree < d, the complement of z^d H2
        d = N // 3
        M = span_of([rand_coeffvec(rng, m, N, d) for _ in range(m * d)])
    return build_frame(M, compute_defect(M))


ORACLE_CASES = [(kind, m, N) for kind in ("generic", "vanishing", "invariant")
                for m, N in ((1, 8), (1, 24), (2, 11), (2, 16), (3, 8), (3, 20))]


class TestBatchedPeelingOracle:
    @pytest.mark.parametrize("kind,m,N", ORACLE_CASES)
    def test_matches_looped_peeling(self, kind, m, N):
        frame = complement_frame(kind, m, N, seed=10 * m + N)
        M = frame.M
        if kind == "vanishing":
            assert frame.r == 0 and frame.vanishing_case and frame.p > 0
        if kind == "invariant":
            assert frame.p == 0 and frame.r == m
        depth = default_depth(N)
        peeling = peel_members(M.basis, frame, depth=depth)
        members = M.basis_vectors()
        refs = [looped_peel(F, frame) for F in members]
        for i, (steps, K0, k, recon, iso) in enumerate(refs):
            assert peeling.lengths[i] == steps
            coords = peeling.coordinates(i)
            if frame.r:
                assert np.max(np.abs(coords.K0.coeffs - K0)) < 1e-12
            else:
                assert coords.K0 is None
            got_k = np.array([kj.coeffs[0] for kj in coords.k]).reshape(k.shape)
            assert np.max(np.abs(got_k - k), initial=0.0) < 1e-12
            assert recon < 1e-8 and abs(peeling.reconstruction_residuals[i] - recon) < 1e-12
            assert abs(peeling.isometry_gaps[i] - iso) < 1e-12
            for n in range(depth + 1):
                shifted = looped_reassemble(frame, shifted_rows(K0, n), shifted_rows(k, n))
                assert np.max(np.abs(peeling.reassemblies[n][:, i] - flat(shifted))) < 1e-12
        expected = looped_invariance(frame, refs, [F.norm() for F in members], depth)
        assert np.allclose(peeling.invariance.residuals, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ("generic", "vanishing"))
    def test_single_member_and_reassembly(self, kind):
        frame = complement_frame(kind, 2, 14, seed=3)
        for F in frame.M.basis_vectors()[:4]:
            steps, K0, k, _, _ = looped_peel(F, frame)
            peeling = peel_members(F.flatten()[:, None], frame)
            coords = peeling.coordinates(0)
            width = coords.k[0].N if coords.k else coords.K0.N
            assert width == max(steps, 1)
            rebuilt = peeling.reassemblies[0][:, 0]
            assert np.max(np.abs(rebuilt - flat(looped_reassemble(frame, K0, k)))) < 1e-12

    def test_non_member_column_rejected(self):
        frame = complement_frame("generic", 2, 12, seed=5)
        stray = frame.M.perp().basis[:, :1]
        batch = np.concatenate([frame.M.basis[:, :5], stray, frame.M.basis[:, 5:9]],
                               axis=1)
        with pytest.raises(ValueError):
            peel_members(batch, frame)

    def test_step_cap_leaves_unreconstructed_tail(self):
        frame = complement_frame("generic", 2, 16, seed=7)
        steps = peel_members(frame.M.basis, frame).lengths
        assert steps.max() > 4
        with pytest.raises(FrameDeficientError):
            peel_members(frame.M.basis, frame, max_steps=4)
        longest = frame.M.basis_vectors()[int(np.argmax(steps))]
        assert looped_peel(longest, frame, max_steps=4)[3] > 1e-8 * longest.norm()
        with pytest.raises(FrameDeficientError):
            extract_coordinates(longest, frame, max_steps=4)


# ---------------------------------------------------------------------------
# the rank-one candidates against the compressions they replaced
# ---------------------------------------------------------------------------


def _inner_critical(rng, theta, N):
    """H = Theta u, G = -u: the criterion 1 + <T_{Theta*} H, G> is zero."""
    u = rand_orthonormal(rng, theta.m, N, 5, 1)[0]
    return -1.0 * u, theta.act(u).analytic_part().resized(N)


class TestRankOneCandidates:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inner_candidate_equals_dense_compression(self, m, monkeypatch):
        rng = np.random.default_rng([m, 21])
        N = 16
        theta = _diagonal_inner(m)
        G, H = _inner_critical(rng, theta, N)
        seen = spy(monkeypatch, "_one_dim_structure", [representation])
        rep = inner_rank_one(theta, G, H, N)
        reference = ToeplitzCompression(theta.adjoint(), N).apply(H)
        assert rep.case == "spanned_kernel"
        assert np.array_equal(seen[0][1].coeffs, reference.coeffs)
        assert rep.criterion == 1.0 + inner_product(reference, G)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inner_candidate_mixing_symbol(self, m, monkeypatch):
        rng = np.random.default_rng([m, 22])
        N = 18
        theta = random_inner(rng, m, 2)
        G, H = _inner_critical(rng, theta, N)
        seen = spy(monkeypatch, "_one_dim_structure", [representation])
        rep = inner_rank_one(theta, G, H, N)
        reference = ToeplitzCompression(theta.adjoint(), N).apply(H)
        assert rep.case == "spanned_kernel"
        assert np.max(np.abs(seen[0][1].coeffs - reference.coeffs)) <= 1e-14

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_invertible_route_one_equals_dense_compression(self, m, monkeypatch):
        rng = np.random.default_rng([m, 23])
        N = 24
        F1, F2 = _invertible_factor(rng, m, 2), _invertible_factor(rng, m, 1)
        inv1, inv2 = invert_analytic(F1, N - 1), invert_analytic(F2, N - 1)
        h = rand_orthonormal(rng, m, N, 5, 1)[0]

        def route_one(H):
            intermediate = inv1.adjoint().act(H).analytic_part().resized(N)
            return ToeplitzCompression(inv2, N).apply(intermediate)

        scale = 1.0 / route_one(h).norm()
        H = scale * h
        reference = route_one(H)
        seen = spy(monkeypatch, "_one_dim_structure", [representation])
        inversions = spy(monkeypatch, "invert_analytic", CALLERS)
        rep = invertible_rank_one(F1, F2, -1.0 * reference, H, N)
        assert rep.case == "spanned_kernel" and rep.kernel_dim == 1
        assert np.max(np.abs(seen[0][1].coeffs - reference.coeffs)) <= 1e-12
        assert rep.details["convolution_gap"] <= 1e-12
        assert len(inversions) == 2

    def test_one_grid_test_per_model_space_path(self, rng, monkeypatch):
        m, N = 2, 16
        theta = _diagonal_inner(m)
        G, H = _inner_critical(rng, theta, N)
        calls = spy(monkeypatch, "is_inner", CALLERS)
        ms = build_model_space(theta, N)
        assert len(calls) == 1
        # the analyses take the certified model space and test nothing again
        rank_one_inner_kernel(solved_kernel(theta, G, H, N), ms, G, H)
        Gs, Hs = -1.0 * H, unit(-1.0 * G)
        kr = solved_kernel(theta.adjoint(), Gs, Hs, N)
        rank_one_theta_star_analysis(kr, compute_defect(kr.subspace), ms, Gs, Hs)
        assert len(calls) == 1

    def test_tol_inner_decides_innerness_only(self, rng):
        # a truncated Blaschke entry: inner to 9.1e-11, certified at 1e-8
        m, N = 2, 32
        theta = LaurentMatrixSymbol.diagonal([blaschke_taylor(0.3, 20), [0.0, 1.0]])
        G, H = _inner_critical(rng, theta, N)
        Gs, Hs = -1.0 * H, unit(-1.0 * G)
        assert inner_rank_one(theta, G, H, N).case == "spanned_kernel"
        star = theta_star_rank_one(theta, Gs, Hs, N)
        assert star.case == "in_range_critical" and star.details["equality_ok"]
        with pytest.raises(NotInnerError):
            build_model_space(theta, N, tol_inner=1e-12)
        # a loose innerness tolerance leaves the guards on G and H at 1e-8
        loose = build_model_space(theta, N, tol_inner=0.5)
        with pytest.raises(ValueError, match="unit norm"):
            rank_one_inner_kernel(solved_kernel(theta, 1.3 * G, H, N), loose, 1.3 * G, H)
        flat = CoeffVec.monomial(m, N, 0, 0)
        with pytest.raises(ValueError, match="nonzero backward shift"):
            rank_one_inner_kernel(solved_kernel(theta, G, flat, N), loose, G, flat)
        kr = solved_kernel(theta.adjoint(), 0.3 * H, Hs, N)
        small = rank_one_theta_star_analysis(kr, compute_defect(kr.subspace), loose,
                                             0.3 * H, Hs)
        assert small.case == "in_range_noncritical" and small.details["equality_ok"]

    def test_kernel_and_model_space_must_match(self, rng):
        theta = _diagonal_inner(2)
        G, H = _inner_critical(rng, theta, 16)
        kr = solved_kernel(theta, G, H, 16)
        # the families' shape checks refuse a model space of another size
        with pytest.raises(DimensionMismatch):
            rank_one_inner_kernel(kr, build_model_space(theta, 20), G, H)
        # a kernel solved without factors carries no series to read
        with pytest.raises(ValueError, match="invertible factors"):
            rank_one_invertible_kernel(kr, G, H)

    def test_non_inner_symbol_rejected(self, rng):
        bad = LaurentMatrixSymbol.diagonal([[2.0, 1.0], [2.0, 1.0]])
        G, H = rand_orthonormal(rng, 2, 12, 4, 1)[0], CoeffVec.monomial(2, 12, 0, 1)
        with pytest.raises(NotInnerError):
            inner_rank_one(bad, G, H, 12)
        with pytest.raises(NotInnerError):
            theta_star_rank_one(bad, G, H, 12)
