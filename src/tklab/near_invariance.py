"""Near-invariance defect measurement and the per-symbol-class predictions.

The defect of a subspace M measures how far backward-shifting its
origin-vanishing members escapes M: residuals r_F = S*F - P_M(S*F) over the
slice {F in M : F(0) = 0} span the (minimal, orthogonal-to-M) defect space.

``kernel_of`` extracts the polynomial kernel of a perturbed operator from
its exact-action matrix (for the zero symbol from the n x n core of the bump
H G^H, with the kernel's n-dimensional complement kept for the defect;
inside the class's small candidate space when the symbol is exactly inner,
the adjoint of one, or a product of given invertible factors; by dense SVD
otherwise), and ``compute_defect`` measures the kernel's defect.  Each
class prediction (``_zero_prediction`` .. ``_theta_star_prediction``) takes
the operator, kernel and measured defect that ``cli_reports.ScenarioRun``
holds and returns a copy of the measured report with the prediction
attached.  Predictions are generally oblique to the kernel, so containment
is assessed modulo M: the defect (which is orthogonal to M by construction)
must lie inside span(M + prediction), equivalently inside the prediction
projected onto the orthocomplement of M.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .config import ALTERNATE_FORM_FLOOR, NEGLIGIBLE_NORM, SUBSPACE_GRAM_BOUND
from .errors import DimensionMismatch
from .hardy_core import flat_columns
from .model_spaces import ModelSpace, decompose_against_theta
from .operators import PerturbedToeplitz, range_complement
from .subspaces import (RankCut, SigmaGap, Subspace, _adjoint, _combine, _dense,
                        _LinkBlock, _nonzero_lines, _overlap, _product, _shift, _trimmed,
                        column_gram_deviation, column_norms, column_span, is_contained,
                        nullspace, nullspace_within, rank_cut, subspace_equal,
                        value_split, zero_space)
from .symbols import (InvertibilityCheck, apply_block_toeplitz, is_exactly_inner,
                      solve_block_toeplitz)


@dataclass(frozen=True)
class KernelResult:
    subspace: Subspace
    residual_max: float
    audit_violations: int
    #: "zero" for the zero symbol's n x n core, "inner", "theta_star" or
    #: "factored" for a structured solve, "dense" for the SVD of the whole
    #: action matrix
    method: str
    #: the factored path's invertibility certificates of F1 and F2, from
    #: which its candidates and the rank-one analysis apply T_N(F1)^-H and
    #: T_N(F2)^-1 by substitution; None otherwise
    factors: tuple[InvertibilityCheck, InvertibilityCheck] | None = None
    #: the factored path's defect prediction F2^-1 S* T_N(F1)^-H H as flat
    #: mN x n columns, from the substitutions that formed its candidates;
    #: None otherwise
    prediction: np.ndarray | None = None
    #: the zero route's orthonormal basis (mN x rank A) of the kernel's
    #: orthocomplement, where the kernel's defect lies; None otherwise
    complement: np.ndarray | None = None

    @property
    def sigma_cut(self) -> float:
        return self.subspace.tol

    @property
    def sigma_gap(self) -> SigmaGap:
        return self.subspace.sigma_gap

    @property
    def sigma_ratio(self) -> float:
        """The kernel cut's audited sigma-gap ratio."""
        return float(self.sigma_gap.audited_ratio(self.sigma_cut, unit=False))


def kernel_of(T: PerturbedToeplitz, tol_rel: float | None = None,
              factors: tuple[InvertibilityCheck, InvertibilityCheck] | None = None
              ) -> KernelResult:
    """Polynomial kernel of the perturbed operator.

    Uses the exact action (with overflow rows) so that top-degree monomials
    flushed past the truncation window cannot masquerade as kernel vectors.
    For the zero symbol with fewer than mN pairs (G, H) and no ``factors``,
    the kernel comes from the n x n core of A = H G^H (``_zero_kernel``),
    and its complement is kept for the defect.  For an exactly inner
    symbol, the adjoint of one, or a symbol F1* F2 with ``factors`` the
    invertibility certificates of F1 and F2, the kernel is solved inside a
    candidate space of dimension at most n + md (``nullspace_within``), and
    A Z, A's column norms and the audit A K come from the operator's
    coefficients without a dense matrix.  Everything else, and any
    structured solve whose certified gap cannot settle the rank, takes the
    dense SVD of the whole action matrix and audits with it.  Every basis
    vector is audited against 10x the singular-value cut.
    """
    method, complement, prediction = "dense", None, None
    if factors is None and T.base.symbol.is_zero() and T.rank < T.m * T.N:
        method = "zero"
        ker, complement, image = _zero_kernel(T, tol_rel)
    else:
        ker = None
        # a certified bound on |A|_2, the scale of both cuts below
        alpha = T.base.symbol.coefficient_l1_norm() + _bump_norm(T.G_matrix, T.H_matrix)
        candidates = _kernel_candidates(T, factors)
        if candidates is not None:
            method, prediction = candidates.method, candidates.prediction
            ker = nullspace_within(T, candidates.Z, alpha, candidates.L_norm,
                                   tol_rel=tol_rel)
        if ker is None:
            method = "dense"
            action = T.action_matrix()
            ker = nullspace(action, (T.m, T.N), tol_rel=tol_rel, scale=alpha)
            image = action @ ker.basis
        else:
            image = T.apply_action(ker.basis)
    norms = np.linalg.norm(image, axis=0)
    resid = float(np.max(norms, initial=0.0))
    violations = int(np.sum(norms > 10.0 * max(ker.tol, np.finfo(float).eps)))
    return KernelResult(subspace=ker, residual_max=resid, audit_violations=violations,
                        method=method, factors=factors, prediction=prediction,
                        complement=complement)


def _zero_kernel(T: PerturbedToeplitz, tol_rel: float | None
                 ) -> tuple[Subspace, np.ndarray, np.ndarray]:
    """Kernel K of the zero symbol's action A = H G^H (n < mN), the
    orthonormal basis U of its orthocomplement, and the image A K of K's
    head columns.

    G vanishes past its first s rows, s = 1 + its last nonzero row and at
    least n, so with the complete QR G[:s] = Q_s R_G the complete QR of G
    is blockdiag(Q_s, I).  With the reduced QR H = Q_H R_H,
    A = Q_H C Q_s[:, :n]^H for the n x n core C = R_H R_G[:n]^H.  So A's
    nonzero singular values are C's, and with C = u s v^H its right
    singular vectors are Q_s[:, :n] v.  The cut is the dense path's,
    ``rank_cut`` of s at the action's shape; K is Q_s[:, n:], the unit
    vectors e_j for j >= s, and Q_s[:, :n] v over the singular values at or
    below the cut, in that order, and U = Q_s[:, :n] v over the kept ones,
    so [K, U] is unitary.  For s < mN, K is held as links plus one block
    (``_LinkBlock``): its links are the unit vectors e_j, j >= s, which A
    sends to zero exactly (G^H e_j = 0), and its block is the s-row head, so
    the audit A K = H (G[:s]^H K_head) is read on the head alone.

    The zero side of the gap is |A K|_F, measured on the computed K: it is
    at least |A K|_2, which by Courant-Fischer is at least the largest
    singular value of A past the kept ones.  The signal side is the
    smallest kept singular value of C less max(shape) eps |A|, the dense
    SVD's own backward error, with |A|_2 <= |G|_2 |H|_2, so it never reads
    cleaner than the dense gap.
    """
    G, H, n = T.G_matrix, T.H_matrix, T.rank
    rows = G.shape[0]
    support = np.flatnonzero(np.any(G != 0, axis=1))
    s = max(int(support[-1]) + 1 if support.size else 0, n)
    Q_s, R_G = np.linalg.qr(G[:s], mode="complete")
    R_H = np.linalg.qr(H, mode="r")
    _, sv, vh = np.linalg.svd(R_H @ R_G[:n].conj().T)
    thresh, rank, _ = rank_cut(sv, n, T.action_shape, tol_rel, 0.0)
    V = Q_s[:, :n] @ vh.conj().T
    head = np.concatenate([Q_s[:, n:], V[:, rank:]], axis=1)
    image = H @ (G[:s].conj().T @ head)
    signal = None
    if rank:
        signal = (float(sv[rank - 1])
                  - max(T.action_shape) * np.finfo(float).eps * _bump_norm(G, H))
    gap = SigmaGap(float(np.linalg.norm(image)), signal)
    U = np.zeros((rows, rank), dtype=complex)
    U[:s] = V[:, :rank]
    # a G of full degree leaves no unit columns: the head is the basis
    basis = head
    if s < rows:
        lead, K = s - n, head.shape[1] + rows - s
        basis = _LinkBlock(np.arange(s, rows), np.arange(lead, lead + rows - s),
                           np.arange(s), np.r_[:lead, lead + rows - s:K], head, (rows, K))
    return Subspace(T.m, T.N, basis, thresh, gap), U, image


class _Candidates(NamedTuple):
    method: str
    #: orthonormal basis of the candidate space Z
    Z: np.ndarray
    #: bound on |L|
    L_norm: float
    #: the factored path's F2^-1 S* T_N(F1)^-H H, None otherwise
    prediction: np.ndarray | None = None


def _bump_norm(G: np.ndarray, H: np.ndarray) -> float:
    """|H G^H|_2 <= |G|_2 |H|_2, from the n x n Grams of the families."""
    g, h = (np.max(np.linalg.eigvalsh(X.conj().T @ X), initial=0.0) for X in (G, H))
    return float(np.sqrt(g * h))


def _kernel_candidates(T: PerturbedToeplitz,
                       factors: tuple[InvertibilityCheck, InvertibilityCheck] | None
                       ) -> _Candidates | None:
    """The candidate space of ``nullspace_within`` for T's symbol class, or
    None for the dense path.  Given factors take the factored path even when
    their product is also (the adjoint of) an exactly inner symbol, so the
    prediction always reads the same certificates.

    With B the base action matrix and H the bump's range family:
    - inner Theta: B is an isometry, so L = B^H gives L B = I, Z0 = 0,
      |L| = 1 and Z = span{T_{Theta*} H_i};
    - Theta*: B = C^H for the square compression C of Theta, and
      R = Theta P_{N-d}, the first m(N - d) columns of C, is orthonormal;
      L y = R y[:m(N - d)] gives L B F = R R^H F, so
      Z0 = R^perp (``range_complement``), |L| = 1 and
      Z = R^perp + span{R P_{N-d} H_i};
    - F1* F2: L = T_N(F2^-1) T(F1*^-1), with T(F1*^-1) from the
      N + d_pos action degrees to P_N, inverts B exactly on P_N, Z0 = 0,
      and L H_i is the rank-one candidate F2^-1 T_{F1*^-1} H_i.  On P_N,
      T(F1*^-1) is T_N(F1^-1)^H = T_N(F1)^-H, so L H comes from two
      substitutions (``symbols.solve_block_toeplitz``), and |L| is at most
      the product of the factors' l1 bounds over N + d_pos and N degrees
      (``InvertibilityCheck.l1_norm``).  The F2 substitution runs over
      Y = T_N(F1)^-H H and S* Y together, so it also yields the defect
      prediction F2^-1 S* T_{F1*^-1} H_i.
    """
    phi, m, N = T.base.symbol, T.m, T.N
    H = T.H_matrix
    if factors is not None:
        c1, c2 = factors
        if not (c1.ok and c2.ok):
            raise ValueError("factors are not certified invertible")
        if not phi.equals(c1.factor.adjoint().multiply(c2.factor)):
            raise ValueError("factors do not multiply to the operator's symbol")
        Y = solve_block_toeplitz(c1, H, adjoint=True)
        both = solve_block_toeplitz(c2, np.concatenate([Y, _shift(Y, -m)], axis=1))
        n = H.shape[1]
        return _Candidates("factored", _orthonormal_span(both[:, :n]),
                           c1.l1_norm(N + phi.d_pos) * c2.l1_norm(N), both[:, n:])
    if is_exactly_inner(phi):
        LH = apply_block_toeplitz(phi.adjoint(), H, N)
        return _Candidates("inner", _orthonormal_span(LH), 1.0)
    theta = phi.adjoint()
    if is_exactly_inner(theta):
        LH = apply_block_toeplitz(theta, H[:m * (N - theta.d)], N)
        return _Candidates("theta_star", _orthonormal_span(range_complement(theta, N), LH),
                           1.0)
    return None


def _orthonormal_span(*blocks: np.ndarray) -> np.ndarray:
    """Orthonormal columns whose span contains every given column (no rank cut:
    extra directions only enlarge Z, dropped ones could lose kernel)."""
    stack = np.concatenate(blocks, axis=1)
    return np.linalg.qr(stack)[0] if stack.shape[1] else stack



@dataclass
class DefectReport:
    """Defect measurement, optionally against a predicted defect space."""

    subspace_dim: int
    slice_dim: int
    defect_basis: Subspace
    #: orthonormal basis (mN x r) of the subspace minus its origin slice,
    #: from the value split; ``build_frame`` reads it as the W frame, and it
    #: is not part of the JSON report
    W: np.ndarray
    #: the value split's cut, whose gap is ``details["slice_sigma_gap"]``
    value_cut: RankCut
    predicted: Subspace | None = None
    #: the prediction projected off the kernel, cut at the defect floor: the
    #: space the containment residuals compare with the defect
    predicted_mod: Subspace | None = None
    containment_residual: float | None = None
    kernel_residual_max: float | None = None
    defect_bound: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def defect_dim(self) -> int:
        return self.defect_basis.dim

    @property
    def sigma_gap(self) -> SigmaGap:
        return self.defect_basis.sigma_gap

    @property
    def predicted_dim(self) -> int | None:
        return None if self.predicted is None else self.predicted.dim

    @property
    def bound_ok(self) -> bool:
        return self.defect_bound is None or self.defect_dim <= self.defect_bound

    def containment_ok(self, tol: float) -> bool:
        return self.containment_residual is None or self.containment_residual <= tol

    def to_json(self) -> dict:
        return {
            "subspace_dim": self.subspace_dim,
            "slice_dim": self.slice_dim,
            "defect_dim": self.defect_dim,
            "sigma_gap": self.sigma_gap.to_pair(),
            "containment_residual": self.containment_residual,
            "predicted_dim": self.predicted_dim,
            "kernel_residual_max": self.kernel_residual_max,
            "details": dict(self.details),
        }


def compute_defect(M: Subspace, defect_floor: float = 1e-8,
                   tol_rel: float | None = None,
                   complement: np.ndarray | None = None) -> DefectReport:
    """Measure the near-invariance defect of M.

    One thin ``value_split`` of M's values at the origin gives the origin
    slice's dimension, the gap of its cut (``details["slice_sigma_gap"]``)
    and W, an orthonormal basis of M minus the slice.  The defect is
    P_{M^perp} S*(slice): without ``complement`` it is the span of the
    residual stack R = S*X - P_M S*X over X = Q - W (W^H Q), M's basis Q
    projected onto the slice.  Both routes cut over the min(mN, slice dim)
    directions of an (mN, slice dim) matrix; directions below the absolute
    floor are noise, which keeps exactly invariant subspaces (for instance
    model spaces) at defect zero.  A basis held as links plus a block stays
    so through the residual stack, whose SVD takes its nonzero lines only.

    ``complement`` is an orthonormal basis U of M's orthocomplement, as the
    zero-symbol kernel solve keeps it; it must have mN - dim M columns
    orthogonal to M within the ``Subspace`` Gram bound, or ValueError is
    raised.  Then the slice's projection is P = I - U U^H - W W^H, and
    U^H S* P = (P S U)^H, so the defect is U range((P S U)^H): U times the
    kept right singular vectors of the mN x dim U matrix P S U, which has
    the singular values of U^H R and so of R.  No mN x dim M array is
    projected or shifted.
    """
    m, N = M.m, M.N
    if complement is not None:
        _check_complement(M, complement)
    split = value_split(M)
    details = {"slice_sigma_gap": split.cut.gap.to_pair()}
    if split.slice_dim == 0:
        nothing = Subspace(m, N, np.zeros((m * N, 0), complex), 0.0, SigmaGap(0.0, None))
        return DefectReport(subspace_dim=M.dim, slice_dim=0, defect_basis=nothing,
                            W=split.W, value_cut=split.cut, details=details)
    W, U = split.W, complement
    if U is None:
        Q = M.held
        if not isinstance(Q, np.ndarray):
            W = _trimmed(W)
        shifted = _shift(_combine(np.subtract, Q, _product(W, _product(_adjoint(W), Q))), -m)
        R = _combine(np.subtract, shifted, _product(Q, M.coefficients(shifted)))
        if isinstance(R, np.ndarray):
            u, s, _ = np.linalg.svd(R, full_matrices=False)
        else:
            rows, cols = (np.flatnonzero(mask) for mask in _nonzero_lines(R))
            head, s, _ = np.linalg.svd(_dense(R, rows, cols), full_matrices=False)
            u = np.zeros((m * N, s.size), dtype=complex)
            u[rows] = head
    elif U.shape[1]:
        SU = _shift(U, m)  # the truncating forward shift, S*'s adjoint
        _, s, vh = np.linalg.svd(SU - U @ (U.conj().T @ SU) - W @ (W.conj().T @ SU),
                                 full_matrices=False)
        u = U @ vh.conj().T
    else:
        u, s = U, np.zeros(0)
    shape = (m * N, split.slice_dim)
    cut = rank_cut(s, min(shape), shape, tol_rel, defect_floor)
    defect = Subspace(m, N, u[:, :cut.rank], cut.threshold, cut.gap)
    details["defect_overlap_with_subspace"] = (
        _overlap(defect.basis, M.held) if defect.dim and M.dim else 0.0)
    return DefectReport(subspace_dim=M.dim, slice_dim=split.slice_dim,
                        defect_basis=defect, W=split.W, value_cut=split.cut,
                        details=details)


def _check_complement(M: Subspace, U: np.ndarray) -> None:
    """U is an orthonormal basis of M's orthocomplement, within the
    ``Subspace`` Gram bound; the complement route is exact only then."""
    rows = M.m * M.N
    if U.ndim != 2 or U.shape[0] != rows:
        raise DimensionMismatch(f"complement shape {U.shape} vs ambient {M.m}*{M.N}")
    if column_gram_deviation(U) > SUBSPACE_GRAM_BOUND:
        raise ValueError(
            f"complement columns are not orthonormal within {SUBSPACE_GRAM_BOUND:g}")
    if M.dim + U.shape[1] != rows:
        raise ValueError(f"complement has {U.shape[1]} columns, the subspace {M.dim}: "
                         f"they do not add up to {rows}")
    if M.dim and U.shape[1]:
        overlap = _overlap(U, M.held)
        if overlap > SUBSPACE_GRAM_BOUND:
            raise ValueError(f"complement is not orthogonal to the subspace "
                             f"(overlap {overlap:.3e})")


def _attach_prediction(measured: DefectReport, kr: KernelResult,
                       predicted_vectors: np.ndarray, defect_floor: float,
                       defect_bound: int) -> DefectReport:
    """A copy of the measured report with its class prediction attached.

    ``predicted_vectors`` holds the prediction as flat mN x k columns.  The
    prediction spans need not be orthogonal to M (the kernel), while the
    measured defect is; so the fair comparison projects the prediction onto
    the orthocomplement of M: U (U^H X) when the kernel solve kept M's
    complement U, X - P_M X otherwise.  Equality of that projection with the
    defect is recorded alongside the containment residual.  ``measured``
    itself is left as it was, so one measurement can serve every check of a
    scenario.
    """
    report = replace(measured, details=dict(measured.details), defect_bound=defect_bound)
    M, U = kr.subspace, kr.complement
    shape = (M.m, M.N)
    nonzero = predicted_vectors[:, column_norms(predicted_vectors) > NEGLIGIBLE_NORM]
    if not nonzero.shape[1]:
        report.predicted = zero_space(*shape)
        report.containment_residual = 0.0 if report.defect_dim == 0 else 1.0
        return report
    predicted = column_span(nonzero, shape)
    report.predicted = predicted
    outside = (nonzero - M.project_flat(nonzero) if U is None
               else U @ (U.conj().T @ nonzero))
    pred_mod = column_span(outside, shape, floor=defect_floor)
    report.predicted_mod = pred_mod
    # the equality residual is the larger of the two containments
    _, resid = is_contained(report.defect_basis, pred_mod)
    report.containment_residual = resid
    report.details["prediction_mod_kernel_dim"] = pred_mod.dim
    report.details["prediction_equality_residual"] = max(
        resid, is_contained(pred_mod, report.defect_basis)[1])
    return report


def _kernel_defect(kr: KernelResult, defect_floor: float,
                   tol_rel: float | None) -> DefectReport:
    """The kernel's measured defect, with the kernel solve's audit in details."""
    report = compute_defect(kr.subspace, defect_floor=defect_floor, tol_rel=tol_rel,
                            complement=kr.complement)
    report.kernel_residual_max = kr.residual_max
    report.details["kernel_sigma_cut"] = kr.sigma_cut
    report.details["kernel_sigma_ratio"] = kr.sigma_ratio
    report.details["kernel_audit_violations"] = kr.audit_violations
    report.details["kernel_method"] = kr.method
    return report


def _zero_prediction(T: PerturbedToeplitz, kr: KernelResult, measured: DefectReport,
                     defect_floor: float) -> DefectReport:
    return _attach_prediction(measured, kr, T.G_matrix, defect_floor, T.rank)


def _inner_prediction(T: PerturbedToeplitz, kr: KernelResult, measured: DefectReport,
                      defect_floor: float) -> DefectReport:
    # C_{Theta*} applied to H and to S* H; S* is a shift of the flat rows
    H_mat, n = T.H_matrix, T.rank
    both = apply_block_toeplitz(
        T.base.symbol.adjoint(),
        np.concatenate([H_mat, _shift(H_mat, -T.m)], axis=1), T.N)
    predicted = _shift(both[:, :n], -T.m)
    alternate = both[:, n:]
    report = _attach_prediction(measured, kr, predicted, defect_floor, n)
    # the shifted-then-compressed and compressed-then-shifted forms span the
    # same space; record how exactly
    forms = np.concatenate([predicted, alternate], axis=1)
    if np.max(column_norms(forms), initial=0.0) < NEGLIGIBLE_NORM:
        report.details["alternate_form_residual"] = 0.0
    else:
        _, resid = subspace_equal(
            column_span(predicted, (T.m, T.N), floor=ALTERNATE_FORM_FLOOR),
            column_span(alternate, (T.m, T.N), floor=ALTERNATE_FORM_FLOOR))
        report.details["alternate_form_residual"] = resid
    return report


def _factored_prediction(T: PerturbedToeplitz, kr: KernelResult, measured: DefectReport,
                         defect_floor: float) -> DefectReport:
    # F2^-1 S* T_{F1*^-1} H_i, solved with the kernel's candidates
    return _attach_prediction(measured, kr, kr.prediction, defect_floor, T.rank)


def _theta_star_prediction(T: PerturbedToeplitz, kr: KernelResult,
                           measured: DefectReport, defect_floor: float,
                           ms: ModelSpace, range_membership: float) -> DefectReport:
    outside = []
    for g in T.G:
        split = decompose_against_theta(g, ms, tol_membership=range_membership)
        if not split.in_range:
            outside.append(split.model_part)
    predicted = np.concatenate(
        [apply_block_toeplitz(ms.theta, _shift(T.H_matrix, -T.m), T.N),
         flat_columns(outside, T.m * T.N)], axis=1)
    report = _attach_prediction(measured, kr, predicted, defect_floor,
                                T.rank + len(outside))
    report.details["outside_range_count"] = len(outside)
    return report
