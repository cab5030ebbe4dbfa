"""Numerical subspace lattice over truncated coefficient space.

Subspaces carry an orthonormal basis of the flattened (degree-major) ambient
C^{mN} together with the sigma gap observed at the rank cut that produced
them.  Rank decisions are auditable: every report records the boundary
singular values on both sides of the cut; a ratio near 1 means the decision
was not clean and downstream checks should flag themselves inconclusive
rather than pass.

Each algorithm has one copy here: the relative rank cut (``_relative_cut``)
and the gap it reports (``SigmaGap.at``), the null directions of a full SVD
(``nullspace``), the split of a subspace by its values at the origin
(``value_split``), the matrix product over exact nonzeros (``_product``), the
Gram check (``column_gram_deviation``), the overlap of two bases (``_overlap``),
Gram-Schmidt (``gram_schmidt``) and the projection Q (Q^H X) (``Subspace.project_flat``).

A basis may be held by its exact nonzeros (``_Nonzeros``) instead of as an
array; the product, the sums (``_combine``), the row shifts (``_shift``) and
the row and block reads (``_top``, ``_block``) take either form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (COMPLEMENT_CUT, ORIGIN_SLICE_FLOOR, SUBSPACE_GRAM_BOUND,
                     SUPPORT_PRODUCT_FACTOR, SUPPORT_PRODUCT_MIN, rank_threshold)
from .errors import ContainmentError, DimensionMismatch
from .hardy_core import CoeffVec, column_vectors


@dataclass(frozen=True)
class SigmaGap:
    """Boundary singular values at a rank cut.

    ``zero_side`` is the largest singular value treated as zero (None when
    nothing was classified as zero), ``signal_side`` the smallest one treated
    as genuine (None when everything was zero).  ``ratio`` is small for clean
    cuts and close to 1 for ambiguous ones.
    """

    zero_side: float | None
    signal_side: float | None

    @property
    def ratio(self) -> float:
        if self.zero_side is None:
            return 0.0
        if self.signal_side is None or self.signal_side == 0.0:
            return float("inf") if self.zero_side > 0 else 0.0
        return self.zero_side / self.signal_side

    def audited_ratio(self, cut: float) -> float:
        """``ratio``, except that a cut which kept nothing while treating a
        positive singular value as zero is judged against the cut itself:
        zero side / cut (infinite for a zero cut).  A cut equal to the
        largest singular value reads 1 and one that only dropped roundoff far
        below it reads small, but the ratio shrinks as the cut grows past the
        largest singular value: a cut far above the signal reads clean.  So a
        relative cut is held to at most 1 (``Tolerances``)."""
        ratio = self.ratio
        if ratio == float("inf"):
            ratio = self.zero_side / cut if cut > 0 else float("inf")
        return ratio

    def to_pair(self) -> list:
        return [self.zero_side, self.signal_side]

    @classmethod
    def at(cls, s: np.ndarray, rank: int) -> "SigmaGap":
        """The gap of a cut that keeps the first ``rank`` of the descending
        spectrum ``s``."""
        return cls(zero_side=float(s[rank]) if rank < len(s) else None,
                   signal_side=float(s[rank - 1]) if rank > 0 else None)


class Subspace:
    """Orthonormal-basis subspace of the (m, N) coefficient ambient.

    The basis is held as an array or by its exact nonzeros (``_Nonzeros``),
    as the zero-symbol kernel holds its unit columns.  Products read the
    held form (``held``) through ``_product``; the dense ``basis`` is built
    only when a reader asks for it, and then cached.
    """

    __slots__ = ("_m", "_N", "_held", "_basis", "_tol", "_sigma_gap")

    def __init__(self, m: int, N: int, basis: np.ndarray | _Nonzeros, tol: float,
                 sigma_gap: SigmaGap | None = None):
        if not isinstance(basis, _Nonzeros):
            basis = np.asarray(basis, dtype=complex)
        if len(basis.shape) != 2 or basis.shape[0] != m * N:
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match ambient {m}*{N}")
        if basis.shape[1] > m * N:
            raise DimensionMismatch("more basis vectors than ambient dimensions")
        if column_gram_deviation(basis) > SUBSPACE_GRAM_BOUND:
            raise ValueError(
                f"basis columns are not orthonormal within {SUBSPACE_GRAM_BOUND:g}")
        if isinstance(basis, _Nonzeros):
            basis = _Nonzeros(*(_frozen(part) for part in basis[:3]), basis.shape)
            self._basis = None
        else:
            basis = self._basis = _frozen(basis)
        self._m, self._N = int(m), int(N)
        self._held = basis
        self._tol = float(tol)
        self._sigma_gap = sigma_gap if sigma_gap is not None else SigmaGap(None, None)

    @property
    def m(self) -> int:
        return self._m

    @property
    def N(self) -> int:
        return self._N

    @property
    def dim(self) -> int:
        return self._held.shape[1]

    @property
    def held(self) -> np.ndarray | _Nonzeros:
        """The basis as held: an array, or its ``_Nonzeros``."""
        return self._held

    @property
    def basis(self) -> np.ndarray:
        """The dense orthonormal basis, mN x dim (read-only), built from the
        held nonzeros on first request."""
        if self._basis is None:
            self._basis = _frozen(_dense(self._held))
        return self._basis

    @property
    def tol(self) -> float:
        return self._tol

    @property
    def sigma_gap(self) -> SigmaGap:
        return self._sigma_gap

    def basis_vectors(self) -> list[CoeffVec]:
        return column_vectors(self.basis, self._m, self._N)

    def coefficients(self, X: np.ndarray) -> np.ndarray:
        """Q^H X for mN x k columns X, as (X^H Q)^H: only X is conjugated."""
        return _adjoint(_dense(_product(_adjoint(X), self._held)))

    def project_flat(self, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection Q (Q^H X) of a flat vector or mN x k array."""
        X = np.asarray(X, dtype=complex)
        if self.dim == 0:
            return np.zeros_like(X)
        columns = X.reshape(X.shape[0], -1)
        return _dense(_product(self._held, self.coefficients(columns))).reshape(X.shape)

    def residual_flat(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(v, dtype=complex) - self.project_flat(v)))

    def perp(self) -> "Subspace":
        """Orthogonal complement within the full ambient: the trailing
        columns of a complete QR of the basis."""
        q = np.linalg.qr(self.basis, mode="complete")[0]
        return Subspace(self._m, self._N, q[:, self.dim:], self._tol)

    def __repr__(self) -> str:
        return f"Subspace(m={self._m}, N={self._N}, dim={self.dim})"


def _frozen(X: np.ndarray) -> np.ndarray:
    """A read-only copy of X."""
    X = X.copy()
    X.setflags(write=False)
    return X


def zero_space(m: int, N: int) -> Subspace:
    return Subspace(m, N, np.zeros((m * N, 0), dtype=complex), 0.0)


def nullspace(A: np.ndarray, shape: tuple[int, int],
              tol_rel: float | None = None, scale: float = 0.0) -> Subspace:
    """Numerical kernel of A acting on the flattened (m, N) ambient.

    Right singular vectors whose singular value falls at or below the rank
    threshold form the basis.  For the zero matrix every direction counts.
    The threshold is relative to max(s[0], scale): with ``scale`` a bound on
    the norm of the operator A was formed from, an action that cancels to
    roundoff (I - U U^H with U unitary) is all kernel, not full rank.  A
    ``tol_rel`` coarser than the size-aware default takes ``scale`` only at
    the default's level: the bound may exceed |A|_2 severalfold, and it is
    there to keep roundoff from faking rank, not to widen a coarse cut.
    """
    m, N = shape
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[1] != m * N:
        raise DimensionMismatch(f"matrix shape {A.shape} vs ambient {m}*{N}")
    if not np.isfinite(A).all():
        raise ValueError("matrix must be finite")
    if np.max(np.abs(A)) == 0.0:
        return Subspace(m, N, np.eye(m * N, dtype=complex), 0.0,
                        SigmaGap(0.0, None))
    # rank_threshold is linear in its sigma_max, so this floor anchors the
    # relative cut at max(s[0], scale)
    floor = min(rank_threshold(A.shape, scale, tol_rel), rank_threshold(A.shape, scale))
    combos, thresh, gap = _null_combinations(A, tol_rel, floor=floor)
    return Subspace(m, N, combos, thresh, gap)


def _null_combinations(A: np.ndarray, tol_rel: float | None,
                       floor: float = 0.0) -> tuple[np.ndarray, float, SigmaGap]:
    """Orthonormal null directions of A (A.shape[1] x k), with the cut and its gap.

    A full SVD, its spectrum padded with zeros to the column count, so the
    exact-null directions of a wide matrix survive the cut.
    """
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    s = np.concatenate([s, np.zeros(A.shape[1] - s.size)])
    thresh, rank = _relative_cut(A.shape, s, tol_rel, floor)
    return vh[rank:].conj().T, thresh, SigmaGap.at(s, rank)


def _relative_cut(shape: tuple[int, int], s: np.ndarray, tol_rel: float | None,
                  floor: float = 0.0) -> tuple[float, int]:
    """The relative rank cut on a descending spectrum, never below ``floor``;
    returns (threshold, rank)."""
    thresh = max(rank_threshold(shape, float(s[0]), tol_rel), floor)
    return thresh, int(np.sum(s > thresh))


def nullspace_within(AZ: np.ndarray, Z: np.ndarray, shape: tuple[int, int],
                     A_shape: tuple[int, int], A_column_max: float, alpha: float,
                     L_norm: float, tol_rel: float | None = None) -> Subspace | None:
    """Kernel of A inside a candidate space Z known to contain it.

    A itself is never read: the caller passes the product ``AZ`` = A Z, A's
    shape ``A_shape`` and its largest column norm ``A_column_max``, which a
    structured operator gets from its coefficients.

    Write A = B + Hp G^H and suppose a map L and a subspace Z0 satisfy
    L B F - F in Z0 for every F.  A kernel vector has B F = -Hp G^H F, so
    F = L B F - (L B F - F) = -L Hp (G^H F) - z0 lies in
    Z := Z0 + range(L Hp).  For any F, L A F = L B F + L Hp G^H F differs
    from F by a member of Z, so dist(F, Z) <= |L| |A F|.  ``Z`` is an
    orthonormal basis of any space containing that Z; the kernel is
    Z null(A Z), from the SVD of a rows x dim Z matrix instead of rows x mN.

    The cut is rank_threshold(A_shape, alpha, tol_rel) with ``alpha`` a
    certified upper bound on |A|_2, never A Z's own largest singular value.
    The zero side of the reported gap is the largest singular value of A Z
    at or below the cut, which is no smaller than the matching singular
    value of A.  The signal side is the certified lower bound
    sigma_Z / (1 + |L| (alpha + sigma_Z)) on |A F| over unit F orthogonal
    to the kernel, sigma_Z the smallest kept singular value of A Z (1 / |L|
    when none is kept): write F = z + e with z in Z minus the kernel and
    |e| <= |L| |A F|; then sigma_Z (1 - |L| |A F|) <= |A z|
    <= (1 + alpha |L|) |A F|.  Less the dense SVD's own backward error
    max(A_shape) eps alpha, it never reads cleaner than the dense gap.  The
    dense SVD cuts at a level between rank_threshold at a lower bound of
    |A|_2 (A Z's largest singular value or A's largest column norm) and the
    cut above; when the signal bound does not clear the upper cut, or the
    zero side does not stay below the lower one, the two decisions could
    differ and None is returned: the caller runs the dense ``nullspace``.
    """
    m, N = shape
    thresh = rank_threshold(A_shape, alpha, tol_rel)
    if Z.shape[1]:
        _, s, vh = np.linalg.svd(AZ, full_matrices=False)
    else:
        s, vh = np.zeros(0), np.zeros((0, 0), complex)
    rank = int(np.sum(s > thresh))
    if rank:
        sigma = float(s[rank - 1])
        signal = sigma / (1.0 + L_norm * (alpha + sigma))
    else:
        signal = 1.0 / L_norm
    signal -= max(A_shape) * np.finfo(float).eps * alpha
    zero = float(s[rank]) if rank < s.size else None
    lower = max(float(s[0]) if s.size else 0.0, float(A_column_max))
    if signal <= thresh or (zero is not None
                            and zero > rank_threshold(A_shape, lower, tol_rel)):
        return None
    return Subspace(m, N, Z @ vh[rank:].conj().T, thresh, SigmaGap(zero, signal))


def column_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of every column of X."""
    return np.sqrt(np.einsum("ij,ij->j", X.real, X.real)
                   + np.einsum("ij,ij->j", X.imag, X.imag))


def _overlap(X: np.ndarray, Q: np.ndarray | _Nonzeros) -> float:
    """max |X^H Q| for a narrow X: only X is conjugated, not the wide Q,
    which may be held by its nonzeros."""
    return float(np.max(np.abs(_values(_product(_adjoint(X), Q))), initial=0.0))


def span_of(vectors: list[CoeffVec], tol_rel: float | None = None,
            floor: float = 0.0) -> Subspace:
    """Orthonormal basis of the numerical span of a family of vectors."""
    if not vectors:
        raise DimensionMismatch("span_of needs at least one vector")
    m, N = vectors[0].m, vectors[0].N
    for v in vectors:
        if v.shape != (m, N):
            raise DimensionMismatch("span_of vectors must share (m, N)")
    return column_span(np.stack([v.flatten() for v in vectors], axis=1), (m, N),
                       tol_rel=tol_rel, floor=floor)


def column_span(stack: np.ndarray, shape: tuple[int, int],
                tol_rel: float | None = None, floor: float = 0.0) -> Subspace:
    """Orthonormal basis of the numerical column span of an mN x k array.

    ``floor`` is an absolute singular-value cutoff on top of the relative
    policy; it keeps all-noise inputs (for instance residuals of an exactly
    invariant subspace) from being promoted to genuine directions.
    """
    m, N = shape
    if stack.ndim != 2 or stack.shape[0] != m * N or not stack.shape[1]:
        raise DimensionMismatch(f"column stack shape {stack.shape} vs ambient {m}*{N}")
    if np.max(np.abs(stack)) == 0.0:
        return Subspace(m, N, np.zeros((m * N, 0), complex), floor, SigmaGap(0.0, None))
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    thresh, rank = _relative_cut(stack.shape, s, tol_rel, floor)
    return Subspace(m, N, u[:, :rank], thresh, SigmaGap.at(s, rank))


def project(F: CoeffVec, M: Subspace) -> CoeffVec:
    if F.shape != (M.m, M.N):
        raise DimensionMismatch(f"vector shape {F.shape} vs ambient ({M.m}, {M.N})")
    return CoeffVec.from_flat(M.project_flat(F.flatten()), M.m, M.N)


def is_contained(A: Subspace, B: Subspace, tol_angle: float = 1e-8):
    """Whether every direction of A lies in B; returns (verdict, max residual)."""
    _check_same_ambient(A, B)
    if A.dim == 0:
        return True, 0.0
    outside = A.basis - B.project_flat(A.basis)
    resid = float(np.max(column_norms(outside)))
    return resid <= tol_angle, resid


def subspace_equal(A: Subspace, B: Subspace, tol: float = 1e-8):
    """Mutual containment; returns (verdict, max residual both ways)."""
    ok_ab, r_ab = is_contained(A, B, tol)
    ok_ba, r_ba = is_contained(B, A, tol)
    return ok_ab and ok_ba, max(r_ab, r_ba)


def ortho_complement_within(M: Subspace, A: Subspace,
                            tol_contain: float = 1e-8) -> Subspace:
    """M minus A, requiring A to sit inside M."""
    _check_same_ambient(M, A)
    ok, resid = is_contained(A, M, tol_contain)
    if not ok:
        raise ContainmentError(
            f"complement requested for a non-subspace (residual {resid:.3e})")
    if A.dim == 0:
        return M
    reduced = M.basis - A.project_flat(M.basis)
    u, s, _ = np.linalg.svd(reduced, full_matrices=False)
    target = M.dim - A.dim
    r = int(np.sum(s > COMPLEMENT_CUT))
    if r != target:
        raise ContainmentError(
            f"complement dimension {r} != dim M - dim A = {target}; cut is ambiguous")
    return Subspace(M.m, M.N, u[:, :r], M.tol, SigmaGap.at(s, r))


class ValueSplit(NamedTuple):
    """M split by its members' values at the origin (``value_split``)."""

    #: orthonormal basis (mN x r) of M minus its origin slice M ∩ zH2,
    #: which is span P_M E0 for E0 the m constant directions
    W: np.ndarray
    #: dimension of the origin slice, dim M - r
    slice_dim: int
    #: the gap of the value cut
    sigma_gap: SigmaGap


def value_split(M: Subspace) -> ValueSplit:
    """Split M by the values Q(0) = Q[:m] of its basis Q (m x dim).

    One thin SVD Q(0) = X s Y^H, O(m^2 dim), its spectrum padded with zeros
    to dim M, cut like ``nullspace`` (relative to s[0], never below
    ``ORIGIN_SLICE_FLOOR``) keeps r directions.  Q Y[:, :r] is an
    orthonormal basis W of M minus (M ∩ zH2): x in M is orthogonal to
    P_M e_i exactly when x(0)_i = 0, so that space is span P_M E0 and r <= m.
    """
    K = M.dim
    if K == 0:
        return ValueSplit(np.zeros((M.m * M.N, 0), complex), 0, SigmaGap(None, None))
    values = _top(M.held, M.m)
    _, s, vh = np.linalg.svd(values, full_matrices=False)
    s = np.concatenate([s, np.zeros(K - s.size)])
    _, r = _relative_cut(values.shape, s, None, floor=ORIGIN_SLICE_FLOOR)
    return ValueSplit(_dense(_product(M.held, vh[:r].conj().T)), K - r, SigmaGap.at(s, r))


def column_gram_deviation(X: np.ndarray | _Nonzeros) -> float:
    """max |X^H X - I| over the entries: how far the columns of X are from
    orthonormal (0 for no columns).

    X^H X is ``_product``'s: over the exact nonzeros of X when they cut the
    scalar products enough, as on the zero route's kernel basis, and BLAS's
    otherwise.  On the support route a diagonal entry the product leaves out
    is an exact zero, deviating by 1.
    """
    gram = _product(_adjoint(X), X)
    deviation = _combine(np.subtract, gram, _identity(X.shape[1]))
    return float(np.max(np.abs(_values(deviation)), initial=0.0))


# ---------------------------------------------------------------------------
# products over exact nonzeros
# ---------------------------------------------------------------------------


class _Nonzeros(NamedTuple):
    """A matrix held by its exact nonzeros: X[rows[i], cols[i]] = vals[i] in
    row-major order, and every other entry is zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]


def _nonzeros(X: np.ndarray | _Nonzeros) -> _Nonzeros:
    if isinstance(X, _Nonzeros):
        return X
    # flatnonzero of the mask is much faster than a 2-D np.nonzero
    rows, cols = np.divmod(np.flatnonzero(X != 0), X.shape[1])
    return _Nonzeros(rows, cols, X[rows, cols], X.shape)


def _identity(k: int) -> _Nonzeros:
    """The k x k identity, held by its nonzeros."""
    return _Nonzeros(np.arange(k), np.arange(k), np.ones(k, dtype=complex), (k, k))


def _dense(X: np.ndarray | _Nonzeros) -> np.ndarray:
    if not isinstance(X, _Nonzeros):
        return X
    out = np.zeros(X.shape, dtype=complex)
    out[X.rows, X.cols] = X.vals
    return out


def _adjoint(X: np.ndarray | _Nonzeros) -> np.ndarray | _Nonzeros:
    if not isinstance(X, _Nonzeros):
        return X.conj().T
    order = np.argsort(X.cols * X.shape[0] + X.rows)
    return _Nonzeros(X.cols[order], X.rows[order], X.vals[order].conj(), X.shape[::-1])


def _combine(op, X: np.ndarray | _Nonzeros, Y: np.ndarray | _Nonzeros
             ) -> np.ndarray | _Nonzeros:
    """op(X, Y) entrywise for op ``np.add`` or ``np.subtract``, in a new matrix.

    Two ``_Nonzeros`` give ``_Nonzeros`` over the union of their supports,
    each entry summed from zero in the order X, Y, so it is bitwise the dense
    op; exact zeros of the result are left out.  Otherwise the result is an
    array, and an operand held by its nonzeros is read only at them.
    """
    if isinstance(X, _Nonzeros) and isinstance(Y, _Nonzeros):
        cols = X.shape[1]
        keys, slot = np.unique(np.concatenate([X.rows * cols + X.cols,
                                               Y.rows * cols + Y.cols]),
                               return_inverse=True)
        terms = np.concatenate([X.vals, op(0.0, Y.vals)])
        return _summed(keys, slot, terms, X.shape)
    if isinstance(Y, _Nonzeros):
        out = np.array(X, dtype=complex)
        out[Y.rows, Y.cols] = op(out[Y.rows, Y.cols], Y.vals)
        return out
    return op(_dense(X), Y)


def _summed(keys: np.ndarray, slot: np.ndarray, terms: np.ndarray,
            shape: tuple[int, int]) -> _Nonzeros:
    """The ``_Nonzeros`` whose entry at flat index keys[i] (ascending) is the
    sum of the terms with slot i, each sum taken from zero in the order of
    ``terms``; exact zeros of the sums are left out."""
    sums = np.empty(keys.size, dtype=complex)
    sums.real = np.bincount(slot, weights=terms.real, minlength=keys.size)
    sums.imag = np.bincount(slot, weights=terms.imag, minlength=keys.size)
    keep = sums != 0
    keys = keys[keep]
    return _Nonzeros(keys // shape[1], keys % shape[1], sums[keep], shape)


def _shift(X: np.ndarray | _Nonzeros, k: int) -> np.ndarray | _Nonzeros:
    """X with every row moved k places down (up for k < 0), the rows moved
    past either end dropped: on flat degree-major columns k = m is the
    truncating forward shift z and k = -m the backward shift S*.  Nonzeros
    stay nonzeros."""
    rows = X.shape[0]
    if isinstance(X, _Nonzeros):
        moved = X.rows + k
        keep = (moved >= 0) & (moved < rows)
        return _Nonzeros(moved[keep], X.cols[keep], X.vals[keep], X.shape)
    out = np.zeros_like(X)
    if k >= 0:
        out[k:] = X[:rows - k]
    else:
        out[:k] = X[-k:]
    return out


def _top(X: np.ndarray | _Nonzeros, rows: int) -> np.ndarray:
    """The first ``rows`` rows of X as an array."""
    if not isinstance(X, _Nonzeros):
        return X[:rows]
    end = int(np.searchsorted(X.rows, rows))
    out = np.zeros((min(rows, X.shape[0]), X.shape[1]), dtype=complex)
    out[X.rows[:end], X.cols[:end]] = X.vals[:end]
    return out


def _block(X: np.ndarray | _Nonzeros, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The submatrix X[rows, cols] as an array, for index arrays without repeats."""
    if not isinstance(X, _Nonzeros):
        return X[np.ix_(rows, cols)]
    at_row = np.full(X.shape[0], -1)
    at_row[rows] = np.arange(rows.size)
    at_col = np.full(X.shape[1], -1)
    at_col[cols] = np.arange(cols.size)
    i, j = at_row[X.rows], at_col[X.cols]
    hit = (i >= 0) & (j >= 0)
    out = np.zeros((rows.size, cols.size), dtype=complex)
    out[i[hit], j[hit]] = X.vals[hit]
    return out


def _nonzero_lines(X: np.ndarray | _Nonzeros) -> tuple[np.ndarray, np.ndarray]:
    """Masks of X's rows and of its columns that hold a nonzero."""
    if not isinstance(X, _Nonzeros):
        nonzero = X != 0
        return nonzero.any(axis=1), nonzero.any(axis=0)
    hit = X.vals != 0
    rows, cols = np.zeros(X.shape[0], dtype=bool), np.zeros(X.shape[1], dtype=bool)
    rows[X.rows[hit]] = True
    cols[X.cols[hit]] = True
    return rows, cols


def _values(X: np.ndarray | _Nonzeros) -> np.ndarray:
    """X's entries, its exact zeros possibly left out: for norms and counts."""
    return X.vals if isinstance(X, _Nonzeros) else X


def _line_counts(X: np.ndarray | _Nonzeros, axis: int) -> np.ndarray:
    """Exact nonzeros in each column (axis 0) or each row (axis 1) of X."""
    if isinstance(X, _Nonzeros):
        return np.bincount(X.cols if axis == 0 else X.rows,
                           minlength=X.shape[1 - axis])
    return np.count_nonzero(X, axis=axis)


def _support_pays(count: int, rows: int, inner: int, cols: int) -> bool:
    """Whether ``count`` scalar products over exact nonzeros undercut the
    dense rows x inner x cols of a product by ``SUPPORT_PRODUCT_FACTOR``, in
    a product of at least ``SUPPORT_PRODUCT_MIN`` dense scalar products
    (count 0 asks for that size alone).  BLAS writes every entry of a
    rows x cols product, so an empty inner dimension counts as one: the zero
    product is held by no nonzeros."""
    dense = rows * max(inner, 1) * cols
    return dense >= SUPPORT_PRODUCT_MIN and count * SUPPORT_PRODUCT_FACTOR < dense


def _product(X: np.ndarray | _Nonzeros, Y: np.ndarray | _Nonzeros
             ) -> np.ndarray | _Nonzeros:
    """X @ Y over the exact nonzeros of X and Y.

    Each factor is an array or its ``_Nonzeros``.  The scalar products
    X[i, k] Y[k, j] with both factors nonzero number sum_k (nonzeros of
    column k of X) (nonzeros of row k of Y); unless that count is below the
    dense count rows x inner x cols by ``SUPPORT_PRODUCT_FACTOR`` in a
    product of at least ``SUPPORT_PRODUCT_MIN`` dense scalar products (below
    it nothing is counted), the product is BLAS's X @ Y on the arrays,
    returned as an array.  Otherwise
    every such product is formed, summed per output entry in the order of
    X's nonzeros, and the exact nonzeros of the sums come back as
    ``_Nonzeros``.  Nothing is thresholded: each entry is the dense sum
    without its exactly-zero terms, so only the summation order changes, and
    the sum of n nonzero terms keeps the forward-error bound
    gamma_n sum_k |x_k| |y_k| of the dense sum over at least n terms.
    """
    (rows, inner), cols = X.shape, Y.shape[1]
    if not _support_pays(0, rows, inner, cols):
        return _dense(X) @ _dense(Y)
    per_row = _line_counts(Y, 1)
    count = int(_line_counts(X, 0) @ per_row)
    if not _support_pays(count, rows, inner, cols):
        return _dense(X) @ _dense(Y)
    X, Y = _nonzeros(X), _nonzeros(Y)
    # X's entry e meets the reach[e] nonzeros of row X.cols[e] of Y, which
    # sit from starts[X.cols[e]] on in Y's row-major order
    reach = per_row[X.cols]
    starts = np.cumsum(per_row) - per_row
    src = np.repeat(np.arange(X.vals.size), reach)
    pos = np.arange(count) + np.repeat(starts[X.cols] - (np.cumsum(reach) - reach),
                                       reach)
    terms = X.vals[src] * Y.vals[pos]
    keys, slot = np.unique(X.rows[src] * cols + Y.cols[pos], return_inverse=True)
    return _summed(keys, slot, terms, (rows, cols))


def gram_schmidt(X: np.ndarray, drop_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on the columns of X, in column order.

    A column whose remainder has norm at most ``drop_tol`` is dropped.
    Returns the orthonormal columns Q (n x r) and the r x k coefficients C
    with Q = X C^T.  The columns are read in X's own memory layout, and a
    BLAS dot product over a strided column rounds differently from one over
    a contiguous column: pass a Fortran-ordered X to reduce each column
    exactly as a stand-alone vector.
    """
    k = X.shape[1]
    Q: list[np.ndarray] = []
    C = np.zeros((k, k), dtype=complex)
    for i in range(k):
        v = X[:, i]
        coeff = np.zeros(k, dtype=complex)
        for j, q in enumerate(Q):
            overlap = np.vdot(q, v)
            v = v - q * overlap
            coeff += overlap * C[j]
        nrm = float(np.linalg.norm(v))
        if nrm > drop_tol:
            unit = np.zeros(k, dtype=complex)
            unit[i] = 1.0
            C[len(Q)] = (unit - coeff) / nrm
            Q.append(v / nrm)
    Q_arr = np.stack(Q, axis=1) if Q else np.zeros((X.shape[0], 0), dtype=complex)
    return Q_arr, C[:len(Q)]


def _check_same_ambient(A: Subspace, B: Subspace) -> None:
    if (A.m, A.N) != (B.m, B.N):
        raise DimensionMismatch(
            f"ambient mismatch: ({A.m}, {A.N}) vs ({B.m}, {B.N})")
