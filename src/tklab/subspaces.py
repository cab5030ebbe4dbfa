"""Numerical subspace lattice over truncated coefficient space.

Subspaces carry an orthonormal basis of the flattened (degree-major) ambient
C^{mN} together with the sigma gap observed at the rank cut that produced
them.  Rank decisions are auditable: every report records the boundary
singular values on both sides of the cut; a ratio near 1 means the decision
was not clean and downstream checks should flag themselves inconclusive
rather than pass.

Each algorithm has one copy here.  The one rank cut, ``rank_cut``, turns
every spectrum into a threshold, a rank and a gap, but for the certified cut
of ``nullspace_within``, anchored at a bound on the operator's norm.  The
one audit turns a cut into its audited ratio (``SigmaGap.audited_ratio``)
and decides from the cuts a verdict reads its ``sigma_conclusive``
(``sigma_audit``).  Besides: the null directions of a full SVD
(``nullspace``), the split of a subspace by its values at the origin
(``value_split``), the matrix product (``_product``), the Gram check
(``column_gram_deviation``), the overlap of two bases (``_overlap``),
Gram-Schmidt (``gram_schmidt``) and the projection Q (Q^H X) (``Subspace.project_flat``).

A basis may be held as links plus one dense block (``_LinkBlock``), as the
zero-symbol kernel is; the product, the sums (``_combine``), the adjoint, the
shifts (``_shift``) and the reads (``_top``, ``_dense``, ``_nonzero_lines``)
take either form, and on arrays they are the plain numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (COMPLEMENT_CUT, ORIGIN_SLICE_FLOOR, SUBSPACE_GRAM_BOUND,
                     rank_threshold)
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

    def audited_ratio(self, cut: float, unit: bool) -> float:
        """``ratio``, except that a cut which kept nothing while treating a
        positive singular value as zero is judged against the cut itself:
        zero side / cut (infinite for a zero cut).  A cut equal to the
        largest singular value reads 1 and one that only dropped roundoff far
        below it reads small, but the ratio shrinks as the cut grows past the
        largest singular value: a cut far above the signal reads clean.  So a
        relative cut is held to at most 1 (``Tolerances``), and a ``unit``
        spectrum, one known to stay at most 1 (values or residuals of an
        orthonormal basis), is judged against min(cut, 1), since an absolute
        floor may lie far above it."""
        ratio = self.ratio
        if ratio == float("inf"):
            cut = min(cut, 1.0) if unit else cut
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


class RankCut(NamedTuple):
    """A threshold, the rank of the leading directions it keeps and its gap."""

    threshold: float
    rank: int
    gap: SigmaGap


def rank_cut(s: np.ndarray, width: int, shape: tuple[int, int], tol_rel: float | None,
             floor: float) -> RankCut:
    """The cut of the descending spectrum ``s`` of a ``shape`` matrix, padded
    with zeros or cut to the ``width`` directions it decides over, at
    rank_threshold(shape, s[0], tol_rel) (s[0] = 0 for no directions) and
    never below the absolute ``floor``: the values above it are kept."""
    s = np.concatenate([s[:width], np.zeros(max(width - s.size, 0))])
    threshold = max(rank_threshold(shape, float(s[0]) if width else 0.0, tol_rel), floor)
    rank = int(np.sum(s > threshold))
    return RankCut(threshold, rank, SigmaGap.at(s, rank))


def sigma_audit(cuts: list[tuple[SigmaGap, float, bool]], flag: float) -> bool:
    """Whether every rank cut a verdict reads is clean: each (gap, cut,
    unit) has an audited ratio (``SigmaGap.audited_ratio``) of at most
    ``flag``.  A NaN ratio is inconclusive."""
    return all(gap.audited_ratio(cut, unit) <= flag for gap, cut, unit in cuts)


class Subspace:
    """Orthonormal-basis subspace of the (m, N) coefficient ambient.

    The basis is held as an array or as links plus one dense block
    (``_LinkBlock``), as the zero-symbol kernel is.  Products read the held
    form (``held``) through ``_product``; the dense ``basis`` is built only
    when a reader asks for it, and then cached.
    """

    __slots__ = ("_m", "_N", "_held", "_basis", "_tol", "_sigma_gap")

    def __init__(self, m: int, N: int, basis: np.ndarray | _LinkBlock, tol: float,
                 sigma_gap: SigmaGap | None = None):
        if not isinstance(basis, _LinkBlock):
            basis = np.asarray(basis, dtype=complex)
        if len(basis.shape) != 2 or basis.shape[0] != m * N:
            raise DimensionMismatch(
                f"basis shape {basis.shape} does not match ambient {m}*{N}")
        if basis.shape[1] > m * N:
            raise DimensionMismatch("more basis vectors than ambient dimensions")
        if column_gram_deviation(basis) > SUBSPACE_GRAM_BOUND:
            raise ValueError(
                f"basis columns are not orthonormal within {SUBSPACE_GRAM_BOUND:g}")
        if isinstance(basis, _LinkBlock):
            basis = _LinkBlock(*(_frozen(part) for part in basis[:5]), basis.shape)
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
    def held(self) -> np.ndarray | _LinkBlock:
        """The basis as held: an array, or links plus one block."""
        return self._held

    @property
    def basis(self) -> np.ndarray:
        """The dense orthonormal basis, mN x dim (read-only), built from the
        held links and block on first request."""
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
        return _adjoint(_product(_adjoint(X), self._held))

    def project_flat(self, X: np.ndarray) -> np.ndarray:
        """Orthogonal projection Q (Q^H X) of a flat vector or mN x k array."""
        X = np.asarray(X, dtype=complex)
        if self.dim == 0:
            return np.zeros_like(X)
        columns = X.reshape(X.shape[0], -1)
        return _product(self._held, self.coefficients(columns)).reshape(X.shape)

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
    # rank_threshold is linear in its sigma_max, so this floor anchors the
    # relative cut at max(s[0], scale)
    floor = min(rank_threshold(A.shape, scale, tol_rel), rank_threshold(A.shape, scale))
    # a full SVD cut over every column: a wide matrix's exact null directions
    # survive, and a zero matrix's right singular vectors are the identity
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    cut = rank_cut(s, A.shape[1], A.shape, tol_rel, floor)
    return Subspace(m, N, vh[cut.rank:].conj().T, cut.threshold, cut.gap)


def nullspace_within(op, Z: np.ndarray, alpha: float, L_norm: float, *,
                     tol_rel: float | None) -> Subspace | None:
    """Kernel of an operator's action A inside a candidate space Z known to
    contain it.

    A itself is never formed: ``op`` is a ``PerturbedToeplitz`` or a
    ``ToeplitzCompression``, which gives the product A Z (``apply_action``),
    A's shape (``action_shape``) and its largest column norm
    (``action_column_norms``) from its coefficients.

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
    m, N, A_shape = op.m, op.N, op.action_shape
    thresh = rank_threshold(A_shape, alpha, tol_rel)
    _, s, vh = np.linalg.svd(op.apply_action(Z), full_matrices=False)
    rank = int(np.sum(s > thresh))
    if rank:
        sigma = float(s[rank - 1])
        signal = sigma / (1.0 + L_norm * (alpha + sigma))
    else:
        signal = 1.0 / L_norm
    signal -= max(A_shape) * np.finfo(float).eps * alpha
    zero = float(s[rank]) if rank < s.size else None
    lower = max(float(s[0]) if s.size else 0.0, float(np.max(op.action_column_norms())))
    if signal <= thresh or (zero is not None
                            and zero > rank_threshold(A_shape, lower, tol_rel)):
        return None
    return Subspace(m, N, Z @ vh[rank:].conj().T, thresh, SigmaGap(zero, signal))


def column_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of every column of X."""
    return np.sqrt(np.einsum("ij,ij->j", X.real, X.real)
                   + np.einsum("ij,ij->j", X.imag, X.imag))


def _overlap(X: np.ndarray, Q: np.ndarray | _LinkBlock) -> float:
    """max |X^H Q| for a narrow X: only X is conjugated, not the wide Q,
    which may be held as links plus a block."""
    return float(np.max(np.abs(_product(_adjoint(X), Q)), initial=0.0))


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
    """Orthonormal basis of the numerical column span of an mN x k array
    (k = 0 spans nothing).

    ``floor`` is an absolute singular-value cutoff on top of the relative
    policy; it keeps all-noise inputs (for instance residuals of an exactly
    invariant subspace) from being promoted to genuine directions.
    """
    m, N = shape
    if stack.ndim != 2 or stack.shape[0] != m * N:
        raise DimensionMismatch(f"column stack shape {stack.shape} vs ambient {m}*{N}")
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    cut = rank_cut(s, s.size, stack.shape, tol_rel, floor)
    return Subspace(m, N, u[:, :cut.rank], cut.threshold, cut.gap)


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
    """M minus A, requiring A to sit inside M: M's basis projected off A, cut
    at ``COMPLEMENT_CUT``."""
    _check_same_ambient(M, A)
    ok, resid = is_contained(A, M, tol_contain)
    if not ok:
        raise ContainmentError(
            f"complement requested for a non-subspace (residual {resid:.3e})")
    if A.dim == 0:
        return M
    rest = column_span(M.basis - A.project_flat(M.basis), (M.m, M.N), floor=COMPLEMENT_CUT)
    target = M.dim - A.dim
    if rest.dim != target:
        raise ContainmentError(
            f"complement dimension {rest.dim} != dim M - dim A = {target}; "
            "cut is ambiguous")
    return rest


class ValueSplit(NamedTuple):
    """M split by its members' values at the origin (``value_split``)."""

    #: orthonormal basis (mN x r) of M minus its origin slice M ∩ zH2,
    #: which is span P_M E0 for E0 the m constant directions
    W: np.ndarray
    #: dimension of the origin slice, dim M - r
    slice_dim: int
    #: the value cut
    cut: RankCut


def value_split(M: Subspace) -> ValueSplit:
    """Split M by the values Q(0) = Q[:m] of its basis Q (m x dim).

    One thin SVD Q(0) = X s Y^H, O(m^2 dim), cut over dim M directions like
    ``nullspace`` (relative to s[0], never below ``ORIGIN_SLICE_FLOOR``),
    keeps r directions.  Q Y[:, :r] is an orthonormal basis W of M minus
    (M ∩ zH2): x in M is orthogonal to P_M e_i exactly when x(0)_i = 0, so
    that space is span P_M E0 and r <= m.
    """
    values = _top(M.held, M.m)
    _, s, vh = np.linalg.svd(values, full_matrices=False)
    cut = rank_cut(s, M.dim, values.shape, None, ORIGIN_SLICE_FLOOR)
    return ValueSplit(_product(M.held, vh[:cut.rank].conj().T), M.dim - cut.rank, cut)


def column_gram_deviation(X: np.ndarray | _LinkBlock) -> float:
    """max |X^H X - I| over the entries: how far the columns of X are from
    orthonormal (0 for no columns).

    X^H X is ``_product``'s: BLAS's on an array.  On links plus a block, as
    the zero route's kernel basis is held, the links' own Gram is the exact
    identity and cancels, so the deviation is read on one GEMM of the block's
    columns, widened by the link columns whose rows the block also fills.
    """
    gram = _product(_adjoint(X), X)
    deviation = _combine(np.subtract, gram, _identity(X.shape[1]))
    return float(np.max(np.abs(_values(deviation)), initial=0.0))


# ---------------------------------------------------------------------------
# matrices held as links plus one dense block
# ---------------------------------------------------------------------------


class _LinkBlock(NamedTuple):
    """A matrix held as X = Pi + B: links plus one dense block.

    Pi is a partial permutation: column ``link_cols[i]`` is the unit vector
    e_(link_rows[i]), its entry exactly 1.0, and no link row or column
    repeats.  B is ``block``, X on the rows ``I`` x the columns ``J`` (each
    ascending), which hold no link row and no link column.  Every other
    entry is zero.
    """

    link_rows: np.ndarray
    link_cols: np.ndarray
    I: np.ndarray
    J: np.ndarray
    block: np.ndarray
    shape: tuple[int, int]


_NONE = np.zeros(0, dtype=np.intp)


def _union(size: int, *indices: np.ndarray) -> np.ndarray:
    """The ascending union of index arrays into range(size), by a mask."""
    mask = np.zeros(size, dtype=bool)
    for index in indices:
        mask[index] = True
    return np.flatnonzero(mask)


def _positions(index: np.ndarray, size: int, values: np.ndarray | None = None
               ) -> np.ndarray:
    """at with at[index[i]] = values[i] (i by default), and -1 off the index."""
    at = np.empty(size, dtype=np.intp)
    at.fill(-1)
    at[index] = np.arange(index.size) if values is None else values
    return at


def _identity(k: int) -> _LinkBlock:
    """The k x k identity: k links and no block."""
    every = np.arange(k)
    return _LinkBlock(every, every, _NONE, _NONE, np.zeros((0, 0), complex), (k, k))


def _trimmed(X: np.ndarray) -> _LinkBlock:
    """The array X held as one block on its nonzero rows and columns."""
    nonzero = X != 0
    I, J = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    return _LinkBlock(_NONE, _NONE, I, J, X[I[:, None], J], X.shape)


def _dense(X: np.ndarray | _LinkBlock, rows: np.ndarray | None = None,
           cols: np.ndarray | None = None) -> np.ndarray:
    """X, or its submatrix X[rows][:, cols] for index arrays without
    repeats, as an array."""
    if isinstance(X, np.ndarray):
        return X if rows is None else X[rows[:, None], cols]
    if rows is None:
        out = np.zeros(X.shape, dtype=complex)
        out[X.I[:, None], X.J] = X.block
        out[X.link_rows, X.link_cols] = 1.0
        return out
    r_at, c_at = _positions(rows, X.shape[0]), _positions(cols, X.shape[1])
    i, j = r_at[X.I], c_at[X.J]
    inside_i, inside_j = i >= 0, j >= 0
    out = np.zeros((rows.size, cols.size), dtype=complex)
    out[i[inside_i, None], j[inside_j]] = X.block[inside_i][:, inside_j]
    i, j = r_at[X.link_rows], c_at[X.link_cols]
    inside = (i >= 0) & (j >= 0)
    out[i[inside], j[inside]] = 1.0
    return out


def _adjoint(X: np.ndarray | _LinkBlock) -> np.ndarray | _LinkBlock:
    """X^H: the links turn around and the block is conjugated and transposed."""
    if isinstance(X, np.ndarray):
        return X.conj().T
    return _LinkBlock(X.link_cols, X.link_rows, X.J, X.I, X.block.conj().T, X.shape[::-1])


def _combine(op, X: np.ndarray | _LinkBlock, Y: np.ndarray | _LinkBlock
             ) -> np.ndarray | _LinkBlock:
    """op(X, Y) entrywise for op ``np.add`` or ``np.subtract``, in a new matrix.

    With an array operand the result is the array op(X, Y).  Otherwise a
    link of X stays a link where Y's row and column are empty, two links on
    one entry cancel under subtraction, and every other link joins the
    block, whose entries are op(x, y) of the operands' entries, as in the
    dense op.  So the operand with the links that should stay goes first.
    """
    if isinstance(X, np.ndarray) or isinstance(Y, np.ndarray):
        return op(_dense(X), _dense(Y))
    rows, cols = X.shape
    y_row = _positions(Y.link_cols, cols, Y.link_rows)
    y_row[Y.J] = -2  # a block column
    y_rows = np.zeros(rows, dtype=bool)
    y_rows[np.r_[Y.I, Y.link_rows]] = True
    x_keep = (y_row[X.link_cols] == -1) & ~y_rows[X.link_rows]
    x_join, y_join = ~x_keep, np.ones(Y.link_cols.size, dtype=bool)
    if op is np.subtract:
        x_join &= y_row[X.link_cols] != X.link_rows
        y_join = _positions(X.link_cols, cols, X.link_rows)[Y.link_cols] != Y.link_rows
    I = _union(rows, X.I, Y.I, X.link_rows[x_join], Y.link_rows[y_join])
    J = _union(cols, X.J, Y.J, X.link_cols[x_join], Y.link_cols[y_join])
    r_at, c_at = _positions(I, rows), _positions(J, cols)
    out = np.zeros((I.size, J.size), dtype=complex)
    out[r_at[X.I, None], c_at[X.J]] = X.block
    out[r_at[X.link_rows[x_join]], c_at[X.link_cols[x_join]]] = 1.0
    at = r_at[Y.I, None], c_at[Y.J]
    out[at] = op(out[at], Y.block)
    at = r_at[Y.link_rows[y_join]], c_at[Y.link_cols[y_join]]
    out[at] = op(out[at], 1.0)
    return _LinkBlock(X.link_rows[x_keep], X.link_cols[x_keep], I, J, out, X.shape)


def _shift(X: np.ndarray | _LinkBlock, k: int) -> np.ndarray | _LinkBlock:
    """X with every row moved k places down (up for k < 0), the rows moved
    past either end dropped: on flat degree-major columns k = m is the
    truncating forward shift z and k = -m the backward shift S*.  Links and
    block rows move as indices."""
    rows = X.shape[0]
    if isinstance(X, _LinkBlock):
        moved = X.link_rows + k
        keep = (moved >= 0) & (moved < rows)
        I = X.I + k
        lo, hi = np.count_nonzero(I < 0), np.count_nonzero(I < rows)
        return _LinkBlock(moved[keep], X.link_cols[keep], I[lo:hi], X.J, X.block[lo:hi],
                          X.shape)
    out = np.zeros_like(X)
    if k >= 0:
        out[k:] = X[:rows - k]
    else:
        out[:k] = X[-k:]
    return out


def _top(X: np.ndarray | _LinkBlock, rows: int) -> np.ndarray:
    """The first ``rows`` rows of X as an array."""
    if isinstance(X, np.ndarray):
        return X[:rows]
    return _dense(X, np.arange(min(rows, X.shape[0])), np.arange(X.shape[1]))


def _nonzero_lines(X: np.ndarray | _LinkBlock) -> tuple[np.ndarray, np.ndarray]:
    """Masks of X's rows and of its columns that hold a nonzero: the link
    lines and the block's nonzero lines."""
    if isinstance(X, np.ndarray):
        nonzero = X != 0
        return nonzero.any(axis=1), nonzero.any(axis=0)
    nonzero = X.block != 0
    rows, cols = np.zeros(X.shape[0], dtype=bool), np.zeros(X.shape[1], dtype=bool)
    rows[np.r_[X.I[nonzero.any(axis=1)], X.link_rows]] = True
    cols[np.r_[X.J[nonzero.any(axis=0)], X.link_cols]] = True
    return rows, cols


def _values(X: np.ndarray | _LinkBlock) -> np.ndarray:
    """X's entries, its structural zeros left out: for norms and counts."""
    if isinstance(X, np.ndarray):
        return X
    return np.concatenate([X.block.ravel(), np.ones(X.link_cols.size, dtype=complex)])


def _product(X: np.ndarray | _LinkBlock, Y: np.ndarray | _LinkBlock
             ) -> np.ndarray | _LinkBlock:
    """X @ Y, each factor an array or a ``_LinkBlock``.

    Two arrays give BLAS's X @ Y.  With X = Pi_X + B_X and Y = Pi_Y + B_Y, a
    link of Y into a link column of X composes into a link (Pi_X Pi_Y); one
    into a block column of X takes that column of B_X (B_X Pi_Y); the rows
    of B_Y at X's link columns move to their link rows (Pi_X B_Y); and
    B_X B_Y is one GEMM over the block columns of X that are block rows of
    Y.  An array factor is a block on every line, so the product with it is
    an array: the links gather its rows or columns and the block meets it in
    one GEMM.  As links and block share no line, each entry is a GEMM's or
    one entry moved without arithmetic.
    """
    if isinstance(X, np.ndarray) and isinstance(Y, np.ndarray):
        return X @ Y
    if isinstance(X, np.ndarray):
        out = np.zeros((X.shape[0], Y.shape[1]), dtype=complex)
        out[:, Y.link_cols] = X[:, Y.link_rows]
        out[:, Y.J] = X[:, Y.I] @ Y.block
        return out
    if isinstance(Y, np.ndarray):
        out = np.zeros((X.shape[0], Y.shape[1]), dtype=complex)
        out[X.link_rows] = Y[X.link_cols]
        out[X.I] = X.block @ Y[X.J]
        return out
    (rows, inner), cols = X.shape, Y.shape[1]
    x_at = _positions(X.J, inner)
    shared, via = x_at[Y.I], x_at[Y.link_rows]
    meets, gathered = shared >= 0, via >= 0
    gemm, gather_cols = meets.any(), Y.link_cols[gathered]
    x_row = _positions(X.link_cols, inner, X.link_rows)
    moved_to, to = x_row[Y.I], x_row[Y.link_rows]
    moved = moved_to >= 0
    moved_to, linked = moved_to[moved], to >= 0
    I = _union(rows, X.I if gemm or gather_cols.size else _NONE, moved_to)
    J = _union(cols, Y.J if gemm or moved_to.size else _NONE, gather_cols)
    r_at, c_at = _positions(I, rows), _positions(J, cols)
    x_rows, y_cols = r_at[X.I, None], c_at[Y.J]
    out = np.zeros((I.size, J.size), dtype=complex)
    if gemm:
        out[x_rows, y_cols] = X.block[:, shared[meets]] @ Y.block[meets]
    if moved_to.size:
        out[r_at[moved_to, None], y_cols] = Y.block[moved]
    if gather_cols.size:
        out[x_rows, c_at[gather_cols]] = X.block[:, via[gathered]]
    return _LinkBlock(to[linked], Y.link_cols[linked], I, J, out, (rows, cols))


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
