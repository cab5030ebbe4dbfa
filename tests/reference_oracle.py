"""Reference forms that the package's own paths replaced, kept as test oracles.

- ``zero_at_origin_slice``: the origin slice of a subspace from the full SVD
  of its values, the oracle of ``subspaces.value_split``;
- ``vanishing_at_zero_space`` and ``intersect``: the space zH2 and the
  principal-angle intersection, which build that slice another way;
- ``gram_deviation``: the Gram check of a CoeffVec family;
- ``shifted_range_matrix``: the dense range R = Theta P_{N-d} of an inner
  Theta, whose Gram the coefficient certificate of innerness predicts;
- ``range_complement_block``: the block R^H pick of ``range_complement``
  formed by applying Theta* to unit columns, the oracle of the block that
  ``range_complement`` reads from Theta's coefficients;
- ``diagonal_inner_outer``: the entrywise inner-outer split of a diagonal
  analytic symbol, built on ``symbols.scalar_inner_outer``;
- ``condition_residual``: the zero-class membership condition
  <K0, z^n G0> + <k1, z^n g> per member and shift, the oracle of
  ``representation._condition_residual``.
"""

from __future__ import annotations

import numpy as np

from tklab.config import ORIGIN_SLICE_FLOOR
from tklab.hardy_core import CoeffVec, flat_columns
from tklab.operators import _block_toeplitz, apply_block_toeplitz
from tklab.subspaces import (SigmaGap, Subspace, _check_same_ambient,
                             column_gram_deviation, rank_cut, zero_space)
from tklab.symbols import LaurentMatrixSymbol, scalar_inner_outer


def zero_at_origin_slice(M: Subspace) -> Subspace:
    """Members of M vanishing at the origin: Q times the null directions of
    the full SVD of its values, cut as ``value_split`` cuts, which keeps the
    result an exact subspace of M."""
    if M.dim == 0 or not np.any(M.basis[:M.m]):
        return M
    values = M.basis[:M.m]
    _, s, vh = np.linalg.svd(values, full_matrices=True)
    rank, gap = rank_cut(s, M.dim, values.shape, None, ORIGIN_SLICE_FLOOR)[1:]
    return Subspace(M.m, M.N, M.basis @ vh[rank:].conj().T, M.tol, gap)


def vanishing_at_zero_space(m: int, N: int) -> Subspace:
    """All vectors with value 0 at the origin (degrees >= 1)."""
    basis = np.zeros((m * N, m * (N - 1)), dtype=complex)
    for j in range(1, N):
        for i in range(m):
            basis[j * m + i, (j - 1) * m + i] = 1.0
    return Subspace(m, N, basis, 0.0)


def intersect(M: Subspace, L: Subspace, tol_int: float = 1e-8) -> Subspace:
    """Intersection via principal angles: SVD of basis cross-Gram.

    Directions with cos(angle) >= 1 - tol_int count as common.  This is far
    better conditioned than stacking nullspaces.
    """
    _check_same_ambient(M, L)
    if M.dim == 0 or L.dim == 0:
        return zero_space(M.m, M.N)
    u, s, _ = np.linalg.svd(M.basis.conj().T @ L.basis)
    s = np.clip(s, 0.0, 1.0)
    r = int(np.sum(s >= 1.0 - tol_int))
    if r == 0:
        return Subspace(M.m, M.N, np.zeros((M.m * M.N, 0), complex), tol_int,
                        SigmaGap.at(s, 0))
    q, _ = np.linalg.qr(M.basis @ u[:, :r])
    return Subspace(M.m, M.N, q, tol_int, SigmaGap.at(s, r))


def gram_deviation(vectors: list[CoeffVec]) -> float:
    """Max |<v_i, v_j> - delta_ij| over a family of equal-shape vectors."""
    if not vectors:
        return 0.0
    return column_gram_deviation(flat_columns(vectors, vectors[0].m * vectors[0].N))


def shifted_range_matrix(theta: LaurentMatrixSymbol, N: int) -> np.ndarray:
    """R = Theta applied to the degrees [0, N - d), an mN x m(N - d) matrix.

    Nothing is flushed past the window, so R has orthonormal columns when
    Theta is inner; they span Theta P_{N-d}.
    """
    return _block_toeplitz(theta, N, N - theta.d)


def range_complement_block(theta: LaurentMatrixSymbol, N: int
                           ) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of the degrees < d and >= N - d, and R^H applied to
    their unit columns: Theta* applied to the picked columns over the
    m(N - d) rows of R^H, the m(N - d) x 2md block (fewer columns when the
    two degree ranges overlap) whose null directions span the complement of
    R = Theta P_{N-d}."""
    m, d = theta.m, theta.d
    degrees = np.union1d(np.arange(min(d, N)), np.arange(max(N - d, 0), N))
    idx = (degrees[:, None] * m + np.arange(m)).ravel()
    pick = np.zeros((m * N, idx.size), dtype=complex)
    pick[idx, np.arange(idx.size)] = 1.0
    return idx, apply_block_toeplitz(theta.adjoint(), pick, N - d)


def _diagonal_entries(phi: LaurentMatrixSymbol) -> list[np.ndarray]:
    if not phi.is_analytic():
        raise ValueError("inner-outer splitting expects an analytic symbol")
    if any(np.any(mat != np.diag(np.diag(mat))) for mat in map(phi.fourier, phi.powers())):
        raise ValueError("inner-outer splitting is implemented for diagonal symbols")
    return [np.array([phi.fourier(k)[i, i] for k in range(phi.d + 1)])
            for i in range(phi.m)]


def diagonal_inner_outer(phi: LaurentMatrixSymbol, taylor_degree: int,
                         eps_circle: float = 1e-6):
    """Entrywise factorization of a diagonal analytic symbol.

    Returns (inner_symbol, outer_symbol, factorizations) with the inner part
    expanded to the requested Taylor degree.
    """
    facts = [scalar_inner_outer(e, eps_circle=eps_circle) for e in _diagonal_entries(phi)]
    inner = LaurentMatrixSymbol.diagonal([f.inner_taylor(taylor_degree) for f in facts])
    outer = LaurentMatrixSymbol.diagonal([f.outer_coeffs for f in facts])
    return inner, outer, facts


def _shifted_pairing(coeff_rows: np.ndarray, data_rows: np.ndarray, n: int) -> complex:
    """<coeffs, z^n data> over matching degree slots."""
    width = min(data_rows.shape[1], coeff_rows.shape[1] - n)
    if width <= 0:
        return 0j
    return complex(np.sum(coeff_rows[:, n:n + width] * np.conj(data_rows[:, :width])))


def condition_residual(coords, G0: CoeffVec, g: CoeffVec, depth: int) -> float:
    """max |<K0, z^n G0> + <k1, z^n g>| over the (K0, k1) coordinate pairs
    of ``ComplementAnalysis.coords`` and n = 0..depth, one pairing at a time
    (K0 is None when the frame has no W)."""
    worst = 0.0
    for K0, k1 in coords:
        for n in range(depth + 1):
            total = 0.0 + 0.0j
            if K0 is not None:
                total += _shifted_pairing(K0.coeffs, G0.coeffs, n)
            total += _shifted_pairing(k1.coeffs, g.coeffs, n)
            worst = max(worst, abs(total))
    return worst
