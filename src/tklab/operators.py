"""Finite compressions of multiplication operators and their rank-n bumps.

The compression of a symbol Phi to degrees [0, N) is the block Toeplitz
matrix with block (j, t) = Phi_{j-t}.  Identities that survive truncation do
so only on the interior window [0, N - bandwidth); everything here records
that window so callers can restrict their assertions to it.

For kernel work the square compression is the wrong object when the symbol
has positive powers: top-degree monomials get flushed past the window and
masquerade as kernel vectors.  The rectangular `action_matrix` keeps those
overflow rows, so its nullspace consists of genuine polynomial kernel
elements only.  `PerturbedToeplitz` assembles that action once, with the
bump H G^H added as one product; its square matrix is the first mN rows.
`gram_deviation` and `orthonormalize_family` are the CoeffVec-family forms
of the subspaces module's Gram check and Gram-Schmidt.

`apply_block_toeplitz` applies a compression without forming it.  For an
exactly inner Theta, `shifted_range_matrix` (Theta on degrees below N - d)
is an isometry and `range_complement` gives its md-dimensional orthogonal
complement; the structured kernel and model-space paths are built on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OrthonormalityError
from .hardy_core import CoeffVec, column_vectors, flat_columns, inner_product
from .subspaces import column_gram_deviation, gram_schmidt
from .symbols import LaurentMatrixSymbol


def _block_toeplitz(symbol: LaurentMatrixSymbol, rows: int, cols: int) -> np.ndarray:
    m = symbol.m
    out = np.zeros((rows, m, cols, m), dtype=complex)
    for k in symbol.powers():
        t = np.arange(max(0, -k), min(cols, rows - k))
        out[t + k, :, t, :] = symbol.fourier(k)
    return out.reshape(rows * m, cols * m)


def apply_block_toeplitz(symbol: LaurentMatrixSymbol, X: np.ndarray,
                         rows: int) -> np.ndarray:
    """_block_toeplitz(symbol, rows, cols) @ X without forming the matrix.

    X holds flat degree-major columns of cols = len(X) / m degrees; one
    product per Fourier power.
    """
    m = symbol.m
    blocks = X.reshape(X.shape[0] // m, m, X.shape[1])
    out = np.zeros((rows, m, X.shape[1]), dtype=complex)
    for k in symbol.powers():
        lo, hi = max(0, -k), min(blocks.shape[0], rows - k)
        if lo < hi:
            out[lo + k:hi + k] += symbol.fourier(k) @ blocks[lo:hi]
    return out.reshape(rows * m, X.shape[1])


def shifted_range_matrix(theta: LaurentMatrixSymbol, N: int) -> np.ndarray:
    """R = Theta applied to the degrees [0, N - d), an mN x m(N - d) matrix.

    Nothing is flushed past the window, so R has orthonormal columns when
    Theta is inner; they span Theta P_{N-d}.
    """
    return _block_toeplitz(theta, N, N - theta.d)


def range_complement(theta: LaurentMatrixSymbol, N: int) -> np.ndarray:
    """Orthonormal basis (mN x md) of the complement of Theta P_{N-d} in P_N.

    Theta must be exactly inner.  Since z^d Theta* is a polynomial,
    z^d P_{N-2d} lies in Theta P_{N-d}, so the complement lives on the
    degrees < d and >= N - d, where it is the nullspace of those columns of
    R^H: an m(N - d) x 2md block with exactly md null directions.
    """
    m, d = theta.m, theta.d
    basis = np.zeros((m * N, m * d), dtype=complex)
    if not d:
        return basis
    degrees = np.union1d(np.arange(min(d, N)), np.arange(max(N - d, 0), N))
    idx = (degrees[:, None] * m + np.arange(m)).ravel()
    pick = np.zeros((m * N, idx.size), dtype=complex)
    pick[idx, np.arange(idx.size)] = 1.0
    block = apply_block_toeplitz(theta.adjoint(), pick, N - d)  # R^H pick
    # a tall block's thin vh is already square; only a wide one (N < 3d)
    # needs the full one for its null directions
    _, _, vh = np.linalg.svd(block, full_matrices=block.shape[0] < block.shape[1])
    basis[idx] = vh[idx.size - m * d:].conj().T
    return basis


class ToeplitzCompression:
    """Compression of multiplication-then-project by a symbol to degrees [0, N)."""

    __slots__ = ("_symbol", "_N", "_matrix")

    def __init__(self, symbol: LaurentMatrixSymbol, N: int):
        if N <= symbol.d:
            raise DimensionMismatch(
                f"truncation N={N} must exceed the symbol bandwidth d={symbol.d}")
        self._symbol = symbol
        self._N = int(N)
        mat = _block_toeplitz(symbol, N, N)
        mat.setflags(write=False)
        self._matrix = mat

    @property
    def symbol(self) -> LaurentMatrixSymbol:
        return self._symbol

    @property
    def m(self) -> int:
        return self._symbol.m

    @property
    def N(self) -> int:
        return self._N

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def interior(self) -> int:
        """Degrees [0, interior) agree with the untruncated operator."""
        return self._N - self._symbol.d

    def apply(self, F: CoeffVec) -> CoeffVec:
        if F.shape != (self.m, self._N):
            raise DimensionMismatch(f"operand shape {F.shape} != ({self.m}, {self._N})")
        return CoeffVec.from_flat(self._matrix @ F.flatten(), self.m, self._N)

    def action_matrix(self) -> np.ndarray:
        """Exact polynomial action: rows extended to degrees [0, N + d_pos).

        On polynomial inputs of degree < N this matrix computes every
        coefficient of the true image, so its nullspace has no truncation
        artifacts.
        """
        return _block_toeplitz(self._symbol, self._N + self._symbol.d_pos, self._N)

    def __repr__(self) -> str:
        return f"ToeplitzCompression(m={self.m}, N={self._N}, d={self._symbol.d})"


def gram_deviation(vectors: list[CoeffVec]) -> float:
    """Max |<v_i, v_j> - delta_ij| over a family of equal-shape vectors."""
    if not vectors:
        return 0.0
    return column_gram_deviation(flat_columns(vectors, vectors[0].m * vectors[0].N))


def orthonormalize_family(vectors: list[CoeffVec], drop_tol: float = 1e-12) -> list[CoeffVec]:
    """Explicit Gram-Schmidt; callers opt in, nothing repairs families silently."""
    if not vectors:
        return []
    m, N = vectors[0].m, vectors[0].N
    Q, _ = gram_schmidt(np.asfortranarray(flat_columns(vectors, m * N)), drop_tol)
    return column_vectors(Q, m, N)


class PerturbedToeplitz:
    """T = compression(Phi) + sum_i <., G_i> H_i as a dense matrix plus data.

    The bump H G^H is added once, as one product, onto the base's exact
    polynomial action; ``action_matrix`` is that array and ``matrix``, the
    square compression, is its first mN rows.
    """

    __slots__ = ("_base", "_G", "_H", "_G_matrix", "_H_matrix", "_action")

    def __init__(self, base: ToeplitzCompression, G: list[CoeffVec], H: list[CoeffVec],
                 tol_ortho: float = 1e-8, require_orthonormal: bool = True):
        if len(G) != len(H):
            raise DimensionMismatch(f"families differ in length: {len(G)} vs {len(H)}")
        for v in list(G) + list(H):
            if v.shape != (base.m, base.N):
                raise DimensionMismatch(
                    f"family member shape {v.shape} != ({base.m}, {base.N})")
        self._base = base
        self._G = tuple(G)
        self._H = tuple(H)
        self._G_matrix = flat_columns(self._G, base.m * base.N)
        self._H_matrix = flat_columns(self._H, base.m * base.N)
        for mat in (self._G_matrix, self._H_matrix):
            mat.setflags(write=False)
        if require_orthonormal:
            self.check_orthonormal(tol_ortho)
        action = base.action_matrix()
        action[:base.m * base.N] += self._H_matrix @ self._G_matrix.conj().T
        action.setflags(write=False)
        self._action = action
        self._verify_functional_form()

    def _verify_functional_form(self) -> None:
        # matrix and functional forms must agree on a probe; a fixed seed
        # keeps construction deterministic
        rng = np.random.default_rng(0)
        probe = CoeffVec((rng.standard_normal((self.m, self.N))
                          + 1j * rng.standard_normal((self.m, self.N))))
        direct = self.apply(probe).flatten()
        via_matrix = self.matrix @ probe.flatten()
        scale = max(1.0, float(np.linalg.norm(via_matrix)))
        if np.linalg.norm(direct - via_matrix) > 1e-10 * scale:
            raise AssertionError("matrix and functional forms disagree")

    def check_orthonormal(self, tol_ortho: float) -> None:
        """Raise ``OrthonormalityError`` unless G and H are orthonormal families."""
        for name, mat in (("G", self._G_matrix), ("H", self._H_matrix)):
            dev = column_gram_deviation(mat)
            if dev > tol_ortho:
                raise OrthonormalityError(
                    f"family {name} deviates from orthonormality by {dev:.3e} "
                    f"(tolerance {tol_ortho:g})")

    @property
    def base(self) -> ToeplitzCompression:
        return self._base

    @property
    def m(self) -> int:
        return self._base.m

    @property
    def N(self) -> int:
        return self._base.N

    @property
    def rank(self) -> int:
        return len(self._G)

    @property
    def G(self) -> tuple[CoeffVec, ...]:
        return self._G

    @property
    def H(self) -> tuple[CoeffVec, ...]:
        return self._H

    @property
    def G_matrix(self) -> np.ndarray:
        """The G family as flat columns, mN x n (read-only)."""
        return self._G_matrix

    @property
    def H_matrix(self) -> np.ndarray:
        """The H family as flat columns, mN x n (read-only)."""
        return self._H_matrix

    @property
    def matrix(self) -> np.ndarray:
        """The square compression with the bump, mN x mN."""
        return self._action[:self.m * self.N]

    def apply(self, F: CoeffVec) -> CoeffVec:
        out = self._base.apply(F)
        for g, h in zip(self._G, self._H):
            out = out + inner_product(F, g) * h
        return out

    def action_matrix(self) -> np.ndarray:
        """Exact polynomial action with perturbation rows embedded (read-only)."""
        return self._action

    def __repr__(self) -> str:
        return (f"PerturbedToeplitz(m={self.m}, N={self.N}, rank={self.rank}, "
                f"d={self._base.symbol.d})")


def build_perturbed(phi: LaurentMatrixSymbol, N: int, G: list[CoeffVec],
                    H: list[CoeffVec], tol_ortho: float = 1e-8,
                    require_orthonormal: bool = True) -> PerturbedToeplitz:
    return PerturbedToeplitz(ToeplitzCompression(phi, N), G, H,
                             tol_ortho=tol_ortho,
                             require_orthonormal=require_orthonormal)


@dataclass(frozen=True)
class BrownHalmosReport:
    deviation: float
    hypothesis_met: bool
    window: int
    product_is_zero: bool
    product_symbol_is_zero: bool

    def to_json(self) -> dict:
        return {
            "deviation": self.deviation,
            "hypothesis_met": self.hypothesis_met,
            "window": self.window,
            "product_is_zero": self.product_is_zero,
            "product_symbol_is_zero": self.product_symbol_is_zero,
        }


def brown_halmos_check(psi: LaurentMatrixSymbol, phi: LaurentMatrixSymbol,
                       N: int) -> BrownHalmosReport:
    """Compare compression(Psi) compression(Phi) with compression(Psi Phi).

    The two agree on the interior window whenever Psi* or Phi is analytic.
    The check still runs when neither is, flagged as hypothesis unmet, which
    is how product-is-still-Toeplitz counterexamples get reported.
    """
    if psi.m != phi.m:
        raise DimensionMismatch(f"size mismatch: {psi.m} vs {phi.m}")
    if N <= psi.d + phi.d:
        raise DimensionMismatch(
            f"N={N} must exceed the combined bandwidth {psi.d + phi.d}")
    hypothesis = psi.adjoint().is_analytic() or phi.is_analytic()
    product = _block_toeplitz(psi, N, N) @ _block_toeplitz(phi, N, N)
    prod_sym = psi.multiply(phi)
    diff = product - _block_toeplitz(prod_sym, N, N)
    w = N - psi.d - phi.d
    m = psi.m
    window = diff[:w * m, :w * m]
    deviation = float(np.max(np.abs(window))) if window.size else 0.0
    return BrownHalmosReport(
        deviation=deviation,
        hypothesis_met=hypothesis,
        window=w,
        product_is_zero=bool(np.max(np.abs(product)) < 1e-12),
        product_symbol_is_zero=prod_sym.is_zero(),
    )
