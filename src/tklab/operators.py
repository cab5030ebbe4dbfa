"""Finite compressions of multiplication operators and their rank-n bumps.

The compression of a symbol Phi to degrees [0, N) is the block Toeplitz
matrix with block (j, t) = Phi_{j-t}.  Identities that survive truncation do
so only on the interior window [0, N - bandwidth); everything here records
that window so callers can restrict their assertions to it.

For kernel work the square compression is the wrong object when the symbol
has positive powers: top-degree monomials get flushed past the window and
masquerade as kernel vectors.  The rectangular exact action keeps those
overflow rows, so its nullspace consists of genuine polynomial kernel
elements only.

Operators are held by their coefficients.  A ``ToeplitzCompression`` is its
symbol and N, and a ``PerturbedToeplitz`` adds the families G and H of the
bump H G^H.  A compression is applied by the banded product of the symbols
module (``apply_block_toeplitz``) and the bump as H (G^H X); column norms of
the exact action come from the coefficients too.  A dense matrix (``matrix``,
``action_matrix()``) is built only when a caller asks for one, and then
cached.  ``orthonormalize_family`` is the CoeffVec-family form of the
subspaces module's Gram-Schmidt.

For an exactly inner Theta, Theta on the degrees below N - d is an isometry
onto R = Theta P_{N-d}, and ``range_complement`` gives the md-dimensional
orthogonal complement of R from Theta's coefficients, in work independent of
N but for writing the basis; the structured kernel and model-space paths are
built on the complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, FUNCTIONAL_FORM_PROBE
from .errors import DimensionMismatch, OrthonormalityError
from .hardy_core import CoeffVec, column_vectors, flat_columns, inner_product
from .subspaces import column_gram_deviation, gram_schmidt
from .symbols import LaurentMatrixSymbol, _lag_matrix, apply_block_toeplitz


def _block_toeplitz(symbol: LaurentMatrixSymbol, rows: int, cols: int) -> np.ndarray:
    m = symbol.m
    out = np.zeros((rows, m, cols, m), dtype=complex)
    for k in symbol.powers():
        t = np.arange(max(0, -k), min(cols, rows - k))
        out[t + k, :, t, :] = symbol.fourier(k)
    return out.reshape(rows * m, cols * m)


def range_complement(theta: LaurentMatrixSymbol, N: int) -> np.ndarray:
    """Orthonormal basis (mN x md) of the complement of Theta P_{N-d} in P_N.

    Theta must be exactly inner.  Since z^d Theta* is a polynomial,
    z^d P_{N-2d} lies in Theta P_{N-d}, so the complement lives on the
    degrees < d and >= N - d, where it is the nullspace of those columns of
    R^H: an m(N - d) x 2md block with exactly md null directions.  Block
    (r, t) of R^H is Theta_{t-r}^H for 0 <= t - r <= d and zero otherwise,
    so only the block's rows of degree r < d or r >= N - 2d can be nonzero.
    Those rows are formed from Theta's coefficients, and the SVD takes the
    nonzero ones, at most 2md whatever N; only writing the mN x md basis
    depends on N.
    """
    m, d = theta.m, theta.d
    basis = np.zeros((m * N, m * d), dtype=complex)
    if not d:
        return basis
    degrees = np.union1d(np.arange(min(d, N)), np.arange(max(N - d, 0), N))
    rows = np.union1d(np.arange(min(d, N - d)), np.arange(max(N - 2 * d, 0), N - d))
    adjoints = theta.coefficient_stack(0, d).conj().transpose(0, 2, 1)
    block = _lag_matrix(adjoints, degrees[None, :] - rows[:, None])
    block = block[np.any(block != 0, axis=1)]
    # a tall block's thin vh is already square; only a wide one needs the
    # full one for its null directions
    _, _, vh = np.linalg.svd(block, full_matrices=block.shape[0] < block.shape[1])
    idx = (degrees[:, None] * m + np.arange(m)).ravel()
    basis[idx] = vh[idx.size - m * d:].conj().T
    return basis


class ToeplitzCompression:
    """Compression of multiplication-then-project by a symbol to degrees [0, N).

    Held by its symbol: ``apply`` and ``apply_action`` are banded, and the
    dense ``matrix`` is built on first access only.
    """

    __slots__ = ("_symbol", "_N", "_matrix")

    def __init__(self, symbol: LaurentMatrixSymbol, N: int):
        if N <= symbol.d:
            raise DimensionMismatch(
                f"truncation N={N} must exceed the symbol bandwidth d={symbol.d}")
        self._symbol = symbol
        self._N = int(N)
        self._matrix = None

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
        """The dense mN x mN compression (read-only), built on first access."""
        if self._matrix is None:
            mat = _block_toeplitz(self._symbol, self._N, self._N)
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    @property
    def interior(self) -> int:
        """Degrees [0, interior) agree with the untruncated operator."""
        return self._N - self._symbol.d

    def apply(self, F: CoeffVec) -> CoeffVec:
        if F.shape != (self.m, self._N):
            raise DimensionMismatch(f"operand shape {F.shape} != ({self.m}, {self._N})")
        out = apply_block_toeplitz(self._symbol, F.flatten()[:, None], self._N)
        return CoeffVec.from_flat(out[:, 0], self.m, self._N)

    @property
    def action_shape(self) -> tuple[int, int]:
        """Shape of ``action_matrix``: m(N + d_pos) x mN."""
        return self.m * (self._N + self._symbol.d_pos), self.m * self._N

    def action_matrix(self) -> np.ndarray:
        """Exact polynomial action: rows extended to degrees [0, N + d_pos).

        On polynomial inputs of degree < N this matrix computes every
        coefficient of the true image, so its nullspace has no truncation
        artifacts.
        """
        return _block_toeplitz(self._symbol, self._N + self._symbol.d_pos, self._N)

    def apply_action(self, X: np.ndarray) -> np.ndarray:
        """``action_matrix() @ X`` for flat mN x k columns, banded."""
        return apply_block_toeplitz(self._symbol, X, self._N + self._symbol.d_pos)

    def action_column_norms(self) -> np.ndarray:
        """Norm of every column of ``action_matrix()``, from the coefficients.

        Column j = (degree t, component i) holds Phi_k e_i at degree t + k
        for every power k >= -t, and t + k < N + d_pos always, so
        |B e_j|^2 = sum_{k >= -t} |Phi_k e_i|^2: suffix sums over the
        powers -d..d, read at the power -t.
        """
        m, N, d = self.m, self._N, self._symbol.d
        stack = self._symbol.coefficient_stack(-d, d)
        col_sq = np.sum(stack.real ** 2 + stack.imag ** 2, axis=1)  # (2d + 1, m)
        suffix = np.zeros((2 * d + 2, m))
        suffix[:-1] = np.cumsum(col_sq[::-1], axis=0)[::-1]
        # power -t sits at index d - t, clipped to the bottom power -d
        return np.sqrt(suffix[np.maximum(d - np.arange(N), 0)].reshape(m * N))

    def __repr__(self) -> str:
        return f"ToeplitzCompression(m={self.m}, N={self._N}, d={self._symbol.d})"


def orthonormalize_family(vectors: list[CoeffVec], drop_tol: float = 1e-12) -> list[CoeffVec]:
    """Explicit Gram-Schmidt; callers opt in, nothing repairs families silently."""
    if not vectors:
        return []
    m, N = vectors[0].m, vectors[0].N
    Q, _ = gram_schmidt(np.asfortranarray(flat_columns(vectors, m * N)), drop_tol)
    return column_vectors(Q, m, N)


class PerturbedToeplitz:
    """T = compression(Phi) + sum_i <., G_i> H_i, held as (symbol, G, H).

    The exact polynomial action A = B + H G^H (B the base's action, the bump
    on its first mN rows) is applied banded by ``apply_action``.  The dense
    ``action_matrix()`` and ``matrix``, the square compression and its first
    mN rows, are built on first request and cached.
    """

    __slots__ = ("_base", "_G", "_H", "_G_matrix", "_H_matrix", "_action")

    def __init__(self, base: ToeplitzCompression, G: list[CoeffVec], H: list[CoeffVec],
                 require_orthonormal: bool = True):
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
        self._action = None
        if require_orthonormal:
            self.check_orthonormal(DEFAULT_TOLERANCES.ortho)
        self._verify_functional_form()

    def _verify_functional_form(self) -> None:
        # the banded action and the coefficient-level product Phi * F plus the
        # bump must agree on a probe; a fixed seed keeps construction
        # deterministic
        rng = np.random.default_rng(0)
        probe = CoeffVec((rng.standard_normal((self.m, self.N))
                          + 1j * rng.standard_normal((self.m, self.N))))
        banded = self.apply_action(probe.flatten()[:, None])[:, 0]
        bump = CoeffVec.zeros(self.m, self.N)
        for g, h in zip(self._G, self._H):
            bump = bump + inner_product(probe, g) * h
        rows = banded.size // self.m
        via_symbol = self._base.symbol.act(probe).analytic_part().resized(rows).flatten()
        via_symbol[:bump.m * bump.N] += bump.flatten()
        scale = max(1.0, float(np.linalg.norm(via_symbol)))
        if np.linalg.norm(banded - via_symbol) > FUNCTIONAL_FORM_PROBE * scale:
            raise AssertionError("banded and functional forms disagree")

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
    def G_matrix(self) -> np.ndarray:
        """The G family as flat columns, mN x n (read-only)."""
        return self._G_matrix

    @property
    def H_matrix(self) -> np.ndarray:
        """The H family as flat columns, mN x n (read-only)."""
        return self._H_matrix

    @property
    def matrix(self) -> np.ndarray:
        """The square compression with the bump, mN x mN (read-only)."""
        return self.action_matrix()[:self.m * self.N]

    def apply(self, F: CoeffVec) -> CoeffVec:
        if F.shape != (self.m, self.N):
            raise DimensionMismatch(f"operand shape {F.shape} != ({self.m}, {self.N})")
        out = self.apply_action(F.flatten()[:, None])[:self.m * self.N, 0]
        return CoeffVec.from_flat(out, self.m, self.N)

    @property
    def action_shape(self) -> tuple[int, int]:
        """Shape of ``action_matrix()``: m(N + d_pos) x mN."""
        return self._base.action_shape

    def apply_action(self, X: np.ndarray) -> np.ndarray:
        """``action_matrix() @ X`` for flat mN x k columns: the banded base
        action plus H (G^H X) on the first mN rows."""
        out = self._base.apply_action(X)
        if self.rank:
            out[:self.m * self.N] += self._H_matrix @ (self._G_matrix.conj().T @ X)
        return out

    def action_column_norms(self) -> np.ndarray:
        """Norm of every column of ``action_matrix()``, from the coefficients.

        With g_j the j-th row of conj(G), A e_j = B e_j + H g_j, so
        |A e_j|^2 = |B e_j|^2 + 2 Re((B^H H)_j g_j) + g_j^H (H^H H) g_j.
        |B e_j| is the base's coefficient form, and B^H H is the compression
        of Phi* applied to H zero-padded to the action's N + d_pos degrees.
        """
        norms_sq = self._base.action_column_norms() ** 2
        if self.rank:
            G, H = self._G_matrix, self._H_matrix
            padded = np.zeros((self.action_shape[0], self.rank), dtype=complex)
            padded[:H.shape[0]] = H
            BhH = apply_block_toeplitz(self._base.symbol.adjoint(), padded, self.N)
            Gbar = G.conj()
            norms_sq = (norms_sq + 2.0 * np.sum(BhH * Gbar, axis=1).real
                        + np.sum((G @ (H.conj().T @ H)) * Gbar, axis=1).real)
        return np.sqrt(np.maximum(norms_sq, 0.0))

    def action_matrix(self) -> np.ndarray:
        """Exact polynomial action with perturbation rows embedded (read-only),
        built on first request."""
        if self._action is None:
            action = self._base.action_matrix()
            action[:self.m * self.N] += self._H_matrix @ self._G_matrix.conj().T
            action.setflags(write=False)
            self._action = action
        return self._action

    def __repr__(self) -> str:
        return (f"PerturbedToeplitz(m={self.m}, N={self.N}, rank={self.rank}, "
                f"d={self._base.symbol.d})")


def build_perturbed(phi: LaurentMatrixSymbol, N: int, G: list[CoeffVec],
                    H: list[CoeffVec],
                    require_orthonormal: bool = True) -> PerturbedToeplitz:
    return PerturbedToeplitz(ToeplitzCompression(phi, N), G, H,
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
