"""Truncated coefficient-space model of vector-valued Hardy and L2 spaces.

A function F(z) = sum_j A_j z^j with A_j in C^m is represented by its first N
Taylor coefficient blocks.  Two-sided (L2) elements carry coefficient blocks
for degrees -N .. N-1.  All values are immutable after construction, so they
can be shared freely across threads.

Flattening convention: degree-major, i.e. flat index = degree * m + component.
With this ordering the compression of a multiplication operator is block
Toeplitz with m x m blocks, which is what the operators module assembles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch


def _as_finite_complex(coeffs, ndim_name: str) -> np.ndarray:
    arr = np.array(coeffs, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(
            f"{ndim_name} expects a 2-d (components, degrees) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{ndim_name} coefficients must be finite")
    arr.setflags(write=False)
    return arr


class CoeffVec:
    """Truncated analytic element: coefficients A_j in C^m for 0 <= j < N.

    Indexing contract: ``coeffs[i, j]`` is the coefficient of z^j in
    component i.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        self._coeffs = _as_finite_complex(coeffs, "CoeffVec")

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def m(self) -> int:
        return self._coeffs.shape[0]

    @property
    def N(self) -> int:
        return self._coeffs.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._coeffs.shape

    @classmethod
    def zeros(cls, m: int, N: int) -> "CoeffVec":
        return cls(np.zeros((m, N), dtype=complex))

    @classmethod
    def monomial(cls, m: int, N: int, component: int, degree: int,
                 value: complex = 1.0) -> "CoeffVec":
        """value * z^degree in one component, zero elsewhere."""
        if not (0 <= component < m and 0 <= degree < N):
            raise DimensionMismatch(
                f"monomial (component={component}, degree={degree}) outside shape ({m}, {N})")
        arr = np.zeros((m, N), dtype=complex)
        arr[component, degree] = value
        return cls(arr)

    @classmethod
    def from_flat(cls, flat, m: int, N: int) -> "CoeffVec":
        arr = np.asarray(flat, dtype=complex)
        if arr.shape != (m * N,):
            raise DimensionMismatch(f"flat vector of length {arr.shape} != {m * N}")
        return cls(arr.reshape(N, m).T)

    def flatten(self) -> np.ndarray:
        """Degree-major flat vector of length m*N."""
        return self._coeffs.T.reshape(-1).copy()

    def norm(self) -> float:
        return float(np.linalg.norm(self._coeffs))

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self._coeffs) ** 2))

    def resized(self, N: int) -> "CoeffVec":
        """Zero-pad or truncate to N degree slots."""
        if N == self.N:
            return self
        arr = np.zeros((self.m, N), dtype=complex)
        keep = min(N, self.N)
        arr[:, :keep] = self._coeffs[:, :keep]
        return CoeffVec(arr)

    def top_degree(self) -> int:
        """Largest degree with a nonzero coefficient block, -1 for the zero vector."""
        nz = np.nonzero(np.any(self._coeffs != 0, axis=0))[0]
        return int(nz[-1]) if nz.size else -1

    def __add__(self, other: "CoeffVec") -> "CoeffVec":
        _check_same_shape(self, other)
        return CoeffVec(self._coeffs + other._coeffs)

    def __sub__(self, other: "CoeffVec") -> "CoeffVec":
        _check_same_shape(self, other)
        return CoeffVec(self._coeffs - other._coeffs)

    def __mul__(self, scalar) -> "CoeffVec":
        return CoeffVec(self._coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "CoeffVec":
        return CoeffVec(-self._coeffs)

    def __repr__(self) -> str:
        return f"CoeffVec(m={self.m}, N={self.N}, norm={self.norm():.3g})"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "N": self.N,
            "coeffs": [[[float(c.real), float(c.imag)] for c in row]
                       for row in self._coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoeffVec":
        m, N = int(data["m"]), int(data["N"])
        rows = data["coeffs"]
        if len(rows) != m or any(len(r) != N for r in rows):
            raise DimensionMismatch("coeffs payload does not match declared (m, N)")
        arr = np.array([[complex(re, im) for re, im in row] for row in rows])
        return cls(arr.reshape(m, N))


class LaurentVec:
    """Truncated two-sided element: coefficients for degrees -N .. N-1.

    Column j + N holds the degree-j block.  The strictly negative part models
    the conjugate-analytic complement; the analytic restriction round-trips
    losslessly to a CoeffVec.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        arr = _as_finite_complex(coeffs, "LaurentVec")
        if arr.shape[1] % 2 != 0:
            raise DimensionMismatch(
                f"LaurentVec needs an even number of degree slots, got {arr.shape[1]}")
        self._coeffs = arr

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def m(self) -> int:
        return self._coeffs.shape[0]

    @property
    def N(self) -> int:
        return self._coeffs.shape[1] // 2

    @classmethod
    def zeros(cls, m: int, N: int) -> "LaurentVec":
        return cls(np.zeros((m, 2 * N), dtype=complex))

    @classmethod
    def from_analytic(cls, F: CoeffVec, N: int | None = None) -> "LaurentVec":
        N = N if N is not None else F.N
        if N < F.N:
            raise DimensionMismatch("embedding window smaller than the analytic part")
        arr = np.zeros((F.m, 2 * N), dtype=complex)
        arr[:, N:N + F.N] = F.coeffs
        return cls(arr)

    def analytic_part(self) -> CoeffVec:
        return CoeffVec(self._coeffs[:, self.N:])

    def norm(self) -> float:
        return float(np.linalg.norm(self._coeffs))

    def __repr__(self) -> str:
        return f"LaurentVec(m={self.m}, degrees=[-{self.N}, {self.N}), norm={self.norm():.3g})"


def _check_same_shape(a, b) -> None:
    if a.coeffs.shape != b.coeffs.shape:
        raise DimensionMismatch(
            f"shape mismatch: {a.coeffs.shape} vs {b.coeffs.shape}")


class ShiftResult(NamedTuple):
    vec: CoeffVec
    dropped: float


def inner_product(F: CoeffVec, G: CoeffVec) -> complex:
    """Coefficient inner product, conjugate-linear in the second argument."""
    _check_same_shape(F, G)
    return complex(np.sum(F.coeffs * np.conj(G.coeffs)))


def forward_shift(F: CoeffVec) -> ShiftResult:
    """Multiply by z at truncation.

    The degree N-1 block falls off the window; its norm is returned as the
    dropped mass so callers can enforce an interior-window discipline.
    """
    arr = np.zeros_like(F.coeffs)
    arr[:, 1:] = F.coeffs[:, :-1]
    dropped = float(np.linalg.norm(F.coeffs[:, -1]))
    return ShiftResult(CoeffVec(arr), dropped)


def backward_shift(F: CoeffVec) -> CoeffVec:
    """(F - F(0)) / z; the top degree slot of the result is zero."""
    arr = np.zeros_like(F.coeffs)
    arr[:, :-1] = F.coeffs[:, 1:]
    return CoeffVec(arr)


def flat_columns(vectors, length: int) -> np.ndarray:
    """A family of coefficient vectors as flat columns, length x len(vectors)."""
    if not vectors:
        return np.zeros((length, 0), dtype=complex)
    return np.stack([v.flatten() for v in vectors], axis=1)


def column_vectors(X: np.ndarray, m: int, N: int) -> list[CoeffVec]:
    """The flat columns of an mN x k array as coefficient vectors."""
    return [CoeffVec.from_flat(X[:, j], m, N) for j in range(X.shape[1])]


def eval_at_zero(F: CoeffVec) -> np.ndarray:
    """The value F(0), i.e. the degree-0 coefficient block."""
    return F.coeffs[:, 0].copy()


def reproducing_column(m: int, N: int, component: int) -> CoeffVec:
    """The vector representing evaluation at 0 in one component (constant 1)."""
    return CoeffVec.monomial(m, N, component, 0, 1.0)
