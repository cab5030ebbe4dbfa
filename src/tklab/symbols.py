"""Matrix trigonometric-polynomial symbols, their block Toeplitz kernels and
scalar inner-outer splitting.

A symbol is a finite Fourier series Phi(z) = sum_k Phi_k z^k with matrix
coefficients, z on the unit circle.  Analytic symbols (k >= 0 only) act as
multipliers; general symbols act through the Riesz projection.  Scalar
polynomials factor into a Blaschke-monomial inner part and a zero-free outer
part via companion-matrix roots.

Two kernels read a symbol's coefficient stack: the banded product
``apply_block_toeplitz`` and the blocked substitution ``_substitute`` that
applies T_n(A)^{-1} for an analytic A.  The substitution gives both the
inverse series B_0..B_K, the first block column of T_{K+1}(A)^{-1}, which
``is_invertible_analytic`` certifies through the banded product A B_K - I,
and, from that certificate, T_N(A)^{-1} X (``solve_block_toeplitz``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (EXACT_INNER_ROUNDOFF, INVERTIBILITY_DEGREE_CAP,
                     SERIES_INVERSION_RESIDUAL, SUBSTITUTION_BLOCK)
from .errors import CircleRootError, DimensionMismatch, NotInvertibleError
from .hardy_core import CoeffVec, LaurentVec


def _coefficient_stack(m: int, keys: list, values: list) -> np.ndarray:
    """The coefficient matrices as one finite complex (P, m, m) array.

    One finiteness test covers the whole stack.  The errors name the first
    offending power in the order given; a coefficient that is not m x m
    sends the stack through the per-power checks to find it.
    """
    if not values:
        return np.zeros((0, m, m), dtype=complex)
    try:
        stack = np.array(values, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.shape != (len(values), m, m):
        mats = []
        for k, mat in zip(keys, values):
            arr = np.array(mat, dtype=complex)
            if arr.shape != (m, m):
                raise DimensionMismatch(
                    f"coefficient at power {k} has shape {arr.shape}, expected ({m}, {m})")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"coefficient at power {k} is not finite")
            mats.append(arr)
        stack = np.stack(mats)
    finite = np.isfinite(stack).reshape(len(values), -1).all(axis=1)
    if not finite.all():
        bad = keys[int(np.argmin(finite))]
        raise ValueError(f"coefficient at power {bad} is not finite")
    return stack


class LaurentMatrixSymbol:
    """Phi(z) = sum_{k in [-d, d]} Phi_k z^k with Phi_k in C^{m x m}.

    Coefficients are stored sparsely by Fourier index; exactly-zero matrices
    are dropped so that the bandwidth d reflects actual content.  They are
    validated and held as one read-only (P, m, m) stack in ascending power
    order.  Instances are immutable.
    """

    __slots__ = ("_m", "_terms", "_powers", "_stack")

    def __init__(self, m: int, terms):
        if m < 1:
            raise DimensionMismatch(f"matrix size must be positive, got {m}")
        terms = dict(terms)
        keys = [int(k) for k in terms]
        stack = _coefficient_stack(int(m), list(terms), list(terms.values()))
        nonzero = stack.reshape(len(keys), m * m).any(axis=1)
        # a later duplicate power replaces an earlier one unless it is zero
        index = {k: i for i, k in enumerate(keys) if nonzero[i]}
        powers = sorted(index)
        self._init(int(m), powers, stack[[index[k] for k in powers]])

    def _init(self, m: int, powers: list[int], stack: np.ndarray) -> None:
        """Set the fields from ascending powers and their nonzero, finite
        (P, m, m) coefficient stack."""
        stack.setflags(write=False)
        self._m = m
        self._powers = powers
        self._stack = stack
        self._terms = dict(zip(powers, stack))

    @classmethod
    def _from_stack(cls, m: int, powers: list[int],
                    stack: np.ndarray) -> "LaurentMatrixSymbol":
        """A symbol from coefficients already validated by another instance."""
        out = cls.__new__(cls)
        out._init(m, powers, np.ascontiguousarray(stack))
        return out

    @property
    def m(self) -> int:
        return self._m

    @property
    def d(self) -> int:
        """Bandwidth: max |k| over nonzero Fourier coefficients."""
        return max(-self._powers[0], self._powers[-1]) if self._powers else 0

    @property
    def d_pos(self) -> int:
        return max(self._powers[-1], 0) if self._powers else 0

    def powers(self) -> list[int]:
        return list(self._powers)

    def fourier(self, k: int) -> np.ndarray:
        mat = self._terms.get(int(k))
        if mat is None:
            return np.zeros((self._m, self._m), dtype=complex)
        return mat.copy()

    def coefficient_stack(self, lo: int, hi: int) -> np.ndarray:
        """Phi_lo, ..., Phi_hi as a (hi - lo + 1, m, m) array, zeros included."""
        powers = self._powers
        if powers and (powers[0], powers[-1], len(powers)) == (lo, hi, hi - lo + 1):
            return self._stack  # read-only
        out = np.zeros((max(hi - lo + 1, 0), self._m, self._m), dtype=complex)
        powers = np.asarray(powers, dtype=np.int64)
        keep = (powers >= lo) & (powers <= hi)
        out[powers[keep] - lo] = self._stack[keep]
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def is_analytic(self) -> bool:
        return all(k >= 0 for k in self._terms)

    # ---- constructors ----

    @classmethod
    def zero(cls, m: int) -> "LaurentMatrixSymbol":
        return cls(m, {})

    @classmethod
    def identity(cls, m: int) -> "LaurentMatrixSymbol":
        return cls(m, {0: np.eye(m)})

    @classmethod
    def shift(cls, m: int, power: int = 1) -> "LaurentMatrixSymbol":
        """z^power times the identity; power may be negative."""
        return cls(m, {power: np.eye(m)})

    @classmethod
    def diagonal(cls, entries) -> "LaurentMatrixSymbol":
        """Analytic diagonal symbol from per-entry Taylor coefficient arrays."""
        rows = [np.atleast_1d(np.asarray(e, dtype=complex)) for e in entries]
        m = len(rows)
        terms: dict[int, np.ndarray] = {}
        for i, row in enumerate(rows):
            for k, c in enumerate(row):
                if c != 0:
                    terms.setdefault(k, np.zeros((m, m), dtype=complex))[i, i] = c
        return cls(m, terms)

    @classmethod
    def constant(cls, mat) -> "LaurentMatrixSymbol":
        arr = np.asarray(mat, dtype=complex)
        return cls(arr.shape[0], {0: arr})

    # ---- algebra ----

    def multiply(self, other: "LaurentMatrixSymbol") -> "LaurentMatrixSymbol":
        """Pointwise product self(z) @ other(z); Fourier convolution."""
        if self._m != other._m:
            raise DimensionMismatch(f"size mismatch: {self._m} vs {other._m}")
        out: dict[int, np.ndarray] = {}
        for k1, a in self._terms.items():
            for k2, b in other._terms.items():
                k = k1 + k2
                acc = out.get(k)
                prod = a @ b
                out[k] = prod if acc is None else acc + prod
        return LaurentMatrixSymbol(self._m, out)

    def adjoint(self) -> "LaurentMatrixSymbol":
        """Pointwise conjugate transpose on the circle: (Phi*)_k = (Phi_{-k})^H."""
        return LaurentMatrixSymbol._from_stack(
            self._m, [-k for k in reversed(self._powers)],
            self._stack[::-1].conj().transpose(0, 2, 1))

    def scale(self, scalar: complex) -> "LaurentMatrixSymbol":
        return LaurentMatrixSymbol(
            self._m, {k: mat * scalar for k, mat in self._terms.items()})

    def __add__(self, other: "LaurentMatrixSymbol") -> "LaurentMatrixSymbol":
        if self._m != other._m:
            raise DimensionMismatch(f"size mismatch: {self._m} vs {other._m}")
        out = {k: mat.copy() for k, mat in self._terms.items()}
        for k, mat in other._terms.items():
            out[k] = out.get(k, 0) + mat
        return LaurentMatrixSymbol(self._m, out)

    def __sub__(self, other: "LaurentMatrixSymbol") -> "LaurentMatrixSymbol":
        return self + other.scale(-1.0)

    def equals(self, other: "LaurentMatrixSymbol") -> bool:
        """Exact coefficient equality."""
        if self._m != other._m or set(self._terms) != set(other._terms):
            return False
        return all(np.array_equal(self._terms[k], other._terms[k]) for k in self._terms)

    def coefficient_norm(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(mat) ** 2) for mat in self._terms.values())))

    def coefficient_l1_norm(self) -> float:
        """Sum of the coefficients' spectral norms: a bound on the operator
        norm of every compression and exact action of the symbol."""
        if not self._powers:
            return 0.0
        return float(np.sum(np.linalg.norm(self._stack, 2, axis=(1, 2))))

    # ---- actions ----

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Stack of matrix values Phi(z) for each z in points, shape (len, m, m)."""
        pts = np.asarray(points, dtype=complex).ravel()
        out = np.zeros((pts.size, self._m, self._m), dtype=complex)
        for k, mat in self._terms.items():
            out += np.power(pts, k)[:, None, None] * mat[None, :, :]
        return out

    def act(self, F: CoeffVec) -> LaurentVec:
        """Exact Laurent product Phi * F of a symbol with a truncated element.

        The result window is wide enough to hold every product degree, so no
        mass is lost; callers project or truncate as appropriate.
        """
        if F.m != self._m:
            raise DimensionMismatch(f"component mismatch: {F.m} vs {self._m}")
        half = F.N + self.d
        out = np.zeros((self._m, 2 * half), dtype=complex)
        for k, mat in self._terms.items():
            block = mat @ F.coeffs  # (m, N) contributions at degrees k .. k+N-1
            out[:, half + k:half + k + F.N] += block
        return LaurentVec(out)

    # ---- serialization ----

    def to_json(self) -> dict:
        return {
            "m": self._m,
            "terms": [
                {"power": k,
                 "matrix": [[[float(c.real), float(c.imag)] for c in row]
                            for row in self._terms[k]]}
                for k in self.powers()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LaurentMatrixSymbol":
        m = int(data["m"])
        terms = {}
        for item in data["terms"]:
            mat = np.array([[complex(re, im) for re, im in row] for row in item["matrix"]])
            terms[int(item["power"])] = terms.get(int(item["power"]), 0) + mat.reshape(m, m)
        return cls(m, terms)

    def __repr__(self) -> str:
        return f"LaurentMatrixSymbol(m={self._m}, powers={self.powers()})"


def unit_circle_grid(grid_size: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(grid_size) / grid_size)


@dataclass(frozen=True)
class InnerCheck:
    ok: bool
    max_deviation: float
    tol: float


def _inner_deviation_stack(theta: LaurentMatrixSymbol) -> np.ndarray:
    """D_j = sum_k Theta_k^H Theta_{k+j} - delta_{j0} I for j = 0, ..., L - 1,
    the coefficients of Theta* Theta - I at powers j >= 0 (D_{-j} = D_j^H)."""
    powers = theta.powers() or [0]
    C = theta.coefficient_stack(powers[0], powers[-1])
    L, m = C.shape[0], theta.m
    # stacking the blocks sums Theta_k^H Theta_{k+j} over k in one product
    D = np.stack([C[:L - j].reshape(-1, m).conj().T @ C[j:].reshape(-1, m)
                  for j in range(L)])
    D[0] -= np.eye(m)
    return D


def is_inner(theta: LaurentMatrixSymbol, tol: float = 1e-8) -> InnerCheck:
    """Certificate that Theta is unitary on the whole circle, within tol.

    On |z| = 1, Theta(z)^H Theta(z) - I = sum_j D_j z^j, a finite sum over
    the coefficients of ``_inner_deviation_stack``.  Since |z^j| = 1 and
    ||D_{-j}||_2 = ||D_j||_2, the triangle inequality bounds it at every
    point by max_deviation = ||D_0||_2 + 2 sum_{j >= 1} ||D_j||_2, so ``ok``
    proves the deviation within tol everywhere, not only at samples.  The
    bound is 0 exactly when the coefficient identity holds and may exceed
    the sup, so a symbol near tol can be refused but never wrongly passed.
    A symbol with a negative power is refused with an infinite deviation:
    z^{-1} is unitary on the circle, but an inner function is analytic.
    """
    if not theta.is_analytic():
        return InnerCheck(ok=False, max_deviation=float("inf"), tol=tol)
    norms = np.linalg.norm(_inner_deviation_stack(theta), 2, axis=(1, 2))
    dev = float(norms[0] + 2.0 * np.sum(norms[1:]))
    return InnerCheck(ok=dev <= tol, max_deviation=dev, tol=tol)


def is_exactly_inner(theta: LaurentMatrixSymbol) -> bool:
    """Coefficient test of Theta* Theta = I for an analytic polynomial.

    The identity sum_k Theta_k^H Theta_{k+j} = delta_j I must hold to a
    roundoff constant; ``is_inner`` admits truncated series that satisfy
    it only to their tail, and those keep the dense kernel path.
    """
    if not theta.is_analytic():
        return False
    return inner_coefficient_deviation(theta) <= EXACT_INNER_ROUNDOFF


def inner_coefficient_deviation(theta: LaurentMatrixSymbol) -> float:
    """max_j max |D_j| over the entries of D_j = sum_k Theta_k^H Theta_{k+j}
    - delta_j I, the coefficients of Theta* Theta - I."""
    return float(np.max(np.abs(_inner_deviation_stack(theta))))


@dataclass(frozen=True)
class InvertibilityCheck:
    """``is_invertible_analytic``'s verdict on an analytic A, with its proof."""

    ok: bool
    #: the factor A
    factor: LaurentMatrixSymbol
    #: B_0..B_K, the certified inverse series, as a (K + 1, m, m) array;
    #: empty when refused
    series: np.ndarray = field(repr=False)
    #: rho >= sum_j ||R_j||_2 for R = A B_K - I, rounding included; below
    #: 1/2 when ``ok``, infinite when refused
    bound: float

    def l1_norm(self, window: int) -> float:
        """A bound on ||T(A^-1)|| over ``window`` degrees: the sum of the
        spectral norms of A^-1's first ``window`` coefficients.

        A B_K = I + R gives A^-1 - B_K = -B_K R (I + R)^-1, whose
        coefficient norms sum to at most l1(B_K) rho / (1 - rho) in the
        Wiener algebra, and that term is added to the l1 prefix of B_K at
        every window.  Within K + 1 degrees it covers the roundoff that the
        recursion left in the computed B_j, on which rho is measured; beyond
        them it covers A^-1's coefficients past degree K too.
        """
        norms = np.linalg.norm(self.series, 2, axis=(1, 2))
        total = float(np.sum(norms))
        return float(np.sum(norms[:window])) + total * self.bound / (1.0 - self.bound)


def is_invertible_analytic(A: LaurentMatrixSymbol) -> InvertibilityCheck:
    """Certificate that A^{-1} is in H^infinity: A(z) is invertible on the
    closed disk, with a bounded inverse.

    For K = 63, 127, 255, ... up to ``INVERTIBILITY_DEGREE_CAP``, B_K is the
    series ``invert_analytic`` computes and R = A B_K - I the polynomial of
    degree K + d with the coefficients R_j of ``_series_defect``.  For
    |z| <= 1, ||R(z)||_2 <= sum_j ||R_j||_F.  Once a bound rho on that sum
    is below 1/2, the Neumann series sum_k (-R)^k converges in H^infinity to
    (I + R)^{-1} = (A B_K)^{-1}, of norm at most 2, so A^{-1} =
    B_K (A B_K)^{-1} is analytic on the disk with ||A^{-1}||_inf <=
    2 sum_j ||B_j||.  R is measured on the computed B_K as a polynomial, so
    the roundoff of the substitution that produced B_K needs no bound; only
    the one product does.  Each entry of R_j is a complex inner product of
    n = m (d + 1) + 1 terms, off by at most gamma_{n+2} times the sum of
    their moduli (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sections 3.1 and 3.6): at most gamma_{n+2} (sum_t ||A_t||_F
    sum_j ||B_j||_F + sqrt(m)) over all R_j.  rho is the sum of the norms
    plus that term, divided by 1 - gamma_{L + m^2 + 8} for the relative
    error of evaluating the norms and sums of L = K + d + 1 terms.  The
    check that proves A returns B_K and rho, from which the factored route
    applies T_N(A)^{-1} (``solve_block_toeplitz``) and bounds it
    (``InvertibilityCheck.l1_norm``).  A singular A_0, a sum that is not
    finite (a zero inside the disk overflows B_K) or the cap (a zero on the
    circle keeps ||R_j|| near 1) refuses A.
    """
    if not A.is_analytic():
        raise ValueError("invertibility test is defined for analytic symbols only")
    m = A.m
    refused = InvertibilityCheck(False, A, np.zeros((0, m, m), dtype=complex),
                                 float("inf"))
    coeffs = A.coefficient_stack(0, A.d)
    try:
        _check_constant_term(coeffs[0])
    except NotInvertibleError:
        return refused
    u = np.finfo(float).eps / 2  # gamma_n = n u / (1 - n u) <= 1.01 n u here
    rounding = 1.01 * (m * len(coeffs) + 3) * u
    a_sum = float(np.sum(np.linalg.norm(coeffs, axis=(1, 2))))
    K = 63
    with np.errstate(over="ignore", invalid="ignore"):
        while K <= INVERTIBILITY_DEGREE_CAP:
            B = _inverse_series(coeffs, K)
            R = _series_defect(A, B)
            b_sum = float(np.sum(np.linalg.norm(B, axis=(1, 2))))
            rho = (float(np.sum(np.linalg.norm(R, axis=(1, 2))))
                   + rounding * (a_sum * b_sum + np.sqrt(m))) \
                / (1.0 - 1.01 * (len(R) + m * m + 8) * u)
            if not np.isfinite(rho):
                return refused
            if rho < 0.5:
                B.setflags(write=False)
                return InvertibilityCheck(True, A, B, rho)
            K = 2 * K + 1
    return refused


def invert_analytic(A: LaurentMatrixSymbol, K: int) -> LaurentMatrixSymbol:
    """Degree-K Taylor truncation of A(z)^{-1}.

    T_{K+1}(A) is block lower triangular, so T_{K+1}(A)^{-1} = T_{K+1}(A^{-1})
    and B_0..B_K is its first block column (Boettcher-Silbermann, Analysis
    of Toeplitz Operators, section 2): ``_substitute`` on [I; 0; ...; 0],
    with T_b(A)^{-1} for the first b = ``SUBSTITUTION_BLOCK`` degrees
    inverted outright.  That inverse carries roundoff that the
    degree-by-degree recursion does not, growing as A nears singular on the
    circle, so A B - I at degrees <= K - d must stay within
    ``SERIES_INVERSION_RESIDUAL`` * max(1, |A|), and B must be finite (A
    singular in the disk overflows it).  The series alone does not prove
    A^{-1} bounded on the disk; ``is_invertible_analytic`` does.  An N-term
    series serves the rank-one analysis's convolution route and the tests as
    their oracle; the factored route substitutes from the certificate.
    """
    if not A.is_analytic():
        raise ValueError("series inversion is defined for analytic symbols only")
    m = A.m
    coeffs = A.coefficient_stack(0, A.d)
    _check_constant_term(coeffs[0])
    with np.errstate(over="ignore", invalid="ignore"):
        B = _inverse_series(coeffs, K)
        if not np.isfinite(B).all():
            raise NotInvertibleError(f"inverse series is not finite up to degree {K}")
        resid = _inversion_residual(A, B, K)
    if not resid <= SERIES_INVERSION_RESIDUAL * max(1.0, A.coefficient_norm()):
        raise NotInvertibleError(f"inversion residual {resid:.3e} exceeds tolerance")
    nonzero = B.reshape(K + 1, m * m).any(axis=1)
    return LaurentMatrixSymbol._from_stack(m, np.flatnonzero(nonzero).tolist(), B[nonzero])


def _check_constant_term(A0: np.ndarray) -> None:
    """``NotInvertibleError`` when A_0 is singular to roundoff."""
    m = A0.shape[0]
    if abs(np.linalg.det(A0)) < np.finfo(float).eps * max(1.0, np.linalg.norm(A0)) ** m:
        raise NotInvertibleError("constant coefficient is singular")


def _inverse_series(coeffs: np.ndarray, K: int) -> np.ndarray:
    """B_0..B_K of A^{-1} as a (K + 1, m, m) array, from A's coefficients
    A_0..A_d: the substitution on the first block column of the identity."""
    m, b = coeffs.shape[1], min(SUBSTITUTION_BLOCK, K + 1)
    head = np.linalg.inv(_lag_matrix(coeffs, np.subtract.outer(np.arange(b), np.arange(b))))
    return _substitute(coeffs, head, np.eye((K + 1) * m, m, dtype=complex)).reshape(-1, m, m)


def _series_defect(A: LaurentMatrixSymbol, B: np.ndarray) -> np.ndarray:
    """R_j = (A B)_j - delta_j I for every degree j of the product, as an
    (len(B) + d, m, m) array: the banded product of A with B's blocks."""
    n, m = B.shape[:2]
    R = apply_block_toeplitz(A, B.reshape(n * m, m), n + A.d).reshape(-1, m, m)
    R[0] -= np.eye(m)
    return R


def _inversion_residual(A: LaurentMatrixSymbol, B: np.ndarray, K: int) -> float:
    """max |R_j| over j <= K - d, the degrees a degree-K series settles."""
    top = max(K - A.d, 0) + 1
    return float(np.max(np.abs(_series_defect(A, B[:top])[:top])))


# ---------------------------------------------------------------------------
# block Toeplitz products and solves from the coefficient stack
# ---------------------------------------------------------------------------


def _lag_matrix(stack: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """The block matrix whose block (i, j) is stack[lag[i, j]], and zero where
    the lag falls outside the stack: T_b(A) for lag i - j."""
    m = stack.shape[1]
    # an appended zero block, index -1, stands for every lag off the stack
    padded = np.concatenate([stack, np.zeros((1, m, m), dtype=stack.dtype)])
    blocks = padded[np.where((lag >= 0) & (lag < len(stack)), lag, -1)]
    return blocks.transpose(0, 2, 1, 3).reshape(lag.shape[0] * m, lag.shape[1] * m)


def apply_block_toeplitz(symbol: LaurentMatrixSymbol, X: np.ndarray,
                         rows: int) -> np.ndarray:
    """The rows x cols block Toeplitz matrix with block (r, t) = Phi_{r-t},
    applied to X without forming it.

    X holds flat degree-major columns of cols = len(X) / m degrees.  Output
    block r is sum_p Phi_p X_{r-p} over the powers p that reach from
    [0, cols) into [0, rows).  X is laid out once with its components as
    rows, an m x cols k matrix whose column block t is degree t, and so is
    the output; power p sends the input degrees [t0, t1) that land in
    [0, rows) to [t0 + p, t1 + p), one GEMM of Phi_p with that slice of
    columns.  That is one level-3 BLAS call per nonzero power, each over
    the whole degree range, where one small product per output degree would
    pay a call's overhead rows times (Golub-Van Loan, Matrix Computations,
    section 1.5).
    """
    m, k = symbol.m, X.shape[1]
    cols = X.shape[0] // m
    powers = symbol.powers()
    out = np.zeros((m, rows * k), dtype=complex)
    lo = max(powers[0], 1 - cols) if powers else 0
    hi = min(powers[-1], rows - 1) if powers else -1
    if lo <= hi and k:
        stack = symbol.coefficient_stack(lo, hi)
        Xc = X.reshape(cols, m, k).transpose(1, 0, 2).reshape(m, cols * k)
        for p in powers:
            if lo <= p <= hi:
                t0, t1 = max(0, -p), min(cols, rows - p)
                out[:, (t0 + p) * k:(t1 + p) * k] += stack[p - lo] @ Xc[:, t0 * k:t1 * k]
    return out.reshape(m, rows, k).transpose(1, 0, 2).reshape(rows * m, k)


def solve_block_toeplitz(check: InvertibilityCheck, X: np.ndarray,
                         adjoint: bool = False) -> np.ndarray:
    """T_n(A)^{-1} X, or T_n(A)^{-H} X with ``adjoint``, for the factor A
    that ``check`` certifies invertible and flat degree-major columns X of
    n = len(X) / m degrees, by blocked substitution (``_substitute``).

    The substitution's head T_b(A)^{-1} = T_b(B) is read from the certified
    series B_0..B_{b-1}; ``apply_block_toeplitz`` with an n-term series
    gives the same vectors in O(n^2 m^2).  T_n(A)^H on reversed degrees is
    the lower triangular T_n with the blocks A_t^H, so the adjoint is the
    same solve on the reversed X with the blocks A_t^H and B_j^H.
    """
    A = check.factor
    m, k = A.m, X.shape[1]
    n = X.shape[0] // m
    if not n:
        return np.zeros((0, k), dtype=complex)
    b = min(SUBSTITUTION_BLOCK, n)
    coeffs, B = A.coefficient_stack(0, A.d), check.series[:b]
    if adjoint:
        coeffs, B = coeffs.conj().transpose(0, 2, 1), B.conj().transpose(0, 2, 1)
        X = X.reshape(n, m, k)[::-1].reshape(n * m, k)
    Y = _substitute(coeffs, _lag_matrix(B, np.subtract.outer(np.arange(b), np.arange(b))), X)
    return Y.reshape(n, m, k)[::-1].reshape(n * m, k) if adjoint else Y


def _substitute(coeffs: np.ndarray, head: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T_n(A)^{-1} X for A's coefficients A_0..A_d, head = T_b(A)^{-1} and
    flat degree-major columns X of n degrees, in blocks of b degrees.

    Block c of Y is head (X_c - C Y_prev), where C Y_prev = sum_t A_t
    Y_{r-t} couples the block's first d degrees to the d outputs before it.
    The products head X_c of all blocks are one matmul and the loop carries
    d degrees from block to block, O(n m^2 (b + d)) in all.
    """
    d, m, k = len(coeffs) - 1, coeffs.shape[1], X.shape[1]
    n, b = X.shape[0] // m, head.shape[0] // m
    blocks = -(-n // b)
    padded = np.zeros((blocks * b * m, k), dtype=complex)
    padded[:n * m] = X
    # d zero degrees ahead of the output, so every block has d predecessors
    Y = np.zeros(((d + blocks * b) * m, k), dtype=complex)
    out = Y[d * m:].reshape(blocks, b * m, k)
    np.matmul(head, padded.reshape(blocks, b * m, k), out=out)
    if d:
        # coupling of block degree i to the predecessor degree p (degree
        # p - d relative to the block's start): A_{i + d - p} for p >= i
        rows = min(b, d)
        lag = np.arange(rows)[:, None] + d - np.arange(d)[None, :]
        couple = head[:, :rows * m] @ _lag_matrix(coeffs, lag)
        for c in range(blocks):
            out[c] -= couple @ Y[c * b * m:(c * b + d) * m]
    return Y[d * m:(d + n) * m]


# ---------------------------------------------------------------------------
# scalar inner-outer factorization
# ---------------------------------------------------------------------------


def blaschke_taylor(alpha: complex, degree: int) -> np.ndarray:
    """Taylor coefficients of |a|/a * (a - z)/(1 - conj(a) z) up to `degree`."""
    alpha = complex(alpha)
    if alpha == 0:
        raise ValueError("a zero at the origin belongs in the monomial factor")
    unim = abs(alpha) / alpha
    coeffs = np.zeros(degree + 1, dtype=complex)
    coeffs[0] = abs(alpha)
    tail = unim * (abs(alpha) ** 2 - 1.0)
    ac = np.conj(alpha)
    for j in range(1, degree + 1):
        coeffs[j] = tail * ac ** (j - 1)
    return coeffs


def _polymul_trunc(a: np.ndarray, b: np.ndarray, degree: int | None = None) -> np.ndarray:
    out = np.convolve(a, b)
    if degree is not None:
        out = out[:degree + 1]
    return out


@dataclass(frozen=True)
class ScalarInnerOuterFactorization:
    """p = inner * outer with inner = z^k * product of disk Blaschke factors.

    The Blaschke zeros are stored exactly; Taylor expansion happens on demand
    at whatever truncation the consumer works at.
    """

    zero_power: int
    disk_zeros: tuple
    unimodular_constant: complex
    outer_coeffs: np.ndarray = field(repr=False)

    def inner_taylor(self, degree: int) -> np.ndarray:
        coeffs = np.zeros(degree + 1, dtype=complex)
        if self.zero_power > degree:
            return coeffs
        series = np.array([self.unimodular_constant], dtype=complex)
        for a in self.disk_zeros:
            series = _polymul_trunc(series, blaschke_taylor(a, degree), degree)
        width = min(len(series), degree + 1 - self.zero_power)
        coeffs[self.zero_power:self.zero_power + width] = series[:width]
        return coeffs

    def inner_eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        vals = self.unimodular_constant * pts ** self.zero_power
        for a in self.disk_zeros:
            vals = vals * (abs(a) / a) * (a - pts) / (1.0 - np.conj(a) * pts)
        return vals

    def outer_eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=complex)
        return np.polyval(self.outer_coeffs[::-1], pts)

    def reconstruction_residual(self, p: np.ndarray) -> float:
        grid = unit_circle_grid(512)
        target = np.polyval(np.asarray(p, dtype=complex)[::-1], grid)
        got = self.inner_eval(grid) * self.outer_eval(grid)
        scale = max(float(np.max(np.abs(target))), 1e-300)
        return float(np.max(np.abs(got - target))) / scale

    def to_json(self) -> dict:
        return {
            "inner": {
                "zero_power": self.zero_power,
                "disk_zeros": [[float(a.real), float(a.imag)] for a in self.disk_zeros],
                "constant": [float(self.unimodular_constant.real),
                             float(self.unimodular_constant.imag)],
            },
            "outer": [[float(c.real), float(c.imag)] for c in self.outer_coeffs],
        }


def scalar_inner_outer(p, eps_circle: float = 1e-6) -> ScalarInnerOuterFactorization:
    """Split a scalar polynomial into Blaschke-monomial inner and outer parts.

    Roots come from the companion matrix (np.roots).  Roots inside the disk
    feed Blaschke factors, the origin multiplicity feeds the monomial, and
    everything else stays in the outer polynomial.  Roots within eps_circle
    of the unit circle make the split meaningless, so they are refused.
    """
    coeffs = np.atleast_1d(np.asarray(p, dtype=complex))
    if not np.any(coeffs != 0):
        raise ValueError("cannot factor the zero polynomial")
    # strip exact zero leading (low-order) coefficients into the monomial part
    k = 0
    while coeffs[k] == 0:
        k += 1
    core = coeffs[k:]
    # strip trailing zeros so np.roots sees the true degree
    top = len(core) - 1
    while top > 0 and core[top] == 0:
        top -= 1
    core = core[:top + 1]
    lead = core[-1]
    roots = np.roots(core[::-1]) if len(core) > 1 else np.array([], dtype=complex)
    radii = np.abs(roots)
    if np.any(np.abs(radii - 1.0) < eps_circle):
        worst = roots[np.argmin(np.abs(radii - 1.0))]
        raise CircleRootError(
            f"root {worst:.6g} lies within {eps_circle:g} of the unit circle")
    disk = tuple(roots[radii < 1.0])
    outside = roots[radii > 1.0]
    # p = z^k * lead * prod_in (z - a) * prod_out (z - b)
    #   = inner * [lead * prod_in (-a/|a|) (1 - conj(a) z)] * prod_out (z - b)
    outer = np.array([lead], dtype=complex)
    for a in disk:
        outer = outer * (-a / abs(a))
        outer = _polymul_trunc(outer, np.array([1.0, -np.conj(a)], dtype=complex))
    for b in outside:
        outer = _polymul_trunc(outer, np.array([-b, 1.0], dtype=complex))
    fact = ScalarInnerOuterFactorization(
        zero_power=k, disk_zeros=disk, unimodular_constant=1.0 + 0.0j,
        outer_coeffs=outer)
    resid = fact.reconstruction_residual(coeffs)
    if resid > 1e-8:
        raise CircleRootError(f"factorization residual {resid:.3e} exceeds 1e-08")
    return fact
