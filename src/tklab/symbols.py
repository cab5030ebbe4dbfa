"""Matrix trigonometric-polynomial symbols and scalar inner-outer splitting.

A symbol is a finite Fourier series Phi(z) = sum_k Phi_k z^k with matrix
coefficients, z on the unit circle.  Analytic symbols (k >= 0 only) act as
multipliers; general symbols act through the Riesz projection.  Scalar
polynomials factor into a Blaschke-monomial inner part and a zero-free outer
part via companion-matrix roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EXACT_INNER_ROUNDOFF, SERIES_BLOCK, SERIES_INVERSION_RESIDUAL
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

    def is_diagonal(self) -> bool:
        return all(np.all(mat == np.diag(np.diag(mat))) for mat in self._terms.values())

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
    """
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


def closed_disk_grid(radial: int = 8, angular: int = 64) -> np.ndarray:
    """Sample points of the closed unit disk, boundary included."""
    radii = np.linspace(0.0, 1.0, radial + 1)
    angles = unit_circle_grid(angular)
    pts = np.concatenate([[0.0 + 0.0j]] + [r * angles for r in radii[1:]])
    return pts


def is_invertible_analytic(A: LaurentMatrixSymbol, grid_size: int = 64,
                           margin: float = 1e-6) -> bool:
    """True when |det A(z)| stays above margin on a closed-disk sample grid."""
    if not A.is_analytic():
        raise ValueError("invertibility test is defined for analytic symbols only")
    pts = closed_disk_grid(angular=max(grid_size, 4 * (2 * A.d + 1)))
    dets = np.linalg.det(A.evaluate(pts))
    return bool(np.min(np.abs(dets)) >= margin)


def invert_analytic(A: LaurentMatrixSymbol, K: int) -> LaurentMatrixSymbol:
    """Degree-K Taylor truncation of A(z)^{-1}, computed b degrees at a time.

    The coefficients obey B_0 = A_0^{-1}, B_j = -A_0^{-1} sum_{t=1..min(j,d)}
    A_t B_{j-t}, so the state s_j = [B_j; ...; B_{j-d+1}] advances as
    s_j = C s_{j-1} with the block companion matrix C.  One product with the
    top block rows of C^0..C^{b-1} and with C^b (b = ``SERIES_BLOCK``) turns
    s_{kb} into B_{kb}..B_{kb+b-1} and s_{(k+1)b}.  The powers carry roundoff
    that the degree-by-degree recursion does not, growing with b and with how
    close A comes to singular on the circle, so A B - I no longer vanishes by
    construction: its coefficients at degrees <= K - d certify the series
    and must stay within ``SERIES_INVERSION_RESIDUAL`` * max(1, |A|).  A
    series that is not finite (A singular in the disk, B past the float
    range) is refused too.  b = 8 keeps factors nearly singular on the circle
    far inside the bound where b = 32 and powers by squaring fail it (the
    measurements are quoted at ``config.SERIES_BLOCK``).
    """
    if not A.is_analytic():
        raise ValueError("series inversion is defined for analytic symbols only")
    m, d = A.m, A.d
    coeffs = A.coefficient_stack(0, d)
    A0 = coeffs[0]
    if abs(np.linalg.det(A0)) < np.finfo(float).eps * max(1.0, np.linalg.norm(A0)) ** m:
        raise NotInvertibleError("constant coefficient is singular")
    with np.errstate(over="ignore", invalid="ignore"):
        B = _inverse_series(np.linalg.inv(A0), coeffs, K)
        if not np.isfinite(B).all():
            raise NotInvertibleError(f"inverse series is not finite up to degree {K}")
        resid = _inversion_residual(coeffs, B, K)
    if not resid <= SERIES_INVERSION_RESIDUAL * max(1.0, A.coefficient_norm()):
        raise NotInvertibleError(f"inversion residual {resid:.3e} exceeds tolerance")
    nonzero = B.reshape(K + 1, m * m).any(axis=1)
    return LaurentMatrixSymbol._from_stack(m, np.flatnonzero(nonzero).tolist(), B[nonzero])


def _inverse_series(A0_inv: np.ndarray, coeffs: np.ndarray, K: int) -> np.ndarray:
    """B_0..B_K of A^{-1} as a (K + 1, m, m) array, from A's coefficients
    A_0..A_d and A_0^{-1}, in blocks of ``SERIES_BLOCK`` degrees."""
    m, b = A0_inv.shape[0], SERIES_BLOCK
    # a constant A runs with A_1 = 0
    tail = coeffs[1:] if len(coeffs) > 1 else np.zeros((1, m, m), dtype=complex)
    d = len(tail)
    # companion matrix: first block row -A_0^{-1} [A_1 ... A_d], shift below
    C = np.eye(m * d, k=-m, dtype=complex)
    C[:m] = -A0_inv @ tail.transpose(1, 0, 2).reshape(m, m * d)
    powers = np.empty((b + 1, m * d, m * d), dtype=complex)
    powers[0] = np.eye(m * d)
    for i in range(1, b + 1):
        powers[i] = C @ powers[i - 1]
    # one product gives the block's b coefficients and the next state
    step = np.concatenate([powers[:b, :m].reshape(b * m, m * d), powers[b]])
    blocks = -(-(K + 1) // b)
    out = np.empty((blocks, b * m, m), dtype=complex)
    state = np.zeros((m * d, m), dtype=complex)
    state[:m] = A0_inv
    for k in range(blocks):
        nxt = step @ state
        out[k] = nxt[:b * m]
        state = nxt[b * m:]
    return out.reshape(blocks * b, m, m)[:K + 1]


def _inversion_residual(coeffs: np.ndarray, B: np.ndarray, K: int) -> float:
    """max |(A B)_j - delta_j I| over j <= K - d, with A's coefficients stacked;
    one flat product per A_t on B_0..B_{K-d} laid side by side."""
    m = B.shape[1]
    top = max(K - len(coeffs) + 1, 0) + 1
    flat = B[:top].transpose(1, 0, 2).reshape(m, top * m)
    prod = np.zeros((m, top * m), dtype=complex)
    for t, mat in enumerate(coeffs[:top]):
        prod[:, t * m:] += mat @ flat[:, :(top - t) * m]
    prod[:, :m] -= np.eye(m)
    return float(np.max(np.abs(prod)))


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

    def reconstruction_residual(self, p: np.ndarray, grid_size: int = 512) -> float:
        grid = unit_circle_grid(grid_size)
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


def scalar_inner_outer(p, eps_circle: float = 1e-6,
                       tol_reconstruct: float = 1e-8) -> ScalarInnerOuterFactorization:
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
    if resid > tol_reconstruct:
        raise CircleRootError(
            f"factorization residual {resid:.3e} exceeds {tol_reconstruct:g}")
    return fact


def _diagonal_entries(phi: LaurentMatrixSymbol) -> list[np.ndarray]:
    if not phi.is_analytic():
        raise ValueError("inner-outer splitting expects an analytic symbol")
    if not phi.is_diagonal():
        raise ValueError("inner-outer splitting is implemented for diagonal symbols")
    entries = []
    for i in range(phi.m):
        coeffs = np.array([phi.fourier(kk)[i, i] for kk in range(phi.d + 1)])
        entries.append(coeffs)
    return entries


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
