"""Coordinate representation of nearly invariant subspaces.

A subspace M with defect frame E_1..E_p and non-vanishing frame W_1..W_r
(an orthonormal basis of M minus its origin-vanishing slice) represents each
member as

    F = sum_a K0_a * W_a + sum_j z * k_j * E_j,

with scalar coefficient functions (K0, k_1..k_p) drawn from a backward-shift
invariant coordinate space, and |F|^2 = |K0|^2 + sum |k_j|^2.

Coordinates are extracted by degree peeling: the value F(0) fixes the
degree-0 block of K0 through the (injective) value map of the W frame;
subtracting and backward-shifting exposes the degree-0 values of the k_j as
inner products against the defect frame; iterating walks up the degrees.
Peeling lands exactly on the coordinate-space solution, which a flat
least-squares solve of the (often rank-deficient) frame map would not.

One peeling step is linear: ``_peel_step`` takes it on flat columns and
returns their coefficients C X, their remainders A X and the value-map
residuals X - W a.  ``certify_representation`` takes the step once on the
whole orthonormal basis Q of M, which realizes the coordinate space as
{C (I - zA)^-1 x} with a dim M x dim M matrix A, and certifies convergence,
reconstruction, isometry and invariance for every member of M from that one
step.  It is the one representation engine: the representation check reads
its bounds, and the rank-one analyses also read the realized coordinates
C A^t x of the members Q x they sample (``_realized_series``).

Nothing here measures a defect, solves a kernel or builds a model space:
``build_frame`` and the Theta* analysis read M's ``DefectReport``, the
rank-one analyses the caller's kernel, and the inner and Theta* ones the
``ModelSpace`` that certified Theta inner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import (CRITICAL_CRITERION, DEFAULT_TOLERANCES, GRAM_SCHMIDT_DROP,
                     NEGLIGIBLE_NORM)
from .errors import DimensionMismatch, FrameDeficientError
from .hardy_core import (CoeffVec, backward_shift, backward_shift_flat, column_vectors,
                         eval_at_zero, flat_columns, inner_product,
                         reproducing_column)
from .model_spaces import ModelSpace, decompose_against_theta
# compute_defect is not called here; the benchmark's tracer pins this import
from .near_invariance import DefectReport, KernelResult, compute_defect  # noqa: F401
from .operators import apply_block_toeplitz, orthonormalize_family
from .subspaces import (Subspace, _adjoint, _dense, _overlap, _product, _update, _values,
                        column_norms, column_span, gram_schmidt, is_contained,
                        ortho_complement_within, project, span_of, subspace_equal,
                        zero_space)


@dataclass(frozen=True)
class RepresentationFrame:
    M: Subspace
    W: tuple[CoeffVec, ...]
    E: tuple[CoeffVec, ...]

    @property
    def r(self) -> int:
        return len(self.W)

    @property
    def p(self) -> int:
        return len(self.E)

    @property
    def vanishing_case(self) -> bool:
        """Every member of M vanishes at the origin: the W frame is empty."""
        return self.r == 0

    @cached_property
    def W_matrix(self) -> np.ndarray:
        """The W frame as flat columns, mN x r."""
        return flat_columns(self.W, self.M.m * self.M.N)

    @cached_property
    def E_matrix(self) -> np.ndarray:
        """The defect frame as flat columns, mN x p."""
        return flat_columns(self.E, self.M.m * self.M.N)

    @cached_property
    def value_pinv(self) -> np.ndarray:
        """Pseudo-inverse of the value map W(0) = ``W_matrix[:m]``, r x m: one
        solve for every step."""
        return np.linalg.pinv(self.W_matrix[:self.M.m]) if self.W else \
            np.zeros((0, self.M.m), dtype=complex)


def build_frame(M: Subspace, measured: DefectReport,
                defect: Subspace | None = None) -> RepresentationFrame:
    """Assemble (W, E) frames for M from its measured defect.

    ``measured`` is M's ``DefectReport``.  Its defect basis is the defect
    frame, unless a wider ``defect`` is given: that must contain the measured
    defect, or the frame cannot reconstruct M and ``FrameDeficientError`` is
    raised, and be orthogonal to M.  W is the measurement's value split: an
    orthonormal basis of M minus (M intersect zH2), with at most m columns.
    """
    if defect is None:
        defect = measured.defect_basis
    else:
        ok, resid = is_contained(measured.defect_basis, defect, 1e-8)
        if not ok:
            raise FrameDeficientError(
                f"provided defect space misses measured defect directions "
                f"(residual {resid:.3e})")
    if defect.dim and M.dim:
        overlap = _overlap(defect.basis, M.basis)
        if overlap > 1e-8:
            raise DimensionMismatch(
                f"defect frame is not orthogonal to the subspace (overlap {overlap:.3e})")
    return RepresentationFrame(M=M, W=tuple(column_vectors(measured.W, M.m, M.N)),
                               E=tuple(defect.basis_vectors()))


@dataclass(frozen=True)
class InvarianceReport:
    depth: int
    #: membership residual per shift 1..depth, over the members it covers
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals) if self.residuals else 0.0


# ---------------------------------------------------------------------------
# the peeling step
# ---------------------------------------------------------------------------


def _peel_step(frame: RepresentationFrame, X: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One peeling step on the flat columns of X (mN x K).

    Returns the coefficients C X = [a; c] ((r + p) x K) with
    a = pinv(W(0)) X(0) and c = E^H S*(X - W a), the remainders
    A X = S*(X - W a) - E c, and the value-map residuals X - W a.
    """
    E = frame.E_matrix
    a = frame.value_pinv @ X[:frame.M.m]
    V = X - frame.W_matrix @ a
    R = backward_shift_flat(V, frame.M.m)
    c = E.conj().T @ R
    R -= E @ c
    return np.concatenate([a, c], axis=0), R, V


def default_depth(N: int) -> int:
    """Each backward shift consumes usable degrees; past N/2 the check degenerates."""
    return min(8, N // 2)


# ---------------------------------------------------------------------------
# realization certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizationCertificate:
    """One peeling step on the basis of M and the bounds it certifies.

    ``A`` (K x K) and ``C`` ((r + p) x K) realize the coordinates of the
    member Q x: its step-t coefficients are C A^t x.  Every bound holds for
    every unit member of M.
    """

    A: np.ndarray
    C: np.ndarray
    #: k with ||A^(2^k)||_F = contraction < 1/2
    squarings: int
    contraction: float
    reconstruction: float
    isometry: float
    invariance: InvarianceReport
    #: sizes of the exact nonzero supports J of D and J' of P
    support: tuple[int, int]
    #: exact nonzero counts of A and of its last power A^(2^squarings)
    nonzeros: tuple[int, int]


def _norm2_hermitian(H: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix (0 for an empty one)."""
    H = 0.5 * (H + H.conj().T)
    return float(np.max(np.abs(np.linalg.eigvalsh(H)), initial=0.0))


def _support_norms(D: np.ndarray, P: np.ndarray) -> tuple[float, float, int, int]:
    """||D||_2 of a square, numerically Hermitian D and ||P||_2, each read
    from its exact nonzero support (see ``certify_representation``).

    Returns the two norms and the sizes of D's support J (the union of its
    nonzero rows and columns) and P's support J' (its nonzero columns).
    """
    nonzero = D != 0
    J = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    Jp = np.flatnonzero((P != 0).any(axis=0))
    PJ = P[:, Jp]
    d_norm = _norm2_hermitian(D[np.ix_(J, J)])
    p_norm = math.sqrt(_norm2_hermitian(PJ.conj().T @ PJ))
    return d_norm, p_norm, J.size, Jp.size


def certify_representation(frame: RepresentationFrame, depth: int,
                           tol_rep: float = 1e-8,
                           max_steps: int | None = None) -> RealizationCertificate:
    """Certify the representation of all of M from one peeling step on its basis.

    The peeling step ``_peel_step`` is linear: a member F yields its
    coefficients C F = [a; c] with a = pinv(W(0)) F(0), c = E^H S*(F - W a),
    and the remainder A F = S*(F - W a) - E c.  Taken once on the whole
    orthonormal basis Q of M (mN x K) it gives the K x K matrix A_Q = Q^H A Q
    and C_Q = C Q, and the coordinate space is the realization
    {C_Q (I - z A_Q)^-1 x}: the member Q x has the coordinate series
    u_t = C_Q A_Q^t x, whose backward shift is the series of A_Q x, so the
    space is exactly S*-invariant.  R(x) below is the reassembly
    sum_t z^t (W a_t + z E c_t) of that series with the truncating shift z of
    the Horner pass (z^t = 0 for t >= N, so the sum is finite).  Two
    residuals are measured:

    * P = Q - W a - z(E c + Q A_Q), the one-step residual.  It holds the
      value-map miss (F(0) outside range W(0)) and z of the near-invariance
      error A Q - Q A_Q (a defect frame missing directions);
    * D = I - A_Q^H A_Q - C_Q^H C_Q, the one-step isometry defect.

    *Norms on their exact support.*  Both norms are spectral, and
    ``eigvalsh`` decides both, on the exact nonzero support of D and P.  Let
    J be the union of D's nonzero rows and nonzero columns (a GEMM result is
    not bitwise Hermitian, so a zero column need not mean a zero row).  Every
    row and column of the symmetrized (D + D^H)/2 outside J is zero, so up to
    a permutation it is diag(S, 0) with S the symmetrized D[J, J]: its
    eigenvalues are those of S and zeros, and ||D|| is the largest absolute
    one.  Let J' be the nonzero columns of P; then P y = P[:, J']
    y_J', so ||P||^2 = ||P[:, J']||^2 = lambda_max(P[:, J']^H P[:, J']).
    Both are exact, not bounds.  On a dense basis J and J' hold every index
    and the computation is the K x K one; an empty support gives 0.  On the
    zero route's Householder basis most columns of Q are exact unit vectors
    that the step maps without roundoff, and both supports stay at a few
    indices near the degrees G touches, whatever N.

    *Products over exact nonzeros.*  A_Q = Q^H (A Q), Q A_Q, A_Q^H A_Q,
    C_Q^H C_Q and every power A_Q^(2^j) are formed by ``_product`` from the
    entries != 0 of their factors; nothing is thresholded.  Each entry is
    then the dense sum without its exactly-zero terms, so only the summation
    order changes, and the sum of n nonzero terms keeps the forward-error
    bound gamma_n sum_k |x_k| |y_k| of the dense sum over at least n terms.
    Where the nonzeros do not cut the scalar products by
    ``SUPPORT_PRODUCT_FACTOR``, as on a dense basis, the product is BLAS's.
    On the zero route's Householder basis A_Q and all its powers keep a few
    nonzeros per column (at most 6,617 of 259,081 at dim = 509), and no
    product takes more than about 50,000 scalar products against dim^3.

    *Certificate.*  A_Q is squared k times until q = ||A_Q^T||_F < 1/2,
    T = 2^k; no eigenvalue is trusted, since the computed spectrum of a
    perturbed shift is a pseudospectral artifact.  From
    A_Q^H A_Q = I - D - C_Q^H C_Q <= (1 + ||D||) I, ||A_Q^j|| <= c_T =
    (1 + ||D||)^(T/2) for j < T, and with t = sT + j,
    ||A_Q^t|| <= ||A_Q^T||^s ||A_Q^j|| <= q^s c_T, so

        sum_t ||A_Q^t|| <= T c_T / (1 - q),  sum_t ||A_Q^t||^2 <= T c_T^2 / (1 - q^2).

    *Reconstruction.*  P is defined so that Q y = W a(y) + z(E c(y) +
    Q A_Q y) + P y for every y.  Applied to y = A_Q^t x, each identity
    expands the Q A_Q^(t+1) x of the one before; after N steps the
    remainder z^N Q A_Q^N x is zero, leaving Q x - R(x) =
    sum_{t<N} z^t P A_Q^t x.  As ||z|| <= 1,
    ||Q x - R(x)|| <= ||P|| T c_T / (1 - q) for unit x.

    *Isometry.*  By the definition of D,
    ||y||^2 = ||C_Q y||^2 + ||A_Q y||^2 + y^H D y.  Summed over
    y = A_Q^t x, t < T', it telescopes to ||x||^2 - ||A_Q^T' x||^2 -
    sum_{t<T'} ||u_t||^2 = sum_{t<T'} (A_Q^t x)^H D A_Q^t x; as T' grows
    A_Q^T' x -> 0, so |||x||^2 - sum_t ||u_t||^2| <= ||D|| T c_T^2 / (1 - q^2)
    for unit x, the coordinate norm being sum_t ||u_t||^2.

    *Invariance.*  Shifting the coordinates of x back n times gives the
    series u_{t+n}, the realized coordinates of y = A_Q^n x.  R(y) lies
    within the reconstruction bound times ||y|| <= (1 + ||D||)^(n/2) of
    Q y, a member of M, so that is ``invariance.residuals[n - 1]``.

    *Membership.*  The basis columns need no membership test: with
    E = Q^H Q - I and delta = max |E_ij| <= SUBSPACE_GRAM_BOUND (the
    ``Subspace`` constructor's check), q_i - Q Q^H q_i = -Q E e_i, and
    |Q|_2^2 = |I + E|_2 <= 1 + |E|_F <= 1 + K delta and
    |E e_i| <= sqrt(K) delta, so |q_i - Q Q^H q_i| <= sqrt(1 + K delta)
    sqrt(K) delta: about 2.3e-11 at K = 509.

    The bounds hold up to the roundoff of evaluating the certificate itself.
    Raises ``FrameDeficientError`` if 2^k would pass ``max_steps`` (default
    max(64 N, 4096)) or the reconstruction bound exceeds ``tol_rep``.
    """
    M = frame.M
    m, N = M.m, M.N
    Q = M.basis
    if max_steps is None:
        max_steps = max(64 * N, 4096)
    C, R, P = _peel_step(frame, Q)
    A_Q = _product(Q.conj().T, R)
    del R  # the remainder is spent: free it before the mN x K product Y
    A = _dense(A_Q)
    Y = _update(np.add, frame.E_matrix @ C[frame.r:], _product(Q, A_Q))
    P[m:] -= Y[:-m]
    D = _update(np.subtract, np.eye(M.dim, dtype=complex), _product(_adjoint(A_Q), A_Q))
    d_norm, p_norm, d_support, p_support = _support_norms(
        _update(np.subtract, D, _product(_adjoint(C), C)), P)
    power, squarings = A_Q, 0
    while not (q := float(np.linalg.norm(_values(power)))) < 0.5:
        if not np.isfinite(q) or 2 ** (squarings + 1) > max_steps:
            raise FrameDeficientError(
                f"one peeling step does not contract within {max_steps} steps "
                f"(||A^{2 ** squarings}||_F = {q:.3e})")
        power = _product(power, power)
        squarings += 1
    T = 2 ** squarings
    growth = 1.0 + d_norm  # bounds ||A_Q||^2
    # c_T = growth^(T/2), capped below overflow: a cap that large fails anyway
    c_T = math.exp(min(0.5 * T * math.log1p(d_norm), 700.0))
    recon = p_norm * T * c_T / (1.0 - q)
    if recon > tol_rep:
        raise FrameDeficientError(
            f"frame cannot reconstruct the member (residual {recon:.3e})")
    return RealizationCertificate(
        A=A, C=C, squarings=squarings, contraction=q, reconstruction=recon,
        isometry=d_norm * T * c_T * c_T / (1.0 - q * q),
        invariance=InvarianceReport(
            depth=depth, residuals=tuple(recon * growth ** (n / 2)
                                         for n in range(1, depth + 1))),
        support=(d_support, p_support),
        nonzeros=(int(np.count_nonzero(_values(A_Q))),
                  int(np.count_nonzero(_values(power)))))


def _realized_series(cert: RealizationCertificate, x: np.ndarray) -> np.ndarray:
    """The realized coordinates u_t = C_Q A_Q^t x of the members Q x.

    Returns steps x (r + p) x columns of x, with the K0 block first.  The
    series stops once every ||A_Q^t x|| is at most 1e-10 ||x||, the tail
    floor of peeling; the certified contraction ||A_Q^T||_F < 1/2 ends it.
    """
    floors = 1e-10 * column_norms(x)
    steps = []
    while np.any(column_norms(x) > floors):
        steps.append(cert.C @ x)
        x = cert.A @ x
    return np.stack(steps) if steps else np.zeros((0, len(cert.C), x.shape[1]), complex)


# ---------------------------------------------------------------------------
# rank-one application analyses
# ---------------------------------------------------------------------------


def _autocorrelation(G: CoeffVec) -> np.ndarray:
    """Fourier coefficients of |G|^2 on the circle, degrees -(N-1)..N-1."""
    N = G.N
    out = np.zeros(2 * N - 1, dtype=complex)
    for i in range(G.m):
        row = G.coeffs[i]
        out += np.correlate(row, row, mode="full")  # sum_j row[j+k] conj(row[j])
    return out


def _analytic_part_of_correlation(corr: np.ndarray, shift: int, N: int) -> np.ndarray:
    """Coefficients of P(z^shift * corr) up to degree N-1; shift may be negative."""
    half = (len(corr) - 1) // 2
    out = np.zeros(N, dtype=complex)
    # degree j holds corr's degree j - shift, which runs over -half..half
    lo, hi = max(0, shift - half), min(N, shift + half + 1)
    out[lo:hi] = corr[lo - shift + half:hi - shift + half]
    return out


def _unit_norm_check(G: CoeffVec) -> None:
    if abs(G.norm() - 1.0) > 1e-8:
        raise ValueError(f"generator must have unit norm, got {G.norm():.6f}")


def _shifted_pairing(coeff_rows: np.ndarray, data_rows: np.ndarray, n: int) -> complex:
    """<coeffs, z^n data> over matching degree slots."""
    width = min(data_rows.shape[1], coeff_rows.shape[1] - n)
    if width <= 0:
        return 0j
    return complex(np.sum(coeff_rows[:, n:n + width] * np.conj(data_rows[:, :width])))


@dataclass
class ComplementAnalysis:
    """Orthocomplement-of-one-vector analysis for the zero symbol."""

    frame: RepresentationFrame
    G0: CoeffVec
    g: CoeffVec
    projection_formula_residual: float
    condition_residual_max: float
    samples: int
    #: certified coordinate-space invariance of every member at shifts 1..depth
    invariance: InvarianceReport
    #: realized coordinates (K0, k1) of the sampled members; K0 is None when r = 0
    coords: list[tuple[CoeffVec | None, CoeffVec]] = field(default_factory=list)

    @property
    def r(self) -> int:
        return self.frame.r

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "vanishing_case": self.frame.vanishing_case,
            "projection_formula_residual": self.projection_formula_residual,
            "condition_residual_max": self.condition_residual_max,
            "samples": self.samples,
            "invariance_residual_max": self.invariance.max_residual,
            "g_norm": self.g.norm(),
            "G0_norm": self.G0.norm(),
        }


def rank_one_complement_analysis(M: Subspace, G: CoeffVec, depth: int | None = None,
                                 seed: int = 0) -> ComplementAnalysis:
    """Analyze M = H^2 minus the line through a unit vector G.

    M is read, not built: it is the kernel of the rank-one operator
    <., G> H as the caller solved it.  Produces the non-vanishing frame from
    projected reproducing columns, the adjoint data (G0, g) governing the
    coordinate space, and verifies the membership characterization
    <K0, z^n G0> + <k1, z^n g> = 0 on the realized coordinates of a sample of
    members.  The frame's realization certificate bounds the coordinate-space
    invariance of every member to depth.
    """
    _unit_norm_check(G)
    m, N = M.m, M.N
    # projected reproducing columns and the closed form they must match
    projections = []
    formula_resid = 0.0
    g0_vals = eval_at_zero(G)
    for i in range(m):
        Fi = project(reproducing_column(m, N, i), M)
        closed = reproducing_column(m, N, i) - complex(np.conj(g0_vals[i])) * G
        formula_resid = max(formula_resid, (Fi - closed).norm())
        projections.append(Fi)
    # Gram-Schmidt in index order, dropping dependent columns in place
    W_mat, C = gram_schmidt(np.asfortranarray(flat_columns(projections, m * N)),
                            GRAM_SCHMIDT_DROP)
    W = tuple(column_vectors(W_mat, m, N))
    r = len(W)
    frame = RepresentationFrame(M=M, W=W, E=(G,))
    corr = _autocorrelation(G)
    # G0 row i = sum_t conj(C[i, t]) P(g_t - g_t(0) |G|^2)
    g0_rows = np.zeros((max(r, 1), N), dtype=complex)
    for i in range(r):
        for t in range(m):
            if C[i, t] == 0:
                continue
            term = G.coeffs[t].copy()
            term -= g0_vals[t] * _analytic_part_of_correlation(corr, 0, N)
            g0_rows[i] += np.conj(C[i, t]) * term
    G0 = CoeffVec(g0_rows[:max(r, 1)])
    g = CoeffVec(_analytic_part_of_correlation(corr, -1, N).reshape(1, N))
    # sample members and test the coordinate-space membership condition
    rng = np.random.default_rng(seed)
    members: list[CoeffVec] = list(W)
    for _ in range(4):
        raw = np.zeros((m, N), dtype=complex)
        deg = max(2, min(N - 2, N // 2))
        raw[:, :deg] = rng.standard_normal((m, deg)) + 1j * rng.standard_normal((m, deg))
        cand = project(CoeffVec(raw), M)
        if cand.norm() > 1e-8:
            members.append(cand * (1.0 / cand.norm()))
    if depth is None:
        depth = default_depth(N)
    cert = certify_representation(frame, depth)
    series = _realized_series(cert, M.basis.conj().T @ flat_columns(members, m * N))
    coords = [(CoeffVec(series[:, :r, i].T) if r else None,
               CoeffVec(series[:, r, i][None, :])) for i in range(len(members))]
    cond_resid = 0.0
    for K0, k1 in coords:
        for n in range(depth + 1):
            total = 0.0 + 0.0j
            if K0 is not None:
                total += _shifted_pairing(K0.coeffs, G0.coeffs, n)
            total += _shifted_pairing(k1.coeffs, g.coeffs, n)
            cond_resid = max(cond_resid, abs(total))
    return ComplementAnalysis(frame=frame, G0=G0, g=g,
                              projection_formula_residual=formula_resid,
                              condition_residual_max=cond_resid,
                              samples=len(members), invariance=cert.invariance,
                              coords=coords)


@dataclass
class RankOneKernelReport:
    """Kernel dispatch for a rank-one bump of a structured symbol."""

    case: str
    criterion: complex
    kernel: Subspace
    expected_match_residual: float | None
    origin_case: str | None
    coordinate_residuals: dict
    details: dict = field(default_factory=dict)

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "criterion": [self.criterion.real, self.criterion.imag],
            "kernel_dim": self.kernel_dim,
            "expected_match_residual": self.expected_match_residual,
            "origin_case": self.origin_case,
            "coordinate_residuals": self.coordinate_residuals,
            "details": dict(self.details),
        }


def _one_dim_structure(kernel: Subspace, candidate: CoeffVec,
                       defect_candidates: list[CoeffVec]) -> tuple[str, dict]:
    """Coordinate-space shape of a one-dimensional kernel.

    With value nonzero at the origin the coordinates must be a constant K0
    and vanishing k; in the vanishing case a constant k1.  The defect frame
    stays in the analysis's natural (unprojected) form; the coordinate space
    is then exactly the constants, and the realized series of the kernel's
    first basis vector ends after one step.  The reconstruction and isometry
    residuals are the frame's certified bounds.
    """
    value_mass = float(np.linalg.norm(eval_at_zero(candidate)))
    if value_mass > 1e-8 * max(candidate.norm(), 1e-300):
        origin = "value_nonzero"
        W: tuple[CoeffVec, ...] = (candidate * (1.0 / candidate.norm()),)
    else:
        origin = "value_zero"
        W = ()
    E = tuple(orthonormalize_family([v for v in defect_candidates
                                     if v.norm() > 1e-8]))
    frame = RepresentationFrame(M=kernel, W=W, E=E)
    cert = certify_representation(frame, 0)
    u = _realized_series(cert, np.eye(kernel.dim, 1))[:, :, 0]
    resid = {"reconstruction": cert.reconstruction, "isometry_gap": cert.isometry}
    r = frame.r
    if origin == "value_nonzero":
        resid["K0_shift_mass"] = float(np.linalg.norm(u[1:, :r]))
        resid["k_mass"] = float(np.linalg.norm(u[:, r:]))
    elif frame.p:
        resid["k1_shift_mass"] = float(np.linalg.norm(u[1:, r]))
    return origin, resid


def rank_one_inner_kernel(kr: KernelResult, ms: ModelSpace, G: CoeffVec, H: CoeffVec,
                          range_membership: float = DEFAULT_TOLERANCES.range_membership
                          ) -> RankOneKernelReport:
    """Kernel of T_theta + <., G> H for an inner analytic symbol.

    ``kr`` is the operator's solved kernel, ``ms`` theta's certified model
    space.  The criterion 1 + <T_{theta*} H, G> decides between a trivial
    kernel and the line through T_{theta*} H; a nontrivial kernel also
    requires H to lie in the shifted range of theta, to within the relative
    model-space mass ``range_membership``.
    """
    theta, N = ms.theta, ms.N
    _unit_norm_check(G)
    if backward_shift(H).norm() < 1e-8:
        raise ValueError("H must have a nonzero backward shift")
    candidate = column_vectors(
        apply_block_toeplitz(theta.adjoint(), H.flatten()[:, None], N), H.m, N)[0]
    criterion = 1.0 + inner_product(candidate, G)
    h_in_range = decompose_against_theta(H, ms, tol_membership=range_membership).in_range
    kernel = kr.subspace
    details = {"kernel_residual_max": kr.residual_max,
               "h_in_shifted_range": h_in_range,
               "inner_deviation": ms.inner_deviation}
    if abs(criterion) > CRITICAL_CRITERION and kernel.dim == 0:
        return RankOneKernelReport(case="trivial_kernel", criterion=criterion,
                                   kernel=kernel,
                                   expected_match_residual=None, origin_case=None,
                                   coordinate_residuals={}, details=details)
    if abs(criterion) <= CRITICAL_CRITERION and (h_in_range is None or h_in_range):
        expected = span_of([candidate])
        _, resid = subspace_equal(kernel, expected)
        defect_cands = [backward_shift(candidate)]
        origin, cres = _one_dim_structure(kernel, candidate, defect_cands)
        return RankOneKernelReport(case="spanned_kernel", criterion=criterion,
                                   kernel=kernel,
                                   expected_match_residual=resid, origin_case=origin,
                                   coordinate_residuals=cres, details=details)
    return RankOneKernelReport(case="unexpected", criterion=criterion,
                               kernel=kernel,
                               expected_match_residual=None, origin_case=None,
                               coordinate_residuals={}, details=details)


def rank_one_invertible_kernel(kr: KernelResult, G: CoeffVec,
                               H: CoeffVec) -> RankOneKernelReport:
    """Kernel of T_{F1* F2} + <., G> H for invertible analytic factors.

    ``kr`` is the operator's kernel solved with the factors, and carries
    their series F1^{-1}, F2^{-1}.  The candidate vector F2^{-1} T_{F1*^{-1}} H
    is assembled two ways (matrix application and direct coefficient
    convolution) and the orders are cross-checked before the criterion
    dispatch.
    """
    if kr.series is None:
        raise ValueError("the kernel was not solved with invertible factors")
    _unit_norm_check(G)
    N = kr.subspace.N
    # powers of the F1 series one past N - 1 fall outside the window
    inv1, inv2 = kr.series
    intermediate = column_vectors(
        apply_block_toeplitz(inv1.adjoint(), H.flatten()[:, None], N), H.m, N)[0]
    # route one: block Toeplitz application of the inverted factor
    candidate = column_vectors(
        apply_block_toeplitz(inv2, intermediate.flatten()[:, None], N), H.m, N)[0]
    # route two: direct Cauchy product of the coefficient sequences, entry by entry
    series = inv2.coefficient_stack(0, N - 1)
    conv = np.array([sum(np.convolve(series[:, i, j], intermediate.coeffs[j])[:N]
                         for j in range(H.m)) for i in range(H.m)])
    convolution_gap = float(np.linalg.norm(candidate.coeffs - conv))
    # shift identity: z S*(A) = A - A(0)
    fwd = np.zeros_like(intermediate.coeffs)
    fwd[:, 1:] = backward_shift(intermediate).coeffs[:, :-1]
    shift_gap = float(np.linalg.norm(
        fwd - (intermediate.coeffs - np.concatenate(
            [eval_at_zero(intermediate)[:, None],
             np.zeros((H.m, N - 1), dtype=complex)], axis=1))))
    criterion = 1.0 + inner_product(candidate, G)
    kernel = kr.subspace
    details = {"kernel_residual_max": kr.residual_max,
               "convolution_gap": convolution_gap,
               "shift_identity_gap": shift_gap}
    if abs(criterion) > CRITICAL_CRITERION:
        return RankOneKernelReport(
            case="trivial_kernel", criterion=criterion,
            kernel=kernel, expected_match_residual=None, origin_case=None,
            coordinate_residuals={}, details=details)
    expected = span_of([candidate])
    _, resid = subspace_equal(kernel, expected)
    defect_cands = [inv2.act(backward_shift(intermediate)).analytic_part().resized(N)]
    origin, cres = _one_dim_structure(kernel, candidate, defect_cands)
    return RankOneKernelReport(case="spanned_kernel", criterion=criterion,
                               kernel=kernel,
                               expected_match_residual=resid, origin_case=origin,
                               coordinate_residuals=cres, details=details)


@dataclass
class ThetaStarReport:
    """Four-way dispatch for the adjoint-of-inner rank-one kernel."""

    case: str
    in_range: bool
    criterion: complex
    kernel: Subspace
    predicted_dim: int
    equality_residual: float
    projection_formula_residual: float
    membership_residuals: dict
    details: dict = field(default_factory=dict)

    @property
    def kernel_dim(self) -> int:
        return self.kernel.dim

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "in_range": self.in_range,
            "criterion": [self.criterion.real, self.criterion.imag],
            "kernel_dim": self.kernel_dim,
            "predicted_dim": self.predicted_dim,
            "equality_residual": self.equality_residual,
            "projection_formula_residual": self.projection_formula_residual,
            "membership_residuals": self.membership_residuals,
            "details": dict(self.details),
        }


def rank_one_theta_star_analysis(kr: KernelResult, defect: DefectReport,
                                 ms: ModelSpace, G: CoeffVec, H: CoeffVec,
                                 depth: int | None = None,
                                 tol_equality: float = 1e-6,
                                 range_membership: float =
                                 DEFAULT_TOLERANCES.range_membership) -> ThetaStarReport:
    """Kernel of T_{theta*} + <., G> H against its predicted structure.

    ``kr`` is the operator's solved kernel, ``defect`` its measured defect,
    which the span of the analysis's defect candidates must contain (else
    ``FrameDeficientError``), and ``ms`` theta's certified model space.  G
    splits into a model-space part and a shifted-range part, and counts as
    in the range when the first has at most ``range_membership`` of G's
    norm; the criterion 1 + <theta H, range part> picks one of four kernel
    shapes, each verified against the solved kernel by subspace equality.
    G need not be normalized: the critical branches are unreachable for unit
    G by Cauchy-Schwarz.  The coordinate-space membership residuals are
    measured on the members Q A_Q^n e_i (n = 0..depth, at most six columns)
    of the frame's realization certificate, plus its bound on their
    distance to the reassembled coordinates.
    """
    theta, N = ms.theta, ms.N
    if backward_shift(H).norm() < 1e-8:
        raise ValueError("H must have a nonzero backward shift")
    if G.norm() < 1e-8:
        raise ValueError("G must be nonzero")
    split = decompose_against_theta(G, ms, tol_membership=range_membership)
    theta_h = theta.act(H).analytic_part().resized(N)
    ambient_sum = span_of(ms.as_subspace.basis_vectors() + [theta_h])
    kernel = kr.subspace
    correction_line: CoeffVec | None = None
    if split.in_range:
        criterion = 1.0 + inner_product(theta_h, G)
        if abs(criterion) <= CRITICAL_CRITERION:
            case = "in_range_critical"
            predicted = ambient_sum
        else:
            case = "in_range_noncritical"
            predicted = ms.as_subspace
    else:
        criterion = 1.0 + inner_product(theta_h, split.range_part)
        if abs(criterion) <= CRITICAL_CRITERION:
            case = "outside_range_critical"
            correction_line = split.model_part
        else:
            case = "outside_range_noncritical"
            correction_line = (split.model_part
                               + (np.conj(criterion) / H.norm_sq()) * theta_h)
        # the line lies inside the ambient sum
        predicted = ortho_complement_within(ambient_sum, span_of([correction_line]))
    _, eq_resid = subspace_equal(kernel, predicted)
    # projection of reproducing columns: closed form vs numerical projection
    theta0 = theta.fourier(0)
    proj_resid = 0.0
    for i in range(theta.m):
        col = reproducing_column(theta.m, N, i)
        vec = np.conj(theta0[i, :])
        correction = theta.act(CoeffVec(vec.reshape(theta.m, 1))).analytic_part().resized(N)
        formula = col - correction
        if case != "in_range_noncritical":
            formula = formula + (inner_product(col, theta_h) / theta_h.norm_sq()) * theta_h
        if correction_line is not None and correction_line.norm() > NEGLIGIBLE_NORM:
            formula = formula - (inner_product(col, correction_line)
                                 / correction_line.norm_sq()) * correction_line
        proj_resid = max(proj_resid, (project(col, kernel) - formula).norm())
    # coordinate-space membership residuals on kernel members
    if depth is None:
        depth = default_depth(N)
    membership: dict = {"ambient_sum": 0.0, "correction_orthogonality": 0.0,
                        "range_component": 0.0}
    defect_cands = [theta.act(backward_shift(H)).analytic_part().resized(N)]
    if not split.in_range:
        defect_cands.append(split.model_part)
    cands = flat_columns(defect_cands, kernel.m * N)
    reduced = cands - kernel.project_flat(cands)
    reduced = reduced[:, column_norms(reduced) > 1e-8]
    frame_span = column_span(reduced, (kernel.m, N), floor=1e-8) if reduced.shape[1] \
        else zero_space(kernel.m, N)
    frame = build_frame(kernel, defect, frame_span)
    cert = certify_representation(frame, depth)
    line = correction_line if correction_line is not None \
        and correction_line.norm() > NEGLIGIBLE_NORM else None
    # the members Q A_Q^n e_i; the reassembly of the coordinates of Q e_i
    # shifted back n times lies within ``gap`` of the n-th of them
    x = np.eye(kernel.dim, min(kernel.dim, 6))
    for n in range(depth + 1):
        R = kernel.basis @ x
        gap = cert.reconstruction if n == 0 else cert.invariance.residuals[n - 1]
        membership["ambient_sum"] = max(
            membership["ambient_sum"],
            float(np.max(column_norms(R - ambient_sum.project_flat(R)), initial=0.0))
            + gap)
        if line is not None:
            membership["correction_orthogonality"] = max(
                membership["correction_orthogonality"],
                float(np.max(np.abs(line.flatten().conj() @ R), initial=0.0))
                / line.norm() + gap)
        if case == "in_range_noncritical":
            membership["range_component"] = max(
                membership["range_component"],
                float(np.max(np.abs(theta_h.flatten().conj() @ R), initial=0.0))
                / theta_h.norm() + gap)
        x = cert.A @ x
    return ThetaStarReport(
        case=case, in_range=split.in_range, criterion=criterion,
        kernel=kernel, predicted_dim=predicted.dim,
        equality_residual=eq_resid, projection_formula_residual=proj_resid,
        membership_residuals=membership,
        details={"kernel_residual_max": kr.residual_max,
                 "model_dim": ms.as_subspace.dim,
                 "model_mass_of_G": split.model_mass,
                 "equality_tolerance": tol_equality,
                 "equality_ok": eq_resid <= tol_equality})
