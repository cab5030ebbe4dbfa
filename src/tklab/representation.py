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

One peeling step is linear.  ``certify_representation`` takes it once on
the whole orthonormal basis Q of M, on the rows and columns of Q that the
step reads (its active window), which realizes the coordinate space as
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
from numpy.lib.stride_tricks import sliding_window_view

from .config import (CRITICAL_CRITERION, DEFAULT_TOLERANCES, GRAM_SCHMIDT_DROP,
                     NEGLIGIBLE_NORM)
from .errors import DimensionMismatch, FrameDeficientError
from .hardy_core import (CoeffVec, backward_shift, column_vectors, eval_at_zero,
                         flat_columns, inner_product, reproducing_column)
from .model_spaces import ModelSpace, decompose_against_theta
# compute_defect is not called here; the benchmark's tracer pins this import
from .near_invariance import DefectReport, KernelResult, compute_defect  # noqa: F401
from .operators import orthonormalize_family
from .subspaces import (_NONE, Subspace, _dense, _LinkBlock, _overlap, _positions,
                        _product, _shift, _union, column_norms, column_span,
                        gram_schmidt, is_contained, ortho_complement_within, project,
                        span_of, subspace_equal)
from .symbols import apply_block_toeplitz, invert_analytic, solve_block_toeplitz


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
        overlap = _overlap(defect.basis, M.held)
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


def default_depth(N: int) -> int:
    """Each backward shift consumes usable degrees; past N/2 the check degenerates."""
    return min(8, N // 2)


# ---------------------------------------------------------------------------
# realization certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealizationCertificate:
    """One peeling step on the basis of M and the bounds it certifies.

    ``A`` (K x K, an array or links plus a block: multiply it through
    ``_product``) and ``C`` ((r + p) x K) realize the coordinates of the
    member Q x: its step-t coefficients are C A^t x.  Every bound holds for
    every unit member of M.
    """

    A: np.ndarray | _LinkBlock
    C: np.ndarray
    #: k with ||A^(2^k)||_F = contraction < 1/2
    squarings: int
    contraction: float
    reconstruction: float
    isometry: float
    invariance: InvarianceReport
    #: sizes of the exact nonzero supports J of D and J' of P
    support: tuple[int, int]
    #: size h of the head of A_Q that the squarings multiply: its block
    #: columns and the link chains its block rows reach (all of an array)
    head: int
    #: exact nonzero counts of A (its links plus its block's nonzero entries)
    #: and of its last power A^(2^squarings)
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
    nonzero = P != 0
    I, Jp = np.flatnonzero(nonzero.any(axis=1)), np.flatnonzero(nonzero.any(axis=0))
    PJ = P[I[:, None], Jp]
    d_norm = _norm2_hermitian(D[J[:, None], J])
    p_norm = math.sqrt(_norm2_hermitian(PJ.conj().T @ PJ))
    return d_norm, p_norm, J.size, Jp.size


def _shift_chains(A: _LinkBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Split the columns of a square A into links and a closed head.

    The links are A's own, A e_j = e_pi(j) without arithmetic.  The head is
    every other column, widened by each link that a block row of A reaches
    through a chain of links, so A maps the head's span into itself.
    Pointer doubling walks the chains in O(K log K).

    Returns the head (ascending column indices), the length t_j and head
    entry c_j (an index into the head) of each link chain that enters the
    head, A^t_j e_j = e_c_j, and the number of links whose chain never
    does, as it runs into a cycle of links.
    """
    K = A.shape[1]
    link = np.zeros(K, dtype=bool)
    link[A.link_cols] = True
    nxt = np.arange(K)
    nxt[A.link_cols] = A.link_rows
    rounds = K.bit_length()  # 2^rounds > K: past the longest chain
    if link[A.I].any():  # else no block row is a link that starts a chain
        reached = np.zeros(K, dtype=bool)
        reached[A.I] = True
        jump = nxt
        for _ in range(rounds):  # reached spans distances < 2^(round + 1)
            reached[jump[reached]] = True
            jump = jump[jump]
        link &= ~reached
    head = np.flatnonzero(~link)
    nxt[head] = head
    steps = link.astype(np.int64)
    for _ in range(rounds):  # steps[j] = min(2^round, distance to the head)
        steps = steps + steps[nxt]
        nxt = nxt[nxt]
    links = np.flatnonzero(link)
    enters = ~link[nxt[links]]
    return (head, steps[links[enters]], np.searchsorted(head, nxt[links[enters]]),
            int(np.count_nonzero(~enters)))


def _contraction(A: np.ndarray | _LinkBlock, max_steps: int) -> tuple[int, float, int, int]:
    """The least k with q = ||A^T||_F < 1/2, T = 2^k, from the powers of A's
    head block (see ``certify_representation``).

    Returns k, q, the exact nonzero count of A^T and the head size h.  An
    array A is taken whole as the head.  Raises ``FrameDeficientError`` if q
    is not finite or 2^(k+1) would pass ``max_steps`` before q < 1/2.
    """
    if isinstance(A, np.ndarray):
        head, power = np.arange(A.shape[1]), A
        lengths, entry, cycling = np.zeros(0, int), np.zeros(0, int), 0
    else:  # the head's principal block H
        head, lengths, entry, cycling = _shift_chains(A)
        power = _dense(A, head, head)
    # the stack holds H^i e_c for i < T, column i E + e for the e-th entry c
    entries = _union(head.size, entry)
    of_entry = _positions(entries, head.size)[entry]
    E = entries.size
    stack = np.zeros((head.size, E), dtype=complex)
    stack[entries, np.arange(E)] = 1.0
    longest = int(lengths.max(initial=0))
    squarings = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite q refuses
        # ||H^i||_F <= ||H||_F^i, so while T log ||H||_F < 300 every square
        # that q sums, at most K of them, stays below 1e270: q is finite
        growth = math.log(max(float(np.linalg.norm(power)), 1.0))
        while True:
            T = 2 ** squarings
            # a chain longer than T or a cycle leaves a unit column in A^T,
            # so a finite q is >= 1 and not read
            if not ((cycling or longest > T) and 2 * T <= max_steps
                    and T * growth < 300.0):
                live = lengths <= T
                weight = np.bincount((T - lengths[live]) * E + of_entry[live],
                                     minlength=T * E)
                unit_columns = int(lengths.size - np.count_nonzero(live)) + cycling
                q = math.hypot(float(np.linalg.norm(power)),
                               math.sqrt(weight @ column_norms(stack) ** 2 + unit_columns))
                if q < 0.5:
                    break
                if not np.isfinite(q) or 2 * T > max_steps:
                    raise FrameDeficientError(
                        f"one peeling step does not contract within {max_steps} steps "
                        f"(||A^{T}||_F = {q:.3e})")
            if E:
                stack = np.concatenate([stack, power @ stack], axis=1)
            power = power @ power
            squarings += 1
    nonzeros = (int(np.count_nonzero(power)) + int(weight @ np.count_nonzero(stack, axis=0))
                + unit_columns)
    return squarings, q, nonzeros, head.size


def _active_window(frame: RepresentationFrame
                   ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The rows and columns of M's held basis Q that the peeling step reads,
    and the passive link columns it maps without arithmetic (see
    ``certify_representation``).

    Returns the window's row count, its columns (ascending), the passive
    columns j and their links' columns j', A_Q e_j = e_j'.  An array basis
    is its own window.
    """
    M = frame.M
    m, rows, Q = M.m, M.m * M.N, M.held
    if isinstance(Q, np.ndarray):
        return rows, np.arange(M.dim), _NONE, _NONE
    last = max(int(Q.I[-1]) if Q.I.size else -1, _last_row(frame.W_matrix),
               _last_row(frame.E_matrix), m - 1)
    L = min(last + m + 1, rows)
    column_of = _positions(Q.link_rows, rows, Q.link_cols)
    lifted = Q.link_rows >= L
    passive = lifted.copy()
    passive[lifted] = column_of[Q.link_rows[lifted] - m] >= 0
    # a link past L that is not passive joins the window, and so does its row
    L = max(L, int(Q.link_rows[lifted != passive].max(initial=L - 1)) + 1)
    cols = np.ones(M.dim, dtype=bool)
    cols[Q.link_cols[passive]] = False
    return (L, np.flatnonzero(cols), Q.link_cols[passive],
            column_of[Q.link_rows[passive] - m])


def _last_row(X: np.ndarray) -> int:
    """The last row of X that holds a nonzero, -1 for none."""
    nonzero = np.flatnonzero(X)
    return int(nonzero[-1]) // X.shape[1] if nonzero.size else -1


def certify_representation(frame: RepresentationFrame, depth: int,
                           tol_rep: float = 1e-8,
                           max_steps: int | None = None) -> RealizationCertificate:
    """Certify the representation of all of M from one peeling step on its basis.

    The peeling step is linear: a member F yields its coefficients
    C F = [a; c] with a = pinv(W(0)) F(0), c = E^H S*(F - W a), and the
    remainder A F = S*(F - W a) - E c.  Taken once on the whole orthonormal
    basis Q of M (mN x K) it gives the K x K matrix A_Q = Q^H A Q and
    C_Q = C Q, and the coordinate space is the realization
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
    one.  Let J' be the nonzero columns of P and I' its nonzero rows; then
    P y = P[I', J'] y_J' on the rows I', so ||P||^2 = ||P[I', J']||^2 =
    lambda_max(P[I', J']^H P[I', J']).  Both are exact, not bounds.  On a
    dense basis J and J' hold every index and the computation is the K x K
    one; an empty support gives 0.  On the zero route's basis both supports
    stay at a few indices near the degrees G touches, whatever N.

    *The active window.*  Q is M's basis as it is held, an array or links
    plus one dense block (``_LinkBlock``): on the zero route its links are
    the unit columns e_j (j >= s) and its block the s-row head.  Let L be
    m + 1 plus the last row that Q's block, W, E or the value rows [0, m)
    touch.  A link column e_rho of Q with rho >= L whose row rho - m is again
    a link row, the link of column j', is *passive*: its step is exact.  As
    rho >= m its value is 0, so a = 0; W's row rho and E's row rho - m are
    zero, so F - W a = e_rho, S* e_rho = e_(rho-m) and c = 0.  So
    A_Q e_j = Q^H e_(rho-m) = e_j', C_Q e_j = 0, and as z e_(rho-m) = e_rho,
    P e_j = e_rho - z e_(rho-m) = 0.  Row j' of A_Q is row rho - m of the
    remainder, row rho of Q less zeros: e_j^T.  So A_Q^H A_Q e_j =
    (row j' of A_Q)^H = e_j, and row j of A_Q^H A_Q is row j' of A_Q, e_j^T:
    D e_j and D's row j are 0.  Passive columns add nothing to C_Q, P or D,
    and only their links to A_Q.  Every other column (the window's; a link
    past L that is not passive joins it, with its row) is supported on rows
    below L, the window's rows, and so are its remainder and its P column:
    S* lowers rows, and z lifts only E's rows and Q A_Q's, which lie at or
    below the last touched row.  So the step, A_Q, C_Q, P and D are dense
    products over the window's rows and columns, and A_Q is held as the
    passive links plus its window block, less the rows j', which are
    exactly zero there.  An array basis is its own window: the same numpy
    products run on all of it.  On the repr-large basis the window is 18
    rows and 15 columns at every N, and the passive links are all of Q's
    other columns (494 at dim = 509).

    *Contraction.*  k is the least with q = ||A_Q^T||_F < 1/2, T = 2^k; no
    eigenvalue is trusted, since the computed spectrum of a perturbed shift
    is a pseudospectral artifact.  ``_contraction`` finds it from A_Q's
    held form.  Its links map A_Q e_j = e_pi(j) without arithmetic.  The
    head is every other column, widened by each link that a row of A_Q's
    block reaches through a chain of links, so A_Q maps the head's
    coordinates into themselves:
    A_Q^s e_c = H^s e_c for every head column c, with H the h x h head
    block.  A link's chain either enters the head after t_j steps,
    A_Q^t_j e_j = e_c_j, or runs into a cycle of links and stays a unit
    vector.  Pointer doubling finds t_j and c_j in O(K log K).  Summed over
    the columns of A_Q^T,

        ||A_Q^T||_F^2 = ||H^T||_F^2 + sum_{t_j <= T} ||H^(T - t_j) e_c_j||^2
                        + #{links with t_j > T or no head entry},

    so each squaring multiplies only h x h blocks: it squares H^T and
    doubles the stack of H^i e_c (i < T, c a head entry) by H^T, and the
    exact nonzeros of A_Q^T are counted the same way.  While a chain longer
    than T or a cycle remains, its unit column keeps q >= 1, so q is not
    read at that T: the squarings fast-forward while ||H||_F^T bounds every
    square that q sums far below overflow, so q is finite; past that bound q
    is read, and refuses at the T where it always did.  A cycle never
    contracts.  An A_Q held
    as an array is the head itself (h = K) and is squared whole.  On the
    zero route's basis h = 15, A_Q's block columns, at every N of the
    repr-large workload.

    *Certificate.*  From A_Q^H A_Q = I - D - C_Q^H C_Q <= (1 + ||D||) I,
    ||A_Q^j|| <= c_T = (1 + ||D||)^(T/2) for j < T, and with t = sT + j,
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
    Raises ``FrameDeficientError`` if q is not finite, if 2^k would pass
    ``max_steps`` (default max(64 N, 4096)) or if the reconstruction bound
    exceeds ``tol_rep``.
    """
    M = frame.M
    m, N, K = M.m, M.N, M.dim
    if max_steps is None:
        max_steps = max(64 * N, 4096)
    rows, cols, passive, targets = _active_window(frame)
    held = M.held
    Q = held if isinstance(held, np.ndarray) else _dense(held, np.arange(rows), cols)
    W, E = frame.W_matrix[:rows], frame.E_matrix[:rows]
    # the peeling step on the window; P holds Q - W a until its update
    a = frame.value_pinv @ Q[:m]
    P = Q - W @ a
    R = np.zeros_like(P)
    R[:-m] = P[m:]  # S*
    c = E.conj().T @ R
    R -= E @ c
    A = Q.conj().T @ R
    C = np.concatenate([a, c], axis=0)
    Y = E @ C[frame.r:] + Q @ A
    P[m:] -= Y[:-m]
    D = np.eye(cols.size) - A.conj().T @ A - C.conj().T @ C
    d_norm, p_norm, d_support, p_support = _support_norms(D, P)
    nonzeros = int(np.count_nonzero(A)) + passive.size
    if not isinstance(held, np.ndarray):
        # the passive links plus the window block, less the rows of the
        # links' targets, which are zero there
        at = _positions(cols, K)[targets]
        kept = np.ones(cols.size, dtype=bool)
        kept[at[at >= 0]] = False
        A = _LinkBlock(targets, passive, cols[kept], cols, A[kept], (K, K))
        C_Q = np.zeros((C.shape[0], K), dtype=complex)
        C_Q[:, cols] = C
        C = C_Q
    squarings, q, power_nonzeros, head = _contraction(A, max_steps)
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
        support=(d_support, p_support), head=head,
        nonzeros=(nonzeros, power_nonzeros))


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
        x = _product(cert.A, x)
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


def _condition_residual(series: np.ndarray, data: np.ndarray, depth: int) -> float:
    """max over members and n = 0..depth of |sum_t <u_t, z^n data_t>|, the
    membership condition <K0, z^n G0> + <k1, z^n g> on the realized
    coordinates ``series`` (steps x rows x members) against the rows
    ``data`` (rows x N) of G0 and g, from one sliding-window contraction."""
    steps = series.shape[0]
    if not steps:
        return 0.0
    width = min(steps, data.shape[1])
    padded = np.zeros((steps + depth,) + series.shape[1:], dtype=complex)
    padded[:steps] = series
    # window n holds the coordinates at degrees n .. n + width - 1
    windows = sliding_window_view(padded, width, axis=0)[:depth + 1]
    totals = np.einsum("ntkw,tw->nk", windows, data[:, :width].conj())
    return float(np.max(np.abs(totals), initial=0.0))


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
    abs_sq = _analytic_part_of_correlation(corr, 0, N)  # P |G|^2
    # G0 row i = sum_t conj(C[i, t]) P(g_t - g_t(0) |G|^2)
    g0_rows = np.zeros((max(r, 1), N), dtype=complex)
    for i in range(r):
        for t in range(m):
            if C[i, t] == 0:
                continue
            term = G.coeffs[t].copy()
            term -= g0_vals[t] * abs_sq
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
    series = _realized_series(cert, M.coefficients(flat_columns(members, m * N)))
    coords = [(CoeffVec(series[:, :r, i].T) if r else None,
               CoeffVec(series[:, r, i][None, :])) for i in range(len(members))]
    cond_resid = _condition_residual(series, np.concatenate([G0.coeffs[:r], g.coeffs]),
                                     depth)
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


def _line_kernel(kr: KernelResult, G: CoeffVec, line: CoeffVec, admits_line: bool,
                 defect_candidates: list[CoeffVec], details: dict) -> RankOneKernelReport:
    """The kernel rule shared by the inner and F1*F2 rank-one analyses.

    T_Phi has a left inverse L on the window (T_{theta*} for an inner theta,
    T(F2^-1) T(F1*^-1) for invertible factors), and ``line`` is L H.  A
    kernel member F has F = -<F, G> L H, so <F, G> (1 + <L H, G>) = 0: the
    kernel is {0} unless the criterion 1 + <L H, G> vanishes, and then it is
    the line through L H, if the class admits it (``admits_line``).  The
    case is ``trivial_kernel`` when the criterion is not critical and the
    solved kernel ``kr`` is {0}, ``spanned_kernel`` when it is critical and
    the line is admitted, with the line's match to the solved kernel and
    the coordinate shape over the line's ``defect_candidates``, and
    ``unexpected`` otherwise.  ``details`` are the class's own values.
    """
    _unit_norm_check(G)
    criterion = 1.0 + inner_product(line, G)
    kernel = kr.subspace
    details = {"kernel_residual_max": kr.residual_max, **details}
    critical = abs(criterion) <= CRITICAL_CRITERION
    if critical and admits_line:
        _, resid = subspace_equal(kernel, span_of([line]))
        origin, cres = _one_dim_structure(kernel, line, defect_candidates)
        return RankOneKernelReport(case="spanned_kernel", criterion=criterion,
                                   kernel=kernel, expected_match_residual=resid,
                                   origin_case=origin, coordinate_residuals=cres,
                                   details=details)
    return RankOneKernelReport(
        case="trivial_kernel" if not critical and kernel.dim == 0 else "unexpected",
        criterion=criterion, kernel=kernel, expected_match_residual=None,
        origin_case=None, coordinate_residuals={}, details=details)


def rank_one_inner_kernel(kr: KernelResult, ms: ModelSpace, G: CoeffVec, H: CoeffVec,
                          range_membership: float = DEFAULT_TOLERANCES.range_membership
                          ) -> RankOneKernelReport:
    """Kernel of T_theta + <., G> H for an inner analytic symbol.

    ``kr`` is the operator's solved kernel, ``ms`` theta's certified model
    space.  The line is T_{theta*} H (``_line_kernel``); the class admits it
    when H lies in the shifted range of theta, to within the relative
    model-space mass ``range_membership``.
    """
    theta, N = ms.theta, ms.N
    if backward_shift(H).norm() < 1e-8:
        raise ValueError("H must have a nonzero backward shift")
    line = column_vectors(
        apply_block_toeplitz(theta.adjoint(), H.flatten()[:, None], N), H.m, N)[0]
    h_in_range = decompose_against_theta(H, ms, tol_membership=range_membership).in_range
    return _line_kernel(kr, G, line, h_in_range is None or h_in_range,
                        [backward_shift(line)],
                        {"h_in_shifted_range": h_in_range,
                         "inner_deviation": ms.inner_deviation})


def rank_one_invertible_kernel(kr: KernelResult, G: CoeffVec,
                               H: CoeffVec) -> RankOneKernelReport:
    """Kernel of T_{F1* F2} + <., G> H for invertible analytic factors.

    ``kr`` is the operator's kernel solved with the factors, and carries
    their invertibility certificates.  The line F2^{-1} T_{F1*^{-1}} H
    (``_line_kernel``; T_{F1* F2} is invertible, so the class always admits
    it) is assembled two ways: by substitution from the certificates
    (``symbols.solve_block_toeplitz``), and by the Cauchy product of
    T_{F1*^{-1}} H with the series F2^{-1} to degree N - 1
    (``invert_analytic``), the report's own oracle; their gap is reported.
    """
    if kr.factors is None:
        raise ValueError("the kernel was not solved with invertible factors")
    c1, c2 = kr.factors
    m, N = H.m, kr.subspace.N
    intermediate = solve_block_toeplitz(c1, H.flatten()[:, None], adjoint=True)
    # route one: substitution with F2
    line = column_vectors(solve_block_toeplitz(c2, intermediate), m, N)[0]
    # route two: direct Cauchy product of the coefficient sequences, entry by entry
    series = invert_analytic(c2.factor, N - 1).coefficient_stack(0, N - 1)
    rows = intermediate.reshape(N, m).T
    conv = np.array([sum(np.convolve(series[:, i, j], rows[j])[:N] for j in range(m))
                     for i in range(m)])
    candidate = solve_block_toeplitz(c2, _shift(intermediate, -m))
    return _line_kernel(
        kr, G, line, True, column_vectors(candidate, m, N),
        {"convolution_gap": float(np.linalg.norm(line.coeffs - conv))})


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
    frame = build_frame(kernel, defect, column_span(reduced, (kernel.m, N), floor=1e-8))
    cert = certify_representation(frame, depth)
    line = correction_line if correction_line is not None \
        and correction_line.norm() > NEGLIGIBLE_NORM else None
    # the members Q A_Q^n e_i; the reassembly of the coordinates of Q e_i
    # shifted back n times lies within ``gap`` of the n-th of them
    x = np.eye(kernel.dim, min(kernel.dim, 6))
    for n in range(depth + 1):
        R = _product(kernel.held, x)
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
        x = _product(cert.A, x)
    return ThetaStarReport(
        case=case, in_range=split.in_range, criterion=criterion,
        kernel=kernel, predicted_dim=predicted.dim,
        equality_residual=eq_resid, projection_formula_residual=proj_resid,
        membership_residuals=membership,
        details={"kernel_residual_max": kr.residual_max,
                 "model_dim": ms.as_subspace.dim,
                 "model_mass_of_G": split.model_mass})
