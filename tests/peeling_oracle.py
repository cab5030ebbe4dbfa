"""The member peeler: the realization certificate's test oracle.

``peel_step`` takes one peeling step on flat columns with BLAS products;
``peel_members`` iterates it on given members, each column until its own
tail floor, and reassembles the series in one Horner pass
acc <- z (acc + E c_t) + W a_t from the top step down.  Its state after
step n is the reassembly R_n of the coordinates backward-shifted n times,
so the pass yields the reconstruction (n = 0) and every shifted reassembly
the invariance residuals need (n = 1..depth).  The package reads
coordinates from the certificate alone; the tests hold its series and bounds
against what this engine measures member by member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tklab.errors import DimensionMismatch, FrameDeficientError
from tklab.hardy_core import CoeffVec
from tklab.representation import InvarianceReport, RepresentationFrame
from tklab.subspaces import column_norms


def peel_step(frame: RepresentationFrame, X: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One peeling step on the flat columns of X (mN x K): the coefficients
    C X = [a; c] ((r + p) x K) with a = pinv(W(0)) X(0) and
    c = E^H S*(X - W a), the remainders A X = S*(X - W a) - E c and the
    value-map residuals X - W a."""
    m, E = frame.M.m, frame.E_matrix
    a = frame.value_pinv @ X[:m]
    V = X - frame.W_matrix @ a
    R = np.zeros_like(V)
    R[:-m] = V[m:]  # S*: the backward shift of every flat column
    c = E.conj().T @ R
    R -= E @ c
    return np.concatenate([a, c], axis=0), R, V


@dataclass
class Coordinates:
    """Extracted coordinate functions with their quality measures."""

    K0: CoeffVec | None
    k: tuple[CoeffVec, ...]
    reconstruction_residual: float
    isometry_gap: float
    source_norm: float


@dataclass
class Peeling:
    """Coordinates of a batch of members from one peeling run."""

    frame: RepresentationFrame
    #: steps x (r + p) x K: step t of member i is series[t, :, i] (K0 block,
    #: then k block), zero past the member's own length
    series: np.ndarray
    lengths: np.ndarray
    #: (depth + 1) x mN x K: R_n, the reassembly of the coordinates
    #: backward-shifted n times; R_0 reconstructs the members
    reassemblies: np.ndarray
    source_norms: np.ndarray
    reconstruction_residuals: np.ndarray
    isometry_gaps: np.ndarray
    invariance: InvarianceReport

    def coordinates(self, i: int) -> Coordinates:
        """The coordinate functions of input member i."""
        r, p = self.frame.r, self.frame.p
        n = int(self.lengths[i])
        arr = np.zeros((max(n, 1), r + p), dtype=complex)
        arr[:n] = self.series[:n, :, i]
        return Coordinates(
            K0=CoeffVec(arr[:, :r].T) if r else None,
            k=tuple(CoeffVec(arr[:, r + j][None, :]) for j in range(p)),
            reconstruction_residual=float(self.reconstruction_residuals[i]),
            isometry_gap=float(self.isometry_gaps[i]),
            source_norm=float(self.source_norms[i]))


def peel_members(F: np.ndarray, frame: RepresentationFrame,
                 max_steps: int | None = None,
                 depth: int = 0) -> Peeling:
    """Peel the coordinate functions of every column of an mN x K member matrix.

    The peeled remainder lives inside the same degree window at every step,
    so the recursion can run past the window length: coordinate functions
    are generally infinite series even for polynomial members, and each
    column is peeled until its tail (the unrepresented remainder mass) drops
    below 1e-10 times its norm or max_steps is hit.  The remainder enters
    the reported isometry gap, so a slowly converging frame is visible, never
    hidden.  With depth > 0 the same reassembly pass also measures the
    coordinate-space invariance residuals at shifts 1..depth, relative to
    each member's norm.

    Raises if a column is no M-member to 1e-6 of its norm or the frame cannot
    reconstruct it to 1e-8 (a deficient defect frame or missing headroom).
    """
    M = frame.M
    m, N = M.m, M.N
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[0] != m * N:
        raise DimensionMismatch(f"member matrix shape {F.shape} vs ambient {m}*{N}")
    norms = column_norms(F)
    scale = np.maximum(norms, 1e-300)
    member = column_norms(F - M.project_flat(F))
    bad = member > 1e-6 * scale
    if bad.any():
        raise ValueError(
            f"vector is not a member of the subspace (residual {member[bad].max():.3e})")
    if max_steps is None:
        max_steps = max(64 * N, 4096)
    K = F.shape[1]
    floors = 1e-10 * scale
    alive, X = np.arange(K), F
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(max_steps):
        live = column_norms(X) > floors[alive]
        if not live.all():
            alive, X = alive[live], X[:, live]
        if not alive.size:
            break
        coef, X, _ = peel_step(frame, X)
        steps.append((alive, coef))
    series = np.zeros((len(steps), frame.r + frame.p, K), dtype=complex)
    lengths = np.zeros(K, dtype=int)
    for t, (alive, coef) in enumerate(steps):
        series[t][:, alive] = coef
        lengths[alive] += 1
    reassemblies = _reassemble(frame, series, depth)
    recon = column_norms(reassemblies[0] - F)
    bad = recon > 1e-8 * scale
    if bad.any():
        raise FrameDeficientError(
            f"frame cannot reconstruct the member (residual {recon[bad].max():.3e})")
    invariance = InvarianceReport(depth=depth, residuals=tuple(
        float(np.max(column_norms(R - M.project_flat(R)) / scale, initial=0.0))
        for R in reassemblies[1:]))
    coord_sq = np.sum(series.real ** 2 + series.imag ** 2, axis=(0, 1))
    return Peeling(frame=frame, series=series, lengths=lengths,
                   reassemblies=reassemblies, source_norms=norms,
                   reconstruction_residuals=recon,
                   isometry_gaps=np.abs(norms ** 2 - coord_sq),
                   invariance=invariance)


def _reassemble(frame: RepresentationFrame, series: np.ndarray,
                depth: int) -> np.ndarray:
    """R_0..R_depth of a series by the Horner step R_t = z (R_{t+1} + E c_t) + W a_t.

    z is the truncating forward shift, so step t reaches no R_n with
    t - n >= N and the pass starts at step N + depth - 1 at the latest.
    """
    m, N = frame.M.m, frame.M.N
    r = frame.r
    W, E = frame.W_matrix, frame.E_matrix
    out = np.zeros((depth + 1, m * N, series.shape[2]), dtype=complex)
    acc = np.zeros(out.shape[1:], dtype=complex)
    for t in range(min(len(series), N + depth) - 1, -1, -1):
        acc += E @ series[t, r:]
        acc[m:] = acc[:-m].copy()
        acc[:m] = 0.0
        acc += W @ series[t, :r]
        if t <= depth:
            out[t] = acc
    return out
