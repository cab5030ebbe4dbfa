"""Dense oracles of the zero-symbol route and the realization certificate.

``dense_zero_kernel`` solves the zero symbol's kernel from the complete
mN x mN QR of G and holds the basis as an mN x K array; ``dense_certificate``
takes the peeling step (``peeling_oracle.peel_step``) with BLAS products on
M's dense basis and forms the one-step isometry defect D (K x K) and the
one-step residual P (mN x K) in full.  The package holds the kernel as links
plus one block and takes the certificate's products on the held basis's
active window only; the tests hold it to these forms.
"""

from __future__ import annotations

import math

import numpy as np

from tklab.config import rank_threshold
from tklab.errors import FrameDeficientError
from tklab.near_invariance import _bump_norm
from tklab.operators import PerturbedToeplitz
from tklab.representation import RepresentationFrame, _support_norms
from tklab.subspaces import SigmaGap, Subspace

from peeling_oracle import peel_step


def dense_zero_kernel(T: PerturbedToeplitz, tol_rel: float | None = None
                      ) -> tuple[Subspace, np.ndarray, np.ndarray]:
    """Kernel K of A = H G^H (n < mN) as an mN x K array, the basis U of its
    orthocomplement and the image A K, from the complete QR G = Q R_G: K is
    Q[:, n:] together with Q[:, :n] v over the singular values of the core
    R_H R_G[:n]^H = u s v^H at or below the dense path's cut."""
    G, H, n = T.G_matrix, T.H_matrix, T.rank
    Q, R_G = np.linalg.qr(G, mode="complete")
    R_H = np.linalg.qr(H, mode="r")
    _, s, vh = np.linalg.svd(R_H @ R_G[:n].conj().T)
    thresh = rank_threshold(T.action_shape, float(s[0]) if n else 0.0, tol_rel)
    rank = int(np.sum(s > thresh))
    V = Q[:, :n] @ vh.conj().T
    basis = np.concatenate([Q[:, n:], V[:, rank:]], axis=1)
    image = T.apply_action(basis)
    signal = None
    if rank:
        signal = (float(s[rank - 1])
                  - max(T.action_shape) * np.finfo(float).eps * _bump_norm(G, H))
    gap = SigmaGap(float(np.linalg.norm(image)), signal)
    return Subspace(T.m, T.N, basis, thresh, gap), V[:, :rank], image


def dense_certificate(frame: RepresentationFrame, depth: int) -> dict:
    """The realization certificate with every product on BLAS, on M's dense
    basis, and D and P formed in full; its keys name the certificate's
    fields, plus the last power A^(2^k) (``power``)."""
    M = frame.M
    m, N = M.m, M.N
    Q = M.basis
    max_steps = max(64 * N, 4096)
    C, R, P = peel_step(frame, Q)
    A = Q.conj().T @ R
    Y = frame.E_matrix @ C[frame.r:] + Q @ A
    P[m:] -= Y[:-m]
    d_norm, p_norm, d_support, p_support = _support_norms(
        np.eye(M.dim) - A.conj().T @ A - C.conj().T @ C, P)
    power, squarings = A, 0
    q = float(np.linalg.norm(power))
    while not q < 0.5:
        if not np.isfinite(q) or 2 ** (squarings + 1) > max_steps:
            raise FrameDeficientError(f"no contraction within {max_steps} steps")
        power = power @ power
        squarings += 1
        q = float(np.linalg.norm(power))
    T = 2 ** squarings
    c_T = math.exp(min(0.5 * T * math.log1p(d_norm), 700.0))
    recon = p_norm * T * c_T / (1.0 - q)
    return {"A": A, "C": C, "power": power, "squarings": squarings, "contraction": q,
            "reconstruction": recon, "isometry": d_norm * T * c_T * c_T / (1.0 - q * q),
            "invariance": tuple(recon * (1.0 + d_norm) ** (n / 2)
                                for n in range(1, depth + 1)),
            "support": (d_support, p_support)}
