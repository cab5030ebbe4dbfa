"""The degree-by-degree inverse series: the test oracle of ``invert_analytic``.

``invert_sequential`` is the recursion B_0 = A_0^{-1}, B_j = -A_0^{-1}
sum_{t=1..min(j,d)} A_t B_{j-t} run one degree and one power at a time, with
its residual check.  Each B_j is solved from the identity (A B)_j = 0 itself,
so A B - I vanishes on degrees <= K up to the roundoff of one step.  The
package advances the same recursion a block of degrees per product; the
tests hold its series against this one.
"""

from __future__ import annotations

import numpy as np

from tklab.errors import NotInvertibleError
from tklab.symbols import LaurentMatrixSymbol


def invert_sequential(A: LaurentMatrixSymbol, K: int) -> LaurentMatrixSymbol:
    """Degree-K Taylor truncation of A(z)^{-1} by coefficient recursion."""
    if not A.is_analytic():
        raise ValueError("series inversion is defined for analytic symbols only")
    m, d = A.m, A.d
    A0 = A.fourier(0)
    if abs(np.linalg.det(A0)) < np.finfo(float).eps * max(1.0, np.linalg.norm(A0)) ** m:
        raise NotInvertibleError("constant coefficient is singular")
    A0_inv = np.linalg.inv(A0)
    coeffs = [A.fourier(t) for t in range(d + 1)]
    B = np.zeros((K + 1, m, m), dtype=complex)
    B[0] = A0_inv
    for j in range(1, K + 1):
        acc = np.zeros((m, m), dtype=complex)
        for t in range(1, min(j, d) + 1):
            acc += coeffs[t] @ B[j - t]
        B[j] = -A0_inv @ acc
    resid = sequential_residual(coeffs, B, K)
    if resid > 1e-10 * max(1.0, A.coefficient_norm()):
        raise NotInvertibleError(f"inversion residual {resid:.3e} exceeds tolerance")
    return LaurentMatrixSymbol(m, dict(enumerate(B)))


def sequential_residual(coeffs: list[np.ndarray], B: np.ndarray, K: int) -> float:
    """max |(A B)_j - delta_j I| over j <= K - d, with A's coefficients listed."""
    top = max(K - len(coeffs) + 1, 0) + 1
    prod = np.zeros((top, B.shape[1], B.shape[2]), dtype=complex)
    for t, mat in enumerate(coeffs[:top]):
        prod[t:] += mat @ B[:top - t]
    prod[0] -= np.eye(B.shape[1])
    return float(np.max(np.abs(prod)))
