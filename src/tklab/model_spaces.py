"""Model spaces K = H^2 minus Theta H^2 at truncation, and range splitting.

The truncated model space is computed as the kernel of the compression of
Theta*, which is exact on polynomials because Theta* has no positive powers:
nothing gets flushed past the degree window.  For an exactly inner Theta the
columns of R = Theta P_{N-d} are orthonormal, certified by the coefficient
identity without forming R, and the kernel is solved inside R's
md-dimensional complement, which contains it, from the banded compression.
A Theta that is inner only to a series tail gets the dense SVD nullspace; so
does the kernel of an exactly inner Theta whose cut the certified gap of
``nullspace_within`` cannot settle.  Two independent projections
(kernel-basis and multiply-project-multiply) are cross-checked on every
build; a disagreement aborts, since silent truncation bugs here would poison
every downstream defect computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveCutError, NotInnerError
from .hardy_core import CoeffVec
from .operators import ToeplitzCompression, range_complement
from .subspaces import Subspace, nullspace, nullspace_within, project
from .symbols import LaurentMatrixSymbol, is_exactly_inner, is_inner


@dataclass(frozen=True)
class ModelSpace:
    theta: LaurentMatrixSymbol
    N: int
    as_subspace: Subspace
    inner_deviation: float

    @property
    def m(self) -> int:
        return self.theta.m

    @property
    def interior(self) -> int:
        return self.N - self.theta.d


def build_model_space(theta: LaurentMatrixSymbol, N: int,
                      tol_inner: float = 1e-8,
                      tol_rel: float | None = None) -> ModelSpace:
    """Construct the truncated model space of an analytic inner symbol.

    The innerness (``is_inner``, negative powers refused) and N > d guards
    come first.  For an exactly inner Theta neither R = Theta P_{N-d} nor a
    dense compression is formed.  R maps P_{N-d} into P_N without truncation
    (degree < N - d times degree <= d stays below N), so block (s, t) of
    R^H R is sum_r Theta_{r-s}^H Theta_{r-t} over every r, that is
    sum_k Theta_k^H Theta_{k+s-t}: R^H R = T_{N-d}(Theta* Theta) exactly, and
    R^H R - I has the blocks D_{s-t}, D_j = sum_k Theta_k^H Theta_{k+j}
    - delta_{j0} I, for |s - t| <= min(d, N - d - 1).  So max |R^H R - I|
    is at most the coefficient deviation max_j max |D_j|
    (``inner_coefficient_deviation``), which ``is_exactly_inner`` holds to
    EXACT_INNER_ROUNDOFF, below the ``Subspace`` bound SUBSPACE_GRAM_BOUND:
    R is an isometry to that bound without being formed, and the model space
    is solved inside its md-dimensional complement (``range_complement``).
    A cut that the certified gap of ``nullspace_within`` cannot settle is
    decided by the dense SVD of the compression, as in ``kernel_of``; a cut
    that leaves every direction null raises ``InconclusiveCutError``.
    """
    check = is_inner(theta, tol=tol_inner)
    if not check.ok:
        raise NotInnerError(f"symbol is not inner (deviation {check.max_deviation:.3e})")
    m, d = theta.m, theta.d
    if N <= d:
        raise NotInnerError(f"truncation N={N} must exceed the symbol degree {d}")
    comp = ToeplitzCompression(theta.adjoint(), N)
    if is_exactly_inner(theta):
        # R has orthonormal columns and the model space ker C^H lies in R^perp
        # (the Theta* case of kernel_of with no bump)
        Z = range_complement(theta, N)
        model = nullspace_within(comp, Z, theta.coefficient_l1_norm(), 1.0, tol_rel=tol_rel)
        if model is None:  # a cut the certificate cannot settle: decide densely
            model = nullspace(comp.matrix, (m, N), tol_rel=tol_rel)
    else:
        model = nullspace(comp.matrix, (m, N), tol_rel=tol_rel)
    if model.dim == m * N:
        # the compression of a nonzero Theta* is nonzero: a cut that leaves
        # every direction null decides nothing, and the cross-check would
        # only measure that
        raise InconclusiveCutError(
            f"model-space rank cut {model.tol:.3e} is at or above the largest "
            f"singular value of the compression of Theta*")

    ms = ModelSpace(theta=theta, N=N, as_subspace=model,
                    inner_deviation=check.max_deviation)
    _cross_check_projections(ms)
    return ms


def _cross_check_projections(ms: ModelSpace) -> None:
    """Compare kernel-basis projection with the multiply-project-multiply form.

    Probes are interior-supported monomials, where both constructions are
    exact; a mismatch indicates an assembly bug, not a truncation effect.
    """
    m, N = ms.m, ms.N
    probes = min(ms.interior, 4)
    worst = 0.0
    for j in range(probes):
        for i in range(m):
            F = CoeffVec.monomial(m, N, i, j)
            a = project(F, ms.as_subspace)
            b = project_onto_model_formula(F, ms)
            keep = ms.interior
            worst = max(worst, float(np.linalg.norm(
                a.coeffs[:, :keep] - b.coeffs[:, :keep])))
    if worst > 1e-8:
        raise AssertionError(
            f"model-space projections disagree by {worst:.3e} on the interior window")


def project_onto_model_formula(F: CoeffVec, ms: ModelSpace) -> CoeffVec:
    """F - Theta P_+(Theta* F) in truncated coefficients."""
    inner_part = ms.theta.adjoint().act(F).analytic_part().resized(F.N)
    back = ms.theta.act(inner_part).analytic_part().resized(F.N)
    return F - back


@dataclass(frozen=True)
class RangeSplit:
    """G = model_part + range_part with the membership verdict for the range."""

    model_part: CoeffVec
    range_part: CoeffVec
    in_range: bool
    model_mass: float


def decompose_against_theta(G: CoeffVec, ms: ModelSpace,
                            tol_membership: float = 1e-8) -> RangeSplit:
    """Split G into its model-space part and its Theta H^2 remainder.

    The verdict ``in_range`` is True when the model-space mass falls below
    tol_membership relative to |G|.
    """
    g_model = project(G, ms.as_subspace)
    g_range = G - g_model
    mass = g_model.norm()
    return RangeSplit(model_part=g_model, range_part=g_range,
                      in_range=mass <= tol_membership * max(G.norm(), 1e-300),
                      model_mass=mass)

