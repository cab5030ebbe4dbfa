"""Shared tolerance set.

Every numerical decision in the package (rank cuts, containment, membership,
orthonormality) is taken against an explicit tolerance.  Functions accept the
relevant tolerance as a keyword argument; this dataclass bundles the defaults
so that a scenario run can carry one coherent, reportable tolerance set.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    #: relative rank cut sigma <= rank_rel * sigma_max; None selects the
    #: size-aware policy 1e-10 * max(rows, cols)
    rank_rel: float | None = None
    #: max |Gram - I| entry allowed for a family declared orthonormal
    ortho: float = 1e-8
    #: unit-circle isometry deviation allowed for an inner symbol
    inner: float = 1e-8
    #: defect-into-prediction containment (series-inversion scenarios)
    containment: float = 1e-6
    #: defect-into-prediction containment (exact polynomial scenarios)
    containment_strict: float = 1e-8
    #: mutual-containment threshold defining subspace equality
    subspace_equality: float = 1e-8
    #: membership residual for reassembled coordinate vectors
    membership: float = 1e-6
    #: absolute singular-value floor below which defect directions are noise
    defect_floor: float = 1e-8
    #: reconstruction / isometry residual for coordinate extraction
    representation: float = 1e-8
    #: relative model-space mass below which a vector counts as in-range
    range_membership: float = 1e-8
    #: sigma-gap ratio above which a rank decision is flagged inconclusive
    sigma_ratio_flag: float = 1e-3

    def __post_init__(self):
        """Every tolerance is finite and >= 0, and a relative cut is at most 1:
        NaN decides nothing, a negative bound passes or fails everything, and
        a cut above the largest singular value keeps nothing by construction
        while its audit can still read clean."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "rank_rel":
                continue
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {f.name!r} must be finite and >= 0, got {value!r}")
        if self.rank_rel is not None and self.rank_rel > 1:
            raise ValueError(f"tolerance 'rank_rel' must be at most 1, got {self.rank_rel!r}")

    def to_json(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = Tolerances()

#: roundoff allowed in the coefficient identity sum_k Theta_k^H Theta_{k+j}
#: = delta_j I that admits a symbol to the structured inner and Theta*
#: kernel paths; a symbol that is inner only to a series tail stays dense.
#: It must stay below SUBSPACE_GRAM_BOUND: the range R = Theta P_{N-d} of
#: such a symbol is certified orthonormal by this identity alone
EXACT_INNER_ROUNDOFF = 1e-13

#: max |Q^H Q - I| entry allowed for the basis Q of a ``Subspace``
SUBSPACE_GRAM_BOUND = 1e-12

#: disagreement, relative to max(1, |image|), allowed between the banded
#: action of a perturbed operator and its coefficient-level product on a probe
FUNCTIONAL_FORM_PROBE = 1e-10

#: remainder norm at or below which Gram-Schmidt drops a column when it
#: builds a representation frame's value directions
GRAM_SCHMIDT_DROP = 1e-10

#: smallest reconstruction bound the representation check holds a
#: realization certificate to
REPRESENTATION_FLOOR = 1e-6

#: absolute floor of the origin-slice rank cut: the value rows of a unit
#: basis are bounded by one, and rows of pure roundoff must not fake rank
ORIGIN_SLICE_FLOOR = 1e-12

#: absolute singular-value floor of the two spans of an inner symbol's
#: prediction (shifted then compressed, compressed then shifted) compared
#: for equality
ALTERNATE_FORM_FLOOR = 1e-12

#: singular-value cut of ``ortho_complement_within``: M's orthonormal basis
#: projected off A inside M has singular values near 1 (M minus A) and near 0
COMPLEMENT_CUT = 0.5

#: window deviation (roundoff of exact polynomial products) at or below which
#: the brown_halmos check accepts T(Psi) T(Phi) = T(Psi Phi) under its hypothesis
BROWN_HALMOS_DEVIATION = 1e-10

#: residual max_j |(A B)_j - delta_j I|, relative to max(1, coefficient norm
#: of A), that a truncated inverse series B of an analytic A must meet
SERIES_INVERSION_RESIDUAL = 1e-10

#: highest degree K of the inverse series B_K that ``is_invertible_analytic``
#: tries (K = 63, 127, 255, ...).  Last K tried: 63 for diag(2 + z) and
#: diag(3 + z, 2 + z^2), 255 for (1 - 0.9z)^4, 2047 for (1 - 0.99z)^3,
#: 16383 for (1 - 0.999z)^2 (15 ms, one BLAS thread, 2-core x86 host), 1023
#: for a zero at 1.001; a zero at 0.94 e^{i pi/64} overflows at 8191 (15 ms)
#: and one at e^{i pi/64} refuses at the cap (55 ms)
INVERTIBILITY_DEGREE_CAP = 2 ** 15 - 1

#: degrees per block of the substitution (``symbols._substitute``) that
#: computes the inverse series and applies T_N(A)^{-1}, at most 64, the
#: length of the shortest certified series.  A block multiplies by the
#: explicit inverse T_b(A)^{-1}, whose roundoff grows with b on factors
#: nearly singular on the circle.  At b = 4 / 8 / 16 / 32 / 64 (one BLAS
#: thread, 2-core x86 host): the residual of the degree-1023 series of
#: (1 - 0.99z)^3, bound 4.4e-10, is 3.6e-11 / 1.7e-10 / 5.9e-10 / 1.7e-9 /
#: 6.9e-9; the worst backward residual |T_N(A) Y - X| / (l1(A) |Y|) of the
#: solve over diag(p, p), p = (1 - 0.9z)^4, (1 - 0.99z)^3, (1 - 0.999z)^2,
#: N = 512 and 4096, both directions, is 8.0e-16 / 2.6e-15 / 2.2e-14 /
#: 4.6e-14 / 9.0e-14; one such column at N = 4096 takes 2.5 / 1.7 / 1.0 /
#: 0.60 / 0.89 ms, and certifying (1 - 0.999z)^2 21 / 10 / 7.1 / 4.7 / 7.8 ms
SUBSTITUTION_BLOCK = 8

#: norm below which a prediction column or a correction line counts as zero
NEGLIGIBLE_NORM = 1e-14

#: |1 + <candidate, G>| at or below which a rank-one criterion is critical
CRITICAL_CRITERION = 1e-8


def rank_threshold(shape: tuple[int, int], sigma_max: float,
                   rank_rel: float | None = None) -> float:
    """Singular-value cut for the given matrix shape.

    The default policy scales with the matrix size so that desk-scale
    problems keep a wide margin between genuine directions and roundoff.
    """
    if rank_rel is None:
        rank_rel = 1e-10 * max(shape)
    return rank_rel * sigma_max
