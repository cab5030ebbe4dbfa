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
    #: min |det| on the closed disk for invertible analytic symbols
    invertibility_margin: float = 1e-6
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

#: degrees per block of the inverse-series recursion: one product with the
#: companion powers C^0..C^b advances b degrees.  Longer blocks lose accuracy
#: on factors nearly singular on the circle.  Residuals at K = 1023, degree
#: by degree / b = 8 / b = 32 / doubling with C^(2^k) by squaring:
#: (1 - 0.99z)^3, bound 4.4e-10: 4.5e-13 / 7.5e-11 / 1.1e-9 / 4.2e-5;
#: (1 - 0.999z)^2, bound 2.4e-10: 1.4e-14 / 1.8e-12 / 5.6e-12 / 7.8e-9;
#: (1 - 0.9z)^4, bound 6.8e-10: 5.7e-14 / 2.0e-11 / 1.6e-10 / 6.1e-8
SERIES_BLOCK = 8

#: norm below which a prediction column or a correction line counts as zero
NEGLIGIBLE_NORM = 1e-14

#: |1 + <candidate, G>| at or below which a rank-one criterion is critical
CRITICAL_CRITERION = 1e-8

#: a matrix product of the realization certificate runs over the exact
#: nonzeros of its factors when that takes fewer than 1 / SUPPORT_PRODUCT_FACTOR
#: of the dense count of scalar products, and on BLAS otherwise.  The support
#: product costs about 0.1 us per scalar product, so on random complex
#: patterns it broke even with OpenBLAS ZGEMM at 700-1000x fewer products
#: than dense, at dim 125, 253 and 509 (best of 5, 2-core x86 host)
SUPPORT_PRODUCT_FACTOR = 1024

#: a ``Subspace`` Gram check X^H X of fewer dense scalar products than this
#: stays on BLAS without counting X's nonzeros: the support route's fixed
#: cost of numpy calls, 0.1-0.5 ms, is more than ZGEMM takes for the whole
#: product below it (about 1.2 ns per scalar product on 128-1024 x 1-5
#: bases, 2-core x86 host)
GRAM_SUPPORT_MIN = 2 ** 18


def rank_threshold(shape: tuple[int, int], sigma_max: float,
                   rank_rel: float | None = None) -> float:
    """Singular-value cut for the given matrix shape.

    The default policy scales with the matrix size so that desk-scale
    problems keep a wide margin between genuine directions and roundoff.
    """
    if rank_rel is None:
        rank_rel = 1e-10 * max(shape)
    return rank_rel * sigma_max
