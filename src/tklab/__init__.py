"""tklab: kernels of finite-rank-perturbed block Toeplitz compressions.

A desk-scale numerical workbench over truncated vector-valued Hardy space:
builds compressions of matrix-symbol multiplication operators and their
finite-rank perturbations, extracts kernels (inside a small candidate space
for the structured symbol classes, by dense SVD otherwise), measures how far
those kernels are from backward-shift invariance, constructs the predicted
defect spaces for each structured symbol class, and verifies the coordinate
representation of nearly invariant subspaces.
"""

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (CircleRootError, ContainmentError, DimensionMismatch,
                     FrameDeficientError, InconclusiveCutError, NotInnerError,
                     NotInvertibleError, OrthonormalityError, ScenarioParseError,
                     ScenarioValidationError, TKLabError)
from .hardy_core import (CoeffVec, LaurentVec, backward_shift, eval_at_zero,
                         forward_shift, inner_product, reproducing_column)
from .model_spaces import ModelSpace, build_model_space, decompose_against_theta
from .near_invariance import DefectReport, KernelResult, compute_defect, kernel_of
from .operators import (BrownHalmosReport, PerturbedToeplitz,
                        ToeplitzCompression, brown_halmos_check,
                        build_perturbed, orthonormalize_family)
from .representation import (RepresentationFrame, build_frame,
                             certify_representation,
                             rank_one_complement_analysis,
                             rank_one_inner_kernel,
                             rank_one_invertible_kernel,
                             rank_one_theta_star_analysis)
from .subspaces import (SigmaGap, Subspace, is_contained, nullspace,
                        ortho_complement_within, project, span_of, subspace_equal)
from .symbols import (InnerCheck, InvertibilityCheck, LaurentMatrixSymbol,
                      ScalarInnerOuterFactorization, blaschke_taylor,
                      invert_analytic, is_inner, is_invertible_analytic,
                      scalar_inner_outer)

__version__ = "0.1.0"
