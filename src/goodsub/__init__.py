"""Best-conditioned square row blocks of orthonormal frames.

Every n-by-k matrix with orthonormal columns contains a k-by-k block of
rows whose smallest singular value is bounded away from zero; the
conjectured uniform floor is 1/sqrt(n), attained at n = 4, k = 2 with
value 1/2.  This package selects the best block exhaustively, searches
for worst-case frames by multistart descent, and certifies each step of
the 4-by-2 sharpness argument numerically.
"""

from .certify import (
    CertificateReport,
    CertifyConfig,
    CheckResult,
    check_boundary_lemma,
    check_ellipse_region,
    check_extremal_matrix,
    check_feasible_point,
    check_implications,
    check_transform_bound,
    ellipse_lhs,
    implication_margins,
    run_all,
    squared_sine_sum,
    transform_form_max,
)
from .cli import dispatch, figure_eq3_data, main
from .csdecomp import CSFactors, cs_decompose, minors_from_cs
from .exceptions import (
    DimensionError,
    EnumerationCapExceeded,
    GoodsubError,
    NegativeComponent,
    RankDeficient,
)
from .pluecker import (
    EllipticParams,
    PlueckerCoords,
    SystemReport,
    TransformedVars,
    elliptic_pair,
    elliptic_params,
    eq3_sums,
    eval_system,
    from_elliptic,
    from_transformed,
    invariant_residuals,
    nonnegative_representative,
    pluecker4x2,
    to_transformed,
)
from .serialize import dumps, format_float
from .stiefel import (
    StiefelMatrix,
    SubmatrixReport,
    best_submatrix,
    block_sigmas,
    extremal_matrix,
    format_matrix,
    gram_deviation,
    haar_sample,
    load_matrix,
    orthonormalize,
    parse_matrix,
    principal_angle,
    row_subsets,
    save_matrix,
    sigma_min,
)
from .worstcase import (
    SearchParams,
    WorstCaseResult,
    local_descent,
    multistart_search,
    objective,
)

__version__ = "0.1.0"

__all__ = [
    "CSFactors",
    "CertificateReport",
    "CertifyConfig",
    "CheckResult",
    "DimensionError",
    "EllipticParams",
    "EnumerationCapExceeded",
    "GoodsubError",
    "NegativeComponent",
    "PlueckerCoords",
    "RankDeficient",
    "SearchParams",
    "StiefelMatrix",
    "SubmatrixReport",
    "SystemReport",
    "TransformedVars",
    "WorstCaseResult",
    "best_submatrix",
    "block_sigmas",
    "check_boundary_lemma",
    "check_ellipse_region",
    "check_extremal_matrix",
    "check_feasible_point",
    "check_implications",
    "check_transform_bound",
    "cs_decompose",
    "dispatch",
    "dumps",
    "ellipse_lhs",
    "elliptic_pair",
    "elliptic_params",
    "eq3_sums",
    "eval_system",
    "extremal_matrix",
    "figure_eq3_data",
    "format_float",
    "format_matrix",
    "from_elliptic",
    "from_transformed",
    "gram_deviation",
    "haar_sample",
    "implication_margins",
    "invariant_residuals",
    "load_matrix",
    "local_descent",
    "main",
    "minors_from_cs",
    "multistart_search",
    "nonnegative_representative",
    "objective",
    "orthonormalize",
    "parse_matrix",
    "pluecker4x2",
    "principal_angle",
    "row_subsets",
    "run_all",
    "save_matrix",
    "sigma_min",
    "squared_sine_sum",
    "to_transformed",
    "transform_form_max",
]
