"""Numerical curvature engine for implicit hypersurfaces and Finsler indicatrices.

Computes shape operators and mean curvature of level sets from the
Hessian of the defining function (hyper-dual derivatives, with a
finite-difference Weingarten oracle as an independent cross-check), and
verifies over a catalog of Minkowski norms that the indicatrix has
constant mean curvature 1 and metric-Hessian trace equal to the ambient
dimension.
"""

from .autodiff import Dual, HyperDual, ScalarField, fd_grad_hess, grad_hess, gradients
from .exceptions import (
    DimensionMismatch,
    DomainViolation,
    FinslerError,
    InvalidParams,
    NotPositiveDefinite,
    NotUnit,
    OffSurface,
    RejectionOverflow,
    UsageError,
    VanishingGradient,
)
from .hypersurface import (
    DefiningEvaluation,
    OrientedNormal,
    ShapeOperatorMatrix,
    evaluate_defining,
    mean_curvature_trace,
    shape_operator,
    unit_normal,
    weingarten_oracle,
)
from .indicatrix import (
    CurvatureReport,
    IndicatrixPoint,
    VerificationSummary,
    adapted_report,
    adapted_reports,
    defining_field,
    indicatrix_point,
    normalize_to_indicatrix,
    sample_indicatrix,
    verify_claims,
)
from .metrics import (
    FundamentalFunction,
    MetricTensor,
    check_homogeneity,
    eval_F,
    euclidean,
    metric_tensor,
    mroot,
    parse_metric_spec,
    pnorm,
    quadratic,
    randers,
)
from .numkernel import (
    TangentFrame,
    cholesky,
    complete_frame,
    projected_trace,
    quadratic_form,
    trace_reduction,
)

__version__ = "0.1.0"
