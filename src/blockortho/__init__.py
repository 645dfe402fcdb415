"""Block orthogonal polynomial bases from pairs of positive measures.

The package builds standard orthogonal polynomials from one measure,
block orthogonal polynomials from a measure pair via a two-step
Gram-Schmidt process, cross-validates every construction against closed
bordered-determinant formulas and integral representations, and solves the
three-subspace block-orthogonality existence problem.
"""

from .analysis import (
    QuadratureGrid,
    ZeroReport,
    gauss_rule,
    verify_p_integral,
    verify_z_integral,
    zero_report,
    zero_reports,
)
from .block import (
    GeneralBoBasis,
    SboBasis,
    build_general_bo,
    build_sbo,
    build_sbos,
    cross_i_connection,
    expand_x_times_p,
    gamma_matrix,
    monomial_connection,
    normalize_sbo,
    sbo_determinant_oracle,
    sbo_parity_build,
)
from .errors import (
    BadFactor,
    BlockOrthoError,
    CollapsedRule,
    ConditioningError,
    DegreeError,
    DependentBasis,
    DependentConstraints,
    DimensionCap,
    InsufficientMoments,
    InsufficientNodes,
    KindMismatch,
    MeasureMismatch,
    MomentError,
    NonPositiveParameter,
    NotCheckerboard,
    NotPositiveDefinite,
    NotRepresentable,
    NotSymmetric,
    OracleMismatch,
)
from .gso import (
    OrthogonalizationResult,
    checkerboard_det,
    gram_schmidt,
)
from .measures import (
    GramMatrix,
    Measure,
    MomentSequence,
    hankel_matrix,
    inner_product_mu,
    load_moments_csv,
    load_moments_json,
    moments,
    truncated_support,
)
from .multiblock import (
    ThirdSubspaceSolution,
    ThreeSubspaceProblem,
    appendix_b_laguerre,
    appendix_b_problem,
    common_orthogonal_complement,
    solve_third_subspace,
)
from .polynomials import (
    Polynomial,
    alternant_det,
    monomial,
    sign_changes_batch,
)
from .projectors import (
    ProjectorMatrix,
    inner0,
    projectors_from_q,
    projectors_from_second,
)
from .standard import (
    DET_NORMALIZED,
    MONIC,
    ORTHONORMAL,
    StandardBasis,
    build_by_recurrence,
    build_standard,
    parity_split_build,
)

hermite_pair = (Measure.gaussian(1), Measure.gaussian(2))


def laguerre_pair(z=1):
    """The gamma-family pair with decay rates 1 and 2 and shared power z-1."""
    return Measure.gamma_weight(1, z), Measure.gamma_weight(2, z)


__all__ = [name for name in dir() if not name.startswith("_")]
