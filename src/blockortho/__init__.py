"""Block orthogonal polynomial bases from pairs of positive measures.

The package builds standard orthogonal polynomials from one measure,
block orthogonal polynomials from a measure pair via a two-step
Gram-Schmidt process, cross-validates every construction against closed
bordered-determinant formulas and integral representations, and solves the
three-subspace block-orthogonality existence problem.

Importing the package loads none of its modules: each public name is
resolved on first access (PEP 562 ``__getattr__``) from the module that
defines it, in the table ``_EXPORTS``, and is then bound here.  So a
command line run loads only the modules its command reaches.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "analysis": (
        "QuadratureGrid",
        "ZeroReport",
        "gauss_rule",
        "verify_p_integral",
        "verify_z_integral",
        "zero_report",
        "zero_reports",
    ),
    "block": (
        "GeneralBoBasis",
        "SboBasis",
        "build_general_bo",
        "build_sbo",
        "build_sbos",
        "cross_i_connection",
        "expand_x_times_p",
        "gamma_matrix",
        "monomial_connection",
        "normalize_sbo",
        "sbo_determinant_oracle",
        "sbo_parity_build",
    ),
    "errors": (
        "BadFactor",
        "BlockOrthoError",
        "CollapsedRule",
        "ConditioningError",
        "DegreeError",
        "DependentBasis",
        "DependentConstraints",
        "DimensionCap",
        "InsufficientMoments",
        "InsufficientNodes",
        "KindMismatch",
        "MeasureMismatch",
        "MomentError",
        "NonPositiveParameter",
        "NotCheckerboard",
        "NotPositiveDefinite",
        "NotRepresentable",
        "NotSymmetric",
        "OracleMismatch",
    ),
    "gso": ("OrthogonalizationResult", "checkerboard_det", "gram_schmidt"),
    "linalg": (),
    "measures": (
        "GramMatrix",
        "Measure",
        "MomentSequence",
        "hankel_matrix",
        "inner_product_mu",
        "load_moments_csv",
        "load_moments_json",
        "moments",
        "truncated_support",
    ),
    "multiblock": (
        "ThirdSubspaceSolution",
        "ThreeSubspaceProblem",
        "appendix_b_laguerre",
        "appendix_b_problem",
        "common_orthogonal_complement",
        "solve_third_subspace",
    ),
    "polynomials": ("Polynomial", "alternant_det", "monomial", "sign_changes_batch"),
    "projectors": ("ProjectorMatrix", "inner0", "projectors_from_q", "projectors_from_second"),
    "scalars": (),
    "standard": (
        "DET_NORMALIZED",
        "MONIC",
        "ORTHONORMAL",
        "StandardBasis",
        "build_by_recurrence",
        "build_standard",
        "parity_split_build",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def laguerre_pair(z=1):
    """The gamma-family pair with decay rates 1 and 2 and shared power z-1."""
    from .measures import Measure

    return Measure.gamma_weight(1, z), Measure.gamma_weight(2, z)


def __getattr__(name):
    if name == "hermite_pair":
        from .measures import Measure

        value = (Measure.gaussian(1), Measure.gaussian(2))
    elif name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = sorted([*_EXPORTS, *_MODULE_OF, "hermite_pair", "laguerre_pair"])
