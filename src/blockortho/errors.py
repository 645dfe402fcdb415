"""Exception types shared across the package.

The errors a build can raise part-way carry where it stopped: ``stage``
names the construction stage (``"first_stage"``, ``"second_stage"`` or
``"moments"``) and ``degree`` the polynomial degree that failed; the
conditioning gate's refusal carries the measured ``condition`` and the
``limit`` it exceeded.  Each is None where it does not apply.
"""

from contextlib import contextmanager


class BlockOrthoError(Exception):
    """Base class for every error raised by this package."""


class MomentError(BlockOrthoError):
    """A moment evaluated to something non-finite (divergent weight or quadrature)."""


class InsufficientMoments(BlockOrthoError):
    """An operation needs moments of higher order than the measure supplies."""


class KindMismatch(BlockOrthoError):
    """Exact-rational and float scalars were mixed in one operation."""


class DegreeError(BlockOrthoError):
    """A polynomial does not have the exact degree an operation requires."""


class NotPositiveDefinite(BlockOrthoError):
    """A Gram matrix failed positive definiteness (nonpositive or negligible pivot)."""

    def __init__(self, message, stage=None, degree=None):
        super().__init__(message)
        self.stage = stage
        self.degree = degree


class BadFactor(BlockOrthoError):
    """A leading factor for orthogonalization is zero or not finite."""


class NotCheckerboard(BlockOrthoError):
    """A matrix violates the required even/odd sparsity structure."""


class NotSymmetric(BlockOrthoError):
    """A symmetric measure was required but not supplied."""


class NotRepresentable(BlockOrthoError):
    """The requested normalization needs square roots that leave the rationals."""


class ConditioningError(BlockOrthoError):
    """A float pipeline was refused because conditioning would destroy accuracy."""

    def __init__(self, message, stage=None, condition=None, limit=None):
        super().__init__(message)
        self.stage = stage
        self.condition = condition
        self.limit = limit


class DependentConstraints(BlockOrthoError):
    """Constraint polynomials are linearly dependent."""


class DependentBasis(BlockOrthoError):
    """Supplied basis polynomials are linearly dependent."""


class MeasureMismatch(BlockOrthoError):
    """Two constructions that must share a measure pair do not."""


class NonPositiveParameter(BlockOrthoError):
    """A weight-family parameter that must be positive is not."""


class DimensionCap(BlockOrthoError):
    """A multidimensional verification exceeds the configured dimension cap."""


class InsufficientNodes(BlockOrthoError):
    """A quadrature grid cannot integrate the requested polynomial degree exactly."""


class CollapsedRule(InsufficientNodes):
    """A float quadrature rule whose weights underflow to zero: it has fewer nodes than its size."""


class OracleMismatch(BlockOrthoError):
    """Cross-validation between a construction and its determinant oracle failed."""

    def __init__(self, message, stage=None, degree=None):
        super().__init__(message)
        self.stage = stage
        self.degree = degree


@contextmanager
def stage(name, first_degree=0):
    """Name the stage of the NotPositiveDefinite and OracleMismatch raised inside.

    The orthogonalization kernels and the determinant oracle report the
    failing column of their Gram matrix; ``first_degree`` is the degree of
    column 0, so a kernel's column becomes the polynomial degree.  Oracle
    checks already report degrees.
    """
    try:
        yield
    except NotPositiveDefinite as exc:
        exc.stage = name
        if exc.degree is not None:
            exc.degree += first_degree
        raise
    except OracleMismatch as exc:
        exc.stage = name
        raise
