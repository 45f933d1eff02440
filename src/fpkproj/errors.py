"""Exception types shared across the package.

Every failure the numerical layers can diagnose is raised as a subclass of
FpkprojError so callers can distinguish "this input is outside the contract"
from genuine bugs.
"""


class FpkprojError(Exception):
    """Base class for all library errors."""


class ValidationError(FpkprojError):
    """A scenario or configuration value violates the documented schema."""


class NonFiniteIntegrand(FpkprojError):
    """An integrand evaluated to NaN or infinity at a quadrature node."""

    def __init__(self, message, node=None, index=None):
        super().__init__(message)
        self.node = node
        self.index = index


class InadmissibleParameter(FpkprojError):
    """Canonical parameter lies outside the family's admissible set."""


class UnderResolvedQuadrature(FpkprojError):
    """The quadrature rule's embedded error estimate exceeds its tolerance."""


class NonIntegrable(FpkprojError):
    """Normalization integral overflowed, underflowed, or is not finite."""


class DegenerateFisher(FpkprojError):
    """Fisher information matrix is not positive definite."""


class BoundaryDegeneracy(FpkprojError):
    """Leading canonical coordinate too close to zero for the moment recursion."""


class IllConditionedMoments(FpkprojError):
    """Moment matrix is singular or its condition number exceeds the guard."""


class InadmissibleRecovery(FpkprojError):
    """A parameter recovery produced a point outside the admissible set.

    The unconstrained value is attached so callers can inspect or clamp it.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class InadmissibleWeights(FpkprojError):
    """Mixture weight vector violates the open-simplex constraints."""


class DegenerateMixtureMetric(FpkprojError):
    """Constant mixture metric is numerically singular."""


class DependentStatistics(FpkprojError):
    """Family statistics are numerically linearly dependent."""


class TrajectoryExit(FpkprojError):
    """Time integration aborted; `step` records where."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SchemeInstability(FpkprojError):
    """Grid solver produced negative mass or lost conservation, or an RK4 step
    would grow a mode that the projected field damps."""


class SupportViolation(FpkprojError):
    """A divergence was requested between densities with mismatched support."""


class NotAnEigenfunction(FpkprojError):
    """A decay experiment requires eigenfunction statistics; `index` names the offender."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ProjectionInconsistencyWarning(UserWarning):
    """Moment match succeeded only loosely; optimality may be degraded."""
