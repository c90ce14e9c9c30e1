"""Exception taxonomy shared across the package.

Validation failures (bad inputs, causality violations, guarded
singularities) are kept distinct from accuracy failures (a numerical
routine that could not certify its target); the CLI maps the two families
to different exit codes.
"""


class PulsebeamError(Exception):
    """Base class for all package errors."""


class ValidationError(PulsebeamError):
    """A precondition on the inputs was violated."""


class CausalityError(ValidationError):
    """A 4-vector that must lie strictly inside the future cone does not."""


class ConeViolationError(ValidationError):
    """A translated antenna extent left the admissible cone states."""


class DegenerateExtensionError(ValidationError):
    """The spatial extension vector is zero; the complexified distance is undefined."""


class UndefinedDirectionError(ValidationError):
    """A direction-dependent quantity was requested at the spatial origin."""


class NonAnalyticPointError(ValidationError):
    """An analytic signal was requested on the real axis inside the signal support."""


class DomainError(ValidationError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityProximityError(ValidationError):
    """The evaluation point is within the guard distance of the branch circle."""


class StencilPlacementError(ValidationError):
    """A finite-difference stencil touches or crosses the branch cut."""


class AccuracyError(PulsebeamError):
    """A numerical routine could not certify its accuracy target.

    The best available value and its error estimate are attached so callers
    can decide whether the result is still usable.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate
