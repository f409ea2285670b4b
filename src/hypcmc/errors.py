"""Exception hierarchy shared by all hypcmc modules."""


class HypcmcError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HypcmcError):
    """Vector lengths are inconsistent with the ambient dimension."""


class DomainError(HypcmcError):
    """An input lies outside the mathematical domain of the operation."""


class ParameterRangeError(HypcmcError):
    """A parameter violates a stated bound; the message names the bound."""


class DegenerateOscillationError(HypcmcError):
    """C is so close to C0 that the oscillation interval collapses."""


class LandmarkError(HypcmcError):
    """A required landmark (e.g. the upper root of Q) does not exist."""


class EvaluationError(HypcmcError):
    """An integrand returned a non-finite value at an interior node."""

    def __init__(self, message, abscissa=None):
        super().__init__(message)
        self.abscissa = abscissa


class NonConvergenceError(HypcmcError):
    """An iterative procedure failed to reach the requested tolerance."""


class InconsistentStateError(HypcmcError):
    """A profile state violates the first-integral identity."""


class IntegrationFailureError(HypcmcError):
    """A profile could not be built: a phase series or the Newton
    iteration for a phase did not converge."""


class ClassificationRefusedError(HypcmcError):
    """The flux does not match the winding target, so no classification."""


class EmbeddingPreconditionError(HypcmcError):
    """The embedding criterion xi_n(H) > -2*pi fails for this H."""

    def __init__(self, message, xi_value=None):
        super().__init__(message)
        self.xi_value = xi_value
