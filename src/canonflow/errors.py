"""Exception hierarchy shared by all canonflow modules.

Every error carries a machine-readable ``kind`` string so the CLI can emit
structured error reports and map failures to exit codes.
"""


class CanonflowError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "CanonflowError"

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


class DomainBlowup(CanonflowError):
    """The flow left its validity domain (finite-parameter escape)."""

    kind = "DomainBlowup"


class StepFailure(CanonflowError):
    """An adaptive integrator could not meet its tolerance."""

    kind = "StepFailure"


class SupportLeakage(CanonflowError):
    """A state's support would leave the grid (or already touches its edge)."""

    kind = "SupportLeakage"


class NotNormalized(CanonflowError):
    """An operation requiring a normalized state received an unnormalized one."""

    kind = "NotNormalized"


class ImaginaryFrequency(CanonflowError):
    """The effective squared frequency is negative (inverted oscillator)."""

    kind = "ImaginaryFrequency"


class NegativeRadicand(CanonflowError):
    """A square root of a negative quantity was requested."""

    kind = "NegativeRadicand"


class MassZeroCrossing(CanonflowError):
    """A mass profile vanishes or changes sign inside the requested window."""

    kind = "MassZeroCrossing"


class TruncationError(CanonflowError):
    """A basis expansion captured less probability mass than required."""

    kind = "TruncationError"


class ResolutionError(CanonflowError):
    """The grid cannot resolve the state (spectral tail above threshold)."""

    kind = "ResolutionError"


class SingularMetric(CanonflowError):
    """The metric is not strictly positive on the requested domain."""

    kind = "SingularMetric"


class LinearSolveFailure(CanonflowError):
    """A banded linear solve failed or was too ill-conditioned."""

    kind = "LinearSolveFailure"


class NonMonotoneFlow(CanonflowError):
    """A reconstructed flow map is not strictly monotone."""

    kind = "NonMonotoneFlow"


class FixedPointInInterval(CanonflowError):
    """The reconstructed flow has a fixed point where none is allowed."""

    kind = "FixedPointInInterval"


class ScenarioError(CanonflowError):
    """A scenario file is malformed or violates the published schema."""

    kind = "ScenarioError"
