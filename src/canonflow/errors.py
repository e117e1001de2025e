"""Exception hierarchy shared by all canonflow modules.

Every error carries a machine-readable ``kind`` string, its class name, so
the CLI can emit structured error reports and map failures to exit codes.
"""


class CanonflowError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail

    @property
    def kind(self):
        """The error's class name, as the CLI reports it."""
        return type(self).__name__


class DomainBlowup(CanonflowError):
    """The flow left its validity domain (finite-parameter escape)."""


class StepFailure(CanonflowError):
    """An integrator could not go on: an adaptive one could not meet its
    tolerance, or a split-step state's norm stopped being finite."""


class SupportLeakage(CanonflowError):
    """A state's support would leave the grid (or already touches its edge)."""


class NotNormalized(CanonflowError):
    """An operation requiring a normalized state received an unnormalized one."""


class ImaginaryFrequency(CanonflowError):
    """The effective squared frequency is negative (inverted oscillator)."""


class NegativeRadicand(CanonflowError):
    """A square root of a negative quantity was requested."""


class MassZeroCrossing(CanonflowError):
    """A mass profile vanishes or changes sign inside the requested window."""


class TruncationError(CanonflowError):
    """A basis expansion captured less probability mass than required."""


class ResolutionError(CanonflowError):
    """The grid cannot resolve the state (spectral tail above threshold)."""


class SingularMetric(CanonflowError):
    """The metric is not strictly positive on the requested domain."""


class LinearSolveFailure(CanonflowError):
    """A banded linear solve failed or was too ill-conditioned."""


class NonMonotoneFlow(CanonflowError):
    """A reconstructed flow map is not strictly monotone."""


class FixedPointInInterval(CanonflowError):
    """The reconstructed flow has a fixed point where none is allowed."""


class ScenarioError(CanonflowError):
    """A scenario file is malformed or violates the published schema."""
