"""Exception types raised deliberately across the package."""

from __future__ import annotations


class ChaoticityError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionMismatch(ChaoticityError):
    """Operands have incompatible shapes."""


class NotHermitian(ChaoticityError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(ChaoticityError):
    """Density candidate has an eigenvalue below the negativity tolerance."""

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class TraceNotOne(ChaoticityError):
    """Density candidate does not have unit trace."""

    def __init__(self, message: str, trace: complex | None = None):
        super().__init__(message)
        self.trace = trace


class ConvergenceFailure(ChaoticityError):
    """Eigensolver or singular-value iteration did not converge."""


class MemoryBudgetExceeded(ChaoticityError):
    """Requested total dimension exceeds the configured budget."""


class BadSiteIndex(ChaoticityError):
    """Site index outside 1..N."""


class NotSymmetric(ChaoticityError):
    """A state required to be permutation symmetric is not, beyond tolerance."""


class WeightsInvalid(ChaoticityError):
    """Mixture weights are negative or do not sum to one."""


class StepTooLarge(ChaoticityError):
    """Integrator step exceeds the stability cap for the given interaction."""


class DensityDriftExceeded(ChaoticityError):
    """An integrated state failed density validation at the trajectory tolerance."""


class BoundViolation(ChaoticityError):
    """A computed quantity crossed a ceiling that holds by construction.

    This signals a bug in the computation, not bad user input.
    """


class ConfigInvalid(ChaoticityError):
    """Experiment configuration violates a documented constraint."""


class ParseError(ConfigInvalid):
    """Config text is malformed; carries line/field context when known."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.field = field
