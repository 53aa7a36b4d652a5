"""Exception hierarchy shared by all freesum modules."""

__all__ = [
    "ConvergenceError",
    "DegenerateSampleError",
    "DomainError",
    "FreesumError",
    "InversionQualityError",
    "ParameterError",
    "PrecisionError",
    "StepFunctionError",
]


class FreesumError(Exception):
    """Base class for package-specific failures."""


class ParameterError(FreesumError, ValueError):
    """An argument is outside its documented range or malformed."""


class DomainError(FreesumError, ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ConvergenceError(FreesumError, RuntimeError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InversionQualityError(FreesumError, RuntimeError):
    """Recovered density mass is too far from 1 to trust the inversion."""

    def __init__(self, message: str, raw_mass: float | None = None):
        super().__init__(message)
        self.raw_mass = raw_mass


class DegenerateSampleError(FreesumError, RuntimeError):
    """A Monte Carlo stage produced no usable samples."""


class PrecisionError(FreesumError, RuntimeError):
    """An estimator's effective sample size or accuracy check failed."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class StepFunctionError(FreesumError, ValueError):
    """A step-function table is not strictly increasing or is malformed."""
