"""Exception hierarchy shared by all freesum modules.

Every refusal carries the numbers behind it as keyword ``diagnostics``
(a residual, a cdf error, an effective sample size...), which the
CLI prints beside the message.
"""

__all__ = [
    "ConvergenceError",
    "DegenerateSampleError",
    "FreesumError",
    "InversionQualityError",
    "ParameterError",
    "PrecisionError",
]


class FreesumError(Exception):
    """Base class for package-specific failures."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class ParameterError(FreesumError, ValueError):
    """An argument is malformed or outside its range or mathematical domain."""


class ConvergenceError(FreesumError, RuntimeError):
    """An iterative solver did not reach its tolerance."""


class InversionQualityError(FreesumError, RuntimeError):
    """A recovered law fails its own check or is one the grid cannot carry."""


class DegenerateSampleError(FreesumError, RuntimeError):
    """A Monte Carlo stage produced no usable samples."""


class PrecisionError(FreesumError, RuntimeError):
    """An estimator's effective sample size or accuracy check failed."""
