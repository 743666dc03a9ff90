"""Exception types raised by frame construction, certification, and checks."""

from __future__ import annotations


class GFrameError(Exception):
    """Base class for all library-specific errors."""


class NotHermitianError(GFrameError):
    """Input matrix deviates from its adjoint beyond the admissible tolerance."""


class ConvergenceError(GFrameError):
    """LAPACK's Hermitian eigensolver reported that it did not converge."""


class FrameOverflowError(GFrameError):
    """S = T* T, a power of S, a spectral gap or a dual perturbation overflows double precision."""


class NotPositiveDefiniteError(GFrameError):
    """Matrix power requested on a matrix that is not safely positive definite."""

    def __init__(self, message: str, lambda_min: float):
        super().__init__(message)
        self.lambda_min = lambda_min


class NotAFrameError(GFrameError):
    """The operator family is rank deficient: lambda_min(S) is at or below the gate."""

    def __init__(self, message: str, lambda_min: float):
        super().__init__(message)
        self.lambda_min = lambda_min


class NotParsevalError(GFrameError):
    """An operation requiring a Parseval family received one with ||S - I||_F too large."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotADualError(GFrameError):
    """An operation requiring an alternate dual received a family failing the dual equation."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class EpsilonOutOfRangeError(GFrameError):
    """An epsilon parameter or rating falls outside [0, 1)."""

    def __init__(self, message: str, epsilon: float):
        super().__init__(message)
        self.epsilon = epsilon


class PostconditionError(GFrameError):
    """An internal numeric consistency check failed; results are not trustworthy."""


class FrameFormatError(GFrameError):
    """A frame interchange document is malformed or violates the schema."""
