"""Exception hierarchy for the set-membership observer library."""


class ObserverError(Exception):
    """Base class for all library errors."""


class InvalidEllipsoidError(ObserverError):
    """Shape matrix is not symmetric positive definite."""


class InvalidParameterError(ObserverError):
    """Scalar design parameter outside its admissible range."""


class DegenerateInputError(ObserverError):
    """Operand is degenerate (e.g. zero-trace shape matrix)."""


class InvalidBasisError(ObserverError):
    """Subspace basis is not orthonormal."""


class StrongObservabilityError(ObserverError):
    """No valid derivative order exists for the strongly observable block."""


class NoStableObserverError(ObserverError):
    """Residual pair is undetectable; no stable observer gain exists."""


class InvalidDesignError(ObserverError):
    """Observer design violates its own requirements (e.g. non-Hurwitz)."""


class SingularNoiseError(ObserverError):
    """Measurement-noise shape G_k is singular; update must be skipped."""


class SingularInnovationError(ObserverError):
    """Innovation covariance is not invertible."""


class CertificateUnavailableError(ObserverError):
    """No boundedness certificate applies to the given data."""


class CaseNotApplicableError(CertificateUnavailableError):
    """Preconditions of the requested certificate case are violated."""


class ScenarioFormatError(ObserverError):
    """Scenario file is malformed or fails validation."""
