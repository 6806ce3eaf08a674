"""Exception hierarchy shared by all modules.

Every error carries the name of the operation that raised it so that
front-end code (and the CLI) can report provenance without parsing
tracebacks.
"""


class LeakageError(Exception):
    """Base class for all package errors."""

    #: module the raising operation belongs to; subclasses override
    module = "leakage"

    def __init__(self, message, *, operation=None):
        self.operation = operation
        if operation:
            message = f"[{self.module}.{operation}] {message}"
        super().__init__(message)


class InvalidInput(LeakageError):
    """Base class for errors caused by the caller's data: a malformed
    config, a non-Hermitian matrix, a partition the spectrum does not admit."""


# operator_core -------------------------------------------------------------

class NonHermitianInput(InvalidInput):
    module = "operator_core"


class NotPositiveDefinite(LeakageError):
    module = "operator_core"


# spectral_partition --------------------------------------------------------

class NoGapFound(InvalidInput):
    module = "spectral_partition"


class UncoveredEigenvalue(InvalidInput):
    module = "spectral_partition"


class OverlappingIntervals(InvalidInput):
    module = "spectral_partition"


# bloch_solver --------------------------------------------------------------

class ZeroGap(LeakageError):
    module = "bloch_solver"


class GammaBelowThreshold(LeakageError):
    module = "bloch_solver"


class NotConverged(LeakageError):
    module = "bloch_solver"


# schrieffer_wolff ----------------------------------------------------------

class GammaBelowSWThreshold(LeakageError):
    module = "schrieffer_wolff"


class SingularBlockGram(LeakageError):
    module = "schrieffer_wolff"


# bounds --------------------------------------------------------------------

class OutOfDomain(LeakageError):
    module = "bounds"


class NonpositiveBandgap(InvalidInput):
    module = "models"


# dynamics ------------------------------------------------------------------

class DegenerateSweep(InvalidInput):
    module = "dynamics"


class GroupNotPreserved(LeakageError):
    module = "dynamics"


class IndexOutOfRange(InvalidInput):
    module = "dynamics"


# cli -----------------------------------------------------------------------

class ConfigInvalid(InvalidInput):
    module = "cli"
