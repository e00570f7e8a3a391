"""Exception taxonomy shared by all modules, and the memory guard.

Exit-code mapping used by the CLI: validation errors exit 2, resource
limits exit 3, internal-consistency failures exit 4.
"""

import os


class OklabError(Exception):
    """Base class for all library errors."""


class ValidationError(OklabError):
    """Bad user input (dimensions, schemas, preconditions)."""


class DimensionMismatchError(ValidationError):
    pass


class NotASubgroupError(ValidationError):
    pass


class MeasureMismatchError(ValidationError):
    """Reference lattice does not match the affine hull of the body."""


class InvalidRayError(ValidationError):
    pass


class UnsupportedSemigroupError(ValidationError):
    """Operation needs a strongly non-negative (or polyhedral) input."""


class EmptyTruncationError(ValidationError):
    pass


class UnsupportedIdealError(ValidationError):
    """Operation needs an equigenerated (or m-primary) monomial ideal."""


class ResourceLimitError(OklabError):
    """Enumeration exceeded the configured memory guard."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class InternalConsistencyError(OklabError):
    """Held-out verification failed; signals a bug, not a user error."""


class RegularityNotReachedError(OklabError):
    """Polynomial fit did not stabilize within the iteration cap."""

    def __init__(self, message, last_fits=None):
        super().__init__(message)
        self.last_fits = last_fits


def memory_limit_bytes():
    """The memory guard, ``OKLAB_MEMORY_LIMIT_MB`` (default 1024) in bytes.

    Raises ``ValidationError`` unless the value is a positive integer.
    """
    text = os.environ.get("OKLAB_MEMORY_LIMIT_MB", "1024")
    try:
        mb = int(text)
    except ValueError:
        mb = 0
    if mb <= 0:
        raise ValidationError(
            f"OKLAB_MEMORY_LIMIT_MB must be a positive integer, got {text!r}")
    return mb * 1024 * 1024
