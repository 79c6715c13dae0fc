"""Exception types shared across the package.

Validation failures map to CLI exit code 2, I/O failures (plain OSError)
to 3, and numeric check failures to 4.
"""


class SegTransferError(Exception):
    """Base class for all package errors."""


class ValidationError(SegTransferError):
    """An input violated a documented invariant or precondition."""


class NotNormalizedError(ValidationError):
    """A probability map pixel does not sum to 1 within tolerance."""


class OutOfRangeError(ValidationError):
    """A probability lies outside [0, 1], or a label outside its classes."""


class ClassMismatchError(ValidationError):
    """Inputs disagree on the number of classes."""


class DimensionMismatchError(ValidationError):
    """Inputs disagree on spatial dimensions."""


class EmptyInputError(ValidationError):
    """An operation received an empty collection."""


class TooManySegmentsError(ValidationError):
    """More superpixels requested than pixels available."""


class PredHasIgnoreError(ValidationError):
    """An evaluation prediction contains the IGNORE sentinel."""


class NotBinaryError(ValidationError):
    """Binary-only summary fields requested for a non-binary matrix."""


class InvalidConfigError(ValidationError):
    """A configuration document failed validation."""


class MissingFilesError(ValidationError):
    """Expected input files are absent or mismatched."""


class TensorFormatError(ValidationError):
    """A tensor file is malformed."""


class NumericCheckError(SegTransferError):
    """A numeric verification (e.g. gradient check) failed."""
