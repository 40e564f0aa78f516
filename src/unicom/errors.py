"""Exception hierarchy shared across the package.

File-format problems and data/computation problems are kept on separate
branches so the CLI can map them to distinct exit codes. Inputs that do
not fit together (duplicate ids, mismatched shapes) are validation errors.
"""


class UnicomError(Exception):
    """Base class for all errors raised by this package."""


class UcebFormatError(UnicomError):
    """Base class for problems with UCEB embedding files."""


class BadMagicError(UcebFormatError):
    """File does not start with the UCEB magic bytes."""


class UnsupportedVersionError(UcebFormatError):
    """File declares a format version this reader does not understand."""


class InvalidDimensionError(UcebFormatError):
    """Header declares a zero dimension or an empty set."""


class TruncatedPayloadError(UcebFormatError):
    """File ends before the payload declared in the header."""


class DegenerateVectorError(UnicomError):
    """A vector that must be normalized has (near-)zero norm."""


class NonFiniteLossError(UnicomError):
    """A training step produced a NaN or infinite loss."""


class ValidationError(UnicomError):
    """A configuration value or precondition is out of range."""


class DuplicateIdError(ValidationError):
    """Two rows share the same identifier."""


class DimensionMismatchError(ValidationError):
    """Operands disagree on row count or embedding dimension."""
