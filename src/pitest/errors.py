"""Exception types shared across the package."""


class PiTestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PiTestError, ValueError):
    """An argument value is outside its documented domain."""


class ShapeError(InvalidInputError):
    """An array argument has the wrong shape or dimensionality."""


class InsufficientSamplesError(InvalidInputError):
    """Too few rows to compute the requested statistic."""


class CsvParseError(PiTestError, ValueError):
    """A data file is malformed; the message names the line and column."""


class PackageFormatError(PiTestError, ValueError):
    """A serialized release package is malformed or fails validation."""


class UnsupportedVersionError(PackageFormatError):
    """A release package declares a format version this build does not read."""
