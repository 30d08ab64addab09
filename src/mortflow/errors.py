"""Exception types shared across the package."""


class MortflowError(Exception):
    """Base class for all package errors."""


class DataError(MortflowError):
    """Input data is malformed or unusable (NaN slabs, empty tensors)."""


class CsvFormatError(DataError):
    """A CSV row failed to parse; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ConfigError(MortflowError, ValueError):
    """A setting lies outside its valid range (a tau of 0, a w of 1.5)."""


class CVConfigError(ConfigError, DataError):
    """A cross-validation setting lies outside its valid range.

    A usage error like any ConfigError, and still a DataError, which is
    what CVConfig raised for these settings before.
    """


class MissingDataError(DataError):
    """A requested year or slice contains no observations."""


class DegenerateExposureError(DataError):
    """Total exposure in a (country, year) cell is zero: no rate exists."""


class ShapeMismatchError(DataError):
    """Inputs disagree on a shared grid (ages, years, score dimension)."""


class RankError(MortflowError):
    """Requested Tucker rank exceeds the corresponding mode size."""


class InsufficientDataError(MortflowError):
    """Not enough observations to fit the requested object."""


class EmptyEraError(InsufficientDataError):
    """Every era weight is zero: the window contains no usable years."""


class TailConfigError(MortflowError):
    """Tail extension transition cannot be placed inside the knot range."""


class CalibrationMissingError(MortflowError):
    """Prediction intervals requested but no calibration is available."""


class DomainError(MortflowError):
    """A probability input lies outside [0, 1]."""


class ArtifactError(MortflowError):
    """A model file is unreadable, unrecognized, or inconsistent."""
