"""Exception taxonomy shared across the package.

Every error the package raises on purpose is a ``SowaError``; the subclasses
separate bad arguments and configuration (``UsageError``, ``ConfigError``),
bad data and files (``DataError`` and its format and archive errors), and
failures at run time (weights, metrics, training).
"""


class SowaError(Exception):
    """Base class for all package errors."""


class UsageError(SowaError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class ConfigError(UsageError):
    """A run configuration is invalid or internally inconsistent."""


class DataError(SowaError):
    """Dataset content is missing, unreadable, or inconsistent."""


class FormatError(DataError):
    """A file does not conform to its declared on-disk format."""


class ArchiveError(FormatError):
    """Base class for tensor-archive problems."""


class ArchiveChecksumError(ArchiveError):
    """Archive payload bytes do not match the recorded checksum."""


class ArchiveVersionError(ArchiveError):
    """Archive was written with an unsupported format version."""


class ArchiveNameError(ArchiveError):
    """Duplicate or unresolvable tensor name in an archive."""


class WeightsError(SowaError):
    """A weight archive does not match the model it is being bound to."""


class MetricUndefinedError(SowaError):
    """A metric has no defined value on the given inputs (e.g. one class)."""


class TrainingError(SowaError):
    """Training aborted, e.g. on non-finite gradients."""
