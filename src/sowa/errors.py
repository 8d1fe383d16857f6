"""Exception taxonomy shared across the package.

Every error the package raises on purpose is a ``SowaError``; the subclasses
separate bad arguments and configuration (``UsageError``, ``ConfigError``),
bad data and files (``DataError``, and ``ArchiveError`` for an ``.npz``
checkpoint that cannot be read), and failures at run time (weights, metrics,
training).
"""


class SowaError(Exception):
    """Base class for all package errors."""


class UsageError(SowaError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class ConfigError(UsageError):
    """A run configuration is invalid or internally inconsistent."""


class DataError(SowaError):
    """Dataset content is missing, unreadable, or inconsistent."""


class ArchiveError(DataError):
    """A checkpoint file cannot be read or fails its checksum."""


class WeightsError(SowaError):
    """A checkpoint does not match the model it is being bound to."""


class MetricUndefinedError(SowaError):
    """A metric has no defined value on the given inputs (e.g. one class)."""


class TrainingError(SowaError):
    """Training aborted, e.g. on non-finite gradients."""
