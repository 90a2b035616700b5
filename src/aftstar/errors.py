"""Exception types shared across the package, and the integer check that
every config dataclass uses for its count fields."""

import numbers


class AftError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AftError):
    """A configuration value violates its documented constraints."""


class PartitionError(AftError):
    """The labeled/unlabeled pool partition would be violated."""


class LabelDomainError(AftError):
    """A class label lies outside [0, num_classes)."""


class ShapeError(AftError):
    """An array has the wrong shape or non-finite / non-stochastic content."""


class SamplingWindowError(AftError):
    """The requested sampling window is incompatible with the score list."""


class DoubleAnnotationError(AftError):
    """A candidate was submitted to the oracle more than once."""


class DatasetFormatError(AftError):
    """A dataset file does not conform to the CSV contract."""


class MetricError(AftError):
    """A metric is undefined for the given input (single-class AUC,
    empty selection, curve with fewer than two points)."""


class DiagnosticError(AftError):
    """The prediction-pattern diagnostic only supports binary problems."""


class InvariantError(AftError):
    """A cross-module invariant does not hold (e.g. misclassified set not
    a subset of the labeled set, unannotated candidate in the labeled set)."""


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless ``value`` is an integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
