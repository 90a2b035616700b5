"""Exception types shared across the package, the integer check that
every config dataclass uses for its count fields, and the cut that an
error message applies to a field it repeats."""

import numbers

SHOWN_CHARS = 40  # characters of a field that an error message repeats


class AftError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(AftError):
    """A configuration value violates its documented constraints."""


class PartitionError(AftError):
    """A candidate id is repeated in the pool or unknown to it."""


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
        raise ConfigError(f"{name} must be an integer, got {shown(value)}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def cut(text: str, quote: bool = False) -> str:
    """``text`` as an error message repeats it: cut to ``SHOWN_CHARS``
    characters plus its length, the kept part quoted when ``quote``."""
    head = text[:SHOWN_CHARS]
    kept = repr(head) if quote else head
    return kept if head == text else f"{kept}... ({len(text)} characters)"


def shown(value) -> str:
    """A field as an error message repeats it: a string quoted, any other
    value as its ``str``, through :func:`cut`."""
    return cut(str(value), isinstance(value, str))
