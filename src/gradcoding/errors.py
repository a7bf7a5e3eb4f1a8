"""Structured error types raised across the package."""


class CodingError(Exception):
    """Base class for all errors raised by gradcoding."""


class ShapeError(CodingError):
    """Input dimensions do not conform."""


class NonFiniteError(CodingError):
    """An input contains NaN or Inf."""


class ParameterError(CodingError):
    """A parameter is outside its admissible range or fails validation."""


class FieldError(ParameterError):
    """A parameter refused under its field name: the message begins with
    that name, so a config reader can prefix the path of the key."""


class SingularMatrixError(CodingError):
    """A matrix required to be invertible is numerically singular."""


class NumericalError(CodingError):
    """A computed result failed a runtime consistency check."""


class ConstructionError(CodingError):
    """A randomized construction failed within its bounded retry budget."""


class ConfigError(CodingError):
    """A run configuration document is malformed."""
