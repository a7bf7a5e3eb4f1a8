"""Structured error types raised across the package."""


class CodingError(Exception):
    """Base class for all errors raised by gradcoding."""


class ShapeError(CodingError):
    """Input dimensions do not conform."""


class NonFiniteError(CodingError):
    """An input contains NaN or Inf."""


class ParameterError(CodingError):
    """A parameter is outside its admissible range or fails validation."""


class SingularMatrixError(CodingError):
    """A matrix required to be invertible is numerically singular."""


class NumericalError(CodingError):
    """A computed result failed a runtime consistency check."""


class ConstructionError(CodingError):
    """A randomized construction failed within its bounded retry budget."""


class ConfigError(CodingError):
    """A run configuration document is malformed."""
