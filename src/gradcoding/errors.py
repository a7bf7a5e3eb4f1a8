"""Structured error types raised across the package, and the one check of
a public count argument."""
import numbers


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


def check_count(value, name: str, least: int = 0, error: type = ParameterError) -> int:
    """value as an int when it is an integer of at least least; anything
    else, a bool or a float of integral value included, is refused with
    error (a ParameterError) naming it as name. numpy integers pass and
    numpy bools do not: only the first are numbers.Integral."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)
