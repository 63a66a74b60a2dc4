"""Exception types shared across the package, the two rules that every
number argument and document field goes through, `as_integer` and `as_real`,
and `as_floats`, which reads an array of real numbers (`as_signal` for a
signal)."""

import math

import numpy as np


class WavelearnError(ValueError):
    """Base class for all wavelearn errors."""


class InvalidKernelError(WavelearnError):
    """Kernel taps violate a structural requirement (length, parity, finiteness)."""


class InvalidSignalError(WavelearnError):
    """Input signal is empty or otherwise unusable."""


class InvalidDepthError(WavelearnError):
    """Requested decomposition depth is below one or exceeds what the signal
    length supports."""


class ConfigError(WavelearnError):
    """Invalid configuration value or dataset setup."""


def as_integer(value, name: str, least: int) -> int:
    """`value` if it is an integer (not a bool) of at least `least`;
    anything else is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def as_real(value, name: str, low: float = 0.0, strict: bool = False) -> float:
    """`value` as a float if it is a finite real number (not a bool) of at
    least `low`, or above `low` when `strict`; anything else, an int beyond
    the float range included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{name} must be finite and real, got {value}")
    if real < low or (strict and real == low):
        raise ConfigError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
    return real


def as_floats(value, name: str, error: type[WavelearnError] = ConfigError) -> np.ndarray:
    """`value` as a float array if numpy reads it as real numbers; text, a
    ragged nesting, complex numbers or objects raise `error`."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as err:
        raise error(f"{name} must hold real numbers: {err}") from None
    if array.dtype.kind not in "biuf":
        raise error(f"{name} must hold real numbers, got {array.dtype} entries")
    return array.astype(float, copy=False)


def as_signal(signal) -> np.ndarray:
    """`signal` as a float array, or an InvalidSignalError (`as_floats`)."""
    return as_floats(signal, "signal", InvalidSignalError)


class DivergenceError(WavelearnError):
    """Training produced a non-finite loss or gradient."""


class UndefinedMetricError(WavelearnError):
    """Metric is undefined for the given inputs (e.g. single-class AUC)."""


class FormatError(WavelearnError):
    """Malformed or unsupported file content.

    Carries the byte offset at which parsing failed.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
