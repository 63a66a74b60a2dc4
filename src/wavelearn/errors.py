"""Exception types shared across the package, and the integer check that
every integer argument goes through."""

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
