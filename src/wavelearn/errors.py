"""Exception types shared across the package."""


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
