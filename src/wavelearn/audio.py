"""WAV ingestion and basic preprocessing.

Only 16-bit PCM RIFF/WAVE is supported; multichannel files contribute their
first channel. Samples are scaled to [-1, 1) by 1/32768.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, InvalidSignalError

_SCALE = 32768.0
# the header stores the rate and the byte rate, 2 * rate, as 32-bit words
MAX_RATE = (2 ** 32 - 1) // 2


def read_wav(path) -> tuple[np.ndarray, int]:
    """Parse a PCM WAV file; returns (channel-0 samples in [-1, 1], rate)."""
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise FormatError("file too short for a RIFF header", offset=0)
    if data[0:4] != b"RIFF":
        raise FormatError("missing RIFF magic", offset=0)
    if data[8:12] != b"WAVE":
        raise FormatError("missing WAVE form type", offset=8)

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if body + size > len(data):
            raise FormatError(f"chunk {chunk_id!r} overruns the file", offset=pos)
        if chunk_id == b"fmt ":
            if size < 16:
                raise FormatError("fmt chunk shorter than 16 bytes", offset=body)
            fmt = struct.unpack_from("<HHIIHH", data, body)
            fmt_offset = body
        elif chunk_id == b"data":
            payload = data[body:body + size]
            payload_offset = body
        pos = body + size + (size % 2)  # chunks are word-aligned

    if fmt is None:
        raise FormatError("no fmt chunk found", offset=12)
    if payload is None:
        raise FormatError("no data chunk found", offset=12)
    audio_format, channels, rate, _byte_rate, block_align, bits = fmt
    if audio_format != 1:
        raise FormatError(
            f"unsupported codec {audio_format} (only PCM handled)",
            offset=fmt_offset,
        )
    if bits != 16:
        raise FormatError(f"unsupported bit depth {bits}", offset=fmt_offset)
    if channels < 1:
        raise FormatError("zero channels", offset=fmt_offset)
    frame_bytes = 2 * channels
    if block_align not in (0, frame_bytes):
        raise FormatError(
            f"block_align {block_align} != {frame_bytes} for {channels} "
            f"16-bit channels",
            offset=fmt_offset,
        )
    n_frames = len(payload) // frame_bytes
    raw = np.frombuffer(payload[: n_frames * frame_bytes], dtype="<i2")
    samples = raw.reshape(n_frames, channels)[:, 0].astype(float) / _SCALE
    return samples, rate


def write_wav(path, samples, rate: int) -> None:
    """Write mono 16-bit PCM; float input is clipped to [-1, 1] and scaled
    by 32768 (so +1.0 saturates at 32767). Non-finite samples, and a rate
    that is not an integer from 1 to `MAX_RATE`, are rejected."""
    if not (isinstance(rate, (int, np.integer)) and 1 <= rate <= MAX_RATE):
        raise ConfigError(f"sample rate must be an integer from 1 to {MAX_RATE}, got {rate!r}")
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise InvalidSignalError("cannot write non-finite samples to a WAV")
    ints = np.clip(np.rint(samples * _SCALE), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)


def _lowpass_kernel(cutoff: float, taps: int = 63) -> np.ndarray:
    """Hann-windowed sinc, unit DC gain. `cutoff` in cycles per sample."""
    mid = taps // 2
    t = np.arange(taps) - mid
    kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * t)
    window = 0.5 + 0.5 * np.cos(np.pi * t / mid)
    kernel *= window
    return kernel / kernel.sum()


def decimate(samples, factor: int) -> np.ndarray:
    """Anti-aliased downsampling: zero-phase 63-tap windowed-sinc low-pass at
    the post-decimation Nyquist, then every factor-th sample. Factor 1 is the
    identity."""
    samples = np.asarray(samples, dtype=float)
    if factor < 1:
        raise ConfigError(f"decimation factor must be >= 1, got {factor}")
    if factor == 1:
        return samples.copy()
    kernel = _lowpass_kernel(0.5 / factor)
    half = kernel.size // 2
    if samples.size < 2:
        return samples[::factor].copy()
    pad = min(half, samples.size - 1)
    left = samples[1:pad + 1][::-1]
    right = samples[-pad - 1:-1][::-1]
    padded = np.concatenate([left, samples, right])
    if pad < half:  # very short input: extend by repetition of the reflection
        padded = np.concatenate([
            np.full(half - pad, padded[0]), padded, np.full(half - pad, padded[-1]),
        ])
    smoothed = np.convolve(padded, kernel, mode="valid")
    return smoothed[::factor]


def window_split(samples, window_size: int) -> list[np.ndarray]:
    """Non-overlapping windows; a trailing remainder shorter than the window
    is dropped."""
    samples = np.asarray(samples, dtype=float)
    if window_size < 2:
        raise ConfigError(f"window size must be >= 2, got {window_size}")
    n = samples.size // window_size
    return [samples[i * window_size:(i + 1) * window_size].copy() for i in range(n)]
