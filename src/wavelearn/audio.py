"""WAV ingestion and basic preprocessing.

Only 16-bit PCM RIFF/WAVE is supported; multichannel files contribute their
first channel. Samples are scaled to [-1, 1) by 1/32768.

Memory contract: ingest streams. A `WavReader` parses the chunk headers
without loading the payload and reads frames on demand; `write_wav` checks,
converts and writes `BLOCK` samples at a time; the anti-aliasing filter runs
over `BLOCK`-frame segments and stores only the samples it keeps. So beyond
its output, each of these holds a few blocks, whatever the file length.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, FormatError, InvalidSignalError, as_integer, as_signal

_SCALE = 32768.0
# the header stores the rate and the byte rate, 2 * rate, as 32-bit words
MAX_RATE = (2 ** 32 - 1) // 2
# samples read, filtered or written per step (128 KiB of float64)
BLOCK = 16384
# length of `decimate`'s anti-aliasing filter (odd, so it is zero-phase)
LOWPASS_TAPS = 63


def as_rate(rate) -> int:
    """`rate` if it is an integer sample rate, 1 to `MAX_RATE`, that a WAV
    header can hold."""
    rate = as_integer(rate, "sample rate", 1)
    if rate > MAX_RATE:
        raise ConfigError(f"sample rate must be at most {MAX_RATE}, got {rate}")
    return rate


def _signal(samples) -> np.ndarray:
    """`samples` as a 1-D float array with finite entries, checked a block at
    a time."""
    samples = as_signal(samples)
    if samples.ndim != 1:
        raise InvalidSignalError(f"expected a 1-D signal, got shape {samples.shape}")
    for start in range(0, samples.size, BLOCK):
        if not np.isfinite(samples[start:start + BLOCK]).all():
            raise InvalidSignalError("signal holds non-finite samples")
    return samples


class WavReader:
    """An open 16-bit PCM WAV file. The constructor parses and checks the
    chunk headers; `read` fetches channel-0 frames on demand. Chunks may come
    in any order, and a trailing partial frame is dropped."""

    def __init__(self, path):
        self._file = open(path, "rb")
        try:
            self._parse(os.fstat(self._file.fileno()).st_size)
        except BaseException:
            self._file.close()
            raise

    def _at(self, offset: int, size: int) -> bytes:
        self._file.seek(offset)
        return self._file.read(size)

    def _parse(self, file_size: int) -> None:
        head = self._at(0, 12)
        if len(head) < 12:
            raise FormatError("file too short for a RIFF header", offset=0)
        if head[0:4] != b"RIFF":
            raise FormatError("missing RIFF magic", offset=0)
        if head[8:12] != b"WAVE":
            raise FormatError("missing WAVE form type", offset=8)

        fmt = data = None
        pos = 12
        while pos + 8 <= file_size:
            chunk_id, size = struct.unpack("<4sI", self._at(pos, 8))
            body = pos + 8
            if body + size > file_size:
                raise FormatError(f"chunk {chunk_id!r} overruns the file", offset=pos)
            if chunk_id == b"fmt ":
                if size < 16:
                    raise FormatError("fmt chunk shorter than 16 bytes", offset=body)
                fmt = struct.unpack("<HHIIHH", self._at(body, 16))
                fmt_offset = body
            elif chunk_id == b"data":
                data = (body, size)
            pos = body + size + (size % 2)  # chunks are word-aligned

        if fmt is None:
            raise FormatError("no fmt chunk found", offset=12)
        if data is None:
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
        if not 1 <= rate <= MAX_RATE:
            raise FormatError(f"sample rate {rate} outside 1 to {MAX_RATE}", offset=fmt_offset)
        if block_align not in (0, 2 * channels):
            raise FormatError(
                f"block_align {block_align} != {2 * channels} for {channels} "
                f"16-bit channels",
                offset=fmt_offset,
            )
        self.rate = rate
        self.channels = channels
        self._payload = data[0]
        self.frames = data[1] // (2 * channels)

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Channel-0 samples of frames lo..hi, scaled to [-1, 1)."""
        width = 2 * self.channels
        raw = np.frombuffer(self._at(self._payload + lo * width, (hi - lo) * width),
                            dtype="<i2")
        return raw.reshape(hi - lo, self.channels)[:, 0] / _SCALE

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "WavReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_wav(path) -> tuple[np.ndarray, int]:
    """Parse a PCM WAV file; returns (channel-0 samples in [-1, 1], rate)."""
    with WavReader(path) as wav:
        samples = np.empty(wav.frames)
        for start in range(0, wav.frames, BLOCK):
            stop = min(start + BLOCK, wav.frames)
            samples[start:stop] = wav.read(start, stop)
        return samples, wav.rate


def write_wav(path, samples, rate: int) -> None:
    """Write mono 16-bit PCM; float input is clipped to [-1, 1] and scaled
    by 32768 (so +1.0 saturates at 32767). Samples that are not a finite 1-D
    signal, and a rate that is not an integer from 1 to `MAX_RATE`, are
    rejected before the file is opened."""
    rate = as_rate(rate)
    samples = _signal(samples)
    size = 2 * samples.size
    header = b"RIFF" + struct.pack("<I", 36 + size) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", size)
    with open(path, "wb") as f:
        f.write(header)
        for start in range(0, samples.size, BLOCK):
            block = samples[start:start + BLOCK]
            f.write(np.clip(np.rint(block * _SCALE), -32768, 32767).astype("<i2"))


def _lowpass_kernel(cutoff: float) -> np.ndarray:
    """Hann-windowed sinc of `LOWPASS_TAPS` taps, unit DC gain. `cutoff` in cycles/sample."""
    mid = LOWPASS_TAPS // 2
    t = np.arange(LOWPASS_TAPS) - mid
    kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * t)
    window = 0.5 + 0.5 * np.cos(np.pi * t / mid)
    kernel *= window
    return kernel / kernel.sum()


def _decimated(fetch, n: int, factor: int, lo: int, hi: int) -> np.ndarray:
    """Samples lo..hi of the decimated n-sample signal whose samples a..b
    `fetch(a, b)` returns: the zero-phase low-pass output at every factor-th
    sample, filtered over segments of about `BLOCK` input samples.

    Past each end the signal is extended as `_extended` says.
    `np.convolve` forms each output as one dot product over the kernel, so
    every sample is bitwise the one the whole padded signal gives."""
    if factor == 1 or n < 2:
        return np.array(fetch(lo, hi))
    kernel = _lowpass_kernel(0.5 / factor)
    half = kernel.size // 2
    out = np.empty(hi - lo)
    step = max(1, BLOCK // factor)
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        segment = _extended(fetch, n, start * factor - half, (stop - 1) * factor + half + 1)
        out[start - lo:stop - lo] = np.convolve(segment, kernel, mode="valid")[::factor]
    return out


def _extended(fetch, n: int, first: int, last: int) -> np.ndarray:
    """Samples first..last of the n-sample signal reflected about each end
    sample, and continued with the far end sample where the reflection runs
    out (n below the kernel's half-width)."""
    if 0 <= first and last <= n:
        return fetch(first, last)
    pos = np.arange(first, last)
    idx = np.clip(np.minimum(np.abs(pos), 2 * (n - 1) - pos), 0, n - 1)
    low = idx.min()
    return fetch(low, idx.max() + 1)[idx - low]


def _decimated_size(n: int, factor: int) -> int:
    """ceil(n / factor), the samples `decimate` keeps of n."""
    return -(-n // factor)


def decimate(samples, factor: int) -> np.ndarray:
    """Anti-aliased downsampling: zero-phase `LOWPASS_TAPS`-tap windowed-sinc
    low-pass at the post-decimation Nyquist, then every factor-th sample.
    Factor 1 is the identity."""
    factor = as_integer(factor, "decimation factor", 1)
    samples = _signal(samples)
    n = samples.size
    return _decimated(lambda a, b: samples[a:b], n, factor, 0, _decimated_size(n, factor))


def decimated_windows(wav: WavReader, factor: int, window_size: int):
    """Yield `window_split(decimate(read_wav(...)), window_size)` one window
    at a time, each computed from just the frames it needs."""
    factor = as_integer(factor, "decimation factor", 1)
    window_size = as_integer(window_size, "window size", 2)
    count = _decimated_size(wav.frames, factor) // window_size
    for i in range(count):
        yield _decimated(wav.read, wav.frames, factor, i * window_size, (i + 1) * window_size)


def window_split(samples, window_size: int) -> list[np.ndarray]:
    """Non-overlapping windows; a trailing remainder shorter than the window
    is dropped."""
    window_size = as_integer(window_size, "window size", 2)
    samples = _signal(samples)
    n = samples.size // window_size
    return [samples[i * window_size:(i + 1) * window_size].copy() for i in range(n)]
