"""Streaming WAV ingest against whole-file references.

`decimate`, `load_windows`, `read_wav` and `write_wav` work a block at a
time. Each is compared bit for bit with the whole-file formula written out
here, and their memory is checked not to grow with the file's length.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from wavelearn import audio
from wavelearn.datasets import DatasetManifest, ManifestEntry, load_windows
from wavelearn.errors import FormatError

# audio.BLOCK, the samples handled per step; test_block_size pins it
BLOCK = 16384
LENGTHS = [0, 1, 2, 3, 31, 32, 33, 62, 63, 64, 65, 1000,
           BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK + 1]
RATE = 16000


def reference_decimate(x: np.ndarray, factor: int) -> np.ndarray:
    """The whole-signal formula: reflect-pad by the kernel's half-width
    (extended by repetition when the signal is shorter), one full-rate
    `np.convolve`, then every factor-th output."""
    if factor == 1:
        return x.copy()
    if x.size < 2:
        return x[::factor].copy()
    kernel = audio._lowpass_kernel(0.5 / factor)
    half = kernel.size // 2
    pad = min(half, x.size - 1)
    padded = np.concatenate([x[1:pad + 1][::-1], x, x[-pad - 1:-1][::-1]])
    if pad < half:
        padded = np.concatenate([np.full(half - pad, padded[0]), padded,
                                 np.full(half - pad, padded[-1])])
    return np.convolve(padded, kernel, mode="valid")[::factor]


def reference_windows(x: np.ndarray, factor: int, window: int) -> list[np.ndarray]:
    d = reference_decimate(x, factor)
    return [d[i * window:(i + 1) * window] for i in range(d.size // window)]


def wav_bytes(frames: np.ndarray, rate: int = RATE, data_first: bool = False,
              extra_bytes: int = 0) -> bytes:
    """A 16-bit PCM file of the (n, channels) int16 `frames`, with a LIST
    chunk between fmt and data (or data first) and `extra_bytes` more payload
    bytes than whole frames."""
    channels = frames.shape[1]
    payload = frames.astype("<i2").tobytes() + b"\x07" * extra_bytes
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, rate,
                                rate * 2 * channels, 2 * channels, 16)
    data = b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) % 2)
    other = b"LIST" + struct.pack("<I", 3) + b"abc\x00"
    body = data + fmt + other if data_first else fmt + other + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def random_frames(n: int, channels: int = 1, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(-32768, 32768, (n, channels), dtype=np.int16)


def manifest_for(tmp_path, name: str, factor: int, window: int, rate: int = RATE):
    return DatasetManifest(sample_rate=rate, window_size=window,
                           entries=[ManifestEntry(path=name)], decimate=factor,
                           base_dir=tmp_path)


def assert_windows_equal(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.shape == e.shape and np.array_equal(g, e)


class TestBitwiseOracle:
    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_decimate(self, n, factor):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        got = audio.decimate(x, factor)
        expected = reference_decimate(x, factor)
        assert got.shape == expected.shape and np.array_equal(got, expected)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_load_windows(self, tmp_path, n, factor):
        frames = random_frames(n, seed=n)
        (tmp_path / "a.wav").write_bytes(wav_bytes(frames))
        x = frames[:, 0] / 32768.0
        for window in (2, 63, 1000, BLOCK // 2 + 3):
            got = load_windows(manifest_for(tmp_path, "a.wav", factor, window))
            assert_windows_equal([w.samples for w in got],
                                 reference_windows(x, factor, window))
            # each window owns its samples rather than viewing a larger array
            assert all(w.samples.flags.owndata for w in got)

    @pytest.mark.parametrize("data_first", [False, True])
    @pytest.mark.parametrize("extra_bytes", [0, 1, 3])
    def test_two_channels_and_odd_payloads(self, tmp_path, data_first, extra_bytes):
        frames = random_frames(BLOCK + 5, channels=2, seed=extra_bytes)
        path = tmp_path / "st.wav"
        path.write_bytes(wav_bytes(frames, data_first=data_first, extra_bytes=extra_bytes))
        x = frames[:, 0] / 32768.0
        samples, rate = audio.read_wav(path)
        assert rate == RATE and np.array_equal(samples, x)
        for factor in (1, 3):
            got = load_windows(manifest_for(tmp_path, "st.wav", factor, 999))
            assert_windows_equal([w.samples for w in got], reference_windows(x, factor, 999))

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_write_wav(self, tmp_path, n):
        # beyond [-1, 1] too, so that clipping is compared as well
        x = np.random.default_rng(n).uniform(-1.2, 1.2, n)
        audio.write_wav(tmp_path / "w.wav", x, RATE)
        payload = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
        header = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE" + b"fmt "
                  + struct.pack("<IHHIIHH", 16, 1, 1, RATE, 2 * RATE, 2, 16)
                  + b"data" + struct.pack("<I", len(payload)))
        assert (tmp_path / "w.wav").read_bytes() == header + payload
        samples, _ = audio.read_wav(tmp_path / "w.wav")
        assert np.array_equal(samples, np.frombuffer(payload, "<i2") / 32768.0)


class TestMemoryContract:
    """Beyond its output, ingest holds a few blocks whatever the file length:
    at window 4 096 and factor 2, a 16-window file may cost no more than a
    4-window one, up to one file-rate window (64 KiB)."""

    WINDOW = 4096
    FACTOR = 2
    SLACK = WINDOW * FACTOR * 8

    def test_block_size(self):
        assert audio.BLOCK == BLOCK

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _costs(self, tmp_path, windows: int):
        x = np.random.default_rng(windows).uniform(-0.9, 0.9, windows * self.WINDOW * self.FACTOR)
        name = f"m{windows}.wav"
        _, write_peak = self._peak(lambda: audio.write_wav(tmp_path / name, x, 2 * RATE))
        manifest = manifest_for(tmp_path, name, self.FACTOR, self.WINDOW, rate=2 * RATE)
        loaded, load_peak = self._peak(lambda: load_windows(manifest))
        assert len(loaded) == windows
        return write_peak, load_peak - sum(w.samples.nbytes for w in loaded)

    def test_peaks_do_not_grow_with_file_length(self, tmp_path):
        short_write, short_load = self._costs(tmp_path, 4)
        long_write, long_load = self._costs(tmp_path, 16)
        assert abs(long_write - short_write) < self.SLACK
        assert abs(long_load - short_load) < self.SLACK


class TestWavChecks:
    """The chunk checks hold whatever the chunk order."""

    def _write(self, tmp_path, content: bytes):
        path = tmp_path / "x.wav"
        path.write_bytes(content)
        return path

    def test_missing_fmt_and_data(self, tmp_path):
        good = wav_bytes(random_frames(10))
        no_data = good.replace(b"data", b"junk")
        no_fmt = good.replace(b"fmt ", b"junk")
        for content, message in ((no_data, "no data chunk"), (no_fmt, "no fmt chunk")):
            with pytest.raises(FormatError, match=message) as err:
                audio.read_wav(self._write(tmp_path, content))
            assert err.value.offset == 12

    def test_overrun_checked_against_file_size(self, tmp_path):
        good = wav_bytes(random_frames(10))
        with pytest.raises(FormatError, match="overruns") as err:
            audio.read_wav(self._write(tmp_path, good[:-1]))
        assert err.value.offset == good.index(b"data")

    @pytest.mark.parametrize("field,value,message", [
        (0, 12, "fmt chunk shorter"), (1, 3, "unsupported codec"),
        (6, 24, "bit depth"), (2, 0, "zero channels"), (5, 6, "block_align"),
    ])
    def test_fmt_fields(self, tmp_path, field, value, message):
        fields = [16, 1, 1, RATE, 2 * RATE, 2, 16]
        fields[field] = value
        fmt = b"fmt " + struct.pack("<IHHIIHH", *fields)
        good = wav_bytes(random_frames(10), data_first=True)
        at = good.index(b"fmt ")
        with pytest.raises(FormatError, match=message) as err:
            audio.read_wav(self._write(tmp_path, good[:at] + fmt + good[at + 24:]))
        assert err.value.offset == at + 8
