"""Dataset manifests and the deterministic synthetic benchmark.

A manifest is a JSON file listing WAV entries with optional labels and a
train/test split, plus the preprocessing applied to every file (decimation
factor and window size). The synthetic generator provides a desk-scale
substitute for real machine-sound corpora: tonal burst signals with additive
Gaussian noise, plus impulse (sparse clicks) and frequency-shift anomalies,
and a second class with a different frequency pair for classification runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio import MAX_RATE, decimate, read_wav, window_split
from .errors import ConfigError, FormatError
from .persist import read_json


@dataclass
class ManifestEntry:
    path: str
    label: str | None = None
    split: str = "train"


@dataclass
class DatasetManifest:
    sample_rate: int
    window_size: int
    entries: list[ManifestEntry]
    decimate: int = 1
    base_dir: Path = field(default_factory=Path)

    def validate(self) -> None:
        if not 1 <= self.sample_rate <= MAX_RATE:
            raise ConfigError(f"sample rate {self.sample_rate} is outside 1 to {MAX_RATE}")
        if self.window_size < 2:
            raise ConfigError(f"window size must be >= 2, got {self.window_size}")
        if self.decimate < 1:
            raise ConfigError(f"decimate factor must be >= 1, got {self.decimate}")
        paths = [e.path for e in self.entries]
        if len(set(paths)) != len(paths):
            raise ConfigError("manifest paths must be unique")
        for e in self.entries:
            if e.split not in ("train", "test"):
                raise ConfigError(f"bad split {e.split!r} for {e.path}")

    def select(self, split: str | None = None) -> list[ManifestEntry]:
        if split in (None, "all"):
            return list(self.entries)
        return [e for e in self.entries if e.split == split]


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc = {
        "sample_rate": manifest.sample_rate,
        "window_size": manifest.window_size,
        "decimate": manifest.decimate,
        "entries": [
            {"path": e.path, "label": e.label, "split": e.split}
            for e in manifest.entries
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def _typed(doc, key: str, *kinds: type):
    """doc[key] if it has one of the types `kinds`, a missing key reading as
    None (booleans are not integers here)."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise FormatError(f"manifest field {key!r} must be of type "
                          f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    doc = read_json(path)
    manifest = DatasetManifest(
        sample_rate=_typed(doc, "sample_rate", int),
        window_size=_typed(doc, "window_size", int),
        decimate=_typed(doc, "decimate", int) if "decimate" in doc else 1,
        entries=[
            ManifestEntry(path=_typed(e, "path", str),
                          label=_typed(e, "label", str, type(None)),
                          split=_typed(e, "split", str) if "split" in e else "train")
            for e in _typed(doc, "entries", list)
        ],
        base_dir=path.parent,
    )
    manifest.validate()
    return manifest


@dataclass
class WindowRecord:
    """One preprocessed window, identified as `<entry path>:<window index>`."""

    id: str
    label: str | None
    split: str
    samples: np.ndarray


def load_windows(manifest: DatasetManifest, split: str | None = None) -> list[WindowRecord]:
    """Read, decimate and window every selected entry, in manifest order.
    Every file must have the manifest's sample rate."""
    out = []
    for entry in manifest.select(split):
        samples, rate = read_wav(manifest.base_dir / entry.path)
        if rate != manifest.sample_rate:
            raise FormatError(f"{entry.path} has sample rate {rate}, the manifest "
                              f"{manifest.sample_rate}")
        samples = decimate(samples, manifest.decimate)
        for i, window in enumerate(window_split(samples, manifest.window_size)):
            out.append(WindowRecord(
                id=f"{entry.path}:{i}", label=entry.label,
                split=entry.split, samples=window,
            ))
    return out


# ---------------------------------------------------------------------------
# synthetic benchmark

@dataclass
class SyntheticSpec:
    """Knobs of the synthetic benchmark generator.

    `task` selects the dataset flavor: "detect" yields normal training
    windows plus a test set of normal/impulse/shift windows; "classify"
    yields two classes ("A", "B") with distinct frequency pairs.
    """

    task: str = "detect"
    window: int = 1024
    sigma: float = 0.1
    n_train: int = 200
    n_test: int = 50


# a "shift" test window scales the first tone's frequency by SHIFT_FACTOR;
# an "impulse" one adds N_CLICKS clicks of amplitude ±CLICK_AMP
SHIFT_FACTOR = 1.3
N_CLICKS = 5
CLICK_AMP = 0.8


# tone bursts: (frequency cycles/sample, amplitude, span fractions, phase).
# The detect-task tone at 0.25 sits on the first band split, where a fixed
# dyadic bank represents it in both branches at once; that leaves visible
# headroom for the learnable decomposition. The two classification classes
# share amplitudes and spans and differ only in their frequency pairs.
_TONE_SETS = {
    "normal": [(0.250, 0.70, (0.05, 0.95), 0.3), (0.090, 0.18, (0.40, 0.97), 1.1)],
    "A": [(0.300, 0.55, (0.05, 0.95), 0.3), (0.090, 0.25, (0.40, 0.97), 1.1)],
    "B": [(0.260, 0.55, (0.05, 0.95), 1.7), (0.105, 0.25, (0.40, 0.97), 0.5)],
}


def _tone_sum(n: int, tones) -> np.ndarray:
    t = np.arange(n)
    out = np.zeros(n)
    for freq, amp, (lo, hi), phase in tones:
        gate = (t >= int(lo * n)) & (t < int(hi * n))
        out += amp * np.sin(2.0 * np.pi * freq * t + phase) * gate
    return out


def base_waveform(n: int, kind: str = "normal",
                  shift_factor: float = 1.0) -> np.ndarray:
    """Deterministic tonal component of one window; `shift_factor` scales the
    first tone's frequency (the trend-anomaly mechanism)."""
    tones = [list(tone) for tone in _TONE_SETS[kind]]
    tones[0][0] *= shift_factor
    return _tone_sum(n, tones)


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> list[WindowRecord]:
    """Seed-deterministic labeled windows per the spec's task."""
    if spec.window < 16:
        raise ConfigError(f"window too short: {spec.window}")
    if spec.sigma < 0:
        raise ConfigError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    records: list[WindowRecord] = []

    def emit(kind: str, label: str, split: str, index: int, base: np.ndarray) -> None:
        samples = base + rng.normal(0.0, spec.sigma, spec.window) \
            if spec.sigma > 0 else base.copy()
        if kind == "impulse":
            pos = rng.integers(0, spec.window, N_CLICKS)
            sign = rng.choice([-1.0, 1.0], N_CLICKS)
            samples[pos] += sign * CLICK_AMP
        records.append(WindowRecord(
            id=f"synth/{split}_{label}_{kind}_{index:04d}",
            label=label if kind == "plain" else kind,
            split=split, samples=samples,
        ))

    # each tonal component is built once and shared by its windows' draws
    if spec.task == "detect":
        normal = base_waveform(spec.window)
        for i in range(spec.n_train):
            emit("plain", "normal", "train", i, normal)
        for i in range(spec.n_test):
            emit("plain", "normal", "test", i, normal)
        for i in range(spec.n_test):
            emit("impulse", "normal", "test", i, normal)
        if spec.n_test:
            shifted = base_waveform(spec.window, shift_factor=SHIFT_FACTOR)
            for i in range(spec.n_test):
                emit("shift", "normal", "test", i, shifted)
    elif spec.task == "classify":
        for label in ("A", "B"):
            base = base_waveform(spec.window, label)
            for i in range(spec.n_train):
                emit("plain", label, "train", i, base)
            for i in range(spec.n_test):
                emit("plain", label, "test", i, base)
    else:
        raise ConfigError(f"unknown synthetic task {spec.task!r}")
    return records
