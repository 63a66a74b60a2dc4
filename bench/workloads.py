"""The benchmark's workloads: set-up, one closed-loop unit, output checks.

Every call into the package goes through a module attribute looked up at
call time (`training.train(...)`), so the tracer's wrappers see it.

* train-detect, train-long: one unit is one `training.train` call; its
  operations are the Adam steps inside it, timed by `StepClock`.
* score-stream: one unit is one scored window, and is its only operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wavelearn import analysis, audio, datasets, errors, network, persist, training
from wavelearn.network import SharingMode

from tracer import Layer, Patch

RECON_TOL = 1e-8
MIN_AUC = 0.90
MIN_ACCURACY = 0.95


class CheckFailed(Exception):
    """An output check failed during set-up."""


# ---------------------------------------------------------------------------
# traced layers


def _corr_macs(x, f, *_, **__):
    return (np.size(x) // 2) * np.size(f)


def _upsample_macs(v, f, *_, **__):
    return np.size(v) * np.size(f)


def _kernel_grad_macs(upstream, x, taps, *_, **__):
    return np.size(upstream) * int(taps)


LAYERS = [
    Layer("wavelet.strided_corr", "wavelet", "strided_corr", _corr_macs),
    Layer("wavelet.upsample_conv", "wavelet", "upsample_conv", _upsample_macs),
    Layer("wavelet.kernel_grad", "wavelet", "kernel_grad", _kernel_grad_macs),
    Layer("wavelet.cqf_from_scaling", "wavelet", "cqf_from_scaling"),
    Layer("network.forward_trace", "network", "forward_trace"),
    Layer("network.model_forward", "network", "model_forward"),
    Layer("network.bank_for_level", "network", "WaveletNet.bank_for_level"),
    Layer("network.ht_activation", "network", "ht_activation"),
    Layer("network.ht_gate_derivatives", "network", "ht_gate_derivatives"),
    Layer("training.backward_full", "training", "backward_full"),
    Layer("training.adam_step", "training", "adam_step"),
    Layer("training.train", "training", "train"),
    Layer("analysis.extract_features", "analysis", "extract_features"),
    Layer("analysis.elm_score", "analysis", "elm_score"),
    Layer("analysis.dict_classify", "analysis", "dict_classify"),
    Layer("analysis.elm_fit", "analysis", "elm_fit"),
    Layer("analysis.roc_auc", "analysis", "roc_auc"),
    Layer("audio.read_wav", "audio", "read_wav"),
    Layer("audio.decimate", "audio", "decimate"),
    Layer("datasets.load_windows", "datasets", "load_windows"),
    Layer("datasets.generate_synthetic", "datasets", "generate_synthetic"),
    Layer("persist.save_model", "persist", "save_model"),
    Layer("persist.load_model", "persist", "load_model"),
    Layer("persist.save_dictionary", "persist", "save_dictionary"),
    Layer("persist.load_dictionary", "persist", "load_dictionary"),
]
PRIMITIVES = ("wavelet.strided_corr", "wavelet.upsample_conv", "wavelet.kernel_grad")


# ---------------------------------------------------------------------------
# shared pieces


class Digest:
    """SHA-256 over arrays and scalars, to compare two runs' outputs bitwise."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, *items) -> "Digest":
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self._hash.update(f"{arr.dtype}{arr.shape}".encode())
                self._hash.update(arr.tobytes())
            else:
                self._hash.update(repr(item).encode())
        return self

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def all_finite(*values) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(v, dtype=float)))) for v in values)


def probe_reconstruction(length: int, levels: int, seed: int) -> None:
    """Raise CheckFailed if a fresh fixed-db4 model reconstructs a random
    probe with an error above RECON_TOL."""
    probe = np.random.default_rng(seed).normal(size=length)
    model = network.WaveletNet(levels, 8, SharingMode.DB4_FIXED)
    err = float(np.max(np.abs(network.model_forward(probe, model).reconstruction - probe)))
    if not err <= RECON_TOL:
        raise CheckFailed(f"fresh db4 model reconstructs a probe with error {err:.3e}")


@dataclass
class Unit:
    """Result of one closed-loop unit."""

    ops: int                  # operations attempted
    failed: int               # operations that failed
    op_ms: list[float]        # time of each completed operation
    windows: int              # windows trained on or scored
    seconds: float            # wall time of the unit
    outputs: dict = field(default_factory=dict)


class StepClock:
    """Times each Adam update made inside `training.train`, from outside the
    package. A step lasts from the end of the previous step (or the start of
    the `train` call) to the end of its `adam_step`."""

    def __init__(self):
        self.step_ms: list[float] = []
        self.finite_grads: list[bool] = []
        self._last = 0.0
        self._patch = Patch()

    def start_call(self) -> None:
        self._last = time.perf_counter()

    def __enter__(self) -> "StepClock":
        inner = training.adam_step

        def clocked(*args, **kwargs):
            out = inner(*args, **kwargs)
            now = time.perf_counter()
            self.step_ms.append((now - self._last) * 1e3)
            grads = args[1] if len(args) > 1 else kwargs["grads"]
            self.finite_grads.append(bool(np.all(np.isfinite(grads))))
            self._last = time.perf_counter()
            return out

        if self._patch.replace(inner, clocked) == 0:
            raise RuntimeError("training.adam_step is not referenced by the package")
        return self

    def __exit__(self, *exc) -> None:
        self._patch.restore()


# ---------------------------------------------------------------------------
# training workloads


@dataclass
class TrainState:
    seed: int
    signals: list[np.ndarray]


class TrainWorkload:
    """Closed loop of `train()` calls in mode despawn, each a fresh model."""

    min_units = 1
    loop_never_calls = ()
    metric_names = {"windows_per_s": "train_windows_per_s", "op": "train_step_ms"}

    def __init__(self, name: str, why: str, window: int, n_windows: int,
                 levels: int, batch_size: int, epochs: int, setup_repeats: int,
                 trace_units: int, wav_decimate: int = 0):
        self.name = name
        self.setup_repeats = setup_repeats
        self.trace_units = trace_units
        self.why = why
        self.window = window
        self.n_windows = n_windows
        self.levels = levels
        self.batch_size = batch_size
        self.epochs = epochs
        self.wav_decimate = wav_decimate
        self.clock = StepClock()

    def describe(self) -> dict:
        return {"mode": "despawn", "window": self.window, "windows": self.n_windows,
                "levels": self.levels, "kernel_size": 8, "batch_size": self.batch_size,
                "epochs_per_call": self.epochs,
                "ingest": f"16-bit WAV, decimate {self.wav_decimate}" if self.wav_decimate
                else "in memory"}

    def setup(self, seed: int, scratch: Path) -> TrainState:
        probe_reconstruction(self.window, self.levels, seed)
        factor = max(1, self.wav_decimate)
        spec = datasets.SyntheticSpec(task="detect", window=self.window * factor,
                                      n_train=self.n_windows, n_test=0)
        records = datasets.generate_synthetic(spec, seed=seed)
        if self.wav_decimate:
            signals = _ingest_as_wav(records, scratch, self.window, self.wav_decimate)
        else:
            signals = [r.samples for r in records]
        if len(signals) != self.n_windows or any(s.size != self.window for s in signals):
            raise CheckFailed("set-up produced windows of the wrong number or length")
        return TrainState(seed=seed, signals=signals)

    def setup_digest(self, state: TrainState) -> str:
        return Digest().add(*state.signals).hexdigest()

    def running(self):
        return self.clock

    def unit(self, state: TrainState, index: int) -> Unit:
        config = training.TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size, levels=self.levels,
            kernel_size=8, seed=state.seed * 1000 + index)
        per_epoch = math.ceil(len(state.signals) / self.batch_size)
        expected = self.epochs * per_epoch
        first = len(self.clock.step_ms)
        self.clock.start_call()
        start = time.perf_counter()
        try:
            report = training.train(state.signals, SharingMode.PER_LEVEL_CQF_HT, config)
        except errors.WavelearnError as exc:
            report, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - start
        step_ms = self.clock.step_ms[first:]
        # a step fails on a non-finite gradient, inside an epoch with a
        # non-finite loss, or by not running at all
        bad = [not ok for ok in self.clock.finite_grads[first:]]
        bad += [True] * (expected - len(bad))
        outputs = {"error": error, "history": None}
        if report is not None:
            history = [tuple(float(v) for v in triple) for triple in report.loss_history]
            for epoch, triple in enumerate(history):
                if not all_finite(triple):
                    bad[epoch * per_epoch:(epoch + 1) * per_epoch] = [True] * per_epoch
            outputs = {"error": None, "history": history,
                       "params": report.final_model.get_parameters()}
        return Unit(ops=expected, failed=sum(bad[:expected]), op_ms=step_ms,
                    windows=self.epochs * len(state.signals), seconds=seconds,
                    outputs=outputs)

    def unit_digest(self, digest: Digest, unit: Unit) -> None:
        digest.add(unit.outputs["error"], unit.outputs["history"])
        if unit.outputs["history"] is not None:
            digest.add(unit.outputs["params"])

    def check(self, state: TrainState, units: list[Unit]) -> tuple[list[str], dict]:
        problems = []
        for i, unit in enumerate(units):
            history = unit.outputs["history"]
            if history is None:
                problems.append(f"train call {i}: {unit.outputs['error']}")
            elif not all_finite(history):
                problems.append(f"train call {i}: non-finite epoch loss")
            elif not history[-1][0] < history[0][0]:
                problems.append(f"train call {i}: last epoch loss {history[-1][0]:.6g} "
                                f"not below first {history[0][0]:.6g}")
        drops = [u.outputs["history"][0][0] - u.outputs["history"][-1][0]
                 for u in units if u.outputs["history"]]
        return problems, {"calls": len(units),
                          "min_loss_drop": min(drops) if drops else None}


def _ingest_as_wav(records, scratch: Path, window: int, factor: int,
                   per_file: int = 4) -> list[np.ndarray]:
    """Write the windows as 16-bit WAVs at `factor` times the target rate,
    `per_file` windows to a file, and read them back through a manifest that
    declares the decimation."""
    rate = 16000 * factor
    entries = []
    for f in range(0, len(records), per_file):
        name = f"machine_{f // per_file:02d}.wav"
        samples = np.concatenate([r.samples for r in records[f:f + per_file]])
        audio.write_wav(scratch / name, 0.5 * samples, rate)
        entries.append(datasets.ManifestEntry(path=name, label="normal", split="train"))
    manifest = datasets.DatasetManifest(sample_rate=rate, window_size=window,
                                        entries=entries, decimate=factor)
    datasets.save_manifest(manifest, scratch / "manifest.json")
    loaded = datasets.load_manifest(scratch / "manifest.json")
    return [w.samples for w in datasets.load_windows(loaded, "train")]


# ---------------------------------------------------------------------------
# scoring workload

DETECT_TRAIN = 64        # windows the detect model trains on
ELM_TRAIN = 200          # normal windows the ELM is fitted to
ELM_CANDIDATES = 32      # ELM draws, one kept by validation AUC
VALIDATION = 200         # per kind: normal, impulse, shift
HELD_OUT = 200           # per kind: normal, impulse, shift, A, B
CLASS_TRAIN = 16         # per class


@dataclass
class ScoreState:
    seed: int
    model: object
    elm: object
    dictionary: object
    pool: list[tuple[np.ndarray, str]]
    order: list[int] = field(default_factory=list)
    validation_auc: float = 0.0


class ScoreStream:
    """One caller scoring held-out windows one at a time: features, one-class
    score and dictionary class for every window."""

    name = "score-stream"
    metric_names = {"windows_per_s": "score_windows_per_s", "op": "score_ms"}
    setup_repeats = 3
    trace_units = 5 * HELD_OUT  # one pass over the pool
    # the read path must not train: traced runs fail if the loop calls these
    loop_never_calls = ("training.train", "training.backward_full", "training.adam_step")

    def __init__(self, why: str):
        self.why = why

    def describe(self) -> dict:
        return {"window": 1024, "levels": 10, "detect_mode": "despawn",
                "dictionary_mode": "decwn", "pool": 5 * HELD_OUT,
                "elm_candidates": ELM_CANDIDATES}

    @property
    def min_units(self) -> int:
        return 5 * HELD_OUT

    def setup(self, seed: int, scratch: Path) -> ScoreState:
        probe_reconstruction(1024, 10, seed)

        def synth(task, n_train, n_test, offset):
            spec = datasets.SyntheticSpec(task=task, n_train=n_train, n_test=n_test)
            return datasets.generate_synthetic(spec, seed=seed + offset)

        normal = [r.samples for r in synth("detect", ELM_TRAIN, 0, 0)]
        validation = synth("detect", 0, VALIDATION, 1)
        held_out = synth("detect", 0, HELD_OUT, 2) + synth("classify", 0, HELD_OUT, 3)
        by_class: dict[str, list] = {}
        for r in synth("classify", CLASS_TRAIN, 0, 4):
            by_class.setdefault(r.label, []).append(r.samples)

        report = training.train(normal[:DETECT_TRAIN], SharingMode.PER_LEVEL_CQF_HT,
                                training.TrainConfig(epochs=4, learning_rate=1e-2,
                                                     levels=10, seed=seed))
        model = report.final_model
        dictionary, _ = analysis.dict_train(
            by_class, SharingMode.SHARED_CQF_HT,
            training.TrainConfig(epochs=6, levels=10, seed=seed))

        # the one-class ELM is a random draw; keep the best of several by AUC
        # on a validation set disjoint from the scored stream
        features = [analysis.extract_features(x, model) for x in normal]
        val_features = [analysis.extract_features(r.samples, model) for r in validation]
        val_labels = np.array([r.label != "normal" for r in validation])
        best_auc, elm = -1.0, None
        for k in range(ELM_CANDIDATES):
            candidate = analysis.elm_fit(features, neurons=50, ridge_lambda=1e-3,
                                         seed=seed * ELM_CANDIDATES + k)
            scores = np.array([analysis.elm_score(candidate, f) for f in val_features])
            auc = analysis.roc_auc(scores, val_labels)
            if auc > best_auc:
                best_auc, elm = auc, candidate

        model, elm, dictionary = self._round_trip(scratch, model, elm, dictionary)
        pool = [(r.samples, r.label) for r in held_out]
        return ScoreState(seed=seed, model=model, elm=elm, dictionary=dictionary,
                          pool=pool, validation_auc=best_auc)

    @staticmethod
    def _round_trip(scratch: Path, model, elm, dictionary):
        """Save and reload every model; the reload must be bit-exact."""
        persist.save_model(model, scratch / "detect.json")
        persist.save_elm(elm, scratch / "elm.json")
        persist.save_dictionary(dictionary, scratch / "dictionary.json")
        loaded = persist.load_model(scratch / "detect.json")
        loaded_elm = persist.load_elm(scratch / "elm.json")
        loaded_dict = persist.load_dictionary(scratch / "dictionary.json")
        same = np.array_equal(loaded.get_parameters(), model.get_parameters())
        same &= all(np.array_equal(getattr(loaded_elm, k), getattr(elm, k))
                    for k in ("hidden_weights", "hidden_bias", "output_weights",
                              "scaler_mean", "scaler_std"))
        same &= loaded_dict.labels() == dictionary.labels()
        same &= all(np.array_equal(loaded_dict.class_models[c].get_parameters(),
                                   dictionary.class_models[c].get_parameters())
                    for c in dictionary.labels())
        if not same:
            raise CheckFailed("a persisted model did not reload bit-exactly")
        return loaded, loaded_elm, loaded_dict

    def setup_digest(self, state: ScoreState) -> str:
        digest = Digest().add(state.model.get_parameters())
        for label in state.dictionary.labels():
            digest.add(state.dictionary.class_models[label].get_parameters())
        digest.add(state.elm.hidden_weights, state.elm.output_weights, state.validation_auc)
        for x, label in state.pool:
            digest.add(x, label)
        return digest.hexdigest()

    def running(self):
        return contextlib.nullcontext()

    def unit(self, state: ScoreState, index: int) -> Unit:
        while index >= len(state.order):
            rng = np.random.default_rng([state.seed, len(state.order)])
            state.order.extend(rng.permutation(len(state.pool)).tolist())
        idx = state.order[index]
        x, _ = state.pool[idx]
        start = time.perf_counter()
        try:
            features = analysis.extract_features(x, state.model)
            score = analysis.elm_score(state.elm, features)
            predicted, losses = analysis.dict_classify(x, state.dictionary)
        except errors.WavelearnError as exc:
            seconds = time.perf_counter() - start
            return Unit(ops=1, failed=1, op_ms=[seconds * 1e3], windows=1, seconds=seconds,
                        outputs={"idx": idx, "error": f"{type(exc).__name__}: {exc}"})
        seconds = time.perf_counter() - start
        ok = all_finite(features.vector(), score, list(losses.values()))
        return Unit(ops=1, failed=0 if ok else 1, op_ms=[seconds * 1e3], windows=1,
                    seconds=seconds,
                    outputs={"idx": idx, "error": None, "score": float(score),
                             "predicted": predicted, "losses": losses,
                             "features": features.vector()})

    def unit_digest(self, digest: Digest, unit: Unit) -> None:
        out = unit.outputs
        digest.add(out["idx"], out["error"])
        if out["error"] is None:
            digest.add(out["score"], out["predicted"], sorted(out["losses"].items()),
                       out["features"])

    def check(self, state: ScoreState, units: list[Unit]) -> tuple[list[str], dict]:
        problems = []
        first: dict[int, Unit] = {}
        for unit in units:
            out = unit.outputs
            if out["error"] is not None:
                problems.append(f"window {out['idx']}: {out['error']}")
                continue
            seen = first.setdefault(out["idx"], unit).outputs
            if (seen["score"], seen["predicted"]) != (out["score"], out["predicted"]):
                problems.append(f"window {out['idx']} scored differently on a repeat")
        if len(first) < len(state.pool):
            problems.append(f"only {len(first)} of {len(state.pool)} windows scored")
            return problems, {}
        detect = [(first[i].outputs["score"], state.pool[i][1] != "normal")
                  for i in first if state.pool[i][1] in ("normal", "impulse", "shift")]
        classes = [(first[i].outputs["predicted"], state.pool[i][1])
                   for i in first if state.pool[i][1] in ("A", "B")]
        scores, labels = (np.array(v) for v in zip(*detect))
        auc = analysis.roc_auc(scores, labels)
        accuracy = float(np.mean([p == t for p, t in classes]))
        if not auc >= MIN_AUC:
            problems.append(f"detect AUC {auc:.4f} below {MIN_AUC}")
        if not accuracy >= MIN_ACCURACY:
            problems.append(f"dictionary accuracy {accuracy:.4f} below {MIN_ACCURACY}")
        summary = {"detect_auc": auc, "validation_auc": state.validation_auc,
                   "dictionary_accuracy": accuracy, "distinct_windows": len(first)}
        return problems, summary



WORKLOADS = {
    "train-detect": TrainWorkload(
        "train-detect",
        "200 short windows at L=10: per-call Python overhead in wavelet/network/training dominates",
        window=1024, n_windows=200, levels=10, batch_size=8, epochs=2, setup_repeats=25,
        trace_units=4),
    "train-long": TrainWorkload(
        "train-long",
        "160 000-sample windows at L=17 ingested from WAV: per-sample array work dominates",
        window=160_000, n_windows=8, levels=17, batch_size=2, epochs=3, setup_repeats=5,
        trace_units=6, wav_decimate=2),
    "score-stream": ScoreStream(
        "one caller scoring held-out windows one at a time: the forward-only read path"),
}
