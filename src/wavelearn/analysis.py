"""Downstream heads: latent-feature extraction, one-class scoring with a
random-hidden-layer network, ROC-AUC, and per-class-model classification."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, InvalidSignalError, UndefinedMetricError, as_integer, as_real
from .network import SharingMode, WaveletNet, loss_terms, model_forward, sigmoid
from .training import TrainConfig, TrainReport, train


@dataclass
class LatentFeatures:
    """Per-window summary of a forward pass: residual statistics plus the
    mean and max absolute detail coefficient of every level. Dimension is
    always 2 + 2*levels regardless of window length."""

    res_mean: float
    res_max: float
    l1_mean: np.ndarray  # length L
    l1_max: np.ndarray   # length L

    def vector(self) -> np.ndarray:
        return np.concatenate([[self.res_mean, self.res_max],
                               self.l1_mean, self.l1_max])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "LatentFeatures":
        vec = np.asarray(vec, dtype=float)
        if vec.size < 4 or vec.size % 2:
            raise ConfigError(f"feature vector length {vec.size} is not 2 + 2L")
        levels = (vec.size - 2) // 2
        return cls(res_mean=float(vec[0]), res_max=float(vec[1]),
                   l1_mean=vec[2:2 + levels].copy(),
                   l1_max=vec[2 + levels:].copy())


def extract_features(signal, model: WaveletNet) -> LatentFeatures:
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise InvalidSignalError("extract_features takes one 1-D signal")
    record = model_forward(signal, model)
    residual = np.abs(signal - record.reconstruction)
    magnitude = np.abs(record.details)
    starts = record.offsets[:-1]
    return LatentFeatures(
        res_mean=float(residual.mean()),
        res_max=float(residual.max()),
        l1_mean=np.add.reduceat(magnitude, starts, axis=-1) / np.diff(record.offsets),
        l1_max=np.maximum.reduceat(magnitude, starts, axis=-1),
    )


# ---------------------------------------------------------------------------
# one-class scoring

@dataclass
class OneClassElm:
    """Single hidden layer with fixed random weights and a ridge-regressed
    readout trained to the constant target 1 on normal data. The anomaly
    score of a sample is its deviation |1 - prediction|."""

    hidden_weights: np.ndarray   # (dim, neurons)
    hidden_bias: np.ndarray      # (neurons,)
    output_weights: np.ndarray   # (neurons,)
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    ridge_lambda: float
    seed: int

    @property
    def neurons(self) -> int:
        return self.hidden_bias.size

    def _hidden(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.scaler_mean) / self.scaler_std
        return sigmoid(z @ self.hidden_weights + self.hidden_bias)

    def predict(self, features: LatentFeatures) -> float:
        x = features.vector()
        if x.size != self.scaler_mean.size:
            raise ConfigError(f"feature dimension {x.size} != fitted {self.scaler_mean.size}")
        if not np.isfinite(x).all():
            raise ConfigError("feature vector holds non-finite entries")
        return float(self._hidden(x[None, :])[0] @ self.output_weights)


def elm_fit(features: list[LatentFeatures], neurons: int = 50,
            ridge_lambda: float = 1e-3, seed: int = 0) -> OneClassElm:
    """Standardize by training statistics, draw the hidden layer from the
    seed, and ridge-solve the readout to the target 1.

    Hidden weights and biases are uniform in [-1, 1] scaled by
    1/sqrt(dimension): unscaled draws saturate the sigmoid on standardized
    inputs once a sample sits several sigmas out, which flattens the score
    surface exactly where anomalies live.
    """
    if not features:
        raise ConfigError("cannot fit a one-class model on an empty set")
    neurons = as_integer(neurons, "neurons", 1)
    ridge_lambda = as_real(ridge_lambda, "ridge", strict=True)
    seed = as_integer(seed, "seed", 0)
    vectors = [f.vector() for f in features]
    if len({v.size for v in vectors}) > 1:
        raise ConfigError(f"feature dimensions differ: {sorted({v.size for v in vectors})}")
    x = np.stack(vectors)
    if not np.isfinite(x).all():
        raise ConfigError("training feature vectors hold non-finite entries")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std == 0.0] = 1.0  # constant dimensions pass through unscaled
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(x.shape[1])
    w = rng.uniform(-1.0, 1.0, size=(x.shape[1], neurons)) * scale
    b = rng.uniform(-1.0, 1.0, size=neurons) * scale
    h = sigmoid(((x - mean) / std) @ w + b)
    gram = h.T @ h + ridge_lambda * np.eye(neurons)
    beta = np.linalg.solve(gram, h.T @ np.ones(x.shape[0]))
    return OneClassElm(hidden_weights=w, hidden_bias=b, output_weights=beta,
                       scaler_mean=mean, scaler_std=std,
                       ridge_lambda=ridge_lambda, seed=seed)


def elm_score(model: OneClassElm, features: LatentFeatures) -> float:
    """Anomaly score |1 - prediction|; larger means more anomalous."""
    return abs(1.0 - model.predict(features))


# ---------------------------------------------------------------------------
# metrics

def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, ties
    counted half (rank form of the Mann-Whitney statistic)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError("scores and labels must be 1-D and the same length")
    pos = labels.astype(bool)
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    if np.isnan(scores).any():  # unordered: the ranks would follow input order
        raise UndefinedMetricError("AUC is undefined for NaN scores")
    # a tie group holding sorted places first..last shares the 1-based
    # average rank (first + last)/2 + 1
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts) - 1
    ranks = (0.5 * (last - counts + 1 + last) + 1.0)[group]
    rank_sum = ranks[pos].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# per-class-model classification

@dataclass(frozen=True)
class DictionaryModel:
    """One model per class; a sample is assigned to the class whose model
    gives it the smallest total loss. At least two classes, whose models
    share one mode, depth, kernel size and gamma, so that they stack.
    Immutable, as its models are: `class_models` is a read-only mapping."""

    class_models: Mapping[str, WaveletNet]
    _stacked: WaveletNet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        models = dict(self.class_models)
        if len(models) < 2:
            raise ConfigError(f"a dictionary needs at least two classes, got {len(models)}")
        if len({(m.mode, m.levels, m.kernel_size, m.gamma) for m in models.values()}) > 1:
            raise ConfigError("class models must share one mode, depth, kernel size and gamma")
        object.__setattr__(self, "class_models", MappingProxyType(models))
        object.__setattr__(self, "_stacked", models[self.labels()[0]].with_parameters(
            np.stack([models[label].get_parameters() for label in self.labels()])))

    def labels(self) -> list[str]:
        return sorted(self.class_models)

    def stacked(self) -> WaveletNet:
        """The class models in `labels` order as one row-stacked model
        (`network` module notes), each trainable parameter theirs stacked
        row by row. Built once, with the dictionary: neither can change."""
        return self._stacked


def dict_train(class_datasets: dict[str, list], mode: SharingMode,
               config: TrainConfig) -> tuple[DictionaryModel, dict[str, TrainReport]]:
    """Train one model per class with the identical config (same seed for
    comparability)."""
    if len(class_datasets) < 2:
        raise ConfigError("classification needs at least two classes")
    for label, signals in class_datasets.items():
        if not signals:
            raise ConfigError(f"class {label!r} has no training signals")
    reports = {}
    models = {}
    for label in sorted(class_datasets):
        report = train(class_datasets[label], mode, config)
        models[label] = report.final_model
        reports[label] = report
    return DictionaryModel(class_models=models), reports


def dict_classify(signal, dictionary: DictionaryModel) -> tuple[str, dict[str, float]]:
    """Label of the minimal-loss class model; exact ties break toward the
    lexicographically smallest label.

    One forward pass scores every class: the window, broadcast to a (C, N)
    block, runs row r under the r-th label's model of the row-stacked
    dictionary, so each label's loss is byte for byte its model's loss on
    the window alone."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise InvalidSignalError("dict_classify takes one 1-D signal")
    labels = dictionary.labels()
    block = np.broadcast_to(signal, (len(labels), signal.size))
    rows = dictionary.stacked()
    totals = loss_terms(model_forward(block, rows), block, rows.gamma)[0]
    losses = dict(zip(labels, totals.tolist()))
    best = min(labels, key=lambda lab: (losses[lab], lab))
    return best, losses
