"""Downstream heads: latent-feature extraction, one-class scoring with a
random-hidden-layer network, ROC-AUC, and per-class-model classification.

The objects they pass are immutable and derive what their readers need once,
at construction: `LatentFeatures` whether its vector is finite, `OneClassElm`
its scoring map with the scaler folded into the weights, and
`DictionaryModel` its row-stacked model."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import (ConfigError, InvalidSignalError, UndefinedMetricError, as_floats, as_integer,
                     as_real, as_signal)
from .network import SharingMode, WaveletNet, loss_terms, model_forward
from .training import TrainConfig, TrainReport, train


@dataclass(frozen=True, init=False, eq=False)
class LatentFeatures:
    """Per-window summary of a forward pass: one read-only (2 + 2L,) vector
    [res_mean, res_max, *l1_mean, *l1_max], the mean and max of the absolute
    residual, then the mean and the max absolute detail coefficient of each
    of L >= 1 levels, level 1 first, whatever the window's length.

    Immutable: it holds its own copy of the vector it is given, and `finite`
    says once whether every entry is finite, for each model that scores the
    window. A vector that is not 1-D real numbers of an even size >= 4
    raises ConfigError."""

    _vector: np.ndarray
    finite: bool

    def __init__(self, vector):
        vec = np.array(as_floats(vector, "feature vector"))
        if vec.ndim != 1 or vec.size < 4 or vec.size % 2:
            raise ConfigError(f"feature vector of shape {vec.shape} is not 2 + 2L long, L >= 1")
        vec.flags.writeable = False
        # past the frozen `__setattr__`, as `WaveletNet` does
        vars(self).update(_vector=vec, finite=bool(np.isfinite(vec).all()))

    def vector(self) -> np.ndarray:
        """The feature vector: the same read-only array on every call."""
        return self._vector


def extract_features(signal, model: WaveletNet) -> LatentFeatures:
    """One 1-D window's `LatentFeatures` under `model`, from one forward pass."""
    signal = as_signal(signal)
    if signal.ndim != 1:
        raise InvalidSignalError("extract_features takes one 1-D signal")
    record = model_forward(signal, model)
    residual = np.abs(signal - record.reconstruction)
    magnitude = np.abs(record.details)
    starts = record.offsets[:-1]
    return LatentFeatures(np.concatenate([
        [residual.mean(), residual.max()],
        np.add.reduceat(magnitude, starts, axis=-1) / np.diff(record.offsets),
        np.maximum.reduceat(magnitude, starts, axis=-1)]))


# ---------------------------------------------------------------------------
# one-class scoring

# the array fields of a OneClassElm
_ELM_ARRAYS = ("hidden_weights", "hidden_bias", "output_weights", "scaler_mean", "scaler_std")


@dataclass(frozen=True)
class OneClassElm:
    """Single hidden layer with fixed random weights and a ridge-regressed
    readout trained to the constant target 1 on normal data. The anomaly
    score of a feature vector x is its deviation |1 - prediction|, with

        prediction = sigmoid(((x - mean) / std) @ W + b) @ beta

    for the hidden weights W, hidden bias b, output weights beta and the
    scaler's mean and std.

    Immutable, with read-only copies of its arrays. It derives its scoring
    map once, at construction: in the sigmoid's tanh form 1/2 + tanh(t/2)/2,
    with the scaler's 1/std and the halving folded into
    W' = W / (2 std)[:, None], b' = b/2 and beta' = beta/2, the prediction
    is sum(beta') + tanh((x - mean) @ W' + b') @ beta'. The mean is
    subtracted apart, not folded into b', so that a feature with a large
    mean and a small spread loses no digits. Inconsistent shapes, no
    neurons, or a W' that is not finite raise ConfigError."""

    hidden_weights: np.ndarray   # (dim, neurons)
    hidden_bias: np.ndarray      # (neurons,)
    output_weights: np.ndarray   # (neurons,)
    scaler_mean: np.ndarray      # (dim,)
    scaler_std: np.ndarray       # (dim,)
    ridge_lambda: float
    seed: int
    # the folded map: W', b', beta' and the prediction's offset 1 - sum(beta')
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _bias: np.ndarray = field(init=False, repr=False, compare=False)
    _readout: np.ndarray = field(init=False, repr=False, compare=False)
    _offset: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = {name: np.array(getattr(self, name), dtype=float) for name in _ELM_ARRAYS}
        w = arrays["hidden_weights"]
        if (w.ndim != 2 or w.shape[1] < 1
                or {arrays["hidden_bias"].shape, arrays["output_weights"].shape} != {w.shape[1:]}
                or {arrays["scaler_mean"].shape, arrays["scaler_std"].shape} != {w.shape[:1]}):
            raise ConfigError("ELM arrays of inconsistent shapes: " + ", ".join(
                f"{name} {a.shape}" for name, a in arrays.items()))
        with np.errstate(all="ignore"):  # a zero or tiny std is caught below
            weights = w / arrays["scaler_std"][:, None] / 2.0
        if not np.isfinite(weights).all():
            raise ConfigError("ELM hidden weights divided by the scaler's std must be finite")
        arrays.update(_weights=weights, _bias=arrays["hidden_bias"] / 2.0,
                      _readout=arrays["output_weights"] / 2.0)
        for value in arrays.values():
            value.flags.writeable = False
        vars(self).update(arrays, _offset=1.0 - float(arrays["_readout"].sum()))

    @property
    def neurons(self) -> int:
        return self.hidden_bias.size

    def tanh_layer(self, x: np.ndarray) -> np.ndarray:
        """tanh((x - mean) @ W' + b') on the feature vector, or the rows, x:
        the hidden layer is 1/2 + this/2."""
        # ndarray.dot skips the matmul ufunc's dispatch, a third of a score
        return np.tanh((x - self.scaler_mean).dot(self._weights) + self._bias)


def elm_fit(features: list[LatentFeatures], neurons: int = 50,
            ridge_lambda: float = 1e-3, seed: int = 0) -> OneClassElm:
    """Standardize by training statistics, draw the hidden layer from the
    seed, and ridge-solve the readout to the target 1. The hidden layer is
    the one the fitted model scores with: a draft model with a zero readout
    derives it.

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
    if not all(f.finite for f in features):
        raise ConfigError("training feature vectors hold non-finite entries")
    x = np.stack(vectors)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    # constant dimensions, whose mean may round off their value, and any whose
    # spread rounds to zero pass through unscaled
    std[(std == 0.0) | (np.ptp(x, axis=0) == 0.0)] = 1.0
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(x.shape[1])
    w = rng.uniform(-1.0, 1.0, size=(x.shape[1], neurons)) * scale
    b = rng.uniform(-1.0, 1.0, size=neurons) * scale
    draft = OneClassElm(hidden_weights=w, hidden_bias=b, output_weights=np.zeros(neurons),
                        scaler_mean=mean, scaler_std=std, ridge_lambda=ridge_lambda, seed=seed)
    h = 0.5 + 0.5 * draft.tanh_layer(x)
    gram = h.T @ h + ridge_lambda * np.eye(neurons)
    beta = np.linalg.solve(gram, h.T @ np.ones(x.shape[0]))
    return replace(draft, output_weights=beta)


def elm_score(model: OneClassElm, features: LatentFeatures) -> float:
    """Anomaly score |1 - prediction|; larger means more anomalous. Reads
    the model's folded map: |1 - sum(beta') - tanh((x - mean) @ W' + b') @ beta'|."""
    x = features.vector()
    if x.size != model.scaler_mean.size:
        raise ConfigError(f"feature dimension {x.size} != fitted {model.scaler_mean.size}")
    if not features.finite:
        raise ConfigError("feature vector holds non-finite entries")
    return float(abs(model._offset - model.tanh_layer(x).dot(model._readout)))


# ---------------------------------------------------------------------------
# metrics

def roc_auc(scores, labels) -> float:
    """Probability that a random positive outscores a random negative, ties
    counted half (rank form of the Mann-Whitney statistic). Scores must
    be real numbers (`as_floats`)."""
    scores = as_floats(scores, "scores")
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

def _check_labels(classes: Mapping) -> None:
    """Class labels are strings: a document stores them so, and `sorted`
    orders them."""
    for label in classes:
        if not isinstance(label, str):
            raise ConfigError(f"class labels must be strings, got {label!r}")


@dataclass(frozen=True)
class DictionaryModel:
    """One model per class; a sample is assigned to the class whose model
    gives it the smallest total loss. At least two classes, labelled by
    strings, whose models share one mode, depth, kernel size and gamma, so
    that they stack; any other label raises ConfigError.
    Immutable, as its models are: `class_models` is a read-only mapping."""

    class_models: Mapping[str, WaveletNet]
    _stacked: WaveletNet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        models = dict(self.class_models)
        if len(models) < 2:
            raise ConfigError(f"a dictionary needs at least two classes, got {len(models)}")
        _check_labels(models)
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
    _check_labels(class_datasets)
    for label, signals in class_datasets.items():
        if len(signals) == 0:
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
    signal = as_signal(signal)
    if signal.ndim != 1:
        raise InvalidSignalError("dict_classify takes one 1-D signal")
    labels = dictionary.labels()
    block = np.broadcast_to(signal, (len(labels), signal.size))
    rows = dictionary.stacked()
    totals = loss_terms(model_forward(block, rows), block, rows.gamma)[0]
    losses = dict(zip(labels, totals.tolist()))
    best = min(labels, key=lambda lab: (losses[lab], lab))
    return best, losses
