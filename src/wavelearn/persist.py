"""Serialization: models, one-class scorers and dictionaries as JSON, feature
and score tables as CSV.

Floats go through Python's shortest-round-trip repr, so every load reproduces
the saved values bit-exactly.

A model document keys each kernel by its parameter name (``h.shared`` as
``shared_h``; ``h``/``g``/``hb``/``gb`` of level l as ``h``/``g``/``h_bar``/
``g_bar`` in ``level_params[l]``), so it never depends on the mode. The
``seed`` key older versions wrote is ignored."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .analysis import DictionaryModel, LatentFeatures, OneClassElm
from .errors import ConfigError, FormatError
from .network import DEFAULT_SHARPNESS, SharingMode, WaveletNet

MODEL_FORMAT_VERSION = 1
_KIND_KEYS = {"h": "h", "g": "g", "hb": "h_bar", "gb": "g_bar"}


def _kernel_slots(doc: dict, model: WaveletNet):
    """(record, key, parameter name) of every kernel the model stores."""
    for name in model.params:
        kind, _, where = name.partition(".")
        if where == "shared":
            yield doc, f"shared_{kind}", name
        elif where:
            yield doc["level_params"][int(where)], _KIND_KEYS[kind], name


def _field(record, key: str):
    if not isinstance(record, dict) or key not in record:
        raise FormatError(f"model document lacks {key!r}")
    return record[key]


def _model_doc(model: WaveletNet) -> dict:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": model.mode.value,
        "levels": model.levels,
        "kernel_size": model.kernel_size,
        "alpha": model.sharpness,
        "gamma": model.gamma,
        "level_params": [
            {"b_plus": float(model.params["b_plus"][l]),
             "b_minus": float(model.params["b_minus"][l])}
            for l in range(model.levels)
        ],
    }
    for record, key, name in _kernel_slots(doc, model):
        record[key] = model.params[name].tolist()
    return doc


def _model_from_doc(doc: dict) -> WaveletNet:
    if _field(doc, "format_version") != MODEL_FORMAT_VERSION:
        raise FormatError(
            f"unsupported model format version {doc.get('format_version')!r}"
        )
    model = WaveletNet(
        levels=int(_field(doc, "levels")),
        kernel_size=int(_field(doc, "kernel_size")),
        mode=SharingMode.from_name(_field(doc, "mode")),
        gamma=float(_field(doc, "gamma")),
        sharpness=float(doc.get("alpha", DEFAULT_SHARPNESS)),
    )
    records = _field(doc, "level_params")
    if not isinstance(records, list) or len(records) != model.levels:
        raise FormatError(
            f"level_params must hold one record per level ({model.levels})"
        )
    for l, record in enumerate(records):
        model.params["b_plus"][l] = float(_field(record, "b_plus"))
        model.params["b_minus"][l] = float(_field(record, "b_minus"))
    for record, key, name in _kernel_slots(doc, model):
        taps = np.asarray(_field(record, key), dtype=float)
        if taps.shape != (model.kernel_size,) or not np.all(np.isfinite(taps)):
            raise FormatError(
                f"kernel {key!r} of {name} must hold {model.kernel_size} finite taps"
            )
        model.params[name] = taps
    return model


def save_model(model: WaveletNet, path) -> None:
    Path(path).write_text(json.dumps(_model_doc(model), indent=1))


def load_model(path) -> WaveletNet:
    return _model_from_doc(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# one-class scorer

def save_elm(elm: OneClassElm, path) -> None:
    doc = {
        "neurons": elm.neurons,
        "ridge_lambda": elm.ridge_lambda,
        "seed": elm.seed,
        "hidden_weights": elm.hidden_weights.tolist(),
        "hidden_bias": elm.hidden_bias.tolist(),
        "output_weights": elm.output_weights.tolist(),
        "scaler_mean": elm.scaler_mean.tolist(),
        "scaler_std": elm.scaler_std.tolist(),
    }
    Path(path).write_text(json.dumps(doc))


def load_elm(path) -> OneClassElm:
    doc = json.loads(Path(path).read_text())
    return OneClassElm(
        hidden_weights=np.asarray(doc["hidden_weights"], dtype=float),
        hidden_bias=np.asarray(doc["hidden_bias"], dtype=float),
        output_weights=np.asarray(doc["output_weights"], dtype=float),
        scaler_mean=np.asarray(doc["scaler_mean"], dtype=float),
        scaler_std=np.asarray(doc["scaler_std"], dtype=float),
        ridge_lambda=float(doc["ridge_lambda"]),
        seed=int(doc["seed"]),
    )


def save_dictionary(dictionary: DictionaryModel, path) -> None:
    doc = {
        "gamma": dictionary.gamma,
        "classes": {
            label: _model_doc(model)
            for label, model in dictionary.class_models.items()
        },
    }
    Path(path).write_text(json.dumps(doc))


def load_dictionary(path) -> DictionaryModel:
    doc = json.loads(Path(path).read_text())
    return DictionaryModel(
        class_models={
            label: _model_from_doc(mdoc)
            for label, mdoc in doc["classes"].items()
        },
        gamma=float(doc["gamma"]),
    )


# ---------------------------------------------------------------------------
# tables

def feature_header(levels: int) -> list[str]:
    return (["id", "res_mean", "res_max"]
            + [f"l1_mean_{l}" for l in range(1, levels + 1)]
            + [f"l1_max_{l}" for l in range(1, levels + 1)])


def write_features_csv(rows: list[tuple[str, LatentFeatures]], path) -> None:
    """One row per window: id plus the 2 + 2L feature values, full precision."""
    if not rows:
        raise ConfigError("no feature rows to write")
    levels = rows[0][1].l1_mean.size
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(feature_header(levels))
        for row_id, feats in rows:
            vec = feats.vector()
            if feats.l1_mean.size != levels:
                raise ConfigError("inconsistent feature dimensions")
            writer.writerow([row_id] + [repr(float(v)) for v in vec])


def read_features_csv(path) -> list[tuple[str, LatentFeatures]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) < 5 or header[0] != "id":
            raise FormatError(f"unexpected feature header in {path}")
        rows = []
        for rec in reader:
            vec = np.array([float(v) for v in rec[1:]])
            rows.append((rec[0], LatentFeatures.from_vector(vec)))
    return rows


def write_scores_csv(rows: list[tuple[str, float]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "score"])
        for row_id, score in rows:
            writer.writerow([row_id, repr(float(score))])


def read_scores_csv(path) -> list[tuple[str, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(rec[0], float(rec[1])) for rec in reader]
