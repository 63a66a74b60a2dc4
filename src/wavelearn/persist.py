"""Serialization: models, one-class scorers and dictionaries as JSON, feature
and score tables as CSV.

Floats go through Python's shortest-round-trip repr, so every load reproduces
the saved values bit-exactly.

A model document stores each kernel of the model's kernel array under its
own key: one set shared by every level as ``shared_h``, and level l's
``h``/``g``/``hb``/``gb`` as ``h``/``g``/``h_bar``/``g_bar`` in
``level_params[l]``, so the format never depends on the mode. The ``seed``
key older versions wrote is ignored. ``alpha`` records the gate's fixed
slope, `network.SHARPNESS`, and a document giving another is refused, as is
one giving nonzero thresholds to a mode that trains none. A
dictionary document holds gamma only in its class models' documents; the
top-level ``gamma`` older versions also wrote must equal theirs."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .analysis import DictionaryModel, LatentFeatures, OneClassElm
from .errors import ConfigError, FormatError, as_integer, as_real
from .network import SHARPNESS, SharingMode, WaveletNet

MODEL_FORMAT_VERSION = 1
# the document key of each kernel kind, in `KernelScheme.kinds` order
_KIND_KEYS = ("h", "g", "h_bar", "g_bar")


def _kernel_slots(doc: dict, scheme, levels: int):
    """(record, key, index into the kernel array) of every kernel a model of
    `scheme` and depth `levels` stores."""
    if scheme.shared:
        return [(doc, f"shared_{kind}", (0, i)) for i, kind in enumerate(scheme.kinds)]
    return [(doc["level_params"][l], _KIND_KEYS[i], (l, i))
            for l in range(levels) for i in range(len(scheme.kinds))]


def read_json(path):
    """The JSON document stored in `path`; anything else is a FormatError."""
    try:
        return json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise FormatError(f"{path} is not a JSON document: {exc}") from None


def _field(record, key: str, rule=None, *args):
    """record[key], read through `rule(value, key, *args)` when a rule is
    given: `as_integer`, `as_real`, `_reals` or `_of_type`. A missing key, or a
    value the rule rejects, is a FormatError naming the key."""
    if not isinstance(record, dict) or key not in record:
        raise FormatError(f"document lacks {key!r}")
    if rule is None:
        return record[key]
    try:
        return rule(record[key], repr(key), *args)
    except ConfigError as exc:
        raise FormatError(f"document field {exc}") from None


def _reals(value, name: str, low: float = -math.inf, strict: bool = False) -> np.ndarray:
    """Nested lists of numbers as a float array, each entry read through
    `as_real(entry, name, low, strict)`."""
    def read(v):
        return [read(x) for x in v] if isinstance(v, list) else as_real(v, name, low, strict)
    try:
        return np.array(read(value), dtype=float)
    except (ValueError, RecursionError):  # ragged, or nested too deep
        raise ConfigError(f"{name} must be a rectangular array") from None


def _of_type(value, name: str, *kinds: type):
    """`value` if it is of one of the JSON types `kinds`: str, list, dict or None."""
    if not isinstance(value, kinds):
        raise ConfigError(f"{name} must be of type "
                          f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


# the stored fields of a OneClassElm and their rules, as strict as `elm_fit`
_ELM_FIELDS = {"hidden_weights": (_reals,), "hidden_bias": (_reals,),
               "output_weights": (_reals,), "scaler_mean": (_reals,),
               "scaler_std": (_reals, 0.0, True), "ridge_lambda": (as_real, 0.0, True),
               "seed": (as_integer, 0)}


def _model_doc(model: WaveletNet) -> dict:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": model.mode.value,
        "levels": model.levels,
        "kernel_size": model.kernel_size,
        "alpha": SHARPNESS,
        "gamma": model.gamma,
        "level_params": [
            {"b_plus": float(model.params["b_plus"][l]),
             "b_minus": float(model.params["b_minus"][l])}
            for l in range(model.levels)
        ],
    }
    for record, key, index in _kernel_slots(doc, model.mode.scheme, model.levels):
        record[key] = model.params["kernels"][index].tolist()
    return doc


def _model_from_doc(doc: dict) -> WaveletNet:
    if _field(doc, "format_version", as_integer, 0) != MODEL_FORMAT_VERSION:
        raise FormatError(f"unsupported model format version {doc['format_version']}")
    mode = SharingMode(_field(doc, "mode"))
    levels = _field(doc, "levels", as_integer, 1)
    kernel_size = _field(doc, "kernel_size", as_integer, 2)
    # the depth and kernel size are checked against what the document holds
    # before the model is built, so a bad one allocates nothing
    records = _field(doc, "level_params", _of_type, list)
    if len(records) != levels:
        raise FormatError(f"level_params must hold one record per level ({levels})")
    slots = _kernel_slots(doc, mode.scheme, levels)
    kernels = [_field(record, key, _reals) for record, key, _ in slots]
    for (_, key, _), taps in zip(slots, kernels):
        if taps.shape != (kernel_size,):
            raise FormatError(f"kernel {key!r} must hold {kernel_size} finite taps")
    if "alpha" in doc and _field(doc, "alpha", as_real) != SHARPNESS:
        raise FormatError(f"model document: alpha must be {SHARPNESS}, got {doc['alpha']}")
    try:
        model = WaveletNet(levels=levels, kernel_size=kernel_size, mode=mode,
                           gamma=_field(doc, "gamma", as_real))
    except ConfigError as exc:
        raise FormatError(f"model document: {exc}") from None
    thresholds = np.array([[_field(record, name, as_real, -math.inf) for record in records]
                           for name in ("b_plus", "b_minus")])
    if not mode.trains_thresholds and thresholds.any():  # no forward pass would read them
        raise FormatError(f"model document: {mode.value} trains no thresholds, got nonzero ones")
    # the slots run in the flat vector's order, and the thresholds follow
    return model.with_parameters(np.concatenate([*kernels, *thresholds])[:model.parameter_count()])


def save_model(model: WaveletNet, path) -> None:
    Path(path).write_text(json.dumps(_model_doc(model), indent=1))


def load_model(path) -> WaveletNet:
    return _model_from_doc(read_json(path))


# ---------------------------------------------------------------------------
# one-class scorer

def save_elm(elm: OneClassElm, path) -> None:
    doc = {name: getattr(elm, name) for name in _ELM_FIELDS}
    Path(path).write_text(json.dumps(doc, default=np.ndarray.tolist))


def load_elm(path) -> OneClassElm:
    doc = read_json(path)
    fields = {name: _field(doc, name, *rule) for name, rule in _ELM_FIELDS.items()}
    try:
        return OneClassElm(**fields)
    except ConfigError as exc:
        raise FormatError(f"ELM document: {exc}") from None


def save_dictionary(dictionary: DictionaryModel, path) -> None:
    doc = {"classes": {label: _model_doc(model)
                       for label, model in dictionary.class_models.items()}}
    Path(path).write_text(json.dumps(doc))


def load_dictionary(path) -> DictionaryModel:
    doc = read_json(path)
    classes = _field(doc, "classes", _of_type, dict)
    models = {label: _model_from_doc(mdoc) for label, mdoc in classes.items()}
    try:
        dictionary = DictionaryModel(class_models=models)
    except ConfigError as exc:
        raise FormatError(f"{path}: {exc}") from None
    gamma = next(iter(models.values())).gamma
    if "gamma" in doc and _field(doc, "gamma", as_real) != gamma:
        raise FormatError(f"{path}: gamma {doc['gamma']} is not the class models' {gamma}")
    return dictionary


# ---------------------------------------------------------------------------
# tables

def feature_header(levels: int) -> list[str]:
    return (["id", "res_mean", "res_max"]
            + [f"l1_mean_{l}" for l in range(1, levels + 1)]
            + [f"l1_max_{l}" for l in range(1, levels + 1)])


def write_table(path, header: list[str], rows) -> None:
    """A CSV table: `header`, then one line per row of the iterable `rows`,
    each written as it comes, str cells as they are and every other cell as
    a float in its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else repr(float(c)) for c in row])


def write_features_csv(rows: list[tuple[str, LatentFeatures]], path) -> None:
    """One row per window: id plus the 2 + 2L feature values, full precision."""
    if not rows:
        raise ConfigError("no feature rows to write")
    sizes = {feats.vector().size for _, feats in rows}
    if len(sizes) > 1:
        raise ConfigError(f"inconsistent feature dimensions: {sorted(sizes)}")
    write_table(path, feature_header((sizes.pop() - 2) // 2),
                ([row_id, *feats.vector()] for row_id, feats in rows))


def _read_table(path, header_for) -> list[tuple[str, np.ndarray]]:
    """The rows of a CSV table, at least one, under the header
    `header_for(n)` of its n columns, as (id, the other cells as floats)."""
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    header = records[0] if records else []
    if header != header_for(len(header)):
        raise FormatError(f"{path} line 1: not the header {','.join(header_for(len(header)))}")
    if len(records) < 2:
        raise FormatError(f"{path} line 2: no row under the header")
    rows = []
    for line, rec in enumerate(records[1:], start=2):
        try:
            if len(rec) != len(header):
                raise ValueError(f"{len(rec)} cells under {len(header)} columns")
            cells = np.array(rec[1:], dtype=float)
            if not np.all(np.isfinite(cells)):
                raise ValueError("non-finite cell")
            rows.append((rec[0], cells))
        except ValueError as exc:
            raise FormatError(f"{path} line {line}: {exc}") from None
    return rows


def read_features_csv(path) -> list[tuple[str, LatentFeatures]]:
    # n columns hold L = (n - 3) / 2 levels, and a table holds at least one
    return [(row_id, LatentFeatures(vec)) for row_id, vec
            in _read_table(path, lambda n: feature_header(max(1, (n - 3) // 2)))]


def write_scores_csv(rows: list[tuple[str, float]], path) -> None:
    write_table(path, ["id", "score"], rows)


def read_scores_csv(path) -> list[tuple[str, float]]:
    return [(row_id, vec.item()) for row_id, vec in _read_table(path, lambda n: ["id", "score"])]
