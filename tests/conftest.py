"""Session fixtures shared by the acceptance suite, and a call counter.

The expensive pipelines (training, feature extraction, scoring) run once per
tag; the determinism criterion compares the two tagged runs bit for bit.
"""

import gc
import sys
import time

import numpy as np
import pytest

from wavelearn.analysis import (
    dict_classify,
    dict_train,
    elm_fit,
    elm_score,
    extract_features,
    roc_auc,
)
from wavelearn.datasets import SyntheticSpec, generate_synthetic
from wavelearn.network import SharingMode
from wavelearn.training import TrainConfig, train

DATA_SEED = 7
MODEL_SEED = 3
ELM_SEED = 11


def _detect_training():
    """The detect fixture: training windows, test records and schedule."""
    spec = SyntheticSpec(task="detect", n_train=200, n_test=50, sigma=0.1)
    records = generate_synthetic(spec, seed=DATA_SEED)
    train_x = [r.samples for r in records if r.split == "train"]
    test = [r for r in records if r.split == "test"]
    return train_x, test, TrainConfig(epochs=50, seed=MODEL_SEED, levels=10)


def _detect_pipeline():
    start = time.perf_counter()
    train_x, test, config = _detect_training()
    report = train(train_x, SharingMode.PER_LEVEL_CQF_HT, config)
    model = report.final_model
    feats_train = [extract_features(x, model) for x in train_x]
    elm = elm_fit(feats_train, neurons=50, ridge_lambda=1e-3, seed=ELM_SEED)
    feats_test = [(r.label, extract_features(r.samples, model)) for r in test]
    scores = np.array([elm_score(elm, f) for _, f in feats_test])
    labels = np.array([0 if lab == "normal" else 1 for lab, _ in feats_test])
    return {
        "report": report,
        "model": model,
        "feats_train": np.stack([f.vector() for f in feats_train]),
        "feats_test": np.stack([f.vector() for _, f in feats_test]),
        "test_labels": [lab for lab, _ in feats_test],
        "scores": scores,
        "auc": roc_auc(scores, labels),
        "elapsed": time.perf_counter() - start,
    }


def _classify_pipeline():
    start = time.perf_counter()
    spec = SyntheticSpec(task="classify", n_train=30, n_test=20, sigma=0.1)
    records = generate_synthetic(spec, seed=DATA_SEED)
    train_by: dict[str, list] = {}
    for r in records:
        if r.split == "train":
            train_by.setdefault(r.label, []).append(r.samples)
    test = [r for r in records if r.split == "test"]
    out = {"test_labels": [r.label for r in test]}
    for mode in (SharingMode.DB4_FIXED, SharingMode.DB4_FIXED_HT,
                 SharingMode.PER_LEVEL_CQF_HT):
        config = TrainConfig(epochs=40, seed=MODEL_SEED, levels=10)
        dictionary, _reports = dict_train(train_by, mode, config)
        predictions = []
        losses = []
        for r in test:
            label, per_class = dict_classify(r.samples, dictionary)
            predictions.append(label)
            losses.append(per_class)
        hits = sum(p == r.label for p, r in zip(predictions, test))
        out[mode.value] = {
            "dictionary": dictionary,
            "predictions": predictions,
            "losses": losses,
            "accuracy": hits / len(test),
        }
    out["elapsed"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def detect_training():
    return _detect_training()


@pytest.fixture(scope="session")
def detect_runs():
    return {tag: _detect_pipeline() for tag in ("first", "second")}


@pytest.fixture(scope="session")
def classify_runs():
    return {tag: _classify_pipeline() for tag in ("first", "second")}


def _count_calls(fn, *args):
    """The calls one warm call `fn(*args)` makes, after one warm-up call,
    counted under sys.setprofile in call order: ("python", name) for a
    function written in Python, ("c", name) for a C function or method.
    Python-level calls include numpy's own wrappers, so the counts belong to
    one numpy version; a ufunc call (np.matmul, an operator) is neither."""
    fn(*args)
    calls = []
    # no collection mid-count: a finalizer it runs would count as a call
    collecting = gc.isenabled()
    gc.disable()

    def record(frame, event, arg):
        if event == "call":
            calls.append(("python", frame.f_code.co_name))
        elif event == "c_call":
            calls.append(("c", arg.__name__))

    sys.setprofile(record)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert calls.pop() == ("c", "setprofile")  # the call that ends the count
    return calls


@pytest.fixture
def count_calls():
    return _count_calls
