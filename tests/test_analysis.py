"""Latent features, one-class scoring, AUC and dictionary classification."""

import math

import numpy as np
import pytest

from wavelearn.analysis import (
    DictionaryModel,
    LatentFeatures,
    dict_classify,
    elm_fit,
    elm_score,
    extract_features,
    roc_auc,
)
from wavelearn.errors import ConfigError, UndefinedMetricError
from wavelearn.network import SharingMode, WaveletNet

S = math.sqrt(0.5)


class TestExtractFeatures:
    def test_perfect_reconstruction_gives_zero_residual(self):
        model = WaveletNet(5, 8, SharingMode.DB4_FIXED)
        x = np.random.default_rng(0).normal(size=512)
        feats = extract_features(x, model)
        assert feats.res_mean <= 1e-8 and feats.res_max <= 1e-8

    def test_constant_signal_has_near_zero_details(self):
        model = WaveletNet(4, 8, SharingMode.DB4_FIXED)
        feats = extract_features(np.full(256, 3.0), model)
        assert np.all(feats.l1_mean <= 1e-9)
        assert np.all(feats.l1_max <= 1e-9)

    def test_two_tap_hand_example(self):
        model = WaveletNet(1, 2, SharingMode.PER_LEVEL_CQF)
        feats = extract_features(np.array([1.0, 2.0, 3.0, 4.0]), model)
        assert feats.l1_mean[0] == pytest.approx(S, abs=1e-12)
        assert feats.l1_max[0] == pytest.approx(S, abs=1e-12)

    def test_dimension_is_two_plus_two_levels(self):
        rng = np.random.default_rng(1)
        for levels, n in ((3, 64), (5, 512), (7, 200)):
            model = WaveletNet(levels, 8, SharingMode.DB4_FIXED)
            feats = extract_features(rng.normal(size=n), model)
            assert feats.vector().size == 2 + 2 * levels

    def test_vector_roundtrip(self):
        feats = LatentFeatures(res_mean=0.5, res_max=2.0,
                               l1_mean=np.array([1.0, 2.0]),
                               l1_max=np.array([3.0, 4.0]))
        back = LatentFeatures.from_vector(feats.vector())
        assert np.array_equal(back.vector(), feats.vector())


def _feature_cloud(rng, n, center):
    out = []
    for _ in range(n):
        vec = center + rng.normal(0, 0.05, center.size)
        out.append(LatentFeatures.from_vector(np.abs(vec)))
    return out


class TestOneClassElm:
    CENTER = np.array([0.1, 0.5, 1.0, 0.8, 0.4, 0.2, 0.3, 0.6])

    def test_training_samples_score_low(self):
        rng = np.random.default_rng(2)
        feats = _feature_cloud(rng, 120, self.CENTER)
        elm = elm_fit(feats, neurons=50, ridge_lambda=1e-3, seed=3)
        scores = [elm_score(elm, f) for f in feats]
        assert np.median(scores) < 0.1

    def test_far_point_outscored_by_training_point(self):
        rng = np.random.default_rng(4)
        feats = _feature_cloud(rng, 80, self.CENTER)
        elm = elm_fit(feats, neurons=50, ridge_lambda=1e-3, seed=3)
        near = elm_score(elm, feats[0])
        far = elm_score(elm, LatentFeatures.from_vector(self.CENTER * 8 + 5.0))
        assert near < far

    def test_scores_nonnegative_and_pure(self):
        rng = np.random.default_rng(5)
        feats = _feature_cloud(rng, 60, self.CENTER)
        elm = elm_fit(feats, neurons=20, ridge_lambda=1e-3, seed=6)
        a = elm_score(elm, feats[10])
        b = elm_score(elm, feats[10])
        assert a == b >= 0.0

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(6)
        feats = _feature_cloud(rng, 60, self.CENTER)
        e1 = elm_fit(feats, neurons=30, ridge_lambda=1e-3, seed=7)
        e2 = elm_fit(feats, neurons=30, ridge_lambda=1e-3, seed=7)
        assert np.array_equal(e1.hidden_weights, e2.hidden_weights)
        assert np.array_equal(e1.output_weights, e2.output_weights)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError):
            elm_fit([], neurons=10, ridge_lambda=1e-3, seed=0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_ridge_rejected(self, ridge):
        feats = _feature_cloud(np.random.default_rng(8), 10, self.CENTER)
        with pytest.raises(ConfigError, match="ridge"):
            elm_fit(feats, neurons=50, ridge_lambda=ridge, seed=0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        feats = _feature_cloud(rng, 30, self.CENTER)
        elm = elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=0)
        other = LatentFeatures.from_vector(np.ones(12))
        with pytest.raises(ConfigError):
            elm_score(elm, other)


def _auc_bruteforce(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.9], [0, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.4, 0.4, 0.4, 0.4], [0, 1, 0, 1]) == 0.5

    def test_hand_counted_pairs(self):
        assert roc_auc([0.2, 0.8, 0.4, 0.6], [0, 1, 1, 0]) == 0.75

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores = rng.integers(0, 6, size=30).astype(float)  # many ties
            labels = rng.integers(0, 2, size=30)
            if labels.sum() in (0, 30):
                continue
            assert roc_auc(scores, labels) == pytest.approx(
                _auc_bruteforce(scores, labels), abs=1e-12)

    def test_negation_antisymmetry(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=40)  # continuous, tie-free
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        assert roc_auc(-scores, labels) == pytest.approx(
            1.0 - roc_auc(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(10)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == base
        assert roc_auc(3 * scores + 11, labels) == base

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.2], [0, 0])


class TestDictClassify:
    def test_identical_models_tie_break_lexicographic(self):
        model_a = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        model_b = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        dictionary = DictionaryModel(
            class_models={"b": model_b, "a": model_a}, gamma=1.0)
        x = np.random.default_rng(11).normal(size=64)
        label, losses = dict_classify(x, dictionary)
        assert label == "a"
        assert losses["a"] == losses["b"]

    def test_lower_loss_model_wins(self):
        # class A reconstructs (fixed bank); class B annihilates details and
        # pays a large residual on a detail-heavy signal
        model_a = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        model_b = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        model_b.params["b_plus"][:] = 1e6
        model_b.params["b_minus"][:] = 1e6
        rng = np.random.default_rng(12)
        x = rng.normal(size=128)  # white noise is detail-dominated
        dictionary = DictionaryModel(
            class_models={"A": model_a, "B": model_b}, gamma=1.0)
        label, losses = dict_classify(x, dictionary)
        assert label == "A"
        assert losses["A"] < losses["B"]

    def test_label_permutation_consistency(self):
        model_a = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        model_b = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        model_b.params["b_plus"][:] = 10.0
        x = np.random.default_rng(13).normal(size=64)
        d1 = DictionaryModel(class_models={"u": model_a, "v": model_b}, gamma=1.0)
        d2 = DictionaryModel(class_models={"v": model_a, "u": model_b}, gamma=1.0)
        l1, _ = dict_classify(x, d1)
        l2, _ = dict_classify(x, d2)
        mapping = {"u": "v", "v": "u"}
        assert l2 == mapping[l1]
