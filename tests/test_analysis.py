"""Latent features, one-class scoring, AUC and dictionary classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelearn import network
from wavelearn.analysis import (
    DictionaryModel,
    LatentFeatures,
    OneClassElm,
    dict_classify,
    dict_train,
    elm_fit,
    elm_score,
    extract_features,
    roc_auc,
)
from wavelearn.errors import ConfigError, InvalidSignalError, UndefinedMetricError
from wavelearn.network import SharingMode, WaveletNet, forward_trace, loss_terms, model_forward
from wavelearn.training import TrainConfig
from wavelearn.wavelet import max_depth

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

    def test_block_rejected(self):
        # one feature vector per window: a (B, N) block would average its
        # residual over every row
        model = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        with pytest.raises(InvalidSignalError, match="1-D"):
            extract_features(np.random.default_rng(2).normal(size=(2, 64)), model)

    def test_vector_roundtrip(self):
        feats = LatentFeatures(res_mean=0.5, res_max=2.0,
                               l1_mean=np.array([1.0, 2.0]),
                               l1_max=np.array([3.0, 4.0]))
        back = LatentFeatures.from_vector(feats.vector())
        assert np.array_equal(back.vector(), feats.vector())

    @pytest.mark.parametrize("l1_mean, l1_max", [
        ([1.0, 2.0], [3.0]), ([], []), ([[1.0]], [[2.0]]), (1.0, 2.0)],
        ids=["unequal", "empty", "2-D", "0-D"])
    def test_level_statistics_not_1d_of_one_length_rejected(self, l1_mean, l1_max, tmp_path):
        # each would write a features CSV row that its reader rejects
        with pytest.raises(ConfigError, match="l1_mean and l1_max"):
            LatentFeatures(res_mean=0.1, res_max=0.2, l1_mean=l1_mean, l1_max=l1_max)

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3)])
    def test_vector_not_2_plus_2l_long_rejected(self, shape):
        with pytest.raises(ConfigError, match="2 \\+ 2L"):
            LatentFeatures.from_vector(np.ones(shape))

    @pytest.mark.parametrize("fields", [
        ("x", 0.2, [1.0], [2.0]), (0.1, [0.2, 0.3], [1.0], [2.0]),
        (0.1, 0.2, ["a"], [2.0]), (0.1, 0.2, [1.0], [1j])],
        ids=["text", "sequence", "text level", "complex level"])
    def test_fields_that_are_not_real_numbers_rejected(self, fields):
        with pytest.raises(ConfigError, match="real numbers"):
            LatentFeatures(*fields)

    def test_vector_that_is_not_real_numbers_rejected(self):
        with pytest.raises(ConfigError, match="real numbers"):
            LatentFeatures.from_vector(["0", "1", "2", "3"])

    def test_immutable_with_one_read_only_vector(self):
        l1_mean = np.array([1.0, 2.0])
        feats = LatentFeatures(res_mean=0.5, res_max=2.0, l1_mean=l1_mean,
                               l1_max=np.array([3.0, 4.0]))
        l1_mean[0] = 9.0  # the caller's array is copied, not held
        assert feats.vector() is feats.vector()
        assert feats.vector().tolist() == [0.5, 2.0, 1.0, 2.0, 3.0, 4.0]
        for array in (feats.vector(), feats.l1_mean, feats.l1_max):
            assert not array.flags.writeable
        for name in ("res_mean", "l1_mean", "finite"):
            with pytest.raises(AttributeError):
                setattr(feats, name, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_says_whether_every_entry_is(self, bad):
        assert LatentFeatures.from_vector(np.arange(6.0)).finite
        assert not LatentFeatures.from_vector(np.array([0.0, 1.0, 2.0, bad])).finite


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

    @pytest.mark.parametrize("neurons", [0, 2.5, np.float64(3.0), True])
    def test_bad_neurons_rejected(self, neurons):
        feats = _feature_cloud(np.random.default_rng(8), 10, self.CENTER)
        with pytest.raises(ConfigError, match="neurons"):
            elm_fit(feats, neurons=neurons, ridge_lambda=1e-3, seed=0)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        feats = _feature_cloud(rng, 30, self.CENTER)
        elm = elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=0)
        other = LatentFeatures.from_vector(np.ones(12))
        with pytest.raises(ConfigError):
            elm_score(elm, other)

    def test_ragged_training_set_rejected(self):
        feats = _feature_cloud(np.random.default_rng(7), 5, self.CENTER)
        feats.append(LatentFeatures.from_vector(np.ones(12)))
        with pytest.raises(ConfigError, match="feature dimensions differ"):
            elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_training_features_rejected(self, bad):
        # one poisoned vector would make the scaler mean, and every score, NaN
        feats = _feature_cloud(np.random.default_rng(7), 20, self.CENTER)
        vec = self.CENTER.copy()
        vec[3] = bad
        feats.append(LatentFeatures.from_vector(vec))
        with pytest.raises(ConfigError, match="non-finite"):
            elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_scored_rejected(self, bad):
        feats = _feature_cloud(np.random.default_rng(7), 20, self.CENTER)
        elm = elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=0)
        vec = self.CENTER.copy()
        vec[0] = bad
        with pytest.raises(ConfigError, match="non-finite"):
            elm_score(elm, LatentFeatures.from_vector(vec))

    @staticmethod
    def _defining_score(elm, x):
        """|1 - sigmoid(((x - mean) / std) @ W + b) @ beta|, as written."""
        hidden = network.sigmoid(((x - elm.scaler_mean) / elm.scaler_std)
                                 @ elm.hidden_weights + elm.hidden_bias)
        return abs(1.0 - hidden @ elm.output_weights)

    @pytest.mark.parametrize("seed", range(6))
    def test_folded_score_matches_defining_formula(self, seed):
        # the scaler, the sigmoid's halving and its offset are folded into
        # the weights once; every rounding that moves stays below 1e-12
        rng = np.random.default_rng(seed)
        dim, neurons = 2 + 2 * int(rng.integers(1, 12)), int(rng.integers(1, 80))
        center = rng.uniform(-5.0, 5.0, dim) * 10.0 ** rng.uniform(-3.0, 3.0, dim)
        spread = 10.0 ** rng.uniform(-4.0, 1.0, dim)
        normal = [center + spread * rng.normal(size=dim) for _ in range(60)]
        for row in normal:
            row[-1] = center[-1]  # a constant dimension, passed through unscaled
        fitted = elm_fit([LatentFeatures.from_vector(v) for v in normal], neurons=neurons,
                         ridge_lambda=10.0 ** rng.uniform(-6.0, 0.0), seed=seed)
        assert fitted.scaler_std[-1] == 1.0
        drawn = OneClassElm(hidden_weights=rng.normal(size=(dim, neurons)),
                            hidden_bias=rng.normal(size=neurons),
                            output_weights=rng.normal(size=neurons) * 10.0,
                            scaler_mean=center, scaler_std=spread, ridge_lambda=1.0, seed=0)
        # near the cloud, far out, and far enough to saturate every neuron
        probes = normal[:10] + [center + spread * rng.normal(size=dim) * k
                                for k in (1e3, 1e8, -1e8)]
        for elm in (fitted, drawn):
            for x in probes:
                got = elm_score(elm, LatentFeatures.from_vector(x))
                assert abs(got - self._defining_score(elm, x)) <= 1e-12

    def test_immutable_with_read_only_arrays(self):
        feats = _feature_cloud(np.random.default_rng(9), 20, self.CENTER)
        elm = elm_fit(feats, neurons=5, ridge_lambda=1e-3, seed=0)
        for name in ("hidden_weights", "hidden_bias", "output_weights", "scaler_mean",
                     "scaler_std"):
            assert not getattr(elm, name).flags.writeable
            with pytest.raises(AttributeError):
                setattr(elm, name, np.zeros(1))
        with pytest.raises(AttributeError):
            elm.seed = 1
        weights = np.ones((2, 1))
        copy = OneClassElm(hidden_weights=weights, hidden_bias=[0.0], output_weights=[1.0],
                           scaler_mean=[0.0, 0.0], scaler_std=[1.0, 1.0], ridge_lambda=1.0,
                           seed=0)
        weights[0, 0] = 5.0  # the caller's array is copied, not held
        assert copy.hidden_weights.tolist() == [[1.0], [1.0]]

    @pytest.mark.parametrize("name", ["hidden_weights", "hidden_bias", "output_weights",
                                      "scaler_mean", "scaler_std", "neurons"])
    def test_inconsistent_shapes_rejected(self, name):
        arrays = {"hidden_weights": np.ones((4, 3)), "hidden_bias": np.zeros(3),
                  "output_weights": np.ones(3), "scaler_mean": np.zeros(4),
                  "scaler_std": np.ones(4)}
        if name == "neurons":  # none: every score would be 1
            arrays.update(hidden_weights=np.ones((4, 0)), hidden_bias=np.zeros(0),
                          output_weights=np.zeros(0))
        else:
            arrays[name] = arrays[name][:-1]
        with pytest.raises(ConfigError, match="inconsistent shapes"):
            OneClassElm(**arrays, ridge_lambda=1.0, seed=0)

    @pytest.mark.parametrize("std", [0.0, 1e-320])
    def test_weights_that_overflow_over_the_std_rejected(self, std):
        with pytest.raises(ConfigError, match="must be finite"):
            OneClassElm(hidden_weights=np.ones((2, 1)), hidden_bias=np.zeros(1),
                        output_weights=np.ones(1), scaler_mean=np.zeros(2),
                        scaler_std=np.array([1.0, std]), ridge_lambda=1.0, seed=0)

    def test_one_score_makes_three_python_and_three_c_calls(self, count_calls):
        # a warm score, counted under sys.setprofile: 9 Python-level and 6
        # C-level calls before the scoring map was folded at construction
        feats = _feature_cloud(np.random.default_rng(10), 20, self.CENTER)
        elm = elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=0)
        assert count_calls(elm_score, elm, feats[0]) == [
            ("python", "elm_score"), ("python", "vector"), ("python", "tanh_layer"),
            ("c", "dot"), ("c", "dot"), ("c", "abs")]


def _auc_bruteforce(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


def _auc_tie_loop(scores, labels):
    """AUC with average ranks assigned by a loop over runs of equal sorted
    scores: the form `roc_auc` replaces."""
    scores = np.asarray(scores, dtype=float)
    pos = np.asarray(labels).astype(bool)
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(pos.sum())
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (pos.size - n_pos)))


class TestRocAuc:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), size=st.integers(2, 300))
    def test_bitwise_equal_to_tie_loop_on_heavily_tied_scores(self, data, size):
        # ranks are multiples of 1/2 either way, so their sums agree exactly
        values = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf])
        scores = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=size,
                                             max_size=size)))
        labels[:2] = [0, 1]
        assert roc_auc(scores, labels) == _auc_tie_loop(scores, labels)

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

    def test_nan_score_undefined(self):
        # NaN is unordered, so its rank would depend on where it stands
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, np.nan, 0.2, np.nan], [0, 1, 1, 0])


class TestDictClassify:
    def test_identical_models_tie_break_lexicographic(self):
        model_a = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        model_b = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        dictionary = DictionaryModel(class_models={"b": model_b, "a": model_a})
        x = np.random.default_rng(11).normal(size=64)
        label, losses = dict_classify(x, dictionary)
        assert label == "a"
        assert losses["a"] == losses["b"]

    def test_lower_loss_model_wins(self):
        # class A reconstructs (fixed bank); class B annihilates details and
        # pays a large residual on a detail-heavy signal
        model_a = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        # the fixed bank trains only the thresholds: b+ then b-
        model_b = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT).with_parameters(np.full(6, 1e6))
        rng = np.random.default_rng(12)
        x = rng.normal(size=128)  # white noise is detail-dominated
        dictionary = DictionaryModel(class_models={"A": model_a, "B": model_b})
        label, losses = dict_classify(x, dictionary)
        assert label == "A"
        assert losses["A"] < losses["B"]

    def test_label_permutation_consistency(self):
        model_a = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        model_b = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT).with_parameters(
            np.repeat([10.0, 0.0], 3))
        x = np.random.default_rng(13).normal(size=64)
        d1 = DictionaryModel(class_models={"u": model_a, "v": model_b})
        d2 = DictionaryModel(class_models={"v": model_a, "u": model_b})
        l1, _ = dict_classify(x, d1)
        l2, _ = dict_classify(x, d2)
        mapping = {"u": "v", "v": "u"}
        assert l2 == mapping[l1]

    def test_one_window_only(self):
        dictionary = DictionaryModel(
            class_models={c: WaveletNet(3, 8, SharingMode.DB4_FIXED) for c in "ab"})
        with pytest.raises(InvalidSignalError):
            dict_classify(np.zeros((2, 64)), dictionary)


class TestDictionaryModel:
    def test_fewer_than_two_classes_rejected(self):
        for count in (0, 1):
            with pytest.raises(ConfigError, match="two classes"):
                DictionaryModel(class_models={
                    str(c): WaveletNet(3, 8, SharingMode.DB4_FIXED)
                    for c in range(count)})

    @pytest.mark.parametrize("other", [
        WaveletNet(4, 8, SharingMode.SHARED_CQF_HT),
        WaveletNet(3, 4, SharingMode.SHARED_CQF_HT),
        WaveletNet(3, 8, SharingMode.SHARED_CQF),
        WaveletNet(3, 8, SharingMode.SHARED_CQF_HT, gamma=0.5),
    ], ids=["levels", "kernel_size", "mode", "gamma"])
    def test_mixed_structure_rejected(self, other):
        with pytest.raises(ConfigError, match="share one mode"):
            DictionaryModel(class_models={
                "A": WaveletNet(3, 8, SharingMode.SHARED_CQF_HT), "B": other})

    @pytest.mark.parametrize("labels", [(1, 2), (1, "b")], ids=["integers", "mixed"])
    def test_labels_that_are_not_strings_rejected(self, labels):
        # a saved dictionary would reload integer labels as strings, and
        # mixed labels do not sort
        model = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        with pytest.raises(ConfigError, match="strings"):
            DictionaryModel(class_models=dict.fromkeys(labels, model))
        with pytest.raises(ConfigError, match="strings"):
            dict_train(dict.fromkeys(labels, [np.zeros(64)]), SharingMode.DB4_FIXED,
                       TrainConfig(epochs=1))

    def test_blocks_of_windows_train_as_their_lists(self):
        rng = np.random.default_rng(17)
        data = {label: rng.normal(size=(3, 64)) for label in "AB"}
        config = TrainConfig(epochs=2, levels=4, batch_size=2)
        want, _ = dict_train({label: list(x) for label, x in data.items()},
                             SharingMode.SHARED_CQF_HT, config)
        got, _ = dict_train(data, SharingMode.SHARED_CQF_HT, config)
        for label in "AB":
            assert (got.class_models[label].get_parameters().tobytes()
                    == want.class_models[label].get_parameters().tobytes())
        with pytest.raises(ConfigError, match="no training signals"):
            dict_train({"A": data["A"], "B": np.zeros((0, 64))}, SharingMode.SHARED_CQF_HT,
                       config)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -1.0])
    def test_bad_gamma_rejected(self, gamma):
        # a dictionary's gamma is its class models', which refuse a bad one
        with pytest.raises(ConfigError, match="gamma"):
            DictionaryModel(class_models={
                c: WaveletNet(3, 8, SharingMode.DB4_FIXED, gamma=gamma) for c in "AB"})

    def test_one_bank_derivation_per_window(self, monkeypatch):
        real, calls = network.cqf_from_scaling, []

        def counted(h):
            calls.append(np.shape(h))
            return real(h)

        dictionary = DictionaryModel(class_models={
            c: WaveletNet(4, 8, SharingMode.SHARED_CQF_HT) for c in "ABC"})
        monkeypatch.setattr(network, "cqf_from_scaling", counted)
        dict_classify(np.random.default_rng(15).normal(size=64), dictionary)
        # one scaling kernel per class, stacked on the shared scheme's
        # length-1 level axis
        assert calls == [(3, 1, 8)]

    def test_stack_follows_changed_parameters(self):
        # a dictionary rebuilt from a changed class model follows it, and
        # the old dictionary keeps its losses
        models = {c: WaveletNet(3, 8, SharingMode.SHARED_CQF_HT) for c in "AB"}
        dictionary = DictionaryModel(class_models=models)
        x = np.random.default_rng(14).normal(size=64)
        before = dict_classify(x, dictionary)[1]
        # the shared kernel's 8 taps, then b+ and b- of each level
        vec = models["B"].get_parameters()
        vec[8:11] = 0.5
        rebuilt = DictionaryModel(class_models={**models, "B": models["B"].with_parameters(vec)})
        after = dict_classify(x, rebuilt)[1]
        assert after["A"] == before["A"] and after["B"] != before["B"]
        assert after == _per_model_classify(x, rebuilt)[1]
        assert dict_classify(x, dictionary)[1] == before

    def test_class_models_cannot_be_replaced(self):
        models = {c: WaveletNet(3, 8, SharingMode.SHARED_CQF_HT) for c in "AB"}
        dictionary = DictionaryModel(class_models=models)
        other = WaveletNet(3, 8, SharingMode.SHARED_CQF_HT, gamma=0.0)
        with pytest.raises(TypeError):
            dictionary.class_models["B"] = other
        with pytest.raises(AttributeError):
            dictionary.class_models = {"A": other, "B": other}
        # the dictionary holds its own mapping: the caller's dict is not it
        models["B"] = other
        assert dictionary.class_models["B"] is not other
        assert dictionary.stacked().gamma == 1.0

    def test_banks_derived_once_per_model(self, monkeypatch):
        # two classifications and two feature extractions derive each
        # model's banks once: the dictionary's stacked model once, and the
        # lone model once
        real, calls = network.cqf_from_scaling, []

        def counted(h):
            calls.append(np.shape(h))
            return real(h)

        monkeypatch.setattr(network, "cqf_from_scaling", counted)
        dictionary = DictionaryModel(class_models={
            c: WaveletNet(4, 8, SharingMode.SHARED_CQF_HT) for c in "ABC"})
        model = dictionary.class_models["A"]
        calls.clear()  # the models' own construction
        rng = np.random.default_rng(16)
        for _ in range(2):
            dict_classify(rng.normal(size=64), dictionary)
            extract_features(rng.normal(size=64), model)
        assert calls == [(3, 1, 8), (1, 8)]


def _per_model_classify(signal, dictionary):
    """`dict_classify` as one forward pass per class model: the loop the
    row-stacked pass replaced."""
    signal = np.asarray(signal, dtype=float)
    losses = {}
    for label in dictionary.labels():
        record = model_forward(signal, dictionary.class_models[label])
        losses[label] = float(loss_terms(record, signal, dictionary.class_models[label].gamma)[0])
    best = min(dictionary.labels(), key=lambda lab: (losses[lab], lab))
    return best, losses


def _drawn_dictionary(rng, mode, classes, n, k, depth, thresholds):
    """`classes` perturbed models of one structure. Each model's thresholds
    are all zero, all nonzero, or (``mixed``) zero at random (class, level)
    entries, so zero-threshold rows sit next to gated ones."""
    levels, k = 1 + round(depth * (max_depth(n) - 1)), mode.scheme.kernel_size or k
    model = WaveletNet(levels, k, mode)
    rows = {}
    for c in range(classes):
        vec = model.get_parameters()
        params = dict(model.with_parameters(vec + rng.normal(0.0, 0.1, vec.size)).params)
        zero = {"zero": True, "nonzero": False,
                "mixed": rng.random(levels) < 0.5}[thresholds]
        for name in ("b_plus", "b_minus"):  # drawn in every mode, kept in HT modes
            params[name] = np.where(zero, 0.0, rng.uniform(0.05, 1.0, levels))
        rows[f"class{c}"] = model.flatten(params)
    model = WaveletNet(levels, k, mode, gamma=float(rng.choice([0.0, 0.5, 1.0])))
    return DictionaryModel(class_models={c: model.with_parameters(row)
                                         for c, row in rows.items()})


_DICTIONARY_DRAWS = dict(
    mode=st.sampled_from(list(SharingMode)),
    classes=st.integers(2, 5),
    n=st.integers(2, 400),
    k=st.sampled_from([2, 4, 8, 16]),
    depth=st.floats(0.0, 1.0),
    thresholds=st.sampled_from(["zero", "nonzero", "mixed"]),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1))


class TestRowStackedDictionary:
    """One forward of the row-stacked class models gives, row by row, the
    bytes of each model's lone forward."""

    @settings(max_examples=150, deadline=None)
    @given(**_DICTIONARY_DRAWS)
    def test_equals_per_model_loop(self, mode, classes, n, k, depth, thresholds,
                                   zeros, seed):
        rng = np.random.default_rng(seed)
        dictionary = _drawn_dictionary(rng, mode, classes, n, k, depth, thresholds)
        x = rng.normal(size=n)
        x[rng.random(n) < zeros] = 0.0
        label, losses = dict_classify(x, dictionary)
        expect_label, expect = _per_model_classify(x, dictionary)
        assert label == expect_label
        assert list(losses) == list(expect)
        assert np.array(list(losses.values())).tobytes() == \
            np.array(list(expect.values())).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(**_DICTIONARY_DRAWS)
    def test_trace_rows_equal_lone_forwards(self, mode, classes, n, k, depth,
                                            thresholds, zeros, seed):
        rng = np.random.default_rng(seed)
        dictionary = _drawn_dictionary(rng, mode, classes, n, k, depth, thresholds)
        block = rng.normal(size=(classes, n))  # a different window per row
        block[rng.random(block.shape) < zeros] = 0.0
        rows = dictionary.stacked()
        trace = forward_trace(rows, block)
        for r, label in enumerate(dictionary.labels()):
            model = dictionary.class_models[label]
            alone = forward_trace(model, block[r])
            assert ([a.shape[-1] for a in trace.inputs]
                    == [a.shape[-1] for a in alone.inputs])
            for got, want in zip(_trace_arrays(rows, trace), _trace_arrays(model, alone)):
                row = got[r] if got.ndim > want.ndim else got  # a fixed bank serves all rows
                assert row.shape == want.shape
                assert row.tobytes() == want.tobytes()


def _trace_arrays(model, trace):
    """Every level's operands of the model and every array its forward
    trace holds, in a fixed order."""
    return ([level for operand in model.operands for level in operand] + trace.inputs
            + [trace.details_pre, trace.details, *trace.gates, trace.approx] + trace.recon_chain)
