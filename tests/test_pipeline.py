"""WAV parsing, preprocessing, synthetic data, manifests and persistence."""

import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from wavelearn.audio import decimate, read_wav, window_split, write_wav
from wavelearn.datasets import (
    CLICK_AMP,
    N_CLICKS,
    SHIFT_FACTOR,
    DatasetManifest,
    ManifestEntry,
    SyntheticSpec,
    base_waveform,
    generate_synthetic,
    load_manifest,
    load_windows,
    save_manifest,
)
from wavelearn.errors import ConfigError, FormatError, InvalidSignalError
from wavelearn.network import SharingMode, WaveletNet, model_forward
from wavelearn.persist import (
    feature_header,
    load_dictionary,
    load_elm,
    load_model,
    read_features_csv,
    read_scores_csv,
    save_dictionary,
    save_elm,
    save_model,
    write_features_csv,
    write_scores_csv,
)
from wavelearn.analysis import (
    DictionaryModel,
    LatentFeatures,
    dict_classify,
    elm_fit,
    extract_features,
)


# model documents as written before the kernel-scheme table, with the
# `seed` key the loader now ignores
EARLIER_DOCS = {
    "shared_h": {
        "format_version": 1, "mode": "decwn", "levels": 2, "kernel_size": 2,
        "alpha": 10.0, "gamma": 0.5, "seed": 7,
        "level_params": [
            {"b_plus": 0.1663723991391197, "b_minus": -0.16413972945846467},
            {"b_plus": 0.0659147749832255, "b_minus": -0.0005203264171931977}],
        "shared_h": [0.6419276659253786, 0.6896350519539699]},
    "per_level_all": {
        "format_version": 1, "mode": "free", "levels": 2, "kernel_size": 2,
        "alpha": 10.0, "gamma": 0.5, "seed": 7,
        "level_params": [
            {"b_plus": 0.03801890922489917, "b_minus": 0.1482571163033857,
             "h": [0.6447604070877082, 0.7219699335117502],
             "g": [0.5462880027679087, -0.6829295934988624],
             "h_bar": [0.730644873060293, 0.8646693843296939],
             "g_bar": [-0.6754422795393573, 0.7581614473563117]},
            {"b_plus": -0.011005869527805159, "b_minus": -0.1829604023445351,
             "h": [0.5577951126901243, 0.9323796936589503],
             "g": [0.5155422253907175, -0.5969265956042992],
             "h_bar": [0.6741163737991626, 0.6190421293937679],
             "g_bar": [-0.7727352822794507, 0.639905313120682]}]},
}


def _pcm16_wav(samples16, channels=1, rate=16000, codec=1, bits=16):
    payload = struct.pack(f"<{len(samples16)}h", *samples16)
    body = b"fmt " + struct.pack("<IHHIIHH", 16, codec, channels, rate,
                                 rate * 2 * channels, 2 * channels, bits)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestWavIo:
    def test_fixed_point_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(_pcm16_wav([0, 16384, -16384, 32767]))
        samples, rate = read_wav(p)
        assert rate == 16000
        np.testing.assert_array_equal(
            samples, [0.0, 0.5, -0.5, 32767 / 32768])

    def test_stereo_takes_channel_zero(self, tmp_path):
        p = tmp_path / "st.wav"
        interleaved = [100, -7, 200, -8, 300, -9]
        p.write_bytes(_pcm16_wav(interleaved, channels=2))
        samples, _ = read_wav(p)
        np.testing.assert_array_equal(samples * 32768, [100, 200, 300])

    def test_write_read_roundtrip_is_exact(self, tmp_path):
        p1, p2 = tmp_path / "r1.wav", tmp_path / "r2.wav"
        rng = np.random.default_rng(0)
        original = rng.uniform(-0.99, 0.99, 300)
        write_wav(p1, original, 16000)
        first, _ = read_wav(p1)
        write_wav(p2, first, 16000)
        second, _ = read_wav(p2)
        assert np.array_equal(first, second)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.abs(first - original).max() <= 0.5 / 32768

    @pytest.mark.parametrize("samples", [np.zeros((2, 10)), np.float64(0.5)],
                             ids=["block", "scalar"])
    def test_signal_that_is_not_1d_writes_nothing(self, samples, tmp_path):
        # a block is not one recording, nor a scalar a one-sample one
        with pytest.raises(InvalidSignalError, match="1-D"):
            write_wav(tmp_path / "w.wav", samples, 16000)
        assert not (tmp_path / "w.wav").exists()

    def test_malformed_inputs_carry_offsets(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"JUNK" + b"\x00" * 40)
        with pytest.raises(FormatError) as err:
            read_wav(p)
        assert err.value.offset == 0

        p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"XXXX")
        with pytest.raises(FormatError) as err:
            read_wav(p)
        assert err.value.offset == 8

        p.write_bytes(_pcm16_wav([0, 0], codec=3))  # not PCM
        with pytest.raises(FormatError) as err:
            read_wav(p)
        assert err.value.offset is not None

        truncated = _pcm16_wav([0] * 100)[:-50]
        p.write_bytes(truncated)
        with pytest.raises(FormatError):
            read_wav(p)


class TestDecimate:
    def test_factor_one_identity(self):
        x = np.random.default_rng(1).normal(size=100)
        assert np.array_equal(decimate(x, 1), x)

    def test_constant_preserved(self):
        for factor in (2, 4, 8):
            out = decimate(np.full(500, 2.5), factor)
            assert out.size == int(np.ceil(500 / factor))
            np.testing.assert_allclose(out, 2.5, rtol=0, atol=1e-6)

    def test_stopband_rejection(self):
        # tone at 0.4 of the input Nyquist = 0.2 cycles/sample, decimated by 4:
        # cutoff sits at 0.125 cycles/sample, so the tone must be crushed
        n = 4096
        t = np.arange(n)
        tone = np.sin(2 * np.pi * 0.2 * t)
        out = decimate(tone, 4)
        in_power = np.mean(tone ** 2)
        out_power = np.mean(out[32:-32] ** 2)  # ignore edge transients
        assert out_power < 0.01 * in_power

    def test_passband_tone_survives(self):
        n = 4096
        tone = np.sin(2 * np.pi * 0.02 * np.arange(n))
        out = decimate(tone, 4)
        assert np.mean(out[32:-32] ** 2) > 0.4 * np.mean(tone ** 2)

    def test_invalid_factor(self):
        with pytest.raises(ConfigError):
            decimate(np.ones(10), 0)

    @pytest.mark.parametrize("factor", [2.5, 2.0, True, "2", None])
    def test_factor_that_is_not_an_integer(self, factor):
        with pytest.raises(ConfigError, match="decimation factor must be an integer"):
            decimate(np.ones(100), factor)

    @pytest.mark.parametrize("samples", [np.ones((2, 10)), np.float64(1.0),
                                         [0.0, np.nan, 1.0], [np.inf] + [0.0] * 99])
    def test_malformed_signal(self, samples):
        with pytest.raises(InvalidSignalError):
            decimate(samples, 2)


class TestWindowSplit:
    def test_exact_and_remainder(self):
        x = np.arange(10.0)
        wins = window_split(x, 4)
        assert len(wins) == 2
        np.testing.assert_array_equal(wins[0], [0, 1, 2, 3])
        np.testing.assert_array_equal(wins[1], [4, 5, 6, 7])

    def test_too_small_window_rejected(self):
        with pytest.raises(ConfigError):
            window_split(np.ones(10), 1)

    @pytest.mark.parametrize("size", [4.0, 2.5, True])
    def test_window_that_is_not_an_integer(self, size):
        with pytest.raises(ConfigError, match="window size must be an integer"):
            window_split(np.ones(10), size)

    @pytest.mark.parametrize("samples", [np.ones((2, 10)), np.float64(1.0),
                                         [0.0, 1.0, -np.inf, 2.0], [np.nan] * 4])
    def test_malformed_signal(self, samples):
        with pytest.raises(InvalidSignalError):
            window_split(samples, 2)


class TestSynthetic:
    def test_seed_determinism(self):
        spec = SyntheticSpec(n_train=5, n_test=3)
        a = generate_synthetic(spec, seed=42)
        b = generate_synthetic(spec, seed=42)
        assert len(a) == len(b) == 5 + 3 * 3
        for ra, rb in zip(a, b):
            assert ra.id == rb.id and ra.label == rb.label
            assert np.array_equal(ra.samples, rb.samples)

    def test_zero_sigma_is_the_pure_waveform(self):
        spec = SyntheticSpec(n_train=2, n_test=1, sigma=0.0)
        records = generate_synthetic(spec, seed=0)
        base = base_waveform(spec.window, "normal")
        for rec in records:
            if rec.label == "normal":
                assert np.array_equal(rec.samples, base)

    @pytest.mark.parametrize("task", ["detect", "classify"])
    @pytest.mark.parametrize("sigma", [0.1, 0.0])
    def test_equal_to_a_per_window_build(self, task, sigma):
        # the generator as a loop that builds every window's tonal part anew
        spec = SyntheticSpec(task=task, window=64, sigma=sigma, n_train=4, n_test=3)
        rng = np.random.default_rng(7)
        want = []
        # (kind, windows, tone class) in the generator's order
        runs = ([("plain", spec.n_train, "normal")]
                + [(kind, spec.n_test, "normal") for kind in ("plain", "impulse", "shift")]
                if task == "detect" else
                [("plain", n, label) for label in ("A", "B") for n in (spec.n_train, spec.n_test)])
        for kind, n, tone_class in runs:
            for _ in range(n):
                base = base_waveform(spec.window, tone_class,
                                     SHIFT_FACTOR if kind == "shift" else 1.0)
                samples = base + rng.normal(0.0, sigma, spec.window) if sigma > 0 else base
                if kind == "impulse":
                    pos = rng.integers(0, spec.window, N_CLICKS)
                    samples[pos] += rng.choice([-1.0, 1.0], N_CLICKS) * CLICK_AMP
                want.append(samples)
        got = generate_synthetic(spec, seed=7)
        assert [r.samples.tobytes() for r in got] == [w.tobytes() for w in want]
        # no two records share their samples
        assert not any(np.shares_memory(a.samples, b.samples)
                       for i, a in enumerate(got) for b in got[i + 1:])

    def test_labels_and_splits(self):
        spec = SyntheticSpec(n_train=4, n_test=2)
        records = generate_synthetic(spec, seed=1)
        train = [r for r in records if r.split == "train"]
        test = [r for r in records if r.split == "test"]
        assert len(train) == 4 and all(r.label == "normal" for r in train)
        assert sorted({r.label for r in test}) == ["impulse", "normal", "shift"]

    @pytest.mark.parametrize("field,value,message", [
        ("window", 100.5, "window must be an integer"), ("window", 15, "window must be >= 16"),
        ("sigma", np.nan, "sigma must be finite"), ("sigma", np.inf, "sigma must be finite"),
        ("sigma", -0.1, "sigma must be >= 0"), ("sigma", True, "sigma must be a real"),
        ("n_train", -5, "n_train must be >= 0"), ("n_test", 2.0, "n_test must be an integer"),
    ])
    def test_bad_spec_field_rejected(self, field, value, message):
        # NaN fails both `sigma < 0` and `sigma > 0`, so it once gave
        # noise-free windows, and negative counts an empty set
        with pytest.raises(ConfigError, match=message):
            generate_synthetic(SyntheticSpec(**{field: value}), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            generate_synthetic(SyntheticSpec(n_train=1, n_test=0), seed=seed)

    def test_classify_task_has_two_classes(self):
        spec = SyntheticSpec(task="classify", n_train=3, n_test=2)
        records = generate_synthetic(spec, seed=2)
        labels = {r.label for r in records}
        assert labels == {"A", "B"}
        a = next(r for r in records if r.label == "A")
        b = next(r for r in records if r.label == "B")
        assert not np.array_equal(a.samples, b.samples)


class TestManifest:
    def _manifest(self, tmp_path, n=3):
        entries = []
        rng = np.random.default_rng(0)
        for i in range(n):
            name = f"w{i}.wav"
            write_wav(tmp_path / name, rng.normal(0, 0.1, 64), 16000)
            entries.append(ManifestEntry(path=name, label="normal",
                                         split="train" if i else "test"))
        return DatasetManifest(sample_rate=16000, window_size=32,
                               entries=entries, decimate=1, base_dir=tmp_path)

    def test_save_load_roundtrip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        save_manifest(manifest, tmp_path / "m.json")
        back = load_manifest(tmp_path / "m.json")
        assert back.window_size == 32 and back.sample_rate == 16000
        assert [e.path for e in back.entries] == [e.path for e in manifest.entries]
        assert [e.split for e in back.entries] == [e.split for e in manifest.entries]

    def test_windows_load_in_manifest_order(self, tmp_path):
        manifest = self._manifest(tmp_path)
        wins = load_windows(manifest, split="all")
        assert len(wins) == 6  # 64 samples -> two 32-windows each
        assert wins[0].id == "w0.wav:0" and wins[1].id == "w0.wav:1"
        train = load_windows(manifest, split="train")
        assert all(w.split == "train" for w in train) and len(train) == 4

    def test_duplicate_paths_rejected(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.entries.append(manifest.entries[0])
        with pytest.raises(ConfigError):
            manifest.validate()

    def test_bad_split_rejected(self, tmp_path):
        manifest = self._manifest(tmp_path)
        manifest.entries[0].split = "validation"
        with pytest.raises(ConfigError):
            manifest.validate()

    @pytest.mark.parametrize("rate", [0, -1, 2 ** 32])
    def test_rate_outside_a_wav_header_rejected(self, tmp_path, rate):
        manifest = self._manifest(tmp_path)
        manifest.sample_rate = rate
        with pytest.raises(ConfigError, match="sample rate"):
            manifest.validate()

    def test_file_at_another_rate_rejected(self, tmp_path):
        # a 32 kHz file under a 16 kHz manifest would be windowed as if it
        # were at 16 kHz
        manifest = self._manifest(tmp_path)
        write_wav(tmp_path / "w1.wav", np.zeros(64), 32000)
        with pytest.raises(FormatError, match="w1.wav has sample rate 32000, the manifest 16"):
            load_windows(manifest, split="all")

    @pytest.mark.parametrize("key,value", [
        ("sample_rate", None), ("sample_rate", "16000"),
        ("window_size", None), ("window_size", 32.5),
        ("entries", None), ("entries", {"path": "w0.wav"}),
    ])
    def test_missing_or_ill_typed_field_rejected(self, tmp_path, key, value):
        save_manifest(self._manifest(tmp_path), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=key):
            load_manifest(tmp_path / "m.json")


class TestModelPersistence:
    @pytest.mark.parametrize("mode", list(SharingMode), ids=lambda m: m.value)
    def test_roundtrip_bit_exact(self, mode, tmp_path):
        rng = np.random.default_rng(3)
        model = WaveletNet(4, 8, mode, gamma=0.7)
        if model.parameter_count():
            model = model.with_parameters(
                model.get_parameters()
                + rng.normal(0, 0.1, model.parameter_count()))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.mode is mode
        assert back.levels == model.levels
        assert back.kernel_size == model.kernel_size
        assert back.gamma == model.gamma
        for key in model.params:
            assert np.array_equal(back.params[key], model.params[key]), key
        x = rng.normal(size=128)
        r1 = model_forward(x, model)
        r2 = model_forward(x, back)
        assert np.array_equal(r1.reconstruction, r2.reconstruction)

    def test_version_gate(self, tmp_path):
        model = WaveletNet(2, 8, SharingMode.DB4_FIXED)
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)


    @pytest.mark.parametrize("mode,corrupt", [
        ("free", lambda doc: doc["level_params"].pop()),
        ("free", lambda doc: doc["level_params"].append(doc["level_params"][0])),
        ("free", lambda doc: doc["level_params"][1].pop("h")),
        ("free", lambda doc: doc["level_params"][2].pop("g_bar")),
        ("decwn", lambda doc: doc.pop("shared_h")),
        ("despawn", lambda doc: doc["level_params"][0].update(
            h=doc["level_params"][0]["h"][:6])),
        ("despawn2", lambda doc: doc["level_params"][1]["g"].__setitem__(
            3, float("nan"))),
        ("decwn", lambda doc: doc["shared_h"].__setitem__(0, float("inf"))),
        ("db4-ht", lambda doc: doc["level_params"][0].pop("b_minus")),
        ("despawn", lambda doc: doc["level_params"][1].update(b_plus=float("nan"))),
        ("despawn", lambda doc: doc.update(gamma="high")),
        ("despawn", lambda doc: doc.update(levels=float("inf"))),
        ("despawn", lambda doc: doc.update(alpha=-5.0)),
        ("despawn", lambda doc: doc.update(alpha=0.0)),
        ("despawn", lambda doc: doc.update(alpha=5.0)),
        ("despawn", lambda doc: doc.update(gamma=-2.0)),
        ("despawn", lambda doc: doc.update(levels=0, level_params=[])),
    ], ids=["short_levels", "long_levels", "missing_h", "missing_g_bar",
            "missing_shared_h", "six_taps", "nan_tap", "inf_tap",
            "missing_threshold", "nan_threshold", "gamma_not_numeric",
            "infinite_levels", "negative_alpha", "zero_alpha", "alpha_not_ten",
            "negative_gamma", "no_levels"])
    def test_inconsistent_document_rejected(self, mode, corrupt, tmp_path):
        model = WaveletNet(3, 8, SharingMode(mode))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("doc", list(EARLIER_DOCS.values()),
                             ids=list(EARLIER_DOCS))
    def test_earlier_documents_load_bit_exactly(self, doc, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        save_model(load_model(path), tmp_path / "new.json")
        resaved = json.loads((tmp_path / "new.json").read_text())
        assert resaved == {k: v for k, v in doc.items() if k != "seed"}


    @pytest.mark.parametrize("mode", ["despawn2", "decwn"])
    def test_committed_documents_load_and_resave_byte_for_byte(self, mode, tmp_path):
        # written, with the parameter vector beside each, by the version that
        # stored every kernel under its own string key
        data = Path(__file__).parent / "data"
        doc = data / f"model_{mode}_L3_K4.json"
        model = load_model(doc)
        vector = json.loads((data / f"model_{mode}_L3_K4.vector.json").read_text())
        assert model.get_parameters().tolist() == vector
        save_model(model, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == doc.read_bytes()


class TestTablePersistence:
    def test_features_csv_schema_and_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        model = WaveletNet(5, 8, SharingMode.DB4_FIXED)
        rows = [(f"sig:{i}", extract_features(rng.normal(size=128), model))
                for i in range(7)]
        path = tmp_path / "features.csv"
        write_features_csv(rows, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == feature_header(5)
        assert len(header) == 3 + 2 * 5
        back = read_features_csv(path)
        assert [rid for rid, _ in back] == [rid for rid, _ in rows]
        for (_, fa), (_, fb) in zip(rows, back):
            assert np.array_equal(fa.vector(), fb.vector())

    def test_inconsistent_feature_rows_write_nothing(self, tmp_path):
        rows = [("a:0", LatentFeatures(np.arange(6.0))),
                ("a:1", LatentFeatures(np.arange(8.0)))]
        with pytest.raises(ConfigError, match="inconsistent"):
            write_features_csv(rows, tmp_path / "features.csv")
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize("table", ["id,res_mean,res_max\nw:0,1.0,2.0\n",
                                       "id,res_mean\nw:0,1.0\n", "id\nw:0\n"],
                             ids=["no_levels", "one_statistic", "id_only"])
    def test_features_csv_without_level_columns_names_its_file_and_line(self, tmp_path,
                                                                         table):
        # a feature vector holds at least one level's two statistics
        path = tmp_path / "features.csv"
        path.write_text(table)
        expected = re.escape(f"{path} line 1: ") + ".*l1_mean_1,l1_max_1"
        with pytest.raises(FormatError, match=expected):
            read_features_csv(path)

    def test_scores_csv_roundtrip(self, tmp_path):
        rows = [("a:0", 0.125), ("b:1", 1.0 / 3.0)]
        path = tmp_path / "scores.csv"
        write_scores_csv(rows, path)
        assert read_scores_csv(path) == rows

    def test_elm_roundtrip_preserves_scores(self, tmp_path):
        rng = np.random.default_rng(5)
        model = WaveletNet(4, 8, SharingMode.DB4_FIXED)
        feats = [extract_features(rng.normal(size=64), model) for _ in range(30)]
        elm = elm_fit(feats, neurons=10, ridge_lambda=1e-3, seed=2)
        path = tmp_path / "elm.json"
        save_elm(elm, path)
        back = load_elm(path)
        from wavelearn.analysis import elm_score

        for f in feats[:5]:
            assert elm_score(elm, f) == elm_score(back, f)

    @pytest.mark.parametrize("name", ["hidden_weights", "hidden_bias",
                                      "output_weights", "scaler_mean",
                                      "scaler_std"])
    def test_elm_with_inconsistent_shapes_rejected(self, name, tmp_path):
        rng = np.random.default_rng(6)
        feats = [LatentFeatures(rng.normal(size=6)) for _ in range(20)]
        path = tmp_path / "elm.json"
        save_elm(elm_fit(feats, neurons=5, seed=1), path)
        doc = json.loads(path.read_text())
        doc[name] = doc[name][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_elm(path)

    def test_elm_without_neurons_rejected(self, tmp_path):
        # `elm_fit` draws at least one neuron; with none every score is 1.0
        rng = np.random.default_rng(6)
        feats = [LatentFeatures(rng.normal(size=6)) for _ in range(20)]
        path = tmp_path / "elm.json"
        save_elm(elm_fit(feats, neurons=5, seed=1), path)
        doc = json.loads(path.read_text())
        doc.update(hidden_weights=[[] for _ in doc["hidden_weights"]], hidden_bias=[],
                   output_weights=[])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="inconsistent shapes"):
            load_elm(path)

    def test_dictionary_roundtrip(self, tmp_path):
        # the fixed bank trains only the thresholds: b+ then b-
        d = DictionaryModel(
            class_models={
                "A": WaveletNet(3, 8, SharingMode.DB4_FIXED_HT, gamma=0.25),
                "B": WaveletNet(3, 8, SharingMode.DB4_FIXED_HT, gamma=0.25).with_parameters(
                    np.repeat([0.25, 0.0], 3)),
            },
        )
        path = tmp_path / "dict.json"
        save_dictionary(d, path)
        # gamma is stored once per class model, with no dictionary-wide copy
        assert "gamma" not in json.loads(path.read_text())
        back = load_dictionary(path)
        assert back.labels() == ["A", "B"]
        assert back.stacked().gamma == 0.25
        assert np.array_equal(back.class_models["B"].params["b_plus"],
                              d.class_models["B"].params["b_plus"])

    def test_committed_dictionary_loads_and_classifies_the_same(self, tmp_path):
        # written by the version that stored gamma at the top as well, with
        # the labels and losses it gave for four windows
        data = Path(__file__).parent / "data"
        path = data / "dictionary_despawn_L3_K4.json"
        expect = json.loads((data / "dictionary_despawn_L3_K4.classify.json").read_text())
        assert json.loads(path.read_text())["gamma"] == 0.5
        resaved = tmp_path / "again.json"
        save_dictionary(load_dictionary(path), resaved)
        assert "gamma" not in json.loads(resaved.read_text())
        for dictionary in (load_dictionary(path), load_dictionary(resaved)):
            assert dictionary.stacked().gamma == 0.5
            got = [dict_classify(np.array(w), dictionary) for w in expect["windows"]]
            assert [label for label, _ in got] == expect["labels"] == [
                "pump", "fan", "fan", "pump"]
            assert [losses for _, losses in got] == expect["losses"]

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(classes={}),
        lambda doc: doc["classes"].pop("B"),
        lambda doc: doc["classes"]["B"].update(
            levels=2, level_params=doc["classes"]["B"]["level_params"][:2]),
        lambda doc: doc["classes"]["B"].update(mode="db4"),
        lambda doc: doc["classes"]["B"].update(alpha=5.0),
        lambda doc: doc.update(gamma=-1.0),
        lambda doc: doc["classes"]["B"].update(gamma=0.5),
        lambda doc: doc.update(gamma=0.5),
    ], ids=["no_classes", "one_class", "mixed_levels", "mixed_modes",
            "mixed_sharpness", "negative_gamma", "mixed_gamma", "top_gamma_differs"])
    def test_dictionary_that_cannot_stack_rejected(self, edit, tmp_path):
        d = DictionaryModel(class_models={
            c: WaveletNet(3, 8, SharingMode.DB4_FIXED_HT) for c in "AB"})
        path = tmp_path / "dict.json"
        save_dictionary(d, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError):
            load_dictionary(path)
