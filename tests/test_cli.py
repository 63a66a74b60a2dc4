"""End-to-end CLI coverage at desk scale (tiny datasets, few epochs)."""

import csv
import functools
import importlib
import io
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from wavelearn.analysis import DictionaryModel, LatentFeatures, dict_classify, elm_fit
from wavelearn.audio import write_wav
from wavelearn.cli import main
from wavelearn.datasets import SyntheticSpec, load_manifest, load_windows
from wavelearn.errors import ConfigError, InvalidSignalError
from wavelearn.network import SharingMode, WaveletNet
from wavelearn.persist import (
    feature_header,
    load_dictionary,
    read_features_csv,
    read_scores_csv,
    save_dictionary,
    save_elm,
    save_model,
    write_features_csv,
)
from wavelearn.training import TrainConfig


def _wav_bytes(channels: int, block_align: int, payload: bytes = bytes(8)) -> bytes:
    """A 16-bit PCM WAV document whose fmt chunk declares `block_align`."""
    fmt = struct.pack("<HHIIHH", 1, channels, 16000, 16000 * block_align,
                      block_align, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def table_bytes(header, rows) -> bytes:
    """A CSV table byte for byte as each command wrote its own before they
    shared one writer: csv's default dialect (CRLF line ends), an id cell
    first, and the float cells in repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row_id, *cells in rows:
        writer.writerow([row_id] + [c if isinstance(c, str) else repr(float(c)) for c in cells])
    return buf.getvalue().encode()


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def detect_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("detect")
    code = main(["synth", "--out", str(out), "--seed", "5",
                 "--n-normal", "12", "--n-anomal", "4", "--window", "256"])
    assert code == 0
    return out


class TestSynth:
    def test_layout(self, detect_dir):
        manifest = json.loads((detect_dir / "manifest.json").read_text())
        assert manifest["window_size"] == 256
        assert len(manifest["entries"]) == 12 + 3 * 4
        labels = {e["label"] for e in manifest["entries"]}
        assert labels == {"normal", "impulse", "shift"}
        wavs = list(detect_dir.glob("*.wav"))
        assert len(wavs) == 24

    def test_classify_flavor(self, tmp_path, capsys):
        code, out, _ = run(["synth", "--out", str(tmp_path / "c"), "--seed", "1",
                            "--task", "classify", "--n-normal", "2",
                            "--n-anomal", "1", "--window", "128"], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert {e["label"] for e in manifest["entries"]} == {"A", "B"}


class TestDetectWorkflow:
    def test_full_chain(self, detect_dir, tmp_path, capsys):
        manifest = str(detect_dir / "manifest.json")
        model = str(tmp_path / "model.json")
        code, out, err = run(["train", "--manifest", manifest, "--mode", "despawn",
                              "--epochs", "3", "--seed", "2", "--out", model],
                             capsys)
        assert code == 0, err
        summary = json.loads(out)
        assert summary["windows"] == 12 and summary["epochs"] == 3

        feats_train = str(tmp_path / "train.csv")
        code, _, err = run(["features", "--model", model, "--manifest", manifest,
                            "--split", "train", "--out", feats_train], capsys)
        assert code == 0, err
        rows = read_features_csv(feats_train)
        assert len(rows) == 12
        assert rows[0][1].vector().size == 2 + 2 * 8  # window 256 -> 8 levels
        # the reader round-trips every float, so these are the written values
        assert open(feats_train, "rb").read() == table_bytes(
            feature_header(8), [(row_id, *f.vector()) for row_id, f in rows])

        feats_test = str(tmp_path / "test.csv")
        assert run(["features", "--model", model, "--manifest", manifest,
                    "--split", "test", "--out", feats_test], capsys)[0] == 0

        elm = str(tmp_path / "elm.json")
        code, _, err = run(["detect-train", "--features", feats_train,
                            "--neurons", "20", "--seed", "4", "--out", elm],
                           capsys)
        assert code == 0, err

        scores = str(tmp_path / "scores.csv")
        assert run(["detect-score", "--elm", elm, "--features", feats_test,
                    "--out", scores], capsys)[0] == 0
        assert len(read_scores_csv(scores)) == 12
        assert open(scores, "rb").read() == table_bytes(["id", "score"],
                                                        read_scores_csv(scores))

        code, out, err = run(["eval-auc", "--scores", scores,
                              "--manifest", manifest], capsys)
        assert code == 0, err
        auc = float(out.strip())
        assert 0.0 <= auc <= 1.0

    def test_reconstruct_reports_residual(self, detect_dir, tmp_path, capsys):
        manifest = json.loads((detect_dir / "manifest.json").read_text())
        wav = detect_dir / manifest["entries"][0]["path"]
        model = str(tmp_path / "db4.json")
        assert run(["train", "--manifest", str(detect_dir / "manifest.json"),
                    "--mode", "db4", "--epochs", "1", "--out", model],
                   capsys)[0] == 0
        out_wav = str(tmp_path / "recon.wav")
        code, out, err = run(["reconstruct", "--model", model, "--input",
                              str(wav), "--out", out_wav], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["n"] == 256
        assert report["res_max"] <= 1e-8  # fixed bank reconstructs exactly


class TestGradCheckCommand:
    def test_single_mode_passes(self, capsys):
        code, out, _ = run(["grad-check", "--mode", "cwn", "--seed", "0",
                            "--seeds", "1"], capsys)
        assert code == 0
        assert "cwn: PASS" in out

    @pytest.mark.parametrize("flags,message", [
        (["--seeds", "0"], "seeds"),
        (["--tolerance", "nan"], "tolerance"),
        (["--tolerance", "-1"], "tolerance"),
    ], ids=["no_seeds", "tolerance_nan", "tolerance_negative"])
    def test_vacuous_check_exits_2(self, flags, message, capsys):
        code, out, err = run(["grad-check", "--mode", "cwn", *flags], capsys)
        assert code == 2
        assert "PASS" not in out
        assert message in err and "Traceback" not in err


class TestClassifyWorkflow:
    def test_train_and_classify(self, tmp_path, capsys):
        data = tmp_path / "cls"
        assert run(["synth", "--out", str(data), "--seed", "3", "--task",
                    "classify", "--n-normal", "4", "--n-anomal", "2",
                    "--window", "256"], capsys)[0] == 0
        manifest = str(data / "manifest.json")
        dict_path = str(tmp_path / "dict.json")
        code, _, err = run(["classify-train", "--manifest", manifest,
                            "--mode", "db4-ht", "--epochs", "2", "--seed", "1",
                            "--out", dict_path], capsys)
        assert code == 0, err
        preds = str(tmp_path / "preds.csv")
        code, out, err = run(["classify", "--dict", dict_path, "--manifest",
                              manifest, "--out", preds], capsys)
        assert code == 0, err
        summary = json.loads(out)
        assert summary["rows"] == 4
        header = open(preds).readline().strip().split(",")
        assert header == ["id", "predicted", "loss_A", "loss_B"]
        dictionary = load_dictionary(dict_path)
        windows = load_windows(load_manifest(manifest), split="test")
        predictions = [dict_classify(w.samples, dictionary) for w in windows]
        assert open(preds, "rb").read() == table_bytes(header, [
            (w.id, label, losses["A"], losses["B"])
            for w, (label, losses) in zip(windows, predictions)])
        hits = [label == w.label for w, (label, _) in zip(windows, predictions)]
        assert summary["accuracy"] == sum(hits) / len(hits)


class TestErrorPaths:
    def test_missing_file_is_reported(self, capsys):
        code, _, err = run(["reconstruct", "--model", "/nonexistent.json",
                            "--input", "x.wav"], capsys)
        assert code == 2
        assert "error" in err

    def test_inconsistent_model_document_exits_2(self, detect_dir, tmp_path,
                                                 capsys):
        model = str(tmp_path / "model.json")
        assert run(["train", "--manifest", str(detect_dir / "manifest.json"),
                    "--epochs", "1", "--out", model], capsys)[0] == 0
        doc = json.loads(open(model).read())
        doc["level_params"].pop()
        open(model, "w").write(json.dumps(doc))
        wav = next(detect_dir.glob("*.wav"))
        code, _, err = run(["reconstruct", "--model", model, "--input", str(wav)],
                           capsys)
        assert code == 2
        assert "error" in err and "Traceback" not in err

    def test_fixed_mode_of_another_kernel_size_exits_2(self, detect_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, err = run(["train", "--manifest", str(detect_dir / "manifest.json"),
                            "--mode", "db4", "--kernel-size", "4", "--epochs", "1",
                            "--out", str(out)], capsys)
        assert code == 2
        assert "8-tap kernels, got 4" in err and "Traceback" not in err
        assert not out.exists()

    def test_manifest_without_sample_rate_exits_2(self, detect_dir, tmp_path,
                                                  capsys):
        doc = json.loads((detect_dir / "manifest.json").read_text())
        del doc["sample_rate"]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        code, _, err = run(["train", "--manifest", str(manifest), "--epochs", "1",
                            "--out", str(tmp_path / "m.json")], capsys)
        assert code == 2
        assert "sample_rate" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("label", {}), ("split", ["train"])],
                             ids=["label_dict", "split_list"])
    def test_ill_typed_manifest_entry_exits_2(self, key, value, detect_dir, tmp_path,
                                              capsys):
        # the entries keep pointing at the data, so only the bad field fails
        doc = json.loads((detect_dir / "manifest.json").read_text())
        for entry in doc["entries"]:
            entry["path"] = str(detect_dir / entry["path"])
        doc["entries"][0][key] = value
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        code, _, err = run(["classify-train", "--manifest", str(manifest), "--epochs",
                            "1", "--out", str(tmp_path / "d.json")], capsys)
        assert code == 2
        assert f"{key!r} must be of type" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,content", [
        (["reconstruct", "--model", "{bad}", "--input", "{wav}"],
         lambda d, t: _edited(_saved_model(t), lambda doc: doc["level_params"][0]
                              .update(h="oops"))),
        (["reconstruct", "--model", "{bad}", "--input", "{wav}"], "{not json"),
        (["detect-score", "--elm", "{bad}", "--features", "{bad}",
          "--out", "{out}"], "{}"),
        (["detect-train", "--features", "{bad}", "--out", "{out}"],
         "id,res_mean,res_max,l1_mean_1,l1_max_1\nw:0,1.0,oops,0.5,0.5\n"),
        (["detect-train", "--features", "{bad}", "--out", "{out}"],
         "id,res_mean,res_max,l1_mean_1,l1_max_1\nw:0,1.0,2.0,0.5,0.5\nw:1,nan,2.0,0.5,inf\n"),
        (["detect-train", "--features", "{bad}", "--out", "{out}"], ""),
        (["eval-auc", "--scores", "{bad}", "--manifest", "{manifest}"], ""),
        (["eval-auc", "--scores", "{bad}", "--manifest", "{manifest}"],
         "id,score\nw:0,high\n"),
        (["classify", "--dict", "{bad}", "--manifest", "{manifest}",
          "--out", "{out}"], "{}"),
        (["train", "--manifest", "{bad}", "--epochs", "1", "--out", "{out}"],
         lambda d, t: _edited(d / "manifest.json",
                              lambda doc: doc.update(decimate="x"))),
        (["train", "--manifest", "{bad}", "--epochs", "1", "--out", "{out}"],
         "{not json"),
        (["train", "--manifest", "{bad}", "--epochs", "1", "--out", "{out}"],
         lambda d, t: _edited(d / "manifest.json", lambda doc: doc.update(sample_rate=0))),
        (["reconstruct", "--model", "{model}", "--input", "{bad}"],
         _wav_bytes(channels=2, block_align=2)),
        (["reconstruct", "--model", "{model}", "--input", "{bad}"],
         _wav_bytes(channels=1, block_align=3, payload=bytes(9))),
        (["classify", "--dict", "{bad}", "--manifest", "{manifest}",
          "--out", "{out}"],
         lambda d, t: _edited(_saved_dictionary(t), lambda doc: doc.update(classes={}))),
        (["classify", "--dict", "{bad}", "--manifest", "{manifest}",
          "--out", "{out}"],
         lambda d, t: _edited(_saved_dictionary(t), lambda doc: doc["classes"].pop("B"))),
        (["classify", "--dict", "{bad}", "--manifest", "{manifest}",
          "--out", "{out}"],
         lambda d, t: _edited(_saved_dictionary(t), _one_level_less)),
        (["reconstruct", "--model", "{bad}", "--input", "{wav}"],
         lambda d, t: _edited(_saved_model(t), lambda doc: doc.update(kernel_size=2 ** 62))),
        (["reconstruct", "--model", "{bad}", "--input", "{wav}"],
         lambda d, t: _edited(_saved_model(t), lambda doc: doc.update(levels=200_000))),
        (["reconstruct", "--model", "{bad}", "--input", "{wav}"],
         lambda d, t: _edited(_saved_model(t), lambda doc: doc["level_params"][0].update(
             h=_nested(900)))),
        (["reconstruct", "--model", "{bad}", "--input", "{wav}"], "[" * 100_000),
    ], ids=["model_kernel_not_numeric", "model_not_json", "elm_empty",
            "features_cell_not_numeric", "features_cell_not_finite", "features_empty",
            "scores_empty", "score_not_numeric", "dictionary_empty", "manifest_decimate_not_int",
            "manifest_not_json", "manifest_rate_zero", "wav_block_align_below_frame",
            "wav_block_align_odd", "dictionary_no_classes",
            "dictionary_one_class", "dictionary_mixed_levels",
            "model_kernel_size_huge", "model_levels_huge", "model_taps_nested_deep",
            "model_nested_past_the_parser"])
    def test_malformed_input_exits_2(self, argv, content, detect_dir, tmp_path,
                                     capsys):
        bad = tmp_path / "bad"
        content = content(detect_dir, tmp_path) if callable(content) else content
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        paths = {"{bad}": bad, "{wav}": next(detect_dir.glob("*.wav")),
                 "{manifest}": detect_dir / "manifest.json",
                 "{model}": _saved_model(tmp_path / "valid"),
                 "{out}": tmp_path / "out"}
        code, _, err = run([str(paths.get(a, a)) for a in argv], capsys)
        assert code == 2
        assert "error" in err and "Traceback" not in err

    def test_elm_without_neurons_exits_2(self, tmp_path, capsys):
        # an ELM with no hidden neurons would score every window 1.0
        features = [(f"w:{i}", LatentFeatures.from_vector(np.arange(6.0) + i))
                    for i in range(4)]
        feats, elm, out = (str(tmp_path / name) for name in ("f.csv", "elm.json", "s.csv"))
        write_features_csv(features, feats)
        save_elm(elm_fit([f for _, f in features], neurons=3, seed=0), elm)
        argv = ["detect-score", "--elm", elm, "--features", feats, "--out", out]
        assert run(argv, capsys)[0] == 0
        doc = json.loads(Path(elm).read_text())
        doc.update(hidden_weights=[[] for _ in doc["hidden_weights"]], hidden_bias=[],
                   output_weights=[])
        Path(elm).write_text(json.dumps(doc))
        Path(out).unlink()
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "error" in err and "Traceback" not in err
        assert not Path(out).exists()

    @pytest.mark.parametrize("rate", ["-1", "0", "5000000000"])
    def test_bad_synth_rate_exits_2(self, rate, tmp_path, capsys):
        # -1 and 5e9 do not fit the header's 32-bit words; 0 does, but no
        # WAV or manifest has rate 0
        out = tmp_path / "data"
        code, _, err = run(["synth", "--out", str(out), "--seed", "1", "--rate", rate,
                            "--n-normal", "2", "--n-anomal", "1", "--window", "64"],
                           capsys)
        assert code == 2
        assert "sample rate" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("samples", [[0.5, np.nan], [np.inf, 0.0], [0.0, -np.inf]],
                             ids=["nan", "plus_inf", "minus_inf"])
    def test_non_finite_samples_not_written(self, samples, tmp_path):
        # clipped and cast, NaN would be written as 0 and +-inf as full scale
        with pytest.raises(InvalidSignalError, match="non-finite"):
            write_wav(tmp_path / "x.wav", np.array(samples), 16000)
        assert not (tmp_path / "x.wav").exists()

    @pytest.mark.parametrize("rate", [-1, 0, 2 ** 31, 16000.0, True])
    def test_bad_rate_not_written(self, rate, tmp_path):
        with pytest.raises(ConfigError, match="sample rate"):
            write_wav(tmp_path / "x.wav", np.zeros(4), rate)
        assert not (tmp_path / "x.wav").exists()

    def test_file_at_another_rate_exits_2(self, detect_dir, tmp_path, capsys):
        doc = json.loads((detect_dir / "manifest.json").read_text())
        doc["sample_rate"] = 8000
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        for entry in doc["entries"]:
            (tmp_path / entry["path"]).write_bytes((detect_dir / entry["path"]).read_bytes())
        code, _, err = run(["train", "--manifest", str(manifest), "--epochs", "1",
                            "--out", str(tmp_path / "m.json")], capsys)
        assert code == 2
        assert "sample rate 16000, the manifest 8000" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "classify-train"])
    @pytest.mark.parametrize("flags,message", [
        (["--levels", "abc"], "levels must be an integer or 'auto'"),
        (["--lr", "nan"], "learning rate"),
        (["--gamma", "nan"], "gamma"),
        (["--gamma", "-1"], "gamma"),
    ], ids=["levels_not_int", "lr_nan", "gamma_nan", "gamma_negative"])
    def test_bad_training_flag_exits_2(self, command, flags, message, tmp_path,
                                       capsys):
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1", "--task",
                    "classify", "--n-normal", "2", "--n-anomal", "1",
                    "--window", "64"], capsys)[0] == 0
        out = tmp_path / "out.json"
        code, _, err = run([command, "--manifest", str(data / "manifest.json"),
                            "--epochs", "1", "--out", str(out), *flags], capsys)
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train", "detect-train", "grad-check",
                                         "classify-train"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "out"
        assert run(["synth", "--out", str(data), "--seed", "1", "--task",
                    "classify", "--n-normal", "2", "--n-anomal", "1",
                    "--window", "64"], capsys)[0] == 0
        features = tmp_path / "features.csv"
        write_features_csv([(f"w:{i}", LatentFeatures.from_vector(np.arange(4.0) * i))
                            for i in range(3)], features)
        argv = {
            "synth": ["--out", str(out), "--window", "64"],
            "train": ["--manifest", str(data / "manifest.json"), "--epochs", "1",
                      "--out", str(out)],
            "detect-train": ["--features", str(features), "--out", str(out)],
            "grad-check": ["--mode", "cwn"],
            "classify-train": ["--manifest", str(data / "manifest.json"), "--epochs", "1",
                               "--out", str(out)],
        }[command]
        code, _, err = run([command, *argv, "--seed", "-1"], capsys)
        assert code == 2
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--sigma", "nan"], "sigma must be finite"),
        (["--sigma", "inf"], "sigma must be finite"),
        (["--n-normal", "-5", "--n-anomal", "-2"], "n_train must be >= 0"),
        (["--n-anomal", "-2"], "n_test must be >= 0"),
        (["--window", "8"], "window must be >= 16"),
    ], ids=["sigma_nan", "sigma_inf", "counts_negative", "n_test_negative",
            "window_short"])
    def test_bad_synth_spec_exits_2_and_writes_nothing(self, flags, message, tmp_path,
                                                       capsys):
        out = tmp_path / "data"
        code, _, err = run(["synth", "--out", str(out), "--seed", "1", "--n-normal", "2",
                            "--n-anomal", "1", "--window", "64", *flags], capsys)
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["manifest", "out", "entry"])
    def test_directory_for_a_file_exits_2(self, where, detect_dir, tmp_path, capsys):
        # an entry path of "" names the manifest's own directory
        doc = json.loads((detect_dir / "manifest.json").read_text())
        for entry in doc["entries"]:
            entry["path"] = str(detect_dir / entry["path"])
        if where == "entry":
            doc["entries"][0]["path"] = ""
        manifest, out = tmp_path / "manifest.json", tmp_path / "model.json"
        manifest.write_text(json.dumps(doc))
        if where == "manifest":
            manifest = tmp_path
        if where == "out":
            out = tmp_path
        code, _, err = run(["train", "--manifest", str(manifest), "--epochs", "1",
                            "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "classify-train"])
    def test_divergence_exits_2(self, command, tmp_path, capsys):
        # a finite but huge rate: the first update throws the kernels to
        # about 1e300, and the next block's loss and gradient overflow
        data = tmp_path / "data"
        assert run(["synth", "--out", str(data), "--seed", "1", "--task",
                    "classify", "--n-normal", "2", "--n-anomal", "1",
                    "--window", "64"], capsys)[0] == 0
        out = tmp_path / "out.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run([command, "--manifest", str(data / "manifest.json"),
                                "--epochs", "3", "--lr", "1e300", "--out", str(out)],
                               capsys)
        assert code == 2
        assert "diverged at epoch 2, batch 1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1", "0"])
    def test_bad_ridge_exits_2(self, ridge, tmp_path, capsys):
        # 10 samples and 50 neurons: with no ridge the Gram matrix is singular
        rng = np.random.default_rng(0)
        features = tmp_path / "features.csv"
        write_features_csv(
            [(f"w:{i}", LatentFeatures.from_vector(rng.random(6)))
             for i in range(10)], features)
        out = tmp_path / "elm.json"
        code, _, err = run(["detect-train", "--features", str(features),
                            "--ridge", ridge, "--out", str(out)], capsys)
        assert code == 2
        assert "ridge" in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_mode_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["train", "--manifest", "m.json", "--mode", "not-a-mode",
                  "--out", "o.json"])


class _Stop(Exception):
    """Raised by a stand-in for a library call once it has its arguments."""


def _library_call(monkeypatch, target, argv):
    """The (args, kwargs) with which `main(argv)` calls `target`, a dotted
    name, replaced by a stand-in that keeps `target`'s signature (the CLI
    reads it to know which options are the library's)."""
    module, name = target.rsplit(".", 1)
    calls = []

    @functools.wraps(getattr(importlib.import_module(module), name))
    def stand_in(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Stop

    monkeypatch.setattr(target, stand_in)
    with pytest.raises(_Stop):
        main(argv)
    (call,) = calls
    return call


class TestLibraryOptions:
    """A library option left out of the command line is not passed, so the
    library's own default applies; a given one arrives under its library name."""

    @pytest.mark.parametrize("command,target", [
        ("train", "wavelearn.cli.train"),
        ("classify-train", "wavelearn.analysis.dict_train"),
    ])
    def test_training_options(self, command, target, detect_dir, tmp_path, monkeypatch):
        argv = [command, "--manifest", str(detect_dir / "manifest.json"),
                "--out", str(tmp_path / "out.json")]
        (_, mode, config), _ = _library_call(monkeypatch, target, argv)
        assert config == TrainConfig() and config.levels is None
        assert mode is SharingMode.PER_LEVEL_CQF_HT
        (_, mode, config), _ = _library_call(monkeypatch, target, argv + [
            "--mode", "cwn", "--gamma", "0.5", "--levels", "4", "--kernel-size", "6",
            "--epochs", "3", "--lr", "0.01", "--batch", "2", "--seed", "7"])
        assert mode is SharingMode.SHARED_CQF
        assert config == TrainConfig(epochs=3, learning_rate=0.01, batch_size=2, seed=7,
                                     gamma=0.5, levels=4, kernel_size=6)
        (_, _, config), _ = _library_call(monkeypatch, target,
                                          argv + ["--levels", "auto", "--epochs", "2"])
        assert config == TrainConfig(epochs=2) and config.levels is None

    def test_synth_options(self, tmp_path, monkeypatch):
        target, argv = "wavelearn.datasets.generate_synthetic", [
            "synth", "--out", str(tmp_path / "data"), "--seed", "5"]
        assert _library_call(monkeypatch, target, argv) == ((SyntheticSpec(),), {"seed": 5})
        assert _library_call(monkeypatch, target, argv + [
            "--sigma", "0.2", "--n-normal", "3", "--n-anomal", "2", "--window", "64",
            "--task", "classify"]) == (
            (SyntheticSpec(task="classify", window=64, sigma=0.2, n_train=3, n_test=2),),
            {"seed": 5})
        assert not (tmp_path / "data").exists()

    def test_detect_train_options(self, tmp_path, monkeypatch):
        features = tmp_path / "features.csv"
        write_features_csv([(f"w:{i}", LatentFeatures.from_vector(np.arange(4.0) * i))
                            for i in range(3)], features)
        target, argv = "wavelearn.analysis.elm_fit", [
            "detect-train", "--features", str(features), "--out", str(tmp_path / "elm.json")]
        (rows,), kwargs = _library_call(monkeypatch, target, argv)
        assert len(rows) == 3 and kwargs == {}
        _, kwargs = _library_call(monkeypatch, target,
                                  argv + ["--neurons", "7", "--ridge", "0.5", "--seed", "3"])
        assert kwargs == {"neurons": 7, "ridge_lambda": 0.5, "seed": 3}

    def test_grad_check_options(self, monkeypatch):
        target, argv = "wavelearn.cli.gradient_check", ["grad-check", "--mode", "cwn"]
        assert _library_call(monkeypatch, target, argv) == ((SharingMode.SHARED_CQF,), {})
        _, kwargs = _library_call(monkeypatch, target,
                                  argv + ["--seed", "2", "--seeds", "3", "--tolerance", "1e-3"])
        assert kwargs == {"seed": 2, "n_seeds": 3, "rel_tol": 1e-3}

    @pytest.mark.parametrize("command", [
        "synth", "train", "reconstruct", "features", "detect-train", "detect-score",
        "eval-auc", "grad-check", "classify-train", "classify"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert f"wavelearn {command}" in capsys.readouterr().out


def _saved_model(tmp_path):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "model.json"
    save_model(WaveletNet(8, 8, SharingMode.PER_LEVEL_CQF_HT), path)
    return path


def _saved_dictionary(tmp_path):
    """A valid two-class dictionary document, saved under `tmp_path`."""
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "dictionary.json"
    save_dictionary(DictionaryModel(class_models={
        c: WaveletNet(3, 8, SharingMode.DB4_FIXED_HT) for c in "AB"}), path)
    return path


def _one_level_less(doc):
    """Make class B of a dictionary document one level shallower than A."""
    doc["classes"]["B"]["levels"] -= 1
    doc["classes"]["B"]["level_params"].pop()


def _nested(depth: int) -> list:
    """A list of one tap nested `depth` lists deep."""
    value = [0.5]
    for _ in range(depth):
        value = [value]
    return value


def _edited(path, edit) -> str:
    """The JSON document at `path`, changed in place by `edit`, as text."""
    doc = json.loads(path.read_text())
    edit(doc)
    return json.dumps(doc)
