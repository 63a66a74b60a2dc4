"""Command-line interface.

Subcommands cover the full workflow: synthetic data generation, model
training, reconstruction, feature extraction, one-class detector fit/score,
AUC evaluation, gradient checking, and dictionary classification. All
commands exit 0 on success and nonzero with a message on stderr otherwise.

A library option reaches the library under the library's name only when the
command line gives it, so an option left out takes the library's default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, datasets, persist
from .audio import read_wav, write_wav
from .errors import ConfigError, WavelearnError
from .network import SharingMode, model_forward
from .training import TrainConfig, gradient_check, train

MODE_NAMES = [m.value for m in SharingMode]
TRAINABLE_MODE_NAMES = [m.value for m in SharingMode if m.scheme.kinds or m.trains_thresholds]


def _given(args, target) -> dict:
    """The parameters of `target` (a function or a config class) that have a
    default and that the command line gave, under `target`'s names."""
    return {name: getattr(args, name) for name, p in inspect.signature(target).parameters.items()
            if p.default is not p.empty and hasattr(args, name)}


def _add_training_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--manifest", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--mode", choices=MODE_NAMES, default="despawn")
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--levels", help="decomposition depth, or 'auto' for log2 of the window")
    sub.add_argument("--kernel-size", type=int)
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--lr", type=float, dest="learning_rate")
    sub.add_argument("--batch", type=int, dest="batch_size")
    sub.add_argument("--seed", type=int)


def _train_config(args) -> TrainConfig:
    options = _given(args, TrainConfig)
    if "levels" in options:
        text = options["levels"]
        try:
            options["levels"] = None if text == "auto" else int(text)
        except ValueError:
            raise ConfigError(f"levels must be an integer or 'auto', got {text!r}") from None
    return TrainConfig(**options)


def _windows(manifest: str, split: str) -> list:
    windows = datasets.load_windows(datasets.load_manifest(manifest), split=split)
    if not windows:
        raise ConfigError(f"no windows in split {split!r}")
    return windows


def cmd_synth(args) -> int:
    out = Path(args.out)
    spec = datasets.SyntheticSpec(**_given(args, datasets.SyntheticSpec))
    records = datasets.generate_synthetic(spec, seed=args.seed)
    entries = [datasets.ManifestEntry(path=rec.id.rsplit("/", 1)[-1] + ".wav",
                                      label=rec.label, split=rec.split)
               for rec in records]
    manifest = datasets.DatasetManifest(
        sample_rate=args.rate, window_size=spec.window,
        entries=entries, decimate=1, base_dir=out,
    )
    manifest.validate()
    out.mkdir(parents=True, exist_ok=True)
    for rec, entry in zip(records, entries):
        write_wav(out / entry.path, rec.samples, args.rate)
    datasets.save_manifest(manifest, out / "manifest.json")
    print(json.dumps({"out": str(out), "files": len(entries)}))
    return 0


def cmd_train(args) -> int:
    windows = _windows(args.manifest, "train")
    config = _train_config(args)
    report = train([w.samples for w in windows], SharingMode(args.mode), config)
    persist.save_model(report.final_model, args.out)
    first, last = report.loss_history[0], report.loss_history[-1]
    print(json.dumps({
        "windows": len(windows),
        "epochs": len(report.loss_history),
        "initial_loss": first[0],
        "final_loss": last[0],
        "wall_time_s": round(report.wall_time, 3),
    }))
    return 0


def cmd_reconstruct(args) -> int:
    model = persist.load_model(args.model)
    samples, rate = read_wav(args.input)
    record = model_forward(samples, model)
    residual = np.abs(record.residual)
    if args.out:
        write_wav(args.out, record.reconstruction, rate)
    print(json.dumps({
        "n": int(samples.size),
        "res_mean": float(residual.mean()),
        "res_max": float(residual.max()),
    }))
    return 0


def cmd_features(args) -> int:
    model = persist.load_model(args.model)
    windows = _windows(args.manifest, args.split)
    rows = [(w.id, analysis.extract_features(w.samples, model)) for w in windows]
    persist.write_features_csv(rows, args.out)
    print(json.dumps({"rows": len(rows), "out": args.out}))
    return 0


def cmd_detect_train(args) -> int:
    rows = persist.read_features_csv(args.features)
    elm = analysis.elm_fit([f for _, f in rows], **_given(args, analysis.elm_fit))
    persist.save_elm(elm, args.out)
    print(json.dumps({"samples": len(rows), "neurons": elm.neurons}))
    return 0


def cmd_detect_score(args) -> int:
    elm = persist.load_elm(args.elm)
    rows = persist.read_features_csv(args.features)
    scores = [(row_id, analysis.elm_score(elm, feats)) for row_id, feats in rows]
    persist.write_scores_csv(scores, args.out)
    print(json.dumps({"rows": len(scores), "out": args.out}))
    return 0


def cmd_eval_auc(args) -> int:
    scored = persist.read_scores_csv(args.scores)
    labels = {e.path: e.label for e in datasets.load_manifest(args.manifest).entries}
    y, s = [], []
    for window_id, score in scored:
        # a window's id is its file's manifest path, a colon and its index
        label = labels.get(window_id.rsplit(":", 1)[0])
        if label is None:
            raise ConfigError(f"no label for {window_id} in the manifest")
        y.append(0 if label == "normal" else 1)
        s.append(score)
    auc = analysis.roc_auc(np.array(s), np.array(y))
    print(auc)
    return 0


def cmd_grad_check(args) -> int:
    names = TRAINABLE_MODE_NAMES if args.mode == "all" else [args.mode]
    failed = False
    for name in names:
        report = gradient_check(SharingMode(name), **_given(args, gradient_check))
        status = "PASS" if report.passed else "FAIL"
        print(f"{name}: {status} ({report.checked} comparisons, "
              f"{len(report.kinks)} at a kink, worst ratio {report.max_ratio:.3g})")
        failed |= not report.passed
    return 1 if failed else 0


def cmd_classify_train(args) -> int:
    windows = _windows(args.manifest, "train")
    grouped: dict[str, list] = {}
    for w in windows:
        if w.label is None:
            raise ConfigError(f"unlabeled training window {w.id}")
        grouped.setdefault(w.label, []).append(w.samples)
    config = _train_config(args)
    dictionary, _reports = analysis.dict_train(
        grouped, SharingMode(args.mode), config)
    persist.save_dictionary(dictionary, args.out)
    print(json.dumps({"classes": sorted(grouped),
                      "windows": len(windows)}))
    return 0


def cmd_classify(args) -> int:
    dictionary = persist.load_dictionary(args.dict)
    windows = _windows(args.manifest, args.split)
    class_labels = dictionary.labels()
    results = [analysis.dict_classify(w.samples, dictionary) for w in windows]
    persist.write_table(args.out, ["id", "predicted"] + [f"loss_{c}" for c in class_labels],
                        ([w.id, predicted] + [losses[c] for c in class_labels]
                         for w, (predicted, losses) in zip(windows, results)))
    hits = [predicted == w.label
            for w, (predicted, _) in zip(windows, results) if w.label is not None]
    summary = {"rows": len(windows), "out": args.out}
    if hits:
        summary["accuracy"] = sum(hits) / len(hits)
    print(json.dumps(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelearn",
        description="Learnable wavelet cascade toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        # an option with no default of its own stays out of the namespace
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic WAV dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--n-normal", type=int, dest="n_train")
    p.add_argument("--n-anomal", type=int, dest="n_test")
    p.add_argument("--window", type=int)
    p.add_argument("--task", choices=["detect", "classify"])
    p.add_argument("--rate", type=int, default=16000)

    p = command("train", cmd_train, "train a model on the manifest's train split")
    _add_training_flags(p)

    p = command("reconstruct", cmd_reconstruct, "run a model over one WAV file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", default=None)

    p = command("features", cmd_features, "extract latent features to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="all")

    p = command("detect-train", cmd_detect_train, "fit the one-class scorer")
    p.add_argument("--features", required=True)
    p.add_argument("--neurons", type=int)
    p.add_argument("--ridge", type=float, dest="ridge_lambda")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = command("detect-score", cmd_detect_score, "score features with a fitted scorer")
    p.add_argument("--elm", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)

    p = command("eval-auc", cmd_eval_auc, "AUC of scores against manifest labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)

    p = command("grad-check", cmd_grad_check, "verify gradients against finite differences")
    p.add_argument("--mode", choices=TRAINABLE_MODE_NAMES + ["all"], required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=int, dest="n_seeds",
                   help="number of consecutive seeds to run")
    p.add_argument("--tolerance", type=float, dest="rel_tol")

    p = command("classify-train", cmd_classify_train, "train one model per class")
    _add_training_flags(p)

    p = command("classify", cmd_classify, "assign windows to the minimal-loss class")
    p.add_argument("--dict", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WavelearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
