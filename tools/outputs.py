#!/usr/bin/env python3
"""Compare the package's outputs on a fixed grid between two source trees.

    python3 tools/outputs.py --base REV

checks git revision REV out into a temporary worktree (removed afterwards),
runs the grid once against its package and once against this tree's, each
in a fresh Python process with OpenBLAS held to one thread, and prints per
group of outputs how many arrays are bitwise equal and the largest move of
any array relative to its own largest entry. The exit code is 0 only when
every array is bitwise equal.

The grid runs every sharing mode over windows of the shapes in `SHAPES` with
8-tap kernels, and every mode that does not pin its kernel size over those
in `LONG_KERNEL_SHAPES` with 16-tap kernels too, which outgrow the inputs
of their deepest levels; all at full depth, with perturbed parameters and
gamma 0.7. Its groups are:

* ``trace``: a forward pass's reconstruction chain, details before and
  after the gate, gate terms, approximation and loss triple;
* ``backward``: `backward_full`'s loss triple and gradient;
* ``train``: a 2-epoch `train` run's parameters and loss history;
* ``read``: each window's features, its one-class score under an ELM fitted
  on the shape's windows, and its losses under a 2-class dictionary;
* ``documents``: the bytes, as uint8, of the files that `save_model` (the
  perturbed model), `save_elm`, `save_dictionary` and `write_features_csv`
  write for the ``read`` group's objects.

It reads only the package's public names, so a tree whose API moved needs
this script to follow. numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import math
import os
import pickle
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHAPES = [(1024,), (8, 1024), (7,), (4, 33), (3, 100), (625,), (1, 20000), (2, 5000)]
LONG_KERNEL_SHAPES = [(7,), (4, 33)]
GROUPS = ("trace", "backward", "train", "read", "documents")


def _perturbed(wl, mode, levels, taps, rng):
    model = wl.WaveletNet(levels, taps, mode, gamma=0.7)
    vec = model.get_parameters()
    return model.with_parameters(vec + rng.normal(0.0, 0.05, vec.size))


def run_grid() -> dict[str, np.ndarray]:
    """Every output of the grid, keyed ``group/mode/shape/kK/name``, from
    the `wavelearn` this process imports."""
    import wavelearn as wl
    from wavelearn.network import forward_trace, loss_terms
    from wavelearn.training import backward_full
    out = {}
    for mode in wl.SharingMode:
        grid = [(shape, 8) for shape in SHAPES]
        grid += [] if mode.scheme.kernel_size else [(shape, 16) for shape in LONG_KERNEL_SHAPES]
        for shape, taps in grid:
            tag = f"{mode.value}/{'x'.join(map(str, shape))}/k{taps}"
            rng = np.random.default_rng(zlib.crc32(tag.encode()))
            levels = wl.max_depth(shape[-1])
            model = _perturbed(wl, mode, levels, taps, rng)
            x = rng.normal(size=shape)
            windows = list(np.atleast_2d(x))

            trace = forward_trace(model, x)
            arrays = {f"chain{l}": a for l, a in enumerate(trace.recon_chain)}
            arrays.update(details_pre=trace.details_pre, details=trace.details,
                          approx=trace.approx,
                          loss=np.array(loss_terms(trace, x, model.gamma)))
            arrays.update({f"gate{i}": g for i, g in enumerate(trace.gates)})
            out.update({f"trace/{tag}/{name}": a for name, a in arrays.items()})

            triple, grad = backward_full(x, model)
            out[f"backward/{tag}/loss"], out[f"backward/{tag}/gradient"] = np.array(triple), grad

            config = wl.TrainConfig(epochs=2, batch_size=2, levels=levels, gamma=0.7, seed=1)
            report = wl.train(windows, mode, config)
            out[f"train/{tag}/parameters"] = report.final_model.get_parameters()
            out[f"train/{tag}/history"] = np.array(report.loss_history)

            features = [wl.extract_features(w, model) for w in windows]
            elm = wl.elm_fit(features, neurons=8, seed=1)
            dictionary = wl.DictionaryModel(class_models={
                "a": model, "b": _perturbed(wl, mode, levels, taps, rng)})
            out[f"read/{tag}/features"] = np.array([f.vector() for f in features])
            out[f"read/{tag}/scores"] = np.array([wl.elm_score(elm, f) for f in features])
            out[f"read/{tag}/losses"] = np.array(
                [list(wl.dict_classify(w, dictionary)[1].values()) for w in windows])

            rows = [(f"w{i}", f) for i, f in enumerate(features)]
            with tempfile.TemporaryDirectory() as tmp:
                for name, save, obj in (("model", wl.save_model, model), ("elm", wl.save_elm, elm),
                                        ("dictionary", wl.save_dictionary, dictionary),
                                        ("features", wl.write_features_csv, rows)):
                    save(obj, Path(tmp) / name)
                    out[f"documents/{tag}/{name}"] = np.frombuffer(
                        (Path(tmp) / name).read_bytes(), np.uint8)
    return out


def collect(tree) -> dict[str, np.ndarray]:
    """`run_grid` against the package in `tree`/src, in a fresh process."""
    src = (Path(tree) / "src").resolve()
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outputs.pickle"
        subprocess.run([sys.executable, __file__, "--collect", str(path)], env=env, check=True)
        with open(path, "rb") as f:
            package, outputs = pickle.load(f)
    if Path(package).resolve().parent != src / "wavelearn":
        raise RuntimeError(f"the grid ran against {package}, not the package in {src}")
    return outputs


def relative_move(base: np.ndarray, head: np.ndarray) -> float:
    """max |head - base| over max |base|; inf when the shapes differ."""
    if base.shape != head.shape:
        return math.inf
    # in floats, so that the bytes of a document do not wrap
    diff = np.max(np.abs(np.subtract(head, base, dtype=float)), initial=0.0)
    scale = np.max(np.abs(base), initial=0.0)
    return float(diff / scale) if scale else (0.0 if diff == 0 else math.inf)


def compare(base: dict, head: dict) -> list[tuple[str, int, int, float]]:
    """(group, arrays, bitwise equal, worst relative move) per group; an
    array only one side has counts as unequal, with an infinite move."""
    rows = []
    for group in GROUPS:
        keys = sorted(k for k in base.keys() | head.keys() if k.split("/")[0] == group)
        equal, worst = 0, 0.0
        for key in keys:
            a, b = base.get(key), head.get(key)
            if a is not None and b is not None and a.shape == b.shape \
                    and a.dtype == b.dtype and a.tobytes() == b.tobytes():
                equal += 1
            else:
                worst = max(worst, math.inf if a is None or b is None else relative_move(a, b))
        rows.append((group, len(keys), equal, worst))
    return rows


def table(rows) -> str:
    lines = ["| group | arrays | bitwise equal | worst relative move |", "|---|---|---|---|"]
    lines += [f"| {group} | {n} | {equal} | {worst:.3g} |" for group, n, equal, worst in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare this tree against")
    parser.add_argument("--collect", help=argparse.SUPPRESS)  # the per-tree process
    args = parser.parse_args(argv)
    if args.collect:
        import wavelearn
        with open(args.collect, "wb") as f:
            pickle.dump((wavelearn.__file__, run_grid()), f)
        return 0
    if not args.base:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.base], check=True)
        try:
            base = collect(tree)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    rows = compare(base, collect(ROOT))
    print(f"{args.base} -> working tree")
    print(table(rows))
    return 0 if all(n == equal for _, n, equal, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
