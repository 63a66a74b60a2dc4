"""Every document the package reads, mutated: a saved model, one-class ELM
and dictionary, a manifest, a features CSV, a scores CSV and a WAV file.

Each field is deleted or replaced by each of a fixed list of values, and each
file is cut at a spread of byte offsets. Every load must raise a
`WavelearnError` subclass, or return an object that saves back to the same
values, with no JSON bool read as a number and no real read as an integer.
A sample of the rejected documents runs through `cli.main`, which must exit 2
with one `error:` line on stderr.

The two number rules that the loaders read every field through,
`errors.as_integer` and `errors.as_real`, are tested here too."""

import copy
import csv
import io
import json
import math
import struct

import numpy as np
import pytest

from wavelearn import persist
from wavelearn.analysis import DictionaryModel, LatentFeatures, elm_fit
from wavelearn.audio import read_wav, write_wav
from wavelearn.cli import main
from wavelearn.datasets import DatasetManifest, ManifestEntry, load_manifest, save_manifest
from wavelearn.errors import ConfigError, FormatError, WavelearnError, as_integer, as_real
from wavelearn.network import SharingMode, WaveletNet

# what each field becomes: DELETE deletes it, AS_FLOAT turns an integer into
# the equal float, AS_PAIRS turns an object into its list of [key, value]
# pairs, and every other entry replaces the field's value
DELETE, AS_FLOAT, AS_PAIRS = "<deleted>", "<as float>", "<as pairs>"
MUTATIONS = [DELETE, AS_FLOAT, AS_PAIRS, 3.9, True, -1, 0, "x", None, [], {},
             1e308, 2 ** 63]
# cells of a CSV table are text: each replacement value as JSON writes it
CELL_MUTATIONS = [DELETE] + [v if isinstance(v, str) else json.dumps(v)
                             for v in MUTATIONS[3:]]
# a WAV header's integer fields as (offset, struct format), and its four tags
WAV_FIELDS = [(4, "<I"), (16, "<I"), (20, "<H"), (22, "<H"), (24, "<I"),
              (28, "<I"), (32, "<H"), (34, "<H"), (40, "<I")]
WAV_TAGS = [0, 8, 12, 36]


def _applies(mutation, value) -> bool:
    if mutation == AS_FLOAT:
        return isinstance(value, int) and not isinstance(value, bool)
    return mutation != AS_PAIRS or isinstance(value, dict)


def _replaced(value, mutation):
    if mutation == AS_FLOAT:
        return float(value)
    if mutation == AS_PAIRS:
        return [list(item) for item in value.items()]
    return mutation


def _paths(doc, prefix=()):
    """The path of every field below `doc`: each key of an object and the
    first entry of each list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:1])
    else:
        items = ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _json_cases(content: bytes):
    """(case, bytes) of every mutation of every field of the JSON document
    `content`, and of the document cut at about 50 byte offsets."""
    doc = json.loads(content)
    for path in _paths(doc):
        for mutation in MUTATIONS:
            edited = copy.deepcopy(doc)
            *parents, last = path
            node = edited
            for key in parents:
                node = node[key]
            if mutation == DELETE:
                del node[last]
            elif _applies(mutation, node[last]):
                node[last] = _replaced(node[last], mutation)
            else:
                continue
            yield f"{'.'.join(map(str, path))}={mutation!r}", json.dumps(edited).encode()
    yield from _cuts(content, max(1, len(content) // 50))


def _csv_cases(content: bytes):
    """(case, bytes) of every cell of the header and the first row of the
    CSV table `content` deleted or replaced by each mutation's text, and of
    the table cut at every byte offset."""
    records = list(csv.reader(content.decode().splitlines()))
    for r in (0, 1):
        for c in range(len(records[r])):
            for mutation in CELL_MUTATIONS:
                edited = copy.deepcopy(records)
                if mutation == DELETE:
                    del edited[r][c]
                else:
                    edited[r][c] = mutation
                yield f"row {r} cell {c}={mutation!r}", _csv_text(edited)
    yield from _cuts(content, 1)


def _wav_cases(content: bytes):
    """(case, bytes) of every integer field of the WAV header `content` set
    to each of a few values, every tag spoiled, and the file cut at every
    byte offset."""
    for offset, fmt in WAV_FIELDS:
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        for value in (0, 1, 2, 3, 16, 44, 2 ** 15, top):
            edited = bytearray(content)
            struct.pack_into(fmt, edited, offset, value)
            yield f"header byte {offset}={value}", bytes(edited)
    for offset in WAV_TAGS:
        yield f"tag at {offset}", content[:offset] + b"x\0\0\0" + content[offset + 4:]
    yield from _cuts(content, 1)


def _cuts(content: bytes, step: int):
    for size in range(0, len(content), step):
        yield f"cut at {size}", content[:size]


def _csv_text(records) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(records)
    return buf.getvalue().encode()


def _table(path):
    """A CSV table as its header, then its rows with every cell after the
    id read as a float."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return [header] + [[row[0], *map(float, row[1:])] for row in rows]


def _same(saved, doc) -> bool:
    """Whether `saved` holds every value of `doc` at its place (keys that
    `doc` lacks may hold defaults), with a bool only where `doc` holds one
    and an integer nowhere `doc` holds a float."""
    if isinstance(doc, dict):
        return isinstance(saved, dict) and all(
            key in saved and _same(saved[key], value) for key, value in doc.items())
    if isinstance(doc, list):
        return (isinstance(saved, list) and len(saved) == len(doc)
                and all(map(_same, saved, doc)))
    if isinstance(saved, bool) != isinstance(doc, bool):
        return False
    if isinstance(doc, float) and not isinstance(saved, float):
        return False
    return saved == doc


def _json_values(path):
    return json.loads(path.read_bytes())


def _elm_as_fitted(elm) -> bool:
    """Whether `elm` holds what `elm_fit` can write: a positive ridge, every
    scale positive and a seed of at least 0."""
    return elm.ridge_lambda > 0 and bool(np.all(elm.scaler_std > 0)) and elm.seed >= 0


def _wav_values(path):
    samples, rate = read_wav(path)
    return [samples.tolist(), rate]


# per target: (load, save, the values of a file, the kind of its mutations,
# a check of what loads beyond its values, and a command reading `{bad}`)
TARGETS = {
    "model": (persist.load_model, persist.save_model, _json_values, _json_cases,
              None, ["reconstruct", "--model", "{bad}", "--input", "{wav}"]),
    "elm": (persist.load_elm, persist.save_elm, _json_values, _json_cases,
            _elm_as_fitted,
            ["detect-score", "--elm", "{bad}", "--features", "{features}", "--out", "{out}"]),
    "dictionary": (persist.load_dictionary, persist.save_dictionary, _json_values,
                   _json_cases, None,
                   ["classify", "--dict", "{bad}", "--manifest", "{manifest}",
                    "--out", "{out}"]),
    "manifest": (load_manifest, save_manifest, _json_values, _json_cases, None,
                 ["eval-auc", "--scores", "{scores}", "--manifest", "{bad}"]),
    "features": (persist.read_features_csv, persist.write_features_csv, _table,
                 _csv_cases, None, ["detect-train", "--features", "{bad}", "--out", "{out}"]),
    "scores": (persist.read_scores_csv, persist.write_scores_csv, _table, _csv_cases,
               None, ["eval-auc", "--scores", "{bad}", "--manifest", "{manifest}"]),
    "wav": (read_wav, lambda loaded, path: write_wav(path, *loaded), _wav_values,
            _wav_cases, None, ["reconstruct", "--model", "{model}", "--input", "{bad}"]),
}


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A valid file of every target, by the target's name."""
    out = tmp_path_factory.mktemp("documents")
    rng = np.random.default_rng(0)
    model = WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF_HT, gamma=0.5)
    model = model.with_parameters(model.get_parameters()
                                  + rng.normal(0.0, 0.05, model.parameter_count()))
    persist.save_model(model, out / "model")
    features = [(f"w{i}.wav:0", LatentFeatures.from_vector(rng.uniform(0.1, 1.0, 6)))
                for i in range(3)]
    persist.write_features_csv(features, out / "features")
    persist.save_elm(elm_fit([f for _, f in features], neurons=4, seed=1), out / "elm")
    persist.save_dictionary(DictionaryModel(
        {c: WaveletNet(2, 4, SharingMode.SHARED_CQF_HT, gamma=0.5) for c in "AB"}),
        out / "dictionary")
    save_manifest(DatasetManifest(
        sample_rate=16000, window_size=64, decimate=2,
        entries=[ManifestEntry("w0.wav", "normal", "train"),
                 ManifestEntry("w1.wav", None, "test")]), out / "manifest")
    persist.write_scores_csv([("w0.wav:0", 0.25), ("w1.wav:0", 1.5)], out / "scores")
    write_wav(out / "wav", np.linspace(-0.5, 0.5, 8), 16000)
    return {name: out / name for name in TARGETS}


def _outcomes(target, good, tmp_path):
    """(case, what went wrong or None, whether the load was rejected) of
    every mutation of the target's valid file."""
    load, save, values, cases, check, _ = TARGETS[target]
    bad, back = tmp_path / "bad", tmp_path / "back"
    for case, content in cases(good[target].read_bytes()):
        bad.write_bytes(content)
        try:
            loaded = load(bad)
        except WavelearnError:
            yield case, None, True
            continue
        except Exception as exc:  # noqa: BLE001 - an escape is what this records
            yield case, f"load raised {type(exc).__name__}: {exc}", False
            continue
        try:
            save(loaded, back)
        except WavelearnError as exc:
            yield case, f"the loaded object does not save: {exc}", False
            continue
        if not _same(values(back), values(bad)):
            yield case, "saved back with other values or JSON types", False
        elif check is not None and not check(loaded):
            yield case, "loaded what its writer never writes", False
        else:
            yield case, None, False


@pytest.mark.parametrize("target", TARGETS)
def test_every_mutation_is_rejected_or_kept(target, good, tmp_path):
    escapes = [f"{case}: {what}" for case, what, _ in _outcomes(target, good, tmp_path)
               if what]
    assert not escapes, "\n".join(escapes)


@pytest.mark.parametrize("target", TARGETS)
def test_rejected_documents_exit_2_through_the_cli(target, good, tmp_path, capsys):
    rejected = [case for case, _, was in _outcomes(target, good, tmp_path) if was]
    assert rejected
    cases = dict(TARGETS[target][3](good[target].read_bytes()))
    paths = {f"{{{name}}}": str(path) for name, path in good.items()}
    paths.update({"{bad}": str(tmp_path / "bad"), "{out}": str(tmp_path / "out")})
    argv = [paths.get(a, a) for a in TARGETS[target][5]]
    for case in rejected[::max(1, len(rejected) // 6)]:
        (tmp_path / "bad").write_bytes(cases[case])
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, case
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (case, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("mode", [m for m in SharingMode if not m.trains_thresholds],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("name, value", [("b_plus", 5.0), ("b_minus", -0.5)])
def test_thresholds_of_a_mode_that_trains_none_rejected(mode, name, value, tmp_path):
    # every forward pass of such a mode ignores them; its own zeros load
    path = tmp_path / "model"
    persist.save_model(WaveletNet(3, 8, mode), path)
    assert not persist.load_model(path).params[name].any()
    doc = json.loads(path.read_text())
    doc["level_params"][1][name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="trains no thresholds"):
        persist.load_model(path)


@pytest.mark.parametrize("mode", [SharingMode.DB4_FIXED, SharingMode.DB4_FIXED_HT],
                         ids=lambda m: m.value)
def test_fixed_mode_of_another_kernel_size_rejected(mode, tmp_path):
    # a db4 document holds no taps to check its kernel size against; the
    # model it would build has 8 taps, so any other size is a bad document
    path = tmp_path / "model"
    persist.save_model(WaveletNet(3, 8, mode), path)
    doc = json.loads(path.read_text())
    doc["kernel_size"] = 4
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="8-tap kernels, got 4"):
        persist.load_model(path)


class TestNumberRules:
    @pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1], 1 + 0j])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(ConfigError, match="speed must be a real number"):
            as_real(value, "speed")
        with pytest.raises(ConfigError, match="speed must be an integer"):
            as_integer(value, "speed", 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(np.nan),
                                       10 ** 400, -(10 ** 400)])
    def test_non_finite_reals_rejected(self, value):
        with pytest.raises(ConfigError, match="speed must be finite"):
            as_real(value, "speed", -math.inf)

    def test_range(self):
        assert as_real(0, "speed") == 0.0
        assert as_real(-1.5, "speed", -math.inf) == -1.5
        with pytest.raises(ConfigError, match="speed must be >= 0"):
            as_real(-1e-300, "speed")
        with pytest.raises(ConfigError, match="speed must be > 0"):
            as_real(0.0, "speed", strict=True)
        with pytest.raises(ConfigError, match=r"speed must be > 2\.5"):
            as_real(2.5, "speed", 2.5, strict=True)

    @pytest.mark.parametrize("value", [3, np.int64(3), 0.1, np.float32(0.1), 2 ** 63,
                                       1.7976931348623157e308])
    def test_reals_come_back_as_the_same_float(self, value):
        real = as_real(value, "speed")
        assert type(real) is float and real == float(value)
