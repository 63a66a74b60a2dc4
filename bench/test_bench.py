"""Tests of the benchmark's own machinery: self-time arithmetic, the tail
percentile rule, and restoring wrapped functions after a traced run.

    python3 -m pytest -q bench
"""

import sys
import types

import numpy as np
import pytest

import stats
import tracer
from tracer import Layer, Patch, Tracer, self_times


# ---------------------------------------------------------------------------
# self time


def test_self_times_of_hand_built_tree():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3];
    # 4 [20, 21] is a second root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_self_times_of_empty_trace():
    empty = np.zeros(0)
    assert self_times(np.zeros(0, dtype=np.int64), empty, empty).size == 0


@pytest.fixture
def fake_package(monkeypatch):
    """Package `fakepkg` with `outer -> (inner, leaf)` and `inner -> leaf`,
    where `inner` is also imported into a second module, and a clock that
    advances one unit per reading."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf():
        return 1

    def inner():
        return core.leaf() + 1

    def outer():
        return core.inner() + core.leaf()

    core.leaf, core.inner, core.outer = leaf, inner, outer
    user.inner = inner
    pkg.core, pkg.user = core, user
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: float(next(ticks)))
    return core, user


def test_tracer_self_time_per_layer(fake_package):
    core, user = fake_package
    layers = [Layer("core.outer", "core", "outer"), Layer("core.inner", "core", "inner"),
              Layer("core.leaf", "core", "leaf")]
    with Tracer(layers, package="fakepkg") as tr:
        assert core.outer() == 3
        assert user.inner() == 2
    totals = tr.totals()
    # clock readings: outer 0..7 encloses inner 1..4 (leaf 2..3) and leaf 5..6;
    # user.inner 8..11 encloses leaf 9..10
    assert {k: v["calls"] for k, v in totals.items()} == {
        "core.outer": 1, "core.inner": 2, "core.leaf": 3}
    assert totals["core.outer"]["self_ms"] == pytest.approx((7 - 3 - 1) * 1e3)
    assert totals["core.inner"]["self_ms"] == pytest.approx(((3 - 1) + (3 - 1)) * 1e3)
    assert totals["core.leaf"]["self_ms"] == pytest.approx(3 * 1e3)
    cols = tr.columns()
    assert cols["parent"].tolist() == [-1, 0, 1, 0, -1, 4]


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("samples, expected", [
    (0, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert stats.tail_percentile(samples) == expected
    if expected is not None:
        assert stats.beyond(expected, samples) >= 10


def test_summary_omits_percentiles_without_ten_beyond():
    short = stats.summarize(np.arange(50.0))
    assert short["samples"] == 50 and short["p50"] == 24.5
    assert short["p90"] is None and short["tail"] is None
    long = stats.summarize(np.arange(1000.0))
    assert long["tail_percentile"] == 99.0
    assert long["p90"] == pytest.approx(899.1)


# ---------------------------------------------------------------------------
# restoring the package


def _bindings():
    """Every (holder, name) -> object binding of the loaded package."""
    return {(id(holder), name): value
            for holder in Patch().holders() for name, value in vars(holder).items()}


def _same(before, after):
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


def test_traced_run_rebinds_imports_and_restores_them():
    import wavelearn
    from wavelearn import analysis, network, training, wavelet

    import workloads

    before = _bindings()
    original_corr = wavelet.strided_corr
    original_bank = network.WaveletNet.bank_for_level
    original_train = training.train
    model = network.WaveletNet(4, 8, network.SharingMode.PER_LEVEL_CQF_HT)
    signal = np.random.default_rng(0).normal(size=64)
    with Tracer(workloads.LAYERS) as tr:
        assert tr.missing == []
        assert wavelet.strided_corr is not original_corr
        assert network.strided_corr is wavelet.strided_corr
        assert wavelearn.train is training.train is analysis.train is not original_train
        assert training.upsample_conv is wavelet.upsample_conv
        assert training.forward_trace is network.forward_trace
        assert analysis.model_forward is network.model_forward
        assert network.WaveletNet.bank_for_level is not original_bank
        traced_adam = training.adam_step
        with workloads.StepClock():
            assert training.adam_step is not traced_adam
            assert wavelearn.adam_step is training.adam_step
        assert training.adam_step is traced_adam
        analysis.extract_features(signal, model)
    assert _same(before, _bindings())
    totals = tr.totals()
    assert totals["analysis.extract_features"]["calls"] == 1
    assert totals["network.bank_for_level"]["calls"] == 2 * 4
    assert totals["wavelet.strided_corr"]["macs"] == sum(
        (64 >> lev) // 2 * 8 * 2 for lev in range(4))


def test_restore_after_an_exception():
    from wavelearn import errors, network

    before = _bindings()
    model = network.WaveletNet(4, 8, network.SharingMode.DB4_FIXED)
    with pytest.raises(errors.InvalidSignalError):
        with Tracer([Layer("network.model_forward", "network", "model_forward")]) as tr:
            network.model_forward(np.zeros(1), model)
    assert _same(before, _bindings())
    cols = tr.columns()
    assert cols["layer"].tolist() == [0] and cols["end"][0] >= cols["start"][0]
