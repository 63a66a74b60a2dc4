"""Importing the package keeps freed heap pages mapped, so a training step or
a backward pass does not fault its temporaries back in on every call; where
the allocator setting cannot be made, the import goes on quietly."""

import ctypes
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import wavelearn

SRC = Path(wavelearn.__file__).resolve().parents[1]

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the heap thresholds are glibc's")

# prints the minor page faults per counted call of `run`, after one warm-up
# call, in a process that has done nothing else
_COUNT = """
import resource
import numpy as np
from wavelearn.network import SharingMode, WaveletNet
from wavelearn.training import TrainConfig, backward_full, train
signals = np.random.default_rng(0).standard_normal(({rows}, {length}))
{setup}
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({calls}):
    run()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / {per})
"""


def _faults(rows, length, setup, calls, per):
    # one BLAS thread, as the benchmark runs, so that only the heap's faults
    # count; the environment's own malloc tunables would hide the package's
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    code = _COUNT.format(rows=rows, length=length, setup=setup, calls=calls, per=per)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return float(proc.stdout)


@glibc_only
def test_training_steps_on_short_windows_do_not_fault():
    # 20 Adam steps per `train` call, each on one (8, 1 024) block; at glibc's
    # default thresholds a step faulted tens to hundreds of times
    steps = 20
    setup = (f"config = TrainConfig(epochs={steps}, batch_size=8, levels=10)\n"
             "run = lambda: train(list(signals), SharingMode('despawn'), config)")
    assert _faults(8, 1024, setup, calls=1, per=steps) <= 5


@glibc_only
def test_backward_passes_over_a_long_window_do_not_fault():
    # at glibc's default thresholds a call faulted about 4 600-5 500 times;
    # with the package's, the first counted call still grows the heap by a
    # few hundred pages and the later ones fault not at all
    setup = ("model = WaveletNet(17, 8, SharingMode('despawn'))\n"
             "run = lambda: backward_full(signals, model)")
    assert _faults(1, 160_000, setup, calls=20, per=20) <= 50


def _quietly_keeps_freed_heap_mapped():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wavelearn._keep_freed_heap_mapped() is None


def test_a_c_library_that_cannot_be_loaded_is_skipped_quietly(monkeypatch):
    def unloadable(*args, **kwargs):
        raise OSError("no C library here")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    _quietly_keeps_freed_heap_mapped()


def test_a_c_library_without_mallopt_is_skipped_quietly(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    _quietly_keeps_freed_heap_mapped()


def test_setting_the_thresholds_again_is_harmless():
    _quietly_keeps_freed_heap_mapped()
    _quietly_keeps_freed_heap_mapped()
