"""The loss and its gradient against the dense reference of `reference.py`,
which shares none of the level-op machinery: every mode, at full depth, over
lengths that pad at some levels (37, 100) and at none (64), with kernels
that outgrow the deepest inputs. Parameters are nudged by 0.05, so no
residual falls in `residual_sign`'s dead zone and no coefficient sits on a
kink; each loss term and the gradient agree within `REL` of the largest
entry."""

import numpy as np
import pytest

import reference
from wavelearn.network import SharingMode, WaveletNet, forward_trace
from wavelearn.training import backward_full
from wavelearn.wavelet import max_depth

REL = 1e-12
LENGTHS = (37, 64, 100)
CASES = [(mode, n, k) for mode in SharingMode for n in LENGTHS for k in (4, 8)
         if (mode.scheme.kernel_size or k) == k]


def _perturbed(mode, n, k, rng, rows=None):
    model = WaveletNet(max_depth(n), k, mode, gamma=0.7)
    vec = model.get_parameters()
    shape = vec.shape if rows is None else (rows, vec.size)
    return model.with_parameters(vec + rng.normal(0.0, 0.05, shape))


def _assert_near(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= REL * np.max(np.abs(want), initial=0.0)


def _reference(model, x, fn=reference.losses):
    return fn(model.get_parameters(), x, model.mode.value, model.levels, model.kernel_size,
              model.gamma)


@pytest.mark.parametrize("mode, n, k", CASES, ids=lambda v: getattr(v, "value", v))
def test_loss_and_gradient_of_a_window_and_a_block(mode, n, k):
    rng = np.random.default_rng(n * k)
    model = _perturbed(mode, n, k, rng)
    for x in (rng.normal(size=n), rng.normal(size=(3, n))):
        want = _reference(model, x)
        _assert_near(forward_trace(model, x).losses, want)
        triple, grad = backward_full(x, model)
        _assert_near(triple, [term.sum() for term in want])
        _assert_near(grad, _reference(model, x, reference.gradient))


@pytest.mark.parametrize("mode", SharingMode, ids=lambda m: m.value)
def test_loss_of_a_row_stacked_model(mode):
    rng = np.random.default_rng(2)
    model = _perturbed(mode, 100, 8, rng, rows=2)
    x = rng.normal(size=(2, 100))
    _assert_near(forward_trace(model, x).losses, _reference(model, x))


@pytest.mark.parametrize("mode, k", [(mode, k) for mode, n, k in CASES if n == 64
                                     and mode.scheme.kinds in ((), ("h",))],
                         ids=lambda v: getattr(v, "value", v))
def test_cqf_analysis_is_orthogonal_at_even_lengths(mode, k):
    # a fresh model's scaling kernel (db4, or Haar zero-padded) is
    # orthonormal to its even shifts, so each level that pads nothing is
    # an orthogonal map, also where the kernel wraps around the input
    model = WaveletNet(1, k, mode)
    enc = reference.banks(model.get_parameters(), mode.value, 1, k)[0][0]
    evens = {n for length in LENGTHS for n in _level_lengths(length) if n % 2 == 0}
    assert evens == {2, 4, 8, 10, 16, 32, 50, 64, 100}
    for n in sorted(evens):
        a = reference.operator(enc, n).reshape(n, n)
        assert np.max(np.abs(a @ a.T - np.eye(n))) <= REL


def _level_lengths(n):
    lengths = []
    while n > 1:
        lengths.append(n)
        n = (n + 1) // 2
    return lengths
