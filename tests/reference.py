"""Dense reference of the cascade's loss and its gradient, numpy only.

It shares none of the package's level-op machinery: every level is a dense
matrix, every relation is written from its formula, and the gradient is a
complex step.

* Analysis at one level is the matrix ``A = sum_j f[j] E_j`` of the strided
  periodic correlation ``a_next[k] = sum_n f[n] x[(2k + n) mod m]``, where
  ``E_j`` holds a one at ``(k, (2k + j) mod m)``. An input of odd length n
  is zero-padded to m = n + 1, so the pad is a column of A that meets a
  zero alone, and is dropped.
* Synthesis is the transpose of the analysis with the decoder stack (the
  synthesis pair ``[h_bar, g_bar]``, each kernel index-reversed), so it is
  cut to the level input's length by the same dropped column.
* The scheme relations are those of `cqf_from_scaling`'s docstring: one
  scaling kernel h gives ``g[n] = (-1)^n h[K-1-n]``, ``h_bar[n] = h[K-1-n]``
  and ``g_bar[n] = (-1)^(n+1) h[n]``. The despawn2 mode synthesizes with its
  analysis pair (h, g) index-reversed, and the free mode with its own pair.
* The gate is ``y = x (p + q)`` with ``p = sigmoid(a (x - b+))`` and
  ``q = sigmoid(-a (x + b-))``, a the paper's slope. The loss of a row is
  ``mean |x - x_hat| + gamma (sum |details| + sum |approx|) / count``.
* ``|z|`` is continued as ``z sign(Re z)``, which is analytic off the kink,
  so the derivative of the loss along parameter j is
  ``Im L(theta + i h e_j) / h`` with h = 1e-30: a complex step (Squire and
  Trapp, SIAM Review 40(1), 1998), exact to rounding, with no difference
  to cancel.

Parameters are a model's flat vector (`WaveletNet.get_parameters`): the
kernels level by level and kind by kind, then b+ and b- per level when the
thresholds train. Leading axes of a parameter array broadcast against the
signal's, so one call runs a row-stacked model or many complex steps.
"""

from functools import lru_cache

import numpy as np

from wavelearn.network import SHARPNESS
from wavelearn.wavelet import DB4_SCALING

# the complex step, and how many steps one batched forward takes
STEP = 1e-30
CHUNK = 64

# mode -> (kernel kinds that train, one kernel set serves every level,
# the thresholds train); no kind trains in the fixed db4 modes
MODES = {
    "db4": (0, True, False), "db4-ht": (0, True, True),
    "cwn": (1, True, False), "decwn": (1, True, True),
    "lcwn": (1, False, False), "despawn": (1, False, True),
    "despawn2": (2, False, True), "free": (4, False, True),
}


@lru_cache(maxsize=None)
def shifts(n: int, taps: int) -> np.ndarray:
    """The ``(taps, m/2, n)`` stack of the ``E_j`` of an n-sample level input."""
    m = n + n % 2
    e = np.zeros((taps, m // 2, m))
    j, k = np.arange(taps)[:, None], np.arange(m // 2)
    np.add.at(e, (j, k, (2 * k + j) % m), 1.0)
    return e[..., :n]


def operator(stack: np.ndarray, n: int) -> np.ndarray:
    """``sum_j f[j] E_j`` for each kernel f of `stack`: ``(..., m/2, n)``."""
    return np.tensordot(stack, shifts(n, stack.shape[-1]), 1)


def banks(theta: np.ndarray, mode: str, levels: int, taps: int):
    """Per level the encoder stack [h, g] and the decoder stack, each
    ``(..., 2, K)``, and the thresholds (b+, b-), each ``(..., L)``, or None
    where they do not train."""
    kinds, shared, gated = MODES[mode]
    sets = 1 if shared else levels
    count = sets * kinds * taps
    kernels = theta[..., :count].reshape(*theta.shape[:-1], sets, kinds, taps)
    sign = (-1.0) ** np.arange(taps)
    enc, dec = [], []
    for l in range(levels):
        k = kernels[..., 0 if shared else l, :, :]
        if kinds <= 1:
            h = k[..., 0, :] if kinds else np.broadcast_to(DB4_SCALING, k.shape[:-2] + (taps,))
            g, h_bar, g_bar = sign * h[..., ::-1], h[..., ::-1], -sign * h
        elif kinds == 2:
            h, g = k[..., 0, :], k[..., 1, :]
            h_bar, g_bar = h[..., ::-1], g[..., ::-1]
        else:
            h, g, h_bar, g_bar = (k[..., i, :] for i in range(4))
        enc.append(np.stack((h, g), -2))
        dec.append(np.stack((h_bar, g_bar), -2)[..., ::-1])
    thresholds = (theta[..., count:count + levels], theta[..., count + levels:]) if gated else None
    return enc, dec, thresholds


def _abs(z):
    return z * np.sign(z.real)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def losses(theta, x, mode: str, levels: int, taps: int, gamma: float):
    """(total, reconstruction, sparsity) of each row of `x` under `theta`."""
    enc, dec, thresholds = banks(theta, mode, levels, taps)
    a, inputs, details = x, [], []
    for l in range(levels):
        inputs.append(a)
        out = (operator(enc[l], a.shape[-1]) @ a[..., None, :, None])[..., 0]
        a, d = out[..., 0, :], out[..., 1, :]
        if thresholds is not None:
            b_plus, b_minus = (b[..., l, None] for b in thresholds)
            d = d * (_sigmoid(SHARPNESS * (d - b_plus)) + _sigmoid(-SHARPNESS * (d + b_minus)))
        details.append(d)
    y = a
    for l in range(levels - 1, -1, -1):
        synthesis = np.swapaxes(operator(dec[l], inputs[l].shape[-1]), -1, -2)
        y = (synthesis @ np.stack((y, details[l]), -2)[..., None])[..., 0].sum(-2)
    recon = _abs(x - y).mean(-1)
    coeffs = sum(_abs(d).sum(-1) for d in details) + _abs(a).sum(-1)
    sparsity = coeffs / (sum(d.shape[-1] for d in details) + a.shape[-1])
    return recon + gamma * sparsity, recon, sparsity


def gradient(theta, x, mode: str, levels: int, taps: int, gamma: float):
    """The gradient of the total loss, summed over the rows of `x`, on a
    flat parameter vector, by one complex step per parameter."""
    out = [np.zeros(0)]
    for lo in range(0, theta.size, CHUNK):
        hi = min(lo + CHUNK, theta.size)
        probe = np.tile(theta.astype(complex), (hi - lo, 1))
        probe[np.arange(hi - lo), np.arange(lo, hi)] += 1j * STEP
        total = losses(probe.reshape(hi - lo, *(1,) * (x.ndim - 1), -1), x, mode, levels,
                       taps, gamma)[0]
        out.append(total.imag.reshape(hi - lo, -1).sum(-1) / STEP)
    return np.concatenate(out)
