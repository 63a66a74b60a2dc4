"""Two-channel filter-bank primitives: CQF construction and the multi-level
cascade transform.

Conventions used throughout:

* samples lie on the last axis: one window is ``(N,)``, a block of B
  equal-length windows ``(B, N)``, and every op works row by row;
* taps lie on the last axis too, and a bank is one ``(..., 2, 2, K)``
  array of the two kernel stacks the level ops read: ``bank[..., 0, :, :]``
  is the encoder stack ``[h, g]``, and ``bank[..., 1, :, :]`` the decoder
  stack ``[h_bar, g_bar]`` index-reversed. A ``(2, K)`` stack serves every
  row, and a ``(B, 2, K)`` one, with the data's leading axis, is one bank
  per row, so row r of a block runs under bank r (one window scored
  against B models);
* analysis is a strided periodic cross-correlation,
  ``a_next[k] = sum_n h[n] * a[(2k + n) mod N]``, for both channels in one
  matmul: the analysis stack times a tap-major copy of the periodic windows,
  ``win[..., n, k] = a[..., (2k + n) mod N]``, gives ``(..., 2, N/2)``;
* synthesis is the transpose of analysis with the decoder stack, in
  polyphase-matrix form (Vaidyanathan 1993, ch. 5): output
  ``2j + p`` sums taps ``2s + p`` of both channels against input ``j - s``,
  so a tap-major copy of the input's periodic windows, transposed, times
  the ``(2 * K/2, 2)`` polyphase taps is one matmul;
* a kernel gradient, ``sum_k u[..., c, k] * x[..., (2k + n) mod N]``, is
  one more matmul on the copy a level op makes anyway: ``u`` times ``win``
  transposed, or in synthesis the copy times ``x`` as ``(N/2, 2)`` pairs;
* the copy is K times the size of its input, so a level op makes it one
  tile of `TILE` outputs per row at a time, small enough to stay in a
  core's L2 cache while every matmul on it reads it; the tiles' outputs
  join along the sample axis, and their kernel gradients add in tile order.
  A window of up to ``2 * TILE`` samples is one tile. BLAS rounds each
  output the same whatever its column's tile, as long as a tile's width is
  a multiple of its kernels' column blocking, as the power of two `TILE`
  is; a gradient of several tiles sums in another order than one of a
  single tile does;
* reversal of a finite kernel means ``h[-n] == h[K-1-n]``;
* the level ops alone zero-pad an odd-length level input by one sample:
  `strided_corr` its input, `upsample_conv` its gradient operand; a caller
  cuts a synthesis output back to the level input's length;
* `strided_corr` and `upsample_conv` define one level each way, and on one
  stack each is the other's transpose: the backward pass runs analysis on
  the decoder stack and synthesis on the encoder stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDepthError, InvalidKernelError, InvalidSignalError, as_signal

# 8-tap Daubechies-4 scaling filter, normalized so sum(h) = sqrt(2) and
# sum(h^2) = 1 hold exactly in float64 (values rounded from a 60-digit
# spectral factorization).
DB4_SCALING = np.array([
    0.2303778133088965,
    0.7148465705529157,
    0.6308807679298589,
    -0.027983769416859854,
    -0.18703481171909309,
    0.030841381835560764,
    0.0328830116668852,
    -0.010597401785069032,
])

HAAR_SCALING = np.array([math.sqrt(0.5), math.sqrt(0.5)])


def as_kernel(taps) -> np.ndarray:
    """Validate and return kernel taps as a float64 array, ``(K,)`` or one
    kernel per row ``(..., K)``.

    A kernel must have even length >= 2 (the alternating-flip relations
    assume even parity) and contain only finite values.
    """
    k = np.asarray(taps, dtype=float)
    if k.ndim == 0 or k.size == 0:
        raise InvalidKernelError("kernel must be a non-empty tap vector")
    if k.shape[-1] % 2 != 0:
        raise InvalidKernelError(
            f"kernel length must be even and >= 2, got {k.shape[-1]}")
    if not np.all(np.isfinite(k)):
        raise InvalidKernelError("kernel taps must be finite")
    return k


def cqf_from_scaling(h) -> np.ndarray:
    """Derive the full conjugate-quadrature bank from one scaling filter.

    g[n] = (-1)^n h[K-1-n],  h_bar[n] = h[K-1-n],  g_bar[n] = (-1)^(n+1) h[n],
    so the index-reversed decoder stack is the encoder stack ``[h, g]``
    again (K even), and the bank holds it twice."""
    h = as_kernel(h)
    signs = np.where(np.arange(h.shape[-1]) % 2 == 0, 1.0, -1.0)
    stack = np.stack((h, signs * h[..., ::-1]), -2)
    return np.stack((stack, stack), -3)


def cqf_fold(grad: np.ndarray) -> np.ndarray:
    """Transpose of `cqf_from_scaling`: folds a gradient on a bank's stacks,
    ``[gh, gg]`` and ``[dh, dg]``, into the scaling kernel, gh - signs*rev(gg)
    + dh - signs*rev(dg) with signs[m] = (-1)^m (kernel length even), row by
    row when the gradient carries a leading row axis."""
    signs = np.where(np.arange(grad.shape[-1]) % 2 == 0, 1.0, -1.0)
    return (grad[..., 0, 0, :] - signs * grad[..., 0, 1, ::-1] + grad[..., 1, 0, :]
            - signs * grad[..., 1, 1, ::-1])


# ---------------------------------------------------------------------------
# low-level strided periodic operators (shared with the gradient code)

# outputs per row in one tile of a level op's tap-major copy (module notes):
# with K = 8 taps one row's tile is a 512 KiB copy
TILE = 8192


def _periodic_ext(x: np.ndarray, after: int) -> np.ndarray:
    """x[..., i mod N] for i in [0, N + after): x extended periodically along
    its last axis (a pad longer than N wraps several times, as a kernel
    longer than the signal does at the deep levels)."""
    n = x.shape[-1]
    if after <= n:
        return np.concatenate((x, x[..., :after]), -1) if after else x
    return x.take(np.arange(n + after) % n, -1)


def _windows(ext: np.ndarray, start: int, count: int, taps: int, hop: int):
    """(..., taps, count) tap-major view of a C-ordered `ext`, view[..., n, k]
    = ext[..., start + hop*k + n]; columns overlap, so it is only read."""
    step = ext.itemsize
    return np.ndarray((*ext.shape[:-1], taps, count), ext.dtype, ext, start * step,
                      (*ext.strides[:-1], step, hop * step))


def _even(x: np.ndarray) -> np.ndarray:
    """`x`, zero-padded by one sample when its last axis has odd length."""
    return np.concatenate([x, np.zeros((*x.shape[:-1], 1))], -1) if x.shape[-1] % 2 else x


def strided_corr(x: np.ndarray, f: np.ndarray, upstream=None):
    """out[..., c, k] = sum_n f[..., c, n] * x[..., (2k + n) mod N] for k in
    [0, N/2), `x` zero-padded to even N: BLAS matmuls on a tap-major window
    copy, one tile of `TILE` outputs at a time (module notes), for a (C, K)
    kernel stack, (..., C, N/2) out, or for a (B, C, K) stack, one per row of
    a (B, N) block; a single (K,) kernel gives (..., N/2).

    Given `upstream`, one array per channel of a (..., C, K) stack's `out`,
    returns (out, grad), the gradient of <upstream, out> on f row by row:
    grad[..., c, n] = sum_k upstream[c][..., k] * x[..., (2k + n) mod N],
    summed over the tiles in tile order."""
    x = _even(x)
    taps, count = f.shape[-1], x.shape[-1] // 2
    # C order is what `_windows` assumes; a column-major block concatenates
    # to another order
    ext = np.ascontiguousarray(_periodic_ext(x, taps - 2))
    # numpy's matmul reaches BLAS only through operands with a unit stride,
    # so each tile's windows, sample axis contiguous, and a reversed stack
    # are copied
    f = np.ascontiguousarray(f)
    outs, grad = [], None
    for lo in range(0, count, TILE):
        win = np.ascontiguousarray(_windows(ext, 2 * lo, min(TILE, count - lo), taps, 2))
        outs.append(f @ win)
        if upstream is not None:
            part = np.concatenate([u[..., None, lo:lo + TILE] @ win.swapaxes(-1, -2)
                                   for u in upstream], -2)
            grad = part if grad is None else grad + part
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, -1)
    return out if upstream is None else (out, grad)


def upsample_conv(v: tuple[np.ndarray, np.ndarray], f: np.ndarray, x=None):
    """out[..., m] = sum_c sum_k v[c][..., k] * f[..., c, (m - 2k) mod 2 half],
    the transpose of `strided_corr` with the same (..., 2, K) kernel stack,
    for the channel pair v = (a, d), each (..., half): BLAS matmuls in
    polyphase form, one tile of `TILE` output pairs at a time (module notes),
    one per row for a (B, 2, K) stack. Kernel indices wrap (fold) when the
    kernel is longer than the output.

    Given `x`, shaped like `out` or one sample shorter (an odd level input,
    zero-padded to `out`'s length), returns (out, grad), the gradient of
    <x, out> on f row by row: grad[..., c, n] = sum_k v[c][..., k] * x[...,
    (2k + n) mod 2 half], summed over the tiles in tile order."""
    a, d = v
    half, taps = a.shape[-1], f.shape[-1] // 2
    # ext[..., c, i] = v[c][..., (i - taps + 1) mod half], filled once; the
    # wrap columns repeat the last taps - 1 samples, or gather them when the
    # channels are shorter than that
    ext = np.empty((*a.shape[:-1], 2, half + taps - 1))
    ext[..., 0, taps - 1:], ext[..., 1, taps - 1:] = a, d
    if half >= taps - 1:
        ext[..., :taps - 1] = ext[..., half:]
    else:
        ext[..., :taps - 1] = ext[..., taps - 1:].take(np.arange(1 - taps, 0) % half, -1)
    # poly[..., c*taps + s, p] = f[..., c, 2 (taps - 1 - s) + p], copied: of a
    # reversed stack the reshape is a view with a negative stride, which
    # matmul rounds another way in a one-row tile
    poly = np.ascontiguousarray(
        f.reshape(*f.shape[:-1], taps, 2)[..., ::-1, :].reshape(*f.shape[:-2], 2 * taps, 2))
    pairs = None if x is None else _even(x).reshape(*x.shape[:-1], half, 2)
    outs, grad = [], None
    for lo in range(0, half, TILE):
        cols = min(TILE, half - lo)
        # the reshape copies the tile's windows, sample axis contiguous
        rows = _windows(ext, lo, cols, taps, 1).reshape(*ext.shape[:-2], 2 * taps, cols)
        tile = rows.swapaxes(-1, -2) @ poly
        outs.append(tile.reshape(*tile.shape[:-2], 2 * cols))
        if x is not None:
            # (rows @ pairs)[..., c*taps + s, p] = grad[..., c, 2 (taps - 1 - s) + p]
            part = rows @ pairs[..., lo:lo + TILE, :]
            grad = part if grad is None else grad + part
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, -1)
    if x is None:
        return out
    grad = grad.reshape(*grad.shape[:-2], 2, taps, 2)
    return out, grad[..., ::-1, :].reshape(*grad.shape[:-3], 2, 2 * taps)


# ---------------------------------------------------------------------------
# full cascade

def max_depth(length: int) -> int:
    """Halvings (with odd-length padding) until one sample is left: ceil(log2(length))."""
    return (int(length) - 1).bit_length() if length >= 2 else 0


def analysis_cascade(signal: np.ndarray, banks: list[np.ndarray]):
    """Encoder: level l analyses the previous approximation with the encoder
    stack of `banks[l]`. Returns (each level's input, details, final
    approximation)."""
    inputs, details = [], []
    a = signal
    for bank in banks:
        inputs.append(a)
        out = strided_corr(a, bank[..., 0, :, :])
        a = out[..., 0, :]
        details.append(out[..., 1, :])
    return inputs, details, a


def synthesis_cascade(approx, details, lengths, banks: list[np.ndarray]) -> list:
    """Decoder from the deepest level up, level l under the decoder stack of
    `banks[l]` cut to `lengths[l]` samples. Entry l of the result is the
    signal at depth l (entry 0 the reconstruction, the last one `approx`)."""
    chain = [approx]
    for l in range(len(banks) - 1, -1, -1):
        out = upsample_conv((chain[-1], details[l]), banks[l][..., 1, :, :])
        chain.append(out[..., :lengths[l]])
    return chain[::-1]


def cascade_input(signal, levels: int) -> np.ndarray:
    """`signal`, one window or a (B, N) block of them, as a float array
    checked for a `levels`-deep cascade."""
    a = as_signal(signal)
    if a.ndim not in (1, 2) or a.shape[-1] < 2 or a.size == 0:
        raise InvalidSignalError(
            "signal must be 1-D, or a (B, N) block, with at least 2 samples")
    if not np.all(np.isfinite(a)):
        raise InvalidSignalError("signal holds non-finite samples")
    n = a.shape[-1]
    if not 1 <= levels <= max_depth(n):
        raise InvalidDepthError(
            f"{levels} levels: length {n} takes 1 to {max_depth(n)}")
    return a
