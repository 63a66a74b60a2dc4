"""Two-channel filter-bank primitives: CQF construction and the multi-level
cascade transform.

Conventions used throughout:

* samples lie on the last axis: one window is ``(N,)``, a block of B
  equal-length windows ``(B, N)``, and every op works row by row;
* taps lie on the last axis too, and a bank is two ``(..., 2, K)`` kernel
  stacks, ``analysis`` = ``[h, g]`` and ``synthesis`` = ``[h_bar, g_bar]``:
  a ``(2, K)`` stack serves every row, and a ``(B, 2, K)`` one, with the
  data's leading axis, is one bank per row, so row r of a block runs under
  bank r (one window scored against B models);
* analysis is a strided periodic cross-correlation,
  ``a_next[k] = sum_n h[n] * a[(2k + n) mod N]``, for both channels in one
  matmul: the analysis stack times a tap-major copy of the periodic windows,
  ``win[..., n, k] = a[..., (2k + n) mod N]``, gives ``(..., 2, N/2)``;
* synthesis is the transpose of analysis with the index-reversed synthesis
  stack, in polyphase-matrix form (Vaidyanathan 1993, ch. 5): output
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
* odd-length inputs are zero-padded by one sample before striding and the
  pre-pad length is recorded so inversion can truncate exactly;
* `analysis_step` and `synthesis_step` define one level each way, and run
  on the bank `FilterBank.adjoint()` returns each is the other's transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDepthError, InvalidKernelError, InvalidSignalError

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


@dataclass(frozen=True, slots=True)
class FilterBank:
    """The four kernels of one decomposition level, as two ``(..., 2, K)``
    stacks: ``analysis`` = ``[h, g]``, the low/high-pass analysis kernels,
    and ``synthesis`` = ``[h_bar, g_bar]``, the corresponding synthesis
    kernels. With a leading row axis they hold one bank per row; the four
    kernels are read-only views into the stacks.
    """

    analysis: np.ndarray
    synthesis: np.ndarray

    h = property(lambda self: self.analysis[..., 0, :])
    g = property(lambda self: self.analysis[..., 1, :])
    h_bar = property(lambda self: self.synthesis[..., 0, :])
    g_bar = property(lambda self: self.synthesis[..., 1, :])

    def adjoint(self) -> "FilterBank":
        """Analysis and synthesis kernels swapped, each index-reversed."""
        return FilterBank(self.synthesis[..., ::-1], self.analysis[..., ::-1])


def cqf_from_scaling(h) -> FilterBank:
    """Derive the full conjugate-quadrature bank from one scaling filter.

    g[n] = (-1)^n h[K-1-n],  h_bar[n] = h[K-1-n],  g_bar[n] = (-1)^(n+1) h[n].
    """
    h = as_kernel(h)
    signs = np.where(np.arange(h.shape[-1]) % 2 == 0, 1.0, -1.0)
    return FilterBank(np.stack((h, signs * h[..., ::-1]), -2),
                      np.stack((h[..., ::-1], -signs * h), -2))


def cqf_fold(grad: FilterBank) -> np.ndarray:
    """Transpose of `cqf_from_scaling`: folds a gradient on the four derived
    kernels into the scaling kernel, gh - signs*rev(gg) + rev(ghb) - signs*ggb
    with signs[m] = (-1)^m (kernel length even), row by row when the
    gradients carry a leading row axis."""
    signs = np.where(np.arange(grad.h.shape[-1]) % 2 == 0, 1.0, -1.0)
    return (grad.h - signs * grad.g[..., ::-1] + grad.h_bar[..., ::-1]
            - signs * grad.g_bar)


def db4_filterbank() -> FilterBank:
    """CQF bank built from the 8-tap Daubechies-4 scaling filter."""
    return cqf_from_scaling(DB4_SCALING)


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


def strided_corr(x: np.ndarray, f: np.ndarray, upstream=None):
    """out[..., c, k] = sum_n f[..., c, n] * x[..., (2k + n) mod N] for k in
    [0, N/2): BLAS matmuls on a tap-major window copy, one tile of `TILE`
    outputs at a time (module notes), for a (C, K) kernel stack, (..., C, N/2)
    out, or for a (B, C, K) stack, one per row of a (B, N) block; a single
    (K,) kernel gives (..., N/2).  N even.

    Given `upstream`, one array per channel of a (..., C, K) stack's `out`,
    returns (out, grad), the gradient of <upstream, out> on f row by row:
    grad[..., c, n] = sum_k upstream[c][..., k] * x[..., (2k + n) mod N],
    summed over the tiles in tile order."""
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

    Given `x`, shaped like `out`, returns (out, grad), the gradient of
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
    # poly[..., c*taps + s, p] = f[..., c, 2 (taps - 1 - s) + p]
    poly = f.reshape(*f.shape[:-1], taps, 2)[..., ::-1, :].reshape(*f.shape[:-2], 2 * taps, 2)
    pairs = None if x is None else x.reshape(*x.shape[:-1], half, 2)
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
    """Number of halvings (with odd-length padding) until one sample is left."""
    if length < 2:
        return 0
    depth = 0
    while length > 1:
        length = (length + 1) // 2
        depth += 1
    return depth


def analysis_step(a: np.ndarray, bank: FilterBank, upstream=None):
    """One encoder level: (`a` zero-padded to even length, approx, detail).
    Given `upstream`, a pair shaped like (approx, detail), a fourth entry is
    their `strided_corr` gradient on `bank.analysis`."""
    if a.shape[-1] % 2:
        a = np.concatenate([a, np.zeros((*a.shape[:-1], 1))], axis=-1)
    if upstream is None:
        out = strided_corr(a, bank.analysis)
        return a, out[..., 0, :], out[..., 1, :]
    out, grad = strided_corr(a, bank.analysis, upstream)
    return a, out[..., 0, :], out[..., 1, :], grad


def synthesis_step(a, d, n: int, bank: FilterBank, x=None):
    """One decoder level: the transpose of analysis with the index-reversed
    synthesis stack, both channels summed and cut to the pre-pad length.
    Given `x`, an output zero-padded to even length, returns (output, the
    `upsample_conv` gradient on that reversed stack)."""
    if x is None:
        return upsample_conv((a, d), bank.synthesis[..., ::-1])[..., :n]
    out, grad = upsample_conv((a, d), bank.synthesis[..., ::-1], x)
    return out[..., :n], grad


def analysis_cascade(signal: np.ndarray, banks: list[FilterBank]):
    """Encoder: level l analyses the previous approximation with `banks[l]`.
    Returns (padded inputs, pre-pad lengths, details, final approximation).
    """
    padded, lengths, details = [], [], []
    a = signal
    for bank in banks:
        lengths.append(a.shape[-1])
        a_pad, a, d = analysis_step(a, bank)
        padded.append(a_pad)
        details.append(d)
    return padded, lengths, details, a


def synthesis_cascade(approx, details, lengths, banks: list[FilterBank]) -> list:
    """Decoder from the deepest level up. Entry l of the result is the
    signal at depth l (entry 0 the reconstruction, the last one `approx`)."""
    chain = [approx]
    for l in range(len(banks) - 1, -1, -1):
        chain.append(synthesis_step(chain[-1], details[l], lengths[l], banks[l]))
    return chain[::-1]


def cascade_input(signal, levels: int) -> np.ndarray:
    """`signal`, one window or a (B, N) block of them, as a float array
    checked for a `levels`-deep cascade."""
    a = np.asarray(signal, dtype=float)
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
