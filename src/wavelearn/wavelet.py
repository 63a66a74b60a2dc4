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
  the stack's ``(K, 2)`` polyphase taps (`polyphase`) is one matmul;
* a kernel gradient, ``sum_k u[..., c, k] * x[..., (2k + n) mod N]``, is
  one more matmul on the copy a level op makes anyway: ``u`` times ``win``
  transposed, or in synthesis the copy times ``x`` as ``(N/2, 2)`` pairs,
  which gives it on the polyphase taps;
* the copy is K times the size of its input, so a level op makes it one
  tile of `TILE` outputs per row at a time, small enough to stay in a
  core's L2 cache while every matmul on it reads it; the tiles' outputs
  join along the sample axis, and their kernel gradients add in tile order.
  A window of up to ``2 * TILE`` samples is one tile. BLAS rounds each
  output the same whatever its column's tile, as long as a tile's width is
  a multiple of its kernels' column blocking, as the power of two `TILE`
  is; a gradient of several tiles sums in another order than one of a
  single tile does;
* a block of at most `GATHER` zero-padded samples over all its rows, or
  one whose kernel outgrows its input, gathers its copy as one tile in one
  ``take`` through a read-only index of its windows' samples, which wraps
  them around the input as often as they outgrow it (im2col: Chellapilla,
  Puri and Simard, IWFHR 2006): at the deep levels a strided copy's set-up
  costs more than its arithmetic. The index is shape-only, derived once per
  (rows, N, K, direction) in a bounded module cache that threads share;
* reversal of a finite kernel means ``h[-n] == h[K-1-n]``;
* the level ops alone zero-pad an odd-length level input by one sample:
  `strided_corr` its input, `upsample_conv` its gradient operand; a caller
  cuts a synthesis output back to the level input's length;
* `strided_corr` and `upsample_conv` define one level each way, and on one
  stack each is the other's transpose: the backward pass runs analysis on
  the decoder stack and synthesis on the encoder stack;
* a level op that does not gather fills its periodic extension and tile
  copy in its thread's scratch arena: one private buffer, mapped outside
  the malloc heap, copied on write into a forked child, and views into it
  made once per (rows, N, K, direction), which every op of that key
  shares, as one level op runs at a time (FFTW's split of planning from
  running: Frigo and Johnson, Proc. IEEE 93(2), 2005). The buffer is sized
  by the largest such op the thread has run and kept until the thread
  exits, so one large call holds its scratch for the thread's life; a new
  `TILE` needs the views dropped. No array a level op returns is scratch,
  so it outlives later calls.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading

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
# the most zero-padded samples, over all rows, of a block whose level ops
# gather their copy (module notes)
GATHER = 64


def polyphase(stack: np.ndarray) -> np.ndarray:
    """The ``(..., K, 2)`` polyphase taps of a ``(..., 2, K)`` stack,
    ``poly[..., c*K/2 + s, p] = stack[..., c, K - 2 - 2s + p]``, copied (a
    negatively strided operand makes matmul round another way); on taps read
    back as ``(..., 2, K)`` it undoes itself, so it maps gradients too."""
    pairs = stack.reshape(*stack.shape[:-1], stack.shape[-1] // 2, 2)[..., ::-1, :]
    return np.ascontiguousarray(pairs).reshape(*stack.shape[:-2], stack.shape[-1], 2)


@functools.lru_cache(maxsize=256)
def _gather_index(rows: int, m: int, taps: int, synthesis: bool) -> np.ndarray | None:
    """The read-only (K, m/2) index whose ``take`` from a level op's input,
    `rows` rows zero-padded to even length `m`, is its tap-major copy, or
    None where the op makes its copy strided (module notes). In analysis
    ``copy[s, k] = x[(2k + s) mod m]``; in synthesis, from the two channels
    joined, ``copy[c K/2 + s, k] = v[c][(k + s - K/2 + 1) mod m/2]``. The
    cache keeps the answer to `GATHER`, so a new `GATHER` needs `cache_clear`."""
    if rows * m > GATHER and m >= taps:
        return None
    half, k = m // 2, np.arange(m // 2)
    if synthesis:
        s = np.arange(taps // 2)[:, None]
        idx = np.concatenate([c * half + (k + s - taps // 2 + 1) % half for c in (0, 1)])
    else:
        idx = (2 * k + np.arange(taps)[:, None]) % m
    idx.flags.writeable = False
    return idx


class _Arena(threading.local):
    """One thread's scratch (module notes): `buffer`, and in `views` the
    views into it of at most 256 strided level ops, keyed by `_scratch`'s
    arguments. Thread-local, so a finished thread's buffer goes with it."""

    def __init__(self):
        self.buffer, self.views = np.empty(0), {}


_ARENA = _Arena()


def _scratch(lead, n: int, taps: int, synthesis: bool):
    """One strided level op's views over (*lead, n) inputs into this thread's
    arena, made on a miss and kept there: the periodic extension at the
    start, (*lead, 2, N/2 + K/2 - 1) in synthesis, and per tile of `TILE`
    outputs its bounds, a (*lead, K, cols) copy after the extension,
    contiguous as BLAS needs, that copy in the windows' shape, the read-only
    view of the overlapping windows, the copy transposed. An op larger than
    the buffer replaces it, and its views with it."""
    half = (n + 1) // 2
    width, cols = 2 * half + taps - 2, min(TILE, half)
    rows, arena = math.prod(lead), _ARENA
    size = rows * (width + taps * cols)
    if arena.buffer.size < size:
        # private, and outside the malloc heap, which a buffer that outlives
        # its call would split (`_keep_freed_heap_mapped`)
        arena.buffer = np.frombuffer(mmap.mmap(-1, 8 * size, flags=mmap.MAP_PRIVATE), float)
        arena.views = {}
    elif len(arena.views) >= 256:
        arena.views = {}
    if synthesis:  # windows[..., c, s, k] = ext[..., c, lo + k + s]
        shape, hop, ext_shape = (*lead, 2, taps // 2), 1, (*lead, 2, width // 2)
    else:  # windows[..., s, k] = ext[..., 2 (lo + k) + s]
        shape, hop, ext_shape = (*lead, taps), 2, (*lead, width)
    ext = arena.buffer[:rows * width].reshape(ext_shape)
    copy = arena.buffer[rows * width:size].reshape(*lead, taps, cols)
    strides, tiles = (*ext.strides[:-1], 8, 8 * hop), []
    for lo in range(0, half, cols):
        part = copy if half - lo >= cols else copy[..., :half - lo]  # the last tile is short
        cols = part.shape[-1]
        tiles.append((lo, lo + cols, part, part.reshape(*shape, cols) if synthesis else part,
                      np.ndarray((*shape, cols), float, ext, 8 * hop * lo, strides),
                      part.swapaxes(-1, -2)))
    arena.views[lead, n, taps, synthesis] = ext, tiles
    return ext, tiles


def strided_corr(x: np.ndarray, f: np.ndarray, upstream=None, grad=None):
    """out[..., c, k] = sum_n f[..., c, n] * x[..., (2k + n) mod N] for k in
    [0, N/2), `x` zero-padded to even N: BLAS matmuls on a tap-major window
    copy, gathered for a small block, else one tile of `TILE` outputs at a
    time in the thread's arena (module notes), for a (C, K) kernel stack
    with taps at a unit stride, (..., C, N/2) out, or for a (B, C, K) stack,
    one per row of a (B, N) block; a (K,) kernel gives (..., N/2).

    Given `upstream`, one array per channel of a (..., C, K) stack's `out`,
    also writes into `grad` the gradient of <upstream, out> on f row by row,
    grad[..., c, n] = sum_k upstream[c][..., k] * x[..., (2k + n) mod N],
    summed in tile order."""
    n, taps = x.shape[-1], f.shape[-1]
    m = n + n % 2
    idx = _gather_index(x.size // n, m, taps, False)
    if idx is not None:
        if n < m:
            x = np.concatenate((x, np.zeros((*x.shape[:-1], 1))), -1)
        copy = x.take(idx, -1)
        tiles = ((0, m // 2, copy, copy, None, copy.swapaxes(-1, -2) if upstream else None),)
    else:
        key = (x.shape[:-1], n, taps, False)  # looked up inline: a hit makes no call
        ext, tiles = _ARENA.views[key] if key in _ARENA.views else _scratch(*key)
        ext[..., :n] = x
        if n < m:
            ext[..., n] = 0.0
        ext[..., m:] = ext[..., :taps - 2]
    # one tile's product is the output; several fill a fresh one
    out = np.empty((*x.shape[:-1], *f.shape[-2:-1], m // 2)) if len(tiles) > 1 else None
    for lo, hi, copy, shaped, view, copy_t in tiles:
        if view is not None:
            np.copyto(shaped, view)
        if out is None:
            out = f @ copy
        else:
            np.matmul(f, copy, out=out[..., lo:hi])
        for c, u in enumerate(upstream or ()):
            part = np.matmul(u[..., None, lo:hi], copy_t, out=None if lo else grad[..., c:c + 1, :])
            if lo:
                grad[..., c:c + 1, :] += part
    return out


def upsample_conv(v: tuple[np.ndarray, np.ndarray], poly: np.ndarray, x=None, grad=None):
    """out[..., m] = sum_c sum_k v[c][..., k] * f[..., c, (m - 2k) mod 2 half],
    the transpose of `strided_corr` with the same (..., 2, K) kernel stack f,
    given as its polyphase taps `poly`, for the channel pair v = (a, d), each
    (..., half): BLAS matmuls in polyphase form, gathered or tiled in the
    arena as in `strided_corr`, one per row for (B, K, 2) taps. Kernel
    indices wrap (fold) when the kernel is longer than the output.

    Given `x`, shaped like `out` or one sample shorter (an odd level input,
    zero-padded to `out`'s length), also writes into `grad` the gradient of
    <x, out> on `poly` row by row, summed in tile order; `polyphase` maps it
    to the gradient on f, grad[..., c, n] = sum_k v[c][..., k] * x[...,
    (2k + n) mod 2 half]."""
    a, d = v
    lead, half, taps = a.shape[:-1], a.shape[-1], poly.shape[-2]
    idx = _gather_index(a.size // half, 2 * half, taps, True)
    if idx is not None:
        copy = np.concatenate((a, d), -1).take(idx, -1)
        tiles = ((0, half, copy, copy, None, copy.swapaxes(-1, -2)),)
    else:
        key = (lead, 2 * half, taps, True)
        ext, tiles = _ARENA.views[key] if key in _ARENA.views else _scratch(*key)
        # ext[..., c, i] = v[c][..., (i - K/2 + 1) mod half]
        ext[..., 0, taps // 2 - 1:], ext[..., 1, taps // 2 - 1:] = a, d
        ext[..., :taps // 2 - 1] = ext[..., half:]
    out = np.empty((*lead, half, 2)) if len(tiles) > 1 else None  # as in `strided_corr`
    if x is not None:  # an odd-length `x` zero-padded by one sample
        pairs = np.concatenate([x, np.zeros((*x.shape[:-1], 1))], -1) if x.shape[-1] % 2 else x
        pairs = pairs.reshape(*x.shape[:-1], half, 2)
    for lo, hi, copy, shaped, view, copy_t in tiles:
        if view is not None:
            np.copyto(shaped, view)
        if out is None:
            out = copy_t @ poly
        else:
            np.matmul(copy_t, poly, out=out[..., lo:hi, :])
        if x is not None:
            part = np.matmul(copy, pairs[..., lo:hi, :], out=None if lo else grad)
            if lo:
                grad += part
    return out.reshape(*lead, 2 * half)


# ---------------------------------------------------------------------------
# full cascade

def max_depth(length: int) -> int:
    """Halvings (with odd-length padding) until one sample is left: ceil(log2(length))."""
    return (int(length) - 1).bit_length() if length >= 2 else 0


def analysis_cascade(signal: np.ndarray, stacks):
    """Encoder: level l analyses the previous approximation with the encoder
    stack `stacks[l]`. Returns (each level's input, details, final
    approximation)."""
    inputs, details = [], []
    a = signal
    for stack in stacks:
        inputs.append(a)
        out = strided_corr(a, stack)
        a = out[..., 0, :]
        details.append(out[..., 1, :])
    return inputs, details, a


def synthesis_cascade(approx, details, lengths, taps) -> list:
    """Decoder from the deepest level up, level l under the decoder stack's
    polyphase taps `taps[l]` cut to `lengths[l]` samples. Entry l of the
    result is the signal at depth l (entry 0 the reconstruction, the last
    one `approx`)."""
    chain = [approx]
    for l in range(len(taps) - 1, -1, -1):
        out = upsample_conv((chain[-1], details[l]), taps[l])
        chain.append(out[..., :lengths[l]])
    return chain[::-1]


def cascade_input(signal, levels: int) -> np.ndarray:
    """`signal`, one window or a (B, N) block of them, as a float array
    checked for a `levels`-deep cascade."""
    a = as_signal(signal)
    if a.ndim not in (1, 2) or a.shape[-1] < 2 or a.size == 0:
        raise InvalidSignalError(
            "signal must be 1-D, or a (B, N) block, with at least 2 samples")
    if not np.isfinite(a).all():
        raise InvalidSignalError("signal holds non-finite samples")
    n = a.shape[-1]
    if not 1 <= levels <= max_depth(n):
        raise InvalidDepthError(
            f"{levels} levels: length {n} takes 1 to {max_depth(n)}")
    return a
